//! `fabench`: the repository's one outside-in benchmark.
//!
//! ```text
//! fabench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
//! fabench [--seed <n>] [--seconds <s>] [--repeat <sets>]             full sets, then the noise floor
//! fabench --check [--seed <n>]                                       every output check, quickly
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and how to read a trace file.

mod check;
mod replay;
mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{Metrics, RunRecord, END_TO_END, PER_LAYER};
use sut::World;
use trace::Trace;
use workloads::{ClientTrace, Kind, Measured, Phases, Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 1;
/// A serving run must put this many samples behind its percentiles: what
/// p99 needs to have ten samples beyond it.
const MIN_LATENCY_SAMPLES: usize = 1_000;
/// The victim must classify the seed's clean traffic this well (top-5;
/// chance is 0.12) for its verdicts and the figures to mean anything.
/// Ten epochs on 24 samples per class reach about 0.7.
const MIN_CLEAN_TOP5: f64 = 0.5;

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    traced: bool,
    repeat: Option<usize>,
    check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut words = std::env::args().skip(1);
    while let Some(flag) = words.next() {
        if flag == "--check" {
            args.check = true;
            continue;
        }
        let value = words
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not a number");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => args.seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => args.traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--repeat" => args.repeat = Some(value.parse().map_err(|_| bad())?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn declared() -> Result<report::Declared, String> {
    let beside_package = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| std::fs::read_to_string(beside_package))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    report::read_declared(&text)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The end-to-end metrics of one measured phase.
fn end_to_end(world: &World, measured: &Measured) -> Result<Metrics, String> {
    let latencies = stats::sorted(measured.tally.latencies_us.clone());
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", world.times.total_s)?;
    if let Some(p50) = stats::percentile(&latencies, 50.0) {
        metrics.set("latency_p50_us", p50)?;
    }
    if measured.window_s > 0.0 {
        metrics.set("throughput_rps", latencies.len() as f64 / measured.window_s)?;
    }
    metrics.set("peak_rss_mb", report::peak_rss_mib()?)?;
    Ok(metrics)
}

/// Output checks of one measured phase, by name. Wrong answers and
/// refusals are already in the tally.
fn output_checks(
    world: &World,
    workload: &Workload,
    measured: &Measured,
    need_tail: bool,
) -> Vec<String> {
    let mut broken = Vec::new();
    let tally = &measured.tally;
    if tally.failed > 0 {
        broken.push(format!(
            "outputs_match_reference: {} of {} operations failed, first: {}",
            tally.failed,
            tally.attempted,
            tally.first_failure.as_deref().unwrap_or("?")
        ));
    }
    if tally.attempted == 0 {
        broken.push("work_done: nothing was attempted".to_owned());
    }
    if measured.engine.failed > 0 || measured.engine.queue_rejected > 0 {
        broken.push(format!(
            "engine_clean: the engine reports {} failed and {} rejected requests",
            measured.engine.failed, measured.engine.queue_rejected
        ));
    }
    if world.clean_top5 < MIN_CLEAN_TOP5 {
        broken.push(format!(
            "victim_sane: clean top-5 accuracy {} is below {MIN_CLEAN_TOP5}",
            world.clean_top5
        ));
    }
    let samples = tally.latencies_us.len();
    if need_tail && workload.kind != Kind::Repro && samples < MIN_LATENCY_SAMPLES {
        broken.push(format!(
            "latency_samples: {samples} samples support p{:?}, p99 needs {MIN_LATENCY_SAMPLES}",
            stats::supported_tail(samples)
        ));
    }
    broken
}

/// The end-to-end metrics of an untraced phase and every check on it.
fn judged(
    world: &World,
    workload: &Workload,
    measured: &Measured,
    need_tail: bool,
) -> Result<(Metrics, Vec<String>), String> {
    let metrics = end_to_end(world, measured)?;
    let mut broken = output_checks(world, workload, measured, need_tail);
    broken.extend(
        metrics
            .unset()
            .iter()
            .map(|name| format!("metrics_emitted: {name} has no value")),
    );
    Ok((metrics, broken))
}

fn describe(workload: &Workload, measured: &Measured) {
    let tally = &measured.tally;
    eprintln!(
        "[fabench] {}: {} attempted, {} failed, {:.3} s measured, {} latency samples (tail supported: p{:?})",
        workload.name,
        tally.attempted,
        tally.failed,
        measured.window_s,
        tally.latencies_us.len(),
        stats::supported_tail(tally.latencies_us.len()).unwrap_or(0.0),
    );
    if workload.kind == Kind::Repro {
        let fig = &measured.fig;
        eprintln!(
            "[fabench]   fig7 {:.3} s, fig9 {:.3} s, blind success {:.3}, FAdeML success {:.3}, clean top-5 {:.3}",
            fig.fig7_s, fig.fig9_s, fig.blind_success_rate, fig.fademl_success_rate, fig.clean_top5
        );
    } else {
        eprintln!(
            "[fabench]   mean batch {:.2} over {} batches, {} hardened, flag rate clean {:.3} / adversarial {:.3}",
            measured.engine.mean_batch_size,
            measured.engine.batches_dispatched,
            measured.engine.hardened_served,
            tally.flag_rate(false),
            tally.flag_rate(true),
        );
    }
}

fn print_metrics(metrics: &Metrics) {
    for (def, value) in metrics.entries() {
        eprintln!("[fabench]   {:<44} {value:>16.4} {}", def.name, def.unit);
    }
}

/// One workload, once: the driver's entry point.
fn run_one(workload: Workload, seed: u64, seconds: f64, traced: bool) -> Result<bool, String> {
    let provenance = report::provenance(workload.name, seed, seconds, traced);
    eprintln!("[fabench] {provenance}");
    let world = World::build(seed)?;
    let times = &world.times;
    eprintln!(
        "[fabench] set-up {:.3} s (training {:.3} s), clean top-5 {:.3}",
        times.total_s, times.train_s, world.clean_top5
    );

    let (metrics, measured, broken) = if traced {
        // Half the time untraced, half traced: the difference between
        // the two passes is the tracing overhead.
        let phases = Phases {
            min_passes: 1,
            ..Phases::for_seconds(seconds / 2.0)
        };
        let untraced = workloads::run(&world, &workload, phases, None)?;
        let mut trace = Trace::default();
        let client = ClientTrace {
            trace: &mut trace,
            epoch: Instant::now(),
        };
        let with_trace = workloads::run(&world, &workload, phases, Some(client))?;
        let mut metrics = Metrics::new(PER_LAYER);
        for note in replay::replay(
            &world,
            &workload,
            &untraced,
            &with_trace,
            &mut trace,
            &mut metrics,
        )? {
            eprintln!("[fabench]   {note}");
        }
        let path = out_dir().join(format!("trace-{}.json", workload.name));
        trace
            .write_json(&path, &provenance)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "[fabench] {} spans written to {}",
            trace.spans.len(),
            path.display()
        );
        let mut broken = output_checks(&world, &workload, &untraced, true);
        broken.extend(output_checks(&world, &workload, &with_trace, false));
        (metrics, untraced, broken)
    } else {
        let measured = workloads::run(&world, &workload, Phases::for_seconds(seconds), None)?;
        let (metrics, broken) = judged(&world, &workload, &measured, true)?;
        (metrics, measured, broken)
    };
    describe(&workload, &measured);
    print_metrics(&metrics);
    for failure in &broken {
        eprintln!("[fabench] CHECK FAILED {failure}");
    }
    println!("{{\"provenance\": {provenance}}}");
    let tally = &measured.tally;
    println!(
        "{}",
        report::result_line(
            broken.is_empty(),
            tally.attempted.max(1),
            tally.failed,
            &metrics
        )
    );
    Ok(broken.is_empty())
}

/// `--check`: every output check on every workload in well under a
/// minute, and the declared names against the registries.
fn check_mode(seed: u64) -> Result<bool, String> {
    let began = Instant::now();
    report::check_declared(&declared()?).map_err(|e| format!("names_declared: {e}"))?;
    let world = World::build(seed)?;
    let mut ok = true;
    for workload in WORKLOADS {
        let phases = match workload.kind {
            Kind::Repro => Phases {
                warmup: Duration::ZERO,
                measure: Duration::ZERO,
                eval_n: 4,
                min_passes: 1,
            },
            _ => Phases {
                warmup: Duration::from_millis(250),
                ..Phases::for_seconds(2.0)
            },
        };
        let measured = workloads::run(&world, &workload, phases, None)?;
        describe(&workload, &measured);
        let (_, broken) = judged(&world, &workload, &measured, false)?;
        for failure in &broken {
            eprintln!("[fabench] CHECK FAILED {}: {failure}", workload.name);
        }
        ok &= broken.is_empty();
    }
    eprintln!(
        "[fabench] check {} in {:.1} s",
        if ok { "passed" } else { "FAILED" },
        began.elapsed().as_secs_f64()
    );
    Ok(ok)
}

/// Runs this executable again for one workload and reads its result
/// line back. One process per run keeps `peak_rss_mb` a per-workload
/// number.
fn child_run(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<(bool, RunRecord), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("the run printed no result")?;
    println!(
        "{} seed {seed} trace {}: {line}",
        workload.name,
        u8::from(traced)
    );
    let (correct, failed, record) = report::parse_result(workload.name, line)?;
    Ok((output.status.success() && correct && failed == 0, record))
}

/// Full sets: the four workloads untraced for the end-to-end numbers,
/// once per seed, then one traced pass each for the per-layer numbers.
fn full_sets(seed: u64, seconds: f64, sets: usize) -> Result<bool, String> {
    let mut ok = true;
    let mut records = Vec::new();
    for set in 0..sets as u64 {
        for workload in WORKLOADS {
            let (good, record) = child_run(&workload, seed + set, seconds, false)?;
            ok &= good;
            records.push(record);
        }
    }
    for workload in WORKLOADS {
        ok &= child_run(&workload, seed, seconds, true)?.0;
    }
    if sets > 1 {
        let bounds = declared().map(|d| d.bounds).unwrap_or_default();
        println!(
            "\nNoise floor over {sets} sets, seeds {seed}..={}, {seconds} s per run:\n",
            seed + sets as u64 - 1
        );
        println!("{}", report::noise_table(&records, &bounds));
    }
    Ok(ok)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("fabench: refusing to measure a debug build; build with --release (benchmark/run.sh does)");
        return ExitCode::from(2);
    }
    if report::host_cores() < 2 {
        eprintln!(
            "fabench: HostTooSmall: {} core available, 2 needed (two serving workers plus a load generator); refusing to emit noise",
            report::host_cores()
        );
        return ExitCode::from(2);
    }
    let outcome = parse_args().and_then(|args| {
        let seed = args.seed.unwrap_or(DEFAULT_SEED);
        if args.check {
            return check_mode(seed);
        }
        let seconds = match args.seconds {
            Some(seconds) => seconds,
            None => declared()?.run_seconds,
        };
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err(format!("--seconds {seconds}: must be positive"));
        }
        match args.workload {
            Some(name) => {
                let workload = Workload::named(&name).ok_or_else(|| {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?;
                run_one(workload, seed, seconds, args.traced)
            }
            None => full_sets(seed, seconds, args.repeat.unwrap_or(1)),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("fabench: {message}");
            ExitCode::FAILURE
        }
    }
}
