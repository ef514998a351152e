//! The four workloads and the load generators that drive them.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::check::{judge, Tally};
use crate::sut::{
    self, Engine, EngineReport, NetCounters, NetFront, SutResult, Tm, Variant, World, EVAL_N,
    POOL_FRAMES,
};
use crate::trace::Trace;

/// How a workload loads the system.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Closed-loop `NetClient` connections over loopback TCP.
    NetClosed,
    /// One generator thread keeping `outstanding` requests in flight on
    /// an in-process engine.
    Window { outstanding: usize, triage: bool },
    /// `fig7::run` then `fig9::run`, pass after pass.
    Repro,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Tenths of the requests that carry blind FGSM noise.
    pub adversarial_tenths: usize,
    /// Rotate the threat model I/II/III per request, or send TM-III only.
    pub rotate_tm: bool,
}

/// In the order a full set runs them. The reasons live in
/// `BENCHMARK.json` and `README.md`.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "net_closed",
        kind: Kind::NetClosed,
        adversarial_tenths: 1,
        rotate_tm: true,
    },
    Workload {
        name: "serve_saturate",
        kind: Kind::Window {
            outstanding: 64,
            triage: false,
        },
        adversarial_tenths: 0,
        rotate_tm: false,
    },
    Workload {
        name: "serve_mixed",
        kind: Kind::Window {
            outstanding: 16,
            triage: true,
        },
        adversarial_tenths: 3,
        rotate_tm: true,
    },
    Workload {
        name: "repro_figs",
        kind: Kind::Repro,
        adversarial_tenths: 0,
        rotate_tm: false,
    },
];

impl Workload {
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The `k`-th request of the run: a pure function of `k`, so that
    /// every run of a seed sends the same sequence.
    pub fn request(&self, k: u64) -> (Variant, Tm) {
        let frame = (k % POOL_FRAMES as u64) as usize;
        let variant = Variant {
            frame,
            adversarial: frame % 10 < self.adversarial_tenths,
        };
        let tm = if self.rotate_tm {
            Tm::ALL[(k % 3) as usize]
        } else {
            Tm::Three
        };
        (variant, tm)
    }

    pub fn uses_triage(&self) -> bool {
        matches!(
            self.kind,
            Kind::NetClosed | Kind::Window { triage: true, .. }
        )
    }
}

/// The load generator never uses more threads than this.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

#[derive(Clone, Copy, Debug)]
pub struct Phases {
    pub warmup: Duration,
    pub measure: Duration,
    /// Evaluation images per accuracy cell on `repro_figs`.
    pub eval_n: usize,
    /// `repro_figs` measures at least this many passes. Two let the
    /// run check that the figures repeat bit for bit.
    pub min_passes: usize,
}

impl Phases {
    pub fn for_seconds(seconds: f64) -> Phases {
        Phases {
            warmup: Duration::from_secs_f64((seconds / 8.0).clamp(0.25, 3.0)),
            measure: Duration::from_secs_f64(seconds),
            eval_n: EVAL_N,
            min_passes: 2,
        }
    }
}

/// What the figure drivers produced over the measured passes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FigStats {
    pub fig7_s: f64,
    pub fig9_s: f64,
    pub blind_success_rate: f64,
    pub fademl_success_rate: f64,
    pub clean_top5: f64,
}

/// One measured phase of one workload.
#[derive(Debug, Default)]
pub struct Measured {
    pub tally: Tally,
    /// From the first measured request to the last completion.
    pub window_s: f64,
    /// Generator time per request outside the timed calls.
    pub client_overhead_us: f64,
    /// The serving engine's own account of the measured phase.
    pub engine: EngineReport,
    pub net: NetCounters,
    pub fig: FigStats,
    /// Scratch-arena growth and hit ratio over the measured phase.
    pub arena_grows: u64,
    pub arena_hit_ratio: f64,
}

/// Client-side spans go here when the pass is traced.
pub struct ClientTrace<'a> {
    pub trace: &'a mut Trace,
    /// Zero of the span clock.
    pub epoch: Instant,
}

impl ClientTrace<'_> {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Batches of the measured phase only: the engine's counters are
/// cumulative, so the warm-up's share is subtracted.
fn since(before: &EngineReport, after: EngineReport) -> EngineReport {
    let batch_size_counts: Vec<u64> = after
        .batch_size_counts
        .iter()
        .enumerate()
        .map(|(i, n)| n - before.batch_size_counts.get(i).copied().unwrap_or(0))
        .collect();
    let batches: u64 = batch_size_counts.iter().sum();
    let images: u64 = batch_size_counts
        .iter()
        .zip(1u64..)
        .map(|(n, size)| n * size)
        .sum();
    EngineReport {
        completed: after.completed - before.completed,
        failed: after.failed - before.failed,
        queue_rejected: after.queue_rejected - before.queue_rejected,
        batches_dispatched: after.batches_dispatched - before.batches_dispatched,
        mean_batch_size: if batches == 0 {
            0.0
        } else {
            images as f64 / batches as f64
        },
        batch_size_counts,
        hardened_served: after.hardened_served - before.hardened_served,
        // Latency reservoirs cannot be subtracted; these cover warm-up too.
        latency_p50_us: after.latency_p50_us,
        hardened_latency_p50_us: after.hardened_latency_p50_us,
    }
}

fn arena_delta(before: (u64, u64, u64), measured: &mut Measured) {
    let (acquires, hits, grows) = sut::arena_counters();
    measured.arena_grows = grows - before.2;
    let leased = acquires - before.0;
    measured.arena_hit_ratio = if leased == 0 {
        0.0
    } else {
        (hits - before.1) as f64 / leased as f64
    };
}

/// A reply judged against its reference: `Ok(flagged)` or what failed.
fn judged(
    world: &World,
    variant: Variant,
    tm: Tm,
    reply: SutResult<crate::check::Answer>,
) -> Result<bool, String> {
    let answer = reply?;
    judge(world.reference(variant, tm)?, &answer).map_err(String::from)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// What one generator thread brings back.
#[derive(Default)]
struct Generated {
    tally: Tally,
    /// Time inside the timed calls, and first start / last completion of
    /// the measured requests.
    busy: Duration,
    span: Option<(Instant, Instant)>,
}

impl Generated {
    fn cover(&mut self, start: Instant, end: Instant) {
        self.span = Some(match self.span {
            Some((first, last)) => (first.min(start), last.max(end)),
            None => (start, end),
        });
    }

    fn finish(parts: Vec<Generated>, measured: &mut Measured) {
        let mut busy = Duration::ZERO;
        let mut wall = Duration::ZERO;
        let mut span: Option<(Instant, Instant)> = None;
        for part in parts {
            busy += part.busy;
            if let Some((first, last)) = part.span {
                wall += last - first;
                span = Some(span.map_or((first, last), |(f, l)| (f.min(first), l.max(last))));
            }
            measured.tally.merge(part.tally);
        }
        measured.window_s = span.map_or(0.0, |(first, last)| (last - first).as_secs_f64());
        measured.client_overhead_us =
            micros(wall.saturating_sub(busy)) / measured.tally.attempted.max(1) as f64;
    }
}

/// Runs one workload once: warm-up, then the measured phase.
pub fn run(
    world: &World,
    workload: &Workload,
    phases: Phases,
    trace: Option<ClientTrace<'_>>,
) -> SutResult<Measured> {
    match workload.kind {
        Kind::NetClosed => net_closed(world, workload, phases, trace),
        Kind::Window {
            outstanding,
            triage,
        } => window(world, workload, outstanding, triage, phases, trace),
        Kind::Repro => repro(world, phases, trace),
    }
}

fn net_closed(
    world: &World,
    workload: &Workload,
    phases: Phases,
    trace: Option<ClientTrace<'_>>,
) -> SutResult<Measured> {
    let front = NetFront::start(world)?;
    let clients = generator_threads() as u64;
    let begun = Instant::now();
    let measure_from = begun + phases.warmup;
    let until = measure_from + phases.measure;
    let epoch = trace.as_ref().map(|t| t.epoch);

    let mut measured = Measured::default();
    let (parts, snapshot) = std::thread::scope(|scope| -> SutResult<_> {
        let mut handles = Vec::new();
        for client in 0..clients {
            let mut connection = front.connect()?;
            handles.push(scope.spawn(move || {
                let mut out = Generated::default();
                let mut spans = Vec::new();
                let mut k = client;
                loop {
                    let sent = Instant::now();
                    if sent >= until {
                        break;
                    }
                    let (variant, tm) = workload.request(k);
                    let reply = connection.classify(world, variant, tm);
                    let done = Instant::now();
                    if sent >= measure_from {
                        out.busy += done - sent;
                        out.cover(sent, done);
                        let outcome = judged(world, variant, tm, reply);
                        if epoch.is_some() {
                            spans.push((k, sent, done));
                        }
                        out.tally
                            .record(micros(done - sent), variant.adversarial, outcome);
                    }
                    k += clients;
                }
                connection.close();
                (out, spans)
            }));
        }
        // The engine's and the arena's counters at the start of the
        // measured phase, read while the clients keep sending.
        std::thread::sleep(measure_from.saturating_duration_since(Instant::now()));
        let snapshot = (front.report(), sut::arena_counters());
        let mut parts = Vec::new();
        for handle in handles {
            parts.push(
                handle
                    .join()
                    .map_err(|_| "a client thread panicked".to_owned())?,
            );
        }
        Ok((parts, snapshot))
    })?;
    arena_delta(snapshot.1, &mut measured);
    measured.net = front.counters();
    measured.engine = since(&snapshot.0, front.stop());

    let mut generated = Vec::new();
    let mut all_spans = Vec::new();
    for (part, spans) in parts {
        generated.push(part);
        all_spans.extend(spans);
    }
    if let Some(client_trace) = trace {
        for (k, sent, done) in all_spans {
            let (start, end) = (client_trace.ns(sent), client_trace.ns(done));
            client_trace
                .trace
                .push("client.request", start, end, None, k);
        }
    }
    Generated::finish(generated, &mut measured);
    Ok(measured)
}

fn window(
    world: &World,
    workload: &Workload,
    outstanding: usize,
    triage: bool,
    phases: Phases,
    mut trace: Option<ClientTrace<'_>>,
) -> SutResult<Measured> {
    struct InFlight {
        ticket: sut::Ticket,
        k: u64,
        sent: Instant,
        submitted: Instant,
    }

    let engine = Engine::start(world, triage)?;
    let begun = Instant::now();
    let measure_from = begun + phases.warmup;
    let until = measure_from + phases.measure;

    let mut measured = Measured::default();
    let mut out = Generated::default();
    let mut in_flight: VecDeque<InFlight> = VecDeque::with_capacity(outstanding);
    let mut snapshot = None;
    let mut k = 0u64;
    loop {
        let now = Instant::now();
        if snapshot.is_none() && now >= measure_from {
            snapshot = Some((engine.report(), sut::arena_counters()));
        }
        let open = now < until;
        while open && in_flight.len() < outstanding {
            let (variant, tm) = workload.request(k);
            let sent = Instant::now();
            let ticket = engine.submit(world, variant, tm);
            let submitted = Instant::now();
            let counts = sent >= measure_from;
            if counts {
                out.busy += submitted - sent;
            }
            k += 1;
            match ticket {
                Ok(ticket) => in_flight.push_back(InFlight {
                    ticket,
                    k: k - 1,
                    sent,
                    submitted,
                }),
                Err(refusal) => {
                    if counts {
                        out.cover(sent, submitted);
                        out.tally.record(0.0, variant.adversarial, Err(refusal));
                    }
                    // A refusing engine must not spin the generator.
                    break;
                }
            }
        }
        let Some(InFlight {
            ticket,
            k: id,
            sent,
            submitted,
        }) = in_flight.pop_front()
        else {
            if open {
                continue;
            }
            break;
        };
        let (variant, tm) = workload.request(id);
        let waiting = Instant::now();
        let reply = ticket.wait();
        let done = Instant::now();
        if sent >= measure_from {
            out.busy += done - waiting;
            out.cover(sent, done);
            let outcome = judged(world, variant, tm, reply);
            if let Some(client_trace) = trace.as_mut() {
                let (start, end) = (client_trace.ns(sent), client_trace.ns(done));
                let submit_end = client_trace.ns(submitted);
                let root = client_trace
                    .trace
                    .push("client.request", start, end, None, id);
                client_trace
                    .trace
                    .push("serve.submit", start, submit_end, Some(root), id);
            }
            out.tally
                .record(micros(done - sent), variant.adversarial, outcome);
        }
    }
    let (engine_before, arena_before) =
        snapshot.ok_or("the measured phase never started: warm-up outlasted the run")?;
    arena_delta(arena_before, &mut measured);
    measured.engine = since(&engine_before, engine.stop());
    Generated::finish(vec![out], &mut measured);
    Ok(measured)
}

/// Paper shape a pass must reproduce: the filter-aware attack survives
/// the filters, and survives them far more often than the blind one.
const MIN_FADEML_SUCCESS: f32 = 0.70;
const MIN_FADEML_LEAD: f32 = 0.30;

fn repro(world: &World, phases: Phases, mut trace: Option<ClientTrace<'_>>) -> SutResult<Measured> {
    let pass = |eval_n: usize| -> SutResult<(sut::FigRun, sut::FigRun)> {
        Ok((world.fig7(eval_n)?, world.fig9(eval_n)?))
    };
    // No warm-up pass: every driver call spawns fresh scenario threads
    // with cold scratch arenas, so there is no steady state to warm into
    // and a first pass measures like a later one.
    let arena_before = sut::arena_counters();
    let begun = Instant::now();
    let mut measured = Measured::default();
    let mut passes: Vec<(sut::FigRun, sut::FigRun)> = Vec::new();
    while passes.len() < phases.min_passes || begun.elapsed() < phases.measure {
        let sent = Instant::now();
        let (blind, aware) = pass(phases.eval_n)?;
        if let Some(client_trace) = trace.as_mut() {
            let (start, end) = (client_trace.ns(sent), client_trace.ns(Instant::now()));
            let split = start + (blind.seconds * 1e9) as u64;
            let id = passes.len() as u64;
            let root = client_trace
                .trace
                .push("client.request", start, end, None, id);
            client_trace
                .trace
                .push("core.fig7", start, split, Some(root), id);
            client_trace
                .trace
                .push("core.fig9", split, end, Some(root), id);
        }
        let outcome = if aware.filtered_success_rate < MIN_FADEML_SUCCESS {
            Err(format!(
                "FAdeML survives only {} of filtered cells",
                aware.filtered_success_rate
            ))
        } else if aware.filtered_success_rate - blind.filtered_success_rate < MIN_FADEML_LEAD {
            Err(format!(
                "FAdeML ({}) does not lead the blind attacks ({}) by {MIN_FADEML_LEAD}",
                aware.filtered_success_rate, blind.filtered_success_rate
            ))
        } else if passes.first().is_some_and(|(b, a)| {
            (
                b.filtered_success_rate,
                b.clean_top5,
                a.filtered_success_rate,
                a.clean_top5,
            ) != (
                blind.filtered_success_rate,
                blind.clean_top5,
                aware.filtered_success_rate,
                aware.clean_top5,
            )
        }) {
            Err("two passes of one seed disagree on the figures".to_owned())
        } else {
            Ok(false)
        };
        measured
            .tally
            .record((blind.seconds + aware.seconds) * 1e6, false, outcome);
        passes.push((blind, aware));
    }
    measured.window_s = begun.elapsed().as_secs_f64();
    arena_delta(arena_before, &mut measured);
    let n = passes.len() as f64;
    let busy: f64 = passes.iter().map(|(b, a)| b.seconds + a.seconds).sum();
    measured.client_overhead_us = (measured.window_s - busy).max(0.0) * 1e6 / n;
    let (blind, aware) = passes[0];
    measured.fig = FigStats {
        fig7_s: crate::stats::median(&passes.iter().map(|(b, _)| b.seconds).collect::<Vec<_>>()),
        fig9_s: crate::stats::median(&passes.iter().map(|(_, a)| a.seconds).collect::<Vec<_>>()),
        blind_success_rate: f64::from(blind.filtered_success_rate),
        fademl_success_rate: f64::from(aware.filtered_success_rate),
        clean_top5: f64::from(blind.clean_top5),
    };
    Ok(measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_request_sequence_is_a_pure_function_of_k() {
        let mixed = Workload::named("serve_mixed").unwrap();
        let first: Vec<_> = (0..2_000).map(|k| mixed.request(k)).collect();
        let again: Vec<_> = (0..2_000).map(|k| mixed.request(k)).collect();
        assert_eq!(first, again);
        let adversarial = first.iter().filter(|(v, _)| v.adversarial).count();
        assert!(
            (550..=650).contains(&adversarial),
            "{adversarial} of 2000 adversarial"
        );
        assert!(first.iter().all(|(v, _)| v.frame < POOL_FRAMES));
        for tm in Tm::ALL {
            assert!(first.iter().any(|(v, t)| *t == tm && v.adversarial));
        }
        let saturate = Workload::named("serve_saturate").unwrap();
        assert!((0..2_000).all(|k| saturate.request(k)
            == (
                Variant {
                    frame: (k % 512) as usize,
                    adversarial: false
                },
                Tm::Three
            )));
        assert!(Workload::named("open_loop").is_none());
    }

    #[test]
    fn warm_up_counters_are_subtracted_from_the_engine_report() {
        let before = EngineReport {
            completed: 10,
            batches_dispatched: 4,
            batch_size_counts: vec![2, 0, 0, 2],
            ..EngineReport::default()
        };
        let after = EngineReport {
            completed: 110,
            batches_dispatched: 14,
            batch_size_counts: vec![2, 0, 0, 12],
            latency_p50_us: 900,
            ..EngineReport::default()
        };
        let delta = since(&before, after);
        assert_eq!((delta.completed, delta.batches_dispatched), (100, 10));
        assert_eq!(delta.batch_size_counts, vec![0, 0, 0, 10]);
        assert_eq!(delta.mean_batch_size, 4.0);
        assert_eq!(delta.latency_p50_us, 900);
    }
}
