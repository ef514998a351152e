//! What a run prints: the metric registry, the result line the
//! contract fixes, the run's provenance, and the noise-floor summary.

use std::fmt::Write as _;
use std::process::Command;

use serde::Value;

use crate::check::names_match;
use crate::stats;
use crate::sut;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees. Every workload emits every one.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("latency_p50_us", "us"),
    m("throughput_rps", "1/s"),
    m("peak_rss_mb", "MiB"),
];

/// One layer each, named `<crate>.<what>`. A workload reports 0 for a
/// layer it never enters.
pub const PER_LAYER: &[MetricDef] = &[
    m("net.wire_encode_request_us", "us"),
    m("net.wire_decode_request_us", "us"),
    m("net.wire_encode_response_us", "us"),
    m("net.wire_decode_response_us", "us"),
    m("net.request_frame_bytes", "count"),
    m("net.response_frame_bytes", "count"),
    m("net.socket_overhead_us", "us"),
    m("net.router_overhead_us", "us"),
    m("net.frame_errors", "count"),
    m("net.timeouts", "count"),
    m("net.connections_rejected", "count"),
    m("serve.submit_us", "us"),
    m("serve.engine_overhead_us", "us"),
    m("serve.mean_batch_size", "count"),
    m("serve.batch_fill_ratio", "ratio"),
    m("serve.batches_dispatched", "count"),
    m("serve.queue_rejected", "count"),
    m("serve.server_latency_p50_us", "us"),
    m("serve.hardened_served", "count"),
    m("serve.hardened_latency_p50_us", "us"),
    m("detect.score_image_us", "us"),
    m("detect.features_us", "us"),
    m("detect.forest_score_us", "us"),
    m("detect.fit_s", "s"),
    m("detect.flag_rate_clean", "ratio"),
    m("detect.flag_rate_adv", "ratio"),
    m("core.classify_us.b1", "us"),
    m("core.classify_batch_us_per_image.b16", "us"),
    m("core.stage_input_batch_us_per_image.tm2", "us"),
    m("core.stage_input_batch_us_per_image.tm3", "us"),
    m("core.fig7_s", "s"),
    m("core.fig9_s", "s"),
    m("filters.apply_us_per_image.lap32.b16", "us"),
    m("filters.apply_us_per_image.lap64.b1", "us"),
    m("filters.sweep_apply_us_per_image", "us"),
    m("filters.backward_us.lap32.b1", "us"),
    m("filters.backward_us.lar3.b1", "us"),
    m("filters.bytes_per_image", "count"),
    m("nn.forward_us.b1", "us"),
    m("nn.forward_us_per_image.b16", "us"),
    m("nn.forward_gflops.b16", "GFLOP/s"),
    m("nn.input_grad_us.b1", "us"),
    m("nn.input_grad_filtered_us.b1", "us"),
    m("nn.train_epoch_s", "s"),
    m("tensor.conv2d_us.stage1.b16", "us"),
    m("tensor.conv2d_us.stage2.b16", "us"),
    m("tensor.conv2d_us.stage3.b16", "us"),
    m("tensor.conv2d_us.stage4.b16", "us"),
    m("tensor.conv2d_us.stage5.b16", "us"),
    m("tensor.conv2d_backward_us.stage1.b1", "us"),
    m("tensor.conv2d_backward_us.stage2.b1", "us"),
    m("tensor.conv2d_backward_us.stage3.b1", "us"),
    m("tensor.conv2d_backward_us.stage4.b1", "us"),
    m("tensor.conv2d_backward_us.stage5.b1", "us"),
    m("tensor.matmul_us.head.b16", "us"),
    m("tensor.max_pool2d_us.stage1.b16", "us"),
    m("tensor.conv2d_gflops.stage3.b16", "GFLOP/s"),
    m("tensor.arena_grows_steady", "count"),
    m("tensor.arena_hit_ratio", "ratio"),
    m("attacks.fgsm_us", "us"),
    m("attacks.bim_us", "us"),
    m("attacks.lbfgs_us", "us"),
    m("attacks.fademl_bim_us", "us"),
    m("attacks.queries_per_example.fademl_bim", "count"),
    m("attacks.blind_success_rate", "ratio"),
    m("attacks.fademl_success_rate", "ratio"),
    m("data.generate_us_per_image", "us"),
    m("data.stream_frame_us", "us"),
    m("bench.latency_p99_us", "us"),
    m("bench.client_overhead_us", "us"),
    m("bench.trace_overhead_pct", "%"),
];

/// The values of one registry, in registry order.
pub struct Metrics {
    registry: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(registry: &'static [MetricDef]) -> Metrics {
        Metrics {
            registry,
            values: vec![None; registry.len()],
        }
    }

    /// Sets a registered metric; a name the registry lacks is a bug in
    /// the benchmark and fails the run.
    pub fn set(&mut self, name: &str, value: f64) -> Result<(), String> {
        let slot = self
            .registry
            .iter()
            .position(|def| def.name == name)
            .ok_or_else(|| format!("metric {name:?} is not in the registry"))?;
        if !value.is_finite() {
            return Err(format!("metric {name:?} is not a finite number: {value}"));
        }
        self.values[slot] = Some(value);
        Ok(())
    }

    /// Every registered metric with its value; one never set reads 0.
    pub fn entries(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.registry
            .iter()
            .zip(&self.values)
            .map(|(def, value)| (def, value.unwrap_or(0.0)))
    }

    /// Names never set, for the check that nothing is missing.
    pub fn unset(&self) -> Vec<&'static str> {
        self.registry
            .iter()
            .zip(&self.values)
            .filter(|(_, value)| value.is_none())
            .map(|(def, _)| def.name)
            .collect()
    }
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all the digits it was measured to.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, value)) in metrics.entries().enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            def.name,
            def.unit
        );
    }
    line.push_str("}}");
    line
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|text| !text.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where, from what and how the numbers were made, as a JSON object.
pub fn provenance(workload: &str, seed: u64, seconds: f64, traced: bool) -> String {
    let mut out = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"measured_seconds\": {seconds}, \"traced\": {traced}, \
         \"host_cores\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \
         \"compute_threads\": {}, \"generator_threads\": {}",
        json_string(workload),
        host_cores(),
        json_string(&cpu_model()),
        json_string(&command_line("rustc", &["-V"])),
        json_string(&command_line("git", &["rev-parse", "--short", "HEAD"])),
        sut::COMPUTE_THREADS,
        crate::workloads::generator_threads(),
    );
    for (key, value) in sut::describe_configs() {
        let _ = write!(out, ", \"{key}\": {}", json_string(&value));
    }
    out.push('}');
    out
}

/// Peak resident set of this process so far, from `VmHWM`.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

/// What `BENCHMARK.json` declares, as far as the benchmark checks it.
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<String>,
    pub per_layer: Vec<String>,
    /// (metric, bound) of the end-to-end metrics.
    pub bounds: Vec<(String, f64)>,
    pub run_seconds: f64,
}

pub fn read_declared(text: &str) -> Result<Declared, String> {
    let root = serde::json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        root.get(key)
            .and_then(Value::as_seq)
            .ok_or_else(|| format!("BENCHMARK.json has no list {key:?}"))?
            .iter()
            .map(|entry| {
                entry
                    .get("name")
                    .and_then(Value::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("an entry of {key:?} has no name"))
            })
            .collect()
    };
    let bounds = root
        .get("end_to_end")
        .and_then(Value::as_seq)
        .into_iter()
        .flatten()
        .filter_map(|entry| {
            Some((
                entry.get("name")?.as_str()?.to_owned(),
                entry.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    Ok(Declared {
        workloads: names("workloads")?,
        end_to_end: names("end_to_end")?,
        per_layer: names("per_layer")?,
        bounds,
        run_seconds: root
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    })
}

/// The registries and the workload table must be exactly what
/// `BENCHMARK.json` declares.
pub fn check_declared(declared: &Declared) -> Result<(), String> {
    let owned = |names: Vec<&str>| names.into_iter().map(str::to_owned).collect::<Vec<_>>();
    let workloads = owned(crate::workloads::WORKLOADS.iter().map(|w| w.name).collect());
    names_match("workload", &declared.workloads, &workloads, 8)?;
    let end_to_end = owned(END_TO_END.iter().map(|d| d.name).collect());
    names_match("end-to-end metric", &declared.end_to_end, &end_to_end, 16)?;
    let per_layer = owned(PER_LAYER.iter().map(|d| d.name).collect());
    names_match("per-layer metric", &declared.per_layer, &per_layer, 128)
}

/// One finished run, as the orchestrator read it back.
pub struct RunRecord {
    pub workload: String,
    pub metrics: Vec<(String, f64)>,
}

/// Reads a result line back.
pub fn parse_result(workload: &str, line: &str) -> Result<(bool, u64, RunRecord), String> {
    let root = serde::json::parse(line).map_err(|e| format!("result line: {e:?}"))?;
    let correct = matches!(root.get("correct"), Some(Value::Bool(true)));
    let failed = root
        .get("failed")
        .and_then(Value::as_u64)
        .ok_or("result line has no failed")?;
    let metrics = root
        .get("metrics")
        .and_then(Value::as_map)
        .ok_or("result line has no metrics")?
        .iter()
        .filter_map(|(name, entry)| Some((name.clone(), entry.get("value")?.as_f64()?)))
        .collect();
    Ok((
        correct,
        failed,
        RunRecord {
            workload: workload.to_owned(),
            metrics,
        },
    ))
}

/// Median, quartiles and relative spread of every end-to-end metric on
/// every workload over the sets run, as the Markdown table `NOISE.md`
/// holds. `bounds` adds each metric's bound for comparison.
pub fn noise_table(records: &[RunRecord], bounds: &[(String, f64)]) -> String {
    let mut out = String::from(
        "| workload | metric | runs | q1 | median | q3 | spread | bound |\n|---|---|---|---|---|---|---|---|\n",
    );
    for workload in crate::workloads::WORKLOADS {
        for def in END_TO_END {
            let values: Vec<f64> = records
                .iter()
                .filter(|r| r.workload == workload.name)
                .filter_map(|r| {
                    r.metrics
                        .iter()
                        .find(|(n, _)| n == def.name)
                        .map(|(_, v)| *v)
                })
                .collect();
            let Some([q1, q2, q3]) = stats::quartiles(&values) else {
                continue;
            };
            let spread = stats::relative_spread(&values).unwrap_or(0.0);
            let bound = bounds
                .iter()
                .find(|(n, _)| n == def.name)
                .map_or("-".to_owned(), |(_, b)| format!("{:.1} %", b * 100.0));
            let _ = writeln!(
                out,
                "| {} | {} ({}) | {} | {q1:.4} | {q2:.4} | {q3:.4} | {:.2} % | {bound} |",
                workload.name,
                def.name,
                def.unit,
                values.len(),
                spread * 100.0,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_what_the_benchmark_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let declared = read_declared(&std::fs::read_to_string(path).unwrap()).unwrap();
        check_declared(&declared).unwrap();
        assert!(declared.bounds.iter().any(|(name, _)| name == "setup_s"));
        assert!((1.0..=60.0).contains(&declared.run_seconds));
    }

    #[test]
    fn an_undeclared_or_missing_metric_fails_the_declaration_check() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let mut declared = read_declared(&std::fs::read_to_string(path).unwrap()).unwrap();
        declared.per_layer.retain(|name| name != "serve.submit_us");
        assert!(check_declared(&declared)
            .unwrap_err()
            .contains("serve.submit_us"));
        declared.per_layer.push("serve.submit_us".into());
        declared.end_to_end.push("fail_rate".into());
        assert!(check_declared(&declared).unwrap_err().contains("fail_rate"));
    }

    #[test]
    fn the_result_line_round_trips_with_every_digit() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("setup_s", 16.123456789).unwrap();
        metrics.set("latency_p50_us", 3971.25).unwrap();
        assert!(metrics.set("latency_p99_us", 1.0).is_err());
        assert!(metrics.set("setup_s", f64::NAN).is_err());
        assert_eq!(metrics.unset(), vec!["throughput_rps", "peak_rss_mb"]);
        let line = result_line(true, 1_000, 0, &metrics);
        let (correct, failed, record) = parse_result("net_closed", &line).unwrap();
        assert!(correct);
        assert_eq!(failed, 0);
        assert_eq!(record.metrics.len(), END_TO_END.len());
        assert_eq!(record.metrics[0], ("setup_s".to_owned(), 16.123456789));
        let keys: Vec<String> = serde::json::parse(&line)
            .unwrap()
            .as_map()
            .unwrap()
            .iter()
            .map(|(key, _)| key.clone())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn the_noise_table_reports_quartile_spread_per_metric_and_workload() {
        let records: Vec<RunRecord> = (1..=5)
            .map(|i| RunRecord {
                workload: "net_closed".into(),
                metrics: vec![("throughput_rps".into(), 100.0 + f64::from(i))],
            })
            .collect();
        let table = noise_table(&records, &[("throughput_rps".into(), 0.07)]);
        let row = table
            .lines()
            .find(|l| l.contains("throughput_rps"))
            .unwrap();
        assert!(
            row.contains("| 5 | 101.5000 | 103.0000 | 104.5000 | 2.91 % | 7.0 % |"),
            "{row}"
        );
        assert_eq!(table.lines().count(), 3);
    }
}
