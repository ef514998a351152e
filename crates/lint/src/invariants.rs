//! Pass — project invariants clippy cannot express.
//!
//! 1. `batcher-wall-clock` — the dynamic batcher is a *pure* state
//!    machine driven by an injected `now`; reading `Instant::now()` /
//!    `SystemTime` inside it would make the coalescing policy
//!    untestable and racy.
//! 2. `nan-ordering` — metrics percentile code must not use NaN-unsafe
//!    float comparisons (`partial_cmp`, `sort_by` on floats); latencies
//!    are integer microseconds, and any float keys must use `total_cmp`.
//! 3. `dead-variant` — every public error variant of the serving crate
//!    is constructed somewhere in non-test code; an unconstructible
//!    variant is dead API surface that callers still have to match on.
//! 4. `raw-thread-spawn` — compute parallelism goes through the
//!    persistent worker pool in `fademl_tensor::par` (one pool, caller
//!    participates, bit-exact partitioning); serving owns its worker
//!    lifecycle in `fademl-serve`, and the network front owns its
//!    accept/handler threads in `fademl-net`. Ad-hoc
//!    `std::thread::spawn` / `thread::Builder` anywhere else creates
//!    unpooled threads with no panic isolation and per-call spawn cost
//!    on the hot path.
//! 5. `raw-socket` — all TCP construction (`TcpListener::bind`,
//!    `TcpStream::connect`) lives in `fademl-net`, behind the framed
//!    wire protocol with its length caps and CRC checks. A socket
//!    opened anywhere else bypasses admission control, quotas and the
//!    typed error mapping, and widens the attack surface.
//!
//! The std-lock mandate and the in-place-overwrite ban are clippy's
//! `disallowed_types` / `disallowed_methods` (`clippy.toml`).

use crate::report::Finding;
use crate::source::SourceFile;

const SERVE_PREFIX: &str = "crates/serve/src/";
const BATCHER: &str = "crates/serve/src/batcher.rs";
const METRICS: &str = "crates/serve/src/metrics.rs";
const ERRORS: &str = "crates/serve/src/error.rs";
const THREAD_POOL_IMPL: &str = "crates/tensor/src/par.rs";
const NET_PREFIX: &str = "crates/net/src/";

/// Runs every invariant lint.
pub fn check(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    batcher_wall_clock(files, &mut findings);
    nan_ordering(files, &mut findings);
    dead_variants(files, &mut findings);
    raw_thread_spawn(files, &mut findings);
    raw_socket(files, &mut findings);
    findings
}

fn batcher_wall_clock(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files.iter().filter(|f| f.path == BATCHER) {
        for (line_no, line) in file.code_lines() {
            for what in ["Instant::now", "SystemTime"] {
                if line.code.contains(what) {
                    out.push(Finding::new(
                        "batcher-wall-clock",
                        &file.path,
                        line_no,
                        format!(
                            "`{what}` inside the batcher state machine — time must be \
                             injected through `now` parameters to keep coalescing pure \
                             and deterministic"
                        ),
                        &line.raw,
                    ));
                }
            }
        }
    }
}

fn nan_ordering(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files.iter().filter(|f| f.path == METRICS) {
        for (line_no, line) in file.code_lines() {
            for what in [".partial_cmp(", ".sort_by("] {
                if line.code.contains(what) {
                    out.push(Finding::new(
                        "nan-ordering",
                        &file.path,
                        line_no,
                        format!(
                            "`{}` in metrics percentile code — NaN-unsafe ordering can \
                             panic or mis-sort; keep latencies as integer µs or use \
                             `total_cmp`/`sort_unstable`",
                            what.trim_matches(|c| c == '.' || c == '(')
                        ),
                        &line.raw,
                    ));
                }
            }
        }
    }
}

/// A declared `pub enum` variant in the serve error module.
#[derive(Debug)]
struct Variant {
    enum_name: String,
    name: String,
    line: usize,
}

fn dead_variants(files: &[SourceFile], out: &mut Vec<Finding>) {
    let Some(error_file) = files.iter().find(|f| f.path == ERRORS) else {
        return;
    };
    let variants = parse_variants(error_file);
    for v in variants {
        let needle = format!("{}::{}", v.enum_name, v.name);
        let constructed = files
            .iter()
            .filter(|f| f.path.starts_with(SERVE_PREFIX) && f.path != ERRORS)
            .any(|f| {
                f.code_lines()
                    .any(|(_, line)| is_construction(&line.code, &needle))
            });
        if !constructed {
            out.push(Finding::new(
                "dead-variant",
                ERRORS,
                v.line,
                format!(
                    "`{}::{}` is never constructed in non-test serving code — dead error \
                     surface callers still must match on; construct it or remove it",
                    v.enum_name, v.name
                ),
                "",
            ));
        }
    }
}

fn raw_thread_spawn(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files.iter().filter(|f| {
        f.path != THREAD_POOL_IMPL
            && !f.path.starts_with(SERVE_PREFIX)
            && !f.path.starts_with(NET_PREFIX)
    }) {
        for (line_no, line) in file.code_lines() {
            for what in ["thread::spawn(", "thread::Builder"] {
                if line.code.contains(what) {
                    out.push(Finding::new(
                        "raw-thread-spawn",
                        &file.path,
                        line_no,
                        format!(
                            "`{}` outside `fademl_tensor::par`, `fademl-serve` and \
                             `fademl-net` — compute parallelism must go through the \
                             persistent pool (`par::parallel_rows`): ad-hoc threads skip \
                             panic isolation and pay spawn cost on every call",
                            what.trim_end_matches('(')
                        ),
                        &line.raw,
                    ));
                }
            }
        }
    }
}

fn raw_socket(files: &[SourceFile], out: &mut Vec<Finding>) {
    for file in files.iter().filter(|f| !f.path.starts_with(NET_PREFIX)) {
        for (line_no, line) in file.code_lines() {
            for what in ["TcpListener::bind(", "TcpStream::connect("] {
                if line.code.contains(what) {
                    out.push(Finding::new(
                        "raw-socket",
                        &file.path,
                        line_no,
                        format!(
                            "`{}` outside `fademl-net` — TCP endpoints must go through the \
                             framed wire protocol (length caps, CRC, typed errors, \
                             admission control); a raw socket bypasses all of it",
                            what.trim_end_matches('(')
                        ),
                        &line.raw,
                    ));
                }
            }
        }
    }
}

/// `Enum::Variant` occurrences that look like construction rather than
/// pattern-matching: lines with `=>` (match arms), `..` (rest
/// patterns), `matches!` or `if/while let` destructuring don't count.
fn is_construction(code: &str, needle: &str) -> bool {
    if !code.contains(needle) {
        return false;
    }
    // A construction site must not also be a pattern position.
    let boundary_ok = {
        let idx = code.find(needle).unwrap_or(0);
        let after = code[idx + needle.len()..].chars().next();
        !matches!(after, Some(c) if c.is_ascii_alphanumeric() || c == '_')
    };
    boundary_ok
        && !code.contains("=>")
        && !code.contains("matches!")
        && !code.contains("..")
        && !code.contains("if let ")
        && !code.contains("while let ")
}

/// Extracts `pub enum` variants (lines at enum depth + 1 starting with
/// an uppercase identifier) from the error module.
fn parse_variants(file: &SourceFile) -> Vec<Variant> {
    let mut out = Vec::new();
    let mut depth: usize = 0;
    // (enum name, depth of its body)
    let mut current: Option<(String, usize)> = None;
    for (line_no, line) in file.code_lines() {
        let code = line.code.as_str();
        let trimmed = code.trim_start();
        if let Some(rest) = trimmed.strip_prefix("pub enum ") {
            let name: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                current = Some((name, depth + 1));
            }
        }
        if let Some((enum_name, body_depth)) = &current {
            // A variant starts a line at exactly the enum-body depth;
            // struct-variant fields sit one level deeper and closing
            // braces don't begin with an identifier.
            if depth == *body_depth {
                let name: String = trimmed
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    out.push(Variant {
                        enum_name: enum_name.clone(),
                        name,
                        line: line_no,
                    });
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    if let Some((_, body_depth)) = &current {
                        if depth == *body_depth {
                            current = None;
                        }
                    }
                    depth = depth.saturating_sub(1);
                }
                _ => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn rules(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn wall_clock_in_batcher_is_flagged_but_tests_are_exempt() {
        let f = SourceFile::from_source(
            "crates/serve/src/batcher.rs",
            "fn tick(&mut self) {\n    let now = Instant::now();\n}\n#[cfg(test)]\nmod tests {\n    fn t() { let now = Instant::now(); }\n}\n",
        );
        let found = check(&[f]);
        assert_eq!(rules(&found), vec!["batcher-wall-clock"]);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn partial_cmp_in_metrics_is_flagged() {
        let f = SourceFile::from_source(
            "crates/serve/src/metrics.rs",
            "fn p(mut v: Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
        );
        let found = check(&[f]);
        let mut got = rules(&found);
        got.sort_unstable();
        assert_eq!(got, vec!["nan-ordering", "nan-ordering"]);
    }

    #[test]
    fn dead_variant_is_flagged_and_constructed_one_is_not() {
        let errors = SourceFile::from_source(
            "crates/serve/src/error.rs",
            "pub enum ServeError {\n    Used {\n        capacity: usize,\n    },\n    NeverMade,\n}\n",
        );
        let user = SourceFile::from_source(
            "crates/serve/src/queue.rs",
            "fn f() -> ServeError {\n    ServeError::Used { capacity: 1 }\n}\nfn g(e: &ServeError) -> bool {\n    matches!(e, ServeError::NeverMade)\n}\n",
        );
        let found = check(&[errors, user]);
        assert_eq!(rules(&found), vec!["dead-variant"]);
        assert!(found[0].message.contains("NeverMade"));
        assert_eq!(found[0].line, 5);
    }

    #[test]
    fn raw_spawn_outside_pool_and_serve_is_flagged() {
        let rogue = SourceFile::from_source(
            "crates/nn/src/trainer.rs",
            "fn f() {\n    let h = std::thread::spawn(move || work());\n}\n",
        );
        let found = check(&[rogue]);
        assert_eq!(rules(&found), vec!["raw-thread-spawn"]);
        assert_eq!(found[0].line, 2);
        let builder = SourceFile::from_source(
            "crates/core/src/setup.rs",
            "fn f() {\n    let b = thread::Builder::new().name(\"x\".into());\n}\n",
        );
        assert_eq!(rules(&check(&[builder])), vec!["raw-thread-spawn"]);
    }

    #[test]
    fn pool_impl_serve_and_test_code_are_exempt_from_spawn_rule() {
        let pool = SourceFile::from_source(
            "crates/tensor/src/par.rs",
            "fn grow() {\n    thread::Builder::new().spawn(worker_loop);\n}\n",
        );
        assert!(check(&[pool]).is_empty());
        let serve = SourceFile::from_source(
            "crates/serve/src/server.rs",
            "fn launch() {\n    let h = std::thread::spawn(move || run());\n}\n",
        );
        assert!(check(&[serve]).is_empty());
        let test_only = SourceFile::from_source(
            "crates/nn/src/model.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n",
        );
        assert!(check(&[test_only]).is_empty());
    }

    #[test]
    fn net_crate_is_exempt_from_spawn_rule() {
        let net = SourceFile::from_source(
            "crates/net/src/server.rs",
            "fn accept() {\n    let h = std::thread::Builder::new().spawn(run)?;\n}\n",
        );
        assert!(check(&[net]).is_empty());
    }

    #[test]
    fn raw_socket_outside_net_is_flagged() {
        let listener = SourceFile::from_source(
            "crates/serve/src/server.rs",
            "fn f() {\n    let l = TcpListener::bind(\"0.0.0.0:80\")?;\n}\n",
        );
        let found = check(&[listener]);
        assert_eq!(rules(&found), vec!["raw-socket"]);
        assert_eq!(found[0].line, 2);
        let dialer = SourceFile::from_source(
            "crates/core/src/setup.rs",
            "fn f() {\n    let s = std::net::TcpStream::connect(addr)?;\n}\n",
        );
        assert_eq!(rules(&check(&[dialer])), vec!["raw-socket"]);
    }

    #[test]
    fn net_crate_and_test_code_are_exempt_from_socket_rule() {
        let net = SourceFile::from_source(
            "crates/net/src/server.rs",
            "fn f() {\n    let l = TcpListener::bind(&addr)?;\n    let s = TcpStream::connect(addr)?;\n}\n",
        );
        assert!(check(&[net]).is_empty());
        let test_only = SourceFile::from_source(
            "crates/serve/src/server.rs",
            "#[cfg(test)]\nmod tests {\n    fn t() { let s = TcpStream::connect(a).unwrap(); }\n}\n",
        );
        assert!(check(&[test_only]).is_empty());
    }

    #[test]
    fn match_arms_do_not_count_as_construction() {
        let errors = SourceFile::from_source(
            "crates/serve/src/error.rs",
            "pub enum DeadlineStage {\n    Queue,\n}\n",
        );
        let user = SourceFile::from_source(
            "crates/serve/src/metrics.rs",
            "fn f(s: DeadlineStage) {\n    match s {\n        DeadlineStage::Queue => {}\n    }\n}\n",
        );
        let found = check(&[errors, user]);
        assert_eq!(rules(&found), vec!["dead-variant"]);
    }
}
