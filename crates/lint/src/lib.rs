//! fademl-lint — purpose-built workspace static analysis.
//!
//! Two layers. The **shared IR** ([`ir`]) parses every file once into
//! a delimiter-balanced token tree and a lightweight function-body AST
//! (fn items, blocks, statements, call sites, `let` bindings); the
//! **workspace call graph** ([`callgraph`]) resolves call sites by name
//! across all crates, with a strict policy for precision-sensitive
//! passes and a permissive one for reachability.
//!
//! Six passes run on top, each checking what rustc and clippy cannot
//! see (the panic surface, `unsafe` hygiene, std locks and in-place file
//! writes are compiler lints; DESIGN.md §11):
//!
//! 1. [`locks`] — inter-procedural lock-order analysis of the
//!    detector, serving engine and network front: acquisition-order
//!    cycles (potential deadlocks) and double-acquisitions.
//! 2. [`invariants`] — project invariants clippy cannot express (pure
//!    batcher, NaN-safe metrics, dead error variants, raw
//!    sockets/threads).
//! 3. [`hot_alloc`] — allocations in compute code reachable from the
//!    serve worker loop (ratcheted scratch-arena debt, DESIGN.md §18).
//! 4. [`lock_io`] — lock guards held across blocking I/O in serve/net.
//! 5. [`swallowed`] — silently discarded `Result`s.
//! 6. [`wire_cap`] — wire-decoded lengths must be cap-checked before
//!    they reach an allocation in the framed codecs.
//!
//! All findings flow through the [`baseline`] ratchet (`lint.allow`)
//! and are rendered by [`report`] as both a human summary and the
//! deterministic `results/lint.json`; each finding carries a stable
//! fingerprint that survives line-number drift.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod callgraph;
pub mod guards;
pub mod hot_alloc;
pub mod invariants;
pub mod ir;
pub mod lock_io;
pub mod locks;
pub mod report;
pub mod source;
pub mod swallowed;
pub mod wire_cap;

use std::io;
use std::path::Path;
use std::time::Instant;

use baseline::Baseline;
use callgraph::{CallGraph, Policy};
use report::{Finding, LintReport};
use source::SourceFile;

/// Wall-clock and volume accounting for one pass (`results/lint_stats.txt`).
#[derive(Debug, Clone)]
pub struct PassStat {
    /// Pass name as shown in the stats file.
    pub name: &'static str,
    /// Wall-clock microseconds spent in the pass.
    pub micros: u128,
    /// Findings the pass produced (pre-baseline).
    pub findings: usize,
}

/// Runs every pass over the workspace at `root` and applies the given
/// baseline.
///
/// # Errors
///
/// Propagates file-system errors from the workspace walk.
pub fn run(root: &Path, baseline: &Baseline) -> io::Result<LintReport> {
    let files = source::load_workspace(root)?;
    Ok(baseline.apply(collect_findings(&files), files.len()))
}

/// Raw findings from all passes (before the baseline ratchet).
pub fn collect_findings(files: &[SourceFile]) -> Vec<Finding> {
    collect_findings_with_stats(files).0
}

/// Raw findings plus per-pass timing/volume stats. The IR and the
/// permissive whole-workspace call graph are built once and shared;
/// their construction time is reported as pseudo-passes.
pub fn collect_findings_with_stats(files: &[SourceFile]) -> (Vec<Finding>, Vec<PassStat>) {
    let mut stats = Vec::new();
    let mut findings = Vec::new();

    let t = Instant::now();
    let ir = ir::Ir::parse(files);
    stats.push(PassStat {
        name: "ir-parse",
        micros: t.elapsed().as_micros(),
        findings: 0,
    });

    let t = Instant::now();
    let graph = CallGraph::build(&ir, files, &[], Policy::Permissive);
    stats.push(PassStat {
        name: "call-graph",
        micros: t.elapsed().as_micros(),
        findings: 0,
    });

    let pass = |name: &'static str,
                out: Vec<Finding>,
                started: Instant,
                findings: &mut Vec<Finding>,
                stats: &mut Vec<PassStat>| {
        stats.push(PassStat {
            name,
            micros: started.elapsed().as_micros(),
            findings: out.len(),
        });
        findings.extend(out);
    };

    let t = Instant::now();
    let out = locks::analyze(&ir, files, locks::LOCK_SCOPE);
    pass("locks", out, t, &mut findings, &mut stats);

    let t = Instant::now();
    let out = invariants::check(files);
    pass("invariants", out, t, &mut findings, &mut stats);

    let t = Instant::now();
    let out = hot_alloc::audit(&ir, files, &graph);
    pass("hot-path-alloc", out, t, &mut findings, &mut stats);

    let t = Instant::now();
    let out = lock_io::check(&ir, files);
    pass("lock-across-io", out, t, &mut findings, &mut stats);

    let t = Instant::now();
    let out = swallowed::check(&ir, files);
    pass("swallowed-error", out, t, &mut findings, &mut stats);

    let t = Instant::now();
    let out = wire_cap::check(&ir, files);
    pass("wire-cap-check", out, t, &mut findings, &mut stats);

    (findings, stats)
}

/// Renders the per-pass stats table written to `results/lint_stats.txt`.
pub fn render_stats(stats: &[PassStat], files_scanned: usize, total_micros: u128) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# fademl-lint pass stats — {files_scanned} files, total {:.1} ms\n",
        total_micros as f64 / 1000.0
    ));
    out.push_str("# pass              time_ms  findings\n");
    for s in stats {
        out.push_str(&format!(
            "{:<18} {:>8.1} {:>9}\n",
            s.name,
            s.micros as f64 / 1000.0,
            s.findings
        ));
    }
    out
}
