//! fademl-lint — purpose-built workspace static analysis.
//!
//! Two layers. The **shared IR** ([`ir`]) parses every file once into
//! a delimiter-balanced token tree and a lightweight function-body AST
//! (fn items, blocks, statements, call sites, `let` bindings); the
//! **workspace call graph** ([`callgraph`]) resolves free, path and
//! `self.` call sites by name across all crates.
//!
//! Three passes run on top, each checking what rustc, clippy and the
//! tests cannot (the panic surface, `unsafe` hygiene, discarded
//! `Result`s, std locks, in-place file writes and raw threads and
//! sockets are compiler lints; the served frame's allocations are an
//! exact count and every decoder's largest allocation a measured bound
//! in `tests/allocs.rs`; DESIGN.md §11):
//!
//! 1. [`locks`] — inter-procedural lock-order analysis of the
//!    detector, serving engine and network front: acquisition-order
//!    cycles (potential deadlocks) and double-acquisitions.
//! 2. [`lock_io`] — lock guards held across blocking I/O in serve/net.
//! 3. [`invariants`] — `dead-variant`: every public serving error
//!    variant is constructed somewhere.
//!
//! There is no allowlist: any [`Finding`] fails the
//! gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Discarded `Result`s, held to zero by clippy outside tests; an
// exemption is an `#[expect(lint, reason = …)]` on the smallest item
// that needs it (DESIGN.md §11).
#![warn(clippy::let_underscore_must_use, clippy::unused_result_ok)]
#![cfg_attr(
    test,
    allow(
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        reason = "tests discard what they do not check"
    )
)]

pub mod callgraph;
pub mod guards;
pub mod invariants;
pub mod ir;
pub mod lock_io;
pub mod locks;
pub mod report;
pub mod source;

use report::Finding;
use source::SourceFile;

/// Findings from all passes over `files`, sorted by rule, path and line.
pub fn collect_findings(files: &[SourceFile]) -> Vec<Finding> {
    let ir = ir::Ir::parse(files);
    let mut findings = locks::analyze(&ir, files, locks::LOCK_SCOPE);
    findings.extend(invariants::check(files));
    findings.extend(lock_io::check(&ir, files));
    findings.sort_by(|a, b| (&a.rule, &a.path, a.line).cmp(&(&b.rule, &b.path, b.line)));
    findings
}
