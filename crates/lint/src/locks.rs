//! Pass 1 — lock-order deadlock detection over the detector, the
//! serving engine, and the network front.
//!
//! Rebuilt on the shared IR ([`crate::ir`]) and call graph
//! ([`crate::callgraph`]): every `Mutex`/`RwLock` acquisition site
//! (`.lock()` / `.read()` / `.write()`, parking_lot and std alike) is
//! found by the guard-liveness walker in [`crate::guards`] — a
//! `let`-bound guard is held until the end of its enclosing block (or
//! an explicit `drop(g)`), a temporary guard for its statement. While
//! A is held, acquiring B adds the order edge `A → B`; calls resolved
//! by the call graph propagate the callee's transitively-
//! acquired locks under the caller's held set. Any cycle in the
//! resulting lock-order graph is a potential deadlock and is reported
//! with the source location of every edge; re-acquiring a held lock is
//! `lock-held-twice`.
//!
//! Known limitations (see DESIGN.md §11/§16): locks are identified by
//! field/variable name, and method calls through non-`self` receivers
//! are not resolved (deliberately — see the condvar notes in
//! [`crate::callgraph`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{is_test_fn, resolves, CallGraph};
use crate::guards::{walk_fn, Event, ACQUIRE_METHODS};
use crate::ir::Ir;
use crate::report::Finding;
use crate::source::SourceFile;

/// Default lock-analysis scope: the admission detector, the serving
/// engine and the network front (router health state, connection
/// registry, quota buckets).
pub const LOCK_SCOPE: &[&str] = &["crates/detect/src/", "crates/serve/src/", "crates/net/src/"];

/// A directed lock-order edge with provenance.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    /// Where `from` was acquired.
    held_at: (String, usize),
    /// Where `to` was acquired (or the call that reaches it).
    taken_at: (String, usize),
    via: Option<String>,
}

/// Runs the lock-order analysis over every file inside `scope`.
pub fn analyze(ir: &Ir, files: &[SourceFile], scope: &[&str]) -> Vec<Finding> {
    let graph = CallGraph::build(ir, files, scope);

    // Transitive lock set per function name (names merged across
    // impls — a conservative over-approximation).
    let mut seed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for_each_fn(ir, files, scope, |_, f| {
        let entry = seed.entry(f.name.clone()).or_default();
        walk_fn(f, &mut |_, ev| {
            if let Event::Acquire(h) = ev {
                entry.insert(h.lock.clone());
            }
        });
    });
    let reach = graph.propagate(seed);

    let mut findings = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    for_each_fn(ir, files, scope, |path, f| {
        walk_fn(f, &mut |held, ev| match ev {
            Event::Acquire(site) => {
                for h in held {
                    if h.lock == site.lock {
                        findings.push(Finding::new(
                            "lock-held-twice",
                            path,
                            site.line,
                            format!(
                                "`{}` re-acquired in `{}` while already held since {}:{} — \
                                 self-deadlock (std) or UB-adjacent (parking_lot)",
                                site.lock, f.name, path, h.line
                            ),
                            "",
                        ));
                    } else {
                        edges.push(Edge {
                            from: h.lock.clone(),
                            to: site.lock.clone(),
                            held_at: (path.to_string(), h.line),
                            taken_at: (path.to_string(), site.line),
                            via: None,
                        });
                    }
                }
            }
            Event::Call(call) => {
                if held.is_empty()
                    || !resolves(&call.recv)
                    || ACQUIRE_METHODS.contains(&call.name.as_str())
                    || !graph.defs.contains_key(&call.name)
                {
                    return;
                }
                let Some(locks) = reach.get(&call.name) else {
                    return;
                };
                for h in held {
                    for lock in locks {
                        if *lock == h.lock {
                            findings.push(Finding::new(
                                "lock-held-twice",
                                path,
                                call.line,
                                format!(
                                    "call to `{}` (re)acquires `{}` already held in `{}` \
                                     since {}:{}",
                                    call.name, lock, f.name, path, h.line
                                ),
                                "",
                            ));
                        } else {
                            edges.push(Edge {
                                from: h.lock.clone(),
                                to: lock.clone(),
                                held_at: (path.to_string(), h.line),
                                taken_at: (path.to_string(), call.line),
                                via: Some(call.name.clone()),
                            });
                        }
                    }
                }
            }
        });
    });
    report_cycles(&edges, &mut findings);
    findings
}

/// Calls `visit(path, fn)` for every non-test function in scope.
fn for_each_fn<'a>(
    ir: &'a Ir,
    files: &[SourceFile],
    scope: &[&str],
    mut visit: impl FnMut(&'a str, &'a crate::ir::FnItem),
) {
    for (fi, file) in ir.files.iter().enumerate() {
        if !scope.is_empty() && !scope.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        for f in &file.fns {
            if is_test_fn(&files[fi], f) {
                continue;
            }
            visit(&file.path, f);
        }
    }
}

/// DFS cycle detection over the lock-order graph; one finding per
/// distinct cycle (canonicalised by its sorted lock set).
fn report_cycles(edges: &[Edge], findings: &mut Vec<Finding>) {
    let mut adj: BTreeMap<&str, Vec<&Edge>> = BTreeMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().push(e);
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut path: Vec<&Edge> = Vec::new();
        let mut on_path: Vec<&str> = vec![start];
        dfs(
            start,
            &adj,
            &mut on_path,
            &mut path,
            &mut seen_cycles,
            findings,
        );
    }
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a Edge>>,
    on_path: &mut Vec<&'a str>,
    path: &mut Vec<&'a Edge>,
    seen: &mut BTreeSet<Vec<String>>,
    findings: &mut Vec<Finding>,
) {
    // Bounded depth: lock graphs here are tiny; this guards pathology.
    if path.len() > 32 {
        return;
    }
    let Some(nexts) = adj.get(node) else { return };
    for edge in nexts {
        if let Some(pos) = on_path.iter().position(|n| *n == edge.to) {
            let cycle_edges: Vec<&Edge> = path[pos..].iter().copied().chain([*edge]).collect();
            let mut key: Vec<String> = cycle_edges.iter().map(|e| e.from.clone()).collect();
            key.sort();
            if seen.insert(key) {
                let locks: Vec<&str> = cycle_edges
                    .iter()
                    .map(|e| e.from.as_str())
                    .chain([edge.to.as_str()])
                    .collect();
                let mut detail = String::new();
                for e in &cycle_edges {
                    let via = e
                        .via
                        .as_ref()
                        .map(|v| format!(" via call to `{v}`"))
                        .unwrap_or_default();
                    detail.push_str(&format!(
                        " `{}` (held at {}:{}) then `{}` (taken at {}:{}{});",
                        e.from, e.held_at.0, e.held_at.1, e.to, e.taken_at.0, e.taken_at.1, via
                    ));
                }
                findings.push(Finding::new(
                    "lock-cycle",
                    &edge.taken_at.0,
                    edge.taken_at.1,
                    format!(
                        "potential deadlock: lock-order cycle {} —{}",
                        locks.join(" → "),
                        detail
                    ),
                    "",
                ));
            }
            continue;
        }
        on_path.push(edge.to.as_str());
        path.push(edge);
        dfs(edge.to.as_str(), adj, on_path, path, seen, findings);
        path.pop();
        on_path.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(src: &str) -> Vec<Finding> {
        let files = [SourceFile::from_source("crates/serve/src/x.rs", src)];
        let ir = Ir::parse(&files);
        analyze(&ir, &files, LOCK_SCOPE)
    }

    fn rules(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn seeded_two_lock_cycle_is_detected_with_both_locations() {
        let src = "\
impl S {
    fn ab(&self) {
        let g1 = self.m1.lock();
        let g2 = self.m2.lock();
    }
    fn ba(&self) {
        let g2 = self.m2.lock();
        let g1 = self.m1.lock();
    }
}
";
        let found = run(src);
        assert_eq!(rules(&found), vec!["lock-cycle"]);
        let msg = &found[0].message;
        assert!(msg.contains("m1"), "{msg}");
        assert!(msg.contains("m2"), "{msg}");
        // Both acquisition locations are reported.
        assert!(msg.contains(":3") || msg.contains(":4"), "{msg}");
        assert!(msg.contains(":7") || msg.contains(":8"), "{msg}");
    }

    #[test]
    fn match_arm_temporary_does_not_order_sibling_arms() {
        // An arm body is a temporary scope: `a`'s guard dies with its
        // arm, before the `Err` arm runs. A scrutinee temporary would
        // live across every arm.
        let src = "\
impl S {
    fn accept(&self, r: Result<H, E>) {
        match r {
            Ok(h) => self.a.lock().push(h),
            Err(_) => {
                self.b.lock().clear();
            }
        }
    }
    fn other(&self) {
        let g = self.b.lock();
        self.a.lock().clear();
    }
}
";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "\
impl S {
    fn a(&self) {
        let g1 = self.m1.lock();
        let g2 = self.m2.lock();
    }
    fn b(&self) {
        let g1 = self.m1.lock();
        let g2 = self.m2.lock();
    }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn interprocedural_cycle_through_self_call() {
        let src = "\
impl S {
    fn outer(&self) {
        let g = self.a.lock();
        self.inner();
    }
    fn inner(&self) {
        let g = self.b.lock();
    }
    fn reverse(&self) {
        let g = self.b.lock();
        let h = self.a.lock();
    }
}
";
        let found = run(src);
        assert_eq!(rules(&found), vec!["lock-cycle"]);
        assert!(found[0].message.contains("via call to `inner`"));
    }

    #[test]
    fn relock_while_held_is_flagged() {
        let src = "\
fn f(m: &Mutex<u32>) {
    let a = m.lock();
    let b = m.lock();
}
";
        let found = run(src);
        assert_eq!(rules(&found), vec!["lock-held-twice"]);
    }

    #[test]
    fn condvar_wait_on_guard_is_not_a_self_cycle() {
        // Mirrors request.rs: a crate fn named `wait` locks `outcome`;
        // `self.ready.wait(guard)` must not create outcome → outcome.
        let src = "\
impl Slot {
    fn wait(&self) {
        let mut guard = self.outcome.lock();
        loop {
            guard = self.ready.wait(guard);
        }
    }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn temporary_guard_does_not_order_across_statements() {
        let src = "\
impl S {
    fn a(&self) {
        self.m1.lock().push(1);
        let g = self.m2.lock();
    }
    fn b(&self) {
        self.m2.lock().push(1);
        let g = self.m1.lock();
    }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn chained_multiline_receiver_is_resolved() {
        let src = "\
impl S {
    fn a(&self) {
        let g = self
            .m1
            .lock();
        let h = self.m2.lock();
    }
    fn b(&self) {
        let g = self.m2.lock();
        let h = self.m1.lock();
    }
}
";
        let found = run(src);
        assert_eq!(rules(&found), vec!["lock-cycle"]);
    }

    #[test]
    fn test_code_is_ignored() {
        let src = "\
#[cfg(test)]
mod tests {
    fn ab(&self) {
        let g1 = self.m1.lock();
        let g2 = self.m2.lock();
    }
    fn ba(&self) {
        let g2 = self.m2.lock();
        let g1 = self.m1.lock();
    }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn guard_dropped_early_releases_the_order() {
        // New precision over the line-level pass: drop(g) ends the
        // guard, so no a→b edge forms in `a` and no cycle exists.
        let src = "\
impl S {
    fn a(&self) {
        let g = self.m1.lock();
        drop(g);
        let h = self.m2.lock();
    }
    fn b(&self) {
        let g = self.m2.lock();
        let h = self.m1.lock();
    }
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn inner_scope_guard_does_not_leak_order() {
        // New precision: a guard confined to an inner block is not
        // held when the sibling statement acquires the second lock.
        let src = "\
impl S {
    fn a(&self) {
        {
            let g = self.m1.lock();
        }
        let h = self.m2.lock();
    }
    fn b(&self) {
        let g = self.m2.lock();
        let h = self.m1.lock();
    }
}
";
        assert!(run(src).is_empty());
    }
}
