//! The workspace call graph, generalized out of the original intra-
//! crate graph in [`crate::locks`]: the lock passes propagate over it,
//! and [`CallGraph::reachable`] answers reachability from named roots.
//!
//! Resolution is name-based and deliberately conservative in the same
//! way the lock pass always was: functions with the same name across
//! files and impls are merged into one node, so reachability and
//! transitive property sets over-approximate rather than miss. Only
//! free calls (`f(…)`), path calls (`Type::f(…)`) and `self.f(…)`
//! methods create edges. A method call through an arbitrary receiver
//! (`conn.f(…)`) is *not* resolved, because a same-named method on an
//! unrelated type would manufacture edges (the condvar `guard.wait(…)`
//! false-cycle class).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::ir::{FnItem, Ir, Receiver};
use crate::source::SourceFile;

/// Whether a call site resolves to a workspace function (assuming the
/// name is defined somewhere in scope).
pub fn resolves(recv: &Receiver) -> bool {
    !matches!(recv, Receiver::Dot(_))
}

/// Location of one function item: `(file index, fn index)` into the
/// [`Ir`] the graph was built from.
pub type FnRef = (usize, usize);

/// The name-merged call graph over a set of parsed files.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Function name → every definition site with that name.
    pub defs: BTreeMap<String, Vec<FnRef>>,
    /// Function name → names of workspace functions it calls.
    pub edges: BTreeMap<String, BTreeSet<String>>,
}

impl CallGraph {
    /// Builds the graph over every non-test function in `ir` whose file
    /// path starts with one of `scope` prefixes (empty scope = whole
    /// workspace). `files` must be the slice `ir` was parsed from.
    pub fn build(ir: &Ir, files: &[SourceFile], scope: &[&str]) -> CallGraph {
        let mut graph = CallGraph::default();
        let in_scope = |path: &str| scope.is_empty() || scope.iter().any(|p| path.starts_with(p));
        for (fi, file) in ir.files.iter().enumerate() {
            if !in_scope(&file.path) {
                continue;
            }
            for (ni, f) in file.fns.iter().enumerate() {
                if is_test_fn(&files[fi], f) {
                    continue;
                }
                graph.defs.entry(f.name.clone()).or_default().push((fi, ni));
            }
        }
        for (fi, file) in ir.files.iter().enumerate() {
            if !in_scope(&file.path) {
                continue;
            }
            for f in &file.fns {
                if is_test_fn(&files[fi], f) {
                    continue;
                }
                let entry = graph.edges.entry(f.name.clone()).or_default();
                for stmt in f.stmts() {
                    for call in &stmt.calls {
                        if resolves(&call.recv) && graph.defs.contains_key(&call.name) {
                            entry.insert(call.name.clone());
                        }
                    }
                }
            }
        }
        graph
    }

    /// Function names reachable from `roots` (roots included when
    /// defined in the graph).
    pub fn reachable<'a>(&self, roots: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: VecDeque<String> = VecDeque::new();
        for r in roots {
            if self.defs.contains_key(r) && seen.insert(r.to_string()) {
                queue.push_back(r.to_string());
            }
        }
        while let Some(name) = queue.pop_front() {
            if let Some(callees) = self.edges.get(&name) {
                for callee in callees {
                    if seen.insert(callee.clone()) {
                        queue.push_back(callee.clone());
                    }
                }
            }
        }
        seen
    }

    /// Fixpoint propagation of a per-function property set: `seed`
    /// gives each function's locally-contributed items, and the result
    /// adds everything contributed by (transitive) callees.
    pub fn propagate(
        &self,
        mut sets: BTreeMap<String, BTreeSet<String>>,
    ) -> BTreeMap<String, BTreeSet<String>> {
        loop {
            let mut changed = false;
            for (caller, callees) in &self.edges {
                let mut add: BTreeSet<String> = BTreeSet::new();
                for callee in callees {
                    if let Some(items) = sets.get(callee) {
                        add.extend(items.iter().cloned());
                    }
                }
                let entry = sets.entry(caller.clone()).or_default();
                for item in add {
                    changed |= entry.insert(item);
                }
            }
            if !changed {
                return sets;
            }
        }
    }
}

/// Whether a function item sits inside a `#[cfg(test)]`/`#[test]`
/// region of its file.
pub fn is_test_fn(file: &SourceFile, f: &FnItem) -> bool {
    f.line >= 1 && file.lines.get(f.line - 1).is_some_and(|l| l.in_test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Ir;
    use crate::source::SourceFile;

    fn graph(src: &str) -> (Ir, Vec<SourceFile>, CallGraph) {
        let files = vec![SourceFile::from_source("crates/x/src/a.rs", src)];
        let ir = Ir::parse(&files);
        let g = CallGraph::build(&ir, &files, &[]);
        (ir, files, g)
    }

    #[test]
    fn strict_resolves_free_path_and_self_calls_only() {
        let src = "\
impl S {
    fn root(&self) {
        helper();
        Util::assoc();
        self.method();
        self.conn.through_receiver();
    }
    fn method(&self) {}
}
fn helper() {}
fn through_receiver() {}
mod util { impl Util { fn assoc() {} } }
";
        let (_, _, g) = graph(src);
        let callees = &g.edges["root"];
        assert!(callees.contains("helper"));
        assert!(callees.contains("assoc"));
        assert!(callees.contains("method"));
        assert!(!callees.contains("through_receiver"));
    }

    #[test]
    fn reachability_is_transitive() {
        let src = "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn island() {}\n";
        let (_, _, g) = graph(src);
        let r = g.reachable(["a"]);
        assert!(r.contains("a") && r.contains("b") && r.contains("c"));
        assert!(!r.contains("island"));
    }

    #[test]
    fn test_functions_are_excluded() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn shadow() { live(); }\n}\n";
        let (_, _, g) = graph(src);
        assert!(g.defs.contains_key("live"));
        assert!(!g.defs.contains_key("shadow"));
    }

    #[test]
    fn propagate_reaches_fixpoint() {
        let src = "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\n";
        let (_, _, g) = graph(src);
        let mut seed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        seed.entry("c".into()).or_default().insert("io".to_string());
        let sets = g.propagate(seed);
        assert!(sets["a"].contains("io"));
        assert!(sets["b"].contains("io"));
    }
}
