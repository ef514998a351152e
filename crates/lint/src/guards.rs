//! Shared guard-liveness walker over the [`crate::ir`] AST, used by
//! both lock passes ([`crate::locks`], [`crate::lock_io`]).
//!
//! Liveness model:
//!
//! * `.lock()` / `.read()` / `.write()` on a named receiver acquires
//!   that lock. A `let`-bound guard is held until the end of its
//!   enclosing block; `drop(g)` on the bound name releases it early.
//! * A temporary guard (`self.m.lock().push(x)`) is held for its
//!   statement only — including the statement's child blocks, so a
//!   guard kept alive by `for x in m.lock().drain(..) { … }` is live
//!   across the loop body. Each `match` arm is its own statement (an
//!   arm body is a temporary scope), while the scrutinee's temporaries
//!   belong to the `match` statement and so live across every arm.
//! * `self.lock()` (no named receiver) and free `lock(…)` calls are
//!   not acquisitions.

use crate::ir::{Block, CallSite, FnItem, Receiver, Stmt};

/// Guard-acquiring method names.
pub const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// Chained calls that yield the guard itself (std poisoning recovery),
/// so a `let` through them still binds the guard.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else", "into_inner"];

/// One held guard.
#[derive(Debug, Clone)]
pub struct Held {
    /// Lock identity — the receiver identifier (`self.m1.lock()` → `m1`).
    pub lock: String,
    /// The `let` binding holding the guard, if any.
    pub binder: Option<String>,
    /// Acquisition line.
    pub line: usize,
}

/// One event delivered to the visitor, with the guards held *before*
/// the event takes effect.
#[derive(Debug)]
pub enum Event<'a> {
    /// A new guard is being acquired (not yet in the held set).
    Acquire(&'a Held),
    /// A non-acquire call site.
    Call(&'a CallSite),
}

/// Walks `f`'s body in source order, calling `visit(held, event)` for
/// every acquisition and call with the currently-held guard set.
pub fn walk_fn(f: &FnItem, visit: &mut impl FnMut(&[Held], Event<'_>)) {
    let mut held: Vec<Held> = Vec::new();
    walk_block(&f.body, &mut held, visit);
}

fn walk_block(block: &Block, held: &mut Vec<Held>, visit: &mut impl FnMut(&[Held], Event<'_>)) {
    let scope_base = held.len();
    for stmt in &block.stmts {
        if stmt.defines_item {
            continue;
        }
        walk_stmt(stmt, held, visit);
    }
    held.truncate(scope_base);
}

fn walk_stmt(stmt: &Stmt, held: &mut Vec<Held>, visit: &mut impl FnMut(&[Held], Event<'_>)) {
    let stmt_base = held.len();
    for (ci, call) in stmt.calls.iter().enumerate() {
        if let Some(lock) = acquired_lock(call) {
            // `let g = m.lock();` binds the guard; `let v =
            // m.lock().drain(..).collect();` binds the *result* and the
            // guard dies with the statement. The guard is bound only
            // when every chained call after the acquire preserves it
            // (`.unwrap()` and friends on std guards).
            let binds = stmt.has_let
                && stmt.calls[ci + 1..]
                    .iter()
                    .all(|c| GUARD_ADAPTERS.contains(&c.name.as_str()));
            let new = Held {
                lock,
                binder: binds.then(|| stmt.lets.first().cloned()).flatten(),
                line: call.line,
            };
            visit(held, Event::Acquire(&new));
            held.push(new);
            continue;
        }
        if call.name == "drop" && call.recv == Receiver::Bare {
            if let Some(arg) = &call.first_arg_ident {
                held.retain(|h| h.binder.as_deref() != Some(arg.as_str()));
            }
            continue;
        }
        visit(held, Event::Call(call));
    }
    for child in &stmt.children {
        walk_block(child, held, visit);
    }
    // Temporary guards die with the statement; `let`-bound guards
    // survive to the end of the enclosing block.
    let mut idx = held.len();
    while idx > stmt_base {
        idx -= 1;
        if held[idx].binder.is_none() {
            held.remove(idx);
        }
    }
}

/// The lock acquired by a call site, if it is an acquisition.
pub fn acquired_lock(call: &CallSite) -> Option<String> {
    if !ACQUIRE_METHODS.contains(&call.name.as_str()) {
        return None;
    }
    match &call.recv {
        Receiver::Dot(name) if !name.is_empty() => Some(name.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Ir;
    use crate::source::SourceFile;

    /// Runs the walker and records `(event, held-before)` pairs.
    fn trace(src: &str) -> Vec<(String, Vec<String>)> {
        let files = vec![SourceFile::from_source("crates/x/src/a.rs", src)];
        let ir = Ir::parse(&files);
        let mut out = Vec::new();
        for f in &ir.files[0].fns {
            walk_fn(f, &mut |held, ev| {
                let held: Vec<String> = held.iter().map(|h| h.lock.clone()).collect();
                let label = match ev {
                    Event::Acquire(h) => format!("acq:{}", h.lock),
                    Event::Call(c) => format!("call:{}", c.name),
                };
                out.push((label, held));
            });
        }
        out
    }

    #[test]
    fn let_guard_held_to_block_end_not_fn_end() {
        let t = trace(
            "fn f(&self) {\n    {\n        let g = self.m1.lock();\n    }\n    self.io();\n}\n",
        );
        let io = t.iter().find(|(l, _)| l == "call:io").unwrap();
        assert!(io.1.is_empty(), "guard must die with its block: {t:?}");
    }

    #[test]
    fn drop_releases_the_named_guard() {
        let t =
            trace("fn f(&self) {\n    let g = self.m1.lock();\n    drop(g);\n    self.io();\n}\n");
        let io = t.iter().find(|(l, _)| l == "call:io").unwrap();
        assert!(io.1.is_empty(), "{t:?}");
    }

    #[test]
    fn temp_guard_live_across_child_block_only() {
        let t = trace(
            "fn f(&self) {\n    for x in self.m.lock().drain(..) {\n        self.io();\n    }\n    self.after();\n}\n",
        );
        let io = t.iter().find(|(l, _)| l == "call:io").unwrap();
        assert_eq!(io.1, vec!["m"], "temp held across loop body: {t:?}");
        let after = t.iter().find(|(l, _)| l == "call:after").unwrap();
        assert!(after.1.is_empty(), "temp dies with its statement: {t:?}");
    }

    #[test]
    fn self_receiver_is_not_an_acquisition() {
        let t = trace("fn f(&self) {\n    self.lock();\n    lock(1);\n}\n");
        assert!(t.iter().all(|(l, _)| !l.starts_with("acq")), "{t:?}");
    }
}
