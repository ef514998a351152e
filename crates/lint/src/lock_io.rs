//! Pass — `lock-across-io`: a held lock guard live across a blocking
//! I/O call in the serving or network layer.
//!
//! A parking_lot guard held while the thread blocks on the filesystem,
//! a socket, or a channel `recv` turns one slow peer into a stall for
//! every thread behind that lock — the exact hazard class the replica
//! router and connection registry exist to avoid. The pass reuses the
//! guard-liveness walker from [`crate::guards`] (block-scoped `let`
//! guards, `drop(g)` release, statement-scoped temporaries that stay
//! live across their child blocks) and flags:
//!
//! * direct blocking calls — `fs::*` / `File::open` / socket
//!   reads/writes/shutdowns/accepts/connects, frame I/O
//!   (`read_frame`/`write_frame`), and channel `recv`/`recv_timeout` —
//!   made while any guard is held;
//! * calls to in-scope workspace functions that transitively perform
//!   such I/O (fixpoint over the call graph).
//!
//! Condvar `wait` is *not* an I/O sink: parking a condvar releases its
//! mutex by design (`request.rs` relies on this).

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{is_test_fn, resolves, CallGraph};
use crate::guards::{walk_fn, Event, ACQUIRE_METHODS};
use crate::ir::{CallSite, Ir, Receiver};
use crate::report::Finding;
use crate::source::SourceFile;

/// Where the pass looks: the serving engine and the network front.
pub const IO_SCOPE: &[&str] = &["crates/serve/src/", "crates/net/src/"];

/// Blocking method names (any receiver).
const IO_METHODS: &[&str] = &[
    "recv",
    "recv_timeout",
    "read_exact",
    "write_all",
    "flush",
    "shutdown",
    "accept",
    "connect",
    "read_frame",
    "write_frame",
    "read_to_end",
    "set_read_timeout",
    "set_write_timeout",
];

/// Path receivers whose every associated call blocks on the OS.
const IO_PATHS: &[&str] = &["fs", "File", "TcpStream", "TcpListener", "OpenOptions"];

/// Runs the pass over every file in [`IO_SCOPE`].
pub fn check(ir: &Ir, files: &[SourceFile]) -> Vec<Finding> {
    let graph = CallGraph::build(ir, files, IO_SCOPE);

    // Transitive "does blocking I/O" property per function name.
    let mut seed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (fi, file) in ir.files.iter().enumerate() {
        if !IO_SCOPE.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        for f in &file.fns {
            if is_test_fn(&files[fi], f) {
                continue;
            }
            let entry = seed.entry(f.name.clone()).or_default();
            for stmt in f.stmts() {
                for call in &stmt.calls {
                    if is_direct_io(call) {
                        entry.insert("io".to_string());
                    }
                }
            }
        }
    }
    let does_io = graph.propagate(seed);

    let mut findings = Vec::new();
    for (fi, file) in ir.files.iter().enumerate() {
        if !IO_SCOPE.iter().any(|p| file.path.starts_with(p)) {
            continue;
        }
        for f in &file.fns {
            if is_test_fn(&files[fi], f) {
                continue;
            }
            walk_fn(f, &mut |held, ev| {
                let Event::Call(call) = ev else { return };
                if held.is_empty() {
                    return;
                }
                let transitive = !is_direct_io(call)
                    && resolves(&call.recv)
                    && !ACQUIRE_METHODS.contains(&call.name.as_str())
                    && graph.defs.contains_key(&call.name)
                    && does_io.get(&call.name).is_some_and(|s| s.contains("io"));
                if is_direct_io(call) || transitive {
                    let h = &held[held.len() - 1];
                    let how = if transitive {
                        format!("`{}` (transitively blocking)", call.name)
                    } else {
                        format!("`{}`", call.name)
                    };
                    findings.push(Finding::new(
                        "lock-across-io",
                        &file.path,
                        call.line,
                        format!(
                            "{how} called while guard on `{}` (taken at line {}) is \
                             held in `{}` — move the I/O outside the critical section",
                            h.lock, h.line, f.name
                        ),
                        files[fi]
                            .lines
                            .get(call.line.wrapping_sub(1))
                            .map_or("", |l| l.raw.as_str()),
                    ));
                }
            });
        }
    }
    findings
}

/// Whether a call site is itself a blocking I/O operation.
fn is_direct_io(call: &CallSite) -> bool {
    match &call.recv {
        Receiver::Path(seg) => IO_PATHS.contains(&seg.as_str()),
        Receiver::Bare => call.name == "read_frame" || call.name == "write_frame",
        _ => IO_METHODS.contains(&call.name.as_str()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let files = [SourceFile::from_source("crates/net/src/server.rs", src)];
        let ir = Ir::parse(&files);
        check(&ir, &files)
    }

    #[test]
    fn temp_guard_across_socket_shutdown_loop_is_flagged() {
        // The shape of the real finding: draining a connection registry
        // while its lock is held, shutting down each socket.
        let found = run(
            "impl S {\n    fn stop(&self) {\n        for (_, stream) in self.conns.lock().drain(..) {\n            let _ = stream.shutdown(Shutdown::Both);\n        }\n    }\n}\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "lock-across-io");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn collect_then_io_outside_the_lock_is_clean() {
        let found = run(
            "impl S {\n    fn stop(&self) {\n        let streams: Vec<TcpStream> = self.conns.lock().drain(..).collect();\n        for stream in streams {\n            let _ = stream.shutdown(Shutdown::Both);\n        }\n    }\n}\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn channel_recv_under_let_guard_is_flagged() {
        let found = run(
            "impl S {\n    fn next(&self) {\n        let g = self.state.lock();\n        let batch = self.rx.recv();\n    }\n}\n",
        );
        assert_eq!(found.len(), 1, "{found:?}");
    }

    #[test]
    fn transitive_io_through_helper_is_flagged() {
        let found = run(
            "impl S {\n    fn save(&self) {\n        let g = self.state.lock();\n        self.persist();\n    }\n    fn persist(&self) {\n        fs::write(\"p\", b\"x\").unwrap();\n    }\n}\n",
        );
        assert!(
            found.iter().any(|f| f.message.contains("transitively")),
            "{found:?}"
        );
    }

    #[test]
    fn condvar_wait_is_not_io() {
        let found = run(
            "impl Slot {\n    fn block(&self) {\n        let mut guard = self.outcome.lock();\n        loop {\n            guard = self.ready.wait(guard);\n        }\n    }\n}\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn io_after_drop_is_clean() {
        let found = run(
            "impl S {\n    fn stop(&self) {\n        let g = self.state.lock();\n        drop(g);\n        let _ = self.stream.shutdown(Shutdown::Both);\n    }\n}\n",
        );
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn out_of_scope_crates_are_ignored() {
        let files = [SourceFile::from_source(
            "crates/nn/src/trainer.rs",
            "fn f(m: &M) {\n    let g = m.state.lock();\n    fs::write(\"p\", b\"x\").unwrap();\n}\n",
        )];
        let ir = Ir::parse(&files);
        assert!(check(&ir, &files).is_empty());
    }
}
