//! The serving crates' one lock discipline: a thread holds at most one
//! lock, and holds none across I/O.
//!
//! Every lock in `fademl-serve` and `fademl-net` is a [`Leaf`]: nothing
//! is taken while its guard is live. Debug builds (every `cargo test`)
//! check that where the lock is taken — a guard marks its thread, and
//! taking a second [`Leaf`] on a marked thread panics naming both
//! sites. The blocking choke points (frame reads and writes, the accept
//! loop, socket shutdown, channel receives) call [`assert_unlocked`].
//! Release builds compile both checks out; the lock is then exactly the
//! vendored `parking_lot::Mutex`.
//!
//! A leaf lock cannot be part of a lock-order cycle, so the engine
//! cannot deadlock on its own locks; what the check does not see is a
//! path no test executes (DESIGN.md §11).

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Instant;

pub use parking_lot::Condvar;

/// A mutex that is never held while another lock is taken.
#[derive(Debug, Default)]
pub struct Leaf<T> {
    inner: parking_lot::Mutex<T>,
}

/// Guard of a [`Leaf`]; the thread's mark lives exactly as long as it.
pub struct LeafGuard<'a, T> {
    guard: parking_lot::MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _mark: mark::Mark,
}

impl<T> Leaf<T> {
    /// A leaf lock around `value`.
    pub fn new(value: T) -> Self {
        Leaf {
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Takes the lock.
    ///
    /// # Panics
    ///
    /// In debug builds, when this thread already holds a [`Leaf`]: the
    /// message names the site that took it and this one.
    #[track_caller]
    pub fn lock(&self) -> LeafGuard<'_, T> {
        #[cfg(debug_assertions)]
        let mark = mark::Mark::set(std::panic::Location::caller());
        LeafGuard {
            guard: self.inner.lock(),
            #[cfg(debug_assertions)]
            _mark: mark,
        }
    }
}

impl<T> LeafGuard<'_, T> {
    /// Releases the lock until `condvar` is notified, then retakes it.
    /// The thread stays marked: it is parked, taking nothing else.
    pub fn wait(&mut self, condvar: &Condvar) {
        condvar.wait(&mut self.guard);
    }

    /// As [`wait`](Self::wait), returning no later than `deadline`.
    pub fn wait_until(&mut self, condvar: &Condvar, deadline: Instant) {
        condvar.wait_until(&mut self.guard, deadline);
    }
}

impl<T> Deref for LeafGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for LeafGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A value swapped whole and read as a snapshot: readers clone the
/// `Arc`, a store replaces it, and no guard leaves this type.
#[derive(Debug)]
pub struct Snapshot<T> {
    slot: Leaf<Arc<T>>,
}

impl<T> Snapshot<T> {
    /// A snapshot slot holding `value`.
    pub fn new(value: T) -> Self {
        Snapshot {
            slot: Leaf::new(Arc::new(value)),
        }
    }

    /// The current value; a later [`store`](Self::store) does not
    /// change what this returned.
    #[track_caller]
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.lock())
    }

    /// Replaces the value. The old one is dropped after the lock is
    /// free, so its `Drop` may take locks of its own.
    #[track_caller]
    pub fn store(&self, value: T) {
        let next = Arc::new(value);
        let previous = std::mem::replace(&mut *self.slot.lock(), next);
        drop(previous);
    }
}

/// Asserts that this thread holds no [`Leaf`]; called where a thread
/// may block on I/O. Compiles to nothing in release builds.
///
/// # Panics
///
/// In debug builds, when a [`Leaf`] guard is live on this thread.
#[track_caller]
pub fn assert_unlocked() {
    #[cfg(debug_assertions)]
    mark::assert_clear(std::panic::Location::caller());
}

#[cfg(debug_assertions)]
#[expect(
    clippy::panic,
    reason = "a debug-only check: the thread that broke the lock discipline fails where it did"
)]
mod mark {
    use std::cell::Cell;
    use std::panic::Location;

    thread_local! {
        /// Where this thread took the [`Leaf`](super::Leaf) it holds.
        static HELD: Cell<Option<&'static Location<'static>>> = const { Cell::new(None) };
    }

    /// This thread's mark, cleared on drop (unwinding included).
    pub(super) struct Mark;

    impl Mark {
        pub(super) fn set(site: &'static Location<'static>) -> Mark {
            if let Some(held) = HELD.get() {
                panic!("lock taken at {site} while this thread holds the lock taken at {held}");
            }
            HELD.set(Some(site));
            Mark
        }
    }

    impl Drop for Mark {
        fn drop(&mut self) {
            HELD.set(None);
        }
    }

    pub(super) fn assert_clear(site: &'static Location<'static>) {
        if let Some(held) = HELD.get() {
            panic!("blocking call at {site} while this thread holds the lock taken at {held}");
        }
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_default()
    }

    #[test]
    fn a_nested_acquisition_panics_naming_both_sites() {
        let (outer, inner) = (Leaf::new(1), Leaf::new(2));
        let outer_line = line!() + 1;
        let guard = outer.lock();
        let inner_line = line!() + 1;
        let nested = catch_unwind(AssertUnwindSafe(|| *inner.lock()));
        drop(guard);
        let message = panic_text(nested.unwrap_err().as_ref());
        assert!(
            message.contains(&format!("sync.rs:{inner_line}:")),
            "{message}"
        );
        assert!(
            message.contains(&format!("sync.rs:{outer_line}:")),
            "{message}"
        );
        // The refused acquisition left the outer mark intact, and the
        // outer guard's drop cleared it.
        let inner_value = *inner.lock();
        assert_eq!(inner_value + *outer.lock(), 3);
    }

    #[test]
    fn retaking_the_same_leaf_panics_instead_of_deadlocking() {
        let leaf = Leaf::new(());
        let _guard = leaf.lock();
        assert!(catch_unwind(AssertUnwindSafe(|| leaf.lock())).is_err());
    }

    #[test]
    fn a_guard_dropped_by_unwinding_clears_the_mark() {
        let leaf = Leaf::new(0);
        let died = catch_unwind(AssertUnwindSafe(|| {
            let _guard = leaf.lock();
            panic!("dies holding the lock");
        }));
        assert!(died.is_err());
        assert_unlocked();
        assert_eq!(*leaf.lock(), 0);
    }

    #[test]
    fn a_woken_waiter_can_take_another_leaf_after_its_guard_drops() {
        let (ready, other) = (Leaf::new(false), Leaf::new(7));
        let condvar = Condvar::new();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let mut guard = ready.lock();
                while !*guard {
                    guard.wait(&condvar);
                }
                drop(guard);
                *other.lock()
            });
            // The waiter may not have parked yet: the flag, not the
            // notification, is what it waits for.
            *ready.lock() = true;
            condvar.notify_all();
            assert_eq!(waiter.join().unwrap(), 7);
        });
    }

    #[test]
    fn a_timed_out_waiter_can_take_another_leaf_after_its_guard_drops() {
        let (idle, other) = (Leaf::new(()), Leaf::new(7));
        let condvar = Condvar::new();
        let mut guard = idle.lock();
        let started = Instant::now();
        guard.wait_until(&condvar, started + Duration::from_millis(5));
        assert!(started.elapsed() >= Duration::from_millis(5));
        drop(guard);
        assert_eq!(*other.lock(), 7);
    }

    #[test]
    fn assert_unlocked_panics_under_a_guard() {
        let leaf = Leaf::new(());
        assert_unlocked();
        let guard = leaf.lock();
        let line = line!() + 1;
        let blocked = catch_unwind(|| assert_unlocked());
        drop(guard);
        let message = panic_text(blocked.unwrap_err().as_ref());
        assert!(message.contains(&format!("sync.rs:{line}:")), "{message}");
        assert_unlocked();
    }

    #[test]
    fn a_store_drops_the_old_value_after_the_lock_is_free() {
        /// Takes a leaf when dropped, as a value owning a lock-guarded
        /// resource may.
        struct Locks<'a>(&'a Leaf<u32>);
        impl Drop for Locks<'_> {
            fn drop(&mut self) {
                *self.0.lock() += 1;
            }
        }
        let drops = Leaf::new(0);
        let slot = Snapshot::new(Locks(&drops));
        let held = slot.load();
        slot.store(Locks(&drops));
        // The first value lives on in `held`; its last owner drops here.
        assert_eq!(*drops.lock(), 0);
        drop(held);
        assert_eq!(*drops.lock(), 1);
        slot.store(Locks(&drops));
        assert_eq!(*drops.lock(), 2);
    }
}
