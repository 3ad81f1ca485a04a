//! Lock and park/wake primitives shared by the engine's background workers.
//!
//! The concurrency model is coarse: one lock around a whole engine (the
//! paper notes that in new recovery domains "concurrency is often less of
//! an issue" than in page-oriented databases — operations there are
//! coarse), with background cache-manager threads draining the write graph
//! (the "second reason" for flushing in §3: shortening recovery by keeping
//! the uninstalled set small). Those workers — the per-shard installers and
//! log flushers of `llog-engine` — park on a [`WorkSignal`] when idle, so
//! they burn no CPU between operations.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Lock a mutex, recovering the data from a poisoned lock.
///
/// The engine's invariants are re-validated by recovery (and by
/// `check_consistency` in audit mode), so a panic on another thread must
/// not wedge every surviving handle — treat poison as a plain lock.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A park/wake primitive for background workers (installers, log flushers).
///
/// Producers call [`notify`](WorkSignal::notify) after publishing work;
/// workers snapshot the [`epoch`](WorkSignal::epoch), look for work, and if
/// none is found park in [`wait_past`](WorkSignal::wait_past) until the
/// epoch moves (or [`stop`](WorkSignal::stop) is raised). The epoch makes
/// the park race-free: a notification between the snapshot and the wait is
/// never lost, because the epoch has already moved past the snapshot.
#[derive(Debug, Default)]
pub struct WorkSignal {
    state: Mutex<SignalState>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct SignalState {
    epoch: u64,
    stop: bool,
}

impl WorkSignal {
    /// Create a new instance.
    pub fn new() -> WorkSignal {
        WorkSignal::default()
    }

    /// Publish work: advance the epoch and wake every parked worker.
    pub fn notify(&self) {
        lock(&self.state).epoch += 1;
        self.cv.notify_all();
    }

    /// Raise the stop flag and wake every parked worker.
    pub fn stop(&self) {
        lock(&self.state).stop = true;
        self.cv.notify_all();
    }

    /// Has [`stop`](WorkSignal::stop) been raised?
    pub fn is_stopped(&self) -> bool {
        lock(&self.state).stop
    }

    /// Current epoch (snapshot before scanning for work).
    pub fn epoch(&self) -> u64 {
        lock(&self.state).epoch
    }

    /// Park until the epoch moves past `seen` or stop is raised. Returns
    /// `(current_epoch, stopped)`.
    pub fn wait_past(&self, seen: u64) -> (u64, bool) {
        let mut st = lock(&self.state);
        while st.epoch == seen && !st.stop {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        (st.epoch, st.stop)
    }

    /// Like [`wait_past`](WorkSignal::wait_past) but gives up after
    /// `timeout`: park until the epoch moves past `seen`, stop is raised,
    /// or the timeout elapses. Returns `(current_epoch, stopped)` either
    /// way — periodic workers (e.g. a checkpoint coordinator) use the
    /// timeout as their tick.
    pub fn wait_past_timeout(&self, seen: u64, timeout: Duration) -> (u64, bool) {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.state);
        while st.epoch == seen && !st.stop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (g, _) = self
                .cv
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
        }
        (st.epoch, st.stop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn work_signal_epoch_prevents_lost_wakeups() {
        let sig = Arc::new(WorkSignal::new());
        let seen = sig.epoch();
        // Notify *before* the waiter parks: the epoch moved, so wait_past
        // returns immediately instead of sleeping forever.
        sig.notify();
        let (epoch, stopped) = sig.wait_past(seen);
        assert!(epoch > seen);
        assert!(!stopped);
        // Stop wakes a waiter.
        let sig2 = sig.clone();
        let t = std::thread::spawn(move || sig2.wait_past(sig2.epoch()));
        sig.stop(); // before or after the park: either way the waiter sees it
        let (_, stopped) = t.join().unwrap();
        assert!(stopped);
        assert!(sig.is_stopped());
    }
}
