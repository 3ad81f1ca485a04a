//! One shard: an engine, its group-commit state, and its durability
//! watermark.
//!
//! The durability protocol is a classic group commit. `execute` appends
//! the operation to the shard's WAL under the shard lock and records a
//! *durability target* — the WAL end LSN right after the append. The
//! shard's flusher thread batches force requests to the
//! [`ForceScheduler`](crate::scheduler::ForceScheduler) barrier; after each
//! force it advances the shard's durable-LSN watermark to the forced LSN and
//! wakes every [`CommitTicket`] waiter whose target the watermark now covers.
//! An operation is **acknowledged** exactly when its ticket's target is at
//! or below the watermark — and only acknowledged operations are promised
//! to survive a crash.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use llog_core::shared::lock;
use llog_core::shared::WorkSignal;
use llog_core::snapshot::{Snapshot, SnapshotRegistry};
use llog_core::Engine;
use llog_storage::VersionStore;
use llog_testkit::faults::{failpoint, FaultHost};
use llog_types::{Lsn, ObjectId, OpId, Value};
use llog_wal::ForceOutcome;

use crate::snapshot::ShardCounters;

#[cfg(test)]
thread_local! {
    /// Engine-mutex acquisitions made by the current thread, on any shard —
    /// a census that background installers and flushers cannot perturb.
    pub(crate) static LOCKS_BY_THIS_THREAD: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
}

/// How a shard's background threads are asked to exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StopMode {
    /// Orderly shutdown: the flusher forces any leftover batch (and
    /// advances the watermark over it) before exiting.
    Drain,
    /// Simulated crash: exit immediately; pending operations stay
    /// unforced, exactly as a power failure would leave them.
    Abandon,
}

/// Group-commit bookkeeping, guarded by `Shard::gc`.
#[derive(Debug, Default)]
pub(crate) struct GcState {
    /// Operations appended but not yet covered by a force.
    pub pending: usize,
    /// Arrival time of the oldest pending operation (drives `max_delay`).
    pub oldest: Option<Instant>,
    /// Set once by shutdown/crash; the flusher honours it at the next
    /// wakeup.
    pub stop: Option<StopMode>,
}

/// One partition of the object space: an engine plus its commit pipeline.
pub(crate) struct Shard {
    /// Shard index (for diagnostics).
    pub index: usize,
    /// The engine, or `None` once crashed/shut down. `Option` lets
    /// `ShardedEngine::crash` *take* the engine even while outstanding
    /// [`CommitTicket`]s still hold `Arc<Shard>` clones. Take it through
    /// [`Shard::lock_engine`], which counts acquisitions — the proof that
    /// snapshot reads never touch this mutex.
    pub engine: Mutex<Option<Engine>>,
    /// Times the engine mutex was acquired (every call site goes through
    /// [`Shard::lock_engine`]).
    engine_locks: AtomicU64,
    /// MVCC version chains, seeded from the engine's state before
    /// construction; every later update publishes into them.
    pub(crate) versions: Arc<VersionStore>,
    /// Open snapshot SIs over those chains (the GC floor source).
    pub(crate) snapshots: Arc<SnapshotRegistry>,
    /// Group-commit state.
    pub gc: Mutex<GcState>,
    /// Wakes the flusher when pending work (or a stop request) appears.
    pub gc_cv: Condvar,
    /// Durable-LSN watermark: every LSN strictly below it is on stable
    /// storage.
    durable: Mutex<Lsn>,
    /// Wakes ticket waiters when the watermark advances (or on death).
    durable_cv: Condvar,
    /// Raised by crash: parked ticket waiters wake and report
    /// not-durable instead of hanging on a watermark that will never
    /// advance. Also latched *under the engine lock* the instant a force
    /// observes a torn/rotted write, so no later force (a barrier or a
    /// checkpoint) can touch the dead device afterwards and advance the
    /// WAL's tail guard over the rotted bytes — and when a checkpoint's
    /// store persist fails, so no later force carries its truncation and
    /// master to the log device.
    dead: AtomicBool,
    /// Backpressure epoch: bumped by the installer after every install so
    /// parked executors re-check the uninstalled window.
    bp_epoch: Mutex<u64>,
    /// Wakes executors parked on backpressure.
    bp_cv: Condvar,
    /// Wakes the shard's parked installer (new work / stop).
    pub signal: WorkSignal,
    /// Commit-pipeline counters.
    pub counters: ShardCounters,
    /// Fault-injection host consulted by the force barrier and the
    /// installer. `None` in production-shaped runs.
    pub faults: Option<Arc<FaultHost>>,
    /// Optional durability device pair (DESIGN §11): when attached, every
    /// force barrier stages the WAL tail on its log device *before* the
    /// watermark advances (DESIGN §12), and the checkpoint coordinator
    /// persists the shard's store + log to it incrementally after every
    /// checkpoint. Lock order: taken *after* `engine` (never the reverse).
    pub backend: Mutex<Option<llog_wal::DurabilityBackend>>,
}

impl Shard {
    /// Wrap `engine` as shard `index`. The watermark starts at the WAL's
    /// already-forced LSN so operations recovered from the log are born
    /// durable.
    ///
    /// `versions` are the engine's chains, already seeded from its state
    /// ([`Engine::enable_versions`]) — on the recovery path by the worker
    /// that recovered the shard, so nothing is seeded here.
    pub fn new(
        index: usize,
        engine: Engine,
        versions: Arc<VersionStore>,
        faults: Option<Arc<FaultHost>>,
    ) -> Shard {
        let forced = engine.wal().forced_lsn();
        Shard {
            index,
            engine: Mutex::new(Some(engine)),
            engine_locks: AtomicU64::new(0),
            versions,
            snapshots: SnapshotRegistry::new(),
            gc: Mutex::new(GcState::default()),
            gc_cv: Condvar::new(),
            durable: Mutex::new(forced),
            durable_cv: Condvar::new(),
            dead: AtomicBool::new(false),
            bp_epoch: Mutex::new(0),
            bp_cv: Condvar::new(),
            signal: WorkSignal::new(),
            counters: ShardCounters::default(),
            faults,
            backend: Mutex::new(None),
        }
    }

    /// Acquire the engine mutex, counting the acquisition. Every code path
    /// that touches the engine goes through here, so
    /// [`engine_lock_count`](Self::engine_lock_count) is a complete census
    /// — the assertion backing "snapshot reads never take the engine
    /// mutex".
    pub fn lock_engine(&self) -> MutexGuard<'_, Option<Engine>> {
        self.engine_locks.fetch_add(1, Ordering::Relaxed);
        #[cfg(test)]
        LOCKS_BY_THIS_THREAD.with(|n| n.set(n.get() + 1));
        lock(&self.engine)
    }

    /// How many times the engine mutex has been acquired.
    pub fn engine_lock_count(&self) -> u64 {
        self.engine_locks.load(Ordering::Relaxed)
    }

    /// Momentary snapshot read: resolve `x` at the durable watermark via
    /// the version chains — no engine mutex. The watermark is sampled
    /// under the chains read lock (see `VersionStore::read_coherent`), so
    /// the read can never race the retention GC.
    pub fn read_snapshot(&self, x: ObjectId) -> Value {
        self.versions.read_coherent(x, || self.durable_lsn()).0
    }

    /// Open a pinned snapshot at the current durable watermark. The SI is
    /// sampled while the registry lock is held, so a concurrent GC either
    /// sees the registration or computed its floor from an older (≤)
    /// durable value — never past this snapshot.
    pub fn open_snapshot(&self) -> Snapshot {
        self.snapshots
            .open(self.versions.clone(), || self.durable_lsn())
    }

    /// Reclaim versions below `min(oldest open snapshot, durable)` and
    /// return how many were dropped. Wired into the checkpoint coordinator
    /// so retention stays bounded without a dedicated GC thread.
    pub fn gc_versions(&self) -> u64 {
        let floor = self.snapshots.floor_with(|| self.durable_lsn());
        self.versions.gc(floor)
    }

    /// The current durable-LSN watermark.
    pub fn durable_lsn(&self) -> Lsn {
        *lock(&self.durable)
    }

    /// Block until the durable watermark covers `to`: `Some(true)` once
    /// covered, `Some(false)` if the shard died first, `None` on timeout
    /// (the caller may poll again). Read-your-writes sessions park here
    /// before serving a floor-constrained read; the wait rides the same
    /// condvar as [`CommitTicket::wait`](crate::CommitTicket::wait).
    pub fn wait_durable(&self, to: Lsn, timeout: Duration) -> Option<bool> {
        let start = Instant::now();
        let mut d = lock(&self.durable);
        while *d < to {
            if self.is_dead() {
                return Some(false);
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return None;
            }
            let (g, _) = self
                .durable_cv
                .wait_timeout(d, timeout - elapsed)
                .unwrap_or_else(PoisonError::into_inner);
            d = g;
        }
        Some(true)
    }

    /// Advance the watermark to `to` (monotonic) and wake ticket waiters.
    pub fn advance_durable(&self, to: Lsn) {
        let mut d = lock(&self.durable);
        if to > *d {
            *d = to;
            self.durable_cv.notify_all();
        }
    }

    /// Mark the shard dead (crashed) and wake everything that could be
    /// parked on it. Holding each lock while notifying makes the wakeups
    /// race-free against waiters between their check and their park.
    pub fn mark_dead(&self) {
        {
            let _d = lock(&self.durable);
            self.dead.store(true, Ordering::SeqCst);
            self.durable_cv.notify_all();
        }
        {
            let _e = lock(&self.bp_epoch);
            self.bp_cv.notify_all();
        }
    }

    /// Has the shard crashed?
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Latch device death without the full [`Shard::mark_dead`] wakeups —
    /// called **under the engine lock** the instant a force observes a
    /// torn/rotted write, so no concurrent force site can slip in before
    /// the shard is torn down and advance the WAL's tail guard over the
    /// rotted bytes. The caller follows up with
    /// [`Shard::request_stop`]`(Abandon)` once the lock is released.
    pub fn latch_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    /// Publish one settled [`ForceOutcome`] for this shard — the shared
    /// tail of every force site (each a rider of the scheduler's barrier):
    /// advance the watermark on success, kill the shard on a tear
    /// (acknowledging only the pre-fault prefix, so parked ticket waiters
    /// wake with `false`), report a retryable failure as `false`.
    pub fn settle_force(&self, outcome: ForceOutcome) -> bool {
        match outcome {
            ForceOutcome::Forced(lsn) => {
                self.advance_durable(lsn);
                true
            }
            ForceOutcome::Torn(lsn) => {
                // The device tore the write: the shard is crashed. The
                // watermark advances at most to the pre-fault durable
                // prefix — nothing torn is ever acknowledged.
                self.advance_durable(lsn);
                self.request_stop(StopMode::Abandon);
                false
            }
            ForceOutcome::Failed => false,
        }
    }

    /// Current backpressure epoch (snapshot before parking).
    pub fn bp_epoch(&self) -> u64 {
        *lock(&self.bp_epoch)
    }

    /// Bump the backpressure epoch: an install freed window space.
    pub fn note_installed(&self) {
        let mut e = lock(&self.bp_epoch);
        *e += 1;
        self.bp_cv.notify_all();
    }

    /// Park until the backpressure epoch moves past `seen`, the shard
    /// dies, or `timeout` elapses (the timeout bounds the worst case if
    /// installs race ahead of the epoch snapshot).
    pub fn wait_backpressure(&self, seen: u64, timeout: Duration) {
        let e = lock(&self.bp_epoch);
        if *e != seen || self.is_dead() {
            return;
        }
        let _unused = self
            .bp_cv
            .wait_timeout(e, timeout)
            .unwrap_or_else(PoisonError::into_inner);
    }

    /// Register one appended-but-unforced operation and wake the flusher.
    pub fn enqueue_commit(&self) {
        let mut gc = lock(&self.gc);
        gc.pending += 1;
        if gc.oldest.is_none() {
            gc.oldest = Some(Instant::now());
        }
        drop(gc);
        self.gc_cv.notify_all();
    }

    /// Ask the flusher (and installer) to exit.
    pub fn request_stop(&self, mode: StopMode) {
        {
            let mut gc = lock(&self.gc);
            // A crash must not be downgraded to a drain.
            if gc.stop != Some(StopMode::Abandon) {
                gc.stop = Some(mode);
            }
        }
        self.gc_cv.notify_all();
        self.signal.stop();
        if mode == StopMode::Abandon {
            self.mark_dead();
        }
    }
}

/// The per-shard log-flusher thread: batch force requests on a size/time
/// policy, ride the [`ForceScheduler`] barrier, then publish durability.
///
/// [`ForceScheduler`]: crate::scheduler::ForceScheduler
pub(crate) fn flusher_loop(
    shard: &Arc<Shard>,
    scheduler: &crate::scheduler::ForceScheduler,
    batch_ops: usize,
    max_delay: Duration,
) {
    let batch_ops = batch_ops.max(1);
    loop {
        // Phase 1: wait for a trigger (batch full, oldest op too old, or
        // stop).
        let batch = {
            let mut gc = lock(&shard.gc);
            loop {
                match gc.stop {
                    Some(StopMode::Abandon) => return,
                    Some(StopMode::Drain) if gc.pending == 0 => return,
                    Some(StopMode::Drain) => break,
                    None => {}
                }
                if gc.pending >= batch_ops {
                    break;
                }
                if gc.pending > 0 {
                    let waited = gc.oldest.map(|t| t.elapsed()).unwrap_or_default();
                    if waited >= max_delay {
                        break;
                    }
                    let (g, _) = shard
                        .gc_cv
                        .wait_timeout(gc, max_delay - waited)
                        .unwrap_or_else(PoisonError::into_inner);
                    gc = g;
                } else {
                    gc = shard.gc_cv.wait(gc).unwrap_or_else(PoisonError::into_inner);
                }
            }
            let n = gc.pending;
            gc.pending = 0;
            gc.oldest = None;
            n
        };

        // Phase 2: one force covers the whole batch (and anything that
        // slipped in after the pending count was captured — the force
        // writes the entire buffered tail, so over-coverage is safe). No
        // engine lock is held here — the barrier takes it per phase.
        let Some(outcome) = scheduler.force(shard) else {
            return; // crashed/torn down underneath us
        };

        // Phase 3: publish durability and account the batch.
        shard.settle_force(outcome);
        match outcome {
            ForceOutcome::Forced(_) => {
                let c = &shard.counters;
                c.batches.fetch_add(1, Ordering::Relaxed);
                c.batched_ops.fetch_add(batch as u64, Ordering::Relaxed);
                c.max_batch.fetch_max(batch as u64, Ordering::Relaxed);
            }
            // The device tore the batch mid-force: the shard is crashed
            // and nothing in the torn batch is ever acknowledged.
            ForceOutcome::Torn(_) => return,
            ForceOutcome::Failed => {
                // Transient I/O error: the buffer is intact, nothing was
                // acknowledged. Put the batch back and retry at the next
                // trigger.
                let mut gc = lock(&shard.gc);
                gc.pending += batch;
                if gc.oldest.is_none() {
                    gc.oldest = Some(Instant::now());
                }
                drop(gc);
                shard.gc_cv.notify_all();
            }
        }
    }
}

/// The per-shard background installer: drains the write graph above a
/// high-water mark, parks on the shard's [`WorkSignal`] when idle, and
/// bumps the backpressure epoch after every install.
pub(crate) fn installer_loop(shard: &Shard, high_water: usize) {
    let mut seen = shard.signal.epoch();
    loop {
        if shard.signal.is_stopped() {
            return;
        }
        let worked = {
            let mut g = shard.lock_engine();
            // A dead shard's devices accept no writes: once a force has
            // torn (death is latched under this lock), installing values
            // into the stable store would leave it ahead of the log's
            // recoverable prefix.
            if shard.is_dead() {
                return;
            }
            match g.as_mut() {
                None => return,
                Some(e) if e.uninstalled_count() > high_water => {
                    // An injected install fault models a stalled/failing
                    // store device: skip this round and park, exactly as a
                    // real installer would back off. Correctness must not
                    // depend on installs happening (redo covers them).
                    let stalled = shard
                        .faults
                        .as_deref()
                        .is_some_and(|h| h.on_install(failpoint::INSTALL));
                    if stalled {
                        false
                    } else {
                        e.install_one().unwrap_or(false)
                    }
                }
                Some(_) => false,
            }
        };
        if worked {
            shard.note_installed();
            continue;
        }
        let (epoch, stopped) = shard.signal.wait_past(seen);
        seen = epoch;
        if stopped {
            return;
        }
    }
}

/// Receipt for one executed operation; redeemable for durability.
///
/// The ticket is handed back by [`ShardedEngine::execute`] *before* the
/// operation is on stable storage (under [`CommitPolicy::Group`]). The
/// caller may:
///
/// - [`wait`](CommitTicket::wait) — block until the shard's flusher has
///   forced the operation's log record (group commit), or
/// - [`is_durable`](CommitTicket::is_durable) — poll the watermark, e.g.
///   to batch application-level acknowledgements.
///
/// Only a ticket whose target the durable watermark covers is
/// *acknowledged*; everything else may legitimately vanish in a crash.
///
/// [`ShardedEngine::execute`]: crate::ShardedEngine::execute
/// [`CommitPolicy::Group`]: crate::CommitPolicy::Group
pub struct CommitTicket {
    pub(crate) shard: Arc<Shard>,
    pub(crate) shard_index: usize,
    pub(crate) op: OpId,
    pub(crate) lsn: Lsn,
    pub(crate) target: Lsn,
}

impl CommitTicket {
    /// The executed operation's id.
    pub fn op(&self) -> OpId {
        self.op
    }

    /// The operation's log sequence number (its lSI).
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// The shard the operation ran on.
    pub fn shard(&self) -> usize {
        self.shard_index
    }

    /// The durability target: the operation is stable once the shard's
    /// durable watermark reaches this LSN.
    pub fn target(&self) -> Lsn {
        self.target
    }

    /// Is the operation on stable storage (covered by the watermark)?
    pub fn is_durable(&self) -> bool {
        self.shard.durable_lsn() >= self.target
    }

    /// Block until the operation is durable. Returns `true` once the
    /// watermark covers it, `false` if the shard crashed first — a
    /// `false` ticket was **never acknowledged** and makes no survival
    /// promise.
    pub fn wait(&self) -> bool {
        let start = Instant::now();
        let mut d = lock(&self.shard.durable);
        while *d < self.target {
            if self.shard.is_dead() {
                return false;
            }
            d = self
                .shard
                .durable_cv
                .wait(d)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(d);
        let c = &self.shard.counters;
        c.waits.fetch_add(1, Ordering::Relaxed);
        c.flush_wait_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        true
    }

    /// Like [`CommitTicket::wait`], but give up after `timeout`:
    /// `Some(true)` durable, `Some(false)` shard crashed, `None` timed out
    /// (the operation may still become durable later — poll again). Lets a
    /// server's response writer park on a ticket while staying responsive
    /// to its own shutdown flag.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<bool> {
        let start = Instant::now();
        let mut d = lock(&self.shard.durable);
        while *d < self.target {
            if self.shard.is_dead() {
                return Some(false);
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return None;
            }
            let (g, _) = self
                .shard
                .durable_cv
                .wait_timeout(d, timeout - elapsed)
                .unwrap_or_else(PoisonError::into_inner);
            d = g;
        }
        drop(d);
        let c = &self.shard.counters;
        c.waits.fetch_add(1, Ordering::Relaxed);
        c.flush_wait_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Some(true)
    }
}

impl std::fmt::Debug for CommitTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitTicket")
            .field("shard", &self.shard_index)
            .field("op", &self.op)
            .field("lsn", &self.lsn)
            .field("target", &self.target)
            .field("durable", &self.is_durable())
            .finish()
    }
}
