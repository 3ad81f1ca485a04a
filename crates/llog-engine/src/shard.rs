//! One shard: an engine, its background installer, and its durability
//! watermark.
//!
//! The durability protocol is group commit on demand. `execute` appends
//! the operation to the shard's WAL under the shard lock and records a
//! *durability target* — the WAL end LSN right after the append. A
//! [`CommitTicket`] waiter whose target the watermark has not reached asks
//! the [`ForceScheduler`](crate::scheduler::ForceScheduler) barrier for a
//! force and parks; the barrier advances the shard's durable-LSN watermark
//! to the LSN the log device reported durable and wakes every waiter whose
//! target it now covers. An operation is **acknowledged** exactly when its
//! ticket's target is at or below the watermark — and only acknowledged
//! operations are promised to survive a crash. An operation nobody waits
//! for becomes durable with the next barrier a waiter or the installer
//! asks for, or at a checkpoint.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use llog_core::shared::lock;
use llog_core::shared::WorkSignal;
use llog_core::snapshot::{Snapshot, SnapshotRegistry};
use llog_core::{Engine, InstallStep};
use llog_storage::VersionStore;
use llog_testkit::faults::{failpoint, FaultHost};
use llog_types::{Lsn, ObjectId, OpId, Value};

use crate::scheduler::ForceScheduler;
use crate::snapshot::ShardCounters;

#[cfg(test)]
thread_local! {
    /// Engine-mutex acquisitions made by the current thread, on any shard —
    /// a census that the installers and the force barrier cannot perturb.
    pub(crate) static LOCKS_BY_THIS_THREAD: std::cell::Cell<u64> =
        const { std::cell::Cell::new(0) };
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
    /// The force barrier this shard's waiters ask for forces.
    sched: Arc<ForceScheduler>,
    /// Group-commit operations appended since the last barrier swapped
    /// this shard's buffer; bumped under the engine lock, taken by the
    /// barrier's Phase A under the same lock.
    pub unforced_ops: AtomicU64,
    /// Durable-LSN watermark: every LSN strictly below it is on stable
    /// storage.
    durable: Mutex<Lsn>,
    /// Wakes ticket waiters when the watermark advances (or on death).
    durable_cv: Condvar,
    /// Raised by crash: parked ticket waiters wake and report
    /// not-durable instead of hanging on a watermark that will never
    /// advance. Also latched *under the engine lock* the instant a force
    /// observes a log-device error — a torn/rotted write, a rejected tail,
    /// a failed sync — so no later force (a barrier or a checkpoint) can
    /// touch the dead device afterwards, advance the WAL's tail guard over
    /// rotted bytes or ack bytes no sync covered — and when a checkpoint's
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
    /// Wrap `engine` as shard `index`, its watermark starting at `durable`:
    /// a primary's already-forced LSN, so operations recovered from the log
    /// are born durable; a standby's replayed end.
    ///
    /// `versions` are the engine's chains, already seeded from its state
    /// ([`Engine::enable_versions`]) — on the recovery path by the worker
    /// that recovered the shard, so nothing is seeded here.
    pub fn new(
        index: usize,
        engine: Engine,
        durable: Lsn,
        versions: Arc<VersionStore>,
        faults: Option<Arc<FaultHost>>,
        sched: Arc<ForceScheduler>,
    ) -> Shard {
        Shard {
            index,
            engine: Mutex::new(Some(engine)),
            engine_locks: AtomicU64::new(0),
            versions,
            snapshots: SnapshotRegistry::new(),
            sched,
            unforced_ops: AtomicU64::new(0),
            durable: Mutex::new(durable),
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

    /// Block until the durable watermark covers `to`, asking the force
    /// barrier for a force while it does not: `Some(true)` once covered,
    /// `Some(false)` if the shard died first, `None` once `timeout` (if
    /// any) elapsed. Every barrier ends in an ack or the shard's death (a
    /// log-device error kills the shard), so an untimed wait always
    /// returns. Ticket waits and read-your-writes sessions park here.
    pub fn wait_durable(self: &Arc<Self>, to: Lsn, timeout: Option<Duration>) -> Option<bool> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut d = lock(&self.durable);
        while *d < to {
            if self.is_dead() {
                return Some(false);
            }
            // Under the watermark lock: the barrier publishes under it, so
            // it cannot publish between this want and the park below.
            self.sched.want(self, to);
            let left = deadline.map(|at| at.saturating_duration_since(Instant::now()));
            d = match left {
                Some(left) if left.is_zero() => return None,
                Some(left) => {
                    let waited = self.durable_cv.wait_timeout(d, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
                None => self
                    .durable_cv
                    .wait(d)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
        Some(true)
    }

    /// Advance the watermark to `to` (monotonic) and wake ticket waiters
    /// and the installer.
    pub fn advance_durable(&self, to: Lsn) {
        let mut d = lock(&self.durable);
        if to > *d {
            *d = to;
            self.durable_cv.notify_all();
            self.signal.notify();
        }
    }

    /// Crash the shard: stop its installer, mark it dead and wake
    /// everything that could be parked on it. Holding each lock while
    /// notifying makes the wakeups race-free against waiters between their
    /// check and their park. Idempotent.
    pub fn kill(&self) {
        self.signal.stop();
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

    /// Latch device death without the full [`Shard::kill`] wakeups —
    /// called **under the engine lock** the instant a force observes a
    /// log-device error, so no concurrent force site can slip in before
    /// the shard is torn down and touch the dead device. The caller
    /// follows up with [`Shard::kill`] once the lock is released.
    pub fn latch_dead(&self) {
        self.dead.store(true, Ordering::SeqCst);
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
}

/// The per-shard background installer: drains the write graph above a
/// high-water mark, parks on the shard's [`WorkSignal`] when idle, and
/// bumps the backpressure epoch after every install. It installs only
/// below the watermark: when the next node is not durable yet it asks the
/// force barrier for a force and parks until the watermark moves or the
/// shard dies — a log-device error kills the shard, which stops it.
pub(crate) fn installer_loop(shard: &Arc<Shard>, high_water: usize) {
    let mut seen = shard.signal.epoch();
    while !shard.signal.is_stopped() {
        let step = {
            let mut g = shard.lock_engine();
            // A dead shard's watermark never moves again.
            if shard.is_dead() {
                return;
            }
            // An injected install fault models a stalled/failing store
            // device: skip this round and park, exactly as a real installer
            // would back off. Correctness must not depend on installs
            // happening (redo covers them).
            let stalled = || {
                let faults = shard.faults.as_deref();
                faults.is_some_and(|h| h.on_install(failpoint::INSTALL))
            };
            match g.as_mut() {
                None => return,
                Some(e) if e.uninstalled_count() > high_water && !stalled() => e
                    .install_one_below(shard.durable_lsn())
                    .unwrap_or(InstallStep::Idle),
                Some(_) => InstallStep::Idle,
            }
        };
        match step {
            InstallStep::Installed => {
                shard.note_installed();
                continue;
            }
            InstallStep::NeedsStable(lsn) => shard.sched.want(shard, lsn.advance(1)),
            InstallStep::Idle => {}
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
/// operation is on stable storage. The caller may:
///
/// - [`wait`](CommitTicket::wait) — ask the force barrier for a force and
///   block until it has made the operation's log record durable (group
///   commit: every ticket waiting on the same barrier shares it), or
/// - [`is_durable`](CommitTicket::is_durable) — poll the watermark
///   without asking for a force, e.g. to batch application-level
///   acknowledgements behind one waited ticket.
///
/// Only a ticket whose target the durable watermark covers is
/// *acknowledged*; everything else may legitimately vanish in a crash.
///
/// [`ShardedEngine::execute`]: crate::ShardedEngine::execute
pub struct CommitTicket {
    pub(crate) shard: Arc<Shard>,
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
        self.shard.index
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

    /// Block until the operation is durable, asking the force barrier for
    /// a force if it is not. Returns `true` once the watermark covers it,
    /// `false` if the shard died first — a `false` ticket was **never
    /// acknowledged** and makes no survival promise. Every barrier ends in
    /// an ack or the shard's death, so the wait always returns.
    pub fn wait(&self) -> bool {
        let start = Instant::now();
        let durable = self.shard.wait_durable(self.target, None) == Some(true);
        if durable {
            let c = &self.shard.counters;
            c.waits.fetch_add(1, Ordering::Relaxed);
            c.flush_wait_ns
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        durable
    }
}

impl std::fmt::Debug for CommitTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitTicket")
            .field("shard", &self.shard.index)
            .field("op", &self.op)
            .field("lsn", &self.lsn)
            .field("target", &self.target)
            .field("durable", &self.is_durable())
            .finish()
    }
}
