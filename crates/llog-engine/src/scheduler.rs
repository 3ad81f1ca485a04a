//! The force barrier: the one place a shard's log is forced (DESIGN §14).
//!
//! Every force in this crate — flusher batches, `Sync`-policy commits,
//! `force_shard`, `force_all`/`drain` — is a request to the
//! [`ForceScheduler`]. Under load those requests arrive within microseconds
//! of each other, so the scheduler gathers them for a bounded window and
//! covers all of them with one sync barrier instead of one device sync per
//! shard:
//!
//! 1. A force request enqueues and wakes the scheduler thread, which sleeps
//!    the gather window ([`GATHER_WINDOW`]) so concurrent shards can pile in.
//! 2. **Phase A** — per shard, under its engine lock: consult the flusher
//!    failpoint, [`Wal::begin_force_with`] (the double-buffer swap: the
//!    volatile buffer moves to the in-flight slot), and — when a backend is
//!    attached — stage the unsynced device write
//!    ([`DurabilityBackend::stage_wal`]), so an acknowledgement means "on
//!    the device" and a `SIGKILL` of the process loses nothing acknowledged
//!    (DESIGN §12).
//! 3. **Phase B** — *no engine locks held*: one shared sync barrier covers
//!    every staged device ([`DurabilityBackend::sync_log`]), accounted as a
//!    single `io_fsyncs`. New appends proceed into the now-empty WAL
//!    buffers meanwhile — the double-buffer overlap, measured into
//!    `double_buffer_overlap_ns`.
//! 4. **Phase C** — per shard, engine lock again:
//!    [`Wal::complete_force`] folds the in-flight slot into the stable
//!    prefix and the requester is handed its [`ForceOutcome`].
//!
//! The outcome contract: `Forced` carries the LSN a watermark may advance
//! to, `Torn` kills the shard with only the pre-fault durable prefix
//! acknowledged, `Failed` leaves everything intact for retry. A
//! barrier-sync failure ([`failpoint::SCHED_SYNC`]) or a device that rejects
//! the staged tail fails the rider — sound, because nothing staged was
//! acknowledged and the staged blobs are re-covered by the next barrier.
//!
//! [`Wal::begin_force_with`]: llog_wal::Wal::begin_force_with
//! [`Wal::complete_force`]: llog_wal::Wal::complete_force
//! [`DurabilityBackend::stage_wal`]: llog_wal::DurabilityBackend::stage_wal
//! [`DurabilityBackend::sync_log`]: llog_wal::DurabilityBackend::sync_log

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use llog_core::shared::lock;
use llog_storage::Metrics;
use llog_testkit::faults::{failpoint, ForceVerdict};
use llog_types::Lsn;
use llog_wal::{BeginForce, ForceOutcome};

use crate::shard::Shard;

/// Gather window: how long a barrier waits for concurrent shards to pile in.
const GATHER_WINDOW: Duration = Duration::from_micros(200);

/// How one force resolved. `None` means the shard was dead or its engine
/// gone (crashed/taken) before the barrier reached it.
pub(crate) type SchedResult = Option<ForceOutcome>;

/// One enqueued force request: the shard to force and the slot its outcome
/// lands in.
struct PendingReq {
    shard: Arc<Shard>,
    slot: Arc<ReqSlot>,
}

/// Parking slot for one requester.
#[derive(Default)]
struct ReqSlot {
    out: Mutex<Option<SchedResult>>,
    cv: Condvar,
}

impl ReqSlot {
    fn resolve(&self, result: SchedResult) {
        *lock(&self.out) = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> SchedResult {
        let mut out = lock(&self.out);
        loop {
            match out.take() {
                Some(r) => return r,
                None => out = self.cv.wait(out).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

#[derive(Default)]
struct SchedState {
    pending: Vec<PendingReq>,
    stop: bool,
}

/// What Phase A left behind for one rider.
enum Staged {
    /// Begun: the in-flight slot holds the batch; `device` says whether an
    /// unsynced device write is riding the barrier.
    Sync { target: Lsn, device: bool },
    /// Already resolved (fault verdict, dead/gone shard): nothing to sync or
    /// complete.
    Done(SchedResult),
}

/// The global force scheduler: a dedicated thread gathers force requests
/// from every shard for a bounded window and runs them through one shared
/// sync barrier. See the module docs for the three-phase protocol.
pub(crate) struct ForceScheduler {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl ForceScheduler {
    /// Create a scheduler and spawn its barrier thread.
    pub fn spawn() -> (Arc<ForceScheduler>, std::thread::JoinHandle<()>) {
        let sched = Arc::new(ForceScheduler {
            state: Mutex::new(SchedState::default()),
            cv: Condvar::new(),
        });
        let runner = sched.clone();
        let handle = std::thread::spawn(move || runner.run());
        (sched, handle)
    }

    /// Force `shard` through the next barrier; blocks until the barrier
    /// settles. Must be called with **no engine lock held** — the barrier
    /// takes each rider's engine lock itself.
    pub fn force(&self, shard: &Arc<Shard>) -> SchedResult {
        self.force_many(std::slice::from_ref(shard))
            .pop()
            .expect("one result per shard")
    }

    /// Force every shard in `shards` through **one** barrier: all requests
    /// are enqueued under a single lock take before any is waited on, so the
    /// barrier thread picks them up together. Results come back in `shards`
    /// order. Same locking rule as [`ForceScheduler::force`].
    pub fn force_many(&self, shards: &[Arc<Shard>]) -> Vec<SchedResult> {
        let slots: Vec<Arc<ReqSlot>> = shards.iter().map(|_| Arc::default()).collect();
        {
            let mut st = lock(&self.state);
            if st.stop {
                return vec![None; shards.len()];
            }
            for (shard, slot) in shards.iter().zip(&slots) {
                st.pending.push(PendingReq {
                    shard: shard.clone(),
                    slot: slot.clone(),
                });
            }
        }
        self.cv.notify_all();
        slots.iter().map(|slot| slot.wait()).collect()
    }

    /// Ask the barrier thread to exit. Requests already enqueued resolve
    /// (as `None` — their shards are being torn down); new requests are
    /// refused. Idempotent.
    pub fn stop(&self) {
        lock(&self.state).stop = true;
        self.cv.notify_all();
    }

    fn run(&self) {
        loop {
            {
                let mut st = lock(&self.state);
                loop {
                    if st.stop {
                        // Tear-down: wake anything still parked.
                        for req in st.pending.drain(..) {
                            req.slot.resolve(None);
                        }
                        return;
                    }
                    if !st.pending.is_empty() {
                        break;
                    }
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
            // Bounded gather window: near-simultaneous forces from other
            // shards coalesce into this barrier.
            std::thread::sleep(GATHER_WINDOW);
            let batch = std::mem::take(&mut lock(&self.state).pending);
            if !batch.is_empty() {
                self.run_barrier(batch);
            }
        }
    }

    /// One barrier over `batch`. Engine locks are held only
    /// per-shard in phases A and C, never across the sync in phase B.
    fn run_barrier(&self, batch: Vec<PendingReq>) {
        // Phase A: swap each rider's buffer into its in-flight slot and
        // stage the unsynced device write.
        let mut staged: Vec<Staged> = batch.iter().map(begin_one).collect();
        let riders = staged
            .iter()
            .filter(|s| matches!(s, Staged::Sync { .. }))
            .count();
        let devices = staged
            .iter()
            .filter(|s| matches!(s, Staged::Sync { device: true, .. }))
            .count();

        // Phase B: the shared barrier — no engine locks held, so appends on
        // every rider proceed into the now-empty WAL buffers while the
        // devices sync. This window is the double-buffer overlap.
        let overlap = Instant::now();
        let mut sync_ok = true;
        if riders > 0 {
            if let Some(h) = batch.iter().find_map(|req| req.shard.faults.as_deref()) {
                if h.on_sync(failpoint::SCHED_SYNC) {
                    sync_ok = false;
                }
            }
            if sync_ok && devices > 0 {
                for (req, s) in batch.iter().zip(&staged) {
                    if !matches!(s, Staged::Sync { device: true, .. }) {
                        continue;
                    }
                    if let Some(b) = lock(&req.shard.backend).as_mut() {
                        if b.sync_log().is_err() {
                            sync_ok = false;
                            break;
                        }
                    }
                }
            }
        }
        let overlap_ns = overlap.elapsed().as_nanos() as u64;

        // Phase C: fold each rider's in-flight slot into its stable prefix
        // and resolve the requester. Barrier-wide accounting lands on the
        // first rider's ledger (the per-shard ledgers are summed anyway).
        let mut accounted = false;
        for (req, s) in batch.iter().zip(staged.drain(..)) {
            let result = match s {
                Staged::Done(r) => r,
                Staged::Sync { target, .. } => {
                    let mut g = req.shard.lock_engine();
                    match g.as_mut() {
                        None => None,
                        Some(e) => {
                            e.wal_mut().complete_force();
                            if !accounted {
                                let m = e.metrics();
                                if batch.len() > 1 {
                                    Metrics::bump(&m.forces_coalesced, batch.len() as u64 - 1);
                                }
                                Metrics::bump(&m.double_buffer_overlap_ns, overlap_ns);
                                if sync_ok && devices > 0 {
                                    Metrics::bump(&m.io_fsyncs, 1);
                                }
                                accounted = true;
                            }
                            if sync_ok {
                                Some(ForceOutcome::Forced(e.wal().forced_lsn().max(target)))
                            } else {
                                // The barrier failed: the in-flight bytes
                                // folded back into the (in-memory) stable
                                // prefix but the watermark must not move —
                                // the next force re-stages the whole tail.
                                Some(ForceOutcome::Failed)
                            }
                        }
                    }
                }
            };
            req.slot.resolve(result);
        }
    }
}

/// Phase A for one rider, under its engine lock: consult
/// [`failpoint::FLUSHER_FORCE`] (a fault in the flusher itself, e.g. a
/// group-commit batch torn mid-force), then [`Wal::begin_force_with`], which
/// consults [`failpoint::WAL_FORCE`] (a fault in the device) — an armed fault
/// matches exactly one of the two — then stage the unsynced device write.
/// The only function in this crate that forces a shard's log.
///
/// [`Wal::begin_force_with`]: llog_wal::Wal::begin_force_with
fn begin_one(req: &PendingReq) -> Staged {
    let shard = &req.shard;
    let mut g = shard.lock_engine();
    let Some(e) = g.as_mut() else {
        return Staged::Done(None);
    };
    if shard.is_dead() {
        return Staged::Done(None);
    }
    let faults = shard.faults.as_deref();
    if let Some(h) = faults {
        let buffered = e.wal().buffer_len();
        if buffered > 0 {
            match h.on_force(failpoint::FLUSHER_FORCE, buffered) {
                ForceVerdict::Proceed => {}
                ForceVerdict::TearAt(n) => {
                    let durable = e.wal().forced_lsn();
                    e.wal_mut().crash_torn(n);
                    shard.latch_dead();
                    return Staged::Done(Some(ForceOutcome::Torn(durable)));
                }
                ForceVerdict::FlipBit(bit) => {
                    let durable = e.wal().forced_lsn();
                    e.wal_mut().force();
                    e.wal_mut().corrupt_stable_bit(durable, bit);
                    shard.latch_dead();
                    return Staged::Done(Some(ForceOutcome::Torn(durable)));
                }
                ForceVerdict::Fail => return Staged::Done(Some(ForceOutcome::Failed)),
            }
        }
    }
    match e.wal_mut().begin_force_with(faults) {
        BeginForce::Done(outcome) => {
            if matches!(outcome, ForceOutcome::Torn(_)) {
                // Latch death under the engine lock (see `Shard::dead`): no
                // other force site may touch the device after a tear.
                shard.latch_dead();
            }
            Staged::Done(Some(outcome))
        }
        BeginForce::Begun(target) => {
            // Engine→backend lock order, as everywhere.
            let device = match lock(&shard.backend).as_mut() {
                None => false,
                Some(b) => {
                    if b.stage_wal(e.wal(), faults).is_err() {
                        // The device rejected the tail: demote to a
                        // retryable failure — nothing is acknowledged on the
                        // strength of a force the device never saw. The
                        // in-flight bytes fold back into the stable prefix;
                        // a later force re-stages the whole tail.
                        e.wal_mut().complete_force();
                        return Staged::Done(Some(ForceOutcome::Failed));
                    }
                    true
                }
            };
            Staged::Sync { target, device }
        }
    }
}
