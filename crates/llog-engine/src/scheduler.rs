//! The force barrier: the only committer (DESIGN §14).
//!
//! Every force in this crate — a ticket waiter's or the installer's
//! demand, `force_shard`, `force_all`/`drain` — rides the
//! [`ForceScheduler`], and nothing forces on a timer:
//!
//! 1. **Demand.** A waiter short of its target *wants* its shard
//!    ([`ForceScheduler::want`]); an explicit force enqueues a request and
//!    parks on its reply. Either wakes the barrier thread, which takes
//!    everything queued as one barrier and runs barriers back to back while
//!    anything is queued — whatever is appended during one barrier's sync
//!    rides the next (self-clocking group commit).
//! 2. **Phase A** — per shard, under its engine lock: consult the rider
//!    failpoint, [`Wal::begin_force_with`] (the double-buffer swap: the
//!    volatile buffer moves to the in-flight slot), and — when a backend is
//!    attached — stage the unsynced device write
//!    ([`DurabilityBackend::stage_wal`]), keeping the durable end the log
//!    device reports for it.
//! 3. **Phase B** — *no engine locks held*: the shared sync barrier syncs
//!    every staged device ([`DurabilityBackend::sync_log`]), accounted as a
//!    single `io_fsyncs`. New appends proceed into the now-empty WAL
//!    buffers meanwhile — the double-buffer overlap, measured into
//!    `double_buffer_overlap_ns`.
//! 4. **Phase C** — per shard, engine lock again: for a rider whose sync
//!    succeeded, [`Wal::complete_force`] folds the in-flight slot into the
//!    stable prefix; the scheduler publishes the watermark Phase A staged
//!    (the log device's durable end; without a backend, the end of the
//!    swapped batch), never `forced_lsn()`, which a checkpoint's force
//!    moves in memory.
//!
//! A log-device error kills the shard, as a tear does: an I/O error at a
//! force failpoint or in staging, a rider's failed sync, a device that
//! keeps less than it was handed, or a [`failpoint::SCHED_SYNC`] fault,
//! which models the shared barrier itself failing and so kills every
//! rider. Death is latched under the engine lock; the watermark never
//! passes what the device synced before the fault, and the in-flight
//! batch stays volatile.
//! After a failed sync nothing in the process reads that device again
//! (PostgreSQL's rule since fsyncgate), so every barrier ends in an ack or
//! a death and no waiter ever retries.
//!
//! [`Wal::begin_force_with`]: llog_wal::Wal::begin_force_with
//! [`Wal::complete_force`]: llog_wal::Wal::complete_force
//! [`DurabilityBackend::stage_wal`]: llog_wal::DurabilityBackend::stage_wal
//! [`DurabilityBackend::sync_log`]: llog_wal::DurabilityBackend::sync_log

use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use llog_core::shared::lock;
use llog_storage::Metrics;
use llog_testkit::faults::{failpoint, ForceVerdict};
use llog_types::Lsn;
use llog_wal::{BeginForce, ForceOutcome};

use crate::shard::Shard;

/// How one force resolved. `None` means the shard is dead: it was dead or
/// its engine gone (crashed/taken) before the barrier reached it, or the
/// barrier killed it without a tear to report.
pub(crate) type SchedResult = Option<ForceOutcome>;

/// One queued ask for a barrier: an explicit force, whose caller parks on
/// the other end of `reply`, or a waiter's want of `shard` durable through
/// `want`. Dropping an unanswered `reply` resolves its caller as `None`.
struct Request {
    shard: Arc<Shard>,
    reply: Option<Sender<SchedResult>>,
    want: Lsn,
}

#[derive(Default)]
struct SchedState {
    queue: Vec<Request>,
    stop: bool,
}

/// One shard in a barrier, with the replies of every explicit force for it.
struct Rider {
    shard: Arc<Shard>,
    replies: Vec<Sender<SchedResult>>,
}

/// One rider per shard asked for. A want the previous barrier already
/// covered needs no ride.
fn gather(queue: Vec<Request>) -> Vec<Rider> {
    let mut riders: Vec<Rider> = Vec::new();
    for req in queue {
        if req.reply.is_none() && req.shard.durable_lsn() >= req.want {
            continue;
        }
        let home = riders
            .iter_mut()
            .find(|r| Arc::ptr_eq(&r.shard, &req.shard));
        match home {
            Some(rider) => rider.replies.extend(req.reply),
            None => riders.push(Rider {
                shard: req.shard,
                replies: req.reply.into_iter().collect(),
            }),
        }
    }
    riders
}

/// What Phase A left behind for one rider.
enum Staged {
    /// Begun: the in-flight slot holds the batch up to `target`; `device`
    /// is the durable end the log device reported for the staged write
    /// (`None` without a backend); `ops` counts the group-commit
    /// operations the batch covers.
    Sync {
        target: Lsn,
        device: Option<Lsn>,
        ops: u64,
    },
    /// Already resolved (fault verdict, dead/gone shard): nothing to sync or
    /// complete.
    Done(SchedResult),
}

/// The global force scheduler: a dedicated thread runs force barriers on
/// demand, each covering every shard asked for since the last one with one
/// shared sync. See the module docs for the protocol.
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

    /// Force every shard in `shards` through **one** barrier: all requests
    /// are enqueued under a single lock take before any is waited on, so the
    /// barrier thread picks them up together. Blocks until the barrier
    /// settles and has published every rider's watermark; results come back
    /// in `shards` order. Must be called with **no engine lock held** — the
    /// barrier takes each rider's engine lock itself.
    pub fn force_many(&self, shards: &[Arc<Shard>]) -> Vec<SchedResult> {
        let mut replies = Vec::with_capacity(shards.len());
        {
            let mut st = lock(&self.state);
            if st.stop {
                return vec![None; shards.len()];
            }
            for shard in shards {
                let (tx, rx) = channel();
                st.queue.push(Request {
                    shard: shard.clone(),
                    reply: Some(tx),
                    want: Lsn::ZERO,
                });
                replies.push(rx);
            }
        }
        self.cv.notify_all();
        replies.iter().map(|rx| rx.recv().ok().flatten()).collect()
    }

    /// A waiter needs `shard` durable through `target`: queue a want for
    /// the next barrier and wake the barrier thread. Returns at once; the
    /// waiter parks on the shard's watermark. Refused after
    /// [`ForceScheduler::stop`].
    pub fn want(&self, shard: &Arc<Shard>, target: Lsn) {
        let mut st = lock(&self.state);
        let queued = st
            .queue
            .iter()
            .any(|r| Arc::ptr_eq(&r.shard, shard) && r.reply.is_none() && r.want >= target);
        if st.stop || queued {
            return;
        }
        st.queue.push(Request {
            shard: shard.clone(),
            reply: None,
            want: target,
        });
        drop(st);
        self.cv.notify_all();
    }

    /// Ask the barrier thread to exit. Requests already enqueued resolve
    /// (as `None` — their shards are being torn down); new requests and
    /// wants are refused. Idempotent.
    pub fn stop(&self) {
        lock(&self.state).stop = true;
        self.cv.notify_all();
    }

    fn run(&self) {
        loop {
            let queue = {
                let mut st = lock(&self.state);
                while !st.stop && st.queue.is_empty() {
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                if st.stop {
                    // Tear-down: dropping the queue wakes anything parked.
                    st.queue.clear();
                    return;
                }
                std::mem::take(&mut st.queue)
            };
            self.run_barrier(gather(queue));
        }
    }

    /// One barrier over `riders`. Engine locks are held only per-shard in
    /// phases A and C, never across the sync in phase B.
    fn run_barrier(&self, riders: Vec<Rider>) {
        // Phase A: swap each rider's buffer into its in-flight slot and
        // stage the unsynced device write.
        let staged: Vec<Staged> = riders.iter().map(|r| begin_one(&r.shard)).collect();

        // Phase B: the shared barrier — no engine locks held, so appends on
        // every rider proceed into the now-empty WAL buffers while the
        // devices sync. This window is the double-buffer overlap. Every
        // staged device is synced even after one fails: only the rider
        // whose own sync failed dies.
        let overlap = Instant::now();
        let syncing = staged.iter().any(|s| matches!(s, Staged::Sync { .. }));
        let faults = riders.iter().find_map(|r| r.shard.faults.as_deref());
        let barrier_ok = !(syncing && faults.is_some_and(|h| h.on_sync(failpoint::SCHED_SYNC)));
        let mut devices = 0;
        let synced: Vec<bool> = riders
            .iter()
            .zip(&staged)
            .map(|(r, s)| match s {
                Staged::Sync {
                    device: Some(_), ..
                } if barrier_ok => {
                    devices += 1;
                    let mut backend = lock(&r.shard.backend);
                    backend.as_mut().is_some_and(|b| b.sync_log().is_ok())
                }
                _ => barrier_ok,
            })
            .collect();
        let overlap_ns = overlap.elapsed().as_nanos() as u64;

        // Phase C: fold each synced rider's in-flight slot into its stable
        // prefix, publish its watermark and resolve its requesters.
        // Barrier-wide accounting lands on the first acked rider's ledger
        // (the per-shard ledgers are summed anyway).
        let mut accounted = false;
        for ((r, s), synced) in riders.iter().zip(staged).zip(synced) {
            let shard = &r.shard;
            let (result, ops) = match s {
                Staged::Done(result) => (result, 0),
                Staged::Sync {
                    target,
                    device,
                    ops,
                } => {
                    let mut g = shard.lock_engine();
                    // A shard that died during the sync (a crash, or a
                    // checkpoint's failed persist) acknowledges nothing
                    // more, and a failed sync kills its shard: either way
                    // the in-flight batch stays volatile.
                    let live = g.as_mut().filter(|_| !shard.is_dead());
                    let result = match live {
                        Some(e) if synced => {
                            e.wal_mut().complete_force();
                            if !accounted {
                                let m = e.metrics();
                                Metrics::bump(&m.forces_coalesced, riders.len() as u64 - 1);
                                Metrics::bump(&m.double_buffer_overlap_ns, overlap_ns);
                                if devices > 0 {
                                    Metrics::bump(&m.io_fsyncs, 1);
                                }
                                accounted = true;
                            }
                            Some(match device {
                                None => ForceOutcome::Forced(target),
                                Some(end) if end >= target => ForceOutcome::Forced(end),
                                Some(end) => {
                                    // The device kept less than it was
                                    // handed: latch death under the engine
                                    // lock, as a torn force does.
                                    shard.latch_dead();
                                    ForceOutcome::Torn(end)
                                }
                            })
                        }
                        _ => {
                            shard.latch_dead();
                            None
                        }
                    };
                    (result, ops)
                }
            };
            match result {
                Some(ForceOutcome::Forced(lsn)) => {
                    // Counted before the publish wakes the batch's waiters.
                    if ops > 0 {
                        let c = &shard.counters;
                        c.batches.fetch_add(1, Ordering::Relaxed);
                        c.batched_ops.fetch_add(ops, Ordering::Relaxed);
                        c.max_batch.fetch_max(ops, Ordering::Relaxed);
                    }
                    shard.advance_durable(lsn);
                }
                dead => {
                    // The shard is dead. A tear advances the watermark at
                    // most to the durable prefix the device reported;
                    // nothing torn or unsynced is ever acknowledged.
                    if let Some(ForceOutcome::Torn(lsn)) = dead {
                        shard.advance_durable(lsn);
                    }
                    shard.kill();
                }
            }
            for reply in &r.replies {
                let _ = reply.send(result);
            }
        }
    }
}

/// Phase A for one rider, under its engine lock: consult
/// [`failpoint::FLUSHER_FORCE`] (a fault in the barrier itself, e.g. a
/// group-commit batch torn mid-force), then [`Wal::begin_force_with`], which
/// consults [`failpoint::WAL_FORCE`] (a fault in the device) — an armed fault
/// matches exactly one of the two — then stage the unsynced device write.
/// Any fault verdict, and a device that rejects the tail, latches the shard
/// dead under the engine lock. The only function in this crate that forces
/// a shard's log.
///
/// [`Wal::begin_force_with`]: llog_wal::Wal::begin_force_with
fn begin_one(shard: &Shard) -> Staged {
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
                ForceVerdict::Fail => {
                    shard.latch_dead();
                    return Staged::Done(None);
                }
            }
        }
    }
    match e.wal_mut().begin_force_with(faults) {
        BeginForce::Done(outcome) => {
            // Latch death under the engine lock (see `Shard::dead`): no
            // other force site may touch the device after a fault. Only a
            // tear reports a durable prefix to publish.
            shard.latch_dead();
            let torn = matches!(outcome, ForceOutcome::Torn(_));
            Staged::Done(torn.then_some(outcome))
        }
        BeginForce::Begun(target) => {
            // Engine→backend lock order, as everywhere.
            let device = match lock(&shard.backend).as_mut() {
                None => None,
                Some(b) => match b.stage_wal(e.wal(), faults) {
                    Ok(end) => Some(end),
                    Err(_) => {
                        // The device rejected the tail: the shard dies with
                        // the in-flight batch volatile — nothing is
                        // acknowledged on a force the device never saw.
                        shard.latch_dead();
                        return Staged::Done(None);
                    }
                },
            };
            Staged::Sync {
                target,
                device,
                ops: shard.unforced_ops.swap(0, Ordering::Relaxed),
            }
        }
    }
}
