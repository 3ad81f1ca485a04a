//! The sharded engine: N hash-partitioned recovery engines behind one
//! handle, committed through one on-demand force barrier.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use llog_core::shared::{lock, WorkSignal};
use llog_core::snapshot::Snapshot;
use llog_core::{recover, Engine, EngineConfig, InstallStep, RecoveryOutcome, RedoPolicy};
use llog_ops::{OpKind, Transform, TransformRegistry};
use llog_storage::{Metrics, MetricsSnapshot, StableStore, VersionStore};
use llog_testkit::faults::FaultHost;
use llog_types::{LlogError, Lsn, ObjectId, Result, Value};
use llog_wal::{DurabilityBackend, ForceOutcome, Wal};

use crate::router::ShardRouter;
use crate::scheduler::ForceScheduler;
use crate::shard::{installer_loop, CommitTicket, Shard};
use crate::snapshot::{GroupCommitSnapshot, ShardedSnapshot};

/// Configuration for a [`ShardedEngine`]. Every shard is built and
/// recovered with [`EngineConfig::default()`]: the paper's strawmen
/// (`GraphKind::W`, flush transactions, shadows) stay at the core
/// [`Engine`] boundary.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Number of shards (independent engines + WALs).
    pub shards: usize,
    /// Backpressure: `execute` parks while a shard holds this many
    /// uninstalled operations (0 = unbounded). Bounds write-graph growth
    /// and post-crash redo work.
    pub max_uninstalled: usize,
    /// The per-shard background installer drains the write graph once it
    /// exceeds this many uninstalled operations.
    pub install_high_water: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            max_uninstalled: 1024,
            install_high_water: 64,
        }
    }
}

/// A consistent attach image for one shard, captured by
/// [`ShardedEngine::ship_manifest`]: everything a replica needs to start
/// a [`llog_core::RedoSession`] over shipped log bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipManifest {
    /// The shard's stable store as one standalone store image
    /// ([`llog_storage::device::encode_image`], the device's delta layout).
    pub store: Vec<u8>,
    /// The shard log's base address (start of the retained log).
    pub base: Lsn,
    /// The durable cut at capture time: the end of the last complete,
    /// valid stable frame. Every effect the store image may reflect lies
    /// below it.
    pub durable: Lsn,
    /// The shard's master checkpoint pointer, if any.
    pub master: Option<Lsn>,
}

/// N hash-partitioned [`Engine`]s behind one handle: shard-local
/// execution, group commit on demand, backpressure, parallel crash and
/// recovery. See the crate docs for the full picture.
///
/// The handle is not `Clone`; share it across threads by reference
/// (`std::thread::scope`) — every method takes `&self` except the
/// consuming `crash`/`shutdown`.
pub struct ShardedEngine {
    config: ShardedConfig,
    router: ShardRouter,
    shards: Vec<Arc<Shard>>,
    /// Installers + checkpointer, joined on halt.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Round-robin cursor for the checkpoint coordinator.
    rr: Arc<AtomicUsize>,
    /// Stops the checkpoint coordinator.
    ctl: Arc<WorkSignal>,
    /// The force barrier every force in this engine rides.
    scheduler: Arc<ForceScheduler>,
    /// The scheduler's barrier thread, joined last on halt.
    sched_thread: Mutex<Option<JoinHandle<()>>>,
}

impl ShardedEngine {
    /// Create `config.shards` fresh engines (empty stores, empty logs).
    pub fn new(config: ShardedConfig, registry: &TransformRegistry) -> ShardedEngine {
        ShardedEngine::new_with_faults(config, registry, None)
    }

    /// [`ShardedEngine::new`] with a fault-injection host wired into every
    /// shard's force barrier and installer. Arm a fault on
    /// the host ([`FaultHost::arm`]) and the next matching failpoint
    /// consultation fires it — e.g. a group-commit batch torn mid-force.
    pub fn new_with_faults(
        config: ShardedConfig,
        registry: &TransformRegistry,
        faults: Option<Arc<FaultHost>>,
    ) -> ShardedEngine {
        assert!(config.shards >= 1, "need at least one shard");
        let engines = (0..config.shards)
            .map(|_| Engine::new(EngineConfig::default(), registry.clone()))
            .collect();
        ShardedEngine::from_engines_with_faults(config, engines, faults)
    }

    /// Wrap existing engines (the recovery path); `engines.len()`
    /// overrides `config.shards`.
    pub fn from_engines(config: ShardedConfig, engines: Vec<Engine>) -> ShardedEngine {
        ShardedEngine::from_engines_with_faults(config, engines, None)
    }

    /// [`ShardedEngine::from_engines`] with a fault-injection host (see
    /// [`ShardedEngine::new_with_faults`]). Each engine's version chains
    /// are seeded from its current state ([`Engine::enable_versions`]).
    pub fn from_engines_with_faults(
        config: ShardedConfig,
        engines: Vec<Engine>,
        faults: Option<Arc<FaultHost>>,
    ) -> ShardedEngine {
        let seeded = engines
            .into_iter()
            .map(|mut e| {
                let versions = e.enable_versions();
                (e, versions)
            })
            .collect();
        ShardedEngine::from_seeded(config, seeded, faults)
    }

    /// Wrap engines whose version chains are already seeded — recovery
    /// seeds each shard inside its worker pool, so nothing is seeded here.
    fn from_seeded(
        mut config: ShardedConfig,
        seeded: Vec<(Engine, Arc<VersionStore>)>,
        faults: Option<Arc<FaultHost>>,
    ) -> ShardedEngine {
        assert!(!seeded.is_empty(), "need at least one shard");
        config.shards = seeded.len();
        let (scheduler, sched_thread) = ForceScheduler::spawn();
        let shards: Vec<Arc<Shard>> = seeded
            .into_iter()
            .enumerate()
            .map(|(i, (e, v))| Arc::new(Shard::new(i, e, v, faults.clone(), scheduler.clone())))
            .collect();
        let mut threads = Vec::new();
        for shard in &shards {
            let s = shard.clone();
            let high_water = config.install_high_water;
            threads.push(std::thread::spawn(move || {
                installer_loop(&s, high_water);
            }));
        }
        ShardedEngine {
            config,
            router: ShardRouter::new(shards.len()),
            shards,
            threads: Mutex::new(threads),
            rr: Arc::new(AtomicUsize::new(0)),
            ctl: Arc::new(WorkSignal::new()),
            scheduler,
            sched_thread: Mutex::new(Some(sched_thread)),
        }
    }

    /// The engine's configuration (with `shards` reflecting reality).
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// The object→shard router.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Execute one shard-local operation.
    ///
    /// Routes by the operation's read/write sets (cross-shard sets are
    /// rejected — see [`ShardRouter::shard_of_op`]), applies backpressure
    /// if the shard's uninstalled window is full and runs the operation
    /// under the shard lock. The returned [`CommitTicket`] says when (and
    /// whether) the operation became durable; waiting on it asks the force
    /// barrier for a force, which many commits share.
    pub fn execute(
        &self,
        kind: OpKind,
        reads: Vec<ObjectId>,
        writes: Vec<ObjectId>,
        transform: Transform,
    ) -> Result<CommitTicket> {
        let idx = self.router.shard_of_op(&reads, &writes)?;
        let shard = &self.shards[idx];

        // Backpressure: park while the uninstalled window is full. The
        // installer bumps the shard's epoch after every install; the
        // timeout bounds the wait if an install raced the snapshot.
        let mut guard = loop {
            let g = shard.lock_engine();
            // A shard whose device died mid-force (torn/rotted write)
            // rejects work even while its engine is still being collected.
            if shard.is_dead() {
                return Err(LlogError::CacheProtocol(format!("shard {idx} has crashed")));
            }
            let under = match g.as_ref() {
                None => return Err(LlogError::CacheProtocol(format!("shard {idx} has crashed"))),
                Some(e) => {
                    self.config.max_uninstalled == 0
                        || e.uninstalled_count() < self.config.max_uninstalled
                }
            };
            if under {
                break g;
            }
            shard
                .counters
                .backpressure_waits
                .fetch_add(1, Ordering::Relaxed);
            let seen = shard.bp_epoch();
            drop(g);
            shard.signal.notify(); // make sure the installer is awake
            shard.wait_backpressure(seen, Duration::from_millis(1));
        };

        let (op, lsn, target) = {
            let e = guard.as_mut().expect("presence checked above");
            let (op, lsn) = e.execute(kind, reads, writes, transform)?;
            (op, lsn, e.wal().end_lsn())
        };
        // Counted under the engine lock, where the barrier takes it.
        shard.unforced_ops.fetch_add(1, Ordering::Relaxed);
        // The force barrier takes the engine lock itself, per phase.
        drop(guard);
        shard.signal.notify(); // new uninstalled work for the installer

        Ok(CommitTicket {
            shard: shard.clone(),
            op,
            lsn,
            target,
        })
    }

    /// The owning shard's current view of object `x`, read under the
    /// engine mutex — sees uncommitted (not-yet-durable) state and
    /// contends with writers, the force barrier and the installer. Prefer
    /// [`read_value_snapshot`](Self::read_value_snapshot) for read-mostly
    /// traffic.
    pub fn read_value(&self, x: ObjectId) -> Result<Value> {
        let idx = self.router.shard_of(x);
        let mut g = self.shards[idx].lock_engine();
        match g.as_mut() {
            Some(e) => Ok(e.read_value(x)),
            None => Err(LlogError::CacheProtocol(format!("shard {idx} has crashed"))),
        }
    }

    /// Read `x` at the owning shard's durable watermark via its MVCC
    /// version chains — **no engine mutex**, so the read runs concurrently
    /// with writers, group-commit forces and installs. Observes only
    /// acknowledged (durable) state; a just-executed, not-yet-forced write
    /// is invisible until a barrier forces it.
    pub fn read_value_snapshot(&self, x: ObjectId) -> Result<Value> {
        let idx = self.router.shard_of(x);
        let shard = &self.shards[idx];
        if shard.is_dead() {
            return Err(LlogError::CacheProtocol(format!("shard {idx} has crashed")));
        }
        Ok(shard.read_snapshot(x))
    }

    /// Read `x` no older than `floor`: wait (bounded by `timeout`, asking
    /// the force barrier for a force) until the owning shard's durable
    /// watermark covers `floor`, then read at
    /// the watermark. This is the read-your-writes primitive behind server
    /// sessions — a client that was acked a Put at LSN `floor` never sees
    /// an older value, even through a reconnect. A floor of [`Lsn::ZERO`]
    /// degenerates to [`read_value_snapshot`](Self::read_value_snapshot).
    pub fn read_value_snapshot_at_least(
        &self,
        x: ObjectId,
        floor: Lsn,
        timeout: Duration,
    ) -> Result<Value> {
        let idx = self.router.shard_of(x);
        let shard = &self.shards[idx];
        if floor > Lsn::ZERO {
            match shard.wait_durable(floor, Some(timeout)) {
                Some(true) => {}
                Some(false) => {
                    return Err(LlogError::CacheProtocol(format!("shard {idx} has crashed")))
                }
                None => {
                    return Err(LlogError::CacheProtocol(format!(
                        "shard {idx} did not reach session floor {floor} within {timeout:?}"
                    )))
                }
            }
        }
        self.read_value_snapshot(x)
    }

    /// Open a pinned snapshot of shard `i` at its current durable
    /// watermark: a consistent cut that later writes and the retention GC
    /// cannot disturb. Returns an error when the shard has crashed.
    pub fn open_snapshot(&self, i: usize) -> Result<Snapshot> {
        let shard = &self.shards[i];
        if shard.is_dead() {
            return Err(LlogError::CacheProtocol(format!("shard {i} has crashed")));
        }
        Ok(shard.open_snapshot())
    }

    /// Open a pinned snapshot of the shard owning `x` (see
    /// [`open_snapshot`](Self::open_snapshot)).
    pub fn open_snapshot_for(&self, x: ObjectId) -> Result<Snapshot> {
        self.open_snapshot(self.router.shard_of(x))
    }

    /// Total acquisitions of every shard's engine mutex — the census
    /// behind "snapshot reads never take the engine lock".
    pub fn engine_lock_count(&self) -> u64 {
        self.shards.iter().map(|s| s.engine_lock_count()).sum()
    }

    /// Run the version-retention GC on every shard (floor = min(oldest
    /// open snapshot, durable)); returns total versions reclaimed. The
    /// checkpoint coordinator already does this per shard — this is for
    /// tests and explicit maintenance.
    pub fn gc_versions(&self) -> u64 {
        self.shards.iter().map(|s| s.gc_versions()).sum()
    }

    /// Force shard `i`'s WAL and advance its watermark.
    pub fn force_shard(&self, i: usize) -> Result<()> {
        self.force_shards(&self.shards[i..=i])
    }

    /// Force every shard's WAL (makes everything executed so far
    /// durable). Every shard is enqueued before any is waited on, so the
    /// whole engine rides **one** barrier — and a dead shard does not keep
    /// the live ones from being forced.
    pub fn force_all(&self) -> Result<()> {
        self.force_shards(&self.shards)
    }

    /// One barrier over `shards` (which publishes every rider's
    /// watermark); the first failure, if any, is reported.
    fn force_shards(&self, shards: &[Arc<Shard>]) -> Result<()> {
        let results = self.scheduler.force_many(shards);
        match shards
            .iter()
            .zip(results)
            .find(|(_, result)| !matches!(result, Some(ForceOutcome::Forced(_))))
        {
            None => Ok(()),
            Some((shard, _)) => Err(LlogError::CacheProtocol(format!(
                "shard {} has crashed",
                shard.index
            ))),
        }
    }

    /// Drain the commit pipeline without tearing the engine down: force
    /// every live shard so all outstanding [`CommitTicket`]s resolve (their
    /// waiters wake durable), leaving the engine fully usable. A server's
    /// graceful shutdown calls this after it stops accepting work and
    /// before it joins its connection threads — every response written
    /// after the drain reflects a durable operation.
    pub fn drain(&self) -> Result<()> {
        self.force_all()
    }

    /// Shard `i`'s durable-LSN watermark.
    pub fn durable_lsn(&self, i: usize) -> Lsn {
        self.shards[i].durable_lsn()
    }

    /// Total uninstalled operations across all shards.
    pub fn uninstalled_total(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock_engine()
                    .as_ref()
                    .map(|e| e.uninstalled_count())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Install every shard's write graph as far as its durable watermark
    /// allows; [`force_all`](Self::force_all) first to install everything
    /// executed so far. An identity write the installs log themselves is
    /// waited for: the flush it enables needs it durable first.
    pub fn install_all(&self) -> Result<()> {
        for s in &self.shards {
            loop {
                let mut g = s.lock_engine();
                let Some(e) = g.as_mut() else { break };
                let end = e.wal().end_lsn();
                let step = loop {
                    match e.install_one_below(s.durable_lsn())? {
                        InstallStep::Installed => {}
                        step => break step,
                    }
                };
                drop(g);
                match step {
                    InstallStep::NeedsStable(lsn)
                        if lsn >= end && s.wait_durable(lsn.advance(1), None) == Some(true) => {}
                    _ => break,
                }
            }
            s.note_installed();
        }
        Ok(())
    }

    /// Checkpoint shard `i` (optionally truncating its log) and advance
    /// its watermark over the checkpoint's force.
    pub fn checkpoint_shard(&self, i: usize, truncate: bool) -> Result<Lsn> {
        checkpoint_one(&self.shards[i], truncate)
    }

    /// Round-robin checkpoint: checkpoint-and-truncate the next shard in
    /// turn. Returns `(shard, checkpoint_lsn)`.
    pub fn checkpoint_next(&self) -> Result<(usize, Lsn)> {
        let i = self.rr.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        Ok((i, self.checkpoint_shard(i, true)?))
    }

    /// Checkpoint every shard (optionally truncating the logs).
    pub fn checkpoint_all(&self, truncate: bool) -> Result<Vec<Lsn>> {
        (0..self.shards.len())
            .map(|i| self.checkpoint_shard(i, truncate))
            .collect()
    }

    /// Attach a durability backend to shard `i`: from now on, every force
    /// of that shard stages its WAL tail on the log device before the
    /// durable watermark advances — an acknowledged operation is on the
    /// device, so a `SIGKILL` of the whole process loses nothing
    /// acknowledged (DESIGN §12) — and every checkpoint also persists its
    /// store + log to the device pair, incrementally (O(dirty) store
    /// deltas, tail-only log appends, whole-segment truncation reclaim).
    pub fn attach_backend(&self, i: usize, backend: DurabilityBackend) {
        *lock(&self.shards[i].backend) = Some(backend);
    }

    /// Attach one backend per shard. Panics unless `backends.len()`
    /// equals the shard count.
    pub fn attach_backends(&self, backends: Vec<DurabilityBackend>) {
        assert_eq!(
            backends.len(),
            self.shards.len(),
            "one backend per shard required"
        );
        for (i, b) in backends.into_iter().enumerate() {
            self.attach_backend(i, b);
        }
    }

    /// Detach and return every shard's backend (device state survives a
    /// [`ShardedEngine::crash`]; this is the reboot-from-device path —
    /// see [`recover_sharded_from_backends`]).
    pub fn take_backends(&self) -> Vec<Option<DurabilityBackend>> {
        self.shards
            .iter()
            .map(|s| lock(&s.backend).take())
            .collect()
    }

    /// Persist every live shard's `(store, forced log)` to its attached
    /// backend without writing a new checkpoint record. Shards without a
    /// backend (or already crashed) are skipped.
    pub fn persist_all(&self) -> Result<()> {
        for s in &self.shards {
            let g = s.lock_engine();
            let Some(e) = g.as_ref() else { continue };
            if s.is_dead() {
                continue;
            }
            if let Some(b) = lock(&s.backend).as_mut() {
                b.persist(e.store(), e.wal(), s.faults.as_deref())?;
            }
        }
        Ok(())
    }

    /// Capture a consistent attach image of shard `i` for a new replica:
    /// the stable store's image plus the log addresses a
    /// [`llog_core::RedoSession`] needs to start replaying. Taken under
    /// the shard lock, so the store image, log base and durable cut are
    /// one instant of the shard — every record the image may reflect lies
    /// below `durable`, which is what makes the replica's blind replay of
    /// later records sound. The cut is at most the shard's watermark.
    pub fn ship_manifest(&self, i: usize) -> Result<ShipManifest> {
        let s = &self.shards[i];
        let g = s.lock_engine();
        let Some(e) = g.as_ref() else {
            return Err(LlogError::CacheProtocol(format!("shard {i} has crashed")));
        };
        Ok(ShipManifest {
            store: llog_storage::device::encode_image(e.store().iter()),
            base: e.wal().start_lsn(),
            durable: e.wal().durable_end().min(s.durable_lsn()),
            master: e.wal().master_checkpoint(),
        })
    }

    /// Ship up to `max` stable log bytes of shard `i` starting at `from`,
    /// clamped to the durable cut (the end of the last complete, valid
    /// frame — bytes past a torn force are never shipped — and at most the
    /// shard's watermark, what the log device synced). Returns the
    /// chunk and the durable cut. `from` is a raw byte cursor, not a
    /// frame boundary — after a chunk clamped at `max` it lands
    /// mid-frame, so the cut comes from the WAL's own frame walk
    /// ([`llog_wal::Wal::durable_end`]), never from `from`. `from` below
    /// the log base (the replica fell behind a checkpoint truncation) is
    /// an `LsnOutOfRange` error: the replica must re-attach from a fresh
    /// manifest.
    pub fn ship_chunk(&self, i: usize, from: Lsn, max: usize) -> Result<(Vec<u8>, Lsn)> {
        let s = &self.shards[i];
        let g = s.lock_engine();
        let Some(e) = g.as_ref() else {
            return Err(LlogError::CacheProtocol(format!("shard {i} has crashed")));
        };
        let durable = e.wal().durable_end().min(s.durable_lsn());
        let allowed = (durable.0.saturating_sub(from.0)) as usize;
        let bytes = e.wal().ship_tail(from, max.min(allowed))?.to_vec();
        if !bytes.is_empty() {
            let m = e.metrics();
            Metrics::bump(&m.repl_segments_shipped, 1);
            Metrics::bump(&m.repl_bytes_shipped, bytes.len() as u64);
        }
        Ok((bytes, durable))
    }

    /// Record a replica's replayed-LSN watermark report for shard `i`:
    /// updates the `repl_watermark_lsn` gauge and recomputes
    /// `repl_replay_lag_frames` (complete frames between the watermark and
    /// the shard's stable end).
    pub fn note_replica_watermark(&self, i: usize, lsn: Lsn) -> Result<()> {
        let s = &self.shards[i];
        let g = s.lock_engine();
        let Some(e) = g.as_ref() else {
            return Err(LlogError::CacheProtocol(format!("shard {i} has crashed")));
        };
        let m = e.metrics();
        Metrics::set_gauge(&m.repl_watermark_lsn, lsn.0);
        // A watermark below the log base means the replica fell behind a
        // checkpoint truncation — the worst lag, not the best. Clamp to
        // the base so the gauge reports the whole retained backlog
        // instead of reading zero exactly when the replica must
        // re-attach.
        let lag_from = lsn.max(e.wal().start_lsn());
        Metrics::set_gauge(&m.repl_replay_lag_frames, e.wal().frames_from(lag_from));
        Ok(())
    }

    /// Spawn the checkpoint coordinator: every `interval` it checkpoints
    /// one shard round-robin and truncates that shard's log, bounding
    /// both log length and recovery's redo scan. Stops at
    /// `crash`/`shutdown`.
    pub fn spawn_checkpointer(&self, interval: Duration) {
        let shards = self.shards.clone();
        let rr = self.rr.clone();
        let ctl = self.ctl.clone();
        let handle = std::thread::spawn(move || {
            let mut seen = ctl.epoch();
            loop {
                let (epoch, stopped) = ctl.wait_past_timeout(seen, interval);
                seen = epoch;
                if stopped {
                    return;
                }
                let i = rr.fetch_add(1, Ordering::Relaxed) % shards.len();
                if checkpoint_one(&shards[i], true).is_err() {
                    return; // shard crashed: coordinator retires
                }
            }
        });
        lock(&self.threads).push(handle);
    }

    /// Aggregated accounting: per-shard [`MetricsSnapshot`]s, their sum,
    /// and the group-commit pipeline counters.
    pub fn metrics_snapshot(&self) -> ShardedSnapshot {
        let per_shard: Vec<MetricsSnapshot> = self
            .shards
            .iter()
            .map(|s| {
                s.lock_engine()
                    .as_ref()
                    .map(|e| e.metrics().snapshot())
                    .unwrap_or_default()
            })
            .collect();
        let aggregate = per_shard
            .iter()
            .fold(MetricsSnapshot::default(), |acc, m| acc.merged(m));
        let group_commit = self
            .shards
            .iter()
            .fold(GroupCommitSnapshot::default(), |acc, s| {
                acc.merged(&s.counters.snapshot())
            });
        ShardedSnapshot {
            shards: self.shards.len(),
            aggregate,
            group_commit,
            per_shard,
        }
    }

    /// Kill every shard — nothing unforced is forced, and parked waiters
    /// wake — then stop and join every background thread. Idempotent.
    fn halt(&self) {
        self.ctl.stop();
        for s in &self.shards {
            s.kill();
        }
        let handles: Vec<JoinHandle<()>> = lock(&self.threads).drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        self.scheduler.stop();
        if let Some(t) = lock(&self.sched_thread).take() {
            let _ = t.join();
        }
    }

    /// Crash every shard simultaneously: background threads are abandoned
    /// (operations no barrier carried are **not** forced — exactly what a
    /// power failure does to unacknowledged operations) and each shard's
    /// surviving `(store, wal)` parts are extracted, in shard order.
    /// Outstanding [`CommitTicket`]s remain valid for `is_durable`
    /// queries; parked `wait`ers wake and report `false`.
    pub fn crash(self) -> Vec<(StableStore, Wal)> {
        self.halt();
        self.take_engines().into_iter().map(Engine::crash).collect()
    }

    /// Crash with torn log tails: shard `i` loses its unforced buffer
    /// except the first `partials[i % partials.len()]` bytes (an empty
    /// slice means clean tails everywhere).
    ///
    /// A shard whose device already died mid-force (torn/rotted write —
    /// see [`Shard::dead`]'s latch) crashes *clean* instead: a dead device
    /// cannot be mid-way through writing a final fragment, and a torn
    /// append here would promote the WAL's tail guard past the earlier
    /// fault's never-acknowledged bytes.
    pub fn crash_torn(self, partials: &[usize]) -> Vec<(StableStore, Wal)> {
        // Snapshot device death *before* halting: the halt below marks
        // every shard dead as part of crashing.
        let dead: Vec<bool> = self.shards.iter().map(|s| s.is_dead()).collect();
        self.halt();
        self.take_engines()
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let partial = if partials.is_empty() || dead[i] {
                    0
                } else {
                    partials[i % partials.len()]
                };
                e.crash_torn(partial)
            })
            .collect()
    }

    /// Orderly shutdown: [`drain`](Self::drain), then halt; write graphs
    /// are fully installed, and every shard's parts come back clean. A
    /// shard the drain could not force (a dead one) still hands back its
    /// parts: `Engine::shutdown` decides the result.
    pub fn shutdown(self) -> Result<Vec<(StableStore, Wal)>> {
        let _ = self.drain();
        self.halt();
        self.take_engines()
            .into_iter()
            .map(Engine::shutdown)
            .collect()
    }

    fn take_engines(&self) -> Vec<Engine> {
        self.shards
            .iter()
            .map(|s| {
                s.lock_engine()
                    .take()
                    .expect("engines are taken exactly once, by crash/shutdown")
            })
            .collect()
    }
}

impl Drop for ShardedEngine {
    fn drop(&mut self) {
        // Idempotent: crash/shutdown already halted and drained the
        // thread list; a bare drop stops the background threads here.
        self.halt();
    }
}

/// Checkpoint one shard and advance its watermark over the checkpoint's
/// force (part of [`Engine::checkpoint`]) — with a backend attached, only
/// as far as the log device reports durable.
fn checkpoint_one(shard: &Shard, truncate: bool) -> Result<Lsn> {
    let crashed = || LlogError::CacheProtocol(format!("shard {} has crashed", shard.index));
    let mut g = shard.lock_engine();
    let Some(e) = g.as_mut() else {
        return Err(crashed());
    };
    // `Engine::checkpoint` forces the WAL internally; a shard whose
    // device died mid-force (torn/rotted write) must not be forced again,
    // or the tail guard would advance over the rotted bytes. Checked
    // under the engine lock, where death is latched.
    if shard.is_dead() {
        return Err(crashed());
    }
    // With a device backend attached, every checkpoint also persists the
    // shard's store + log to the device tier — incrementally: the store
    // checkpoint writes only objects dirtied since the last one (O(dirty)),
    // and the log device appends only the new tail and reclaims whole
    // segments the truncation dropped. Backend lock is taken *after* the
    // engine lock (the only order used anywhere).
    let mut backend = lock(&shard.backend);
    let faults = shard.faults.as_deref();
    let persisted = match backend.as_mut() {
        None => e
            .checkpoint(truncate)
            .map(|lsn| (lsn, e.wal().forced_lsn())),
        Some(b) => e
            .checkpoint(truncate)
            .and_then(|lsn| Ok((lsn, b.persist(e.store(), e.wal(), faults)?.durable))),
    };
    let (lsn, durable) = match persisted {
        Ok(done) => done,
        Err(err) => {
            // A failed persist left the in-memory log truncated and its
            // master moved to the new checkpoint, which the next force
            // would carry to the log device past a store device that never
            // got it; a torn or rotted log append left the device short of
            // the forced end. Either way the shard dies, latched under the
            // engine lock as a torn force is.
            shard.latch_dead();
            drop((backend, g));
            shard.kill();
            return Err(err);
        }
    };
    drop((backend, g));
    shard.advance_durable(durable);
    // Retention GC rides the checkpoint cadence: reclaim versions below
    // min(oldest open snapshot, the durable cut just advanced).
    shard.gc_versions();
    Ok(lsn)
}

/// Run `job` over `inputs` on the recovery pool: scoped workers, bounded by
/// [`std::thread::available_parallelism`], claim inputs off an atomic
/// cursor — with more shards than cores the pool stays fully busy without
/// oversubscribing the machine; with fewer shards than cores no idle
/// threads are spawned. Results keep input order; the first error in that
/// order is returned once every worker has joined, and a panicking worker
/// surfaces as an error, not a hang.
fn in_recovery_pool<T: Send, R: Send>(
    inputs: Vec<T>,
    job: impl Fn(T) -> Result<R> + Sync,
) -> Result<Vec<R>> {
    let n = inputs.len();
    let pool = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, n.max(1));
    // Each input sits in a slot claimed exactly once via the cursor;
    // results land in ordered slots so order survives out-of-order
    // completion.
    let slots: Vec<Mutex<Option<T>>> = inputs.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<R>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        return;
                    }
                    let input = lock(&slots[i])
                        .take()
                        .expect("each slot is claimed exactly once");
                    let r = job(input);
                    *lock(&results[i]) = Some(r);
                })
            })
            .collect();
        for h in handles {
            // A panicking worker leaves its result slot empty; the
            // collection below turns that into an error.
            let _ = h.join();
        }
    });
    results
        .into_iter()
        .map(|slot| lock(&slot).take().ok_or_else(poisoned_recovery_thread)?)
        .collect()
}

/// Recover one shard's parts through the one [`recover`] pipeline and seed
/// its version chains — the pool's per-shard work after the load.
fn recover_and_seed(
    store: StableStore,
    wal: Wal,
    registry: &TransformRegistry,
    policy: RedoPolicy,
) -> Result<((Engine, Arc<VersionStore>), RecoveryOutcome)> {
    let (mut engine, outcome) = recover(
        store,
        wal,
        registry.clone(),
        EngineConfig::default(),
        policy,
    )?;
    let versions = engine.enable_versions();
    Ok(((engine, versions), outcome))
}

/// Recover every shard of a crashed [`ShardedEngine`], **in parallel** on
/// the recovery pool: each worker recovers one shard through the one
/// [`recover`] pipeline — scanning only its own log (the per-shard rW
/// graphs share no edges, so shard recoveries are independent) — and
/// seeds that shard's version chains. Returns the recovered engine plus
/// each shard's [`RecoveryOutcome`], in shard order.
///
/// Every production caller passes [`RedoPolicy::RsiExposed`]; `policy`
/// stays a parameter only because the repository benchmark's by-hand boot
/// (`bench/src/served.rs`) passes it, which also lets `llog-fuzz` recover
/// sharded crashes under the other REDO tests.
pub fn recover_sharded(
    parts: Vec<(StableStore, Wal)>,
    registry: &TransformRegistry,
    config: ShardedConfig,
    policy: RedoPolicy,
) -> Result<(ShardedEngine, Vec<RecoveryOutcome>)> {
    assert!(!parts.is_empty(), "need at least one shard to recover");
    let recovered = in_recovery_pool(parts, |(store, wal)| {
        recover_and_seed(store, wal, registry, policy)
    })?;
    let (seeded, outcomes) = recovered.into_iter().unzip();
    Ok((ShardedEngine::from_seeded(config, seeded, None), outcomes))
}

fn poisoned_recovery_thread() -> LlogError {
    LlogError::Unexplainable("shard recovery thread panicked".into())
}

/// Reboot from the device tier, one recovery-pool job per shard. The job
/// calls its shard's opener — the device attach, which reads the store
/// manifest and reads and CRC-checks the whole log — then loads the
/// persisted `(store, wal)` pair, recovers it and seeds its version chains:
/// shards attach, load and recover in parallel. A backend that was never
/// persisted to yields an empty shard (fresh store, fresh log). The opened
/// backends come back in shard order so the caller can re-attach them
/// ([`ShardedEngine::attach_backends`]) and keep checkpointing
/// incrementally onto the same devices. Redo uses the paper's test,
/// [`RedoPolicy::RsiExposed`]. A shard whose recovered log would resume
/// below its store's `installed_through` is `Unexplainable`: the boot never
/// reuses an LSN the store device already vouches for. Any step failing on
/// any shard, the open included, fails the boot with the first error in
/// shard order, once every worker has joined.
pub fn recover_sharded_from_backends<F>(
    openers: Vec<F>,
    registry: &TransformRegistry,
    config: ShardedConfig,
) -> Result<(ShardedEngine, Vec<RecoveryOutcome>, Vec<DurabilityBackend>)>
where
    F: FnOnce() -> Result<DurabilityBackend> + Send,
{
    assert!(!openers.is_empty(), "need at least one shard to recover");
    let recovered = in_recovery_pool(openers, |open| {
        let backend = open()?;
        let metrics = Metrics::new();
        let (store, wal, vouched) = match backend.load(metrics.clone())? {
            Some((store, wal)) => {
                let vouched = store.installed_through();
                (store, wal, vouched)
            }
            None => (
                StableStore::new(metrics.clone()),
                Wal::new(metrics),
                Lsn::ZERO,
            ),
        };
        let recovered = recover_and_seed(store, wal, registry, RedoPolicy::RsiExposed)?;
        // The store holds installs below `vouched`. A log that resumes below
        // it would hand a new operation an LSN the store already vouches
        // for, and the REDO test would skip that operation at the next boot.
        let resume = recovered.0 .0.wal().end_lsn();
        if resume < vouched {
            return Err(LlogError::Unexplainable(format!(
                "store installed through {vouched}, but the log device resumes at {resume}"
            )));
        }
        Ok((recovered, backend))
    })?;
    let (recovered, backends): (Vec<_>, _) = recovered.into_iter().unzip();
    let (seeded, outcomes) = recovered.into_iter().unzip();
    Ok((
        ShardedEngine::from_seeded(config, seeded, None),
        outcomes,
        backends,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::builtin;
    use llog_storage::device::DeviceConfig;
    use llog_testkit::SyncGate;

    fn registry() -> TransformRegistry {
        TransformRegistry::with_builtins()
    }

    fn put(e: &ShardedEngine, x: ObjectId, v: &str) -> CommitTicket {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![x],
            Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
        )
        .unwrap()
    }

    /// The first object the router puts on `shard`.
    fn owned_by(e: &ShardedEngine, shard: usize) -> ObjectId {
        (0..)
            .map(ObjectId)
            .find(|&x| e.router().shard_of(x) == shard)
            .unwrap()
    }

    /// Boot openers for backends that are already open.
    fn opened(
        backends: Vec<DurabilityBackend>,
    ) -> Vec<impl FnOnce() -> Result<DurabilityBackend> + Send> {
        backends.into_iter().map(|b| move || Ok(b)).collect()
    }

    /// In-memory log blobs whose `sync` goes through a [`SyncGate`].
    #[derive(Debug)]
    struct GatedBlobs {
        inner: llog_storage::device::MemBlobs,
        gate: Arc<SyncGate>,
    }

    impl llog_storage::device::BlobStore for GatedBlobs {
        fn put(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
            self.inner.put(name, bytes)
        }
        fn write_at(&mut self, name: &str, offset: u64, bytes: &[u8]) -> Result<()> {
            self.inner.write_at(name, offset, bytes)
        }
        fn rename(&mut self, from: &str, to: &str) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn get(&self, name: &str) -> Result<Option<Vec<u8>>> {
            self.inner.get(name)
        }
        fn delete(&mut self, name: &str) -> Result<()> {
            self.inner.delete(name)
        }
        fn sync(&mut self) -> Result<()> {
            self.gate.pass().map_err(|f| LlogError::Io {
                point: f.point,
                reason: f.reason,
            })?;
            self.inner.sync()
        }
        fn list(&self) -> Result<Vec<String>> {
            self.inner.list()
        }
    }

    /// The one-force-per-op baseline group commit is measured against:
    /// execute, then wait, so every put asks for its own barrier.
    fn put_sync(e: &ShardedEngine, x: ObjectId, v: &str) -> CommitTicket {
        let t = put(e, x, v);
        assert!(t.wait(), "put to {x:?} acked");
        t
    }

    fn config(shards: usize) -> ShardedConfig {
        ShardedConfig {
            shards,
            ..ShardedConfig::default()
        }
    }

    /// One group-commit shard, wired to `faults`.
    fn one_shard(faults: Option<Arc<FaultHost>>) -> ShardedEngine {
        ShardedEngine::new_with_faults(config(1), &registry(), faults)
    }

    fn mem_backend() -> DurabilityBackend {
        DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small())
    }

    /// A mem backend whose log device syncs through `gate`.
    fn gated_backend(gate: &Arc<SyncGate>) -> DurabilityBackend {
        use llog_storage::device::{MemBlobs, MemStoreDevice, SegLog};
        let (m, cfg) = (Metrics::new(), DeviceConfig::small());
        let blobs = GatedBlobs {
            inner: MemBlobs::new(),
            gate: gate.clone(),
        };
        let log = SegLog::attach(blobs, m.clone(), &cfg, "gated", Lsn(1)).unwrap();
        DurabilityBackend::over(Box::new(log), Box::new(MemStoreDevice::mem(m, &cfg)))
    }

    #[test]
    fn group_commit_acknowledges_and_survives() {
        let reg = registry();
        let cfg = config(4);
        let e = ShardedEngine::new(cfg, &reg);
        let tickets: Vec<CommitTicket> = (0..64u64).map(|i| put(&e, ObjectId(i), "gc")).collect();
        for t in &tickets {
            assert!(t.wait(), "a waiter's barrier must force its op");
            assert!(t.is_durable());
        }
        let snap = e.metrics_snapshot();
        assert!(
            snap.group_commit.batches >= 1,
            "group commit must batch at least once"
        );
        let parts = e.crash();
        let (rec, outcomes) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        assert_eq!(outcomes.len(), 4);
        for i in 0..64u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("gc"));
        }
    }

    #[test]
    fn sync_policy_forces_per_op() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..10u64 {
            put_sync(&e, ObjectId(i), "sync");
        }
        let snap = e.metrics_snapshot();
        assert_eq!(snap.aggregate.log_forces, 10);
        let gc = &snap.group_commit;
        assert_eq!((gc.batches, gc.batched_ops, gc.waits), (10, 10, 10));
        drop(e);
    }

    #[test]
    fn group_commit_forces_fewer_than_ops() {
        let e = one_shard(None);
        let gate = Arc::new(SyncGate::default());
        e.attach_backend(0, gated_backend(&gate));
        // Hold one waiter's barrier in its sync; everything the 8
        // committers append meanwhile rides the next barrier together.
        gate.set(Some(0));
        let first = put(&e, ObjectId(999), "a");
        std::thread::scope(|s| {
            let held = s.spawn(|| first.wait());
            gate.wait_parked();
            let (appended, piled_up) = std::sync::mpsc::channel();
            for t in 0..8u64 {
                let (e, appended) = (&e, appended.clone());
                s.spawn(move || {
                    for i in 0..16u64 {
                        let ticket = put(e, ObjectId(t * 1000 + i), "b");
                        if i == 0 {
                            appended.send(()).unwrap();
                        }
                        assert!(ticket.wait());
                    }
                });
            }
            for _ in 0..8 {
                piled_up.recv().unwrap();
            }
            gate.set(None);
            assert!(held.join().unwrap());
        });
        let snap = e.metrics_snapshot();
        let ops = 1 + 8 * 16;
        assert_eq!(snap.group_commit.batched_ops, ops);
        assert!(
            snap.aggregate.log_forces < ops,
            "group commit must force fewer times ({}) than ops ({})",
            snap.aggregate.log_forces,
            ops
        );
        assert!(
            snap.group_commit.max_batch >= 8,
            "the ops appended during the held sync share one barrier"
        );
        drop(e);
    }

    /// Nothing forces on a timer: unwaited operations stay volatile until
    /// one waiter asks, and that one force covers them all.
    #[test]
    fn unwaited_ops_stay_volatile_until_a_waiter_asks() {
        let e = one_shard(None);
        let tickets: Vec<CommitTicket> = (0..10u64).map(|i| put(&e, ObjectId(i), "v")).collect();
        std::thread::sleep(Duration::from_millis(20));
        assert!(tickets.iter().all(|t| !t.is_durable()));
        assert_eq!(e.metrics_snapshot().aggregate.log_forces, 0);
        assert!(tickets[9].wait());
        assert!(tickets.iter().all(CommitTicket::is_durable));
        let snap = e.metrics_snapshot();
        assert_eq!(snap.aggregate.log_forces, 1, "one force for the lot");
        assert_eq!(
            (snap.group_commit.batches, snap.group_commit.batched_ops),
            (1, 10)
        );
        drop(e);
    }

    #[test]
    fn cross_shard_ops_are_rejected_at_the_top() {
        let reg = registry();
        let e = ShardedEngine::new(ShardedConfig::default(), &reg);
        let r = e.router();
        let a = ObjectId(0);
        let b = (1..)
            .map(ObjectId)
            .find(|&x| r.shard_of(x) != r.shard_of(a))
            .unwrap();
        let err = e
            .execute(
                OpKind::Logical,
                vec![a],
                vec![b],
                Transform::new(builtin::HASH_MIX, Value::from("x")),
            )
            .unwrap_err();
        assert!(matches!(err, LlogError::CacheProtocol(_)));
        drop(e);
    }

    #[test]
    fn checkpoint_coordinator_truncates_round_robin() {
        let reg = registry();
        let cfg = config(2);
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..64u64 {
            put(&e, ObjectId(i), "ck").wait();
        }
        e.install_all().unwrap();
        let before: Vec<usize> = (0..2)
            .map(|i| {
                e.shards[i]
                    .lock_engine()
                    .as_ref()
                    .unwrap()
                    .wal()
                    .stable_len()
            })
            .collect();
        let (s0, _) = e.checkpoint_next().unwrap();
        let (s1, _) = e.checkpoint_next().unwrap();
        assert_ne!(s0, s1, "round-robin must rotate shards");
        for (i, &before) in before.iter().enumerate() {
            let after = e.shards[i]
                .lock_engine()
                .as_ref()
                .unwrap()
                .wal()
                .stable_len();
            assert!(
                after <= before,
                "checkpoint truncation must not grow shard {i}'s log"
            );
        }
        // Checkpointed shards still recover.
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..64u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("ck"));
        }
    }

    #[test]
    fn spawned_checkpointer_runs_and_stops() {
        let reg = registry();
        let cfg = config(2);
        let e = ShardedEngine::new(cfg, &reg);
        e.spawn_checkpointer(Duration::from_millis(1));
        for i in 0..128u64 {
            put(&e, ObjectId(i), "bg").wait();
        }
        std::thread::sleep(Duration::from_millis(10));
        let checkpoints: u64 = e.metrics_snapshot().aggregate.log_records; // just liveness
        assert!(checkpoints > 0);
        // crash() joins the coordinator; recovery still sees every
        // acknowledged op.
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..128u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("bg"));
        }
    }

    #[test]
    fn crash_wakes_parked_ticket_waiters() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        let gate = Arc::new(SyncGate::default());
        e.attach_backend(0, gated_backend(&gate));
        gate.set(Some(0));
        let ticket = put(&e, ObjectId(1), "unacked");
        assert!(!ticket.is_durable());
        // The waiter's barrier parks in its sync; the crash must wake the
        // waiter anyway, which then lets the barrier finish.
        let opener = gate.clone();
        let waiter = std::thread::spawn(move || {
            let ok = ticket.wait();
            opener.set(None);
            (ok, ticket.is_durable())
        });
        gate.wait_parked();
        let parts = e.crash();
        assert_eq!(
            waiter.join().unwrap(),
            (false, false),
            "a crash must wake waiters with `false`, not hang them"
        );
        // The unacknowledged op is indeed gone.
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        assert_eq!(rec.read_value(ObjectId(1)).unwrap(), Value::empty());
    }

    #[test]
    fn shutdown_drains_pending_batches() {
        let reg = registry();
        let cfg = config(2);
        let e = ShardedEngine::new(cfg, &reg);
        let tickets: Vec<CommitTicket> =
            (0..16u64).map(|i| put(&e, ObjectId(i), "drain")).collect();
        let parts = e.shutdown().unwrap();
        for t in &tickets {
            assert!(t.is_durable(), "shutdown must drain pending commits");
        }
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..16u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("drain"));
        }
    }

    /// The one force contract, checked at every site that can ask for a
    /// force and under every verdict the barrier can reach: nothing is
    /// acknowledged past the pre-fault durable prefix, and any fault — a
    /// tear, a bit flip or an I/O error — latches the shard dead before the
    /// site regains control.
    #[test]
    fn every_force_site_upholds_the_barrier_contract_under_every_verdict() {
        use llog_testkit::faults::{failpoint, FaultKind};

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Site {
            Waiter,
            ForceShard,
            Drain,
        }
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Class {
            Proceed,
            /// `clean`: the fault leaves less than one frame behind.
            Dies {
                clean: bool,
            },
        }
        const FORCE_POINTS: [&str; 2] = [failpoint::FLUSHER_FORCE, failpoint::WAL_FORCE];
        let mut verdicts: Vec<(Option<(&str, FaultKind)>, Class)> = vec![
            (None, Class::Proceed),
            (
                Some((failpoint::SCHED_SYNC, FaultKind::IoError)),
                Class::Dies { clean: true },
            ),
        ];
        for point in FORCE_POINTS {
            verdicts.push((
                Some((point, FaultKind::IoError)),
                Class::Dies { clean: true },
            ));
            verdicts.push((
                Some((point, FaultKind::TornWrite { at_byte: 3 })),
                Class::Dies { clean: true },
            ));
            verdicts.push((
                Some((point, FaultKind::BitFlip { offset: 77 })),
                Class::Dies { clean: false },
            ));
        }

        // One attempt at `site`: a put, then whatever the site does to make
        // it durable. Returns the ticket (if `execute` handed one out) and
        // whether the site reported success.
        fn attempt(
            e: &ShardedEngine,
            site: Site,
            x: ObjectId,
            v: &str,
        ) -> (Option<CommitTicket>, bool) {
            let ticket = e.execute(
                OpKind::Physical,
                vec![],
                vec![x],
                Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
            );
            let Ok(ticket) = ticket else {
                return (None, false);
            };
            let ok = match site {
                Site::Waiter => ticket.wait(),
                Site::ForceShard => e.force_shard(0).is_ok(),
                Site::Drain => e.drain().is_ok(),
            };
            (Some(ticket), ok)
        }

        let reg = registry();
        let (pre, doomed, retry) = (ObjectId(0), ObjectId(1), ObjectId(2));
        for site in [Site::Waiter, Site::ForceShard, Site::Drain] {
            for &(fault, class) in &verdicts {
                let case = format!("{site:?} x {fault:?}");
                let cfg = config(1);
                let host = Arc::new(FaultHost::new());
                let e = ShardedEngine::new_with_faults(cfg, &reg, Some(host.clone()));
                e.attach_backend(0, mem_backend());

                let (t, ok) = attempt(&e, site, pre, "pre");
                assert!(ok && t.unwrap().is_durable(), "{case}: clean force");
                let durable_before = e.durable_lsn(0);

                if let Some((point, kind)) = fault {
                    host.arm(point, kind);
                }
                let (ticket, ok) = attempt(&e, site, doomed, "doomed");
                assert_eq!(host.fired().len(), usize::from(fault.is_some()), "{case}");
                let acked = |t: &Option<CommitTicket>| t.as_ref().is_some_and(|t| t.is_durable());

                match class {
                    Class::Proceed => assert!(ok && acked(&ticket), "{case}"),
                    Class::Dies { .. } => {
                        assert!(!ok, "{case}: failed force reported success");
                        if let Some(t) = &ticket {
                            assert!(!t.wait() && !t.is_durable(), "{case}: failed op acked");
                        }
                        assert_eq!(e.durable_lsn(0), durable_before, "{case}");
                        // Dead before the site regained control: nothing may
                        // touch the log again.
                        assert!(e.shards[0].is_dead(), "{case}: a fault must latch death");
                        let stable = |e: &ShardedEngine| {
                            let g = e.shards[0].lock_engine();
                            g.as_ref().unwrap().wal().stable_len()
                        };
                        let len = stable(&e);
                        assert!(attempt(&e, site, retry, "late").0.is_none(), "{case}");
                        assert!(e.force_shard(0).is_err(), "{case}");
                        assert!(e.drain().is_err(), "{case}");
                        assert!(e.checkpoint_shard(0, false).is_err(), "{case}");
                        assert_eq!(stable(&e), len, "{case}: dead log was touched");
                    }
                }

                let parts = e.crash_torn(&[]);
                let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed)
                    .unwrap_or_else(|err| panic!("{case}: recovery failed: {err}"));
                let read = |x| rec.read_value(x).unwrap();
                assert_eq!(read(pre), Value::from("pre"), "{case}: acked op lost");
                match class {
                    Class::Proceed => assert_eq!(read(doomed), Value::from("doomed"), "{case}"),
                    Class::Dies { clean } => {
                        let got = read(doomed);
                        assert!(
                            got == Value::empty() || (!clean && got == Value::from("doomed")),
                            "{case}: failed op recovered to {got:?}"
                        );
                        assert_eq!(read(retry), Value::empty(), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn install_fault_stalls_installer_but_redo_covers() {
        use llog_testkit::faults::{failpoint, FaultKind};
        let reg = registry();
        let cfg = ShardedConfig {
            shards: 1,
            install_high_water: 0,
            ..ShardedConfig::default()
        };
        let host = Arc::new(FaultHost::new());
        let e = ShardedEngine::new_with_faults(cfg, &reg, Some(host.clone()));
        host.arm(failpoint::INSTALL, FaultKind::IoError);
        let tickets: Vec<CommitTicket> = (0..8u64).map(|i| put(&e, ObjectId(i), "in")).collect();
        for t in &tickets {
            assert!(t.wait());
        }
        // Whether or not the stalled round delayed installs, redo recovery
        // reconstructs everything acknowledged.
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for i in 0..8u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("in"));
        }
    }

    #[test]
    fn shared_pool_recovers_more_shards_than_threads() {
        // More shards than the pool can have threads, whatever the machine:
        // every slot must still be claimed and land in shard order.
        let shards = std::thread::available_parallelism().map_or(1, |p| p.get()) + 3;
        let reg = registry();
        let cfg = ShardedConfig {
            shards,
            ..ShardedConfig::default()
        };
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..128u64 {
            put(&e, ObjectId(i), "pool");
        }
        e.force_all().unwrap();
        let parts = e.crash();
        let (rec, outcomes) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        assert_eq!(rec.shards(), shards);
        assert_eq!(outcomes.len(), shards);
        for i in 0..128u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("pool"));
        }
    }

    #[test]
    fn parallel_recovery_matches_shard_count_and_state() {
        let reg = registry();
        let cfg = config(8);
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..200u64 {
            put(&e, ObjectId(i), "par");
        }
        e.force_all().unwrap();
        let parts = e.crash();
        assert_eq!(parts.len(), 8);
        let (rec, outcomes) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        assert_eq!(rec.shards(), 8);
        assert_eq!(outcomes.len(), 8);
        let total_redone: u64 = outcomes.iter().map(|o| o.redone).sum();
        assert_eq!(total_redone, 200, "every forced op redoes on some shard");
        for i in 0..200u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("par"));
        }
    }

    /// A blind put is installed by flushing its object, whose vSI then
    /// vouches for it: the log holds the put's operation record and
    /// nothing else.
    #[test]
    fn a_waited_blind_put_logs_one_record_after_install_all() {
        const N: u64 = 200;
        let e = ShardedEngine::new(config(2), &registry());
        e.attach_backends((0..2).map(|_| mem_backend()).collect());
        let before = e.metrics_snapshot().aggregate;
        for i in 0..N {
            put_sync(&e, ObjectId(i), "v");
        }
        e.install_all().unwrap();
        let after = e.metrics_snapshot().aggregate;
        assert_eq!(
            after.install_vars_objects - before.install_vars_objects,
            N,
            "every put was installed"
        );
        assert_eq!(after.log_records - before.log_records, N);
    }

    #[test]
    fn device_backed_checkpoints_survive_reboot_from_devices() {
        let reg = registry();
        let cfg = config(2);
        let e = ShardedEngine::new(cfg, &reg);
        e.attach_backends((0..2).map(|_| mem_backend()).collect());
        for i in 0..10u64 {
            put_sync(&e, ObjectId(i), "dev1");
        }
        e.checkpoint_all(true).unwrap();
        for i in 10..20u64 {
            put_sync(&e, ObjectId(i), "dev2");
        }
        e.checkpoint_all(true).unwrap();
        // The in-memory parts vanish; the devices survive the crash.
        let backends: Vec<DurabilityBackend> = e.take_backends().into_iter().flatten().collect();
        assert_eq!(backends.len(), 2);
        drop(e.crash());
        let (rec, outcomes, _backends) =
            recover_sharded_from_backends(opened(backends), &reg, cfg).unwrap();
        assert_eq!(outcomes.len(), 2);
        for i in 0..10u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("dev1"));
        }
        for i in 10..20u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("dev2"));
        }
    }

    /// The pooled boot (load + recover + bulk seeding per shard inside the
    /// recovery pool) against a reference built by hand per shard: `load`,
    /// `recover`, then one `publish` per store object and per cache entry.
    #[test]
    fn pooled_boot_matches_per_shard_reference() {
        let reg = registry();
        let dir = std::env::temp_dir().join(format!(
            "llog-pooled-boot-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let dev = DeviceConfig::small();
        let open = |i: usize| {
            DurabilityBackend::file(&dir.join(format!("shard-{i}")), Metrics::new(), &dev).unwrap()
        };
        let cfg = config(3);
        let keys = 48u64;
        let e = ShardedEngine::new(cfg, &reg);
        e.attach_backends((0..3).map(open).collect());
        let exec = |kind, x: u64, fn_id, params: Value| {
            let reads = if kind == OpKind::Physiological {
                vec![ObjectId(x)]
            } else {
                vec![]
            };
            let t = e.execute(
                kind,
                reads,
                vec![ObjectId(x)],
                Transform::new(fn_id, params),
            );
            assert!(t.unwrap().wait());
        };
        for round in 0..4u64 {
            for x in 0..keys {
                match (x + round) % 5 {
                    0 => exec(OpKind::Delete, x, builtin::DELETE, Value::empty()),
                    1 | 2 => exec(OpKind::Physiological, x, builtin::APPEND, Value::from("+")),
                    _ => exec(
                        OpKind::Physical,
                        x,
                        builtin::CONST,
                        builtin::encode_values(&[Value::from(format!("r{round}x{x}").as_str())]),
                    ),
                }
            }
            // Two checkpoints chain store deltas; the last two rounds stay a
            // partly installed redo tail on the log devices.
            if round < 2 {
                e.install_all().unwrap();
                e.checkpoint_all(false).unwrap();
            }
        }
        e.persist_all().unwrap();
        drop(e.crash());

        let (pooled, outcomes, _) =
            recover_sharded_from_backends((0..3).map(|i| move || Ok(open(i))).collect(), &reg, cfg)
                .unwrap();
        let mut redone = 0;
        for (i, outcome) in outcomes.iter().enumerate() {
            let (store, wal) = open(i).load(Metrics::new()).unwrap().unwrap();
            let (reference, want) = recover(
                store,
                wal,
                reg.clone(),
                EngineConfig::default(),
                RedoPolicy::RsiExposed,
            )
            .unwrap();
            assert_eq!(*outcome, want, "shard {i} outcome");
            redone += want.redone;
            let versions = VersionStore::new(Metrics::new());
            for (&x, stored) in reference.store().iter() {
                versions.publish(x, stored.vsi, stored.value.clone(), false);
            }
            for (x, v) in reference.cached_versions() {
                versions.publish(x, v.si, v.value, v.tombstone);
            }
            let shard = &pooled.shards[i];
            let guard = shard.lock_engine();
            let engine = guard.as_ref().unwrap();
            assert_eq!(engine.store().snapshot(), reference.store().snapshot());
            assert_eq!(shard.versions.retained(), versions.retained());
            // Every durable SI: each record boundary of the recovered log.
            let wal = reference.wal();
            let mut sis: Vec<Lsn> = wal.scan(wal.start_lsn()).map(|r| r.unwrap().0).collect();
            sis.extend([Lsn::ZERO, wal.forced_lsn()]);
            for si in sis {
                for x in (0..keys).map(ObjectId) {
                    assert_eq!(
                        shard.versions.read_at(x, si),
                        versions.read_at(x, si),
                        "shard {i}: {x} at {si}"
                    );
                }
            }
        }
        assert!(redone > 0, "the fixture leaves a redo tail");
        drop(pooled);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn device_checkpoints_cost_o_dirty_not_o_store() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        let dev_metrics = Metrics::new();
        e.attach_backend(
            0,
            DurabilityBackend::mem(dev_metrics.clone(), &DeviceConfig::small()),
        );
        for i in 0..8u64 {
            put_sync(&e, ObjectId(i), "full");
        }
        e.install_all().unwrap();
        e.checkpoint_all(true).unwrap();
        let first = dev_metrics.snapshot();
        assert_eq!(first.ckpt_objects_written, 8, "first checkpoint is full");
        // One more object dirtied: the next device checkpoint writes only
        // that object and skips the clean eight.
        put_sync(&e, ObjectId(8), "dirty");
        e.install_all().unwrap();
        e.checkpoint_all(true).unwrap();
        let delta = dev_metrics.snapshot().since(&first);
        assert_eq!(delta.ckpt_objects_written, 1, "O(dirty), not O(store)");
        assert_eq!(delta.ckpt_objects_skipped, 8);
        drop(e);
    }

    #[test]
    fn persist_all_makes_unforgotten_tail_device_durable() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        e.attach_backend(0, mem_backend());
        for i in 0..6u64 {
            put_sync(&e, ObjectId(i), "tail");
        }
        // No checkpoint: persist_all pushes the forced log tail to the
        // device so a device reboot still replays the committed ops.
        e.persist_all().unwrap();
        let backends: Vec<DurabilityBackend> = e.take_backends().into_iter().flatten().collect();
        drop(e.crash());
        let (rec, _, _) = recover_sharded_from_backends(opened(backends), &reg, cfg).unwrap();
        for i in 0..6u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("tail"));
        }
    }

    /// A checkpoint whose store persist fails has already truncated the
    /// in-memory log; if the shard kept forcing, the log device would drop
    /// records the store device never absorbed. The shard latches dead
    /// instead, and the device pair still recovers every acked put.
    #[test]
    fn failed_store_persist_at_checkpoint_latches_the_shard_dead() {
        use llog_testkit::faults::{failpoint, FaultKind};
        let reg = registry();
        let cfg = config(2);
        let host = Arc::new(FaultHost::new());
        let e = ShardedEngine::new_with_faults(cfg, &reg, Some(host.clone()));
        for i in 0..2 {
            e.attach_backend(i, mem_backend());
        }
        e.persist_all().unwrap();
        let keys: Vec<ObjectId> = (0..16u64).map(ObjectId).collect();
        for &x in &keys {
            put_sync(&e, x, "acked");
        }
        e.install_all().unwrap();
        // Shard 0 checkpoints first and takes the single-shot fault.
        host.arm(failpoint::DEV_STORE_DELTA, FaultKind::IoError);
        assert!(e.checkpoint_all(true).is_err());
        let on = |shard: usize| {
            *keys
                .iter()
                .find(|&&x| e.router().shard_of(x) == shard)
                .unwrap()
        };
        let (dead, live) = (on(0), on(1));
        let put_to = |x: ObjectId| {
            e.execute(
                OpKind::Physical,
                vec![],
                vec![x],
                Transform::new(
                    builtin::CONST,
                    builtin::encode_values(&[Value::from("late")]),
                ),
            )
        };
        assert!(put_to(dead).is_err(), "the dead shard takes no more puts");
        assert!(put_to(live).unwrap().wait(), "the other shard serves");
        let backends: Vec<DurabilityBackend> = e.take_backends().into_iter().flatten().collect();
        drop(e.crash());
        let (rec, _, _) = recover_sharded_from_backends(opened(backends), &reg, cfg).unwrap();
        for &x in &keys {
            let want = if x == live { "late" } else { "acked" };
            assert_eq!(rec.read_value(x).unwrap(), Value::from(want), "{x:?}");
        }
    }

    /// A log device whose sync fails kills its shard: the one barrier a
    /// waiter asks for ends in the death, not in a retry loop against the
    /// failing device, and nothing that sync covered is ever acked — not
    /// even once the device heals. The other shard keeps acking meanwhile.
    #[test]
    fn a_failed_sync_kills_the_shard_and_acks_nothing_it_covered() {
        let e = ShardedEngine::new(config(2), &registry());
        let gate = Arc::new(SyncGate::default());
        e.attach_backend(0, mem_backend());
        e.attach_backend(1, gated_backend(&gate));
        let [x0, x1] = [0, 1].map(|shard| owned_by(&e, shard));
        let durable_before = e.durable_lsn(1);
        gate.set_failing(true);
        let doomed = put(&e, x1, "doomed");
        let waited = e.shards[1].wait_durable(doomed.target(), Some(Duration::from_millis(100)));
        assert_eq!(waited, Some(false), "the failed sync killed the shard");
        assert!(gate.seen() <= 2, "{} syncs for one waiter", gate.seen());
        assert!(put(&e, x0, "live").wait(), "the other shard acks");
        gate.set_failing(false);
        assert!(
            !doomed.wait() && !doomed.is_durable(),
            "a healed device acked"
        );
        assert_eq!(e.durable_lsn(1), durable_before);
        let late = e.execute(
            OpKind::Physical,
            vec![],
            vec![x1],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from("late")]),
            ),
        );
        assert!(late.is_err(), "the dead shard takes no more puts");
        assert!(e.force_shard(1).is_err() && e.checkpoint_shard(1, false).is_err());
    }

    /// In a barrier two shards ride, one device's failed sync kills only
    /// that shard: the other rider's device is still synced and its put is
    /// acked by the same barrier.
    #[test]
    fn a_failed_sync_kills_only_its_own_rider() {
        let e = ShardedEngine::new(config(2), &registry());
        let gates = [Arc::new(SyncGate::default()), Arc::new(SyncGate::default())];
        for (i, gate) in gates.iter().enumerate() {
            e.attach_backend(i, gated_backend(gate));
        }
        let [x0, x1] = [0, 1].map(|shard| owned_by(&e, shard));
        let (doomed, live) = (put(&e, x0, "doomed"), put(&e, x1, "live"));
        // `force_all` queues shard 0 first, so its sync fails first.
        gates[0].set_failing(true);
        assert!(e.force_all().is_err(), "the failed rider is reported");
        assert_eq!(gates.each_ref().map(|g| g.seen()), [1, 1], "one barrier");
        assert!(!doomed.is_durable() && e.shards[0].is_dead());
        assert!(live.is_durable() && !e.shards[1].is_dead());
        assert!(put(&e, x1, "after").wait(), "the live shard serves on");
    }

    /// A checkpoint advances the watermark only as far as the log device
    /// reports durable: a torn device append leaves every unwaited put
    /// unacknowledged and the shard dead, never acked off the device.
    #[test]
    fn checkpoint_publishes_what_the_log_device_kept() {
        use llog_testkit::faults::{failpoint, FaultKind};
        let host = Arc::new(FaultHost::new());
        let e = one_shard(Some(host.clone()));
        e.attach_backend(0, mem_backend());
        let tickets: Vec<CommitTicket> = (0..20u64).map(|i| put(&e, ObjectId(i), "v")).collect();
        host.arm(
            failpoint::DEV_LOG_APPEND,
            FaultKind::TornWrite { at_byte: 10 },
        );
        let checkpointed = e.checkpoint_shard(0, false);
        assert_eq!(host.fired().len(), 1);
        let acked = tickets.iter().filter(|t| t.is_durable()).count();
        assert_eq!(acked, 0, "puts acked off the device");
        assert!(checkpointed.is_err());
        assert!(e.shards[0].is_dead(), "a torn log device kills the shard");
        let device_end = e.take_backends()[0].as_ref().unwrap().log().durable_end();
        assert!(
            e.durable_lsn(0) <= device_end,
            "watermark {} past the device's durable end {device_end}",
            e.durable_lsn(0)
        );
        drop(e);
    }

    /// A replica gets only what the primary's log device synced. Neither
    /// an explicit `install_all` nor the background installer may put an
    /// unacked put's bytes or value into `ship_chunk` / `ship_manifest`.
    #[test]
    fn a_replica_is_never_shipped_bytes_the_log_device_has_not_synced() {
        for case in ["install_all", "installer"] {
            let cfg = ShardedConfig {
                install_high_water: if case == "installer" { 0 } else { 64 },
                ..config(1)
            };
            let e = ShardedEngine::new(cfg, &registry());
            e.attach_backend(0, mem_backend());
            let x = ObjectId(1);
            assert!(put(&e, x, "a").wait());
            let _b = put(&e, x, "b");
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while case == "installer" && e.uninstalled_total() > 0 {
                assert!(std::time::Instant::now() < deadline, "installer stalled");
                std::thread::sleep(Duration::from_millis(1));
            }
            e.install_all().unwrap();
            let manifest = e.ship_manifest(0).unwrap();
            let (_, cut) = e.ship_chunk(0, manifest.base, usize::MAX).unwrap();
            let device_end = e.take_backends()[0].as_ref().unwrap().log().durable_end();
            let synced = e.durable_lsn(0).min(device_end);
            assert!(cut <= synced, "{case}: shipped to {cut}, synced {synced}");
            assert!(
                manifest.durable <= synced,
                "{case}: manifest cut {}, synced {synced}",
                manifest.durable
            );
            let image = llog_storage::device::decode_image(&manifest.store).unwrap();
            for (obj, stored) in image {
                assert!(
                    stored.vsi < synced,
                    "{case}: image holds {obj:?} at {}, synced {synced}",
                    stored.vsi
                );
            }
        }
    }

    /// Backpressure bounds the uninstalled window and does not deadlock
    /// when nobody waits a ticket: the installer asks the force barrier
    /// for the barriers its installs need, so every execute returns.
    #[test]
    fn backpressure_without_waiters_rides_barriers_the_installer_asks_for() {
        let cfg = ShardedConfig {
            max_uninstalled: 8,
            install_high_water: 0,
            ..config(1)
        };
        let e = ShardedEngine::new(cfg, &registry());
        e.attach_backend(0, mem_backend());
        let tickets: Vec<CommitTicket> = (0..200u64)
            .map(|i| put(&e, ObjectId(i % 16), "bp"))
            .collect();
        let snap = e.metrics_snapshot();
        let gc = &snap.group_commit;
        assert_eq!(gc.waits, 0, "no ticket was waited");
        assert!(gc.backpressure_waits > 0, "200 puts through a window of 8");
        assert!(gc.batches > 0 && snap.aggregate.io_fsyncs > 0);
        // The window held: never more than max_uninstalled live ops at
        // execute time (the installer may lag the last few).
        assert!(e.uninstalled_total() <= 8 + 1);
        let acked = tickets.iter().filter(|t| t.is_durable()).count();
        assert!(acked >= 200 - 8 - 1, "only {acked} puts rode a barrier");
        drop(e);
    }

    /// An installer waiting for the barrier it asked for wakes when the
    /// shard halts (drop) or crashes. That barrier is held in its sync and
    /// resolves only after the shard is dead, so the watermark never moves:
    /// only the kill can wake the installer, or the join hangs.
    #[test]
    fn halt_and_crash_wake_an_installer_waiting_for_a_barrier() {
        for crash in [false, true] {
            let cfg = ShardedConfig {
                install_high_water: 0,
                ..config(1)
            };
            let e = ShardedEngine::new(cfg, &registry());
            let gate = Arc::new(SyncGate::default());
            e.attach_backend(0, gated_backend(&gate));
            gate.set(Some(0));
            let ticket = put(&e, ObjectId(1), "v");
            // Nobody waits the ticket: the parked sync is the installer's.
            gate.wait_parked();
            let shard = e.shards[0].clone();
            let (done, stopped) = std::sync::mpsc::channel();
            let stopper = std::thread::spawn(move || {
                if crash {
                    drop(e.crash());
                } else {
                    drop(e);
                }
                done.send(()).unwrap();
            });
            while !shard.is_dead() {
                std::thread::sleep(Duration::from_millis(1));
            }
            gate.set(None);
            stopped
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("crash={crash}: the parked installer never woke"));
            stopper.join().unwrap();
            assert!(!ticket.is_durable());
        }
    }

    /// Walking the backlog in tiny chunks leaves the cursor mid-frame on
    /// every call; the durable cut must come from the log's own frame
    /// walk, so each chunk still makes progress and the reassembled bytes
    /// match a single whole-tail ship.
    #[test]
    fn ship_chunk_progresses_from_mid_frame_cursors() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..8u64 {
            put_sync(&e, ObjectId(i), "a-payload-long-enough-to-span-chunks");
        }
        let manifest = e.ship_manifest(0).unwrap();
        let durable = manifest.durable;
        assert!(durable > manifest.base);
        let (whole, _) = e.ship_chunk(0, manifest.base, usize::MAX).unwrap();
        let mut at = manifest.base;
        let mut assembled = Vec::new();
        while at < durable {
            let (bytes, cut) = e.ship_chunk(0, at, 7).unwrap();
            assert_eq!(cut, durable);
            assert!(
                !bytes.is_empty(),
                "shipping stalled at {at:?} < {durable:?}"
            );
            at = Lsn(at.0 + bytes.len() as u64);
            assembled.extend_from_slice(&bytes);
        }
        assert_eq!(at, durable);
        assert_eq!(assembled, whole);
    }

    /// A replica watermark below the log base (it fell behind a
    /// checkpoint truncation) is the *worst* lag, and the gauge must say
    /// so — before the clamp it read exactly zero in that state.
    #[test]
    fn below_base_watermark_reports_full_backlog_lag() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..4u64 {
            put_sync(&e, ObjectId(i), "old");
        }
        e.install_all().unwrap();
        e.checkpoint_shard(0, true).unwrap();
        for i in 0..4u64 {
            put_sync(&e, ObjectId(i), "new");
        }
        let base = e.ship_manifest(0).unwrap().base;
        assert!(base > Lsn(1), "truncation must have advanced the base");
        e.note_replica_watermark(0, Lsn(1)).unwrap();
        let lag = e.metrics_snapshot().per_shard[0].repl_replay_lag_frames;
        assert!(lag > 0, "below-base watermark must read as maximal lag");
    }

    #[test]
    fn concurrent_sync_commits_are_durable_on_return_and_survive() {
        let reg = registry();
        let cfg = config(4);
        let e = ShardedEngine::new(cfg, &reg);
        // Four committer threads: each one-force-per-op commit rides the
        // barrier while the others execute on their own shards.
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let e = &e;
                s.spawn(move || {
                    for i in 0..8u64 {
                        put_sync(e, ObjectId(t * 1000 + i), "co");
                    }
                });
            }
        });
        let snap = e.metrics_snapshot();
        assert_eq!(snap.group_commit.waits, 32);
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        for t in 0..4u64 {
            for i in 0..8u64 {
                assert_eq!(
                    rec.read_value(ObjectId(t * 1000 + i)).unwrap(),
                    Value::from("co")
                );
            }
        }
    }

    /// `force_all` enqueues every shard before it waits, so the whole
    /// engine rides exactly one barrier — by construction, not by timing.
    #[test]
    fn coalesced_forces_share_one_device_fsync() {
        let reg = registry();
        let cfg = config(4);
        let e = ShardedEngine::new(cfg, &reg);
        e.attach_backends((0..4).map(|_| mem_backend()).collect());
        let tickets: Vec<CommitTicket> = (0..4)
            .map(|s| put(&e, e.router().objects_for_shard(s, 1)[0], "one"))
            .collect();
        let before = e.metrics_snapshot().aggregate;
        e.force_all().unwrap();
        assert!(tickets.iter().all(CommitTicket::is_durable));
        let after = e.metrics_snapshot().aggregate;
        assert_eq!(
            after.forces_coalesced - before.forces_coalesced,
            3,
            "four riders, one barrier"
        );
        assert_eq!(
            after.io_fsyncs - before.io_fsyncs,
            1,
            "the shared barrier costs exactly one fsync"
        );
        assert!(after.double_buffer_overlap_ns > before.double_buffer_overlap_ns);
        drop(e);
    }

    /// Engine-mutex acquisitions made by the calling thread (see
    /// [`LOCKS_BY_THIS_THREAD`]): unlike `engine_lock_count`, a background
    /// installer waking up mid-test cannot move it.
    fn locks_by_this_thread() -> u64 {
        crate::shard::LOCKS_BY_THIS_THREAD.with(|n| n.get())
    }

    #[test]
    fn snapshot_reads_never_take_the_engine_mutex() {
        let reg = registry();
        let cfg = config(2);
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..16u64 {
            put_sync(&e, ObjectId(i), "mvcc");
        }
        let before = locks_by_this_thread();
        for _ in 0..8 {
            for i in 0..16u64 {
                assert_eq!(
                    e.read_value_snapshot(ObjectId(i)).unwrap(),
                    Value::from("mvcc")
                );
            }
        }
        assert_eq!(
            locks_by_this_thread(),
            before,
            "the snapshot read path must not acquire any engine mutex"
        );
        // The mutex path, by contrast, counts one acquisition per read.
        e.read_value(ObjectId(0)).unwrap();
        assert_eq!(locks_by_this_thread(), before + 1);
        assert!(e.engine_lock_count() > 0, "the public census counts too");
        drop(e);
    }

    #[test]
    fn snapshot_reads_complete_while_a_writer_holds_the_engine_lock() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        let x = ObjectId(7);
        put_sync(&e, x, "held");
        // Park a "writer" on the engine mutex; snapshot reads must not
        // block behind it.
        let guard = e.shards[0].lock_engine();
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("held"));
        let snap = e.open_snapshot(0).unwrap();
        assert_eq!(snap.read(x), Value::from("held"));
        drop(snap);
        drop(guard);
        drop(e);
    }

    #[test]
    fn snapshot_reads_observe_only_durable_state() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        let x = ObjectId(3);
        let t1 = put(&e, x, "v1");
        e.force_all().unwrap();
        assert!(t1.wait());
        // v2 executes but nobody asks for a force: the mutex path sees it
        // (uncommitted read), the snapshot path must not.
        let t2 = put(&e, x, "v2");
        assert!(!t2.is_durable());
        assert_eq!(e.read_value(x).unwrap(), Value::from("v2"));
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("v1"));
        e.force_all().unwrap();
        assert!(t2.wait());
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("v2"));
        drop(e);
    }

    #[test]
    fn checkpoint_gc_bounds_retention_and_respects_open_snapshots() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        let x = ObjectId(1);
        for i in 0..8 {
            put_sync(&e, x, &format!("v{i}"));
        }
        let pinned = e.open_snapshot(0).unwrap();
        let pinned_value = pinned.read(x);
        for i in 8..16 {
            put_sync(&e, x, &format!("v{i}"));
        }
        // Checkpoint runs the GC, but the open snapshot pins its floor:
        // the pinned read stays resolvable.
        e.checkpoint_shard(0, false).unwrap();
        assert_eq!(pinned.read(x), pinned_value);
        drop(pinned);
        // With the pin gone, the next GC collapses the chain to the floor
        // survivor.
        e.checkpoint_shard(0, false).unwrap();
        assert_eq!(e.shards[0].versions.chain_len(x), 1);
        assert_eq!(e.read_value_snapshot(x).unwrap(), Value::from("v15"));
        let snap = e.metrics_snapshot().aggregate;
        assert!(snap.versions_gced > 0, "GC must have reclaimed versions");
        assert!(snap.snapshot_oldest_si > 0, "GC floor gauge must advance");
        drop(e);
    }

    #[test]
    fn snapshot_reads_survive_recovery() {
        let reg = registry();
        let cfg = config(2);
        let e = ShardedEngine::new(cfg, &reg);
        for i in 0..32u64 {
            put_sync(&e, ObjectId(i), "pre");
        }
        let parts = e.crash();
        let (rec, _) = recover_sharded(parts, &reg, cfg, RedoPolicy::RsiExposed).unwrap();
        let before = locks_by_this_thread();
        for i in 0..32u64 {
            assert_eq!(
                rec.read_value_snapshot(ObjectId(i)).unwrap(),
                Value::from("pre"),
                "recovered state must be visible to snapshot reads"
            );
        }
        assert_eq!(locks_by_this_thread(), before);
        drop(rec);
    }

    #[test]
    fn floor_constrained_read_waits_for_the_acked_write() {
        let reg = registry();
        // A fresh put is not durable until someone asks for a force: the
        // floored read must ask for one and wait.
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        assert!(put(&e, ObjectId(1), "old").wait());

        let t = put(&e, ObjectId(1), "new");
        // Do NOT wait on the ticket: the floored read alone must deliver
        // read-your-writes for a client holding the acked LSN.
        let v = e
            .read_value_snapshot_at_least(ObjectId(1), t.target(), Duration::from_secs(10))
            .unwrap();
        assert_eq!(v, Value::from("new"));
        assert!(t.is_durable(), "floored read implies the op forced");

        // Floor ZERO degenerates to a plain snapshot read.
        let v0 = e
            .read_value_snapshot_at_least(ObjectId(1), Lsn::ZERO, Duration::from_secs(1))
            .unwrap();
        assert_eq!(v0, Value::from("new"));
        drop(e);
    }

    #[test]
    fn floor_beyond_any_write_times_out() {
        let reg = registry();
        let cfg = config(1);
        let e = ShardedEngine::new(cfg, &reg);
        let t = put_sync(&e, ObjectId(7), "v");
        let unreachable = Lsn(t.target().0 + 1_000_000);
        let err = e
            .read_value_snapshot_at_least(ObjectId(7), unreachable, Duration::from_millis(50))
            .unwrap_err();
        assert!(
            err.to_string().contains("session floor"),
            "expected a floor timeout, got: {err}"
        );
        drop(e);
    }
}
