//! Continuous redo: a recovery that never stops.
//!
//! A [`RedoSession`] is the replica-side replay engine of log shipping. It
//! begins with an ordinary single-pass recovery over the shipped `(store
//! image, log prefix)` pair, then *keeps replaying* as further stable bytes
//! arrive from the primary, maintaining a **replayed-LSN watermark**: the
//! end of the last contiguously replayed frame. Reads are served at the
//! watermark cut — the engine state *is* that cut, because replay is
//! strictly in log order and stops at the first incomplete frame.
//!
//! Soundness of the two-phase scheme:
//!
//! - Records up to the attach-time durable cut may already be reflected in
//!   the shipped store image, so they go through the real recovery REDO
//!   test in [`RedoSession::begin`] (never blindly re-applied — logical
//!   operations are not idempotent).
//! - Records past that cut are reflected in **no** shipped state, and the
//!   replica's cache mirrors the primary's execution exactly (same ops,
//!   same order, same inputs), so [`Engine::apply_logged`] replays them
//!   verbatim. `Install`/`FlushTxn`/`Checkpoint` records describe the
//!   *primary's* cache-manager activity and are skipped: the replica
//!   keeps every replayed effect dirty in its own cache, so the visible
//!   value of every object (cache over store) is identical at the cut.
//!
//! A session must not install, evict or checkpoint before promotion: those
//! would append the replica's own records to a log whose tail the primary
//! still owns. [`RedoSession::promote`] ends the session — it seals the
//! log at the watermark (discarding any torn or unreplayed suffix) and
//! returns the engine, now writable and indistinguishable from a freshly
//! recovered primary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use llog_core::{recover, Engine, EngineConfig, RecoveryOutcome, RedoPolicy};
use llog_core::{Snapshot, SnapshotRegistry};
use llog_ops::TransformRegistry;
use llog_storage::{StableStore, VersionStore};
use llog_types::{LlogError, Lsn, ObjectId, Result, Value};
use llog_wal::{LogRecord, Wal};

/// An incremental redo session over a shipped log (see the module docs).
pub struct RedoSession {
    engine: Engine,
    watermark: Lsn,
    /// The watermark, shared with lock-free [`ReplicaReader`]s. Published
    /// with `Release` only after every record at or below it has been
    /// applied (and its versions published), so a reader that `Acquire`s it
    /// sees a complete cut.
    watermark_cell: Arc<AtomicU64>,
    versions: Arc<VersionStore>,
    registry: Arc<SnapshotRegistry>,
}

impl RedoSession {
    /// Start a session over a shipped `(store, wal)` pair: run a full
    /// single-pass recovery (REDO-test discipline for every record already
    /// covered by the store image), then position the watermark at the end
    /// of the last complete, valid frame.
    pub fn begin(
        store: StableStore,
        wal: Wal,
        registry: TransformRegistry,
        config: EngineConfig,
        policy: RedoPolicy,
    ) -> Result<(RedoSession, RecoveryOutcome)> {
        let (mut engine, outcome) = recover(store, wal, registry, config, policy)?;
        let watermark = engine.wal().contiguous_end(engine.wal().start_lsn());
        let versions = engine.enable_versions();
        Ok((
            RedoSession {
                engine,
                watermark,
                watermark_cell: Arc::new(AtomicU64::new(watermark.0)),
                versions,
                registry: SnapshotRegistry::new(),
            },
            outcome,
        ))
    }

    /// The replayed-LSN watermark: the consistent cut reads are served at,
    /// and the address the replica reports back to the primary.
    pub fn watermark(&self) -> Lsn {
        self.watermark
    }

    /// The stable end of the session's log — where the next shipped chunk
    /// should start. May sit past the watermark when the tail holds a
    /// partial frame awaiting its remainder.
    pub fn stable_end(&self) -> Lsn {
        self.engine.wal().forced_lsn()
    }

    /// The underlying engine (read-only access; e.g. for fingerprinting in
    /// divergence oracles).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Read `x` at the watermark cut without disturbing cache state.
    pub fn read(&self, x: ObjectId) -> Value {
        self.engine.peek_value(x)
    }

    /// A lock-free read handle over this session's version chains.
    ///
    /// The handle outlives borrows of the session: it reads at whatever
    /// watermark the replay loop has published, without the caller holding
    /// any lock that replay needs (see [`ReplicaReader`]).
    pub fn reader(&self) -> ReplicaReader {
        ReplicaReader {
            versions: self.versions.clone(),
            watermark: self.watermark_cell.clone(),
        }
    }

    /// Open a pinned snapshot at the current watermark: a consistent cut
    /// that GC will not reclaim under, even as replay advances.
    pub fn open_snapshot(&self) -> Snapshot {
        let cell = self.watermark_cell.clone();
        self.registry.open(self.versions.clone(), move || {
            Lsn(cell.load(Ordering::Acquire))
        })
    }

    fn set_watermark(&mut self, w: Lsn) {
        self.watermark = w;
        self.watermark_cell.store(w.0, Ordering::Release);
    }

    /// Ingest shipped stable bytes starting at log address `at` and replay
    /// every newly completed frame. Duplicate and overlapping delivery is
    /// tolerated (the held prefix is skipped); a gap is rejected with
    /// [`LlogError::LsnOutOfRange`] and the caller refetches from
    /// [`stable_end`](Self::stable_end). Returns the number of operation
    /// records replayed.
    pub fn extend(&mut self, at: Lsn, bytes: &[u8]) -> Result<u64> {
        let end = self.engine.wal_mut().extend_stable(at, bytes)?;
        // Collect the newly replayable records first (the scan borrows the
        // wal; apply_logged needs the whole engine), stopping at the first
        // torn or corrupt frame — a later extend may complete it.
        let mut recs = Vec::new();
        let mut stop = None;
        for item in self.engine.wal().scan(self.watermark) {
            match item {
                Ok(r) => recs.push(r),
                Err(LlogError::Corrupt { offset, .. }) => {
                    stop = Some(Lsn(offset));
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        let tail = stop.unwrap_or(end);
        let mut applied = 0;
        for (k, (lsn, rec)) in recs.iter().enumerate() {
            if let LogRecord::Op(op) = rec {
                if let Err(e) = self.engine.apply_logged(op, *lsn) {
                    // Records before this frame are applied. Pin the
                    // watermark at the failed frame's start so the
                    // session's visible cut still matches its state as
                    // the error propagates — a stale watermark would
                    // make the next extend re-scan and re-apply those
                    // non-idempotent records, silently diverging the
                    // replica. (The record that failed may itself have
                    // mutated state; callers that intend to keep the
                    // session alive must rebuild it instead.)
                    self.set_watermark(*lsn);
                    return Err(e);
                }
                applied += 1;
            }
            // This frame is replayed (or skippable): the cut moves to
            // its end, which is the next frame's start.
            self.set_watermark(recs.get(k + 1).map_or(tail, |&(next, _)| next));
        }
        self.set_watermark(tail);
        // Bounded retention: reclaim versions no open snapshot (and no
        // reader at the new watermark) can still resolve.
        self.versions
            .gc(self.registry.floor_with(|| self.watermark));
        Ok(applied)
    }

    /// Promote the replica: seal the log at the watermark (the torn or
    /// unreplayed suffix is discarded — those writes were never replayed,
    /// so the returned engine's state matches its log exactly) and hand
    /// back the engine, ready for writes.
    pub fn promote(mut self) -> Result<Engine> {
        self.engine.wal_mut().seal_to(self.watermark)?;
        Ok(self.engine)
    }
}

/// A lock-free consistent-read handle over a replica's version chains.
///
/// Reads resolve at the session's replayed-LSN watermark via
/// [`VersionStore::read_coherent`]: the watermark is sampled under the
/// chains read lock, so a read never observes a half-applied frame and
/// never races the session's retention GC. Crucially, the handle shares no
/// lock with the replay loop — serving reads can no longer stall redo, and
/// redo can no longer stall reads.
#[derive(Clone)]
pub struct ReplicaReader {
    versions: Arc<VersionStore>,
    watermark: Arc<AtomicU64>,
}

impl ReplicaReader {
    /// Read `x` at the current replayed watermark.
    pub fn read(&self, x: ObjectId) -> Value {
        let cell = &self.watermark;
        self.versions
            .read_coherent(x, || Lsn(cell.load(Ordering::Acquire)))
            .0
    }

    /// The watermark this reader would currently resolve at.
    pub fn watermark(&self) -> Lsn {
        Lsn(self.watermark.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_core::{FlushStrategy, GraphKind};
    use llog_ops::{builtin, OpKind, Transform};
    use llog_storage::Metrics;
    use llog_types::ObjectId;

    fn config() -> EngineConfig {
        EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: true,
        }
    }

    fn fresh_engine() -> Engine {
        Engine::new(config(), TransformRegistry::with_builtins())
    }

    fn put(e: &mut Engine, x: u64, v: &[u8]) {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(x)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from_slice(v)]),
            ),
        )
        .unwrap();
    }

    /// Ship a primary's full stable image into a fresh session and check
    /// the replica converges to the primary's visible state.
    #[test]
    fn session_tracks_primary_through_incremental_shipping() {
        let mut primary = fresh_engine();
        for i in 0..4 {
            put(&mut primary, i, format!("seed-{i}").as_bytes());
        }
        primary.wal_mut().force();
        let attach_cut = primary.wal().forced_lsn();

        // Attach: empty store image + the log prefix up to the durable cut.
        let metrics = Metrics::new();
        let mut wal = Wal::from_shipped(metrics.clone(), primary.wal().start_lsn().0, None);
        let prefix = primary
            .wal()
            .ship_tail(primary.wal().start_lsn(), usize::MAX)
            .unwrap()
            .to_vec();
        wal.extend_stable(primary.wal().start_lsn(), &prefix)
            .unwrap();
        let (mut session, outcome) = RedoSession::begin(
            StableStore::new(metrics),
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        assert_eq!(outcome.redone, 4);
        assert_eq!(session.watermark(), attach_cut);

        // Primary keeps writing; ship the new tail in two uneven chunks.
        for i in 0..4 {
            put(&mut primary, i, format!("live-{i}").as_bytes());
        }
        primary.wal_mut().force();
        let tail = primary
            .wal()
            .ship_tail(attach_cut, usize::MAX)
            .unwrap()
            .to_vec();
        let cut = tail.len() / 3;
        let applied = session.extend(attach_cut, &tail[..cut]).unwrap();
        let mid = session.stable_end();
        let applied2 = session
            .extend(mid, &tail[(mid.0 - attach_cut.0) as usize..])
            .unwrap();
        assert_eq!(applied + applied2, 4);
        assert_eq!(session.watermark(), primary.wal().forced_lsn());
        for i in 0..4 {
            assert_eq!(
                session.read(ObjectId(i)),
                primary.peek_value(ObjectId(i)),
                "object {i} diverged"
            );
        }
    }

    /// A torn trailing frame parks under the watermark until completed;
    /// promotion before completion seals it away.
    #[test]
    fn torn_tail_is_invisible_and_sealed_at_promotion() {
        let mut primary = fresh_engine();
        put(&mut primary, 1, b"committed");
        primary.wal_mut().force();
        let durable = primary.wal().forced_lsn();
        put(&mut primary, 2, b"in-flight");
        // Simulate a torn force: only part of the last frame reaches the
        // replica (as if the primary crashed mid-send).
        let (_, torn_wal) = primary.crash_torn(5);
        let all = torn_wal
            .ship_tail(torn_wal.start_lsn(), usize::MAX)
            .unwrap()
            .to_vec();

        let metrics = Metrics::new();
        let mut wal = Wal::from_shipped(metrics.clone(), torn_wal.start_lsn().0, None);
        wal.extend_stable(torn_wal.start_lsn(), &all).unwrap();
        let (session, _) = RedoSession::begin(
            StableStore::new(metrics),
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        assert_eq!(session.watermark(), durable);
        assert!(session.read(ObjectId(2)).is_empty());
        assert_eq!(session.read(ObjectId(1)), Value::from_slice(b"committed"));

        let mut engine = session.promote().unwrap();
        assert_eq!(engine.wal().forced_lsn(), durable);
        // The promoted engine is writable and allocates fresh op ids.
        put(&mut engine, 2, b"post-promote");
        engine.wal_mut().force();
        assert_eq!(
            engine.peek_value(ObjectId(2)),
            Value::from_slice(b"post-promote")
        );
        assert!(engine.audit_explainable().unwrap());
    }

    /// Gap delivery is rejected and leaves the session consistent.
    #[test]
    fn gaps_are_rejected_without_corrupting_the_session() {
        let mut primary = fresh_engine();
        put(&mut primary, 1, b"a");
        primary.wal_mut().force();
        let metrics = Metrics::new();
        let wal = Wal::from_shipped(metrics.clone(), primary.wal().start_lsn().0, None);
        let (mut session, _) = RedoSession::begin(
            StableStore::new(metrics),
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        let bytes = primary
            .wal()
            .ship_tail(primary.wal().start_lsn(), usize::MAX)
            .unwrap()
            .to_vec();
        // Deliver at an address past the stable end: gap.
        let err = session
            .extend(primary.wal().forced_lsn(), &bytes)
            .unwrap_err();
        assert!(matches!(err, LlogError::LsnOutOfRange { .. }));
        // Correct delivery still lands.
        session.extend(session.stable_end(), &bytes).unwrap();
        assert_eq!(session.read(ObjectId(1)), Value::from_slice(b"a"));
    }

    /// Lock-free readers and pinned snapshots track the watermark: a
    /// reader follows replay forward, a snapshot stays at its cut, and the
    /// session's retention GC never reclaims under the pinned snapshot.
    #[test]
    fn readers_and_snapshots_follow_the_watermark() {
        let mut primary = fresh_engine();
        put(&mut primary, 1, b"v1");
        primary.wal_mut().force();
        let cut1 = primary.wal().forced_lsn();

        let metrics = Metrics::new();
        let wal = Wal::from_shipped(metrics.clone(), primary.wal().start_lsn().0, None);
        let (mut session, _) = RedoSession::begin(
            StableStore::new(metrics),
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        let reader = session.reader();
        let first = primary
            .wal()
            .ship_tail(primary.wal().start_lsn(), usize::MAX)
            .unwrap()
            .to_vec();
        session.extend(session.stable_end(), &first).unwrap();
        assert_eq!(reader.watermark(), cut1);
        assert_eq!(reader.read(ObjectId(1)), Value::from_slice(b"v1"));

        // Pin a snapshot at the current cut, then replay an overwrite.
        let snap = session.open_snapshot();
        put(&mut primary, 1, b"v2");
        primary.wal_mut().force();
        let tail = primary.wal().ship_tail(cut1, usize::MAX).unwrap().to_vec();
        session.extend(cut1, &tail).unwrap();

        // The reader moved with replay; the snapshot did not — and the
        // extend-time GC kept its version alive.
        assert_eq!(reader.read(ObjectId(1)), Value::from_slice(b"v2"));
        assert_eq!(snap.read(ObjectId(1)), Value::from_slice(b"v1"));
        drop(snap);

        // With the pin gone, the next extend's GC may reclaim v1.
        put(&mut primary, 2, b"x");
        primary.wal_mut().force();
        let at = session.stable_end();
        let tail = primary.wal().ship_tail(at, usize::MAX).unwrap().to_vec();
        session.extend(at, &tail).unwrap();
        assert_eq!(reader.read(ObjectId(1)), Value::from_slice(b"v2"));
    }

    /// A record the replica cannot replay must surface the error *and*
    /// advance the watermark over the frames that did apply — a stale
    /// watermark would make the next extend re-scan and re-apply those
    /// non-idempotent records, silently diverging the replica.
    #[test]
    fn extend_failure_pins_watermark_at_failed_frame() {
        use llog_types::FnId;
        use std::sync::Arc;

        struct Fixed;
        impl llog_ops::TransformFn for Fixed {
            fn name(&self) -> &'static str {
                "fixed"
            }
            fn apply(
                &self,
                _params: &[u8],
                _inputs: &[Value],
                n_outputs: usize,
            ) -> llog_types::Result<Vec<Value>> {
                Ok(vec![Value::from("fixed"); n_outputs])
            }
        }

        // The primary knows a transform the replica does not.
        let custom = FnId(200);
        let mut reg = TransformRegistry::with_builtins();
        reg.register(custom, Arc::new(Fixed));
        let mut primary = Engine::new(config(), reg);
        put(&mut primary, 1, b"known");
        primary.wal_mut().force();
        let failed_frame = primary.wal().forced_lsn();
        primary
            .execute(
                OpKind::Logical,
                vec![],
                vec![ObjectId(2)],
                Transform::new(custom, Value::empty()),
            )
            .unwrap();
        put(&mut primary, 3, b"after");
        primary.wal_mut().force();

        let metrics = Metrics::new();
        let wal = Wal::from_shipped(metrics.clone(), primary.wal().start_lsn().0, None);
        let (mut session, _) = RedoSession::begin(
            StableStore::new(metrics),
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        let bytes = primary
            .wal()
            .ship_tail(primary.wal().start_lsn(), usize::MAX)
            .unwrap()
            .to_vec();
        let err = session.extend(session.stable_end(), &bytes).unwrap_err();
        assert!(matches!(err, LlogError::UnknownTransform(id) if id == custom));
        // The first record replayed and is visible; the watermark covers
        // exactly that prefix — not Lsn::ZERO (stale) and not the full
        // extension (records 2 and 3 never applied).
        assert_eq!(session.watermark(), failed_frame);
        assert_eq!(session.read(ObjectId(1)), Value::from_slice(b"known"));
        assert!(session.read(ObjectId(3)).is_empty());
    }
}
