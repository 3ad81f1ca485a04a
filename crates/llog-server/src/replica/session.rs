//! Continuous redo: a recovery that never stops.
//!
//! [`replay`] is the standby's one replay step. It ingests shipped stable
//! bytes into a recovered engine's log and replays every newly completed
//! frame, advancing a **replayed-LSN watermark**: the end of the last
//! contiguously replayed frame. The engine state *is* that cut, because
//! replay is strictly in log order and stops at the first incomplete frame.
//! A standby [`ShardedEngine`] runs it per shard under the shard's engine
//! lock ([`ShardedEngine::replay_shard`]), whose durable watermark is the
//! replayed one; a [`RedoSession`] runs it over one engine it owns.
//!
//! Soundness of the two-phase scheme:
//!
//! - Records up to the attach-time durable cut may already be reflected in
//!   the shipped store image, so they go through the real recovery REDO
//!   test ([`recover`], never blindly re-applied — logical operations are
//!   not idempotent).
//! - Records past that cut are reflected in **no** shipped state, and the
//!   replica's cache mirrors the primary's execution exactly (same ops,
//!   same order, same inputs), so [`Engine::apply_logged`] replays them
//!   verbatim. `Install`/`FlushTxn`/`Checkpoint` records describe the
//!   *primary's* cache-manager activity and are skipped: the replica
//!   keeps every replayed effect dirty in its own cache, so the visible
//!   value of every object (cache over store) is identical at the cut.
//!
//! A standby must not install, evict or checkpoint before promotion: those
//! would append the replica's own records to a log whose tail the primary
//! still owns. Promotion seals the log at the watermark (discarding any
//! torn or unreplayed suffix) and reopens the engine for writes.
//!
//! [`ShardedEngine`]: llog_engine::ShardedEngine
//! [`ShardedEngine::replay_shard`]: llog_engine::ShardedEngine::replay_shard

use llog_core::{recover, Engine, EngineConfig, RecoveryOutcome, RedoPolicy};
use llog_ops::TransformRegistry;
use llog_storage::StableStore;
use llog_types::{LlogError, Lsn, ObjectId, Result, Value};
use llog_wal::{LogRecord, Wal};

/// A single-shard redo session over a shipped log: [`recover`](fn@recover),
/// then replay steps ([`extend`](Self::extend)), then a seal. The standby
/// runs the same steps per shard inside a
/// [`ShardedEngine`](llog_engine::ShardedEngine).
pub struct RedoSession {
    engine: Engine,
    watermark: Lsn,
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
        let (engine, outcome) = recover(store, wal, registry, config, policy)?;
        let watermark = engine.wal().contiguous_end(engine.wal().start_lsn());
        Ok((RedoSession { engine, watermark }, outcome))
    }

    /// The replayed-LSN watermark: the consistent cut the session's state
    /// is at.
    pub fn watermark(&self) -> Lsn {
        self.watermark
    }

    /// The stable end of the session's log — where the next shipped chunk
    /// should start. May sit past the watermark when the tail holds a
    /// partial frame awaiting its remainder.
    pub fn stable_end(&self) -> Lsn {
        self.engine.wal().forced_lsn()
    }

    /// Read `x` at the watermark cut without disturbing cache state.
    pub fn read(&self, x: ObjectId) -> Value {
        self.engine.peek_value(x)
    }

    /// One replay step (see the module docs) over the session's engine:
    /// ingest shipped stable bytes starting at log address `at` and
    /// replay every newly completed frame. Returns the number of
    /// operation records replayed; a gap is an
    /// [`LlogError::LsnOutOfRange`] and the caller refetches from
    /// [`stable_end`](Self::stable_end).
    pub fn extend(&mut self, at: Lsn, bytes: &[u8]) -> Result<u64> {
        replay(&mut self.engine, &mut self.watermark, at, bytes)
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

/// Ingest shipped stable bytes starting at log address `at` into `engine`'s
/// log and replay every newly completed frame past `watermark`, moving it
/// to the end of the last replayed frame. Duplicate and overlapping
/// delivery is tolerated (the held prefix is skipped); a gap is rejected
/// with [`LlogError::LsnOutOfRange`] and the caller refetches from the
/// log's stable end. Returns the number of operation records replayed.
///
/// A record that fails to replay leaves `watermark` at its frame's start,
/// so the visible cut still matches the state as the error propagates — a
/// stale watermark would make the next step re-scan and re-apply those
/// non-idempotent records, silently diverging the replica. (The failed
/// record may itself have mutated state; a caller that keeps the shard
/// alive must rebuild it.)
pub(crate) fn replay(
    engine: &mut Engine,
    watermark: &mut Lsn,
    at: Lsn,
    bytes: &[u8],
) -> Result<u64> {
    let end = engine.wal_mut().extend_stable(at, bytes)?;
    // Collect the newly replayable records first (the scan borrows the
    // wal; apply_logged needs the whole engine), stopping at the first
    // torn or corrupt frame — a later step may complete it.
    let mut recs = Vec::new();
    let mut stop = None;
    for item in engine.wal().scan(*watermark) {
        match item {
            Ok(r) => recs.push(r),
            Err(LlogError::Corrupt { offset, .. }) => {
                stop = Some(Lsn(offset));
                break;
            }
            Err(e) => return Err(e),
        }
    }
    let mut applied = 0;
    for (lsn, rec) in &recs {
        if let LogRecord::Op(op) = rec {
            if let Err(e) = engine.apply_logged(op, *lsn) {
                *watermark = *lsn;
                return Err(e);
            }
            applied += 1;
        }
    }
    *watermark = stop.unwrap_or(end);
    Ok(applied)
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

    /// A standby's snapshot reads track its replayed watermark: a read
    /// follows replay forward, a pinned snapshot stays at its cut, and the
    /// replay step's retention GC never reclaims under the pinned snapshot.
    #[test]
    fn standby_reads_and_snapshots_follow_the_watermark() {
        use llog_engine::{ShardedConfig, ShardedEngine};

        let mut primary = fresh_engine();
        put(&mut primary, 1, b"v1");
        primary.wal_mut().force();
        let cut1 = primary.wal().forced_lsn();

        let metrics = Metrics::new();
        let wal = Wal::from_shipped(metrics.clone(), primary.wal().start_lsn().0, None);
        let (engine, _) = recover(
            StableStore::new(metrics),
            wal,
            TransformRegistry::with_builtins(),
            config(),
            RedoPolicy::Vsi,
        )
        .unwrap();
        let config = ShardedConfig {
            shards: 1,
            ..ShardedConfig::default()
        };
        let standby = ShardedEngine::standby(config, vec![engine]);
        let step = |at: Lsn, bytes: Vec<u8>| {
            standby
                .replay_shard(0, |e, wm| replay(e, wm, at, &bytes))
                .unwrap()
        };
        let x = ObjectId(1);
        let start = primary.wal().start_lsn();
        step(
            start,
            primary.wal().ship_tail(start, usize::MAX).unwrap().to_vec(),
        );
        assert_eq!(standby.durable_lsn(0), cut1);
        assert_eq!(
            standby.read_value_snapshot(x).unwrap(),
            Value::from_slice(b"v1")
        );

        // Pin a snapshot at the current cut, then replay an overwrite.
        let snap = standby.open_snapshot_for(x).unwrap();
        put(&mut primary, 1, b"v2");
        primary.wal_mut().force();
        step(
            cut1,
            primary.wal().ship_tail(cut1, usize::MAX).unwrap().to_vec(),
        );

        // The read moved with replay; the snapshot did not — and the
        // step's GC kept its version alive.
        assert_eq!(
            standby.read_value_snapshot(x).unwrap(),
            Value::from_slice(b"v2")
        );
        assert_eq!(snap.read(x), Value::from_slice(b"v1"));
        let gced = || standby.metrics_snapshot().aggregate.versions_gced;
        assert_eq!(gced(), 0, "v1 is pinned");
        drop(snap);

        // With the pin gone, the next step's GC reclaims v1.
        put(&mut primary, 2, b"x");
        primary.wal_mut().force();
        let at = standby.durable_lsn(0);
        step(
            at,
            primary.wal().ship_tail(at, usize::MAX).unwrap().to_vec(),
        );
        assert_eq!(
            standby.read_value_snapshot(x).unwrap(),
            Value::from_slice(b"v2")
        );
        assert_eq!(gced(), 1, "v1 is reclaimed once unpinned");
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
