//! Exhaustive crash-point matrix: for several workloads and cache-manager
//! configurations, crash after *every* operation count (and at torn-tail
//! byte offsets) and verify recovery against the replay oracle.

use llog::core::{EngineConfig, FlushStrategy, GraphKind, RedoPolicy};
use llog::engine::{recover_sharded, CommitTicket, ShardedConfig, ShardedEngine};
use llog::ops::{builtin, OpKind, Transform, TransformRegistry};
use llog::sim::{run_crash_recover_verify, CrashPoint, Workload, WorkloadKind};
use llog::types::{ObjectId, Value};

fn registry() -> TransformRegistry {
    TransformRegistry::with_builtins()
}

fn rw_config() -> EngineConfig {
    EngineConfig {
        graph: GraphKind::RW,
        flush: FlushStrategy::IdentityWrites,
        audit: false,
    }
}

#[test]
fn every_crash_point_recovers_app_mix() {
    let ops = Workload::new(7, 40, WorkloadKind::app_mix(), 1001).generate();
    for cut in 0..=ops.len() {
        run_crash_recover_verify(
            rw_config(),
            &registry(),
            &ops,
            3,
            CrashPoint::AfterOp(cut),
            RedoPolicy::RsiExposed,
        )
        .unwrap_or_else(|e| panic!("crash at {cut}: {e}"));
    }
}

#[test]
fn every_crash_point_recovers_under_vsi_policy() {
    let ops = Workload::new(7, 40, WorkloadKind::app_mix(), 1002).generate();
    for cut in 0..=ops.len() {
        run_crash_recover_verify(
            rw_config(),
            &registry(),
            &ops,
            3,
            CrashPoint::AfterOp(cut),
            RedoPolicy::Vsi,
        )
        .unwrap_or_else(|e| panic!("crash at {cut}: {e}"));
    }
}

#[test]
fn every_crash_point_recovers_with_flush_txns() {
    let cfg = EngineConfig {
        graph: GraphKind::RW,
        flush: FlushStrategy::FlushTxn,
        audit: false,
    };
    let ops = Workload::new(7, 40, WorkloadKind::app_mix(), 1003).generate();
    for cut in 0..=ops.len() {
        run_crash_recover_verify(
            cfg,
            &registry(),
            &ops,
            2,
            CrashPoint::AfterOp(cut),
            RedoPolicy::RsiExposed,
        )
        .unwrap_or_else(|e| panic!("crash at {cut}: {e}"));
    }
}

#[test]
fn every_crash_point_recovers_with_shadow_flushes() {
    let cfg = EngineConfig {
        graph: GraphKind::RW,
        flush: FlushStrategy::Shadow,
        audit: false,
    };
    let ops = Workload::new(7, 40, WorkloadKind::app_mix(), 1004).generate();
    for cut in 0..=ops.len() {
        run_crash_recover_verify(
            cfg,
            &registry(),
            &ops,
            2,
            CrashPoint::AfterOp(cut),
            RedoPolicy::RsiExposed,
        )
        .unwrap_or_else(|e| panic!("crash at {cut}: {e}"));
    }
}

#[test]
fn every_crash_point_recovers_under_w_graph() {
    let cfg = EngineConfig {
        graph: GraphKind::W,
        flush: FlushStrategy::FlushTxn,
        audit: false,
    };
    let ops = Workload::new(7, 40, WorkloadKind::app_mix(), 1005).generate();
    for cut in 0..=ops.len() {
        run_crash_recover_verify(
            cfg,
            &registry(),
            &ops,
            2,
            CrashPoint::AfterOp(cut),
            RedoPolicy::Vsi,
        )
        .unwrap_or_else(|e| panic!("crash at {cut}: {e}"));
    }
}

#[test]
fn torn_tail_bytes_sweep() {
    let ops = Workload::new(7, 25, WorkloadKind::app_mix(), 1006).generate();
    for torn in (0..400).step_by(7) {
        run_crash_recover_verify(
            rw_config(),
            &registry(),
            &ops,
            0,
            CrashPoint::TornTail(torn),
            RedoPolicy::RsiExposed,
        )
        .unwrap_or_else(|e| panic!("torn at {torn}: {e}"));
    }
}

#[test]
fn physiological_only_matrix() {
    let ops = Workload::new(5, 50, WorkloadKind::physiological_only(), 1007).generate();
    for cut in (0..=ops.len()).step_by(5) {
        for policy in [RedoPolicy::Vsi, RedoPolicy::RsiExposed] {
            run_crash_recover_verify(
                rw_config(),
                &registry(),
                &ops,
                4,
                CrashPoint::AfterOp(cut),
                policy,
            )
            .unwrap_or_else(|e| panic!("cut {cut} {policy:?}: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded crash matrix: the same durability contract, but across N engines
// behind one `ShardedEngine` handle with a group-commit pipeline.
// ---------------------------------------------------------------------------

fn shard_objects(e: &ShardedEngine, per: usize) -> Vec<Vec<ObjectId>> {
    (0..e.shards())
        .map(|s| e.router().objects_for_shard(s, per))
        .collect()
}

/// Run `n` shard-local logical ops round-robin across the shards, chaining
/// each shard's objects. Returns every ticket.
fn run_sharded_ops(
    e: &ShardedEngine,
    objs: &[Vec<ObjectId>],
    n: usize,
    tag: &str,
) -> Vec<CommitTicket> {
    (0..n)
        .map(|i| {
            let os = &objs[i % objs.len()];
            let round = i / objs.len();
            let a = os[round % os.len()];
            let b = os[(round + 1) % os.len()];
            let t = Transform::new(
                builtin::HASH_MIX,
                Value::from(format!("{tag}-{i}").into_bytes()),
            );
            e.execute(OpKind::Logical, vec![a, b], vec![b], t)
                .unwrap_or_else(|err| panic!("{tag} op {i}: {err}"))
        })
        .collect()
}

fn snapshot_values(e: &ShardedEngine, objs: &[Vec<ObjectId>]) -> Vec<(ObjectId, Value)> {
    objs.iter()
        .flatten()
        .map(|&x| (x, e.read_value(x).unwrap()))
        .collect()
}

/// Crash with acknowledged-but-uninstalled commits (phase A, forced) and
/// appended-but-unacknowledged operations (phase B, sitting in the group
/// commit buffer). Every acked commit must survive recovery; no unacked
/// operation may be falsely durable.
#[test]
fn sharded_crash_acked_commits_survive_unacked_do_not() {
    let reg = registry();
    let config = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let engine = ShardedEngine::new(config, &reg);
    let objs = shard_objects(&engine, 4);

    // Phase A: 40 ops, forced and acknowledged.
    let acked = run_sharded_ops(&engine, &objs, 40, "acked");
    engine.force_all().unwrap();
    for t in &acked {
        assert!(t.wait(), "forced commit must acknowledge");
    }
    let expected = snapshot_values(&engine, &objs);

    // Phase B: 20 more ops, never forced — nobody waits on them.
    let unacked = run_sharded_ops(&engine, &objs, 20, "unacked");
    for t in &unacked {
        assert!(!t.is_durable(), "unforced op must not claim durability");
    }

    let parts = engine.crash();
    for t in &unacked {
        assert!(!t.wait(), "crash must wake waiters with a negative answer");
        assert!(!t.is_durable());
    }

    let (recovered, outcomes) =
        recover_sharded(parts, &reg, config, RedoPolicy::RsiExposed).unwrap();
    let redone: u64 = outcomes.iter().map(|o| o.redone).sum();
    assert_eq!(redone, 40, "exactly the acked phase must be redone");
    for (x, want) in &expected {
        assert_eq!(
            recovered.read_value(*x).unwrap(),
            *want,
            "acked state of {x} lost"
        );
    }
}

/// Crash in the middle of a batch force: each shard's log keeps a torn
/// prefix of the unforced buffer. Recovery stops at the tear; everything
/// acknowledged before the batch survives on every shard.
#[test]
fn sharded_crash_mid_batch_force_leaves_torn_tails() {
    let reg = registry();
    let config = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let engine = ShardedEngine::new(config, &reg);
    let objs = shard_objects(&engine, 4);

    let acked = run_sharded_ops(&engine, &objs, 40, "acked");
    engine.force_all().unwrap();
    for t in &acked {
        assert!(t.wait());
    }
    let expected = snapshot_values(&engine, &objs);

    // A batch is buffered on every shard when the power fails mid-force:
    // shard 0 tears cleanly, the rest keep a few garbage bytes (all well
    // below one record, so no phase-B op can masquerade as durable).
    let _mid_batch = run_sharded_ops(&engine, &objs, 20, "mid-batch");
    let parts = engine.crash_torn(&[0, 5, 9, 13]);

    let (recovered, outcomes) =
        recover_sharded(parts, &reg, config, RedoPolicy::RsiExposed).unwrap();
    assert!(!outcomes[0].torn_tail, "shard 0 tore at a record boundary");
    let torn = outcomes.iter().filter(|o| o.torn_tail).count();
    assert!(torn >= 2, "partial tails must be detected (got {torn}/4)");
    let redone: u64 = outcomes.iter().map(|o| o.redone).sum();
    assert_eq!(redone, 40, "no torn-tail op may be replayed");
    for (x, want) in &expected {
        assert_eq!(recovered.read_value(*x).unwrap(), *want);
    }
}

/// Crash with shard 0 checkpointed (and its log truncated) while the other
/// shards never checkpoint. Checkpoints are a per-shard affair: recovery
/// starts from shard 0's checkpoint and from genesis elsewhere, and every
/// acknowledged commit survives on both kinds of shard.
#[test]
fn sharded_crash_with_one_shard_checkpointed() {
    let reg = registry();
    let config = ShardedConfig {
        shards: 4,
        ..ShardedConfig::default()
    };
    let engine = ShardedEngine::new(config, &reg);
    let objs = shard_objects(&engine, 4);

    let phase_a = run_sharded_ops(&engine, &objs, 40, "a");
    engine.force_all().unwrap();
    for t in &phase_a {
        assert!(t.wait());
    }
    // Install phase A everywhere so a checkpoint can advance its redo
    // point, then checkpoint only shard 0; `true` also truncates its log.
    engine.install_all().unwrap();
    engine.checkpoint_shard(0, true).unwrap();

    let phase_b = run_sharded_ops(&engine, &objs, 40, "b");
    engine.force_all().unwrap();
    for t in &phase_b {
        assert!(t.wait());
    }
    let expected = snapshot_values(&engine, &objs);

    let parts = engine.crash();
    let (recovered, outcomes) =
        recover_sharded(parts, &reg, config, RedoPolicy::RsiExposed).unwrap();
    assert!(
        outcomes[0].analysis_scanned < outcomes[1].analysis_scanned,
        "the checkpointed shard must scan less ({} vs {})",
        outcomes[0].analysis_scanned,
        outcomes[1].analysis_scanned
    );
    assert!(
        outcomes[0].redo_start > llog::types::Lsn(1),
        "shard 0 must redo from its checkpoint, not genesis"
    );
    for (x, want) in &expected {
        assert_eq!(recovered.read_value(*x).unwrap(), *want);
    }
}

/// Crash right after a checkpoint + version-GC cut (DESIGN §15): the GC
/// that rides `checkpoint_one` reclaims version chains — volatile state —
/// so the cut must change nothing the crash can expose. A snapshot pinned
/// across the cut keeps its pre-checkpoint view (GC may not reclaim what
/// a live snapshot resolves), and recovery rebuilds chains that serve the
/// same state as the mutex path.
#[test]
fn sharded_crash_after_checkpoint_gc_cut() {
    let reg = registry();
    let config = ShardedConfig {
        shards: 3,
        ..ShardedConfig::default()
    };
    let engine = ShardedEngine::new(config, &reg);
    let objs = shard_objects(&engine, 3);

    // Phase A: forced, acked, installed — then pin a snapshot per shard.
    let phase_a = run_sharded_ops(&engine, &objs, 30, "a");
    engine.force_all().unwrap();
    for t in &phase_a {
        assert!(t.wait());
    }
    engine.install_all().unwrap();
    let pins: Vec<_> = (0..engine.shards())
        .map(|i| engine.open_snapshot(i).unwrap())
        .collect();
    let pinned_view: Vec<(ObjectId, Value)> = objs
        .iter()
        .enumerate()
        .flat_map(|(i, os)| {
            let pin = &pins[i];
            os.iter().map(move |&x| (x, pin.read(x)))
        })
        .collect();

    // Phase B overwrites everything, then the checkpoint cut runs the
    // retention GC on every shard (floor held down by the pins).
    let phase_b = run_sharded_ops(&engine, &objs, 30, "b");
    engine.force_all().unwrap();
    for t in &phase_b {
        assert!(t.wait());
    }
    engine.install_all().unwrap();
    engine.checkpoint_all(true).unwrap();
    assert!(
        engine.metrics_snapshot().aggregate.versions_gced > 0,
        "the checkpoint cut must have reclaimed superseded versions"
    );
    for (x, want) in &pinned_view {
        let i = engine.router().shard_of(*x);
        assert_eq!(
            pins[i].read(*x),
            *want,
            "GC behind the checkpoint cut disturbed the pinned view of {x}"
        );
    }
    let expected = snapshot_values(&engine, &objs);

    // Crash at the cut; the truncated logs + store images must recover,
    // and the rebuilt version chains must agree with the mutex path.
    drop(pins);
    let parts = engine.crash();
    let (recovered, _) = recover_sharded(parts, &reg, config, RedoPolicy::RsiExposed).unwrap();
    for (x, want) in &expected {
        assert_eq!(
            recovered.read_value(*x).unwrap(),
            *want,
            "mutex-path state of {x} lost across the GC cut"
        );
        assert_eq!(
            recovered.read_value_snapshot(*x).unwrap(),
            *want,
            "rebuilt version chain for {x} diverges from the recovered state"
        );
    }
    let reopened = recovered.open_snapshot(0).unwrap();
    for (x, want) in &expected {
        if recovered.router().shard_of(*x) == 0 {
            assert_eq!(reopened.read(*x), *want);
        }
    }
}

// ---------------------------------------------------------------------------
// Differential recovery matrix: every crash image must recover to the same
// state and outcome through `recover` (the pipeline) and `recover_two_pass`
// (its two-scan reference).
// ---------------------------------------------------------------------------

fn state_fingerprint(e: &llog::core::Engine) -> String {
    format!(
        "{:?}|{:?}|{:?}",
        e.store().snapshot(),
        e.dirty_table(),
        e.live_op_ids()
    )
}

/// Recover one crash image both ways, assert they agree, and hand back the
/// pipeline's engine.
fn recover_both_ways(
    store: &llog::storage::StableStore,
    wal: &llog::wal::Wal,
    reg: &TransformRegistry,
    policy: RedoPolicy,
    ctx: &str,
) -> llog::core::Engine {
    let (re, ro) =
        llog::core::recover_two_pass(store.clone(), wal.clone(), reg.clone(), rw_config(), policy)
            .unwrap_or_else(|e| panic!("{ctx}: two-pass recovery failed: {e}"));
    let (pe, po) =
        llog::core::recover(store.clone(), wal.clone(), reg.clone(), rw_config(), policy)
            .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
    assert_eq!(po, ro, "{ctx}: outcome diverged from two-pass");
    assert_eq!(
        state_fingerprint(&pe),
        state_fingerprint(&re),
        "{ctx}: recovered state diverged from two-pass"
    );
    pe
}

/// Both ways agree on the crash image — and again on the image left by a
/// crash that hits right after recovery, before anything is installed.
fn assert_two_pass_agrees(
    store: &llog::storage::StableStore,
    wal: &llog::wal::Wal,
    reg: &TransformRegistry,
    policy: RedoPolicy,
    ctx: &str,
) {
    let (s2, w2) = recover_both_ways(store, wal, reg, policy, ctx).crash();
    recover_both_ways(&s2, &w2, reg, policy, &format!("{ctx}, crashed again"));
}

#[test]
fn recovery_modes_agree_on_every_crash_point() {
    let reg = registry();
    let ops = Workload::new(7, 40, WorkloadKind::app_mix(), 1009).generate();
    for cut in 0..=ops.len() {
        for policy in [RedoPolicy::Vsi, RedoPolicy::RsiExposed] {
            let mut engine = llog::core::Engine::new(rw_config(), reg.clone());
            llog::sim::run_workload(&mut engine, &ops[..cut], 3, 0).unwrap();
            engine.wal_mut().force();
            let (store, wal) = engine.crash();
            assert_two_pass_agrees(&store, &wal, &reg, policy, &format!("cut {cut} {policy:?}"));
        }
    }
}

#[test]
fn recovery_modes_agree_on_torn_tails() {
    let reg = registry();
    let ops = Workload::new(7, 30, WorkloadKind::app_mix(), 1010).generate();
    for torn in (0..400).step_by(13) {
        let mut engine = llog::core::Engine::new(rw_config(), reg.clone());
        // Force mid-stream so the torn tail lands beyond a real redo
        // range, then leave the rest of the workload unforced.
        llog::sim::run_workload(&mut engine, &ops[..20], 3, 0).unwrap();
        engine.wal_mut().force();
        llog::sim::run_workload(&mut engine, &ops[20..], 0, 0).unwrap();
        let (store, wal) = engine.crash_torn(torn);
        assert_two_pass_agrees(
            &store,
            &wal,
            &reg,
            RedoPolicy::RsiExposed,
            &format!("torn {torn}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Post-truncation device equivalence (DESIGN §11): after a checkpoint
// truncates the WAL, persisting through a durability backend must reclaim
// whole durable segments, and recovery from the device image must match
// recovery from the in-memory crash image — on both backends, which must
// also match each other byte for byte.
// ---------------------------------------------------------------------------

/// Smallest segment start LSN present in a file-backend log directory
/// (parsed from the `seg-{start:016x}.llog` names).
fn min_seg_start(log_dir: &std::path::Path) -> u64 {
    std::fs::read_dir(log_dir)
        .unwrap()
        .filter_map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            let hex = name.strip_prefix("seg-")?.strip_suffix(".llog")?;
            u64::from_str_radix(hex, 16).ok()
        })
        .min()
        .expect("file backend must hold at least one segment")
}

/// A unique, panic-safe temp dir for the file backend under test.
struct BackendDir(std::path::PathBuf);

impl BackendDir {
    fn new(tag: &str) -> BackendDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NONCE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "llog-crash-matrix-{tag}-{}-{}",
            std::process::id(),
            NONCE.fetch_add(1, Ordering::Relaxed)
        ));
        assert!(!dir.exists(), "temp dir collision: {}", dir.display());
        BackendDir(dir)
    }
}

impl Drop for BackendDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[test]
fn wal_truncation_reclaims_device_space_and_recovery_agrees() {
    use llog::core::recover;
    use llog_storage::device::DeviceConfig;
    use llog_storage::Metrics;
    use llog_wal::{DurabilityBackend, LOG_SUBDIR};

    let reg = registry();
    let ops = Workload::new(7, 40, WorkloadKind::app_mix(), 1011).generate();
    let mut engine = llog::core::Engine::new(rw_config(), reg.clone());

    // Phase A: first half, installed, forced, and persisted through both
    // devices (including the identity-write install records, so the
    // device's end reaches the future truncation point and the reclaim
    // runs as a truncation, not a window-gap reset).
    llog::sim::run_workload(&mut engine, &ops[..25], 3, 0).unwrap();
    engine.install_all().unwrap();
    engine.wal_mut().force();

    let cfg = DeviceConfig::small();
    let dir = BackendDir::new("reclaim");
    let mem_metrics = Metrics::new();
    let file_metrics = Metrics::new();
    let mut mem = DurabilityBackend::mem(mem_metrics.clone(), &cfg);
    let mut file =
        DurabilityBackend::file(&dir.0, file_metrics.clone(), &cfg).expect("file backend");
    mem.persist(engine.store(), engine.wal(), None).unwrap();
    file.persist(engine.store(), engine.wal(), None).unwrap();
    let floor_before = min_seg_start(&dir.0.join(LOG_SUBDIR));

    // Checkpoint with truncation: the WAL base advances past phase A.
    let base_before = engine.wal().start_lsn();
    engine.checkpoint(true).unwrap();
    let base_after = engine.wal().start_lsn();
    assert!(
        base_after > base_before,
        "checkpoint(true) must truncate the in-memory WAL ({base_before:?} -> {base_after:?})"
    );

    // Phase B, forced, persisted again: both devices must reclaim the
    // durable space below the new base (the bug this test pins down was
    // a file backend that kept every pre-truncation segment forever).
    llog::sim::run_workload(&mut engine, &ops[25..], 0, 0).unwrap();
    engine.wal_mut().force();
    mem.persist(engine.store(), engine.wal(), None).unwrap();
    file.persist(engine.store(), engine.wal(), None).unwrap();

    assert!(
        mem_metrics.snapshot().segments_reclaimed > 0,
        "mem backend reclaimed no segments after truncation"
    );
    assert!(
        file_metrics.snapshot().segments_reclaimed > 0,
        "file backend reclaimed no segments after truncation"
    );
    let floor_after = min_seg_start(&dir.0.join(LOG_SUBDIR));
    assert!(
        floor_after > floor_before,
        "whole segments below the new base must be deleted from disk \
         (floor stayed at {floor_before:#x})"
    );

    // Crash. Recovery from the in-memory pair is the ground truth.
    let (store, wal) = engine.crash();
    let (ge, go) = recover(
        store.clone(),
        wal.clone(),
        reg.clone(),
        rw_config(),
        RedoPolicy::RsiExposed,
    )
    .expect("in-memory recovery");

    let mut loaded = Vec::new();
    for (name, backend) in [("mem", &mem), ("file", &file)] {
        let (ds, dw) = backend
            .load(Metrics::new())
            .unwrap()
            .unwrap_or_else(|| panic!("{name}: nothing persisted"));
        // Truncation reclaim is segment-granular: the device may keep a
        // sub-segment prefix below the WAL's base, never the reverse.
        assert!(
            dw.start_lsn() <= wal.start_lsn(),
            "{name}: device base {:?} ran ahead of the WAL base {:?}",
            dw.start_lsn(),
            wal.start_lsn()
        );
        assert_eq!(
            dw.forced_lsn(),
            wal.forced_lsn(),
            "{name}: durable end diverged"
        );
        let image = (
            dw.start_lsn(),
            dw.master_checkpoint(),
            dw.ship_tail(dw.start_lsn(), usize::MAX).unwrap().to_vec(),
        );
        let (de, doo) = recover(ds, dw, reg.clone(), rw_config(), RedoPolicy::RsiExposed)
            .unwrap_or_else(|e| panic!("{name}: device recovery failed: {e}"));
        // The retained prefix records are installed, so they must all fail
        // the REDO test: same redo work, same recovered state.
        assert_eq!(doo.redone, go.redone, "{name}: redo work diverged");
        assert_eq!(doo.torn_tail, go.torn_tail, "{name}: tear status diverged");
        assert_eq!(
            state_fingerprint(&de),
            state_fingerprint(&ge),
            "{name}: recovered state diverged from in-memory recovery"
        );
        loaded.push((image, doo));
    }
    let (mem_loaded, file_loaded) = (&loaded[0], &loaded[1]);
    assert_eq!(
        mem_loaded.0, file_loaded.0,
        "mem and file logs diverged after truncation reclaim"
    );
    assert_eq!(
        mem_loaded.1, file_loaded.1,
        "mem and file recovery outcomes diverged"
    );
}

/// Sweep the checkpoint-truncation position across the workload: at every
/// cut, the device-persisted image must recover to the same state and
/// outcome as the in-memory crash image, on both backends.
#[test]
fn post_truncation_recovery_equivalence_sweep() {
    use llog::core::recover;
    use llog_storage::device::DeviceConfig;
    use llog_storage::Metrics;
    use llog_wal::DurabilityBackend;

    let reg = registry();
    let ops = Workload::new(5, 30, WorkloadKind::app_mix(), 1012).generate();
    let cfg = DeviceConfig::small();
    for cut in (5..30).step_by(5) {
        let mut engine = llog::core::Engine::new(rw_config(), reg.clone());
        llog::sim::run_workload(&mut engine, &ops[..cut], 2, 0).unwrap();
        engine.wal_mut().force();
        engine.install_all().unwrap();
        engine.checkpoint(true).unwrap();
        llog::sim::run_workload(&mut engine, &ops[cut..], 0, 0).unwrap();
        engine.wal_mut().force();

        let dir = BackendDir::new("sweep");
        let mut mem = DurabilityBackend::mem(Metrics::new(), &cfg);
        let mut file = DurabilityBackend::file(&dir.0, Metrics::new(), &cfg).expect("file backend");
        mem.persist(engine.store(), engine.wal(), None).unwrap();
        file.persist(engine.store(), engine.wal(), None).unwrap();

        let (store, wal) = engine.crash();
        let (ge, go) = recover(store, wal, reg.clone(), rw_config(), RedoPolicy::RsiExposed)
            .unwrap_or_else(|e| panic!("cut {cut}: in-memory recovery failed: {e}"));
        for (name, backend) in [("mem", &mem), ("file", &file)] {
            let (ds, dw) = backend.load(Metrics::new()).unwrap().unwrap();
            let (de, doo) = recover(ds, dw, reg.clone(), rw_config(), RedoPolicy::RsiExposed)
                .unwrap_or_else(|e| panic!("cut {cut} {name}: device recovery failed: {e}"));
            assert_eq!(doo, go, "cut {cut} {name}: outcome diverged");
            assert_eq!(
                state_fingerprint(&de),
                state_fingerprint(&ge),
                "cut {cut} {name}: state diverged"
            );
        }
    }
}

/// One store checkpointed into a mem and a file device holding the same
/// image: after the first (full) persist, a later persist appends the same
/// delta to both chains instead of writing a second full image.
#[test]
fn mem_and_file_devices_append_the_same_delta() {
    use llog_storage::device::DeviceConfig;
    use llog_storage::Metrics;
    use llog_wal::DurabilityBackend;

    let ops = Workload::new(7, 40, WorkloadKind::app_mix(), 1013).generate();
    let mut engine = llog::core::Engine::new(rw_config(), registry());
    let cfg = DeviceConfig::small();
    let dir = BackendDir::new("delta-pair");
    let mut mem = DurabilityBackend::mem(Metrics::new(), &cfg);
    let mut file = DurabilityBackend::file(&dir.0, Metrics::new(), &cfg).expect("file backend");

    for (round, part) in [&ops[..20], &ops[20..]].into_iter().enumerate() {
        llog::sim::run_workload(&mut engine, part, 3, 0).unwrap();
        engine.install_all().unwrap();
        engine.wal_mut().force();
        let m = mem.persist(engine.store(), engine.wal(), None).unwrap();
        let f = file.persist(engine.store(), engine.wal(), None).unwrap();
        assert_eq!(m.ckpt, f.ckpt, "round {round}: checkpoint stats diverged");
        assert!(m.ckpt.objects_written > 0, "round {round}: {m:?}");
        assert!(!m.ckpt.compacted, "round {round}: {m:?}");
        assert_eq!(mem.store_device().chain_len(), round + 1);
        assert_eq!(file.store_device().chain_len(), round + 1);
    }
    for backend in [&mem, &file] {
        let (store, _) = backend.load(Metrics::new()).unwrap().expect("persisted");
        assert_eq!(store.snapshot(), engine.store().snapshot());
    }
}

// ---------------------------------------------------------------------------
// Failover matrix (DESIGN §13): kill the primary at every crash cut × torn
// tail offset, ship its stable log to per-shard redo sessions in uneven
// chunks, promote, and check the promoted replica against both the acked
// snapshot (nothing acknowledged is lost) and a real recovery of the same
// crash image (nothing unacknowledged appears).
// ---------------------------------------------------------------------------

/// Ship one crashed shard to a fresh redo session (manifest + chunked log
/// tail, exactly the `Subscribe` protocol's shapes) and promote it.
fn ship_and_promote(
    pstore: &llog::storage::StableStore,
    pwal: &llog::wal::Wal,
    reg: &TransformRegistry,
    chunk: usize,
) -> llog::core::Engine {
    use llog::core::RedoSession;
    use llog::storage::{Metrics, StableStore};
    use llog::wal::Wal;

    // Attach image: the store bytes plus the log base, as ship_manifest
    // would serve them.
    let image = llog::storage::device::encode_image(pstore.iter());
    let mut rstore = StableStore::new(Metrics::new());
    rstore.restore(llog::storage::device::decode_image(&image).unwrap());
    let rwal = Wal::from_shipped(Metrics::new(), pwal.start_lsn().0, pwal.master_checkpoint());
    let (mut session, _) = RedoSession::begin(
        rstore,
        rwal,
        reg.clone(),
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )
    .expect("replica attach");

    // The server never ships past the durable (contiguous, CRC-valid)
    // cut; everything below it arrives in uneven chunks.
    let durable = pwal.contiguous_end(pwal.start_lsn());
    loop {
        let from = session.stable_end();
        if from >= durable {
            break;
        }
        let max = chunk.min((durable.0 - from.0) as usize);
        let bytes = pwal.ship_tail(from, max).expect("ship_tail").to_vec();
        assert!(!bytes.is_empty(), "shipping stalled below the durable cut");
        session.extend(from, &bytes).expect("replica extend");
    }
    session.promote().expect("promotion")
}

#[test]
fn failover_matrix_promoted_replica_keeps_acked_drops_unacked() {
    use llog::core::recover;
    use llog::repl::visible_divergence;

    let reg = registry();
    let config = ShardedConfig {
        shards: 2,
        ..ShardedConfig::default()
    };
    let chunk_sizes = [7usize, 23, 64, 257, usize::MAX];

    for cut in (0..=30).step_by(3) {
        for (t, torn) in [0usize, 1, 5, 9, 17].into_iter().enumerate() {
            let engine = ShardedEngine::new(config, &reg);
            let objs = shard_objects(&engine, 4);

            // Phase A: `cut` acked ops (forced, acknowledged).
            let acked = run_sharded_ops(&engine, &objs, cut, "acked");
            engine.force_all().unwrap();
            for ticket in &acked {
                assert!(ticket.wait(), "forced commit must acknowledge");
            }
            let expected = snapshot_values(&engine, &objs);

            // Phase B: ops the primary never acknowledged, then the kill —
            // each shard's log keeps `torn` garbage bytes of the buffer.
            let _unacked = run_sharded_ops(&engine, &objs, 12, "unacked");
            let parts = engine.crash_torn(&[torn, torn + 2]);

            let chunk = chunk_sizes[(cut / 3 + t) % chunk_sizes.len()];
            let mut promoted = Vec::new();
            for (shard, (pstore, pwal)) in parts.iter().enumerate() {
                let replica = ship_and_promote(pstore, pwal, &reg, chunk);
                // The generalized differential oracle: the promoted
                // replica is indistinguishable from real recovery of the
                // same crash image.
                let (oracle, _) = recover(
                    pstore.clone(),
                    pwal.clone(),
                    reg.clone(),
                    EngineConfig::default(),
                    RedoPolicy::RsiExposed,
                )
                .unwrap();
                if let Some(diff) = visible_divergence(&oracle, &replica) {
                    panic!("cut {cut} torn {torn} shard {shard}: {diff}");
                }
                promoted.push(replica);
            }

            // Acked pairs survive; unacked writes never appear (they would
            // have moved these same objects off their acked values).
            let failed_over = ShardedEngine::from_engines(config, promoted);
            for (x, want) in &expected {
                assert_eq!(
                    &failed_over.read_value(*x).unwrap(),
                    want,
                    "cut {cut} torn {torn}: object {x} diverged after failover"
                );
            }
        }
    }
}

#[test]
fn delete_heavy_workload_matrix() {
    let mix = WorkloadKind {
        logical_update: 30,
        logical_blind: 20,
        physiological: 10,
        physical: 15,
        delete: 25,
    };
    let ops = Workload::new(6, 60, mix, 1008).generate();
    for cut in (0..=ops.len()).step_by(4) {
        run_crash_recover_verify(
            rw_config(),
            &registry(),
            &ops,
            3,
            CrashPoint::AfterOp(cut),
            RedoPolicy::RsiExposed,
        )
        .unwrap_or_else(|e| panic!("cut {cut}: {e}"));
    }
}

// ---------------------------------------------------------------------------
// Hot-path device crash matrix (DESIGN §14): coalesced force barriers,
// double-buffered appends and recycled segments must all uphold the same
// contract — nothing acknowledged is lost, nothing unacknowledged is
// acknowledged, and recovery never mistakes a hot-path artifact (a torn
// in-flight batch, a recycled segment's ghost frames) for corruption.
// ---------------------------------------------------------------------------

/// A shard-local blind put through the sharded engine.
fn sput(e: &ShardedEngine, x: ObjectId, v: &str) -> Result<CommitTicket, llog::types::LlogError> {
    e.execute(
        OpKind::Physical,
        vec![],
        vec![x],
        Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
    )
}

/// Crash inside a coalesced barrier: two shards ride one shared fsync and
/// the fsync dies. Neither rider may acknowledge — a shard must never ack
/// on the strength of a barrier that did not reach stable storage — the
/// failed barrier kills both riders, and after a crash the acked base
/// state survives on both shards.
#[test]
fn crash_inside_coalesced_barrier_acks_nothing_past_the_shared_fsync() {
    use llog::testkit::faults::{failpoint, FaultHost, FaultKind};
    use llog_storage::device::DeviceConfig;
    use llog_storage::Metrics;
    use llog_wal::DurabilityBackend;
    use std::sync::Arc;

    let reg = registry();
    let config = ShardedConfig {
        shards: 2,
        ..ShardedConfig::default()
    };
    let host = Arc::new(FaultHost::new());
    let engine = ShardedEngine::new_with_faults(config, &reg, Some(host.clone()));
    engine.attach_backends(
        (0..2)
            .map(|_| DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small()))
            .collect(),
    );
    let r = engine.router();
    let a = ObjectId(0);
    let b = (1..)
        .map(ObjectId)
        .find(|&x| r.shard_of(x) != r.shard_of(a))
        .unwrap();

    // Acked base state on both shards.
    let base_a = sput(&engine, a, "base-a").unwrap();
    let base_b = sput(&engine, b, "base-b").unwrap();
    engine.force_all().unwrap();
    assert!(base_a.wait() && base_b.wait());

    // One batch pending per shard; `force_all` puts both shards in one
    // barrier by construction, and that barrier's fsync fails.
    let doomed_a = sput(&engine, a, "doomed-a").unwrap();
    let doomed_b = sput(&engine, b, "doomed-b").unwrap();
    host.arm(failpoint::SCHED_SYNC, FaultKind::IoError);
    assert!(engine.force_all().is_err(), "rider of a dead barrier acked");
    assert_eq!(
        host.fired().len(),
        1,
        "both shards must have ridden ONE shared barrier"
    );
    assert!(!doomed_a.is_durable() && !doomed_b.is_durable());
    // A failed sync kills every rider of the barrier: neither shard takes
    // more work, and no later barrier may ack what the failed one staged.
    for x in [a, b] {
        assert!(sput(&engine, x, "late").is_err(), "{x}'s shard survived");
    }
    assert!(!doomed_a.wait() && !doomed_b.wait());

    // Power off. The dead riders' batches are in the commit-outcome-
    // UNKNOWN state (the staged bytes may have reached the device even
    // though no fsync covered them), so each object must recover to its
    // acked base value or to the never-acked doomed value — never to
    // anything else, and never with the acked base lost.
    let parts = engine.crash();
    let (recovered, _) = recover_sharded(parts, &reg, config, RedoPolicy::RsiExposed).unwrap();
    for (x, base, doomed) in [(a, "base-a", "doomed-a"), (b, "base-b", "doomed-b")] {
        let got = recovered.read_value(x).unwrap();
        assert!(
            got == Value::from(base) || got == Value::from(doomed),
            "object {x} recovered to {got:?}, neither its acked nor its unacked write"
        );
    }
}

/// Crash between the double-buffer swap and the fsync: the batch was
/// swapped into the in-flight slot and the device tore three bytes into
/// writing it. The shard dies without acking, and recovery clips the torn
/// tail as a tear — it must never classify the partial frame as
/// mid-log corruption.
#[test]
fn crash_between_double_buffer_swap_and_fsync_clips_torn_tail() {
    use llog::testkit::faults::{failpoint, FaultHost, FaultKind};
    use std::sync::Arc;

    let reg = registry();
    let config = ShardedConfig {
        shards: 1,
        ..ShardedConfig::default()
    };
    let host = Arc::new(FaultHost::new());
    let engine = ShardedEngine::new_with_faults(config, &reg, Some(host.clone()));

    let base = sput(&engine, ObjectId(0), "base").unwrap();
    engine.force_all().unwrap();
    assert!(base.wait());

    // The swap happens, then the write into stable tears mid-frame.
    host.arm(
        failpoint::FLUSHER_FORCE,
        FaultKind::TornWrite { at_byte: 3 },
    );
    let doomed = sput(&engine, ObjectId(0), "doomed").unwrap();
    assert!(engine.force_shard(0).is_err(), "torn barrier must not ack");
    assert!(!doomed.wait() && !doomed.is_durable());

    let parts = engine.crash_torn(&[]);
    let (recovered, outcomes) =
        recover_sharded(parts, &reg, config, RedoPolicy::RsiExposed).unwrap();
    assert!(
        outcomes[0].torn_tail,
        "the partial frame must be clipped as a torn tail, got {outcomes:?}"
    );
    assert_eq!(
        recovered.read_value(ObjectId(0)).unwrap(),
        Value::from("base")
    );
}

/// Recovery over a recycled segment: run a workload across a truncating
/// checkpoint on devices whose retired segments are recycled, so the tail
/// of the log lands in a *recycled* blob that physically still holds its previous
/// life's frames beyond the live bytes. Device recovery must clip the
/// ghosts and agree exactly with recovery from the in-memory crash image,
/// on both backends.
#[test]
fn recovery_over_recycled_segment_matches_in_memory_recovery() {
    use llog::core::recover;
    use llog_storage::device::DeviceConfig;
    use llog_storage::Metrics;
    use llog_wal::DurabilityBackend;

    let reg = registry();
    let ops = Workload::new(7, 40, WorkloadKind::app_mix(), 1013).generate();
    let cfg = DeviceConfig::small();
    let dir = BackendDir::new("recycle");
    let mem_metrics = Metrics::new();
    let file_metrics = Metrics::new();
    let mut engine = llog::core::Engine::new(rw_config(), reg.clone());
    let mut mem = DurabilityBackend::mem(mem_metrics.clone(), &cfg);
    let mut file =
        DurabilityBackend::file(&dir.0, file_metrics.clone(), &cfg).expect("file backend");

    // Phase A on the devices, then a truncating checkpoint: the devices
    // reclaim the phase-A segments and park them for recycling.
    llog::sim::run_workload(&mut engine, &ops[..25], 3, 0).unwrap();
    engine.install_all().unwrap();
    engine.wal_mut().force();
    mem.persist(engine.store(), engine.wal(), None).unwrap();
    file.persist(engine.store(), engine.wal(), None).unwrap();
    engine.checkpoint(true).unwrap();
    mem.persist(engine.store(), engine.wal(), None).unwrap();
    file.persist(engine.store(), engine.wal(), None).unwrap();

    // Phase B rotates into recycled blobs whose previous life's frames are
    // physically still there beyond the live tail.
    llog::sim::run_workload(&mut engine, &ops[25..], 0, 0).unwrap();
    engine.wal_mut().force();
    mem.persist(engine.store(), engine.wal(), None).unwrap();
    file.persist(engine.store(), engine.wal(), None).unwrap();
    for (name, m) in [("mem", &mem_metrics), ("file", &file_metrics)] {
        assert!(
            m.snapshot().segments_recycled > 0,
            "{name}: phase B never adopted a recycled segment"
        );
    }

    // Ground truth: recovery from the in-memory crash image.
    let (store, wal) = engine.crash();
    let (ge, go) = recover(store, wal, reg.clone(), rw_config(), RedoPolicy::RsiExposed)
        .expect("in-memory recovery");

    for (name, backend) in [("mem", &mem), ("file", &file)] {
        let (ds, dw) = backend
            .load(Metrics::new())
            .unwrap()
            .unwrap_or_else(|| panic!("{name}: nothing persisted"));
        let (de, doo) = recover(ds, dw, reg.clone(), rw_config(), RedoPolicy::RsiExposed)
            .unwrap_or_else(|e| panic!("{name}: recovery over recycled segment failed: {e}"));
        assert!(!doo.torn_tail, "{name}: ghosts misread as a torn tail");
        assert_eq!(doo.redone, go.redone, "{name}: redo work diverged");
        assert_eq!(
            state_fingerprint(&de),
            state_fingerprint(&ge),
            "{name}: recovered state diverged over a recycled segment"
        );
    }
}

/// A kill inside `DurabilityBackend::persist`, in each of its steps and
/// between each pair of them: (1) log tail sync, (2) store checkpoint,
/// (3) master and truncation. A checkpoint's persist fails at a device
/// failpoint and the shard dies there. The reboot through
/// `recover_sharded_from_backends` must show every acked put and no value
/// of an op the log device lacks, and its next op must not reuse an LSN.
#[test]
fn a_kill_between_persist_steps_keeps_acked_puts_and_reuses_no_lsn() {
    use llog::engine::recover_sharded_from_backends;
    use llog::testkit::faults::{failpoint, FaultHost, FaultKind};
    use llog::types::Lsn;
    use llog_storage::device::DeviceConfig;
    use llog_storage::Metrics;
    use llog_wal::DurabilityBackend;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    let reg = registry();
    let config = ShardedConfig {
        shards: 1,
        ..ShardedConfig::default()
    };
    let reboot = |backends: Vec<DurabilityBackend>| {
        let openers = backends.into_iter().map(|b| move || Ok(b)).collect();
        let (e, _, backends) = recover_sharded_from_backends(openers, &reg, config).unwrap();
        e.attach_backends(backends);
        e
    };
    let detach = |e: ShardedEngine| -> Vec<DurabilityBackend> {
        let backends = e.take_backends().into_iter().flatten().collect();
        drop(e.crash());
        backends
    };
    // (failpoint, the kill lands after step 1, after step 2)
    let kills = [
        (failpoint::DEV_LOG_APPEND, false, false),
        (failpoint::DEV_STORE_DELTA, true, false),
        (failpoint::DEV_STORE_MANIFEST, true, false),
        (failpoint::DEV_LOG_MANIFEST, true, true),
    ];
    for (point, log_synced, store_checkpointed) in kills {
        let host = Arc::new(FaultHost::new());
        let e = ShardedEngine::new_with_faults(config, &reg, Some(host.clone()));
        e.attach_backend(
            0,
            DurabilityBackend::mem(Metrics::new(), &DeviceConfig::default()),
        );
        let key = |i: u64| ObjectId(i % 6);
        // Every put to each key in order: (value, LSN, acked).
        let mut puts: BTreeMap<ObjectId, Vec<(String, Lsn, bool)>> = BTreeMap::new();
        let mut put = |i: u64, tag: &str, wait: bool| {
            let v = format!("{tag}{i}");
            let t = sput(&e, key(i), &v).unwrap();
            let acked = wait && t.wait();
            assert_eq!(acked, wait, "{point}: put {v}");
            puts.entry(key(i)).or_default().push((v, t.lsn(), acked));
        };
        // Acked and checkpointed; acked and installed; acked only; unacked.
        // The acked-only puts hold the truncation cut below the log
        // device's end, so all three steps have work to do.
        for i in 0..12 {
            put(i, "a", true);
        }
        e.install_all().unwrap();
        e.checkpoint_shard(0, true).unwrap();
        for i in 0..4 {
            put(i, "b", true);
        }
        e.install_all().unwrap();
        for i in 0..2 {
            put(i, "c", true);
        }
        for i in 2..8 {
            put(i, "u", false);
        }
        let synced_before = e.durable_lsn(0);

        host.arm(point, FaultKind::IoError);
        assert!(e.checkpoint_shard(0, true).is_err(), "{point}");
        assert_eq!(host.fired().len(), 1, "{point}");
        let backends = detach(e);
        let log_end = backends[0].log().durable_end();
        let (store, _) = backends[0].load(Metrics::new()).unwrap().unwrap();
        assert_eq!(log_end > synced_before, log_synced, "{point}: log tail");
        assert_eq!(
            store.installed_through() == log_end,
            store_checkpointed,
            "{point}: store checkpoint"
        );

        let e = reboot(backends);
        for (x, history) in &puts {
            let got = e.read_value(*x).unwrap();
            let last_acked = history.iter().rposition(|(_, _, acked)| *acked).unwrap();
            let allowed = history[last_acked..]
                .iter()
                .enumerate()
                .filter(|&(n, (_, lsn, _))| n == 0 || *lsn < log_end)
                .any(|(_, (v, _, _))| got == Value::from(v.as_str()));
            assert!(allowed, "{point}: {x} reads {got:?} of {history:?}");
        }
        let fresh = sput(&e, key(0), "c").unwrap();
        assert!(fresh.wait(), "{point}: put after reboot");
        assert!(
            fresh.lsn() >= log_end && fresh.lsn() >= store.installed_through(),
            "{point}: reused LSN {}",
            fresh.lsn()
        );
        let e = reboot(detach(e));
        assert_eq!(e.read_value(key(0)).unwrap(), Value::from("c"), "{point}");
    }
}
