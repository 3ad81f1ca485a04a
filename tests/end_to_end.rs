//! Cross-crate lifecycle tests: long multi-phase runs combining the engine,
//! the domains, checkpoints, crashes and repeated recovery.

use llog::core::{recover, Engine, EngineConfig, FlushStrategy, GraphKind, RedoPolicy};
use llog::domains::app::{Application, WriteMode};
use llog::domains::btree::BTree;
use llog::domains::fs::FileSystem;
use llog::domains::register_domain_transforms;
use llog::ops::TransformRegistry;
use llog::sim::{replay_stable_log, verify_against_log, Workload, WorkloadKind};
use llog::types::{ObjectId, Value};

fn registry() -> TransformRegistry {
    let mut r = TransformRegistry::with_builtins();
    register_domain_transforms(&mut r);
    r
}

fn config() -> EngineConfig {
    EngineConfig {
        graph: GraphKind::RW,
        flush: FlushStrategy::IdentityWrites,
        audit: false,
    }
}

/// Run → crash → recover → run more → crash → recover → shutdown →
/// recover: three generations over one log, state always oracle-correct.
#[test]
fn three_generations_of_crashes() {
    let reg = registry();
    let mut engine = Engine::new(config(), reg.clone());

    let gen1 = Workload::new(8, 60, WorkloadKind::app_mix(), 42).generate();
    for s in &gen1 {
        engine
            .execute(
                s.kind,
                s.reads.clone(),
                s.writes.clone(),
                s.transform.clone(),
            )
            .unwrap();
    }
    engine.install_one().unwrap();
    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    let (mut engine, _) =
        recover(store, wal, reg.clone(), config(), RedoPolicy::RsiExposed).unwrap();
    verify_against_log(&engine, &reg).unwrap();

    // Generation 2: continue the same engine.
    let gen2 = Workload::new(8, 60, WorkloadKind::app_mix(), 43).generate();
    for s in &gen2 {
        engine
            .execute(
                s.kind,
                s.reads.clone(),
                s.writes.clone(),
                s.transform.clone(),
            )
            .unwrap();
    }
    engine.install_one().unwrap();
    engine.install_one().unwrap();
    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    let (mut engine, _) = recover(store, wal, reg.clone(), config(), RedoPolicy::Vsi).unwrap();
    verify_against_log(&engine, &reg).unwrap();

    // Generation 3: clean shutdown, then a final recovery finds nothing to
    // redo.
    let gen3 = Workload::new(8, 30, WorkloadKind::app_mix(), 44).generate();
    for s in &gen3 {
        engine
            .execute(
                s.kind,
                s.reads.clone(),
                s.writes.clone(),
                s.transform.clone(),
            )
            .unwrap();
    }
    let (store, wal) = engine.shutdown().unwrap();
    let (engine, out) = recover(store, wal, reg.clone(), config(), RedoPolicy::RsiExposed).unwrap();
    assert_eq!(out.redone, 0);
    verify_against_log(&engine, &reg).unwrap();
}

/// All three domains interleaved on one engine, with a crash in the middle.
#[test]
fn mixed_domain_workload_recovers() {
    let reg = registry();
    let mut engine = Engine::new(config(), reg.clone());

    // A file pipeline...
    FileSystem::ingest(&mut engine, "/data/in", b"some input bytes: dcba").unwrap();
    FileSystem::sort(&mut engine, "/data/in", "/data/sorted").unwrap();

    // ...a B-tree being loaded...
    let meta = ObjectId(0x7100_0000_0000_0000);
    let tree = BTree::create(&mut engine, meta, 4, true).unwrap();
    for k in 0..40u64 {
        tree.insert(&mut engine, k, &k.to_le_bytes()).unwrap();
        if k % 11 == 0 {
            engine.install_one().unwrap();
        }
    }

    // ...and an application reading the sorted file.
    let mut app = Application::new(ObjectId(0x7200_0000_0000_0000), WriteMode::Logical);
    app.step(&mut engine).unwrap();
    app.read_from(&mut engine, llog::domains::fs::file_id("/data/sorted"))
        .unwrap();
    app.write_to(&mut engine, llog::domains::fs::file_id("/data/report"))
        .unwrap();

    engine.checkpoint(false).unwrap();
    engine.wal_mut().force();
    let report_before = FileSystem::read(&mut engine, "/data/report");
    let (store, wal) = engine.crash();

    let (mut engine, _) =
        recover(store, wal, reg.clone(), config(), RedoPolicy::RsiExposed).unwrap();
    verify_against_log(&engine, &reg).unwrap();

    // Domain-level checks after recovery.
    let tree = BTree::open(&mut engine, meta, 4, true).unwrap();
    tree.check_invariants(&mut engine).unwrap();
    for k in 0..40u64 {
        assert_eq!(
            tree.get(&mut engine, k).unwrap(),
            Some(k.to_le_bytes().to_vec())
        );
    }
    assert_eq!(FileSystem::read(&mut engine, "/data/report"), report_before);
}

/// Cache pressure: evictions of clean objects must never break recovery.
#[test]
fn eviction_pressure_with_recovery() {
    let reg = registry();
    let mut engine = Engine::new(config(), reg.clone());
    let ops = Workload::new(10, 120, WorkloadKind::app_mix(), 7).generate();
    for (i, s) in ops.iter().enumerate() {
        engine
            .execute(
                s.kind,
                s.reads.clone(),
                s.writes.clone(),
                s.transform.clone(),
            )
            .unwrap();
        if i % 3 == 0 {
            engine.install_one().unwrap();
        }
        // Aggressively evict anything clean.
        for x in 0..10 {
            let _ = engine.evict(ObjectId(x));
        }
    }
    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    let (engine, _) = recover(store, wal, reg.clone(), config(), RedoPolicy::RsiExposed).unwrap();
    verify_against_log(&engine, &reg).unwrap();
}

/// Checkpoint + truncation across crashes: recovery must work from the
/// truncated log (the oracle needs adjusting, so check domain values
/// directly instead).
#[test]
fn truncated_log_recovery_preserves_values() {
    let reg = registry();
    let mut engine = Engine::new(config(), reg.clone());

    FileSystem::ingest(&mut engine, "/f", b"0123456789").unwrap();
    for i in 0..30u64 {
        FileSystem::append(&mut engine, "/f", &[b'a' + (i % 26) as u8]).unwrap();
        if i % 10 == 9 {
            engine.install_all().unwrap();
            engine.checkpoint(true).unwrap(); // truncates
        }
    }
    let want = FileSystem::read(&mut engine, "/f");
    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    assert!(
        wal.start_lsn() > llog::types::Lsn(1),
        "log must have been truncated"
    );

    let (mut engine, _) = recover(store, wal, reg, config(), RedoPolicy::RsiExposed).unwrap();
    assert_eq!(FileSystem::read(&mut engine, "/f"), want);
}

/// The stable log's oracle and the engine agree even when identity writes
/// pepper the log (identity write records replay as physical writes).
#[test]
fn identity_write_records_replay_correctly() {
    let reg = registry();
    let mut engine = Engine::new(config(), reg.clone());
    // Force multi-object sets repeatedly.
    for i in 0..10u64 {
        engine
            .execute(
                llog::ops::OpKind::Logical,
                vec![ObjectId(100)],
                vec![ObjectId(i * 2), ObjectId(i * 2 + 1)],
                llog::ops::Transform::new(
                    llog::ops::builtin::HASH_MIX,
                    Value::from_slice(&i.to_le_bytes()),
                ),
            )
            .unwrap();
        engine.install_all().unwrap();
    }
    assert!(engine.metrics().snapshot().identity_writes >= 10);
    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    let want = replay_stable_log(&wal, &reg).unwrap();
    let (engine, _) = recover(store, wal, reg, config(), RedoPolicy::RsiExposed).unwrap();
    for (&x, v) in &want {
        assert_eq!(&engine.peek_value(x), v, "object {x}");
    }
}
