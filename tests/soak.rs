//! Soak test: every feature at once, across multiple crash generations.
//!
//! A bounded-cache engine runs mixed workloads interleaved with B-tree and
//! queue traffic, periodic checkpoints that truncate into a log archive,
//! a fuzzy snapshot backup mid-stream, and repeated crashes — finishing
//! with both a crash recovery and a from-backup media recovery, each
//! validated against golden values captured before the failures.

use llog::core::{media_recover_archived, recover, BackupMode, Engine, EngineConfig, RedoPolicy};
use llog::domains::btree::BTree;
use llog::domains::queue::Queue;
use llog::domains::register_domain_transforms;
use llog::ops::TransformRegistry;
use llog::types::ObjectId;
use llog::wal::LogArchive;
use llog_bench::sim::{Workload, WorkloadKind};

fn registry() -> TransformRegistry {
    let mut r = TransformRegistry::with_builtins();
    register_domain_transforms(&mut r);
    r
}

#[test]
fn everything_at_once_over_three_generations() {
    let reg = registry();
    let mut engine = Engine::new(EngineConfig::default(), reg.clone());
    engine.set_cache_capacity(Some(24));
    let mut archive = LogArchive::new();

    let meta = ObjectId(0x7300_0000_0000_0000);
    let tree = BTree::create(&mut engine, meta, 6, true).unwrap();
    let q = Queue::new(1);
    let mut backup = None;

    let mut next_key = 0u64;
    for generation in 0..3 {
        let specs = Workload::new(12, 150, WorkloadKind::app_mix(), 900 + generation).generate();
        for (i, s) in specs.iter().enumerate() {
            engine
                .execute(
                    s.kind,
                    s.reads.clone(),
                    s.writes.clone(),
                    s.transform.clone(),
                )
                .unwrap();
            // Interleave domain traffic.
            if i % 5 == 0 {
                tree.insert(&mut engine, next_key, &next_key.to_le_bytes())
                    .unwrap();
                next_key += 1;
            }
            if i % 7 == 0 {
                q.enqueue(&mut engine, &[generation as u8, i as u8])
                    .unwrap();
            }
            if i % 11 == 0 && !q.is_empty(&mut engine).unwrap() {
                q.ack(&mut engine).unwrap();
            }
            if i % 13 == 0 {
                engine.install_one().unwrap();
            }
            // Periodic checkpoint, truncating into the archive (respecting
            // an in-progress backup's pin).
            if i % 40 == 39 {
                engine.install_all().unwrap();
                engine.checkpoint_archiving(&mut archive).unwrap();
            }
        }

        // Take the fuzzy backup during generation 1.
        if generation == 1 {
            engine.begin_backup(BackupMode::Snapshot).unwrap();
            engine.backup_step(8).unwrap();
            // some more work happens while the sweep is mid-flight
            tree.insert(&mut engine, 10_000, b"mid-backup").unwrap();
            backup = Some(engine.finish_backup().unwrap());
        }

        // Crash and recover between generations.
        engine.wal_mut().force();
        let (store, wal) = engine.crash();
        let (recovered, _) = recover(
            store,
            wal,
            reg.clone(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        engine = recovered;
        engine.set_cache_capacity(Some(24));

        // Domain state must be intact after every generation.
        let t = BTree::open(&mut engine, meta, 6, true).unwrap();
        t.check_invariants(&mut engine).unwrap();
        for k in 0..next_key {
            assert_eq!(
                t.get(&mut engine, k).unwrap(),
                Some(k.to_le_bytes().to_vec()),
                "gen {generation}: key {k} lost"
            );
        }
    }

    // Golden state before the final media failure.
    engine.install_all().unwrap();
    engine.wal_mut().force();
    let golden_tree = {
        let t = BTree::open(&mut engine, meta, 6, true).unwrap();
        t.scan_all(&mut engine).unwrap()
    };
    let golden_backlog = q.len(&mut engine).unwrap();
    assert!(!engine.read_value(meta).is_empty());

    // Media failure: the store is destroyed; archive + live log + backup
    // must restore the current state.
    let (_lost_store, wal) = engine.crash();
    let backup = backup.expect("backup was taken in generation 1");
    let (mut restored, out) = media_recover_archived(
        &backup,
        &archive,
        wal,
        reg.clone(),
        EngineConfig::default(),
        RedoPolicy::Vsi,
    )
    .unwrap();
    assert!(out.redone > 0);

    let t = BTree::open(&mut restored, meta, 6, true).unwrap();
    t.check_invariants(&mut restored).unwrap();
    assert_eq!(t.scan_all(&mut restored).unwrap(), golden_tree);
    assert_eq!(q.len(&mut restored).unwrap(), golden_backlog);
    assert_eq!(
        t.get(&mut restored, 10_000).unwrap(),
        Some(b"mid-backup".to_vec())
    );
    // And the restored engine keeps working.
    t.insert(&mut restored, 20_000, b"after-restore").unwrap();
    restored.install_all().unwrap();
    assert_eq!(
        t.get(&mut restored, 20_000).unwrap(),
        Some(b"after-restore".to_vec())
    );
}
