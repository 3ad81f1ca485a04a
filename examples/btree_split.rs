//! Database recovery (§1): a B+-tree whose page splits are logged
//! logically — the new page's contents never reach the log — surviving a
//! crash mid-bulk-load.
//!
//! ```sh
//! cargo run --example btree_split
//! ```

use llog::core::{recover, Engine, EngineConfig, RedoPolicy};
use llog::domains::{btree::BTree, register_domain_transforms};
use llog::ops::TransformRegistry;
use llog::types::ObjectId;
use llog_bench::sim::human_bytes;

const META: ObjectId = ObjectId(0x7000_0000_0000_0000);

fn load(logical_splits: bool) -> u64 {
    let mut registry = TransformRegistry::with_builtins();
    register_domain_transforms(&mut registry);
    let mut engine = Engine::new(EngineConfig::default(), registry);
    let tree = BTree::create(&mut engine, META, 16, logical_splits).unwrap();
    engine.metrics().reset();
    for k in 0..2000u64 {
        let key = k.wrapping_mul(2_654_435_761) % 2000;
        tree.insert(&mut engine, key, &key.to_be_bytes().repeat(8))
            .unwrap();
    }
    engine.metrics().snapshot().log_bytes
}

fn main() {
    // Compare split logging cost.
    let logical = load(true);
    let physio = load(false);
    println!("bulk-loading 2000 keys (64 B values, order-16 pages):");
    println!("  logical splits        : {} logged", human_bytes(logical));
    println!("  physiological splits  : {} logged", human_bytes(physio));
    println!("  (the difference is the new-page images the logical split never logs)\n");

    // Crash mid-load and recover.
    let mut registry = TransformRegistry::with_builtins();
    register_domain_transforms(&mut registry);
    let mut engine = Engine::new(EngineConfig::default(), registry.clone());
    let tree = BTree::create(&mut engine, META, 8, true).unwrap();
    for k in 0..500u64 {
        tree.insert(&mut engine, k, &k.to_le_bytes()).unwrap();
        if k % 50 == 0 {
            engine.install_one().unwrap();
        }
        if k % 120 == 0 {
            engine.checkpoint(false).unwrap();
        }
    }
    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    let (mut recovered, outcome) = recover(
        store,
        wal,
        registry,
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    println!(
        "crash after 500 inserts: recovery redid {} ops, skipped {}",
        outcome.redone, outcome.skipped
    );

    let tree = BTree::open(&mut recovered, META, 8, true).unwrap();
    tree.check_invariants(&mut recovered).unwrap();
    for k in 0..500u64 {
        assert_eq!(
            tree.get(&mut recovered, k).unwrap(),
            Some(k.to_le_bytes().to_vec()),
            "key {k} lost"
        );
    }
    println!("all 500 keys present, tree invariants hold ✓");
}
