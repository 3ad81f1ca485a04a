//! Sharded engine with a group-commit durability pipeline: committer
//! threads write through four hash-sharded engines while each shard's
//! background installer drains its write graph, each acknowledgment waits
//! on a batched log force, then a simultaneous crash of all shards and a
//! parallel recovery prove every acknowledged commit survived.
//!
//! ```sh
//! cargo run --example sharded_engine
//! ```

use llog::core::RedoPolicy;
use llog::engine::{recover_sharded, ShardedConfig, ShardedEngine};
use llog::ops::{builtin, OpKind, Transform, TransformRegistry};
use llog::types::{ObjectId, Value};

fn main() {
    let registry = TransformRegistry::with_builtins();
    let config = ShardedConfig {
        shards: 4,
        // Background cache manager: keep each shard's uninstalled window
        // under 25 ops (the paper's "second reason" for flushing, §3:
        // a short uninstalled tail is a short recovery).
        install_high_water: 25,
        ..ShardedConfig::default()
    };
    let engine = ShardedEngine::new(config, &registry);

    // Two committers per shard, each owning four of the shard's objects
    // (the router hands out ids that hash there). `execute` returns a
    // ticket and `wait` blocks until the shard's flusher has forced a
    // batch covering the op — two waiters per shard means the flusher
    // gets real batches to amortize.
    let per_committer: Vec<Vec<ObjectId>> = (0..engine.shards())
        .flat_map(|s| {
            let objs = engine.router().objects_for_shard(s, 8);
            [objs[..4].to_vec(), objs[4..].to_vec()]
        })
        .collect();
    std::thread::scope(|scope| {
        for objs in &per_committer {
            scope.spawn(|| {
                for i in 0..100u64 {
                    let x = objs[(i % objs.len() as u64) as usize];
                    let ticket = engine
                        .execute(
                            OpKind::Physical,
                            vec![],
                            vec![x],
                            Transform::new(
                                builtin::CONST,
                                builtin::encode_values(&[Value::from_slice(&i.to_le_bytes())]),
                            ),
                        )
                        .unwrap();
                    assert!(ticket.wait(), "commit acknowledged");
                }
            });
        }
    });

    let snap = engine.metrics_snapshot();
    let total_ops = per_committer.len() * 100;
    println!(
        "{} committers x 100 ops: {} log forces for {} ops across {} shards \
         ({} batches, mean batch {:.1})",
        per_committer.len(),
        snap.aggregate.log_forces,
        total_ops,
        snap.shards,
        snap.group_commit.batches,
        snap.group_commit.mean_batch()
    );
    assert!(
        (snap.aggregate.log_forces as usize) < total_ops,
        "group commit must force fewer times than it commits"
    );

    // Power failure: every shard crashes at once. Whatever the flushers
    // had not yet forced is gone — but every acknowledged ticket's op was
    // covered by a force, so nothing acknowledged can be lost.
    let parts = engine.crash();
    println!(
        "crash: {} shard images survive; {} objects already stable (the installers' work), \
         the logs hold the rest",
        parts.len(),
        parts.iter().map(|(store, _)| store.len()).sum::<usize>()
    );

    let (recovered, outcomes) =
        recover_sharded(parts, &registry, config, RedoPolicy::RsiExposed).unwrap();
    for (i, o) in outcomes.iter().enumerate() {
        println!("  shard {i}: {} redone, {} skipped", o.redone, o.skipped);
    }
    for objs in &per_committer {
        for (idx, &x) in objs.iter().enumerate() {
            // Each object's last acknowledged write is the highest i that
            // hit it: 100 ops round-robin over 4 objects → last round.
            let last = (0..100u64).filter(|i| i % 4 == idx as u64).max().unwrap();
            assert_eq!(
                recovered.read_value(x).unwrap(),
                Value::from_slice(&last.to_le_bytes())
            );
        }
    }
    println!(
        "all {} objects intact after crash + parallel recovery ✓",
        4 * 8
    );
}
