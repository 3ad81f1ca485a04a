//! A durable message queue (a fourth "new domain"): producers and a
//! consumer over one recovery engine, a crash mid-stream, and a recovery
//! that skips every consumed message's payload write (§5's transient-object
//! optimization).
//!
//! ```sh
//! cargo run --example message_queue
//! ```

use llog::core::{recover, Engine, EngineConfig, RedoPolicy};
use llog::domains::queue::Queue;
use llog::ops::TransformRegistry;
use llog_bench::sim::human_bytes;

fn main() {
    let registry = TransformRegistry::with_builtins();
    let mut engine = Engine::new(EngineConfig::default(), registry.clone());
    let q = Queue::new(1);

    // Produce 500 messages of 1 KiB, consuming all but a backlog of 5.
    for i in 0..500u64 {
        q.enqueue(&mut engine, &vec![i as u8; 1024]).unwrap();
        if i >= 5 {
            q.ack(&mut engine).unwrap();
        }
        if i % 50 == 0 {
            engine.install_one().unwrap();
        }
    }
    let m = engine.metrics().snapshot();
    println!(
        "produced 500 x 1 KiB messages, consumed 495 (backlog 5); log {}",
        human_bytes(m.log_bytes)
    );

    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    println!("crash!");

    let (mut recovered, outcome) = recover(
        store,
        wal,
        registry,
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    println!(
        "recovery: {} ops redone, {} skipped — the consumed messages' payload \
         writes are transient and bypassed",
        outcome.redone, outcome.skipped
    );

    assert_eq!(q.len(&mut recovered).unwrap(), 5);
    let mut drained = 0;
    while let Some(payload) = q.ack(&mut recovered).unwrap() {
        assert_eq!(payload.len(), 1024);
        drained += 1;
    }
    assert_eq!(drained, 5);
    println!("backlog of 5 drained intact after recovery ✓");
}
