//! File-system recovery (§1): a copy/sort pipeline over files, crash in
//! the middle, recovery — plus the §5 transient-object optimization
//! (deleted temp files are never re-created during redo).
//!
//! ```sh
//! cargo run --example fs_recovery
//! ```

use llog::core::{recover, Engine, EngineConfig, RedoPolicy};
use llog::domains::fs::FileSystem;
use llog::ops::TransformRegistry;
use llog_bench::sim::human_bytes;

fn main() {
    let registry = TransformRegistry::with_builtins();
    let mut engine = Engine::new(EngineConfig::default(), registry.clone());

    // Ingest a 1 MiB unsorted file (the only data that must be logged).
    let data: Vec<u8> = (0..1024 * 1024u32)
        .map(|i| (i.wrapping_mul(2_654_435_761)) as u8)
        .collect();
    FileSystem::ingest(&mut engine, "/data/input", &data).unwrap();
    engine.install_all().unwrap();
    engine.metrics().reset();

    // Pipeline: scratch copy → sort into the output → drop the scratch.
    FileSystem::copy(&mut engine, "/data/input", "/tmp/scratch").unwrap();
    FileSystem::sort(&mut engine, "/tmp/scratch", "/data/sorted").unwrap();
    FileSystem::append(&mut engine, "/data/sorted", b"\n#done").unwrap();
    FileSystem::delete(&mut engine, "/tmp/scratch").unwrap();

    let m = engine.metrics().snapshot();
    println!(
        "pipeline logged {} in {} records (copy and sort logged ids only)",
        human_bytes(m.log_bytes),
        m.log_records
    );

    // Crash with the log forced but nothing installed.
    engine.wal_mut().force();
    let want = FileSystem::read(&mut engine, "/data/sorted");
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
        "recovery: {} ops redone, {} bypassed (scratch-file work among them)",
        outcome.redone, outcome.skipped
    );

    let got = FileSystem::read(&mut recovered, "/data/sorted");
    assert_eq!(got, want, "sorted output survived the crash");
    assert!(
        FileSystem::read(&mut recovered, "/tmp/scratch").is_empty(),
        "the deleted scratch file stays deleted"
    );
    println!(
        "recovered /data/sorted intact ({}); /tmp/scratch stayed deleted ✓",
        human_bytes(got.len() as u64)
    );
}
