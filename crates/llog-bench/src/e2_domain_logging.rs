//! E2 — §1 + Table 1: logging cost per recovery domain.
//!
//! Three scenarios, each run with the paper's logical operations and with
//! the value-logging fallback:
//!
//! - **application**: a session of `Ex`/`R`/`W` over inputs of size S,
//!   with `W_L(A,X)` (this paper) vs `W_P(X,v)` (\[Lomet98\]);
//! - **file system**: ingest + copy + sort of an S-byte file, logical vs
//!   physically-logged copies;
//! - **B-tree**: bulk inserts with logical vs physiological page splits.

use llog_core::Engine;
use llog_domains::app::{Application, WriteMode};
use llog_domains::btree::BTree;
use llog_domains::fs::FileSystem;
use llog_domains::register_domain_transforms;
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_types::{ObjectId, Value};

use crate::default_config;
use crate::sim::{human_bytes, Table};

fn registry() -> TransformRegistry {
    let mut r = TransformRegistry::with_builtins();
    register_domain_transforms(&mut r);
    r
}

fn engine() -> Engine {
    Engine::new(default_config(), registry())
}

/// One scenario's measurement.
#[derive(Debug, Clone)]
pub struct Row {
    pub scenario: String,
    pub logical_bytes: u64,
    pub fallback_bytes: u64,
}

/// Application session: `steps` iterations of Ex/R/Ex/W over `input_size`
/// inputs. Returns log bytes.
pub fn app_session(mode: WriteMode, steps: usize, input_size: usize) -> u64 {
    let mut e = engine();
    let a = ObjectId(100);
    let input = ObjectId(1);
    let output = ObjectId(2);
    e.execute(
        OpKind::Physical,
        vec![],
        vec![input],
        Transform::new(
            builtin::CONST,
            builtin::encode_values(&[Value::filled(7, input_size)]),
        ),
    )
    .unwrap();
    e.install_all().unwrap();
    e.metrics().reset();

    let mut app = Application::new(a, mode);
    for _ in 0..steps {
        app.step(&mut e).unwrap();
        app.read_from(&mut e, input).unwrap();
        app.step(&mut e).unwrap();
        app.write_to(&mut e, output).unwrap();
    }
    e.metrics().snapshot().log_bytes
}

/// File pipeline: copy + sort an ingested file; logical vs physical.
pub fn file_pipeline(logical: bool, file_size: usize) -> u64 {
    let mut e = engine();
    FileSystem::ingest(&mut e, "/in", &vec![9u8; file_size]).unwrap();
    e.install_all().unwrap();
    e.metrics().reset();

    if logical {
        FileSystem::copy(&mut e, "/in", "/copy").unwrap();
        FileSystem::sort(&mut e, "/in", "/sorted").unwrap();
    } else {
        // Physical fallback: the output values go to the log.
        let data = FileSystem::read(&mut e, "/in");
        let mut sorted = data.as_bytes().to_vec();
        sorted.sort_unstable();
        for (path, value) in [("/copy", data.clone()), ("/sorted", Value::from(sorted))] {
            e.execute(
                OpKind::Physical,
                vec![],
                vec![llog_domains::fs::file_id(path)],
                Transform::new(builtin::CONST, builtin::encode_values(&[value])),
            )
            .unwrap();
        }
    }
    e.metrics().snapshot().log_bytes
}

/// B-tree bulk load with logical vs physiological splits.
pub fn btree_load(logical_splits: bool, n_keys: u64, value_size: usize) -> u64 {
    let mut e = engine();
    let t = BTree::create(&mut e, ObjectId(0x7000_0000_0000_0000), 8, logical_splits).unwrap();
    e.metrics().reset();
    let value = vec![3u8; value_size];
    for k in 0..n_keys {
        t.insert(&mut e, (k * 2654435761) % n_keys.max(1), &value)
            .unwrap();
    }
    e.metrics().snapshot().log_bytes
}

pub fn run() -> Vec<Row> {
    vec![
        Row {
            scenario: "app session (20 iters, 64 KiB inputs)".into(),
            logical_bytes: app_session(WriteMode::Logical, 20, 64 * 1024),
            fallback_bytes: app_session(WriteMode::Physical, 20, 64 * 1024),
        },
        Row {
            scenario: "file copy+sort (1 MiB file)".into(),
            logical_bytes: file_pipeline(true, 1024 * 1024),
            fallback_bytes: file_pipeline(false, 1024 * 1024),
        },
        Row {
            scenario: "btree load (500 keys, 64 B values)".into(),
            logical_bytes: btree_load(true, 500, 64),
            fallback_bytes: btree_load(false, 500, 64),
        },
    ]
}

pub fn table() -> Table {
    let mut t = Table::new(vec![
        "scenario",
        "logical log",
        "value-logging log",
        "ratio",
    ]);
    for r in run() {
        t.row(vec![
            r.scenario.clone(),
            human_bytes(r.logical_bytes),
            human_bytes(r.fallback_bytes),
            format!(
                "{:.1}x",
                r.fallback_bytes as f64 / r.logical_bytes.max(1) as f64
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_wins_every_domain() {
        // Small sizes to keep the test fast; the shape must already show.
        let app_l = app_session(WriteMode::Logical, 4, 8 * 1024);
        let app_p = app_session(WriteMode::Physical, 4, 8 * 1024);
        assert!(app_p > app_l * 5, "app: {app_p} vs {app_l}");

        let fs_l = file_pipeline(true, 64 * 1024);
        let fs_p = file_pipeline(false, 64 * 1024);
        assert!(fs_p > fs_l * 50, "fs: {fs_p} vs {fs_l}");

        let bt_l = btree_load(true, 120, 64);
        let bt_p = btree_load(false, 120, 64);
        assert!(bt_p > bt_l, "btree: {bt_p} vs {bt_l}");
    }
}
