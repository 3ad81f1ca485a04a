//! E4 — §4 "Comparing Costs": breaking up a k-object atomic flush set.
//!
//! A single logical operation writes k objects, forcing a k-object flush
//! set. We install it under each strategy and account the §4 costs:
//! object I/Os, log bytes (identity writes log k−1 values; a flush txn
//! logs all k), log forces, and quiesce events.

use llog_core::{Engine, EngineConfig, FlushStrategy, GraphKind};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_sim::{human_bytes, Table};
use llog_storage::MetricsSnapshot;
use llog_types::{ObjectId, Value};

/// Costs of installing one k-object flush set.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub k: usize,
    pub strategy: FlushStrategy,
    pub obj_writes: u64,
    pub log_bytes: u64,
    pub log_forces: u64,
    pub quiesces: u64,
    pub identity_writes: u64,
}

/// Build an engine holding one uninstalled op that writes `k` objects of
/// `size` bytes each, then install everything under `strategy`.
pub fn run_one(k: usize, size: usize, strategy: FlushStrategy) -> Row {
    let mut e = Engine::new(
        EngineConfig {
            graph: GraphKind::RW,
            flush: strategy,
            audit: false,
        },
        TransformRegistry::with_builtins(),
    );
    // Seed a source object so the k-write op is logical (reads something).
    e.execute(
        OpKind::Physical,
        vec![],
        vec![ObjectId(999)],
        Transform::new(
            builtin::CONST,
            builtin::encode_values(&[Value::filled(1, size)]),
        ),
    )
    .unwrap();
    e.install_all().unwrap();
    e.metrics().reset();

    let writes: Vec<ObjectId> = (0..k as u64).map(ObjectId).collect();
    e.execute(
        OpKind::Logical,
        vec![ObjectId(999)],
        writes,
        Transform::new(builtin::HASH_MIX, Value::from_slice(b"fanout")),
    )
    .unwrap();
    e.install_all().unwrap();

    let m: MetricsSnapshot = e.metrics().snapshot();
    Row {
        k,
        strategy,
        obj_writes: m.obj_writes,
        log_bytes: m.log_bytes,
        log_forces: m.log_forces,
        quiesces: m.quiesces,
        identity_writes: m.identity_writes,
    }
}

pub fn run(ks: &[usize], size: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for &k in ks {
        for strategy in [
            FlushStrategy::IdentityWrites,
            FlushStrategy::FlushTxn,
            FlushStrategy::Shadow,
        ] {
            rows.push(run_one(k, size, strategy));
        }
    }
    rows
}

pub fn table() -> Table {
    let mut t = Table::new(vec![
        "k",
        "strategy",
        "object writes",
        "log bytes",
        "forces",
        "quiesces",
        "identity writes",
    ]);
    for r in run(&[2, 4, 8, 16], 4096) {
        t.row(vec![
            format!("{}", r.k),
            format!("{:?}", r.strategy),
            format!("{}", r.obj_writes),
            human_bytes(r.log_bytes),
            format!("{}", r.log_forces),
            format!("{}", r.quiesces),
            format!("{}", r.identity_writes),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_writes_log_one_less_value_than_flush_txn() {
        // §4: "we write log two object values when flushing atomically, but
        // only one object value when using CM initiated writes" (k = 2).
        let id = run_one(2, 4096, FlushStrategy::IdentityWrites);
        let ft = run_one(2, 4096, FlushStrategy::FlushTxn);
        assert_eq!(id.identity_writes, 1);
        assert_eq!(ft.quiesces, 1);
        assert_eq!(id.quiesces, 0);
        // One 4 KiB value logged vs two.
        assert!(
            ft.log_bytes > id.log_bytes + 4000,
            "flush txn {} vs identity {}",
            ft.log_bytes,
            id.log_bytes
        );
    }

    #[test]
    fn per_object_flush_counts_match_section4() {
        for k in [2usize, 4, 8] {
            let id = run_one(k, 1024, FlushStrategy::IdentityWrites);
            let ft = run_one(k, 1024, FlushStrategy::FlushTxn);
            let sh = run_one(k, 1024, FlushStrategy::Shadow);
            // All strategies write each object once in place; shadow pays an
            // extra root write, flush txn pays the values through the log.
            assert_eq!(id.obj_writes, k as u64, "identity path: k single flushes");
            assert_eq!(ft.obj_writes, k as u64);
            assert_eq!(sh.obj_writes, k as u64 + 1, "shadow: k staged + root");
            assert_eq!(id.identity_writes, k as u64 - 1);
            // Flush txn logs k values; identity logs k-1.
            assert!(ft.log_bytes > id.log_bytes);
            // Shadow logs no values at all but destroys sequentiality
            // (not modelled as bytes); its log cost is smallest.
            assert!(sh.log_bytes < id.log_bytes);
        }
    }

    #[test]
    fn no_strategy_quiesces_except_flush_txn() {
        for strategy in [FlushStrategy::IdentityWrites, FlushStrategy::Shadow] {
            assert_eq!(run_one(4, 256, strategy).quiesces, 0);
        }
        assert_eq!(run_one(4, 256, FlushStrategy::FlushTxn).quiesces, 1);
    }
}
