//! E10 — §4's amortization claim: "we enable multiple updates to
//! accumulate in each object before we log or flush it. Hence, as is
//! common in database systems, the cost of flushing (and logging) the
//! object is shared among the several updating operations, a substantial
//! saving."
//!
//! We sweep (a) how eagerly the cache manager installs and (b) the access
//! skew (hot objects absorb more updates per flush), and report updates
//! per object-flush and stable-write bytes per update.

use llog_core::{Engine, EngineConfig, FlushStrategy, GraphKind};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_sim::{Table, Workload, WorkloadKind};
use llog_types::{ObjectId, Value};

#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub install_every: usize,
    pub skew: f64,
    pub ops: u64,
    pub obj_writes: u64,
    pub write_bytes: u64,
}

impl Row {
    /// Updates amortized over each stable object write.
    pub fn updates_per_flush(&self) -> f64 {
        self.ops as f64 / self.obj_writes.max(1) as f64
    }
    /// Stable bytes written per executed update.
    pub fn bytes_per_update(&self) -> f64 {
        self.write_bytes as f64 / self.ops.max(1) as f64
    }
}

pub fn run_one(install_every: usize, skew: f64, seed: u64) -> Row {
    let mut e = Engine::new(
        EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: false,
        },
        TransformRegistry::with_builtins(),
    );
    // Seed every object with a 1 KiB value so updates move real data
    // (HASH_MIX outputs are sized like their inputs).
    for i in 0..24u64 {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(i)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::filled(i as u8, 1024)]),
            ),
        )
        .unwrap();
    }
    e.install_all().unwrap();
    e.metrics().reset();

    let n_ops = 600usize;
    let mix = WorkloadKind {
        logical_update: 60,
        logical_blind: 20,
        physiological: 20,
        physical: 0,
        delete: 0,
    };
    let specs = Workload::new(24, n_ops, mix, seed)
        .with_skew(skew)
        .generate();
    for (i, s) in specs.iter().enumerate() {
        e.execute(
            s.kind,
            s.reads.clone(),
            s.writes.clone(),
            s.transform.clone(),
        )
        .unwrap();
        if install_every > 0 && (i + 1) % install_every == 0 {
            e.install_one().unwrap();
        }
    }
    e.install_all().unwrap();
    let m = e.metrics().snapshot();
    Row {
        install_every,
        skew,
        ops: n_ops as u64,
        obj_writes: m.obj_writes,
        write_bytes: m.obj_write_bytes,
    }
}

pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for &install_every in &[1usize, 5, 20, 0] {
        for &skew in &[0.0, 1.0] {
            rows.push(run_one(install_every, skew, 17));
        }
    }
    rows
}

pub fn table() -> Table {
    let mut t = Table::new(vec![
        "install every",
        "skew",
        "object flushes",
        "updates/flush",
        "bytes/update",
    ]);
    for r in run() {
        t.row(vec![
            if r.install_every == 0 {
                "at end".to_string()
            } else {
                format!("{} ops", r.install_every)
            },
            format!("{:.1}", r.skew),
            format!("{}", r.obj_writes),
            format!("{:.1}", r.updates_per_flush()),
            format!("{:.0}", r.bytes_per_update()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazier_installation_amortizes_more() {
        let eager = run_one(1, 0.0, 3);
        let lazy = run_one(0, 0.0, 3);
        assert!(
            lazy.updates_per_flush() > eager.updates_per_flush(),
            "lazy {:.2} vs eager {:.2}",
            lazy.updates_per_flush(),
            eager.updates_per_flush()
        );
        assert!(lazy.bytes_per_update() < eager.bytes_per_update());
    }

    #[test]
    fn skew_concentrates_updates_on_fewer_flushes() {
        let uniform = run_one(0, 0.0, 4);
        let skewed = run_one(0, 1.2, 4);
        assert!(
            skewed.obj_writes <= uniform.obj_writes,
            "skewed {} vs uniform {}",
            skewed.obj_writes,
            uniform.obj_writes
        );
    }
}
