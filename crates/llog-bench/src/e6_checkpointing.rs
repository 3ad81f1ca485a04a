//! E6 — §2/§5 + Figure 2: recovery work vs checkpoint interval, and
//! recovery idempotency (Theorem 2).
//!
//! The same workload runs with checkpoints every C operations (log
//! truncated at each). Recovery after the crash scans less log and redoes
//! fewer operations as C shrinks. A second crash *during* recovery (before
//! anything re-installs) must land in the same state — Theorem 2.

use llog_core::{recover, Engine, RedoPolicy};
use llog_ops::TransformRegistry;
use llog_types::ObjectId;

use crate::default_config;
use crate::sim::{human_bytes, replay_stable_log, Table, Workload, WorkloadKind};

#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub checkpoint_every: usize,
    pub stable_log_bytes: usize,
    pub analysis_scanned: u64,
    pub redo_scanned: u64,
    pub redone: u64,
}

pub fn run_cell(checkpoint_every: usize, n_ops: usize, seed: u64) -> Row {
    let registry = TransformRegistry::with_builtins();
    let mut e = Engine::new(default_config(), registry.clone());
    let specs = Workload::new(16, n_ops, WorkloadKind::app_mix(), seed).generate();
    for (i, s) in specs.iter().enumerate() {
        e.execute(
            s.kind,
            s.reads.clone(),
            s.writes.clone(),
            s.transform.clone(),
        )
        .unwrap();
        if (i + 1) % 5 == 0 {
            e.install_one().unwrap();
        }
        if checkpoint_every > 0 && (i + 1) % checkpoint_every == 0 {
            e.checkpoint(true).unwrap();
        }
    }
    e.wal_mut().force();
    let (store, wal) = e.crash();
    let stable_log_bytes = wal.stable_len();
    let (_, out) = recover(
        store,
        wal,
        registry,
        default_config(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    Row {
        checkpoint_every,
        stable_log_bytes,
        analysis_scanned: out.analysis_scanned,
        redo_scanned: out.redo_scanned,
        redone: out.redone,
    }
}

pub fn run(n_ops: usize) -> Vec<Row> {
    [0usize, 200, 100, 50, 20]
        .iter()
        .map(|&c| run_cell(c, n_ops, 77))
        .collect()
}

/// Theorem 2 demonstration: recover, crash again without installing, and
/// recover once more; both recovered views must agree on every object.
pub fn idempotency_check(seed: u64) -> bool {
    let registry = TransformRegistry::with_builtins();
    let mut e = Engine::new(default_config(), registry.clone());
    let specs = Workload::new(10, 150, WorkloadKind::app_mix(), seed).generate();
    for s in &specs {
        e.execute(
            s.kind,
            s.reads.clone(),
            s.writes.clone(),
            s.transform.clone(),
        )
        .unwrap();
    }
    e.wal_mut().force();
    let (store, wal) = e.crash();

    let want = replay_stable_log(&wal, &registry).unwrap();
    let (e1, _) = recover(
        store,
        wal,
        registry.clone(),
        default_config(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    let view1: Vec<_> = want.keys().map(|&x| e1.peek_value(x)).collect();
    let (store2, wal2) = e1.crash();
    let (e2, _) = recover(
        store2,
        wal2,
        registry,
        default_config(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    let view2: Vec<_> = want.keys().map(|&x| e2.peek_value(x)).collect();
    let oracle: Vec<_> = want.keys().map(|x: &ObjectId| want[x].clone()).collect();
    view1 == view2 && view1 == oracle
}

pub fn table() -> Table {
    let mut t = Table::new(vec![
        "checkpoint every",
        "stable log",
        "analysis records",
        "redo records",
        "ops redone",
    ]);
    for r in run(1000) {
        t.row(vec![
            if r.checkpoint_every == 0 {
                "never".to_string()
            } else {
                format!("{} ops", r.checkpoint_every)
            },
            human_bytes(r.stable_log_bytes as u64),
            format!("{}", r.analysis_scanned),
            format!("{}", r.redo_scanned),
            format!("{}", r.redone),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_shrink_recovery() {
        let never = run_cell(0, 400, 5);
        let often = run_cell(20, 400, 5);
        assert!(often.stable_log_bytes < never.stable_log_bytes);
        assert!(often.analysis_scanned < never.analysis_scanned);
        assert!(often.redone <= never.redone);
    }

    #[test]
    fn recovery_is_idempotent() {
        for seed in [1, 2, 3] {
            assert!(idempotency_check(seed), "seed {seed}");
        }
    }
}
