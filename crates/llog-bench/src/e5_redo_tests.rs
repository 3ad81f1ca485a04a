//! E5 — §5: how much work each REDO test performs at recovery.
//!
//! A workload runs with partial installation, then crashes. We recover the
//! same stable image under the vSI test and the generalized rSI + exposure
//! test and count re-executed operations. The sweep raises the share of
//! *transient* objects (files deleted before the crash / terminated
//! applications); §5 predicts the rSI test's advantage grows with it.

use llog_core::{recover, Engine, RedoPolicy};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_storage::StableStore;
use llog_types::{ObjectId, Value};
use llog_wal::Wal;

use crate::default_config;
use crate::sim::{run_workload, Table, Workload, WorkloadKind};

/// Outcome for one (transient-share, policy) cell.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub transient_pct: u32,
    pub total_ops: usize,
    pub vsi_redone: u64,
    pub rsi_redone: u64,
    pub vsi_scanned: u64,
    pub rsi_scanned: u64,
}

/// Build one crashed image: `n_ops` over `n_objects`, installing every
/// `install_every`, then delete `transient_pct`% of the objects, force,
/// crash. Returns the surviving parts, cloned per recovery run.
fn crashed_image(
    n_objects: u64,
    n_ops: usize,
    install_every: usize,
    transient_pct: u32,
    seed: u64,
) -> (StableStore, Wal) {
    let registry = TransformRegistry::with_builtins();
    let mut e = Engine::new(default_config(), registry);
    let specs = Workload::new(n_objects, n_ops, WorkloadKind::app_mix(), seed).generate();
    run_workload(&mut e, &specs, install_every, 0).unwrap();
    // Terminate the transient objects.
    let n_transient = (n_objects * transient_pct as u64) / 100;
    for x in 0..n_transient {
        e.execute(
            OpKind::Delete,
            vec![],
            vec![ObjectId(x)],
            Transform::new(builtin::DELETE, Value::empty()),
        )
        .unwrap();
    }
    e.wal_mut().force();
    e.crash()
}

pub fn run_cell(transient_pct: u32, seed: u64) -> Row {
    let n_ops = 600;
    let (store, wal) = crashed_image(20, n_ops, 6, transient_pct, seed);
    let registry = TransformRegistry::with_builtins();

    let run = |policy: RedoPolicy| {
        let (_, out) = recover(
            store.clone(),
            wal.clone(),
            registry.clone(),
            default_config(),
            policy,
        )
        .unwrap();
        out
    };
    let vsi = run(RedoPolicy::Vsi);
    let rsi = run(RedoPolicy::RsiExposed);
    Row {
        transient_pct,
        total_ops: n_ops,
        vsi_redone: vsi.redone,
        rsi_redone: rsi.redone,
        vsi_scanned: vsi.redo_scanned,
        rsi_scanned: rsi.redo_scanned,
    }
}

pub fn run() -> Vec<Row> {
    [0u32, 25, 50, 75, 90]
        .iter()
        .map(|&t| run_cell(t, 40 + t as u64))
        .collect()
}

pub fn table() -> Table {
    let mut t = Table::new(vec![
        "transient %",
        "ops logged",
        "vSI redone",
        "rSI redone",
        "saving",
    ]);
    for r in run() {
        let saving = if r.vsi_redone == 0 {
            "-".to_string()
        } else {
            format!(
                "{:.0}%",
                100.0 * (r.vsi_redone - r.rsi_redone) as f64 / r.vsi_redone as f64
            )
        };
        t.row(vec![
            format!("{}", r.transient_pct),
            format!("{}", r.total_ops),
            format!("{}", r.vsi_redone),
            format!("{}", r.rsi_redone),
            saving,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsi_never_redoes_more_than_vsi() {
        for r in [run_cell(0, 1), run_cell(50, 2), run_cell(90, 3)] {
            assert!(
                r.rsi_redone <= r.vsi_redone,
                "rSI {} vs vSI {} at {}%",
                r.rsi_redone,
                r.vsi_redone,
                r.transient_pct
            );
        }
    }

    #[test]
    fn transient_objects_widen_the_gap() {
        let low = run_cell(0, 9);
        let high = run_cell(90, 9);
        let gap = |r: &Row| r.vsi_redone.saturating_sub(r.rsi_redone);
        assert!(
            gap(&high) > gap(&low),
            "gap did not widen: low {:?} high {:?}",
            (low.vsi_redone, low.rsi_redone),
            (high.vsi_redone, high.rsi_redone)
        );
    }
}
