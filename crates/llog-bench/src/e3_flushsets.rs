//! E3 — Figures 5 & 7, §3: atomic flush-set sizes under `W` vs `rW`.
//!
//! Part 1 replays the literal Figure 7 trace and reports both graphs'
//! states. Part 2 sweeps the blind-write fraction of a random logical
//! workload and reports the distribution of atomic flush-set sizes: in `W`
//! sets only grow; in `rW` blind writes shrink them.

use llog_core::{RWGraph, WriteGraph};
use llog_ops::{OpKind, Operation};
use llog_types::OpId;

use crate::sim::{Table, Workload, WorkloadKind};

/// Figure 7's trace: A writes {X,Y}; B reads X; C blindly writes X.
pub fn figure7_trace() -> Vec<Operation> {
    let mut ops = vec![
        Operation::logical(0, &[9], &[1, 2]),
        Operation::logical(1, &[1], &[3]),
        Operation::physical(2, 1, llog_types::Value::from("blind")),
    ];
    for (i, op) in ops.iter_mut().enumerate() {
        op.id = OpId(i as u64);
    }
    ops
}

/// (max flush-set size, multi-object node count) for both graphs over a
/// trace with no installations.
pub fn measure_trace(ops: &[Operation]) -> ((usize, usize), (usize, usize)) {
    let w = WriteGraph::build(ops);
    let w_sizes = w.flush_set_sizes();
    let mut rw = RWGraph::new();
    for op in ops {
        rw.add_op(op);
    }
    let rw_sizes = rw.flush_set_sizes();
    let stat = |sizes: &[usize]| {
        (
            sizes.first().copied().unwrap_or(0),
            sizes.iter().filter(|&&s| s > 1).count(),
        )
    };
    (stat(&w_sizes), stat(&rw_sizes))
}

/// Sweep blind-write share; returns rows of
/// `(blind %, W max, W multi, rW max, rW multi)`.
pub fn sweep_blind_fraction(n_ops: usize, seed: u64) -> Vec<(u32, usize, usize, usize, usize)> {
    let mut out = Vec::new();
    for blind in [0u32, 10, 25, 50, 75] {
        let mix = WorkloadKind {
            logical_update: 100 - blind,
            logical_blind: blind,
            physiological: 0,
            physical: 0,
            delete: 0,
        };
        let specs = Workload::new(12, n_ops, mix, seed).generate();
        let ops: Vec<Operation> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Operation::new(
                    OpId(i as u64),
                    s.kind,
                    s.reads.clone(),
                    s.writes.clone(),
                    s.transform.clone(),
                )
            })
            .collect();
        let ((w_max, w_multi), (rw_max, rw_multi)) = measure_trace(&ops);
        out.push((blind, w_max, w_multi, rw_max, rw_multi));
    }
    out
}

pub fn figure7_table() -> Table {
    let ops = figure7_trace();
    let w = WriteGraph::build(&ops);
    let mut rw = RWGraph::new();
    for op in &ops {
        rw.add_op(op);
    }
    let mut t = Table::new(vec!["graph", "node", "ops", "vars (flush set)", "notx"]);
    for (i, node) in w.nodes().iter().enumerate() {
        t.row(vec![
            "W".to_string(),
            format!("{i}"),
            format!("{:?}", node.ops),
            format!("{:?}", node.vars),
            "{}".to_string(),
        ]);
    }
    for id in rw.node_ids().collect::<Vec<_>>() {
        let node = rw.node(id).unwrap();
        t.row(vec![
            "rW".to_string(),
            format!("{id:?}"),
            format!("{:?}", node.ops()),
            format!("{:?}", node.vars()),
            format!("{:?}", node.notx()),
        ]);
    }
    t
}

pub fn sweep_table() -> Table {
    let mut t = Table::new(vec![
        "blind-write %",
        "W max set",
        "W multi-nodes",
        "rW max set",
        "rW multi-nodes",
    ]);
    for (blind, w_max, w_multi, rw_max, rw_multi) in sweep_blind_fraction(400, 7) {
        t.row(vec![
            format!("{blind}"),
            format!("{w_max}"),
            format!("{w_multi}"),
            format!("{rw_max}"),
            format!("{rw_multi}"),
        ]);
    }
    t
}

/// Also verify the §1 claim that physiological workloads degenerate both
/// graphs to singleton sets.
pub fn physiological_degenerate(n_ops: usize) -> (usize, usize) {
    let ops: Vec<Operation> = (0..n_ops as u64)
        .map(|i| {
            let mut op = Operation::physiological(i, i % 10);
            op.id = OpId(i);
            debug_assert_eq!(op.kind, OpKind::Physiological);
            op
        })
        .collect();
    let ((w_max, _), (rw_max, _)) = measure_trace(&ops);
    (w_max, rw_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_w_needs_atomic_pair_rw_does_not() {
        let ((w_max, w_multi), (rw_max, rw_multi)) = measure_trace(&figure7_trace());
        assert_eq!(w_max, 2, "W: X and Y flushed atomically");
        assert_eq!(w_multi, 1);
        assert_eq!(rw_max, 1, "rW: X left the flush set");
        assert_eq!(rw_multi, 0);
    }

    #[test]
    fn blind_writes_shrink_rw_but_not_w() {
        let rows = sweep_blind_fraction(300, 3);
        for (blind, w_max, _, rw_max, _) in rows {
            assert!(
                rw_max <= w_max,
                "rW must never need bigger sets (blind={blind}): {rw_max} vs {w_max}"
            );
        }
        // At a healthy blind fraction, rW should be strictly better
        // somewhere in the sweep.
        let rows = sweep_blind_fraction(300, 3);
        assert!(
            rows.iter().any(|&(_, w, _, rw, _)| rw < w),
            "rW never beat W in {rows:?}"
        );
    }

    #[test]
    fn physiological_is_degenerate_everywhere() {
        assert_eq!(physiological_degenerate(100), (1, 1));
    }
}
