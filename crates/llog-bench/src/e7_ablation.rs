//! E7 — §6 ablation: four system designs on the same application workload.
//!
//! 1. **paper**: `rW` + logical writes + identity writes;
//! 2. **lomet98**: logical reads but *physical* application writes (no
//!    flush cycles ever arise — the restriction this paper removes);
//! 3. **W + flush txn**: logical writes but the coarse write graph `W`,
//!    paying atomic flush transactions;
//! 4. **physiological**: every cross-object value logged.
//!
//! All four recover the same state; they differ in normal-execution cost.

use llog_core::{Engine, EngineConfig, FlushStrategy, GraphKind};
use llog_domains::app::{Application, WriteMode};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_sim::{human_bytes, Table};
use llog_storage::MetricsSnapshot;
use llog_types::{ObjectId, Value};

#[derive(Debug, Clone)]
pub struct Row {
    pub design: &'static str,
    pub metrics: MetricsSnapshot,
}

/// One app session: `iters` iterations of Ex/R/Ex/W over `n_inputs` input
/// objects of `input_size` bytes, with periodic installation.
fn session(
    config: EngineConfig,
    mode: WriteMode,
    iters: usize,
    n_inputs: u64,
    input_size: usize,
) -> MetricsSnapshot {
    let mut e = Engine::new(config, TransformRegistry::with_builtins());
    for i in 0..n_inputs {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(i)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::filled(i as u8, input_size)]),
            ),
        )
        .unwrap();
    }
    e.install_all().unwrap();
    e.metrics().reset();

    let app_obj = ObjectId(1000);
    let mut app = Application::new(app_obj, mode);
    for i in 0..iters {
        // Read-modify-write the same object: the R / W_L / Ex pattern §4
        // shows can create flush cycles ((a) Y←f(X,Y); (b) X←g(Y);
        // (c) Y←h(Y)) — the case this paper's machinery exists for.
        let file = ObjectId(i as u64 % n_inputs);
        app.step(&mut e).unwrap();
        app.read_from(&mut e, file).unwrap();
        app.step(&mut e).unwrap();
        app.write_to(&mut e, file).unwrap();
        if (i + 1) % 8 == 0 {
            e.install_one().unwrap();
        }
    }
    e.install_all().unwrap();
    e.metrics().snapshot()
}

pub fn run(iters: usize, input_size: usize) -> Vec<Row> {
    let n_inputs = 4;
    let rw_id = EngineConfig {
        graph: GraphKind::RW,
        flush: FlushStrategy::IdentityWrites,
        audit: false,
    };
    let rw_ft = EngineConfig {
        graph: GraphKind::RW,
        flush: FlushStrategy::FlushTxn,
        audit: false,
    };
    let w_ft = EngineConfig {
        graph: GraphKind::W,
        flush: FlushStrategy::FlushTxn,
        audit: false,
    };
    vec![
        Row {
            design: "paper: rW + W_L + identity writes",
            metrics: session(rw_id, WriteMode::Logical, iters, n_inputs, input_size),
        },
        Row {
            design: "lomet98: rW + physical writes",
            metrics: session(rw_id, WriteMode::Physical, iters, n_inputs, input_size),
        },
        Row {
            design: "rW + W_L + flush txns",
            metrics: session(rw_ft, WriteMode::Logical, iters, n_inputs, input_size),
        },
        Row {
            design: "W + W_L + flush txns",
            metrics: session(w_ft, WriteMode::Logical, iters, n_inputs, input_size),
        },
    ]
}

pub fn table() -> Table {
    let mut t = Table::new(vec![
        "design",
        "log bytes",
        "obj writes",
        "forces",
        "quiesces",
        "identity writes",
    ]);
    for r in run(40, 32 * 1024) {
        t.row(vec![
            r.design.to_string(),
            human_bytes(r.metrics.log_bytes),
            format!("{}", r.metrics.obj_writes),
            format!("{}", r.metrics.log_forces),
            format!("{}", r.metrics.quiesces),
            format!("{}", r.metrics.identity_writes),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_design_logs_least_among_rw_designs() {
        let rows = run(12, 8 * 1024);
        let by = |name: &str| {
            rows.iter()
                .find(|r| r.design.starts_with(name))
                .unwrap()
                .metrics
        };
        let paper = by("paper");
        let lomet98 = by("lomet98");
        // The headline claim of §6: logical writes beat physical writes on
        // log volume.
        assert!(
            lomet98.log_bytes > paper.log_bytes,
            "lomet98 {} vs paper {}",
            lomet98.log_bytes,
            paper.log_bytes
        );
        // And the paper design never quiesces.
        assert_eq!(paper.quiesces, 0);
    }

    #[test]
    fn flush_txn_designs_quiesce() {
        let rows = run(12, 4 * 1024);
        let w_ft = rows
            .iter()
            .find(|r| r.design.starts_with("W +"))
            .unwrap()
            .metrics;
        // W coalesces app state and outputs into multi-object sets: flush
        // transactions (and their quiesces) are unavoidable there.
        assert!(w_ft.quiesces > 0, "W design should pay quiesces: {w_ft:?}");
    }
}
