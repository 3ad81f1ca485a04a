//! Run workloads against engines, inject crashes, and verify recovery
//! against the replay oracle.

use std::collections::BTreeMap;

use llog_core::{recover, Engine, EngineConfig, RecoveryOutcome, RedoPolicy};
use llog_ops::{Replayer, TransformRegistry};
use llog_storage::{MetricsSnapshot, StableStore};
use llog_types::{LlogError, ObjectId, Result, Value};
use llog_wal::{LogRecord, Wal};

use crate::workload::OpSpec;

/// When (and how) to crash during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Run every operation, then crash cleanly (buffer lost).
    AfterAllOps,
    /// Crash after the given number of operations.
    AfterOp(usize),
    /// Crash after all ops with a torn tail of the given byte length.
    TornTail(usize),
    /// No crash: shut down cleanly.
    None,
}

/// What a harness run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Operations executed before the crash.
    pub executed: usize,
    /// Write-graph nodes installed during the run.
    pub installs: usize,
    /// Cost counters at crash time.
    pub metrics: MetricsSnapshot,
    /// What recovery did (None when no recovery ran).
    pub outcome: Option<RecoveryOutcome>,
}

/// Drive `ops` through `engine`, installing every `install_every` ops
/// (0 = never) and forcing the log every `force_every` ops (0 = only at
/// the end). Returns the engine for further use.
pub fn run_workload(
    engine: &mut Engine,
    ops: &[OpSpec],
    install_every: usize,
    force_every: usize,
) -> Result<usize> {
    let mut installs = 0;
    for (i, spec) in ops.iter().enumerate() {
        engine.execute(
            spec.kind,
            spec.reads.clone(),
            spec.writes.clone(),
            spec.transform.clone(),
        )?;
        if install_every > 0 && (i + 1) % install_every == 0 && engine.install_one()? {
            installs += 1;
        }
        if force_every > 0 && (i + 1) % force_every == 0 {
            engine.wal_mut().force();
        }
    }
    Ok(installs)
}

/// Replay every operation on the stable log (post-crash view) with the
/// oracle, returning the state every correct recovery must present.
pub fn replay_stable_log(
    wal: &Wal,
    registry: &TransformRegistry,
) -> Result<BTreeMap<ObjectId, Value>> {
    let mut r = Replayer::new();
    for item in wal.scan(wal.start_lsn()) {
        match item {
            Ok((_, LogRecord::Op(op))) => r.apply(&op, registry)?,
            Ok(_) => {}
            Err(LlogError::Corrupt { .. }) => break, // torn tail
            Err(e) => return Err(e),
        }
    }
    Ok(r.state().clone())
}

/// Compare a recovered engine's view of every logged object against the
/// oracle. Returns the number of objects checked.
///
/// NOTE: the oracle replays from the empty initial state, so it is only
/// valid when the log has never been truncated (no checkpoint truncation) —
/// exactly how the property harness runs.
pub fn verify_against_log(engine: &Engine, registry: &TransformRegistry) -> Result<usize> {
    let want = replay_stable_log(engine.wal(), registry)?;
    for (&x, expect) in &want {
        let got = engine.peek_value(x);
        if &got != expect {
            return Err(LlogError::Unexplainable(format!(
                "object {x}: recovered {got:?}, oracle {expect:?}"
            )));
        }
    }
    Ok(want.len())
}

/// End-to-end: run `ops`, crash per `crash`, recover with `policy`, verify
/// against the oracle, and report.
pub fn run_crash_recover_verify(
    config: EngineConfig,
    registry: &TransformRegistry,
    ops: &[OpSpec],
    install_every: usize,
    crash: CrashPoint,
    policy: RedoPolicy,
) -> Result<(Engine, RunReport)> {
    let mut engine = Engine::new(config, registry.clone());
    let to_run = match crash {
        CrashPoint::AfterOp(n) => &ops[..n.min(ops.len())],
        _ => ops,
    };
    let installs = run_workload(&mut engine, to_run, install_every, 0)?;
    engine.wal_mut().force();

    let (store, wal): (StableStore, Wal) = match crash {
        CrashPoint::None => engine.shutdown()?,
        CrashPoint::TornTail(n) => engine.crash_torn(n),
        _ => engine.crash(),
    };
    let metrics = store.metrics().snapshot();
    let (recovered, outcome) = recover(store, wal, registry.clone(), config, policy)?;
    verify_against_log(&recovered, registry)?;
    Ok((
        recovered,
        RunReport {
            executed: to_run.len(),
            installs,
            metrics,
            outcome: Some(outcome),
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, WorkloadKind};
    use llog_core::{FlushStrategy, GraphKind};

    fn registry() -> TransformRegistry {
        TransformRegistry::with_builtins()
    }

    fn config() -> EngineConfig {
        EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: false,
        }
    }

    #[test]
    fn crash_recover_verify_app_mix() {
        let ops = Workload::new(8, 120, WorkloadKind::app_mix(), 11).generate();
        let (_, report) = run_crash_recover_verify(
            config(),
            &registry(),
            &ops,
            5,
            CrashPoint::AfterAllOps,
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert_eq!(report.executed, 120);
        let out = report.outcome.unwrap();
        assert!(out.redone + out.skipped > 0);
    }

    #[test]
    fn crash_recover_verify_every_policy_agrees_for_physiological() {
        let ops = Workload::new(6, 80, WorkloadKind::physiological_only(), 5).generate();
        for policy in [RedoPolicy::Vsi, RedoPolicy::RsiExposed] {
            run_crash_recover_verify(
                config(),
                &registry(),
                &ops,
                3,
                CrashPoint::AfterAllOps,
                policy,
            )
            .unwrap();
        }
    }

    #[test]
    fn mid_run_crash_points_all_verify() {
        let ops = Workload::new(6, 60, WorkloadKind::app_mix(), 21).generate();
        for cut in [0, 1, 7, 30, 59, 60] {
            run_crash_recover_verify(
                config(),
                &registry(),
                &ops,
                4,
                CrashPoint::AfterOp(cut),
                RedoPolicy::RsiExposed,
            )
            .unwrap_or_else(|e| panic!("crash at {cut}: {e}"));
        }
    }

    #[test]
    fn torn_tail_crash_verifies() {
        let ops = Workload::new(6, 40, WorkloadKind::app_mix(), 31).generate();
        for torn in [0, 3, 17, 1000] {
            run_crash_recover_verify(
                config(),
                &registry(),
                &ops,
                0,
                CrashPoint::TornTail(torn),
                RedoPolicy::RsiExposed,
            )
            .unwrap_or_else(|e| panic!("torn {torn}: {e}"));
        }
    }

    #[test]
    fn clean_shutdown_then_recovery_redoes_nothing() {
        let ops = Workload::new(6, 50, WorkloadKind::app_mix(), 41).generate();
        let (_, report) = run_crash_recover_verify(
            config(),
            &registry(),
            &ops,
            0,
            CrashPoint::None,
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        let out = report.outcome.unwrap();
        assert_eq!(out.redone, 0, "clean shutdown leaves nothing to redo");
    }

    #[test]
    fn flush_txn_and_shadow_strategies_also_verify() {
        let ops = Workload::new(8, 100, WorkloadKind::app_mix(), 51).generate();
        for flush in [FlushStrategy::FlushTxn, FlushStrategy::Shadow] {
            let cfg = EngineConfig {
                graph: GraphKind::RW,
                flush,
                audit: false,
            };
            run_crash_recover_verify(
                cfg,
                &registry(),
                &ops,
                4,
                CrashPoint::AfterAllOps,
                RedoPolicy::RsiExposed,
            )
            .unwrap_or_else(|e| panic!("{flush:?}: {e}"));
        }
    }

    #[test]
    fn w_graph_mode_verifies_with_flush_txn() {
        let ops = Workload::new(8, 100, WorkloadKind::app_mix(), 61).generate();
        let cfg = EngineConfig {
            graph: GraphKind::W,
            flush: FlushStrategy::FlushTxn,
            audit: false,
        };
        run_crash_recover_verify(
            cfg,
            &registry(),
            &ops,
            4,
            CrashPoint::AfterAllOps,
            RedoPolicy::Vsi,
        )
        .unwrap();
    }
}
