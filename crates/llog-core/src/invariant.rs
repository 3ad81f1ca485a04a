//! The cache invariant `Inv(I)` (§3), as an audit check.
//!
//! The paper proves `PurgeCache` preserves:
//!
//! 1. no write-write edges in the volatile history's installation graph run
//!    from a cached (uninstalled) operation to an installed one;
//! 2. every conflict-predecessor of a cached operation is installed or
//!    cached;
//! 3. a path condition on `must(O)` orderings, which we approximate by the
//!    structural consistency check of the write graph itself
//!    ([`RWGraph::check_consistency`](crate::rwgraph::RWGraph::check_consistency)).
//!
//! These checks need the full history, so they run in audit mode only.

use std::collections::BTreeSet;

use llog_ops::Operation;
use llog_types::OpId;

use crate::cache::Engine;

/// A violation of `Inv(I)`, described for the test log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvViolation(pub String);

/// Check conditions 1 and 2 of `Inv(I)` over an explicit history.
pub fn check_inv(
    history: &[Operation],
    installed: &BTreeSet<OpId>,
    live: &BTreeSet<OpId>,
) -> Result<(), InvViolation> {
    for o in history.iter().filter(|o| live.contains(&o.id)) {
        for p in history.iter().filter(|p| p.id > o.id) {
            // Condition 1: write-write edge O → P with P installed.
            let ww = o.writes.iter().any(|x| p.writes_obj(*x));
            if ww && installed.contains(&p.id) {
                return Err(InvViolation(format!(
                    "write-write edge from live {:?} to installed {:?}",
                    o.id, p.id
                )));
            }
        }
        // Condition 2: every earlier conflicting op is installed or live.
        for p in history.iter().filter(|p| p.id < o.id) {
            if p.conflicts_with(o) && !installed.contains(&p.id) && !live.contains(&p.id) {
                return Err(InvViolation(format!(
                    "conflict predecessor {:?} of live {:?} is neither installed nor cached",
                    p.id, o.id
                )));
            }
        }
    }
    Ok(())
}

/// Run the full invariant audit against a live engine (audit mode).
pub fn check_engine_inv(engine: &Engine) -> Result<(), InvViolation> {
    let history = engine.audit_history();
    let installed = engine.audit_installed();
    let live = engine.live_op_ids();
    check_inv(history, installed, &live)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: u64, reads: &[u64], writes: &[u64]) -> Operation {
        Operation::logical(id, reads, writes)
    }

    #[test]
    fn clean_split_passes() {
        let h = vec![op(0, &[1], &[2]), op(1, &[2], &[3])];
        let installed: BTreeSet<OpId> = [OpId(0)].into_iter().collect();
        let live: BTreeSet<OpId> = [OpId(1)].into_iter().collect();
        assert!(check_inv(&h, &installed, &live).is_ok());
    }

    #[test]
    fn ww_edge_to_installed_fails() {
        // op0 and op1 both write object 5; op1 installed while op0 live.
        let h = vec![op(0, &[], &[5]), op(1, &[], &[5])];
        let installed: BTreeSet<OpId> = [OpId(1)].into_iter().collect();
        let live: BTreeSet<OpId> = [OpId(0)].into_iter().collect();
        let err = check_inv(&h, &installed, &live).unwrap_err();
        assert!(err.0.contains("write-write"));
    }

    #[test]
    fn missing_conflict_predecessor_fails() {
        // op0 conflicts with op1 but is neither installed nor live
        // (it was dropped — protocol bug).
        let h = vec![op(0, &[], &[5]), op(1, &[5], &[6])];
        let installed: BTreeSet<OpId> = BTreeSet::new();
        let live: BTreeSet<OpId> = [OpId(1)].into_iter().collect();
        let err = check_inv(&h, &installed, &live).unwrap_err();
        assert!(err.0.contains("predecessor"));
    }

    #[test]
    fn non_conflicting_history_is_always_fine() {
        let h = vec![op(0, &[1], &[2]), op(1, &[3], &[4])];
        let live: BTreeSet<OpId> = [OpId(1)].into_iter().collect();
        assert!(check_inv(&h, &BTreeSet::new(), &live).is_ok());
    }

    #[test]
    fn engine_invariant_holds_through_workload() {
        use crate::cache::{EngineConfig, FlushStrategy, GraphKind};
        use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
        use llog_types::{ObjectId, Value};

        let mut e = Engine::new(
            EngineConfig {
                graph: GraphKind::RW,
                flush: FlushStrategy::IdentityWrites,
                audit: true,
            },
            TransformRegistry::with_builtins(),
        );
        for i in 0..10u64 {
            e.execute(
                OpKind::Logical,
                vec![ObjectId(i % 3 + 1)],
                vec![ObjectId((i + 1) % 3 + 1)],
                Transform::new(builtin::HASH_MIX, Value::from_slice(&i.to_le_bytes())),
            )
            .unwrap();
            if i % 3 == 2 {
                e.install_one().unwrap();
            }
            check_engine_inv(&e).unwrap();
        }
        e.install_all().unwrap();
        check_engine_inv(&e).unwrap();
    }
}
