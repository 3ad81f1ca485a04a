//! E9 — §3's cache-management motivation, quantified: a bounded cache
//! forces the CM's hand.
//!
//! "Objects of the dirty volatile state are written to the stable database
//! for two reasons. First, the volatile state can be (nearly) full,
//! requiring that objects currently present be removed to make room..."
//! We bound the cache and sweep its capacity: smaller caches force more
//! installations (and thus more identity writes when flush sets are
//! multi-object), more evictions, and more stable-store traffic. The same
//! sweep contrasts the identity-write CM against the flush-transaction CM —
//! under pressure, the flush-transaction design also pays quiesces.

use llog_core::{Engine, EngineConfig, FlushStrategy, GraphKind};
use llog_ops::TransformRegistry;
use llog_sim::{human_bytes, Table, Workload, WorkloadKind};
use llog_storage::MetricsSnapshot;

#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub capacity: Option<usize>,
    pub strategy: FlushStrategy,
    pub metrics: MetricsSnapshot,
}

pub fn run_one(capacity: Option<usize>, strategy: FlushStrategy, seed: u64) -> Row {
    let mut e = Engine::new(
        EngineConfig {
            graph: GraphKind::RW,
            flush: strategy,
            audit: false,
        },
        TransformRegistry::with_builtins(),
    );
    e.set_cache_capacity(capacity);
    let specs = Workload::new(32, 600, WorkloadKind::app_mix(), seed).generate();
    for s in &specs {
        e.execute(
            s.kind,
            s.reads.clone(),
            s.writes.clone(),
            s.transform.clone(),
        )
        .unwrap();
    }
    e.install_all().unwrap();
    Row {
        capacity,
        strategy,
        metrics: e.metrics().snapshot(),
    }
}

pub fn run() -> Vec<Row> {
    let mut rows = Vec::new();
    for capacity in [Some(4), Some(8), Some(16), None] {
        for strategy in [FlushStrategy::IdentityWrites, FlushStrategy::FlushTxn] {
            rows.push(run_one(capacity, strategy, 99));
        }
    }
    rows
}

pub fn table() -> Table {
    let mut t = Table::new(vec![
        "capacity",
        "strategy",
        "evictions",
        "obj writes",
        "identity writes",
        "quiesces",
        "log bytes",
    ]);
    for r in run() {
        t.row(vec![
            r.capacity
                .map_or("unbounded".to_string(), |c| c.to_string()),
            format!("{:?}", r.strategy),
            format!("{}", r.metrics.evictions),
            format!("{}", r.metrics.obj_writes),
            format!("{}", r.metrics.identity_writes),
            format!("{}", r.metrics.quiesces),
            human_bytes(r.metrics.log_bytes),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_caches_cost_more_io() {
        let tight = run_one(Some(4), FlushStrategy::IdentityWrites, 5);
        let loose = run_one(None, FlushStrategy::IdentityWrites, 5);
        assert!(tight.metrics.evictions > 0);
        assert_eq!(loose.metrics.evictions, 0);
        assert!(
            tight.metrics.obj_writes >= loose.metrics.obj_writes,
            "pressure must not reduce stable writes: {} vs {}",
            tight.metrics.obj_writes,
            loose.metrics.obj_writes
        );
    }

    #[test]
    fn identity_cm_never_quiesces_under_pressure() {
        let r = run_one(Some(4), FlushStrategy::IdentityWrites, 6);
        assert_eq!(r.metrics.quiesces, 0);
    }
}
