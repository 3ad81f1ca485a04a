//! Experiment implementations reproducing the paper's comparative claims.
//!
//! The paper (SIGMOD 1999) has no measured evaluation; its results are the
//! worked examples of Figures 1, 5 and 7 and the cost arguments of §1, §4
//! and §5. Each module here turns one of those into a measured experiment;
//! the `exp_*` binaries print the tables recorded in `EXPERIMENTS.md`.
//!
//! | module | paper artifact |
//! |---|---|
//! | [`e1_logging_cost`] | Figure 1: logical vs physiological logging bytes |
//! | [`e2_domain_logging`] | §1 + Table 1: per-domain logging cost |
//! | [`e3_flushsets`] | Figures 5 & 7, §3: `W` vs `rW` flush-set sizes |
//! | [`e4_flush_break`] | §4: identity writes vs flush txn vs shadow |
//! | [`e5_redo_tests`] | §5: REDO-test redo counts, transient objects |
//! | [`e6_checkpointing`] | §2/§5: recovery work vs checkpoint interval |
//! | [`e7_ablation`] | §6: full-system ablation across four designs |
//! | [`e8_media`] | §1 / media recovery: fuzzy backups |
//! | [`e9_cache_pressure`] | §3: bounded cache, eviction and forced installs |
//! | [`e10_amortization`] | §4: updates amortized per flush |
//! | [`e14_server_load`] | DESIGN §12: open-loop load against the TCP front end |
//! | [`e15_replication`] | DESIGN §13: replica lag under load + failover fidelity |
//!
//! [`sim`] is the harness they (and `llog-fuzz`) drive: seeded workloads,
//! crash injection, the replay oracle and table formatting.
//!
//! Shard scaling and group commit, the hot-path log device, snapshot reads
//! and recovery speed (formerly E11, E16, E17 over a simulated device sleep
//! and E12 over a sleeping transform) are measured on a real device by the
//! repository benchmark in `bench/`.

pub mod e10_amortization;
pub mod e14_server_load;
pub mod e15_replication;
pub mod e1_logging_cost;
pub mod e2_domain_logging;
pub mod e3_flushsets;
pub mod e4_flush_break;
pub mod e5_redo_tests;
pub mod e6_checkpointing;
pub mod e7_ablation;
pub mod e8_media;
pub mod e9_cache_pressure;
pub mod sim;

use llog_core::{EngineConfig, FlushStrategy, GraphKind};

/// The default engine configuration experiments start from.
pub fn default_config() -> EngineConfig {
    EngineConfig {
        graph: GraphKind::RW,
        flush: FlushStrategy::IdentityWrites,
        audit: false,
    }
}
