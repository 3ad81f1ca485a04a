//! Simulation harness: workload generation, crash injection, the recovery
//! oracle and experiment table formatting.
//!
//! Everything here is deterministic under a seed, so crash-recovery
//! properties can be stated as: *for every crash point of any generated
//! schedule, recovery restores a state the oracle accepts.*

mod harness;
mod table;
mod workload;

pub use harness::{
    replay_stable_log, run_crash_recover_verify, run_workload, verify_against_log, CrashPoint,
    RunReport,
};
pub use table::{human_bytes, Table};
pub use workload::{OpSpec, Workload, WorkloadKind};
