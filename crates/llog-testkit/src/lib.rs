#![warn(missing_docs)]
//! # llog-testkit — hermetic randomness, property tests, and fault injection
//!
//! The llog workspace builds and tests **offline** (`cargo build --offline
//! --locked` with an empty crates.io cache). This crate supplies the test
//! infrastructure that would otherwise come from crates.io:
//!
//! - [`rng`]: a deterministic [SplitMix64](rng::SplitMix64)-seeded
//!   [xoshiro256**](rng::TestRng) PRNG with the small `Rng` surface the
//!   codebase uses (`random_range`, `shuffle`, bool/f64 draws,
//!   seed-from-u64). Same seed ⇒ same stream, forever.
//! - [`prop`]: a minimal property-testing harness — seeded case
//!   generation, an iteration budget, greedy input shrinking on failure,
//!   and failure-seed reporting — with a [`proptest!`]-compatible macro
//!   surface (`prop_oneof!`, `prop_assert!`, `prop_assert_eq!`, `vec`,
//!   `any`, `Just`, `.prop_map`).
//! - [`faults`]: a deterministic fault-injection substrate — a seeded
//!   [`FaultPlan`](faults::FaultPlan) plus a thread-safe single-shot
//!   [`FaultHost`](faults::FaultHost) with named failpoints (torn write,
//!   short fsync, I/O error, bit flip, delayed/reordered page write) that
//!   the storage, WAL, and engine crates consult on their persistence
//!   paths. Same seed ⇒ identical fault schedule.
//!
//! ## Deterministic seeding policy
//!
//! Every randomized test derives its stream from an explicit `u64` seed.
//! Property tests pick their base seed from `LLOG_PROP_SEED` (default: a
//! stable hash of the property name, so CI is reproducible run-over-run)
//! and print the failing seed + shrunk counterexample on failure;
//! re-running with `LLOG_PROP_SEED=<seed>` replays the exact failure.

pub mod faults;
pub mod prop;
pub mod rng;

pub use faults::{
    failpoint, FaultHost, FaultKind, FaultPlan, FiredFault, ForceVerdict, InjectedFault,
    PlannedFault, WriteVerdict,
};
pub use prop::{Config, Just, Strategy, StrategyExt};
pub use rng::TestRng;
