#![warn(missing_docs)]
//! Simulated stable storage for the llog recovery stack.
//!
//! The paper's cost arguments (§1, §4) are about *counts*: object I/Os, log
//! bytes, log forces, system quiesces. This crate provides an in-memory
//! stable store that survives simulated crashes and accounts for every such
//! event in a shared [`Metrics`] ledger, plus the System R-style
//! shadow-paging substrate used as the §4 atomic-flush baseline.
//!
//! Crash model: the stable store and any committed shadow root survive a
//! crash; volatile state (caches, log buffers, uncommitted shadow
//! intentions) is owned by other crates and simply dropped.

pub mod device;
pub mod metrics;
mod mvcc;
mod persist;
mod shadow;
mod store;

pub use metrics::{Merge, Metrics, MetricsSnapshot};
pub use mvcc::{Version, VersionStore};
pub use shadow::ShadowStore;
pub use store::{StableStore, StoredObject};
