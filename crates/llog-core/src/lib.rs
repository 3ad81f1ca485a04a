#![warn(missing_docs)]
//! The paper's machinery: installation graphs, write graphs, cache
//! management with identity writes, REDO tests and recovery.
//!
//! Module map (paper section in parentheses):
//!
//! - [`igraph`]: the installation graph — read-write and write-write edges
//!   constraining installation order (§2).
//! - [`exposed`]: prefix sets, exposed objects, and the explainability
//!   checker used as the correctness oracle (§2).
//! - [`wgraph`]: the write graph `W` of \[LT95\], built by double collapse
//!   (Figure 3).
//! - [`rwgraph`]: the refined write graph `rW`, built incrementally by
//!   `addop_rW` (Figure 6), with unexposed-object removal and cycle
//!   collapse (§3).
//! - [`cache`]: the cache manager — `PurgeCache` (Figure 4), identity
//!   writes, flush transactions and shadow flushes (§4), vSI/rSI
//!   maintenance, checkpointing.
//! - [`redo`]: the REDO tests — vSI-based and the generalized rSI +
//!   exposed test (§5).
//! - [`recover`](mod@recover): the recovery pipeline — analysis and redo
//!   over one log scan (Figure 2) — and [`recover_two_pass`], the two-scan
//!   reference tests compare it against.
//! - [`invariant`]: the `Inv(I)` audit used by tests (§3).
//! - [`replica`]: continuous redo for warm standbys — an incremental
//!   [`RedoSession`] over a shipped log, with a replayed-LSN watermark
//!   and promotion (recovery that never stops).

pub mod cache;
pub mod exposed;
pub mod igraph;
pub mod invariant;
pub mod media;
pub mod recover;
pub mod redo;
pub mod replica;
pub mod rwgraph;
pub mod shared;
pub mod snapshot;
pub mod wgraph;

pub use cache::{Engine, EngineConfig, FlushStrategy, GraphKind, InstallStep};
pub use igraph::{EdgeKind, InstallGraph};
pub use media::{media_recover, media_recover_archived, Backup, BackupMode};
pub use recover::{recover, recover_two_pass, RecoveryOutcome};
pub use redo::RedoPolicy;
pub use replica::{RedoSession, ReplicaReader};
pub use rwgraph::{NodeId, RWGraph};
pub use snapshot::{Snapshot, SnapshotRegistry};
pub use wgraph::WriteGraph;
