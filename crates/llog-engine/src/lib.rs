#![warn(missing_docs)]
//! # llog-engine — sharded execution with group commit on demand
//!
//! The paper's recovery machinery — the refined write graph **rW**, the
//! dirty-object table, the REDO test — is all *per-engine* state: nothing
//! in it refers to objects another engine owns. Hash-partitioning the
//! object space therefore yields N independent recoverable engines with no
//! cross-shard installation edges, and recovery of the whole system is
//! just recovery of every shard (in parallel — each shard scans only its
//! own log).
//!
//! This crate wraps N [`llog_core::Engine`] instances behind one
//! [`ShardedEngine`] handle:
//!
//! - **Routing** ([`ShardRouter`]): an operation's read and write sets
//!   must live on one shard (cross-shard operations are rejected — an rW
//!   edge between engines would otherwise be unrepresentable).
//! - **Group commit** ([`CommitPolicy::Group`]): `execute` appends the
//!   operation to the shard's WAL under the shard lock but *durability*
//!   waits on a [`CommitTicket`]. A waiter asks the force barrier for a
//!   force; the barrier advances a durable-LSN watermark that wakes waiters
//!   via condvar, and whatever was appended while it synced rides the next
//!   one — many commits, one force, no timer.
//! - **One force barrier**: every force — ticket waits, `Sync` commits,
//!   [`ShardedEngine::force_shard`], [`ShardedEngine::force_all`] — rides
//!   one scheduler thread that covers every shard asked for with a single
//!   device sync; with a backend attached the log tail is staged on the
//!   device, and the watermark advances only to what the device reports
//!   durable.
//! - **Snapshot reads**: each shard publishes immutable versions and
//!   [`ShardedEngine::read_value_snapshot`] resolves reads at the durable
//!   watermark without the engine mutex.
//! - **Backpressure**: a bounded uninstalled window per shard; `execute`
//!   parks instead of letting the write graph (and post-crash redo work)
//!   grow without limit.
//! - **Parallel crash & recovery**: [`ShardedEngine::crash`] crashes every
//!   shard; [`recover_sharded`] recovers them on a shared worker pool
//!   bounded by `available_parallelism`. A
//!   checkpoint coordinator ([`ShardedEngine::spawn_checkpointer`])
//!   checkpoints shards round-robin and truncates per-shard logs.
//! - **Aggregated accounting** ([`ShardedSnapshot`]): the per-shard
//!   [`llog_storage::Metrics`] ledgers summed into one cost picture, plus
//!   group-commit counters (batch sizes, flush-wait time, backpressure).
//!
//! ```
//! use llog_engine::{CommitPolicy, ShardedConfig, ShardedEngine};
//! use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
//! use llog_types::{ObjectId, Value};
//!
//! let registry = TransformRegistry::with_builtins();
//! let config = ShardedConfig {
//!     shards: 4,
//!     ..ShardedConfig::default()
//! };
//! let engine = ShardedEngine::new(config, &registry);
//! let ticket = engine
//!     .execute(
//!         OpKind::Physical,
//!         vec![],
//!         vec![ObjectId(7)],
//!         Transform::new(builtin::CONST, builtin::encode_values(&[Value::from("v")])),
//!     )
//!     .unwrap();
//! assert!(ticket.wait()); // asks the force barrier for a force and blocks on it
//! assert!(ticket.is_durable());
//! let parts = engine.crash(); // acknowledged commits survive recovery
//! assert_eq!(parts.len(), 4);
//! ```

mod router;
mod scheduler;
mod shard;
mod sharded;
mod snapshot;

pub use router::ShardRouter;
pub use shard::CommitTicket;
pub use sharded::{
    recover_sharded, recover_sharded_from_backends, CommitPolicy, ShardedConfig, ShardedEngine,
    ShipManifest,
};
pub use snapshot::{GroupCommitSnapshot, ShardedSnapshot};
