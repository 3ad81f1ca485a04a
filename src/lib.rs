#![warn(missing_docs)]
//! # llog — logical logging to extend recovery to new domains
//!
//! A Rust reproduction of Lomet & Tuttle, *Logical Logging to Extend
//! Recovery to New Domains* (SIGMOD 1999): redo recovery with general
//! *logical* log operations, the refined write graph **rW**, cache-manager
//! identity writes, and generalized recovery state identifiers (rSIs).
//!
//! This facade crate re-exports the full stack:
//!
//! - [`types`]: identifiers, values, errors
//! - [`ops`]: deterministic transforms, Table 1 operations, histories
//! - [`storage`]: simulated stable storage with I/O accounting
//! - [`wal`]: the write-ahead log
//! - [`core`]: installation graphs, write graphs W/rW, the cache manager,
//!   REDO tests and recovery
//! - [`engine`]: N hash-sharded engines behind one handle, with a
//!   group-commit durability pipeline, backpressure and parallel recovery
//! - [`repl`]: log shipping — warm-standby replicas running continuous
//!   redo, consistent reads at a replayed-LSN watermark, failover
//! - [`domains`]: application recovery, file systems, B-trees
//! - [`sim`]: workload generation, crash injection and the recovery oracle
//! - [`testkit`]: deterministic PRNG, seeded property-test harness and
//!   fault injection (the workspace has zero external dependencies)
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system map.
//!
//! ```
//! use llog::core::{recover, Engine, EngineConfig, RedoPolicy};
//! use llog::ops::{builtin, OpKind, Transform, TransformRegistry};
//! use llog::types::{ObjectId, Value};
//!
//! let registry = TransformRegistry::with_builtins();
//! let mut engine = Engine::new(EngineConfig::default(), registry.clone());
//!
//! // Figure 1(a): A: Y ← f(X,Y); B: X ← g(Y) — logged by id only.
//! let (x, y) = (ObjectId(1), ObjectId(2));
//! engine.execute(OpKind::Logical, vec![x, y], vec![y],
//!     Transform::new(builtin::HASH_MIX, Value::from("A"))).unwrap();
//! engine.execute(OpKind::Logical, vec![y], vec![x],
//!     Transform::new(builtin::HASH_MIX, Value::from("B"))).unwrap();
//! let (want_x, want_y) = (engine.peek_value(x), engine.peek_value(y));
//!
//! engine.wal_mut().force();
//! let (store, wal) = engine.crash();
//! let (mut recovered, outcome) = recover(
//!     store, wal, registry, EngineConfig::default(), RedoPolicy::RsiExposed,
//! ).unwrap();
//! assert_eq!(outcome.redone, 2);
//! assert_eq!(recovered.read_value(x), want_x);
//! assert_eq!(recovered.read_value(y), want_y);
//! ```

pub use llog_core as core;
pub use llog_domains as domains;
pub use llog_engine as engine;
pub use llog_ops as ops;
pub use llog_repl as repl;
pub use llog_sim as sim;
pub use llog_storage as storage;
pub use llog_testkit as testkit;
pub use llog_types as types;
pub use llog_wal as wal;
