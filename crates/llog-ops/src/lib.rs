#![warn(missing_docs)]
//! Operation model for logical-logging recovery.
//!
//! The paper's log records describe *operations*: deterministic
//! transformations `writeset ← f(readset)` over recoverable objects. A
//! *logical* operation logs only the function id, its parameters and the
//! object ids involved — never the data values — which is the entire logging
//! economy the paper is after (Figure 1). A *physical* operation embeds the
//! written values in its parameters; a *physiological* operation reads and
//! writes exactly one object.
//!
//! This crate provides:
//!
//! - [`Transform`] / [`TransformRegistry`]: replayable deterministic
//!   functions, resolved by [`FnId`] at redo time,
//! - [`Operation`] and its read/write/exposure structure,
//! - the Table 1 operation vocabulary ([`table1`]),
//! - conflict-ordered [`History`]s and a replay oracle ([`Replayer`]).

mod history;
mod op;
pub mod table1;
mod transform;

pub use history::{History, Replayer};
pub use llog_types::{FnId, Lsn, ObjectId, OpId, Si, Value};
pub use op::{OpKind, Operation};
pub use transform::{builtin, Transform, TransformFn, TransformRegistry};
