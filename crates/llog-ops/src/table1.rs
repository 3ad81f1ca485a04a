//! The operation vocabulary of the paper's Table 1.
//!
//! These constructors encode the read/write shapes exactly as the table
//! gives them; the transforms are deterministic stand-ins for "whatever the
//! application/file system computed", chosen so wrong replays are visible:
//!
//! | op | shape | kind |
//! |---|---|---|
//! | `Ex(A)` | reads A, writes A | physiological |
//! | `R(A,X)` | reads A and X, writes A | logical |
//! | `W_P(X,v)` | writes X with logged v | physical |
//! | `W_PL(X)` | reads and writes X | physiological |
//! | `W_L(A,X)` | reads A, writes X | logical |
//! | `W_IP(X,val(X))` | writes X with its current value | identity (physical) |

use llog_types::{ObjectId, OpId, Value};

use crate::op::{OpKind, Operation};
use crate::transform::{builtin, Transform};

/// `Ex(A)` — application execution between recoverable events: `A ← f(A)`.
/// `step` parameterizes which execution step this is (stored in the log
/// record, as the paper prescribes).
pub fn ex(id: OpId, a: ObjectId, step: u64) -> Operation {
    Operation::new(
        id,
        OpKind::Physiological,
        vec![a],
        vec![a],
        Transform::new(builtin::HASH_MIX, Value::from_slice(&step.to_le_bytes())),
    )
}

/// `R(A,X)` — application `A` reads object `X` into its input buffer,
/// transforming `A`: `A ← f(A, X)`. Logical: neither `X`'s value nor `A`'s
/// new state is logged.
pub fn read(id: OpId, a: ObjectId, x: ObjectId) -> Operation {
    Operation::new(
        id,
        OpKind::Logical,
        vec![a, x],
        vec![a],
        Transform::new(builtin::HASH_MIX, Value::from_slice(b"appread")),
    )
}

/// `W_P(X, v)` — physical write: `X ← v` with `v` in the log record.
pub fn write_physical(id: OpId, x: ObjectId, v: Value) -> Operation {
    Operation::new(
        id,
        OpKind::Physical,
        vec![],
        vec![x],
        Transform::new(builtin::CONST, builtin::encode_values(&[v])),
    )
}

/// `W_PL(X)` — physiological write: `X ← f(X)`.
pub fn write_physiological(id: OpId, x: ObjectId, params: Value) -> Operation {
    Operation::new(
        id,
        OpKind::Physiological,
        vec![x],
        vec![x],
        Transform::new(builtin::HASH_MIX, params),
    )
}

/// `W_L(A,X)` — logical application write: `X ← g(A)`; `X` takes the value
/// of application `A`'s output buffer. The value of `X` is *not* logged —
/// the operation the paper's §6 singles out as the big win over \[Lomet98\].
pub fn write_logical(id: OpId, a: ObjectId, x: ObjectId) -> Operation {
    Operation::new(
        id,
        OpKind::Logical,
        vec![a],
        vec![x],
        Transform::new(builtin::COPY, Value::empty()),
    )
}

/// `W_IP(X, val(X))` — cache-manager identity write: physically logs `X`'s
/// current value without changing it (§4). Reads nothing, so it has no
/// installation-graph successors.
pub fn identity_write(id: OpId, x: ObjectId, current: Value) -> Operation {
    Operation::new(
        id,
        OpKind::IdentityWrite,
        vec![],
        vec![x],
        Transform::new(builtin::CONST, builtin::encode_values(&[current])),
    )
}

/// Object delete — terminates `X`'s lifetime (§5: its rSI becomes the delete
/// lSI and it leaves the object table).
pub fn delete(id: OpId, x: ObjectId) -> Operation {
    Operation::new(
        id,
        OpKind::Delete,
        vec![],
        vec![x],
        Transform::new(builtin::DELETE, Value::empty()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::Replayer;
    use crate::transform::TransformRegistry;

    const A: ObjectId = ObjectId(100);
    const X: ObjectId = ObjectId(200);

    #[test]
    fn shapes_match_table_one() {
        let op = ex(OpId(0), A, 3);
        assert_eq!((op.reads.clone(), op.writes.clone()), (vec![A], vec![A]));

        let op = read(OpId(1), A, X);
        assert_eq!((op.reads.clone(), op.writes.clone()), (vec![A, X], vec![A]));
        assert_eq!(op.kind, OpKind::Logical);

        let op = write_physical(OpId(2), X, Value::from("v"));
        assert!(op.reads.is_empty());
        assert_eq!(op.writes, vec![X]);
        assert!(op.carries_values());

        let op = write_physiological(OpId(3), X, Value::empty());
        assert_eq!((op.reads.clone(), op.writes.clone()), (vec![X], vec![X]));

        let op = write_logical(OpId(4), A, X);
        assert_eq!((op.reads.clone(), op.writes.clone()), (vec![A], vec![X]));
        assert!(!op.carries_values());
        assert_eq!(op.notexp(), vec![X]); // blind: potential flush-cycle source

        let op = identity_write(OpId(5), X, Value::from("cur"));
        assert!(op.reads.is_empty());
        assert_eq!(op.kind, OpKind::IdentityWrite);
    }

    #[test]
    fn identity_write_does_not_change_the_object() {
        let reg = TransformRegistry::with_builtins();
        let mut r = Replayer::new();
        r.set(X, Value::from("current"));
        let op = identity_write(OpId(0), X, r.get(X));
        r.apply(&op, &reg).unwrap();
        assert_eq!(r.get(X), Value::from("current"));
    }

    #[test]
    fn logical_write_copies_app_output() {
        let reg = TransformRegistry::with_builtins();
        let mut r = Replayer::new();
        r.set(A, Value::from("output-buffer"));
        r.apply(&write_logical(OpId(0), A, X), &reg).unwrap();
        assert_eq!(r.get(X), Value::from("output-buffer"));
    }

    #[test]
    fn app_session_is_deterministic() {
        let reg = TransformRegistry::with_builtins();
        let run = || {
            let mut r = Replayer::new();
            r.set(X, Value::from("input-file"));
            r.apply(&ex(OpId(0), A, 0), &reg).unwrap();
            r.apply(&read(OpId(1), A, X), &reg).unwrap();
            r.apply(&ex(OpId(2), A, 1), &reg).unwrap();
            r.apply(&write_logical(OpId(3), A, X), &reg).unwrap();
            (r.get(A), r.get(X))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn logical_ops_log_small_physical_ops_log_values() {
        let big = Value::filled(9, 128 * 1024);
        let wl = write_logical(OpId(0), A, X);
        let wp = write_physical(OpId(1), X, big);
        assert!(!wl.carries_values());
        assert!(wp.carries_values());
    }
}
