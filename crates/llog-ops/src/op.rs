//! Operations: the nodes of histories, installation graphs and log records.

use std::collections::BTreeSet;

use llog_types::{ObjectId, OpId, Value};

use crate::transform::{builtin, Transform};

/// The paper's operation classes, ordered roughly by logging cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Reads and writes possibly different objects; logs only ids + params
    /// (Figure 1(a)). The interesting case.
    Logical,
    /// Reads and writes a single object (`X ← f(X)`); logs ids + params.
    /// The ARIES-style state of the art the paper compares against.
    Physiological,
    /// Blind write of logged values (`W_P(X, v)`); logs the values.
    Physical,
    /// A cache-manager initiated identity write `W_IP(X, val(X))` (§4):
    /// physically logs the object's current value without changing it, to
    /// break up an atomic flush set.
    IdentityWrite,
    /// Terminates an object's lifetime; afterwards the object is never
    /// exposed and its log records need no redo (§5).
    Delete,
}

/// A single recoverable operation: `writes ← f(reads)`.
///
/// Following the paper's simplified framework (§2), an operation is one
/// atomically-installed update; its writeset may still contain several
/// objects (Figure 7's operation A writes both X and Y).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Operation {
    /// Position in conflict order. Assigned by the [`History`](crate::History)
    /// or cache manager.
    pub id: OpId,
    /// Operation class (logging-cost category).
    pub kind: OpKind,
    /// `readset(Op)`, in the order inputs are passed to the transform.
    pub reads: Vec<ObjectId>,
    /// `writeset(Op)`, in the order outputs are produced by the transform.
    pub writes: Vec<ObjectId>,
    /// The deterministic transform and its logged params.
    pub transform: Transform,
}

impl Operation {
    /// Create a new instance.
    pub fn new(
        id: OpId,
        kind: OpKind,
        reads: Vec<ObjectId>,
        writes: Vec<ObjectId>,
        transform: Transform,
    ) -> Operation {
        debug_assert!(!writes.is_empty(), "an operation must write something");
        debug_assert!(
            writes.iter().collect::<BTreeSet<_>>().len() == writes.len(),
            "duplicate objects in writeset"
        );
        Operation {
            id,
            kind,
            reads,
            writes,
            transform,
        }
    }

    /// Does this operation read `x`?
    pub fn reads_obj(&self, x: ObjectId) -> bool {
        self.reads.contains(&x)
    }

    /// Does this operation write `x`?
    pub fn writes_obj(&self, x: ObjectId) -> bool {
        self.writes.contains(&x)
    }

    /// Does this operation read or write `x`?
    pub fn touches(&self, x: ObjectId) -> bool {
        self.reads_obj(x) || self.writes_obj(x)
    }

    /// `exp(Op) = writeset(Op) ∩ readset(Op)` — objects whose updates depend
    /// on their previous values and are therefore unavoidably exposed
    /// (Table 1).
    pub fn exp(&self) -> Vec<ObjectId> {
        self.writes
            .iter()
            .copied()
            .filter(|x| self.reads_obj(*x))
            .collect()
    }

    /// `notexp(Op) = writeset(Op) − readset(Op)` — blindly updated objects
    /// that can be recovered independently of their earlier values (Table 1).
    pub fn notexp(&self) -> Vec<ObjectId> {
        self.writes
            .iter()
            .copied()
            .filter(|x| !self.reads_obj(*x))
            .collect()
    }

    /// Does this operation blindly write `x` (write without reading it)?
    pub fn blindly_writes(&self, x: ObjectId) -> bool {
        self.writes_obj(x) && !self.reads_obj(x)
    }

    /// Two operations conflict iff they touch a common object and at least
    /// one writes it.
    pub fn conflicts_with(&self, other: &Operation) -> bool {
        self.writes.iter().any(|x| other.touches(*x))
            || other.writes.iter().any(|x| self.touches(*x))
    }

    /// Is this operation's log record free of data values? (True for
    /// logical/physiological records whose params are genuinely small; the
    /// check here is structural: physical and identity writes always carry
    /// values.)
    pub fn carries_values(&self) -> bool {
        matches!(self.kind, OpKind::Physical | OpKind::IdentityWrite)
            || self.transform.fn_id == builtin::CONST
    }
}

/// Convenience constructors used across tests and workloads.
impl Operation {
    /// Logical op: `writes ← f(reads)` with the HASH_MIX transform — a stand-in
    /// for an arbitrary deterministic computation.
    pub fn logical(id: u64, reads: &[u64], writes: &[u64]) -> Operation {
        Operation::new(
            OpId(id),
            OpKind::Logical,
            reads.iter().map(|&n| ObjectId(n)).collect(),
            writes.iter().map(|&n| ObjectId(n)).collect(),
            Transform::new(builtin::HASH_MIX, Value::from_slice(&id.to_le_bytes())),
        )
    }

    /// Physiological op: `X ← f(X)`.
    pub fn physiological(id: u64, x: u64) -> Operation {
        Operation::new(
            OpId(id),
            OpKind::Physiological,
            vec![ObjectId(x)],
            vec![ObjectId(x)],
            Transform::new(builtin::HASH_MIX, Value::from_slice(&id.to_le_bytes())),
        )
    }

    /// Physical blind write: `X ← v`, logging `v`.
    pub fn physical(id: u64, x: u64, v: Value) -> Operation {
        Operation::new(
            OpId(id),
            OpKind::Physical,
            vec![],
            vec![ObjectId(x)],
            Transform::new(builtin::CONST, builtin::encode_values(&[v])),
        )
    }

    /// Delete of `X`.
    pub fn delete(id: u64, x: u64) -> Operation {
        Operation::new(
            OpId(id),
            OpKind::Delete,
            vec![],
            vec![ObjectId(x)],
            Transform::new(builtin::DELETE, Value::empty()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposure_partition() {
        // Y ← f(X, Y): Y is exposed (read and written), X only read.
        let op = Operation::logical(1, &[10, 20], &[20]);
        assert_eq!(op.exp(), vec![ObjectId(20)]);
        assert!(op.notexp().is_empty());

        // X ← g(Y): X blindly written.
        let op = Operation::logical(2, &[20], &[10]);
        assert!(op.exp().is_empty());
        assert_eq!(op.notexp(), vec![ObjectId(10)]);
        assert!(op.blindly_writes(ObjectId(10)));
        assert!(!op.blindly_writes(ObjectId(20)));
    }

    #[test]
    fn multi_write_exposure() {
        // (X, Y) ← f(X): X exposed, Y blind.
        let op = Operation::logical(1, &[1], &[1, 2]);
        assert_eq!(op.exp(), vec![ObjectId(1)]);
        assert_eq!(op.notexp(), vec![ObjectId(2)]);
    }

    #[test]
    fn conflicts() {
        let a = Operation::logical(1, &[1], &[2]); // reads 1, writes 2
        let b = Operation::logical(2, &[2], &[3]); // reads 2, writes 3
        let c = Operation::logical(3, &[9], &[8]);
        assert!(a.conflicts_with(&b)); // a writes 2, b reads 2
        assert!(b.conflicts_with(&a));
        assert!(!a.conflicts_with(&c));
        // read-read sharing is not a conflict
        let r1 = Operation::logical(4, &[5], &[6]);
        let r2 = Operation::logical(5, &[5], &[7]);
        assert!(!r1.conflicts_with(&r2));
    }

    #[test]
    fn log_payload_reflects_figure_one() {
        // Logical: ids only, no values. The record's size is measured on
        // the real encoding in `llog-wal`'s `record.rs`.
        let logical = Operation::logical(1, &[1, 2], &[2]);
        assert!(!logical.carries_values());

        // Physical: carries the (large) value.
        let big = Value::filled(0, 64 * 1024);
        let physical = Operation::physical(2, 1, big);
        assert!(physical.carries_values());
    }

    #[test]
    fn delete_is_blind() {
        let d = Operation::delete(1, 7);
        assert_eq!(d.notexp(), vec![ObjectId(7)]);
        assert_eq!(d.kind, OpKind::Delete);
    }
}
