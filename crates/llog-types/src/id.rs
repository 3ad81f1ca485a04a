//! Identifier newtypes.
//!
//! The paper's *state identifiers* (SIs) generalize ARIES LSNs: recovery only
//! requires that an object's SIs increase monotonically. We use log byte
//! offsets as SIs, which makes every SI also a position in the log address
//! space — exactly the "LSNs as SIs" instantiation the paper mentions.

use std::fmt;

/// A recoverable object's identity.
///
/// The paper's central economy is logging a *source identifier* ("unlikely to
/// be larger than 16 bytes") instead of the object's value; this is that
/// identifier. Applications, files, B-tree pages and database objects all
/// share this id space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj:{}", self.0)
    }
}

/// A log sequence number: a byte offset into the log address space.
///
/// Used both as a log-record address (`lSI`) and as an object state
/// identifier (`vSI`, `rSI`). `Lsn::ZERO` addresses the beginning of time;
/// no record lives there.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lsn(pub u64);

/// The paper's *state identifier*. LSNs are our SIs.
pub type Si = Lsn;

impl Lsn {
    /// The zero value (reserved: "never updated").
    pub const ZERO: Lsn = Lsn(0);
    /// The maximum value (sentinel: "no uninstalled update").
    pub const MAX: Lsn = Lsn(u64::MAX);

    #[must_use]
    /// Advance by the given number of bytes.
    pub fn advance(self, bytes: u64) -> Lsn {
        Lsn(self.0 + bytes)
    }
}

impl fmt::Debug for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn:{}", self.0)
    }
}

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identity of an operation within a history (its position in conflict
/// order). Distinct from its `Lsn`: an operation has an `OpId` as soon as it
/// executes, and an `Lsn` once its log record is assigned a log position.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl fmt::Debug for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op:{}", self.0)
    }
}

/// Identity of a registered deterministic transform function.
///
/// A logical log record names the function that performed the transformation
/// (the `f` in `Y ← f(X,Y)` of Figure 1); replay resolves the id in a
/// [`TransformRegistry`](https://docs.rs/llog-ops) shared by normal execution
/// and recovery.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(pub u16);

impl fmt::Debug for FnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn:{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsn_ordering_and_advance() {
        let a = Lsn(10);
        assert!(a < a.advance(1));
        assert_eq!(a.advance(5), Lsn(15));
        assert!(Lsn::ZERO < a && a < Lsn::MAX);
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", ObjectId(7)), "obj:7");
        assert_eq!(format!("{:?}", Lsn(9)), "lsn:9");
        assert_eq!(format!("{:?}", OpId(3)), "op:3");
        assert_eq!(format!("{:?}", FnId(2)), "fn:2");
    }
}
