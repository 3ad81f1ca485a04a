//! Error taxonomy for the recovery stack.

use std::fmt;

use crate::{FnId, Lsn, ObjectId, OpId};

/// Errors surfaced by the llog crates.
///
/// Recovery code distinguishes *expected* conditions (a torn log tail, an
/// inapplicable operation during a trial re-execution) from genuine bugs
/// (invariant violations); the former are values of this type, the latter are
/// panics in debug assertions and checker failures in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LlogError {
    /// A log record failed checksum or framing validation. During a tail
    /// scan this marks the torn end of the log; anywhere else it is
    /// corruption.
    Corrupt {
        /// Log offset of the bad frame.
        offset: u64,
        /// What failed (framing, checksum, ...).
        reason: String,
    },
    /// A record could not be decoded (unknown type tag, short payload, ...).
    Codec {
        /// What could not be decoded.
        reason: String,
    },
    /// An I/O operation on a persistence path failed (device error, injected
    /// fault). Distinct from [`LlogError::Codec`]: the bytes never made it to
    /// or from the medium, as opposed to arriving mangled.
    Io {
        /// The failing path ("store.save", "wal.force", a file path, ...).
        point: String,
        /// OS error string or injected-fault description.
        reason: String,
    },
    /// A read named an object with no value in cache or stable state.
    ObjectMissing(ObjectId),
    /// A transform function id was not present in the registry at replay.
    UnknownTransform(FnId),
    /// A transform rejected its inputs. During recovery this voids a trial
    /// re-execution (paper §5, case 2c) rather than failing recovery.
    NotApplicable {
        /// The rejecting operation.
        op: OpId,
        /// Why its inputs were unacceptable.
        reason: String,
    },
    /// A transform produced the wrong number of outputs for its writeset —
    /// the §5 case 2b "attempts to update more than the original writeset".
    WritesetMismatch {
        /// The offending operation.
        op: OpId,
        /// Writeset size the log record declared.
        expected: usize,
        /// Outputs the transform produced.
        got: usize,
    },
    /// An LSN was outside the live log (truncated away or past the end).
    LsnOutOfRange {
        /// The requested LSN.
        lsn: Lsn,
        /// First live LSN.
        start: Lsn,
        /// One past the last stable LSN.
        end: Lsn,
    },
    /// The caller asked the cache manager for something it refuses:
    /// flushing a non-minimal write-graph node, evicting a dirty object, ...
    CacheProtocol(String),
    /// A flush needed multi-object atomicity but the stable store was not
    /// configured to provide it (no shadow mode / flush transactions).
    AtomicityUnavailable {
        /// Size of the atomic flush set that was requested.
        objects: usize,
    },
    /// Recovery detected an unexplainable stable state (should only happen in
    /// fault-injection tests that deliberately violate the flush protocol).
    Unexplainable(String),
    /// The engine is a standby: it replays a shipped log and refuses
    /// writes, installs, checkpoints and shipping until it is promoted.
    Standby,
}

/// Crate-wide result alias over [`LlogError`].
pub type Result<T> = std::result::Result<T, LlogError>;

impl fmt::Display for LlogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LlogError::Corrupt { offset, reason } => {
                write!(f, "corrupt log record at offset {offset}: {reason}")
            }
            LlogError::Codec { reason } => write!(f, "log codec error: {reason}"),
            LlogError::Io { point, reason } => write!(f, "i/o error at {point}: {reason}"),
            LlogError::ObjectMissing(id) => write!(f, "object {id} missing"),
            LlogError::UnknownTransform(id) => {
                write!(f, "transform {id:?} not registered for replay")
            }
            LlogError::NotApplicable { op, reason } => {
                write!(f, "operation {op:?} not applicable: {reason}")
            }
            LlogError::WritesetMismatch { op, expected, got } => write!(
                f,
                "operation {op:?} produced {got} outputs for a writeset of {expected}"
            ),
            LlogError::LsnOutOfRange { lsn, start, end } => {
                write!(f, "lsn {lsn} outside live log [{start}, {end})")
            }
            LlogError::CacheProtocol(msg) => write!(f, "cache protocol violation: {msg}"),
            LlogError::AtomicityUnavailable { objects } => write!(
                f,
                "atomic flush of {objects} objects requested but store has no atomic multi-write"
            ),
            LlogError::Unexplainable(msg) => write!(f, "stable state unexplainable: {msg}"),
            LlogError::Standby => write!(f, "the engine is a read-only standby until promoted"),
        }
    }
}

impl std::error::Error for LlogError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LlogError::ObjectMissing(ObjectId(4));
        assert_eq!(e.to_string(), "object obj:4 missing");
        let e = LlogError::LsnOutOfRange {
            lsn: Lsn(5),
            start: Lsn(10),
            end: Lsn(20),
        };
        assert!(e.to_string().contains("outside live log"));
        let e = LlogError::Io {
            point: "wal.force".to_string(),
            reason: "injected write error".to_string(),
        };
        assert_eq!(
            e.to_string(),
            "i/o error at wal.force: injected write error"
        );
    }
}
