//! Log record types and their binary codec.
//!
//! Frame layout: `[len: u32][crc32c(payload): u32][payload]`. The CRC guards
//! torn tails; the scan stops at the first frame that fails bounds or
//! checksum validation.

use llog_ops::{OpKind, Operation, Transform};
use llog_types::{ByteReader, ByteWriter, FnId, LlogError, Lsn, ObjectId, OpId, Result, Value};

/// §5 installation record: the objects of an installed write-graph node
/// whose installation the store cannot show, each with its new rSI — the
/// lSI of the object's first still-uninstalled update (or `Lsn::MAX` if
/// none, in which case the object leaves the dirty object table).
///
/// Those are the node's unexposed objects (`Notx(n)`, installed without
/// flushing) and the objects its flush removed from the store: neither
/// carries a vSI. A flushed object that stays in the store needs no entry,
/// since its vSI already witnesses every installed update, so a node with
/// neither kind logs no record at all.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstallRecord {
    /// Objects without a store vSI for the installation, with new rSIs.
    pub objs: Vec<(ObjectId, Lsn)>,
}

/// ARIES-style checkpoint: the dirty object table (object → rSI) and the
/// position the redo scan must start from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointRecord {
    /// The dirty object table: (object, rSI) pairs.
    pub dirty: Vec<(ObjectId, Lsn)>,
    /// Where the redo scan must start (min rSI at checkpoint time).
    pub redo_start: Lsn,
}

/// Every record kind the recovery stack writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// An operation; its lSI is the record's LSN.
    Op(Operation),
    /// Installation of a write-graph node (§5), for the objects the store
    /// cannot vouch for.
    Install(InstallRecord),
    /// §4 flush-transaction baseline: begin, per-object logged values,
    /// commit. Values are replayed into the stable state if the commit
    /// record survives the crash.
    FlushTxnBegin {
        /// Objects participating in the flush transaction.
        objs: Vec<ObjectId>,
    },
    /// One object's value inside a flush transaction.
    FlushTxnValue {
        /// The object being flushed.
        obj: ObjectId,
        /// Its cached value.
        value: Value,
        /// Its vSI.
        vsi: Lsn,
    },
    /// Commit point of a flush transaction (forced).
    FlushTxnCommit,
    /// Checkpoint with the dirty object table.
    Checkpoint(CheckpointRecord),
}

const TAG_OP: u8 = 1;
const TAG_INSTALL: u8 = 2;
const TAG_FT_BEGIN: u8 = 4;
const TAG_FT_VALUE: u8 = 5;
const TAG_FT_COMMIT: u8 = 6;
const TAG_CHECKPOINT: u8 = 7;

const KIND_LOGICAL: u8 = 0;
const KIND_PHYSIOLOGICAL: u8 = 1;
const KIND_PHYSICAL: u8 = 2;
const KIND_IDENTITY: u8 = 3;
const KIND_DELETE: u8 = 4;

fn kind_to_u8(k: OpKind) -> u8 {
    match k {
        OpKind::Logical => KIND_LOGICAL,
        OpKind::Physiological => KIND_PHYSIOLOGICAL,
        OpKind::Physical => KIND_PHYSICAL,
        OpKind::IdentityWrite => KIND_IDENTITY,
        OpKind::Delete => KIND_DELETE,
    }
}

fn kind_from_u8(b: u8) -> Result<OpKind> {
    Ok(match b {
        KIND_LOGICAL => OpKind::Logical,
        KIND_PHYSIOLOGICAL => OpKind::Physiological,
        KIND_PHYSICAL => OpKind::Physical,
        KIND_IDENTITY => OpKind::IdentityWrite,
        KIND_DELETE => OpKind::Delete,
        _ => {
            return Err(LlogError::Codec {
                reason: format!("unknown op kind {b}"),
            })
        }
    })
}

impl LogRecord {
    /// Encode the payload (no frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            LogRecord::Op(op) => {
                out.put_u8(TAG_OP);
                out.put_u64_le(op.id.0);
                out.put_u8(kind_to_u8(op.kind));
                out.put_u16_le(op.reads.len() as u16);
                out.put_u16_le(op.writes.len() as u16);
                for x in &op.reads {
                    out.put_u64_le(x.0);
                }
                for x in &op.writes {
                    out.put_u64_le(x.0);
                }
                out.put_u16_le(op.transform.fn_id.0);
                out.put_u32_le(op.transform.params.len() as u32);
                out.put_slice(op.transform.params.as_bytes());
            }
            LogRecord::Install(ir) => {
                out.put_u8(TAG_INSTALL);
                put_obj_lsn_list(&mut out, &ir.objs);
            }
            LogRecord::FlushTxnBegin { objs } => {
                out.put_u8(TAG_FT_BEGIN);
                out.put_u32_le(objs.len() as u32);
                for x in objs {
                    out.put_u64_le(x.0);
                }
            }
            LogRecord::FlushTxnValue { obj, value, vsi } => {
                out.put_u8(TAG_FT_VALUE);
                out.put_u64_le(obj.0);
                out.put_u64_le(vsi.0);
                out.put_u32_le(value.len() as u32);
                out.put_slice(value.as_bytes());
            }
            LogRecord::FlushTxnCommit => {
                out.put_u8(TAG_FT_COMMIT);
            }
            LogRecord::Checkpoint(cp) => {
                out.put_u8(TAG_CHECKPOINT);
                put_obj_lsn_list(&mut out, &cp.dirty);
                out.put_u64_le(cp.redo_start.0);
            }
        }
        out
    }

    /// Decode a payload produced by [`encode`](Self::encode).
    pub fn decode(mut buf: &[u8]) -> Result<LogRecord> {
        let err = |reason: &str| LlogError::Codec {
            reason: reason.to_string(),
        };
        if buf.is_empty() {
            return Err(err("empty payload"));
        }
        let tag = buf.get_u8();
        match tag {
            TAG_OP => {
                if buf.remaining() < 8 + 1 + 2 + 2 {
                    return Err(err("op header truncated"));
                }
                let id = OpId(buf.get_u64_le());
                let kind = kind_from_u8(buf.get_u8())?;
                let n_reads = buf.get_u16_le() as usize;
                let n_writes = buf.get_u16_le() as usize;
                if buf.remaining() < (n_reads + n_writes) * 8 + 2 + 4 {
                    return Err(err("op body truncated"));
                }
                let mut reads = Vec::with_capacity(n_reads);
                for _ in 0..n_reads {
                    reads.push(ObjectId(buf.get_u64_le()));
                }
                let mut writes = Vec::with_capacity(n_writes);
                for _ in 0..n_writes {
                    writes.push(ObjectId(buf.get_u64_le()));
                }
                let fn_id = FnId(buf.get_u16_le());
                let params_len = buf.get_u32_le() as usize;
                if buf.remaining() < params_len {
                    return Err(err("op params truncated"));
                }
                let params = Value::from_slice(&buf[..params_len]);
                Ok(LogRecord::Op(Operation {
                    id,
                    kind,
                    reads,
                    writes,
                    transform: Transform::new(fn_id, params),
                }))
            }
            TAG_INSTALL => {
                let objs = get_obj_lsn_list(&mut buf)?;
                Ok(LogRecord::Install(InstallRecord { objs }))
            }
            TAG_FT_BEGIN => {
                if buf.remaining() < 4 {
                    return Err(err("flush-txn begin truncated"));
                }
                let n = buf.get_u32_le() as usize;
                if buf.remaining() < n * 8 {
                    return Err(err("flush-txn begin object list truncated"));
                }
                let mut objs = Vec::with_capacity(n);
                for _ in 0..n {
                    objs.push(ObjectId(buf.get_u64_le()));
                }
                Ok(LogRecord::FlushTxnBegin { objs })
            }
            TAG_FT_VALUE => {
                if buf.remaining() < 20 {
                    return Err(err("flush-txn value truncated"));
                }
                let obj = ObjectId(buf.get_u64_le());
                let vsi = Lsn(buf.get_u64_le());
                let len = buf.get_u32_le() as usize;
                if buf.remaining() < len {
                    return Err(err("flush-txn value body truncated"));
                }
                let value = Value::from_slice(&buf[..len]);
                Ok(LogRecord::FlushTxnValue { obj, value, vsi })
            }
            TAG_FT_COMMIT => Ok(LogRecord::FlushTxnCommit),
            TAG_CHECKPOINT => {
                let dirty = get_obj_lsn_list(&mut buf)?;
                if buf.remaining() < 8 {
                    return Err(err("checkpoint redo_start truncated"));
                }
                Ok(LogRecord::Checkpoint(CheckpointRecord {
                    dirty,
                    redo_start: Lsn(buf.get_u64_le()),
                }))
            }
            _ => Err(LlogError::Codec {
                reason: format!("unknown record tag {tag}"),
            }),
        }
    }
}

fn put_obj_lsn_list(out: &mut Vec<u8>, list: &[(ObjectId, Lsn)]) {
    out.put_u32_le(list.len() as u32);
    for (x, lsn) in list {
        out.put_u64_le(x.0);
        out.put_u64_le(lsn.0);
    }
}

fn get_obj_lsn_list(buf: &mut &[u8]) -> Result<Vec<(ObjectId, Lsn)>> {
    if buf.remaining() < 4 {
        return Err(LlogError::Codec {
            reason: "object list header truncated".into(),
        });
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 16 {
        return Err(LlogError::Codec {
            reason: "object list body truncated".into(),
        });
    }
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        list.push((ObjectId(buf.get_u64_le()), Lsn(buf.get_u64_le())));
    }
    Ok(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::table1;

    fn roundtrip(r: LogRecord) {
        let bytes = r.encode();
        assert_eq!(LogRecord::decode(&bytes).unwrap(), r);
    }

    #[test]
    fn op_records_roundtrip() {
        roundtrip(LogRecord::Op(Operation::logical(7, &[1, 2, 3], &[2, 9])));
        roundtrip(LogRecord::Op(Operation::physical(8, 4, Value::from("v"))));
        roundtrip(LogRecord::Op(Operation::physiological(9, 5)));
        roundtrip(LogRecord::Op(Operation::delete(10, 6)));
        roundtrip(LogRecord::Op(table1::identity_write(
            OpId(11),
            ObjectId(1),
            Value::filled(3, 100),
        )));
    }

    #[test]
    fn bookkeeping_records_roundtrip() {
        roundtrip(LogRecord::Install(InstallRecord {
            objs: vec![(ObjectId(2), Lsn(20)), (ObjectId(3), Lsn::MAX)],
        }));
        roundtrip(LogRecord::FlushTxnBegin {
            objs: vec![ObjectId(1), ObjectId(2)],
        });
        roundtrip(LogRecord::FlushTxnValue {
            obj: ObjectId(1),
            value: Value::filled(0xEE, 64),
            vsi: Lsn(5),
        });
        roundtrip(LogRecord::FlushTxnCommit);
        roundtrip(LogRecord::Checkpoint(CheckpointRecord {
            dirty: vec![(ObjectId(9), Lsn(90))],
            redo_start: Lsn(90),
        }));
    }

    #[test]
    fn empty_lists_roundtrip() {
        roundtrip(LogRecord::Install(InstallRecord::default()));
        roundtrip(LogRecord::FlushTxnBegin { objs: vec![] });
        roundtrip(LogRecord::Checkpoint(CheckpointRecord::default()));
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        // 3 was the retired single-object flush record, 8 and 9 the
        // retired hybrid-logging records.
        for tag in [0, 3, 8, 9, 99] {
            assert!(LogRecord::decode(&[tag, 1, 0, 0, 0]).is_err(), "tag {tag}");
            // A body as long as a retired flush record's (object + vSI).
            assert!(LogRecord::decode(&[tag; 17]).is_err(), "tag {tag}");
        }
        assert!(LogRecord::decode(&[]).is_err());
    }

    #[test]
    fn decode_rejects_every_truncation() {
        let full = LogRecord::Op(Operation::logical(7, &[1, 2], &[2])).encode();
        for cut in 0..full.len() {
            assert!(
                LogRecord::decode(&full[..cut]).is_err(),
                "truncation at {cut} accepted"
            );
        }
    }

    #[test]
    fn logical_record_is_small_physical_is_not() {
        let logical = LogRecord::Op(Operation::logical(1, &[1, 2], &[2])).encode();
        assert!(
            logical.len() < 64,
            "logical record was {} bytes",
            logical.len()
        );
        let physical = LogRecord::Op(Operation::physical(2, 1, Value::filled(0, 8192))).encode();
        assert!(physical.len() > 8192);
    }
}
