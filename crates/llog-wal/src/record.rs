//! Log record types and their binary codec.
//!
//! Frame layout: `[len: u32][crc32c(payload): u32][payload]`. The CRC guards
//! torn tails; the scan stops at the first frame that fails bounds or
//! checksum validation.
//!
//! Payload layout: a `tag u8`, then every integer as an unsigned LEB128
//! varint (`v`), so a record costs what its ids and lengths need:
//!
//! - `Op`: `tag | kind u8 | id v | n_reads v | n_writes v | reads v… |
//!   writes v… | fn_id v | params_len v | params`;
//! - `Install`: `tag | n v | (obj v, rsi v)…`;
//! - `FlushTxnBegin`: `tag | n v | obj v…`;
//! - `FlushTxnValue`: `tag | obj v | vsi v | len v | value`;
//! - `FlushTxnCommit`: `tag`;
//! - `Checkpoint`: `tag | n v | (obj v, rsi v)… | redo_start v`.
//!
//! A 128 B blind put frames in about 151 B. The WAL manifest's magic names
//! this format, so a log device written in the earlier fixed-width one is
//! refused rather than misread.

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
        let mut out = Vec::with_capacity(match self {
            LogRecord::Op(op) => {
                32 + 10 * (op.reads.len() + op.writes.len()) + op.transform.params.len()
            }
            _ => 64,
        });
        match self {
            LogRecord::Op(op) => {
                out.put_u8(TAG_OP);
                out.put_u8(kind_to_u8(op.kind));
                out.put_varint(op.id.0);
                out.put_varint(op.reads.len() as u64);
                out.put_varint(op.writes.len() as u64);
                for x in op.reads.iter().chain(&op.writes) {
                    out.put_varint(x.0);
                }
                out.put_varint(u64::from(op.transform.fn_id.0));
                put_bytes(&mut out, op.transform.params.as_bytes());
            }
            LogRecord::Install(ir) => {
                out.put_u8(TAG_INSTALL);
                put_obj_lsn_list(&mut out, &ir.objs);
            }
            LogRecord::FlushTxnBegin { objs } => {
                out.put_u8(TAG_FT_BEGIN);
                out.put_varint(objs.len() as u64);
                for x in objs {
                    out.put_varint(x.0);
                }
            }
            LogRecord::FlushTxnValue { obj, value, vsi } => {
                out.put_u8(TAG_FT_VALUE);
                out.put_varint(obj.0);
                out.put_varint(vsi.0);
                put_bytes(&mut out, value.as_bytes());
            }
            LogRecord::FlushTxnCommit => {
                out.put_u8(TAG_FT_COMMIT);
            }
            LogRecord::Checkpoint(cp) => {
                out.put_u8(TAG_CHECKPOINT);
                put_obj_lsn_list(&mut out, &cp.dirty);
                out.put_varint(cp.redo_start.0);
            }
        }
        out
    }

    /// Decode a payload produced by [`encode`](Self::encode). Any other
    /// input, including one with bytes left over, is a `Codec` error; no
    /// count is trusted for an allocation the payload could not fill.
    pub fn decode(mut buf: &[u8]) -> Result<LogRecord> {
        let Some((&tag, rest)) = buf.split_first() else {
            return Err(codec("empty payload"));
        };
        buf = rest;
        let rec = match tag {
            TAG_OP => {
                let (&kind, rest) = buf.split_first().ok_or_else(|| codec("op kind missing"))?;
                buf = rest;
                let kind = kind_from_u8(kind)?;
                let id = OpId(buf.get_varint()?);
                let n_reads = buf.get_count(1)?;
                let n_writes = buf.get_count(1)?;
                let reads = get_ids(&mut buf, n_reads)?;
                let writes = get_ids(&mut buf, n_writes)?;
                let fn_id =
                    u16::try_from(buf.get_varint()?).map_err(|_| codec("op fn id past u16"))?;
                let params = get_bytes(&mut buf)?;
                LogRecord::Op(Operation {
                    id,
                    kind,
                    reads,
                    writes,
                    transform: Transform::new(FnId(fn_id), params),
                })
            }
            TAG_INSTALL => LogRecord::Install(InstallRecord {
                objs: get_obj_lsn_list(&mut buf)?,
            }),
            TAG_FT_BEGIN => {
                let n = buf.get_count(1)?;
                LogRecord::FlushTxnBegin {
                    objs: get_ids(&mut buf, n)?,
                }
            }
            TAG_FT_VALUE => {
                let obj = ObjectId(buf.get_varint()?);
                let vsi = Lsn(buf.get_varint()?);
                let value = get_bytes(&mut buf)?;
                LogRecord::FlushTxnValue { obj, value, vsi }
            }
            TAG_FT_COMMIT => LogRecord::FlushTxnCommit,
            TAG_CHECKPOINT => {
                let dirty = get_obj_lsn_list(&mut buf)?;
                LogRecord::Checkpoint(CheckpointRecord {
                    dirty,
                    redo_start: Lsn(buf.get_varint()?),
                })
            }
            _ => return Err(codec(&format!("unknown record tag {tag}"))),
        };
        if !buf.is_empty() {
            return Err(codec("bytes past the record's end"));
        }
        Ok(rec)
    }
}

fn codec(reason: &str) -> LlogError {
    LlogError::Codec {
        reason: reason.to_string(),
    }
}

/// `n` varint object ids; `n` came from [`ByteReader::get_count`].
fn get_ids(buf: &mut &[u8], n: usize) -> Result<Vec<ObjectId>> {
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(ObjectId(buf.get_varint()?));
    }
    Ok(ids)
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.put_varint(bytes.len() as u64);
    out.put_slice(bytes);
}

fn get_bytes(buf: &mut &[u8]) -> Result<Value> {
    let len = buf.get_count(1)?;
    let (bytes, rest) = buf.split_at(len);
    *buf = rest;
    Ok(Value::from_slice(bytes))
}

fn put_obj_lsn_list(out: &mut Vec<u8>, list: &[(ObjectId, Lsn)]) {
    out.put_varint(list.len() as u64);
    for (x, lsn) in list {
        out.put_varint(x.0);
        out.put_varint(lsn.0);
    }
}

fn get_obj_lsn_list(buf: &mut &[u8]) -> Result<Vec<(ObjectId, Lsn)>> {
    let n = buf.get_count(2)?;
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        list.push((ObjectId(buf.get_varint()?), Lsn(buf.get_varint()?)));
    }
    Ok(list)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::table1;
    use llog_testkit::prop::{run_property, Config};
    use llog_testkit::TestRng;
    use llog_types::FRAME_HEADER;

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

    /// One record of every kind, empty lists and params included.
    fn one_of_each() -> Vec<LogRecord> {
        vec![
            LogRecord::Op(Operation::logical(7, &[1, 2], &[2])),
            LogRecord::Op(Operation::physical(1 << 40, 300, Value::filled(1, 200))),
            LogRecord::Op(Operation::new(
                OpId(u64::MAX),
                OpKind::Logical,
                vec![],
                vec![ObjectId(u64::MAX)],
                Transform::new(FnId(u16::MAX), Value::empty()),
            )),
            LogRecord::Install(InstallRecord {
                objs: vec![(ObjectId(2), Lsn(20)), (ObjectId(3), Lsn::MAX)],
            }),
            LogRecord::Install(InstallRecord::default()),
            LogRecord::FlushTxnBegin {
                objs: vec![ObjectId(1), ObjectId(1 << 20)],
            },
            LogRecord::FlushTxnBegin { objs: vec![] },
            LogRecord::FlushTxnValue {
                obj: ObjectId(1),
                value: Value::filled(0xEE, 64),
                vsi: Lsn(5),
            },
            LogRecord::FlushTxnValue {
                obj: ObjectId(0),
                value: Value::empty(),
                vsi: Lsn::ZERO,
            },
            LogRecord::FlushTxnCommit,
            LogRecord::Checkpoint(CheckpointRecord {
                dirty: vec![(ObjectId(9), Lsn(90))],
                redo_start: Lsn::MAX,
            }),
            LogRecord::Checkpoint(CheckpointRecord::default()),
        ]
    }

    fn is_codec(r: Result<LogRecord>) -> bool {
        matches!(r, Err(LlogError::Codec { .. }))
    }

    #[test]
    fn decode_rejects_every_truncation() {
        for rec in one_of_each() {
            let full = rec.encode();
            assert_eq!(LogRecord::decode(&full).unwrap(), rec);
            for cut in 0..full.len() {
                assert!(
                    is_codec(LogRecord::decode(&full[..cut])),
                    "{rec:?} truncated at {cut} accepted"
                );
            }
            // Bytes past the end are as wrong as bytes missing.
            let mut long = full.clone();
            long.push(0);
            assert!(is_codec(LogRecord::decode(&long)), "{rec:?} + 1 byte");
        }
    }

    #[test]
    fn a_varint_longer_than_ten_bytes_or_past_u64_is_codec() {
        let op_with_id = |id: &[u8]| {
            let mut b = vec![TAG_OP, KIND_LOGICAL];
            b.extend_from_slice(id);
            b.extend_from_slice(&[0, 0, 0, 0]); // no ids, fn 0, no params
            b
        };
        let mut max = Vec::new();
        max.put_varint(u64::MAX);
        assert_eq!(
            max,
            [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]
        );
        assert!(LogRecord::decode(&op_with_id(&max)).is_ok());
        // Eleven bytes: the tenth still has its continuation bit set.
        assert!(is_codec(LogRecord::decode(&op_with_id(&[0x80; 11]))));
        assert!(is_codec(LogRecord::decode(&op_with_id(&[0x81; 10]))));
        // Ten bytes whose last carries more than bit 63.
        let mut past = max.clone();
        past[9] = 0x02;
        assert!(is_codec(LogRecord::decode(&op_with_id(&past))));
        // The same in a checkpoint's redo start and a fn id past u16.
        let mut cp = vec![TAG_CHECKPOINT, 0];
        cp.extend_from_slice(&past);
        assert!(is_codec(LogRecord::decode(&cp)));
        assert!(is_codec(LogRecord::decode(&[
            TAG_OP,
            KIND_LOGICAL,
            1,
            0,
            0,
            0x80,
            0x80,
            0x04,
            0
        ])));
    }

    #[test]
    fn a_count_larger_than_the_payload_is_rejected_before_allocating() {
        // 2^60 as a 9-byte varint: a `Vec::with_capacity` of that many ids
        // would abort the process, so an `Err` shows none was attempted.
        let mut huge = Vec::new();
        huge.put_varint(1 << 60);
        let with = |head: &[u8], tail: &[u8]| {
            let mut b = head.to_vec();
            b.extend_from_slice(&huge);
            b.extend_from_slice(tail);
            b
        };
        for payload in [
            with(&[TAG_OP, KIND_LOGICAL, 1], &[0, 5, 0, 0]), // n_reads
            with(&[TAG_OP, KIND_LOGICAL, 1, 0], &[5, 0, 0]), // n_writes
            with(&[TAG_INSTALL], &[1, 1]),
            with(&[TAG_FT_BEGIN], &[1, 2, 3]),
            with(&[TAG_FT_VALUE, 1, 1], &[0xAB]),
            with(&[TAG_CHECKPOINT], &[1, 1, 1]),
            with(&[TAG_OP, KIND_LOGICAL, 1, 0, 0, 0], &[0xAB]), // params_len
        ] {
            assert!(is_codec(LogRecord::decode(&payload)), "{payload:?}");
        }
        // Counts that overflow when summed.
        let mut b = vec![TAG_OP, KIND_LOGICAL, 1];
        b.put_varint(u64::MAX);
        b.put_varint(1);
        assert!(is_codec(LogRecord::decode(&b)));
        // Install pairs take two bytes each: 3 pairs cannot fit in 5 bytes.
        assert!(is_codec(LogRecord::decode(&[
            TAG_INSTALL,
            3,
            1,
            1,
            1,
            1,
            1
        ])));
    }

    #[test]
    fn a_128_byte_blind_put_frames_in_at_most_152_bytes() {
        // A served put: the shard's two-millionth op writing one of 72 000
        // objects (ids below 2^21, three varint bytes each).
        let put = LogRecord::Op(Operation::physical(
            2_000_000,
            71_999,
            Value::filled(9, 128),
        ));
        let framed = FRAME_HEADER + put.encode().len();
        assert!(framed <= 152, "a 128 B put framed in {framed} B");
        assert_eq!(framed, 152);
    }

    fn any_u64(rng: &mut TestRng) -> u64 {
        match rng.random_range(0usize..5) {
            0 => u64::MAX,
            1 => 0,
            _ => rng.next_u64() >> rng.random_range(0u64..64),
        }
    }

    fn any_bytes(rng: &mut TestRng) -> Value {
        match rng.random_range(0usize..20) {
            0 => Value::empty(),
            1 => Value::filled(rng.next_u32() as u8, 70 << 10),
            _ => {
                let mut b = vec![0; rng.random_range(0usize..200)];
                rng.fill(&mut b);
                Value::from(b)
            }
        }
    }

    fn any_record(rng: &mut TestRng) -> LogRecord {
        let ids = |rng: &mut TestRng| {
            (0..rng.random_range(0usize..5))
                .map(|_| ObjectId(any_u64(rng)))
                .collect::<Vec<_>>()
        };
        let pairs = |rng: &mut TestRng| {
            (0..rng.random_range(0usize..5))
                .map(|_| (ObjectId(any_u64(rng)), Lsn(any_u64(rng))))
                .collect::<Vec<_>>()
        };
        match rng.random_range(0usize..6) {
            0 => LogRecord::Op(Operation {
                id: OpId(any_u64(rng)),
                kind: kind_from_u8(rng.random_range(0u8..5)).unwrap(),
                reads: ids(rng),
                writes: ids(rng),
                transform: Transform::new(FnId(any_u64(rng) as u16), any_bytes(rng)),
            }),
            1 => LogRecord::Install(InstallRecord { objs: pairs(rng) }),
            2 => LogRecord::FlushTxnBegin { objs: ids(rng) },
            3 => LogRecord::FlushTxnValue {
                obj: ObjectId(any_u64(rng)),
                value: any_bytes(rng),
                vsi: Lsn(any_u64(rng)),
            },
            4 => LogRecord::FlushTxnCommit,
            _ => LogRecord::Checkpoint(CheckpointRecord {
                dirty: pairs(rng),
                redo_start: Lsn(any_u64(rng)),
            }),
        }
    }

    #[test]
    fn prop_random_records_roundtrip() {
        run_property(
            "wal-record-roundtrip",
            &Config::with_cases(2_000),
            &(0u64..u64::MAX),
            |seed| {
                let rec = any_record(&mut TestRng::seed_from_u64(seed));
                match LogRecord::decode(&rec.encode()) {
                    Ok(back) if back == rec => Ok(()),
                    other => Err(format!("{rec:?} came back as {other:?}")),
                }
            },
        );
    }

    #[test]
    fn prop_random_bytes_decode_without_panicking() {
        // Half mutate a real record (so the tag and layout are plausible),
        // half are raw bytes behind a known tag; any result but a panic.
        run_property(
            "wal-record-garbage",
            &Config::with_cases(2_000),
            &(0u64..u64::MAX),
            |seed| {
                let mut rng = TestRng::seed_from_u64(seed);
                let bytes = if rng.bool() {
                    let mut b = any_record(&mut rng).encode();
                    b.truncate(b.len().min(64));
                    for _ in 0..rng.random_range(1usize..4) {
                        let at = rng.random_range(0..b.len());
                        b[at] = rng.next_u32() as u8;
                    }
                    b
                } else {
                    let mut b = vec![0; rng.random_range(1usize..48)];
                    rng.fill(&mut b);
                    b[0] = rng.random_range(0u8..9);
                    b
                };
                let _ = LogRecord::decode(&bytes);
                Ok(())
            },
        );
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
