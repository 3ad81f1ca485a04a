//! The wire protocol: length-prefixed, checksummed frames over a byte
//! stream (DESIGN §12).
//!
//! Every message — request or response — travels in one frame:
//!
//! ```text
//! magic  u32 LE   0x474F_4C4C ("LLOG")
//! len    u32 LE   payload length, ≤ MAX_FRAME
//! crc    u32 LE   crc32c over the payload bytes
//! payload[len]    tagged message body
//! ```
//!
//! The codec never panics on hostile input: every read is bounds-checked
//! against [`ByteReader::remaining`] first (the reader traits panic on
//! underflow, exactly like `bytes::Buf`, so the discipline here mirrors
//! the WAL codec's). Malformed bytes map onto two distinct error shapes:
//!
//! - [`LlogError::Codec`] — the peer spoke the protocol wrong (bad magic,
//!   oversized frame, checksum mismatch, unknown tag, trailing garbage).
//!   The connection is poisoned and must be closed.
//! - [`LlogError::Io`] — the stream died mid-frame (half-written frame on
//!   a dropped connection). Nothing after the last whole frame was
//!   processed.
//!
//! A clean EOF *between* frames is not an error: [`read_frame`] returns
//! `Ok(None)` and the connection winds down normally.

use std::io::{ErrorKind, Read, Write};

use llog_engine::GroupCommitSnapshot;
use llog_storage::MetricsSnapshot;
use llog_types::{crc32c, ByteReader, ByteWriter, LlogError, Lsn, ObjectId, Result};

/// Frame magic: `"LLOG"` read as a little-endian `u32`.
pub const FRAME_MAGIC: u32 = u32::from_le_bytes(*b"LLOG");

/// Hard cap on payload size; anything larger is a protocol error, not an
/// allocation request.
pub const MAX_FRAME: usize = 1 << 20;

/// Bytes of frame header preceding every payload.
pub const HEADER_LEN: usize = 12;

/// What a client asks the server to do. Every variant carries the
/// client-chosen `req_id`, echoed verbatim in the matching [`Response`] so
/// a pipelining client can match completions out of a deep window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Durably write `value` to `object`; acked once on stable storage.
    Put {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Target object.
        object: ObjectId,
        /// New value bytes.
        value: Vec<u8>,
    },
    /// Read an object's current value (shard-local, not linearized
    /// against in-flight puts on other connections).
    Get {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Object to read.
        object: ObjectId,
    },
    /// Force every shard's log: everything executed before this is
    /// durable when the `Ok` comes back.
    Flush {
        /// Client-chosen correlation id.
        req_id: u64,
    },
    /// Snapshot the server's group-commit counters.
    Stats {
        /// Client-chosen correlation id.
        req_id: u64,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen correlation id.
        req_id: u64,
    },
    /// Ask the server to drain and exit (acked before the drain starts).
    Shutdown {
        /// Client-chosen correlation id.
        req_id: u64,
    },
    /// Poll one shard's log-shipping feed. `from` at or below
    /// [`Lsn::ZERO`]'s successor semantics — concretely, any address below
    /// the shard's log base — means *attach*: the server answers with a
    /// [`Response::SealManifest`] (store image + log addresses; a store
    /// image too big for one frame arrives as the first chunk of a
    /// [`Request::FetchStore`] sequence). Otherwise the server answers
    /// with one [`Response::SegmentChunk`] of stable bytes starting at
    /// `from`, clamped to the shard's durable cut.
    Subscribe {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Shard index to ship from.
        shard: u32,
        /// Where the replica's stable log ends ([`Lsn::ZERO`] to attach).
        from: Lsn,
    },
    /// Fetch the next chunk of an attach store image whose
    /// [`Response::SealManifest`] reported `store_total` beyond its own
    /// `store` chunk. Served from the manifest captured by this
    /// connection's most recent `Subscribe` for the shard, so every chunk
    /// comes from the *same* consistent image; a `FetchStore` with no
    /// capture in flight is a protocol error. Answered with another
    /// [`Response::SealManifest`] carrying the chunk at `offset`.
    FetchStore {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Shard index the capture belongs to.
        shard: u32,
        /// Byte offset into the store image ([`Response::SealManifest`]
        /// `store_off` of the expected answer).
        offset: u64,
    },
    /// Report a replica's replayed-LSN watermark for one shard, feeding
    /// the primary's `repl_watermark_lsn` / `repl_replay_lag_frames`
    /// observability. Answered with [`Response::Ok`].
    ReplayedLsn {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Shard index the watermark belongs to.
        shard: u32,
        /// The replica's replayed-LSN watermark.
        lsn: Lsn,
    },
    /// Bind this connection to a client **session**: the server keeps a
    /// per-session, per-shard read floor (the LSN of the session's last
    /// acked `Put` on that shard) that survives reconnects. Every `Get`
    /// on a session-bound connection waits until the owning shard's
    /// durable watermark covers the session floor, so a client that
    /// reconnects after an ack never reads a value older than its own
    /// writes (read-your-writes). Answered with [`Response::Ok`].
    Session {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Client-chosen stable session identifier (0 = anonymous; no
        /// floor tracking).
        session_id: u64,
    },
    /// Promote a warm standby to primary: seal each shard's log at its
    /// replayed watermark and reopen for writes. Only a replica server
    /// honours this; a primary answers [`Response::Err`]. `source_dir`
    /// optionally names the crashed primary's data directory for a
    /// device catch-up before the seal (empty = no catch-up).
    Promote {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Crashed primary's data directory for catch-up ("" = none).
        source_dir: String,
    },
}

/// Error class carried by [`Response::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// The engine rejected the operation (routing, transform, …).
    Engine = 1,
    /// The owning shard crashed; the operation was never acknowledged.
    ShardDead = 2,
    /// The server is draining and no longer accepts work.
    Stopping = 3,
}

impl ErrCode {
    fn from_u8(v: u8) -> Option<ErrCode> {
        match v {
            1 => Some(ErrCode::Engine),
            2 => Some(ErrCode::ShardDead),
            3 => Some(ErrCode::Stopping),
            _ => None,
        }
    }
}

/// The counters reported by [`Response::Stats`]: a server's (or
/// replica's) whole cost picture. On the wire each snapshot is a
/// count-prefixed run of `u64`s in its table's order, so a counter added to
/// either table crosses the wire with no codec change.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsBody {
    /// Number of shards serving.
    pub shards: u32,
    /// Group-commit pipeline counters summed across shards.
    pub group_commit: GroupCommitSnapshot,
    /// Per-shard storage/log ledgers merged (on a standby: its redo
    /// sessions' ledgers, with its own `repl_*` counters).
    pub aggregate: MetricsSnapshot,
}

/// What the server answers. `req_id` always echoes the request's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A `Put` is durable on stable storage at `lsn`.
    Ack {
        /// Echoed correlation id.
        req_id: u64,
        /// The operation's log sequence number.
        lsn: Lsn,
    },
    /// A `Get`'s result (empty bytes for a never-written object).
    Value {
        /// Echoed correlation id.
        req_id: u64,
        /// The object's value bytes.
        value: Vec<u8>,
    },
    /// A `Flush`, `Ping` or `Shutdown` completed.
    Ok {
        /// Echoed correlation id.
        req_id: u64,
    },
    /// A `Stats` snapshot.
    Stats {
        /// Echoed correlation id.
        req_id: u64,
        /// Counter values (boxed: the body dwarfs every other response).
        body: Box<StatsBody>,
    },
    /// The request failed; nothing was acknowledged.
    Err {
        /// Echoed correlation id.
        req_id: u64,
        /// Error class.
        code: ErrCode,
        /// Human-readable detail.
        message: String,
    },
    /// One chunk of a shard's stable log, answering a
    /// [`Request::Subscribe`] poll. Empty `bytes` means the replica is
    /// caught up to `durable`.
    SegmentChunk {
        /// Echoed correlation id.
        req_id: u64,
        /// Shard the bytes belong to.
        shard: u32,
        /// Log address of the first shipped byte.
        at: Lsn,
        /// Stable log bytes (whole or partial frames; the replica's
        /// replay stops at the last complete one).
        bytes: Vec<u8>,
        /// The shard's durable cut at serve time.
        durable: Lsn,
    },
    /// The attach image answering a [`Request::Subscribe`] with `from`
    /// below the shard's log base (or a [`Request::FetchStore`]): a
    /// consistent `(store image, log addresses)` pair the replica
    /// recovers from before streaming. A store image too big for one
    /// frame is chunked: `store` carries the bytes at `store_off`, and
    /// the replica issues `FetchStore` calls until it holds all
    /// `store_total` bytes. Every chunk of one attach repeats the same
    /// `base`/`durable`/`master`, which the replica checks — a mismatch
    /// means the capture changed underneath it and the attach restarts.
    SealManifest {
        /// Echoed correlation id.
        req_id: u64,
        /// Shard the manifest describes.
        shard: u32,
        /// Total shard count on the primary (a replica subscribes to
        /// every one).
        shards: u32,
        /// The shard log's base address.
        base: Lsn,
        /// The durable cut at capture time; every effect the store image
        /// may reflect lies below it.
        durable: Lsn,
        /// Master checkpoint pointer (0 = none).
        master: Lsn,
        /// Byte offset of `store` within the full serialized image.
        store_off: u64,
        /// Total length of the full serialized image.
        store_total: u64,
        /// One chunk of the serialized stable store
        /// (`StableStore::serialize`), starting at `store_off`.
        store: Vec<u8>,
    },
}

const T_PUT: u8 = 1;
const T_GET: u8 = 2;
const T_FLUSH: u8 = 3;
const T_STATS: u8 = 4;
const T_PING: u8 = 5;
const T_SHUTDOWN: u8 = 6;
const T_SUBSCRIBE: u8 = 7;
const T_REPLAYED_LSN: u8 = 8;
const T_PROMOTE: u8 = 9;
const T_FETCH_STORE: u8 = 10;
const T_SESSION: u8 = 11;

const T_ACK: u8 = 1;
const T_VALUE: u8 = 2;
const T_OK: u8 = 3;
const T_STATS_R: u8 = 4;
const T_ERR: u8 = 5;
const T_SEGMENT_CHUNK: u8 = 6;
const T_SEAL_MANIFEST: u8 = 7;

fn codec_err(reason: &str) -> LlogError {
    LlogError::Codec {
        reason: reason.to_string(),
    }
}

fn need(buf: &&[u8], n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        Err(codec_err(&format!(
            "truncated payload: need {n} byte(s) for {what}, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

fn get_bytes(buf: &mut &[u8], what: &str) -> Result<Vec<u8>> {
    need(buf, 4, what)?;
    let len = buf.get_u32_le() as usize;
    if len > MAX_FRAME {
        return Err(codec_err(&format!("{what} length {len} exceeds MAX_FRAME")));
    }
    need(buf, len, what)?;
    let (head, rest) = buf.split_at(len);
    let v = head.to_vec();
    *buf = rest;
    Ok(v)
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.put_u32_le(bytes.len() as u32);
    out.put_slice(bytes);
}

/// A counter snapshot on the wire: a `u32` count, then the values in table
/// order.
fn put_counters(out: &mut Vec<u8>, fields: &[(&str, u64)]) {
    out.put_u32_le(fields.len() as u32);
    for (_, value) in fields {
        out.put_u64_le(*value);
    }
}

/// Read a [`put_counters`] run into a snapshot of a `len`-counter table.
/// A count that is not `len` is a `Codec` error: the peer's table differs.
fn get_counters<T>(
    buf: &mut &[u8],
    what: &str,
    len: usize,
    from_values: fn(&[u64]) -> Option<T>,
) -> Result<T> {
    need(buf, 4, what)?;
    let count = buf.get_u32_le() as usize;
    if count != len {
        return Err(codec_err(&format!(
            "{what}: {count} counter(s), this build has {len}"
        )));
    }
    need(buf, 8 * count, what)?;
    let values: Vec<u64> = (0..count).map(|_| buf.get_u64_le()).collect();
    from_values(&values).ok_or_else(|| codec_err(what))
}

/// Encode a request payload (no frame header).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match req {
        Request::Put {
            req_id,
            object,
            value,
        } => {
            out.put_u8(T_PUT);
            out.put_u64_le(*req_id);
            out.put_u64_le(object.0);
            put_bytes(&mut out, value);
        }
        Request::Get { req_id, object } => {
            out.put_u8(T_GET);
            out.put_u64_le(*req_id);
            out.put_u64_le(object.0);
        }
        Request::Flush { req_id } => {
            out.put_u8(T_FLUSH);
            out.put_u64_le(*req_id);
        }
        Request::Stats { req_id } => {
            out.put_u8(T_STATS);
            out.put_u64_le(*req_id);
        }
        Request::Ping { req_id } => {
            out.put_u8(T_PING);
            out.put_u64_le(*req_id);
        }
        Request::Shutdown { req_id } => {
            out.put_u8(T_SHUTDOWN);
            out.put_u64_le(*req_id);
        }
        Request::Subscribe {
            req_id,
            shard,
            from,
        } => {
            out.put_u8(T_SUBSCRIBE);
            out.put_u64_le(*req_id);
            out.put_u32_le(*shard);
            out.put_u64_le(from.0);
        }
        Request::ReplayedLsn { req_id, shard, lsn } => {
            out.put_u8(T_REPLAYED_LSN);
            out.put_u64_le(*req_id);
            out.put_u32_le(*shard);
            out.put_u64_le(lsn.0);
        }
        Request::Promote { req_id, source_dir } => {
            out.put_u8(T_PROMOTE);
            out.put_u64_le(*req_id);
            put_bytes(&mut out, source_dir.as_bytes());
        }
        Request::FetchStore {
            req_id,
            shard,
            offset,
        } => {
            out.put_u8(T_FETCH_STORE);
            out.put_u64_le(*req_id);
            out.put_u32_le(*shard);
            out.put_u64_le(*offset);
        }
        Request::Session { req_id, session_id } => {
            out.put_u8(T_SESSION);
            out.put_u64_le(*req_id);
            out.put_u64_le(*session_id);
        }
    }
    out
}

/// Decode a request payload. Malformed bytes yield [`LlogError::Codec`];
/// this never panics.
pub fn decode_request(payload: &[u8]) -> Result<Request> {
    let mut buf = payload;
    need(&buf, 1 + 8, "request tag + req_id")?;
    let tag = buf.get_u8();
    let req_id = buf.get_u64_le();
    let req = match tag {
        T_PUT => {
            need(&buf, 8, "put object id")?;
            let object = ObjectId(buf.get_u64_le());
            let value = get_bytes(&mut buf, "put value")?;
            Request::Put {
                req_id,
                object,
                value,
            }
        }
        T_GET => {
            need(&buf, 8, "get object id")?;
            Request::Get {
                req_id,
                object: ObjectId(buf.get_u64_le()),
            }
        }
        T_FLUSH => Request::Flush { req_id },
        T_STATS => Request::Stats { req_id },
        T_PING => Request::Ping { req_id },
        T_SHUTDOWN => Request::Shutdown { req_id },
        T_SUBSCRIBE => {
            need(&buf, 4 + 8, "subscribe shard + from")?;
            Request::Subscribe {
                req_id,
                shard: buf.get_u32_le(),
                from: Lsn(buf.get_u64_le()),
            }
        }
        T_REPLAYED_LSN => {
            need(&buf, 4 + 8, "replayed-lsn shard + lsn")?;
            Request::ReplayedLsn {
                req_id,
                shard: buf.get_u32_le(),
                lsn: Lsn(buf.get_u64_le()),
            }
        }
        T_PROMOTE => {
            let dir = get_bytes(&mut buf, "promote source dir")?;
            Request::Promote {
                req_id,
                source_dir: String::from_utf8_lossy(&dir).into_owned(),
            }
        }
        T_FETCH_STORE => {
            need(&buf, 4 + 8, "fetch-store shard + offset")?;
            Request::FetchStore {
                req_id,
                shard: buf.get_u32_le(),
                offset: buf.get_u64_le(),
            }
        }
        T_SESSION => {
            need(&buf, 8, "session id")?;
            Request::Session {
                req_id,
                session_id: buf.get_u64_le(),
            }
        }
        t => return Err(codec_err(&format!("unknown request tag {t}"))),
    };
    if buf.remaining() != 0 {
        return Err(codec_err(&format!(
            "{} trailing byte(s) after request",
            buf.remaining()
        )));
    }
    Ok(req)
}

/// Encode a response payload (no frame header).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match resp {
        Response::Ack { req_id, lsn } => {
            out.put_u8(T_ACK);
            out.put_u64_le(*req_id);
            out.put_u64_le(lsn.0);
        }
        Response::Value { req_id, value } => {
            out.put_u8(T_VALUE);
            out.put_u64_le(*req_id);
            put_bytes(&mut out, value);
        }
        Response::Ok { req_id } => {
            out.put_u8(T_OK);
            out.put_u64_le(*req_id);
        }
        Response::Stats { req_id, body } => {
            out.put_u8(T_STATS_R);
            out.put_u64_le(*req_id);
            out.put_u32_le(body.shards);
            put_counters(&mut out, &body.group_commit.fields());
            put_counters(&mut out, &body.aggregate.fields());
        }
        Response::Err {
            req_id,
            code,
            message,
        } => {
            out.put_u8(T_ERR);
            out.put_u64_le(*req_id);
            out.put_u8(*code as u8);
            put_bytes(&mut out, message.as_bytes());
        }
        Response::SegmentChunk {
            req_id,
            shard,
            at,
            bytes,
            durable,
        } => {
            out.put_u8(T_SEGMENT_CHUNK);
            out.put_u64_le(*req_id);
            out.put_u32_le(*shard);
            out.put_u64_le(at.0);
            out.put_u64_le(durable.0);
            put_bytes(&mut out, bytes);
        }
        Response::SealManifest {
            req_id,
            shard,
            shards,
            base,
            durable,
            master,
            store_off,
            store_total,
            store,
        } => {
            out.put_u8(T_SEAL_MANIFEST);
            out.put_u64_le(*req_id);
            out.put_u32_le(*shard);
            out.put_u32_le(*shards);
            out.put_u64_le(base.0);
            out.put_u64_le(durable.0);
            out.put_u64_le(master.0);
            out.put_u64_le(*store_off);
            out.put_u64_le(*store_total);
            put_bytes(&mut out, store);
        }
    }
    out
}

/// Decode a response payload. Malformed bytes yield [`LlogError::Codec`];
/// this never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response> {
    let mut buf = payload;
    need(&buf, 1 + 8, "response tag + req_id")?;
    let tag = buf.get_u8();
    let req_id = buf.get_u64_le();
    let resp = match tag {
        T_ACK => {
            need(&buf, 8, "ack lsn")?;
            Response::Ack {
                req_id,
                lsn: Lsn(buf.get_u64_le()),
            }
        }
        T_VALUE => Response::Value {
            req_id,
            value: get_bytes(&mut buf, "value bytes")?,
        },
        T_OK => Response::Ok { req_id },
        T_STATS_R => {
            need(&buf, 4, "stats shard count")?;
            let shards = buf.get_u32_le();
            let group_commit = get_counters(
                &mut buf,
                "stats group-commit counters",
                GroupCommitSnapshot::LEN,
                GroupCommitSnapshot::from_values,
            )?;
            let aggregate = get_counters(
                &mut buf,
                "stats aggregate counters",
                MetricsSnapshot::LEN,
                MetricsSnapshot::from_values,
            )?;
            Response::Stats {
                req_id,
                body: Box::new(StatsBody {
                    shards,
                    group_commit,
                    aggregate,
                }),
            }
        }
        T_ERR => {
            need(&buf, 1, "error code")?;
            let code = ErrCode::from_u8(buf.get_u8())
                .ok_or_else(|| codec_err("unknown error code in response"))?;
            let message = get_bytes(&mut buf, "error message")?;
            Response::Err {
                req_id,
                code,
                message: String::from_utf8_lossy(&message).into_owned(),
            }
        }
        T_SEGMENT_CHUNK => {
            need(&buf, 4 + 8 + 8, "segment chunk header")?;
            let shard = buf.get_u32_le();
            let at = Lsn(buf.get_u64_le());
            let durable = Lsn(buf.get_u64_le());
            Response::SegmentChunk {
                req_id,
                shard,
                at,
                bytes: get_bytes(&mut buf, "segment chunk bytes")?,
                durable,
            }
        }
        T_SEAL_MANIFEST => {
            need(&buf, 4 + 4 + 8 * 5, "seal manifest header")?;
            let shard = buf.get_u32_le();
            let shards = buf.get_u32_le();
            let base = Lsn(buf.get_u64_le());
            let durable = Lsn(buf.get_u64_le());
            let master = Lsn(buf.get_u64_le());
            let store_off = buf.get_u64_le();
            let store_total = buf.get_u64_le();
            Response::SealManifest {
                req_id,
                shard,
                shards,
                base,
                durable,
                master,
                store_off,
                store_total,
                store: get_bytes(&mut buf, "seal manifest store image")?,
            }
        }
        t => return Err(codec_err(&format!("unknown response tag {t}"))),
    };
    if buf.remaining() != 0 {
        return Err(codec_err(&format!(
            "{} trailing byte(s) after response",
            buf.remaining()
        )));
    }
    Ok(resp)
}

/// Wrap a payload in a frame header (magic, length, crc32c).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.put_u32_le(FRAME_MAGIC);
    out.put_u32_le(payload.len() as u32);
    out.put_u32_le(crc32c(payload));
    out.put_slice(payload);
    out
}

/// Write one framed payload to `w` (no flush — the caller batches).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<()> {
    w.write_all(&frame(payload)).map_err(|e| LlogError::Io {
        point: "frame write".into(),
        reason: e.to_string(),
    })
}

/// Read one framed payload off `r`.
///
/// - `Ok(Some(payload))` — a whole, checksummed frame.
/// - `Ok(None)` — clean EOF at a frame boundary (peer closed politely).
/// - `Err(Io)` — the stream died mid-frame (dropped connection).
/// - `Err(Codec)` — protocol violation: bad magic, oversized length, or
///   checksum mismatch. The stream is unsynchronized; close it.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Filled => {}
    }
    let mut h: &[u8] = &header;
    let magic = h.get_u32_le();
    let len = h.get_u32_le() as usize;
    let crc = h.get_u32_le();
    if magic != FRAME_MAGIC {
        return Err(codec_err(&format!("bad frame magic {magic:#010x}")));
    }
    if len > MAX_FRAME {
        return Err(codec_err(&format!("frame length {len} exceeds MAX_FRAME")));
    }
    let mut payload = vec![0u8; len];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::CleanEof => {
            return Err(LlogError::Io {
                point: "frame payload".into(),
                reason: "connection dropped mid-frame".into(),
            })
        }
        ReadOutcome::Filled => {}
    }
    if crc32c(&payload) != crc {
        return Err(codec_err("frame checksum mismatch"));
    }
    Ok(Some(payload))
}

enum ReadOutcome {
    Filled,
    CleanEof,
}

/// `read_exact`, but an EOF *before the first byte* is a clean boundary
/// (`CleanEof`) while an EOF after partial progress is an I/O error — the
/// distinction between a polite close and a half-written frame.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(ReadOutcome::CleanEof);
                }
                return Err(LlogError::Io {
                    point: "frame read".into(),
                    reason: format!(
                        "connection dropped mid-frame ({filled}/{} bytes)",
                        buf.len()
                    ),
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(LlogError::Io {
                    point: "frame read".into(),
                    reason: e.to_string(),
                })
            }
        }
    }
    Ok(ReadOutcome::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_testkit::prop::{run_property, vec, Config};
    use llog_testkit::TestRng;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Put {
                req_id: 7,
                object: ObjectId(42),
                value: b"hello".to_vec(),
            },
            Request::Put {
                req_id: u64::MAX,
                object: ObjectId(0),
                value: vec![],
            },
            Request::Get {
                req_id: 1,
                object: ObjectId(9),
            },
            Request::Flush { req_id: 2 },
            Request::Stats { req_id: 3 },
            Request::Ping { req_id: 4 },
            Request::Shutdown { req_id: 5 },
            Request::Subscribe {
                req_id: 6,
                shard: 3,
                from: Lsn(4096),
            },
            Request::Subscribe {
                req_id: 7,
                shard: 0,
                from: Lsn::ZERO,
            },
            Request::ReplayedLsn {
                req_id: 8,
                shard: 1,
                lsn: Lsn(777),
            },
            Request::Promote {
                req_id: 9,
                source_dir: "/tmp/primary-data".into(),
            },
            Request::Promote {
                req_id: 10,
                source_dir: String::new(),
            },
            Request::FetchStore {
                req_id: 11,
                shard: 2,
                offset: 262144,
            },
            Request::Session {
                req_id: 12,
                session_id: 0xDEAD_BEEF,
            },
            Request::Session {
                req_id: 13,
                session_id: 0,
            },
        ]
    }

    /// A Stats body in which every counter of both tables holds a distinct
    /// value: the group-commit table holds 1, 2, …, the aggregate table
    /// continues from there.
    fn distinct_stats() -> StatsBody {
        let gc: Vec<u64> = (1..=GroupCommitSnapshot::LEN as u64).collect();
        let agg: Vec<u64> = (0..MetricsSnapshot::LEN as u64)
            .map(|i| gc.len() as u64 + 1 + i)
            .collect();
        StatsBody {
            shards: 4,
            group_commit: GroupCommitSnapshot::from_values(&gc).unwrap(),
            aggregate: MetricsSnapshot::from_values(&agg).unwrap(),
        }
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::Ack {
                req_id: 7,
                lsn: Lsn(1234),
            },
            Response::Value {
                req_id: 8,
                value: b"v".to_vec(),
            },
            Response::Value {
                req_id: 9,
                value: vec![],
            },
            Response::Ok { req_id: 10 },
            Response::Stats {
                req_id: 11,
                body: Box::new(distinct_stats()),
            },
            Response::Err {
                req_id: 12,
                code: ErrCode::ShardDead,
                message: "shard 2 has crashed".into(),
            },
            Response::SegmentChunk {
                req_id: 13,
                shard: 2,
                at: Lsn(512),
                bytes: vec![0xAB; 40],
                durable: Lsn(552),
            },
            Response::SegmentChunk {
                req_id: 14,
                shard: 0,
                at: Lsn(1),
                bytes: vec![],
                durable: Lsn(1),
            },
            Response::SealManifest {
                req_id: 15,
                shard: 1,
                shards: 4,
                base: Lsn(128),
                durable: Lsn(640),
                master: Lsn(0),
                store_off: 0,
                store_total: 14,
                store: b"LLOGSTR1-image".to_vec(),
            },
            Response::SealManifest {
                req_id: 16,
                shard: 0,
                shards: 1,
                base: Lsn(128),
                durable: Lsn(640),
                master: Lsn(130),
                store_off: 7,
                store_total: 14,
                store: b"1-image".to_vec(),
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in sample_requests() {
            let enc = encode_request(&req);
            assert_eq!(decode_request(&enc).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in sample_responses() {
            let enc = encode_response(&resp);
            assert_eq!(decode_response(&enc).unwrap(), resp);
        }
    }

    /// The Stats payload is `shards`, then each table as a `u32` count and
    /// its values in table order: with every counter distinct, a swap
    /// anywhere (within a table or between the two) shows.
    #[test]
    fn stats_body_crosses_the_wire_in_table_order() {
        let body = distinct_stats();
        let enc = encode_response(&Response::Stats {
            req_id: 5,
            body: Box::new(body),
        });
        let (gc, agg) = (GroupCommitSnapshot::LEN as u64, MetricsSnapshot::LEN as u64);
        let mut want = enc[..1 + 8].to_vec();
        want.put_u32_le(4);
        want.put_u32_le(gc as u32);
        (1..=gc).for_each(|v| want.put_u64_le(v));
        want.put_u32_le(agg as u32);
        (gc + 1..=gc + agg).for_each(|v| want.put_u64_le(v));
        assert_eq!(enc, want);
        match decode_response(&enc).unwrap() {
            Response::Stats {
                req_id: 5,
                body: back,
            } => assert_eq!(*back, body),
            other => panic!("decoded {other:?}"),
        }
    }

    /// Every truncation of a Stats payload, and a table whose count is
    /// not this build's, decode to `Codec` — never a panic, never a
    /// short table padded with zeros.
    #[test]
    fn stats_body_truncations_and_wrong_counts_are_codec_errors() {
        let enc = encode_response(&Response::Stats {
            req_id: 5,
            body: Box::new(distinct_stats()),
        });
        for cut in 0..enc.len() {
            assert!(
                matches!(decode_response(&enc[..cut]), Err(LlogError::Codec { .. })),
                "prefix of {cut} bytes"
            );
        }
        let gc_count = 1 + 8 + 4;
        let agg_count = gc_count + 4 + 8 * GroupCommitSnapshot::LEN;
        for at in [gc_count, agg_count] {
            // One counter short: the count and the bytes agree, the table
            // length does not.
            let mut short = enc.clone();
            let n = u32::from_le_bytes(short[at..at + 4].try_into().unwrap());
            short[at..at + 4].copy_from_slice(&(n - 1).to_le_bytes());
            short.drain(at + 4..at + 12);
            assert!(matches!(
                decode_response(&short),
                Err(LlogError::Codec { .. })
            ));
            // One counter long.
            let mut long = enc.clone();
            long[at..at + 4].copy_from_slice(&(n + 1).to_le_bytes());
            long.splice(at + 4..at + 4, [7u8; 8]);
            assert!(matches!(
                decode_response(&long),
                Err(LlogError::Codec { .. })
            ));
            // A count far past the payload.
            let mut huge = enc.clone();
            huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(
                decode_response(&huge),
                Err(LlogError::Codec { .. })
            ));
        }
    }

    #[test]
    fn frames_roundtrip_through_a_stream() {
        let mut wire = Vec::new();
        for req in sample_requests() {
            write_frame(&mut wire, &encode_request(&req)).unwrap();
        }
        let mut r: &[u8] = &wire;
        for req in sample_requests() {
            let payload = read_frame(&mut r).unwrap().expect("frame present");
            assert_eq!(decode_request(&payload).unwrap(), req);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at end");
    }

    #[test]
    fn truncated_frame_is_io_not_panic() {
        let full = frame(&encode_request(&Request::Ping { req_id: 1 }));
        // Every proper prefix must fail cleanly: header prefixes and
        // payload prefixes are both mid-frame drops (Io), except the
        // empty prefix which is a clean EOF.
        for cut in 0..full.len() {
            let mut r: &[u8] = &full[..cut];
            match read_frame(&mut r) {
                Ok(None) => assert_eq!(cut, 0, "only the empty prefix is clean"),
                Err(LlogError::Io { .. }) => assert!(cut > 0),
                other => panic!("prefix of {cut} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_oversize_and_bad_crc_are_codec_errors() {
        let good = frame(&encode_request(&Request::Ping { req_id: 1 }));

        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(LlogError::Codec { .. })
        ));

        let mut oversize = good.clone();
        oversize[4..8].copy_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut oversize.as_slice()),
            Err(LlogError::Codec { .. })
        ));

        let mut bad_crc = good.clone();
        *bad_crc.last_mut().unwrap() ^= 0x01;
        assert!(matches!(
            read_frame(&mut bad_crc.as_slice()),
            Err(LlogError::Codec { .. })
        ));
    }

    #[test]
    fn prop_garbage_payloads_never_panic() {
        // Arbitrary bytes through both decoders: any outcome but a panic.
        run_property(
            "proto-garbage-decode",
            &Config::with_cases(256),
            &vec(0u8..=255u8, 0..64),
            |bytes| {
                let _ = decode_request(&bytes);
                let _ = decode_response(&bytes);
                Ok(())
            },
        );
    }

    #[test]
    fn prop_bitflipped_frames_fail_cleanly() {
        // A valid frame with one flipped bit must decode to an error (crc
        // or magic catches it) or — if the flip lands in the req_id of the
        // payload *and* somehow repairs the crc, which crc32c prevents for
        // single bits — to a value; it must never panic or hang.
        run_property(
            "proto-bitflip-frames",
            &Config::with_cases(256),
            &(0u64..u64::MAX, 0usize..64),
            |(material, flip)| {
                let mut rng = TestRng::seed_from_u64(material);
                let val: Vec<u8> = (0..rng.random_range(0usize..16))
                    .map(|_| rng.next_u32() as u8)
                    .collect();
                let req = Request::Put {
                    req_id: rng.next_u64(),
                    object: ObjectId(rng.next_u64()),
                    value: val,
                };
                let mut wire = frame(&encode_request(&req));
                let bit = flip % (wire.len() * 8);
                wire[bit / 8] ^= 1 << (bit % 8);
                if let Ok(Some(payload)) = read_frame(&mut wire.as_slice()) {
                    // Only reachable if the flip cancelled in the crc
                    // field itself against a payload it no longer
                    // covers — impossible for one bit; still, decoding
                    // must not panic.
                    let _ = decode_request(&payload);
                }
                Ok(())
            },
        );
    }

    #[test]
    fn prop_random_request_roundtrip() {
        run_property(
            "proto-request-roundtrip",
            &Config::with_cases(256),
            &(0u64..u64::MAX),
            |material| {
                let mut rng = TestRng::seed_from_u64(material);
                let req = match rng.random_range(0usize..11) {
                    0 => Request::Put {
                        req_id: rng.next_u64(),
                        object: ObjectId(rng.next_u64()),
                        value: (0..rng.random_range(0usize..128))
                            .map(|_| rng.next_u32() as u8)
                            .collect(),
                    },
                    1 => Request::Get {
                        req_id: rng.next_u64(),
                        object: ObjectId(rng.next_u64()),
                    },
                    2 => Request::Flush {
                        req_id: rng.next_u64(),
                    },
                    3 => Request::Stats {
                        req_id: rng.next_u64(),
                    },
                    4 => Request::Ping {
                        req_id: rng.next_u64(),
                    },
                    5 => Request::Shutdown {
                        req_id: rng.next_u64(),
                    },
                    6 => Request::Subscribe {
                        req_id: rng.next_u64(),
                        shard: rng.next_u32(),
                        from: Lsn(rng.next_u64()),
                    },
                    7 => Request::ReplayedLsn {
                        req_id: rng.next_u64(),
                        shard: rng.next_u32(),
                        lsn: Lsn(rng.next_u64()),
                    },
                    8 => Request::Promote {
                        req_id: rng.next_u64(),
                        source_dir: (0..rng.random_range(0usize..32))
                            .map(|_| (b'a' + (rng.next_u32() % 26) as u8) as char)
                            .collect(),
                    },
                    9 => Request::FetchStore {
                        req_id: rng.next_u64(),
                        shard: rng.next_u32(),
                        offset: rng.next_u64(),
                    },
                    _ => Request::Session {
                        req_id: rng.next_u64(),
                        session_id: rng.next_u64(),
                    },
                };
                let payload = read_frame(&mut frame(&encode_request(&req)).as_slice())
                    .map_err(|e| e.to_string())?
                    .expect("whole frame");
                let back = decode_request(&payload).map_err(|e| e.to_string())?;
                if back != req {
                    return Err(format!("roundtrip mismatch: {req:?} -> {back:?}"));
                }
                Ok(())
            },
        );
    }
}
