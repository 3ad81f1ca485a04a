//! A small blocking client for the frame protocol.
//!
//! Two usage shapes:
//!
//! - **Lock-step** ([`Client::call`]): one request, one response — what
//!   the CLI and smoke tests use.
//! - **Pipelined** ([`Client::send`] / [`Client::recv`]): keep a window of
//!   requests in flight and match completions by `req_id` — what the
//!   open-loop load generator uses. Responses come back in request order
//!   (the server's per-connection writer preserves it).

use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use llog_types::{LlogError, Lsn, ObjectId, Result};

use crate::proto::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, StatsBody,
};

fn io_err(point: &str, e: impl ToString) -> LlogError {
    LlogError::Io {
        point: point.into(),
        reason: e.to_string(),
    }
}

/// A blocking connection to a [`Server`](crate::Server).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_req_id: u64,
}

impl Client {
    /// Connect to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("client connect", e))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone().map_err(|e| io_err("client clone", e))?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_req_id: 1,
        })
    }

    /// Bound how long a blocked `recv` waits for the server.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(|e| io_err("client set_read_timeout", e))
    }

    /// Allocate a fresh request id (monotonic per connection).
    pub fn fresh_req_id(&mut self) -> u64 {
        let id = self.next_req_id;
        self.next_req_id += 1;
        id
    }

    /// Send one request without waiting (pipelining). Buffered — call
    /// [`Client::flush_stream`] (or `recv`, which flushes first) to put
    /// it on the wire.
    pub fn send(&mut self, req: &Request) -> Result<()> {
        write_frame(&mut self.writer, &encode_request(req))
    }

    /// Flush buffered requests to the socket.
    pub fn flush_stream(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| io_err("client flush", e))
    }

    /// Receive the next response; `Ok(None)` when the server closed the
    /// connection cleanly.
    pub fn recv(&mut self) -> Result<Option<Response>> {
        self.flush_stream()?;
        match read_frame(&mut self.reader)? {
            Some(payload) => Ok(Some(decode_response(&payload)?)),
            None => Ok(None),
        }
    }

    /// Lock-step request/response.
    pub fn call(&mut self, req: &Request) -> Result<Response> {
        self.send(req)?;
        self.recv()?.ok_or_else(|| LlogError::Io {
            point: "client call".into(),
            reason: "server closed the connection before responding".into(),
        })
    }

    /// Durably write `value` to `object`; returns the operation's LSN.
    pub fn put(&mut self, object: ObjectId, value: &[u8]) -> Result<Lsn> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::Put {
            req_id,
            object,
            value: value.to_vec(),
        })? {
            Response::Ack { lsn, .. } => Ok(lsn),
            other => Err(unexpected("ack", other)),
        }
    }

    /// Read `object`'s current value bytes.
    pub fn get(&mut self, object: ObjectId) -> Result<Vec<u8>> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::Get { req_id, object })? {
            Response::Value { value, .. } => Ok(value),
            other => Err(unexpected("value", other)),
        }
    }

    /// Bind this connection to session `session_id`: the server tracks
    /// the session's last acked `Put` per shard and every later `Get` on
    /// the connection reads no older than that floor — read-your-writes
    /// that survives a reconnect, as long as the new connection re-binds
    /// the same id. A `session_id` of 0 unbinds.
    pub fn bind_session(&mut self, session_id: u64) -> Result<()> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::Session { req_id, session_id })? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected("ok", other)),
        }
    }

    /// Force every shard's log on the server.
    pub fn flush(&mut self) -> Result<()> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::Flush { req_id })? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected("ok", other)),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<()> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::Ping { req_id })? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected("ok", other)),
        }
    }

    /// Group-commit counters from the server.
    pub fn stats(&mut self) -> Result<StatsBody> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::Stats { req_id })? {
            Response::Stats { body, .. } => Ok(*body),
            other => Err(unexpected("stats", other)),
        }
    }

    /// Poll shard `shard`'s log-shipping feed from `from`. Returns the
    /// raw [`Response`] — [`Response::SealManifest`] when attaching (or
    /// after falling behind a truncation), [`Response::SegmentChunk`]
    /// otherwise; callers match on the shape.
    pub fn subscribe(&mut self, shard: u32, from: Lsn) -> Result<Response> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::Subscribe {
            req_id,
            shard,
            from,
        })? {
            resp @ (Response::SegmentChunk { .. } | Response::SealManifest { .. }) => Ok(resp),
            other => Err(unexpected("segment chunk or seal manifest", other)),
        }
    }

    /// Fetch the chunk at `offset` of the attach store image captured by
    /// this connection's most recent `Subscribe` for `shard` (the
    /// manifest's `store_total` exceeded its first chunk). Returns the
    /// raw [`Response::SealManifest`]; callers check that its addresses
    /// match the first chunk's.
    pub fn fetch_store(&mut self, shard: u32, offset: u64) -> Result<Response> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::FetchStore {
            req_id,
            shard,
            offset,
        })? {
            resp @ Response::SealManifest { .. } => Ok(resp),
            other => Err(unexpected("seal manifest store chunk", other)),
        }
    }

    /// Report a replica's replayed-LSN watermark for `shard`.
    pub fn report_replayed(&mut self, shard: u32, lsn: Lsn) -> Result<()> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::ReplayedLsn { req_id, shard, lsn })? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected("ok", other)),
        }
    }

    /// Promote the replica server at the other end to primary.
    /// `source_dir` optionally names the crashed primary's data directory
    /// for a device catch-up (empty = none).
    pub fn promote(&mut self, source_dir: &str) -> Result<()> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::Promote {
            req_id,
            source_dir: source_dir.to_string(),
        })? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected("ok", other)),
        }
    }

    /// Ask the server to drain and exit (acked before the drain starts).
    pub fn shutdown_server(&mut self) -> Result<()> {
        let req_id = self.fresh_req_id();
        match self.call(&Request::Shutdown { req_id })? {
            Response::Ok { .. } => Ok(()),
            other => Err(unexpected("ok", other)),
        }
    }
}

fn unexpected(wanted: &str, got: Response) -> LlogError {
    match got {
        Response::Err { code, message, .. } => {
            LlogError::CacheProtocol(format!("server error ({code:?}): {message}"))
        }
        other => LlogError::CacheProtocol(format!("expected {wanted} response, got {other:?}")),
    }
}
