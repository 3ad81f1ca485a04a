#![warn(missing_docs)]
//! # llog-server — a TCP front end for the sharded recovery engine
//!
//! The paper's engine only matters at scale if it can sit behind real
//! traffic. This crate puts [`llog_engine::ShardedEngine`] on a socket
//! (DESIGN §12) with nothing but `std::net`:
//!
//! - **[`proto`]** — length-prefixed, crc32c-checksummed frames carrying
//!   tagged requests (`Put`/`Get`/`Flush`/`Stats`/`Ping`/`Shutdown`) and
//!   responses. Hostile bytes map to clean protocol errors, never panics.
//! - **[`Server`]** — acceptor + two threads per connection (reader
//!   executes in arrival order and enqueues completions; writer waits
//!   each [`CommitTicket`](llog_engine::CommitTicket) durable and writes
//!   responses in request order). An `Ack` on the wire means the
//!   operation is covered by its shard's durable watermark — and, with
//!   [`boot::open_served`]'s backends attached, on the backend device, so
//!   a process `SIGKILL` loses nothing acknowledged.
//! - **Admission control** — the engine's uninstalled-window parking plus
//!   a bounded per-connection completion queue; both surface to clients
//!   as a stalled TCP window, not an error.
//! - **Graceful drain** ([`Server::shutdown`]) — stop accepting,
//!   half-close connections, force all shards so queued tickets resolve,
//!   join everything, hand the engine back.
//! - **[`Client`]** — a blocking client, lock-step or pipelined.
//! - **[`boot`]** — open/recover a served database directory
//!   (`shard-<i>/{log,store}` file backends per shard).
//!
//! ```
//! use llog_ops::TransformRegistry;
//! use llog_server::{Client, Server, ServerConfig};
//! use llog_types::ObjectId;
//!
//! let registry = TransformRegistry::with_builtins();
//! let engine = llog_engine::ShardedEngine::new(
//!     llog_server::boot::server_engine_config(2),
//!     &registry,
//! );
//! let server = Server::start(engine, ServerConfig::default()).unwrap();
//!
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.put(ObjectId(7), b"hello").unwrap(); // blocks until durable
//! assert_eq!(client.get(ObjectId(7)).unwrap(), b"hello");
//!
//! let engine = server.shutdown(); // drains; engine comes back usable
//! let _ = engine.shutdown();
//! ```

pub mod boot;
mod client;
pub mod proto;
mod server;

pub use client::Client;
pub use proto::{ErrCode, Request, Response, StatsBody};
pub use server::{Server, ServerConfig, ServerCounters};

#[cfg(test)]
mod tests {
    use super::*;
    use llog_engine::{recover_sharded, ShardedEngine};
    use llog_ops::TransformRegistry;
    use llog_types::{ObjectId, Value};

    fn start_default(shards: usize) -> (Server, TransformRegistry) {
        let registry = TransformRegistry::with_builtins();
        let engine = ShardedEngine::new(boot::server_engine_config(shards), &registry);
        let server = Server::start(engine, ServerConfig::default()).unwrap();
        (server, registry)
    }

    #[test]
    fn put_get_roundtrip_over_loopback() {
        let (server, _reg) = start_default(4);
        let mut c = Client::connect(server.local_addr()).unwrap();
        for i in 0..32u64 {
            c.put(ObjectId(i), format!("v{i}").as_bytes()).unwrap();
        }
        for i in 0..32u64 {
            assert_eq!(c.get(ObjectId(i)).unwrap(), format!("v{i}").as_bytes());
        }
        c.ping().unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(stats.shards, 4);
        assert!(
            stats.aggregate.log_records >= 32,
            "every put lands in the log counters"
        );
        assert!(
            stats.aggregate.log_bytes > 0,
            "the whole ledger crosses the wire"
        );
        assert!(
            stats.group_commit.waits >= 32,
            "every ack waited its ticket"
        );
        drop(c);
        let engine = server.shutdown();
        let _ = engine.shutdown().unwrap();
    }

    #[test]
    fn pipelined_acks_come_back_in_order() {
        let (server, _reg) = start_default(2);
        let mut c = Client::connect(server.local_addr()).unwrap();
        let n = 64u64;
        for i in 0..n {
            let req_id = c.fresh_req_id();
            c.send(&Request::Put {
                req_id,
                object: ObjectId(i),
                value: vec![i as u8],
            })
            .unwrap();
        }
        let mut expected = 1u64; // fresh_req_id starts at 1
        for _ in 0..n {
            match c.recv().unwrap().expect("response") {
                Response::Ack { req_id, .. } => {
                    assert_eq!(req_id, expected, "in-order completion");
                    expected += 1;
                }
                other => panic!("expected ack, got {other:?}"),
            }
        }
        drop(c);
        server.shutdown();
    }

    #[test]
    fn pipelined_gets_ride_the_snapshot_path_in_request_order() {
        let (server, _reg) = start_default(2);
        let mut c = Client::connect(server.local_addr()).unwrap();
        // Interleave Put(x)=v_i / Get(x) without waiting for responses:
        // the Get is served out of band (lock-free snapshot, writer
        // thread), but must still answer after its preceding Put's ack —
        // same req_id order, reading its own write.
        let n = 32u64;
        for i in 0..n {
            let put_id = c.fresh_req_id();
            c.send(&Request::Put {
                req_id: put_id,
                object: ObjectId(i % 4),
                value: format!("v{i}").into_bytes(),
            })
            .unwrap();
            let get_id = c.fresh_req_id();
            c.send(&Request::Get {
                req_id: get_id,
                object: ObjectId(i % 4),
            })
            .unwrap();
        }
        let mut expected = 1u64; // fresh_req_id starts at 1
        for i in 0..n {
            match c.recv().unwrap().expect("ack") {
                Response::Ack { req_id, .. } => assert_eq!(req_id, expected),
                other => panic!("expected ack, got {other:?}"),
            }
            expected += 1;
            match c.recv().unwrap().expect("value") {
                Response::Value { req_id, value } => {
                    assert_eq!(req_id, expected, "in-order completion");
                    // Read-your-writes, not read-at-pipeline-position: the
                    // get resolves when the writer pops it, so it sees its
                    // preceding put or any *later* durable put this
                    // connection pipelined onto the same object — never an
                    // older value.
                    let text = String::from_utf8(value).unwrap();
                    let j: u64 = text.strip_prefix('v').unwrap().parse().unwrap();
                    assert!(
                        j >= i && j % 4 == i % 4,
                        "get {i} observed v{j}: older than its own write"
                    );
                }
                other => panic!("expected value, got {other:?}"),
            }
            expected += 1;
        }
        let stats = c.stats().unwrap();
        assert_eq!(
            stats.aggregate.reads_snapshot, n,
            "every get must have been served via the snapshot path"
        );
        drop(c);
        server.shutdown();
    }

    #[test]
    fn session_reads_are_ordered_after_the_sessions_acked_puts() {
        let (server, _reg) = start_default(2);
        // Connection A binds session 77, writes, and is acked.
        let mut a = Client::connect(server.local_addr()).unwrap();
        a.bind_session(77).unwrap();
        for i in 0..8u64 {
            a.put(ObjectId(i), format!("s77-{i}").as_bytes()).unwrap();
        }
        drop(a); // connection dies; the session floor must not

        // Connection B re-binds the same session: every read waits the
        // shard durable past the session's last acked put, so it can
        // never observe a pre-put value.
        let mut b = Client::connect(server.local_addr()).unwrap();
        b.bind_session(77).unwrap();
        for i in 0..8u64 {
            assert_eq!(b.get(ObjectId(i)).unwrap(), format!("s77-{i}").as_bytes());
        }
        // Pipelined on the same session: puts then gets, no waiting in
        // between — the floored reads still answer in order with the
        // session's own writes.
        for i in 0..8u64 {
            let req_id = b.fresh_req_id();
            b.send(&Request::Put {
                req_id,
                object: ObjectId(i),
                value: format!("s77b-{i}").into_bytes(),
            })
            .unwrap();
        }
        for i in 0..8u64 {
            let req_id = b.fresh_req_id();
            b.send(&Request::Get {
                req_id,
                object: ObjectId(i),
            })
            .unwrap();
        }
        for _ in 0..8 {
            assert!(matches!(
                b.recv().unwrap().expect("ack"),
                Response::Ack { .. }
            ));
        }
        for i in 0..8u64 {
            match b.recv().unwrap().expect("value") {
                Response::Value { value, .. } => {
                    assert_eq!(value, format!("s77b-{i}").into_bytes());
                }
                other => panic!("expected value, got {other:?}"),
            }
        }
        // An unbound connection (and session id 0) still reads normally.
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.bind_session(0).unwrap();
        assert_eq!(c.get(ObjectId(0)).unwrap(), b"s77b-0");
        drop(b);
        drop(c);
        server.shutdown();
    }

    #[test]
    fn acked_puts_survive_abort_and_recovery() {
        let (server, reg) = start_default(3);
        let mut c = Client::connect(server.local_addr()).unwrap();
        for i in 0..20u64 {
            c.put(ObjectId(i), b"durable").unwrap(); // acked ⇒ forced
        }
        drop(c);
        let engine = server.abort(); // cut connections, abandon flushers
        let parts = engine.crash();
        let cfg = boot::server_engine_config(3);
        let (rec, _) =
            recover_sharded(parts, &reg, cfg, llog_core::RedoPolicy::RsiExposed).unwrap();
        for i in 0..20u64 {
            assert_eq!(rec.read_value(ObjectId(i)).unwrap(), Value::from("durable"));
        }
    }

    #[test]
    fn shutdown_request_flag_and_drain() {
        let (server, _reg) = start_default(1);
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.put(ObjectId(1), b"x").unwrap();
        assert!(!server.shutdown_requested());
        c.shutdown_server().unwrap();
        assert!(server.shutdown_requested());
        let counters = server.counters();
        assert!(counters.accepted >= 1);
        assert!(counters.requests >= 2);
        let engine = server.shutdown();
        // The drained engine is still usable after the server is gone.
        assert_eq!(engine.read_value(ObjectId(1)).unwrap(), Value::from("x"));
        engine.shutdown().unwrap();
    }

    #[test]
    fn garbage_frames_close_the_connection_without_killing_the_server() {
        use std::io::Write as _;
        let (server, _reg) = start_default(1);
        let mut raw = std::net::TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        // Server drops the connection on the protocol violation…
        let mut c = Client::connect(server.local_addr()).unwrap();
        c.ping().unwrap(); // …but keeps serving new ones.
                           // Poll the counter: the violating connection is torn down
                           // asynchronously to the ping above.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.counters().protocol_errors == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "protocol error never counted"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        server.shutdown();
    }
}
