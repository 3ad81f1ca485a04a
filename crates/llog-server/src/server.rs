//! The TCP front end: accept loop, per-connection pipelining, admission
//! control, graceful drain (DESIGN §12).
//!
//! ## Threading model
//!
//! One **acceptor** thread owns the listener. Each connection gets two
//! threads:
//!
//! - a **reader** that decodes frames, executes each request against the
//!   [`ShardedEngine`] immediately (so the append rides the next force
//!   barrier anyone asks for), and enqueues the *completion* — a
//!   [`CommitTicket`] for puts, a deferred snapshot read for gets, a ready
//!   [`Response`] for everything else — on a bounded in-order queue;
//! - a **writer** that pops completions in order, waits each ticket
//!   durable, and buffers the response frame. Responses therefore come
//!   back in request order, and an `Ack` is written only after the shard's
//!   durable watermark covers the operation. The writer flushes the socket
//!   only where it could park — an empty queue, a ticket not yet durable,
//!   a session read whose floor is not yet covered — so a run of ready
//!   responses shares one write.
//!
//! ## Reads ride out of band, answers stay in order
//!
//! A `Get` never takes the engine mutex: it is queued as a deferred
//! completion and resolved on the writer thread through the engine's MVCC
//! snapshot path ([`ShardedEngine::read_value_snapshot`], DESIGN §15), so
//! reads from one connection never queue behind other connections' writes,
//! forces or installs. Per-connection semantics are unchanged: the writer
//! resolves completions strictly in `req_id` order, and because every
//! earlier put's ticket has been waited durable *before* the read resolves,
//! a pipelined `Put(x); Get(x)` always reads its own write — or a newer
//! durable value this connection pipelined behind it, never an older one
//! (the read resolves at pop time, not at its position in the pipeline).
//!
//! ## Admission control
//!
//! Backpressure composes from two bounds, both visible to the client as a
//! stalled TCP window rather than an error:
//!
//! 1. the engine's own uninstalled-window parking — `execute` blocks the
//!    reader while the target shard is over `max_uninstalled`;
//! 2. the per-connection completion queue (`QUEUE_DEPTH`)
//!    — a reader whose writer has fallen behind blocks on the full queue
//!    and stops draining the socket, so the kernel's receive buffer fills
//!    and the client's sends stall.
//!
//! ## Drain
//!
//! [`Server::shutdown`] stops the acceptor, half-closes every connection
//! (readers see EOF after the frame they are parsing), forces all shards
//! so every queued ticket resolves, joins all threads, and hands the
//! still-running engine back to the caller. Every response written before
//! the socket closed reflects a durable operation.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use llog_engine::{CommitTicket, ShardedEngine, ShipManifest};
use llog_ops::{builtin, OpKind, Transform};
use llog_types::{LlogError, Lsn, ObjectId, Result, Value};

use crate::proto::{
    decode_request, encode_response, read_frame, write_frame, ErrCode, Request, Response, StatsBody,
};

/// Largest log-shipping chunk served per [`Request::Subscribe`] poll, and
/// largest store-image chunk per attach response. Comfortably under
/// [`crate::proto::MAX_FRAME`] so the response (header + chunk) always
/// fits one frame.
pub(crate) const SHIP_CHUNK_MAX: usize = 256 << 10;

/// How long a session-bound `Get` will wait for its shard's durable
/// watermark to cover the session's read floor before erroring out. The
/// floor is the LSN of the session's last acked `Put` on that shard, so in
/// a healthy server the wait resolves immediately; the bound only fires if
/// the shard died with the watermark short of the floor.
const SESSION_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-connection shipping state: the attach image captured by the most
/// recent `Subscribe` per shard, retained while its store chunks stream
/// out via `FetchStore` — every chunk of one attach must come from the
/// same instant of the shard, so chunks are never served from a fresh
/// capture. Dropped with the connection.
#[derive(Default)]
struct ShippingState {
    captures: HashMap<u32, ShipManifest>,
}

/// Per-session, per-shard read floors (DESIGN §12): the LSN of the
/// session's last acked `Put` on each shard. Keyed by the client-chosen
/// session id in [`Inner::sessions`], so the floors outlive any one
/// connection — a client that reconnects and re-binds its session id gets
/// read-your-writes across the reconnect.
struct SessionFloors {
    floors: Vec<AtomicU64>,
}

impl SessionFloors {
    fn new(shards: usize) -> SessionFloors {
        SessionFloors {
            floors: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Raise shard `i`'s floor to `lsn` (monotonic; concurrent
    /// connections on one session race safely through `fetch_max`).
    fn note_ack(&self, i: usize, lsn: Lsn) {
        self.floors[i].fetch_max(lsn.0, Ordering::SeqCst);
    }

    fn floor(&self, i: usize) -> Lsn {
        Lsn(self.floors[i].load(Ordering::SeqCst))
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-connection completion-queue bound: at most this many responses may
/// be in flight before the reader stops draining the socket.
const QUEUE_DEPTH: usize = 256;

/// Deployment settings for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
        }
    }
}

llog_storage::counters! {
    /// Monotonic counters for observability and the chaos oracle.
    struct Counters;
    /// Snapshot of a server's connection/request counters.
    pub struct ServerCounters;
    /// Connections accepted.
    accepted: sum,
    /// Requests decoded and executed.
    requests: sum,
    /// Connections closed on a `Codec` violation (bad magic/crc/tag).
    protocol_errors: sum,
    /// Connections that died mid-frame (`Io`).
    dropped_conns: sum,
    /// Socket flushes that carried at least one response:
    /// `requests / response_writes` is how many responses share a write.
    response_writes: sum,
}

/// One completion, queued in request order.
enum Pending {
    /// A put waiting on durability; ack with the ticket's LSN.
    Ticket { req_id: u64, ticket: CommitTicket },
    /// A get, resolved *at pop time* through the engine's lock-free MVCC
    /// snapshot path. Deferring the read to the writer thread keeps
    /// read-your-writes on a pipelined connection: every earlier ticket in
    /// this queue has already been waited durable when the read resolves,
    /// so the snapshot (taken at the durable watermark) covers this
    /// connection's earlier puts — while the read itself never touches the
    /// engine mutex and so never queues behind other connections' writes.
    Snapshot { req_id: u64, object: ObjectId },
    /// Bind (or, with `None`, unbind) this connection's session floors.
    /// Queued like any completion so requests pipelined *before* the bind
    /// resolve without floors and ones after it resolve with them.
    Bind {
        req_id: u64,
        floors: Option<Arc<SessionFloors>>,
    },
    /// Already computed (flush/stats/ping/errors).
    Ready(Response),
}

/// The bounded in-order completion queue between a connection's reader
/// and writer.
struct ConnQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
}

struct QueueState {
    items: VecDeque<Pending>,
    /// Reader is done (EOF or error); writer drains what's left and exits.
    closed: bool,
}

impl ConnQueue {
    fn new(depth: usize) -> ConnQueue {
        ConnQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Block until there is room (admission control), then enqueue.
    /// Returns `false` if the queue closed underneath us (writer died).
    fn push(&self, item: Pending) -> bool {
        let mut s = lock(&self.state);
        while s.items.len() >= self.depth && !s.closed {
            s = self
                .not_full
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if s.closed {
            return false;
        }
        s.items.push_back(item);
        drop(s);
        self.not_empty.notify_one();
        true
    }

    /// The next completion if one is queued, without blocking.
    fn try_pop(&self) -> Option<Pending> {
        let item = lock(&self.state).items.pop_front();
        if item.is_some() {
            self.not_full.notify_one();
        }
        item
    }

    /// Pop the next completion; `None` once drained *and* closed.
    fn pop(&self) -> Option<Pending> {
        let mut s = lock(&self.state);
        loop {
            if let Some(item) = s.items.pop_front() {
                drop(s);
                self.not_full.notify_one();
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self
                .not_empty
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Mark the queue closed and wake both sides.
    fn close(&self) {
        lock(&self.state).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

struct Inner {
    engine: ShardedEngine,
    /// Stop accepting connections and work; drain in flight.
    stopping: AtomicBool,
    /// Abandon in flight (crash path): writers drop queued completions.
    aborting: AtomicBool,
    /// A client sent `Shutdown`: the serve loop should wind down.
    shutdown_requested: AtomicBool,
    /// Clones of every live connection's stream, for half-closing at
    /// drain time.
    conns: Mutex<Vec<TcpStream>>,
    /// Connection reader/writer threads, joined at shutdown.
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Read floors per client session id, surviving reconnects (see
    /// [`SessionFloors`]).
    sessions: Mutex<HashMap<u64, Arc<SessionFloors>>>,
    counters: Counters,
}

impl Inner {
    /// Look up (or create) the floors for session `id`.
    fn session_floors(&self, id: u64) -> Arc<SessionFloors> {
        lock(&self.sessions)
            .entry(id)
            .or_insert_with(|| Arc::new(SessionFloors::new(self.engine.shards())))
            .clone()
    }
}

/// A running TCP front end over a [`ShardedEngine`].
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `config.addr` and start serving `engine`. Each connection's
    /// writer waits its oldest ticket, which asks the force barrier for a
    /// force; the puts pipelined behind it ride the same barrier or the
    /// next. For process-kill durability the engine should have backends
    /// attached.
    pub fn start(engine: ShardedEngine, config: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| LlogError::Io {
            point: "server bind".into(),
            reason: format!("{}: {e}", config.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| LlogError::Io {
            point: "server local_addr".into(),
            reason: e.to_string(),
        })?;
        let inner = Arc::new(Inner {
            engine,
            stopping: AtomicBool::new(false),
            aborting: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            sessions: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        });
        let acceptor = {
            let inner = inner.clone();
            std::thread::spawn(move || acceptor_loop(&listener, &inner))
        };
        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (the actual port when `addr` asked for `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Has a client asked the server to shut down (`Request::Shutdown`)?
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Connection/request counters so far.
    pub fn counters(&self) -> ServerCounters {
        self.inner.counters.snapshot()
    }

    /// Graceful drain: stop accepting, half-close every connection, force
    /// all shards so queued tickets resolve, join every thread, and hand
    /// the still-running engine back. Every response written before a
    /// socket closed reflects a durable operation.
    pub fn shutdown(mut self) -> ShardedEngine {
        self.inner.stopping.store(true, Ordering::SeqCst);
        self.wake_acceptor();
        // Half-close: readers finish the frame in flight, then see EOF.
        for s in lock(&self.inner.conns).iter() {
            let _ = s.shutdown(NetShutdown::Read);
        }
        // Resolve every queued ticket with one barrier instead of one
        // force per connection's writer in turn.
        let _ = self.inner.engine.drain();
        self.join_all();
        self.take_engine()
    }

    /// Abandon in flight (the test/chaos crash path): connections are cut
    /// both ways, writers drop queued completions — exactly the
    /// unacknowledged-loss a real process kill inflicts — and the engine
    /// comes back for `ShardedEngine::crash`.
    pub fn abort(mut self) -> ShardedEngine {
        self.inner.stopping.store(true, Ordering::SeqCst);
        self.inner.aborting.store(true, Ordering::SeqCst);
        self.wake_acceptor();
        for s in lock(&self.inner.conns).iter() {
            let _ = s.shutdown(NetShutdown::Both);
        }
        self.join_all();
        self.take_engine()
    }

    /// Unblock the acceptor's blocking `accept` with a throwaway connect.
    fn wake_acceptor(&self) {
        let _ = TcpStream::connect(self.addr);
    }

    fn join_all(&mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Connection threads may still be spawning when the acceptor
        // exits; after join() above, the thread list is final.
        let handles: Vec<JoinHandle<()>> = lock(&self.inner.threads).drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
    }

    fn take_engine(self) -> ShardedEngine {
        match Arc::try_unwrap(self.inner) {
            Ok(inner) => inner.engine,
            Err(_) => unreachable!("all threads joined; no Inner clones remain"),
        }
    }
}

fn acceptor_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if inner.stopping.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if inner.stopping.load(Ordering::SeqCst) {
            return; // the wake-up connect, or a straggler during drain
        }
        inner.counters.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            lock(&inner.conns).push(clone);
        }
        let queue = Arc::new(ConnQueue::new(QUEUE_DEPTH));
        let reader = {
            let inner = inner.clone();
            let queue = queue.clone();
            let stream = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => continue,
            };
            std::thread::spawn(move || {
                reader_loop(&inner, &queue, stream);
                queue.close();
            })
        };
        let writer = {
            let inner = inner.clone();
            std::thread::spawn(move || {
                writer_loop(&inner, &queue, stream);
                queue.close(); // a dead writer must not strand the reader
            })
        };
        let mut threads = lock(&inner.threads);
        threads.push(reader);
        threads.push(writer);
    }
}

/// Decode and execute until EOF/error. Every request is executed *here*,
/// in arrival order, so every put appended before the writer's next wait
/// rides that wait's force barrier — one force across the whole pipeline
/// window.
fn reader_loop(inner: &Arc<Inner>, queue: &ConnQueue, stream: TcpStream) {
    let mut r = BufReader::new(stream);
    let mut shipping = ShippingState::default();
    loop {
        let payload = match read_frame(&mut r) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean close
            Err(LlogError::Codec { .. }) => {
                inner
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            Err(_) => {
                inner.counters.dropped_conns.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(_) => {
                inner
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        inner.counters.requests.fetch_add(1, Ordering::Relaxed);
        if inner.stopping.load(Ordering::SeqCst) {
            let resp = Response::Err {
                req_id: req_id_of(&req),
                code: ErrCode::Stopping,
                message: "server is draining".into(),
            };
            let _ = queue.push(Pending::Ready(resp));
            return;
        }
        let completion = execute_request(inner, &mut shipping, req);
        if !queue.push(completion) {
            return; // writer died; nothing can be acknowledged anymore
        }
    }
}

fn req_id_of(req: &Request) -> u64 {
    match req {
        Request::Put { req_id, .. }
        | Request::Get { req_id, .. }
        | Request::Flush { req_id }
        | Request::Stats { req_id }
        | Request::Ping { req_id }
        | Request::Shutdown { req_id }
        | Request::Subscribe { req_id, .. }
        | Request::FetchStore { req_id, .. }
        | Request::ReplayedLsn { req_id, .. }
        | Request::Session { req_id, .. }
        | Request::Promote { req_id, .. } => *req_id,
    }
}

fn execute_request(inner: &Arc<Inner>, shipping: &mut ShippingState, req: Request) -> Pending {
    match req {
        Request::Put {
            req_id,
            object,
            value,
        } => {
            let transform = Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from(value.as_slice())]),
            );
            // This is where the engine's uninstalled-window backpressure
            // parks the reader: a connection hammering one hot shard
            // stalls here, its socket buffer fills, and the client's
            // sends block — admission control without a reject path.
            match inner
                .engine
                .execute(OpKind::Physical, vec![], vec![object], transform)
            {
                Ok(ticket) => Pending::Ticket { req_id, ticket },
                Err(e) => Pending::Ready(Response::Err {
                    req_id,
                    code: ErrCode::Engine,
                    message: e.to_string(),
                }),
            }
        }
        // Gets are deferred to the writer thread (see [`Pending::Snapshot`]):
        // the reader stays free to pump puts into the next barrier's
        // batch, and the read runs on the lock-free snapshot path after
        // this connection's earlier tickets have gone durable.
        Request::Get { req_id, object } => Pending::Snapshot { req_id, object },
        Request::Flush { req_id } => match inner.engine.force_all() {
            Ok(()) => Pending::Ready(Response::Ok { req_id }),
            Err(e) => Pending::Ready(Response::Err {
                req_id,
                code: ErrCode::ShardDead,
                message: e.to_string(),
            }),
        },
        Request::Stats { req_id } => {
            let snap = inner.engine.metrics_snapshot();
            Pending::Ready(Response::Stats {
                req_id,
                body: Box::new(StatsBody {
                    shards: snap.shards as u32,
                    group_commit: snap.group_commit,
                    aggregate: snap.aggregate,
                }),
            })
        }
        Request::Ping { req_id } => Pending::Ready(Response::Ok { req_id }),
        Request::Shutdown { req_id } => {
            inner.shutdown_requested.store(true, Ordering::SeqCst);
            Pending::Ready(Response::Ok { req_id })
        }
        Request::Subscribe {
            req_id,
            shard,
            from,
        } => Pending::Ready(serve_subscribe(
            &inner.engine,
            shipping,
            req_id,
            shard,
            from,
        )),
        Request::FetchStore {
            req_id,
            shard,
            offset,
        } => Pending::Ready(serve_fetch_store(
            &inner.engine,
            shipping,
            req_id,
            shard,
            offset,
        )),
        Request::ReplayedLsn { req_id, shard, lsn } => {
            let i = shard as usize;
            if i >= inner.engine.shards() {
                return Pending::Ready(Response::Err {
                    req_id,
                    code: ErrCode::Engine,
                    message: format!("no such shard {shard}"),
                });
            }
            match inner.engine.note_replica_watermark(i, lsn) {
                Ok(()) => Pending::Ready(Response::Ok { req_id }),
                Err(e) => Pending::Ready(Response::Err {
                    req_id,
                    code: ErrCode::ShardDead,
                    message: e.to_string(),
                }),
            }
        }
        Request::Session { req_id, session_id } => Pending::Bind {
            req_id,
            floors: (session_id != 0).then(|| inner.session_floors(session_id)),
        },
        Request::Promote { req_id, .. } => Pending::Ready(Response::Err {
            req_id,
            code: ErrCode::Engine,
            message: "this server is a primary; only a replica can be promoted".into(),
        }),
    }
}

/// Answer one log-shipping poll: an attach manifest when `from` is below
/// the shard's log base, otherwise a chunk of stable bytes clamped to the
/// durable cut.
fn serve_subscribe(
    engine: &ShardedEngine,
    shipping: &mut ShippingState,
    req_id: u64,
    shard: u32,
    from: Lsn,
) -> Response {
    let i = shard as usize;
    if i >= engine.shards() {
        return Response::Err {
            req_id,
            code: ErrCode::Engine,
            message: format!("no such shard {shard}"),
        };
    }
    let err = |code: ErrCode, message: String| Response::Err {
        req_id,
        code,
        message,
    };
    let manifest = match engine.ship_manifest(i) {
        Ok(m) => m,
        Err(e) => return err(ErrCode::ShardDead, e.to_string()),
    };
    if from < manifest.base {
        // Attach (or the replica fell behind a checkpoint truncation):
        // hand over the consistent (store image, log addresses) pair —
        // chunked via `FetchStore` when the image outgrows one frame.
        return manifest_chunk(engine, shipping, req_id, shard, manifest, 0);
    }
    // Streaming resumed: any capture left from an abandoned attach is
    // stale.
    shipping.captures.remove(&shard);
    match engine.ship_chunk(i, from, SHIP_CHUNK_MAX) {
        Ok((bytes, durable)) => Response::SegmentChunk {
            req_id,
            shard,
            at: from,
            bytes,
            durable,
        },
        Err(e) => err(ErrCode::Engine, e.to_string()),
    }
}

/// Serve the next chunk of an attach store image from this connection's
/// capture (see [`ShippingState`]).
fn serve_fetch_store(
    engine: &ShardedEngine,
    shipping: &mut ShippingState,
    req_id: u64,
    shard: u32,
    offset: u64,
) -> Response {
    let err = |message: String| Response::Err {
        req_id,
        code: ErrCode::Engine,
        message,
    };
    let Some(manifest) = shipping.captures.remove(&shard) else {
        return err(format!(
            "no attach capture in flight for shard {shard}; subscribe first"
        ));
    };
    if offset >= manifest.store.len() as u64 {
        return err(format!(
            "store offset {offset} out of range for a {}-byte image",
            manifest.store.len()
        ));
    }
    manifest_chunk(engine, shipping, req_id, shard, manifest, offset as usize)
}

/// Build the [`Response::SealManifest`] carrying the store-image chunk at
/// `offset`, keeping the capture alive while chunks remain.
fn manifest_chunk(
    engine: &ShardedEngine,
    shipping: &mut ShippingState,
    req_id: u64,
    shard: u32,
    manifest: ShipManifest,
    offset: usize,
) -> Response {
    let total = manifest.store.len();
    let end = total.min(offset + SHIP_CHUNK_MAX);
    let resp = Response::SealManifest {
        req_id,
        shard,
        shards: engine.shards() as u32,
        base: manifest.base,
        durable: manifest.durable,
        master: manifest.master.unwrap_or(Lsn::ZERO),
        store_off: offset as u64,
        store_total: total as u64,
        store: manifest.store[offset..end].to_vec(),
    };
    if end < total {
        shipping.captures.insert(shard, manifest);
    } else {
        shipping.captures.remove(&shard);
    }
    resp
}

/// A connection's response stream. Frames collect in the buffer and reach
/// the socket only at [`Responses::flush`], which the writer calls right
/// before it could park (DESIGN §12): a run of ready responses shares one
/// socket write, and no ready response waits behind a parked one.
struct Responses<'a> {
    w: BufWriter<TcpStream>,
    /// Frames buffered since the last flush.
    unflushed: bool,
    counters: &'a Counters,
}

impl Responses<'_> {
    fn send(&mut self, resp: &Response) -> Result<()> {
        write_frame(&mut self.w, &encode_response(resp))?;
        self.unflushed = true;
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.unflushed {
            self.w.flush()?;
            self.unflushed = false;
            self.counters
                .response_writes
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// The crash path: drop every buffered response unwritten.
    fn discard(self) {
        let _ = self.w.into_parts();
    }
}

/// Pop completions in order, wait tickets durable, write response frames.
/// The socket is flushed only where the writer could park: on an empty
/// queue, before a ticket that is not durable yet, and before a session
/// read whose floor the watermark does not cover yet.
fn writer_loop(inner: &Arc<Inner>, queue: &ConnQueue, stream: TcpStream) {
    let mut out = Responses {
        w: BufWriter::new(stream),
        unflushed: false,
        counters: &inner.counters,
    };
    // The session this connection is bound to (via `Request::Session`):
    // acked puts raise its per-shard floors, gets wait them covered.
    let mut session: Option<Arc<SessionFloors>> = None;
    loop {
        let pending = match queue.try_pop() {
            Some(pending) => pending,
            None => {
                if out.flush().is_err() {
                    return; // peer gone; reader will notice on its next read
                }
                match queue.pop() {
                    Some(pending) => pending,
                    None => break,
                }
            }
        };
        let resp = match pending {
            Pending::Ready(resp) => resp,
            Pending::Bind { req_id, floors } => {
                session = floors;
                Response::Ok { req_id }
            }
            Pending::Snapshot { req_id, object } => {
                // A session-bound read waits (bounded) for the owning
                // shard's durable watermark to cover the session's floor:
                // read-your-writes even when the floor-raising ack went to
                // a previous connection of the same session.
                let shard = inner.engine.router().shard_of(object);
                let floor = session.as_ref().map_or(Lsn::ZERO, |s| s.floor(shard));
                if inner.engine.durable_lsn(shard) < floor && out.flush().is_err() {
                    return;
                }
                match inner
                    .engine
                    .read_value_snapshot_at_least(object, floor, SESSION_READ_TIMEOUT)
                {
                    Ok(v) => Response::Value {
                        req_id,
                        value: v.as_bytes().to_vec(),
                    },
                    Err(e) => Response::Err {
                        req_id,
                        code: ErrCode::Engine,
                        message: e.to_string(),
                    },
                }
            }
            Pending::Ticket { req_id, ticket } => {
                if !ticket.is_durable() && out.flush().is_err() {
                    return;
                }
                // Every barrier ends in an ack or the shard's death, so the
                // wait returns; an abort discards the response below.
                if ticket.wait() {
                    if let Some(s) = &session {
                        s.note_ack(ticket.shard(), ticket.lsn());
                    }
                    Response::Ack {
                        req_id,
                        lsn: ticket.lsn(),
                    }
                } else {
                    Response::Err {
                        req_id,
                        code: ErrCode::ShardDead,
                        message: format!("shard {} crashed", ticket.shard()),
                    }
                }
            }
        };
        if inner.aborting.load(Ordering::SeqCst) {
            return out.discard();
        }
        if out.send(&resp).is_err() {
            return;
        }
    }
    let _ = out.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{boot, Client};
    use llog_ops::TransformRegistry;
    use llog_storage::device::{BlobStore, DeviceConfig, MemBlobs, MemStoreDevice, SegLog};
    use llog_storage::Metrics;
    use llog_testkit::SyncGate;
    use llog_wal::DurabilityBackend;

    /// In-memory log blobs whose `sync` goes through a [`SyncGate`].
    #[derive(Debug)]
    struct GatedBlobs {
        inner: MemBlobs,
        gate: Arc<SyncGate>,
    }

    impl BlobStore for GatedBlobs {
        fn put(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
            self.inner.put(name, bytes)
        }
        fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
            self.inner.append(name, bytes)
        }
        fn write_at(&mut self, name: &str, offset: u64, bytes: &[u8]) -> Result<()> {
            self.inner.write_at(name, offset, bytes)
        }
        fn rename(&mut self, from: &str, to: &str) -> Result<()> {
            self.inner.rename(from, to)
        }
        fn get(&self, name: &str) -> Result<Option<Vec<u8>>> {
            self.inner.get(name)
        }
        fn delete(&mut self, name: &str) -> Result<()> {
            self.inner.delete(name)
        }
        fn sync(&mut self) -> Result<()> {
            self.gate.pass().map_err(|f| LlogError::Io {
                point: f.point,
                reason: f.reason,
            })?;
            self.inner.sync()
        }
        fn list(&self) -> Result<Vec<String>> {
            self.inner.list()
        }
    }

    /// A two-shard server whose shard `i` syncs its log device through
    /// gate `i`, plus one object owned by each shard.
    fn gated_server() -> (Server, [Arc<SyncGate>; 2], [ObjectId; 2]) {
        let engine = ShardedEngine::new(
            boot::server_engine_config(2),
            &TransformRegistry::with_builtins(),
        );
        let gates = [Arc::new(SyncGate::default()), Arc::new(SyncGate::default())];
        for (i, gate) in gates.iter().enumerate() {
            let (m, cfg) = (Metrics::new(), DeviceConfig::small());
            let blobs = GatedBlobs {
                inner: MemBlobs::new(),
                gate: gate.clone(),
            };
            let log = SegLog::attach(blobs, m.clone(), &cfg, "gated", Lsn(1)).unwrap();
            let store = MemStoreDevice::mem(m, &cfg);
            engine.attach_backend(i, DurabilityBackend::over(Box::new(log), Box::new(store)));
        }
        let owned_by = |shard| {
            (0..)
                .map(ObjectId)
                .find(|&x| engine.router().shard_of(x) == shard)
                .unwrap()
        };
        let objects = [owned_by(0), owned_by(1)];
        let server = Server::start(engine, ServerConfig::default()).unwrap();
        (server, gates, objects)
    }

    /// Pipeline `reqs` on `c` and return once the server has queued them
    /// all: its reader executes in order, so a trailing `Ping` counted
    /// means everything before it is queued.
    fn pipeline_all(server: &Server, c: &mut Client, reqs: Vec<Request>) -> Vec<u64> {
        let target = server.counters().requests + reqs.len() as u64 + 1;
        let mut ids = Vec::new();
        for mut req in reqs.into_iter().chain([Request::Ping { req_id: 0 }]) {
            let id = c.fresh_req_id();
            match &mut req {
                Request::Put { req_id, .. }
                | Request::Get { req_id, .. }
                | Request::Ping { req_id } => *req_id = id,
                other => panic!("unexpected request {other:?}"),
            }
            c.send(&req).unwrap();
            ids.push(id);
        }
        c.flush_stream().unwrap();
        while server.counters().requests < target {
            std::thread::sleep(Duration::from_millis(1));
        }
        ids
    }

    fn put(object: ObjectId, value: &[u8]) -> Request {
        Request::Put {
            req_id: 0,
            object,
            value: value.to_vec(),
        }
    }

    fn get(object: ObjectId) -> Request {
        Request::Get { req_id: 0, object }
    }

    /// The next response, which must arrive within 5 s.
    fn recv_soon(c: &mut Client) -> Response {
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let resp = c.recv().expect("a ready response arrives").unwrap();
        c.set_read_timeout(None).unwrap();
        resp
    }

    #[test]
    fn a_ready_response_is_not_held_behind_a_parked_ticket() {
        let (server, gates, [x0, x1]) = gated_server();
        let mut c = Client::connect(server.local_addr()).unwrap();
        for gate in &gates {
            gate.set(Some(0));
        }
        // The writer parks on x1's barrier while the reader queues the
        // rest, so it meets the get's value and x0's ticket back to back.
        let ids = pipeline_all(
            &server,
            &mut c,
            vec![put(x1, b"one"), get(x1), put(x0, b"zero")],
        );
        gates[1].set(None);
        assert!(matches!(recv_soon(&mut c), Response::Ack { req_id, .. } if req_id == ids[0]));
        match recv_soon(&mut c) {
            Response::Value { req_id, value } => {
                assert_eq!((req_id, &value[..]), (ids[1], &b"one"[..]))
            }
            other => panic!("expected the value, got {other:?}"),
        }
        gates[0].wait_parked();
        gates[0].set(None);
        assert!(
            matches!(c.recv().unwrap().unwrap(), Response::Ack { req_id, .. } if req_id == ids[2])
        );
        assert!(matches!(c.recv().unwrap().unwrap(), Response::Ok { req_id } if req_id == ids[3]));
        drop(c);
        server.shutdown();
    }

    #[test]
    fn a_ready_response_is_not_held_behind_an_uncovered_session_floor() {
        let (server, gates, [x0, x1]) = gated_server();
        let mut writer = Client::connect(server.local_addr()).unwrap();
        let mut reader = Client::connect(server.local_addr()).unwrap();
        reader.bind_session(9).unwrap();
        // Nothing is pending on shard 0, so a floor just past its watermark
        // stays uncovered until the writer's next put there.
        let floor = Lsn(server.inner.engine.durable_lsn(0).0 + 1);
        server.inner.session_floors(9).note_ack(0, floor);
        gates[1].set(Some(0));
        let ids = pipeline_all(
            &server,
            &mut reader,
            vec![put(x1, b"one"), get(x1), get(x0)],
        );
        gates[1].set(None);
        assert!(matches!(recv_soon(&mut reader), Response::Ack { req_id, .. } if req_id == ids[0]));
        match recv_soon(&mut reader) {
            Response::Value { req_id, value } => {
                assert_eq!((req_id, &value[..]), (ids[1], &b"one"[..]))
            }
            other => panic!("expected the value, got {other:?}"),
        }
        writer.put(x0, b"covers").unwrap();
        match reader.recv().unwrap().unwrap() {
            Response::Value { req_id, value } => {
                assert_eq!((req_id, &value[..]), (ids[2], &b"covers"[..]))
            }
            other => panic!("expected the floored value, got {other:?}"),
        }
        assert!(
            matches!(reader.recv().unwrap().unwrap(), Response::Ok { req_id } if req_id == ids[3])
        );
        drop((writer, reader));
        server.shutdown();
    }

    #[test]
    fn a_failing_log_device_answers_shard_dead_instead_of_hanging() {
        let (server, gates, [x0, x1]) = gated_server();
        let mut c = Client::connect(server.local_addr()).unwrap();
        gates[1].set_failing(true);
        let ids = pipeline_all(&server, &mut c, vec![put(x1, b"one"), put(x0, b"zero")]);
        match recv_soon(&mut c) {
            Response::Err { req_id, code, .. } => {
                assert_eq!((req_id, code), (ids[0], ErrCode::ShardDead))
            }
            other => panic!("expected ShardDead, got {other:?}"),
        }
        assert!(matches!(recv_soon(&mut c), Response::Ack { req_id, .. } if req_id == ids[1]));
        assert!(matches!(recv_soon(&mut c), Response::Ok { req_id } if req_id == ids[2]));
        drop(c);
        server.shutdown();
    }

    #[test]
    fn pipelined_responses_share_socket_writes() {
        const N: u64 = 64;
        let (server, gates, [x0, x1]) = gated_server();
        let mut c = Client::connect(server.local_addr()).unwrap();
        let writes_before = server.counters().response_writes;
        // Hold the first put's barrier until every request is queued, so
        // the writer meets runs of ready responses.
        gates[0].set(Some(0));
        let reqs = (0..N).map(|i| {
            let object = if i % 4 == 0 { x0 } else { x1 };
            if i % 2 == 0 {
                put(object, &[i as u8])
            } else {
                get(object)
            }
        });
        let ids = pipeline_all(&server, &mut c, reqs.collect());
        gates[0].set(None);
        for (i, &id) in ids.iter().enumerate() {
            let req_id = match c.recv().unwrap().unwrap() {
                Response::Ack { req_id, .. } if i % 2 == 0 && i < N as usize => req_id,
                Response::Value { req_id, .. } if i % 2 == 1 => req_id,
                Response::Ok { req_id } if i == N as usize => req_id,
                other => panic!("response {i}: {other:?}"),
            };
            assert_eq!(req_id, id, "in-order completion");
        }
        let writes = server.counters().response_writes - writes_before;
        assert!(
            writes <= N,
            "{} responses took {writes} socket writes",
            N + 1
        );
        drop(c);
        server.shutdown();
    }
}
