//! The warm-standby replica: attach, continuous redo, read-at-watermark
//! service, and promotion (see the crate docs for the protocol rules).
//!
//! ## Threading model
//!
//! - One **poller** thread owns the client connection to the primary. It
//!   round-robins the shards: `Subscribe(shard, stable_end)` →
//!   `SegmentChunk` → [`RedoSession::extend`], reporting each shard's
//!   watermark back with `ReplayedLsn` whenever it advances. A
//!   `SealManifest` answer mid-stream means the replica fell behind a
//!   checkpoint truncation — the shard re-attaches from the fresh image.
//!   A dead primary parks the poller in a reconnect loop; the replica
//!   keeps serving reads at its last watermark.
//! - One **acceptor** thread plus one lock-step handler thread per
//!   connection serve the framed protocol: `Get`/`Stats`/`Ping` always,
//!   `Put` only after promotion (rejected with `ErrCode::Engine` before),
//!   `Promote` exactly once. A standby `Get` is lock-free against replay:
//!   it resolves through the shard's [`ReplicaReader`] (MVCC version
//!   chains at the replayed watermark, DESIGN §15), so reads never queue
//!   behind the poller applying a chunk.
//!
//! ## Promotion
//!
//! `Promote{source_dir}` seals every shard at its watermark and rebuilds
//! a writable [`ShardedEngine`] from the session engines. With a
//! non-empty `source_dir` — the crashed primary's data directory — each
//! shard first catches up from the primary's on-disk log device: the
//! primary stages forced bytes on the device *before* acknowledging
//! (DESIGN §12), so feeding the device log's tail through the
//! session guarantees every acknowledged write is replayed even if the
//! primary was SIGKILLed mid-shipment. A shard whose device log was
//! truncated past the session's stable end (the replica lagged a whole
//! checkpoint) falls back to recovering the device pair wholesale.

use std::io::{Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use llog_core::{recover, Engine, EngineConfig, RedoPolicy, RedoSession, ReplicaReader};
use llog_engine::{GroupCommitSnapshot, ShardRouter, ShardedEngine};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_server::proto::{
    decode_request, encode_response, read_frame, write_frame, ErrCode, Request, Response, StatsBody,
};
use llog_server::Client;
use llog_storage::device::{decode_image, DeviceConfig};
use llog_storage::{Metrics, MetricsSnapshot, StableStore};
use llog_types::{LlogError, Lsn, Result, Value};
use llog_wal::{DurabilityBackend, Wal};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How long the poller sleeps when fully caught up.
const POLL_INTERVAL: Duration = Duration::from_millis(2);
/// How long the poller waits between attempts to reconnect to the primary.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(20);

/// Deployment settings for a [`Replica`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Address to bind the replica's own service socket
    /// (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            addr: "127.0.0.1:0".to_string(),
        }
    }
}

llog_storage::counters! {
    /// The receive side of the primary's `repl_*` metrics.
    struct Received;
    /// Monotonic shipping counters (the receive side of the primary's
    /// `repl_*` metrics).
    pub struct ReplicaCounters;
    /// Non-empty segment chunks received and applied.
    chunks_received: sum,
    /// Stable log bytes received.
    bytes_received: sum,
    /// Times the replica fell behind a truncation and re-attached.
    reattaches: sum,
}

/// The replica's role: a standby replaying shipped log, or a promoted
/// primary serving writes.
enum Role {
    /// One redo session per primary shard, index-aligned.
    Standby(Vec<RedoSession>),
    /// Promotion finished; the engine serves reads and writes.
    Promoted(Box<ShardedEngine>),
    /// Transient placeholder while promotion or shutdown moves the state.
    Draining,
}

/// Lock-free mirrors of [`Role`]'s discriminant (see [`State::role_tag`]).
const TAG_STANDBY: u8 = 0;
const TAG_PROMOTED: u8 = 1;
const TAG_DRAINING: u8 = 2;

struct State {
    role: Mutex<Role>,
    /// `role`'s discriminant, stored (under the role lock) at every
    /// transition. `Get` handlers branch on this instead of locking
    /// `role`, so a standby read never queues behind the poller replaying
    /// a chunk — or behind a promotion in flight, during which reads keep
    /// serving at the sealed watermark.
    role_tag: AtomicU8,
    /// One lock-free reader per shard ([`ReplicaReader`]: MVCC version
    /// chains + the replayed-watermark cell), index-aligned with the
    /// standby sessions and refreshed when a shard re-attaches. The lock
    /// guards only the `Vec` — it is held for a clone, never across a
    /// replay or a read. Lock order where both are taken: `role`, then
    /// `readers`.
    readers: Mutex<Vec<ReplicaReader>>,
    router: ShardRouter,
    registry: TransformRegistry,
    primary: String,
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
    received: Received,
}

/// A warm-standby replica of one primary server (see the module docs).
pub struct Replica {
    state: Arc<State>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl Replica {
    /// Attach to the primary at `primary_addr` (every shard's manifest +
    /// log prefix is pulled and recovered synchronously — when this
    /// returns, the replica serves consistent reads), then start the
    /// poller and the service socket.
    pub fn start(
        primary_addr: &str,
        registry: TransformRegistry,
        config: ReplicaConfig,
    ) -> Result<Replica> {
        let mut client = Client::connect(primary_addr)?;
        // Shard 0's manifest tells us the fleet size.
        let first = attach_shard(&mut client, 0, &registry)?;
        let shards = first.1;
        let mut sessions = vec![first.0];
        for i in 1..shards {
            sessions.push(attach_shard(&mut client, i as u32, &registry)?.0);
        }

        let listener = TcpListener::bind(&config.addr).map_err(|e| LlogError::Io {
            point: "replica bind".into(),
            reason: e.to_string(),
        })?;
        let addr = listener.local_addr().map_err(|e| LlogError::Io {
            point: "replica local_addr".into(),
            reason: e.to_string(),
        })?;

        let readers = sessions.iter().map(RedoSession::reader).collect();
        let state = Arc::new(State {
            role: Mutex::new(Role::Standby(sessions)),
            role_tag: AtomicU8::new(TAG_STANDBY),
            readers: Mutex::new(readers),
            router: ShardRouter::new(shards),
            registry,
            primary: primary_addr.to_string(),
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            received: Received::default(),
        });

        let mut threads = Vec::new();
        {
            let state = state.clone();
            threads.push(std::thread::spawn(move || poller_loop(&state, client)));
        }
        {
            let state = state.clone();
            threads.push(std::thread::spawn(move || acceptor_loop(&state, listener)));
        }
        Ok(Replica {
            state,
            addr,
            threads,
        })
    }

    /// The address the replica's service socket is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Has a client asked this replica to shut down (`Request::Shutdown`)?
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Shipping counters.
    pub fn counters(&self) -> ReplicaCounters {
        self.state.received.snapshot()
    }

    /// Per-shard replayed-LSN watermarks (promoted replicas report their
    /// durable watermarks instead).
    pub fn watermarks(&self) -> Vec<Lsn> {
        match &*lock(&self.state.role) {
            Role::Standby(sessions) => sessions.iter().map(|s| s.watermark()).collect(),
            Role::Promoted(engine) => (0..engine.shards())
                .map(|i| engine.durable_lsn(i))
                .collect(),
            Role::Draining => Vec::new(),
        }
    }

    /// Stop the replica: poller and acceptor exit, every connection
    /// handler winds down, and a promoted engine is shut down cleanly.
    pub fn stop(mut self) -> Result<()> {
        self.state.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        let role = {
            let mut g = lock(&self.state.role);
            self.state.role_tag.store(TAG_DRAINING, Ordering::SeqCst);
            std::mem::replace(&mut *g, Role::Draining)
        };
        if let Role::Promoted(engine) = role {
            engine.shutdown()?;
        }
        Ok(())
    }
}

/// Pull one shard's attach image and log prefix, and start its redo
/// session. Returns the session and the primary's shard count.
fn attach_shard(
    client: &mut Client,
    shard: u32,
    registry: &TransformRegistry,
) -> Result<(RedoSession, usize)> {
    // A truncation can race the prefix fetch; each retry starts from a
    // fresh manifest, and the log can only be truncated finitely often
    // while we fetch a finite prefix, so a small budget suffices.
    'attempt: for _ in 0..8 {
        let (shards, base, durable, master, mut store_image, store_total) =
            match client.subscribe(shard, Lsn::ZERO)? {
                Response::SealManifest {
                    shards,
                    base,
                    durable,
                    master,
                    store_total,
                    store,
                    ..
                } => (shards, base, durable, master, store, store_total),
                other => {
                    return Err(LlogError::CacheProtocol(format!(
                        "expected seal manifest for attach, got {other:?}"
                    )))
                }
            };
        // A store image bigger than one frame arrives in chunks, all
        // served from the same capture. The address check is pure
        // defence: a mismatch means the primary's capture changed
        // underneath us, so the assembled image would be garbage —
        // restart the attach.
        while (store_image.len() as u64) < store_total {
            match client.fetch_store(shard, store_image.len() as u64)? {
                Response::SealManifest {
                    base: b,
                    durable: d,
                    store_off,
                    store,
                    ..
                } => {
                    if b != base || d != durable || store_off != store_image.len() as u64 {
                        continue 'attempt;
                    }
                    store_image.extend_from_slice(&store);
                }
                other => {
                    return Err(LlogError::CacheProtocol(format!(
                        "expected seal manifest store chunk, got {other:?}"
                    )))
                }
            }
        }
        let metrics = Metrics::new();
        let mut store = StableStore::new(metrics.clone());
        store.restore(decode_image(&store_image)?);
        let mut wal = Wal::from_shipped(metrics, base.0, (master != Lsn::ZERO).then_some(master));
        let mut at = base;
        let mut truncated = false;
        while at < durable {
            match client.subscribe(shard, at)? {
                Response::SegmentChunk { at: got, bytes, .. } => {
                    if bytes.is_empty() {
                        break; // durable regressed (can't happen) — be safe
                    }
                    at = wal.extend_stable(got, &bytes)?;
                }
                Response::SealManifest { .. } => {
                    truncated = true; // fell behind a truncation: re-attach
                    break;
                }
                other => {
                    return Err(LlogError::CacheProtocol(format!(
                        "expected segment chunk, got {other:?}"
                    )))
                }
            }
        }
        if truncated {
            continue;
        }
        let (session, _outcome) = RedoSession::begin(
            store,
            wal,
            registry.clone(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )?;
        return Ok((session, shards as usize));
    }
    Err(LlogError::Unexplainable(format!(
        "shard {shard}: attach kept racing log truncation"
    )))
}

/// The shipping loop: poll every shard, extend its session, report
/// watermarks, re-attach shards that fell behind truncation, and survive
/// primary restarts with a reconnect loop.
fn poller_loop(state: &Arc<State>, mut client: Client) {
    let mut reported: Vec<Lsn> = Vec::new();
    'outer: while !state.stop.load(Ordering::SeqCst) {
        let shards = {
            match &*lock(&state.role) {
                Role::Standby(sessions) => sessions.len(),
                _ => return, // promoted (or stopping): shipping is over
            }
        };
        if reported.len() != shards {
            reported = vec![Lsn::ZERO; shards];
        }
        let mut progressed = false;
        for i in 0..shards {
            let from = {
                match &*lock(&state.role) {
                    Role::Standby(sessions) => sessions[i].stable_end(),
                    _ => return,
                }
            };
            let resp = match client.subscribe(i as u32, from) {
                Ok(resp) => resp,
                Err(_) => {
                    // Primary unreachable: keep serving reads, retry.
                    match reconnect(state) {
                        Some(c) => {
                            client = c;
                            continue 'outer;
                        }
                        None => return,
                    }
                }
            };
            match resp {
                Response::SegmentChunk { at, bytes, .. } if !bytes.is_empty() => {
                    let received = &state.received;
                    received.chunks_received.fetch_add(1, Ordering::Relaxed);
                    received
                        .bytes_received
                        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    let extended = {
                        let mut g = lock(&state.role);
                        let Role::Standby(sessions) = &mut *g else {
                            return;
                        };
                        sessions[i].extend(at, &bytes)
                    };
                    match extended {
                        Ok(_) => progressed = true,
                        // A gap means this shard re-attached between our
                        // poll and now — impossible single-threaded, but
                        // a refetch next round heals it regardless.
                        Err(LlogError::LsnOutOfRange { .. }) => {}
                        // Replay failed mid-batch: the session's state
                        // may no longer match its watermark (a record
                        // can fail after mutating), so continuing would
                        // re-apply non-idempotent records and silently
                        // diverge. Rebuild the shard from a fresh
                        // manifest instead.
                        Err(_) => {
                            state.received.reattaches.fetch_add(1, Ordering::Relaxed);
                            if let Ok((session, _)) =
                                attach_shard(&mut client, i as u32, &state.registry)
                            {
                                let mut g = lock(&state.role);
                                let Role::Standby(sessions) = &mut *g else {
                                    return;
                                };
                                lock(&state.readers)[i] = session.reader();
                                sessions[i] = session;
                                reported[i] = Lsn::ZERO;
                                progressed = true;
                            }
                        }
                    }
                }
                Response::SealManifest { .. } => {
                    // Fell behind a checkpoint truncation: rebuild this
                    // shard's session from a fresh manifest.
                    state.received.reattaches.fetch_add(1, Ordering::Relaxed);
                    match attach_shard(&mut client, i as u32, &state.registry) {
                        Ok((session, _)) => {
                            let mut g = lock(&state.role);
                            let Role::Standby(sessions) = &mut *g else {
                                return;
                            };
                            lock(&state.readers)[i] = session.reader();
                            sessions[i] = session;
                            progressed = true;
                        }
                        Err(_) => continue,
                    }
                }
                _ => {}
            }
            let wm = {
                match &*lock(&state.role) {
                    Role::Standby(sessions) => sessions[i].watermark(),
                    _ => return,
                }
            };
            if wm > reported[i] && client.report_replayed(i as u32, wm).is_ok() {
                reported[i] = wm;
            }
        }
        if !progressed {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Reconnect to the primary with backoff until it answers, the replica
/// stops, or promotion ends shipping. `None` means stop polling.
fn reconnect(state: &Arc<State>) -> Option<Client> {
    loop {
        if state.stop.load(Ordering::SeqCst) {
            return None;
        }
        if !matches!(&*lock(&state.role), Role::Standby(_)) {
            return None;
        }
        if let Ok(c) = Client::connect(&state.primary) {
            return Some(c);
        }
        std::thread::sleep(RECONNECT_BACKOFF);
    }
}

fn acceptor_loop(state: &Arc<State>, listener: TcpListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => break,
        };
        if state.stop.load(Ordering::SeqCst) {
            let _ = stream.shutdown(NetShutdown::Both);
            break;
        }
        let _ = stream.set_nodelay(true);
        // Handlers poll this timeout so a stop can reclaim idle
        // connections.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        let state = state.clone();
        conns.push(std::thread::spawn(move || handle_conn(&state, stream)));
    }
    for h in conns {
        let _ = h.join();
    }
}

/// `Read` adapter that retries timeouts while the replica is live and
/// reports a clean EOF once it stops — so `read_frame` blocks patiently
/// on idle connections yet winds down promptly at shutdown.
struct PatientStream<'a> {
    stream: &'a TcpStream,
    stop: &'a AtomicBool,
}

impl Read for PatientStream<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match (&mut &*self.stream).read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.stop.load(Ordering::SeqCst) {
                        return Ok(0);
                    }
                }
                other => return other,
            }
        }
    }
}

/// Lock-step connection handler: one request, one response, until EOF,
/// a protocol violation, or replica stop.
fn handle_conn(state: &Arc<State>, stream: TcpStream) {
    let mut reader = PatientStream {
        stream: &stream,
        stop: &state.stop,
    };
    let mut writer = &stream;
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let req = match decode_request(&payload) {
            Ok(req) => req,
            Err(_) => break, // unsynchronized stream: close it
        };
        let resp = respond(state, req);
        if write_frame(&mut writer, &encode_response(&resp)).is_err() {
            break;
        }
        if writer.flush().is_err() {
            break;
        }
    }
    let _ = stream.shutdown(NetShutdown::Both);
}

fn respond(state: &Arc<State>, req: Request) -> Response {
    match req {
        Request::Ping { req_id } => Response::Ok { req_id },
        Request::Shutdown { req_id } => {
            state.shutdown_requested.store(true, Ordering::SeqCst);
            Response::Ok { req_id }
        }
        // Reads branch on the lock-free role tag, not the role lock: a
        // standby read clones its shard's [`ReplicaReader`] and resolves
        // through the MVCC chains at the replayed watermark, so it never
        // waits out the poller replaying a chunk. While a promotion is in
        // flight (role already `Draining`, tag still standby) reads keep
        // serving at the sealed watermark — the tag flips to promoted
        // before any `Put` can be accepted, so no acknowledged write is
        // ever invisible to a later read.
        Request::Get { req_id, object } => match state.role_tag.load(Ordering::SeqCst) {
            TAG_STANDBY => {
                let reader = lock(&state.readers)[state.router.shard_of(object)].clone();
                Response::Value {
                    req_id,
                    value: reader.read(object).as_bytes().to_vec(),
                }
            }
            TAG_PROMOTED => match &*lock(&state.role) {
                Role::Promoted(engine) => match engine.read_value_snapshot(object) {
                    Ok(v) => Response::Value {
                        req_id,
                        value: v.as_bytes().to_vec(),
                    },
                    Err(e) => err(req_id, ErrCode::Engine, e.to_string()),
                },
                _ => err(req_id, ErrCode::Stopping, "replica is stopping".into()),
            },
            _ => err(req_id, ErrCode::Stopping, "replica is stopping".into()),
        },
        Request::Put {
            req_id,
            object,
            value,
        } => match &mut *lock(&state.role) {
            Role::Standby(_) => err(
                req_id,
                ErrCode::Engine,
                "replica is read-only until promoted".into(),
            ),
            Role::Promoted(engine) => {
                let transform = Transform::new(
                    builtin::CONST,
                    builtin::encode_values(&[Value::from(value.as_slice())]),
                );
                match engine.execute(OpKind::Physical, vec![], vec![object], transform) {
                    // Every barrier ends in an ack or the shard's death.
                    Ok(ticket) if ticket.wait() => Response::Ack {
                        req_id,
                        lsn: ticket.lsn(),
                    },
                    Ok(_) => err(
                        req_id,
                        ErrCode::ShardDead,
                        "shard died before durability".into(),
                    ),
                    Err(e) => err(req_id, ErrCode::Engine, e.to_string()),
                }
            }
            Role::Draining => err(req_id, ErrCode::Stopping, "replica is stopping".into()),
        },
        Request::Flush { req_id } => match &mut *lock(&state.role) {
            // Nothing of the standby's is volatile: replayed state is
            // backed by shipped stable bytes.
            Role::Standby(_) => Response::Ok { req_id },
            Role::Promoted(engine) => match engine.force_all() {
                Ok(()) => Response::Ok { req_id },
                Err(e) => err(req_id, ErrCode::ShardDead, e.to_string()),
            },
            Role::Draining => err(req_id, ErrCode::Stopping, "replica is stopping".into()),
        },
        Request::Stats { req_id } => Response::Stats {
            req_id,
            body: Box::new(stats_body(state)),
        },
        Request::Promote { req_id, source_dir } => match promote(state, &source_dir) {
            Ok(()) => Response::Ok { req_id },
            Err(e) => err(req_id, ErrCode::Engine, e.to_string()),
        },
        // Session floors are a primary-side feature: a standby's reads
        // already resolve at its replayed watermark and it accepts no
        // puts, so there is no floor to track. Acknowledge and ignore.
        Request::Session { req_id, .. } => Response::Ok { req_id },
        Request::Subscribe { req_id, .. }
        | Request::FetchStore { req_id, .. }
        | Request::ReplayedLsn { req_id, .. } => err(
            req_id,
            ErrCode::Engine,
            "replicas do not ship their log (no cascading replication)".into(),
        ),
    }
}

fn err(req_id: u64, code: ErrCode, message: String) -> Response {
    Response::Err {
        req_id,
        code,
        message,
    }
}

/// A standby reports its redo sessions' ledgers merged; a promoted replica
/// its engine's. Either way the four `repl_*` counters are the replica's
/// own: what it received, and how far it has replayed.
fn stats_body(state: &Arc<State>) -> StatsBody {
    let received = state.received.snapshot();
    let (mut body, lag_frames, watermark) = match &*lock(&state.role) {
        Role::Standby(sessions) => (
            StatsBody {
                shards: sessions.len() as u32,
                group_commit: GroupCommitSnapshot::default(),
                aggregate: sessions.iter().fold(MetricsSnapshot::default(), |acc, s| {
                    acc.merged(&s.engine().metrics().snapshot())
                }),
            },
            // Frames held above the watermark (a partial tail frame
            // awaiting completion counts zero).
            sessions
                .iter()
                .map(|s| s.engine().wal().frames_from(s.watermark()))
                .sum(),
            sessions.iter().map(|s| s.watermark().0).max().unwrap_or(0),
        ),
        Role::Promoted(engine) => {
            let snap = engine.metrics_snapshot();
            let durable = (0..engine.shards()).map(|i| engine.durable_lsn(i).0);
            (
                StatsBody {
                    shards: snap.shards as u32,
                    group_commit: snap.group_commit,
                    aggregate: snap.aggregate,
                },
                0,
                durable.max().unwrap_or(0),
            )
        }
        Role::Draining => return StatsBody::default(),
    };
    let a = &mut body.aggregate;
    a.repl_segments_shipped = received.chunks_received;
    a.repl_bytes_shipped = received.bytes_received;
    a.repl_replay_lag_frames = lag_frames;
    a.repl_watermark_lsn = watermark;
    body
}

/// Promote this replica to primary (module docs: catch-up rules).
fn promote(state: &Arc<State>, source_dir: &str) -> Result<()> {
    let mut g = lock(&state.role);
    let Role::Standby(_) = &*g else {
        return Err(LlogError::CacheProtocol(
            "replica is not a standby (already promoted or stopping)".into(),
        ));
    };
    let Role::Standby(sessions) = std::mem::replace(&mut *g, Role::Draining) else {
        unreachable!("matched Standby above");
    };
    match promote_sessions(sessions, source_dir, &state.registry) {
        Ok(engine) => {
            *g = Role::Promoted(Box::new(engine));
            // Tag stores happen under the role lock: a `Put` can only be
            // accepted after this lock releases, so the promoted tag is
            // visible to reads before any post-promotion write exists.
            state.role_tag.store(TAG_PROMOTED, Ordering::SeqCst);
            Ok(())
        }
        Err(e) => {
            // Role stays Draining: state is torn, refuse work.
            state.role_tag.store(TAG_DRAINING, Ordering::SeqCst);
            Err(e)
        }
    }
}

fn promote_sessions(
    sessions: Vec<RedoSession>,
    source_dir: &str,
    registry: &TransformRegistry,
) -> Result<ShardedEngine> {
    let shards = sessions.len();
    let mut engines = Vec::with_capacity(shards);
    for (i, mut session) in sessions.into_iter().enumerate() {
        if !source_dir.is_empty() {
            match device_catch_up(&mut session, Path::new(source_dir), i, registry)? {
                CatchUp::Fed => {}
                CatchUp::Replaced(engine) => {
                    engines.push(*engine);
                    continue;
                }
            }
        }
        engines.push(session.promote()?);
    }
    // The same configuration a booted primary serves with.
    Ok(ShardedEngine::from_engines(
        llog_server::boot::server_engine_config(shards),
        engines,
    ))
}

enum CatchUp {
    /// The session absorbed the device log's tail (or there was nothing
    /// to absorb); promote it normally.
    Fed,
    /// The device log was truncated past the session — the shard was
    /// recovered wholesale from the device pair instead.
    Replaced(Box<Engine>),
}

/// Feed the crashed primary's on-disk log tail for shard `i` through the
/// session. The primary persists forced bytes before acknowledging, so
/// after this every acknowledged write is replayed.
fn device_catch_up(
    session: &mut RedoSession,
    source_dir: &Path,
    shard: usize,
    registry: &TransformRegistry,
) -> Result<CatchUp> {
    let dir = source_dir.join(format!("shard-{shard}"));
    if !dir.is_dir() {
        return Ok(CatchUp::Fed); // no device state for this shard
    }
    let backend = DurabilityBackend::file(&dir, Metrics::new(), &DeviceConfig::default())?;
    let Some((dstore, dwal)) = backend.load(Metrics::new())? else {
        return Ok(CatchUp::Fed); // never persisted
    };
    let end = session.stable_end();
    if dwal.start_lsn() > end {
        // The device log no longer reaches back to the session: recover
        // the device pair wholesale (it is self-sufficient by the
        // checkpoint-before-truncate discipline).
        let (engine, _) = recover(
            dstore,
            dwal,
            registry.clone(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )?;
        return Ok(CatchUp::Replaced(Box::new(engine)));
    }
    if dwal.forced_lsn() > end {
        let bytes = dwal.ship_tail(end, usize::MAX)?.to_vec();
        session.extend(end, &bytes)?;
    }
    Ok(CatchUp::Fed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_server::{boot, Server, ServerConfig};
    use llog_types::ObjectId;

    fn start_primary(shards: usize) -> Server {
        let registry = TransformRegistry::with_builtins();
        let engine = ShardedEngine::new(boot::server_engine_config(shards), &registry);
        Server::start(engine, ServerConfig::default()).unwrap()
    }

    /// Each named counter of `wire` lies between its values in `before`
    /// and `after`, two direct reads taken around the Stats request.
    fn assert_bracketed(
        names: &[&str],
        before: &MetricsSnapshot,
        wire: &MetricsSnapshot,
        after: &MetricsSnapshot,
    ) {
        for name in names {
            let i = MetricsSnapshot::COUNTERS
                .iter()
                .position(|(n, _)| n == name)
                .unwrap();
            let (b, w, a) = (
                before.fields()[i].1,
                wire.fields()[i].1,
                after.fields()[i].1,
            );
            assert!(b.min(a) <= w && w <= b.max(a), "{name}: {b} <= {w} <= {a}");
        }
    }

    fn wait_watermarks(replica: &Replica, want: &[Lsn]) {
        for _ in 0..2000 {
            let got = replica.watermarks();
            if got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g >= w) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!(
            "replica never caught up: at {:?}, want {:?}",
            replica.watermarks(),
            want
        );
    }

    #[test]
    fn replica_tracks_live_load_and_serves_reads() {
        let server = start_primary(2);
        let addr = server.local_addr().to_string();
        let mut c = Client::connect(&addr).unwrap();
        for i in 0..16u64 {
            c.put(ObjectId(i), format!("pre-{i}").as_bytes()).unwrap();
        }

        let replica = Replica::start(
            &addr,
            TransformRegistry::with_builtins(),
            ReplicaConfig::default(),
        )
        .unwrap();
        for i in 16..32u64 {
            c.put(ObjectId(i), format!("live-{i}").as_bytes()).unwrap();
        }
        // Every put above is durable (acked); the replica must reach every
        // shard's durable watermark.
        let mut want = Vec::new();
        {
            let mut s = Client::connect(&addr).unwrap();
            let stats = s.stats().unwrap();
            assert_eq!(stats.shards, 2);
        }
        // Durable watermarks aren't visible through the protocol; poll the
        // replica until all 32 values read back instead.
        want.resize(2, Lsn::ZERO);
        wait_watermarks(&replica, &want);
        let raddr = replica.local_addr().to_string();
        let mut rc = Client::connect(&raddr).unwrap();
        for _ in 0..2000 {
            if rc.get(ObjectId(31)).unwrap() == b"live-31".to_vec() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for i in 0..32u64 {
            let want = if i < 16 {
                format!("pre-{i}")
            } else {
                format!("live-{i}")
            };
            assert_eq!(
                rc.get(ObjectId(i)).unwrap(),
                want.as_bytes().to_vec(),
                "object {i}"
            );
        }
        // Replica rejects writes pre-promotion.
        assert!(rc.put(ObjectId(99), b"nope").is_err());
        // Primary's shipping metrics moved.
        let stats = c.stats().unwrap();
        assert!(stats.aggregate.repl_segments_shipped > 0);
        assert!(stats.aggregate.repl_bytes_shipped > 0);

        // A standby's Stats carries its sessions' ledgers merged, plus its
        // own `repl_*` counters. The wire values are bracketed by direct
        // reads taken before and after the request.
        let merged_sessions = || match &*lock(&replica.state.role) {
            Role::Standby(sessions) => {
                sessions.iter().fold(MetricsSnapshot::default(), |acc, s| {
                    acc.merged(&s.engine().metrics().snapshot())
                })
            }
            _ => panic!("the replica is still a standby"),
        };
        let before = merged_sessions();
        let rstats = rc.stats().unwrap();
        let after = merged_sessions();
        assert_eq!(rstats.shards, 2);
        assert_eq!(rstats.group_commit, GroupCommitSnapshot::default());
        let standby = [
            "reads_snapshot",
            "versions_retained",
            "versions_gced",
            "snapshot_oldest_si",
            "rw_nodes_visited",
        ];
        assert_bracketed(&standby, &before, &rstats.aggregate, &after);
        assert!(
            rstats.aggregate.reads_snapshot >= 32,
            "the standby served 32+ reads"
        );
        assert!(
            rstats.aggregate.versions_retained >= 32,
            "every object has a version"
        );
        let received = replica.counters();
        assert!(rstats.aggregate.repl_segments_shipped > 0);
        assert!(rstats.aggregate.repl_segments_shipped <= received.chunks_received);
        assert!(rstats.aggregate.repl_bytes_shipped <= received.bytes_received);
        assert!(rstats.aggregate.repl_watermark_lsn > 0);
        let watermarks = replica.watermarks();
        assert!(watermarks
            .iter()
            .any(|w| w.0 == rstats.aggregate.repl_watermark_lsn));

        replica.stop().unwrap();
        server.shutdown();
    }

    #[test]
    fn promotion_after_primary_death_serves_acked_writes_and_accepts_new_ones() {
        let server = start_primary(2);
        let addr = server.local_addr().to_string();
        let replica = Replica::start(
            &addr,
            TransformRegistry::with_builtins(),
            ReplicaConfig::default(),
        )
        .unwrap();

        let mut c = Client::connect(&addr).unwrap();
        let mut acked = Vec::new();
        for i in 0..24u64 {
            c.put(ObjectId(i), format!("v-{i}").as_bytes()).unwrap();
            acked.push(i);
        }
        // Let the replica drain everything acked, then kill the primary
        // abruptly (abort: no graceful drain, connections die).
        let raddr = replica.local_addr().to_string();
        let mut rc = Client::connect(&raddr).unwrap();
        for _ in 0..2000 {
            if rc.get(ObjectId(23)).unwrap() == b"v-23".to_vec() {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        server.abort();

        rc.promote("").unwrap();
        // Every acked write survives on the promoted replica.
        for &i in &acked {
            assert_eq!(
                rc.get(ObjectId(i)).unwrap(),
                format!("v-{i}").into_bytes(),
                "acked object {i} lost by failover"
            );
        }
        // And it now accepts writes.
        let lsn = rc.put(ObjectId(1000), b"post-failover").unwrap();
        assert!(lsn > Lsn::ZERO);
        assert_eq!(rc.get(ObjectId(1000)).unwrap(), b"post-failover".to_vec());
        // That ack rode the force barrier (which bumps the overlap counter
        // once per barrier), like a booted primary's: which force code
        // acks a put does not depend on how the node became primary.
        let promoted = || {
            let role = lock(&replica.state.role);
            let Role::Promoted(engine) = &*role else {
                panic!("promotion must leave the replica promoted");
            };
            let durable = (0..engine.shards()).map(|i| engine.durable_lsn(i).0).max();
            (engine.metrics_snapshot(), durable.unwrap_or(0))
        };
        let (before, _) = promoted();
        assert!(
            before.aggregate.double_buffer_overlap_ns > 0,
            "ack bypassed the barrier"
        );
        // A promoted replica's Stats carries the engine's aggregate and
        // group-commit counters; its `repl_*` counters stay its own.
        let rstats = rc.stats().unwrap();
        let (after, durable) = promoted();
        let engine_counters = [
            "log_records",
            "log_bytes",
            "io_fsyncs",
            "double_buffer_overlap_ns",
            "reads_snapshot",
            "redo_ops",
        ];
        assert_bracketed(
            &engine_counters,
            &before.aggregate,
            &rstats.aggregate,
            &after.aggregate,
        );
        assert!(rstats.aggregate.log_bytes > 0 && rstats.aggregate.reads_snapshot > 0);
        let waits = (
            before.group_commit.waits,
            rstats.group_commit.waits,
            after.group_commit.waits,
        );
        assert!(
            waits.0 <= waits.1 && waits.1 <= waits.2 && waits.1 > 0,
            "{waits:?}"
        );
        assert_eq!(rstats.aggregate.repl_replay_lag_frames, 0);
        assert_eq!(rstats.aggregate.repl_watermark_lsn, durable);
        assert_eq!(
            rstats.aggregate.repl_bytes_shipped,
            replica.counters().bytes_received
        );
        // A second promote is refused.
        assert!(rc.promote("").is_err());
        replica.stop().unwrap();
    }

    /// Attaching against a backlog several times larger than
    /// `SHIP_CHUNK_MAX` forces every prefix chunk to end mid-frame; the
    /// attach must still make progress chunk by chunk (the durable cut
    /// may never be derived from the mid-frame cursor) and converge on
    /// every acked value.
    #[test]
    fn attach_ships_multi_chunk_backlog_without_stalling() {
        let server = start_primary(1);
        let addr = server.local_addr().to_string();
        let mut c = Client::connect(&addr).unwrap();
        // ~600 KiB of acked, durable backlog before the replica exists.
        for i in 0..300u64 {
            c.put(ObjectId(i), &vec![(i % 251) as u8; 2048]).unwrap();
        }
        // Replica::start attaches synchronously: when it returns, the
        // whole durable prefix is replayed.
        let replica = Replica::start(
            &addr,
            TransformRegistry::with_builtins(),
            ReplicaConfig::default(),
        )
        .unwrap();
        let mut rc = Client::connect(replica.local_addr().to_string()).unwrap();
        for i in 0..300u64 {
            assert_eq!(
                rc.get(ObjectId(i)).unwrap(),
                vec![(i % 251) as u8; 2048],
                "object {i}"
            );
        }
        replica.stop().unwrap();
        server.shutdown();
    }

    /// A checkpointed store image bigger than one protocol frame arrives
    /// as a chunked manifest (`FetchStore`), and the replica reassembles
    /// it into a consistent attach.
    #[test]
    fn attach_assembles_multi_chunk_store_image() {
        use llog_server::proto::MAX_FRAME;

        let registry = TransformRegistry::with_builtins();
        let engine = ShardedEngine::new(boot::server_engine_config(1), &registry);
        // ~1.5 MiB of installed, checkpointed state: the attach image
        // cannot fit a single frame.
        for i in 0..24u64 {
            engine
                .execute(
                    OpKind::Physical,
                    vec![],
                    vec![ObjectId(i)],
                    Transform::new(
                        builtin::CONST,
                        builtin::encode_values(&[Value::from(vec![i as u8; 64 << 10])]),
                    ),
                )
                .unwrap()
                .wait();
        }
        engine.install_all().unwrap();
        engine.checkpoint_all(true).unwrap();
        let server = Server::start(engine, ServerConfig::default()).unwrap();
        let addr = server.local_addr().to_string();

        // Raw protocol: the first manifest chunk declares a total bigger
        // than one frame and carries only a prefix of the image.
        let mut c = Client::connect(&addr).unwrap();
        match c.subscribe(0, Lsn::ZERO).unwrap() {
            Response::SealManifest {
                store_off,
                store_total,
                store,
                ..
            } => {
                assert_eq!(store_off, 0);
                assert!(
                    store_total > MAX_FRAME as u64,
                    "store image too small to exercise chunking: {store_total}"
                );
                assert!((store.len() as u64) < store_total);
            }
            other => panic!("expected seal manifest, got {other:?}"),
        }

        let replica = Replica::start(
            &addr,
            TransformRegistry::with_builtins(),
            ReplicaConfig::default(),
        )
        .unwrap();
        let mut rc = Client::connect(replica.local_addr().to_string()).unwrap();
        for i in 0..24u64 {
            assert_eq!(
                rc.get(ObjectId(i)).unwrap(),
                vec![i as u8; 64 << 10],
                "object {i}"
            );
        }
        replica.stop().unwrap();
        server.shutdown();
    }
}
