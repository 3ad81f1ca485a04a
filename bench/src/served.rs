//! The two served workloads: a real `llog-server` on loopback, opened
//! exactly as `llogtool serve` opens it, driven closed-loop by two client
//! connections from this process.
//!
//! Every run has the same five phases: **setup** (fresh directory →
//! bulk load acked) → **lockstep** (one op in flight per connection) →
//! **pipelined** (16 in flight per connection) → **crash cycles** (kill,
//! restart, first durable ack, ×9) → **verify** (every key read back
//! against the model). Phases are sized by op count, never by time: a
//! faster write path must not leave a longer log to recover.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use llog_core::{RecoveryOutcome, RedoPolicy};
use llog_engine::{recover_sharded, ShardedEngine, ShardedSnapshot};
use llog_ops::TransformRegistry;
use llog_server::boot::{existing_shards, open_served, server_engine_config};
use llog_server::{Client, Request, Response, Server, ServerConfig, ServerCounters};
use llog_storage::device::DeviceConfig;
use llog_storage::{Metrics, MetricsSnapshot, StableStore};
use llog_testkit::TestRng;
use llog_types::{LlogError, ObjectId, Result};
use llog_wal::{DurabilityBackend, Wal};

use crate::gen::{requests, value_of, version_in, KeyDist, Lane, Op};
use crate::report::{EndToEnd, Report};
use crate::stats::{in_even_segment, p50, CYCLES, SLICES};
use crate::trace::{Tracer, NONE};
use crate::{dir_bytes, Env};

/// Client connections (= client threads). The reference box has 2 cores.
pub const CONNS: usize = 2;
/// Shards the server is opened with (`llogtool serve <dir> 2`).
pub const SHARDS: usize = 2;
/// Requests each connection keeps in flight in the pipelined phase.
pub const WINDOW: usize = 16;
/// In-flight window of bulk loads and read-backs (not timed per op).
const BULK_WINDOW: usize = 64;
/// `llogtool serve`'s checkpoint interval.
const CHECKPOINT_EVERY: Duration = Duration::from_millis(500);
/// Puts per connection in each small burst that walks the store devices to
/// their next fold (see the crash cycles).
const FOLD_PUTS: usize = 64;
/// Checkpoints between two folds of a store device
/// (`DeviceConfig::default().compact_chain`, which `open_served` uses).
const FOLD_ROUNDS: usize = 16;
/// Keys read back after each restart: the last acked puts of every
/// connection (the log tail at the kill) plus as many random keys.
const RESTART_SAMPLE: usize = 512;

/// TODO(engine: a kill between checkpoints loses acked writes): a shard's
/// installer moves values into the in-memory `StableStore` and logs
/// `Install` records; `persist_on_force` makes those records device-durable
/// with the next ack, but the store *device* only receives the values at
/// the next checkpoint, and recovery trusts the records. `llogtool serve`,
/// `kill -9`, `llogtool check` loses ≈ 5 % of 20 000 acked puts the same
/// way (README.md, "Known defect"), and a benchmark whose operations fail
/// measures nothing. Until the engine writes installs through, the kill
/// does it on the engine's behalf: `persist_all()` copies the stable
/// store's dirty objects to the store device and nothing else — no
/// install, no checkpoint record, no log truncation; the log device
/// already holds its forced prefix. Delete this constant and its one use
/// with the engine fix; `engine.acks_lost_at_kill` (traced run) is the
/// same kill without it and must then read 0.
const STORE_WRITE_THROUGH_AT_KILL: bool = true;

/// One served workload. Counts are per connection at the reference run
/// length ([`crate::REF_SECONDS`]); see README.md for the calibration.
#[derive(Debug, Clone, Copy)]
pub struct ServedSpec {
    pub name: &'static str,
    pub value_len: usize,
    /// The bulk load writes every key once.
    pub keys_per_conn: usize,
    pub lockstep: usize,
    pub pipelined: usize,
    pub put_pct: u32,
    pub dist: KeyDist,
    /// Pipelined puts per connection between a checkpoint and each kill:
    /// the redo tail a restart faces.
    pub burst: usize,
}

pub const SERVED_PUT: ServedSpec = ServedSpec {
    name: "served_put",
    value_len: 128,
    keys_per_conn: 36_000,
    lockstep: 6_600,
    pipelined: 92_000,
    put_pct: 100,
    dist: KeyDist::Uniform,
    burst: 8_000,
};

pub const SERVED_READ_HEAVY: ServedSpec = ServedSpec {
    name: "served_read_heavy",
    value_len: 128,
    keys_per_conn: 36_000,
    lockstep: 54_000,
    pipelined: 200_000,
    put_pct: 10,
    dist: KeyDist::Hot80_10,
    burst: 8_000,
};

fn io_err(point: &str, e: impl ToString) -> LlogError {
    LlogError::Io {
        point: point.into(),
        reason: e.to_string(),
    }
}

/// How long one restart took, stage by stage.
#[derive(Debug, Default, Clone)]
pub struct BootTimes {
    /// `open_served` as a whole (production boot), ns.
    pub open_ns: u64,
    /// By-hand boot only: devices opened and loaded, ns.
    pub load_ns: u64,
    /// By-hand boot only: of `load_ns`, the store devices.
    pub store_load_ns: u64,
    /// By-hand boot only: of `load_ns`, the log devices into `Wal`s.
    pub wal_load_ns: u64,
    /// By-hand boot only: `recover_sharded` + `attach_backends`, ns.
    pub recover_ns: u64,
    /// By-hand boot only: what recovery did, per shard.
    pub outcomes: Vec<RecoveryOutcome>,
}

/// The program under test: a data directory and, while it is up, the
/// server that owns the engine.
pub struct Node {
    dir: PathBuf,
    registry: TransformRegistry,
    /// Boots spawn `llogtool serve`'s 500 ms checkpointer. The crash cycles
    /// turn it off: their checkpoints come at an op count, not at a time.
    checkpointer: bool,
    server: Option<Server>,
    /// The `Metrics` the shard backends' devices count on. Only a by-hand
    /// boot can hold them (`open_served` makes its own), and the engine's
    /// ledger never sees bytes written, segments rotated or checkpoint
    /// objects written.
    devices: Vec<Arc<Metrics>>,
}

impl Node {
    pub fn new(dir: &Path) -> Node {
        Node {
            dir: dir.to_path_buf(),
            registry: TransformRegistry::with_builtins(),
            checkpointer: true,
            server: None,
            devices: Vec::new(),
        }
    }

    /// The device counters summed over shards (zeros after a production
    /// boot, which keeps them to itself).
    pub fn device_counters(&self) -> MetricsSnapshot {
        self.devices
            .iter()
            .fold(MetricsSnapshot::default(), |acc, m| {
                acc.merged(&m.snapshot())
            })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("the node is up").local_addr()
    }

    fn serve(&mut self, engine: ShardedEngine) -> Result<()> {
        self.server = Some(Server::start(engine, ServerConfig::default())?);
        Ok(())
    }

    /// The production boot, step for step what `llogtool serve` does:
    /// `open_served` → `spawn_checkpointer(500 ms)` → `Server::start`.
    pub fn boot(&mut self, tracer: &Tracer) -> Result<BootTimes> {
        let t0 = tracer.now();
        let engine = open_served(&self.dir, SHARDS, &self.registry)?;
        let open_ns = tracer.now() - t0;
        self.devices.clear();
        if self.checkpointer {
            engine.spawn_checkpointer(CHECKPOINT_EVERY);
        }
        self.serve(engine)?;
        Ok(BootTimes {
            open_ns,
            ..BootTimes::default()
        })
    }

    /// The same boot with `open_served` taken apart into its public
    /// pieces so each can be timed (traced runs only): device open + load
    /// per shard, then `recover_sharded` + `attach_backends`.
    pub fn boot_by_hand(&mut self, tracer: &Tracer) -> Result<BootTimes> {
        let t0 = tracer.now();
        let cfg = DeviceConfig::default().with_fast_segments(2);
        let shards = match existing_shards(&self.dir) {
            0 => SHARDS,
            n => n,
        };
        self.devices = (0..shards).map(|_| Metrics::new()).collect();
        let mut backends = Vec::with_capacity(shards);
        let mut parts = Vec::with_capacity(shards);
        let mut store_load_ns = 0;
        let mut wal_load_ns = 0;
        for i in 0..shards {
            let b = DurabilityBackend::file(
                &self.dir.join(format!("shard-{i}")),
                self.devices[i].clone(),
                &cfg,
            )?;
            let metrics = Metrics::new();
            let s0 = tracer.now();
            let store = b.store_device().load_store(metrics.clone())?;
            let s1 = tracer.now();
            store_load_ns += s1 - s0;
            let wal = Wal::load_from_device(b.log(), metrics.clone())?;
            wal_load_ns += tracer.now() - s1;
            parts.push((
                store.unwrap_or_else(|| StableStore::new(metrics.clone())),
                wal.unwrap_or_else(|| Wal::new(metrics)),
            ));
            backends.push(b);
        }
        let t1 = tracer.now();
        let (engine, outcomes) = recover_sharded(
            parts,
            &self.registry,
            server_engine_config(shards),
            RedoPolicy::RsiExposed,
        )?;
        engine.attach_backends(backends);
        let t2 = tracer.now();
        if self.checkpointer {
            engine.spawn_checkpointer(CHECKPOINT_EVERY);
        }
        self.serve(engine)?;
        Ok(BootTimes {
            open_ns: t2 - t0,
            load_ns: t1 - t0,
            store_load_ns,
            wal_load_ns,
            recover_ns: t2 - t1,
            outcomes,
        })
    }

    /// Phase boundary: drain the server, read the engine's counters, and
    /// serve the same (still running) engine again. This is the only way
    /// to read `log_bytes` and the group-commit counters from outside.
    pub fn pause(&mut self) -> Result<(ShardedSnapshot, ServerCounters)> {
        let server = self.server.take().expect("the node is up");
        let counters = server.counters();
        let engine = server.shutdown();
        let snap = engine.metrics_snapshot();
        self.serve(engine)?;
        Ok((snap, counters))
    }

    /// [`Node::pause`], and while the engine is in hand checkpoint every
    /// shard — the call the checkpointer's timer makes, one shard a tick.
    /// Also returns how many deltas each shard's store device now chains
    /// behind its last full image.
    pub fn checkpoint(&mut self) -> Result<(ShardedSnapshot, ServerCounters, Vec<usize>)> {
        let server = self.server.take().expect("the node is up");
        let counters = server.counters();
        let engine = server.shutdown();
        engine.checkpoint_all(true)?;
        let backends: Vec<DurabilityBackend> =
            engine.take_backends().into_iter().flatten().collect();
        let chains = backends
            .iter()
            .map(|b| b.store_device().chain_len())
            .collect();
        engine.attach_backends(backends);
        let snap = engine.metrics_snapshot();
        self.serve(engine)?;
        Ok((snap, counters, chains))
    }

    /// The kill: `Server::abort()` cuts every connection and abandons
    /// what is in flight, then the engine is dropped — cache, write graph,
    /// unforced log buffer and all. Only device bytes survive (but see
    /// [`STORE_WRITE_THROUGH_AT_KILL`]). Returns the dying engine's
    /// counters and how many operations it still held uninstalled.
    pub fn kill(&mut self) -> Result<(ShardedSnapshot, ServerCounters, usize)> {
        let server = self.server.take().expect("the node is up");
        let counters = server.counters();
        let engine = server.abort();
        let snap = engine.metrics_snapshot();
        let uninstalled = engine.uninstalled_total();
        if STORE_WRITE_THROUGH_AT_KILL {
            engine.persist_all()?;
        }
        drop(engine);
        Ok((snap, counters, uninstalled))
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            drop(server.abort());
        }
    }
}

/// How a lane is driven.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// One request in flight; every op's latency is recorded.
    Lockstep,
    /// `window` requests in flight; the op list is cut into `segments`
    /// equal parts and the clock is read at each boundary. With tracing
    /// on, the even segments also record every op (see `trace.overhead_pct`).
    Pipelined { window: usize, segments: usize },
}

/// What one connection measured in one phase.
#[derive(Default)]
struct LaneRun {
    /// Lock-step: latency of every op. Pipelined: of ops in traced segments.
    lat_ns: Vec<u64>,
    /// The op each `lat_ns` sample belongs to (pipelined only).
    lat_op: Vec<u32>,
    /// Completion time of each `lat_ns` sample (pipelined only).
    done_ns: Vec<u64>,
    /// Pipelined: the clock at the start and at every segment boundary.
    marks: Vec<u64>,
    failed: u64,
    first_failure: Option<String>,
}

impl LaneRun {
    fn note(&mut self, verdict: std::result::Result<(), String>) {
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }
}

/// Is `resp` the right answer to `op`? `exact`: nothing else is in flight
/// on the key, so a get must return exactly the version it was generated
/// against; otherwise that version or any later one this connection wrote.
fn check(
    resp: Result<Option<Response>>,
    req_id: u64,
    op: &Op,
    lane: &Lane,
    value_len: usize,
    exact: bool,
) -> std::result::Result<(), String> {
    let resp = match resp {
        Ok(Some(r)) => r,
        Ok(None) => return Err(format!("connection closed before answering req {req_id}")),
        Err(e) => return Err(format!("req {req_id}: {e}")),
    };
    match (op.is_put(), resp) {
        (true, Response::Ack { req_id: r, .. }) if r == req_id => Ok(()),
        (false, Response::Value { req_id: r, value }) if r == req_id => {
            if value.is_empty() {
                return if op.held == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "key {} lost: held v{}, read empty",
                        op.key, op.held
                    ))
                };
            }
            let newest = if exact {
                op.held
            } else {
                lane.version_of(op.key)
            };
            match version_in(&value) {
                Some((key, v))
                    if key == op.key
                        && (op.held..=newest).contains(&v)
                        && value == value_of(key, v, value_len) =>
                {
                    Ok(())
                }
                Some((key, v)) => Err(format!(
                    "key {} read key {key} v{v}, expected v{}..=v{newest}",
                    op.key, op.held
                )),
                None => Err(format!("key {} read {} garbage bytes", op.key, value.len())),
            }
        }
        (_, other) => Err(format!("req {req_id}: unexpected {other:?}")),
    }
}

/// What a lane needs besides its ops.
#[derive(Clone, Copy)]
struct LaneCtx<'a> {
    addr: SocketAddr,
    lane: &'a Lane,
    value_len: usize,
    mode: Mode,
    exact: bool,
    start: &'a Barrier,
}

fn drive_lane(
    ctx: LaneCtx<'_>,
    ops: &[Op],
    reqs: &[Request],
    tracer: &mut Tracer,
) -> Result<LaneRun> {
    let connected = Client::connect(ctx.addr).and_then(|mut c| {
        c.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(c)
    });
    // Reach the barrier even when the connect failed, or the other lane
    // would wait forever.
    ctx.start.wait();
    let mut client = connected?;
    let n = ops.len();
    let mut run = LaneRun::default();
    let verdict = |resp, i: usize| {
        check(
            resp,
            i as u64 + 1,
            &ops[i],
            ctx.lane,
            ctx.value_len,
            ctx.exact,
        )
    };
    match ctx.mode {
        Mode::Lockstep => {
            run.lat_ns.reserve(n);
            for (i, req) in reqs.iter().enumerate() {
                let t0 = tracer.now();
                let resp = client.send(req).and_then(|()| client.recv());
                let t1 = tracer.now();
                run.lat_ns.push(t1 - t0);
                tracer.record("client.op", t0, t1, NONE, i as u32);
                run.note(verdict(resp, i));
            }
        }
        Mode::Pipelined { window, segments } => {
            let per = (n / segments).max(1);
            let on = tracer.on();
            let traced = |i: usize| on && in_even_segment(i, per, segments);
            let mut sent_at = vec![0u64; if on { n } else { 0 }];
            let mut sent = 0;
            run.marks.push(tracer.now());
            while sent < window.min(n) {
                if traced(sent) {
                    sent_at[sent] = tracer.now();
                }
                client.send(&reqs[sent])?;
                sent += 1;
            }
            for i in 0..n {
                let resp = client.recv();
                if traced(i) {
                    let t1 = tracer.now();
                    run.lat_ns.push(t1 - sent_at[i]);
                    run.lat_op.push(i as u32);
                    run.done_ns.push(t1);
                    tracer.record("client.op", sent_at[i], t1, NONE, i as u32);
                }
                let broken = resp.is_err();
                run.note(verdict(resp, i));
                if broken {
                    // A dead connection answers nothing more: count the
                    // rest as failed instead of waiting out each timeout.
                    run.failed += (n - i - 1) as u64;
                    break;
                }
                let done = i + 1;
                if done == n || (done % per == 0 && done / per < segments) {
                    run.marks.push(tracer.now());
                }
                if sent < n {
                    if traced(sent) {
                        sent_at[sent] = tracer.now();
                    }
                    client.send(&reqs[sent])?;
                    sent += 1;
                }
            }
        }
    }
    Ok(run)
}

/// How one `drive` call runs and what it checks.
#[derive(Clone, Copy)]
struct Phase<'a> {
    name: &'a str,
    mode: Mode,
    /// Nothing else touches these keys: a get returns exactly `held`.
    exact: bool,
}

impl Phase<'_> {
    /// A bulk load or read-back: deep window, not timed per op.
    fn bulk(name: &str) -> Phase<'_> {
        Phase {
            name,
            mode: Mode::Pipelined {
                window: BULK_WINDOW,
                segments: 1,
            },
            exact: true,
        }
    }
}

/// Run one op list per connection, all lanes released together.
fn drive(
    phase: Phase<'_>,
    addr: SocketAddr,
    ops: &[Vec<Op>],
    lanes: &[Lane],
    value_len: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<LaneRun>> {
    // The op list becomes wire requests before the clock starts.
    let reqs: Vec<Vec<Request>> = ops.iter().map(|o| requests(o, value_len, 1)).collect();
    let start = Barrier::new(ops.len());
    let runs: Vec<(Result<LaneRun>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ops.len())
            .map(|c| {
                let ctx = LaneCtx {
                    addr,
                    lane: &lanes[c],
                    value_len,
                    mode: phase.mode,
                    exact: phase.exact,
                    start: &start,
                };
                let (ops, reqs) = (&ops[c], &reqs[c]);
                let mut t = tracer.sibling();
                scope.spawn(move || (drive_lane(ctx, ops, reqs, &mut t), t))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let name = phase.name;
    let mut out = Vec::with_capacity(runs.len());
    for (c, (run, lane_tracer)) in runs.into_iter().enumerate() {
        report.attempted += ops[c].len() as u64;
        tracer.absorb(lane_tracer);
        match run {
            Ok(mut run) => {
                let why = run.first_failure.take();
                report.fail(run.failed, || {
                    format!("{name}: {}", why.unwrap_or_default())
                });
                out.push(run);
            }
            // A refused or broken connection fails every op it carried.
            Err(e) => report.fail(ops[c].len() as u64, || {
                format!("{name}: connection {c}: {e}")
            }),
        }
    }
    if out.len() != ops.len() {
        return Err(io_err(
            "drive",
            format!("a client connection failed: {:?}", report.failures),
        ));
    }
    Ok(out)
}

/// Ops per second of each segment: per connection `ops ÷ wall time`
/// between the segment's boundary marks, summed over connections.
fn segment_rates(runs: &[LaneRun], ops_per_lane: usize) -> Vec<f64> {
    let segments = runs[0].marks.len() - 1;
    let per = ops_per_lane / segments;
    (0..segments)
        .map(|k| {
            runs.iter()
                .map(|r| {
                    let count = if k + 1 == segments {
                        ops_per_lane - per * k
                    } else {
                        per
                    };
                    count as f64 * 1e9 / (r.marks[k + 1] - r.marks[k]).max(1) as f64
                })
                .sum()
        })
        .collect()
}

/// Gets for `keys`, each expecting the lane's last written version.
fn read_back(lane: &Lane, keys: impl Iterator<Item = u64>) -> Vec<Op> {
    keys.map(|key| Op {
        key,
        version: 0,
        held: lane.version_of(key),
    })
    .collect()
}

/// Everything measured while the program ran, handed to the traced run's
/// layer metrics ([`crate::layers`]).
pub struct ServedTrace {
    pub spec: ServedSpec,
    /// Lock-step p50 over puts alone (what `engine.commit_p50_us` of the
    /// twin is compared with).
    pub lockstep_p50_put_ns: f64,
    pub lockstep_ops: Vec<Vec<Op>>,
    pub pipelined_ops: Vec<Vec<Op>>,
    pub pipelined: Vec<PipelinedLane>,
    pub rates: Vec<f64>,
    pub phase: PhaseCounters,
    pub boots: Vec<BootTimes>,
    pub listen_to_ack_ns: Vec<u64>,
    pub restart_ns: Vec<u64>,
    pub uninstalled_at_crash: usize,
    pub requests: u64,
    pub protocol_errors: u64,
}

/// Per-op samples of one connection's traced pipelined segments.
pub struct PipelinedLane {
    pub lat_ns: Vec<u64>,
    pub lat_op: Vec<u32>,
    pub done_ns: Vec<u64>,
}

/// Engine counters over the pipelined phase (after − before).
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseCounters {
    pub ops: u64,
    pub puts: u64,
    pub log_bytes: u64,
    pub log_records: u64,
    pub batches: u64,
    pub batched_ops: u64,
    pub io_fsyncs: u64,
    pub forces_coalesced: u64,
    pub waits: u64,
    pub flush_wait_ns: u64,
    pub backpressure_waits: u64,
    pub double_buffer_overlap_ns: u64,
    pub io_bytes_written: u64,
    pub segments_rotated: u64,
    pub segments_recycled: u64,
    pub ckpt_objects_written: u64,
}

fn phase_counters(
    before: &ShardedSnapshot,
    after: &ShardedSnapshot,
    device: (&MetricsSnapshot, &MetricsSnapshot),
    ops: &[Vec<Op>],
) -> PhaseCounters {
    let (a, b) = (&after.aggregate, &before.aggregate);
    let (db, da) = device;
    let (ga, gb) = (&after.group_commit, &before.group_commit);
    PhaseCounters {
        ops: ops.iter().map(|o| o.len() as u64).sum(),
        puts: puts(ops),
        log_bytes: a.log_bytes - b.log_bytes,
        log_records: a.log_records - b.log_records,
        batches: ga.batches - gb.batches,
        batched_ops: ga.batched_ops - gb.batched_ops,
        io_fsyncs: a.io_fsyncs - b.io_fsyncs,
        forces_coalesced: a.forces_coalesced - b.forces_coalesced,
        waits: ga.waits - gb.waits,
        flush_wait_ns: ga.flush_wait_ns - gb.flush_wait_ns,
        backpressure_waits: ga.backpressure_waits - gb.backpressure_waits,
        double_buffer_overlap_ns: a.double_buffer_overlap_ns - b.double_buffer_overlap_ns,
        io_bytes_written: da.io_bytes_written - db.io_bytes_written,
        segments_rotated: da.segments_rotated - db.segments_rotated,
        segments_recycled: da.segments_recycled - db.segments_recycled,
        ckpt_objects_written: da.ckpt_objects_written - db.ckpt_objects_written,
    }
}

fn puts(ops: &[Vec<Op>]) -> u64 {
    ops.iter().flatten().filter(|o| o.is_put()).count() as u64
}

/// Run one served workload. End-to-end metrics land in the report when
/// the tracer is off; with it on, the returned [`ServedTrace`] carries
/// what the per-layer metrics are computed from.
pub fn run(spec: &ServedSpec, env: &Env, tracer: &mut Tracer) -> Result<(Report, ServedTrace)> {
    let mut report = Report::new(spec.name);
    let keys = env.scaled(spec.keys_per_conn) as u64;
    let mut root = TestRng::seed_from_u64(env.seed);
    let mut lanes: Vec<Lane> = (0..CONNS as u64)
        .map(|c| Lane::new(root.fork(), c * keys, keys))
        .collect();
    let mut sampler = root.fork();
    let mut node = Node::new(&env.data_dir);
    let len = spec.value_len;

    // Phase 1 — setup: fresh directory → open → bulk load acked.
    let preload: Vec<Vec<Op>> = lanes.iter_mut().map(|l| l.every_key()).collect();
    let t0 = tracer.now();
    std::fs::create_dir_all(&env.data_dir).map_err(|e| io_err("create data dir", e))?;
    if tracer.on() {
        // The same boot, taken apart, so the harness holds the device
        // counters through the measured phases.
        node.boot_by_hand(tracer)?;
    } else {
        node.boot(tracer)?;
    }
    drive(
        Phase::bulk("setup"),
        node.addr(),
        &preload,
        &lanes,
        len,
        tracer,
        &mut report,
    )?;
    let setup_ns = tracer.now() - t0;
    tracer.record("setup", t0, t0 + setup_ns, NONE, NONE);
    let (after_setup, _) = node.pause()?;
    let fsyncs = |snap: &ShardedSnapshot| snap.aggregate.io_fsyncs;
    report.require_fsyncs("setup", 0, fsyncs(&after_setup), puts(&preload));

    // Phase 2 — lockstep: one op in flight per connection.
    let lockstep_ops: Vec<Vec<Op>> = lanes
        .iter_mut()
        .map(|l| l.mixed(env.scaled(spec.lockstep), spec.put_pct, spec.dist))
        .collect();
    let t_lockstep = tracer.now();
    let lockstep = drive(
        Phase {
            name: "lockstep",
            mode: Mode::Lockstep,
            exact: true,
        },
        node.addr(),
        &lockstep_ops,
        &lanes,
        len,
        tracer,
        &mut report,
    )?;
    let lockstep_s = (tracer.now() - t_lockstep) as f64 / 1e9;
    let (after_lockstep, _) = node.pause()?;
    let device_before = node.device_counters();
    report.require_fsyncs(
        "lockstep",
        fsyncs(&after_setup),
        fsyncs(&after_lockstep),
        puts(&lockstep_ops),
    );

    // Phase 3 — pipelined: WINDOW ops in flight per connection.
    let pipelined_ops: Vec<Vec<Op>> = lanes
        .iter_mut()
        .map(|l| l.mixed(env.scaled(spec.pipelined), spec.put_pct, spec.dist))
        .collect();
    let t_pipelined = tracer.now();
    let pipelined = drive(
        Phase {
            name: "pipelined",
            mode: Mode::Pipelined {
                window: WINDOW,
                segments: if tracer.on() { 2 * SLICES } else { SLICES },
            },
            exact: false,
        },
        node.addr(),
        &pipelined_ops,
        &lanes,
        len,
        tracer,
        &mut report,
    )?;
    let pipelined_s = (tracer.now() - t_pipelined) as f64 / 1e9;
    let (after_pipelined, counters) = node.pause()?;
    let device_after = node.device_counters();
    report.require_fsyncs(
        "pipelined",
        fsyncs(&after_lockstep),
        fsyncs(&after_pipelined),
        puts(&pipelined_ops),
    );
    let rates = segment_rates(&pipelined, pipelined_ops[0].len());

    // Phase 4 — crash cycles: one crash image, restarted ×9. The node
    // that ran the measured phases dies first, wherever its timer had got
    // to, and that restart is not timed: from here on checkpoints come at
    // an op count (a faster write path must not leave a longer log to
    // recover), so the timer stays off.
    let (_, c, _) = node.kill()?;
    let mut requests_served = counters.requests + c.requests;
    let mut protocol_errors = counters.protocol_errors + c.protocol_errors;
    node.checkpointer = false;
    node.boot(tracer)?;
    // Tracing stays out of bursts and read-backs: they build and check
    // the state a restart faces, they are not what is measured.
    let mut quiet = tracer.muted();
    // The timer also left each shard's store device somewhere in its fold
    // cycle — a full image with 0 to 16 deltas of a second's writes each
    // chained behind it, 85 to 250 ms of restart on the reference box.
    // Small bursts, each checkpointed, until every shard has folded its
    // chain: the restarts then load one full image and a few small deltas.
    let mut folded = [false; SHARDS];
    let mut chains = vec![0; SHARDS];
    for round in 0.. {
        let filler: Vec<Vec<Op>> = lanes
            .iter_mut()
            .map(|l| l.mixed(FOLD_PUTS, 100, KeyDist::Uniform))
            .collect();
        let (addr, bulk) = (node.addr(), Phase::bulk("fold burst"));
        drive(bulk, addr, &filler, &lanes, len, &mut quiet, &mut report)?;
        let (_, c, now) = node.checkpoint()?;
        requests_served += c.requests;
        protocol_errors += c.protocol_errors;
        for (i, (was, is)) in chains.iter().zip(&now).enumerate() {
            // A chain only ever shrinks by folding.
            folded[i] |= is < was;
        }
        chains = now;
        if folded.iter().all(|f| *f) {
            break;
        }
        if round > 4 * FOLD_ROUNDS {
            return Err(io_err(
                "fold",
                format!("store chains never folded: {chains:?}"),
            ));
        }
    }
    // The redo tail: a burst after that checkpoint, killed at its last ack.
    let burst: Vec<Vec<Op>> = lanes
        .iter_mut()
        .map(|l| l.mixed(env.scaled(spec.burst), 100, spec.dist))
        .collect();
    let before = fsyncs(&node.pause()?.0);
    let (addr, bulk) = (node.addr(), Phase::bulk("burst"));
    drive(bulk, addr, &burst, &lanes, len, &mut quiet, &mut report)?;
    let tail: Vec<Vec<u64>> = burst.iter().map(|ops| last_put_keys(ops)).collect();
    let mut fresh: Vec<Op> = Vec::new();
    let mut restart_ns = Vec::with_capacity(CYCLES);
    let mut listen_to_ack_ns = Vec::with_capacity(CYCLES);
    let mut boots = Vec::with_capacity(CYCLES);
    let mut uninstalled_at_crash = 0;
    let mut disk_per_live = 0.0;
    for cycle in 0..CYCLES {
        let killed = node.kill()?;
        requests_served += killed.1.requests;
        protocol_errors += killed.1.protocol_errors;
        if cycle == 0 {
            report.require_fsyncs("burst", before, fsyncs(&killed.0), puts(&burst));
            uninstalled_at_crash = killed.2;
            // The crash image: every key was preloaded, so the live bytes
            // are what they were all along.
            let live: u64 = lanes.iter().map(|l| l.live_bytes(len)).sum();
            disk_per_live = dir_bytes(&env.data_dir) as f64 / live.max(1) as f64;
        }

        // Engine dropped → boot → listen → one fresh put acked durable
        // over a new connection.
        let t0 = tracer.now();
        let by_hand = tracer.on() && cycle % 2 == 1;
        let boot = if by_hand {
            node.boot_by_hand(tracer)?
        } else {
            node.boot(tracer)?
        };
        let t_listen = tracer.now();
        let put = Op {
            key: CONNS as u64 * keys + cycle as u64,
            version: 1,
            held: 0,
        };
        let first = Client::connect(node.addr()).and_then(|mut c| {
            c.set_read_timeout(Some(Duration::from_secs(60)))?;
            c.put(ObjectId(put.key), &value_of(put.key, 1, len))
        });
        let t1 = tracer.now();
        report.attempted += 1;
        if let Err(e) = first {
            report.fail(1, || format!("restart {cycle}: first put: {e}"));
        }
        fresh.push(put);
        restart_ns.push(t1 - t0);
        listen_to_ack_ns.push(t1 - t_listen);
        let cycle_id = cycle as u32;
        let span = tracer.record("restart", t0, t1, NONE, cycle_id);
        if by_hand {
            let t_loaded = t0 + boot.load_ns;
            tracer.record("engine.load", t0, t_loaded, span, cycle_id);
            tracer.record(
                "engine.recover",
                t_loaded,
                t0 + boot.open_ns,
                span,
                cycle_id,
            );
        } else {
            tracer.record("server.boot", t0, t0 + boot.open_ns, span, cycle_id);
        }
        tracer.record("server.listen_to_ack", t_listen, t1, span, cycle_id);
        boots.push(boot);

        // This restart must have seen every earlier ack: read back the
        // log tail at the kill and a random sample of everything older.
        let sample: Vec<Vec<Op>> = lanes
            .iter()
            .zip(&tail)
            .map(|(l, tail)| {
                let random = (0..RESTART_SAMPLE.min(keys as usize))
                    .map(|_| l.base + sampler.random_range(0..keys));
                read_back(l, tail.iter().copied().chain(random))
            })
            .collect();
        drive(
            Phase::bulk("restart read-back"),
            node.addr(),
            &sample,
            &lanes,
            len,
            &mut quiet,
            &mut report,
        )?;
    }
    let crash_s = (tracer.now() - t_pipelined) as f64 / 1e9 - pipelined_s;

    // Phase 5 — verify: after the final restart, every key against the
    // model, plus the fresh put of every restart.
    let t_verify = tracer.now();
    let mut everything: Vec<Vec<Op>> = lanes
        .iter()
        .map(|l| read_back(l, l.base..l.base + l.keys))
        .collect();
    everything[0].extend(fresh.iter().map(|p| Op {
        key: p.key,
        version: 0,
        held: 1,
    }));
    if env.corrupt_model {
        // `--corrupt-model`: the self-test that one stale key is caught.
        everything[0][0].held += 1;
    }
    drive(
        Phase::bulk("verify"),
        node.addr(),
        &everything,
        &lanes,
        len,
        &mut quiet,
        &mut report,
    )?;
    let (_, c, _) = node.kill()?;
    requests_served += c.requests;
    protocol_errors += c.protocol_errors;

    report.note("phase.lockstep_s", lockstep_s, "s");
    report.note("phase.pipelined_s", pipelined_s, "s");
    report.note("phase.crash_cycles_s", crash_s, "s");
    let verify_s = (tracer.now() - t_verify) as f64 / 1e9;
    report.note("phase.verify_s", verify_s, "s");

    let lock_lanes: Vec<&[u64]> = lockstep.iter().map(|r| r.lat_ns.as_slice()).collect();
    let measured_puts = (puts(&lockstep_ops) + puts(&pipelined_ops)) as usize;
    if !tracer.on() {
        report.end_to_end(EndToEnd {
            setup_ns,
            rates: &rates,
            lockstep: &lock_lanes,
            log_bytes: after_pipelined.aggregate.log_bytes - after_setup.aggregate.log_bytes,
            user_bytes: (measured_puts * len) as u64,
            writes: measured_puts,
            disk_per_live,
            restart_ns: &restart_ns,
        });
    }

    let put_lat: Vec<u64> = lockstep
        .iter()
        .zip(&lockstep_ops)
        .flat_map(|(run, ops)| {
            run.lat_ns
                .iter()
                .zip(ops)
                .filter(|(_, op)| op.is_put())
                .map(|(ns, _)| *ns)
        })
        .collect();
    let trace = ServedTrace {
        spec: *spec,
        lockstep_p50_put_ns: p50(&put_lat),
        lockstep_ops,
        phase: phase_counters(
            &after_lockstep,
            &after_pipelined,
            (&device_before, &device_after),
            &pipelined_ops,
        ),
        pipelined_ops,
        pipelined: pipelined
            .into_iter()
            .map(|r| PipelinedLane {
                lat_ns: r.lat_ns,
                lat_op: r.lat_op,
                done_ns: r.done_ns,
            })
            .collect(),
        rates,
        boots,
        listen_to_ack_ns,
        restart_ns,
        uninstalled_at_crash,
        requests: requests_served,
        protocol_errors,
    };
    Ok((report, trace))
}

/// Keys of the last [`RESTART_SAMPLE`] puts of an op list, oldest first.
fn last_put_keys(ops: &[Op]) -> Vec<u64> {
    let mut keys: Vec<u64> = ops
        .iter()
        .rev()
        .filter(|o| o.is_put())
        .take(RESTART_SAMPLE)
        .map(|o| o.key)
        .collect();
    keys.reverse();
    keys
}
