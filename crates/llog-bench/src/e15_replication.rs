//! E15 — log shipping: replica lag under load, and failover fidelity.
//!
//! Two phases against real sockets (DESIGN §13):
//!
//! - **Lag**: a warm standby attaches to a primary under the E14
//!   open-loop load at 1×. The replica must keep its replay lag
//!   *bounded*: once the load stops, the replayed-LSN watermark must
//!   drain to the primary's durable end within a budget. (An absolute
//!   mid-load lag bar would race the scheduler on noisy CI boxes; the
//!   drain bar catches the failure that matters — a replica that falls
//!   behind and never recovers.)
//! - **Failover**: a fresh primary takes a seeded, fully acknowledged
//!   workload plus a burst of *never-acknowledged* writes, then dies
//!   abruptly (`abort`, the in-process SIGKILL). The replica is promoted
//!   and must serve **100% of acked writes** with their exact values,
//!   **zero phantoms** (objects never written must read empty), and
//!   accept new writes of its own.
//!
//! `exp_e15_replication` writes `BENCH_e15.json`; `LLOG_BENCH_FAST=1`
//! shrinks both phases for CI smoke runs.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use llog_engine::ShardedEngine;
use llog_ops::TransformRegistry;
use llog_server::replica::Replica;
use llog_server::{boot, Client, Server, ServerConfig};
use llog_types::ObjectId;

use crate::e14_server_load::{self, run_row};
use crate::sim::Table;

/// Workload knobs for both phases.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Primary shard count.
    pub shards: usize,
    /// E14 load connections (lag phase).
    pub conns: usize,
    /// Target offered rate per connection at 1×, operations/second.
    pub rate_per_conn: f64,
    /// Operations each connection sends in the lag phase.
    pub ops_per_conn: usize,
    /// Put value size, bytes.
    pub value_bytes: usize,
    /// Budget for the replica to drain to the primary's durable end
    /// after the load stops, milliseconds.
    pub drain_budget_ms: u64,
    /// Acked writes in the failover phase.
    pub acked_puts: usize,
    /// Never-acknowledged writes sent right before the primary dies.
    pub unacked_puts: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Params {
    /// Full-size run.
    pub fn full() -> Params {
        Params {
            shards: 4,
            conns: 4,
            rate_per_conn: 2_000.0,
            ops_per_conn: 4_000,
            value_bytes: 64,
            drain_budget_ms: 5_000,
            acked_puts: 2_000,
            unacked_puts: 200,
            seed: 0xE15,
        }
    }

    /// CI smoke run.
    pub fn fast() -> Params {
        Params {
            shards: 2,
            conns: 2,
            rate_per_conn: 2_500.0,
            ops_per_conn: 700,
            value_bytes: 32,
            drain_budget_ms: 10_000,
            acked_puts: 300,
            unacked_puts: 50,
            seed: 0xE15,
        }
    }

    /// `fast()` when `LLOG_BENCH_FAST=1`, else `full()`.
    pub fn from_env() -> Params {
        let fast = std::env::var("LLOG_BENCH_FAST")
            .map(|v| v == "1")
            .unwrap_or(false);
        if fast {
            Params::fast()
        } else {
            Params::full()
        }
    }

    fn e14(&self) -> e14_server_load::Params {
        e14_server_load::Params {
            shards: self.shards,
            conns: self.conns,
            rate_per_conn: self.rate_per_conn,
            ops_per_conn: self.ops_per_conn,
            value_bytes: self.value_bytes,
            seed: self.seed,
            p99_budget_us: u64::MAX, // latency is E14's bar, not E15's
        }
    }
}

/// Lag-phase measurements.
#[derive(Debug, Clone, Copy)]
pub struct LagPhase {
    /// Operations acknowledged by the primary under load.
    pub acked: u64,
    /// Peak `repl_replay_lag_frames` sampled while the load ran.
    pub max_lag_frames: u64,
    /// Replica watermark when the drain finished (max across shards).
    pub final_watermark: u64,
    /// Time from end-of-load until the replica reached the primary's
    /// durable end, milliseconds (budget-capped).
    pub drain_ms: u64,
    /// Whether the replica drained within the budget.
    pub drained: bool,
    /// Segment-shipping counters reported by the primary.
    pub segments_shipped: u64,
    /// Bytes shipped to the replica.
    pub bytes_shipped: u64,
}

/// Failover-phase measurements.
#[derive(Debug, Clone, Copy)]
pub struct FailoverPhase {
    /// Writes acknowledged before the primary died.
    pub acked: u64,
    /// Acked writes readable, with their exact values, on the promoted
    /// replica.
    pub acked_readable: u64,
    /// Probed never-written objects that turned up non-empty.
    pub phantoms: u64,
    /// Whether the promoted replica accepted and acknowledged a fresh
    /// write.
    pub promoted_put_ok: bool,
}

/// Everything the binary reports.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Parameters the run used.
    pub params: Params,
    /// Lag-phase row.
    pub lag: LagPhase,
    /// Failover-phase row.
    pub failover: FailoverPhase,
}

impl Report {
    /// Bar 1: bounded lag — the replica drains to the primary's durable
    /// end within the budget once the 1× load stops.
    pub fn lag_ok(&self) -> bool {
        self.lag.drained && self.lag.segments_shipped > 0
    }

    /// Bar 2: failover — 100% of acked writes readable, zero phantoms,
    /// and the promoted replica takes writes.
    pub fn failover_ok(&self) -> bool {
        self.failover.acked_readable == self.failover.acked
            && self.failover.phantoms == 0
            && self.failover.promoted_put_ok
    }

    /// Both bars.
    pub fn pass(&self) -> bool {
        self.lag_ok() && self.failover_ok()
    }

    /// The machine-readable document behind `BENCH_e15.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        let _ = write!(
            s,
            "{{\"experiment\":\"e15_replication\",\"shards\":{},\"conns\":{},\
             \"offered_rate\":{:.0},\"lag\":{{\"acked\":{},\"max_lag_frames\":{},\
             \"final_watermark\":{},\"drain_ms\":{},\"drained\":{},\
             \"segments_shipped\":{},\"bytes_shipped\":{}}},\
             \"failover\":{{\"acked\":{},\"acked_readable\":{},\"phantoms\":{},\
             \"promoted_put_ok\":{}}},\
             \"lag_ok\":{},\"failover_ok\":{},\"pass\":{}}}",
            self.params.shards,
            self.params.conns,
            self.params.rate_per_conn * self.params.conns as f64,
            self.lag.acked,
            self.lag.max_lag_frames,
            self.lag.final_watermark,
            self.lag.drain_ms,
            self.lag.drained,
            self.lag.segments_shipped,
            self.lag.bytes_shipped,
            self.failover.acked,
            self.failover.acked_readable,
            self.failover.phantoms,
            self.failover.promoted_put_ok,
            self.lag_ok(),
            self.failover_ok(),
            self.pass(),
        );
        s
    }
}

/// The human-readable table.
pub fn report_table(report: &Report) -> Table {
    let mut t = Table::new(vec!["phase", "metric", "value"]);
    let l = &report.lag;
    t.row(vec![
        "lag".into(),
        "acked under load".into(),
        l.acked.to_string(),
    ]);
    t.row(vec![
        "lag".into(),
        "max lag (frames)".into(),
        l.max_lag_frames.to_string(),
    ]);
    t.row(vec![
        "lag".into(),
        "drain ms".into(),
        l.drain_ms.to_string(),
    ]);
    t.row(vec![
        "lag".into(),
        "segments / bytes shipped".into(),
        format!("{} / {}", l.segments_shipped, l.bytes_shipped),
    ]);
    let f = &report.failover;
    t.row(vec![
        "failover".into(),
        "acked readable".into(),
        format!("{}/{}", f.acked_readable, f.acked),
    ]);
    t.row(vec![
        "failover".into(),
        "phantoms".into(),
        f.phantoms.to_string(),
    ]);
    t.row(vec![
        "failover".into(),
        "promoted put ok".into(),
        f.promoted_put_ok.to_string(),
    ]);
    t
}

/// Phase 1: E14 open-loop load at 1× with a standby attached; measure
/// peak sampled lag and the post-load drain time.
fn run_lag_phase(p: &Params) -> LagPhase {
    let registry = TransformRegistry::with_builtins();
    let engine = ShardedEngine::new(boot::server_engine_config(p.shards), &registry);
    let server = Server::start(engine, ServerConfig::default()).expect("start primary");
    let addr = server.local_addr();

    let replica = Replica::start(&addr.to_string(), registry, ServerConfig::default())
        .expect("attach replica");
    let raddr = replica.local_addr();

    // Sample the replica's reported lag while the load runs.
    let stop_sampling = AtomicBool::new(false);
    let max_lag = AtomicU64::new(0);
    let row = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut client = Client::connect(raddr).expect("connect lag sampler");
            while !stop_sampling.load(Ordering::Relaxed) {
                if let Ok(body) = client.stats() {
                    max_lag.fetch_max(body.aggregate.repl_replay_lag_frames, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let row = run_row(addr, &p.e14(), 1);
        stop_sampling.store(true, Ordering::Relaxed);
        sampler.join().expect("lag sampler panicked");
        row
    });

    // Drain: after a full flush the primary's durable end is stable; the
    // replica reports zero lag exactly when its watermark reaches it.
    let mut primary_client = Client::connect(addr).expect("connect primary");
    primary_client.flush().expect("flush primary");
    let start = Instant::now();
    let budget = Duration::from_millis(p.drain_budget_ms);
    let mut replica_client = Client::connect(raddr).expect("connect replica");
    let (drained, final_watermark) = loop {
        let body = replica_client.stats().expect("replica stats");
        if body.aggregate.repl_replay_lag_frames == 0 && body.aggregate.repl_watermark_lsn > 0 {
            break (true, body.aggregate.repl_watermark_lsn);
        }
        if start.elapsed() > budget {
            break (false, body.aggregate.repl_watermark_lsn);
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let drain_ms = start.elapsed().as_millis() as u64;

    let pstats = primary_client.stats().expect("primary stats");
    let lag = LagPhase {
        acked: row.acked,
        max_lag_frames: max_lag.load(Ordering::Relaxed),
        final_watermark,
        drain_ms,
        drained,
        segments_shipped: pstats.aggregate.repl_segments_shipped,
        bytes_shipped: pstats.aggregate.repl_bytes_shipped,
    };
    replica.stop().expect("stop replica");
    let engine = server.shutdown();
    let _ = engine.shutdown();
    lag
}

/// Phase 2: seeded acked load, a burst of unacked writes, abrupt primary
/// death, promotion, and the acked/phantom audit.
fn run_failover_phase(p: &Params) -> FailoverPhase {
    let registry = TransformRegistry::with_builtins();
    let engine = ShardedEngine::new(boot::server_engine_config(p.shards), &registry);
    let server = Server::start(engine, ServerConfig::default()).expect("start primary");
    let addr = server.local_addr();

    let replica = Replica::start(&addr.to_string(), registry, ServerConfig::default())
        .expect("attach replica");
    let raddr = replica.local_addr();

    // Disjoint object ranges keep the audit unambiguous: acked writes in
    // [0, A), unacked in [A, A+U), the phantom probe in [A+U, A+2U).
    let value = |i: u64| -> Vec<u8> {
        let mut v = vec![0u8; p.value_bytes.max(8)];
        v[..8].copy_from_slice(&(p.seed ^ i).to_le_bytes());
        v
    };
    let mut client = Client::connect(addr).expect("connect load");
    let acked = p.acked_puts as u64;
    for i in 0..acked {
        client.put(ObjectId(i), &value(i)).expect("acked put");
    }

    // Let the replica catch up to the acked prefix before the kill —
    // E15 measures failover fidelity, not shipping latency (the lag
    // phase covers that). A real deployment promotes the freshest
    // replica the same way. Zero reported lag only says the replica
    // replayed everything it *received*, so the signal here is the reads
    // themselves: every acked pair visible at the watermark cut.
    let mut replica_client = Client::connect(raddr).expect("connect replica");
    let catch_up = Instant::now();
    let mut next_check = acked; // highest index not yet confirmed, + 1
    loop {
        while next_check > 0 {
            let i = next_check - 1;
            if replica_client.get(ObjectId(i)).expect("catch-up get") != value(i) {
                break;
            }
            next_check = i;
        }
        if next_check == 0 {
            break;
        }
        if catch_up.elapsed() > Duration::from_millis(p.drain_budget_ms) {
            break; // promote anyway; the audit below will tell the truth
        }
        std::thread::sleep(Duration::from_millis(2));
    }

    // A burst the primary never acknowledges: fire the frames and kill
    // the primary without reading responses.
    for i in 0..p.unacked_puts as u64 {
        let _ = client.send(&llog_server::Request::Put {
            req_id: u64::MAX - i,
            object: ObjectId(acked + i),
            value: value(acked + i),
        });
    }
    let _ = client.flush_stream();
    let engine = server.abort(); // SIGKILL-equivalent: no drain, no force
    drop(engine);

    replica_client.promote("").expect("promote replica");

    let mut readable = 0u64;
    for i in 0..acked {
        if replica_client.get(ObjectId(i)).expect("audit get") == value(i) {
            readable += 1;
        }
    }
    let mut phantoms = 0u64;
    for i in 0..p.unacked_puts as u64 {
        let probe = acked + p.unacked_puts as u64 + i;
        if !replica_client
            .get(ObjectId(probe))
            .expect("phantom get")
            .is_empty()
        {
            phantoms += 1;
        }
    }
    let promoted_put_ok = replica_client
        .put(ObjectId(1 << 50), b"post-failover")
        .map(|lsn| lsn.0 > 0)
        .unwrap_or(false);

    let out = FailoverPhase {
        acked,
        acked_readable: readable,
        phantoms,
        promoted_put_ok,
    };
    replica.stop().expect("stop promoted replica");
    out
}

/// Run both phases.
pub fn run(p: &Params) -> Report {
    Report {
        params: *p,
        lag: run_lag_phase(p),
        failover: run_failover_phase(p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            shards: 2,
            conns: 2,
            rate_per_conn: 2_000.0,
            ops_per_conn: 80,
            value_bytes: 16,
            drain_budget_ms: 15_000,
            acked_puts: 40,
            unacked_puts: 10,
            seed: 7,
        }
    }

    #[test]
    fn both_phases_pass_on_a_tiny_run() {
        let report = run(&tiny());
        assert!(report.lag_ok(), "lag phase: {:?}", report.lag);
        assert!(
            report.failover_ok(),
            "failover phase: {:?}",
            report.failover
        );
        assert!(report.pass());
        let json = report.to_json();
        assert!(json.contains("\"experiment\":\"e15_replication\""));
        assert!(json.contains("\"pass\":true"));
    }
}
