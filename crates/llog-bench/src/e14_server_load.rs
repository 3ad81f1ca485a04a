//! E14 — served traffic: open-loop load against the TCP front end.
//!
//! The engine behind a socket (`llog-server`, DESIGN §12) is only a
//! result if its latency distribution and goodput survive measurement.
//! This experiment drives the server **open-loop**: each connection sends
//! puts on a precomputed Poisson arrival schedule at a target rate,
//! *regardless of how fast responses come back* (a closed-loop driver
//! would slow down with the server and hide queueing delay — the
//! coordinated-omission trap). Latency is measured from the operation's
//! *scheduled* arrival to its durable acknowledgement, so time spent
//! queueing behind a stalled socket counts against the server.
//!
//! Two rows: the target rate (1×) and deliberate overload (2×). The
//! acceptance bars are
//!
//! - **latency**: p99 at 1× under a budget (the fast-mode budget is
//!   generous — CI machines are noisy — but catches order-of-magnitude
//!   regressions like a lost barrier wakeup or an accidental per-op
//!   fsync);
//! - **goodput under overload**: at 2× the offered rate, acknowledged
//!   throughput must still clear the 1× target — admission control must
//!   shed load by stalling senders, not by collapsing commit throughput.
//!
//! The schedule is seeded ([`llog_testkit::TestRng`]) so runs are
//! reproducible; `exp_e14_server_load` writes `BENCH_e14.json`.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use llog_engine::ShardedEngine;
use llog_ops::TransformRegistry;
use llog_server::{boot, Request, Response, Server, ServerConfig};
use llog_testkit::TestRng;
use llog_types::ObjectId;

use crate::sim::Table;

/// Workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Server shard count.
    pub shards: usize,
    /// Concurrent client connections.
    pub conns: usize,
    /// Target offered rate **per connection**, operations/second, at 1×.
    pub rate_per_conn: f64,
    /// Operations each connection sends per row.
    pub ops_per_conn: usize,
    /// Put value size in bytes.
    pub value_bytes: usize,
    /// Schedule seed.
    pub seed: u64,
    /// p99 budget for the 1× row, microseconds.
    pub p99_budget_us: u64,
}

impl Params {
    /// Full-size run (a few seconds).
    pub fn full() -> Params {
        Params {
            shards: 4,
            conns: 4,
            rate_per_conn: 2_000.0,
            ops_per_conn: 5_000,
            value_bytes: 64,
            seed: 0xE14,
            p99_budget_us: 100_000,
        }
    }

    /// CI smoke run (well under a second per row).
    pub fn fast() -> Params {
        Params {
            shards: 2,
            conns: 2,
            rate_per_conn: 2_500.0,
            ops_per_conn: 800,
            value_bytes: 32,
            seed: 0xE14,
            p99_budget_us: 250_000,
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

    /// Total offered rate at 1×, operations/second.
    pub fn offered_rate(&self) -> f64 {
        self.rate_per_conn * self.conns as f64
    }
}

/// One load row (one rate multiplier).
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Rate multiplier over the 1× target (1 or 2).
    pub multiplier: u32,
    /// Offered rate, operations/second, across all connections.
    pub offered_rate: f64,
    /// Operations sent.
    pub sent: u64,
    /// Operations durably acknowledged.
    pub acked: u64,
    /// Error responses (should be 0).
    pub errors: u64,
    /// Wall-clock from first scheduled send to last acknowledgement.
    pub elapsed_ns: u64,
    /// Latency percentiles, microseconds, measured from *scheduled*
    /// arrival (open-loop) to acknowledgement: `[p50, p95, p99, p999]`.
    pub latency_us: [u64; 4],
}

impl LoadRow {
    /// Acknowledged operations per second.
    pub fn goodput(&self) -> f64 {
        self.acked as f64 / (self.elapsed_ns as f64 / 1e9)
    }
}

/// Percentile from a sorted latency vector (nearest-rank).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Drive `server` with `p.conns` open-loop connections at
/// `multiplier ×` the target rate.
pub fn run_row(addr: std::net::SocketAddr, p: &Params, multiplier: u32) -> LoadRow {
    let rate = p.rate_per_conn * multiplier as f64;
    let acked = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let mut all_latencies: Vec<Vec<u64>> = Vec::new();
    let start = Instant::now();
    let end = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p.conns)
            .map(|conn| {
                let acked = &acked;
                let errors = &errors;
                scope.spawn(move || drive_conn(addr, p, conn, rate, start, acked, errors))
            })
            .collect();
        let mut last = start;
        for h in handles {
            let (latencies, conn_last) = h.join().expect("connection driver panicked");
            all_latencies.push(latencies);
            last = last.max(conn_last);
        }
        last
    });
    let mut latencies: Vec<u64> = all_latencies.into_iter().flatten().collect();
    latencies.sort_unstable();
    LoadRow {
        multiplier,
        offered_rate: rate * p.conns as f64,
        sent: (p.conns * p.ops_per_conn) as u64,
        acked: acked.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        elapsed_ns: (end - start).as_nanos() as u64,
        latency_us: [
            percentile(&latencies, 50.0),
            percentile(&latencies, 95.0),
            percentile(&latencies, 99.0),
            percentile(&latencies, 99.9),
        ],
    }
}

/// One connection: a sender thread walks the precomputed schedule, a
/// receiver (this thread) matches acks and records latencies.
fn drive_conn(
    addr: std::net::SocketAddr,
    p: &Params,
    conn: usize,
    rate: f64,
    start: Instant,
    acked: &AtomicU64,
    errors: &AtomicU64,
) -> (Vec<u64>, Instant) {
    // Poisson arrivals: exponential inter-arrival times, seeded per
    // (seed, conn, multiplier-implied rate) so every run replays the
    // same schedule.
    let mut rng = TestRng::seed_from_u64(p.seed ^ ((conn as u64) << 32) ^ rate.to_bits());
    let mut offsets = Vec::with_capacity(p.ops_per_conn);
    let mut t = 0.0f64;
    for _ in 0..p.ops_per_conn {
        // u ∈ (0,1]: never ln(0).
        let u = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        t += -u.ln() / rate;
        offsets.push(Duration::from_secs_f64(t));
    }

    let stream = std::net::TcpStream::connect(addr).expect("connect load conn");
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    let writer_stream = stream.try_clone().expect("clone stream");
    let value = vec![0xABu8; p.value_bytes];
    // Objects are spread per-connection so connections don't serialize on
    // one hot object; ids are disjoint across conns.
    let base_obj = (conn as u64) << 40;
    let n = p.ops_per_conn;
    let mut latencies = Vec::with_capacity(n);
    let mut last_completion = start;

    // Open-loop: the sender thread walks the schedule and *never* waits
    // for a response — when the server stalls (admission control), sends
    // back up in the socket and the lateness lands in measured latency.
    std::thread::scope(|scope| {
        let offsets_ref = &offsets;
        let sender = scope.spawn(move || {
            let mut w = std::io::BufWriter::new(writer_stream);
            for (i, due) in offsets_ref.iter().enumerate() {
                // Sleep coarsely, then spin the last stretch: OS timers
                // are ~1ms-grained, sub-ms arrival gaps are common here.
                loop {
                    let now = start.elapsed();
                    if *due <= now {
                        break;
                    }
                    let left = *due - now;
                    if left > Duration::from_micros(500) {
                        std::thread::sleep(left - Duration::from_micros(400));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                let req = Request::Put {
                    req_id: i as u64 + 1,
                    object: ObjectId(base_obj + (i as u64 % 1024)),
                    value: value.clone(),
                };
                llog_server::proto::write_frame(&mut w, &llog_server::proto::encode_request(&req))
                    .expect("send put");
                use std::io::Write as _;
                w.flush().expect("flush put");
            }
        });

        let mut r = std::io::BufReader::new(stream);
        for _ in 0..n {
            let payload = llog_server::proto::read_frame(&mut r)
                .expect("recv response")
                .expect("server closed connection mid-run");
            match llog_server::proto::decode_response(&payload).expect("decode response") {
                Response::Ack { req_id, .. } => {
                    let completion = Instant::now();
                    let scheduled = start + offsets[(req_id - 1) as usize];
                    let lat = completion.saturating_duration_since(scheduled);
                    latencies.push(lat.as_micros() as u64);
                    acked.fetch_add(1, Ordering::Relaxed);
                    last_completion = last_completion.max(completion);
                }
                Response::Err { .. } => {
                    errors.fetch_add(1, Ordering::Relaxed);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        sender.join().expect("sender thread panicked");
    });
    (latencies, last_completion)
}

/// Everything the binary reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Parameters the run used.
    pub params: Params,
    /// Rows at 1× and 2×.
    pub rows: Vec<LoadRow>,
}

impl Report {
    fn row(&self, multiplier: u32) -> Option<&LoadRow> {
        self.rows.iter().find(|r| r.multiplier == multiplier)
    }

    /// Bar 1: p99 at the target rate is under the budget.
    pub fn latency_ok(&self) -> bool {
        self.row(1)
            .map(|r| r.latency_us[2] <= self.params.p99_budget_us)
            .unwrap_or(false)
    }

    /// Bar 2: at 2× overload, goodput still clears 90% of the 1× target
    /// (admission control stalls senders instead of collapsing commits),
    /// and nothing errored.
    pub fn goodput_ok(&self) -> bool {
        self.row(2)
            .map(|r| r.goodput() >= 0.9 * self.params.offered_rate() && r.errors == 0)
            .unwrap_or(false)
    }

    /// Both bars.
    pub fn pass(&self) -> bool {
        self.latency_ok() && self.goodput_ok()
    }

    /// The machine-readable document behind `BENCH_e14.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"experiment\":\"e14_server_load\",\"shards\":{},\"conns\":{},\
             \"target_rate\":{:.0},\"p99_budget_us\":{},\"rows\":[",
            self.params.shards,
            self.params.conns,
            self.params.offered_rate(),
            self.params.p99_budget_us,
        );
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"multiplier\":{},\"offered_rate\":{:.0},\"sent\":{},\"acked\":{},\
                 \"errors\":{},\"elapsed_ns\":{},\"goodput\":{:.1},\"p50_us\":{},\
                 \"p95_us\":{},\"p99_us\":{},\"p999_us\":{}}}",
                r.multiplier,
                r.offered_rate,
                r.sent,
                r.acked,
                r.errors,
                r.elapsed_ns,
                r.goodput(),
                r.latency_us[0],
                r.latency_us[1],
                r.latency_us[2],
                r.latency_us[3],
            );
        }
        let _ = write!(
            s,
            "],\"latency_ok\":{},\"goodput_ok\":{},\"pass\":{}}}",
            self.latency_ok(),
            self.goodput_ok(),
            self.pass()
        );
        s
    }
}

/// The human-readable table.
pub fn load_table(report: &Report) -> Table {
    let mut t = Table::new(vec![
        "rate",
        "offered/s",
        "sent",
        "acked",
        "errors",
        "goodput/s",
        "p50 µs",
        "p95 µs",
        "p99 µs",
        "p99.9 µs",
    ]);
    for r in &report.rows {
        t.row(vec![
            format!("{}x", r.multiplier),
            format!("{:.0}", r.offered_rate),
            r.sent.to_string(),
            r.acked.to_string(),
            r.errors.to_string(),
            format!("{:.0}", r.goodput()),
            r.latency_us[0].to_string(),
            r.latency_us[1].to_string(),
            r.latency_us[2].to_string(),
            r.latency_us[3].to_string(),
        ]);
    }
    t
}

/// Start an in-process server and run the 1× and 2× rows against it.
pub fn run(p: &Params) -> Report {
    let registry = TransformRegistry::with_builtins();
    let engine = ShardedEngine::new(boot::server_engine_config(p.shards), &registry);
    let server = Server::start(engine, ServerConfig::default()).expect("start server");
    let addr = server.local_addr();
    let rows = vec![run_row(addr, p, 1), run_row(addr, p, 2)];
    let engine = server.shutdown();
    let _ = engine.shutdown();
    Report { params: *p, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            shards: 2,
            conns: 2,
            rate_per_conn: 2_000.0,
            ops_per_conn: 100,
            value_bytes: 16,
            seed: 7,
            p99_budget_us: 5_000_000,
        }
    }

    #[test]
    fn open_loop_rows_ack_everything() {
        let report = run(&tiny());
        assert_eq!(report.rows.len(), 2);
        for r in &report.rows {
            assert_eq!(r.acked, r.sent, "every put is acknowledged");
            assert_eq!(r.errors, 0);
            assert!(r.latency_us[0] <= r.latency_us[3], "percentiles ordered");
            assert!(r.goodput() > 0.0);
        }
        assert!(report
            .to_json()
            .contains("\"experiment\":\"e14_server_load\""));
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 99.9), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn schedule_is_deterministic() {
        // Same seed → same JSON modulo timing fields: check the sent
        // counts and that two runs ack identically.
        let p = tiny();
        let a = run(&p);
        let b = run(&p);
        assert_eq!(a.rows[0].sent, b.rows[0].sent);
        assert_eq!(a.rows[0].acked, b.rows[0].acked);
    }
}
