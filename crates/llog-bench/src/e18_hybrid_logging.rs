//! E18 — Adaptive hybrid logging: recovery speed vs log volume.
//!
//! DESIGN §16 lets the engine choose per operation between the paper's
//! logical record and a physical-result record carrying the post-images
//! it just computed, and converts still-cold logical records at
//! checkpoint time. This experiment measures both sides of the
//! break-even claim on a workload a pure policy loses:
//!
//! - an **expensive** transform ([`EXPENSIVE`], an iterated hash of
//!   ~100k rounds standing in for an `appvm` step or a B-tree
//!   reorganization) whose re-execution dominates redo, and
//! - a 4:1 majority of **cheap** `HASH_MIX` updates over fat objects,
//!   where physical post-images would bloat the log for no redo win.
//!
//! Each policy (`Logical`, `Physical`, `Adaptive`) runs the same seeded
//! workload — a short warm-up, a fuzzy checkpoint (which, under the
//! adaptive policy, converts the cold logical records), the main phase,
//! then a crash — and recovery is timed against a **fresh** registry so
//! the apply-count ledger counts exactly the transforms redo re-executed.
//! Acceptance:
//!
//! - adaptive recovery is ≥ 1.5× faster than pure-logical recovery;
//! - the adaptive log stays ≤ 1.5× the pure-logical log's bytes;
//! - adaptive recovery re-executes the expensive transform **zero**
//!   times (every instance was either logged physically once its cost
//!   was learned, or converted at the checkpoint), while pure-logical
//!   recovery re-executes every surviving instance;
//! - all three policies recover byte-identical visible state.
//!
//! The `exp_e18_hybrid_logging` binary prints the table and writes
//! `BENCH_e18.json` (path overridable via `LLOG_BENCH_JSON`);
//! `LLOG_BENCH_FAST=1` shrinks the workload for CI.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use llog_core::{recover, Engine, EngineConfig, RedoPolicy};
use llog_ops::{builtin, CostModel, LogPolicy, OpKind, Transform, TransformFn, TransformRegistry};
use llog_sim::Table;
use llog_types::{FnId, ObjectId, Result, Value};

/// The experiment's expensive transform: domain ids start at 100
/// (ids below are reserved for builtins).
pub const EXPENSIVE: FnId = FnId(100);

/// Digest width the expensive transform writes (small on purpose: its
/// physical-result record is only modestly larger than its logical
/// record, so the adaptive choice hinges on measured replay cost, not
/// on a free size win).
const DIGEST_LEN: usize = 32;

/// An iterated hash over the readset: deterministic, cheap to log
/// (an 8-byte salt), expensive to re-execute.
struct IteratedHash {
    rounds: u32,
}

impl TransformFn for IteratedHash {
    fn name(&self) -> &'static str {
        "bench/iterated-hash"
    }

    fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        let mut state: u64 = 0xcbf2_9ce4_8422_2325;
        for b in params {
            state = (state ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
        for v in inputs {
            for b in v.as_bytes() {
                state = (state ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        for i in 0..u64::from(self.rounds) {
            state = state.rotate_left(31).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
        }
        let mut out = Vec::with_capacity(n_outputs);
        for k in 0..n_outputs {
            let mut bytes = [0u8; DIGEST_LEN];
            let mut s = state ^ k as u64;
            for chunk in bytes.chunks_mut(8) {
                s = s.rotate_left(17).wrapping_mul(0x0100_0000_01b3);
                chunk.copy_from_slice(&s.to_le_bytes());
            }
            out.push(Value::from_slice(&bytes));
        }
        Ok(out)
    }
}

/// Builtins plus the expensive transform. Recovery gets a *fresh* one so
/// its apply-count ledger starts at zero.
pub fn bench_registry(rounds: u32) -> TransformRegistry {
    let mut r = TransformRegistry::with_builtins();
    r.register(EXPENSIVE, Arc::new(IteratedHash { rounds }));
    r
}

/// Workload knobs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Fat data objects (256-byte payloads the cheap updates churn).
    pub objects: u64,
    /// Batches before the fuzzy checkpoint (each batch: 1 expensive op +
    /// `CHEAP_PER_BATCH` cheap ops). Enough to warm the replay-cost EWMA
    /// past the adaptive model's warm-up sample count.
    pub warmup_batches: usize,
    /// Batches between the checkpoint and the crash — the redo work.
    pub main_batches: usize,
    /// Hash rounds per expensive apply (~1.5ns each).
    pub rounds: u32,
}

/// Cheap updates per expensive operation in every batch.
const CHEAP_PER_BATCH: usize = 4;

/// Fat-object payload width. Big enough that the adaptive model never
/// mistakes a cheap `HASH_MIX` for a physical-logging win: the extra
/// post-image bytes price re-execution at several microseconds, an order
/// of magnitude above the EWMA a sub-microsecond transform can sustain.
const FAT_LEN: usize = 256;

impl Params {
    /// Full-size run (a couple of seconds).
    pub fn full() -> Params {
        Params {
            objects: 16,
            warmup_batches: 5,
            main_batches: 395,
            rounds: 100_000,
        }
    }

    /// CI smoke run: same per-op cost, fewer batches. The expensive
    /// re-execution total (~105 ops × ~150µs) still towers over the
    /// blind-replay path by far more than the 1.5× acceptance bar.
    pub fn fast() -> Params {
        Params {
            objects: 8,
            warmup_batches: 5,
            main_batches: 100,
            rounds: 100_000,
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
}

/// One policy's measured run.
#[derive(Debug, Clone)]
pub struct Row {
    /// `logical`, `physical` or `adaptive`.
    pub policy: String,
    /// Stable log bytes at crash time.
    pub log_bytes: u64,
    /// Operations logged as logical records.
    pub records_logical: u64,
    /// Operations logged as physical-result records.
    pub records_physical: u64,
    /// Cold logical operations converted at the checkpoint.
    pub converted: u64,
    /// Wall-clock nanoseconds the post-crash recovery took.
    pub recovery_ns: u64,
    /// Operations the redo pass re-applied.
    pub redone: u64,
    /// Times recovery re-executed [`EXPENSIVE`] (fresh-registry
    /// apply count — zero means redo never paid the iterated hash).
    pub expensive_reexec: u64,
    /// Visible state after recovery (policy-equality oracle).
    state: Vec<(ObjectId, Value)>,
}

fn policy_name(policy: LogPolicy) -> &'static str {
    match policy {
        LogPolicy::Logical => "logical",
        LogPolicy::Physical => "physical",
        LogPolicy::Adaptive(_) => "adaptive",
    }
}

/// Run the seeded workload under one policy, crash, and time recovery
/// with a fresh registry.
pub fn run_policy(policy: LogPolicy, p: &Params) -> Row {
    let registry = bench_registry(p.rounds);
    let config = EngineConfig {
        log_policy: policy,
        ..crate::default_config()
    };
    let mut engine = Engine::new(config, registry.clone());

    // Seed the fat objects; digests (ids `objects..2*objects`) are
    // write-only outputs of the expensive transform.
    let fat = |k: u64| ObjectId(k % p.objects);
    let digest = |k: u64| ObjectId(p.objects + k % p.objects);
    for k in 0..p.objects {
        engine
            .execute(
                OpKind::Physical,
                vec![],
                vec![fat(k)],
                Transform::new(
                    builtin::CONST,
                    builtin::encode_values(&[Value::from_slice(&[0x5A; FAT_LEN])]),
                ),
            )
            .expect("seed");
    }

    let mut salt = 0u64;
    let mut batch = |engine: &mut Engine, i: u64| {
        // The digest feeds the readset of the next expensive op on the
        // same object: every instance is exposed to a later read, so the
        // REDO tests can never skip one as overwritten.
        engine
            .execute(
                OpKind::Logical,
                vec![fat(i), digest(i)],
                vec![digest(i)],
                Transform::new(EXPENSIVE, Value::from_slice(&salt.to_le_bytes())),
            )
            .expect("expensive op");
        salt += 1;
        for _ in 0..CHEAP_PER_BATCH {
            engine
                .execute(
                    OpKind::Logical,
                    vec![fat(salt)],
                    vec![fat(salt)],
                    Transform::new(builtin::HASH_MIX, Value::from_slice(&salt.to_le_bytes())),
                )
                .expect("cheap op");
            salt += 1;
        }
    };

    // Warm-up, then a fuzzy checkpoint: under the adaptive policy the
    // replay-cost EWMA is hot by now, and the checkpoint converts the
    // warm-up's still-cold logical records.
    for i in 0..p.warmup_batches as u64 {
        batch(&mut engine, i);
    }
    engine.checkpoint(false).expect("checkpoint");
    for i in 0..p.main_batches as u64 {
        batch(&mut engine, p.warmup_batches as u64 + i);
    }
    engine.wal_mut().force();

    let m = engine.metrics().snapshot();
    let log_bytes = engine.wal().stable_len() as u64;
    let want: Vec<(ObjectId, Value)> = (0..2 * p.objects)
        .map(|k| (ObjectId(k), engine.peek_value(ObjectId(k))))
        .collect();

    let (store, wal) = engine.crash();
    let fresh = bench_registry(p.rounds);
    let t = Instant::now();
    let (recovered, outcome) =
        recover(store, wal, fresh.clone(), config, RedoPolicy::RsiExposed).expect("recovery");
    let recovery_ns = t.elapsed().as_nanos() as u64;

    for (x, v) in &want {
        assert_eq!(
            &recovered.peek_value(*x),
            v,
            "{} recovery diverged at {x}",
            policy_name(policy)
        );
    }

    Row {
        policy: policy_name(policy).to_string(),
        log_bytes,
        records_logical: m.log_records_logical,
        records_physical: m.log_records_physical,
        converted: m.ckpt_ops_converted,
        recovery_ns,
        redone: outcome.redone,
        expensive_reexec: fresh.apply_count(EXPENSIVE),
        state: want,
    }
}

/// Everything the binary reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Rows in (logical, physical, adaptive) order.
    pub rows: Vec<Row>,
}

impl Report {
    fn find(&self, policy: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.policy == policy)
    }

    /// Pure-logical recovery time over adaptive recovery time: how much
    /// faster the hybrid log replays. ≥ 1.5 passes.
    pub fn recovery_speedup(&self) -> f64 {
        match (self.find("logical"), self.find("adaptive")) {
            (Some(l), Some(a)) if a.recovery_ns > 0 => l.recovery_ns as f64 / a.recovery_ns as f64,
            _ => 0.0,
        }
    }

    /// Adaptive log bytes over pure-logical log bytes: what the hybrid
    /// log pays for its recovery speed. ≤ 1.5 passes.
    pub fn volume_ratio(&self) -> f64 {
        match (self.find("logical"), self.find("adaptive")) {
            (Some(l), Some(a)) if l.log_bytes > 0 => a.log_bytes as f64 / l.log_bytes as f64,
            _ => 0.0,
        }
    }

    /// Acceptance (module docs): the speedup and volume bars, a
    /// zero-re-execution adaptive redo against a paying logical one, a
    /// non-trivial hybrid mix (both record flavors plus checkpoint
    /// conversions actually happened), and byte-identical recovered
    /// state across all three policies.
    pub fn ok(&self) -> bool {
        let adaptive_clean = self.find("adaptive").is_some_and(|a| {
            a.expensive_reexec == 0
                && a.records_logical > 0
                && a.records_physical > 0
                && a.converted > 0
        });
        let logical_pays = self.find("logical").is_some_and(|l| l.expensive_reexec > 0);
        let states_agree = self.rows.windows(2).all(|w| w[0].state == w[1].state);
        self.recovery_speedup() >= 1.5
            && self.volume_ratio() <= 1.5
            && adaptive_clean
            && logical_pays
            && states_agree
    }

    /// The machine-readable document behind `BENCH_e18.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"experiment\":\"e18_hybrid_logging\",\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"policy\":{:?},\"log_bytes\":{},\"records_logical\":{},\
                 \"records_physical\":{},\"converted\":{},\"recovery_ns\":{},\
                 \"redone\":{},\"expensive_reexec\":{}}}",
                r.policy,
                r.log_bytes,
                r.records_logical,
                r.records_physical,
                r.converted,
                r.recovery_ns,
                r.redone,
                r.expensive_reexec
            );
        }
        let _ = write!(
            s,
            "],\"volume_ratio\":{:.3},\"recovery_speedup\":{:.3},\"ok\":{}}}",
            self.volume_ratio(),
            self.recovery_speedup(),
            self.ok()
        );
        s
    }
}

/// Run all three policies over the same workload.
pub fn run(p: &Params) -> Report {
    let rows = vec![
        run_policy(LogPolicy::Logical, p),
        run_policy(LogPolicy::Physical, p),
        run_policy(LogPolicy::Adaptive(CostModel::default()), p),
    ];
    Report { rows }
}

/// The report as a printable table.
pub fn table(report: &Report) -> Table {
    let mut t = Table::new(vec![
        "policy",
        "log KiB",
        "logical recs",
        "physical recs",
        "converted",
        "recovery ms",
        "redone",
        "expensive re-exec",
    ]);
    for r in &report.rows {
        t.row(vec![
            r.policy.clone(),
            format!("{:.1}", r.log_bytes as f64 / 1024.0),
            format!("{}", r.records_logical),
            format!("{}", r.records_physical),
            format!("{}", r.converted),
            format!("{:.2}", r.recovery_ns as f64 / 1e6),
            format!("{}", r.redone),
            format!("{}", r.expensive_reexec),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        Params {
            objects: 4,
            warmup_batches: 6,
            main_batches: 10,
            rounds: 20_000,
        }
    }

    #[test]
    fn adaptive_recovery_never_reexecutes_the_expensive_transform() {
        let row = run_policy(LogPolicy::Adaptive(CostModel::default()), &tiny());
        assert_eq!(row.expensive_reexec, 0, "{row:?}");
        assert!(row.records_physical > 0, "the EWMA never warmed: {row:?}");
        assert!(
            row.records_logical > 0,
            "cheap ops must stay logical: {row:?}"
        );
        assert!(row.converted > 0, "checkpoint converted nothing: {row:?}");
    }

    #[test]
    fn logical_recovery_pays_every_surviving_reexecution() {
        let p = tiny();
        let row = run_policy(LogPolicy::Logical, &p);
        // Nothing installs, so every expensive op is redone from the log.
        assert_eq!(
            row.expensive_reexec,
            (p.warmup_batches + p.main_batches) as u64,
            "{row:?}"
        );
        assert_eq!(row.records_physical, 0);
        assert_eq!(row.converted, 0);
    }

    #[test]
    fn all_policies_recover_identical_state_and_json_has_the_bars() {
        let report = run(&tiny());
        for w in report.rows.windows(2) {
            assert_eq!(
                w[0].state, w[1].state,
                "{} vs {} diverged",
                w[0].policy, w[1].policy
            );
        }
        let json = report.to_json();
        for key in [
            "\"experiment\":\"e18_hybrid_logging\"",
            "\"policy\":\"logical\"",
            "\"policy\":\"physical\"",
            "\"policy\":\"adaptive\"",
            "\"volume_ratio\":",
            "\"recovery_speedup\":",
            "\"ok\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}
