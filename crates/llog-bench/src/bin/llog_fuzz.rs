//! `llog-fuzz` — seeded crash-recovery fuzzer.
//!
//! Each iteration draws a 64-bit seed, generates a mixed workload (raw kv,
//! sharded group-commit, domain operations, or seeded traffic against a
//! live `llog-server` TCP front end), injects
//! **one** fault from the [`llog_testkit::faults`] taxonomy at a seeded
//! step (or, for the server mode, connection drops, half-written frames and
//! garbage bytes at the codec boundary), crashes, recovers, and checks an
//! invariant suite:
//!
//! - recovery succeeds (torn tails and tail bit-rot are *detected and
//!   clipped*, never fatal);
//! - the recovered exposed state matches the stable-log replay oracle;
//! - the recovered state is some per-step snapshot prefix `k` with
//!   `k ≥ acked` — everything acknowledged durable survives, and nothing
//!   torn is ever acknowledged;
//! - recovery is idempotent (crash the recovered engine, recover again,
//!   same state);
//! - sharded logs stay disjoint per the router;
//! - differential recovery oracle: every crashed image recovers to the
//!   same store, dirty table, live-op set and [`RecoveryOutcome`] through
//!   `recover` and its reference `recover_two_pass` (and if one rejects
//!   the image, so does the other);
//! - replication divergence oracle (mode 6): under lost, duplicated and
//!   reordered segment delivery, replica crashes mid-redo and promotion
//!   at an arbitrary shipping cut, the promoted replica's visible state
//!   is identical to a real recovery of the primary's log clipped at the
//!   replica's replayed-LSN watermark — duplicates are absorbed, gaps are
//!   rejected without corrupting the session, and the watermark never
//!   regresses;
//! - MVCC snapshot oracle (mode 7): concurrent snapshot readers racing
//!   faulted writers never observe torn values, never travel backwards in
//!   time, never miss an acknowledged-durable write, pinned snapshots read
//!   stable bytes across churn + retention GC, and after a crash the
//!   snapshot read path agrees with the stable-log replay oracle.
//!
//! Failures are shrunk by the testkit property harness and print a repro
//! command:
//!
//! ```text
//! LLOG_FUZZ_SEED=<seed> llog-fuzz --replay
//! ```
//!
//! Environment: `LLOG_FUZZ_SEED` (base seed), `LLOG_FUZZ_ITERS`
//! (iteration count). Flags `--seed`/`--iters` override the environment.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use llog_core::{recover, recover_two_pass, Engine, EngineConfig, RecoveryOutcome, RedoPolicy};
use llog_domains::app::{Application, WriteMode};
use llog_domains::btree::BTree;
use llog_domains::fs::FileSystem;
use llog_domains::register_domain_transforms;
use llog_engine::{recover_sharded, CommitTicket, ShardedConfig, ShardedEngine};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_server::{proto, Client, Request, Response, Server, ServerConfig};
use llog_sim::{replay_stable_log, verify_against_log, OpSpec, Workload, WorkloadKind};
use llog_testkit::faults::{failpoint, FaultHost, FaultKind, FaultPlan};
use llog_testkit::prop::{run_property_result, Config};
use llog_testkit::rng::{SplitMix64, TestRng};
use llog_types::{LlogError, Lsn, ObjectId, Value};
use llog_wal::ForceOutcome;

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

const DEFAULT_ITERS: u64 = 100;

/// The case families. Numbers are stable (CI and repro files pin them), so
/// the retired modes 2 and 8 leave holes instead of renumbering.
const MODES: [usize; 7] = [0, 1, 3, 4, 5, 6, 7];

fn main() -> ExitCode {
    let mut iters: Option<u64> = env_u64("LLOG_FUZZ_ITERS");
    let mut seed: Option<u64> = env_u64("LLOG_FUZZ_SEED");
    let mut mode: Option<usize> = env_u64("LLOG_FUZZ_MODE").map(|v| v as usize);
    let mut replay = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--iters" => iters = args.next().and_then(|v| v.parse().ok()),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()),
            "--mode" => mode = args.next().and_then(|v| v.parse().ok()),
            "--replay" => replay = true,
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("llog-fuzz: unknown argument {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(m) = mode.filter(|m| !MODES.contains(m)) {
        eprintln!(
            "llog-fuzz: no mode {m} (modes are {MODES:?}; 2 was the monolithic \
             save/load round-trip, deleted with that format; 8 was the \
             hybrid-logging policy differential, deleted with hybrid logging)"
        );
        return ExitCode::FAILURE;
    }

    if replay {
        let Some(s) = seed else {
            eprintln!("llog-fuzz: --replay needs a seed (LLOG_FUZZ_SEED=... or --seed N)");
            return ExitCode::FAILURE;
        };
        // The workload and fault plan are fully determined by the seed, but
        // the sharded mode runs real barrier/installer threads whose
        // schedule decides which group-commit batch the fault lands in.
        // Re-running the same seed a few times derandomizes the schedule.
        let attempts = iters.unwrap_or(100);
        println!("llog-fuzz: replaying seed {s} (up to {attempts} attempts)");
        for attempt in 0..attempts {
            if let Err(report) = run_iteration(s, mode) {
                eprintln!("llog-fuzz: seed {s} reproduced on attempt {attempt}");
                return fail(s, &report);
            }
        }
        println!("llog-fuzz: seed {s} passed {attempts} attempts (bug no longer reproduces?)");
        return ExitCode::SUCCESS;
    }

    let iters = iters.unwrap_or(DEFAULT_ITERS);
    let base = seed.unwrap_or_else(time_seed);
    match mode {
        Some(m) => println!("llog-fuzz: base seed {base}, {iters} iterations, mode pinned to {m}"),
        None => println!("llog-fuzz: base seed {base}, {iters} iterations"),
    }
    let mut sm = SplitMix64::new(base);
    for i in 0..iters {
        let iter_seed = sm.next_u64();
        if let Err(report) = run_iteration(iter_seed, mode) {
            eprintln!("llog-fuzz: iteration {i} FAILED");
            return fail(iter_seed, &report);
        }
        if (i + 1) % 50 == 0 {
            println!("llog-fuzz: {}/{iters} iterations clean", i + 1);
        }
    }
    println!("llog-fuzz: {iters} iterations, zero invariant violations");
    ExitCode::SUCCESS
}

fn print_help() {
    println!(
        "llog-fuzz — seeded crash-recovery fuzzer\n\
         \n\
         USAGE: llog-fuzz [--iters N] [--seed S] [--mode M] [--replay]\n\
         \n\
         --iters N   iterations to run (env LLOG_FUZZ_ITERS, default {DEFAULT_ITERS})\n\
         --seed S    base seed (env LLOG_FUZZ_SEED, default: wall clock)\n\
         --mode M    pin the case family (env LLOG_FUZZ_MODE; 0 kv,\n\
        \x20            1 sharded, 3 domains, 4 mem-vs-file\n\
        \x20            durability-backend differential on real files,\n\
        \x20            5 TCP server codec chaos: dropped/half-written/\n\
        \x20            garbage frames against a live llog-server while\n\
        \x20            a pipelined connection reads its own writes,\n\
        \x20            6 log-shipping replication chaos: lost/duplicated/\n\
        \x20            reordered chunks, replica crash mid-redo, promote\n\
        \x20            at a random cut, divergence oracle,\n\
        \x20            7 MVCC snapshot readers racing faulted writers:\n\
        \x20            torn/time-travel/unexposed-read oracles, GC-pin\n\
        \x20            stability, crash + snapshot-path recovery check)\n\
         --replay    replay a single failing iteration seed and exit\n\
         \n\
         On failure the minimal shrunk counterexample is written to\n\
         llog-fuzz-failure-<seed>.txt and the repro command is printed."
    );
}

fn fail(seed: u64, report: &str) -> ExitCode {
    let path = format!("llog-fuzz-failure-{seed}.txt");
    let body = format!(
        "llog-fuzz invariant violation\n\
         seed: {seed}\n\
         reproduce with: LLOG_FUZZ_SEED={seed} llog-fuzz --replay\n\n{report}\n"
    );
    if let Err(e) = std::fs::write(&path, &body) {
        eprintln!("llog-fuzz: could not write {path}: {e}");
    } else {
        eprintln!("llog-fuzz: wrote {path}");
    }
    eprintln!("{report}");
    eprintln!("reproduce with: LLOG_FUZZ_SEED={seed} llog-fuzz --replay");
    ExitCode::FAILURE
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn time_seed() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED)
        | 1
}

// ---------------------------------------------------------------------------
// One iteration = one property case (shrunk by the testkit harness)
// ---------------------------------------------------------------------------

/// Run the seeded case through the property harness so a failure is shrunk
/// toward a minimal `(mode, n_ops, material)` before being reported. With
/// `cases: 1` the harness generates exactly one case whose case-seed **is**
/// the iteration seed (`LLOG_PROP_SEED` semantics), so `--replay` lands on
/// the identical case.
fn run_iteration(seed: u64, pin_mode: Option<usize>) -> Result<(), String> {
    std::env::set_var("LLOG_PROP_SEED", seed.to_string());
    let config = Config {
        cases: 1,
        max_shrink_steps: 256,
    };
    // `--mode M` pins the case family (CI runs a dedicated bounded pass of
    // the Mem↔File backend differential, mode 4, on real files in a
    // tmpdir); unpinned runs draw the mode's slot in `MODES` from the seed.
    let slots = match pin_mode.and_then(|m| MODES.iter().position(|&x| x == m)) {
        Some(slot) => slot..slot + 1,
        None => 0..MODES.len(),
    };
    let strategy = (slots, 1usize..=40, 0u64..u64::MAX);
    let r = run_property_result(
        "llog-fuzz",
        &config,
        &strategy,
        |(slot, n_ops, material)| run_case(MODES[slot], n_ops, material),
    );
    std::env::remove_var("LLOG_PROP_SEED");
    r
}

fn run_case(mode: usize, n_ops: usize, material: u64) -> Result<(), String> {
    match mode {
        0 => fuzz_kv_single(n_ops, material),
        1 => fuzz_sharded(n_ops, material),
        3 => fuzz_domains(n_ops, material),
        4 => fuzz_backend_diff(n_ops, material),
        5 => fuzz_server(n_ops, material),
        6 => fuzz_replication(n_ops, material),
        _ => fuzz_snapshot(n_ops, material),
    }
}

fn pick_policy(rng: &mut TestRng) -> RedoPolicy {
    if rng.bool() {
        RedoPolicy::Vsi
    } else {
        RedoPolicy::RsiExposed
    }
}

/// The exposed state over a fixed window of object ids.
fn snap(engine: &Engine, ids: &[ObjectId]) -> Vec<Value> {
    ids.iter().map(|&x| engine.peek_value(x)).collect()
}

/// Everything two recoveries must agree on: stable store contents, dirty
/// table, and the set of live (uninstalled) operations.
fn engine_fingerprint(e: &Engine) -> String {
    format!(
        "{:?}|{:?}|{:?}",
        e.store().snapshot(),
        e.dirty_table(),
        e.live_op_ids()
    )
}

/// Differential recovery oracle: recover clones of the crashed image
/// through [`recover`] and [`recover_two_pass`] and demand byte-identical
/// stores and equal [`RecoveryOutcome`]s. If one errors, the other must too.
fn check_two_pass_divergence(
    store: &llog_storage::StableStore,
    wal: &llog_wal::Wal,
    registry: &TransformRegistry,
    config: EngineConfig,
    policy: RedoPolicy,
) -> Result<(), String> {
    let pipeline = recover(store.clone(), wal.clone(), registry.clone(), config, policy);
    let reference = recover_two_pass(store.clone(), wal.clone(), registry.clone(), config, policy);
    match (pipeline, reference) {
        (Ok((pe, po)), Ok((re, ro))) => {
            if po != ro {
                return Err(format!(
                    "two-pass divergence: recover outcome {po:?} != two-pass outcome {ro:?}"
                ));
            }
            if engine_fingerprint(&pe) != engine_fingerprint(&re) {
                return Err(
                    "two-pass divergence: recover and two-pass recovered states differ".to_string(),
                );
            }
            Ok(())
        }
        (Err(_), Err(_)) => Ok(()), // consistently unrecoverable
        (Ok(_), Err(e)) => Err(format!(
            "two-pass divergence: recover succeeded but two-pass failed: {e}"
        )),
        (Err(e), Ok(_)) => Err(format!(
            "two-pass divergence: two-pass succeeded but recover failed: {e}"
        )),
    }
}

/// [`check_two_pass_divergence`], then the recovery of the original parts.
fn recover_both_ways(
    store: llog_storage::StableStore,
    wal: llog_wal::Wal,
    registry: &TransformRegistry,
    config: EngineConfig,
    policy: RedoPolicy,
) -> Result<(Engine, RecoveryOutcome), String> {
    check_two_pass_divergence(&store, &wal, registry, config, policy)?;
    recover(store, wal, registry.clone(), config, policy)
        .map_err(|e| format!("recovery failed: {e}"))
}

// ---------------------------------------------------------------------------
// Mode 0: single-engine kv workload, WAL-force faults
// ---------------------------------------------------------------------------

fn fuzz_kv_single(n_ops: usize, material: u64) -> Result<(), String> {
    let mut rng = TestRng::seed_from_u64(material ^ 0xA11C_E000);
    let n_objects = rng.random_range(2u64..8);
    let ids: Vec<ObjectId> = (0..n_objects).map(ObjectId).collect();
    let kind = if rng.bool() {
        WorkloadKind::app_mix()
    } else {
        WorkloadKind::physiological_only()
    };
    let ops = Workload::new(n_objects, n_ops, kind, rng.next_u64()).generate();
    let registry = TransformRegistry::with_builtins();
    let config = EngineConfig::default();
    let policy = pick_policy(&mut rng);
    let mut engine = Engine::new(config, registry.clone());

    let host = FaultHost::new();
    let plan = FaultPlan::draw(material ^ 0xFA17, n_ops, &[failpoint::WAL_FORCE]);
    let planned = &plan.faults[0];
    let force_every = rng.random_range(1usize..5);
    let install_every = rng.random_range(0usize..4);

    let mut snapshots = vec![snap(&engine, &ids)];
    let mut targets: Vec<Lsn> = Vec::with_capacity(ops.len());
    let mut good_forced = engine.wal().forced_lsn();
    let mut torn = false;

    for (i, spec) in ops.iter().enumerate() {
        if i == planned.step {
            host.arm(&planned.point, planned.kind);
        }
        engine
            .execute(
                spec.kind,
                spec.reads.clone(),
                spec.writes.clone(),
                spec.transform.clone(),
            )
            .map_err(|e| format!("kv: execute step {i} failed: {e}"))?;
        targets.push(engine.wal().end_lsn());
        snapshots.push(snap(&engine, &ids));
        if install_every > 0 && (i + 1) % install_every == 0 {
            engine
                .install_one()
                .map_err(|e| format!("kv: install at step {i} failed: {e}"))?;
        }
        if (i + 1) % force_every == 0 {
            match engine.wal_mut().force_with(Some(&host)) {
                ForceOutcome::Forced(l) => good_forced = l,
                ForceOutcome::Torn(durable) => {
                    // The device tore mid-force: the watermark stays at the
                    // pre-fault durable prefix and the "machine" dies now.
                    good_forced = durable;
                    torn = true;
                    break;
                }
                ForceOutcome::Failed => {} // buffer intact; retried next round
            }
        }
    }

    let (store, wal) = if torn {
        engine.crash() // the in-place tear already happened in force_with
    } else {
        match rng.random_range(0u32..3) {
            0 => {
                if let ForceOutcome::Forced(l) = engine.wal_mut().force_with(None) {
                    good_forced = l;
                }
                engine.crash()
            }
            1 => engine.crash(), // power failure: unforced buffer lost
            _ => engine.crash_torn(rng.random_range(0usize..4096)),
        }
    };
    let acked = targets.iter().filter(|t| **t <= good_forced).count();

    let ctx = || {
        format!(
            "kv: n_objects={n_objects} n_ops={n_ops} policy={policy:?} \
             plan=[{planned}] fired={:?} acked={acked}",
            host.fired()
        )
    };

    let (rec, _) = recover_both_ways(store, wal, &registry, config, policy)
        .map_err(|e| format!("{}: {e}", ctx()))?;
    verify_against_log(&rec, &registry).map_err(|e| format!("{}: oracle: {e}", ctx()))?;

    let got = snap(&rec, &ids);
    let k = snapshots
        .iter()
        .rposition(|s| *s == got)
        .ok_or_else(|| format!("{}: recovered state matches no workload prefix", ctx()))?;
    if k < acked {
        return Err(format!(
            "{}: acked-durable violated: {acked} ops were acknowledged but \
             recovery surfaced prefix {k}",
            ctx()
        ));
    }

    // Idempotence: crashing the recovered engine and recovering again must
    // be a fixed point.
    let (store2, wal2) = rec.crash();
    let (rec2, _) = recover_both_ways(store2, wal2, &registry, config, policy)
        .map_err(|e| format!("{}: second recovery: {e}", ctx()))?;
    if snap(&rec2, &ids) != got {
        return Err(format!("{}: recovery is not idempotent", ctx()));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Mode 1: sharded engine, group-commit pipeline faults
// ---------------------------------------------------------------------------

/// Every failpoint the sharded commit pipeline consults: both force points
/// and the shared sync inside the barrier, plus the installer.
const PIPELINE_POINTS: [&str; 4] = [
    failpoint::FLUSHER_FORCE,
    failpoint::WAL_FORCE,
    failpoint::SCHED_SYNC,
    failpoint::INSTALL,
];

fn fuzz_sharded(n_ops: usize, material: u64) -> Result<(), String> {
    let mut rng = TestRng::seed_from_u64(material ^ 0x5AAD_ED00);
    let n_objects = rng.random_range(2u64..10);
    let shards = rng.random_range(1usize..4);
    // The op loop waits a ticket inline about once every `wait_every` ops
    // (every op, one force per op, a quarter of the time). Each wait asks
    // for a barrier, so an armed pipeline fault lands on a batch
    // mid-workload, not on the one settle barrier.
    let wait_every = if rng.ratio(0.25) {
        1
    } else {
        rng.random_range(1u32..6)
    };
    let config = ShardedConfig {
        shards,
        max_uninstalled: 64,
        install_high_water: rng.random_range(2usize..8),
    };
    let registry = TransformRegistry::with_builtins();
    let policy = pick_policy(&mut rng);
    let host = Arc::new(FaultHost::new());
    let engine = ShardedEngine::new_with_faults(config, &registry, Some(host.clone()));

    let plan = FaultPlan::draw(material ^ 0x10_57, n_ops, &PIPELINE_POINTS);
    let planned = &plan.faults[0];

    // Single-object writes only (cross-shard sets are rejected by design).
    // writes[x] is the ordered history of values written to x, paired with
    // its commit ticket (`None` = execute errored on a dead shard: never
    // acknowledged).
    let mut history: BTreeMap<ObjectId, Vec<(Value, Option<CommitTicket>)>> = BTreeMap::new();
    for i in 0..n_ops {
        if i == planned.step {
            host.arm(&planned.point, planned.kind);
        }
        let x = ObjectId(rng.random_range(0..n_objects));
        let v = Value::from(format!("s{i}-{}", rng.next_u32()).as_bytes());
        match engine.execute(
            OpKind::Physical,
            vec![],
            vec![x],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(std::slice::from_ref(&v)),
            ),
        ) {
            Ok(t) => {
                if rng.ratio(1.0 / f64::from(wait_every)) {
                    t.wait();
                }
                history.entry(x).or_default().push((v, Some(t)));
            }
            // A shard killed by an injected fault rejects later work —
            // correct behaviour, not a violation; the write stays in the
            // history as never-acknowledged.
            Err(_) => history.entry(x).or_default().push((v, None)),
        }
    }

    // Settle every ticket: true = acknowledged durable, false = the shard
    // died first (no promise was ever made).
    let acked: BTreeMap<ObjectId, Vec<(Value, bool)>> = history
        .iter()
        .map(|(x, writes)| {
            (
                *x,
                writes
                    .iter()
                    .map(|(v, t)| (v.clone(), t.as_ref().is_some_and(CommitTicket::wait)))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    let parts = if rng.bool() {
        engine.crash()
    } else {
        let partials: Vec<usize> = (0..shards).map(|_| rng.random_range(0usize..512)).collect();
        engine.crash_torn(&partials)
    };

    let ctx = || {
        format!(
            "sharded: shards={shards} n_ops={n_ops} policy={policy:?} \
             plan=[{planned}] fired={:?}",
            host.fired()
        )
    };

    // Per-shard oracle replay from each surviving log.
    let oracle: Vec<BTreeMap<ObjectId, Value>> = parts
        .iter()
        .map(|(_, wal)| replay_stable_log(wal, &registry))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: oracle replay failed: {e}", ctx()))?;

    // Differential recovery oracle per shard before the pool recovery
    // consumes the parts.
    for (i, (store, wal)) in parts.iter().enumerate() {
        check_two_pass_divergence(store, wal, &registry, EngineConfig::default(), policy)
            .map_err(|e| format!("{}: shard {i}: {e}", ctx()))?;
    }

    let (rec, _) = recover_sharded(parts, &registry, config, policy)
        .map_err(|e| format!("{}: recovery failed: {e}", ctx()))?;

    for x in (0..n_objects).map(ObjectId) {
        let shard = rec.router().shard_of(x);
        // Router disjointness: x's records may appear only in its home log.
        for (s, o) in oracle.iter().enumerate() {
            if s != shard && o.contains_key(&x) {
                return Err(format!(
                    "{}: object {x} routed to shard {shard} but found in shard {s}'s log",
                    ctx()
                ));
            }
        }
        let expect = oracle[shard].get(&x).cloned().unwrap_or_else(Value::empty);
        let got = rec
            .read_value(x)
            .map_err(|e| format!("{}: read {x} after recovery: {e}", ctx()))?;
        if got != expect {
            return Err(format!(
                "{}: recovered {x} = {got:?}, oracle says {expect:?}",
                ctx()
            ));
        }
        // Acked-durable: the surviving value must come from the suffix of
        // the write history starting at the last acknowledged write.
        if let Some(writes) = acked.get(&x) {
            if let Some(last_acked) = writes.iter().rposition(|(_, ok)| *ok) {
                let survivors = &writes[last_acked..];
                if !survivors.iter().any(|(v, _)| *v == got) {
                    return Err(format!(
                        "{}: acked-durable violated on {x}: acknowledged write \
                         #{last_acked} (of {}) did not survive; recovered {got:?}",
                        ctx(),
                        writes.len()
                    ));
                }
            }
        }
    }
    drop(rec);
    Ok(())
}

// ---------------------------------------------------------------------------
// Mode 4: Mem↔File backend differential oracle, device-write faults
// ---------------------------------------------------------------------------

/// Demand two blob dumps are byte-identical, with a forensic diff message.
fn blobs_equal(
    what: &str,
    mem: &[(String, Vec<u8>)],
    file: &[(String, Vec<u8>)],
) -> Result<(), String> {
    let names = |d: &[(String, Vec<u8>)]| d.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    if names(mem) != names(file) {
        return Err(format!(
            "{what}: blob sets diverged: mem={:?} file={:?}",
            names(mem),
            names(file)
        ));
    }
    for ((name, m), (_, f)) in mem.iter().zip(file.iter()) {
        if m != f {
            let at = m
                .iter()
                .zip(f.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(m.len().min(f.len()));
            return Err(format!(
                "{what}: blob {name} diverged at byte {at} (mem {} bytes, file {} bytes)",
                m.len(),
                f.len()
            ));
        }
    }
    Ok(())
}

/// Both backends returned the same durable LSN, or both failed.
fn lsn_verdicts_agree(
    what: &str,
    m: &Result<Lsn, LlogError>,
    f: &Result<Lsn, LlogError>,
) -> Result<(), String> {
    match (m, f) {
        (Ok(a), Ok(b)) if a != b => Err(format!("{what}: durable LSNs diverged: mem={a} file={b}")),
        (Ok(_), Ok(_)) | (Err(_), Err(_)) => Ok(()),
        _ => Err(format!("{what}: verdicts diverged: mem={m:?} file={f:?}")),
    }
}

/// Drive one engine workload while persisting to a Mem and a File backend
/// under identically-armed device-fault plans; demand byte-identical blob
/// state after every persist (crash cut) and identical recovery from both
/// device images at the end.
fn fuzz_backend_diff(n_ops: usize, material: u64) -> Result<(), String> {
    use llog_storage::device::{
        DeviceConfig, FileLogDevice, FileStoreDevice, MemLogDevice, MemStoreDevice, StoreDevice,
    };
    use llog_storage::Metrics;
    use llog_wal::Wal;

    let mut rng = TestRng::seed_from_u64(material ^ 0xBAC4_E2D1);
    let n_objects = rng.random_range(2u64..8);
    let ids: Vec<ObjectId> = (0..n_objects).map(ObjectId).collect();
    let ops = Workload::new(n_objects, n_ops, WorkloadKind::app_mix(), rng.next_u64()).generate();
    let registry = TransformRegistry::with_builtins();
    let config = EngineConfig::default();
    let policy = pick_policy(&mut rng);
    let mut engine = Engine::new(config, registry.clone());

    // Tiny segments / short chains so even small workloads cross rotation,
    // truncation-reclaim and chain-compaction boundaries.
    let cfg = DeviceConfig {
        segment_bytes: rng.random_range(32usize..160),
        compact_chain: rng.random_range(2usize..5),
        // Half the runs take the segment fast path (preallocated blobs,
        // recycling pool) so recycled-ghost rejection and tail
        // normalization face the same fault plans as the legacy layout.
        preallocate: rng.random_range(0usize..2) == 1,
        recycle_pool: rng.random_range(0usize..3),
    };
    let dir =
        std::env::temp_dir().join(format!("llog-fuzz-dev-{}-{material:x}", std::process::id()));
    let cleanup = {
        let dir = dir.clone();
        move || {
            let _ = std::fs::remove_dir_all(&dir);
        }
    };
    let mut mem_log = MemLogDevice::mem(Metrics::new(), &cfg, Lsn(1));
    let mut mem_store = MemStoreDevice::mem(Metrics::new(), &cfg);
    let mut file_log = FileLogDevice::file(&dir.join("log"), Metrics::new(), &cfg, Lsn(1))
        .map_err(|e| format!("backend-diff: open file log device: {e}"))?;
    let mut file_store = FileStoreDevice::file(&dir.join("store"), Metrics::new(), &cfg)
        .map_err(|e| format!("backend-diff: open file store device: {e}"))?;

    // One planned device fault, armed on BOTH hosts at the same step: the
    // verdict mutates the bytes before the blob layer, so both backends
    // must tear/skip/corrupt identically.
    let mem_host = FaultHost::new();
    let file_host = FaultHost::new();
    let plan = FaultPlan::draw(material ^ 0xD1FF_BACC, n_ops, failpoint::DEVICE);
    let planned = &plan.faults[0];
    let persist_every = rng.random_range(1usize..5);
    let checkpoint_every = rng.random_range(3usize..8);
    // Store checkpoints that wrote objects before the fault was armed, and
    // the longest chain they built: past its first image, a store gets deltas.
    let (mut ckpt_writes, mut longest_chain) = (0usize, 0usize);

    let ctx = || {
        format!(
            "backend-diff: n_objects={n_objects} n_ops={n_ops} cfg={cfg:?} \
             policy={policy:?} plan=[{planned}] mem_fired={:?} file_fired={:?}",
            mem_host.fired(),
            file_host.fired()
        )
    };

    for (i, spec) in ops.iter().enumerate() {
        if i == planned.step {
            mem_host.arm(&planned.point, planned.kind);
            file_host.arm(&planned.point, planned.kind);
        }
        engine
            .execute(
                spec.kind,
                spec.reads.clone(),
                spec.writes.clone(),
                spec.transform.clone(),
            )
            .map_err(|e| format!("backend-diff: execute step {i} failed: {e}"))?;
        if rng.ratio(0.3) {
            engine
                .install_one()
                .map_err(|e| format!("backend-diff: install failed: {e}"))?;
        }
        if (i + 1) % checkpoint_every == 0 {
            // Truncating checkpoints advance the WAL base, so the next
            // persist exercises whole-segment reclaim on both devices.
            engine
                .checkpoint(rng.bool())
                .map_err(|e| format!("backend-diff: checkpoint failed: {e}"))?;
        }
        if (i + 1) % persist_every == 0 {
            engine.wal_mut().force();
            // The backend's WAL-protocol order: the log tail, then the store
            // checkpoint, then the log's master and truncation — each step
            // only after the one before it succeeded on the device.
            let through = engine.wal().forced_lsn();
            let m_tail = engine.wal().persist_tail_to(&mut mem_log, Some(&mem_host));
            let f_tail = engine
                .wal()
                .persist_tail_to(&mut file_log, Some(&file_host));
            let mut agreed = lsn_verdicts_agree("log tail", &m_tail, &f_tail);
            if agreed.is_ok() && m_tail.is_ok_and(|d| d >= through) {
                let m_ck = mem_store.checkpoint(engine.store(), through, Some(&mem_host));
                let f_ck = file_store.checkpoint(engine.store(), through, Some(&file_host));
                if m_ck.is_ok() != f_ck.is_ok() {
                    cleanup();
                    return Err(format!(
                        "{}: store checkpoint verdicts diverged: mem={m_ck:?} file={f_ck:?}",
                        ctx()
                    ));
                }
                if i < planned.step {
                    ckpt_writes +=
                        usize::from(m_ck.as_ref().is_ok_and(|st| st.objects_written > 0));
                    longest_chain = longest_chain.max(mem_store.chain_len());
                }
                if m_ck.is_ok() {
                    let m_p = engine.wal().persist_to(&mut mem_log, Some(&mem_host));
                    let f_p = engine.wal().persist_to(&mut file_log, Some(&file_host));
                    agreed = lsn_verdicts_agree("log persist", &m_p, &f_p);
                }
            }
            if let Err(e) = agreed {
                cleanup();
                return Err(format!("{}: {e}", ctx()));
            }
            // Crash cut: the durable blob state must be byte-identical.
            let check = || -> Result<(), String> {
                blobs_equal(
                    "log device",
                    &mem_log.dump_blobs().map_err(|e| e.to_string())?,
                    &file_log.dump_blobs().map_err(|e| e.to_string())?,
                )?;
                blobs_equal(
                    "store device",
                    &mem_store.dump_blobs().map_err(|e| e.to_string())?,
                    &file_store.dump_blobs().map_err(|e| e.to_string())?,
                )
            };
            if let Err(e) = check() {
                cleanup();
                return Err(format!("{}: {e}", ctx()));
            }
        }
    }
    drop(engine);
    if ckpt_writes >= 2 && longest_chain < 2 {
        cleanup();
        return Err(format!(
            "{}: {ckpt_writes} store checkpoints wrote only full images",
            ctx()
        ));
    }

    // Reboot both backends: loads must agree (both refuse, or both produce
    // the same image), and recovery from the device images must agree on
    // outcome and recovered state.
    let mem_loaded = (
        mem_store.load_store(Metrics::new()),
        Wal::load_from_device(&mem_log, Metrics::new()),
    );
    let file_loaded = (
        file_store.load_store(Metrics::new()),
        Wal::load_from_device(&file_log, Metrics::new()),
    );
    cleanup();
    let pair = |r: (
        Result<Option<llog_storage::StableStore>, llog_types::LlogError>,
        Result<Option<Wal>, llog_types::LlogError>,
    )|
     -> Result<Option<(llog_storage::StableStore, Wal)>, String> {
        match r {
            (Ok(s), Ok(w)) => Ok(s.zip(w)),
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        }
    };
    match (pair(mem_loaded), pair(file_loaded)) {
        (Ok(Some((ms, mw))), Ok(Some((fs_, fw)))) => {
            if ms.snapshot() != fs_.snapshot() {
                return Err(format!("{}: loaded stores diverged", ctx()));
            }
            let m_rec = recover(ms, mw, registry.clone(), config, policy);
            let f_rec = recover(fs_, fw, registry.clone(), config, policy);
            match (m_rec, f_rec) {
                (Ok((me, mo)), Ok((fe, fo))) => {
                    if mo != fo {
                        return Err(format!(
                            "{}: recovery outcomes diverged: mem={mo:?} file={fo:?}",
                            ctx()
                        ));
                    }
                    if engine_fingerprint(&me) != engine_fingerprint(&fe)
                        || snap(&me, &ids) != snap(&fe, &ids)
                    {
                        return Err(format!("{}: recovered states diverged", ctx()));
                    }
                }
                (Err(_), Err(_)) => {}
                (m, f) => {
                    return Err(format!(
                        "{}: device recovery verdicts diverged: mem_ok={} file_ok={}",
                        ctx(),
                        m.is_ok(),
                        f.is_ok()
                    ));
                }
            }
        }
        (Ok(None), Ok(None)) => {}
        (Err(_), Err(_)) => {} // both refuse the image — consistently
        (m, f) => {
            return Err(format!(
                "{}: device loads diverged: mem={:?} file={:?}",
                ctx(),
                m.as_ref().map(|o| o.is_some()),
                f.as_ref().map(|o| o.is_some())
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Mode 3: domain workload (btree + fs + app), WAL-force faults
// ---------------------------------------------------------------------------

fn fuzz_domains(n_ops: usize, material: u64) -> Result<(), String> {
    let mut rng = TestRng::seed_from_u64(material ^ 0xD0_3A14);
    let mut registry = TransformRegistry::with_builtins();
    register_domain_transforms(&mut registry);
    let config = EngineConfig::default();
    let policy = pick_policy(&mut rng);
    let mut engine = Engine::new(config, registry.clone());

    let meta = ObjectId(1_000);
    let order = rng.random_range(3usize..6);
    let logical_splits = rng.bool();
    let tree = BTree::create(&mut engine, meta, order, logical_splits)
        .map_err(|e| format!("domains: btree create: {e}"))?;
    // Make creation durable before any fault can fire: from here on, a
    // recovered image must always contain an openable tree.
    engine.wal_mut().force();
    let mut app = Application::new(ObjectId(2_000), WriteMode::Logical);
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();

    let host = FaultHost::new();
    let plan = FaultPlan::draw(material ^ 0xB7EE, n_ops, &[failpoint::WAL_FORCE]);
    let planned = &plan.faults[0];
    let force_every = rng.random_range(1usize..5);

    let mut torn = false;
    for i in 0..n_ops {
        if i == planned.step {
            host.arm(&planned.point, planned.kind);
        }
        match rng.random_range(0u32..10) {
            0..=4 => {
                let k = rng.random_range(0u64..64);
                let v = format!("v{i}").into_bytes();
                tree.insert(&mut engine, k, &v)
                    .map_err(|e| format!("domains: insert step {i}: {e}"))?;
                model.insert(k, v);
            }
            5 => {
                let k = rng.random_range(0u64..64);
                tree.remove(&mut engine, k)
                    .map_err(|e| format!("domains: remove step {i}: {e}"))?;
                model.remove(&k);
            }
            6 => {
                let path = format!("/f{}", rng.random_range(0u32..4));
                FileSystem::ingest(&mut engine, &path, format!("data{i}").as_bytes())
                    .map_err(|e| format!("domains: ingest step {i}: {e}"))?;
            }
            7 => {
                let path = format!("/f{}", rng.random_range(0u32..4));
                if FileSystem::exists(&mut engine, &path) {
                    FileSystem::append(&mut engine, &path, b"+rec")
                        .map_err(|e| format!("domains: append step {i}: {e}"))?;
                }
            }
            _ => {
                app.step(&mut engine)
                    .map_err(|e| format!("domains: app step {i}: {e}"))?;
            }
        }
        if (i + 1) % force_every == 0 {
            match engine.wal_mut().force_with(Some(&host)) {
                ForceOutcome::Forced(_) => {}
                ForceOutcome::Torn(_) => {
                    torn = true;
                    break;
                }
                ForceOutcome::Failed => {}
            }
        }
    }

    let clean = !torn && !host.is_armed() && host.fired().is_empty() && {
        engine.wal_mut().force();
        true
    };
    let (store, wal) = if torn || clean {
        engine.crash()
    } else {
        engine.crash_torn(rng.random_range(0usize..2048))
    };

    let ctx = || {
        format!(
            "domains: n_ops={n_ops} order={order} logical_splits={logical_splits} \
             policy={policy:?} plan=[{planned}] fired={:?}",
            host.fired()
        )
    };

    let (mut rec, _) = recover_both_ways(store, wal, &registry, config, policy)
        .map_err(|e| format!("{}: {e}", ctx()))?;
    verify_against_log(&rec, &registry).map_err(|e| format!("{}: oracle: {e}", ctx()))?;

    // Structural soundness even after a mid-operation tear: the tree must
    // open, scan and pass its own invariants (orphaned post-split pages are
    // fine; broken reachable structure is not).
    let reopened = BTree::open(&mut rec, meta, order, logical_splits)
        .map_err(|e| format!("{}: recovered btree does not open: {e}", ctx()))?;
    reopened
        .check_invariants(&mut rec)
        .map_err(|e| format!("{}: recovered btree invariants: {e}", ctx()))?;
    let scanned = reopened
        .scan_all(&mut rec)
        .map_err(|e| format!("{}: recovered btree scan: {e}", ctx()))?;

    // On a fully-forced fault-free run the recovered tree must equal the
    // model exactly.
    if clean {
        let got: BTreeMap<u64, Vec<u8>> = scanned.into_iter().collect();
        if got != model {
            return Err(format!(
                "{}: clean crash lost acknowledged btree state: {} recovered \
                 keys vs {} in the model",
                ctx(),
                got.len(),
                model.len()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Mode 5: TCP server codec chaos
// ---------------------------------------------------------------------------

/// One request in flight on the well-behaved connection of mode 5.
#[derive(Debug)]
enum Sent {
    /// A put of `history[x][idx]`.
    Put { x: ObjectId, idx: usize },
    /// A get sent after `floor` puts to `x`.
    Get { x: ObjectId, floor: usize },
}

/// Every value mode 5's well-behaved connection put, per object, in send
/// order (values are unique).
type History = BTreeMap<ObjectId, Vec<Vec<u8>>>;

/// Values `x` may hold once its puts from index `from` on could have
/// landed; `None` also allows the never-written empty value.
fn allowed(history: &History, x: ObjectId, from: Option<usize>) -> Vec<Vec<u8>> {
    let puts = history.get(&x).map_or(&[][..], Vec::as_slice);
    let mut ok = puts[from.unwrap_or(0)..].to_vec();
    if from.is_none() {
        ok.push(Vec::new());
    }
    ok
}

/// Read the response to the oldest request in flight: it must carry that
/// request's `req_id`, an ack records the put as the object's last acked
/// one, and a get must see its own connection's writes.
fn settle_oldest(
    client: &mut Client,
    inflight: &mut VecDeque<(u64, Sent)>,
    history: &History,
    acked: &mut BTreeMap<ObjectId, usize>,
) -> Result<(), String> {
    let (want, sent) = inflight.pop_front().expect("a request in flight");
    let resp = client
        .recv()
        .map_err(|e| format!("recv req {want}: {e}"))?
        .ok_or_else(|| format!("connection closed with req {want} in flight"))?;
    match (&sent, resp) {
        (Sent::Put { x, idx }, Response::Ack { req_id, .. }) if req_id == want => {
            acked.insert(*x, *idx);
        }
        (Sent::Get { x, floor }, Response::Value { req_id, value }) if req_id == want => {
            // The writer waited every earlier ticket durable before the read
            // resolved: it sees the last put sent before it, or a later one.
            if !allowed(history, *x, floor.checked_sub(1)).contains(&value) {
                return Err(format!(
                    "get {x} returned {value:?}, older than the last of {floor} puts sent before it"
                ));
            }
        }
        (_, resp) => return Err(format!("req {want} ({sent:?}) answered with {resp:?}")),
    }
    Ok(())
}

/// Drive seeded traffic against a live [`Server`] while injecting chaos at
/// the codec boundary: connections dropped mid-frame, single-bit-flipped
/// frames, and plain garbage bytes. The well-behaved connection pipelines
/// up to a per-run window (1..=16) of requests, so the writer coalesces
/// runs of responses into one socket write while chaos and the abort hit
/// it. Invariants:
///
/// - responses come back in `req_id` order, and a get reads its own
///   connection's writes (the last put sent before it, or a later one);
/// - bad connections never take the server down — a fresh connection still
///   answers a ping afterwards, and each one is recorded as a protocol
///   error or a dropped connection;
/// - acked-durable across a hard abort with the window still in flight:
///   `Server::abort` + `crash()` + recovery must surface each object's last
///   acknowledged value or a put sent after it, never an older one;
/// - double-recovery idempotence: crashing the recovered engine and
///   recovering again yields the identical exposed state.
fn fuzz_server(n_ops: usize, material: u64) -> Result<(), String> {
    let mut rng = TestRng::seed_from_u64(material ^ 0x5E4F_E400);
    let n_objects = rng.random_range(2u64..10);
    let shards = rng.random_range(1usize..4);
    let window = rng.random_range(1u64..17) as usize;
    let registry = TransformRegistry::with_builtins();
    let sconfig = llog_server::boot::server_engine_config(shards);
    let engine = ShardedEngine::new(sconfig, &registry);
    let server = Server::start(engine, ServerConfig::default())
        .map_err(|e| format!("server: start: {e}"))?;
    let addr = server.local_addr();

    let ctx = |what: &str| format!("server: shards={shards} window={window} n_ops={n_ops}: {what}");

    let mut client = Client::connect(addr).map_err(|e| ctx(&format!("connect: {e}")))?;
    // Chaos frames never decode, so the well-behaved connection's puts are
    // the complete write history; `acked` holds each object's last acked
    // index into it.
    let mut history = History::new();
    let mut acked: BTreeMap<ObjectId, usize> = BTreeMap::new();
    let mut inflight: VecDeque<(u64, Sent)> = VecDeque::new();
    let mut expected_bad = 0u64;

    for i in 0..n_ops {
        // Occasionally recycle the polite connection (clean EOF at a frame
        // boundary — must not count as a drop or an error) once its
        // window has drained.
        if rng.ratio(0.08) {
            while !inflight.is_empty() {
                settle_oldest(&mut client, &mut inflight, &history, &mut acked)
                    .map_err(|e| ctx(&e))?;
            }
            client = Client::connect(addr).map_err(|e| ctx(&format!("reconnect: {e}")))?;
        }
        if rng.ratio(0.2) {
            // Chaos connection: one mangled write, then drop the stream.
            let x = ObjectId(rng.random_range(0..n_objects));
            let victim = proto::frame(&proto::encode_request(&Request::Put {
                req_id: 0xBAD,
                object: x,
                value: b"never-acked".to_vec(),
            }));
            let mut s =
                TcpStream::connect(addr).map_err(|e| ctx(&format!("chaos connect: {e}")))?;
            match rng.random_range(0u64..3) {
                0 => {
                    // Half-written frame: the reader sees EOF mid-frame.
                    let cut = rng.random_range(1..victim.len() as u64) as usize;
                    let _ = s.write_all(&victim[..cut]);
                }
                1 => {
                    // One flipped bit: bad magic, bad length or a CRC
                    // mismatch — never a decodable request.
                    let mut f = victim.clone();
                    let bit = rng.random_range(0..f.len() as u64 * 8);
                    f[(bit / 8) as usize] ^= 1 << (bit % 8);
                    let _ = s.write_all(&f);
                }
                _ => {
                    // Garbage bytes that were never a frame.
                    let n = rng.random_range(1u64..64) as usize;
                    let junk: Vec<u8> = (0..n).map(|_| rng.next_u32() as u8).collect();
                    let _ = s.write_all(&junk);
                }
            }
            let _ = s.flush();
            drop(s);
            expected_bad += 1;
            continue;
        }
        let x = ObjectId(rng.random_range(0..n_objects));
        let req_id = client.fresh_req_id();
        let puts = history.entry(x).or_default();
        let (req, sent) = if rng.ratio(0.15) {
            let floor = puts.len();
            (Request::Get { req_id, object: x }, Sent::Get { x, floor })
        } else {
            let value = format!("srv{i}-{}", rng.next_u32()).into_bytes();
            puts.push(value.clone());
            let idx = puts.len() - 1;
            (
                Request::Put {
                    req_id,
                    object: x,
                    value,
                },
                Sent::Put { x, idx },
            )
        };
        client
            .send(&req)
            .map_err(|e| ctx(&format!("send {sent:?}: {e}")))?;
        inflight.push_back((req_id, sent));
        if inflight.len() >= window {
            settle_oldest(&mut client, &mut inflight, &history, &mut acked).map_err(|e| ctx(&e))?;
        }
    }
    // The last window stays in flight into the abort below.
    client
        .flush_stream()
        .map_err(|e| ctx(&format!("flush the last window: {e}")))?;

    // The server must still accept and serve fresh connections after every
    // mangled one.
    let mut probe = Client::connect(addr).map_err(|e| ctx(&format!("probe connect: {e}")))?;
    probe.ping().map_err(|e| ctx(&format!("probe ping: {e}")))?;

    // Every chaos connection must be accounted for as a protocol error or
    // a dropped connection (its reader thread may still be draining).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let c = server.counters();
        if c.protocol_errors + c.dropped_conns >= expected_bad {
            break;
        }
        if Instant::now() > deadline {
            return Err(ctx(&format!(
                "chaos connections unaccounted for: {} protocol errors + {} drops \
                 < {expected_bad} injected",
                c.protocol_errors, c.dropped_conns
            )));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(probe);

    // Hard abort (the SIGKILL path: no drain, queued responses dropped),
    // then crash and recover. Every object holds its last acked value or
    // a put sent after it.
    let engine = server.abort();
    drop(client);
    let parts = engine.crash();
    let (rec, _) = recover_sharded(parts, &registry, sconfig, RedoPolicy::RsiExposed)
        .map_err(|e| ctx(&format!("recovery failed: {e}")))?;
    for &x in history.keys() {
        let got = rec
            .read_value(x)
            .map_err(|e| ctx(&format!("read {x} after recovery: {e}")))?;
        if !allowed(&history, x, acked.get(&x).copied()).contains(&got.as_bytes().to_vec()) {
            return Err(ctx(&format!(
                "acked-durable violated on {x}: recovered {got:?}, last acked put #{:?}",
                acked.get(&x)
            )));
        }
    }

    // Double-recovery idempotence.
    let ids: Vec<ObjectId> = (0..n_objects).map(ObjectId).collect();
    let first: Vec<Value> = ids
        .iter()
        .map(|&x| rec.read_value(x))
        .collect::<Result<_, _>>()
        .map_err(|e| ctx(&format!("first recovery read: {e}")))?;
    let parts = rec.crash();
    let (rec2, _) = recover_sharded(parts, &registry, sconfig, RedoPolicy::RsiExposed)
        .map_err(|e| ctx(&format!("second recovery failed: {e}")))?;
    let second: Vec<Value> = ids
        .iter()
        .map(|&x| rec2.read_value(x))
        .collect::<Result<_, _>>()
        .map_err(|e| ctx(&format!("second recovery read: {e}")))?;
    if first != second {
        return Err(ctx("recovery is not idempotent across a second crash"));
    }
    drop(rec2);
    Ok(())
}

// ---------------------------------------------------------------------------
// Mode 6: log-shipping replication chaos
// ---------------------------------------------------------------------------

/// Crash a primary, then ship its stable log to a warm-standby
/// [`RedoSession`](llog_core::RedoSession) through a hostile delivery
/// channel: chunks are lost, duplicated and reordered, and the replica
/// itself crashes mid-redo (full re-attach from a fresh manifest). The
/// shipment stops at a seeded cut and the session is promoted there.
/// Invariants:
///
/// - duplicated/overlapping chunks are absorbed and never regress the
///   replayed-LSN watermark;
/// - a chunk that would open a gap is rejected without perturbing the
///   session (watermark and stable end unchanged);
/// - two divergence oracles at the promoted cut: the replica's visible
///   state equals a pure replay of its own sealed log (the primary's
///   state at the same cut), and equals a second replica fed the same
///   bytes strictly in order with no chaos (delivery independence).
fn fuzz_replication(n_ops: usize, material: u64) -> Result<(), String> {
    use llog_core::RedoSession;
    use llog_repl::visible_divergence;
    use llog_storage::{Metrics, StableStore};
    use llog_wal::Wal;

    let mut rng = TestRng::seed_from_u64(material ^ 0x4EB1_1CA7);
    let n_objects = rng.random_range(2u64..8);
    let ops = Workload::new(n_objects, n_ops, WorkloadKind::app_mix(), rng.next_u64()).generate();
    let registry = TransformRegistry::with_builtins();
    let config = EngineConfig::default();
    let policy = pick_policy(&mut rng);
    let force_every = rng.random_range(1usize..5);
    let split = rng.random_range(0usize..=ops.len());

    let run = |engine: &mut Engine, slice: &[OpSpec], rng: &mut TestRng| -> Result<(), String> {
        for (i, spec) in slice.iter().enumerate() {
            engine
                .execute(
                    spec.kind,
                    spec.reads.clone(),
                    spec.writes.clone(),
                    spec.transform.clone(),
                )
                .map_err(|e| format!("replication: execute step {i} failed: {e}"))?;
            if rng.ratio(0.2) {
                engine
                    .install_one()
                    .map_err(|e| format!("replication: install failed: {e}"))?;
            }
            if (i + 1) % force_every == 0 {
                engine.wal_mut().force();
            }
        }
        Ok(())
    };

    // Phase 1: run part of the workload, then cut the manifest — the store
    // image a replica attaches from, taken at a durable cut of the log.
    // Records below this cut may already be reflected in the image and MUST
    // go through real recovery on attach; records at or above it are new
    // and may be blind-replayed (the soundness rule DESIGN §13 states).
    let mut engine = Engine::new(config, registry.clone());
    run(&mut engine, &ops[..split], &mut rng)?;
    engine.wal_mut().force();
    let (mstore, mwal) = engine.crash();
    let manifest_bytes = llog_storage::device::encode_image(mstore.iter());
    let base = mwal.start_lsn();
    let manifest_cut = mwal.contiguous_end(base);
    let master = mwal.master_checkpoint();

    // Phase 2: the primary keeps running past the manifest, then dies.
    let (mut engine, _) = recover(mstore, mwal, registry.clone(), config, policy)
        .map_err(|e| format!("replication: primary restart failed: {e}"))?;
    run(&mut engine, &ops[split..], &mut rng)?;
    let (_pstore, pwal) = match rng.random_range(0u32..3) {
        0 => {
            engine.wal_mut().force();
            engine.crash()
        }
        1 => engine.crash(), // unforced buffer lost
        _ => engine.crash_torn(rng.random_range(0usize..2048)),
    };

    let durable = pwal.contiguous_end(base);
    // Promote at a seeded cut of the shippable range — including the
    // manifest cut itself (promote straight off the attach image) and the
    // full durable end.
    let target = Lsn(manifest_cut.0 + rng.random_range(0..=(durable.0 - manifest_cut.0)));

    let ctx = || {
        format!(
            "replication: n_objects={n_objects} n_ops={n_ops} policy={policy:?} split={split} \
             base={base} manifest_cut={manifest_cut} durable={durable} target={target}"
        )
    };

    // Attach exactly the way `llog-repl` does: decode the manifest's store
    // image, ship the log up to the manifest's durable cut into a fresh
    // shipped wal, and run real recovery over that prefix.
    let attach = || -> Result<RedoSession, String> {
        let mut store = StableStore::new(Metrics::new());
        store.restore(
            llog_storage::device::decode_image(&manifest_bytes)
                .map_err(|e| format!("{}: attach image rejected: {e}", ctx()))?,
        );
        let mut wal = Wal::from_shipped(Metrics::new(), base.0, master);
        if manifest_cut > base {
            let prefix = pwal
                .ship_tail(base, (manifest_cut.0 - base.0) as usize)
                .map_err(|e| format!("{}: attach ship: {e}", ctx()))?
                .to_vec();
            wal.extend_stable(base, &prefix)
                .map_err(|e| format!("{}: attach extend: {e}", ctx()))?;
        }
        RedoSession::begin(store, wal, registry.clone(), config, policy)
            .map(|(s, _)| s)
            .map_err(|e| format!("{}: attach recovery failed: {e}", ctx()))
    };

    let mut session = attach()?;
    let mut crashes_left = 3u32;
    let mut guard = 0u32;
    while session.stable_end() < target {
        guard += 1;
        if guard > 10_000 {
            return Err(format!("{}: shipping made no progress", ctx()));
        }
        let from = session.stable_end();
        let max = (rng.random_range(1u64..512) as usize).min((target.0 - from.0) as usize);
        let bytes = pwal
            .ship_tail(from, max)
            .map_err(|e| format!("{}: ship_tail({from}): {e}", ctx()))?
            .to_vec();
        match rng.random_range(0u32..10) {
            // Lost chunk: the replica refetches from the same offset.
            0 => {}
            // Duplicate delivery: an already-held range arrives again; it
            // must be absorbed and the watermark must not regress.
            1 if from > base => {
                let back = rng.random_range(1..=(from.0 - base.0));
                let dup_from = Lsn(from.0 - back);
                let dup = pwal
                    .ship_tail(dup_from, back as usize)
                    .map_err(|e| format!("{}: ship_tail(dup): {e}", ctx()))?
                    .to_vec();
                let before = session.watermark();
                session
                    .extend(dup_from, &dup)
                    .map_err(|e| format!("{}: duplicate delivery rejected: {e}", ctx()))?;
                if session.watermark() < before {
                    return Err(format!("{}: watermark regressed on a duplicate", ctx()));
                }
            }
            // Reordered delivery: a future chunk arrives first, opening a
            // gap. It must be rejected and the session left untouched.
            2 if from.0 + 1 < target.0 => {
                let gap_from = Lsn(from.0 + rng.random_range(1..(target.0 - from.0)));
                let fut = pwal
                    .ship_tail(gap_from, max.max(1))
                    .map_err(|e| format!("{}: ship_tail(gap): {e}", ctx()))?
                    .to_vec();
                if !fut.is_empty() {
                    let (w0, e0) = (session.watermark(), session.stable_end());
                    if session.extend(gap_from, &fut).is_ok() {
                        return Err(format!(
                            "{}: a gapped chunk at {gap_from} was accepted",
                            ctx()
                        ));
                    }
                    if session.watermark() != w0 || session.stable_end() != e0 {
                        return Err(format!("{}: rejected gap perturbed the session", ctx()));
                    }
                }
            }
            // Replica crash mid-redo: all volatile state is lost; the
            // replica re-attaches from a fresh manifest.
            3 if crashes_left > 0 => {
                crashes_left -= 1;
                session = attach()?;
            }
            _ => {
                if !bytes.is_empty() {
                    session
                        .extend(from, &bytes)
                        .map_err(|e| format!("{}: extend({from}): {e}", ctx()))?;
                }
            }
        }
    }

    // Promote at the cut.
    let watermark = session.watermark();
    if watermark > durable {
        return Err(format!(
            "{}: watermark {watermark} ran past the durable cut",
            ctx()
        ));
    }
    let promoted = session
        .promote()
        .map_err(|e| format!("{}: promotion failed: {e}", ctx()))?;

    // Oracle 1 — log semantics: the promoted replica's visible state must
    // equal a pure replay of its own sealed log. The log bytes are
    // verbatim the primary's stable prefix, so this IS the primary's state
    // at the watermark cut. (Sound because this mode never truncates the
    // log: replay-from-empty covers the manifest image's installs too. A
    // `recover` oracle over the manifest image would be UNsound here:
    // Install records past the manifest cut are not reflected in that
    // image, which is exactly why the session blind-applies and skips
    // cache-manager records.)
    verify_against_log(&promoted, &registry)
        .map_err(|e| format!("{}: promoted replica diverged from its log: {e}", ctx()))?;

    // Oracle 2 — delivery independence: a second session fed the same
    // byte range strictly in order, with no chaos, must land on the same
    // watermark and byte-identical visible state.
    let mut clean = attach()?;
    while clean.stable_end() < watermark {
        let from = clean.stable_end();
        let bytes = pwal
            .ship_tail(from, (watermark.0 - from.0) as usize)
            .map_err(|e| format!("{}: clean ship: {e}", ctx()))?
            .to_vec();
        if bytes.is_empty() {
            return Err(format!("{}: clean ship starved at {from}", ctx()));
        }
        clean
            .extend(from, &bytes)
            .map_err(|e| format!("{}: clean extend({from}): {e}", ctx()))?;
    }
    if clean.watermark() != watermark {
        return Err(format!(
            "{}: clean delivery watermark {} != chaos watermark {watermark}",
            ctx(),
            clean.watermark()
        ));
    }
    let clean = clean
        .promote()
        .map_err(|e| format!("{}: clean promotion failed: {e}", ctx()))?;
    if let Some(diff) = visible_divergence(&clean, &promoted) {
        return Err(format!(
            "{}: chaos-delivered replica diverged from clean delivery at \
             watermark {watermark}: {diff}",
            ctx()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Mode 7: MVCC snapshot readers racing faulted writers
// ---------------------------------------------------------------------------

/// Concurrent snapshot readers race the faulted group-commit write pipeline,
/// then the engine crashes and recovers. Invariants:
///
/// - **no torn reads**: every value a racing reader observes parses as a
///   complete `q<object>-<seq>` write addressed to the object it read, with
///   a sequence number some writer actually submitted;
/// - **no time travel**: per reader, per object, the observed sequence
///   number never decreases and never reverts to empty — momentary
///   snapshot reads sample the durable watermark, which only advances;
/// - **no reads of unexposed state**: once a commit ticket acknowledges
///   write `k` durable, a snapshot read must resolve sequence `>= k`
///   (strict visibility exposes exactly the acknowledged durable prefix);
/// - **GC honours live snapshots**: a snapshot pinned before churn +
///   checkpoint GC reads the same bytes after GC reclaims below the floor;
/// - after crash + recovery, the *snapshot* read path agrees with the
///   stable-log replay oracle and the acked-durable suffix rule, exactly
///   like mode 1's mutex-path checks.
fn fuzz_snapshot(n_ops: usize, material: u64) -> Result<(), String> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    let mut rng = TestRng::seed_from_u64(material ^ 0x54AD_0007);
    let n_objects = rng.random_range(2u64..8);
    let shards = rng.random_range(1usize..4);
    // 30% of runs wait every write inline: one force per op.
    let wait_each = rng.ratio(0.3);
    let config = ShardedConfig {
        shards,
        max_uninstalled: 64,
        install_high_water: rng.random_range(2usize..8),
    };
    let registry = TransformRegistry::with_builtins();
    let policy = pick_policy(&mut rng);
    let host = Arc::new(FaultHost::new());
    let engine = ShardedEngine::new_with_faults(config, &registry, Some(host.clone()));

    let plan = FaultPlan::draw(material ^ 0x70_57, n_ops, &PIPELINE_POINTS);
    let planned = &plan.faults[0];
    let ctx = || {
        format!(
            "snapshot: shards={shards} n_ops={n_ops} policy={policy:?} \
             plan=[{planned}] fired={:?}",
            host.fired()
        )
    };

    // submitted[x] counts writes handed to the engine for x, bumped *before*
    // execute — any sequence a reader observes must be below it.
    let submitted: Vec<AtomicU64> = (0..n_objects).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let violations: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let reader_seed = rng.next_u64();

    // Parse `q<object>-<seq>`; Err = torn or cross-object bytes.
    let parse = |x: ObjectId, v: &Value| -> std::result::Result<u64, String> {
        let s = std::str::from_utf8(v.as_bytes()).map_err(|_| "not utf8".to_string())?;
        let rest = s
            .strip_prefix('q')
            .ok_or_else(|| format!("bad prefix {s:?}"))?;
        let (obj, seq) = rest
            .split_once('-')
            .ok_or_else(|| format!("no separator in {s:?}"))?;
        if obj.parse::<u64>() != Ok(x.0) {
            return Err(format!("value {s:?} was written to a different object"));
        }
        seq.parse::<u64>().map_err(|_| format!("bad seq in {s:?}"))
    };

    // Per-write commit state: settled inline, rejected outright, or a
    // ticket to wait on after the race window closes.
    enum Ack {
        Acked,
        Never,
        Pending(CommitTicket),
    }
    let mut history: BTreeMap<ObjectId, Vec<(Value, Ack)>> = BTreeMap::new();
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let engine = &engine;
            let stop = &stop;
            let submitted = &submitted;
            let violations = &violations;
            scope.spawn(move || {
                let mut r = TestRng::seed_from_u64(reader_seed ^ (t << 32));
                // last[x] = highest sequence this thread has observed for x
                // (None until the first non-empty read).
                let mut last: BTreeMap<u64, Option<u64>> = BTreeMap::new();
                let note = |msg: String| violations.lock().unwrap().push(msg);
                while !stop.load(Ordering::Relaxed) {
                    let x = ObjectId(r.random_range(0..n_objects));
                    // Alternate the momentary path and a pinned handle.
                    let read = if r.bool() {
                        engine.read_value_snapshot(x).ok()
                    } else {
                        engine.open_snapshot_for(x).ok().map(|s| s.read(x))
                    };
                    // A dead shard rejects reads — correct, not a violation.
                    let Some(v) = read else { continue };
                    let seen = last.entry(x.0).or_insert(None);
                    if v.as_bytes().is_empty() {
                        if let Some(prev) = *seen {
                            note(format!(
                                "reader {t}: {x} reverted to empty after seq {prev}"
                            ));
                        }
                        continue;
                    }
                    match parse(x, &v) {
                        Err(e) => note(format!("reader {t}: torn read on {x}: {e}")),
                        Ok(seq) => {
                            if seq >= submitted[x.0 as usize].load(Ordering::SeqCst) {
                                note(format!(
                                    "reader {t}: {x} observed seq {seq} never submitted"
                                ));
                            }
                            if let Some(prev) = *seen {
                                if seq < prev {
                                    note(format!(
                                        "reader {t}: {x} went back in time: {prev} -> {seq}"
                                    ));
                                }
                            }
                            *seen = Some(seq);
                        }
                    }
                    std::thread::yield_now();
                }
            });
        }

        // The faulted write phase runs on this thread while readers race it.
        for i in 0..n_ops {
            if i == planned.step {
                host.arm(&planned.point, planned.kind);
            }
            let x = ObjectId(rng.random_range(0..n_objects));
            let seq = submitted[x.0 as usize].fetch_add(1, Ordering::SeqCst);
            let v = Value::from(format!("q{}-{seq}", x.0).as_bytes());
            match engine.execute(
                OpKind::Physical,
                vec![],
                vec![x],
                Transform::new(
                    builtin::CONST,
                    builtin::encode_values(std::slice::from_ref(&v)),
                ),
            ) {
                Ok(t) => {
                    if wait_each {
                        t.wait();
                    }
                    // Occasionally settle inline and demand read-your-acked-
                    // writes: once `seq` is acknowledged durable, a snapshot
                    // read may never resolve anything older.
                    if rng.ratio(0.2) && t.wait() {
                        history.entry(x).or_default().push((v, Ack::Acked));
                        if let Ok(got) = engine.read_value_snapshot(x) {
                            match parse(x, &got) {
                                Ok(s) if s >= seq => {}
                                Ok(s) => violations.lock().unwrap().push(format!(
                                    "writer: acked seq {seq} on {x} but snapshot read saw {s}"
                                )),
                                Err(e) => violations
                                    .lock()
                                    .unwrap()
                                    .push(format!("writer: torn read-back on {x}: {e}")),
                            }
                        }
                    } else {
                        history.entry(x).or_default().push((v, Ack::Pending(t)));
                    }
                }
                Err(_) => history.entry(x).or_default().push((v, Ack::Never)),
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    {
        let v = violations.lock().unwrap();
        if let Some(first) = v.first() {
            return Err(format!(
                "{}: {} race violations, first: {first}",
                ctx(),
                v.len()
            ));
        }
    }

    // GC-pin oracle: pin one snapshot per object, churn past it (more
    // writes + forces), run the retention GC, and demand the pinned view
    // is byte-stable — GC must never reclaim a version a live snapshot
    // can still resolve.
    let pins: Vec<(ObjectId, Value, llog_core::snapshot::Snapshot)> = (0..n_objects)
        .map(ObjectId)
        .filter_map(|x| {
            let s = engine.open_snapshot_for(x).ok()?;
            let v = s.read(x);
            Some((x, v, s))
        })
        .collect();
    for _ in 0..8 {
        let x = ObjectId(rng.random_range(0..n_objects));
        let seq = submitted[x.0 as usize].fetch_add(1, Ordering::SeqCst);
        let v = Value::from(format!("q{}-{seq}", x.0).as_bytes());
        match engine.execute(
            OpKind::Physical,
            vec![],
            vec![x],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(std::slice::from_ref(&v)),
            ),
        ) {
            Ok(t) => history.entry(x).or_default().push((v, Ack::Pending(t))),
            Err(_) => history.entry(x).or_default().push((v, Ack::Never)),
        }
    }
    let _ = engine.force_all();
    let _ = engine.install_all();
    engine.gc_versions();
    for (x, before, snap) in &pins {
        let after = snap.read(*x);
        if after != *before {
            return Err(format!(
                "{}: GC reclaimed a pinned version: snapshot of {x} at si {} \
                 read {before:?} before GC, {after:?} after",
                ctx(),
                snap.si()
            ));
        }
    }
    drop(pins);
    engine.gc_versions();

    // Settle every ticket (true = acknowledged durable), then crash.
    let acked: BTreeMap<ObjectId, Vec<(Value, bool)>> = history
        .iter()
        .map(|(x, writes)| {
            (
                *x,
                writes
                    .iter()
                    .map(|(v, a)| {
                        let ok = match a {
                            Ack::Acked => true,
                            Ack::Never => false,
                            Ack::Pending(t) => t.wait(),
                        };
                        (v.clone(), ok)
                    })
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    let parts = if rng.bool() {
        engine.crash()
    } else {
        let partials: Vec<usize> = (0..shards).map(|_| rng.random_range(0usize..512)).collect();
        engine.crash_torn(&partials)
    };

    let oracle: Vec<BTreeMap<ObjectId, Value>> = parts
        .iter()
        .map(|(_, wal)| replay_stable_log(wal, &registry))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{}: oracle replay failed: {e}", ctx()))?;

    // A log-damaging force fault (tear / short fsync / bit rot) can leave
    // *mid-log* corruption here: the simulated device died at the tear, but
    // the harness keeps executing until `crash()`, so a racing append +
    // successful force can land bytes past the damage and raise the WAL's
    // tail guard over it. Recovery refusing that image is the designed
    // contract (mid-log rot must surface, only tail tears are clipped) —
    // accept it, but only when such a fault actually fired.
    let log_damage_fired = host.fired().iter().any(|f| {
        f.point.ends_with(".force")
            && matches!(
                f.kind,
                FaultKind::TornWrite { .. }
                    | FaultKind::ShortFsync { .. }
                    | FaultKind::BitFlip { .. }
            )
    });
    let (rec, _) = match recover_sharded(parts, &registry, config, policy) {
        Ok(r) => r,
        Err(LlogError::Corrupt { .. }) if log_damage_fired => return Ok(()),
        Err(e) => return Err(format!("{}: recovery failed: {e}", ctx())),
    };

    for x in (0..n_objects).map(ObjectId) {
        let shard = rec.router().shard_of(x);
        let expect = oracle[shard].get(&x).cloned().unwrap_or_else(Value::empty);
        // The recovered engine serves the *snapshot* path; it must agree
        // with both the oracle and the mutex path.
        let got = rec
            .read_value_snapshot(x)
            .map_err(|e| format!("{}: snapshot read {x} after recovery: {e}", ctx()))?;
        let mutex = rec
            .read_value(x)
            .map_err(|e| format!("{}: mutex read {x} after recovery: {e}", ctx()))?;
        // The recovered value must never be *older* than the log-replay
        // prefix, and must be a write actually submitted to x. (Exact
        // equality with pure replay is mode 1's oracle; here the churn
        // phase installs into the stable store, so recovery legitimately
        // keeps state whose rotted log record the replay clipped away.)
        let got_seq = if got.as_bytes().is_empty() {
            None
        } else {
            Some(parse(x, &got).map_err(|e| format!("{}: recovered torn {x}: {e}", ctx()))?)
        };
        let expect_seq = if expect.as_bytes().is_empty() {
            None
        } else {
            parse(x, &expect).ok()
        };
        if got != expect && got_seq < expect_seq {
            return Err(format!(
                "{}: recovered snapshot read {x} = {got:?} (mutex path {mutex:?}) \
                 is older than the replay oracle {expect:?}",
                ctx()
            ));
        }
        if got != mutex {
            return Err(format!(
                "{}: recovered paths diverge on {x}: snapshot {got:?} vs mutex {mutex:?}",
                ctx()
            ));
        }
        if let Some(writes) = acked.get(&x) {
            if let Some(last_acked) = writes.iter().rposition(|(_, ok)| *ok) {
                let survivors = &writes[last_acked..];
                if !survivors.iter().any(|(v, _)| *v == got) {
                    return Err(format!(
                        "{}: acked-durable violated on {x}: acknowledged write \
                         #{last_acked} (of {}) did not survive; recovered {got:?}",
                        ctx(),
                        writes.len()
                    ));
                }
            }
        }
    }
    drop(rec);
    Ok(())
}
