//! Implementation of the `llogtool` commands (plain functions, so they
//! are testable without spawning processes).

use std::path::Path;
use std::sync::Arc;

use llog_bench::sim::{
    human_bytes, replay_stable_log, run_workload, verify_against_log, Table, Workload, WorkloadKind,
};
use llog_core::{media_recover, recover, Backup, BackupMode, Engine, EngineConfig, RedoPolicy};
use llog_engine::{recover_sharded, ShardedConfig, ShardedEngine};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_storage::device::{DeviceConfig, FileLogDevice, FileStoreDevice, WAL_MANIFEST};
use llog_storage::{Metrics, StableStore};
use llog_types::{LlogError, Lsn, Result};
use llog_wal::{DurabilityBackend, LogRecord, PersistOutcome, Wal, LOG_SUBDIR, STORE_SUBDIR};

fn registry() -> TransformRegistry {
    let mut r = TransformRegistry::with_builtins();
    llog_domains::register_domain_transforms(&mut r);
    r
}

fn io_err(e: std::io::Error) -> LlogError {
    LlogError::Codec {
        reason: e.to_string(),
    }
}

/// Refuse a database directory (or any `shard-N` under it) that still
/// holds the pre-device monolithic image files. The format is gone and
/// there is no migration: silently opening a fresh device layout next to
/// the old files would strand their data.
fn reject_monolithic(dir: &Path) -> Result<()> {
    let shard_dirs =
        (0..llog_server::boot::existing_shards(dir)).map(|i| dir.join(format!("shard-{i}")));
    for d in std::iter::once(dir.to_path_buf()).chain(shard_dirs) {
        if d.join("store.llog").is_file() || d.join("wal.llog").is_file() {
            return Err(LlogError::Codec {
                reason: format!(
                    "{}: monolithic layout is no longer supported (store.llog/wal.llog found)",
                    d.display()
                ),
            });
        }
    }
    Ok(())
}

/// Refuse a directory that holds no **existing** database (the read
/// commands must not create one as a side effect).
fn require_existing(dir: &Path) -> Result<()> {
    reject_monolithic(dir)?;
    let manifest = dir.join(LOG_SUBDIR).join(WAL_MANIFEST);
    if !manifest.is_file() {
        return Err(LlogError::Io {
            point: manifest.display().to_string(),
            reason: "no database here (log manifest missing)".into(),
        });
    }
    Ok(())
}

/// Load `(store, wal)` from a database directory, with all I/O accounted
/// into `metrics`.
pub fn load_dir_with(dir: &Path, metrics: Arc<Metrics>) -> Result<(StableStore, Wal)> {
    require_existing(dir)?;
    DurabilityBackend::file(dir, metrics.clone(), &DeviceConfig::default())?
        .load(metrics)?
        .ok_or_else(|| LlogError::Codec {
            reason: format!("{}: no device manifests to load", dir.display()),
        })
}

/// Load `(store, wal)` from a database directory.
pub fn load_dir(dir: &Path) -> Result<(StableStore, Wal)> {
    load_dir_with(dir, Metrics::new())
}

/// Save `(store, wal)` into a database directory: an incremental persist
/// through the segmented file devices. The devices resume existing
/// manifests, so saving a store loaded from (or last saved into) `dir`
/// writes only the objects it changed since, and the new log tail.
pub fn save_dir(dir: &Path, store: &StableStore, wal: &Wal) -> Result<PersistOutcome> {
    let mut b = DurabilityBackend::file(dir, Metrics::new(), &DeviceConfig::default())?;
    b.persist(store, wal, None)
}

/// `llogtool demo`: run a mixed workload, install some of it, crash, and
/// save the resulting image for the other commands to chew on.
pub fn cmd_demo(dir: &Path, ops: usize, seed: u64) -> Result<()> {
    reject_monolithic(dir)?;
    let mut engine = Engine::new(EngineConfig::default(), registry());
    let specs = Workload::new(16, ops, WorkloadKind::app_mix(), seed).generate();
    let installs = run_workload(&mut engine, &specs, 7, 0)?;
    engine.checkpoint(false)?;
    engine.wal_mut().force();
    let m = engine.metrics().snapshot();
    let (store, wal) = engine.crash();
    save_dir(dir, &store, &wal)?;
    println!(
        "ran {ops} ops (seed {seed}), {installs} installs, then crashed; \
         log {} in {} records, {} stable objects → {}",
        human_bytes(m.log_bytes),
        m.log_records,
        store.len(),
        dir.display()
    );
    Ok(())
}

/// `llogtool shard-demo`: run a shard-local workload on a [`ShardedEngine`]
/// with group commit, crash every shard at once, recover them in parallel,
/// and save one database directory per shard (`<dir>/shard-N`, each of
/// which the other commands accept).
pub fn cmd_shard_demo(dir: &Path, shards: usize, ops: usize, seed: u64) -> Result<()> {
    reject_monolithic(dir)?;
    let reg = registry();
    let config = ShardedConfig {
        shards,
        ..ShardedConfig::default()
    };
    let engine = ShardedEngine::new(config, &reg);
    let per_shard: Vec<Vec<llog_types::ObjectId>> = (0..shards)
        .map(|s| engine.router().objects_for_shard(s, 4))
        .collect();

    // Deterministic shard-local mix: op i lands on shard i % shards and
    // chains two of that shard's objects through a logical transform.
    let mut tickets = Vec::with_capacity(ops);
    for i in 0..ops {
        let objs = &per_shard[i % shards];
        let round = i / shards + seed as usize;
        let a = objs[round % objs.len()];
        let b = objs[(round + 1) % objs.len()];
        let t = Transform::new(
            builtin::HASH_MIX,
            llog_types::Value::from(format!("shard-demo-{seed}-{i}").into_bytes()),
        );
        tickets.push(engine.execute(OpKind::Logical, vec![a, b], vec![b], t)?);
    }
    engine.force_all()?;
    for t in &tickets {
        if !t.wait() {
            return Err(LlogError::Unexplainable(
                "a commit ticket was abandoned before the crash".into(),
            ));
        }
    }

    // Remember what every object should read after recovery.
    let mut expected = Vec::new();
    for objs in &per_shard {
        for &x in objs {
            expected.push((x, engine.read_value(x)?));
        }
    }
    let snapshot = engine.metrics_snapshot();
    println!(
        "ran {ops} ops across {shards} shards (seed {seed}); all tickets durable; \
         {} group-commit batches, mean batch {:.2}",
        snapshot.group_commit.batches,
        snapshot.group_commit.mean_batch()
    );
    println!("metrics: {}", snapshot.to_json());

    let parts = engine.crash();
    for (i, (store, wal)) in parts.iter().enumerate() {
        save_dir(&dir.join(format!("shard-{i}")), store, wal)?;
    }
    println!(
        "crashed all shards; images saved → {}/shard-0..{}",
        dir.display(),
        shards - 1
    );

    // Reload from disk and recover every shard in parallel.
    let mut loaded = Vec::with_capacity(shards);
    for i in 0..shards {
        loaded.push(load_dir(&dir.join(format!("shard-{i}")))?);
    }
    let (recovered, outcomes) = recover_sharded(loaded, &reg, config, RedoPolicy::RsiExposed)?;
    for (i, o) in outcomes.iter().enumerate() {
        println!(
            "shard {i}: {} redone, {} skipped, {} records scanned{}",
            o.redone,
            o.skipped,
            o.analysis_scanned,
            if o.torn_tail { " (torn tail)" } else { "" }
        );
    }
    let mut checked = 0usize;
    for (x, want) in &expected {
        if recovered.read_value(*x)? != *want {
            return Err(LlogError::Unexplainable(format!(
                "object {x} diverged from its pre-crash value after recovery"
            )));
        }
        checked += 1;
    }
    println!("OK: {checked} objects match their pre-crash state after parallel recovery");
    Ok(())
}

/// `llogtool dump`: print every stable log record, one line each. Writes
/// through a fallible handle so piping into `head` exits quietly instead of
/// panicking on EPIPE.
pub fn cmd_dump(dir: &Path) -> Result<()> {
    use std::io::Write;
    let (_store, wal) = load_dir(dir)?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut n = 0usize;
    for item in wal.scan(wal.start_lsn()) {
        let line = match item {
            Ok((lsn, rec)) => {
                n += 1;
                format!("{lsn:>10}  {}", describe(&rec))
            }
            Err(LlogError::Corrupt { offset, reason }) => {
                let _ = writeln!(out, "{offset:>10}  <torn tail: {reason}>");
                break;
            }
            Err(e) => return Err(e),
        };
        if writeln!(out, "{line}").is_err() {
            return Ok(()); // downstream pipe closed
        }
    }
    let _ = writeln!(out, "-- {n} records, {} stable bytes --", wal.stable_len());
    Ok(())
}

fn describe(rec: &LogRecord) -> String {
    match rec {
        LogRecord::Op(op) => {
            let kind = match op.kind {
                OpKind::Logical => "LOGICAL ",
                OpKind::Physiological => "PHYSIOL ",
                OpKind::Physical => "PHYSICAL",
                OpKind::IdentityWrite => "IDENTITY",
                OpKind::Delete => "DELETE  ",
            };
            format!(
                "{kind} {:?} reads={:?} writes={:?} fn={:?} params={}B",
                op.id,
                op.reads,
                op.writes,
                op.transform.fn_id,
                op.transform.params.len()
            )
        }
        LogRecord::Install(ir) => format!("INSTALL  {:?}", ir.objs),
        LogRecord::FlushTxnBegin { objs } => format!("FTXN-BEG {objs:?}"),
        LogRecord::FlushTxnValue { obj, value, vsi } => {
            format!("FTXN-VAL {obj:?} {}B vsi={vsi}", value.len())
        }
        LogRecord::FlushTxnCommit => "FTXN-COMMIT".to_string(),
        LogRecord::Checkpoint(cp) => format!(
            "CHECKPT  dirty={} redo_start={}",
            cp.dirty.len(),
            cp.redo_start
        ),
    }
}

/// `llogtool stats`: store and log statistics.
pub fn cmd_stats(dir: &Path) -> Result<()> {
    let metrics = Metrics::new();
    let (store, wal) = load_dir_with(dir, metrics.clone())?;
    let mut by_kind = std::collections::BTreeMap::<&str, (u64, u64)>::new();
    for item in wal.scan(wal.start_lsn()) {
        let Ok((_, rec)) = item else { break };
        let (name, size) = match &rec {
            LogRecord::Op(op) => {
                let name = match op.kind {
                    OpKind::Logical => "op/logical",
                    OpKind::Physiological => "op/physiological",
                    OpKind::Physical => "op/physical",
                    OpKind::IdentityWrite => "op/identity",
                    OpKind::Delete => "op/delete",
                };
                (name, rec.encode().len() as u64)
            }
            LogRecord::Install(_) => ("install", rec.encode().len() as u64),
            LogRecord::FlushTxnBegin { .. }
            | LogRecord::FlushTxnValue { .. }
            | LogRecord::FlushTxnCommit => ("flush-txn", rec.encode().len() as u64),
            LogRecord::Checkpoint(_) => ("checkpoint", rec.encode().len() as u64),
        };
        let e = by_kind.entry(name).or_default();
        e.0 += 1;
        e.1 += size;
    }
    let mut t = Table::new(vec!["record kind", "count", "payload bytes"]);
    for (name, (count, bytes)) in &by_kind {
        t.row(vec![
            name.to_string(),
            count.to_string(),
            human_bytes(*bytes),
        ]);
    }
    println!("{t}");
    let obj_bytes: usize = store.iter().map(|(_, o)| o.value.len()).sum();
    println!(
        "stable store: {} objects, {}; log: {} stable, starts at lsn {}, master checkpoint {:?}",
        store.len(),
        human_bytes(obj_bytes as u64),
        human_bytes(wal.stable_len() as u64),
        wal.start_lsn(),
        wal.master_checkpoint()
    );
    let snap = metrics.snapshot();
    let fields = snap.fields();
    let device = fields.iter().filter(|(name, _)| {
        ["io_", "segments_", "ckpt_objects_"]
            .iter()
            .any(|p| name.starts_with(p))
    });
    println!("backend: file ({})", name_values(device));
    println!("metrics: {}", snap.to_json());
    // Dry recovery of the loaded image (clones; nothing is written back)
    // to surface the single-pass pipeline's timing/counter block.
    match recover(
        store.clone(),
        wal.clone(),
        registry(),
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    ) {
        Ok((mut engine, _)) => {
            println!(
                "recovery (dry run): {}",
                recovery_block(&engine.metrics().snapshot())
            );
            // Installing the recovered tail, still on the clones, sizes its
            // flush sets and counts the graph work of redo plus install.
            match engine.install_all() {
                Ok(()) => {
                    let fields = engine.metrics().snapshot().fields();
                    let graph = fields.iter().filter(|(name, _)| {
                        name.starts_with("rw_")
                            || name.starts_with("install_")
                            || *name == "identity_writes"
                    });
                    println!("write graph (dry run): {}", name_values(graph));
                }
                Err(e) => println!("write graph (dry run): unavailable ({e})"),
            }
        }
        Err(e) => println!("recovery (dry run): unavailable ({e})"),
    }
    Ok(())
}

/// Format the recovery counter block of a [`llog_storage::MetricsSnapshot`]
/// as one `name=value` line (the `recovery_` prefix stripped).
fn recovery_block(snap: &llog_storage::MetricsSnapshot) -> String {
    snap.fields()
        .iter()
        .filter(|(name, _)| name.starts_with("recovery_"))
        .map(|(name, v)| format!("{}={v}", &name["recovery_".len()..]))
        .collect::<Vec<_>>()
        .join(" ")
}

fn parse_policy(policy: &str) -> Result<RedoPolicy> {
    match policy {
        "vsi" => Ok(RedoPolicy::Vsi),
        "rsi" => Ok(RedoPolicy::RsiExposed),
        other => Err(LlogError::Codec {
            reason: format!("unknown policy {other:?} (expected vsi|rsi)"),
        }),
    }
}

/// `llogtool recover`: run recovery, install everything, checkpoint, save.
pub fn cmd_recover(dir: &Path, policy: &str) -> Result<()> {
    let policy = parse_policy(policy)?;
    let (store, wal) = load_dir(dir)?;
    let (mut engine, outcome) = recover(store, wal, registry(), EngineConfig::default(), policy)?;
    println!(
        "analysis scanned {} records; redo scanned {} from lsn {}; \
         {} redone, {} skipped, {} deletes applied, {} voided{}",
        outcome.analysis_scanned,
        outcome.redo_scanned,
        outcome.redo_start,
        outcome.redone,
        outcome.skipped,
        outcome.deletes_applied,
        outcome.voided,
        if outcome.torn_tail {
            " (torn tail)"
        } else {
            ""
        },
    );
    println!(
        "recovery counters: {}",
        recovery_block(&engine.metrics().snapshot())
    );
    engine.install_all()?;
    engine.checkpoint(true)?;
    let (store, wal) = engine.crash(); // volatile state is empty post-install
    save_dir(dir, &store, &wal)?;
    println!("recovered, installed and checkpointed → {}", dir.display());
    Ok(())
}

/// `llogtool backup`: recover the image, take a snapshot backup, archive
/// it to `file`, and save the (recovered, installed) image back.
pub fn cmd_backup(dir: &Path, file: &Path) -> Result<()> {
    let (store, wal) = load_dir(dir)?;
    let (mut engine, _) = recover(
        store,
        wal,
        registry(),
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )?;
    engine.begin_backup(BackupMode::Snapshot)?;
    let backup = engine.finish_backup()?;
    backup.save_to(file).map_err(io_err)?;
    println!(
        "backup of {} objects (redo from lsn {}) → {}",
        backup.objects.len(),
        backup.redo_start,
        file.display()
    );
    engine.install_all()?;
    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    save_dir(dir, &store, &wal)?;
    Ok(())
}

/// `llogtool media-recover`: the store device failed; restore from the
/// archived backup plus the directory's surviving log, and replace the
/// store device with the restored image.
pub fn cmd_media_recover(dir: &Path, file: &Path) -> Result<()> {
    let backup = Backup::load_from(file)?;
    let metrics = Metrics::new();
    // The log device survives independently of the store device, which is
    // the failed media: only the log is opened, and nothing of the old
    // store (chain or manifest) is read or parsed.
    require_existing(dir)?;
    let cfg = DeviceConfig::default();
    let log = FileLogDevice::file(&dir.join(LOG_SUBDIR), metrics.clone(), &cfg, Lsn(1))?;
    let wal = Wal::load_from_device(&log, metrics)?.ok_or_else(|| LlogError::Codec {
        reason: format!("{}: no log manifest to load", dir.display()),
    })?;
    let (mut engine, outcome) = media_recover(
        &backup,
        wal,
        registry(),
        EngineConfig::default(),
        RedoPolicy::Vsi,
    )?;
    println!(
        "media recovery from {}: {} redone, {} skipped, {} deletes applied",
        file.display(),
        outcome.redone,
        outcome.skipped,
        outcome.deletes_applied
    );
    engine.install_all()?;
    engine.checkpoint(false)?;
    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    // The restored image replaces the old chain without reading it; until
    // its manifest lands, the old one stays in place.
    let store_dev = FileStoreDevice::replace(&dir.join(STORE_SUBDIR), Metrics::new(), &cfg)?;
    DurabilityBackend::over(Box::new(log), Box::new(store_dev)).persist(&store, &wal, None)?;
    println!("restored image saved → {}", dir.display());
    Ok(())
}

/// `llogtool verify`: recover in memory and compare every logged object
/// against the replay oracle. Fails loudly on divergence.
pub fn cmd_verify(dir: &Path) -> Result<()> {
    let (store, wal) = load_dir(dir)?;
    // The oracle replays the whole log; it is only usable when the log was
    // never truncated past genesis.
    let full_log = wal.start_lsn() == llog_types::Lsn(1);
    let (engine, outcome) = recover(
        store,
        wal,
        registry(),
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )?;
    if full_log {
        let reg = registry();
        let checked = verify_against_log(&engine, &reg)?;
        let _ = replay_stable_log(engine.wal(), &reg)?;
        println!(
            "OK: {checked} objects match the oracle ({} redone, {} skipped)",
            outcome.redone, outcome.skipped
        );
    } else {
        println!(
            "log truncated (starts at {}): oracle unavailable; recovery ran clean \
             ({} redone, {} skipped)",
            engine.wal().start_lsn(),
            outcome.redone,
            outcome.skipped
        );
    }
    Ok(())
}

/// The deterministic `(object, value)` pairs `cmd_load` writes and
/// `cmd_load(check=true)` expects back. Object ids are disjoint across
/// seeds (the seed occupies the high bits), so two loads with different
/// seeds never overwrite each other.
fn load_pair(seed: u64, i: u64) -> (llog_types::ObjectId, Vec<u8>) {
    (
        llog_types::ObjectId((seed << 20) | i),
        format!("v{seed}-{i}").into_bytes(),
    )
}

/// `llogtool serve <dir>`: open (or create/recover) a served database and
/// run the TCP front end until a client sends `Shutdown`. Prints
/// `listening on <addr>` once the socket is live (the smoke tests grep
/// for it). Every acknowledged put is on the shard's log device before
/// the ack leaves the process, so a `SIGKILL` at any moment loses nothing
/// acknowledged.
pub fn cmd_serve(dir: &Path, shards: usize, addr: &str) -> Result<()> {
    use std::io::Write as _;
    reject_monolithic(dir)?;
    let registry = registry();
    let engine = llog_server::boot::open_served(dir, shards, &registry)?;
    let shards = engine.shards();
    // Background checkpoints bound both log length and restart redo work.
    engine.spawn_checkpointer(std::time::Duration::from_millis(500));
    let server = llog_server::Server::start(
        engine,
        llog_server::ServerConfig {
            addr: addr.to_string(),
        },
    )?;
    println!("llogtool serve: {shards} shard(s) at {}", dir.display());
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    // Scripts that asked for port 0 read the real address from here.
    std::fs::write(
        dir.join("server.addr"),
        format!("{}\n", server.local_addr()),
    )
    .map_err(|e| LlogError::Io {
        point: "server.addr".into(),
        reason: e.to_string(),
    })?;
    while !server.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let counters = server.counters();
    let engine = server.shutdown();
    engine.persist_all()?;
    engine.shutdown()?;
    println!(
        "served {} request(s) on {} connection(s); drained clean",
        counters.requests, counters.accepted
    );
    Ok(())
}

/// `llogtool load <addr>`: drive a seeded put workload over `conns`
/// connections; every operation waits out its ack, so a zero exit means
/// *everything printed was durably acknowledged*. With `check`, read the
/// same seeded pairs back instead and fail on any mismatch — the restart
/// oracle for the kill-mid-batch smoke test.
pub fn cmd_load(addr: &str, ops: u64, seed: u64, conns: usize, check: bool) -> Result<()> {
    let conns = conns.clamp(1, 64) as u64;
    let per_conn = ops.div_ceil(conns);
    let total = std::sync::atomic::AtomicU64::new(0);
    // Mismatches collect here instead of aborting their connection, so
    // after the join we can report the *first* divergent key (lowest
    // index) deterministically regardless of thread interleaving.
    let mismatches = std::sync::Mutex::new(Vec::<(u64, String)>::new());
    std::thread::scope(|scope| -> Result<()> {
        let mut handles = Vec::new();
        for c in 0..conns {
            let total = &total;
            let mismatches = &mismatches;
            handles.push(scope.spawn(move || -> Result<()> {
                let mut client = llog_server::Client::connect(addr)?;
                let lo = c * per_conn;
                let hi = (lo + per_conn).min(ops);
                for i in lo..hi {
                    let (object, value) = load_pair(seed, i);
                    if check {
                        let got = client.get(object)?;
                        if got != value {
                            mismatches.lock().unwrap().push((
                                i,
                                format!(
                                    "object {object}: expected {:?}, got {:?}",
                                    String::from_utf8_lossy(&value),
                                    String::from_utf8_lossy(&got),
                                ),
                            ));
                            continue;
                        }
                    } else {
                        client.put(object, &value)?;
                    }
                    total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join().expect("load connection panicked")?;
        }
        Ok(())
    })?;
    let mut mismatches = mismatches.into_inner().unwrap();
    if !mismatches.is_empty() {
        mismatches.sort_by_key(|(i, _)| *i);
        let (_, first) = &mismatches[0];
        println!(
            "check: FAILED — {} divergent key(s); first: {first}",
            mismatches.len()
        );
        return Err(LlogError::Unexplainable(format!(
            "first divergent key: {first}"
        )));
    }
    let verb = if check { "verified" } else { "acked" };
    println!(
        "load: {} op(s) {verb} over {conns} connection(s) (seed {seed})",
        total.load(std::sync::atomic::Ordering::Relaxed)
    );
    Ok(())
}

/// `llogtool replicate <dir> <primary-addr> [addr]`: attach a warm-standby
/// replica to a running primary and serve read-only `Get`/`Stats` (plus
/// `Promote`) until a client sends `Shutdown`. The replica state lives in
/// memory (it is rebuilt from the primary on every start); `<dir>` only
/// receives `replica.addr` with the bound address, mirroring
/// `<dir>/server.addr` from `llogtool serve` so scripts can find it.
pub fn cmd_replicate(dir: &Path, primary: &str, addr: &str) -> Result<()> {
    use std::io::Write as _;
    let replica = llog_server::replica::Replica::start(
        primary,
        registry(),
        llog_server::ServerConfig {
            addr: addr.to_string(),
        },
    )?;
    println!("llogtool replicate: standby of {primary}");
    println!("listening on {}", replica.local_addr());
    let _ = std::io::stdout().flush();
    std::fs::create_dir_all(dir).map_err(io_err)?;
    std::fs::write(
        dir.join("replica.addr"),
        format!("{}\n", replica.local_addr()),
    )
    .map_err(io_err)?;
    while !replica.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let counters = replica.counters();
    replica.stop()?;
    println!(
        "replicated {} chunk(s), {}; drained clean",
        counters.chunks_received,
        human_bytes(counters.bytes_received)
    );
    Ok(())
}

/// `llogtool promote <addr> [--from-dir <dir>]`: promote the replica at
/// `addr` to primary. With `--from-dir`, each shard first catches up from
/// the crashed primary's on-disk log under `<dir>/shard-N` — the primary
/// persists before acking, so this closes any shipping gap a `SIGKILL`
/// left open.
pub fn cmd_promote(addr: &str, from_dir: Option<&Path>) -> Result<()> {
    let source = from_dir
        .map(|d| d.display().to_string())
        .unwrap_or_default();
    let mut client = llog_server::Client::connect(addr)?;
    client.promote(&source)?;
    match from_dir {
        Some(d) => println!(
            "promote: {addr} is now primary (device catch-up from {})",
            d.display()
        ),
        None => println!("promote: {addr} is now primary"),
    }
    Ok(())
}

/// `name=value` pairs, space-separated.
fn name_values<'a>(fields: impl IntoIterator<Item = &'a (&'static str, u64)>) -> String {
    fields
        .into_iter()
        .map(|(name, v)| format!("{name}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `llogtool lag <addr>`: print the replication watermark/lag counters
/// (`repl_*`) of a server or replica, one `name=value` per counter.
pub fn cmd_lag(addr: &str) -> Result<()> {
    let mut client = llog_server::Client::connect(addr)?;
    let fields = client.stats()?.aggregate.fields();
    let repl = fields.iter().filter(|(name, _)| name.starts_with("repl_"));
    println!("lag: {}", name_values(repl));
    Ok(())
}

/// The two lines `llogtool stats <addr>` prints: `server: shards=N` and
/// the group-commit counters, then every aggregate counter.
fn server_stats_lines(s: &llog_server::StatsBody) -> String {
    format!(
        "server: shards={} {}\nmetrics: {}",
        s.shards,
        name_values(&s.group_commit.fields()),
        name_values(&s.aggregate.fields())
    )
}

/// `llogtool stats <addr>`: every counter of a live server or replica as
/// `name=value`.
pub fn cmd_server_stats(addr: &str) -> Result<()> {
    let mut client = llog_server::Client::connect(addr)?;
    println!("{}", server_stats_lines(&client.stats()?));
    Ok(())
}

/// `llogtool stop <addr>`: ask a running server to drain and exit.
pub fn cmd_stop(addr: &str) -> Result<()> {
    let mut client = llog_server::Client::connect(addr)?;
    client.shutdown_server()?;
    println!("stop: acknowledged by {addr}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A uniquely-named per-test directory, removed on drop — including
    /// drops during panic unwinding, so a failing test never leaves a
    /// stale directory behind to poison a later run. The name carries the
    /// pid plus a process-wide counter so concurrent test binaries (and
    /// concurrent tests within one binary) never collide.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(name: &str) -> TestDir {
            static NONCE: AtomicU64 = AtomicU64::new(0);
            let n = NONCE.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("llogtool-test-{name}-{}-{n}", std::process::id()));
            assert!(!dir.exists(), "temp dir collision: {}", dir.display());
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    impl std::ops::Deref for TestDir {
        type Target = Path;
        fn deref(&self) -> &Path {
            self.path()
        }
    }

    #[test]
    fn demo_then_verify_roundtrip() {
        let dir = TestDir::new("verify");
        cmd_demo(&dir, 120, 7).unwrap();
        cmd_verify(&dir).unwrap();
    }

    #[test]
    fn demo_roundtrips_through_every_command() {
        let dir = TestDir::new("recover");
        cmd_demo(&dir, 80, 13).unwrap();
        assert!(dir.join(LOG_SUBDIR).join("wal-manifest.llog").is_file());
        cmd_dump(&dir).unwrap();
        cmd_stats(&dir).unwrap();
        cmd_verify(&dir).unwrap();
        cmd_recover(&dir, "rsi").unwrap();
        // recover saved back incrementally; after recover+install, a second
        // recovery finds nothing to redo.
        let (store, wal) = load_dir(&dir).unwrap();
        let (_, out) = recover(
            store,
            wal,
            registry(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert_eq!(out.redone, 0);
    }

    #[test]
    fn recover_with_vsi_policy_works() {
        let dir = TestDir::new("vsi");
        cmd_demo(&dir, 60, 3).unwrap();
        cmd_recover(&dir, "vsi").unwrap();
    }

    #[test]
    fn bad_policy_is_rejected() {
        let dir = TestDir::new("badpolicy");
        cmd_demo(&dir, 10, 1).unwrap();
        assert!(cmd_recover(&dir, "bogus").is_err());
    }

    /// Media recovery replaces a lost or damaged store device — gone, a
    /// rotten delta, a rotten manifest — without reading it, and leaves a
    /// directory that `load`, `verify` and `recover` accept.
    #[test]
    fn media_recover_replaces_a_lost_or_damaged_store_device() {
        use llog_storage::device::STORE_MANIFEST;
        for what in ["gone", "ckpt-", STORE_MANIFEST] {
            let dir = TestDir::new(&format!("media-{}", &what[..4]));
            cmd_demo(&dir, 100, 11).unwrap();
            let backup_file = dir.join("backup.llog");
            cmd_backup(&dir, &backup_file).unwrap();
            let store_dir = dir.join(STORE_SUBDIR);
            if what == "gone" {
                std::fs::remove_dir_all(&store_dir).unwrap();
            } else {
                let victim = std::fs::read_dir(&store_dir)
                    .unwrap()
                    .map(|e| e.unwrap().path())
                    .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with(what))
                    .unwrap_or_else(|| panic!("{what}: no blob to damage"));
                let mut bytes = std::fs::read(&victim).unwrap();
                let at = bytes.len() / 2;
                bytes[at] ^= 0x40;
                std::fs::write(&victim, bytes).unwrap();
                assert!(load_dir(&dir).is_err(), "{what}: damage went unnoticed");
            }
            cmd_media_recover(&dir, &backup_file)
                .unwrap_or_else(|e| panic!("{what}: media-recover failed: {e}"));
            let deltas = std::fs::read_dir(&store_dir)
                .unwrap()
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name();
                    name.to_str().unwrap().starts_with("ckpt-")
                })
                .count();
            assert_eq!(deltas, 1, "{what}: the old deltas outlived the new image");
            load_dir(&dir).unwrap_or_else(|e| panic!("{what}: load failed: {e}"));
            cmd_verify(&dir).unwrap_or_else(|e| panic!("{what}: verify failed: {e}"));
            cmd_recover(&dir, "rsi").unwrap();
        }
    }

    /// `save_dir` opens a second backend over the directory the store was
    /// loaded from; it still writes only the objects changed since.
    #[test]
    fn save_dir_writes_only_the_dirty_objects() {
        let dir = TestDir::new("save-dirty");
        cmd_demo(&dir, 120, 7).unwrap();
        let (mut store, wal) = load_dir(&dir).unwrap();
        let ids: Vec<_> = store.iter().map(|(x, _)| *x).take(2).collect();
        for x in ids {
            store.write(x, llog_types::Value::from("dirty"), wal.end_lsn());
        }
        let out = save_dir(&dir, &store, &wal).unwrap().ckpt;
        assert_eq!((out.objects_written, out.compacted), (2, false));
        assert_eq!(out.objects_skipped, store.len() as u64 - 2);
        let (loaded, _) = load_dir(&dir).unwrap();
        assert_eq!(loaded.snapshot(), store.snapshot());
    }

    #[test]
    fn shard_demo_roundtrip_and_per_shard_dirs_are_real_databases() {
        let dir = TestDir::new("sharddemo");
        cmd_shard_demo(&dir, 2, 40, 5).unwrap();
        // Each shard directory is a full database the other commands accept.
        for i in 0..2 {
            let shard_dir = dir.join(format!("shard-{i}"));
            cmd_stats(&shard_dir).unwrap();
            cmd_verify(&shard_dir).unwrap();
            cmd_recover(&shard_dir, "rsi").unwrap();
        }
    }

    /// The monolithic `store.llog`/`wal.llog` layout is gone, with no
    /// migration: every command pointed at such a directory (or at a parent
    /// of such shard directories) refuses with one line, and creates
    /// nothing next to the old files.
    #[test]
    fn monolithic_layout_is_rejected_by_every_command() {
        let dir = TestDir::new("monolithic");
        std::fs::write(dir.join("wal.llog"), b"old image").unwrap();
        let sharded = TestDir::new("monolithic-sharded");
        std::fs::create_dir(sharded.join("shard-0")).unwrap();
        std::fs::write(sharded.join("shard-0").join("store.llog"), b"old image").unwrap();
        let file = dir.join("backup.llog");
        let results = [
            ("demo", cmd_demo(&dir, 10, 1)),
            ("shard-demo", cmd_shard_demo(&sharded, 1, 10, 1)),
            ("dump", cmd_dump(&dir)),
            ("stats", cmd_stats(&dir)),
            ("recover", cmd_recover(&dir, "rsi")),
            ("verify", cmd_verify(&dir)),
            ("backup", cmd_backup(&dir, &file)),
            ("serve", cmd_serve(&sharded, 1, "127.0.0.1:0")),
        ];
        for (cmd, r) in results {
            let err = r.expect_err(cmd).to_string();
            assert!(
                err.contains("monolithic layout is no longer supported") && !err.contains('\n'),
                "{cmd}: {err}"
            );
        }
        assert!(!dir.join(LOG_SUBDIR).exists());
        assert!(!sharded.join("shard-0").join(LOG_SUBDIR).exists());
    }

    #[test]
    fn missing_dir_errors_cleanly() {
        let dir = std::env::temp_dir().join(format!(
            "llogtool-definitely-missing-{}",
            std::process::id()
        ));
        assert!(cmd_dump(&dir).is_err());
        assert!(cmd_stats(&dir).is_err());
    }

    #[test]
    fn serve_load_check_stop_roundtrip() {
        let dir = TestDir::new("serve");
        let serve_dir = dir.path().to_path_buf();
        let server = std::thread::spawn(move || cmd_serve(&serve_dir, 2, "127.0.0.1:0"));
        // `serve` writes the bound address once the socket is live.
        let addr_file = dir.join("server.addr");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if s.trim().parse::<std::net::SocketAddr>().is_ok() {
                    break s.trim().to_string();
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never published its address"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        };
        cmd_load(&addr, 60, 3, 2, false).unwrap(); // puts, all acked
        cmd_load(&addr, 60, 3, 2, true).unwrap(); // reads, all verified
        assert!(
            cmd_load(&addr, 60, 4, 1, true).is_err(),
            "a seed that was never loaded must fail verification"
        );
        cmd_stop(&addr).unwrap();
        server.join().unwrap().unwrap();
        // The served directory is a real database per shard.
        for i in 0..2 {
            cmd_verify(&dir.join(format!("shard-{i}"))).unwrap();
        }
    }

    /// Wait for `<dir>/<file>` to hold a parseable socket address.
    fn wait_addr(dir: &Path, file: &str) -> String {
        let path = dir.join(file);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            if let Ok(s) = std::fs::read_to_string(&path) {
                if s.trim().parse::<std::net::SocketAddr>().is_ok() {
                    return s.trim().to_string();
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{file} never appeared in {}",
                dir.display()
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    /// `llogtool stats <addr>` names every counter once, and CI's `sed`
    /// probes (`forces_coalesced=`, `io_fsyncs=`, ` batches=`) each find
    /// exactly one value.
    #[test]
    fn server_stats_print_every_counter_once() {
        let body = llog_server::StatsBody {
            shards: 2,
            ..Default::default()
        };
        let out = server_stats_lines(&body);
        assert!(out.starts_with("server: shards=2 batches=0 "), "{out}");
        let (gc, agg) = (body.group_commit.fields(), body.aggregate.fields());
        let names = gc.iter().chain(&agg).map(|(n, _)| *n);
        for name in names.chain(["shards"]) {
            let key = format!("{name}=");
            let hits = out
                .split([' ', '\n'])
                .filter(|w| w.starts_with(&key))
                .count();
            assert_eq!(hits, 1, "{name} in {out}");
        }
        for probe in ["forces_coalesced=", "io_fsyncs=", " batches="] {
            assert_eq!(
                out.lines().filter(|l| l.contains(probe)).count(),
                1,
                "{probe}"
            );
        }
    }

    #[test]
    fn replicate_promote_lag_failover_roundtrip() {
        let dir = TestDir::new("replicate");
        let primary_dir = dir.join("primary");
        let replica_dir = dir.join("replica");
        let serve_dir = primary_dir.clone();
        let server = std::thread::spawn(move || cmd_serve(&serve_dir, 2, "127.0.0.1:0"));
        let addr = wait_addr(&primary_dir, "server.addr");

        let (rdir, raddr_of) = (replica_dir.clone(), addr.clone());
        let replica = std::thread::spawn(move || cmd_replicate(&rdir, &raddr_of, "127.0.0.1:0"));
        let raddr = wait_addr(&replica_dir, "replica.addr");

        cmd_load(&addr, 40, 8, 2, false).unwrap(); // acked on the primary
                                                   // The replica converges to the primary's acked state; `check`
                                                   // fails only while it is still catching up.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while cmd_load(&raddr, 40, 8, 1, true).is_err() {
            assert!(
                std::time::Instant::now() < deadline,
                "replica never caught up with the primary"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        cmd_lag(&raddr).unwrap();
        // Writes are refused until promotion.
        assert!(cmd_load(&raddr, 1, 99, 1, false).is_err());

        // Fail over: stop the primary, promote with device catch-up.
        cmd_stop(&addr).unwrap();
        server.join().unwrap().unwrap();
        cmd_promote(&raddr, Some(&primary_dir)).unwrap();
        cmd_load(&raddr, 40, 8, 1, true).unwrap(); // every acked pair survives
        cmd_load(&raddr, 20, 12, 1, false).unwrap(); // and it takes writes now
        cmd_load(&raddr, 20, 12, 1, true).unwrap();

        cmd_stop(&raddr).unwrap();
        replica.join().unwrap().unwrap();
    }
}
