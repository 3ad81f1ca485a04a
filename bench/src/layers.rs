//! Per-layer metrics of a traced run. Layers are the crates; everything
//! here is measured from the benchmark's own files — by timing its calls
//! into public functions, by reading public counters, and by **layer
//! probes**: the first [`PROBE_OPS`](crate::PROBE_OPS) ops / log records
//! of the workload replayed through one layer's public entry point alone.
//! The server's inside is opaque from outside, so served workloads also
//! run an **engine twin**: the same ops applied by two threads directly
//! to a second `open_served` engine.
//!
//! Every traced run prints every metric of [`PER_LAYER`]; a layer the
//! workload never enters reads 0 (README.md has the interaction table).

use std::path::Path;
use std::sync::Barrier;

use llog_ops::{builtin, OpKind, Operation, Transform, TransformRegistry};
use llog_server::boot::open_served;
use llog_server::proto::{decode_request, encode_request, frame, read_frame};
use llog_server::Request;
use llog_storage::device::{BlobStore, DeviceConfig, FileBlobs, FileLogDevice, LogDevice};
use llog_storage::Metrics;
use llog_storage::VersionStore;
use llog_types::{crc32c, Lsn, ObjectId, OpId, Result, Value};
use llog_wal::{LogRecord, Wal};

use crate::embedded::EmbeddedTrace;
use crate::gen::{requests, value_of, Op};
use crate::report::Report;
use crate::served::{ServedTrace, CONNS, SHARDS};
use crate::stats::{median, p50, quantile_sorted};
use crate::trace::{Tracer, NONE};
use crate::{Env, PROBE_OPS};

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("types.crc32c_ns_per_kib", "ns/KiB"),
    ("server.proto_encode_ns", "ns"),
    ("server.proto_decode_ns", "ns"),
    ("server.overhead_us", "us"),
    ("server.put_p50_us", "us"),
    ("server.get_p50_ns", "ns"),
    ("server.p99_us", "us"),
    ("server.p999_us", "us"),
    ("server.max_stall_ms", "ms"),
    ("server.boot_ms", "ms"),
    ("server.listen_to_ack_ms", "ms"),
    ("server.requests", "count"),
    ("server.protocol_errors", "count"),
    ("engine.submit_ns", "ns"),
    ("engine.commit_p50_us", "us"),
    ("engine.read_snapshot_ns", "ns"),
    ("engine.lock_count_per_read", "count"),
    ("engine.ops_per_batch", "count"),
    ("engine.fsyncs_per_kop", "count"),
    ("engine.coalesced_share", "ratio"),
    ("engine.flush_wait_us", "us"),
    ("engine.backpressure_waits", "count"),
    ("engine.double_buffer_overlap_ms", "ms"),
    ("engine.checkpoint_ms", "ms"),
    ("engine.versions_retained", "count"),
    ("engine.versions_gced", "count"),
    ("engine.load_ms", "ms"),
    ("engine.recover_ms", "ms"),
    ("engine.redo_ops", "count"),
    ("engine.skipped_ops", "count"),
    ("engine.acks_lost_at_kill", "count"),
    ("wal.encode_ns", "ns"),
    ("wal.decode_ns", "ns"),
    ("wal.append_ns", "ns"),
    ("wal.scan_mb_s", "MB/s"),
    ("wal.load_ms", "ms"),
    ("wal.bytes_per_record", "bytes"),
    ("wal.records_per_op", "count"),
    ("wal.persist_us", "us"),
    ("storage.fsync_us", "us"),
    ("storage.log_append_us", "us"),
    ("storage.io_bytes_per_op", "bytes"),
    ("storage.segments_rotated", "count"),
    ("storage.segments_recycled", "count"),
    ("storage.ckpt_ms", "ms"),
    ("storage.ckpt_objects_written", "count"),
    ("storage.store_load_ms", "ms"),
    ("storage.mvcc_read_ns", "ns"),
    ("ops.apply_ns", "ns"),
    ("core.execute_ns", "ns"),
    ("core.install_ns_per_op", "ns"),
    ("core.checkpoint_ms", "ms"),
    ("core.flush_set_mean", "count"),
    ("core.flush_set_max", "count"),
    ("core.identity_writes_per_kop", "count"),
    ("core.uninstalled_at_crash", "count"),
    ("core.analysis_ms", "ms"),
    ("core.redo_ms", "ms"),
    ("core.redo_ops", "count"),
    ("core.skipped_ops", "count"),
    ("core.voided_ops", "count"),
    ("core.records_decoded", "count"),
    ("domains.btree_insert_us", "us"),
    ("domains.btree_remove_us", "us"),
    ("domains.btree_get_ns", "ns"),
    ("domains.fs_append_us", "us"),
    ("domains.fs_copy_us", "us"),
    ("domains.fs_sort_us", "us"),
    ("domains.queue_enqueue_us", "us"),
    ("domains.queue_ack_us", "us"),
    ("domains.appvm_step_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_pct", "%"),
    ("trace.spans", "count"),
];

/// The per-layer values of one run: every name of [`PER_LAYER`], 0 until
/// set.
pub struct Sheet(Vec<(f64, usize)>);

impl Sheet {
    pub fn new() -> Sheet {
        Sheet(vec![(0.0, 0); PER_LAYER.len()])
    }

    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(m, _)| *m == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.0[Sheet::index(name)] = (value, n);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[Sheet::index(name)].0
    }

    /// Move every value into the report, in contract order.
    pub fn into_report(self, report: &mut Report) {
        for ((name, unit), (value, n)) in PER_LAYER.iter().zip(self.0) {
            report.metric(name, value, unit, n);
        }
    }
}

fn mean(total_ns: u64, n: usize) -> f64 {
    total_ns as f64 / n.max(1) as f64
}

/// The log record a served `Put` appends: a physical `CONST` write.
fn put_record(i: usize, op: &Op, value_len: usize) -> LogRecord {
    LogRecord::Op(Operation::new(
        OpId(i as u64),
        OpKind::Physical,
        vec![],
        vec![ObjectId(op.key)],
        put_transform(op, value_len),
    ))
}

fn put_transform(op: &Op, value_len: usize) -> Transform {
    Transform::new(
        builtin::CONST,
        builtin::encode_values(&[Value::from(value_of(op.key, op.version, value_len))]),
    )
}

/// `types` and `wal` probes over the workload's log records, and the
/// `storage` device floor. Runs for every workload.
pub fn probe_log_and_device(
    sheet: &mut Sheet,
    records: &[LogRecord],
    scratch: &Path,
    tracer: &mut Tracer,
) -> Result<()> {
    let n = records.len();
    // wal: encode, decode, append + force per 16, scan.
    let t0 = tracer.now();
    let encoded: Vec<Vec<u8>> = records.iter().map(LogRecord::encode).collect();
    let t1 = tracer.now();
    let mut decoded = 0usize;
    for bytes in &encoded {
        decoded += usize::from(LogRecord::decode(std::hint::black_box(bytes)).is_ok());
    }
    let t2 = tracer.now();
    let mut wal = Wal::new(Metrics::new());
    for (i, rec) in records.iter().enumerate() {
        wal.append(rec);
        if i % 16 == 15 {
            wal.force();
        }
    }
    wal.force();
    let t3 = tracer.now();
    let scanned = wal.scan(wal.start_lsn()).filter(|r| r.is_ok()).count();
    let t4 = tracer.now();
    std::hint::black_box((decoded, scanned));
    sheet.set("wal.encode_ns", mean(t1 - t0, n), n);
    sheet.set("wal.decode_ns", mean(t2 - t1, n), n);
    sheet.set("wal.append_ns", mean(t3 - t2, n), n);
    let log_mb = wal.stable_len() as f64 / 1e6;
    sheet.set("wal.scan_mb_s", log_mb / ((t4 - t3).max(1) as f64 / 1e9), n);
    tracer.record("probe.wal", t0, t4, NONE, NONE);

    // types: crc32c over the same frames.
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let c0 = tracer.now();
    let mut acc = 0u32;
    for frame in &encoded {
        acc ^= crc32c(std::hint::black_box(frame));
    }
    let c1 = tracer.now();
    std::hint::black_box(acc);
    sheet.set(
        "types.crc32c_ns_per_kib",
        (c1 - c0) as f64 / (bytes.max(1) as f64 / 1024.0),
        n,
    );

    // storage: the device floor. When every latency moves and this moved
    // too, the machine moved, not the code.
    const FLOOR_SAMPLES: usize = 2_000;
    let mut blobs = FileBlobs::open(&scratch.join("probe-blobs"))?;
    let page = vec![0xA5u8; 4096];
    let mut fsync_ns = Vec::with_capacity(FLOOR_SAMPLES);
    for _ in 0..FLOOR_SAMPLES {
        let s = tracer.now();
        blobs.append("floor", &page)?;
        blobs.sync()?;
        let e = tracer.now();
        tracer.record("storage.fsync", s, e, NONE, NONE);
        fsync_ns.push(e - s);
    }
    sheet.set("storage.fsync_us", p50(&fsync_ns) / 1e3, FLOOR_SAMPLES);
    let mut dev = FileLogDevice::file(
        &scratch.join("probe-log"),
        Metrics::new(),
        &DeviceConfig::default().with_fast_segments(2),
        Lsn(1),
    )?;
    let chunk = vec![0x5Au8; 2048];
    let mut append_ns = Vec::with_capacity(FLOOR_SAMPLES);
    for _ in 0..FLOOR_SAMPLES {
        let s = tracer.now();
        let at = dev.end();
        dev.append(at, &chunk, None)?;
        dev.force(None)?;
        append_ns.push(tracer.now() - s);
    }
    sheet.set(
        "storage.log_append_us",
        p50(&append_ns) / 1e3,
        FLOOR_SAMPLES,
    );
    let _ = std::fs::remove_dir_all(scratch.join("probe-blobs"));
    let _ = std::fs::remove_dir_all(scratch.join("probe-log"));
    Ok(())
}

/// `server`, `ops` and `storage.mvcc` probes over the workload's requests.
fn probe_served(
    sheet: &mut Sheet,
    ops: &[Op],
    value_len: usize,
    tracer: &mut Tracer,
) -> Result<()> {
    let reqs: Vec<Request> = requests(ops, value_len, 1);
    let n = reqs.len();
    let t0 = tracer.now();
    let frames: Vec<Vec<u8>> = reqs.iter().map(|r| frame(&encode_request(r))).collect();
    let t1 = tracer.now();
    let mut ok = 0usize;
    for f in &frames {
        let mut cursor: &[u8] = std::hint::black_box(f);
        if let Some(payload) = read_frame(&mut cursor)? {
            ok += usize::from(decode_request(&payload).is_ok());
        }
    }
    let t2 = tracer.now();
    std::hint::black_box(ok);
    sheet.set("server.proto_encode_ns", mean(t1 - t0, n), n);
    sheet.set("server.proto_decode_ns", mean(t2 - t1, n), n);

    // ops: the CONST transform a put applies.
    let registry = TransformRegistry::with_builtins();
    let puts: Vec<&Op> = ops.iter().filter(|o| o.is_put()).collect();
    let transforms: Vec<Transform> = puts.iter().map(|o| put_transform(o, value_len)).collect();
    let a0 = tracer.now();
    for (i, t) in transforms.iter().enumerate() {
        std::hint::black_box(registry.apply(OpId(i as u64), t, &[], 1)?);
    }
    let a1 = tracer.now();
    sheet.set(
        "ops.apply_ns",
        mean(a1 - a0, transforms.len()),
        transforms.len(),
    );

    // storage.mvcc: publish every put as a version, read each key back at
    // the newest SI.
    let versions = VersionStore::new(Metrics::new());
    for (i, op) in puts.iter().enumerate() {
        let value = Value::from(value_of(op.key, op.version, value_len));
        versions.publish(ObjectId(op.key), Lsn(i as u64 + 1), value, false);
    }
    let newest = Lsn(puts.len() as u64 + 1);
    let m0 = tracer.now();
    for op in ops {
        std::hint::black_box(versions.read_at(ObjectId(op.key), newest));
    }
    let m1 = tracer.now();
    sheet.set("storage.mvcc_read_ns", mean(m1 - m0, n), n);
    Ok(())
}

/// Puts the twin waits durable one at a time. 20 000 lock-step puts would
/// take 13 s at 1.3 ms each; a p50 is steady long before that.
const TWIN_PUTS: usize = 4_000;

/// Puts acked before the twin's kill (`engine.acks_lost_at_kill`).
const KILL_PROBE_PUTS: usize = 2_000;

/// The engine twin: the workload's first ops applied by two threads
/// directly to a second `open_served` engine — `execute` →
/// `CommitTicket::wait` per put, `read_value_snapshot` per get — then a
/// read pass, then `checkpoint_all(true)` + `persist_all`, then the kill
/// probe.
fn engine_twin(
    sheet: &mut Sheet,
    lanes: &[Vec<Op>],
    value_len: usize,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<()> {
    let registry = TransformRegistry::with_builtins();
    let engine = open_served(dir, SHARDS, &registry)?;
    let start = Barrier::new(lanes.len());
    type LaneSamples = (Vec<u64>, Vec<u64>, Vec<u64>, Tracer);
    let per_lane: Vec<Result<LaneSamples>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .map(|ops| {
                let (engine, start) = (&engine, &start);
                let mut t = tracer.sibling();
                scope.spawn(move || -> Result<LaneSamples> {
                    let (mut submit, mut commit, mut read) = (Vec::new(), Vec::new(), Vec::new());
                    start.wait();
                    for (i, op) in ops.iter().enumerate() {
                        if submit.len() >= TWIN_PUTS / CONNS {
                            break;
                        }
                        let object = ObjectId(op.key);
                        let t0 = t.now();
                        if op.is_put() {
                            let ticket = engine.execute(
                                OpKind::Physical,
                                vec![],
                                vec![object],
                                put_transform(op, value_len),
                            )?;
                            let t1 = t.now();
                            ticket.wait();
                            let t2 = t.now();
                            submit.push(t1 - t0);
                            commit.push(t2 - t0);
                            t.record("engine.commit", t0, t2, NONE, i as u32);
                        } else {
                            std::hint::black_box(engine.read_value_snapshot(object)?);
                            read.push(t.now() - t0);
                        }
                    }
                    Ok((submit, commit, read, t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a twin thread panicked"))
            .collect()
    });
    let (mut submit, mut commit, mut read) = (Vec::new(), Vec::new(), Vec::new());
    for lane in per_lane {
        let (s, c, r, t) = lane?;
        submit.extend(s);
        commit.extend(c);
        read.extend(r);
        tracer.absorb(t);
    }
    sheet.set("engine.submit_ns", p50(&submit), submit.len());
    sheet.set("engine.commit_p50_us", p50(&commit) / 1e3, commit.len());

    // The read pass: every key the twin wrote, through the snapshot path,
    // which must never take an engine mutex.
    let keys: Vec<u64> = lanes
        .iter()
        .flat_map(|ops| ops.iter().filter(|o| o.is_put()).map(|o| o.key))
        .take(PROBE_OPS)
        .collect();
    let locks_before = engine.engine_lock_count();
    let r0 = tracer.now();
    for key in &keys {
        std::hint::black_box(engine.read_value_snapshot(ObjectId(*key))?);
    }
    let r1 = tracer.now();
    let locks = engine.engine_lock_count() - locks_before;
    let reads = keys.len() + read.len();
    let read_ns = (r1 - r0) + read.iter().sum::<u64>();
    sheet.set("engine.read_snapshot_ns", mean(read_ns, reads), reads);
    sheet.set(
        "engine.lock_count_per_read",
        locks as f64 / keys.len().max(1) as f64,
        keys.len(),
    );

    let c0 = tracer.now();
    engine.checkpoint_all(true)?;
    engine.persist_all()?;
    let c1 = tracer.now();
    tracer.record("engine.checkpoint", c0, c1, NONE, NONE);
    sheet.set("engine.checkpoint_ms", (c1 - c0) as f64 / 1e6, 1);
    let snap = engine.metrics_snapshot().aggregate;
    sheet.set("engine.versions_retained", snap.versions_retained as f64, 1);
    sheet.set("engine.versions_gced", snap.versions_gced as f64, 1);

    // The kill with nothing done on the engine's behalf (the served
    // workloads' kill writes the store through first, see
    // `served::STORE_WRITE_THROUGH_AT_KILL`): a batch of puts each waited
    // durable, the engine dropped, `open_served`, every key read back.
    let mut acked = std::collections::BTreeMap::new();
    let mut tickets = Vec::with_capacity(KILL_PROBE_PUTS);
    for op in lanes.iter().flatten().filter(|o| o.is_put()) {
        if tickets.len() == KILL_PROBE_PUTS {
            break;
        }
        // A version the workload never writes, so a survivor of the
        // earlier passes cannot pass for this put.
        let probe = Op {
            version: op.version + 1_000_000,
            ..*op
        };
        tickets.push(engine.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(op.key)],
            put_transform(&probe, value_len),
        )?);
        acked.insert(op.key, value_of(op.key, probe.version, value_len));
    }
    let durable = tickets.iter().filter(|t| t.wait()).count();
    drop(tickets);
    drop(engine);
    let engine = open_served(dir, SHARDS, &registry)?;
    let mut lost = 0usize;
    for (key, value) in &acked {
        lost +=
            usize::from(engine.read_value_snapshot(ObjectId(*key))?.as_bytes() != value.as_slice());
    }
    sheet.set("engine.acks_lost_at_kill", lost as f64, durable);
    drop(engine);
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}

/// Every per-layer metric of a served workload.
pub fn served(t: &ServedTrace, env: &Env, tracer: &mut Tracer, sheet: &mut Sheet) -> Result<()> {
    let len = t.spec.value_len;
    let ms = |ns: &[u64]| median(&ns.iter().map(|v| *v as f64 / 1e6).collect::<Vec<_>>());

    // server: the pipelined phase per op type, the restarts, the counters.
    let mut put_ns = Vec::new();
    let mut get_ns = Vec::new();
    let mut all_ns = Vec::new();
    let mut stall_ns = 0u64;
    for (lane, ops) in t.pipelined.iter().zip(&t.pipelined_ops) {
        for (ns, i) in lane.lat_ns.iter().zip(&lane.lat_op) {
            if ops[*i as usize].is_put() {
                put_ns.push(*ns);
            } else {
                get_ns.push(*ns);
            }
        }
        all_ns.extend_from_slice(&lane.lat_ns);
        // Completions of consecutive ops only: a traced segment's last op
        // and the next traced segment's first are a whole segment apart.
        for (w, i) in lane.done_ns.windows(2).zip(lane.lat_op.windows(2)) {
            if i[1] == i[0] + 1 {
                stall_ns = stall_ns.max(w[1] - w[0]);
            }
        }
    }
    sheet.set("server.put_p50_us", p50(&put_ns) / 1e3, put_ns.len());
    sheet.set("server.get_p50_ns", p50(&get_ns), get_ns.len());
    if !all_ns.is_empty() {
        all_ns.sort_unstable();
        let q = |p| quantile_sorted(&all_ns, p) as f64 / 1e3;
        sheet.set("server.p99_us", q(0.99), all_ns.len());
        sheet.set("server.p999_us", q(0.999), all_ns.len());
    }
    sheet.set("server.max_stall_ms", stall_ns as f64 / 1e6, all_ns.len());
    let production: Vec<u64> = t
        .boots
        .iter()
        .filter(|b| b.load_ns == 0)
        .map(|b| b.open_ns)
        .collect();
    let by_hand: Vec<_> = t.boots.iter().filter(|b| b.load_ns > 0).collect();
    sheet.set("server.boot_ms", ms(&production), production.len());
    sheet.set(
        "server.listen_to_ack_ms",
        ms(&t.listen_to_ack_ns),
        t.listen_to_ack_ns.len(),
    );
    sheet.set("server.requests", t.requests as f64, 1);
    sheet.set("server.protocol_errors", t.protocol_errors as f64, 1);

    // engine: the restart taken apart, the group-commit counters.
    let of = |f: fn(&crate::served::BootTimes) -> u64| -> Vec<u64> {
        by_hand.iter().map(|b| f(b)).collect()
    };
    let (load, recover_ns) = (of(|b| b.load_ns), of(|b| b.recover_ns));
    sheet.set("engine.load_ms", ms(&load), load.len());
    sheet.set("engine.recover_ms", ms(&recover_ns), recover_ns.len());
    sheet.set(
        "storage.store_load_ms",
        ms(&of(|b| b.store_load_ns)),
        by_hand.len(),
    );
    sheet.set("wal.load_ms", ms(&of(|b| b.wal_load_ns)), by_hand.len());
    if let Some(last) = by_hand.last() {
        let redone: u64 = last.outcomes.iter().map(|o| o.redone).sum();
        let skipped: u64 = last.outcomes.iter().map(|o| o.skipped).sum();
        sheet.set("engine.redo_ops", redone as f64, last.outcomes.len());
        sheet.set("engine.skipped_ops", skipped as f64, last.outcomes.len());
    }
    let c = &t.phase;
    let kops = c.ops as f64 / 1e3;
    sheet.set(
        "engine.ops_per_batch",
        c.batched_ops as f64 / c.batches.max(1) as f64,
        c.batches as usize,
    );
    sheet.set(
        "engine.fsyncs_per_kop",
        c.io_fsyncs as f64 / kops,
        c.ops as usize,
    );
    sheet.set(
        "engine.coalesced_share",
        c.forces_coalesced as f64 / (c.forces_coalesced + c.io_fsyncs).max(1) as f64,
        c.io_fsyncs as usize,
    );
    sheet.set(
        "engine.flush_wait_us",
        c.flush_wait_ns as f64 / c.waits.max(1) as f64 / 1e3,
        c.waits as usize,
    );
    sheet.set("engine.backpressure_waits", c.backpressure_waits as f64, 1);
    sheet.set(
        "engine.double_buffer_overlap_ms",
        c.double_buffer_overlap_ns as f64 / 1e6,
        1,
    );
    sheet.set(
        "wal.bytes_per_record",
        c.log_bytes as f64 / c.log_records.max(1) as f64,
        c.log_records as usize,
    );
    sheet.set(
        "wal.records_per_op",
        c.log_records as f64 / c.puts.max(1) as f64,
        c.puts as usize,
    );
    sheet.set(
        "storage.io_bytes_per_op",
        c.io_bytes_written as f64 / c.ops.max(1) as f64,
        c.ops as usize,
    );
    sheet.set("storage.segments_rotated", c.segments_rotated as f64, 1);
    sheet.set("storage.segments_recycled", c.segments_recycled as f64, 1);
    sheet.set(
        "storage.ckpt_objects_written",
        c.ckpt_objects_written as f64,
        1,
    );
    sheet.set(
        "core.uninstalled_at_crash",
        t.uninstalled_at_crash as f64,
        1,
    );

    // The twin and the probes replay the workload's first ops.
    let first: Vec<Vec<Op>> = t
        .lockstep_ops
        .iter()
        .zip(&t.pipelined_ops)
        .map(|(a, b)| a.iter().chain(b).copied().take(PROBE_OPS / CONNS).collect())
        .collect();
    engine_twin(sheet, &first, len, &env.data_dir.join("twin"), tracer)?;
    let commit_us = sheet.get("engine.commit_p50_us");
    sheet.set(
        "server.overhead_us",
        t.lockstep_p50_put_ns / 1e3 - commit_us,
        1,
    );
    // A served put's wal.persist is the engine's barrier, seen from the
    // twin as execute → durable minus execute.
    sheet.set(
        "wal.persist_us",
        commit_us - sheet.get("engine.submit_ns") / 1e3,
        1,
    );
    let flat: Vec<Op> = first.iter().flatten().copied().collect();
    probe_served(sheet, &flat, len, tracer)?;
    let records: Vec<LogRecord> = flat
        .iter()
        .filter(|o| o.is_put())
        .enumerate()
        .map(|(i, o)| put_record(i, o, len))
        .collect();
    probe_log_and_device(sheet, &records, &env.data_dir, tracer)?;

    // trace: overhead (bare odd segments vs traced even ones) and the
    // restart reconciliation: load + recover + listen→ack against the
    // whole restart.
    overhead(sheet, &t.rates);
    let restart = ms(&t.restart_ns);
    let parts = sheet.get("engine.load_ms")
        + sheet.get("engine.recover_ms")
        + sheet.get("server.listen_to_ack_ms");
    sheet.set(
        "trace.reconcile_pct",
        100.0 * parts / restart.max(1e-9),
        t.restart_ns.len(),
    );
    Ok(())
}

/// `trace.overhead_pct`: with tracing on, the pipelined phase alternates
/// traced (even) and bare (odd) segments of equal op count; the overhead
/// is how much slower the traced ones ran.
pub fn overhead(sheet: &mut Sheet, rates: &[f64]) {
    let traced: Vec<f64> = rates.iter().step_by(2).copied().collect();
    let bare: Vec<f64> = rates.iter().skip(1).step_by(2).copied().collect();
    if traced.is_empty() || bare.is_empty() {
        return;
    }
    let pct = 100.0 * (1.0 - median(&traced) / median(&bare));
    sheet.set("trace.overhead_pct", pct, rates.len());
}

/// Every per-layer metric of `embedded_logical`. The harness makes every
/// call itself there, so the spans nest for real: `client.op` ⊃
/// `domains.*`, `wal.persist`; `core.checkpoint` ⊃ `storage.ckpt`.
pub fn embedded(
    t: &EmbeddedTrace,
    env: &Env,
    tracer: &mut Tracer,
    sheet: &mut Sheet,
) -> Result<()> {
    let ms = |ns: &[u64]| median(&ns.iter().map(|v| *v as f64 / 1e6).collect::<Vec<_>>());
    for (name, span, per_us) in [
        ("domains.btree_insert_us", "domains.btree_insert", true),
        ("domains.btree_remove_us", "domains.btree_remove", true),
        ("domains.btree_get_ns", "domains.btree_get", false),
        ("domains.fs_append_us", "domains.fs_append", true),
        ("domains.fs_copy_us", "domains.fs_copy", true),
        ("domains.fs_sort_us", "domains.fs_sort", true),
        ("domains.queue_enqueue_us", "domains.queue_enqueue", true),
        ("domains.queue_ack_us", "domains.queue_ack", true),
        ("domains.appvm_step_us", "domains.appvm_step", true),
    ] {
        let d = tracer.durations(span);
        let scale = if per_us { 1e3 } else { 1.0 };
        sheet.set(name, p50(&d) / scale, d.len());
    }
    sheet.set(
        "wal.persist_us",
        p50(&t.persist_ns) / 1e3,
        t.persist_ns.len(),
    );
    let m = &t.measured;
    let kops = t.measured_ops as f64 / 1e3;
    sheet.set(
        "wal.bytes_per_record",
        m.log_bytes as f64 / m.log_records.max(1) as f64,
        m.log_records as usize,
    );
    sheet.set(
        "wal.records_per_op",
        m.log_records as f64 / t.measured_ops.max(1) as f64,
        t.measured_ops as usize,
    );
    sheet.set(
        "core.execute_ns",
        t.write_call_ns as f64 / t.write_call_records.max(1) as f64,
        t.write_call_records as usize,
    );
    sheet.set(
        "core.install_ns_per_op",
        t.install_ns as f64 / t.installed_ops.max(1) as f64,
        t.installed_ops as usize,
    );
    sheet.set(
        "core.checkpoint_ms",
        ms(&t.checkpoint_ns),
        t.checkpoint_ns.len(),
    );
    sheet.set(
        "storage.ckpt_ms",
        ms(&t.store_ckpt_ns),
        t.store_ckpt_ns.len(),
    );
    if !t.flush_sets.is_empty() {
        let total: usize = t.flush_sets.iter().sum();
        sheet.set(
            "core.flush_set_mean",
            total as f64 / t.flush_sets.len() as f64,
            t.flush_sets.len(),
        );
        sheet.set(
            "core.flush_set_max",
            *t.flush_sets.iter().max().expect("non-empty") as f64,
            t.flush_sets.len(),
        );
    }
    sheet.set(
        "core.identity_writes_per_kop",
        m.identity_writes as f64 / kops,
        t.measured_ops as usize,
    );
    sheet.set(
        "core.uninstalled_at_crash",
        t.uninstalled_at_crash as f64,
        1,
    );
    let d = &t.device;
    sheet.set(
        "storage.io_bytes_per_op",
        d.io_bytes_written as f64 / t.measured_ops.max(1) as f64,
        t.measured_ops as usize,
    );
    sheet.set(
        "engine.fsyncs_per_kop",
        d.io_fsyncs as f64 / kops,
        t.measured_ops as usize,
    );
    sheet.set("storage.segments_rotated", d.segments_rotated as f64, 1);
    sheet.set("storage.segments_recycled", d.segments_recycled as f64, 1);
    sheet.set(
        "storage.ckpt_objects_written",
        d.ckpt_objects_written as f64,
        1,
    );

    // The restarts, stage by stage, from the recovery's own counters.
    let of = |f: fn(&crate::embedded::RestartTimes) -> u64| -> Vec<u64> {
        t.restarts.iter().map(f).collect()
    };
    let n = t.restarts.len();
    sheet.set("engine.load_ms", ms(&of(|r| r.load_ns)), n);
    sheet.set("engine.recover_ms", ms(&of(|r| r.recover_ns)), n);
    sheet.set("storage.store_load_ms", ms(&of(|r| r.store_load_ns)), n);
    sheet.set(
        "wal.load_ms",
        ms(&of(|r| r.load_ns - r.store_load_ns - r.open_ns)),
        n,
    );
    sheet.set(
        "core.analysis_ms",
        ms(&of(|r| r.recovery.recovery_analysis_ns)),
        n,
    );
    sheet.set("core.redo_ms", ms(&of(|r| r.recovery.recovery_redo_ns)), n);
    if let Some(last) = t.restarts.last() {
        sheet.set("core.redo_ops", last.outcome.redone as f64, 1);
        sheet.set("core.skipped_ops", last.outcome.skipped as f64, 1);
        sheet.set("core.voided_ops", last.outcome.voided as f64, 1);
        sheet.set(
            "core.records_decoded",
            last.recovery.recovery_records_decoded as f64,
            1,
        );
    }
    sheet.set(
        "ops.apply_ns",
        mean(t.apply_probe.0, t.apply_probe.1),
        t.apply_probe.1,
    );

    probe_log_and_device(sheet, &t.sample_records, &env.data_dir, tracer)?;

    overhead(sheet, &t.rates);
    // Reconciliation: how much of every `client.op` its children (the
    // domain call and the commit) account for.
    let (total, own) = tracer.total_and_self("client.op");
    sheet.set(
        "trace.reconcile_pct",
        100.0 * (total - own) as f64 / total.max(1) as f64,
        tracer.durations("client.op").len(),
    );
    Ok(())
}
