//! The boot path's read budget and failure shape.
//!
//! A reboot reads every store and log byte once: attaching a device reads
//! manifests (and the log's segments, which `load` then reuses), `load` is
//! the one reader of the store's delta chain. A shard whose image is rotten
//! fails the whole boot with `Codec`, cleanly. A boot does not trust
//! `Install` records the store device never saw, no force
//! acknowledges log bytes the log device never synced, and no store
//! checkpoint holds an install whose record the log device lacks.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use llog_core::{Engine, EngineConfig};
use llog_engine::{recover_sharded_from_backends, CommitTicket, ShardedEngine};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_server::boot::{open_served, server_engine_config};
use llog_storage::device::{BlobStore, DeltaStore, DeviceConfig, FileBlobs, MemBlobs, SegLog};
use llog_storage::Metrics;
use llog_testkit::faults::{failpoint, FaultHost, FaultKind};
use llog_testkit::SyncGate;
use llog_types::{LlogError, Lsn, ObjectId, Result, Value};
use llog_wal::{DurabilityBackend, STORE_SUBDIR};

/// Unique per-test directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("llog-boot-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A blob store shared between the writer and the rebooted reader, counting
/// every `get` per blob name. Its `sync` goes through a [`SyncGate`].
#[derive(Debug)]
struct Counting<B> {
    inner: Arc<Mutex<B>>,
    gets: Arc<Mutex<BTreeMap<String, usize>>>,
    gate: Arc<SyncGate>,
}

impl<B> Clone for Counting<B> {
    fn clone(&self) -> Counting<B> {
        Counting {
            inner: self.inner.clone(),
            gets: self.gets.clone(),
            gate: self.gate.clone(),
        }
    }
}

impl<B: BlobStore> Counting<B> {
    fn new(inner: B) -> Counting<B> {
        Counting {
            inner: Arc::new(Mutex::new(inner)),
            gets: Arc::default(),
            gate: Arc::default(),
        }
    }

    fn reads(&self) -> BTreeMap<String, usize> {
        self.gets.lock().unwrap().clone()
    }
}

impl<B: BlobStore> BlobStore for Counting<B> {
    fn put(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.inner.lock().unwrap().put(name, bytes)
    }
    fn write_at(&mut self, name: &str, offset: u64, bytes: &[u8]) -> Result<()> {
        self.inner.lock().unwrap().write_at(name, offset, bytes)
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.inner.lock().unwrap().rename(from, to)
    }
    fn get(&self, name: &str) -> Result<Option<Vec<u8>>> {
        *self
            .gets
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default() += 1;
        self.inner.lock().unwrap().get(name)
    }
    fn delete(&mut self, name: &str) -> Result<()> {
        self.inner.lock().unwrap().delete(name)
    }
    fn sync(&mut self) -> Result<()> {
        self.gate.pass().map_err(|f| LlogError::Io {
            point: f.point,
            reason: f.reason,
        })?;
        self.inner.lock().unwrap().sync()
    }
    fn list(&self) -> Result<Vec<String>> {
        self.inner.lock().unwrap().list()
    }
}

fn backend_over<B: BlobStore + 'static>(
    log: &Counting<B>,
    store: &Counting<B>,
    cfg: &DeviceConfig,
) -> DurabilityBackend {
    let m = Metrics::new();
    let log = SegLog::attach(log.clone(), m.clone(), cfg, "counting", Lsn(1)).unwrap();
    let store = DeltaStore::attach(store.clone(), m, cfg, "counting").unwrap();
    DurabilityBackend::over(Box::new(log), Box::new(store))
}

/// Execute a blind write of `v` to `x`.
fn put(e: &ShardedEngine, x: ObjectId, v: &str) -> CommitTicket {
    let v = builtin::encode_values(&[Value::from(v)]);
    e.execute(
        OpKind::Physical,
        vec![],
        vec![x],
        Transform::new(builtin::CONST, v),
    )
    .unwrap()
}

/// Persist three checkpoint rounds through counting blobs, reboot over the
/// same blobs, and demand that `open + load` read each delta blob and each
/// log segment exactly once.
fn boot_reads_each_blob_once<B: BlobStore + 'static>(log: B, store: B) {
    let (log, store) = (Counting::new(log), Counting::new(store));
    let cfg = DeviceConfig::small();
    let mut writer = backend_over(&log, &store, &cfg);
    let mut e = Engine::new(EngineConfig::default(), TransformRegistry::with_builtins());
    for round in 0..3u64 {
        for i in 0..12u64 {
            let v = Value::from(format!("r{round}i{i}").as_str());
            e.execute(
                OpKind::Physical,
                vec![],
                vec![ObjectId(i % 5 + round)],
                Transform::new(builtin::CONST, builtin::encode_values(&[v])),
            )
            .unwrap();
        }
        e.install_all().unwrap();
        e.checkpoint(false).unwrap();
        writer.persist(e.store(), e.wal(), None).unwrap();
    }
    drop(writer);

    let (log_before, store_before) = (log.reads(), store.reads());
    let booted = backend_over(&log, &store, &cfg);
    let (s, w) = booted.load(Metrics::new()).unwrap().unwrap();
    assert_eq!(s.snapshot(), e.store().snapshot());
    assert_eq!(w.forced_lsn(), e.wal().forced_lsn());

    let during = |after: BTreeMap<String, usize>, before: &BTreeMap<String, usize>, prefix| {
        after
            .into_iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(name, n)| {
                let n = n - before.get(&name).copied().unwrap_or(0);
                (name, n)
            })
            .collect::<Vec<_>>()
    };
    let deltas = during(store.reads(), &store_before, "ckpt-");
    let segments = during(log.reads(), &log_before, "seg-");
    assert!(deltas.len() >= 3, "fixture chains deltas: {deltas:?}");
    assert!(segments.len() >= 3, "fixture seals segments: {segments:?}");
    for (name, n) in deltas.iter().chain(&segments) {
        assert_eq!(*n, 1, "{name} read {n} times during open + load");
    }
}

#[test]
fn open_and_load_read_each_delta_and_segment_once_mem() {
    boot_reads_each_blob_once(MemBlobs::new(), MemBlobs::new());
}

#[test]
fn open_and_load_read_each_delta_and_segment_once_file() {
    let d = TempDir::new("read-once");
    let log = FileBlobs::open(&d.path().join("log")).unwrap();
    let store = FileBlobs::open(&d.path().join("store")).unwrap();
    boot_reads_each_blob_once(log, store);
}

#[test]
fn rotten_delta_on_one_of_three_shards_fails_boot_with_codec() {
    let d = TempDir::new("rotten-delta");
    let reg = TransformRegistry::with_builtins();
    let e = open_served(d.path(), 3, &reg).unwrap();
    for i in 0..90u64 {
        let v = Value::from(format!("v{i}").as_str());
        let t = e
            .execute(
                OpKind::Physical,
                vec![],
                vec![ObjectId(i)],
                Transform::new(builtin::CONST, builtin::encode_values(&[v])),
            )
            .unwrap();
        assert!(t.wait());
    }
    e.install_all().unwrap();
    e.checkpoint_all(false).unwrap();
    drop(e);

    let store_dir = d.path().join("shard-1").join(STORE_SUBDIR);
    let delta = std::fs::read_dir(&store_dir)
        .unwrap()
        .map(|f| f.unwrap().path())
        .find(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("ckpt-")
        })
        .expect("shard 1 checkpointed a delta");
    let mut bytes = std::fs::read(&delta).unwrap();
    let at = bytes.len() - 2; // inside the trailing CRC
    bytes[at] ^= 0x20;
    std::fs::write(&delta, &bytes).unwrap();

    // Boot on a watchdog: a worker that panicked or never returned would
    // show up as a missing answer, not as a hung test.
    let (tx, rx) = mpsc::channel();
    let dir = d.path().to_path_buf();
    let boot = std::thread::spawn(move || {
        let r = open_served(&dir, 3, &TransformRegistry::with_builtins()).map(|e| e.shards());
        tx.send(r).unwrap();
    });
    let r = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("boot answered within the watchdog");
    boot.join().expect("boot did not panic");
    match r {
        Err(LlogError::Codec { reason }) => assert!(reason.contains("checksum"), "{reason}"),
        other => panic!("expected Codec for a rotten delta, got {other:?}"),
    }
}

/// Acked puts survive a kill after installs the store device never
/// absorbed: the store device keeps the one `persist_all` below, while the
/// log device gets every force after `install_all`. A blind put's install
/// logs no record, so boot finds each put dirty and must redo it.
#[test]
fn acked_puts_survive_installs_the_store_device_never_saw() {
    const N: u64 = 2_000;
    let d = TempDir::new("installed-through");
    let reg = TransformRegistry::with_builtins();
    let value = |i: u64| Value::from(format!("v{i}").as_str());
    let e = open_served(d.path(), 2, &reg).unwrap();
    e.persist_all().unwrap();
    let put = |i: u64| {
        let t = e
            .execute(
                OpKind::Physical,
                vec![],
                vec![ObjectId(i)],
                Transform::new(builtin::CONST, builtin::encode_values(&[value(i)])),
            )
            .unwrap();
        assert!(t.wait(), "put {i} acked");
    };
    for i in 0..N {
        put(i);
    }
    e.install_all().unwrap();
    // One more waited put per shard: its force carries whatever that
    // shard's installs appended to the log device.
    for shard in 0..2 {
        put((N..)
            .find(|&i| e.router().shard_of(ObjectId(i)) == shard)
            .unwrap());
    }
    drop(e); // no persist: the store devices hold only the first one

    let e = open_served(d.path(), 2, &reg).unwrap();
    let lost: Vec<u64> = (0..N)
        .filter(|&i| e.read_value(ObjectId(i)).unwrap() != value(i))
        .collect();
    assert!(
        lost.is_empty(),
        "{} acked puts lost, first {:?}",
        lost.len(),
        lost.first()
    );
}

/// Acked deletes survive a kill after installs the store device never
/// absorbed. A delete's install removes the object, so its `Install` record
/// is the only witness, while the store device still holds the object from
/// the last `persist_all`. Trusting that record past the store's
/// `installed_through` would bring the deleted values back.
#[test]
fn acked_deletes_survive_installs_the_store_device_never_saw() {
    const N: u64 = 200;
    let d = TempDir::new("deleted-through");
    let reg = TransformRegistry::with_builtins();
    let e = open_served(d.path(), 2, &reg).unwrap();
    let exec = |kind: OpKind, i: u64, transform: Transform| {
        let t = e
            .execute(kind, vec![], vec![ObjectId(i)], transform)
            .unwrap();
        assert!(t.wait(), "op on {i} acked");
    };
    let put = |i: u64| {
        let v = builtin::encode_values(&[Value::from("v")]);
        exec(OpKind::Physical, i, Transform::new(builtin::CONST, v));
    };
    for i in 0..N {
        put(i);
    }
    e.install_all().unwrap();
    e.persist_all().unwrap(); // the store device holds every key
    for i in (0..N).step_by(2) {
        let delete = Transform::new(builtin::DELETE, Value::empty());
        exec(OpKind::Delete, i, delete);
    }
    e.install_all().unwrap();
    // One more waited put per shard: its force carries that shard's
    // Install records to the log device.
    for shard in 0..2 {
        put((N..)
            .find(|&i| e.router().shard_of(ObjectId(i)) == shard)
            .unwrap());
    }
    drop(e); // no persist: the store devices still hold every key

    let e = open_served(d.path(), 2, &reg).unwrap();
    let wrong: Vec<u64> = (0..N)
        .filter(|&i| {
            let v = e.read_value(ObjectId(i)).unwrap();
            if i % 2 == 0 {
                !v.is_empty()
            } else {
                v != Value::from("v")
            }
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} acked ops lost, first on {:?}",
        wrong.len(),
        wrong.first()
    );
}

/// A barrier acknowledges only what it staged and synced. While one
/// waiter's barrier is parked in its device sync, K more puts are appended
/// and `install_all` runs, which installs only below the watermark and
/// forces nothing. The log device never saw those bytes, so when the held
/// sync returns, none of the K may be acked.
#[test]
fn a_barrier_acks_only_what_it_synced() {
    const K: u64 = 20;
    let e = ShardedEngine::new(server_engine_config(1), &TransformRegistry::with_builtins());
    let log = Counting::new(MemBlobs::new());
    let store = Counting::new(MemBlobs::new());
    e.attach_backend(0, backend_over(&log, &store, &DeviceConfig::small()));
    let gate = &log.gate;
    assert!(put(&e, ObjectId(0), "v").wait(), "a clean barrier acks");

    gate.set(Some(0));
    let held = put(&e, ObjectId(1), "v");
    std::thread::scope(|s| {
        let waiter = s.spawn(|| held.wait());
        gate.wait_parked();
        let later: Vec<CommitTicket> = (2..2 + K).map(|i| put(&e, ObjectId(i), "v")).collect();
        e.install_all().unwrap();
        // Let the held sync return, and no later one.
        gate.set(Some(1));
        assert!(waiter.join().unwrap(), "the held barrier acks its own put");
        let acked = later.iter().filter(|t| t.is_durable()).count();
        gate.set(None);
        assert_eq!(acked, 0, "puts acked past what the barrier synced");
        assert!(later.last().unwrap().wait(), "the next barrier acks them");
    });
}

/// A store checkpoint never runs ahead of the log device. An unacked put
/// is installed, and the checkpoint that would persist it fails on the log
/// append. The store device must not hold it after a reboot, and the next
/// acked put must not reuse its LSN and lose its REDO test to it.
#[test]
fn a_store_checkpoint_never_outruns_the_log_device() {
    let reg = TransformRegistry::with_builtins();
    let cfg = DeviceConfig::small();
    let (log, store) = (
        Counting::new(MemBlobs::new()),
        Counting::new(MemBlobs::new()),
    );
    let x = ObjectId(7);
    let reboot = || {
        let backend = backend_over(&log, &store, &cfg);
        let (e, _, backends) =
            recover_sharded_from_backends(vec![backend], &reg, server_engine_config(1)).unwrap();
        e.attach_backends(backends);
        e
    };

    let faults = Arc::new(FaultHost::new());
    let e = ShardedEngine::new_with_faults(server_engine_config(1), &reg, Some(faults.clone()));
    e.attach_backend(0, backend_over(&log, &store, &cfg));
    assert!(put(&e, x, "a").wait(), "a is acked");
    let b = put(&e, x, "b");
    e.install_all().unwrap();
    faults.arm(failpoint::DEV_LOG_APPEND, FaultKind::IoError);
    assert!(e.checkpoint_shard(0, false).is_err());
    assert!(!b.wait(), "b's shard died before b was acked");
    drop(e);

    let e = reboot();
    let after_failed_checkpoint = e.read_value(x).unwrap();
    assert!(put(&e, x, "c").wait(), "c is acked");
    drop(e);
    let after_acked_c = reboot().read_value(x).unwrap();
    assert_eq!(
        (after_failed_checkpoint, after_acked_c),
        (Value::from("a"), Value::from("c")),
        "x after the failed checkpoint, then after the acked c"
    );
}

/// A boot refuses a store device that vouches for installs past where its
/// log device lets the log resume (here: a log device that lost its
/// segments), rather than handing new operations reused LSNs.
#[test]
fn a_boot_refuses_a_store_past_its_log_device() {
    let reg = TransformRegistry::with_builtins();
    let cfg = DeviceConfig::small();
    let store = Counting::new(MemBlobs::new());
    let e = ShardedEngine::new(server_engine_config(1), &reg);
    e.attach_backend(
        0,
        backend_over(&Counting::new(MemBlobs::new()), &store, &cfg),
    );
    assert!(put(&e, ObjectId(1), "v").wait());
    e.install_all().unwrap();
    e.checkpoint_shard(0, false).unwrap();
    drop(e);

    let blank_log = Counting::new(MemBlobs::new());
    let backend = backend_over(&blank_log, &store, &cfg);
    match recover_sharded_from_backends(vec![backend], &reg, server_engine_config(1)) {
        Err(LlogError::Unexplainable(msg)) => assert!(msg.contains("installed through"), "{msg}"),
        Err(other) => panic!("expected Unexplainable, got {other}"),
        Ok(_) => panic!("booted a store its log device cannot explain"),
    }
}
