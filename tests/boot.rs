//! The boot path's read budget and failure shape.
//!
//! A reboot reads every store and log byte once: attaching a device reads
//! manifests (and the log's segments, which `load` then reuses), `load` is
//! the one reader of the store's delta chain. A shard whose image is rotten
//! fails the whole boot with `Codec`, cleanly. A boot does not trust
//! `Install`/`Flush` records the store device never saw, and no force
//! acknowledges log bytes the log device never synced.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use llog_core::{Engine, EngineConfig};
use llog_engine::{CommitTicket, ShardedEngine};
use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
use llog_server::boot::{open_served, server_engine_config};
use llog_storage::device::{BlobStore, DeltaStore, DeviceConfig, FileBlobs, MemBlobs, SegLog};
use llog_storage::Metrics;
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
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        self.inner.lock().unwrap().append(name, bytes)
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

/// Acked puts survive a kill whose log device holds `Install` and `Flush`
/// records the store device never absorbed: the store device keeps the one
/// `persist_all` below, while every force after `install_all` carries those
/// records to the log device. Boot must redo what they claim installed.
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
    // One more waited put per shard: its force carries that shard's
    // Install/Flush records to the log device.
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

/// A barrier acknowledges only what it staged and synced. While one
/// waiter's barrier is parked in its device sync, K more puts are appended
/// and `install_all` forces them into the WAL's stable prefix in memory
/// (the WAL protocol's force before install). The log device never saw
/// those bytes, so when the held sync returns, none of the K may be acked.
#[test]
fn a_barrier_acks_only_what_it_synced() {
    const K: u64 = 20;
    let e = ShardedEngine::new(server_engine_config(1), &TransformRegistry::with_builtins());
    let log = Counting::new(MemBlobs::new());
    let store = Counting::new(MemBlobs::new());
    e.attach_backend(0, backend_over(&log, &store, &DeviceConfig::small()));
    let gate = &log.gate;
    let put = |i| {
        let v = builtin::encode_values(&[Value::from("v")]);
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(i)],
            Transform::new(builtin::CONST, v),
        )
        .unwrap()
    };
    assert!(put(0).wait(), "a clean barrier acks");

    gate.set(Some(0));
    let held = put(1);
    std::thread::scope(|s| {
        let waiter = s.spawn(|| held.wait());
        gate.wait_parked();
        let later: Vec<CommitTicket> = (2..2 + K).map(put).collect();
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
