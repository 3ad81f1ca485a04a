//! A paired durability backend: one [`LogDevice`] + one [`StoreDevice`]
//! (DESIGN §11).
//!
//! The engine's crash model keeps `(StableStore, Wal)` alive across
//! simulated crashes; a [`DurabilityBackend`] extends that pair onto a
//! pluggable device tier — in-memory blobs for fuzzing, real files with
//! real fsync for deployments — with *incremental* cost:
//!
//! - [`DurabilityBackend::persist`] checkpoints the store **first** (delta
//!   pages, O(dirty)), then persists the WAL (tail append + whole-segment
//!   truncation reclaim). The order matters: the log device only truncates
//!   below the WAL's base, and the engine advanced that base at checkpoint
//!   time on the promise that everything below it is installed — a promise
//!   the *device* store must honour before the device log may drop the
//!   records that could re-install it.
//! - [`DurabilityBackend::load`] is the reboot path: replay the store's
//!   manifest chain, rebuild the WAL from the log segments. Opening a
//!   backend reads the store manifest only and the log once; `load` reads
//!   each delta once and reuses the log device's read, so a boot reads
//!   every device byte once (DESIGN §11). A crash between the two persist
//!   steps leaves the device store *fresher* than the device log, which
//!   recovery tolerates (the extra replay fails the REDO test); the
//!   reverse — a log truncated past a store that was never made durable —
//!   can not occur.
//!
//! The file layout puts the two devices in `log/` and `store/`
//! subdirectories of one backend root, so a database directory is
//! self-describing: the presence of `log/wal-manifest.llog` marks a
//! device-backed image.

use std::sync::Arc;

use llog_storage::device::{
    CkptStats, DeviceConfig, FileLogDevice, FileStoreDevice, LogDevice, MemLogDevice,
    MemStoreDevice, StoreDevice,
};
use llog_storage::{Metrics, StableStore};
use llog_testkit::faults::FaultHost;
use llog_types::{Lsn, Result};

use crate::wal::Wal;

/// Subdirectory of a file backend root holding the segmented log.
pub const LOG_SUBDIR: &str = "log";
/// Subdirectory of a file backend root holding the checkpoint deltas.
pub const STORE_SUBDIR: &str = "store";

/// What one [`DurabilityBackend::persist`] call cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct PersistOutcome {
    /// Highest LSN the log device holds durable and uncorrupted.
    pub durable: Lsn,
    /// Cost of the incremental store checkpoint.
    pub ckpt: CkptStats,
}

/// One log device + one store device, persisted and loaded as a pair.
#[derive(Debug)]
pub struct DurabilityBackend {
    log: Box<dyn LogDevice>,
    store: Box<dyn StoreDevice>,
}

impl DurabilityBackend {
    /// An in-memory backend (deterministic, fuzz-fast).
    pub fn mem(metrics: Arc<Metrics>, cfg: &DeviceConfig) -> DurabilityBackend {
        DurabilityBackend {
            log: Box::new(MemLogDevice::mem(metrics.clone(), cfg, Lsn(1))),
            store: Box::new(MemStoreDevice::mem(metrics, cfg)),
        }
    }

    /// A file backend rooted at `dir` (devices in `dir/log` and
    /// `dir/store`), resuming from existing manifests when present.
    pub fn file(
        dir: &std::path::Path,
        metrics: Arc<Metrics>,
        cfg: &DeviceConfig,
    ) -> Result<DurabilityBackend> {
        Ok(DurabilityBackend {
            log: Box::new(FileLogDevice::file(
                &dir.join(LOG_SUBDIR),
                metrics.clone(),
                cfg,
                Lsn(1),
            )?),
            store: Box::new(FileStoreDevice::file(
                &dir.join(STORE_SUBDIR),
                metrics,
                cfg,
            )?),
        })
    }

    /// Wrap pre-built devices (mixed backends, custom configs).
    pub fn over(log: Box<dyn LogDevice>, store: Box<dyn StoreDevice>) -> DurabilityBackend {
        DurabilityBackend { log, store }
    }

    /// Backend name (`"mem"` or `"file"`), from the log device.
    pub fn kind(&self) -> &'static str {
        self.log.kind()
    }

    /// The log device.
    pub fn log(&self) -> &dyn LogDevice {
        self.log.as_ref()
    }

    /// The store device.
    pub fn store_device(&self) -> &dyn StoreDevice {
        self.store.as_ref()
    }

    /// Persist `(store, wal)` incrementally: store checkpoint first (see
    /// the module docs for why), then the WAL tail + truncation reclaim.
    pub fn persist(
        &mut self,
        store: &StableStore,
        wal: &Wal,
        faults: Option<&FaultHost>,
    ) -> Result<PersistOutcome> {
        let ckpt = self.store.checkpoint(store, faults)?;
        let durable = wal.persist_to(self.log.as_mut(), faults)?;
        Ok(PersistOutcome { durable, ckpt })
    }

    /// Persist only the WAL tail (no store checkpoint) — the group-commit
    /// force hook, so a flusher may extend durability to the device tier
    /// after every force without paying the checkpoint.
    ///
    /// A log device *fresher* than the store device is safe for operation
    /// records: recovery replays them (the reverse order is what
    /// [`DurabilityBackend::persist`] exists to prevent). It is **not**
    /// safe for `Install` and `Flush` records. They vouch for store state —
    /// `vars(n)` written, an object clean at some vSI — that reaches the
    /// store device only at the next [`DurabilityBackend::persist`]; after
    /// a crash in between, analysis trusts them and redo skips operations
    /// whose effects the recovered store does not hold. This is the open
    /// acked-write loss on the served path; this method does not prevent
    /// it.
    pub fn persist_wal(&mut self, wal: &Wal, faults: Option<&FaultHost>) -> Result<Lsn> {
        wal.persist_to(self.log.as_mut(), faults)
    }

    /// Stage the WAL tail — stable prefix plus the in-flight double-buffered
    /// batch — onto the log device *without* syncing ([`Wal::stage_to`]).
    /// The caller owns the barrier: call [`DurabilityBackend::sync_log`]
    /// once the shared fsync should run. Until that sync settles nothing
    /// staged may be acknowledged.
    pub fn stage_wal(&mut self, wal: &Wal, faults: Option<&FaultHost>) -> Result<Lsn> {
        wal.stage_to(self.log.as_mut(), faults)
    }

    /// Sync the log device's blobs without counting an fsync — the second
    /// half of a staged persist. A cross-shard scheduler syncs every staged
    /// backend back-to-back and accounts the shared barrier once.
    pub fn sync_log(&mut self) -> Result<()> {
        self.log.sync_uncounted()
    }

    /// Reboot: load the persisted pair, or `None` when *neither* device
    /// holds a manifest (nothing was ever persisted). A missing store
    /// manifest with a present log means the store was empty at every
    /// checkpoint (empty deltas write nothing) — it loads empty; the
    /// reverse means the crash hit between the two persist steps and the
    /// log device never got its manifest — the WAL loads fresh.
    pub fn load(&self, metrics: Arc<Metrics>) -> Result<Option<(StableStore, Wal)>> {
        let store = self.store.load_store(metrics.clone())?;
        let wal = Wal::load_from_device(self.log.as_ref(), metrics.clone())?;
        if store.is_none() && wal.is_none() {
            return Ok(None);
        }
        Ok(Some((
            store.unwrap_or_else(|| StableStore::new(metrics.clone())),
            wal.unwrap_or_else(|| Wal::new(metrics)),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;
    use llog_ops::Operation;
    use llog_testkit::faults::{failpoint, FaultKind};
    use llog_types::{ObjectId, Value};

    fn populated() -> (StableStore, Wal) {
        let m = Metrics::new();
        let mut store = StableStore::new(m.clone());
        store.write(ObjectId(1), Value::from("one"), Lsn(10));
        store.write(ObjectId(2), Value::from("two"), Lsn(20));
        let mut wal = Wal::new(m);
        wal.append(&LogRecord::Op(Operation::logical(0, &[1], &[2])));
        wal.force();
        (store, wal)
    }

    #[test]
    fn mem_and_file_backends_roundtrip_identically() {
        let (store, wal) = populated();
        let dir = std::env::temp_dir().join(format!(
            "llog-backend-rt-{}-{:x}",
            std::process::id(),
            &store as *const _ as usize
        ));
        let mut mem = DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small());
        let mut file = DurabilityBackend::file(&dir, Metrics::new(), &DeviceConfig::small())
            .expect("file backend");
        for b in [&mut mem, &mut file] {
            let out = b.persist(&store, &wal, None).unwrap();
            assert_eq!(out.durable, wal.forced_lsn());
            assert_eq!(out.ckpt.objects_written, 2);
            let (s2, w2) = b.load(Metrics::new()).unwrap().unwrap();
            assert_eq!(s2.len(), 2);
            assert_eq!(s2.peek(ObjectId(1)).unwrap().value, Value::from("one"));
            assert_eq!(w2.forced_lsn(), wal.forced_lsn());
        }
        assert_eq!(mem.kind(), "mem");
        assert_eq!(file.kind(), "file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn never_persisted_loads_none() {
        let b = DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small());
        assert!(b.load(Metrics::new()).unwrap().is_none());
    }

    #[test]
    fn second_persist_is_o_dirty() {
        let (mut store, wal) = populated();
        let mut b = DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small());
        b.persist(&store, &wal, None).unwrap();
        store.write(ObjectId(2), Value::from("two'"), Lsn(30));
        let out = b.persist(&store, &wal, None).unwrap();
        assert_eq!(out.ckpt.objects_written, 1, "only the dirtied object");
        assert_eq!(out.ckpt.objects_skipped, 1);
        let (s2, _) = b.load(Metrics::new()).unwrap().unwrap();
        assert_eq!(s2.peek(ObjectId(2)).unwrap().value, Value::from("two'"));
    }

    #[test]
    fn crash_between_store_and_log_persist_loads_fresh_wal() {
        // An IoError on the log manifest aborts persist after the store
        // checkpoint landed: load() then sees a fresher store than log.
        let (store, wal) = populated();
        let mut b = DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small());
        let h = FaultHost::new();
        h.arm(failpoint::DEV_LOG_MANIFEST, FaultKind::IoError);
        assert!(b.persist(&store, &wal, Some(&h)).is_err());
        let (s2, w2) = b.load(Metrics::new()).unwrap().unwrap();
        assert_eq!(s2.len(), 2, "store checkpoint survived");
        assert_eq!(w2.forced_lsn(), Lsn(1), "log manifest never landed");
    }

    #[test]
    fn empty_store_persists_log_only_and_loads_empty() {
        let m = Metrics::new();
        let store = StableStore::new(m.clone());
        let mut wal = Wal::new(m);
        wal.append(&LogRecord::Op(Operation::logical(0, &[1], &[2])));
        wal.force();
        let mut b = DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small());
        b.persist(&store, &wal, None).unwrap();
        let (s2, w2) = b.load(Metrics::new()).unwrap().unwrap();
        assert!(s2.is_empty());
        assert_eq!(w2.forced_lsn(), wal.forced_lsn());
    }
}
