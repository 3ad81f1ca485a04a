//! A paired durability backend: one [`LogDevice`] + one [`StoreDevice`]
//! (DESIGN §11).
//!
//! The engine's crash model keeps `(StableStore, Wal)` alive across
//! simulated crashes; a [`DurabilityBackend`] extends that pair onto a
//! pluggable device tier — in-memory blobs for fuzzing, real files with
//! real fsync for deployments — with *incremental* cost:
//!
//! - [`DurabilityBackend::persist`] runs in WAL-protocol order: (1) append
//!   and sync the log tail through the forced end, leaving the log
//!   device's master and base as they were; (2) checkpoint the store
//!   (delta pages of the ids the store changed since the device's image,
//!   O(dirty)) with `installed_through` at the log device's end; (3) write the
//!   master and truncate the log device below the WAL's base. The store
//!   never holds an install whose record the log device lacks, and the log
//!   device drops the records that could re-install an object only once
//!   the store device holds it — the engine advanced the base at
//!   checkpoint time on that promise. A crash between any two steps leaves
//!   a pair that recovers to the acknowledged state.
//! - [`DurabilityBackend::load`] is the reboot path: replay the store's
//!   manifest chain, rebuild the WAL from the log segments. Opening a
//!   backend reads the store manifest only and the log once; `load` reads
//!   each delta once and reuses the log device's read, so a boot reads
//!   every device byte once (DESIGN §11).
//! - The store device is only as fresh as the last `persist`, while the
//!   log device gets every force. An `Install` record advances the rSIs of
//!   objects the store holds no vSI for — unexposed ones, and ones the
//!   install removed — which is only true once the store device has the
//!   install too. So the store manifest records `installed_through`: the
//!   log device's end once it holds the WAL captured with the store.
//!   Recovery ignores `Install` records at or above it and redoes the
//!   operations they covered. A device with no store manifest trusts none.
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
use llog_types::{LlogError, Lsn, Result};

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

    /// Persist `(store, wal)` incrementally in WAL-protocol order (see the
    /// module docs): log tail, store checkpoint, then the log device's
    /// master and truncation. The store's `installed_through` bound is the
    /// log device's end after the first step, so the caller must hand in a
    /// `store` and `wal` captured together (under one engine lock), and
    /// must not truncate an operation record from memory before the log
    /// device holds it. A log device left short of the forced end fails
    /// the call before the store is touched.
    pub fn persist(
        &mut self,
        store: &StableStore,
        wal: &Wal,
        faults: Option<&FaultHost>,
    ) -> Result<PersistOutcome> {
        let forced = wal.forced_lsn();
        let synced = self.persist_wal(wal, faults)?;
        if (wal.start_lsn()..forced).contains(&synced) {
            return Err(LlogError::Io {
                point: "persist".into(),
                reason: format!("log device durable through {synced} of {forced}"),
            });
        }
        let ckpt = self.store.checkpoint(store, synced.min(forced), faults)?;
        let durable = wal.persist_to(self.log.as_mut(), faults)?;
        Ok(PersistOutcome { durable, ckpt })
    }

    /// Persist only the WAL tail: append and sync it through the forced
    /// end, with the log device's master and base unchanged.
    ///
    /// A log device *fresher* than the store device is safe. Operation
    /// records are replayed. An `Install` record advances rSIs past
    /// operations whose installation — a flush that removed an object, or
    /// the flush that made an object unexposed — reaches the store device
    /// only at the next [`DurabilityBackend::persist`]; the ones at or
    /// above the store's `installed_through` are ignored by recovery, which
    /// redoes the operations they covered instead. Only `persist` moves the
    /// master or truncates, once the store device holds what they rely on.
    pub fn persist_wal(&mut self, wal: &Wal, faults: Option<&FaultHost>) -> Result<Lsn> {
        wal.persist_tail_to(self.log.as_mut(), faults)
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
    /// manifest with a present log means no `persist` ever completed — the
    /// store loads empty and trusts no `Install` record.
    pub fn load(&self, metrics: Arc<Metrics>) -> Result<Option<(StableStore, Wal)>> {
        let store = self.store.load_store(metrics.clone())?;
        let wal = Wal::load_from_device(self.log.as_ref(), metrics.clone())?;
        if store.is_none() && wal.is_none() {
            return Ok(None);
        }
        let store = store.unwrap_or_else(|| {
            let mut empty = StableStore::new(metrics.clone());
            empty.set_installed_through(Lsn::ZERO);
            empty
        });
        Ok(Some((store, wal.unwrap_or_else(|| Wal::new(metrics)))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{InstallRecord, LogRecord};
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
    fn a_failed_log_tail_leaves_the_store_device_untouched() {
        // An IoError on the log manifest fails persist's first step: the
        // store checkpoint never runs, so nothing was persisted at all.
        let (store, wal) = populated();
        let mut b = DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small());
        let h = FaultHost::new();
        h.arm(failpoint::DEV_LOG_MANIFEST, FaultKind::IoError);
        assert!(b.persist(&store, &wal, Some(&h)).is_err());
        assert!(b.load(Metrics::new()).unwrap().is_none());
    }

    #[test]
    fn installed_through_is_the_forced_end_at_persist() {
        let (store, mut wal) = populated();
        let mut b = DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small());
        // An unforced record is not on the log device after persist, so
        // the store may not vouch through it.
        wal.append(&LogRecord::Install(InstallRecord {
            objs: vec![(ObjectId(1), Lsn::MAX)],
        }));
        b.persist(&store, &wal, None).unwrap();
        let bound = wal.forced_lsn();
        assert!(bound < wal.end_lsn());
        wal.force();
        b.persist_wal(&wal, None).unwrap();
        let (s2, w2) = b.load(Metrics::new()).unwrap().unwrap();
        assert_eq!(s2.installed_through(), bound);
        assert!(w2.end_lsn() > bound, "the Install record is past the bound");
    }

    #[test]
    fn log_without_store_manifest_trusts_no_install() {
        let (_, wal) = populated();
        let mut b = DurabilityBackend::mem(Metrics::new(), &DeviceConfig::small());
        b.persist_wal(&wal, None).unwrap();
        let (s2, _) = b.load(Metrics::new()).unwrap().unwrap();
        assert!(s2.is_empty());
        assert_eq!(s2.installed_through(), Lsn::ZERO);
    }

    #[test]
    fn empty_store_persists_and_loads_empty() {
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
