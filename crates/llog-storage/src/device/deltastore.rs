//! Incremental checkpoint store device: per-object delta pages + a manifest
//! chain.
//!
//! Layout (blob names):
//! - `ckpt-{epoch:016x}.llog` — one checkpoint delta:
//!   `"LLOGDLT1" | epoch u64 | count u64 | count × (id u64, flags u8,
//!   vsi u64, len u32, bytes) | crc32c u32`. `flags & 1` marks a tombstone
//!   (object removed since the previous checkpoint; vsi/len are zero).
//! - `store-manifest.llog` — the chain:
//!   `"LLOGSMF1" | next_epoch u64 | installed_through u64 | chain_len u64 |
//!   chain × (epoch u64, len u64, crc u32) | crc32c u32`.
//!   `installed_through` is the log end at the checkpoint: every `Install`
//!   and `Flush` record below it has its effects in the chain, and recovery
//!   trusts none at or above it.
//!
//! A checkpoint writes only objects *dirtied since the last checkpoint*
//! (diffed against an in-memory mirror of the persisted state) plus
//! tombstones — O(dirty), not O(store). A checkpoint with nothing dirty
//! writes nothing, unless its `installed_through` moved: then it rewrites the
//! manifest alone. Loading replays the chain in order.
//! When the chain grows past `DeviceConfig::compact_chain` deltas, the next
//! checkpoint folds it into one full-image delta and deletes the old blobs.
//!
//! Read path: attaching reads the manifest only. The chain's bytes are read,
//! checked and parsed in one place, [`StoreDevice::load_store`], which also
//! primes the diff mirror from the image it returns; a checkpoint on a
//! device whose chain was never loaded builds the mirror through the same
//! reader first.
//!
//! Write ordering: the delta blob is written first, then the manifest; a
//! crash between the two leaves an orphan delta the manifest never names.
//! Compaction writes the new manifest *before* deleting folded deltas.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use llog_testkit::faults::{failpoint, FaultHost, WriteVerdict};
use llog_types::{crc32c, crc32c_extend, LlogError, Lsn, ObjectId, Result, Value};

use super::blob::{BlobStore, FileBlobs, MemBlobs};
use super::DeviceConfig;
use crate::metrics::Metrics;
use crate::store::{StableStore, StoredObject};

/// Manifest blob name for the checkpoint chain.
pub const STORE_MANIFEST: &str = "store-manifest.llog";
const MANIFEST_MAGIC: &[u8; 8] = b"LLOGSMF1";
const DELTA_MAGIC: &[u8; 8] = b"LLOGDLT1";

/// Blob name of the checkpoint delta for `epoch`.
pub fn delta_name(epoch: u64) -> String {
    format!("ckpt-{epoch:016x}.llog")
}

/// What one incremental checkpoint cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptStats {
    /// Objects written (dirty since the last checkpoint, incl. tombstones).
    pub objects_written: u64,
    /// Objects skipped (clean since the last checkpoint).
    pub objects_skipped: u64,
    /// Delta + manifest bytes written.
    pub bytes_written: u64,
    /// True when this checkpoint folded the chain into one full image.
    pub compacted: bool,
}

/// Pluggable store backend: incremental object checkpoints + manifest chain.
pub trait StoreDevice: Send + std::fmt::Debug {
    /// Backend name (`"mem"` or `"file"`), for stats and CLI output.
    fn kind(&self) -> &'static str;
    /// Incrementally checkpoint `store`: persist objects changed since the
    /// last checkpoint (plus tombstones), extend the manifest chain and
    /// record `installed_through`, the log end `store` was captured at.
    fn checkpoint(
        &mut self,
        store: &StableStore,
        installed_through: Lsn,
        faults: Option<&FaultHost>,
    ) -> Result<CkptStats>;
    /// Replay the manifest chain into a fresh store carrying the manifest's
    /// `installed_through`, or `None` when no manifest exists.
    /// Missing/corrupt deltas are `Codec` errors.
    fn load_store(&self, metrics: Arc<Metrics>) -> Result<Option<StableStore>>;
    /// Number of deltas currently in the manifest chain.
    fn chain_len(&self) -> usize;
}

/// Generic incremental-checkpoint core; see the module docs for layout.
#[derive(Debug)]
pub struct DeltaStore<B: BlobStore> {
    blobs: B,
    metrics: Arc<Metrics>,
    compact_chain: usize,
    kind: &'static str,
    next_epoch: u64,
    installed_through: Lsn,
    chain: Vec<ChainEntry>,
    /// Mirror of the state the chain reconstructs, used to diff out the
    /// dirty set. `None` until the chain is first read: `load_store` primes
    /// it, or the first checkpoint builds it through the same reader.
    mirror: Mutex<Option<Objects>>,
}

type Objects = BTreeMap<ObjectId, StoredObject>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChainEntry {
    epoch: u64,
    len: u64,
    crc: u32,
}

/// In-memory store device (the fuzz-fast deterministic backend).
pub type MemStoreDevice = DeltaStore<MemBlobs>;
/// File-backed store device (real files, real fsync).
pub type FileStoreDevice = DeltaStore<FileBlobs>;

impl MemStoreDevice {
    /// Create a fresh in-memory store device.
    pub fn mem(metrics: Arc<Metrics>, cfg: &DeviceConfig) -> MemStoreDevice {
        DeltaStore::over(MemBlobs::new(), metrics, cfg, "mem")
    }
}

impl FileStoreDevice {
    /// Open (resuming if a manifest exists) a file-backed store device
    /// rooted at `dir`.
    pub fn file(
        dir: &std::path::Path,
        metrics: Arc<Metrics>,
        cfg: &DeviceConfig,
    ) -> Result<FileStoreDevice> {
        let blobs = FileBlobs::open(dir)?;
        DeltaStore::attach(blobs, metrics, cfg, "file")
    }
}

impl<B: BlobStore> DeltaStore<B> {
    fn over(
        blobs: B,
        metrics: Arc<Metrics>,
        cfg: &DeviceConfig,
        kind: &'static str,
    ) -> DeltaStore<B> {
        DeltaStore {
            blobs,
            metrics,
            compact_chain: cfg.compact_chain.max(1),
            kind,
            next_epoch: 1,
            installed_through: Lsn::ZERO,
            chain: Vec::new(),
            mirror: Mutex::new(Some(Objects::new())),
        }
    }

    /// Wrap existing blobs: resume from the manifest when present. Reads the
    /// manifest only; the chain's deltas are first read by `load_store` (or
    /// by the first checkpoint, to build its diff mirror).
    pub fn attach(
        blobs: B,
        metrics: Arc<Metrics>,
        cfg: &DeviceConfig,
        kind: &'static str,
    ) -> Result<DeltaStore<B>> {
        let mut d = DeltaStore::over(blobs, metrics, cfg, kind);
        if let Some(m) = read_manifest(&d.blobs)? {
            d.next_epoch = m.next_epoch;
            d.installed_through = m.installed_through;
            d.chain = m.chain;
            d.mirror = Mutex::new(None);
        }
        Ok(d)
    }

    /// Dump every blob this device holds, sorted by name. The Mem↔File
    /// differential oracle compares these dumps for byte-identity.
    pub fn dump_blobs(&self) -> Result<Vec<(String, Vec<u8>)>> {
        let mut out = Vec::new();
        for name in self.blobs.list()? {
            let bytes = self.blobs.get(&name)?.unwrap_or_default();
            out.push((name, bytes));
        }
        Ok(out)
    }

    fn manifest_image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.chain.len() * 20);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&self.next_epoch.to_le_bytes());
        out.extend_from_slice(&self.installed_through.0.to_le_bytes());
        out.extend_from_slice(&(self.chain.len() as u64).to_le_bytes());
        for e in &self.chain {
            out.extend_from_slice(&e.epoch.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.crc.to_le_bytes());
        }
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Write the manifest and sync; returns bytes persisted.
    fn put_manifest(&mut self, faults: Option<&FaultHost>) -> Result<u64> {
        let n = self.faulted_put(
            STORE_MANIFEST,
            failpoint::DEV_STORE_MANIFEST,
            self.manifest_image(),
            faults,
        )?;
        self.blobs.sync()?;
        Metrics::bump(&self.metrics.io_fsyncs, 1);
        Ok(n)
    }

    /// Write `image` through the failpoint `point`; returns bytes persisted.
    fn faulted_put(
        &mut self,
        name: &str,
        point: &'static str,
        image: Vec<u8>,
        faults: Option<&FaultHost>,
    ) -> Result<u64> {
        let verdict = match faults {
            Some(h) => h.on_write(point, &image).map_err(|f| LlogError::Io {
                point: f.point,
                reason: f.reason,
            })?,
            None => WriteVerdict::Persist(image),
        };
        match verdict {
            WriteVerdict::Persist(img) => {
                let n = img.len() as u64;
                self.blobs.put(name, &img)?;
                Metrics::bump(&self.metrics.io_bytes_written, n);
                Ok(n)
            }
            WriteVerdict::Skip => Ok(0), // lost write
        }
    }
}

/// A parsed store manifest.
struct Manifest {
    next_epoch: u64,
    installed_through: Lsn,
    chain: Vec<ChainEntry>,
}

/// Read and parse the store manifest, or `None` when there is none.
fn read_manifest<B: BlobStore>(blobs: &B) -> Result<Option<Manifest>> {
    blobs
        .get(STORE_MANIFEST)?
        .map(|raw| parse_manifest(&raw))
        .transpose()
}

/// Replay the chain the on-device manifest names into the image it
/// reconstructs, with the manifest's `installed_through`, or `None` when no
/// manifest exists — the one reader of the chain's bytes. Missing, mis-sized
/// or corrupt deltas are `Codec` errors.
fn read_image<B: BlobStore>(blobs: &B) -> Result<Option<(Objects, Lsn)>> {
    let Some(manifest) = read_manifest(blobs)? else {
        return Ok(None);
    };
    let mut objects = Objects::new();
    for entry in &manifest.chain {
        let name = delta_name(entry.epoch);
        let err = |reason: String| LlogError::Codec { reason };
        let Some(raw) = blobs.get(&name)? else {
            return Err(err(format!("store manifest: missing delta {name}")));
        };
        if raw.len() as u64 != entry.len {
            return Err(err(format!(
                "delta {name}: length {} != manifest {}",
                raw.len(),
                entry.len
            )));
        }
        apply_delta(&mut objects, &parse_delta(&raw, entry.epoch, entry.crc)?);
    }
    Ok(Some((objects, manifest.installed_through)))
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct DeltaEntry {
    id: ObjectId,
    tombstone: bool,
    vsi: Lsn,
    value: Value,
}

fn apply_delta(mirror: &mut Objects, delta: &[DeltaEntry]) {
    for e in delta {
        if e.tombstone {
            mirror.remove(&e.id);
        } else {
            mirror.insert(
                e.id,
                StoredObject {
                    value: e.value.clone(),
                    vsi: e.vsi,
                },
            );
        }
    }
}

/// The delta blob for `entries`, plus the whole-blob CRC the manifest
/// records (the body CRC extended over its own trailer — one pass).
fn serialize_delta(epoch: u64, entries: &[DeltaEntry]) -> (Vec<u8>, u32) {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(DELTA_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.id.0.to_le_bytes());
        out.push(u8::from(e.tombstone));
        out.extend_from_slice(&e.vsi.0.to_le_bytes());
        out.extend_from_slice(&(e.value.len() as u32).to_le_bytes());
        out.extend_from_slice(e.value.as_bytes());
    }
    let body_crc = crc32c(&out);
    let trailer = body_crc.to_le_bytes();
    out.extend_from_slice(&trailer);
    (out, crc32c_extend(body_crc, &trailer))
}

/// Parse a delta blob, checking both of its checksums in one pass over the
/// body: the trailer (body CRC) and the manifest's whole-blob `expect_crc`
/// (the body CRC extended over the trailer).
fn parse_delta(raw: &[u8], expect_epoch: u64, expect_crc: u32) -> Result<Vec<DeltaEntry>> {
    let err = |reason: String| LlogError::Codec {
        reason: format!("delta {}: {reason}", delta_name(expect_epoch)),
    };
    if raw.len() < 8 + 8 + 8 + 4 {
        return Err(err("too short".into()));
    }
    let (body, trailer) = raw.split_at(raw.len() - 4);
    let body_crc = crc32c(body);
    if crc32c_extend(body_crc, trailer) != expect_crc {
        return Err(err("checksum mismatch against the store manifest".into()));
    }
    if body_crc != u32::from_le_bytes(trailer.try_into().unwrap()) {
        return Err(err("checksum mismatch".into()));
    }
    if &body[0..8] != DELTA_MAGIC {
        return Err(err("bad magic".into()));
    }
    let epoch = u64::from_le_bytes(body[8..16].try_into().unwrap());
    if epoch != expect_epoch {
        return Err(err(format!("stale epoch {epoch}")));
    }
    let count = u64::from_le_bytes(body[16..24].try_into().unwrap()) as usize;
    let mut at = 24;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        if body.len() < at + 21 {
            return Err(err("truncated entry header".into()));
        }
        let id = ObjectId(u64::from_le_bytes(body[at..at + 8].try_into().unwrap()));
        let flags = body[at + 8];
        if flags > 1 {
            return Err(err(format!("bad flags {flags}")));
        }
        let vsi = Lsn(u64::from_le_bytes(
            body[at + 9..at + 17].try_into().unwrap(),
        ));
        let len = u32::from_le_bytes(body[at + 17..at + 21].try_into().unwrap()) as usize;
        at += 21;
        if body.len() < at + len {
            return Err(err("truncated value".into()));
        }
        entries.push(DeltaEntry {
            id,
            tombstone: flags & 1 == 1,
            vsi,
            value: Value::from_slice(&body[at..at + len]),
        });
        at += len;
    }
    if at != body.len() {
        return Err(err("trailing bytes".into()));
    }
    Ok(entries)
}

fn parse_manifest(raw: &[u8]) -> Result<Manifest> {
    let err = |reason: &str| LlogError::Codec {
        reason: format!("store manifest: {reason}"),
    };
    if raw.len() < 8 + 8 + 8 + 8 + 4 {
        return Err(err("too short"));
    }
    let (body, crc_bytes) = raw.split_at(raw.len() - 4);
    if crc32c(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return Err(err("checksum mismatch"));
    }
    if &body[0..8] != MANIFEST_MAGIC {
        return Err(err("bad magic"));
    }
    let next_epoch = u64::from_le_bytes(body[8..16].try_into().unwrap());
    let installed_through = Lsn(u64::from_le_bytes(body[16..24].try_into().unwrap()));
    let count = u64::from_le_bytes(body[24..32].try_into().unwrap()) as usize;
    if body.len() != 32 + count * 20 {
        return Err(err("chain table size mismatch"));
    }
    let mut chain = Vec::with_capacity(count);
    let mut at = 32;
    let mut prev_epoch = 0u64;
    for _ in 0..count {
        let epoch = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        let len = u64::from_le_bytes(body[at + 8..at + 16].try_into().unwrap());
        let crc = u32::from_le_bytes(body[at + 16..at + 20].try_into().unwrap());
        if epoch <= prev_epoch {
            return Err(err("duplicated or out-of-order chain epoch"));
        }
        if epoch >= next_epoch {
            return Err(err("chain epoch beyond next_epoch"));
        }
        prev_epoch = epoch;
        chain.push(ChainEntry { epoch, len, crc });
        at += 20;
    }
    Ok(Manifest {
        next_epoch,
        installed_through,
        chain,
    })
}

impl<B: BlobStore> StoreDevice for DeltaStore<B> {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn chain_len(&self) -> usize {
        self.chain.len()
    }

    fn checkpoint(
        &mut self,
        store: &StableStore,
        installed_through: Lsn,
        faults: Option<&FaultHost>,
    ) -> Result<CkptStats> {
        let compact = self.chain.len() >= self.compact_chain;
        let mut entries: Vec<DeltaEntry> = Vec::new();
        let mut skipped = 0u64;
        if compact {
            // Fold: one full-image delta replaces the chain.
            for (id, obj) in store.iter() {
                entries.push(DeltaEntry {
                    id: *id,
                    tombstone: false,
                    vsi: obj.vsi,
                    value: obj.value.clone(),
                });
            }
        } else {
            let slot = self
                .mirror
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                // Never loaded since attach: build the mirror through the
                // one chain reader, so the delta is what it always was.
                *slot = Some(read_image(&self.blobs)?.unwrap_or_default().0);
            }
            let mirror = slot.as_ref().expect("built above");
            for (id, obj) in store.iter() {
                match mirror.get(id) {
                    Some(m) if m.vsi == obj.vsi && m.value == obj.value => skipped += 1,
                    _ => entries.push(DeltaEntry {
                        id: *id,
                        tombstone: false,
                        vsi: obj.vsi,
                        value: obj.value.clone(),
                    }),
                }
            }
            for id in mirror.keys() {
                if store.peek(*id).is_none() {
                    entries.push(DeltaEntry {
                        id: *id,
                        tombstone: true,
                        vsi: Lsn::ZERO,
                        value: Value::empty(),
                    });
                }
            }
            entries.sort_by_key(|e| e.id);
            if entries.is_empty() {
                // Nothing dirty: the chain on disk already reconstructs
                // `store` exactly. O(0) durability cost, plus the manifest
                // when the bound moved.
                Metrics::bump(&self.metrics.ckpt_objects_skipped, skipped);
                let mut stats = CkptStats {
                    objects_skipped: skipped,
                    ..CkptStats::default()
                };
                if installed_through != self.installed_through {
                    self.installed_through = installed_through;
                    stats.bytes_written = self.put_manifest(faults)?;
                }
                return Ok(stats);
            }
        }
        let epoch = self.next_epoch;
        let (image, crc) = serialize_delta(epoch, &entries);
        let entry = ChainEntry {
            epoch,
            len: image.len() as u64,
            crc,
        };
        let mut bytes_written = self.faulted_put(
            &delta_name(epoch),
            failpoint::DEV_STORE_DELTA,
            image,
            faults,
        )?;
        let old_chain = if compact {
            std::mem::take(&mut self.chain)
        } else {
            Vec::new()
        };
        self.chain.push(entry);
        self.next_epoch += 1;
        self.installed_through = installed_through;
        bytes_written += self.put_manifest(faults)?;
        // New manifest durable: folded deltas are unreachable, delete them.
        for e in &old_chain {
            self.blobs.delete(&delta_name(e.epoch))?;
        }
        if !old_chain.is_empty() {
            self.blobs.sync()?;
        }
        *self
            .mirror
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = Some(store.snapshot());
        let written = entries.len() as u64;
        Metrics::bump(&self.metrics.ckpt_objects_written, written);
        Metrics::bump(&self.metrics.ckpt_objects_skipped, skipped);
        Ok(CkptStats {
            objects_written: written,
            objects_skipped: skipped,
            bytes_written,
            compacted: compact,
        })
    }

    fn load_store(&self, metrics: Arc<Metrics>) -> Result<Option<StableStore>> {
        let Some((objects, installed_through)) = read_image(&self.blobs)? else {
            return Ok(None);
        };
        // Prime the diff mirror from the image just read (values are
        // `Arc`-shared, so the clone copies no bytes). A checkpoint since
        // attach already holds a newer mirror; keep it.
        let mut mirror = self.mirror.lock().unwrap_or_else(PoisonError::into_inner);
        if mirror.is_none() {
            *mirror = Some(objects.clone());
        }
        drop(mirror);
        let mut store = StableStore::new(metrics);
        store.restore(objects);
        store.set_installed_through(installed_through);
        Ok(Some(store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_testkit::faults::FaultKind;

    /// The log end every test checkpoint records as its bound.
    const END: Lsn = Lsn(100);

    fn cfg(compact: usize) -> DeviceConfig {
        DeviceConfig {
            compact_chain: compact,
            ..DeviceConfig::default()
        }
    }

    fn store_of(pairs: &[(u64, &str, u64)]) -> StableStore {
        let mut s = StableStore::new(Metrics::new());
        for (id, v, vsi) in pairs {
            s.write(ObjectId(*id), Value::from(*v), Lsn(*vsi));
        }
        s
    }

    #[test]
    fn incremental_checkpoint_writes_only_dirty() {
        let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        let mut s = store_of(&[(1, "a", 1), (2, "b", 2), (3, "c", 3)]);
        let st = d.checkpoint(&s, END, None).unwrap();
        assert_eq!((st.objects_written, st.objects_skipped), (3, 0));
        // One object dirtied, one removed: delta has exactly those two.
        s.write(ObjectId(2), Value::from("B"), Lsn(9));
        s.remove(ObjectId(3));
        let st = d.checkpoint(&s, END, None).unwrap();
        assert_eq!((st.objects_written, st.objects_skipped), (2, 1));
        // Clean store: zero-cost checkpoint.
        let st = d.checkpoint(&s, END, None).unwrap();
        assert_eq!((st.objects_written, st.bytes_written), (0, 0));
        assert_eq!(st.objects_skipped, 2);
        // Replaying the chain reconstructs the store exactly.
        let loaded = d.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.snapshot(), s.snapshot());
        let m = d.metrics.snapshot();
        assert_eq!(m.ckpt_objects_written, 5);
        assert_eq!(m.ckpt_objects_skipped, 3);

        // At scale: 400 objects x 64 B with 1 % dirty, spread over the id
        // space. The delta is O(dirty): at most a tenth of the full image.
        let (objects, dirty) = (400u64, 4u64);
        let value = |i: u64, generation: u8| {
            let mut v = vec![generation; 64];
            v[..8].copy_from_slice(&i.to_le_bytes());
            Value::from_slice(&v)
        };
        let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        let mut s = StableStore::new(Metrics::new());
        for i in 0..objects {
            s.write(ObjectId(i), value(i, 0), Lsn(i + 1));
        }
        d.checkpoint(&s, END, None).unwrap();
        for k in 0..dirty {
            let x = k * objects / dirty;
            s.write(ObjectId(x), value(x, 1), Lsn(objects + k + 1));
        }
        let st = d.checkpoint(&s, END, None).unwrap();
        assert_eq!(
            (st.objects_written, st.objects_skipped),
            (dirty, objects - dirty),
            "exactly the dirty objects are written, the clean ones skipped"
        );
        let full = s.serialize().len() as u64;
        assert!(
            st.bytes_written * 10 <= full,
            "1 %-dirty delta is {} bytes against a {full}-byte full image",
            st.bytes_written
        );
    }

    #[test]
    fn fresh_device_loads_none() {
        let d = MemStoreDevice::mem(Metrics::new(), &DeviceConfig::default());
        assert!(d.load_store(Metrics::new()).unwrap().is_none());
    }

    #[test]
    fn chain_compacts_at_threshold() {
        let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(3));
        let mut s = StableStore::new(Metrics::new());
        for i in 1..=4u64 {
            s.write(ObjectId(i), Value::from("v"), Lsn(i));
            let st = d.checkpoint(&s, END, None).unwrap();
            assert_eq!(st.compacted, i == 4, "fold on the 4th (chain hit 3)");
        }
        assert_eq!(d.chain_len(), 1, "chain folded to one full image");
        // Folded deltas are gone from the blob namespace.
        let names = d.blobs.list().unwrap();
        assert_eq!(
            names.iter().filter(|n| n.starts_with("ckpt-")).count(),
            1,
            "old deltas deleted: {names:?}"
        );
        let loaded = d.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.snapshot(), s.snapshot());
    }

    #[test]
    fn attach_resumes_mirror_and_epochs() {
        let dir = std::env::temp_dir().join(format!(
            "llog-deltastore-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let s = store_of(&[(1, "a", 1), (2, "b", 2)]);
        {
            let mut d = FileStoreDevice::file(&dir, Metrics::new(), &cfg(100)).unwrap();
            d.checkpoint(&s, END, None).unwrap();
        }
        // Reopen: the mirror is rebuilt, so a clean store checkpoints for free.
        let mut d = FileStoreDevice::file(&dir, Metrics::new(), &cfg(100)).unwrap();
        let st = d.checkpoint(&s, END, None).unwrap();
        assert_eq!((st.objects_written, st.objects_skipped), (0, 2));
        let loaded = d.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.snapshot(), s.snapshot());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn attach_then_checkpoint_without_load_writes_the_same_delta() {
        let mut s = store_of(&[(1, "a", 1), (2, "b", 2), (3, "c", 3)]);
        let mut writer = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        writer.checkpoint(&s, END, None).unwrap();
        let mut attached =
            DeltaStore::attach(writer.blobs.clone(), Metrics::new(), &cfg(100), "mem").unwrap();
        assert!(
            attached.mirror.get_mut().unwrap().is_none(),
            "attach read a delta"
        );
        s.write(ObjectId(2), Value::from("B"), Lsn(9));
        s.remove(ObjectId(3));
        s.write(ObjectId(4), Value::from("d"), Lsn(10));
        let st = attached.checkpoint(&s, END, None).unwrap();
        assert_eq!((st.objects_written, st.objects_skipped), (3, 1));
        // Byte for byte what a device that read the whole chain at attach
        // wrote for this checkpoint (captured from that implementation).
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let delta = attached.blobs.get(&delta_name(2)).unwrap().unwrap();
        assert_eq!(
            hex(&delta),
            "4c4c4f47444c543102000000000000000300000000000000020000000000000000090000\
             000000000001000000420300000000000000010000000000000000000000000400000000\
             000000000a00000000000000010000006412ac1628"
        );
        // The manifest: the same chain, with `installed_through` (END, 0x64)
        // after `next_epoch`.
        let manifest = attached.blobs.get(STORE_MANIFEST).unwrap().unwrap();
        assert_eq!(
            hex(&manifest),
            "4c4c4f47534d46310300000000000000640000000000000002000000000000000100000000\
             0000005e00000000000000c74b674802000000000000005d00000000000000c74b674893f6b572"
        );
        // And what the writer, whose mirror never left memory, writes too.
        writer.checkpoint(&s, END, None).unwrap();
        assert_eq!(writer.dump_blobs().unwrap(), attached.dump_blobs().unwrap());
    }

    #[test]
    fn installed_through_survives_attach_and_load_store() {
        let s = store_of(&[(1, "a", 1)]);
        let mut writer = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        writer.checkpoint(&s, Lsn(40), None).unwrap();
        let attached =
            DeltaStore::attach(writer.blobs.clone(), Metrics::new(), &cfg(100), "mem").unwrap();
        assert_eq!(attached.installed_through, Lsn(40));
        let loaded = attached.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.installed_through(), Lsn(40));
        // Nothing dirty but the bound moved: the manifest alone is
        // rewritten, and the chain does not grow.
        let st = writer.checkpoint(&s, Lsn(41), None).unwrap();
        assert_eq!(st.objects_written, 0);
        assert!(st.bytes_written > 0);
        assert_eq!(writer.chain_len(), 1);
        let loaded = writer.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.installed_through(), Lsn(41));
        // Same bound, nothing dirty: nothing is written.
        let st = writer.checkpoint(&s, Lsn(41), None).unwrap();
        assert_eq!(st.bytes_written, 0);
    }

    #[test]
    fn load_primes_the_mirror() {
        let s = store_of(&[(1, "a", 1), (2, "b", 2)]);
        let mut writer = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        writer.checkpoint(&s, END, None).unwrap();
        let mut d =
            DeltaStore::attach(writer.blobs.clone(), Metrics::new(), &cfg(100), "mem").unwrap();
        let loaded = d.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(d.mirror.get_mut().unwrap().as_ref(), Some(&s.snapshot()));
        // A clean store then checkpoints for free.
        let st = d.checkpoint(&loaded, END, None).unwrap();
        assert_eq!((st.objects_written, st.objects_skipped), (0, 2));
    }

    #[test]
    fn torn_delta_is_codec_on_load() {
        let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        let s = store_of(&[(1, "aaaa", 1)]);
        let h = FaultHost::new();
        h.arm(
            failpoint::DEV_STORE_DELTA,
            FaultKind::TornWrite { at_byte: 17 },
        );
        d.checkpoint(&s, END, Some(&h)).unwrap();
        let err = d.load_store(Metrics::new()).unwrap_err();
        assert!(matches!(err, LlogError::Codec { .. }), "got {err}");
    }

    #[test]
    fn delayed_manifest_keeps_previous_chain_loadable() {
        let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        let mut s = store_of(&[(1, "a", 1)]);
        d.checkpoint(&s, END, None).unwrap();
        s.write(ObjectId(1), Value::from("z"), Lsn(5));
        let h = FaultHost::new();
        h.arm(failpoint::DEV_STORE_MANIFEST, FaultKind::DelayedWrite);
        d.checkpoint(&s, END, Some(&h)).unwrap();
        // The stale manifest still reconstructs the first checkpoint.
        let loaded = d.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.peek(ObjectId(1)).unwrap().value.as_bytes(), b"a");
    }

    #[test]
    fn duplicated_chain_epoch_is_codec() {
        let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        let s = store_of(&[(1, "a", 1)]);
        d.checkpoint(&s, END, None).unwrap();
        // Forge a manifest listing epoch 1 twice.
        let raw = d.blobs.get(STORE_MANIFEST).unwrap().unwrap();
        let e = parse_manifest(&raw).unwrap().chain[0];
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&3u64.to_le_bytes()); // next_epoch
        out.extend_from_slice(&END.0.to_le_bytes()); // installed_through
        out.extend_from_slice(&2u64.to_le_bytes()); // chain_len
        for _ in 0..2 {
            out.extend_from_slice(&e.epoch.to_le_bytes());
            out.extend_from_slice(&e.len.to_le_bytes());
            out.extend_from_slice(&e.crc.to_le_bytes());
        }
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        d.blobs.put(STORE_MANIFEST, &out).unwrap();
        let err = d.load_store(Metrics::new()).unwrap_err();
        assert!(matches!(err, LlogError::Codec { .. }), "got {err}");
    }
}
