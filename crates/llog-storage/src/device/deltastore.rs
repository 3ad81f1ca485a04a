//! Incremental checkpoint store device: per-object delta pages + a manifest
//! chain. The delta layout is also the one standalone store-image codec
//! ([`encode_image`] / [`decode_image`]: replica attach, backup archives).
//!
//! Layout (blob names):
//! - `ckpt-{epoch:016x}.llog` — one checkpoint delta:
//!   `"LLOGDLT1" | epoch u64 | count u64 | count × (id u64, flags u8,
//!   vsi u64, len u32, bytes) | crc32c u32`. `flags & 1` marks a tombstone
//!   (object removed since the previous checkpoint; vsi/len are zero).
//!   A standalone image is a full-image delta at epoch 0.
//! - `store-manifest.llog` — the chain:
//!   `"LLOGSMF1" | next_epoch u64 | installed_through u64 | chain_len u64 |
//!   chain × (epoch u64, len u64, crc u32) | crc32c u32`.
//!   `installed_through` is the log end at the checkpoint: every `Install`
//!   record below it has its installation in the chain, and recovery
//!   trusts none at or above it.
//!
//! The chain's image is named by `next_epoch` plus each delta's epoch,
//! length and CRC: by content, not device instance, and without
//! `installed_through`, so a manifest-only rewrite keeps the name. The
//! [`StableStore`] keeps the ids it changed since the image it last matched
//! (loaded or checkpointed); a checkpoint writes exactly those, with
//! tombstones only for ids the image held — O(dirty), not O(store). Nothing
//! dirty writes nothing but, if `installed_through` moved, the manifest. A
//! store whose changes are not relative to this image (new, restored, last
//! matched another chain), or a chain at `DeviceConfig::compact_chain`
//! deltas, gets one full-image delta that replaces the chain.
//!
//! Read path: attaching reads the manifest only. The chain's bytes are read,
//! checked and parsed in one place, [`StoreDevice::load_store`]; a
//! checkpoint reads nothing.
//!
//! Write ordering: the delta blob is written first, then the manifest; a
//! crash between the two leaves an orphan delta the manifest never names.
//! A full image writes the new manifest *before* deleting the old deltas.

use std::collections::BTreeMap;
use std::sync::Arc;

use llog_testkit::faults::{failpoint, FaultHost, WriteVerdict};
use llog_types::{crc32c, crc32c_extend, LlogError, Lsn, ObjectId, Result, Value};

use super::blob::{BlobStore, FileBlobs, MemBlobs};
use super::DeviceConfig;
use crate::metrics::Metrics;
use crate::store::{ImageName, StableStore, StoredObject};

/// Manifest blob name for the checkpoint chain.
pub const STORE_MANIFEST: &str = "store-manifest.llog";
const MANIFEST_MAGIC: &[u8; 8] = b"LLOGSMF1";
const DELTA_MAGIC: &[u8; 8] = b"LLOGDLT1";
/// The epoch of a standalone image: chain epochs start at 1.
const IMAGE_EPOCH: u64 = 0;

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
    /// Incrementally checkpoint `store`: persist the objects it changed
    /// since this device's image (plus tombstones), or else a full image;
    /// extend the manifest chain and record `installed_through`, the log
    /// end `store` was captured at.
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
    manifest: Manifest,
}

type Objects = BTreeMap<ObjectId, StoredObject>;

/// The store manifest, as written or last parsed.
#[derive(Debug)]
struct Manifest {
    next_epoch: u64,
    installed_through: Lsn,
    chain: Vec<ChainEntry>,
}

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

    /// Open a file-backed store device at `dir` to replace whatever chain
    /// it holds, reading none of it: the first checkpoint writes a full
    /// image that supersedes the old manifest and deltas only once durable.
    pub fn replace(
        dir: &std::path::Path,
        metrics: Arc<Metrics>,
        cfg: &DeviceConfig,
    ) -> Result<FileStoreDevice> {
        DeltaStore::replacing(FileBlobs::open(dir)?, metrics, cfg, "file")
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
            manifest: Manifest {
                next_epoch: 1,
                installed_through: Lsn::ZERO,
                chain: Vec::new(),
            },
        }
    }

    /// Wrap existing blobs: resume from the manifest when present. Reads the
    /// manifest only; the chain's deltas are read by `load_store` alone.
    pub fn attach(
        blobs: B,
        metrics: Arc<Metrics>,
        cfg: &DeviceConfig,
        kind: &'static str,
    ) -> Result<DeltaStore<B>> {
        let mut d = DeltaStore::over(blobs, metrics, cfg, kind);
        if let Some(m) = read_manifest(&d.blobs)? {
            d.manifest = m;
        }
        Ok(d)
    }

    /// Wrap blobs whose chain must not be read: media recovery replaces a
    /// failed store device. Neither the manifest nor any delta is parsed;
    /// only blob names are listed. The first checkpoint writes a full image
    /// under an epoch past every delta present and deletes those deltas
    /// once its manifest is durable. A crash before then leaves the old
    /// manifest and its deltas untouched: they load as before, or fail
    /// loudly if they were the damage.
    fn replacing(
        blobs: B,
        metrics: Arc<Metrics>,
        cfg: &DeviceConfig,
        kind: &'static str,
    ) -> Result<DeltaStore<B>> {
        let mut d = DeltaStore::over(blobs, metrics, cfg, kind);
        // The deltas present become the chain the full image replaces. Only
        // their epochs are known; a zero length names an image no store
        // can match, so the first checkpoint is a full one.
        d.manifest.chain = d
            .blobs
            .list()?
            .iter()
            .filter_map(|name| {
                let hex = name.strip_prefix("ckpt-")?.strip_suffix(".llog")?;
                let epoch = u64::from_str_radix(hex, 16).ok()?;
                Some(ChainEntry {
                    epoch,
                    len: 0,
                    crc: 0,
                })
            })
            .collect();
        d.manifest.next_epoch = d
            .manifest
            .chain
            .iter()
            .map(|e| e.epoch.saturating_add(1))
            .max()
            .unwrap_or(1);
        Ok(d)
    }

    /// Read, length-check and parse the chain delta `entry` names.
    fn read_delta(&self, entry: &ChainEntry) -> Result<Vec<DeltaEntry>> {
        let name = delta_name(entry.epoch);
        let err = |reason: String| LlogError::Codec { reason };
        let Some(raw) = self.blobs.get(&name)? else {
            return Err(err(format!("store manifest: missing delta {name}")));
        };
        if raw.len() as u64 != entry.len {
            return Err(err(format!(
                "delta {name}: length {} != manifest {}",
                raw.len(),
                entry.len
            )));
        }
        parse_delta(&raw, entry.epoch, Some(entry.crc))
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

    /// Write `next` as the manifest and sync; only then does it become this
    /// device's manifest. Returns bytes persisted and the replaced manifest.
    fn put_manifest(
        &mut self,
        next: Manifest,
        faults: Option<&FaultHost>,
    ) -> Result<(u64, Manifest)> {
        let n = self.faulted_put(
            STORE_MANIFEST,
            failpoint::DEV_STORE_MANIFEST,
            next.image(),
            faults,
        )?;
        self.blobs.sync()?;
        Metrics::bump(&self.metrics.io_fsyncs, 1);
        Ok((n, std::mem::replace(&mut self.manifest, next)))
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

impl Manifest {
    /// The name of the image this chain reconstructs.
    fn name(&self) -> ImageName {
        let mut out = self.next_epoch.to_le_bytes().to_vec();
        put_chain(&mut out, &self.chain);
        out.into()
    }

    fn image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(40 + self.chain.len() * 20);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&self.next_epoch.to_le_bytes());
        out.extend_from_slice(&self.installed_through.0.to_le_bytes());
        out.extend_from_slice(&(self.chain.len() as u64).to_le_bytes());
        put_chain(&mut out, &self.chain);
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }
}

fn put_chain(out: &mut Vec<u8>, chain: &[ChainEntry]) {
    for e in chain {
        out.extend_from_slice(&e.epoch.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.crc.to_le_bytes());
    }
}

/// Read and parse the store manifest, or `None` when there is none.
fn read_manifest<B: BlobStore>(blobs: &B) -> Result<Option<Manifest>> {
    blobs
        .get(STORE_MANIFEST)?
        .map(|raw| parse_manifest(&raw))
        .transpose()
}

/// One delta entry: an object's new state, or `None` for a tombstone.
type DeltaEntry = (ObjectId, Option<StoredObject>);

fn apply_delta(objects: &mut Objects, delta: Vec<DeltaEntry>) {
    for (id, obj) in delta {
        match obj {
            Some(obj) => objects.insert(id, obj),
            None => objects.remove(&id),
        };
    }
}

/// The objects `delta` leaves in an empty store — [`apply_delta`] over an
/// empty map, built in one bulk pass. A chain's first delta is a full
/// image in id order, so the stable sort finds one run and the map is
/// bulk-built from it, not grown by one insert per object. Any other
/// order gives the same map: for a repeated id the last entry wins, and
/// a tombstone leaves the id out.
fn objects_of(mut delta: Vec<DeltaEntry>) -> Objects {
    delta.sort_by_key(|(id, _)| *id);
    let mut latest = Vec::with_capacity(delta.len());
    let mut entries = delta.into_iter().peekable();
    while let Some((id, obj)) = entries.next() {
        if entries.peek().is_some_and(|(next, _)| *next == id) {
            continue; // a later entry for `id` wins
        }
        if let Some(obj) = obj {
            latest.push((id, obj));
        }
    }
    latest.into_iter().collect()
}

fn full_entries<'a>(
    objects: impl IntoIterator<Item = (&'a ObjectId, &'a StoredObject)>,
) -> Vec<DeltaEntry> {
    objects
        .into_iter()
        .map(|(id, obj)| (*id, Some(obj.clone())))
        .collect()
}

/// A standalone full image of `objects` in the delta layout (epoch 0): the
/// store-image codec for replica attach and backup archives.
pub fn encode_image<'a>(
    objects: impl IntoIterator<Item = (&'a ObjectId, &'a StoredObject)>,
) -> Vec<u8> {
    serialize_delta(IMAGE_EPOCH, &full_entries(objects)).0
}

/// Decode an image [`encode_image`] wrote; damage is a `Codec` error.
pub fn decode_image(raw: &[u8]) -> Result<BTreeMap<ObjectId, StoredObject>> {
    Ok(objects_of(parse_delta(raw, IMAGE_EPOCH, None)?))
}

/// The delta blob for `entries`, plus the whole-blob CRC the manifest
/// records (the body CRC extended over its own trailer — one pass).
fn serialize_delta(epoch: u64, entries: &[DeltaEntry]) -> (Vec<u8>, u32) {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(DELTA_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (id, obj) in entries {
        out.extend_from_slice(&id.0.to_le_bytes());
        out.push(u8::from(obj.is_none()));
        let (vsi, value) = obj
            .as_ref()
            .map_or((Lsn::ZERO, &[][..]), |o| (o.vsi, o.value.as_bytes()));
        out.extend_from_slice(&vsi.0.to_le_bytes());
        out.extend_from_slice(&(value.len() as u32).to_le_bytes());
        out.extend_from_slice(value);
    }
    let body_crc = crc32c(&out);
    let trailer = body_crc.to_le_bytes();
    out.extend_from_slice(&trailer);
    (out, crc32c_extend(body_crc, &trailer))
}

/// Parse a delta blob, checking the trailer (body CRC) and, for a chain
/// delta, the manifest's whole-blob `expect_crc` (the body CRC extended over
/// the trailer) in one pass over the body.
fn parse_delta(raw: &[u8], expect_epoch: u64, expect_crc: Option<u32>) -> Result<Vec<DeltaEntry>> {
    let what = match expect_crc {
        Some(_) => format!("delta {}", delta_name(expect_epoch)),
        None => "store image".to_string(),
    };
    let err = |reason: String| LlogError::Codec {
        reason: format!("{what}: {reason}"),
    };
    if raw.len() < 8 + 8 + 8 + 4 {
        return Err(err("too short".into()));
    }
    let (body, trailer) = raw.split_at(raw.len() - 4);
    let body_crc = crc32c(body);
    if expect_crc.is_some_and(|crc| crc32c_extend(body_crc, trailer) != crc) {
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
        let value = Value::from_slice(&body[at..at + len]);
        entries.push((id, (flags == 0).then_some(StoredObject { value, vsi })));
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
        self.manifest.chain.len()
    }

    fn checkpoint(
        &mut self,
        store: &StableStore,
        installed_through: Lsn,
        faults: Option<&FaultHost>,
    ) -> Result<CkptStats> {
        // A full chain folds; so does a store whose changes are not
        // relative to this device's image.
        let changes = if self.manifest.chain.len() >= self.compact_chain {
            None
        } else {
            store.changes_since(&self.manifest.name())
        };
        let full = changes.is_none();
        let (entries, skipped) = match changes {
            None => (full_entries(store.iter()), 0),
            Some(ids) => {
                let entries: Vec<DeltaEntry> = ids
                    .into_iter()
                    .filter_map(|(id, held)| match store.peek(id) {
                        Some(obj) => Some((id, Some(obj.clone()))),
                        None => held.then_some((id, None)),
                    })
                    .collect();
                let live = entries.iter().filter(|(_, obj)| obj.is_some()).count();
                (entries, (store.len() - live) as u64)
            }
        };
        let mut stats = CkptStats {
            objects_skipped: skipped,
            ..CkptStats::default()
        };
        if entries.is_empty() && (!full || self.manifest.chain.is_empty()) {
            // Nothing dirty (or an empty store over an empty chain): the
            // chain on disk already reconstructs `store` exactly. O(0)
            // durability cost, plus the manifest when the bound moved.
            Metrics::bump(&self.metrics.ckpt_objects_skipped, skipped);
            if installed_through != self.manifest.installed_through {
                let next = Manifest {
                    installed_through,
                    chain: self.manifest.chain.clone(),
                    ..self.manifest
                };
                stats.bytes_written = self.put_manifest(next, faults)?.0;
            }
            return Ok(stats);
        }
        let epoch = self.manifest.next_epoch;
        let (image, crc) = serialize_delta(epoch, &entries);
        let entry = ChainEntry {
            epoch,
            len: image.len() as u64,
            crc,
        };
        stats.bytes_written = self.faulted_put(
            &delta_name(epoch),
            failpoint::DEV_STORE_DELTA,
            image,
            faults,
        )?;
        let mut chain = if full {
            Vec::new()
        } else {
            self.manifest.chain.clone()
        };
        chain.push(entry);
        let next = Manifest {
            next_epoch: epoch + 1,
            installed_through,
            chain,
        };
        let (n, old) = self.put_manifest(next, faults)?;
        stats.bytes_written += n;
        // New manifest durable: a full image's replaced deltas are
        // unreachable.
        let old_chain = if full { old.chain } else { Vec::new() };
        for e in &old_chain {
            self.blobs.delete(&delta_name(e.epoch))?;
        }
        if !old_chain.is_empty() {
            self.blobs.sync()?;
        }
        store.settle(self.manifest.name());
        stats.objects_written = entries.len() as u64;
        stats.compacted = !old_chain.is_empty();
        Metrics::bump(&self.metrics.ckpt_objects_written, stats.objects_written);
        Metrics::bump(&self.metrics.ckpt_objects_skipped, skipped);
        Ok(stats)
    }

    fn load_store(&self, metrics: Arc<Metrics>) -> Result<Option<StableStore>> {
        let Some(manifest) = read_manifest(&self.blobs)? else {
            return Ok(None);
        };
        let mut deltas = manifest.chain.iter().map(|entry| self.read_delta(entry));
        let mut objects = match deltas.next() {
            Some(first) => objects_of(first?),
            None => Objects::new(),
        };
        for delta in deltas {
            apply_delta(&mut objects, delta?);
        }
        let mut store = StableStore::new(metrics);
        store.restore(objects);
        store.set_installed_through(manifest.installed_through);
        store.settle(manifest.name());
        Ok(Some(store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_testkit::faults::FaultKind;
    use llog_testkit::rng::TestRng;

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

    /// The entries of the delta `d` wrote last.
    fn last_delta(d: &MemStoreDevice) -> Vec<DeltaEntry> {
        let e = *d.manifest.chain.last().expect("a chain");
        let raw = d.blobs.get(&delta_name(e.epoch)).unwrap().unwrap();
        parse_delta(&raw, e.epoch, Some(e.crc)).unwrap()
    }

    fn hex(b: &[u8]) -> String {
        b.iter().map(|x| format!("{x:02x}")).collect()
    }

    #[test]
    fn attach_resumes_epochs_and_a_clean_store_writes_nothing() {
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
        // Reopen: the chain still names the store's image, so a clean store
        // checkpoints for free.
        let mut d = FileStoreDevice::file(&dir, Metrics::new(), &cfg(100)).unwrap();
        let st = d.checkpoint(&s, END, None).unwrap();
        assert_eq!((st.objects_written, st.objects_skipped), (0, 2));
        let loaded = d.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.snapshot(), s.snapshot());
        std::fs::remove_dir_all(&dir).ok();
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
        let full = encode_image(s.iter()).len() as u64;
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

    /// Media recovery's device never reads the old chain. A checkpoint that
    /// fails before its manifest lands leaves the old manifest and deltas
    /// as they were; one that succeeds leaves only the new full image.
    #[test]
    fn replacing_device_keeps_the_old_chain_until_its_manifest_lands() {
        let mut old = store_of(&[(1, "a", 1), (2, "b", 2)]);
        let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        d.checkpoint(&old, END, None).unwrap();
        old.write(ObjectId(2), Value::from("B"), Lsn(3));
        d.checkpoint(&old, END, None).unwrap();
        let mut restored = StableStore::new(Metrics::new());
        restored.restore(store_of(&[(1, "x", 1), (3, "y", 4)]).snapshot());

        let mut r =
            DeltaStore::replacing(d.blobs.clone(), Metrics::new(), &cfg(100), "mem").unwrap();
        for point in [failpoint::DEV_STORE_DELTA, failpoint::DEV_STORE_MANIFEST] {
            let h = FaultHost::new();
            h.arm(point, FaultKind::IoError);
            assert!(r.checkpoint(&restored, END, Some(&h)).is_err(), "{point}");
            let reopened =
                DeltaStore::attach(r.blobs.clone(), Metrics::new(), &cfg(100), "mem").unwrap();
            let loaded = reopened.load_store(Metrics::new()).unwrap().unwrap();
            assert_eq!(
                loaded.snapshot(),
                old.snapshot(),
                "{point}: old chain changed"
            );
        }
        let st = r.checkpoint(&restored, END, None).unwrap();
        assert_eq!((st.objects_written, st.compacted), (2, true));
        assert_eq!(
            r.blobs.list().unwrap(),
            vec![delta_name(3), STORE_MANIFEST.to_string()],
            "the old deltas are gone; the new image is past their epochs"
        );
        let loaded = r.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.snapshot(), restored.snapshot());

        // A rotten manifest stops attach, not a replacing device.
        let mut blobs = d.blobs.clone();
        let mut raw = blobs.get(STORE_MANIFEST).unwrap().unwrap();
        raw[12] ^= 0x40;
        blobs.put(STORE_MANIFEST, &raw).unwrap();
        assert!(DeltaStore::attach(blobs.clone(), Metrics::new(), &cfg(100), "mem").is_err());
        let mut r = DeltaStore::replacing(blobs, Metrics::new(), &cfg(100), "mem").unwrap();
        r.checkpoint(&restored, END, None).unwrap();
        let loaded = r.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.snapshot(), restored.snapshot());
    }

    /// A second device over the same blobs (`llogtool`'s save path) writes
    /// the same delta as the device that wrote the chain.
    #[test]
    fn attached_device_writes_the_pinned_delta() {
        let mut s = store_of(&[(1, "a", 1), (2, "b", 2), (3, "c", 3)]);
        let mut writer = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        writer.checkpoint(&s, END, None).unwrap();
        let mut attached =
            DeltaStore::attach(writer.blobs.clone(), Metrics::new(), &cfg(100), "mem").unwrap();
        s.write(ObjectId(2), Value::from("B"), Lsn(9));
        s.remove(ObjectId(3));
        s.write(ObjectId(4), Value::from("d"), Lsn(10));
        let st = attached.checkpoint(&s, END, None).unwrap();
        assert_eq!((st.objects_written, st.objects_skipped), (3, 1));
        // Byte for byte what the checkpoint that diffed against an in-memory
        // copy of the image wrote for this sequence (captured from it).
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
        // The writer still holds the pre-checkpoint image: it gets the same
        // delta, because the store kept its change set until its next write.
        writer.checkpoint(&s, END, None).unwrap();
        assert_eq!(writer.dump_blobs().unwrap(), attached.dump_blobs().unwrap());
        // A store loaded from the chain matches it: nothing to write.
        let loaded = attached.load_store(Metrics::new()).unwrap().unwrap();
        let st = writer.checkpoint(&loaded, END, None).unwrap();
        assert_eq!((st.objects_written, st.objects_skipped), (0, 3));
    }

    #[test]
    fn installed_through_survives_attach_and_load_store() {
        let s = store_of(&[(1, "a", 1)]);
        let mut writer = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        writer.checkpoint(&s, Lsn(40), None).unwrap();
        let attached =
            DeltaStore::attach(writer.blobs.clone(), Metrics::new(), &cfg(100), "mem").unwrap();
        assert_eq!(attached.manifest.installed_through, Lsn(40));
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
        // The name leaves the bound out: the store `writer` loaded before
        // the manifest-only rewrite is still clean against it.
        let st = writer.checkpoint(&loaded, Lsn(41), None).unwrap();
        assert_eq!(st.objects_written, 0);
    }

    /// A failed checkpoint leaves the store's change set in place: the next
    /// one still rebuilds the store exactly.
    #[test]
    fn failed_checkpoint_keeps_the_change_set() {
        for point in [failpoint::DEV_STORE_DELTA, failpoint::DEV_STORE_MANIFEST] {
            let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(100));
            let mut s = store_of(&[(1, "a", 1), (2, "b", 2), (3, "c", 3)]);
            d.checkpoint(&s, END, None).unwrap();
            s.write(ObjectId(2), Value::from("B"), Lsn(9));
            s.remove(ObjectId(3));
            let h = FaultHost::new();
            h.arm(point, FaultKind::IoError);
            assert!(d.checkpoint(&s, END, Some(&h)).is_err(), "{point}");
            let st = d.checkpoint(&s, END, None).unwrap();
            assert!(st.objects_written > 0, "{point}: the retry wrote nothing");
            let reopened =
                DeltaStore::attach(d.blobs.clone(), Metrics::new(), &cfg(100), "mem").unwrap();
            let loaded = reopened.load_store(Metrics::new()).unwrap().unwrap();
            assert_eq!(loaded.snapshot(), s.snapshot(), "{point}");
        }
    }

    /// Entry for entry, each delta is a diff of the store against the image
    /// it last matched: the algorithm the change set replaced, kept as the
    /// oracle. An id created and removed again between two checkpoints was
    /// never in the image, so it gets no tombstone.
    #[test]
    fn delta_matches_the_image_diff_oracle() {
        let mut rng = TestRng::seed_from_u64(0x5EED_D17A);
        let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        let mut s = StableStore::new(Metrics::new());
        let (mut image, mut vsi) = (Objects::new(), 0u64);
        for round in 0..40u64 {
            for _ in 0..rng.random_range(0usize..12) {
                let x = ObjectId(rng.random_range(0u64..24));
                vsi += 1;
                if rng.ratio(0.3) {
                    s.remove(x);
                } else {
                    s.write(x, Value::from(format!("{vsi}").as_bytes()), Lsn(vsi));
                }
            }
            let fleeting = ObjectId(1_000 + round);
            s.write(fleeting, Value::from("gone"), Lsn(vsi));
            s.remove(fleeting);
            let mut expect: Vec<DeltaEntry> = s
                .iter()
                .filter(|(x, obj)| image.get(x) != Some(obj))
                .map(|(x, obj)| (*x, Some(obj.clone())))
                .collect();
            expect.extend(
                image
                    .keys()
                    .filter(|x| s.peek(**x).is_none())
                    .map(|x| (*x, None)),
            );
            expect.sort_by_key(|(x, _)| *x);
            let st = d.checkpoint(&s, END, None).unwrap();
            assert_eq!(st.objects_written, expect.len() as u64, "round {round}");
            if !expect.is_empty() {
                assert_eq!(last_delta(&d), expect, "round {round}");
            }
            image = s.snapshot();
        }
    }

    /// The insert-loop fold the bulk build replaced: `apply_delta` over an
    /// empty map, delta by delta — the oracle for `objects_of`.
    fn fold(deltas: impl IntoIterator<Item = Vec<DeltaEntry>>) -> Objects {
        let mut objects = Objects::new();
        for delta in deltas {
            apply_delta(&mut objects, delta);
        }
        objects
    }

    /// Every delta of `d`'s chain, parsed, in chain order.
    fn chain_deltas(d: &MemStoreDevice) -> Vec<Vec<DeltaEntry>> {
        d.manifest
            .chain
            .iter()
            .map(|e| d.read_delta(e).unwrap())
            .collect()
    }

    /// `load_store` bulk-builds the chain's first delta, then applies the
    /// rest. Over seeded random chains — tombstones, re-inserts of removed
    /// ids, a compaction — it must equal the insert-loop fold.
    #[test]
    fn bulk_built_store_equals_the_insert_loop_fold() {
        let mut rng = TestRng::seed_from_u64(0xB01C_B11D);
        let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(5));
        let mut s = StableStore::new(Metrics::new());
        let (mut vsi, mut compactions, mut tombstones) = (0u64, 0, 0);
        for round in 0..24 {
            for _ in 0..rng.random_range(1usize..16) {
                let x = ObjectId(rng.random_range(0u64..32));
                vsi += 1;
                if rng.ratio(0.3) {
                    s.remove(x);
                } else {
                    s.write(x, Value::from(format!("{vsi}").as_bytes()), Lsn(vsi));
                }
            }
            compactions += usize::from(d.checkpoint(&s, END, None).unwrap().compacted);
            let deltas = chain_deltas(&d);
            tombstones += deltas.iter().flatten().filter(|(_, o)| o.is_none()).count();
            let first = deltas[0].clone();
            assert_eq!(objects_of(first.clone()), fold([first]), "round {round}");
            let loaded = d.load_store(Metrics::new()).unwrap().unwrap();
            assert_eq!(loaded.snapshot(), fold(deltas), "round {round}");
            assert_eq!(loaded.snapshot(), s.snapshot(), "round {round}");
        }
        assert!(compactions >= 1, "the chain folded at least once");
        assert!(tombstones >= 1, "the chains carried tombstones");
    }

    /// A delta that names one id several times, out of id order and with a
    /// tombstone between its entries: the last entry wins on both paths,
    /// through the standalone image codec and as a chain's first delta.
    #[test]
    fn a_repeated_id_in_one_delta_ends_at_its_last_entry_on_both_paths() {
        let obj = |v: &str, vsi| {
            Some(StoredObject {
                value: Value::from(v),
                vsi: Lsn(vsi),
            })
        };
        let crafted: Vec<DeltaEntry> = vec![
            (ObjectId(5), obj("a", 1)),
            (ObjectId(3), obj("b", 2)),
            (ObjectId(5), None),
            (ObjectId(9), obj("c", 3)),
            (ObjectId(5), obj("d", 4)),
            (ObjectId(3), None),
            (ObjectId(9), obj("e", 5)),
        ];
        let oracle = fold([crafted.clone()]);
        let expect: Objects = [(ObjectId(5), obj("d", 4)), (ObjectId(9), obj("e", 5))]
            .into_iter()
            .map(|(id, o)| (id, o.unwrap()))
            .collect();
        assert_eq!(oracle, expect, "the insert loop: last entry wins");
        assert_eq!(objects_of(crafted.clone()), oracle, "bulk build");

        let (image, _) = serialize_delta(IMAGE_EPOCH, &crafted);
        assert_eq!(decode_image(&image).unwrap(), oracle, "decode_image");

        let (delta, crc) = serialize_delta(1, &crafted);
        let manifest = Manifest {
            next_epoch: 2,
            installed_through: END,
            chain: vec![ChainEntry {
                epoch: 1,
                len: delta.len() as u64,
                crc,
            }],
        };
        let mut blobs = MemBlobs::new();
        blobs.put(&delta_name(1), &delta).unwrap();
        blobs.put(STORE_MANIFEST, &manifest.image()).unwrap();
        let d = DeltaStore::attach(blobs, Metrics::new(), &cfg(100), "mem").unwrap();
        let loaded = d.load_store(Metrics::new()).unwrap().unwrap();
        assert_eq!(loaded.snapshot(), oracle, "load_store");
    }

    /// A store whose changes are not relative to the device's image gets a
    /// full image: a new store, a restored one, and one last checkpointed
    /// into a device holding a different chain.
    #[test]
    fn a_store_the_device_did_not_load_or_write_gets_a_full_image() {
        let fresh = store_of(&[(1, "a", 1), (2, "b", 2)]);
        let mut restored = StableStore::new(Metrics::new());
        restored.restore(fresh.snapshot());
        let elsewhere = store_of(&[(1, "a", 1), (2, "b", 2)]);
        let mut other = MemStoreDevice::mem(Metrics::new(), &cfg(100));
        other.checkpoint(&elsewhere, END, None).unwrap();
        for (what, s) in [
            ("new", &fresh),
            ("restored", &restored),
            ("other", &elsewhere),
        ] {
            let mut d = MemStoreDevice::mem(Metrics::new(), &cfg(100));
            d.checkpoint(&store_of(&[(7, "old", 1)]), END, None)
                .unwrap();
            let st = d.checkpoint(s, END, None).unwrap();
            assert!(st.compacted, "{what}: the old chain was kept");
            assert_eq!(last_delta(&d), full_entries(s.iter()), "{what}");
            // The store now matches this device's image.
            let st = d.checkpoint(s, END, None).unwrap();
            assert_eq!(st.objects_written, 0, "{what}");
        }
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
        put_chain(&mut out, &[e, e]);
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        d.blobs.put(STORE_MANIFEST, &out).unwrap();
        let err = d.load_store(Metrics::new()).unwrap_err();
        assert!(matches!(err, LlogError::Codec { .. }), "got {err}");
    }
}
