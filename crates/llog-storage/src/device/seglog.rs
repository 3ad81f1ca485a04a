//! Segmented log device: append-only WAL segments + a CRC'd manifest.
//!
//! Layout (blob names):
//! - `seg-{start:016x}.llog` — WAL frame bytes whose first byte sits at
//!   absolute LSN `start`. Two physical layouts, distinguished by an
//!   8-byte magic sniff:
//!   - *legacy*: raw frame bytes, file length == logical length;
//!   - *preallocated*: `"LLOGSEG1" | start u64 | frames | zero fill`,
//!     physical length fixed at `16 + segment_bytes` so steady-state
//!     appends overwrite in place and never grow the file. The zero fill
//!     (and any stale frames left by recycling) is rejected at load by the
//!     address-bound frame CRC: a frame checksums only at the exact LSN it
//!     was appended at, and `frame_crc(lsn, "") != 0`.
//!
//!   The manifest carries length + CRC for every *sealed* segment (over the
//!   logical frame bytes only). The open (tail) segment is unsealed: its
//!   bytes are validated by the frame-level scan at recovery, exactly like
//!   the in-memory WAL's unforced tail.
//! - `pool-{start:016x}.llog` — a retired segment parked for recycling
//!   (`start` is from its previous life). Rotation adopts one by rename +
//!   header re-stamp instead of creating a segment cold.
//! - `wal-manifest.llog` — `"LLOGWMF2" | base u64 | master u64 |
//!   open_start u64 | sealed_count u64 | sealed × (start u64, len u64,
//!   crc u32) | crc32c u32`. The magic names the record format of the
//!   frames: `2` is the varint one. A `"LLOGWMF1"` device holds
//!   fixed-width records, which pass the frame CRC but would decode as
//!   garbage, so `load` refuses it.
//!
//! Write ordering: segment bytes are appended first, the manifest is written
//! at the force barrier; truncation writes the shrunk manifest *before*
//! deleting reclaimed segment blobs so a crash between the two leaves only
//! harmless orphans, never a manifest pointing at missing data.
//!
//! The generic core [`SegLog<B>`] runs identical logic over [`MemBlobs`] and
//! [`FileBlobs`]; fault verdicts from an armed [`FaultHost`] mutate the bytes
//! *before* they reach the blob layer, so both backends persist identical
//! images under identical fault plans.

use std::sync::{Arc, Mutex, PoisonError};

use llog_testkit::faults::{failpoint, FaultHost, WriteVerdict};
use llog_types::{crc32c, frame_crc, LlogError, Lsn, Result, FRAME_HEADER};

use super::blob::{BlobStore, FileBlobs, MemBlobs};
use super::DeviceConfig;
use crate::metrics::Metrics;

/// Manifest blob name for the segmented log.
pub const WAL_MANIFEST: &str = "wal-manifest.llog";
const MANIFEST_MAGIC: &[u8; 8] = b"LLOGWMF2";
/// The magic of devices whose frames hold fixed-width records.
const FIXED_WIDTH_MAGIC: &[u8; 8] = b"LLOGWMF1";
const SEG_MAGIC: &[u8; 8] = b"LLOGSEG1";
/// Physical header of a preallocated segment blob: magic + start LSN.
pub const SEG_HEADER: usize = 16;

/// Blob name of the segment whose first byte is at absolute LSN `start`.
pub fn segment_name(start: Lsn) -> String {
    format!("seg-{:016x}.llog", start.0)
}

/// Blob name of a retired segment parked for recycling; `start` is from its
/// previous life and only keeps pool names unique.
fn pool_name(start: Lsn) -> String {
    format!("pool-{:016x}.llog", start.0)
}

/// `Some(previous start)` when `bytes` carries a preallocated-segment header.
fn sniff_header(bytes: &[u8]) -> Option<u64> {
    if bytes.len() >= SEG_HEADER && &bytes[..8] == SEG_MAGIC {
        Some(u64::from_le_bytes(bytes[8..16].try_into().unwrap()))
    } else {
        None
    }
}

fn seg_header(start: Lsn) -> [u8; SEG_HEADER] {
    let mut hdr = [0u8; SEG_HEADER];
    hdr[..8].copy_from_slice(SEG_MAGIC);
    hdr[8..16].copy_from_slice(&start.0.to_le_bytes());
    hdr
}

/// The durable content of a log device, read back at recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogParts {
    /// Absolute LSN of `bytes[0]` (the retained base).
    pub base: Lsn,
    /// Master checkpoint LSN (`Lsn::ZERO` when none recorded).
    pub master: Lsn,
    /// Torn-tail boundary: corruption at-or-after this LSN is a clipped torn
    /// tail; corruption below it is hard `Corrupt`. Equals the open segment's
    /// start — every sealed segment below it was CRC-verified at load.
    pub tail_guard: Lsn,
    /// The retained frame bytes, sealed segments then the open tail.
    pub bytes: Vec<u8>,
}

/// Pluggable append-only log backend: segment rotation, manifest-at-force,
/// whole-segment truncation reclaim.
pub trait LogDevice: Send + std::fmt::Debug {
    /// Backend name (`"mem"` or `"file"`), for stats and CLI output.
    fn kind(&self) -> &'static str;
    /// Absolute LSN of the first retained byte.
    fn start(&self) -> Lsn;
    /// One past the last persisted byte (`start` + total retained length).
    fn end(&self) -> Lsn;
    /// Highest LSN known durable *and* uncorrupted (wounds from injected
    /// bit-rot cap this below [`LogDevice::end`]).
    fn durable_end(&self) -> Lsn;
    /// Master checkpoint LSN recorded for the manifest.
    fn master(&self) -> Lsn;
    /// Record the master checkpoint LSN (persisted at the next force).
    fn set_master(&mut self, lsn: Lsn);
    /// Append frame bytes whose first byte is at `at` (must equal
    /// [`LogDevice::end`]). Returns the count of *clean* bytes appended —
    /// a fault verdict may tear, skip or corrupt the write.
    fn append(&mut self, at: Lsn, bytes: &[u8], faults: Option<&FaultHost>) -> Result<u64>;
    /// Durability barrier: writes the manifest if stale and syncs all blobs.
    fn force(&mut self, faults: Option<&FaultHost>) -> Result<()>;
    /// First half of a split durability barrier: write the manifest if stale
    /// but do **not** sync the blobs — the caller owns the sync. A
    /// cross-shard coalescing scheduler stages many devices this way and
    /// covers them all with one shared barrier ([`LogDevice::sync_uncounted`]).
    fn stage(&mut self, faults: Option<&FaultHost>) -> Result<()>;
    /// Second half of a split barrier: sync all blobs *without* counting an
    /// fsync in the metrics ledger — the caller accounts the shared barrier
    /// exactly once, however many devices ride it.
    fn sync_uncounted(&mut self) -> Result<()>;
    /// Reclaim whole segments strictly below `lsn` (durable space reclaim).
    /// Returns the number of segments dropped. The retained base may stay
    /// below `lsn` — reclaim is segment-granular, never byte-granular.
    fn truncate_below(&mut self, lsn: Lsn, faults: Option<&FaultHost>) -> Result<u64>;
    /// Wipe everything and restart the log at `base` (fresh attach or full
    /// rewrite fallback).
    fn reset(&mut self, base: Lsn, faults: Option<&FaultHost>) -> Result<()>;
    /// Read back the durable content, or `None` when no manifest exists.
    /// Sealed-segment CRC/length/contiguity violations are `Codec` errors.
    fn load_parts(&self) -> Result<Option<LogParts>>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SealedSeg {
    start: Lsn,
    len: u64,
    crc: u32,
}

/// Generic segmented-log core; see the module docs for layout and ordering.
#[derive(Debug)]
pub struct SegLog<B: BlobStore> {
    blobs: B,
    metrics: Arc<Metrics>,
    segment_bytes: usize,
    kind: &'static str,
    base: Lsn,
    master: Lsn,
    sealed: Vec<SealedSeg>,
    open_start: Lsn,
    /// In-memory mirror of the open segment's blob content (post-verdict
    /// bytes), so sealing can CRC without re-reading the blob.
    open: Vec<u8>,
    /// Absolute LSN where durable corruption begins (injected bit-rot). Once
    /// wounded the device refuses further appends, so callers can never ack
    /// bytes beyond the corruption.
    wounded: Option<Lsn>,
    dirty_manifest: bool,
    /// Preallocate open segments to full size (see [`DeviceConfig`]).
    preallocate: bool,
    /// Retired segments kept for recycling (0 disables the pool).
    recycle_cap: usize,
    /// Parked retired-segment blob names available for recycling.
    pool: Vec<String>,
    /// Whether the open segment's blob has been materialized this rotation
    /// (recycled, preallocated, or — legacy — lazily created by append).
    open_blob_ready: bool,
    /// Whether the open segment's blob carries the preallocated header, so
    /// appends know to write in place past it rather than append.
    open_headered: bool,
    /// The parts `attach` read, handed to the first `load_parts` so a boot
    /// reads every segment once. Dropped by the first write to the device,
    /// after which `load_parts` reads the blobs again.
    primed: Mutex<Option<LogParts>>,
}

/// One read of a device: the recovery parts plus the manifest and open-blob
/// shape `attach` resumes from.
struct Image {
    parts: LogParts,
    manifest: ManifestState,
    /// The open segment blob's sniffed header: `None` when the blob is
    /// absent, `Some(None)` for a legacy (unheadered) blob.
    open_header: Option<Option<u64>>,
}

/// In-memory log device (the fuzz-fast deterministic backend).
pub type MemLogDevice = SegLog<MemBlobs>;
/// File-backed log device (real files, real fsync).
pub type FileLogDevice = SegLog<FileBlobs>;

impl MemLogDevice {
    /// Create a fresh in-memory log device starting at `base`.
    pub fn mem(metrics: Arc<Metrics>, cfg: &DeviceConfig, base: Lsn) -> MemLogDevice {
        let mut d = SegLog::over(MemBlobs::new(), metrics, cfg, "mem");
        d.base = base;
        d.open_start = base;
        d
    }
}

impl FileLogDevice {
    /// Open (resuming if a manifest exists, else creating at `base`) a
    /// file-backed log device rooted at `dir`.
    pub fn file(
        dir: &std::path::Path,
        metrics: Arc<Metrics>,
        cfg: &DeviceConfig,
        base: Lsn,
    ) -> Result<FileLogDevice> {
        let blobs = FileBlobs::open(dir)?;
        SegLog::attach(blobs, metrics, cfg, "file", base)
    }
}

impl<B: BlobStore> SegLog<B> {
    fn over(blobs: B, metrics: Arc<Metrics>, cfg: &DeviceConfig, kind: &'static str) -> SegLog<B> {
        SegLog {
            blobs,
            metrics,
            segment_bytes: cfg.segment_bytes.max(1),
            kind,
            base: Lsn(1),
            master: Lsn::ZERO,
            sealed: Vec::new(),
            open_start: Lsn(1),
            open: Vec::new(),
            wounded: None,
            dirty_manifest: true,
            preallocate: cfg.preallocate,
            recycle_cap: cfg.recycle_pool,
            pool: Vec::new(),
            open_blob_ready: false,
            open_headered: false,
            primed: Mutex::new(None),
        }
    }

    /// Wrap existing blobs: resume from the manifest when present, otherwise
    /// start fresh at `base`.
    pub fn attach(
        blobs: B,
        metrics: Arc<Metrics>,
        cfg: &DeviceConfig,
        kind: &'static str,
        base: Lsn,
    ) -> Result<SegLog<B>> {
        let mut d = SegLog::over(blobs, metrics, cfg, kind);
        d.pool = d
            .blobs
            .list()?
            .into_iter()
            .filter(|n| n.starts_with("pool-"))
            .collect();
        match d.read_image()? {
            Some(Image {
                parts,
                manifest,
                open_header,
            }) => {
                d.base = manifest.base;
                d.master = manifest.master;
                d.sealed = manifest.sealed;
                d.open_start = manifest.open_start;
                // `read_image` normalizes a preallocated tail (clips zero
                // fill and stale recycled frames), so the in-memory mirror
                // tracks only real frame bytes.
                let off = (d.open_start.0 - d.base.0) as usize;
                d.open = parts.bytes.get(off..).unwrap_or_default().to_vec();
                match open_header {
                    Some(Some(start)) if start == d.open_start.0 => {
                        d.open_headered = true;
                        d.open_blob_ready = true;
                    }
                    // A stale header means a crash landed between the
                    // recycle rename and the re-stamp: nothing from this
                    // life was written, rebuild on next append.
                    Some(Some(_)) => d.open_blob_ready = false,
                    Some(None) => {
                        d.open_headered = false;
                        d.open_blob_ready = true;
                    }
                    None => d.open_blob_ready = false,
                }
                d.dirty_manifest = false;
                d.primed = Mutex::new(Some(parts));
            }
            None => {
                d.base = base;
                d.open_start = base;
            }
        }
        Ok(d)
    }

    /// Dump every blob this device holds, sorted by name. The Mem↔File
    /// differential oracle compares these dumps for byte-identity: identical
    /// workloads under identically-armed fault plans must leave identical
    /// blob state in both backends.
    pub fn dump_blobs(&self) -> Result<Vec<(String, Vec<u8>)>> {
        let mut out = Vec::new();
        for name in self.blobs.list()? {
            let bytes = self.blobs.get(&name)?.unwrap_or_default();
            out.push((name, bytes));
        }
        Ok(out)
    }

    fn manifest_image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.sealed.len() * 20);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&self.base.0.to_le_bytes());
        out.extend_from_slice(&self.master.0.to_le_bytes());
        out.extend_from_slice(&self.open_start.0.to_le_bytes());
        out.extend_from_slice(&(self.sealed.len() as u64).to_le_bytes());
        for s in &self.sealed {
            out.extend_from_slice(&s.start.0.to_le_bytes());
            out.extend_from_slice(&s.len.to_le_bytes());
            out.extend_from_slice(&s.crc.to_le_bytes());
        }
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Drop the parts `attach` primed: the device is about to change.
    fn unprime(&mut self) {
        *self
            .primed
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    fn write_manifest(&mut self, faults: Option<&FaultHost>) -> Result<()> {
        self.unprime();
        let image = self.manifest_image();
        let verdict = match faults {
            Some(h) => h
                .on_write(failpoint::DEV_LOG_MANIFEST, &image)
                .map_err(|f| LlogError::Io {
                    point: f.point,
                    reason: f.reason,
                })?,
            None => WriteVerdict::Persist(image),
        };
        match verdict {
            WriteVerdict::Persist(img) => {
                Metrics::bump(&self.metrics.io_bytes_written, img.len() as u64);
                self.blobs.put(WAL_MANIFEST, &img)?;
            }
            WriteVerdict::Skip => {} // lost write: stale manifest stays
        }
        self.dirty_manifest = false;
        Ok(())
    }

    fn seal_open(&mut self) {
        let crc = crc32c(&self.open);
        self.sealed.push(SealedSeg {
            start: self.open_start,
            len: self.open.len() as u64,
            crc,
        });
        self.open_start = Lsn(self.open_start.0 + self.open.len() as u64);
        self.open.clear();
        // Sealing is pure bookkeeping — the sealed blob keeps its name; the
        // next append materializes the next open blob.
        self.open_blob_ready = false;
        self.open_headered = false;
        self.dirty_manifest = true;
        Metrics::bump(&self.metrics.segments_rotated, 1);
    }

    /// Materialize the open segment's blob if this rotation has not yet:
    /// recycle a parked retired segment (rename + header re-stamp), or
    /// preallocate a fresh one to full size, or — legacy mode — leave it to
    /// `append` to create lazily.
    fn ensure_open_blob(&mut self, name: &str) -> Result<()> {
        if self.open_blob_ready {
            return Ok(());
        }
        if self.preallocate {
            let hdr = seg_header(self.open_start);
            match self.pool.pop() {
                Some(parked) => {
                    // Adopt the retired blob, then re-stamp its header with
                    // the new start address. Its previous life's frames stay
                    // beyond the header; the address-bound frame CRC rejects
                    // them at load, so they can never resurrect.
                    self.blobs.rename(&parked, name)?;
                    self.blobs.write_at(name, 0, &hdr)?;
                    Metrics::bump(&self.metrics.io_bytes_written, SEG_HEADER as u64);
                    Metrics::bump(&self.metrics.segments_recycled, 1);
                }
                None => {
                    // Pay the full-size write (and its metadata update) once
                    // here so steady-state appends never grow the file.
                    let mut img = vec![0u8; SEG_HEADER + self.segment_bytes];
                    img[..SEG_HEADER].copy_from_slice(&hdr);
                    Metrics::bump(&self.metrics.io_bytes_written, img.len() as u64);
                    self.blobs.put(name, &img)?;
                }
            }
            self.open_headered = true;
        } else {
            // Legacy unheadered tail, created lazily by `append`. A
            // half-recycled blob (stale header) may sit at this name after
            // a crash; drop it so appends start clean.
            self.blobs.delete(name)?;
            self.open_headered = false;
        }
        self.open_blob_ready = true;
        Ok(())
    }
}

impl<B: BlobStore> LogDevice for SegLog<B> {
    fn kind(&self) -> &'static str {
        self.kind
    }

    fn start(&self) -> Lsn {
        self.base
    }

    fn end(&self) -> Lsn {
        Lsn(self.open_start.0 + self.open.len() as u64)
    }

    fn durable_end(&self) -> Lsn {
        match self.wounded {
            Some(w) => Lsn(w.0.min(self.end().0)),
            None => self.end(),
        }
    }

    fn master(&self) -> Lsn {
        self.master
    }

    fn set_master(&mut self, lsn: Lsn) {
        if self.master != lsn {
            self.master = lsn;
            self.dirty_manifest = true;
        }
    }

    fn append(&mut self, at: Lsn, bytes: &[u8], faults: Option<&FaultHost>) -> Result<u64> {
        self.unprime();
        if self.wounded.is_some() {
            return Ok(0); // refuse writes past durable corruption
        }
        if at != self.end() {
            return Err(LlogError::Io {
                point: "device.log.append".to_string(),
                reason: format!("append gap: at={} device end={}", at.0, self.end().0),
            });
        }
        let verdict = match faults {
            Some(h) => h
                .on_write(failpoint::DEV_LOG_APPEND, bytes)
                .map_err(|f| LlogError::Io {
                    point: f.point,
                    reason: f.reason,
                })?,
            None => WriteVerdict::Persist(bytes.to_vec()),
        };
        let actual = match verdict {
            WriteVerdict::Persist(img) => img,
            WriteVerdict::Skip => Vec::new(), // lost write
        };
        // Clean prefix: bytes persisted verbatim. A bit-flip verdict wounds
        // the device at the first divergent byte.
        let clean = actual
            .iter()
            .zip(bytes.iter())
            .take_while(|(a, b)| a == b)
            .count();
        if clean < actual.len() {
            self.wounded = Some(Lsn(at.0 + clean as u64));
        }
        if !actual.is_empty() {
            Metrics::bump(&self.metrics.io_bytes_written, actual.len() as u64);
            // Split across segment boundaries so rotation happens at the
            // configured size regardless of append chunking.
            let mut rest: &[u8] = &actual;
            while !rest.is_empty() {
                let room = self.segment_bytes.saturating_sub(self.open.len()).max(1);
                let take = rest.len().min(room);
                let (chunk, tail) = rest.split_at(take);
                let name = segment_name(self.open_start);
                self.ensure_open_blob(&name)?;
                if self.open_headered {
                    let at = (SEG_HEADER + self.open.len()) as u64;
                    self.blobs.write_at(&name, at, chunk)?;
                } else {
                    self.blobs.append(&name, chunk)?;
                }
                self.open.extend_from_slice(chunk);
                rest = tail;
                if self.open.len() >= self.segment_bytes {
                    self.seal_open();
                }
            }
        }
        Ok(clean as u64)
    }

    fn force(&mut self, faults: Option<&FaultHost>) -> Result<()> {
        if self.dirty_manifest {
            self.write_manifest(faults)?;
        }
        self.blobs.sync()?;
        Metrics::bump(&self.metrics.io_fsyncs, 1);
        Ok(())
    }

    fn stage(&mut self, faults: Option<&FaultHost>) -> Result<()> {
        if self.dirty_manifest {
            self.write_manifest(faults)?;
        }
        Ok(())
    }

    fn sync_uncounted(&mut self) -> Result<()> {
        self.blobs.sync()
    }

    fn truncate_below(&mut self, lsn: Lsn, faults: Option<&FaultHost>) -> Result<u64> {
        self.unprime();
        let mut dropped: Vec<SealedSeg> = Vec::new();
        while let Some(first) = self.sealed.first().copied() {
            if first.start.0 + first.len <= lsn.0 {
                dropped.push(first);
                self.sealed.remove(0);
            } else {
                break;
            }
        }
        if dropped.is_empty() {
            return Ok(0);
        }
        self.base = self.sealed.first().map_or(self.open_start, |s| s.start);
        if self.master != Lsn::ZERO && self.master < self.base {
            self.master = Lsn::ZERO;
        }
        self.dirty_manifest = true;
        // Manifest first, then delete: a crash between the two leaves orphan
        // segment blobs (harmless), never a manifest naming missing data.
        self.write_manifest(faults)?;
        self.blobs.sync()?;
        Metrics::bump(&self.metrics.io_fsyncs, 1);
        for seg in &dropped {
            let name = segment_name(seg.start);
            // Park headered retirees for recycling up to the pool cap;
            // everything else is deleted as before. Only headered blobs are
            // recyclable — adoption re-stamps a header in place.
            let park = self.preallocate
                && self.pool.len() < self.recycle_cap
                && matches!(self.blobs.get(&name)?, Some(b) if sniff_header(&b).is_some());
            if park {
                let parked = pool_name(seg.start);
                self.blobs.rename(&name, &parked)?;
                self.pool.push(parked);
            } else {
                self.blobs.delete(&name)?;
            }
        }
        Metrics::bump(&self.metrics.segments_reclaimed, dropped.len() as u64);
        Ok(dropped.len() as u64)
    }

    fn reset(&mut self, base: Lsn, faults: Option<&FaultHost>) -> Result<()> {
        self.unprime();
        // A reset retires segments just as a truncation reclaim does, so
        // park headered (preallocated) blobs for recycling up to the pool
        // cap instead of wasting them: a fully-truncating checkpoint (all
        // work installed, the WAL base jumping past the device end) must
        // not cost the next rotations their warm segments. Surviving
        // parked blobs are kept first; the manifest written below never
        // names pool blobs, so a crash mid-reset leaves only harmless
        // orphans that `attach` re-pools.
        let mut pool: Vec<String> = Vec::new();
        let mut dropped = 0u64;
        for name in self.blobs.list()? {
            if let Some(rest) = name.strip_prefix("seg-") {
                let parked = format!("pool-{rest}");
                let park = self.preallocate
                    && pool.len() + self.pool.len() < self.recycle_cap
                    && !self.pool.contains(&parked)
                    && matches!(self.blobs.get(&name)?, Some(b) if sniff_header(&b).is_some());
                if park {
                    self.blobs.rename(&name, &parked)?;
                    pool.push(parked);
                } else {
                    self.blobs.delete(&name)?;
                }
                dropped += 1;
            }
        }
        self.pool
            .truncate(self.recycle_cap.saturating_sub(pool.len()));
        self.pool.append(&mut pool);
        for name in self.blobs.list()? {
            if name.starts_with("pool-") && !self.pool.contains(&name) {
                self.blobs.delete(&name)?;
            }
        }
        self.open_blob_ready = false;
        self.open_headered = false;
        // A reset over live segments reclaims their space just as a
        // truncation does; count it so "durable bytes dropped" is always
        // visible in the stats.
        Metrics::bump(&self.metrics.segments_reclaimed, dropped);
        self.sealed.clear();
        self.open.clear();
        self.base = base;
        self.open_start = base;
        self.master = Lsn::ZERO;
        self.wounded = None;
        self.dirty_manifest = true;
        self.write_manifest(faults)?;
        self.blobs.sync()?;
        Metrics::bump(&self.metrics.io_fsyncs, 1);
        Ok(())
    }

    fn load_parts(&self) -> Result<Option<LogParts>> {
        let primed = self
            .primed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        match primed {
            Some(parts) => Ok(Some(parts)),
            None => Ok(self.read_image()?.map(|img| img.parts)),
        }
    }
}

impl<B: BlobStore> SegLog<B> {
    /// Read the device once: manifest, every sealed segment (length, CRC
    /// and contiguity checked), then the open tail, normalized. `None` when
    /// no manifest exists; violations are `Codec` errors.
    fn read_image(&self) -> Result<Option<Image>> {
        let Some(raw) = self.blobs.get(WAL_MANIFEST)? else {
            return Ok(None);
        };
        let m = parse_manifest(&raw)?;
        let err = |reason: String| LlogError::Codec { reason };
        let mut bytes = Vec::new();
        let mut expect = m.base;
        for seg in &m.sealed {
            if seg.start != expect {
                return Err(err(format!(
                    "wal manifest: segment gap (expected start {}, found {})",
                    expect.0, seg.start.0
                )));
            }
            let Some(content) = self.blobs.get(&segment_name(seg.start))? else {
                return Err(err(format!(
                    "wal manifest: missing segment {}",
                    segment_name(seg.start)
                )));
            };
            // Manifest length and CRC cover the logical frame bytes only;
            // a preallocated blob carries them behind its header.
            let logical: &[u8] = match sniff_header(&content) {
                Some(start) => {
                    if start != seg.start.0 {
                        return Err(err(format!(
                            "segment {}: header start {} != manifest {}",
                            segment_name(seg.start),
                            start,
                            seg.start.0
                        )));
                    }
                    let end = SEG_HEADER + seg.len as usize;
                    if content.len() < end {
                        return Err(err(format!(
                            "segment {}: length {} < manifest {}",
                            segment_name(seg.start),
                            content.len().saturating_sub(SEG_HEADER),
                            seg.len
                        )));
                    }
                    &content[SEG_HEADER..end]
                }
                None => {
                    if content.len() as u64 != seg.len {
                        return Err(err(format!(
                            "segment {}: length {} != manifest {}",
                            segment_name(seg.start),
                            content.len(),
                            seg.len
                        )));
                    }
                    &content
                }
            };
            if crc32c(logical) != seg.crc {
                return Err(err(format!(
                    "segment {}: checksum mismatch",
                    segment_name(seg.start)
                )));
            }
            bytes.extend_from_slice(logical);
            expect = Lsn(seg.start.0 + seg.len);
        }
        if m.open_start != expect {
            return Err(err(format!(
                "wal manifest: open segment at {} but sealed end at {}",
                m.open_start.0, expect.0
            )));
        }
        // The open (tail) segment is unsealed. A legacy tail is read raw
        // (the frame-level recovery scan validates it, torn tails clipped
        // at-or-after `tail_guard`); a preallocated tail is normalized here
        // — header stripped, then zero fill and stale recycled frames
        // clipped by walking address-bound frame CRCs.
        let tail = self.blobs.get(&segment_name(m.open_start))?;
        let open_header = tail.as_deref().map(sniff_header);
        match (&tail, open_header) {
            // A header stamped with a different start is a half-recycled
            // blob (crash between the adoption rename and the re-stamp):
            // nothing from this life was written.
            (Some(tail), Some(Some(start))) if start == m.open_start.0 => {
                bytes.extend_from_slice(&tail[SEG_HEADER..]);
            }
            (Some(tail), Some(None)) => bytes.extend_from_slice(tail),
            _ => {}
        }
        if matches!(open_header, Some(Some(_))) {
            clip_preallocated_tail(m.base, m.master, m.open_start, &mut bytes);
        }
        if m.master != Lsn::ZERO && m.master < m.base {
            return Err(err(format!(
                "wal manifest: master {} below base {}",
                m.master.0, m.base.0
            )));
        }
        Ok(Some(Image {
            parts: LogParts {
                base: m.base,
                master: m.master,
                tail_guard: m.open_start,
                bytes,
            },
            manifest: m,
            open_header,
        }))
    }
}

/// Normalize a preallocated open tail: clip `bytes` where real frames end
/// and zero fill (or a recycled segment's stale frames) begins.
///
/// Walks frame length fields from the anchor to the last frame boundary at
/// or below the open segment's start (sealed bytes are CRC-verified, so the
/// fields are trustworthy), then validates address-bound frame CRCs forward
/// from there; the first invalid frame marks the cut. The cut never lands
/// below `open_start` — an incomplete frame straddling the sealed/open
/// boundary is left for the WAL's guarded scan to classify, exactly as with
/// a legacy tail.
///
/// The anchor is the master checkpoint when it sits above the base, not the
/// base itself: segment reclaim is byte-granular, so when every sealed
/// segment drops, the surviving base can land mid-frame (the tail of an
/// obsolete frame that straddled the last seal boundary). Walking from such
/// a base reads garbage length fields and would clip live frames; the
/// master always names a real frame start at or above the WAL's logical
/// start, and recovery's own scan never reads below it.
fn clip_preallocated_tail(base: Lsn, master: Lsn, open_start: Lsn, bytes: &mut Vec<u8>) {
    let target = (open_start.0 - base.0) as usize;
    let mut at = (master.0.saturating_sub(base.0)) as usize;
    while at < target {
        if at + FRAME_HEADER > bytes.len() {
            break;
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let next = at.saturating_add(FRAME_HEADER).saturating_add(len);
        if next > target {
            break; // the frame at `at` crosses into the open segment
        }
        at = next;
    }
    while at < bytes.len() {
        if at + FRAME_HEADER > bytes.len() {
            break; // cut header: frames end here
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().unwrap());
        let end = at + FRAME_HEADER + len;
        if end > bytes.len() {
            break; // cut body
        }
        if frame_crc(base.0 + at as u64, &bytes[at + FRAME_HEADER..end]) != crc {
            break; // zero fill, a stale recycled frame, or real rot
        }
        at = end;
    }
    bytes.truncate(at.max(target));
}

struct ManifestState {
    base: Lsn,
    master: Lsn,
    open_start: Lsn,
    sealed: Vec<SealedSeg>,
}

fn parse_manifest(raw: &[u8]) -> Result<ManifestState> {
    let err = |reason: &str| LlogError::Codec {
        reason: format!("wal manifest: {reason}"),
    };
    if raw.len() < 8 + 8 * 3 + 8 + 4 {
        return Err(err("too short"));
    }
    let (body, crc_bytes) = raw.split_at(raw.len() - 4);
    if crc32c(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return Err(err("checksum mismatch"));
    }
    if &body[0..8] == FIXED_WIDTH_MAGIC {
        return Err(err(
            "written in the fixed-width record format (LLOGWMF1), which this build does not read",
        ));
    }
    if &body[0..8] != MANIFEST_MAGIC {
        return Err(err("bad magic"));
    }
    let u64_at = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
    let base = Lsn(u64_at(8));
    let master = Lsn(u64_at(16));
    let open_start = Lsn(u64_at(24));
    let count = u64_at(32) as usize;
    let mut at = 40;
    if body.len() != at + count * 20 {
        return Err(err("sealed table size mismatch"));
    }
    let mut sealed = Vec::with_capacity(count);
    for _ in 0..count {
        let start = Lsn(u64_at(at));
        let len = u64_at(at + 8);
        let crc = u32::from_le_bytes(body[at + 16..at + 20].try_into().unwrap());
        sealed.push(SealedSeg { start, len, crc });
        at += 20;
    }
    Ok(ManifestState {
        base,
        master,
        open_start,
        sealed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_testkit::faults::FaultKind;

    fn cfg(seg: usize) -> DeviceConfig {
        DeviceConfig {
            segment_bytes: seg,
            ..DeviceConfig::default()
        }
    }

    fn mem(seg: usize) -> MemLogDevice {
        MemLogDevice::mem(Metrics::new(), &cfg(seg), Lsn(1))
    }

    #[test]
    fn append_force_load_roundtrip() {
        let mut d = mem(8);
        assert_eq!(d.append(Lsn(1), b"abcde", None).unwrap(), 5);
        assert_eq!(d.append(Lsn(6), b"fghij", None).unwrap(), 5);
        d.force(None).unwrap();
        assert_eq!(d.end(), Lsn(11));
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.base, Lsn(1));
        assert_eq!(parts.bytes, b"abcdefghij");
        // 10 bytes over 8-byte segments: one sealed [1,9), open at 9.
        assert_eq!(parts.tail_guard, Lsn(9));
        assert_eq!(d.metrics.snapshot().segments_rotated, 1);
    }

    #[test]
    fn fresh_device_loads_none() {
        let d = mem(8);
        assert!(d.load_parts().unwrap().is_none());
    }

    #[test]
    fn attach_hands_its_read_to_the_first_load_only() {
        let mut w = mem(4);
        w.append(Lsn(1), &[7u8; 10], None).unwrap();
        w.force(None).unwrap();
        let want = w.load_parts().unwrap();
        let attach = || SegLog::attach(w.blobs.clone(), Metrics::new(), &cfg(4), "mem", Lsn(1));
        let mut d = attach().unwrap();
        assert_eq!(d.load_parts().unwrap(), want);
        assert!(
            d.primed.get_mut().unwrap().is_none(),
            "primed parts are taken"
        );
        assert_eq!(d.load_parts().unwrap(), want, "a second load reads again");
        // A write drops the primed parts: the load sees the current bytes.
        let mut d = attach().unwrap();
        d.append(Lsn(11), &[8u8; 3], None).unwrap();
        d.force(None).unwrap();
        assert_eq!(d.load_parts().unwrap().unwrap().bytes.len(), 13);
    }

    #[test]
    fn append_gap_is_rejected() {
        let mut d = mem(8);
        d.append(Lsn(1), b"ab", None).unwrap();
        let err = d.append(Lsn(9), b"cd", None).unwrap_err();
        assert!(matches!(err, LlogError::Io { .. }));
    }

    #[test]
    fn rotation_splits_large_appends() {
        let mut d = mem(4);
        let payload: Vec<u8> = (0..23u8).collect();
        assert_eq!(d.append(Lsn(1), &payload, None).unwrap(), 23);
        d.force(None).unwrap();
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.bytes, payload);
        // 23 bytes over 4-byte segments: 5 sealed, open holds 3.
        assert_eq!(d.metrics.snapshot().segments_rotated, 5);
        assert_eq!(parts.tail_guard, Lsn(21));
    }

    #[test]
    fn truncate_below_reclaims_whole_segments() {
        let mut d = mem(4);
        d.append(Lsn(1), &[7u8; 14], None).unwrap();
        d.force(None).unwrap();
        // Segments: [1,5) [5,9) [9,13) sealed, open [13,15).
        let reclaimed = d.truncate_below(Lsn(10), None).unwrap();
        assert_eq!(reclaimed, 2, "only whole segments below 10 drop");
        assert_eq!(d.start(), Lsn(9));
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.base, Lsn(9));
        assert_eq!(parts.bytes.len(), 6);
        assert_eq!(d.metrics.snapshot().segments_reclaimed, 2);
        // Truncating below the base is a no-op.
        assert_eq!(d.truncate_below(Lsn(3), None).unwrap(), 0);
    }

    #[test]
    fn sealed_crc_flip_is_codec_on_load() {
        let mut d = mem(4);
        d.append(Lsn(1), &[9u8; 10], None).unwrap();
        d.force(None).unwrap();
        // Corrupt the first sealed segment's blob directly.
        let name = segment_name(Lsn(1));
        let mut seg = d.blobs.get(&name).unwrap().unwrap();
        seg[1] ^= 0x40;
        d.blobs.put(&name, &seg).unwrap();
        let err = d.load_parts().unwrap_err();
        assert!(matches!(err, LlogError::Codec { .. }), "got {err}");
    }

    #[test]
    fn missing_middle_segment_is_codec_on_load() {
        let mut d = mem(4);
        d.append(Lsn(1), &[3u8; 12], None).unwrap();
        d.force(None).unwrap();
        d.blobs.delete(&segment_name(Lsn(5))).unwrap();
        let err = d.load_parts().unwrap_err();
        assert!(matches!(err, LlogError::Codec { .. }), "got {err}");
    }

    #[test]
    fn a_log_device_from_the_fixed_width_format_is_refused() {
        let mut d = mem(64);
        d.append(Lsn(1), &[1u8; 6], None).unwrap();
        d.force(None).unwrap();
        assert!(d.load_parts().unwrap().is_some());
        // base 1 | master 0 | open_start 1 | no sealed segments | crc.
        let mut v1 = b"LLOGWMF1".to_vec();
        for field in [1u64, 0, 1, 0] {
            v1.extend_from_slice(&field.to_le_bytes());
        }
        v1.extend_from_slice(&crc32c(&v1).to_le_bytes());
        d.blobs.put(WAL_MANIFEST, &v1).unwrap();
        match d.load_parts() {
            Err(LlogError::Codec { reason }) => {
                assert!(reason.contains("fixed-width record format"), "{reason}")
            }
            other => panic!("a v1 manifest loaded: {other:?}"),
        }
    }

    #[test]
    fn torn_manifest_is_codec_on_load() {
        let mut d = mem(4);
        d.append(Lsn(1), &[1u8; 6], None).unwrap();
        let h = FaultHost::new();
        h.arm(
            failpoint::DEV_LOG_MANIFEST,
            FaultKind::TornWrite { at_byte: 9 },
        );
        d.force(Some(&h)).unwrap();
        let err = d.load_parts().unwrap_err();
        assert!(matches!(err, LlogError::Codec { .. }), "got {err}");
    }

    #[test]
    fn torn_append_persists_clean_prefix_only() {
        let mut d = mem(64);
        let h = FaultHost::new();
        h.arm(
            failpoint::DEV_LOG_APPEND,
            FaultKind::TornWrite { at_byte: 3 },
        );
        assert_eq!(d.append(Lsn(1), b"abcdef", Some(&h)).unwrap(), 3);
        d.force(None).unwrap();
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.bytes, b"abc");
        // The device is not wounded (its content is a clean prefix); the
        // caller re-appends the missing suffix on the next persist.
        assert_eq!(d.durable_end(), Lsn(4));
        assert_eq!(d.append(Lsn(4), b"def", None).unwrap(), 3);
        d.force(None).unwrap();
        assert_eq!(d.load_parts().unwrap().unwrap().bytes, b"abcdef");
    }

    #[test]
    fn bit_flip_append_wounds_the_device() {
        let mut d = mem(64);
        let h = FaultHost::new();
        h.arm(failpoint::DEV_LOG_APPEND, FaultKind::BitFlip { offset: 20 });
        let clean = d.append(Lsn(1), b"abcdef", Some(&h)).unwrap();
        assert_eq!(clean, 2, "bit 20 corrupts byte 2");
        assert_eq!(d.durable_end(), Lsn(3));
        // Wounded: further appends are refused so nothing past the
        // corruption can ever be acked.
        assert_eq!(d.append(Lsn(7), b"xyz", None).unwrap(), 0);
        assert_eq!(d.end(), Lsn(7));
    }

    #[test]
    fn delayed_manifest_keeps_stale_manifest() {
        let mut d = mem(64);
        d.append(Lsn(1), b"one", None).unwrap();
        d.force(None).unwrap();
        d.set_master(Lsn(2));
        let h = FaultHost::new();
        h.arm(failpoint::DEV_LOG_MANIFEST, FaultKind::DelayedWrite);
        d.force(Some(&h)).unwrap();
        // The stale manifest (master=0) is still the durable one.
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.master, Lsn::ZERO);
    }

    #[test]
    fn reset_wipes_and_restarts() {
        let mut d = mem(4);
        d.append(Lsn(1), &[5u8; 10], None).unwrap();
        d.force(None).unwrap();
        d.reset(Lsn(42), None).unwrap();
        assert_eq!(d.start(), Lsn(42));
        assert_eq!(d.end(), Lsn(42));
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.base, Lsn(42));
        assert!(parts.bytes.is_empty());
        assert!(d
            .blobs
            .list()
            .unwrap()
            .iter()
            .all(|n| !n.starts_with("seg-")));
    }

    fn fast_cfg(seg: usize, pool: usize) -> DeviceConfig {
        cfg(seg).with_fast_segments(pool)
    }

    /// One WAL frame (`len | crc | payload`) address-bound to `lsn`.
    fn frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame_crc(lsn, payload).to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// A contiguous frame stream whose first byte sits at LSN `base`.
    fn frames(base: u64, payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            let lsn = base + out.len() as u64;
            let f = frame(lsn, p);
            out.extend_from_slice(&f);
        }
        out
    }

    #[test]
    fn preallocated_tail_clips_zero_fill_on_load() {
        let mut d = MemLogDevice::mem(Metrics::new(), &fast_cfg(64, 0), Lsn(1));
        let stream = frames(1, &[b"alpha", b"beta"]);
        d.append(Lsn(1), &stream, None).unwrap();
        d.force(None).unwrap();
        // The blob is created at full size (header + zero fill)...
        let blob = d.blobs.get(&segment_name(Lsn(1))).unwrap().unwrap();
        assert_eq!(blob.len(), SEG_HEADER + 64);
        assert_eq!(sniff_header(&blob), Some(1));
        // ...but load clips the fill and returns only the real frames.
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.bytes, stream);
        assert_eq!(d.end(), Lsn(1 + stream.len() as u64));
        // Appending more keeps writing in place: the blob never grows.
        let next = frames(d.end().0, &[b"gamma"]);
        d.append(d.end(), &next, None).unwrap();
        d.force(None).unwrap();
        let blob = d.blobs.get(&segment_name(Lsn(1))).unwrap().unwrap();
        assert_eq!(blob.len(), SEG_HEADER + 64);
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.bytes.len(), stream.len() + next.len());
    }

    #[test]
    fn truncation_parks_and_rotation_recycles() {
        let m = Metrics::new();
        let mut d = MemLogDevice::mem(m.clone(), &fast_cfg(16, 2), Lsn(1));
        // Three exact-fit 16-byte frames: seals [1,17) [17,33) [33,49).
        let stream = frames(1, &[b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"]);
        assert_eq!(stream.len(), 48);
        d.append(Lsn(1), &stream, None).unwrap();
        d.force(None).unwrap();
        assert_eq!(d.truncate_below(Lsn(33), None).unwrap(), 2);
        let names = d.blobs.list().unwrap();
        assert!(
            names.contains(&pool_name(Lsn(1))),
            "retiree parked: {names:?}"
        );
        assert!(names.contains(&pool_name(Lsn(17))));
        // The next rotation adopts a parked blob instead of creating cold.
        let more = frames(49, &[b"dddddddd", b"eeeeeeee"]);
        d.append(Lsn(49), &more, None).unwrap();
        d.force(None).unwrap();
        assert_eq!(m.snapshot().segments_recycled, 2);
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.base, Lsn(33));
        assert_eq!(parts.bytes.len(), 16 + more.len());
        assert_eq!(&parts.bytes[16..], &more[..]);
    }

    #[test]
    fn clip_anchors_at_master_when_base_lands_mid_frame() {
        // A frame that straddles the last seal boundary leaves its tail in
        // the open segment. When truncation drops every sealed segment, the
        // device base becomes the open segment's start — mid-frame. The
        // clip must anchor its frame walk at the master checkpoint, not the
        // base, or the garbage prefix clips the live tail.
        let mut d = MemLogDevice::mem(Metrics::new(), &fast_cfg(16, 2), Lsn(1));
        // Frame A: 12-byte payload = 20 bytes at [1,21): seals [1,17),
        // 4 tail bytes land in the open segment [17,33).
        let a = frame(1, b"aaaaaaaaaaaa");
        assert_eq!(a.len(), 20);
        // Frame B: 2-byte payload = 10 bytes at [21,31), fully in the open
        // segment. B plays the master checkpoint.
        let b = frame(21, b"bb");
        d.append(Lsn(1), &a, None).unwrap();
        d.append(Lsn(21), &b, None).unwrap();
        d.set_master(Lsn(21));
        d.force(None).unwrap();
        // Frame A is obsolete: drop everything below it. Only the sealed
        // segment goes; base == open_start == 17 — inside frame A.
        assert_eq!(d.truncate_below(Lsn(21), None).unwrap(), 1);
        assert_eq!(d.start(), Lsn(17));
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.base, Lsn(17));
        assert_eq!(parts.master, Lsn(21));
        // The live frame B survives behind the 4-byte garbage prefix; the
        // zero fill after it is clipped.
        assert_eq!(parts.bytes.len(), 4 + b.len());
        assert_eq!(&parts.bytes[4..], &b[..]);
    }

    #[test]
    fn reset_parks_headered_retirees_for_recycling() {
        let m = Metrics::new();
        let mut d = MemLogDevice::mem(m.clone(), &fast_cfg(16, 2), Lsn(1));
        // Three sealed-or-open headered segments, then a reset far past
        // them (the fully-truncating-checkpoint shape: every byte below
        // the new base).
        let stream = frames(1, &[b"aaaaaaaa", b"bbbbbbbb", b"cccccccc"]);
        d.append(Lsn(1), &stream, None).unwrap();
        d.force(None).unwrap();
        d.reset(Lsn(100), None).unwrap();
        // Two retirees parked (pool cap), the third deleted.
        let names = d.blobs.list().unwrap();
        assert_eq!(
            names.iter().filter(|n| n.starts_with("pool-")).count(),
            2,
            "parked up to the cap: {names:?}"
        );
        assert!(names.iter().all(|n| !n.starts_with("seg-")));
        // The next appends adopt parked blobs instead of creating cold.
        let more = frames(100, &[b"dddddddd", b"eeeeeeee"]);
        d.append(Lsn(100), &more, None).unwrap();
        d.force(None).unwrap();
        assert_eq!(m.snapshot().segments_recycled, 2);
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.base, Lsn(100));
        assert_eq!(parts.bytes, more);
    }

    #[test]
    fn recycled_segment_ghosts_are_rejected_at_load() {
        let m = Metrics::new();
        let mut d = MemLogDevice::mem(m.clone(), &fast_cfg(32, 2), Lsn(1));
        // Fill one segment exactly with two frames and rotate it out.
        let life1 = frames(1, &[b"aaaaaaaa", b"bbbbbbbb"]);
        assert_eq!(life1.len(), 32);
        d.append(Lsn(1), &life1, None).unwrap();
        d.force(None).unwrap();
        assert_eq!(d.truncate_below(Lsn(33), None).unwrap(), 1);
        // The new life writes ONE short frame into the recycled blob: the
        // previous life's second frame survives physically beyond it.
        let life2 = frames(33, &[b"newfrme1"]);
        d.append(Lsn(33), &life2, None).unwrap();
        d.force(None).unwrap();
        assert_eq!(m.snapshot().segments_recycled, 1);
        let blob = d.blobs.get(&segment_name(Lsn(33))).unwrap().unwrap();
        assert_eq!(sniff_header(&blob), Some(33), "header re-stamped");
        assert_eq!(
            &blob[SEG_HEADER + 16..SEG_HEADER + 32],
            &life1[16..32],
            "stale frame bytes really are still in the blob"
        );
        // The stale frame is CRC-valid at its OLD address but not here, so
        // load clips it: ghosts never resurrect.
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.base, Lsn(33));
        assert_eq!(parts.bytes, life2);
        assert_eq!(d.end(), Lsn(33 + life2.len() as u64));
    }

    #[test]
    fn preallocated_file_device_resumes_with_clipped_tail() {
        let dir = std::env::temp_dir().join(format!(
            "llog-seglog-fast-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let metrics = Metrics::new();
        let stream = frames(1, &[b"one", b"two"]);
        {
            let mut d =
                FileLogDevice::file(&dir, metrics.clone(), &fast_cfg(64, 2), Lsn(1)).unwrap();
            d.append(Lsn(1), &stream, None).unwrap();
            d.force(None).unwrap();
        }
        // Reopen: the attach normalizes the preallocated tail, so the end
        // reflects real frames, not the zero fill.
        let mut d = FileLogDevice::file(&dir, metrics, &fast_cfg(64, 2), Lsn(1)).unwrap();
        assert_eq!(d.end(), Lsn(1 + stream.len() as u64));
        let next = frames(d.end().0, &[b"three"]);
        d.append(d.end(), &next, None).unwrap();
        d.force(None).unwrap();
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.bytes.len(), stream.len() + next.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fast_path_mem_and_file_blob_state_is_identical() {
        let dir = std::env::temp_dir().join(format!(
            "llog-seglog-ident-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let cfg = fast_cfg(16, 1);
        let mut mem = MemLogDevice::mem(Metrics::new(), &cfg, Lsn(1));
        let mut file = FileLogDevice::file(&dir, Metrics::new(), &cfg, Lsn(1)).unwrap();
        let stream = frames(1, &[b"aaaaaaaa", b"bbbbbbbb", b"cccc"]);
        let more = frames(1 + stream.len() as u64, &[b"dddddddd"]);
        for d in [&mut mem as &mut dyn LogDevice, &mut file] {
            d.append(Lsn(1), &stream, None).unwrap();
            d.force(None).unwrap();
            d.truncate_below(Lsn(17), None).unwrap();
            d.append(Lsn(1 + stream.len() as u64), &more, None).unwrap();
            d.force(None).unwrap();
        }
        assert_eq!(mem.dump_blobs().unwrap(), file.dump_blobs().unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_device_roundtrips_and_resumes() {
        let dir = std::env::temp_dir().join(format!(
            "llog-seglog-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        let metrics = Metrics::new();
        {
            let mut d = FileLogDevice::file(&dir, metrics.clone(), &cfg(4), Lsn(1)).unwrap();
            d.append(Lsn(1), &[8u8; 10], None).unwrap();
            d.set_master(Lsn(5));
            d.force(None).unwrap();
        }
        // Reopen: resumes from the manifest and keeps appending.
        let mut d = FileLogDevice::file(&dir, metrics, &cfg(4), Lsn(1)).unwrap();
        assert_eq!(d.end(), Lsn(11));
        assert_eq!(d.master(), Lsn(5));
        d.append(Lsn(11), &[9u8; 3], None).unwrap();
        d.force(None).unwrap();
        let parts = d.load_parts().unwrap().unwrap();
        assert_eq!(parts.bytes.len(), 13);
        assert_eq!(parts.master, Lsn(5));
        std::fs::remove_dir_all(&dir).ok();
    }
}
