//! The log manager: volatile buffer, forced stable prefix, torn-tail scan,
//! truncation, and the checkpoint master record.

use std::sync::Arc;

use llog_storage::Metrics;
use llog_testkit::faults::{failpoint, FaultHost, ForceVerdict};
use llog_types::{frame_crc, LlogError, Lsn, Result, FRAME_HEADER};

use crate::record::LogRecord;

/// How a double-buffered force begins ([`Wal::begin_force_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginForce {
    /// The volatile buffer moved into the in-flight slot. The device sync
    /// may now run without the WAL lock; finish with
    /// [`Wal::complete_force`]. The carried LSN is the force's target: the
    /// end of the in-flight bytes.
    Begun(Lsn),
    /// A failpoint decided the force's fate before any sync could start;
    /// the carried outcome is final and there is nothing to complete.
    Done(ForceOutcome),
}

/// Result of a fault-aware force ([`Wal::force_with`]).
///
/// The carried LSN is always the **known-good durable prefix**: callers (the
/// sharded engine's force barrier in particular) may advance their durable
/// watermark to it and no further. After a tear the torn bytes are physically in the
/// stable image (the scan stops at them), but nothing past the pre-fault
/// prefix may be acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForceOutcome {
    /// The force completed; everything up to this LSN (exclusive) is stable.
    Forced(Lsn),
    /// The device tore the write (or rotted a bit of it). The LSN is the
    /// durable prefix from *before* this force — the fault consumed the rest.
    /// The in-memory WAL is now in its post-crash shape (buffer cleared).
    Torn(Lsn),
    /// The force failed with an I/O error before writing anything. The
    /// buffer is intact; the caller may retry.
    Failed,
}

/// The write-ahead log for one engine instance.
///
/// - `append` assigns the record's LSN (the byte offset of its frame) and
///   buffers it in volatile memory.
/// - `force` makes everything buffered stable (one counted log force) — the
///   WAL-protocol step that must precede installing the described changes.
/// - `crash` discards the buffer; `crash_torn` half-writes it first.
/// - `truncate_to` discards the stable prefix before an LSN (checkpointing).
///
/// The *master record* holds the LSN of the most recent forced checkpoint,
/// modelling the well-known fixed disk location recovery reads first.
///
/// ```
/// use llog_storage::Metrics;
/// use llog_wal::{LogRecord, Wal};
/// use llog_ops::Operation;
///
/// let mut wal = Wal::new(Metrics::new());
/// let lsn = wal.append(&LogRecord::Op(Operation::logical(0, &[1, 2], &[2])));
/// wal.force();
/// wal.crash(); // nothing buffered is lost — the record was forced
/// let records: Vec<_> = wal.scan(wal.start_lsn()).collect();
/// assert_eq!(records.len(), 1);
/// assert_eq!(records[0].as_ref().unwrap().0, lsn);
/// ```
#[derive(Debug, Clone)]
pub struct Wal {
    metrics: Arc<Metrics>,
    /// Forced, stable log image. `stable[0]` is at log offset `base`.
    stable: Vec<u8>,
    /// Log address of `stable[0]` (advanced by truncation).
    base: u64,
    /// Volatile, not-yet-forced encoded records.
    buffer: Vec<u8>,
    /// Double-buffering slot: bytes handed to an in-flight force by
    /// [`Wal::begin_force`]. They sit between `stable` and `buffer` in log
    /// order — already encoded and CRC'd, not yet known durable. New
    /// appends land in `buffer` while the device sync runs, which is the
    /// whole point: encode+CRC of batch N+1 overlaps batch N's fsync.
    pending: Vec<u8>,
    /// Stable pointer to the last forced checkpoint record.
    master_checkpoint: Option<Lsn>,
    /// Volatile candidate master pointer, promoted on force.
    pending_checkpoint: Option<Lsn>,
    /// Candidate master pointer carried by the in-flight slot, promoted
    /// when the force completes.
    inflight_checkpoint: Option<Lsn>,
    /// Durable prefix from *before* the most recent stable extension.
    ///
    /// Everything below this LSN was once covered by a completed force and
    /// then survived at least one more extension, so corruption found there
    /// cannot be a torn tail — it is media rot or a software bug and must
    /// surface as an error. Corruption at or after it may legitimately be
    /// the half-written last batch of a crashed force.
    ///
    /// Not persisted: a log loaded from a device starts at the open
    /// segment's first frame boundary ([`Wal::load_from_device`]), and a
    /// shipped log at `start_lsn()` (any corruption in it classifies as
    /// torn tail).
    tail_guard: Lsn,
}

impl Wal {
    /// Create a new instance.
    pub fn new(metrics: Arc<Metrics>) -> Wal {
        Wal {
            metrics,
            stable: Vec::new(),
            // The log address space starts at 1: Lsn::ZERO is reserved to
            // mean "never updated" on object headers (vSI = 0), so no record
            // may live there.
            base: 1,
            buffer: Vec::new(),
            pending: Vec::new(),
            master_checkpoint: None,
            pending_checkpoint: None,
            inflight_checkpoint: None,
            tail_guard: Lsn(1),
        }
    }

    /// The shared cost ledger this WAL reports into.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// First LSN still present in the stable log.
    pub fn start_lsn(&self) -> Lsn {
        Lsn(self.base)
    }

    /// LSN up to which the log is stable (exclusive).
    pub fn forced_lsn(&self) -> Lsn {
        Lsn(self.base + self.stable.len() as u64)
    }

    /// LSN that the next appended record will receive.
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.base + (self.stable.len() + self.pending.len() + self.buffer.len()) as u64)
    }

    /// Append a record to the volatile buffer; returns its LSN (its lSI).
    pub fn append(&mut self, record: &LogRecord) -> Lsn {
        let lsn = self.end_lsn();
        let payload = record.encode();
        self.buffer.reserve(FRAME_HEADER + payload.len());
        self.buffer
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buffer
            .extend_from_slice(&frame_crc(lsn.0, &payload).to_le_bytes());
        self.buffer.extend_from_slice(&payload);
        Metrics::bump(&self.metrics.log_records, 1);
        Metrics::bump(
            &self.metrics.log_bytes,
            (FRAME_HEADER + payload.len()) as u64,
        );
        if let LogRecord::Checkpoint(_) = record {
            self.pending_checkpoint = Some(lsn);
        }
        lsn
    }

    /// Force the buffer to stable storage. Counted only when there was
    /// something to force. Promotes any buffered checkpoint to the master
    /// record (its frame is now stable).
    ///
    /// Any in-flight double-buffered batch is promoted first: the bytes in
    /// the in-flight slot precede the buffer in log order, so a force that
    /// interleaves with a scheduled barrier (a checkpoint forcing mid-sync)
    /// must fold them into `stable` before the buffer or the log would be
    /// reassembled out of order.
    pub fn force(&mut self) {
        self.promote_pending();
        if self.buffer.is_empty() {
            return;
        }
        Metrics::bump(&self.metrics.log_forces, 1);
        self.tail_guard = self.forced_lsn();
        self.stable.append(&mut self.buffer);
        if let Some(cp) = self.pending_checkpoint.take() {
            self.master_checkpoint = Some(cp);
        }
    }

    /// Fold the in-flight slot into `stable`. The log-force count was taken
    /// at [`Wal::begin_force`]; this is the completion half.
    fn promote_pending(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        self.tail_guard = self.forced_lsn();
        self.stable.append(&mut self.pending);
        if let Some(cp) = self.inflight_checkpoint.take() {
            self.master_checkpoint = Some(cp);
        }
    }

    /// Begin a double-buffered force: move the volatile buffer into the
    /// in-flight slot and return the force's target (the end of the
    /// in-flight bytes). The caller owns the device sync; once it settles,
    /// [`Wal::complete_force`] folds the slot into the stable prefix. New
    /// appends continue into the (now empty) buffer in the meantime.
    ///
    /// Counted as a log force only when the buffer was non-empty. Calling
    /// it again while a batch is in flight merges the new buffer into the
    /// same slot (both batches ride the same barrier).
    pub fn begin_force(&mut self) -> Lsn {
        if !self.buffer.is_empty() {
            Metrics::bump(&self.metrics.log_forces, 1);
            if self.pending.is_empty() {
                self.pending = std::mem::take(&mut self.buffer);
            } else {
                self.pending.append(&mut self.buffer);
            }
            if let Some(cp) = self.pending_checkpoint.take() {
                self.inflight_checkpoint = Some(cp);
            }
        }
        Lsn(self.base + (self.stable.len() + self.pending.len()) as u64)
    }

    /// Complete a double-buffered force begun with [`Wal::begin_force`]:
    /// the in-flight bytes become part of the stable prefix and any
    /// checkpoint among them is promoted to the master record. No-op when
    /// nothing is in flight.
    pub fn complete_force(&mut self) {
        self.promote_pending();
    }

    /// Fault-aware [`Wal::begin_force`]: consult the
    /// [`failpoint::WAL_FORCE`] failpoint before swapping. A fault verdict
    /// resolves the force immediately ([`BeginForce::Done`]) with exactly
    /// the semantics of [`Wal::force_with`]: a tear leaves the post-crash
    /// shape and reports the pre-fault durable prefix, an I/O error leaves
    /// the buffer intact for retry.
    pub fn begin_force_with(&mut self, faults: Option<&FaultHost>) -> BeginForce {
        if self.pending.is_empty() && self.buffer.is_empty() {
            return BeginForce::Begun(self.forced_lsn());
        }
        let verdict = match faults {
            Some(h) => h.on_force(failpoint::WAL_FORCE, self.buffer_len()),
            None => ForceVerdict::Proceed,
        };
        match verdict {
            ForceVerdict::Proceed => BeginForce::Begun(self.begin_force()),
            ForceVerdict::TearAt(n) => {
                let durable = self.forced_lsn();
                self.crash_torn(n);
                BeginForce::Done(ForceOutcome::Torn(durable))
            }
            ForceVerdict::FlipBit(bit) => {
                let durable = self.forced_lsn();
                self.force();
                self.corrupt_stable_bit(durable, bit);
                BeginForce::Done(ForceOutcome::Torn(durable))
            }
            ForceVerdict::Fail => BeginForce::Done(ForceOutcome::Failed),
        }
    }

    /// Fault-aware force: consult the [`failpoint::WAL_FORCE`] failpoint on
    /// `faults` (when present) before forcing. `force_with(None)` behaves
    /// exactly like [`Wal::force`].
    ///
    /// An empty buffer short-circuits without consulting the host, mirroring
    /// `force`'s no-op path (an fsync with nothing to sync cannot tear).
    pub fn force_with(&mut self, faults: Option<&FaultHost>) -> ForceOutcome {
        if self.pending.is_empty() && self.buffer.is_empty() {
            return ForceOutcome::Forced(self.forced_lsn());
        }
        let verdict = match faults {
            Some(h) => h.on_force(failpoint::WAL_FORCE, self.buffer_len()),
            None => ForceVerdict::Proceed,
        };
        match verdict {
            ForceVerdict::Proceed => {
                self.force();
                ForceOutcome::Forced(self.forced_lsn())
            }
            ForceVerdict::TearAt(n) => {
                // The device persisted only the first `n` buffered bytes and
                // the machine died. Nothing past the previous durable prefix
                // may be acknowledged.
                let durable = self.forced_lsn();
                self.crash_torn(n);
                ForceOutcome::Torn(durable)
            }
            ForceVerdict::FlipBit(bit) => {
                // The write "succeeded" but a bit of the new tail rotted.
                let durable = self.forced_lsn();
                self.force();
                self.corrupt_stable_bit(durable, bit);
                ForceOutcome::Torn(durable)
            }
            ForceVerdict::Fail => ForceOutcome::Failed,
        }
    }

    /// Flip one bit in the stable image at or after `from` (a stable LSN).
    /// The bit offset is reduced modulo the remaining stable length. No-op if
    /// `from` is outside the stable range. CRC-guarded scans must detect the
    /// rot; this is the hook fault-injection uses to prove they do.
    pub fn corrupt_stable_bit(&mut self, from: Lsn, bit: u64) {
        let Some(off) = from.0.checked_sub(self.base) else {
            return;
        };
        let off = off as usize;
        if off >= self.stable.len() {
            return;
        }
        let span_bits = (self.stable.len() - off) * 8;
        let b = off * 8 + (bit as usize) % span_bits;
        self.stable[b / 8] ^= 1 << (b % 8);
    }

    /// Bytes currently volatile (in flight or buffered) but not yet part of
    /// the stable prefix.
    pub fn buffer_len(&self) -> usize {
        self.pending.len() + self.buffer.len()
    }

    /// Bytes in the double-buffered in-flight slot (handed to a begun force,
    /// not yet promoted). Zero when no force is in flight.
    pub fn inflight_len(&self) -> usize {
        self.pending.len()
    }

    /// The in-flight slot's bytes (see [`Wal::begin_force`]). In log order
    /// they sit immediately after the stable prefix, before the volatile
    /// buffer — a device staging the slot appends them at
    /// [`Wal::forced_lsn`].
    pub fn inflight_bytes(&self) -> &[u8] {
        &self.pending
    }

    /// Crash: the volatile buffer — including any in-flight double-buffered
    /// batch whose sync never settled — is lost.
    pub fn crash(&mut self) {
        self.buffer.clear();
        self.pending.clear();
        self.pending_checkpoint = None;
        self.inflight_checkpoint = None;
    }

    /// Crash with a torn tail: the device wrote only the first
    /// `partial_bytes` of the buffer. The scan must stop cleanly at the torn
    /// frame.
    ///
    /// Boundary semantics (both are meaningful crash schedules, not errors):
    /// - `partial_bytes == 0` — the device wrote nothing before dying;
    ///   identical to [`Wal::crash`].
    /// - `partial_bytes >= buffer_len()` — the device wrote the whole buffer
    ///   (clamped; no over-read), so every buffered frame is stable and
    ///   scannable. The master-checkpoint pointer is still **not** promoted:
    ///   the master record lives at a separate fixed disk location and the
    ///   crash interrupted `force` before it could be updated. A buffered
    ///   checkpoint frame that reaches disk this way is rediscovered by the
    ///   analysis scan, not via the master pointer.
    pub fn crash_torn(&mut self, partial_bytes: usize) {
        // The volatile region is the in-flight slot followed by the buffer:
        // a crash mid-barrier loses both, and a partial write consumes the
        // in-flight bytes first (they were handed to the device first).
        let n = partial_bytes.min(self.pending.len() + self.buffer.len());
        if n > 0 {
            self.tail_guard = self.forced_lsn();
        }
        let from_pending = n.min(self.pending.len());
        self.stable.extend_from_slice(&self.pending[..from_pending]);
        self.stable
            .extend_from_slice(&self.buffer[..n - from_pending]);
        self.pending.clear();
        self.buffer.clear();
        self.pending_checkpoint = None;
        self.inflight_checkpoint = None;
    }

    /// The master record: LSN of the last stable checkpoint.
    pub fn master_checkpoint(&self) -> Option<Lsn> {
        self.master_checkpoint
    }

    /// Discard the stable prefix before `lsn`. `lsn` must be a record
    /// boundary at or after the current start and at most the forced LSN.
    pub fn truncate_to(&mut self, lsn: Lsn) -> Result<()> {
        if lsn < self.start_lsn() || lsn > self.forced_lsn() {
            return Err(LlogError::LsnOutOfRange {
                lsn,
                start: self.start_lsn(),
                end: self.forced_lsn(),
            });
        }
        let cut = (lsn.0 - self.base) as usize;
        self.stable.drain(..cut);
        self.base = lsn.0;
        self.tail_guard = self.tail_guard.max(lsn);
        if self.master_checkpoint.is_some_and(|cp| cp < lsn) {
            self.master_checkpoint = None;
        }
        Ok(())
    }

    /// Bytes currently held stable (for space accounting in experiments).
    pub fn stable_len(&self) -> usize {
        self.stable.len()
    }

    /// The stable log image (persistence).
    pub(crate) fn stable_bytes(&self) -> &[u8] {
        &self.stable
    }

    /// Rebuild a WAL from its durable parts with an explicit torn-tail
    /// guard. A segmented log device carries force history: every sealed
    /// segment was CRC-verified at load, so the guard advances to the open
    /// segment's start and corruption below it surfaces as `Corrupt`
    /// instead of being clipped.
    pub(crate) fn from_durable_parts_guarded(
        metrics: Arc<Metrics>,
        base: u64,
        stable: Vec<u8>,
        master_checkpoint: Option<Lsn>,
        tail_guard: Lsn,
    ) -> Wal {
        Wal {
            metrics,
            stable,
            base,
            buffer: Vec::new(),
            pending: Vec::new(),
            master_checkpoint,
            pending_checkpoint: None,
            inflight_checkpoint: None,
            tail_guard: tail_guard.max(Lsn(base)),
        }
    }

    /// Classify a corruption offset reported by [`Wal::scan`]: `true` means
    /// the corrupt frame lies at or past the last force boundary (a
    /// legitimate torn tail recovery truncates away); `false` means
    /// corruption inside a previously forced prefix — real damage that must
    /// surface as an error.
    pub fn corruption_is_torn_tail(&self, offset: u64) -> bool {
        offset >= self.tail_guard.0
    }

    /// Scan stable records starting at `from` (a record boundary). Stops at
    /// the stable end or at the first torn/corrupt frame. Recovery never
    /// sees the volatile buffer — it did not survive the crash.
    pub fn scan(&self, from: Lsn) -> WalScan<'_> {
        WalScan {
            wal: self,
            at: from,
        }
    }

    /// An empty WAL positioned at `base`, ready to ingest shipped stable
    /// bytes ([`Wal::extend_stable`]) — the receiving end of log shipping.
    /// The tail guard starts at `base`: shipped bytes carry no force
    /// history, so any corruption in them classifies as a torn tail and is
    /// sealed away at promotion.
    pub fn from_shipped(metrics: Arc<Metrics>, base: u64, master: Option<Lsn>) -> Wal {
        Wal::from_durable_parts_guarded(metrics, base, Vec::new(), master, Lsn(base))
    }

    /// Stable bytes from `from` (a frame boundary at or below the forced
    /// end), at most `max` of them — the shipping side of log replication.
    /// The caller bounds `max` by its durability watermark so bytes past a
    /// torn force are never shipped.
    pub fn ship_tail(&self, from: Lsn, max: usize) -> Result<&[u8]> {
        if from < self.start_lsn() || from > self.forced_lsn() {
            return Err(LlogError::LsnOutOfRange {
                lsn: from,
                start: self.start_lsn(),
                end: self.forced_lsn(),
            });
        }
        let off = (from.0 - self.base) as usize;
        let end = self.stable.len().min(off.saturating_add(max));
        Ok(&self.stable[off..end])
    }

    /// Ingest shipped stable bytes starting at log address `at`.
    ///
    /// Tolerates duplicate and overlapping delivery (the already-held
    /// prefix is skipped; only the novel suffix is appended) but rejects
    /// gaps: `at` past the current stable end would leave a hole no scan
    /// could cross. Returns the new stable end. Overlap bytes are not
    /// re-verified here — frame CRCs catch divergent redelivery at replay.
    pub fn extend_stable(&mut self, at: Lsn, bytes: &[u8]) -> Result<Lsn> {
        let end = self.forced_lsn();
        if at < self.start_lsn() || at > end {
            return Err(LlogError::LsnOutOfRange {
                lsn: at,
                start: self.start_lsn(),
                end,
            });
        }
        let skip = (end.0 - at.0) as usize;
        if skip < bytes.len() {
            self.stable.extend_from_slice(&bytes[skip..]);
        }
        Ok(self.forced_lsn())
    }

    /// Seal the stable log at `lsn` (a frame boundary): everything at or
    /// past it — a torn final frame, unreplayed shipped bytes — is
    /// discarded, along with any volatile buffer. Promotion uses this to
    /// cut a replica's log at the last contiguously-replayed frame
    /// boundary before reopening the engine for writes.
    pub fn seal_to(&mut self, lsn: Lsn) -> Result<()> {
        if lsn < self.start_lsn() || lsn > self.forced_lsn() {
            return Err(LlogError::LsnOutOfRange {
                lsn,
                start: self.start_lsn(),
                end: self.forced_lsn(),
            });
        }
        self.stable.truncate((lsn.0 - self.base) as usize);
        self.buffer.clear();
        self.pending.clear();
        self.pending_checkpoint = None;
        self.inflight_checkpoint = None;
        if self.master_checkpoint.is_some_and(|cp| cp >= lsn) {
            self.master_checkpoint = None;
        }
        self.tail_guard = self.tail_guard.min(lsn);
        Ok(())
    }

    /// Count complete frames from `from` (a frame boundary) to the stable
    /// end, walking length fields only (no CRC, no decode) — cheap enough
    /// to compute replication lag on every watermark report. A trailing
    /// partial frame is not counted.
    pub fn frames_from(&self, from: Lsn) -> u64 {
        let Some(off) = from.0.checked_sub(self.base) else {
            return 0;
        };
        let mut off = off as usize;
        let mut frames = 0;
        while off + FRAME_HEADER <= self.stable.len() {
            let len = u32::from_le_bytes(self.stable[off..off + 4].try_into().unwrap()) as usize;
            if off + FRAME_HEADER + len > self.stable.len() {
                break;
            }
            off += FRAME_HEADER + len;
            frames += 1;
        }
        frames
    }

    /// The log's durable cut: the end of the last complete, CRC-valid
    /// stable frame — the furthest address shipping may expose. Walks
    /// [`Wal::contiguous_end`] from the tail guard, which is always a
    /// frame boundary (it is a pre-extension forced end), so the walk
    /// covers only the most recent extension, never the whole log, and
    /// is safe to call no matter where a shipping consumer's own cursor
    /// sits (a replica's stable end may be mid-frame after a clamped
    /// chunk — deriving the cut from such a cursor would read garbage
    /// length/CRC fields and stall replication).
    pub fn durable_end(&self) -> Lsn {
        self.contiguous_end(self.tail_guard)
    }

    /// The furthest boundary a contiguous replay can reach from `from`
    /// (which must be a frame boundary): the end of the last complete,
    /// CRC-valid frame before the stable end. A torn or corrupt frame
    /// stops the walk. `from` below the base is clamped to the base.
    pub fn contiguous_end(&self, from: Lsn) -> Lsn {
        let mut off = ((from.0.max(self.base) - self.base) as usize).min(self.stable.len());
        while off + FRAME_HEADER <= self.stable.len() {
            let len = u32::from_le_bytes(self.stable[off..off + 4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(self.stable[off + 4..off + 8].try_into().unwrap());
            let end = off + FRAME_HEADER + len;
            if end > self.stable.len()
                || frame_crc(
                    self.base + off as u64,
                    &self.stable[off + FRAME_HEADER..end],
                ) != crc
            {
                break;
            }
            off = end;
        }
        Lsn(self.base + off as u64)
    }

    /// Read the single record at `lsn`.
    pub fn read_at(&self, lsn: Lsn) -> Result<LogRecord> {
        let mut scan = self.scan(lsn);
        match scan.next() {
            Some(Ok((at, rec))) if at == lsn => Ok(rec),
            Some(Ok((at, _))) => Err(LlogError::Corrupt {
                offset: lsn.0,
                reason: format!("no record boundary at {lsn}, next is {at}"),
            }),
            Some(Err(e)) => Err(e),
            None => Err(LlogError::LsnOutOfRange {
                lsn,
                start: self.start_lsn(),
                end: self.forced_lsn(),
            }),
        }
    }
}

/// Iterator over stable log records: yields `(lsn, record)`; a torn or
/// corrupt frame ends the scan with one `Err` item.
pub struct WalScan<'a> {
    wal: &'a Wal,
    at: Lsn,
}

impl Iterator for WalScan<'_> {
    type Item = Result<(Lsn, LogRecord)>;

    fn next(&mut self) -> Option<Self::Item> {
        let wal = self.wal;
        if self.at < wal.start_lsn() {
            self.at = Lsn(u64::MAX); // poison: don't loop forever
            return Some(Err(LlogError::LsnOutOfRange {
                lsn: self.at,
                start: wal.start_lsn(),
                end: wal.forced_lsn(),
            }));
        }
        let off = (self.at.0.checked_sub(wal.base)?) as usize;
        if off >= wal.stable.len() {
            return None; // clean end of stable log
        }
        let bytes = &wal.stable[off..];
        if bytes.len() < FRAME_HEADER {
            self.at = Lsn(u64::MAX);
            return Some(Err(LlogError::Corrupt {
                offset: wal.base + off as u64,
                reason: "torn frame header".into(),
            }));
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        if bytes.len() < FRAME_HEADER + len {
            self.at = Lsn(u64::MAX);
            return Some(Err(LlogError::Corrupt {
                offset: wal.base + off as u64,
                reason: "torn frame body".into(),
            }));
        }
        let payload = &bytes[FRAME_HEADER..FRAME_HEADER + len];
        if frame_crc(wal.base + off as u64, payload) != crc {
            self.at = Lsn(u64::MAX);
            return Some(Err(LlogError::Corrupt {
                offset: wal.base + off as u64,
                reason: "checksum mismatch".into(),
            }));
        }
        let lsn = Lsn(wal.base + off as u64);
        self.at = lsn.advance((FRAME_HEADER + len) as u64);
        match LogRecord::decode(payload) {
            Ok(rec) => Some(Ok((lsn, rec))),
            Err(e) => {
                self.at = Lsn(u64::MAX);
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CheckpointRecord, InstallRecord};
    use llog_ops::Operation;
    use llog_types::{ObjectId, Value};

    fn wal() -> Wal {
        Wal::new(Metrics::new())
    }

    fn op_record(id: u64) -> LogRecord {
        LogRecord::Op(Operation::logical(id, &[1], &[2]))
    }

    #[test]
    fn append_assigns_increasing_boundary_lsns() {
        let mut w = wal();
        let a = w.append(&op_record(0));
        let b = w.append(&op_record(1));
        assert_eq!(a, Lsn(1));
        assert!(b > a);
        assert_eq!(w.end_lsn().0 as usize, 1 + w.buffer.len());
    }

    #[test]
    fn records_survive_force_and_crash() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        w.append(&op_record(1)); // unforced: will be lost
        w.crash();

        let recs: Vec<_> = w.scan(w.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, op_record(0));
    }

    #[test]
    fn unforced_buffer_is_invisible_to_scan() {
        let mut w = wal();
        w.append(&op_record(0));
        assert_eq!(w.scan(w.start_lsn()).count(), 0);
    }

    #[test]
    fn force_counts_only_when_dirty() {
        let w_metrics = Metrics::new();
        let mut w = Wal::new(w_metrics.clone());
        w.force(); // nothing buffered
        assert_eq!(w_metrics.snapshot().log_forces, 0);
        w.append(&op_record(0));
        w.force();
        w.force(); // idempotent
        assert_eq!(w_metrics.snapshot().log_forces, 1);
    }

    #[test]
    fn torn_tail_stops_scan_with_error() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        w.append(&op_record(1));
        w.crash_torn(5); // half a frame header + start of body

        let mut scan = w.scan(w.start_lsn());
        assert!(scan.next().unwrap().is_ok());
        assert!(matches!(scan.next(), Some(Err(LlogError::Corrupt { .. }))));
        assert!(scan.next().is_none());
    }

    #[test]
    fn torn_tail_with_full_header_but_short_body() {
        let mut w = wal();
        w.append(&op_record(1));
        w.crash_torn(FRAME_HEADER + 3);
        let mut scan = w.scan(w.start_lsn());
        assert!(matches!(scan.next(), Some(Err(LlogError::Corrupt { .. }))));
    }

    #[test]
    fn crash_torn_zero_bytes_is_a_clean_crash() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let forced = w.forced_lsn();
        w.append(&op_record(1));
        w.crash_torn(0);
        // Nothing of the buffer reached disk: identical to crash().
        assert_eq!(w.forced_lsn(), forced);
        assert_eq!(w.buffer_len(), 0);
        let recs: Vec<_> = w.scan(w.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn crash_torn_full_buffer_is_a_complete_write() {
        let mut w = wal();
        w.append(&op_record(0));
        let len = w.buffer_len();
        w.crash_torn(len);
        // The whole frame is stable and scans cleanly.
        let recs: Vec<_> = w.scan(w.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, op_record(0));
        assert_eq!(w.forced_lsn().0 as usize, 1 + len);
    }

    #[test]
    fn crash_torn_past_buffer_len_clamps() {
        let mut w = wal();
        w.append(&op_record(0));
        let len = w.buffer_len();
        w.crash_torn(usize::MAX);
        // Clamped to the buffer: no phantom bytes, clean scan.
        assert_eq!(w.forced_lsn().0 as usize, 1 + len);
        let recs: Vec<_> = w.scan(w.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn crash_torn_full_write_does_not_promote_master() {
        let mut w = wal();
        let _cp = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
        w.crash_torn(usize::MAX);
        // The checkpoint frame is stable (analysis can rediscover it) but
        // the fixed-location master pointer was never updated by a completed
        // force.
        assert_eq!(w.master_checkpoint(), None);
        assert_eq!(w.scan(w.start_lsn()).filter(|r| r.is_ok()).count(), 1);
    }

    #[test]
    fn crash_torn_zero_on_empty_buffer_is_noop() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let forced = w.forced_lsn();
        w.crash_torn(0); // empty buffer, zero bytes: nothing changes
        assert_eq!(w.forced_lsn(), forced);
        assert_eq!(w.scan(w.start_lsn()).count(), 1);
    }

    #[test]
    fn force_with_none_matches_force() {
        let m = Metrics::new();
        let mut w = Wal::new(m.clone());
        assert_eq!(w.force_with(None), ForceOutcome::Forced(Lsn(1)));
        assert_eq!(m.snapshot().log_forces, 0, "empty force not counted");
        w.append(&op_record(0));
        let out = w.force_with(None);
        assert_eq!(out, ForceOutcome::Forced(w.forced_lsn()));
        assert_eq!(m.snapshot().log_forces, 1);
    }

    #[test]
    fn force_with_tear_returns_pre_fault_durable_lsn() {
        use llog_testkit::faults::FaultKind;
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let durable = w.forced_lsn();
        w.append(&op_record(1));
        let h = FaultHost::new();
        h.arm(failpoint::WAL_FORCE, FaultKind::TornWrite { at_byte: 3 });
        let out = w.force_with(Some(&h));
        assert_eq!(out, ForceOutcome::Torn(durable));
        // The torn frame stops the scan; the record before it survives.
        let mut scan = w.scan(w.start_lsn());
        assert!(scan.next().unwrap().is_ok());
        assert!(matches!(scan.next(), Some(Err(LlogError::Corrupt { .. }))));
    }

    #[test]
    fn force_with_io_error_leaves_buffer_intact() {
        use llog_testkit::faults::FaultKind;
        let mut w = wal();
        w.append(&op_record(0));
        let h = FaultHost::new();
        h.arm(failpoint::WAL_FORCE, FaultKind::IoError);
        assert_eq!(w.force_with(Some(&h)), ForceOutcome::Failed);
        assert!(w.buffer_len() > 0, "failed force must not consume buffer");
        // Retry (fault is single-shot) succeeds.
        let out = w.force_with(Some(&h));
        assert!(matches!(out, ForceOutcome::Forced(_)));
        assert_eq!(w.scan(w.start_lsn()).count(), 1);
    }

    #[test]
    fn force_with_bit_flip_is_detected_by_scan() {
        use llog_testkit::faults::FaultKind;
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let durable = w.forced_lsn();
        w.append(&op_record(1));
        let h = FaultHost::new();
        h.arm(failpoint::WAL_FORCE, FaultKind::BitFlip { offset: 17 });
        let out = w.force_with(Some(&h));
        assert_eq!(out, ForceOutcome::Torn(durable));
        // The pre-fault prefix scans; the rotted tail is caught by CRC.
        let mut scan = w.scan(w.start_lsn());
        assert!(scan.next().unwrap().is_ok());
        assert!(matches!(scan.next(), Some(Err(LlogError::Corrupt { .. }))));
    }

    #[test]
    fn corrupt_stable_bit_out_of_range_is_noop() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let image = w.stable.clone();
        w.corrupt_stable_bit(w.forced_lsn(), 5); // at stable end: no-op
        w.corrupt_stable_bit(Lsn::ZERO, 5); // before base: no-op
        assert_eq!(w.stable, image);
    }

    #[test]
    fn corrupt_byte_detected_by_crc() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let target = w.stable.len() - 1;
        w.stable[target] ^= 0xFF;
        let mut scan = w.scan(w.start_lsn());
        assert!(matches!(scan.next(), Some(Err(LlogError::Corrupt { .. }))));
    }

    #[test]
    fn scan_from_middle_and_read_at() {
        let mut w = wal();
        let _a = w.append(&op_record(0));
        let b = w.append(&op_record(1));
        let c = w.append(&op_record(2));
        w.force();

        let recs: Vec<_> = w.scan(b).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, b);
        assert_eq!(recs[1].0, c);
        assert_eq!(w.read_at(c).unwrap(), op_record(2));
        // Non-boundary read fails.
        assert!(w.read_at(Lsn(b.0 + 1)).is_err());
    }

    #[test]
    fn truncation_drops_prefix_and_validates_bounds() {
        let mut w = wal();
        let _a = w.append(&op_record(0));
        let b = w.append(&op_record(1));
        w.force();

        w.truncate_to(b).unwrap();
        assert_eq!(w.start_lsn(), b);
        let recs: Vec<_> = w.scan(b).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, op_record(1));

        // Before start or past forced end: rejected.
        assert!(w.truncate_to(Lsn::ZERO).is_err());
        assert!(w.truncate_to(w.forced_lsn().advance(1)).is_err());
        // Scanning before the truncation point errors.
        assert!(w.scan(Lsn::ZERO).next().unwrap().is_err());
    }

    #[test]
    fn master_checkpoint_promoted_on_force_only() {
        let mut w = wal();
        w.append(&op_record(0));
        let cp = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
        assert_eq!(w.master_checkpoint(), None);
        w.force();
        assert_eq!(w.master_checkpoint(), Some(cp));
    }

    #[test]
    fn crash_discards_pending_checkpoint() {
        let mut w = wal();
        w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
        w.crash();
        assert_eq!(w.master_checkpoint(), None);
        // A fresh checkpoint works fine afterwards.
        let cp2 = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
        w.force();
        assert_eq!(w.master_checkpoint(), Some(cp2));
    }

    #[test]
    fn truncating_past_master_clears_it() {
        let mut w = wal();
        let _cp = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
        w.force();
        let end = w.forced_lsn();
        w.truncate_to(end).unwrap();
        assert_eq!(w.master_checkpoint(), None);
    }

    #[test]
    fn tail_guard_tracks_last_force_boundary() {
        let mut w = wal();
        // Fresh log: everything is (vacuously) torn tail.
        assert!(w.corruption_is_torn_tail(1));
        w.append(&op_record(0));
        w.force();
        let first_force = w.forced_lsn();
        // Corruption inside the first batch is still torn tail: it was the
        // last (only) stable extension.
        assert!(w.corruption_is_torn_tail(1));
        w.append(&op_record(1));
        w.force();
        // Now the first batch is history — rot there is real corruption —
        // while the second batch is the candidate torn tail.
        assert!(!w.corruption_is_torn_tail(1));
        assert!(!w.corruption_is_torn_tail(first_force.0 - 1));
        assert!(w.corruption_is_torn_tail(first_force.0));

        // A torn crash extends the candidate window from the pre-crash
        // durable boundary.
        let durable = w.forced_lsn();
        w.append(&op_record(2));
        w.crash_torn(3);
        assert!(!w.corruption_is_torn_tail(durable.0 - 1));
        assert!(w.corruption_is_torn_tail(durable.0));
    }

    #[test]
    fn tail_guard_resets_conservatively_across_shipping() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        w.append(&op_record(1));
        w.force();
        assert!(!w.corruption_is_torn_tail(1));
        let mut shipped = Wal::from_shipped(Metrics::new(), w.start_lsn().0, None);
        let bytes = w.ship_tail(w.start_lsn(), usize::MAX).unwrap().to_vec();
        shipped.extend_stable(w.start_lsn(), &bytes).unwrap();
        // Shipped bytes carry no force history: everything classifies torn.
        assert!(shipped.corruption_is_torn_tail(1));
    }

    #[test]
    fn ship_and_extend_rebuild_an_identical_log() {
        let mut src = wal();
        for i in 0..12 {
            src.append(&op_record(i));
        }
        src.force();
        let mut dst = Wal::from_shipped(Metrics::new(), src.start_lsn().0, None);
        // Ship in small uneven chunks that do not align to frame bounds.
        let mut at = src.start_lsn();
        for chunk in [5usize, 17, 3, usize::MAX] {
            let bytes = src.ship_tail(at, chunk).unwrap().to_vec();
            let end = dst.extend_stable(at, &bytes).unwrap();
            at = end;
        }
        assert_eq!(dst.forced_lsn(), src.forced_lsn());
        let a: Vec<_> = src
            .scan(src.start_lsn())
            .collect::<Result<Vec<_>>>()
            .unwrap();
        let b: Vec<_> = dst
            .scan(dst.start_lsn())
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn extend_stable_tolerates_duplicates_and_rejects_gaps() {
        let mut src = wal();
        for i in 0..4 {
            src.append(&op_record(i));
        }
        src.force();
        let image = src.ship_tail(src.start_lsn(), usize::MAX).unwrap().to_vec();
        let mut dst = Wal::from_shipped(Metrics::new(), 1, None);
        let half = image.len() / 2;
        dst.extend_stable(Lsn(1), &image[..half]).unwrap();
        // Redelivery of an overlapping chunk: the held prefix is skipped.
        let end = dst.extend_stable(Lsn(1), &image).unwrap();
        assert_eq!(end, src.forced_lsn());
        // Exact duplicate of everything: no growth.
        assert_eq!(dst.extend_stable(Lsn(1), &image).unwrap(), end);
        assert_eq!(dst.scan(Lsn(1)).count(), 4);
        // A gap (delivery starting past the stable end) is rejected.
        let err = dst.extend_stable(end.advance(8), &image).unwrap_err();
        assert!(matches!(err, LlogError::LsnOutOfRange { .. }));
    }

    #[test]
    fn seal_to_drops_torn_tail_and_validates_bounds() {
        let mut w = wal();
        let _a = w.append(&op_record(0));
        let b = w.append(&op_record(1));
        w.force();
        w.append(&op_record(2));
        w.crash_torn(5); // torn final frame in the stable image
        assert!(w.scan(w.start_lsn()).any(|r| r.is_err()));
        let sealed_end = b.advance((FRAME_HEADER + op_record(1).encode().len()) as u64);
        w.seal_to(sealed_end).unwrap();
        // Clean scan: the torn bytes are gone, both whole records remain.
        let recs: Vec<_> = w.scan(w.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(w.forced_lsn(), sealed_end);
        assert!(w.seal_to(sealed_end.advance(1)).is_err());
        assert!(w.seal_to(Lsn::ZERO).is_err());
    }

    #[test]
    fn seal_to_clears_master_at_or_past_the_cut() {
        let mut w = wal();
        w.append(&op_record(0));
        let cp = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
        w.force();
        assert_eq!(w.master_checkpoint(), Some(cp));
        w.seal_to(cp).unwrap();
        assert_eq!(w.master_checkpoint(), None);
    }

    #[test]
    fn frames_from_counts_complete_frames_only() {
        let mut w = wal();
        assert_eq!(w.frames_from(w.start_lsn()), 0);
        let lsns: Vec<Lsn> = (0..5).map(|i| w.append(&op_record(i))).collect();
        w.force();
        assert_eq!(w.frames_from(w.start_lsn()), 5);
        assert_eq!(w.frames_from(lsns[3]), 2);
        assert_eq!(w.frames_from(w.forced_lsn()), 0);
        // A torn trailing frame is not counted.
        w.append(&op_record(9));
        w.crash_torn(FRAME_HEADER + 2);
        assert_eq!(w.frames_from(w.start_lsn()), 5);
        // Before base: nothing to count.
        assert_eq!(w.frames_from(Lsn::ZERO), 0);
    }

    #[test]
    fn contiguous_end_stops_at_torn_or_corrupt_frames() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let clean = w.forced_lsn();
        assert_eq!(w.contiguous_end(w.start_lsn()), clean);
        assert_eq!(w.contiguous_end(Lsn::ZERO), clean); // clamped to base
                                                        // Torn trailing frame: the walk stops at the last good boundary.
        w.append(&op_record(1));
        w.crash_torn(FRAME_HEADER + 3);
        assert_eq!(w.contiguous_end(w.start_lsn()), clean);
        // Corrupt payload byte: the CRC check stops the walk too.
        let mut w2 = wal();
        w2.append(&op_record(0));
        w2.force();
        w2.corrupt_stable_bit(w2.start_lsn(), (FRAME_HEADER as u64 + 1) * 8);
        assert_eq!(w2.contiguous_end(w2.start_lsn()), w2.start_lsn());
    }

    #[test]
    fn begin_complete_force_overlaps_appends() {
        let m = Metrics::new();
        let mut w = Wal::new(m.clone());
        let a = w.append(&op_record(0));
        let target = w.begin_force();
        // The in-flight batch is not stable yet, but new appends proceed
        // and receive addresses past it.
        assert_eq!(w.forced_lsn(), a);
        let b = w.append(&op_record(1));
        assert!(b >= target);
        w.complete_force();
        assert_eq!(w.forced_lsn(), target);
        assert_eq!(m.snapshot().log_forces, 1);
        w.force();
        let recs: Vec<_> = w.scan(w.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, a);
        assert_eq!(recs[1].0, b);
    }

    #[test]
    fn force_drains_inflight_slot_before_buffer() {
        // A checkpoint forcing while a barrier sync is in flight must fold
        // the in-flight bytes first or the log reassembles out of order.
        let mut w = wal();
        let a = w.append(&op_record(0));
        w.begin_force();
        let b = w.append(&op_record(1));
        w.force();
        let recs: Vec<_> = w.scan(w.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.iter().map(|r| r.0).collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn inflight_checkpoint_promotes_on_complete_only() {
        let mut w = wal();
        let cp = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
        w.begin_force();
        assert_eq!(w.master_checkpoint(), None, "not promoted until complete");
        w.complete_force();
        assert_eq!(w.master_checkpoint(), Some(cp));
    }

    #[test]
    fn crash_between_begin_and_complete_loses_inflight_bytes() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let durable = w.forced_lsn();
        w.append(&op_record(1));
        w.begin_force();
        w.append(&op_record(2));
        w.crash();
        // Neither the in-flight batch nor the buffer survived.
        assert_eq!(w.forced_lsn(), durable);
        assert_eq!(w.end_lsn(), durable);
        assert_eq!(w.scan(w.start_lsn()).count(), 1);
    }

    #[test]
    fn torn_crash_mid_flight_consumes_inflight_bytes_first() {
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let durable = w.forced_lsn();
        w.append(&op_record(1));
        w.begin_force();
        w.append(&op_record(2));
        // Tear three bytes into the volatile region: a torn prefix of the
        // in-flight batch, classified torn tail at the old durable end.
        w.crash_torn(3);
        assert!(w.corruption_is_torn_tail(durable.0));
        let mut scan = w.scan(w.start_lsn());
        assert!(scan.next().unwrap().is_ok());
        assert!(matches!(scan.next(), Some(Err(LlogError::Corrupt { .. }))));
    }

    #[test]
    fn begin_force_with_fail_leaves_buffer_for_retry() {
        use llog_testkit::faults::FaultKind;
        let mut w = wal();
        w.append(&op_record(0));
        let h = FaultHost::new();
        h.arm(failpoint::WAL_FORCE, FaultKind::IoError);
        assert_eq!(
            w.begin_force_with(Some(&h)),
            BeginForce::Done(ForceOutcome::Failed)
        );
        assert!(w.buffer_len() > 0);
        // Retry begins cleanly.
        match w.begin_force_with(Some(&h)) {
            BeginForce::Begun(target) => {
                w.complete_force();
                assert_eq!(w.forced_lsn(), target);
            }
            other => panic!("retry should begin: {other:?}"),
        }
    }

    #[test]
    fn begin_force_with_tear_reports_pre_fault_prefix() {
        use llog_testkit::faults::FaultKind;
        let mut w = wal();
        w.append(&op_record(0));
        w.force();
        let durable = w.forced_lsn();
        w.append(&op_record(1));
        let h = FaultHost::new();
        h.arm(failpoint::WAL_FORCE, FaultKind::TornWrite { at_byte: 3 });
        assert_eq!(
            w.begin_force_with(Some(&h)),
            BeginForce::Done(ForceOutcome::Torn(durable))
        );
        assert_eq!(w.buffer_len(), 0, "tear leaves the post-crash shape");
    }

    #[test]
    fn merged_begin_force_rides_one_slot() {
        let mut w = wal();
        let a = w.append(&op_record(0));
        let t1 = w.begin_force();
        let b = w.append(&op_record(1));
        let t2 = w.begin_force(); // merges the new buffer into the slot
        assert!(t2 > t1);
        w.complete_force();
        assert_eq!(w.forced_lsn(), t2);
        let recs: Vec<_> = w.scan(w.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.iter().map(|r| r.0).collect::<Vec<_>>(), vec![a, b]);
    }

    #[test]
    fn frames_checksum_to_their_address() {
        // A stable frame's CRC binds its LSN: the same payload relocated to
        // a different address must not verify. Simulate relocation by
        // scanning a log whose base was shifted without rewriting frames.
        let mut w = wal();
        w.append(&op_record(7));
        w.force();
        let mut moved = w.clone();
        moved.base += 4; // frames now claim addresses 4 bytes later
        let mut scan = moved.scan(moved.start_lsn());
        assert!(
            matches!(scan.next(), Some(Err(LlogError::Corrupt { .. }))),
            "relocated frame must fail its address-bound checksum"
        );
    }

    #[test]
    fn mixed_record_stream_roundtrips() {
        let mut w = wal();
        let records = vec![
            op_record(0),
            LogRecord::Install(InstallRecord {
                objs: vec![(ObjectId(2), Lsn::MAX)],
            }),
            LogRecord::FlushTxnBegin {
                objs: vec![ObjectId(1)],
            },
            LogRecord::FlushTxnValue {
                obj: ObjectId(1),
                value: Value::from("v"),
                vsi: Lsn(0),
            },
            LogRecord::FlushTxnCommit,
            LogRecord::Checkpoint(CheckpointRecord::default()),
        ];
        for r in &records {
            w.append(r);
        }
        w.force();
        let got: Vec<_> = w
            .scan(w.start_lsn())
            .collect::<Result<Vec<_>>>()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(got, records);
    }
}
