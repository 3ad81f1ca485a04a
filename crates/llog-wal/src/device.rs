//! WAL persistence through a pluggable [`LogDevice`] (DESIGN §11).
//!
//! Device persistence is incremental:
//!
//! - **Truncation reclaims whole segments.** When the in-memory WAL's base
//!   has advanced past durable segments (a checkpoint truncated the log),
//!   [`Wal::persist_to`] drops them with
//!   [`LogDevice::truncate_below`] instead of rewriting the survivors.
//! - **Appends carry only the new tail.** Bytes the device already holds are
//!   never re-sent; the device appends `stable[device_end..]` and rotates
//!   segments as configured.
//! - **The master record rides the manifest.** No separate fixed-location
//!   write; the manifest update at the force barrier carries it.
//!
//! Loading rebuilds the WAL with a *sharper* torn-tail guard than a shipped
//! log ([`Wal::from_shipped`]): sealed segments were CRC-verified by
//! [`LogDevice::load_parts`], so only the open segment can legitimately hold
//! a torn tail — corruption below it is media rot and recovery refuses it.

use std::sync::Arc;

use llog_storage::device::LogDevice;
use llog_storage::Metrics;
use llog_testkit::faults::FaultHost;
use llog_types::{Lsn, Result};

use crate::wal::Wal;

impl Wal {
    /// Incrementally persist the forced prefix to `dev`: tail append,
    /// master update, truncation-reclaim, force barrier.
    ///
    /// Returns the device's durable LSN — the highest LSN the caller may
    /// acknowledge as device-durable. A fault verdict can leave it below
    /// [`Wal::forced_lsn`] (torn/short append) or freeze it (bit rot wounds
    /// the device); re-persisting after a tear re-appends the missing
    /// suffix.
    pub fn persist_to(&self, dev: &mut dyn LogDevice, faults: Option<&FaultHost>) -> Result<Lsn> {
        let base = self.start_lsn();
        let forced = self.forced_lsn();
        if dev.end() < base || dev.start() > forced {
            // The device predates this WAL's address window (fresh attach
            // after truncation, or a reset WAL): start it over at our base.
            dev.reset(base, faults)?;
        }
        if dev.end() < forced {
            let offset = (dev.end().0 - base.0) as usize;
            dev.append(dev.end(), &self.stable_bytes()[offset..], faults)?;
        }
        dev.set_master(self.master_checkpoint().unwrap_or(Lsn::ZERO));
        if base > dev.start() {
            // Checkpoint truncation: drop whole segments below our base.
            // Segment-granular — the device may retain a sub-segment prefix
            // below `base`, which recovery replays harmlessly (its ops fail
            // the REDO test). It runs after the master update, so the
            // manifest it writes names the new master: were the old one
            // still set, dropping its segment would reset it to none, and a
            // crash before the barrier would leave a manifest whose base may
            // sit mid-frame with no checkpoint to anchor the scan.
            dev.truncate_below(base, faults)?;
        }
        dev.force(faults)?;
        Ok(dev.durable_end())
    }

    /// Append the forced prefix's new tail to `dev` and sync it, leaving
    /// the device's base and master as they are: the first step of a
    /// WAL-protocol persist, before the store device may take a checkpoint
    /// that relies on those records. A device whose end lies below this
    /// WAL's base (a truncating checkpoint dropped bytes it never got)
    /// takes nothing: only [`Wal::persist_to`] may restart it at the base.
    /// Returns the device's durable LSN.
    pub fn persist_tail_to(
        &self,
        dev: &mut dyn LogDevice,
        faults: Option<&FaultHost>,
    ) -> Result<Lsn> {
        let (base, forced) = (self.start_lsn(), self.forced_lsn());
        if dev.end() >= base && dev.end() < forced {
            let offset = (dev.end().0 - base.0) as usize;
            dev.append(dev.end(), &self.stable_bytes()[offset..], faults)?;
        }
        dev.force(faults)?;
        Ok(dev.durable_end())
    }

    /// Stage the forced prefix **plus the in-flight double-buffered batch**
    /// onto `dev` without syncing: tail append up to the end of the
    /// in-flight slot, master update, truncation-reclaim, manifest-if-stale
    /// — but the blobs are left unsynced for the caller's shared barrier
    /// ([`LogDevice::sync_uncounted`]), unless a truncation's own barrier
    /// covered them.
    ///
    /// This is the cross-shard coalescing half of [`Wal::persist_to`]: the
    /// scheduler stages every participating shard under its engine lock, then
    /// runs one sync barrier for all of them with no engine lock held, and
    /// only after that barrier settles does each shard
    /// [`Wal::complete_force`] and advance its watermark. The master pointer
    /// written here is the already-*promoted* checkpoint (never the in-flight
    /// candidate), so a manifest that becomes durable ahead of a failed
    /// barrier can never name a checkpoint frame the device does not hold.
    pub fn stage_to(&self, dev: &mut dyn LogDevice, faults: Option<&FaultHost>) -> Result<Lsn> {
        let base = self.start_lsn();
        let forced = self.forced_lsn();
        let target = Lsn(forced.0 + self.inflight_len() as u64);
        if dev.end() < base || dev.start() > target {
            dev.reset(base, faults)?;
        }
        if dev.end() < forced {
            let offset = (dev.end().0 - base.0) as usize;
            dev.append(dev.end(), &self.stable_bytes()[offset..], faults)?;
        }
        if dev.end() >= forced && dev.end() < target {
            let offset = (dev.end().0 - forced.0) as usize;
            dev.append(dev.end(), &self.inflight_bytes()[offset..], faults)?;
        }
        dev.set_master(self.master_checkpoint().unwrap_or(Lsn::ZERO));
        if base > dev.start() {
            // After the master update, as in `persist_to`.
            dev.truncate_below(base, faults)?;
        }
        dev.stage(faults)?;
        Ok(dev.durable_end())
    }

    /// Rebuild a WAL from a log device, or `None` when the device holds no
    /// manifest (never persisted). Sealed-segment CRC/contiguity violations
    /// surface as `Codec` errors from [`LogDevice::load_parts`].
    pub fn load_from_device(dev: &dyn LogDevice, metrics: Arc<Metrics>) -> Result<Option<Wal>> {
        let Some(parts) = dev.load_parts()? else {
            return Ok(None);
        };
        let master = (parts.master != Lsn::ZERO).then_some(parts.master);
        let guard = clamp_guard_to_frame_boundary(parts.base, &parts.bytes, parts.tail_guard);
        Ok(Some(Wal::from_durable_parts_guarded(
            metrics,
            parts.base.0,
            parts.bytes,
            master,
            guard,
        )))
    }
}

/// Lower the device's torn-tail guard (the open segment's start) to the last
/// frame boundary at-or-before it.
///
/// Segments rotate on *byte* counts, so a frame can straddle the sealed/open
/// boundary: its head is CRC-sealed but its tail lives in the unsealed open
/// segment and can legitimately be torn. The scan reports corruption at the
/// frame's **start** — below `open_start` — so classifying by the raw device
/// guard would turn that recoverable tear into a hard `Corrupt`. Walking
/// frame length fields (no CRC, no decode — sealed bytes are device-verified
/// as-written) finds the last boundary that does not cross the guard; only
/// the straddling frame, never a fully-sealed one, moves below it.
fn clamp_guard_to_frame_boundary(base: Lsn, bytes: &[u8], guard: Lsn) -> Lsn {
    let target = (guard.0.saturating_sub(base.0)) as usize;
    let mut at = 0usize;
    while at < target {
        if at + 8 > bytes.len() {
            break; // header itself is cut: the frame at `at` awaits its tail
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let next = at.saturating_add(8).saturating_add(len);
        if next > target {
            break; // frame at `at` crosses into the open segment
        }
        at = next;
    }
    Lsn(base.0 + at as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CheckpointRecord, LogRecord};
    use llog_ops::Operation;
    use llog_storage::device::{DeviceConfig, MemLogDevice};
    use llog_testkit::faults::{failpoint, FaultKind};
    use llog_types::LlogError;

    fn op_record(id: u64) -> LogRecord {
        LogRecord::Op(Operation::logical(id, &[1], &[2]))
    }

    fn mem_dev() -> MemLogDevice {
        MemLogDevice::mem(Metrics::new(), &DeviceConfig::small(), Lsn(1))
    }

    #[test]
    fn persist_load_roundtrip_preserves_records_and_master() {
        let mut w = Wal::new(Metrics::new());
        w.append(&op_record(0));
        let cp = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
        w.force();
        let mut dev = mem_dev();
        let durable = w.persist_to(&mut dev, None).unwrap();
        assert_eq!(durable, w.forced_lsn());
        let w2 = Wal::load_from_device(&dev, Metrics::new())
            .unwrap()
            .unwrap();
        assert_eq!(w2.master_checkpoint(), Some(cp));
        assert_eq!(w2.start_lsn(), w.start_lsn());
        assert_eq!(w2.forced_lsn(), w.forced_lsn());
        let a: Vec<_> = w.scan(w.start_lsn()).map(|r| r.unwrap()).collect();
        let b: Vec<_> = w2.scan(w2.start_lsn()).map(|r| r.unwrap()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn fresh_device_loads_none() {
        let dev = mem_dev();
        assert!(Wal::load_from_device(&dev, Metrics::new())
            .unwrap()
            .is_none());
    }

    #[test]
    fn repeated_persists_append_only_the_new_tail() {
        let dev_metrics = Metrics::new();
        let mut w = Wal::new(Metrics::new());
        let mut dev = MemLogDevice::mem(dev_metrics.clone(), &DeviceConfig::small(), Lsn(1));
        w.append(&op_record(0));
        w.force();
        w.persist_to(&mut dev, None).unwrap();
        let after_first = dev.end();
        let written_first = dev_metrics.snapshot().io_bytes_written;
        w.append(&op_record(1));
        w.force();
        w.persist_to(&mut dev, None).unwrap();
        assert_eq!(dev.end(), w.forced_lsn());
        let tail = w.forced_lsn().0 - after_first.0;
        let delta = dev_metrics.snapshot().io_bytes_written - written_first;
        // Second persist wrote only the new tail (+ manifest bytes), far
        // less than a full rewrite would.
        assert!(
            delta < tail + 128,
            "incremental persist wrote {delta} bytes for a {tail}-byte tail"
        );
        // Idempotent: persisting an unchanged WAL appends nothing.
        let before = dev.end();
        w.persist_to(&mut dev, None).unwrap();
        assert_eq!(dev.end(), before);
    }

    #[test]
    fn truncation_reclaims_whole_segments_on_persist() {
        let metrics = Metrics::new();
        let mut w = Wal::new(Metrics::new());
        let mut dev = MemLogDevice::mem(
            metrics.clone(),
            &DeviceConfig {
                segment_bytes: 512,
                ..DeviceConfig::default()
            },
            Lsn(1),
        );
        let mut boundaries = Vec::new();
        let mut keep_from = Lsn::ZERO;
        for i in 0..128 {
            if i == 128 - 16 {
                keep_from = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
            }
            boundaries.push(w.append(&op_record(i)));
        }
        w.force();
        w.persist_to(&mut dev, None).unwrap();
        assert!(metrics.snapshot().segments_rotated >= 2);
        // A checkpoint truncated the log to itself, its last eighth, so the
        // survivors outweigh one manifest; persist: whole segments drop.
        assert_eq!(w.master_checkpoint(), Some(keep_from));
        w.truncate_to(keep_from).unwrap();
        let before = metrics.snapshot();
        w.persist_to(&mut dev, None).unwrap();
        let m = metrics.snapshot().since(&before);
        assert!(
            m.segments_reclaimed >= 1,
            "expected reclaimed segments, got {m:?}"
        );
        // Reclaim moves no data: it writes a manifest, at least 4x fewer
        // bytes than rewriting the surviving log would.
        let survivors = w.stable_len() as u64;
        assert!(
            m.io_bytes_written * 4 <= survivors,
            "reclaim wrote {} bytes for a {survivors}-byte surviving log",
            m.io_bytes_written
        );
        assert!(dev.start() <= keep_from);
        // The device still loads; its segment-aligned base may sit mid-frame
        // below the truncation point, which replays cleanly from the master.
        let w2 = Wal::load_from_device(&dev, Metrics::new())
            .unwrap()
            .unwrap();
        assert_eq!(w2.master_checkpoint(), Some(keep_from));
        assert_eq!(w2.forced_lsn(), w.forced_lsn());
        let recs: Vec<_> = w2.scan(keep_from).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(recs.len(), 17, "the checkpoint and the 16 ops after it");
        assert_eq!(recs.last().unwrap().0, boundaries[127]);
    }

    #[test]
    fn sealed_segment_rot_is_hard_corrupt_after_device_load() {
        let metrics = Metrics::new();
        let mut w = Wal::new(Metrics::new());
        let mut dev = MemLogDevice::mem(
            metrics,
            &DeviceConfig {
                segment_bytes: 24,
                ..DeviceConfig::default()
            },
            Lsn(1),
        );
        for i in 0..8 {
            w.append(&op_record(i));
        }
        w.force();
        w.persist_to(&mut dev, None).unwrap();
        let w2 = Wal::load_from_device(&dev, Metrics::new())
            .unwrap()
            .unwrap();
        // The guard sits at the open segment: frame corruption below it is
        // NOT a torn tail (sealed segments were CRC-verified), corruption
        // at/after it is.
        assert!(!w2.corruption_is_torn_tail(w2.start_lsn().0));
        assert!(w2.corruption_is_torn_tail(w2.forced_lsn().0));
    }

    #[test]
    fn frame_straddling_seal_boundary_tears_as_torn_tail_not_corrupt() {
        // Segments rotate on byte counts, so a frame can have its head in a
        // CRC-sealed segment and its tail in the open segment. Tearing that
        // tail must classify as a torn tail (the scan reports the corruption
        // at the frame's start, *below* the open segment), not media rot.
        let mut w = Wal::new(Metrics::new());
        let b0 = w.append(&op_record(0));
        let b1 = w.append(&op_record(1));
        w.force();
        let frame1 = (b1.0 - b0.0) as usize;
        // Seal 4 bytes into the second frame; tear the append a little
        // after the seal, mid-frame.
        let seg = frame1 + 4;
        let torn_at = frame1 + 10;
        let mut dev = MemLogDevice::mem(
            Metrics::new(),
            &DeviceConfig {
                segment_bytes: seg,
                ..DeviceConfig::default()
            },
            b0,
        );
        let h = FaultHost::new();
        h.arm(
            failpoint::DEV_LOG_APPEND,
            FaultKind::TornWrite {
                at_byte: torn_at as u64,
            },
        );
        let durable = w.persist_to(&mut dev, Some(&h)).unwrap();
        assert_eq!(durable, Lsn(b0.0 + torn_at as u64));
        let w2 = Wal::load_from_device(&dev, Metrics::new())
            .unwrap()
            .unwrap();
        // First record scans clean; the straddling frame is cut.
        let mut scan = w2.scan(w2.start_lsn());
        assert!(matches!(scan.next(), Some(Ok((lsn, _))) if lsn == b0));
        match scan.next() {
            Some(Err(LlogError::Corrupt { offset, .. })) => {
                assert_eq!(offset, b1.0, "cut reported at the frame start");
                assert!(
                    w2.corruption_is_torn_tail(offset),
                    "straddling-frame tear must clip, not kill (guard too high?)"
                );
            }
            other => panic!("expected a torn second frame, got {other:?}"),
        }
        // A fully-sealed frame is still guarded: corruption at the first
        // record would NOT be a torn tail.
        assert!(!w2.corruption_is_torn_tail(b0.0));
        // Re-persisting heals the tear.
        assert_eq!(w.persist_to(&mut dev, None).unwrap(), w.forced_lsn());
        let w3 = Wal::load_from_device(&dev, Metrics::new())
            .unwrap()
            .unwrap();
        assert_eq!(w3.scan(w3.start_lsn()).count(), 2);
    }

    #[test]
    fn torn_device_append_heals_on_next_persist() {
        let mut w = Wal::new(Metrics::new());
        let mut dev = mem_dev();
        w.append(&op_record(0));
        w.append(&op_record(1));
        w.force();
        let h = FaultHost::new();
        h.arm(
            failpoint::DEV_LOG_APPEND,
            FaultKind::TornWrite { at_byte: 7 },
        );
        let durable = w.persist_to(&mut dev, Some(&h)).unwrap();
        assert_eq!(durable, Lsn(8), "only the torn prefix is durable");
        assert_eq!(
            dev.end(),
            Lsn(8),
            "the device resumes after the clean prefix"
        );
        // The torn image loads: the device clips the partial frame, so the
        // WAL holds no bytes and the scan sees no corruption.
        let w2 = Wal::load_from_device(&dev, Metrics::new())
            .unwrap()
            .unwrap();
        assert_eq!(w2.start_lsn(), Lsn(1));
        assert_eq!(w2.forced_lsn(), Lsn(1));
        assert!(w2.scan(w2.start_lsn()).next().is_none());
        // Re-persisting heals: the device re-appends the missing suffix.
        let durable = w.persist_to(&mut dev, None).unwrap();
        assert_eq!(durable, w.forced_lsn());
        let w3 = Wal::load_from_device(&dev, Metrics::new())
            .unwrap()
            .unwrap();
        assert_eq!(w3.scan(w3.start_lsn()).count(), 2);
    }

    /// A persist that carries a checkpoint truncation and fails before its
    /// barrier must leave a manifest that loads: the master it names still
    /// anchors a frame-aligned scan over every op the device holds.
    #[test]
    fn a_persist_that_fails_mid_truncation_leaves_a_loadable_device() {
        type Persist = fn(&Wal, &mut dyn LogDevice, Option<&FaultHost>) -> Result<Lsn>;
        for persist in [Wal::persist_to as Persist, Wal::stage_to] {
            let mut w = Wal::new(Metrics::new());
            let mut dev = mem_dev();
            let mut ops = Vec::new();
            for i in 0..30 {
                ops.push(w.append(&op_record(i)));
            }
            let cp1 = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
            for i in 30..60 {
                ops.push(w.append(&op_record(i)));
            }
            w.force();
            w.persist_to(&mut dev, None).unwrap();
            let held = dev.end();
            // A second checkpoint whose scan starts at op 45 truncates the
            // log there; its tail is not on the device yet. Truncation drops
            // the segment holding the first checkpoint.
            let cp2 = w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
            for i in 60..90 {
                w.append(&op_record(i));
            }
            w.force();
            w.truncate_to(ops[45]).unwrap();
            assert_eq!(w.master_checkpoint(), Some(cp2));
            let h = FaultHost::new();
            h.arm(failpoint::DEV_LOG_APPEND, FaultKind::IoError);
            let err = persist(&w, &mut dev, Some(&h)).unwrap_err();
            assert!(matches!(err, LlogError::Io { .. }), "got {err}");
            // The durable manifest loads and recovers every op it holds.
            let w2 = Wal::load_from_device(&dev, Metrics::new())
                .unwrap()
                .unwrap();
            assert_eq!(w2.master_checkpoint(), Some(cp1));
            assert_eq!(w2.forced_lsn(), held);
            let recs: Vec<_> = w2.scan(w2.start_lsn()).collect::<Result<_>>().unwrap();
            let lsns: Vec<Lsn> = recs.iter().map(|r| r.0).collect();
            let mut want = ops.clone();
            want.insert(30, cp1);
            assert_eq!(lsns, want, "every op and the first checkpoint");
            // A retry without the fault truncates under the new master.
            persist(&w, &mut dev, None).unwrap();
            dev.force(None).unwrap();
            let w3 = Wal::load_from_device(&dev, Metrics::new())
                .unwrap()
                .unwrap();
            assert_eq!(w3.master_checkpoint(), Some(cp2));
            assert!(w3.start_lsn() <= ops[45]);
            assert_eq!(w3.forced_lsn(), w.forced_lsn());
            assert_eq!(w3.scan(cp2).collect::<Result<Vec<_>>>().unwrap().len(), 31);
        }
    }

    #[test]
    fn io_error_on_manifest_fails_the_persist() {
        let mut w = Wal::new(Metrics::new());
        let mut dev = mem_dev();
        w.append(&op_record(0));
        w.force();
        let h = FaultHost::new();
        h.arm(failpoint::DEV_LOG_MANIFEST, FaultKind::IoError);
        let err = w.persist_to(&mut dev, Some(&h)).unwrap_err();
        assert!(matches!(err, LlogError::Io { .. }), "got {err}");
        // Retry (single-shot fault) succeeds.
        assert_eq!(w.persist_to(&mut dev, None).unwrap(), w.forced_lsn());
    }
}
