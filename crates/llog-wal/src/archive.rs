//! Log archival: truncated segments retained for media recovery.
//!
//! Checkpoint truncation discards the stable log prefix — safe for *crash*
//! recovery, but media recovery must replay from the last backup's
//! redo-start point, which may lie before the truncation cut. A
//! [`LogArchive`] keeps the truncated segments (on "tertiary storage"), and
//! [`LogArchive::scan_from`] stitches archived segments and the live log
//! back into one record stream.

use llog_types::{frame_crc, LlogError, Lsn, Result, FRAME_HEADER};

use crate::record::LogRecord;
use crate::wal::Wal;

/// Archived log segments, ordered and contiguous.
#[derive(Debug, Clone, Default)]
pub struct LogArchive {
    /// `(base_lsn, bytes)` per segment; segment i+1 starts where i ends.
    segments: Vec<(u64, Vec<u8>)>,
}

impl LogArchive {
    /// An empty archive.
    pub fn new() -> LogArchive {
        LogArchive::default()
    }

    /// Number of archived segments.
    pub fn n_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total archived bytes.
    pub fn archived_bytes(&self) -> usize {
        self.segments.iter().map(|(_, b)| b.len()).sum()
    }

    /// First archived LSN, if anything is archived.
    pub fn start_lsn(&self) -> Option<Lsn> {
        self.segments.first().map(|&(base, _)| Lsn(base))
    }

    /// Append a truncated segment. Must abut the previous one.
    pub(crate) fn push_segment(&mut self, base: u64, bytes: Vec<u8>) {
        if let Some((last_base, last_bytes)) = self.segments.last() {
            assert_eq!(
                last_base + last_bytes.len() as u64,
                base,
                "archive segments must be contiguous"
            );
        }
        if !bytes.is_empty() {
            self.segments.push((base, bytes));
        }
    }

    /// Scan records from `from` across every archived segment and then the
    /// live WAL's stable prefix, as one continuous stream.
    pub fn scan_from<'a>(
        &'a self,
        wal: &'a Wal,
        from: Lsn,
    ) -> impl Iterator<Item = Result<(Lsn, LogRecord)>> + 'a {
        let mut items: Vec<Result<(Lsn, LogRecord)>> = Vec::new();
        for &(base, ref bytes) in &self.segments {
            let seg_end = base + bytes.len() as u64;
            if from.0 >= seg_end {
                continue;
            }
            let start = from.0.max(base);
            scan_segment(bytes, base, start, &mut items);
        }
        // Live log, from wherever it starts (or `from` if later).
        let live_from = Lsn(from.0.max(wal.start_lsn().0));
        for item in wal.scan(live_from) {
            items.push(item);
            if items.last().is_some_and(|i| i.is_err()) {
                break;
            }
        }
        items.into_iter()
    }
}

/// Parse frames out of one archived segment starting at absolute LSN
/// `from` (a record boundary).
fn scan_segment(bytes: &[u8], base: u64, from: u64, out: &mut Vec<Result<(Lsn, LogRecord)>>) {
    let mut off = (from - base) as usize;
    while off < bytes.len() {
        if bytes.len() < off + FRAME_HEADER {
            out.push(Err(LlogError::Corrupt {
                offset: base + off as u64,
                reason: "torn frame header in archive".into(),
            }));
            return;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        if bytes.len() < off + FRAME_HEADER + len {
            out.push(Err(LlogError::Corrupt {
                offset: base + off as u64,
                reason: "torn frame body in archive".into(),
            }));
            return;
        }
        let payload = &bytes[off + FRAME_HEADER..off + FRAME_HEADER + len];
        if frame_crc(base + off as u64, payload) != crc {
            out.push(Err(LlogError::Corrupt {
                offset: base + off as u64,
                reason: "archive checksum mismatch".into(),
            }));
            return;
        }
        match LogRecord::decode(payload) {
            Ok(rec) => out.push(Ok((Lsn(base + off as u64), rec))),
            Err(e) => {
                out.push(Err(e));
                return;
            }
        }
        off += FRAME_HEADER + len;
    }
}

impl Wal {
    /// Truncate like [`truncate_to`](Wal::truncate_to), but move the
    /// discarded prefix into `archive` instead of dropping it.
    pub fn truncate_to_archiving(&mut self, lsn: Lsn, archive: &mut LogArchive) -> Result<()> {
        let base = self.start_lsn().0;
        if lsn < self.start_lsn() || lsn > self.forced_lsn() {
            return Err(LlogError::LsnOutOfRange {
                lsn,
                start: self.start_lsn(),
                end: self.forced_lsn(),
            });
        }
        let cut = (lsn.0 - base) as usize;
        let segment = self.stable_bytes()[..cut].to_vec();
        self.truncate_to(lsn)?;
        archive.push_segment(base, segment);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::Operation;
    use llog_storage::Metrics;

    fn op_record(id: u64) -> LogRecord {
        LogRecord::Op(Operation::logical(id, &[1], &[2]))
    }

    #[test]
    fn archived_segments_scan_seamlessly() {
        let mut wal = Wal::new(Metrics::new());
        let mut archive = LogArchive::new();
        let mut lsns = Vec::new();
        for round in 0..3 {
            for i in 0..4 {
                lsns.push(wal.append(&op_record(round * 4 + i)));
            }
            wal.force();
            let cut = wal.forced_lsn();
            wal.truncate_to_archiving(cut, &mut archive).unwrap();
        }
        for i in 12..14 {
            lsns.push(wal.append(&op_record(i)));
        }
        wal.force();

        assert_eq!(archive.n_segments(), 3);
        let all: Vec<_> = archive
            .scan_from(&wal, Lsn(1))
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(all.len(), 14);
        assert_eq!(all.iter().map(|(l, _)| *l).collect::<Vec<_>>(), lsns);
        for (i, (_, rec)) in all.iter().enumerate() {
            assert_eq!(rec, &op_record(i as u64));
        }
    }

    #[test]
    fn scan_from_mid_archive() {
        let mut wal = Wal::new(Metrics::new());
        let mut archive = LogArchive::new();
        let _a = wal.append(&op_record(0));
        let b = wal.append(&op_record(1));
        wal.force();
        wal.truncate_to_archiving(wal.forced_lsn(), &mut archive)
            .unwrap();
        wal.append(&op_record(2));
        wal.force();

        let from_b: Vec<_> = archive
            .scan_from(&wal, b)
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(from_b.len(), 2);
        assert_eq!(from_b[0].1, op_record(1));
        assert_eq!(from_b[1].1, op_record(2));
    }

    #[test]
    fn empty_archive_is_just_the_live_log() {
        let mut wal = Wal::new(Metrics::new());
        wal.append(&op_record(0));
        wal.force();
        let archive = LogArchive::new();
        let all: Vec<_> = archive
            .scan_from(&wal, Lsn(1))
            .collect::<Result<Vec<_>>>()
            .unwrap();
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn corrupted_archive_segment_reports() {
        let mut wal = Wal::new(Metrics::new());
        let mut archive = LogArchive::new();
        wal.append(&op_record(0));
        wal.force();
        wal.truncate_to_archiving(wal.forced_lsn(), &mut archive)
            .unwrap();
        archive.segments[0].1[10] ^= 0xFF;
        let items: Vec<_> = archive.scan_from(&wal, Lsn(1)).collect();
        assert!(items.iter().any(|i| i.is_err()));
    }

    #[test]
    fn truncate_archiving_respects_bounds() {
        let mut wal = Wal::new(Metrics::new());
        let mut archive = LogArchive::new();
        wal.append(&op_record(0)); // unforced
        assert!(wal
            .truncate_to_archiving(wal.end_lsn(), &mut archive)
            .is_err());
        assert_eq!(archive.n_segments(), 0);
    }
}
