//! Serialized image of the WAL (the on-disk format is the segmented device
//! layout; see [`Wal::persist_to`]).
//!
//! Layout: `magic "LLOGWAL1" | base u64 | master u64 (0 = none) | stable
//! len u64 | stable bytes | crc32c u32` — crc over everything before it.
//! Only the forced prefix is saved; the volatile buffer is, by definition,
//! not durable.

use std::sync::Arc;

use llog_storage::Metrics;
use llog_types::{crc32c, LlogError, Lsn, Result};

use crate::wal::Wal;

const MAGIC: &[u8; 8] = b"LLOGWAL1";

impl Wal {
    /// Serialize the durable state (forced prefix + master record).
    pub fn serialize(&self) -> Vec<u8> {
        let stable = self.stable_bytes();
        let mut out = Vec::with_capacity(8 + 8 + 8 + 8 + stable.len() + 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.start_lsn().0.to_le_bytes());
        out.extend_from_slice(&self.master_checkpoint().map_or(0, |l| l.0).to_le_bytes());
        out.extend_from_slice(&(stable.len() as u64).to_le_bytes());
        out.extend_from_slice(stable);
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Reconstruct a WAL from a serialized image.
    pub fn deserialize(bytes: &[u8], metrics: Arc<Metrics>) -> Result<Wal> {
        let err = |reason: &str| LlogError::Codec {
            reason: format!("wal image: {reason}"),
        };
        if bytes.len() < 8 + 8 + 8 + 8 + 4 {
            return Err(err("too short"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc32c(body) != crc {
            return Err(err("checksum mismatch"));
        }
        if &body[0..8] != MAGIC {
            return Err(err("bad magic"));
        }
        let base = u64::from_le_bytes(body[8..16].try_into().unwrap());
        let master = u64::from_le_bytes(body[16..24].try_into().unwrap());
        let stable_len = u64::from_le_bytes(body[24..32].try_into().unwrap());
        // Compare against the actual payload size rather than computing
        // `32 + stable_len`: a lying length field must not overflow.
        if stable_len != (body.len() - 32) as u64 {
            return Err(err("length mismatch"));
        }
        let master = if master == 0 { None } else { Some(Lsn(master)) };
        Ok(Wal::from_durable_parts(
            metrics,
            base,
            body[32..].to_vec(),
            master,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{CheckpointRecord, LogRecord};
    use llog_ops::Operation;

    fn sample_wal() -> Wal {
        let mut w = Wal::new(Metrics::new());
        w.append(&LogRecord::Op(Operation::logical(0, &[1, 2], &[2])));
        w.append(&LogRecord::Checkpoint(CheckpointRecord::default()));
        w.force();
        w.append(&LogRecord::Op(Operation::logical(1, &[2], &[1]))); // unforced
        w
    }

    #[test]
    fn roundtrip_preserves_durable_state() {
        let w = sample_wal();
        let image = w.serialize();
        let w2 = Wal::deserialize(&image, Metrics::new()).unwrap();
        assert_eq!(w2.start_lsn(), w.start_lsn());
        assert_eq!(w2.forced_lsn(), w.forced_lsn());
        assert_eq!(w2.master_checkpoint(), w.master_checkpoint());
        let a: Vec<_> = w.scan(w.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        let b: Vec<_> = w2.scan(w2.start_lsn()).collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn buffer_is_not_persisted() {
        let w = sample_wal();
        let w2 = Wal::deserialize(&w.serialize(), Metrics::new()).unwrap();
        // The unforced record is gone: end == forced.
        assert_eq!(w2.end_lsn(), w2.forced_lsn());
    }

    #[test]
    fn corrupt_image_rejected() {
        let w = sample_wal();
        let mut image = w.serialize();
        for i in [0usize, 9, image.len() / 2, image.len() - 1] {
            image[i] ^= 0xFF;
            assert!(
                Wal::deserialize(&image, Metrics::new()).is_err(),
                "flip {i}"
            );
            image[i] ^= 0xFF;
        }
        assert!(Wal::deserialize(&image[..10], Metrics::new()).is_err());
    }

    #[test]
    fn truncated_wal_roundtrips_with_base() {
        let mut w = Wal::new(Metrics::new());
        let _a = w.append(&LogRecord::Op(Operation::logical(0, &[1], &[2])));
        let b = w.append(&LogRecord::Op(Operation::logical(1, &[2], &[3])));
        w.force();
        w.truncate_to(b).unwrap();
        let w2 = Wal::deserialize(&w.serialize(), Metrics::new()).unwrap();
        assert_eq!(w2.start_lsn(), b);
        assert_eq!(w2.scan(b).count(), 1);
    }
}
