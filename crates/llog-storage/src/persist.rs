//! Serialized image of the stable object store: the replica-attach wire
//! format. The on-disk format is the device layout in [`crate::device`].
//!
//! Layout: `magic "LLOGSTR1" | count u64 | count × (id u64, vsi u64,
//! len u32, bytes) | crc32c u32` — crc over everything before it.

use std::collections::BTreeMap;
use std::sync::Arc;

use llog_types::{crc32c, LlogError, Lsn, ObjectId, Result, Value};

use crate::metrics::Metrics;
use crate::store::{StableStore, StoredObject};

const MAGIC: &[u8; 8] = b"LLOGSTR1";

impl StableStore {
    /// Serialize the full stable state.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for (x, obj) in self.iter() {
            out.extend_from_slice(&x.0.to_le_bytes());
            out.extend_from_slice(&obj.vsi.0.to_le_bytes());
            out.extend_from_slice(&(obj.value.len() as u32).to_le_bytes());
            out.extend_from_slice(obj.value.as_bytes());
        }
        let crc = crc32c(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Reconstruct a store from a serialized image.
    pub fn deserialize(bytes: &[u8], metrics: Arc<Metrics>) -> Result<StableStore> {
        let err = |reason: &str| LlogError::Codec {
            reason: format!("store image: {reason}"),
        };
        if bytes.len() < 8 + 8 + 4 {
            return Err(err("too short"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        if crc32c(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
            return Err(err("checksum mismatch"));
        }
        if &body[0..8] != MAGIC {
            return Err(err("bad magic"));
        }
        let count = u64::from_le_bytes(body[8..16].try_into().unwrap()) as usize;
        let mut at = 16;
        let mut objects = BTreeMap::new();
        for _ in 0..count {
            if body.len() < at + 20 {
                return Err(err("truncated entry header"));
            }
            let id = ObjectId(u64::from_le_bytes(body[at..at + 8].try_into().unwrap()));
            let vsi = Lsn(u64::from_le_bytes(
                body[at + 8..at + 16].try_into().unwrap(),
            ));
            let len = u32::from_le_bytes(body[at + 16..at + 20].try_into().unwrap()) as usize;
            at += 20;
            if body.len() < at + len {
                return Err(err("truncated value"));
            }
            objects.insert(
                id,
                StoredObject {
                    value: Value::from_slice(&body[at..at + len]),
                    vsi,
                },
            );
            at += len;
        }
        if at != body.len() {
            return Err(err("trailing bytes"));
        }
        let mut store = StableStore::new(metrics);
        store.restore(objects);
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StableStore {
        let mut s = StableStore::new(Metrics::new());
        s.write(ObjectId(1), Value::from("hello"), Lsn(10));
        s.write(ObjectId(2), Value::empty(), Lsn(20));
        s.write(ObjectId(u64::MAX), Value::filled(7, 300), Lsn(30));
        s
    }

    #[test]
    fn roundtrip() {
        let s = sample();
        let s2 = StableStore::deserialize(&s.serialize(), Metrics::new()).unwrap();
        assert_eq!(s.snapshot(), s2.snapshot());
    }

    #[test]
    fn empty_store_roundtrips() {
        let s = StableStore::new(Metrics::new());
        let s2 = StableStore::deserialize(&s.serialize(), Metrics::new()).unwrap();
        assert!(s2.is_empty());
    }

    #[test]
    fn corruption_rejected() {
        let s = sample();
        let mut image = s.serialize();
        for i in [0usize, 12, image.len() / 2, image.len() - 1] {
            image[i] ^= 1;
            assert!(StableStore::deserialize(&image, Metrics::new()).is_err());
            image[i] ^= 1;
        }
        assert!(StableStore::deserialize(&image[..image.len() - 8], Metrics::new()).is_err());
    }
}
