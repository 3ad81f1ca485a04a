//! The stable object store.

use std::collections::BTreeMap;
use std::sync::Arc;

use llog_types::{Lsn, ObjectId, Value};

use crate::metrics::Metrics;

/// A stable object: its value plus the `vSI` of the last installed update,
/// written together in one device I/O (exactly the page-header LSN of a real
/// system).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredObject {
    /// The object's contents.
    pub value: Value,
    /// vSI: lSI of the last installed update.
    pub vsi: Lsn,
}

/// The stable database: survives crashes; every access is a counted I/O.
///
/// Single-object writes are atomic (a page write). Multi-object atomicity is
/// deliberately *absent* here — that is the whole subject of the paper's §4;
/// callers needing it must go through [`ShadowStore`](crate::ShadowStore) or
/// a logged flush transaction, both of which pay visibly in the metrics.
#[derive(Debug, Clone)]
pub struct StableStore {
    objects: BTreeMap<ObjectId, StoredObject>,
    metrics: Arc<Metrics>,
    installed_through: Lsn,
}

impl StableStore {
    /// Create a new instance.
    pub fn new(metrics: Arc<Metrics>) -> StableStore {
        StableStore {
            objects: BTreeMap::new(),
            metrics,
            installed_through: Lsn::MAX,
        }
    }

    /// The log address below which every `Install` and `Flush` record's
    /// effects are in this store. A store loaded from a device carries the
    /// bound its last persist recorded, and recovery ignores those records
    /// at or above it; an in-memory store holds every install it took, so
    /// its bound is `Lsn::MAX`.
    pub fn installed_through(&self) -> Lsn {
        self.installed_through
    }

    /// Set the [`installed_through`](Self::installed_through) bound.
    pub fn set_installed_through(&mut self, lsn: Lsn) {
        self.installed_through = lsn;
    }

    /// The cost ledger this store reports into.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Read an object (counted). Missing objects read as the empty value at
    /// `Lsn::ZERO` — the store is a total function over object ids, matching
    /// the replay oracle's convention.
    pub fn read(&self, x: ObjectId) -> StoredObject {
        let obj = self.objects.get(&x).cloned().unwrap_or(StoredObject {
            value: Value::empty(),
            vsi: Lsn::ZERO,
        });
        Metrics::bump(&self.metrics.obj_reads, 1);
        Metrics::bump(&self.metrics.obj_read_bytes, obj.value.len() as u64);
        obj
    }

    /// Peek without counting an I/O (oracle/checker use only).
    pub fn peek(&self, x: ObjectId) -> Option<&StoredObject> {
        self.objects.get(&x)
    }

    /// The `vSI` stored with `x`, or `Lsn::ZERO` if never written. Reading
    /// just the header is still a device read in a real system, so it counts.
    pub fn read_vsi(&self, x: ObjectId) -> Lsn {
        Metrics::bump(&self.metrics.obj_reads, 1);
        self.objects.get(&x).map_or(Lsn::ZERO, |o| o.vsi)
    }

    /// Atomically write one object (one device I/O).
    pub fn write(&mut self, x: ObjectId, value: Value, vsi: Lsn) {
        Metrics::bump(&self.metrics.obj_writes, 1);
        Metrics::bump(&self.metrics.obj_write_bytes, value.len() as u64);
        self.objects.insert(x, StoredObject { value, vsi });
    }

    /// Remove a deleted object from the stable state (one device I/O — the
    /// allocation-map update).
    pub fn remove(&mut self, x: ObjectId) {
        Metrics::bump(&self.metrics.obj_writes, 1);
        self.objects.remove(&x);
    }

    /// Number of objects present.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Iterate over the stable contents (checker use; not counted).
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectId, &StoredObject)> {
        self.objects.iter()
    }

    /// A deep snapshot — the basis for backups and for the test oracle's
    /// "state at crash" captures.
    pub fn snapshot(&self) -> BTreeMap<ObjectId, StoredObject> {
        self.objects.clone()
    }

    /// Install a snapshot (media-recovery restore path).
    pub fn restore(&mut self, snapshot: BTreeMap<ObjectId, StoredObject>) {
        self.objects = snapshot;
    }

    /// Insert without metering (shadow commit / restore internals).
    pub(crate) fn insert_unmetered(&mut self, x: ObjectId, obj: StoredObject) {
        self.objects.insert(x, obj);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> StableStore {
        StableStore::new(Metrics::new())
    }

    #[test]
    fn read_missing_is_empty_at_zero() {
        let s = store();
        let o = s.read(ObjectId(1));
        assert!(o.value.is_empty());
        assert_eq!(o.vsi, Lsn::ZERO);
        assert_eq!(s.metrics().snapshot().obj_reads, 1);
    }

    #[test]
    fn write_then_read_roundtrips_with_vsi() {
        let mut s = store();
        s.write(ObjectId(1), Value::from("data"), Lsn(42));
        let o = s.read(ObjectId(1));
        assert_eq!(o.value, Value::from("data"));
        assert_eq!(o.vsi, Lsn(42));
        let m = s.metrics().snapshot();
        assert_eq!((m.obj_writes, m.obj_write_bytes), (1, 4));
    }

    #[test]
    fn read_vsi_counts_an_io() {
        let mut s = store();
        s.write(ObjectId(1), Value::from("d"), Lsn(7));
        assert_eq!(s.read_vsi(ObjectId(1)), Lsn(7));
        assert_eq!(s.read_vsi(ObjectId(2)), Lsn::ZERO);
        assert_eq!(s.metrics().snapshot().obj_reads, 2);
    }

    #[test]
    fn remove_counts_and_clears() {
        let mut s = store();
        s.write(ObjectId(1), Value::from("d"), Lsn(1));
        s.remove(ObjectId(1));
        assert!(s.peek(ObjectId(1)).is_none());
        assert_eq!(s.metrics().snapshot().obj_writes, 2);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut s = store();
        s.write(ObjectId(1), Value::from("a"), Lsn(1));
        s.write(ObjectId(2), Value::from("b"), Lsn(2));
        let snap = s.snapshot();
        s.write(ObjectId(1), Value::from("z"), Lsn(9));
        s.remove(ObjectId(2));
        s.restore(snap);
        assert_eq!(s.read(ObjectId(1)).value, Value::from("a"));
        assert_eq!(s.read(ObjectId(2)).value, Value::from("b"));
    }

    #[test]
    fn peek_does_not_count() {
        let mut s = store();
        s.write(ObjectId(1), Value::from("a"), Lsn(1));
        let before = s.metrics().snapshot().obj_reads;
        let _ = s.peek(ObjectId(1));
        assert_eq!(s.metrics().snapshot().obj_reads, before);
    }
}
