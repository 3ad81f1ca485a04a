//! The stable object store.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
///
/// The store keeps its own change set against the store-device image it
/// last matched (loaded from, or checkpointed into): see [`crate::device`].
/// A store that matches no image (new, [`restore`](Self::restore)d) tracks
/// nothing.
#[derive(Debug, Clone)]
pub struct StableStore {
    objects: BTreeMap<ObjectId, StoredObject>,
    metrics: Arc<Metrics>,
    installed_through: Lsn,
    changes: Changes,
}

/// The name of a store-device image. It is content-addressed (the device's
/// chain: epochs, lengths and CRCs), so two devices holding the same chain
/// give the same name.
pub(crate) type ImageName = Box<[u8]>;

/// What changed since a device image, and which image the store matches.
#[derive(Debug, Clone, Default)]
struct Changes {
    /// The image `ids` are relative to; `None` tracks nothing.
    base: Option<ImageName>,
    /// Ids written or removed since `base`, each with whether `base` held
    /// it. An id created and removed again since `base` is dropped, so the
    /// set never outgrows the store plus the image.
    ids: BTreeMap<ObjectId, bool>,
    /// The image the last checkpoint (through `&StableStore`) or load left
    /// the store matching, until the next write, which reaches it through
    /// `&mut self` without the lock. `base` and `ids` are kept until then,
    /// so a second device still at `base` gets the same delta.
    settled: Settled,
}

#[derive(Debug, Default)]
struct Settled(Mutex<Option<ImageName>>);

impl Settled {
    fn lock(&self) -> MutexGuard<'_, Option<ImageName>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Settled {
    fn clone(&self) -> Settled {
        Settled(Mutex::new(self.lock().clone()))
    }
}

impl StableStore {
    /// Create a new instance.
    pub fn new(metrics: Arc<Metrics>) -> StableStore {
        StableStore {
            objects: BTreeMap::new(),
            metrics,
            installed_through: Lsn::MAX,
            changes: Changes::default(),
        }
    }

    /// The log address below which every `Install` record's installation
    /// is in this store. A store loaded from a device carries the bound its
    /// last persist recorded, and recovery ignores those records at or
    /// above it; an in-memory store holds every install it took, so its
    /// bound is `Lsn::MAX`.
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
        self.insert_unmetered(x, StoredObject { value, vsi });
    }

    /// Remove a deleted object from the stable state (one device I/O — the
    /// allocation-map update).
    pub fn remove(&mut self, x: ObjectId) {
        Metrics::bump(&self.metrics.obj_writes, 1);
        let held = self.objects.remove(&x).is_some();
        self.note(x, held, false);
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

    /// Install a snapshot (media-recovery restore path). The result matches
    /// no store-device image.
    pub fn restore(&mut self, snapshot: BTreeMap<ObjectId, StoredObject>) {
        self.objects = snapshot;
        self.changes = Changes::default();
    }

    /// Insert without metering (shadow commit internals).
    pub(crate) fn insert_unmetered(&mut self, x: ObjectId, obj: StoredObject) {
        let held = self.objects.insert(x, obj).is_some();
        self.note(x, held, true);
    }

    /// Record that `x` changed: `held` is whether the store had it before,
    /// `present` whether it has it now. The first change after a settle
    /// rebases the set on the settled image.
    fn note(&mut self, x: ObjectId, held: bool, present: bool) {
        let c = &mut self.changes;
        let settled = c
            .settled
            .0
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(image) = settled.take() {
            c.base = Some(image);
            c.ids.clear();
        }
        if c.base.is_none() {
            return;
        }
        // Until its first change `x` is as the image has it, so `held`
        // is also whether the image holds it.
        match c.ids.entry(x) {
            Entry::Vacant(v) if held || present => {
                v.insert(held);
            }
            Entry::Occupied(o) if !*o.get() && !present => {
                o.remove();
            }
            _ => {}
        }
    }

    /// The ids changed since the device image `image`, sorted, each with
    /// whether `image` held it; empty when the store matches `image`, and
    /// `None` when the store's changes are not relative to `image` (the
    /// device then needs a full image).
    pub(crate) fn changes_since(&self, image: &[u8]) -> Option<Vec<(ObjectId, bool)>> {
        let c = &self.changes;
        if c.settled.lock().as_deref() == Some(image) {
            Some(Vec::new())
        } else if c.base.as_deref() == Some(image) {
            Some(c.ids.iter().map(|(x, held)| (*x, *held)).collect())
        } else {
            None
        }
    }

    /// Record that the store matches the device image `image`.
    pub(crate) fn settle(&self, image: ImageName) {
        *self.changes.settled.lock() = Some(image);
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
