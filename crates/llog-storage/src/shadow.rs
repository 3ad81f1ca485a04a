//! Shadow paging: the System R-style atomic multi-object flush baseline.
//!
//! §4 recalls that shadows "separate flushing into (i) writing object values
//! to the disk and (ii) including these values in the 'official' stable
//! system state ... one atomically installs them by 'swinging' a pointer
//! with a single atomic disk write". We model exactly that: staged intention
//! writes (each a counted device I/O to the shadow area), then a root commit
//! (one more I/O). A crash before commit loses the intentions; a crash after
//! commit retains all of them — giving true multi-object atomicity at the
//! cost the paper attributes to it: every object written twice-located,
//! sequentiality destroyed, plus the commit write.

use std::collections::BTreeMap;

use llog_types::{Lsn, ObjectId, Value};

use crate::metrics::Metrics;
use crate::store::{StableStore, StoredObject};

/// An in-flight shadow intention over a [`StableStore`].
#[derive(Debug)]
pub struct ShadowStore {
    staged: BTreeMap<ObjectId, StoredObject>,
}

impl Default for ShadowStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ShadowStore {
    /// Create a new instance.
    pub fn new() -> ShadowStore {
        ShadowStore {
            staged: BTreeMap::new(),
        }
    }

    /// Stage a write in the shadow area (counted: it is a device write).
    pub fn stage(&mut self, base: &StableStore, x: ObjectId, value: Value, vsi: Lsn) {
        Metrics::bump(&base.metrics().obj_writes, 1);
        Metrics::bump(&base.metrics().obj_write_bytes, value.len() as u64);
        self.staged.insert(x, StoredObject { value, vsi });
    }

    /// Atomically commit all staged writes into `base` by "swinging the
    /// pointer": one root write, after which every staged object is part of
    /// the official stable state. The staged values were already written to
    /// disk by [`stage`](Self::stage), so the commit transfers them without
    /// further per-object I/O.
    pub fn commit(mut self, base: &mut StableStore) {
        let n = self.staged.len() as u64;
        Metrics::bump(&base.metrics().shadow_commits, 1);
        Metrics::bump(&base.metrics().obj_writes, 1); // the root write
        Metrics::bump(&base.metrics().atomic_groups, 1);
        Metrics::bump(&base.metrics().atomic_group_objects, n);
        let staged = std::mem::take(&mut self.staged);
        for (x, obj) in staged {
            // Transfer into the official state without a counted write — the
            // bytes are already on disk in the shadow location.
            base.insert_unmetered(x, obj);
        }
    }

    /// Abandon the intention. A crash has the same effect implicitly: the
    /// `ShadowStore` is volatile state and is simply dropped.
    pub fn abort(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_is_atomic_and_counts_once() {
        let m = Metrics::new();
        let mut base = StableStore::new(m.clone());
        base.write(ObjectId(1), Value::from("old1"), Lsn(1));
        let before = m.snapshot();

        let mut sh = ShadowStore::new();
        sh.stage(&base, ObjectId(1), Value::from("new1"), Lsn(10));
        sh.stage(&base, ObjectId(2), Value::from("new2"), Lsn(11));
        // Not yet visible.
        assert_eq!(base.peek(ObjectId(1)).unwrap().value, Value::from("old1"));

        sh.commit(&mut base);
        assert_eq!(base.peek(ObjectId(1)).unwrap().value, Value::from("new1"));
        assert_eq!(base.peek(ObjectId(2)).unwrap().value, Value::from("new2"));

        let d = m.snapshot().since(&before);
        // 2 staged writes + 1 root write; one atomic group of 2 objects.
        assert_eq!(d.obj_writes, 3);
        assert_eq!(d.shadow_commits, 1);
        assert_eq!(d.atomic_groups, 1);
        assert_eq!(d.atomic_group_objects, 2);
    }

    #[test]
    fn drop_without_commit_changes_nothing() {
        let m = Metrics::new();
        let mut base = StableStore::new(m.clone());
        base.write(ObjectId(1), Value::from("old"), Lsn(1));
        {
            let mut sh = ShadowStore::new();
            sh.stage(&base, ObjectId(1), Value::from("new"), Lsn(2));
            // crash: sh dropped
        }
        assert_eq!(base.peek(ObjectId(1)).unwrap().value, Value::from("old"));
    }

    #[test]
    fn abort_changes_nothing() {
        let m = Metrics::new();
        let base = StableStore::new(m);
        let mut sh = ShadowStore::new();
        sh.stage(&base, ObjectId(5), Value::from("x"), Lsn(1));
        sh.abort();
        assert!(base.peek(ObjectId(5)).is_none());
    }
}
