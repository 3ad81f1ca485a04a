//! Snapshot handles over MVCC version chains (DESIGN §15).
//!
//! **Visibility rule.** A snapshot is an SI `s` at or below the owning
//! shard's durable watermark. Reading object `x` at `s` resolves the newest
//! published version *visible* at `s` — strict (`si < s`, a version's SI is
//! its record's start offset and `s` a frame-aligned end offset; `Lsn::ZERO`
//! pre-log state is always visible) — exactly the state a crash at log
//! position `s` would recover, so a snapshot can never observe unexposed
//! (unacked, possibly-torn) state. A missing chain reads as the empty value,
//! matching the stable store's total-function convention.
//!
//! **GC watermark protocol.** The version GC may reclaim everything below
//! `floor = min(oldest registered snapshot SI, durable)`. Two lock-order
//! rules make this race-free against concurrent opens and momentary reads:
//!
//! 1. [`SnapshotRegistry::open`] samples the snapshot SI *while holding the
//!    registry lock*, and [`SnapshotRegistry::floor_with`] samples the
//!    stable SI *while holding the registry lock*. Since the durable
//!    watermark only advances, any open that misses a GC's registry scan
//!    necessarily samples an SI at or above the floor that GC computed.
//! 2. Momentary (handle-free) readers sample their SI under the version
//!    store's chains read lock ([`VersionStore::read_coherent`]), which a
//!    running GC pass excludes — so the sampled SI is always at or above
//!    the last installed floor.
//!
//! Together: GC never reclaims a version some live or future reader can
//! still resolve.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use llog_storage::VersionStore;
use llog_types::{Lsn, ObjectId, Value};

/// The set of open snapshot SIs for one shard, reference-counted so several
/// handles may share an SI.
#[derive(Debug, Default)]
pub struct SnapshotRegistry {
    open: Mutex<BTreeMap<u64, usize>>,
}

impl SnapshotRegistry {
    /// Create an empty registry.
    pub fn new() -> Arc<SnapshotRegistry> {
        Arc::new(SnapshotRegistry::default())
    }

    /// Open a snapshot over `versions` at the SI `si_fn` returns.
    ///
    /// `si_fn` (typically "load the shard's durable watermark") runs under
    /// the registry lock — see the module docs for why sampling outside it
    /// would let a concurrent GC advance past the new snapshot.
    pub fn open(
        self: &Arc<Self>,
        versions: Arc<VersionStore>,
        si_fn: impl FnOnce() -> Lsn,
    ) -> Snapshot {
        let mut open = self.open.lock().unwrap();
        let si = si_fn();
        *open.entry(si.0).or_insert(0) += 1;
        drop(open);
        Snapshot {
            si,
            versions,
            registry: self.clone(),
        }
    }

    /// The oldest SI any open snapshot holds, if any.
    pub fn oldest(&self) -> Option<Lsn> {
        self.open.lock().unwrap().keys().next().copied().map(Lsn)
    }

    /// The GC floor: `min(oldest open snapshot, stable)`, with the stable SI
    /// sampled by `stable_fn` under the registry lock.
    pub fn floor_with(&self, stable_fn: impl FnOnce() -> Lsn) -> Lsn {
        let open = self.open.lock().unwrap();
        let stable = stable_fn();
        match open.keys().next() {
            Some(&oldest) => Lsn(oldest.min(stable.0)),
            None => stable,
        }
    }

    fn release(&self, si: Lsn) {
        let mut open = self.open.lock().unwrap();
        if let Some(n) = open.get_mut(&si.0) {
            *n -= 1;
            if *n == 0 {
                open.remove(&si.0);
            }
        }
    }
}

/// A consistent read-only view of one shard at a fixed SI.
///
/// Holding the handle pins every version at or above the snapshot's
/// resolution set: GC cannot advance its floor past `si()` until the handle
/// drops. Reads take only the version store's chains read lock — never the
/// engine mutex — so they run concurrently with writers, the force barrier
/// and the installer.
#[derive(Debug)]
pub struct Snapshot {
    si: Lsn,
    versions: Arc<VersionStore>,
    registry: Arc<SnapshotRegistry>,
}

impl Snapshot {
    /// The SI this snapshot resolves reads at.
    pub fn si(&self) -> Lsn {
        self.si
    }

    /// Read `x` as of the snapshot SI.
    pub fn read(&self, x: ObjectId) -> Value {
        self.versions.read_at(x, self.si).0
    }

    /// Read `x` with the SI of the version that resolved it (the `vSI` a
    /// crash-recovery at the snapshot SI would reconstruct).
    pub fn read_versioned(&self, x: ObjectId) -> (Value, Lsn) {
        self.versions.read_at(x, self.si)
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.registry.release(self.si);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_storage::Metrics;

    fn val(n: u64) -> Value {
        Value::from_slice(&n.to_le_bytes())
    }

    #[test]
    fn snapshot_pins_the_gc_floor() {
        let vs = VersionStore::new(Metrics::new());
        let reg = SnapshotRegistry::new();
        let x = ObjectId(1);
        vs.publish(x, Lsn(4), val(40), false);
        vs.publish(x, Lsn(9), val(90), false);

        let snap = reg.open(vs.clone(), || Lsn(5));
        // Durable is at 10, but the open snapshot holds the floor at 5.
        let floor = reg.floor_with(|| Lsn(10));
        assert_eq!(floor, Lsn(5));
        vs.gc(floor);
        assert_eq!(snap.read(x), val(40));

        drop(snap);
        let floor = reg.floor_with(|| Lsn(10));
        assert_eq!(floor, Lsn(10));
        vs.gc(floor);
        // The version at 4 is now reclaimable; 9 survives as the floor
        // resolution.
        assert_eq!(vs.chain_len(x), 1);
    }

    #[test]
    fn shared_si_releases_by_refcount() {
        let vs = VersionStore::new(Metrics::new());
        let reg = SnapshotRegistry::new();
        let a = reg.open(vs.clone(), || Lsn(7));
        let b = reg.open(vs.clone(), || Lsn(7));
        assert_eq!(reg.oldest(), Some(Lsn(7)));
        drop(a);
        assert_eq!(reg.oldest(), Some(Lsn(7)));
        drop(b);
        assert_eq!(reg.oldest(), None);
    }

    #[test]
    fn reads_resolve_at_the_pinned_si() {
        let vs = VersionStore::new(Metrics::new());
        let reg = SnapshotRegistry::new();
        let x = ObjectId(3);
        vs.publish(x, Lsn(4), val(40), false);
        let snap = reg.open(vs.clone(), || Lsn(6));
        // Writers keep publishing past the snapshot; it does not move.
        vs.publish(x, Lsn(8), val(80), false);
        assert_eq!(snap.si(), Lsn(6));
        assert_eq!(snap.read(x), val(40));
        assert_eq!(snap.read_versioned(x), (val(40), Lsn(4)));
        // Unwritten objects read empty at the beginning of time.
        assert_eq!(
            snap.read_versioned(ObjectId(9)),
            (Value::empty(), Lsn::ZERO)
        );
    }
}
