//! Multi-version value chains for lock-free snapshot reads.
//!
//! The paper's exposed/unexposed machinery already defines *which* state a
//! reader may observe: an object's `vSI` names the log position of its last
//! installed update, and any SI at or below the durable watermark is stable.
//! This module keeps that visibility rule but retains *several* versions per
//! object so readers can resolve a value at any SI between the GC floor and
//! the present without touching the engine mutex.
//!
//! Concurrency protocol (see DESIGN §15):
//!
//! - Writers [`publish`](VersionStore::publish) immutable `(si, value)`
//!   pairs under the chains write lock; chains stay sorted by SI.
//! - Momentary readers use [`read_coherent`](VersionStore::read_coherent),
//!   which samples the read SI *under* the chains read lock. Sampling first
//!   and locking second would race GC: a floor advanced past a stale SI may
//!   have pruned exactly the version that SI needed.
//! - [`gc`](VersionStore::gc) prunes, for every chain, all versions strictly
//!   older than the newest one visible at the floor — that survivor is what
//!   a reader at the floor still resolves, so nothing visible is reclaimed
//!   as long as the caller never passes a floor above the oldest live
//!   snapshot SI.
//!
//! A missing chain — like a missing stable-store object — reads as the empty
//! value at `Lsn::ZERO`: reads stay total functions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use llog_types::{Lsn, ObjectId, Value};

use crate::metrics::Metrics;

/// One immutable published version of an object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// The SI (log position) of the update that produced this version.
    pub si: Lsn,
    /// The value as of that SI.
    pub value: Value,
    /// True when the update deleted the object; readers at or above `si`
    /// resolve the empty value.
    pub tombstone: bool,
}

/// A multi-version store: per-object chains of immutable versions, readable
/// at any SI at or above the GC floor without any engine-level lock.
#[derive(Debug)]
pub struct VersionStore {
    chains: RwLock<BTreeMap<ObjectId, Vec<Version>>>,
    /// The floor passed to the most recent [`gc`](Self::gc) call. Publishes
    /// prune their own chain against it so retention stays bounded even
    /// between GC passes.
    floor: AtomicU64,
    /// Live version count, mirrored into the `versions_retained` gauge.
    retained: AtomicU64,
    metrics: Arc<Metrics>,
}

impl VersionStore {
    /// Create an empty store that reports into `metrics`.
    pub fn new(metrics: Arc<Metrics>) -> Arc<VersionStore> {
        Arc::new(VersionStore {
            chains: RwLock::new(BTreeMap::new()),
            floor: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            metrics,
        })
    }

    /// Seed an empty store with one version per object from `image` in
    /// ascending id order (a stable store's iteration order) — the bulk
    /// form of one [`publish`](Self::publish) per object: one lock take,
    /// the map built from the sorted run, the retained gauge set once.
    pub fn seed(&self, image: impl IntoIterator<Item = (ObjectId, Version)>) {
        let mut chains = self.chains.write().unwrap();
        debug_assert!(chains.is_empty(), "seed fills an empty version store");
        *chains = image.into_iter().map(|(x, v)| (x, vec![v])).collect();
        let seeded = chains.len() as i64;
        drop(chains);
        self.note_retained(seeded);
    }

    /// Publish the version of `x` produced by the update at `si`.
    ///
    /// SIs must arrive non-decreasing per object (log order guarantees this
    /// during normal execution, replay and recovery). Re-publishing the same
    /// SI — e.g. seeding from a store image and then from a clean cache
    /// entry — replaces in place rather than growing the chain.
    pub fn publish(&self, x: ObjectId, si: Lsn, value: Value, tombstone: bool) {
        let mut chains = self.chains.write().unwrap();
        let chain = chains.entry(x).or_default();
        debug_assert!(chain.last().map(|v| v.si <= si).unwrap_or(true));
        let mut delta: i64 = 0;
        match chain.last_mut() {
            Some(last) if last.si == si => {
                last.value = value;
                last.tombstone = tombstone;
            }
            _ => {
                chain.push(Version {
                    si,
                    value,
                    tombstone,
                });
                delta += 1;
            }
        }
        // Amortized retention bound: each publish re-prunes its own chain
        // against the last GC floor, so a hot object never accumulates more
        // history than one GC interval's worth.
        delta -= prune_chain(chain, Lsn(self.floor.load(Ordering::Relaxed))) as i64;
        drop(chains);
        self.note_retained(delta);
    }

    /// Resolve `x` at snapshot cut `si`: the newest version *visible* at
    /// `si`.
    ///
    /// A version's SI is the start offset of the record that produced it,
    /// while a cut is a frame-aligned end offset — so visibility is strict:
    /// a version published *at* the cut is not yet inside it. The one
    /// exception is `Lsn::ZERO`, which marks pre-log initial state and is
    /// visible at every cut.
    ///
    /// Returns `(value, version_si)`; a missing object or a tombstone is the
    /// empty value (at `Lsn::ZERO` for missing). The caller must guarantee
    /// `si` is at or above the GC floor — snapshot handles do this by
    /// registering before GC can advance past them.
    pub fn read_at(&self, x: ObjectId, si: Lsn) -> (Value, Lsn) {
        let chains = self.chains.read().unwrap();
        Metrics::bump(&self.metrics.reads_snapshot, 1);
        resolve(chains.get(&x), si)
    }

    /// Resolve `x` at an SI sampled *under* the chains read lock.
    ///
    /// This is the momentary-read entry point: `si_fn` typically loads the
    /// shard's durable watermark. Sampling inside the lock closes the race
    /// with GC — any floor a concurrent GC installed before we locked is
    /// derived from an older durable value, so the sampled SI is always at
    /// or above it.
    pub fn read_coherent(&self, x: ObjectId, si_fn: impl FnOnce() -> Lsn) -> (Value, Lsn) {
        let chains = self.chains.read().unwrap();
        let si = si_fn();
        Metrics::bump(&self.metrics.reads_snapshot, 1);
        resolve(chains.get(&x), si)
    }

    /// Reclaim versions no snapshot at or above `floor` can observe.
    ///
    /// For each chain, every version strictly older than the newest one
    /// visible at `floor` is dropped; a chain whose sole survivor is a
    /// tombstone visible at `floor` is dropped entirely (a missing chain
    /// already reads as empty). Returns the number of versions reclaimed.
    pub fn gc(&self, floor: Lsn) -> u64 {
        let mut chains = self.chains.write().unwrap();
        // Floors only advance: a caller racing a newer GC must not undo its
        // pruning bound.
        let prev = self.floor.load(Ordering::Relaxed);
        let floor = Lsn(prev.max(floor.0));
        self.floor.store(floor.0, Ordering::Relaxed);
        let mut reclaimed = 0u64;
        chains.retain(|_, chain| {
            reclaimed += prune_chain(chain, floor);
            if chain.len() == 1 && chain[0].tombstone && visible(chain[0].si, floor) {
                reclaimed += 1;
                false
            } else {
                !chain.is_empty()
            }
        });
        drop(chains);
        Metrics::bump(&self.metrics.versions_gced, reclaimed);
        Metrics::set_gauge(&self.metrics.snapshot_oldest_si, floor.0);
        self.note_retained(-(reclaimed as i64));
        reclaimed
    }

    /// The floor installed by the most recent GC pass.
    pub fn floor(&self) -> Lsn {
        Lsn(self.floor.load(Ordering::Relaxed))
    }

    /// Total versions currently retained across all chains.
    pub fn retained(&self) -> u64 {
        self.retained.load(Ordering::Relaxed)
    }

    /// The number of retained versions of `x` (test/observability hook).
    pub fn chain_len(&self, x: ObjectId) -> usize {
        self.chains
            .read()
            .unwrap()
            .get(&x)
            .map(Vec::len)
            .unwrap_or(0)
    }

    fn note_retained(&self, delta: i64) {
        let now = if delta >= 0 {
            self.retained.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64
        } else {
            let d = (-delta) as u64;
            self.retained.fetch_sub(d, Ordering::Relaxed) - d
        };
        Metrics::set_gauge(&self.metrics.versions_retained, now);
    }
}

/// Is the version published at `v_si` inside the cut `at`? Strict, because
/// `v_si` is a record start and `at` a frame-aligned end — except
/// `Lsn::ZERO`, pre-log initial state, which every cut contains.
fn visible(v_si: Lsn, at: Lsn) -> bool {
    v_si == Lsn::ZERO || v_si < at
}

/// Drop every version strictly older than the newest one visible at
/// `floor`; returns how many were dropped. Versions at or above the floor
/// are untouched.
fn prune_chain(chain: &mut Vec<Version>, floor: Lsn) -> u64 {
    let keep_from = match chain.iter().rposition(|v| visible(v.si, floor)) {
        Some(i) => i,
        None => return 0,
    };
    chain.drain(..keep_from).len() as u64
}

fn resolve(chain: Option<&Vec<Version>>, si: Lsn) -> (Value, Lsn) {
    match chain.and_then(|c| c.iter().rev().find(|v| visible(v.si, si))) {
        Some(v) if !v.tombstone => (v.value.clone(), v.si),
        Some(v) => (Value::empty(), v.si),
        None => (Value::empty(), Lsn::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(n: u64) -> Value {
        Value::from_slice(&n.to_le_bytes())
    }

    #[test]
    fn reads_resolve_newest_visible_version() {
        let m = Metrics::new();
        let vs = VersionStore::new(m.clone());
        let x = ObjectId(1);
        vs.publish(x, Lsn(5), val(50), false);
        vs.publish(x, Lsn(8), val(80), false);
        vs.publish(x, Lsn(10), val(100), false);
        // Visibility is strict: a version published *at* the cut is not
        // inside it yet.
        assert_eq!(vs.read_at(x, Lsn(5)), (Value::empty(), Lsn::ZERO));
        assert_eq!(vs.read_at(x, Lsn(6)), (val(50), Lsn(5)));
        assert_eq!(vs.read_at(x, Lsn(9)), (val(80), Lsn(8)));
        assert_eq!(vs.read_at(x, Lsn(99)), (val(100), Lsn(10)));
        // Missing objects read as empty at the beginning of time.
        assert_eq!(
            vs.read_at(ObjectId(9), Lsn(99)),
            (Value::empty(), Lsn::ZERO)
        );
        assert_eq!(m.snapshot().reads_snapshot, 5);
    }

    #[test]
    fn prelog_initial_state_is_always_visible() {
        let vs = VersionStore::new(Metrics::new());
        let x = ObjectId(1);
        vs.publish(x, Lsn::ZERO, val(7), false); // seeded, never updated
        assert_eq!(vs.read_at(x, Lsn::ZERO), (val(7), Lsn::ZERO));
        assert_eq!(vs.read_at(x, Lsn(3)), (val(7), Lsn::ZERO));
    }

    #[test]
    fn tombstones_read_empty() {
        let vs = VersionStore::new(Metrics::new());
        let x = ObjectId(2);
        vs.publish(x, Lsn(3), val(30), false);
        vs.publish(x, Lsn(7), Value::empty(), true);
        assert_eq!(vs.read_at(x, Lsn(5)), (val(30), Lsn(3)));
        assert_eq!(vs.read_at(x, Lsn(8)).0, Value::empty());
    }

    #[test]
    fn gc_keeps_the_floor_survivor() {
        let m = Metrics::new();
        let vs = VersionStore::new(m.clone());
        let x = ObjectId(1);
        for si in [5u64, 8, 10] {
            vs.publish(x, Lsn(si), val(si * 10), false);
        }
        assert_eq!(vs.retained(), 3);
        // Floor 9: the version at 8 is what a reader at 9 resolves — it must
        // survive; only the one at 5 goes.
        assert_eq!(vs.gc(Lsn(9)), 1);
        assert_eq!(vs.retained(), 2);
        assert_eq!(vs.read_at(x, Lsn(9)), (val(80), Lsn(8)));
        assert_eq!(vs.read_at(x, Lsn(11)), (val(100), Lsn(10)));
        let s = m.snapshot();
        assert_eq!(s.versions_gced, 1);
        assert_eq!(s.versions_retained, 2);
        assert_eq!(s.snapshot_oldest_si, 9);
    }

    #[test]
    fn gc_floor_never_regresses() {
        let vs = VersionStore::new(Metrics::new());
        let x = ObjectId(1);
        vs.publish(x, Lsn(5), val(50), false);
        vs.publish(x, Lsn(8), val(80), false);
        vs.gc(Lsn(8));
        assert_eq!(vs.floor(), Lsn(8));
        vs.gc(Lsn(3)); // stale caller: floor holds
        assert_eq!(vs.floor(), Lsn(8));
        assert_eq!(vs.read_at(x, Lsn(9)), (val(80), Lsn(8)));
    }

    #[test]
    fn publish_prunes_against_the_last_floor() {
        let vs = VersionStore::new(Metrics::new());
        let x = ObjectId(1);
        vs.publish(x, Lsn(5), val(50), false);
        vs.gc(Lsn(6));
        // New versions above the floor displace older ones down to the
        // floor survivor without another GC pass.
        vs.publish(x, Lsn(7), val(70), false);
        vs.publish(x, Lsn(9), val(90), false);
        assert_eq!(vs.chain_len(x), 3); // 5 survives floor 6; 7 and 9 above
        vs.gc(Lsn(8));
        assert_eq!(vs.chain_len(x), 2); // 7 survives floor 8
        vs.publish(x, Lsn(11), val(110), false);
        assert_eq!(vs.chain_len(x), 3);
    }

    #[test]
    fn gc_drops_dead_tombstone_chains() {
        let m = Metrics::new();
        let vs = VersionStore::new(m.clone());
        let x = ObjectId(4);
        vs.publish(x, Lsn(3), val(30), false);
        vs.publish(x, Lsn(6), Value::empty(), true);
        assert_eq!(vs.gc(Lsn(7)), 2); // value at 3 + the dead tombstone
        assert_eq!(vs.chain_len(x), 0);
        assert_eq!(vs.retained(), 0);
        // Still reads as empty: missing == deleted.
        assert_eq!(vs.read_at(x, Lsn(9)).0, Value::empty());
    }

    #[test]
    fn republishing_the_same_si_replaces_in_place() {
        let vs = VersionStore::new(Metrics::new());
        let x = ObjectId(1);
        vs.publish(x, Lsn(5), val(50), false);
        vs.publish(x, Lsn(5), val(51), false);
        assert_eq!(vs.chain_len(x), 1);
        assert_eq!(vs.read_at(x, Lsn(6)), (val(51), Lsn(5)));
    }

    #[test]
    fn bulk_seed_equals_the_publish_loop() {
        let version = |si: u64, v: u64, tombstone: bool| Version {
            si: Lsn(si),
            value: if tombstone { Value::empty() } else { val(v) },
            tombstone,
        };
        // A store image (ascending ids, installed vSIs, one at Lsn::ZERO)
        // and a cache overlay: a newer update, a re-publish at the stored
        // SI, a delete of a stored object and a fresh delete.
        let image: Vec<(ObjectId, Version)> = (1..=40u64)
            .map(|i| (ObjectId(i * 3), version(i % 7, i, false)))
            .collect();
        let overlay = [
            (ObjectId(3), version(50, 500, false)),
            (ObjectId(6), version(2, 600, false)),
            (ObjectId(9), version(60, 0, true)),
            (ObjectId(10), version(61, 0, true)),
            (ObjectId(12), version(62, 1200, false)),
        ];
        let (mb, ml) = (Metrics::new(), Metrics::new());
        let (bulk, looped) = (VersionStore::new(mb.clone()), VersionStore::new(ml.clone()));
        bulk.seed(image.iter().cloned());
        for (x, v) in &image {
            looped.publish(*x, v.si, v.value.clone(), v.tombstone);
        }
        for vs in [&bulk, &looped] {
            for (x, v) in &overlay {
                vs.publish(*x, v.si, v.value.clone(), v.tombstone);
            }
        }
        assert_eq!(*bulk.chains.read().unwrap(), *looped.chains.read().unwrap());
        assert_eq!(bulk.retained(), looped.retained());
        assert_eq!(
            bulk.retained(),
            40 + 4,
            "three new SIs on chains, one new chain"
        );
        assert_eq!(
            mb.snapshot().versions_retained,
            ml.snapshot().versions_retained
        );
        for x in (0..=125u64).map(ObjectId) {
            for si in [0u64, 1, 3, 7, 51, 61, 62, 63, 99] {
                assert_eq!(bulk.read_at(x, Lsn(si)), looped.read_at(x, Lsn(si)));
            }
        }
        // Both retire the same versions at the same floor.
        assert_eq!(bulk.gc(Lsn(63)), looped.gc(Lsn(63)));
        assert_eq!(*bulk.chains.read().unwrap(), *looped.chains.read().unwrap());
    }

    #[test]
    fn read_coherent_samples_under_the_lock() {
        let vs = VersionStore::new(Metrics::new());
        let x = ObjectId(1);
        vs.publish(x, Lsn(5), val(50), false);
        let (v, si) = vs.read_coherent(x, || Lsn(6));
        assert_eq!((v, si), (val(50), Lsn(5)));
    }
}
