//! Log shipping: warm standbys as recovery that never stops.
//!
//! The paper's logical redo engine replays a log prefix deterministically
//! — exactly the primitive replication needs. A [`Replica`] attaches to a
//! running primary over the framed TCP protocol, pulls each shard's
//! attach image (`SealManifest`) plus a stream of stable log chunks
//! (`SegmentChunk`), recovers each shard from its image and feeds it the
//! chunks: continuous single-pass redo with a **replayed-LSN watermark**
//! per shard. The shards form a standby
//! [`ShardedEngine`](llog_engine::ShardedEngine) served by the ordinary
//! [`Server`](crate::Server), read-only at the watermark cut. On primary
//! failure a `Promote` request seals each shard's log at its watermark and
//! reopens the engine for writes — the standby *is* the recovered
//! database. [`RedoSession`] runs the same replay over one engine.
//!
//! Watermark discipline (the recoverability rule the whole design hangs
//! on): a replica only exposes state at-or-below a durable, contiguously
//! replayed LSN cut. The primary never ships bytes past its durable cut,
//! and the replica never replays past the last complete, CRC-valid
//! frame; everything above the watermark is invisible until it becomes
//! both.
//!
//! The module also exports the primary↔replica **divergence oracle**
//! ([`visible_divergence`]) — the generalization of the mem↔file
//! differential oracle: two engines agree when every object's visible
//! value (cache over store) matches at the same LSN cut.

mod session;
mod standby;

pub use session::RedoSession;
pub(crate) use standby::promote;
pub use standby::{Replica, ReplicaCounters};

use std::collections::BTreeSet;

use llog_core::Engine;
use llog_types::ObjectId;

/// Every object an engine knows about: stable-store residents plus
/// dirty (cached, uninstalled) objects.
pub fn known_objects(e: &Engine) -> BTreeSet<ObjectId> {
    let mut objs: BTreeSet<ObjectId> = e.store().snapshot().into_keys().collect();
    objs.extend(e.dirty_table().keys().copied());
    objs
}

/// The primary↔replica divergence oracle: compare the *visible* state
/// (cache over store) of two engines over the union of objects either
/// knows. Returns `None` when they agree, or a description of the first
/// divergent object. Install/flush timing legitimately differs between a
/// primary and a replica, so raw store images are not compared — visible
/// values at the same LSN cut must match exactly.
pub fn visible_divergence(a: &Engine, b: &Engine) -> Option<String> {
    let mut objs = known_objects(a);
    objs.extend(known_objects(b));
    for x in objs {
        let va = a.peek_value(x);
        let vb = b.peek_value(x);
        if va != vb {
            return Some(format!(
                "object {x:?} diverges: {} byte(s) vs {} byte(s)",
                va.as_bytes().len(),
                vb.as_bytes().len()
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_core::EngineConfig;
    use llog_ops::{builtin, OpKind, Transform, TransformRegistry};
    use llog_types::Value;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default(), TransformRegistry::with_builtins())
    }

    fn put(e: &mut Engine, x: u64, v: &[u8]) {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![ObjectId(x)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from_slice(v)]),
            ),
        )
        .unwrap();
    }

    fn install_all(e: &mut Engine) {
        e.wal_mut().force();
        e.install_all().unwrap();
        assert!(e.dirty_table().is_empty());
    }

    /// Both argument orders name `obj:<x>`.
    fn assert_names(a: &Engine, b: &Engine, x: u64) {
        for d in [visible_divergence(a, b), visible_divergence(b, a)] {
            let d = d.expect("the engines differ");
            assert!(d.contains(&format!("obj:{x} ")), "{d}");
        }
    }

    #[test]
    fn divergence_oracle_agrees_on_the_same_ops_whatever_is_installed() {
        let (mut a, mut b) = (engine(), engine());
        for e in [&mut a, &mut b] {
            put(e, 1, b"one");
            put(e, 2, b"two");
            put(e, 1, b"one again");
        }
        // Install timing differs between a primary and its replica; only
        // visible values count.
        install_all(&mut a);
        assert!(!b.dirty_table().is_empty());
        assert_eq!(visible_divergence(&a, &b), None);
        assert_eq!(visible_divergence(&b, &a), None);
    }

    #[test]
    fn divergence_oracle_names_a_dirty_uninstalled_object() {
        let (mut a, mut b) = (engine(), engine());
        for e in [&mut a, &mut b] {
            put(e, 1, b"one");
            install_all(e);
        }
        // Object 3 exists only in `b`'s cache: never installed, so no
        // store image holds it.
        put(&mut b, 3, b"three");
        assert!(b.dirty_table().contains_key(&ObjectId(3)));
        assert!(!known_objects(&a).contains(&ObjectId(3)));
        assert_names(&a, &b, 3);
    }

    #[test]
    fn divergence_oracle_names_a_store_resident_object() {
        let (mut a, mut b) = (engine(), engine());
        for (e, v) in [(&mut a, b"left"), (&mut b, b"rite")] {
            put(e, 1, b"one");
            put(e, 2, v);
            install_all(e);
        }
        assert!(a.store().snapshot().contains_key(&ObjectId(2)));
        assert_names(&a, &b, 2);
    }
}
