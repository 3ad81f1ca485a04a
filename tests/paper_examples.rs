//! The paper's worked examples, end to end through the full engine:
//! Figure 1 (logical vs physiological cost), Figure 5 (a more precise flush
//! order), Figure 7 (unexposed objects shrink flush sets), and the §4 cycle
//! example.

use llog::core::{recover, Engine, EngineConfig, FlushStrategy, GraphKind, RedoPolicy};
use llog::ops::{builtin, OpKind, Transform, TransformRegistry};
use llog::types::{ObjectId, Value};

const X: ObjectId = ObjectId(1);
const Y: ObjectId = ObjectId(2);
const B: ObjectId = ObjectId(3);

fn engine() -> Engine {
    Engine::new(
        EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: true,
        },
        TransformRegistry::with_builtins(),
    )
}

fn logical(e: &mut Engine, reads: &[ObjectId], writes: &[ObjectId], salt: &[u8]) {
    e.execute(
        OpKind::Logical,
        reads.to_vec(),
        writes.to_vec(),
        Transform::new(builtin::HASH_MIX, Value::from_slice(salt)),
    )
    .unwrap();
}

fn physical(e: &mut Engine, x: ObjectId, v: &str) {
    e.execute(
        OpKind::Physical,
        vec![],
        vec![x],
        Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
    )
    .unwrap();
}

/// Figure 1(a): after A (`Y ← f(X,Y)`) and B (`X ← g(Y)`), a flush-order
/// dependency exists: A's result Y must be flushed before any subsequent
/// change to X is flushed — and the engine enforces it.
#[test]
fn figure1_flush_order_dependency() {
    let mut e = engine();
    physical(&mut e, X, "x0");
    physical(&mut e, Y, "y0");
    e.install_all().unwrap();

    logical(&mut e, &[X, Y], &[Y], b"A");
    logical(&mut e, &[Y], &[X], b"B");

    // One install: Y (A's node) is stable, X is not.
    assert!(e.install_one().unwrap());
    assert_ne!(e.store().peek(Y).unwrap().value, Value::from("y0"));
    assert_eq!(e.store().peek(X).unwrap().value, Value::from("x0"));
    e.audit_all().unwrap();

    // The second install flushes B's X.
    assert!(e.install_one().unwrap());
    assert_ne!(e.store().peek(X).unwrap().value, Value::from("x0"));
    e.audit_all().unwrap();
}

/// §1's motivating disaster, demonstrated: if an updated X were flushed
/// first, A could not be replayed after a crash. We simulate the violation
/// by writing B's X directly to the store and prove the resulting recovery
/// diverges from the truth — the flush discipline is not optional.
#[test]
fn figure1_violating_flush_order_breaks_recovery() {
    let mut e = engine();
    physical(&mut e, X, "x0");
    physical(&mut e, Y, "y0");
    e.install_all().unwrap();
    logical(&mut e, &[X, Y], &[Y], b"A");
    logical(&mut e, &[Y], &[X], b"B");
    e.wal_mut().force();
    let want_y = e.peek_value(Y);

    // Violate: flush B's X bypassing the write graph; lose the cache.
    let x_new = e.peek_value(X);
    let (mut store, wal) = e.crash();
    store.write(X, x_new, llog::types::Lsn(u64::MAX - 1));

    let (recovered, _) = recover(
        store,
        wal,
        TransformRegistry::with_builtins(),
        EngineConfig::default(),
        RedoPolicy::Vsi,
    )
    .unwrap();
    // A was redone against the *new* X: Y is corrupt.
    assert_ne!(recovered.peek_value(Y), want_y, "corruption must manifest");
}

/// Figure 5/7: a subsequent blind write makes X unexposed; rW flushes Y
/// alone to install A, and recovery recovers X by replaying the blind
/// writer, never needing A's X value.
#[test]
fn figure7_full_cycle_with_recovery() {
    let mut e = engine();
    logical(&mut e, &[ObjectId(9)], &[X, Y], b"A"); // A writes X and Y
    logical(&mut e, &[X], &[B], b"Bop"); // B reads X
    physical(&mut e, X, "c-blind"); // C

    // Install everything one node at a time; no atomic multi-object flush
    // may occur.
    e.install_all().unwrap();
    assert_eq!(e.metrics().snapshot().atomic_groups, 0);
    e.audit_all().unwrap();

    // Now crash & recover; state must match.
    let want = (e.peek_value(X), e.peek_value(Y), e.peek_value(B));
    e.wal_mut().force();
    let (store, wal) = e.crash();
    let (recovered, _) = recover(
        store,
        wal,
        TransformRegistry::with_builtins(),
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    assert_eq!(
        (
            recovered.peek_value(X),
            recovered.peek_value(Y),
            recovered.peek_value(B)
        ),
        want
    );
}

/// §4's cycle example: (a) Y ← f(X,Y); (b) X ← g(Y); (c) Y ← h(Y) forms a
/// flush cycle. Identity writes break it: installation completes with no
/// atomic multi-object flush and no quiesce.
#[test]
fn section4_cycle_broken_by_identity_writes() {
    let mut e = engine();
    physical(&mut e, X, "x0");
    physical(&mut e, Y, "y0");
    e.install_all().unwrap();
    e.metrics().reset();

    logical(&mut e, &[X, Y], &[Y], b"a");
    logical(&mut e, &[Y], &[X], b"b");
    logical(&mut e, &[Y], &[Y], b"c");
    e.install_all().unwrap();

    let m = e.metrics().snapshot();
    assert_eq!(m.atomic_groups, 0, "no atomic flush");
    assert_eq!(m.quiesces, 0, "no quiesce");
    assert!(m.identity_writes >= 1, "the cycle required identity writes");
    e.audit_all().unwrap();
    assert!(e.dirty_table().is_empty());
}

/// The same cycle under the W graph + flush transactions: the atomic group
/// is unavoidable there (the §4 comparison).
#[test]
fn section4_cycle_costs_atomic_flush_under_w() {
    let mut e = Engine::new(
        EngineConfig {
            graph: GraphKind::W,
            flush: FlushStrategy::FlushTxn,
            audit: true,
        },
        TransformRegistry::with_builtins(),
    );
    physical(&mut e, X, "x0");
    physical(&mut e, Y, "y0");
    e.install_all().unwrap();
    e.metrics().reset();

    logical(&mut e, &[X, Y], &[Y], b"a");
    logical(&mut e, &[Y], &[X], b"b");
    logical(&mut e, &[Y], &[Y], b"c");
    e.install_all().unwrap();

    let m = e.metrics().snapshot();
    assert_eq!(m.atomic_groups, 1);
    assert_eq!(m.quiesces, 1);
}

/// Figure 1's cost comparison at the log level, end to end.
#[test]
fn figure1_logging_cost_shape() {
    let rows = llog_bench_check();
    assert!(
        rows > 100.0,
        "logical logging must win by orders of magnitude"
    );
}

fn llog_bench_check() -> f64 {
    // 64 KiB objects: measure both encodings through real engines.
    let size = 64 * 1024;
    let mut logical = engine();
    physical(&mut logical, X, &"x".repeat(size));
    physical(&mut logical, Y, &"y".repeat(size));
    logical.install_all().unwrap();
    logical.metrics().reset();
    {
        let e = &mut logical;
        e.execute(
            OpKind::Logical,
            vec![X, Y],
            vec![Y],
            Transform::new(builtin::HASH_MIX, Value::from_slice(b"A")),
        )
        .unwrap();
    }
    let logical_bytes = logical.metrics().snapshot().log_bytes;

    let mut physio = engine();
    physical(&mut physio, X, &"x".repeat(size));
    physical(&mut physio, Y, &"y".repeat(size));
    physio.install_all().unwrap();
    physio.metrics().reset();
    let xval = physio.read_value(X);
    let mut params = b"A".to_vec();
    params.extend_from_slice(xval.as_bytes());
    physio
        .execute(
            OpKind::Physiological,
            vec![Y],
            vec![Y],
            Transform::new(builtin::HASH_MIX, Value::from(params)),
        )
        .unwrap();
    let physio_bytes = physio.metrics().snapshot().log_bytes;
    physio_bytes as f64 / logical_bytes as f64
}
