//! Edge cases and failure-path behavior across the stack.

use llog::core::{recover, Engine, EngineConfig, FlushStrategy, GraphKind, RedoPolicy};
use llog::ops::{builtin, OpKind, Transform, TransformRegistry};
use llog::types::{FnId, LlogError, Lsn, ObjectId, Value};

const X: ObjectId = ObjectId(1);

fn engine() -> Engine {
    Engine::new(EngineConfig::default(), TransformRegistry::with_builtins())
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

#[test]
fn failed_execute_leaves_no_trace() {
    let mut e = engine();
    physical(&mut e, X, "before");
    let records = e.metrics().snapshot().log_records;

    // Unknown transform: rejected before anything is logged.
    let err = e
        .execute(
            OpKind::Logical,
            vec![X],
            vec![X],
            Transform::new(FnId(9999), Value::empty()),
        )
        .unwrap_err();
    assert!(matches!(err, LlogError::UnknownTransform(_)));
    assert_eq!(
        e.metrics().snapshot().log_records,
        records,
        "nothing logged"
    );
    assert_eq!(e.read_value(X), Value::from("before"), "state unchanged");

    // Arity-violating CONST: also rejected pre-log.
    let err = e
        .execute(
            OpKind::Physical,
            vec![],
            vec![X, ObjectId(2)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from("one")]),
            ),
        )
        .unwrap_err();
    assert!(matches!(err, LlogError::Codec { .. }));
    assert_eq!(e.metrics().snapshot().log_records, records);

    // The engine still works afterwards.
    physical(&mut e, X, "after");
    e.install_all().unwrap();
    assert_eq!(e.store().peek(X).unwrap().value, Value::from("after"));
}

#[test]
fn recover_from_empty_log_is_a_noop() {
    let e = engine();
    let (store, wal) = e.crash();
    let (engine2, out) = recover(
        store,
        wal,
        TransformRegistry::with_builtins(),
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    assert_eq!(out.redone, 0);
    assert_eq!(out.analysis_scanned, 0);
    assert!(engine2.store().is_empty());
}

#[test]
fn back_to_back_recoveries_without_new_work() {
    let mut e = engine();
    physical(&mut e, X, "v");
    e.wal_mut().force();
    let (store, wal) = e.crash();
    let (e1, out1) = recover(
        store,
        wal,
        TransformRegistry::with_builtins(),
        EngineConfig::default(),
        RedoPolicy::Vsi,
    )
    .unwrap();
    let (store, wal) = e1.crash();
    let (mut e2, out2) = recover(
        store,
        wal,
        TransformRegistry::with_builtins(),
        EngineConfig::default(),
        RedoPolicy::Vsi,
    )
    .unwrap();
    assert_eq!(out1.redone, out2.redone, "idempotent work");
    assert_eq!(e2.read_value(X), Value::from("v"));
}

#[test]
fn reading_a_deleted_object_yields_empty() {
    let mut e = engine();
    physical(&mut e, X, "data");
    e.execute(
        OpKind::Delete,
        vec![],
        vec![X],
        Transform::new(builtin::DELETE, Value::empty()),
    )
    .unwrap();
    assert!(e.read_value(X).is_empty());
    e.install_all().unwrap();
    assert!(e.read_value(X).is_empty());
    assert!(e.store().peek(X).is_none());
    // Re-creating it works.
    physical(&mut e, X, "reborn");
    e.install_all().unwrap();
    assert_eq!(e.store().peek(X).unwrap().value, Value::from("reborn"));
}

#[test]
fn install_rw_node_rejects_bad_nodes() {
    let mut e = engine();
    // A: reads X writes Y; B: writes X (blind) — B's node follows A's.
    e.execute(
        OpKind::Logical,
        vec![X],
        vec![ObjectId(2)],
        Transform::new(builtin::HASH_MIX, Value::from("A")),
    )
    .unwrap();
    let (b_id, _) = e
        .execute(
            OpKind::Physical,
            vec![],
            vec![X],
            Transform::new(builtin::CONST, builtin::encode_values(&[Value::from("b")])),
        )
        .unwrap();
    let b_node = e.rw_graph().node_of_op(b_id).unwrap();
    let err = e.install_rw_node(b_node).unwrap_err();
    assert!(matches!(err, LlogError::CacheProtocol(_)));
    // Unknown node id.
    let err = e.install_rw_node(llog::core::NodeId(u64::MAX)).unwrap_err();
    assert!(matches!(err, LlogError::CacheProtocol(_)));
}

#[test]
fn writeset_mismatch_is_voided_during_recovery() {
    // Craft a log whose record's writeset disagrees with what the transform
    // produces: §5 case 2b ("attempts to update more than the original
    // writeset ... we can detect this and terminate").
    use llog::ops::Operation;
    use llog::storage::{Metrics, StableStore};
    use llog::wal::{LogRecord, Wal};

    let metrics = Metrics::new();
    let store = StableStore::new(metrics.clone());
    let mut wal = Wal::new(metrics);
    // CONST carries one value but the writeset claims two objects.
    let op = Operation::new(
        llog::types::OpId(0),
        OpKind::Physical,
        vec![],
        vec![X, ObjectId(2)],
        Transform::new(builtin::CONST, builtin::encode_values(&[Value::from("v")])),
    );
    wal.append(&LogRecord::Op(op));
    wal.force();

    let (engine2, out) = recover(
        store,
        wal,
        TransformRegistry::with_builtins(),
        EngineConfig::default(),
        RedoPolicy::Vsi,
    )
    .unwrap();
    assert_eq!(out.voided, 1);
    assert_eq!(out.redone, 0);
    assert!(
        engine2.peek_value(X).is_empty(),
        "voided op changed nothing"
    );
}

#[test]
fn w_mode_with_identity_strategy_errors_on_multi_sets() {
    // IdentityWrites is an rW concept; in W the multi-object set cannot be
    // broken (the identity write would rejoin it), so installation reports
    // the missing atomicity rather than looping.
    let mut e = Engine::new(
        EngineConfig {
            graph: GraphKind::W,
            flush: FlushStrategy::IdentityWrites,
            audit: false,
        },
        TransformRegistry::with_builtins(),
    );
    e.execute(
        OpKind::Logical,
        vec![ObjectId(9)],
        vec![X, ObjectId(2)],
        Transform::new(builtin::HASH_MIX, Value::from("multi")),
    )
    .unwrap();
    assert!(matches!(
        e.install_all(),
        Err(LlogError::AtomicityUnavailable { objects: 2 })
    ));
}

#[test]
fn checkpoint_on_empty_engine_is_fine() {
    let mut e = engine();
    let lsn = e.checkpoint(true).unwrap();
    assert!(lsn >= Lsn(1));
    assert_eq!(e.wal().master_checkpoint(), Some(lsn));
    // And recovery off that checkpoint works.
    let (store, wal) = e.crash();
    let (_, out) = recover(
        store,
        wal,
        TransformRegistry::with_builtins(),
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    assert_eq!(out.redone, 0);
}

#[test]
fn duplicate_physiological_updates_accumulate() {
    let mut e = engine();
    for _ in 0..5 {
        e.execute(
            OpKind::Physiological,
            vec![X],
            vec![X],
            Transform::new(builtin::APPEND, Value::from("x")),
        )
        .unwrap();
    }
    assert_eq!(e.read_value(X), Value::from("xxxxx"));
    // One dirty object, one rW node, five ops — install once.
    assert_eq!(e.dirty_count(), 1);
    assert_eq!(e.rw_graph().len(), 1);
    e.install_all().unwrap();
    assert_eq!(e.store().peek(X).unwrap().value, Value::from("xxxxx"));
}

#[test]
fn metrics_total_ios_accounts_reads_writes_forces() {
    let mut e = engine();
    physical(&mut e, X, "v");
    e.install_all().unwrap();
    let _ = e.read_value(ObjectId(99)); // miss: one store read
    let m = e.metrics().snapshot();
    assert_eq!(m.total_ios(), m.obj_reads + m.obj_writes + m.log_forces);
    assert!(m.total_ios() >= 3);
}
