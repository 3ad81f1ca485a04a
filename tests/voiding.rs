//! §5's "expanded REDO" trial execution: when installation records are lost
//! in the crash, the approximate rSI test can select an operation that is
//! actually installed (case 2 of §5). Its re-execution against inapplicable
//! state must be *voided* — detected and discarded — and recovery must
//! still converge to the correct state.

use std::sync::Arc;

use llog::core::{recover, Engine, EngineConfig, RedoPolicy};
use llog::ops::{builtin, OpKind, Transform, TransformFn, TransformRegistry};
use llog::types::{FnId, LlogError, ObjectId, Value};

const S: ObjectId = ObjectId(1);
const X: ObjectId = ObjectId(2);
const Y: ObjectId = ObjectId(3);
const T: ObjectId = ObjectId(4);

/// A transform that insists its input still looks like it did at original
/// execution time — the stand-in for an application that "raises an
/// exception when executing against inapplicable state" (§5 case 2c).
struct Picky;
const PICKY: FnId = FnId(200);

impl TransformFn for Picky {
    fn name(&self) -> &'static str {
        "picky"
    }
    fn apply(
        &self,
        _params: &[u8],
        inputs: &[Value],
        n_outputs: usize,
    ) -> Result<Vec<Value>, LlogError> {
        if inputs.first().map(Value::as_bytes) != Some(b"good") {
            return Err(LlogError::NotApplicable {
                op: llog::types::OpId(0),
                reason: "input is not the state this operation ran against".into(),
            });
        }
        Ok(vec![Value::from("picky-output"); n_outputs])
    }
}

fn registry() -> TransformRegistry {
    let mut r = TransformRegistry::with_builtins();
    r.register(PICKY, Arc::new(Picky));
    r
}

fn physical(e: &mut Engine, x: ObjectId, v: &str) -> llog::types::Lsn {
    e.execute(
        OpKind::Physical,
        vec![],
        vec![x],
        Transform::new(builtin::CONST, builtin::encode_values(&[Value::from(v)])),
    )
    .unwrap()
    .1
}

#[test]
fn lost_install_record_voids_trial_execution() {
    let reg = registry();
    let mut e = Engine::new(EngineConfig::default(), reg.clone());

    // S = "good", flushed and clean; its vSI, not a log record, shows it.
    physical(&mut e, S, "good");
    e.install_all().unwrap();

    // A (picky): reads S, writes {X, Y}.
    let (a_id, _) = e
        .execute(
            OpKind::Logical,
            vec![S],
            vec![X, Y],
            Transform::new(PICKY, Value::empty()),
        )
        .unwrap();
    // R: reads X (A's version), writes T — the reader that keeps A "live".
    e.execute(
        OpKind::Logical,
        vec![X],
        vec![T],
        Transform::new(builtin::HASH_MIX, Value::from_slice(b"R")),
    )
    .unwrap();
    // B, C: blind writes making X and Y unexposed.
    physical(&mut e, X, "b-value");
    physical(&mut e, Y, "c-value");
    // E: blind write advancing S past what A executed against.
    let (e_id, _) = {
        e.execute(
            OpKind::Physical,
            vec![],
            vec![S],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Value::from("changed")]),
            ),
        )
        .unwrap()
    };

    // Everything is on the stable log...
    e.wal_mut().force();

    // ...now install R (flushes T), then A (vars is empty: X and Y are
    // unexposed), then E (flushes S = "changed"). The install records stay
    // in the log buffer and die with the crash.
    assert!(e.install_one().unwrap()); // R's node (the only minimal one)
    let n_a = e.rw_graph().node_of_op(a_id).expect("A still live");
    e.install_rw_node(n_a).unwrap();
    let n_e = e.rw_graph().node_of_op(e_id).expect("E still live");
    e.install_rw_node(n_e).unwrap();

    let (store, wal) = e.crash(); // unforced install records are lost
    assert_eq!(store.peek(S).unwrap().value, Value::from("changed"));
    assert!(
        store.peek(X).is_none(),
        "X installed unexposed: never flushed"
    );

    let (mut rec, out) = recover(
        store,
        wal,
        reg,
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();

    // A's trial execution saw S = "changed" and was voided; everything else
    // recovered exactly.
    assert_eq!(out.voided, 1, "A must be voided: {out:?}");
    assert_eq!(rec.read_value(S), Value::from("changed"));
    assert_eq!(rec.read_value(X), Value::from("b-value"));
    assert_eq!(rec.read_value(Y), Value::from("c-value"));
    assert!(!rec.read_value(T).is_empty(), "R's output survives");
}

#[test]
fn forced_install_record_avoids_the_trial_entirely() {
    // Same history, but the install records reach the stable log: the rSI
    // test bypasses A without any trial execution.
    let reg = registry();
    let mut e = Engine::new(EngineConfig::default(), reg.clone());
    physical(&mut e, S, "good");
    e.install_all().unwrap();
    e.execute(
        OpKind::Logical,
        vec![S],
        vec![X, Y],
        Transform::new(PICKY, Value::empty()),
    )
    .unwrap();
    e.execute(
        OpKind::Logical,
        vec![X],
        vec![T],
        Transform::new(builtin::HASH_MIX, Value::from_slice(b"R")),
    )
    .unwrap();
    physical(&mut e, X, "b-value");
    physical(&mut e, Y, "c-value");
    physical(&mut e, S, "changed");
    e.install_all().unwrap();
    e.wal_mut().force(); // install records are stable this time

    let (store, wal) = e.crash();
    let (mut rec, out) = recover(
        store,
        wal,
        reg,
        EngineConfig::default(),
        RedoPolicy::RsiExposed,
    )
    .unwrap();
    assert_eq!(out.voided, 0);
    assert_eq!(out.redone, 0, "everything installed: {out:?}");
    assert_eq!(rec.read_value(S), Value::from("changed"));
    assert_eq!(rec.read_value(X), Value::from("b-value"));
}
