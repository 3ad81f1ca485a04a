//! Small-scope exhaustive model check.
//!
//! Random testing can miss adversarial interleavings; this harness instead
//! enumerates **every** history of length ≤ 3 over a small operation-shape
//! grammar (2 objects + a scratch source), crossed with **every**
//! install-between-ops schedule and **every** crash point, and checks that
//! recovery matches the replay oracle every time. The small-scope
//! hypothesis does the rest: the machinery's interesting case analysis
//! (exposure, merges, inverse edges, identity writes) already triggers at
//! these sizes — as the Figure 5/7 examples show.

use llog::core::{recover, Engine, EngineConfig, FlushStrategy, GraphKind, RedoPolicy};
use llog::ops::{builtin, OpKind, Transform, TransformRegistry};
use llog::sim::verify_against_log;
use llog::types::{ObjectId, Value};

/// The shape grammar: X and Y are the interacting objects, S a seed source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// `Y ← f(X, Y)` — Figure 1's operation A (and symmetric variant).
    UpdateYFromX,
    UpdateXFromY,
    /// `X ← g(Y)` — Figure 1's operation B (and symmetric variant).
    BlindXFromY,
    BlindYFromX,
    /// `X ← v` physical.
    PhysicalX,
    /// Multi-write: `(X, Y) ← f(S, X)`.
    MultiWrite,
    /// Delete X.
    DeleteX,
}

const SHAPES: [Shape; 7] = [
    Shape::UpdateYFromX,
    Shape::UpdateXFromY,
    Shape::BlindXFromY,
    Shape::BlindYFromX,
    Shape::PhysicalX,
    Shape::MultiWrite,
    Shape::DeleteX,
];

const X: ObjectId = ObjectId(1);
const Y: ObjectId = ObjectId(2);
const S: ObjectId = ObjectId(3);

fn execute(e: &mut Engine, shape: Shape, salt: u64) -> Result<(), llog::types::LlogError> {
    let mix = |tag: &[u8], salt: u64| {
        let mut p = tag.to_vec();
        p.extend_from_slice(&salt.to_le_bytes());
        Transform::new(builtin::HASH_MIX, Value::from(p))
    };
    match shape {
        Shape::UpdateYFromX => e
            .execute(OpKind::Logical, vec![X, Y], vec![Y], mix(b"a", salt))
            .map(drop),
        Shape::UpdateXFromY => e
            .execute(OpKind::Logical, vec![Y, X], vec![X], mix(b"a2", salt))
            .map(drop),
        Shape::BlindXFromY => e
            .execute(OpKind::Logical, vec![Y], vec![X], mix(b"b", salt))
            .map(drop),
        Shape::BlindYFromX => e
            .execute(OpKind::Logical, vec![X], vec![Y], mix(b"b2", salt))
            .map(drop),
        Shape::PhysicalX => e
            .execute(
                OpKind::Physical,
                vec![],
                vec![X],
                Transform::new(
                    builtin::CONST,
                    builtin::encode_values(&[Value::from_slice(&salt.to_le_bytes())]),
                ),
            )
            .map(drop),
        Shape::MultiWrite => e
            .execute(OpKind::Logical, vec![S, X], vec![X, Y], mix(b"m", salt))
            .map(drop),
        Shape::DeleteX => e
            .execute(
                OpKind::Delete,
                vec![],
                vec![X],
                Transform::new(builtin::DELETE, Value::empty()),
            )
            .map(drop),
    }
}

/// Enumerate histories of exactly `len` shapes.
fn histories(len: usize) -> Vec<Vec<Shape>> {
    let mut out: Vec<Vec<Shape>> = vec![vec![]];
    for _ in 0..len {
        out = out
            .into_iter()
            .flat_map(|h| {
                SHAPES.iter().map(move |&s| {
                    let mut h2 = h.clone();
                    h2.push(s);
                    h2
                })
            })
            .collect();
    }
    out
}

fn run_case(
    history: &[Shape],
    install_mask: u32,
    crash_after: usize,
    policy: RedoPolicy,
    flush: FlushStrategy,
) -> Result<(), String> {
    let registry = TransformRegistry::with_builtins();
    let cfg = EngineConfig {
        graph: GraphKind::RW,
        flush,
        audit: false,
    };
    let mut e = Engine::new(cfg, registry.clone());
    // Seed the source object so logical reads have material.
    e.execute(
        OpKind::Physical,
        vec![],
        vec![S],
        Transform::new(
            builtin::CONST,
            builtin::encode_values(&[Value::from("seed")]),
        ),
    )
    .map_err(|e| e.to_string())?;

    for (i, &shape) in history.iter().take(crash_after).enumerate() {
        execute(&mut e, shape, i as u64).map_err(|e| e.to_string())?;
        if install_mask & (1 << i) != 0 {
            e.install_one().map_err(|e| e.to_string())?;
        }
    }
    e.wal_mut().force();
    let (store, wal) = e.crash();
    let (recovered, _) =
        recover(store, wal, registry.clone(), cfg, policy).map_err(|e| e.to_string())?;
    verify_against_log(&recovered, &registry).map_err(|e| e.to_string())?;
    Ok(())
}

fn sweep(len: usize, policy: RedoPolicy, flush: FlushStrategy) {
    let mut cases = 0u64;
    for history in histories(len) {
        for install_mask in 0..(1u32 << len) {
            for crash_after in 0..=len {
                cases += 1;
                run_case(&history, install_mask, crash_after, policy, flush).unwrap_or_else(
                    |err| {
                        panic!(
                            "FAILED {history:?} installs={install_mask:03b} \
                             crash_after={crash_after} {policy:?}/{flush:?}: {err}"
                        )
                    },
                );
            }
        }
    }
    assert!(cases > 0);
}

#[test]
fn exhaustive_len2_rsi_identity() {
    sweep(2, RedoPolicy::RsiExposed, FlushStrategy::IdentityWrites);
}

#[test]
fn exhaustive_len2_vsi_identity() {
    sweep(2, RedoPolicy::Vsi, FlushStrategy::IdentityWrites);
}

#[test]
fn exhaustive_len2_rsi_flushtxn() {
    sweep(2, RedoPolicy::RsiExposed, FlushStrategy::FlushTxn);
}

#[test]
fn exhaustive_len3_rsi_identity() {
    // 7^3 histories × 8 install masks × 4 crash points = 10 976 runs.
    sweep(3, RedoPolicy::RsiExposed, FlushStrategy::IdentityWrites);
}

#[test]
fn exhaustive_len3_vsi_shadow() {
    sweep(3, RedoPolicy::Vsi, FlushStrategy::Shadow);
}
