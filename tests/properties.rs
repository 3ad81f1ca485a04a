//! Property-based tests over the recovery stack's invariants, on the
//! in-workspace `llog_testkit::prop` harness (seeded, shrinking,
//! reproducible via `LLOG_PROP_SEED`).

use llog::testkit::prop::*;

use llog::core::exposed::{expected_state, explains};
use llog::core::igraph::InstallGraph;
use llog::core::{EngineConfig, FlushStrategy, GraphKind, RWGraph, RedoPolicy, WriteGraph};
use llog::ops::{builtin, OpKind, Operation, Transform, TransformRegistry};
use llog::sim::{run_crash_recover_verify, CrashPoint, OpSpec, Workload, WorkloadKind};
use llog::types::{ObjectId, OpId, Value};
use llog::wal::LogRecord;
use std::collections::{BTreeMap, BTreeSet};

const N_OBJECTS: u64 = 6;

/// A compact generator for operation shapes over a small object universe.
#[derive(Debug, Clone)]
enum Shape {
    Logical { reads: Vec<u8>, write: u8 },
    MultiWrite { read: u8, writes: (u8, u8) },
    Physiological(u8),
    Physical(u8),
    Delete(u8),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let obj = 0..N_OBJECTS as u8;
    prop_oneof![
        (vec(0..N_OBJECTS as u8, 1..3), obj.clone())
            .prop_map(|(reads, write)| Shape::Logical { reads, write }),
        (obj.clone(), obj.clone(), obj.clone()).prop_map(|(read, a, b)| Shape::MultiWrite {
            read,
            writes: (a, b)
        }),
        obj.clone().prop_map(Shape::Physiological),
        obj.clone().prop_map(Shape::Physical),
        obj.prop_map(Shape::Delete),
    ]
}

fn to_operation(i: usize, s: &Shape) -> Operation {
    let id = OpId(i as u64);
    let salt = Value::from_slice(&(i as u64).to_le_bytes());
    match s {
        Shape::Logical { reads, write } => {
            let mut rs: Vec<ObjectId> = reads.iter().map(|&r| ObjectId(r as u64)).collect();
            rs.dedup();
            Operation::new(
                id,
                OpKind::Logical,
                rs,
                vec![ObjectId(*write as u64)],
                Transform::new(builtin::HASH_MIX, salt),
            )
        }
        Shape::MultiWrite { read, writes } => {
            let (a, b) = *writes;
            let mut ws = vec![ObjectId(a as u64)];
            if b != a {
                ws.push(ObjectId(b as u64));
            }
            Operation::new(
                id,
                OpKind::Logical,
                vec![ObjectId(*read as u64)],
                ws,
                Transform::new(builtin::HASH_MIX, salt),
            )
        }
        Shape::Physiological(x) => Operation::new(
            id,
            OpKind::Physiological,
            vec![ObjectId(*x as u64)],
            vec![ObjectId(*x as u64)],
            Transform::new(builtin::HASH_MIX, salt),
        ),
        Shape::Physical(x) => Operation::new(
            id,
            OpKind::Physical,
            vec![],
            vec![ObjectId(*x as u64)],
            Transform::new(builtin::CONST, builtin::encode_values(&[salt])),
        ),
        Shape::Delete(x) => Operation::new(
            id,
            OpKind::Delete,
            vec![],
            vec![ObjectId(*x as u64)],
            Transform::new(builtin::DELETE, Value::empty()),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rW stays internally consistent and acyclic under any insertion
    /// sequence, interleaved with installations of minimal nodes.
    #[test]
    fn rw_graph_consistent_under_any_sequence(
        shapes in vec(shape_strategy(), 1..40),
        install_mask in vec(any::<bool>(), 1..40),
    ) {
        let mut g = RWGraph::new();
        for (i, s) in shapes.iter().enumerate() {
            g.add_op(&to_operation(i, s));
            g.check_consistency();
            if *install_mask.get(i % install_mask.len()).unwrap_or(&false) {
                if let Some(&n) = g.minimal_nodes().first() {
                    g.remove_node(n);
                    g.check_consistency();
                }
            }
        }
        // Drain completely: minimal nodes must always exist while nonempty.
        while !g.is_empty() {
            let n = *g.minimal_nodes().first().expect("acyclic graph has a minimal node");
            g.remove_node(n);
            g.check_consistency();
        }
    }

    /// rW's flush sets are never worse than W's (same trace, no installs).
    #[test]
    fn rw_flush_sets_never_exceed_w(shapes in vec(shape_strategy(), 1..30)) {
        let ops: Vec<Operation> =
            shapes.iter().enumerate().map(|(i, s)| to_operation(i, s)).collect();
        let w = WriteGraph::build(&ops);
        let mut rw = RWGraph::new();
        for op in &ops {
            rw.add_op(op);
        }
        let w_max = w.flush_set_sizes().first().copied().unwrap_or(0);
        let rw_max = rw.flush_set_sizes().first().copied().unwrap_or(0);
        prop_assert!(rw_max <= w_max, "rW {rw_max} vs W {w_max}");
    }

    /// Crash anywhere in a random workload; recovery matches the oracle
    /// under both sound REDO policies and both graph kinds.
    #[test]
    fn crash_anywhere_recovers(
        seed in 0u64..1000,
        cut in 0usize..30,
        install_every in 1usize..6,
        policy_rsi in any::<bool>(),
    ) {
        let registry = TransformRegistry::with_builtins();
        let ops = Workload::new(N_OBJECTS, 30, WorkloadKind::app_mix(), seed).generate();
        let policy = if policy_rsi { RedoPolicy::RsiExposed } else { RedoPolicy::Vsi };
        let cfg = EngineConfig {
            graph: GraphKind::RW,
            flush: FlushStrategy::IdentityWrites,
            audit: false,
        };
        run_crash_recover_verify(
            cfg, &registry, &ops, install_every, CrashPoint::AfterOp(cut), policy,
        ).unwrap();
    }

    /// Torn tails of any length are cleanly truncated.
    #[test]
    fn torn_tail_anywhere_recovers(seed in 0u64..500, torn in 0usize..600) {
        let registry = TransformRegistry::with_builtins();
        let ops = Workload::new(N_OBJECTS, 15, WorkloadKind::app_mix(), seed).generate();
        run_crash_recover_verify(
            EngineConfig::default(),
            &registry,
            &ops,
            0,
            CrashPoint::TornTail(torn),
            RedoPolicy::RsiExposed,
        ).unwrap();
    }

    /// Log records round-trip through the codec for arbitrary operations.
    #[test]
    fn op_record_codec_roundtrips(shapes in vec(shape_strategy(), 1..10)) {
        for (i, s) in shapes.iter().enumerate() {
            let rec = LogRecord::Op(to_operation(i, s));
            let bytes = rec.encode();
            prop_assert_eq!(LogRecord::decode(&bytes).unwrap(), rec);
        }
    }

    /// Any truncation of an encoded record is rejected, never mis-decoded
    /// into a different valid record.
    #[test]
    fn truncated_records_never_decode(shape in shape_strategy(), cut_frac in 0.0f64..1.0) {
        let rec = LogRecord::Op(to_operation(0, &shape));
        let bytes = rec.encode();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(LogRecord::decode(&bytes[..cut]).is_err());
        }
    }

    /// Theorem 1, executable: starting from the initial state with I = ∅,
    /// repeatedly installing any minimal uninstalled operation (writing its
    /// true outputs to the state) keeps the state explainable by the grown
    /// prefix set — for every choice sequence the strategy generates.
    #[test]
    fn theorem1_minimal_installation_preserves_explainability(
        shapes in vec(shape_strategy(), 1..10),
        picks in vec(any::<u8>(), 1..16),
    ) {
        let registry = TransformRegistry::with_builtins();
        let h: Vec<Operation> =
            shapes.iter().enumerate().map(|(i, s)| to_operation(i, s)).collect();
        let g = InstallGraph::build(&h);
        let initial: BTreeMap<ObjectId, Value> = BTreeMap::new();

        let mut installed_idx: BTreeSet<usize> = BTreeSet::new();
        let mut state = initial.clone();
        let mut pick_at = 0usize;
        while installed_idx.len() < h.len() {
            let minimals = g.minimal_uninstalled(&installed_idx);
            prop_assert!(!minimals.is_empty(), "DAG must have a minimal op");
            let choice = picks[pick_at % picks.len()] as usize % minimals.len();
            pick_at += 1;
            let o = minimals[choice];
            installed_idx.insert(o);

            let installed_ids: BTreeSet<OpId> =
                installed_idx.iter().map(|&i| h[i].id).collect();
            // Install O: write its true outputs into the state.
            let want = expected_state(&h, &installed_ids, &initial, &registry).unwrap();
            for &x in &h[o].writes {
                state.insert(x, want.get(&x).cloned().unwrap_or_else(Value::empty));
            }
            prop_assert!(
                explains(&h, &installed_ids, &initial, &state, &registry).unwrap(),
                "state unexplainable after installing op {o}"
            );
        }
    }

    /// The replay oracle is deterministic: two replays of the same spec
    /// sequence agree (guards the transform registry's purity).
    #[test]
    fn replay_is_deterministic(seed in 0u64..1000) {
        use llog::ops::Replayer;
        let specs = Workload::new(N_OBJECTS, 25, WorkloadKind::app_mix(), seed).generate();
        let registry = TransformRegistry::with_builtins();
        let run = |specs: &[OpSpec]| {
            let mut r = Replayer::new();
            for (i, s) in specs.iter().enumerate() {
                let op = Operation::new(
                    OpId(i as u64), s.kind, s.reads.clone(), s.writes.clone(),
                    s.transform.clone(),
                );
                r.apply(&op, &registry).unwrap();
            }
            r.state().clone()
        };
        prop_assert_eq!(run(&specs), run(&specs));
    }

    /// DESIGN §15 differential: a snapshot pinned at SI `s` reads, for
    /// every object, byte-identical state to a *serial recovery* of that
    /// shard's log sealed at `s`. The MVCC visibility rule (`v_si < s`;
    /// `Lsn::ZERO` pre-log state always visible) must reconstruct exactly
    /// the crash-at-`s` state even while later writes keep publishing
    /// newer versions and the retention GC runs against the pinned floor.
    #[test]
    fn snapshot_read_equals_serial_recovery_at_its_si(
        seed in 0u64..1000,
        cut in 0usize..24,
        extra in 1usize..16,
        policy_rsi in any::<bool>(),
    ) {
        use llog::core::{recover, recover_two_pass};
        use llog::engine::{ShardedConfig, ShardedEngine};

        let registry = TransformRegistry::with_builtins();
        let shards = 1 + (seed as usize % 3);
        let config = ShardedConfig {
            shards,
            // Never backpressure, never install: the stable image stays
            // initial, so the sealed log alone is a complete oracle.
            max_uninstalled: 4096,
            install_high_water: 4096,
        };
        let engine = ShardedEngine::new(config, &registry);
        let policy = if policy_rsi { RedoPolicy::RsiExposed } else { RedoPolicy::Vsi };

        // Single-object ops (router-safe), alternating a physical CONST
        // write with a physiological read-modify-write.
        let do_op = |i: usize| {
            let x = ObjectId((seed / 7 + i as u64) % N_OBJECTS);
            let salt = Value::from_slice(&(seed ^ i as u64).to_le_bytes());
            let t = if i.is_multiple_of(2) {
                engine.execute(
                    OpKind::Physical,
                    vec![],
                    vec![x],
                    Transform::new(builtin::CONST, builtin::encode_values(&[salt])),
                )
            } else {
                engine.execute(
                    OpKind::Physiological,
                    vec![x],
                    vec![x],
                    Transform::new(builtin::HASH_MIX, salt),
                )
            };
            // Execute, then wait: one barrier per op.
            prop_assert!(t.unwrap().wait(), "every op must ack");
            Ok(())
        };

        for i in 0..cut {
            do_op(i)?;
        }
        let snaps: Vec<_> = (0..shards)
            .map(|i| engine.open_snapshot(i).unwrap())
            .collect();
        for i in cut..cut + extra {
            do_op(i)?;
        }
        // GC against the pinned floor: must not disturb the snapshots.
        engine.gc_versions();

        let homes: Vec<usize> = (0..N_OBJECTS)
            .map(|x| engine.router().shard_of(ObjectId(x)))
            .collect();
        let observed: Vec<Value> = (0..N_OBJECTS)
            .map(|x| snaps[homes[x as usize]].read(ObjectId(x)))
            .collect();
        let sis: Vec<_> = snaps.iter().map(|s| s.si()).collect();

        let parts = engine.crash();
        for (i, (store, mut wal)) in parts.into_iter().enumerate() {
            wal.seal_to(sis[i]).unwrap();
            // The pipeline and its two-pass reference must both land on
            // the snapshot's view.
            let both = [
                recover(store.clone(), wal.clone(), registry.clone(), EngineConfig::default(), policy),
                recover_two_pass(store, wal, registry.clone(), EngineConfig::default(), policy),
            ];
            for (rec, _) in both.into_iter().map(Result::unwrap) {
                for x in (0..N_OBJECTS).filter(|&x| homes[x as usize] == i) {
                    prop_assert_eq!(
                        rec.peek_value(ObjectId(x)),
                        observed[x as usize].clone(),
                        "object {} in shard {}: serial recovery sealed at {:?} \
                         diverges from the snapshot read",
                        x, i, sis[i]
                    );
                }
            }
        }
    }
}
