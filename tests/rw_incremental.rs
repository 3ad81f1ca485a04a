//! The incremental `rW` graph against a whole-graph oracle, and its cost
//! by count.
//!
//! `RWGraph` keeps indices (object → reader nodes, ready set) and collapses
//! cycles only around the nodes an operation touched. The oracle below is
//! the algorithm it replaced: scan every node for readers, run a
//! whole-graph SCC after every insertion, `retain` over the global maps on
//! removal. Both must produce the same graph up to `NodeId` renaming after
//! every step. The scaling tests then show, by the `rw_nodes_visited`
//! counter, that the work per operation does not grow with the number of
//! uninstalled operations.

use llog::testkit::prop::*;

use llog::core::{recover, Engine, EngineConfig, RWGraph, RedoPolicy};
use llog::ops::{table1, OpKind, Operation, TransformRegistry};
use llog::sim::{run_workload, OpSpec, Workload, WorkloadKind};
use llog::types::{ObjectId, OpId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// The pre-incremental algorithm, kept as the reference implementation.
mod oracle {
    use super::*;

    #[derive(Default)]
    pub struct Node {
        pub ops: Vec<OpId>,
        pub vars: BTreeSet<ObjectId>,
        pub writes: BTreeSet<ObjectId>,
        pub reads: BTreeSet<ObjectId>,
        pub lastw: BTreeMap<ObjectId, OpId>,
        pub preds: BTreeSet<u64>,
        pub succs: BTreeSet<u64>,
    }

    #[derive(Default)]
    pub struct Graph {
        pub nodes: BTreeMap<u64, Node>,
        next_id: u64,
        var_home: BTreeMap<ObjectId, u64>,
        op_node: BTreeMap<OpId, u64>,
        last_writer: BTreeMap<ObjectId, OpId>,
        version_readers: BTreeMap<(ObjectId, OpId), BTreeSet<OpId>>,
    }

    impl Graph {
        fn alloc(&mut self) -> u64 {
            self.next_id += 1;
            self.nodes.insert(self.next_id, Node::default());
            self.next_id
        }

        fn add_edge(&mut self, from: u64, to: u64) {
            if from != to {
                self.nodes.get_mut(&from).unwrap().succs.insert(to);
                self.nodes.get_mut(&to).unwrap().preds.insert(from);
            }
        }

        pub fn add_op(&mut self, op: &Operation) {
            let merge: BTreeSet<u64> = op
                .exp()
                .iter()
                .filter_map(|x| self.var_home.get(x).copied())
                .collect();
            let m = self.merge_nodes(merge);
            let node = self.nodes.get_mut(&m).unwrap();
            node.ops.push(op.id);
            node.reads.extend(op.reads.iter().copied());
            node.writes.extend(op.writes.iter().copied());
            node.vars.extend(op.writes.iter().copied());
            for &x in &op.writes {
                node.lastw.insert(x, op.id);
            }
            self.op_node.insert(op.id, m);

            // Read-write edges: every node is asked whether it read a write.
            let readers: Vec<u64> = self
                .nodes
                .iter()
                .filter(|(&p, n)| p != m && op.writes.iter().any(|x| n.reads.contains(x)))
                .map(|(&p, _)| p)
                .collect();
            for p in readers {
                self.add_edge(p, m);
            }

            for x in op.notexp() {
                let Some(&p) = self.var_home.get(&x) else {
                    continue;
                };
                if p == m || !self.nodes.get_mut(&p).unwrap().vars.remove(&x) {
                    continue;
                }
                self.add_edge(p, m);
                let writer = self.nodes[&p].lastw[&x];
                let readers = self.version_readers.get(&(x, writer));
                for r in readers.cloned().unwrap_or_default() {
                    self.add_edge(self.op_node[&r], p);
                }
            }

            for &x in &op.reads {
                if let Some(&writer) = self.last_writer.get(&x) {
                    self.version_readers
                        .entry((x, writer))
                        .or_default()
                        .insert(op.id);
                }
            }
            for &x in &op.writes {
                self.last_writer.insert(x, op.id);
                self.var_home.insert(x, m);
            }
            while let Some(cycle) = self.find_cycle_component() {
                self.merge_nodes(cycle);
            }
        }

        /// Merge into a fresh node (a fresh empty node for an empty set).
        fn merge_nodes(&mut self, ids: BTreeSet<u64>) -> u64 {
            if ids.len() == 1 {
                return *ids.first().unwrap();
            }
            let m = self.alloc();
            let mut merged = Node::default();
            for id in &ids {
                let node = self.nodes.remove(id).unwrap();
                merged.ops.extend(node.ops);
                merged.vars.extend(node.vars);
                merged.writes.extend(node.writes);
                merged.reads.extend(node.reads);
                for (x, w) in node.lastw {
                    let last = merged.lastw.entry(x).or_insert(w);
                    *last = (*last).max(w);
                }
                merged.preds.extend(node.preds);
                merged.succs.extend(node.succs);
            }
            merged.ops.sort();
            merged.preds.retain(|p| !ids.contains(p));
            merged.succs.retain(|s| !ids.contains(s));
            for &op in &merged.ops {
                self.op_node.insert(op, m);
            }
            for &x in &merged.vars {
                self.var_home.insert(x, m);
            }
            for p in &merged.preds {
                let succs = &mut self.nodes.get_mut(p).unwrap().succs;
                succs.retain(|s| !ids.contains(s));
                succs.insert(m);
            }
            for s in &merged.succs {
                let preds = &mut self.nodes.get_mut(s).unwrap().preds;
                preds.retain(|p| !ids.contains(p));
                preds.insert(m);
            }
            self.nodes.insert(m, merged);
            m
        }

        /// One SCC of size > 1 anywhere in the graph (Kosaraju).
        fn find_cycle_component(&self) -> Option<BTreeSet<u64>> {
            let mut visited = BTreeSet::new();
            let mut order = Vec::new();
            for &start in self.nodes.keys() {
                let mut stack = vec![(start, false)];
                while let Some((v, done)) = stack.pop() {
                    if done {
                        order.push(v);
                    } else if visited.insert(v) {
                        stack.push((v, true));
                        stack.extend(self.nodes[&v].succs.iter().map(|&w| (w, false)));
                    }
                }
            }
            let mut assigned = BTreeSet::new();
            for &v in order.iter().rev() {
                let mut comp = BTreeSet::new();
                let mut stack = vec![v];
                while let Some(u) = stack.pop() {
                    if !assigned.contains(&u) && comp.insert(u) {
                        stack.extend(self.nodes[&u].preds.iter().copied());
                    }
                }
                assigned.extend(comp.iter().copied());
                if comp.len() > 1 {
                    return Some(comp);
                }
            }
            None
        }

        /// Minimal nodes, oldest first operation first (the install order).
        pub fn minimal_nodes(&self) -> Vec<u64> {
            let mut minimals: Vec<u64> = self
                .nodes
                .iter()
                .filter(|(_, n)| n.preds.is_empty())
                .map(|(&id, _)| id)
                .collect();
            minimals.sort_by_key(|id| self.nodes[id].ops[0]);
            minimals
        }

        pub fn remove_node(&mut self, id: u64) {
            let node = self.nodes.remove(&id).unwrap();
            assert!(node.preds.is_empty());
            for s in &node.succs {
                self.nodes.get_mut(s).unwrap().preds.remove(&id);
            }
            let dead: BTreeSet<OpId> = node.ops.iter().copied().collect();
            for op in &dead {
                self.op_node.remove(op);
            }
            self.version_readers.retain(|(_, w), readers| {
                readers.retain(|r| !dead.contains(r));
                !dead.contains(w) && !readers.is_empty()
            });
            self.var_home.retain(|_, home| *home != id);
            self.last_writer.retain(|_, w| !dead.contains(w));
        }
    }
}

/// A node with its neighbours named by their first operation, so graphs
/// compare equal exactly when they are equal up to node renaming.
#[derive(Debug, PartialEq, Eq)]
struct NodeShape {
    ops: Vec<OpId>,
    vars: BTreeSet<ObjectId>,
    notx: BTreeSet<ObjectId>,
    writes: BTreeSet<ObjectId>,
    reads: BTreeSet<ObjectId>,
    lastw: BTreeMap<ObjectId, OpId>,
    preds: BTreeSet<OpId>,
    succs: BTreeSet<OpId>,
}

/// Nodes keyed by first operation, plus the minimal nodes in install order.
type GraphShape = (BTreeMap<OpId, NodeShape>, Vec<OpId>);

fn shape_of_oracle(g: &oracle::Graph) -> GraphShape {
    let first = |id: &u64| g.nodes[id].ops[0];
    let nodes = g
        .nodes
        .values()
        .map(|n| {
            let shape = NodeShape {
                ops: n.ops.clone(),
                vars: n.vars.clone(),
                notx: n.writes.difference(&n.vars).copied().collect(),
                writes: n.writes.clone(),
                reads: n.reads.clone(),
                lastw: n.lastw.clone(),
                preds: n.preds.iter().map(first).collect(),
                succs: n.succs.iter().map(first).collect(),
            };
            (n.ops[0], shape)
        })
        .collect();
    (nodes, g.minimal_nodes().iter().map(first).collect())
}

fn shape_of(g: &RWGraph) -> GraphShape {
    let first = |id| g.node(id).expect("live neighbour").ops()[0];
    let nodes = g
        .node_ids()
        .map(|id| {
            let n = g.node(id).unwrap();
            let shape = NodeShape {
                ops: n.ops().to_vec(),
                vars: n.vars().clone(),
                notx: n.notx(),
                writes: n.writes().clone(),
                reads: n.reads().clone(),
                lastw: n
                    .writes()
                    .iter()
                    .map(|&x| (x, n.lastw(x).expect("written object has a last writer")))
                    .collect(),
                preds: n.preds().iter().copied().map(first).collect(),
                succs: n.succs().iter().copied().map(first).collect(),
            };
            (n.ops()[0], shape)
        })
        .collect();
    (nodes, g.minimal_nodes().into_iter().map(first).collect())
}

const N_OBJECTS: u8 = 7;

/// Table 1's operation shapes over a small universe, so read and write sets
/// overlap constantly.
#[derive(Debug, Clone)]
enum Shape {
    /// `writes ← f(reads)`: exposed where the sets overlap, blind elsewhere.
    Logical {
        reads: Vec<u8>,
        writes: Vec<u8>,
    },
    Physiological(u8),
    Physical(u8),
    Delete(u8),
    /// The cache manager's `W_IP(x)`.
    Identity(u8),
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let obj = 0..N_OBJECTS;
    prop_oneof![
        (vec(obj.clone(), 0..4), vec(obj.clone(), 1..4))
            .prop_map(|(reads, writes)| Shape::Logical { reads, writes }),
        (vec(obj.clone(), 1..3), vec(obj.clone(), 1..2))
            .prop_map(|(reads, writes)| Shape::Logical { reads, writes }),
        obj.clone().prop_map(Shape::Physiological),
        obj.clone().prop_map(Shape::Physical),
        obj.clone().prop_map(Shape::Delete),
        obj.prop_map(Shape::Identity),
    ]
}

fn to_operation(i: usize, shape: &Shape) -> Operation {
    let id = i as u64;
    let distinct = |xs: &[u8]| -> Vec<u64> {
        let set: BTreeSet<u64> = xs.iter().map(|&x| x as u64).collect();
        set.into_iter().collect()
    };
    match shape {
        Shape::Logical { reads, writes } => {
            Operation::logical(id, &distinct(reads), &distinct(writes))
        }
        Shape::Physiological(x) => Operation::physiological(id, *x as u64),
        Shape::Physical(x) => Operation::physical(id, *x as u64, Value::from("v")),
        Shape::Delete(x) => Operation::delete(id, *x as u64),
        Shape::Identity(x) => {
            table1::identity_write(OpId(id), ObjectId(*x as u64), Value::from("current"))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same partition, `vars`, `Notx`, `Lastw`, edges and install order as
    /// the whole-graph algorithm after every insertion and every removal of
    /// the oldest minimal node.
    #[test]
    fn incremental_graph_equals_whole_graph_oracle(
        shapes in vec(shape_strategy(), 1..60),
        install_mask in vec(any::<bool>(), 1..60),
    ) {
        let mut g = RWGraph::new();
        let mut reference = oracle::Graph::default();
        let remove_oldest = |g: &mut RWGraph, reference: &mut oracle::Graph| {
            if let Some(n) = g.oldest_minimal() {
                g.remove_node(n);
                reference.remove_node(reference.minimal_nodes()[0]);
            }
        };
        for (i, s) in shapes.iter().enumerate() {
            let op = to_operation(i, s);
            g.add_op(&op);
            reference.add_op(&op);
            prop_assert_eq!(shape_of(&g), shape_of_oracle(&reference), "after op {}", i);
            g.check_consistency();
            if install_mask[i % install_mask.len()] {
                remove_oldest(&mut g, &mut reference);
                prop_assert_eq!(shape_of(&g), shape_of_oracle(&reference), "after install {}", i);
                g.check_consistency();
            }
        }
        while !g.is_empty() {
            remove_oldest(&mut g, &mut reference);
            prop_assert_eq!(shape_of(&g), shape_of_oracle(&reference));
        }
        prop_assert!(reference.nodes.is_empty());
    }
}

// ---------------------------------------------------------------------------
// Scaling, by count
// ---------------------------------------------------------------------------

const SIZES: [usize; 3] = [1_000, 4_000, 16_000];

/// `rw_nodes_visited` per operation for the three phases the graph serves:
/// executing `specs` with nothing installed, recovering that tail after a
/// crash, and installing all of it.
fn visited_per_op(specs: &[OpSpec]) -> [f64; 3] {
    let registry = TransformRegistry::with_builtins();
    let config = EngineConfig::default();
    let n = specs.len() as f64;

    let mut engine = Engine::new(config, registry.clone());
    run_workload(&mut engine, specs, 0, 0).unwrap();
    assert_eq!(engine.uninstalled_count(), specs.len());
    let add = engine.metrics().snapshot().rw_nodes_visited as f64 / n;
    engine.wal_mut().force();
    let (store, wal) = engine.crash();
    let before_redo = store.metrics().snapshot().rw_nodes_visited;

    // The vSI test redoes the whole tail; the rSI test would skip the
    // overwritten part of it and leave the graph little to do.
    let (mut recovered, outcome) = recover(store, wal, registry, config, RedoPolicy::Vsi).unwrap();
    let tail = recovered.uninstalled_count() as f64;
    assert_eq!(
        tail, n,
        "redone {} + deleted {}",
        outcome.redone, outcome.deletes_applied
    );
    let after_redo = recovered.metrics().snapshot().rw_nodes_visited;
    assert!(
        after_redo > before_redo,
        "recovery shares the pre-crash ledger"
    );
    recovered.install_all().unwrap();
    assert_eq!(recovered.uninstalled_count(), 0);
    let after_install = recovered.metrics().snapshot().rw_nodes_visited;
    recovered.rw_graph().check_consistency();
    [
        add,
        (after_redo - before_redo) as f64 / tail,
        (after_install - after_redo) as f64 / tail,
    ]
}

/// Every phase's per-op count at the largest size within 2× of the
/// smallest: flat in the size of the uninstalled tail.
fn assert_flat(name: &str, stream: impl Fn(usize) -> Vec<OpSpec>) {
    let counts: Vec<[f64; 3]> = SIZES.iter().map(|&n| visited_per_op(&stream(n))).collect();
    for (phase, label) in ["add_op", "recover", "install_all"].iter().enumerate() {
        let (small, large) = (counts[0][phase], counts[SIZES.len() - 1][phase]);
        assert!(small > 0.0, "{name}/{label}: nothing counted");
        assert!(
            large <= 2.0 * small,
            "{name}/{label}: {small:.2} nodes/op at n={} but {large:.2} at n={}",
            SIZES[0],
            SIZES[SIZES.len() - 1],
        );
    }
}

#[test]
fn blind_write_stream_costs_the_same_per_op_at_any_tail_length() {
    let blind_only = WorkloadKind {
        logical_update: 0,
        logical_blind: 0,
        physiological: 0,
        physical: 1,
        delete: 0,
    };
    assert_flat("blind", |n| {
        Workload::new(64, n, blind_only, 11)
            .with_value_size(8)
            .generate()
    });
}

#[test]
fn mixed_stream_costs_the_same_per_op_at_any_tail_length() {
    // Logical updates reading up to three objects, logical and physical
    // blind writes, physiological updates, deletes — over a bounded object
    // population, so the graph has the same character at every tail length
    // (what grows is the uninstalled history, not the working set).
    assert_flat("mixed", |n| {
        Workload::new(64, n, WorkloadKind::app_mix(), 12)
            .with_value_size(8)
            .generate()
    });
}

/// §4's `Y = f(X,Y); X = g(Y); Y = h(Y)` over and over: every third
/// operation closes a cycle through the node holding everything so far.
/// The merges must happen (one node at the end) and still cost O(1) nodes
/// each, because the big node absorbs the small one, never the reverse.
#[test]
fn cycle_heavy_stream_merges_at_amortised_constant_cost() {
    const X: u64 = 1;
    const Y: u64 = 2;
    let per_op = |n: usize| {
        let mut g = RWGraph::new();
        for i in 0..n as u64 {
            let op = match i % 3 {
                0 => Operation::logical(i, &[X, Y], &[Y]),
                1 => Operation::logical(i, &[Y], &[X]),
                _ => Operation::logical(i, &[Y], &[Y]),
            };
            g.add_op(&op);
            if i % 3 == 2 {
                assert_eq!(g.len(), 1, "the cycle collapsed at op {i}");
            }
        }
        g.check_consistency();
        let node = g.node(g.oldest_minimal().unwrap()).unwrap();
        assert_eq!(node.ops().len(), n);
        assert_eq!(node.vars().len(), 2);
        g.nodes_visited() as f64 / n as f64
    };
    let (small, large) = (per_op(SIZES[0] / 3 * 3), per_op(SIZES[2] / 3 * 3));
    assert!(
        small >= 1.0,
        "cycle searches must be counted, got {small:.2}"
    );
    assert!(large <= 2.0 * small, "{small:.2} → {large:.2} nodes/op");
}

#[test]
fn install_counters_sum_flush_sets_and_unexposed_objects() {
    // Figure 7: A writes X and Y, B reads X, C blindly overwrites X. B's
    // node flushes its one object, A's node flushes Y and installs X
    // unflushed, C's node flushes X.
    let mut engine = Engine::new(EngineConfig::default(), TransformRegistry::with_builtins());
    let [x, y, b, src] = [1, 2, 3, 9].map(ObjectId);
    let hash = || Operation::logical(0, &[], &[1]).transform;
    engine
        .execute(OpKind::Logical, vec![src], vec![x, y], hash())
        .unwrap();
    engine
        .execute(OpKind::Logical, vec![x], vec![b], hash())
        .unwrap();
    let blind = Operation::physical(0, x.0, Value::from("blind"));
    engine
        .execute(blind.kind, vec![], vec![x], blind.transform)
        .unwrap();
    engine.install_all().unwrap();
    let m = engine.metrics().snapshot();
    assert_eq!(m.install_vars_objects, 3, "B, Y and the blind X");
    assert_eq!(m.install_notx_objects, 1, "A's X went unflushed");
    assert_eq!(m.identity_writes, 0);
    assert!(m.rw_nodes_visited >= 3, "three minimal-node picks at least");
}
