//! The refined write graph `rW` (§3, Figure 6).
//!
//! `rW` improves on `W` in two ways the paper spells out:
//!
//! 1. **`vars(n) ⊆ Writes(n)`**: a later blind write of `x` makes the
//!    earlier value *unexposed*; `x` is removed from every other node's
//!    flush set. Installing `ops(n)` still only requires flushing `vars(n)`;
//!    the objects in `Notx(n) = Writes(n) − vars(n)` are installed without
//!    being flushed.
//! 2. **Extra edges** keep this sound: a *write-write* edge from the node
//!    that lost `x` to the blind writer's node, and an *inverse write-read*
//!    edge from every node that read `Lastw(p, x)` back to `p`, ensuring
//!    those readers install first so `x` really is unexposed when `p`
//!    installs.
//!
//! Construction is incremental (`add_op` is the paper's `addop_rW`);
//! cycles that arise are collapsed into multi-object nodes, which
//! cache-manager identity writes can later break apart again (§4).
//!
//! Maintenance costs what an operation touches, not the size of the graph
//! (DESIGN, "rW maintenance cost"): read-write edges come from an
//! object → reader-nodes index, a new cycle is looked for only around the
//! nodes that just gained an incoming edge, merges fold the lighter nodes
//! into the heaviest, the installable nodes sit in a set ordered by first
//! operation, and removal garbage-collects through the removed node's own
//! operations and objects.

use std::collections::{BTreeMap, BTreeSet};

use llog_ops::Operation;
use llog_types::{ObjectId, OpId};

/// Stable handle for an `rW` node. A merge keeps the id of its heaviest
/// member; the ids of the others simply stop resolving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u64);

/// One node of `rW`.
#[derive(Debug, Clone, Default)]
pub struct RwNode {
    /// `ops(n)`, in arrival (conflict) order.
    ops: Vec<OpId>,
    /// `vars(n)`: the atomic flush set that installs `ops(n)`.
    vars: BTreeSet<ObjectId>,
    /// `Writes(n)`: every object written by `ops(n)`.
    writes: BTreeSet<ObjectId>,
    /// `Reads(n)`: every object read by `ops(n)`.
    reads: BTreeSet<ObjectId>,
    /// `Lastw(n, x)`: the last operation of `ops(n)` writing `x`.
    lastw: BTreeMap<ObjectId, OpId>,
    preds: BTreeSet<NodeId>,
    succs: BTreeSet<NodeId>,
}

impl RwNode {
    /// The operations of this node/graph.
    pub fn ops(&self) -> &[OpId] {
        &self.ops
    }
    /// `vars(n)`: the atomic flush set that installs `ops(n)`.
    pub fn vars(&self) -> &BTreeSet<ObjectId> {
        &self.vars
    }
    /// `Writes(n)`: every object written by `ops(n)`.
    pub fn writes(&self) -> &BTreeSet<ObjectId> {
        &self.writes
    }
    /// `Reads(n)`: every object read by `ops(n)`.
    pub fn reads(&self) -> &BTreeSet<ObjectId> {
        &self.reads
    }
    /// `Notx(n) = Writes(n) − vars(n)`: installed without flushing.
    pub fn notx(&self) -> BTreeSet<ObjectId> {
        self.writes.difference(&self.vars).copied().collect()
    }
    /// Predecessors (must install before this node).
    pub fn preds(&self) -> &BTreeSet<NodeId> {
        &self.preds
    }
    /// Successors (install after this node).
    pub fn succs(&self) -> &BTreeSet<NodeId> {
        &self.succs
    }
    /// `Lastw(n, x)`: the last operation of `ops(n)` writing `x`.
    pub fn lastw(&self, x: ObjectId) -> Option<OpId> {
        self.lastw.get(&x).copied()
    }

    /// What a merge pays to move this node into another one.
    fn weight(&self) -> usize {
        self.ops.len() + self.reads.len() + self.writes.len() + self.preds.len() + self.succs.len()
    }
}

/// The refined write graph.
#[derive(Debug, Clone, Default)]
pub struct RWGraph {
    nodes: BTreeMap<NodeId, RwNode>,
    next_id: u64,
    /// `x → n` with `x ∈ vars(n)`. Each object is in at most one flush set
    /// ("each X is a member of only one vars(p)").
    var_home: BTreeMap<ObjectId, NodeId>,
    /// op → its node.
    op_node: BTreeMap<OpId, NodeId>,
    /// Latest uninstalled writer of each object.
    last_writer: BTreeMap<ObjectId, OpId>,
    /// Readers of each live version: `writer op → x → reader ops`. Keyed
    /// by writer so a removed node drops its versions by its own ops.
    version_readers: BTreeMap<OpId, BTreeMap<ObjectId, BTreeSet<OpId>>>,
    /// Reverse index for GC: reader op → the `(writer, x)` versions it read.
    reads_of_op: BTreeMap<OpId, Vec<(OpId, ObjectId)>>,
    /// `x → {n | x ∈ Reads(n)}`: the sources of read-write edges.
    readers: BTreeMap<ObjectId, BTreeSet<NodeId>>,
    /// Predecessor-free nodes, keyed by first operation: the oldest
    /// installable node is the first entry.
    ready: BTreeSet<(OpId, NodeId)>,
    /// Nodes touched by reachability searches and reader lookups so far.
    nodes_visited: u64,
}

/// One direction of a reachability search, advanced a node at a time.
struct Reach {
    seen: BTreeSet<NodeId>,
    stack: Vec<NodeId>,
}

impl Reach {
    fn from(start: NodeId) -> Reach {
        Reach {
            seen: BTreeSet::from([start]),
            stack: vec![start],
        }
    }

    /// Expand one node along `next`; false once the reach is exhausted.
    fn step<I: IntoIterator<Item = NodeId>>(&mut self, next: impl FnOnce(NodeId) -> I) -> bool {
        let Some(v) = self.stack.pop() else {
            return false;
        };
        for w in next(v) {
            if self.seen.insert(w) {
                self.stack.push(w);
            }
        }
        true
    }
}

impl RWGraph {
    /// Create a new instance.
    pub fn new() -> RWGraph {
        RWGraph::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id (None once merged away or removed).
    pub fn node(&self, id: NodeId) -> Option<&RwNode> {
        self.nodes.get(&id)
    }

    /// Ids of all live nodes.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.keys().copied()
    }

    /// The node currently holding an operation, if it is live.
    pub fn node_of_op(&self, op: OpId) -> Option<NodeId> {
        self.op_node.get(&op).copied()
    }

    /// The node whose flush set contains `x`, if any.
    pub fn home_of(&self, x: ObjectId) -> Option<NodeId> {
        self.var_home.get(&x).copied()
    }

    /// Nodes with no predecessors: installable now. Oldest first operation
    /// first, the order PurgeCache installs them in.
    pub fn minimal_nodes(&self) -> Vec<NodeId> {
        self.ready.iter().map(|&(_, id)| id).collect()
    }

    /// The installable node whose first operation is oldest.
    pub fn oldest_minimal(&self) -> Option<NodeId> {
        self.ready.first().map(|&(_, id)| id)
    }

    /// Nodes touched so far by reachability searches and reader lookups:
    /// the work `add_op` does beyond the operation's own objects.
    pub fn nodes_visited(&self) -> u64 {
        self.nodes_visited
    }

    /// Sizes of the atomic flush sets, descending (experiment E3).
    pub fn flush_set_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.nodes.values().map(|n| n.vars.len()).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        sizes
    }

    fn alloc(&mut self) -> NodeId {
        let id = NodeId(self.next_id);
        self.next_id += 1;
        self.nodes.insert(id, RwNode::default());
        id
    }

    /// The `ready` entry of a node that has no predecessors.
    fn ready_key(id: NodeId, node: &RwNode) -> (OpId, NodeId) {
        (*node.ops.first().expect("live node has operations"), id)
    }

    /// Add `from → to`; true if the edge is new.
    fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        if from == to {
            return false;
        }
        self.nodes
            .get_mut(&from)
            .expect("edge from dead node")
            .succs
            .insert(to);
        let node = self.nodes.get_mut(&to).expect("edge to dead node");
        if node.preds.is_empty() {
            self.ready.remove(&Self::ready_key(to, node));
        }
        node.preds.insert(from)
    }

    /// `addop_rW` (Figure 6): incorporate the next operation, in conflict
    /// order. Returns the id of the node the operation landed in (after any
    /// merges and cycle collapses).
    pub fn add_op(&mut self, op: &Operation) -> NodeId {
        let exp = op.exp();
        let notexp = op.notexp();

        // 1. Merge nodes whose flush sets overlap the exposed updates.
        let merge: BTreeSet<NodeId> = exp
            .iter()
            .filter_map(|x| self.var_home.get(x).copied())
            .collect();
        let mut m_gained = merge.len() > 1;
        let m = self.merge_nodes(merge);

        // Add the operation to m.
        {
            let node = self.nodes.get_mut(&m).expect("fresh/merged node");
            node.ops.push(op.id);
            node.reads.extend(op.reads.iter().copied());
            node.writes.extend(op.writes.iter().copied());
            node.vars.extend(op.writes.iter().copied());
            for &x in &op.writes {
                node.lastw.insert(x, op.id);
            }
            if node.ops.len() == 1 {
                // Fresh node: installable until an edge says otherwise.
                self.ready.insert((op.id, m));
            }
        }
        self.op_node.insert(op.id, m);
        for &x in &op.reads {
            self.readers.entry(x).or_default().insert(m);
        }

        // 2. New read-write edges: earlier readers of what op writes must
        //    install before m.
        let rw_edges: BTreeSet<NodeId> = op
            .writes
            .iter()
            .filter_map(|x| self.readers.get(x))
            .flatten()
            .copied()
            .filter(|&p| p != m)
            .collect();
        self.nodes_visited += rw_edges.len() as u64;
        for p in rw_edges {
            m_gained |= self.add_edge(p, m);
        }

        // 3. Blind updates free the overwritten values: remove them from the
        //    other nodes' flush sets, with the ordering edges that keep this
        //    sound. A new cycle needs a new edge, and those all end in m or
        //    in a victim that gains an inverse write-read edge: the seeds of
        //    step 7.
        let mut seeds = Vec::new();
        let victims: BTreeSet<NodeId> = notexp
            .iter()
            .filter_map(|&x| self.var_home.get(&x).copied())
            .filter(|&p| p != m)
            .collect();
        for p in victims {
            let removed: Vec<ObjectId> = {
                let node = &self.nodes[&p];
                notexp
                    .iter()
                    .copied()
                    .filter(|x| node.vars.contains(x))
                    .collect()
            };
            if removed.is_empty() {
                continue;
            }
            // vars(p) −= notexp(Op); write-write edge p → m.
            {
                let node = self.nodes.get_mut(&p).expect("victim node");
                for x in &removed {
                    node.vars.remove(x);
                }
            }
            m_gained |= self.add_edge(p, m);
            // Inverse write-read edges: q read Lastw(p, x) ⇒ q → p.
            let mut readers: BTreeSet<NodeId> = BTreeSet::new();
            for &x in &removed {
                let Some(writer) = self.nodes[&p].lastw(x) else {
                    continue;
                };
                let ops = self.version_readers.get(&writer).and_then(|v| v.get(&x));
                readers.extend(
                    ops.into_iter()
                        .flatten()
                        .filter_map(|r| self.op_node.get(r).copied())
                        .filter(|&q| q != p),
                );
            }
            if !readers.is_empty() {
                self.nodes_visited += readers.len() as u64;
                let mut p_gained = false;
                for q in readers {
                    p_gained |= self.add_edge(q, p);
                }
                if p_gained {
                    seeds.push(p);
                }
            }
        }

        // 4. Record which versions op read (only live-node versions matter).
        for &x in &op.reads {
            if let Some(&writer) = self.last_writer.get(&x) {
                self.version_readers
                    .entry(writer)
                    .or_default()
                    .entry(x)
                    .or_default()
                    .insert(op.id);
                self.reads_of_op.entry(op.id).or_default().push((writer, x));
            }
        }

        // 5/6. op's versions are now current; its writes live in vars(m).
        for &x in &op.writes {
            self.last_writer.insert(x, op.id);
            self.var_home.insert(x, m);
        }

        // 7. Collapse the cycles the new edges created. The graph was
        //    acyclic before this call, so every cycle runs through a seed.
        if m_gained {
            seeds.push(m);
        }
        let mut collapsed: BTreeSet<NodeId> = BTreeSet::new();
        for s in seeds {
            if collapsed.contains(&s) {
                continue;
            }
            if let Some(cycle) = self.cycle_through(s) {
                collapsed.extend(cycle.iter().copied());
                self.merge_nodes(cycle);
            }
        }
        self.op_node[&op.id]
    }

    /// Merge a set of nodes into its heaviest member, unioning all
    /// attributes and rewiring edges, so a node that keeps absorbing small
    /// ones is never copied. Returns the merged node (a fresh empty node if
    /// the set is empty).
    fn merge_nodes(&mut self, mut ids: BTreeSet<NodeId>) -> NodeId {
        if ids.is_empty() {
            return self.alloc();
        }
        let keep = *ids
            .iter()
            .max_by_key(|id| self.nodes[id].weight())
            .expect("nonempty merge set");
        if ids.len() == 1 {
            return keep;
        }
        ids.remove(&keep);
        let mut merged = self.nodes.remove(&keep).expect("merge of dead node");
        if merged.preds.is_empty() {
            self.ready.remove(&Self::ready_key(keep, &merged));
        }
        // `ops` stays sorted; only the part younger than the oldest absorbed
        // operation is disturbed, usually a short tail.
        let mut unsorted_from = merged.ops.len();
        for &id in &ids {
            let node = self.nodes.remove(&id).expect("merge of dead node");
            if node.preds.is_empty() {
                self.ready.remove(&Self::ready_key(id, &node));
            }
            for &op in &node.ops {
                self.op_node.insert(op, keep);
            }
            for &x in &node.vars {
                self.var_home.insert(x, keep);
            }
            for x in &node.reads {
                let set = self.readers.get_mut(x).expect("reader index entry");
                set.remove(&id);
                set.insert(keep);
            }
            // Rewire the rest of the graph; edges inside the set vanish.
            for &p in &node.preds {
                if p != keep && !ids.contains(&p) {
                    let succs = &mut self.nodes.get_mut(&p).expect("pred of merged node").succs;
                    succs.remove(&id);
                    succs.insert(keep);
                    merged.preds.insert(p);
                }
            }
            for &s in &node.succs {
                if s != keep && !ids.contains(&s) {
                    let preds = &mut self.nodes.get_mut(&s).expect("succ of merged node").preds;
                    preds.remove(&id);
                    preds.insert(keep);
                    merged.succs.insert(s);
                }
            }
            merged.preds.remove(&id);
            merged.succs.remove(&id);
            if let Some(first) = node.ops.first() {
                unsorted_from = merged.ops[..unsorted_from].partition_point(|op| op < first);
            }
            merged.ops.extend(node.ops);
            merged.vars.extend(node.vars);
            merged.writes.extend(node.writes);
            merged.reads.extend(node.reads);
            for (x, w) in node.lastw {
                let last = merged.lastw.entry(x).or_insert(w);
                *last = (*last).max(w);
            }
        }
        merged.ops[unsorted_from..].sort_unstable();
        if merged.preds.is_empty() {
            self.ready.insert(Self::ready_key(keep, &merged));
        }
        self.nodes.insert(keep, merged);
        keep
    }

    /// The strongly connected component of `s`, if it has more than one
    /// node. Forward and backward reach from `s` advance in lockstep; the
    /// side that runs dry first contains the component, which is then what
    /// the other direction reaches from `s` inside it. The cost is bounded
    /// by the smaller of the two reaches, and is O(1) for a node without
    /// successors (every fresh blind writer) or without predecessors.
    fn cycle_through(&mut self, s: NodeId) -> Option<BTreeSet<NodeId>> {
        let RWGraph {
            nodes,
            nodes_visited,
            ..
        } = self;
        let succs = |v: NodeId| nodes[&v].succs.iter().copied();
        let preds = |v: NodeId| nodes[&v].preds.iter().copied();
        *nodes_visited += 1;
        if nodes[&s].succs.is_empty() || nodes[&s].preds.is_empty() {
            return None;
        }
        let (mut fwd, mut bwd) = (Reach::from(s), Reach::from(s));
        let (bound, forward_ran_dry) = loop {
            if !fwd.step(succs) {
                break (fwd.seen, true);
            }
            *nodes_visited += 1;
            if !bwd.step(preds) {
                break (bwd.seen, false);
            }
            *nodes_visited += 1;
        };
        let mut component = Reach::from(s);
        while component.step(|v| {
            let next = if forward_ran_dry { preds(v) } else { succs(v) };
            next.filter(|w| bound.contains(w))
        }) {
            *nodes_visited += 1;
        }
        (component.seen.len() > 1).then_some(component.seen)
    }

    /// Find one SCC of size > 1, if any, over the whole graph (Kosaraju:
    /// order by finish time, then reverse reachability). Audit only:
    /// `add_op` collapses cycles locally and never calls this.
    fn find_cycle_component(&self) -> Option<BTreeSet<NodeId>> {
        let ids: Vec<NodeId> = self.nodes.keys().copied().collect();
        let mut visited: BTreeSet<NodeId> = BTreeSet::new();
        let mut order: Vec<NodeId> = Vec::new();
        for &start in &ids {
            if visited.contains(&start) {
                continue;
            }
            let mut stack = vec![(start, false)];
            while let Some((v, done)) = stack.pop() {
                if done {
                    order.push(v);
                    continue;
                }
                if !visited.insert(v) {
                    continue;
                }
                stack.push((v, true));
                for &w in &self.nodes[&v].succs {
                    if !visited.contains(&w) {
                        stack.push((w, false));
                    }
                }
            }
        }
        let mut assigned: BTreeSet<NodeId> = BTreeSet::new();
        for &v in order.iter().rev() {
            if assigned.contains(&v) {
                continue;
            }
            // Reverse-reachability from v among unassigned nodes.
            let mut comp = BTreeSet::new();
            let mut stack = vec![v];
            while let Some(u) = stack.pop() {
                if assigned.contains(&u) || !comp.insert(u) {
                    continue;
                }
                for &w in &self.nodes[&u].preds {
                    if !assigned.contains(&w) && !comp.contains(&w) {
                        stack.push(w);
                    }
                }
            }
            assigned.extend(comp.iter().copied());
            if comp.len() > 1 {
                return Some(comp);
            }
        }
        None
    }

    /// Remove an installed node. The caller (PurgeCache) must have flushed
    /// `vars(n)`; the node must be minimal. Returns the removed node.
    pub fn remove_node(&mut self, id: NodeId) -> RwNode {
        let node = self.nodes.remove(&id).expect("remove of dead node");
        assert!(node.preds.is_empty(), "removing non-minimal rW node {id:?}");
        self.ready.remove(&Self::ready_key(id, &node));
        for &s in &node.succs {
            let succ = self.nodes.get_mut(&s).expect("succ of removed node");
            succ.preds.remove(&id);
            if succ.preds.is_empty() {
                self.ready.insert(Self::ready_key(s, succ));
            }
        }
        for &op in &node.ops {
            self.op_node.remove(&op);
            // GC version-read bookkeeping for this reader.
            for (writer, x) in self.reads_of_op.remove(&op).unwrap_or_default() {
                if let Some(readers) = self
                    .version_readers
                    .get_mut(&writer)
                    .and_then(|v| v.get_mut(&x))
                {
                    readers.remove(&op);
                }
            }
            // Versions written by installed ops can no longer trigger
            // inverse edges (their node is gone).
            self.version_readers.remove(&op);
        }
        for x in &node.reads {
            let set = self.readers.get_mut(x).expect("reader index entry");
            set.remove(&id);
            if set.is_empty() {
                self.readers.remove(x);
            }
        }
        for &x in &node.vars {
            if self.var_home.get(&x) == Some(&id) {
                self.var_home.remove(&x);
            }
        }
        // The latest writer of x, if it is one of ours, is our Lastw(n, x).
        for (x, w) in &node.lastw {
            if self.last_writer.get(x) == Some(w) {
                self.last_writer.remove(x);
            }
        }
        node
    }

    /// Debug/audit: assert internal consistency. Panics on violation.
    pub fn check_consistency(&self) {
        let mut readers: BTreeMap<ObjectId, BTreeSet<NodeId>> = BTreeMap::new();
        let mut ready = BTreeSet::new();
        for (&id, node) in &self.nodes {
            assert!(node.vars.is_subset(&node.writes), "vars ⊄ writes in {id:?}");
            for &x in &node.vars {
                assert_eq!(self.var_home.get(&x), Some(&id), "var_home stale for {x:?}");
            }
            for &p in &node.preds {
                assert!(
                    self.nodes[&p].succs.contains(&id),
                    "asymmetric edge {p:?}→{id:?}"
                );
            }
            for &s in &node.succs {
                assert!(
                    self.nodes[&s].preds.contains(&id),
                    "asymmetric edge {id:?}→{s:?}"
                );
            }
            for &op in &node.ops {
                assert_eq!(self.op_node.get(&op), Some(&id), "op_node stale");
            }
            for &x in &node.reads {
                readers.entry(x).or_default().insert(id);
            }
            if node.preds.is_empty() {
                ready.insert(Self::ready_key(id, node));
            }
        }
        assert_eq!(self.readers, readers, "reader index out of step");
        assert_eq!(self.ready, ready, "ready set out of step");
        for writer in self.version_readers.keys() {
            assert!(
                self.op_node.contains_key(writer),
                "version of installed {writer:?} kept"
            );
        }
        for writer in self.last_writer.values() {
            assert!(
                self.op_node.contains_key(writer),
                "installed {writer:?} kept as last writer"
            );
        }
        assert!(self.find_cycle_component().is_none(), "rW has a cycle");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_ops::{table1, Value};

    const X: u64 = 1;
    const Y: u64 = 2;
    const B: u64 = 3;

    fn oid(n: u64) -> ObjectId {
        ObjectId(n)
    }

    fn set(xs: &[u64]) -> BTreeSet<ObjectId> {
        xs.iter().map(|&n| ObjectId(n)).collect()
    }

    #[test]
    fn figure_one_separate_nodes_ordered() {
        // A: Y ← f(X,Y); B: X ← g(Y). rW: node(A) vars{Y} → node(B) vars{X}.
        let mut g = RWGraph::new();
        let na = g.add_op(&Operation::logical(0, &[X, Y], &[Y]));
        let nb = g.add_op(&Operation::logical(1, &[Y], &[X]));
        g.check_consistency();
        assert_eq!(g.len(), 2);
        assert_eq!(g.node(na).unwrap().vars(), &set(&[Y]));
        assert_eq!(g.node(nb).unwrap().vars(), &set(&[X]));
        // A read X which B writes: read-write edge A → B.
        assert!(g.node(na).unwrap().succs().contains(&nb));
        assert_eq!(g.minimal_nodes(), vec![na]);
    }

    #[test]
    fn section4_cycle_example_collapses() {
        // (a) Y = f(X,Y); (b) X = g(Y); (c) Y = h(Y): cycle ⇒ one node with
        // objects X and Y together.
        let mut g = RWGraph::new();
        g.add_op(&Operation::logical(0, &[X, Y], &[Y]));
        g.add_op(&Operation::logical(1, &[Y], &[X]));
        let m = g.add_op(&Operation::logical(2, &[Y], &[Y]));
        g.check_consistency();
        assert_eq!(g.len(), 1);
        let node = g.node(m).unwrap();
        assert_eq!(node.vars(), &set(&[X, Y]));
        assert_eq!(node.ops().len(), 3);
    }

    #[test]
    fn figure_seven_blind_write_shrinks_flush_set() {
        // A writes X and Y; B reads X; C blindly writes X.
        // rW: vars(l) shrinks from {X,Y} to {Y}; X moves to C's node;
        // inverse write-read edge node(B) → l; write-write edge l → node(C).
        let mut g = RWGraph::new();
        let l = g.add_op(&Operation::logical(0, &[9], &[X, Y])); // A
        let nb = g.add_op(&Operation::logical(1, &[X], &[B])); // B reads X
        assert_eq!(g.node(l).unwrap().vars(), &set(&[X, Y]));

        let nc = g.add_op(&Operation::physical(2, X, Value::from("blind"))); // C
        g.check_consistency();

        let ln = g.node(l).unwrap();
        assert_eq!(ln.vars(), &set(&[Y]), "X must leave vars(l)");
        assert_eq!(ln.notx(), set(&[X]), "X is now Notx(l)");
        // Write-write edge l → node(C).
        assert!(ln.succs().contains(&nc));
        // Inverse write-read edge node(B) → l: B read Lastw(l, X).
        assert!(g.node(nb).unwrap().succs().contains(&l));
        // Flush order: B's node first, then l (flushing only Y), then C.
        assert_eq!(g.minimal_nodes(), vec![nb]);
        // X's home is now C's node.
        assert_eq!(g.home_of(oid(X)), Some(nc));
    }

    #[test]
    fn figure_seven_installation_sequence() {
        let mut g = RWGraph::new();
        let l = g.add_op(&Operation::logical(0, &[9], &[X, Y]));
        let nb = g.add_op(&Operation::logical(1, &[X], &[B]));
        let nc = g.add_op(&Operation::physical(2, X, Value::from("blind")));

        // Install B's node, then l, then C's node.
        let removed = g.remove_node(nb);
        assert_eq!(removed.vars(), &set(&[B]));
        g.check_consistency();
        assert_eq!(g.minimal_nodes(), vec![l]);

        let removed = g.remove_node(l);
        assert_eq!(removed.vars(), &set(&[Y]), "install l by flushing only Y");
        assert_eq!(removed.notx(), set(&[X]));
        g.check_consistency();

        let removed = g.remove_node(nc);
        assert_eq!(removed.vars(), &set(&[X]));
        assert!(g.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-minimal")]
    fn removing_non_minimal_node_panics() {
        let mut g = RWGraph::new();
        let _a = g.add_op(&Operation::logical(0, &[X, Y], &[Y]));
        let b = g.add_op(&Operation::logical(1, &[Y], &[X]));
        g.remove_node(b);
    }

    #[test]
    fn exposed_update_merges_nodes() {
        // op0 writes X; op1 writes Y; op2 reads+writes both X and Y
        // (exp = {X,Y}) ⇒ all three nodes merge.
        let mut g = RWGraph::new();
        g.add_op(&Operation::logical(0, &[8], &[X]));
        g.add_op(&Operation::logical(1, &[9], &[Y]));
        let m = g.add_op(&Operation::logical(2, &[X, Y], &[X, Y]));
        g.check_consistency();
        assert_eq!(g.len(), 1);
        assert_eq!(g.node(m).unwrap().ops().len(), 3);
        assert_eq!(g.node(m).unwrap().vars(), &set(&[X, Y]));
    }

    #[test]
    fn identity_write_breaks_up_flush_set() {
        // §4: a node with vars {X, Y}; W_IP(X) moves X into its own node.
        let mut g = RWGraph::new();
        let l = g.add_op(&Operation::logical(0, &[9], &[X, Y]));
        assert_eq!(g.node(l).unwrap().vars().len(), 2);

        let m = g.add_op(&table1::identity_write(
            OpId(1),
            oid(X),
            Value::from("current"),
        ));
        g.check_consistency();
        assert_eq!(g.node(l).unwrap().vars(), &set(&[Y]));
        assert_eq!(g.node(m).unwrap().vars(), &set(&[X]));
        // m follows l; no cycle possible (W_IP reads nothing).
        assert!(g.node(l).unwrap().succs().contains(&m));
        assert_eq!(g.minimal_nodes(), vec![l]);
    }

    #[test]
    fn identity_writes_reduce_vars_to_one_then_zero() {
        let mut g = RWGraph::new();
        let l = g.add_op(&Operation::logical(0, &[9], &[X, Y, B]));
        assert_eq!(g.node(l).unwrap().vars().len(), 3);
        g.add_op(&table1::identity_write(OpId(1), oid(X), Value::from("x")));
        g.add_op(&table1::identity_write(OpId(2), oid(Y), Value::from("y")));
        assert_eq!(g.node(l).unwrap().vars(), &set(&[B]));
        // Even |vars| = 0 is possible.
        g.add_op(&table1::identity_write(OpId(3), oid(B), Value::from("b")));
        g.check_consistency();
        assert!(g.node(l).unwrap().vars().is_empty());
        assert_eq!(g.node(l).unwrap().notx(), set(&[X, Y, B]));
        // l is still minimal and installable (flushing nothing).
        assert!(g.minimal_nodes().contains(&l));
    }

    #[test]
    fn chained_blind_writes_keep_single_home() {
        let mut g = RWGraph::new();
        g.add_op(&Operation::physical(0, X, Value::from("v1")));
        g.add_op(&Operation::physical(1, X, Value::from("v2")));
        let n3 = g.add_op(&Operation::physical(2, X, Value::from("v3")));
        g.check_consistency();
        // X lives in exactly one flush set: the latest writer's.
        assert_eq!(g.home_of(oid(X)), Some(n3));
        let homes: Vec<NodeId> = g
            .node_ids()
            .filter(|&id| g.node(id).unwrap().vars().contains(&oid(X)))
            .collect();
        assert_eq!(homes, vec![n3]);
    }

    #[test]
    fn reader_of_unexposed_version_must_install_first() {
        // w1 writes X; r reads X; w2 blindly writes X.
        // r's node must precede w1's node (inverse write-read edge), and
        // w1 → w2 (write-write).
        let mut g = RWGraph::new();
        let n1 = g.add_op(&Operation::logical(0, &[7], &[X]));
        let nr = g.add_op(&Operation::logical(1, &[X], &[B]));
        let n2 = g.add_op(&Operation::physical(2, X, Value::from("v")));
        g.check_consistency();
        assert!(g.node(nr).unwrap().succs().contains(&n1));
        assert!(g.node(n1).unwrap().succs().contains(&n2));
        assert_eq!(g.node(n1).unwrap().vars().len(), 0);
        assert_eq!(g.node(n1).unwrap().notx(), set(&[X]));
    }

    #[test]
    fn removal_then_new_ops_work() {
        let mut g = RWGraph::new();
        let n1 = g.add_op(&Operation::physiological(0, X));
        g.remove_node(n1);
        assert!(g.is_empty());
        // New op on the same object gets a fresh node; no stale edges.
        let n2 = g.add_op(&Operation::physiological(1, X));
        g.check_consistency();
        assert_eq!(g.minimal_nodes(), vec![n2]);
    }

    #[test]
    fn physiological_workload_never_builds_multi_object_sets() {
        let mut g = RWGraph::new();
        for i in 0..20 {
            g.add_op(&Operation::physiological(i, i % 5));
        }
        g.check_consistency();
        assert!(g.flush_set_sizes().iter().all(|&s| s == 1));
    }

    #[test]
    fn flush_set_sizes_sorted_desc() {
        let mut g = RWGraph::new();
        g.add_op(&Operation::logical(0, &[9], &[X, Y]));
        g.add_op(&Operation::physiological(1, 77));
        assert_eq!(g.flush_set_sizes(), vec![2, 1]);
    }
}
