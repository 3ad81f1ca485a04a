//! The installation graph (§2).
//!
//! Nodes are operations; edges constrain the order in which their effects
//! may be made part of the stable state. Derived from the conflict graph by
//! keeping all *read-write* edges (a later operation updates an object an
//! earlier one read), discarding all *write-read* edges, and keeping some
//! *write-write* edges.
//!
//! For write-write edges the paper defers to the `must(O)`/`can(O)` analysis
//! of \[LT95\] and then side-steps it: the recovery strategy pursued here
//! "never resets state during recovery, and hence write-write order will not
//! be violated". We keep the conservative superset — every write-write
//! conflict edge — which can only make write graphs coarser, never unsound
//! (collapsing more can only enlarge atomic flush sets).

use std::collections::BTreeSet;

use llog_ops::Operation;
use llog_types::OpId;

/// Why an installation edge exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// `readset(O) ∩ writeset(P) ≠ ∅` for `O < P`: replaying `O` needs the
    /// value `P` overwrites, so `O` must install first.
    ReadWrite,
    /// `writeset(O) ∩ writeset(P) ≠ ∅` for `O < P` (conservative `must(O)`).
    WriteWrite,
}

/// The installation graph over a window of operations in conflict order.
///
/// Indices into `ops` double as node ids; `OpId`s are preserved for
/// reporting. Edges always point from earlier to later operations, so the
/// graph is acyclic by construction.
#[derive(Debug, Clone)]
pub struct InstallGraph {
    ops: Vec<Operation>,
    /// `edges[i]` = set of `(j, kind)` with an edge `ops[i] → ops[j]`.
    edges: Vec<BTreeSet<(usize, EdgeKindOrd)>>,
}

/// `EdgeKind` with a total order so it can live in a `BTreeSet`.
type EdgeKindOrd = u8;
const RW: EdgeKindOrd = 0;
const WW: EdgeKindOrd = 1;

fn kind_of(k: EdgeKindOrd) -> EdgeKind {
    if k == RW {
        EdgeKind::ReadWrite
    } else {
        EdgeKind::WriteWrite
    }
}

impl InstallGraph {
    /// Build the installation graph for `ops`, which must be in conflict
    /// order. Quadratic in the window size — the window is the set of
    /// uninstalled cached operations, which cache management keeps small.
    pub fn build(ops: &[Operation]) -> InstallGraph {
        let mut edges = vec![BTreeSet::new(); ops.len()];
        for i in 0..ops.len() {
            for j in i + 1..ops.len() {
                let (o, p) = (&ops[i], &ops[j]);
                if o.reads.iter().any(|x| p.writes_obj(*x)) {
                    edges[i].insert((j, RW));
                }
                if o.writes.iter().any(|x| p.writes_obj(*x)) {
                    edges[i].insert((j, WW));
                }
            }
        }
        InstallGraph {
            ops: ops.to_vec(),
            edges,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations of this node/graph.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Is there an edge `i → j`?
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.edges[i].contains(&(j, RW)) || self.edges[i].contains(&(j, WW))
    }

    /// Has edge kind.
    pub fn has_edge_kind(&self, i: usize, j: usize, kind: EdgeKind) -> bool {
        let k = if kind == EdgeKind::ReadWrite { RW } else { WW };
        self.edges[i].contains(&(j, k))
    }

    /// All edges as `(from, to, kind)` triples.
    pub fn all_edges(&self) -> Vec<(usize, usize, EdgeKind)> {
        let mut out = Vec::new();
        for (i, es) in self.edges.iter().enumerate() {
            for &(j, k) in es {
                out.push((i, j, kind_of(k)));
            }
        }
        out
    }

    /// Is `installed` (a set of node indices) a *prefix set*: closed under
    /// installation predecessors?
    pub fn is_prefix_set(&self, installed: &BTreeSet<usize>) -> bool {
        for &j in installed {
            for i in 0..j {
                if self.has_edge(i, j) && !installed.contains(&i) {
                    return false;
                }
            }
        }
        true
    }

    /// Node indices with no uninstalled predecessors — the *minimal
    /// uninstalled operations* of Theorem 1.
    pub fn minimal_uninstalled(&self, installed: &BTreeSet<usize>) -> Vec<usize> {
        (0..self.ops.len())
            .filter(|j| !installed.contains(j))
            .filter(|&j| (0..j).all(|i| installed.contains(&i) || !self.has_edge(i, j)))
            .collect()
    }

    /// Map a node index back to the operation's id.
    pub fn op_id(&self, i: usize) -> OpId {
        self.ops[i].id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1(a): A: Y ← f(X,Y); B: X ← g(Y).
    fn figure_one() -> Vec<Operation> {
        vec![
            Operation::logical(0, &[1, 2], &[2]), // A reads X=1,Y=2 writes Y
            Operation::logical(1, &[2], &[1]),    // B reads Y writes X
        ]
    }

    #[test]
    fn figure_one_edges() {
        let g = InstallGraph::build(&figure_one());
        // A read X; B writes X ⇒ read-write edge A → B.
        assert!(g.has_edge_kind(0, 1, EdgeKind::ReadWrite));
        // No write-write edge (disjoint writesets).
        assert!(!g.has_edge_kind(0, 1, EdgeKind::WriteWrite));
        // Write-read (B reads Y written by A) is *discarded*: no edge B → A.
        assert!(!g.has_edge(1, 0));
    }

    #[test]
    fn write_write_edges_kept_conservatively() {
        let ops = vec![
            Operation::logical(0, &[], &[5]),
            Operation::logical(1, &[], &[5]),
        ];
        let g = InstallGraph::build(&ops);
        assert!(g.has_edge_kind(0, 1, EdgeKind::WriteWrite));
    }

    #[test]
    fn disjoint_ops_have_no_edges() {
        let ops = vec![
            Operation::logical(0, &[1], &[2]),
            Operation::logical(1, &[3], &[4]),
        ];
        let g = InstallGraph::build(&ops);
        assert!(g.all_edges().is_empty());
    }

    #[test]
    fn prefix_sets_and_minimal_ops() {
        // A → B (rw). {} and {A} are prefix sets; {B} is not.
        let g = InstallGraph::build(&figure_one());
        assert!(g.is_prefix_set(&BTreeSet::new()));
        assert!(g.is_prefix_set(&[0].into_iter().collect()));
        assert!(!g.is_prefix_set(&[1].into_iter().collect()));
        assert!(g.is_prefix_set(&[0, 1].into_iter().collect()));

        assert_eq!(g.minimal_uninstalled(&BTreeSet::new()), vec![0]);
        assert_eq!(g.minimal_uninstalled(&[0].into_iter().collect()), vec![1]);
        assert!(g
            .minimal_uninstalled(&[0, 1].into_iter().collect())
            .is_empty());
    }

    #[test]
    fn independent_ops_are_both_minimal() {
        let ops = vec![
            Operation::logical(0, &[1], &[2]),
            Operation::logical(1, &[3], &[4]),
        ];
        let g = InstallGraph::build(&ops);
        assert_eq!(g.minimal_uninstalled(&BTreeSet::new()), vec![0, 1]);
    }

    #[test]
    fn edges_point_forward_only() {
        // Regardless of structure, i → j implies i < j: acyclic by
        // construction.
        let ops = vec![
            Operation::logical(0, &[1, 2], &[2]),
            Operation::logical(1, &[2], &[1]),
            Operation::logical(2, &[1], &[2]),
            Operation::logical(3, &[2, 3], &[3, 1]),
        ];
        let g = InstallGraph::build(&ops);
        for (i, j, _) in g.all_edges() {
            assert!(i < j);
        }
    }
}
