//! Transactional dependency graphs (Definition 3 of the paper).
//!
//! A dependency graph extends a history with labelled edges between
//! transactions:
//!
//! * `SO` — session order,
//! * `RT` — real-time order (needed only for strict serializability),
//! * `WR(x)` — `T → S` when `S` reads from `x` the value written by `T`,
//! * `WW(x)` — a version order among the transactions writing `x`,
//! * `RW(x)` — the anti-dependency derived from `WR` and `WW`.
//!
//! [`DependencyGraph`] is the labelled edges as one list: what
//! `BUILDDEPENDENCY` returns, and what the reference checkers of `mtc-core`
//! search. It offers projections onto the unlabelled, frozen [`DiGraph`]
//! used for cycle detection, and labels a node cycle back into a readable
//! counterexample. The streaming engine keeps no such list: each edge it
//! derives is one entry of its maintained order's rows, labelled in place
//! ([`crate::IncrementalTopo`], [`crate::EdgeTag`]) by the rank
//! [`DependencyGraph::label_hop`] goes by, the first to arrive among equals.

use crate::graph::DiGraph;
use crate::txn::TxnId;
use crate::value::Key;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The kind of a dependency edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeKind {
    /// Session order.
    So,
    /// Real-time order.
    Rt,
    /// Write-read dependency on a key.
    Wr(Key),
    /// Write-write dependency on a key.
    Ww(Key),
    /// Read-write anti-dependency on a key.
    Rw(Key),
}

impl EdgeKind {
    /// True for `RW(_)`.
    #[inline]
    pub fn is_rw(self) -> bool {
        matches!(self, EdgeKind::Rw(_))
    }

    /// Where the kind stands when a counterexample's hop has edges of
    /// several kinds: `WW`, `WR`, `RW`, `SO`, `RT`, best first, to match the
    /// paper's counterexample style. Among edges of one rank a hop reports
    /// the first in its source's row.
    #[inline]
    pub fn label_rank(self) -> u8 {
        match self {
            EdgeKind::Ww(_) => 0,
            EdgeKind::Wr(_) => 1,
            EdgeKind::Rw(_) => 2,
            EdgeKind::So => 3,
            EdgeKind::Rt => 4,
        }
    }

    /// The key the edge is about, if any.
    #[inline]
    pub fn key(self) -> Option<Key> {
        match self {
            EdgeKind::Wr(k) | EdgeKind::Ww(k) | EdgeKind::Rw(k) => Some(k),
            _ => None,
        }
    }
}

impl fmt::Debug for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::So => write!(f, "SO"),
            EdgeKind::Rt => write!(f, "RT"),
            EdgeKind::Wr(k) => write!(f, "WR({k})"),
            EdgeKind::Ww(k) => write!(f, "WW({k})"),
            EdgeKind::Rw(k) => write!(f, "RW({k})"),
        }
    }
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A labelled dependency edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    /// Source transaction.
    pub from: TxnId,
    /// Target transaction.
    pub to: TxnId,
    /// Edge label.
    pub kind: EdgeKind,
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -{}-> {}", self.from, self.kind, self.to)
    }
}

/// A dependency graph over the transactions of a history: its labelled
/// edges, one list in the order they were added.
///
/// Nodes are transaction indices; `node_count` only bounds the id space.
/// The list is the whole structure, and what is serialized is what is
/// held: a deserialized graph is ready as it is read.
///
/// The public `BUILDDEPENDENCY` entry points of `mtc-core` return one. No
/// cycle search walks it: [`DependencyGraph::project`] freezes it for the
/// searches. The queries about one source scan the list; only certificates
/// and tests ask them.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DependencyGraph {
    node_count: usize,
    edges: Vec<Edge>,
}

impl DependencyGraph {
    /// The graph over `node_count` transactions with the given edges, in
    /// list order: what adding them one by one gives.
    pub fn from_edges(node_count: usize, edges: Vec<Edge>) -> Self {
        debug_assert!(edges
            .iter()
            .all(|e| e.from.index() < node_count && e.to.index() < node_count));
        DependencyGraph { node_count, edges }
    }

    /// Number of transactions (nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of labelled edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True iff the exact labelled edge is present.
    pub fn contains_edge(&self, from: TxnId, to: TxnId, kind: EdgeKind) -> bool {
        self.edges.contains(&Edge { from, to, kind })
    }

    /// All labelled edges, in the order they were added.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Labelled out-edges of `from`, in the order they were added.
    pub fn out_edges(&self, from: TxnId) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter().filter(move |e| e.from == from)
    }

    /// Projects the edges whose kind satisfies `pred` onto an unlabelled
    /// [`DiGraph`] for cycle analysis; a node's successors come in the order
    /// its edges were added.
    pub fn project<F>(&self, pred: F) -> DiGraph
    where
        F: Fn(EdgeKind) -> bool,
    {
        let matching = self.edges.iter().filter(|e| pred(e.kind));
        DiGraph::from_edges(
            self.node_count,
            matching.map(|e| (e.from.index(), e.to.index())),
        )
    }

    /// Projects *all* edges onto a [`DiGraph`].
    pub fn project_all(&self) -> DiGraph {
        self.project(|_| true)
    }

    /// True iff the subgraph restricted to edges matching `pred` is acyclic.
    pub fn is_acyclic<F>(&self, pred: F) -> bool
    where
        F: Fn(EdgeKind) -> bool,
    {
        self.project(pred).is_acyclic()
    }

    /// Finds a cycle (over edges matching `pred`) and labels it: for each
    /// consecutive node pair one labelled edge is selected (preferring, in
    /// order, `WW`, `WR`, `RW`, `SO`, `RT`: [`EdgeKind::label_rank`]).
    /// Returns `None` if the projection is acyclic. Every hop of the cycle
    /// is an edge of the projection, so a hop without a label is a bug
    /// (asserted in debug builds), never a silently shorter counterexample.
    pub fn find_labelled_cycle<F>(&self, pred: F) -> Option<Vec<Edge>>
    where
        F: Fn(EdgeKind) -> bool,
    {
        let cycle = self.project(&pred).find_cycle()?;
        let hop = |i: usize| self.label_hop(cycle[i], cycle[(i + 1) % cycle.len()], &pred);
        let labels: Vec<Option<Edge>> = (0..cycle.len()).map(hop).collect();
        debug_assert!(labels.iter().all(Option::is_some), "an unlabelled hop");
        Some(labels.into_iter().flatten().collect())
    }

    /// The labelled edge `u → v` of an allowed kind to report for that hop
    /// of a counterexample, if there is one: the best by
    /// [`EdgeKind::label_rank`], the first added among equals. One scan of
    /// the list.
    pub fn label_hop<F>(&self, u: usize, v: usize, pred: F) -> Option<Edge>
    where
        F: Fn(EdgeKind) -> bool,
    {
        let fits = |e: &&Edge| (e.from.index(), e.to.index()) == (u, v) && pred(e.kind);
        let best = self
            .edges
            .iter()
            .filter(fits)
            .min_by_key(|e| e.kind.label_rank());
        best.copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId(i)
    }

    /// The graph over `n` transactions with `edges`, in order.
    fn graph(n: usize, edges: &[(u32, u32, EdgeKind)]) -> DependencyGraph {
        let edges = edges.iter().map(|&(a, b, kind)| Edge {
            from: t(a),
            to: t(b),
            kind,
        });
        DependencyGraph::from_edges(n, edges.collect())
    }

    #[test]
    fn add_and_query_edges() {
        let g = graph(
            3,
            &[
                (0, 1, EdgeKind::Wr(Key(5))),
                (1, 2, EdgeKind::Ww(Key(5))),
                (0, 2, EdgeKind::So),
            ],
        );
        assert_eq!(g.edge_count(), 3);
        assert!(g.contains_edge(t(0), t(1), EdgeKind::Wr(Key(5))));
        assert!(!g.contains_edge(t(0), t(1), EdgeKind::Ww(Key(5))));
        let out: Vec<_> = g.out_edges(t(0)).map(|e| (e.to, e.kind)).collect();
        assert_eq!(out, [(t(1), EdgeKind::Wr(Key(5))), (t(2), EdgeKind::So)]);
        assert!(g.out_edges(t(2)).next().is_none());
        // What is serialized is the whole graph: the list reads back as it
        // was written and answers the same queries.
        let json = serde_json::to_string(&g).unwrap();
        let back: DependencyGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(back.edges(), g.edges());
        assert_eq!(back.node_count(), 3);
        assert!(back.contains_edge(t(1), t(2), EdgeKind::Ww(Key(5))));
    }

    #[test]
    fn projection_and_acyclicity() {
        let g = graph(
            3,
            &[
                (0, 1, EdgeKind::So),
                (1, 2, EdgeKind::Wr(Key(0))),
                (2, 0, EdgeKind::Rw(Key(0))),
            ],
        );
        // Full graph is cyclic ...
        assert!(!g.is_acyclic(|_| true));
        // ... but the SO∪WR projection is acyclic.
        assert!(g.is_acyclic(|k| matches!(k, EdgeKind::So | EdgeKind::Wr(_))));
    }

    #[test]
    fn labelled_cycle_extraction_prefers_dependency_kinds() {
        let mut edges = vec![
            (0, 1, EdgeKind::Rt),
            (0, 1, EdgeKind::Ww(Key(1))),
            (1, 0, EdgeKind::Rw(Key(1))),
        ];
        let g = graph(2, &edges);
        let cycle = g.find_labelled_cycle(|_| true).unwrap();
        assert_eq!(cycle.len(), 2);
        // The WW edge is preferred over the RT edge for the 0→1 leg.
        let leg01 = cycle.iter().find(|e| e.from == t(0)).unwrap();
        assert_eq!(leg01.kind, EdgeKind::Ww(Key(1)));
        // Among edges of one rank the first added is reported.
        edges.push((0, 1, EdgeKind::Ww(Key(0))));
        let g = graph(2, &edges);
        let hop = g.label_hop(0, 1, |_| true).unwrap();
        assert_eq!(hop.kind, EdgeKind::Ww(Key(1)));
        let hop = g.label_hop(0, 1, |k| k.key() != Some(Key(1))).unwrap();
        assert_eq!(hop.kind, EdgeKind::Ww(Key(0)));
    }

    #[test]
    fn display_of_edges() {
        let e = Edge {
            from: t(1),
            to: t(2),
            kind: EdgeKind::Wr(Key(3)),
        };
        assert_eq!(format!("{e:?}"), "T1 -WR(3)-> T2");
    }
}
