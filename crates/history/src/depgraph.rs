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
//! [`DependencyGraph`] stores the labelled edges — it can grow edge by edge,
//! which the streaming engine needs — and offers projections onto the
//! unlabelled, frozen [`DiGraph`] used for cycle detection, plus helpers to
//! label a node cycle back into a readable counterexample.

use crate::fasthash::FastHashMap;
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
    /// True for `WR(_)`.
    #[inline]
    pub fn is_wr(self) -> bool {
        matches!(self, EdgeKind::Wr(_))
    }

    /// True for `WW(_)`.
    #[inline]
    pub fn is_ww(self) -> bool {
        matches!(self, EdgeKind::Ww(_))
    }

    /// True for `RW(_)`.
    #[inline]
    pub fn is_rw(self) -> bool {
        matches!(self, EdgeKind::Rw(_))
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

/// A dependency graph over the transactions of a history.
///
/// Nodes are transaction indices; `node_count` only bounds the id space
/// (ids are never recycled). The adjacency index is keyed by source node, so
/// a graph whose settled prefix has been pruned
/// ([`DependencyGraph::prune_nodes`]) holds memory proportional to its
/// *live* edges, not to every transaction ever admitted.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DependencyGraph {
    node_count: usize,
    edges: Vec<Edge>,
    /// Labelled edges pruned away by settled-prefix GC (kept so
    /// `edge_count` keeps reporting the historical total).
    pruned_edges: usize,
    /// Adjacency rows (indices into `edges`) for sources `>= adj_base`,
    /// indexed by `from - adj_base`: the hot window of recent transactions
    /// resolves out-edge lookups with plain index arithmetic. Never
    /// serialized; [`DependencyGraph::rebuild_index`] restores it.
    #[serde(skip)]
    dense: Vec<Vec<u32>>,
    /// First source id covered by `dense`. Sources below it are the few
    /// long-lived stragglers GC retains (`⊥T`, session frontiers) and live
    /// in `adj_low`; [`DependencyGraph::rebuild_index`] picks the split so
    /// the dense span stays proportional to the live row count.
    #[serde(skip)]
    adj_base: u32,
    /// Adjacency rows for the sparse sources below `adj_base`.
    #[serde(skip)]
    adj_low: FastHashMap<u32, Vec<u32>>,
}

impl DependencyGraph {
    /// Creates an empty dependency graph over `node_count` transactions.
    pub fn new(node_count: usize) -> Self {
        DependencyGraph {
            node_count,
            edges: Vec::new(),
            pruned_edges: 0,
            dense: Vec::new(),
            adj_base: 0,
            adj_low: FastHashMap::default(),
        }
    }

    /// Number of transactions (nodes).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Appends a fresh node (transaction slot) with no edges, returning its
    /// index. Supports the streaming checkers, whose graphs grow one
    /// committed transaction at a time.
    pub fn add_node(&mut self) -> usize {
        self.node_count += 1;
        self.node_count - 1
    }

    /// Number of labelled edges ever added (including any pruned away by
    /// [`DependencyGraph::prune_nodes`]).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len() + self.pruned_edges
    }

    /// Number of labelled edges currently resident.
    #[inline]
    pub fn live_edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a labelled edge.
    pub fn add_edge(&mut self, from: TxnId, to: TxnId, kind: EdgeKind) {
        debug_assert!(from.index() < self.node_count && to.index() < self.node_count);
        let idx = self.edges.len() as u32;
        self.edges.push(Edge { from, to, kind });
        self.row_mut(from.0).push(idx);
    }

    /// Adds a labelled edge unless an identical one is already present.
    pub fn add_edge_dedup(&mut self, from: TxnId, to: TxnId, kind: EdgeKind) {
        if !self.contains_edge(from, to, kind) {
            self.add_edge(from, to, kind);
        }
    }

    /// The adjacency row of `from` (empty when the node has no out-edges).
    #[inline]
    fn row(&self, from: u32) -> &[u32] {
        if from >= self.adj_base {
            self.dense
                .get((from - self.adj_base) as usize)
                .map(Vec::as_slice)
                .unwrap_or(&[])
        } else {
            self.adj_low.get(&from).map(Vec::as_slice).unwrap_or(&[])
        }
    }

    /// The mutable adjacency row of `from`, growing the dense window on
    /// demand for fresh sources.
    #[inline]
    fn row_mut(&mut self, from: u32) -> &mut Vec<u32> {
        if from >= self.adj_base {
            let i = (from - self.adj_base) as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, Vec::new);
            }
            &mut self.dense[i]
        } else {
            self.adj_low.entry(from).or_default()
        }
    }

    /// True iff the exact labelled edge is present.
    pub fn contains_edge(&self, from: TxnId, to: TxnId, kind: EdgeKind) -> bool {
        self.row(from.0)
            .iter()
            .any(|&i| self.edges[i as usize].to == to && self.edges[i as usize].kind == kind)
    }

    /// True iff some edge of any kind goes `from → to`.
    pub fn contains_any_edge(&self, from: TxnId, to: TxnId) -> bool {
        self.row(from.0)
            .iter()
            .any(|&i| self.edges[i as usize].to == to)
    }

    /// All labelled edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Labelled out-edges of `from`.
    pub fn out_edges(&self, from: TxnId) -> impl Iterator<Item = &Edge> + '_ {
        self.row(from.0)
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Edges whose kind satisfies `pred`.
    pub fn edges_matching<'a, F>(&'a self, pred: F) -> impl Iterator<Item = &'a Edge> + 'a
    where
        F: Fn(EdgeKind) -> bool + 'a,
    {
        self.edges.iter().filter(move |e| pred(e.kind))
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
    /// order, `WW`, `WR`, `RW`, `SO`, `RT`, to match the paper's
    /// counterexample style). Returns `None` if the projection is acyclic.
    pub fn find_labelled_cycle<F>(&self, pred: F) -> Option<Vec<Edge>>
    where
        F: Fn(EdgeKind) -> bool + Copy,
    {
        let projected = self.project(pred);
        let cycle = projected.find_cycle()?;
        Some(self.label_node_cycle(&cycle, pred))
    }

    /// Labels a node cycle obtained from a projection: one [`label_hop`]
    /// per consecutive pair of nodes. Every hop of such a cycle is an edge of
    /// the projection, so a hop without a label is a bug (asserted in debug
    /// builds), never a silently shorter counterexample.
    ///
    /// [`label_hop`]: DependencyGraph::label_hop
    pub fn label_node_cycle<F>(&self, cycle: &[usize], pred: F) -> Vec<Edge>
    where
        F: Fn(EdgeKind) -> bool,
    {
        let mut labelled = Vec::with_capacity(cycle.len());
        for i in 0..cycle.len() {
            let (u, v) = (cycle[i], cycle[(i + 1) % cycle.len()]);
            let hop = self.label_hop(u, v, &pred);
            debug_assert!(hop.is_some(), "no labelled edge for the hop {u}->{v}");
            labelled.extend(hop);
        }
        labelled
    }

    /// The labelled edge `u → v` of an allowed kind to report for that hop
    /// of a counterexample, if there is one (kinds ranked as in
    /// [`DependencyGraph::find_labelled_cycle`]).
    pub fn label_hop<F>(&self, u: usize, v: usize, pred: F) -> Option<Edge>
    where
        F: Fn(EdgeKind) -> bool,
    {
        let rank = |k: EdgeKind| match k {
            EdgeKind::Ww(_) => 0,
            EdgeKind::Wr(_) => 1,
            EdgeKind::Rw(_) => 2,
            EdgeKind::So => 3,
            EdgeKind::Rt => 4,
        };
        self.out_edges(TxnId(u as u32))
            .filter(|e| e.to.index() == v && pred(e.kind))
            .min_by_key(|e| rank(e.kind))
            .copied()
    }

    /// The `WW(key)` successors of `from` (direct edges only).
    pub fn ww_successors(&self, from: TxnId, key: Key) -> Vec<TxnId> {
        self.out_edges(from)
            .filter(|e| e.kind == EdgeKind::Ww(key))
            .map(|e| e.to)
            .collect()
    }

    /// Count of edges per kind class `(so, rt, wr, ww, rw)`.
    pub fn edge_kind_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0, 0);
        for e in &self.edges {
            match e.kind {
                EdgeKind::So => c.0 += 1,
                EdgeKind::Rt => c.1 += 1,
                EdgeKind::Wr(_) => c.2 += 1,
                EdgeKind::Ww(_) => c.3 += 1,
                EdgeKind::Rw(_) => c.4 += 1,
            }
        }
        c
    }

    /// Rebuilds the adjacency index. Needed after deserialization (the
    /// adjacency is not serialized) and after [`DependencyGraph::prune_nodes`].
    ///
    /// The dense/low split is re-chosen here: the smallest base whose dense
    /// span `node_count - base` stays within twice the number of live
    /// sources above it (plus slack). On an un-GC'd graph every source is
    /// dense; under GC the handful of retained low sources (`⊥T`, session
    /// frontiers) spill to the hash map and the dense window tracks the
    /// live tail, keeping resident index memory proportional to live edges.
    pub fn rebuild_index(&mut self) {
        let mut sources: Vec<u32> = self.edges.iter().map(|e| e.from.0).collect();
        sources.sort_unstable();
        sources.dedup();
        let n = self.node_count as u32;
        let m = sources.len();
        let mut base = n;
        for (i, &s) in sources.iter().enumerate() {
            if n.saturating_sub(s) as usize <= 2 * (m - i) + 64 {
                base = s;
                break;
            }
        }
        self.adj_base = base;
        self.dense = Vec::new();
        self.dense.resize_with((n - base) as usize, Vec::new);
        self.adj_low = FastHashMap::default();
        for i in 0..self.edges.len() {
            let from = self.edges[i].from.0;
            self.row_mut(from).push(i as u32);
        }
    }

    /// Drops every labelled edge with an endpoint for which `pruned`
    /// returns true, freeing the corresponding adjacency rows. Used by the
    /// settled-prefix GC of the streaming checkers: pruned transactions can
    /// no longer appear in any counterexample, so their edges are dead
    /// weight. [`DependencyGraph::edge_count`] keeps counting them;
    /// [`DependencyGraph::live_edge_count`] does not.
    pub fn prune_nodes(&mut self, pruned: impl Fn(TxnId) -> bool) {
        let before = self.edges.len();
        self.edges.retain(|e| !pruned(e.from) && !pruned(e.to));
        self.pruned_edges += before - self.edges.len();
        self.rebuild_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId(i)
    }

    #[test]
    fn add_and_query_edges() {
        let mut g = DependencyGraph::new(3);
        g.add_edge(t(0), t(1), EdgeKind::Wr(Key(5)));
        g.add_edge(t(1), t(2), EdgeKind::Ww(Key(5)));
        g.add_edge_dedup(t(1), t(2), EdgeKind::Ww(Key(5)));
        assert_eq!(g.edge_count(), 2);
        assert!(g.contains_edge(t(0), t(1), EdgeKind::Wr(Key(5))));
        assert!(!g.contains_edge(t(0), t(1), EdgeKind::Ww(Key(5))));
        assert!(g.contains_any_edge(t(1), t(2)));
        assert!(!g.contains_any_edge(t(2), t(1)));
        assert_eq!(g.ww_successors(t(1), Key(5)), vec![t(2)]);
        assert_eq!(g.ww_successors(t(1), Key(6)), Vec::<TxnId>::new());
    }

    #[test]
    fn projection_and_acyclicity() {
        let mut g = DependencyGraph::new(3);
        g.add_edge(t(0), t(1), EdgeKind::So);
        g.add_edge(t(1), t(2), EdgeKind::Wr(Key(0)));
        g.add_edge(t(2), t(0), EdgeKind::Rw(Key(0)));
        // Full graph is cyclic ...
        assert!(!g.is_acyclic(|_| true));
        // ... but the SO∪WR projection is acyclic.
        assert!(g.is_acyclic(|k| matches!(k, EdgeKind::So | EdgeKind::Wr(_))));
    }

    #[test]
    fn labelled_cycle_extraction_prefers_dependency_kinds() {
        let mut g = DependencyGraph::new(2);
        g.add_edge(t(0), t(1), EdgeKind::Rt);
        g.add_edge(t(0), t(1), EdgeKind::Ww(Key(1)));
        g.add_edge(t(1), t(0), EdgeKind::Rw(Key(1)));
        let cycle = g.find_labelled_cycle(|_| true).unwrap();
        assert_eq!(cycle.len(), 2);
        // The WW edge is preferred over the RT edge for the 0→1 leg.
        let leg01 = cycle.iter().find(|e| e.from == t(0)).unwrap();
        assert_eq!(leg01.kind, EdgeKind::Ww(Key(1)));
    }

    #[test]
    fn edge_kind_counts_are_tracked() {
        let mut g = DependencyGraph::new(4);
        g.add_edge(t(0), t(1), EdgeKind::So);
        g.add_edge(t(0), t(2), EdgeKind::Rt);
        g.add_edge(t(1), t(2), EdgeKind::Wr(Key(0)));
        g.add_edge(t(1), t(3), EdgeKind::Ww(Key(0)));
        g.add_edge(t(2), t(3), EdgeKind::Rw(Key(0)));
        g.add_edge(t(3), t(0), EdgeKind::Rw(Key(1)));
        assert_eq!(g.edge_kind_counts(), (1, 1, 1, 1, 2));
    }

    #[test]
    fn rebuild_index_restores_adjacency() {
        let mut g = DependencyGraph::new(2);
        g.add_edge(t(0), t(1), EdgeKind::So);
        let json = serde_json::to_string(&g).unwrap();
        let mut back: DependencyGraph = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert!(back.contains_edge(t(0), t(1), EdgeKind::So));
    }

    #[test]
    fn prune_nodes_drops_incident_edges_but_keeps_totals() {
        let mut g = DependencyGraph::new(4);
        g.add_edge(t(0), t(1), EdgeKind::So);
        g.add_edge(t(1), t(2), EdgeKind::Wr(Key(0)));
        g.add_edge(t(2), t(3), EdgeKind::Ww(Key(0)));
        g.prune_nodes(|id| id.0 <= 1);
        assert_eq!(g.edge_count(), 3, "historical total is preserved");
        assert_eq!(g.live_edge_count(), 1);
        assert!(g.contains_edge(t(2), t(3), EdgeKind::Ww(Key(0))));
        assert!(!g.contains_edge(t(0), t(1), EdgeKind::So));
        assert!(!g.contains_any_edge(t(1), t(2)));
        // The graph keeps accepting edges among live nodes.
        g.add_edge(t(3), t(2), EdgeKind::Rw(Key(0)));
        assert_eq!(g.live_edge_count(), 2);
        assert!(g.contains_edge(t(3), t(2), EdgeKind::Rw(Key(0))));
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
