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

/// A dependency graph over the transactions of a history.
///
/// Nodes are transaction indices; `node_count` only bounds the id space
/// (ids are never recycled). The adjacency index is keyed by source node, so
/// a graph whose settled prefix has been pruned
/// ([`DependencyGraph::prune_nodes`]) holds memory proportional to its
/// *live* edges, not to every transaction ever admitted.
///
/// The adjacency is an intrusive list over `edges`: a source's row is the
/// chain of edge indices from its head along `next`, in the order the edges
/// were added. A row costs its source eight bytes and no heap block of its
/// own, so a streamed transaction allocates nothing for its row. The index
/// is never serialized; [`DependencyGraph::rebuild_index`] restores it.
///
/// This is the graph that grows: the streaming engine's, and what the
/// public `BUILDDEPENDENCY` entry points of `mtc-core` return
/// ([`DependencyGraph::from_edges`] links their list once). The batch
/// checkers themselves keep their edges as a plain list and search a frozen
/// layout of it; they never build one of these.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DependencyGraph {
    node_count: usize,
    edges: Vec<Edge>,
    /// Labelled edges pruned away by settled-prefix GC (kept so
    /// `edge_count` keeps reporting the historical total).
    pruned_edges: usize,
    /// `next[i]`: the edge after `edges[i]` in its source's row, or [`NIL`].
    #[serde(skip)]
    next: Vec<u32>,
    /// Rows of the sources `>= adj_base`, indexed by `from - adj_base`: the
    /// hot window of recent transactions resolves out-edge lookups with
    /// plain index arithmetic.
    #[serde(skip)]
    dense: Vec<RowEnds>,
    /// First source id covered by `dense`. Sources below it are the few
    /// long-lived stragglers GC retains (`⊥T`, session frontiers) and live
    /// in `adj_low`; [`DependencyGraph::rebuild_index`] picks the split so
    /// the dense span stays proportional to the live row count.
    #[serde(skip)]
    adj_base: u32,
    /// Rows of the sparse sources below `adj_base`.
    #[serde(skip)]
    adj_low: FastHashMap<u32, RowEnds>,
}

/// "No edge": the end of a row, and both ends of an empty one.
const NIL: u32 = u32::MAX;

/// First and last edge index of one source's row.
#[derive(Clone, Copy, Debug)]
struct RowEnds {
    head: u32,
    tail: u32,
}

impl Default for RowEnds {
    fn default() -> Self {
        RowEnds {
            head: NIL,
            tail: NIL,
        }
    }
}

impl DependencyGraph {
    /// Creates an empty dependency graph over `node_count` transactions.
    pub fn new(node_count: usize) -> Self {
        DependencyGraph {
            node_count,
            edges: Vec::new(),
            pruned_edges: 0,
            next: Vec::new(),
            dense: Vec::new(),
            adj_base: 0,
            adj_low: FastHashMap::default(),
        }
    }

    /// The graph over `node_count` transactions with the given edges, each
    /// source's row in list order: what adding them one by one gives, with
    /// every row linked in one pass over the list.
    pub fn from_edges(node_count: usize, edges: Vec<Edge>) -> Self {
        assert!(
            u32::try_from(edges.len()).is_ok_and(|len| len != NIL),
            "{} edges do not fit in a u32",
            edges.len()
        );
        let mut graph = DependencyGraph::new(node_count);
        graph.dense = vec![RowEnds::default(); node_count];
        graph.next = vec![NIL; edges.len()];
        for (i, e) in edges.iter().enumerate() {
            debug_assert!(e.from.index() < node_count && e.to.index() < node_count);
            let row = &mut graph.dense[e.from.index()];
            match row.tail {
                NIL => row.head = i as u32,
                tail => graph.next[tail as usize] = i as u32,
            }
            row.tail = i as u32;
        }
        graph.edges = edges;
        graph
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
        self.edges.push(Edge { from, to, kind });
        self.link(self.edges.len() - 1);
    }

    /// Adds a labelled edge unless an identical one is already present.
    pub fn add_edge_dedup(&mut self, from: TxnId, to: TxnId, kind: EdgeKind) {
        if !self.contains_edge(from, to, kind) {
            self.add_edge(from, to, kind);
        }
    }

    /// Appends `edges[index]` to its source's row, growing the dense window
    /// on demand for fresh sources.
    #[inline]
    fn link(&mut self, index: usize) {
        // Edges a deserialized graph holds stay unindexed until
        // `rebuild_index`; the ones added meanwhile are indexed.
        self.next.resize(index + 1, NIL);
        let from = self.edges[index].from.0;
        let row = if from >= self.adj_base {
            let i = (from - self.adj_base) as usize;
            if i >= self.dense.len() {
                self.dense.resize_with(i + 1, RowEnds::default);
            }
            &mut self.dense[i]
        } else {
            self.adj_low.entry(from).or_default()
        };
        match row.tail {
            NIL => row.head = index as u32,
            tail => self.next[tail as usize] = index as u32,
        }
        row.tail = index as u32;
    }

    /// The edges of `from`'s row, in the order they were added.
    #[inline]
    fn row(&self, from: u32) -> impl Iterator<Item = &Edge> + '_ {
        let ends = if from >= self.adj_base {
            self.dense.get((from - self.adj_base) as usize)
        } else {
            self.adj_low.get(&from)
        };
        let mut at = ends.map_or(NIL, |ends| ends.head);
        std::iter::from_fn(move || {
            let edge = self.edges.get(at as usize)?;
            at = self.next[at as usize];
            Some(edge)
        })
    }

    /// True iff the exact labelled edge is present.
    pub fn contains_edge(&self, from: TxnId, to: TxnId, kind: EdgeKind) -> bool {
        self.row(from.0).any(|e| e.to == to && e.kind == kind)
    }

    /// True iff some edge of any kind goes `from → to`.
    pub fn contains_any_edge(&self, from: TxnId, to: TxnId) -> bool {
        self.row(from.0).any(|e| e.to == to)
    }

    /// All labelled edges.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Labelled out-edges of `from`.
    pub fn out_edges(&self, from: TxnId) -> impl Iterator<Item = &Edge> + '_ {
        self.row(from.0)
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
    /// Returns `None` if the projection is acyclic.
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
    /// of a counterexample, if there is one (kinds ranked by
    /// [`EdgeKind::label_rank`]).
    pub fn label_hop<F>(&self, u: usize, v: usize, pred: F) -> Option<Edge>
    where
        F: Fn(EdgeKind) -> bool,
    {
        self.out_edges(TxnId(u as u32))
            .filter(|e| e.to.index() == v && pred(e.kind))
            .min_by_key(|e| e.kind.label_rank())
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
        self.dense.clear();
        self.dense
            .resize_with((n - base) as usize, RowEnds::default);
        self.adj_low = FastHashMap::default();
        self.next.clear();
        for i in 0..self.edges.len() {
            self.link(i);
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

    /// The intrusive rows against a scan of `edges()`: same out-edges in the
    /// same (insertion) order, same membership answers, same reported hop —
    /// through interleaved `add_edge` and `prune_nodes`, which re-chooses the
    /// dense / low split and leaves `⊥T`'s row in the low map.
    #[test]
    fn rows_agree_with_a_scan_of_the_edge_list() {
        let mut state = 0x5EED_0FED_6E50_u64;
        let mut next = |bound: u64| crate::split_mix(&mut state) % bound;
        let kinds = [
            EdgeKind::So,
            EdgeKind::Rt,
            EdgeKind::Wr(Key(1)),
            EdgeKind::Ww(Key(1)),
            EdgeKind::Rw(Key(1)),
            EdgeKind::Rw(Key(2)),
        ];
        let agree = |g: &DependencyGraph| {
            for from in 0..g.node_count() as u32 {
                let scanned: Vec<Edge> = g
                    .edges()
                    .iter()
                    .filter(|e| e.from == t(from))
                    .copied()
                    .collect();
                let row: Vec<Edge> = g.out_edges(t(from)).copied().collect();
                assert_eq!(row, scanned, "row of T{from}");
                for to in 0..g.node_count() as u32 {
                    for kind in kinds {
                        let wanted = Edge {
                            from: t(from),
                            to: t(to),
                            kind,
                        };
                        assert_eq!(
                            g.contains_edge(t(from), t(to), kind),
                            scanned.contains(&wanted)
                        );
                    }
                    // Kinds are ranked WW, WR, RW, SO, RT; the first of the
                    // best rank in insertion order is reported.
                    let rank = |e: &&Edge| match e.kind {
                        EdgeKind::Ww(_) => 0,
                        EdgeKind::Wr(_) => 1,
                        EdgeKind::Rw(_) => 2,
                        EdgeKind::So => 3,
                        EdgeKind::Rt => 4,
                    };
                    let hop = scanned.iter().filter(|e| e.to == t(to)).min_by_key(rank);
                    assert_eq!(
                        g.label_hop(from as usize, to as usize, |_| true),
                        hop.copied()
                    );
                }
            }
        };
        for _round in 0..4 {
            // `⊥T` stays and keeps gaining out-edges; everything else lives
            // in a window the prunes slide along.
            let mut g = DependencyGraph::new(1);
            let mut floor = 1u32;
            for step in 0..400 {
                let n = g.add_node() as u32 + 1;
                for _ in 0..next(4) {
                    let pick = |r: u64| floor + r as u32;
                    let from = if next(8) == 0 {
                        0
                    } else {
                        pick(next((n - floor) as u64))
                    };
                    let to = pick(next((n - floor) as u64));
                    g.add_edge(t(from), t(to), kinds[next(6) as usize]);
                }
                if step % 40 == 39 {
                    let cut = n - 20;
                    g.prune_nodes(|id| id.0 != 0 && id.0 < cut);
                    floor = cut;
                    agree(&g);
                }
            }
            assert!(g.adj_base > 0, "⊥T's row must have moved to the low map");
            agree(&g);
            // The same list linked in one pass.
            agree(&DependencyGraph::from_edges(
                g.node_count(),
                g.edges().to_vec(),
            ));
            let json = serde_json::to_string(&g).unwrap();
            let mut back: DependencyGraph = serde_json::from_str(&json).unwrap();
            back.rebuild_index();
            agree(&back);
        }
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
