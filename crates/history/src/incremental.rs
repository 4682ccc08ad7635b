//! Incremental cycle detection: online topological-order maintenance in the
//! style of Pearce & Kelly ("A Dynamic Topological Sort Algorithm for
//! Directed Acyclic Graphs", JEA 2007).
//!
//! The streaming verifiers of `mtc-core` grow their dependency graphs one
//! edge at a time as transactions commit. Re-running a full DFS/Tarjan pass
//! per insertion would cost `O(n·m)` over a history; [`IncrementalTopo`]
//! instead maintains a total order consistent with all edges and only
//! reorders the *affected region* — the nodes whose order is contradicted by
//! a newly inserted edge. For mini-transaction histories fed in commit
//! order, almost every edge points forward in the maintained order, so the
//! amortized cost per edge is `O(1)` and a whole history is processed in
//! `O(n)`.
//!
//! [`IncrementalTopo::try_add_edge`] is the one way in: it either accepts the
//! edge (adjusting the order if necessary) or rejects it and returns a
//! directed cycle as the counterexample — exactly the certificate the online
//! checkers hand back to the user. `mtc-core`'s SSER path feeds a
//! transaction's time-chain splice edges and its begin/end hook edges
//! through it one by one, and stops at the first rejection.
//!
//! ## Rows, labels, scratch and counters
//!
//! A node's successors and predecessors are two rows that hold their first
//! five ids in place and spill behind one pointer (`InlineSeq`), so adding a
//! node allocates nothing and most nodes never do; a row serializes as the
//! plain array a `Vec<u32>` would, which is all a snapshot sees of it. A
//! pair is held once: an edge whose pair is already in the row changes
//! nothing but, on a strictly better rank, the label its entry carries — a
//! forward entry is its target's 28-bit id with a 4-bit [`EdgeTag`] beneath
//! it, so `mtc-core`'s engine keeps each dependency edge in the order alone
//! and labels a cycle from the rows it runs through. The
//! reorder of a backward edge works in buffers the structure keeps between
//! calls (its DFS stack, the two node sets and their rank slots), so neither
//! an order-respecting edge nor one that reorders allocates; only a cycle
//! certificate builds its lists per call. [`IncrementalTopo::order_stats`]
//! counts what the order has cost: edges that agreed with it on arrival,
//! affected-region passes, and the nodes those re-ranked.

use crate::depgraph::EdgeKind;
use crate::inline_seq::InlineSeq;
use crate::value::Key;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One adjacency row: the first [`ROW_INLINE`] neighbours in place, the rest
/// behind one pointer — 32 bytes, against a 24-byte `Vec` header plus a heap
/// block for every node that has a neighbour at all.
type Row = InlineSeq<u32, ROW_INLINE>;

/// Neighbours a row holds in place: the most that fit 32 bytes beside the
/// length and the pointer. On `live_uniform`'s stream (seed 100, 20 000
/// transactions) a SER node has 2.9 successors on average, each pair once,
/// and 2.4 % of the rows in either direction hold more than five (6.9 %
/// more than four); of SSER's 60 000 nodes, two in three of them time
/// anchors, 2.3 %; of SI's 40 000, half of them tails, 10.5 %. While `WR`
/// and `WW` to one reader were two entries, SER read 4.0 successors and
/// 14.5 % (32.4 % over four). Four in place would take the same 32 bytes.
const ROW_INLINE: usize = 5;

/// Bits of a forward-row entry beneath its target's node id: its
/// [`EdgeTag`]. The 28 above name the target, so an order holds at most
/// [`MAX_NODES`] nodes.
const TAG_BITS: u32 = 4;
/// The most nodes an order can hold.
pub const MAX_NODES: usize = 1 << (32 - TAG_BITS);

/// The label a forward-row entry carries beneath its target's node id: the
/// low three bits hold [`EdgeKind::label_rank`] + 1, 0 meaning unlabelled
/// (the SSER time-chain's edges and hooks); the top bit says which of the
/// *target* transaction's at most two keys a keyed label is about — the
/// target, because `⊥T` is the source of `WR` / `WW` on every key and is
/// never a target.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeTag(u8);

impl EdgeTag {
    /// No label: an edge that stands for no dependency.
    pub const NONE: EdgeTag = EdgeTag(0);

    /// The label `kind`, whose key (if it has one) is the target's in
    /// `slot` (0 or 1).
    pub fn new(kind: EdgeKind, slot: usize) -> EdgeTag {
        let second = u8::from(kind.key().is_some() && slot == 1);
        EdgeTag((kind.label_rank() + 1) | second << 3)
    }

    /// The kind the tag stands for, its key read from the target's `keys`;
    /// `Ok(None)` when unlabelled, `Err` when the tag names no kind, or a
    /// key slot the target does not have.
    pub fn kind(self, keys: &[Key]) -> Result<Option<EdgeKind>, String> {
        let key = keys.get(usize::from(self.0 >> 3)).copied();
        Ok(match (self.0, key) {
            (0, _) => None,
            (1 | 9, Some(k)) => Some(EdgeKind::Ww(k)),
            (2 | 10, Some(k)) => Some(EdgeKind::Wr(k)),
            (3 | 11, Some(k)) => Some(EdgeKind::Rw(k)),
            (4, _) => Some(EdgeKind::So),
            (5, _) => Some(EdgeKind::Rt),
            _ => {
                return Err(format!(
                    "label {:#x} of a target with {} keys",
                    self.0,
                    keys.len()
                ))
            }
        })
    }

    /// Where the tag stands when a pair is labelled again: lower is better,
    /// unlabelled last.
    fn rank(self) -> u8 {
        (self.0 & 7).wrapping_sub(1)
    }
}

/// A forward-row entry: `node` with `tag` beneath it.
fn entry(node: usize, tag: EdgeTag) -> u32 {
    (node as u32) << TAG_BITS | u32::from(tag.0)
}

/// The node a forward-row entry points at.
fn target(entry: u32) -> usize {
    (entry >> TAG_BITS) as usize
}

/// The tag of a forward-row entry.
fn tag_of(entry: u32) -> EdgeTag {
    EdgeTag((entry & ((1 << TAG_BITS) - 1)) as u8)
}

/// What the maintained order has cost so far: see
/// [`IncrementalTopo::order_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrderStats {
    /// Edges that agreed with the maintained order when they arrived: the
    /// `O(1)` case.
    pub forward: u64,
    /// Affected-region passes: one per backward edge
    /// [`IncrementalTopo::try_add_edge`] accepted.
    pub reorders: u64,
    /// Nodes those passes assigned a rank to.
    pub moved: u64,
}

/// Buffers of one [`IncrementalTopo::try_add_edge`] reorder, kept between
/// calls: a live SSER stream reorders on six transactions in ten.
#[derive(Clone, Debug, Default)]
struct ReorderScratch {
    /// The DFS stack of either pass.
    stack: Vec<usize>,
    /// What the new edge's target reaches inside the affected region.
    fwd_set: Vec<usize>,
    /// What reaches the new edge's source inside it.
    back_set: Vec<usize>,
    /// The rank slots of both sets, ascending.
    pool: Vec<u32>,
}

/// An online topological order over a growable directed graph.
///
/// Nodes are dense `usize` ids, added with [`IncrementalTopo::add_node`] (or
/// up-front via [`IncrementalTopo::with_nodes`]); edges are inserted with
/// [`IncrementalTopo::try_add_edge`], which fails — returning the offending
/// cycle and leaving the structure unchanged — iff the edge would create one.
///
/// ## Pruning and node recycling
///
/// Long-running streams settle most of their history: once no future edge
/// can touch a node, the node only wastes memory. [`IncrementalTopo::prune`]
/// retires a predecessor-closed set of nodes (no retained node may point
/// into the set), freeing their adjacency and recycling their ids —
/// [`IncrementalTopo::add_node`] hands retired ids out again, so the
/// resident size is proportional to the number of *live* nodes
/// ([`IncrementalTopo::live_node_count`]), not to everything ever added.
/// Pruning cannot change any future verdict: a new edge is rejected iff a
/// path `to ⇝ from` exists, and no path between live nodes ever crosses a
/// predecessor-closed retired set (entering it would need exactly the
/// retained→pruned edge the precondition forbids). Cycle certificates stay
/// canonical because they never involve retired nodes.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct IncrementalTopo {
    /// Forward adjacency: per node, its targets' ids, each with the [`EdgeTag`]
    /// of that pair beneath it (see [`entry`]), each pair once.
    fwd: Vec<Row>,
    /// Reverse adjacency (needed for the backward half of the reorder pass).
    back: Vec<Row>,
    /// `rank[v]` is the position of `v` in the maintained order.
    rank: Vec<u32>,
    /// `node_at[rank[v]] == v`.
    node_at: Vec<u32>,
    /// `retired[v]` iff `v` has been pruned and not yet recycled. Retired
    /// nodes keep their rank slot (so `rank`/`node_at` stay inverse
    /// permutations) but have no edges.
    retired: Vec<bool>,
    /// Retired ids available for recycling, in retirement order.
    free: Vec<u32>,
    edge_count: usize,
    /// Generation-stamped visit marks: `mark[v] == mark_gen` means "seen in
    /// the current traversal". Shared by the affected-region DFS passes and
    /// the membership tests of [`IncrementalTopo::prune`] /
    /// [`IncrementalTopo::remove_edges_into`], so the hot paths never hash
    /// and never allocate per call. Pure scratch — rebuilt lazily, excluded
    /// from snapshots.
    #[serde(skip)]
    mark: Vec<u32>,
    /// Current mark generation (0 = no traversal has run yet).
    #[serde(skip)]
    mark_gen: u32,
    #[serde(skip)]
    scratch: ReorderScratch,
    /// Since this value was created (a deserialized one starts at zero).
    #[serde(skip)]
    stats: OrderStats,
}

impl IncrementalTopo {
    /// An empty structure.
    pub fn new() -> Self {
        IncrementalTopo::default()
    }

    /// A structure with `n` pre-allocated, unconnected nodes.
    pub fn with_nodes(n: usize) -> Self {
        let mut t = IncrementalTopo::default();
        for _ in 0..n {
            t.add_node();
        }
        t
    }

    /// Adds a node, returning its id. Fresh nodes are placed last in the
    /// maintained order, which is the natural spot for a transaction that
    /// just committed; recycled ids (from [`IncrementalTopo::prune`]) keep
    /// the rank slot they retired with — an arbitrary but valid position,
    /// since a node without edges is unconstrained. Panics past
    /// [`MAX_NODES`] (see [`IncrementalTopo::has_room`]).
    pub fn add_node(&mut self) -> usize {
        if let Some(id) = self.free.pop() {
            let id = id as usize;
            self.retired[id] = false;
            return id;
        }
        assert!(self.has_room(1), "the order holds {MAX_NODES} nodes");
        let id = self.fwd.len();
        self.fwd.push(Row::default());
        self.back.push(Row::default());
        self.rank.push(id as u32);
        self.node_at.push(id as u32);
        self.retired.push(false);
        id
    }

    /// Number of node slots ever allocated (an upper bound on node ids;
    /// includes retired slots awaiting recycling).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.fwd.len()
    }

    /// Number of live (non-retired) nodes — the quantity bounded by
    /// settled-prefix garbage collection.
    #[inline]
    pub fn live_node_count(&self) -> usize {
        self.fwd.len() - self.free.len()
    }

    /// True iff `nodes` more nodes fit in [`MAX_NODES`].
    pub fn has_room(&self, nodes: usize) -> bool {
        room(self.fwd.len(), self.free.len(), nodes)
    }

    /// Refuses an order read from bytes unless it fits a row entry, every
    /// table is one entry per node, every id in it is below the node count
    /// and every label names a kind.
    pub fn check(&self) -> Result<(), String> {
        let n = self.fwd.len();
        let tables = [self.back.len(), self.rank.len(), self.node_at.len()];
        if n > MAX_NODES || tables != [n; 3] || self.retired.len() != n {
            return Err(format!("an order of {n} nodes with tables of {tables:?}"));
        }
        let entries = self.fwd.iter().flat_map(|row| row.as_slice());
        if let Some(&e) = entries.clone().find(|&&e| target(e) >= n) {
            return Err(format!("an edge into node {} of {n}", target(e)));
        }
        if let Some(&e) = entries.clone().find(|&&e| tag_of(e).0 & 7 > 5) {
            return Err(format!("an edge labelled {:#x}", tag_of(e).0));
        }
        let ids = self
            .back
            .iter()
            .flat_map(|row| row.as_slice())
            .chain(&self.rank);
        match ids
            .chain(&self.node_at)
            .chain(&self.free)
            .find(|&&id| id as usize >= n)
        {
            Some(id) => Err(format!("node id {id} of {n}")),
            None => Ok(()),
        }
    }

    /// True iff `node` is allocated and not retired.
    #[inline]
    pub fn is_live(&self, node: usize) -> bool {
        node < self.fwd.len() && !self.retired[node]
    }

    /// The current predecessors of `node` (sources of edges into it).
    pub fn predecessors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.back[node].as_slice().iter().map(|&p| p as usize)
    }

    /// The current successors of `node` (targets of edges out of it).
    pub fn successors(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.fwd[node].as_slice().iter().map(|&e| target(e))
    }

    /// The current edges out of `node`, as (target, label) pairs in
    /// insertion order.
    pub fn labelled_successors(&self, node: usize) -> impl Iterator<Item = (usize, EdgeTag)> + '_ {
        self.fwd[node]
            .as_slice()
            .iter()
            .map(|&e| (target(e), tag_of(e)))
    }

    /// True iff the edge `from → to` is present.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.find(from, to).is_some()
    }

    /// The label of the edge `from → to`, if it is present.
    pub fn label(&self, from: usize, to: usize) -> Option<EdgeTag> {
        Some(tag_of(self.fwd[from].as_slice()[self.find(from, to)?]))
    }

    /// Where the entry of the pair `from → to` sits in `from`'s row, if the
    /// pair is there. A repeat comes with the later of its endpoints, so the
    /// row is searched from its end; a new pair is told apart by the shorter
    /// of the two rows it would join — the new transaction's own, in a
    /// stream.
    fn find(&self, from: usize, to: usize) -> Option<usize> {
        let row = self.fwd[from].as_slice();
        let back = self.back[to].as_slice();
        if back.len() < row.len() && !back.contains(&(from as u32)) {
            return None;
        }
        row.iter().rposition(|&e| target(e) == to)
    }

    /// Forward edges, affected-region passes and the nodes they re-ranked,
    /// since this value was created: whether the maintained order is
    /// earning its cost on the stream at hand.
    pub fn order_stats(&self) -> OrderStats {
        self.stats
    }

    /// Starts a traversal generation: returns a stamp `g` such that no slot
    /// of `self.mark` currently holds `g`, growing the scratch to cover
    /// every allocated node. `mark[v] = g` marks, `mark[v] == g` tests —
    /// index arithmetic instead of a per-call hash set.
    #[inline]
    fn fresh_mark(&mut self) -> u32 {
        if self.mark.len() < self.fwd.len() {
            self.mark.resize(self.fwd.len(), 0);
        }
        if self.mark_gen == u32::MAX {
            self.mark.iter_mut().for_each(|m| *m = 0);
            self.mark_gen = 0;
        }
        self.mark_gen += 1;
        self.mark_gen
    }

    /// Retires a set of live nodes, freeing their adjacency and recycling
    /// their ids through future [`IncrementalTopo::add_node`] calls.
    ///
    /// The set must be **predecessor-closed**: every edge into a pruned node
    /// must originate from another pruned node (callers first delete any
    /// deliberate cut edges with [`IncrementalTopo::remove_edges_into`]).
    /// Under that precondition no path between live nodes can traverse the
    /// pruned set, so every future `try_add_edge` verdict —
    /// including the canonical cycle certificates — is exactly what it would
    /// have been without pruning, provided no future edge touches a pruned
    /// node (the caller's settledness contract).
    ///
    /// # Panics
    ///
    /// Panics if a node is not live or the set is not predecessor-closed.
    /// `nodes` must not contain duplicates.
    pub fn prune(&mut self, nodes: &[usize]) {
        let g = self.fresh_mark();
        for &u in nodes {
            assert!(self.is_live(u), "pruning a dead or unknown node {u}");
            self.mark[u] = g;
        }
        for &u in nodes {
            for &p in self.back[u].as_slice() {
                assert!(
                    self.mark[p as usize] == g,
                    "pruned set is not predecessor-closed: live edge {p} -> {u}"
                );
            }
        }
        for &u in nodes {
            let fwd = self.fwd[u].as_slice();
            self.edge_count -= fwd.len();
            for &v in fwd {
                let v = target(v);
                if self.mark[v] != g {
                    self.back[v].retain(|p| p as usize != u);
                }
            }
            self.fwd[u].clear();
            self.back[u].clear();
            self.retired[u] = true;
            self.free.push(u as u32);
        }
        // Stable-compact the maintained order: live nodes keep their
        // relative order in ranks `0..L`, retired slots move to the tail.
        // Without this, a recycled id would re-enter the order at its *old*
        // (low) rank, turning every subsequent edge into it into a backward
        // edge whose affected-region reorder spans the whole structure —
        // quadratic churn on long GC'd streams.
        let old_order = std::mem::take(&mut self.node_at);
        let mut next = 0u32;
        let mut tail: Vec<u32> = Vec::with_capacity(self.free.len());
        self.node_at = vec![0; old_order.len()];
        for &node in &old_order {
            if self.retired[node as usize] {
                tail.push(node);
            } else {
                self.rank[node as usize] = next;
                self.node_at[next as usize] = node;
                next += 1;
            }
        }
        for node in tail {
            self.rank[node as usize] = next;
            self.node_at[next as usize] = node;
            next += 1;
        }
        // Hand the lowest-ranked retired slot out first, so a run of fresh
        // nodes re-enters the order in ascending rank.
        let rank = &self.rank;
        self.free
            .sort_unstable_by_key(|&id| std::cmp::Reverse(rank[id as usize]));
    }

    /// Deletes every edge `from → t` with `t ∈ targets`, returning how many
    /// were removed. This is the escape hatch for *deliberate* cut edges
    /// ahead of [`IncrementalTopo::prune`] — e.g. the time-chain edge from a
    /// permanently retained instant into a pruned chain prefix, whose
    /// ordering information the caller re-establishes with a shortcut edge.
    /// The maintained order is untouched (it stays valid for the remaining
    /// edges).
    pub fn remove_edges_into(&mut self, from: usize, targets: &[usize]) -> usize {
        let g = self.fresh_mark();
        for &t in targets {
            self.mark[t] = g;
        }
        let mark = &self.mark;
        let row = &mut self.fwd[from];
        let before = row.as_slice().len();
        for &v in row.as_slice().iter().filter(|&&v| mark[target(v)] == g) {
            let back = &mut self.back[target(v)];
            if let Some(pos) = back.as_slice().iter().position(|&p| p as usize == from) {
                back.swap_remove(pos);
            }
        }
        row.retain(|v| mark[target(v)] != g);
        let removed = before - row.as_slice().len();
        self.edge_count -= removed;
        removed
    }

    /// Number of accepted edges: distinct pairs.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Position of `node` in the maintained topological order.
    #[inline]
    pub fn rank_of(&self, node: usize) -> usize {
        self.rank[node] as usize
    }

    /// The maintained order as a node list (rank 0 first).
    pub fn order(&self) -> Vec<usize> {
        self.node_at.iter().map(|&n| n as usize).collect()
    }

    /// Inserts the edge `from → to`, labelled `tag`.
    ///
    /// Returns `Ok(())` when the graph stays acyclic (the maintained order is
    /// adjusted if needed). Returns `Err(cycle)` when the edge would close a
    /// directed cycle; the cycle is reported as a node sequence
    /// `[to, …, from]` such that each consecutive pair is an existing edge
    /// and `from → to` (the rejected edge) closes the walk. The certificate
    /// is canonical — the breadth-first shortest such path over the accepted
    /// edges in insertion order — so it does not depend on the ranks the
    /// order settled on. The structure is left exactly as before the call,
    /// so the caller may keep feeding edges after recording the violation.
    ///
    /// A pair already in the row stays where it is, and is not counted
    /// again: its label becomes `tag` only if `tag` ranks strictly better,
    /// so a pair carries the best label it arrived with, the first among
    /// equals. Such a repeat agrees with the order, so it moves no rank and
    /// changes no certificate.
    pub fn try_add_edge(&mut self, from: usize, to: usize, tag: EdgeTag) -> Result<(), Vec<usize>> {
        assert!(
            from < self.node_count() && to < self.node_count(),
            "node out of bounds"
        );
        if from == to {
            return Err(vec![from]);
        }
        if let Some(at) = self.find(from, to) {
            let held = &mut self.fwd[from].as_mut_slice()[at];
            if tag.rank() < tag_of(*held).rank() {
                *held = entry(to, tag);
            }
            return Ok(());
        }
        if self.rank[to] > self.rank[from] {
            // The edge already agrees with the maintained order.
            self.stats.forward += 1;
            self.insert_edge_unchecked(from, to, tag);
            return Ok(());
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let closes_cycle = self.reorder(from, to, &mut scratch);
        self.scratch = scratch;
        if closes_cycle {
            return Err(self.canonical_cycle(from, to));
        }
        self.insert_edge_unchecked(from, to, tag);
        Ok(())
    }

    /// Pearce–Kelly's pass for the backward edge `from → to`: re-ranks the
    /// affected region so that `from` precedes `to`, or returns `true`,
    /// having moved nothing, when `to` already reaches `from`.
    fn reorder(&mut self, from: usize, to: usize, s: &mut ReorderScratch) -> bool {
        let (lb, ub) = (self.rank[to], self.rank[from]);
        // Affected region: ranks in [lb, ub]. Forward DFS from `to`,
        // restricted to the region, looking for `from` (a cycle) and
        // collecting the nodes that must move after `from`. Visited checks
        // are generation-stamped array reads, not hash lookups.
        let gf = self.fresh_mark();
        s.fwd_set.clear();
        s.stack.clear();
        s.stack.push(to);
        self.mark[to] = gf;
        while let Some(u) = s.stack.pop() {
            s.fwd_set.push(u);
            for &v in self.fwd[u].as_slice() {
                let v = target(v);
                if v == from {
                    return true;
                }
                if self.rank[v] <= ub && self.mark[v] != gf {
                    self.mark[v] = gf;
                    s.stack.push(v);
                }
            }
        }

        // No cycle: backward DFS from `from`, restricted to ranks >= lb,
        // collecting the nodes that must move before `to`'s region.
        let gb = self.fresh_mark();
        s.back_set.clear();
        self.mark[from] = gb;
        s.stack.push(from);
        while let Some(u) = s.stack.pop() {
            s.back_set.push(u);
            for &v in self.back[u].as_slice() {
                let v = v as usize;
                if self.rank[v] >= lb && self.mark[v] != gb {
                    self.mark[v] = gb;
                    s.stack.push(v);
                }
            }
        }

        // Reorder: everything reachable backward from `from` must precede
        // everything reachable forward from `to`. Reuse the union of their
        // current ranks, keeping each group's internal order.
        s.back_set.sort_unstable_by_key(|&v| self.rank[v]);
        s.fwd_set.sort_unstable_by_key(|&v| self.rank[v]);
        let moving = || s.back_set.iter().chain(&s.fwd_set);
        s.pool.clear();
        s.pool.extend(moving().map(|&v| self.rank[v]));
        s.pool.sort_unstable();
        for (&node, &slot) in moving().zip(&s.pool) {
            self.rank[node] = slot;
            self.node_at[slot as usize] = node as u32;
        }
        self.stats.reorders += 1;
        self.stats.moved += s.pool.len() as u64;
        false
    }

    #[inline]
    fn insert_edge_unchecked(&mut self, from: usize, to: usize, tag: EdgeTag) {
        self.fwd[from].push(entry(to, tag));
        self.back[to].push(from as u32);
        self.edge_count += 1;
    }

    /// The canonical certificate for the rejected edge `from → to`: the
    /// breadth-first shortest path `[to, …, from]` over the forward
    /// adjacency, visiting neighbours in insertion order. It depends only on
    /// the sequence of accepted edges, never on the maintained ranks, and
    /// that is what the reorder's own DFS could not give: a GC'd run
    /// compacts its order at every prune and re-enters recycled ids at
    /// their retired slots, and a resumed run continues from whatever ranks
    /// the snapshot's writer settled on, so the same stream fed to a GC'd,
    /// a resumed and an un-GC'd structure reaches one cycle through three
    /// different rank states — and must report it the same way.
    fn canonical_cycle(&self, from: usize, to: usize) -> Vec<usize> {
        if from == to {
            return vec![from];
        }
        let mut parent: Vec<u32> = vec![u32::MAX; self.node_count()];
        let mut queue = VecDeque::new();
        parent[to] = to as u32;
        queue.push_back(to);
        while let Some(u) = queue.pop_front() {
            for &v in self.fwd[u].as_slice() {
                let v = target(v);
                if parent[v] != u32::MAX {
                    continue;
                }
                parent[v] = u as u32;
                if v == from {
                    let mut path = vec![from];
                    let mut cur = from;
                    while cur != to {
                        cur = parent[cur] as usize;
                        path.push(cur);
                    }
                    path.reverse(); // [to, …, from]
                    return path;
                }
                queue.push_back(v);
            }
        }
        unreachable!("cycle certificate requested for an edge that closes no cycle");
    }

    /// True iff `a` currently precedes `b` in the maintained order. For
    /// connected pairs this coincides with reachability-implied order; for
    /// unconnected pairs it is merely the arbitrary order the structure
    /// settled on.
    #[inline]
    pub fn precedes(&self, a: usize, b: usize) -> bool {
        self.rank[a] < self.rank[b]
    }
}

/// True iff an order of `nodes` node slots, `free` of them retired, can add
/// `more` nodes within [`MAX_NODES`].
fn room(nodes: usize, free: usize, more: usize) -> bool {
    nodes + more.saturating_sub(free) <= MAX_NODES
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split_mix;

    fn check_order_invariant(t: &IncrementalTopo) {
        for u in 0..t.node_count() {
            for v in t.successors(u) {
                assert!(
                    t.rank[u] < t.rank[v],
                    "edge {u}->{v} violates maintained order"
                );
            }
            let mut row: Vec<usize> = t.successors(u).collect();
            row.sort_unstable();
            row.dedup();
            assert_eq!(
                row.len(),
                t.fwd[u].as_slice().len(),
                "a pair twice in {u}'s row"
            );
        }
        // rank and node_at must stay inverse permutations.
        for u in 0..t.node_count() {
            assert_eq!(t.node_at[t.rank[u] as usize] as usize, u);
        }
    }

    #[test]
    fn forward_edges_are_cheap_and_valid() {
        let mut t = IncrementalTopo::with_nodes(5);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)] {
            t.try_add_edge(a, b, EdgeTag::NONE).unwrap();
        }
        check_order_invariant(&t);
        assert_eq!(t.edge_count(), 5);
    }

    #[test]
    fn backward_edge_triggers_reorder() {
        let mut t = IncrementalTopo::with_nodes(4);
        // Insert in an order that contradicts node-id order.
        t.try_add_edge(3, 2, EdgeTag::NONE).unwrap();
        t.try_add_edge(2, 1, EdgeTag::NONE).unwrap();
        t.try_add_edge(1, 0, EdgeTag::NONE).unwrap();
        check_order_invariant(&t);
        assert!(t.precedes(3, 0));
    }

    #[test]
    fn cycle_is_reported_and_structure_unchanged() {
        let mut t = IncrementalTopo::with_nodes(3);
        t.try_add_edge(0, 1, EdgeTag::NONE).unwrap();
        t.try_add_edge(1, 2, EdgeTag::NONE).unwrap();
        let before_rank: Vec<u32> = t.rank.clone();
        let cycle = t.try_add_edge(2, 0, EdgeTag::NONE).unwrap_err();
        // Cycle reported as [to, …, from] with from → to closing it.
        assert_eq!(cycle, vec![0, 1, 2]);
        assert_eq!(t.rank, before_rank);
        assert_eq!(t.edge_count(), 2);
        // The structure keeps working after the rejection.
        t.try_add_edge(0, 2, EdgeTag::NONE).unwrap();
        check_order_invariant(&t);
    }

    #[test]
    fn self_loop_is_a_singleton_cycle() {
        let mut t = IncrementalTopo::with_nodes(1);
        assert_eq!(t.try_add_edge(0, 0, EdgeTag::NONE).unwrap_err(), vec![0]);
    }

    #[test]
    fn two_node_cycle() {
        let mut t = IncrementalTopo::with_nodes(2);
        t.try_add_edge(0, 1, EdgeTag::NONE).unwrap();
        assert_eq!(t.try_add_edge(1, 0, EdgeTag::NONE).unwrap_err(), vec![0, 1]);
    }

    #[test]
    fn nodes_can_be_added_on_the_fly() {
        let mut t = IncrementalTopo::new();
        let a = t.add_node();
        let b = t.add_node();
        t.try_add_edge(b, a, EdgeTag::NONE).unwrap();
        let c = t.add_node();
        t.try_add_edge(a, c, EdgeTag::NONE).unwrap();
        t.try_add_edge(c, b, EdgeTag::NONE).unwrap_err();
        check_order_invariant(&t);
    }

    /// A pair is kept once, with its best label.
    #[test]
    fn duplicate_edges_are_tolerated() {
        let (wr, ww) = (EdgeKind::Wr(Key(3)), EdgeKind::Ww(Key(3)));
        let mut t = IncrementalTopo::with_nodes(3);
        t.try_add_edge(0, 1, EdgeTag::new(wr, 0)).unwrap();
        t.try_add_edge(0, 2, EdgeTag::new(EdgeKind::So, 0)).unwrap();
        t.try_add_edge(0, 1, EdgeTag::new(ww, 0)).unwrap();
        assert_eq!(t.edge_count(), 2);
        assert_eq!(
            t.successors(0).collect::<Vec<_>>(),
            [1, 2],
            "kept where it was"
        );
        assert_eq!(t.order_stats().forward, 2, "a repeat is no insertion");
        // `WR` then `WW` is `WW`; a worse rank changes nothing after it.
        assert_eq!(t.label(0, 1), Some(EdgeTag::new(ww, 0)));
        t.try_add_edge(0, 1, EdgeTag::new(wr, 1)).unwrap();
        assert_eq!(t.label(0, 1), Some(EdgeTag::new(ww, 0)));
        // Among equal ranks the first arrival stays: `WW(k1)` then `WW(k0)`
        // keeps `k1`.
        let keys = [Key(0), Key(1)];
        t.try_add_edge(1, 2, EdgeTag::new(EdgeKind::Ww(Key(1)), 1))
            .unwrap();
        t.try_add_edge(1, 2, EdgeTag::new(EdgeKind::Ww(Key(0)), 0))
            .unwrap();
        let kept = t.label(1, 2).unwrap().kind(&keys).unwrap();
        assert_eq!(kept, Some(EdgeKind::Ww(Key(1))));
        // An unlabelled repeat of a labelled pair keeps the label.
        t.try_add_edge(0, 2, EdgeTag::NONE).unwrap();
        assert_eq!(t.label(0, 2), Some(EdgeTag::new(EdgeKind::So, 0)));
        check_order_invariant(&t);
    }

    #[test]
    fn a_tag_names_its_kind_and_the_targets_key() {
        let keys = [Key(7), Key(9)];
        for kind in [
            EdgeKind::Ww(Key(9)),
            EdgeKind::Wr(Key(7)),
            EdgeKind::Rw(Key(9)),
            EdgeKind::So,
            EdgeKind::Rt,
        ] {
            let slot = keys
                .iter()
                .position(|&k| Some(k) == kind.key())
                .unwrap_or(0);
            assert_eq!(EdgeTag::new(kind, slot).kind(&keys), Ok(Some(kind)));
        }
        assert_eq!(EdgeTag::NONE.kind(&[]), Ok(None));
        // No second key, a key slot on a kind without a key, no kind.
        assert!(EdgeTag::new(EdgeKind::Wr(Key(9)), 1)
            .kind(&keys[..1])
            .is_err());
        assert!(EdgeTag(4 | 8).kind(&keys).is_err());
        assert!(EdgeTag(8).kind(&keys).is_err());
        assert!(EdgeTag(6).kind(&keys).is_err());
        assert!(EdgeTag(7).kind(&keys).is_err());
    }

    #[test]
    fn room_is_counted_against_the_largest_order_a_row_entry_can_name() {
        assert!(room(MAX_NODES - 3, 0, 3));
        assert!(!room(MAX_NODES - 2, 0, 3));
        assert!(room(MAX_NODES - 2, 1, 3), "a retired slot is reused");
        assert!(room(MAX_NODES, 3, 3));
        assert!(!room(MAX_NODES, 2, 3));
        assert_eq!(target(entry(MAX_NODES - 1, EdgeTag(15))), MAX_NODES - 1);
        assert_eq!(tag_of(entry(MAX_NODES - 1, EdgeTag(15))), EdgeTag(15));
    }

    /// Inserts `edges` in slice order up to the first rejection, the way
    /// `mtc-core`'s SSER hook feeds one transaction's chain and hook edges:
    /// the edges before the offender stay inserted, those after it are not
    /// tried.
    fn add_in_order(
        t: &mut IncrementalTopo,
        edges: &[(usize, usize)],
    ) -> Result<(), (usize, Vec<usize>)> {
        for (i, &(from, to)) in edges.iter().enumerate() {
            t.try_add_edge(from, to, EdgeTag::NONE)
                .map_err(|cycle| (i, cycle))?;
        }
        Ok(())
    }

    #[test]
    fn forward_batch_is_accepted_without_reordering() {
        let mut t = IncrementalTopo::with_nodes(5);
        let before: Vec<usize> = (0..5).map(|n| t.rank_of(n)).collect();
        add_in_order(&mut t, &[(0, 1), (1, 2), (0, 4), (2, 3)]).unwrap();
        let after: Vec<usize> = (0..5).map(|n| t.rank_of(n)).collect();
        assert_eq!(before, after, "agreeing edges must not move ranks");
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.order_stats().reorders, 0);
        check_order_invariant(&t);
    }

    #[test]
    fn mixed_batch_keeps_the_order_valid() {
        let mut t = IncrementalTopo::with_nodes(6);
        add_in_order(&mut t, &[(0, 3), (4, 1), (5, 2), (1, 3), (2, 4)]).unwrap();
        check_order_invariant(&t);
        // 5 -> 2 -> 4 -> 1 -> 3 must all be ordered.
        assert!(t.precedes(5, 2) && t.precedes(2, 4) && t.precedes(4, 1) && t.precedes(1, 3));
    }

    #[test]
    fn batch_cycle_reports_first_offender_and_sequential_certificate() {
        // Sequential reference.
        let mut seq = IncrementalTopo::with_nodes(4);
        seq.try_add_edge(0, 1, EdgeTag::NONE).unwrap();
        seq.try_add_edge(1, 2, EdgeTag::NONE).unwrap();
        let expected = seq.try_add_edge(2, 0, EdgeTag::NONE).unwrap_err();

        let mut bat = IncrementalTopo::with_nodes(4);
        let (index, cycle) = add_in_order(&mut bat, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap_err();
        assert_eq!(index, 2, "the closing edge is the first offender");
        assert_eq!(cycle, expected, "certificates must be canonical");
        // The prefix stays inserted; the suffix does not.
        assert_eq!(bat.edge_count(), 2);
        check_order_invariant(&bat);
    }

    #[test]
    fn batch_self_loop_is_rejected_at_its_index() {
        let mut t = IncrementalTopo::with_nodes(3);
        let (index, cycle) = add_in_order(&mut t, &[(0, 1), (2, 2)]).unwrap_err();
        assert_eq!((index, cycle), (1, vec![2]));
        assert_eq!(t.edge_count(), 1);
    }

    /// Repeats in one batch are kept once, as one by one.
    #[test]
    fn batch_duplicates_are_tolerated_like_sequential_insertion() {
        let mut t = IncrementalTopo::with_nodes(3);
        add_in_order(&mut t, &[(0, 1), (1, 2), (0, 1), (1, 2), (0, 1)]).unwrap();
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.order_stats().forward, 2);
        check_order_invariant(&t);
    }

    #[test]
    fn batches_compose_across_calls() {
        let mut t = IncrementalTopo::with_nodes(5);
        add_in_order(&mut t, &[(3, 1), (1, 4)]).unwrap();
        add_in_order(&mut t, &[(4, 0), (0, 2)]).unwrap();
        check_order_invariant(&t);
        // Closing the chain 3 -> 1 -> 4 -> 0 -> 2 back to 3 must fail with
        // the full walk as the certificate.
        let (index, cycle) = add_in_order(&mut t, &[(2, 3)]).unwrap_err();
        assert_eq!(index, 0);
        assert_eq!(cycle, vec![3, 1, 4, 0, 2]);
    }

    #[test]
    fn prune_frees_nodes_and_recycles_ids() {
        let mut t = IncrementalTopo::with_nodes(4);
        t.try_add_edge(0, 1, EdgeTag::NONE).unwrap();
        t.try_add_edge(1, 2, EdgeTag::NONE).unwrap();
        t.try_add_edge(2, 3, EdgeTag::NONE).unwrap();
        assert_eq!(t.live_node_count(), 4);
        t.prune(&[0, 1]);
        assert_eq!(t.live_node_count(), 2);
        assert_eq!(t.edge_count(), 1); // only 2 -> 3 survives
        assert!(!t.is_live(0) && !t.is_live(1));
        assert!(t.is_live(2) && t.is_live(3));
        // Node 2 lost its pruned predecessor from the reverse adjacency.
        assert_eq!(t.predecessors(2).count(), 0);
        // Retired ids are recycled before fresh ones are allocated.
        let a = t.add_node();
        let b = t.add_node();
        assert!(a < 2 && b < 2 && a != b);
        assert_eq!(t.node_count(), 4, "no fresh slots while retired ones exist");
        let c = t.add_node();
        assert_eq!(c, 4);
        check_order_invariant(&t);
    }

    #[test]
    #[should_panic(expected = "predecessor-closed")]
    fn prune_rejects_sets_with_live_incoming_edges() {
        let mut t = IncrementalTopo::with_nodes(2);
        t.try_add_edge(0, 1, EdgeTag::NONE).unwrap();
        t.prune(&[1]); // 0 -> 1 would dangle
    }

    #[test]
    fn remove_edges_into_enables_deliberate_cuts() {
        let mut t = IncrementalTopo::with_nodes(3);
        t.try_add_edge(0, 1, EdgeTag::NONE).unwrap();
        t.try_add_edge(0, 2, EdgeTag::NONE).unwrap();
        t.try_add_edge(1, 2, EdgeTag::NONE).unwrap();
        assert_eq!(t.remove_edges_into(0, &[1]), 1);
        assert_eq!(t.edge_count(), 2);
        // 1 now has no incoming edge, so it is predecessor-closed by itself.
        t.prune(&[1]);
        assert_eq!(t.edge_count(), 1);
        check_order_invariant(&t);
    }

    #[test]
    fn pruned_structure_keeps_rejecting_exactly_like_the_unpruned_one() {
        // Build the same graph twice, prune the settled prefix in one copy,
        // then feed both the same suffix of edges over live nodes: accepts,
        // rejects and certificates must coincide.
        let mut a = IncrementalTopo::with_nodes(6);
        let mut b = IncrementalTopo::with_nodes(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4)] {
            a.try_add_edge(u, v, EdgeTag::NONE).unwrap();
            b.try_add_edge(u, v, EdgeTag::NONE).unwrap();
        }
        // {0, 1} is predecessor-closed and nothing will touch it again.
        b.prune(&[0, 1]);
        for (u, v) in [(4, 5), (5, 3), (3, 5), (5, 2), (4, 2)] {
            let ra = a.try_add_edge(u, v, EdgeTag::NONE);
            let rb = b.try_add_edge(u, v, EdgeTag::NONE);
            assert_eq!(ra, rb, "divergence on edge {u}->{v}");
        }
        check_order_invariant(&a);
        check_order_invariant(&b);
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let mut t = IncrementalTopo::with_nodes(5);
        for (u, v) in [(0, 1), (1, 2), (3, 2), (2, 4)] {
            t.try_add_edge(u, v, EdgeTag::NONE).unwrap();
        }
        t.prune(&[0]);
        let v = serde::Serialize::to_json_value(&t);
        let mut back: IncrementalTopo = serde::Deserialize::from_json_value(&v).unwrap();
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.live_node_count(), t.live_node_count());
        assert_eq!(back.edge_count(), t.edge_count());
        // The deserialized copy must behave identically.
        assert_eq!(
            t.try_add_edge(4, 1, EdgeTag::NONE),
            back.try_add_edge(4, 1, EdgeTag::NONE)
        );
        assert_eq!(
            t.try_add_edge(2, 1, EdgeTag::NONE),
            back.try_add_edge(2, 1, EdgeTag::NONE)
        );
        check_order_invariant(&back);
    }

    /// `try_add_edge` as it was before its reorder kept its buffers: two
    /// DFS stacks, both node sets and the rank pool allocated per call.
    fn reference_try_add_edge(
        t: &mut IncrementalTopo,
        from: usize,
        to: usize,
    ) -> Result<(), Vec<usize>> {
        if from == to {
            return Err(vec![from]);
        }
        if t.successors(from).any(|v| v == to) {
            return Ok(());
        }
        let ub = t.rank[from];
        let lb = t.rank[to];
        if lb > ub {
            t.insert_edge_unchecked(from, to, EdgeTag::NONE);
            return Ok(());
        }
        let gf = t.fresh_mark();
        let mut fwd_set: Vec<usize> = Vec::new();
        let mut stack = vec![to];
        t.mark[to] = gf;
        while let Some(u) = stack.pop() {
            fwd_set.push(u);
            for v in t.successors(u).collect::<Vec<_>>() {
                if v == from {
                    return Err(t.canonical_cycle(from, to));
                }
                if t.rank[v] <= ub && t.mark[v] != gf {
                    t.mark[v] = gf;
                    stack.push(v);
                }
            }
        }
        let gb = t.fresh_mark();
        let mut back_set: Vec<usize> = Vec::new();
        t.mark[from] = gb;
        let mut stack = vec![from];
        while let Some(u) = stack.pop() {
            back_set.push(u);
            for &v in t.back[u].as_slice() {
                let v = v as usize;
                if t.rank[v] >= lb && t.mark[v] != gb {
                    t.mark[v] = gb;
                    stack.push(v);
                }
            }
        }
        back_set.sort_unstable_by_key(|&v| t.rank[v]);
        fwd_set.sort_unstable_by_key(|&v| t.rank[v]);
        let mut pool: Vec<u32> = back_set
            .iter()
            .chain(fwd_set.iter())
            .map(|&v| t.rank[v])
            .collect();
        pool.sort_unstable();
        for (&node, &slot) in back_set.iter().chain(fwd_set.iter()).zip(pool.iter()) {
            t.rank[node] = slot;
            t.node_at[slot as usize] = node as u32;
        }
        t.insert_edge_unchecked(from, to, EdgeTag::NONE);
        Ok(())
    }

    fn assert_same_state(t: &IncrementalTopo, reference: &IncrementalTopo) {
        assert_eq!(t.rank, reference.rank);
        assert_eq!(t.node_at, reference.node_at);
        assert_eq!(t.free, reference.free);
        assert_eq!(t.edge_count, reference.edge_count);
        for u in 0..t.node_count() {
            assert_eq!(t.fwd[u].as_slice(), reference.fwd[u].as_slice());
            assert_eq!(t.back[u].as_slice(), reference.back[u].as_slice());
        }
    }

    /// Snapshots carry `rank` and `node_at`, so the reorder must settle on
    /// the very ranks it settled on when it allocated its lists per call —
    /// over long streams on one structure, so that stale scratch would show,
    /// with pruning and id recycling between rounds.
    #[test]
    fn reorders_settle_on_the_reference_ranks() {
        let mut state = 0xC0FF_EE00_D15E_A5E5u64;
        let mut next = |bound: usize| (split_mix(&mut state) % bound as u64) as usize;
        for _stream in 0..100 {
            let n = 4 + next(12);
            let mut topo = IncrementalTopo::with_nodes(n);
            let mut reference = IncrementalTopo::with_nodes(n);
            for _round in 0..8 {
                for _ in 0..next(4) {
                    assert_eq!(topo.add_node(), reference.add_node());
                }
                let live: Vec<usize> = (0..topo.node_count())
                    .filter(|&v| topo.is_live(v))
                    .collect();
                for _ in 0..next(24) {
                    let (a, b) = (live[next(live.len())], live[next(live.len())]);
                    let got = topo.try_add_edge(a, b, EdgeTag::NONE);
                    assert_eq!(
                        got,
                        reference_try_add_edge(&mut reference, a, b),
                        "{a}->{b}"
                    );
                    assert_same_state(&topo, &reference);
                }
                check_order_invariant(&topo);
                // The lowest-ranked live nodes are predecessor-closed.
                let settled: Vec<usize> = topo
                    .order()
                    .into_iter()
                    .filter(|&v| topo.is_live(v))
                    .take(next(live.len() / 2 + 1))
                    .collect();
                topo.prune(&settled);
                reference.prune(&settled);
                assert_same_state(&topo, &reference);
            }
        }
    }

    /// The serialized form when every row was a `Vec<u32>`.
    #[derive(Serialize)]
    struct VecRowsMirror {
        fwd: Vec<Vec<u32>>,
        back: Vec<Vec<u32>>,
        rank: Vec<u32>,
        node_at: Vec<u32>,
        retired: Vec<bool>,
        free: Vec<u32>,
        edge_count: usize,
    }

    fn mirror_of(t: &IncrementalTopo) -> VecRowsMirror {
        let rows = |rows: &[Row]| rows.iter().map(|r| r.as_slice().to_vec()).collect();
        VecRowsMirror {
            fwd: rows(&t.fwd),
            back: rows(&t.back),
            rank: t.rank.clone(),
            node_at: t.node_at.clone(),
            retired: t.retired.clone(),
            free: t.free.clone(),
            edge_count: t.edge_count,
        }
    }

    #[test]
    fn a_row_is_no_larger_than_a_vec_header_and_a_word() {
        assert!(std::mem::size_of::<Row>() <= 32);
    }

    #[test]
    fn inline_rows_serialize_like_vec_rows() {
        let mut t = IncrementalTopo::with_nodes(ROW_INLINE + 6);
        // Node 0's row outgrows the inline capacity, node 1's fills it.
        for v in 2..ROW_INLINE + 6 {
            t.try_add_edge(0, v, EdgeTag::NONE).unwrap();
        }
        for v in 2..ROW_INLINE + 2 {
            t.try_add_edge(1, v, EdgeTag::NONE).unwrap();
        }
        t.try_add_edge(2, 3, EdgeTag::NONE).unwrap();
        let same_bytes = |t: &IncrementalTopo| {
            assert_eq!(
                serde_json::to_string(t).unwrap(),
                serde_json::to_string(&mirror_of(t)).unwrap()
            );
        };
        same_bytes(&t);
        // A spilled row cut back under the capacity, an inline row emptied.
        assert_eq!(t.remove_edges_into(0, &[2, 3, 4, 5, 6, 7]), 6);
        assert_eq!(t.remove_edges_into(1, &[2, 3, 4, 5, 6]), ROW_INLINE);
        same_bytes(&t);
        // Pruned nodes lose their rows; their successors lose the back edges.
        t.prune(&[0, 1]);
        assert!(t.fwd[0].as_slice().is_empty() && t.back[2].as_slice().is_empty());
        same_bytes(&t);
        let back: IncrementalTopo =
            serde_json::from_str(&serde_json::to_string(&t).unwrap()).unwrap();
        same_bytes(&back);
        assert_eq!(mirror_of(&back).fwd, mirror_of(&t).fwd);
    }

    #[test]
    fn order_stats_count_forward_edges_reorders_and_moved_nodes() {
        let mut t = IncrementalTopo::with_nodes(4);
        for (a, b) in [(0, 1), (1, 2), (2, 3)] {
            t.try_add_edge(a, b, EdgeTag::NONE).unwrap();
        }
        let forward_only = OrderStats {
            forward: 3,
            ..OrderStats::default()
        };
        assert_eq!(t.order_stats(), forward_only);
        let mut t = IncrementalTopo::with_nodes(4);
        // One backward edge: nodes 1 and 0 swap.
        t.try_add_edge(1, 0, EdgeTag::NONE).unwrap();
        // Another over ranks 0..=3: 3 moves ahead of 1 and 0, 2 stays.
        t.try_add_edge(3, 1, EdgeTag::NONE).unwrap();
        assert_eq!(t.order(), [3, 1, 2, 0]);
        // A forward edge.
        t.try_add_edge(2, 0, EdgeTag::NONE).unwrap();
        let stats = t.order_stats();
        assert_eq!((stats.forward, stats.reorders), (1, 2));
        assert_eq!(stats.moved, 2 + 3);
        // A rejected edge moves nothing.
        t.try_add_edge(0, 3, EdgeTag::NONE).unwrap_err();
        assert_eq!(t.order_stats(), stats);
    }

    #[test]
    fn randomized_against_batch_toposort() {
        use crate::graph::DiGraph;
        // Deterministic pseudo-random edge stream.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || split_mix(&mut state);
        for _round in 0..50 {
            let n = 12usize;
            let mut topo = IncrementalTopo::with_nodes(n);
            // The edges accepted so far.
            let mut batch: Vec<(usize, usize)> = Vec::new();
            for _ in 0..40 {
                let a = (next() % n as u64) as usize;
                let b = (next() % n as u64) as usize;
                batch.push((a, b));
                let probe = DiGraph::from_edges(n, batch.iter().copied());
                match topo.try_add_edge(a, b, EdgeTag::NONE) {
                    Ok(()) => {
                        assert!(probe.is_acyclic(), "incremental accepted a cycle {a}->{b}");
                    }
                    Err(cycle) => {
                        batch.pop();
                        assert!(
                            !probe.is_acyclic(),
                            "incremental rejected an acyclic edge {a}->{b}"
                        );
                        // The reported walk must be closed over probe's edges.
                        for i in 0..cycle.len() {
                            let u = cycle[i];
                            let v = cycle[(i + 1) % cycle.len()];
                            assert!(
                                probe.successors(u).any(|w| w == v),
                                "cycle edge {u}->{v} missing"
                            );
                        }
                    }
                }
            }
            check_order_invariant(&topo);
        }
    }
}
