//! The online time-chain: an incrementally maintained encoding of the
//! real-time order for streaming strict-serializability checking.
//!
//! The batch `CHECKSSER` sorts every begin/commit instant of the complete
//! history once and threads them into a chain of auxiliary *time nodes*, so
//! a dependency path "travels back in time" exactly when the naive
//! `Θ(n²)`-edge real-time relation has a cycle. A streaming checker cannot
//! sort up front: transactions arrive in commit order, and a commit
//! acknowledged *now* may report a begin instant far in the past (clock
//! skew, long-running transactions). [`TimeChain`] therefore keeps the
//! instants in a sorted dense array and splices each new instant into an
//! [`IncrementalTopo`]-backed chain: `O(1)` for the dominant append case,
//! `O(log d)` to find an instant `d` slots below the newest (the search
//! gallops back from the end, and a begin instant sits among the last few),
//! `O(log n)` predecessor/successor queries, and an `O(n)` memmove only for
//! the rare out-of-order splice (bounded in practice by clock skew, and the
//! garbage collector keeps `n` at the live window size).
//!
//! ## Roles and lazy splitting
//!
//! Conceptually each distinct instant `t` owns two chain anchors:
//!
//! * the **begin anchor** — transactions beginning at `t` hang *off* it
//!   (`begin(t) → txn`);
//! * the **end anchor** — transactions ending at `t` point *into* it
//!   (`txn → end(t)`).
//!
//! The chain is ordered `… → begin(t) → end(t) → begin(t') → end(t') → …`
//! for `t < t'`, so a path `end(t) ⟶ begin(t')` exists **iff `t < t'`** —
//! the strict inequality of the real-time order (`T1 <rt T2` iff
//! `end(T1) < begin(T2)`; transactions sharing an instant overlap and are
//! *not* real-time ordered).
//!
//! Materializing two topo nodes per instant doubles the chain's node and
//! edge volume, yet in real histories almost every instant is touched in a
//! **single role**: a commit instant collects end hooks, a begin instant
//! collects begin hooks, and the two rarely coincide. A slot therefore
//! starts as **one** node serving whichever role touched it first, and is
//! split lazily the moment the opposite role shows up:
//!
//! * a begin-only node `n` gaining an end role allocates a fresh end node
//!   `e` with `n → e` and `e → begin(succ)`;
//! * an end-only node `n` gaining a begin role allocates a fresh begin node
//!   `b` with `b → n` and `end(pred) → b`.
//!
//! Either way the pre-existing chain edges through `n` remain behind as
//! harmless transitive shortcuts — splitting only *adds* edges, mirroring
//! the insertion-only discipline of the equal-instant case: splicing `t`
//! between chain neighbours `p < s` only adds edges, and the now-redundant
//! direct edge `end(p) → begin(s)` stays as a transitive shortcut.
//!
//! A collapsed single-role node is sound because its chain edges connect it
//! to the *anchors* of the neighbouring slots, never to their hooked
//! transactions: a transaction beginning at `t` hangs off `begin(t)` and
//! gains no path to `begin(t')` for `t' > t` (it may still be running), and
//! a transaction ending at `t` reaches exactly the begin anchors of later
//! instants.
//!
//! ## Edge emission
//!
//! Anchor calls do **not** insert chain edges into the topology themselves;
//! they push the required `(from, to)` pairs into a caller-supplied buffer.
//! The SSER path inserts a transaction's chain edges, then its hook edges,
//! one [`IncrementalTopo::try_add_edge`] at a time, and stops at the first
//! rejection. Chain edges can never be rejected by the host topology: a
//! fresh node has no other incident edges, the direct edge between the
//! current neighbours already orders them, and the host graph is acyclic
//! whenever the checker is still running (violations latch before a cycle
//! is ever committed into the structure). Holding them back until the hook
//! stage is therefore safe — the first offender is always a hook edge. A
//! splice below the maximum instant, or a split, does cost a reorder: the
//! fresh node enters the maintained order last, so its edge into an anchor
//! that already exists points backward.
//!
//! ## Append fast path
//!
//! Timestamps overwhelmingly arrive in increasing order. When the touched
//! instant is strictly above the current maximum, the splice needs no
//! predecessor/successor range scans at all: the predecessor is the current
//! maximum slot (one `last_key_value` lookup) and there is no successor.

use crate::incremental::{EdgeTag, IncrementalTopo};
use serde::{Deserialize, Serialize};

/// The chain anchors owned by one distinct instant, as a borrowed view.
///
/// For a slot still collapsed to a single node, `begin_node == end_node`;
/// after a role split the two differ. `begin_node` is always the chain-entry
/// anchor (edges from earlier instants point into it) and `end_node` the
/// chain-exit anchor (edges to later instants leave from it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeSlot {
    /// Anchor transactions beginning at this instant are reached from.
    pub begin_node: usize,
    /// Anchor transactions ending at this instant point into.
    pub end_node: usize,
}

impl TimeSlot {
    /// The slot's distinct topo nodes (one while collapsed, two once split).
    pub fn nodes(&self) -> impl Iterator<Item = usize> {
        let extra = (self.end_node != self.begin_node).then_some(self.end_node);
        std::iter::once(self.begin_node).chain(extra)
    }
}

/// Which anchor of an instant a transaction hooks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// The transaction begins at the instant (`begin(t) → txn`).
    Begin,
    /// The transaction ends at the instant (`txn → end(t)`).
    End,
}

impl Role {
    /// The collapsed single-node representation of a first touch.
    #[inline]
    fn fresh(self, n: usize) -> SlotRepr {
        match self {
            Role::Begin => SlotRepr::Begin(n),
            Role::End => SlotRepr::End(n),
        }
    }
}

/// Stored slot state: which roles have materialized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum SlotRepr {
    /// Single node serving begin hooks only.
    Begin(usize),
    /// Single node serving end hooks only.
    End(usize),
    /// Both roles materialized: `begin → end` internally.
    Split(usize, usize),
}

impl SlotRepr {
    /// The anchor edges from earlier instants point into.
    #[inline]
    fn chain_in(self) -> usize {
        match self {
            SlotRepr::Begin(n) | SlotRepr::End(n) => n,
            SlotRepr::Split(b, _) => b,
        }
    }

    /// The anchor edges to later instants leave from.
    #[inline]
    fn chain_out(self) -> usize {
        match self {
            SlotRepr::Begin(n) | SlotRepr::End(n) => n,
            SlotRepr::Split(_, e) => e,
        }
    }

    #[inline]
    fn view(self) -> TimeSlot {
        TimeSlot {
            begin_node: self.chain_in(),
            end_node: self.chain_out(),
        }
    }
}

/// An incrementally maintained chain of begin/end instants, integrated with
/// a growable [`IncrementalTopo`].
///
/// ```
/// use mtc_history::{EdgeTag, IncrementalTopo, Role, TimeChain};
///
/// let mut topo = IncrementalTopo::new();
/// let mut chain = TimeChain::new();
/// let mut edges = Vec::new();
/// let e10 = chain.anchor(10, Role::End, &mut topo, &mut edges);
/// let b30 = chain.anchor(30, Role::Begin, &mut topo, &mut edges);
/// // Inserted out of order, 20 is spliced between 10 and 30.
/// let b20 = chain.anchor(20, Role::Begin, &mut topo, &mut edges);
/// for (from, to) in edges {
///     topo.try_add_edge(from, to, EdgeTag::NONE).unwrap();
/// }
/// assert!(topo.precedes(e10, b20));
/// assert!(topo.precedes(e10, b30));
/// assert_eq!(chain.len(), 3);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TimeChain {
    /// Slots sorted by instant. Dense storage: the dominant in-order commit
    /// stream appends at the back in `O(1)`, lookups gallop back from the
    /// newest slot, and the collector drains settled prefixes.
    slots: Vec<(u64, SlotRepr)>,
}

impl TimeChain {
    /// An empty chain.
    pub fn new() -> Self {
        TimeChain::default()
    }

    /// Number of distinct instants in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff no instant has been touched yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The index of `instant`, or the insertion point keeping `slots` sorted
    /// — what `binary_search_by` over all slots returns. Instants are looked
    /// up near the newest end (a begin instant a little below the last
    /// commit), so the search gallops back from the newest slot over windows
    /// of 1, 2, 4, … slots until one starts at or below `instant`, then
    /// bisects that window: `O(log d)` for an instant `d` slots from the end.
    #[inline]
    fn index_of(&self, instant: u64) -> Result<usize, usize> {
        // Every slot at or past `hi` is above `instant`.
        let mut hi = self.slots.len();
        let mut step = 1;
        let lo = loop {
            if step >= hi {
                break 0;
            }
            let probe = hi - step;
            if self.slots[probe].0 <= instant {
                break probe;
            }
            hi = probe;
            step *= 2;
        };
        self.slots[lo..hi]
            .binary_search_by(|&(t, _)| t.cmp(&instant))
            .map(|i| lo + i)
            .map_err(|i| lo + i)
    }

    /// The chain anchors of `instant`, if it has been touched.
    pub fn slot(&self, instant: u64) -> Option<TimeSlot> {
        self.index_of(instant).ok().map(|i| self.slots[i].1.view())
    }

    /// The greatest touched instant strictly below `instant`.
    pub fn pred(&self, instant: u64) -> Option<(u64, TimeSlot)> {
        let i = self.slots.partition_point(|&(t, _)| t < instant);
        (i > 0).then(|| {
            let (t, s) = self.slots[i - 1];
            (t, s.view())
        })
    }

    /// The smallest touched instant strictly above `instant`.
    pub fn succ(&self, instant: u64) -> Option<(u64, TimeSlot)> {
        let i = self.slots.partition_point(|&(t, _)| t <= instant);
        self.slots.get(i).map(|&(t, s)| (t, s.view()))
    }

    /// Returns the anchor node serving `role` at `instant`, materializing it
    /// on first touch. Required chain edges are pushed onto `edges` instead
    /// of being inserted — submit them to the host topology (they can never
    /// be rejected; see the module docs) before querying reachability.
    ///
    /// At most one topo node is allocated per call, and when one is, it is
    /// the returned anchor — callers tracking node ownership can tag the
    /// return value unconditionally.
    pub fn anchor(
        &mut self,
        instant: u64,
        role: Role,
        topo: &mut IncrementalTopo,
        edges: &mut Vec<(usize, usize)>,
    ) -> usize {
        // Append fast path: strictly above the current maximum — no lookup
        // beyond the last element, the predecessor is the maximum slot and
        // there is no successor.
        match self.slots.last() {
            Some(&(max, s)) if instant > max => {
                let n = topo.add_node();
                edges.push((s.chain_out(), n));
                self.slots.push((instant, role.fresh(n)));
                return n;
            }
            None => {
                let n = topo.add_node();
                self.slots.push((instant, role.fresh(n)));
                return n;
            }
            _ => {}
        }
        match self.index_of(instant) {
            Ok(i) => {
                let repr = self.slots[i].1;
                match (repr, role) {
                    (SlotRepr::Begin(n), Role::Begin) | (SlotRepr::End(n), Role::End) => n,
                    (SlotRepr::Split(b, _), Role::Begin) => b,
                    (SlotRepr::Split(_, e), Role::End) => e,
                    (SlotRepr::Begin(b), Role::End) => {
                        // Split: the existing node keeps the begin hooks, a
                        // fresh end node takes over the chain exit. The stale
                        // direct edge `b → succ.chain_in` (if any) stays
                        // behind as a transitive shortcut.
                        let e = topo.add_node();
                        self.slots[i].1 = SlotRepr::Split(b, e);
                        edges.push((b, e));
                        if let Some(&(_, s)) = self.slots.get(i + 1) {
                            edges.push((e, s.chain_in()));
                        }
                        e
                    }
                    (SlotRepr::End(e), Role::Begin) => {
                        // Split the other way: a fresh begin node takes over
                        // the chain entry; `pred.chain_out → e` stays as a
                        // shortcut.
                        let b = topo.add_node();
                        self.slots[i].1 = SlotRepr::Split(b, e);
                        edges.push((b, e));
                        if i > 0 {
                            edges.push((self.slots[i - 1].1.chain_out(), b));
                        }
                        b
                    }
                }
            }
            Err(i) => {
                // Out-of-order splice between neighbours (the slot at `i`,
                // if any, is the successor; `i - 1` the predecessor).
                let n = topo.add_node();
                if i > 0 {
                    edges.push((self.slots[i - 1].1.chain_out(), n));
                }
                if let Some(&(_, s)) = self.slots.get(i) {
                    edges.push((n, s.chain_in()));
                }
                self.slots.insert(i, (instant, role.fresh(n)));
                n
            }
        }
    }

    /// [`TimeChain::anchor`] with the emitted chain edges applied to `topo`
    /// immediately — convenience for callers outside the streaming hot path.
    pub fn anchor_now(&mut self, instant: u64, role: Role, topo: &mut IncrementalTopo) -> usize {
        let mut edges = Vec::new();
        let n = self.anchor(instant, role, topo, &mut edges);
        for (from, to) in edges {
            topo.try_add_edge(from, to, EdgeTag::NONE)
                .expect("chain edges cannot close a cycle");
        }
        n
    }

    /// The touched instants in ascending order (for inspection and tests).
    pub fn instants(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().map(|&(t, _)| t)
    }

    /// The index range holding instants in `low..cut`.
    #[inline]
    fn range_of(&self, low: u64, cut: u64) -> std::ops::Range<usize> {
        let a = self.slots.partition_point(|&(t, _)| t < low);
        let b = self.slots.partition_point(|&(t, _)| t < cut);
        a..b
    }

    /// The slots with instants in `low..cut`, in ascending order, without
    /// removing them — the candidate range for settled-chain pruning.
    pub fn slots_in(&self, low: u64, cut: u64) -> Vec<(u64, TimeSlot)> {
        self.slots[self.range_of(low, cut)]
            .iter()
            .map(|&(t, s)| (t, s.view()))
            .collect()
    }

    /// Removes the slots with instants in `low..cut` from the chain,
    /// returning them in ascending order. The caller is responsible for
    /// retiring the slots' chain nodes from the host topology (see
    /// [`IncrementalTopo::prune`]) and for re-establishing the chain-order
    /// shortcut from the last retained slot below `low` (if any) to the
    /// first retained slot at or above `cut` — the compaction logic of the
    /// streaming SSER checker does exactly that.
    pub fn remove_range(&mut self, low: u64, cut: u64) -> Vec<(u64, TimeSlot)> {
        let range = self.range_of(low, cut);
        self.slots
            .drain(range)
            .map(|(t, s)| (t, s.view()))
            .collect()
    }

    /// Removes the slot at exactly `instant`, if present, returning its
    /// anchors. Companion to [`TimeChain::remove_range`] for the mid-chain
    /// compaction runs of the SSER garbage collector.
    pub fn remove(&mut self, instant: u64) -> Option<TimeSlot> {
        self.index_of(instant)
            .ok()
            .map(|i| self.slots.remove(i).1.view())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The galloping lookup returns what a binary search over every slot
        /// returns — `Ok` at a touched instant, the same insertion point
        /// otherwise — for probes below the first instant, above the last,
        /// at every slot and in every gap between two.
        #[test]
        fn galloping_lookup_equals_a_binary_search_of_all_slots(
            first in 1u64..1_000,
            gaps in prop::collection::vec(1u64..6, 0..80),
        ) {
            let mut instants = vec![first];
            for gap in gaps {
                instants.push(instants[instants.len() - 1] + gap);
            }
            let last = instants[instants.len() - 1];
            let chain = TimeChain {
                slots: instants.iter().enumerate().map(|(n, &t)| (t, SlotRepr::Begin(n))).collect(),
            };
            let probes = (first - 1..=last + 1).chain([0, u64::MAX]);
            for probe in probes {
                let reference = chain.slots.binary_search_by(|&(t, _)| t.cmp(&probe));
                prop_assert_eq!(chain.index_of(probe), reference, "probe {}", probe);
            }
        }
    }

    #[test]
    fn an_empty_chain_finds_nothing() {
        assert_eq!(TimeChain::new().index_of(5), Err(0));
    }

    fn end_anchor(chain: &mut TimeChain, t: u64, topo: &mut IncrementalTopo) -> usize {
        chain.anchor_now(t, Role::End, topo)
    }

    fn begin_anchor(chain: &mut TimeChain, t: u64, topo: &mut IncrementalTopo) -> usize {
        chain.anchor_now(t, Role::Begin, topo)
    }

    /// Every pair of distinct instants must be chain-connected in order, and
    /// within an instant the entry anchor reaches the exit anchor.
    fn assert_chain_invariant(chain: &TimeChain, topo: &IncrementalTopo) {
        let slots: Vec<(u64, TimeSlot)> = chain.slots.iter().map(|&(t, s)| (t, s.view())).collect();
        for w in slots.windows(2) {
            let (ta, a) = w[0];
            let (tb, b) = w[1];
            assert!(ta < tb);
            assert!(
                topo.precedes(a.end_node, b.begin_node),
                "out({ta}) must precede in({tb})"
            );
        }
        for &(t, s) in &slots {
            if s.begin_node != s.end_node {
                assert!(
                    topo.precedes(s.begin_node, s.end_node),
                    "begin({t}) must precede end({t})"
                );
            }
        }
    }

    #[test]
    fn out_of_order_insertion_links_the_chain() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        for t in [50u64, 10, 30, 20, 40, 60, 5] {
            begin_anchor(&mut chain, t, &mut topo);
        }
        assert_eq!(chain.len(), 7);
        assert_eq!(
            chain.instants().collect::<Vec<_>>(),
            vec![5, 10, 20, 30, 40, 50, 60]
        );
        assert_chain_invariant(&chain, &topo);
    }

    #[test]
    fn single_role_instants_stay_collapsed() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        let b = begin_anchor(&mut chain, 7, &mut topo);
        let again = begin_anchor(&mut chain, 7, &mut topo);
        assert_eq!(b, again, "repeat touches reuse the anchor");
        assert_eq!(chain.len(), 1);
        assert_eq!(topo.node_count(), 1, "one role, one node");
        let s = chain.slot(7).unwrap();
        assert_eq!(s.begin_node, s.end_node);
        assert_eq!(s.nodes().count(), 1);
    }

    #[test]
    fn role_conflict_splits_lazily_and_keeps_the_chain_order() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        let e10 = end_anchor(&mut chain, 10, &mut topo);
        let b20 = begin_anchor(&mut chain, 20, &mut topo);
        let e30 = end_anchor(&mut chain, 30, &mut topo);
        // 20 gains an end role: fresh node, chain exit moves to it.
        let e20 = end_anchor(&mut chain, 20, &mut topo);
        assert_ne!(e20, b20);
        let s20 = chain.slot(20).unwrap();
        assert_eq!((s20.begin_node, s20.end_node), (b20, e20));
        assert_eq!(s20.nodes().count(), 2);
        // 30 gains a begin role the other way around.
        let b30 = begin_anchor(&mut chain, 30, &mut topo);
        assert_ne!(b30, e30);
        assert!(topo.precedes(e10, b20));
        assert!(topo.precedes(b20, e20));
        assert!(topo.precedes(e20, b30));
        assert!(topo.precedes(b30, e30));
        assert_chain_invariant(&chain, &topo);
        // Splitting never relates the two roles backwards: end(20) must not
        // reach begin(20).
        assert!(!topo.precedes(e20, b20));
    }

    #[test]
    fn pred_and_succ_are_strict() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        begin_anchor(&mut chain, 10, &mut topo);
        begin_anchor(&mut chain, 20, &mut topo);
        assert_eq!(chain.pred(10), None);
        assert_eq!(chain.pred(20).map(|(t, _)| t), Some(10));
        assert_eq!(chain.pred(15).map(|(t, _)| t), Some(10));
        assert_eq!(chain.succ(10).map(|(t, _)| t), Some(20));
        assert_eq!(chain.succ(20), None);
        assert_eq!(chain.succ(15).map(|(t, _)| t), Some(20));
    }

    #[test]
    fn equal_instants_do_not_create_a_real_time_edge() {
        // T1 ends at t = 42 and T2 begins at t = 42: they overlap, so the
        // real-time order must not relate them. A dependency edge in either
        // direction must therefore be accepted.
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        let t1 = topo.add_node();
        let t2 = topo.add_node();
        let e42 = end_anchor(&mut chain, 42, &mut topo);
        let b42 = begin_anchor(&mut chain, 42, &mut topo);
        topo.try_add_edge(t1, e42, EdgeTag::NONE).unwrap();
        topo.try_add_edge(b42, t2, EdgeTag::NONE).unwrap();
        // T2 → T1 would be rejected if end(42) ⟶ begin(42) existed; it must
        // not, because `end(T1) < begin(T2)` is strict.
        assert!(topo.try_add_edge(t2, t1, EdgeTag::NONE).is_ok());
    }

    #[test]
    fn equal_instant_bursts_share_one_anchor_per_role() {
        // Many transactions beginning and ending at the same instant: the
        // slot materializes at most two nodes no matter the burst size, and
        // none of the sharers become real-time ordered.
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        let txns: Vec<usize> = (0..8).map(|_| topo.add_node()).collect();
        for (i, &t) in txns.iter().enumerate() {
            let b = begin_anchor(&mut chain, 99, &mut topo);
            topo.try_add_edge(b, t, EdgeTag::NONE).unwrap();
            if i % 2 == 0 {
                let e = end_anchor(&mut chain, 99, &mut topo);
                topo.try_add_edge(t, e, EdgeTag::NONE).unwrap();
            }
        }
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.slot(99).unwrap().nodes().count(), 2);
        // Equal-instant transactions overlap: none is real-time ordered
        // before another, so a dependency edge in either direction must be
        // accepted (probe on a clone to keep the pairs independent).
        for &a in &txns {
            for &b in &txns {
                if a != b {
                    assert!(
                        topo.clone().try_add_edge(a, b, EdgeTag::NONE).is_ok(),
                        "equal-instant txns overlap"
                    );
                }
            }
        }
    }

    #[test]
    fn strictly_decreasing_instants_splice_at_the_front() {
        // Worst case for the append fast path: every insert misses it and
        // takes the general splice, always in front of the whole chain.
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        for t in (0..32u64).rev() {
            begin_anchor(&mut chain, t * 10, &mut topo);
        }
        assert_eq!(chain.len(), 32);
        assert_chain_invariant(&chain, &topo);
        let first = chain.slot(0).unwrap();
        let last = chain.slot(310).unwrap();
        assert!(topo.precedes(first.end_node, last.begin_node));
    }

    #[test]
    fn remove_range_prunes_a_prefix_and_the_chain_keeps_working() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        for t in [0u64, 10, 20, 30, 40] {
            begin_anchor(&mut chain, t, &mut topo);
            end_anchor(&mut chain, t, &mut topo);
        }
        let removed = chain.remove_range(1, 25);
        assert_eq!(
            removed.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            [10, 20]
        );
        assert_eq!(chain.instants().collect::<Vec<_>>(), vec![0, 30, 40]);
        // Prune the removed slots' nodes: first cut the deliberate edge from
        // the retained prefix into the doomed region, then close the set.
        let doomed: Vec<usize> = removed.iter().flat_map(|&(_, s)| s.nodes()).collect();
        let keep0 = chain.slot(0).unwrap();
        topo.remove_edges_into(keep0.end_node, &doomed);
        topo.prune(&doomed);
        // Shortcut re-establishes the retained order across the gap.
        let s30 = chain.slot(30).unwrap();
        topo.try_add_edge(keep0.end_node, s30.begin_node, EdgeTag::NONE)
            .unwrap();
        // Late out-of-order instants still splice between retained slots.
        let b25 = begin_anchor(&mut chain, 25, &mut topo);
        let e25 = end_anchor(&mut chain, 25, &mut topo);
        assert!(topo.precedes(keep0.end_node, b25));
        assert!(topo.precedes(e25, s30.begin_node));
        assert_chain_invariant(&chain, &topo);
    }

    #[test]
    fn splice_after_mid_chain_removal() {
        // Remove an interior slot (compaction run of one), shortcut across
        // it, then splice a new instant into the vacated gap.
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        for t in [10u64, 20, 30] {
            end_anchor(&mut chain, t, &mut topo);
            begin_anchor(&mut chain, t, &mut topo);
        }
        let s10 = chain.slot(10).unwrap();
        let s30 = chain.slot(30).unwrap();
        let doomed: Vec<usize> = chain.remove(20).unwrap().nodes().collect();
        topo.remove_edges_into(s10.end_node, &doomed);
        topo.prune(&doomed);
        topo.try_add_edge(s10.end_node, s30.begin_node, EdgeTag::NONE)
            .unwrap();
        let b25 = begin_anchor(&mut chain, 25, &mut topo);
        let e25 = end_anchor(&mut chain, 25, &mut topo);
        assert!(topo.precedes(s10.end_node, b25));
        assert!(topo.precedes(e25, s30.begin_node));
        assert_chain_invariant(&chain, &topo);
    }

    #[test]
    fn serde_round_trip() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        for t in [7u64, 3, 11] {
            begin_anchor(&mut chain, t, &mut topo);
        }
        end_anchor(&mut chain, 7, &mut topo);
        let v = serde::Serialize::to_json_value(&chain);
        let back: TimeChain = serde::Deserialize::from_json_value(&v).unwrap();
        assert_eq!(back.instants().collect::<Vec<_>>(), vec![3, 7, 11]);
        assert_eq!(back.slot(7), chain.slot(7));
        assert_eq!(back.slot(3), chain.slot(3));
    }

    #[test]
    fn transactions_hang_off_the_chain_in_real_time_order() {
        // T1 = [1, 5], T2 = [9, 12]: T1 <rt T2, so end(5) ⟶ begin(9) and
        // hooking T1 → end(5), begin(9) → T2 yields a path T1 ⟶ T2 while the
        // reverse edge T2 → T1's chain hook closes a cycle.
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        let t1 = topo.add_node();
        let t2 = topo.add_node();
        let b1 = begin_anchor(&mut chain, 1, &mut topo);
        let e1 = end_anchor(&mut chain, 5, &mut topo);
        let b2 = begin_anchor(&mut chain, 9, &mut topo);
        let e2 = end_anchor(&mut chain, 12, &mut topo);
        topo.try_add_edge(b1, t1, EdgeTag::NONE).unwrap();
        topo.try_add_edge(t1, e1, EdgeTag::NONE).unwrap();
        topo.try_add_edge(b2, t2, EdgeTag::NONE).unwrap();
        topo.try_add_edge(t2, e2, EdgeTag::NONE).unwrap();
        assert!(topo.precedes(t1, t2));
        // A dependency edge T2 → T1 contradicts real time: rejected.
        assert!(topo.try_add_edge(t2, t1, EdgeTag::NONE).is_err());
        // The other direction agrees with real time: accepted.
        assert!(topo.try_add_edge(t1, t2, EdgeTag::NONE).is_ok());
    }
}
