//! The online time-chain: an incrementally maintained encoding of the
//! real-time order for streaming strict-serializability checking.
//!
//! The batch `CHECKSSER` sorts every begin/commit instant of the complete
//! history once and threads them into a chain of auxiliary *time nodes*, so
//! a dependency path "travels back in time" exactly when the naive
//! `Θ(n²)`-edge real-time relation has a cycle. A streaming checker cannot
//! sort up front: transactions arrive in commit order, and a commit
//! acknowledged *now* may report instants far in the past (clock skew,
//! long-running transactions). [`TimeChain`] therefore keeps the commit
//! instants in a sorted dense array and splices each new one into an
//! [`IncrementalTopo`]-backed chain: `O(1)` for the dominant append case,
//! `O(log d)` to find an instant `d` slots below the newest (the search
//! gallops back from the end, and a begin instant sits among the last few
//! commits), and an `O(n)` memmove only for the rare out-of-order splice
//! (bounded in practice by clock skew, and the garbage collector keeps `n`
//! at the live window size).
//!
//! ## One anchor per commit instant
//!
//! Each distinct commit (end) instant `e` owns one chain node, its anchor
//! `E_e`, and the anchors are chained in instant order. Begin instants own
//! nothing. A transaction `T` that ends at `e` and begins at `b` is hooked
//! with
//!
//! * `T → E_e`, and
//! * `E_p → T`, where `p` is the greatest commit instant strictly below `b`
//!   ([`TimeChain::pred`]) — no edge when no commit instant is below `b`.
//!
//! A path `T1 → E_e1 ⟶ E_p → T2` through anchors exists iff `e1 ≤ p`. As
//! `e1` is itself a commit instant and `p` the greatest one below `b2`,
//! `e1 ≤ p` iff `e1 < b2`: the anchors order `T1` before `T2` iff
//! `end(T1) < begin(T2)`, the real-time order, strict — transactions that
//! share an instant overlap and are not ordered.
//!
//! In a stream in commit order the checker gives `T` its node, then `E_e`
//! (an append, last in the maintained order), then looks `p` up among
//! anchors that are older still: the chain edge and both hooks agree with
//! the maintained order and insert without a reorder.
//!
//! ## A late commit instant
//!
//! A commit at `e` can arrive after a transaction that began above `e` is
//! hooked: clock skew, a transaction that reports only its begin, threads
//! that commit out of lock order. The fresh `E_e` goes between `E_p` and
//! `E_s`, its neighbours below and above, and every hooked `T2` with
//! `e < begin(T2) ≤ s` now has `e` as the greatest commit instant below its
//! begin: it needs `E_e → T2`. The hooks keep an invariant — every hooked
//! transaction has an edge from the anchor of its current predecessor
//! instant — so those transactions are exactly the ones in `E_p`'s forward
//! row whose begin lies in `(e, s]`; when `e` is the new smallest instant,
//! the hooked transactions that begin in `(e, s]` and hang off no anchor.
//! A transaction beginning above `s` has `E_s`'s edge, which `E_e → E_s`
//! reaches. [`TimeChain::anchor`] reports the neighbours
//! ([`Anchor::Spliced`]); the caller, which knows each node's begin instant,
//! adds these fix-up edges, and the invariant holds again.
//!
//! ## Edge emission
//!
//! [`TimeChain::anchor`] does not insert chain edges into the topology
//! itself; it pushes the required `(from, to)` pairs into a caller-supplied
//! buffer. The SSER path inserts a transaction's chain edges, then its
//! fix-up edges, then its hook edges, one [`IncrementalTopo::try_add_edge`]
//! at a time, and stops at the first rejection. Neither chain nor fix-up
//! edges can be rejected by the host topology, which is acyclic while the
//! checker runs: a fresh anchor's only edge in comes from `E_p`, which
//! already reaches every transaction it gains an edge to, and the direct
//! edge `E_p → E_s` already orders its neighbours. The first offender is
//! therefore always a hook edge. Splicing `e` between `p < s` only adds
//! edges — the now-redundant `E_p → E_s` stays as a transitive shortcut —
//! and costs a reorder: the fresh node enters the maintained order last, so
//! its edge into `E_s` points backward.

use crate::incremental::{EdgeTag, IncrementalTopo};
use serde::{Deserialize, Serialize};

/// What [`TimeChain::anchor`] found at a commit instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// The instant had its anchor already.
    Held(usize),
    /// A fresh anchor, spliced in between its neighbours, which the
    /// late-commit fix-up of the module docs reads.
    Spliced {
        /// The fresh anchor.
        node: usize,
        /// The anchor of the greatest instant below, if any.
        pred: Option<usize>,
        /// The least instant above, if any.
        succ: Option<u64>,
    },
}

impl Anchor {
    /// The anchor node, held or fresh.
    pub fn node(self) -> usize {
        match self {
            Anchor::Held(node) | Anchor::Spliced { node, .. } => node,
        }
    }
}

/// An incrementally maintained chain of commit instants, one anchor node
/// each, integrated with a growable [`IncrementalTopo`].
///
/// ```
/// use mtc_history::{EdgeTag, IncrementalTopo, TimeChain};
///
/// let mut topo = IncrementalTopo::new();
/// let mut chain = TimeChain::new();
/// let (t1, t2) = (topo.add_node(), topo.add_node());
/// // T1 = [1, 10] ends before T2 = [20, 30] begins.
/// let e10 = chain.anchor_now(10, &mut topo);
/// let e30 = chain.anchor_now(30, &mut topo);
/// topo.try_add_edge(t1, e10, EdgeTag::NONE).unwrap();
/// topo.try_add_edge(t2, e30, EdgeTag::NONE).unwrap();
/// // T2 hangs off the greatest commit instant below its begin.
/// assert_eq!(chain.pred(20), Some((10, e10)));
/// topo.try_add_edge(e10, t2, EdgeTag::NONE).unwrap();
/// // Inserted out of order, 15 is spliced between 10 and 30.
/// let e15 = chain.anchor_now(15, &mut topo);
/// assert!(topo.precedes(e10, e15) && topo.precedes(e15, e30));
/// // A dependency edge T2 → T1 contradicts real time.
/// assert!(topo.try_add_edge(t2, t1, EdgeTag::NONE).is_err());
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TimeChain {
    /// `(instant, anchor)` sorted by instant. Dense storage: the dominant
    /// in-order commit stream appends at the back in `O(1)`, lookups gallop
    /// back from the newest slot, and the collector drains settled ranges.
    slots: Vec<(u64, usize)>,
}

impl TimeChain {
    /// An empty chain.
    pub fn new() -> Self {
        TimeChain::default()
    }

    /// Number of distinct commit instants in the chain.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True iff no commit instant has been anchored yet.
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

    /// The anchor of commit instant `instant`, if it has one.
    pub fn slot(&self, instant: u64) -> Option<usize> {
        self.index_of(instant).ok().map(|i| self.slots[i].1)
    }

    /// The greatest commit instant strictly below `instant`, and its anchor:
    /// what a transaction beginning at `instant` hangs off.
    pub fn pred(&self, instant: u64) -> Option<(u64, usize)> {
        let i = self.index_of(instant).unwrap_or_else(|i| i);
        i.checked_sub(1).map(|i| self.slots[i])
    }

    /// The smallest commit instant strictly above `instant`, and its anchor.
    pub fn succ(&self, instant: u64) -> Option<(u64, usize)> {
        let i = self.index_of(instant).map_or_else(|i| i, |i| i + 1);
        self.slots.get(i).copied()
    }

    /// The anchor of commit instant `instant`, spliced in on first touch.
    /// The chain edges a splice needs are pushed onto `edges` instead of
    /// being inserted — submit them to the host topology (they can never be
    /// rejected; see the module docs) before querying reachability. A
    /// splice allocates one topo node, the anchor.
    pub fn anchor(
        &mut self,
        instant: u64,
        topo: &mut IncrementalTopo,
        edges: &mut Vec<(usize, usize)>,
    ) -> Anchor {
        // Append fast path: strictly above the current maximum — no lookup
        // beyond the last element, the predecessor is the maximum slot and
        // there is no successor.
        let at = match self.slots.last() {
            Some(&(max, _)) if instant > max => self.slots.len(),
            None => 0,
            _ => match self.index_of(instant) {
                Ok(i) => return Anchor::Held(self.slots[i].1),
                Err(i) => i,
            },
        };
        let node = topo.add_node();
        let pred = at.checked_sub(1).map(|i| self.slots[i].1);
        let succ = self.slots.get(at).copied();
        edges.extend(pred.map(|p| (p, node)));
        edges.extend(succ.map(|(_, s)| (node, s)));
        self.slots.insert(at, (instant, node));
        let succ = succ.map(|(t, _)| t);
        Anchor::Spliced { node, pred, succ }
    }

    /// [`TimeChain::anchor`] with the emitted chain edges applied to `topo`
    /// immediately — convenience for callers outside the streaming hot path.
    pub fn anchor_now(&mut self, instant: u64, topo: &mut IncrementalTopo) -> usize {
        let mut edges = Vec::new();
        let anchor = self.anchor(instant, topo, &mut edges);
        for (from, to) in edges {
            topo.try_add_edge(from, to, EdgeTag::NONE)
                .expect("chain edges cannot close a cycle");
        }
        anchor.node()
    }

    /// The `(instant, anchor)` slots in ascending order.
    pub fn slots(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.slots.iter().copied()
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
    pub fn slots_in(&self, low: u64, cut: u64) -> &[(u64, usize)] {
        &self.slots[self.range_of(low, cut)]
    }

    /// Removes the slots with instants in `low..cut` from the chain,
    /// returning them in ascending order. The caller is responsible for
    /// retiring their anchors from the host topology (see
    /// [`IncrementalTopo::prune`]) and for re-establishing the chain-order
    /// shortcut from the last retained slot below `low` (if any) to the
    /// first retained slot at or above `cut` — the compaction logic of the
    /// streaming SSER checker does exactly that.
    pub fn remove_range(&mut self, low: u64, cut: u64) -> Vec<(u64, usize)> {
        let range = self.range_of(low, cut);
        self.slots.drain(range).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The galloping lookup returns what a binary search over every slot
        /// returns — `Ok` at an anchored instant, the same insertion point
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
                slots: instants.iter().enumerate().map(|(n, &t)| (t, n)).collect(),
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
        let chain = TimeChain::new();
        assert_eq!(chain.index_of(5), Err(0));
        assert_eq!(
            (chain.pred(5), chain.succ(5), chain.slot(5)),
            (None, None, None)
        );
    }

    /// Every pair of neighbouring instants must be chain-ordered.
    fn assert_chain_invariant(chain: &TimeChain, topo: &IncrementalTopo) {
        for w in chain.slots.windows(2) {
            let ((ta, a), (tb, b)) = (w[0], w[1]);
            assert!(ta < tb);
            assert!(topo.precedes(a, b), "E({ta}) must precede E({tb})");
        }
    }

    #[test]
    fn out_of_order_insertion_links_the_chain() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        for t in [50u64, 10, 30, 20, 40, 60, 5] {
            chain.anchor_now(t, &mut topo);
        }
        assert_eq!(chain.len(), 7);
        let instants: Vec<u64> = chain.slots().map(|(t, _)| t).collect();
        assert_eq!(instants, vec![5, 10, 20, 30, 40, 50, 60]);
        assert_chain_invariant(&chain, &topo);
    }

    #[test]
    fn single_role_instants_stay_collapsed() {
        // An instant has one role, commit, and one node however often it is
        // touched.
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        let e = chain.anchor_now(7, &mut topo);
        let mut edges = Vec::new();
        assert_eq!(chain.anchor(7, &mut topo, &mut edges), Anchor::Held(e));
        assert!(edges.is_empty(), "a held anchor needs no chain edge");
        assert_eq!((chain.len(), topo.node_count()), (1, 1));
        assert_eq!(chain.slot(7), Some(e));
    }

    #[test]
    fn a_splice_reports_its_neighbours() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        let mut edges = Vec::new();
        let first = chain.anchor(10, &mut topo, &mut edges);
        let e10 = first.node();
        assert_eq!(
            first,
            Anchor::Spliced {
                node: e10,
                pred: None,
                succ: None
            }
        );
        let e30 = chain.anchor(30, &mut topo, &mut edges).node();
        assert_eq!(edges, [(e10, e30)], "an append links the maximum to it");
        edges.clear();
        let e20 = chain.anchor(20, &mut topo, &mut edges);
        let node = e20.node();
        let (pred, succ) = (Some(e10), Some(30));
        assert_eq!(e20, Anchor::Spliced { node, pred, succ });
        assert_eq!(edges, [(e10, node), (node, e30)]);
        let e5 = chain.anchor(5, &mut topo, &mut edges);
        let (node, succ) = (e5.node(), Some(10));
        assert_eq!(
            e5,
            Anchor::Spliced {
                node,
                pred: None,
                succ
            }
        );
    }

    #[test]
    fn pred_and_succ_are_strict() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        let e10 = chain.anchor_now(10, &mut topo);
        let e20 = chain.anchor_now(20, &mut topo);
        assert_eq!(chain.pred(10), None);
        assert_eq!(chain.pred(20), Some((10, e10)));
        assert_eq!(chain.pred(15), Some((10, e10)));
        assert_eq!(chain.pred(u64::MAX), Some((20, e20)));
        assert_eq!(chain.succ(10), Some((20, e20)));
        assert_eq!(chain.succ(20), None);
        assert_eq!(chain.succ(15), Some((20, e20)));
    }

    /// Hooks transaction node `t` into the chain as `[begin, end]`.
    fn hook(chain: &mut TimeChain, topo: &mut IncrementalTopo, t: usize, begin: u64, end: u64) {
        let e = chain.anchor_now(end, topo);
        topo.try_add_edge(t, e, EdgeTag::NONE).unwrap();
        if let Some((_, p)) = chain.pred(begin) {
            topo.try_add_edge(p, t, EdgeTag::NONE).unwrap();
        }
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
        hook(&mut chain, &mut topo, t1, 30, 42);
        hook(&mut chain, &mut topo, t2, 42, 50);
        assert!(topo.clone().try_add_edge(t2, t1, EdgeTag::NONE).is_ok());
        assert!(topo.try_add_edge(t1, t2, EdgeTag::NONE).is_ok());
    }

    #[test]
    fn equal_instant_bursts_share_one_anchor_per_role() {
        // Many transactions beginning and ending at the same instant: the
        // commit role holds one anchor no matter the burst size, the begin
        // role none, and none of the sharers become real-time ordered.
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        chain.anchor_now(10, &mut topo);
        let txns: Vec<usize> = (0..8).map(|_| topo.add_node()).collect();
        for &t in &txns {
            hook(&mut chain, &mut topo, t, 99, 99);
        }
        assert_eq!(chain.len(), 2);
        assert_eq!(topo.node_count(), 2 + txns.len());
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
            chain.anchor_now(t * 10, &mut topo);
        }
        assert_eq!(chain.len(), 32);
        assert_chain_invariant(&chain, &topo);
        let (first, last) = (chain.slot(0).unwrap(), chain.slot(310).unwrap());
        assert!(topo.precedes(first, last));
    }

    /// Prunes the anchors of `removed` after cutting the edge into them from
    /// `keep`, and re-links `keep` to `next`.
    fn prune(topo: &mut IncrementalTopo, removed: &[(u64, usize)], keep: usize, next: usize) {
        let doomed: Vec<usize> = removed.iter().map(|&(_, n)| n).collect();
        topo.remove_edges_into(keep, &doomed);
        topo.prune(&doomed);
        topo.try_add_edge(keep, next, EdgeTag::NONE).unwrap();
    }

    #[test]
    fn remove_range_prunes_a_prefix_and_the_chain_keeps_working() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        for t in [0u64, 10, 20, 30, 40] {
            chain.anchor_now(t, &mut topo);
        }
        let removed = chain.remove_range(1, 25);
        assert_eq!(
            removed.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            [10, 20]
        );
        let instants: Vec<u64> = chain.slots().map(|(t, _)| t).collect();
        assert_eq!(instants, vec![0, 30, 40]);
        let (keep0, s30) = (chain.slot(0).unwrap(), chain.slot(30).unwrap());
        prune(&mut topo, &removed, keep0, s30);
        // Late out-of-order instants still splice between retained slots.
        let e25 = chain.anchor_now(25, &mut topo);
        assert!(topo.precedes(keep0, e25));
        assert!(topo.precedes(e25, s30));
        assert_chain_invariant(&chain, &topo);
    }

    #[test]
    fn splice_after_mid_chain_removal() {
        // Remove an interior slot (compaction run of one), shortcut across
        // it, then splice a new instant into the vacated gap.
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        for t in [10u64, 20, 30] {
            chain.anchor_now(t, &mut topo);
        }
        let (s10, s30) = (chain.slot(10).unwrap(), chain.slot(30).unwrap());
        let removed = chain.remove_range(20, 21);
        prune(&mut topo, &removed, s10, s30);
        let e25 = chain.anchor_now(25, &mut topo);
        assert!(topo.precedes(s10, e25));
        assert!(topo.precedes(e25, s30));
        assert_chain_invariant(&chain, &topo);
    }

    #[test]
    fn serde_round_trip() {
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        for t in [7u64, 3, 11] {
            chain.anchor_now(t, &mut topo);
        }
        let v = serde::Serialize::to_json_value(&chain);
        let back: TimeChain = serde::Deserialize::from_json_value(&v).unwrap();
        assert_eq!(
            back.slots().collect::<Vec<_>>(),
            chain.slots().collect::<Vec<_>>()
        );
        assert_eq!(back.slot(7), chain.slot(7));
    }

    #[test]
    fn transactions_hang_off_the_chain_in_real_time_order() {
        // T1 = [1, 5], T2 = [9, 12]: T1 <rt T2, so T1 → E(5) → T2 while the
        // reverse dependency edge T2 → T1 closes a cycle.
        let mut topo = IncrementalTopo::new();
        let mut chain = TimeChain::new();
        let t1 = topo.add_node();
        let t2 = topo.add_node();
        hook(&mut chain, &mut topo, t1, 1, 5);
        hook(&mut chain, &mut topo, t2, 9, 12);
        assert!(topo.precedes(t1, t2));
        // A dependency edge T2 → T1 contradicts real time: rejected.
        assert!(topo.try_add_edge(t2, t1, EdgeTag::NONE).is_err());
        // The other direction agrees with real time: accepted.
        assert!(topo.try_add_edge(t1, t2, EdgeTag::NONE).is_ok());
    }
}
