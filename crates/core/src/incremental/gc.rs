//! Settled-prefix garbage collection: the policy, the epoch clock, and the
//! graph-side collection ([`Engine::collect`]). The per-key half of a sweep
//! is [`super::keystate`]'s.

use super::engine::{Engine, TxnMeta};
use super::keystate::TxnSet;
use crate::check::IsolationLevel;
use mtc_history::{EdgeTag, FastHashSet, TxnId};
use serde::{Deserialize, Serialize};

/// Settled-prefix garbage collection policy for the streaming checkers.
///
/// Every `every` consumed transactions, state older than the most recent
/// `window` transactions is examined: transactions that nothing can touch
/// any more — not the last of their session, not referenced by any live
/// version, reader list or pending read, and (for SSER) not hooked into the
/// retained part of the time-chain — are retired from every index, and
/// their node ids are recycled. Steady-state memory is then proportional to
/// the *active window*, not to the whole history.
///
/// The collector's contract is a **staleness window**: verdicts (including
/// certificates and `first_violation_at`) are identical to the unbounded
/// checker's as long as every transaction only interacts — by data (reading
/// a version) or by time (real-time-ordered instants) — with transactions
/// at most `window` positions older. A read of a version retired by the GC
/// surfaces as the read of an unknown value (the conservative direction)
/// instead of the unbounded run's classification.
///
/// Every sweep also trims the reader and overwriter lists of *live*
/// (latest) versions to the window, so a hot key whose version never
/// changes holds at most the readers of the last `window + every`
/// transactions. That bounds the register state without dropping any
/// in-window reader a later overwrite could turn into an `RW` edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcPolicy {
    /// Keep at least the most recent `window` transactions resident.
    pub window: usize,
    /// Run a collection every `every` consumed transactions.
    pub every: usize,
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy {
            window: 8192,
            every: 2048,
        }
    }
}

impl GcPolicy {
    /// A window/cadence policy with both knobs clamped to at least 1.
    pub fn clamped(window: usize, every: usize) -> Self {
        GcPolicy {
            window: window.max(1),
            every: every.max(1),
        }
    }
}

/// Number of sweep epochs per collection commit. Epoch boundaries fire
/// every [`GcPolicy::every`] transactions and always sweep the per-key
/// state (keeping the staleness-window contract on its original cadence);
/// the graph-side collection — candidate identification,
/// predecessor-closure fixpoint and prune — runs only on every
/// `GC_COMMIT_EPOCHS`-th boundary, so its cost is amortized off the ingest
/// path. Deferring a commit only keeps *more* state resident, which is
/// conservative: verdicts stay bit-identical to an un-collected run, and
/// the resident-set bound grows by at most `GC_COMMIT_EPOCHS · every`
/// transactions over the configured window.
const GC_COMMIT_EPOCHS: u32 = 4;

impl Engine {
    /// True iff an epoch boundary (per-key sweep, possibly a collection
    /// commit) is due under the configured policy.
    pub(super) fn gc_due(&self) -> bool {
        match self.gc {
            Some(policy) => !self.done() && self.txn_count - self.last_gc >= policy.every,
            None => false,
        }
    }

    /// Advances the epoch clock at a due boundary; true iff this boundary
    /// is a collection commit, i.e. the caller should materialize the
    /// key-state refs and run [`Engine::collect`]. Every boundary sweeps the
    /// per-key state; only every [`GC_COMMIT_EPOCHS`]-th runs the graph-side
    /// candidate closure and prune.
    pub(super) fn begin_epoch(&mut self) -> bool {
        self.last_gc = self.txn_count;
        self.gc_epochs += 1;
        if self.gc_epochs >= GC_COMMIT_EPOCHS {
            self.gc_epochs = 0;
            true
        } else {
            false
        }
    }

    /// The transaction-id watermark of the next collection: everything at or
    /// above it is inside the protected window.
    pub(super) fn gc_watermark(&self) -> TxnId {
        let window = self.gc.map(|p| p.window).unwrap_or(usize::MAX);
        TxnId(self.txn_count.saturating_sub(window) as u32)
    }

    /// Retires the settled prefix below `watermark`: every resident
    /// transaction that is not referenced by the key-state (`refs`), is not
    /// the last of its session, and whose node has no retained predecessor
    /// — plus, in SSER mode, the time-chain prefix hooking only retired
    /// transactions. The retained structure answers every future insertion
    /// exactly as the unretired one would (see [`GcPolicy`] for the
    /// staleness-window contract).
    pub(super) fn collect(&mut self, watermark: TxnId, refs: &TxnSet) {
        if self.done() {
            return;
        }
        let mut plan = self.candidates(watermark, refs);
        self.close(&mut plan);
        self.commit(plan, watermark);
    }

    /// What a collection may retire before the closure has looked at the
    /// graph: every candidate transaction and chain slot, with the masks the
    /// closure tests predecessors against.
    fn candidates(&self, watermark: TxnId, refs: &TxnSet) -> Collection {
        // ── candidate transactions ──
        // Membership is a bitmap over transaction ids below the watermark
        // (plus the list, in id order, for iteration): the closure tests and
        // clears membership per predecessor, and bitmaps make those index
        // arithmetic instead of hash probes.
        let keep_sessions: FastHashSet<TxnId> = self.sessions.iter().flatten().copied().collect();
        let resident = self.live_txns.sorted();
        let cand_list: Vec<TxnId> = resident
            .iter()
            .map(|&(t, _)| t)
            .take_while(|&t| t < watermark)
            .filter(|t| !(self.has_init && t.0 == 0)) // ⊥T anchors new sessions
            .filter(|&t| !refs.contains(t))
            .filter(|t| !keep_sessions.contains(t))
            .collect();
        let mut cand = vec![false; watermark.0 as usize];
        for &t in &cand_list {
            cand[t.index()] = true;
        }

        // ── candidate time-chain slots (SSER) ──
        // `cut`: the smallest commit instant whose anchor a retained
        // transaction (other than ⊥T) hangs on — its own commit — or off —
        // the greatest commit instant below its begin; slots strictly below
        // it hook candidates only. ⊥T's own slots are never pruned — they
        // anchor the chain, and the deliberate cut edges out of them are
        // deleted and replaced by a shortcut to the first retained slot.
        let mut pruned_slots: Vec<(u64, usize)> = Vec::new();
        let mut chain_low = 0u64;
        if self.level == IsolationLevel::StrictSerializability && !self.chain.is_empty() {
            let bot = self
                .has_init
                .then(|| self.live_txns.get(TxnId(0)))
                .flatten();
            chain_low = bot
                .map(|r| {
                    r.begin
                        .into_iter()
                        .chain(r.end)
                        .max()
                        .map_or(0, |t| t.saturating_add(1))
                })
                .unwrap_or(0);
            let hooked_at = |r: &TxnMeta| {
                let off = r.begin.and_then(|b| self.chain.pred(b)).map(|(p, _)| p);
                r.end.into_iter().chain(off).min()
            };
            let cut = resident
                .iter()
                .filter(|(t, _)| {
                    !(cand.get(t.index()).copied().unwrap_or(false) || self.has_init && t.0 == 0)
                })
                .filter_map(|&(_, r)| hooked_at(r))
                .min()
                .unwrap_or(u64::MAX);
            if cut > chain_low {
                pruned_slots = self.chain.slots_in(chain_low, cut).to_vec();
            }
        }
        // Deliberate cut sources: nodes that are provably unreachable from
        // every transaction node, so their edges *into* the pruned set can
        // be deleted without losing any constraint a future counterexample
        // path could use. That is ⊥T itself — nothing points into it — and
        // the anchors of the permanently retained chain slots below the
        // pruned range (⊥T's instants).
        let mut cut_sources: Vec<usize> = self
            .chain
            .slots_in(0, chain_low)
            .iter()
            .map(|&(_, anchor)| anchor)
            .collect();
        if self.has_init {
            cut_sources.push(self.node_of(TxnId(0)));
        }

        // `in_nodes` mirrors the candidate set as a bitmap over order node
        // ids — a transaction's node and, at SI, its tail; the closure
        // unmarks dropped members in place, so its predecessor tests are
        // pure index arithmetic.
        let nb = self.topo.node_count();
        let mut in_nodes = vec![false; nb];
        let mut cut_mask = vec![false; nb];
        for &s in &cut_sources {
            cut_mask[s] = true;
        }
        for &t in &cand_list {
            for n in self.nodes_of(t) {
                in_nodes[n] = true;
            }
        }
        for &(_, anchor) in &pruned_slots {
            in_nodes[anchor] = true;
        }
        Collection {
            slot_dead: vec![false; pruned_slots.len()],
            slot_out_mask: vec![false; nb],
            cand_list,
            cand,
            pruned_slots,
            cut_sources,
            in_nodes,
            cut_mask,
        }
    }

    /// The closure: drops every candidate that anything retained still
    /// points at, until nothing changes — the largest candidate set closed
    /// under predecessors. The seeds are what the first of the reference's
    /// rounds drops: the candidates and slots with a retained predecessor.
    /// From there a dropped transaction re-examines only its own successors
    /// — a dropped slot's anchor pins nothing (`slot_out_mask`) — so the
    /// closure costs one pass over the candidates plus the out-edges of what
    /// it drops.
    fn close(&self, plan: &mut Collection) {
        let pinned = |&t: &TxnId| self.pinned_by_predecessor(plan, t);
        let txns: Vec<TxnId> = plan.cand_list.iter().copied().filter(pinned).collect();
        let slots = 0..plan.pruned_slots.len();
        let slots: Vec<usize> = slots.filter(|&i| self.slot_pinned(plan, i)).collect();
        let mut work = Vec::with_capacity(txns.len());
        for t in txns {
            plan.drop_txn(self, t, &mut work);
        }
        for i in slots {
            plan.drop_slot(i);
        }
        // Which candidate slot owns an anchor.
        let mut slot_at = vec![u32::MAX; plan.in_nodes.len()];
        for (i, &(_, anchor)) in plan.pruned_slots.iter().enumerate() {
            slot_at[anchor] = i as u32;
        }
        while let Some(t) = work.pop() {
            // The drop made the transaction's node and tail retained
            // predecessors.
            for n in self.nodes_of(t).flat_map(|n| self.topo.successors(n)) {
                if !plan.in_nodes[n] {
                    continue;
                }
                match self.node_owner[n].txn() {
                    Some(t) => plan.drop_txn(self, t, &mut work),
                    None => plan.drop_slot(slot_at[n] as usize),
                }
            }
        }
    }

    /// True iff candidate `t` has a predecessor the collection retains — one
    /// that is no candidate, no cut source and no chain exit of a retained
    /// slot — into its node or its tail.
    fn pinned_by_predecessor(&self, plan: &Collection, t: TxnId) -> bool {
        self.nodes_of(t)
            .any(|n| self.topo.predecessors(n).any(|p| plan.retains(p)))
    }

    /// True iff the anchor of candidate slot `i` has a retained predecessor.
    fn slot_pinned(&self, plan: &Collection, i: usize) -> bool {
        let anchor = plan.pruned_slots[i].1;
        self.topo.predecessors(anchor).any(|p| plan.retains(p))
    }

    /// Retires what survived the closure.
    fn commit(&mut self, plan: Collection, watermark: TxnId) {
        let Collection {
            mut cand_list,
            cand,
            mut pruned_slots,
            slot_dead,
            mut cut_sources,
            slot_out_mask,
            ..
        } = plan;
        cand_list.retain(|&t| cand[t.index()]);
        let mut dead = slot_dead.iter();
        pruned_slots.retain(|_| !*dead.next().expect("one flag per slot"));
        if cand_list.is_empty() && pruned_slots.is_empty() {
            return;
        }

        let mut nodes: Vec<usize> = cand_list.iter().flat_map(|&t| self.nodes_of(t)).collect();
        nodes.extend(pruned_slots.iter().map(|&(_, anchor)| anchor));
        // Closure-retained slots keep their anchors as deliberate cut
        // sources: their forward edges into the pruned runs are deleted and
        // replaced by one shortcut per run below.
        for (s, _) in slot_out_mask.iter().enumerate().filter(|&(_, &m)| m) {
            cut_sources.push(s);
        }
        // Group the surviving slots into maximal chain-adjacent runs; each
        // run is bridged by a single shortcut from the retained slot just
        // below it to the retained slot just above it (when both exist), so
        // the retained chain order survives mid-chain compaction, not just
        // prefix pruning.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &(t, _) in &pruned_slots {
            match runs.last_mut() {
                Some(run) if self.chain.succ(run.1).map(|(n, _)| n) == Some(t) => run.1 = t,
                _ => runs.push((t, t)),
            }
        }
        for &(first, last) in &runs {
            if let (Some((_, a)), Some((_, s))) = (self.chain.pred(first), self.chain.succ(last)) {
                if !self.topo.has_edge(a, s) {
                    self.topo
                        .try_add_edge(a, s, EdgeTag::NONE)
                        .expect("chain shortcut follows the existing order");
                }
            }
        }
        for &(first, last) in &runs {
            self.chain.remove_range(first, last + 1);
        }
        for &src in &cut_sources {
            self.topo.remove_edges_into(src, &nodes);
        }
        self.topo.prune(&nodes);
        for &t in &cand_list {
            self.txn_node.remove(t);
            self.txn_tail.remove(t);
            self.txn_keys.remove(t);
            self.live_txns.remove(t);
        }
        self.pruned_txns += cand_list.len();
        // Re-base the windowed maps: the dense blocks track the live window
        // and the (bounded) set of pinned stragglers spills into the low
        // maps, so resident memory stays proportional to the window.
        self.txn_node.rebase(watermark.0);
        self.txn_tail.rebase(watermark.0);
        self.txn_keys.rebase(watermark.0);
        self.live_txns.rebase(watermark.0);
    }
}

/// One collection between its candidates and its commit.
#[derive(Clone, Debug)]
pub(super) struct Collection {
    /// The candidate transactions, in id order; `cand` flags the ones the
    /// closure has not dropped, by id.
    cand_list: Vec<TxnId>,
    cand: Vec<bool>,
    /// The candidate chain slots, in instant order; `slot_dead` flags the
    /// ones the closure dropped.
    pruned_slots: Vec<(u64, usize)>,
    slot_dead: Vec<bool>,
    /// Nodes whose edges into the pruned set the commit deletes.
    cut_sources: Vec<usize>,
    /// By order node, the three kinds of node that pin nothing: a node or
    /// tail of a candidate or the anchor of a candidate slot, that the
    /// closure has not dropped (`in_nodes`), a cut source (`cut_mask`), the
    /// anchor of a dropped slot (`slot_out_mask`). Every other node is retained and pins its
    /// candidate successors.
    in_nodes: Vec<bool>,
    cut_mask: Vec<bool>,
    /// Anchors of candidate slots that the closure retains. A retained
    /// slot's anchor points forward along the chain (splice and shortcut
    /// edges follow instant order) and to transactions that hang off it,
    /// which, as candidates, lie below the watermark, out of a later
    /// commit's reach under the staleness window; so it is an acceptable
    /// predecessor: the collection commit deletes its edges into the pruned
    /// set and re-establishes the chain order with one shortcut per pruned
    /// run. Without this, a single straggler-pinned slot would
    /// cascade-retain every slot (and transaction) behind it.
    slot_out_mask: Vec<bool>,
}

impl Collection {
    fn is_cand(&self, t: TxnId) -> bool {
        self.cand.get(t.index()).copied().unwrap_or(false)
    }

    /// True iff order node `p` is retained, i.e. a predecessor that pins
    /// its successors.
    fn retains(&self, p: usize) -> bool {
        !self.in_nodes[p] && !self.cut_mask[p] && !self.slot_out_mask[p]
    }

    /// Drops candidate `t` (no-op if it is none any more) and queues it.
    fn drop_txn(&mut self, engine: &Engine, t: TxnId, work: &mut Vec<TxnId>) {
        if !self.is_cand(t) {
            return;
        }
        self.cand[t.index()] = false;
        for n in engine.nodes_of(t) {
            self.in_nodes[n] = false;
        }
        work.push(t);
    }

    /// Drops candidate slot `i`: its anchor stays, pinning nothing.
    fn drop_slot(&mut self, i: usize) {
        let anchor = self.pruned_slots[i].1;
        self.slot_dead[i] = true;
        self.in_nodes[anchor] = false;
        self.slot_out_mask[anchor] = true;
    }
}

#[cfg(test)]
impl Engine {
    /// The closure as it was computed before the worklist: rounds over every
    /// candidate and slot until one drops nothing. The reference
    /// [`Engine::close`] is held to.
    fn close_in_rounds(&self, plan: &mut Collection) {
        loop {
            let mut drop_txns: Vec<TxnId> = Vec::new();
            let mut drop_slots: Vec<usize> = Vec::new();
            for &t in &plan.cand_list {
                if plan.cand[t.index()] && self.pinned_by_predecessor(plan, t) {
                    drop_txns.push(t);
                }
            }
            for i in 0..plan.pruned_slots.len() {
                if !plan.slot_dead[i] && self.slot_pinned(plan, i) {
                    drop_slots.push(i);
                }
            }
            if drop_txns.is_empty() && drop_slots.is_empty() {
                break;
            }
            let mut work = Vec::new();
            for t in drop_txns {
                plan.drop_txn(self, t, &mut work);
            }
            for i in drop_slots {
                plan.drop_slot(i);
            }
        }
    }

    /// What a collection at `watermark` would retire, by the worklist
    /// closure and by the round-based reference: for each, the surviving
    /// candidate transactions and chain slots (by instant), in order. Looks
    /// only; commits nothing.
    pub(super) fn closures(&self, watermark: TxnId, refs: &TxnSet) -> [(Vec<TxnId>, Vec<u64>); 2] {
        let retired = |plan: Collection| {
            let txns = plan
                .cand_list
                .iter()
                .copied()
                .filter(|&t| plan.cand[t.index()]);
            let slots = plan.pruned_slots.iter().zip(&plan.slot_dead);
            let slots = slots.filter(|(_, &dead)| !dead).map(|(&(at, _), _)| at);
            (txns.collect(), slots.collect())
        };
        let mut worklist = self.candidates(watermark, refs);
        let mut rounds = worklist.clone();
        self.close(&mut worklist);
        self.close_in_rounds(&mut rounds);
        [retired(worklist), retired(rounds)]
    }
}
