//! The key-independent core of the streaming checker: the maintained
//! topological order, whose rows hold each dependency edge once with its
//! label, the SSER time-chain hooks, SI's tail nodes and the verdict latch.
//! [`Engine::admit`] registers a transaction, [`Engine::settle`] applies
//! what it was found to entail.

use super::arena::{IdOrdered, TxnMap};
use super::gc::GcPolicy;
use super::{keep_lowest, Findings};
use crate::check::IsolationLevel;
use crate::mini::{validate_shape, MAX_OPS};
use crate::verdict::{CheckError, Violation};
use mtc_history::{
    Anchor, Edge, EdgeKind, EdgeTag, FastHashMap, IncrementalTopo, IntraAnomaly, IntraViolation,
    Key, Op, SessionId, TimeChain, Transaction, TxnId, TxnStatus,
};
use serde::{Deserialize, Serialize};

// ───────────────────────── the engine ───────────────────────────────────────

/// Owner of one node of the topological order: a transaction, an
/// auxiliary time node of the SSER time-chain, or the tail node of a
/// transaction at SI (see [`split_edge`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(super) enum NodeOwner {
    Txn(TxnId),
    Time,
    Tail(TxnId),
}

impl NodeOwner {
    /// The transaction whose node or tail this is.
    pub(super) fn txn(self) -> Option<TxnId> {
        match self {
            NodeOwner::Txn(t) | NodeOwner::Tail(t) => Some(t),
            NodeOwner::Time => None,
        }
    }
}

/// The edges of the maintained order that stand for one dependency edge at
/// SI, given each endpoint's `(node, tail)`: a base edge `a → b` (`SO`,
/// `WR`, `WW`) is `a → b` and `a → b̂`, an `RW` edge `b → c` is `b̂ → c`. A
/// tail is entered only by base edges and left only by `RW` edges, so the
/// paths between transaction nodes are exactly the edges of
/// `(SO ∪ WR ∪ WW) ; RW?`, and the order is acyclic iff that composition is.
pub(super) fn split_edge(
    kind: EdgeKind,
    (a, a_tail): (usize, usize),
    (b, b_tail): (usize, usize),
) -> impl Iterator<Item = (usize, usize)> {
    let pairs = if kind.is_rw() {
        [Some((a_tail, b)), None]
    } else {
        [Some((a, b)), Some((a, b_tail))]
    };
    pairs.into_iter().flatten()
}

/// The keys a resident transaction touches, in the order it first touches
/// them: a mini-transaction touches at most two, and the key slot of a
/// labelled row entry into the transaction's node or tail indexes them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub(super) struct TxnKeys {
    first: Key,
    second: Option<Key>,
}

impl TxnKeys {
    /// The first two keys `ops` touch, if it touches any.
    fn of(ops: &[Op]) -> Option<TxnKeys> {
        let first = ops.first()?.key();
        let second = ops.iter().map(Op::key).find(|&k| k != first);
        Some(TxnKeys { first, second })
    }

    /// The slot of `key`, if the transaction touches it.
    fn slot(self, key: Key) -> Option<usize> {
        if key == self.first {
            Some(0)
        } else {
            (Some(key) == self.second).then_some(1)
        }
    }

    /// The keys in slot order, and how many there are.
    fn keys(self) -> ([Key; 2], usize) {
        let second = self.second.unwrap_or(self.first);
        ([self.first, second], 1 + usize::from(self.second.is_some()))
    }
}

/// The instants a resident SSER commit hooks into the time-chain with (none
/// for other transactions and levels), which the GC's chain cut and the
/// late-commit fix-up read.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub(super) struct TxnMeta {
    pub(super) begin: Option<u64>,
    pub(super) end: Option<u64>,
}

/// The key-independent state: topological order, verdict latch and session
/// bookkeeping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(super) struct Engine {
    pub(super) level: IsolationLevel,
    /// Dependency edges derived so far, the one that closed a cycle
    /// included: [`super::IncrementalChecker::edge_count`].
    pub(super) edges: usize,
    /// SER: maintained over *all* edges. SSER: additionally contains the
    /// time-chain's commit anchors and the hook edges. SI: a tail node per
    /// transaction besides, each edge split by [`split_edge`]. A dependency
    /// edge is held here alone: its pair once, its label in the entry
    /// ([`EdgeTag`]), the label's key named by its slot in the target's
    /// `txn_keys`.
    pub(super) topo: IncrementalTopo,
    /// SSER: the online time-chain, one anchor per commit instant.
    pub(super) chain: TimeChain,
    /// Topological-order node of each resident transaction. An explicit map
    /// (rather than the identity) because pruned node ids are recycled.
    pub(super) txn_node: TxnMap<usize>,
    /// SI: the tail node of each resident transaction.
    pub(super) txn_tail: TxnMap<usize>,
    /// The keys of each resident transaction but `⊥T`, which is never the
    /// target of an edge.
    pub(super) txn_keys: TxnMap<TxnKeys>,
    /// Owner of each topological-order node, for cycle splicing.
    pub(super) node_owner: Vec<NodeOwner>,
    /// Last *committed* transaction of each session: the source of the
    /// session's next `SO` edge, which skips aborted attempts.
    pub(super) sessions: Vec<Option<TxnId>>,
    /// The instants of every resident (unpruned) transaction: the same ids
    /// as `txn_node`, in a table of their own so that the node lookups of
    /// every edge insertion stay in the smaller one.
    pub(super) live_txns: IdOrdered<TxnMeta>,
    /// Settled-prefix GC policy; `None` disables collection.
    pub(super) gc: Option<GcPolicy>,
    /// `txn_count` at the last epoch boundary (sweep).
    pub(super) last_gc: usize,
    /// Epoch boundaries since the last collection commit: every
    /// [`GC_COMMIT_EPOCHS`]-th boundary runs the graph-side collection, the
    /// boundaries in between only sweep the per-key state (cheap and
    /// ingest-adjacent), keeping the expensive candidate-closure walk and
    /// prune off the common path. Serialized so a resumed checker keeps the
    /// exact epoch phase and prunes at the same points as an uninterrupted
    /// run.
    pub(super) gc_epochs: u32,
    /// Transactions retired by the GC so far.
    pub(super) pruned_txns: usize,
    /// The admitted transaction's chain splice and fix-up edges, from
    /// [`Engine::admit`] to the time-hook stage of [`Engine::settle`], which
    /// inserts them ahead of the hook edges — pure scratch, never holds data
    /// across transactions.
    #[serde(skip)]
    pub(super) time_scratch: Vec<(usize, usize)>,
    pub(super) has_init: bool,
    pub(super) txn_count: usize,
    pub(super) violation: Option<Violation>,
    pub(super) error: Option<CheckError>,
    pub(super) violated_at: Option<TxnId>,
}

impl Engine {
    pub(super) fn new(level: IsolationLevel) -> Self {
        Engine {
            level,
            edges: 0,
            topo: IncrementalTopo::new(),
            chain: TimeChain::new(),
            txn_node: TxnMap::default(),
            txn_tail: TxnMap::default(),
            txn_keys: TxnMap::default(),
            node_owner: Vec::new(),
            sessions: Vec::new(),
            live_txns: IdOrdered::default(),
            gc: None,
            last_gc: 0,
            gc_epochs: 0,
            pruned_txns: 0,
            time_scratch: Vec::new(),
            has_init: false,
            txn_count: 0,
            violation: None,
            error: None,
            violated_at: None,
        }
    }

    /// Topological-order node of a resident transaction.
    #[inline]
    pub(super) fn node_of(&self, txn: TxnId) -> usize {
        *self
            .txn_node
            .get(txn)
            .expect("edge endpoint must be a resident transaction")
    }

    /// The order nodes of a resident transaction: its node and, at SI, its
    /// tail.
    pub(super) fn nodes_of(&self, txn: TxnId) -> impl Iterator<Item = usize> {
        let tail = self.txn_tail.get(txn).copied();
        std::iter::once(self.node_of(txn)).chain(tail)
    }

    /// Records `owner` for a (possibly recycled) topological-order node.
    fn set_owner(&mut self, node: usize, owner: NodeOwner) {
        if self.node_owner.len() <= node {
            self.node_owner.resize(node + 1, NodeOwner::Time);
        }
        self.node_owner[node] = owner;
    }

    pub(super) fn done(&self) -> bool {
        self.violation.is_some() || self.error.is_some()
    }

    fn latch_violation(&mut self, v: Violation, at: TxnId) {
        if !self.done() {
            self.violation = Some(v);
            self.violated_at = Some(at);
        }
    }

    /// Registers the next transaction as `id`: assigns its node, validates
    /// its shape, runs the local intra scan (both into `found`) and looks up
    /// the source of its `SO` edge.
    pub(super) fn admit(
        &mut self,
        id: TxnId,
        txn: &Transaction,
        is_init: bool,
        found: &mut Findings,
    ) -> Admitted {
        debug_assert_eq!(id.index(), self.txn_count);
        self.txn_count += 1;
        // A transaction takes at most two nodes: its own, and a commit
        // anchor (SSER) or its tail (SI).
        if !self.topo.has_room(2) {
            let nodes = self.topo.node_count();
            keep_lowest(&mut found.error, 0, CheckError::OrderFull { nodes });
            return Admitted {
                so: None,
                hooks: None,
            };
        }

        // SSER: committed transactions with at least one recorded instant
        // (⊥T included, matching `check_sser`'s instant collection) hook
        // into the time-chain; only theirs are recorded.
        let timed = self.level == IsolationLevel::StrictSerializability
            && txn.status == TxnStatus::Committed
            && (txn.begin.is_some() || txn.end.is_some());
        let (begin, end) = if timed {
            (txn.begin, txn.end)
        } else {
            (None, None)
        };
        let node = self.topo.add_node();
        self.txn_node.insert(id, node);
        self.set_owner(node, NodeOwner::Txn(id));
        // SSER ingest fast path: the commit anchor comes after the
        // transaction's node and the anchor it hangs off before it, so for
        // a stream in commit order every chain and hook edge agrees with the
        // maintained order and inserts in O(1), with no reorder pass. The
        // splice and fix-up edges wait in `time_scratch` for the hook stage
        // of `settle`.
        self.time_scratch.clear();
        let end_anchor = end.map(|instant| self.commit_anchor(instant));
        let begin_anchor = begin.and_then(|b| self.chain.pred(b)).map(|(_, p)| p);
        // Tails only exist at SI; the other levels skip the node
        // bookkeeping entirely on the ingest hot path.
        if self.level == IsolationLevel::SnapshotIsolation {
            let tail = self.topo.add_node();
            self.txn_tail.insert(id, tail);
            self.set_owner(tail, NodeOwner::Tail(id));
        }
        self.live_txns.insert(id, TxnMeta { begin, end });

        let mut admitted = Admitted {
            so: None,
            hooks: timed.then_some((begin_anchor, end_anchor)),
        };
        if is_init {
            self.has_init = true;
            return admitted;
        }
        if let Some(keys) = TxnKeys::of(&txn.ops) {
            self.txn_keys.insert(id, keys);
        }
        if let Err(v) = validate_shape(id, &txn.ops) {
            keep_lowest(&mut found.error, 0, CheckError::NotMiniTransaction(v));
        }
        if txn.status == TxnStatus::Committed {
            if let Some(v) = local_intra_scan(id, txn) {
                keep_lowest(&mut found.intra, 0, v);
            }
            // SO edge: the session's previous committed transaction (or ⊥T
            // for the first).
            if txn.session != SessionId::INIT {
                let s = txn.session.index();
                while self.sessions.len() <= s {
                    self.sessions.push(None);
                }
                admitted.so = self.sessions[s]
                    .replace(id)
                    .or(self.has_init.then_some(TxnId(0)));
            }
        }
        admitted
    }

    /// Applies what transaction `at` was found to entail, one stage after
    /// the other like `preflight` + `check_batch`; the first stage that
    /// latches ends it. The order is the module docs' "One transaction,
    /// stage by stage": certificates and snapshot bytes depend on it.
    /// `found` is left empty, its edge buffer allocated.
    pub(super) fn settle(&mut self, at: TxnId, admitted: Admitted, found: &mut Findings) {
        let (error, intra) = (found.error.take(), found.intra.take());
        let divergence = found.divergence.take();
        found.edges.sort_by_key(|e| e.0); // stable: discovery order within a key
        let edges = found.edges.drain(..).map(|(_, e)| e);
        if let Some((_, e)) = error {
            self.error = Some(e);
            return;
        }
        if let Some((_, v)) = intra {
            return self.latch_violation(Violation::Intra(vec![v]), at);
        }
        // `CHECKSI`'s early exit.
        if let Some((_, d)) = divergence {
            return self.latch_violation(d.into_violation(), at);
        }
        if let Some(from) = admitted.so {
            let kind = EdgeKind::So;
            self.insert(at, Edge { from, to: at, kind });
        }
        if let Some(anchors) = admitted.hooks {
            self.hook(at, anchors);
        }
        for edge in edges {
            self.insert(at, edge);
        }
    }

    /// Adds one dependency edge to the maintained order — at SSER the
    /// *augmented* one, time nodes included, where a rejection means a
    /// dependency path contradicts the time-chain; at SI split by
    /// [`split_edge`] — labelled with its kind and the slot of its key among
    /// the target's. No-op once a verdict is latched.
    ///
    /// A pair the order holds already keeps its entry, relabelled only by a
    /// strictly better kind (`WR(x)` then `WW(x)` from one writer to a
    /// read-modify-write is one entry, labelled `WW(x)`): the best kind by
    /// `EdgeKind::label_rank`, the first to arrive among equals.
    fn insert(&mut self, at: TxnId, edge: Edge) {
        let Edge { from, to, kind } = edge;
        if self.done() {
            return;
        }
        self.edges += 1;
        let slot = kind.key().map_or(0, |key| {
            let keys = self.txn_keys.get(to).copied();
            let slot = keys.and_then(|keys| keys.slot(key));
            slot.expect("a keyed edge's key is one of its target's")
        });
        let tag = EdgeTag::new(kind, slot);
        let (u, v) = (self.node_of(from), self.node_of(to));
        let Some((&u_tail, &v_tail)) = self.txn_tail.get(from).zip(self.txn_tail.get(to)) else {
            return self.order_edge(at, u, v, tag);
        };
        for (x, y) in split_edge(kind, (u, u_tail), (v, v_tail)) {
            self.order_edge(at, x, y, tag);
        }
    }

    /// Inserts `u → v`, labelled `tag`, into the maintained order and
    /// splices a rejection back into a labelled counterexample; no-op once a
    /// verdict is latched.
    fn order_edge(&mut self, at: TxnId, u: usize, v: usize, tag: EdgeTag) {
        if self.done() {
            return;
        }
        if let Err(cycle) = self.topo.try_add_edge(u, v, tag) {
            let edges = self.order_cycle_edges(&cycle, tag);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
    }

    /// SSER: hooks transaction `at` into the time-chain: off the anchor of
    /// the greatest commit instant below its begin, into the anchor of its
    /// commit (each side independently — a partially timed transaction
    /// still constrains one direction of the real-time order). The chain
    /// splice and fix-up edges [`Engine::admit`] left in the scratch, then
    /// the hook edges, go into the order one by one in that sequence, up to
    /// the first rejection, whose canonical certificate is the verdict. A
    /// rejected hook edge (e.g. a commit whose reported instants contradict
    /// edges already derived) latches exactly like a dependency-edge
    /// rejection; chain and fix-up edges are never the offender (see the
    /// [`mtc_history::TimeChain`] module docs).
    fn hook(&mut self, at: TxnId, (begin, end): (Option<usize>, Option<usize>)) {
        if self.done() {
            return;
        }
        let tnode = self.node_of(at);
        let mut pairs = std::mem::take(&mut self.time_scratch);
        pairs.extend(begin.map(|anchor| (anchor, tnode)));
        pairs.extend(end.map(|anchor| (tnode, anchor)));
        let rejected = pairs
            .iter()
            .find_map(|&(from, to)| self.topo.try_add_edge(from, to, EdgeTag::NONE).err());
        if let Some(cycle) = rejected {
            let edges = self.order_cycle_edges(&cycle, EdgeTag::NONE);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
        self.time_scratch = pairs;
    }

    /// The anchor of commit instant `instant`. A fresh one is spliced into
    /// the chain, its chain edges pushed onto the scratch, followed by the
    /// late-commit fix-ups ([`mtc_history::TimeChain`]'s module docs): an
    /// edge to every hooked transaction that now hangs off it — those in its
    /// predecessor's row, or with no predecessor every resident one, whose
    /// begin lies above `instant` and at most at the successor instant.
    fn commit_anchor(&mut self, instant: u64) -> usize {
        let pairs = &mut self.time_scratch;
        let (node, pred, succ) = match self.chain.anchor(instant, &mut self.topo, pairs) {
            Anchor::Held(node) => return node,
            Anchor::Spliced { node, pred, succ } => (node, pred, succ),
        };
        self.set_owner(node, NodeOwner::Time);
        let hangs_here = |meta: Option<&TxnMeta>| {
            let begin = meta.and_then(|m| m.begin);
            begin.is_some_and(|b| instant < b && succ.is_none_or(|s| b <= s))
        };
        match pred {
            Some(p) => {
                for v in self.topo.successors(p) {
                    let NodeOwner::Txn(t) = self.node_owner[v] else {
                        continue;
                    };
                    if hangs_here(self.live_txns.get(t)) {
                        self.time_scratch.push((node, v));
                    }
                }
            }
            None => {
                for (t, meta) in self.live_txns.sorted() {
                    if hangs_here(Some(meta)) {
                        self.time_scratch.push((node, self.node_of(t)));
                    }
                }
            }
        }
        node
    }

    /// Maps a cycle over the maintained order back to labelled edges, from
    /// its first transaction node on, mirroring the splice of
    /// [`crate::check_sser`]: a direct hop between two transactions' nodes
    /// is one edge of the order and reports the label its row entry carries
    /// — `closing`, the rejected edge's, for the hop that closes the cycle,
    /// which no row holds — and hops through time nodes (SSER only) become
    /// RT edges. At SI a hop into a node or a tail carries a base kind and a
    /// hop out of a tail an `RW` kind, because those are the only labels
    /// [`split_edge`] puts there. One look-up per hop in its source's row.
    fn order_cycle_edges(&self, cycle: &[usize], closing: EdgeTag) -> Vec<Edge> {
        let len = cycle.len();
        let owner = |i: usize| self.node_owner[cycle[i % len]];
        let start = (0..len).find(|&i| matches!(owner(i), NodeOwner::Txn(_)));
        let start = start.expect("a cycle passes a transaction node");
        // The cycle's positions from `start` and their transactions, time
        // nodes left out.
        let real: Vec<(usize, TxnId)> = (start..start + len)
            .filter_map(|i| Some((i, owner(i).txn()?)))
            .collect();
        let back_to_start = (start + len, real[0].1);
        let hops = real.iter().zip(real.iter().skip(1).chain([&back_to_start]));
        let hop = |(&(pos, from), &(next, to)): (&(usize, TxnId), &(usize, TxnId))| {
            let kind = if pos + 1 == next {
                let tag = if pos % len == len - 1 {
                    closing
                } else {
                    let (u, v) = (cycle[pos % len], cycle[next % len]);
                    let tag = self.topo.label(u, v);
                    tag.expect("a hop of the cycle is an edge of the order")
                };
                let kind = self.kind_of(tag, Some(to)).ok().flatten();
                kind.expect("an edge between transactions carries its label")
            } else {
                EdgeKind::Rt
            };
            Edge { from, to, kind }
        };
        hops.map(hop).collect()
    }

    /// The kind a row entry into transaction `to`'s node or tail (`None`:
    /// a time node) stands for: `Ok(None)` when unlabelled, `Err` when the
    /// label names no kind, or a key `to` does not have.
    fn kind_of(&self, tag: EdgeTag, to: Option<TxnId>) -> Result<Option<EdgeKind>, String> {
        let keys = to.and_then(|t| self.txn_keys.get(t));
        let (keys, n) = keys.map_or(([Key(0); 2], 0), |k| k.keys());
        tag.kind(&keys[..n])
    }

    /// The labelled entries of the order's rows between two transactions'
    /// nodes, node by node: see [`super::IncrementalChecker::order_edges`].
    pub(super) fn order_edges(&self) -> impl Iterator<Item = OrderEdge> + '_ {
        let nodes = (0..self.topo.node_count()).filter(|&u| self.topo.is_live(u));
        nodes.flat_map(move |u| {
            let entries = self.topo.labelled_successors(u);
            entries.filter_map(move |(v, tag)| {
                let (a, b) = (self.node_owner[u], self.node_owner[v]);
                let (from, to) = (a.txn()?, b.txn()?);
                let kind = self.kind_of(tag, Some(to)).ok().flatten()?;
                Some(OrderEdge {
                    edge: Edge { from, to, kind },
                    out_of_tail: matches!(a, NodeOwner::Tail(_)),
                    into_tail: matches!(b, NodeOwner::Tail(_)),
                })
            })
        })
    }

    /// Refuses an order that [`IncrementalTopo::check`] refuses, tables
    /// that disagree with it, or rows that hold a label naming a key its
    /// target does not have: a snapshot's bytes, checked as they are read.
    /// The tables agree with the order when its live nodes are exactly the
    /// nodes the transaction, tail and time-chain tables place, each once,
    /// each owned in `node_owner` by what places it, and the chain's
    /// instants strictly increase.
    pub(super) fn check_labels(&self) -> Result<(), String> {
        self.topo.check()?;
        let count = self.topo.node_count();
        if self.node_owner.len() != count {
            let owners = self.node_owner.len();
            return Err(format!("{owners} node owners for an order of {count}"));
        }
        let mut slots = self.chain.slots().zip(self.chain.slots().skip(1));
        if let Some(((a, _), (b, _))) = slots.find(|((a, _), (b, _))| a >= b) {
            return Err(format!("a time-chain with instant {a} before {b}"));
        }
        let nodes = self.txn_node.iter().map(|(t, &n)| (n, NodeOwner::Txn(t)));
        let tails = self.txn_tail.iter().map(|(t, &n)| (n, NodeOwner::Tail(t)));
        let anchors = self.chain.slots().map(|(_, n)| (n, NodeOwner::Time));
        let mut placed = vec![false; count];
        for (node, owner) in nodes.chain(tails).chain(anchors) {
            let held = self.node_owner.get(node);
            if held != Some(&owner) || !self.topo.is_live(node) || placed[node] {
                let what = format!("{owner:?} at node {node} of an order of {count}");
                return Err(format!(
                    "{what}: owned by {held:?}, retired or placed twice"
                ));
            }
            placed[node] = true;
        }
        if let Some(node) = (0..count).find(|&n| self.topo.is_live(n) && !placed[n]) {
            return Err(format!("live node {node} is placed by no table"));
        }
        for (v, tag) in (0..count).flat_map(|u| self.topo.labelled_successors(u)) {
            self.kind_of(tag, self.node_owner[v].txn())?;
        }
        Ok(())
    }
}

/// One labelled entry of the maintained order's rows: the dependency edge
/// it stands for, with the label it carries, and at SI which half of the
/// split it is ([`IncrementalChecker::order_edges`]).
///
/// [`IncrementalChecker::order_edges`]: super::IncrementalChecker::order_edges
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderEdge {
    /// The pair and its label.
    pub edge: Edge,
    /// SI: the entry leaves the tail of `edge.from` (an `RW` edge).
    pub out_of_tail: bool,
    /// SI: the entry enters the tail of `edge.to` (a base edge's second
    /// half).
    pub into_tail: bool,
}

/// What [`Engine::admit`] leaves for [`Engine::settle`] besides its findings.
pub(super) struct Admitted {
    /// Source of the transaction's `SO` edge.
    so: Option<TxnId>,
    /// SSER: the anchors a timed commit hangs off (the greatest commit
    /// instant below its begin) and on (its commit instant).
    hooks: Option<(Option<usize>, Option<usize>)>,
}

/// The purely intra-transactional half of the pre-scan: the first `INT`
/// axiom violation in program order, mirroring `mtc_history::intra`'s
/// classification. The latest earlier access of a read's key is found by
/// scanning back over a mini-transaction's few operations, with no
/// per-transaction state; a wider transaction keeps each key's latest
/// operation in one map, so the scan stays linear in its width.
fn local_intra_scan(id: TxnId, txn: &Transaction) -> Option<IntraViolation> {
    let mut latest = (txn.ops.len() > MAX_OPS).then(FastHashMap::default);
    for (i, op) in txn.ops.iter().enumerate() {
        let earlier = &txn.ops[..i];
        let prev = match &mut latest {
            Some(latest) => latest.insert(op.key(), i).map(|j| &txn.ops[j]),
            None if op.is_read() => earlier.iter().rev().find(|prev| prev.key() == op.key()),
            None => None,
        };
        let (Op::Read { key, value }, Some(prev)) = (*op, prev) else {
            continue;
        };
        if prev.value() == value {
            continue;
        }
        let own_write = |w: &Op| w.is_write() && w.key() == key && w.value() == value;
        let anomaly = if prev.is_read() {
            IntraAnomaly::NonRepeatableReads
        } else if earlier.iter().any(own_write) {
            IntraAnomaly::NotMyLastWrite
        } else {
            IntraAnomaly::NotMyOwnWrite
        };
        return Some(IntraViolation {
            anomaly,
            txn: id,
            op_index: i,
            key,
            value,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The look-back scan: every read looks back over every operation
    /// before it.
    fn by_look_back(id: TxnId, txn: &Transaction) -> Option<IntraViolation> {
        for (i, op) in txn.ops.iter().enumerate() {
            let Op::Read { key, value } = *op else {
                continue;
            };
            let earlier = &txn.ops[..i];
            let Some(prev) = earlier.iter().rev().find(|prev| prev.key() == key) else {
                continue;
            };
            if prev.value() == value {
                continue;
            }
            let own_write = |w: &Op| w.is_write() && w.key() == key && w.value() == value;
            let anomaly = if prev.is_read() {
                IntraAnomaly::NonRepeatableReads
            } else if earlier.iter().any(own_write) {
                IntraAnomaly::NotMyLastWrite
            } else {
                IntraAnomaly::NotMyOwnWrite
            };
            return Some(IntraViolation {
                anomaly,
                txn: id,
                op_index: i,
                key,
                value,
            });
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Up to 80 operations over up to 64 keys, spread over the `u64`
        /// range half the time: the scan finds what the look-back found, on
        /// both sides of the mini-transaction width.
        #[test]
        fn the_wide_intra_scan_is_the_look_back(
            ops in prop::collection::vec((any::<bool>(), 0u64..64, 0u64..3), 0..81),
            keys in 1u64..65,
            sparse in any::<bool>(),
        ) {
            let spread = |k: u64| if sparse { k.wrapping_mul(0x9E37_79B9_7F4A_7C15) } else { k };
            let ops: Vec<Op> = (ops.iter())
                .map(|&(write, k, v)| {
                    let k = spread(k % keys);
                    if write { Op::write(k, v) } else { Op::read(k, v) }
                })
                .collect();
            let txn = Transaction::committed(TxnId(1), SessionId(0), ops);
            prop_assert_eq!(local_intra_scan(TxnId(1), &txn), by_look_back(TxnId(1), &txn));
        }
    }
}
