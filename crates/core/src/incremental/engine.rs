//! The key-independent core of the streaming checker: the labelled
//! dependency graph, the maintained topological order(s), the SSER
//! time-chain hooks and the verdict latch. [`Engine::admit`] registers a
//! transaction, [`Engine::apply`] consumes one derived event.

use super::gc::GcPolicy;
use super::{
    Event, TaggedEvent, PASS_DIVERGENCE, PASS_EDGES, PASS_ERROR, PASS_INTRA, PASS_LATE_DIVERGENCE,
};
use crate::check::{CheckOptions, IsolationLevel};
use crate::mini::validate_transaction;
use crate::verdict::{CheckError, Violation};
use mtc_history::{
    DependencyGraph, Edge, EdgeKind, FastHashMap, IncrementalTopo, IntraAnomaly, IntraViolation,
    Key, Op, Role, SessionId, TimeChain, Transaction, TxnId, TxnStatus, Value,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

// ───────────────────────── the engine ───────────────────────────────────────

/// Owner of one node of the SER/SSER topological order: a transaction, or
/// an auxiliary time node of the SSER time-chain.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub(super) enum NodeOwner {
    Txn(TxnId),
    Time,
}

/// Stream-order metadata of a resident transaction, kept for the GC's
/// candidate enumeration (and the SSER chain cut computation).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub(super) struct TxnMeta {
    pub(super) begin: Option<u64>,
    pub(super) end: Option<u64>,
}

// ───────────────────── arena-backed engine maps ─────────────────────────────

/// A windowed, dense map keyed by [`TxnId`]: ids at or above `base` index
/// straight into a vector — the hot path, covering every resident
/// transaction of an un-collected stream and the whole GC window of a
/// collected one — while ids below `base` spill into a hash map (`⊥T` and
/// the few transactions the GC pins under its watermark).
/// [`TxnMap::rebase`] moves the window forward at a collection commit so
/// the dense block stays proportional to the live window instead of the
/// whole history.
#[derive(Clone, Debug)]
pub(super) struct TxnMap<V> {
    base: u32,
    dense: Vec<Option<V>>,
    low: FastHashMap<TxnId, V>,
}

impl<V> Default for TxnMap<V> {
    fn default() -> Self {
        TxnMap {
            base: 0,
            dense: Vec::new(),
            low: FastHashMap::default(),
        }
    }
}

impl<V> TxnMap<V> {
    #[inline]
    pub(super) fn get(&self, t: TxnId) -> Option<&V> {
        if t.0 >= self.base {
            self.dense.get((t.0 - self.base) as usize)?.as_ref()
        } else {
            self.low.get(&t)
        }
    }

    fn insert(&mut self, t: TxnId, v: V) {
        if t.0 >= self.base {
            let i = (t.0 - self.base) as usize;
            if self.dense.len() <= i {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i] = Some(v);
        } else {
            self.low.insert(t, v);
        }
    }

    pub(super) fn get_or_default(&mut self, t: TxnId) -> &mut V
    where
        V: Default,
    {
        if t.0 >= self.base {
            let i = (t.0 - self.base) as usize;
            if self.dense.len() <= i {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i].get_or_insert_with(V::default)
        } else {
            self.low.entry(t).or_default()
        }
    }

    pub(super) fn remove(&mut self, t: TxnId) {
        if t.0 >= self.base {
            if let Some(slot) = self.dense.get_mut((t.0 - self.base) as usize) {
                *slot = None;
            }
        } else {
            self.low.remove(&t);
        }
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = (TxnId, &V)> {
        let base = self.base;
        self.low.iter().map(|(&t, v)| (t, v)).chain(
            self.dense
                .iter()
                .enumerate()
                .filter_map(move |(i, v)| Some((TxnId(base + i as u32), v.as_ref()?))),
        )
    }

    /// Moves the dense window up to `base`: surviving entries below it (GC
    /// pins) spill into the low map; retired slots are dropped outright.
    pub(super) fn rebase(&mut self, base: u32) {
        if base <= self.base {
            return;
        }
        let split = ((base - self.base) as usize).min(self.dense.len());
        let old_base = self.base;
        for (i, slot) in self.dense.drain(..split).enumerate() {
            if let Some(v) = slot {
                self.low.insert(TxnId(old_base + i as u32), v);
            }
        }
        self.base = base;
    }
}

impl<V: Serialize> Serialize for TxnMap<V> {
    fn to_json_value(&self) -> serde::JsonValue {
        let mut items: Vec<(u32, &V)> = self.iter().map(|(t, v)| (t.0, v)).collect();
        items.sort_unstable_by_key(|&(t, _)| t);
        let entries = items
            .into_iter()
            .map(|(t, v)| serde::JsonValue::Array(vec![t.to_json_value(), v.to_json_value()]))
            .collect();
        serde::JsonValue::Object(vec![
            ("base".to_string(), self.base.to_json_value()),
            ("entries".to_string(), serde::JsonValue::Array(entries)),
        ])
    }
}

impl<V: Deserialize> Deserialize for TxnMap<V> {
    fn from_json_value(v: &serde::JsonValue) -> Result<Self, serde::Error> {
        let base = v
            .get("base")
            .ok_or_else(|| serde::Error::missing_field("TxnMap", "base"))?;
        let entries = v
            .get("entries")
            .ok_or_else(|| serde::Error::missing_field("TxnMap", "entries"))?;
        let serde::JsonValue::Array(entries) = entries else {
            return Err(serde::Error::expected("TxnMap", "entries array"));
        };
        let mut out = TxnMap {
            base: u32::from_json_value(base)?,
            ..TxnMap::default()
        };
        for entry in entries {
            let serde::JsonValue::Array(pair) = entry else {
                return Err(serde::Error::expected("TxnMap", "[txn, value] pair"));
            };
            let [t, val] = pair.as_slice() else {
                return Err(serde::Error::expected("TxnMap", "[txn, value] pair"));
            };
            out.insert(TxnId(u32::from_json_value(t)?), V::from_json_value(val)?);
        }
        Ok(out)
    }
}

/// Composed-edge provenance as an arena of adjacency rows indexed by source
/// composed-node id (dense and bounded: composed node ids are recycled by
/// the GC), each row sorted by target id for binary-search lookups — index
/// arithmetic instead of hashing a `(usize, usize)` pair per composition.
#[derive(Clone, Debug, Default)]
pub(super) struct ProvMap {
    rows: Vec<Vec<(u32, Edge, Option<Edge>)>>,
}

impl ProvMap {
    /// Records provenance for the pair `a → c`; false iff the pair is
    /// already present (first provenance wins, like the batch construction).
    fn record(&mut self, a: usize, c: usize, prov: (Edge, Option<Edge>)) -> bool {
        if self.rows.len() <= a {
            self.rows.resize_with(a + 1, Vec::new);
        }
        let row = &mut self.rows[a];
        match row.binary_search_by_key(&(c as u32), |e| e.0) {
            Ok(_) => false,
            Err(i) => {
                row.insert(i, (c as u32, prov.0, prov.1));
                true
            }
        }
    }

    fn get(&self, a: usize, c: usize) -> Option<(Edge, Option<Edge>)> {
        let row = self.rows.get(a)?;
        let i = row.binary_search_by_key(&(c as u32), |e| e.0).ok()?;
        Some((row[i].1, row[i].2))
    }

    /// Drops every pair with an endpoint flagged in `gone` (a bitmap over
    /// composed-node ids; out-of-range ids are live).
    pub(super) fn prune(&mut self, gone: &[bool]) {
        let dead = |n: usize| gone.get(n).copied().unwrap_or(false);
        for (a, row) in self.rows.iter_mut().enumerate() {
            if dead(a) {
                *row = Vec::new();
            } else {
                row.retain(|&(c, _, _)| !dead(c as usize));
            }
        }
    }
}

impl Serialize for ProvMap {
    fn to_json_value(&self) -> serde::JsonValue {
        let mut items = Vec::new();
        for (a, row) in self.rows.iter().enumerate() {
            for &(c, base, rw) in row {
                items.push(serde::JsonValue::Array(vec![
                    (a as u32).to_json_value(),
                    c.to_json_value(),
                    base.to_json_value(),
                    rw.to_json_value(),
                ]));
            }
        }
        serde::JsonValue::Array(items)
    }
}

impl Deserialize for ProvMap {
    fn from_json_value(v: &serde::JsonValue) -> Result<Self, serde::Error> {
        let serde::JsonValue::Array(items) = v else {
            return Err(serde::Error::expected("ProvMap", "array"));
        };
        let mut out = ProvMap::default();
        for item in items {
            let serde::JsonValue::Array(quad) = item else {
                return Err(serde::Error::expected("ProvMap", "[a, c, base, rw] entry"));
            };
            let [a, c, base, rw] = quad.as_slice() else {
                return Err(serde::Error::expected("ProvMap", "[a, c, base, rw] entry"));
            };
            out.record(
                u32::from_json_value(a)? as usize,
                u32::from_json_value(c)? as usize,
                (
                    Edge::from_json_value(base)?,
                    Option::<Edge>::from_json_value(rw)?,
                ),
            );
        }
        Ok(out)
    }
}

/// The key-independent state: labelled graph, topological order(s), verdict
/// latch and session bookkeeping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(super) struct Engine {
    pub(super) level: IsolationLevel,
    pub(super) opts: CheckOptions,
    pub(super) graph: DependencyGraph,
    /// SER: maintained over *all* edges. SSER: additionally contains the
    /// time-chain nodes and the begin/end hook edges.
    pub(super) topo: IncrementalTopo,
    /// SI: maintained over the composed graph `(SO ∪ WR ∪ WW) ; RW?`.
    pub(super) composed: IncrementalTopo,
    /// SI: provenance of each composed edge (base edge, optional RW suffix).
    pub(super) composed_prov: ProvMap,
    /// SI: base edges indexed by target (for compositions with later RW).
    pub(super) base_in: TxnMap<Vec<Edge>>,
    /// SI: RW edges indexed by source.
    pub(super) rw_out: TxnMap<Vec<Edge>>,
    /// SSER: the online time-chain over begin/commit instants.
    pub(super) chain: TimeChain,
    /// Topological-order node of each resident transaction. An explicit map
    /// (rather than the identity) because pruned node ids are recycled.
    pub(super) txn_node: TxnMap<usize>,
    /// Composed-order node of each resident transaction (SI).
    pub(super) txn_cnode: TxnMap<usize>,
    /// Owner of each topological-order node, for cycle splicing.
    pub(super) node_owner: Vec<NodeOwner>,
    /// Last *committed* transaction of each session: the source of the
    /// session's next `SO` edge, which skips aborted attempts. The flag is
    /// always `true` now and stays only because snapshots carry it: one
    /// written before aborted attempts were skipped may hold `(_, false)`,
    /// and the first commit of that session after a resume then gets no
    /// `SO` edge, as it did in the build that wrote the snapshot.
    pub(super) sessions: Vec<Option<(TxnId, bool)>>,
    /// Stream metadata of every resident (unpruned) transaction.
    pub(super) live_txns: BTreeMap<TxnId, TxnMeta>,
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
    /// Reusable buffer for a transaction's chain + hook edge pairs (SSER
    /// ingest fast path) — pure scratch, never holds data across calls.
    #[serde(skip)]
    pub(super) time_scratch: Vec<(usize, usize)>,
    /// Chain splice edges emitted while pre-materializing the admitted
    /// transaction's anchors (see [`Engine::admit`]); drained by the same
    /// transaction's `TimeBounds` event. Scratch: always consumed (or
    /// cleared by the next admit) before a snapshot can be taken.
    #[serde(skip)]
    pub(super) time_prepairs: Vec<(usize, usize)>,
    /// The pre-materialized (begin, end) anchors of the admitted
    /// transaction, saving the `TimeBounds` application the chain lookups.
    #[serde(skip)]
    pub(super) time_preanchors: (Option<usize>, Option<usize>),
    pub(super) has_init: bool,
    pub(super) txn_count: usize,
    pub(super) committed_count: usize,
    pub(super) violation: Option<Violation>,
    pub(super) error: Option<CheckError>,
    pub(super) violated_at: Option<TxnId>,
}

impl Engine {
    pub(super) fn new(level: IsolationLevel, opts: CheckOptions) -> Self {
        Engine {
            level,
            opts,
            graph: DependencyGraph::new(0),
            topo: IncrementalTopo::new(),
            composed: IncrementalTopo::new(),
            composed_prov: ProvMap::default(),
            base_in: TxnMap::default(),
            rw_out: TxnMap::default(),
            chain: TimeChain::new(),
            txn_node: TxnMap::default(),
            txn_cnode: TxnMap::default(),
            node_owner: Vec::new(),
            sessions: Vec::new(),
            live_txns: BTreeMap::new(),
            gc: None,
            last_gc: 0,
            gc_epochs: 0,
            pruned_txns: 0,
            time_scratch: Vec::new(),
            time_prepairs: Vec::new(),
            time_preanchors: (None, None),
            has_init: false,
            txn_count: 0,
            committed_count: 0,
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

    /// Composed-order node of a resident transaction (SI).
    #[inline]
    pub(super) fn cnode_of(&self, txn: TxnId) -> usize {
        *self
            .txn_cnode
            .get(txn)
            .expect("edge endpoint must be a resident transaction")
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

    /// Registers the next transaction: assigns its node, validates its
    /// shape, runs the local intra scan and derives its SO edge. Returns the
    /// events to apply before the key-derived ones.
    pub(super) fn admit(&mut self, txn: &Transaction, is_init: bool) -> Vec<TaggedEvent> {
        let id = txn.id;
        debug_assert_eq!(id.index(), self.txn_count);
        self.txn_count += 1;
        self.graph.add_node();

        // SSER: committed transactions with at least one recorded instant
        // (⊥T included, matching `check_sser`'s instant collection) hook
        // into the time-chain.
        let time_bounds = (self.level == IsolationLevel::StrictSerializability
            && txn.status == TxnStatus::Committed
            && (txn.begin.is_some() || txn.end.is_some()))
        .then_some((txn.begin, txn.end));

        // SSER ingest fast path: materialize the chain anchors *around* the
        // transaction's own topo node — begin anchor first, end anchor after
        // — so that for in-timestamp-order streams every chain splice and
        // hook edge already agrees with the maintained order and inserts in
        // O(1), with no reorder pass. The splice edges are stashed in
        // `time_prepairs` and submitted together with the hook edges when
        // this transaction's `TimeBounds` event is applied.
        self.time_prepairs.clear();
        self.time_preanchors = (None, None);
        let mut pre_pairs = std::mem::take(&mut self.time_prepairs);
        if let Some((Some(begin), _)) = time_bounds {
            let anchor = self.time_anchor(begin, Role::Begin, &mut pre_pairs);
            self.time_preanchors.0 = Some(anchor);
        }
        let node = self.topo.add_node();
        self.txn_node.insert(id, node);
        self.set_owner(node, NodeOwner::Txn(id));
        if let Some((_, Some(end))) = time_bounds {
            let anchor = self.time_anchor(end, Role::End, &mut pre_pairs);
            self.time_preanchors.1 = Some(anchor);
        }
        self.time_prepairs = pre_pairs;
        // The composed order only exists at SI; the other levels skip the
        // node bookkeeping entirely on the ingest hot path.
        if self.level == IsolationLevel::SnapshotIsolation {
            let cnode = self.composed.add_node();
            self.txn_cnode.insert(id, cnode);
        }
        self.live_txns.insert(
            id,
            TxnMeta {
                begin: txn.begin,
                end: txn.end,
            },
        );

        let mut out = Vec::new();
        let mut seq = 0u32;
        let mut push = |out: &mut Vec<TaggedEvent>, pass: u8, event: Event| {
            out.push(TaggedEvent {
                pass,
                key_rank: 0,
                seq,
                event,
            });
            seq += 1;
        };

        if is_init {
            self.has_init = true;
            self.committed_count += 1;
            if let Some((begin, end)) = time_bounds {
                push(&mut out, PASS_EDGES, Event::TimeBounds { begin, end });
            }
            return out;
        }

        if self.opts.validate_mt {
            if let Err(v) = validate_transaction(txn) {
                push(
                    &mut out,
                    PASS_ERROR,
                    Event::Error(CheckError::NotMiniTransaction(v)),
                );
            }
        }

        if txn.status == TxnStatus::Committed {
            self.committed_count += 1;
            if self.opts.prescan_intra {
                self.local_intra_scan(txn, &mut push, &mut out);
            }
            // SO edge: the session's previous committed transaction (or ⊥T
            // for the first).
            if txn.session != SessionId::INIT {
                let s = txn.session.index();
                while self.sessions.len() <= s {
                    self.sessions.push(None);
                }
                let source = match self.sessions[s].replace((id, true)) {
                    Some((p, committed)) => committed.then_some(p),
                    None => self.has_init.then_some(TxnId(0)),
                };
                if let Some(p) = source {
                    push(
                        &mut out,
                        PASS_EDGES,
                        Event::Edge {
                            from: p,
                            to: id,
                            kind: EdgeKind::So,
                            dedup: false,
                        },
                    );
                }
            }
            if let Some((begin, end)) = time_bounds {
                push(&mut out, PASS_EDGES, Event::TimeBounds { begin, end });
            }
        }
        out
    }

    /// The purely intra-transactional half of the pre-scan (`INT` axiom
    /// violations), mirroring `mtc_history::intra`'s classification.
    fn local_intra_scan(
        &self,
        txn: &Transaction,
        push: &mut impl FnMut(&mut Vec<TaggedEvent>, u8, Event),
        out: &mut Vec<TaggedEvent>,
    ) {
        struct Access {
            value: Value,
            was_write: bool,
        }
        let mut last_access: HashMap<Key, Access> = HashMap::new();
        let mut own_writes: HashMap<Key, Vec<Value>> = HashMap::new();
        for (i, op) in txn.ops.iter().enumerate() {
            match *op {
                Op::Write { key, value } => {
                    own_writes.entry(key).or_default().push(value);
                    last_access.insert(
                        key,
                        Access {
                            value,
                            was_write: true,
                        },
                    );
                }
                Op::Read { key, value } => {
                    if let Some(prev) = last_access.get(&key) {
                        if prev.value != value {
                            let anomaly = if prev.was_write {
                                let earlier =
                                    own_writes.get(&key).map(Vec::as_slice).unwrap_or(&[]);
                                if earlier.contains(&value) {
                                    IntraAnomaly::NotMyLastWrite
                                } else {
                                    IntraAnomaly::NotMyOwnWrite
                                }
                            } else {
                                IntraAnomaly::NonRepeatableReads
                            };
                            push(
                                out,
                                PASS_INTRA,
                                Event::Intra(IntraViolation {
                                    anomaly,
                                    txn: txn.id,
                                    op_index: i,
                                    key,
                                    value,
                                }),
                            );
                        }
                    }
                    last_access.insert(
                        key,
                        Access {
                            value,
                            was_write: false,
                        },
                    );
                }
            }
        }
    }

    /// Applies one event; no-op once a verdict is latched.
    pub(super) fn apply(&mut self, at: TxnId, event: Event) {
        if self.done() {
            return;
        }
        match event {
            Event::Error(e) => self.error = Some(e),
            Event::Intra(v) => self.latch_violation(Violation::Intra(vec![v]), at),
            Event::Divergence(d) => self.latch_violation(d.into_violation(), at),
            Event::Edge {
                from,
                to,
                kind,
                dedup,
            } => {
                if dedup {
                    if self.graph.contains_edge(from, to, kind) {
                        return;
                    }
                    self.graph.add_edge(from, to, kind);
                } else {
                    self.graph.add_edge(from, to, kind);
                }
                let edge = Edge { from, to, kind };
                match self.level {
                    IsolationLevel::Serializability => self.apply_ser_edge(at, edge),
                    IsolationLevel::SnapshotIsolation => self.apply_si_edge(at, edge),
                    IsolationLevel::StrictSerializability => self.apply_sser_edge(at, edge),
                }
            }
            Event::TimeBounds { begin, end } => self.apply_time_bounds(at, begin, end),
        }
    }

    fn apply_ser_edge(&mut self, at: TxnId, edge: Edge) {
        let (u, v) = (self.node_of(edge.from), self.node_of(edge.to));
        if let Err(cycle) = self.topo.try_add_edge(u, v) {
            let edges = self.ser_cycle_edges(&cycle);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
    }

    /// Maps a cycle over topological-order nodes back to transaction
    /// indices (SER: every node is a transaction) and labels it from the
    /// dependency graph.
    fn ser_cycle_edges(&self, cycle: &[usize]) -> Vec<Edge> {
        let txn_cycle: Vec<usize> = cycle
            .iter()
            .map(|&n| match self.node_owner[n] {
                NodeOwner::Txn(t) => t.index(),
                NodeOwner::Time => unreachable!("SER order contains no time nodes"),
            })
            .collect();
        self.graph.label_node_cycle(&txn_cycle, |_| true)
    }

    /// SSER: a dependency edge is inserted into the *augmented* order (time
    /// nodes included); a rejection means a dependency path contradicts the
    /// time-chain and is spliced back into a labelled counterexample.
    fn apply_sser_edge(&mut self, at: TxnId, edge: Edge) {
        let (u, v) = (self.node_of(edge.from), self.node_of(edge.to));
        if let Err(cycle) = self.topo.try_add_edge(u, v) {
            let edges = self.sser_cycle_edges(&cycle);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
    }

    /// SSER: hooks transaction `at` into the time-chain at its begin/commit
    /// instants (each side independently — a partially timed transaction
    /// still constrains one direction of the real-time order). The chain
    /// splice edges and the hook edges are submitted as **one**
    /// [`IncrementalTopo::try_add_edges`] batch — sequence-equivalent to
    /// edge-at-a-time insertion (same first offender, same canonical
    /// certificate) but with a single affected-region pass per transaction.
    /// A rejected hook edge (e.g. a commit whose reported instants
    /// contradict edges already derived) latches exactly like a
    /// dependency-edge rejection; chain edges can never be the offender
    /// (see the [`mtc_history::TimeChain`] module docs).
    fn apply_time_bounds(&mut self, at: TxnId, begin: Option<u64>, end: Option<u64>) {
        let tnode = self.node_of(at);
        let mut pairs = std::mem::take(&mut self.time_scratch);
        pairs.clear();
        // The admitting pass already materialized the anchors around the
        // transaction's node and stashed their splice edges; pick those up
        // so the whole group inserts forward-only in the monotone case.
        pairs.append(&mut self.time_prepairs);
        let (pre_begin, pre_end) = std::mem::take(&mut self.time_preanchors);
        if let Some(begin) = begin {
            let anchor = match pre_begin {
                Some(a) => a,
                None => self.time_anchor(begin, Role::Begin, &mut pairs),
            };
            pairs.push((anchor, tnode));
        }
        if let Some(end) = end {
            let anchor = match pre_end {
                Some(a) => a,
                None => self.time_anchor(end, Role::End, &mut pairs),
            };
            pairs.push((tnode, anchor));
        }
        if let Err((_, cycle)) = self.topo.try_add_edges(&pairs) {
            let edges = self.sser_cycle_edges(&cycle);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
        self.time_scratch = pairs;
    }

    /// Materializes the `role` anchor of `instant` (required chain edges
    /// are pushed onto `pairs`, not yet inserted) and keeps the node-owner
    /// map aligned: at most one node is allocated per call — possibly
    /// recycling a pruned id — and when one is, it is the returned anchor.
    fn time_anchor(&mut self, instant: u64, role: Role, pairs: &mut Vec<(usize, usize)>) -> usize {
        let anchor = self.chain.anchor(instant, role, &mut self.topo, pairs);
        self.set_owner(anchor, NodeOwner::Time);
        anchor
    }

    /// Maps a cycle over the augmented (transaction + time node) order back
    /// to labelled edges, mirroring the splice of [`crate::check_sser`]:
    /// direct transaction-to-transaction hops are labelled from the
    /// dependency graph, hops through time nodes become RT edges.
    fn sser_cycle_edges(&self, cycle: &[usize]) -> Vec<Edge> {
        let len = cycle.len();
        let real_positions: Vec<usize> = (0..len)
            .filter(|&i| matches!(self.node_owner[cycle[i]], NodeOwner::Txn(_)))
            .collect();
        debug_assert!(
            !real_positions.is_empty(),
            "a cycle cannot consist of time nodes only"
        );
        let mut edges = Vec::new();
        for (idx, &pos) in real_positions.iter().enumerate() {
            let next_pos = real_positions[(idx + 1) % real_positions.len()];
            let NodeOwner::Txn(u) = self.node_owner[cycle[pos]] else {
                unreachable!("filtered to transaction nodes");
            };
            let NodeOwner::Txn(v) = self.node_owner[cycle[next_pos]] else {
                unreachable!("filtered to transaction nodes");
            };
            let direct_hop = (pos + 1) % len == next_pos;
            let dependency = direct_hop
                .then(|| self.graph.label_hop(u.index(), v.index(), |_| true))
                .flatten();
            edges.push(dependency.unwrap_or(Edge {
                from: u,
                to: v,
                kind: EdgeKind::Rt,
            }));
        }
        edges
    }

    fn apply_si_edge(&mut self, at: TxnId, edge: Edge) {
        match edge.kind {
            EdgeKind::So | EdgeKind::Wr(_) | EdgeKind::Ww(_) => {
                let (a, b) = (self.cnode_of(edge.from), self.cnode_of(edge.to));
                self.add_composed(at, a, b, (edge, None));
                if self.done() {
                    return;
                }
                let suffixes: Vec<Edge> = self.rw_out.get(edge.to).cloned().unwrap_or_default();
                for rw in suffixes {
                    let c = self.cnode_of(rw.to);
                    self.add_composed(at, a, c, (edge, Some(rw)));
                    if self.done() {
                        return;
                    }
                }
                self.base_in.get_or_default(edge.to).push(edge);
            }
            EdgeKind::Rw(_) => {
                let c = self.cnode_of(edge.to);
                let bases: Vec<Edge> = self.base_in.get(edge.from).cloned().unwrap_or_default();
                for base in bases {
                    let a = self.cnode_of(base.from);
                    self.add_composed(at, a, c, (base, Some(edge)));
                    if self.done() {
                        return;
                    }
                }
                self.rw_out.get_or_default(edge.from).push(edge);
            }
            EdgeKind::Rt => {}
        }
    }

    /// Inserts a composed edge (first provenance wins, like the batch
    /// construction) and checks acyclicity of the composed graph. A 2-cycle
    /// `a → c → a` through an RW suffix surfaces as the self-pair `(a, a)`,
    /// which the maintained order rejects as a one-node cycle labelled from
    /// its own provenance — no special casing needed.
    fn add_composed(&mut self, at: TxnId, a: usize, c: usize, prov: (Edge, Option<Edge>)) {
        if !self.composed_prov.record(a, c, prov) {
            return;
        }
        if let Err(cycle) = self.composed.try_add_edge(a, c) {
            let edges = self.composed_cycle_edges(&cycle);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
    }

    /// Expands a composed-graph node cycle into labelled edges via the
    /// recorded provenance.
    fn composed_cycle_edges(&self, cycle: &[usize]) -> Vec<Edge> {
        let mut edges = Vec::new();
        for i in 0..cycle.len() {
            let u = cycle[i];
            let v = cycle[(i + 1) % cycle.len()];
            if let Some((base, rw)) = self.composed_prov.get(u, v) {
                edges.push(base);
                if let Some(rw) = rw {
                    edges.push(rw);
                }
            }
        }
        edges
    }
}

/// Where (and whether) the DIVERGENCE scan's events sort for the given
/// level and options. SER never scans; SI scans before the edges by default
/// and after them in ablation mode (matching `check_si_with`, which always
/// re-checks divergence because the composed graph can mask it).
pub(super) fn divergence_pass(level: IsolationLevel, opts: &CheckOptions) -> Option<u8> {
    (level == IsolationLevel::SnapshotIsolation).then_some(if opts.skip_divergence_early_exit {
        PASS_LATE_DIVERGENCE
    } else {
        PASS_DIVERGENCE
    })
}
