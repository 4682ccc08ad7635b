//! Everything only a worker pool needs: the pool itself ([`ShardPool`]: one
//! thread per shard, each owning the [`KeyState`] of its keys), the
//! workers' pre-filter, the engine's deferred (batched-insertion) path the
//! merge thread drives, and the constructors that put a pool behind an
//! [`IncrementalChecker`]. `checker.rs` reaches in here from its
//! `Keys::Pool` arms only.

use super::checker::{IncrementalChecker, Keys, StreamStatus};
use super::engine::{divergence_pass, Engine};
use super::gc::GcPolicy;
use super::keystate::{decompose, KeyState, TxnWork};
use super::snapshot::CheckerSnapshot;
use super::tune;
use super::{Event, TaggedEvent};
use crate::check::{CheckOptions, IsolationLevel};
use crate::verdict::{CheckError, Verdict, Violation};
use mtc_history::{Edge, EdgeKind, IncrementalTopo, IntraViolation, Key, Role, Transaction, TxnId};
use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// One queued insertion of the merge thread's batched path. The queue is
/// flushed through [`IncrementalTopo::try_add_edges`] — one affected-region
/// recomputation per flush instead of one per edge — and because the batched
/// insertion is sequence-equivalent to per-edge insertion (same accepted
/// set, same first offender, same canonical cycle certificate), deferring
/// edges is unobservable in the verdicts.
#[derive(Clone, Copy, Debug)]
pub(super) struct PendingInsert {
    /// Node pair for the level's maintained order (`topo` for SER/SSER,
    /// `composed` for SI). `None` for SI bookkeeping entries, which exist
    /// only to commit their labelled edge to the graph in sequence order.
    pair: Option<(usize, usize)>,
    /// Labelled edge committed to the dependency graph once this entry (and
    /// everything queued before it) is accepted. `None` for SSER time-chain
    /// hook edges and SI composed pairs, which have no labelled counterpart.
    edge: Option<Edge>,
    /// Transaction a rejection of this insert is attributed to.
    at: TxnId,
}

impl Engine {
    // ── the deferred (merge-thread) path ────────────────────────────────

    /// Merge-path variant of [`Engine::apply`]: dependency edges — and, in
    /// SSER mode, the time-chain hook edges — are queued instead of inserted,
    /// and the queue is drained through the batched
    /// [`IncrementalTopo::try_add_edges`] at the next [`Engine::flush_deferred`].
    /// Every non-edge event forces a flush first, so the observable sequence
    /// of verdict-relevant effects is identical to the sequential per-edge
    /// path by construction.
    pub(super) fn apply_deferred(&mut self, at: TxnId, event: Event) {
        if self.done() {
            return;
        }
        match event {
            Event::Edge {
                from,
                to,
                kind,
                dedup,
            } => {
                if dedup
                    && (self.graph.contains_edge(from, to, kind)
                        || !self.pending_set.insert((from, to, kind)))
                {
                    return;
                }
                let edge = Edge { from, to, kind };
                match self.level {
                    IsolationLevel::Serializability | IsolationLevel::StrictSerializability => {
                        let pair = (self.node_of(from), self.node_of(to));
                        self.pending.push(PendingInsert {
                            pair: Some(pair),
                            edge: Some(edge),
                            at,
                        })
                    }
                    IsolationLevel::SnapshotIsolation => {
                        self.pending.push(PendingInsert {
                            pair: None,
                            edge: Some(edge),
                            at,
                        });
                        self.compose_deferred(at, edge);
                    }
                }
            }
            Event::TimeBounds { begin, end } => self.defer_time_bounds(at, begin, end),
            other => {
                self.flush_deferred();
                self.apply(at, other);
            }
        }
    }

    /// SI collection-time composition: mirrors [`Engine::apply_si_edge`],
    /// but queues the composed pairs for the next flush instead of
    /// inserting them into the maintained order.
    fn compose_deferred(&mut self, at: TxnId, edge: Edge) {
        match edge.kind {
            EdgeKind::So | EdgeKind::Wr(_) | EdgeKind::Ww(_) => {
                let (a, b) = (self.cnode_of(edge.from), self.cnode_of(edge.to));
                self.queue_composed(at, a, b, (edge, None));
                let suffixes: Vec<Edge> = self.rw_out.get(edge.to).cloned().unwrap_or_default();
                for rw in suffixes {
                    let c = self.cnode_of(rw.to);
                    self.queue_composed(at, a, c, (edge, Some(rw)));
                }
                self.base_in.get_or_default(edge.to).push(edge);
            }
            EdgeKind::Rw(_) => {
                let c = self.cnode_of(edge.to);
                let bases: Vec<Edge> = self.base_in.get(edge.from).cloned().unwrap_or_default();
                for base in bases {
                    let a = self.cnode_of(base.from);
                    self.queue_composed(at, a, c, (base, Some(edge)));
                }
                self.rw_out.get_or_default(edge.from).push(edge);
            }
            EdgeKind::Rt => {}
        }
    }

    fn queue_composed(&mut self, at: TxnId, a: usize, c: usize, prov: (Edge, Option<Edge>)) {
        if self.record_composed(a, c, prov) {
            self.pending.push(PendingInsert {
                pair: Some((a, c)),
                edge: None,
                at,
            });
        }
    }

    /// SSER merge path: the chain *nodes* are still allocated immediately
    /// (their ids must be assigned in event order), but both the splice
    /// edges and the begin/end *hook* edges join the deferred queue like
    /// any dependency edge — so one flush inserts dependency and time-chain
    /// constraints together. Deferring the splice edges is safe because
    /// they can never be rejected (see [`mtc_history::TimeChain`]), so they
    /// can never be a batch's first offender.
    fn defer_time_bounds(&mut self, at: TxnId, begin: Option<u64>, end: Option<u64>) {
        let tnode = self.node_of(at);
        let mut pairs = std::mem::take(&mut self.time_scratch);
        pairs.clear();
        // Same pick-up as `apply_time_bounds`: admit pre-materialized the
        // anchors, the splice edges ride the deferred queue with the hooks.
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
        for pair in pairs.drain(..) {
            self.pending.push(PendingInsert {
                pair: Some(pair),
                edge: None,
                at,
            });
        }
        self.time_scratch = pairs;
    }

    /// Drains the deferred queue: inserts the queued node pairs with one
    /// batched call, commits the accepted labelled edges to the dependency
    /// graph in sequence order, and — when the batch closes a cycle —
    /// latches exactly the violation the sequential path would latch, with
    /// the same canonical certificate, attributed to the same transaction.
    pub(super) fn flush_deferred(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if self.done() {
            self.pending.clear();
            self.pending_set.clear();
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        self.pending_set.clear();
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(pending.len());
        let mut entry_of_pair: Vec<usize> = Vec::with_capacity(pending.len());
        for (i, p) in pending.iter().enumerate() {
            if let Some(pair) = p.pair {
                pairs.push(pair);
                entry_of_pair.push(i);
            }
        }
        let result = match self.level {
            IsolationLevel::SnapshotIsolation => self.composed.try_add_edges(&pairs),
            _ => self.topo.try_add_edges(&pairs),
        };
        match result {
            Ok(()) => {
                for p in &pending {
                    if let Some(e) = p.edge {
                        self.graph.add_edge(e.from, e.to, e.kind);
                    }
                }
            }
            Err((k, cycle)) => {
                let offender = entry_of_pair[k];
                for p in &pending[..=offender] {
                    if let Some(e) = p.edge {
                        self.graph.add_edge(e.from, e.to, e.kind);
                    }
                }
                let edges = match self.level {
                    IsolationLevel::Serializability => self.ser_cycle_edges(&cycle),
                    IsolationLevel::StrictSerializability => self.sser_cycle_edges(&cycle),
                    IsolationLevel::SnapshotIsolation => self.composed_cycle_edges(&cycle),
                };
                self.latch_violation(Violation::Cycle { edges }, pending[offender].at);
            }
        }
    }
}

impl KeyState {
    /// Splits a state into `shards` key-disjoint states along the same
    /// `hash(key) mod shards` partition the workers use, so a snapshot can
    /// resume under any shard geometry.
    fn reshard(states: Vec<KeyState>, shards: usize) -> Vec<KeyState> {
        let merged = KeyState::merge(states);
        let mut out = vec![KeyState::default(); shards];
        for ((key, value), reg) in merged.writes {
            out[shard_of(key, shards)].writes.insert((key, value), reg);
        }
        for ((txn, key), lists) in merged.readers_of {
            out[shard_of(key, shards)]
                .readers_of
                .insert((txn, key), lists);
        }
        for ((key, value), txn) in merged.first_reader_writer {
            out[shard_of(key, shards)]
                .first_reader_writer
                .insert((key, value), txn);
        }
        for ((key, value), waiters) in merged.pending {
            out[shard_of(key, shards)]
                .pending
                .insert((key, value), waiters);
        }
        for (key, value) in merged.latest {
            out[shard_of(key, shards)].latest.insert(key, value);
        }
        for ((txn, key), value) in merged.version_of {
            out[shard_of(key, shards)]
                .version_of
                .insert((txn, key), value);
        }
        for ((txn, key), dropped) in merged.evicted {
            out[shard_of(key, shards)]
                .evicted
                .insert((txn, key), dropped);
        }
        out
    }
}

fn shard_of(key: Key, shards: usize) -> usize {
    // Multiplicative hash so that striped and clustered key spaces spread.
    (key.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % shards
}

/// One batch of decomposed transactions plus the option snapshot the workers
/// need to derive events for it.
struct BatchJob {
    works: Vec<TxnWork>,
    divergence_pass: Option<u8>,
    has_init: bool,
    validate_mt: bool,
    prescan: bool,
    /// How the workers turn local structure into early-latch hints.
    hints: HintMode,
}

/// How a shard's pre-filter derives early-latch hints from its local edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HintMode {
    /// SER/SSER: a cycle in the shard's local dependency order is already a
    /// violation (the local edge set is a subset of the global one).
    Direct,
    /// SI: violations live in the *composed* graph, so the shard maintains
    /// its local `(WR ∪ WW) ; RW?` fragment — compositions of its own base
    /// and RW edges, a subset of the global composed edge set — and hints
    /// when a fragment edge closes a cycle there.
    Composed,
}

#[derive(Clone)]
enum ShardMsg {
    Batch(Arc<BatchJob>),
    /// Run the settled-prefix sweep at the given watermark (second field:
    /// the policy's reader-list cap). The third field asks the shard to
    /// materialize and reply with the transactions it still references —
    /// set only at collection-commit epochs; the sweeps in between reply
    /// with an empty set (the merge thread still needs the eviction count).
    Collect(TxnId, usize, bool),
    /// Clone and return the shard's key state (checkpointing).
    Snapshot,
    /// End of stream: drain and classify the shard's pending reads.
    Finish,
}

enum ShardReply {
    /// Per transaction of the batch, the shard's tagged events (duplicates
    /// already filtered), plus the batch index of the first transaction
    /// whose edges closed a cycle in the shard's *local* order, if any.
    Events(Vec<Vec<TaggedEvent>>, Option<usize>),
    /// Transactions still referenced by the shard, plus the shard's
    /// cumulative reader-eviction count (reply to [`ShardMsg::Collect`]).
    Refs(HashSet<TxnId>, u64),
    /// The shard's key state (reply to [`ShardMsg::Snapshot`]).
    State(Box<KeyState>),
    /// Settled pending reads, classified (reply to [`ShardMsg::Finish`]).
    Settled(Vec<IntraViolation>),
}

/// Per-worker pre-filter: a local Pearce–Kelly order over the shard's own
/// edges plus a dedup set of the add-if-absent edges already forwarded.
///
/// * Duplicate `dedup` edges are dropped before the hand-off. Every RW edge
///   of a key is derived by the single shard owning that key, so the local
///   set sees exactly what the merge thread's graph would see — the merge
///   outcome is unchanged, the channel traffic and merge work shrink.
/// * An edge that closes a cycle in the local order certifies a violation
///   no later than the transaction being derived (the local edge set is a
///   subset of the global one — at SI the local *composed fragment* is a
///   subset of the global composed edge set). The worker reports the
///   transaction's batch index as a *hint*; the merge thread flushes its
///   deferred queue right after that transaction, latching the violation
///   without collecting or merging the rest of the batch.
#[derive(Debug, Default)]
struct ShardPrefilter {
    /// SER/SSER: the local dependency order. SI: the local *composed*
    /// order (nodes still keyed by transaction via `node_of`).
    topo: IncrementalTopo,
    node_of: HashMap<TxnId, usize>,
    forwarded: HashSet<(TxnId, TxnId, EdgeKind)>,
    /// SI fragment state: sources of the shard's base (WR/WW) edges into a
    /// transaction, mirroring the merge engine's `base_in`.
    base_in: HashMap<TxnId, Vec<TxnId>>,
    /// SI fragment state: targets of the shard's RW edges out of a
    /// transaction, mirroring the merge engine's `rw_out`.
    rw_out: HashMap<TxnId, Vec<TxnId>>,
    /// Composed pairs already inserted into the local order (first
    /// provenance wins, like the merge engine's `ProvMap`).
    composed: HashSet<(TxnId, TxnId)>,
}

impl ShardPrefilter {
    /// Filters one transaction's events in place; true iff an edge closed a
    /// cycle in the local (direct or composed) order.
    fn filter(&mut self, events: &mut Vec<TaggedEvent>, mode: HintMode) -> bool {
        let mut local_cycle = false;
        let (mut dropped, mut forwarded) = (0u64, 0u64);
        events.retain(|e| {
            let Event::Edge {
                from,
                to,
                kind,
                dedup,
            } = e.event
            else {
                return true;
            };
            if dedup && !self.forwarded.insert((from, to, kind)) {
                dropped += 1;
                return false;
            }
            let hit = match mode {
                HintMode::Direct => {
                    let u = self.node(from);
                    let v = self.node(to);
                    self.topo.try_add_edge(u, v).is_err()
                }
                HintMode::Composed => self.compose_local(from, to, kind),
            };
            local_cycle |= hit;
            forwarded += 1;
            true
        });
        // Pre-filter hit rate = dropped / (dropped + forwarded): the share
        // of derived edges the workers kept off the merge thread.
        mtc_obs::counter!("checker.prefilter_dropped_edges").add(dropped);
        mtc_obs::counter!("checker.prefilter_forwarded_edges").add(forwarded);
        if local_cycle {
            mtc_obs::counter!("checker.prefilter_cycle_hints").add(1);
        }
        local_cycle
    }

    /// Extends the local composed fragment with one shard-derived edge,
    /// mirroring the merge engine's `apply_si_edge` over shard-local state:
    /// a base (WR/WW) edge enters composed both bare and extended by every
    /// known RW suffix; an RW edge extends every known base into its
    /// source. True iff a new composed pair closed a cycle locally.
    fn compose_local(&mut self, from: TxnId, to: TxnId, kind: EdgeKind) -> bool {
        match kind {
            EdgeKind::So | EdgeKind::Wr(_) | EdgeKind::Ww(_) => {
                let mut cycle = self.composed_pair(from, to);
                if let Some(suffixes) = self.rw_out.get(&to) {
                    for c in suffixes.clone() {
                        cycle |= self.composed_pair(from, c);
                    }
                }
                self.base_in.entry(to).or_default().push(from);
                cycle
            }
            EdgeKind::Rw(_) => {
                let mut cycle = false;
                if let Some(bases) = self.base_in.get(&from) {
                    for a in bases.clone() {
                        cycle |= self.composed_pair(a, to);
                    }
                }
                self.rw_out.entry(from).or_default().push(to);
                cycle
            }
            EdgeKind::Rt => false,
        }
    }

    /// Inserts one composed pair into the local order (first occurrence
    /// only); true iff it closed a cycle there.
    fn composed_pair(&mut self, a: TxnId, c: TxnId) -> bool {
        if !self.composed.insert((a, c)) {
            return false;
        }
        let u = self.node(a);
        let v = self.node(c);
        self.topo.try_add_edge(u, v).is_err()
    }

    fn node(&mut self, txn: TxnId) -> usize {
        match self.node_of.get(&txn) {
            Some(&n) => n,
            None => {
                let n = self.topo.add_node();
                self.node_of.insert(txn, n);
                n
            }
        }
    }

    /// Shrinks the pre-filter at a GC watermark. The local order and the SI
    /// fragment are rebuilt empty (they only power early-latch *hints*,
    /// never verdicts) and the dedup set keeps only pairs with a live
    /// endpoint — retired versions can never re-derive their RW edges, and
    /// the merge thread re-checks duplicates against its graph anyway.
    fn trim(&mut self, watermark: TxnId) {
        self.topo = IncrementalTopo::new();
        self.node_of = HashMap::new();
        self.base_in = HashMap::new();
        self.rw_out = HashMap::new();
        self.composed = HashSet::new();
        self.forwarded
            .retain(|&(from, to, _)| from >= watermark || to >= watermark);
    }
}

#[derive(Debug)]
struct ShardWorker {
    tx: Sender<ShardMsg>,
    rx: Receiver<ShardReply>,
    handle: std::thread::JoinHandle<()>,
}

/// The worker threads of a key-sharded checker, one per shard.
#[derive(Debug)]
pub(super) struct ShardPool {
    workers: Vec<ShardWorker>,
    /// One clone per live worker thread; lets the pool (and its tests)
    /// observe that every thread has actually exited after a shutdown.
    pub(super) alive: Arc<()>,
    /// Reader entries dropped by the reader-list cap across all shards, as
    /// of the most recent sweep (see [`GcPolicy`]'s reader-cap contract).
    pub(super) evicted: u64,
}

impl ShardPool {
    /// Spawns one worker per key-disjoint state (see [`KeyState::reshard`]).
    fn new(states: Vec<KeyState>) -> Self {
        let shards = states.len();
        let alive = Arc::new(());
        // Seeded from the states, so the count is correct right after a
        // resume rather than only after the next sweep.
        let evicted = states.iter().flat_map(|s| s.evicted.values()).sum();
        let workers = states
            .into_iter()
            .enumerate()
            .map(|(s, mut state)| {
                let (tx, worker_rx) = channel::<ShardMsg>();
                let (reply_tx, rx) = channel::<ShardReply>();
                let token = alive.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("mtc-shard-{s}"))
                    .spawn(move || {
                        let _token = token; // dropped when the thread exits
                        let mut prefilter = ShardPrefilter::default();
                        while let Ok(msg) = worker_rx.recv() {
                            match msg {
                                ShardMsg::Batch(job) => {
                                    let mut hint: Option<usize> = None;
                                    let events: Vec<Vec<TaggedEvent>> = job
                                        .works
                                        .iter()
                                        .enumerate()
                                        .map(|(i, w)| {
                                            let mut out = Vec::new();
                                            state.derive(
                                                w,
                                                |k| shard_of(k, shards) == s,
                                                job.divergence_pass,
                                                job.has_init,
                                                job.validate_mt,
                                                job.prescan,
                                                &mut out,
                                            );
                                            if prefilter.filter(&mut out, job.hints)
                                                && hint.is_none()
                                            {
                                                hint = Some(i);
                                            }
                                            out
                                        })
                                        .collect();
                                    if reply_tx.send(ShardReply::Events(events, hint)).is_err() {
                                        break;
                                    }
                                }
                                ShardMsg::Collect(watermark, reader_cap, want_refs) => {
                                    state.sweep(watermark, reader_cap);
                                    prefilter.trim(watermark);
                                    let refs = if want_refs {
                                        state.refs()
                                    } else {
                                        HashSet::new()
                                    };
                                    let evicted = state.evicted.values().sum();
                                    if reply_tx.send(ShardReply::Refs(refs, evicted)).is_err() {
                                        break;
                                    }
                                }
                                ShardMsg::Snapshot => {
                                    let boxed = Box::new(state.clone());
                                    if reply_tx.send(ShardReply::State(boxed)).is_err() {
                                        break;
                                    }
                                }
                                ShardMsg::Finish => {
                                    let settled = state
                                        .drain_pending()
                                        .iter()
                                        .map(|p| state.classify_settled(p))
                                        .collect();
                                    let _ = reply_tx.send(ShardReply::Settled(settled));
                                    break;
                                }
                            }
                        }
                    })
                    .expect("failed to spawn shard worker");
                ShardWorker { tx, rx, handle }
            })
            .collect();
        ShardPool {
            workers,
            alive,
            evicted,
        }
    }

    fn broadcast(&self, msg: ShardMsg) {
        for w in &self.workers {
            w.tx.send(msg.clone()).expect("shard worker hung up");
        }
    }

    /// One reply per worker, in shard order.
    fn replies(&self) -> impl Iterator<Item = ShardReply> + '_ {
        self.workers
            .iter()
            .map(|w| w.rx.recv().expect("shard worker hung up"))
    }

    /// Fans the per-key derivation of `batch` out across the workers. Each
    /// walks the whole batch but only touches the keys it owns, so the
    /// shard states never alias. Workers pre-filter duplicate edges and
    /// latch intra-shard cycles in their local orders. Returns, per shard,
    /// the events of each transaction, plus the batch index of the earliest
    /// transaction some worker's local order already rejects.
    pub(super) fn derive(
        &self,
        engine: &Engine,
        batch: &[Transaction],
        is_init: bool,
    ) -> (Vec<Vec<Vec<TaggedEvent>>>, Option<usize>) {
        self.broadcast(ShardMsg::Batch(Arc::new(BatchJob {
            works: batch.iter().map(|t| decompose(t, is_init)).collect(),
            divergence_pass: divergence_pass(engine.level, &engine.opts),
            has_init: engine.has_init || is_init,
            validate_mt: engine.opts.validate_mt,
            prescan: engine.opts.prescan_intra,
            hints: if engine.level == IsolationLevel::SnapshotIsolation {
                HintMode::Composed
            } else {
                HintMode::Direct
            },
        })));
        let mut hint: Option<usize> = None;
        let events = self
            .replies()
            .map(|reply| match reply {
                ShardReply::Events(events, shard_hint) => {
                    hint = match (hint, shard_hint) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    events
                }
                _ => unreachable!("batch reply out of order"),
            })
            .collect();
        (events, hint)
    }

    /// Starts the settled-prefix sweep on every worker. A worker's `Events`
    /// reply means it has fully derived the batch, so sending this right
    /// after [`ShardPool::derive`] keeps the per-shard derive-then-sweep
    /// order while the sweep overlaps the caller's merge.
    pub(super) fn start_sweep(&self, watermark: TxnId, reader_cap: usize, want_refs: bool) {
        self.broadcast(ShardMsg::Collect(watermark, reader_cap, want_refs));
    }

    /// Waits for the sweeps of [`ShardPool::start_sweep`]; returns the
    /// transactions the swept states still reference (empty unless refs
    /// were asked for).
    pub(super) fn finish_sweep(&mut self) -> HashSet<TxnId> {
        let (mut refs, mut evicted) = (HashSet::new(), 0);
        for reply in self.replies() {
            match reply {
                ShardReply::Refs(shard_refs, shard_evicted) => {
                    refs.extend(shard_refs);
                    evicted += shard_evicted;
                }
                _ => unreachable!("collect reply out of order"),
            }
        }
        self.evicted = evicted;
        refs
    }

    /// A clone of every worker's key state, in shard order.
    pub(super) fn snapshot(&self) -> Vec<KeyState> {
        self.broadcast(ShardMsg::Snapshot);
        self.replies()
            .map(|reply| match reply {
                ShardReply::State(s) => *s,
                _ => unreachable!("snapshot reply out of order"),
            })
            .collect()
    }

    /// End of stream: every worker drains and classifies its pending reads,
    /// then exits.
    pub(super) fn settle(self) -> Vec<IntraViolation> {
        self.broadcast(ShardMsg::Finish);
        self.replies()
            .flat_map(|reply| match reply {
                ShardReply::Settled(s) => s,
                _ => unreachable!("finish reply out of order"),
            })
            .collect()
    }
}

/// Shuts the pool down deterministically: closes every job channel first
/// (so all workers see end-of-stream at once, even mid-batch), then joins
/// every thread — so a checker abandoned mid-stream, e.g. `stop_on_violation`
/// firing before `finish()`, never leaks worker threads.
impl Drop for ShardPool {
    fn drop(&mut self) {
        let handles: Vec<_> = self.workers.drain(..).map(|w| w.handle).collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Key-sharded streaming checker: per-key edge derivation fans out across a
/// pool of persistent worker threads (one per shard, each owning the key
/// state of its shard), and the resulting events merge into the shared
/// topological order in canonical `(transaction, pass, key)` order — so
/// verdicts are identical to [`IncrementalChecker`]'s by construction.
///
/// This type only *builds* the checker: it dereferences to the
/// [`IncrementalChecker`] it wraps, which carries every accessor and push
/// method. Feed it batches with [`IncrementalChecker::push_batch`]; larger
/// batches amortize the per-batch hand-off to the pool. With one shard no
/// threads are spawned and it is the sequential checker.
#[derive(Debug)]
pub struct ShardedIncrementalChecker(IncrementalChecker);

/// Spreads a sequential checker's key state over `shards` workers.
fn pooled(mut checker: IncrementalChecker, shards: usize) -> ShardedIncrementalChecker {
    assert!(shards > 0, "at least one shard is required");
    if let (true, Keys::Local(state)) = (shards > 1, &mut checker.keys) {
        let states = KeyState::reshard(vec![std::mem::take(state)], shards);
        checker.keys = Keys::Pool(ShardPool::new(states));
    }
    ShardedIncrementalChecker(checker)
}

impl ShardedIncrementalChecker {
    /// A sharded streaming checker for `level` over `shards` workers. In
    /// SSER mode the per-key derivation is sharded exactly as for SER while
    /// the time-chain lives on the merge thread (workers never see
    /// timestamps), so verdicts stay identical to the sequential checker's.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`.
    pub fn new(level: IsolationLevel, shards: usize) -> Self {
        pooled(IncrementalChecker::new(level), shards)
    }

    /// A sharded streaming checker with the shard count picked by the
    /// autotuner for this machine ([`tune::tune`]); pair it with
    /// [`tune::ShardTuning::batch`] when feeding batches.
    pub fn new_tuned(level: IsolationLevel) -> Self {
        ShardedIncrementalChecker::new(level, tune::tune().shards)
    }

    /// Reconstructs a sharded checker over `shards` workers from a snapshot
    /// (whatever geometry took it — key states are re-partitioned along the
    /// worker split). Verdicts continue bit-identically to the
    /// uninterrupted run.
    pub fn resume(snapshot: CheckerSnapshot, shards: usize) -> Self {
        pooled(IncrementalChecker::resume(snapshot), shards)
    }

    /// Overrides the tuning options (shared with the batch checkers).
    pub fn with_options(self, opts: CheckOptions) -> Self {
        ShardedIncrementalChecker(self.0.with_options(opts))
    }

    /// Enables settled-prefix garbage collection (see [`GcPolicy`]).
    /// Collections run on the merge thread at batch boundaries; the shard
    /// workers sweep their key states at the same watermark.
    pub fn with_gc(self, policy: GcPolicy) -> Self {
        ShardedIncrementalChecker(self.0.with_gc(policy))
    }

    /// Seeds the stream with `⊥T` (see [`IncrementalChecker::with_init_keys`]).
    pub fn with_init_keys<K: Into<Key>, I: IntoIterator<Item = K>>(self, keys: I) -> Self {
        ShardedIncrementalChecker(self.0.with_init_keys(keys))
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        match &self.0.keys {
            Keys::Local(_) => 1,
            Keys::Pool(pool) => pool.workers.len(),
        }
    }

    /// Number of worker threads currently alive (0 with a single shard).
    /// Drops to 0 once the pool shuts down — on `finish()` or drop — which
    /// the shutdown tests assert; also handy as a leak check in
    /// long-running harnesses.
    pub fn live_worker_threads(&self) -> usize {
        match &self.0.keys {
            Keys::Local(_) => 0,
            Keys::Pool(pool) => Arc::strong_count(&pool.alive) - 1,
        }
    }

    /// Replays a complete [`mtc_history::History`] in transaction-id order,
    /// feeding it in batches of `batch` transactions (see
    /// [`IncrementalChecker::push_history`]).
    pub fn push_history(
        &mut self,
        history: &mtc_history::History,
        batch: usize,
    ) -> Result<StreamStatus, CheckError> {
        self.0.replay(history, batch)
    }

    /// Ends the stream and returns the final verdict (see
    /// [`IncrementalChecker::finish`]).
    pub fn finish(self) -> Result<Verdict, CheckError> {
        self.0.finish()
    }
}

impl std::ops::Deref for ShardedIncrementalChecker {
    type Target = IncrementalChecker;

    fn deref(&self) -> &IncrementalChecker {
        &self.0
    }
}

impl std::ops::DerefMut for ShardedIncrementalChecker {
    fn deref_mut(&mut self) -> &mut IncrementalChecker {
        &mut self.0
    }
}

/// The checker a pool was built behind, for callers that hold both
/// flavours in one place.
impl From<ShardedIncrementalChecker> for IncrementalChecker {
    fn from(sharded: ShardedIncrementalChecker) -> IncrementalChecker {
        sharded.0
    }
}

/// Runs a complete history through a [`ShardedIncrementalChecker`], feeding
/// it in batches of `batch` transactions across `shards` workers.
pub fn check_streaming_sharded(
    level: IsolationLevel,
    history: &mtc_history::History,
    shards: usize,
    batch: usize,
) -> Result<Verdict, CheckError> {
    let mut checker = ShardedIncrementalChecker::new(level, shards);
    let _ = checker.push_history(history, batch);
    checker.finish()
}
