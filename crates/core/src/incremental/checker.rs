//! The one streaming front: [`IncrementalChecker`] owns the [`Engine`] and
//! runs the one ingest loop. Its per-key state is either local or spread
//! over the worker pool of [`super::sharded`] — the `Keys::Pool` arms below
//! are the only places that know the pool exists.

use super::engine::{divergence_pass, Engine};
use super::gc::{Eviction, GcPolicy};
use super::keystate::{decompose, KeyState};
use super::sharded::ShardPool;
use super::snapshot::{CheckerSnapshot, SNAPSHOT_VERSION};
use super::{Event, TaggedEvent};
use crate::check::{CheckOptions, IsolationLevel};
use crate::verdict::{CheckError, Verdict, Violation};
use mtc_history::{
    DependencyGraph, IntraViolation, Key, Op, SessionId, Transaction, TxnId, TxnStatus, INIT_VALUE,
};
use std::collections::HashSet;
use std::time::Instant;

/// Starts a sampled per-transaction ingest span: times every 16th push.
/// At ~1M txns/s the two `Instant::now` calls of an unsampled span would
/// alone cost ~5% of the ingest budget; uniform 1-in-16 sampling keeps the
/// `checker.ingest_txn_micros` quantiles honest at ~0.3% overhead.
#[inline]
fn obs_ingest_timer() -> Option<std::time::Instant> {
    if !mtc_obs::enabled() {
        return None;
    }
    thread_local! {
        static TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        (v % 16 == 0).then(std::time::Instant::now)
    })
}

/// Streaming verdict over the prefix consumed so far.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamStatus {
    /// No violation is provable from the consumed prefix.
    ConsistentSoFar,
    /// The prefix already violates the isolation level.
    Violated,
}

/// An online SER/SI checker consuming committed transactions one at a time.
///
/// ```
/// use mtc_core::{IncrementalChecker, IsolationLevel};
/// use mtc_history::Op;
///
/// let mut checker = IncrementalChecker::new_ser().with_init_keys(0..2u64);
/// checker.push_committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 7u64)]).unwrap();
/// checker.push_committed(1, vec![Op::read(0u64, 7u64)]).unwrap();
/// assert!(checker.violation().is_none());
/// assert!(checker.finish().unwrap().is_satisfied());
/// ```
#[derive(Debug)]
pub struct IncrementalChecker {
    pub(super) engine: Engine,
    pub(super) keys: Keys,
}

/// Where the per-key state lives.
#[derive(Debug)]
pub(super) enum Keys {
    /// On the caller thread: each transaction is derived and applied at
    /// once.
    Local(KeyState),
    /// Partitioned by key over worker threads: a batch is derived on the
    /// pool, then merged through the engine's deferred queue.
    Pool(ShardPool),
}

impl IncrementalChecker {
    /// A streaming checker for `level` with default [`CheckOptions`] (the
    /// very same defaults the batch checkers use).
    ///
    /// For [`IsolationLevel::StrictSerializability`], transactions should be
    /// fed with begin/commit instants (the `*_timed` push methods, or
    /// [`Transaction`]s carrying `begin`/`end`); untimed transactions simply
    /// contribute no real-time constraints, exactly as in the batch
    /// [`crate::check_sser`].
    pub fn new(level: IsolationLevel) -> Self {
        IncrementalChecker {
            engine: Engine::new(level, CheckOptions::default()),
            keys: Keys::Local(KeyState::default()),
        }
    }

    /// A streaming `CHECKSER`.
    pub fn new_ser() -> Self {
        IncrementalChecker::new(IsolationLevel::Serializability)
    }

    /// A streaming `CHECKSI`.
    pub fn new_si() -> Self {
        IncrementalChecker::new(IsolationLevel::SnapshotIsolation)
    }

    /// A streaming `CHECKSSER`: an online strict-serializability checker.
    ///
    /// Push each committed transaction together with its wall-clock begin
    /// and commit-acknowledgement instants
    /// ([`IncrementalChecker::push_committed_timed`]); the checker splices
    /// the instants into an online time-chain ([`mtc_history::TimeChain`])
    /// and latches a violation the moment a dependency edge contradicts the
    /// real-time order — including commits whose instants arrive out of
    /// order (clock skew, long-running transactions). Reads whose writer has
    /// not appeared yet are the only thing deferred to
    /// [`IncrementalChecker::finish`], exactly as for SER/SI, so final
    /// verdicts agree with [`crate::check_sser`] and
    /// [`crate::check_sser_naive`].
    ///
    /// ```
    /// use mtc_core::{IncrementalChecker, StreamStatus};
    /// use mtc_history::Op;
    ///
    /// let mut checker = IncrementalChecker::new_sser().with_init_keys(0..1u64);
    /// // T1 = [10, 20] installs x = 7 ...
    /// checker
    ///     .push_committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 7u64)], 10, 20)
    ///     .unwrap();
    /// // ... and T2 = [30, 40] starts after T1 finished but misses its write.
    /// let status = checker
    ///     .push_committed_timed(1, vec![Op::read(0u64, 0u64)], 30, 40)
    ///     .unwrap();
    /// assert_eq!(status, StreamStatus::Violated);
    /// assert!(checker.finish().unwrap().is_violated());
    /// ```
    pub fn new_sser() -> Self {
        IncrementalChecker::new(IsolationLevel::StrictSerializability)
    }

    /// Overrides the tuning options (shared with the batch checkers).
    pub fn with_options(mut self, opts: CheckOptions) -> Self {
        self.engine.opts = opts;
        self
    }

    /// Enables settled-prefix garbage collection (see [`GcPolicy`]): memory
    /// stays proportional to the active window instead of the history.
    pub fn with_gc(mut self, policy: GcPolicy) -> Self {
        self.set_gc(policy);
        self
    }

    /// Non-consuming form of [`IncrementalChecker::with_gc`].
    pub fn set_gc(&mut self, policy: GcPolicy) {
        self.engine.gc = Some(policy.normalized());
    }

    /// The garbage-collection policy in effect, if any.
    pub fn gc_policy(&self) -> Option<GcPolicy> {
        self.engine.gc
    }

    /// Number of transactions currently resident (not retired by the GC).
    pub fn live_txn_count(&self) -> usize {
        self.engine.live_txns.len()
    }

    /// Number of live nodes in the maintained order(s) — transactions plus,
    /// in SSER mode, time-chain nodes. The quantity the GC bounds.
    pub fn live_node_count(&self) -> usize {
        live_nodes(&self.engine)
    }

    /// Explicit eviction markers recorded by the GC's reader-list cap: one
    /// per live version whose resident reader list was trimmed beyond the
    /// staleness window. Empty unless [`GcPolicy::reader_cap`] is set. A
    /// clean verdict with a non-empty marker set is a qualified
    /// certificate (see [`GcPolicy`]).
    pub fn reader_evictions(&self) -> Vec<Eviction> {
        match &self.keys {
            Keys::Local(keys) => keys.evictions(),
            Keys::Pool(_) => self.checkpoint().reader_evictions(),
        }
    }

    /// Total reader entries dropped by the GC's reader-list cap so far (with
    /// a worker pool: as of the most recent sweep).
    pub fn reader_eviction_count(&self) -> u64 {
        match &self.keys {
            Keys::Local(keys) => keys.evicted.values().sum(),
            Keys::Pool(pool) => pool.evicted,
        }
    }

    /// Longest resident reader list across all live versions — the register
    /// state a hot, never-overwritten key accumulates; the quantity
    /// [`GcPolicy::reader_cap`] bounds.
    pub fn max_reader_list_len(&self) -> usize {
        let longest = |states: &[KeyState]| states.iter().map(KeyState::max_reader_list_len).max();
        match &self.keys {
            Keys::Local(keys) => keys.max_reader_list_len(),
            Keys::Pool(pool) => longest(&pool.snapshot()).unwrap_or(0),
        }
    }

    /// Transactions retired by the GC so far.
    pub fn pruned_txn_count(&self) -> usize {
        self.engine.pruned_txns
    }

    /// Captures a complete [`CheckerSnapshot`] of the current state: the
    /// engine plus the key state — one per worker when the state is spread
    /// over a pool (collected from the workers; the deferred queue is empty
    /// between pushes, so the snapshot is exact).
    pub fn checkpoint(&self) -> CheckerSnapshot {
        let keys = match &self.keys {
            Keys::Local(keys) => vec![keys.clone()],
            Keys::Pool(pool) => pool.snapshot(),
        };
        CheckerSnapshot {
            version: SNAPSHOT_VERSION,
            shards: keys.len(),
            engine: self.engine.clone(),
            keys,
        }
    }

    /// Reconstructs a sequential checker from a snapshot (taken from a
    /// sequential *or* sharded checker — shard key states are merged). The
    /// resumed checker continues exactly where the snapshot stopped:
    /// feeding it the remaining stream yields a verdict bit-identical to
    /// the uninterrupted run's.
    pub fn resume(snapshot: CheckerSnapshot) -> Self {
        let CheckerSnapshot {
            mut engine, keys, ..
        } = snapshot;
        engine.graph.rebuild_index();
        IncrementalChecker {
            engine,
            keys: Keys::Local(KeyState::merge(keys)),
        }
    }

    /// Seeds the stream with the initial transaction `⊥T` writing
    /// [`INIT_VALUE`] to `keys`, exactly like
    /// [`mtc_history::HistoryBuilder::with_init_keys`].
    pub fn with_init_keys<K: Into<Key>, I: IntoIterator<Item = K>>(mut self, keys: I) -> Self {
        assert_eq!(self.engine.txn_count, 0, "⊥T must be the first transaction");
        let ops = keys.into_iter().map(|k| Op::write(k, INIT_VALUE)).collect();
        let init = Transaction {
            id: TxnId(0),
            session: SessionId::INIT,
            ops,
            status: TxnStatus::Committed,
            begin: Some(0),
            end: Some(0),
        };
        self.ingest(&[init], true);
        self
    }

    /// Feeds the next transaction of the stream (committed or aborted). The
    /// transaction is assigned the next dense id, mirroring
    /// [`mtc_history::HistoryBuilder`] numbering.
    ///
    /// Returns the streaming status for the consumed prefix, or the error
    /// that took the input outside the checker's domain. Both violations and
    /// errors latch: later pushes are cheap no-ops returning the same answer.
    pub fn push(&mut self, mut txn: Transaction) -> Result<StreamStatus, CheckError> {
        self.push_slice(std::slice::from_mut(&mut txn));
        self.status_result()
    }

    /// Feeds a batch of transactions, in stream order, and returns the
    /// status after the whole batch. With a worker pool the per-key edge
    /// derivation of the batch runs key-sharded across the workers (larger
    /// batches amortize the hand-off) and the merge into the topological
    /// order happens on the calling thread; without one this is a loop of
    /// [`IncrementalChecker::push`]es.
    pub fn push_batch(&mut self, mut txns: Vec<Transaction>) -> Result<StreamStatus, CheckError> {
        self.push_slice(&mut txns);
        self.status_result()
    }

    /// Numbers `txns` with the next dense ids and consumes them.
    fn push_slice(&mut self, txns: &mut [Transaction]) {
        for (txn, id) in txns.iter_mut().zip(self.engine.txn_count as u32..) {
            txn.id = TxnId(id);
        }
        self.ingest(txns, false);
    }

    /// Convenience: feeds a committed transaction.
    pub fn push_committed(
        &mut self,
        session: u32,
        ops: Vec<Op>,
    ) -> Result<StreamStatus, CheckError> {
        let txn = Transaction::committed(TxnId(0), SessionId(session), ops);
        self.push(txn)
    }

    /// Convenience: feeds an aborted transaction (participates in
    /// `ABORTEDREAD` provenance, contributes no edges).
    pub fn push_aborted(&mut self, session: u32, ops: Vec<Op>) -> Result<StreamStatus, CheckError> {
        let txn = Transaction::aborted(TxnId(0), SessionId(session), ops);
        self.push(txn)
    }

    /// Convenience: feeds a committed transaction with wall-clock begin and
    /// commit-acknowledgement instants (the inputs of the SSER time-chain;
    /// ignored by SER/SI checkers).
    pub fn push_committed_timed(
        &mut self,
        session: u32,
        ops: Vec<Op>,
        begin: u64,
        end: u64,
    ) -> Result<StreamStatus, CheckError> {
        let txn = Transaction::committed(TxnId(0), SessionId(session), ops).with_times(begin, end);
        self.push(txn)
    }

    /// Replays a complete [`mtc_history::History`] in transaction-id order:
    /// seeds `⊥T` first when the history has one (the checker must be empty
    /// in that case) and pushes every other transaction. This is the single
    /// replay path shared by [`check_streaming`] and `mtc-runner`.
    pub fn push_history(
        &mut self,
        history: &mtc_history::History,
    ) -> Result<StreamStatus, CheckError> {
        self.replay(history, 1)
    }

    /// [`IncrementalChecker::push_history`] in batches of `batch`
    /// transactions — the hand-off granularity of a worker pool.
    pub(super) fn replay(
        &mut self,
        history: &mtc_history::History,
        batch: usize,
    ) -> Result<StreamStatus, CheckError> {
        if let Some(init) = history.init_txn() {
            assert_eq!(
                self.engine.txn_count, 0,
                "a history with ⊥T can only be replayed into an empty checker"
            );
            self.ingest(std::slice::from_ref(history.txn(init)), true);
        }
        let batch = batch.max(1);
        let mut buf = Vec::with_capacity(batch);
        for txn in history.txns() {
            if Some(txn.id) == history.init_txn() {
                continue;
            }
            buf.push(txn.clone());
            if buf.len() == batch {
                self.push_slice(&mut buf);
                buf.clear();
            }
        }
        self.push_slice(&mut buf);
        self.status_result()
    }

    /// The one ingest loop: consumes `batch` (ids already assigned; `⊥T`
    /// arrives alone with `is_init`). Per transaction: admit it, add the
    /// events its keys derive, apply the lot in canonical order
    /// ([`merge_txn`]); at a due epoch boundary, sweep the key state and
    /// maybe collect ([`close_epoch`]). A local key state does all of that
    /// transaction by transaction. A pool derives the whole batch on its
    /// workers first, lets them sweep while the merge runs, queues the
    /// edges and inserts them batched — unobservable in the verdicts (see
    /// [`Engine::apply_deferred`]).
    pub(super) fn ingest(&mut self, batch: &[Transaction], is_init: bool) {
        let engine = &mut self.engine;
        match &mut self.keys {
            Keys::Local(keys) => {
                let opts = engine.opts;
                let div_pass = divergence_pass(engine.level, &opts);
                let has_init = engine.has_init || is_init;
                for txn in batch {
                    let ingest_timer = obs_ingest_timer();
                    let derive = |events: &mut Vec<TaggedEvent>| {
                        keys.derive(
                            &decompose(txn, is_init),
                            |_| true,
                            div_pass,
                            has_init,
                            opts.validate_mt,
                            opts.prescan_intra,
                            events,
                        )
                    };
                    merge_txn(engine, txn, is_init, derive, Engine::apply);
                    if engine.gc_due() {
                        let gc_timer = mtc_obs::enabled().then(Instant::now);
                        let watermark = engine.gc_watermark();
                        keys.sweep(watermark, engine.gc.map_or(0, |g| g.reader_cap));
                        let refs = if engine.commit_epoch_next() {
                            keys.refs()
                        } else {
                            HashSet::new()
                        };
                        close_epoch(engine, watermark, &refs, gc_timer);
                    }
                    if let Some(t0) = ingest_timer {
                        mtc_obs::histogram!("checker.ingest_txn_micros")
                            .record(t0.elapsed().as_micros() as u64);
                    }
                }
            }
            Keys::Pool(pool) => {
                if engine.done() || batch.is_empty() {
                    engine.txn_count += batch.len();
                    return;
                }
                let batch_timer = mtc_obs::enabled().then(Instant::now);
                // Decide the epoch boundary up front: `txn_count` always
                // advances by the whole batch (a mid-merge latch still
                // counts the tail as consumed), so the post-batch watermark
                // is known before the merge starts — which lets the workers
                // sweep *concurrently with* the merge instead of after it.
                let total = engine.txn_count + batch.len();
                let epoch = engine
                    .gc
                    .filter(|p| total - engine.last_gc >= p.every)
                    .map(|p| (TxnId(total.saturating_sub(p.window) as u32), p.reader_cap));
                let (mut shard_events, hint) = pool.derive(engine, batch, is_init);
                if let Some((watermark, cap)) = epoch {
                    pool.start_sweep(watermark, cap, engine.commit_epoch_next());
                }
                // A worker hint forces the flush right after the hinted
                // transaction — its local cycle guarantees the latch, so
                // the rest of the batch is skipped.
                let mut merged_events = 0u64;
                for (i, txn) in batch.iter().enumerate() {
                    let derive = |events: &mut Vec<TaggedEvent>| {
                        for shard in shard_events.iter_mut() {
                            events.append(&mut shard[i]);
                        }
                    };
                    merged_events +=
                        merge_txn(engine, txn, is_init, derive, Engine::apply_deferred);
                    if hint == Some(i) {
                        engine.flush_deferred();
                        debug_assert!(
                            engine.done(),
                            "a worker-local cycle must latch at the hinted transaction"
                        );
                    }
                }
                engine.flush_deferred();
                if let Some((watermark, _)) = epoch {
                    // The merge-side view of the epoch: waiting for the
                    // workers' (concurrent) sweeps plus the graph collection
                    // — the GC time the ingest path actually pays. The
                    // replies are received unconditionally, to keep the
                    // channel protocol in lock-step even after a latch.
                    let gc_timer = mtc_obs::enabled().then(Instant::now);
                    let refs = pool.finish_sweep();
                    close_epoch(engine, watermark, &refs, gc_timer);
                }
                if let Some(t0) = batch_timer {
                    mtc_obs::histogram!("checker.ingest_batch_micros")
                        .record(t0.elapsed().as_micros() as u64);
                    mtc_obs::histogram!("checker.ingest_batch_txns").record(batch.len() as u64);
                    mtc_obs::histogram!("checker.merge_queue_depth").record(merged_events);
                }
            }
        }
    }

    fn status_result(&self) -> Result<StreamStatus, CheckError> {
        match (&self.engine.error, &self.engine.violation) {
            (Some(e), _) => Err(e.clone()),
            (None, Some(_)) => Ok(StreamStatus::Violated),
            (None, None) => Ok(StreamStatus::ConsistentSoFar),
        }
    }

    /// The latched violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.engine.violation.as_ref()
    }

    /// True iff the consumed prefix already violates the isolation level.
    pub fn is_violated(&self) -> bool {
        self.engine.violation.is_some()
    }

    /// Id of the transaction whose consumption latched the violation — the
    /// basis of the time-to-first-violation metric.
    pub fn first_violation_at(&self) -> Option<TxnId> {
        self.engine.violated_at
    }

    /// Number of transactions consumed (including `⊥T` and aborted ones).
    pub fn txn_count(&self) -> usize {
        self.engine.txn_count
    }

    /// Number of labelled dependency edges derived so far.
    pub fn edge_count(&self) -> usize {
        self.engine.graph.edge_count()
    }

    /// Number of distinct begin/commit instants spliced into the SSER
    /// time-chain so far (always 0 for SER/SI).
    pub fn time_instant_count(&self) -> usize {
        self.engine.chain.len()
    }

    /// The dependency graph grown so far (for inspection / reporting).
    pub fn graph(&self) -> &DependencyGraph {
        &self.engine.graph
    }

    /// The isolation level being enforced.
    pub fn level(&self) -> IsolationLevel {
        self.engine.level
    }

    /// The options in effect.
    pub fn options(&self) -> &CheckOptions {
        &self.engine.opts
    }

    /// Ends the stream: settles reads still waiting for a writer (they can
    /// no longer be satisfied) and returns the final verdict, which agrees
    /// with the batch checkers on the equivalent [`mtc_history::History`].
    pub fn finish(self) -> Result<Verdict, CheckError> {
        let IncrementalChecker { engine, keys } = self;
        if let Some(e) = engine.error {
            return Err(e);
        }
        if let Some(v) = engine.violation {
            return Ok(Verdict::Violated(v));
        }
        let mut settled: Vec<IntraViolation> = match keys {
            Keys::Local(mut keys) => {
                let pending = keys.drain_pending();
                pending.iter().map(|p| keys.classify_settled(p)).collect()
            }
            Keys::Pool(pool) => pool.settle(),
        };
        settled.sort_by_key(|v| (v.txn, v.op_index));
        match settled.first() {
            None => Ok(Verdict::Satisfied),
            Some(_) if engine.opts.prescan_intra => {
                Ok(Verdict::Violated(Violation::Intra(settled)))
            }
            // Without the pre-scan, an unreadable value is a domain error,
            // exactly as in `BUILDDEPENDENCY`.
            Some(p) => Err(CheckError::UnreadableValue {
                txn: p.txn,
                key: p.key,
                value: p.value,
            }),
        }
    }
}

fn live_nodes(engine: &Engine) -> usize {
    let (topo, composed) = (&engine.topo, &engine.composed);
    topo.live_node_count().max(composed.live_node_count())
}

/// The step both key-state placements share: admits `txn`, lets `derive`
/// add the events of its keys, and hands everything to `apply` in canonical
/// `(pass, key_rank, seq)` order. Returns the number of events. Once a
/// verdict is latched, transactions are only counted.
fn merge_txn(
    engine: &mut Engine,
    txn: &Transaction,
    is_init: bool,
    derive: impl FnOnce(&mut Vec<TaggedEvent>),
    apply: impl Fn(&mut Engine, TxnId, Event),
) -> u64 {
    if engine.done() {
        engine.txn_count += 1;
        return 0;
    }
    let mut events = engine.admit(txn, is_init);
    derive(&mut events);
    events.sort_by_key(|e| (e.pass, e.key_rank, e.seq));
    let merged = events.len() as u64;
    for e in events {
        apply(engine, txn.id, e.event);
    }
    merged
}

/// The engine side of a due epoch boundary, once the key state has been
/// swept at `watermark`: advances the epoch clock and, on a collection
/// commit, retires everything `refs` (what the swept key state still
/// references) does not pin.
fn close_epoch(
    engine: &mut Engine,
    watermark: TxnId,
    refs: &HashSet<TxnId>,
    gc_timer: Option<Instant>,
) {
    if engine.begin_epoch() && !engine.done() {
        let before = gc_timer.is_some().then(|| live_nodes(engine));
        engine.collect(watermark, refs);
        if let Some(before) = before {
            mtc_obs::histogram!("checker.gc_reclaimed_nodes")
                .record(before.saturating_sub(live_nodes(engine)) as u64);
        }
    }
    if let Some(t0) = gc_timer {
        mtc_obs::histogram!("checker.gc_epoch_micros").record(t0.elapsed().as_micros() as u64);
    }
}

/// Runs a complete [`mtc_history::History`] through an
/// [`IncrementalChecker`] in transaction-id order — the drop-in streaming
/// replacement for [`crate::check_ser`] / [`crate::check_si`] /
/// [`crate::check_sser`].
pub fn check_streaming(
    level: IsolationLevel,
    history: &mtc_history::History,
) -> Result<Verdict, CheckError> {
    check_streaming_with(level, history, &CheckOptions::default())
}

/// [`check_streaming`] with explicit options.
pub fn check_streaming_with(
    level: IsolationLevel,
    history: &mtc_history::History,
    opts: &CheckOptions,
) -> Result<Verdict, CheckError> {
    let mut checker = IncrementalChecker::new(level).with_options(*opts);
    let _ = checker.push_history(history);
    checker.finish()
}
