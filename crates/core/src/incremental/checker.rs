//! The one streaming front: [`IncrementalChecker`] owns the [`Engine`] and
//! the [`KeyState`] and runs the one ingest loop, on the caller's thread.

use super::engine::{Engine, OrderEdge};
use super::gc::GcPolicy;
use super::keystate::KeyState;
use super::snapshot::{CheckerSnapshot, SNAPSHOT_VERSION};
use super::Findings;
use crate::check::IsolationLevel;
use crate::verdict::{CheckError, Verdict, Violation};
use mtc_history::{
    IntraViolation, Key, Op, OrderStats, SessionId, Transaction, TxnId, TxnStatus, INIT_VALUE,
};
use std::time::Instant;

/// Starts a sampled per-transaction ingest span: times every 32nd push.
/// A timed push reads the clock five times and records four histograms:
/// sampled 1 in 16, that took the CI gate's `ser/incremental-obs` ratio to
/// 92–94 % on first readings once pushes got faster; 1 in 32 keeps the
/// `checker.ingest_txn_micros` and stage quantiles honest at 97–99 %.
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
        (v % 32 == 0).then(std::time::Instant::now)
    })
}

/// When timed (`mark` is `Some`), records the nanoseconds since `mark` into
/// the stage histogram `hist` names and restarts `mark`: the
/// `core.stream.{admit,derive,settle}` attribution of
/// `checker.ingest_txn_micros`, and `close_epoch`'s of
/// `checker.gc_epoch_micros`. An unsampled push reads no clock.
#[inline]
fn lap(mark: &mut Option<Instant>, hist: impl FnOnce() -> &'static mtc_obs::Histogram) {
    if let Some(start) = mark {
        let now = Instant::now();
        hist().record((now - *start).as_nanos() as u64);
        *start = now;
    }
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
    pub(super) keys: KeyState,
    /// What the transaction being ingested turned up — pure scratch, empty
    /// between two calls of `ingest`, kept for its edge buffer.
    found: Findings,
    /// [`IncrementalChecker::order_stats`] as last published to `mtc-obs`.
    published: OrderStats,
}

impl IncrementalChecker {
    /// A streaming checker for `level`: the batch checkers' pipeline —
    /// validation, intra pre-scan, at SI the DIVERGENCE exit, then the
    /// graph — one transaction at a time.
    ///
    /// For [`IsolationLevel::StrictSerializability`], transactions should be
    /// fed with begin/commit instants (the `*_timed` push methods, or
    /// [`Transaction`]s carrying `begin`/`end`); untimed transactions simply
    /// contribute no real-time constraints, exactly as in the batch
    /// [`crate::check_sser`].
    pub fn new(level: IsolationLevel) -> Self {
        IncrementalChecker {
            engine: Engine::new(level),
            keys: KeyState::default(),
            found: Findings::default(),
            published: OrderStats::default(),
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
    /// ([`IncrementalChecker::push_committed_timed`]); the checker anchors
    /// each commit instant in an online time-chain
    /// ([`mtc_history::TimeChain`]), hangs the transaction between two
    /// anchors and latches a violation the moment a dependency edge contradicts the
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

    /// Enables settled-prefix garbage collection (see [`GcPolicy`]): memory
    /// stays proportional to the active window instead of the history.
    pub fn with_gc(mut self, policy: GcPolicy) -> Self {
        self.set_gc(policy);
        self
    }

    /// Non-consuming form of [`IncrementalChecker::with_gc`].
    pub fn set_gc(&mut self, policy: GcPolicy) {
        self.engine.gc = Some(GcPolicy::clamped(policy.window, policy.every));
    }

    /// The garbage-collection policy in effect, if any.
    pub fn gc_policy(&self) -> Option<GcPolicy> {
        self.engine.gc
    }

    /// Number of transactions currently resident (not retired by the GC).
    pub fn live_txn_count(&self) -> usize {
        self.engine.live_txns.len()
    }

    /// Number of live nodes in the maintained order — transactions plus, in
    /// SSER mode, one anchor per commit instant and, in SI mode, a tail node per
    /// transaction. The quantity the GC bounds.
    pub fn live_node_count(&self) -> usize {
        self.engine.topo.live_node_count()
    }

    /// Longest resident reader list across all live versions — the register
    /// state a hot, never-overwritten key accumulates. Under a [`GcPolicy`]
    /// it stays within `window + every`: each sweep trims the lists to the
    /// window, and at most `every` transactions read between two sweeps.
    pub fn max_reader_list_len(&self) -> usize {
        self.keys.max_reader_list_len()
    }

    /// Transactions retired by the GC so far.
    pub fn pruned_txn_count(&self) -> usize {
        self.engine.pruned_txns
    }

    /// What the maintained topological order has cost this checker (since
    /// it was created or resumed): edges that agreed with the order on
    /// arrival, affected-region passes (one per backward edge), and nodes
    /// those passes re-ranked — whether Pearce–Kelly maintenance is earning
    /// its cost on the stream.
    /// With `mtc-obs` enabled the same readings are published as
    /// `checker.topo_forward`, `checker.topo_reorders` and
    /// `checker.topo_moved`.
    pub fn order_stats(&self) -> OrderStats {
        self.engine.topo.order_stats()
    }

    /// Captures a complete [`CheckerSnapshot`] of the current state: the
    /// engine plus the key state.
    pub fn checkpoint(&self) -> CheckerSnapshot {
        CheckerSnapshot {
            version: SNAPSHOT_VERSION,
            engine: self.engine.clone(),
            keys: self.keys.clone(),
        }
    }

    /// Reconstructs a checker from a snapshot. The resumed checker
    /// continues exactly where the snapshot stopped: feeding it the
    /// remaining stream yields a verdict bit-identical to the uninterrupted
    /// run's, and its [`IncrementalChecker::checkpoint`] right away encodes
    /// to the bytes it was resumed from.
    pub fn resume(snapshot: CheckerSnapshot) -> Self {
        let CheckerSnapshot { engine, keys, .. } = snapshot;
        IncrementalChecker {
            engine,
            keys,
            found: Findings::default(),
            published: OrderStats::default(),
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
        self.ingest(TxnId(0), &init, true);
        self
    }

    /// Feeds the next transaction of the stream (committed or aborted). The
    /// transaction is assigned the next dense id, mirroring
    /// [`mtc_history::HistoryBuilder`] numbering.
    ///
    /// Session ids index a dense table that every snapshot carries: a caller
    /// feeding untrusted ids bounds them first (as `mtc-service` does at
    /// admission).
    ///
    /// Returns the streaming status for the consumed prefix, or the error
    /// that took the input outside the checker's domain. Both violations and
    /// errors latch: later pushes are cheap no-ops returning the same answer.
    pub fn push(&mut self, txn: Transaction) -> Result<StreamStatus, CheckError> {
        self.feed(&txn);
        self.status_result()
    }

    /// Feeds a batch of transactions, in stream order, and returns the
    /// status after the whole batch: a loop of [`IncrementalChecker::push`]es.
    pub fn push_batch(&mut self, txns: Vec<Transaction>) -> Result<StreamStatus, CheckError> {
        for txn in &txns {
            self.feed(txn);
        }
        self.status_result()
    }

    /// Consumes `txn` under the next dense id, whatever id it carries.
    fn feed(&mut self, txn: &Transaction) {
        self.ingest(TxnId(self.engine.txn_count as u32), txn, false);
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
        if let Some(init) = history.init_txn() {
            assert_eq!(
                self.engine.txn_count, 0,
                "a history with ⊥T can only be replayed into an empty checker"
            );
            self.ingest(init, history.txn(init), true);
        }
        for txn in history.txns() {
            if Some(txn.id) != history.init_txn() {
                self.feed(txn);
            }
        }
        self.status_result()
    }

    /// The one ingest step, from `push` to latch: admits `txn` as
    /// transaction `id` (the id it carries is not read; `⊥T` arrives with
    /// `is_init`), derives what its keys entail, settles the findings stage
    /// by stage, and closes a GC epoch when one is due. Once a verdict is
    /// latched, transactions are only counted.
    pub(super) fn ingest(&mut self, id: TxnId, txn: &Transaction, is_init: bool) {
        let IncrementalChecker {
            engine,
            keys,
            found,
            published,
        } = self;
        if engine.done() {
            engine.txn_count += 1;
            return;
        }
        let ingest_timer = obs_ingest_timer();
        let mut stage = ingest_timer;
        let admitted = engine.admit(id, txn, is_init, found);
        lap(&mut stage, || mtc_obs::histogram!("core.stream.admit"));
        // Only SI scans for DIVERGENCE.
        let scan_divergence = engine.level == IsolationLevel::SnapshotIsolation;
        keys.derive(id, txn, is_init, scan_divergence, engine.has_init, found);
        lap(&mut stage, || mtc_obs::histogram!("core.stream.derive"));
        engine.settle(id, admitted, found);
        lap(&mut stage, || mtc_obs::histogram!("core.stream.settle"));
        if engine.gc_due() {
            close_epoch(engine, keys);
        }
        if let Some(t0) = ingest_timer {
            mtc_obs::histogram!("checker.ingest_txn_micros")
                .record(t0.elapsed().as_micros() as u64);
            publish_order_stats(engine, published);
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

    /// Number of labelled dependency edges derived so far, the one that
    /// closed a cycle included: a count, kept beside the order, which holds
    /// each pair of transactions once.
    pub fn edge_count(&self) -> usize {
        self.engine.edges
    }

    /// Number of distinct commit instants anchored in the SSER time-chain
    /// (always 0 for SER/SI).
    pub fn time_instant_count(&self) -> usize {
        self.engine.chain.len()
    }

    /// The dependency edges the maintained order holds among resident
    /// transactions, one per row entry, each with the label it carries: of
    /// the edges derived between two transactions, the best by
    /// [`mtc_history::EdgeKind::label_rank`], the first among equals. At SI
    /// each base edge `a → b` is two entries (into `b`'s node and into its
    /// tail) and each `RW` edge one (out of the source's tail). For
    /// inspection and tests; it walks every row.
    pub fn order_edges(&self) -> Vec<OrderEdge> {
        self.engine.order_edges().collect()
    }

    /// The isolation level being enforced.
    pub fn level(&self) -> IsolationLevel {
        self.engine.level
    }

    /// Ends the stream: settles reads still waiting for a writer (they can
    /// no longer be satisfied) and returns the final verdict, which agrees
    /// with the batch checkers on the equivalent [`mtc_history::History`].
    pub fn finish(self) -> Result<Verdict, CheckError> {
        let IncrementalChecker {
            engine,
            mut keys,
            mut published,
            ..
        } = self;
        publish_order_stats(&engine, &mut published);
        if let Some(e) = engine.error {
            return Err(e);
        }
        if let Some(v) = engine.violation {
            return Ok(Verdict::Violated(v));
        }
        // Drained in `(txn, op_index)` order.
        let pending = keys.drain_pending();
        let settled: Vec<IntraViolation> =
            pending.iter().map(|p| keys.classify_settled(p)).collect();
        if settled.is_empty() {
            return Ok(Verdict::Satisfied);
        }
        Ok(Verdict::Violated(Violation::Intra(settled)))
    }
}

/// Publishes what the order did since the last call: on the sampled pushes
/// and at `finish`, so a scrape of a running checker trails it by at most
/// sixteen transactions and the hot path pays nothing for it.
fn publish_order_stats(engine: &Engine, published: &mut OrderStats) {
    if !mtc_obs::enabled() {
        return;
    }
    let now = engine.topo.order_stats();
    let was = std::mem::replace(published, now);
    mtc_obs::counter!("checker.topo_forward").add(now.forward - was.forward);
    mtc_obs::counter!("checker.topo_reorders").add(now.reorders - was.reorders);
    mtc_obs::counter!("checker.topo_moved").add(now.moved - was.moved);
}

/// A due epoch boundary: sweeps the key state at the GC watermark, advances
/// the epoch clock and, on a collection commit, retires everything the swept
/// key state no longer references. With observability on, every epoch
/// records its parts in nanoseconds — `core.stream.gc.sweep` at each,
/// `core.stream.gc.refs` and `core.stream.gc.collect` at a commit — beside
/// its total in `checker.gc_epoch_micros`.
fn close_epoch(engine: &mut Engine, keys: &mut KeyState) {
    let gc_timer = mtc_obs::enabled().then(Instant::now);
    let mut stage = gc_timer;
    let watermark = engine.gc_watermark();
    keys.sweep(watermark);
    lap(&mut stage, || mtc_obs::histogram!("core.stream.gc.sweep"));
    if engine.begin_epoch() {
        let before = gc_timer.is_some().then(|| engine.topo.live_node_count());
        let refs = keys.refs();
        lap(&mut stage, || mtc_obs::histogram!("core.stream.gc.refs"));
        engine.collect(watermark, &refs);
        lap(&mut stage, || mtc_obs::histogram!("core.stream.gc.collect"));
        if let Some(before) = before {
            mtc_obs::histogram!("checker.gc_reclaimed_nodes")
                .record(before.saturating_sub(engine.topo.live_node_count()) as u64);
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
    let mut checker = IncrementalChecker::new(level);
    let _ = checker.push_history(history);
    checker.finish()
}
