//! Live verification: checking the simulated database *while* it executes.
//!
//! The batch pipeline collects a complete history and verifies it afterwards
//! (steps ③–④ of Figure 2). With the streaming engine of `mtc-core`, the
//! same check can run concurrently with execution: every session thread
//! reports each finished transaction attempt to a shared [`LiveVerifier`],
//! which feeds an [`IncrementalChecker`] in commit order. The first
//! isolation violation is latched the moment the offending transaction
//! commits — typically long before the workload ends — and can optionally
//! stop the run ([`LiveVerifierBuilder::stop_on_violation`]), which is what turns
//! "verify a million transactions, then learn the bug happened at #1302"
//! into "stop at #1302".
//!
//! The verifier consumes transactions in *commit order* (the order the
//! session threads acquire the verifier lock), which preserves each
//! session's order and therefore yields the same verdict as checking the
//! collected history, even though transaction ids differ from the
//! per-session renumbering of the final [`History`](mtc_history::History).

use crate::session::{Observer, TxnRecord};
use mtc_core::{CheckError, GcPolicy, IncrementalChecker, IsolationLevel, Verdict, Violation};
use mtc_history::{Op, SessionId, Transaction, TxnId, TxnStatus};
use mtc_store::MtcStore;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A thread-safe streaming verifier shared by the client sessions.
pub struct LiveVerifier {
    inner: Mutex<LiveInner>,
    stop_on_violation: bool,
    violated: AtomicBool,
}

/// The write-ahead persistence sink of a live verifier: every recorded
/// transaction is appended to an [`MtcStore`] log *before* the checker
/// consumes it. Every `checkpoint_every` recorded transactions — the floor —
/// the sink snapshots the checker into a checkpoint file if the store says
/// one is due ([`MtcStore::checkpoint_due`]: the log since the newest
/// checkpoint has grown to its size), and otherwise fsyncs the log, so the
/// log is fsynced at every floor either way.
struct StoreSink {
    store: MtcStore,
    checkpoint_every: usize,
    since_floor: usize,
    error: Option<String>,
    /// Per-sink WAL append latency, owned rather than registered — tenants
    /// come and go, and the daemon surfaces this through `TenantStatus`.
    /// Empty unless observability is enabled.
    append_hist: mtc_obs::Histogram,
    /// Failed sink operations (appends/checkpoints after the first error
    /// short-circuit, so in practice 0 or 1).
    errors: u64,
    /// When the newest checkpoint finished, for staleness reporting.
    last_checkpoint: Option<Instant>,
    /// Checkpoints actually written (not cadence-derived).
    checkpoints: u64,
}

impl StoreSink {
    fn new(store: MtcStore, checkpoint_every: usize) -> Self {
        StoreSink {
            store,
            checkpoint_every: checkpoint_every.max(1),
            since_floor: 0,
            error: None,
            append_hist: mtc_obs::Histogram::new(),
            errors: 0,
            last_checkpoint: None,
            checkpoints: 0,
        }
    }

    fn append(&mut self, txn: &Transaction) {
        if self.error.is_some() {
            return;
        }
        let timer = mtc_obs::enabled().then(Instant::now);
        if let Err(e) = self.store.append_txn(txn) {
            self.error = Some(e.to_string());
            self.errors += 1;
            return;
        }
        if let Some(t0) = timer {
            self.append_hist.record(t0.elapsed().as_micros() as u64);
        }
    }

    /// Called once `checker` has consumed a recorded transaction, its
    /// `consumed`-th: at a floor, checkpoints `checker` if one is due and
    /// fsyncs the log if not.
    fn recorded(&mut self, consumed: u64, checker: &IncrementalChecker) {
        self.since_floor += 1;
        if self.error.is_some() || self.since_floor < self.checkpoint_every {
            return;
        }
        self.since_floor = 0;
        let done = if self.store.checkpoint_due() {
            let written = self.store.checkpoint(consumed, &checker.checkpoint());
            if written.is_ok() {
                self.last_checkpoint = Some(Instant::now());
                self.checkpoints += 1;
            }
            written.map(drop)
        } else {
            self.store.sync()
        };
        if let Err(e) = done {
            self.error = Some(e.to_string());
            self.errors += 1;
        }
    }

    fn stats(&self) -> SinkStats {
        SinkStats {
            wal_append_p99_micros: self.append_hist.snapshot().p99,
            wal_appends: self.append_hist.count(),
            last_checkpoint_age_micros: self
                .last_checkpoint
                .map(|t| t.elapsed().as_micros() as u64),
            checkpoints: self.checkpoints,
            log_bytes: self.store.log_bytes(),
            checkpoint_bytes: self.store.checkpoint_bytes(),
            sink_errors: self.errors,
        }
    }
}

/// Observability of a verifier's persistence sink, surfaced per tenant by
/// the service's `TenantStatus` — lets an operator tell a slow tenant from
/// a stalled WAL.
#[derive(Clone, Copy, Debug, Default)]
pub struct SinkStats {
    /// 99th-percentile WAL append latency (0 until observability is
    /// enabled — the histogram only records while the global switch is on).
    pub wal_append_p99_micros: u64,
    /// Appends measured into the p99 (0 while observability is disabled).
    pub wal_appends: u64,
    /// Microseconds since the newest checkpoint finished (`None` before
    /// the first one).
    pub last_checkpoint_age_micros: Option<u64>,
    /// Checkpoints actually written.
    pub checkpoints: u64,
    /// Log bytes the sink's store appended (since it was created or opened).
    pub log_bytes: u64,
    /// Checkpoint bytes the sink's store wrote. A checkpoint is due once the
    /// log since the newest one has grown to that one's size, so every
    /// checkpoint but the newest is paid for by `log_bytes`.
    pub checkpoint_bytes: u64,
    /// Failed sink operations.
    pub sink_errors: u64,
}

struct LiveInner {
    checker: IncrementalChecker,
    first_violation: Option<LiveViolation>,
    /// Optional durable write-ahead sink.
    sink: Option<StoreSink>,
    /// Start of the run: set when [`crate::ExecutionOptions::run`] begins (or
    /// at construction, for hand-driven use), so `LiveViolation::elapsed` is
    /// comparable with the run's wall time.
    started: Instant,
}

impl LiveInner {
    /// Transactions consumed by the checker (excluding `⊥T`).
    fn consumed(&self) -> usize {
        self.checker.txn_count().saturating_sub(1)
    }
}

/// Metadata about the first violation observed during a live run.
#[derive(Clone, Debug)]
pub struct LiveViolation {
    /// How many transactions the verifier had consumed when it latched
    /// (including the offending one, excluding `⊥T`).
    pub at_txn: usize,
    /// Wall-clock time from the start of the run to the latch.
    pub elapsed: Duration,
}

/// Outcome of a live-verified execution.
#[derive(Debug)]
pub struct LiveOutcome {
    /// The final verdict over everything the verifier consumed.
    pub verdict: Result<Verdict, CheckError>,
    /// First-violation metadata, if a violation was latched mid-run.
    pub first_violation: Option<LiveViolation>,
    /// Transactions consumed by the verifier (excluding `⊥T`).
    pub checked_txns: usize,
    /// First error of the persistence sink, if one was attached and failed.
    /// Verification continues past sink errors; recovery guarantees only
    /// cover the prefix persisted before the error.
    pub sink_error: Option<String>,
}

/// Chained-setter construction of a [`LiveVerifier`] — the one way the
/// daemon (and everything else) builds one: GC policy, durable store and
/// resume source are orthogonal knobs, so they compose as setters instead of
/// multiplying constructors.
///
/// ```
/// use mtc_core::{GcPolicy, IsolationLevel};
/// use mtc_dbsim::LiveVerifier;
///
/// let verifier = LiveVerifier::builder(IsolationLevel::Serializability, 16)
///     .stop_on_violation(true)
///     .gc(GcPolicy { window: 64, every: 16, reader_cap: 0 })
///     .build();
/// assert!(!verifier.is_violated());
/// ```
pub struct LiveVerifierBuilder {
    level: IsolationLevel,
    num_keys: u64,
    stop_on_violation: bool,
    gc: Option<GcPolicy>,
    store: Option<(MtcStore, usize)>,
    resume: Option<IncrementalChecker>,
}

impl LiveVerifierBuilder {
    /// When set, sessions executing through [`crate::ExecutionOptions`] with
    /// this verifier attached stop issuing new transactions once a violation
    /// is latched. Defaults to `false`.
    pub fn stop_on_violation(mut self, stop: bool) -> Self {
        self.stop_on_violation = stop;
        self
    }

    /// Does nothing: there is no worker pool left to size. Called by
    /// `benchmark/src/{workloads,probes}.rs` only (CI keeps the product off
    /// it); ROADMAP item 1(f) drops those two calls, then this method.
    pub fn autotuned(self) -> Self {
        self
    }

    /// Enables settled-prefix garbage collection on the backing checker:
    /// resident state stays proportional to the GC window instead of the
    /// run length (see [`GcPolicy`] for the staleness-window contract).
    pub fn gc(mut self, policy: GcPolicy) -> Self {
        self.gc = Some(policy);
        self
    }

    /// Attaches a durable write-ahead sink: every recorded transaction is
    /// appended to `store` *before* the checker consumes it.
    /// `checkpoint_every` is a floor: every that many recorded transactions
    /// the log is fsynced, and a checkpoint (a complete
    /// [`mtc_core::CheckerSnapshot`], whose write fsyncs the log first) is
    /// written instead if [`MtcStore::checkpoint_due`] — the first floor,
    /// and then once the log appended since the newest checkpoint has grown
    /// to that checkpoint's size. After a crash,
    /// [`mtc_store::recover`] + [`IncrementalChecker::resume`] + replay of
    /// the logged tail reproduce the uninterrupted verdict.
    pub fn store(mut self, store: MtcStore, checkpoint_every: usize) -> Self {
        self.store = Some((store, checkpoint_every));
        self
    }

    /// Resumes from an already-populated checker — the recovery path:
    /// recover a store, replay the logged tail into
    /// [`IncrementalChecker::resume`]'s result, then hand it here to keep
    /// verifying live. The latch state is inherited from the checker; the
    /// builder's `level`/`num_keys` are ignored (the snapshot already fixes
    /// them).
    pub fn resume_from(mut self, checker: IncrementalChecker) -> Self {
        self.resume = Some(checker);
        self
    }

    /// Builds the verifier.
    pub fn build(self) -> LiveVerifier {
        let mut checker = self.resume.unwrap_or_else(|| {
            IncrementalChecker::new(self.level).with_init_keys(0..self.num_keys)
        });
        if let Some(policy) = self.gc {
            checker.set_gc(policy);
        }
        let v = LiveVerifier {
            inner: Mutex::new(LiveInner {
                checker,
                first_violation: None,
                sink: self
                    .store
                    .map(|(store, every)| StoreSink::new(store, every)),
                started: Instant::now(),
            }),
            stop_on_violation: self.stop_on_violation,
            violated: AtomicBool::new(false),
        };
        // A resumed checker may already be latched: inherit its state.
        v.note_latch(&mut v.inner.lock());
        v
    }
}

/// One finished transaction attempt, as fed to a [`LiveVerifier`] — the
/// serializable unit the verification service ingests over the wire.
/// `begin`/`end` carry the backend's logical clock when known; without them
/// the SSER mode degenerates to SER (see [`LiveVerifier::record_timed`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IngestEvent {
    /// Session (client thread) the attempt ran on.
    pub session: u32,
    /// The attempt's operations in issue order.
    pub ops: Vec<Op>,
    /// Whether the attempt committed or aborted.
    pub status: TxnStatus,
    /// Begin timestamp on the backend's logical clock, if known.
    pub begin: Option<u64>,
    /// Commit-acknowledgement timestamp, if known.
    pub end: Option<u64>,
}

impl IngestEvent {
    /// An event with both instants known.
    pub fn timed(session: u32, ops: Vec<Op>, status: TxnStatus, begin: u64, end: u64) -> Self {
        IngestEvent {
            session,
            ops,
            status,
            begin: Some(begin),
            end: Some(end),
        }
    }
}

impl LiveVerifier {
    /// Starts building a live verifier for `level` over a database
    /// pre-initialized with `num_keys` register keys. See
    /// [`LiveVerifierBuilder`].
    pub fn builder(level: IsolationLevel, num_keys: u64) -> LiveVerifierBuilder {
        LiveVerifierBuilder {
            level,
            num_keys,
            stop_on_violation: false,
            gc: None,
            store: None,
            resume: None,
        }
    }

    /// Number of transactions currently resident in the checker — bounded
    /// (once steady state is reached) when a GC policy is set.
    pub fn live_txn_count(&self) -> usize {
        self.inner.lock().checker.live_txn_count()
    }

    /// Transactions consumed by the checker so far (excluding `⊥T`) — the
    /// "checked" half of a tenant's ingest lag.
    pub fn consumed(&self) -> usize {
        self.inner.lock().consumed()
    }

    /// The latched first-violation metadata (stream index plus wall-clock
    /// detection latency), once a violation has latched.
    pub fn first_violation(&self) -> Option<LiveViolation> {
        self.inner.lock().first_violation.clone()
    }

    /// Index of the first violating transaction (excluding `⊥T`), once a
    /// violation has latched.
    pub fn first_violation_at(&self) -> Option<usize> {
        self.inner.lock().first_violation.as_ref().map(|v| v.at_txn)
    }

    /// Restarts the time-to-first-violation clock. Called by
    /// [`crate::ExecutionOptions::run`] when the run actually begins, so that
    /// verifier construction and other setup do not count towards
    /// [`LiveViolation::elapsed`].
    pub fn mark_started(&self) {
        self.inner.lock().started = Instant::now();
    }

    /// True iff a violation has been latched.
    pub fn is_violated(&self) -> bool {
        self.violated.load(Ordering::Relaxed)
    }

    /// True iff sessions should stop issuing transactions.
    pub fn should_stop(&self) -> bool {
        self.stop_on_violation && self.is_violated()
    }

    /// Feeds one finished transaction attempt. Called by the session threads
    /// in commit order; also usable directly when driving [`crate::Database`] by
    /// hand (see `examples/streaming_check.rs`). Without begin/commit
    /// instants the SSER mode degenerates to SER — prefer
    /// [`LiveVerifier::record_timed`] when the instants are known.
    pub fn record(&self, session: u32, ops: Vec<Op>, status: TxnStatus) {
        self.record_inner(session, ops, status, None)
    }

    /// Feeds one finished transaction attempt together with its begin and
    /// commit-acknowledgement instants (the simulated store's logical
    /// clock). In SSER mode the instants feed the online time-chain, so
    /// real-time-order violations — including skewed commit timestamps —
    /// latch the moment the offending commit is recorded.
    pub fn record_timed(
        &self,
        session: u32,
        ops: Vec<Op>,
        status: TxnStatus,
        begin: u64,
        end: u64,
    ) {
        self.record_inner(session, ops, status, Some((begin, end)))
    }

    /// Feeds one wire-shaped [`IngestEvent`] — [`LiveVerifier::record_timed`]
    /// when both instants are present, [`LiveVerifier::record`] otherwise.
    /// This is the entry point the verification service's per-tenant drain
    /// uses.
    pub fn record_event(&self, event: IngestEvent) {
        let times = match (event.begin, event.end) {
            (Some(begin), Some(end)) => Some((begin, end)),
            _ => None,
        };
        self.record_inner(event.session, event.ops, event.status, times)
    }

    fn record_inner(
        &self,
        session: u32,
        ops: Vec<Op>,
        status: TxnStatus,
        times: Option<(u64, u64)>,
    ) {
        let mut inner = self.inner.lock();
        // A latched verdict does not end the stream: the log still takes
        // every record, and the checker counts it (see
        // `IncrementalChecker::push`), so `checked_txns` stays the number of
        // records admitted.
        let mut txn = Transaction {
            id: TxnId(0), // renumbered by the checker
            session: SessionId(session),
            ops,
            status,
            begin: None,
            end: None,
        };
        if let Some((begin, end)) = times {
            txn.begin = Some(begin);
            txn.end = Some(end);
        }
        let guts = &mut *inner;
        if let Some(sink) = guts.sink.as_mut() {
            // Write-ahead: the log sees the transaction before the checker.
            sink.append(&txn);
        }
        if guts.checker.push(txn).is_err() {
            // Domain errors latch inside the checker; surfaced by finish().
            self.violated.store(true, Ordering::Relaxed);
        }
        let consumed = guts.consumed() as u64;
        if let Some(sink) = guts.sink.as_mut() {
            sink.recorded(consumed, &guts.checker);
        }
        self.note_latch(&mut inner);
    }

    /// Records latch metadata (the `violated` flag feeding `should_stop`,
    /// plus the first-violation snapshot) whenever the backing checker has a
    /// violation. Called after every push, and once at build time for a
    /// resumed checker.
    fn note_latch(&self, inner: &mut LiveInner) {
        if inner.checker.violation().is_some() {
            if inner.first_violation.is_none() {
                // `⊥T` is transaction 0, so the id is the index without it.
                let at = inner.checker.first_violation_at();
                inner.first_violation = Some(LiveViolation {
                    at_txn: at.map_or_else(|| inner.consumed(), |id| id.index()),
                    elapsed: inner.started.elapsed(),
                });
            }
            self.violated.store(true, Ordering::Relaxed);
        }
    }

    /// Observability of the attached persistence sink (`None` without one):
    /// WAL append p99, checkpoint staleness, error count.
    pub fn sink_stats(&self) -> Option<SinkStats> {
        self.inner.lock().sink.as_ref().map(StoreSink::stats)
    }

    /// A snapshot of the currently latched violation, if any: a recorded
    /// transaction is checked by the time `record` returns.
    pub fn violation(&self) -> Option<Violation> {
        self.inner.lock().checker.violation().cloned()
    }

    /// Ends the stream and returns the final outcome, syncing the
    /// persistence sink (if any) so the log survives the process.
    pub fn finish(self) -> LiveOutcome {
        let mut inner = self.inner.into_inner();
        let sink_error = inner.sink.as_mut().and_then(|sink| {
            if sink.error.is_none() {
                if let Err(e) = sink.store.sync() {
                    sink.error = Some(e.to_string());
                }
            }
            sink.error.clone()
        });
        let checked = inner.consumed();
        LiveOutcome {
            verdict: inner.checker.finish(),
            first_violation: inner.first_violation,
            checked_txns: checked,
            sink_error,
        }
    }
}

impl Observer<Op> for LiveVerifier {
    fn should_stop(&self) -> bool {
        LiveVerifier::should_stop(self)
    }

    fn observe(&self, record: &TxnRecord<Op>) {
        self.record_timed(
            record.session,
            record.ops.clone(),
            record.status,
            record.begin,
            record.end,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DbBackend;
    use crate::client::ClientOptions;
    use crate::config::{DbConfig, IsolationMode};
    use crate::db::Database;
    use crate::faults::{FaultKind, FaultSpec};
    use mtc_history::History;
    use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec, Workload};

    fn spec(seed: u64, keys: u64, txns: u32) -> MtWorkloadSpec {
        MtWorkloadSpec {
            sessions: 4,
            txns_per_session: txns,
            num_keys: keys,
            distribution: Distribution::Uniform,
            read_only_fraction: 0.2,
            two_key_fraction: 0.5,
            seed,
        }
    }

    /// A threaded run with `verifier` attached.
    fn run_live(
        db: &dyn DbBackend,
        workload: &Workload,
        opts: &ClientOptions,
        verifier: &LiveVerifier,
    ) -> (History, crate::ExecutionReport) {
        crate::ExecutionOptions::threaded()
            .client(*opts)
            .verifier(verifier)
            .run(db, workload)
    }

    #[test]
    fn clean_database_passes_live_verification() {
        let s = spec(3, 16, 50);
        let workload = generate_mt_workload(&s);
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, s.num_keys));
        let verifier = LiveVerifier::builder(IsolationLevel::Serializability, s.num_keys).build();
        let (history, report) = run_live(&db, &workload, &ClientOptions::default(), &verifier);
        assert!(report.committed > 0);
        let outcome = verifier.finish();
        assert!(outcome.verdict.unwrap().is_satisfied());
        assert!(outcome.first_violation.is_none());
        assert_eq!(
            outcome.checked_txns,
            history.len() - 1,
            "verifier must have consumed every recorded transaction"
        );
    }

    #[test]
    fn clean_serializable_database_passes_live_sser_verification() {
        // A correct serializable store with honest timestamps is strictly
        // serializable: the SSER live verifier must stay quiet.
        let s = spec(5, 8, 60);
        let workload = generate_mt_workload(&s);
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, s.num_keys));
        let verifier =
            LiveVerifier::builder(IsolationLevel::StrictSerializability, s.num_keys).build();
        let (history, _) = run_live(&db, &workload, &ClientOptions::default(), &verifier);
        let outcome = verifier.finish();
        assert!(
            outcome.verdict.unwrap().is_satisfied(),
            "clean run must pass SSER"
        );
        assert!(outcome.first_violation.is_none());
        assert_eq!(outcome.checked_txns, history.len() - 1);
    }

    #[test]
    fn skewed_commit_timestamps_are_caught_by_live_sser() {
        // Clock-skewed commit acknowledgements violate only the real-time
        // order: live SER stays quiet while live SSER latches mid-run.
        let s = spec(9, 4, 150);
        let workload = generate_mt_workload(&s);
        let make_db = || {
            Database::new(
                DbConfig::correct(IsolationMode::Serializable, s.num_keys)
                    .with_latency(Duration::from_micros(200), Duration::from_micros(100))
                    .with_faults(vec![FaultSpec::new(FaultKind::CommitTimestampSkew, 0.4)], 9),
            )
        };

        let ser_verifier =
            LiveVerifier::builder(IsolationLevel::Serializability, s.num_keys).build();
        run_live(
            &make_db(),
            &workload,
            &ClientOptions::default(),
            &ser_verifier,
        );
        assert!(
            ser_verifier.finish().verdict.unwrap().is_satisfied(),
            "commit-timestamp skew must be invisible to SER"
        );

        let sser_verifier =
            LiveVerifier::builder(IsolationLevel::StrictSerializability, s.num_keys)
                .stop_on_violation(true)
                .build();
        run_live(
            &make_db(),
            &workload,
            &ClientOptions::default(),
            &sser_verifier,
        );
        let outcome = sser_verifier.finish();
        assert!(
            outcome.verdict.unwrap().is_violated(),
            "the skewed commit must violate SSER"
        );
        let first = outcome.first_violation.expect("must latch mid-run");
        assert!(first.at_txn <= outcome.checked_txns);
    }

    fn store_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mtc_live_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn persisted_run_recovers_and_replays_to_the_same_verdict() {
        use mtc_store::StreamMeta;
        let dir = store_dir("wal");
        let s = spec(21, 8, 40);
        let workload = generate_mt_workload(&s);
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, s.num_keys));
        let level = IsolationLevel::Serializability;
        let store = MtcStore::create(
            &dir,
            &StreamMeta {
                level,
                num_keys: s.num_keys,
            },
        )
        .unwrap();
        let verifier = LiveVerifier::builder(level, s.num_keys)
            .store(store, 25)
            .build();
        // Skip aborted-attempt records: how many conflict aborts occur (and
        // get logged) depends on thread scheduling, and this test asserts
        // the log's record count exactly.
        let opts = ClientOptions {
            record_aborted: false,
            ..ClientOptions::default()
        };
        let (_, report) = run_live(&db, &workload, &opts, &verifier);
        // "Crash": drop the verifier without finish(). The log was written
        // ahead of the checker; the sink synced at each checkpoint.
        drop(verifier);

        let recovery = mtc_store::recover(&dir).unwrap();
        assert_eq!(recovery.txns.len(), report.committed);
        assert!(
            recovery.snapshot.is_some(),
            "the checkpoint cadence must have fired"
        );
        assert!(recovery.resume_from > 0);
        let mut resumed = IncrementalChecker::resume(recovery.snapshot.clone().unwrap());
        for t in recovery.tail() {
            let _ = resumed.push(t.clone());
        }
        let resumed_verdict = resumed.finish().unwrap();
        // Reference: replay the whole log from scratch.
        let clean = mtc_core::check_streaming(level, &recovery.to_history()).unwrap();
        assert_eq!(resumed_verdict, clean);
        assert!(clean.is_satisfied());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn persisted_faulty_run_resumes_to_the_same_violation() {
        use mtc_store::StreamMeta;
        let dir = store_dir("wal_fault");
        let s = spec(7, 4, 150);
        let workload = generate_mt_workload(&s);
        let config = DbConfig::correct(IsolationMode::Snapshot, s.num_keys)
            .with_latency(Duration::from_micros(200), Duration::from_micros(100))
            .with_faults(vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.6)], 7);
        let db = Database::new(config);
        let level = IsolationLevel::SnapshotIsolation;
        let store = MtcStore::create(
            &dir,
            &StreamMeta {
                level,
                num_keys: s.num_keys,
            },
        )
        .unwrap();
        let verifier = LiveVerifier::builder(level, s.num_keys)
            .stop_on_violation(true)
            .store(store, 20)
            .build();
        let (_, _) = run_live(&db, &workload, &ClientOptions::default(), &verifier);
        let outcome = verifier.finish();
        assert!(outcome.sink_error.is_none(), "{:?}", outcome.sink_error);
        let live_verdict = outcome.verdict.unwrap();
        assert!(live_verdict.is_violated());

        let recovery = mtc_store::recover(&dir).unwrap();
        let mut resumed = match recovery.snapshot.clone() {
            Some(snap) => IncrementalChecker::resume(snap),
            None => IncrementalChecker::new(level).with_init_keys(0..s.num_keys),
        };
        for t in recovery.tail() {
            let _ = resumed.push(t.clone());
        }
        assert_eq!(resumed.finish().unwrap(), live_verdict);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_after_a_latch_are_logged_and_counted() {
        use mtc_store::StreamMeta;
        let dir = store_dir("wal_past_latch");
        let level = IsolationLevel::Serializability;
        let meta = StreamMeta { level, num_keys: 1 };
        let store = MtcStore::create(&dir, &meta).unwrap();
        let verifier = LiveVerifier::builder(level, 1).store(store, 3).build();
        let rmw = |read: u64, write: u64| vec![Op::read(0u64, read), Op::write(0u64, write)];
        // The second record loses the first one's update; five more follow.
        verifier.record(0, rmw(0, 1), TxnStatus::Committed);
        verifier.record(1, rmw(0, 2), TxnStatus::Committed);
        assert_eq!(verifier.first_violation_at(), Some(2));
        for i in 2..7u64 {
            verifier.record(0, rmw(i, i + 1), TxnStatus::Committed);
        }
        assert_eq!(verifier.consumed(), 7);
        let outcome = verifier.finish();
        assert!(outcome.sink_error.is_none(), "{:?}", outcome.sink_error);
        assert!(outcome.verdict.unwrap().is_violated());
        assert_eq!(outcome.checked_txns, 7, "a latch does not end the stream");
        assert_eq!(outcome.first_violation.unwrap().at_txn, 2);
        let recovery = mtc_store::recover(&dir).unwrap();
        assert_eq!(recovery.txns.len(), 7, "every admitted record is logged");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_bounded_live_verifier_stays_quiet_on_clean_streams() {
        // Drive the verifier by hand (deterministic record order — the GC
        // staleness window assumes reads lag by a bounded number of
        // *records*, which OS scheduling does not bound for free-running
        // session threads; sizing the window for a deployment is the
        // operator's knob).
        let keys = 16u64;
        let verifier = LiveVerifier::builder(IsolationLevel::Serializability, keys)
            .gc(GcPolicy {
                window: 64,
                every: 16,
                reader_cap: 0,
            })
            .build();
        let mut last = vec![0u64; keys as usize];
        let n = 800u64;
        for i in 0..n {
            let k = (i * 5) % keys;
            let v = 1_000 + i;
            verifier.record_timed(
                (i % 4) as u32,
                vec![Op::read(k, last[k as usize]), Op::write(k, v)],
                TxnStatus::Committed,
                10 * i + 1,
                10 * i + 6,
            );
            last[k as usize] = v;
        }
        assert!(
            verifier.live_txn_count() < n as usize / 2,
            "the GC must have retired most of the stream ({} resident)",
            verifier.live_txn_count()
        );
        let outcome = verifier.finish();
        assert!(outcome.verdict.unwrap().is_satisfied());
        assert_eq!(outcome.checked_txns, n as usize);
    }

    #[test]
    fn faulty_database_is_caught_while_running() {
        let s = spec(7, 4, 150);
        let workload = generate_mt_workload(&s);
        let config = DbConfig::correct(IsolationMode::Snapshot, s.num_keys)
            .with_latency(Duration::from_micros(200), Duration::from_micros(100))
            .with_faults(vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.6)], 7);
        let db = Database::new(config);
        let verifier = LiveVerifier::builder(IsolationLevel::SnapshotIsolation, s.num_keys)
            .stop_on_violation(true)
            .build();
        let (_, _) = run_live(&db, &workload, &ClientOptions::default(), &verifier);
        let outcome = verifier.finish();
        let total = (s.sessions * s.txns_per_session) as usize;
        assert!(
            outcome.verdict.unwrap().is_violated(),
            "the injected lost update must be caught"
        );
        let first = outcome.first_violation.expect("must latch mid-run");
        assert!(
            first.at_txn <= outcome.checked_txns && outcome.checked_txns <= total,
            "stop-on-violation must truncate the run: latched at {} of {}",
            first.at_txn,
            outcome.checked_txns
        );
    }
}
