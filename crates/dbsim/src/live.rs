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
//!
//! The verifier holds no log. A host that makes its stream durable keeps the
//! store beside the verifier under one lock, appends each transaction to it
//! before [`LiveVerifier::record`] and passes the store a snapshot through
//! [`LiveVerifier::checkpoint`] when the store asks for one: the daemon's
//! tenants in `mtc-service`, and `record_streaming` in `mtc-runner`.

use crate::session::{Observer, TxnRecord};
use mtc_core::{
    CheckError, CheckerSnapshot, GcPolicy, IncrementalChecker, IsolationLevel, Verdict, Violation,
};
use mtc_history::{Op, SessionId, Transaction, TxnId, TxnStatus};
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

struct LiveInner {
    checker: IncrementalChecker,
    first_violation: Option<LiveViolation>,
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
}

/// Chained-setter construction of a [`LiveVerifier`] — the one way the
/// daemon (and everything else) builds one: GC policy and resume source are
/// orthogonal knobs, so they compose as setters instead of multiplying
/// constructors.
///
/// ```
/// use mtc_core::{GcPolicy, IsolationLevel};
/// use mtc_dbsim::LiveVerifier;
///
/// let verifier = LiveVerifier::builder(IsolationLevel::Serializability, 16)
///     .stop_on_violation(true)
///     .gc(GcPolicy { window: 64, every: 16 })
///     .build();
/// assert!(!verifier.is_violated());
/// ```
pub struct LiveVerifierBuilder {
    level: IsolationLevel,
    num_keys: u64,
    stop_on_violation: bool,
    gc: Option<GcPolicy>,
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
/// the SSER mode degenerates to SER (see [`LiveVerifier::record`]).
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

    /// The transaction a host logs and then hands to
    /// [`LiveVerifier::record`]; its id is assigned by the checker. It is
    /// timed only if both instants are known.
    pub fn into_transaction(self) -> Transaction {
        let (begin, end) = match (self.begin, self.end) {
            (Some(begin), Some(end)) => (Some(begin), Some(end)),
            _ => (None, None),
        };
        Transaction {
            id: TxnId(0),
            session: SessionId(self.session),
            ops: self.ops,
            status: self.status,
            begin,
            end,
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

    /// True iff a violation has been latched.
    pub fn is_violated(&self) -> bool {
        self.violated.load(Ordering::Relaxed)
    }

    /// True iff sessions should stop issuing transactions.
    pub fn should_stop(&self) -> bool {
        self.stop_on_violation && self.is_violated()
    }

    /// Feeds one finished transaction attempt — after the host has logged
    /// it, if the host keeps a log. Called by the session threads in commit
    /// order (through [`Observer::observe`]), by the daemon's drain with
    /// [`IngestEvent::into_transaction`], and directly when driving
    /// [`crate::Database`] by hand (see `examples/streaming_check.rs`). The
    /// checker assigns the id. In SSER mode the begin and commit instants
    /// feed the online time-chain, so real-time-order violations — including
    /// skewed commit timestamps — latch the moment the offending commit is
    /// recorded; without them the SSER mode degenerates to SER.
    pub fn record(&self, txn: Transaction) {
        let mut inner = self.inner.lock();
        // A latched verdict does not end the stream: the checker counts
        // every record (see `IncrementalChecker::push`), so `checked_txns`
        // stays the number of records admitted.
        if inner.checker.push(txn).is_err() {
            // Domain errors latch inside the checker; surfaced by finish().
            self.violated.store(true, Ordering::Relaxed);
        }
        self.note_latch(&mut inner);
    }

    /// A snapshot of the checker as it stands, for a host's checkpoint.
    pub fn checkpoint(&self) -> CheckerSnapshot {
        self.inner.lock().checker.checkpoint()
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

    /// A snapshot of the currently latched violation, if any: a recorded
    /// transaction is checked by the time `record` returns.
    pub fn violation(&self) -> Option<Violation> {
        self.inner.lock().checker.violation().cloned()
    }

    /// Ends the stream and returns the final outcome.
    pub fn finish(self) -> LiveOutcome {
        let inner = self.inner.into_inner();
        let checked = inner.consumed();
        LiveOutcome {
            verdict: inner.checker.finish(),
            first_violation: inner.first_violation,
            checked_txns: checked,
        }
    }
}

impl Observer<Op> for LiveVerifier {
    fn should_stop(&self) -> bool {
        LiveVerifier::should_stop(self)
    }

    fn observe(&self, record: &TxnRecord<Op>) {
        self.record(record.to_transaction());
    }

    /// Restarts the time-to-first-violation clock, so that verifier
    /// construction and other setup do not count towards
    /// [`LiveViolation::elapsed`].
    fn mark_started(&self) {
        self.inner.lock().started = Instant::now();
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
            })
            .build();
        let mut last = vec![0u64; keys as usize];
        let n = 800u64;
        for i in 0..n {
            let k = (i * 5) % keys;
            let v = 1_000 + i;
            let ops = vec![Op::read(k, last[k as usize]), Op::write(k, v)];
            let event = IngestEvent::timed(
                (i % 4) as u32,
                ops,
                TxnStatus::Committed,
                10 * i + 1,
                10 * i + 6,
            );
            verifier.record(event.into_transaction());
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
