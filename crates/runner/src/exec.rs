//! Executing workloads and verifying the collected histories.
//!
//! This module glues the pipeline together: `mtc-workload` templates are
//! executed against an `mtc-dbsim` instance, the resulting history is checked
//! by MTC or by one of the baselines, and both stages are timed. Memory is
//! reported as a structural estimate (bytes of history + bytes of the
//! checker's graph/constraint encoding), which is the quantity the paper's
//! memory plots track qualitatively.

use mtc_baselines::cobra::{cobra_check_ser, BaselineOutcome};
use mtc_baselines::elle::{elle_check_rw_register, ElleLevel, ListHistory, ListOp, ListTxn};
use mtc_baselines::polysi::polysi_check_si;
use mtc_core::{build_dependency, check_batch, BatchCheck, IncrementalChecker, IsolationLevel};
use mtc_dbsim::{
    run_sessions, AbortReason, ClientOptions, DbBackend, DbTxn, Driver, ExecutionOptions,
    ExecutionReport, LiveVerifier, Session,
};
use mtc_history::{History, SessionId, TxnStatus, ValueAllocator};
use mtc_workload::{ElleOpTemplate, ElleWorkload, ReqOp, SessionWorkload, TxnTemplate, Workload};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The checkers the harness can run on a register history.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Checker {
    /// MTC's linear-time serializability verifier.
    MtcSer,
    /// MTC's linear-time snapshot-isolation verifier.
    MtcSi,
    /// MTC's strict-serializability verifier (time-chain encoding).
    MtcSser,
    /// MTC's strict-serializability verifier with materialized RT edges.
    MtcSserNaive,
    /// Streaming serializability verifier (incremental topological order,
    /// transaction-by-transaction).
    MtcSerIncremental,
    /// Streaming snapshot-isolation verifier.
    MtcSiIncremental,
    /// Streaming strict-serializability verifier (online time-chain,
    /// transaction-by-transaction).
    MtcSserIncremental,
    /// Cobra-style serializability baseline (polygraph + constraint search).
    CobraSer,
    /// PolySI-style snapshot-isolation baseline.
    PolySiSi,
    /// Elle-style read-write-register serializability check.
    ElleRwSer,
    /// Elle-style read-write-register snapshot-isolation check.
    ElleRwSi,
}

impl Checker {
    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            Checker::MtcSer => "MTC-SER",
            Checker::MtcSi => "MTC-SI",
            Checker::MtcSser => "MTC-SSER",
            Checker::MtcSserNaive => "MTC-SSER-naive",
            Checker::MtcSerIncremental => "MTC-SER-inc",
            Checker::MtcSiIncremental => "MTC-SI-inc",
            Checker::MtcSserIncremental => "MTC-SSER-inc",
            Checker::CobraSer => "Cobra",
            Checker::PolySiSi => "PolySI",
            Checker::ElleRwSer => "Elle-wr(SER)",
            Checker::ElleRwSi => "Elle-wr(SI)",
        }
    }
}

/// Result of running one checker on one history.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct VerifyOutcome {
    /// Which checker ran.
    pub checker: Checker,
    /// True iff a violation of the target isolation level was reported.
    pub violated: bool,
    /// Verification wall-clock time.
    pub duration: Duration,
    /// Structural memory estimate of the checker's working set, in bytes.
    pub memory_bytes: usize,
    /// Free-form detail (counterexample summary or solver statistics).
    pub detail: String,
}

/// Approximate number of bytes needed to hold a history in memory.
pub fn history_memory_bytes(history: &History) -> usize {
    // Transaction header + per-operation payload; matches the in-memory
    // layout closely enough for trend comparisons.
    history.len() * 96 + history.op_count() * 24
}

fn baseline_memory(stats: &mtc_baselines::cobra::SolverStats) -> usize {
    stats.txns * 96 + stats.known_edges * 24 + stats.constraints * 96
}

/// Runs `checker` on `history`, timing it.
pub fn verify(checker: Checker, history: &History) -> VerifyOutcome {
    let start = Instant::now();
    let (violated, memory, detail) = match checker {
        Checker::MtcSerIncremental => verify_streaming(IsolationLevel::Serializability, history),
        Checker::MtcSiIncremental => verify_streaming(IsolationLevel::SnapshotIsolation, history),
        Checker::MtcSserIncremental => {
            verify_streaming(IsolationLevel::StrictSerializability, history)
        }
        Checker::MtcSer => verify_batch(BatchCheck::Ser, history),
        Checker::MtcSi => verify_batch(BatchCheck::Si, history),
        Checker::MtcSser => verify_batch(BatchCheck::Sser, history),
        Checker::MtcSserNaive => verify_batch(BatchCheck::SserNaive, history),
        Checker::CobraSer => summarize_baseline(history, &cobra_check_ser(history)),
        Checker::PolySiSi => summarize_baseline(history, &polysi_check_si(history)),
        Checker::ElleRwSer => summarize_baseline(
            history,
            &elle_check_rw_register(history, ElleLevel::Serializability),
        ),
        Checker::ElleRwSi => summarize_baseline(
            history,
            &elle_check_rw_register(history, ElleLevel::SnapshotIsolation),
        ),
    };
    VerifyOutcome {
        checker,
        violated,
        duration: start.elapsed(),
        memory_bytes: memory,
        detail,
    }
}

/// Runs one batch verifier and summarizes the outcome. The memory estimate
/// counts the dependency graph the check itself built; only a check that
/// left before building one (intra-transactional anomalies, DIVERGENCE) has
/// the graph built here, for the estimate alone.
fn verify_batch(check: BatchCheck, history: &History) -> (bool, usize, String) {
    match check_batch(check, history) {
        Ok(checked) => {
            let edges = checked.dep_edges.unwrap_or_else(|| {
                build_dependency(history, false)
                    .map(|g| g.edge_count())
                    .unwrap_or(0)
            });
            let mem = history_memory_bytes(history) + edges * 24;
            let detail = match checked.verdict.violation() {
                Some(v) => format!("{v}"),
                None => "ok".to_string(),
            };
            (checked.verdict.is_violated(), mem, detail)
        }
        Err(e) => (
            false,
            history_memory_bytes(history),
            format!("checker not applicable: {e}"),
        ),
    }
}

/// Feeds `history` into the streaming checker, one transaction at a time,
/// and summarizes the outcome, including how early the violation latched.
fn verify_streaming(level: IsolationLevel, history: &History) -> (bool, usize, String) {
    let mut checker = IncrementalChecker::new(level);
    let _ = checker.push_history(history);
    let first = checker.first_violation_at();
    let edges = checker.edge_count();
    let total = checker.txn_count();
    let mem = history_memory_bytes(history) + edges * 24;
    match checker.finish() {
        Ok(verdict) => {
            let detail = match (verdict.violation(), first) {
                (Some(v), Some(at)) => {
                    format!("first violation at txn {}/{}: {v}", at.index(), total)
                }
                (Some(v), None) => format!("settled at finish: {v}"),
                (None, _) => "ok".to_string(),
            };
            (verdict.is_violated(), mem, detail)
        }
        Err(e) => (false, mem, format!("checker not applicable: {e}")),
    }
}

fn summarize_baseline(history: &History, out: &BaselineOutcome) -> (bool, usize, String) {
    let mem = history_memory_bytes(history) + baseline_memory(&out.stats);
    let detail = format!(
        "constraints={} pruned={} decisions={}{}",
        out.stats.constraints,
        out.stats.pruned,
        out.stats.decisions,
        if out.timed_out { " TIMEOUT" } else { "" }
    );
    (!out.satisfied, mem, detail)
}

/// Executes a register workload against `db` — any [`DbBackend`]. The
/// backend should be freshly built for the run: histories assume the `⊥T`
/// initial state and unique written values, which a reused instance would
/// not provide.
pub fn run_register_workload(
    db: &dyn DbBackend,
    workload: &Workload,
    opts: &ClientOptions,
) -> (History, ExecutionReport) {
    ExecutionOptions::threaded().client(*opts).run(db, workload)
}

/// A complete end-to-end measurement: generation plus verification.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EndToEnd {
    /// History-generation wall-clock time.
    pub generation: Duration,
    /// Verification wall-clock time.
    pub verification: Duration,
    /// Committed transactions in the history (excluding `⊥T`).
    pub committed: usize,
    /// Abort rate observed during generation.
    pub abort_rate: f64,
    /// Whether the checker reported a violation.
    pub violated: bool,
    /// Structural memory estimate of the verification stage.
    pub memory_bytes: usize,
}

impl EndToEnd {
    /// Total end-to-end time.
    pub fn total(&self) -> Duration {
        self.generation + self.verification
    }
}

/// Runs the full pipeline: execute `workload` on `db` (a fresh backend),
/// then verify the collected history with `checker`.
pub fn end_to_end(
    db: &dyn DbBackend,
    workload: &Workload,
    opts: &ClientOptions,
    checker: Checker,
) -> EndToEnd {
    let (history, report) = run_register_workload(db, workload, opts);
    let outcome = verify(checker, &history);
    EndToEnd {
        generation: report.wall_time,
        verification: outcome.duration,
        committed: report.committed,
        abort_rate: report.abort_rate(),
        violated: outcome.violated,
        memory_bytes: outcome.memory_bytes,
    }
}

/// Result of a streaming (live-verified) end-to-end run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamingEndToEnd {
    /// Wall-clock duration of the (possibly truncated) run.
    pub wall_time: Duration,
    /// Committed transactions executed before the run ended.
    pub committed: usize,
    /// Abort rate observed during the run.
    pub abort_rate: f64,
    /// Whether a violation was latched (live or at settlement).
    pub violated: bool,
    /// Transactions the verifier consumed when the violation latched, if it
    /// latched mid-run.
    pub first_violation_txn: Option<usize>,
    /// Wall-clock time from workload start to the first latched violation —
    /// the headline "time-to-first-violation" metric.
    pub time_to_first_violation: Option<Duration>,
    /// Counterexample / settlement detail.
    pub detail: String,
}

/// Runs a register workload with *live* verification: the streaming checker
/// consumes transactions as they commit, concurrently with execution. With
/// `stop_on_violation`, sessions cease issuing transactions once a violation
/// is latched, so the run's cost is proportional to the time-to-first-
/// violation rather than to the workload size.
pub fn end_to_end_streaming(
    db: &dyn DbBackend,
    workload: &Workload,
    opts: &ClientOptions,
    level: IsolationLevel,
    stop_on_violation: bool,
) -> StreamingEndToEnd {
    let verifier = LiveVerifier::builder(level, workload.num_keys)
        .stop_on_violation(stop_on_violation)
        .build();
    let (_history, report) = ExecutionOptions::threaded()
        .client(*opts)
        .verifier(&verifier)
        .run(db, workload);
    let outcome = verifier.finish();
    let (violated, detail) = match &outcome.verdict {
        Ok(verdict) => (
            verdict.is_violated(),
            verdict
                .violation()
                .map(|v| v.to_string())
                .unwrap_or_else(|| "ok".to_string()),
        ),
        Err(e) => (false, format!("checker not applicable: {e}")),
    };
    StreamingEndToEnd {
        wall_time: report.wall_time,
        committed: report.committed,
        abort_rate: report.abort_rate(),
        violated,
        first_violation_txn: outcome.first_violation.as_ref().map(|f| f.at_txn),
        time_to_first_violation: outcome.first_violation.as_ref().map(|f| f.elapsed),
        detail,
    }
}

/// Issues one list-append template operation (register templates do not
/// belong in an append execution and are skipped) — the
/// [`mtc_dbsim::IssueOp`] of list-append workloads.
fn issue_list_op(
    handle: &mut dyn DbTxn,
    op: &ElleOpTemplate,
    values: &mut ValueAllocator,
    ops: &mut Vec<ListOp>,
) -> Result<(), AbortReason> {
    match *op {
        ElleOpTemplate::Append(key) => {
            let element = values.next();
            handle.append(key, element)?;
            ops.push(ListOp::Append { key, element });
        }
        ElleOpTemplate::ReadList(key) => {
            let elements = handle.read_list(key)?;
            ops.push(ListOp::Read { key, elements });
        }
        ElleOpTemplate::WriteRegister(_) | ElleOpTemplate::ReadRegister(_) => {}
    }
    Ok(())
}

/// Executes an Elle list-append workload against `db` (a fresh backend) on
/// the threaded driver, returning the committed list history and the
/// execution report.
pub fn run_elle_append_workload(
    db: &dyn DbBackend,
    workload: &ElleWorkload,
    opts: &ClientOptions,
) -> (ListHistory, ExecutionReport) {
    let sessions = workload
        .sessions
        .iter()
        .enumerate()
        .map(|(sid, templates)| {
            let templates = templates.iter().map(|t| t.ops.as_slice()).collect();
            Session::new(db, opts, None, sid as u32, templates, issue_list_op)
        })
        .collect();
    let (records, report) = run_sessions(Driver::Threaded, sessions);
    let txns = records
        .into_iter()
        .flatten()
        .filter(|r| r.status == TxnStatus::Committed)
        .map(|r| ListTxn {
            session: SessionId(r.session),
            ops: r.ops,
        })
        .collect();
    (ListHistory { txns }, report)
}

/// Executes an Elle read-write-register workload (blind writes permitted)
/// against `db` (a fresh backend), returning the collected register history:
/// the templates' register operations become a [`Workload`] for the threaded
/// driver (list templates do not belong in a register execution and are
/// dropped).
pub fn run_elle_register_workload(
    db: &dyn DbBackend,
    workload: &ElleWorkload,
    opts: &ClientOptions,
) -> (History, ExecutionReport) {
    let to_req = |op: &ElleOpTemplate| match *op {
        ElleOpTemplate::WriteRegister(key) => Some(ReqOp::Write(key)),
        ElleOpTemplate::ReadRegister(key) => Some(ReqOp::Read(key)),
        ElleOpTemplate::Append(_) | ElleOpTemplate::ReadList(_) => None,
    };
    let sessions = workload
        .sessions
        .iter()
        .enumerate()
        .map(|(sid, templates)| SessionWorkload {
            session: sid as u32,
            txns: templates
                .iter()
                .map(|t| TxnTemplate {
                    ops: t.ops.iter().filter_map(to_req).collect(),
                })
                .collect(),
        })
        .collect();
    let registers = Workload {
        sessions,
        num_keys: workload.num_keys,
    };
    run_register_workload(db, &registers, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_dbsim::{Database, DbConfig, IsolationMode};
    use mtc_workload::{
        generate_elle_workload, generate_mt_workload, Distribution, ElleWorkloadKind,
        ElleWorkloadSpec, MtWorkloadSpec,
    };

    fn small_mt_spec() -> MtWorkloadSpec {
        MtWorkloadSpec {
            sessions: 3,
            txns_per_session: 40,
            num_keys: 12,
            distribution: Distribution::Uniform,
            read_only_fraction: 0.2,
            two_key_fraction: 0.5,
            seed: 17,
        }
    }

    #[test]
    fn correct_serializable_database_passes_all_checkers() {
        let workload = generate_mt_workload(&small_mt_spec());
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 12));
        let (history, report) = run_register_workload(&db, &workload, &ClientOptions::default());
        assert!(report.committed > 0);
        for checker in [
            Checker::MtcSer,
            Checker::MtcSi,
            Checker::MtcSser,
            Checker::CobraSer,
            Checker::PolySiSi,
        ] {
            let out = verify(checker, &history);
            assert!(
                !out.violated,
                "{} reported a spurious violation: {}",
                checker.label(),
                out.detail
            );
            assert!(out.memory_bytes > 0);
        }
    }

    #[test]
    fn snapshot_database_passes_si_and_may_fail_ser() {
        let workload = generate_mt_workload(&MtWorkloadSpec {
            num_keys: 4,
            txns_per_session: 60,
            ..small_mt_spec()
        });
        let db = Database::new(DbConfig::correct(IsolationMode::Snapshot, 4));
        let (history, _) = run_register_workload(&db, &workload, &ClientOptions::default());
        let si = verify(Checker::MtcSi, &history);
        assert!(
            !si.violated,
            "SI store must produce SI histories: {}",
            si.detail
        );
    }

    #[test]
    fn end_to_end_produces_consistent_totals() {
        let workload = generate_mt_workload(&small_mt_spec());
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 12));
        let e2e = end_to_end(&db, &workload, &ClientOptions::default(), Checker::MtcSer);
        assert!(!e2e.violated);
        assert!(e2e.total() >= e2e.generation);
        assert!(e2e.committed > 0);
        assert!(e2e.abort_rate >= 0.0 && e2e.abort_rate <= 1.0);
    }

    #[test]
    fn elle_append_workload_executes_and_checks_clean() {
        use mtc_baselines::elle::{elle_check_list_append, ElleLevel};
        let spec = ElleWorkloadSpec {
            sessions: 3,
            txns_per_session: 30,
            max_txn_len: 4,
            num_keys: 5,
            ..ElleWorkloadSpec::default()
        };
        let workload = generate_elle_workload(&spec);
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 0));
        let (history, report) = run_elle_append_workload(&db, &workload, &ClientOptions::default());
        assert!(report.committed > 0);
        assert!(!history.is_empty());
        let out = elle_check_list_append(&history, ElleLevel::Serializability);
        assert!(out.satisfied, "unexpected anomalies: {:?}", out.anomalies);
    }

    #[test]
    fn elle_register_workload_executes_and_checks_clean() {
        let spec = ElleWorkloadSpec {
            kind: ElleWorkloadKind::ReadWriteRegister,
            sessions: 3,
            txns_per_session: 25,
            max_txn_len: 4,
            num_keys: 6,
            ..ElleWorkloadSpec::default()
        };
        let workload = generate_elle_workload(&spec);
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 6));
        let (history, report) =
            run_elle_register_workload(&db, &workload, &ClientOptions::default());
        assert!(report.committed > 0);
        let out = verify(Checker::ElleRwSer, &history);
        assert!(!out.violated, "{}", out.detail);
    }

    /// A backend whose commits always fail with a configurable reason —
    /// the instrument for pinning the retry budget exactly.
    struct AlwaysAbort {
        clock: std::sync::atomic::AtomicU64,
        attempts: std::sync::atomic::AtomicU64,
        reason: AbortReason,
    }

    impl AlwaysAbort {
        fn new(reason: AbortReason) -> Self {
            AlwaysAbort {
                clock: std::sync::atomic::AtomicU64::new(1),
                attempts: std::sync::atomic::AtomicU64::new(0),
                reason,
            }
        }

        fn attempts(&self) -> u64 {
            self.attempts.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    struct AlwaysAbortTxn<'a> {
        db: &'a AlwaysAbort,
        begin: u64,
    }

    impl DbTxn for AlwaysAbortTxn<'_> {
        fn begin_ts(&self) -> u64 {
            self.begin
        }
        fn read_register(
            &mut self,
            _key: mtc_history::Key,
        ) -> Result<mtc_history::Value, AbortReason> {
            Ok(mtc_history::INIT_VALUE)
        }
        fn write_register(
            &mut self,
            _key: mtc_history::Key,
            _value: mtc_history::Value,
        ) -> Result<(), AbortReason> {
            Ok(())
        }
        fn read_list(
            &mut self,
            _key: mtc_history::Key,
        ) -> Result<Vec<mtc_history::Value>, AbortReason> {
            Ok(Vec::new())
        }
        fn append(
            &mut self,
            _key: mtc_history::Key,
            _element: mtc_history::Value,
        ) -> Result<(), AbortReason> {
            Ok(())
        }
        fn commit(self: Box<Self>) -> Result<mtc_dbsim::CommitInfo, AbortReason> {
            Err(self.db.reason)
        }
        fn abort(self: Box<Self>) -> AbortReason {
            self.db.reason
        }
    }

    impl DbBackend for AlwaysAbort {
        fn begin(&self) -> Box<dyn DbTxn + '_> {
            self.attempts
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            let begin = self.clock.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Box::new(AlwaysAbortTxn { db: self, begin })
        }
        fn now(&self) -> u64 {
            self.clock.load(std::sync::atomic::Ordering::SeqCst)
        }
        fn label(&self) -> &'static str {
            "always-abort"
        }
        fn promises(&self, _level: mtc_core::IsolationLevel) -> bool {
            false
        }
    }

    /// Executes a fixed workload, returning how many transactions were
    /// recorded (without `⊥T`) and the report.
    type Runner = Box<dyn Fn(&AlwaysAbort, &ClientOptions) -> (usize, ExecutionReport)>;

    /// Every way this workspace executes a workload — the two drivers on
    /// a register workload and both Elle runners — each over one session of
    /// `templates` templates.
    fn every_runner(templates: u32) -> Vec<(&'static str, Runner)> {
        let registers = generate_mt_workload(&MtWorkloadSpec {
            sessions: 1,
            txns_per_session: templates,
            ..small_mt_spec()
        });
        let elle = |kind| {
            generate_elle_workload(&ElleWorkloadSpec {
                kind,
                sessions: 1,
                txns_per_session: templates,
                ..ElleWorkloadSpec::default()
            })
        };
        let (appends, wr) = (
            elle(ElleWorkloadKind::ListAppend),
            elle(ElleWorkloadKind::ReadWriteRegister),
        );
        let driver = |driver: Driver| {
            let workload = registers.clone();
            move |db: &AlwaysAbort, opts: &ClientOptions| {
                let (history, report) = ExecutionOptions::new()
                    .driver(driver)
                    .client(*opts)
                    .run(db, &workload);
                (history.len() - 1, report)
            }
        };
        vec![
            ("threaded", Box::new(driver(Driver::Threaded))),
            (
                "interleaved",
                Box::new(driver(Driver::Interleaved { schedule_seed: 9 })),
            ),
            (
                "elle-append",
                Box::new(move |db, opts| {
                    let (history, report) = run_elle_append_workload(db, &appends, opts);
                    (history.len(), report)
                }),
            ),
            (
                "elle-register",
                Box::new(move |db, opts| {
                    let (history, report) = run_elle_register_workload(db, &wr, opts);
                    (history.len() - 1, report)
                }),
            ),
        ]
    }

    /// Pins the retry budget: `max_retries = N` means exactly `N + 1`
    /// attempts per template, identically on every driver and Elle runner.
    #[test]
    fn max_retries_counts_retries_not_attempts() {
        for (name, run) in every_runner(3) {
            for max_retries in [0u32, 1, 3] {
                let opts = ClientOptions {
                    max_retries,
                    record_aborted: true,
                };
                let expected = 3 * (max_retries as usize + 1);
                let db = AlwaysAbort::new(AbortReason::WriteConflict);
                let (_, report) = run(&db, &opts);
                let case = format!("{name}, max_retries={max_retries}");
                assert_eq!(db.attempts(), expected as u64, "{case}");
                assert_eq!(report.attempts, expected, "{case}");
                assert_eq!(report.aborted_attempts, expected, "{case}");
                assert_eq!(report.failed, 3, "{case}");
                assert_eq!(report.committed, 0, "{case}");
            }
        }
    }

    /// Non-retryable reasons are final after one attempt, and an ambiguous
    /// remote commit (`CommitStatusUnknown`) is additionally kept out of
    /// the collected history even with `record_aborted` on.
    #[test]
    fn final_abort_reasons_stop_after_one_attempt() {
        let opts = ClientOptions {
            max_retries: 5,
            record_aborted: true,
        };
        for (name, run) in every_runner(2) {
            for reason in [AbortReason::InjectedAbort, AbortReason::CommitStatusUnknown] {
                let db = AlwaysAbort::new(reason);
                let (recorded, report) = run(&db, &opts);
                let case = format!("{name}, {reason:?}");
                assert_eq!(db.attempts(), 2, "{case}: one attempt per template");
                assert_eq!(report.failed, 2, "{case}");
                if reason == AbortReason::CommitStatusUnknown {
                    assert_eq!(
                        recorded, 0,
                        "{case}: ambiguous commits must not be recorded as aborted"
                    );
                }
            }
        }
    }

    #[test]
    fn checker_labels_are_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<&str> = [
            Checker::MtcSer,
            Checker::MtcSi,
            Checker::MtcSser,
            Checker::MtcSserNaive,
            Checker::MtcSerIncremental,
            Checker::MtcSiIncremental,
            Checker::MtcSserIncremental,
            Checker::CobraSer,
            Checker::PolySiSi,
            Checker::ElleRwSer,
            Checker::ElleRwSi,
        ]
        .iter()
        .map(|c| c.label())
        .collect();
        assert_eq!(labels.len(), 11);
    }

    #[test]
    fn incremental_checkers_agree_with_batch_on_collected_histories() {
        let workload = generate_mt_workload(&small_mt_spec());
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 12));
        let (history, _) = run_register_workload(&db, &workload, &ClientOptions::default());
        for (batch, streaming) in [
            (Checker::MtcSer, Checker::MtcSerIncremental),
            (Checker::MtcSi, Checker::MtcSiIncremental),
            (Checker::MtcSser, Checker::MtcSserIncremental),
        ] {
            let a = verify(batch, &history);
            let b = verify(streaming, &history);
            assert_eq!(
                a.violated,
                b.violated,
                "{} and {} disagree: {} vs {}",
                batch.label(),
                streaming.label(),
                a.detail,
                b.detail
            );
        }
    }

    #[test]
    fn streaming_end_to_end_reports_time_to_first_violation() {
        use mtc_dbsim::{FaultKind, FaultSpec};
        let workload = generate_mt_workload(&MtWorkloadSpec {
            num_keys: 4,
            txns_per_session: 120,
            ..small_mt_spec()
        });
        let config = DbConfig::correct(IsolationMode::Snapshot, 4)
            .with_latency(
                std::time::Duration::from_micros(200),
                std::time::Duration::from_micros(100),
            )
            .with_faults(
                vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.6)],
                11,
            );
        let out = end_to_end_streaming(
            &Database::new(config),
            &workload,
            &ClientOptions::default(),
            IsolationLevel::SnapshotIsolation,
            true,
        );
        assert!(
            out.violated,
            "fault injection must be caught: {}",
            out.detail
        );
        let first = out.first_violation_txn.expect("latched mid-run");
        assert!(first <= out.committed + workload.txn_count());
        assert!(out.time_to_first_violation.unwrap() <= out.wall_time);
    }

    #[test]
    fn streaming_end_to_end_sser_catches_commit_timestamp_skew() {
        use mtc_dbsim::{FaultKind, FaultSpec};
        let workload = generate_mt_workload(&MtWorkloadSpec {
            num_keys: 4,
            txns_per_session: 150,
            ..small_mt_spec()
        });
        let config = DbConfig::correct(IsolationMode::Serializable, 4)
            .with_latency(
                std::time::Duration::from_micros(200),
                std::time::Duration::from_micros(100),
            )
            .with_faults(
                vec![FaultSpec::new(FaultKind::CommitTimestampSkew, 0.4)],
                13,
            );
        let out = end_to_end_streaming(
            &Database::new(config),
            &workload,
            &ClientOptions::default(),
            IsolationLevel::StrictSerializability,
            true,
        );
        assert!(
            out.violated,
            "skewed commits must violate SSER: {}",
            out.detail
        );
        let ttfv = out.time_to_first_violation.expect("latched mid-run");
        assert!(ttfv <= out.wall_time);
    }

    #[test]
    fn streaming_end_to_end_clean_run_is_satisfied() {
        let workload = generate_mt_workload(&small_mt_spec());
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 12));
        let out = end_to_end_streaming(
            &db,
            &workload,
            &ClientOptions::default(),
            IsolationLevel::Serializability,
            true,
        );
        assert!(!out.violated, "{}", out.detail);
        assert!(out.first_violation_txn.is_none());
        assert!(out.committed > 0);
    }
}
