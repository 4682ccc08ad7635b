//! The execution API: one entry point for every client driver.
//!
//! Choose a [`Driver`], set the client policy, optionally attach a
//! [`LiveVerifier`](crate::LiveVerifier) (or any other [`Observer`]) — on
//! *any* driver — and call [`ExecutionOptions::run`].
//! Every driver schedules the same per-session state machine
//! ([`crate::session`]), so retry, recording and verification behave the
//! same under both; they differ only in *who steps a session when*.
//! [`run_sessions`] is that scheduling step on its own, generic over the
//! operation types, for workloads that are not register workloads (the Elle
//! list-append runner in `mtc-runner`).
//!
//! ```
//! use mtc_dbsim::{Database, DbConfig, ExecutionOptions, IsolationMode};
//! use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
//!
//! let spec = MtWorkloadSpec {
//!     sessions: 2,
//!     txns_per_session: 10,
//!     num_keys: 8,
//!     distribution: Distribution::Uniform,
//!     read_only_fraction: 0.2,
//!     two_key_fraction: 0.5,
//!     seed: 1,
//! };
//! let workload = generate_mt_workload(&spec);
//! let db = Database::new(DbConfig::correct(IsolationMode::Serializable, spec.num_keys));
//! let (history, report) = ExecutionOptions::threaded().run(&db, &workload);
//! assert_eq!(report.committed + report.failed, workload.txn_count());
//! assert!(history.has_init());
//! ```
//!
//! The one driver caveat is enforced by nothing but the operator's judgement:
//! [`Driver::Interleaved`] must only drive non-blocking backends (see
//! [`crate::BackendSpec::blocking`]).

use crate::backend::DbBackend;
use crate::client::{
    drive_interleaved, drive_threaded, ClientOptions, ExecutionReport, RegisterOps,
};
use crate::session::{IssueOp, Observer, Session, TxnRecord};
use mtc_history::{History, HistoryBuilder, Op};
use mtc_workload::Workload;
use std::time::Instant;

/// Which client driver carries the sessions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Driver {
    /// One OS thread per session — the default. Works with every backend,
    /// including blocking ones (2PL lock waits park only their own thread).
    #[default]
    Threaded,
    /// All sessions on one thread, interleaved operation-by-operation from
    /// a seeded schedule: fully deterministic, the conformance suite's tool
    /// for reproducible anomalies. **Non-blocking backends only** — a 2PL
    /// "older waits" path would wait forever for a holder parked on the
    /// same thread.
    Interleaved {
        /// Seed of the interleaving schedule.
        schedule_seed: u64,
    },
}

/// Options of the unified driver entry point — see the [module docs](self)
/// for the full tour.
///
/// The lifetime `'v` is the borrow of the attached verifier; options without
/// one are `ExecutionOptions<'static>`.
#[derive(Clone, Copy, Default)]
pub struct ExecutionOptions<'v> {
    /// The driver carrying the sessions.
    pub driver: Driver,
    /// Retry/recording policy, shared by every driver.
    pub client: ClientOptions,
    /// Optional streaming verifier fed every finished attempt in commit
    /// order (the order attempts settle under the chosen driver). With a
    /// [`LiveVerifier`](crate::LiveVerifier) built `stop_on_violation`, a
    /// latched violation stops sessions from starting further templates on
    /// any driver.
    pub verifier: Option<&'v dyn Observer<Op>>,
}

impl std::fmt::Debug for ExecutionOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecutionOptions")
            .field("driver", &self.driver)
            .field("client", &self.client)
            .field("verifier", &self.verifier.is_some())
            .finish()
    }
}

impl ExecutionOptions<'static> {
    /// Defaults: [`Driver::Threaded`], default [`ClientOptions`], no
    /// verifier.
    pub fn new() -> Self {
        ExecutionOptions::default()
    }

    /// The threaded driver (one OS thread per session).
    pub fn threaded() -> Self {
        ExecutionOptions::new()
    }

    /// The deterministic interleaved driver with `schedule_seed`.
    pub fn interleaved(schedule_seed: u64) -> Self {
        ExecutionOptions::new().driver(Driver::Interleaved { schedule_seed })
    }
}

impl<'v> ExecutionOptions<'v> {
    /// Replaces the driver.
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// Replaces the whole client policy.
    pub fn client(mut self, client: ClientOptions) -> Self {
        self.client = client;
        self
    }

    /// Attaches a streaming verifier — a
    /// [`LiveVerifier`](crate::LiveVerifier), or a host's observer around
    /// one — for the duration of the run.
    pub fn verifier(self, verifier: &dyn Observer<Op>) -> ExecutionOptions<'_> {
        ExecutionOptions {
            driver: self.driver,
            client: self.client,
            verifier: Some(verifier),
        }
    }

    /// Executes `workload` against `db` under the configured driver and
    /// returns the collected history plus execution statistics. If a
    /// verifier is attached, it is told the run starts
    /// ([`Observer::mark_started`]) and every finished attempt is recorded;
    /// call [`LiveVerifier::finish`](crate::LiveVerifier::finish) afterwards
    /// for the verification outcome.
    pub fn run(&self, db: &dyn DbBackend, workload: &Workload) -> (History, ExecutionReport) {
        if let Some(v) = self.verifier {
            v.mark_started();
        }
        let sessions = workload
            .sessions
            .iter()
            .map(|s| {
                let templates = s.txns.iter().map(|t| t.ops.as_slice()).collect();
                Session::new(
                    db,
                    &self.client,
                    self.verifier,
                    s.session,
                    templates,
                    RegisterOps,
                )
            })
            .collect();
        let (records, report) = run_sessions(self.driver, sessions);
        let mut builder = HistoryBuilder::new().with_init(workload.num_keys);
        for r in records.into_iter().flatten() {
            builder.push_timed(r.session, r.ops, r.status, r.begin, r.end);
        }
        (builder.build(), report)
    }
}

/// Steps every session to completion under `driver` and returns what each
/// recorded, in the order the sessions were given, with their counters
/// summed and the scheduling wall time.
pub fn run_sessions<'a, T: Sync, R: Send, F: IssueOp<T, R>>(
    driver: Driver,
    sessions: Vec<Session<'a, T, R, F>>,
) -> (Vec<Vec<TxnRecord<R>>>, ExecutionReport) {
    let start = Instant::now();
    let sessions = match driver {
        Driver::Threaded => drive_threaded(sessions),
        Driver::Interleaved { schedule_seed } => drive_interleaved(sessions, schedule_seed),
    };
    let mut report = ExecutionReport {
        wall_time: start.elapsed(),
        ..ExecutionReport::default()
    };
    let mut records = Vec::with_capacity(sessions.len());
    for s in sessions {
        let (session_records, stats) = s.finish();
        report.committed += stats.committed;
        report.failed += stats.failed;
        report.attempts += stats.attempts;
        report.aborted_attempts += stats.aborted_attempts;
        records.push(session_records);
    }
    (records, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::BackendSpec;
    use crate::config::{DbConfig, IsolationMode};
    use crate::db::Database;
    use crate::faults::{FaultKind, FaultSpec};
    use crate::live::LiveVerifier;
    use mtc_core::IsolationLevel;
    use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};

    fn spec(sessions: u32, txns: u32, keys: u64, seed: u64) -> MtWorkloadSpec {
        MtWorkloadSpec {
            sessions,
            txns_per_session: txns,
            num_keys: keys,
            distribution: Distribution::Uniform,
            read_only_fraction: 0.2,
            two_key_fraction: 0.5,
            seed,
        }
    }

    /// Every driver satisfies the same accounting invariants on the same
    /// workload; blocking engines skip the driver documented as unsuited.
    #[test]
    fn all_drivers_agree_on_invariants_across_the_fleet() {
        let s = spec(4, 12, 8, 31);
        let workload = generate_mt_workload(&s);
        for backend_spec in BackendSpec::fleet(s.num_keys) {
            let drivers: &[Driver] = if backend_spec.blocking() {
                &[Driver::Threaded]
            } else {
                &[Driver::Threaded, Driver::Interleaved { schedule_seed: 7 }]
            };
            for &driver in drivers {
                let db = backend_spec.build();
                let (history, report) = ExecutionOptions::new().driver(driver).run(&*db, &workload);
                assert!(
                    report.committed > 0,
                    "{} / {driver:?}: nothing committed",
                    backend_spec.label()
                );
                assert_eq!(report.committed + report.failed, workload.txn_count());
                assert_eq!(report.attempts, report.committed + report.aborted_attempts);
                assert_eq!(history.committed_count(), report.committed + 1); // + ⊥T
                assert!(history.has_unique_values());
            }
        }
    }

    /// A verifier attaches to *any* driver and reaches the same verdict the
    /// batch checker reaches over the collected history.
    #[test]
    fn verifier_rides_every_driver() {
        let s = spec(3, 20, 8, 17);
        let workload = generate_mt_workload(&s);
        for driver in [Driver::Threaded, Driver::Interleaved { schedule_seed: 5 }] {
            let db = Database::new(DbConfig::correct(IsolationMode::Serializable, s.num_keys));
            let verifier =
                LiveVerifier::builder(IsolationLevel::Serializability, s.num_keys).build();
            let (history, _) = ExecutionOptions::new()
                .driver(driver)
                .verifier(&verifier)
                .run(&db, &workload);
            let outcome = verifier.finish();
            assert!(
                outcome.verdict.unwrap().is_satisfied(),
                "{driver:?}: clean run must verify clean"
            );
            assert_eq!(
                outcome.checked_txns,
                history.len() - 1,
                "{driver:?}: the verifier must consume every recorded transaction"
            );
            let batch = mtc_core::check_streaming(IsolationLevel::Serializability, &history);
            assert!(batch.unwrap().is_satisfied());
        }
    }

    /// stop_on_violation truncates the run on the deterministic driver too:
    /// the faulty engine is caught and no session starts a template after
    /// the latch.
    #[test]
    fn stop_on_violation_truncates_interleaved_runs() {
        let s = spec(4, 150, 4, 7);
        let workload = generate_mt_workload(&s);
        let config = DbConfig::correct(IsolationMode::Snapshot, s.num_keys)
            .with_faults(vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.6)], 7);
        let db = Database::new(config);
        let verifier = LiveVerifier::builder(IsolationLevel::SnapshotIsolation, s.num_keys)
            .stop_on_violation(true)
            .build();
        let (_, report) = ExecutionOptions::interleaved(3)
            .verifier(&verifier)
            .run(&db, &workload);
        let outcome = verifier.finish();
        assert!(outcome.verdict.unwrap().is_violated());
        let total = (s.sessions * s.txns_per_session) as usize;
        assert!(
            report.committed < total,
            "stop-on-violation must truncate the schedule ({} of {total} committed)",
            report.committed
        );
    }

    /// FNV-1a over every transaction's `(session, ops, status, begin, end)`.
    fn digest(history: &History) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for t in history.txns() {
            eat(u64::from(t.session.0));
            eat(t.ops.len() as u64);
            for op in &t.ops {
                match *op {
                    mtc_history::Op::Read { key, value } => [0, key.0, value.0].map(&mut eat),
                    mtc_history::Op::Write { key, value } => [1, key.0, value.0].map(&mut eat),
                };
            }
            eat(u64::from(t.is_committed()));
            eat(t.begin.unwrap_or(u64::MAX));
            eat(t.end.unwrap_or(u64::MAX));
        }
        h
    }

    /// The interleaved driver is a determinism contract: for a backend,
    /// workload and seed, the history is fixed. The digests come from commit
    /// c8f121d, where each driver still had its own hand-written loop, so
    /// they hold the session machine to the behaviour it replaced.
    #[test]
    fn interleaved_histories_match_their_golden_digests() {
        let workload = generate_mt_workload(&spec(3, 25, 4, 5));
        let db = crate::backends::WeakMvccDatabase::new(crate::backends::WeakLevel::ReadCommitted);
        let (history, _) = ExecutionOptions::interleaved(42).run(&db, &workload);
        assert_eq!(digest(&history), 15_591_034_701_480_829_865, "weak-rc");

        let s = spec(4, 150, 4, 7);
        let config = DbConfig::correct(IsolationMode::Snapshot, s.num_keys)
            .with_faults(vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.6)], 7);
        let verifier = LiveVerifier::builder(IsolationLevel::SnapshotIsolation, s.num_keys)
            .stop_on_violation(true)
            .build();
        let (history, report) = ExecutionOptions::interleaved(3)
            .verifier(&verifier)
            .run(&Database::new(config), &generate_mt_workload(&s));
        assert_eq!(report.committed, 5, "sim-si, truncated");
        assert_eq!(
            digest(&history),
            3_015_629_475_123_084_451,
            "sim-si, truncated"
        );

        let s = MtWorkloadSpec {
            distribution: Distribution::Zipf { theta: 1.0 },
            ..spec(4, 40, 4, 13)
        };
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, s.num_keys));
        let (history, report) = ExecutionOptions::interleaved(11)
            .client(ClientOptions {
                max_retries: 1000,
                ..Default::default()
            })
            .run(&db, &generate_mt_workload(&s));
        assert!(report.aborted_attempts > 0, "must exercise retry-begin");
        assert_eq!(
            digest(&history),
            2_972_436_695_325_046_922,
            "sim-ser, retries"
        );
    }
}
