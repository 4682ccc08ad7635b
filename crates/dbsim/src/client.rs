//! The client side of a run: the retry/recording policy ([`ClientOptions`]),
//! the statistics of an execution ([`ExecutionReport`]), how register
//! workloads issue their operations, and the two schedulers of the [`Session`]
//! state machine — one OS thread per session, and the deterministic
//! single-thread interleaving the conformance suite uses to make organic
//! anomalies reproducible. ([`crate::ExecutionOptions::run`] picks one.)

use crate::backend::DbTxn;
use crate::session::{IssueOp, Session};
use crate::txn::AbortReason;
use mtc_history::{Key, Op, ValueAllocator};
use mtc_workload::ReqOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Client-side execution options.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClientOptions {
    /// How many times an aborted transaction template is **retried** after
    /// its first attempt, so a template is attempted at most
    /// `max_retries + 1` times (0 = a single attempt, no retries). The one
    /// session machine ([`crate::session`]) decides retries through
    /// [`ClientOptions::should_retry`] whatever driver schedules it;
    /// `max_retries_counts_retries_not_attempts` in `mtc-runner`'s `exec`
    /// tests pins the count on each driver and on both Elle runners.
    pub max_retries: u32,
    /// Record aborted attempts in the history (needed to detect
    /// `ABORTEDREAD`-style anomalies; the paper's checkers assume aborted
    /// transactions are visible in the log).
    pub record_aborted: bool,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            max_retries: 3,
            record_aborted: true,
        }
    }
}

impl ClientOptions {
    /// The single retry predicate shared by every driver: retry iff the
    /// abort rolls back cleanly ([`AbortReason::is_retryable`]) and fewer
    /// than [`ClientOptions::max_retries`] retries have been spent.
    /// `retries_so_far` is the number of *completed* attempts beyond the
    /// first — i.e. `attempts_made - 1`.
    pub fn should_retry(&self, retries_so_far: u32, reason: AbortReason) -> bool {
        retries_so_far < self.max_retries && reason.is_retryable()
    }

    /// Whether an aborted attempt should be written to the history: the
    /// caller wants aborted attempts, the attempt observed something
    /// (`ops` nonempty — empty attempts are not mini-transactions), and the
    /// abort is a *known* outcome ([`AbortReason::outcome_known`]; an
    /// ambiguous remote commit must not be recorded as aborted).
    pub(crate) fn should_record_abort<R>(&self, ops: &[R], reason: AbortReason) -> bool {
        self.record_aborted && !ops.is_empty() && reason.outcome_known()
    }
}

/// Statistics of one workload execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Transaction templates that eventually committed.
    pub committed: usize,
    /// Templates that never committed (all attempts aborted).
    pub failed: usize,
    /// Total attempts (committed + every aborted attempt).
    pub attempts: usize,
    /// Aborted attempts.
    pub aborted_attempts: usize,
    /// Wall-clock duration of history generation.
    pub wall_time: Duration,
}

impl ExecutionReport {
    /// Fraction of attempts that aborted — the abort rate of Figure 11.
    pub fn abort_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.aborted_attempts as f64 / self.attempts as f64
        }
    }
}

/// The [`IssueOp`] of register workloads: reads record the value returned,
/// writes a fresh unique value from the session's allocator.
pub(crate) struct RegisterOps;

impl IssueOp<ReqOp, Op> for RegisterOps {
    fn issue(
        &self,
        handle: &mut dyn DbTxn,
        op: &ReqOp,
        values: &mut ValueAllocator,
        ops: &mut Vec<Op>,
    ) -> Result<(), AbortReason> {
        match *op {
            ReqOp::Read(key) => {
                let value = handle.read_register(key)?;
                ops.push(Op::Read { key, value });
            }
            ReqOp::Write(key) => {
                let value = values.next();
                handle.write_register(key, value)?;
                ops.push(Op::Write { key, value });
            }
        }
        Ok(())
    }

    /// The template's reads up to the first that follows a write of its own
    /// key: all of a mini-transaction's, whatever writes of other keys stand
    /// between them.
    fn reads_ahead(&self, template: &[ReqOp], keys: &mut Vec<Key>) -> bool {
        for (i, op) in template.iter().enumerate() {
            if let ReqOp::Read(key) = *op {
                if template[..i].contains(&ReqOp::Write(key)) {
                    return false;
                }
                keys.push(key);
            }
        }
        keys.len() == template.len()
    }
}

/// The threaded scheduler: every session steps to completion on an OS thread
/// of its own. Works with every backend, including blocking ones.
pub(crate) fn drive_threaded<'a, T: Sync, R: Send, F: IssueOp<T, R>>(
    sessions: Vec<Session<'a, T, R, F>>,
) -> Vec<Session<'a, T, R, F>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .map(|mut s| {
                scope.spawn(move || {
                    while s.step() {}
                    s
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The deterministic scheduler: all sessions on the calling thread, one
/// [`Session::step`] at a time, the session picked from the live ones by a
/// seeded generator. For a given backend, workload and seed the run — and so
/// the collected history — is fixed, which makes organically produced
/// anomalies (lost updates of the weak MVCC engine, say) reproducible test
/// vectors rather than race lottery wins.
///
/// **Blocking backends beware**: all sessions share one thread, so this must
/// only drive backends whose operations cannot block on another in-flight
/// transaction. The weak MVCC engine and the simulator qualify; the 2PL
/// engine does not (its wait-die "older waits" path would wait forever for a
/// holder parked on the same thread).
pub(crate) fn drive_interleaved<'a, T, R, F: IssueOp<T, R>>(
    mut sessions: Vec<Session<'a, T, R, F>>,
    schedule_seed: u64,
) -> Vec<Session<'a, T, R, F>> {
    let mut rng = StdRng::seed_from_u64(schedule_seed);
    let mut live = Vec::with_capacity(sessions.len());
    loop {
        live.clear();
        live.extend((0..sessions.len()).filter(|&i| sessions[i].is_live()));
        if live.is_empty() {
            return sessions;
        }
        sessions[live[rng.gen_range(0..live.len())]].step();
    }
}

#[cfg(test)]
mod tests {
    use crate::backends::{BackendSpec, WeakLevel};
    use crate::config::{DbConfig, IsolationMode};
    use crate::db::Database;
    use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};

    fn spec(sessions: u32, txns: u32, keys: u64) -> MtWorkloadSpec {
        MtWorkloadSpec {
            sessions,
            txns_per_session: txns,
            num_keys: keys,
            distribution: Distribution::Uniform,
            read_only_fraction: 0.2,
            two_key_fraction: 0.5,
            seed: 5,
        }
    }

    #[test]
    fn executes_a_small_workload_and_counts_add_up() {
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 20));
        let workload = generate_mt_workload(&spec(4, 50, 20));
        let (history, report) = crate::ExecutionOptions::threaded().run(&db, &workload);
        assert_eq!(report.committed + report.failed, workload.txn_count());
        assert_eq!(report.attempts, report.committed + report.aborted_attempts);
        assert_eq!(history.committed_count(), report.committed + 1); // + ⊥T
        assert!(history.has_init());
        assert!(history.has_unique_values());
        assert!(report.abort_rate() <= 1.0);
    }

    #[test]
    fn histories_have_timestamps_on_committed_transactions() {
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 10));
        let workload = generate_mt_workload(&spec(2, 20, 10));
        let (history, _) = crate::ExecutionOptions::threaded().run(&db, &workload);
        for t in history.committed() {
            assert!(t.begin.is_some(), "{t:?} lacks a begin timestamp");
            assert!(t.end.is_some(), "{t:?} lacks an end timestamp");
        }
    }

    #[test]
    fn every_fleet_backend_executes_the_same_workload() {
        let s = spec(3, 20, 8);
        let workload = generate_mt_workload(&s);
        for backend_spec in BackendSpec::fleet(s.num_keys) {
            let db = backend_spec.build();
            let (history, report) = crate::ExecutionOptions::threaded().run(&*db, &workload);
            assert!(
                report.committed > 0,
                "{}: nothing committed",
                backend_spec.label()
            );
            assert_eq!(history.committed_count(), report.committed + 1);
            assert!(
                history.has_unique_values(),
                "{}: duplicate write values",
                backend_spec.label()
            );
        }
    }

    #[test]
    fn a_template_announces_its_reads_up_to_one_of_a_key_it_wrote() {
        use super::RegisterOps;
        use crate::session::IssueOp;
        use mtc_history::Key;
        use mtc_workload::ReqOp::{Read, Write};
        let plan = |ops: &[mtc_workload::ReqOp]| {
            let mut keys = Vec::new();
            let whole = RegisterOps.reads_ahead(ops, &mut keys);
            (keys, whole)
        };
        let (x, y) = (Key(1), Key(2));
        assert_eq!(plan(&[Read(x), Read(y)]), (vec![x, y], true));
        assert_eq!(plan(&[Read(x), Read(y), Write(x)]), (vec![x, y], false));
        assert_eq!(
            plan(&[Read(x), Write(x), Read(y), Write(y)]),
            (vec![x, y], false)
        );
        assert_eq!(plan(&[Write(x), Read(x)]), (vec![], false));
        assert_eq!(
            plan(&[Read(x), Write(x), Read(x), Read(y)]),
            (vec![x], false)
        );
    }

    #[test]
    fn interleaved_execution_is_deterministic() {
        let s = spec(3, 25, 4);
        let workload = generate_mt_workload(&s);
        let run = |seed: u64| {
            let db = crate::backends::WeakMvccDatabase::new(WeakLevel::ReadCommitted);
            crate::ExecutionOptions::interleaved(seed).run(&db, &workload)
        };
        let (h1, r1) = run(42);
        let (h2, r2) = run(42);
        assert_eq!(r1.committed, r2.committed);
        assert_eq!(h1.len(), h2.len());
        for (a, b) in h1.txns().iter().zip(h2.txns()) {
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.begin, b.begin);
            assert_eq!(a.end, b.end);
        }
        // A different schedule is allowed to produce a different history.
        let (h3, _) = run(43);
        assert_eq!(h1.committed_count(), h3.committed_count());
    }

    #[test]
    fn interleaved_counts_add_up_on_the_simulator() {
        let s = spec(4, 30, 6);
        let workload = generate_mt_workload(&s);
        let db = Database::new(DbConfig::correct(IsolationMode::Snapshot, s.num_keys));
        let (history, report) = crate::ExecutionOptions::interleaved(7).run(&db, &workload);
        assert_eq!(report.committed + report.failed, workload.txn_count());
        assert_eq!(report.attempts, report.committed + report.aborted_attempts);
        assert_eq!(history.committed_count(), report.committed + 1);
        assert!(history.has_unique_values());
    }
}
