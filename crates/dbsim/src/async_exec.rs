//! The async scheduler: many sessions multiplexed over a small worker pool.
//!
//! The threaded driver spends one OS thread per session — fine for a handful
//! of in-process sessions, untenable for thousands of sessions against a
//! remote backend where most of a transaction's life is waiting on the wire.
//! Here every [`Session`] is a future on the minimal scoped executor in the
//! `futures_lite` compat crate ([`futures_lite::executor::run_all`]):
//! `workers` threads poll all session tasks cooperatively, with a scheduling
//! point ([`futures_lite::future::yield_now`]) after every
//! [`Session::step`] — after a begin, after each operation, after a settle
//! (and the retry-begin that shares its step) — so sessions interleave at
//! operation granularity no matter how few workers carry them.
//!
//! It is the same state machine the other drivers schedule, so a history
//! collected asynchronously is indistinguishable from a threaded one to the
//! checkers.
//!
//! One honest caveat, documented rather than hidden: [`crate::DbTxn`]
//! operations are synchronous, so an operation that *blocks inside the
//! backend* (a 2PL lock wait, a slow remote read) parks the worker polling
//! it. The driver overlaps sessions at yield points and across `workers`
//! threads; it does not make a blocking protocol non-blocking. In
//! particular, an engine whose operations can wait on another in-flight
//! transaction ([`crate::BackendSpec::blocking`] — the 2PL engine's
//! wait-die "older waits" path) needs `workers >= sessions`, or all
//! workers can end up parked on locks whose holders' tasks are queued
//! behind them — the executor-level cousin of the restriction on
//! [`crate::Driver::Interleaved`]. Non-blocking engines (the simulator, weak
//! MVCC, the remote client whose server wraps one of those) run fine with
//! far fewer workers than sessions.

use crate::session::{IssueOp, Session};
use futures_lite::executor::{run_all, BoxedTask};
use futures_lite::future::yield_now;

/// Runs every session to completion as one task each on a `workers`-thread
/// executor (clamped to at least one), yielding after every step.
pub(crate) fn drive_async<'a, T: Sync, R: Send, F: IssueOp<T, R>>(
    sessions: Vec<Session<'a, T, R, F>>,
    workers: usize,
) -> Vec<Session<'a, T, R, F>> {
    let tasks = sessions
        .into_iter()
        .map(|mut s| {
            Box::pin(async move {
                while s.step() {
                    yield_now().await;
                }
                s
            }) as BoxedTask<'_, _>
        })
        .collect();
    run_all(tasks, workers)
}

#[cfg(test)]
mod tests {
    use crate::backends::BackendSpec;
    use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};

    fn spec(sessions: u32, txns: u32, keys: u64) -> MtWorkloadSpec {
        MtWorkloadSpec {
            sessions,
            txns_per_session: txns,
            num_keys: keys,
            distribution: Distribution::Uniform,
            read_only_fraction: 0.2,
            two_key_fraction: 0.5,
            seed: 11,
        }
    }

    /// The async driver satisfies the same invariants as the threaded one,
    /// on every fleet engine, with fewer workers than sessions (the whole
    /// point) and with more workers than sessions.
    #[test]
    fn async_driver_matches_threaded_invariants_across_the_fleet() {
        let s = spec(6, 15, 8);
        let workload = generate_mt_workload(&s);
        for backend_spec in BackendSpec::fleet(s.num_keys) {
            let db = backend_spec.build();
            for workers in [2, 8] {
                if backend_spec.blocking() && workers < 6 {
                    // A blocking engine needs workers >= sessions (see the
                    // module docs); driving it undersized would deadlock.
                    continue;
                }
                let (history, report) =
                    crate::ExecutionOptions::async_workers(workers).run(db.as_ref(), &workload);
                assert!(
                    report.committed > 0,
                    "{}: nothing committed",
                    backend_spec.label()
                );
                assert_eq!(report.committed + report.failed, workload.txn_count());
                assert_eq!(report.attempts, report.committed + report.aborted_attempts);
                assert_eq!(history.committed_count(), report.committed + 1); // + ⊥T
                assert!(history.has_init());
                assert!(
                    history.has_unique_values(),
                    "{}: duplicate write values",
                    backend_spec.label()
                );
            }
        }
    }
}
