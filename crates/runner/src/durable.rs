//! Durable execution modes: record a live-verified run into an
//! [`mtc_store::MtcStore`], resume verification after a crash, and re-check
//! any logged session offline.
//!
//! Three modes compose into the crash-recovery workflow:
//!
//! * [`record_streaming`] — run a workload with live verification, with
//!   every recorded transaction written ahead to the store and the checker
//!   checkpointed periodically. A crash at any point (the CI smoke test
//!   SIGKILLs the recorder mid-stream) leaves a recoverable directory.
//! * [`resume_verification`] — pick the newest intact checkpoint, replay
//!   the logged tail into the resumed checker, and finish: the verdict
//!   (payload and all) is the one the uninterrupted run would have
//!   produced over the logged prefix.
//! * [`replay_verify`] — ignore checkpoints, rebuild the complete logged
//!   history and hand it to *any* [`Checker`] (batch, streaming or a
//!   baseline): logged sessions stay re-checkable offline, long after the
//!   database under test is gone.

use crate::exec::{verify, Checker, VerifyOutcome};
use mtc_core::{CheckError, GcPolicy, IsolationLevel, Verdict};
use mtc_dbsim::{ClientOptions, DbBackend, ExecutionOptions, LiveVerifier};
use mtc_store::{recover, MtcStore, StoreError, StreamMeta};
use mtc_workload::Workload;
use std::path::Path;

/// Knobs of a recorded run.
#[derive(Clone, Copy, Debug)]
pub struct RecordOptions {
    /// The checkpoint floor: every this many recorded transactions the log
    /// is fsynced, or the checker checkpointed instead once the log since the
    /// newest checkpoint has grown to its size
    /// ([`mtc_dbsim::LiveVerifierBuilder::store`]).
    pub checkpoint_every: usize,
    /// Stop issuing transactions once a violation latches.
    pub stop_on_violation: bool,
    /// Optional settled-prefix GC policy for the live checker.
    pub gc: Option<GcPolicy>,
}

impl Default for RecordOptions {
    fn default() -> Self {
        RecordOptions {
            checkpoint_every: 512,
            stop_on_violation: false,
            gc: None,
        }
    }
}

/// Outcome of a recorded (durable) streaming run.
#[derive(Debug)]
pub struct RecordOutcome {
    /// The live verification verdict.
    pub verdict: Result<Verdict, CheckError>,
    /// Transactions consumed by the verifier.
    pub checked_txns: usize,
    /// Committed transactions executed.
    pub committed: usize,
    /// First persistence error, if the sink failed mid-run.
    pub sink_error: Option<String>,
}

/// Executes `workload` against `db` — any freshly built [`DbBackend`] —
/// with live verification, recording the stream durably into a new store at
/// `dir`.
pub fn record_streaming(
    dir: impl AsRef<Path>,
    db: &dyn DbBackend,
    workload: &Workload,
    client: &ClientOptions,
    level: IsolationLevel,
    opts: &RecordOptions,
) -> Result<RecordOutcome, StoreError> {
    let store = MtcStore::create(
        &dir,
        &StreamMeta {
            level,
            num_keys: workload.num_keys,
        },
    )?;
    let mut builder = LiveVerifier::builder(level, workload.num_keys)
        .stop_on_violation(opts.stop_on_violation)
        .store(store, opts.checkpoint_every);
    if let Some(policy) = opts.gc {
        builder = builder.gc(policy);
    }
    let verifier = builder.build();
    let (_history, report) = ExecutionOptions::threaded()
        .client(*client)
        .verifier(&verifier)
        .run(db, workload);
    let outcome = verifier.finish();
    Ok(RecordOutcome {
        verdict: outcome.verdict,
        checked_txns: outcome.checked_txns,
        committed: report.committed,
        sink_error: outcome.sink_error,
    })
}

/// Outcome of resuming a crashed (or merely stopped) verification session.
#[derive(Debug)]
pub struct ResumeOutcome {
    /// The final verdict over the logged stream.
    pub verdict: Result<Verdict, CheckError>,
    /// Intact transactions found in the log.
    pub logged_txns: usize,
    /// Log index verification resumed from (0 = replayed from scratch).
    pub resumed_from: u64,
    /// True iff a checkpoint was used (vs. a scratch replay).
    pub from_checkpoint: bool,
    /// True iff the log ended in a torn frame (crash signature).
    pub torn_tail: bool,
}

/// Recovers the store at `dir` and finishes verification: newest intact
/// checkpoint plus replay of the logged tail (scratch replay if no usable
/// checkpoint exists). The verdict matches what the uninterrupted run would
/// have reported over the logged prefix.
pub fn resume_verification(dir: impl AsRef<Path>) -> Result<ResumeOutcome, StoreError> {
    let recovery = recover(&dir)?;
    let (logged_txns, resumed_from) = (recovery.txns.len(), recovery.resume_from);
    let (from_checkpoint, torn_tail) = (recovery.snapshot.is_some(), recovery.torn_tail);
    Ok(ResumeOutcome {
        verdict: recovery.resume().finish(),
        logged_txns,
        resumed_from,
        from_checkpoint,
        torn_tail,
    })
}

/// Rebuilds the complete logged history from the store at `dir` and runs
/// `checker` on it — the offline replay-from-log path, usable with every
/// checker of the harness (MTC batch/streaming and the baselines).
pub fn replay_verify(dir: impl AsRef<Path>, checker: Checker) -> Result<VerifyOutcome, StoreError> {
    let recovery = recover(&dir)?;
    Ok(verify(checker, &recovery.to_history()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_dbsim::{Database, DbConfig, FaultKind, FaultSpec, IsolationMode};
    use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mtc_runner_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(seed: u64) -> MtWorkloadSpec {
        MtWorkloadSpec {
            sessions: 3,
            txns_per_session: 60,
            num_keys: 8,
            distribution: Distribution::Uniform,
            read_only_fraction: 0.2,
            two_key_fraction: 0.5,
            seed,
        }
    }

    #[test]
    fn record_then_resume_and_replay_agree() {
        let dir = tmpdir("rrr");
        let workload = generate_mt_workload(&spec(23));
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 8));
        let out = record_streaming(
            &dir,
            &db,
            &workload,
            &ClientOptions::default(),
            IsolationLevel::Serializability,
            &RecordOptions {
                checkpoint_every: 40,
                ..RecordOptions::default()
            },
        )
        .unwrap();
        assert!(out.sink_error.is_none());
        assert!(out.verdict.as_ref().unwrap().is_satisfied());

        let resumed = resume_verification(&dir).unwrap();
        assert_eq!(resumed.logged_txns, out.checked_txns);
        assert!(resumed.from_checkpoint, "checkpoints were written");
        assert!(resumed.resumed_from > 0);
        assert!(resumed.verdict.unwrap().is_satisfied());

        for checker in [Checker::MtcSer, Checker::MtcSerIncremental] {
            let replayed = replay_verify(&dir, checker).unwrap();
            assert!(
                !replayed.violated,
                "{}: {}",
                checker.label(),
                replayed.detail
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_recorded_run_resumes_to_the_same_violation() {
        let dir = tmpdir("faulty");
        let workload = generate_mt_workload(&MtWorkloadSpec {
            num_keys: 4,
            txns_per_session: 120,
            ..spec(7)
        });
        let config = DbConfig::correct(IsolationMode::Snapshot, 4)
            .with_latency(
                std::time::Duration::from_micros(200),
                std::time::Duration::from_micros(100),
            )
            .with_faults(vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.6)], 7);
        let out = record_streaming(
            &dir,
            &Database::new(config),
            &workload,
            &ClientOptions::default(),
            IsolationLevel::SnapshotIsolation,
            &RecordOptions {
                checkpoint_every: 30,
                stop_on_violation: true,
                ..RecordOptions::default()
            },
        )
        .unwrap();
        let live = out.verdict.unwrap();
        assert!(live.is_violated());

        let resumed = resume_verification(&dir).unwrap();
        assert_eq!(resumed.verdict.unwrap(), live);
        let replayed = replay_verify(&dir, Checker::MtcSiIncremental).unwrap();
        assert!(replayed.violated, "{}", replayed.detail);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
