//! Durable execution modes: record a live-verified run into an
//! [`mtc_store::MtcStore`], resume verification after a crash, and re-check
//! any logged session offline.
//!
//! Three modes compose into the crash-recovery workflow:
//!
//! * [`record_streaming`] — run a workload with live verification, with
//!   every recorded transaction written ahead to the store and the checker
//!   checkpointed as the store decides. A crash at any point (the CI smoke
//!   test SIGKILLs the recorder mid-stream) leaves a recoverable directory.
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
use mtc_dbsim::{
    ClientOptions, DbBackend, ExecutionOptions, LiveOutcome, LiveVerifier, Observer, TxnRecord,
};
use mtc_history::Op;
use mtc_store::{recover, MtcStore, StoreError, StreamMeta};
use mtc_workload::Workload;
use std::path::Path;
use std::sync::Mutex;

/// Knobs of a recorded run.
#[derive(Clone, Copy, Debug)]
pub struct RecordOptions {
    /// The checkpoint floor: every this many recorded transactions the log
    /// is fsynced, or the checker checkpointed instead once the log since the
    /// newest checkpoint has grown to its size
    /// ([`MtcStore::with_checkpoint_every`]).
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
    /// The store's first error, if a write failed mid-run. Verification
    /// carries on past it; recovery covers the prefix logged before it.
    pub sink_error: Option<String>,
}

/// A live verifier writing ahead to its store: the session threads reach
/// both through one lock, so the log order is the check order.
struct Recorder {
    verifier: LiveVerifier,
    store: Mutex<MtcStore>,
}

impl Recorder {
    /// A fresh store at `dir` and a live verifier over `num_keys` keys, set
    /// up as `opts` say.
    fn create(
        dir: impl AsRef<Path>,
        level: IsolationLevel,
        num_keys: u64,
        opts: &RecordOptions,
    ) -> Result<Self, StoreError> {
        let store = MtcStore::create(&dir, &StreamMeta { level, num_keys })?
            .with_checkpoint_every(opts.checkpoint_every);
        let mut builder =
            LiveVerifier::builder(level, num_keys).stop_on_violation(opts.stop_on_violation);
        if let Some(policy) = opts.gc {
            builder = builder.gc(policy);
        }
        Ok(Recorder {
            verifier: builder.build(),
            store: Mutex::new(store),
        })
    }

    /// Ends the stream: syncs the log, so it survives the process, and
    /// finishes the verifier.
    fn finish(self) -> (LiveOutcome, Option<String>) {
        let mut store = self.store.into_inner().unwrap_or_else(|e| e.into_inner());
        let sink_error = store.sync().err().map(|e| e.to_string());
        (self.verifier.finish(), sink_error)
    }
}

impl Observer<Op> for Recorder {
    fn should_stop(&self) -> bool {
        self.verifier.should_stop()
    }

    fn observe(&self, record: &TxnRecord<Op>) {
        let mut store = self.store.lock().unwrap_or_else(|e| e.into_inner());
        let txn = record.to_transaction();
        // A failed write is latched in the store and returned by `finish`.
        let _ = store.append_txn(&txn);
        self.verifier.record(txn);
        let _ = store.recorded(|| self.verifier.checkpoint());
    }

    fn mark_started(&self) {
        self.verifier.mark_started();
    }
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
    let recorder = Recorder::create(dir, level, workload.num_keys, opts)?;
    let (_history, report) = ExecutionOptions::threaded()
        .client(*client)
        .verifier(&recorder)
        .run(db, workload);
    let (outcome, sink_error) = recorder.finish();
    Ok(RecordOutcome {
        verdict: outcome.verdict,
        checked_txns: outcome.checked_txns,
        committed: report.committed,
        sink_error,
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
    use mtc_core::IncrementalChecker;
    use mtc_dbsim::{Database, DbConfig, FaultKind, FaultSpec, IsolationMode};
    use mtc_history::TxnStatus;
    use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
    use std::path::PathBuf;
    use std::time::Duration;

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

    /// [`spec`] at four sessions of `txns` over `keys` keys.
    fn live_spec(seed: u64, keys: u64, txns: u32) -> MtWorkloadSpec {
        MtWorkloadSpec {
            sessions: 4,
            txns_per_session: txns,
            num_keys: keys,
            ..spec(seed)
        }
    }

    fn floor(checkpoint_every: usize) -> RecordOptions {
        RecordOptions {
            checkpoint_every,
            ..RecordOptions::default()
        }
    }

    #[test]
    fn persisted_run_recovers_and_replays_to_the_same_verdict() {
        let dir = tmpdir("wal");
        let s = live_spec(21, 8, 40);
        let workload = generate_mt_workload(&s);
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, s.num_keys));
        let level = IsolationLevel::Serializability;
        let recorder = Recorder::create(&dir, level, s.num_keys, &floor(25)).unwrap();
        // Skip aborted-attempt records: how many conflict aborts occur (and
        // get logged) depends on thread scheduling, and this test asserts
        // the log's record count exactly.
        let opts = ClientOptions {
            record_aborted: false,
            ..ClientOptions::default()
        };
        let (_, report) = ExecutionOptions::threaded()
            .client(opts)
            .verifier(&recorder)
            .run(&db, &workload);
        // "Crash": drop the recorder without finish(). The log was written
        // ahead of the checker; the store synced at each floor.
        drop(recorder);

        let recovery = recover(&dir).unwrap();
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
        let dir = tmpdir("wal_fault");
        let s = live_spec(7, 4, 150);
        let workload = generate_mt_workload(&s);
        let config = DbConfig::correct(IsolationMode::Snapshot, s.num_keys)
            .with_latency(Duration::from_micros(200), Duration::from_micros(100))
            .with_faults(vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.6)], 7);
        let db = Database::new(config);
        let level = IsolationLevel::SnapshotIsolation;
        let outcome = record_streaming(
            &dir,
            &db,
            &workload,
            &ClientOptions::default(),
            level,
            &RecordOptions {
                stop_on_violation: true,
                ..floor(20)
            },
        )
        .unwrap();
        assert!(outcome.sink_error.is_none(), "{:?}", outcome.sink_error);
        let live_verdict = outcome.verdict.unwrap();
        assert!(live_verdict.is_violated());

        let recovery = recover(&dir).unwrap();
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
        let dir = tmpdir("wal_past_latch");
        let level = IsolationLevel::Serializability;
        let recorder = Recorder::create(&dir, level, 1, &floor(3)).unwrap();
        let record = |session: u32, read: u64, write: u64| {
            let at = 10 * write;
            recorder.observe(&TxnRecord {
                session,
                ops: vec![Op::read(0u64, read), Op::write(0u64, write)],
                status: TxnStatus::Committed,
                begin: at,
                end: at + 5,
            });
        };
        // The second record loses the first one's update; five more follow.
        record(0, 0, 1);
        record(1, 0, 2);
        assert_eq!(recorder.verifier.first_violation_at(), Some(2));
        for i in 2..7u64 {
            record(0, i, i + 1);
        }
        assert_eq!(recorder.verifier.consumed(), 7);
        let (outcome, sink_error) = recorder.finish();
        assert!(sink_error.is_none(), "{:?}", sink_error);
        assert!(outcome.verdict.unwrap().is_violated());
        assert_eq!(outcome.checked_txns, 7, "a latch does not end the stream");
        assert_eq!(outcome.first_violation.unwrap().at_txn, 2);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.txns.len(), 7, "every admitted record is logged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
