//! Integration tests of the streaming verification engine through the
//! facade: live-verified dbsim runs, facade re-exports, and agreement of the
//! streaming checkers with the batch ones on executed (not synthetic)
//! histories — including the strict-serializability mode with real commit
//! timestamps from the simulated store.

use mtc::core::{check_ser, check_si, check_sser};
use mtc::dbsim::{
    ClientOptions, Database, DbConfig, ExecutionOptions, FaultKind, FaultSpec, IsolationMode,
};
use mtc::history::{HistoryBuilder, Op};
use mtc::runner::{end_to_end_streaming, verify, Checker};
use mtc::workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
// The streaming types are re-exported at the facade root.
use mtc::{check_streaming, IncrementalChecker, IsolationLevel, LiveVerifier, StreamStatus};

fn mt_spec(seed: u64, num_keys: u64) -> MtWorkloadSpec {
    MtWorkloadSpec {
        sessions: 4,
        txns_per_session: 60,
        num_keys,
        distribution: Distribution::Zipf { theta: 1.0 },
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed,
    }
}

#[test]
fn streaming_checkers_agree_with_batch_on_executed_histories() {
    for seed in 0..3u64 {
        let spec = mt_spec(seed, 12);
        let workload = generate_mt_workload(&spec);
        let db = Database::new(DbConfig::correct(
            IsolationMode::Serializable,
            spec.num_keys,
        ));
        let (history, _) = ExecutionOptions::threaded().run(&db, &workload);

        let batch_ser = check_ser(&history).unwrap();
        let batch_si = check_si(&history).unwrap();
        let inc_ser = check_streaming(IsolationLevel::Serializability, &history).unwrap();
        let inc_si = check_streaming(IsolationLevel::SnapshotIsolation, &history).unwrap();
        assert_eq!(
            batch_ser.is_violated(),
            inc_ser.is_violated(),
            "seed {seed}"
        );
        assert_eq!(batch_si.is_violated(), inc_si.is_violated(), "seed {seed}");
    }
}

#[test]
fn live_verifier_catches_the_fault_before_the_run_ends() {
    let spec = mt_spec(7, 4);
    let workload = generate_mt_workload(&spec);
    let total = workload.txn_count();
    let config = DbConfig::correct(IsolationMode::Snapshot, spec.num_keys)
        .with_latency(
            std::time::Duration::from_micros(200),
            std::time::Duration::from_micros(100),
        )
        .with_faults(vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.6)], 7);
    let db = Database::new(config);
    let verifier = LiveVerifier::builder(IsolationLevel::SnapshotIsolation, spec.num_keys)
        .stop_on_violation(true)
        .build();
    let (_, _) = ExecutionOptions::threaded()
        .verifier(&verifier)
        .run(&db, &workload);
    let outcome = verifier.finish();
    assert!(outcome.verdict.unwrap().is_violated());
    let first = outcome.first_violation.expect("latched mid-run");
    // Early exit: the violation is latched before the tail of the workload
    // is consumed (time-to-first-violation < full history length).
    assert!(
        first.at_txn < total && outcome.checked_txns < total,
        "latched at {} after checking {} of {} transactions",
        first.at_txn,
        outcome.checked_txns,
        total
    );
}

#[test]
fn runner_streaming_mode_reports_time_to_first_violation() {
    let spec = mt_spec(11, 4);
    let workload = generate_mt_workload(&spec);
    let config = DbConfig::correct(IsolationMode::Snapshot, spec.num_keys)
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
    assert!(out.violated, "{}", out.detail);
    assert!(out.time_to_first_violation.unwrap() <= out.wall_time);
}

#[test]
fn incremental_runner_checkers_are_wired() {
    let spec = mt_spec(3, 16);
    let workload = generate_mt_workload(&spec);
    let db = Database::new(DbConfig::correct(
        IsolationMode::Serializable,
        spec.num_keys,
    ));
    let (history, _) = ExecutionOptions::threaded().run(&db, &workload);
    for checker in [Checker::MtcSerIncremental, Checker::MtcSiIncremental] {
        let out = verify(checker, &history);
        assert!(!out.violated, "{}: {}", checker.label(), out.detail);
    }
}

#[test]
fn streaming_sser_agrees_with_batch_on_executed_histories() {
    // Clean serializable executions carry honest commit timestamps: batch
    // CHECKSSER and the streaming time-chain checker must both accept.
    for seed in 0..3u64 {
        let spec = mt_spec(seed, 12);
        let workload = generate_mt_workload(&spec);
        let db = Database::new(DbConfig::correct(
            IsolationMode::Serializable,
            spec.num_keys,
        ));
        let (history, _) = ExecutionOptions::threaded().run(&db, &workload);
        let batch = check_sser(&history).unwrap();
        let streaming = check_streaming(IsolationLevel::StrictSerializability, &history).unwrap();
        assert_eq!(batch.is_violated(), streaming.is_violated(), "seed {seed}");
        assert!(batch.is_satisfied(), "seed {seed}: {batch:?}");
    }
}

#[test]
fn sser_stop_on_violation_truncates_the_run() {
    // Commit-timestamp skew violates only the real-time order; with
    // stop_on_violation the SSER live verifier must end the run early.
    let spec = mt_spec(13, 4);
    let workload = generate_mt_workload(&spec);
    let total = workload.txn_count();
    let config = DbConfig::correct(IsolationMode::Serializable, spec.num_keys)
        .with_latency(
            std::time::Duration::from_micros(200),
            std::time::Duration::from_micros(100),
        )
        .with_faults(
            vec![FaultSpec::new(FaultKind::CommitTimestampSkew, 0.4)],
            13,
        );
    let db = Database::new(config);
    let verifier = LiveVerifier::builder(IsolationLevel::StrictSerializability, spec.num_keys)
        .stop_on_violation(true)
        .build();
    let (_, _) = ExecutionOptions::threaded()
        .verifier(&verifier)
        .run(&db, &workload);
    let outcome = verifier.finish();
    assert!(outcome.verdict.unwrap().is_violated());
    let first = outcome.first_violation.expect("latched mid-run");
    // Truncation property: once the violation latches, each session may at
    // most finish the template it is currently retrying — consumption must
    // stop within that in-flight bound of the latch point. (`checked_txns`
    // counts *attempts* including aborted retries, so comparing it against
    // the template total would be meaningless under contention.)
    let in_flight_bound = (spec.sessions * (ClientOptions::default().max_retries + 1)) as usize;
    assert!(
        first.at_txn <= outcome.checked_txns
            && outcome.checked_txns <= first.at_txn + in_flight_bound,
        "stop-on-violation must truncate: latched at {} but consumed {} \
         (bound {}, {} templates total)",
        first.at_txn,
        outcome.checked_txns,
        first.at_txn + in_flight_bound,
        total
    );
}

#[test]
fn sser_first_violation_is_no_later_than_batch_prefix_detection() {
    // Time-to-first-violation monotonicity: feeding one transaction at a
    // time, the streaming checker latches at the *shortest* prefix the batch
    // checker would reject — never later.
    let mut b = HistoryBuilder::new().with_init(2);
    // A clean warm-up prefix ...
    b.committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 20);
    b.committed_timed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)], 30, 40);
    b.committed_timed(0, vec![Op::read(1u64, 0u64), Op::write(1u64, 3u64)], 50, 60);
    // ... then a stale read after commit (reads x = 1 long after x = 2
    // committed and every earlier writer finished) ...
    b.committed_timed(2, vec![Op::read(0u64, 1u64)], 70, 80);
    // ... and a clean tail that must never be needed.
    b.committed_timed(1, vec![Op::read(1u64, 3u64), Op::write(1u64, 4u64)], 90, 95);
    b.committed_timed(2, vec![Op::read(0u64, 2u64)], 100, 110);
    let history = b.build();

    // Smallest violating prefix according to the batch checker.
    let user: Vec<_> = history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != history.init_txn())
        .collect();
    let mut batch_first = None;
    for j in 1..=user.len() {
        let mut pb = HistoryBuilder::new().with_init(2);
        for t in &user[..j] {
            pb.push_timed(
                t.session.0,
                t.ops.clone(),
                t.status,
                t.begin.unwrap(),
                t.end.unwrap(),
            );
        }
        if check_sser(&pb.build()).unwrap().is_violated() {
            batch_first = Some(j);
            break;
        }
    }
    let batch_first = batch_first.expect("the crafted history must violate SSER");
    assert_eq!(batch_first, 4, "the stale read is the fourth transaction");

    // The streaming checker must latch at exactly that prefix.
    let mut checker = IncrementalChecker::new_sser().with_init_keys(0..2u64);
    let mut streaming_first = None;
    for (i, t) in user.iter().enumerate() {
        let status = checker.push((*t).clone()).unwrap();
        if status == StreamStatus::Violated && streaming_first.is_none() {
            streaming_first = Some(i + 1);
        }
    }
    let streaming_first = streaming_first.expect("streaming must latch");
    assert!(
        streaming_first <= batch_first,
        "streaming latched at prefix {streaming_first}, batch already rejects at {batch_first}"
    );
    assert_eq!(streaming_first, batch_first);
    // The j-th user transaction carries id j (⊥T is id 0).
    assert_eq!(
        checker.first_violation_at().map(|t| t.index()),
        Some(batch_first)
    );
}

#[test]
fn sser_runner_checkers_are_wired() {
    let spec = mt_spec(3, 16);
    let workload = generate_mt_workload(&spec);
    let db = Database::new(DbConfig::correct(
        IsolationMode::Serializable,
        spec.num_keys,
    ));
    let (history, _) = ExecutionOptions::threaded().run(&db, &workload);
    let out = verify(Checker::MtcSserIncremental, &history);
    assert!(!out.violated, "{}", out.detail);
    // And with an injected skew the live SSER verifier latches mid-run and
    // stops the sessions early. The interleaved driver makes the schedule
    // (and with it which commits get skewed) a function of the two seeds;
    // under the threaded driver some schedules see no real-time violation.
    // The operation latency keeps the run long against the few microseconds
    // between the verifier's clock start and the report's.
    let config = DbConfig::correct(IsolationMode::Serializable, spec.num_keys)
        .with_latency(
            std::time::Duration::from_micros(200),
            std::time::Duration::from_micros(100),
        )
        .with_faults(
            vec![FaultSpec::new(FaultKind::CommitTimestampSkew, 0.4)],
            29,
        );
    let verifier = LiveVerifier::builder(IsolationLevel::StrictSerializability, spec.num_keys)
        .stop_on_violation(true)
        .build();
    let (_, report) = ExecutionOptions::interleaved(7)
        .verifier(&verifier)
        .run(&Database::new(config), &workload);
    let outcome = verifier.finish();
    let verdict = outcome.verdict.unwrap();
    assert!(verdict.is_violated(), "{verdict:?}");
    assert!(outcome.first_violation.unwrap().elapsed <= report.wall_time);
}

/// A stream in commit order — an interleaved run of a correct `sim-ser`,
/// its transactions fed as they committed, as a live verifier sees them —
/// hangs each commit between anchors the maintained order already ranks:
/// streaming SSER reorders nothing, and holds one node per transaction and
/// at most one anchor per commit instant, `⊥T`'s among them.
#[test]
fn an_in_order_sser_stream_never_reorders() {
    let spec = MtWorkloadSpec {
        sessions: 2,
        txns_per_session: 400,
        num_keys: 40,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 11,
    };
    let workload = generate_mt_workload(&spec);
    let db = Database::new(DbConfig::correct(
        IsolationMode::Serializable,
        spec.num_keys,
    ));
    let (history, _) = ExecutionOptions::interleaved(5).run(&db, &workload);
    let init = history.init_txn().expect("the simulator seeds ⊥T");
    let mut commits: Vec<_> = history.txns().iter().filter(|t| t.id != init).collect();
    commits.sort_by_key(|t| t.end);
    let mut checker = IncrementalChecker::new_sser().with_init_keys(history.txn(init).write_set());
    for txn in commits {
        assert_eq!(checker.push(txn.clone()), Ok(StreamStatus::ConsistentSoFar));
    }
    assert!(checker.order_stats().forward > 0);
    assert_eq!(checker.order_stats().reorders, 0);
    let txns = checker.txn_count();
    assert!(txns > 800, "{txns} transactions");
    assert!(
        checker.live_node_count() <= 2 * txns,
        "{} nodes for {txns} transactions",
        checker.live_node_count()
    );
}
