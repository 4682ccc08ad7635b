//! Online checking: verify the simulated database *while* it executes.
//!
//! Three ways to use the streaming engine are shown:
//!
//! 1. the high-level path — a [`LiveVerifier`] attached to an
//!    [`ExecutionOptions`] run, with `stop_on_violation` so a buggy database
//!    run ends at the first violation instead of at the end of the workload;
//! 2. the low-level path — driving an [`IncrementalChecker`] by hand,
//!    transaction by transaction, and watching it latch;
//! 3. the strict-serializability path — `IncrementalChecker::new_sser()`
//!    catching a commit-timestamp-skew bug that SER cannot see.
//!
//! Run with `cargo run --release --example streaming_check`.

use mtc::core::{IncrementalChecker, IsolationLevel, StreamStatus};
use mtc::dbsim::{
    Database, DbConfig, ExecutionOptions, FaultKind, FaultSpec, IsolationMode, LiveVerifier,
};
use mtc::history::Op;
use mtc::workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use std::time::Duration;

fn main() {
    // ── 1. Live verification of a buggy snapshot-isolation database. ──
    let spec = MtWorkloadSpec {
        sessions: 4,
        txns_per_session: 200,
        num_keys: 4,
        distribution: Distribution::Zipf { theta: 1.0 },
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 7,
    };
    let workload = generate_mt_workload(&spec);

    // The store promises SI but skips first-committer-wins 60% of the time:
    // the classic lost-update bug.
    let config = DbConfig::correct(IsolationMode::Snapshot, spec.num_keys)
        .with_latency(Duration::from_micros(200), Duration::from_micros(100))
        .with_faults(vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.6)], 7);
    let db = Database::new(config);

    let verifier = LiveVerifier::builder(IsolationLevel::SnapshotIsolation, spec.num_keys)
        .stop_on_violation(true)
        .build();
    let (_, report) = ExecutionOptions::threaded()
        .verifier(&verifier)
        .run(&db, &workload);
    let outcome = verifier.finish();

    println!("── live verification of a buggy SI store ──");
    println!(
        "executed {} transactions ({} attempts) in {:?}",
        report.committed, report.attempts, report.wall_time
    );
    match (&outcome.verdict, &outcome.first_violation) {
        (Ok(verdict), Some(first)) => {
            println!(
                "violation latched after {} transactions ({:?} into the run):",
                first.at_txn, first.elapsed
            );
            if let Some(v) = verdict.violation() {
                println!("  {v}");
            }
            println!(
                "the workload had {} transactions — the tail was never executed",
                workload.txn_count()
            );
        }
        (Ok(_), None) => println!("no violation found (try a different seed)"),
        (Err(e), _) => println!("history left the checker's domain: {e}"),
    }

    // ── 2. Driving the incremental checker by hand. ──
    println!("\n── hand-fed incremental checker (write skew) ──");
    let mut checker = IncrementalChecker::new_ser().with_init_keys(0..2u64);
    let steps: Vec<(u32, Vec<Op>)> = vec![
        // T1 reads both accounts, withdraws from the first.
        (
            0,
            vec![
                Op::read(0u64, 0u64),
                Op::read(1u64, 0u64),
                Op::write(0u64, 10u64),
            ],
        ),
        // T2 concurrently reads both accounts, withdraws from the second.
        (
            1,
            vec![
                Op::read(0u64, 0u64),
                Op::read(1u64, 0u64),
                Op::write(1u64, 20u64),
            ],
        ),
    ];
    for (i, (session, ops)) in steps.into_iter().enumerate() {
        let status = checker.push_committed(session, ops).unwrap();
        println!(
            "after transaction {}: {}",
            i + 1,
            match status {
                StreamStatus::ConsistentSoFar => "consistent so far".to_string(),
                StreamStatus::Violated =>
                    format!("VIOLATED — {}", checker.violation().expect("latched")),
            }
        );
    }
    let verdict = checker.finish().unwrap();
    assert!(verdict.is_violated(), "write skew must be rejected");

    // ── 3. Online strict serializability: a stale read after commit. ──
    // T1 = [10, 20] installs x = 1; T2 = [30, 40] begins after T1's commit
    // was acknowledged yet still reads the initial value. SER admits the
    // serial order T2, T1 — real time does not.
    println!("\n── hand-fed SSER checker (stale read after commit) ──");
    let mut sser = IncrementalChecker::new_sser().with_init_keys(0..1u64);
    sser.push_committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 20)
        .unwrap();
    let status = sser
        .push_committed_timed(1, vec![Op::read(0u64, 0u64)], 30, 40)
        .unwrap();
    println!(
        "after the stale read: {}",
        match status {
            StreamStatus::ConsistentSoFar => "consistent so far".to_string(),
            StreamStatus::Violated => format!("VIOLATED — {}", sser.violation().expect("latched")),
        }
    );
    let verdict = sser.finish().unwrap();
    assert!(
        verdict.is_violated(),
        "stale read after commit must be rejected"
    );
}
