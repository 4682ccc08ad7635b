//! Durable histories end to end: record, crash, resume, replay.
//!
//! ```text
//! cargo run --example record_replay
//! ```
//!
//! 1. **Record** — a fault-injected workload runs under the live verifier
//!    through [`record_streaming`]: every transaction hits the log before
//!    the checker, and the store checkpoints the checker as the log pays
//!    for it.
//! 2. **Crash** — the log tail is torn, as a kill mid-write would leave it.
//! 3. **Resume** — recovery loads the newest intact checkpoint and replays
//!    the logged tail: same verdict as the uninterrupted run, in a
//!    fraction of the work.
//! 4. **Replay** — the logged session is re-checked offline with a
//!    completely different checker (batch MTC-SI), long after the
//!    "database" is gone.

use mtc::dbsim::{ClientOptions, Database, DbConfig, FaultKind, FaultSpec, IsolationMode};
use mtc::runner::{record_streaming, replay_verify, resume_verification, Checker, RecordOptions};
use mtc::workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use mtc::{GcPolicy, IsolationLevel};
use std::time::Duration;

fn main() {
    let dir = std::env::temp_dir().join(format!("mtc_record_replay_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // ── 1. record ───────────────────────────────────────────────────────
    let spec = MtWorkloadSpec {
        sessions: 4,
        txns_per_session: 400,
        num_keys: 8,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 7,
    };
    let workload = generate_mt_workload(&spec);
    let config = DbConfig::correct(IsolationMode::Snapshot, spec.num_keys)
        .with_latency(Duration::from_micros(150), Duration::from_micros(80))
        .with_faults(
            vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.004)],
            3,
        );
    let recorded = record_streaming(
        &dir,
        &Database::new(config),
        &workload,
        &ClientOptions::default(),
        IsolationLevel::SnapshotIsolation,
        &RecordOptions {
            checkpoint_every: 128, // fsync or checkpoint every 128 recorded txns
            stop_on_violation: false,
            // Bounded resident state for long runs.
            gc: Some(GcPolicy {
                window: 4096,
                every: 1024,
            }),
        },
    )
    .expect("fresh store");
    println!(
        "recorded {} committed transactions into {}",
        recorded.committed,
        dir.display()
    );

    // ── 2. crash ────────────────────────────────────────────────────────
    if let Some(seg) = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".mtclog"))
        .max_by_key(|e| e.file_name())
    {
        // A torn half-frame, as a crash mid-write leaves behind.
        let path = seg.path();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x33, 0x00, 0x00, 0x00, 0xbe]);
        std::fs::write(&path, bytes).unwrap();
    }
    println!("crashed: log tail torn");

    // ── 3. resume ───────────────────────────────────────────────────────
    let resumed = resume_verification(&dir).expect("recovery");
    println!(
        "resumed from log index {} ({} logged txns, checkpoint used: {}, torn tail: {})",
        resumed.resumed_from, resumed.logged_txns, resumed.from_checkpoint, resumed.torn_tail
    );
    match &resumed.verdict {
        Ok(v) if v.is_satisfied() => println!("resumed verdict: satisfied"),
        Ok(v) => println!(
            "resumed verdict: VIOLATED — {}",
            v.violation().map(|x| x.to_string()).unwrap_or_default()
        ),
        Err(e) => println!("resumed verdict: not applicable ({e})"),
    }

    // ── 4. replay offline ───────────────────────────────────────────────
    let replayed = replay_verify(&dir, Checker::MtcSi).expect("replay");
    println!(
        "offline replay with {}: violated = {} ({:?})",
        Checker::MtcSi.label(),
        replayed.violated,
        replayed.duration
    );
    assert_eq!(
        replayed.violated,
        matches!(&resumed.verdict, Ok(v) if v.is_violated()),
        "resume and offline replay must agree"
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("record → crash → resume → replay: done");
}
