//! Crash–resume smoke test, process-kill edition (the CI job).
//!
//! The parent re-spawns this binary as a *recorder child*: the child runs a
//! fault-injected workload under the durable live verifier (write-ahead log
//! plus periodic checkpoints) while a watchdog thread SIGKILLs the process
//! mid-stream — no destructors, no final sync, exactly the crash the store
//! layer exists for. The parent then recovers the directory, resumes
//! verification from the newest intact checkpoint, and asserts the verdict
//! equals a clean from-scratch verification of the same logged stream.
//!
//! The parent also asserts that at least two checkpoints were on disk at the
//! kill, so recovery chose among several (newest first, the torn or damaged
//! ones passed over) rather than loading the only file there was.
//!
//! ```text
//! cargo run --release -p mtc-runner --bin crash_resume_smoke
//! ```
//!
//! Exit code 0 on success; nonzero (with a diagnostic) on any mismatch.

use mtc_core::check_streaming;
use mtc_runner::{record_streaming, resume_verification, RecordOptions};
use mtc_store::recover;
use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use std::process::Command;
use std::time::Duration;

const LEVEL: mtc_core::IsolationLevel = mtc_core::IsolationLevel::SnapshotIsolation;

fn workload_spec() -> MtWorkloadSpec {
    MtWorkloadSpec {
        sessions: 4,
        txns_per_session: 4000,
        num_keys: 8,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 41,
    }
}

fn child(dir: &str) -> ! {
    use mtc_dbsim::{ClientOptions, Database, DbConfig, FaultKind, FaultSpec, IsolationMode};
    // The watchdog: SIGKILL ourselves mid-stream. `kill -9` cannot be
    // caught or cleaned up after — the log tail is whatever made it to the
    // OS, which is the point.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_millis(500));
        let me = std::process::id().to_string();
        let _ = Command::new("kill").args(["-9", &me]).status();
        // If there is no `kill` binary, die almost as abruptly.
        std::process::abort();
    });
    let spec = workload_spec();
    let workload = generate_mt_workload(&spec);
    // Injected lost updates + latency so the run outlives the watchdog.
    let config = DbConfig::correct(IsolationMode::Snapshot, spec.num_keys)
        .with_latency(Duration::from_micros(300), Duration::from_micros(150))
        .with_faults(
            vec![FaultSpec::new(FaultKind::SkipWriteValidation, 0.01)],
            11,
        );
    let out = record_streaming(
        dir,
        &Database::new(config),
        &workload,
        &ClientOptions::default(),
        LEVEL,
        &RecordOptions {
            // A tight floor: the un-GC'd snapshots grow with the stream, so
            // checkpoints fall further apart each time, but even a slow child
            // (cold page cache, loaded CI box) writes several before the
            // watchdog fires.
            checkpoint_every: 16,
            stop_on_violation: false,
            gc: None,
        },
    )
    .expect("recorder must start");
    // Reaching this point means the workload finished before the watchdog
    // fired; the parent still validates recovery of the complete log.
    eprintln!(
        "child: finished before the kill ({} txns checked)",
        out.checked_txns
    );
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--child") {
        child(args.get(2).expect("--child <dir>"));
    }

    let dir = std::env::temp_dir().join(format!("mtc_crash_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().expect("own path");
    let status = Command::new(&exe)
        .arg("--child")
        .arg(&dir)
        .status()
        .expect("spawn recorder child");
    println!("recorder child exited with {status} (kill expected)");

    // The checkpoint floor (16 txns over a multi-second workload) gives
    // several checkpoints before the 500 ms watchdog fires, and the store
    // keeps the newest three: recovery must choose among them.
    let checkpoints = std::fs::read_dir(&dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".mtcck"))
                .count()
        })
        .unwrap_or(0);
    println!("checkpoints on disk: {checkpoints}");
    if checkpoints < 2 {
        eprintln!("FAIL: fewer than two checkpoints on disk at the kill");
        std::process::exit(1);
    }

    let resumed = resume_verification(&dir).expect("store must recover");
    println!(
        "resume: {} logged txns, resumed from {} (checkpoint: {}), torn tail: {}",
        resumed.logged_txns, resumed.resumed_from, resumed.from_checkpoint, resumed.torn_tail
    );
    if resumed.logged_txns == 0 {
        eprintln!("FAIL: the child recorded nothing before dying");
        std::process::exit(1);
    }

    // Reference: verify the very same logged stream from scratch.
    let recovery = recover(&dir).expect("store must recover");
    let clean = check_streaming(LEVEL, &recovery.to_history());
    let resumed_verdict = &resumed.verdict;
    let matches = match (&clean, resumed_verdict) {
        (Ok(a), Ok(b)) => a == b,
        (Err(a), Err(b)) => format!("{a}") == format!("{b}"),
        _ => false,
    };
    if !matches {
        eprintln!("FAIL: resumed verdict diverges from the clean run");
        eprintln!("  clean:   {clean:?}");
        eprintln!("  resumed: {resumed_verdict:?}");
        std::process::exit(1);
    }
    println!("verdicts match: {resumed_verdict:?}");
    let _ = std::fs::remove_dir_all(&dir);
    println!("crash-resume smoke PASSED");
}
