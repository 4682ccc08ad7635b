//! Wire-crash smoke test: SIGKILL the *server* mid-stream (the CI job).
//!
//! The parent re-spawns this binary as a server child wrapping the
//! strict-serializable simulator behind the framed TCP protocol; a watchdog
//! thread SIGKILLs the child mid-workload — no FIN handshakes, no
//! server-side cleanup, exactly the disappearance a remote backend client
//! must survive. The parent drives a concurrent workload against it and
//! asserts, after the kill:
//!
//! 1. the drivers finish without panicking — every wire failure surfaced as
//!    a typed `AbortReason` (`ConnectionLost` before commit,
//!    `CommitStatusUnknown` after);
//! 2. the collected history — whatever committed before the kill, fenced by
//!    the recording rules that keep ambiguous commits out — still passes
//!    the engine's promised level;
//! 3. a clean streaming replay of that history gives the batch checker's
//!    verdict.
//!
//! ```text
//! cargo run --release -p mtc-runner --bin net_crash_smoke
//! ```
//!
//! Exit code 0 on success; nonzero (with a diagnostic) on any mismatch.

use mtc_core::{check_sser, check_streaming, IsolationLevel};
use mtc_dbsim::{DbBackend, ExecutionOptions};
use mtc_net::{spec_for_label, NetBackend};
use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use std::io::BufRead;
use std::process::{Command, Stdio};
use std::time::Duration;

const LEVEL: IsolationLevel = IsolationLevel::StrictSerializability;
const ENGINE: &str = "sim-ser";

fn workload_spec() -> MtWorkloadSpec {
    MtWorkloadSpec {
        sessions: 4,
        txns_per_session: 1500,
        num_keys: 16,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 47,
    }
}

/// Server child: serve the engine on an ephemeral port, print the address,
/// and let the watchdog SIGKILL us mid-stream.
fn server_child(kill_after_ms: u64) -> ! {
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(kill_after_ms));
        let me = std::process::id().to_string();
        let _ = Command::new("kill").args(["-9", &me]).status();
        // If there is no `kill` binary, die almost as abruptly.
        std::process::abort();
    });
    let spec = workload_spec();
    let backend_spec = spec_for_label(ENGINE, spec.num_keys).expect("fleet label resolves");
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("ephemeral loopback bind");
    println!("listening on {}", listener.local_addr().expect("bound"));
    use std::io::Write;
    let _ = std::io::stdout().flush();
    let backend = backend_spec.build();
    let shutdown = std::sync::atomic::AtomicBool::new(false);
    let _ = mtc_net::serve(backend.as_ref(), listener, &shutdown);
    std::process::exit(0)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--server") {
        let kill_after_ms = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(400u64);
        server_child(kill_after_ms);
    }

    let exe = std::env::current_exe().expect("own path");
    let mut child = Command::new(&exe)
        .args(["--server", "400"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server child");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("server child announces its address");
    let addr: std::net::SocketAddr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("announcement format")
        .parse()
        .expect("announced address parses");
    println!("server child up on {addr}, SIGKILL in ~400ms");

    let backend = NetBackend::connect(addr).expect("loopback connect");
    let workload = generate_mt_workload(&workload_spec());
    let (history, report) = ExecutionOptions::threaded().run(&backend, &workload);
    let status = child.wait().expect("server child reaped");
    println!(
        "drivers survived the kill (child exit: {status}): {} committed, {} failed, \
         {} aborted attempts, {} txns recorded",
        report.committed,
        report.failed,
        report.aborted_attempts,
        history.len()
    );
    if report.committed == 0 {
        eprintln!("FAIL: nothing committed before the kill — the smoke proves nothing");
        std::process::exit(1);
    }
    if report.failed == 0 {
        eprintln!("FAIL: no template failed — did the server actually die mid-stream?");
        std::process::exit(1);
    }
    // The backend's promise must have reached us in the handshake.
    assert!(
        backend.promises(LEVEL),
        "handshake lost the engine's promises"
    );

    // The partial history must pass the promised level, and a clean
    // streaming replay of it must agree with batch.
    let batch = check_sser(&history).expect("history is inside the checker domain");
    let streaming = check_streaming(LEVEL, &history).expect("streamable");
    if batch.is_violated() {
        eprintln!(
            "FAIL: the recorded history violates the engine's promised level:\n{:?}",
            batch.violation()
        );
        std::process::exit(1);
    }
    if streaming != batch {
        eprintln!("FAIL: the streaming replay disagrees with the batch checker");
        eprintln!("  batch:     {batch:?}");
        eprintln!("  streaming: {streaming:?}");
        std::process::exit(1);
    }
    println!(
        "OK: streaming replay and batch agree ({} committed txns checked)",
        report.committed
    );
}
