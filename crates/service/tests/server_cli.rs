//! The daemon's command line: a count that does not parse is a usage error
//! (exit status 2), never a silent fall back to the default.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `mtc_service_server` with `flag value` and returns its exit code,
/// killing it (and failing) if it has not exited within ten seconds — a
/// daemon that took the bad value for its default would serve forever.
fn exit_code_with(flag: &str, value: &str) -> Option<i32> {
    let root = std::env::temp_dir().join(format!("mtc_server_cli_{}", std::process::id()));
    let mut child = Command::new(env!("CARGO_BIN_EXE_mtc_service_server"))
        .args(["--root", root.to_str().expect("utf-8 temp dir")])
        .args(["--addr", "127.0.0.1:0", flag, value])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("the daemon binary starts");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("the child can be waited on") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            let _ = std::fs::remove_dir_all(&root);
            panic!("`{flag} {value}` was accepted: the daemon still ran after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_dir_all(&root);
    status.code()
}

#[test]
fn a_count_that_does_not_parse_is_a_usage_error() {
    for flag in ["--queue-cap", "--checkpoint-every", "--drain-workers"] {
        assert_eq!(exit_code_with(flag, "two"), Some(2), "{flag} two");
    }
}
