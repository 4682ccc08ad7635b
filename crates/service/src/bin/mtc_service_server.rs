//! The verification daemon: tenant streams over framed TCP, until killed.
//!
//! ```text
//! mtc_service_server --root DIR [--addr 127.0.0.1:0] [--queue-cap N]
//!                    [--checkpoint-every N] [--drain-workers N]
//! mtc_service_server --metrics-json --addr HOST:PORT
//! ```
//!
//! `--checkpoint-every N` (default 256) is a floor: every N recorded events
//! of a tenant its WAL is fsynced, or a checkpoint is written instead once
//! the log since the newest one has grown to that one's size.
//!
//! Prints `listening on <addr>` on stdout once bound (the line the smoke
//! harnesses scrape), then serves until the process dies. There is no
//! graceful-shutdown path on purpose: crash-resume from the per-tenant
//! WALs *is* the shutdown story, and the smoke tests SIGKILL this binary
//! to prove it.
//!
//! Observability is on: metric recording is enabled, structured one-line
//! JSON events (startup, connection-accepted, tenant-open/close,
//! violation) go to stderr, and the daemon answers
//! `Request::MetricsSnapshot` on its ordinary port. `--metrics-json`
//! dials a *running* daemon at `--addr`, fetches one snapshot, prints it
//! as JSON on stdout and exits.

use mtc_obs::events::JsonValue;
use mtc_service::{serve, ServiceClient, ServiceConfig, ServiceCore};
use serde::Serialize as _;
use std::io::Write;
use std::net::{TcpListener, ToSocketAddrs};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: mtc_service_server --root DIR [--addr HOST:PORT] [--queue-cap N] \
         [--checkpoint-every N] [--drain-workers N]\n\
         \u{20}      mtc_service_server --metrics-json --addr HOST:PORT\n\
         --checkpoint-every N: every N events a tenant's WAL is fsynced, or \
         checkpointed once the log since the last checkpoint outweighs it (default 256)"
    );
    std::process::exit(2)
}

/// A flag's count, or [`usage`] when it is not one.
fn number(value: String) -> usize {
    value.parse().unwrap_or_else(|_| usage())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut root: Option<String> = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut queue_cap: Option<usize> = None;
    let mut checkpoint_every: Option<usize> = None;
    let mut drain_workers: Option<usize> = None;
    let mut metrics_json = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--root" => root = Some(value()),
            "--addr" => addr = value(),
            "--queue-cap" => queue_cap = Some(number(value())),
            "--checkpoint-every" => checkpoint_every = Some(number(value())),
            "--drain-workers" => drain_workers = Some(number(value())),
            "--metrics-json" => metrics_json = true,
            _ => usage(),
        }
    }

    if metrics_json {
        match scrape_metrics(&addr) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("cannot scrape {addr}: {e}");
                std::process::exit(1)
            }
        }
        return;
    }

    let Some(root) = root else { usage() };

    let mut config = ServiceConfig::new(root);
    if let Some(cap) = queue_cap {
        config = config.queue_cap(cap);
    }
    if let Some(every) = checkpoint_every {
        config = config.checkpoint_every(every);
    }
    if let Some(workers) = drain_workers {
        config = config.drain_workers(workers);
    }

    let core = Arc::new(ServiceCore::new(config).unwrap_or_else(|e| {
        eprintln!("cannot initialize service root: {e}");
        std::process::exit(1)
    }));
    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1)
    });
    let local = listener.local_addr().expect("bound socket has an address");
    println!("listening on {local}");
    let _ = std::io::stdout().flush();

    mtc_obs::set_enabled(true);
    mtc_obs::events::log_to_stderr();
    mtc_obs::events::emit(
        "startup",
        &[
            ("role", JsonValue::Str("service".to_string())),
            ("addr", JsonValue::Str(local.to_string())),
            (
                "root",
                JsonValue::Str(core.config().root.display().to_string()),
            ),
            ("queue_cap", JsonValue::U64(core.config().queue_cap as u64)),
            (
                "checkpoint_every",
                JsonValue::U64(core.config().checkpoint_every as u64),
            ),
            (
                "drain_workers",
                JsonValue::U64(core.config().drain_workers as u64),
            ),
        ],
    );

    let drain_core = Arc::clone(&core);
    std::thread::spawn(move || drain_core.run_drain());

    let shutdown = AtomicBool::new(false);
    if let Err(e) = serve(core.as_ref(), listener, &shutdown) {
        eprintln!("accept loop failed: {e}");
        std::process::exit(1)
    }
}

/// Dials a running daemon, fetches one `MetricsSnapshot`, and renders the
/// reply as one JSON document.
fn scrape_metrics(addr: &str) -> std::io::Result<String> {
    let target = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("{addr} resolves to no address")))?;
    let snapshot = ServiceClient::connect(target)?.metrics()?;
    let mut out = String::new();
    snapshot.to_json_value().render(&mut out);
    Ok(out)
}
