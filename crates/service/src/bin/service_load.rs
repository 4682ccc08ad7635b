//! Load generator and acceptance smoke for the verification daemon.
//!
//! Two modes:
//!
//! * **Curve** (default): drive `--tenants 1,2,4,8` concurrent tenants
//!   against a daemon (an external one via `--addr`, else a freshly
//!   spawned in-process one) and record the scaling curve — sustained
//!   verified txns/s and p99 ingest latency per tenant count — as JSON
//!   (`--out PATH`, stdout by default).
//!
//! * **Smoke** (`--smoke`): the CI acceptance run. Spawns the
//!   `mtc_service_server` binary as a child, drives 8 concurrent tenants
//!   to completion demanding zero event loss (backpressure may refuse,
//!   admitted events must all be checked), then SIGKILLs a second daemon
//!   mid-ingest and proves every tenant resumes from its WAL checkpoint
//!   to a verdict bit-identical to a clean replay of the same log —
//!   locally via `mtc_store::recover`, and end-to-end by restarting the
//!   daemon on the same root, re-sending the unacknowledged suffix and
//!   closing every tenant clean.
//!
//! Exit code 0 on success; nonzero with a diagnostic otherwise.

use mtc_core::{check_streaming, IsolationLevel};
use mtc_service::loadgen::{drive, synthetic_events, LoadSpec};
use mtc_service::{ServiceClient, ServiceConfig, ServiceServer};
use serde::Serialize;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// One emitted scaling point.
#[derive(Serialize)]
struct CurvePoint {
    tenants: usize,
    total_txns: u64,
    wall_ms: f64,
    txns_per_sec: f64,
    p99_ingest_ms: f64,
    backpressure_hits: u64,
}

/// The emitted document.
#[derive(Serialize)]
struct CurveReport {
    schema: u32,
    sessions: u32,
    txns_per_session: u32,
    points: Vec<CurvePoint>,
}

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1)
}

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtc_service_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Spawns the daemon binary (a sibling of this executable) rooted at
/// `root` and scrapes its announced address.
fn spawn_daemon(root: &Path, extra: &[&str]) -> (Child, SocketAddr) {
    let me = std::env::current_exe().expect("own path");
    let server = me
        .parent()
        .expect("executable has a directory")
        .join("mtc_service_server");
    let mut child = Command::new(&server)
        .arg("--root")
        .arg(root)
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| fail(&format!("cannot spawn {}: {e}", server.display())));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("daemon announces its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| fail(&format!("unexpected announcement: {line:?}")))
        .parse()
        .expect("announced address parses");
    (child, addr)
}

fn sigkill(child: &mut Child) {
    let pid = child.id().to_string();
    let _ = Command::new("kill").args(["-9", &pid]).status();
    let _ = child.wait();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let tenant_counts: Vec<usize> = flag("--tenants")
        .unwrap_or_else(|| "1,2,4,8".to_string())
        .split(',')
        .map(|t| t.trim().parse().expect("--tenants takes a CSV of counts"))
        .collect();
    let txns_per_session: u32 = flag("--txns")
        .map(|v| v.parse().expect("--txns takes a number"))
        .unwrap_or(400);
    let sessions: u32 = flag("--sessions")
        .map(|v| v.parse().expect("--sessions takes a number"))
        .unwrap_or(4);
    let out = flag("--out");

    // An external daemon, or a private in-process one.
    let external: Option<SocketAddr> = flag("--addr").map(|a| a.parse().expect("--addr parses"));
    let root = temp_root("curve");
    let server = if external.is_none() {
        Some(
            ServiceServer::spawn(ServiceConfig::new(&root))
                .unwrap_or_else(|e| fail(&format!("cannot spawn in-process daemon: {e}"))),
        )
    } else {
        None
    };
    let addr = external.unwrap_or_else(|| server.as_ref().expect("spawned above").addr());

    let mut points = Vec::new();
    for (round, &tenants) in tenant_counts.iter().enumerate() {
        let spec = LoadSpec {
            tenants,
            sessions,
            txns_per_session,
            ..LoadSpec::default()
        };
        let point = drive(addr, &spec, &format!("curve{round}"))
            .unwrap_or_else(|e| fail(&format!("load run with {tenants} tenants: {e}")));
        eprintln!(
            "tenants {tenants:>3}: {:>10.0} txns/s sustained, p99 ingest {:>8.3} ms, \
             {} backpressure hits",
            point.txns_per_sec,
            point.p99_ingest_micros as f64 / 1e3,
            point.backpressure_hits
        );
        // In-process daemon: the load generator mirrored every measured
        // ingest latency into the shared registry, so the wire-scraped
        // histogram p99 must agree with the exact sorted-vec p99 (the
        // log-linear buckets quantize at ≤1.6%; demand 10%).
        if external.is_none() {
            let snapshot = ServiceClient::connect(addr)
                .and_then(|mut c| c.metrics())
                .unwrap_or_else(|e| fail(&format!("metrics scrape: {e}")));
            let hist = snapshot
                .histogram(&format!("service.ingest_micros.curve{round}"))
                .unwrap_or_else(|| fail("scraped snapshot is missing the run histogram"));
            let exact = point.p99_ingest_micros.max(1) as f64;
            let deviation = (hist.p99 as f64 - exact).abs() / exact;
            if deviation > 0.10 {
                fail(&format!(
                    "scraped ingest p99 {} µs deviates {:.1}% from measured {} µs",
                    hist.p99,
                    deviation * 1e2,
                    point.p99_ingest_micros
                ));
            }
            eprintln!(
                "             scraped p99 {:>8.3} ms agrees with measured ({:.1}% off)",
                hist.p99 as f64 / 1e3,
                deviation * 1e2
            );
        }
        points.push(CurvePoint {
            tenants: point.tenants,
            total_txns: point.total_txns,
            wall_ms: point.wall.as_secs_f64() * 1e3,
            txns_per_sec: point.txns_per_sec,
            p99_ingest_ms: point.p99_ingest_micros as f64 / 1e3,
            backpressure_hits: point.backpressure_hits,
        });
    }
    if let Some(server) = server {
        let _ = server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    let report = CurveReport {
        schema: 1,
        sessions,
        txns_per_session,
        points,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// The acceptance smoke: zero-loss multi-tenant load, then kill/resume.
fn smoke() {
    const LEVEL: IsolationLevel = IsolationLevel::Serializability;

    // ---- Phase A: 8 concurrent tenants, zero loss under backpressure ----
    let root_a = temp_root("smoke_load");
    let (mut daemon, addr) = spawn_daemon(&root_a, &["--queue-cap", "256"]);
    let spec = LoadSpec {
        tenants: 8,
        sessions: 4,
        txns_per_session: 200,
        level: LEVEL,
        ..LoadSpec::default()
    };
    // drive() fails on any lost event or spurious violation.
    let point = drive(addr, &spec, "smoke")
        .unwrap_or_else(|e| fail(&format!("phase A (8-tenant load): {e}")));
    println!(
        "phase A ok: 8 tenants, {} events verified, {:.0} txns/s sustained, \
         p99 ingest {:.3} ms, {} backpressure hits, zero loss",
        point.total_txns,
        point.txns_per_sec,
        point.p99_ingest_micros as f64 / 1e3,
        point.backpressure_hits
    );
    sigkill(&mut daemon);
    let _ = std::fs::remove_dir_all(&root_a);

    // ---- Phase B: SIGKILL mid-ingest, checkpoint resume, bit-identical ----
    let root = temp_root("smoke_kill");
    let (mut daemon, addr) = spawn_daemon(&root, &["--checkpoint-every", "64"]);
    let kr_spec = LoadSpec {
        tenants: 4,
        sessions: 4,
        txns_per_session: 300,
        level: LEVEL,
        ..LoadSpec::default()
    };
    let total = kr_spec.events_per_tenant() as usize;
    let half = total / 2;
    let streams: Vec<_> = (0..kr_spec.tenants)
        .map(|t| synthetic_events(&kr_spec, t))
        .collect();

    let mut client = ServiceClient::connect(addr).expect("connect");
    let mut ids = Vec::new();
    for (t, events) in streams.iter().enumerate() {
        let open = client
            .open_tenant(&format!("kr-{t}"), LEVEL, kr_spec.num_keys)
            .expect("open tenant");
        for chunk in events[..half].chunks(kr_spec.batch) {
            client
                .ingest_all(open.tenant, chunk.to_vec(), Duration::from_micros(200))
                .expect("ingest first half");
        }
        ids.push(open.tenant);
    }
    // Wait until every tenant has written at least one checkpoint, so the
    // resume below actually starts from a snapshot rather than log replay.
    for &id in &ids {
        loop {
            let status = client.status(id).expect("status");
            if status.checkpoints >= 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    sigkill(&mut daemon);
    println!("phase B: daemon SIGKILLed mid-ingest ({half} of {total} events sent per tenant)");

    // Local proof: for every tenant WAL, resuming from the newest
    // checkpoint plus tail replay reaches a verdict *bit-identical* to
    // replaying the whole log from scratch.
    let mut logged = Vec::new();
    for t in 0..kr_spec.tenants {
        let dir = root.join(format!("kr-{t}"));
        let recovery = mtc_store::recover(&dir)
            .unwrap_or_else(|e| fail(&format!("tenant kr-{t}: recover: {e}")));
        if recovery.snapshot.is_none() {
            fail(&format!("tenant kr-{t}: no checkpoint despite waiting"));
        }
        let (events, resume_from) = (recovery.txns.len(), recovery.resume_from);
        let scratch_verdict =
            check_streaming(LEVEL, &recovery.to_history()).expect("scratch stream checks");
        let resumed_verdict = recovery.resume().finish().expect("resumed stream checks");
        if resumed_verdict != scratch_verdict {
            fail(&format!(
                "tenant kr-{t}: checkpoint-resumed verdict {resumed_verdict:?} differs from \
                 clean replay {scratch_verdict:?}"
            ));
        }
        if events > half {
            fail(&format!(
                "tenant kr-{t}: log holds {events} events but only {half} were ever sent"
            ));
        }
        println!(
            "  kr-{t}: {events} events logged (resume from {resume_from}), resumed verdict == \
             clean replay"
        );
        logged.push(events);
    }

    // End-to-end proof: restart the daemon on the same root; every tenant
    // resumes from its checkpoint; the client re-sends the unacknowledged
    // suffix and the stream closes clean with nothing lost and nothing
    // double-counted.
    let (mut daemon, addr) = spawn_daemon(&root, &["--checkpoint-every", "64"]);
    let mut client = ServiceClient::connect(addr).expect("reconnect");
    let mut any_from_checkpoint = false;
    for (t, events) in streams.iter().enumerate() {
        let open = client
            .open_tenant(&format!("kr-{t}"), LEVEL, kr_spec.num_keys)
            .expect("reopen tenant");
        if open.resumed_txns != logged[t] as u64 {
            fail(&format!(
                "tenant kr-{t}: daemon resumed {} events, local recovery saw {}",
                open.resumed_txns, logged[t]
            ));
        }
        any_from_checkpoint |= open.from_checkpoint;
        // The daemon acknowledged (and logged) exactly `resumed_txns`
        // events; everything after that is the client's to re-send.
        for chunk in events[open.resumed_txns as usize..].chunks(kr_spec.batch) {
            client
                .ingest_all(open.tenant, chunk.to_vec(), Duration::from_micros(200))
                .expect("ingest suffix");
        }
        let summary = client.close_tenant(open.tenant).expect("close tenant");
        if summary.checked != total as u64 {
            fail(&format!(
                "tenant kr-{t}: {} checked after resume, expected {total}",
                summary.checked
            ));
        }
        if summary.violated {
            fail(&format!(
                "tenant kr-{t}: clean stream reported violated after resume (first at {:?})",
                summary.first_violation_at
            ));
        }
        // Final local check: the reunited log replays clean from scratch.
        let recovery =
            mtc_store::recover(root.join(format!("kr-{t}"))).expect("post-close recover");
        let verdict = check_streaming(LEVEL, &recovery.to_history()).expect("final replay");
        if !verdict.is_satisfied() || recovery.txns.len() != total {
            fail(&format!(
                "tenant kr-{t}: final log has {} events (expected {total}), verdict {verdict:?}",
                recovery.txns.len()
            ));
        }
        println!(
            "  kr-{t}: resumed at {}, closed clean with {total} checked",
            logged[t]
        );
    }
    if !any_from_checkpoint {
        fail("no tenant resumed from a checkpoint — the smoke proves nothing");
    }
    sigkill(&mut daemon);
    let _ = std::fs::remove_dir_all(&root);
    println!("smoke passed: zero loss under load; kill/resume verdicts bit-identical");
}
