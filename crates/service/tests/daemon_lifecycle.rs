//! Daemon lifecycle tests: open/ingest/status/close round trips, reattach
//! and mismatch handling, a tenant log of another format version refused
//! and left as it was, deterministic backpressure with zero loss, role
//! separation, hostile scalars and names refused at admission, what the drain
//! threads must hold (order per tenant, a prompt stop), and SIGKILL + checkpoint
//! resume bit-identical to a clean replay (against the real
//! `mtc_service_server` binary).

use mtc_core::IsolationLevel;
use mtc_service::loadgen::{synthetic_events, LoadSpec};
use mtc_service::{IngestOutcome, ServiceClient, ServiceConfig, ServiceServer};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtc_lifecycle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec() -> LoadSpec {
    LoadSpec {
        tenants: 1,
        sessions: 2,
        txns_per_session: 60,
        num_keys: 8,
        ..Default::default()
    }
}

#[test]
fn open_ingest_status_close_round_trip() {
    let root = temp_root("round_trip");
    let server = ServiceServer::spawn(ServiceConfig::new(&root)).expect("daemon spawns");
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let spec = small_spec();
    let total = spec.events_per_tenant();

    let open = client
        .open_tenant("acct", spec.level, spec.num_keys)
        .expect("open");
    assert_eq!(open.resumed_txns, 0, "fresh tenant resumes nothing");
    assert!(!open.from_checkpoint);

    let refused = client
        .ingest_all(
            open.tenant,
            synthetic_events(&spec, 0),
            Duration::from_micros(200),
        )
        .expect("ingest");
    let status = client.status(open.tenant).expect("status");
    assert_eq!(status.name, "acct");
    assert_eq!(status.ingested, total);
    assert_eq!(status.queue_cap, 1024);
    assert!(!status.violated);
    assert_eq!(status.backpressured, refused);

    let summary = client.close_tenant(open.tenant).expect("close");
    assert_eq!(summary.checked, total, "close must drain and verify all");
    assert!(!summary.violated, "the synthetic stream is clean");

    // The tenant is gone: its handle no longer resolves.
    assert!(client.status(open.tenant).is_err());
    // But its WAL survives on disk for a later resume.
    assert!(root.join("acct").exists());
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn reattach_shares_the_stream_and_mismatched_meta_is_refused() {
    let root = temp_root("reattach");
    let server = ServiceServer::spawn(ServiceConfig::new(&root)).expect("daemon spawns");
    let spec = small_spec();
    let mut a = ServiceClient::connect(server.addr()).expect("connect");
    let mut b = ServiceClient::connect(server.addr()).expect("connect");

    let open_a = a
        .open_tenant("shared", spec.level, spec.num_keys)
        .expect("open");
    // A second connection opening the same name attaches to the same stream.
    let open_b = b
        .open_tenant("shared", spec.level, spec.num_keys)
        .expect("reattach");
    assert_eq!(open_a.tenant, open_b.tenant);
    // ... but only under the same meta: level or key-space drift is refused.
    assert!(b
        .open_tenant("shared", IsolationLevel::SnapshotIsolation, spec.num_keys)
        .is_err());
    assert!(b
        .open_tenant("shared", spec.level, spec.num_keys + 1)
        .is_err());

    let events = synthetic_events(&spec, 0);
    let (half_a, half_b) = events.split_at(events.len() / 2);
    a.ingest_all(open_a.tenant, half_a.to_vec(), Duration::from_micros(200))
        .expect("ingest a");
    b.ingest_all(open_b.tenant, half_b.to_vec(), Duration::from_micros(200))
        .expect("ingest b");
    let summary = a.close_tenant(open_a.tenant).expect("close");
    assert_eq!(summary.checked, spec.events_per_tenant());
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// A tenant whose directory holds a log of another format version — the v2
/// segment an older build wrote, which this build does not read — is
/// refused at `OpenTenant` with the version named, and the daemon neither
/// rewrites a byte of the directory nor adds a segment or a checkpoint.
#[test]
fn a_tenant_log_of_another_version_is_refused_and_left_as_it_was() {
    let root = temp_root("old_log");
    let dir = root.join("legacy");
    std::fs::create_dir_all(&dir).unwrap();
    let v2 =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/data/segment-v2-pr21.mtclog");
    std::fs::copy(v2, dir.join("segment-00000000.mtclog")).unwrap();
    let files = || {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                let name = e.file_name().to_string_lossy().into_owned();
                (name, std::fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    };
    let before = files();

    let server = ServiceServer::spawn(ServiceConfig::new(&root)).expect("daemon spawns");
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let refused = client
        .open_tenant("legacy", IsolationLevel::Serializability, 4)
        .expect_err("a v2 log must be refused");
    assert!(
        refused.to_string().contains("unsupported log version 2"),
        "{refused}"
    );
    server.shutdown().expect("clean shutdown");
    assert_eq!(files(), before, "the tenant directory changed");
    let _ = std::fs::remove_dir_all(&root);
}

/// Freezing the drain loop (the test side door) fills the bounded queue, so
/// admission must deterministically refuse with `Backpressure` — and after
/// unfreezing, every refused-then-retried event is verified: shedding load
/// never loses admitted events.
#[test]
fn backpressure_refuses_whole_batches_and_loses_nothing() {
    let root = temp_root("backpressure");
    let server = ServiceServer::spawn(ServiceConfig::new(&root).queue_cap(64)).expect("spawns");
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let spec = LoadSpec {
        sessions: 2,
        txns_per_session: 50,
        num_keys: 8,
        batch: 32,
        ..Default::default()
    };
    let open = client
        .open_tenant("firehose", spec.level, spec.num_keys)
        .expect("open");
    server
        .core()
        .pause_tenant(open.tenant, true)
        .expect("pause");

    let events = synthetic_events(&spec, 0);
    let mut sent = 0usize;
    let mut refused = 0u64;
    let mut stashed: Vec<_> = Vec::new();
    for chunk in events.chunks(spec.batch) {
        match client
            .ingest(open.tenant, chunk.to_vec())
            .expect("ingest call")
        {
            IngestOutcome::Accepted(n) => sent += n as usize,
            IngestOutcome::Backpressure {
                queue_depth,
                queue_cap,
            } => {
                assert_eq!(queue_cap, 64);
                assert!(
                    queue_depth + spec.batch as u64 > queue_cap,
                    "refusal must mean the batch would overflow"
                );
                refused += 1;
                stashed.extend_from_slice(chunk);
            }
        }
    }
    assert!(refused > 0, "a frozen 64-slot queue must refuse 100 events");
    assert!(sent as u64 <= 64);
    let status = client.status(open.tenant).expect("status");
    assert_eq!(status.backpressured, refused);
    assert_eq!(
        status.queue_depth, sent as u64,
        "frozen queue holds all admitted"
    );

    // Thaw and resend what was refused: nothing may be lost.
    server
        .core()
        .pause_tenant(open.tenant, false)
        .expect("unpause");
    client
        .ingest_all(open.tenant, stashed, Duration::from_micros(200))
        .expect("resend");
    let summary = client.close_tenant(open.tenant).expect("close");
    assert_eq!(summary.checked, events.len() as u64);
    assert!(!summary.violated);
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// The service role and the execution role share the protocol but not the
/// endpoints: a verification daemon refuses execution-role requests the
/// same way an execution server refuses service-role ones.
#[test]
fn the_daemon_refuses_execution_role_requests() {
    let root = temp_root("roles");
    let server = ServiceServer::spawn(ServiceConfig::new(&root)).expect("spawns");
    // A NetBackend client expects an execution server. The handshake itself
    // succeeds (same protocol), but the Hello exposes the role: a service
    // label and no promised isolation levels ...
    use mtc_dbsim::DbBackend;
    let backend = mtc_net::NetBackend::connect(server.addr()).expect("shared handshake");
    assert_eq!(backend.label(), "net/mtc-service");
    for level in [
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::Serializability,
        IsolationLevel::StrictSerializability,
    ] {
        assert!(!backend.promises(level), "a verifier promises no execution");
    }
    // ... and every execution-role request is refused, surfacing as a clean
    // typed abort rather than a hang or a protocol wedge.
    let mut txn = backend.begin();
    assert!(txn.read_register(mtc_history::Key(0)).is_err());
    drop(txn);
    drop(backend);
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// A violating stream is reported per tenant and does not disturb its
/// neighbours.
#[test]
fn a_violating_tenant_is_isolated_from_clean_neighbours() {
    let root = temp_root("violation");
    let server = ServiceServer::spawn(ServiceConfig::new(&root)).expect("spawns");
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let spec = small_spec();

    let clean = client
        .open_tenant("clean", spec.level, spec.num_keys)
        .expect("open");
    let dirty = client
        .open_tenant("dirty", spec.level, spec.num_keys)
        .expect("open");

    client
        .ingest_all(
            clean.tenant,
            synthetic_events(&spec, 0),
            Duration::from_micros(200),
        )
        .expect("clean ingest");
    // The dirty stream is a lost update — both transactions read the initial
    // version of key 0, then both overwrite it — and carries on after it.
    use mtc_dbsim::IngestEvent;
    use mtc_history::{Op, TxnStatus};
    let rmw = |session: u32, read: u64, write: u64, begin: u64| {
        let ops = vec![Op::read(0u64, read), Op::write(0u64, write)];
        IngestEvent::timed(session, ops, TxnStatus::Committed, begin, begin + 3)
    };
    let mut dirty_events = vec![rmw(0, 0, 1, 1), rmw(1, 0, 2, 2)];
    dirty_events.extend((2..7u64).map(|i| rmw(0, i, i + 1, 10 * i)));
    let sent = dirty_events.len() as u64;
    client
        .ingest_all(
            dirty.tenant,
            dirty_events.clone(),
            Duration::from_micros(200),
        )
        .expect("dirty ingest");

    let dirty_summary = client.close_tenant(dirty.tenant).expect("close dirty");
    assert!(dirty_summary.violated, "the lost update must be caught");
    // Every batch was answered `Accepted`: none of it may be missing from the
    // count or from the log because a verdict had latched by then.
    assert_eq!(dirty_summary.checked, sent);
    let logged = mtc_store::recover(root.join("dirty")).expect("recover");
    let logged: Vec<IngestEvent> = logged
        .txns
        .iter()
        .map(|t| IngestEvent {
            session: t.session.0,
            ops: t.ops.clone(),
            status: t.status,
            begin: t.begin,
            end: t.end,
        })
        .collect();
    assert_eq!(logged, dirty_events, "an admitted event is never lost");
    let clean_summary = client.close_tenant(clean.tenant).expect("close clean");
    assert!(
        !clean_summary.violated,
        "a neighbour's violation must not leak"
    );
    assert_eq!(clean_summary.checked, spec.events_per_tenant());
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// `num_keys` is a `u64` straight off the socket and `⊥T` is built over all
/// of it: 2^40 keys must be refused at the door — a typed error, nothing on
/// disk — instead of aborting the daemon and every tenant in it on a 26 TB
/// allocation.
#[test]
fn hostile_scalar_num_keys_is_refused_at_the_door() {
    let root = temp_root("hostile_keys");
    let server = ServiceServer::spawn(ServiceConfig::new(&root)).expect("spawns");
    let spec = small_spec();
    let backoff = Duration::from_micros(200);
    let mut neighbour = ServiceClient::connect(server.addr()).expect("connect");
    let next_door = neighbour
        .open_tenant("next-door", spec.level, spec.num_keys)
        .expect("open");
    let events = synthetic_events(&spec, 0);
    let (before, after) = events.split_at(events.len() / 2);
    neighbour
        .ingest_all(next_door.tenant, before.to_vec(), backoff)
        .expect("ingest");

    let mut hostile = ServiceClient::connect(server.addr()).expect("connect");
    for num_keys in [1 << 40, mtc_service::core::MAX_TENANT_KEYS + 1] {
        let refusal = hostile
            .open_tenant("greedy", spec.level, num_keys)
            .expect_err("an absurd key space must be refused");
        assert!(refusal.to_string().contains("keys"), "{refusal}");
        assert!(!root.join("greedy").exists(), "nothing may reach the disk");
    }
    // The refused connection is still served ...
    let modest = hostile
        .open_tenant("greedy", spec.level, spec.num_keys)
        .expect("a sane key space opens");
    hostile.close_tenant(modest.tenant).expect("close");
    // ... and the tenant next door never noticed.
    neighbour
        .ingest_all(next_door.tenant, after.to_vec(), backoff)
        .expect("ingest");
    let summary = neighbour.close_tenant(next_door.tenant).expect("close");
    assert_eq!(summary.checked, spec.events_per_tenant());
    assert!(!summary.violated);
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// The checker indexes a dense table by session id, and every snapshot
/// carries it: one event naming session 20 000 000 would cost the tenant
/// 150 MB of memory and 20 MB per checkpoint for good. The batch holding it
/// is refused whole.
#[test]
fn hostile_scalar_session_id_refuses_the_whole_batch() {
    let root = temp_root("hostile_session");
    let server = ServiceServer::spawn(ServiceConfig::new(&root)).expect("spawns");
    let spec = small_spec();
    let backoff = Duration::from_micros(200);
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let victim = client
        .open_tenant("victim", spec.level, spec.num_keys)
        .expect("open");
    let next_door = client
        .open_tenant("next-door", spec.level, spec.num_keys)
        .expect("open");
    let events = synthetic_events(&spec, 0);
    let (before, after) = events.split_at(events.len() / 2);
    for tenant in [victim.tenant, next_door.tenant] {
        client
            .ingest_all(tenant, before.to_vec(), backoff)
            .expect("ingest");
    }

    for session in [20_000_000, u32::MAX - 1, mtc_service::core::MAX_SESSIONS] {
        let mut poisoned = after.to_vec();
        poisoned[1].session = session;
        let refusal = client
            .ingest(victim.tenant, poisoned)
            .expect_err("an absurd session id must be refused");
        assert!(refusal.to_string().contains("session"), "{refusal}");
        let status = client.status(victim.tenant).expect("status");
        assert_eq!(
            status.ingested,
            before.len() as u64,
            "a refused batch queues nothing"
        );
    }
    // The same batch without the poison is admitted, and both tenants close
    // clean over the whole stream.
    for tenant in [victim.tenant, next_door.tenant] {
        client
            .ingest_all(tenant, after.to_vec(), backoff)
            .expect("ingest");
        let summary = client.close_tenant(tenant).expect("close");
        assert_eq!(summary.checked, spec.events_per_tenant());
        assert!(!summary.violated);
    }
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

/// A tenant name becomes a directory under the WAL root and part of a metric
/// name, and arrives straight off the socket: anything but 1–64 bytes of
/// `[A-Za-z0-9_-]` is refused before either exists. (Two names that differed
/// only outside that alphabet used to open two stores over one directory.)
#[test]
fn hostile_tenant_names_are_refused_at_the_door() {
    let root = temp_root("hostile_names");
    let server = ServiceServer::spawn(ServiceConfig::new(&root)).expect("spawns");
    let spec = small_spec();
    let mut client = ServiceClient::connect(server.addr()).expect("connect");
    let too_long = "n".repeat(65);
    for name in ["", "a/b", "../x", ".", "a b", "é", too_long.as_str()] {
        let refusal = client
            .open_tenant(name, spec.level, spec.num_keys)
            .expect_err("a name outside [A-Za-z0-9_-]{1,64} must be refused");
        assert!(refusal.to_string().contains("tenant name"), "{refusal}");
        assert_eq!(
            std::fs::read_dir(&root).expect("root exists").count(),
            0,
            "{name:?}: nothing may reach the disk"
        );
    }
    // The refused connection is still served, and the longest legal name is.
    let open = client
        .open_tenant("a_b", spec.level, spec.num_keys)
        .expect("a conforming name opens");
    assert!(root.join("a_b").is_dir());
    client.close_tenant(open.tenant).expect("close");
    let longest = client
        .open_tenant(&too_long[1..], spec.level, spec.num_keys)
        .expect("64 bytes open");
    client.close_tenant(longest.tenant).expect("close");
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
}

// ───────────────────────── what the drain threads hold ─────────────────────

/// One key, every transaction reading what the one before it wrote — except
/// transaction `stale_at`, which reads what its predecessor read (a lost
/// update). Any two events recorded out of order change the verdict's index.
fn chain_with_a_lost_update(len: u64, stale_at: u64) -> Vec<mtc_dbsim::IngestEvent> {
    use mtc_history::{Op, TxnStatus};
    (0..len)
        .map(|i| {
            let read = if i == stale_at { i - 1 } else { i };
            let ops = vec![Op::read(0u64, read), Op::write(0u64, i + 1)];
            let session = (i % 3) as u32;
            mtc_dbsim::IngestEvent::timed(session, ops, TxnStatus::Committed, 10 * i, 10 * i + 3)
        })
        .collect()
}

/// More drain workers than tenants: the single-flight lock is all that keeps
/// a tenant's batches in admission order. Every tenant's summary equals the
/// streaming checker's over the same events.
#[test]
fn four_drain_workers_keep_every_tenant_in_admission_order() {
    let level = IsolationLevel::Serializability;
    for tenants in [1u64, 3] {
        let root = temp_root(&format!("drain_workers_{tenants}"));
        let server = ServiceServer::spawn(ServiceConfig::new(&root).drain_workers(4))
            .expect("daemon spawns");
        let addr = server.addr();
        std::thread::scope(|scope| {
            for t in 0..tenants {
                scope.spawn(move || {
                    let events = chain_with_a_lost_update(400, 350 + 7 * t);
                    let mut builder = mtc_history::HistoryBuilder::new().with_init(1);
                    for e in &events {
                        let (begin, end) = (e.begin.unwrap(), e.end.unwrap());
                        builder.push_timed(e.session, e.ops.clone(), e.status, begin, end);
                    }
                    let mut reference = mtc_core::IncrementalChecker::new(level);
                    let _ = reference.push_history(&builder.build());
                    let expected_at = reference.first_violation_at().map(|id| id.index() as u64);
                    assert!(reference.finish().expect("in domain").is_violated());

                    let mut client = ServiceClient::connect(addr).expect("connect");
                    let open = client
                        .open_tenant(&format!("chain-{t}"), level, 1)
                        .expect("open");
                    for batch in events.chunks(7) {
                        client
                            .ingest_all(open.tenant, batch.to_vec(), Duration::from_micros(200))
                            .expect("ingest");
                    }
                    let summary = client.close_tenant(open.tenant).expect("close");
                    assert_eq!(summary.checked, events.len() as u64, "tenant {t}");
                    assert!(summary.violated, "tenant {t}");
                    assert_eq!(summary.first_violation_at, expected_at, "tenant {t}");
                });
            }
        });
        server.shutdown().expect("clean shutdown");
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// Stopping a daemon whose drain has just been handed work never hangs: 200
/// times over, `shutdown()` joins the drain threads within two seconds. (The
/// cycles run on a thread of their own so that a hang fails the test instead
/// of hanging it.)
#[test]
fn shutdown_joins_the_drain_every_time() {
    let root = temp_root("shutdown_cycles");
    let (done, cycles) = std::sync::mpsc::channel();
    let cycle_root = root.clone();
    std::thread::spawn(move || {
        let spec = small_spec();
        let batch: Vec<_> = synthetic_events(&spec, 0).into_iter().take(64).collect();
        for i in 0..200 {
            let server = ServiceServer::spawn(ServiceConfig::new(cycle_root.join(format!("{i}"))))
                .expect("daemon spawns");
            let mut client = ServiceClient::connect(server.addr()).expect("connect");
            let open = client
                .open_tenant("cycle", spec.level, spec.num_keys)
                .expect("open");
            client.ingest(open.tenant, batch.clone()).expect("ingest");
            drop(client);
            let asked = Instant::now();
            server.shutdown().expect("clean shutdown");
            if done.send(asked.elapsed()).is_err() {
                return;
            }
        }
    });
    for i in 0..200 {
        let took = cycles
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("cycle {i} never came back"));
        assert!(
            took < Duration::from_secs(2),
            "cycle {i}: shutdown took {took:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// With no tenant to sweep, the drain is asleep most of the time; it still
/// sees a stop within its nap.
#[test]
fn an_idle_drain_returns_promptly_on_stop() {
    let root = temp_root("idle_drain");
    let core = mtc_service::ServiceCore::new(ServiceConfig::new(&root)).expect("core");
    std::thread::scope(|scope| {
        let drain = scope.spawn(|| core.run_drain());
        std::thread::sleep(Duration::from_millis(20));
        let asked = Instant::now();
        core.stop();
        drain.join().expect("drain returns");
        let took = asked.elapsed();
        assert!(took < Duration::from_millis(50), "run_drain took {took:?}");
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// Reopening a tenant recovers its store, which decodes the whole log, and
/// replays the log into a new verifier. None of that holds the registry
/// lock, which every other tenant's `ingest`, `status`, `pause_tenant` and
/// `close_tenant` take: a neighbour's `status` keeps answering while a
/// tenant with 100 000 logged events is reopened.
#[test]
fn one_tenants_open_does_not_stall_its_neighbours() {
    use mtc_service::{Admission, ServiceCore};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let root = temp_root("open_stall");
    let spec = LoadSpec {
        tenants: 1,
        sessions: 4,
        txns_per_session: 25_000,
        num_keys: 64,
        ..Default::default()
    };
    let logged = spec.events_per_tenant();
    // No checkpoint in the first life: the reopen replays all of the log.
    let config = ServiceConfig::new(&root)
        .queue_cap(logged as usize)
        .checkpoint_every(1 << 30);
    let core = ServiceCore::new(config).expect("core");
    let big = core.open_tenant("big", spec.level, spec.num_keys).unwrap();
    let admitted = core.ingest(big.tenant, synthetic_events(&spec, 0));
    assert_eq!(admitted, Ok(Admission::Accepted(logged)));
    assert_eq!(core.close_tenant(big.tenant).unwrap().checked, logged);
    let small = core
        .open_tenant("small", spec.level, spec.num_keys)
        .unwrap();

    let (reopening, polls) = (AtomicBool::new(true), AtomicU64::new(0));
    std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut slowest = Duration::ZERO;
            while reopening.load(Ordering::Acquire) {
                let asked = Instant::now();
                core.status(small.tenant).expect("status");
                slowest = slowest.max(asked.elapsed());
                polls.fetch_add(1, Ordering::Release);
            }
            slowest
        });
        while polls.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let asked = Instant::now();
        let reopen = core.open_tenant("big", spec.level, spec.num_keys);
        let took = asked.elapsed();
        reopening.store(false, Ordering::Release);
        let slowest = poller.join().expect("the poller returns");
        assert_eq!(reopen.expect("reopen").resumed_txns, logged);
        println!(
            "reopen took {took:?}; slowest of {} polls {slowest:?}",
            polls.load(Ordering::Acquire)
        );
        assert!(
            slowest < took / 4,
            "a neighbour's status took {slowest:?} while the reopen took {took:?}"
        );
    });
    let _ = std::fs::remove_dir_all(&root);
}

/// Two opens of one name at once: the one that reserves the name first
/// recovers the store, and the other is refused while it does, or
/// re-attaches once it is done. The name is never opened twice.
#[test]
fn a_name_still_opening_is_refused() {
    use mtc_service::ServiceCore;
    use std::sync::Barrier;

    let root = temp_root("still_opening");
    let spec = LoadSpec {
        tenants: 1,
        sessions: 4,
        txns_per_session: 5_000,
        num_keys: 64,
        ..Default::default()
    };
    let config = ServiceConfig::new(&root)
        .queue_cap(spec.events_per_tenant() as usize)
        .checkpoint_every(1 << 30);
    let core = ServiceCore::new(config).expect("core");
    let first = core.open_tenant("t", spec.level, spec.num_keys).unwrap();
    core.ingest(first.tenant, synthetic_events(&spec, 0))
        .unwrap();
    core.close_tenant(first.tenant).unwrap();

    let start = Barrier::new(2);
    let opens: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let open = || {
            start.wait();
            let open = core.open_tenant("t", spec.level, spec.num_keys);
            open.map(|open| open.tenant)
        };
        let (a, b) = (scope.spawn(open), scope.spawn(open));
        [a, b].map(|h| h.join().expect("an opener returns")).into()
    });
    let ids: Vec<u64> = opens.iter().filter_map(|o| o.clone().ok()).collect();
    assert!(!ids.is_empty(), "{opens:?}");
    assert!(ids.iter().all(|&id| id == ids[0]), "{opens:?}");
    for refused in opens.iter().filter_map(|o| o.as_ref().err()) {
        assert!(refused.contains("still opening"), "{refused}");
    }
    let again = core.open_tenant("t", spec.level, spec.num_keys).unwrap();
    assert_eq!(again.tenant, ids[0], "a finished open is re-attached to");
    let _ = std::fs::remove_dir_all(&root);
}

// ───────────────────────── kill/resume harness ─────────────────────────────

fn spawn_daemon(root: &Path, extra: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mtc_service_server"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon binary spawns");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("daemon announces its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .expect("announcement format")
        .parse()
        .expect("announced address parses");
    (child, addr)
}

fn sigkill(child: &mut Child) {
    let _ = Command::new("kill")
        .args(["-9", &child.id().to_string()])
        .status();
    let _ = child.wait();
}

/// SIGKILL the real daemon binary mid-ingest, then: (a) prove offline that
/// resuming from the newest checkpoint plus tail replay reaches the same
/// verdict as a clean full replay of the log, and (b) restart the daemon on
/// the same root, re-send the unlogged suffix, and close to a clean verdict
/// over every event.
#[test]
fn sigkill_resume_matches_clean_replay() {
    let root = temp_root("sigkill");
    std::fs::create_dir_all(&root).expect("root");
    let (mut child, addr) = spawn_daemon(&root, &["--checkpoint-every", "32"]);

    let spec = LoadSpec {
        sessions: 2,
        txns_per_session: 80,
        num_keys: 8,
        batch: 16,
        ..Default::default()
    };
    let events = synthetic_events(&spec, 0);
    let mut client = ServiceClient::connect(addr).expect("connect");
    let open = client
        .open_tenant("phoenix", spec.level, spec.num_keys)
        .expect("open");
    // Send the first half, then wait until at least one checkpoint exists so
    // the resume below genuinely starts from a snapshot.
    let half = events.len() / 2;
    client
        .ingest_all(
            open.tenant,
            events[..half].to_vec(),
            Duration::from_micros(200),
        )
        .expect("first half");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = client.status(open.tenant).expect("status");
        if status.checkpoints >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint after 10s (drained {})",
            status.checked
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    sigkill(&mut child);
    drop(client);

    // (a) Offline: checkpoint + tail replay ≡ clean replay of the whole log.
    let dir = root.join("phoenix");
    let recovery = mtc_store::recover(&dir).expect("recover");
    let logged = recovery.txns.len();
    assert!(logged <= half, "only WAL'd events survive the kill");
    let clean = mtc_core::check_streaming(spec.level, &recovery.to_history())
        .expect("clean replay in domain");
    let mut resumed = match &recovery.snapshot {
        Some(snapshot) => mtc_core::IncrementalChecker::resume(snapshot.clone()),
        None => mtc_core::IncrementalChecker::new(spec.level).with_init_keys(0..spec.num_keys),
    };
    assert!(
        recovery.snapshot.is_some(),
        "the checkpoint poll above guarantees a snapshot"
    );
    for txn in recovery.tail() {
        resumed.push(txn.clone()).expect("tail replays");
    }
    let resumed_verdict = resumed.finish().expect("resumed replay in domain");
    assert_eq!(
        clean, resumed_verdict,
        "checkpoint resume must be bit-identical to a clean replay"
    );

    // (b) Restart the daemon on the same root and finish the stream.
    let (mut child, addr) = spawn_daemon(&root, &["--checkpoint-every", "32"]);
    let mut client = ServiceClient::connect(addr).expect("reconnect");
    let open = client
        .open_tenant("phoenix", spec.level, spec.num_keys)
        .expect("reopen");
    assert_eq!(open.resumed_txns, logged as u64);
    assert!(
        open.from_checkpoint,
        "the reopen must start from the snapshot"
    );
    client
        .ingest_all(
            open.tenant,
            events[logged..].to_vec(),
            Duration::from_micros(200),
        )
        .expect("suffix");
    let summary = client.close_tenant(open.tenant).expect("close");
    assert_eq!(summary.checked, events.len() as u64);
    assert!(!summary.violated);
    sigkill(&mut child);
    let _ = std::fs::remove_dir_all(&root);
}
