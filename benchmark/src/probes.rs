//! The per-layer waterfall: each layer's public functions are called
//! directly, on the workload's own inputs, and timed from here. Every
//! workload's traced run measures every layer, so a layer's numbers can be
//! set side by side across input shapes.
//!
//! The chain of inputs: the workload's templates are executed on in-process
//! `sim-ser` (the `dbsim` probe); the collected history feeds the batch
//! probes; its commit-ordered stream feeds the streaming, store and service
//! probes; a prefix of the templates goes over the wire for the `net` probe.
//! `service_durable` brings its own stream, and borrows uniform templates.

use crate::check::{batch_violated, sim_ser, verdicts_agree};
use crate::fixtures::{
    commit_ordered, dir_bytes, driver, event_of, history_of, wire_driver, DRIVERS, NUM_KEYS,
    TENANT_LEVEL,
};
use crate::metrics::Samples;
use crate::stats::{median, percentile, rate};
use crate::timed::{busy_per_thread, durations_ns, OpKind, OpSample, TimedBackend};
use crate::trace::Clock;
use crate::workloads::{service_once, within, ServiceRun, DRAIN_STOP_LIMIT};
use mtc_core::{
    build_dependency, check_ser, check_si, check_sser, tune, validate_history, GcPolicy,
    IncrementalChecker, IsolationLevel, ShardedIncrementalChecker,
};
use mtc_dbsim::{DbBackend, ExecutionOptions, ExecutionReport, IngestEvent, LiveVerifier};
use mtc_history::{History, Key, Transaction, Value};
use mtc_net::proto::{self, Request, RequestEnvelope};
use mtc_net::{NetBackend, NetServer};
use mtc_runner::{verify, Checker};
use mtc_service::{Admission, ServiceConfig, ServiceCore};
use mtc_store::{recover, MtcStore, StreamMeta};
use mtc_workload::{SessionWorkload, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the probes run on.
pub struct Fixture {
    /// Mini-transaction templates for the `dbsim` and `net` probes.
    pub templates: Workload,
    /// A commit-ordered stream of the workload's own, if it has one;
    /// otherwise the stream the `dbsim` probe collects is used.
    pub stream: Option<Vec<Transaction>>,
    /// Seeds the driver's schedule, like the workload's own executions.
    pub seed: u64,
    pub smoke: bool,
}

/// Transactions the store and service probes take from the stream's head.
const STREAM_PROBE_TXNS: usize = 4_000;
/// Templates per session the `net` probe sends over the wire.
const NET_PROBE_TXNS: usize = 2_500;
/// Checkpoint cadence of the daemon's default configuration.
const CHECKPOINT_EVERY: usize = 256;

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn run_all(fx: &Fixture, tmp: &Path, s: &mut Samples) -> Result<(), String> {
    // The daemon switches recording on for its whole process; every other
    // layer is measured with it off, as a library user would run it.
    mtc_obs::set_enabled(false);
    let cap = |n: usize| if fx.smoke { n / 20 } else { n };

    let history = dbsim_probe(&fx.templates, fx.seed, s)?;
    let (stream, history) = match &fx.stream {
        Some(stream) => (stream.clone(), history_of(stream, NUM_KEYS)),
        None => (commit_ordered(&history), history),
    };
    batch_probe(&history, s)?;
    streaming_probe(&stream, s)?;
    obs_probe(&stream, s)?;
    let head = &stream[..stream.len().min(cap(STREAM_PROBE_TXNS))];
    store_probe(head, &tmp.join("store-probe"), s)?;
    net_probe(&fx.templates, cap(NET_PROBE_TXNS), s)?;
    service_probe(head, tmp, s)?;
    mtc_obs::set_enabled(false);
    Ok(())
}

/// Executes `templates` against `db` behind a [`TimedBackend`].
fn execute_timed(
    db: &dyn DbBackend,
    templates: &Workload,
    driver: ExecutionOptions<'static>,
) -> (History, ExecutionReport, Vec<OpSample>) {
    let clock = Clock::new(true);
    let timed = TimedBackend::new(db, &clock);
    let (history, report) = driver.run(&timed, templates);
    let samples = timed.take_samples();
    (history, report, samples)
}

fn p50(samples: &[OpSample], kind: OpKind) -> f64 {
    median(&durations_ns(samples, kind))
}

fn dbsim_probe(templates: &Workload, seed: u64, s: &mut Samples) -> Result<History, String> {
    let db = sim_ser(NUM_KEYS).build();
    let (_, plain) = driver(seed).run(db.as_ref(), templates);

    let db = sim_ser(NUM_KEYS).build();
    let (history, report, samples) = execute_timed(db.as_ref(), templates, driver(seed));
    drop(db);
    let busy = mean(&busy_per_thread(&samples));
    s.push("dbsim.exec_s", secs(report.wall_time));
    s.push("dbsim.attempts", report.attempts as f64);
    s.push("dbsim.aborted_attempts", report.aborted_attempts as f64);
    s.push("dbsim.abort_rate", report.abort_rate());
    s.push("dbsim.exhausted_templates", report.failed as f64);
    s.push("dbsim.backend_busy_s", busy);
    s.push("dbsim.driver_self_s", secs(report.wall_time) - busy);
    s.push("dbsim.begin_ns_p50", p50(&samples, OpKind::Begin));
    s.push("dbsim.read_ns_p50", p50(&samples, OpKind::Read));
    s.push("dbsim.write_ns_p50", p50(&samples, OpKind::Write));
    s.push("dbsim.commit_ns_p50", p50(&samples, OpKind::Commit));
    s.push(
        "dbsim.commit_ns_p99",
        percentile(&durations_ns(&samples, OpKind::Commit), 0.99),
    );

    // The same templates under a live verifier: what inline checking adds
    // to an execution.
    let level = IsolationLevel::StrictSerializability;
    let db = sim_ser(NUM_KEYS).build();
    let verifier = LiveVerifier::builder(level, templates.num_keys)
        .stop_on_violation(false)
        .autotuned()
        .build();
    let ((live_history, _), live_wall) =
        timed(|| driver(seed).verifier(&verifier).run(db.as_ref(), templates));
    let (outcome, finish_wall) = timed(|| verifier.finish());
    s.push(
        "dbsim.live_overhead_s",
        secs(live_wall + finish_wall) - secs(plain.wall_time),
    );
    let live = outcome
        .verdict
        .map(|v| v.is_violated())
        .map_err(|e| format!("live checker not applicable: {e}"))?;
    if batch_violated(level, &live_history)? != live {
        return Err("wrong verdict: live and batch SSER disagree in the dbsim probe".into());
    }
    let ser = batch_violated(IsolationLevel::Serializability, &history)?;
    s.push(
        "dbsim.organic_violations",
        f64::from(u8::from(live) + u8::from(ser)),
    );
    Ok(history)
}

fn batch_probe(history: &History, s: &mut Samples) -> Result<(), String> {
    s.push("history.txns", history.len() as f64);
    s.push("history.ops", history.op_count() as f64);
    let (valid, wall) = timed(|| validate_history(history));
    valid.map_err(|e| format!("the collected history is not a mini-transaction history: {e}"))?;
    s.push("core.validate_s", secs(wall));
    let (graph, wall) = timed(|| build_dependency(history, false));
    let graph = graph.map_err(|e| format!("build_dependency: {e}"))?;
    s.push("core.build_dependency_s", secs(wall));
    s.push("core.dep_edges", graph.edge_count() as f64);
    let (digraph, wall) = timed(|| graph.project_all());
    s.push("history.project_s", secs(wall));
    let (acyclic, wall) = timed(|| digraph.is_acyclic());
    s.push("history.acyclic_s", secs(wall));
    drop((digraph, graph));

    let (ser, ser_wall) = timed(|| check_ser(history));
    s.push("core.check_ser_s", secs(ser_wall));
    let (si, wall) = timed(|| check_si(history));
    s.push("core.check_si_s", secs(wall));
    let (sser, wall) = timed(|| check_sser(history));
    s.push("core.check_sser_s", secs(wall));
    let ser = ser.map_err(|e| format!("check_ser: {e}"))?;
    si.map_err(|e| format!("check_si: {e}"))?;
    sser.map_err(|e| format!("check_sser: {e}"))?;
    if ser.is_satisfied() != acyclic {
        return Err(
            "wrong verdict: check_ser and the projected graph's acyclicity disagree".into(),
        );
    }
    // What the harness adds around the bare checker.
    let outcome = verify(Checker::MtcSer, history);
    if outcome.violated != ser.is_violated() {
        return Err("wrong verdict: verify(MtcSer) and check_ser disagree".into());
    }
    s.push(
        "runner.verify_overhead_s",
        secs(outcome.duration) - secs(ser_wall),
    );
    Ok(())
}

/// Feeds `stream` to a fresh checker by value and times only the pushes.
fn stream_into(
    level: IsolationLevel,
    gc: Option<GcPolicy>,
    stream: &[Transaction],
) -> (IncrementalChecker, Duration) {
    let mut checker = IncrementalChecker::new(level).with_init_keys(0..NUM_KEYS);
    if let Some(policy) = gc {
        checker.set_gc(policy);
    }
    let feed = stream.to_vec();
    let started = Instant::now();
    for txn in feed {
        let _ = checker.push(txn);
    }
    let wall = started.elapsed();
    (checker, wall)
}

fn streaming_probe(stream: &[Transaction], s: &mut Samples) -> Result<(), String> {
    use IsolationLevel::{Serializability, SnapshotIsolation, StrictSerializability};
    let n = stream.len() as u64;
    let not_applicable = |e| format!("streaming checker not applicable: {e}");

    let (checker, wall) = stream_into(Serializability, None, stream);
    s.push("core.stream_ser_txns_per_s", rate(n, wall));
    let (verdict, wall) = timed(|| checker.finish());
    s.push("core.stream_finish_s", secs(wall));
    let ser = verdict.map_err(not_applicable)?.is_violated();

    for (level, name) in [
        (SnapshotIsolation, "core.stream_si_txns_per_s"),
        (StrictSerializability, "core.stream_sser_txns_per_s"),
    ] {
        let (checker, wall) = stream_into(level, None, stream);
        s.push(name, rate(n, wall));
        checker.finish().map_err(not_applicable)?;
    }

    let gc = Some(GcPolicy::default());
    let (checker, wall) = stream_into(Serializability, gc, stream);
    s.push("core.stream_ser_gc_txns_per_s", rate(n, wall));
    s.push("core.stream_live_nodes", checker.live_node_count() as f64);
    let (snapshot, wall) = timed(|| checker.checkpoint());
    s.push("core.checkpoint_s", secs(wall));
    s.push(
        "core.snapshot_bytes",
        mtc_store::to_bytes(&snapshot).len() as f64,
    );
    // In commit order the GC'd checker must not differ from the full one.
    if checker.finish().map_err(not_applicable)?.is_violated() != ser {
        return Err("wrong verdict: GC changed the streaming SER verdict".into());
    }

    // A second GC'd pass with a clock around every push.
    let mut checker = IncrementalChecker::new(Serializability).with_init_keys(0..NUM_KEYS);
    checker.set_gc(GcPolicy::default());
    let mut push_ns = Vec::with_capacity(stream.len());
    for txn in stream.iter().cloned() {
        let started = Instant::now();
        let _ = checker.push(txn);
        push_ns.push(started.elapsed().as_nanos() as f64);
    }
    s.push("core.stream_push_ns_p50", median(&push_ns));
    s.push("core.stream_push_ns_p99", percentile(&push_ns, 0.99));

    // The sharded checker at the geometry the autotuner picks here.
    let tuning = tune();
    let mut sharded = ShardedIncrementalChecker::new(StrictSerializability, tuning.shards)
        .with_init_keys(0..NUM_KEYS);
    let batches: Vec<Vec<Transaction>> = stream
        .chunks(tuning.batch.max(1))
        .map(<[_]>::to_vec)
        .collect();
    let started = Instant::now();
    for batch in batches {
        let _ = sharded.push_batch(batch);
    }
    let verdict = sharded.finish();
    s.push("core.sharded_sser_txns_per_s", rate(n, started.elapsed()));
    verdict.map_err(not_applicable)?;
    Ok(())
}

fn obs_probe(stream: &[Transaction], s: &mut Samples) -> Result<(), String> {
    let level = IsolationLevel::Serializability;
    let mut walls = [Vec::new(), Vec::new()];
    for _ in 0..3 {
        for (on, walls) in [false, true].into_iter().zip(&mut walls) {
            mtc_obs::set_enabled(on);
            walls.push(secs(stream_into(level, None, stream).1));
        }
    }
    mtc_obs::set_enabled(false);
    s.push(
        "obs.enabled_overhead",
        median(&walls[1]) / median(&walls[0]).max(1e-9) - 1.0,
    );
    Ok(())
}

fn store_probe(stream: &[Transaction], dir: &Path, s: &mut Samples) -> Result<(), String> {
    let err = |what: &str, e: mtc_store::StoreError| format!("store probe: {what}: {e}");
    let meta = StreamMeta {
        level: TENANT_LEVEL,
        num_keys: NUM_KEYS,
    };
    let mut store = MtcStore::create(dir, &meta).map_err(|e| err("create", e))?;
    let mut checker = IncrementalChecker::new(TENANT_LEVEL).with_init_keys(0..NUM_KEYS);
    checker.set_gc(GcPolicy::default());
    let mut append_ns = Vec::with_capacity(stream.len());
    let (mut checkpoint_ms, mut checkpoint_bytes) = (Vec::new(), Vec::new());
    // The daemon's order of work: log the transaction, check it, and every
    // 256th time snapshot the checker into a checkpoint.
    for (i, txn) in stream.iter().enumerate() {
        let started = Instant::now();
        store.append_txn(txn).map_err(|e| err("append_txn", e))?;
        append_ns.push(started.elapsed().as_nanos() as f64);
        let _ = checker.push(txn.clone());
        if (i + 1) % CHECKPOINT_EVERY == 0 {
            let snapshot = checker.checkpoint();
            let started = Instant::now();
            let path = store
                .checkpoint((i + 1) as u64, &snapshot)
                .map_err(|e| err("checkpoint", e))?;
            checkpoint_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            checkpoint_bytes.push(bytes as f64);
        }
    }
    let (synced, wall) = timed(|| store.sync());
    synced.map_err(|e| err("sync", e))?;
    drop(store);
    s.push(
        "store.append_txns_per_s",
        stream.len() as f64 / (append_ns.iter().sum::<f64>() / 1e9).max(1e-9),
    );
    s.push("store.append_ns_p50", median(&append_ns));
    s.push("store.append_ns_p99", percentile(&append_ns, 0.99));
    s.push("store.sync_s", secs(wall));
    s.push("store.checkpoint_ms_p50", median(&checkpoint_ms));
    s.push("store.checkpoint_ms_max", percentile(&checkpoint_ms, 1.0));
    s.push("store.checkpoint_bytes_p50", median(&checkpoint_bytes));
    s.push("store.checkpoints", checkpoint_ms.len() as f64);
    let (log_bytes, checkpoint_dir_bytes) =
        dir_bytes(dir, "segment-").map_err(|e| format!("store probe: measure: {e}"))?;
    s.push("store.log_bytes", log_bytes as f64);
    s.push("store.checkpoint_dir_bytes", checkpoint_dir_bytes as f64);

    let (recovery, wall) = timed(|| recover(dir));
    let recovery = recovery.map_err(|e| err("recover", e))?;
    s.push("store.recover_s", secs(wall));
    s.push("store.replay_tail_txns", recovery.tail().len() as f64);
    if recovery.txns.len() != stream.len()
        || recovery
            .txns
            .iter()
            .zip(stream)
            .any(|(a, b)| a.ops != b.ops)
    {
        return Err("store probe: the recovered log is not the log that was appended".into());
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("store probe: remove: {e}"))?;

    let (encoded, wall) = timed(|| stream.iter().map(mtc_store::to_bytes).collect::<Vec<_>>());
    s.push(
        "store.encode_ns_per_txn",
        wall.as_nanos() as f64 / stream.len().max(1) as f64,
    );
    let (decoded, wall) = timed(|| {
        encoded
            .iter()
            .map(|b| mtc_store::from_bytes::<Transaction>(b))
            .collect::<Result<Vec<_>, _>>()
    });
    s.push(
        "store.decode_ns_per_txn",
        wall.as_nanos() as f64 / stream.len().max(1) as f64,
    );
    if decoded.map_err(|e| err("decode", e))?.as_slice() != stream {
        return Err("store probe: a transaction did not survive encode and decode".into());
    }
    Ok(())
}

/// The first `per_session` templates of every session.
fn head_of(templates: &Workload, per_session: usize) -> Workload {
    Workload {
        sessions: templates
            .sessions
            .iter()
            .map(|sw| SessionWorkload {
                session: sw.session,
                txns: sw.txns[..sw.txns.len().min(per_session)].to_vec(),
            })
            .collect(),
        num_keys: templates.num_keys,
    }
}

fn net_probe(templates: &Workload, per_session: usize, s: &mut Samples) -> Result<(), String> {
    let templates = head_of(templates, per_session);
    // The same templates, same driver, in process: the engine's share of a
    // remote call.
    let db = sim_ser(NUM_KEYS).build();
    let (_, _, local) = execute_timed(db.as_ref(), &templates, wire_driver());
    drop(db);

    let server =
        NetServer::spawn(sim_ser(NUM_KEYS)).map_err(|e| format!("spawn NetServer: {e}"))?;
    let (backend, wall) = timed(|| NetBackend::connect(server.addr()));
    let backend = backend.map_err(|e| format!("connect NetBackend: {e}"))?;
    s.push("net.connect_us", wall.as_secs_f64() * 1e6);
    let (history, report, remote) = execute_timed(&backend, &templates, wire_driver());
    drop(backend);
    server
        .shutdown()
        .map_err(|e| format!("NetServer shutdown: {e}"))?;
    if report.failed != 0 {
        return Err(format!("net probe: {} templates failed", report.failed));
    }
    let ser = batch_violated(IsolationLevel::Serializability, &history)?;
    verdicts_agree(
        IsolationLevel::Serializability,
        NUM_KEYS,
        &commit_ordered(&history),
        ser,
    )?;

    let us = |kind| p50(&remote, kind) / 1e3;
    s.push("net.begin_us_p50", us(OpKind::Begin));
    s.push("net.read_us_p50", us(OpKind::Read));
    s.push("net.write_us_p50", us(OpKind::Write));
    s.push("net.commit_us_p50", us(OpKind::Commit));
    s.push(
        "net.commit_us_p99",
        percentile(&durations_ns(&remote, OpKind::Commit), 0.99) / 1e3,
    );
    s.push(
        "net.calls_per_txn",
        remote.len() as f64 / report.committed.max(1) as f64,
    );
    let (remote_busy, local_busy) = (
        mean(&busy_per_thread(&remote)),
        mean(&busy_per_thread(&local)),
    );
    s.push("net.backend_busy_s", remote_busy);
    s.push("net.wire_share", 1.0 - local_busy / remote_busy.max(1e-9));

    // Framing alone, on a buffer in memory.
    const FRAMES: usize = 20_000;
    let envelope = RequestEnvelope {
        seq: 1,
        request: Request::Write {
            txn: 7,
            key: Key(3),
            value: Value(9),
        },
    };
    let mut wire = Vec::new();
    let (sent, wall) = timed(|| (0..FRAMES).try_for_each(|_| proto::send(&mut wire, &envelope)));
    sent.map_err(|e| format!("proto::send: {e}"))?;
    s.push(
        "net.proto_encode_ns",
        wall.as_nanos() as f64 / FRAMES as f64,
    );
    let mut reader = wire.as_slice();
    let (received, wall) = timed(|| {
        (0..FRAMES).try_for_each(|_| {
            let got: RequestEnvelope = proto::recv(&mut reader)?;
            if got == envelope {
                Ok(())
            } else {
                Err(std::io::Error::other("a frame changed on the way"))
            }
        })
    });
    received.map_err(|e| format!("proto::recv: {e}"))?;
    s.push(
        "net.proto_decode_ns",
        wall.as_nanos() as f64 / FRAMES as f64,
    );
    Ok(())
}

/// The streams the wire daemon took, through a `ServiceCore` in process:
/// the same admission queue, drain loop, WAL and checker, and no socket.
fn core_once(root: &Path, streams: &[Vec<IngestEvent>]) -> Result<Duration, String> {
    // What `ServiceServer::spawn` does for the daemon's process.
    mtc_obs::set_enabled(true);
    let core = Arc::new(
        ServiceCore::new(ServiceConfig::new(root)).map_err(|e| format!("ServiceCore: {e}"))?,
    );
    let drain = {
        let core = Arc::clone(&core);
        std::thread::spawn(move || core.run_drain())
    };
    let started = Instant::now();
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, events)| {
                let core = &core;
                scope.spawn(move || {
                    let open = core.open_tenant(&format!("t{i}"), TENANT_LEVEL, NUM_KEYS)?;
                    for batch in events.chunks(crate::fixtures::INGEST_BATCH) {
                        while let Admission::Backpressure { .. } =
                            core.ingest(open.tenant, batch.to_vec())?
                        {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                    }
                    let summary = core.close_tenant(open.tenant)?;
                    if summary.checked != events.len() as u64 || summary.violated {
                        return Err(format!(
                            "service core: tenant t{i} checked {} of {} events, violated={}",
                            summary.checked,
                            events.len(),
                            summary.violated
                        ));
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a tenant thread panicked".into()))
            })
            .collect()
    });
    let wall = started.elapsed();
    core.stop();
    match within(DRAIN_STOP_LIMIT, move || drain.join()) {
        Some(joined) => joined.map_err(|_| "the drain thread panicked".to_string())?,
        None => println!("  the core's drain loop did not stop; its thread is left parked"),
    }
    results.into_iter().collect::<Result<(), String>>()?;
    std::fs::remove_dir_all(root).map_err(|e| format!("remove {}: {e}", root.display()))?;
    Ok(wall)
}

/// The service metrics of one pass through the wire daemon.
fn push_service_run(run: &ServiceRun, s: &mut Samples) {
    s.push("ingest_batch_p50_us", median(&run.batch_latency_us));
    s.push(
        "ingest_batch_p99_us",
        percentile(&run.batch_latency_us, 0.99),
    );
    s.push("recover_txns_per_s", rate(run.logged, run.read_wall));
    s.push(
        "store_bytes_per_txn",
        run.store_bytes as f64 / run.sent.max(1) as f64,
    );
}

fn service_probe(stream: &[Transaction], tmp: &Path, s: &mut Samples) -> Result<(), String> {
    // Every tenant sends the same stream; tenants share nothing but the
    // daemon, and the probe wants the two connections the workload has.
    let events: Vec<IngestEvent> = stream.iter().map(event_of).collect();
    let streams = vec![events; DRIVERS as usize];
    let off = Clock::new(false);

    // Status polls ride along (every 16th batch, on the tenant's own
    // connection): they are how the queue's depth and the checker's lag show.
    let run = service_once(
        &tmp.join("service-probe"),
        &streams,
        true,
        &mut off.lane(0, None),
    )?;
    push_service_run(&run, s);
    let batches = run.batch_latency_us.len() as f64;
    s.push("service.open_ms", median(&run.open_ms));
    s.push("service.ingest_attempts", run.attempts as f64);
    s.push("service.backpressure_hits", run.backpressure_hits as f64);
    s.push(
        "service.accept_ratio",
        batches / (run.attempts as f64).max(1.0),
    );
    s.push("service.backoff_sleep_s", secs(run.backoff_sleep));
    s.push(
        "service.close_drain_s",
        median(&run.close_drain.iter().map(|d| secs(*d)).collect::<Vec<_>>()),
    );
    s.push("service.queue_depth_max", run.queue_depth_max as f64);
    s.push("service.lag_max", run.lag_max as f64);

    let core_wall = core_once(&tmp.join("core-probe"), &streams)?;
    let core_rate = rate(run.sent, core_wall);
    let wire_rate = rate(run.sent, run.ingest_wall);
    s.push("service.core_txns_per_s", core_rate);
    s.push("service.wire_share", 1.0 - wire_rate / core_rate.max(1e-9));
    Ok(())
}
