//! One repetition of each workload: set-up, the timed end-to-end section,
//! the correctness check, tear-down. The same code serves the untraced and
//! the traced pass; a [`Lane`] of an off clock records nothing.

use crate::check::{batch_violated, sim_ser, verdicts_agree};
use crate::fixtures::{
    commit_ordered, dir_bytes, driver, mt_spec, service_events, txns_per_driver, wire_driver, Kind,
    WorkloadDef, DRIVERS, INGEST_BATCH, NUM_KEYS, TENANT_LEVEL, TENANT_SESSIONS,
};
use crate::timed::{BackendLayer, TimedBackend};
use crate::trace::{Lane, Span};
use mtc_core::IsolationLevel;
use mtc_dbsim::{DbBackend, IngestEvent, LiveVerifier};
use mtc_history::History;
use mtc_net::{NetBackend, NetServer};
use mtc_runner::{resume_verification, verify, Checker};
use mtc_service::{IngestOutcome, ServiceClient, ServiceConfig, ServiceServer};
use mtc_store::recover;
use mtc_workload::{generate_mt_workload, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// What a repetition runs on.
pub struct Ctx<'a> {
    pub def: &'static WorkloadDef,
    pub seed: u64,
    pub smoke: bool,
    /// A directory of this process's own for stores and WALs.
    pub tmp: &'a Path,
}

/// What one repetition measured.
#[derive(Default)]
pub struct Rep {
    /// Transactions committed (for the service: verified).
    pub txns: u64,
    /// Generation to last verdict, set-up and checks excluded.
    pub e2e: Duration,
    /// The stage that produces the history: execution, or ingest.
    pub exec: Duration,
    /// The stage that judges the collected history.
    pub verify: Duration,
    /// Transactions that stage judged: the whole history, aborted attempts
    /// included.
    pub verify_txns: u64,
    /// Everything the program needs before and after: engines, servers,
    /// connections, directories, and dropping what the run built.
    pub setup: Duration,
    /// Templates or events offered.
    pub attempted: u64,
    /// Templates that ran out of retries. (A transport error or an event
    /// the daemon admitted but never checked ends the run instead.)
    pub failed: u64,
    /// The engine produced an anomaly on its own, and every checker said so.
    pub organic_violation: bool,
    /// The repetition's root span, when traced.
    pub root: Option<u32>,
    pub generate: Duration,
    /// The templates, kept for the layer probes when asked.
    pub kept: Option<Workload>,
}

pub fn run_rep(ctx: &Ctx, lane: &mut Lane, keep: bool) -> Result<Rep, String> {
    match ctx.def.kind {
        Kind::Service => service_rep(ctx, lane),
        _ => exec_rep(ctx, lane, keep),
    }
}

/// The engine a repetition executes on, with what it takes to stand it up.
enum Engine {
    Local(Box<dyn DbBackend>),
    Remote {
        backend: NetBackend,
        server: NetServer,
    },
}

impl Engine {
    fn start(kind: Kind) -> Result<Engine, String> {
        let spec = sim_ser(NUM_KEYS);
        if kind != Kind::Remote {
            return Ok(Engine::Local(spec.build()));
        }
        let server = NetServer::spawn(spec).map_err(|e| format!("spawn NetServer: {e}"))?;
        let backend =
            NetBackend::connect(server.addr()).map_err(|e| format!("connect NetBackend: {e}"))?;
        Ok(Engine::Remote { backend, server })
    }

    fn backend(&self) -> &dyn DbBackend {
        match self {
            Engine::Local(db) => db.as_ref(),
            Engine::Remote { backend, .. } => backend,
        }
    }

    fn stop(self) -> Result<(), String> {
        match self {
            Engine::Local(db) => drop(db),
            Engine::Remote { backend, server } => {
                drop(backend);
                server
                    .shutdown()
                    .map_err(|e| format!("NetServer shutdown: {e}"))?;
            }
        }
        Ok(())
    }
}

/// Executes `templates` on `db` with the driver that goes with `layer`, under
/// `verifier` if there is one. With tracing on, the driver runs against a
/// [`TimedBackend`] and each operation becomes a span under the current one.
pub fn execute(
    db: &dyn DbBackend,
    templates: &Workload,
    seed: u64,
    verifier: Option<&LiveVerifier>,
    layer: BackendLayer,
    lane: &mut Lane,
) -> (History, mtc_dbsim::ExecutionReport) {
    let run = |db: &dyn DbBackend| {
        let opts = match layer {
            BackendLayer::Dbsim => driver(seed),
            BackendLayer::Net => wire_driver(),
        };
        match verifier {
            Some(v) => opts.verifier(v).run(db, templates),
            None => opts.run(db, templates),
        }
    };
    if !lane.clock().on() {
        return run(db);
    }
    let timed = TimedBackend::new(db, lane.clock());
    let out = run(&timed);
    lane.adopt_samples(timed.take_samples(), layer);
    out
}

/// The four workloads that execute templates against an engine.
fn exec_rep(ctx: &Ctx, lane: &mut Lane, keep: bool) -> Result<Rep, String> {
    let kind = ctx.def.kind;
    let spec = mt_spec(kind, ctx.seed, txns_per_driver(kind, ctx.smoke));
    let layer = if kind == Kind::Remote {
        BackendLayer::Net
    } else {
        BackendLayer::Dbsim
    };
    let checkers: &[(Checker, IsolationLevel, &'static str)] = match kind {
        Kind::Pipeline => &[
            (
                Checker::MtcSer,
                IsolationLevel::Serializability,
                "runner.verify_ser",
            ),
            (
                Checker::MtcSi,
                IsolationLevel::SnapshotIsolation,
                "runner.verify_si",
            ),
            (
                Checker::MtcSser,
                IsolationLevel::StrictSerializability,
                "runner.verify_sser",
            ),
        ],
        Kind::Live => &[],
        _ => &[(
            Checker::MtcSer,
            IsolationLevel::Serializability,
            "runner.verify_ser",
        )],
    };

    let setup_started = Instant::now();
    let engine = Engine::start(kind)?;
    let mut setup = setup_started.elapsed();

    let mut rep = Rep::default();
    let mut root = None;
    let mut outcomes = Vec::new();
    let mut live_verdict = None;
    let started = Instant::now();
    let (templates, history, report) = lane.span("bench.rep", |lane| {
        root = lane.current();
        let generate_started = Instant::now();
        let templates = lane.span("workload.generate", |_| generate_mt_workload(&spec));
        rep.generate = generate_started.elapsed();
        let (history, report) = if kind == Kind::Live {
            // `mtc_runner::end_to_end_streaming`, step for step, except that
            // the collected history outlives the call: the check below
            // needs it, and that function drops it.
            let verifier = lane.span("dbsim.live_build", |_| {
                LiveVerifier::builder(IsolationLevel::StrictSerializability, templates.num_keys)
                    .stop_on_violation(false)
                    .autotuned()
                    .build()
            });
            let out = lane.span("dbsim.run_live", |lane| {
                execute(
                    engine.backend(),
                    &templates,
                    ctx.seed,
                    Some(&verifier),
                    layer,
                    lane,
                )
            });
            live_verdict = Some(lane.span("dbsim.live_finish", |_| verifier.finish()));
            out
        } else {
            let name = if kind == Kind::Remote {
                "net.run"
            } else {
                "dbsim.run"
            };
            lane.span(name, |lane| {
                execute(engine.backend(), &templates, ctx.seed, None, layer, lane)
            })
        };
        let verify_started = Instant::now();
        for (checker, _, name) in checkers {
            outcomes.push(lane.span(name, |_| verify(*checker, &history)));
        }
        rep.verify = verify_started.elapsed();
        (templates, history, report)
    });
    rep.e2e = started.elapsed();
    rep.root = root;
    rep.exec = report.wall_time;
    rep.txns = report.committed as u64;
    rep.verify_txns = (history.len() - 1) as u64;
    rep.attempted = templates.txn_count() as u64;
    rep.failed = report.failed as u64;
    if report.committed + report.failed != templates.txn_count() {
        return Err(format!(
            "{} committed + {} failed templates do not add up to the {} offered",
            report.committed,
            report.failed,
            templates.txn_count()
        ));
    }

    // The check: every verdict the run produced must be the one the other
    // kind of checker gives on the same transactions in commit order.
    let stream = commit_ordered(&history);
    for ((_, level, _), outcome) in checkers.iter().zip(&outcomes) {
        if outcome.detail.starts_with("checker not applicable") {
            return Err(format!("{}: {}", outcome.checker.label(), outcome.detail));
        }
        rep.organic_violation |= verdicts_agree(*level, NUM_KEYS, &stream, outcome.violated)?;
    }
    if let Some(outcome) = live_verdict {
        let level = IsolationLevel::StrictSerializability;
        let live = match &outcome.verdict {
            Ok(v) => v.is_violated(),
            Err(e) => return Err(format!("live checker not applicable: {e}")),
        };
        if outcome.checked_txns != history.len() - 1 {
            return Err(format!(
                "the live verifier consumed {} of the {} collected transactions",
                outcome.checked_txns,
                history.len() - 1
            ));
        }
        let batch = batch_violated(level, &history)?;
        if batch != live {
            return Err(format!(
                "wrong verdict at {level}: live says violated={live}, batch says violated={batch}"
            ));
        }
        // Verification is inline here; its own rate is taken from replaying
        // the collected stream through the same streaming checker.
        let replay_started = Instant::now();
        rep.organic_violation |= verdicts_agree(level, NUM_KEYS, &stream, live)?;
        rep.verify = replay_started.elapsed();
    }
    drop(stream);

    let teardown_started = Instant::now();
    engine.stop()?;
    drop(history);
    setup += teardown_started.elapsed();
    rep.setup = setup;
    rep.kept = keep.then_some(templates);
    Ok(rep)
}

/// What one pass of tenant streams through the daemon measured.
#[derive(Default)]
pub struct ServiceRun {
    pub sent: u64,
    pub checked: u64,
    pub setup: Duration,
    /// First `open_tenant` to last `close_tenant` reply.
    pub ingest_wall: Duration,
    /// `recover` plus `resume_verification` over every tenant directory.
    pub read_wall: Duration,
    pub logged: u64,
    /// Per batch: first offer to `Accepted`, retries included, in µs.
    pub batch_latency_us: Vec<f64>,
    pub attempts: u64,
    pub backpressure_hits: u64,
    pub backoff_sleep: Duration,
    pub open_ms: Vec<f64>,
    pub close_drain: Vec<Duration>,
    pub queue_depth_max: u64,
    pub lag_max: u64,
    /// Segments plus retained checkpoints under the service root.
    pub store_bytes: u64,
}

/// What one tenant's driver thread saw.
#[derive(Default)]
struct TenantRun {
    checked: u64,
    batch_latency_us: Vec<f64>,
    attempts: u64,
    backpressure_hits: u64,
    backoff_sleep: Duration,
    open_ms: f64,
    close_drain: Duration,
    queue_depth_max: u64,
    lag_max: u64,
    spans: Vec<Span>,
}

/// Backpressure is answered with this sleep, then the same batch again.
const BACKOFF: Duration = Duration::from_micros(200);

/// How long the daemon's drain loop gets to wind down. It takes a few
/// milliseconds, unless it never ends: see [`within`].
pub const DRAIN_STOP_LIMIT: Duration = Duration::from_secs(2);

/// Runs `f` on a thread of its own and waits for it at most `limit`; `None`
/// means the thread was left behind, still running.
///
/// This is for stopping the daemon's drain loop, which about once in 200
/// times never returns. `ServiceCore::run_drain` drives its two drain tasks
/// on the two workers of `futures_lite::executor::run_all`; a worker that
/// has found the queue empty and `remaining` at 1 goes to sleep on the
/// condition variable, and if the other worker finishes the last task in
/// between, its `notify_all` (sent without the queue's lock) comes before
/// the sleep and nothing wakes the sleeper again. The thread that joins the
/// drain loop (`ServiceServer::shutdown`, or the caller of `run_drain`) then
/// waits forever. Every tenant is closed and verified by then, so nothing
/// measured depends on that thread: it stays parked, idle, until the process
/// exits, and the repetition goes on.
pub fn within<T: Send + 'static>(
    limit: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> Option<T> {
    let (done, wait) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(f());
    });
    wait.recv_timeout(limit).ok()
}

/// The in-process daemon of one pass, stopped within [`DRAIN_STOP_LIMIT`]
/// on every way out (`ServiceServer`'s own drop joins without a limit).
struct Daemon(Option<ServiceServer>);

impl Daemon {
    fn stop(&mut self) -> Result<(), String> {
        let Some(server) = self.0.take() else {
            return Ok(());
        };
        match within(DRAIN_STOP_LIMIT, move || server.shutdown()) {
            Some(stopped) => stopped.map_err(|e| format!("ServiceServer shutdown: {e}")),
            None => {
                println!("  the daemon's drain loop did not stop; its thread is left parked");
                Ok(())
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn drive_tenant(
    client: &mut ServiceClient,
    name: &str,
    events: &[IngestEvent],
    poll_status: bool,
    lane: &mut Lane,
) -> Result<TenantRun, String> {
    let io = |what: &str, e: std::io::Error| format!("tenant {name}: {what}: {e}");
    let mut run = TenantRun::default();
    let opening = Instant::now();
    let open = lane
        .span("service.open_tenant", |_| {
            client.open_tenant(name, TENANT_LEVEL, NUM_KEYS)
        })
        .map_err(|e| io("open_tenant", e))?;
    run.open_ms = opening.elapsed().as_secs_f64() * 1e3;
    if open.resumed_txns != 0 {
        return Err(format!("tenant {name} resumed a stream in a fresh root"));
    }
    for (i, batch) in events.chunks(INGEST_BATCH).enumerate() {
        let offered = Instant::now();
        loop {
            run.attempts += 1;
            let outcome = lane
                .span("service.ingest", |_| {
                    client.ingest(open.tenant, batch.to_vec())
                })
                .map_err(|e| io("ingest", e))?;
            match outcome {
                IngestOutcome::Accepted(_) => break,
                IngestOutcome::Backpressure { .. } => {
                    run.backpressure_hits += 1;
                    let sleeping = Instant::now();
                    std::thread::sleep(BACKOFF);
                    run.backoff_sleep += sleeping.elapsed();
                }
            }
        }
        run.batch_latency_us
            .push(offered.elapsed().as_secs_f64() * 1e6);
        if poll_status && i % 16 == 15 {
            let status = client.status(open.tenant).map_err(|e| io("status", e))?;
            run.queue_depth_max = run.queue_depth_max.max(status.queue_depth);
            run.lag_max = run
                .lag_max
                .max(status.ingested.saturating_sub(status.checked));
        }
    }
    let closing = Instant::now();
    let summary = lane
        .span("service.close_tenant", |_| client.close_tenant(open.tenant))
        .map_err(|e| io("close_tenant", e))?;
    run.close_drain = closing.elapsed();
    if summary.violated {
        return Err(format!(
            "wrong verdict: tenant {name}'s stream is clean by construction but the daemon \
             reports a violation (first at {:?})",
            summary.first_violation_at
        ));
    }
    run.checked = summary.checked;
    Ok(run)
}

/// Streams `streams[i]` into tenant `t<i>` of a fresh in-process daemon
/// rooted at `root`, one connection and one thread per tenant, then reads
/// every tenant's store back. Status is polled only when asked: the poll
/// shares the tenant's connection and would slow an end-to-end measurement.
pub fn service_once(
    root: &Path,
    streams: &[Vec<IngestEvent>],
    poll_status: bool,
    lane: &mut Lane,
) -> Result<ServiceRun, String> {
    let mut out = ServiceRun::default();
    let setup_started = Instant::now();
    let (mut server, mut clients) = lane.span("bench.setup", |_| {
        std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let server = ServiceServer::spawn(ServiceConfig::new(root))
            .map_err(|e| format!("spawn ServiceServer: {e}"))?;
        let addr = server.addr();
        let server = Daemon(Some(server));
        let clients = (0..streams.len())
            .map(|_| ServiceClient::connect(addr))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect ServiceClient: {e}"))?;
        Ok::<_, String>((server, clients))
    })?;
    out.setup = setup_started.elapsed();

    let clock = lane.clock();
    let trace = lane.trace();
    let ingest_started = Instant::now();
    // The driving thread only waits here; the tenants' own spans hang under
    // this one, each on its thread.
    let tenants: Vec<Result<TenantRun, String>> = lane.span("service.drive", |lane| {
        let parent = lane.current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(streams)
                .enumerate()
                .map(|(i, (client, events))| {
                    scope.spawn(move || {
                        let mut lane = clock.lane(trace, parent);
                        let name = format!("t{i}");
                        let mut run = drive_tenant(client, &name, events, poll_status, &mut lane)?;
                        run.spans = lane.finish();
                        Ok(run)
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
        })
    });
    out.ingest_wall = ingest_started.elapsed();

    for (i, tenant) in tenants.into_iter().enumerate() {
        let tenant = tenant?;
        let sent = streams[i].len() as u64;
        out.sent += sent;
        out.checked += tenant.checked;
        out.batch_latency_us.extend(tenant.batch_latency_us);
        out.attempts += tenant.attempts;
        out.backpressure_hits += tenant.backpressure_hits;
        out.backoff_sleep += tenant.backoff_sleep;
        out.open_ms.push(tenant.open_ms);
        out.close_drain.push(tenant.close_drain);
        out.queue_depth_max = out.queue_depth_max.max(tenant.queue_depth_max);
        out.lag_max = out.lag_max.max(tenant.lag_max);
        lane.adopt(tenant.spans);
        if tenant.checked != sent {
            return Err(format!(
                "tenant t{i}: {sent} events were admitted but {} were checked",
                tenant.checked
            ));
        }
    }

    // The read side, beside the writes of the same repetition.
    let read_started = Instant::now();
    let mut read = Vec::new();
    for i in 0..streams.len() {
        let dir = root.join(format!("t{i}"));
        let recovery = lane
            .span("store.recover", |_| recover(&dir))
            .map_err(|e| format!("recover t{i}: {e}"))?;
        let resumed = lane
            .span("runner.resume_verification", |_| resume_verification(&dir))
            .map_err(|e| format!("resume t{i}: {e}"))?;
        read.push((recovery.txns.len(), resumed));
    }
    out.read_wall = read_started.elapsed();

    let mut teardown = Duration::ZERO;
    lane.span("bench.teardown", |_| {
        for (i, (recovered, resumed)) in read.into_iter().enumerate() {
            let sent = streams[i].len();
            out.logged += resumed.logged_txns as u64;
            let clean = matches!(&resumed.verdict, Ok(v) if v.is_satisfied());
            if recovered != sent || resumed.logged_txns != sent || !clean {
                return Err(format!(
                    "tenant t{i}: the resumed store disagrees with the live run: {sent} sent, \
                     {recovered} recovered, {} resumed, verdict {:?}",
                    resumed.logged_txns, resumed.verdict
                ));
            }
        }
        let (segments, checkpoints) =
            dir_bytes(root, "segment-").map_err(|e| format!("measure {}: {e}", root.display()))?;
        out.store_bytes = segments + checkpoints;
        let teardown_started = Instant::now();
        drop(clients);
        server.stop()?;
        teardown = teardown_started.elapsed();
        // Not the program's work, and 10-30 ms of the file system's mood:
        // deleting the run's files stays out of the set-up time.
        std::fs::remove_dir_all(root).map_err(|e| format!("remove {}: {e}", root.display()))?;
        Ok::<_, String>(())
    })?;
    out.setup += teardown;
    Ok(out)
}

/// The streams one `service_durable` repetition sends.
pub fn service_streams(seed: u64, smoke: bool) -> Vec<Vec<IngestEvent>> {
    let per_tenant = txns_per_driver(Kind::Service, smoke);
    (0..DRIVERS)
        .map(|t| service_events(seed, t, TENANT_SESSIONS, per_tenant))
        .collect()
}

fn service_rep(ctx: &Ctx, lane: &mut Lane) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut root = None;
    let run = lane.span("bench.rep", |lane| {
        root = lane.current();
        let generate_started = Instant::now();
        let streams = lane.span("workload.generate", |_| {
            service_streams(ctx.seed, ctx.smoke)
        });
        rep.generate = generate_started.elapsed();
        service_once(&ctx.tmp.join("service"), &streams, false, lane)
    })?;
    rep.root = root;
    rep.txns = run.checked;
    rep.exec = run.ingest_wall;
    rep.verify = run.read_wall;
    rep.verify_txns = run.logged;
    // Set-up sits between generation and ingest, so the sections are summed.
    rep.e2e = rep.generate + run.ingest_wall + run.read_wall;
    rep.setup = run.setup;
    rep.attempted = run.sent;
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_returns_what_ends_in_time_and_leaves_what_does_not() {
        assert_eq!(within(Duration::from_secs(5), || 7), Some(7));
        let (release, hold) = std::sync::mpsc::channel::<()>();
        let stuck = within(Duration::from_millis(20), move || hold.recv().is_ok());
        assert_eq!(stuck, None);
        drop(release);
    }
}
