//! The daemon's wire face: the service role of the `mtc-net` protocol.
//!
//! Same framing, same envelopes, same handshake as an execution server —
//! one CRC-framed binval record per message, per-connection sequence
//! numbers — but the request vocabulary is the tenant-stream half of the
//! protocol (`OpenTenant` / `Ingest` / `TenantStatus` / `CloseTenant`).
//! Execution-role requests are refused with an explicit error, mirroring
//! how `mtc_net::serve` refuses service-role requests.
//!
//! [`serve`] runs the execution server's accept loop (one scoped handler
//! thread per connection, pushing into the core's admission queues —
//! handlers never verify); [`ServiceServer`] is the in-process harness the
//! tests, the load generator and the benchmark build on: ephemeral
//! loopback port, its own accept *and* drain threads, shutdown on drop.

use crate::core::{Admission, ServiceConfig, ServiceCore};
use mtc_net::proto::{Reply, Request, PROTOCOL_VERSION};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The label a service announces in its `Hello` reply.
pub const SERVICE_LABEL: &str = "mtc-service";

/// Serves `core` on `listener` until `shutdown` becomes true or the core
/// stops: one handler thread per connection, the execution server's accept
/// and connection loops ([`mtc_net::server::accept_loop`],
/// [`mtc_net::server::serve_connection`]).
pub fn serve(core: &ServiceCore, listener: TcpListener, shutdown: &AtomicBool) -> io::Result<()> {
    mtc_net::server::accept_loop(
        listener,
        "service",
        || shutdown.load(Ordering::Acquire) || core.is_shutdown(),
        |stream| handle_connection(core, stream, shutdown),
    )
}

/// One service-role connection. Unlike the execution server there is
/// nothing connection-scoped to clean up afterwards: tenants outlive their
/// connections by design.
fn handle_connection(core: &ServiceCore, stream: TcpStream, shutdown: &AtomicBool) {
    mtc_net::server::serve_connection(
        stream,
        || shutdown.load(Ordering::Acquire) || core.is_shutdown(),
        // The service has no transactional clock to share; 0 keeps the
        // reply's `now` field honest ("no later than anything").
        |request| (0, execute(core, request)),
    );
}

fn execute(core: &ServiceCore, request: Request) -> Reply {
    match request {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                return Reply::Error(format!(
                    "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                ));
            }
            Reply::Hello {
                version: PROTOCOL_VERSION,
                label: SERVICE_LABEL.to_string(),
                // A verification service executes nothing, so it promises
                // no isolation level of its own.
                promised: Vec::new(),
            }
        }
        Request::OpenTenant {
            tenant,
            level,
            num_keys,
        } => match core.open_tenant(&tenant, level, num_keys) {
            Ok(open) => Reply::TenantOpened {
                tenant: open.tenant,
                resumed_txns: open.resumed_txns,
                from_checkpoint: open.from_checkpoint,
            },
            Err(e) => Reply::Error(e),
        },
        Request::Ingest { tenant, events } => match core.ingest(tenant, events) {
            Ok(Admission::Accepted(accepted)) => Reply::Ingested { accepted },
            Ok(Admission::Backpressure {
                queue_depth,
                queue_cap,
            }) => Reply::Backpressure {
                queue_depth,
                queue_cap,
            },
            Err(e) => Reply::Error(e),
        },
        Request::TenantStatus { tenant } => match core.status(tenant) {
            Ok(status) => Reply::TenantStat(status),
            Err(e) => Reply::Error(e),
        },
        Request::CloseTenant { tenant } => match core.close_tenant(tenant) {
            Ok(summary) => Reply::TenantClosed {
                checked: summary.checked,
                violated: summary.violated,
                first_violation_at: summary.first_violation_at,
            },
            Err(e) => Reply::Error(e),
        },
        Request::MetricsSnapshot => Reply::Metrics(mtc_obs::registry().snapshot()),
        Request::Begin { .. }
        | Request::Read { .. }
        | Request::Write { .. }
        | Request::ReadList { .. }
        | Request::Append { .. }
        | Request::Commit { .. }
        | Request::Abort { .. }
        | Request::Now => {
            Reply::Error("this is a verification service, not an execution server".to_string())
        }
    }
}

/// An in-process daemon on an ephemeral loopback port: accept loop and
/// drain loop each on their own thread, shut down (and joined) on drop.
pub struct ServiceServer {
    addr: SocketAddr,
    core: Arc<ServiceCore>,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<io::Result<()>>>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServiceServer {
    /// Binds `127.0.0.1:0` and starts serving a fresh core built from
    /// `config`. Observability recording is switched on for the process:
    /// a daemon's whole point is to be watchable, and the layer's cost is
    /// bounded by the bench gate's `obs-overhead` series.
    pub fn spawn(config: ServiceConfig) -> io::Result<ServiceServer> {
        mtc_obs::set_enabled(true);
        let core = Arc::new(ServiceCore::new(config)?);
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));

        let accept_core = Arc::clone(&core);
        let accept_flag = Arc::clone(&shutdown);
        let accept =
            std::thread::spawn(move || serve(accept_core.as_ref(), listener, &accept_flag));

        let drain_core = Arc::clone(&core);
        let drain = std::thread::spawn(move || drain_core.run_drain());

        Ok(ServiceServer {
            addr,
            core,
            shutdown,
            accept: Some(accept),
            drain: Some(drain),
        })
    }

    /// The daemon's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the core — the tests' side door for knobs like
    /// [`ServiceCore::pause_tenant`].
    pub fn core(&self) -> &Arc<ServiceCore> {
        &self.core
    }

    /// Stops the accept and drain loops and joins both threads.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<()> {
        self.core.stop();
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.drain.take() {
            let _ = handle.join();
        }
        match self.accept.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("service accept thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for ServiceServer {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}
