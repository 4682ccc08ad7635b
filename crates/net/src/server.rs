//! The server side: any [`DbBackend`] behind a TCP listener.
//!
//! [`serve`] runs [`accept_loop`] (the verification daemon's too): one
//! handler thread per connection inside a [`std::thread::scope`], so
//! handlers can hold open transactions (`Box<dyn DbTxn + '_>`) against the
//! borrowed engine. A connection that drops — cleanly or mid-transaction —
//! has its leftover transactions explicitly aborted before the handler
//! exits: engines like the weak MVCC store do not clean up on `Drop`, and a
//! crashed client must never leave locks or uncommitted versions behind on
//! the server.
//!
//! A handler answers **bursts**: [`serve_connection`] (the loop the
//! verification daemon's handlers run too) reads whatever the socket has,
//! executes every whole request frame in order and sends all their replies
//! in one write — two syscalls per burst. Clients send ahead of replies
//! (see [`crate::client`]), which is safe because of one rule kept here:
//! the first operation the engine aborts rolls its transaction back and
//! records the reason, and every later request naming that transaction —
//! those already in the same burst included — is answered
//! `Aborted(same reason)` until its `Commit`/`Abort` retires the record.
//! A commit never runs on a transaction one of whose operations the server
//! refused, whatever the engine's own doomed-handle behaviour.
//!
//! [`NetServer`] is the in-process convenience wrapper the tests and
//! benches use: it binds an ephemeral loopback port, builds a fresh engine
//! from a [`BackendSpec`] on its own thread, and shuts the loop down on
//! drop.

use crate::proto::{
    self, FrameBuf, Reply, ReplyEnvelope, Request, RequestEnvelope, PROTOCOL_VERSION,
};
use mtc_core::IsolationLevel;
use mtc_dbsim::{AbortReason, BackendSpec, DbBackend, DbTxn};
use mtc_obs::events::JsonValue;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The three levels a `Hello` reply may promise.
const LEVELS: [IsolationLevel; 3] = [
    IsolationLevel::SnapshotIsolation,
    IsolationLevel::Serializability,
    IsolationLevel::StrictSerializability,
];

/// Serves `backend` on `listener` until `shutdown` becomes true: one
/// handler thread per connection ([`accept_loop`]).
pub fn serve(
    backend: &dyn DbBackend,
    listener: TcpListener,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    accept_loop(
        listener,
        "execution",
        || shutdown.load(Ordering::Acquire),
        |stream| handle_connection(backend, stream, shutdown),
    )
}

/// The accept loop of both server roles: each accepted connection gets its
/// own scoped thread running `handle`, announced as a `connection-accepted`
/// event with `role`. The loop polls `stop` every few milliseconds (the
/// listener is switched to non-blocking mode for that) and returns once it
/// is true and every handler has finished.
pub fn accept_loop(
    listener: TcpListener,
    role: &str,
    stop: impl Fn() -> bool,
    handle: impl Fn(TcpStream) + Sync,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let handle = &handle;
    std::thread::scope(|scope| {
        while !stop() {
            match listener.accept() {
                Ok((stream, peer)) => {
                    mtc_obs::gauge!("net.connections_open").add(1);
                    mtc_obs::events::emit(
                        "connection-accepted",
                        &[
                            ("role", JsonValue::Str(role.to_string())),
                            ("peer", JsonValue::Str(peer.to_string())),
                        ],
                    );
                    scope.spawn(move || {
                        handle(stream);
                        mtc_obs::gauge!("net.connections_open").sub(1);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    })
}

/// How often an idle connection handler looks at its stop condition.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// How long a peer may leave a frame half sent, or replies unread, before it
/// is treated as gone (it will surface a `ConnectionLost` on its side).
const STALL_LIMIT: Duration = Duration::from_millis(if cfg!(test) { 200 } else { 5000 });

/// The connection loop of both server roles: read whatever the socket has,
/// run every whole request frame through `execute` in order (it returns the
/// reply and the clock reading to stamp on it), send all their replies in
/// one write. Returns when `stop()` turns true, the peer closes, a frame is
/// corrupt (the whole frames before it are answered first), or the peer
/// stalls mid-frame for five seconds.
pub fn serve_connection(
    mut stream: TcpStream,
    stop: impl Fn() -> bool,
    mut execute: impl FnMut(Request) -> (u64, Reply),
) {
    if stream.set_nodelay(true).is_err()
        || stream.set_read_timeout(Some(IDLE_POLL)).is_err()
        || stream.set_write_timeout(Some(STALL_LIMIT)).is_err()
    {
        return;
    }
    let mut frames = FrameBuf::default();
    let mut replies = Vec::new();
    let mut last_byte_at = Instant::now(); // read only while a frame is partial
    while !stop() {
        match frames.fill(&mut stream) {
            Ok(0) => break, // peer closed
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if frames.has_partial() && last_byte_at.elapsed() >= STALL_LIMIT {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        let clean = loop {
            match frames.pop::<RequestEnvelope>() {
                Ok(Some(env)) => {
                    let (now, reply) = execute(env.request);
                    let seq = env.seq;
                    proto::encode(&mut replies, &ReplyEnvelope { seq, now, reply });
                }
                Ok(None) => break true,
                Err(_) => break false,
            }
        };
        let sent = replies.is_empty() || stream.write_all(&replies).is_ok();
        replies.clear();
        if !(clean && sent) {
            break;
        }
        if frames.has_partial() {
            last_byte_at = Instant::now();
        }
    }
}

/// A connection's slot for one transaction id.
enum Slot<'b> {
    Open(Box<dyn DbTxn + 'b>),
    /// An operation was refused: the engine handle is already rolled back,
    /// and every later request naming the id gets this reason until its
    /// `Commit`/`Abort` retires the slot.
    Refused(AbortReason),
}

/// Connection-local transaction table. Ids are connection-local counters
/// rather than begin timestamps so a retry (which *reuses* its first
/// attempt's timestamp) can never collide with a live transaction; they
/// start at 1, and a request's id 0 means the last one handed out.
struct Txns<'b> {
    slots: HashMap<u64, Slot<'b>>,
    last_id: u64,
}

impl<'b> Txns<'b> {
    /// The id a request means by `txn`.
    fn id(&self, txn: u64) -> u64 {
        if txn == 0 {
            self.last_id
        } else {
            txn
        }
    }

    /// Runs one operation on transaction `txn`. The first one the engine
    /// aborts rolls the transaction back here and now — a client that sent
    /// a commit ahead of this operation's reply must not have it executed.
    fn op(
        &mut self,
        txn: u64,
        op: impl FnOnce(&mut (dyn DbTxn + 'b)) -> Result<Reply, AbortReason>,
    ) -> Reply {
        let txn = self.id(txn);
        let Some(slot) = self.slots.get_mut(&txn) else {
            return unknown_txn(txn);
        };
        let reason = match slot {
            Slot::Refused(reason) => *reason,
            Slot::Open(handle) => match op(handle.as_mut()) {
                Ok(reply) => return reply,
                Err(reason) => reason,
            },
        };
        if let Slot::Open(handle) = std::mem::replace(slot, Slot::Refused(reason)) {
            let _ = handle.abort();
        }
        Reply::Aborted(reason)
    }

    /// Retires transaction `txn`'s slot for its `Commit` or `Abort`.
    fn settle(&mut self, txn: u64) -> Option<Slot<'b>> {
        self.slots.remove(&self.id(txn))
    }
}

/// One execution-role connection; whatever transactions it still holds
/// when it ends are aborted.
fn handle_connection(backend: &dyn DbBackend, stream: TcpStream, shutdown: &AtomicBool) {
    let mut txns = Txns {
        slots: HashMap::new(),
        last_id: 0,
    };
    serve_connection(
        stream,
        || shutdown.load(Ordering::Acquire),
        |request| {
            let reply = execute(backend, &mut txns, request);
            (backend.now(), reply)
        },
    );
    for (_, slot) in txns.slots.drain() {
        if let Slot::Open(handle) = slot {
            let _ = handle.abort();
        }
    }
}

fn execute<'b>(backend: &'b dyn DbBackend, txns: &mut Txns<'b>, request: Request) -> Reply {
    match request {
        Request::Hello { version } => {
            if version != PROTOCOL_VERSION {
                return Reply::Error(format!(
                    "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                ));
            }
            Reply::Hello {
                version: PROTOCOL_VERSION,
                label: backend.label().to_string(),
                promised: LEVELS
                    .into_iter()
                    .filter(|&l| backend.promises(l))
                    .collect(),
            }
        }
        Request::Begin { retry_of } => {
            let handle = match retry_of {
                None => backend.begin(),
                Some(ts) => backend.begin_retry(ts),
            };
            let begin_ts = handle.begin_ts();
            txns.last_id += 1;
            txns.slots.insert(txns.last_id, Slot::Open(handle));
            Reply::Begun {
                txn: txns.last_id,
                begin_ts,
            }
        }
        Request::Read { txn, key } => txns.op(txn, |t| t.read_register(key).map(Reply::Value)),
        Request::Write { txn, key, value } => {
            txns.op(txn, |t| t.write_register(key, value).map(|()| Reply::Done))
        }
        Request::ReadList { txn, key } => txns.op(txn, |t| t.read_list(key).map(Reply::Values)),
        Request::Append { txn, key, element } => {
            txns.op(txn, |t| t.append(key, element).map(|()| Reply::Done))
        }
        // The invariant sending ahead rests on: `commit()` is reached only
        // from `Slot::Open`, i.e. for a transaction no operation of which
        // was refused.
        Request::Commit { txn } => match txns.settle(txn) {
            None => unknown_txn(txn),
            Some(Slot::Refused(reason)) => Reply::Aborted(reason),
            Some(Slot::Open(handle)) => match handle.commit() {
                Ok(info) => Reply::Committed {
                    commit_ts: info.commit_ts,
                },
                Err(reason) => Reply::Aborted(reason),
            },
        },
        Request::Abort { txn } => match txns.settle(txn) {
            None => unknown_txn(txn),
            Some(Slot::Refused(reason)) => Reply::Aborted(reason),
            Some(Slot::Open(handle)) => {
                let _ = handle.abort();
                Reply::Done
            }
        },
        Request::Now => Reply::Done,
        Request::MetricsSnapshot => Reply::Metrics(mtc_obs::registry().snapshot()),
        // Service-role requests (tenant streams) belong to `mtc-service`
        // daemons; an execution server refuses them explicitly rather than
        // misdecoding or hanging.
        Request::OpenTenant { .. }
        | Request::Ingest { .. }
        | Request::TenantStatus { .. }
        | Request::CloseTenant { .. } => {
            Reply::Error("this is an execution server, not a verification service".to_string())
        }
    }
}

fn unknown_txn(txn: u64) -> Reply {
    Reply::Error(format!("unknown transaction id {txn}"))
}

/// Resolves a fleet label (`"sim-ser"`, `"2pl"`, `"weak-rc"`, …) to its
/// [`BackendSpec`]; the inverse of [`BackendSpec::label`] over the default
/// fleet. `num_keys` sizes the simulator's pre-initialized key space.
pub fn spec_for_label(label: &str, num_keys: u64) -> Option<BackendSpec> {
    BackendSpec::fleet(num_keys)
        .into_iter()
        .find(|spec| spec.label() == label)
}

/// An in-process server on an ephemeral loopback port: the harness the
/// conformance tests, the bench gate and the crash smoke build on.
///
/// The engine is built fresh from the spec on the server thread; dropping
/// the handle (or calling [`NetServer::shutdown`]) stops the accept loop
/// and joins the thread.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl NetServer {
    /// Binds `127.0.0.1:0` and serves a fresh `spec` engine on a new thread.
    pub fn spawn(spec: BackendSpec) -> io::Result<NetServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            let backend = spec.build();
            serve(backend.as_ref(), listener, &flag)
        });
        Ok(NetServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The server's loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<()> {
        self.shutdown.store(true, Ordering::Release);
        match self.handle.take() {
            Some(handle) => handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("server thread panicked"))),
            None => Ok(()),
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}
