//! The client side: a [`DbBackend`] that talks to a remote server.
//!
//! [`NetBackend::connect`] dials the server, handshakes (version check,
//! engine label and promise discovery), and from then on behaves exactly
//! like an in-process engine to the drivers — except that every failure of
//! the wire maps to a typed [`AbortReason`] instead of a panic:
//!
//! * an I/O failure (timeout, reset, refused, corrupt frame) of a round
//!   trip that carries no commit request aborts the transaction with
//!   [`AbortReason::ConnectionLost`] — nothing can have been committed, so
//!   the attempt is safe to record and retry;
//! * an I/O failure from the moment a round trip that carries the commit
//!   request starts to be written surfaces as
//!   [`AbortReason::CommitStatusUnknown`] — the commit may have happened
//!   server-side, so the drivers neither record nor retry the attempt (see
//!   `AbortReason::outcome_known`).
//!
//! Requests are **sent ahead**: `begin`, `write_register` and `append` only
//! encode their request into the connection's out-buffer, and the next call
//! that needs an answer (`read_register`, `read_list`, `commit`, `abort`, or
//! `begin_ts()` asked before any of those) sends everything queued plus
//! itself in one `write` and reads the replies in sequence order. Reads are
//! sent ahead too once announced ([`DbTxn::read_ahead`], which the session
//! machine calls with a template's reads when an attempt begins): the first
//! of them carries them all. A mini-transaction is therefore one round trip
//! per phase — `B·R·W·C` is `[B R]·[W C]`, `B·R·W·R·W·C` is `[B R R]·[W W C]`
//! — and a read-only one, whose commit is announced with its reads, one
//! frame `[B R R C]` (counters `net.requests` and `net.round_trips`;
//! `net.call_micros.<label>` times each round trip under the request that
//! could not wait). See [`NetTxn`] for what `Ok` from a queued write
//! promises.
//!
//! Connections are pooled: a transaction checks one out for its lifetime
//! (the protocol has at most one open transaction per connection from this
//! client) and returns it on a clean commit/abort; a connection that saw
//! any I/O error, or that still owes a reply, is discarded, never reused.
//! Sequence numbers survive pool reuse, so a duplicated reply is recognized
//! as stale and skipped rather than misattributed to the next transaction on
//! that connection.

use crate::proto::{
    self, FrameBuf, Reply, ReplyEnvelope, Request, RequestEnvelope, PROTOCOL_VERSION,
};
use mtc_core::IsolationLevel;
use mtc_dbsim::{AbortReason, CommitInfo, DbBackend, DbTxn};
use mtc_history::{Key, Value};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Maximum idle connections a [`NetBackend`] keeps for reuse; transactions
/// beyond this many in flight dial extra connections that are closed on
/// return.
const POOL_SIZE: usize = 16;

/// Knobs of a [`NetBackend`].
#[derive(Clone, Copy, Debug)]
pub struct NetOptions {
    /// Per-operation reply deadline. A transaction whose reply misses it
    /// aborts with [`AbortReason::ConnectionLost`] (or
    /// [`AbortReason::CommitStatusUnknown`] if the commit request was
    /// already on the wire).
    pub op_timeout: Duration,
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            op_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
        }
    }
}

/// Requests a connection holds back at most before a write flushes itself:
/// bounds the out-buffer, and keeps a burst (and the replies the server owes
/// for it) far below what the socket buffers take, so neither side can be
/// left writing at a peer that is not reading.
const MAX_IN_FLIGHT: u64 = 64;

/// One pooled connection: the socket, its sequence counter, and what is
/// queued on it or awaiting a reply.
struct Conn {
    stream: TcpStream,
    /// Requests `awaiting..next_seq` are in flight: queued or sent, their
    /// replies not yet read.
    next_seq: u64,
    awaiting: u64,
    /// Encoded requests not yet written.
    out: Vec<u8>,
    frames: FrameBuf,
}

impl Conn {
    fn dial(addr: SocketAddr, opts: &NetOptions) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, opts.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(opts.op_timeout))?;
        stream.set_write_timeout(Some(opts.op_timeout))?;
        Ok(Conn {
            stream,
            next_seq: 0,
            awaiting: 0,
            out: Vec::new(),
            frames: FrameBuf::default(),
        })
    }

    /// Encodes `request` behind whatever is already queued; nothing is sent.
    fn queue(&mut self, request: Request) {
        mtc_obs::counter!("net.requests").inc();
        let seq = self.next_seq;
        self.next_seq += 1;
        proto::encode(&mut self.out, &RequestEnvelope { seq, request });
    }

    fn in_flight(&self) -> u64 {
        self.next_seq - self.awaiting
    }

    /// One round trip: sends everything queued in one write, then hands
    /// `on_reply` the server clock and reply of every request in flight, in
    /// order. Timed under `micros`, the histogram of the request that could
    /// not wait.
    fn flush(
        &mut self,
        micros: &mtc_obs::Histogram,
        on_reply: impl FnMut(u64, Reply),
    ) -> io::Result<()> {
        mtc_obs::counter!("net.round_trips").inc();
        let timer = mtc_obs::enabled().then(std::time::Instant::now);
        let result = self.flush_inner(on_reply);
        if let Some(t0) = timer {
            micros.record(t0.elapsed().as_micros() as u64);
            if result.is_err() {
                mtc_obs::counter!("net.call_io_errors").inc();
            }
        }
        result
    }

    /// Replies with a stale sequence number (duplicates) are skipped; a
    /// reply from the future is a protocol violation.
    fn flush_inner(&mut self, mut on_reply: impl FnMut(u64, Reply)) -> io::Result<()> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        while self.awaiting < self.next_seq {
            let Some(env) = self.frames.pop::<ReplyEnvelope>()? else {
                if self.frames.fill(&mut self.stream)? == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                continue;
            };
            match env.seq.cmp(&self.awaiting) {
                std::cmp::Ordering::Less => {} // stale or duplicate
                std::cmp::Ordering::Equal => {
                    self.awaiting += 1;
                    on_reply(env.now, env.reply);
                }
                std::cmp::Ordering::Greater => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("reply {} ahead of request {}", env.seq, self.awaiting),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The `net.call_micros.<label>` histogram of `request`'s kind, resolved
/// once per kind rather than formatted and looked up per round trip.
fn call_micros(request: &Request) -> &'static mtc_obs::Histogram {
    match request {
        Request::Hello { .. } => mtc_obs::histogram!("net.call_micros.hello"),
        Request::Begin { .. } => mtc_obs::histogram!("net.call_micros.begin"),
        Request::Read { .. } => mtc_obs::histogram!("net.call_micros.read"),
        Request::Write { .. } => mtc_obs::histogram!("net.call_micros.write"),
        Request::ReadList { .. } => mtc_obs::histogram!("net.call_micros.read_list"),
        Request::Append { .. } => mtc_obs::histogram!("net.call_micros.append"),
        Request::Commit { .. } => mtc_obs::histogram!("net.call_micros.commit"),
        Request::Abort { .. } => mtc_obs::histogram!("net.call_micros.abort"),
        _ => mtc_obs::histogram!("net.call_micros.other"),
    }
}

/// Accounts a wire-failure doom under its reason, so an operator can tell
/// retryable [`AbortReason::ConnectionLost`] dooms apart from ambiguous
/// [`AbortReason::CommitStatusUnknown`] ones at a glance.
fn count_doom(reason: AbortReason) {
    match reason {
        AbortReason::CommitStatusUnknown => mtc_obs::counter!("net.commit_status_unknown").inc(),
        _ => mtc_obs::counter!("net.connection_lost").inc(),
    }
}

/// Interns `net/<label>` so [`DbBackend::label`] can hand out
/// `&'static str` without leaking a fresh allocation per backend instance.
fn intern_label(engine_label: &str) -> &'static str {
    static LABELS: std::sync::OnceLock<std::sync::Mutex<Vec<&'static str>>> =
        std::sync::OnceLock::new();
    let full = format!("net/{engine_label}");
    let mut labels = LABELS
        .get_or_init(|| std::sync::Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(hit) = labels.iter().find(|l| **l == full) {
        return hit;
    }
    let leaked: &'static str = Box::leak(full.into_boxed_str());
    labels.push(leaked);
    leaked
}

/// A remote engine behind the framed TCP protocol, usable anywhere a local
/// [`DbBackend`] is.
pub struct NetBackend {
    addr: SocketAddr,
    opts: NetOptions,
    label: &'static str,
    promised: Vec<IsolationLevel>,
    pool: Mutex<Vec<Conn>>,
    /// Highest server clock value observed on any reply; answers
    /// [`DbBackend::now`] without a round trip.
    clock: AtomicU64,
}

impl NetBackend {
    /// Dials `addr` with default options.
    pub fn connect(addr: SocketAddr) -> io::Result<NetBackend> {
        NetBackend::connect_with(addr, NetOptions::default())
    }

    /// Dials `addr`, handshakes, and learns the wrapped engine's label and
    /// promised isolation levels.
    pub fn connect_with(addr: SocketAddr, opts: NetOptions) -> io::Result<NetBackend> {
        let mut conn = Conn::dial(addr, &opts)?;
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        let micros = call_micros(&hello);
        conn.queue(hello);
        let mut answer = None;
        conn.flush(micros, |now, reply| answer = Some((now, reply)))?;
        let (now, reply) = answer.expect("a clean flush answers every request in flight");
        let (label, promised) = match reply {
            Reply::Hello {
                version,
                label,
                promised,
            } if version == PROTOCOL_VERSION => (label, promised),
            Reply::Hello { version, .. } => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("server speaks protocol {version}, client {PROTOCOL_VERSION}"),
                ));
            }
            Reply::Error(msg) => return Err(io::Error::new(io::ErrorKind::ConnectionRefused, msg)),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected handshake reply: {other:?}"),
                ));
            }
        };
        Ok(NetBackend {
            addr,
            opts,
            label: intern_label(&label),
            promised,
            pool: Mutex::new(vec![conn]),
            clock: AtomicU64::new(now),
        })
    }

    /// Idle connections in the pool.
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.pool.lock().len()
    }

    fn observe(&self, now: u64) {
        self.clock.fetch_max(now, Ordering::AcqRel);
    }

    fn checkout(&self) -> io::Result<Conn> {
        if let Some(conn) = self.pool.lock().pop() {
            return Ok(conn);
        }
        Conn::dial(self.addr, &self.opts)
    }

    /// Pools `conn` for the next transaction — only with nothing in flight:
    /// a connection that still owes replies belongs to a transaction that
    /// did not settle, and closing it is what makes the server abort it.
    fn check_in(&self, conn: Conn) {
        let mut pool = self.pool.lock();
        if conn.in_flight() == 0 && pool.len() < POOL_SIZE {
            pool.push(conn);
        }
    }
}

impl DbBackend for NetBackend {
    fn begin(&self) -> Box<dyn DbTxn + '_> {
        Box::new(self.begin_inner(None))
    }

    fn begin_retry(&self, prior_begin_ts: u64) -> Box<dyn DbTxn + '_> {
        mtc_obs::counter!("net.txn_retries").inc();
        Box::new(self.begin_inner(Some(prior_begin_ts)))
    }

    fn now(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    fn label(&self) -> &'static str {
        self.label
    }

    fn promises(&self, level: IsolationLevel) -> bool {
        self.promised.contains(&level)
    }
}

impl NetBackend {
    /// Opens a transaction: checks a connection out and *queues* the begin
    /// request on it — the round trip is the first read's (or commit's, or
    /// [`DbTxn::begin_ts`]'s). `begin` cannot fail by signature, so a
    /// connection that cannot be had yields a *doomed* handle: every
    /// operation on it returns [`AbortReason::ConnectionLost`], the driver
    /// aborts and retries.
    fn begin_inner(&self, retry_of: Option<u64>) -> NetTxn<'_> {
        let mut state = TxnState {
            conn: self.checkout().map_err(|_| AbortReason::ConnectionLost),
            begin_ts: None,
            ahead: VecDeque::new(),
            values: VecDeque::new(),
            refused: None,
            committing: false,
            commit_ts: None,
        };
        match &mut state.conn {
            Ok(conn) => conn.queue(Request::Begin { retry_of }),
            Err(reason) => count_doom(*reason),
        }
        NetTxn {
            backend: self,
            state: RefCell::new(state),
        }
    }
}

/// An open transaction on a checked-out connection.
///
/// **Contract of the queued calls.** [`DbBackend::begin`],
/// [`DbTxn::write_register`] and [`DbTxn::append`] only queue their request:
/// `Ok(())` from a write means *accepted — applied at the server no later
/// than this transaction's next reply-bearing call* (`read_register`,
/// `read_list`, `commit`, `abort`, or the first `begin_ts`), which sends
/// everything queued plus itself in one write. If the engine refuses a
/// queued write, that call returns the write's [`AbortReason`], and the
/// server has rolled the transaction back: nothing sent after a refused
/// operation runs, a commit least of all. Another connection cannot see a
/// write that is still queued — a hand-driven test that needs it visible
/// reads it back first.
///
/// **Reads announced ahead** ([`DbTxn::read_ahead`]) are queued at once,
/// behind the begin, and the first of them sends them all: the server runs
/// them back to back, and the later `read_register` calls for them cost no
/// round trip. A commit announced with them rides in the same frame, so a
/// read-only mini-transaction is one round trip and an I/O failure of it is
/// [`AbortReason::CommitStatusUnknown`]; `abort` after such an announcement
/// rolls nothing back (the commit settles the transaction at the server)
/// and returns the refusal that failed a read — or `CommitStatusUnknown` if
/// none did.
pub struct NetTxn<'b> {
    backend: &'b NetBackend,
    /// Behind a `RefCell` because [`DbTxn::begin_ts`] takes `&self` and may
    /// have to pay the begin's round trip.
    state: RefCell<TxnState>,
}

struct TxnState {
    /// The checked-out connection — or, once the wire failed, the reason
    /// every subsequent operation fails fast with (the transaction is
    /// *doomed*).
    conn: Result<Conn, AbortReason>,
    /// The server's begin instant, once a flush has brought `Begun` back.
    begin_ts: Option<u64>,
    /// Register reads announced and queued whose `read_register` calls have
    /// not come yet, in the order they will.
    ahead: VecDeque<Key>,
    /// Values the server answered register reads with, oldest first, not
    /// yet handed to a `read_register` call.
    values: VecDeque<Value>,
    /// The first refusal the server answered: it answers every later
    /// request naming the transaction with the same reason.
    refused: Option<AbortReason>,
    /// The commit request is queued or sent: from here on an I/O failure
    /// leaves the outcome unknown.
    committing: bool,
    /// The commit instant, once a flush has brought `Committed` back.
    commit_ts: Option<u64>,
}

impl TxnState {
    /// The connection cannot be trusted any more (I/O failure, protocol
    /// error, a reply of the wrong shape): drop it, never to be pooled, and
    /// fail every further operation with `reason`.
    fn doom(&mut self, reason: AbortReason) -> AbortReason {
        self.conn = Err(reason);
        count_doom(reason);
        reason
    }

    /// Whether a reply is owed: a request is queued or sent, not answered.
    fn owed(&self) -> bool {
        matches!(&self.conn, Ok(conn) if conn.in_flight() > 0)
    }

    fn queue(&mut self, request: Request) {
        if let Ok(conn) = &mut self.conn {
            conn.queue(request);
        }
    }

    /// One round trip for everything queued, taking in what its replies
    /// tell: the begin instant, read values, the commit instant, a refusal.
    /// `Ok` is the last reply; the first [`Reply::Aborted`] the transaction
    /// met is the error — the server answers everything after a refused
    /// operation with the same reason. A wire or protocol failure dooms the
    /// transaction: [`AbortReason::ConnectionLost`], or
    /// [`AbortReason::CommitStatusUnknown`] once a commit request is part of
    /// what may have reached the server.
    fn flush(
        &mut self,
        backend: &NetBackend,
        micros: &mtc_obs::Histogram,
    ) -> Result<Reply, AbortReason> {
        let conn = match &mut self.conn {
            Ok(conn) => conn,
            Err(reason) => return Err(*reason),
        };
        let (mut unknown, mut last) = (false, None);
        let sent = conn.flush(micros, |now, reply| {
            backend.observe(now);
            match reply {
                Reply::Begun { begin_ts, .. } => self.begin_ts = Some(begin_ts),
                Reply::Value(value) => self.values.push_back(value),
                Reply::Committed { commit_ts } => self.commit_ts = Some(commit_ts),
                Reply::Aborted(reason) => _ = self.refused.get_or_insert(reason),
                // The server no longer knows this transaction.
                Reply::Error(_) => unknown = true,
                _ => {}
            }
            last = Some(reply);
        });
        let on_io_failure = if self.committing {
            AbortReason::CommitStatusUnknown
        } else {
            AbortReason::ConnectionLost
        };
        match (sent, unknown, self.refused, last) {
            (Ok(()), false, Some(reason), _) => Err(reason),
            (Ok(()), false, None, Some(reply)) => Ok(reply),
            _ => Err(self.doom(on_io_failure)),
        }
    }

    /// Queues `request` and pays the round trip for it and everything
    /// queued before it.
    fn call(&mut self, backend: &NetBackend, request: Request) -> Result<Reply, AbortReason> {
        let micros = call_micros(&request);
        self.queue(request);
        self.flush(backend, micros)
    }

    /// Queues a write. It waits for the next reply-bearing call unless the
    /// connection already holds [`MAX_IN_FLIGHT`] requests back.
    fn write(&mut self, backend: &NetBackend, request: Request) -> Result<(), AbortReason> {
        if let Ok(conn) = &mut self.conn {
            if conn.in_flight() < MAX_IN_FLIGHT {
                conn.queue(request);
                return Ok(());
            }
        }
        match self.call(backend, request)? {
            Reply::Done => Ok(()),
            _ => Err(self.doom(AbortReason::ConnectionLost)),
        }
    }

    /// The value of the oldest register read sent and not yet handed out:
    /// already here, or brought by a round trip for everything queued.
    fn value(&mut self, backend: &NetBackend) -> Result<Value, AbortReason> {
        let flushed = if self.values.is_empty() {
            self.flush(backend, mtc_obs::histogram!("net.call_micros.read"))
                .map(drop)
        } else {
            Ok(())
        };
        match (self.values.pop_front(), flushed) {
            // A refusal later in the burst does not take back this value.
            (Some(value), _) => Ok(value),
            (None, Err(reason)) => Err(reason),
            (None, Ok(())) => Err(self.doom(AbortReason::ConnectionLost)),
        }
    }
}

impl DbTxn for NetTxn<'_> {
    /// The server's begin instant. Costs the begin's round trip if no call
    /// has paid it yet; on a doomed handle that never heard from the server
    /// it is the newest clock reading this client has seen.
    fn begin_ts(&self) -> u64 {
        let mut state = self.state.borrow_mut();
        if state.begin_ts.is_none() {
            // A refusal of a write that rode along is not lost: the server
            // repeats it to the next call.
            let micros = mtc_obs::histogram!("net.call_micros.begin");
            let _ = state.flush(self.backend, micros);
        }
        state.begin_ts.unwrap_or_else(|| self.backend.now())
    }

    fn read_register(&mut self, key: Key) -> Result<Value, AbortReason> {
        let state = self.state.get_mut();
        match state.ahead.pop_front() {
            None => state.queue(Request::Read { txn: 0, key }),
            Some(announced) => assert_eq!(
                announced, key,
                "register reads must come in the order they were announced"
            ),
        }
        state.value(self.backend)
    }

    fn write_register(&mut self, key: Key, value: Value) -> Result<(), AbortReason> {
        let request = Request::Write { txn: 0, key, value };
        self.state.get_mut().write(self.backend, request)
    }

    fn read_list(&mut self, key: Key) -> Result<Vec<Value>, AbortReason> {
        let state = self.state.get_mut();
        match state.call(self.backend, Request::ReadList { txn: 0, key })? {
            Reply::Values(values) => Ok(values),
            _ => Err(state.doom(AbortReason::ConnectionLost)),
        }
    }

    fn append(&mut self, key: Key, element: Value) -> Result<(), AbortReason> {
        let request = Request::Append {
            txn: 0,
            key,
            element,
        };
        self.state.get_mut().write(self.backend, request)
    }

    /// Queues the announced reads (and commit) behind what is queued — all
    /// of them, or nothing if they would leave the connection more requests
    /// in flight than it holds back before a write flushes itself.
    fn read_ahead(&mut self, keys: &[Key], then_commit: bool) {
        let state = self.state.get_mut();
        let Ok(conn) = &mut state.conn else { return };
        if conn.in_flight() + keys.len() as u64 >= MAX_IN_FLIGHT {
            return;
        }
        for &key in keys {
            conn.queue(Request::Read { txn: 0, key });
        }
        state.ahead.extend(keys);
        if then_commit {
            conn.queue(Request::Commit { txn: 0 });
            state.committing = true;
        }
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, AbortReason> {
        let mut state = self.state.into_inner();
        // From the moment the commit starts to be written it may reach the
        // server even if no reply reaches us, so failures are ambiguous.
        if !state.committing {
            state.queue(Request::Commit { txn: 0 });
            state.committing = true;
        }
        if state.owed() {
            let _ = state.flush(self.backend, mtc_obs::histogram!("net.call_micros.commit"));
        }
        let result = match (state.commit_ts, state.refused, &state.conn) {
            (Some(commit_ts), _, _) => Ok(CommitInfo { commit_ts }),
            (None, Some(reason), _) => Err(reason),
            (None, None, Err(reason)) => Err(*reason),
            (None, None, Ok(_)) => Err(state.doom(AbortReason::CommitStatusUnknown)),
        };
        // A *known* server-side abort (a write conflict, a refused write) is
        // a clean round trip too: the connection is reusable.
        if let Ok(conn) = state.conn {
            self.backend.check_in(conn);
        }
        result
    }

    fn abort(self: Box<Self>) -> AbortReason {
        let mut state = self.state.into_inner();
        let reason = if state.committing {
            // The commit went ahead with the reads: it, not an abort,
            // settles the transaction at the server.
            if state.owed() {
                let _ = state.flush(self.backend, mtc_obs::histogram!("net.call_micros.abort"));
            }
            let doomed = state.conn.as_ref().err().copied();
            state
                .refused
                .or(doomed)
                .unwrap_or(AbortReason::CommitStatusUnknown)
        } else {
            match state.call(self.backend, Request::Abort { txn: 0 }) {
                Ok(Reply::Done) => AbortReason::UserAbort,
                Ok(_) => state.doom(AbortReason::ConnectionLost),
                // The server had already rolled it back, for this reason.
                Err(reason) => reason,
            }
        };
        if let Ok(conn) = state.conn {
            self.backend.check_in(conn);
        }
        reason
    }
}
