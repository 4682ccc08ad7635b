//! Loopback tests of the client, the server and the rule between them.

use crate::proto::{Reply, ReplyEnvelope, Request, RequestEnvelope};
use crate::*;
use mtc_core::IsolationLevel;
use mtc_dbsim::{AbortReason, BackendSpec, DbBackend};
use mtc_history::{Key, Value, INIT_VALUE};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// `requests` as the bytes of one burst, sequence numbers from 0.
fn burst(requests: &[Request]) -> Vec<u8> {
    let mut out = Vec::new();
    for (seq, request) in (0..).zip(requests.iter().cloned()) {
        proto::encode(&mut out, &RequestEnvelope { seq, request });
    }
    out
}

/// A hand-driven connection to `server`.
fn raw(server: &NetServer) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

/// The next `n` replies on `stream`.
fn replies(stream: &mut TcpStream, n: usize) -> Vec<ReplyEnvelope> {
    (0..n).map(|_| proto::recv(stream).unwrap()).collect()
}

/// Whether the server closed `stream` (and not merely went quiet).
fn closed(stream: &mut TcpStream) -> bool {
    matches!(stream.read(&mut [0u8; 1]), Ok(0))
}

#[test]
fn loopback_round_trip_commits_and_reads_back() {
    let server = NetServer::spawn(spec_for_label("sim-ser", 4).unwrap()).unwrap();
    let backend = NetBackend::connect(server.addr()).unwrap();
    assert_eq!(backend.label(), "net/sim-ser");
    assert!(backend.promises(IsolationLevel::StrictSerializability));

    let mut t = backend.begin();
    t.write_register(Key(0), Value(7)).unwrap();
    let info = t.commit().unwrap();
    assert!(info.commit_ts > 0);
    assert!(backend.now() >= info.commit_ts);

    let mut t = backend.begin();
    assert_eq!(t.read_register(Key(0)).unwrap(), Value(7));
    t.append(Key(1), Value(1)).unwrap();
    t.append(Key(1), Value(2)).unwrap();
    assert_eq!(t.read_list(Key(1)).unwrap(), vec![Value(1), Value(2)]);
    assert_eq!(t.abort(), mtc_dbsim::AbortReason::UserAbort);

    // The abort rolled the appends back.
    let mut t = backend.begin();
    assert_eq!(t.read_list(Key(1)).unwrap(), Vec::<Value>::new());
    t.commit().unwrap();
    server.shutdown().unwrap();
}

#[test]
fn a_dead_server_dooms_transactions_instead_of_panicking() {
    let server = NetServer::spawn(BackendSpec::TwoPl).unwrap();
    let addr = server.addr();
    let backend = NetBackend::connect(addr).unwrap();
    server.shutdown().unwrap();

    let mut t = backend.begin();
    let err = t.read_register(Key(0)).unwrap_err();
    assert_eq!(err, mtc_dbsim::AbortReason::ConnectionLost);
    assert_eq!(t.abort(), mtc_dbsim::AbortReason::ConnectionLost);
}

#[test]
fn dropped_connections_leave_no_server_side_locks() {
    // A client that vanishes mid-transaction (handle dropped, socket
    // closed) must not wedge a lock-holding engine: the handler aborts
    // leftovers, so a second client can lock the same key.
    let server = NetServer::spawn(BackendSpec::TwoPl).unwrap();
    let backend = NetBackend::connect(server.addr()).unwrap();
    {
        let mut t = backend.begin();
        t.write_register(Key(5), Value(1)).unwrap();
        // Read it back: a queued write has not reached the server yet.
        assert_eq!(t.read_register(Key(5)), Ok(Value(1)));
        drop(t); // no abort: simulates a crashed client
    }
    drop(backend); // closes the pooled connection under the server
    let fresh = NetBackend::connect(server.addr()).unwrap();
    let mut t = fresh.begin();
    // May need a moment for the server to notice the closed socket.
    let mut attempts = 0;
    loop {
        match t.write_register(Key(5), Value(2)) {
            Ok(()) => break,
            Err(e) => {
                assert!(attempts < 100, "lock never released: {e}");
                attempts += 1;
                let _ = t.abort();
                std::thread::sleep(std::time::Duration::from_millis(20));
                t = fresh.begin();
            }
        }
    }
    t.commit().unwrap();
    server.shutdown().unwrap();
}

/// The rule that makes sending ahead safe, against the one fleet engine
/// whose operations fail: a commit queued behind a write the engine
/// refuses is answered with the write's reason and never runs.
#[test]
fn a_commit_sent_behind_a_refused_write_never_runs() {
    let server = NetServer::spawn(BackendSpec::TwoPl).unwrap();
    let backend = NetBackend::connect(server.addr()).unwrap();
    let mut older = backend.begin();
    older.write_register(Key(1), Value(10)).unwrap();
    assert_eq!(older.read_register(Key(1)), Ok(Value(10))); // flushed: lock held

    // Wait-die: the younger writer dies on the older one's lock. Its
    // write is accepted (queued); the flush that carries it and the
    // commit surfaces the write's reason.
    let mut younger = backend.begin();
    younger.write_register(Key(1), Value(20)).unwrap();
    assert_eq!(younger.commit(), Err(AbortReason::Deadlock));
    assert_eq!(
        backend.pooled(),
        1,
        "a refusal is a clean round trip: the connection goes back to the pool"
    );

    // The same by hand, one segment: everything after the refused write
    // — a write to a free key and the commit included — is refused.
    let mut stream = raw(&server);
    let txn = 0;
    stream
        .write_all(&burst(&[
            Request::Begin { retry_of: None },
            Request::Write {
                txn,
                key: Key(1),
                value: Value(30),
            },
            Request::Write {
                txn,
                key: Key(2),
                value: Value(31),
            },
            Request::Commit { txn },
        ]))
        .unwrap();
    let got = replies(&mut stream, 4);
    assert!(matches!(got[0].reply, Reply::Begun { txn: 1, .. }));
    for (seq, env) in (1..).zip(&got[1..]) {
        assert_eq!(env.seq, seq);
        assert_eq!(env.reply, Reply::Aborted(AbortReason::Deadlock));
    }

    older.commit().unwrap();
    let mut reader = backend.begin();
    assert_eq!(reader.read_register(Key(1)), Ok(Value(10)));
    assert_eq!(reader.read_register(Key(2)), Ok(INIT_VALUE));
    reader.commit().unwrap();
    server.shutdown().unwrap();
}

/// A read-only transaction's reads and commit, announced, share one frame;
/// the same rule keeps the commit from running behind a refused read. A
/// value answered before the refusal stands, the abort rolls nothing back a
/// second time, and the connection goes back to the pool.
#[test]
fn a_commit_announced_behind_a_refused_read_never_runs() {
    let server = NetServer::spawn(BackendSpec::TwoPl).unwrap();
    let backend = NetBackend::connect(server.addr()).unwrap();
    let mut older = backend.begin();
    older.write_register(Key(1), Value(10)).unwrap();
    assert_eq!(older.read_register(Key(1)), Ok(Value(10))); // flushed: lock held

    let mut younger = backend.begin();
    younger.read_ahead(&[Key(2), Key(1)], true);
    assert_eq!(younger.read_register(Key(2)), Ok(INIT_VALUE));
    assert_eq!(younger.read_register(Key(1)), Err(AbortReason::Deadlock));
    assert_eq!(younger.abort(), AbortReason::Deadlock);
    assert_eq!(backend.pooled(), 1, "the refused frame was answered whole");

    older.commit().unwrap();
    let mut reader = backend.begin();
    reader.read_ahead(&[Key(1), Key(2)], true);
    assert_eq!(reader.read_register(Key(1)), Ok(Value(10)));
    assert_eq!(reader.read_register(Key(2)), Ok(INIT_VALUE));
    assert!(reader.commit().unwrap().commit_ts > 0);
    server.shutdown().unwrap();
}

#[test]
#[should_panic(expected = "in the order they were announced")]
fn a_read_out_of_its_announced_order_is_a_bug() {
    let server = NetServer::spawn(spec_for_label("sim-ser", 4).unwrap()).unwrap();
    let backend = NetBackend::connect(server.addr()).unwrap();
    let mut t = backend.begin();
    t.read_ahead(&[Key(0), Key(1)], false);
    let _ = t.read_register(Key(1));
}

/// An engine that forgets its own failures: a write to `Key(13)` is
/// refused, yet `commit` on the same handle would go through.
#[derive(Default)]
struct Forgetful {
    commits: std::sync::atomic::AtomicU64,
}

impl mtc_dbsim::DbTxn for &Forgetful {
    fn begin_ts(&self) -> u64 {
        1
    }
    fn read_register(&mut self, _: Key) -> Result<Value, AbortReason> {
        Ok(INIT_VALUE)
    }
    fn write_register(&mut self, key: Key, _: Value) -> Result<(), AbortReason> {
        if key == Key(13) {
            return Err(AbortReason::Deadlock);
        }
        Ok(())
    }
    fn read_list(&mut self, _: Key) -> Result<Vec<Value>, AbortReason> {
        Ok(Vec::new())
    }
    fn append(&mut self, _: Key, _: Value) -> Result<(), AbortReason> {
        Ok(())
    }
    fn commit(self: Box<Self>) -> Result<mtc_dbsim::CommitInfo, AbortReason> {
        self.commits
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(mtc_dbsim::CommitInfo { commit_ts: 2 })
    }
    fn abort(self: Box<Self>) -> AbortReason {
        AbortReason::UserAbort
    }
}

impl DbBackend for Forgetful {
    fn begin(&self) -> Box<dyn mtc_dbsim::DbTxn + '_> {
        Box::new(self)
    }
    fn now(&self) -> u64 {
        2
    }
    fn label(&self) -> &'static str {
        "forgetful"
    }
    fn promises(&self, _: IsolationLevel) -> bool {
        false
    }
}

/// The server's rule holds whatever the engine's own doomed-handle
/// behaviour: `commit()` is not reached behind a refused operation, and
/// id `0` moves on to the next transaction the connection begins.
#[test]
fn the_server_not_the_engine_refuses_what_follows_a_refused_write() {
    let engine = Forgetful::default();
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let mut stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let (txn, value) = (0, Value(7));
    let write = |key| Request::Write { txn, key, value };
    std::thread::scope(|scope| {
        scope.spawn(|| serve(&engine, listener, &stop).unwrap());
        stream
            .write_all(&burst(&[
                Request::Begin { retry_of: None },
                write(Key(13)),
                write(Key(1)),
                Request::Commit { txn },
                Request::Begin { retry_of: None },
                write(Key(1)),
                Request::Commit { txn },
            ]))
            .unwrap();
        let got: Vec<Reply> = replies(&mut stream, 7)
            .into_iter()
            .map(|e| e.reply)
            .collect();
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        let refused = Reply::Aborted(AbortReason::Deadlock);
        assert_eq!(got[1..4], [refused.clone(), refused.clone(), refused]);
        assert!(matches!(got[4], Reply::Begun { txn: 2, .. }));
        assert_eq!(got[5..], [Reply::Done, Reply::Committed { commit_ts: 2 }]);
    });
    assert_eq!(engine.commits.into_inner(), 1);
}

/// 200 requests in one `write`, and the same bytes one per `write`, get
/// the same 200 replies in order (fresh server each, so clocks agree).
#[test]
fn a_burst_and_a_dribble_get_the_same_replies() {
    let txn = 0;
    let mut requests = Vec::new();
    for i in 0..40 {
        let key = Key(i % 4);
        requests.extend([
            Request::Begin { retry_of: None },
            Request::Read { txn, key },
            Request::Write {
                txn,
                key,
                value: Value(100 + i),
            },
            Request::Read { txn, key },
            Request::Commit { txn },
        ]);
    }
    let bytes = burst(&requests);
    let run = |chunk: usize| {
        let server = NetServer::spawn(spec_for_label("sim-ser", 4).unwrap()).unwrap();
        let mut stream = raw(&server);
        for piece in bytes.chunks(chunk) {
            stream.write_all(piece).unwrap();
        }
        let got = replies(&mut stream, requests.len());
        server.shutdown().unwrap();
        got
    };
    let whole = run(bytes.len());
    assert!(whole.iter().map(|env| env.seq).eq(0..200));
    assert_eq!(whole[3].reply, Reply::Value(Value(100)));
    assert!(matches!(whole[199].reply, Reply::Committed { .. }));
    assert_eq!(run(1), whole);
}

/// Whole frames ahead of a broken one are answered; then the connection
/// is dropped — at once if the frame is corrupt, after the stall limit
/// if it merely never finishes.
#[test]
fn a_broken_frame_mid_burst_answers_what_preceded_it() {
    let server = NetServer::spawn(spec_for_label("sim-ser", 4).unwrap()).unwrap();
    let two = burst(&[Request::Now, Request::Now]);
    let third = &burst(&[Request::Now, Request::Now, Request::Now])[two.len()..];

    let mut stalled = raw(&server);
    let t0 = Instant::now();
    stalled.write_all(&two).unwrap();
    stalled.write_all(&third[..third.len() / 2]).unwrap();
    assert_eq!(replies(&mut stalled, 2)[1].seq, 1);
    assert!(closed(&mut stalled));
    assert!(t0.elapsed() >= Duration::from_millis(200), "dropped early");

    let mut corrupt = raw(&server);
    let mut bad = third.to_vec();
    *bad.last_mut().unwrap() ^= 0x40;
    corrupt
        .write_all(&[&two[..], &bad[..], &two[..]].concat())
        .unwrap();
    assert_eq!(replies(&mut corrupt, 2)[1].seq, 1);
    assert!(closed(&mut corrupt));
    server.shutdown().unwrap();
}

/// A transaction with more writes than a connection holds back flushes
/// as it goes, and still commits all of them.
#[test]
fn a_long_run_of_writes_flushes_itself() {
    let server = NetServer::spawn(spec_for_label("sim-ser", 4).unwrap()).unwrap();
    let backend = NetBackend::connect(server.addr()).unwrap();
    let mut t = backend.begin();
    for i in 0..1000 {
        t.write_register(Key(i % 4), Value(i)).unwrap();
    }
    t.commit().unwrap();
    let mut t = backend.begin();
    assert_eq!(t.read_register(Key(3)), Ok(Value(999)));
    t.commit().unwrap();
    server.shutdown().unwrap();
}
