//! What a mini-transaction costs on the wire, read off the client's own
//! counters: `net.requests` (frames sent) and `net.round_trips` (flushes).
//! The counters are process-wide, so this is a test binary of its own and
//! every test holds the `with_enabled` lock.

use mtc_dbsim::{AbortReason, DbBackend, DbTxn, ExecutionOptions};
use mtc_history::{Key, Op, Value};
use mtc_net::{spec_for_label, NetBackend, NetServer};
use mtc_obs::test_support::with_enabled;
use mtc_workload::{ReqOp, SessionWorkload, TxnTemplate, Workload};

/// `(net.requests, net.round_trips)` spent by `f`.
fn cost(f: impl FnOnce()) -> (u64, u64) {
    let read = || {
        let snapshot = mtc_obs::registry().snapshot();
        let counter = |name| snapshot.counter(name).unwrap_or(0);
        (counter("net.requests"), counter("net.round_trips"))
    };
    let before = read();
    f();
    let after = read();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn a_mini_transaction_is_two_or_three_round_trips() {
    let _on = with_enabled(true);
    let spec = spec_for_label("sim-ser", 4).unwrap();
    let server = NetServer::spawn(spec.clone()).unwrap();
    let backend = NetBackend::connect(server.addr()).unwrap();

    // B·R·W·C is [B R]·[W C]; begin and write alone cost nothing.
    let mut t = backend.begin();
    assert_eq!(cost(|| t.write_register(Key(0), Value(1)).unwrap()), (1, 0));
    assert_eq!(
        cost(|| assert_eq!(t.read_register(Key(0)), Ok(Value(1)))),
        (1, 1)
    );
    assert_eq!(cost(|| assert!(t.commit().is_ok())), (1, 1));
    let rmw = |t: &mut Box<dyn DbTxn + '_>, key, value| {
        t.read_register(Key(key)).unwrap();
        t.write_register(Key(key), Value(value)).unwrap();
    };
    let one_key = || {
        let mut t = backend.begin();
        rmw(&mut t, 1, 2);
        t.commit().unwrap();
    };
    assert_eq!(cost(one_key), (4, 2));
    // B·R·W·R·W·C is [B R]·[W R]·[W C].
    let two_keys = || {
        let mut t = backend.begin();
        rmw(&mut t, 2, 3);
        rmw(&mut t, 3, 4);
        t.commit().unwrap();
    };
    assert_eq!(cost(two_keys), (6, 3));

    // `begin_ts()` before anything else pays the begin's round trip, once,
    // and reads the instant the engine gave: a fresh in-process engine
    // brought to the same point hands out the same one.
    let local = spec.build();
    for _ in 0..3 {
        let mut t = local.begin();
        t.write_register(Key(0), Value(0)).unwrap();
        t.commit().unwrap();
    }
    let t = backend.begin();
    let mut begin_ts = 0;
    assert_eq!(cost(|| begin_ts = t.begin_ts()), (0, 1));
    assert_eq!(cost(|| assert_eq!(t.begin_ts(), begin_ts)), (0, 0));
    assert_eq!(begin_ts, local.begin().begin_ts());
    assert_eq!(
        cost(|| assert_eq!(t.abort(), AbortReason::UserAbort)),
        (1, 1)
    );
    server.shutdown().unwrap();
}

/// Through the session machine, which announces a template's reads when it
/// begins: a mini-transaction's reads share one frame with its begin, its
/// writes one with its commit — one round trip per phase, whatever writes of
/// other keys stand between the reads — and a read-only one is a single
/// frame. A read of a key the template wrote before it waits for that write.
#[test]
fn a_mini_transaction_is_one_round_trip_per_phase() {
    use ReqOp::{Read, Write};
    let _on = with_enabled(true);
    let server = NetServer::spawn(spec_for_label("sim-ser", 4).unwrap()).unwrap();
    let backend = NetBackend::connect(server.addr()).unwrap();
    let shapes: [(&[ReqOp], (u64, u64)); 7] = [
        (&[Read(Key(0))], (3, 1)),
        (&[Read(Key(0)), Read(Key(1))], (4, 1)),
        (&[Read(Key(0)), Write(Key(0))], (4, 2)),
        (&[Read(Key(0)), Read(Key(1)), Write(Key(0))], (5, 2)),
        (
            &[Read(Key(0)), Read(Key(1)), Write(Key(0)), Write(Key(1))],
            (6, 2),
        ),
        (
            &[Read(Key(0)), Write(Key(0)), Read(Key(1)), Write(Key(1))],
            (6, 2),
        ),
        (&[Write(Key(2)), Read(Key(2))], (4, 2)),
    ];
    for (ops, expected) in shapes {
        let workload = Workload {
            sessions: vec![SessionWorkload {
                session: 0,
                txns: vec![TxnTemplate { ops: ops.to_vec() }],
            }],
            num_keys: 4,
        };
        let mut run = None;
        let spent = cost(|| run = Some(ExecutionOptions::threaded().run(&backend, &workload)));
        let (history, report) = run.unwrap();
        assert_eq!(report.committed, 1, "{ops:?}");
        assert_eq!(spent, expected, "{ops:?}: (requests, round trips)");
        let txn = history.txns().last().unwrap();
        if let [Op::Write { value, .. }, Op::Read { value: read, .. }] = txn.ops[..] {
            assert_eq!(read, value, "a read waits for its own transaction's write");
        }
    }
    server.shutdown().unwrap();
}

/// `net.call.encode` is a sampled span: one envelope in sixteen pays for two
/// clock reads, and timing them changes no byte.
#[test]
fn one_envelope_in_sixteen_has_its_encode_timed() {
    use mtc_net::proto::{self, Request, RequestEnvelope};
    let encode_160 = || {
        let mut wire = Vec::new();
        for seq in 0..160 {
            let request = Request::Commit { txn: seq };
            proto::encode(&mut wire, &RequestEnvelope { seq, request });
        }
        wire
    };
    let timed = || mtc_obs::registry().histogram("net.call.encode").count();
    let unrecorded = {
        let _off = with_enabled(false);
        let before = timed();
        let wire = encode_160();
        assert_eq!(timed(), before);
        wire
    };
    let _on = with_enabled(true);
    let before = timed();
    assert!(encode_160() == unrecorded, "recording changed the frames");
    assert_eq!(timed() - before, 10);
}
