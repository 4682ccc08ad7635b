//! Conformance of the remote (framed TCP) backend — fault-free and under
//! wire faults.
//!
//! * Every fleet engine behind the loopback server must hold exactly the
//!   promises it holds in-process: the promising engines stay clean through
//!   the wire, the weak engines' organic anomalies survive the round trip,
//!   and streaming verdicts agree with batch.
//! * Wire faults must be *boring*: delayed and duplicated replies change
//!   nothing (the sequence-number discipline absorbs them); a server
//!   dropped mid-stream surfaces typed `AbortReason`s — never a panic —
//!   and the recorded history's streaming verdict is bit-identical to a
//!   fault-free replay of the same history.

use mtc::core::{check_ser, check_si, check_sser, check_streaming, IsolationLevel, Verdict};
use mtc::dbsim::{AbortReason, BackendSpec, DbBackend, ExecutionOptions};
use mtc::history::History;
use mtc::net::{spec_for_label, NetBackend, NetOptions, NetServer};
use mtc::workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

const LEVELS: [IsolationLevel; 3] = [
    IsolationLevel::SnapshotIsolation,
    IsolationLevel::Serializability,
    IsolationLevel::StrictSerializability,
];

fn batch_check(level: IsolationLevel, history: &History) -> Verdict {
    match level {
        IsolationLevel::SnapshotIsolation => check_si(history),
        IsolationLevel::Serializability => check_ser(history),
        IsolationLevel::StrictSerializability => check_sser(history),
    }
    .expect("collected histories are inside the checkers' domain")
}

/// The same conformance core the in-process suite applies: promises hold,
/// streaming agrees with batch, at every level.
fn assert_conformant(label: &str, backend: &dyn DbBackend, history: &History) {
    for level in LEVELS {
        let batch = batch_check(level, history);
        let streaming = check_streaming(level, history).unwrap();
        assert_eq!(
            batch.is_violated(),
            streaming.is_violated(),
            "{label}/{level}: streaming disagrees with batch"
        );
        if backend.promises(level) {
            assert!(
                batch.is_satisfied(),
                "{label} promised {level} but was caught through the wire: {}",
                batch.violation().unwrap()
            );
        }
    }
}

fn mt_spec(sessions: u32, txns: u32, keys: u64, seed: u64) -> MtWorkloadSpec {
    MtWorkloadSpec {
        sessions,
        txns_per_session: txns,
        num_keys: keys,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed,
    }
}

/// The whole fleet behind loopback TCP: in-process promises must survive
/// the wire.
#[test]
fn remote_fleet_passes_conformance_over_loopback() {
    let spec = mt_spec(3, 25, 8, 71);
    let workload = generate_mt_workload(&spec);
    for backend_spec in BackendSpec::fleet(spec.num_keys) {
        let server = NetServer::spawn(backend_spec.clone()).unwrap();
        let remote = NetBackend::connect(server.addr()).unwrap();
        assert_eq!(
            remote.label(),
            format!("net/{}", backend_spec.label()),
            "handshake must carry the wrapped engine's label"
        );

        let (history, report) = ExecutionOptions::threaded().run(&remote, &workload);
        assert!(
            report.committed > 0,
            "{}: nothing committed over the wire",
            remote.label()
        );
        assert_conformant(remote.label(), &remote, &history);
        drop(remote);
        server.shutdown().unwrap();
    }
}

// ───────────────────────── wire-fault harness ───────────────────────────────

/// What the proxy does to server→client reply frames.
#[derive(Clone, Copy)]
enum ReplyFault {
    /// Forward each reply twice, after a delay: duplicates exercise the
    /// client's stale-sequence skip, the delay exercises its timeout slack.
    DelayAndDuplicate(Duration),
    /// Sever both directions (RST-ish) after this many replies.
    CutAfter(usize),
}

/// A minimal loopback TCP proxy that understands the frame layout well
/// enough to fault whole replies (never splitting a frame, which would be
/// plain corruption — covered by the proto tests).
struct FaultProxy {
    addr: SocketAddr,
}

impl FaultProxy {
    fn spawn(upstream: SocketAddr, fault: ReplyFault) -> FaultProxy {
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("proxy bind");
        let addr = listener.local_addr().expect("proxy addr");
        std::thread::spawn(move || {
            // Accept until the test ends; each connection runs detached and
            // dies with its sockets.
            while let Ok((client, _)) = listener.accept() {
                let Ok(server) = TcpStream::connect(upstream) else {
                    break;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                // client → server: forward verbatim.
                let (Ok(mut c_read), Ok(mut s_write)) = (client.try_clone(), server.try_clone())
                else {
                    continue;
                };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    loop {
                        match c_read.read(&mut buf) {
                            Ok(0) | Err(_) => break,
                            Ok(n) => {
                                if s_write.write_all(&buf[..n]).is_err() {
                                    break;
                                }
                            }
                        }
                    }
                    let _ = s_write.shutdown(std::net::Shutdown::Write);
                });
                // server → client: frame-wise, with the fault applied.
                std::thread::spawn(move || {
                    let mut forwarded = 0usize;
                    let mut server = server;
                    let mut client = client;
                    while let Some(frame) = read_one_frame(&mut server) {
                        match fault {
                            ReplyFault::DelayAndDuplicate(delay) => {
                                std::thread::sleep(delay);
                                if client.write_all(&frame).is_err()
                                    || client.write_all(&frame).is_err()
                                {
                                    break;
                                }
                            }
                            ReplyFault::CutAfter(n) => {
                                if forwarded >= n {
                                    let _ = client.shutdown(std::net::Shutdown::Both);
                                    let _ = server.shutdown(std::net::Shutdown::Both);
                                    break;
                                }
                                if client.write_all(&frame).is_err() {
                                    break;
                                }
                            }
                        }
                        forwarded += 1;
                    }
                });
            }
        });
        FaultProxy { addr }
    }
}

/// Reads one `[len][crc][payload]` frame's raw bytes, or None on EOF/error.
fn read_one_frame(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut header = [0u8; mtc::store::frame::FRAME_HEADER];
    stream.read_exact(&mut header).ok()?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    if len > mtc::store::frame::MAX_FRAME_LEN {
        return None;
    }
    let mut frame = header.to_vec();
    frame.resize(header.len() + len, 0);
    stream.read_exact(&mut frame[header.len()..]).ok()?;
    Some(frame)
}

/// Delayed, duplicated replies are invisible to correctness: the client
/// skips stale sequence numbers, the drivers see only clean outcomes, and
/// the collected history conforms exactly as without the proxy.
#[test]
fn delayed_and_duplicated_replies_are_harmless() {
    let spec = mt_spec(3, 20, 8, 72);
    let workload = generate_mt_workload(&spec);
    let server = NetServer::spawn(spec_for_label("sim-ser", spec.num_keys).unwrap()).unwrap();
    let proxy = FaultProxy::spawn(
        server.addr(),
        ReplyFault::DelayAndDuplicate(Duration::from_millis(1)),
    );
    let remote = NetBackend::connect(proxy.addr).unwrap();
    assert_eq!(remote.label(), "net/sim-ser");

    let (history, report) = ExecutionOptions::threaded().run(&remote, &workload);
    assert!(
        report.committed > 0,
        "duplicated/delayed replies starved the run"
    );
    assert_eq!(
        report.committed + report.failed,
        workload.txn_count(),
        "every template must resolve to committed or failed — never hang"
    );
    assert_conformant(remote.label(), &remote, &history);
    drop(remote);
    server.shutdown().unwrap();
}

/// A connection severed mid-stream surfaces typed reasons on every path:
/// `ConnectionLost` for in-flight operations (retryable, recordable) and
/// `CommitStatusUnknown` for a commit whose reply never arrived (neither).
#[test]
fn severed_connections_surface_typed_abort_reasons() {
    let server = NetServer::spawn(spec_for_label("sim-ser", 8).unwrap()).unwrap();
    // Generous allowance: Hello + Begin + one write go through, the cut
    // lands on the read that follows.
    let proxy = FaultProxy::spawn(server.addr(), ReplyFault::CutAfter(3));
    let opts = NetOptions {
        op_timeout: Duration::from_millis(500),
        ..NetOptions::default()
    };
    let remote = NetBackend::connect_with(proxy.addr, opts).unwrap();

    let mut t = remote.begin();
    t.write_register(mtc::history::Key(0), mtc::history::Value(1))
        .unwrap();
    let mut failed = None;
    for _ in 0..8 {
        if let Err(reason) = t.read_register(mtc::history::Key(1)) {
            failed = Some(reason);
            break;
        }
    }
    assert_eq!(
        failed,
        Some(AbortReason::ConnectionLost),
        "an operation on a severed connection must fail with ConnectionLost"
    );
    assert_eq!(t.abort(), AbortReason::ConnectionLost);

    // A commit whose reply the wire swallowed is ambiguous, not aborted:
    // Hello, Begin and the write's reply pass (3 frames), the cut lands on
    // the commit reply itself — the server has committed, we never hear it.
    let proxy = FaultProxy::spawn(server.addr(), ReplyFault::CutAfter(3));
    let opts = NetOptions {
        op_timeout: Duration::from_millis(500),
        ..NetOptions::default()
    };
    let remote = NetBackend::connect_with(proxy.addr, opts).unwrap();
    let mut t = remote.begin();
    t.write_register(mtc::history::Key(0), mtc::history::Value(2))
        .unwrap();
    let err = t.commit().unwrap_err();
    assert_eq!(
        err,
        AbortReason::CommitStatusUnknown,
        "a commit with no reply must be ambiguous, not a recorded abort"
    );
    assert!(!err.outcome_known());
    server.shutdown().unwrap();
}

/// The full mid-stream drop: a workload is running when every connection
/// dies (server gone). The drivers finish cleanly, ambiguous commits stay
/// out of the history, and the streaming verdict over what *was* recorded
/// is bit-identical to a fault-free replay of the same history.
#[test]
fn server_death_mid_stream_keeps_the_recorded_history_verifiable() {
    let spec = mt_spec(4, 400, 8, 73);
    let workload = generate_mt_workload(&spec);
    let server = NetServer::spawn(spec_for_label("sim-ser", spec.num_keys).unwrap()).unwrap();
    let opts = NetOptions {
        op_timeout: Duration::from_millis(500),
        connect_timeout: Duration::from_millis(500),
    };
    let remote = NetBackend::connect_with(server.addr(), opts).unwrap();

    // Kill the server from a side thread once the run is mid-stream.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        server.shutdown().unwrap();
    });
    let (history, report) = ExecutionOptions::threaded().run(&remote, &workload);
    killer.join().unwrap();

    assert!(report.committed > 0, "nothing committed before the death");
    assert!(report.failed > 0, "the server cannot have died mid-stream");

    // Verdict must be reproducible bit-for-bit on a clean replay.
    for level in LEVELS {
        let first = check_streaming(level, &history).unwrap();
        let replay = check_streaming(level, &history).unwrap();
        assert_eq!(first, replay, "{level}: replay verdict diverged");
        assert_eq!(
            batch_check(level, &history).is_violated(),
            first.is_violated(),
            "{level}: streaming disagrees with batch"
        );
    }
    // And the partial history must still satisfy what the engine promises.
    assert!(
        batch_check(IsolationLevel::StrictSerializability, &history).is_satisfied(),
        "a partial history of a strict-serializable engine must stay clean"
    );
}

/// Bug-finding power survives the wire: the weak engines' anomalies arise
/// from real contention between the session threads, and sending writes
/// ahead (a shorter life on the server per transaction) must not make that
/// contention too rare to catch.
#[test]
fn weak_engines_organic_anomalies_survive_the_wire() {
    let spec = mt_spec(3, 200, 4, 74);
    let workload = generate_mt_workload(&spec);
    for label in ["weak-rc", "weak-ru"] {
        let server = NetServer::spawn(spec_for_label(label, spec.num_keys).unwrap()).unwrap();
        let remote = NetBackend::connect(server.addr()).unwrap();
        let (history, report) = ExecutionOptions::threaded().run(&remote, &workload);
        assert!(report.committed > 0, "{label}: nothing committed");
        assert_conformant(remote.label(), &remote, &history);
        for level in [
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::Serializability,
        ] {
            assert!(
                batch_check(level, &history).is_violated(),
                "{label}: 600 contended MTs through the wire show no {level} violation"
            );
        }
        drop(remote);
        server.shutdown().unwrap();
    }
}

/// The cuts pipelining adds — between a flushed burst and its replies —
/// are typed by what the burst carried: `ConnectionLost` without a commit
/// in it, `CommitStatusUnknown` with one (and that commit did happen).
#[test]
fn a_cut_between_a_burst_and_its_replies_is_typed_by_what_it_carried() {
    use mtc::history::{Key, Value};
    let server = NetServer::spawn(spec_for_label("sim-ser", 8).unwrap()).unwrap();
    let connect_cut_after = |replies: usize| {
        let proxy = FaultProxy::spawn(server.addr(), ReplyFault::CutAfter(replies));
        let opts = NetOptions {
            op_timeout: Duration::from_millis(500),
            ..NetOptions::default()
        };
        NetBackend::connect_with(proxy.addr, opts).unwrap()
    };

    // `[Begin Read]` is sent, and only the handshake's reply ever passed.
    let remote = connect_cut_after(1);
    let mut t = remote.begin();
    assert_eq!(t.read_register(Key(0)), Err(AbortReason::ConnectionLost));
    assert_eq!(t.abort(), AbortReason::ConnectionLost);

    // A read-only transaction announced whole is one `[Begin Read Commit]`
    // frame: its read already carries the commit.
    let remote = connect_cut_after(1);
    let mut t = remote.begin();
    t.read_ahead(&[Key(0)], true);
    assert_eq!(
        t.read_register(Key(0)),
        Err(AbortReason::CommitStatusUnknown)
    );
    assert_eq!(t.abort(), AbortReason::CommitStatusUnknown);

    // Hello, `Begun` and the read's value pass; `[Write Commit]` is sent
    // and executed, its replies are cut.
    let remote = connect_cut_after(3);
    let mut t = remote.begin();
    t.read_register(Key(0)).unwrap();
    t.write_register(Key(0), Value(9)).unwrap();
    assert_eq!(t.commit().unwrap_err(), AbortReason::CommitStatusUnknown);
    let direct = NetBackend::connect(server.addr()).unwrap();
    let mut t = direct.begin();
    assert_eq!(t.read_register(Key(0)), Ok(Value(9)));
    t.commit().unwrap();
    drop((remote, direct));
    server.shutdown().unwrap();
}
