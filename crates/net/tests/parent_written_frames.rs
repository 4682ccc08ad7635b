//! The wire format, held from the sender's side: `tests/data/frames-v4.bin`
//! is one frame of every [`Request`] and [`Reply`] variant, back to back, as
//! the build that introduced protocol 4 — envelopes by position, no field or
//! variant names — sent them; every later build of that protocol must put
//! the same bytes on the wire.
//!
//! `tests/data/frames-pr21.bin` is the same messages as an older build —
//! one that still built an owned value tree per envelope — sent them at
//! protocol 3, every name spelt out. They still decode, and the
//! first of them, the version-3 `Hello`, is answered with the version
//! mismatch rather than a decode error.
//!
//! To regenerate the v4 fixture (only a `PROTOCOL_VERSION` bump should ever
//! need it — and then under the new version's name): delete it, run this
//! test on the build that is to be the reference and copy
//! `<target>/tmp/frames.actual.bin` over it.

use mtc_core::IsolationLevel;
use mtc_dbsim::{AbortReason, IngestEvent};
use mtc_history::{Key, Op, TxnStatus, Value};
use mtc_net::proto::{
    self, Reply, ReplyEnvelope, Request, RequestEnvelope, TenantStatus, PROTOCOL_VERSION,
};
use mtc_net::{spec_for_label, NetServer};
use std::io::Write;
use std::path::Path;

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/data")
            .join(name),
    )
    .unwrap_or_default()
}

/// Every request variant, its `Hello` of protocol `version`.
fn requests(version: u32) -> Vec<RequestEnvelope> {
    let requests = vec![
        Request::Hello { version },
        Request::Begin { retry_of: None },
        Request::Begin { retry_of: Some(42) },
        Request::Read {
            txn: 0,
            key: Key(3),
        },
        Request::Write {
            txn: 7,
            key: Key(3),
            value: Value((5 << 40) | 91),
        },
        Request::ReadList {
            txn: 7,
            key: Key(1),
        },
        Request::Append {
            txn: 7,
            key: Key(0),
            element: Value(u64::MAX),
        },
        Request::Commit { txn: 7 },
        Request::Abort { txn: 8 },
        Request::Now,
        Request::OpenTenant {
            tenant: "acct-7".to_string(),
            level: IsolationLevel::SnapshotIsolation,
            num_keys: 64,
        },
        Request::Ingest {
            tenant: 3,
            events: vec![
                IngestEvent::timed(
                    2,
                    vec![Op::read(Key(1), Value(0)), Op::write(Key(1), Value(9))],
                    TxnStatus::Committed,
                    10,
                    12,
                ),
                IngestEvent::timed(
                    0,
                    vec![Op::write(Key(2), Value(4))],
                    TxnStatus::Aborted,
                    11,
                    13,
                ),
            ],
        },
        Request::Ingest {
            tenant: 3,
            events: Vec::new(),
        },
        Request::TenantStatus { tenant: 3 },
        Request::CloseTenant { tenant: 3 },
        Request::MetricsSnapshot,
    ];
    let envelope = |(seq, request)| RequestEnvelope {
        seq: seq as u64 * 100,
        request,
    };
    requests.into_iter().enumerate().map(envelope).collect()
}

/// Every reply variant, its `Hello` of protocol `version`.
fn replies(version: u32) -> Vec<ReplyEnvelope> {
    let replies = vec![
        Reply::Hello {
            version,
            label: "2pl".to_string(),
            promised: vec![
                IsolationLevel::Serializability,
                IsolationLevel::SnapshotIsolation,
            ],
        },
        Reply::Begun {
            txn: 1,
            begin_ts: 10,
        },
        Reply::Value(Value(5)),
        Reply::Values(vec![Value(1), Value(2)]),
        Reply::Values(Vec::new()),
        Reply::Done,
        Reply::Committed { commit_ts: 12 },
        Reply::Aborted(AbortReason::Deadlock),
        Reply::Aborted(AbortReason::WriteConflict),
        Reply::Error("unknown txn «9»".to_string()),
        Reply::TenantOpened {
            tenant: 3,
            resumed_txns: 17,
            from_checkpoint: true,
        },
        Reply::Ingested { accepted: 5 },
        Reply::Backpressure {
            queue_depth: 1024,
            queue_cap: 1024,
        },
        Reply::TenantStat(TenantStatus {
            name: "acct-7".to_string(),
            ingested: 100,
            checked: 98,
            queue_depth: 2,
            queue_cap: 1024,
            backpressured: 1,
            violated: false,
            first_violation_at: None,
            live_txns: 40,
            checkpoints: 3,
            rss_kb: 12345,
            wal_append_p99_micros: 87,
            last_checkpoint_age_micros: Some(250_000),
            sink_errors: 0,
        }),
        Reply::Metrics(mtc_obs::MetricsSnapshot {
            enabled: true,
            counters: vec![("net.connection_lost".to_string(), 2)],
            gauges: vec![("service.tenants_open".to_string(), 3)],
            histograms: vec![(
                "store.wal_append_micros".to_string(),
                mtc_obs::HistogramSnapshot {
                    count: 10,
                    sum: 1000,
                    min: 50,
                    max: 200,
                    p50: 100,
                    p90: 180,
                    p99: 200,
                    buckets: vec![(50, 4), (101, 6)],
                },
            )],
        }),
        Reply::TenantClosed {
            checked: 100,
            violated: true,
            first_violation_at: Some(61),
        },
    ];
    let envelope = |(seq, reply)| ReplyEnvelope {
        seq: seq as u64,
        now: 1u64 << (seq * 3),
        reply,
    };
    replies.into_iter().enumerate().map(envelope).collect()
}

#[test]
fn every_variant_is_framed_as_the_parent_framed_it() {
    let fixture = fixture("frames-v4.bin");

    // Every message encodes to the reference bytes: appended to one buffer
    // as a pipelining peer does, and sent one by one.
    let mut appended = Vec::new();
    let mut sent = Vec::new();
    for envelope in requests(PROTOCOL_VERSION) {
        proto::encode(&mut appended, &envelope);
        proto::send(&mut sent, &envelope).unwrap();
    }
    for envelope in replies(PROTOCOL_VERSION) {
        proto::encode(&mut appended, &envelope);
        proto::send(&mut sent, &envelope).unwrap();
    }
    assert!(appended == sent, "encode and send disagree");
    if appended != fixture {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("frames.actual.bin");
        std::fs::write(&path, &appended).expect("write the actual frames");
        let at = appended.iter().zip(&fixture).take_while(|(a, f)| a == f);
        panic!(
            "the frames differ from tests/data/frames-v4.bin at byte {}; this build's are in {}",
            at.count(),
            path.display()
        );
    }
    assert_decodes_to(&fixture, PROTOCOL_VERSION);
}

/// `wire` holds exactly the messages [`requests`] and [`replies`] make at
/// protocol `version`, in that order.
fn assert_decodes_to(mut wire: &[u8], version: u32) {
    for sent in requests(version) {
        assert_eq!(proto::recv::<RequestEnvelope, _>(&mut wire).unwrap(), sent);
    }
    for sent in replies(version) {
        assert_eq!(proto::recv::<ReplyEnvelope, _>(&mut wire).unwrap(), sent);
    }
    assert!(wire.is_empty(), "the fixture holds a frame nobody sends");
}

/// The protocol-3 frames, every name spelt out, read back to the messages
/// they were made from — and are twice the bytes of protocol 4's.
#[test]
fn the_protocol_3_frames_still_decode() {
    let (old, new) = (fixture("frames-pr21.bin"), fixture("frames-v4.bin"));
    assert_decodes_to(&old, 3);
    assert!(
        new.len() * 2 < old.len(),
        "{} against {}",
        new.len(),
        old.len()
    );
}

/// A peer that speaks protocol 3 is told so: its `Hello`, exactly as a
/// protocol-3 build sent it, decodes and is answered with the version mismatch —
/// not dropped as an undecodable frame.
#[test]
fn a_protocol_3_hello_gets_the_version_mismatch_error() {
    let old = fixture("frames-pr21.bin");
    let mut end = 0;
    mtc_store::frame::read_frame(&old, &mut end).unwrap();
    let server = NetServer::spawn(spec_for_label("sim-ser", 4).unwrap()).unwrap();
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    conn.write_all(&old[..end]).unwrap();
    let reply: ReplyEnvelope = proto::recv(&mut conn).unwrap();
    assert_eq!(reply.seq, 0);
    assert_eq!(
        reply.reply,
        Reply::Error(format!(
            "protocol version mismatch: client 3, server {PROTOCOL_VERSION}"
        ))
    );
    drop(conn);
    server.shutdown().unwrap();
}
