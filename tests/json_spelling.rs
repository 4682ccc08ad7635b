//! JSON spells by name. The binary form writes a struct as its fields in
//! declaration order and a variant as its index; JSON text — `serde_json`,
//! `to_json_value`, the event log — must go on writing field names and
//! externally tagged variant names exactly as before. The committed
//! `tests/data/json-spelling-9ac043c.txt` is the `serde_json` text of a
//! checker snapshot at SER, SI and SSER, a transaction, an ingest event, one
//! envelope of every wire request and reply, and a violation certificate's
//! `to_json_value`, as the build of commit 9ac043c wrote them — the last
//! build whose binary form spelt names too — and this build must write the
//! same bytes.
//!
//! That build's snapshots held three slots version 6 dropped (the engine's
//! `opts`, the GC policy's `reader_cap`, the key state's `evicted`) and said
//! version 5; the fixture was written by a clone of it with those three
//! fields taken out and `SNAPSHOT_VERSION` set to 6, and nothing else
//! changed, so that it holds that build's spelling of this build's fields.
//! Its three snapshot lines, and only those, were written again by the build
//! that introduced `SNAPSHOT_VERSION` 7, whose snapshots hold other fields:
//! SI's tails in place of its composed order, and the key state as it is
//! held; again by the build that introduced `SNAPSHOT_VERSION` 8, whose
//! engine holds no `graph` but an `edges` count and a `txn_keys` table, and
//! whose order's forward rows carry each entry's label beneath its id; and
//! again by the build that introduced `SNAPSHOT_VERSION` 9, whose time-chain
//! slots are `(instant, anchor)` pairs, one per commit instant, and whose
//! instants table holds only a timed SSER commit's instants.
//! Every name they share with the version before is spelt as before.
//!
//! To regenerate (only a change of what the values hold should ever need
//! it): empty the fixture, run this test and copy
//! `<target>/tmp/json-spelling.actual.txt` over it — after reading the diff.

use mtc::dbsim::{AbortReason, IngestEvent};
use mtc::history::{Key, Op, SessionId, Transaction, TxnId, TxnStatus, Value};
use mtc::net::proto::{Reply, ReplyEnvelope, Request, RequestEnvelope, TenantStatus};
use mtc::{GcPolicy, IncrementalChecker, IsolationLevel};

const FIXTURE: &str = include_str!("data/json-spelling-9ac043c.txt");

/// A read-modify-write stream over two keys and two sessions, with a time
/// gap so that SSER's chain has something to order.
fn stream() -> Vec<Transaction> {
    (0..6u64)
        .map(|i| {
            let k = i % 2;
            let seen = if i >= 2 { i - 1 } else { 0 };
            Transaction::committed(
                TxnId(0),
                SessionId((i % 2) as u32),
                vec![Op::read(k, seen), Op::write(k, i + 1)],
            )
            .with_times(10 * i + 1, 10 * i + 5)
        })
        .collect()
}

/// Two sessions that each read the other's key before writing their own:
/// write skew, a violation at SER.
fn write_skew() -> IncrementalChecker {
    let mut checker =
        IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..2u64);
    for (session, (read, write)) in [(0u64, 1u64), (1, 0)].into_iter().enumerate() {
        let ops = vec![
            Op::read(read, 0u64),
            Op::read(write, 0u64),
            Op::write(write, 7 + read),
        ];
        let t = Transaction::committed(TxnId(0), SessionId(session as u32), ops).with_times(1, 9);
        let _ = checker.push(t);
    }
    checker
}

fn requests() -> Vec<Request> {
    vec![
        Request::Hello { version: 3 },
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
            events: vec![IngestEvent::timed(
                2,
                vec![Op::read(Key(1), Value(0)), Op::write(Key(1), Value(9))],
                TxnStatus::Aborted,
                10,
                12,
            )],
        },
        Request::TenantStatus { tenant: 3 },
        Request::CloseTenant { tenant: 3 },
        Request::MetricsSnapshot,
    ]
}

fn replies() -> Vec<Reply> {
    vec![
        Reply::Hello {
            version: 3,
            label: "2pl".to_string(),
            promised: vec![
                IsolationLevel::Serializability,
                IsolationLevel::StrictSerializability,
            ],
        },
        Reply::Begun {
            txn: 1,
            begin_ts: 10,
        },
        Reply::Value(Value(5)),
        Reply::Values(vec![Value(1), Value(2)]),
        Reply::Done,
        Reply::Committed { commit_ts: 12 },
        Reply::Aborted(AbortReason::Deadlock),
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
    ]
}

/// The JSON text of a value: its `to_json_value()` tree, rendered.
macro_rules! json {
    ($value:expr) => {
        serde_json::to_string($value).expect("JSON text")
    };
}

/// Every value of the fixture, one `name: json` line each.
fn render() -> String {
    let mut out = String::new();
    let mut line = |name: &str, value: &dyn Fn() -> String| {
        out.push_str(&format!("{name}: {}\n", value()));
    };
    for level in [
        IsolationLevel::Serializability,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::StrictSerializability,
    ] {
        let mut checker = IncrementalChecker::new(level)
            .with_init_keys(0..2u64)
            .with_gc(GcPolicy {
                window: 3,
                every: 2,
            });
        for t in stream() {
            let _ = checker.push(t);
        }
        line(&format!("snapshot {level}"), &|| {
            json!(&checker.checkpoint())
        });
    }
    line("transaction", &|| json!(&stream()[3]));
    let event = IngestEvent::timed(
        1,
        vec![Op::read(Key(0), Value(4)), Op::write(Key(0), Value(5))],
        TxnStatus::Committed,
        30,
        34,
    );
    line("ingest event", &|| json!(&event));
    for (seq, request) in (0..).zip(requests()) {
        let envelope = RequestEnvelope { seq, request };
        line(&format!("request {seq}"), &|| json!(&envelope));
    }
    for (seq, reply) in (0..).zip(replies()) {
        let envelope = ReplyEnvelope {
            seq,
            now: 1 << seq,
            reply,
        };
        line(&format!("reply {seq}"), &|| json!(&envelope));
    }
    let skew = write_skew();
    let certificate = skew.violation().expect("write skew violates SER");
    line("certificate", &|| json!(certificate));
    out
}

#[test]
fn json_text_spells_the_names_the_parent_spelt() {
    let actual = render();
    if actual == FIXTURE {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("json-spelling.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual rendering");
    let line = actual
        .lines()
        .zip(FIXTURE.lines())
        .position(|(a, f)| a != f)
        .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "JSON text differs from tests/data/json-spelling-9ac043c.txt at line {}; \
         this build's rendering is in {}",
        line + 1,
        path.display()
    );
}
