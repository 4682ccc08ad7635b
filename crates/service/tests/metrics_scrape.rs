//! The observability scrape contract, end to end: a live in-process
//! daemon must answer `Request::MetricsSnapshot` on its ordinary port
//! with a snapshot that (a) says recording is on, (b) carries the hot-path
//! metrics the instrumented stack is supposed to populate, and (c)
//! renders to a JSON document of the documented shape — the same document
//! `mtc_service_server --metrics-json` prints, so this test is the CI
//! guard for every downstream scraper.

use mtc_service::loadgen::{synthetic_events, LoadSpec};
use mtc_service::{ServiceClient, ServiceConfig, ServiceServer};
use serde::Serialize as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtc_metrics_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn live_daemon_snapshot_has_the_documented_shape() {
    let root = temp_root("scrape");
    let server = ServiceServer::spawn(ServiceConfig::new(&root).checkpoint_every(64))
        .expect("daemon spawns");
    let mut client = ServiceClient::connect(server.addr()).expect("connect");

    let spec = LoadSpec {
        tenants: 1,
        sessions: 2,
        txns_per_session: 150,
        num_keys: 8,
        ..Default::default()
    };
    let open = client
        .open_tenant("scraped", spec.level, spec.num_keys)
        .expect("open");
    client
        .ingest_all(
            open.tenant,
            synthetic_events(&spec, 0),
            Duration::from_micros(200),
        )
        .expect("ingest");

    // Wait until the drain loop has pushed everything through the checker
    // and the WAL, so the store/checker metrics below are populated.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        let status = client.status(open.tenant).expect("status");
        if status.checked >= spec.events_per_tenant() {
            // The WAL sink ran under the drain: the new TenantStatus
            // fields must reflect it.
            assert!(status.wal_append_p99_micros > 0, "WAL p99 unpopulated");
            assert_eq!(status.sink_errors, 0);
            assert!(
                status.checkpoints >= 1 && status.last_checkpoint_age_micros.is_some(),
                "expected a checkpoint after {} events",
                status.checked
            );
            break status;
        }
        assert!(Instant::now() < deadline, "drain never caught up");
        std::thread::sleep(Duration::from_millis(5));
    };

    let snapshot = client.metrics().expect("metrics scrape");
    assert!(snapshot.enabled, "daemon must record metrics");
    let admit = snapshot
        .histogram("service.tenant.scraped.admit_micros")
        .expect("per-tenant admission histogram registered");
    assert!(admit.count > 0, "admission histogram never recorded");
    assert!(admit.p50 <= admit.p99 && admit.p99 <= admit.max);
    let wal = snapshot
        .histogram("store.wal_append_micros")
        .expect("WAL append histogram registered");
    // One append per drained batch, and a drain takes at most 128 events.
    let events = spec.events_per_tenant();
    assert!(
        events.div_ceil(128) <= wal.count && wal.count <= events,
        "{} WAL appends for {events} events",
        wal.count
    );
    // The drain threads are long-lived: a span they time must reach the
    // scrape when it ends, not when its thread exits.
    for stage in ["sync", "encode", "write", "prune"] {
        let name = format!("store.checkpoint.{stage}");
        let count = snapshot.histogram(&name).map_or(0, |h| h.count);
        assert_eq!(
            count, status.checkpoints,
            "{name}: {count} samples for {} checkpoints",
            status.checkpoints
        );
    }
    assert!(
        snapshot.gauge("service.queue_depth").is_some(),
        "queue depth gauge missing"
    );

    // Shape check on the rendered document — what --metrics-json prints
    // and what an external scraper parses.
    let mut rendered = String::new();
    snapshot.to_json_value().render(&mut rendered);
    let doc = serde_json::parse(&rendered).expect("snapshot renders valid JSON");
    assert_eq!(
        doc.get("enabled").and_then(|v| match v {
            serde::JsonValue::Bool(b) => Some(*b),
            _ => None,
        }),
        Some(true)
    );
    for section in ["counters", "gauges", "histograms"] {
        assert!(
            matches!(doc.get(section), Some(serde::JsonValue::Array(_))),
            "snapshot JSON is missing the {section} array"
        );
    }
    // Round trip: the wire codec and the JSON rendering agree.
    let reparsed: mtc_obs::MetricsSnapshot =
        serde_json::from_str(&rendered).expect("snapshot JSON deserializes");
    assert_eq!(reparsed, snapshot);

    client.close_tenant(open.tenant).expect("close");
    server.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&root);
}
