//! Remote isolation probes: hand-driven anomaly scripts against the engine
//! fleet *through the wire* (loopback `mtc-net` servers), asserting each
//! engine's isolation level by its observable behaviour, not its label.
//!
//! Each probe drives two or three overlapping transactions operation by
//! operation over a `NetBackend` and checks exactly what a client at that
//! level must (or must not) be able to observe:
//!
//! * **dirty read** — visible on `weak-ru`, invisible on `weak-rc` and
//!   `sim-rc`;
//! * **non-repeatable read** — observable on `weak-rc` and `sim-rc`,
//!   prevented by `sim-si`'s begin snapshot;
//! * **lost update** — `sim-si` aborts the second committer
//!   (first-committer-wins), `weak-rc` lets both commit;
//! * **write skew** — commits on `sim-si` (disjoint write sets pass
//!   first-committer-wins), refused by `sim-ser`'s read validation — and the
//!   committed SI interleaving is exactly the history the batch checkers
//!   split on: SI satisfied, SER violated.

use mtc::core::{check_ser, check_si};
use mtc::dbsim::DbBackend;
use mtc::history::{HistoryBuilder, Key, Op, Value, INIT_VALUE};
use mtc::net::{spec_for_label, NetBackend, NetServer};
use mtc::IsolationLevel;

const NUM_KEYS: u64 = 4;

/// Spawns a loopback server wrapping the fleet engine `label` and runs
/// `probe` against a connected remote backend.
fn with_remote<T>(label: &str, probe: impl FnOnce(&NetBackend) -> T) -> T {
    let spec = spec_for_label(label, NUM_KEYS).expect("fleet label resolves");
    let server = NetServer::spawn(spec).expect("loopback server spawns");
    let backend = NetBackend::connect(server.addr()).expect("loopback connect");
    assert_eq!(backend.label(), format!("net/{label}"));
    let out = probe(&backend);
    drop(backend);
    server.shutdown().expect("clean shutdown");
    out
}

/// Writer publishes (or buffers) a write, a concurrent reader looks, writer
/// rolls back. Returns what the reader saw. A remote write is only *queued*
/// until its transaction's next reply-bearing call (see `mtc::net::NetTxn`),
/// so the writer reads its own write back before the reader looks — which
/// also probes read-your-writes through the wire.
fn dirty_read_probe(db: &NetBackend) -> Value {
    let mut writer = db.begin();
    writer
        .write_register(Key(0), Value(5))
        .expect("uncontended write");
    assert_eq!(writer.read_register(Key(0)), Ok(Value(5)));
    let mut reader = db.begin();
    let seen = reader.read_register(Key(0)).expect("uncontended read");
    writer.abort();
    let _ = reader.commit();
    seen
}

#[test]
fn dirty_reads_are_visible_only_on_read_uncommitted() {
    assert_eq!(
        with_remote("weak-ru", dirty_read_probe),
        Value(5),
        "weak-ru must expose the uncommitted write through the wire"
    );
    for label in ["weak-rc", "sim-rc"] {
        assert_eq!(
            with_remote(label, dirty_read_probe),
            INIT_VALUE,
            "{label} must hide uncommitted writes"
        );
    }
}

/// T1 reads, T2 commits a new version, T1 reads again. Returns both reads.
fn non_repeatable_read_probe(db: &NetBackend) -> (Value, Value) {
    let mut t1 = db.begin();
    let first = t1.read_register(Key(0)).expect("first read");
    let mut t2 = db.begin();
    t2.write_register(Key(0), Value(7)).expect("write");
    t2.commit().expect("uncontended writer commits");
    let second = t1.read_register(Key(0)).expect("second read");
    let _ = t1.commit();
    (first, second)
}

#[test]
fn non_repeatable_reads_split_read_committed_from_snapshot() {
    for label in ["weak-rc", "sim-rc"] {
        let (first, second) = with_remote(label, non_repeatable_read_probe);
        assert_eq!(first, INIT_VALUE);
        assert_eq!(
            second,
            Value(7),
            "{label} reads latest-committed, so the repeated read must move"
        );
    }
    let (first, second) = with_remote("sim-si", non_repeatable_read_probe);
    assert_eq!(first, INIT_VALUE);
    assert_eq!(
        second, INIT_VALUE,
        "sim-si reads its begin snapshot, so the repeated read must not move"
    );
}

/// Two read-modify-writes of the same key race. Returns whether the second
/// committer succeeded.
fn lost_update_probe(db: &NetBackend) -> bool {
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    assert_eq!(t1.read_register(Key(0)).expect("read"), INIT_VALUE);
    assert_eq!(t2.read_register(Key(0)).expect("read"), INIT_VALUE);
    t1.write_register(Key(0), Value(1)).expect("write");
    t2.write_register(Key(0), Value(2)).expect("write");
    t1.commit().expect("first committer always wins");
    t2.commit().is_ok()
}

#[test]
fn lost_updates_are_refused_by_first_committer_wins() {
    assert!(
        !with_remote("sim-si", lost_update_probe),
        "sim-si must abort the second writer of a racing RMW pair"
    );
    assert!(
        with_remote("weak-rc", lost_update_probe),
        "weak-rc has no validation: the lost update must commit"
    );
}

/// The classic write skew: both transactions read both keys, then each
/// writes the *other* key. Returns whether both committed.
fn write_skew_probe(db: &NetBackend) -> bool {
    let mut t1 = db.begin();
    let mut t2 = db.begin();
    for t in [&mut t1, &mut t2] {
        assert_eq!(t.read_register(Key(0)).expect("read"), INIT_VALUE);
        assert_eq!(t.read_register(Key(1)).expect("read"), INIT_VALUE);
    }
    t1.write_register(Key(0), Value(1)).expect("write");
    t2.write_register(Key(1), Value(2)).expect("write");
    let first = t1.commit().is_ok();
    let second = t2.commit().is_ok();
    first && second
}

#[test]
fn write_skew_commits_under_si_and_is_refused_under_ser() {
    assert!(
        with_remote("sim-si", write_skew_probe),
        "disjoint write sets pass first-committer-wins: SI admits write skew"
    );
    assert!(
        !with_remote("sim-ser", write_skew_probe),
        "sim-ser validates read sets: one of the skewed pair must abort"
    );
}

/// The interleaving `write_skew_probe` commits on `sim-si`, replayed as a
/// history, is precisely the case the batch checkers split on.
#[test]
fn the_committed_write_skew_history_separates_si_from_ser() {
    let mut b = HistoryBuilder::new().with_init(2);
    b.committed_timed(
        0,
        vec![
            Op::read(0u64, 0u64),
            Op::read(1u64, 0u64),
            Op::write(0u64, 1u64),
        ],
        10,
        20,
    );
    b.committed_timed(
        1,
        vec![
            Op::read(0u64, 0u64),
            Op::read(1u64, 0u64),
            Op::write(1u64, 2u64),
        ],
        12,
        22,
    );
    let history = b.build();
    assert!(
        check_si(&history)
            .expect("write skew is inside the SI checker's domain")
            .is_satisfied(),
        "SI admits write skew"
    );
    assert!(
        check_ser(&history)
            .expect("write skew is inside the SER checker's domain")
            .is_violated(),
        "SER must reject the same interleaving"
    );
    // And the streaming checker agrees with the batch one on both verdicts.
    assert!(
        mtc::check_streaming(IsolationLevel::SnapshotIsolation, &history)
            .expect("in domain")
            .is_satisfied()
    );
    assert!(
        mtc::check_streaming(IsolationLevel::Serializability, &history)
            .expect("in domain")
            .is_violated()
    );
}
