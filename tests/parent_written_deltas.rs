//! A store directory written by the last build that wrote delta checkpoints
//! (commit 28f12a1), in `tests/data/delta-store-28f12a1/`: 180 transactions
//! over four keys with a lost update at transaction 100, a checkpoint every
//! 40 — a full snapshot at 40, deltas at 80, 120 and 160 — and, in
//! `resumed.txt`, what that build's `resume_verification` returned for it.
//!
//! This build writes and reads full snapshots only, and of a newer
//! `SNAPSHOT_VERSION` (5) than the full snapshot at 40 (4). Over that
//! directory it must never parse a delta file, refuse the version-4 snapshot
//! with an error (not a panic), replay the whole log instead, reach the
//! verdict the old build reached, and — as the directory's writer — prune
//! the delta files away. Segments are never pruned, so nothing is lost.
//!
//! To regenerate (only a build that still writes deltas can): check that
//! build out, copy this file into its `tests/`, run
//! `cargo test --release --offline --test parent_written_deltas -- --ignored`
//! and copy `<target>/tmp/delta-store/` over the fixture directory.
//!
//! One test counts the bytes read from checkpoint files in a process-wide
//! counter, so every test that reads one holds the `with_enabled` lock.

use mtc::core::{IncrementalChecker, IsolationLevel};
use mtc::history::{Op, SessionId, Transaction, TxnId};
use mtc::runner::resume_verification;
use mtc::store::{latest_checkpoint, read_checkpoint, recover, MtcStore, StreamMeta};
use mtc_obs::test_support::with_enabled;
use std::fs;
use std::path::{Path, PathBuf};

const KEYS: u64 = 4;
const TXNS: u64 = 180;
const EVERY: u64 = 40;
/// Reads the value its key held one write earlier: a lost update.
const STALE_AT: u64 = 100;
const LEVEL: IsolationLevel = IsolationLevel::Serializability;

fn meta() -> StreamMeta {
    StreamMeta {
        level: LEVEL,
        num_keys: KEYS,
    }
}

/// Read-modify-writes round-robin over the keys and three sessions.
fn stream() -> Vec<Transaction> {
    let (mut now, mut before) = ([0u64; KEYS as usize], [0u64; KEYS as usize]);
    (0..TXNS)
        .map(|i| {
            let k = (i % KEYS) as usize;
            let read = if i == STALE_AT { before[k] } else { now[k] };
            (before[k], now[k]) = (now[k], i + 1);
            Transaction::committed(
                TxnId(0),
                SessionId((i % 3) as u32),
                vec![Op::read(k as u64, read), Op::write(k as u64, i + 1)],
            )
            .with_times(10 * i + 1, 10 * i + 5)
        })
        .collect()
}

fn fixture() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/delta-store-28f12a1")
}

/// A scratch copy of the fixture directory.
fn copy_of_fixture(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mtc_parent_written_deltas_{tag}_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    for entry in fs::read_dir(fixture()).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    dir
}

fn checkpoint_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("checkpoint-"))
        .collect();
    names.sort();
    names
}

/// `resume_verification` of the store at `dir`, as `resumed.txt` holds it.
fn resumed_as_text(dir: &Path) -> String {
    let resumed = resume_verification(dir).unwrap();
    format!(
        "logged_txns {}\nresumed_from {}\nverdict {:?}\n",
        resumed.logged_txns, resumed.resumed_from, resumed.verdict
    )
}

/// The line of `text` that starts with `field`.
fn line<'a>(text: &'a str, field: &str) -> &'a str {
    text.lines()
        .find(|l| l.starts_with(field))
        .unwrap_or_else(|| panic!("no {field} in {text:?}"))
}

#[test]
#[ignore = "writes the fixture; only a build that writes delta checkpoints makes the right one"]
fn write_the_fixture() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("delta-store");
    let _ = fs::remove_dir_all(&dir);
    let mut store = MtcStore::create(&dir, &meta()).unwrap();
    let mut checker = IncrementalChecker::new(LEVEL).with_init_keys(0..KEYS);
    for (i, t) in (1..).zip(stream()) {
        store.append_txn(&t).unwrap();
        let _ = checker.push(t);
        if i % EVERY == 0 {
            store.checkpoint(i, &checker.checkpoint()).unwrap();
        }
    }
    store.sync().unwrap();
    drop(store);
    let resumed = resumed_as_text(&dir);
    fs::write(dir.join("resumed.txt"), resumed).unwrap();
}

#[test]
fn the_fixture_is_a_delta_chain_on_a_full_snapshot() {
    assert_eq!(
        checkpoint_names(&fixture()),
        [
            "checkpoint-000000000040.mtcck",
            "checkpoint-000000000080.mtcckd",
            "checkpoint-000000000120.mtcckd",
            "checkpoint-000000000160.mtcckd",
        ]
    );
    let parent = fs::read_to_string(fixture().join("resumed.txt")).unwrap();
    assert_eq!(line(&parent, "resumed_from"), "resumed_from 160");
}

#[test]
fn recovery_passes_over_the_deltas_and_the_v4_snapshot_to_a_full_replay() {
    let _off = with_enabled(false);
    let dir = copy_of_fixture("recover");
    let refused = read_checkpoint(dir.join("checkpoint-000000000040.mtcck"));
    assert!(refused.is_err(), "a version-4 snapshot: {refused:?}");
    assert!(latest_checkpoint(&dir).unwrap().is_none());
    let recovery = recover(&dir).unwrap();
    assert!(recovery.snapshot.is_none());
    assert_eq!(recovery.resume_from, 0);
    assert_eq!(recovery.txns, stream());
    assert_eq!(recovery.tail().len(), 180);
    assert!(!recovery.torn_tail);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn resuming_reaches_the_verdict_the_delta_build_reached() {
    let _off = with_enabled(false);
    let dir = copy_of_fixture("resume");
    let parent = fs::read_to_string(dir.join("resumed.txt")).unwrap();
    let this = resumed_as_text(&dir);
    assert_eq!(line(&this, "resumed_from"), "resumed_from 0");
    assert_eq!(line(&this, "logged_txns"), line(&parent, "logged_txns"));
    assert_eq!(line(&this, "verdict"), line(&parent, "verdict"));
    assert!(
        line(&this, "verdict").contains("Violated"),
        "the lost update at {STALE_AT} is in the replayed tail: {this}"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn the_writer_prunes_the_deltas_away() {
    let _off = with_enabled(false);
    let dir = copy_of_fixture("append");
    // The delta the old build was writing when it died.
    let stale = dir.join("checkpoint-000000000200.mtcckd.tmp");
    fs::write(&stale, b"half a delta").unwrap();
    let (mut store, recovery) = MtcStore::open_append(&dir).unwrap();
    assert!(
        !stale.exists(),
        "open_append deletes every checkpoint-*.tmp"
    );
    assert_eq!(recovery.resume_from, 0);
    let mut checker = recovery.resume();
    let t = Transaction::committed(TxnId(0), SessionId(0), vec![Op::read(0u64, TXNS - 3)])
        .with_times(10 * TXNS + 1, 10 * TXNS + 5);
    store.append_txn(&t).unwrap();
    let _ = checker.push(t);
    store.checkpoint(TXNS + 1, &checker.checkpoint()).unwrap();
    drop(store);
    assert_eq!(
        checkpoint_names(&dir),
        [
            "checkpoint-000000000040.mtcck",
            "checkpoint-000000000181.mtcck"
        ]
    );
    let recovery = recover(&dir).unwrap();
    assert_eq!(recovery.resume_from, TXNS + 1);
    assert_eq!(
        format!("{:?}", recovery.resume().finish()),
        format!("{:?}", checker.finish())
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_garbage_delta_and_a_torn_full_file_are_passed_over_unread() {
    let dir = copy_of_fixture("hostile");
    fs::write(
        dir.join("checkpoint-000000000170.mtcckd"),
        b"\xff\xff\xff\xff not a delta",
    )
    .unwrap();
    let full = fs::read(dir.join("checkpoint-000000000040.mtcck")).unwrap();
    let torn = &full[..full.len() / 2];
    fs::write(dir.join("checkpoint-000000000175.mtcck"), torn).unwrap();

    let _on = with_enabled(true);
    let read = || {
        mtc_obs::registry()
            .counter("store.checkpoint_read_bytes")
            .get()
    };
    let before = read();
    assert!(latest_checkpoint(&dir).unwrap().is_none());
    // The torn file and the version-4 one, whole; not a byte of any delta.
    assert_eq!(read() - before, (torn.len() + full.len()) as u64);
    assert_eq!(recover(&dir).unwrap().resume_from, 0);
    mtc_obs::flush_spans();
    let _ = fs::remove_dir_all(&dir);
}
