//! A checkpoint whose snapshot another `SNAPSHOT_VERSION` wrote is not
//! resumed from: `latest_checkpoint` passes over it to the one before — or to
//! a scratch replay of the log — and `read_checkpoint` says why. The verdict
//! is the uninterrupted run's either way. A build reads the snapshot
//! version it writes and no other. (The committed `snapshot-v9-*` fixtures,
//! of this build's version, keep resuming, and the `snapshot-v8-*` ones the
//! previous version's build wrote are passed over: `store_differential.rs`.
//! A snapshot spelt with field names, as every one up to version 5 was, is
//! built here and refused by its version.)
//!
//! Since version 6 a snapshot is positional — its fields in declaration
//! order, no names — so nothing in the bytes tells a reader which field it
//! is looking at but the version: a change of fields to any type a snapshot
//! holds is a version bump, and this is what a bump buys. The version is
//! the first field, and it is read before the rest: a body of another
//! version is never decoded.

use mtc_core::{CheckerSnapshot, IncrementalChecker, IsolationLevel, SNAPSHOT_VERSION};
use mtc_history::{Op, SessionId, Transaction, TxnId};
use mtc_store::frame::{read_frame, write_frame};
use mtc_store::{from_bytes, read_checkpoint, recover, to_bytes, MtcStore, StoreError, StreamMeta};
use serde::{JsonValue, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mtc_store_snapshot_version_{tag}_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Records 90 read-modify-writes into a fresh store at `dir`, one full
/// checkpoint after each of `checkpoints`; returns the checkpoint files and
/// the verdict of the checker that saw it all.
fn record(dir: &Path, checkpoints: &[u64]) -> (Vec<PathBuf>, String) {
    let meta = StreamMeta {
        level: IsolationLevel::Serializability,
        num_keys: 2,
    };
    let mut store = MtcStore::create(dir, &meta).unwrap();
    let mut checker =
        IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..2u64);
    let mut files = Vec::new();
    for i in 0..90u64 {
        // Transaction 70 reads what was overwritten long before it.
        let seen = if i == 70 { 3 } else { i };
        let t = Transaction::committed(
            TxnId(0),
            SessionId((i % 3) as u32),
            vec![Op::read(0u64, seen), Op::write(0u64, i + 1)],
        )
        .with_times(10 * i + 1, 10 * i + 5);
        store.append_txn(&t).unwrap();
        let _ = checker.push(t);
        if checkpoints.contains(&(i + 1)) {
            files.push(store.checkpoint(i + 1, &checker.checkpoint()).unwrap());
        }
    }
    store.sync().unwrap();
    (files, format!("{:?}", checker.finish()))
}

/// Rewrites the checkpoint file at `path` with its snapshot's `version`
/// field — the first — set to `version`, every other byte of the payload as it was and
/// both frames' CRCs good.
fn set_snapshot_version(path: &Path, version: u64) {
    let bytes = fs::read(path).unwrap();
    let mut pos = 0;
    let header = read_frame(&bytes, &mut pos).unwrap();
    let payload = read_frame(&bytes, &mut pos).unwrap();
    let JsonValue::Array(mut fields) = from_bytes::<JsonValue>(payload).unwrap() else {
        panic!("a snapshot is an array of its fields");
    };
    assert!(
        matches!(fields[0], JsonValue::U64(_)),
        "a snapshot carries its version first"
    );
    fields[0] = JsonValue::U64(version);
    let mut rewritten = Vec::new();
    write_frame(&mut rewritten, header);
    write_frame(&mut rewritten, &to_bytes(&JsonValue::Array(fields)));
    fs::write(path, rewritten).unwrap();
}

#[test]
fn a_newer_snapshot_version_falls_back_to_the_checkpoint_before_it() {
    let dir = tmpdir("fallback");
    let (files, verdict) = record(&dir, &[30, 60]);
    assert_eq!(recover(&dir).unwrap().resume_from, 60);

    set_snapshot_version(&files[1], 99);
    let recovery = recover(&dir).unwrap();
    assert_eq!(recovery.resume_from, 30, "version 99 must be passed over");
    assert!(recovery.snapshot.is_some());
    assert_eq!(format!("{:?}", recovery.resume().finish()), verdict);
    match read_checkpoint(&files[1]) {
        Err(StoreError::Format(why)) => {
            assert!(why.contains("unsupported snapshot version 99"), "{why}")
        }
        other => panic!("expected a format error, got {other:?}"),
    }
    // Rewriting the field is all that made the difference.
    set_snapshot_version(&files[1], u64::from(SNAPSHOT_VERSION));
    assert_eq!(recover(&dir).unwrap().resume_from, 60);
    assert_eq!(read_checkpoint(&files[1]).unwrap().0, 60);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_newer_snapshot_version_alone_falls_back_to_a_scratch_replay() {
    let dir = tmpdir("scratch");
    let (files, verdict) = record(&dir, &[60]);
    set_snapshot_version(&files[0], 99);
    let recovery = recover(&dir).unwrap();
    assert!(recovery.snapshot.is_none());
    assert_eq!(recovery.resume_from, 0);
    assert_eq!(recovery.tail().len(), 90);
    assert_eq!(format!("{:?}", recovery.resume().finish()), verdict);
    let _ = fs::remove_dir_all(&dir);
}

/// Rewrites the snapshot of the checkpoint file at `path` through `change`,
/// both frames' CRCs good.
fn rewrite_snapshot(path: &Path, change: impl FnOnce(&mut Vec<JsonValue>)) {
    let bytes = fs::read(path).unwrap();
    let mut pos = 0;
    let header = read_frame(&bytes, &mut pos).unwrap();
    let payload = read_frame(&bytes, &mut pos).unwrap();
    let JsonValue::Array(mut fields) = from_bytes::<JsonValue>(payload).unwrap() else {
        panic!("a snapshot is an array of its fields");
    };
    change(&mut fields);
    let mut rewritten = Vec::new();
    write_frame(&mut rewritten, header);
    write_frame(&mut rewritten, &to_bytes(&JsonValue::Array(fields)));
    fs::write(path, rewritten).unwrap();
}

/// What an unbumped change of fields would write — a field more in the
/// snapshot, a field fewer in its engine — is refused as a value of another
/// shape, never read into the wrong fields, and recovery passes over it.
#[test]
fn a_snapshot_of_other_fields_at_this_version_is_refused_not_misread() {
    let changes: [fn(&mut Vec<JsonValue>); 2] = [
        |fields| fields.push(JsonValue::Null),
        |fields| match &mut fields[1] {
            JsonValue::Array(engine) => {
                engine.pop();
            }
            other => panic!("an engine is an array of its fields, not {other:?}"),
        },
    ];
    for (i, change) in changes.into_iter().enumerate() {
        let dir = tmpdir(&format!("fields{i}"));
        let (files, verdict) = record(&dir, &[30, 60]);
        rewrite_snapshot(&files[1], change);
        match read_checkpoint(&files[1]) {
            Err(StoreError::Serde(_)) => {}
            other => panic!("change {i}: expected a shape error, got {other:?}"),
        }
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.resume_from, 30, "change {i}");
        assert_eq!(format!("{:?}", recovery.resume().finish()), verdict);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// A snapshot that spells its field names, as every snapshot up to version 5
/// did, is read for its version alone — the first of its fields, by name —
/// and refused by it; recovery passes over it.
#[test]
fn a_snapshot_with_field_names_is_refused_by_its_version() {
    let dir = tmpdir("names");
    let (files, verdict) = record(&dir, &[30, 60]);
    let bytes = fs::read(&files[1]).unwrap();
    let mut pos = 0;
    let header = read_frame(&bytes, &mut pos).unwrap();
    let payload = read_frame(&bytes, &mut pos).unwrap();
    let snapshot: CheckerSnapshot = from_bytes(payload).unwrap();
    let JsonValue::Object(mut fields) = snapshot.to_json_value() else {
        panic!("a snapshot spelt by name is an object of its fields");
    };
    assert_eq!(fields[0].0, "version");
    fields[0].1 = JsonValue::U64(5);
    let mut rewritten = Vec::new();
    write_frame(&mut rewritten, header);
    write_frame(&mut rewritten, &to_bytes(&JsonValue::Object(fields)));
    fs::write(&files[1], rewritten).unwrap();
    match read_checkpoint(&files[1]) {
        Err(StoreError::Format(why)) => {
            assert!(why.contains("unsupported snapshot version 5"), "{why}")
        }
        other => panic!("expected a format error, got {other:?}"),
    }
    let recovery = recover(&dir).unwrap();
    assert_eq!(recovery.resume_from, 30, "version 5 must be passed over");
    assert_eq!(format!("{:?}", recovery.resume().finish()), verdict);
    let _ = fs::remove_dir_all(&dir);
}
