//! The read side of a store, observed through `mtc-obs`, as `write_path.rs`
//! observes the write side: a recovery is spanned stage by stage — the log
//! scan, the checkpoint file's read, the snapshot's decode — once each, a sixteenth
//! of the log's records have their decode timed, and recording changes
//! nothing that is recovered; a checkpoint ahead of the log is passed over
//! unread. The counters and the switch are process-wide,
//! so every test here holds the `with_enabled` lock and this file is its own
//! test binary.

use mtc_core::{IncrementalChecker, IsolationLevel};
use mtc_history::{Op, SessionId, Transaction, TxnId};
use mtc_obs::test_support::with_enabled;
use mtc_store::{recover, to_bytes, MtcStore, StreamMeta};
use std::fs;
use std::path::PathBuf;

const STAGES: [&str; 3] = [
    "store.recover.log",
    "store.recover.read",
    "store.recover.snapshot",
];
const TXNS: u64 = 479;

#[test]
fn a_recovery_is_spanned_stage_by_stage_and_reads_the_same_with_recording_off() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mtc_store_read_path_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let meta = StreamMeta {
        level: IsolationLevel::Serializability,
        num_keys: 4,
    };
    let mut store = MtcStore::create(&dir, &meta).unwrap();
    let mut checker =
        IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..4u64);
    let mut state = [0u64; 4];
    for i in 0..TXNS {
        let k = (i % 4) as usize;
        let t = Transaction::committed(
            TxnId(0),
            SessionId((i % 3) as u32),
            vec![Op::read(k as u64, state[k]), Op::write(k as u64, i + 1)],
        )
        .with_times(10 * i + 1, 10 * i + 5);
        state[k] = i + 1;
        store.append_txn(&t).unwrap();
        let _ = checker.push(t);
        if (i + 1) % 40 == 0 {
            store.checkpoint(i + 1, &checker.checkpoint()).unwrap();
        }
    }
    store.sync().unwrap();
    drop(store);

    let count = |name: &str| mtc_obs::registry().histogram(name).count();
    let recovered = || {
        let recovery = recover(&dir).unwrap();
        let snapshot = recovery.snapshot.as_ref().map(to_bytes);
        (recovery.resume_from, snapshot, recovery.txns)
    };
    let unrecorded = {
        let _off = with_enabled(false);
        let before = STAGES.map(count);
        let decodes_before = count("store.recover.decode");
        let recovery = recovered();
        assert_eq!(STAGES.map(count), before, "spans recorded while off");
        assert_eq!(count("store.recover.decode"), decodes_before);
        recovery
    };
    assert_eq!(unrecorded.0, 440, "the newest checkpoint resolves");

    let _on = with_enabled(true);
    let before = STAGES.map(count);
    let decodes_before = count("store.recover.decode");
    assert!(recovered() == unrecorded, "recording changed the recovery");
    for (stage, before) in STAGES.iter().zip(before) {
        assert_eq!(count(stage) - before, 1, "{stage}");
    }
    // One record in 16 has its decode timed: of the stream metadata and the
    // 479 transactions, 30.
    assert_eq!(count("store.recover.decode") - decodes_before, 30);
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint ahead of the recovered log (its tail lost, the snapshot not)
/// is passed over by its name, unread, to the newest one the log reaches —
/// not to a replay from the start.
#[test]
fn a_checkpoint_ahead_of_the_log_falls_back_to_the_newest_one_within_it() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("mtc_store_read_path_ahead_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let level = IsolationLevel::Serializability;
    let mut store = MtcStore::create(&dir, &StreamMeta { level, num_keys: 1 }).unwrap();
    let mut checker = IncrementalChecker::new(level).with_init_keys(0..1u64);
    let mut within = PathBuf::new();
    for i in 0..5u64 {
        let t = Transaction::committed(
            TxnId(0),
            SessionId((i % 2) as u32),
            vec![Op::read(0u64, i), Op::write(0u64, i + 1)],
        )
        .with_times(10 * i + 1, 10 * i + 5);
        store.append_txn(&t).unwrap();
        let _ = checker.push(t);
        if i == 2 {
            within = store.checkpoint(3, &checker.checkpoint()).unwrap();
        }
    }
    store.checkpoint(99, &checker.checkpoint()).unwrap();
    drop(store);

    let _on = with_enabled(true);
    let read = || {
        mtc_obs::registry()
            .counter("store.checkpoint_read_bytes")
            .get()
    };
    let before = read();
    let recovery = recover(&dir).unwrap();
    assert_eq!(
        read() - before,
        fs::metadata(&within).unwrap().len(),
        "only the checkpoint at 3 is read"
    );
    assert_eq!(recovery.resume_from, 3);
    assert_eq!(recovery.tail().len(), 2);
    let clean = mtc_core::check_streaming(level, &recovery.to_history()).unwrap();
    assert!(clean.is_satisfied());
    assert_eq!(recovery.resume().finish().unwrap(), clean);
    let _ = fs::remove_dir_all(&dir);
}
