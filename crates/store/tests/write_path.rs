//! The write side of a checkpoint, observed through `mtc-obs`: it reads no
//! checkpoint byte back, every stage is spanned once per checkpoint, a
//! sixteenth of the log appends have their encode timed, and recording
//! changes nothing on disk. The counters and the switch are
//! process-wide, so every test here holds the `with_enabled` lock and this
//! file is its own test binary.

use mtc_core::{IncrementalChecker, IsolationLevel};
use mtc_history::{Op, SessionId, Transaction, TxnId};
use mtc_obs::test_support::with_enabled;
use mtc_store::{latest_checkpoint, prune_checkpoints, MtcStore, StreamMeta};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

const CHECKPOINTS: u64 = 12;
const STAGES: [&str; 4] = [
    "store.checkpoint.sync",
    "store.checkpoint.encode",
    "store.checkpoint.write",
    "store.checkpoint.prune",
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mtc_store_write_path_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn read_bytes() -> u64 {
    mtc_obs::registry()
        .counter("store.checkpoint_read_bytes")
        .get()
}

/// Records 40 read-modify-write transactions before each of
/// [`CHECKPOINTS`] checkpoints into a fresh store at `dir`, keeping the
/// default 3.
fn run_store(dir: &Path) -> MtcStore {
    let meta = StreamMeta {
        level: IsolationLevel::Serializability,
        num_keys: 4,
    };
    let mut store = MtcStore::create(dir, &meta).unwrap();
    let mut checker =
        IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..4u64);
    let mut state = [0u64; 4];
    for i in 0..CHECKPOINTS * 40 {
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
    store
}

/// Every file of `dir` by name.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn twelve_checkpoints_read_nothing_back() {
    let _on = with_enabled(true);
    let dir = tmpdir("reads");
    let before = read_bytes();
    let store = run_store(&dir);
    assert_eq!(
        read_bytes() - before,
        0,
        "MtcStore::checkpoint must not read checkpoint files"
    );
    drop(store);

    // The directory-driven prune goes by names and reads nothing either;
    // the counter does count: recovery reads the newest file, whole.
    let before = read_bytes();
    assert_eq!(prune_checkpoints(&dir, 3).unwrap(), 0);
    assert_eq!(
        read_bytes() - before,
        0,
        "prune must not read checkpoint files"
    );
    let newest = files(&dir)[&format!("checkpoint-{:012}.mtcck", CHECKPOINTS * 40)].len();
    let before = read_bytes();
    let (consumed, _) = latest_checkpoint(&dir).unwrap().unwrap();
    assert_eq!(consumed, CHECKPOINTS * 40);
    assert_eq!(read_bytes() - before, newest as u64);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stages_are_spanned_once_per_checkpoint_and_files_do_not_depend_on_recording() {
    let off_dir = tmpdir("off");
    let on_dir = tmpdir("on");
    {
        let _off = with_enabled(false);
        drop(run_store(&off_dir));
    }
    let _on = with_enabled(true);
    let count = |name: &str| mtc_obs::registry().histogram(name).count();
    let before = STAGES.map(count);
    let total_before = count("store.checkpoint_micros");
    let encodes_before = count("store.append.encode");
    drop(run_store(&on_dir));
    // One append in 16 has its encode timed: of the stream metadata and the
    // 480 transactions, 30 — none of them while recording was off.
    assert_eq!(count("store.append.encode") - encodes_before, 30);
    for (stage, before) in STAGES.iter().zip(before) {
        assert_eq!(count(stage) - before, CHECKPOINTS, "{stage}");
    }
    assert_eq!(
        count("store.checkpoint_micros") - total_before,
        CHECKPOINTS,
        "the total keeps its own histogram"
    );
    let (off, on) = (files(&off_dir), files(&on_dir));
    assert!(off == on, "recording changed the files on disk");
    let _ = fs::remove_dir_all(&off_dir);
    let _ = fs::remove_dir_all(&on_dir);
}
