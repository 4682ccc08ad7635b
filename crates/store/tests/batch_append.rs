//! A host that logs a drained batch with one write ([`MtcStore::append_txns`])
//! and checks it afterwards changes no byte of the log, and its checkpoints
//! record what its checker consumed, not how far the log has run ahead.

use mtc_core::{GcPolicy, IncrementalChecker, IsolationLevel};
use mtc_history::{Op, SessionId, Transaction, TxnId};
use mtc_store::{latest_checkpoint, recover, to_bytes, LogWriter, MtcStore, StreamMeta};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const NUM_KEYS: u64 = 40;
const LEVEL: IsolationLevel = IsolationLevel::Serializability;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mtc_store_batch_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tenant's stream as the service benchmark shapes it: four round-robin
/// sessions of mini-transactions, a fifth of them read-only, half on two
/// keys, every read observing the latest write — except the one at `stale`,
/// which reads what the key held before (a lost update when it writes).
fn tenant_stream(seed: u64, len: usize, stale: Option<usize>) -> Vec<Transaction> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut below = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) % n
    };
    let mut last = vec![0u64; NUM_KEYS as usize];
    let mut before = vec![0u64; NUM_KEYS as usize];
    (0..len)
        .map(|i| {
            let read_only = below(5) == 0;
            let first = below(NUM_KEYS);
            let mut keys = vec![first];
            if below(2) == 0 {
                keys.push((first + 1 + below(NUM_KEYS - 1)) % NUM_KEYS);
            }
            let seen = if stale == Some(i) { &before } else { &last };
            let mut ops: Vec<Op> = keys
                .iter()
                .map(|&k| Op::read(k, seen[k as usize]))
                .collect();
            if !read_only {
                for (n, &k) in keys.iter().enumerate() {
                    before[k as usize] = last[k as usize];
                    last[k as usize] = 1_000 + 2 * i as u64 + n as u64;
                    ops.push(Op::write(k, last[k as usize]));
                }
            }
            let i = i as u64;
            Transaction::committed(TxnId(0), SessionId((i % 4) as u32), ops)
                .with_times(10 * i + 1, 10 * i + 6)
        })
        .collect()
}

/// A fresh store whose segments rotate every `segment_bytes`: a store takes
/// its geometry from the log it opens.
fn store(dir: &Path, segment_bytes: usize, every: usize) -> MtcStore {
    let meta = StreamMeta {
        level: LEVEL,
        num_keys: NUM_KEYS,
    };
    drop(LogWriter::create_with_segment_bytes(dir, &meta, segment_bytes).unwrap());
    let (store, recovery) = MtcStore::open_append(dir).unwrap();
    assert!(recovery.txns.is_empty());
    store.with_checkpoint_every(every)
}

fn checker() -> IncrementalChecker {
    IncrementalChecker::new(LEVEL)
        .with_init_keys(0..NUM_KEYS)
        .with_gc(GcPolicy::default())
}

/// The segment files of `dir`, name and bytes, in name order.
fn segments(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".mtclog"))
        .map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// `txns` cut into consecutive batches of the sizes `cuts` cycles through.
fn batches<'a>(txns: &'a [Transaction], cuts: &[usize]) -> Vec<&'a [Transaction]> {
    let mut out = Vec::new();
    let mut rest = txns;
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, after) = rest.split_at(cut.min(rest.len()));
        out.push(batch);
        rest = after;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Logged one record at a time or a batch at a time, the segment files
    /// are the same, name for name and byte for byte — rotations inside a
    /// batch included. Checked a batch behind its log, every checkpoint
    /// holds the checker as it stood, under the count it consumed; and a
    /// crash between a batch's append and the end of its check recovers, by
    /// replaying the logged rest, to the uninterrupted verdict.
    #[test]
    fn batched_appends_write_the_bytes_of_single_ones(
        seed in 0u64..1_000_000,
        len in 1usize..400,
        cuts in prop::collection::vec(1usize..48, 1..16),
        segment_bytes in 64usize..2_048,
        every in 4usize..64,
        stale in prop::option::of(0usize..400),
        crash in 0usize..400,
    ) {
        let txns = tenant_stream(seed, len, stale);
        let expected = {
            let mut c = IncrementalChecker::new(LEVEL).with_init_keys(0..NUM_KEYS);
            for t in &txns {
                let _ = c.push(t.clone());
            }
            format!("{:?}", c.finish())
        };

        let single = tmpdir("single");
        let mut store_a = store(&single, segment_bytes, every);
        let mut checker_a = checker();
        for t in &txns {
            store_a.append_txn(t).unwrap();
            let _ = checker_a.push(t.clone());
            store_a.recorded(|| checker_a.checkpoint()).unwrap();
        }
        drop(store_a);

        let batched = tmpdir("batched");
        let mut store_b = store(&batched, segment_bytes, every);
        let mut checker_b = checker();
        let mut consumed = 0u64;
        for batch in batches(&txns, &cuts) {
            prop_assert_eq!(store_b.append_txns(batch).unwrap(), consumed);
            for t in batch {
                let _ = checker_b.push(t.clone());
                consumed += 1;
                let before = store_b.stats().checkpoints;
                store_b.recorded(|| checker_b.checkpoint()).unwrap();
                if store_b.stats().checkpoints > before {
                    let (at, snapshot) = latest_checkpoint(&batched).unwrap().unwrap();
                    prop_assert_eq!(at, consumed);
                    prop_assert_eq!(to_bytes(&snapshot), to_bytes(&checker_b.checkpoint()));
                }
            }
        }
        drop(store_b);
        prop_assert_eq!(segments(&batched), segments(&single));
        prop_assert_eq!(format!("{:?}", recover(&batched).unwrap().resume().finish()), expected.clone());

        // The crash: the batch holding transaction `crash` is logged, and the
        // checker stops at it.
        let crashed = tmpdir("crashed");
        let crash = crash % (len + 1);
        let mut store_c = store(&crashed, segment_bytes, every);
        let mut checker_c = checker();
        let mut consumed = 0;
        let mut logged = 0;
        'stream: for batch in batches(&txns, &cuts) {
            store_c.append_txns(batch).unwrap();
            logged += batch.len();
            for t in batch {
                if consumed == crash {
                    break 'stream;
                }
                let _ = checker_c.push(t.clone());
                consumed += 1;
                store_c.recorded(|| checker_c.checkpoint()).unwrap();
            }
        }
        drop((store_c, checker_c));
        let recovery = recover(&crashed).unwrap();
        prop_assert_eq!(recovery.txns.len(), logged);
        prop_assert!(recovery.resume_from <= consumed as u64);
        let mut resumed = recovery.resume();
        for t in &txns[logged..] {
            let _ = resumed.push(t.clone());
        }
        prop_assert_eq!(format!("{:?}", resumed.finish()), expected);
        for dir in [single, batched, crashed] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
