//! The checkpoint cadence of an [`MtcStore`] that logs what a checker
//! consumes: `checkpoint_every` is a floor, and at a floor a snapshot is written only once the log
//! appended since the newest one has grown to that one's size. So the
//! checkpoint bytes written stay below the log bytes written, the recovery
//! tail stays within one snapshot's worth of log, an un-GC'd stream (whose
//! snapshots grow with it) checkpoints a logarithmic number of times — and
//! the log is still fsynced at every floor.
//!
//! `store.log_syncs` is process-wide, so every test here holds the
//! `with_enabled` lock and this file is its own test binary. `--nocapture`
//! prints where each stream checkpointed.

use mtc_core::{GcPolicy, IncrementalChecker, IsolationLevel};
use mtc_history::{Op, SessionId, Transaction, TxnId};
use mtc_obs::test_support::with_enabled;
use mtc_store::{recover, MtcStore, StoreStats, StreamMeta};
use std::path::PathBuf;

const LEVEL: IsolationLevel = IsolationLevel::Serializability;
const NUM_KEYS: u64 = 1_000;
const SESSIONS: u64 = 4;
/// The daemon's default `checkpoint_every`.
const FLOOR: usize = 256;

/// A clean stream of `total` mini-transactions in the service benchmark's
/// shape: four round-robin sessions over 1 000 uniform keys, a fifth of them
/// read-only, half on two keys, every read observing the latest write.
fn stream(seed: u64, total: u64) -> Vec<Transaction> {
    let mut state = seed;
    let mut below = |n: u64| {
        // SplitMix64.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    };
    let mut last = vec![0u64; NUM_KEYS as usize];
    let mut next_value = 1_000u64;
    (0..total)
        .map(|i| {
            let read_only = below(5) == 0;
            let k1 = below(NUM_KEYS);
            let keys = if below(2) == 0 {
                vec![k1, (k1 + 1 + below(NUM_KEYS - 1)) % NUM_KEYS]
            } else {
                vec![k1]
            };
            let mut ops: Vec<Op> = keys
                .iter()
                .map(|&k| Op::read(k, last[k as usize]))
                .collect();
            if !read_only {
                for &k in &keys {
                    next_value += 1;
                    last[k as usize] = next_value;
                    ops.push(Op::write(k, next_value));
                }
            }
            let session = SessionId((i % SESSIONS) as u32);
            Transaction::committed(TxnId(0), session, ops).with_times(10 * i + 1, 10 * i + 6)
        })
        .collect()
}

/// What the store reported over one recorded stream.
struct Cadence {
    /// The store's stats after the last record.
    last: StoreStats,
    /// Events consumed at each checkpoint.
    at: Vec<u64>,
    /// The store's `log_bytes` when it wrote its newest checkpoint, and that
    /// checkpoint's size.
    newest: (u64, u64),
    /// The largest log record, in bytes.
    max_record: u64,
}

/// Logs `txns` into a store at floor [`FLOOR`] and checks each one after it
/// is logged, reading the store's stats after every record, and checks that
/// the store recovers from the newest checkpoint to the live verdict.
fn record(tag: &str, txns: Vec<Transaction>, gc: Option<GcPolicy>) -> Cadence {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "mtc_checkpoint_cadence_{tag}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let meta = StreamMeta {
        level: LEVEL,
        num_keys: NUM_KEYS,
    };
    let mut store = MtcStore::create(&dir, &meta)
        .unwrap()
        .with_checkpoint_every(FLOOR);
    let mut checker = IncrementalChecker::new(LEVEL).with_init_keys(0..NUM_KEYS);
    if let Some(policy) = gc {
        checker.set_gc(policy);
    }
    let mut last = store.stats();
    let mut cadence = Cadence {
        last,
        at: Vec::new(),
        newest: (0, 0),
        max_record: 0,
    };
    for (i, txn) in txns.into_iter().enumerate() {
        store.append_txn(&txn).unwrap();
        let _ = checker.push(txn);
        store.recorded(|| checker.checkpoint()).unwrap();
        let now = store.stats();
        cadence.max_record = cadence.max_record.max(now.log_bytes - last.log_bytes);
        if now.checkpoints > last.checkpoints {
            cadence.at.push(i as u64 + 1);
            cadence.newest = (now.log_bytes, now.checkpoint_bytes - last.checkpoint_bytes);
        }
        last = now;
    }
    cadence.last = last;
    println!(
        "{tag}: checkpoints at {:?}, the newest {} bytes; {} checkpoint bytes, {} log bytes",
        cadence.at, cadence.newest.1, last.checkpoint_bytes, last.log_bytes
    );
    store.sync().unwrap();
    assert_eq!(store.stats().errors, 0);
    let live = checker.finish().unwrap();
    assert!(live.is_satisfied());

    let recovery = recover(&dir).unwrap();
    assert_eq!(Some(&recovery.resume_from), cadence.at.last());
    assert_eq!(recovery.resume().finish().unwrap(), live);
    let _ = std::fs::remove_dir_all(&dir);
    cadence
}

/// Every checkpoint but the newest is paid for by log bytes, and the log
/// after the newest stays under its size plus one floor of records.
fn assert_bounded(c: &Cadence) {
    let (log_at, size) = c.newest;
    assert!(
        c.last.checkpoint_bytes - size <= c.last.log_bytes,
        "{} checkpoint bytes before the newest against {} log bytes",
        c.last.checkpoint_bytes - size,
        c.last.log_bytes
    );
    let tail = c.last.log_bytes - log_at;
    assert!(
        tail < size + FLOOR as u64 * c.max_record,
        "{tail} log bytes after a {size}-byte checkpoint (records ≤ {} bytes)",
        c.max_record
    );
}

#[test]
fn checkpoint_bytes_stay_below_log_bytes_on_a_gcd_stream() {
    let _off = with_enabled(false);
    let c = record("gc", stream(1201, 3_000), Some(GcPolicy::default()));
    assert_bounded(&c);
    // A fixed cadence writes one every floor: 11.
    assert!(c.at.len() <= 3, "checkpoints at {:?}", c.at);
}

#[test]
fn an_ungcd_stream_checkpoints_a_logarithmic_number_of_times() {
    let _off = with_enabled(false);
    const EVENTS: u64 = 20_000;
    let c = record("plain", stream(1202, EVENTS), None);
    assert_bounded(&c);
    // The snapshot grows with the stream, so each checkpoint waits for a
    // log as long as the stream so far (times a fixed ratio): the count
    // grows with the logarithm of the stream's length. A fixed cadence
    // writes one every floor: 78.
    let floors = EVENTS / FLOOR as u64;
    assert!(
        c.at.len() as u64 <= 1 + floors.ilog2() as u64,
        "checkpoints at {:?}",
        c.at
    );
}

#[test]
fn the_log_is_fsynced_at_every_floor() {
    let _on = with_enabled(true);
    let syncs = || mtc_obs::registry().counter("store.log_syncs").get();
    let before = syncs();
    let c = record("syncs", stream(1201, 3_000), Some(GcPolicy::default()));
    // Two of the eleven floors write a checkpoint (which fsyncs the log
    // first), the other nine fsync the log alone, and the closing `sync` once
    // more.
    assert_eq!(c.at.len(), 2, "checkpoints at {:?}", c.at);
    assert_eq!(c.last.checkpoints, 2);
    assert_eq!(syncs() - before, 3_000 / FLOOR as u64 + 1);
}
