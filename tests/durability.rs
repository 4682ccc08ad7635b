//! Durability and bounded-memory integration tests: the acceptance bar of
//! the mtc-store subsystem.
//!
//! * A long (100k+) synthetic stream verified with GC enabled keeps the
//!   number of retained graph nodes below a fixed cap while producing a
//!   verdict identical to the unbounded checker's.
//! * A kill/resume round trip — record, checkpoint, "crash", recover,
//!   resume, finish — reproduces the clean run's verdict and certificate.

use mtc::core::{check_streaming, CheckerSnapshot, GcPolicy, IncrementalChecker, IsolationLevel};
use mtc::history::{History, HistoryBuilder, Op, Transaction};
use mtc::store::{recover, MtcStore, StreamMeta};

/// A serial multi-key stream with one write-skew gadget (an in-window
/// SER/SSER violation) planted at `corrupt_at`, mirroring the core GC test
/// generator but at acceptance scale. (Kept as a copy: the core tests
/// cannot depend on a shared crate without a dependency cycle, so changes
/// here must be applied to `crates/core/src/incremental/tests.rs` too.)
#[allow(clippy::explicit_counter_loop)] // `value` is state, not a counter
fn long_stream(n: u64, keys: u64, corrupt_at: Option<u64>) -> History {
    assert!(keys >= 3);
    let (ka, kb) = (keys - 2, keys - 1);
    let mut b = HistoryBuilder::new().with_init(keys);
    let mut last = vec![0u64; keys as usize];
    let mut value = 1u64;
    for i in 0..n {
        if corrupt_at == Some(i) {
            b.committed_timed(
                8,
                vec![
                    Op::read(ka, 0u64),
                    Op::read(kb, 0u64),
                    Op::write(ka, 900_000_001u64),
                ],
                10 * i + 1,
                10 * i + 6,
            );
            b.committed_timed(
                9,
                vec![
                    Op::read(ka, 0u64),
                    Op::read(kb, 0u64),
                    Op::write(kb, 900_000_002u64),
                ],
                10 * i + 2,
                10 * i + 7,
            );
        }
        let k = (i * 5) % (keys - 2); // stride coprime to every tested key count
        b.committed_timed(
            (i % 8) as u32,
            vec![Op::read(k, last[k as usize]), Op::write(k, value)],
            10 * i + 1,
            10 * i + 5,
        );
        last[k as usize] = value;
        value += 1;
    }
    b.build()
}

#[test]
fn hundred_thousand_txn_stream_verifies_with_bounded_memory() {
    let n = 100_000u64;
    let window = 2048usize;
    // A fixed cap, independent of n: the GC must keep resident state at
    // window scale. (5 nodes per resident transaction in SSER: the
    // transaction node plus two chain nodes per instant.)
    let txn_cap = 3 * window;
    let node_cap = 5 * txn_cap;
    for level in [
        IsolationLevel::Serializability,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::StrictSerializability,
    ] {
        let h = long_stream(n, 16, None);
        let unbounded = check_streaming(level, &h).unwrap();
        let mut gc = IncrementalChecker::new(level).with_gc(GcPolicy { window, every: 512 });
        let _ = gc.push_history(&h);
        assert!(
            gc.live_txn_count() <= txn_cap,
            "{level}: {} resident transactions exceed the cap {txn_cap}",
            gc.live_txn_count()
        );
        assert!(
            gc.live_node_count() <= node_cap,
            "{level}: {} live nodes exceed the cap {node_cap}",
            gc.live_node_count()
        );
        assert!(
            gc.pruned_txn_count() as u64 > n / 2,
            "{level}: only {} of {n} transactions were retired",
            gc.pruned_txn_count()
        );
        let verdict = gc.finish().unwrap();
        assert_eq!(verdict, unbounded, "{level}: GC changed the verdict");
        assert!(verdict.is_satisfied());
    }
}

#[test]
fn bounded_memory_stream_still_latches_violations_exactly() {
    let n = 40_000u64;
    let h = long_stream(n, 16, Some(39_000));
    for level in [
        IsolationLevel::Serializability,
        IsolationLevel::StrictSerializability,
    ] {
        let unbounded = check_streaming(level, &h).unwrap();
        assert!(unbounded.is_violated());
        let mut gc = IncrementalChecker::new(level).with_gc(GcPolicy {
            window: 1024,
            every: 256,
        });
        let _ = gc.push_history(&h);
        let first = gc.first_violation_at();
        assert!(first.is_some(), "{level}: must latch mid-stream");
        assert_eq!(
            gc.finish().unwrap(),
            unbounded,
            "{level}: certificate must be identical to the unbounded run's"
        );
    }
}

/// Splits a history into (init keys, user transactions).
fn split(h: &History) -> (Vec<mtc::history::Key>, Vec<Transaction>) {
    let init_keys = h
        .init_txn()
        .map(|id| h.txn(id).write_set())
        .unwrap_or_default();
    let txns = h
        .txns()
        .iter()
        .filter(|t| Some(t.id) != h.init_txn())
        .cloned()
        .collect();
    (init_keys, txns)
}

#[test]
fn kill_resume_round_trip_reproduces_the_clean_verdict_and_certificate() {
    let dir = std::env::temp_dir().join(format!("mtc_durability_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let n = 4_000u64;
    let level = IsolationLevel::StrictSerializability;
    let h = long_stream(n, 8, Some(3_500));
    let clean = check_streaming(level, &h).unwrap();
    assert!(clean.is_violated());

    // Record with write-ahead + periodic checkpoints, then "crash" mid-way
    // by abandoning everything after a torn partial frame.
    let (init_keys, txns) = split(&h);
    let mut store = MtcStore::create(
        &dir,
        &StreamMeta {
            level,
            num_keys: init_keys.len() as u64,
        },
    )
    .unwrap();
    let mut checker = IncrementalChecker::new(level).with_init_keys(init_keys);
    let cut = 3_200usize;
    for (i, t) in txns[..cut].iter().enumerate() {
        store.append_txn(t).unwrap();
        let _ = checker.push(t.clone());
        if (i + 1) % 500 == 0 {
            let snap: CheckerSnapshot = checker.checkpoint();
            store.checkpoint((i + 1) as u64, &snap).unwrap();
        }
    }
    store.sync().unwrap();
    drop(store);
    drop(checker);
    // Torn tail: half a frame of garbage, as a kill mid-write leaves.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".mtclog"))
        .max_by_key(|e| e.file_name())
        .unwrap()
        .path();
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x17, 0x00, 0x00, 0x00, 0xde, 0xad]);
    std::fs::write(&seg, &bytes).unwrap();

    // Recover: resume from the newest checkpoint, replay the logged tail,
    // then feed the not-yet-logged remainder of the stream.
    let recovery = recover(&dir).unwrap();
    assert!(recovery.torn_tail);
    assert_eq!(recovery.resume_from, 3_000);
    assert_eq!(recovery.txns.len(), cut);
    let mut resumed = IncrementalChecker::resume(recovery.snapshot.clone().unwrap());
    for t in recovery.tail() {
        let _ = resumed.push(t.clone());
    }
    for t in &txns[cut..] {
        let _ = resumed.push(t.clone());
    }
    let verdict = resumed.finish().unwrap();
    assert_eq!(
        verdict, clean,
        "kill/resume must reproduce the clean verdict and certificate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_resumes_at_scale_at_si() {
    let n = 10_000u64;
    let level = IsolationLevel::SnapshotIsolation;
    let h = long_stream(n, 12, None);
    let clean = check_streaming(level, &h).unwrap();
    let (init_keys, txns) = split(&h);
    let mut first = IncrementalChecker::new(level).with_init_keys(init_keys);
    let cut = 6_000usize;
    for t in &txns[..cut] {
        let _ = first.push(t.clone());
    }
    let snapshot = first.checkpoint();
    drop(first);
    let mut resumed = IncrementalChecker::resume(snapshot);
    let _ = resumed.push_batch(txns[cut..].to_vec());
    assert_eq!(resumed.finish().unwrap(), clean);
}

// ───────────────── reader-list caps (GC follow-up) ──────────────────────────

/// A stream in which every transaction reads one *hot* key whose version
/// never changes (`⊥T`'s initial version) and RMWs a rotating cold key.
/// The hot version stays latest forever, so its reader list
/// accumulates up to the full GC window between sweeps.
#[allow(clippy::explicit_counter_loop)] // `value` is state, not a counter
fn hot_key_stream(n: u64, cold_keys: u64) -> Vec<Transaction> {
    let mut out = Vec::with_capacity(n as usize);
    let mut last = vec![0u64; cold_keys as usize];
    let mut value = 1u64;
    for i in 0..n {
        let k = 1 + (i % cold_keys); // keys 1..=cold_keys; key 0 is the hot one
        let ops = vec![
            Op::read(0u64, 0u64), // hot key, always the initial version
            Op::read(k, last[(k - 1) as usize]),
            Op::write(k, value),
        ];
        out.push(
            Transaction::committed(
                mtc::history::TxnId(0),
                mtc::history::SessionId((i % 4) as u32),
                ops,
            )
            .with_times(10 * i + 1, 10 * i + 5),
        );
        last[(k - 1) as usize] = value;
        value += 1;
    }
    out
}

/// A hot key whose version never changes accumulates `readers_of` register
/// state between sweeps, and the window bounds it: every sweep trims a live
/// version's readers to the window, so no list outgrows `window + every`.
/// Every reader stays, so the verdict is the un-collected run's.
#[test]
fn hot_key_reader_lists_stay_within_window_and_cadence() {
    let (window, every) = (256, 64);
    let mut c = IncrementalChecker::new(IsolationLevel::Serializability)
        .with_init_keys(0..9u64)
        .with_gc(GcPolicy { window, every });
    let mut plain =
        IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..9u64);
    for t in hot_key_stream(4_000, 8) {
        let _ = plain.push(t.clone());
        let _ = c.push(t);
    }
    let longest = c.max_reader_list_len();
    assert!(
        longest > 128,
        "the hot key's reader list must accumulate toward the window \
         between sweeps (got {longest})"
    );
    assert!(
        longest <= window + every,
        "a sweep trims reader lists to the window, so none outgrows \
         window + every = {} (got {longest})",
        window + every
    );
    assert!(
        plain.max_reader_list_len() > window + every,
        "without a GC the list keeps every reader"
    );
    let verdict = c.finish().unwrap();
    assert_eq!(verdict, plain.finish().unwrap());
    assert!(verdict.is_satisfied());
}
