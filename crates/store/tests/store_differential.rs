//! Differential tests through the *binary* persistence layer: random
//! streams — valid and corrupted, timed and untimed — are recorded to a
//! segmented log with a binary checkpoint at a random prefix; everything is
//! dropped, recovered from disk, resumed and finished. Verdict,
//! counterexample certificate and `first_violation_at` must be
//! bit-identical to the uninterrupted in-memory run, at every isolation
//! level.

use mtc_core::{CheckerSnapshot, GcPolicy, IncrementalChecker, IsolationLevel, SNAPSHOT_VERSION};
use mtc_history::{Op, SessionId, Transaction, TxnId, TxnStatus};
use mtc_store::{
    from_bytes, read_checkpoint, recover, to_bytes, write_checkpoint, MtcStore, StoreError,
    StreamMeta,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn tmpdir(tag: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mtc_store_diff_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A random stream over `keys` keys: mostly serial read-modify-writes, with
/// optional stale-read corruption, optional clock skew, and a sprinkle of
/// aborted and partially timed transactions.
#[allow(clippy::too_many_arguments)]
#[allow(clippy::explicit_counter_loop)] // `value` is allocator state
fn build_stream(
    picks: &[(u64, u64, u64)],
    keys: u64,
    sessions: u32,
    corrupt: Option<usize>,
    skew: Option<usize>,
    strip: Option<usize>,
    abort: Option<usize>,
) -> Vec<Transaction> {
    let keys = keys.max(2);
    let mut state = vec![0u64; keys as usize];
    let mut value = 1u64;
    let mut out = Vec::new();
    for (i, &(kpick, spick, shape)) in picks.iter().enumerate() {
        let k = kpick % keys;
        let session = (spick % sessions as u64) as u32;
        let mut read = state[k as usize];
        if corrupt == Some(i) {
            read /= 2; // stale or thin-air
        }
        let mut ops = vec![Op::read(k, read)];
        if shape % 3 != 0 {
            ops.push(Op::write(k, value));
        }
        let status = if abort == Some(i) {
            TxnStatus::Aborted
        } else {
            TxnStatus::Committed
        };
        if shape % 3 != 0 && status == TxnStatus::Committed {
            state[k as usize] = value;
        }
        value += 1;
        let i64_ = i as u64;
        let mut begin = Some(10 * i64_ + 1);
        let mut end = Some(10 * i64_ + 7);
        if skew == Some(i) {
            end = Some((10 * i64_ + 7).saturating_sub(120));
        }
        if strip == Some(i) {
            if shape % 2 == 0 {
                begin = None;
            } else {
                end = None;
            }
        }
        out.push(Transaction {
            id: TxnId(0),
            session: SessionId(session),
            ops,
            status,
            begin,
            end,
        });
    }
    out
}

fn run_reference(
    level: IsolationLevel,
    keys: u64,
    txns: &[Transaction],
) -> (String, Option<TxnId>) {
    let mut c = IncrementalChecker::new(level).with_init_keys(0..keys);
    for t in txns {
        let _ = c.push(t.clone());
    }
    let first = c.first_violation_at();
    (format!("{:?}", c.finish()), first)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Record → binary checkpoint → drop → recover from disk → resume →
    /// finish must equal the uninterrupted run bit for bit.
    #[test]
    fn disk_round_trip_is_bit_identical(
        picks in prop::collection::vec((0u64..5, 0u64..4, 0u64..6), 1..40),
        keys in 2u64..5,
        cut in 0usize..40,
        corrupt in prop::option::of(0usize..40),
        skew in prop::option::of(0usize..40),
        strip in prop::option::of(0usize..40),
        abort in prop::option::of(0usize..40),
        seed in 0u64..1_000_000,
    ) {
        let txns = build_stream(&picks, keys, 4, corrupt, skew, strip, abort);
        let cut = cut % (txns.len() + 1);
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::StrictSerializability,
        ] {
            let (expected, expected_first) = run_reference(level, keys, &txns);

            let dir = tmpdir(seed);
            let meta = StreamMeta { level, num_keys: keys };
            let mut store = MtcStore::create(&dir, &meta).unwrap();
            let mut checker = IncrementalChecker::new(level).with_init_keys(0..keys);
            for t in &txns[..cut] {
                store.append_txn(t).unwrap();
                let _ = checker.push(t.clone());
            }
            store.checkpoint(cut as u64, &checker.checkpoint()).unwrap();
            // The rest of the stream reaches the log but not the checker —
            // the crash happens before they are consumed.
            for t in &txns[cut..] {
                store.append_txn(t).unwrap();
            }
            store.sync().unwrap();
            drop(store);
            drop(checker);

            let recovery = recover(&dir).unwrap();
            prop_assert_eq!(recovery.resume_from, cut as u64);
            prop_assert_eq!(recovery.txns.len(), txns.len());
            let mut resumed = IncrementalChecker::resume(recovery.snapshot.clone().unwrap());
            for t in recovery.tail() {
                let _ = resumed.push(t.clone());
            }
            prop_assert_eq!(resumed.first_violation_at(), expected_first, "{}", level);
            prop_assert_eq!(format!("{:?}", resumed.finish()), expected, "{}", level);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

// ───────────────────── snapshot wire-format fixtures ────────────────────────

/// Prefix length of the committed fixtures: 143 recorded transactions plus
/// `⊥T` puts the snapshot on a GC epoch boundary (`144 = 9 · every`).
const FIXTURE_CUT: usize = 143;
const FIXTURE_KEYS: u64 = 4;
const FIXTURE_GC: GcPolicy = GcPolicy {
    window: 96,
    every: 16,
};

/// The deterministic 200-transaction stream the fixtures were cut from: an
/// aborted and a partially timed transaction inside the prefix, a skewed
/// commit (SSER-only violation) and an in-window stale read in the tail.
fn fixture_stream() -> Vec<Transaction> {
    let picks: Vec<(u64, u64, u64)> = (0..200u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 7, i / 3 + i, i))
        .collect();
    build_stream(
        &picks,
        FIXTURE_KEYS,
        4,
        Some(185),
        Some(170),
        Some(100),
        Some(60),
    )
}

/// The fixture stream with every commit instant 30 ticks later, so that a
/// transaction overlaps the next few: most begin instants lie well below
/// the time-chain's maximum (while begin instants had anchors of their own,
/// the SSER order reordered on nearly every transaction of it).
fn overlapping_stream() -> Vec<Transaction> {
    let mut txns = fixture_stream();
    for t in &mut txns {
        t.end = t.end.map(|end| end + 30);
    }
    txns
}

/// The committed snapshot of the fixture prefix at `level`, of this build's
/// `SNAPSHOT_VERSION`.
fn fixture_path(level: IsolationLevel) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(format!("snapshot-v9-{}.mtcck", level_name(level)))
}

fn level_name(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::Serializability => "ser",
        IsolationLevel::SnapshotIsolation => "si",
        IsolationLevel::StrictSerializability => "sser",
    }
}

const LEVELS: [IsolationLevel; 3] = [
    IsolationLevel::Serializability,
    IsolationLevel::SnapshotIsolation,
    IsolationLevel::StrictSerializability,
];

/// The `snapshot-v9-*` files under `tests/data/` pin the `CheckerSnapshot`
/// format from both sides: this build writes, for the fixture prefix, the
/// very bytes committed there, and reads them back into a checker that
/// finishes the stream with the uninterrupted run's verdict. A snapshot
/// names no field, so a refactor that renames a serialized field passes
/// here, and one that reorders, adds or drops one fails here instead of on
/// somebody's disk.
///
/// A change that moves snapshot bytes on purpose bumps `SNAPSHOT_VERSION`
/// and regenerates: the failing check writes this build's file under
/// `CARGO_TARGET_TMPDIR` and names it; copy it over the fixture (named for
/// the new version) and keep the old one as a refused input below.
#[test]
fn the_v9_fixtures_are_this_builds_bytes_and_resume_to_the_uninterrupted_verdict() {
    let txns = fixture_stream();
    for level in LEVELS {
        let checker = || {
            IncrementalChecker::new(level)
                .with_init_keys(0..FIXTURE_KEYS)
                .with_gc(FIXTURE_GC)
        };
        let mut whole = checker();
        for t in &txns {
            let _ = whole.push(t.clone());
        }
        let expected_first = whole.first_violation_at();
        let expected = format!("{:?}", whole.finish());

        // The encoder side.
        let mut prefix = checker();
        for t in &txns[..FIXTURE_CUT] {
            let _ = prefix.push(t.clone());
        }
        let written = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("snapshot-v9-{}", level_name(level)));
        let written = write_checkpoint(&written, FIXTURE_CUT as u64, &prefix.checkpoint()).unwrap();
        assert!(
            std::fs::read(fixture_path(level)).ok() == Some(std::fs::read(&written).unwrap()),
            "{level}: snapshot bytes changed; this build wrote {}",
            written.display()
        );

        // The decoder side.
        let (consumed, snapshot) = read_checkpoint(fixture_path(level)).unwrap();
        assert_eq!(consumed, FIXTURE_CUT as u64);
        assert_eq!(snapshot.version(), SNAPSHOT_VERSION);
        assert_eq!(snapshot.level(), level);
        assert_eq!(snapshot.txn_count(), FIXTURE_CUT + 1);
        let mut resumed = IncrementalChecker::resume(snapshot);
        assert_eq!(resumed.gc_policy(), Some(FIXTURE_GC));
        for t in &txns[FIXTURE_CUT..] {
            let _ = resumed.push(t.clone());
        }
        assert_eq!(resumed.first_violation_at(), expected_first, "{level}");
        assert_eq!(format!("{:?}", resumed.finish()), expected, "{level}");
    }
}

/// Records `txns` at `level` into a fresh store with a checkpoint of this
/// build's after `older` transactions, if any, puts the checkpoint file
/// `refused` in as the newest one, at [`FIXTURE_CUT`], and recovers: the
/// recovery must pass over it — to the older checkpoint, or to a replay of
/// the log from the start — and reach the verdict a fresh checker gives on
/// the whole log.
fn assert_recovery_passes_over(
    refused: &std::path::Path,
    level: IsolationLevel,
    txns: &[Transaction],
    older: Option<u64>,
) {
    let fresh = || IncrementalChecker::new(level).with_init_keys(0..FIXTURE_KEYS);
    let outcome = |c: IncrementalChecker| (c.first_violation_at(), format!("{:?}", c.finish()));
    let mut plain = fresh();
    let mut collected = fresh().with_gc(FIXTURE_GC);
    for t in txns {
        let _ = plain.push(t.clone());
        let _ = collected.push(t.clone());
    }
    let expected = outcome(plain);
    assert_eq!(outcome(collected), expected);

    let dir = tmpdir(0xCA9_000 + older.unwrap_or(0));
    let meta = StreamMeta {
        level,
        num_keys: FIXTURE_KEYS,
    };
    let mut store = MtcStore::create(&dir, &meta).unwrap();
    let mut checker = fresh().with_gc(FIXTURE_GC);
    for (i, t) in (1..).zip(txns) {
        store.append_txn(t).unwrap();
        let _ = checker.push(t.clone());
        if older == Some(i) {
            store.checkpoint(i, &checker.checkpoint()).unwrap();
        }
    }
    store.sync().unwrap();
    drop(store);
    let newest = dir.join(format!("checkpoint-{FIXTURE_CUT:012}.mtcck"));
    std::fs::copy(refused, newest).unwrap();

    let recovery = recover(&dir).unwrap();
    let what = format!("{} at {level}, older = {older:?}", refused.display());
    assert_eq!(recovery.resume_from, older.unwrap_or(0), "{what}");
    assert_eq!(recovery.snapshot.is_some(), older.is_some(), "{what}");
    assert_eq!(outcome(recovery.resume()), expected, "{what}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `snapshot-v{version}-{ser,si,sser}` files are the fixture prefix as
/// the last build of that version wrote it: this build's layout would
/// misread them, so each is refused by its version before its body is
/// decoded, and recovery passes over each — to the checkpoint before it, or
/// to a replay of the log from the start — to the uninterrupted verdict;
/// the SSER one over [`overlapping_stream`] too, whose order reorders on
/// nearly every transaction.
fn assert_refused_by_version(version: u32) {
    for level in LEVELS {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/data")
            .join(format!("snapshot-v{version}-{}.mtcck", level_name(level)));
        match read_checkpoint(&path) {
            Err(StoreError::Format(why)) => {
                let named = format!("unsupported snapshot version {version}");
                assert!(why.contains(&named), "{why}")
            }
            other => panic!("{}: must be refused, got {other:?}", path.display()),
        }
        let mut streams = vec![fixture_stream()];
        if level == IsolationLevel::StrictSerializability {
            streams.push(overlapping_stream());
        }
        for txns in &streams {
            for older in [None, Some(64u64)] {
                assert_recovery_passes_over(&path, level, txns, older);
            }
        }
    }
}

/// Version 8 threaded begin instants into the time-chain too: a slot held
/// one or two anchors, split lazily by role.
#[test]
fn the_v8_fixtures_are_refused_by_version_and_recovery_passes_over_them() {
    assert_refused_by_version(8);
}

/// `n` keys drawn Zipf(1.0) over `keys` keys, key 0 the hottest, from a
/// fixed seed.
fn zipf_keys(keys: u64, n: usize) -> Vec<u64> {
    let weights: Vec<f64> = (1..=keys).map(|rank| 1.0 / rank as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    (0..n)
        .map(|_| {
            let mut u = rng.gen::<f64>() * total;
            let rank = weights.iter().position(|&w| {
                u -= w;
                u < 0.0
            });
            rank.unwrap_or(keys as usize - 1) as u64
        })
        .collect()
}

/// Pushes `txns` through a checker at `level` with `gc`, checkpoints every
/// 50 pushes, and asserts that each checkpoint, decoded and resumed,
/// re-encodes to its own bytes, and that the stream is clean. Returns the
/// longest reader list any checkpoint held.
fn assert_checkpoints_reencode(
    level: IsolationLevel,
    keys: u64,
    gc: GcPolicy,
    txns: &[Transaction],
) -> usize {
    let mut checker = IncrementalChecker::new(level)
        .with_init_keys(0..keys)
        .with_gc(gc);
    let mut differ = Vec::new();
    let mut checkpoints = 0;
    let mut longest = 0;
    for (i, t) in (1..).zip(txns) {
        let _ = checker.push(t.clone());
        if i % 50 != 0 {
            continue;
        }
        checkpoints += 1;
        longest = longest.max(checker.max_reader_list_len());
        let bytes = to_bytes(&checker.checkpoint());
        let back: CheckerSnapshot = from_bytes(&bytes).unwrap();
        if to_bytes(&IncrementalChecker::resume(back).checkpoint()) != bytes {
            differ.push(i);
        }
    }
    assert_eq!(checkpoints, txns.len() / 50);
    assert!(checker.violation().is_none(), "{level}: a clean stream");
    assert!(
        differ.is_empty(),
        "{level}: the checkpoints after pushes {differ:?} re-encode to other bytes"
    );
    longest
}

/// A snapshot's bytes are a function of the checker's state: a checker
/// resumed from a checkpoint writes that checkpoint back byte for byte — the
/// committed `snapshot-v9-*` fixtures, and every point of a long, GC'd
/// stream — however differently the decoded maps were filled from the ones
/// that wrote them. The second stream has
/// Zipf-hot keys and a majority of read-only transactions, so the
/// checkpoints hold reader lists that stay in place, lists that spilled to
/// the heap, and lists a sweep cut back to the window — which a decoded
/// checker may hold in place again.
#[test]
fn resumed_checkpoints_reencode_to_their_own_bytes() {
    const KEYS: u64 = 50;
    let picks: Vec<(u64, u64, u64)> = (0..600u64)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 7, i, 1))
        .collect();
    let uniform_rmw = build_stream(&picks, KEYS, 4, None, None, None, None);
    // Three in five transactions only read (a shape of 0 writes nothing).
    let picks: Vec<(u64, u64, u64)> = (0..600u64)
        .zip(zipf_keys(KEYS, 600))
        .map(|(i, key)| (key, i, u64::from(i % 5 >= 3)))
        .collect();
    let zipf_mostly_reads = build_stream(&picks, KEYS, 4, None, None, None, None);
    for level in LEVELS {
        // The committed snapshots too, as files.
        let (consumed, snapshot) = read_checkpoint(fixture_path(level)).unwrap();
        let dir = tmpdir(0x5EE_000 + consumed);
        let path = write_checkpoint(
            &dir,
            consumed,
            &IncrementalChecker::resume(snapshot).checkpoint(),
        );
        assert!(
            std::fs::read(path.unwrap()).unwrap() == std::fs::read(fixture_path(level)).unwrap(),
            "{level}: the resumed fixture re-encodes to other bytes"
        );
        let _ = std::fs::remove_dir_all(&dir);

        assert_checkpoints_reencode(level, KEYS, GcPolicy::clamped(64, 16), &uniform_rmw);
        let gc = GcPolicy::clamped(64, 16);
        let longest = assert_checkpoints_reencode(level, KEYS, gc, &zipf_mostly_reads);
        assert!(
            longest > 2,
            "{level}: no checkpoint held a spilled reader list (longest {longest})"
        );
    }
}
