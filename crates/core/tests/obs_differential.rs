//! Observability must never change a verdict: the exact same stream fed
//! through the streaming checker with metric recording *disabled* and then
//! *enabled* must produce bit-identical
//! results — same verdict payload, same `first_violation_at` — and so must
//! the four batch checkers, whose stages are spanned (`core.batch.*`). With
//! metrics on, every sampled push records its `admit`, `derive` and `settle`
//! stages (`core.stream.*`) beside its total, and every GC epoch its
//! `sweep`, `refs` and `collect` parts (`core.stream.gc.*`) beside its. The
//! instrumentation only ever times and counts; this suite is the proof
//! that it stays off the decision path. (`mtc-store`'s spanned checkpoint
//! stages have their twin of this check in `crates/store/tests/write_path.rs`.)

use mtc_core::{check_batch, BatchCheck, GcPolicy, IncrementalChecker, IsolationLevel};
use mtc_history::{History, HistoryBuilder, Op, Value};

/// A serial read-modify-write history over `keys` keys: clean at SER and
/// SI by construction.
fn serial_history(keys: u64, txns: usize, sessions: u32) -> History {
    let mut state = vec![0u64; keys as usize];
    let mut builder = HistoryBuilder::new().with_init(keys);
    for i in 0..txns {
        let next = i as u64 + 1;
        let k = ((i as u64).wrapping_mul(7).wrapping_add(3) % keys) as usize;
        let ops = vec![Op::read(k as u64, state[k]), Op::write(k as u64, next)];
        state[k] = next;
        builder.committed(i as u32 % sessions, ops);
    }
    builder.build()
}

/// Rebuilds `history` with the first read of the `target`-th user
/// transaction made stale — a violation for every RMW stream.
fn corrupted(history: &History, target: usize) -> History {
    let mut builder = HistoryBuilder::new().with_init(history.keys().len() as u64);
    let user: Vec<_> = history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != history.init_txn())
        .collect();
    for (i, t) in user.iter().enumerate() {
        let mut ops = t.ops.clone();
        if i == target % user.len().max(1) {
            if let Some(Op::Read { value, .. }) = ops.first_mut() {
                *value = Value(value.raw().wrapping_add(1_000_000));
            }
        }
        builder.committed(t.session.0, ops);
    }
    builder.build()
}

/// One full run of the streaming checker (GC'd) over `history`, returning
/// everything a caller could observe: the debug-rendered final verdict and
/// the latched first-violation index.
fn run_streaming(level: IsolationLevel, history: &History) -> (String, Option<mtc_history::TxnId>) {
    let mut checker = IncrementalChecker::new(level)
        .with_init_keys(0..history.keys().len() as u64)
        .with_gc(GcPolicy::clamped(16, 3));
    for t in history.txns() {
        if Some(t.id) == history.init_txn() {
            continue;
        }
        let _ = checker.push(t.clone());
    }
    let first = checker.first_violation_at();
    (format!("{:?}", checker.finish()), first)
}

/// The sampled push's total, then the three stages it is split into; a GC
/// epoch's total, then the three parts it is split into.
const STREAM_TIMINGS: [&str; 8] = [
    "checker.ingest_txn_micros",
    "core.stream.admit",
    "core.stream.derive",
    "core.stream.settle",
    "checker.gc_epoch_micros",
    "core.stream.gc.sweep",
    "core.stream.gc.refs",
    "core.stream.gc.collect",
];

/// One streaming run under the switch set to `on`, with what it added to
/// each of [`STREAM_TIMINGS`]. The guard serializes switch-toggling tests,
/// so the counts are this run's alone.
fn run_streaming_counted(
    on: bool,
    level: IsolationLevel,
    history: &History,
) -> ((String, Option<mtc_history::TxnId>), [u64; 8]) {
    let _switch = mtc_obs::test_support::with_enabled(on);
    let count = |name: &str| mtc_obs::registry().histogram(name).count();
    let before = STREAM_TIMINGS.map(count);
    let run = run_streaming(level, history);
    let after = STREAM_TIMINGS.map(count);
    (run, std::array::from_fn(|i| after[i] - before[i]))
}

/// Same verdict and `first_violation_at` with metrics off and on; off
/// records nothing, on records every stage of every sampled push and every
/// part of every GC epoch — the sweep at each, the refs and the collection
/// at every fourth, the collection commits. Returns the epochs.
fn assert_identical_on_off(level: IsolationLevel, history: &History) -> u64 {
    let (off, off_counts) = run_streaming_counted(false, level, history);
    let (on, on_counts) = run_streaming_counted(true, level, history);
    assert_eq!(off, on, "verdict differs with metrics on at {level}");
    assert_eq!(off_counts, [0; 8], "nothing is recorded with metrics off");
    let sampled = on_counts[0];
    assert!(sampled > 0, "{level}: no push was sampled");
    assert_eq!(
        on_counts[..4],
        [sampled; 4],
        "{level}: every stage of a sampled push is recorded"
    );
    let (epochs, commits) = (on_counts[4], on_counts[4] / 4);
    assert_eq!(
        on_counts[4..],
        [epochs, epochs, commits, commits],
        "{level}: every part of a GC epoch is recorded"
    );
    epochs
}

#[test]
fn clean_streams_identical_with_metrics_on_and_off() {
    for &(keys, txns, sessions) in &[(4u64, 60usize, 2u32), (8, 200, 4), (3, 33, 1)] {
        let history = serial_history(keys, txns, sessions);
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
        ] {
            let epochs = assert_identical_on_off(level, &history);
            assert!(
                epochs >= 4,
                "{level}: {txns} transactions closed {epochs} epochs"
            );
        }
    }
}

#[test]
fn violating_streams_identical_with_metrics_on_and_off() {
    for &(keys, txns, target) in &[(4u64, 60usize, 10usize), (8, 200, 150), (3, 33, 0)] {
        let history = corrupted(&serial_history(keys, txns, 2), target);
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
        ] {
            assert_identical_on_off(level, &history);
        }
    }
}

/// `txns` concurrent transactions over `keys` keys, each reading two keys at
/// their initial value and overwriting the first: every version is forked
/// and every transaction anti-depends on others through two keys, so the
/// graph has many cycles and the checkers a choice of certificate.
fn forked(keys: u64, txns: u64) -> History {
    let mut builder = HistoryBuilder::new().with_init(keys);
    for i in 0..txns {
        let (a, b) = (i % keys, (i + 1) % keys);
        let ops = vec![Op::read(a, 0u64), Op::read(b, 0u64), Op::write(a, i + 1)];
        builder.committed(i as u32 % 2, ops);
    }
    builder.build()
}

const BATCH: [BatchCheck; 4] = [
    BatchCheck::Ser,
    BatchCheck::Si,
    BatchCheck::Sser,
    BatchCheck::SserNaive,
];

/// Everything the four batch checkers return on `history`, rendered.
fn run_batch(history: &History) -> Vec<String> {
    BATCH
        .iter()
        .map(|&check| format!("{:?}", check_batch(check, history)))
        .collect()
}

#[test]
fn batch_checkers_identical_with_metrics_on_and_off_and_spanned_when_on() {
    const STAGES: [&str; 4] = [
        "core.batch.index",
        "core.batch.preflight",
        "core.batch.build",
        "core.batch.cycle",
    ];
    let mut histories = vec![serial_history(8, 200, 4), serial_history(3, 33, 1)];
    histories.push(mtc_history::anomalies::thin_air_read());
    histories.push(mtc_history::anomalies::lost_update());
    histories.push(forked(2, 6));
    histories.push(forked(3, 9));
    for history in &histories {
        let off = {
            let _off = mtc_obs::test_support::with_enabled(false);
            run_batch(history)
        };
        let _on = mtc_obs::test_support::with_enabled(true);
        let count = |stage: &str| mtc_obs::registry().histogram(stage).count();
        let before = STAGES.map(count);
        let on = run_batch(history);
        let recorded: Vec<u64> = STAGES
            .iter()
            .zip(before)
            .map(|(s, b)| count(s) - b)
            .collect();
        if off[0].contains("Satisfied") {
            assert_eq!(recorded, [4, 4, 4, 4], "one span per stage per check");
        } else {
            // Verdicts reached in the preflight build and search nothing.
            assert_eq!(recorded[..2], [4, 4]);
            assert!(recorded[2] < 4 && recorded[2] == recorded[3]);
        }
        assert_eq!(off, on, "batch verdicts differ with metrics on");
    }
}
