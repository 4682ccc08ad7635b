//! The cost of one transaction grows linearly with its width. The widest
//! transaction of every history is `⊥T`, one write per key of the key space,
//! and a client may send a single event of thousands of writes. Finding
//! "the last write of this key" and "the slot of this key" with a scan per
//! operation made both quadratic. Here each of these paths is timed at
//! 4 000 and at 16 000 keys (or operations), best of three after one
//! untimed round. Four times the width must cost less than eight times the
//! time: a linear path reads about 4–6×, and a quadratic one 13–21×.
//!
//! - `check_batch` at SER, SI and SSER on a history that is `⊥T` alone;
//! - `IncrementalChecker::with_init_keys`;
//! - pushing one committed non-MT event of distinct-key writes into a SER
//!   checker.

use mtc::core::{check_batch, BatchCheck};
use mtc::history::{HistoryBuilder, Op, Value};
use mtc::{IncrementalChecker, IsolationLevel};
use std::time::{Duration, Instant};

const NARROW: u64 = 4_000;
const WIDE: u64 = 16_000;
const MAX_GROWTH: f64 = 8.0;

/// The best of three timings of `run` at [`NARROW`] and at [`WIDE`], after
/// one untimed round. Its input is built by `prepare`, and what
/// it returns dropped, outside the timed part.
fn best_of_three<T, R>(prepare: impl Fn(u64) -> T, run: impl Fn(T) -> R) -> (Duration, Duration) {
    let time = |width: u64| {
        let input = prepare(width);
        let start = Instant::now();
        let output = run(input);
        let elapsed = start.elapsed();
        drop(output);
        elapsed
    };
    // The widths take turns, so that a slow phase of the host falls on both.
    let (mut narrow, mut wide) = (Duration::MAX, Duration::MAX);
    for round in 0..4 {
        let (n, w) = (time(NARROW), time(WIDE));
        if round > 0 {
            (narrow, wide) = (narrow.min(n), wide.min(w));
        }
    }
    (narrow, wide)
}

fn assert_linear(what: &str, (narrow, wide): (Duration, Duration)) {
    let growth = wide.as_secs_f64() / narrow.as_secs_f64().max(1e-9);
    println!("{what}: {narrow:.2?} at {NARROW}, {wide:.2?} at {WIDE}: {growth:.1}×");
    assert!(
        growth < MAX_GROWTH,
        "{what} grew {growth:.1}× from {NARROW} to {WIDE} (at most {MAX_GROWTH}× allowed)"
    );
}

/// Keeps freed memory in the process. glibc hands a large free block back
/// to the kernel, and maps it afresh at a page fault per 4 KiB when it is
/// next asked for; what counts as large moves with the blocks freed before.
/// One width would then be timed with its page faults and the other without
/// them. With both thresholds pinned, neither is.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets two of glibc's tuning parameters, before
    // this test has allocated anything it will time.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

#[test]
fn a_check_and_a_stream_cost_linear_in_a_transactions_width() {
    keep_freed_memory();
    let init_only = |keys: u64| HistoryBuilder::new().with_init(keys).build();
    for check in [BatchCheck::Ser, BatchCheck::Si, BatchCheck::Sser] {
        let times = best_of_three(init_only, |h| {
            let checked = check_batch(check, &h).expect("⊥T alone is a valid history");
            assert!(checked.verdict.is_satisfied());
            h
        });
        assert_linear(&format!("check_batch({check:?}) on ⊥T alone"), times);
    }

    let times = best_of_three(
        |keys| keys,
        |keys| IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..keys),
    );
    assert_linear("IncrementalChecker::with_init_keys", times);

    // A tenant's stream: `⊥T` over the key space, then one event that
    // writes every key of it.
    let wide_event = |ops: u64| {
        let checker =
            IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..ops);
        let event: Vec<Op> = (0..ops).map(|k| Op::write(k, Value(k + 1))).collect();
        (checker, event)
    };
    let times = best_of_three(wide_event, |(mut checker, event)| {
        // Not a mini-transaction: the checker says so once it has taken the
        // event apart key by key, which is the part timed here.
        assert!(checker.push_committed(0, event).is_err());
        checker
    });
    assert_linear("one wide event pushed into a SER checker", times);
}
