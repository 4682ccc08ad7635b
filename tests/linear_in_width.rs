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

mod scaling;

const NARROW: u64 = 4_000;
const WIDE: u64 = 16_000;
const MAX_GROWTH: f64 = 8.0;

/// The best of three timings of `run` at [`NARROW`] and at [`WIDE`], after
/// one untimed round. Its input is built by `prepare`, and what
/// it returns dropped, outside the timed part.
fn best_of_three<T, R>(prepare: impl Fn(u64) -> T, run: impl Fn(T) -> R) -> (Duration, Duration) {
    let [narrow, wide] = scaling::best_of(3, [NARROW, WIDE], |width| {
        let input = prepare(width);
        let start = Instant::now();
        let output = run(input);
        let elapsed = start.elapsed();
        drop(output);
        elapsed
    });
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

#[test]
fn a_check_and_a_stream_cost_linear_in_a_transactions_width() {
    scaling::keep_freed_memory();
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
