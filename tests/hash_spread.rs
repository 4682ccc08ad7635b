//! No key pattern makes a hash map quadratic. The checkers keep their
//! per-key state in `FastHashMap`s keyed by the client's keys, and a
//! client's keys are often aligned ids (`row << 16`, `table << 32`). std's
//! map picks a bucket from the low bits of a hash; a hash whose low bits
//! come only from the key's low bits puts every such key in one bucket, and
//! each probe then walks all of them.
//!
//! Here a 40 000-transaction read-modify-write history over 16 000 keys is
//! checked at SER, batch and streaming, with key `k` spelt `k`, `k << 16`,
//! `k << 32` and `k << 48`: the same history but for the names of its keys.
//! Each shifted spelling must cost less than twice the dense one. An
//! unmixed multiply-xor hash reads 3.5–4.3× batch and about 10× streaming,
//! growing with the key count; the folded one reads about 1.0× batch and
//! 1.2–1.35× streaming (dense keys index the streaming key state's slot
//! table, which shifted keys miss for its map). That leaves the streaming
//! check less room for the host's noise, so every spelling is timed best of
//! five after one untimed round, the spellings taking turns.

use mtc::core::{check_batch, BatchCheck};
use mtc::history::{History, HistoryBuilder, Op};
use mtc::{check_streaming, IsolationLevel};
use std::time::Instant;

mod scaling;

const KEYS: u64 = 16_000;
const TXNS: u64 = 40_000;
const SHIFTS: [u32; 4] = [0, 16, 32, 48];
const MAX_RATIO: f64 = 2.0;

/// A serial history of `TXNS` transactions on two sessions, each reading
/// the last value of key `i % KEYS` and writing the next, with that key
/// spelt `k << shift`.
fn rmw_history(shift: u32) -> History {
    let mut builder = HistoryBuilder::new().with_init_keys((0..KEYS).map(|k| k << shift));
    let mut last = vec![0u64; KEYS as usize];
    for i in 0..TXNS {
        let k = i % KEYS;
        let ops = vec![
            Op::read(k << shift, last[k as usize]),
            Op::write(k << shift, i + 1),
        ];
        builder.committed_timed((i % 2) as u32, ops, 10 * i + 1, 10 * i + 5);
        last[k as usize] = i + 1;
    }
    builder.build()
}

#[test]
fn aligned_keys_cost_what_dense_keys_cost() {
    scaling::keep_freed_memory();
    let histories = SHIFTS.map(rmw_history);

    let batch = scaling::best_of(5, [0, 1, 2, 3], |arm| {
        let start = Instant::now();
        let checked = check_batch(BatchCheck::Ser, &histories[arm]).expect("a valid history");
        let elapsed = start.elapsed();
        assert!(checked.verdict.is_satisfied());
        elapsed
    });
    let streaming = scaling::best_of(5, [0, 1, 2, 3], |arm| {
        let start = Instant::now();
        let verdict = check_streaming(IsolationLevel::Serializability, &histories[arm])
            .expect("a valid history");
        let elapsed = start.elapsed();
        assert!(verdict.is_satisfied());
        elapsed
    });

    // Every reading is printed before any is judged.
    let mut too_slow = Vec::new();
    for (what, times) in [
        ("check_batch(Ser)", batch),
        ("check_streaming(SER)", streaming),
    ] {
        let dense = times[0];
        for (shift, time) in SHIFTS.iter().zip(times).skip(1) {
            let ratio = time.as_secs_f64() / dense.as_secs_f64().max(1e-9);
            println!("{what}: keys k << {shift} {time:.2?}, keys k {dense:.2?}: {ratio:.2}×");
            if ratio >= MAX_RATIO {
                too_slow.push(format!("{what} with keys k << {shift}: {ratio:.2}×"));
            }
        }
    }
    assert!(
        too_slow.is_empty(),
        "aligned keys cost {MAX_RATIO}× the dense keys or more: {}",
        too_slow.join(", ")
    );
}
