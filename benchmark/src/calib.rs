//! A yardstick for the machine's speed at the moment of a repetition.
//!
//! The benchmark runs on a small guest that shares its cores and caches
//! with other tenants: the same binary on the same seed read 62k and 33k
//! txns/s (`pipeline_uniform`) in two sets of runs fifteen minutes apart,
//! and moves by a fifth within seconds. A fixed piece of work that belongs
//! to the benchmark, timed next to every repetition, moves with it (the
//! correlation with a repetition's wall time was 0.87 on `pipeline_uniform`,
//! 0.7 on `live_uniform` and `remote_exec`), so end-to-end timings are
//! reported relative to it: as they would read on a machine where the
//! reference work takes [`NOMINAL`]. That took `pipeline_uniform`'s
//! run-to-run spread from 16 % to 5 %. The program never runs this code.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// What the reference work takes on the 2-core box the sizes were chosen
/// on, when nobody else is using it.
pub const NOMINAL: Duration = Duration::from_millis(25);

/// Single-threaded work of the program's kind (hashing, small allocations,
/// dependent loads over a few megabytes, a sort), the same every time.
pub fn reference_work() -> Duration {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, Vec<u64>> = HashMap::new();
    for i in 0..150_000u64 {
        map.entry(next() % 40_000).or_default().push(i);
    }
    let mut sum = 0u64;
    for _ in 0..300_000 {
        if let Some(v) = map.get(&(next() % 40_000)) {
            sum = sum.wrapping_add(v[v.len() / 2]);
        }
    }
    let mut keys: Vec<u64> = map.keys().copied().collect();
    keys.sort_unstable();
    std::hint::black_box((sum, keys));
    started.elapsed()
}

/// How much slower than nominal the machine was over a run, from the
/// reference work timed before, between and after its repetitions: the
/// faster half of those timings, like the faster half of the repetitions
/// they are held against.
pub fn slowness(reference: &[Duration]) -> f64 {
    let secs: Vec<f64> = reference.iter().map(Duration::as_secs_f64).collect();
    crate::stats::half_mean(&secs, false) / NOMINAL.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_relative_to_nominal() {
        assert_eq!(slowness(&[NOMINAL, NOMINAL]), 1.0);
        assert_eq!(
            slowness(&[NOMINAL * 3, NOMINAL * 2, NOMINAL * 9, NOMINAL * 8]),
            2.5
        );
        assert!(reference_work() > Duration::ZERO);
    }
}
