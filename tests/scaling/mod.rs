//! What the scaling tests share (`linear_in_width.rs`, `hash_spread.rs`,
//! `flat_in_chain_length.rs`): a process whose freed memory stays in the
//! process, and a best-of-n timing whose arms take turns.
//!
//! Each of these tests times the same work at two or more sizes or key
//! patterns and bounds the ratio, so that a super-linear path fails on any
//! machine. Ratios of a few milliseconds swing with the host, so every arm
//! is run once untimed and then `n` times, the arms taking turns, and the
//! best of the `n` counts.

use std::time::Duration;

/// The best of `rounds` timings of every arm, after one untimed round.
/// `time` runs one arm and returns how long its timed part took, so that
/// what it prepares and drops stays outside. The arms take turns, so that a
/// slow phase of the host falls on all of them.
pub fn best_of<A: Copy, const N: usize>(
    rounds: usize,
    arms: [A; N],
    mut time: impl FnMut(A) -> Duration,
) -> [Duration; N] {
    let mut best = [Duration::MAX; N];
    for round in 0..=rounds {
        for (arm, best) in arms.iter().zip(&mut best) {
            let elapsed = time(*arm);
            if round > 0 {
                *best = (*best).min(elapsed);
            }
        }
    }
    best
}

/// Keeps freed memory in the process. glibc hands a large free block back
/// to the kernel, and maps it afresh at a page fault per 4 KiB when it is
/// next asked for; what counts as large moves with the blocks freed before.
/// One arm would then be timed with its page faults and another without
/// them. With both thresholds pinned, neither is.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets two of glibc's tuning parameters, before
    // the test has allocated anything it will time.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}
