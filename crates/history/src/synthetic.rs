//! Synthetic serial mini-transaction histories.
//!
//! One canonical definition of the serial read-modify-write workloads used
//! by the Criterion benches and the CI perf-regression gate — so both always
//! measure the same history shape and cannot drift apart.

use crate::history::{History, HistoryBuilder};
use crate::op::Op;

/// A valid (serializable and strictly serializable) history of `n`
/// transactions over `keys` objects issued round-robin by `sessions`
/// sessions: each transaction reads the current value of one key and
/// installs the next value, with strictly increasing begin/commit instants
/// (so the same history serves the SSER series).
#[allow(clippy::explicit_counter_loop)] // `value` is state, not a counter
pub fn serial_rmw_history(n: u64, keys: u64, sessions: u32) -> History {
    let keys = keys.max(1);
    let sessions = sessions.max(1);
    let mut builder = HistoryBuilder::new().with_init(keys);
    let mut last = vec![0u64; keys as usize];
    let mut value = 1u64;
    for i in 0..n {
        let key = i % keys;
        let session = (i % sessions as u64) as u32;
        let ops = vec![Op::read(key, last[key as usize]), Op::write(key, value)];
        builder.committed_timed(session, ops, 10 * i + 1, 10 * i + 5);
        last[key as usize] = value;
        value += 1;
    }
    builder.build()
}

/// Like [`serial_rmw_history`], but every transaction touches two
/// keys — the write-skew-shaped MT flavour — while staying serial.
#[allow(clippy::explicit_counter_loop)] // `value` is state, not a counter
pub fn two_key_rmw_history(n: u64, keys: u64, sessions: u32) -> History {
    let keys = keys.max(2);
    let sessions = sessions.max(1);
    let mut builder = HistoryBuilder::new().with_init(keys);
    let mut last = vec![0u64; keys as usize];
    let mut value = 1u64;
    for i in 0..n {
        let a = i % keys;
        let b = (i + 1) % keys;
        let session = (i % sessions as u64) as u32;
        let ops = vec![
            Op::read(a, last[a as usize]),
            Op::read(b, last[b as usize]),
            Op::write(a, value),
            Op::write(b, value + 1),
        ];
        builder.committed_timed(session, ops, 10 * i + 1, 10 * i + 5);
        last[a as usize] = value;
        last[b as usize] = value + 1;
        value += 2;
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_histories_are_well_formed() {
        let timed = serial_rmw_history(50, 4, 3);
        assert_eq!(timed.len(), 51); // + ⊥T
        assert!(timed
            .txns()
            .iter()
            .filter(|t| Some(t.id) != timed.init_txn())
            .all(|t| t.begin.is_some() && t.end.is_some()));
        // Degenerate parameters are clamped rather than panicking.
        let tiny = serial_rmw_history(3, 0, 0);
        assert_eq!(tiny.len(), 4);
    }

    #[test]
    fn two_key_histories_touch_two_keys_per_txn() {
        let h = two_key_rmw_history(20, 5, 2);
        assert_eq!(h.len(), 21);
        for t in h.txns() {
            if Some(t.id) != h.init_txn() {
                assert_eq!(t.key_set().len(), 2);
            }
        }
    }
}
