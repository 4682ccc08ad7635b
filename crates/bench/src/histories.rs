//! Synthetic history generators shared by the Criterion benches and the CI
//! perf-regression gate, under the names the benches use. The definitions
//! live in `mtc_history::synthetic` (one canonical shape).

use mtc_history::History;

/// Builds a valid (serializable and strictly serializable) mini-transaction
/// history of `n` transactions over `keys` objects issued by `sessions`
/// sessions: each transaction reads the current value of one key and writes
/// the next value, with strictly increasing begin/end instants.
pub fn serial_mt_history(n: u64, keys: u64, sessions: u32) -> History {
    mtc_history::synthetic::serial_rmw_history(n, keys, sessions)
}

/// Builds a valid history where pairs of transactions touch two keys each
/// (the write-skew-shaped MT flavour), still serial.
pub fn two_key_mt_history(n: u64, keys: u64, sessions: u32) -> History {
    mtc_history::synthetic::two_key_rmw_history(n, keys, sessions)
}
