//! A definition-level, exponential reference checker.
//!
//! The verdicts of `mtc-core` rely on the RMW pattern making the dependency
//! graph unique. This module ignores that insight entirely and instead
//! enumerates *every* possible write-write (version) order per object,
//! builds the corresponding dependency graph, and applies Definitions 4–6 of
//! the paper literally. It is exponential in the number of writers per key
//! and therefore usable only on tiny histories — which is exactly its job: it
//! serves as ground truth in differential and property-based tests.

use mtc_history::{find_intra_anomalies, DiGraph, History, Key, TxnId, INIT_VALUE};
use std::collections::HashMap;

/// Upper bound on the number of WW-order combinations explored.
pub const COMBINATION_BUDGET: usize = 2_000_000;

/// Which definition to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Sser,
    Ser,
    Si,
}

/// Ground-truth strict serializability (Definition 4).
pub fn brute_check_sser(history: &History) -> bool {
    brute_check(history, Level::Sser)
}

/// Ground-truth serializability (Definition 5).
pub fn brute_check_ser(history: &History) -> bool {
    brute_check(history, Level::Ser)
}

/// Ground-truth snapshot isolation (Definition 6).
pub fn brute_check_si(history: &History) -> bool {
    brute_check(history, Level::Si)
}

fn brute_check(history: &History, level: Level) -> bool {
    if !find_intra_anomalies(history).is_empty() {
        return false;
    }

    let committed: Vec<TxnId> = history.committed_ids().collect();
    let n = history.len();
    let write_index = history.write_index();

    // Fixed edges: SO (and RT for SSER), WR.
    let mut base: Vec<(usize, usize)> = Vec::new();
    for (a, b) in history.session_order_edges() {
        base.push((a.index(), b.index()));
    }
    if level == Level::Sser {
        for &a in &committed {
            for &b in &committed {
                if a != b && history.txn(a).precedes_in_real_time(history.txn(b)) {
                    base.push((a.index(), b.index()));
                }
            }
        }
    }

    // WR edges and per-key readers of each version.
    let mut wr: Vec<(usize, usize)> = Vec::new();
    let mut readers_of: HashMap<(Key, TxnId), Vec<TxnId>> = HashMap::new();
    for &tid in &committed {
        let txn = history.txn(tid);
        if Some(tid) == history.init_txn() {
            continue;
        }
        for key in txn.key_set() {
            let Some(value) = txn.external_read(key) else {
                continue;
            };
            let writer = match write_index.get(&(key, value)) {
                Some(ws) => ws[0],
                None if value == INIT_VALUE && !history.has_init() => continue,
                None => return false, // unreadable value
            };
            if writer == tid {
                continue;
            }
            wr.push((writer.index(), tid.index()));
            readers_of.entry((key, writer)).or_default().push(tid);
        }
    }

    // Writers per key.
    let keys = history.keys();
    let writer_sets: Vec<(Key, Vec<TxnId>)> =
        keys.iter().map(|&k| (k, history.writers_of(k))).collect();

    // Enumerate the cartesian product of per-key writer permutations.
    let mut budget = COMBINATION_BUDGET;
    enumerate(
        &writer_sets,
        0,
        &mut Vec::new(),
        &mut budget,
        &mut |orders| {
            // Build WW and RW edges for this combination.
            let mut ww: Vec<(usize, usize)> = Vec::new();
            let mut rw: Vec<(usize, usize)> = Vec::new();
            for (key, order) in orders {
                for i in 0..order.len() {
                    for j in i + 1..order.len() {
                        let (a, b) = (order[i], order[j]);
                        ww.push((a.index(), b.index()));
                        // RW: readers of a's version anti-depend on b.
                        if let Some(readers) = readers_of.get(&(*key, a)) {
                            for &r in readers {
                                if r != b {
                                    rw.push((r.index(), b.index()));
                                }
                            }
                        }
                    }
                }
            }
            match level {
                Level::Ser | Level::Sser => {
                    let all = base.iter().chain(&wr).chain(&ww).chain(&rw);
                    DiGraph::from_edges(n, all.copied()).is_acyclic()
                }
                Level::Si => {
                    let mut rw_out: Vec<Vec<usize>> = vec![Vec::new(); n];
                    for &(a, b) in &rw {
                        rw_out[a].push(b);
                    }
                    let mut composed: Vec<(usize, usize)> = Vec::new();
                    let mut self_loop = false;
                    for &(a, b) in base.iter().chain(wr.iter()).chain(ww.iter()) {
                        composed.push((a, b));
                        for &c in &rw_out[b] {
                            if a == c {
                                self_loop = true;
                            } else {
                                composed.push((a, c));
                            }
                        }
                    }
                    !self_loop && DiGraph::from_edges(n, composed.iter().copied()).is_acyclic()
                }
            }
        },
    )
}

/// Recursively enumerates one permutation per key and calls `check` on each
/// complete combination; returns true as soon as `check` succeeds.
fn enumerate(
    writer_sets: &[(Key, Vec<TxnId>)],
    index: usize,
    chosen: &mut Vec<(Key, Vec<TxnId>)>,
    budget: &mut usize,
    check: &mut impl FnMut(&[(Key, Vec<TxnId>)]) -> bool,
) -> bool {
    if *budget == 0 {
        return false;
    }
    if index == writer_sets.len() {
        *budget -= 1;
        return check(chosen);
    }
    let (key, writers) = &writer_sets[index];
    let mut perm = writers.clone();
    permute(&mut perm, 0, &mut |p| {
        chosen.push((*key, p.to_vec()));
        let ok = enumerate(writer_sets, index + 1, chosen, budget, check);
        chosen.pop();
        ok
    })
}

/// Heap-style permutation enumeration with early exit.
fn permute(items: &mut [TxnId], k: usize, f: &mut impl FnMut(&[TxnId]) -> bool) -> bool {
    if k == items.len() {
        return f(items);
    }
    for i in k..items.len() {
        items.swap(k, i);
        if permute(items, k + 1, f) {
            items.swap(k, i);
            return true;
        }
        items.swap(k, i);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_core::{check_ser, check_si, check_sser};
    use mtc_history::anomalies;
    use mtc_history::{HistoryBuilder, Op};

    #[test]
    fn serial_history_satisfies_everything() {
        let mut b = HistoryBuilder::new().with_init(2);
        b.committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 1, 2);
        b.committed_timed(1, vec![Op::read(0u64, 1u64), Op::write(1u64, 2u64)], 3, 4);
        let h = b.build();
        assert!(brute_check_ser(&h));
        assert!(brute_check_si(&h));
        assert!(brute_check_sser(&h));
    }

    #[test]
    fn agrees_with_mtc_on_the_anomaly_catalogue() {
        for (kind, h) in anomalies::catalogue() {
            assert_eq!(
                brute_check_ser(&h),
                check_ser(&h).unwrap().is_satisfied(),
                "SER disagreement on {kind}"
            );
            assert_eq!(
                brute_check_si(&h),
                check_si(&h).unwrap().is_satisfied(),
                "SI disagreement on {kind}"
            );
            assert_eq!(
                brute_check_sser(&h),
                check_sser(&h).unwrap().is_satisfied(),
                "SSER disagreement on {kind}"
            );
        }
    }

    #[test]
    fn real_time_inversion_fails_only_sser() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 1, 2);
        b.committed_timed(1, vec![Op::read(0u64, 0u64)], 5, 6);
        let h = b.build();
        assert!(brute_check_ser(&h));
        assert!(brute_check_si(&h));
        assert!(!brute_check_sser(&h));
    }

    #[test]
    fn blind_writes_are_supported() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::write(0u64, 2u64)]);
        b.committed(2, vec![Op::read(0u64, 1u64)]);
        let h = b.build();
        assert!(brute_check_ser(&h));
    }
}
