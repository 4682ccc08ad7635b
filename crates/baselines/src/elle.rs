//! An Elle-style checker (list-append and read-write-register workloads).
//!
//! Elle's key idea is to choose workloads whose reads *reveal* the version
//! order. In the **list-append** workload every object is a list and every
//! write appends a unique element; reading a list of `n` elements therefore
//! exposes the relative order of the `n` appends, from which write-write,
//! write-read and read-write dependencies are recovered directly and cycles
//! indicate isolation violations. The **read-write-register** workload has no
//! such structure, so dependency inference degenerates to the generalized
//! polygraph search also used by Cobra/PolySI.

use crate::cobra::BaselineOutcome;
use crate::{cobra, polysi};
use mtc_history::{DiGraph, History, Key, SessionId, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One operation of a list-append transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ListOp {
    /// Append `element` to the list at `key`.
    Append {
        /// Target list.
        key: Key,
        /// The (globally unique) element appended.
        element: Value,
    },
    /// Read the whole list at `key`, observing `elements`.
    Read {
        /// Target list.
        key: Key,
        /// The elements observed, in list order.
        elements: Vec<Value>,
    },
}

impl ListOp {
    /// The key touched.
    pub fn key(&self) -> Key {
        match self {
            ListOp::Append { key, .. } | ListOp::Read { key, .. } => *key,
        }
    }
}

/// A committed list-append transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListTxn {
    /// Issuing session.
    pub session: SessionId,
    /// Operations in program order.
    pub ops: Vec<ListOp>,
}

/// A history of committed list-append transactions.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ListHistory {
    /// Committed transactions, in collection order.
    pub txns: Vec<ListTxn>,
}

impl ListHistory {
    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True iff there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }
}

/// The anomalies the list-append checker can report.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElleAnomaly {
    /// Two reads observed incompatible list prefixes (neither is a prefix of
    /// the other) — the version order is forked.
    IncompatibleOrder {
        /// Key concerned.
        key: Key,
    },
    /// An element was observed that no transaction appended.
    PhantomElement {
        /// Key concerned.
        key: Key,
        /// The unknown element.
        element: Value,
    },
    /// The dependency graph derived from the reads contains a cycle
    /// forbidden by the target isolation level.
    Cycle {
        /// The transactions (indices into the history) on the cycle.
        txns: Vec<usize>,
    },
}

/// Result of an Elle-style list-append check.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElleOutcome {
    /// True iff no anomaly was found.
    pub satisfied: bool,
    /// The anomalies found (empty iff `satisfied`).
    pub anomalies: Vec<ElleAnomaly>,
}

/// Which level the list-append checker enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElleLevel {
    /// Serializability: any dependency cycle is a violation.
    Serializability,
    /// Snapshot isolation: only cycles in `(SO ∪ WR ∪ WW) ; RW?` count.
    SnapshotIsolation,
}

/// Checks a list-append history against the given isolation level.
pub fn elle_check_list_append(history: &ListHistory, level: ElleLevel) -> ElleOutcome {
    let n = history.txns.len();
    let mut anomalies = Vec::new();

    // ── Infer the per-key version order from the longest observed read and
    //    from the appends themselves. ─────────────────────────────────────────
    // For each key: order of elements = the longest read list (all other reads
    // must be prefixes of it), extended by appends not yet observed.
    let mut appender: HashMap<(Key, Value), usize> = HashMap::new();
    for (i, t) in history.txns.iter().enumerate() {
        for op in &t.ops {
            if let ListOp::Append { key, element } = op {
                appender.insert((*key, *element), i);
            }
        }
    }

    let mut longest_read: HashMap<Key, Vec<Value>> = HashMap::new();
    for t in &history.txns {
        for op in &t.ops {
            if let ListOp::Read { key, elements } = op {
                let entry = longest_read.entry(*key).or_default();
                if elements.len() > entry.len() {
                    // The previous longest must be a prefix of the new one.
                    if !is_prefix(entry, elements) {
                        anomalies.push(ElleAnomaly::IncompatibleOrder { key: *key });
                    }
                    *entry = elements.clone();
                } else if !is_prefix(elements, entry) {
                    anomalies.push(ElleAnomaly::IncompatibleOrder { key: *key });
                }
            }
        }
    }

    for (key, elements) in &longest_read {
        for e in elements {
            if !appender.contains_key(&(*key, *e)) {
                anomalies.push(ElleAnomaly::PhantomElement {
                    key: *key,
                    element: *e,
                });
            }
        }
    }
    if !anomalies.is_empty() {
        return ElleOutcome {
            satisfied: false,
            anomalies,
        };
    }

    // ── Build dependency edges. ──────────────────────────────────────────────
    // Version order per key: the longest read, then any unobserved appends in
    // transaction order (their relative order is unknown but irrelevant for
    // the reads, which never saw them).
    let mut so_wr_ww: Vec<(usize, usize)> = Vec::new();
    let mut rw: Vec<(usize, usize)> = Vec::new();

    // Session order.
    let mut last_of_session: HashMap<SessionId, usize> = HashMap::new();
    for (i, t) in history.txns.iter().enumerate() {
        if let Some(&prev) = last_of_session.get(&t.session) {
            so_wr_ww.push((prev, i));
        }
        last_of_session.insert(t.session, i);
    }

    let mut keys: Vec<Key> = longest_read.keys().copied().collect();
    for k in appender.keys().map(|(k, _)| *k) {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }

    for key in keys {
        let order: Vec<Value> = longest_read.get(&key).cloned().unwrap_or_default();
        let order_writers: Vec<usize> = order
            .iter()
            .filter_map(|e| appender.get(&(key, *e)).copied())
            .collect();
        // WW edges along the observed order (collapsing consecutive appends
        // by the same transaction).
        for w in order_writers.windows(2) {
            if w[0] != w[1] {
                so_wr_ww.push((w[0], w[1]));
            }
        }
        // WR and RW edges from every read of this key.
        for (i, t) in history.txns.iter().enumerate() {
            for op in &t.ops {
                let ListOp::Read { key: k, elements } = op else {
                    continue;
                };
                if *k != key {
                    continue;
                }
                match elements.last() {
                    Some(last) => {
                        let writer = appender[&(key, *last)];
                        if writer != i {
                            so_wr_ww.push((writer, i));
                        }
                        // Anti-dependency: the reader precedes the appender of
                        // the *next* element in the version order.
                        if let Some(pos) = order.iter().position(|e| e == last) {
                            if let Some(next) = order.get(pos + 1) {
                                let overwriter = appender[&(key, *next)];
                                if overwriter != i {
                                    rw.push((i, overwriter));
                                }
                            }
                        }
                    }
                    None => {
                        // Read of the empty list: anti-depends on the first
                        // appender in the version order.
                        if let Some(first) = order.first() {
                            let overwriter = appender[&(key, *first)];
                            if overwriter != i {
                                rw.push((i, overwriter));
                            }
                        }
                    }
                }
            }
        }
    }

    // ── Cycle detection. ─────────────────────────────────────────────────────
    let cyclic = match level {
        ElleLevel::Serializability => {
            DiGraph::from_edges(n, so_wr_ww.iter().chain(rw.iter()).copied()).find_cycle()
        }
        ElleLevel::SnapshotIsolation => {
            let mut rw_out: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &(a, b) in &rw {
                rw_out[a].push(b);
            }
            let mut composed: Vec<(usize, usize)> = Vec::new();
            for &(a, b) in &so_wr_ww {
                composed.push((a, b));
                composed.extend(rw_out[b].iter().map(|&c| (a, c)));
            }
            DiGraph::from_edges(n, composed.iter().copied()).find_cycle()
        }
    };
    if let Some(cycle) = cyclic {
        anomalies.push(ElleAnomaly::Cycle { txns: cycle });
    }
    ElleOutcome {
        satisfied: anomalies.is_empty(),
        anomalies,
    }
}

fn is_prefix(prefix: &[Value], list: &[Value]) -> bool {
    prefix.len() <= list.len() && prefix.iter().zip(list.iter()).all(|(a, b)| a == b)
}

/// Checks a read-write-register history (blind writes allowed) against
/// serializability, Elle-style: dependency inference is weak, so the check
/// falls back to the generalized polygraph search.
pub fn elle_check_rw_register(history: &History, level: ElleLevel) -> BaselineOutcome {
    match level {
        ElleLevel::Serializability => cobra::cobra_check_ser(history),
        ElleLevel::SnapshotIsolation => polysi::polysi_check_si(history),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(session: u32, ops: Vec<ListOp>) -> ListTxn {
        ListTxn {
            session: SessionId(session),
            ops,
        }
    }

    fn append(key: u64, element: u64) -> ListOp {
        ListOp::Append {
            key: Key(key),
            element: Value(element),
        }
    }

    fn read(key: u64, elements: &[u64]) -> ListOp {
        ListOp::Read {
            key: Key(key),
            elements: elements.iter().map(|&e| Value(e)).collect(),
        }
    }

    #[test]
    fn serial_appends_are_accepted() {
        let h = ListHistory {
            txns: vec![
                txn(0, vec![append(0, 1)]),
                txn(1, vec![append(0, 2), read(0, &[1, 2])]),
                txn(0, vec![read(0, &[1, 2])]),
            ],
        };
        assert!(elle_check_list_append(&h, ElleLevel::Serializability).satisfied);
        assert!(elle_check_list_append(&h, ElleLevel::SnapshotIsolation).satisfied);
    }

    #[test]
    fn incompatible_orders_are_detected() {
        let h = ListHistory {
            txns: vec![
                txn(0, vec![append(0, 1)]),
                txn(1, vec![append(0, 2)]),
                txn(2, vec![read(0, &[1, 2])]),
                txn(3, vec![read(0, &[2, 1])]),
            ],
        };
        let out = elle_check_list_append(&h, ElleLevel::Serializability);
        assert!(!out.satisfied);
        assert!(out
            .anomalies
            .iter()
            .any(|a| matches!(a, ElleAnomaly::IncompatibleOrder { .. })));
    }

    #[test]
    fn phantom_elements_are_detected() {
        let h = ListHistory {
            txns: vec![txn(0, vec![read(0, &[99])])],
        };
        let out = elle_check_list_append(&h, ElleLevel::Serializability);
        assert!(!out.satisfied);
        assert!(out
            .anomalies
            .iter()
            .any(|a| matches!(a, ElleAnomaly::PhantomElement { .. })));
    }

    #[test]
    fn lost_update_style_fork_is_a_cycle() {
        // T1 and T2 both read the empty list and append; a later read sees
        // both elements. The two appends anti-depend on each other through
        // the empty reads → G1c-style cycle under SER.
        let h = ListHistory {
            txns: vec![
                txn(0, vec![read(0, &[]), append(0, 1)]),
                txn(1, vec![read(0, &[]), append(0, 2)]),
                txn(2, vec![read(0, &[1, 2])]),
            ],
        };
        let out = elle_check_list_append(&h, ElleLevel::Serializability);
        assert!(!out.satisfied);
        assert!(out
            .anomalies
            .iter()
            .any(|a| matches!(a, ElleAnomaly::Cycle { .. })));
    }

    #[test]
    fn write_skew_on_lists_passes_si_but_fails_ser() {
        // T1 reads list y (empty) and appends to x; T2 reads list x (empty)
        // and appends to y.
        let h = ListHistory {
            txns: vec![
                txn(0, vec![read(1, &[]), append(0, 1)]),
                txn(1, vec![read(0, &[]), append(1, 2)]),
                txn(2, vec![read(0, &[1]), read(1, &[2])]),
            ],
        };
        assert!(!elle_check_list_append(&h, ElleLevel::Serializability).satisfied);
        assert!(elle_check_list_append(&h, ElleLevel::SnapshotIsolation).satisfied);
    }

    #[test]
    fn empty_history_is_fine() {
        let h = ListHistory::default();
        assert!(h.is_empty());
        assert!(elle_check_list_append(&h, ElleLevel::Serializability).satisfied);
    }

    #[test]
    fn rw_register_mode_delegates_to_the_polygraph_checkers() {
        use mtc_history::anomalies;
        let h = anomalies::write_skew();
        assert!(!elle_check_rw_register(&h, ElleLevel::Serializability).satisfied);
        assert!(elle_check_rw_register(&h, ElleLevel::SnapshotIsolation).satisfied);
    }
}
