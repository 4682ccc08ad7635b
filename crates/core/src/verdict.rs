//! Verdicts, violations and counterexamples.
//!
//! Every verifier returns a [`Verdict`]: either the history satisfies the
//! isolation level, or it does not and the verdict carries a [`Violation`] —
//! a concrete, minimal witness in the spirit of the counterexamples MTC
//! reports in Figures 12 and 18 of the paper.

use mtc_history::{Edge, IntraViolation, Key, TxnId, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Result of checking a history against an isolation level.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The history satisfies the isolation level.
    Satisfied,
    /// The history violates the isolation level; the payload explains why.
    Violated(Violation),
}

impl Verdict {
    /// True iff the verdict is [`Verdict::Satisfied`].
    #[inline]
    pub fn is_satisfied(&self) -> bool {
        matches!(self, Verdict::Satisfied)
    }

    /// True iff the verdict is a violation.
    #[inline]
    pub fn is_violated(&self) -> bool {
        !self.is_satisfied()
    }

    /// The violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Verdict::Satisfied => None,
            Verdict::Violated(v) => Some(v),
        }
    }
}

/// Why a history violates an isolation level.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Violation {
    /// One or more intra-transactional / read-provenance anomalies
    /// (Figures 5a–5g) were found by the pre-scan.
    Intra(Vec<IntraViolation>),
    /// The DIVERGENCE pattern (Definition 10): `reader1` and `reader2` both
    /// read `value` of `key` from `writer` and then wrote different values.
    /// Immediately refutes snapshot isolation.
    Divergence {
        /// The object concerned.
        key: Key,
        /// The value both readers observed.
        value: Value,
        /// The transaction that installed `value` (the initial transaction
        /// when the value is the initial one).
        writer: Option<TxnId>,
        /// First diverging reader-writer.
        reader1: TxnId,
        /// Second diverging reader-writer.
        reader2: TxnId,
    },
    /// A dependency cycle. The edges form a closed walk
    /// `edges[0].from → … → edges[last].to == edges[0].from`.
    Cycle {
        /// The labelled edges of the cycle.
        edges: Vec<Edge>,
    },
    /// A violation of linearizability in a lightweight-transaction history.
    Lwt(LwtViolation),
}

/// Linearizability violations reported by `VL-LWT` (Algorithm 2).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LwtViolation {
    /// The history of this key does not contain exactly one initial
    /// insert-if-not-exists operation.
    BadInsertCount {
        /// The key concerned.
        key: Key,
        /// How many inserts were found.
        count: usize,
    },
    /// The operations cannot be arranged into a read-from chain: no (or more
    /// than one) remaining operation expects `value`.
    BrokenChain {
        /// The key concerned.
        key: Key,
        /// The chain value for which no unique successor exists.
        value: Value,
        /// Number of candidate successors found (0 or ≥ 2).
        candidates: usize,
    },
    /// The chain violates real time: `op` starts after a later chain element
    /// already finished.
    RealTime {
        /// The key concerned.
        key: Key,
        /// Index (in chain order) of the offending operation.
        chain_index: usize,
        /// Start instant of the offending operation.
        start: u64,
        /// The minimum finish instant among later chain elements.
        min_later_finish: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Intra(vs) => {
                writeln!(f, "intra-transactional anomalies:")?;
                for v in vs {
                    writeln!(f, "  {v}")?;
                }
                Ok(())
            }
            Violation::Divergence {
                key,
                value,
                writer,
                reader1,
                reader2,
            } => {
                write!(
                    f,
                    "DIVERGENCE on key {key}: {reader1} and {reader2} both read value {value}"
                )?;
                if let Some(w) = writer {
                    write!(f, " (written by {w})")?;
                }
                write!(f, " and then wrote different values")
            }
            Violation::Cycle { edges } => {
                write!(f, "dependency cycle: ")?;
                for (i, e) in edges.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{} -{}->", e.from, e.kind)?;
                }
                if let Some(first) = edges.first() {
                    write!(f, " {}", first.from)?;
                }
                Ok(())
            }
            Violation::Lwt(v) => write!(f, "{v}"),
        }
    }
}

impl fmt::Display for LwtViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LwtViolation::BadInsertCount { key, count } => {
                write!(f, "key {key}: expected exactly one insert, found {count}")
            }
            LwtViolation::BrokenChain {
                key,
                value,
                candidates,
            } => write!(
                f,
                "key {key}: cannot extend the read-from chain at value {value} ({candidates} candidates)"
            ),
            LwtViolation::RealTime {
                key,
                chain_index,
                start,
                min_later_finish,
            } => write!(
                f,
                "key {key}: chain element #{chain_index} starts at {start}, after a later element finished at {min_later_finish}"
            ),
        }
    }
}

/// Errors that prevent a verifier from producing a verdict at all (the input
/// is outside the algorithm's domain, as opposed to violating the level).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckError {
    /// The history is not a mini-transaction history (Definition 9).
    NotMiniTransaction(crate::mini::MtViolation),
    /// Two committed transactions installed the same value for the same key,
    /// so the write-read relation is ambiguous. Verification without unique
    /// values is NP-hard (Appendix C).
    NonUniqueValues {
        /// Offending key.
        key: Key,
        /// The duplicated value.
        value: Value,
    },
    /// A committed read returned a value for which no committed writer exists
    /// and which is not the initial value — the dependency graph cannot be
    /// built. (The pre-scan normally reports this as a ThinAirRead first.)
    UnreadableValue {
        /// The reading transaction.
        txn: TxnId,
        /// Offending key.
        key: Key,
        /// The value with no writer.
        value: Value,
    },
    /// Strict serializability was requested but some committed transaction
    /// lacks begin/end timestamps.
    MissingTimestamps {
        /// The transaction without timing information.
        txn: TxnId,
    },
    /// A lightweight-transaction history contained an operation kind the
    /// checker does not support.
    UnsupportedLwtOp {
        /// The key of the offending operation.
        key: Key,
    },
    /// The reference `BUILDDEPENDENCY` (with the `WW` transitive closure)
    /// would build more edges than its budget for a history of this size
    /// ([`crate::build::reference_edge_budget`]); the optimized build has
    /// no such limit.
    ReferenceTooLarge {
        /// Edges counted when the build stopped: past the budget, and at
        /// most the whole graph's.
        edges: usize,
        /// The budget.
        budget: usize,
    },
    /// The streaming checker's maintained order holds as many nodes as a
    /// row entry can name ([`mtc_history::MAX_NODES`]) and the next
    /// transaction needs more: an un-collected stream that long wants a
    /// [`crate::GcPolicy`].
    OrderFull {
        /// Nodes the order holds.
        nodes: usize,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::NotMiniTransaction(v) => write!(f, "not a mini-transaction history: {v}"),
            CheckError::NonUniqueValues { key, value } => write!(
                f,
                "value {value} written more than once to key {key}; unique values are required"
            ),
            CheckError::UnreadableValue { txn, key, value } => write!(
                f,
                "{txn} reads value {value} of key {key}, which no committed transaction wrote"
            ),
            CheckError::MissingTimestamps { txn } => {
                write!(f, "{txn} lacks begin/end timestamps required for SSER")
            }
            CheckError::ReferenceTooLarge { edges, budget } => write!(
                f,
                "the reference dependency graph has more than {budget} edges (stopped at \
                 {edges}); the WW closure is too large for this history"
            ),
            CheckError::OrderFull { nodes } => write!(
                f,
                "the streaming order holds {nodes} nodes, the most it can name; \
                 stream this long with garbage collection"
            ),
            CheckError::UnsupportedLwtOp { key } => {
                write!(
                    f,
                    "unsupported lightweight-transaction operation on key {key}"
                )
            }
        }
    }
}

impl std::error::Error for CheckError {}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_history::EdgeKind;

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Satisfied.is_satisfied());
        let v = Verdict::Violated(Violation::Cycle { edges: vec![] });
        assert!(v.is_violated());
        assert!(v.violation().is_some());
        assert!(Verdict::Satisfied.violation().is_none());
    }

    #[test]
    fn cycle_display_matches_paper_style() {
        let edges = vec![
            Edge {
                from: TxnId(1),
                to: TxnId(2),
                kind: EdgeKind::Wr(Key(0)),
            },
            Edge {
                from: TxnId(2),
                to: TxnId(1),
                kind: EdgeKind::Rw(Key(0)),
            },
        ];
        let s = Violation::Cycle { edges }.to_string();
        assert!(s.contains("T1 -WR(0)-> T2 -RW(0)-> T1"), "{s}");
    }

    #[test]
    fn divergence_display() {
        let v = Violation::Divergence {
            key: Key(2),
            value: Value(7),
            writer: Some(TxnId(9)),
            reader1: TxnId(3),
            reader2: TxnId(4),
        };
        let s = v.to_string();
        assert!(s.contains("DIVERGENCE"));
        assert!(s.contains("T3"));
        assert!(s.contains("T9"));
    }

    #[test]
    fn error_display() {
        let e = CheckError::NonUniqueValues {
            key: Key(1),
            value: Value(5),
        };
        assert!(e.to_string().contains("unique"));
    }
}
