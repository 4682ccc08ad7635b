//! # mtc-history
//!
//! History model substrate for the MTC isolation-checking tool-chain.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: keys and values, read/write operations, transactions with a
//! program order, sessions, *histories* (the client-visible record of an
//! execution, Definition 2 of the paper), and *dependency graphs*
//! (Definition 3) together with generic digraph utilities (cycle detection,
//! strongly connected components, topological order).
//!
//! It also ships the complete catalogue of the 14 isolation anomalies of
//! Figure 5 / Table I of the paper (module [`anomalies`]), expressed as
//! mini-transaction histories, and the *intra-transactional* consistency
//! checks (the `INT` axiom and the anomalies of Figures 5c–5g) in module
//! [`intra`].
//!
//! The types here are deliberately database-agnostic: a history can come from
//! the in-process simulator of `mtc-dbsim`, from a synthetic generator, or be
//! deserialized from a JSON-lines file produced by an external client
//! (module [`serde_io`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomalies;
pub mod depgraph;
pub mod fasthash;
pub mod graph;
pub mod history;
pub mod incremental;
pub mod inline_seq;
pub mod intra;
pub mod op;
pub mod serde_io;
pub mod session;
pub mod synthetic;
pub mod timechain;
pub mod txn;
pub mod value;
pub mod write_index;

pub use anomalies::{AnomalyKind, ExpectedVerdicts};
pub use depgraph::{DependencyGraph, Edge, EdgeKind};
pub use fasthash::{FastHashMap, FastHashSet};
pub use graph::{find_cycle_in, DiGraph, Successors};
pub use history::{History, HistoryBuilder};
pub use incremental::{EdgeTag, IncrementalTopo, OrderStats, MAX_NODES};
pub use inline_seq::InlineSeq;
pub use intra::{
    check_int, check_int_history, find_intra_anomalies, scan_reads, IntraAnomaly, IntraViolation,
    ReadScan, ResolvedRead,
};
pub use op::{LwtKind, Op, TimedOp};
pub use session::SessionId;
pub use timechain::{Anchor, TimeChain};
pub use txn::{Transaction, TxnId, TxnStatus};
pub use value::{Key, Value, ValueAllocator, INIT_VALUE};
pub use write_index::{DuplicateWrite, WriteIndex, Writer};

/// SplitMix64: the deterministic stream the seeded tests of this crate draw
/// from.
#[cfg(test)]
pub(crate) fn split_mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
