//! # mtc-core
//!
//! The paper's primary contribution: efficient verification of strong
//! isolation levels over *mini-transaction* (MT) histories.
//!
//! A mini-transaction (Definition 8) contains one or two reads and at most
//! two writes, and every write is preceded by a read of the same object (the
//! read-modify-write pattern). Together with the unique-value convention this
//! makes the dependency graph of a history (nearly) unique, so:
//!
//! * [`check_ser`] decides serializability in `O(n)`,
//! * [`check_si`] decides snapshot isolation in `O(n)` (with an early exit on
//!   the DIVERGENCE pattern),
//! * [`check_sser`] decides strict serializability in `O(n²)` (reference) or
//!   `O(n log n)` using a time-chain encoding of the real-time order,
//! * [`lwt::check_linearizability`] decides linearizability of
//!   lightweight-transaction histories in `O(n)` (Algorithm 2, `VL-LWT`).
//!
//! All verifiers are *sound and complete* for MT histories: they report a
//! violation if and only if the history violates the corresponding level, and
//! on violation they return a human-readable counterexample in the style of
//! Figures 12 and 18 of the paper.
//!
//! The [`npc`] module contains the Appendix-C artefact: the polynomial
//! reduction from CNF satisfiability to SI-checking of MT histories *without*
//! unique values, demonstrating why the unique-value convention is essential
//! for tractability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod check;
pub mod divergence;
pub mod incremental;
pub mod lwt;
pub mod mini;
pub mod npc;
pub mod reference;
pub mod verdict;

pub use build::{build_dependency, build_dependency_reference, reference_edge_budget, BuildError};
pub use check::{
    check, check_batch, check_ser, check_si, check_sser, check_sser_naive, BatchCheck, Checked,
    IsolationLevel,
};
pub use divergence::{find_divergence, Divergence};
pub use incremental::{
    check_streaming, CheckerSnapshot, GcPolicy, IncrementalChecker, OrderEdge, StreamStatus,
    SNAPSHOT_VERSION,
};
pub use incremental::{tune, ShardedIncrementalChecker};
pub use lwt::{check_linearizability, check_linearizability_single_key, LwtError};
pub use mini::{validate_history, validate_transaction, MtViolation};
pub use reference::check_batch_reference;
pub use verdict::{CheckError, Verdict, Violation};
