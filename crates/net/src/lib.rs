//! # mtc-net
//!
//! The remote system-under-test layer: any fleet engine
//! ([`mtc_dbsim::BackendSpec`]) served over TCP, and a client-side
//! [`mtc_dbsim::DbBackend`] that lets every driver, the conformance suite,
//! the experiment matrix and the bench gate talk to it as if it were
//! in-process — with real network latency, reordering and connection loss
//! in the path.
//!
//! The paper's end-to-end claim is black-box checking of a *networked*
//! database; until this crate, every backend lived in the checker's own
//! address space. The wire format is deliberately not new: each message is
//! one CRC-framed [`mtc_store::binval`] record, the exact encoding the
//! durable history log already uses, so corrupt or truncated traffic is
//! rejected by the same code paths recovery trusts (see [`proto`]).
//!
//! * [`proto`] — envelopes, request/reply enums, framed send/recv and the
//!   receive buffer of a pipelined connection;
//! * [`server`] — [`serve`], the accept loop and the burst-answering
//!   connection loop both server roles run, [`NetServer`] in-process
//!   harness, and the `mtc_net_server` binary's engine table;
//! * [`client`] — [`NetBackend`]/[`NetTxn`] with connection pooling,
//!   requests sent ahead (`begin` and writes ride with the next read or
//!   commit, announced reads with the first of them: a mini-transaction is
//!   one round trip per phase, a read-only one a single frame, and `Ok` from
//!   a write means *accepted, applied no later than the transaction's next
//!   reply-bearing call* — the contract is on [`NetTxn`]),
//!   per-op timeouts and typed I/O failure mapping
//!   ([`AbortReason::ConnectionLost`] before commit,
//!   [`AbortReason::CommitStatusUnknown`] after — see
//!   `AbortReason::outcome_known` for why the distinction matters to the
//!   recorded histories).
//!
//! [`AbortReason::ConnectionLost`]: mtc_dbsim::AbortReason::ConnectionLost
//! [`AbortReason::CommitStatusUnknown`]: mtc_dbsim::AbortReason::CommitStatusUnknown

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{NetBackend, NetOptions, NetTxn};
pub use proto::TenantStatus;
pub use server::{serve, spec_for_label, NetServer};

#[cfg(test)]
mod tests;
