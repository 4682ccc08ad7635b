//! # mtc-dbsim
//!
//! An in-process, multi-versioned, transactional key-value store used as the
//! *system under test* throughout this repository.
//!
//! The paper runs its end-to-end experiments against PostgreSQL, MongoDB,
//! MariaDB Galera, Dgraph and Cassandra. Those systems are replaced here by a
//! simulator that preserves exactly the properties the experiments measure:
//!
//! * **client-visible histories** — concurrent sessions issue transactions,
//!   read committed versions, and obtain begin/commit wall-clock timestamps;
//! * **contention behaviour** — optimistic concurrency control with
//!   first-committer-wins (snapshot isolation) or commit-time read validation
//!   (serializability), so longer transactions and more skewed key access
//!   yield higher abort rates (Figure 11);
//! * **execution cost** — a configurable per-operation latency models the
//!   cost of talking to a real database, so history-generation time grows
//!   with transaction length and abort/retry counts (Figures 10, 14, 17);
//! * **isolation bugs** — a fault-injection layer ([`faults`]) can violate
//!   the promised isolation level in the precise ways needed to reproduce the
//!   Table II anomalies (lost update, write skew, long fork, aborted read,
//!   causality violation, read uncommitted).
//!
//! The store supports registers (`u64` values) and append-only lists, the two
//! data models needed by the MT/GT and Elle-style workloads respectively.
//!
//! Since the pluggable-backend refactor the simulator is only *one* system
//! under test among several: the [`backend`] module defines the
//! [`DbBackend`]/[`DbTxn`] traits every engine implements, and [`backends`]
//! ships a pessimistic strict-2PL engine (wait-die) plus a weak MVCC engine
//! whose ReadCommitted/ReadUncommitted anomalies arise from the concurrency
//! control itself rather than from fault injection. The client side is
//! backend-generic: one per-session state machine ([`session`]) executes
//! the workload, and the [`Driver`] you pick (threaded or
//! deterministic-interleaved) only schedules its steps. Configure an
//! [`ExecutionOptions`] builder — optionally attaching a streaming
//! [`LiveVerifier`] — and call [`ExecutionOptions::run`].
//!
//! The simulator stands for the database under test, so it holds no
//! write-ahead log of the checker's: a host that makes a live-verified
//! stream durable keeps its own store beside the verifier and attaches
//! itself as the [`Observer`] (`record_streaming` in `mtc-runner`, the
//! daemon's tenants in `mtc-service`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod backends;
pub mod client;
pub mod config;
pub mod db;
pub mod driver;
pub mod faults;
pub mod live;
pub mod session;
pub mod store;
pub mod txn;

pub use backend::{DbBackend, DbTxn};
pub use backends::{BackendSpec, TwoPlDatabase, WeakLevel, WeakMvccDatabase};
pub use client::{ClientOptions, ExecutionReport};
pub use config::{DbConfig, IsolationMode};
pub use db::Database;
pub use driver::{run_sessions, Driver, ExecutionOptions};
pub use faults::{FaultKind, FaultSpec};
pub use live::{IngestEvent, LiveOutcome, LiveVerifier, LiveVerifierBuilder, LiveViolation};
pub use session::{IssueOp, Observer, Session, TxnRecord};
pub use store::StoredValue;
pub use txn::{AbortReason, CommitInfo, TxnHandle};
