//! # mtc-service
//!
//! Verification as a service: a long-lived daemon that keeps one GC'd
//! streaming checker per *named tenant*, fed over the `mtc-net` framed-TCP
//! protocol's service role (`OpenTenant` / `Ingest` / `TenantStatus` /
//! `CloseTenant`, protocol 4).
//!
//! The paper's end-to-end loop — execute, collect, verify — assumes the
//! checker lives inside the test harness. This crate moves it behind a
//! socket so many independent systems under test (the *tenants*) stream
//! their finished transactions to one resident verifier fleet:
//!
//! * **per-tenant admission control** — each tenant has a bounded ingest
//!   queue; a batch that would overflow is refused whole with a
//!   `Backpressure` reply (clients back off and retry), so the daemon
//!   sheds load by refusing, never by dropping: every *admitted* event is
//!   verified;
//! * **durability** — every tenant stream is write-ahead logged to an
//!   [`mtc_store`] WAL under `root/<tenant>/` with periodic checker
//!   checkpoints; a SIGKILL'd daemon resumes every tenant from its newest
//!   checkpoint plus tail replay, to verdicts identical to never having
//!   crashed;
//! * **multiplexed verification** — connection handlers only enqueue;
//!   a fixed set of drain threads sweeps tenants fairly and feeds their
//!   checkers, with a single-flight per-tenant drain lock preserving
//!   admission order;
//! * **observability** — `TenantStatus` answers live per-tenant verdict,
//!   ingest/checked lag, queue depth, backpressure count, resident checker
//!   size and process RSS.
//!
//! Tenant verifiers are built exclusively through
//! [`mtc_dbsim::LiveVerifier::builder`], and each sits beside the
//! [`mtc_store::MtcStore`] its events are written ahead to.
//!
//! * [`core`] — [`ServiceCore`], [`ServiceConfig`], tenant registry and
//!   drain loop (protocol-independent);
//! * [`server`] — [`serve`] accept loop and the [`ServiceServer`]
//!   in-process harness; the `mtc_service_server` binary is a thin shell
//!   around these;
//! * [`client`] — [`ServiceClient`], the tenant-side handle;
//! * [`loadgen`] — the `service_load` scaling-curve generator, shared with
//!   the bench gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod core;
pub mod loadgen;
pub mod server;

pub use client::{IngestOutcome, ServiceClient};
pub use core::{rss_kb, Admission, ServiceConfig, ServiceCore, Tenant, TenantOpen, TenantSummary};
pub use loadgen::{drive, synthetic_events, LoadPoint, LoadSpec};
pub use server::{serve, ServiceServer, SERVICE_LABEL};
