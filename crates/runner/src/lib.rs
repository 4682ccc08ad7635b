//! # mtc-runner
//!
//! The end-to-end checking harness: generate a workload, execute it against
//! the simulated database (`mtc-dbsim`), collect the unified history, verify
//! it with MTC or one of the baseline checkers, and record wall-clock time,
//! memory estimates and abort rates.
//!
//! The [`experiments`] module contains one parameterized sweep per table and
//! figure of the paper's evaluation and [`experiments::EXPERIMENTS`], the list
//! of them by name; the `run_all_experiments` binary of this crate runs them
//! and [`report::emit`]s the resulting series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod durable;
pub mod exec;
pub mod experiments;
pub mod report;

pub use durable::{
    record_streaming, replay_verify, resume_verification, RecordOptions, RecordOutcome,
    ResumeOutcome,
};
pub use exec::{
    end_to_end, end_to_end_streaming, run_elle_append_workload, run_elle_register_workload,
    run_register_workload, verify, Checker, EndToEnd, StreamingEndToEnd, VerifyOutcome,
};
pub use report::Table;
