//! # MTC — Mini-Transaction isolation Checking
//!
//! Facade crate re-exporting the whole MTC workspace:
//!
//! * [`history`] — histories, transactions, dependency graphs, the 14-anomaly catalogue;
//! * [`core`] — the mini-transaction verifiers (`CHECKSSER`, `CHECKSER`, `CHECKSI`, `VL-LWT`);
//! * [`workload`] — MT / GT / LWT / Elle-style workload generators;
//! * [`dbsim`] — the in-memory MVCC transactional store used as the system under test;
//! * [`baselines`] — Cobra-, PolySI-, Porcupine- and Elle-style baseline checkers;
//! * [`runner`] — the end-to-end harness (generate → execute → collect → verify → report);
//! * [`store`] — durable history logs, checkpoints and crash recovery;
//! * [`net`] — the framed TCP remote backend (server + pooled client);
//! * [`service`] — the multi-tenant streaming-verification daemon
//!   (`mtc_service_server`) and its client/load-generation library.
//!
//! See `examples/quickstart.rs` for a three-minute tour.

pub use mtc_baselines as baselines;
pub use mtc_core as core;
pub use mtc_dbsim as dbsim;
pub use mtc_history as history;
pub use mtc_net as net;
pub use mtc_runner as runner;
pub use mtc_service as service;
pub use mtc_store as store;
pub use mtc_workload as workload;

// The streaming verification engine, re-exported at the facade root: the
// online checkers share `IsolationLevel` with the batch path.
pub use mtc_core::{
    check_streaming, CheckerSnapshot, GcPolicy, IncrementalChecker, IsolationLevel, StreamStatus,
};
// The unified execution/verification API: one `execute` entry point
// parameterized by `Driver`, and one `LiveVerifier::builder` constructor.
pub use mtc_dbsim::{
    Driver, ExecutionOptions, IngestEvent, LiveOutcome, LiveVerifier, LiveVerifierBuilder,
};
pub use mtc_history::{IncrementalTopo, TimeChain};
pub use mtc_service::{ServiceClient, ServiceConfig, ServiceCore, ServiceServer};
pub use mtc_store::{MtcStore, StreamMeta};
