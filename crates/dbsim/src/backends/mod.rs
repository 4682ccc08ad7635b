//! The in-tree backend fleet: every engine that can serve as the system
//! under test, plus [`BackendSpec`] — a buildable, serializable description
//! of a backend used by the runner's experiment matrix and the bench
//! harness to construct a *fresh* instance per run.

pub mod twopl;
pub mod weakmvcc;

pub use twopl::{TwoPlDatabase, TwoPlTxn};
pub use weakmvcc::{WeakLevel, WeakMvccDatabase, WeakTxn};

use crate::backend::DbBackend;
use crate::config::{DbConfig, IsolationMode};
use crate::db::Database;

/// A buildable description of a backend. History generation needs a fresh
/// store per run (unique values, `⊥T` initial state), so the experiment
/// sweeps hold specs and call [`BackendSpec::build`] per data point rather
/// than sharing live instances.
#[derive(Clone, Debug)]
pub enum BackendSpec {
    /// The OCC/MVCC simulator at the configured isolation mode, with
    /// optional fault injection.
    Sim(DbConfig),
    /// The pessimistic strict-2PL engine (wait-die).
    TwoPl,
    /// The weak MVCC engine at the given weak level.
    WeakMvcc(WeakLevel),
}

impl BackendSpec {
    /// Builds a fresh backend instance.
    pub fn build(&self) -> Box<dyn DbBackend> {
        match self {
            BackendSpec::Sim(config) => Box::new(Database::new(config.clone())),
            BackendSpec::TwoPl => Box::new(TwoPlDatabase::new()),
            BackendSpec::WeakMvcc(level) => Box::new(WeakMvccDatabase::new(*level)),
        }
    }

    /// The label the built backend will report.
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Sim(config) => match config.isolation {
                IsolationMode::ReadCommitted => "sim-rc",
                IsolationMode::Snapshot => "sim-si",
                IsolationMode::Serializable => "sim-ser",
                IsolationMode::StrictSerializable => "sim-sser",
            },
            BackendSpec::TwoPl => "2pl",
            BackendSpec::WeakMvcc(level) => level.label(),
        }
    }

    /// True iff the backend's operations can block on another in-flight
    /// transaction — such engines must not be driven by the single-thread
    /// interleaved executor ([`crate::Driver::Interleaved`]).
    pub fn blocking(&self) -> bool {
        matches!(self, BackendSpec::TwoPl)
    }

    /// The default cross-backend fleet: every engine family at every mode
    /// it supports, all fault-free. `num_keys` sizes the simulator's
    /// pre-initialized key space (the other engines initialize lazily).
    pub fn fleet(num_keys: u64) -> Vec<BackendSpec> {
        vec![
            BackendSpec::Sim(DbConfig::correct(IsolationMode::Serializable, num_keys)),
            BackendSpec::Sim(DbConfig::correct(IsolationMode::Snapshot, num_keys)),
            BackendSpec::Sim(DbConfig::correct(IsolationMode::ReadCommitted, num_keys)),
            BackendSpec::TwoPl,
            BackendSpec::WeakMvcc(WeakLevel::ReadCommitted),
            BackendSpec::WeakMvcc(WeakLevel::ReadUncommitted),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_core::IsolationLevel;

    #[test]
    fn fleet_labels_are_distinct_and_match_built_backends() {
        use std::collections::HashSet;
        let fleet = BackendSpec::fleet(4);
        let labels: HashSet<&str> = fleet.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), fleet.len());
        for spec in &fleet {
            let backend = spec.build();
            assert_eq!(backend.label(), spec.label());
        }
    }

    #[test]
    fn promises_form_the_expected_matrix() {
        use IsolationLevel::*;
        let cases: Vec<(BackendSpec, [bool; 3])> = vec![
            (
                BackendSpec::Sim(DbConfig::correct(IsolationMode::Serializable, 2)),
                [true, true, true],
            ),
            (
                BackendSpec::Sim(DbConfig::correct(IsolationMode::Snapshot, 2)),
                [true, false, false],
            ),
            (
                BackendSpec::Sim(DbConfig::correct(IsolationMode::ReadCommitted, 2)),
                [false, false, false],
            ),
            (BackendSpec::TwoPl, [true, true, true]),
            (
                BackendSpec::WeakMvcc(WeakLevel::ReadCommitted),
                [false, false, false],
            ),
            (
                BackendSpec::WeakMvcc(WeakLevel::ReadUncommitted),
                [false, false, false],
            ),
        ];
        for (spec, [si, ser, sser]) in cases {
            let b = spec.build();
            assert_eq!(b.promises(SnapshotIsolation), si, "{} SI", spec.label());
            assert_eq!(b.promises(Serializability), ser, "{} SER", spec.label());
            assert_eq!(
                b.promises(StrictSerializability),
                sser,
                "{} SSER",
                spec.label()
            );
        }
    }
}
