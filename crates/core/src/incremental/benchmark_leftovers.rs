//! Left of the deleted worker pool: two names `benchmark/src/probes.rs` still
//! links (`LiveVerifierBuilder::autotuned` in `mtc-dbsim` is the third). CI
//! keeps the product off them; ROADMAP item 1(f) drops the probe, then this.
use super::IncrementalChecker;
use crate::check::IsolationLevel;

pub struct ShardTuning {
    pub shards: usize,
    pub batch: usize,
}

/// What the autotuner answered on the benchmark box. `benchmark/` only; ROADMAP 1(f) removes it.
pub fn tune() -> ShardTuning {
    ShardTuning {
        shards: 1,
        batch: 512,
    }
}

/// A second name for [`IncrementalChecker::new`]. Named by `benchmark/` only;
/// ROADMAP item 1(f) removes it.
pub struct ShardedIncrementalChecker;

impl ShardedIncrementalChecker {
    /// [`IncrementalChecker::new`]; there is no pool to size.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(level: IsolationLevel, _shards: usize) -> IncrementalChecker {
        IncrementalChecker::new(level)
    }
}
