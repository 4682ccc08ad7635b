//! # mtc-bench
//!
//! The experiment harness of the reproduction, all of it binaries in
//! `src/bin/`:
//!
//! * `run_all_experiments [NAME…] [--quick]` regenerates the tables and
//!   figures of the paper's evaluation by running the parameterized sweeps of
//!   `mtc-runner::experiments`, printing them as aligned text and TSV and
//!   writing CSV files under `target/experiments/`;
//! * `crash_resume_smoke` and `net_crash_smoke` kill a durable run (local, and
//!   behind the wire) and hold the resumed verdict to the uninterrupted one;
//! * `streaming_bench_gate` writes `BENCH_streaming.json` and fails on four
//!   in-run ratios.
//!
//! Timings that gate a PR are `benchmark/`'s, not this crate's.
//!
//! Run a single figure with, e.g.:
//!
//! ```text
//! cargo run --release -p mtc-bench --bin run_all_experiments -- fig7_ser_verification
//! cargo run --release -p mtc-bench --bin run_all_experiments -- fig7_ser_verification --quick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mtc_runner::Table;
use std::path::PathBuf;

/// Where the figure binaries drop their CSV series.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from("target/experiments")
}

/// True iff `--quick` was passed on the command line (tests and smoke runs).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Prints a set of tables (aligned + TSV) and writes them as CSV files.
pub fn emit(tables: &[Table]) {
    let dir = experiments_dir();
    for table in tables {
        println!("{}", table.to_aligned());
        println!("{}", table.to_tsv());
        match table.write_csv(&dir) {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(e) => eprintln!("could not write CSV for {}: {e}", table.title),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiments_dir_is_under_target() {
        assert!(experiments_dir().starts_with("target"));
    }

    #[test]
    fn emit_writes_csv_files() {
        let mut t = Table::new("bench_lib_emit_test", &["a"]);
        t.push(&[1]);
        emit(&[t]);
        assert!(experiments_dir().join("bench_lib_emit_test.csv").exists());
        let _ = std::fs::remove_file(experiments_dir().join("bench_lib_emit_test.csv"));
    }
}
