//! Every table and figure sweep of the paper's evaluation behind one binary:
//! `run_all_experiments [NAME…] [--quick]` runs the named experiments (all of
//! them when none is named) and writes their CSV series under
//! `target/experiments/`. `--quick` is the smoke scale.
//!
//! ```text
//! cargo run --release -p mtc-runner --bin run_all_experiments -- fig7_ser_verification --quick
//! ```
use mtc_runner::experiments::{Scale, EXPERIMENTS};
use mtc_runner::report::emit;

fn main() {
    let (quick, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a == "--quick");
    let scale = if quick.is_empty() {
        Scale::Paper
    } else {
        Scale::Quick
    };
    if let Some(unknown) = names
        .iter()
        .find(|n| !EXPERIMENTS.iter().any(|(name, _)| name == n))
    {
        eprintln!("unknown experiment `{unknown}`; the experiments are:");
        for (name, _) in EXPERIMENTS {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }
    println!(
        "# MTC reproduction — running experiments (quick = {})\n",
        scale == Scale::Quick
    );
    for (name, run) in EXPERIMENTS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            emit(&run(scale));
        }
    }
    println!("done.");
}
