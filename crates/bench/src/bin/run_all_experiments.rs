//! Every table and figure sweep of the paper's evaluation behind one binary:
//! `run_all_experiments [NAME…] [--quick]` runs the named experiments (all of
//! them when none is named) and writes their CSV series under
//! `target/experiments/`. `--quick` is the smoke scale.
//!
//! ```text
//! cargo run --release -p mtc-bench --bin run_all_experiments -- fig7_ser_verification --quick
//! ```
use mtc_runner::experiments as e;
use mtc_runner::Table;

/// The sweep of type `$sweep` at the scale `$quick` asks for.
macro_rules! sweep {
    ($quick:expr, $sweep:ty) => {
        &if $quick {
            <$sweep>::quick()
        } else {
            <$sweep>::paper()
        }
    };
}

/// Runs one experiment at the quick (`true`) or the paper's scale.
type Experiment = fn(quick: bool) -> Vec<Table>;

/// Every experiment by name, in the order a run of all of them takes.
const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("table1_anomalies", |_| vec![e::table1_anomalies()]),
    ("fig7_ser_verification", |q| {
        e::fig7_ser_verification(sweep!(q, e::VerificationSweep))
    }),
    ("fig8_si_verification", |q| {
        e::fig8_si_verification(sweep!(q, e::VerificationSweep))
    }),
    ("fig9_sser_verification", |q| {
        e::fig9_sser_verification(sweep!(q, e::SserSweep))
    }),
    ("fig10_end_to_end_ser", |q| {
        e::fig10_end_to_end_ser(sweep!(q, e::EndToEndSweep))
    }),
    ("fig11_abort_rates", |q| {
        e::fig11_abort_rates(sweep!(q, e::AbortRateSweep))
    }),
    ("table2_bug_rediscovery", |q| {
        vec![e::table2_bug_rediscovery(sweep!(q, e::BugSweep))]
    }),
    ("backend_matrix", |q| {
        vec![e::backend_matrix(sweep!(q, e::BackendSweep))]
    }),
    ("fig13_effectiveness", |q| {
        e::fig13_effectiveness(sweep!(q, e::EffectivenessSweep))
    }),
    ("fig14_elle_end_to_end", |q| {
        e::fig14_elle_end_to_end(sweep!(q, e::EffectivenessSweep))
    }),
    ("fig17_end_to_end_si", |q| {
        e::fig17_end_to_end_si(sweep!(q, e::EndToEndSweep))
    }),
];

fn main() {
    let quick = mtc_bench::quick_requested();
    let names: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
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
    println!("# MTC reproduction — running experiments (quick = {quick})\n");
    for (name, run) in EXPERIMENTS {
        if names.is_empty() || names.iter().any(|n| n == name) {
            mtc_bench::emit(&run(quick));
        }
    }
    println!("done.");
}

#[cfg(test)]
mod tests {
    use super::EXPERIMENTS;

    /// The names are the file stems of the eleven binaries this table
    /// replaced, each once.
    #[test]
    fn names_are_the_eleven_former_binaries() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        assert_eq!(
            names,
            [
                "backend_matrix",
                "fig10_end_to_end_ser",
                "fig11_abort_rates",
                "fig13_effectiveness",
                "fig14_elle_end_to_end",
                "fig17_end_to_end_si",
                "fig7_ser_verification",
                "fig8_si_verification",
                "fig9_sser_verification",
                "table1_anomalies",
                "table2_bug_rediscovery",
            ]
        );
    }
}
