//! Every experiment of the paper's evaluation at `Scale::Quick`, each run
//! once, held to the shape a parent build wrote and to what it claims.
//!
//! `data/experiments-quick-c2dd833.txt` holds one `# <name>` section per
//! entry of `EXPERIMENTS`, in list order: every table's title, columns and
//! first-column labels, plus Table I's cells, Table II's `detected` column and
//! the backend matrix's `promises` column. The other cells are timings or
//! verdicts the thread schedule decides, so the file leaves them out. The
//! build of commit c2dd833 wrote it through the `quick()` constructors that
//! `Scale::Quick` replaced. A test whose rendering differs writes it to
//! `<target>/tmp/experiments-quick.<name>.actual.txt`; a change that moves a
//! label on purpose copies that section over the old one and says so.

use mtc_runner::experiments::{Scale, EXPERIMENTS};
use mtc_runner::Table;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("data/experiments-quick-c2dd833.txt");

/// Columns whose cells the fixture holds beside the first one (Table I's
/// cells are held whole).
const STABLE_COLUMNS: [&str; 2] = ["detected", "promises"];

/// Experiment `name`'s section: `# name`, then per table its title, its
/// columns and the stable cells of every row.
fn render(name: &str, tables: &[Table]) -> String {
    let mut out = format!("# {name}\n");
    for table in tables {
        let _ = writeln!(out, "== {} ==\n{}", table.title, table.columns.join(","));
        let kept: Vec<usize> = (0..table.columns.len())
            .filter(|&i| {
                i == 0
                    || table.title == "table1_anomalies"
                    || STABLE_COLUMNS.contains(&table.columns[i].as_str())
            })
            .collect();
        for row in &table.rows {
            let cells: Vec<&str> = kept.iter().map(|&i| row[i].as_str()).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
    }
    out
}

/// The fixture's section of experiment `name`: from its header to the next.
fn section(name: &str) -> &'static str {
    let start = FIXTURE
        .find(&format!("# {name}\n"))
        .unwrap_or_else(|| panic!("the fixture has no section for {name}"));
    let len = FIXTURE[start..]
        .find("\n# ")
        .map_or(FIXTURE.len() - start, |i| i + 1);
    &FIXTURE[start..start + len]
}

/// Runs experiment `name` at `Scale::Quick` and holds its rendering to the
/// fixture's section.
fn run(name: &str) -> Vec<Table> {
    let (_, experiment) = EXPERIMENTS
        .iter()
        .find(|(listed, _)| *listed == name)
        .expect("a listed experiment");
    let tables = experiment(Scale::Quick);
    let actual = render(name, &tables);
    if actual != section(name) {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("experiments-quick.{name}.actual.txt"));
        std::fs::write(&path, &actual).expect("write the actual rendering");
        panic!(
            "{name} moved off the fixture; its rendering is in {}",
            path.display()
        );
    }
    tables
}

/// With each section held by its test, this makes the file as a whole the
/// fixture: one section per experiment, in `EXPERIMENTS` order, nothing
/// before the first.
#[test]
fn the_fixture_has_one_section_per_experiment_in_order() {
    let headers: Vec<&str> = FIXTURE
        .lines()
        .filter_map(|line| line.strip_prefix("# "))
        .collect();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    assert_eq!(headers, names);
    assert!(FIXTURE.starts_with("# "));
}

#[test]
fn table1_matches_expected_matrix() {
    let tables = run("table1_anomalies");
    for row in &tables[0].rows {
        assert_eq!(row[5], "true", "mismatch for anomaly {}", row[0]);
    }
}

#[test]
fn fig7_quick_runs_and_has_expected_shape() {
    run("fig7_ser_verification");
}

#[test]
fn fig8_quick_runs() {
    run("fig8_si_verification");
}

/// `fig9_sser_verification` itself asserts that VL-LWT and Porcupine agree
/// at every point.
#[test]
fn fig9_quick_runs() {
    run("fig9_sser_verification");
}

#[test]
fn fig10_and_fig17_quick_run() {
    run("fig10_end_to_end_ser");
    run("fig17_end_to_end_si");
}

#[test]
fn fig11_quick_reports_rates_between_zero_and_one() {
    for t in &run("fig11_abort_rates") {
        for row in &t.rows {
            for cell in &row[1..] {
                let v: f64 = cell.parse().unwrap();
                assert!((0.0..=1.0).contains(&v), "abort rate {v} out of range");
            }
        }
    }
}

#[test]
fn table2_quick_detects_every_injected_bug() {
    for row in &run("table2_bug_rediscovery")[0].rows {
        assert_eq!(
            row[3], "true",
            "bug not detected for {} ({})",
            row[0], row[2]
        );
    }
}

#[test]
fn backend_matrix_quick_holds_promises_and_streaming_agreement() {
    for row in &run("backend_matrix")[0].rows {
        assert_eq!(
            row[7], "true",
            "{}: streaming verdicts disagreed with batch",
            row[0]
        );
        if row[0] == "2pl" {
            // The pessimistic engine must be organically clean at every
            // level without a single fault injected.
            assert_eq!(row[4], "ok", "2pl SI");
            assert_eq!(row[5], "ok", "2pl SER");
            assert_eq!(row[6], "ok", "2pl SSER");
        }
    }
}

#[test]
fn fig13_quick_mtc_detects_bugs() {
    // The dirty-release fault of the MongoDB-like target is detected
    // deterministically (the published-then-aborted value is read by a
    // later transaction almost surely at this contention level).
    let mongo = &run("fig13_effectiveness")[1];
    let total: u32 = mongo
        .rows
        .iter()
        .map(|r| r[1].parse::<u32>().unwrap())
        .sum();
    assert!(total > 0, "MTC detected no bugs in {}", mongo.title);
}

#[test]
fn fig14_quick_runs() {
    run("fig14_elle_end_to_end");
}
