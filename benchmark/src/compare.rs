//! `compare A.json B.json`: B against A, metric by metric, with each
//! metric's direction and bound taken from `BENCHMARK.json`.

use crate::metrics::{get_f64, valid_name, ResultFile, RunRecord};
use crate::stats::{median, quartile_spread};
use serde::JsonValue;
use std::process::ExitCode;

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// The runs of a side spread wider than the bound, so a difference
    /// inside the bound cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's values of one metric on one workload: a value per run, and
/// the widest relative range any run saw between its repetitions.
pub struct Side {
    pub values: Vec<f64>,
    pub rep_range: f64,
}

impl Side {
    fn of(runs: &[&RunRecord], metric: &str) -> Side {
        let found: Vec<_> = runs
            .iter()
            .filter_map(|r| r.metrics.iter().find(|m| m.name == metric))
            .collect();
        Side {
            values: found.iter().map(|m| m.value).collect(),
            rep_range: found
                .iter()
                .filter(|m| m.value != 0.0)
                .map(|m| (m.max - m.min).abs() / m.value.abs())
                .fold(0.0, f64::max),
        }
    }

    /// The run-to-run spread: the quartile distance over four or more runs,
    /// else the range between repetitions inside the runs there are.
    fn spread(&self) -> f64 {
        if self.values.len() >= 4 {
            quartile_spread(&self.values).unwrap_or(f64::INFINITY)
        } else {
            self.rep_range
        }
    }
}

/// B's median against A's: the signed change in the metric's good
/// direction as a share of A, and what it amounts to.
pub fn judge(decl: &Declared, a: &Side, b: &Side) -> (f64, Verdict) {
    let (ma, mb) = (median(&a.values), median(&b.values));
    let sign = if decl.higher_is_better { 1.0 } else { -1.0 };
    let gain = if ma == 0.0 {
        0.0
    } else {
        sign * (mb - ma) / ma.abs()
    };
    if gain < -decl.bound {
        return (gain, Verdict::Worse);
    }
    let every_b_beats_every_a = a
        .values
        .iter()
        .all(|x| b.values.iter().all(|y| sign * (y - x) > 0.0));
    let verdict = if a.spread().max(b.spread()) > decl.bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else if gain > decl.bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (gain, verdict)
}

/// The workload names and end-to-end declarations of a `BENCHMARK.json`.
pub fn declarations(doc: &JsonValue) -> Result<(Vec<String>, Vec<Declared>), String> {
    let list = |key: &str| match doc.get(key) {
        Some(JsonValue::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json has no {key} list")),
    };
    let name = |v: &JsonValue| match v.get("name") {
        Some(JsonValue::Str(s)) if valid_name(s) => Ok(s.clone()),
        other => Err(format!("BENCHMARK.json: {other:?} is not a valid name")),
    };
    let workloads = list("workloads")?
        .iter()
        .map(name)
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: name(m)?,
                higher_is_better: match m.get("better") {
                    Some(JsonValue::Str(s)) if s == "higher" => true,
                    Some(JsonValue::Str(s)) if s == "lower" => false,
                    _ => return Err(format!("{}: better is neither higher nor lower", name(m)?)),
                },
                bound: get_f64(m, "bound")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((workloads, metrics))
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let value = serde_json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    ResultFile::from_json(&value).map_err(|e| format!("{path}: {e}"))
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("compare takes exactly two result files".into());
    };
    let declared_in = "BENCHMARK.json";
    let text = std::fs::read_to_string(declared_in)
        .map_err(|e| format!("read {declared_in} (run from the repo's root): {e}"))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("{declared_in}: {e}"))?;
    let (workloads, declared) = declarations(&doc)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "A = {a_path} ({}), B = {b_path} ({})",
        a.git_commit, b.git_commit
    );

    let mut worse = 0;
    for workload in &workloads {
        let runs = |f: &ResultFile| -> Vec<RunRecord> {
            f.runs
                .iter()
                .filter(|r| &r.workload == workload && !r.traced)
                .cloned()
                .collect()
        };
        let (ra, rb) = (runs(&a), runs(&b));
        if ra.is_empty() || rb.is_empty() {
            return Err(format!("{workload}: a file has no untraced run of it"));
        }
        let (ra, rb): (Vec<&RunRecord>, Vec<&RunRecord>) =
            (ra.iter().collect(), rb.iter().collect());
        for decl in &declared {
            let (sa, sb) = (Side::of(&ra, &decl.name), Side::of(&rb, &decl.name));
            if sa.values.is_empty() || sb.values.is_empty() {
                return Err(format!("{workload}: a file has no value of {}", decl.name));
            }
            let (gain, verdict) = judge(decl, &sa, &sb);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload:<18} {:<20} A {:>14.4}  B {:>14.4}  {:>+7.2} % (bound {:.0} %, spread A {:.1} % B {:.1} %)  {}",
                decl.name,
                median(&sa.values),
                median(&sb.values),
                gain * 100.0,
                decl.bound * 100.0,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                verdict.label()
            );
        }
    }
    if worse > 0 {
        println!("{worse} metric(s) worse than the bound allows");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(values: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            rep_range: 0.0,
        }
    }

    fn rate() -> Declared {
        Declared {
            name: "e2e_txns_per_s".into(),
            higher_is_better: true,
            bound: 0.10,
        }
    }

    #[test]
    fn direction_and_bound_decide() {
        let a = side(&[100.0, 101.0, 99.0, 100.0]);
        assert_eq!(judge(&rate(), &a, &side(&[85.0; 4])).1, Verdict::Worse);
        assert_eq!(
            judge(&rate(), &a, &side(&[95.0; 4])).1,
            Verdict::WithinBound
        );
        assert_eq!(judge(&rate(), &a, &side(&[120.0; 4])).1, Verdict::Better);
        let latency = Declared {
            name: "setup_s".into(),
            higher_is_better: false,
            bound: 0.25,
        };
        assert_eq!(judge(&latency, &a, &side(&[130.0; 4])).1, Verdict::Worse);
        assert_eq!(judge(&latency, &a, &side(&[60.0; 4])).1, Verdict::Better);
        let (gain, _) = judge(&latency, &a, &side(&[110.0; 4]));
        assert!(
            (gain + 0.10).abs() < 1e-9,
            "a slower set-up is a loss: {gain}"
        );
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = side(&[80.0, 100.0, 120.0, 100.0, 90.0, 110.0]);
        assert_eq!(
            judge(&rate(), &noisy, &side(&[104.0; 4])).1,
            Verdict::Unresolved
        );
        // Every run of B beats every run of A: the spread no longer matters.
        assert_eq!(
            judge(&rate(), &noisy, &side(&[150.0; 4])).1,
            Verdict::Better
        );
        // Worse beyond the bound stays worse, however wide the spread.
        assert_eq!(judge(&rate(), &noisy, &side(&[70.0; 4])).1, Verdict::Worse);
        // With fewer than four runs the range between repetitions stands in.
        let few = Side {
            values: vec![100.0],
            rep_range: 0.3,
        };
        assert_eq!(judge(&rate(), &few, &side(&[99.0])).1, Verdict::Unresolved);
    }

    #[test]
    fn declarations_come_from_benchmark_json() {
        let doc = serde_json::parse(
            r#"{"workloads":[{"name":"w1","why":"x"}],
                "end_to_end":[{"name":"m","unit":"s","better":"lower","bound":0.25}]}"#,
        )
        .unwrap();
        let (workloads, metrics) = declarations(&doc).unwrap();
        assert_eq!(workloads, ["w1"]);
        assert_eq!(
            metrics,
            [Declared {
                name: "m".into(),
                higher_is_better: false,
                bound: 0.25
            }]
        );
        assert!(declarations(&serde_json::parse("{}").unwrap()).is_err());
        let bad = r#"{"workloads":[{"name":"has space"}],"end_to_end":[]}"#;
        assert!(declarations(&serde_json::parse(bad).unwrap()).is_err());
    }
}
