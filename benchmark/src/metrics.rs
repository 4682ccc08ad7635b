//! The benchmark's names: workloads, end-to-end metrics, per-layer metrics,
//! and the result records written for them. `BENCHMARK.json` carries the
//! same names with their directions and bounds; a unit test holds the two
//! together.

use crate::stats::{half_mean, summarize, Summary};
use serde::JsonValue;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, measured with tracing off on
/// every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("e2e_txns_per_s", "txns/s"),
    ("exec_txns_per_s", "txns/s"),
    ("verify_txns_per_s", "txns/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, measured in the traced pass.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("dbsim.exec_s", "s"),
    ("dbsim.attempts", "count"),
    ("dbsim.aborted_attempts", "count"),
    ("dbsim.abort_rate", "ratio"),
    ("dbsim.exhausted_templates", "count"),
    ("dbsim.backend_busy_s", "s"),
    ("dbsim.driver_self_s", "s"),
    ("dbsim.begin_ns_p50", "ns"),
    ("dbsim.read_ns_p50", "ns"),
    ("dbsim.write_ns_p50", "ns"),
    ("dbsim.commit_ns_p50", "ns"),
    ("dbsim.commit_ns_p99", "ns"),
    ("dbsim.live_overhead_s", "s"),
    ("dbsim.organic_violations", "count"),
    ("history.txns", "count"),
    ("history.ops", "count"),
    ("history.project_s", "s"),
    ("history.acyclic_s", "s"),
    ("core.validate_s", "s"),
    ("core.build_dependency_s", "s"),
    ("core.dep_edges", "count"),
    ("core.check_ser_s", "s"),
    ("core.check_si_s", "s"),
    ("core.check_sser_s", "s"),
    ("core.stream_ser_txns_per_s", "txns/s"),
    ("core.stream_si_txns_per_s", "txns/s"),
    ("core.stream_sser_txns_per_s", "txns/s"),
    ("core.stream_ser_gc_txns_per_s", "txns/s"),
    ("core.stream_push_ns_p50", "ns"),
    ("core.stream_push_ns_p99", "ns"),
    ("core.stream_finish_s", "s"),
    ("core.stream_live_nodes", "count"),
    ("core.sharded_sser_txns_per_s", "txns/s"),
    ("core.checkpoint_s", "s"),
    ("core.snapshot_bytes", "bytes"),
    ("runner.verify_overhead_s", "s"),
    ("store.append_txns_per_s", "txns/s"),
    ("store.append_ns_p50", "ns"),
    ("store.append_ns_p99", "ns"),
    ("store.sync_s", "s"),
    ("store.checkpoint_ms_p50", "ms"),
    ("store.checkpoint_ms_max", "ms"),
    ("store.checkpoint_bytes_p50", "bytes"),
    ("store.checkpoints", "count"),
    ("store.log_bytes", "bytes"),
    ("store.checkpoint_dir_bytes", "bytes"),
    ("store.recover_s", "s"),
    ("store.replay_tail_txns", "count"),
    ("store.encode_ns_per_txn", "ns"),
    ("store.decode_ns_per_txn", "ns"),
    ("net.connect_us", "us"),
    ("net.begin_us_p50", "us"),
    ("net.read_us_p50", "us"),
    ("net.write_us_p50", "us"),
    ("net.commit_us_p50", "us"),
    ("net.commit_us_p99", "us"),
    ("net.calls_per_txn", "count"),
    ("net.backend_busy_s", "s"),
    ("net.wire_share", "ratio"),
    ("net.proto_encode_ns", "ns"),
    ("net.proto_decode_ns", "ns"),
    ("service.open_ms", "ms"),
    ("service.ingest_attempts", "count"),
    ("service.backpressure_hits", "count"),
    ("service.accept_ratio", "ratio"),
    ("service.backoff_sleep_s", "s"),
    ("service.close_drain_s", "s"),
    ("service.queue_depth_max", "count"),
    ("service.lag_max", "count"),
    ("service.core_txns_per_s", "txns/s"),
    ("service.wire_share", "ratio"),
    ("ingest_batch_p50_us", "us"),
    ("ingest_batch_p99_us", "us"),
    ("recover_txns_per_s", "txns/s"),
    ("store_bytes_per_txn", "bytes"),
    ("failed_share", "ratio"),
    ("obs.enabled_overhead", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// A workload, metric or unit name as `BENCHMARK.json` allows it: starts
/// with a letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The unit of a metric either table names.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Per-rep samples of each metric. A per-layer metric's reported value is
/// the median of its samples; for the end-to-end ones see
/// [`Samples::end_to_end`].
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// One [`MetricValue`] per name of `table`, in table order. A metric
    /// nobody sampled is a bug in the benchmark, reported as an error.
    pub fn values(
        &self,
        table: &[(&'static str, &'static str)],
    ) -> Result<Vec<MetricValue>, String> {
        table
            .iter()
            .map(|(name, unit)| {
                let samples = self.get(name);
                if samples.is_empty() {
                    return Err(format!("metric {name} was never measured"));
                }
                let Summary { min, median, max } = summarize(samples);
                Ok(MetricValue {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    value: median,
                    min,
                    max,
                })
            })
            .collect()
    }

    /// The end-to-end metrics of an untraced run, as they would read on a
    /// machine of nominal speed: the mean over the faster half of the
    /// repetitions (the higher half of a rate, the lower half of a time),
    /// rates multiplied and times divided by `slowness`, which
    /// `calib::slowness` takes from the faster half of the reference work
    /// in the same way. Memory is not a matter of speed and stays as read.
    pub fn end_to_end(&self, slowness: f64) -> Result<Vec<MetricValue>, String> {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let samples = self.get(name);
                if samples.is_empty() {
                    return Err(format!("metric {name} was never measured"));
                }
                let (upper, scale) = match *unit {
                    "txns/s" => (true, slowness),
                    "s" => (false, 1.0 / slowness),
                    _ => (false, 1.0),
                };
                let Summary { min, max, .. } = summarize(samples);
                Ok(MetricValue {
                    name: name.to_string(),
                    unit: unit.to_string(),
                    value: half_mean(samples, upper) * scale,
                    min: min * scale,
                    max: max * scale,
                })
            })
            .collect()
    }
}

/// A reported metric: its value over the run's samples, with their range.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricValue {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub smoke: bool,
    pub correct: bool,
    /// How slow the machine was against nominal over the run
    /// (`calib::slowness`); 0 for a traced run, which is not scaled.
    pub machine_slowness: f64,
    /// Operations attempted (templates or events), over all measured reps.
    pub attempted: u64,
    /// Templates that exhausted their retries.
    pub failed: u64,
    /// Measured repetitions (the warm-up is not one of them).
    pub reps: u64,
    /// The fixed input sizes of one repetition.
    pub sizes: Vec<(String, u64)>,
    pub metrics: Vec<MetricValue>,
}

fn obj(entries: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn get_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(JsonValue::U64(n)) => Ok(*n),
        _ => Err(format!("missing or non-integer field {key}")),
    }
}

fn get_bool(v: &JsonValue, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(JsonValue::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean field {key}")),
    }
}

fn get_str(v: &JsonValue, key: &str) -> Result<String, String> {
    match v.get(key) {
        Some(JsonValue::Str(s)) => Ok(s.clone()),
        _ => Err(format!("missing or non-string field {key}")),
    }
}

/// A JSON number of any kind as `f64`.
pub fn get_f64(v: &JsonValue, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(JsonValue::F64(x)) => Ok(*x),
        Some(JsonValue::U64(n)) => Ok(*n as f64),
        Some(JsonValue::I64(n)) => Ok(*n as f64),
        _ => Err(format!("missing or non-numeric field {key}")),
    }
}

impl RunRecord {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, each metric with its value and unit.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", JsonValue::F64(m.value)),
                        ("unit", JsonValue::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        let mut out = String::new();
        obj(vec![
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::U64(self.attempted)),
            ("failed", JsonValue::U64(self.failed)),
            ("metrics", JsonValue::Object(metrics)),
        ])
        .render(&mut out);
        out
    }

    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![
                        ("value", JsonValue::F64(m.value)),
                        ("unit", JsonValue::Str(m.unit.clone())),
                        ("min", JsonValue::F64(m.min)),
                        ("max", JsonValue::F64(m.max)),
                    ]),
                )
            })
            .collect();
        let sizes = self
            .sizes
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::U64(*v)))
            .collect();
        obj(vec![
            ("workload", JsonValue::Str(self.workload.clone())),
            ("seed", JsonValue::U64(self.seed)),
            ("seconds", JsonValue::U64(self.seconds)),
            ("traced", JsonValue::Bool(self.traced)),
            ("smoke", JsonValue::Bool(self.smoke)),
            ("correct", JsonValue::Bool(self.correct)),
            ("machine_slowness", JsonValue::F64(self.machine_slowness)),
            ("attempted", JsonValue::U64(self.attempted)),
            ("failed", JsonValue::U64(self.failed)),
            ("reps", JsonValue::U64(self.reps)),
            ("sizes", JsonValue::Object(sizes)),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }

    pub fn from_json(v: &JsonValue) -> Result<RunRecord, String> {
        let entries = |key: &str| match v.get(key) {
            Some(JsonValue::Object(entries)) => Ok(entries),
            _ => Err(format!("missing or non-object field {key}")),
        };
        let metrics = entries("metrics")?
            .iter()
            .map(|(name, m)| {
                Ok(MetricValue {
                    name: name.clone(),
                    unit: get_str(m, "unit")?,
                    value: get_f64(m, "value")?,
                    min: get_f64(m, "min")?,
                    max: get_f64(m, "max")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let sizes = entries("sizes")?
            .iter()
            .map(|(k, s)| match s {
                JsonValue::U64(n) => Ok((k.clone(), *n)),
                _ => Err(format!("size {k} is not an integer")),
            })
            .collect::<Result<_, String>>()?;
        Ok(RunRecord {
            workload: get_str(v, "workload")?,
            seed: get_u64(v, "seed")?,
            seconds: get_u64(v, "seconds")?,
            traced: get_bool(v, "traced")?,
            smoke: get_bool(v, "smoke")?,
            correct: get_bool(v, "correct")?,
            machine_slowness: get_f64(v, "machine_slowness")?,
            attempted: get_u64(v, "attempted")?,
            failed: get_u64(v, "failed")?,
            reps: get_u64(v, "reps")?,
            sizes,
            metrics,
        })
    }
}

/// A result file: the machine, the commit, and every run made.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultFile {
    pub nproc: u64,
    pub git_commit: String,
    pub runs: Vec<RunRecord>,
}

impl ResultFile {
    pub fn to_json(&self) -> JsonValue {
        obj(vec![
            ("schema", JsonValue::U64(1)),
            ("nproc", JsonValue::U64(self.nproc)),
            ("git_commit", JsonValue::Str(self.git_commit.clone())),
            (
                "runs",
                JsonValue::Array(self.runs.iter().map(RunRecord::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(v: &JsonValue) -> Result<ResultFile, String> {
        let runs = match v.get("runs") {
            Some(JsonValue::Array(runs)) => runs
                .iter()
                .map(RunRecord::from_json)
                .collect::<Result<_, _>>()?,
            _ => return Err("missing runs array".into()),
        };
        Ok(ResultFile {
            nproc: get_u64(v, "nproc")?,
            git_commit: get_str(v, "git_commit")?,
            runs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::WORKLOADS;

    #[test]
    fn name_validation_follows_the_contract() {
        for good in ["setup_s", "core.check_ser_s", "a", "9lives", "x-y.z_0"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "_x", "-x", "has space", "µs", "a/b", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn every_name_is_valid_and_used_once() {
        let mut seen = std::collections::HashSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} is listed twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} is listed twice", w.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` and the tables here name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside benchmark/");
        let doc = serde_json::parse(&text).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(JsonValue::Array(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let names_units = |key: &str| -> Vec<(String, String)> {
            list(key)
                .iter()
                .map(|m| (get_str(m, "name").unwrap(), get_str(m, "unit").unwrap()))
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units("end_to_end"), table(END_TO_END));
        assert_eq!(names_units("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| get_str(w, "name").unwrap())
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);
        for m in list("end_to_end") {
            let bound = get_f64(&m, "bound").unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(matches!(
                get_str(&m, "better").unwrap().as_str(),
                "higher" | "lower"
            ));
        }
    }

    fn record() -> RunRecord {
        RunRecord {
            workload: "pipeline_uniform".into(),
            seed: 7,
            seconds: 10,
            traced: false,
            smoke: true,
            correct: true,
            machine_slowness: 1.125,
            attempted: 160_000,
            failed: 0,
            reps: 5,
            sizes: vec![("sessions".into(), 2), ("txns_per_session".into(), 80_000)],
            metrics: vec![
                MetricValue {
                    name: "setup_s".into(),
                    unit: "s".into(),
                    value: 0.012345678901234,
                    min: 0.01,
                    max: 0.5,
                },
                MetricValue {
                    name: "e2e_txns_per_s".into(),
                    unit: "txns/s".into(),
                    value: 45123.0,
                    min: 44000.25,
                    max: 46000.75,
                },
            ],
        }
    }

    #[test]
    fn result_json_round_trips() {
        let file = ResultFile {
            nproc: 2,
            git_commit: "0c3ccde".into(),
            runs: vec![record(), record()],
        };
        let mut text = String::new();
        file.to_json().render(&mut text);
        let back = ResultFile::from_json(&serde_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = record().contract_line();
        let v = serde_json::parse(&line).unwrap();
        let JsonValue::Object(entries) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(get_f64(m, "value").unwrap(), 0.012345678901234);
        assert_eq!(get_str(m, "unit").unwrap(), "s");
        assert!(!line.contains('\n'));
    }

    #[test]
    fn samples_report_the_median_with_its_range() {
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0] {
            s.push("setup_s", v);
        }
        let table = &END_TO_END[..1];
        let got = s.values(table).unwrap();
        assert_eq!((got[0].value, got[0].min, got[0].max), (2.0, 1.0, 3.0));
        assert!(
            s.values(&END_TO_END[..2]).is_err(),
            "an unmeasured metric is an error"
        );
    }

    #[test]
    fn end_to_end_values_are_the_faster_half_at_nominal_speed() {
        let mut s = Samples::default();
        assert!(s.end_to_end(1.0).is_err(), "nothing measured yet");
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push("setup_s", v);
            s.push("e2e_txns_per_s", v * 100.0);
            s.push("exec_txns_per_s", v * 10.0);
            s.push("verify_txns_per_s", v);
        }
        s.push("peak_rss_mb", 64.0);
        // A machine twice as slow as nominal: times halve, rates double.
        let got = s.end_to_end(2.0).unwrap();
        let by_name = |name: &str| got.iter().find(|m| m.name == name).unwrap();
        let setup = by_name("setup_s");
        assert_eq!((setup.value, setup.min, setup.max), (0.75, 0.5, 2.0));
        let e2e = by_name("e2e_txns_per_s");
        assert_eq!((e2e.value, e2e.min, e2e.max), (700.0, 200.0, 800.0));
        assert_eq!(by_name("peak_rss_mb").value, 64.0);
    }
}
