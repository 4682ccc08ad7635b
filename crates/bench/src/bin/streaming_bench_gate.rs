//! CI perf-regression gate for the streaming checkers.
//!
//! Times the batch and incremental checkers at every isolation level over synthetic serial histories, writes the measurements
//! as `BENCH_streaming.json` (uploaded as a CI artifact so every PR leaves a
//! throughput trail), and — with `--check <baseline.json>` — fails when a
//! streaming checker regressed more than 30% against the committed baseline.
//!
//! Schema 3 adds per-backend execution-throughput series
//! (`backend/<label>`): the same MT workload executed end-to-end against
//! each engine of the backend fleet (OCC simulator, strict-2PL wait-die,
//! weak MVCC). These are **artifact-only** — the gate ignores them until a
//! baseline with recorded backend series exists, so heterogeneous engines
//! leave a throughput trail without destabilizing CI.
//!
//! Schema 4 adds the verification-as-a-service scaling curve
//! (`service/tenants-N` for N ∈ {1, 2, 4, 8}): the `mtc-service` daemon
//! in-process, N concurrent tenants streaming clean histories over loopback
//! TCP; `millis` is the p99 per-batch ingest latency and `txns_per_sec` the
//! sustained end-to-end verification rate. Artifact-only — the curve
//! depends on core count and loopback scheduling, so it is never gated.
//!
//! Schema 5 adds the observability-overhead series (`ser/incremental-obs`):
//! the streaming SER pass re-measured with `mtc-obs` metric recording
//! switched on. It is gated **in-run**, baseline-free: the instrumented
//! pass must reach at least 95% of the uninstrumented pass of the same
//! process — the "zero-overhead when disabled, bounded when enabled"
//! contract of the metrics layer, enforced on every run even without
//! `--check`.
//!
//! The two in-run gates (this one and schema 7's, below) compare a *pair*
//! of passes, and a pass over the default 4 000 transactions lasts ~5 ms: on
//! a 2-vCPU box two such timings taken seconds apart differ by more than
//! either floor allows, so the gates failed two runs in three with nothing
//! changed. They are therefore measured on their own: each pair on a history
//! of at least [`GATE_TXNS`] transactions, the two sides interleaved round
//! by round (alternating which goes first), and the gated number the median
//! of the [`GATE_ROUNDS`] per-round ratios. The `ser/incremental-obs`
//! series in the artifact stays what it was (best of 5 at `--txns`).
//!
//! Schema 6 gated the online-SSER fast path **in-run**, baseline-free,
//! against the batch SSER checker of the same run (floor 95%). Schema 7
//! re-anchors that gate on a series the batch checkers cannot move:
//! `sser/incremental ÷ ser/incremental` of the same run, floor 0.50. The
//! batch checkers share one write index per verdict now and got faster with
//! no streaming change at all, so "streaming ≥ 95% of batch" stopped saying
//! anything about streaming; the old ratio is still printed, as information.
//! The floor sits between what the time-chain fast path reads (0.58–0.67 on
//! a quiet 2-vCPU box at 4 000 transactions, before and after the
//! re-anchoring alike, 0.65–0.75 at the 40 000 the gate times now; 0.77 in
//! the schema-6 baseline) and what the splice slow path it replaced read
//! (0.43). Like the observability gate, the comparison is
//! machine-independent by construction, so it holds on every run even
//! without `--check`.
//!
//! Since the epoch-GC work the `<level>/incremental-gc` series are **gated**
//! alongside `incremental` (collection is expected to cost at most a modest
//! constant factor now that commits are amortized off the ingest path), and
//! the run's peak-RSS high-water mark is gated against the baseline's.
//!
//! Schema 8 drops the two worker-pool series of each level and the
//! `shards` / `batch` report fields: the pool lost to the sequential checker
//! on every run and was deleted (README, "Why there is no worker pool").
//!
//! Raw throughput is machine-dependent, so the gate normalizes by machine
//! speed before comparing: for each isolation level, the batch checker's
//! current/baseline throughput ratio is the machine scale, and each
//! streaming series must reach at least 70% of `baseline × scale`. That
//! turns the gate into a test of *streaming overhead relative to batch
//! checking* and keeps it stable across CI runner generations.
//!
//! ```text
//! cargo run --release -p mtc-bench --bin streaming_bench_gate -- \
//!     --out BENCH_streaming.json --check ci/BENCH_streaming_baseline.json
//! ```
//!
//! Flags: `--txns N` sets the history size (default 4000; the in-run ratio
//! gates use at least [`GATE_TXNS`]), `--out PATH` the report path,
//! `--check PATH` enables the regression comparison.

use mtc_bench::histories::serial_mt_history;
use mtc_core::{
    check_ser, check_si, check_sser, check_streaming, GcPolicy, IncrementalChecker, IsolationLevel,
    Verdict,
};
use mtc_dbsim::{BackendSpec, ExecutionOptions};
use mtc_history::History;
use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Throughput must stay above this fraction of the machine-scaled baseline.
const MIN_RELATIVE_THROUGHPUT: f64 = 0.70;

/// The run's peak-RSS high-water mark must stay below this multiple of the
/// baseline's. Memory is workload-dominated (graph + history footprint), so
/// unlike throughput it is gated without machine scaling — but with a
/// generous allowance for allocator and platform variance.
const MAX_RSS_GROWTH: f64 = 1.5;

/// Timing repetitions per series; the best run is reported (CI noise floor).
const REPS: usize = 5;

/// Smallest history the in-run ratio gates time (a pass of ~100 ms, out of
/// timer and scheduler noise); `--txns` above it raises the gates with it.
const GATE_TXNS: u64 = 40_000;

/// Interleaved rounds per in-run ratio gate; the median ratio is gated. On a
/// 2-vCPU box one round's ratio spreads ±8–11% around the truth (~97% for the
/// observability pair, against its 95% floor): resampling 63 measured rounds,
/// the median of 7 falls under the floor one run in eleven, of 21 one in
/// eighty.
const GATE_ROUNDS: usize = 21;

/// One measured checker configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Series {
    /// `<level>/<flavour>`, e.g. `ser/incremental`.
    name: String,
    /// Best-of-[`REPS`] wall time for one pass, in milliseconds.
    millis: f64,
    /// Transactions per second at that wall time.
    txns_per_sec: f64,
    /// Process peak resident set (`VmHWM`, kB) when the series finished —
    /// monotone across the run, so deltas between consecutive series bound
    /// each series' extra footprint. 0 when the platform has no `/proc`.
    peak_rss_kb: u64,
    /// Live graph nodes resident in the checker after the pass (only
    /// meaningful for the `*-gc` series; 0 for batch checkers, history
    /// size for unbounded streaming ones). Artifact-only, not gated.
    retained_nodes: u64,
}

/// The `BENCH_streaming.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct BenchReport {
    /// Format version.
    schema: u32,
    /// Transactions per measured history (excluding `⊥T`).
    txns: u64,
    /// All measured series.
    series: Vec<Series>,
}

impl BenchReport {
    fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// Process peak resident set in kB (`VmHWM` on Linux; 0 elsewhere).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|n| n.parse().ok())
            })
        })
        .unwrap_or(0)
}

/// Wall seconds of one pass of `run`, which must return a clean verdict.
fn timed_pass(label: &str, mut run: impl FnMut() -> Verdict) -> f64 {
    let start = Instant::now();
    let verdict = run();
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        verdict.is_satisfied(),
        "{label}: the gate history is serial by construction"
    );
    elapsed
}

/// Best-of-[`REPS`] wall time of `run`, in milliseconds.
fn measure(label: &str, mut run: impl FnMut() -> Verdict) -> f64 {
    (0..REPS)
        .map(|_| timed_pass(label, &mut run) * 1e3)
        .fold(f64::MAX, f64::min)
}

/// Throughput of `candidate` as a share of `reference`'s, both clean passes
/// over the same stream: after a warm-up, [`GATE_ROUNDS`] rounds of one pass
/// each, alternating which side goes first, the median of the per-round
/// ratios. Whatever drifts over the run (frequency, the other vCPU's tenant)
/// hits both sides of a round alike.
fn interleaved_ratio(
    label: &str,
    reference: &dyn Fn() -> Verdict,
    candidate: &dyn Fn() -> Verdict,
) -> f64 {
    let timed = |run: &dyn Fn() -> Verdict| timed_pass(label, run);
    // One discarded pass of each side: the first one pays for the pages.
    timed(reference);
    timed(candidate);
    let mut ratios: Vec<f64> = (0..GATE_ROUNDS)
        .map(|round| {
            let (reference_s, candidate_s) = if round % 2 == 0 {
                let r = timed(reference);
                (r, timed(candidate))
            } else {
                let c = timed(candidate);
                (timed(reference), c)
            };
            reference_s / candidate_s
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[GATE_ROUNDS / 2]
}

/// [`interleaved_ratio`], measured again when it reads under `floor` and the
/// better reading kept: the host changes speed by 40% in phases of a second
/// or so, a phase boundary inside a round skews it, and once in ten runs
/// enough rounds are skewed one way to move the median by 3%. A real
/// regression reads under the floor both times.
fn gated_ratio(
    label: &str,
    floor: f64,
    reference: &dyn Fn() -> Verdict,
    candidate: &dyn Fn() -> Verdict,
) -> f64 {
    let first = interleaved_ratio(label, reference, candidate);
    if first >= floor {
        return first;
    }
    println!(
        "gate {label}: {:.1}% on the first reading, measuring again",
        first * 1e2
    );
    first.max(interleaved_ratio(label, reference, candidate))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let txns: u64 = flag("--txns")
        .map(|v| v.parse().expect("--txns takes a number"))
        .unwrap_or(4000);
    let out = flag("--out").unwrap_or_else(|| "BENCH_streaming.json".to_string());
    let baseline_path = flag("--check");

    let history = serial_mt_history(txns, 64, 8);
    let per_level: [(&str, IsolationLevel); 3] = [
        ("ser", IsolationLevel::Serializability),
        ("si", IsolationLevel::SnapshotIsolation),
        ("sser", IsolationLevel::StrictSerializability),
    ];

    let mut series = Vec::new();
    for (tag, level) in per_level {
        let batch_fn: fn(&History) -> Verdict = match level {
            IsolationLevel::Serializability => |h| check_ser(h).unwrap(),
            IsolationLevel::SnapshotIsolation => |h| check_si(h).unwrap(),
            IsolationLevel::StrictSerializability => |h| check_sser(h).unwrap(),
        };
        // Settled-prefix GC series: same stream, bounded resident state.
        // The perf trail records its throughput, peak RSS and how many
        // graph nodes stayed resident (the quantity the GC bounds).
        // Settled-prefix GC series share the measurement loop; the retained
        // node count is captured from the measured reps themselves (no
        // extra pass), and the RSS high-water mark is sampled right after
        // each series so consecutive deltas attribute footprint per series.
        let gc_policy = GcPolicy {
            window: 1024,
            every: 256,
            reader_cap: 0,
        };
        let gc_retained = std::cell::Cell::new(0u64);
        let run_gc = || {
            let mut c = IncrementalChecker::new(level).with_gc(gc_policy);
            let _ = c.push_history(&history);
            gc_retained.set(c.live_node_count() as u64);
            c.finish().unwrap()
        };
        let mut record = |flavour: &str, millis: f64, retained: u64| {
            let name = format!("{tag}/{flavour}");
            let txns_per_sec = txns as f64 / (millis / 1e3);
            let peak_rss = peak_rss_kb();
            println!(
                "{name:<18} {millis:>9.3} ms   {txns_per_sec:>12.0} txns/s   \
                 rss {peak_rss:>8} kB   retained {retained}"
            );
            series.push(Series {
                name,
                millis,
                txns_per_sec,
                peak_rss_kb: peak_rss,
                retained_nodes: retained,
            });
        };
        let millis = measure(&format!("{tag}/batch"), || batch_fn(&history));
        record("batch", millis, 0);
        let millis = measure(&format!("{tag}/incremental"), || {
            check_streaming(level, &history).unwrap()
        });
        record("incremental", millis, 0);
        let millis = measure(&format!("{tag}/incremental-gc"), run_gc);
        record("incremental-gc", millis, gc_retained.get());
    }

    // Observability overhead (schema 5): the streaming SER pass with metric
    // recording enabled, for the artifact trail; the gate on it is measured
    // with the other in-run gate, below.
    {
        let level = IsolationLevel::Serializability;
        mtc_obs::set_enabled(true);
        mtc_obs::registry().reset();
        let millis = measure("ser/incremental-obs", || {
            check_streaming(level, &history).unwrap()
        });
        mtc_obs::set_enabled(false);
        let name = "ser/incremental-obs".to_string();
        let txns_per_sec = txns as f64 / (millis / 1e3);
        let peak_rss = peak_rss_kb();
        println!(
            "{name:<18} {millis:>9.3} ms   {txns_per_sec:>12.0} txns/s   \
             rss {peak_rss:>8} kB"
        );
        series.push(Series {
            name,
            millis,
            txns_per_sec,
            peak_rss_kb: peak_rss,
            retained_nodes: 0,
        });
    }

    // Per-backend execution throughput (schema 3, artifact-only): the same
    // MT workload executed end-to-end against each engine of the fleet.
    // Committed-transaction throughput, best of 3 runs (thread-spawn noise).
    let backend_txns = (txns / 4).max(200);
    let wl_spec = MtWorkloadSpec {
        sessions: 4,
        txns_per_session: (backend_txns / 4).max(1) as u32,
        num_keys: 64,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 0xBE7C,
    };
    let workload = generate_mt_workload(&wl_spec);
    for spec in BackendSpec::fleet(wl_spec.num_keys) {
        let mut best = f64::MAX;
        let mut committed = 0usize;
        for _ in 0..3 {
            let db = spec.build();
            let start = Instant::now();
            let (_, report) = ExecutionOptions::threaded().run(db.as_ref(), &workload);
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            // Keep numerator and denominator from the same run: committed
            // counts vary per run on nondeterministic backends (wait-die).
            if elapsed < best {
                best = elapsed;
                committed = report.committed;
            }
        }
        let name = format!("backend/{}", spec.label());
        let txns_per_sec = committed as f64 / (best / 1e3);
        let peak_rss = peak_rss_kb();
        println!(
            "{name:<18} {best:>9.3} ms   {txns_per_sec:>12.0} txns/s   \
             rss {peak_rss:>8} kB   committed {committed}"
        );
        series.push(Series {
            name,
            millis: best,
            txns_per_sec,
            peak_rss_kb: peak_rss,
            retained_nodes: 0,
        });
    }

    // Remote execution throughput (artifact-only: `backend/net-*` is not in
    // the committed baseline, so these series inform without gating): the
    // same workload against representative engines behind the loopback TCP
    // server, sessions multiplexed by the async ingest driver. The gap to
    // the matching in-process series is the price of a real wire.
    for engine in ["sim-ser", "2pl"] {
        let spec = mtc_net::spec_for_label(engine, wl_spec.num_keys).expect("fleet label");
        let mut best = f64::MAX;
        let mut committed = 0usize;
        for _ in 0..3 {
            let server = mtc_net::NetServer::spawn(spec.clone()).expect("loopback server");
            let db = mtc_net::NetBackend::connect(server.addr()).expect("loopback connect");
            // A blocking engine needs one worker per session (see
            // `Driver::Async`); non-blocking ones showcase the multiplexing
            // with fewer.
            let workers = if spec.blocking() {
                wl_spec.sessions as usize
            } else {
                2
            };
            let start = Instant::now();
            let (_, report) =
                mtc_dbsim::ExecutionOptions::async_workers(workers).run(&db, &workload);
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            if elapsed < best {
                best = elapsed;
                committed = report.committed;
            }
            drop(db);
            let _ = server.shutdown();
        }
        let name = format!("backend/net-{engine}");
        let txns_per_sec = committed as f64 / (best / 1e3);
        let peak_rss = peak_rss_kb();
        println!(
            "{name:<18} {best:>9.3} ms   {txns_per_sec:>12.0} txns/s   \
             rss {peak_rss:>8} kB   committed {committed}"
        );
        series.push(Series {
            name,
            millis: best,
            txns_per_sec,
            peak_rss_kb: peak_rss,
            retained_nodes: 0,
        });
    }

    // Verification-as-a-service scaling curve (schema 4, artifact-only):
    // the `mtc-service` daemon in-process, N concurrent tenants streaming
    // clean synthetic histories over loopback TCP. `millis` records the p99
    // per-batch ingest latency (admission time, backpressure retries
    // included) rather than a pass wall time; `txns_per_sec` the sustained
    // end-to-end verification rate across all tenants. Not gated: the curve
    // depends on core count and loopback scheduling.
    {
        let root = std::env::temp_dir().join(format!("mtc_bench_service_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let server = mtc_service::ServiceServer::spawn(mtc_service::ServiceConfig::new(&root))
            .expect("in-process service daemon spawns");
        for tenants in [1usize, 2, 4, 8] {
            let spec = mtc_service::LoadSpec {
                tenants,
                sessions: 4,
                txns_per_session: 250,
                ..Default::default()
            };
            let point = mtc_service::drive(server.addr(), &spec, &format!("bench{tenants}"))
                .expect("clean synthetic streams verify with zero loss");
            let name = format!("service/tenants-{tenants}");
            let p99_ms = point.p99_ingest_micros as f64 / 1e3;
            let peak_rss = peak_rss_kb();
            println!(
                "{name:<18} {p99_ms:>9.3} ms   {:>12.0} txns/s   rss {peak_rss:>8} kB   \
                 backpressure {}",
                point.txns_per_sec, point.backpressure_hits
            );
            series.push(Series {
                name,
                millis: p99_ms,
                txns_per_sec: point.txns_per_sec,
                peak_rss_kb: peak_rss,
                retained_nodes: 0,
            });
        }
        let _ = server.shutdown();
        let _ = std::fs::remove_dir_all(&root);
        // The in-process daemon switched recording on for its own curve;
        // anything measured after this point must be uninstrumented again.
        mtc_obs::set_enabled(false);
    }

    let report = BenchReport {
        schema: 8,
        txns,
        series,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("wrote {out}");

    // The in-run ratio gates, baseline-free and machine-independent, so they
    // hold on every run even without `--check`. Measured last: their larger
    // history must not count towards the `peak_rss_kb` of any series above.
    //
    // * Observability overhead (schema 5): streaming SER with metric
    //   recording on must reach 95% of the same pass with recording off.
    // * Online-SSER fast path (schema 7): what the time chain costs on top
    //   of streaming SER. Both sides are streaming passes, so the batch
    //   checkers cannot move the ratio (the ratio to the batch SSER checker,
    //   gated until schema 6, is printed for the trail only).
    let tps = |name: &str| {
        report
            .series(name)
            .map(|s| s.txns_per_sec)
            .expect("measured above")
    };
    println!(
        "info sser/incremental: {:.1}% of sser/batch (not gated)",
        tps("sser/incremental") / tps("sser/batch") * 1e2
    );
    let gate_history = (txns < GATE_TXNS).then(|| serial_mt_history(GATE_TXNS, 64, 8));
    let gate_history = gate_history.as_ref().unwrap_or(&history);
    let ser = || check_streaming(IsolationLevel::Serializability, gate_history).unwrap();
    let ser_recorded = || {
        mtc_obs::set_enabled(true);
        let verdict = ser();
        mtc_obs::set_enabled(false);
        verdict
    };
    let sser = || check_streaming(IsolationLevel::StrictSerializability, gate_history).unwrap();
    let gates = [
        (
            "ser/incremental-obs",
            0.95,
            &ser_recorded as &dyn Fn() -> Verdict,
        ),
        ("sser/incremental", 0.50, &sser),
    ]
    .map(|(name, floor, candidate)| (name, floor, gated_ratio(name, floor, &ser, candidate)));
    let mut inrun_failures: Vec<String> = Vec::new();
    for (name, floor, ratio) in gates {
        println!(
            "gate {name}: {:.1}% of ser/incremental (floor {:.0}%)   [{}]",
            ratio * 1e2,
            floor * 1e2,
            if ratio >= floor { "ok" } else { "REGRESSED" }
        );
        if ratio < floor {
            inrun_failures.push(format!(
                "{name} reaches only {:.1}% of ser/incremental measured beside it \
                 (floor {:.0}%)",
                ratio * 1e2,
                floor * 1e2
            ));
        }
    }
    if !inrun_failures.is_empty() {
        eprintln!("in-run gate regression:");
        for f in &inrun_failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }

    let Some(baseline_path) = baseline_path else {
        return;
    };
    let baseline_text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
    let baseline: BenchReport =
        serde_json::from_str(&baseline_text).expect("baseline parses as a BenchReport");

    let mut failures = Vec::new();
    // Machine scale: how much faster/slower this box runs the batch
    // checkers than the baseline box did — the geometric mean over all
    // three levels, so single-series noise cannot skew the expectation.
    let mut log_scale_sum = 0.0f64;
    let mut refs = 0usize;
    for (tag, _) in per_level {
        let reference = format!("{tag}/batch");
        if let (Some(cur), Some(base)) = (report.series(&reference), baseline.series(&reference)) {
            log_scale_sum += (cur.txns_per_sec / base.txns_per_sec).ln();
            refs += 1;
        } else {
            failures.push(format!("missing reference series {reference}"));
        }
    }
    let scale = if refs > 0 {
        (log_scale_sum / refs as f64).exp()
    } else {
        1.0
    };
    println!("gate machine scale vs baseline: {scale:.3}");
    for (tag, _) in per_level {
        for flavour in ["incremental", "incremental-gc"] {
            let name = format!("{tag}/{flavour}");
            let (Some(cur), Some(base)) = (report.series(&name), baseline.series(&name)) else {
                failures.push(format!("missing series {name}"));
                continue;
            };
            let cur_tps = cur.txns_per_sec;
            let expected = base.txns_per_sec * scale;
            let ratio = cur_tps / expected;
            let verdict = if ratio >= MIN_RELATIVE_THROUGHPUT {
                "ok"
            } else {
                failures.push(format!(
                    "{name}: {cur_tps:.0} txns/s is {:.0}% of the machine-scaled baseline \
                     ({expected:.0} txns/s expected)",
                    ratio * 100.0,
                ));
                "REGRESSED"
            };
            println!(
                "gate {name:<18} {:>6.1}% of scaled baseline   [{verdict}]",
                ratio * 100.0
            );
        }
    }
    // Peak-RSS gate: the run's memory high-water mark (`VmHWM` is monotone,
    // so the max over the series is the whole run's footprint) must stay
    // within [`MAX_RSS_GROWTH`] of the baseline's. Skipped when either side
    // recorded 0 (no `/proc` on that platform). The `service/*` series are
    // excluded from the gate on both sides: the in-process daemon carries N
    // tenants' checkers plus the load threads, so its footprint measures
    // the *service* (artifact-only, like its latency), not the checkers
    // this gate protects — and `VmHWM`'s monotony would otherwise leak that
    // footprint into the checker gate forever after.
    let gated_peak = |r: &BenchReport| {
        r.series
            .iter()
            .filter(|s| !s.name.starts_with("service/"))
            .map(|s| s.peak_rss_kb)
            .max()
            .unwrap_or(0)
    };
    let cur_peak = gated_peak(&report);
    let base_peak = gated_peak(&baseline);
    if cur_peak > 0 && base_peak > 0 {
        let ratio = cur_peak as f64 / base_peak as f64;
        let verdict = if ratio <= MAX_RSS_GROWTH {
            "ok"
        } else {
            failures.push(format!(
                "peak_rss_kb: {cur_peak} kB is {:.0}% of the baseline's {base_peak} kB \
                 (limit {:.0}%)",
                ratio * 100.0,
                MAX_RSS_GROWTH * 100.0
            ));
            "REGRESSED"
        };
        println!(
            "gate peak_rss_kb       {:>6.1}% of baseline          [{verdict}]",
            ratio * 100.0
        );
    }
    if !failures.is_empty() {
        eprintln!(
            "streaming throughput regression (> {:.0}% drop):",
            (1.0 - MIN_RELATIVE_THROUGHPUT) * 100.0
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!(
        "gate passed: no streaming series regressed more than {:.0}%",
        (1.0 - MIN_RELATIVE_THROUGHPUT) * 100.0
    );
}
