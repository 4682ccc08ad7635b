//! CI perf gate for the streaming checkers: a throughput trail, and four
//! kinds of in-run ratio that fail the run when they regress.
//!
//! The trail is `BENCH_streaming.json` (uploaded as a CI artifact): for every
//! isolation level the batch checker, the streaming checker and the streaming
//! checker under settled-prefix GC over one synthetic serial history, best of
//! [`REPS`], plus series nothing gates — `ser/incremental-obs` (streaming SER
//! with `mtc-obs` recording on), `backend/<label>` (one MT workload executed
//! against each engine of the fleet, in process and behind loopback TCP) and
//! `service/tenants-N` (the daemon in process, N tenants over loopback;
//! `millis` is the p99 per-batch ingest latency there).
//!
//! The gates compare two passes of *this* run, so they need no baseline file
//! and no machine scale, and no speed-up elsewhere in the tree can move them:
//!
//! | gate | ratio | bound | reads |
//! |---|---|---|---|
//! | `ser/incremental-obs` | recording on ÷ off, streaming SER | ≥ 0.95 | 0.96–1.02 |
//! | `sser/incremental` | streaming SSER ÷ streaming SER | ≥ 0.50 | 0.65–0.80 (the splice slow path the time chain replaced: 0.43) |
//! | `<level>/incremental-gc` | GC'd ÷ un-GC'd, same level | ≥ 0.85 | SER 1.03–1.12, SI 1.24–1.39, SSER 1.05–1.17 |
//! | `<level>/peak-rss-gc` | peak RSS GC'd ÷ un-GC'd, same level | ≤ 0.45 | SER 0.31, SI 0.21, SSER 0.26 |
//!
//! A pass over the default 4 000 transactions lasts a few milliseconds, and
//! on a 2-vCPU box two such timings taken seconds apart differ by more than
//! any of these bounds allows. The throughput gates are therefore measured on
//! their own at the end of the run: each pair on a history of at least
//! [`GATE_TXNS`] transactions, the two sides interleaved round by round
//! (alternating which goes first), the gated number the median of the
//! [`GATE_ROUNDS`] per-round ratios, measured once more if it reads under its
//! floor. Peak RSS (`VmHWM`) only ever rises within a process, so each side of
//! a memory gate is a child of this binary that streams the gate history once
//! and prints its own high-water mark (it repeats to half a percent: 31, 53
//! and 39 MB un-GC'd, 9.7–11 MB GC'd, most of that the history both sides
//! hold). At 40 000 transactions the collected pass is the faster one — it
//! touches less memory — so its floor sits under 1.0 by what a round's noise
//! allows, not by a toll collection is expected to take.
//!
//! ```text
//! cargo run --release -p mtc-bench --bin streaming_bench_gate -- --out BENCH_streaming.json
//! ```
//!
//! Flags: `--txns N` sets the history size of the trail (default 4000; the
//! gates use at least [`GATE_TXNS`]), `--out PATH` the report path.

use mtc_core::{
    check_ser, check_si, check_sser, GcPolicy, IncrementalChecker, IsolationLevel, Verdict,
};
use mtc_dbsim::{BackendSpec, ExecutionOptions};
use mtc_history::synthetic::serial_rmw_history;
use mtc_history::History;
use mtc_workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use serde::Serialize;
use std::time::Instant;

/// Floor of `<level>/incremental-gc ÷ <level>/incremental`.
const MIN_GC_THROUGHPUT: f64 = 0.85;

/// Ceiling of a GC'd pass's peak RSS over the un-GC'd pass's.
const MAX_GC_RSS: f64 = 0.45;

/// The collection policy of every `*-gc` series and gate.
const GC_POLICY: GcPolicy = GcPolicy {
    window: 1024,
    every: 256,
};

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
#[derive(Clone, Debug, Serialize)]
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
#[derive(Clone, Debug, Serialize)]
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

/// One streaming pass over `history` at `level`, collected under
/// [`GC_POLICY`] or not at all; returns the live nodes it ended with.
fn stream(level: IsolationLevel, history: &History, gc: bool) -> (Verdict, u64) {
    let mut c = IncrementalChecker::new(level);
    if gc {
        c.set_gc(GC_POLICY);
    }
    let _ = c.push_history(history);
    let retained = c.live_node_count() as u64;
    (c.finish().unwrap(), retained)
}

/// Peak RSS in kB of a child of this binary that streams the gate history
/// once at `level`; 0 where the platform has no `/proc`.
fn child_peak_rss_kb(level: &str, gc: bool) -> u64 {
    let exe = std::env::current_exe().expect("own path");
    let side = if gc { "gc" } else { "plain" };
    let out = std::process::Command::new(exe)
        .args(["--peak-rss-of", level, side])
        .output()
        .expect("the gate re-runs itself");
    assert!(out.status.success(), "peak-RSS child of {level} failed");
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim().parse().expect("the child prints one number")
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
    let per_level: [(&str, IsolationLevel); 3] = [
        ("ser", IsolationLevel::Serializability),
        ("si", IsolationLevel::SnapshotIsolation),
        ("sser", IsolationLevel::StrictSerializability),
    ];
    let gate_txns = txns.max(GATE_TXNS);

    // Child mode of the memory gates: `--peak-rss-of <level> <gc|plain>`.
    if let Some(at) = args.iter().position(|a| a == "--peak-rss-of") {
        let level = per_level.iter().find(|(tag, _)| *tag == args[at + 1]);
        let (_, level) = level.expect("a level tag");
        let (verdict, _) = stream(
            *level,
            &serial_rmw_history(gate_txns, 64, 8),
            args[at + 2] == "gc",
        );
        assert!(verdict.is_satisfied());
        println!("{}", peak_rss_kb());
        return;
    }

    let history = serial_rmw_history(txns, 64, 8);

    let mut series = Vec::new();
    for (tag, level) in per_level {
        let batch_fn: fn(&History) -> Verdict = match level {
            IsolationLevel::Serializability => |h| check_ser(h).unwrap(),
            IsolationLevel::SnapshotIsolation => |h| check_si(h).unwrap(),
            IsolationLevel::StrictSerializability => |h| check_sser(h).unwrap(),
        };
        // Settled-prefix GC series: same stream, bounded resident state.
        // The retained node count (the quantity the GC bounds) comes from
        // the measured reps themselves, and the RSS high-water mark is
        // sampled right after each series so consecutive deltas attribute
        // footprint per series.
        let gc_retained = std::cell::Cell::new(0u64);
        let run_gc = || {
            let (verdict, retained) = stream(level, &history, true);
            gc_retained.set(retained);
            verdict
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
            stream(level, &history, false).0
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
        let millis = measure("ser/incremental-obs", || stream(level, &history, false).0);
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
    // server, one connection per session thread. The gap to the matching
    // in-process series is the price of a real wire.
    for engine in ["sim-ser", "2pl"] {
        let spec = mtc_net::spec_for_label(engine, wl_spec.num_keys).expect("fleet label");
        let mut best = f64::MAX;
        let mut committed = 0usize;
        for _ in 0..3 {
            let server = mtc_net::NetServer::spawn(spec.clone()).expect("loopback server");
            let db = mtc_net::NetBackend::connect(server.addr()).expect("loopback connect");
            let start = Instant::now();
            let (_, report) = mtc_dbsim::ExecutionOptions::threaded().run(&db, &workload);
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

    // The in-run gates (see the module docs). Measured last: their larger
    // history must not count towards the `peak_rss_kb` of any series above.
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
    let gate_history = (gate_txns > txns).then(|| serial_rmw_history(gate_txns, 64, 8));
    let gate_history = gate_history.as_ref().unwrap_or(&history);
    let plain = |level| move || stream(level, gate_history, false).0;
    let collected = |level| move || stream(level, gate_history, true).0;
    let ser = plain(IsolationLevel::Serializability);
    let ser_recorded = || {
        mtc_obs::set_enabled(true);
        let verdict = ser();
        mtc_obs::set_enabled(false);
        verdict
    };
    let mut failures: Vec<String> = Vec::new();
    let mut report_gate = |line: String, ok: bool| {
        println!("gate {line}   [{}]", if ok { "ok" } else { "REGRESSED" });
        if !ok {
            failures.push(line);
        }
    };
    type Pass<'a> = &'a dyn Fn() -> Verdict;
    let mut throughput_gate =
        |name: &str, of: &str, floor: f64, reference: Pass, candidate: Pass| {
            let ratio = gated_ratio(name, floor, reference, candidate);
            let (ratio_pc, floor_pc) = (ratio * 1e2, floor * 1e2);
            let line = format!("{name}: {ratio_pc:.1}% of {of} (floor {floor_pc:.0}%)");
            report_gate(line, ratio >= floor);
        };
    let sser = plain(IsolationLevel::StrictSerializability);
    throughput_gate(
        "ser/incremental-obs",
        "ser/incremental",
        0.95,
        &ser,
        &ser_recorded,
    );
    throughput_gate("sser/incremental", "ser/incremental", 0.50, &ser, &sser);
    for (tag, level) in per_level {
        let (name, of) = (
            format!("{tag}/incremental-gc"),
            format!("{tag}/incremental"),
        );
        throughput_gate(
            &name,
            &of,
            MIN_GC_THROUGHPUT,
            &plain(level),
            &collected(level),
        );
    }
    for (tag, _) in per_level {
        let (gc, plain) = (child_peak_rss_kb(tag, true), child_peak_rss_kb(tag, false));
        if gc > 0 && plain > 0 {
            let ratio = gc as f64 / plain as f64;
            let (ratio_pc, ceiling_pc) = (ratio * 1e2, MAX_GC_RSS * 1e2);
            let line = format!(
                "{tag}/peak-rss-gc: {ratio_pc:.1}% of the un-GC'd pass's {plain} kB \
                 (ceiling {ceiling_pc:.0}%)"
            );
            report_gate(line, ratio <= MAX_GC_RSS);
        }
    }
    if !failures.is_empty() {
        eprintln!("in-run gate regression:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
