//! CI perf gate for the streaming checkers: four kinds of in-run ratio that
//! fail the run when they regress.
//!
//! The gates compare two passes of *this* run, so they need no baseline file
//! and no machine scale, and no speed-up elsewhere in the tree can move them:
//!
//! | gate | ratio | bound | reads |
//! |---|---|---|---|
//! | `ser/incremental-obs` | recording on ÷ off, streaming SER | ≥ 0.95 | 0.95–1.02 |
//! | `sser/incremental` | streaming SSER ÷ streaming SER | ≥ 0.50 | 0.65–0.80 (the splice slow path the time chain replaced: 0.43) |
//! | `<level>/incremental-gc` | GC'd ÷ un-GC'd, same level | ≥ 0.85 | SER 1.03–1.53, SI 1.24–1.67, SSER 1.05–1.27 |
//! | `<level>/peak-rss-gc` | peak RSS GC'd ÷ un-GC'd, same level | ≤ 0.45 | SER 0.31–0.34, SI 0.21–0.22, SSER 0.26–0.29 |
//!
//! A pass over a few thousand transactions lasts a few milliseconds, and on
//! a 2-vCPU box two such timings taken seconds apart differ by more than any
//! of these bounds allows. Each throughput pair is therefore timed on a
//! history of [`GATE_TXNS`] transactions, the two sides interleaved round by
//! round (alternating which goes first), the gated number the median of the
//! [`GATE_ROUNDS`] per-round ratios, measured once more if it reads under its
//! floor. Peak RSS (`VmHWM`) only ever rises within a process, so each side of
//! a memory gate is a child of this binary that streams the gate history once
//! and prints its own high-water mark (it repeats to half a percent: 31, 53
//! and 39 MB un-GC'd, 9.7–11 MB GC'd, most of that the history both sides
//! hold). At 40 000 transactions the collected pass is the faster one — it
//! touches less memory — so its floor sits under 1.0 by what a round's noise
//! allows, not by a toll collection is expected to take.
//!
//! Throughput itself is measured end to end by the `benchmark/` package
//! (`core.check_*_s`, `core.stream_*_txns_per_s` in a traced run).
//!
//! ```text
//! cargo run --release -p mtc-core --bin streaming_bench_gate
//! ```

use mtc_core::{GcPolicy, IncrementalChecker, IsolationLevel, Verdict};
use mtc_history::synthetic::serial_rmw_history;
use mtc_history::History;
use std::time::Instant;

/// Floor of `<level>/incremental-gc ÷ <level>/incremental`.
const MIN_GC_THROUGHPUT: f64 = 0.85;

/// Ceiling of a GC'd pass's peak RSS over the un-GC'd pass's.
const MAX_GC_RSS: f64 = 0.45;

/// The collection policy of every `*-gc` gate.
const GC_POLICY: GcPolicy = GcPolicy {
    window: 1024,
    every: 256,
};

/// The history the in-run ratio gates time (a pass of ~100 ms, out of timer
/// and scheduler noise).
const GATE_TXNS: u64 = 40_000;

/// Interleaved rounds per in-run ratio gate; the median ratio is gated. On a
/// 2-vCPU box one round's ratio spreads ±8–11% around the truth (~97% for the
/// observability pair, against its 95% floor): resampling 63 measured rounds,
/// the median of 7 falls under the floor one run in eleven, of 21 one in
/// eighty.
const GATE_ROUNDS: usize = 21;

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
    let per_level: [(&str, IsolationLevel); 3] = [
        ("ser", IsolationLevel::Serializability),
        ("si", IsolationLevel::SnapshotIsolation),
        ("sser", IsolationLevel::StrictSerializability),
    ];

    // Child mode of the memory gates: `--peak-rss-of <level> <gc|plain>`.
    if let Some(at) = args.iter().position(|a| a == "--peak-rss-of") {
        let level = per_level.iter().find(|(tag, _)| *tag == args[at + 1]);
        let (_, level) = level.expect("a level tag");
        let (verdict, _) = stream(
            *level,
            &serial_rmw_history(GATE_TXNS, 64, 8),
            args[at + 2] == "gc",
        );
        assert!(verdict.is_satisfied());
        println!("{}", peak_rss_kb());
        return;
    }

    // The in-run gates (see the module docs).
    let gate_history = &serial_rmw_history(GATE_TXNS, 64, 8);
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
