//! One dependency graph per batch verdict, held by a count: `verify` reports
//! its memory estimate from the graph the check built, so `BUILDDEPENDENCY`
//! (the `core.dependency_builds` counter) runs exactly once per call — and
//! the estimate is still the formula it always was: the edges of
//! `build_dependency(history, false)` × 24 plus `history_memory_bytes`. The
//! reference build and the naive `CHECKSSER` go through the same
//! `BUILDDEPENDENCY` on the same shared write index: one graph each too, with
//! the closure `WW` and the `RT` edges they always had.

use mtc_core::{
    build_dependency, build_dependency_reference, check_batch, check_batch_reference, check_ser,
    check_si, BatchCheck, CheckError, Checked, Verdict,
};
use mtc_history::{History, HistoryBuilder, Op};
use mtc_runner::exec::history_memory_bytes;
use mtc_runner::{verify, Checker, VerifyOutcome};

const BATCH: [Checker; 4] = [
    Checker::MtcSer,
    Checker::MtcSi,
    Checker::MtcSser,
    Checker::MtcSserNaive,
];

/// Serial read-modify-writes over four keys, three sessions, timed.
fn satisfied_history() -> History {
    let mut state = [0u64; 4];
    let mut b = HistoryBuilder::new().with_init(4);
    for i in 0..60u64 {
        let k = (i * 7 + 3) % 4;
        let ops = vec![Op::read(k, state[k as usize]), Op::write(k, i + 1)];
        state[k as usize] = i + 1;
        b.committed_timed((i % 3) as u32, ops, 10 * i + 1, 10 * i + 5);
    }
    b.build()
}

/// `verify(checker, history)` with recording on, and how many dependency
/// graphs it built.
fn counted(checker: Checker, history: &History) -> (VerifyOutcome, u64) {
    let builds = mtc_obs::registry().counter("core.dependency_builds");
    let before = builds.get();
    let outcome = verify(checker, history);
    (outcome, builds.get() - before)
}

#[test]
fn a_satisfied_verdict_builds_exactly_one_graph() {
    let _on = mtc_obs::test_support::with_enabled(true);
    let history = satisfied_history();
    let edges = build_dependency(&history, false).unwrap().edge_count();
    let expected = history_memory_bytes(&history) + edges * 24;
    for checker in BATCH {
        let (outcome, builds) = counted(checker, &history);
        assert!(!outcome.violated, "{checker:?}: {}", outcome.detail);
        assert_eq!(builds, 1, "{checker:?} built {builds} dependency graphs");
        // `MtcSserNaive`'s graph also carries RT edges; the estimate leaves
        // them out, as `build_dependency(history, false)` does.
        assert_eq!(outcome.memory_bytes, expected, "{checker:?}");
    }
}

#[test]
fn a_verdict_reached_before_the_graph_builds_it_for_the_estimate_only() {
    let _on = mtc_obs::test_support::with_enabled(true);
    // Lost update: CHECKSI leaves at DIVERGENCE, before BUILDDEPENDENCY.
    let history = mtc_history::anomalies::lost_update();
    let edges = build_dependency(&history, false).unwrap().edge_count();
    for checker in BATCH {
        let (outcome, builds) = counted(checker, &history);
        assert!(outcome.violated, "{checker:?}");
        assert_eq!(builds, 1, "{checker:?} built {builds} dependency graphs");
        assert_eq!(
            outcome.memory_bytes,
            history_memory_bytes(&history) + edges * 24,
            "{checker:?}"
        );
    }
}

#[test]
fn the_reference_and_naive_paths_build_one_graph_with_the_edges_they_always_had() {
    let _on = mtc_obs::test_support::with_enabled(true);
    let history = satisfied_history();
    // Edge counts of this history as the PR 16 build gave them: the plain
    // graph, with the per-object `WW` closure (and the `RW` edges derived
    // from it), and with every `RT` edge materialized.
    const PLAIN: usize = 180;
    const CLOSED: usize = 1_020;
    const WITH_RT: usize = 2_010;
    let edges = |g: Result<mtc_history::DependencyGraph, _>| g.map(|g| g.edge_count());
    assert_eq!(edges(build_dependency(&history, false)), Ok(PLAIN));
    assert_eq!(
        edges(build_dependency_reference(&history, false)),
        Ok(CLOSED)
    );
    assert_eq!(edges(build_dependency(&history, true)), Ok(WITH_RT));

    let builds = mtc_obs::registry().counter("core.dependency_builds");
    type Run = fn(BatchCheck, &History) -> Result<Checked, CheckError>;
    let (optimized, reference): (Run, Run) = (check_batch, check_batch_reference);
    for (check, run, path, expected) in [
        (BatchCheck::Ser, reference, "reference", CLOSED),
        (BatchCheck::Si, reference, "reference", CLOSED),
        (BatchCheck::Sser, reference, "reference", CLOSED),
        // `dep_edges` leaves the `RT` edges of the naive graph out.
        (BatchCheck::SserNaive, optimized, "optimized", PLAIN),
        (BatchCheck::SserNaive, reference, "reference", CLOSED),
    ] {
        let before = builds.get();
        let checked = run(check, &history).unwrap();
        assert_eq!(builds.get() - before, 1, "{check:?} {path}");
        assert_eq!(checked.verdict, Verdict::Satisfied, "{check:?} {path}");
        assert_eq!(checked.dep_edges, Some(expected), "{check:?} {path}");
    }
    // The verdict-only fronts are the same call.
    let before = builds.get();
    assert_eq!(check_ser(&history), Ok(Verdict::Satisfied));
    assert_eq!(check_si(&history), Ok(Verdict::Satisfied));
    assert_eq!(builds.get() - before, 2);
}
