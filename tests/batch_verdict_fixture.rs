//! The batch checkers against two fixtures.
//!
//! `tests/data/batch-verdicts-v13.txt` was written by the build *before* the
//! shared write index (PR 13): for the 14-anomaly catalogue, two malformed
//! histories and 34 seeded executions, the SER / SI / SSER outcome of
//! `check_ser` / `check_si` / `check_sser` as that build gave it, and this
//! build must reproduce the file byte for byte. Everything but a cycle's
//! edges is in it literally: errors, `Satisfied`, the full intra-anomaly
//! list, the DIVERGENCE payload. A cycle is there by class only — the file
//! says `Cycle` — because the builds up to PR 19 inserted their `RW` edges in
//! the iteration order of a `RandomState` map: which of several cycles they
//! found differed from process to process, and the PR 13 build cannot
//! reproduce its own. What is checked here instead is that the reported edges
//! are real: each one is an edge of `build_dependency`'s graph (or, for `RT`,
//! holds between the two transactions' instants) and together they close.
//!
//! `tests/data/batch-cycles-pr20.txt` holds the edges: for every history of
//! the same corpus and each of SER / SI / SSER whose verdict is a `Cycle`,
//! the certificate as the PR 20 build reported it — the first build whose
//! edge order is a function of the history alone (`mtc_core::build`, "Edge
//! order"). A change to `BUILDDEPENDENCY` or to a cycle search that keeps
//! every verdict but reports another counterexample fails here, edge for
//! edge. To regenerate after such a change made on purpose: empty the file,
//! run `cargo test --release --offline --test batch_verdict_fixture` in two
//! separate processes, keeping `<target>/tmp/batch-cycles.actual.txt` of
//! each, and copy it over the fixture only if the two runs wrote the same
//! bytes; say in CHANGES.md why the certificates moved.

use mtc::core::{
    build_dependency, build_dependency_reference, check_batch, check_batch_reference, check_ser,
    check_si, check_sser, check_sser_naive, BatchCheck, CheckError, Verdict, Violation,
};
use mtc::dbsim::{
    BackendSpec, ClientOptions, DbConfig, ExecutionOptions, FaultKind, FaultSpec, IsolationMode,
    WeakLevel,
};
use mtc::history::anomalies::AnomalyKind;
use mtc::history::{Edge, EdgeKind, History, HistoryBuilder, Op};
use mtc::workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use std::fmt::Write;

const FIXTURE: &str = include_str!("data/batch-verdicts-v13.txt");
const CYCLES: &str = include_str!("data/batch-cycles-pr20.txt");

/// Aborted attempts are recorded, as in the benchmark: they are what the
/// index's any-status side is for.
const CLIENT: ClientOptions = ClientOptions {
    max_retries: 1_000,
    record_aborted: true,
};

fn execute(
    backend: &BackendSpec,
    seed: u64,
    keys: u64,
    distribution: Distribution,
    txns: u32,
) -> History {
    let spec = MtWorkloadSpec {
        sessions: 2,
        txns_per_session: txns,
        num_keys: keys,
        distribution,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed,
    };
    let db = backend.build();
    ExecutionOptions::interleaved(seed)
        .client(CLIENT)
        .run(db.as_ref(), &generate_mt_workload(&spec))
        .0
}

fn sim_ser(keys: u64) -> DbConfig {
    DbConfig::correct(IsolationMode::Serializable, keys)
}

/// The benchmark's fault probe: Zipf(1.0) over 1 000 keys, both commit-time
/// validations skipped half of the time: some two thousand transactions
/// whose graph is cyclic in many places.
fn sim_ser_faulty(seed: u64) -> History {
    let faulty = BackendSpec::Sim(sim_ser(1_000).with_faults(
        vec![
            FaultSpec::new(FaultKind::SkipWriteValidation, 0.5),
            FaultSpec::new(FaultKind::SkipReadValidation, 0.5),
        ],
        seed,
    ));
    execute(
        &faulty,
        seed,
        1_000,
        Distribution::Zipf { theta: 1.0 },
        1_000,
    )
}

/// The named histories of the fixture, in file order.
fn histories() -> Vec<(String, History)> {
    let mut out: Vec<(String, History)> = AnomalyKind::ALL
        .iter()
        .map(|kind| (format!("catalogue/{kind}"), kind.history()))
        .collect();
    // Not mini-transaction histories: the checkers answer with an error.
    let mut b = HistoryBuilder::new().with_init(1);
    b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
    b.aborted(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
    b.committed(1, vec![Op::read(0u64, 5u64), Op::write(0u64, 6u64)]);
    b.committed(2, vec![Op::read(0u64, 6u64), Op::write(0u64, 5u64)]);
    out.push(("handmade/duplicate-value".to_string(), b.build()));
    let mut b = HistoryBuilder::new().with_init(2);
    b.committed(0, vec![Op::read(0u64, 0u64), Op::write(1u64, 1u64)]);
    out.push(("handmade/blind-write".to_string(), b.build()));
    for seed in 1..=10 {
        let clean = BackendSpec::Sim(sim_ser(40));
        out.push((
            format!("sim-ser/{seed}"),
            execute(&clean, seed, 40, Distribution::Uniform, 300),
        ));
        out.push((format!("sim-ser-faulty/{seed}"), sim_ser_faulty(seed)));
    }
    for seed in 1..=8 {
        let weak = BackendSpec::WeakMvcc(WeakLevel::ReadCommitted);
        out.push((
            format!("weak-rc/{seed}"),
            execute(&weak, seed, 40, Distribution::Uniform, 300),
        ));
    }
    // Aborted reads and real-time-only violations, from the engine itself.
    for (label, kind) in [
        ("dirty-release", FaultKind::DirtyRelease),
        ("commit-ts-skew", FaultKind::CommitTimestampSkew),
    ] {
        for seed in 1..=3 {
            let faults = vec![FaultSpec::new(kind, 0.2)];
            let faulty = BackendSpec::Sim(sim_ser(40).with_faults(faults, seed));
            out.push((
                format!("sim-ser-{label}/{seed}"),
                execute(&faulty, seed, 40, Distribution::Uniform, 300),
            ));
        }
    }
    out
}

/// Panics unless `edges` is a closed walk of real dependencies of `history`.
fn assert_cycle_is_real(name: &str, history: &History, edges: &[Edge]) {
    assert!(!edges.is_empty(), "{name}: empty cycle");
    let graph = build_dependency(history, false).expect("the checker built this graph");
    for (i, e) in edges.iter().enumerate() {
        let real = match e.kind {
            EdgeKind::Rt => history.txn(e.from).precedes_in_real_time(history.txn(e.to)),
            kind => graph.contains_edge(e.from, e.to, kind),
        };
        assert!(real, "{name}: {e:?} is not a dependency of the history");
        let next = &edges[(i + 1) % edges.len()];
        assert_eq!(e.to, next.from, "{name}: the cycle does not close at {e:?}");
    }
}

/// Panics unless `edges` is, besides real and closed, a cycle of the graph
/// `CHECKSI` searches: `(SO ∪ WR ∪ WW) ; RW?` has at most one `RW` edge per
/// hop and each hop starts with a base edge, so no two `RW` edges are ever
/// adjacent — the last and the first included.
fn assert_si_cycle_is_well_formed(name: &str, history: &History, edges: &[Edge]) {
    assert_cycle_is_real(name, history, edges);
    for (i, e) in edges.iter().enumerate() {
        let next = &edges[(i + 1) % edges.len()];
        assert!(
            !(e.kind.is_rw() && next.kind.is_rw()),
            "{name}: {e:?} then {next:?} is no path of (SO ∪ WR ∪ WW) ; RW?"
        );
        assert_ne!(e.kind, EdgeKind::Rt, "{name}: CHECKSI knows no real time");
    }
}

fn render(name: &str, history: &History, outcome: Result<Verdict, CheckError>) -> String {
    match outcome {
        Err(e) => format!("Err({e:?})"),
        Ok(Verdict::Satisfied) => "Satisfied".to_string(),
        Ok(Verdict::Violated(Violation::Intra(list))) => format!("Intra({list:?})"),
        Ok(Verdict::Violated(Violation::Divergence {
            key,
            value,
            writer,
            reader1,
            reader2,
        })) => format!(
            "Divergence{{key:{key:?},value:{value:?},writer:{writer:?},\
             reader1:{reader1:?},reader2:{reader2:?}}}"
        ),
        Ok(Verdict::Violated(Violation::Cycle { edges })) => {
            assert_cycle_is_real(name, history, &edges);
            "Cycle".to_string()
        }
        Ok(Verdict::Violated(other)) => panic!("{name}: unexpected violation {other:?}"),
    }
}

fn render_all() -> String {
    let mut out = String::new();
    for (name, h) in histories() {
        writeln!(
            out,
            "{name} txns={} committed={} ops={}",
            h.len(),
            h.committed_count(),
            h.op_count()
        )
        .unwrap();
        writeln!(out, "  SER  {}", render(&name, &h, check_ser(&h))).unwrap();
        writeln!(out, "  SI   {}", render(&name, &h, check_si(&h))).unwrap();
        writeln!(out, "  SSER {}", render(&name, &h, check_sser(&h))).unwrap();
        if name.starts_with("catalogue/") {
            // Θ(n²): only on the hand-written histories.
            writeln!(
                out,
                "  SSER-naive {}",
                render(&name, &h, check_sser_naive(&h))
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn batch_verdicts_match_the_parent_written_fixture() {
    let actual = render_all();
    if actual == FIXTURE {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("batch-verdicts.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual rendering");
    let line = actual
        .lines()
        .zip(FIXTURE.lines())
        .position(|(a, f)| a != f)
        .unwrap_or_else(|| actual.lines().count().min(FIXTURE.lines().count()));
    panic!(
        "verdicts differ from tests/data/batch-verdicts-v13.txt at line {}; \
         this build's rendering is in {}",
        line + 1,
        path.display()
    );
}

/// Every `Cycle` verdict of SER / SI / SSER over the corpus, edges in clear.
fn render_cycles() -> String {
    let mut out = String::new();
    for (name, h) in histories() {
        let outcomes = [
            ("SER", check_ser(&h)),
            ("SI", check_si(&h)),
            ("SSER", check_sser(&h)),
        ];
        for (level, outcome) in outcomes {
            if let Ok(Verdict::Violated(Violation::Cycle { edges })) = outcome {
                writeln!(out, "{name} {level} {edges:?}").unwrap();
            }
        }
    }
    out
}

#[test]
fn batch_cycles_match_the_pr20_fixture_edge_for_edge() {
    let actual = render_cycles();
    if actual == CYCLES {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("batch-cycles.actual.txt");
    std::fs::write(&path, &actual).expect("write the actual rendering");
    let line = (actual.lines().zip(CYCLES.lines())).take_while(|(a, f)| a == f);
    panic!(
        "certificates differ from tests/data/batch-cycles-pr20.txt at line {}; \
         this build's rendering is in {}",
        line.count() + 1,
        path.display()
    );
}

/// A history checked twice gives the same graph and the same counterexample.
///
/// Up to PR 19 this failed with near certainty: `build_impl` grouped its
/// `WR` / `WW` edges in `HashMap`s, every `HashMap::new()` draws fresh
/// `RandomState` keys, and the `RW` edges went into the graph in the
/// iteration order of one of those maps — another edge list on every call,
/// and on a history with several cycles another certificate.
#[test]
fn certificates_are_reproducible() {
    const CALLS: usize = 16;
    let faulty = sim_ser_faulty(1);
    for build in [build_dependency, build_dependency_reference] {
        let first = build(&faulty, false).unwrap();
        for _ in 1..CALLS {
            assert_eq!(build(&faulty, false).unwrap().edges(), first.edges());
        }
    }
    // `CHECKSI` answers the faulty execution with a DIVERGENCE before it
    // builds anything. Its cycle comes from five long forks in a ring: every
    // writer is followed, in its session, by a reader of the next two keys
    // at their initial value, so every writer reaches two others through
    // `SO ; RW`.
    let mut ring = HistoryBuilder::new().with_init(5);
    for i in 0..5u64 {
        let (next, after) = ((i + 1) % 5, (i + 2) % 5);
        ring.committed(i as u32, vec![Op::read(i, 0u64), Op::write(i, i + 1)]);
        ring.committed(i as u32, vec![Op::read(next, 0u64), Op::read(after, 0u64)]);
    }
    let ring = ring.build();
    let checks = [
        (BatchCheck::Ser, &faulty),
        (BatchCheck::Sser, &faulty),
        (BatchCheck::Si, &ring),
        (BatchCheck::Ser, &ring),
    ];
    for (path, run) in [
        ("optimized", check_batch as fn(_, &_) -> _),
        ("reference", check_batch_reference),
    ] {
        for (check, history) in checks {
            let first = run(check, history).unwrap().verdict;
            let name = format!("{check:?}, {path} build");
            assert!(
                matches!(first.violation(), Some(Violation::Cycle { .. })),
                "{name}: {first:?}"
            );
            for _ in 1..CALLS {
                assert_eq!(run(check, history).unwrap().verdict, first, "{name}");
            }
        }
    }
}

/// `CHECKSI` rebuilds the hops of the cycle it found from the dependency
/// graph instead of remembering where every composed edge came from; every
/// cycle it reports must still be a well-formed counterexample.
#[test]
fn si_counterexamples_are_cycles_of_the_composed_graph() {
    let mut cycles = 0;
    for (name, h) in histories() {
        if let Ok(Verdict::Violated(Violation::Cycle { edges })) = check_si(&h) {
            assert_si_cycle_is_well_formed(&name, &h, &edges);
            cycles += 1;
        }
    }
    // The catalogue alone has five (`SI   Cycle` in the fixture).
    assert!(cycles >= 5, "only {cycles} SI cycles were looked at");
}

#[test]
fn the_fixture_exercises_every_outcome_class() {
    for class in [
        " Err(NotMiniTransaction(DuplicateValue",
        " Err(NotMiniTransaction(WriteWithoutRead",
        " Satisfied",
        " Intra(",
        " Divergence{",
        " Cycle",
        "AbortedRead",
        "IntermediateRead",
    ] {
        assert!(FIXTURE.contains(class), "no `{class}` in the fixture");
    }
}
