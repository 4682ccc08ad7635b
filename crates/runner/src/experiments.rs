//! One parameterized sweep per table and figure of the paper's evaluation.
//!
//! Every function takes a [`Scale`] and returns [`Table`]s whose columns
//! mirror the axes of the corresponding plot; [`EXPERIMENTS`] lists them by
//! name, and the `run_all_experiments` binary prints and persists them. Each
//! sweep's sizes live in one `at(scale)`: [`Scale::Quick`] takes seconds
//! (the test suite and CI), [`Scale::Paper`] is the scale of the original
//! evaluation, within what the simulator and baselines can handle on a
//! laptop.
//!
//! | Function | Paper artefact |
//! |---|---|
//! | [`table1_anomalies`] | Table I / Figure 5 |
//! | [`fig7_ser_verification`] | Figure 7 (a–d) |
//! | [`fig8_si_verification`] | Figure 8 (a–d) |
//! | [`fig9_sser_verification`] | Figure 9 (a–b) |
//! | [`fig10_end_to_end_ser`] | Figure 10 (a–f) |
//! | [`fig11_abort_rates`] | Figure 11 (a–b) |
//! | [`table2_bug_rediscovery`] | Table II / Figures 12 & 18 |
//! | [`backend_matrix`] | none: every in-tree backend, locally and behind the wire |
//! | [`fig13_effectiveness`] | Figure 13 (a–b) |
//! | [`fig14_elle_end_to_end`] | Figure 14 (a–b) |
//! | [`fig17_end_to_end_si`] | Figure 17 (a–f, Appendix D) |

use crate::exec::{
    end_to_end, run_elle_append_workload, run_elle_register_workload, run_register_workload,
    verify, Checker,
};
use crate::report::{mib, secs, Table};
use mtc_baselines::elle::{elle_check_list_append, ElleLevel};
use mtc_baselines::porcupine::porcupine_check_linearizability;
use mtc_core::{check_linearizability, check_si, check_sser, IsolationLevel};
use mtc_dbsim::{
    BackendSpec, ClientOptions, Database, DbBackend, DbConfig, ExecutionOptions, FaultKind,
    FaultSpec, IsolationMode,
};
use mtc_history::anomalies::AnomalyKind;
use mtc_workload::{
    generate_elle_workload, generate_gt_workload, generate_lwt_history, generate_mt_workload,
    Distribution, ElleWorkloadKind, ElleWorkloadSpec, GtWorkloadSpec, LwtHistorySpec,
    MtWorkloadSpec,
};
use std::time::{Duration, Instant};

/// How large an experiment runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds: the test suite and CI smoke runs.
    Quick,
    /// The scale of the shipped figures.
    Paper,
}

/// Runs one experiment at a scale.
type Experiment = fn(Scale) -> Vec<Table>;

/// Every experiment by name, in the order a run of all of them takes. The
/// names are the file stems of the eleven binaries this list replaced.
pub const EXPERIMENTS: [(&str, Experiment); 11] = [
    ("table1_anomalies", table1_anomalies),
    ("fig7_ser_verification", fig7_ser_verification),
    ("fig8_si_verification", fig8_si_verification),
    ("fig9_sser_verification", fig9_sser_verification),
    ("fig10_end_to_end_ser", fig10_end_to_end_ser),
    ("fig11_abort_rates", fig11_abort_rates),
    ("table2_bug_rediscovery", table2_bug_rediscovery),
    ("backend_matrix", backend_matrix),
    ("fig13_effectiveness", fig13_effectiveness),
    ("fig14_elle_end_to_end", fig14_elle_end_to_end),
    ("fig17_end_to_end_si", fig17_end_to_end_si),
];

// ───────────────────────────── Table I ──────────────────────────────────────

/// Table I: every catalogue anomaly, which checker rejects it, and whether
/// the observed verdicts match the expected matrix. The catalogue has one
/// size, so the scale is ignored.
pub fn table1_anomalies(_: Scale) -> Vec<Table> {
    let mut table = Table::new(
        "table1_anomalies",
        &[
            "anomaly",
            "intra",
            "violates_sser",
            "violates_ser",
            "violates_si",
            "matches_expected",
        ],
    );
    for kind in AnomalyKind::ALL {
        let h = kind.history();
        let sser = check_sser(&h).unwrap().is_violated();
        let ser = mtc_core::check_ser(&h).unwrap().is_violated();
        let si = check_si(&h).unwrap().is_violated();
        let expected = kind.expected();
        let matches = sser == expected.violates_sser
            && ser == expected.violates_ser
            && si == expected.violates_si;
        table.push_row(vec![
            kind.to_string(),
            kind.is_intra().to_string(),
            sser.to_string(),
            ser.to_string(),
            si.to_string(),
            matches.to_string(),
        ]);
    }
    vec![table]
}

// ───────────────────────────── Figure 7 / 8 ─────────────────────────────────

/// Sizes of the verification-only comparisons (Figures 7 and 8).
struct VerificationSweep {
    /// Base number of sessions.
    sessions: u32,
    /// Base number of transactions per session.
    txns_per_session: u32,
    /// Base number of objects.
    num_keys: u64,
    /// Values of the #objects sweep.
    object_points: &'static [u64],
    /// Values of the #sessions sweep.
    session_points: &'static [u32],
    /// Values of the total-#txns sweep.
    txn_points: &'static [u32],
}

impl VerificationSweep {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => VerificationSweep {
                sessions: 4,
                txns_per_session: 50,
                num_keys: 20,
                object_points: &[5, 20, 100],
                session_points: &[2, 4, 8],
                txn_points: &[50, 100, 200],
            },
            Scale::Paper => VerificationSweep {
                sessions: 10,
                txns_per_session: 100,
                num_keys: 1000,
                object_points: &[100, 1000, 10_000, 100_000],
                session_points: &[5, 10, 20],
                txn_points: &[100, 500, 1000, 2000],
            },
        }
    }
}

/// Figures 7 and 8: one table per axis — (a) object-access distribution,
/// (b) #objects, (c) #sessions, (d) #txns — each point a valid history timed
/// under `mtc` and under `baseline`.
fn verification_sweep(
    scale: Scale,
    isolation: IsolationMode,
    mtc: Checker,
    baseline: Checker,
    prefix: &str,
) -> Vec<Table> {
    let sweep = VerificationSweep::at(scale);
    let base = MtWorkloadSpec {
        sessions: sweep.sessions,
        txns_per_session: sweep.txns_per_session,
        num_keys: sweep.num_keys,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 0xF16,
    };
    let mtc_label = format!("{}_time_s", mtc.label());
    let base_label = format!("{}_time_s", baseline.label());
    let axis = |suffix: &str, x: &str, points: Vec<(String, MtWorkloadSpec)>| {
        let mut table = Table::new(format!("{prefix}{suffix}"), &[x, &mtc_label, &base_label]);
        for (label, spec) in points {
            let db = Database::new(DbConfig::correct(isolation, spec.num_keys));
            let workload = generate_mt_workload(&spec);
            let (history, _) = run_register_workload(&db, &workload, &ClientOptions::default());
            let m = verify(mtc, &history);
            let b = verify(baseline, &history);
            table.push_row(vec![label, secs(m.duration), secs(b.duration)]);
        }
        table
    };
    vec![
        axis(
            "a_by_distribution",
            "distribution",
            Distribution::paper_set()
                .map(|distribution| {
                    let spec = MtWorkloadSpec {
                        distribution,
                        ..base
                    };
                    (distribution.label().to_string(), spec)
                })
                .to_vec(),
        ),
        axis(
            "b_by_objects",
            "objects",
            sweep
                .object_points
                .iter()
                .map(|&num_keys| (num_keys.to_string(), MtWorkloadSpec { num_keys, ..base }))
                .collect(),
        ),
        axis(
            "c_by_sessions",
            "sessions",
            sweep
                .session_points
                .iter()
                .map(|&sessions| (sessions.to_string(), MtWorkloadSpec { sessions, ..base }))
                .collect(),
        ),
        axis(
            "d_by_txns",
            "txns",
            sweep
                .txn_points
                .iter()
                .map(|&txns| {
                    let txns_per_session = txns / base.sessions.max(1);
                    (
                        txns.to_string(),
                        MtWorkloadSpec {
                            txns_per_session,
                            ..base
                        },
                    )
                })
                .collect(),
        ),
    ]
}

/// Figure 7: SER verification time, MTC-SER vs Cobra, across distribution,
/// #objects, #sessions and #txns.
pub fn fig7_ser_verification(scale: Scale) -> Vec<Table> {
    verification_sweep(
        scale,
        IsolationMode::Serializable,
        Checker::MtcSer,
        Checker::CobraSer,
        "fig7",
    )
}

/// Figure 8: SI verification time, MTC-SI vs PolySI, across the same sweeps.
pub fn fig8_si_verification(scale: Scale) -> Vec<Table> {
    verification_sweep(
        scale,
        IsolationMode::Snapshot,
        Checker::MtcSi,
        Checker::PolySiSi,
        "fig8",
    )
}

// ───────────────────────────── Figure 9 ─────────────────────────────────────

/// Sizes of the SSER/LIN comparison.
struct SserSweep {
    /// Number of sessions.
    sessions: u32,
    /// Base transactions per session.
    txns_per_session: u32,
    /// Values of the concurrent-sessions sweep (fractions).
    concurrency_points: &'static [f64],
    /// Values of the #txns/session sweep.
    txn_points: &'static [u32],
}

impl SserSweep {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => SserSweep {
                sessions: 6,
                txns_per_session: 10,
                concurrency_points: &[0.0, 0.5, 1.0],
                txn_points: &[5, 10],
            },
            Scale::Paper => SserSweep {
                sessions: 16,
                txns_per_session: 12,
                concurrency_points: &[0.25, 0.5, 0.75, 1.0],
                txn_points: &[5, 8, 10, 12],
            },
        }
    }
}

/// One row of Figure 9: `x`, then VL-LWT's and Porcupine's time on a
/// synthetic lightweight-transaction history, which both must judge alike.
fn lwt_row(
    x: String,
    sessions: u32,
    txns_per_session: u32,
    concurrent_fraction: f64,
) -> Vec<String> {
    let ops = generate_lwt_history(&LwtHistorySpec {
        sessions,
        txns_per_session,
        num_keys: 1,
        concurrent_fraction,
        inject_violation: false,
        seed: 0xF19,
    });
    let start = Instant::now();
    let vl = check_linearizability(&ops).unwrap();
    let vl_time = start.elapsed();
    let start = Instant::now();
    let porc = porcupine_check_linearizability(&ops);
    let porc_time = start.elapsed();
    assert_eq!(vl.is_satisfied(), porc.linearizable || porc.timed_out);
    vec![x, secs(vl_time), secs(porc_time)]
}

/// Figure 9: SSER verification on synthetic lightweight-transaction
/// histories, MTC-SSER (`VL-LWT`) vs Porcupine.
pub fn fig9_sser_verification(scale: Scale) -> Vec<Table> {
    let sweep = SserSweep::at(scale);
    let columns = |x| [x, "MTC-SSER_time_s", "Porcupine_time_s"];
    let mut by_concurrency = Table::new(
        "fig9a_by_concurrent_sessions",
        &columns("concurrent_fraction"),
    );
    for &fraction in sweep.concurrency_points {
        let x = format!("{fraction:.2}");
        by_concurrency.push_row(lwt_row(x, sweep.sessions, sweep.txns_per_session, fraction));
    }
    let mut by_txns = Table::new("fig9b_by_txns_per_session", &columns("txns_per_session"));
    for &txns in sweep.txn_points {
        by_txns.push_row(lwt_row(txns.to_string(), sweep.sessions, txns, 1.0));
    }
    vec![by_concurrency, by_txns]
}

// ───────────────────────────── Figures 10 / 17 ──────────────────────────────

/// Sizes of the end-to-end comparisons.
struct EndToEndSweep {
    /// Sessions used throughout.
    sessions: u32,
    /// Values of the total-#txns sweep.
    txn_points: &'static [u32],
    /// Values of the #ops/txn sweep (GT side; MT side is fixed at ≤ 4).
    ops_per_txn_points: &'static [u32],
    /// Values of the #objects sweep.
    object_points: &'static [u64],
    /// Baseline #txns when not being swept.
    base_txns: u32,
    /// Baseline operations per transaction for the GT workload.
    base_ops_per_txn: u32,
    /// Baseline number of objects.
    base_objects: u64,
}

impl EndToEndSweep {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => EndToEndSweep {
                sessions: 4,
                txn_points: &[40, 80],
                ops_per_txn_points: &[4, 8],
                object_points: &[10, 50],
                base_txns: 60,
                base_ops_per_txn: 8,
                base_objects: 20,
            },
            Scale::Paper => EndToEndSweep {
                sessions: 10,
                txn_points: &[100, 500, 1000, 2000, 3000],
                ops_per_txn_points: &[4, 12, 16, 20, 24],
                object_points: &[100, 200, 500, 1000, 5000],
                base_txns: 1000,
                base_ops_per_txn: 16,
                base_objects: 500,
            },
        }
    }
}

fn end_to_end_sweep(
    scale: Scale,
    isolation: IsolationMode,
    mtc_checker: Checker,
    baseline_checker: Checker,
    prefix: &str,
) -> Vec<Table> {
    let sweep = EndToEndSweep::at(scale);
    let columns = [
        "x",
        "MTC_gen_s",
        "MTC_verify_s",
        "MTC_mem_MiB",
        "baseline_gen_s",
        "baseline_verify_s",
        "baseline_mem_MiB",
    ];
    let run_point = |txns: u32, ops_per_txn: u32, objects: u64| {
        let mt_spec = MtWorkloadSpec {
            sessions: sweep.sessions,
            txns_per_session: (txns / sweep.sessions).max(1),
            num_keys: objects,
            distribution: Distribution::Uniform,
            read_only_fraction: 0.2,
            two_key_fraction: 0.5,
            seed: 0xE2E,
        };
        let gt_spec = GtWorkloadSpec {
            sessions: sweep.sessions,
            txns_per_session: (txns / sweep.sessions).max(1),
            ops_per_txn,
            num_keys: objects,
            distribution: Distribution::Uniform,
            read_only_fraction: 0.2,
            write_only_fraction: 0.4,
            seed: 0xE2E,
        };
        let config = DbConfig::correct(isolation, objects);
        let mt = end_to_end(
            &Database::new(config.clone()),
            &generate_mt_workload(&mt_spec),
            &ClientOptions::default(),
            mtc_checker,
        );
        let gt = end_to_end(
            &Database::new(config),
            &generate_gt_workload(&gt_spec),
            &ClientOptions::default(),
            baseline_checker,
        );
        [mt, gt]
    };
    let axis = |suffix: &str, points: Vec<(String, (u32, u32, u64))>| {
        let mut table = Table::new(format!("{prefix}_{suffix}"), &columns);
        for (x, (txns, ops, objects)) in points {
            let mut row = vec![x];
            for e2e in run_point(txns, ops, objects) {
                row.extend([
                    secs(e2e.generation),
                    secs(e2e.verification),
                    mib(e2e.memory_bytes),
                ]);
            }
            table.push_row(row);
        }
        table
    };
    let (txns, ops, objects) = (sweep.base_txns, sweep.base_ops_per_txn, sweep.base_objects);
    vec![
        axis(
            "by_txns",
            sweep
                .txn_points
                .iter()
                .map(|&t| (t.to_string(), (t, ops, objects)))
                .collect(),
        ),
        axis(
            "by_ops_per_txn",
            sweep
                .ops_per_txn_points
                .iter()
                .map(|&o| (o.to_string(), (txns, o, objects)))
                .collect(),
        ),
        axis(
            "by_objects",
            sweep
                .object_points
                .iter()
                .map(|&k| (k.to_string(), (txns, ops, k)))
                .collect(),
        ),
    ]
}

/// Figure 10: end-to-end SER checking (time and memory), MTC with MT
/// workloads vs Cobra with GT workloads.
pub fn fig10_end_to_end_ser(scale: Scale) -> Vec<Table> {
    end_to_end_sweep(
        scale,
        IsolationMode::Serializable,
        Checker::MtcSer,
        Checker::CobraSer,
        "fig10",
    )
}

/// Figure 17 (Appendix D): end-to-end SI checking, MTC vs PolySI.
pub fn fig17_end_to_end_si(scale: Scale) -> Vec<Table> {
    end_to_end_sweep(
        scale,
        IsolationMode::Snapshot,
        Checker::MtcSi,
        Checker::PolySiSi,
        "fig17",
    )
}

// ───────────────────────────── Figure 11 ────────────────────────────────────

/// Sizes of the abort-rate comparison.
struct AbortRateSweep {
    /// Values of the #sessions sweep.
    session_points: &'static [u32],
    /// Values of the skewness sweep (#txns / #objects).
    skew_points: &'static [u32],
    /// Transactions per session.
    txns_per_session: u32,
    /// Operations per GT transaction (the paper uses 20).
    gt_ops_per_txn: u32,
    /// Objects used in the #sessions sweep.
    num_keys: u64,
}

impl AbortRateSweep {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => AbortRateSweep {
                session_points: &[2, 4],
                skew_points: &[2, 10],
                txns_per_session: 30,
                gt_ops_per_txn: 8,
                num_keys: 40,
            },
            Scale::Paper => AbortRateSweep {
                session_points: &[5, 10, 15, 20],
                skew_points: &[1, 5, 10, 20],
                txns_per_session: 100,
                gt_ops_per_txn: 20,
                num_keys: 200,
            },
        }
    }
}

/// The four cells of a Figure 11 row: the abort rates of GT-SER, GT-SI,
/// MT-SER and MT-SI at `sessions` sessions over `num_keys` objects.
fn rates(sweep: &AbortRateSweep, sessions: u32, num_keys: u64) -> [String; 4] {
    let opts = ClientOptions {
        max_retries: 0,
        record_aborted: true,
    };
    let gt = GtWorkloadSpec {
        sessions,
        txns_per_session: sweep.txns_per_session,
        ops_per_txn: sweep.gt_ops_per_txn,
        num_keys,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        write_only_fraction: 0.4,
        seed: 0xF11,
    };
    let mt = MtWorkloadSpec {
        sessions,
        txns_per_session: sweep.txns_per_session,
        num_keys,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 0xF11,
    };
    let (gt, mt) = (generate_gt_workload(&gt), generate_mt_workload(&mt));
    [
        (&gt, IsolationMode::Serializable),
        (&gt, IsolationMode::Snapshot),
        (&mt, IsolationMode::Serializable),
        (&mt, IsolationMode::Snapshot),
    ]
    .map(|(workload, isolation)| {
        let db = Database::new(DbConfig::correct(isolation, num_keys));
        format!(
            "{:.3}",
            run_register_workload(&db, workload, &opts).1.abort_rate()
        )
    })
}

/// Figure 11: abort rates of GT vs MT workloads under SER and SI, as
/// concurrency (#sessions) and skewness (#txns/#objects) grow.
pub fn fig11_abort_rates(scale: Scale) -> Vec<Table> {
    let sweep = AbortRateSweep::at(scale);
    let columns = |x| [x, "GT-SER", "GT-SI", "MT-SER", "MT-SI"];
    let mut by_sessions = Table::new("fig11a_abort_rate_by_sessions", &columns("sessions"));
    for &sessions in sweep.session_points {
        let mut row = vec![sessions.to_string()];
        row.extend(rates(&sweep, sessions, sweep.num_keys));
        by_sessions.push_row(row);
    }

    let mut by_skew = Table::new("fig11b_abort_rate_by_skewness", &columns("txns_per_object"));
    let sessions = *sweep.session_points.last().unwrap_or(&4);
    for &skew in sweep.skew_points {
        // skewness = #txns / #objects, so #objects = #txns / skew.
        let total_txns = (sessions * sweep.txns_per_session) as u64;
        let num_keys = (total_txns / skew as u64).max(1);
        let mut row = vec![skew.to_string()];
        row.extend(rates(&sweep, sessions, num_keys));
        by_skew.push_row(row);
    }
    vec![by_sessions, by_skew]
}

// ───────────────────────────── Backend matrix ───────────────────────────────

/// Sizes of the cross-backend matrix.
struct BackendSweep {
    /// Sessions issuing transactions.
    sessions: u32,
    /// Transactions per session.
    txns_per_session: u32,
    /// Number of objects (small, so anomalies of the weak engines have a
    /// chance to materialize organically).
    num_keys: u64,
}

impl BackendSweep {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => BackendSweep {
                sessions: 4,
                txns_per_session: 50,
                num_keys: 8,
            },
            Scale::Paper => BackendSweep {
                sessions: 8,
                txns_per_session: 400,
                num_keys: 16,
            },
        }
    }
}

/// The backend dimension of the experiment matrix: run the same MT workload
/// against every in-tree backend ([`BackendSpec::fleet`]) — the OCC
/// simulator at three modes, the strict-2PL engine and both weak MVCC
/// levels, all **without any fault injection** — and against two of them
/// behind the loopback TCP server, and report, per backend, what it
/// promises, what each checker decided, and whether the streaming verdicts
/// agree with the batch ones.
///
/// Backends that promise a level must never be flagged at it; the weak
/// engines promise nothing, so any flag against them is an *organic*
/// anomaly produced by their concurrency control.
pub fn backend_matrix(scale: Scale) -> Vec<Table> {
    let sweep = BackendSweep::at(scale);
    let mut table = Table::new(
        "backend_matrix",
        &[
            "backend",
            "promises",
            "committed",
            "abort_rate",
            "SI",
            "SER",
            "SSER",
            "stream_agrees",
            "gen_s",
            "verify_s",
        ],
    );
    let spec = MtWorkloadSpec {
        sessions: sweep.sessions,
        txns_per_session: sweep.txns_per_session,
        num_keys: sweep.num_keys,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 0xBACD,
    };
    let workload = generate_mt_workload(&spec);
    let levels = [
        (IsolationLevel::SnapshotIsolation, Checker::MtcSi),
        (IsolationLevel::Serializability, Checker::MtcSer),
        (IsolationLevel::StrictSerializability, Checker::MtcSser),
    ];
    // Zero-latency engines barely overlap under free-running threads, so
    // non-blocking backends run under the deterministic op-by-op
    // interleaved driver — real concurrency on a reproducible schedule,
    // which is what lets the weak engines' organic anomalies show up in
    // the matrix. Blocking (locking) engines keep one thread per session.
    let local = BackendSpec::fleet(sweep.num_keys).into_iter().map(|spec| {
        let driver = if spec.blocking() {
            ExecutionOptions::threaded()
        } else {
            ExecutionOptions::interleaved(0xBACD)
        };
        (spec.build(), driver)
    });
    // Remote rows: representative engines behind the loopback TCP server,
    // one connection per session thread. A promising engine must keep its
    // promises *through the wire*, and a weak engine's organic anomalies must
    // survive the round trip. The servers outlive the loop.
    let servers: Vec<mtc_net::NetServer> = ["sim-ser", "weak-rc"]
        .into_iter()
        .map(|engine| {
            let spec =
                mtc_net::spec_for_label(engine, sweep.num_keys).expect("fleet label resolves");
            mtc_net::NetServer::spawn(spec).expect("loopback server spawns")
        })
        .collect();
    let remote = servers.iter().map(|server| {
        let db = mtc_net::NetBackend::connect(server.addr()).expect("loopback connect");
        (
            Box::new(db) as Box<dyn DbBackend>,
            ExecutionOptions::threaded(),
        )
    });
    for (db, driver) in local.chain(remote) {
        let (history, report) = driver.run(db.as_ref(), &workload);
        let mut verdicts = Vec::new();
        let mut promises = Vec::new();
        let mut stream_agrees = true;
        let mut verify_s = 0.0f64;
        for (level, checker) in levels {
            let batch = verify(checker, &history);
            let streaming = mtc_core::check_streaming(level, &history)
                .expect("collected histories are inside the checkers' domain");
            stream_agrees &= batch.violated == streaming.is_violated();
            verify_s += batch.duration.as_secs_f64();
            if db.promises(level) {
                promises.push(level.to_string());
                assert!(
                    !batch.violated,
                    "{} violated its promised level {level}: {}",
                    db.label(),
                    batch.detail
                );
            }
            verdicts.push(if batch.violated { "violated" } else { "ok" });
        }
        table.push_row(vec![
            db.label().to_string(),
            if promises.is_empty() {
                "-".to_string()
            } else {
                promises.join("+")
            },
            report.committed.to_string(),
            format!("{:.3}", report.abort_rate()),
            verdicts[0].to_string(),
            verdicts[1].to_string(),
            verdicts[2].to_string(),
            stream_agrees.to_string(),
            secs(report.wall_time),
            format!("{verify_s:.4}"),
        ]);
    }
    vec![table]
}

// ───────────────────────────── Table II ─────────────────────────────────────

/// One rediscovered-bug scenario of Table II.
struct BugScenario {
    /// Human-readable database the scenario stands in for.
    database: &'static str,
    /// Claimed isolation level (what we check against).
    level: IsolationLevel,
    /// The anomaly the injected fault produces.
    anomaly: &'static str,
    /// The injected fault.
    fault: FaultKind,
    /// The isolation mode the faulty engine otherwise runs at.
    engine: IsolationMode,
    /// Per-transaction fault probability.
    probability: f64,
    /// Key-space override. The SER-level scenarios need write-skew-shaped
    /// interleavings, which require two concurrent transactions to pick the
    /// same pair of objects — a very small key space makes the rediscovery
    /// reliable within a short history (the paper's runs are 30 minutes
    /// long; ours are a few hundred transactions).
    keys: Option<u64>,
}

/// The six Table II scenarios mapped onto simulator faults.
const TABLE2_SCENARIOS: [BugScenario; 6] = [
    BugScenario {
        database: "MariaDB-Galera-10.7.3 (sim)",
        level: IsolationLevel::SnapshotIsolation,
        anomaly: "LostUpdate",
        fault: FaultKind::SkipWriteValidation,
        engine: IsolationMode::Snapshot,
        probability: 0.05,
        keys: None,
    },
    BugScenario {
        database: "MongoDB-4.2.6 (sim)",
        level: IsolationLevel::SnapshotIsolation,
        anomaly: "AbortedRead",
        fault: FaultKind::DirtyRelease,
        engine: IsolationMode::Snapshot,
        probability: 0.02,
        keys: None,
    },
    BugScenario {
        database: "Dgraph-1.1.1 (sim)",
        level: IsolationLevel::SnapshotIsolation,
        anomaly: "CausalityViolation",
        fault: FaultKind::StaleSnapshot,
        engine: IsolationMode::Snapshot,
        probability: 0.05,
        keys: None,
    },
    BugScenario {
        database: "PostgreSQL-12.3 (sim)",
        level: IsolationLevel::Serializability,
        anomaly: "WriteSkew",
        fault: FaultKind::SkipReadValidation,
        engine: IsolationMode::Serializable,
        probability: 0.1,
        keys: Some(2),
    },
    BugScenario {
        database: "PostgreSQL-11.8 (sim)",
        level: IsolationLevel::Serializability,
        anomaly: "LongFork",
        fault: FaultKind::SkipReadValidation,
        engine: IsolationMode::Serializable,
        probability: 0.05,
        keys: Some(3),
    },
    BugScenario {
        database: "Cassandra-2.0.1 (sim)",
        level: IsolationLevel::StrictSerializability,
        anomaly: "AbortedRead",
        fault: FaultKind::DirtyRelease,
        engine: IsolationMode::StrictSerializable,
        probability: 0.02,
        keys: None,
    },
];

/// Sizes of the bug-rediscovery experiment.
struct BugSweep {
    /// Sessions issuing transactions.
    sessions: u32,
    /// Transactions per session.
    txns_per_session: u32,
    /// Objects (small, to force contention — the paper uses 10).
    num_keys: u64,
    /// Multiplier applied to each scenario's fault probability (quick runs
    /// use a higher density so the bug appears in a much shorter history).
    fault_boost: f64,
    /// Per-operation latency of the simulated database, in microseconds
    /// (non-zero so that transactions genuinely overlap).
    op_latency_us: u64,
}

impl BugSweep {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => BugSweep {
                sessions: 4,
                txns_per_session: 150,
                num_keys: 8,
                fault_boost: 10.0,
                op_latency_us: 150,
            },
            Scale::Paper => BugSweep {
                sessions: 10,
                txns_per_session: 300,
                num_keys: 10,
                fault_boost: 1.0,
                op_latency_us: 200,
            },
        }
    }
}

/// Table II: run every bug scenario against the fault-injected simulator and
/// report whether MTC detects a violation, where the counterexample sits in
/// the history, and how long generation and verification took.
pub fn table2_bug_rediscovery(scale: Scale) -> Vec<Table> {
    let sweep = BugSweep::at(scale);
    let mut table = Table::new(
        "table2_bug_rediscovery",
        &[
            "database",
            "level",
            "anomaly",
            "detected",
            "ce_position",
            "hist_gen_s",
            "hist_verify_s",
        ],
    );
    for scenario in &TABLE2_SCENARIOS {
        let num_keys = scenario.keys.unwrap_or(sweep.num_keys);
        let spec = MtWorkloadSpec {
            sessions: sweep.sessions,
            txns_per_session: sweep.txns_per_session,
            num_keys,
            distribution: Distribution::Zipf { theta: 1.0 },
            read_only_fraction: 0.2,
            two_key_fraction: 0.8,
            seed: 0x7AB2,
        };
        let config = DbConfig::correct(scenario.engine, num_keys)
            .with_latency(
                Duration::from_micros(sweep.op_latency_us),
                Duration::from_micros(sweep.op_latency_us / 2),
            )
            .with_faults(
                vec![FaultSpec::new(
                    scenario.fault,
                    (scenario.probability * sweep.fault_boost).min(1.0),
                )],
                0x7AB2,
            );
        let workload = generate_mt_workload(&spec);
        let (history, report) =
            run_register_workload(&Database::new(config), &workload, &ClientOptions::default());
        let checker = match scenario.level {
            IsolationLevel::Serializability => Checker::MtcSer,
            IsolationLevel::SnapshotIsolation => Checker::MtcSi,
            IsolationLevel::StrictSerializability => Checker::MtcSser,
        };
        let outcome = verify(checker, &history);
        let ce_position = counterexample_position(&outcome.detail);
        table.push_row(vec![
            scenario.database.to_string(),
            scenario.level.to_string(),
            scenario.anomaly.to_string(),
            outcome.violated.to_string(),
            ce_position
                .map(|p| p.to_string())
                .unwrap_or_else(|| "-".to_string()),
            secs(report.wall_time),
            secs(outcome.duration),
        ]);
    }
    vec![table]
}

/// Extracts the smallest transaction id mentioned in a counterexample string
/// (`"T<number>"`), which mirrors the "CE position" column of Table II.
fn counterexample_position(detail: &str) -> Option<u32> {
    let mut best: Option<u32> = None;
    let bytes = detail.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'T' {
            let mut j = i + 1;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if j > i + 1 {
                if let Ok(v) = detail[i + 1..j].parse::<u32>() {
                    best = Some(best.map_or(v, |b: u32| b.min(v)));
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    best
}

// ───────────────────────────── Figures 13 / 14 ──────────────────────────────

/// Sizes of the effectiveness comparison against Elle.
struct EffectivenessSweep {
    /// Trials per configuration (the paper runs repeated 30-minute sessions;
    /// we count bug-detecting trials out of `trials`).
    trials: u32,
    /// Sessions per trial.
    sessions: u32,
    /// Transactions per session per trial.
    txns_per_session: u32,
    /// Number of objects (the paper uses 10).
    num_keys: u64,
    /// The max-transaction-length points (x-axis of Figure 13).
    txn_len_points: &'static [u32],
    /// Per-transaction fault probability of the buggy engines.
    fault_probability: f64,
}

impl EffectivenessSweep {
    fn at(scale: Scale) -> Self {
        match scale {
            Scale::Quick => EffectivenessSweep {
                trials: 2,
                sessions: 3,
                txns_per_session: 40,
                num_keys: 6,
                txn_len_points: &[2, 4],
                fault_probability: 0.2,
            },
            Scale::Paper => EffectivenessSweep {
                trials: 10,
                sessions: 10,
                txns_per_session: 300,
                num_keys: 10,
                txn_len_points: &[2, 4, 6, 8, 10, 12],
                fault_probability: 0.02,
            },
        }
    }
}

/// The simulated buggy databases of the effectiveness experiments.
#[derive(Clone, Copy)]
enum BuggyTarget {
    /// "PostgreSQL-like": claims SER, occasionally skips read validation.
    PostgresSer,
    /// "MongoDB-like": claims SI, occasionally releases dirty writes.
    MongoSi,
}

impl BuggyTarget {
    fn config(self, num_keys: u64, probability: f64, seed: u64) -> DbConfig {
        let latency = Duration::from_micros(100);
        let (isolation, fault) = match self {
            BuggyTarget::PostgresSer => {
                (IsolationMode::Serializable, FaultKind::SkipReadValidation)
            }
            BuggyTarget::MongoSi => (IsolationMode::Snapshot, FaultKind::DirtyRelease),
        };
        DbConfig::correct(isolation, num_keys)
            .with_latency(latency, latency / 2)
            .with_faults(vec![FaultSpec::new(fault, probability)], seed)
    }

    /// The claimed level, and MTC's and Elle rw-register's checkers for it.
    fn checks(self) -> (ElleLevel, Checker, Checker) {
        match self {
            BuggyTarget::PostgresSer => (
                ElleLevel::Serializability,
                Checker::MtcSer,
                Checker::ElleRwSer,
            ),
            BuggyTarget::MongoSi => (
                ElleLevel::SnapshotIsolation,
                Checker::MtcSi,
                Checker::ElleRwSi,
            ),
        }
    }

    fn label(self) -> &'static str {
        match self {
            BuggyTarget::PostgresSer => "pg",
            BuggyTarget::MongoSi => "mongo",
        }
    }
}

/// What one check found over a configuration's trials: bug-detecting
/// trials, and total generation and verification seconds.
#[derive(Default)]
struct Arm {
    bugs: u32,
    gen_s: f64,
    verify_s: f64,
}

impl Arm {
    fn add(&mut self, violated: bool, generation: Duration, verification: Duration) {
        self.bugs += u32::from(violated);
        self.gen_s += generation.as_secs_f64();
        self.verify_s += verification.as_secs_f64();
    }
}

/// The three arms at one point: MTC on MT workloads, Elle on list-append
/// and Elle on read-write-register workloads of length `max_txn_len`.
fn effectiveness_point(
    target: BuggyTarget,
    sweep: &EffectivenessSweep,
    max_txn_len: u32,
) -> [Arm; 3] {
    let [mut mini, mut append, mut wr] = <[Arm; 3]>::default();
    let (level, mtc_checker, wr_checker) = target.checks();
    let opts = ClientOptions::default();
    for trial in 0..sweep.trials {
        let seed = 0xEFFu64 + trial as u64;
        let config = target.config(sweep.num_keys, sweep.fault_probability, seed);

        // MTC with MT workloads (transaction length ≤ 4 regardless of x).
        let mt_spec = MtWorkloadSpec {
            sessions: sweep.sessions,
            txns_per_session: sweep.txns_per_session,
            num_keys: sweep.num_keys,
            distribution: Distribution::Exponential { lambda: 10.0 },
            read_only_fraction: 0.2,
            two_key_fraction: 0.5,
            seed,
        };
        let (history, report) = run_register_workload(
            &Database::new(config.clone()),
            &generate_mt_workload(&mt_spec),
            &opts,
        );
        let outcome = verify(mtc_checker, &history);
        mini.add(outcome.violated, report.wall_time, outcome.duration);

        // Elle with list-append workloads of the given max length.
        let append_spec = ElleWorkloadSpec {
            kind: ElleWorkloadKind::ListAppend,
            sessions: sweep.sessions,
            txns_per_session: sweep.txns_per_session,
            max_txn_len,
            num_keys: sweep.num_keys,
            distribution: Distribution::Exponential { lambda: 10.0 },
            seed,
        };
        let (list_history, report) = run_elle_append_workload(
            &Database::new(config.clone()),
            &generate_elle_workload(&append_spec),
            &opts,
        );
        let start = Instant::now();
        let out = elle_check_list_append(&list_history, level);
        append.add(!out.satisfied, report.wall_time, start.elapsed());

        // Elle with read-write-register workloads of the given max length.
        let wr_spec = ElleWorkloadSpec {
            kind: ElleWorkloadKind::ReadWriteRegister,
            ..append_spec
        };
        let (wr_history, report) = run_elle_register_workload(
            &Database::new(config),
            &generate_elle_workload(&wr_spec),
            &opts,
        );
        let outcome = verify(wr_checker, &wr_history);
        wr.add(outcome.violated, report.wall_time, outcome.duration);
    }
    [mini, append, wr]
}

/// Figure 13: number of bug-detecting trials, MTC vs Elle (list-append and
/// rw-register) as the maximum transaction length varies, on the simulated
/// buggy PostgreSQL (SER) and MongoDB (SI).
pub fn fig13_effectiveness(scale: Scale) -> Vec<Table> {
    effectiveness_tables(scale, false)
}

/// Figure 14: average end-to-end time (generation and verification) for the
/// same configurations as Figure 13.
pub fn fig14_elle_end_to_end(scale: Scale) -> Vec<Table> {
    effectiveness_tables(scale, true)
}

fn effectiveness_tables(scale: Scale, timing: bool) -> Vec<Table> {
    let sweep = EffectivenessSweep::at(scale);
    let mut tables = Vec::new();
    for target in [BuggyTarget::PostgresSer, BuggyTarget::MongoSi] {
        let mut table = if timing {
            Table::new(
                format!("fig14_{}_end_to_end_time", target.label()),
                &[
                    "max_txn_len",
                    "mini_gen_s",
                    "mini_verify_s",
                    "append_gen_s",
                    "append_verify_s",
                    "wr_gen_s",
                    "wr_verify_s",
                ],
            )
        } else {
            Table::new(
                format!("fig13_{}_bugs_detected", target.label()),
                &[
                    "max_txn_len",
                    "mini_bugs",
                    "append_bugs",
                    "wr_bugs",
                    "trials",
                ],
            )
        };
        for &len in sweep.txn_len_points {
            let arms = effectiveness_point(target, &sweep, len);
            let mut row = vec![len.to_string()];
            if timing {
                let avg = |total: f64| format!("{:.4}", total / sweep.trials as f64);
                row.extend(arms.iter().flat_map(|a| [avg(a.gen_s), avg(a.verify_s)]));
            } else {
                row.extend(arms.iter().map(|a| a.bugs.to_string()));
                row.push(sweep.trials.to_string());
            }
            table.push_row(row);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn counterexample_position_parses_the_smallest_txn_id() {
        assert_eq!(counterexample_position("T42 -WR(1)-> T7"), Some(7));
        assert_eq!(counterexample_position("no ids here"), None);
    }
}
