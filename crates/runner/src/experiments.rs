//! One parameterized sweep per table and figure of the paper's evaluation.
//!
//! Every function returns [`Table`]s whose columns mirror the axes of the
//! corresponding plot, so the binaries in `mtc-bench` only have to print or
//! persist them. Each sweep takes a size parameter struct with two
//! constructors: `quick()` (seconds — used by the test suite and CI) and
//! `paper()` (the scale of the original evaluation, within what the
//! simulator and baselines can handle on a laptop).
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
    BackendSpec, ClientOptions, Database, DbBackend, DbConfig, FaultKind, FaultSpec, IsolationMode,
};
use mtc_history::anomalies::AnomalyKind;
use mtc_workload::{
    generate_elle_workload, generate_gt_workload, generate_lwt_history, generate_mt_workload,
    Distribution, ElleWorkloadKind, ElleWorkloadSpec, GtWorkloadSpec, LwtHistorySpec,
    MtWorkloadSpec,
};
use std::time::Instant;

// ───────────────────────────── Table I ──────────────────────────────────────

/// Table I: every catalogue anomaly, which checker rejects it, and whether
/// the observed verdicts match the expected matrix.
pub fn table1_anomalies() -> Table {
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
    table
}

// ───────────────────────────── Figure 7 / 8 ─────────────────────────────────

/// Size parameters for the verification-only comparisons (Figures 7 and 8).
#[derive(Clone, Copy, Debug)]
pub struct VerificationSweep {
    /// Base number of sessions.
    pub sessions: u32,
    /// Base number of transactions per session.
    pub txns_per_session: u32,
    /// Base number of objects.
    pub num_keys: u64,
    /// Values of the #objects sweep.
    pub object_points: &'static [u64],
    /// Values of the #sessions sweep.
    pub session_points: &'static [u32],
    /// Values of the total-#txns sweep.
    pub txn_points: &'static [u32],
}

impl VerificationSweep {
    /// A sub-second configuration for tests.
    pub fn quick() -> Self {
        VerificationSweep {
            sessions: 4,
            txns_per_session: 50,
            num_keys: 20,
            object_points: &[5, 20, 100],
            session_points: &[2, 4, 8],
            txn_points: &[50, 100, 200],
        }
    }

    /// The scale used for the shipped figures.
    pub fn paper() -> Self {
        VerificationSweep {
            sessions: 10,
            txns_per_session: 100,
            num_keys: 1000,
            object_points: &[100, 1000, 10_000, 100_000],
            session_points: &[5, 10, 20],
            txn_points: &[100, 500, 1000, 2000],
        }
    }
}

fn generate_valid_history(spec: &MtWorkloadSpec, isolation: IsolationMode) -> mtc_history::History {
    let workload = generate_mt_workload(spec);
    let db = Database::new(DbConfig::correct(isolation, spec.num_keys));
    let (history, _) = run_register_workload(&db, &workload, &ClientOptions::default());
    history
}

fn verification_sweep(
    sweep: &VerificationSweep,
    isolation: IsolationMode,
    mtc: Checker,
    baseline: Checker,
    prefix: &str,
) -> Vec<Table> {
    let base_spec = MtWorkloadSpec {
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

    // (a) object-access distribution.
    let mut by_dist = Table::new(
        format!("{prefix}a_by_distribution"),
        &["distribution", &mtc_label, &base_label],
    );
    for dist in Distribution::paper_set() {
        let spec = MtWorkloadSpec {
            distribution: dist,
            ..base_spec
        };
        let history = generate_valid_history(&spec, isolation);
        let m = verify(mtc, &history);
        let b = verify(baseline, &history);
        by_dist.push_row(vec![
            dist.label().to_string(),
            secs(m.duration),
            secs(b.duration),
        ]);
    }

    // (b) number of objects.
    let mut by_objects = Table::new(
        format!("{prefix}b_by_objects"),
        &["objects", &mtc_label, &base_label],
    );
    for &objects in sweep.object_points {
        let spec = MtWorkloadSpec {
            num_keys: objects,
            ..base_spec
        };
        let history = generate_valid_history(&spec, isolation);
        let m = verify(mtc, &history);
        let b = verify(baseline, &history);
        by_objects.push_row(vec![
            objects.to_string(),
            secs(m.duration),
            secs(b.duration),
        ]);
    }

    // (c) number of sessions.
    let mut by_sessions = Table::new(
        format!("{prefix}c_by_sessions"),
        &["sessions", &mtc_label, &base_label],
    );
    for &sessions in sweep.session_points {
        let spec = MtWorkloadSpec {
            sessions,
            ..base_spec
        };
        let history = generate_valid_history(&spec, isolation);
        let m = verify(mtc, &history);
        let b = verify(baseline, &history);
        by_sessions.push_row(vec![
            sessions.to_string(),
            secs(m.duration),
            secs(b.duration),
        ]);
    }

    // (d) number of transactions.
    let mut by_txns = Table::new(
        format!("{prefix}d_by_txns"),
        &["txns", &mtc_label, &base_label],
    );
    for &txns in sweep.txn_points {
        let spec = MtWorkloadSpec {
            txns_per_session: txns / base_spec.sessions.max(1),
            ..base_spec
        };
        let history = generate_valid_history(&spec, isolation);
        let m = verify(mtc, &history);
        let b = verify(baseline, &history);
        by_txns.push_row(vec![txns.to_string(), secs(m.duration), secs(b.duration)]);
    }

    vec![by_dist, by_objects, by_sessions, by_txns]
}

/// Figure 7: SER verification time, MTC-SER vs Cobra, across distribution,
/// #objects, #sessions and #txns.
pub fn fig7_ser_verification(sweep: &VerificationSweep) -> Vec<Table> {
    verification_sweep(
        sweep,
        IsolationMode::Serializable,
        Checker::MtcSer,
        Checker::CobraSer,
        "fig7",
    )
}

/// Figure 8: SI verification time, MTC-SI vs PolySI, across the same sweeps.
pub fn fig8_si_verification(sweep: &VerificationSweep) -> Vec<Table> {
    verification_sweep(
        sweep,
        IsolationMode::Snapshot,
        Checker::MtcSi,
        Checker::PolySiSi,
        "fig8",
    )
}

// ───────────────────────────── Figure 9 ─────────────────────────────────────

/// Size parameters for the SSER/LIN comparison.
#[derive(Clone, Copy, Debug)]
pub struct SserSweep {
    /// Number of sessions.
    pub sessions: u32,
    /// Base transactions per session.
    pub txns_per_session: u32,
    /// Values of the concurrent-sessions sweep (fractions).
    pub concurrency_points: &'static [f64],
    /// Values of the #txns/session sweep.
    pub txn_points: &'static [u32],
}

impl SserSweep {
    /// Sub-second configuration.
    pub fn quick() -> Self {
        SserSweep {
            sessions: 6,
            txns_per_session: 10,
            concurrency_points: &[0.0, 0.5, 1.0],
            txn_points: &[5, 10],
        }
    }

    /// Figure-scale configuration.
    pub fn paper() -> Self {
        SserSweep {
            sessions: 16,
            txns_per_session: 12,
            concurrency_points: &[0.25, 0.5, 0.75, 1.0],
            txn_points: &[5, 8, 10, 12],
        }
    }
}

/// Figure 9: SSER verification on synthetic lightweight-transaction
/// histories, MTC-SSER (`VL-LWT`) vs Porcupine.
pub fn fig9_sser_verification(sweep: &SserSweep) -> Vec<Table> {
    let mut by_concurrency = Table::new(
        "fig9a_by_concurrent_sessions",
        &["concurrent_fraction", "MTC-SSER_time_s", "Porcupine_time_s"],
    );
    for &fraction in sweep.concurrency_points {
        let spec = LwtHistorySpec {
            sessions: sweep.sessions,
            txns_per_session: sweep.txns_per_session,
            num_keys: 1,
            concurrent_fraction: fraction,
            inject_violation: false,
            seed: 0xF19,
        };
        let ops = generate_lwt_history(&spec);
        let start = Instant::now();
        let vl = check_linearizability(&ops).unwrap();
        let vl_time = start.elapsed();
        let start = Instant::now();
        let porc = porcupine_check_linearizability(&ops);
        let porc_time = start.elapsed();
        assert_eq!(vl.is_satisfied(), porc.linearizable || porc.timed_out);
        by_concurrency.push_row(vec![
            format!("{fraction:.2}"),
            secs(vl_time),
            secs(porc_time),
        ]);
    }

    let mut by_txns = Table::new(
        "fig9b_by_txns_per_session",
        &["txns_per_session", "MTC-SSER_time_s", "Porcupine_time_s"],
    );
    for &txns in sweep.txn_points {
        let spec = LwtHistorySpec {
            sessions: sweep.sessions,
            txns_per_session: txns,
            num_keys: 1,
            concurrent_fraction: 1.0,
            inject_violation: false,
            seed: 0xF19,
        };
        let ops = generate_lwt_history(&spec);
        let start = Instant::now();
        let _ = check_linearizability(&ops).unwrap();
        let vl_time = start.elapsed();
        let start = Instant::now();
        let _ = porcupine_check_linearizability(&ops);
        let porc_time = start.elapsed();
        by_txns.push_row(vec![txns.to_string(), secs(vl_time), secs(porc_time)]);
    }
    vec![by_concurrency, by_txns]
}

// ───────────────────────────── Figures 10 / 17 ──────────────────────────────

/// Size parameters for the end-to-end comparisons.
#[derive(Clone, Copy, Debug)]
pub struct EndToEndSweep {
    /// Sessions used throughout.
    pub sessions: u32,
    /// Values of the total-#txns sweep.
    pub txn_points: &'static [u32],
    /// Values of the #ops/txn sweep (GT side; MT side is fixed at ≤ 4).
    pub ops_per_txn_points: &'static [u32],
    /// Values of the #objects sweep.
    pub object_points: &'static [u64],
    /// Baseline #txns, #ops/txn and #objects when not being swept.
    pub base_txns: u32,
    /// Baseline operations per transaction for the GT workload.
    pub base_ops_per_txn: u32,
    /// Baseline number of objects.
    pub base_objects: u64,
}

impl EndToEndSweep {
    /// Sub-second configuration.
    pub fn quick() -> Self {
        EndToEndSweep {
            sessions: 4,
            txn_points: &[40, 80],
            ops_per_txn_points: &[4, 8],
            object_points: &[10, 50],
            base_txns: 60,
            base_ops_per_txn: 8,
            base_objects: 20,
        }
    }

    /// Figure-scale configuration.
    pub fn paper() -> Self {
        EndToEndSweep {
            sessions: 10,
            txn_points: &[100, 500, 1000, 2000, 3000],
            ops_per_txn_points: &[4, 12, 16, 20, 24],
            object_points: &[100, 200, 500, 1000, 5000],
            base_txns: 1000,
            base_ops_per_txn: 16,
            base_objects: 500,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn end_to_end_sweep(
    sweep: &EndToEndSweep,
    isolation: IsolationMode,
    mtc_checker: Checker,
    baseline_checker: Checker,
    prefix: &str,
) -> Vec<Table> {
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
        (mt, gt)
    };
    let row = |x: String, mt: &crate::exec::EndToEnd, gt: &crate::exec::EndToEnd| {
        vec![
            x,
            secs(mt.generation),
            secs(mt.verification),
            mib(mt.memory_bytes),
            secs(gt.generation),
            secs(gt.verification),
            mib(gt.memory_bytes),
        ]
    };

    let mut by_txns = Table::new(format!("{prefix}_by_txns"), &columns);
    for &txns in sweep.txn_points {
        let (mt, gt) = run_point(txns, sweep.base_ops_per_txn, sweep.base_objects);
        by_txns.push_row(row(txns.to_string(), &mt, &gt));
    }
    let mut by_ops = Table::new(format!("{prefix}_by_ops_per_txn"), &columns);
    for &ops in sweep.ops_per_txn_points {
        let (mt, gt) = run_point(sweep.base_txns, ops, sweep.base_objects);
        by_ops.push_row(row(ops.to_string(), &mt, &gt));
    }
    let mut by_objects = Table::new(format!("{prefix}_by_objects"), &columns);
    for &objects in sweep.object_points {
        let (mt, gt) = run_point(sweep.base_txns, sweep.base_ops_per_txn, objects);
        by_objects.push_row(row(objects.to_string(), &mt, &gt));
    }
    vec![by_txns, by_ops, by_objects]
}

/// Figure 10: end-to-end SER checking (time and memory), MTC with MT
/// workloads vs Cobra with GT workloads.
pub fn fig10_end_to_end_ser(sweep: &EndToEndSweep) -> Vec<Table> {
    end_to_end_sweep(
        sweep,
        IsolationMode::Serializable,
        Checker::MtcSer,
        Checker::CobraSer,
        "fig10",
    )
}

/// Figure 17 (Appendix D): end-to-end SI checking, MTC vs PolySI.
pub fn fig17_end_to_end_si(sweep: &EndToEndSweep) -> Vec<Table> {
    end_to_end_sweep(
        sweep,
        IsolationMode::Snapshot,
        Checker::MtcSi,
        Checker::PolySiSi,
        "fig17",
    )
}

// ───────────────────────────── Figure 11 ────────────────────────────────────

/// Size parameters for the abort-rate comparison.
#[derive(Clone, Copy, Debug)]
pub struct AbortRateSweep {
    /// Values of the #sessions sweep.
    pub session_points: &'static [u32],
    /// Values of the skewness sweep (#txns / #objects).
    pub skew_points: &'static [u32],
    /// Transactions per session.
    pub txns_per_session: u32,
    /// Operations per GT transaction (the paper uses 20).
    pub gt_ops_per_txn: u32,
    /// Objects used in the #sessions sweep.
    pub num_keys: u64,
}

impl AbortRateSweep {
    /// Sub-second configuration.
    pub fn quick() -> Self {
        AbortRateSweep {
            session_points: &[2, 4],
            skew_points: &[2, 10],
            txns_per_session: 30,
            gt_ops_per_txn: 8,
            num_keys: 40,
        }
    }

    /// Figure-scale configuration.
    pub fn paper() -> Self {
        AbortRateSweep {
            session_points: &[5, 10, 15, 20],
            skew_points: &[1, 5, 10, 20],
            txns_per_session: 100,
            gt_ops_per_txn: 20,
            num_keys: 200,
        }
    }
}

/// Figure 11: abort rates of GT vs MT workloads under SER and SI, as
/// concurrency (#sessions) and skewness (#txns/#objects) grow.
pub fn fig11_abort_rates(sweep: &AbortRateSweep) -> Vec<Table> {
    let run = |isolation: IsolationMode, sessions: u32, num_keys: u64, gt: bool| -> f64 {
        let config = DbConfig::correct(isolation, num_keys);
        let opts = ClientOptions {
            max_retries: 0,
            record_aborted: true,
        };
        let report = if gt {
            let spec = GtWorkloadSpec {
                sessions,
                txns_per_session: sweep.txns_per_session,
                ops_per_txn: sweep.gt_ops_per_txn,
                num_keys,
                distribution: Distribution::Uniform,
                read_only_fraction: 0.2,
                write_only_fraction: 0.4,
                seed: 0xF11,
            };
            run_register_workload(&Database::new(config), &generate_gt_workload(&spec), &opts).1
        } else {
            let spec = MtWorkloadSpec {
                sessions,
                txns_per_session: sweep.txns_per_session,
                num_keys,
                distribution: Distribution::Uniform,
                read_only_fraction: 0.2,
                two_key_fraction: 0.5,
                seed: 0xF11,
            };
            run_register_workload(&Database::new(config), &generate_mt_workload(&spec), &opts).1
        };
        report.abort_rate()
    };

    let mut by_sessions = Table::new(
        "fig11a_abort_rate_by_sessions",
        &["sessions", "GT-SER", "GT-SI", "MT-SER", "MT-SI"],
    );
    for &sessions in sweep.session_points {
        by_sessions.push_row(vec![
            sessions.to_string(),
            format!(
                "{:.3}",
                run(IsolationMode::Serializable, sessions, sweep.num_keys, true)
            ),
            format!(
                "{:.3}",
                run(IsolationMode::Snapshot, sessions, sweep.num_keys, true)
            ),
            format!(
                "{:.3}",
                run(IsolationMode::Serializable, sessions, sweep.num_keys, false)
            ),
            format!(
                "{:.3}",
                run(IsolationMode::Snapshot, sessions, sweep.num_keys, false)
            ),
        ]);
    }

    let mut by_skew = Table::new(
        "fig11b_abort_rate_by_skewness",
        &["txns_per_object", "GT-SER", "GT-SI", "MT-SER", "MT-SI"],
    );
    let sessions = *sweep.session_points.last().unwrap_or(&4);
    for &skew in sweep.skew_points {
        // skewness = #txns / #objects, so #objects = #txns / skew.
        let total_txns = (sessions * sweep.txns_per_session) as u64;
        let num_keys = (total_txns / skew as u64).max(1);
        by_skew.push_row(vec![
            skew.to_string(),
            format!(
                "{:.3}",
                run(IsolationMode::Serializable, sessions, num_keys, true)
            ),
            format!(
                "{:.3}",
                run(IsolationMode::Snapshot, sessions, num_keys, true)
            ),
            format!(
                "{:.3}",
                run(IsolationMode::Serializable, sessions, num_keys, false)
            ),
            format!(
                "{:.3}",
                run(IsolationMode::Snapshot, sessions, num_keys, false)
            ),
        ]);
    }
    vec![by_sessions, by_skew]
}

// ───────────────────────────── Backend matrix ───────────────────────────────

/// Size parameters for the cross-backend matrix.
#[derive(Clone, Copy, Debug)]
pub struct BackendSweep {
    /// Sessions issuing transactions.
    pub sessions: u32,
    /// Transactions per session.
    pub txns_per_session: u32,
    /// Number of objects (small, so anomalies of the weak engines have a
    /// chance to materialize organically).
    pub num_keys: u64,
}

impl BackendSweep {
    /// Sub-second configuration.
    pub fn quick() -> Self {
        BackendSweep {
            sessions: 4,
            txns_per_session: 50,
            num_keys: 8,
        }
    }

    /// Figure-scale configuration.
    pub fn paper() -> Self {
        BackendSweep {
            sessions: 8,
            txns_per_session: 400,
            num_keys: 16,
        }
    }
}

/// The backend dimension of the experiment matrix: run the same MT workload
/// against every in-tree backend ([`BackendSpec::fleet`]) — the OCC
/// simulator at three modes, the strict-2PL engine and both weak MVCC
/// levels, all **without any fault injection** — and report, per backend,
/// what it promises, what each checker decided, and whether the streaming
/// verdicts agree with the batch ones.
///
/// Backends that promise a level must never be flagged at it; the weak
/// engines promise nothing, so any flag against them is an *organic*
/// anomaly produced by their concurrency control.
pub fn backend_matrix(sweep: &BackendSweep) -> Table {
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
    for backend_spec in BackendSpec::fleet(sweep.num_keys) {
        let db = backend_spec.build();
        // Zero-latency engines barely overlap under free-running threads, so
        // non-blocking backends run under the deterministic op-by-op
        // interleaved driver — real concurrency on a reproducible schedule,
        // which is what lets the weak engines' organic anomalies show up in
        // the matrix. Blocking (locking) engines keep one thread per
        // session.
        let (history, report) = if backend_spec.blocking() {
            run_register_workload(db.as_ref(), &workload, &ClientOptions::default())
        } else {
            mtc_dbsim::ExecutionOptions::interleaved(0xBACD).run(db.as_ref(), &workload)
        };
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
                    backend_spec.label(),
                    batch.detail
                );
            }
            verdicts.push(if batch.violated { "violated" } else { "ok" });
        }
        table.push_row(vec![
            backend_spec.label().to_string(),
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

    // Remote rows: representative engines behind the loopback TCP server,
    // one connection per session thread. A promising engine must keep its
    // promises *through the wire*, and a weak engine's organic anomalies must
    // survive the round trip.
    for engine in ["sim-ser", "weak-rc"] {
        let spec = mtc_net::spec_for_label(engine, sweep.num_keys).expect("fleet label resolves");
        let server = mtc_net::NetServer::spawn(spec).expect("loopback server spawns");
        let db = mtc_net::NetBackend::connect(server.addr()).expect("loopback connect");
        let (history, report) = mtc_dbsim::ExecutionOptions::threaded().run(&db, &workload);
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
        drop(db);
        let _ = server.shutdown();
    }
    table
}

// ───────────────────────────── Table II ─────────────────────────────────────

/// One rediscovered-bug scenario of Table II.
#[derive(Clone, Copy, Debug)]
pub struct BugScenario {
    /// Human-readable database the scenario stands in for.
    pub database: &'static str,
    /// Claimed isolation level (what we check against).
    pub level: IsolationLevel,
    /// The anomaly the injected fault produces.
    pub anomaly: &'static str,
    /// The injected fault.
    pub fault: FaultKind,
    /// The isolation mode the faulty engine otherwise runs at.
    pub engine: IsolationMode,
    /// Per-transaction fault probability.
    pub probability: f64,
    /// Key-space override. The SER-level scenarios need write-skew-shaped
    /// interleavings, which require two concurrent transactions to pick the
    /// same pair of objects — a very small key space makes the rediscovery
    /// reliable within a short history (the paper's runs are 30 minutes
    /// long; ours are a few hundred transactions).
    pub keys: Option<u64>,
}

/// The six Table II scenarios mapped onto simulator faults.
pub fn table2_scenarios() -> Vec<BugScenario> {
    vec![
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
    ]
}

/// Size parameters for the bug-rediscovery experiment.
#[derive(Clone, Copy, Debug)]
pub struct BugSweep {
    /// Sessions issuing transactions.
    pub sessions: u32,
    /// Transactions per session.
    pub txns_per_session: u32,
    /// Objects (small, to force contention — the paper uses 10).
    pub num_keys: u64,
    /// Multiplier applied to each scenario's fault probability (quick runs
    /// use a higher density so the bug appears in a much shorter history).
    pub fault_boost: f64,
    /// Per-operation latency of the simulated database, in microseconds
    /// (non-zero so that transactions genuinely overlap).
    pub op_latency_us: u64,
}

impl BugSweep {
    /// Sub-second configuration.
    pub fn quick() -> Self {
        BugSweep {
            sessions: 4,
            txns_per_session: 150,
            num_keys: 8,
            fault_boost: 10.0,
            op_latency_us: 150,
        }
    }

    /// Figure-scale configuration.
    pub fn paper() -> Self {
        BugSweep {
            sessions: 10,
            txns_per_session: 300,
            num_keys: 10,
            fault_boost: 1.0,
            op_latency_us: 200,
        }
    }
}

/// Table II: run every bug scenario against the fault-injected simulator and
/// report whether MTC detects a violation, where the counterexample sits in
/// the history, and how long generation and verification took.
pub fn table2_bug_rediscovery(sweep: &BugSweep) -> Table {
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
    for scenario in table2_scenarios() {
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
                std::time::Duration::from_micros(sweep.op_latency_us),
                std::time::Duration::from_micros(sweep.op_latency_us / 2),
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
    table
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

/// Size parameters for the effectiveness comparison against Elle.
#[derive(Clone, Copy, Debug)]
pub struct EffectivenessSweep {
    /// Trials per configuration (the paper runs repeated 30-minute sessions;
    /// we count bug-detecting trials out of `trials`).
    pub trials: u32,
    /// Sessions per trial.
    pub sessions: u32,
    /// Transactions per session per trial.
    pub txns_per_session: u32,
    /// Number of objects (the paper uses 10).
    pub num_keys: u64,
    /// The max-transaction-length points (x-axis of Figure 13).
    pub txn_len_points: &'static [u32],
    /// Per-transaction fault probability of the buggy engines.
    pub fault_probability: f64,
}

impl EffectivenessSweep {
    /// Sub-second configuration.
    pub fn quick() -> Self {
        EffectivenessSweep {
            trials: 2,
            sessions: 3,
            txns_per_session: 40,
            num_keys: 6,
            txn_len_points: &[2, 4],
            fault_probability: 0.2,
        }
    }

    /// Figure-scale configuration.
    pub fn paper() -> Self {
        EffectivenessSweep {
            trials: 10,
            sessions: 10,
            txns_per_session: 300,
            num_keys: 10,
            txn_len_points: &[2, 4, 6, 8, 10, 12],
            fault_probability: 0.02,
        }
    }
}

/// The simulated buggy databases of the effectiveness experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuggyTarget {
    /// "PostgreSQL-like": claims SER, occasionally skips read validation.
    PostgresSer,
    /// "MongoDB-like": claims SI, occasionally releases dirty writes.
    MongoSi,
}

impl BuggyTarget {
    fn config(self, num_keys: u64, probability: f64, seed: u64) -> DbConfig {
        let latency = std::time::Duration::from_micros(100);
        match self {
            BuggyTarget::PostgresSer => DbConfig::correct(IsolationMode::Serializable, num_keys)
                .with_latency(latency, latency / 2)
                .with_faults(
                    vec![FaultSpec::new(FaultKind::SkipReadValidation, probability)],
                    seed,
                ),
            BuggyTarget::MongoSi => DbConfig::correct(IsolationMode::Snapshot, num_keys)
                .with_latency(latency, latency / 2)
                .with_faults(
                    vec![FaultSpec::new(FaultKind::DirtyRelease, probability)],
                    seed,
                ),
        }
    }

    fn level(self) -> ElleLevel {
        match self {
            BuggyTarget::PostgresSer => ElleLevel::Serializability,
            BuggyTarget::MongoSi => ElleLevel::SnapshotIsolation,
        }
    }

    fn label(self) -> &'static str {
        match self {
            BuggyTarget::PostgresSer => "pg",
            BuggyTarget::MongoSi => "mongo",
        }
    }
}

struct EffectivenessPoint {
    bugs_mini: u32,
    bugs_append: u32,
    bugs_wr: u32,
    gen_mini: f64,
    gen_append: f64,
    gen_wr: f64,
    verify_mini: f64,
    verify_append: f64,
    verify_wr: f64,
}

fn effectiveness_point(
    target: BuggyTarget,
    sweep: &EffectivenessSweep,
    max_txn_len: u32,
) -> EffectivenessPoint {
    let mut point = EffectivenessPoint {
        bugs_mini: 0,
        bugs_append: 0,
        bugs_wr: 0,
        gen_mini: 0.0,
        gen_append: 0.0,
        gen_wr: 0.0,
        verify_mini: 0.0,
        verify_append: 0.0,
        verify_wr: 0.0,
    };
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
        let checker = match target {
            BuggyTarget::PostgresSer => Checker::MtcSer,
            BuggyTarget::MongoSi => Checker::MtcSi,
        };
        let outcome = verify(checker, &history);
        point.gen_mini += report.wall_time.as_secs_f64();
        point.verify_mini += outcome.duration.as_secs_f64();
        point.bugs_mini += u32::from(outcome.violated);

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
        let out = elle_check_list_append(&list_history, target.level());
        point.gen_append += report.wall_time.as_secs_f64();
        point.verify_append += start.elapsed().as_secs_f64();
        point.bugs_append += u32::from(!out.satisfied);

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
        let wr_checker = match target {
            BuggyTarget::PostgresSer => Checker::ElleRwSer,
            BuggyTarget::MongoSi => Checker::ElleRwSi,
        };
        let outcome = verify(wr_checker, &wr_history);
        point.gen_wr += report.wall_time.as_secs_f64();
        point.verify_wr += outcome.duration.as_secs_f64();
        point.bugs_wr += u32::from(outcome.violated);
    }
    point
}

/// Figure 13: number of bug-detecting trials, MTC vs Elle (list-append and
/// rw-register) as the maximum transaction length varies, on the simulated
/// buggy PostgreSQL (SER) and MongoDB (SI).
pub fn fig13_effectiveness(sweep: &EffectivenessSweep) -> Vec<Table> {
    effectiveness_tables(sweep, false)
}

/// Figure 14: average end-to-end time (generation and verification) for the
/// same configurations as Figure 13.
pub fn fig14_elle_end_to_end(sweep: &EffectivenessSweep) -> Vec<Table> {
    effectiveness_tables(sweep, true)
}

fn effectiveness_tables(sweep: &EffectivenessSweep, timing: bool) -> Vec<Table> {
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
            let p = effectiveness_point(target, sweep, len);
            if timing {
                let avg = |total: f64| format!("{:.4}", total / sweep.trials as f64);
                table.push_row(vec![
                    len.to_string(),
                    avg(p.gen_mini),
                    avg(p.verify_mini),
                    avg(p.gen_append),
                    avg(p.verify_append),
                    avg(p.gen_wr),
                    avg(p.verify_wr),
                ]);
            } else {
                table.push_row(vec![
                    len.to_string(),
                    p.bugs_mini.to_string(),
                    p.bugs_append.to_string(),
                    p.bugs_wr.to_string(),
                    sweep.trials.to_string(),
                ]);
            }
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_expected_matrix() {
        let t = table1_anomalies();
        assert_eq!(t.len(), 14);
        for row in &t.rows {
            assert_eq!(row[5], "true", "mismatch for anomaly {}", row[0]);
        }
    }

    #[test]
    fn fig7_quick_runs_and_has_expected_shape() {
        let tables = fig7_ser_verification(&VerificationSweep::quick());
        assert_eq!(tables.len(), 4);
        assert_eq!(tables[0].len(), 4); // four distributions
        assert_eq!(
            tables[1].len(),
            VerificationSweep::quick().object_points.len()
        );
    }

    #[test]
    fn fig8_quick_runs() {
        let tables = fig8_si_verification(&VerificationSweep::quick());
        assert_eq!(tables.len(), 4);
        for t in &tables {
            assert!(!t.is_empty());
        }
    }

    #[test]
    fn fig9_quick_runs() {
        let tables = fig9_sser_verification(&SserSweep::quick());
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].len(), 3);
    }

    #[test]
    fn fig10_and_fig17_quick_run() {
        let tables = fig10_end_to_end_ser(&EndToEndSweep::quick());
        assert_eq!(tables.len(), 3);
        let tables = fig17_end_to_end_si(&EndToEndSweep::quick());
        assert_eq!(tables.len(), 3);
    }

    #[test]
    fn fig11_quick_reports_rates_between_zero_and_one() {
        let tables = fig11_abort_rates(&AbortRateSweep::quick());
        for t in &tables {
            for row in &t.rows {
                for cell in &row[1..] {
                    let v: f64 = cell.parse().unwrap();
                    assert!((0.0..=1.0).contains(&v), "abort rate {v} out of range");
                }
            }
        }
    }

    #[test]
    fn backend_matrix_quick_holds_promises_and_streaming_agreement() {
        let t = backend_matrix(&BackendSweep::quick());
        assert_eq!(
            t.len(),
            8,
            "one row per fleet backend plus the two remote rows"
        );
        assert!(
            t.rows.iter().any(|r| r[0] == "net/sim-ser"),
            "remote promising engine row missing"
        );
        assert!(
            t.rows.iter().any(|r| r[0] == "net/weak-rc"),
            "remote weak engine row missing"
        );
        for row in &t.rows {
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
    fn table2_quick_detects_every_injected_bug() {
        let t = table2_bug_rediscovery(&BugSweep::quick());
        assert_eq!(t.len(), 6);
        for row in &t.rows {
            assert_eq!(
                row[3], "true",
                "bug not detected for {} ({})",
                row[0], row[2]
            );
        }
    }

    #[test]
    fn fig13_quick_mtc_detects_bugs() {
        let sweep = EffectivenessSweep::quick();
        let tables = fig13_effectiveness(&sweep);
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.len(), sweep.txn_len_points.len());
        }
        // The dirty-release fault of the MongoDB-like target is detected
        // deterministically (the published-then-aborted value is read by a
        // later transaction almost surely at this contention level).
        let mongo = &tables[1];
        let total: u32 = mongo
            .rows
            .iter()
            .map(|r| r[1].parse::<u32>().unwrap())
            .sum();
        assert!(total > 0, "MTC detected no bugs in {}", mongo.title);
    }

    #[test]
    fn counterexample_position_parses_the_smallest_txn_id() {
        assert_eq!(counterexample_position("T42 -WR(1)-> T7"), Some(7));
        assert_eq!(counterexample_position("no ids here"), None);
    }
}
