//! The repo's benchmark. `run` measures the five workloads end to end (or,
//! with `--trace 1`, layer by layer); `compare` holds two result files
//! against the bounds in `BENCHMARK.json`. See `benchmark/README.md`.

mod calib;
mod check;
mod compare;
mod fixtures;
mod metrics;
mod probes;
mod stats;
mod timed;
mod trace;
mod workloads;

use fixtures::{Kind, TempRoot, WorkloadDef, WORKLOADS};
use metrics::{MetricValue, ResultFile, RunRecord, Samples, PER_LAYER};
use stats::rate;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Clock;
use workloads::{run_rep, Ctx, Rep};

const USAGE: &str = "\
usage: mtc-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                         [--smoke] [--runs N] [--out FILE] [--out-dir DIR]
       mtc-benchmark compare A.json B.json

run      measures one workload in this process, or (without --workload, or
         with --runs) each requested run in a child process of its own.
         --trace 1 is the traced pass: per-layer metrics and a span file.
         --smoke runs at 1/20 size. The last line of a single run is the
         result object the driver reads.
compare  prints better / within-bound / worse / unresolved per workload and
         end-to-end metric under the directions and bounds of ./BENCHMARK.json,
         and fails if any is worse.";

struct RunArgs {
    workload: Option<&'static WorkloadDef>,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    runs: u64,
    out: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 20,
        traced: false,
        smoke: false,
        runs: 1,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    fixtures::workload(name)
                        .ok_or_else(|| format!("no workload named {name:?}"))?,
                );
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--runs" => parsed.runs = number(value()?)?.max(1),
            "--trace" => {
                parsed.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--out-dir" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a)),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mtc-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let single = args.workload.filter(|_| args.runs == 1);
    if let Some(code) = single.and_then(|def| rerun_on_one_cpu(def.kind)) {
        return code;
    }
    let runs = match single {
        Some(def) => {
            let record = run_workload(def, args)?;
            let mut detail = String::new();
            record.to_json().render(&mut detail);
            println!("detail {detail}");
            vec![record]
        }
        None => run_children(args)?,
    };
    if runs.len() > 1 {
        print_spreads(&runs);
    }
    let contract_line = single.map(|_| runs[0].contract_line());
    if let Some(path) = &args.out {
        let file = ResultFile {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            git_commit: git_commit(),
            runs,
        };
        let mut text = String::new();
        file.to_json().render(&mut text);
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(line) = contract_line {
        // The driver reads the last line of standard output.
        println!("{line}");
    }
    Ok(ExitCode::SUCCESS)
}

/// The CPUs this process may run on: `Cpus_allowed_list` of
/// `/proc/self/status`, as in `0-1` or `2,5-7`.
fn allowed_cpus() -> Vec<u32> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or_default();
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<u32> {
    list.split(',')
        .filter_map(|part| {
            let (first, last) = part.split_once('-').unwrap_or((part, part));
            Some(first.trim().parse().ok()?..=last.trim().parse().ok()?)
        })
        .flatten()
        .collect()
}

/// A workload that needs threads (see [`Kind::on_one_cpu`]) runs again in a
/// child of this process that `taskset` holds on the first CPU this one may
/// use; the child's output is this run's output and its exit code this
/// run's. `None` when there is nothing to do: the workload runs anywhere,
/// this process is already on one CPU (it is that child), or `taskset` is
/// not to be had, and the run goes on here.
fn rerun_on_one_cpu(kind: Kind) -> Option<Result<ExitCode, String>> {
    let cpus = allowed_cpus();
    if !kind.on_one_cpu() || cpus.len() < 2 {
        return None;
    }
    let cpu = cpus[0].to_string();
    let taskset = || {
        let mut cmd = std::process::Command::new("taskset");
        cmd.args(["-c", &cpu]);
        cmd
    };
    if !matches!(taskset().arg("true").status(), Ok(status) if status.success()) {
        println!("  taskset cannot hold a process on CPU {cpu}: this run uses every CPU it may");
        return None;
    }
    let rerun = std::env::current_exe()
        .and_then(|exe| {
            taskset()
                .arg(exe)
                .args(std::env::args_os().skip(1))
                .status()
        })
        .map(|status| ExitCode::from(status.code().map_or(1, |code| code as u8)))
        .map_err(|e| format!("run again under taskset: {e}"));
    Some(rerun)
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Every requested run in a fresh child process, so that peak memory, the
/// `mtc_obs` switch and the autotuner's once-per-process result never
/// carry over from one run to the next.
fn run_children(args: &RunArgs) -> Result<Vec<RunRecord>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let defs: Vec<&WorkloadDef> = match args.workload {
        Some(def) => vec![def],
        None => WORKLOADS.iter().collect(),
    };
    let mut records = Vec::new();
    for def in defs {
        for run in 0..args.runs {
            let mut cmd = std::process::Command::new(&exe);
            cmd.arg("run")
                .args(["--workload", def.name])
                .args(["--seed", &(args.seed + run).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.traced { "1" } else { "0" }])
                .arg("--out-dir")
                .arg(&args.out_dir);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("start a run of {}: {e}", def.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            if !output.status.success() {
                print!("{stdout}");
                return Err(format!(
                    "the run of {} failed ({})",
                    def.name, output.status
                ));
            }
            let mut detail = None;
            for line in stdout.lines() {
                match line.strip_prefix("detail ") {
                    Some(json) => detail = Some(json.to_string()),
                    // The child's own result line is not this process's.
                    None if line.starts_with('{') => {}
                    None => println!("{line}"),
                }
            }
            let detail = detail.ok_or_else(|| format!("{} printed no detail line", def.name))?;
            let value = serde_json::parse(&detail).map_err(|e| format!("detail line: {e}"))?;
            records.push(RunRecord::from_json(&value)?);
        }
    }
    Ok(records)
}

/// For repeated runs: each metric's median over the runs and the spread
/// the acceptance rule looks at.
fn print_spreads(runs: &[RunRecord]) {
    println!("\nacross runs: median, and the quartile distance as a share of it");
    for def in WORKLOADS {
        let of_workload: Vec<&RunRecord> = runs.iter().filter(|r| r.workload == def.name).collect();
        if of_workload.len() < 2 {
            continue;
        }
        for metric in &of_workload[0].metrics {
            let values: Vec<f64> = of_workload
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| m.name == metric.name))
                .map(|m| m.value)
                .collect();
            let spread = stats::quartile_spread(&values)
                .map_or_else(|| "n/a".to_string(), |s| format!("{:.2} %", s * 100.0));
            println!(
                "  {:<18} {:<32} {:>16.4} {:<7} spread {spread} over {} runs",
                def.name,
                metric.name,
                stats::median(&values),
                metric.unit,
                values.len()
            );
        }
    }
}

fn vm_hwm_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The totals a run reports beside its metrics.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    reps: u64,
    organic_violations: u64,
}

impl Totals {
    fn add(&mut self, rep: &Rep) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        self.reps += 1;
        self.organic_violations += u64::from(rep.organic_violation);
    }
}

/// One run of one workload, in this process.
fn run_workload(def: &'static WorkloadDef, args: &RunArgs) -> Result<RunRecord, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let tmp = TempRoot::create(&args.out_dir).map_err(|e| format!("temp root: {e}"))?;
    let ctx = Ctx {
        def,
        seed: args.seed,
        smoke: args.smoke,
        tmp: tmp.path(),
    };
    let per_driver = fixtures::txns_per_driver(def.kind, args.smoke);
    println!("{}: {}", def.name, def.why);
    println!(
        "{}: seed {}, {} s, {} x {} transactions per repetition, {}",
        def.name,
        args.seed,
        args.seconds,
        fixtures::DRIVERS,
        per_driver,
        if args.traced {
            "traced pass"
        } else {
            "tracing off"
        }
    );
    if def.kind.on_one_cpu() {
        println!(
            "{}: this process may run on CPU {:?} only",
            def.name,
            allowed_cpus()
        );
    }

    // Nothing is measured before the checkers have shown they can see a fault.
    check::fault_probe(args.seed)?;
    let off = Clock::new(false);
    // One discarded repetition: page faults, lazy set-up, the autotuner.
    run_rep(&ctx, &mut off.lane(0, None), false)?;

    let mut samples = Samples::default();
    let mut totals = Totals::default();
    let mut slowness = 0.0;
    let budget = Duration::from_secs(args.seconds);
    let metrics = if args.traced {
        traced_pass(&ctx, budget, &args.out_dir, &mut samples, &mut totals)?;
        samples.values(PER_LAYER)?
    } else {
        // The reference work once for its own warm-up, then before, between
        // and after the repetitions: the run is read against the machine's
        // speed while it ran.
        calib::reference_work();
        let mut reference = vec![calib::reference_work()];
        let started = Instant::now();
        // Until one more repetition of average length would end past the
        // budget: the run measures for `--seconds`, not a repetition more.
        while started.elapsed() + started.elapsed() / totals.reps.max(1) as u32 <= budget
            || totals.reps == 0
        {
            let rep = run_rep(&ctx, &mut off.lane(0, None), false)?;
            reference.push(calib::reference_work());
            push_end_to_end(&rep, &mut samples);
            totals.add(&rep);
        }
        samples.push("peak_rss_mb", vm_hwm_mib()?);
        slowness = calib::slowness(&reference);
        samples.end_to_end(slowness)?
    };
    print_metrics(&metrics, &totals);
    if !args.traced {
        println!(
            "  the rates and set-up time above are the faster half of the repetitions, scaled to a \
             machine of nominal speed; this one was {slowness:.3} x as slow (reference work \
             {:.1} ms against {} ms)",
            slowness * calib::NOMINAL.as_secs_f64() * 1e3,
            calib::NOMINAL.as_millis()
        );
    }
    Ok(RunRecord {
        workload: def.name.to_string(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        correct: true,
        machine_slowness: slowness,
        attempted: totals.attempted.max(1),
        failed: totals.failed,
        reps: totals.reps,
        sizes: vec![
            ("drivers".into(), fixtures::DRIVERS.into()),
            ("txns_per_driver".into(), per_driver.into()),
            ("num_keys".into(), fixtures::NUM_KEYS),
        ],
        metrics,
    })
}

/// One repetition's end-to-end samples, as the clock read them.
fn push_end_to_end(rep: &Rep, s: &mut Samples) {
    s.push("setup_s", rep.setup.as_secs_f64());
    s.push("e2e_txns_per_s", rate(rep.txns, rep.e2e));
    s.push("exec_txns_per_s", rate(rep.txns, rep.exec));
    s.push("verify_txns_per_s", rate(rep.verify_txns, rep.verify));
}

fn print_metrics(metrics: &[MetricValue], totals: &Totals) {
    for m in metrics {
        println!(
            "  {:<32} {:>16.4} {:<7} (min {:.4}, max {:.4})",
            m.name, m.value, m.unit, m.min, m.max
        );
    }
    println!(
        "  {} measured repetitions, {} operations attempted, {} failed, {} organic violations \
         (flagged alike by every checker)",
        totals.reps, totals.attempted, totals.failed, totals.organic_violations
    );
}

/// The traced pass: untraced and traced repetitions side by side (their
/// difference is the tracing overhead), the span file, then every layer's
/// probes on this workload's inputs.
fn traced_pass(
    ctx: &Ctx,
    budget: Duration,
    out_dir: &Path,
    s: &mut Samples,
    totals: &mut Totals,
) -> Result<(), String> {
    let off = Clock::new(false);
    let on = Clock::new(true);
    let (mut plain_rates, mut traced_rates) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    let mut kept = None;
    let started = Instant::now();
    // Pairs for two fifths of the budget (the probes take the rest), or
    // until the span file would pass some tens of megabytes.
    while kept.is_none() || (started.elapsed() < budget * 2 / 5 && spans.len() < 300_000) {
        let plain = run_rep(ctx, &mut off.lane(0, None), false)?;
        plain_rates.push(rate(plain.txns, plain.e2e));
        totals.add(&plain);

        let mut lane = on.lane(traced_rates.len() as u32, None);
        let rep = run_rep(ctx, &mut lane, true)?;
        let rep_spans = lane.finish();
        let root = rep
            .root
            .ok_or("a traced repetition recorded no root span")?;
        let covered = trace::coverage(&rep_spans, root);
        if covered < 0.95 {
            return Err(format!(
                "spans on the driving thread account for only {:.1} % of the repetition",
                covered * 100.0
            ));
        }
        traced_rates.push(rate(rep.txns, rep.e2e));
        s.push("workload.generate_s", rep.generate.as_secs_f64());
        totals.add(&rep);
        spans.extend(rep_spans);
        kept = Some(rep.kept);
    }
    let path = out_dir.join(format!("trace_{}.jsonl", ctx.def.name));
    trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("  {} spans in {}", spans.len(), path.display());
    print_layer_shares(&spans);
    drop(spans);

    s.push(
        "bench.trace_overhead",
        1.0 - stats::median(&traced_rates) / stats::median(&plain_rates).max(1e-9),
    );
    s.push(
        "failed_share",
        totals.failed as f64 / totals.attempted.max(1) as f64,
    );

    let (templates, stream) = match kept.flatten() {
        Some(templates) => (templates, None),
        // The service executes no templates: its dbsim and net probes run
        // uniform ones, its other probes the first tenant's stream.
        None => {
            let per_session = fixtures::txns_per_driver(Kind::Service, ctx.smoke);
            let spec = fixtures::mt_spec(Kind::Service, ctx.seed, per_session);
            let first_tenant = workloads::service_streams(ctx.seed, ctx.smoke).swap_remove(0);
            (
                mtc_workload::generate_mt_workload(&spec),
                Some(first_tenant.iter().map(fixtures::txn_of).collect()),
            )
        }
    };
    let fixture = probes::Fixture {
        templates,
        stream,
        seed: ctx.seed,
        smoke: ctx.smoke,
    };
    probes::run_all(&fixture, ctx.tmp, s)
}

/// Where the first traced repetition's time went: self time per layer on
/// each thread, as a share of the time that thread's spans cover.
fn print_layer_shares(spans: &[trace::Span]) {
    // Repetitions are appended whole, so the first one is a prefix.
    let end = spans
        .iter()
        .position(|s| s.trace != 0)
        .unwrap_or(spans.len());
    let rows = trace::layer_self_seconds(&spans[..end]);
    let mut per_thread: std::collections::BTreeMap<u32, f64> = Default::default();
    for (_, thread, seconds) in &rows {
        *per_thread.entry(*thread).or_default() += seconds;
    }
    println!("  self time per layer and thread (first traced repetition):");
    for (layer, thread, seconds) in rows {
        let share = seconds / per_thread[&thread].max(1e-9);
        println!(
            "    thread {thread:<3} {layer:<10} {seconds:>9.4} s  {:>5.1} %",
            share * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::parse_cpu_list;

    #[test]
    fn cpu_lists_of_proc_status_are_read() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("2,5-7"), [2, 5, 6, 7]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert!(parse_cpu_list("").is_empty());
    }
}
