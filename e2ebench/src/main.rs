//! Benchmark command line.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! e2ebench --bless > reference.txt
//! ```
//!
//! A timed run (`--trace 0`) prints every end-to-end metric by name with
//! its unit, then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A traced run (`--trace 1`) prints
//! the per-layer metrics the same way. The exit code is 0 only when every
//! job's output matched the stored reference.

use std::process::ExitCode;

use gsrepro_e2ebench::layers;
use gsrepro_e2ebench::reference::{self, CellRef, Reference};
use gsrepro_e2ebench::stats::{median, percentile};
use gsrepro_e2ebench::workload::{self, cell_duration, Plan, Workload, POOL};
use gsrepro_testbed::chaos::{self, run_trial};
use gsrepro_testbed::config::{Grid, Timeline};
use gsrepro_testbed::model::{grade_cell, run_bulk_cell, OracleSpec};
use gsrepro_testbed::runner::{run_condition_with, run_jobs};

const USAGE: &str = "usage: e2ebench --workload <paper_grid|solo_stream|bulk_tcp|chaos_checked> \
--seed <n> --seconds <s> --trace <0|1>\n       e2ebench --bless > reference.txt";

/// Chaos trials stored per campaign seed: more than a pass runs on a
/// 2-vCPU host. Later trials are checked to be clean.
const BLESS_TRIALS: usize = 2048;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(RunArgs),
    Bless,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bless = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if bless {
        return Ok(Mode::Bless);
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Mode::Run(RunArgs {
            workload,
            seed,
            seconds,
            trace,
        })),
        _ => Err("--workload, --seed, --seconds and --trace are all required".into()),
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Print each `(name, value, unit)` and, last, the JSON result line.
/// A non-finite value is an error: the result line must be valid JSON.
fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, f64, &str)],
) -> Result<(), String> {
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("metric {name} is not finite ({value})"));
    }
    for (name, value, unit) in metrics {
        println!("metric {name:<44} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

/// A timed pass: the end-to-end metrics. Returns whether every job
/// passed its output check.
fn timed(args: &RunArgs) -> Result<bool, String> {
    let refs = Reference::builtin()?;
    let plan = Plan::new(args.workload, args.seed);

    println!(
        "workload {} seed {} input-set {} threads {} seconds {}",
        args.workload.name(),
        args.seed,
        plan.set,
        args.workload.threads(),
        args.seconds
    );
    let pass = workload::run_pass(&plan, &refs, args.seconds);
    let job_ms = pass.job_ms();
    let attempted = pass.outcomes.len();
    let failed = pass.failed();
    for o in pass.outcomes.iter().filter(|o| o.failure.is_some()) {
        println!(
            "FAILED job {}: {}",
            o.index,
            o.failure.as_deref().unwrap_or("")
        );
    }
    let tail = percentile(&job_ms, args.workload.tail_pct()).expect("at least MIN_JOBS jobs");
    println!(
        "jobs {attempted} failed {failed} failed_frac {} wall {:.3} s busy_frac {:.4}",
        failed as f64 / attempted as f64,
        pass.wall_s,
        pass.busy_frac()
    );
    println!(
        "job_tail_ms is p{} of {} jobs, {} beyond it{}",
        tail.percentile,
        tail.samples,
        tail.beyond,
        if tail.beyond < 10 {
            " (fewer than 10: too few jobs for this percentile)"
        } else {
            ""
        }
    );
    println!(
        "setup_s is the median over {} rounds of the first jobs' median set-up, timed before the pass",
        pass.setups.len()
    );
    if plan.workload == Workload::BulkTcp {
        let worst = pass
            .outcomes
            .iter()
            .filter_map(|o| o.model_err)
            .fold(0.0f64, f64::max);
        println!(
            "model_err_max {worst:.4} (worst |measured - Ware p*| over the applicable cells run)"
        );
    }
    let p50 = percentile(&job_ms, 50.0).expect("at least MIN_JOBS jobs");
    let metrics = [
        ("sim_s_per_wall_s", pass.sim_s_per_wall_s(), "s/s"),
        ("job_p50_ms", p50.value, "ms"),
        ("job_tail_ms", tail.value, "ms"),
        ("setup_s", median(&pass.setups).expect("one per job"), "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ]
    .map(|(name, value, unit)| (name.to_string(), value, unit));
    print_result(failed == 0, attempted, failed, &metrics)?;
    Ok(failed == 0)
}

/// A traced pass: the per-layer metrics.
fn traced(args: &RunArgs) -> Result<bool, String> {
    let refs = Reference::builtin()?;
    let plan = Plan::new(args.workload, args.seed);
    println!(
        "workload {} seed {} input-set {} traced",
        args.workload.name(),
        args.seed,
        plan.set
    );
    let report = layers::traced_pass(&plan, &refs, args.seconds);
    for note in &report.notes {
        println!("{note}");
    }
    for f in &report.failures {
        println!("FAILED {f}");
    }
    let failed = report.failures.len();
    print_result(failed == 0, report.attempted, failed, &report.metrics)?;
    Ok(failed == 0)
}

/// Run every job of every input set once and print the reference file.
fn bless() -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let describe = |i: usize| format!("bless job {i}");
    let fail = |f: Vec<gsrepro_testbed::runner::JobFailure>| {
        f.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    };
    println!("# gsrepro e2ebench reference outputs v1");
    println!("# Produced by `e2ebench --bless`; see src/reference.rs for the format.");

    let mut sessions = Vec::new();
    for cond in Grid::full(Timeline::paper())
        .into_iter()
        .chain(Grid::solo(Timeline::paper()))
    {
        for iter in 0..POOL as u32 {
            sessions.push((cond.clone(), iter));
        }
    }
    eprintln!("blessing {} sessions", sessions.len());
    let digests = run_jobs(
        sessions.len(),
        threads,
        |i| run_condition_with(&sessions[i].0, sessions[i].1, None, false, chaos::digest),
        describe,
    )
    .map_err(fail)?;
    for ((cond, iter), d) in sessions.iter().zip(digests) {
        println!("{}", reference::session_line(&cond.label(), *iter, d));
    }

    let cells = OracleSpec::paper().cells();
    eprintln!("blessing {} bulk cells", cells.len());
    let graded = run_jobs(
        cells.len(),
        threads,
        |i| {
            grade_cell(
                &cells[i],
                run_bulk_cell(&cells[i], cell_duration(), false, None),
            )
        },
        describe,
    )
    .map_err(fail)?;
    for g in graded {
        let c = CellRef {
            loss_bits: g.measured.loss_share.to_bits(),
            bbr_bits: g.measured.bbr_share.to_bits(),
            verdict: g.verdict.label(),
        };
        println!("{}", reference::cell_line(&g.cell.label(), &c));
    }

    for set in 0..POOL {
        let plan = Plan::new(Workload::ChaosChecked, set);
        eprintln!(
            "blessing {BLESS_TRIALS} chaos trials of seed {}",
            plan.chaos.seed
        );
        let tags = run_jobs(
            BLESS_TRIALS,
            threads,
            |i| run_trial(&plan.chaos.sample_trial(i as u32)).tag(),
            describe,
        )
        .map_err(fail)?;
        for line in reference::chaos_lines(plan.chaos.seed, &tags) {
            println!("{line}");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Mode::Bless) => bless().map(|()| true),
        Ok(Mode::Run(a)) if a.trace => traced(&a),
        Ok(Mode::Run(a)) => timed(&a),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(2)
        }
    }
}
