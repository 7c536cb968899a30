//! End-to-end hot-path benchmark: engine events per second and simulated
//! seconds per wall second across a small grid of representative paper
//! conditions — the workload class that dominates a paper-scale grid
//! (540 s × 810 runs).
//!
//! Methodology:
//! * one untimed warm-up run per condition (page faults, lazy allocs and
//!   branch-predictor training land outside the timings),
//! * `--iters N` timed runs per condition (default 5), each a distinct
//!   seed, reporting **min / median / max** — single numbers are
//!   meaningless on shared hardware where run-to-run spread reaches ±10%,
//! * scheduler occupancy counters per condition (where events landed:
//!   fast lane / current bucket / wheel / overflow heap, cascade volume,
//!   slab high-watermark), so a throughput regression can be localised to
//!   scheduler behaviour without a profiler.
//!
//! Emits schema-versioned `BENCH_hotpath.json`. The top-level
//! `events_per_sec` key is the **median** over the headline condition
//! (`luna-cubic-b25-q2`, the paper's central competing-flow scenario) and
//! is what `ci.sh`'s perf smoke gate compares against.
//!
//! Usage: `cargo run --release -p gsrepro-bench --bin perf [--smoke]
//! [--iters N] [--csv PATH]` — `--csv` overrides the JSON output path.

use gsrepro_bench::{maybe_write_csv, median, parse_args};
use gsrepro_gamestream::SystemKind;
use gsrepro_simcore::{SchedStats, SimDuration};
use gsrepro_tcp::CcaKind;
use gsrepro_testbed::config::Condition;
use gsrepro_testbed::runner::run_condition;

/// Bump when the JSON layout changes shape (consumers: ci.sh, DESIGN.md).
const SCHEMA: u32 = 2;

/// The condition the headline number and the CI gate track.
const HEADLINE: &str = "luna-cubic-b25-q2";

struct CondReport {
    label: String,
    rates: Vec<f64>,
    wall_total: f64,
    sim_secs_per_run: f64,
    sched: SchedStats,
}

fn accumulate(total: &mut SchedStats, s: &SchedStats) {
    total.lane_scheduled += s.lane_scheduled;
    total.cur_scheduled += s.cur_scheduled;
    total.wheel_scheduled += s.wheel_scheduled;
    total.overflow_scheduled += s.overflow_scheduled;
    total.cascaded += s.cascaded;
    total.slab_high_watermark = total.slab_high_watermark.max(s.slab_high_watermark);
}

fn bench_condition(cond: &Condition, iterations: u32) -> CondReport {
    let label = cond.label();
    let sim_secs_per_run = (cond.timeline.end + SimDuration::from_secs(1)).as_secs_f64();

    // Warm-up: same work, clock ignored.
    run_condition(cond, 0);

    let mut rates = Vec::with_capacity(iterations as usize);
    let mut wall_total = 0.0;
    let mut sched = SchedStats::default();
    for iter in 0..iterations {
        let run = run_condition(cond, iter);
        let rate = run.events_processed as f64 / run.wall_secs;
        eprintln!(
            "{label} iter {iter}: {} events in {:.3} s ({:.2}M events/s)",
            run.events_processed,
            run.wall_secs,
            rate / 1e6,
        );
        rates.push(rate);
        wall_total += run.wall_secs;
        accumulate(&mut sched, &run.sched);
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    CondReport {
        label,
        rates,
        wall_total,
        sim_secs_per_run,
        sched,
    }
}

/// Median of a condition's timed rates, or a contextual config-error
/// exit (code 2) — fleet automation must be able to tell "bench was
/// invoked with no timed iterations" from a simulation failure.
fn median_or_die(label: &str, rates: &[f64]) -> f64 {
    median(rates).unwrap_or_else(|| {
        eprintln!("error: condition {label} produced no timed iterations (check --iters)");
        std::process::exit(2);
    })
}

fn json_condition(r: &CondReport) -> String {
    let med = median_or_die(&r.label, &r.rates);
    let s = &r.sched;
    let placed = s.lane_scheduled + s.cur_scheduled + s.wheel_scheduled + s.overflow_scheduled;
    let share = |n: u64| {
        if placed == 0 {
            0.0
        } else {
            n as f64 / placed as f64
        }
    };
    format!(
        "    {{\n      \"condition\": \"{}\",\n      \
         \"events_per_sec\": {{ \"min\": {:.0}, \"median\": {:.0}, \"max\": {:.0} }},\n      \
         \"sim_secs_per_wall_sec\": {:.1},\n      \
         \"sched\": {{\n        \
         \"scheduled\": {placed},\n        \
         \"lane_share\": {:.4},\n        \
         \"cur_share\": {:.4},\n        \
         \"wheel_share\": {:.4},\n        \
         \"overflow_share\": {:.6},\n        \
         \"cascaded\": {},\n        \
         \"slab_high_watermark\": {}\n      }}\n    }}",
        r.label,
        r.rates[0],
        med,
        r.rates[r.rates.len() - 1],
        r.sim_secs_per_run * r.rates.len() as f64 / r.wall_total,
        share(s.lane_scheduled),
        share(s.cur_scheduled),
        share(s.wheel_scheduled),
        share(s.overflow_scheduled),
        s.cascaded,
        s.slab_high_watermark,
    )
}

fn main() {
    let (opts, csv) = parse_args();

    // A cross-section of the grid: the headline competing-Cubic scenario,
    // the BBR counterpart (different ack clocking and pacing cadence), a
    // second streaming system (different encoder adaptation), and a solo
    // run (no competing flow — the scheduler sees mostly media traffic).
    let conditions = [
        Condition::new(SystemKind::Luna, Some(CcaKind::Cubic), 25, 2.0),
        Condition::new(SystemKind::Luna, Some(CcaKind::Bbr), 25, 2.0),
        Condition::new(SystemKind::GeForce, Some(CcaKind::Cubic), 25, 2.0),
        Condition::new(SystemKind::Luna, None, 25, 2.0),
    ];

    let mut reports = Vec::new();
    for cond in conditions {
        let cond = cond.with_timeline(opts.timeline);
        reports.push(bench_condition(&cond, opts.iterations));
    }

    let headline = reports
        .iter()
        .find(|r| r.label == HEADLINE)
        .unwrap_or(&reports[0]);
    let headline_rate = median_or_die(&headline.label, &headline.rates);
    let headline_ratio =
        headline.sim_secs_per_run * headline.rates.len() as f64 / headline.wall_total;

    let body: Vec<String> = reports.iter().map(json_condition).collect();
    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n  \
         \"condition\": \"{}\",\n  \
         \"iterations\": {},\n  \
         \"events_per_sec\": {headline_rate:.0},\n  \
         \"sim_secs_per_wall_sec\": {headline_ratio:.1},\n  \
         \"conditions\": [\n{}\n  ]\n}}\n",
        headline.label,
        opts.iterations,
        body.join(",\n"),
    );
    print!("{json}");

    let path = csv
        .clone()
        .unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    maybe_write_csv(&Some(path), &json);
}
