//! The four timed workloads, their seeded inputs and the closed-loop pass
//! that runs them.
//!
//! Every workload is a batch of independent jobs (a 540-s session, a
//! 120-s bulk cell or a two-leg chaos trial). A worker takes the next job
//! as soon as its previous one finishes, until the pass's time is up.
//! The seed reaches a workload only through the inputs it selects: the
//! iteration index of each session or the chaos campaign seed. Bulk cells
//! take their randomness from their labels (`BulkCell::seed`), so no
//! input of `bulk_tcp` depends on the seed.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use gsrepro_simcore::SimDuration;
use gsrepro_testbed::chaos::{self, run_trial, ChaosSpec, Perturbation, Trial};
use gsrepro_testbed::config::{Condition, Grid, Timeline};
use gsrepro_testbed::model::{grade_cell, run_bulk_cell, BulkCell, CellVerdict, OracleSpec};
use gsrepro_testbed::runner::{run_condition_with, run_jobs};
use gsrepro_testbed::topology;

use crate::reference::Reference;
use crate::stats::median;

/// Number of distinct input sets: `--seed n` selects set `n % POOL`, and
/// the stored reference covers every job of every set.
pub const POOL: u64 = 8;

/// Campaign seed of chaos input set 0 (`ChaosSpec::default().seed`).
const CHAOS_SEED_BASE: u64 = 0xC4A0;

/// Timeline scale of every chaos trial (≈ 27 s per leg).
const CHAOS_SCALE: f64 = 0.05;

/// A pass always completes at least this many jobs, so the tail figure
/// has ten samples beyond it.
pub const MIN_JOBS: usize = 11;

/// Jobs whose set-up a pass times before it starts.
const SETUP_SAMPLES: usize = 256;

/// Host time a pass spends timing set-ups before it starts.
const SETUP_WINDOW: Duration = Duration::from_secs(1);

/// Stride through the 54-condition paper grid: consecutive jobs alternate
/// CCA and system, so any prefix of a pass is a balanced mix.
const PAPER_STRIDE: usize = 31;

/// Stride through the 27-condition solo grid.
const SOLO_STRIDE: usize = 10;

/// Stride through the 20 bulk cells: cheap shallow-queue cells alternate
/// with costly deep-queue ones (90 to 450 ms each).
const BULK_STRIDE: usize = 7;

/// One named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 54 sessions, 540 s each, on one thread.
    PaperGrid,
    /// The 27 solo sessions (no TCP flow), on one thread.
    SoloStream,
    /// The 20 bulk Cubic-vs-BBR model-oracle cells, on one thread.
    BulkTcp,
    /// Checked chaos trials (two legs, oracles and watchdog), two threads.
    ChaosChecked,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::SoloStream,
        Workload::BulkTcp,
        Workload::ChaosChecked,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::SoloStream => "solo_stream",
            Workload::BulkTcp => "bulk_tcp",
            Workload::ChaosChecked => "chaos_checked",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Percentile of the job-time tail: the highest of p75, p90, p95 and
    /// p99 that leaves at least ten jobs beyond it in a 25-s pass on a
    /// 2-vCPU host, with a margin so that it stays fixed across runs.
    pub fn tail_pct(self) -> f64 {
        match self {
            Workload::ChaosChecked => 99.0,
            _ => 75.0,
        }
    }

    /// Worker threads of the closed loop.
    pub fn threads(self) -> usize {
        match self {
            Workload::ChaosChecked => 2,
            _ => 1,
        }
    }
}

/// One job of a workload.
#[derive(Clone, Debug)]
pub enum Job {
    /// A full testbed session.
    Session {
        /// The condition.
        cond: Condition,
        /// Its iteration index.
        iter: u32,
    },
    /// A bulk Cubic-vs-BBR cell graded against the Ware model.
    Cell(BulkCell),
    /// A chaos trial and its index in the campaign.
    Trial(u32, Box<Trial>),
}

/// The seeded inputs of one workload.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Input set, `seed % POOL`.
    pub set: u64,
    /// Session conditions in run order (session workloads).
    conds: Vec<Condition>,
    /// Bulk cells in run order (`bulk_tcp`).
    cells: Vec<BulkCell>,
    /// The chaos campaign (`chaos_checked`).
    pub chaos: ChaosSpec,
}

/// Bulk cell run length, as in `OracleSpec::paper`.
pub fn cell_duration() -> SimDuration {
    OracleSpec::paper().duration
}

fn stride_order<T: Clone>(items: Vec<T>, stride: usize) -> Vec<T> {
    let n = items.len();
    (0..n).map(|k| items[(k * stride) % n].clone()).collect()
}

impl Plan {
    /// The inputs `seed` selects for `workload`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let set = seed % POOL;
        let (conds, cells) = match workload {
            Workload::PaperGrid => (
                stride_order(Grid::full(Timeline::paper()), PAPER_STRIDE),
                Vec::new(),
            ),
            Workload::SoloStream => (
                stride_order(Grid::solo(Timeline::paper()), SOLO_STRIDE),
                Vec::new(),
            ),
            Workload::BulkTcp => (
                Vec::new(),
                stride_order(OracleSpec::paper().cells(), BULK_STRIDE),
            ),
            Workload::ChaosChecked => (Vec::new(), Vec::new()),
        };
        Plan {
            workload,
            set,
            conds,
            cells,
            chaos: ChaosSpec {
                seed: CHAOS_SEED_BASE + set,
                threads: workload.threads(),
                scale: CHAOS_SCALE,
                ..ChaosSpec::default()
            },
        }
    }

    /// Plant a bug class into every chaos trial of this plan.
    pub fn with_perturbation(mut self, p: Perturbation) -> Plan {
        self.chaos.perturb = p;
        self
    }

    /// The `k`-th job. Session workloads cycle through their grid, taking
    /// the next iteration index of the pool on each lap.
    pub fn job(&self, k: usize) -> Job {
        match self.workload {
            Workload::PaperGrid | Workload::SoloStream => {
                let n = self.conds.len();
                Job::Session {
                    cond: self.conds[k % n].clone(),
                    iter: ((self.set + (k / n) as u64) % POOL) as u32,
                }
            }
            Workload::BulkTcp => Job::Cell(self.cells[k % self.cells.len()]),
            Workload::ChaosChecked => {
                let index = u32::try_from(k).expect("trial index fits u32");
                Job::Trial(index, Box::new(self.chaos.sample_trial(index)))
            }
        }
    }
}

impl Job {
    /// Simulated seconds the job covers (both legs of a chaos trial).
    pub fn sim_secs(&self) -> f64 {
        let session = |t: &Timeline| (t.end + SimDuration::from_secs(1)).as_secs_f64();
        match self {
            Job::Session { cond, .. } => session(&cond.timeline),
            Job::Cell(_) => cell_duration().as_secs_f64(),
            Job::Trial(_, t) => 2.0 * session(&t.condition().timeline),
        }
    }

    /// Build the job's network, ready for its first event, and hand it
    /// back without running it. Used to time set-up. A bulk cell has no
    /// public builder: `run_bulk_cell` with a zero duration builds its
    /// network and stops before the first event.
    fn prepare(&self) -> Box<dyn std::any::Any> {
        match self {
            Job::Session { cond, iter } => Box::new(topology::build_full(cond, *iter, None, false)),
            Job::Cell(cell) => Box::new(run_bulk_cell(cell, SimDuration::ZERO, false, None)),
            Job::Trial(_, t) => {
                let mut tb = topology::build_full(&t.condition(), t.iter, None, true);
                tb.sim
                    .try_apply_scenario(&t.schedule)
                    .expect("generated schedules are valid");
                Box::new(tb)
            }
        }
    }
}

/// What one job produced, checked against the reference.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Job index in the plan.
    pub index: usize,
    /// Host seconds the job took.
    pub wall_s: f64,
    /// Simulated seconds it covered.
    pub sim_s: f64,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
    /// `|measured − p*|` of an applicable bulk cell.
    pub model_err: Option<f64>,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    match p.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .unwrap_or_else(|| "non-string panic payload".into()),
    }
}

/// Run `job` and check its output. Only `Ok(model_err)` is a pass.
fn check_job(plan: &Plan, refs: &Reference, job: &Job) -> Result<Option<f64>, String> {
    match job {
        Job::Session { cond, iter } => {
            let got = run_condition_with(cond, *iter, None, false, chaos::digest);
            refs.check_session(&cond.label(), *iter, got).map(|()| None)
        }
        Job::Cell(cell) => {
            let graded = grade_cell(cell, run_bulk_cell(cell, cell_duration(), false, None));
            let label = cell.label();
            let want = refs
                .cell(&label)
                .ok_or_else(|| format!("{label}: no reference"))?;
            let verdict = graded.verdict.label();
            if graded.verdict == CellVerdict::Diverged {
                return Err(format!("{label}: diverged from the model"));
            }
            if graded.measured.loss_share.to_bits() != want.loss_bits
                || graded.measured.bbr_share.to_bits() != want.bbr_bits
                || verdict != want.verdict
            {
                return Err(format!(
                    "{label}: shares {} / {} ({verdict}), reference {} / {} ({})",
                    graded.measured.loss_share,
                    graded.measured.bbr_share,
                    f64::from_bits(want.loss_bits),
                    f64::from_bits(want.bbr_bits),
                    want.verdict
                ));
            }
            Ok((graded.verdict == CellVerdict::Within).then_some(graded.abs_err))
        }
        Job::Trial(index, t) => {
            let verdict = run_trial(t);
            // Trials past the stored range must be clean, like every
            // stored one.
            let want = refs.trial(plan.chaos.seed, *index).unwrap_or("clean");
            if verdict.tag() != want || !verdict.is_clean() {
                return Err(format!(
                    "chaos seed {} trial {index}: {verdict:?}, reference {want}",
                    plan.chaos.seed
                ));
            }
            Ok(None)
        }
    }
}

/// Run job `k` of `plan`, timing it and checking its output. A panic is
/// caught and counted as the job's failure.
fn run_job(plan: &Plan, refs: &Reference, k: usize) -> Outcome {
    let job = plan.job(k);
    let sim_s = job.sim_secs();
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| check_job(plan, refs, &job)));
    let wall_s = started.elapsed().as_secs_f64();
    let (failure, model_err) = match result {
        Ok(Ok(err)) => (None, err),
        Ok(Err(e)) => (Some(e), None),
        Err(p) => (Some(format!("panic: {}", panic_text(p))), None),
    };
    Outcome {
        index: k,
        wall_s,
        sim_s,
        failure,
        model_err,
    }
}

/// The jobs of one timed pass and the host time it took.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Every finished job, in plan order.
    pub outcomes: Vec<Outcome>,
    /// Median set-up host seconds over the first [`SETUP_SAMPLES`] jobs,
    /// one per round.
    pub setups: Vec<f64>,
    /// Host seconds from the first job's start to the last job's end.
    pub wall_s: f64,
    /// Worker threads.
    pub threads: usize,
}

impl Pass {
    /// Failed jobs.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failure.is_some()).count()
    }

    /// Per-job host times, milliseconds.
    pub fn job_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.wall_s * 1e3).collect()
    }

    /// Simulated seconds completed per host second.
    pub fn sim_s_per_wall_s(&self) -> f64 {
        self.outcomes.iter().map(|o| o.sim_s).sum::<f64>() / self.wall_s
    }

    /// Per-job host time summed, over threads × wall.
    pub fn busy_frac(&self) -> f64 {
        self.outcomes.iter().map(|o| o.wall_s).sum::<f64>() / (self.threads as f64 * self.wall_s)
    }
}

/// Run `plan` as a closed loop for `seconds` of host time: each worker
/// takes the next job index when its previous job finishes, and jobs
/// started before the deadline run to completion. At least
/// [`MIN_JOBS`] jobs always run.
///
/// Before the workers start, the pass times [`setup_once`] for each of
/// the first [`SETUP_SAMPLES`] jobs, one after another while nothing else
/// runs, in rounds until [`SETUP_WINDOW`] has passed, and keeps each
/// round's median: storing every sample would add megabytes to the
/// process's peak memory, an end-to-end metric. Timed between jobs
/// instead, set-up ran on caches the previous job had evicted and, on two
/// threads, beside the other worker's job: the median of one seed then
/// moved by 15% from run to run. A single round takes about 3 ms, short
/// enough for a passing slowdown of the host to cover it whole.
pub fn run_pass(plan: &Plan, refs: &Reference, seconds: f64) -> Pass {
    let (mut setups, mut round) = (Vec::new(), Vec::with_capacity(SETUP_SAMPLES));
    let window = Instant::now();
    while window.elapsed() < SETUP_WINDOW {
        round.clear();
        round.extend((0..SETUP_SAMPLES).map(|k| setup_once(plan.workload, plan.set, k)));
        setups.push(median(&round).expect("SETUP_SAMPLES > 0"));
    }
    let threads = plan.workload.threads();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_worker = run_jobs(
        threads,
        threads,
        |_| {
            let mut done = Vec::new();
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= MIN_JOBS && Instant::now() >= deadline {
                    break done;
                }
                done.push(run_job(plan, refs, k));
            }
        },
        |w| format!("{} worker {w}", plan.workload.name()),
    )
    .expect("every job catches its own panic");
    let wall_s = start.elapsed().as_secs_f64();
    let mut outcomes: Vec<Outcome> = per_worker.into_iter().flatten().collect();
    outcomes.sort_by_key(|o| o.index);
    Pass {
        outcomes,
        setups,
        wall_s,
        threads,
    }
}

/// Host time from the start of a workload to the point where job `k`'s
/// network is built and ready for its first event: derive the plan's
/// inputs from the seed and build that network. Checking outputs is the
/// benchmark's own work and is not part of it.
fn setup_once(workload: Workload, seed: u64, k: usize) -> f64 {
    let started = Instant::now();
    let net = Plan::new(workload, seed).job(k).prepare();
    let secs = started.elapsed().as_secs_f64();
    drop(std::hint::black_box(net));
    secs
}
