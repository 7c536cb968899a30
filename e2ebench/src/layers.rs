//! The traced pass: per-layer metrics, measured from outside the program.
//!
//! Nothing here changes the program. Every figure comes from timing calls
//! into a module's public functions:
//!
//! * the workload's own first jobs, run through the program's entry
//!   points, give the exact counts (`simcore.*`, `netsim.pkts.*`, `tcp.*`
//!   counters) and the testbed costs;
//! * two paper-grid sessions built with `topology::build_full` and run
//!   with `Sim::run_until` cut at `iperf_start` / `iperf_stop` split the
//!   event cost by phase;
//! * decorated replicas ([`crate::replica`]) of a solo session, a
//!   contested session and a bulk cell time each agent's handlers. A
//!   replica's timings are used only if it reproduces the program's run
//!   exactly (the drift guard);
//! * replays of the public `Scheduler`, `QueueSpec::build` disciplines,
//!   `AckScript` drives and `RateController` reports time the
//!   algorithms alone. They repeat until the pass's time is up, and the
//!   median round is reported.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use gsrepro_gamestream::profile::{ControllerKind, SystemProfile};
use gsrepro_gamestream::{FeedbackSnapshot, StreamClient, SystemKind};
use gsrepro_netsim::apps::PingAgent;
use gsrepro_netsim::queue::{QueueSpec, QueuedPkt};
use gsrepro_netsim::wire::{Ecn, FlowId, PktRef};
use gsrepro_simcore::engine::{Engine, Scheduler, World};
use gsrepro_simcore::{BitRate, Bytes, SchedStats, SimDuration, SimTime};
use gsrepro_tcp::conformance::{standard_script, STANDARD_MSS};
use gsrepro_tcp::{AckInfo, CcaKind, CongestionControl, TcpSender};
use gsrepro_testbed::chaos;
use gsrepro_testbed::config::{Condition, Timeline};
use gsrepro_testbed::model::{grade_cell, run_bulk_cell, BulkCell};
use gsrepro_testbed::runner::{run_condition_guarded, run_condition_with, RunView};
use gsrepro_testbed::topology::{self, Testbed};

use crate::reference::Reference;
use crate::replica::{self, Decor, DigestInput, FeedbackLog, Replica, Role, Span};
use crate::stats::median;
use crate::workload::{cell_duration, run_pass, Job, Plan, Workload};

/// The per-layer metrics of one traced pass.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// `(name, value, unit)`, in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Program outputs and replicas checked.
    pub attempted: usize,
    /// What failed its check (reference mismatch or replica drift).
    pub failures: Vec<String>,
    /// Human-readable context printed before the metrics.
    pub notes: Vec<String>,
}

impl LayerReport {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record one checked item; `Err` counts as a failure.
    fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Value of metric `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Host nanoseconds a [`Timed`](crate::replica::Timed) decorator records
/// for an empty handler: the span of an empty body, median of 21 batches.
/// It is subtracted from every per-call figure.
pub fn timer_overhead_ns() -> f64 {
    let batches: Vec<f64> = (0..21)
        .map(|_| {
            let mut span = Span::default();
            for _ in 0..10_000 {
                span.record(std::hint::black_box(Instant::now()));
            }
            span.nanos as f64 / span.calls as f64
        })
        .collect();
    median(&batches).expect("21 batches")
}

/// Exact counts and costs of one program job.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    events: u64,
    /// Host seconds of build + run (no reduction).
    run_s: f64,
    /// Host seconds reducing the finished job to its result.
    reduce_s: f64,
    sched: SchedStats,
    past_clamps: u64,
    game_sent: u64,
    game_delivered: u64,
    queue_drops: u64,
    ce_marked: u64,
    retx: u64,
    delivered_bytes: u64,
}

impl Counts {
    fn from_view(v: &RunView) -> Counts {
        let g = v.game_stats();
        let i = v.iperf_stats();
        let (retx, delivered_bytes) = v.tcp_counters();
        let started = Instant::now();
        std::hint::black_box(v.to_result());
        Counts {
            events: v.events_processed,
            run_s: v.wall_secs,
            reduce_s: started.elapsed().as_secs_f64(),
            sched: v.sched,
            past_clamps: v.past_clamps,
            game_sent: g.sent_pkts,
            game_delivered: g.delivered_pkts,
            queue_drops: g.queue_drop_pkts + i.map_or(0, |s| s.queue_drop_pkts),
            ce_marked: g.ce_marked_pkts + i.map_or(0, |s| s.ce_marked_pkts),
            retx,
            delivered_bytes,
        }
    }
}

/// Digest of a testbed built by `topology::build_full`, folded as
/// `chaos::digest` folds a finished run.
fn testbed_digest(tb: &Testbed) -> u64 {
    let monitor = tb.sim.net.monitor();
    let ping: &PingAgent = tb.sim.net.agent(tb.ping);
    let client: &StreamClient = tb.sim.net.agent(tb.client);
    let tcp = tb.tcp_sender.map_or((0, 0), |id| {
        let s: &TcpSender = tb.sim.net.agent(id);
        (s.retransmissions(), s.delivered_bytes())
    });
    replica::digest(&DigestInput {
        events: tb.sim.events_processed(),
        past_clamps: tb.sim.past_clamps(),
        checks: tb.sim.net.checks().performed(),
        game: monitor.stats(tb.game_flow),
        iperf: tb.iperf_flow.map(|f| monitor.stats(f)),
        rtt: ping.rtt_samples().values(),
        fps: client.fps_bins().bins(),
        tcp,
    })
}

fn session_end(cond: &Condition) -> SimTime {
    cond.timeline.end + SimDuration::from_secs(1)
}

/// Jobs of the workload measured for exact counts.
fn count_jobs(w: Workload) -> usize {
    match w {
        Workload::PaperGrid | Workload::SoloStream => 2,
        Workload::BulkTcp => 3,
        Workload::ChaosChecked => 16,
    }
}

/// Run the workload's first jobs through the program and collect counts.
fn workload_counts(plan: &Plan, refs: &Reference, r: &mut LayerReport) -> Vec<Counts> {
    let mut out = Vec::new();
    let mut build_us = Vec::new();
    for k in 0..count_jobs(plan.workload) {
        match plan.job(k) {
            Job::Session { cond, iter } => {
                let (c, d) = run_condition_with(&cond, iter, None, false, |v| {
                    (Counts::from_view(v), chaos::digest(v))
                });
                r.check("session", refs.check_session(&cond.label(), iter, d));
                build_us.extend(time_builds(|| {
                    std::hint::black_box(topology::build_full(&cond, iter, None, false));
                }));
                out.push(c);
            }
            Job::Cell(cell) => {
                let (c, drift) = count_cell(&cell, refs);
                r.check(&cell.label(), drift);
                build_us.extend(time_builds(|| {
                    std::hint::black_box(run_bulk_cell(&cell, SimDuration::ZERO, false, None));
                }));
                out.push(c);
            }
            Job::Trial(_, t) => {
                let cond = t.condition();
                let leg = run_condition_guarded(
                    &cond,
                    t.iter,
                    true,
                    &t.schedule,
                    &t.watchdog,
                    Counts::from_view,
                );
                match leg {
                    Ok(c) => out.push(c),
                    Err(e) => r.check(&format!("chaos leg {}", t.iter), Err(e.to_string())),
                }
                build_us.extend(time_builds(|| {
                    std::hint::black_box(topology::build_full(&cond, t.iter, None, true));
                }));
            }
        }
    }
    r.put(
        "testbed.build_us",
        median(&build_us).unwrap_or(0.0) * 1e6,
        "us",
    );
    out
}

/// Time `build` several times; seconds per build.
fn time_builds(mut build: impl FnMut()) -> Vec<f64> {
    (0..9)
        .map(|_| {
            let t = Instant::now();
            build();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// One bulk cell: the program's `run_bulk_cell` is checked against the
/// reference, and an undecorated replica gives the counts; the replica
/// must reproduce the program's shares bit for bit.
fn count_cell(cell: &BulkCell, refs: &Reference) -> (Counts, Result<(), String>) {
    let dur = cell_duration();
    let measured = run_bulk_cell(cell, dur, false, None);
    let mut check = match refs.cell(&cell.label()) {
        Some(want)
            if want.loss_bits == measured.loss_share.to_bits()
                && want.bbr_bits == measured.bbr_share.to_bits() =>
        {
            Ok(())
        }
        Some(_) => Err("shares differ from the reference".to_string()),
        None => Err("no reference".to_string()),
    };
    let started = Instant::now();
    let mut rep = replica::bulk_network(cell, dur, None);
    rep.sim.run_until(SimTime::ZERO + dur);
    let run_s = started.elapsed().as_secs_f64();
    let reduce = Instant::now();
    let (_, loss, bbr) = rep.bulk_shares(dur);
    std::hint::black_box(grade_cell(cell, measured.clone()));
    let reduce_s = reduce.elapsed().as_secs_f64();
    if check.is_ok()
        && (loss.to_bits(), bbr.to_bits())
            != (measured.loss_share.to_bits(), measured.bbr_share.to_bits())
    {
        check = Err("replica shares drifted from run_bulk_cell".into());
    }
    let monitor = rep.sim.net.monitor();
    let (retx, delivered_bytes) = rep.tcp_counters();
    let counts = Counts {
        events: rep.sim.events_processed(),
        run_s,
        reduce_s,
        sched: rep.sim.sched_stats(),
        past_clamps: rep.sim.past_clamps(),
        game_sent: 0,
        game_delivered: 0,
        queue_drops: rep
            .bulk_flows
            .iter()
            .map(|&f| monitor.stats(f).queue_drop_pkts)
            .sum(),
        ce_marked: rep
            .bulk_flows
            .iter()
            .map(|&f| monitor.stats(f).ce_marked_pkts)
            .sum(),
        retx,
        delivered_bytes,
    };
    (counts, check)
}

fn report_counts(counts: &[Counts], r: &mut LayerReport) {
    let n = counts.len().max(1) as f64;
    let sum = |f: fn(&Counts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    let events = sum(|c| c.events);
    let run_s: f64 = counts.iter().map(|c| c.run_s).sum();
    let sched = |f: fn(&SchedStats) -> u64| counts.iter().map(|c| f(&c.sched)).sum::<u64>() as f64;
    let scheduled =
        sched(|s| s.lane_scheduled + s.cur_scheduled + s.wheel_scheduled + s.overflow_scheduled);
    r.put("simcore.events", events / n, "count");
    r.put("simcore.ns_per_event", run_s * 1e9 / events, "ns");
    r.put("simcore.events_per_s", events / run_s, "1/s");
    r.put("simcore.sched.scheduled", scheduled / n, "count");
    r.put("simcore.sched.cascaded", sched(|s| s.cascaded) / n, "count");
    r.put(
        "simcore.sched.lane_share",
        sched(|s| s.lane_scheduled) / scheduled,
        "ratio",
    );
    r.put(
        "simcore.sched.wheel_share",
        sched(|s| s.wheel_scheduled) / scheduled,
        "ratio",
    );
    r.put(
        "simcore.sched.slab_high_watermark",
        counts
            .iter()
            .map(|c| c.sched.slab_high_watermark)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    r.put("simcore.past_clamps", sum(|c| c.past_clamps) / n, "count");
    r.put("netsim.pkts.game_sent", sum(|c| c.game_sent) / n, "count");
    r.put(
        "netsim.pkts.game_delivered",
        sum(|c| c.game_delivered) / n,
        "count",
    );
    r.put(
        "netsim.pkts.queue_drops",
        sum(|c| c.queue_drops) / n,
        "count",
    );
    r.put("netsim.pkts.ce_marked", sum(|c| c.ce_marked) / n, "count");
    r.put("tcp.retransmissions", sum(|c| c.retx) / n, "count");
    r.put(
        "tcp.delivered_bytes",
        sum(|c| c.delivered_bytes) / n,
        "bytes",
    );
    let reduce: Vec<f64> = counts.iter().map(|c| c.reduce_s * 1e6).collect();
    r.put("testbed.reduce_us", median(&reduce).unwrap_or(0.0), "us");
}

/// `testbed.jobs.busy_frac`: a minimal closed-loop pass of the workload
/// through the program's fan-out, per-job host time summed over
/// threads × wall. Only `chaos_checked` runs more than one thread; on the
/// others it is close to 1 by construction.
fn busy_frac(plan: &Plan, refs: &Reference, r: &mut LayerReport) {
    let pass = run_pass(plan, refs, 0.0);
    for o in &pass.outcomes {
        r.check(
            &format!("{} job {}", plan.workload.name(), o.index),
            o.failure.clone().map_or(Ok(()), Err),
        );
    }
    r.put("testbed.jobs.busy_frac", pass.busy_frac(), "ratio");
}

/// The paper-grid headline pair, at the plan's iteration index.
fn headline(cca: CcaKind, iter: u32) -> (Condition, u32) {
    (
        Condition::new(SystemKind::Luna, Some(cca), 25, 2.0).with_timeline(Timeline::paper()),
        iter,
    )
}

/// Run a session built by `topology::build_full` with `Sim::run_until`
/// cut at `iperf_start` and `iperf_stop`. Returns `(host seconds,
/// events)` of the solo, contested and recovery phases, and the digest
/// of the finished run.
pub fn run_cut(cond: &Condition, iter: u32) -> ([(f64, u64); 3], u64) {
    let mut tb = topology::build_full(cond, iter, None, false);
    let cuts = [
        cond.timeline.iperf_start,
        cond.timeline.iperf_stop,
        session_end(cond),
    ];
    let mut phases = [(0.0, 0u64); 3];
    let mut before = 0;
    for (phase, &until) in phases.iter_mut().zip(&cuts) {
        let t = Instant::now();
        tb.sim.run_until(until);
        *phase = (
            t.elapsed().as_secs_f64(),
            tb.sim.events_processed() - before,
        );
        before = tb.sim.events_processed();
    }
    (phases, testbed_digest(&tb))
}

/// Split paper-grid sessions into their solo, contested and recovery
/// phases. The cut run must keep the stored digest of the uncut run.
fn phase_split(plan: &Plan, refs: &Reference, r: &mut LayerReport) {
    let mut sums = [(0.0, 0u64); 3];
    for cca in [CcaKind::Cubic, CcaKind::Bbr] {
        let (cond, iter) = headline(cca, plan.set as u32);
        let (phases, digest) = run_cut(&cond, iter);
        r.check(
            "session cut into phases",
            refs.check_session(&cond.label(), iter, digest),
        );
        for (sum, p) in sums.iter_mut().zip(phases) {
            sum.0 += p.0;
            sum.1 += p.1;
        }
        r.put(
            &format!("netsim.run.contested_ns_per_event.{}", cca.label()),
            phases[1].0 * 1e9 / phases[1].1 as f64,
            "ns",
        );
    }
    let ns = |(s, n): (f64, u64)| s * 1e9 / n as f64;
    r.put("netsim.run.solo_ns_per_event", ns(sums[0]), "ns");
    r.put("netsim.run.recovery_ns_per_event", ns(sums[2]), "ns");
    let total: f64 = sums.iter().map(|p| p.0).sum();
    r.put("netsim.run.contested_share", sums[1].0 / total, "ratio");
}

/// A decorated replica beside the program run it replicates.
pub struct Checked {
    /// The finished replica.
    pub replica: Replica,
    /// The drift guard's verdict.
    pub drift: Result<(), String>,
    /// Host seconds of the program's own run.
    pub untraced_s: f64,
    /// Host seconds of the decorated replica's build and run.
    pub traced_s: f64,
}

/// Run session `(cond, iter)` through the program and as a decorated
/// replica. The replica must reproduce the program's digest (events,
/// flow counters, delivery bins, RTT and fps samples, TCP counters).
pub fn session_replica(cond: &Condition, iter: u32, decor: &Decor) -> Checked {
    let t = Instant::now();
    let want = run_condition_with(cond, iter, None, false, chaos::digest);
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut replica = replica::session_network(cond, iter, Some(decor));
    replica.sim.run_until(session_end(cond));
    let traced_s = t.elapsed().as_secs_f64();
    let got = replica.session_digest();
    let drift = (got == want)
        .then_some(())
        .ok_or_else(|| format!("replica digest {got:016x}, program {want:016x}"));
    Checked {
        replica,
        drift,
        untraced_s,
        traced_s,
    }
}

/// Run bulk cell `cell` through `model::run_bulk_cell` and as a decorated
/// replica. The replica must reproduce the program's goodputs and shares
/// bit for bit, and the events and flow counters of an undecorated
/// replica.
fn bulk_replica(cell: &BulkCell, decor: &Decor) -> Checked {
    let dur = cell_duration();
    let t = Instant::now();
    let want = run_bulk_cell(cell, dur, false, None);
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut replica = replica::bulk_network(cell, dur, Some(decor));
    replica.sim.run_until(SimTime::ZERO + dur);
    let traced_s = t.elapsed().as_secs_f64();
    let mut plain = replica::bulk_network(cell, dur, None);
    plain.sim.run_until(SimTime::ZERO + dur);
    let drift = bulk_drift(&replica, &plain, &want, dur);
    Checked {
        replica,
        drift,
        untraced_s,
        traced_s,
    }
}

/// The bulk cell whose replica times the TCP agents.
const TRACED_CELL: BulkCell = BulkCell {
    capacity_mbps: 25,
    base_rtt: SimDuration::from_micros(16_500),
    queue_mult: 2.0,
    n_cubic: 1,
};

/// Decorated replicas of a solo session (the `solo_stream` network), a
/// contested session (whose controller reports are logged) and a bulk
/// cell (the `bulk_tcp` network): per-agent handler costs, the drift
/// guard and the tracing overhead. `sender_spin` plants extra work in
/// every TCP sender `on_packet`. Returns the logged controller reports.
pub fn replicas(
    iter: u32,
    sender_spin: Duration,
    overhead_ns: f64,
    r: &mut LayerReport,
) -> Vec<(FeedbackSnapshot, SimTime)> {
    let log = FeedbackLog::default();
    let solo = Condition::new(SystemKind::Luna, None, 25, 2.0).with_timeline(Timeline::paper());
    let (contested, _) = headline(CcaKind::Bbr, iter);
    let plain = Decor {
        sender_spin,
        feedback: None,
    };
    let logging = Decor {
        sender_spin,
        feedback: Some(log.clone()),
    };
    let runs = [
        (solo.label(), session_replica(&solo, iter, &plain)),
        (
            contested.label(),
            session_replica(&contested, iter, &logging),
        ),
        (TRACED_CELL.label(), bulk_replica(&TRACED_CELL, &plain)),
    ];
    for (label, run) in &runs {
        r.check(
            &format!("decorated replica {label} iter {iter}"),
            run.drift.clone(),
        );
    }
    let per_call = |role, timer: bool, rep: &Replica| {
        let (packet, timer_span) = rep.spans(role);
        if timer { timer_span } else { packet }.ns_per_call(overhead_ns)
    };
    let (solo_rep, bulk_rep) = (&runs[0].1.replica, &runs[2].1.replica);
    r.put(
        "gamestream.server.on_timer_ns",
        per_call(Role::Server, true, solo_rep),
        "ns",
    );
    r.put(
        "gamestream.client.on_packet_ns",
        per_call(Role::Client, false, solo_rep),
        "ns",
    );
    r.put(
        "tcp.sender.on_packet_ns",
        per_call(Role::Sender, false, bulk_rep),
        "ns",
    );
    r.put(
        "tcp.sender.on_timer_ns",
        per_call(Role::Sender, true, bulk_rep),
        "ns",
    );
    r.put(
        "tcp.receiver.on_packet_ns",
        per_call(Role::Receiver, false, bulk_rep),
        "ns",
    );
    let untraced: f64 = runs.iter().map(|(_, c)| c.untraced_s).sum();
    let traced: f64 = runs.iter().map(|(_, c)| c.traced_s).sum();
    r.put("trace.overhead_frac", traced / untraced - 1.0, "ratio");
    r.notes.push(format!(
        "decorated replicas: traced {traced:.3} s vs untraced {untraced:.3} s; {overhead_ns:.1} ns timer cost subtracted per call"
    ));
    let reports = log
        .lock()
        .expect("feedback log is never held across a panic")
        .clone();
    reports
}

fn bulk_drift(
    rep: &Replica,
    plain: &Replica,
    want: &gsrepro_testbed::model::BulkMeasurement,
    dur: SimDuration,
) -> Result<(), String> {
    let (goodputs, loss, bbr) = rep.bulk_shares(dur);
    if (loss.to_bits(), bbr.to_bits()) != (want.loss_share.to_bits(), want.bbr_share.to_bits())
        || goodputs
            .iter()
            .map(|g| g.to_bits())
            .ne(want.goodputs_mbps.iter().map(|g| g.to_bits()))
    {
        return Err(format!(
            "shares {loss} / {bbr}, run_bulk_cell {} / {}",
            want.loss_share, want.bbr_share
        ));
    }
    let flow_counts = |x: &Replica| -> Vec<(u64, u64, u64, u64)> {
        x.bulk_flows
            .iter()
            .map(|&f| {
                let s = x.sim.net.monitor().stats(f);
                (
                    s.sent_pkts,
                    s.delivered_pkts,
                    s.queue_drop_pkts,
                    s.delivered_bytes.as_u64(),
                )
            })
            .collect()
    };
    if rep.sim.events_processed() != plain.sim.events_processed()
        || flow_counts(rep) != flow_counts(plain)
        || rep.tcp_counters() != plain.tcp_counters()
    {
        return Err(format!(
            "events {} vs {} or flow counters differ",
            rep.sim.events_processed(),
            plain.sim.events_processed()
        ));
    }
    Ok(())
}

/// `netsim.checks.*`: guarded chaos legs with the invariant oracles on
/// and off, alternated.
fn checks_overhead(plan: &Plan, r: &mut LayerReport) {
    let (mut on, mut off, mut performed) = (0.0, 0.0, 0u64);
    let legs = 12;
    for i in 0..legs {
        let t = plan.chaos.sample_trial(i);
        let cond = t.condition();
        for checks in [i % 2 == 0, i % 2 != 0] {
            let started = Instant::now();
            let leg = run_condition_guarded(&cond, t.iter, checks, &t.schedule, &t.watchdog, |v| {
                v.checks_performed
            });
            let secs = started.elapsed().as_secs_f64();
            match leg {
                Ok(n) if checks => {
                    performed += n;
                    on += secs;
                }
                Ok(_) => off += secs,
                Err(e) => r.check(&format!("chaos leg {i}"), Err(e.to_string())),
            }
        }
    }
    r.put(
        "netsim.checks.performed",
        performed as f64 / f64::from(legs),
        "count",
    );
    r.put("netsim.checks.overhead_frac", on / off - 1.0, "ratio");
}

/// Deterministic delay mix of a paper run (same-instant loopbacks,
/// sub-ms wakeups, ms-scale propagation, RTO-scale timers), as in the
/// `sched_bench` microbenchmark.
struct DelayMix(u64);

impl DelayMix {
    fn next(&mut self) -> SimDuration {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        match r % 100 {
            0..=9 => SimDuration::ZERO,
            10..=29 => SimDuration::from_nanos(1_000 + r % 1_000_000),
            30..=84 => SimDuration::from_nanos(5_000_000 + r % 25_000_000),
            _ => SimDuration::from_nanos(200_000_000 + r % 800_000_000),
        }
    }
}

struct Sink;

impl World for Sink {
    type Event = u64;
    fn handle(&mut self, _event: u64, _sched: &mut Scheduler<u64>) {}
}

const SCHED_BACKLOG: usize = 600;
const SCHED_OPS: u64 = 200_000;

/// Steady-state schedule + pop on the public scheduler, ns per pair.
fn sched_op_ns() -> f64 {
    let mut eng: Engine<Sink> = Engine::new();
    let mut w = Sink;
    let mut mix = DelayMix(7);
    for i in 0..SCHED_BACKLOG {
        eng.scheduler().schedule_in(mix.next(), i as u64);
    }
    let start = Instant::now();
    for i in 0..SCHED_OPS {
        eng.step(&mut w);
        eng.scheduler().schedule_in(mix.next(), i);
    }
    start.elapsed().as_nanos() as f64 / SCHED_OPS as f64
}

/// The same operations on a `BinaryHeap`: a yardstick of host speed.
fn heap_ref_ns() -> f64 {
    let mut now = SimTime::ZERO;
    let mut seq = 0u64;
    let mut heap = BinaryHeap::new();
    let mut mix = DelayMix(7);
    for i in 0..SCHED_BACKLOG {
        heap.push(Reverse((now + mix.next(), seq, i as u64)));
        seq += 1;
    }
    let start = Instant::now();
    for i in 0..SCHED_OPS {
        if let Some(Reverse((t, _, _))) = heap.pop() {
            now = t;
        }
        heap.push(Reverse((now + mix.next(), seq, i)));
        seq += 1;
    }
    std::hint::black_box(&heap);
    start.elapsed().as_nanos() as f64 / SCHED_OPS as f64
}

const QUEUE_BACKLOG: u32 = 64;
const QUEUE_OPS: u32 = 200_000;

/// Enqueue + dequeue on a discipline from `QueueSpec::build`, with a
/// standing backlog, eight flows and a sojourn under CoDel's target.
fn queue_op_ns(spec: &QueueSpec) -> f64 {
    let mut q = spec.build();
    let mut dropped = Vec::new();
    let step = SimDuration::from_micros(50);
    let mut now = SimTime::from_secs(1);
    let item = |i: u32, now: SimTime| QueuedPkt {
        pkt: PktRef(i),
        size: Bytes(1228),
        flow: FlowId(i % 8),
        ecn: Ecn::NotEct,
        enqueued_at: now,
    };
    for i in 0..QUEUE_BACKLOG {
        assert!(
            q.enqueue(item(i, now), now).is_ok(),
            "backlog fits the limit"
        );
    }
    let start = Instant::now();
    for i in 0..QUEUE_OPS {
        now += step;
        if q.enqueue(item(QUEUE_BACKLOG + i, now), now).is_err() {
            panic!("queue refused a packet under its limit");
        }
        std::hint::black_box(q.dequeue(now, &mut dropped));
        dropped.clear();
    }
    start.elapsed().as_nanos() as f64 / f64::from(QUEUE_OPS)
}

/// Counts `on_ack` calls of a script, so a timed drive can be divided by
/// them.
struct AckCounter<'a>(&'a mut dyn CongestionControl, u64);

impl CongestionControl for AckCounter<'_> {
    fn on_ack(&mut self, ack: &AckInfo) {
        self.1 += 1;
        self.0.on_ack(ack);
    }
    fn on_congestion_event(&mut self, now: SimTime, in_flight: u64) {
        self.0.on_congestion_event(now, in_flight);
    }
    fn on_rto(&mut self, now: SimTime) {
        self.0.on_rto(now);
    }
    fn on_ecn(&mut self, now: SimTime, in_flight: u64) {
        self.0.on_ecn(now, in_flight);
    }
    fn ecn_capable(&self) -> bool {
        self.0.ecn_capable()
    }
    fn cwnd(&self) -> u64 {
        self.0.cwnd()
    }
    fn ssthresh(&self) -> u64 {
        self.0.ssthresh()
    }
    fn pacing_rate(&self) -> Option<BitRate> {
        self.0.pacing_rate()
    }
    fn in_slow_start(&self) -> bool {
        self.0.in_slow_start()
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }
}

/// Host nanoseconds per ACK of `kind`'s standard conformance script,
/// whole drive (script bookkeeping included) over the ACK count.
fn cca_on_ack_ns(kind: CcaKind) -> f64 {
    let script = standard_script(kind);
    let mut probe = kind.build(STANDARD_MSS);
    let mut counter = AckCounter(probe.as_mut(), 0);
    script.drive(&mut counter);
    let acks = counter.1;
    const DRIVES: u32 = 8;
    let mut ccas: Vec<_> = (0..DRIVES).map(|_| kind.build(STANDARD_MSS)).collect();
    let start = Instant::now();
    for cca in &mut ccas {
        std::hint::black_box(script.drive(cca.as_mut()));
    }
    start.elapsed().as_nanos() as f64 / (acks * u64::from(DRIVES)) as f64
}

/// Host nanoseconds per receiver report replayed through a fresh
/// controller of `kind` (events drained as the server drains them).
fn ctrl_on_feedback_ns(kind: ControllerKind, reports: &[(FeedbackSnapshot, SimTime)]) -> f64 {
    let mut ctrl = SystemProfile::new(SystemKind::Luna)
        .with_controller(kind)
        .build_controller();
    let start = Instant::now();
    for (fb, now) in reports {
        std::hint::black_box(ctrl.on_feedback(fb, *now));
        while ctrl.poll_event().is_some() {}
    }
    start.elapsed().as_nanos() as f64 / reports.len().max(1) as f64
}

const CCAS: [CcaKind; 3] = [CcaKind::Cubic, CcaKind::Bbr, CcaKind::Bbr2];
const CTRLS: [(ControllerKind, &str); 3] = [
    (ControllerKind::Gcc, "gcc"),
    (ControllerKind::DelayConservative, "delay"),
    (ControllerKind::Tfrc, "tfrc"),
];

fn queue_specs() -> [(&'static str, QueueSpec); 3] {
    let limit = Bytes(1_000_000);
    [
        ("droptail", QueueSpec::DropTail { limit }),
        ("codel", QueueSpec::codel_default(limit)),
        ("fqcodel", QueueSpec::fq_codel_default(limit)),
    ]
}

/// One round of every layer replay: `(metric name, ns per operation)`.
pub fn replay_round(reports: &[(FeedbackSnapshot, SimTime)]) -> Vec<(String, f64)> {
    let mut round = vec![
        ("simcore.sched.op_ns".to_string(), sched_op_ns()),
        ("simcore.sched.heap_ref_ns".to_string(), heap_ref_ns()),
    ];
    for (name, spec) in &queue_specs() {
        round.push((format!("netsim.queue.op_ns.{name}"), queue_op_ns(spec)));
    }
    for kind in CCAS {
        round.push((
            format!("tcp.cca.on_ack_ns.{}", kind.label()),
            cca_on_ack_ns(kind),
        ));
    }
    for (kind, name) in CTRLS {
        round.push((
            format!("gamestream.ctrl.on_feedback_ns.{name}"),
            ctrl_on_feedback_ns(kind, reports),
        ));
    }
    round
}

/// Layer replays, repeated in rounds until `deadline` (at least
/// `min_rounds`); the median round of each row is reported.
pub fn replays(
    deadline: Instant,
    min_rounds: usize,
    reports: &[(FeedbackSnapshot, SimTime)],
    r: &mut LayerReport,
) {
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let mut rounds = 0;
    while rounds < min_rounds || Instant::now() < deadline {
        let round = replay_round(reports);
        if rows.is_empty() {
            rows = round.into_iter().map(|(n, v)| (n, vec![v])).collect();
        } else {
            for (row, (_, v)) in rows.iter_mut().zip(round) {
                row.1.push(v);
            }
        }
        rounds += 1;
    }
    r.notes
        .push(format!("layer replays: median of {rounds} rounds"));
    for (name, values) in rows {
        r.put(&name, median(&values).expect("at least one round"), "ns");
    }
}

/// The whole traced pass for `plan`, filling `seconds` of host time with
/// replay rounds once the fixed measurements are done.
pub fn traced_pass(plan: &Plan, refs: &Reference, seconds: f64) -> LayerReport {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut r = LayerReport::default();
    let overhead_ns = timer_overhead_ns();
    let counts = workload_counts(plan, refs, &mut r);
    report_counts(&counts, &mut r);
    busy_frac(plan, refs, &mut r);
    phase_split(plan, refs, &mut r);
    let reports = replicas(plan.set as u32, Duration::ZERO, overhead_ns, &mut r);
    checks_overhead(plan, &mut r);
    replays(deadline, 3, &reports, &mut r);
    r.notes
        .push(format!("{} controller reports replayed", reports.len()));
    r
}
