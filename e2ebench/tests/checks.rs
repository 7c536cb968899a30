//! The benchmark's own checks: planted failures are counted without
//! aborting a pass, and decorated replicas reproduce the program exactly.
//!
//! The simulations are paper-length, so run these with
//! `cargo test --release`.

use std::time::Duration;

use gsrepro_e2ebench::layers::{
    replicas, run_cut, session_replica, timer_overhead_ns, LayerReport,
};
use gsrepro_e2ebench::reference::Reference;
use gsrepro_e2ebench::replica::Decor;
use gsrepro_e2ebench::workload::{run_pass, Job, Plan, Workload, MIN_JOBS};
use gsrepro_netsim::ScenarioAction;
use gsrepro_simcore::{BitRate, SimDuration};
use gsrepro_testbed::chaos::{self, Perturbation};
use gsrepro_testbed::config::{Condition, Timeline};
use gsrepro_testbed::runner::run_condition_with;
use gsrepro_testbed::{CcaKind, SystemKind};

fn refs() -> Reference {
    Reference::builtin().expect("the stored reference parses")
}

#[test]
fn planted_nondeterminism_is_counted_and_the_pass_goes_on() {
    let plan =
        Plan::new(Workload::ChaosChecked, 0).with_perturbation(Perturbation::SeedSkewOnOutage);
    let has_outage = |k: usize| match plan.job(k) {
        Job::Trial(_, t) => t
            .schedule
            .steps
            .iter()
            .any(|s| s.action == ScenarioAction::Up(false)),
        _ => unreachable!("chaos plans hold trials"),
    };
    let pass = run_pass(&plan, &refs(), 0.0);
    assert!(pass.outcomes.len() >= MIN_JOBS, "the pass ran to its end");
    let planted: Vec<usize> = (0..pass.outcomes.len())
        .filter(|&k| has_outage(k))
        .collect();
    assert!(
        !planted.is_empty(),
        "some early trial has an outage to skew"
    );
    for o in &pass.outcomes {
        assert_eq!(
            o.failure.is_some(),
            planted.contains(&o.index),
            "trial {} ({:?})",
            o.index,
            o.failure
        );
    }
    assert_eq!(pass.failed(), planted.len());
}

#[test]
fn corrupted_reference_digest_is_counted_and_the_pass_goes_on() {
    let plan = Plan::new(Workload::SoloStream, 5);
    let mut refs = refs();
    for k in [0, 4] {
        let Job::Session { cond, iter } = plan.job(k) else {
            unreachable!("solo plans hold sessions")
        };
        let stored = refs.session(&cond.label(), iter).expect("stored");
        refs.set_session(&cond.label(), iter, stored ^ 1);
    }
    let pass = run_pass(&plan, &refs, 0.0);
    assert_eq!(pass.outcomes.len(), MIN_JOBS, "the pass ran to its end");
    let failed: Vec<usize> = pass
        .outcomes
        .iter()
        .filter(|o| o.failure.is_some())
        .map(|o| o.index)
        .collect();
    assert_eq!(failed, [0, 4]);
}

#[test]
fn uncorrupted_passes_are_clean_on_every_workload() {
    for w in Workload::ALL {
        let pass = run_pass(&Plan::new(w, 3), &refs(), 0.0);
        let failures: Vec<_> = pass
            .outcomes
            .iter()
            .filter_map(|o| o.failure.clone())
            .collect();
        assert!(failures.is_empty(), "{}: {failures:?}", w.name());
    }
}

fn short(cca: Option<CcaKind>) -> Condition {
    Condition::new(SystemKind::Stadia, cca, 15, 4.0).with_timeline(Timeline::scaled(0.1))
}

#[test]
fn phase_cuts_keep_the_session_digest() {
    for cca in [None, Some(CcaKind::Cubic), Some(CcaKind::Bbr)] {
        let cond = short(cca);
        let uncut = run_condition_with(&cond, 2, None, false, chaos::digest);
        let (phases, cut) = run_cut(&cond, 2);
        assert_eq!(cut, uncut, "{}", cond.label());
        assert!(phases.iter().all(|p| p.1 > 0), "every phase handles events");
    }
}

#[test]
fn drift_guard_accepts_faithful_replicas_and_rejects_drifted_ones() {
    let decor = Decor::default();
    for cca in [None, Some(CcaKind::Cubic), Some(CcaKind::Bbr2)] {
        let cond = short(cca);
        let run = session_replica(&cond, 1, &decor);
        assert_eq!(run.drift, Ok(()), "{}", cond.label());
    }
    // A replica of a different network (one more Mb/s) is caught.
    let cond = short(Some(CcaKind::Cubic));
    let mut other = cond.clone();
    other.capacity = BitRate::from_mbps(16);
    let want = run_condition_with(&cond, 1, None, false, chaos::digest);
    let mut rep = gsrepro_e2ebench::replica::session_network(&other, 1, Some(&decor));
    rep.sim
        .run_until(cond.timeline.end + SimDuration::from_secs(1));
    assert_ne!(rep.session_digest(), want);
}

#[test]
fn traced_pass_replicas_pass_the_drift_guard() {
    let mut r = LayerReport::default();
    let reports = replicas(0, Duration::ZERO, timer_overhead_ns(), &mut r);
    assert!(r.failures.is_empty(), "{:?}", r.failures);
    assert_eq!(r.attempted, 3);
    assert!(
        !reports.is_empty(),
        "the contested session logged its reports"
    );
}
