//! Attribution from outside: a fixed spin planted in the timing
//! decorator around the TCP sender raises only the sender's row.
//!
//! This file is its own test binary so that no other test competes for
//! the CPU while it times. Run it with `cargo test --release`.

use std::time::Duration;

use gsrepro_e2ebench::layers::{replay_round, replicas, timer_overhead_ns, LayerReport};
use gsrepro_e2ebench::stats::median;
use gsrepro_gamestream::FeedbackSnapshot;
use gsrepro_simcore::SimTime;

/// Median of each replay row over `rounds` rounds.
fn replay_medians(rounds: usize, reports: &[(FeedbackSnapshot, SimTime)]) -> Vec<(String, f64)> {
    let all: Vec<Vec<(String, f64)>> = (0..rounds).map(|_| replay_round(reports)).collect();
    (0..all[0].len())
        .map(|i| {
            let v: Vec<f64> = all.iter().map(|round| round[i].1).collect();
            (all[0][i].0.clone(), median(&v).expect("rounds > 0"))
        })
        .collect()
}

#[test]
fn planted_sender_spin_shows_only_in_the_sender_row() {
    const SPIN: Duration = Duration::from_micros(2);
    let overhead = timer_overhead_ns();
    let run = |spin| {
        let mut r = LayerReport::default();
        let reports = replicas(0, spin, overhead, &mut r);
        assert!(
            r.failures.is_empty(),
            "spin must not perturb the run: {:?}",
            r.failures
        );
        (r, reports)
    };
    let (base, reports) = run(Duration::ZERO);
    let replays_before = replay_medians(5, &reports);
    let (planted, _) = run(SPIN);
    let replays_after = replay_medians(5, &reports);

    let row = |r: &LayerReport, name: &str| r.get(name).unwrap_or_else(|| panic!("{name}"));
    let rise = row(&planted, "tcp.sender.on_packet_ns") - row(&base, "tcp.sender.on_packet_ns");
    let spin_ns = SPIN.as_nanos() as f64;
    assert!(
        (rise - spin_ns).abs() < 0.25 * spin_ns,
        "sender on_packet rose by {rise:.0} ns for a {spin_ns} ns spin"
    );
    // Every other row moves by less than a tenth of the planted spin:
    // host noise on this scale is tens of nanoseconds, the spin is 2 µs.
    let stays_put = |name: &str, a: f64, b: f64| {
        assert!((a - b).abs() < 0.1 * spin_ns, "{name}: {a:.1} -> {b:.1} ns");
    };
    for name in [
        "tcp.sender.on_timer_ns",
        "tcp.receiver.on_packet_ns",
        "gamestream.server.on_timer_ns",
        "gamestream.client.on_packet_ns",
    ] {
        stays_put(name, row(&base, name), row(&planted, name));
    }
    for ((name, a), (_, b)) in replays_before.iter().zip(&replays_after) {
        if name.starts_with("tcp.cca.") || name.starts_with("gamestream.") {
            stays_put(name, *a, *b);
        }
    }
}
