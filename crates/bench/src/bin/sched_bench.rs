//! Scheduler and link-drain microbenchmarks.
//!
//! Isolates the simulation substrate from protocol logic so scheduler work
//! has a signal that macro runs (where agent logic dominates) would bury:
//!
//! * steady-state schedule/pop throughput of the timing-wheel scheduler,
//!   with a delay mix shaped like a paper run (same-instant loopbacks,
//!   sub-ms wakeups, ms-scale propagation, RTO-scale timers),
//! * the same workload on a plain `BinaryHeap` reference scheduler, so the
//!   wheel's advantage (or regression) is a printed ratio,
//! * batched vs per-packet link drain through a shaped token bucket.
//!
//! Usage: `cargo run --release -p gsrepro-bench --bin sched_bench`

use gsrepro_netsim::queue::{QueueSpec, QueuedPkt};
use gsrepro_netsim::wire::{Ecn, FlowId, PktRef};
use gsrepro_netsim::LinkSpec;
use gsrepro_simcore::engine::{Engine, Scheduler, World};
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Deterministic delay mix, roughly matching the event-type shares measured
/// in a paper-scale run (arrivals ~2/3, wakeups ~1/6, timers ~1/6).
#[derive(Clone)]
struct DelayMix {
    state: u64,
}

impl DelayMix {
    fn new(seed: u64) -> Self {
        DelayMix { state: seed | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*: plenty for spreading bench timestamps.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_delay(&mut self) -> SimDuration {
        let r = self.next_u64();
        match r % 100 {
            // Same-instant loopback delivery (fast lane).
            0..=9 => SimDuration::ZERO,
            // Shaper wakeups: 1 µs – 1 ms.
            10..=29 => SimDuration::from_nanos(1_000 + r % 1_000_000),
            // Propagation delays: 5 – 30 ms.
            30..=84 => SimDuration::from_nanos(5_000_000 + r % 25_000_000),
            // RTO-scale timers: ~200 ms – 1 s.
            _ => SimDuration::from_nanos(200_000_000 + r % 800_000_000),
        }
    }
}

/// Minimal world: events carry no payload and schedule nothing; the bench
/// loop does the scheduling so the scheduler is the only thing measured.
struct Sink;

impl World for Sink {
    type Event = u64;
    fn handle(&mut self, _event: u64, _sched: &mut Scheduler<u64>) {}
}

/// Steady-state schedule+pop through the timing wheel: keep `backlog` events
/// pending, pop one / push one, `ops` times.
fn bench_wheel(backlog: usize, ops: u64) -> f64 {
    let mut eng: Engine<Sink> = Engine::new();
    let mut w = Sink;
    let mut mix = DelayMix::new(7);
    for i in 0..backlog {
        let d = mix.next_delay();
        eng.scheduler().schedule_in(d, i as u64);
    }
    let start = Instant::now();
    for i in 0..ops {
        eng.step(&mut w);
        let d = mix.next_delay();
        eng.scheduler().schedule_in(d, i);
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// The pre-wheel scheduler: one monolithic `BinaryHeap` over every pending
/// event, same (time, seq) ordering. Kept as the reference the wheel is
/// measured against.
struct HeapRef {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
}

impl HeapRef {
    fn new() -> Self {
        HeapRef {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    fn schedule_in(&mut self, d: SimDuration, ev: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((self.now + d, seq, ev)));
    }

    fn pop(&mut self) -> Option<u64> {
        self.heap.pop().map(|Reverse((t, _, ev))| {
            self.now = t;
            ev
        })
    }
}

fn bench_heap_ref(backlog: usize, ops: u64) -> f64 {
    let mut sched = HeapRef::new();
    let mut mix = DelayMix::new(7);
    for i in 0..backlog {
        let d = mix.next_delay();
        sched.schedule_in(d, i as u64);
    }
    let start = Instant::now();
    for i in 0..ops {
        sched.pop();
        let d = mix.next_delay();
        sched.schedule_in(d, i);
    }
    ops as f64 / start.elapsed().as_secs_f64()
}

/// Link drain: `n` media-sized packets through a 25 Mb/s token bucket.
/// `batched = false` replays the pre-batching pattern (one `service_batch`
/// call capped at one delivery per activation); `batched = true` lets one
/// activation drain everything the bank allows.
///
/// Both modes call `service_batch` directly, so the ratio isolates the
/// *per-packet drain cost* and lands near 1.0 by design: the two paths do
/// almost identical work per packet. Batching's real saving in the full
/// simulator — one scheduler event per banked train instead of one
/// wakeup/dispatch round-trip per packet — sits in the event loop, and
/// shows up in `perf`'s events/s, not in a direct-call microbench.
fn bench_link_drain(n: usize, batched: bool) -> f64 {
    use gsrepro_netsim::link::{LinkId, Shaper};
    use gsrepro_netsim::net::NodeId;
    let spec = LinkSpec {
        shaper: Shaper::TokenBucket {
            rate: BitRate::from_mbps(25),
            // Bank enough for the whole train so the drain itself (not
            // token accrual) is what the clock sees.
            burst: Bytes(1_000_000_000),
        },
        delay: SimDuration::from_millis(8),
        jitter: SimDuration::ZERO,
        loss_prob: 0.0,
        dup_prob: 0.0,
        queue: QueueSpec::DropTail {
            limit: Bytes(u64::MAX / 2),
        },
    };
    let mut link = spec.build(LinkId(0), NodeId(0), NodeId(1));
    let mut out: Vec<QueuedPkt> = Vec::with_capacity(n);
    let mut dropped: Vec<QueuedPkt> = Vec::new();
    let now = SimTime::from_secs(1);
    for i in 0..n {
        let item = QueuedPkt {
            pkt: PktRef(i as u32),
            size: Bytes(1228),
            flow: FlowId(0),
            ecn: Ecn::NotEct,
            enqueued_at: now,
        };
        assert!(link.offer(item, now).is_ok(), "offer rejected");
    }
    let start = Instant::now();
    if batched {
        link.service_batch(now, usize::MAX, &mut out, &mut dropped);
    } else {
        while out.len() < n {
            if link.service_batch(now, 1, &mut out, &mut dropped).is_none() && out.len() < n {
                panic!("link stalled mid-drain");
            }
        }
    }
    assert_eq!(out.len(), n, "drain left packets behind");
    n as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    const BACKLOG: usize = 600;
    const OPS: u64 = 4_000_000;

    // Warm-up passes so page faults and lazy allocs don't land in the
    // timings. The drain warm-ups run at full size in *both* modes: the
    // drain allocates ~3 MB of queue and output buffers per call, and a
    // smaller warm-up leaves the first timed variant paying every page
    // fault while the second reuses warm allocator pages — enough skew to
    // invert the comparison.
    bench_wheel(BACKLOG, OPS / 8);
    bench_heap_ref(BACKLOG, OPS / 8);
    bench_link_drain(100_000, true);
    bench_link_drain(100_000, false);

    let wheel = bench_wheel(BACKLOG, OPS);
    let heap = bench_heap_ref(BACKLOG, OPS);
    let drain_batched = bench_link_drain(100_000, true);
    let drain_single = bench_link_drain(100_000, false);

    println!("scheduler microbench (backlog={BACKLOG}, ops={OPS}):");
    println!("  wheel schedule+pop : {:>12.0} ops/s", wheel);
    println!(
        "  heap  schedule+pop : {:>12.0} ops/s  (wheel is {:.2}x)",
        heap,
        wheel / heap
    );
    println!("link drain (100k pkts, 25 Mb/s bucket, banked tokens):");
    println!("  batched            : {:>12.0} pkts/s", drain_batched);
    println!(
        "  one-per-activation : {:>12.0} pkts/s  (batched is {:.2}x)",
        drain_single,
        drain_batched / drain_single
    );
}
