//! Rebuilds of the program's networks from public builders, with every
//! agent optionally wrapped in a timing decorator.
//!
//! [`session_network`] mirrors `topology::build_full` and
//! [`bulk_network`] mirrors the network `model::run_bulk_cell` builds.
//! A decorated replica only observes: the drift guard in
//! [`crate::layers`] checks that it reproduces the program's own run
//! bit for bit before any of its timings are used.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gsrepro_gamestream::client::{StreamClient, StreamClientConfig};
use gsrepro_gamestream::controller::{ControllerEvent, FeedbackSnapshot, RateController};
use gsrepro_gamestream::server::StreamServer;
use gsrepro_netsim::apps::{EchoTo, PingAgent};
use gsrepro_netsim::link::LinkId;
use gsrepro_netsim::net::{Agent, AgentId, Ctx, NetworkBuilder, NodeId, Sim};
use gsrepro_netsim::queue::QueueSpec;
use gsrepro_netsim::wire::{FlowId, Packet};
use gsrepro_netsim::{FlowStats, LinkSpec, Shaper};
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use gsrepro_tcp::{CcaKind, TcpReceiver, TcpSender, TcpSenderConfig};
use gsrepro_testbed::config::{Aqm, Condition};
use gsrepro_testbed::model::BulkCell;
use gsrepro_testbed::topology::{BOTTLENECK_LINK, PING_INTERVAL};

/// Accumulated host time of one handler.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds inside the calls, timer reads included.
    pub nanos: u64,
}

impl Span {
    /// Close a call that started at `since`.
    pub fn record(&mut self, since: Instant) {
        self.calls += 1;
        self.nanos += since.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: Span) {
        self.calls += other.calls;
        self.nanos += other.nanos;
    }

    /// Mean nanoseconds per call, less `overhead_ns` per call for the
    /// decorator's own timer reads (never below zero).
    pub fn ns_per_call(&self, overhead_ns: f64) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        (self.nanos as f64 / self.calls as f64 - overhead_ns).max(0.0)
    }
}

/// Busy-wait for `d` (a planted, fixed amount of extra work).
fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Timing decorator: forwards every callback to the wrapped agent and
/// records the host time of its packet and timer handlers.
pub struct Timed<A> {
    /// The wrapped agent.
    pub inner: A,
    /// `on_packet` time.
    pub packet: Span,
    /// `on_timer` time.
    pub timer: Span,
    /// Planted extra work inside every `on_packet` (zero normally).
    packet_spin: Duration,
}

impl<A: Agent> Agent for Timed<A> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let t = Instant::now();
        if !self.packet_spin.is_zero() {
            spin(self.packet_spin);
        }
        self.inner.on_packet(pkt, ctx);
        self.packet.record(t);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        let t = Instant::now();
        self.inner.on_timer(token, ctx);
        self.timer.record(t);
    }
}

/// One receiver report as the rate controller saw it.
pub type FeedbackLog = Arc<Mutex<Vec<(FeedbackSnapshot, SimTime)>>>;

/// Rate-controller decorator that logs every report it forwards, so the
/// reports can be replayed through a fresh controller later.
struct Logged {
    inner: Box<dyn RateController>,
    log: FeedbackLog,
}

impl RateController for Logged {
    fn on_feedback(&mut self, fb: &FeedbackSnapshot, now: SimTime) -> BitRate {
        self.log
            .lock()
            .expect("feedback log is never held across a panic")
            .push((*fb, now));
        self.inner.on_feedback(fb, now)
    }

    fn current(&self) -> BitRate {
        self.inner.current()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn poll_event(&mut self) -> Option<ControllerEvent> {
        self.inner.poll_event()
    }
}

/// Agent roles a replica can time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Game stream client.
    Client,
    /// Game stream server.
    Server,
    /// Ping prober.
    Ping,
    /// Ping echo responder.
    Echo,
    /// Bulk TCP sender.
    Sender,
    /// TCP receiver.
    Receiver,
}

/// How to decorate a replica.
#[derive(Clone, Debug, Default)]
pub struct Decor {
    /// Planted extra work in every TCP sender `on_packet`.
    pub sender_spin: Duration,
    /// Log the game server's controller reports here.
    pub feedback: Option<FeedbackLog>,
}

/// A rebuilt network plus the handles needed to read it back.
pub struct Replica {
    /// The simulation.
    pub sim: Sim,
    /// Whether agents are wrapped in [`Timed`].
    pub decorated: bool,
    agents: Vec<(Role, AgentId)>,
    /// Data flows whose goodput is measured (bulk cells: Cubic flows
    /// first, BBR last).
    pub bulk_flows: Vec<FlowId>,
    /// Game media flow (session replicas).
    pub game_flow: Option<FlowId>,
    /// Competing TCP data flow (contested session replicas).
    pub iperf_flow: Option<FlowId>,
}

struct Adder<'a> {
    decor: Option<&'a Decor>,
    agents: Vec<(Role, AgentId)>,
}

impl Adder<'_> {
    fn add<A: Agent>(&mut self, b: &mut NetworkBuilder, node: NodeId, role: Role, a: A) -> AgentId {
        let id = match self.decor {
            None => b.add_agent(node, Box::new(a)),
            Some(d) => b.add_agent(
                node,
                Box::new(Timed {
                    inner: a,
                    packet: Span::default(),
                    timer: Span::default(),
                    packet_spin: if role == Role::Sender {
                        d.sender_spin
                    } else {
                        Duration::ZERO
                    },
                }),
            ),
        };
        self.agents.push((role, id));
        id
    }
}

impl Replica {
    fn get<A: Agent>(&self, id: AgentId) -> &A {
        if self.decorated {
            &self.sim.net.agent::<Timed<A>>(id).inner
        } else {
            self.sim.net.agent::<A>(id)
        }
    }

    fn spans_of<A: Agent>(&self, id: AgentId) -> (Span, Span) {
        let t = self.sim.net.agent::<Timed<A>>(id);
        (t.packet, t.timer)
    }

    /// Summed `(on_packet, on_timer)` spans of every agent in `role`.
    ///
    /// # Panics
    /// Panics on an undecorated replica.
    pub fn spans(&self, role: Role) -> (Span, Span) {
        assert!(self.decorated, "undecorated replicas record no spans");
        let mut packet = Span::default();
        let mut timer = Span::default();
        for &(r, id) in self.agents.iter().filter(|(r, _)| *r == role) {
            let (p, t) = match r {
                Role::Client => self.spans_of::<StreamClient>(id),
                Role::Server => self.spans_of::<StreamServer>(id),
                Role::Ping => self.spans_of::<PingAgent>(id),
                Role::Echo => self.spans_of::<EchoTo>(id),
                Role::Sender => self.spans_of::<TcpSender>(id),
                Role::Receiver => self.spans_of::<TcpReceiver>(id),
            };
            packet.merge(p);
            timer.merge(t);
        }
        (packet, timer)
    }

    fn agent_of(&self, role: Role) -> Option<AgentId> {
        self.agents
            .iter()
            .find(|(r, _)| *r == role)
            .map(|&(_, id)| id)
    }

    /// `(retransmissions, delivered bytes)` summed over every TCP sender.
    pub fn tcp_counters(&self) -> (u64, u64) {
        self.agents
            .iter()
            .filter(|(r, _)| *r == Role::Sender)
            .map(|&(_, id)| {
                let s: &TcpSender = self.get(id);
                (s.retransmissions(), s.delivered_bytes())
            })
            .fold((0, 0), |(a, b), (r, d)| (a + r, b + d))
    }

    /// Digest of a session replica, computed exactly as `chaos::digest`
    /// computes it from a finished run.
    pub fn session_digest(&self) -> u64 {
        let game = self.game_flow.expect("session replica");
        let monitor = self.sim.net.monitor();
        let ping: &PingAgent = self.get(self.agent_of(Role::Ping).expect("ping agent"));
        let client: &StreamClient = self.get(self.agent_of(Role::Client).expect("client agent"));
        digest(&DigestInput {
            events: self.sim.events_processed(),
            past_clamps: self.sim.past_clamps(),
            checks: self.sim.net.checks().performed(),
            game: monitor.stats(game),
            iperf: self.iperf_flow.map(|f| monitor.stats(f)),
            rtt: ping.rtt_samples().values(),
            fps: client.fps_bins().bins(),
            tcp: self.tcp_counters(),
        })
    }

    /// Goodputs over the second half of a bulk cell run and the Cubic and
    /// BBR shares, computed as `model::run_bulk_cell` computes them.
    pub fn bulk_shares(&self, duration: SimDuration) -> (Vec<f64>, f64, f64) {
        let stop = SimTime::ZERO + duration;
        let from = SimTime::ZERO + duration.mul_f64(0.5);
        let goodputs: Vec<f64> = self
            .bulk_flows
            .iter()
            .map(|&f| self.sim.goodput_mbps(f, from, stop))
            .collect();
        let bbr = *goodputs.last().expect("bbr flow present");
        let cubic: f64 = goodputs[..goodputs.len() - 1].iter().sum();
        let total = (cubic + bbr).max(f64::MIN_POSITIVE);
        (goodputs, cubic / total, bbr / total)
    }
}

/// Everything `chaos::digest` folds, gathered from a finished run.
pub struct DigestInput<'a> {
    /// Engine events handled.
    pub events: u64,
    /// Past-clamped schedules.
    pub past_clamps: u64,
    /// Oracle evaluations.
    pub checks: u64,
    /// Game media flow statistics.
    pub game: &'a FlowStats,
    /// Competing TCP flow statistics.
    pub iperf: Option<&'a FlowStats>,
    /// Ping RTT samples.
    pub rtt: &'a [f64],
    /// Displayed-fps bins.
    pub fps: &'a [f64],
    /// TCP `(retransmissions, delivered bytes)`.
    pub tcp: (u64, u64),
}

/// The FNV-1a fold of `chaos::digest`, over the same fields in the same
/// order, so a replica's or a phase-cut run's digest compares directly
/// with the program's.
pub fn digest(d: &DigestInput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut u = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    u(d.events);
    u(d.past_clamps);
    u(d.checks);
    let g = d.game;
    for v in [
        g.sent_pkts,
        g.delivered_pkts,
        g.queue_drop_pkts,
        g.link_drop_pkts,
        g.ce_marked_pkts,
        g.sent_bytes.as_u64(),
        g.delivered_bytes.as_u64(),
    ] {
        u(v);
    }
    for &b in g.delivered_bins.bins() {
        u(b.to_bits());
    }
    if let Some(s) = d.iperf {
        for v in [
            s.sent_pkts,
            s.delivered_pkts,
            s.queue_drop_pkts,
            s.link_drop_pkts,
            s.ce_marked_pkts,
        ] {
            u(v);
        }
    }
    for &v in d.rtt.iter().chain(d.fps) {
        u(v.to_bits());
    }
    u(d.tcp.0);
    u(d.tcp.1);
    h
}

/// Rebuild `topology::build_full(cond, iter, None, false)`, agent for
/// agent and link for link, optionally decorated.
pub fn session_network(cond: &Condition, iter: u32, decor: Option<&Decor>) -> Replica {
    let seed = cond.seed(iter);
    let mut b = NetworkBuilder::new(seed);
    let game_server = b.add_node("game-server");
    let iperf_server = b.add_node("iperf-server");
    let router = b.add_node("router");
    let switch = b.add_node("switch");
    let game_client = b.add_node("game-client");
    let iperf_client = b.add_node("iperf-client");

    let wan_spec = LinkSpec::lan(SimDuration::from_millis(4)).with_jitter(cond.wan_jitter);
    b.duplex(game_server, router, wan_spec.clone());
    b.duplex(iperf_server, router, wan_spec);
    let half = SimDuration::from_micros(4_250);
    let bottleneck: LinkId = b.link(
        router,
        switch,
        LinkSpec {
            shaper: Shaper::rate(cond.capacity),
            delay: half,
            queue: match cond.aqm {
                Aqm::DropTail => QueueSpec::DropTail {
                    limit: cond.queue_bytes(),
                },
                Aqm::CoDel => QueueSpec::codel_default(cond.queue_bytes()),
                Aqm::FqCoDel => QueueSpec::fq_codel_default(cond.queue_bytes()),
            },
            jitter: SimDuration::ZERO,
            loss_prob: 0.0,
            dup_prob: 0.0,
        },
    );
    assert_eq!(bottleneck, BOTTLENECK_LINK, "replica wiring drifted");
    b.link(switch, router, LinkSpec::lan(half));
    b.duplex(switch, game_client, LinkSpec::lan(SimDuration::ZERO));
    b.duplex(switch, iperf_client, LinkSpec::lan(SimDuration::ZERO));

    let game_flow = b.flow(format!("{}-media", cond.system.label()));
    let feedback_flow = b.flow("feedback");
    let ping_flow = b.flow("ping");
    let (iperf_flow, ack_flow) = match cond.cca {
        Some(cca) => (
            Some(b.flow(format!("iperf-{}", cca.label()))),
            Some(b.flow("iperf-ack")),
        ),
        None => (None, None),
    };

    let mut profile = cond.system.profile();
    if let Some(ctrl) = cond.controller_override {
        profile.controller = ctrl;
    }
    let mut add = Adder {
        decor,
        agents: Vec::new(),
    };
    let client_id = AgentId(0);
    let server_id = AgentId(1);
    add.add(
        &mut b,
        game_client,
        Role::Client,
        StreamClient::new(StreamClientConfig::new(
            feedback_flow,
            game_server,
            server_id,
        )),
    );
    let source = profile.build_source(seed, stream_id("frames"));
    let mut controller = profile.build_controller();
    if let Some(log) = decor.and_then(|d| d.feedback.clone()) {
        controller = Box::new(Logged {
            inner: controller,
            log,
        });
    }
    add.add(
        &mut b,
        game_server,
        Role::Server,
        StreamServer::with_fps_policy(
            game_flow,
            game_client,
            client_id,
            source,
            controller,
            profile.fps_policy,
        ),
    );
    let ping = add.add(
        &mut b,
        game_client,
        Role::Ping,
        PingAgent::new(ping_flow, game_server, AgentId(3), PING_INTERVAL),
    );
    add.add(
        &mut b,
        game_server,
        Role::Echo,
        EchoTo::new(ping_flow, ping),
    );
    if let (Some(cca), Some(data), Some(acks)) = (cond.cca, iperf_flow, ack_flow) {
        let cfg = TcpSenderConfig::new(data, iperf_client, AgentId(5), cca)
            .active_during(cond.timeline.iperf_start, cond.timeline.iperf_stop);
        let sender = add.add(&mut b, iperf_server, Role::Sender, TcpSender::new(cfg));
        add.add(
            &mut b,
            iperf_client,
            Role::Receiver,
            TcpReceiver::new(acks, iperf_server, sender),
        );
    }

    let mut sim = b.build();
    sim.apply_scenario(
        &cond
            .scenario
            .spec(bottleneck, cond.capacity, cond.queue_bytes()),
    );
    Replica {
        sim,
        decorated: decor.is_some(),
        agents: add.agents,
        bulk_flows: Vec::new(),
        game_flow: Some(game_flow),
        iperf_flow,
    }
}

/// Rebuild the network `model::run_bulk_cell(cell, duration, false,
/// None)` runs, optionally decorated.
pub fn bulk_network(cell: &BulkCell, duration: SimDuration, decor: Option<&Decor>) -> Replica {
    let capacity = BitRate::from_mbps(cell.capacity_mbps);
    let queue = capacity.bdp(cell.base_rtt).mul_f64(cell.queue_mult);
    let one_way = cell.base_rtt.mul_f64(0.5);

    let mut b = NetworkBuilder::new(cell.seed());
    let servers = b.add_node("servers");
    let client = b.add_node("client");
    b.link(
        servers,
        client,
        LinkSpec {
            shaper: Shaper::rate(capacity),
            delay: one_way,
            queue: QueueSpec::DropTail { limit: queue },
            jitter: SimDuration::ZERO,
            loss_prob: 0.0,
            dup_prob: 0.0,
        },
    );
    b.link(client, servers, LinkSpec::lan(one_way));

    let stop = SimTime::ZERO + duration;
    let mut add = Adder {
        decor,
        agents: Vec::new(),
    };
    let mut flows = Vec::new();
    let mut pair = |b: &mut NetworkBuilder, data: FlowId, acks: FlowId, i: u32, cca: CcaKind| {
        let cfg = TcpSenderConfig::new(data, client, AgentId(i * 2 + 1), cca)
            .active_during(SimTime::ZERO, stop);
        let s = add.add(b, servers, Role::Sender, TcpSender::new(cfg));
        add.add(
            b,
            client,
            Role::Receiver,
            TcpReceiver::new(acks, servers, s),
        );
    };
    for i in 0..cell.n_cubic {
        let data = b.flow(format!("cubic{i}"));
        let acks = b.flow(format!("cack{i}"));
        pair(&mut b, data, acks, i, CcaKind::Cubic);
        flows.push(data);
    }
    let data = b.flow("bbr");
    let acks = b.flow("back");
    pair(&mut b, data, acks, cell.n_cubic, CcaKind::Bbr);
    flows.push(data);

    Replica {
        sim: b.build(),
        decorated: decor.is_some(),
        agents: add.agents,
        bulk_flows: flows,
        game_flow: None,
        iperf_flow: None,
    }
}
