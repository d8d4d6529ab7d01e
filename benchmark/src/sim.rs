//! The simulator workloads: `sim-n10k` and `sim-n10k-lossy`.
//!
//! A run makes several measurements ("reps") of one seed: build the
//! cluster (timed as set-up), run warm-up rounds, then time every gossip
//! round separately. The first rep also runs the settle rounds and judges
//! the broadcasts; the reps after it, made until `--seconds` have passed,
//! stop after the judged rounds and must reach exactly the first rep's
//! state there. Wall-clock results are reported as medians.
//!
//! The traced rep also splits the `udp-overload` nodes' protocol work,
//! on a replay of that workload's parameters ([`crate::udp::replay`]).

use std::cell::{Cell, Ref, RefCell};
use std::io;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use agb_core::{AdaptiveNode, FrameProtocol};
use agb_membership::FullView;
use agb_metrics::MetricsCollector;
use agb_profile::{MemTable, Phase};
use agb_recovery::{RecoverableNode, RecoveryConfig};
use agb_sim::{NetStats, NetworkConfig, Simulation, SimulationBuilder};
use agb_types::{DetRng, DurationMs, NodeId, Payload, SeedSequence, TimeMs};
use agb_workload::{
    Algorithm, ClusterConfig, GossipCluster, PhaseModel, SenderModel, SenderProcess,
};

use crate::alloc;
use crate::layers::{
    Count, LayerAcc, LayerTotals, TimedCore, TimedFrame, TimedMembership, TracedNode,
};
use crate::report::{peak_rss_mb, process_cpu_s, Report};
use crate::stats::{median, per_delivery, AdmissionWindow, Broadcast, Outcomes};
use crate::wire;

/// Group size of both simulator workloads.
pub const N_NODES: usize = 10_000;
/// Engine shard threads (`AGB_THREADS`), the CPU count the workloads
/// were sized for.
pub const THREADS: usize = 2;
/// Extra builds per run whose times join the set-up median.
const SETUP_SAMPLES: usize = 3;

/// One simulated workload: a cluster and the rounds a rep runs.
#[derive(Clone, Copy, Debug)]
pub struct SimWorkload {
    /// The cluster of a seed.
    pub config: fn(u64) -> ClusterConfig,
    /// Rounds run before timing starts: buffers fill and the adaptive
    /// rate settles.
    pub warmup_rounds: u64,
    /// Timed rounds whose broadcasts are judged.
    pub judged_rounds: u64,
    /// Timed rounds after the judged ones, so that the judged broadcasts
    /// reach their last receiver before the rep ends.
    pub settle_rounds: u64,
}

impl SimWorkload {
    /// `sim-n10k`, or `sim-n10k-lossy` when `lossy`.
    pub fn n10k(lossy: bool) -> Self {
        SimWorkload {
            config: if lossy {
                n10k_lossy_config
            } else {
                n10k_config
            },
            warmup_rounds: 8,
            judged_rounds: 20,
            settle_rounds: if lossy { 24 } else { 12 },
        }
    }
}

/// `sim-n10k`: the scale scenario of the perf harness (fanout 4, 1 s
/// rounds, 60-event buffers, 10 senders offering 50 msgs/s of 64 B
/// payloads in total) on a perfect network.
fn n10k_config(seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::new(N_NODES, seed);
    c.algorithm = Algorithm::Adaptive;
    c.gossip.fanout = 4;
    c.gossip.gossip_period = DurationMs::from_secs(1);
    c.gossip.max_events = 60;
    c.gossip.max_event_ids = 5_000;
    c.gossip.age_cap = 10;
    c.adaptation.initial_rate = 5.0;
    c.n_senders = 10;
    c.offered_rate = 50.0;
    c.payload_size = 64;
    c.network = NetworkConfig::default();
    c.phases = PhaseModel::Synchronized;
    c.metrics_bin = DurationMs::from_secs(1);
    c.threads = THREADS;
    c
}

/// `sim-n10k-lossy`: the same with 5% message loss and recovery.
fn n10k_lossy_config(seed: u64) -> ClusterConfig {
    let mut c = n10k_config(seed);
    c.network = NetworkConfig::lossy(0.05);
    c.recovery = Some(RecoveryConfig::default());
    c
}

/// What the measured loop needs from a running simulation.
trait Driven {
    fn run_until(&mut self, t: TimeMs);
    fn stats(&self) -> NetStats;
    fn metrics(&self) -> Ref<'_, MetricsCollector>;
    /// Offers refused so far by blocked sender applications.
    fn refused(&self) -> u64;
    /// Called once, between warm-up and the first timed round.
    fn begin_measure(&mut self) {}
}

impl Driven for GossipCluster {
    fn run_until(&mut self, t: TimeMs) {
        GossipCluster::run_until(self, t);
    }

    fn stats(&self) -> NetStats {
        self.sim_stats()
    }

    fn metrics(&self) -> Ref<'_, MetricsCollector> {
        GossipCluster::metrics(self)
    }

    fn refused(&self) -> u64 {
        self.suppressed_offers()
    }
}

/// Virtual-time state at the end of the judged rounds. Every rep of a
/// seed reaches it and must reproduce it exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Checkpoint {
    checksum: u64,
    /// Engine sends and deliveries since warm-up.
    sends: u64,
    net_deliveries: u64,
    /// Application deliveries since warm-up.
    app_deliveries: u64,
    /// Broadcasts admitted in the judged rounds, and how many of them
    /// are atomic so far.
    admitted: u64,
    atomic: u64,
    /// Offers refused in the judged rounds.
    refused: u64,
}

/// What a rep that ran its settle rounds adds: the judged broadcasts'
/// final outcomes.
#[derive(Debug)]
struct Judged {
    outcomes: Outcomes,
    /// Delivery records whose broadcast was never admitted.
    orphans: usize,
    /// Buffer purges by age cap and by overflow over the timed rounds.
    drops_age: u64,
    drops_size: u64,
    /// Engine statistics at the end of the rep.
    end: NetStats,
}

/// One measured rep.
#[derive(Debug)]
struct Rep {
    setup_s: f64,
    /// Wall seconds of each timed round.
    round_s: Vec<f64>,
    /// Wall seconds of the judged rounds: the work every rep of a seed
    /// repeats exactly. Round times fall into a heavy and a light regime
    /// as the adaptive rate settles, so a median over mixed rounds would
    /// jump between them; a total over fixed rounds does not.
    judged_wall_s: f64,
    /// Process CPU seconds over the judged rounds.
    judged_cpu_s: f64,
    checkpoint: Checkpoint,
    /// Set when the rep ran its settle rounds.
    judged: Option<Judged>,
}

/// Runs warm-up, the judged rounds and, when `full`, the settle rounds,
/// timing every round after warm-up.
fn measure(
    engine: &mut impl Driven,
    w: &SimWorkload,
    config: &ClusterConfig,
    full: bool,
    setup_s: f64,
) -> Rep {
    let (n, period) = (config.n_nodes, config.gossip.gossip_period);
    let at_round = |r: u64| TimeMs::ZERO + period.mul_f64(r as f64);
    let window = AdmissionWindow::new(
        at_round(w.warmup_rounds).as_millis(),
        at_round(w.warmup_rounds + w.judged_rounds + w.settle_rounds).as_millis(),
        period.as_millis() * w.settle_rounds,
    );
    let timed_rounds = w.judged_rounds + if full { w.settle_rounds } else { 0 };
    engine.run_until(at_round(w.warmup_rounds));
    engine.begin_measure();
    let stats0 = engine.stats();
    let (app0, age0, size0) = {
        let m = engine.metrics();
        (
            m.delivered().total(),
            m.drop_ages().age_cap_count(),
            m.drop_ages().overflow_count(),
        )
    };
    let refused0 = engine.refused();
    let cpu0 = process_cpu_s();
    let mut judged_cpu_s = 0.0;
    let mut checkpoint = Checkpoint::default();
    let mut round_s = Vec::with_capacity(timed_rounds as usize);
    for r in 1..=timed_rounds {
        let t0 = Instant::now();
        engine.run_until(at_round(w.warmup_rounds + r));
        round_s.push(t0.elapsed().as_secs_f64());
        if r == w.judged_rounds {
            judged_cpu_s = process_cpu_s() - cpu0;
            let stats = engine.stats();
            let m = engine.metrics();
            let so_far = Outcomes::judge(broadcasts(&m).0, n, window);
            checkpoint = Checkpoint {
                checksum: stats.checksum,
                sends: stats.sends - stats0.sends,
                net_deliveries: stats.deliveries - stats0.deliveries,
                app_deliveries: m.delivered().total() - app0,
                admitted: so_far.admitted,
                atomic: so_far.atomic,
                refused: engine.refused() - refused0,
            };
        }
    }
    let m = engine.metrics();
    let judged = full.then(|| {
        let (all, orphans) = broadcasts(&m);
        Judged {
            outcomes: Outcomes::judge(all, n, window),
            orphans,
            drops_age: m.drop_ages().age_cap_count() - age0,
            drops_size: m.drop_ages().overflow_count() - size0,
            end: engine.stats(),
        }
    });
    Rep {
        setup_s,
        judged_wall_s: round_s[..w.judged_rounds as usize].iter().sum(),
        round_s,
        judged_cpu_s,
        checkpoint,
        judged,
    }
}

/// Every tracked broadcast, plus the number of delivery records that
/// have no admission (which a correct run never produces).
pub fn broadcasts(m: &MetricsCollector) -> (Vec<Broadcast>, usize) {
    let mut out = Vec::new();
    let mut orphans = 0;
    for (_, rec) in m.deliveries().iter() {
        match rec.admitted_at {
            Some(at) => out.push(Broadcast {
                admitted_ms: at.as_millis(),
                receivers: rec.receiver_count(),
                last_delivery_ms: rec.last_delivery.map(TimeMs::as_millis),
            }),
            None => orphans += 1,
        }
    }
    (out, orphans)
}

/// One rep on `GossipCluster`, with the settle rounds when `full`; also
/// returns the cluster's memory table.
fn untraced_rep(w: &SimWorkload, seed: u64, full: bool) -> (Rep, MemTable) {
    let config = (w.config)(seed);
    let t0 = Instant::now();
    let mut cluster = GossipCluster::build(config.clone());
    let setup_s = t0.elapsed().as_secs_f64();
    let rep = measure(&mut cluster, w, &config, full, setup_s);
    (rep, cluster.mem_table())
}

/// Checks a full rep and returns its judged results.
fn check_judged<'a>(report: &mut Report, rep: &'a Rep) -> &'a Judged {
    let judged = rep.judged.as_ref().expect("a full rep");
    report.check(judged.orphans == 0, || {
        format!(
            "{} delivery records belong to no admitted broadcast",
            judged.orphans
        )
    });
    report.check(judged.outcomes.admitted > 0, || {
        "no broadcast was admitted in the window".into()
    });
    judged
}

/// The untraced run: end-to-end metrics. The first rep runs the settle
/// rounds and judges the broadcasts; the reps after it stop at the end
/// of the judged rounds, where they must match the first one exactly.
pub fn run(w: &SimWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let started = Instant::now();
    let mut reps = vec![untraced_rep(w, seed, true).0];
    while reps.len() < 2 || started.elapsed() < Duration::from_secs_f64(seconds) {
        reps.push(untraced_rep(w, seed, false).0);
    }
    let first = &reps[0];
    let judged = check_judged(&mut report, first);
    for (i, rep) in reps.iter().enumerate().skip(1) {
        report.check(rep.checkpoint == first.checkpoint, || {
            format!(
                "rep {i} diverged from rep 0 of the same seed: {:?} vs {:?}",
                rep.checkpoint, first.checkpoint
            )
        });
    }

    // Mean wall time of a judged round, median over reps.
    let judged_round_s: Vec<f64> = reps
        .iter()
        .map(|r| r.judged_wall_s / w.judged_rounds as f64)
        .collect();
    let round = median(&judged_round_s).expect("reps");
    let mut setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let cluster = GossipCluster::build((w.config)(seed));
        setup.push(t0.elapsed().as_secs_f64());
        drop(cluster);
    }
    let cpu_per_delivery: Vec<f64> = reps
        .iter()
        .map(|r| r.judged_cpu_s * 1e6 / r.checkpoint.app_deliveries.max(1) as f64)
        .collect();
    let o = &judged.outcomes;
    report.notes.push(format!(
        "reps {} | judged round {:.3?} s | set-up samples {:.3?} s | judged broadcasts {} (atomic {}) | refused {}",
        reps.len(),
        judged_round_s,
        setup,
        o.admitted,
        o.atomic,
        first.checkpoint.refused
    ));

    let n = (w.config)(seed).n_nodes;
    report.num("node_rounds_per_s", "1/s", n as f64 / round);
    report.num("setup_s", "s", median(&setup).expect("reps"));
    report.opt("peak_rss_mb", "MiB", peak_rss_mb(), "VmHWM unreadable");
    report.opt(
        "atomicity",
        "fraction",
        o.atomicity(),
        "no broadcast judged",
    );
    report.opt(
        "latency_p50_ms",
        "ms",
        o.latency_ms(0.5),
        "no broadcast judged",
    );
    report.opt(
        "latency_p99_ms",
        "ms",
        o.latency_ms(0.99),
        "no broadcast judged",
    );
    report.num(
        "frames_per_delivery",
        "frames",
        first.checkpoint.sends as f64 / first.checkpoint.app_deliveries.max(1) as f64,
    );
    report.num(
        "cpu_us_per_delivery",
        "us",
        median(&cpu_per_delivery).expect("reps"),
    );
    report.num(
        "goodput_msgs_per_s",
        "1/s",
        o.atomic as f64 / w.judged_rounds as f64 / round,
    );
    let ops = o.ops();
    report.attempted = ops.attempted;
    report.failed = ops.failed;
    report
}

/// The traced simulation: the same nodes built from public constructors
/// with timing wrappers, driven through the engine with the metrics fold
/// timed in the post-event hook.
struct TracedSim {
    sim: Simulation<TracedNode>,
    metrics: Rc<RefCell<MetricsCollector>>,
    fold_ns: Rc<Cell<u64>>,
    /// Values at the start of the timed rounds.
    fold_ns0: u64,
    layers0: LayerTotals,
    allocs0: u64,
}

impl TracedSim {
    fn build(config: &ClusterConfig) -> Self {
        let n = config.n_nodes;
        let seeds = SeedSequence::new(config.seed);
        let metrics = Rc::new(RefCell::new(MetricsCollector::new(n, config.metrics_bin)));
        let payload = Payload::from(vec![0u8; config.payload_size]);
        let per_sender = config.offered_rate / config.n_senders as f64;
        let period = config.gossip.gossip_period;
        let nodes = (0..n)
            .map(|i| {
                let id = NodeId::new(i as u32);
                let acc = Arc::new(LayerAcc::default());
                let view = TimedMembership::new(FullView::new(n), Arc::clone(&acc));
                let rng: DetRng = seeds.rng_for("protocol", i as u64);
                let adaptive = AdaptiveNode::new(
                    id,
                    config.gossip.clone(),
                    config.adaptation.clone(),
                    view,
                    rng,
                );
                let core = TimedCore::new(adaptive, Arc::clone(&acc));
                let protocol: Box<dyn FrameProtocol + Send> = match &config.recovery {
                    Some(rc) => Box::new(TimedFrame::new(
                        RecoverableNode::new(core, rc.clone()),
                        Arc::clone(&acc),
                    )),
                    None => Box::new(TimedFrame::new(core, Arc::clone(&acc))),
                };
                let sender = (i < config.n_senders).then(|| {
                    metrics
                        .borrow_mut()
                        .set_initial_rate(id, config.adaptation.initial_rate);
                    SenderProcess::new(
                        SenderModel::Constant { rate: per_sender },
                        TimeMs::ZERO,
                        seeds.rng_for("sender", i as u64),
                    )
                    .with_max_backlog(config.max_backlog)
                });
                TracedNode::new(protocol, sender, payload.clone(), period, acc)
            })
            .collect();
        let mut sim = SimulationBuilder::new(seeds.seed_for("sim", 0))
            .network(config.network.clone())
            .threads(config.threads)
            .build(nodes);
        // Every batch goes to the shard workers, so the profiler's
        // per-shard busy time covers all handler execution and the layer
        // times (summed over shards) split it exactly. Results never
        // depend on this threshold.
        sim.set_parallel_threshold(1);
        let fold_ns = Rc::new(Cell::new(0u64));
        let (hook_metrics, hook_fold) = (Rc::clone(&metrics), Rc::clone(&fold_ns));
        sim.set_post_event_hook(Box::new(move |node: &mut TracedNode| {
            if node.pending.is_empty() {
                return;
            }
            let t0 = Instant::now();
            hook_metrics
                .borrow_mut()
                .on_events(node.id(), &node.pending);
            hook_fold.set(hook_fold.get() + t0.elapsed().as_nanos() as u64);
            node.pending.clear();
        }));
        TracedSim {
            sim,
            metrics,
            fold_ns,
            fold_ns0: 0,
            layers0: LayerTotals::default(),
            allocs0: 0,
        }
    }

    fn layers(&self) -> LayerTotals {
        LayerTotals::sum(self.sim.nodes().map(|n| n.acc.as_ref()))
    }
}

impl Driven for TracedSim {
    fn run_until(&mut self, t: TimeMs) {
        self.sim.run_until_sharded(t);
    }

    fn stats(&self) -> NetStats {
        self.sim.stats()
    }

    fn metrics(&self) -> Ref<'_, MetricsCollector> {
        self.metrics.borrow()
    }

    fn refused(&self) -> u64 {
        self.sim.nodes().map(TracedNode::refused).sum()
    }

    fn begin_measure(&mut self) {
        self.sim.enable_profiler();
        self.sim
            .profiler_mut()
            .expect("profiler just enabled")
            .set_alloc_counter(alloc::allocations);
        self.sim.reset_peak_pending_events();
        self.fold_ns0 = self.fold_ns.get();
        self.layers0 = self.layers();
        alloc::set_counting(true);
        self.allocs0 = alloc::allocations();
    }
}

/// Bytes per node of one memory-table row, absent when no node has it.
fn mem_row(table: &MemTable, label: &str) -> Option<f64> {
    table
        .rows()
        .iter()
        .find(|(l, _)| l == label)
        .map(|(_, u)| u.bytes as f64 / table.nodes() as f64)
}

/// A traced rep after its run, for the metrics its caller adds.
pub struct TracedRun {
    traced: TracedSim,
    rep: Rep,
    /// Layer accumulators over the timed rounds.
    pub layers: LayerTotals,
    /// Allocations over the timed rounds.
    pub allocs: u64,
}

/// The memory-table rows that exist only when nodes run recovery.
const RECOVERY_ROWS: [&str; 3] = [
    "recovery_seen_ids",
    "retransmission_cache",
    "missing_tracker",
];

/// Runs an untraced reference rep, then the traced rep, which must
/// reproduce its virtual-time results, and reports the split of the
/// engine and the protocol stack: `trace.*`, `sim.*`, `core.on_*`,
/// `core.calls_per_round`, `core.duplicate_ratio`, `membership.*`,
/// `recovery.*_self_us`, `metrics.fold_ms_per_round` and `mem.*`.
pub fn trace_layers(w: &SimWorkload, seed: u64, report: &mut Report) -> TracedRun {
    let (reference, mem) = untraced_rep(w, seed, true);
    let reference_judged = check_judged(report, &reference);

    let config = (w.config)(seed);
    let t0 = Instant::now();
    let mut traced = TracedSim::build(&config);
    let setup_s = t0.elapsed().as_secs_f64();
    let rep = measure(&mut traced, w, &config, true, setup_s);
    let allocs = alloc::allocations() - traced.allocs0;
    alloc::set_counting(false);
    let judged = rep.judged.as_ref().expect("a full rep");
    let outcome =
        |r: &Rep, j: &Judged| (r.checkpoint, j.end, j.outcomes.admitted, j.outcomes.atomic);
    report.check(
        outcome(&rep, judged) == outcome(&reference, reference_judged),
        || {
            format!(
                "traced rep diverged from the untraced one: {:?} vs {:?}",
                outcome(&rep, judged),
                outcome(&reference, reference_judged)
            )
        },
    );

    let rounds = rep.round_s.len() as f64;
    let per_round_ms = |ns: u64| ns as f64 / rounds / 1e6;
    let per_call_us = |ns: u64, calls: u64| (calls > 0).then(|| ns as f64 / calls as f64 / 1e3);
    let snap = traced.sim.profiler_snapshot().expect("profiler enabled");
    let phase_ns = |p: Phase| snap.phase(p).total_ns;
    let l = traced.layers().since(&traced.layers0);
    let shard_cpu_ns: u64 = snap.shard_busy_ns.iter().sum();
    let route_ns = phase_ns(Phase::Route);
    let attributed_ns = l[Count::CoreRoundSelfNs]
        + l[Count::CoreReceiveSelfNs]
        + l[Count::SampleNs]
        + l[Count::FrameRoundSelfNs]
        + l[Count::FrameReceiveSelfNs]
        + route_ns;
    let unattributed_ms = (shard_cpu_ns as f64 - attributed_ns as f64) / rounds / 1e6;
    report.check(attributed_ns as f64 <= shard_cpu_ns as f64 * 1.05, || {
        format!("timed layers ({attributed_ns} ns) exceed shard execution ({shard_cpu_ns} ns) by more than 5%")
    });
    let untraced_round = reference.judged_wall_s / w.judged_rounds as f64;
    let traced_round = rep.judged_wall_s / w.judged_rounds as f64;
    report.notes.push(format!(
        "traced rep: checksum {:#018x} at the end, {} sends, {} deliveries, {} atomic of {}",
        judged.end.checksum,
        judged.end.sends,
        judged.end.deliveries,
        judged.outcomes.atomic,
        judged.outcomes.admitted
    ));
    report.notes.push(format!(
        "shard cpu {:.3} ms/round = core {:.3} + membership {:.3} + frame layer {:.3} + route {:.3} + unattributed {:.3}",
        per_round_ms(shard_cpu_ns),
        per_round_ms(l[Count::CoreRoundSelfNs] + l[Count::CoreReceiveSelfNs]),
        per_round_ms(l[Count::SampleNs]),
        per_round_ms(l[Count::FrameRoundSelfNs] + l[Count::FrameReceiveSelfNs]),
        per_round_ms(route_ns),
        unattributed_ms
    ));

    report.num(
        "trace.node_rounds_per_s",
        "1/s",
        config.n_nodes as f64 / traced_round,
    );
    report.num(
        "trace.overhead",
        "fraction",
        traced_round / untraced_round - 1.0,
    );
    report.num(
        "sim.batch_lift_ms_per_round",
        "ms",
        per_round_ms(phase_ns(Phase::BatchLift)),
    );
    report.num(
        "sim.shard_exec_ms_per_round",
        "ms",
        per_round_ms(phase_ns(Phase::ShardExec)),
    );
    report.num(
        "sim.merge_ms_per_round",
        "ms",
        per_round_ms(phase_ns(Phase::Merge)),
    );
    report.num("sim.route_ms_per_round", "ms", per_round_ms(route_ns));
    report.num(
        "sim.shard_cpu_ms_per_round",
        "ms",
        per_round_ms(shard_cpu_ns),
    );
    report.num("sim.unattributed_ms_per_round", "ms", unattributed_ms);
    let busiest = snap.shard_busy_ns.iter().max();
    let idlest = snap.shard_busy_ns.iter().min();
    report.opt(
        "sim.shard_balance",
        "ratio",
        busiest
            .zip(idlest)
            .map(|(&max, &min)| max as f64 / min.max(1) as f64),
        "no parallel batch ran",
    );
    report.num(
        "sim.peak_queue_depth",
        "events",
        traced.sim.peak_pending_events() as f64,
    );
    report.opt(
        "core.on_round_us",
        "us",
        per_call_us(l[Count::CoreRoundSelfNs], l[Count::CoreRoundCalls]),
        "no calls",
    );
    report.opt(
        "core.on_receive_us",
        "us",
        per_call_us(l[Count::CoreReceiveSelfNs], l[Count::CoreReceiveCalls]),
        "no calls",
    );
    report.num(
        "core.calls_per_round",
        "calls",
        (l[Count::CoreRoundCalls] + l[Count::CoreReceiveCalls]) as f64 / rounds,
    );
    report.opt(
        "membership.sample_us",
        "us",
        per_call_us(l[Count::SampleNs], l[Count::SampleCalls]),
        "no calls",
    );
    report.num(
        "membership.sample_calls",
        "calls",
        l[Count::SampleCalls] as f64 / rounds,
    );
    report.opt(
        "recovery.on_round_self_us",
        "us",
        per_call_us(l[Count::FrameRoundSelfNs], l[Count::FrameRoundCalls]),
        "no calls",
    );
    report.opt(
        "recovery.on_receive_self_us",
        "us",
        per_call_us(l[Count::FrameReceiveSelfNs], l[Count::FrameReceiveCalls]),
        "no calls",
    );
    report.num(
        "metrics.fold_ms_per_round",
        "ms",
        per_round_ms(traced.fold_ns.get() - traced.fold_ns0),
    );
    for (name, label) in [
        ("mem.membership_view_bytes_per_node", "membership_view"),
        ("mem.event_buffer_bytes_per_node", "event_buffer"),
        ("mem.event_ids_bytes_per_node", "event_ids"),
        ("mem.recovery_seen_ids_bytes_per_node", "recovery_seen_ids"),
        (
            "mem.retransmission_cache_bytes_per_node",
            "retransmission_cache",
        ),
        ("mem.missing_tracker_bytes_per_node", "missing_tracker"),
    ] {
        // Without recovery its structures do not exist and hold 0 B; a
        // row missing anywhere else is a fault.
        let bytes = mem_row(&mem, label).or_else(|| {
            (config.recovery.is_none() && RECOVERY_ROWS.contains(&label)).then_some(0.0)
        });
        report.opt(name, "B", bytes, "no such memory-table row");
    }
    report.opt(
        "core.duplicate_ratio",
        "fraction",
        (l[Count::EventsReceived] > 0).then(|| {
            (l[Count::EventsReceived] - l[Count::GossipDeliveries]) as f64
                / l[Count::EventsReceived] as f64
        }),
        "no events received",
    );
    TracedRun {
        traced,
        rep,
        layers: l,
        allocs,
    }
}

/// The traced run: the layer split, then the drop, rate, recovery, CPU
/// and allocation figures of the same traced rep and the wire legs on a
/// frame of the workload's mean size.
pub fn run_traced(w: &SimWorkload, seed: u64) -> io::Result<Report> {
    let mut report = Report::default();
    let config = (w.config)(seed);
    let run = trace_layers(w, seed, &mut report);
    let (rep, l) = (&run.rep, &run.layers);
    let judged = rep.judged.as_ref().expect("a full rep");
    let period_s = config.gossip.gossip_period.as_millis() as f64 / 1_000.0;
    let rounds = rep.round_s.len() as f64;

    report.num("alloc.per_round", "allocs", run.allocs as f64 / rounds);
    // Drops per second of protocol time, the unit the runtime reports
    // them in. Refused offers are the congestion drops.
    report.num(
        "core.drops_age",
        "1/s",
        judged.drops_age as f64 / (rounds * period_s),
    );
    report.num(
        "core.drops_size",
        "1/s",
        judged.drops_size as f64 / (rounds * period_s),
    );
    report.num(
        "core.drops_congestion",
        "1/s",
        rep.checkpoint.refused as f64 / (w.judged_rounds as f64 * period_s),
    );
    let metrics = run.traced.metrics.borrow();
    let judged_end = TimeMs::ZERO
        + config
            .gossip
            .gossip_period
            .mul_f64((w.warmup_rounds + w.judged_rounds) as f64);
    report.num(
        "core.allowed_rate_msgs_per_s",
        "1/s",
        metrics.allowed().aggregate_at(judged_end),
    );
    // Every retransmitted event that arrives is either recovered or a
    // duplicate; both are 0 where nodes run no recovery.
    let deliveries = metrics.delivered().total();
    let recovery = metrics.recovery();
    report.opt(
        "recovery.recovered_per_delivery",
        "events",
        per_delivery(recovery.recovered(), deliveries),
        "no deliveries",
    );
    report.opt(
        "recovery.duplicates_per_delivery",
        "events",
        per_delivery(recovery.duplicates(), deliveries),
        "no deliveries",
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.num(
        "process.cpu_util",
        "fraction",
        rep.judged_cpu_s / (rep.judged_wall_s * nproc as f64),
    );
    // The simulator exchanges frames without encoding them; the wire
    // legs time the codec on a frame carrying the run's mean number of
    // events per gossip message.
    let events =
        (l[Count::EventsReceived] as f64 / l[Count::CoreReceiveCalls].max(1) as f64).round() as u64;
    wire::report_legs(&mut report, &wire::frame(events, config.recovery.is_some()))?;

    let ops = judged.outcomes.ops();
    report.attempted = ops.attempted;
    report.failed = ops.failed;
    Ok(report)
}
