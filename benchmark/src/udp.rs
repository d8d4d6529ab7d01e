//! The `udp-overload` workload: 16 node threads exchanging real UDP
//! datagrams on 127.0.0.1 under an open load the adaptive throttle must
//! mostly refuse.
//!
//! The run starts the cluster several times (set-up samples), then keeps
//! one running: warm-up, a judged window, and a settle stretch so that
//! late broadcasts of the window can finish. Counters come from the
//! nodes' telemetry registries; a series the runtime never registered
//! is reported as absent, not as 0.
//!
//! The node threads build their protocol stacks themselves, so the
//! traced run cannot wrap their layers. It times them on a replay
//! instead: the same nodes with the same parameters, run by the
//! simulator's traced rep in virtual time ([`replay`]).

use std::io;
use std::time::{Duration, Instant};

use agb_profile::ProfileConfig;
use agb_recovery::RecoveryConfig;
use agb_runtime::{RuntimeCluster, RuntimeClusterConfig, TransportKind};
use agb_sim::NetworkConfig;
use agb_telemetry::{names, Snapshot, TelemetryConfig};
use agb_types::{DurationMs, TimeMs};
use agb_workload::{Algorithm, ClusterConfig, PhaseModel};

use crate::alloc;
use crate::report::{live_threads_cpu_s, peak_rss_mb, Report};
use crate::sim::{self, broadcasts, SimWorkload};
use crate::stats::{
    counter, counter_delta, histogram_delta, median, per_delivery, AdmissionWindow, Outcomes,
};
use crate::wire::{self, PAYLOAD_BYTES};

/// Node threads.
const N_NODES: usize = 16;
/// Aggregate offered load, msgs/s, split over the senders.
const OFFERED_RATE: f64 = 3_000.0;
/// Run time before the judged window: the adaptive rate settles.
const WARMUP: Duration = Duration::from_secs(3);
/// Length of one measured slice.
const SLICE: Duration = Duration::from_secs(1);
/// Final slices whose broadcasts are not judged: they may still be
/// spreading when the run ends.
const SETTLE_SLICES: usize = 1;
/// Extra start/stop cycles whose start times join the set-up median.
const SETUP_SAMPLES: usize = 100;

fn config(seed: u64, profile: bool) -> RuntimeClusterConfig {
    let mut c = RuntimeClusterConfig::quick(N_NODES, seed);
    c.adaptive = true;
    c.transport = TransportKind::Udp;
    c.gossip.gossip_period = DurationMs::from_millis(50);
    c.gossip.max_events = 60;
    c.adaptation.initial_rate = 100.0;
    c.adaptation.min_buff.sample_period = DurationMs::from_millis(300);
    c.n_senders = 2;
    c.offered_rate = OFFERED_RATE;
    c.payload_size = PAYLOAD_BYTES;
    c.recovery = Some(RecoveryConfig::default());
    c.loss = 0.05;
    c.telemetry = TelemetryConfig::recording();
    c.profile = if profile {
        ProfileConfig::enabled()
    } else {
        ProfileConfig::disabled()
    };
    c
}

/// The workload's nodes and parameters on the simulator: 16 nodes,
/// 50 ms rounds, 5% loss, recovery, 2 senders offering 3000 msgs/s. The
/// rounds match the live run: 3 s of warm-up, a 20 s judged window and
/// a 1 s settle stretch.
pub fn replay() -> SimWorkload {
    SimWorkload {
        config: replay_config,
        warmup_rounds: 60,
        judged_rounds: 400,
        settle_rounds: 20,
    }
}

fn replay_config(seed: u64) -> ClusterConfig {
    let live = config(seed, false);
    let mut c = ClusterConfig::new(live.n_nodes, seed);
    c.algorithm = Algorithm::Adaptive;
    c.gossip = live.gossip;
    c.adaptation = live.adaptation;
    c.n_senders = live.n_senders;
    c.offered_rate = live.offered_rate;
    c.payload_size = live.payload_size;
    c.network = NetworkConfig::lossy(live.loss);
    c.recovery = live.recovery;
    c.metrics_bin = live.metrics_bin;
    c.phases = PhaseModel::Synchronized;
    c.threads = sim::THREADS;
    c
}

/// All nodes' registries folded into one snapshot.
fn snapshot(cluster: &RuntimeCluster) -> Snapshot {
    let mut snap = Snapshot::default();
    for registry in cluster.telemetry_registries() {
        // Every node registers the same histogram bounds.
        let merged = snap.merge(&registry.snapshot());
        assert!(merged, "per-node histogram bounds differ");
    }
    snap
}

/// Runs the workload; `trace` adds the runtime profiler, the replay's
/// layer split and the wire legs.
pub fn run(seed: u64, seconds: f64, trace: bool) -> io::Result<Report> {
    let mut report = Report::default();
    let mut setup_s = Vec::with_capacity(SETUP_SAMPLES + 1);
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let cluster = RuntimeCluster::start(config(seed, trace))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        cluster.stop();
    }
    let t0 = Instant::now();
    let cluster = RuntimeCluster::start(config(seed, trace))?;
    setup_s.push(t0.elapsed().as_secs_f64());

    // The window is cut into one-second slices: CPU per delivery is the
    // median over slices, so a brief disturbance of the machine moves it
    // less; the last `SETTLE_SLICES` are not judged.
    let slices = (seconds.round() as usize).max(SETTLE_SLICES + 1);
    cluster.run_for(WARMUP);
    let (snap0, ms0, cpu0, wall0) = (
        snapshot(&cluster),
        cluster.elapsed(),
        live_threads_cpu_s(),
        Instant::now(),
    );
    alloc::set_counting(trace);
    let allocs0 = alloc::allocations();
    let (mut prev, mut prev_cpu) = (snap0.clone(), cpu0);
    let mut snap1 = snap0.clone();
    let mut cpu_us_per_delivery = Vec::with_capacity(slices);
    for slice in 1..=slices {
        cluster.run_for(SLICE);
        let (snap, cpu) = (snapshot(&cluster), live_threads_cpu_s());
        if let Some(d) = counter_delta(&prev, &snap, names::DELIVERIES, &[]).filter(|&d| d > 0) {
            cpu_us_per_delivery.push((cpu - prev_cpu) * 1e6 / d as f64);
        }
        if slice == slices - SETTLE_SLICES {
            snap1 = snap.clone();
        }
        (prev, prev_cpu) = (snap, cpu);
    }
    let (snap2, cpu_s, wall_s) = (prev, prev_cpu - cpu0, wall0.elapsed().as_secs_f64());
    let allocs = alloc::allocations() - allocs0;
    alloc::set_counting(false);
    let window = AdmissionWindow::new(
        ms0.as_millis(),
        cluster.elapsed().as_millis(),
        (SLICE * SETTLE_SLICES as u32).as_millis() as u64,
    );
    let metrics = cluster.stop();

    let (all, orphans) = broadcasts(&metrics);
    let o = Outcomes::judge(all, N_NODES, window);
    let total = |name: &str| counter_delta(&snap0, &snap2, name, &[]);
    let refused = counter_delta(&snap0, &snap1, names::OFFERS_REFUSED, &[]);
    let deliveries = total(names::DELIVERIES);
    let frames = total(names::MESSAGES_SENT);
    let bytes = total(names::BYTES_SENT);
    let per_delivery_f = |v: Option<u64>| per_delivery(v?, deliveries?);

    report.check(orphans == 0, || {
        format!("{orphans} delivery records belong to no admitted broadcast")
    });
    report.check(o.admitted > 0, || {
        "no broadcast was admitted in the window".into()
    });
    report.check(
        counter(&snap2, names::DECODE_ERRORS, &[]) == Some(0),
        || {
            format!(
                "decode errors without an adversary: {:?}",
                counter(&snap2, names::DECODE_ERRORS, &[])
            )
        },
    );
    report.check(refused.is_some(), || {
        "agb_offers_refused_total is not registered".into()
    });
    report.notes.push(format!(
        "set-up samples {} | judged window {:.1} s | judged broadcasts {} (atomic {}) | refused {:?} | deliveries {:?}",
        setup_s.len(),
        window.seconds(),
        o.admitted,
        o.atomic,
        refused,
        deliveries
    ));
    report.notes.push(format!(
        "cpu us per delivery by one-second slice: {:.1?}",
        cpu_us_per_delivery
    ));
    let ops = o.ops();
    report.attempted = ops.attempted;
    report.failed = ops.failed;

    if !trace {
        report.opt(
            "node_rounds_per_s",
            "1/s",
            total(names::ROUNDS).map(|r| r as f64 / wall_s),
            "agb_rounds_total is not registered",
        );
        report.num("setup_s", "s", median(&setup_s).expect("set-up samples"));
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
        report.opt(
            "frames_per_delivery",
            "frames",
            per_delivery_f(frames),
            "no deliveries",
        );
        report.opt(
            "cpu_us_per_delivery",
            "us",
            median(&cpu_us_per_delivery),
            "no deliveries",
        );
        report.num(
            "goodput_msgs_per_s",
            "1/s",
            o.atomic as f64 / window.seconds(),
        );
        return Ok(report);
    }

    let window_s = window.seconds();
    let rate = |v: Option<u64>| v.map(|v| v as f64 / wall_s);
    let mean_us = |name: &str| {
        histogram_delta(&snap0, &snap2, name)
            .and_then(|(count, sum)| (count > 0).then(|| sum / count as f64 * 1e6))
    };
    let rounds = total(names::ROUNDS);
    report.opt(
        "alloc.per_round",
        "allocs",
        rounds
            .filter(|&r| r > 0)
            .map(|r| allocs as f64 / (r as f64 / N_NODES as f64)),
        "agb_rounds_total is not registered",
    );
    for (metric, cause) in [
        ("core.drops_age", "age"),
        ("core.drops_size", "size"),
        ("core.drops_congestion", "congestion"),
    ] {
        report.opt(
            metric,
            "1/s",
            counter_delta(&snap0, &snap2, names::DROPS, &[("cause", cause)])
                .map(|v| v as f64 / wall_s),
            "agb_drops_total is not registered for this cause",
        );
    }
    report.num(
        "core.allowed_rate_msgs_per_s",
        "1/s",
        metrics
            .allowed()
            .aggregate_at(TimeMs::from_millis(window.until_ms)),
    );
    let recovery = |kind| counter_delta(&snap0, &snap2, names::RECOVERY_EVENTS, &[("kind", kind)]);
    for (metric, kind) in [
        ("recovery.recovered_per_delivery", "recovered"),
        ("recovery.duplicates_per_delivery", "duplicate"),
    ] {
        report.opt(
            metric,
            "events",
            recovery(kind)
                .zip(deliveries)
                .and_then(|(r, d)| per_delivery(r, d)),
            "agb_recovery_events_total or agb_deliveries_total is not registered",
        );
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.num(
        "process.cpu_util",
        "fraction",
        cpu_s / (wall_s * nproc as f64),
    );

    // Runtime-only figures: printed, but not part of the result, whose
    // per-layer metrics every workload reports.
    report.info(
        "runtime.loop_iter_us_mean",
        "us",
        mean_us(names::LOOP_ITERATION_SECONDS),
        "agb_loop_iteration_seconds is not registered",
    );
    report.info(
        "runtime.egress_dwell_us_mean",
        "us",
        mean_us(names::EGRESS_DWELL_SECONDS),
        "agb_egress_dwell_seconds is not registered",
    );
    report.info(
        "runtime.offers_refused",
        "1/s",
        refused.map(|r| r as f64 / window_s),
        "agb_offers_refused_total is not registered",
    );
    report.info(
        "runtime.offer_shortfall",
        "fraction",
        refused.map(|r| 1.0 - (o.admitted + r) as f64 / (OFFERED_RATE * window_s)),
        "agb_offers_refused_total is not registered",
    );
    report.info(
        "transport.frames_sent",
        "1/s",
        rate(frames),
        "agb_messages_sent_total is not registered",
    );
    report.info(
        "transport.bytes_sent",
        "B/s",
        rate(bytes),
        "agb_bytes_sent_total is not registered",
    );
    report.info(
        "transport.bytes_per_delivery",
        "B",
        per_delivery_f(bytes),
        "agb_bytes_sent_total is not registered",
    );
    for (metric, name) in [
        ("transport.send_errors", names::SEND_ERRORS),
        ("transport.send_retries", names::SEND_RETRIES),
        ("runtime.sheds", names::SHEDS),
        ("wire.decode_errors", names::DECODE_ERRORS),
    ] {
        report.info(
            metric,
            "count",
            total(name).map(|v| v as f64),
            &format!("{name} is not registered"),
        );
    }
    report.info(
        "runtime.duplicate_ratio",
        "fraction",
        total(names::DUPLICATES).and_then(|dups| Some(dups as f64 / deliveries? as f64)),
        "agb_duplicates_total is not registered by the runtime",
    );

    // The protocol layers inside the node threads take no wrappers, so
    // their split comes from the same nodes and parameters replayed on
    // the simulator.
    sim::trace_layers(&replay(), seed, &mut report);
    match bytes
        .zip(frames)
        .and_then(|(b, f)| (f > 0).then(|| b as f64 / f as f64))
    {
        Some(size) => wire::report_legs(&mut report, &wire::frame_of_size(size))?,
        None => report.check(false, || "no frame was sent".into()),
    }
    Ok(report)
}
