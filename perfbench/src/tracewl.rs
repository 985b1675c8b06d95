//! `trace_eq7` and `trace_pack`: a synthetic VM-lifetime trace replayed
//! through `EventDrivenCluster::run_until`, one period per call.

use crate::probes::{self, STAGES};
use crate::spans::Tracer;
use crate::stats::{best_of_repeats, median, ratio, Metric, Summary};
use crate::util::{class_workload, sum_family, Digest};
use crate::{drive_episodes, Output, RunConfig, Tier, Workload};
use std::time::{Duration, Instant};
use vfc_cluster::{ClusterManager, EventDrivenCluster, Strategy, SyntheticTrace};
use vfc_cpusched::topology::NodeSpec;
use vfc_placement::algo::PlacementAlgorithm;
use vfc_simcore::MHz;

/// Shape of one replay.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Fleet size (trace nodes: 1 socket × 4 cores × 2 threads @ 2.4 GHz).
    pub nodes: usize,
    /// VMs in the synthetic trace.
    pub vms: usize,
    /// Arrival window and replay horizon, periods.
    pub horizon: u64,
    /// Migration-based packing instead of Eq. 7 with the controller.
    pub pack: bool,
}

impl TraceParams {
    /// The tier's size. The full tier keeps the 1,200-node `trace`
    /// experiment's VM density (55k VMs per 1,200 nodes per 600 s).
    pub fn new(tier: Tier, pack: bool) -> TraceParams {
        let (nodes, vms, horizon) = match tier {
            Tier::Full => (200, 1_833, 120),
            Tier::Quick => (16, 96, 40),
        };
        TraceParams {
            nodes,
            vms,
            horizon,
            pack,
        }
    }

    fn strategy(&self) -> Strategy {
        if self.pack {
            Strategy::migration_default()
        } else {
            Strategy::FrequencyControl
        }
    }

    /// The packing regime's vCPU overcommitment factor.
    fn pack_factor(&self) -> Option<f64> {
        match self.strategy() {
            Strategy::MigrationBased { factor, .. } => Some(factor),
            _ => None,
        }
    }
}

/// Build the cluster with the whole trace scheduled: the starting state.
fn build(p: &TraceParams, seed: u64) -> EventDrivenCluster {
    let trace = SyntheticTrace::new(p.vms, p.horizon, seed).generate();
    let fleet = vec![NodeSpec::custom("trace", 1, 4, 2, MHz(2400)); p.nodes];
    let mgr = ClusterManager::new(fleet, p.strategy(), seed);
    let mut cluster = EventDrivenCluster::new(mgr)
        .with_algorithm(PlacementAlgorithm::BestFit)
        .with_workloads(
            seed,
            Box::new(|_slot, template, rng| class_workload(&template.name, rng.next_u64())),
        );
    cluster.load_trace(trace);
    cluster
}

/// What one replay measured.
#[derive(Default)]
struct Replay {
    /// Wall of each `run_until(p)` call, ms.
    period_ms: Vec<f64>,
    wall: Duration,
    /// Largest queue depth seen between periods.
    max_depth: usize,
    /// Σ over periods of the busy-node fraction.
    active_frac_sum: f64,
    /// vCPUs of every busy node, sampled every 10 periods.
    residency: Vec<f64>,
}

fn replay(c: &mut EventDrivenCluster, p: &TraceParams, tracer: &mut Tracer) -> Replay {
    let mut r = Replay::default();
    let outer = tracer.begin("bench.replay", None);
    let started = Instant::now();
    for period in 1..=p.horizon {
        let span = tracer.begin("cluster.run_until", outer.id());
        c.run_until(period);
        r.period_ms.push(tracer.end(span).as_nanos() as f64 / 1e6);
        if tracer.is_on() {
            r.max_depth = r.max_depth.max(c.pending_events());
            r.active_frac_sum += c.manager().active_nodes() as f64 / p.nodes as f64;
            if period % 10 == 0 {
                r.residency.extend(
                    c.manager()
                        .node_loads()
                        .iter()
                        .filter(|l| l.used_vcpus > 0)
                        .map(|l| l.used_vcpus as f64),
                );
            }
        }
    }
    r.wall = started.elapsed();
    tracer.end(outer);
    r
}

/// The replay's output: the final `ClusterReport` and `EventStats`.
fn digest(c: &EventDrivenCluster) -> String {
    let report = serde_json::to_string(&c.report()).expect("ClusterReport serializes");
    let stats = serde_json::to_string(&c.stats()).expect("EventStats serializes");
    Digest::default()
        .update(report.as_bytes())
        .update(stats.as_bytes())
        .hex()
}

/// Run `trace_eq7` or `trace_pack` for the configured window.
pub fn run(cfg: &RunConfig) -> Output {
    let p = TraceParams::new(cfg.tier, cfg.workload == Workload::TracePack);
    let mut out = Output {
        params: vec![
            ("nodes", p.nodes.to_string()),
            ("vms", p.vms.to_string()),
            ("horizon_periods", p.horizon.to_string()),
            (
                "strategy",
                if p.pack { "pack-bf" } else { "eq7-bf" }.to_owned(),
            ),
            ("workers", crate::util::nproc().to_string()),
        ],
        ..Output::default()
    };
    let mut tracer = Tracer::new(false);
    let (mut setup_s, mut events_per_s) = (Vec::new(), Vec::new());
    let (mut period_ms, mut replay_ms) = (Vec::new(), Vec::new());
    let mut traced_replay: Option<(EventDrivenCluster, Replay)> = None;
    let mut violated = 0.0;
    let mut episode_events = 0;

    // Default worker count: one per available core.
    vfc_cluster::set_parallelism(0);
    let walls = drive_episodes(cfg, |_, traced| {
        let t = Instant::now();
        let mut c = build(&p, cfg.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.set_on(traced);
        let r = replay(&mut c, &p, &mut tracer);
        tracer.set_on(false);
        let events = c.stats().events_processed;
        episode_events = events;
        out.attempted += events;
        out.digests.push(digest(&c));
        violated = c.report().slo_overall;
        if !traced {
            events_per_s.push(events as f64 / r.wall.as_secs_f64());
            period_ms.extend_from_slice(&r.period_ms);
            replay_ms.push(r.wall.as_nanos() as f64 / 1e6);
        }
        let wall = r.wall;
        if traced {
            traced_replay = Some((c, r));
        }
        wall
    });

    // DESIGN.md §16: output is identical at any worker count.
    vfc_cluster::set_parallelism(1);
    let mut serial = build(&p, cfg.seed);
    let serial_wall = replay(&mut serial, &p, &mut Tracer::new(false)).wall;
    vfc_cluster::set_parallelism(0);
    out.attempted += serial.stats().events_processed;
    out.checks.push((
        "1-worker replay digest equals the parallel one".into(),
        out.digests.first() == Some(&digest(&serial)),
    ));

    // Every episode replays the same trace: time each period by its
    // fastest run (see `best_of_repeats`).
    let period_ms = best_of_repeats(&period_ms, p.horizon as usize);
    let best_replay_ms: f64 = period_ms.iter().sum();
    let best_events_per_s = episode_events as f64 * 1e3 / best_replay_ms;
    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setup_s),
        Metric::single("throughput_per_s", "1/s", best_events_per_s),
        Metric::median("latency_ms.p50", "ms", &period_ms),
        Metric::single("ready_ms.p50", "ms", best_replay_ms),
    ];
    out.named = vec![
        Metric::median("setup_s", "s", &setup_s),
        Metric::single("events_per_s", "events/s", best_events_per_s),
        Metric::median("episode_events_per_s", "events/s", &events_per_s),
        Metric::single("violated_vm_period_frac", "fraction", violated),
    ];
    out.named
        .extend(Metric::p50_p95("sim_period_ms", "ms", &period_ms));
    out.named
        .push(Metric::single("replay_ms", "ms", best_replay_ms));
    out.named
        .push(Metric::median("episode_replay_ms", "ms", &replay_ms));

    if let Some((c, r)) = traced_replay {
        out.layers = layers(&p, cfg.seed, &c, &r, serial_wall);
        if !p.pack {
            out.layers.extend(control_plane_probe(cfg));
        }
        out.layers.push(Metric::single(
            "bench.trace_overhead_frac",
            "fraction",
            walls.trace_overhead_frac(),
        ));
        out.layers.push(Metric::single(
            "bench.episodes",
            "count",
            walls.count() as f64,
        ));
        out.layers.push(Metric::single(
            "bench.spans",
            "count",
            tracer.spans().len() as f64,
        ));
        out.tracer = Some(tracer);
    }
    out
}

/// The control-plane, billing and telemetry layers, measured by one
/// traced `control_plane` episode. That workload is too unsteady on a
/// shared host to gate end to end, so the Eq. 7 replay's traced run
/// carries its layers.
fn control_plane_probe(cfg: &RunConfig) -> Vec<Metric> {
    let probe = crate::cplane::run(&RunConfig {
        workload: Workload::ControlPlane,
        seconds: 0.001,
        traced: true,
        ..cfg.clone()
    });
    probe
        .layers
        .into_iter()
        .filter(|m| {
            ["controlplane.", "billing.", "telemetry."]
                .iter()
                .any(|layer| m.name.starts_with(layer))
        })
        .collect()
}

/// Per-layer metrics of a traced replay. Work inside `run_until` is
/// priced by the isolated probes × the replay's counts, against the
/// 1-worker replay's wall so that parallel stepping does not hide it.
fn layers(
    p: &TraceParams,
    seed: u64,
    c: &EventDrivenCluster,
    r: &Replay,
    serial_wall: Duration,
) -> Vec<Metric> {
    let stats = c.stats();
    let report = c.report();
    let page = c.manager().telemetry_prometheus();
    let ctl_iterations = sum_family(&page, "vfc_iterations_total");
    let cap_writes = sum_family(&page, "vfc_cap_writes_total");
    let elided = sum_family(&page, "vfc_cap_writes_elided_total");
    let placements = stats.arrivals + report.migrations;

    let queue = probes::queue_push_pop_ns(r.max_depth, seed);
    let (query, update) = probes::index_ns(&c.manager().node_loads(), p.pack_factor(), seed);
    let residency = median(&r.residency).round() as u64;
    let host = probes::host_period(residency.max(1), !p.pack, 200, seed);
    let report_ms = {
        let t = Instant::now();
        for _ in 0..50 {
            std::hint::black_box(c.report());
        }
        t.elapsed().as_nanos() as f64 / 50.0 / 1e6
    };

    let iterate_us = host.iterate_us.map_or(0.0, |s| s.median);
    let attributed_ns = stats.node_periods as f64 * host.advance_us.median * 1e3
        + ctl_iterations * iterate_us * 1e3
        + stats.events_processed as f64 * queue.median
        + placements as f64 * (query.median + update.median)
        + report_ms * 1e6;
    let unattributed = 1.0 - attributed_ns / serial_wall.as_nanos() as f64;

    let from = |name: &str, unit: &'static str, s: Summary| Metric {
        name: name.to_owned(),
        unit,
        value: s.median,
        stats: s,
    };
    let mut m = vec![
        Metric::single("simcore.events", "count", stats.events_processed as f64),
        Metric::single("simcore.queue_depth.max", "count", r.max_depth as f64),
        from("simcore.push_pop_ns", "ns", queue),
        Metric::single("placement.placements", "count", placements as f64),
        from("placement.query_ns", "ns", query),
        from("placement.update_ns", "ns", update),
        Metric::single(
            "placement.rejected_frac",
            "fraction",
            ratio(report.rejected as f64, stats.arrivals as f64),
        ),
        from("vmm.advance_period_us", "us", host.advance_us),
        Metric::single(
            "vmm.advance_period_us_per_vcpu",
            "us",
            host.advance_us.median / host.vcpus.max(1) as f64,
        ),
        Metric::single("cluster.node_periods", "count", stats.node_periods as f64),
        Metric::single(
            "cluster.active_node_frac",
            "fraction",
            r.active_frac_sum / p.horizon as f64,
        ),
        Metric::single("cluster.migrations", "count", report.migrations as f64),
        Metric::single("cluster.landings", "count", stats.landings as f64),
        Metric::single("cluster.report_ms", "ms", report_ms),
        Metric::single("cluster.unattributed_frac", "fraction", unattributed),
        Metric::single("bench.unattributed_frac", "fraction", unattributed),
        Metric::single(
            "bench.serial_replay_ms",
            "ms",
            serial_wall.as_nanos() as f64 / 1e6,
        ),
    ];
    if let Some(iterate) = host.iterate_us {
        m.push(from("controller.iterate_us", "us", iterate));
        for (stage, s) in STAGES.iter().zip(host.stages_us) {
            m.push(from(&format!("controller.{stage}_us"), "us", s));
        }
        m.push(Metric::single("controller.cap_writes", "count", cap_writes));
        m.push(Metric::single(
            "controller.cap_writes_elided_frac",
            "fraction",
            ratio(elided, cap_writes + elided),
        ));
    }
    m
}
