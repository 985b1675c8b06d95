//! `dense_node`: one host with ~1000 vCPUs at 2:1 oversubscription
//! carrying the trace workload mix. Each period runs
//! `SimHost::advance_period` and then `Controller::iterate_into`.

use crate::probes::{stage_durations, STAGES};
use crate::spans::Tracer;
use crate::stats::{best_of_repeats, ratio, Metric};
use crate::util::{class_workload, draw_template, nproc, sum_family, Digest};
use crate::{drive_episodes, Output, RunConfig, Tier};
use std::fmt::Write as _;
use std::time::Instant;
use vfc_controller::{Controller, ControllerConfig, IterationReport, ShardCount};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{MHz, SplitMix64};
use vfc_vmm::SimHost;

/// Shape of the dense node.
#[derive(Debug, Clone, Copy)]
pub struct DenseParams {
    /// vCPUs to host (the node has half as many hardware threads).
    pub vcpus: u32,
    /// Periods run while building the starting state.
    pub warmup: usize,
    /// Timed periods per episode.
    pub periods: usize,
}

impl DenseParams {
    /// The tier's size.
    pub fn new(tier: Tier) -> DenseParams {
        match tier {
            Tier::Full => DenseParams {
                vcpus: 1000,
                warmup: 10,
                periods: 100,
            },
            Tier::Quick => DenseParams {
                vcpus: 100,
                warmup: 3,
                periods: 10,
            },
        }
    }

    /// `ShardCount::Auto`'s choice for this host, capped at the cores
    /// this process may use.
    pub fn shards(&self) -> u32 {
        ShardCount::Auto
            .effective(self.vcpus)
            .min(nproc() as u32)
            .max(1)
    }
}

/// The `vfc_bench::dense_host` shape — `vcpus / 2` hardware threads —
/// filled with trace-mix VMs, a paper-default controller, warmed up.
fn build(p: &DenseParams, seed: u64) -> (SimHost, Controller, IterationReport) {
    let spec = NodeSpec::custom("dense", 1, (p.vcpus / 4).max(1), 2, MHz(2400));
    let mut host = SimHost::new(spec, seed);
    let mut rng = SplitMix64::new(seed);
    let mut hosted = 0;
    while hosted < p.vcpus {
        let t = draw_template(&mut rng);
        let vm = host.provision(&t);
        host.attach_workload(vm, class_workload(&t.name, rng.next_u64()));
        hosted += t.vcpus;
    }
    let mut cfg = ControllerConfig::paper_defaults();
    cfg.shard_count = ShardCount::Fixed(p.shards());
    let mut ctl = Controller::new(cfg, host.topology_info());
    let mut report = IterationReport::default();
    for _ in 0..p.warmup {
        host.advance_period();
        ctl.iterate_into(&mut host, &mut report)
            .expect("the simulated backend does not fail");
    }
    (host, ctl, report)
}

/// The episode's output: final credits and the last iteration's caps.
fn digest(report: &IterationReport) -> String {
    let mut text = String::new();
    for (vm, credit) in &report.credits {
        let _ = write!(text, "{vm:?}={credit};");
    }
    for v in &report.vcpus {
        let _ = write!(text, "{:?}={};", v.addr, v.alloc.as_u64());
    }
    Digest::default().update(text.as_bytes()).hex()
}

/// Run `dense_node` for the configured window.
pub fn run(cfg: &RunConfig) -> Output {
    let p = DenseParams::new(cfg.tier);
    let mut out = Output {
        params: vec![
            ("vcpus", p.vcpus.to_string()),
            ("hw_threads", (p.vcpus / 2).to_string()),
            ("warmup_periods", p.warmup.to_string()),
            ("periods_per_episode", p.periods.to_string()),
            ("shards", p.shards().to_string()),
        ],
        ..Output::default()
    };
    let mut tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let (mut iter_ms, mut period_ms, mut periods_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut adv_us, mut stage_us, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_iter_us = Vec::new();
    let mut last_ctl = None;

    let walls = drive_episodes(cfg, |_, traced| {
        let t = Instant::now();
        let (mut host, mut ctl, mut report) = build(&p, cfg.seed);
        setup_s.push(t.elapsed().as_secs_f64());
        tracer.set_on(traced);
        let episode = tracer.begin("bench.episode", None);
        let mut inside_ns = 0.0;
        for _ in 0..p.periods {
            let span = tracer.begin("vmm.advance_period", episode.id());
            host.advance_period();
            let adv = tracer.end(span);
            let span = tracer.begin("controller.iterate_into", episode.id());
            ctl.iterate_into(&mut host, &mut report)
                .expect("the simulated backend does not fail");
            let iter = tracer.end(span);
            if traced {
                adv_us.push(adv.as_nanos() as f64 / 1e3);
                traced_iter_us.push(iter.as_nanos() as f64 / 1e3);
                stage_us.push(stage_durations(&report));
                inside_ns += (adv + iter).as_nanos() as f64;
            } else {
                iter_ms.push(iter.as_nanos() as f64 / 1e6);
                period_ms.push((adv + iter).as_nanos() as f64 / 1e6);
            }
        }
        let wall = tracer.end(episode);
        tracer.set_on(false);
        out.attempted += p.periods as u64;
        out.digests.push(digest(&report));
        if traced {
            unattributed.push(1.0 - inside_ns / wall.as_nanos() as f64);
            last_ctl = Some(ctl);
        } else {
            periods_per_s.push(p.periods as f64 / wall.as_secs_f64());
        }
        wall
    });

    // Every episode runs the same periods: time each period by its
    // fastest run (see `best_of_repeats`).
    let iter_ms = best_of_repeats(&iter_ms, p.periods);
    let period_ms = best_of_repeats(&period_ms, p.periods);
    let best_periods_per_s = p.periods as f64 * 1e3 / period_ms.iter().sum::<f64>();
    out.end_to_end = vec![
        Metric::median("setup_s", "s", &setup_s),
        Metric::single("throughput_per_s", "1/s", best_periods_per_s),
        Metric::median("latency_ms.p50", "ms", &iter_ms),
        Metric::median("ready_ms.p50", "ms", &period_ms),
    ];
    let iter_us: Vec<f64> = iter_ms.iter().map(|ms| ms * 1e3).collect();
    out.named = vec![
        Metric::median("setup_s", "s", &setup_s),
        Metric::single("node_periods_per_s", "periods/s", best_periods_per_s),
        Metric::median("episode_periods_per_s", "periods/s", &periods_per_s),
    ];
    out.named
        .extend(Metric::p50_p95("ctl_iter_us", "us", &iter_us));
    out.named
        .extend(Metric::p50_p95("node_period_ms", "ms", &period_ms));

    if let Some(ctl) = last_ctl {
        let page = ctl.telemetry().render_prometheus();
        let writes = sum_family(&page, "vfc_cap_writes_total");
        let elided = sum_family(&page, "vfc_cap_writes_elided_total");
        let adv = Metric::median("vmm.advance_period_us", "us", &adv_us);
        out.layers = vec![
            Metric::single(
                "vmm.advance_period_us_per_vcpu",
                "us",
                adv.value / p.vcpus as f64,
            ),
            adv,
            Metric::median("controller.iterate_us", "us", &traced_iter_us),
            Metric::single("controller.cap_writes", "count", writes),
            Metric::single(
                "controller.cap_writes_elided_frac",
                "fraction",
                ratio(elided, writes + elided),
            ),
            Metric::median("bench.unattributed_frac", "fraction", &unattributed),
            Metric::single(
                "bench.trace_overhead_frac",
                "fraction",
                walls.trace_overhead_frac(),
            ),
            Metric::single("bench.episodes", "count", walls.count() as f64),
            Metric::single("bench.spans", "count", tracer.spans().len() as f64),
        ];
        for (i, stage) in STAGES.iter().enumerate() {
            let s: Vec<f64> = stage_us.iter().map(|row| row[i]).collect();
            out.layers
                .push(Metric::median(&format!("controller.{stage}_us"), "us", &s));
        }
        out.tracer = Some(tracer);
    }
    out
}
