//! Isolated layer probes. Work that happens inside
//! `EventDrivenCluster::run_until` has no public entry point, so the
//! trace workloads price it with these probes — each batched so that
//! no timing falls below the clock's resolution — and multiply by the
//! replay's counts.

use crate::stats::Summary;
use crate::util::{class_workload, draw_template};
use std::hint::black_box;
use std::time::Instant;
use vfc_cluster::NodeLoad;
use vfc_controller::{Controller, ControllerConfig, IterationReport};
use vfc_cpusched::topology::NodeSpec;
use vfc_placement::ResidualIndex;
use vfc_simcore::{EventQueue, SplitMix64};
use vfc_vmm::SimHost;

/// Batches per probe; each batch yields one ns-per-operation sample.
const BATCHES: usize = 15;

/// Time `ops` calls of `op` per batch, [`BATCHES`] times; ns per call.
fn batched(ops: usize, mut op: impl FnMut(usize)) -> Summary {
    let mut per_op = Vec::with_capacity(BATCHES);
    let mut i = 0;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..ops {
            op(i);
            i += 1;
        }
        per_op.push(start.elapsed().as_nanos() as f64 / ops as f64);
    }
    Summary::of(&per_op)
}

/// One `schedule` + one `pop` on an [`EventQueue`] holding `depth`
/// events, ns per pair.
pub fn queue_push_pop_ns(depth: usize, seed: u64) -> Summary {
    let depth = depth.max(1);
    let span = depth as u64 * 8;
    let mut rng = SplitMix64::new(seed);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for i in 0..depth {
        queue.schedule(rng.next_below(span), i as u64);
    }
    batched(20_000, |_| {
        let ev = queue.pop().expect("the probe keeps the queue at depth");
        let next = ev.time + 1 + rng.next_below(span);
        queue.schedule(next, black_box(ev.event));
    })
}

/// A residual index over the fleet as `loads` leaves it: Eq. 7 free MHz
/// per node, or — for the packing regime — free vCPU slots at the
/// consolidation `factor`.
fn fleet_index(loads: &[NodeLoad], pack_factor: Option<f64>) -> ResidualIndex {
    let mut index = ResidualIndex::new(loads.len());
    for (slot, l) in loads.iter().enumerate() {
        let units = match pack_factor {
            None => l.capacity_mhz.saturating_sub(l.used_mhz),
            Some(f) => ((l.threads as f64 * f) as u64).saturating_sub(l.used_vcpus),
        };
        index.set(slot, units, l.mem_gb.saturating_sub(l.used_mem_gb));
    }
    index
}

/// Best-fit queries and single-slot updates on the fleet's residual
/// index, ns per call: `(query, update)`.
pub fn index_ns(loads: &[NodeLoad], pack_factor: Option<f64>, seed: u64) -> (Summary, Summary) {
    let mut index = fleet_index(loads, pack_factor);
    let mut rng = SplitMix64::new(seed);
    let demands: Vec<(u64, u64)> = (0..1024)
        .map(|_| {
            let t = draw_template(&mut rng);
            let units = match pack_factor {
                None => t.freq_demand_mhz(),
                Some(_) => t.vcpus as u64,
            };
            (units, t.mem_gb as u64)
        })
        .collect();
    let query = batched(20_000, |i| {
        let (units, mem) = demands[i % demands.len()];
        black_box(index.best_fit(black_box(units), mem, None));
    });
    let n = index.len().max(1);
    let update = batched(20_000, |i| {
        let (units, mem) = demands[i % demands.len()];
        index.set(i % n, black_box(units * 2), mem * 4);
    });
    (query, update)
}

/// What one node costs per period at a given residency.
pub struct HostProbe {
    /// vCPUs hosted by the probe node.
    pub vcpus: u32,
    /// `SimHost::advance_period`, µs.
    pub advance_us: Summary,
    /// `Controller::iterate_into`, µs (`None` without a controller).
    pub iterate_us: Option<Summary>,
    /// Per-stage timings of the probe's iterations, µs, in pipeline
    /// order: monitor, estimate, enforce, auction, distribute, apply.
    pub stages_us: [Summary; 6],
}

/// Build a trace node with trace-mix VMs up to `vcpus` and time
/// `periods` periods of it, with the paper's controller when
/// `controlled` (the Eq. 7 regimes) and uncapped otherwise (packing).
pub fn host_period(vcpus: u64, controlled: bool, periods: usize, seed: u64) -> HostProbe {
    let mut host = SimHost::new(
        NodeSpec::custom("trace", 1, 4, 2, vfc_simcore::MHz(2400)),
        seed,
    );
    let mut rng = SplitMix64::new(seed ^ 0x9E37_79B9);
    let mut hosted = 0u64;
    while hosted < vcpus {
        let t = draw_template(&mut rng);
        let vm = host.provision(&t);
        host.attach_workload(vm, class_workload(&t.name, rng.next_u64()));
        hosted += t.vcpus as u64;
    }
    let mut ctl = controlled
        .then(|| Controller::new(ControllerConfig::paper_defaults(), host.topology_info()));
    let mut report = IterationReport::default();
    let (mut adv, mut iter) = (Vec::new(), Vec::new());
    let mut stages: [Vec<f64>; 6] = Default::default();
    for p in 0..periods + 10 {
        let t0 = Instant::now();
        host.advance_period();
        let t1 = Instant::now();
        if let Some(c) = ctl.as_mut() {
            c.iterate_into(&mut host, &mut report)
                .expect("the simulated backend does not fail");
        }
        let t2 = Instant::now();
        if p >= 10 {
            adv.push((t1 - t0).as_nanos() as f64 / 1e3);
            if ctl.is_some() {
                iter.push((t2 - t1).as_nanos() as f64 / 1e3);
                for (dst, d) in stages.iter_mut().zip(stage_durations(&report)) {
                    dst.push(d);
                }
            }
        }
    }
    HostProbe {
        vcpus: hosted as u32,
        advance_us: Summary::of(&adv),
        iterate_us: ctl.is_some().then(|| Summary::of(&iter)),
        stages_us: stages.map(|s| Summary::of(&s)),
    }
}

/// The six stage timings of one iteration, µs, in pipeline order.
pub fn stage_durations(report: &IterationReport) -> [f64; 6] {
    let t = &report.timings;
    [
        t.monitor,
        t.estimate,
        t.enforce,
        t.auction,
        t.distribute,
        t.apply,
    ]
    .map(|d| d.as_nanos() as f64 / 1e3)
}

/// Names of the six controller stages, in pipeline order.
pub const STAGES: [&str; 6] = [
    "monitor",
    "estimate",
    "enforce",
    "auction",
    "distribute",
    "apply",
];
