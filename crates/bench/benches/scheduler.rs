//! Host engine cost: one 100 ms scheduling tick at several population
//! sizes (up to the dense 1,000-thread / 500-core host), and the
//! water-filling fair share in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use std::hint::black_box;
use vfc_cgroupfs::tree::{CgroupTree, ROOT};
use vfc_cpusched::engine::{Engine, TickOutcome};
use vfc_cpusched::fair::{water_fill, Entity};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{FastMap, MHz, Micros, Tid};

/// Tree of `vms` two-level scopes with `vcpus` single-thread leaves
/// each; thread `i` (0-based) demands `demand(i)`.
fn build(vms: u32, vcpus: u32, demand: fn(u32) -> Micros) -> (CgroupTree, FastMap<Tid, Micros>) {
    let mut tree = CgroupTree::new();
    let mut demands = FastMap::default();
    let mut tid = 100u32;
    for v in 0..vms {
        let scope = tree.mkdir(ROOT, &format!("vm{v}")).expect("fresh name");
        for j in 0..vcpus {
            let leaf = tree.mkdir(scope, &format!("vcpu{j}")).expect("fresh name");
            tree.attach_thread(leaf, Tid::new(tid));
            demands.insert(Tid::new(tid), demand(tid - 100));
            tid += 1;
        }
    }
    (tree, demands)
}

/// Time one warm `Engine::tick_into` of `vms × vcpus` threads.
fn tick_row(
    group: &mut BenchmarkGroup<'_>,
    id: BenchmarkId,
    spec: NodeSpec,
    (vms, vcpus): (u32, u32),
    demand: fn(u32) -> Micros,
) {
    group.bench_function(id, |b| {
        let mut engine = Engine::new(spec.clone(), 42);
        let (mut tree, demands) = build(vms, vcpus, demand);
        let mut out = TickOutcome::default();
        b.iter(|| {
            engine.tick_into(&mut tree, &demands, &mut out);
            black_box(&out);
        });
    });
}

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_tick");
    for (vms, vcpus) in [(10u32, 2u32), (30, 2), (30, 4), (60, 4)] {
        let id = BenchmarkId::new("saturated", format!("{}threads", vms * vcpus));
        tick_row(&mut group, id, NodeSpec::chetemi(), (vms, vcpus), |_| {
            Micros(100_000)
        });
    }
    // The `vfc_bench::dense_host` shape: 1,000 vCPUs on 500 hardware
    // threads. Uneven demands (20–100 ms, 1.2× the node's capacity in
    // total) give uneven grants, so threads overflow their sticky core
    // and spill onto the emptiest of 500 cores, as under the
    // controller's caps; equal grants would pack two per core and
    // never spill.
    let id = BenchmarkId::new("oversubscribed", "1000threads_500cores");
    let dense = NodeSpec::custom("dense", 1, 250, 2, MHz(2400));
    tick_row(&mut group, id, dense, (500, 2), |i| {
        Micros(20_000 + (i as u64 * 7_919) % 80_001)
    });
    group.finish();
}

fn bench_water_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("water_fill");
    for n in [10usize, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("entities", n), &n, |b, &n| {
            let entities: Vec<Entity> = (0..n)
                .map(|i| Entity::new(100, 10_000 + (i as u64 * 7919) % 90_000))
                .collect();
            b.iter(|| black_box(water_fill(black_box(1_000_000), &entities)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tick, bench_water_fill);
criterion_main!(benches);
