//! A warm [`SimHost::tick`] performs **zero heap allocations** on a
//! dense host: 1,000 vCPUs on 500 hardware threads, the shape of the
//! `dense_node` benchmark. Demands, the engine's fair-share and
//! placement scratch, and the tick outcome all live in buffers reused
//! across ticks; a counting `#[global_allocator]` (per-thread, so
//! parallel tests do not pollute the measurement) proves it.
//!
//! The workloads emit no events: event delivery allocates by design
//! (each event carries the VM's name).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vfc_cgroupfs::backend::HostBackend;
use vfc_cgroupfs::model::CpuMax;
use vfc_cpusched::engine::{CacheModel, Engine};
use vfc_cpusched::topology::NodeSpec;
use vfc_simcore::{MHz, Micros, VcpuId};
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::{SimHost, VmTemplate};

// ---- counting allocator ------------------------------------------------

struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so allocations during TLS teardown never panic.
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

fn thread_alloc_events() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---- the dense host ----------------------------------------------------

#[test]
fn warm_dense_host_tick_allocates_nothing() {
    // 250 cores × 2 hardware threads, 500 two-vCPU VMs.
    let spec = NodeSpec::custom("dense", 1, 250, 2, MHz(2400));
    let mut host = SimHost::new(spec, 42);
    for i in 0..500u32 {
        let vm = host.provision(&VmTemplate::new("dense", 2, MHz(600)));
        // Saturating, partial (spills past its sticky core) and idle
        // (wanders between cores) guests.
        let demand = match i % 4 {
            0 | 1 => SteadyDemand::full(),
            2 => SteadyDemand::new(0.35),
            _ => SteadyDemand::new(0.0),
        };
        host.attach_workload(vm, Box::new(demand));
        if i % 5 == 0 {
            // Some capped vCPUs, so throttling is accounted too.
            host.set_vcpu_max(vm, VcpuId::new(0), CpuMax::limited(Micros(30_000)))
                .expect("fresh vCPU");
        }
    }

    // Past the telemetry ring's first bulk drain (128 ticks), every
    // reused buffer has reached its steady capacity.
    for _ in 0..14 {
        host.advance_period();
    }

    for _ in 0..10 {
        let before = thread_alloc_events();
        host.tick();
        let after = thread_alloc_events();
        assert_eq!(
            after - before,
            0,
            "a warm SimHost::tick must not touch the allocator"
        );
    }
    assert!(host.utilization() > 0.99, "the dense host is saturated");
    assert!(host.drain_events().is_empty());
}

/// The LLC contention model's per-tick walk over the VM scopes reuses
/// the engine's scratch too.
#[test]
fn warm_tick_with_the_cache_model_allocates_nothing() {
    let spec = NodeSpec::custom("llc", 1, 4, 2, MHz(2400));
    let engine = Engine::new(spec.clone(), 7).with_cache_model(CacheModel::mild());
    let mut host = SimHost::new(spec, 7).with_engine(engine);
    for i in 0..6u32 {
        let vm = host.provision(&VmTemplate::new("llc", 2, MHz(600)));
        host.attach_workload(vm, Box::new(SteadyDemand::new(i as f64 / 5.0)));
    }
    for _ in 0..14 {
        host.advance_period();
    }

    for _ in 0..10 {
        let before = thread_alloc_events();
        host.tick();
        let after = thread_alloc_events();
        assert_eq!(
            after - before,
            0,
            "the cache model must not touch the allocator"
        );
    }
}
