//! Thread count must be invisible in every event-core output.
//!
//! The same-instant node batch fans out across `vfc_simcore::fanout`
//! inside `ClusterManager::advance_node_set`; the determinism contract
//! (`events` module docs, DESIGN.md §16) promises that worker count
//! changes wall-clock only — journals, `ClusterReport`s and fault draws
//! stay byte-identical. This proptest replays the same random trace
//! serially (`set_parallelism(1)`) and with a forced 4-way split
//! (`set_parallelism(4)` — honoured even on a 1-core machine, so the
//! parallel code path is genuinely exercised in CI) and compares the
//! JSON-serialized reports, the event journals and the stats counters
//! byte for byte.
//!
//! `set_parallelism` is process-global, so every test in this binary
//! serializes on one mutex and restores the default on exit.

use std::sync::Mutex;

use proptest::prelude::*;
use vfc_cluster::{
    set_parallelism, ClusterManager, EventDrivenCluster, EventStats, FaultModel, TraceVmSpec,
};
use vfc_cpusched::topology::NodeSpec;
use vfc_placement::algo::PlacementAlgorithm;
use vfc_simcore::MHz;
use vfc_vmm::workload::BurstyWeb;
use vfc_vmm::VmTemplate;

static PARALLELISM_LOCK: Mutex<()> = Mutex::new(());

/// One VM lifetime drawn by proptest: `(arrival, lifetime, template)`.
type SpecSeed = (u64, u64, u8);

fn trace_from(seeds: &[SpecSeed], horizon: u64) -> Vec<TraceVmSpec> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &(arrival, lifetime, t))| {
            let arrival = arrival % (horizon / 2).max(1);
            let template = match t % 3 {
                0 => VmTemplate::small(),
                1 => VmTemplate::medium(),
                _ => VmTemplate::large(),
            };
            TraceVmSpec {
                trace_id: format!("pv-{i}"),
                arrival,
                // `lifetime % horizon == 0` means the VM never departs
                // inside the run — keeps a standing busy set so the
                // PH_NODE batch stays > 4 nodes (the fan-out threshold).
                departure: match lifetime % horizon {
                    0 => None,
                    l => Some(arrival + l),
                },
                template,
            }
        })
        .collect()
}

/// Replay `trace` at the given worker count; return every observable.
fn replay(threads: usize, seed: u64, trace: Vec<TraceVmSpec>) -> (Vec<String>, String, EventStats) {
    set_parallelism(threads);
    let specs = vec![NodeSpec::custom("par", 1, 4, 2, MHz(2400)); 12];
    let mut faults = FaultModel::none();
    faults.seed = seed;
    faults.node_crash_rate = 0.01;
    faults.controller_crash_rate = 0.02;
    faults.migration_fail_rate = 0.2;
    faults.repair_periods = 3;
    faults.evacuation_downtime_periods = 2;
    let mgr =
        ClusterManager::with_faults(specs, vfc_cluster::Strategy::FrequencyControl, seed, faults);
    let mut cluster = EventDrivenCluster::new(mgr)
        .with_algorithm(PlacementAlgorithm::BestFit)
        .with_workloads(
            seed ^ 0xB0B5,
            Box::new(|slot, _t, rng| Box::new(BurstyWeb::new(rng.next_u64() ^ slot as u64))),
        );
    cluster.enable_journal();
    cluster.load_trace(trace);
    cluster.run_until(40);
    let journal = cluster.journal().expect("journal enabled").to_vec();
    let report = serde_json::to_string(&cluster.report()).expect("report serializes");
    (journal, report, cluster.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn serial_and_parallel_replays_are_byte_identical(
        seed in 0u64..u64::MAX,
        seeds in proptest::collection::vec((0u64..1_000_000, 0u64..1_000, 0u8..3), 16..40),
    ) {
        let _guard = PARALLELISM_LOCK.lock().unwrap();
        let trace = trace_from(&seeds, 40);
        let (j1, r1, s1) = replay(1, seed, trace.clone());
        let (j4, r4, s4) = replay(4, seed, trace);
        set_parallelism(0);
        prop_assert_eq!(&j1, &j4, "journals diverged between 1 and 4 workers");
        prop_assert_eq!(&r1, &r4, "reports diverged between 1 and 4 workers");
        prop_assert_eq!(s1, s4, "stats diverged between 1 and 4 workers");
        // The run must actually have processed node periods, or the
        // equivalence is vacuous.
        prop_assert!(s1.node_periods > 0);
    }
}

/// Deterministic smoke variant of the proptest: a packed fleet whose
/// standing batch covers all 12 nodes, so the >4-node fan-out is
/// guaranteed (not just likely) to run.
#[test]
fn forced_parallel_split_matches_serial_on_a_packed_fleet() {
    let _guard = PARALLELISM_LOCK.lock().unwrap();
    let trace: Vec<TraceVmSpec> = (0..24)
        .map(|i| TraceVmSpec {
            trace_id: format!("packed-{i}"),
            arrival: 0,
            departure: None,
            template: VmTemplate::large(),
        })
        .collect();
    let (j1, r1, s1) = replay(1, 0x00DE_C0DE, trace.clone());
    let (j8, r8, s8) = replay(8, 0x00DE_C0DE, trace);
    set_parallelism(0);
    assert_eq!(j1, j8);
    assert_eq!(r1, r8);
    assert_eq!(s1, s8);
    assert!(s1.node_periods as usize >= 12, "all nodes must stay busy");
}
