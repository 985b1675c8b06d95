//! Residual-index placement must be byte-identical to the linear scan.
//!
//! The O(log n) [`vfc_placement::index::ResidualIndex`] answers every
//! placement question in the cluster manager; the pre-index O(n) bin
//! scan over `ClusterManager::node_loads` is kept here as the oracle.
//! This proptest drives a manager through random deploy / undeploy /
//! resize / fault-period sequences (crashes and repairs flow through
//! `run_period`'s fault machinery) and, after every mutation, compares
//! the two answers for all three heuristics, a spread of probe sizes,
//! and both `exclude` modes. Any divergence — a different node, or one
//! side finding capacity the other misses — is a real placement bug,
//! not noise: both sides are deterministic functions of the bin state.

use proptest::prelude::*;
use vfc_cluster::Strategy as ClusterStrategy;
use vfc_cluster::{ClusterManager, FaultModel, GlobalVmId, NodeLoad};
use vfc_cpusched::topology::NodeSpec;
use vfc_placement::algo::PlacementAlgorithm;
use vfc_placement::{ConstraintMode, PlacementRequest};
use vfc_simcore::MHz;
use vfc_vmm::workload::SteadyDemand;
use vfc_vmm::VmTemplate;

#[derive(Debug, Clone)]
enum Op {
    /// Deploy template `t` (0=small 1=medium 2=large) with heuristic `a`.
    Deploy { t: u8, a: u8 },
    /// Undeploy the `k`-th still-live VM (no-op when none are live).
    Undeploy { k: u8 },
    /// Resize the `k`-th still-live VM to `mhz` (in-place or migrating).
    Resize { k: u8, mhz: u16 },
    /// Run one full period: fault draws may crash/repair nodes and
    /// evacuate VMs — the transitions the index must track exactly.
    Period,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored prop_oneof! is unweighted: repeat the deploy arm so
    // sequences skew toward fuller (more interesting) bins.
    prop_oneof![
        (0u8..3, 0u8..3).prop_map(|(t, a)| Op::Deploy { t, a }),
        (0u8..3, 0u8..3).prop_map(|(t, a)| Op::Deploy { t, a }),
        (0u8..64).prop_map(|k| Op::Undeploy { k }),
        (0u8..64, 300u16..2500).prop_map(|(k, mhz)| Op::Resize { k, mhz }),
        Just(Op::Period),
    ]
}

fn template(t: u8) -> VmTemplate {
    match t {
        0 => VmTemplate::small(),
        1 => VmTemplate::medium(),
        _ => VmTemplate::large(),
    }
}

fn algorithm(a: u8) -> PlacementAlgorithm {
    match a {
        0 => PlacementAlgorithm::FirstFit,
        1 => PlacementAlgorithm::BestFit,
        _ => PlacementAlgorithm::WorstFit,
    }
}

/// The admission constraint the manager places under for `strategy`.
fn constraint(strategy: ClusterStrategy) -> ConstraintMode {
    match strategy {
        ClusterStrategy::FrequencyControl | ClusterStrategy::FrequencyControlThrottleAware => {
            ConstraintMode::Frequency
        }
        ClusterStrategy::MigrationBased { factor, .. } => ConstraintMode::CoreCount { factor },
    }
}

/// The pre-index O(n) bin scan over `node_loads()`: the first, tightest
/// or loosest up node (lowest index on ties) whose memory and `mode`
/// residual both fit `request`.
fn place_linear(
    loads: &[NodeLoad],
    mode: ConstraintMode,
    algorithm: PlacementAlgorithm,
    request: &PlacementRequest,
    exclude: Option<usize>,
) -> Option<usize> {
    // (capacity, used, demand) in the mode's residual unit.
    let units = |n: &NodeLoad| match mode {
        ConstraintMode::CoreCount { factor } => (
            (n.threads as f64 * factor).floor() as u64,
            n.used_vcpus,
            request.vcpus as u64,
        ),
        ConstraintMode::Frequency => (n.capacity_mhz, n.used_mhz, request.freq_demand_mhz()),
        ConstraintMode::FrequencyFactor { factor } => (
            (n.capacity_mhz as f64 * factor).floor() as u64,
            n.used_mhz,
            request.freq_demand_mhz(),
        ),
    };
    let remaining = |n: &NodeLoad| {
        let (cap, used, _) = units(n);
        cap.saturating_sub(used)
    };
    let mut candidates = loads.iter().enumerate().filter(|(i, n)| {
        let (cap, used, demand) = units(n);
        Some(*i) != exclude
            && n.up
            && n.used_mem_gb + request.mem_gb as u64 <= n.mem_gb
            && used + demand <= cap
    });
    match algorithm {
        PlacementAlgorithm::FirstFit => candidates.next().map(|(i, _)| i),
        PlacementAlgorithm::BestFit => candidates
            .min_by_key(|(i, n)| (remaining(n), *i))
            .map(|(i, _)| i),
        PlacementAlgorithm::WorstFit => candidates
            .max_by_key(|(i, n)| (remaining(n), usize::MAX - *i))
            .map(|(i, _)| i),
    }
}

/// Probe the index against the linear oracle across heuristics, sizes
/// (fitting, tight, and impossible) and exclusions.
fn assert_index_matches_oracle(mgr: &ClusterManager, mode: ConstraintMode, ctx: &str) {
    let loads = mgr.node_loads();
    let probes = [
        PlacementRequest::new("p-small", 2, MHz(500), 4),
        PlacementRequest::new("p-medium", 4, MHz(1200), 8),
        PlacementRequest::new("p-large", 4, MHz(1800), 8),
        PlacementRequest::new("p-zero", 1, MHz(1), 0),
        PlacementRequest::new("p-huge", 64, MHz(2400), 1024),
    ];
    for algo in [
        PlacementAlgorithm::FirstFit,
        PlacementAlgorithm::BestFit,
        PlacementAlgorithm::WorstFit,
    ] {
        for probe in &probes {
            for exclude in [None, Some(0), Some(mgr.node_count() / 2)] {
                let oracle = place_linear(&loads, mode, algo, probe, exclude);
                let indexed = mgr.place_with_indexed(algo, probe, exclude);
                assert_eq!(
                    oracle, indexed,
                    "{ctx}: {algo:?} {} exclude {exclude:?}: linear {oracle:?} vs index {indexed:?}",
                    probe.template
                );
            }
        }
    }
}

fn run_sequence(strategy: ClusterStrategy, seed: u64, crash_rate: f64, ops: &[Op]) {
    let mut faults = FaultModel::none();
    faults.seed = seed;
    faults.node_crash_rate = crash_rate;
    faults.controller_crash_rate = crash_rate / 2.0;
    faults.repair_periods = 2;
    faults.evacuation_downtime_periods = 1;
    let specs: Vec<NodeSpec> = (0..10)
        .map(|i| {
            if i % 3 == 0 {
                NodeSpec::custom("idx-big", 1, 4, 2, MHz(2400))
            } else {
                NodeSpec::custom("idx-small", 1, 2, 2, MHz(2000))
            }
        })
        .collect();
    let mut mgr = ClusterManager::with_faults(specs, strategy, seed, faults);
    let mode = constraint(strategy);
    assert_index_matches_oracle(&mgr, mode, "fresh");
    let mut live: Vec<GlobalVmId> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Deploy { t, a } => {
                if let Ok(id) = mgr.try_deploy_with(
                    &template(*t),
                    Box::new(SteadyDemand::new(0.6)),
                    algorithm(*a),
                ) {
                    live.push(id);
                }
            }
            Op::Undeploy { k } => {
                if !live.is_empty() {
                    let id = live.remove(*k as usize % live.len());
                    let _ = mgr.undeploy(id);
                }
            }
            Op::Resize { k, mhz } => {
                if !live.is_empty() {
                    let id = live[*k as usize % live.len()];
                    let _ = mgr.resize_vfreq(id, MHz(*mhz as u32));
                }
            }
            Op::Period => mgr.run_period(),
        }
        live.retain(|id| mgr.is_deployed(*id));
        assert_index_matches_oracle(&mgr, mode, &format!("step {step} ({op:?})"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eq. 7 admission (residuals in MHz) with fault churn.
    #[test]
    fn index_matches_linear_under_eq7(
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec(op_strategy(), 1..32),
    ) {
        run_sequence(ClusterStrategy::FrequencyControl, seed, 0.05, &ops);
    }

    /// Core-count admission (residuals in vCPU slots), no controller.
    #[test]
    fn index_matches_linear_under_core_count(
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        run_sequence(ClusterStrategy::migration_default(), seed, 0.04, &ops);
    }
}
