//! Placement algorithms: First-Fit, Best-Fit, Worst-Fit.

use crate::constraint::ConstraintMode;
use crate::index::ResidualIndex;
use crate::model::{NodeBin, PlacementRequest};
use serde::{Deserialize, Serialize};
use vfc_cpusched::topology::NodeSpec;

/// Bin-packing heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementAlgorithm {
    /// First node (in cluster order) that fits.
    FirstFit,
    /// Feasible node with the *least* remaining capacity (tightest fit).
    BestFit,
    /// Feasible node with the *most* remaining capacity.
    WorstFit,
}

/// Outcome of placing a workload on a cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementResult {
    /// Final state of every node, in cluster order.
    pub nodes: Vec<NodeBin>,
    /// Node index per request, in request order; `None` = unplaceable.
    pub assignments: Vec<Option<usize>>,
    /// Requests that fit nowhere.
    pub unplaced: usize,
}

impl PlacementResult {
    /// Number of nodes hosting at least one VM.
    pub fn nodes_used(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_used()).count()
    }

    /// Highest per-node instance count of a template, with the node's
    /// family name — the paper reports e.g. "48 small VMs on a chetemi".
    pub fn max_per_node(&self, template: &str) -> Option<(usize, String)> {
        self.nodes
            .iter()
            .map(|n| (n.count_of(template), n.spec.name.clone()))
            .max_by_key(|(c, _)| *c)
            .filter(|(c, _)| *c > 0)
    }

    /// Mean frequency-capacity utilization over the *used* nodes.
    pub fn mean_used_utilization(&self) -> f64 {
        let used: Vec<&NodeBin> = self.nodes.iter().filter(|n| n.is_used()).collect();
        if used.is_empty() {
            0.0
        } else {
            used.iter().map(|n| n.freq_utilization()).sum::<f64>() / used.len() as f64
        }
    }
}

/// A configured placer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Placer {
    /// Bin-packing heuristic in use.
    pub algorithm: PlacementAlgorithm,
    /// Feasibility rule in use.
    pub mode: ConstraintMode,
}

impl Placer {
    /// Combine a heuristic with a constraint.
    pub fn new(algorithm: PlacementAlgorithm, mode: ConstraintMode) -> Self {
        Placer { algorithm, mode }
    }

    /// Place every request, in order, onto the cluster, answering each
    /// through a [`ResidualIndex`] over the bins.
    pub fn place(&self, cluster: &[NodeSpec], requests: &[PlacementRequest]) -> PlacementResult {
        let mut nodes: Vec<NodeBin> = cluster.iter().cloned().map(NodeBin::new).collect();
        let mut index = ResidualIndex::new(nodes.len());
        for (i, bin) in nodes.iter().enumerate() {
            index.set_bin(i, &self.mode, bin);
        }
        let assignments: Vec<Option<usize>> = requests
            .iter()
            .map(|vm| {
                let i = index.select(self.algorithm, &self.mode, vm, None)?;
                nodes[i].place(vm);
                index.set_bin(i, &self.mode, &nodes[i]);
                Some(i)
            })
            .collect();
        let unplaced = assignments.iter().filter(|a| a.is_none()).count();
        PlacementResult {
            nodes,
            assignments,
            unplaced,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vfc_simcore::MHz;

    fn small() -> PlacementRequest {
        PlacementRequest::new("small", 2, MHz(500), 1)
    }

    fn large() -> PlacementRequest {
        PlacementRequest::new("large", 4, MHz(1800), 1)
    }

    fn two_node_cluster() -> Vec<NodeSpec> {
        vec![NodeSpec::chetemi(), NodeSpec::chiclet()]
    }

    #[test]
    fn first_fit_uses_cluster_order() {
        let placer = Placer::new(PlacementAlgorithm::FirstFit, ConstraintMode::Frequency);
        let result = placer.place(&two_node_cluster(), &[small(), small()]);
        assert_eq!(result.assignments, vec![Some(0), Some(0)]);
        assert_eq!(result.nodes_used(), 1);
        assert_eq!(result.unplaced, 0);
    }

    #[test]
    fn best_fit_prefers_the_tighter_node() {
        // chetemi (96 000 MHz) is tighter than chiclet (153 600): BestFit
        // fills chetemi first even if chiclet is listed first.
        let cluster = vec![NodeSpec::chiclet(), NodeSpec::chetemi()];
        let placer = Placer::new(PlacementAlgorithm::BestFit, ConstraintMode::Frequency);
        let result = placer.place(&cluster, &[small()]);
        assert_eq!(result.assignments, vec![Some(1)]);
    }

    #[test]
    fn worst_fit_prefers_the_emptier_node() {
        let cluster = vec![NodeSpec::chetemi(), NodeSpec::chiclet()];
        let placer = Placer::new(PlacementAlgorithm::WorstFit, ConstraintMode::Frequency);
        let result = placer.place(&cluster, &[small(), small()]);
        // Both land on chiclet: after one small, chiclet still has more
        // remaining than chetemi.
        assert_eq!(result.assignments, vec![Some(1), Some(1)]);
    }

    #[test]
    fn overflow_is_reported_unplaced() {
        let cluster = vec![NodeSpec::custom("nano", 1, 1, 1, MHz(2400))];
        let placer = Placer::new(PlacementAlgorithm::FirstFit, ConstraintMode::core_count());
        // nano has one thread: the 4-vCPU large can never fit.
        let result = placer.place(&cluster, &[large()]);
        assert_eq!(result.unplaced, 1);
        assert_eq!(result.assignments, vec![None]);
        assert_eq!(result.nodes_used(), 0);
    }

    #[test]
    fn frequency_constraint_needs_fewer_nodes_than_core_count() {
        // 60 smalls: core-count needs 120 vCPUs = 3 chetemi; frequency
        // needs 60 000 MHz = 1 chetemi.
        let cluster = vec![NodeSpec::chetemi(); 5];
        let requests: Vec<PlacementRequest> = (0..60).map(|_| small()).collect();
        let classic = Placer::new(PlacementAlgorithm::BestFit, ConstraintMode::core_count())
            .place(&cluster, &requests);
        let freq_aware = Placer::new(PlacementAlgorithm::BestFit, ConstraintMode::Frequency)
            .place(&cluster, &requests);
        assert_eq!(classic.nodes_used(), 3);
        assert_eq!(freq_aware.nodes_used(), 1);
        assert_eq!(classic.unplaced + freq_aware.unplaced, 0);
    }

    #[test]
    fn result_helpers() {
        let placer = Placer::new(PlacementAlgorithm::FirstFit, ConstraintMode::Frequency);
        let result = placer.place(&two_node_cluster(), &[small(), small(), large()]);
        let (count, family) = result.max_per_node("small").unwrap();
        assert_eq!(count, 2);
        assert_eq!(family, "chetemi");
        assert!(result.max_per_node("ghost").is_none());
        assert!(result.mean_used_utilization() > 0.0);
    }

    /// The linear First/Best/Worst-Fit scans `Placer::place` ran before
    /// it answered through `ResidualIndex`, kept as the oracle.
    fn place_by_scan(
        algorithm: PlacementAlgorithm,
        mode: ConstraintMode,
        cluster: &[NodeSpec],
        requests: &[PlacementRequest],
    ) -> Vec<Option<usize>> {
        let mut nodes: Vec<NodeBin> = cluster.iter().cloned().map(NodeBin::new).collect();
        let mut assignments = Vec::new();
        for vm in requests {
            let feasible = nodes
                .iter()
                .enumerate()
                .filter(|(_, bin)| mode.fits(bin, vm));
            let candidate = match algorithm {
                PlacementAlgorithm::FirstFit => feasible.map(|(i, _)| i).next(),
                PlacementAlgorithm::BestFit => feasible
                    .min_by_key(|(i, bin)| (mode.remaining(bin), *i))
                    .map(|(i, _)| i),
                PlacementAlgorithm::WorstFit => feasible
                    .max_by_key(|(i, bin)| (mode.remaining(bin), usize::MAX - *i))
                    .map(|(i, _)| i),
            };
            if let Some(i) = candidate {
                nodes[i].place(vm);
            }
            assignments.push(candidate);
        }
        assignments
    }

    fn arb_node() -> impl Strategy<Value = NodeSpec> {
        // Few distinct sizes, so equal-residual ties are common.
        (1u32..6, 1u32..3, 10u32..13, 2u32..9).prop_map(|(cores, threads, mhz, mem)| {
            let mut spec = NodeSpec::custom("n", 1, cores, threads, MHz(mhz * 200));
            spec.mem_gb = mem * 8;
            spec
        })
    }

    fn arb_request() -> impl Strategy<Value = PlacementRequest> {
        (1u32..5, 1u32..13, 1u32..17)
            .prop_map(|(vcpus, f, mem)| PlacementRequest::new("vm", vcpus, MHz(f * 200), mem))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_index_placer_matches_the_linear_scans(
            cluster in proptest::collection::vec(arb_node(), 1..24),
            requests in proptest::collection::vec(arb_request(), 0..80),
            algo_pick in 0u8..3,
            mode_pick in 0u8..3,
        ) {
            let algorithm = [
                PlacementAlgorithm::FirstFit,
                PlacementAlgorithm::BestFit,
                PlacementAlgorithm::WorstFit,
            ][algo_pick as usize];
            let mode = [
                ConstraintMode::Frequency,
                ConstraintMode::FrequencyFactor { factor: 1.2 },
                ConstraintMode::CoreCount { factor: 1.8 },
            ][mode_pick as usize];
            let got = Placer::new(algorithm, mode).place(&cluster, &requests);
            let want = place_by_scan(algorithm, mode, &cluster, &requests);
            prop_assert_eq!(&got.assignments, &want, "{:?} {:?}", algorithm, mode);
            let unplaced = want.iter().filter(|a| a.is_none()).count();
            prop_assert_eq!(got.unplaced, unplaced);
        }

        #[test]
        fn prop_placements_respect_the_constraint(
            n_small in 0usize..120,
            n_large in 0usize..60,
            algo_pick in 0u8..3,
            freq_mode in proptest::bool::ANY,
        ) {
            let algorithm = match algo_pick {
                0 => PlacementAlgorithm::FirstFit,
                1 => PlacementAlgorithm::BestFit,
                _ => PlacementAlgorithm::WorstFit,
            };
            let mode = if freq_mode {
                ConstraintMode::Frequency
            } else {
                ConstraintMode::core_count()
            };
            let cluster = vec![NodeSpec::chetemi(), NodeSpec::chiclet(), NodeSpec::chetemi()];
            let mut requests: Vec<PlacementRequest> = Vec::new();
            requests.extend((0..n_small).map(|_| small()));
            requests.extend((0..n_large).map(|_| large()));
            let result = Placer::new(algorithm, mode).place(&cluster, &requests);

            // Every used bin satisfies its constraint.
            for bin in &result.nodes {
                match mode {
                    ConstraintMode::Frequency => prop_assert!(
                        bin.used_freq_mhz() <= bin.spec.freq_capacity_mhz()
                    ),
                    ConstraintMode::FrequencyFactor { factor } => prop_assert!(
                        bin.used_freq_mhz() as f64
                            <= bin.spec.freq_capacity_mhz() as f64 * factor
                    ),
                    ConstraintMode::CoreCount { .. } => prop_assert!(
                        bin.used_vcpus() <= bin.spec.nr_threads() as u64
                    ),
                }
            }
            // Assignment bookkeeping is consistent.
            let placed: usize = result.assignments.iter().filter(|a| a.is_some()).count();
            prop_assert_eq!(placed + result.unplaced, requests.len());
            let in_bins: usize = result.nodes.iter().map(|n| n.placed.len()).sum();
            prop_assert_eq!(in_bins, placed);
        }
    }
}
