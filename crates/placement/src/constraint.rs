//! Placement feasibility constraints.

use crate::model::{NodeBin, PlacementRequest};
use serde::{Deserialize, Serialize};
use vfc_cpusched::topology::NodeSpec;

/// Which capacity rule decides whether a VM fits on a node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ConstraintMode {
    /// The classic rule: total vCPUs ≤ hardware threads × `factor`.
    /// `factor = 1.0` is no overcommitment; the paper's §IV.C compares
    /// against `factor = 1.8`.
    CoreCount {
        /// Overcommitment multiplier on the thread count.
        factor: f64,
    },
    /// The paper's core splitting constraint (Eq. 7):
    /// `Σ k^vCPU·F ≤ k^CPU·F^MAX`.
    Frequency,
    /// Eq. 7 with a consolidation factor on the right-hand side, the
    /// variant §III.C sketches ("multiply by 1.2 the number of available
    /// cores") while warning it "could lead in the loss of the guarantee
    /// of the vCPU frequency" — which `tests/placement_to_controller.rs`
    /// demonstrates.
    FrequencyFactor {
        /// Overcommitment multiplier on the frequency capacity.
        factor: f64,
    },
}

impl ConstraintMode {
    /// Classic constraint without overcommitment.
    pub fn core_count() -> Self {
        ConstraintMode::CoreCount { factor: 1.0 }
    }

    /// A node's capacity in this mode's unit: hardware threads ×
    /// factor under core-count (vCPU slots), `k^CPU·F^MAX` (× factor)
    /// MHz under the frequency modes — the right-hand side of Eq. 7.
    pub fn capacity(&self, spec: &NodeSpec) -> u64 {
        match self {
            ConstraintMode::CoreCount { factor } => {
                (spec.nr_threads() as f64 * factor).floor() as u64
            }
            ConstraintMode::Frequency => spec.freq_capacity_mhz(),
            ConstraintMode::FrequencyFactor { factor } => {
                (spec.freq_capacity_mhz() as f64 * factor).floor() as u64
            }
        }
    }

    /// What `vm` demands of that capacity: its vCPU count, or
    /// `k^vCPU·F` MHz (the left-hand side of Eq. 7).
    pub fn demand(&self, vm: &PlacementRequest) -> u64 {
        self.unit(vm.vcpus as u64, vm.freq_demand_mhz())
    }

    /// What `bin` already uses of that capacity.
    fn usage(&self, bin: &NodeBin) -> u64 {
        self.unit(bin.used_vcpus(), bin.used_freq_mhz())
    }

    /// This mode's unit out of a (vCPUs, MHz) pair.
    fn unit(&self, vcpus: u64, mhz: u64) -> u64 {
        match self {
            ConstraintMode::CoreCount { .. } => vcpus,
            ConstraintMode::Frequency | ConstraintMode::FrequencyFactor { .. } => mhz,
        }
    }

    /// Does `vm` fit on `bin` in addition to what is already there?
    /// Memory is always checked — the paper assumes it never binds, and
    /// with these workloads it doesn't, but the rule is cheap. Under
    /// Eq. 7 the aggregate check is sufficient: a single vCPU never
    /// needs more than one thread at F^MAX, since Eq. 2 clamps F to
    /// F^MAX.
    pub fn fits(&self, bin: &NodeBin, vm: &PlacementRequest) -> bool {
        bin.used_mem_gb() + vm.mem_gb as u64 <= bin.spec.mem_gb as u64
            && self.usage(bin) + self.demand(vm) <= self.capacity(&bin.spec)
    }

    /// Remaining capacity of a bin in this mode's unit (for Best/Worst
    /// Fit ranking): vCPU slots or MHz.
    pub fn remaining(&self, bin: &NodeBin) -> u64 {
        self.capacity(&bin.spec).saturating_sub(self.usage(bin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_simcore::MHz;

    fn small() -> PlacementRequest {
        // 2 GB so memory (256 GB) never binds before frequency in these
        // tests — `memory_always_binds` covers the memory rule.
        PlacementRequest::new("small", 2, MHz(500), 2)
    }

    fn large() -> PlacementRequest {
        PlacementRequest::new("large", 4, MHz(1800), 2)
    }

    #[test]
    fn core_count_limits_vcpus() {
        let mode = ConstraintMode::core_count();
        let mut bin = NodeBin::new(NodeSpec::chetemi()); // 40 threads
        for _ in 0..20 {
            assert!(mode.fits(&bin, &small()));
            bin.place(&small());
        }
        // 40 vCPUs used: nothing more fits without a factor.
        assert!(!mode.fits(&bin, &small()));
        // With a 1.8 consolidation factor, capacity is 72 vCPUs.
        let relaxed = ConstraintMode::CoreCount { factor: 1.8 };
        assert!(relaxed.fits(&bin, &small()));
    }

    #[test]
    fn frequency_mode_packs_beyond_the_core_count() {
        // The paper's §III.C point: a 2.4 GHz thread can carry several
        // low-frequency vCPUs. chetemi: 96 000 MHz capacity → 96 smalls
        // (192 vCPUs!) fit frequency-wise.
        let mode = ConstraintMode::Frequency;
        let mut bin = NodeBin::new(NodeSpec::chetemi());
        for _ in 0..96 {
            assert!(mode.fits(&bin, &small()));
            bin.place(&small());
        }
        assert!(!mode.fits(&bin, &small()));
        assert_eq!(bin.used_vcpus(), 192);
    }

    #[test]
    fn frequency_mode_respects_eq7_for_the_paper_mix() {
        // Table II mix exactly fills 92 000 of chetemi's 96 000 MHz.
        let mode = ConstraintMode::Frequency;
        let mut bin = NodeBin::new(NodeSpec::chetemi());
        for _ in 0..20 {
            assert!(mode.fits(&bin, &small()));
            bin.place(&small());
        }
        for _ in 0..10 {
            assert!(mode.fits(&bin, &large()));
            bin.place(&large());
        }
        assert_eq!(bin.used_freq_mhz(), 92_000);
        // 4 000 MHz left: another large (7 200) does not fit, a small
        // (1 000) does.
        assert!(!mode.fits(&bin, &large()));
        assert!(mode.fits(&bin, &small()));
    }

    #[test]
    fn frequency_factor_overcommits_eq7() {
        let strict = ConstraintMode::Frequency;
        let relaxed = ConstraintMode::FrequencyFactor { factor: 1.2 };
        let mut bin = NodeBin::new(NodeSpec::chetemi()); // 96 000 MHz
                                                         // Fill exactly to Eq. 7 with larges (13 × 7 200 = 93 600).
        for _ in 0..13 {
            bin.place(&large());
        }
        assert!(!strict.fits(&bin, &large()));
        // The 1.2 factor allows 115 200 MHz: exactly three more larges
        // (16 × 7 200 = 115 200).
        for _ in 0..3 {
            assert!(relaxed.fits(&bin, &large()));
            bin.place(&large());
        }
        assert_eq!(relaxed.remaining(&bin), 0);
        assert!(!relaxed.fits(&bin, &small()));
        assert!(!relaxed.fits(&bin, &large()));
    }

    #[test]
    fn memory_always_binds() {
        let mode = ConstraintMode::Frequency;
        let spec = NodeSpec::custom("tiny-mem", 1, 4, 2, MHz(2400));
        // tiny-mem has 64 GB; a 65 GB VM cannot fit.
        let bin = NodeBin::new(spec);
        let fat = PlacementRequest::new("fat", 1, MHz(100), 65);
        assert!(!mode.fits(&bin, &fat));
    }

    #[test]
    fn remaining_capacity_per_mode() {
        let mut bin = NodeBin::new(NodeSpec::chetemi());
        bin.place(&large());
        assert_eq!(ConstraintMode::core_count().remaining(&bin), 36);
        assert_eq!(ConstraintMode::Frequency.remaining(&bin), 96_000 - 7_200);
    }
}
