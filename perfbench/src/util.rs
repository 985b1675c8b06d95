//! Small helpers shared by the workloads: output digests, the trace
//! workload mix, exposition parsing and process memory.

use vfc_simcore::{Micros, SplitMix64};
use vfc_vmm::workload::{BurstyWeb, SteadyDemand};
use vfc_vmm::{VmTemplate, Workload};

/// FNV-1a, 64 bit: a stable digest of a workload's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` in, followed by a separator so that `("ab","c")`
    /// and `("a","bc")` differ.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes.iter().chain(std::iter::once(&0xff)) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Hex form.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The trace workload mix's template draw: 60 % small, 30 % medium,
/// 10 % large, as `SyntheticTrace` generates it.
pub fn draw_template(rng: &mut SplitMix64) -> VmTemplate {
    match rng.next_below(10) {
        0..=5 => VmTemplate::small(),
        6..=8 => VmTemplate::medium(),
        _ => VmTemplate::large(),
    }
}

/// The demand profile of a trace-mix class: small VMs are bursty web
/// servers, medium ones run steady at 80 %, large ones saturate (the
/// assignment `scenarios::trace_eval` uses).
pub fn class_workload(class: &str, seed: u64) -> Box<dyn Workload> {
    match class {
        "small" => Box::new(BurstyWeb::with_shape(
            seed,
            0.05,
            1.0,
            Micros::from_secs(60),
            Micros::from_secs(8),
        )),
        "medium" => Box::new(SteadyDemand::new(0.8)),
        _ => Box::new(SteadyDemand::full()),
    }
}

/// Sum every sample of metric family `name` in a Prometheus text page
/// (all label sets, all nodes of a rollup).
pub fn sum_family(page: &str, name: &str) -> f64 {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// Peak resident set of this process, MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_separates_fields() {
        let a = Digest::default().update(b"ab").update(b"c").hex();
        let b = Digest::default().update(b"a").update(b"bc").hex();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn family_sums_across_label_sets() {
        let page = "# HELP x y\nvfc_x_total{node=\"a\"} 2\nvfc_x_total{node=\"b\"} 3\nvfc_x_total_other 9\nvfc_x_total 1\n";
        assert_eq!(sum_family(page, "vfc_x_total"), 6.0);
    }
}
