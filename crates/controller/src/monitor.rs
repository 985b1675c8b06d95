//! Stage 1 — monitoring vCPU resource consumption (§III.B.1).
//!
//! Reads, for every vCPU cgroup: the cumulative `cpu.stat::usage_usec`
//! (differenced against the previous iteration to obtain `u_{i,j,t}`),
//! the vCPU thread's last CPU from `/proc/{tid}/stat`, and that core's
//! `scaling_cur_freq` — once per iteration, as the paper argues is
//! sufficient: busy threads rarely migrate and loaded cores run at
//! near-identical frequencies, so the virtual-frequency estimate
//! `û = (u / p) · f_core` stays accurate.
//!
//! Monitoring is **fault tolerant**: a failed read never aborts the
//! iteration. Per vCPU, the degradation ladder is
//!
//! 1. a read error whose [`vfc_cgroupfs::CgroupError::is_vanished`] is
//!    true marks the
//!    whole VM as gone — its cgroup subtree was removed between the
//!    `vms()` enumeration and our reads — and drops its observations
//!    and per-vCPU state for this iteration;
//! 2. any other read error falls back to the vCPU's last good
//!    observation, as long as it is at most
//!    [`stale_sample_ttl`](crate::ControllerConfig::stale_sample_ttl)
//!    periods old;
//! 3. with no reusable sample, the vCPU is skipped for this iteration:
//!    it keeps whatever capping it already has, and its history resumes
//!    when reads succeed again.

use vfc_cgroupfs::backend::{HostBackend, VmCgroupInfo};
use vfc_cgroupfs::error::Result;
use vfc_simcore::{CpuId, FastMap, MHz, Micros, VcpuAddr, VcpuId, VmId};

/// One vCPU's monitored state for this iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcpuObservation {
    /// The observed vCPU.
    pub addr: VcpuAddr,
    /// Cycles consumed during the last period (`u_{i,j,t}`).
    pub used: Micros,
    /// Time the vCPU spent throttled by its quota during the last period
    /// (`cpu.stat::throttled_usec` delta) — the signal that consumption
    /// was capped rather than satisfied. Zero on backends without the
    /// counter.
    pub throttled: Micros,
    /// Core the vCPU thread last ran on.
    pub last_cpu: CpuId,
    /// Estimated virtual frequency over the last period.
    pub freq_est: MHz,
}

/// Per-vCPU monitor state detached from one shard's [`Monitor`] during
/// repartitioning, waiting to be re-absorbed by the new owner shards
/// (see [`Monitor::take_state`] / [`Monitor::absorb_state`]).
#[derive(Debug, Default)]
pub(crate) struct MonitorState {
    pub(crate) prev_usage: FastMap<VcpuAddr, Micros>,
    pub(crate) prev_throttled: FastMap<VcpuAddr, Micros>,
    pub(crate) last_good: FastMap<VcpuAddr, (VcpuObservation, u32)>,
}

impl MonitorState {
    /// Merge another detached state into this pool.
    pub(crate) fn merge(&mut self, other: MonitorState) {
        self.prev_usage.extend(other.prev_usage);
        self.prev_throttled.extend(other.prev_throttled);
        self.last_good.extend(other.last_good);
    }
}

/// Stage-1 state: previous cumulative counters plus the last good
/// observation per vCPU (for bounded stale reuse), and this period's
/// observation buffers — all updated in place so a steady-state
/// [`Monitor::observe_listed`] call performs no heap allocation.
#[derive(Debug, Default)]
pub struct Monitor {
    prev_usage: FastMap<VcpuAddr, Micros>,
    prev_throttled: FastMap<VcpuAddr, Micros>,
    /// Last successful observation and its age in periods (0 = produced
    /// by the previous `observe_listed` call).
    last_good: FastMap<VcpuAddr, (VcpuObservation, u32)>,
    // This period's outputs, reused across calls.
    observations: Vec<VcpuObservation>,
    read_errors: u32,
    stale_reused: Vec<VcpuAddr>,
    skipped: Vec<VcpuAddr>,
    vanished: Vec<VmId>,
}

impl Monitor {
    /// Create a monitor with no baselines yet.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Read every vCPU of every VM in `vms`, in order, through one
    /// batched [`HostBackend::read_vcpu_raw`] pass, filling the output
    /// buffers and updating baselines/last-good state. The first
    /// observation of a vCPU reports `used = 0` (there is no previous
    /// sample to difference against). Never fails: per-vCPU errors
    /// degrade per the module docs, and `stale_ttl` bounds how many
    /// periods a cached sample may substitute for a failed read.
    ///
    /// The caller owns the VM listing. Vanished VMs land in
    /// [`Monitor::vanished`] with their per-vCPU state dropped; the
    /// controller's sharded pipeline then removes them from its
    /// inventory.
    pub fn observe_listed<B: HostBackend + ?Sized>(
        &mut self,
        backend: &B,
        vms: &[VmCgroupInfo],
        period: Micros,
        stale_ttl: u32,
    ) {
        self.observations.clear();
        self.read_errors = 0;
        self.stale_reused.clear();
        self.skipped.clear();
        self.vanished.clear();
        backend.begin_read_pass();

        'vms: for info in vms {
            let (vm, nr_vcpus) = (info.vm, info.nr_vcpus);
            let vm_start = self.observations.len();
            for j in 0..nr_vcpus {
                let addr = VcpuAddr::new(vm, VcpuId::new(j));
                match self.read_vcpu(backend, vm, VcpuId::new(j), period) {
                    Ok((obs, cumulative, throttled_cum)) => {
                        self.prev_usage.insert(addr, cumulative);
                        self.prev_throttled.insert(addr, throttled_cum);
                        self.last_good.insert(addr, (obs, 0));
                        self.observations.push(obs);
                    }
                    Err(e) if e.is_vanished() => {
                        // The VM's cgroups were removed under us. Undo its
                        // partial observations and forget the VM entirely.
                        self.observations.truncate(vm_start);
                        for k in 0..nr_vcpus {
                            let a = VcpuAddr::new(vm, VcpuId::new(k));
                            self.prev_usage.remove(&a);
                            self.prev_throttled.remove(&a);
                            self.last_good.remove(&a);
                        }
                        self.vanished.push(vm);
                        continue 'vms;
                    }
                    Err(_) => {
                        self.read_errors += 1;
                        match self.last_good.get_mut(&addr) {
                            Some((obs, age)) if *age < stale_ttl => {
                                *age += 1;
                                let obs = *obs;
                                // Baselines stay as they are (in place),
                                // so the next successful read differences
                                // against the last *real* counter value.
                                self.stale_reused.push(addr);
                                self.observations.push(obs);
                            }
                            _ => {
                                // No (young enough) sample: skip, keeping
                                // the baselines so history resumes cleanly.
                                self.skipped.push(addr);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Drop per-vCPU state for addresses outside `vms` — the membership
    /// cleanup the sharded pipeline runs after repartitioning.
    pub(crate) fn retain_members(&mut self, vms: &[VmCgroupInfo]) {
        let live = |a: &VcpuAddr| {
            vms.iter()
                .any(|v| v.vm == a.vm && a.vcpu.as_u32() < v.nr_vcpus)
        };
        self.prev_usage.retain(|a, _| live(a));
        self.prev_throttled.retain(|a, _| live(a));
        self.last_good.retain(|a, _| live(a));
    }

    /// This period's observations (fresh or stale), one per readable vCPU.
    pub fn observations(&self) -> &[VcpuObservation] {
        &self.observations
    }

    /// Per-vCPU read errors this period (vanished VMs not included).
    pub fn read_errors(&self) -> u32 {
        self.read_errors
    }

    /// vCPUs answered from the stale-sample cache this period.
    pub fn stale_reused(&self) -> &[VcpuAddr] {
        &self.stale_reused
    }

    /// vCPUs with no observation this period.
    pub fn skipped(&self) -> &[VcpuAddr] {
        &self.skipped
    }

    /// VMs that disappeared between enumeration and reads this period.
    pub fn vanished(&self) -> &[VmId] {
        &self.vanished
    }

    /// The fallible per-vCPU read: one [`HostBackend::read_vcpu_raw`]
    /// call (backends fuse it; the trait default preserves the legacy
    /// usage → throttled → placement → frequency call order), then
    /// differencing against the previous period's baselines. Returns the
    /// observation plus the raw cumulative counters (for baseline
    /// bookkeeping).
    fn read_vcpu<B: HostBackend + ?Sized>(
        &self,
        backend: &B,
        vm: VmId,
        vcpu: VcpuId,
        period: Micros,
    ) -> Result<(VcpuObservation, Micros, Micros)> {
        let addr = VcpuAddr::new(vm, vcpu);
        let raw = backend.read_vcpu_raw(vm, vcpu)?;
        let used = match self.prev_usage.get(&addr) {
            Some(&prev) => raw.usage.saturating_sub(prev),
            None => Micros::ZERO,
        };
        let throttled = match self.prev_throttled.get(&addr) {
            Some(&prev) => raw.throttled.saturating_sub(prev),
            None => Micros::ZERO,
        };
        let freq_est = MHz((used.ratio_of(period) * raw.core_freq.as_f64()).round() as u32);

        Ok((
            VcpuObservation {
                addr,
                used,
                throttled,
                last_cpu: raw.last_cpu,
                freq_est,
            },
            raw.usage,
            raw.throttled,
        ))
    }

    /// Detach the per-vCPU differencing state (baselines and last-good
    /// cache) for shard migration: when the sharded pipeline
    /// repartitions, every vCPU's state moves with it so `used` deltas
    /// and stale-reuse ages survive the move bit-identically.
    pub(crate) fn take_state(&mut self) -> MonitorState {
        MonitorState {
            prev_usage: std::mem::take(&mut self.prev_usage),
            prev_throttled: std::mem::take(&mut self.prev_throttled),
            last_good: std::mem::take(&mut self.last_good),
        }
    }

    /// Absorb entries of `pool` owned by VMs accepted by `owns`,
    /// removing them from the pool — the receiving half of
    /// [`Monitor::take_state`].
    pub(crate) fn absorb_state(&mut self, pool: &mut MonitorState, owns: impl Fn(VmId) -> bool) {
        let MonitorState {
            prev_usage,
            prev_throttled,
            last_good,
        } = pool;
        prev_usage.retain(|a, v| {
            let take = owns(a.vm);
            if take {
                self.prev_usage.insert(*a, *v);
            }
            !take
        });
        prev_throttled.retain(|a, v| {
            let take = owns(a.vm);
            if take {
                self.prev_throttled.insert(*a, *v);
            }
            !take
        });
        last_good.retain(|a, v| {
            let take = owns(a.vm);
            if take {
                self.last_good.insert(*a, *v);
            }
            !take
        });
    }

    /// Number of vCPUs currently tracked.
    pub fn tracked(&self) -> usize {
        self.prev_usage.len()
    }

    /// Cumulative `usage_usec` baseline of a vCPU, for the crash journal.
    pub fn usage_baseline(&self, addr: VcpuAddr) -> Option<Micros> {
        self.prev_usage.get(&addr).copied()
    }

    /// Cumulative `throttled_usec` baseline of a vCPU, for the crash
    /// journal.
    pub fn throttled_baseline(&self, addr: VcpuAddr) -> Option<Micros> {
        self.prev_throttled.get(&addr).copied()
    }

    /// Seed baselines from a journal (warm restart): cgroup counters are
    /// cumulative and survive a daemon death, so the first observation
    /// after a restart can difference against the persisted counter
    /// instead of reporting `used = 0`.
    pub fn seed_baselines(
        &mut self,
        addr: VcpuAddr,
        usage: Option<Micros>,
        throttled: Option<Micros>,
    ) {
        if let Some(u) = usage {
            self.prev_usage.insert(addr, u);
        }
        if let Some(t) = throttled {
            self.prev_throttled.insert(addr, t);
        }
    }

    /// Forget everything about a VM (used when other stages learn that a
    /// VM vanished, e.g. from a failed write).
    pub fn forget_vm(&mut self, vm: VmId) {
        self.prev_usage.retain(|a, _| a.vm != vm);
        self.prev_throttled.retain(|a, _| a.vm != vm);
        self.last_good.retain(|a, _| a.vm != vm);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::HashMap;
    use vfc_cgroupfs::error::CgroupError;
    use vfc_cgroupfs::model::CpuMax;
    use vfc_simcore::{Tid, VmId};

    /// Minimal scripted backend for stage-level tests (also drives the
    /// sharded pipeline's tests).
    pub(crate) struct FakeBackend {
        pub(crate) vms: Vec<VmCgroupInfo>,
        usage: HashMap<VcpuAddr, Micros>,
        freqs: Vec<MHz>,
        placement: HashMap<Tid, CpuId>,
        /// Fail `vcpu_usage` for these addresses with this error kind.
        pub(crate) fail_usage: HashMap<VcpuAddr, std::io::ErrorKind>,
        /// Every per-vCPU read of this VM reports its cgroup as gone.
        pub(crate) vanished: Option<VmId>,
        /// What `vms_epoch` reports (`None`: listing never provably
        /// unchanged).
        pub(crate) epoch: Option<u64>,
        /// Number of `vms()` listings served.
        pub(crate) listings: Cell<u32>,
    }

    impl FakeBackend {
        pub(crate) fn new(nr_vms: u32, vcpus: u32) -> Self {
            let vms = (0..nr_vms)
                .map(|i| VmCgroupInfo {
                    vm: VmId::new(i),
                    name: format!("vm{i}"),
                    nr_vcpus: vcpus,
                    vfreq: Some(MHz(500)),
                })
                .collect();
            FakeBackend {
                vms,
                usage: HashMap::new(),
                freqs: vec![MHz(2400); 4],
                placement: HashMap::new(),
                fail_usage: HashMap::new(),
                vanished: None,
                epoch: None,
                listings: Cell::new(0),
            }
        }

        pub(crate) fn bump(&mut self, vm: u32, vcpu: u32, by: Micros) {
            *self
                .usage
                .entry(VcpuAddr::new(VmId::new(vm), VcpuId::new(vcpu)))
                .or_insert(Micros::ZERO) += by;
        }
    }

    impl HostBackend for FakeBackend {
        fn topology(&self) -> vfc_cgroupfs::backend::TopologyInfo {
            vfc_cgroupfs::backend::TopologyInfo {
                nr_cpus: self.freqs.len() as u32,
                max_mhz: MHz(2400),
            }
        }
        fn vms(&self) -> Vec<VmCgroupInfo> {
            self.listings.set(self.listings.get() + 1);
            self.vms.clone()
        }
        fn vms_epoch(&self) -> Option<u64> {
            self.epoch
        }
        fn vcpu_usage(&self, vm: VmId, vcpu: VcpuId) -> Result<Micros> {
            if self.vanished == Some(vm) {
                return Err(CgroupError::NoSuchGroup(format!("{vm}.scope")));
            }
            let addr = VcpuAddr::new(vm, vcpu);
            if let Some(&kind) = self.fail_usage.get(&addr) {
                return Err(CgroupError::io("cpu.stat", std::io::Error::new(kind, "x")));
            }
            Ok(self.usage.get(&addr).copied().unwrap_or(Micros::ZERO))
        }
        fn vcpu_threads(&self, vm: VmId, vcpu: VcpuId) -> Result<Vec<Tid>> {
            if self.vanished == Some(vm) {
                return Err(CgroupError::NoSuchGroup(format!("{vm}.scope")));
            }
            Ok(vec![Tid::new(vm.as_u32() * 10 + vcpu.as_u32())])
        }
        fn thread_last_cpu(&self, tid: Tid) -> Result<CpuId> {
            Ok(self.placement.get(&tid).copied().unwrap_or(CpuId::new(0)))
        }
        fn cpu_cur_freq(&self, cpu: CpuId) -> Result<MHz> {
            Ok(self.freqs[cpu.as_usize()])
        }
        fn set_vcpu_max(&mut self, _: VmId, _: VcpuId, _: CpuMax) -> Result<()> {
            Ok(())
        }
        fn vcpu_max(&self, _: VmId, _: VcpuId) -> Result<CpuMax> {
            Ok(CpuMax::unlimited())
        }
        fn set_vm_weight(&mut self, _: VmId, _: u32) -> Result<()> {
            Ok(())
        }
        fn vm_weight(&self, _: VmId) -> Result<u32> {
            Ok(100)
        }
    }

    const TTL: u32 = 2;

    /// One stage-1 pass over the backend's current listing.
    fn observe(mon: &mut Monitor, backend: &FakeBackend, stale_ttl: u32) {
        mon.observe_listed(backend, &backend.vms, Micros::SEC, stale_ttl);
    }

    #[test]
    fn first_observation_is_zero_then_deltas() {
        let mut backend = FakeBackend::new(1, 1);
        backend.bump(0, 0, Micros(5_000_000)); // pre-existing usage
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.observations()[0].used, Micros::ZERO, "no baseline yet");

        backend.bump(0, 0, Micros(300_000));
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.observations()[0].used, Micros(300_000));

        backend.bump(0, 0, Micros(700_000));
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.observations()[0].used, Micros(700_000));
    }

    #[test]
    fn freq_estimate_combines_share_and_core_freq() {
        let mut backend = FakeBackend::new(1, 1);
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, TTL);
        // Half the period on a 2.4 GHz core → 1200 MHz.
        backend.bump(0, 0, Micros(500_000));
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.observations()[0].freq_est, MHz(1200));
        assert_eq!(mon.observations()[0].last_cpu, CpuId::new(0));
    }

    #[test]
    fn freq_estimate_uses_the_thread_core() {
        let mut backend = FakeBackend::new(1, 1);
        backend.freqs = vec![MHz(2400), MHz(1200)];
        backend.placement.insert(Tid::new(0), CpuId::new(1));
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, TTL);
        backend.bump(0, 0, Micros(1_000_000));
        observe(&mut mon, &backend, TTL);
        // Full share of a 1.2 GHz core.
        assert_eq!(mon.observations()[0].freq_est, MHz(1200));
    }

    #[test]
    fn all_vcpus_of_all_vms_observed() {
        let backend = FakeBackend::new(3, 2);
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.observations().len(), 6);
        assert_eq!(mon.tracked(), 6);
        assert_eq!(mon.read_errors(), 0);
        assert!(mon.skipped().is_empty() && mon.vanished().is_empty());
    }

    #[test]
    fn departed_vcpus_are_forgotten() {
        let mut backend = FakeBackend::new(2, 2);
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.tracked(), 4);
        // One VM departs, the other shrinks to one vCPU.
        backend.vms.pop();
        backend.vms[0].nr_vcpus = 1;
        mon.retain_members(&backend.vms);
        assert_eq!(mon.tracked(), 1);
        let kept = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        assert!(mon.usage_baseline(kept).is_some());
    }

    #[test]
    fn counter_reset_does_not_underflow() {
        // If a vCPU cgroup is recreated its counter restarts from 0;
        // saturating_sub yields 0 rather than a huge delta.
        let mut backend = FakeBackend::new(1, 1);
        backend.bump(0, 0, Micros(1_000_000));
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, TTL);
        backend.usage.clear(); // counter reset
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.observations()[0].used, Micros::ZERO);
    }

    #[test]
    fn transient_read_error_reuses_stale_sample_up_to_ttl() {
        let addr = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        let mut backend = FakeBackend::new(1, 1);
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, TTL);
        backend.bump(0, 0, Micros(400_000));
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.observations()[0].used, Micros(400_000));

        // The read starts failing: the 400 000 sample is replayed for
        // TTL periods, then the vCPU is skipped.
        backend
            .fail_usage
            .insert(addr, std::io::ErrorKind::Interrupted);
        for i in 0..TTL {
            observe(&mut mon, &backend, TTL);
            assert_eq!(mon.read_errors(), 1, "period {i}");
            assert_eq!(mon.stale_reused(), [addr]);
            assert_eq!(mon.observations()[0].used, Micros(400_000));
            assert!(mon.skipped().is_empty());
        }
        observe(&mut mon, &backend, TTL);
        assert!(mon.observations().is_empty(), "sample too old to reuse");
        assert_eq!(mon.skipped(), [addr]);

        // Recovery: the next real read differences against the last
        // *real* counter value, not against garbage.
        backend.fail_usage.clear();
        backend.bump(0, 0, Micros(250_000));
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.observations()[0].used, Micros(250_000));
        assert!(mon.skipped().is_empty() && mon.stale_reused().is_empty());
    }

    #[test]
    fn ttl_zero_skips_immediately() {
        let addr = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        let mut backend = FakeBackend::new(1, 1);
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, 0);
        backend
            .fail_usage
            .insert(addr, std::io::ErrorKind::ResourceBusy);
        observe(&mut mon, &backend, 0);
        assert_eq!(mon.skipped(), [addr]);
        assert!(mon.stale_reused().is_empty());
    }

    #[test]
    fn one_failing_vcpu_does_not_disturb_the_others() {
        let addr = VcpuAddr::new(VmId::new(0), VcpuId::new(1));
        let mut backend = FakeBackend::new(2, 2);
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, 0);
        backend
            .fail_usage
            .insert(addr, std::io::ErrorKind::TimedOut);
        for (vm, vcpu) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            backend.bump(vm, vcpu, Micros(100_000));
        }
        observe(&mut mon, &backend, 0);
        assert_eq!(mon.observations().len(), 3);
        assert_eq!(mon.skipped(), [addr]);
        assert!(mon
            .observations()
            .iter()
            .all(|o| o.used == Micros(100_000) && o.addr != addr));
    }

    #[test]
    fn vanished_vm_is_dropped_with_its_partial_observations() {
        let mut backend = FakeBackend::new(2, 2);
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.tracked(), 4);
        backend.bump(0, 0, Micros(500_000));
        backend.vanished = Some(VmId::new(0));
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.vanished(), [VmId::new(0)]);
        assert_eq!(mon.observations().len(), 2, "only the live VM's vCPUs");
        assert!(mon.observations().iter().all(|o| o.addr.vm == VmId::new(1)));
        assert_eq!(mon.tracked(), 2);
        // No stale resurrection: the vanished VM left no reusable samples.
        backend.vanished = None;
        observe(&mut mon, &backend, TTL);
        assert!(mon.vanished().is_empty());
        assert_eq!(mon.observations().len(), 4, "VM re-observed from scratch");
        assert_eq!(
            mon.observations()[0].used,
            Micros::ZERO,
            "the vanished baseline is gone"
        );
    }

    #[test]
    fn forget_vm_clears_all_state() {
        let backend = FakeBackend::new(2, 2);
        let mut mon = Monitor::new();
        observe(&mut mon, &backend, TTL);
        assert_eq!(mon.tracked(), 4);
        mon.forget_vm(VmId::new(0));
        assert_eq!(mon.tracked(), 2);
    }
}
