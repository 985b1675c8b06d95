//! The sharded stage-1/2 pipeline (see `docs/PERFORMANCE.md` and
//! DESIGN.md §14).
//!
//! Stages 1–2 (monitor + estimate) touch every vCPU independently: no
//! per-vCPU result feeds another vCPU's. That makes them the
//! embarrassingly-parallel prefix of the loop, and on thousand-vCPU
//! hosts they dominate the iteration (one batched backend read per
//! vCPU). This module splits the VM inventory into **shards** — each a
//! contiguous, vCPU-balanced run of the inventory order with its own
//! [`Monitor`] and [`Estimator`] — runs them through a caller-supplied
//! runner (sequential, or parallel via [`vfc_simcore::fanout`]), and then
//! merges the per-shard outputs back into the flat buffers stages 3–6
//! expect, in shard order.
//!
//! # The merge contract
//!
//! Shard order **is** inventory order: shard 0 owns the first VMs of
//! the listing, shard 1 the next, and so on. Concatenating the shards'
//! observation and estimate buffers therefore reproduces exactly the
//! sequence the unsharded loop would have produced, so stages 3–6 (and
//! with them every `cpu.max` value, wallet balance and health counter)
//! are byte-identical for any shard count. Two details need explicit
//! care to keep that true:
//!
//! * **The departed-history prune is global.** The estimator forgets
//!   vCPUs whose histories outnumber this period's observations; that
//!   trigger must compare *host-wide* totals. A shard-local comparison
//!   would fire when a vCPU skip in one shard coincides with an arrival
//!   in another, pruning a history the unsharded loop keeps. So
//!   [`Estimator::estimate_into`] never prunes, and [`ShardedPipeline::run`]
//!   prunes once, after the merge.
//! * **Fault-injection draws stay ordered.** The sequential runner
//!   visits shards in order, so a non-`Sync` fault-injecting backend
//!   observes the exact per-vCPU read sequence of the unsharded loop
//!   and its RNG replays identically. The parallel runner is only
//!   reachable for `Sync` backends.
//!
//! # Repartitioning
//!
//! The pipeline is the controller's only inventory lister: an
//! epoch-gated cache of `vms()`, re-listed only when the backend cannot
//! prove it unchanged. Whenever the inventory generation moves — arrival, departure, resize, vanish —
//! the next period rebuilds the partition and migrates every vCPU's
//! monitor baselines, stale-sample cache and estimator history to its
//! new owner shard *by move*, so deltas and trends survive the reshard
//! bit-identically. Steady state never repartitions and never
//! allocates.

use crate::config::ControllerConfig;
use crate::estimate::{Estimate, Estimator, History};
use crate::monitor::{Monitor, MonitorState, VcpuObservation};
use std::time::{Duration, Instant};
use vfc_cgroupfs::backend::{HostBackend, VmCgroupInfo};
use vfc_simcore::{FastMap, Micros, VcpuAddr, VmId};

/// One shard: a contiguous slice of the VM inventory plus the stage-1/2
/// state of exactly those VMs. Shards never share per-vCPU state, so a
/// `&mut Shard` is all a worker thread needs.
pub(crate) struct Shard {
    /// The VMs this shard owns, in inventory order.
    vms: Vec<VmCgroupInfo>,
    /// Sum of `nr_vcpus` over `vms` (partition balancing weight).
    nr_vcpus: u32,
    monitor: Monitor,
    estimator: Estimator,
    estimates: Vec<Estimate>,
    /// Stage-1 wall time of the last run.
    mon_time: Duration,
    /// Stage-2 wall time of the last run.
    est_time: Duration,
}

impl Shard {
    fn new(cfg: &ControllerConfig) -> Self {
        Shard {
            vms: Vec::new(),
            nr_vcpus: 0,
            monitor: Monitor::new(),
            estimator: Estimator::new(cfg),
            estimates: Vec::new(),
            mon_time: Duration::ZERO,
            est_time: Duration::ZERO,
        }
    }

    /// Stages 1–2 over this shard's VMs. Self-contained: reads only the
    /// backend and shared config/`prev_alloc`, writes only shard-owned
    /// buffers — safe to run concurrently with every other shard.
    pub(crate) fn run_period<B: HostBackend + ?Sized>(
        &mut self,
        backend: &B,
        cfg: &ControllerConfig,
        prev_alloc: &FastMap<VcpuAddr, Micros>,
    ) {
        let t = Instant::now();
        self.monitor
            .observe_listed(backend, &self.vms, cfg.period, cfg.stale_sample_ttl);
        self.mon_time = t.elapsed();
        let t = Instant::now();
        self.estimator.estimate_into(
            cfg,
            self.monitor.observations(),
            prev_alloc,
            &mut self.estimates,
        );
        self.est_time = t.elapsed();
    }

    /// vCPUs this shard owns (partition weight, not this period's
    /// observation count).
    pub(crate) fn nr_vcpus(&self) -> u32 {
        self.nr_vcpus
    }

    /// Stage-1 wall time of the last period.
    pub(crate) fn mon_time(&self) -> Duration {
        self.mon_time
    }

    /// Stage-2 wall time of the last period.
    pub(crate) fn est_time(&self) -> Duration {
        self.est_time
    }
}

/// Run every shard on the calling thread, in shard order — the exact
/// read order of the unsharded loop, which non-`Sync` fault-injecting
/// backends rely on for deterministic RNG replay.
pub(crate) fn run_shards_sequential<B: HostBackend + ?Sized>(
    shards: &mut [Shard],
    backend: &B,
    cfg: &ControllerConfig,
    prev_alloc: &FastMap<VcpuAddr, Micros>,
) {
    for shard in shards {
        shard.run_period(backend, cfg, prev_alloc);
    }
}

/// Run shards across threads via [`vfc_simcore::fanout`] (one
/// contiguous chunk per core, first chunk on the caller). Requires a
/// `Sync` backend; per-shard state is disjoint so no further
/// synchronization is needed.
pub(crate) fn run_shards_parallel<B: HostBackend + Sync + ?Sized>(
    shards: &mut [Shard],
    backend: &B,
    cfg: &ControllerConfig,
    prev_alloc: &FastMap<VcpuAddr, Micros>,
) {
    vfc_simcore::fanout::for_each_mut(shards, |shard| shard.run_period(backend, cfg, prev_alloc));
}

/// The sharded stage-1/2 pipeline: the inventory lister, the shard set,
/// and the merged per-period outputs stages 3–6 consume. Owned by
/// [`crate::Controller`].
pub(crate) struct ShardedPipeline {
    shards: Vec<Shard>,
    /// Host-wide VM inventory (vanished VMs removed), in listing order.
    inventory: Vec<VmCgroupInfo>,
    /// The epoch `inventory` was listed at.
    inventory_epoch: Option<u64>,
    listed_once: bool,
    /// Bumped whenever `inventory` contents change; the dense slot
    /// registry and the shard partition both key off it.
    generation: u64,
    /// Generation the current partition was built against; `None`
    /// forces a repartition (initial state, restore staging).
    plan_generation: Option<u64>,
    /// Times the partition was rebuilt since construction.
    repartitions: u64,
    // ---- merged per-period outputs (buffers reused across periods) ----
    observations: Vec<VcpuObservation>,
    read_errors: u32,
    stale_reused: Vec<VcpuAddr>,
    skipped: Vec<VcpuAddr>,
    vanished: Vec<VmId>,
}

impl ShardedPipeline {
    /// A pipeline with one empty staging shard. Journal restore seeds
    /// baselines and histories into the staging shard before the first
    /// iteration; the first `run` repartitions and migrates them to
    /// their owner shards.
    pub(crate) fn new(cfg: &ControllerConfig) -> Self {
        ShardedPipeline {
            shards: vec![Shard::new(cfg)],
            inventory: Vec::new(),
            inventory_epoch: None,
            listed_once: false,
            generation: 0,
            plan_generation: None,
            repartitions: 0,
            observations: Vec::new(),
            read_errors: 0,
            stale_reused: Vec::new(),
            skipped: Vec::new(),
            vanished: Vec::new(),
        }
    }

    /// Re-list the inventory if the backend cannot prove it unchanged;
    /// bump the generation when the contents moved.
    fn refresh_inventory<B: HostBackend + ?Sized>(&mut self, backend: &B) {
        let epoch = backend.vms_epoch();
        if self.listed_once && epoch.is_some() && epoch == self.inventory_epoch {
            return; // proven unchanged: skip the allocating re-list
        }
        let vms = backend.vms();
        self.inventory_epoch = epoch;
        self.listed_once = true;
        if vms != self.inventory {
            self.inventory = vms;
            self.generation = self.generation.wrapping_add(1);
        }
    }

    /// Rebuild the shard partition for the current inventory and
    /// migrate all per-vCPU state to the new owner shards. Cold path:
    /// runs only when the inventory generation moved.
    fn repartition(&mut self, cfg: &ControllerConfig) {
        let total: u64 = self.inventory.iter().map(|v| v.nr_vcpus as u64).sum();
        let n = (cfg.shard_count.effective(total.min(u32::MAX as u64) as u32) as usize)
            .min(self.inventory.len().max(1));

        // Drain every shard's per-vCPU state into pools; entries whose
        // VM no longer exists stay in the pools and drop with them.
        let mut mon_pool = MonitorState::default();
        let mut hist_pool: FastMap<VcpuAddr, History> = FastMap::default();
        for shard in &mut self.shards {
            mon_pool.merge(shard.monitor.take_state());
            hist_pool.extend(shard.estimator.take_histories());
        }

        // Contiguous, vCPU-balanced split of the inventory order: shard
        // k advances once it has reached its proportional share of the
        // total vCPU count (and never leaves a later shard empty).
        let mut shards: Vec<Shard> = (0..n).map(|_| Shard::new(cfg)).collect();
        let mut owner: FastMap<VmId, u32> = FastMap::default();
        let mut k = 0usize;
        let mut cum = 0u64;
        for (i, vm) in self.inventory.iter().enumerate() {
            let remaining_vms = self.inventory.len() - i;
            let remaining_shards = n - k;
            if k + 1 < n
                && !shards[k].vms.is_empty()
                && (remaining_vms == remaining_shards || cum * n as u64 >= total * (k as u64 + 1))
            {
                k += 1;
            }
            owner.insert(vm.vm, k as u32);
            shards[k].vms.push(vm.clone());
            shards[k].nr_vcpus += vm.nr_vcpus;
            cum += vm.nr_vcpus as u64;
        }

        for (k, shard) in shards.iter_mut().enumerate() {
            let owner = &owner;
            shard
                .monitor
                .absorb_state(&mut mon_pool, |vm| owner.get(&vm) == Some(&(k as u32)));
            shard
                .estimator
                .absorb_histories(&mut hist_pool, |vm| owner.get(&vm) == Some(&(k as u32)));
            // A VM may have shrunk: drop baselines of vCPU indices past
            // its new size.
            shard.monitor.retain_members(&shard.vms);
        }

        self.shards = shards;
        self.plan_generation = Some(self.generation);
        self.repartitions += 1;
    }

    /// One stage-1/2 pass: refresh the inventory, repartition if it
    /// moved, run every shard through `runner`, merge the per-shard
    /// outputs in shard order, run the global departed-history prune,
    /// and fold shard vanishes back into the lister.
    ///
    /// `estimates_out` receives the merged stage-2 output (cleared
    /// first); observations and health counters are readable through
    /// the accessors afterwards. Steady state performs zero heap
    /// allocations on the sequential runner.
    pub(crate) fn run<B, F>(
        &mut self,
        backend: &B,
        cfg: &ControllerConfig,
        prev_alloc: &FastMap<VcpuAddr, Micros>,
        estimates_out: &mut Vec<Estimate>,
        runner: F,
    ) where
        B: HostBackend + ?Sized,
        F: FnOnce(&mut [Shard], &B, &ControllerConfig, &FastMap<VcpuAddr, Micros>),
    {
        self.refresh_inventory(backend);
        if self.plan_generation != Some(self.generation) {
            self.repartition(cfg);
        }

        runner(&mut self.shards, backend, cfg, prev_alloc);

        // ---- merge (shard order == inventory order) -------------------
        self.observations.clear();
        estimates_out.clear();
        self.read_errors = 0;
        self.stale_reused.clear();
        self.skipped.clear();
        self.vanished.clear();
        for shard in &self.shards {
            self.observations
                .extend_from_slice(shard.monitor.observations());
            estimates_out.extend_from_slice(&shard.estimates);
            self.read_errors += shard.monitor.read_errors();
            self.stale_reused
                .extend_from_slice(shard.monitor.stale_reused());
            self.skipped.extend_from_slice(shard.monitor.skipped());
            self.vanished.extend_from_slice(shard.monitor.vanished());
        }

        // ---- global departed-history prune ----------------------------
        // The trigger compares host-wide totals (see module docs); the
        // steady state (tracked == observed) never builds the set.
        let tracked: usize = self.shards.iter().map(|s| s.estimator.tracked()).sum();
        if tracked > self.observations.len() {
            let live: std::collections::HashSet<VcpuAddr> =
                self.observations.iter().map(|o| o.addr).collect();
            for shard in &mut self.shards {
                shard.estimator.retain_addrs(&live);
            }
        }

        // ---- vanish epilogue ------------------------------------------
        // Drop vanished VMs from the lister and force a real re-list
        // (the backend's epoch may not move for a vanish it never saw);
        // the generation bump repartitions next period.
        if !self.vanished.is_empty() {
            let vanished = std::mem::take(&mut self.vanished);
            self.inventory.retain(|v| !vanished.contains(&v.vm));
            self.vanished = vanished;
            self.inventory_epoch = None;
            self.listed_once = false;
            self.generation = self.generation.wrapping_add(1);
        }
    }

    /// Host-wide VM inventory (vanished VMs removed) as of the last run.
    pub(crate) fn inventory(&self) -> &[VmCgroupInfo] {
        &self.inventory
    }

    /// Bumped whenever [`ShardedPipeline::inventory`] contents change.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    /// Merged observations of the last run, in inventory order.
    pub(crate) fn observations(&self) -> &[VcpuObservation] {
        &self.observations
    }

    /// Per-vCPU read errors of the last run (vanished VMs not included).
    pub(crate) fn read_errors(&self) -> u32 {
        self.read_errors
    }

    /// vCPUs answered from the stale-sample cache in the last run.
    pub(crate) fn stale_reused(&self) -> &[VcpuAddr] {
        &self.stale_reused
    }

    /// vCPUs with no observation in the last run.
    pub(crate) fn skipped(&self) -> &[VcpuAddr] {
        &self.skipped
    }

    /// VMs that disappeared during the last run's reads.
    pub(crate) fn vanished(&self) -> &[VmId] {
        &self.vanished
    }

    /// The current shards (telemetry, stage-time attribution).
    pub(crate) fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Times the partition has been rebuilt since construction.
    pub(crate) fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Stage-1/2 times of the **critical-path shard** — the shard whose
    /// combined monitor+estimate time is largest. Under the parallel
    /// runner that shard bounds the pass's wall time, so attributing
    /// its split (rather than summing across shards) keeps the
    /// invariant that stage times never exceed the iteration total.
    pub(crate) fn critical_stage_times(&self) -> (Duration, Duration) {
        self.shards
            .iter()
            .map(|s| (s.mon_time, s.est_time))
            .max_by_key(|(m, e)| *m + *e)
            .unwrap_or((Duration::ZERO, Duration::ZERO))
    }

    // ---- journal / resize plumbing ------------------------------------
    // Cold-path routing of per-vCPU state operations to the owning
    // shard. Seeds land in shard 0 (the staging shard before the first
    // run); the next repartition migrates them to their owner shards.

    /// Seed a vCPU's estimator history (warm restart).
    pub(crate) fn seed_history(&mut self, addr: VcpuAddr, samples: &[u64]) {
        self.shards[0].estimator.seed_history(addr, samples);
    }

    /// Seed a vCPU's monitor baselines (warm restart).
    pub(crate) fn seed_baselines(
        &mut self,
        addr: VcpuAddr,
        usage: Option<Micros>,
        throttled: Option<Micros>,
    ) {
        self.shards[0]
            .monitor
            .seed_baselines(addr, usage, throttled);
    }

    /// Every tracked history (oldest → newest), sorted by address —
    /// gathered across shards for the crash journal.
    pub(crate) fn export_histories(&self) -> Vec<(VcpuAddr, Vec<u64>)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.estimator.export_histories());
        }
        out.sort_by_key(|(addr, _)| *addr);
        out
    }

    /// Cumulative `usage_usec` baseline of a vCPU (crash journal).
    pub(crate) fn usage_baseline(&self, addr: VcpuAddr) -> Option<Micros> {
        self.shards
            .iter()
            .find_map(|s| s.monitor.usage_baseline(addr))
    }

    /// Cumulative `throttled_usec` baseline of a vCPU (crash journal).
    pub(crate) fn throttled_baseline(&self, addr: VcpuAddr) -> Option<Micros> {
        self.shards
            .iter()
            .find_map(|s| s.monitor.throttled_baseline(addr))
    }

    /// Drop every estimator history of one VM (live-resize hook).
    /// Returns how many vCPU histories were dropped.
    pub(crate) fn forget_vm_histories(&mut self, vm: VmId) -> usize {
        self.shards
            .iter_mut()
            .map(|s| s.estimator.forget_vm(vm))
            .sum()
    }

    /// Forget everything about a VM — monitor state, estimator
    /// histories, and its lister entry (used when stage 6 learns of a
    /// vanish from a failed write). Forces a re-list next period.
    pub(crate) fn forget_vm(&mut self, vm: VmId) {
        for shard in &mut self.shards {
            shard.monitor.forget_vm(vm);
            shard.estimator.forget_vm(vm);
        }
        if self.inventory.iter().any(|v| v.vm == vm) {
            self.inventory.retain(|v| v.vm != vm);
            self.generation = self.generation.wrapping_add(1);
            self.inventory_epoch = None;
            self.listed_once = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_simcore::{MHz, VcpuId};

    fn vm(i: u32, vcpus: u32) -> VmCgroupInfo {
        VmCgroupInfo {
            vm: VmId::new(i),
            name: format!("vm{i}"),
            nr_vcpus: vcpus,
            vfreq: Some(MHz(500)),
        }
    }

    /// Drive just the partitioner (no backend) by constructing a
    /// pipeline, injecting an inventory, and repartitioning.
    fn partition(vms: Vec<VmCgroupInfo>, cfg: &ControllerConfig) -> Vec<Vec<u32>> {
        let mut p = ShardedPipeline::new(cfg);
        p.inventory = vms;
        p.repartition(cfg);
        p.shards
            .iter()
            .map(|s| s.vms.iter().map(|v| v.vm.as_u32()).collect())
            .collect()
    }

    #[test]
    fn partition_is_contiguous_and_preserves_order() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(3);
        let shards = partition((0..9).map(|i| vm(i, 2)).collect(), &cfg);
        assert_eq!(shards.len(), 3);
        let flat: Vec<u32> = shards.iter().flatten().copied().collect();
        assert_eq!(
            flat,
            (0..9).collect::<Vec<_>>(),
            "concatenation == inventory order"
        );
    }

    #[test]
    fn partition_balances_by_vcpus_not_vms() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(2);
        // One 8-vCPU VM plus eight 1-vCPU VMs: the fat VM should sit
        // alone in shard 0 (8 vs 8), not be grouped with half the rest.
        let mut vms = vec![vm(0, 8)];
        vms.extend((1..9).map(|i| vm(i, 1)));
        let shards = partition(vms, &cfg);
        assert_eq!(shards[0], vec![0]);
        assert_eq!(shards[1], (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn partition_never_leaves_a_shard_empty() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(4);
        // More shards requested than VMs exist: capped at #VMs.
        let shards = partition((0..3).map(|i| vm(i, 1)).collect(), &cfg);
        assert_eq!(shards.len(), 3);
        assert!(shards.iter().all(|s| !s.is_empty()));
        // Skewed sizes with n == #VMs: still one VM per shard.
        let shards = partition(vec![vm(0, 100), vm(1, 1), vm(2, 1), vm(3, 1)], &cfg);
        assert_eq!(shards.len(), 4);
        assert!(shards.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn repartition_migrates_state_by_move() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(2);
        let mut p = ShardedPipeline::new(&cfg);
        // Seed state into the staging shard for two VMs.
        let a = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        let b = VcpuAddr::new(VmId::new(1), VcpuId::new(0));
        p.seed_baselines(a, Some(Micros(111)), None);
        p.seed_baselines(b, Some(Micros(222)), None);
        p.seed_history(a, &[1, 2, 3]);
        p.seed_history(b, &[4, 5, 6]);
        p.inventory = vec![vm(0, 1), vm(1, 1)];
        p.repartition(&cfg);
        assert_eq!(p.shards.len(), 2);
        // Each vCPU's state followed its VM to the owner shard.
        assert_eq!(p.usage_baseline(a), Some(Micros(111)));
        assert_eq!(p.usage_baseline(b), Some(Micros(222)));
        assert_eq!(p.shards[0].monitor.usage_baseline(a), Some(Micros(111)));
        assert_eq!(p.shards[1].monitor.usage_baseline(b), Some(Micros(222)));
        assert_eq!(p.shards[0].estimator.history_of(a), vec![1, 2, 3]);
        assert_eq!(p.shards[1].estimator.history_of(b), vec![4, 5, 6]);
        // Departed state (a VM absent from the inventory) is dropped.
        let c = VcpuAddr::new(VmId::new(9), VcpuId::new(0));
        p.seed_baselines(c, Some(Micros(333)), None);
        p.repartition(&cfg);
        assert_eq!(p.usage_baseline(c), None);
        assert_eq!(
            p.usage_baseline(a),
            Some(Micros(111)),
            "live state survives"
        );
    }

    #[test]
    fn export_histories_is_sorted_across_shards() {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(2);
        let mut p = ShardedPipeline::new(&cfg);
        p.inventory = vec![vm(0, 1), vm(1, 1)];
        p.repartition(&cfg);
        let b = VcpuAddr::new(VmId::new(1), VcpuId::new(0));
        let a = VcpuAddr::new(VmId::new(0), VcpuId::new(0));
        p.shards[1].estimator.seed_history(b, &[9]);
        p.shards[0].estimator.seed_history(a, &[7]);
        let exported = p.export_histories();
        assert_eq!(exported.len(), 2);
        assert_eq!(exported[0].0, a);
        assert_eq!(exported[1].0, b);
    }

    /// One sequential stage-1/2 pass of `p` over `backend`.
    fn run(
        p: &mut ShardedPipeline,
        backend: &crate::monitor::tests::FakeBackend,
        cfg: &ControllerConfig,
    ) -> Vec<Estimate> {
        let mut estimates = Vec::new();
        p.run(
            backend,
            cfg,
            &FastMap::default(),
            &mut estimates,
            run_shards_sequential,
        );
        estimates
    }

    fn two_shards() -> ControllerConfig {
        let mut cfg = ControllerConfig::paper_defaults();
        cfg.shard_count = crate::config::ShardCount::Fixed(2);
        cfg
    }

    fn addr(vm: u32, vcpu: u32) -> VcpuAddr {
        VcpuAddr::new(VmId::new(vm), VcpuId::new(vcpu))
    }

    #[test]
    fn lister_relists_only_when_the_epoch_cannot_prove_it_unchanged() {
        let cfg = two_shards();
        let mut backend = crate::monitor::tests::FakeBackend::new(2, 1);
        let mut p = ShardedPipeline::new(&cfg);
        // No epoch: every period re-lists; same contents, same generation.
        run(&mut p, &backend, &cfg);
        let generation = p.generation();
        run(&mut p, &backend, &cfg);
        assert_eq!(backend.listings.get(), 2);
        assert_eq!(p.generation(), generation);
        // A stable epoch skips the listing after one real re-list.
        backend.epoch = Some(7);
        run(&mut p, &backend, &cfg);
        run(&mut p, &backend, &cfg);
        assert_eq!(backend.listings.get(), 3);
        // A moved epoch re-lists; new contents bump the generation and
        // repartition.
        backend.vms.pop();
        backend.epoch = Some(8);
        let repartitions = p.repartitions();
        run(&mut p, &backend, &cfg);
        assert_eq!(backend.listings.get(), 4);
        assert_eq!(p.generation(), generation + 1);
        assert_eq!(p.repartitions(), repartitions + 1);
        assert_eq!(p.inventory().len(), 1);
        assert_eq!(p.observations().len(), 1);
    }

    #[test]
    fn vanished_vm_leaves_the_inventory_and_forces_a_relist() {
        let cfg = two_shards();
        let mut backend = crate::monitor::tests::FakeBackend::new(2, 2);
        backend.epoch = Some(1);
        let mut p = ShardedPipeline::new(&cfg);
        run(&mut p, &backend, &cfg);
        run(&mut p, &backend, &cfg);
        assert_eq!(p.export_histories().len(), 4);
        let generation = p.generation();

        // VM 0's cgroups vanish, but the backend's epoch does not move.
        backend.vanished = Some(VmId::new(0));
        run(&mut p, &backend, &cfg);
        assert_eq!(p.vanished(), [VmId::new(0)]);
        assert_eq!(p.inventory().len(), 1, "vanished VM removed from inventory");
        assert_eq!(p.inventory()[0].vm, VmId::new(1));
        assert_eq!(p.generation(), generation + 1);
        assert!(p.observations().iter().all(|o| o.addr.vm == VmId::new(1)));
        assert_eq!(p.usage_baseline(addr(0, 0)), None);
        assert!(
            p.export_histories()
                .iter()
                .all(|(a, _)| a.vm == VmId::new(1)),
            "the global prune drops the vanished VM's histories"
        );

        // The next period re-lists despite the unchanged epoch, and the
        // VM is observed again from scratch.
        let listings = backend.listings.get();
        backend.vanished = None;
        run(&mut p, &backend, &cfg);
        assert_eq!(backend.listings.get(), listings + 1);
        assert!(p.vanished().is_empty());
        assert_eq!(p.inventory().len(), 2);
        assert_eq!(p.observations().len(), 4);
    }

    #[test]
    fn departed_vcpus_lose_baselines_and_histories() {
        let cfg = two_shards();
        let mut backend = crate::monitor::tests::FakeBackend::new(2, 2);
        let mut p = ShardedPipeline::new(&cfg);
        run(&mut p, &backend, &cfg);
        run(&mut p, &backend, &cfg);
        // VM 1 departs and VM 0 shrinks to one vCPU.
        backend.vms.pop();
        backend.vms[0].nr_vcpus = 1;
        run(&mut p, &backend, &cfg);
        assert!(p.usage_baseline(addr(0, 0)).is_some());
        for gone in [addr(0, 1), addr(1, 0), addr(1, 1)] {
            assert_eq!(p.usage_baseline(gone), None, "{gone:?}");
        }
        let kept: Vec<VcpuAddr> = p.export_histories().iter().map(|(a, _)| *a).collect();
        assert_eq!(kept, [addr(0, 0)]);
    }

    #[test]
    fn skipped_vcpu_history_is_pruned_after_the_merge() {
        // One vCPU per shard. The estimator itself never prunes; the
        // pipeline's prune after the merge drops the history of the
        // vCPU that got no observation and keeps the other one.
        let mut cfg = two_shards();
        cfg.stale_sample_ttl = 0;
        let mut backend = crate::monitor::tests::FakeBackend::new(2, 1);
        let mut p = ShardedPipeline::new(&cfg);
        run(&mut p, &backend, &cfg);
        run(&mut p, &backend, &cfg);
        backend
            .fail_usage
            .insert(addr(0, 0), std::io::ErrorKind::TimedOut);
        let estimates = run(&mut p, &backend, &cfg);
        assert_eq!(p.skipped(), [addr(0, 0)]);
        assert_eq!(estimates.len(), 1);
        let histories = p.export_histories();
        assert_eq!(histories.len(), 1);
        assert_eq!(histories[0], (addr(1, 0), vec![0, 0, 0]));
    }
}
