//! The per-tick host scheduling engine.
//!
//! One [`Engine::tick_into`] models what Linux does over a 100 ms
//! bandwidth period (the default `cpu.max` period):
//!
//! 1. **Hierarchical fair share** — node capacity (`nr_cpus × tick` µs of
//!    CPU time) is distributed over the cgroup tree by weighted
//!    water-filling ([`crate::fair`]); every group is capped by its
//!    `cpu.max` budget and by its subtree demand; every thread by its own
//!    demand and the wall clock (`tick`).
//! 2. **Throttling accounting** — groups that hit their quota get
//!    `nr_throttled`/`throttled_usec` updates in their `cpu.stat`.
//! 3. **Placement** — granted time is packed onto cores with sticky,
//!    load-aware placement ([`crate::place`]).
//! 4. **DVFS** — per-core utilization drives the governor; the resulting
//!    frequencies determine how much *work* (hardware cycles) each thread
//!    actually performed.
//! 5. **Power** — node draw from utilization and average frequency.
//!
//! The engine deliberately knows nothing about VMs: it sees a cgroup tree
//! and per-thread demands, exactly like the kernel.

use crate::dvfs::Governor;
use crate::fair::{water_fill_into, Entity, FillScratch};
use crate::place::{PlacementBuf, Placer};
use crate::power::node_power_w;
use crate::topology::NodeSpec;
use vfc_cgroupfs::tree::{CgroupTree, NodeIdx, ROOT};
use vfc_simcore::{CpuId, Cycles, FastMap, MHz, Micros, Tid};

/// What one thread got out of a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSlice {
    /// CPU time actually run.
    pub ran: Micros,
    /// Core the thread mainly ran on (what `/proc/{tid}/stat` reports).
    pub last_cpu: CpuId,
    /// Hardware cycles performed (`Σ slice_µs × core_MHz`).
    pub work: Cycles,
}

/// Aggregate result of one engine tick.
#[derive(Debug, Clone, Default)]
pub struct TickOutcome {
    /// Per-thread outcome of the tick.
    pub threads: FastMap<Tid, ThreadSlice>,
    /// Frequency each core reported this tick.
    pub core_freqs: Vec<MHz>,
    /// Busy time per core.
    pub core_busy: Vec<Micros>,
    /// Node utilization (busy / capacity) in [0, 1].
    pub utilization: f64,
    /// Node power draw, Watts.
    pub power_w: f64,
}

impl TickOutcome {
    /// Mean frequency across all cores.
    pub fn mean_core_freq(&self) -> MHz {
        if self.core_freqs.is_empty() {
            return MHz::ZERO;
        }
        let sum: u64 = self.core_freqs.iter().map(|f| f.as_u32() as u64).sum();
        MHz((sum / self.core_freqs.len() as u64) as u32)
    }
}

/// Optional last-level-cache contention model.
///
/// §V of the paper flags cache access as future work, and uses cache
/// allocation as its explanation for the small throughput drop of the
/// large instances in the three-class evaluation (Fig. 14). The model is
/// deliberately simple: every *distinct top-level cgroup* (≈ VM) with
/// running threads evicts its co-runners' cache lines, degrading the
/// effective work of every thread by `penalty_per_corunner` per
/// additional active group, floored at `floor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheModel {
    /// Relative work lost per additional co-running VM (e.g. 0.01 = 1 %).
    pub penalty_per_corunner: f64,
    /// Lower bound on the work multiplier (e.g. 0.7).
    pub floor: f64,
}

impl CacheModel {
    /// A mild default: 0.5 % per co-runner, floored at 80 %.
    pub fn mild() -> Self {
        CacheModel {
            penalty_per_corunner: 0.005,
            floor: 0.8,
        }
    }

    /// Work multiplier when `active_groups` VMs run simultaneously.
    pub fn multiplier(&self, active_groups: usize) -> f64 {
        let corunners = active_groups.saturating_sub(1) as f64;
        (1.0 - self.penalty_per_corunner * corunners).max(self.floor)
    }
}

/// Reusable per-tick working memory. Every buffer here used to be a
/// fresh allocation inside each tick; at cluster scale (1,200 hosts ×
/// 10 ticks × 300 periods) those dominated the replay profile, so the
/// engine now owns one set and [`Engine::tick_into`] reuses it.
#[derive(Debug, Default)]
struct Scratch {
    /// Pre-order DFS of the live tree.
    dfs: Vec<NodeIdx>,
    /// Demand-side cap per node, dense by arena index.
    caps: Vec<u64>,
    /// Granted budget per group, dense by arena index.
    group_alloc: Vec<u64>,
    /// Children of the group currently being filled.
    children: Vec<NodeIdx>,
    /// Water-filling entities of the current group.
    entities: Vec<Entity>,
    /// Water-filling output of the current group.
    shares: Vec<u64>,
    fill: FillScratch,
    /// Granted CPU time per thread.
    thread_alloc: FastMap<Tid, Micros>,
    /// Every known thread with its allocation, DFS order.
    all_threads: Vec<(Tid, Micros)>,
    place: PlacementBuf,
    /// Cache model: the VM-level groups whose activity it counts.
    vm_groups: Vec<NodeIdx>,
    /// Cache model: DFS stack of the subtree walk.
    stack: Vec<NodeIdx>,
}

/// Host scheduling engine. See module docs.
#[derive(Debug)]
pub struct Engine {
    spec: NodeSpec,
    tick: Micros,
    governor: Governor,
    placer: Placer,
    /// Frequencies from the last tick (idle cores keep reporting).
    core_freqs: Vec<MHz>,
    cache_model: Option<CacheModel>,
    scratch: Scratch,
}

impl Engine {
    /// Engine with the default 100 ms tick and a schedutil-like governor.
    pub fn new(spec: NodeSpec, seed: u64) -> Self {
        let governor = Governor::new(
            crate::dvfs::GovernorKind::Schedutil,
            spec.min_mhz,
            spec.max_mhz,
            seed ^ 0x9E37_79B9,
        );
        Engine::with_parts(spec, Micros(100_000), governor, seed)
    }

    /// Fully explicit construction.
    pub fn with_parts(spec: NodeSpec, tick: Micros, governor: Governor, seed: u64) -> Self {
        assert!(!tick.is_zero(), "tick must be positive");
        let nr = spec.nr_threads();
        let min = spec.min_mhz;
        Engine {
            placer: Placer::new(nr, seed ^ 0x5151_5151),
            core_freqs: vec![min; nr as usize],
            spec,
            tick,
            governor,
            cache_model: None,
            scratch: Scratch::default(),
        }
    }

    /// Enable the LLC contention model.
    pub fn with_cache_model(mut self, model: CacheModel) -> Self {
        self.cache_model = Some(model);
        self
    }

    /// The node this engine schedules.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// The engine tick length.
    pub fn tick_len(&self) -> Micros {
        self.tick
    }

    /// Current frequency of one core (between ticks, the last reading).
    pub fn core_freq(&self, cpu: CpuId) -> MHz {
        self.core_freqs
            .get(cpu.as_usize())
            .copied()
            .unwrap_or(MHz::ZERO)
    }

    /// Last primary core of a thread, if it ever ran.
    pub fn thread_last_cpu(&self, tid: Tid) -> Option<CpuId> {
        self.placer.last_cpu(tid)
    }

    /// Advance the host by one tick into a caller-owned [`TickOutcome`].
    ///
    /// `demands` maps each thread to the CPU time it *wants* this tick
    /// (clamped to `tick`); absent threads are idle. Usage and throttling
    /// are accounted into `tree`. The outcome and the engine's scratch
    /// buffers are reused, so a warm tick performs no heap allocation
    /// (`crates/vmm/tests/host_tick_alloc.rs` pins this for a whole
    /// `SimHost` tick), which is what makes the 1,200-node trace replay
    /// fast.
    pub fn tick_into(
        &mut self,
        tree: &mut CgroupTree,
        demands: &FastMap<Tid, Micros>,
        out: &mut TickOutcome,
    ) {
        let tick = self.tick;
        let arena = tree.arena_size();
        let Scratch {
            dfs,
            caps,
            group_alloc,
            children,
            entities,
            shares,
            fill,
            thread_alloc,
            all_threads,
            place,
            vm_groups,
            stack,
        } = &mut self.scratch;

        // ---- 1. demand-side caps, bottom-up -------------------------------
        tree.iter_dfs_into(dfs);
        caps.clear();
        caps.resize(arena, 0);
        for &idx in dfs.iter().rev() {
            let node = tree.node(idx);
            let thread_demand: u64 = node
                .threads
                .iter()
                .map(|t| {
                    demands
                        .get(t)
                        .copied()
                        .unwrap_or(Micros::ZERO)
                        .min(tick)
                        .as_u64()
                })
                .sum();
            let child_demand: u64 = tree.children(idx).map(|c| caps[c.0]).sum();
            let raw = thread_demand + child_demand;
            let quota = node.cpu_max.budget_for(tick).as_u64();
            caps[idx.0] = raw.min(quota);
        }

        // ---- 2. allocation, top-down --------------------------------------
        let capacity = (self.spec.nr_threads() as u64) * tick.as_u64();
        thread_alloc.clear();
        group_alloc.clear();
        group_alloc.resize(arena, 0);
        group_alloc[ROOT.0] = capacity.min(caps[ROOT.0]);

        // Pre-order traversal (parents before children); iter_dfs is one.
        for &idx in dfs.iter() {
            let budget = group_alloc[idx.0];
            let node = tree.node(idx);
            children.clear();
            children.extend(tree.children(idx));
            // Entities: child groups first, then direct threads.
            entities.clear();
            for &c in children.iter() {
                entities.push(Entity::new(tree.node(c).weight, caps[c.0]));
            }
            for t in &node.threads {
                let d = demands.get(t).copied().unwrap_or(Micros::ZERO).min(tick);
                entities.push(Entity::new(node.weight, d.as_u64()));
            }
            if entities.is_empty() {
                continue;
            }
            water_fill_into(budget, entities, shares, fill);
            for (i, &c) in children.iter().enumerate() {
                group_alloc[c.0] = shares[i];
            }
            for (k, t) in node.threads.iter().enumerate() {
                thread_alloc.insert(*t, Micros(shares[children.len() + k]));
            }
        }

        // ---- 3. usage + throttling accounting ------------------------------
        // Leaf usage, then per-group periods for limited groups.
        for &idx in dfs.iter() {
            let node = tree.node(idx);
            let has_threads = !node.threads.is_empty();
            let used: Micros = node
                .threads
                .iter()
                .map(|t| thread_alloc.get(t).copied().unwrap_or(Micros::ZERO))
                .sum();
            let unlimited = node.cpu_max.is_unlimited();
            let quota = node.cpu_max.budget_for(tick).as_u64();
            let raw_demand: u64 = if unlimited {
                0
            } else {
                node.threads
                    .iter()
                    .map(|t| {
                        demands
                            .get(t)
                            .copied()
                            .unwrap_or(Micros::ZERO)
                            .min(tick)
                            .as_u64()
                    })
                    .sum::<u64>()
                    + tree.children(idx).map(|c| caps[c.0]).sum::<u64>()
            };
            if has_threads {
                tree.node_mut(idx).cpu_stat.account_usage(used);
            }
            if !unlimited {
                let throttled_for = if raw_demand > quota {
                    Micros(raw_demand - quota)
                } else {
                    Micros::ZERO
                };
                tree.node_mut(idx).cpu_stat.account_period(throttled_for);
            }
        }

        // ---- 4. placement ---------------------------------------------------
        // Include every known thread so idle ones keep a location.
        all_threads.clear();
        for &idx in dfs.iter() {
            for t in &tree.node(idx).threads {
                all_threads.push((*t, thread_alloc.get(t).copied().unwrap_or(Micros::ZERO)));
            }
        }
        self.placer.place_into(all_threads, tick, place);
        let core_busy = &place.core_busy;

        // ---- 5. DVFS ---------------------------------------------------------
        for (i, busy) in core_busy.iter().enumerate() {
            let util = busy.ratio_of(tick);
            self.core_freqs[i] = self.governor.core_freq(util);
        }

        // ---- 6. per-thread work ----------------------------------------------
        // Optional LLC contention: count the distinct VM-level groups that
        // actually ran this tick. VM scopes are marked in the tree (the
        // KVM layout marks its `machine-qemu…scope` groups); plain trees
        // without marks fall back to the children of the root.
        let cache_multiplier = match self.cache_model {
            None => 1.0,
            Some(model) => {
                vm_groups.clear();
                vm_groups.extend(dfs.iter().copied().filter(|&i| tree.node(i).vm_scope));
                if vm_groups.is_empty() {
                    vm_groups.extend(tree.children(ROOT));
                }
                let active_groups = vm_groups
                    .iter()
                    .filter(|&&top| subtree_active(tree, thread_alloc, stack, top))
                    .count();
                model.multiplier(active_groups)
            }
        };

        out.threads.clear();
        for e in place.entries.iter() {
            let slices = place.slices_of(e);
            let mut ran = Micros::ZERO;
            let mut work = Cycles::ZERO;
            for (cpu, us) in slices {
                ran += *us;
                work += Cycles::from_time_at(*us, self.core_freqs[cpu.as_usize()]);
            }
            let work = Cycles((work.as_u64() as f64 * cache_multiplier) as u64);
            let last_cpu = slices.first().map(|(c, _)| *c).unwrap_or(CpuId::new(0));
            out.threads.insert(
                e.tid,
                ThreadSlice {
                    ran,
                    last_cpu,
                    work,
                },
            );
        }

        // ---- 7. power ----------------------------------------------------------
        let total_busy: Micros = core_busy.iter().copied().sum();
        let utilization = total_busy.as_u64() as f64 / capacity as f64;
        let active_freq = {
            let mut weighted = 0u64;
            for (i, busy) in core_busy.iter().enumerate() {
                weighted += busy.as_u64() * self.core_freqs[i].as_u32() as u64;
            }
            if total_busy.is_zero() {
                self.spec.min_mhz
            } else {
                MHz((weighted / total_busy.as_u64()) as u32)
            }
        };
        let power_w = node_power_w(&self.spec, utilization, active_freq);

        out.core_freqs.clear();
        out.core_freqs.extend_from_slice(&self.core_freqs);
        out.core_busy.clear();
        out.core_busy.extend_from_slice(core_busy);
        out.utilization = utilization;
        out.power_w = power_w;
    }
}

/// Does any thread in the subtree under `top` hold CPU time this tick?
/// `stack` is reusable scratch for the walk.
fn subtree_active(
    tree: &CgroupTree,
    thread_alloc: &FastMap<Tid, Micros>,
    stack: &mut Vec<NodeIdx>,
    top: NodeIdx,
) -> bool {
    stack.clear();
    stack.push(top);
    while let Some(idx) = stack.pop() {
        if tree
            .node(idx)
            .threads
            .iter()
            .any(|t| thread_alloc.get(t).is_some_and(|a| !a.is_zero()))
        {
            return true;
        }
        stack.extend(tree.children(idx));
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use vfc_cgroupfs::model::CpuMax;
    use vfc_cgroupfs::tree::ROOT;

    const TICK: Micros = Micros(100_000);

    /// One tick into a fresh outcome.
    fn tick(e: &mut Engine, tree: &mut CgroupTree, demands: &FastMap<Tid, Micros>) -> TickOutcome {
        let mut out = TickOutcome::default();
        e.tick_into(tree, demands, &mut out);
        out
    }

    fn engine(threads: u32) -> Engine {
        let spec = NodeSpec::custom("test", 1, threads, 1, MHz(2400));
        let gov = Governor::new(
            crate::dvfs::GovernorKind::Performance,
            spec.min_mhz,
            spec.max_mhz,
            1,
        )
        .with_noise_std(0.0);
        Engine::with_parts(spec, TICK, gov, 42)
    }

    /// Build `/vmK/vcpuJ`-style two-level trees with one thread per leaf.
    fn build_tree(vms: &[u32]) -> (CgroupTree, Vec<Vec<Tid>>) {
        let mut tree = CgroupTree::new();
        let mut tids = Vec::new();
        let mut next_tid = 100;
        for (k, &vcpus) in vms.iter().enumerate() {
            let scope = tree.mkdir(ROOT, &format!("vm{k}")).unwrap();
            let mut vm_tids = Vec::new();
            for j in 0..vcpus {
                let leaf = tree.mkdir(scope, &format!("vcpu{j}")).unwrap();
                let tid = Tid::new(next_tid);
                next_tid += 1;
                tree.attach_thread(leaf, tid);
                vm_tids.push(tid);
            }
            tids.push(vm_tids);
        }
        (tree, tids)
    }

    fn full_demand(tids: &[Vec<Tid>]) -> FastMap<Tid, Micros> {
        tids.iter().flatten().map(|t| (*t, TICK)).collect()
    }

    #[test]
    fn single_thread_gets_its_demand() {
        let mut e = engine(4);
        let (mut tree, tids) = build_tree(&[1]);
        let demands: FastMap<_, _> = [(tids[0][0], Micros(40_000))].into_iter().collect();
        let out = tick(&mut e, &mut tree, &demands);
        assert_eq!(out.threads[&tids[0][0]].ran, Micros(40_000));
        // Performance governor at 2400: work = 40_000 µs × 2400 MHz.
        assert_eq!(out.threads[&tids[0][0]].work, Cycles(96_000_000));
    }

    #[test]
    fn cfs_shares_per_vm_not_per_vcpu() {
        // The paper's key scenario-A observation: a 2-vCPU VM and a 4-vCPU
        // VM on a saturated host get the *same* VM-level share, so the
        // 2-vCPU VM's vCPUs run faster.
        let mut e = engine(3); // 3 threads of capacity for 6 vCPUs
        let (mut tree, tids) = build_tree(&[2, 4]);
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let vm0: Micros = tids[0].iter().map(|t| out.threads[t].ran).sum();
        let vm1: Micros = tids[1].iter().map(|t| out.threads[t].ran).sum();
        // Equal shares per VM: 150k each out of 300k capacity.
        assert_eq!(vm0, Micros(150_000));
        assert_eq!(vm1, Micros(150_000));
        // So each small vCPU runs 75k, each large vCPU 37.5k.
        assert_eq!(out.threads[&tids[0][0]].ran, Micros(75_000));
        assert_eq!(out.threads[&tids[1][0]].ran, Micros(37_500));
    }

    #[test]
    fn side_experiment_b_one_vcpu_vms_get_four_fifths() {
        // §IV.A.2 b): 40 VMs × 1 vCPU + 10 VMs × 4 vCPUs on 40 threads:
        // each VM gets 1/50 of 40 threads = 0.8 thread; the 1-vCPU VMs
        // together take 32/40 = 4/5 of the node.
        let spec = NodeSpec::custom("test", 1, 40, 1, MHz(2400));
        let gov = Governor::new(
            crate::dvfs::GovernorKind::Performance,
            spec.min_mhz,
            spec.max_mhz,
            1,
        )
        .with_noise_std(0.0);
        let mut e = Engine::with_parts(spec, TICK, gov, 7);
        let mut vms: Vec<u32> = vec![1; 40];
        vms.extend_from_slice(&[4; 10]);
        let (mut tree, tids) = build_tree(&vms);
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let singles: Micros = tids[..40]
            .iter()
            .flatten()
            .map(|t| out.threads[t].ran)
            .sum();
        let total: Micros = tids.iter().flatten().map(|t| out.threads[t].ran).sum();
        let share = singles.ratio_of(total);
        assert!(
            (share - 0.8).abs() < 0.01,
            "1-vCPU VMs got {share} of the node"
        );
    }

    #[test]
    fn quota_caps_a_group() {
        let mut e = engine(4);
        let (mut tree, tids) = build_tree(&[1]);
        // Cap vm0 at 25 % of one CPU.
        let leaf = tree.resolve("/vm0/vcpu0").unwrap();
        tree.node_mut(leaf).cpu_max = CpuMax::limited(Micros(25_000));
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        assert_eq!(out.threads[&tids[0][0]].ran, Micros(25_000));
        // Throttle accounting happened.
        let stat = tree.node(leaf).cpu_stat;
        assert_eq!(stat.nr_periods, 1);
        assert_eq!(stat.nr_throttled, 1);
        assert_eq!(stat.throttled_usec, Micros(75_000));
    }

    #[test]
    fn quota_on_parent_caps_subtree() {
        let mut e = engine(4);
        let (mut tree, tids) = build_tree(&[2]);
        let scope = tree.resolve("/vm0").unwrap();
        tree.node_mut(scope).cpu_max = CpuMax::limited(Micros(50_000));
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let total: Micros = tids[0].iter().map(|t| out.threads[t].ran).sum();
        assert_eq!(total, Micros(50_000));
        // Fairly split between the two vCPUs.
        assert_eq!(out.threads[&tids[0][0]].ran, Micros(25_000));
    }

    #[test]
    fn unthrottled_group_has_no_periods() {
        let mut e = engine(2);
        let (mut tree, tids) = build_tree(&[1]);
        let demands = full_demand(&tids);
        tick(&mut e, &mut tree, &demands);
        let leaf = tree.resolve("/vm0/vcpu0").unwrap();
        assert_eq!(tree.node(leaf).cpu_stat.nr_periods, 0);
        assert_eq!(tree.node(leaf).cpu_stat.usage_usec, TICK);
    }

    #[test]
    fn work_conservation_across_tree() {
        // Demand far exceeds capacity: every µs of the node must be used.
        let mut e = engine(2);
        let (mut tree, tids) = build_tree(&[3, 2, 1]);
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let total: Micros = tids.iter().flatten().map(|t| out.threads[t].ran).sum();
        assert_eq!(total, Micros(200_000));
        assert!((out.utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn idle_node_uses_no_time() {
        let mut e = engine(2);
        let (mut tree, tids) = build_tree(&[2]);
        let demands: FastMap<Tid, Micros> = tids[0].iter().map(|t| (*t, Micros::ZERO)).collect();
        let out = tick(&mut e, &mut tree, &demands);
        assert_eq!(out.utilization, 0.0);
        let total: Micros = tids[0].iter().map(|t| out.threads[t].ran).sum();
        assert_eq!(total, Micros::ZERO);
        // Power is the idle floor.
        assert!((out.power_w - e.spec().idle_power_w).abs() < 1e-9);
    }

    #[test]
    fn usage_accumulates_across_ticks() {
        let mut e = engine(1);
        let (mut tree, tids) = build_tree(&[1]);
        let demands = full_demand(&tids);
        for _ in 0..5 {
            tick(&mut e, &mut tree, &demands);
        }
        let leaf = tree.resolve("/vm0/vcpu0").unwrap();
        assert_eq!(tree.node(leaf).cpu_stat.usage_usec, Micros(500_000));
    }

    #[test]
    fn weights_shift_vm_shares() {
        let mut e = engine(1);
        let (mut tree, tids) = build_tree(&[1, 1]);
        let vm0 = tree.resolve("/vm0").unwrap();
        tree.node_mut(vm0).weight = 200; // double weight
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        let a = out.threads[&tids[0][0]].ran.as_u64() as f64;
        let b = out.threads[&tids[1][0]].ran.as_u64() as f64;
        // 2:1 within integer-µs dust.
        assert!((a / b - 2.0).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn cache_model_multiplier_shape() {
        let m = CacheModel::mild();
        assert_eq!(m.multiplier(0), 1.0);
        assert_eq!(m.multiplier(1), 1.0, "a lone VM pays nothing");
        assert!((m.multiplier(2) - 0.995).abs() < 1e-12);
        assert_eq!(m.multiplier(1000), 0.8, "floored");
    }

    #[test]
    fn cache_contention_degrades_corunning_work_only() {
        let spec = NodeSpec::custom("c", 1, 4, 1, MHz(2400));
        let make = |cache: bool| {
            let gov = Governor::new(
                crate::dvfs::GovernorKind::Performance,
                spec.min_mhz,
                spec.max_mhz,
                1,
            )
            .with_noise_std(0.0);
            let e = Engine::with_parts(spec.clone(), TICK, gov, 42);
            if cache {
                e.with_cache_model(CacheModel {
                    penalty_per_corunner: 0.02,
                    floor: 0.5,
                })
            } else {
                e
            }
        };

        // Lone VM: identical work with and without the model.
        for cache in [false, true] {
            let mut e = make(cache);
            let (mut tree, tids) = build_tree(&[2]);
            let out = tick(&mut e, &mut tree, &full_demand(&tids));
            assert_eq!(
                out.threads[&tids[0][0]].work,
                Cycles(240_000_000),
                "cache={cache}: lone VM at full speed"
            );
        }

        // Three co-running VMs: 2 × 2 % penalty.
        let mut e = make(true);
        let (mut tree, tids) = build_tree(&[1, 1, 1]);
        let out = tick(&mut e, &mut tree, &full_demand(&tids));
        let w = out.threads[&tids[0][0]].work.as_u64() as f64;
        let expected = 240_000_000.0 * 0.96;
        assert!(
            (w - expected).abs() / expected < 1e-6,
            "expected {expected}, got {w}"
        );
        // CPU time accounting is unaffected — only the work degrades.
        assert_eq!(out.threads[&tids[0][0]].ran, TICK);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// One VM's shape: vCPU count, optional quota, per-vCPU demands.
        type VmShape = (u32, Option<u64>, Vec<u64>);

        /// Random two-level VM trees with optional per-VM quotas and
        /// arbitrary demands.
        fn arb_setup() -> impl Strategy<Value = (Vec<VmShape>, u32)> {
            // (vcpu demands µs, quota µs per 100 ms tick) per VM; thread
            // count of the node.
            (
                proptest::collection::vec(
                    (
                        proptest::option::of(1_000u64..150_000),
                        proptest::collection::vec(0u64..120_000, 1..4),
                    )
                        .prop_map(|(q, d)| (d.len() as u32, q, d)),
                    1..6,
                ),
                1u32..6,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_tick_invariants((vms, threads) in arb_setup()) {
                let spec = NodeSpec::custom("p", 1, threads, 1, MHz(2400));
                let gov = Governor::new(
                    crate::dvfs::GovernorKind::Performance,
                    spec.min_mhz,
                    spec.max_mhz,
                    1,
                )
                .with_noise_std(0.0);
                let mut engine = Engine::with_parts(spec, TICK, gov, 5);

                let mut tree = CgroupTree::new();
                let mut demands = FastMap::default();
                let mut groups = Vec::new();
                let mut tid_n = 100u32;
                for (k, (_, quota, ds)) in vms.iter().enumerate() {
                    let scope = tree.mkdir(ROOT, &format!("vm{k}")).expect("fresh");
                    if let Some(q) = quota {
                        tree.node_mut(scope).cpu_max =
                            CpuMax::with_period(Micros(*q), Micros(100_000));
                    }
                    let mut tids = Vec::new();
                    for (j, d) in ds.iter().enumerate() {
                        let leaf =
                            tree.mkdir(scope, &format!("vcpu{j}")).expect("fresh");
                        let tid = Tid::new(tid_n);
                        tid_n += 1;
                        tree.attach_thread(leaf, tid);
                        demands.insert(tid, Micros(*d));
                        tids.push(tid);
                    }
                    groups.push((scope, *quota, tids, ds.clone()));
                }

                let out = tick(&mut engine, &mut tree, &demands);
                let capacity = threads as u64 * TICK.as_u64();

                // (1) Node capacity respected.
                let total: u64 = out
                    .threads
                    .values()
                    .map(|s| s.ran.as_u64())
                    .sum();
                prop_assert!(total <= capacity, "{total} > {capacity}");

                // (2) Nobody runs longer than it asked (clamped to tick).
                for (tid, slice) in &out.threads {
                    let want = demands[tid].min(TICK);
                    prop_assert!(slice.ran <= want);
                }

                // (3) Per-VM quota budgets hold.
                for (_, quota, tids, _) in &groups {
                    if let Some(q) = quota {
                        let used: u64 = tids
                            .iter()
                            .map(|t| out.threads[t].ran.as_u64())
                            .sum();
                        prop_assert!(used <= *q, "used {used} > quota {q}");
                    }
                }

                // (4) Work conservation without quotas: all feasible
                // demand is served.
                if vms.iter().all(|(_, q, _)| q.is_none()) {
                    let feasible: u64 = demands
                        .values()
                        .map(|d| (*d).min(TICK).as_u64())
                        .sum();
                    prop_assert_eq!(total, feasible.min(capacity));
                }

                // (5) Usage accounting matches the outcome.
                let accounted: u64 = groups
                    .iter()
                    .flat_map(|(_, _, tids, _)| tids.iter())
                    .map(|t| out.threads[t].ran.as_u64())
                    .sum();
                let from_tree: u64 = tree
                    .iter_dfs()
                    .iter()
                    .map(|&i| tree.node(i).cpu_stat.usage_usec.as_u64())
                    .sum();
                prop_assert_eq!(accounted, from_tree);
            }
        }
    }

    #[test]
    fn outcome_mean_freq_and_last_cpu() {
        let mut e = engine(2);
        let (mut tree, tids) = build_tree(&[1]);
        let demands = full_demand(&tids);
        let out = tick(&mut e, &mut tree, &demands);
        assert_eq!(out.mean_core_freq(), MHz(2400));
        let tid = tids[0][0];
        assert_eq!(e.thread_last_cpu(tid), Some(out.threads[&tid].last_cpu));
        assert!(e.core_freq(out.threads[&tid].last_cpu) > MHz::ZERO);
    }
}
