//! Thread → core placement.
//!
//! §III.B.1 of the paper rests on one scheduler behaviour: *vCPU threads
//! with high workload are moved less often than vCPU threads with low
//! workload* — which is why reading `/proc/{tid}/stat` once per second is
//! enough to locate the busy threads whose frequency matters. The placer
//! reproduces exactly that: a thread's probability of migrating away from
//! its previous core decreases linearly with its load.
//!
//! Within a tick a thread may run on several cores (load balancing); the
//! *primary* core — where it spent the most time — is what `/proc` reports
//! in field 39, and is what we record.

use vfc_simcore::{CpuId, FastMap, Micros, SplitMix64, Tid};

/// One thread's placement inside a [`PlacementBuf`]: a `(start, len)`
/// window into the buffer's flat slice array.
#[derive(Debug, Clone, Copy)]
pub struct PlacedThread {
    /// The thread.
    pub tid: Tid,
    start: u32,
    len: u32,
}

/// Reusable output and scratch buffers for [`Placer::place_into`].
///
/// The per-tick engine calls the placer once per host tick; routing the
/// result through one flat buffer, and keeping every scratch array here,
/// means a warm tick allocates nothing.
#[derive(Debug, Default)]
pub struct PlacementBuf {
    /// One entry per placed thread, in packing order (largest first).
    pub entries: Vec<PlacedThread>,
    /// Busy time per core.
    pub core_busy: Vec<Micros>,
    slices: Vec<(CpuId, Micros)>,
    order: Vec<(Tid, Micros)>,
    /// Free time per core, padded with zero-room cores up to the next
    /// power of two so `winners` is a complete binary tree.
    remaining: Vec<Micros>,
    /// Winner (tournament) tree over `remaining`: leaf `width + i` holds
    /// core `i`, inner node `k` the better of nodes `2k` and `2k + 1`,
    /// and node 1 the emptiest core. Node 0 is unused. Empty until the
    /// tick's first spill needs it, so a tick in which every thread
    /// fits its sticky core never builds it.
    winners: Vec<u32>,
}

impl PlacementBuf {
    /// Per-core time slices of one entry, largest first.
    pub fn slices_of(&self, e: &PlacedThread) -> &[(CpuId, Micros)] {
        &self.slices[e.start as usize..(e.start + e.len) as usize]
    }

    /// Give `n` cores `tick` of room each and drop the winner tree.
    fn reset_cores(&mut self, n: usize, tick: Micros) {
        self.remaining.clear();
        self.remaining.resize(n, tick);
        self.remaining.resize(n.next_power_of_two(), Micros::ZERO);
        self.winners.clear();
    }

    /// Build the winner tree over the current `remaining`, O(n).
    fn build_winners(&mut self) {
        let width = self.remaining.len();
        self.winners.resize(2 * width, 0);
        for (i, leaf) in self.winners[width..].iter_mut().enumerate() {
            *leaf = i as u32;
        }
        for k in (1..width).rev() {
            self.winners[k] = self.better(self.winners[2 * k], self.winners[2 * k + 1]);
        }
    }

    /// Of two cores with `a < b`: the one with more room, `a` on a tie.
    /// Every left subtree holds lower core indices than its right
    /// sibling, so the root is the lowest-indexed core with the most
    /// room; padding cores have zero room and the highest indices, so
    /// they never beat a real core.
    fn better(&self, a: u32, b: u32) -> u32 {
        if self.remaining[b as usize] > self.remaining[a as usize] {
            b
        } else {
            a
        }
    }

    /// The core with the most room (lowest index on ties) and its room.
    fn emptiest(&mut self) -> (usize, Micros) {
        if self.winners.is_empty() {
            self.build_winners();
        }
        let core = self.winners[1] as usize;
        (core, self.remaining[core])
    }

    /// Charge `got` to `core` and, once the tree is built, replay the
    /// core's matches to the root, O(log n).
    fn take(&mut self, core: usize, got: Micros) {
        self.remaining[core] -= got;
        if self.winners.is_empty() {
            return;
        }
        let mut k = self.winners.len() / 2 + core;
        while k > 1 {
            k /= 2;
            self.winners[k] = self.better(self.winners[2 * k], self.winners[2 * k + 1]);
        }
    }
}

/// Sticky, load-aware placer.
#[derive(Debug)]
pub struct Placer {
    nr_cpus: u32,
    /// Preferred (last primary) core per thread.
    sticky: FastMap<Tid, CpuId>,
    /// Base migration probability for an idle thread; a fully-loaded
    /// thread migrates with probability `base × (1 − load)² ≈ 0`.
    base_migration: f64,
    rng: SplitMix64,
}

impl Placer {
    /// Placer for a node with `nr_cpus` hardware threads.
    pub fn new(nr_cpus: u32, seed: u64) -> Self {
        Placer {
            nr_cpus,
            sticky: FastMap::default(),
            base_migration: 0.8,
            rng: SplitMix64::new(seed),
        }
    }

    /// Override the idle-thread migration probability (default 0.8/tick).
    pub fn with_base_migration(mut self, p: f64) -> Self {
        self.base_migration = p.clamp(0.0, 1.0);
        self
    }

    /// Place one tick's allocations onto cores, into a caller-owned
    /// [`PlacementBuf`].
    ///
    /// `allocs` is (thread, granted CPU time this tick); `tick` is the tick
    /// length (per-core capacity). The buffer receives the placements plus
    /// per-core busy time. Threads are packed largest-first; a thread whose
    /// preferred core lacks room spills the remainder onto the emptiest
    /// cores (most room first, lowest index on ties), like CFS load
    /// balancing does. The emptiest core comes from a winner tree, so a
    /// tick costs O(C + T log C) for T threads on C cores.
    pub fn place_into(&mut self, allocs: &[(Tid, Micros)], tick: Micros, buf: &mut PlacementBuf) {
        buf.entries.clear();
        buf.slices.clear();
        buf.reset_cores(self.nr_cpus as usize, tick);

        // Largest first for tight packing; tid tiebreak for determinism.
        // The key is a total order, so the unstable (non-allocating) sort
        // yields the same order as a stable one.
        buf.order.clear();
        buf.order.extend_from_slice(allocs);
        buf.order
            .sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        for oi in 0..buf.order.len() {
            let (tid, want) = buf.order[oi];
            let start = buf.slices.len() as u32;
            if want.is_zero() {
                // Idle threads still have a location; maybe migrate it.
                let cur = *self
                    .sticky
                    .entry(tid)
                    .or_insert_with(|| CpuId::new((tid.as_u32()) % self.nr_cpus.max(1)));
                let cur = if self.rng.chance(self.base_migration) {
                    CpuId::new(self.rng.next_below(self.nr_cpus as u64) as u32)
                } else {
                    cur
                };
                self.sticky.insert(tid, cur);
                buf.slices.push((cur, Micros::ZERO));
                buf.entries.push(PlacedThread { tid, start, len: 1 });
                continue;
            }

            let load = want.ratio_of(tick).clamp(0.0, 1.0);
            let p_migrate = self.base_migration * (1.0 - load) * (1.0 - load);
            let preferred = match self.sticky.get(&tid) {
                Some(&c) if !self.rng.chance(p_migrate) => Some(c),
                _ => None,
            };

            let mut left = want;

            // Try the sticky core first.
            if let Some(c) = preferred {
                let got = left.min(buf.remaining[c.as_usize()]);
                if !got.is_zero() {
                    buf.take(c.as_usize(), got);
                    buf.slices.push((c, got));
                    left -= got;
                }
            }

            // Spill to the emptiest cores.
            while !left.is_zero() {
                let (idx, room) = buf.emptiest();
                if room.is_zero() {
                    // Node over-committed beyond capacity: drop remainder.
                    // (The fair scheduler never allocates more than
                    // nr_cpus × tick, so this is unreachable from the
                    // engine; kept for standalone robustness.)
                    break;
                }
                let got = left.min(room);
                buf.take(idx, got);
                buf.slices.push((CpuId::new(idx as u32), got));
                left -= got;
            }

            let slices = &mut buf.slices[start as usize..];
            slices.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            if let Some((primary, _)) = slices.first() {
                self.sticky.insert(tid, *primary);
            }
            let len = buf.slices.len() as u32 - start;
            buf.entries.push(PlacedThread { tid, start, len });
        }

        let n = self.nr_cpus as usize;
        buf.core_busy.clear();
        buf.core_busy
            .extend(buf.remaining[..n].iter().map(|r| tick - *r));
    }

    /// Last primary core of a thread (procfs emulation between ticks).
    pub fn last_cpu(&self, tid: Tid) -> Option<CpuId> {
        self.sticky.get(&tid).copied()
    }

    /// Count of migrations is not tracked directly; expose stickiness for
    /// tests via the preferred-core table size.
    pub fn tracked_threads(&self) -> usize {
        self.sticky.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    const TICK: Micros = Micros(100_000);

    /// One tick's placement keyed by thread, plus per-core busy time.
    type Placed = (HashMap<Tid, Vec<(CpuId, Micros)>>, Vec<Micros>);

    fn place(p: &mut Placer, allocs: &[(Tid, Micros)]) -> Placed {
        let mut buf = PlacementBuf::default();
        p.place_into(allocs, TICK, &mut buf);
        let out = buf
            .entries
            .iter()
            .map(|e| (e.tid, buf.slices_of(e).to_vec()))
            .collect();
        (out, buf.core_busy)
    }

    fn total(slices: &[(CpuId, Micros)]) -> Micros {
        slices.iter().map(|(_, t)| *t).sum()
    }

    fn primary(slices: &[(CpuId, Micros)]) -> CpuId {
        slices[0].0
    }

    fn total_busy(busy: &[Micros]) -> Micros {
        busy.iter().copied().sum()
    }

    #[test]
    fn single_thread_fits_one_core() {
        let mut p = Placer::new(4, 1);
        let (out, busy) = place(&mut p, &[(Tid::new(1), Micros(60_000))]);
        let pl = &out[&Tid::new(1)];
        assert_eq!(pl.len(), 1);
        assert_eq!(total(pl), Micros(60_000));
        assert_eq!(total_busy(&busy), Micros(60_000));
    }

    #[test]
    fn full_load_threads_fill_all_cores() {
        let mut p = Placer::new(2, 1);
        let allocs: Vec<_> = (0..2).map(|i| (Tid::new(i), TICK)).collect();
        let (out, busy) = place(&mut p, &allocs);
        assert_eq!(total_busy(&busy), Micros(200_000));
        let cores: Vec<CpuId> = out.values().map(|pl| primary(pl)).collect();
        assert_ne!(cores[0], cores[1], "two full threads on distinct cores");
    }

    #[test]
    fn oversized_demand_splits_across_cores() {
        // 3 threads of 80k on 2 cores (200k capacity): 240k demanded but
        // the engine would never allocate that; here allocs are already
        // feasible: 70k+70k+60k = 200k.
        let mut p = Placer::new(2, 1);
        let allocs = vec![
            (Tid::new(1), Micros(70_000)),
            (Tid::new(2), Micros(70_000)),
            (Tid::new(3), Micros(60_000)),
        ];
        let (out, busy) = place(&mut p, &allocs);
        assert_eq!(total_busy(&busy), Micros(200_000));
        // Everyone got everything they asked for.
        for (tid, want) in allocs {
            assert_eq!(total(&out[&tid]), want);
        }
        // The last-placed thread must have been split.
        let split = out.values().filter(|pl| pl.len() > 1).count();
        assert_eq!(split, 1);
    }

    #[test]
    fn busy_threads_are_sticky() {
        let mut p = Placer::new(8, 7);
        let tid = Tid::new(9);
        let (out, _) = place(&mut p, &[(tid, TICK)]);
        let first = primary(&out[&tid]);
        let mut moved = 0;
        for _ in 0..100 {
            let (out, _) = place(&mut p, &[(tid, TICK)]);
            if primary(&out[&tid]) != first {
                moved += 1;
            }
        }
        assert_eq!(moved, 0, "a fully-loaded thread never migrates");
    }

    #[test]
    fn idle_threads_wander() {
        let mut p = Placer::new(8, 7);
        let tid = Tid::new(9);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let (out, _) = place(&mut p, &[(tid, Micros::ZERO)]);
            seen.insert(primary(&out[&tid]));
        }
        assert!(seen.len() > 3, "idle thread visited {} cores", seen.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut p = Placer::new(4, 99);
            let allocs: Vec<_> = (0..6)
                .map(|i| (Tid::new(i), Micros(30_000 + 1000 * i as u64)))
                .collect();
            let mut trace = Vec::new();
            for _ in 0..20 {
                let (out, _) = place(&mut p, &allocs);
                let mut v: Vec<_> = out.iter().map(|(t, pl)| (*t, primary(pl))).collect();
                v.sort();
                trace.push(v);
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_alloc_thread_reports_a_location() {
        let mut p = Placer::new(4, 3);
        let (out, busy) = place(&mut p, &[(Tid::new(5), Micros::ZERO)]);
        assert_eq!(total(&out[&Tid::new(5)]), Micros::ZERO);
        assert_eq!(total_busy(&busy), Micros::ZERO);
        assert!(primary(&out[&Tid::new(5)]).as_u32() < 4);
    }

    // ---- oracle: the linear-scan spill ---------------------------------

    /// Reference placer for [`Placer::place_into`]: every spill scans all
    /// cores for the one with the most room (lowest index on ties), and
    /// the packing order comes from a stable sort.
    fn place_by_scan(
        p: &mut Placer,
        allocs: &[(Tid, Micros)],
        tick: Micros,
        buf: &mut PlacementBuf,
    ) {
        let n = p.nr_cpus as usize;
        buf.entries.clear();
        buf.slices.clear();
        buf.remaining.clear();
        buf.remaining.resize(n, tick);

        buf.order.clear();
        buf.order.extend_from_slice(allocs);
        buf.order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        for oi in 0..buf.order.len() {
            let (tid, want) = buf.order[oi];
            let start = buf.slices.len() as u32;
            if want.is_zero() {
                let cur = *p
                    .sticky
                    .entry(tid)
                    .or_insert_with(|| CpuId::new((tid.as_u32()) % p.nr_cpus.max(1)));
                let cur = if p.rng.chance(p.base_migration) {
                    CpuId::new(p.rng.next_below(p.nr_cpus as u64) as u32)
                } else {
                    cur
                };
                p.sticky.insert(tid, cur);
                buf.slices.push((cur, Micros::ZERO));
                buf.entries.push(PlacedThread { tid, start, len: 1 });
                continue;
            }

            let load = want.ratio_of(tick).clamp(0.0, 1.0);
            let p_migrate = p.base_migration * (1.0 - load) * (1.0 - load);
            let preferred = match p.sticky.get(&tid) {
                Some(&c) if !p.rng.chance(p_migrate) => Some(c),
                _ => None,
            };

            let mut left = want;
            if let Some(c) = preferred {
                let got = left.min(buf.remaining[c.as_usize()]);
                if !got.is_zero() {
                    buf.remaining[c.as_usize()] -= got;
                    buf.slices.push((c, got));
                    left -= got;
                }
            }
            while !left.is_zero() {
                let (idx, &room) = buf
                    .remaining
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, r)| (**r, usize::MAX - *i))
                    .expect("at least one core");
                if room.is_zero() {
                    break;
                }
                let got = left.min(room);
                buf.remaining[idx] -= got;
                buf.slices.push((CpuId::new(idx as u32), got));
                left -= got;
            }

            let slices = &mut buf.slices[start as usize..];
            slices.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            if let Some((primary, _)) = slices.first() {
                p.sticky.insert(tid, *primary);
            }
            let len = buf.slices.len() as u32 - start;
            buf.entries.push(PlacedThread { tid, start, len });
        }

        buf.core_busy.clear();
        buf.core_busy
            .extend(buf.remaining.iter().map(|r| tick - *r));
    }

    /// How a generated tick loads the node.
    #[derive(Debug, Clone, Copy)]
    enum Load {
        /// A mix of idle, partial and full-tick threads, clamped to the
        /// node's capacity the way the fair scheduler clamps it.
        Feasible,
        /// Exactly `nr_cpus × tick`: every core ends the tick full.
        EveryCoreFull,
        /// More than the node holds: the placer drops the remainder.
        Overcommitted,
    }

    /// One tick's allocations for threads `0..threads`. Partial grants
    /// are often multiples of 25 ms so cores tie on free time and the
    /// tie-break decides.
    fn gen_allocs(
        rng: &mut SplitMix64,
        threads: u32,
        nr_cpus: u32,
        load: Load,
    ) -> Vec<(Tid, Micros)> {
        let tick = TICK.as_u64();
        let mut wants: Vec<u64> = (0..threads)
            .map(|_| match rng.next_below(4) {
                0 => 0,
                1 => tick,
                2 => 25_000 * rng.range_inclusive(1, 3),
                _ => rng.range_inclusive(1, tick - 1),
            })
            .collect();
        let capacity = nr_cpus as u64 * tick;
        match load {
            Load::Feasible => {}
            Load::EveryCoreFull => {
                // Top up until the node is covered, then trim to fit.
                let mut sum: u64 = wants.iter().sum();
                for w in wants.iter_mut() {
                    if sum >= capacity {
                        break;
                    }
                    sum += tick - *w;
                    *w = tick;
                }
            }
            Load::Overcommitted => {
                wants.iter_mut().for_each(|w| *w = (*w).max(tick / 2));
                wants.push(tick);
                return wants
                    .into_iter()
                    .enumerate()
                    .map(|(i, w)| (Tid::new(i as u32), Micros(w)))
                    .collect();
            }
        }
        let mut budget = capacity;
        wants
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                let w = w.min(budget);
                budget -= w;
                (Tid::new(i as u32), Micros(w))
            })
            .collect()
    }

    /// Everything a tick's placement exposes: per-entry thread and
    /// slices in packing order, then per-core busy time.
    type Observed = (Vec<(Tid, Vec<(CpuId, Micros)>)>, Vec<Micros>);

    fn observe(buf: &PlacementBuf) -> Observed {
        let entries = buf
            .entries
            .iter()
            .map(|e| (e.tid, buf.slices_of(e).to_vec()))
            .collect();
        (entries, buf.core_busy.clone())
    }

    /// Run the winner-tree placer and the scan oracle side by side for
    /// several ticks, each on its own long-lived `Placer` with the same
    /// seed, and return the first tick on which they differ.
    fn first_divergence(nr_cpus: u32, threads: u32, seed: u64, load: Load) -> Option<String> {
        let mut rng = SplitMix64::new(seed ^ 0xA11C);
        let mut fast = Placer::new(nr_cpus, seed);
        let mut oracle = Placer::new(nr_cpus, seed);
        let (mut fast_buf, mut oracle_buf) = (PlacementBuf::default(), PlacementBuf::default());
        for tick in 0..4 {
            let allocs = gen_allocs(&mut rng, threads, nr_cpus, load);
            fast.place_into(&allocs, TICK, &mut fast_buf);
            place_by_scan(&mut oracle, &allocs, TICK, &mut oracle_buf);
            if observe(&fast_buf) != observe(&oracle_buf) {
                return Some(format!(
                    "{nr_cpus} cores, {load:?}, tick {tick}: placements differ"
                ));
            }
            for (tid, _) in &allocs {
                if fast.last_cpu(*tid) != oracle.last_cpu(*tid) {
                    return Some(format!(
                        "{nr_cpus} cores, {load:?}, tick {tick}: last_cpu({tid:?}) differs"
                    ));
                }
            }
        }
        None
    }

    const LOADS: [Load; 3] = [Load::Feasible, Load::EveryCoreFull, Load::Overcommitted];

    #[test]
    fn winner_tree_matches_the_scan_at_power_of_two_edges() {
        let edges = [
            1u32, 2, 3, 5, 7, 8, 9, 63, 64, 65, 127, 128, 129, 255, 256, 257, 500, 511, 512, 513,
            600,
        ];
        for nr_cpus in edges {
            for load in LOADS {
                let threads = nr_cpus + nr_cpus / 2 + 1;
                if let Some(diff) = first_divergence(nr_cpus, threads, nr_cpus as u64, load) {
                    panic!("{diff}");
                }
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_placement_conserves_time(
                allocs in proptest::collection::vec(0u64..100_000, 0..24),
                nr_cpus in 1u32..8,
                seed in 0u64..1000,
            ) {
                // Clamp total to node capacity like the engine guarantees.
                let capacity = nr_cpus as u64 * TICK.as_u64();
                let mut feasible = Vec::new();
                let mut budget = capacity;
                for (i, a) in allocs.iter().enumerate() {
                    let a = (*a).min(TICK.as_u64()).min(budget);
                    budget -= a;
                    feasible.push((Tid::new(i as u32), Micros(a)));
                }

                let mut placer = Placer::new(nr_cpus, seed);
                let (out, busy) = place(&mut placer, &feasible);

                // Every thread got exactly its allocation.
                for (tid, want) in &feasible {
                    prop_assert_eq!(total(&out[tid]), *want);
                }
                // No core is over wall clock; busy matches slices.
                let mut per_core = vec![0u64; nr_cpus as usize];
                for placement in out.values() {
                    for (cpu, us) in placement {
                        per_core[cpu.as_usize()] += us.as_u64();
                    }
                }
                for (i, b) in busy.iter().enumerate() {
                    prop_assert_eq!(b.as_u64(), per_core[i]);
                    prop_assert!(b.as_u64() <= TICK.as_u64());
                }
                // Primary core is where the thread ran the most.
                for placement in out.values() {
                    if let Some((_, first)) = placement.first() {
                        for (_, rest) in &placement[1..] {
                            prop_assert!(first >= rest);
                        }
                    }
                }
            }

            #[test]
            fn prop_winner_tree_matches_the_scan(
                nr_cpus in 1u32..=600,
                extra_threads in 0u32..=600,
                seed in 0u64..1_000_000,
                load in 0usize..3,
            ) {
                let threads = nr_cpus + extra_threads;
                let diff = first_divergence(nr_cpus, threads, seed, LOADS[load]);
                prop_assert!(diff.is_none(), "{}", diff.unwrap_or_default());
            }
        }
    }
}
