//! A std-only data-parallel fan-out over mutable slices, shared by the
//! cluster's per-period node advance and the controller's stage-1/2
//! shard runner.
//!
//! The slice is cut into `workers` **positional** chunks of
//! `ceil(len / workers)` items. Each chunk runs on its own
//! [`std::thread::scope`] thread, except chunk 0, which the calling
//! thread works itself. [`for_each_selected`] keeps that cut over the
//! *whole* slice and spawns no thread for a chunk with nothing
//! selected. Callers whose items are independent get identical results
//! at every worker count.
//!
//! The worker count is one process-wide cap ([`set_max_workers`]): `0`
//! (the default) means one worker per available core; any other value
//! is honoured as given, even above the core count, so equivalence
//! tests exercise the real split on a 1-core machine.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker cap: 0 = one worker per available core.
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Cap (or force) the worker count of every later fan-out in the
/// process. `0` restores the default, one worker per available core.
pub fn set_max_workers(n: usize) {
    MAX_WORKERS.store(n, Ordering::Relaxed);
}

/// The worker count the next fan-out splits into (before clamping to
/// the slice length).
pub fn max_workers() -> usize {
    match MAX_WORKERS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        cap => cap,
    }
}

/// Run `f` on every item of `items`.
pub fn for_each_mut<T: Send, F: Fn(&mut T) + Sync>(items: &mut [T], f: F) {
    fan_out(items, None, &f);
}

/// Run `f` on `items[i]` for every `i` in `selected`, which must be
/// strictly ascending and in range.
pub fn for_each_selected<T: Send, F: Fn(&mut T) + Sync>(items: &mut [T], selected: &[usize], f: F) {
    debug_assert!(
        selected.windows(2).all(|w| w[0] < w[1]),
        "unsorted selection"
    );
    fan_out(items, Some(selected), &f);
}

/// The one partition both entry points share; `None` selects every
/// item. Chunks are walked last to first, so chunk 0 runs on the caller
/// after every other chunk has been spawned.
fn fan_out<T: Send, F: Fn(&mut T) + Sync>(items: &mut [T], selected: Option<&[usize]>, f: &F) {
    let workers = max_workers().min(items.len());
    if workers <= 1 {
        return visit(items, 0, selected, f);
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|s| {
        let mut rest = selected;
        for (c, part) in items.chunks_mut(chunk).enumerate().rev() {
            let base = c * chunk;
            let mine = rest.map(|sel| {
                let (head, mine) = sel.split_at(sel.partition_point(|&i| i < base));
                rest = Some(head);
                mine
            });
            if mine.is_some_and(<[usize]>::is_empty) {
                continue;
            }
            if c == 0 {
                visit(part, 0, mine, f);
            } else {
                s.spawn(move || visit(part, base, mine, f));
            }
        }
    });
}

/// One chunk's share: every item of `part`, or the selected ones
/// (absolute indices; `base` is the chunk's first index).
fn visit<T, F: Fn(&mut T)>(part: &mut [T], base: usize, selected: Option<&[usize]>, f: &F) {
    match selected {
        None => part.iter_mut().for_each(f),
        Some(sel) => sel.iter().for_each(|&i| f(&mut part[i - base])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};
    use std::thread::ThreadId;

    /// The worker cap is process-wide: tests that set it serialize
    /// (ignoring poison, so one failure does not fail the others).
    static CAP_LOCK: Mutex<()> = Mutex::new(());

    fn cap_lock() -> MutexGuard<'static, ()> {
        CAP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Per item: how often it was visited, and by which thread.
    type Cell = (u32, Option<ThreadId>);

    fn run_selected(len: usize, selected: &[usize], cap: usize) -> Vec<Cell> {
        let mut items: Vec<Cell> = vec![(0, None); len];
        set_max_workers(cap);
        for_each_selected(&mut items, selected, |c| {
            c.0 += 1;
            c.1 = Some(std::thread::current().id());
        });
        set_max_workers(0);
        items
    }

    /// Every selected index visited exactly once, nothing else touched,
    /// chunk 0 on the caller, and each chunk on a single thread.
    fn check_partition(len: usize, selected: &[usize], cap: usize) {
        let items = run_selected(len, selected, cap);
        for (i, &(visits, _)) in items.iter().enumerate() {
            let want = u32::from(selected.contains(&i));
            assert_eq!(visits, want, "len {len} cap {cap} index {i}");
        }
        let chunk = len.div_ceil(cap.min(len).max(1));
        let caller = std::thread::current().id();
        for (c, part) in items.chunks(chunk.max(1)).enumerate() {
            let threads: Vec<ThreadId> = part.iter().filter_map(|x| x.1).collect();
            assert!(threads.windows(2).all(|w| w[0] == w[1]), "chunk {c} split");
            let on_caller = c == 0 || cap <= 1;
            let placed = threads.iter().all(|&t| (t == caller) == on_caller);
            assert!(placed, "chunk {c}: expected on_caller = {on_caller}");
        }
    }

    #[test]
    fn every_selected_index_is_visited_exactly_once() {
        let _guard = cap_lock();
        for cap in 1..=8 {
            for len in [0, 1, 3, 7, 12, 50] {
                let all: Vec<usize> = (0..len).collect();
                let evens: Vec<usize> = (0..len).step_by(2).collect();
                let tail: Vec<usize> = (len.saturating_sub(2)..len).collect();
                for selected in [&all[..], &evens, &tail, &[]] {
                    check_partition(len, selected, cap);
                }
            }
        }
    }

    #[test]
    fn more_workers_than_items_and_one_chunk_selections() {
        let _guard = cap_lock();
        // 3 items, 8 workers: three one-item chunks.
        check_partition(3, &[0, 1, 2], 8);
        // 40 items, 4 workers (chunks of 10): a selection wholly inside
        // chunk 0 stays on the caller; one inside chunk 2 runs on a
        // single spawned thread.
        check_partition(40, &[1, 4, 9], 4);
        check_partition(40, &[20, 21, 29], 4);
    }

    #[test]
    fn for_each_mut_touches_every_item_in_place() {
        let _guard = cap_lock();
        for cap in 1..=8 {
            set_max_workers(cap);
            let mut xs: Vec<u64> = (0..1000).collect();
            for_each_mut(&mut xs, |x| *x *= 2);
            assert!(xs.iter().enumerate().all(|(i, x)| *x == 2 * i as u64));
            let mut none: Vec<u32> = vec![];
            for_each_mut(&mut none, |_| unreachable!());
        }
        set_max_workers(0);
    }

    #[test]
    fn worker_cap_is_honoured_and_harmless() {
        let _guard = cap_lock();
        // Any cap, including one above the core count, leaves the
        // results identical to the serial loop.
        set_max_workers(3);
        assert_eq!(max_workers(), 3);
        let mut xs: Vec<u64> = (0..100).collect();
        for_each_mut(&mut xs, |x| *x += 1);
        assert!(xs.iter().enumerate().all(|(i, x)| *x == i as u64 + 1));
        set_max_workers(0);
        assert!(max_workers() >= 1);
    }
}
