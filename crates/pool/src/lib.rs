//! # hli-pool — a std-only work-stealing thread pool
//!
//! The paper's on-demand, per-function HLI import (Section 3.2.1) makes
//! each program unit a self-contained piece of compilation work: the
//! back-end can fetch one unit's tables, build its DDG, schedule it and
//! maintain its HLI without touching any other unit. This crate supplies
//! the scheduling substrate that exploits that: a scoped, work-stealing
//! parallel map over a slice of work items.
//!
//! The workspace is intentionally dependency-free, so this is plain `std`:
//!
//! * each worker owns a deque of item indices, seeded with a contiguous
//!   chunk of the input;
//! * a worker pops from the **back** of its own deque (LIFO, cache-warm)
//!   and, when empty, steals the **front half** of the fullest victim's
//!   deque (FIFO, oldest work first) — the classic Cilk/Chase-Lev
//!   discipline, here with a mutex per deque instead of a lock-free deque
//!   because work items (whole functions through the back-end pipeline)
//!   are far coarser than the lock;
//! * results land in per-index slots, so the output order is the input
//!   order no matter which worker ran which item or when it finished.
//!
//! Callers that need deterministic side effects (metrics, provenance)
//! should capture them per item and merge in input order after [`run`]
//! returns — see `hli_obs::shard` for the capture/commit pair the
//! compiler drivers use.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolve a `--jobs` request: `0` means "one worker per available CPU",
/// anything else is taken literally (including 1 = fully sequential).
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        requested
    }
}

/// Counters describing one [`run_with_stats`] execution, for tests and
/// benchmarks that want to see the pool actually balancing load. Not
/// mirrored into the metrics registry: steal counts depend on OS
/// scheduling and would make `--stats` output nondeterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers that executed at least one item.
    pub workers_used: usize,
    /// Successful steal operations (batches moved, not items).
    pub steals: u64,
    /// Items executed by a worker other than the one they were seeded to.
    pub stolen_items: u64,
}

/// Work-stealing parallel map: apply `f` to every item of `items` on up to
/// `jobs` workers (`0` = one per CPU) and return the results in input
/// order. `f` receives `(worker_index, &item)`; worker indices are in
/// `0..jobs` and stable for the duration of the call, so callers can keep
/// per-worker scratch state keyed by them.
///
/// `jobs <= 1` (or a 0/1-item input) runs everything inline on the caller
/// thread as worker 0 — same code path, no thread spawn — so a `--jobs 1`
/// run is a true sequential baseline.
pub fn run<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_with_stats(jobs, items, f).0
}

/// [`run`], also returning the load-balance counters.
pub fn run_with_stats<T, R, F>(jobs: usize, items: &[T], f: F) -> (Vec<R>, PoolStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let jobs = resolve_jobs(jobs).min(n.max(1));
    if jobs <= 1 || n <= 1 {
        let out = items.iter().map(|t| f(0, t)).collect();
        return (
            out,
            PoolStats { workers_used: usize::from(n > 0), ..PoolStats::default() },
        );
    }

    // Seed each worker's deque with a contiguous chunk (ceil division so
    // the leading workers absorb the remainder).
    let chunk = n.div_ceil(jobs);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
        .map(|w| Mutex::new((w * chunk..((w + 1) * chunk).min(n)).collect()))
        .collect();
    let done = AtomicUsize::new(0);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let steals = AtomicUsize::new(0);
    let stolen_items = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);
    let worker_used: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();

    std::thread::scope(|s| {
        for w in 0..jobs {
            let queues = &queues;
            let done = &done;
            let panic_payload = &panic_payload;
            let steals = &steals;
            let stolen_items = &stolen_items;
            let slots = &slots;
            let worker_used = &worker_used;
            let f = &f;
            s.spawn(move || {
                let mut idle_spins = 0u32;
                loop {
                    // Own work first: LIFO keeps the most recently seeded
                    // (cache-warm) indices local.
                    let mine = queues[w].lock().unwrap().pop_back();
                    let task = mine.or_else(|| {
                        // Steal the front half of the fullest victim.
                        // `try_lock` when sizing: a busy queue is being
                        // popped by its owner and can be skipped this
                        // round rather than waited on.
                        let victim = (0..jobs)
                            .filter(|&v| v != w)
                            .max_by_key(|&v| queues[v].try_lock().map(|q| q.len()).unwrap_or(0))?;
                        let mut vq = queues[victim].lock().unwrap();
                        let take = vq.len().div_ceil(2);
                        if take == 0 {
                            return None;
                        }
                        let batch: Vec<usize> = vq.drain(..take).collect();
                        drop(vq);
                        steals.fetch_add(1, Ordering::Relaxed);
                        stolen_items.fetch_add(batch.len(), Ordering::Relaxed);
                        let mut q = queues[w].lock().unwrap();
                        q.extend(batch);
                        q.pop_back()
                    });
                    match task {
                        Some(i) => {
                            idle_spins = 0;
                            if panic_payload.lock().unwrap().is_some() {
                                // Already unwinding: drain without running.
                                done.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            worker_used[w].store(1, Ordering::Relaxed);
                            // A panicking item must not leave the other
                            // workers spinning on a `done` count that can
                            // never complete: capture the payload, count
                            // the item as done, rethrow after the join.
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                f(w, &items[i])
                            })) {
                                Ok(r) => slots.lock().unwrap()[i] = Some(r),
                                Err(p) => {
                                    panic_payload.lock().unwrap().get_or_insert(p);
                                }
                            }
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if done.load(Ordering::Acquire) >= n {
                                break;
                            }
                            // Someone else still runs the tail items; back
                            // off politely instead of hammering the locks.
                            // Exponential up to ~3 ms: work items are whole
                            // functions or benchmarks, so a parked thief
                            // waking a few hundred times a second loses
                            // nothing — while busy-polling here measurably
                            // starves the workers on small machines.
                            idle_spins += 1;
                            if idle_spins > 16 {
                                let exp = (idle_spins - 16).min(6);
                                std::thread::sleep(std::time::Duration::from_micros(50u64 << exp));
                            } else {
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
        }
    });

    if let Some(p) = panic_payload.into_inner().unwrap() {
        std::panic::resume_unwind(p);
    }
    let out: Vec<R> = slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("every index was claimed by exactly one worker"))
        .collect();
    let stats = PoolStats {
        workers_used: worker_used.iter().filter(|u| u.load(Ordering::Relaxed) != 0).count(),
        steals: steals.load(Ordering::Relaxed) as u64,
        stolen_items: stolen_items.load(Ordering::Relaxed) as u64,
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = run(4, &items, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_one_is_inline_and_sequential() {
        let items = [1, 2, 3];
        let (out, stats) = run_with_stats(1, &items, |w, &x| {
            assert_eq!(w, 0, "sequential path runs as worker 0");
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(stats.steals, 0);
        assert_eq!(stats.workers_used, 1);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(run(8, &none, |_, &x| x).is_empty());
        assert_eq!(run(8, &[7u32], |_, &x| x), vec![7]);
    }

    /// Poll `cond` until it holds, failing the test with `what` if it has
    /// not held after a minute — far beyond any scheduling delay.
    fn wait_until(cond: impl Fn() -> bool, what: &str) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !cond() {
            assert!(std::time::Instant::now() < deadline, "timed out after 60 s: {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn idle_workers_steal_from_a_blocked_one() {
        // Two workers, chunked seeding: worker 0 gets indices 0..4, worker
        // 1 gets 4..8. Workers pop their own deque from the back, so item 3
        // is the first thing worker 0 runs and item 7 the first thing
        // worker 1 runs. Item 7 waits until item 3 has started, so worker 1
        // cannot steal item 3 away; item 3 then blocks worker 0 until items
        // 0..3 have run, which only worker 1 — done with its own chunk —
        // can do, by stealing them.
        let ran_by: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(u64::MAX)).collect();
        let started_3 = AtomicU64::new(0);
        let done_0_to_2 = AtomicU64::new(0);
        let items: Vec<usize> = (0..8).collect();
        let (_, stats) = run_with_stats(2, &items, |w, &i| {
            match i {
                3 => {
                    started_3.store(1, Ordering::SeqCst);
                    wait_until(
                        || done_0_to_2.load(Ordering::SeqCst) == 3,
                        "items 0..3 were never stolen from the worker blocked in item 3",
                    );
                }
                7 => wait_until(
                    || started_3.load(Ordering::SeqCst) == 1,
                    "worker 0 never started item 3",
                ),
                _ => {}
            }
            ran_by[i].store(w as u64, Ordering::Relaxed);
            if i < 3 {
                done_0_to_2.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(stats.steals > 0, "worker 1 must have stolen from worker 0");
        for (i, by) in ran_by.iter().enumerate().take(3) {
            assert_eq!(
                by.load(Ordering::Relaxed),
                1,
                "item {i} was seeded to the blocked worker and must be stolen"
            );
        }
        assert_eq!(stats.workers_used, 2);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [10u32, 20];
        let out = run(16, &items, |_, &x| x / 10);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn resolve_jobs_zero_means_all_cpus() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn panicking_worker_propagates() {
        let items: Vec<u32> = (0..4).collect();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(2, &items, |_, &x| {
                if x == 2 {
                    panic!("boom");
                }
                x
            })
        }));
        assert!(res.is_err(), "a panic in a work item must not be swallowed");
    }
}
