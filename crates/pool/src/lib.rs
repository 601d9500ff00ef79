//! # hli-pool — a std-only scoped parallel map
//!
//! The paper's on-demand, per-function HLI import (Section 3.2.1) makes
//! each program unit a self-contained piece of compilation work: the
//! back-end can fetch one unit's tables, build its DDG, schedule it and
//! maintain its HLI without touching any other unit. This crate supplies
//! the scheduling substrate that exploits that: a scoped parallel map over
//! a slice of work items.
//!
//! The workspace is intentionally dependency-free, so this is plain `std`:
//!
//! * the workers share one atomic next-index counter, and each claims the
//!   next unclaimed item whenever it finishes one, so a slow item holds
//!   back no other item;
//! * results land in per-index slots, so the output order is the input
//!   order no matter which worker ran which item or when it finished.
//!
//! Callers that need deterministic side effects (metrics, provenance)
//! should capture them per item and merge in input order after [`run`]
//! returns — see `hli_obs::shard` for the capture/commit pair the
//! compiler drivers use.

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

/// Parallel map: apply `f` to every item of `items` on up to `jobs`
/// workers (`0` = one per CPU) and return the results in input order. `f`
/// receives `(worker_index, &item)`; worker indices are in `0..jobs` and
/// stable for the duration of the call, so callers can keep per-worker
/// scratch state keyed by them.
///
/// `jobs <= 1` (or a 0/1-item input) runs everything inline on the caller
/// thread as worker 0 — same code path, no thread spawn — so a `--jobs 1`
/// run is a true sequential baseline.
///
/// A panicking item stops the claiming of further items; the panic is
/// re-thrown on the caller's thread once every worker has returned.
pub fn run<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let jobs = resolve_jobs(jobs).min(n);
    if jobs <= 1 {
        return items.iter().map(|t| f(0, t)).collect();
    }

    // The counter publishes no data: a claimed item's result goes through
    // its slot's mutex, and the scope's join orders every write before
    // the reads below, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let panic_payload: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots = Mutex::new(slots);

    std::thread::scope(|s| {
        for w in 0..jobs {
            let (next, panic_payload, slots, f) = (&next, &panic_payload, &slots, &f);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(w, &items[i]))) {
                    Ok(r) => slots.lock().expect("no slot write panics")[i] = Some(r),
                    Err(p) => {
                        // No worker claims another item; the first
                        // payload is re-thrown after the join.
                        next.store(n, Ordering::Relaxed);
                        panic_payload.lock().expect("no payload write panics").get_or_insert(p);
                    }
                }
            });
        }
    });

    if let Some(p) = panic_payload.into_inner().expect("no payload write panics") {
        std::panic::resume_unwind(p);
    }
    slots
        .into_inner()
        .expect("no slot write panics")
        .into_iter()
        .map(|r| r.expect("every index was claimed by exactly one worker"))
        .collect()
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
        let caller = std::thread::current().id();
        let items = [1, 2, 3];
        let out = run(1, &items, |w, &x| {
            assert_eq!(w, 0, "sequential path runs as worker 0");
            assert_eq!(std::thread::current().id(), caller, "sequential path spawns no thread");
            x + 1
        });
        assert_eq!(out, vec![2, 3, 4]);
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
    fn a_blocked_item_holds_back_no_other_item() {
        // Two workers. Item 0 is claimed first and waits until items 1..9
        // have all run, which only the other worker can do: it must keep
        // claiming items while its sibling is blocked.
        let ran_by: Vec<AtomicU64> = (0..9).map(|_| AtomicU64::new(u64::MAX)).collect();
        let done_rest = AtomicU64::new(0);
        let items: Vec<usize> = (0..9).collect();
        run(2, &items, |w, &i| {
            if i == 0 {
                wait_until(
                    || done_rest.load(Ordering::SeqCst) == 8,
                    "items 1..9 never ran while item 0 was blocked",
                );
            }
            ran_by[i].store(w as u64, Ordering::SeqCst);
            if i > 0 {
                done_rest.fetch_add(1, Ordering::SeqCst);
            }
        });
        let blocked = ran_by[0].load(Ordering::SeqCst);
        for (i, by) in ran_by.iter().enumerate().skip(1) {
            assert_ne!(
                by.load(Ordering::SeqCst),
                blocked,
                "item {i} ran on the worker blocked in item 0"
            );
        }
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
