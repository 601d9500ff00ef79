//! Phase timers: scoped wall-clock measurement per pipeline stage,
//! feeding the metrics registry under the `obs.phase.*` namespace.
//!
//! A [`PhaseGuard`] measures the wall-clock time between its creation and
//! its drop and records the duration (nanoseconds) into a histogram named
//! `obs.phase.<stage>.ns` — so `--stats` snapshots carry, next to the
//! paper's counters, *where the compile time went*: count, mean, p50/p95
//! and max per stage.
//!
//! ## Determinism contract
//!
//! Phase durations are wall-clock and therefore nondeterministic, while
//! the `--jobs` contract (see `crates/harness/tests/parallel.rs`) pins
//! scoped `--stats json` snapshots byte-identical across worker counts.
//! Phase timers therefore **always write to the process-global registry**
//! ([`crate::metrics::global`]), never to a thread-scoped one: scoped
//! snapshots (and the [`crate::capture`] shards the parallel driver
//! commits) stay free of timing noise, and `obsdiff` ignores histograms
//! by design. Tools that want the timings read the global snapshot — the
//! same one every binary's `--stats` flag prints.

use crate::metrics::{global, Histogram, MetricsSnapshot};
use std::time::Instant;

/// Open a phase timer; the elapsed time is recorded when the guard drops.
///
/// ```
/// {
///     let _p = hli_obs::phase::timed("frontend.generate");
///     // ... the stage ...
/// } // records into histogram `obs.phase.frontend.generate.ns`
/// ```
pub fn timed(stage: &str) -> PhaseGuard {
    PhaseGuard {
        hist: global().histogram(&format!("obs.phase.{stage}.ns")),
        start: Instant::now(),
    }
}

/// Record `ns` nanoseconds for `stage` directly, for a stage whose time
/// was summed from pieces (a timing model fed in chunks) rather than
/// measured in one scope.
pub fn record(stage: &str, ns: u64) {
    global().histogram(&format!("obs.phase.{stage}.ns")).observe(ns);
}

/// RAII guard returned by [`timed`]. Records on drop.
pub struct PhaseGuard {
    hist: Histogram,
    start: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_nanos() as u64);
    }
}

/// Total nanoseconds recorded for one stage in `snap` (the histogram
/// sum of `obs.phase.<stage>.ns`), 0 when the stage never ran.
pub fn total_ns(snap: &MetricsSnapshot, stage: &str) -> u64 {
    snap.histograms
        .get(&format!("obs.phase.{stage}.ns"))
        .map(|h| h.sum)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_records_into_the_global_registry() {
        {
            let _p = timed("test.phase_unit");
            std::hint::black_box(1 + 1);
        }
        let snap = global().snapshot();
        let h = &snap.histograms["obs.phase.test.phase_unit.ns"];
        assert!(h.count >= 1);
        assert_eq!(total_ns(&snap, "test.phase_unit"), h.sum);
    }

    #[test]
    fn phase_ignores_scoped_registries() {
        let local = std::sync::Arc::new(crate::MetricsRegistry::new());
        {
            let _g = crate::metrics::scoped(local.clone());
            let _p = timed("test.phase_scoped");
        }
        assert!(
            local.snapshot().histograms.is_empty(),
            "phase timers must not leak wall-clock into scoped snapshots"
        );
        assert!(global().snapshot().histograms.contains_key("obs.phase.test.phase_scoped.ns"));
    }
}
