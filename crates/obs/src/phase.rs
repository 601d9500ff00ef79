//! Stage times: the `obs.phase.*` histograms every [`crate::span`] feeds.
//!
//! A span records its inclusive wall-clock duration (nanoseconds) into a
//! histogram named `obs.phase.<stage>.ns` when it closes — so `--stats`
//! snapshots carry, next to the paper's counters, *where the compile time
//! went*: count, mean, p50/p95 and max per stage. Spans are the one stage
//! timer; [`record`] is for a stage whose time is summed from pieces
//! (the machine models, fed in chunks) rather than measured in one scope.
//!
//! ## Determinism contract
//!
//! Stage durations are wall-clock and therefore nondeterministic, while
//! the `--jobs` contract (see `crates/harness/tests/parallel.rs`) pins
//! scoped `--stats json` snapshots byte-identical across worker counts.
//! Stage times therefore **always go to the process-global registry**
//! ([`crate::metrics::global`]), never to a thread-scoped one: scoped
//! snapshots (and the [`crate::capture`] shards the parallel driver
//! commits) stay free of timing noise, and `obsdiff` ignores histograms
//! by design. Tools that want the timings read the global snapshot — the
//! same one every binary's `--stats` flag prints.

use crate::metrics::{global, MetricsSnapshot};

/// Record `ns` nanoseconds for `stage` in the global registry. Every
/// closing span calls this; call it directly only for a stage whose time
/// was summed from pieces.
pub fn record(stage: &str, ns: u64) {
    global().histogram(&format!("obs.phase.{stage}.ns")).observe(ns);
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
    use crate::{metrics, MetricsRegistry, Tracer};
    use std::sync::Arc;

    #[test]
    fn phase_records_into_the_global_registry() {
        {
            let _s = crate::span("test.phase_unit");
            std::hint::black_box(1 + 1);
        }
        let snap = global().snapshot();
        let h = &snap.histograms["obs.phase.test.phase_unit.ns"];
        assert_eq!(h.count, 1);
        assert_eq!(total_ns(&snap, "test.phase_unit"), h.sum);
    }

    /// A closed span lands in the global registry whichever registry is
    /// current and whichever tracer it opened on: under a scoped registry
    /// and on a disabled tracer it still records once, and neither the
    /// scoped snapshot nor the tracer sees it.
    #[test]
    fn phase_ignores_scoped_registries() {
        let local = Arc::new(MetricsRegistry::new());
        let off = Arc::new(Tracer::new());
        off.set_enabled(false);
        {
            let _m = metrics::scoped(local.clone());
            let _s = off.span("test.phase_scoped");
        }
        assert!(
            local.snapshot().histograms.is_empty(),
            "stage times must not leak wall-clock into scoped snapshots"
        );
        assert!(off.finished_spans().is_empty(), "a disabled tracer keeps no event");
        assert_eq!(
            global().snapshot().histograms["obs.phase.test.phase_scoped.ns"].count,
            1
        );
    }
}
