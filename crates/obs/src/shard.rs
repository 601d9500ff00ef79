//! Deterministic fork/join for observability state.
//!
//! The parallel drivers (`hli-pool` workers running one function or one
//! benchmark each) must not write metrics or provenance records straight
//! into the parent's sinks: worker interleaving would make `--stats json`
//! gauge values and `--provenance-out` record order and query-id values
//! depend on OS scheduling. Instead each work item runs under
//! [`capture`] — a fresh thread-scoped metrics registry, provenance sink
//! and query-id counter — and returns an [`ObsShard`]. The parent then
//! [`commit`]s the shards **in a stable order** (input order for the
//! suite, name-sorted function order in the back-end driver):
//!
//! * counters/histograms add commutatively, and gauges now apply in a
//!   deterministic order;
//! * each shard's locally-stamped query ids (1-based) are renumbered into
//!   the parent's id space via [`crate::provenance::claim_ids`], which is
//!   exactly the numbering a sequential run would have produced;
//! * records append to the parent's active sink in shard order.
//!
//! Because a `--jobs 1` run goes through the same capture/commit pair,
//! its output is byte-identical to a `--jobs N` run by construction.
//! Shards nest: a suite-level shard may contain function-level commits,
//! since the function-level [`commit`] resolves the *benchmark's* scoped
//! registry/sink/ids on the committing thread.
//!
//! Spans are not captured. A work item's spans record their stage times
//! into the global registry (never into a shard; see [`crate::phase`])
//! and their trace events into the global tracer, on the wall clock of
//! the thread that ran them.

use crate::metrics::{self, MetricsRegistry, MetricsSnapshot};
use crate::provenance::{self, DecisionRecord, ProvenanceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything one work item observed, detached from the parent's sinks.
#[derive(Debug, Default)]
pub struct ObsShard {
    /// The worker-scoped registry's final state.
    pub metrics: MetricsSnapshot,
    /// Decision records in the worker's append order, citing **local**
    /// query ids and span ids `1..=ids_used` (renumbered at [`commit`]).
    pub records: Vec<DecisionRecord>,
    /// How many query/span ids the work item stamped.
    pub ids_used: u64,
}

/// What a [`capture`] should isolate, decided on the *parent* thread —
/// a pool worker cannot see the parent's thread-scoped sinks, so the flag
/// may not be probed inside the work item.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaptureCfg {
    /// Capture decision records + query ids (normally
    /// `provenance::active().is_some()` on the parent thread).
    pub provenance: bool,
    /// Read by nothing: kept only because the benchmark under `hlibench/`
    /// still sets it. Spans are never captured; they go to the global
    /// tracer from whichever thread runs them.
    pub trace: bool,
}

impl CaptureCfg {
    /// Probe the provenance flag from the calling thread's current sink.
    pub fn from_env() -> Self {
        CaptureCfg { provenance: provenance::active().is_some(), trace: false }
    }
}

/// Run `f` under a fresh scoped metrics registry — plus, when
/// `provenance_on`, a fresh enabled provenance sink and a local query-id
/// counter — and return its result with the captured [`ObsShard`].
///
/// `provenance_on` must be decided by the *caller* (normally
/// `provenance::active().is_some()` on the parent thread) rather than
/// probed here: a pool worker thread cannot see the parent's thread-scoped
/// sink, and the decision must not depend on which thread the item happens
/// to run on.
pub fn capture<R>(provenance_on: bool, f: impl FnOnce() -> R) -> (R, ObsShard) {
    capture_cfg(CaptureCfg { provenance: provenance_on, trace: false }, f)
}

/// [`capture`], configured by a [`CaptureCfg`].
pub fn capture_cfg<R>(cfg: CaptureCfg, f: impl FnOnce() -> R) -> (R, ObsShard) {
    let reg = Arc::new(MetricsRegistry::new());
    // With provenance off we still install a (disabled) scoped sink: the
    // caller's verdict must hold on whatever thread the item runs on, even
    // if that thread could otherwise see an enabled global sink.
    let scoped_sink = Arc::new(ProvenanceSink::new());
    scoped_sink.set_enabled(cfg.provenance);
    let sink = cfg.provenance.then(|| scoped_sink.clone());
    let ids = cfg.provenance.then(|| Arc::new(AtomicU64::new(1)));
    let out = {
        let _m = metrics::scoped(reg.clone());
        let _s = provenance::scoped(scoped_sink.clone());
        let _i = ids.clone().map(provenance::scoped_ids);
        f()
    };
    let shard = ObsShard {
        metrics: reg.snapshot(),
        records: sink.map(|s| s.drain()).unwrap_or_default(),
        ids_used: ids.map(|i| i.load(Ordering::Relaxed) - 1).unwrap_or(0),
    };
    (out, shard)
}

/// Fold a shard into the parent's observability state on the calling
/// thread: absorb the metrics into [`metrics::cur`], reserve the shard's
/// id block from this thread's id source, renumber the records into it,
/// and append them to the active provenance sink.
///
/// Call once per shard, in a stable order — the order *is* the output
/// determinism.
pub fn commit(shard: ObsShard) {
    metrics::cur().absorb(&shard.metrics);
    if shard.ids_used == 0 && shard.records.is_empty() {
        return;
    }
    // A shard can carry records that cite no queries at all (e.g. a
    // quarantined unit's `Blocked` decision, recorded before any HLI was
    // attached). Those must still append — only the id renumbering is
    // conditional on ids having been stamped.
    let offset = if shard.ids_used > 0 {
        provenance::claim_ids(shard.ids_used)
    } else {
        0
    };
    if let Some(sink) = provenance::active() {
        sink.extend(shard.records.into_iter().map(|mut r| {
            for q in &mut r.hli_queries {
                q.0 += offset;
            }
            // Span ids share the query-id space, so the same offset
            // relocates them; 0 stays 0 ("no span").
            if r.span != 0 {
                r.span += offset;
            }
            r
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Verdict;

    fn rec(pass: &str, queries: &[u64]) -> DecisionRecord {
        DecisionRecord {
            pass: pass.into(),
            function: "f".into(),
            region_id: None,
            order: 1,
            span: 0,
            est_cycles: 0,
            hli_queries: queries.iter().map(|&q| provenance::QueryRef(q)).collect(),
            verdict: Verdict::Applied,
        }
    }

    #[test]
    fn capture_isolates_metrics_and_commit_absorbs() {
        let parent = Arc::new(MetricsRegistry::new());
        let _g = metrics::scoped(parent.clone());
        let ((), shard) = capture(false, || {
            metrics::cur().counter("shard.test").add(3);
        });
        assert_eq!(parent.snapshot().counter("shard.test"), 0, "capture isolates");
        assert_eq!(shard.metrics.counter("shard.test"), 3);
        commit(shard);
        assert_eq!(parent.snapshot().counter("shard.test"), 3, "commit absorbs");
    }

    #[test]
    fn commit_renumbers_ids_in_claim_order() {
        // Two shards stamped local ids 1..=2 and 1..=3; committing under a
        // parent id space starting at 1 must yield 1..=2 then 3..=5 —
        // exactly what a sequential run would have stamped.
        let parent_ids = Arc::new(AtomicU64::new(1));
        let parent_sink = Arc::new(ProvenanceSink::new());
        let _i = provenance::scoped_ids(parent_ids.clone());
        let _s = provenance::scoped(parent_sink.clone());
        let ((), a) = capture(true, || {
            provenance::next_query_id();
            provenance::next_query_id();
            provenance::active().unwrap().record(rec("a", &[1, 2]));
        });
        let ((), b) = capture(true, || {
            provenance::next_query_id();
            provenance::next_query_id();
            provenance::next_query_id();
            provenance::active().unwrap().record(rec("b", &[2, 3]));
        });
        assert_eq!(a.ids_used, 2);
        assert_eq!(b.ids_used, 3);
        commit(a);
        commit(b);
        let out = parent_sink.drain();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out[0].hli_queries,
            vec![provenance::QueryRef(1), provenance::QueryRef(2)]
        );
        assert_eq!(
            out[1].hli_queries,
            vec![provenance::QueryRef(4), provenance::QueryRef(5)]
        );
        assert_eq!(parent_ids.load(Ordering::Relaxed), 6, "parent space consumed 5 ids");
    }

    #[test]
    fn query_less_records_survive_commit() {
        // Regression: commit used to gate record append on `ids_used > 0`,
        // silently dropping decisions that cite no queries — exactly what
        // a quarantined unit's `Blocked` record looks like.
        let parent_ids = Arc::new(AtomicU64::new(1));
        let parent_sink = Arc::new(ProvenanceSink::new());
        let _i = provenance::scoped_ids(parent_ids.clone());
        let _s = provenance::scoped(parent_sink.clone());
        let ((), shard) = capture(true, || {
            provenance::active().unwrap().record(rec("quarantine.unit", &[]));
        });
        assert_eq!(shard.ids_used, 0);
        commit(shard);
        let out = parent_sink.drain();
        assert_eq!(out.len(), 1, "query-less record must be committed");
        assert_eq!(out[0].pass, "quarantine.unit");
        assert_eq!(parent_ids.load(Ordering::Relaxed), 1, "no ids claimed");
    }

    #[test]
    fn capture_without_provenance_skips_sink_and_ids() {
        let ((), shard) = capture(false, || {
            assert!(
                provenance::active().is_none(),
                "provenance stays off inside a prov-off capture"
            );
        });
        assert_eq!(shard.ids_used, 0);
        assert!(shard.records.is_empty());
    }

    #[test]
    fn nested_captures_compose() {
        // A benchmark-level capture containing two function-level
        // capture/commit pairs: the inner commits land in the outer shard,
        // and the outer commit renumbers the whole block at once.
        let parent_ids = Arc::new(AtomicU64::new(11));
        let parent_sink = Arc::new(ProvenanceSink::new());
        let _i = provenance::scoped_ids(parent_ids);
        let _s = provenance::scoped(parent_sink.clone());
        let ((), outer) = capture(true, || {
            for pass in ["f1", "f2"] {
                let ((), inner) = capture(true, || {
                    provenance::next_query_id();
                    provenance::active().unwrap().record(rec(pass, &[1]));
                });
                commit(inner);
            }
        });
        assert_eq!(outer.ids_used, 2);
        commit(outer);
        let out = parent_sink.drain();
        assert_eq!(out[0].hli_queries, vec![provenance::QueryRef(11)]);
        assert_eq!(out[1].hli_queries, vec![provenance::QueryRef(12)]);
    }

    #[test]
    fn commit_renumbers_span_ids_with_the_query_offset() {
        let parent_ids = Arc::new(AtomicU64::new(21));
        let parent_sink = Arc::new(ProvenanceSink::new());
        let _i = provenance::scoped_ids(parent_ids);
        let _s = provenance::scoped(parent_sink.clone());
        let ((), shard) = capture(true, || {
            let span = provenance::next_span_id(); // local id 1
            provenance::next_query_id(); // local id 2
            let mut r = rec("sched.pair", &[2]);
            r.span = span;
            provenance::active().unwrap().record(r);
            let r2 = rec("quarantine.unit", &[]); // span 0 stays 0
            provenance::active().unwrap().record(r2);
        });
        assert_eq!(shard.ids_used, 2);
        commit(shard);
        let out = parent_sink.drain();
        assert_eq!(out[0].span, 21, "span renumbered by the same offset");
        assert_eq!(out[0].hli_queries, vec![provenance::QueryRef(22)]);
        assert_eq!(out[1].span, 0, "no-span records keep 0");
    }
}
