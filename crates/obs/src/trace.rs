//! Spans: the one stage timer. A [`span`] is an RAII guard around one
//! named pipeline stage, opened in the function that *is* the stage.
//!
//! When the guard drops it does two things:
//!
//! * it records its inclusive wall-clock duration into the histogram
//!   `obs.phase.<name>.ns` of the **global** registry, through
//!   [`crate::phase::record`] — always, whichever tracer the span opened
//!   on and whether or not that tracer records (see [`crate::phase`] for
//!   why timing never lands in a scoped registry);
//! * if its tracer is enabled, it appends a trace event, nested into a
//!   trace tree and exportable as Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / `ui.perfetto.dev`).
//!
//! Span names are `&'static str`: a stage name is a bounded histogram key,
//! and no span allocates. [`span`] opens on the [`global`] tracer, which
//! starts disabled; the harness binaries enable it for `--trace-out`, so a
//! process keeps trace events only when something will write them. Pool
//! workers open their spans on the same global tracer, so a `--jobs N`
//! trace shows every worker's spans on the wall clock, one `tid` each.
//!
//! Each thread keeps its own open-span depth in a thread-local, so nesting
//! is tracked without locks; completed spans are appended to the tracer's
//! shared log under a mutex (one lock per span *close*, not per event).
//! The log is capped; spans past the cap are counted, not stored.

use crate::json::{escape_into, push_f64};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Nesting depth at the time the span opened (0 = top level).
    pub depth: u32,
    /// Thread that ran the span (dense id assigned per tracer).
    pub tid: u64,
}

/// Default cap on stored spans. Far above anything a single `hlicc` run
/// produces, but bounds memory if instrumentation ends up in a hot loop.
const DEFAULT_CAP: usize = 1 << 16;

/// A tracer instance. Usually used through [`global`] + [`span`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<SpanRec>>,
    dropped: AtomicU64,
    cap: usize,
    next_tid: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An enabled wall-clock tracer.
    pub fn new() -> Self {
        Self::with_cap(DEFAULT_CAP)
    }

    pub fn with_cap(cap: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            cap,
            next_tid: AtomicU64::new(0),
        }
    }

    /// Enable or disable recording. Guards created while disabled still
    /// nest correctly (depth bookkeeping continues) and still feed
    /// `obs.phase.*`, but append no trace event.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open a span; it closes (and is recorded) when the guard drops.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        let depth = THREAD.with(|t| {
            let mut t = t.borrow_mut();
            let d = t.depth;
            t.depth += 1;
            d
        });
        SpanGuard { tracer: self.clone(), name, start: Instant::now(), depth }
    }

    fn record(&self, name: &'static str, start: Instant, dur_ns: u64, depth: u32) {
        if !self.is_enabled() {
            return;
        }
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let tid = THREAD.with(|t| {
            let mut t = t.borrow_mut();
            *t.tid.get_or_insert_with(|| self.next_tid.fetch_add(1, Ordering::Relaxed))
        });
        let mut spans = self.spans.lock().unwrap();
        if spans.len() >= self.cap {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            spans.push(SpanRec { name, start_ns, dur_ns, depth, tid });
        }
    }

    /// Take every recorded span (close order), leaving the tracer empty.
    pub fn drain_spans(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().unwrap())
    }

    /// Number of spans discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Completed spans in close order.
    pub fn finished_spans(&self) -> Vec<SpanRec> {
        self.spans.lock().unwrap().clone()
    }

    /// Chrome `trace_event` JSON: an object with a `traceEvents` array of
    /// complete (`"ph":"X"`) events; `ts`/`dur` are microseconds as the
    /// format requires.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.finished_spans();
        let mut out = String::from("{\"traceEvents\": [");
        for (i, s) in spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n  " } else { ",\n  " });
            out.push_str("{\"name\": ");
            escape_into(&mut out, s.name);
            out.push_str(", \"ph\": \"X\", \"ts\": ");
            push_f64(&mut out, s.start_ns as f64 / 1e3);
            out.push_str(", \"dur\": ");
            push_f64(&mut out, s.dur_ns as f64 / 1e3);
            let _ = write!(out, ", \"pid\": 1, \"tid\": {}}}", s.tid);
        }
        out.push_str("\n]}\n");
        out
    }
}

struct ThreadState {
    depth: u32,
    tid: Option<u64>,
}

thread_local! {
    static THREAD: std::cell::RefCell<ThreadState> =
        const { std::cell::RefCell::new(ThreadState { depth: 0, tid: None }) };
}

/// RAII guard for an open span: on drop it records `obs.phase.<name>.ns`
/// and, if its tracer is enabled, a trace event.
pub struct SpanGuard {
    tracer: Arc<Tracer>,
    name: &'static str,
    start: Instant,
    depth: u32,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        THREAD.with(|t| {
            let mut t = t.borrow_mut();
            t.depth = t.depth.saturating_sub(1);
        });
        let wall_ns = self.start.elapsed().as_nanos() as u64;
        crate::phase::record(self.name, wall_ns);
        self.tracer.record(self.name, self.start, wall_ns, self.depth);
    }
}

static GLOBAL: OnceLock<Arc<Tracer>> = OnceLock::new();

/// The process-global tracer. It starts disabled, so a process keeps no
/// trace events unless something enables it (`--trace-out` does).
pub fn global() -> Arc<Tracer> {
    GLOBAL
        .get_or_init(|| {
            let t = Tracer::new();
            t.set_enabled(false);
            Arc::new(t)
        })
        .clone()
}

/// Open a span on the [`global`] tracer — the usual entry point:
///
/// ```
/// {
///     let _g = hli_obs::span("example.stage");
///     // ... the stage ...
/// } // records `obs.phase.example.stage.ns`, and a trace event if
///   // the global tracer is enabled
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    global().span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64 — local copy so the property-style tests stay dep-free.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn spans_nest_and_record_depth() {
        let t = Arc::new(Tracer::new());
        {
            let _a = t.span("outer");
            {
                let _b = t.span("inner");
            }
            let _c = t.span("sibling");
        }
        let spans = t.finished_spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(by_name("outer").depth, 0);
        assert_eq!(by_name("inner").depth, 1);
        assert_eq!(by_name("sibling").depth, 1);
        // Children close before parents.
        assert_eq!(spans.last().unwrap().name, "outer");
    }

    /// Property-style: for random open/close sequences, recorded depths
    /// always match the nesting structure, every span's interval lies
    /// within its parent's, and depth returns to 0 at the end.
    #[test]
    fn random_nesting_invariants() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        // Span names are `&'static str`; a fresh tracer per round keeps
        // one name per step unique.
        let names: Vec<&'static str> = (0..40)
            .map(|i| &*Box::leak(format!("test.nest.s{i}").into_boxed_str()))
            .collect();
        for _round in 0..50 {
            let t = Arc::new(Tracer::new());
            let mut stack: Vec<(SpanGuard, u32)> = Vec::new();
            let mut expect: Vec<(&str, u32)> = Vec::new();
            for &name in &names {
                let open = stack.is_empty() || rng.next().is_multiple_of(2);
                if open && stack.len() < 12 {
                    let depth = stack.len() as u32;
                    expect.push((name, depth));
                    stack.push((t.span(name), depth));
                } else {
                    stack.pop(); // guard dropped here
                }
            }
            stack.drain(..).rev().for_each(drop);
            THREAD.with(|th| assert_eq!(th.borrow().depth, 0));
            let spans = t.finished_spans();
            assert_eq!(spans.len(), expect.len());
            for (name, depth) in &expect {
                let s = spans.iter().find(|s| s.name == *name).unwrap();
                assert_eq!(s.depth, *depth, "depth mismatch for {name}");
            }
            // Interval containment: each deeper span that closed while its
            // parent was open must lie within some depth-1 span's window.
            for s in &spans {
                if s.depth == 0 {
                    continue;
                }
                let parent_ok = spans.iter().any(|p| {
                    p.depth + 1 == s.depth
                        && p.start_ns <= s.start_ns
                        && s.start_ns + s.dur_ns <= p.start_ns + p.dur_ns
                });
                assert!(parent_ok, "span {} has no enclosing parent", s.name);
            }
        }
    }

    #[test]
    fn cap_drops_and_counts() {
        let t = Arc::new(Tracer::with_cap(2));
        for _ in 0..5 {
            let _g = t.span("test.capped");
        }
        assert_eq!(t.finished_spans().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn global_tracer_starts_disabled() {
        // No unit test in this crate enables the global tracer; the
        // harness binaries do, for `--trace-out`.
        assert!(!global().is_enabled());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Arc::new(Tracer::new());
        t.set_enabled(false);
        {
            let _g = t.span("ghost");
        }
        assert!(t.finished_spans().is_empty());
    }

    #[test]
    fn chrome_json_parses_and_has_events() {
        let t = Arc::new(Tracer::new());
        {
            let _a = t.span("phase \"x\"");
            let _b = t.span("sub");
        }
        let text = t.to_chrome_json();
        let v = crate::json::parse(&text).expect("chrome trace must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
            assert!(e.get("ts").unwrap().as_num().is_some());
            assert!(e.get("dur").unwrap().as_num().is_some());
        }
        assert!(events.iter().any(|e| e.get("name").unwrap().as_str() == Some("phase \"x\"")));
    }
}
