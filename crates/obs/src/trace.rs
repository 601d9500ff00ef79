//! Spans: the one stage timer. A [`span`] is an RAII guard around one
//! named pipeline stage, opened in the function that *is* the stage.
//!
//! When the guard drops it does two things:
//!
//! * it records its inclusive wall-clock duration into the histogram
//!   `obs.phase.<name>.ns` of the **global** registry, through
//!   [`crate::phase::record`] — always, whichever tracer is current and
//!   whether or not it records (see [`crate::phase`] for why timing never
//!   lands in a scoped registry);
//! * if the current tracer is enabled, it appends a trace event, nested
//!   into a trace tree and exportable as Chrome `trace_event` JSON
//!   (loadable in `chrome://tracing` / `ui.perfetto.dev`).
//!
//! Span names are `&'static str`: a stage name is a bounded histogram key,
//! and no span allocates. The [`global`] tracer starts disabled; the
//! harness binaries enable it for `--trace-out`, so a process keeps trace
//! events only when something will write them.
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

/// What a tracer's timestamps mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Nanoseconds of wall time since the tracer's epoch (the default;
    /// what `--trace-out` ships to `chrome://tracing`).
    Wall,
    /// A deterministic event counter: each span open and close draws one
    /// tick, `start_ns` is the open tick, `dur_ns` is close − open ticks,
    /// and `tid` is always 0. Byte-identical output for identical span
    /// sequences — the mode [`crate::shard::capture`] uses so traces can
    /// be pinned across `--jobs` values.
    Logical,
}

/// A tracer instance. Usually used through [`global`] + [`span`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    clock: Clock,
    /// Logical tick counter (next tick to issue); unused under `Wall`.
    seq: AtomicU64,
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
        Self::with_cap_clock(cap, Clock::Wall)
    }

    /// A deterministic tracer ([`Clock::Logical`]).
    pub fn logical() -> Self {
        Self::with_cap_clock(DEFAULT_CAP, Clock::Logical)
    }

    fn with_cap_clock(cap: usize, clock: Clock) -> Self {
        Tracer {
            epoch: Instant::now(),
            clock,
            seq: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            cap,
            next_tid: AtomicU64::new(0),
        }
    }

    pub fn is_logical(&self) -> bool {
        self.clock == Clock::Logical
    }

    /// Logical ticks issued so far (0 under [`Clock::Wall`]). A shard
    /// commit reserves this many ticks in the parent with
    /// [`Tracer::absorb_logical`].
    pub fn seq_used(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
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
        let open_seq = match self.clock {
            Clock::Wall => 0,
            Clock::Logical => self.seq.fetch_add(1, Ordering::Relaxed),
        };
        SpanGuard {
            tracer: self.clone(),
            name,
            start: Instant::now(),
            open_seq,
            depth,
        }
    }

    fn record(&self, name: &'static str, start: Instant, wall_ns: u64, open_seq: u64, depth: u32) {
        if !self.is_enabled() {
            return;
        }
        let (start_ns, dur_ns, tid) = match self.clock {
            Clock::Wall => {
                let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
                let tid = THREAD.with(|t| {
                    let mut t = t.borrow_mut();
                    match t.tid {
                        Some(id) => id,
                        None => {
                            let id = self.next_tid.fetch_add(1, Ordering::Relaxed);
                            t.tid = Some(id);
                            id
                        }
                    }
                });
                (start_ns, wall_ns, tid)
            }
            Clock::Logical => {
                let close_seq = self.seq.fetch_add(1, Ordering::Relaxed);
                (open_seq, close_seq - open_seq, 0)
            }
        };
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

    /// Merge a worker shard's logical spans: reserve `seq_used` ticks in
    /// this tracer's counter and append `spans` rebased by the reserved
    /// offset. Committing shards in a stable order reproduces exactly the
    /// tick numbering a sequential run would have produced (the trace
    /// analogue of [`crate::provenance::claim_ids`]). No-op on a
    /// [`Clock::Wall`] tracer — wall timestamps from another tracer's
    /// epoch are meaningless here.
    pub fn absorb_logical(&self, spans: Vec<SpanRec>, seq_used: u64) {
        if !self.is_logical() || !self.is_enabled() {
            return;
        }
        let offset = self.seq.fetch_add(seq_used, Ordering::Relaxed);
        let mut log = self.spans.lock().unwrap();
        for mut s in spans {
            if log.len() >= self.cap {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                s.start_ns += offset;
                log.push(s);
            }
        }
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
    open_seq: u64,
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
        self.tracer.record(self.name, self.start, wall_ns, self.open_seq, self.depth);
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

thread_local! {
    static SCOPED: std::cell::RefCell<Vec<Arc<Tracer>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Install `tracer` as this thread's current tracer until the guard drops
/// (shadows the global one for [`span`] / [`cur`]). Mirrors
/// [`crate::metrics::scoped`] / [`crate::provenance::scoped`].
pub fn scoped(tracer: Arc<Tracer>) -> ScopedTracer {
    SCOPED.with(|s| s.borrow_mut().push(tracer));
    ScopedTracer { _priv: () }
}

/// RAII guard returned by [`scoped`].
pub struct ScopedTracer {
    _priv: (),
}

impl Drop for ScopedTracer {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The tracer [`span`] appends to right now: the innermost thread-scoped
/// tracer, else the global one.
pub fn cur() -> Arc<Tracer> {
    SCOPED.with(|s| s.borrow().last().cloned()).unwrap_or_else(global)
}

/// Open a span on the current tracer — the usual entry point:
///
/// ```
/// {
///     let _g = hli_obs::span("example.stage");
///     // ... the stage ...
/// } // records `obs.phase.example.stage.ns`, and a trace event if
///   // the current tracer is enabled
/// ```
pub fn span(name: &'static str) -> SpanGuard {
    cur().span(name)
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

    #[test]
    fn logical_clock_is_deterministic() {
        let run = || {
            let t = Arc::new(Tracer::logical());
            {
                let _a = t.span("outer");
                let _b = t.span("inner");
            }
            {
                let _c = t.span("next");
            }
            (t.seq_used(), t.finished_spans(), t.to_chrome_json())
        };
        let (seq1, spans1, json1) = run();
        let (seq2, spans2, json2) = run();
        assert_eq!(seq1, 6, "3 spans = 6 ticks");
        assert_eq!(seq1, seq2);
        assert_eq!(spans1, spans2, "logical spans carry no wall time");
        assert_eq!(json1, json2);
        assert!(spans1.iter().all(|s| s.tid == 0));
        // outer opened at tick 0, closed at tick 3.
        let outer = spans1.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!((outer.start_ns, outer.dur_ns), (0, 3));
    }

    #[test]
    fn absorb_logical_rebases_shard_ticks() {
        let parent = Arc::new(Tracer::logical());
        {
            let _w = parent.span("warmup"); // ticks 0..2
        }
        let shard = Arc::new(Tracer::logical());
        {
            let _s = shard.span("worker"); // local ticks 0..2
        }
        parent.absorb_logical(shard.drain_spans(), shard.seq_used());
        let spans = parent.finished_spans();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.start_ns, 2, "rebased past parent's 2 used ticks");
        assert_eq!(parent.seq_used(), 4);
        // Wall tracers refuse foreign logical ticks.
        let wall = Arc::new(Tracer::new());
        wall.absorb_logical(vec![worker.clone()], 2);
        assert!(wall.finished_spans().is_empty());
    }

    #[test]
    fn scoped_tracer_shadows_global_for_span() {
        let local = Arc::new(Tracer::logical());
        {
            let _g = scoped(local.clone());
            assert!(Arc::ptr_eq(&cur(), &local));
            let _s = span("scoped.only");
        }
        assert_eq!(local.finished_spans().len(), 1);
        assert!(
            global().finished_spans().iter().all(|s| s.name != "scoped.only"),
            "global untouched by scoped recording"
        );
        assert!(Arc::ptr_eq(&cur(), &global()));
    }
}
