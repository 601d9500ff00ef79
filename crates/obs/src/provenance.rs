//! Decision provenance: an auditable record of every back-end decision an
//! HLI answer justified.
//!
//! The metrics registry says *how many* dependence tests were made
//! (`backend.ddg.*`); it cannot say *which* reorder each `HLI_GetEquivAcc`
//! answer enabled, nor which CSE entry a `HLI_GetCallAcc` answer kept
//! alive across a call. This module closes that gap: optimizing passes
//! append one [`DecisionRecord`] per decision — applied or blocked, with
//! the chain of query ids that produced the verdict — into a lock-free
//! sink, exportable as JSONL (one record per line, each line valid JSON
//! for [`crate::json::parse`]) and as aligned text.
//!
//! Query ids come from one process-wide monotonic counter
//! ([`next_query_id`]); `hli_core::query::HliQuery` stamps an id on every
//! basic query answered while a sink is active, so a record's
//! `hli_queries` cites the exact query chain behind the verdict.
//!
//! Scoping mirrors [`crate::metrics`]: there is one process-global sink
//! ([`global`]), **disabled by default** so plain runs pay one relaxed
//! atomic load per pass entry; tests and the harness can install a
//! thread-scoped sink with [`scoped`], which shadows the global one on
//! that thread. Every `record` also mirrors a `provenance.<pass>.<verdict>`
//! counter into the current metrics registry, so decision counts show up
//! in `--stats` snapshots and can be diffed by `obsdiff`.

use crate::json::{escape_into, Json};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The id of one basic HLI query, stamped by [`next_query_id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryRef(pub u64);

static QUERY_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SCOPED_IDS: std::cell::RefCell<Vec<Arc<AtomicU64>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Install `src` as this thread's query-id source until the guard drops.
///
/// This is the deterministic-parallelism hook: a worker running one
/// function's compilation under [`crate::shard::capture`] stamps ids from
/// a private counter starting at 1, and the merge step renumbers them into
/// the parent's id space with [`claim_ids`] — in a stable function order —
/// so `--provenance-out` is byte-identical no matter how many workers ran.
pub fn scoped_ids(src: Arc<AtomicU64>) -> ScopedIds {
    SCOPED_IDS.with(|s| s.borrow_mut().push(src));
    ScopedIds { _priv: () }
}

/// RAII guard returned by [`scoped_ids`].
pub struct ScopedIds {
    _priv: (),
}

impl Drop for ScopedIds {
    fn drop(&mut self) {
        SCOPED_IDS.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Allocate the next query id (monotonic, starts at 1) from the innermost
/// [`scoped_ids`] source on this thread, or the process-wide counter.
pub fn next_query_id() -> QueryRef {
    let scoped = SCOPED_IDS.with(|s| s.borrow().last().cloned());
    match scoped {
        Some(src) => QueryRef(src.fetch_add(1, Ordering::Relaxed)),
        None => QueryRef(QUERY_ID.fetch_add(1, Ordering::Relaxed)),
    }
}

/// Reserve `n` consecutive ids from this thread's current id source and
/// return the offset to add to a 1-based local id to land it inside the
/// reserved block. Claiming shards in a stable order reproduces exactly
/// the numbering a sequential run would have produced.
pub fn claim_ids(n: u64) -> u64 {
    let scoped = SCOPED_IDS.with(|s| s.borrow().last().cloned());
    let first = match scoped {
        Some(src) => src.fetch_add(n, Ordering::Relaxed),
        None => QUERY_ID.fetch_add(n, Ordering::Relaxed),
    };
    first - 1
}

/// Exclusive upper bound on ids issued so far: every stamped id is in
/// `1..query_id_watermark()`. Tests use windows of this to check that
/// records cite ids that actually occurred.
pub fn query_id_watermark() -> u64 {
    QUERY_ID.load(Ordering::Relaxed)
}

/// Allocate a causal span id. Span ids share the query-id space (one
/// monotonic counter covers both), so the single block-reservation offset
/// [`crate::shard::commit`] computes renumbers a shard's query ids *and*
/// its span ids uniformly — `--provenance-out` stays byte-identical across
/// `--jobs` values without a second counter to keep in sync. `0` is never
/// issued and means "no span" on a [`DecisionRecord`].
pub fn next_span_id() -> u64 {
    next_query_id().0
}

/// The outcome of one optimization decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The optimization was performed (load hoisted, entry kept across a
    /// call, reorder permitted, ...).
    Applied,
    /// The optimization was rejected, with the analyzer's reason.
    Blocked { reason: String },
}

impl Verdict {
    pub fn is_applied(&self) -> bool {
        matches!(self, Verdict::Applied)
    }
}

/// One audited back-end decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Which decision point: `sched.pair`, `sched.call`, `sched.block`,
    /// `cse.call`, `licm.hoist`, `unroll.loop`, `maintain.*` (namespace
    /// documented in DESIGN.md).
    pub pass: String,
    /// Compilation unit (function) the decision was made in.
    pub function: String,
    /// HLI region the decided item belongs to, when known.
    pub region_id: Option<u32>,
    /// Source line (or program order) of the RTL reference decided about.
    pub order: u32,
    /// Causal span id from [`next_span_id`] linking this record to every
    /// other record made under the same decision context (the block-DDG
    /// build for `sched.*`, the call site for `cse.call`, the candidate
    /// for `licm.hoist`, the loop for `unroll.loop`). `0` means no span
    /// (maintenance and quarantine records). Renumbered together with
    /// query ids on shard commit, so it is `--jobs`-invariant.
    pub span: u64,
    /// Benefit the pass estimated *at decision time*, in model cycles
    /// (0 for blocked decisions and passes without an estimate model;
    /// the per-pass formulas are documented in DESIGN.md). `obsreport`
    /// joins this against the measured per-function cycle delta.
    pub est_cycles: u64,
    /// The query chain that produced the verdict, in issue order.
    pub hli_queries: Vec<QueryRef>,
    pub verdict: Verdict,
}

impl DecisionRecord {
    /// One JSONL line (no trailing newline); always parses back with
    /// [`DecisionRecord::parse_line`] and with [`crate::json::parse`].
    pub fn to_json_line(&self) -> String {
        let mut s = String::from("{\"pass\": ");
        escape_into(&mut s, &self.pass);
        s.push_str(", \"function\": ");
        escape_into(&mut s, &self.function);
        s.push_str(", \"region\": ");
        match self.region_id {
            Some(r) => {
                let _ = write!(s, "{r}");
            }
            None => s.push_str("null"),
        }
        let _ = write!(s, ", \"order\": {}", self.order);
        let _ = write!(s, ", \"span\": {}, \"est\": {}", self.span, self.est_cycles);
        s.push_str(", \"queries\": [");
        for (i, q) in self.hli_queries.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{}", q.0);
        }
        s.push_str("], \"verdict\": ");
        match &self.verdict {
            Verdict::Applied => s.push_str("\"applied\""),
            Verdict::Blocked { reason } => {
                s.push_str("\"blocked\", \"reason\": ");
                escape_into(&mut s, reason);
            }
        }
        s.push('}');
        s
    }

    /// Parse one JSONL line back into a record (the inverse of
    /// [`DecisionRecord::to_json_line`]).
    pub fn parse_line(line: &str) -> Result<DecisionRecord, String> {
        let v = crate::json::parse(line)?;
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("missing string field `{k}`"))
        };
        let num_field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("missing number field `{k}`"))
        };
        let region_id = match v.get("region") {
            Some(Json::Null) => None,
            Some(n) => Some(n.as_num().ok_or("`region` must be a number or null")? as u32),
            None => return Err("missing field `region`".into()),
        };
        let queries = v
            .get("queries")
            .and_then(Json::as_arr)
            .ok_or("missing array field `queries`")?
            .iter()
            .map(|q| q.as_num().map(|n| QueryRef(n as u64)).ok_or("non-numeric query id"))
            .collect::<Result<Vec<_>, _>>()?;
        let verdict = match str_field("verdict")?.as_str() {
            "applied" => Verdict::Applied,
            "blocked" => Verdict::Blocked { reason: str_field("reason")? },
            other => return Err(format!("unknown verdict `{other}`")),
        };
        // `span`/`est` were added in PR 7; lines written before then lack
        // them and parse as 0 ("no span" / "no estimate").
        let opt_u64 =
            |k: &str| -> u64 { v.get(k).and_then(Json::as_num).map(|n| n as u64).unwrap_or(0) };
        Ok(DecisionRecord {
            pass: str_field("pass")?,
            function: str_field("function")?,
            region_id,
            order: num_field("order")? as u32,
            span: opt_u64("span"),
            est_cycles: opt_u64("est"),
            hli_queries: queries,
            verdict,
        })
    }
}

/// Render records as JSONL, one line each, in slice order.
pub fn to_jsonl(records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

struct Node {
    rec: DecisionRecord,
    next: *mut Node,
}

/// Lock-free append sink for decision records (a Treiber stack: one CAS
/// per record on the writer side, so instrumented passes never contend on
/// a mutex). [`ProvenanceSink::drain`] restores per-thread append order.
pub struct ProvenanceSink {
    enabled: AtomicBool,
    head: AtomicPtr<Node>,
    len: AtomicUsize,
}

// The raw node pointers are owned exclusively by the stack; records are
// plain owned data, so moving them across threads is sound.
unsafe impl Send for ProvenanceSink {}
unsafe impl Sync for ProvenanceSink {}

impl ProvenanceSink {
    /// A fresh sink, enabled (the global one is constructed disabled).
    pub fn new() -> Self {
        ProvenanceSink {
            enabled: AtomicBool::new(true),
            head: AtomicPtr::new(std::ptr::null_mut()),
            len: AtomicUsize::new(0),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Append one record (no-op when disabled). Also mirrors a
    /// `provenance.<pass>.<applied|blocked>` counter into the current
    /// metrics registry so decision counts appear in `--stats` snapshots.
    pub fn record(&self, rec: DecisionRecord) {
        if !self.is_enabled() {
            return;
        }
        let key = format!(
            "provenance.{}.{}",
            rec.pass,
            if rec.verdict.is_applied() {
                "applied"
            } else {
                "blocked"
            }
        );
        crate::metrics::cur().counter(&key).inc();
        let node = Box::into_raw(Box::new(Node { rec, next: std::ptr::null_mut() }));
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            unsafe { (*node).next = head };
            match self.head.compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(cur) => head = cur,
            }
        }
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    /// Append already-accounted records (a merge of a worker shard). Unlike
    /// [`ProvenanceSink::record`] this does **not** mirror
    /// `provenance.<pass>.*` counters — the records were counted into the
    /// worker's metrics snapshot when first recorded, and that snapshot is
    /// absorbed separately; mirroring again would double-count.
    pub fn extend(&self, records: impl IntoIterator<Item = DecisionRecord>) {
        if !self.is_enabled() {
            return;
        }
        for rec in records {
            let node = Box::into_raw(Box::new(Node { rec, next: std::ptr::null_mut() }));
            let mut head = self.head.load(Ordering::Acquire);
            loop {
                unsafe { (*node).next = head };
                match self.head.compare_exchange_weak(
                    head,
                    node,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(cur) => head = cur,
                }
            }
            self.len.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Take every record appended so far. Records from a single thread
    /// come back in append order; interleaving across threads is
    /// unspecified.
    pub fn drain(&self) -> Vec<DecisionRecord> {
        let mut head = self.head.swap(std::ptr::null_mut(), Ordering::AcqRel);
        let mut out = Vec::new();
        while !head.is_null() {
            let node = unsafe { Box::from_raw(head) };
            head = node.next;
            out.push(node.rec);
        }
        self.len.fetch_sub(out.len(), Ordering::Relaxed);
        out.reverse();
        out
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ProvenanceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for ProvenanceSink {
    fn drop(&mut self) {
        let _ = self.drain();
    }
}

static GLOBAL: OnceLock<Arc<ProvenanceSink>> = OnceLock::new();

/// The process-global sink. Starts **disabled**; the harness enables it
/// when `--provenance-out` is passed.
pub fn global() -> Arc<ProvenanceSink> {
    GLOBAL
        .get_or_init(|| {
            let s = ProvenanceSink::new();
            s.set_enabled(false);
            Arc::new(s)
        })
        .clone()
}

thread_local! {
    static SCOPED: std::cell::RefCell<Vec<Arc<ProvenanceSink>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Install `sink` as this thread's current sink until the guard drops
/// (shadows the global one, including its enabled flag).
pub fn scoped(sink: Arc<ProvenanceSink>) -> ScopedSink {
    SCOPED.with(|s| s.borrow_mut().push(sink));
    ScopedSink { _priv: () }
}

/// RAII guard returned by [`scoped`].
pub struct ScopedSink {
    _priv: (),
}

impl Drop for ScopedSink {
    fn drop(&mut self) {
        SCOPED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The sink instrumented code should append to right now: the innermost
/// thread-scoped sink, else the global one — and only if it is enabled.
/// `None` means provenance is off and passes should skip record
/// construction entirely.
pub fn active() -> Option<Arc<ProvenanceSink>> {
    let sink = SCOPED.with(|s| s.borrow().last().cloned()).unwrap_or_else(global);
    sink.is_enabled().then_some(sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pass: &str, verdict: Verdict) -> DecisionRecord {
        DecisionRecord {
            pass: pass.into(),
            function: "main".into(),
            region_id: Some(2),
            order: 14,
            span: 5,
            est_cycles: 3,
            hli_queries: vec![QueryRef(3), QueryRef(4)],
            verdict,
        }
    }

    #[test]
    fn sink_preserves_single_thread_order() {
        let s = ProvenanceSink::new();
        s.record(rec("a", Verdict::Applied));
        s.record(rec("b", Verdict::Applied));
        s.record(rec("c", Verdict::Blocked { reason: "x".into() }));
        assert_eq!(s.len(), 3);
        let out = s.drain();
        assert_eq!(
            out.iter().map(|r| r.pass.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert!(s.is_empty());
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let s = ProvenanceSink::new();
        s.set_enabled(false);
        s.record(rec("a", Verdict::Applied));
        assert!(s.is_empty());
    }

    #[test]
    fn concurrent_pushes_lose_nothing() {
        let s = Arc::new(ProvenanceSink::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..200 {
                        s.record(DecisionRecord {
                            pass: format!("t{t}"),
                            function: format!("f{i}"),
                            region_id: None,
                            order: i,
                            span: 0,
                            est_cycles: 0,
                            hli_queries: vec![],
                            verdict: Verdict::Applied,
                        });
                    }
                });
            }
        });
        let out = s.drain();
        assert_eq!(out.len(), 800);
        // Per-thread order survived the Treiber stack + reverse.
        for t in 0..4 {
            let orders: Vec<u32> =
                out.iter().filter(|r| r.pass == format!("t{t}")).map(|r| r.order).collect();
            assert_eq!(orders, (0..200).collect::<Vec<_>>());
        }
    }

    #[test]
    fn jsonl_roundtrips_including_escapes() {
        let r = DecisionRecord {
            pass: "cse.call".into(),
            function: "we\"ird\\name\n".into(),
            region_id: None,
            order: 7,
            span: 12,
            est_cycles: 2,
            hli_queries: vec![QueryRef(1), QueryRef(99)],
            verdict: Verdict::Blocked { reason: "call may\tmodify".into() },
        };
        let line = r.to_json_line();
        assert!(crate::json::parse(&line).is_ok(), "line must be valid JSON: {line}");
        assert_eq!(DecisionRecord::parse_line(&line).unwrap(), r);
        let a = rec("sched.pair", Verdict::Applied);
        assert_eq!(DecisionRecord::parse_line(&a.to_json_line()).unwrap(), a);
    }

    #[test]
    fn parse_defaults_span_and_est_for_pre_pr7_lines() {
        // A line written before `span`/`est` existed still parses, with 0s.
        let old = "{\"pass\": \"sched.pair\", \"function\": \"f\", \"region\": 1, \
                   \"order\": 3, \"queries\": [7], \"verdict\": \"applied\"}";
        let r = DecisionRecord::parse_line(old).unwrap();
        assert_eq!(r.span, 0);
        assert_eq!(r.est_cycles, 0);
        assert_eq!(r.hli_queries, vec![QueryRef(7)]);
    }

    #[test]
    fn span_ids_share_the_query_id_space() {
        let src = Arc::new(AtomicU64::new(1));
        let _g = scoped_ids(src);
        let q = next_query_id();
        let s = next_span_id();
        let q2 = next_query_id();
        assert_eq!(s, q.0 + 1, "span ids interleave in the same counter");
        assert_eq!(q2.0, s + 1);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "{}",
            "{\"pass\": \"x\"}",
            "{\"pass\": 1, \"function\": \"f\", \"region\": null, \"order\": 0, \"queries\": [], \"verdict\": \"applied\"}",
            "{\"pass\": \"x\", \"function\": \"f\", \"region\": null, \"order\": 0, \"queries\": [], \"verdict\": \"maybe\"}",
        ] {
            assert!(DecisionRecord::parse_line(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn scoped_sink_shadows_global() {
        let local = Arc::new(ProvenanceSink::new());
        {
            let _g = scoped(local.clone());
            active().expect("scoped sink is active").record(rec("x", Verdict::Applied));
        }
        assert_eq!(local.len(), 1);
        assert!(global().is_empty(), "global sink untouched by scoped recording");
        // With no scope, the disabled global sink means provenance is off.
        assert!(active().is_none() || global().is_enabled());
    }

    #[test]
    fn query_ids_are_monotonic() {
        let a = next_query_id();
        let b = next_query_id();
        assert!(b.0 > a.0);
        assert!(query_id_watermark() > b.0);
    }

    #[test]
    fn record_mirrors_metrics_counters() {
        let reg = Arc::new(crate::metrics::MetricsRegistry::new());
        let _m = crate::metrics::scoped(reg.clone());
        let s = ProvenanceSink::new();
        s.record(rec("licm.hoist", Verdict::Applied));
        s.record(rec("licm.hoist", Verdict::Blocked { reason: "conflict".into() }));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("provenance.licm.hoist.applied"), 1);
        assert_eq!(snap.counter("provenance.licm.hoist.blocked"), 1);
    }

    #[test]
    fn text_export_mentions_every_record() {
        let recs = vec![
            rec("a.b", Verdict::Applied),
            rec("c.d", Verdict::Blocked { reason: "r".into() }),
        ];
        let jsonl = to_jsonl(&recs);
        assert_eq!(jsonl.lines().count(), 2);
    }
}
