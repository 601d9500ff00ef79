//! # hli-obs — observability for the whole compiler pipeline
//!
//! The paper's evaluation is counter-driven: Table 2 is literally "how many
//! dependence tests did the back-end issue, and how often did each analyzer
//! answer no". This crate gives every layer of the reproduction one shared
//! way to produce such numbers — and the timing behind them — instead of
//! ad-hoc structs per pass:
//!
//! * [`trace`] — a span/phase tracer: RAII guards around named phases with
//!   wall-clock timing, nested into a trace tree, exportable as Chrome
//!   `trace_event` JSON (loadable in `chrome://tracing` or
//!   `ui.perfetto.dev`);
//! * [`metrics`] — a registry of cheap atomic counters, gauges and
//!   power-of-two histograms keyed by dotted string names
//!   (`frontend.*`, `backend.ddg.*`, `machine.*`, `hli.query.*`), with a
//!   hand-rolled JSON emitter and mergeable snapshots;
//! * [`provenance`] — decision provenance: a lock-free append sink of
//!   [`provenance::DecisionRecord`]s, one per back-end decision an HLI
//!   answer justified (reorder allowed, CSE entry purged, load hoisted),
//!   each citing the monotonic query ids behind the verdict; exportable
//!   as JSONL and text, off by default;
//! * [`json`] — the tiny JSON writer the emitters share, plus a minimal
//!   linear-time parser that decodes serve requests and cache objects and
//!   lets tests validate emitted output, without external dependencies.
//!
//! The crate is std-only by design: the build environment has no registry
//! access, and the instrumented crates must never pull a dependency tree
//! into the measurement path.
//!
//! ## Scoping model
//!
//! There is one process-global registry ([`metrics::global`]) and one
//! process-global tracer ([`trace::global`]). Code that needs per-task
//! isolation (the harness measuring one benchmark on one worker thread)
//! installs a thread-scoped registry with [`metrics::scoped`]; every
//! instrumented layer resolves [`metrics::cur`] at phase entry, so the
//! whole pipeline below that thread writes into the scoped registry. The
//! scope owner then merges its snapshot into the global registry with
//! [`metrics::MetricsRegistry::absorb`].

pub mod json;
pub mod mem;
pub mod metrics;
pub mod phase;
pub mod provenance;
pub mod shard;
pub mod timing;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use provenance::{DecisionRecord, ProvenanceSink, QueryRef, Verdict};
pub use shard::{capture, capture_cfg, commit, CaptureCfg, ObsShard};
pub use trace::{span, Clock, SpanGuard, Tracer};

/// Version of every JSON artifact this workspace emits (`--stats json`
/// snapshots, the provenance JSONL header record, `BENCH_*.json` perf
/// checkpoints). Bump it when a field changes meaning or moves;
/// `obsdiff` and `perfbench --compare` refuse to diff artifacts whose
/// versions disagree, so a stale baseline fails loudly instead of
/// producing a nonsense comparison. Artifacts written before the field
/// existed are treated as version 1.
pub const SCHEMA_VERSION: u64 = 2;
