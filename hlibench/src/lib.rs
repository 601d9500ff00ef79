//! `hlibench` — end-to-end and per-layer benchmark of the HLI compile
//! pipeline and the `hlicc serve` daemon. `NOTES.md` next to this crate
//! explains the workloads, the metrics and how to read the ledger.
//!
//! One run drives one workload as a closed loop from this process:
//!
//! * [`Workload::Pipeline`] — the paper-reproduction path: one generated
//!   program per request through `hli_harness::run_benchmark_on`;
//! * [`Workload::ServeEdit`] — the daemon's edit-recompile loop: every
//!   batch resubmits one project with one more one-constant edit;
//! * [`Workload::ServeCold`] — the daemon on corpora it has never seen.
//!
//! Untraced runs report the end-to-end metrics, their timings in
//! nominal-host time (see [`host`]). Traced runs replay a fixed
//! number of requests through the layers' public functions under
//! [`spans::Recorder`] and report the per-layer ledger.

pub mod host;
mod pipeline;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod steady;

use hli_obs::json::{escape_into, push_f64};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pipeline,
    ServeEdit,
    ServeCold,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Pipeline, Workload::ServeEdit, Workload::ServeCold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::ServeEdit => "serve_edit",
            Workload::ServeCold => "serve_cold",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How much work one run does. [`Sizes::standard`] is what the command
/// line uses; tests shrink it.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Programs per corpus (the serve batch size).
    pub programs: usize,
    /// Generated functions per program (`main` comes on top).
    pub funcs: usize,
    /// Fixed requests one set-up answers: warm-up programs (`pipeline`),
    /// cold batches (`serve_cold`), or pristine projects (`serve_edit`,
    /// whose timed batches then edit those projects round-robin).
    pub setup_requests: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Untimed warm-up requests after the last set-up.
    pub warmup: usize,
    /// Timed requests a run makes at least, so that p90 has ten samples
    /// beyond it.
    pub min_requests: usize,
    /// Timed requests the exact metrics (`dep_reduction`) cover: the same
    /// leading requests on every run of a seed.
    pub exact_requests: usize,
    /// Programs the speedup metrics cover (through the pipeline path).
    pub speedup_programs: usize,
    /// Requests a traced run makes, once untraced and once traced.
    pub trace_requests: usize,
}

impl Sizes {
    /// The sizes of a command-line run of `seconds` seconds. A traced run
    /// makes a fixed number of requests (so its counts repeat exactly),
    /// chosen to fill about half of `seconds` untraced and half traced.
    pub fn standard(w: Workload, seconds: f64) -> Sizes {
        // Requests per second measured on a 2-vCPU VM, used only to size
        // the traced run.
        let rate = match w {
            Workload::Pipeline => 8.0,
            Workload::ServeEdit => 7.0,
            Workload::ServeCold => 12.0,
        };
        let trace_requests = ((seconds * rate / 2.0) as usize).max(4);
        match w {
            Workload::Pipeline => Sizes {
                programs: 1,
                funcs: 12,
                setup_requests: 4,
                setups: 5,
                warmup: 2,
                min_requests: 100,
                exact_requests: 48,
                speedup_programs: 48,
                trace_requests,
            },
            Workload::ServeEdit => Sizes {
                programs: 4,
                funcs: 12,
                setup_requests: 32,
                setups: 3,
                warmup: 2,
                min_requests: 100,
                exact_requests: 64,
                speedup_programs: 16,
                trace_requests,
            },
            Workload::ServeCold => Sizes {
                programs: 4,
                funcs: 12,
                setup_requests: 6,
                setups: 5,
                warmup: 2,
                min_requests: 100,
                exact_requests: 16,
                speedup_programs: 8,
                trace_requests,
            },
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Directory under which the run makes (and removes) its serve cache.
    pub cache_root: PathBuf,
    /// Where a traced run writes its spans as JSON lines, if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run found: the gate's tally, the metrics, and lines for a
/// human reader.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted (programs or batches).
    pub attempted: u64,
    /// Requests that failed or did not pass the checks.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub(crate) fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit });
    }

    /// Record a failed check; callers also count the failed request, if any.
    pub(crate) fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            escape_into(&mut s, &m.name);
            s.push_str(": {\"value\": ");
            push_f64(&mut s, m.value);
            s.push_str(", \"unit\": ");
            escape_into(&mut s, m.unit);
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

/// Timed-phase facts every workload reports as end-to-end metrics.
#[derive(Debug, Default)]
pub(crate) struct Timed {
    pub setup_ns: Vec<u64>,
    /// [`host::sample`]s around the set-ups: one before each, one after
    /// the last.
    pub setup_host: Vec<f64>,
    pub latency_ns: Vec<u64>,
    /// [`host::sample`]s around the timed requests: one before each, one
    /// after the last.
    pub latency_host: Vec<f64>,
    /// Functions answered in the timed phase.
    pub funcs: u64,
    /// `VmHWM` over the timed phase.
    pub peak_rss_kb: Option<u64>,
}

/// Exact answers summed over the run's fixed sample.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct Exact {
    pub gcc_yes: u64,
    pub combined_yes: u64,
    pub speedup_r4600: Vec<f64>,
    pub speedup_r10000: Vec<f64>,
}

impl Exact {
    fn dep_reduction(&self) -> f64 {
        1.0 - self.combined_yes as f64 / self.gcc_yes.max(1) as f64
    }
}

/// Push the end-to-end metrics of an untraced run. Every timing is in
/// nominal-host time ([`host`]); the notes give the wall-clock figures.
pub(crate) fn push_end_to_end(out: &mut Outcome, t: &Timed, exact: &Exact) {
    let wall_ms: Vec<f64> = t.latency_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let ms: Vec<f64> = (wall_ms.iter().enumerate())
        .map(|(i, w)| w * host::scale(&t.latency_host, i))
        .collect();
    let setup: Vec<f64> = (t.setup_ns.iter().enumerate())
        .map(|(i, &n)| n as f64 / 1e9 * host::scale_between(&t.setup_host, i))
        .collect();
    let busy_s = ms.iter().sum::<f64>() / 1e3;
    let wall_s = wall_ms.iter().sum::<f64>() / 1e3;
    let ok = out.attempted.saturating_sub(out.failed) as f64 / out.attempted.max(1) as f64;
    out.push("setup_s", stats::median(&setup), "s");
    out.push("funcs_per_s", t.funcs as f64 / busy_s.max(1e-9), "1/s");
    out.push("latency_p50_ms", stats::percentile(&ms, 50.0), "ms");
    out.push("latency_p90_ms", stats::percentile(&ms, 90.0), "ms");
    out.push("peak_rss_mb", t.peak_rss_kb.unwrap_or(0) as f64 / 1024.0, "MB");
    out.push("ok_ratio", ok, "ratio");
    out.push("dep_reduction", exact.dep_reduction(), "ratio");
    out.push("speedup_r4600", stats::geomean(&exact.speedup_r4600), "x");
    out.push("speedup_r10000", stats::geomean(&exact.speedup_r10000), "x");
    let each: Vec<String> = setup.iter().map(|s| format!("{s:.3}")).collect();
    out.notes.push(format!(
        "timed requests: {}, functions: {}, busy: {busy_s:.3} s nominal, set-ups: {} s nominal",
        t.latency_ns.len(),
        t.funcs,
        each.join(" ")
    ));
    let host_ms: Vec<f64> = t.latency_host.iter().map(|n| n / 1e6).collect();
    out.notes.push(format!(
        "wall clock: funcs/s {:.2}, p50 {:.2} ms, p90 {:.2} ms, setup {:.3} s; \
         host kernel median {:.4} ms (nominal {:.4}), quartiles {:.4}..{:.4}",
        t.funcs as f64 / wall_s.max(1e-9),
        stats::percentile(&wall_ms, 50.0),
        stats::percentile(&wall_ms, 90.0),
        stats::median(&t.setup_ns.iter().map(|&n| n as f64 / 1e9).collect::<Vec<_>>()),
        stats::median(&host_ms),
        host::NOMINAL_NS / 1e6,
        stats::quartiles(&host_ms).map_or(0.0, |q| q.0),
        stats::quartiles(&host_ms).map_or(0.0, |q| q.1),
    ));
}

/// Every layer the ledger can charge, in report order: span name and
/// metric name.
pub const LAYERS: [(&str, &str); 18] = [
    ("lang.parse", "lang.parse_ms"),
    ("lang.interp", "lang.interp_ms"),
    ("frontend.hli", "frontend.hli_ms"),
    ("core.verify", "core.verify_ms"),
    ("core.encode", "core.encode_ms"),
    ("core.decode", "core.decode_ms"),
    ("backend.lower", "backend.lower_ms"),
    ("backend.schedule", "backend.schedule_ms"),
    ("machine.exec", "machine.exec_ms"),
    ("machine.r4600", "machine.r4600_ms"),
    ("machine.r10000", "machine.r10000_ms"),
    ("serve.decode", "serve.decode_ms"),
    ("serve.key", "serve.key_ms"),
    ("serve.probe", "serve.probe_ms"),
    ("pool.fanout", "pool.fanout_ms"),
    ("serve.store", "serve.store_ms"),
    ("obs.replay", "obs.replay_ms"),
    ("serve.encode", "serve.encode_ms"),
];

/// Exact counts a traced run reports; workloads that do not reach a layer
/// report 0 for its counts.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts {
    pub dyn_insns: u64,
    pub r10000_cycles: u64,
    pub dep_tests: u64,
    pub hli_bytes: u64,
    pub request_bytes: u64,
    pub probe_bytes: u64,
    pub hits: u64,
    pub misses: u64,
    pub objects_written: u64,
    pub records_replayed: u64,
}

/// Push the per-layer metrics of a traced run: the ledger against the
/// untraced time of the same requests, the pool's busy ratio and the
/// exact counts.
pub(crate) fn push_per_layer(
    out: &mut Outcome,
    ledger: &spans::Ledger,
    untraced_ns: u64,
    busy_ratio: f64,
    c: &Counts,
) {
    let untraced_ms = untraced_ns as f64 / 1e6;
    let traced_ms = ledger.traced_ns as f64 / 1e6;
    for (layer, metric) in LAYERS {
        out.push(metric, ledger.wall_ms(layer), "ms");
    }
    let unattributed = untraced_ms - ledger.attributed_ms();
    out.push("unattributed_ms", unattributed, "ms");
    out.push("trace.untraced_ms", untraced_ms, "ms");
    out.push("trace.traced_ms", traced_ms, "ms");
    out.push("trace.overhead_ms", traced_ms - untraced_ms, "ms");
    out.push("pool.busy_ratio", busy_ratio, "ratio");
    out.push("machine.dyn_insns", c.dyn_insns as f64, "count");
    out.push("machine.r10000_cycles", c.r10000_cycles as f64, "count");
    out.push("backend.dep_tests", c.dep_tests as f64, "count");
    out.push("core.hli_bytes", c.hli_bytes as f64, "B");
    out.push("serve.request_kb", c.request_bytes as f64 / 1024.0, "KiB");
    out.push("serve.probe_kb", c.probe_bytes as f64 / 1024.0, "KiB");
    out.push("serve.hits", c.hits as f64, "count");
    out.push("serve.misses", c.misses as f64, "count");
    let probes = (c.hits + c.misses).max(1) as f64;
    out.push("serve.hit_ratio", c.hits as f64 / probes, "ratio");
    out.push("serve.objects_written", c.objects_written as f64, "count");
    out.push("obs.records_replayed", c.records_replayed as f64, "count");

    out.notes.push(format!(
        "ledger (wall ms, share of the untraced {untraced_ms:.1} ms of the same requests):"
    ));
    let glue = ledger.wall_ms(spans::REQUEST);
    let rows = LAYERS
        .iter()
        .map(|(layer, _)| (*layer, ledger.wall_ms(layer)))
        .chain([("(replay glue)", glue), ("unattributed", unattributed)]);
    for (name, ms) in rows.filter(|(_, ms)| *ms != 0.0) {
        let share = 100.0 * ms / untraced_ms.max(1e-9);
        out.notes.push(format!("  {name:<18} {ms:>11.2} {share:>6.1}%"));
    }
    out.notes.push(format!(
        "tracing overhead: traced {traced_ms:.1} ms vs untraced {untraced_ms:.1} ms ({:+.1}%)",
        100.0 * (traced_ms / untraced_ms.max(1e-9) - 1.0)
    ));
}

/// Set up `n` times through `once` (each returns the state it built and
/// is timed as a whole); keep the last state. Each set-up starts after
/// [`quiesce`], so it does not share the disk with the writeback of the
/// one before. Also returns the set-up times and [`host::sample`]s taken
/// before each set-up and after the last.
pub(crate) fn set_up<S>(n: usize, mut once: impl FnMut(usize) -> S) -> (S, Vec<u64>, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut host = Vec::with_capacity(n + 1);
    let mut last = None;
    for i in 0..n.max(1) {
        drop(last.take());
        quiesce();
        if i == 0 {
            host.push(host::sample());
        }
        let t0 = Instant::now();
        let s = once(i);
        times.push(t0.elapsed().as_nanos() as u64);
        host.push(host::sample());
        last = Some(s);
    }
    (last.expect("at least one set-up"), times, host)
}

/// Whether a closed loop that started at `started` and has made `done`
/// requests makes another. A `limit` (a traced run's fixed request count)
/// replaces the time budget.
pub(crate) fn more(cfg: &RunCfg, limit: Option<usize>, started: Instant, done: usize) -> bool {
    /// Wall-clock ceiling of a timed phase, whatever the request floor.
    const HARD_CAP_S: f64 = 120.0;
    if let Some(limit) = limit {
        return done < limit;
    }
    let el = started.elapsed().as_secs_f64();
    el < HARD_CAP_S && (el < cfg.seconds || done < cfg.sizes.min_requests)
}

/// Called before each set-up and right before a timed phase, after set-up
/// and warm-up: write out the dirty pages that earlier set-ups (and
/// earlier runs) left behind, so their writeback does not compete with
/// the timed work for the CPUs.
pub(crate) fn quiesce() {
    let _ = std::process::Command::new("sync").status();
}

/// Run one workload.
///
/// The program's own wall-clock tracer is switched off first, so spans the
/// layers record internally neither pile up in memory nor cost time that
/// differs between the start and the end of a run.
pub fn run(cfg: &RunCfg) -> Outcome {
    hli_obs::trace::global().set_enabled(false);
    for _ in 0..3 {
        host::sample();
    }
    let dir = cfg.cache_root.join(format!("{}-{}", cfg.workload.name(), std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = match cfg.workload {
        Workload::Pipeline => pipeline::run(cfg),
        Workload::ServeEdit | Workload::ServeCold => serve::run(cfg, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(&cfg.cache_root);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.notes.insert(
        0,
        format!(
            "workload {} seed {} trace {} nproc {nproc} cache_fs {} ({})",
            cfg.workload.name(),
            cfg.seed,
            u8::from(cfg.trace),
            fs_type(&cfg.cache_root).unwrap_or_else(|| "unknown".into()),
            cfg.cache_root.display()
        ),
    );
    out
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> Option<String> {
    let _ = std::fs::create_dir_all(path);
    let abs = std::fs::canonicalize(path).ok()?;
    let _ = std::fs::remove_dir(path);
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|l| {
            let (pre, post) = l.split_once(" - ")?;
            let mount = pre.split(' ').nth(4)?;
            let fs = post.split(' ').next()?;
            abs.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs)| fs)
}

/// Resident-set high-water mark of this process, in kB.
pub(crate) fn peak_rss_kb() -> Option<u64> {
    hli_obs::mem::peak_rss_kb()
}
