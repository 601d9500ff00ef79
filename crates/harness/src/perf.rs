//! The `BENCH_*.json` perf-checkpoint format and its comparison policy —
//! the data model behind the `perfbench` binary.
//!
//! A [`PerfReport`] freezes one full-pipeline run over a generated corpus
//! (see [`hli_suite::corpus`]) into four sections with *different*
//! comparison rules:
//!
//! * `counters` — work done: dependence tests, scheduled-cycle totals,
//!   dynamic instructions, HLI bytes. Deterministic per corpus spec
//!   (derived from scoped per-report metrics, which the `--jobs` contract
//!   pins), so [`compare`] demands **exact** equality;
//! * `times_ms` — per-stage wall clock from the `obs.phase.*` histograms.
//!   Machine dependent, so compared **softly**: only a slowdown beyond
//!   both a relative tolerance and an absolute floor counts, and getting
//!   faster is never a failure;
//! * `rates` — derived throughput (queries/sec). Soft, direction-aware:
//!   only a *drop* beyond tolerance fails;
//! * `mem_kb` — peak RSS. Soft, growth beyond tolerance plus floor fails.
//!
//! The report also echoes the generating [`CorpusSpec`]s: comparing runs
//! of different workloads is a usage error ([`compare`] refuses), not a
//! regression, and the echo is what makes a checked-in `BENCH_6.json`
//! reproducible from the file alone. It records the pool worker count
//! too, because peak RSS grows with it: a run at another count is
//! refused the same way. `schema_version` mismatches are likewise
//! refused — a stale baseline fails loudly.

use hli_obs::json::{escape_into, parse, push_f64, Json};
use hli_obs::MetricsSnapshot;
use hli_suite::corpus::{CallShape, CorpusSpec};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use crate::report::total_query_stats;
use crate::BenchReport;

/// The corpus parameters a report was measured over, echoed verbatim so
/// the run is reproducible from the artifact and so [`compare`] can
/// refuse cross-workload comparisons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEcho {
    pub seeds: Vec<u64>,
    pub programs: usize,
    pub funcs: usize,
    pub max_loop_depth: usize,
    pub alias_pct: u8,
    pub shape: String,
    pub arrays: usize,
    pub array_len: usize,
    pub stmts: usize,
}

impl CorpusEcho {
    /// Echo of `spec` run once per seed in `seeds` (the spec's own seed
    /// field is ignored; `specs` reconstructs the per-seed variants).
    pub fn new(spec: &CorpusSpec, seeds: &[u64]) -> Self {
        CorpusEcho {
            seeds: seeds.to_vec(),
            programs: spec.programs,
            funcs: spec.funcs,
            max_loop_depth: spec.max_loop_depth,
            alias_pct: spec.alias_pct,
            shape: shape_name(spec.shape).to_string(),
            arrays: spec.arrays,
            array_len: spec.array_len,
            stmts: spec.stmts,
        }
    }

    /// The per-seed [`CorpusSpec`]s this echo describes.
    pub fn specs(&self) -> Result<Vec<CorpusSpec>, String> {
        let shape = parse_shape(&self.shape)?;
        Ok(self
            .seeds
            .iter()
            .map(|&seed| CorpusSpec {
                seed,
                programs: self.programs,
                funcs: self.funcs,
                max_loop_depth: self.max_loop_depth,
                alias_pct: self.alias_pct,
                shape,
                arrays: self.arrays,
                array_len: self.array_len,
                stmts: self.stmts,
            })
            .collect())
    }
}

pub fn shape_name(s: CallShape) -> &'static str {
    match s {
        CallShape::Chain => "chain",
        CallShape::Balanced => "balanced",
        CallShape::Wide => "wide",
    }
}

pub fn parse_shape(s: &str) -> Result<CallShape, String> {
    match s {
        "chain" => Ok(CallShape::Chain),
        "balanced" => Ok(CallShape::Balanced),
        "wide" => Ok(CallShape::Wide),
        other => Err(format!("unknown call shape `{other}` (chain|balanced|wide)")),
    }
}

/// One frozen perf checkpoint (see module docs for section semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    pub schema_version: u64,
    pub corpus: CorpusEcho,
    /// Pool workers the corpus ran on (resolved: never 0; 0 in a
    /// checkpoint that predates the field).
    pub jobs: usize,
    pub counters: BTreeMap<String, u64>,
    pub times_ms: BTreeMap<String, f64>,
    pub rates: BTreeMap<String, f64>,
    pub mem_kb: BTreeMap<String, u64>,
}

/// Soft-section tolerances for [`compare`]. Defaults are deliberately
/// loose: CI machines differ in load and clock, and the exact sections
/// carry the regression-gating weight.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Allowed relative slowdown per `times_ms` key, percent.
    pub time_pct: f64,
    /// Slowdowns below this absolute delta never fail (milliseconds).
    pub time_floor_ms: f64,
    /// Allowed relative drop per `rates` key, percent.
    pub rate_pct: f64,
    /// Allowed relative growth per `mem_kb` key, percent.
    pub rss_pct: f64,
    /// RSS growth below this absolute delta never fails (kilobytes).
    pub rss_floor_kb: u64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            time_pct: 75.0,
            time_floor_ms: 100.0,
            rate_pct: 60.0,
            rss_pct: 50.0,
            rss_floor_kb: 16 * 1024,
        }
    }
}

/// Build a report from the measured pipeline outputs: `reports` carry the
/// deterministic counters, `phase_snap` (the global registry) carries the
/// stage wall-clock, `total_wall` the end-to-end run time, and `jobs` is
/// the worker count they ran on.
pub fn build_report(
    corpus: CorpusEcho,
    jobs: usize,
    reports: &[BenchReport],
    total_wall: Duration,
    phase_snap: &MetricsSnapshot,
) -> PerfReport {
    let stats = total_query_stats(reports);
    let mut counters = BTreeMap::new();
    let mut c = |k: &str, v: u64| {
        counters.insert(k.to_string(), v);
    };
    c("corpus.programs", reports.len() as u64);
    c(
        "corpus.validated",
        reports.iter().filter(|r| r.validated).count() as u64,
    );
    c("corpus.source_lines", reports.iter().map(|r| r.code_lines as u64).sum());
    c("hli.bytes", reports.iter().map(|r| r.hli_bytes as u64).sum());
    c("query.total_tests", stats.total_tests);
    c("query.gcc_yes", stats.gcc_yes);
    c("query.hli_yes", stats.hli_yes);
    c("query.combined_yes", stats.combined_yes);
    c("query.call_queries", stats.call_queries);
    c("machine.dyn_insns", reports.iter().map(|r| r.dyn_insns).sum());
    if let Some(first) = reports.first() {
        for mc in &first.machines {
            let m = mc.machine;
            let sum = |pick: fn(crate::MachineCycles) -> u64| -> u64 {
                reports.iter().filter_map(|r| r.cycles_on(m)).map(pick).sum()
            };
            c(&format!("cycles.{m}.gcc"), sum(|mc| mc.gcc));
            c(&format!("cycles.{m}.hli"), sum(|mc| mc.hli));
        }
    }

    let mut times_ms = BTreeMap::new();
    for (k, h) in &phase_snap.histograms {
        if let Some(stage) = k.strip_prefix("obs.phase.").and_then(|s| s.strip_suffix(".ns")) {
            times_ms.insert(stage.to_string(), h.sum as f64 / 1e6);
        }
    }
    times_ms.insert("total_wall".to_string(), total_wall.as_secs_f64() * 1e3);

    let mut rates = BTreeMap::new();
    let sched_s = hli_obs::phase::total_ns(phase_snap, "backend.schedule") as f64 / 1e9;
    if sched_s > 0.0 && stats.total_tests > 0 {
        rates.insert("queries_per_sec".to_string(), stats.total_tests as f64 / sched_s);
    }

    let mut mem_kb = BTreeMap::new();
    if let Some(kb) = hli_obs::mem::peak_rss_kb() {
        mem_kb.insert("peak_rss_kb".to_string(), kb);
    }

    PerfReport {
        schema_version: hli_obs::SCHEMA_VERSION,
        corpus,
        jobs,
        counters,
        times_ms,
        rates,
        mem_kb,
    }
}

impl PerfReport {
    /// Serialize as pretty JSON (sorted keys, trailing newline) — the
    /// format of a checked-in `BENCH_*.json`.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(o, "  \"kind\": \"perfbench\",");
        let _ = writeln!(o, "  \"jobs\": {},", self.jobs);
        o.push_str("  \"corpus\": {\n");
        let seeds = self.corpus.seeds.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", ");
        let _ = writeln!(o, "    \"seeds\": [{seeds}],");
        let _ = writeln!(o, "    \"programs\": {},", self.corpus.programs);
        let _ = writeln!(o, "    \"funcs\": {},", self.corpus.funcs);
        let _ = writeln!(o, "    \"max_loop_depth\": {},", self.corpus.max_loop_depth);
        let _ = writeln!(o, "    \"alias_pct\": {},", self.corpus.alias_pct);
        let _ = writeln!(o, "    \"shape\": \"{}\",", self.corpus.shape);
        let _ = writeln!(o, "    \"arrays\": {},", self.corpus.arrays);
        let _ = writeln!(o, "    \"array_len\": {},", self.corpus.array_len);
        let _ = writeln!(o, "    \"stmts\": {}", self.corpus.stmts);
        o.push_str("  },\n");
        section_u64(&mut o, "counters", &self.counters, ",");
        section_f64(&mut o, "times_ms", &self.times_ms, ",");
        section_f64(&mut o, "rates", &self.rates, ",");
        section_u64(&mut o, "mem_kb", &self.mem_kb, "");
        o.push_str("}\n");
        o
    }

    /// Parse a `BENCH_*.json` document (leading non-JSON lines skipped the
    /// way `obsdiff` does, so transcripts work too).
    pub fn parse_str(text: &str) -> Result<PerfReport, String> {
        let start = text
            .lines()
            .position(|l| l.trim_end() == "{")
            .ok_or("no JSON document found (no `{` line)")?;
        let json: String = text.lines().skip(start).collect::<Vec<_>>().join("\n");
        let doc = parse(&json)?;
        let num = |j: &Json, key: &str| -> Result<f64, String> {
            j.get(key)
                .and_then(Json::as_num)
                .ok_or(format!("missing numeric field `{key}`"))
        };
        let corpus_doc = doc.get("corpus").ok_or("missing `corpus` object")?;
        let seeds = corpus_doc
            .get("seeds")
            .and_then(Json::as_arr)
            .ok_or("missing `corpus.seeds` array")?
            .iter()
            .map(|j| j.as_num().map(|n| n as u64).ok_or("non-numeric seed".to_string()))
            .collect::<Result<Vec<_>, _>>()?;
        let corpus = CorpusEcho {
            seeds,
            programs: num(corpus_doc, "programs")? as usize,
            funcs: num(corpus_doc, "funcs")? as usize,
            max_loop_depth: num(corpus_doc, "max_loop_depth")? as usize,
            alias_pct: num(corpus_doc, "alias_pct")? as u8,
            shape: corpus_doc
                .get("shape")
                .and_then(Json::as_str)
                .ok_or("missing `corpus.shape`")?
                .to_string(),
            arrays: num(corpus_doc, "arrays")? as usize,
            array_len: num(corpus_doc, "array_len")? as usize,
            stmts: num(corpus_doc, "stmts")? as usize,
        };
        Ok(PerfReport {
            // Absent field = pre-versioning artifact = version 1.
            schema_version: doc
                .get("schema_version")
                .and_then(Json::as_num)
                .map(|n| n as u64)
                .unwrap_or(1),
            corpus,
            jobs: doc.get("jobs").and_then(Json::as_num).map(|n| n as usize).unwrap_or(0),
            counters: num_map(&doc, "counters")?.into_iter().map(|(k, v)| (k, v as u64)).collect(),
            times_ms: num_map(&doc, "times_ms")?,
            rates: num_map(&doc, "rates")?,
            mem_kb: num_map(&doc, "mem_kb")?.into_iter().map(|(k, v)| (k, v as u64)).collect(),
        })
    }
}

/// Read and parse a `BENCH_*.json` checkpoint for `--compare`, with
/// diagnostics that name the file and the expected schema generation —
/// a missing or pre-versioning baseline must say how to regenerate, not
/// surface as a bare I/O or parse error.
pub fn load_baseline(path: &str) -> Result<PerfReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read baseline {path}: {e} — regenerate it with \
             `perfbench --out {path}` (expected schema v{})",
            hli_obs::SCHEMA_VERSION
        )
    })?;
    if !text.contains("\"schema_version\"") {
        return Err(format!(
            "{path}: baseline has no `schema_version` field (expected v{}) — not a \
             perfbench checkpoint, or one predating versioning; regenerate it with \
             `perfbench --out {path}`",
            hli_obs::SCHEMA_VERSION
        ));
    }
    let report = PerfReport::parse_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if report.schema_version != hli_obs::SCHEMA_VERSION {
        return Err(format!(
            "{path}: baseline is schema v{}, this perfbench expects v{} — regenerate \
             it with `perfbench --out {path}`",
            report.schema_version,
            hli_obs::SCHEMA_VERSION
        ));
    }
    Ok(report)
}

fn num_map(doc: &Json, key: &str) -> Result<BTreeMap<String, f64>, String> {
    match doc.get(key) {
        Some(Json::Obj(m)) => {
            Ok(m.iter().filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n))).collect())
        }
        _ => Err(format!("missing `{key}` object")),
    }
}

fn section_u64(o: &mut String, name: &str, m: &BTreeMap<String, u64>, trail: &str) {
    let _ = writeln!(o, "  \"{name}\": {{");
    let mut first = true;
    for (k, v) in m {
        if !first {
            o.push_str(",\n");
        }
        first = false;
        o.push_str("    ");
        escape_into(o, k);
        let _ = write!(o, ": {v}");
    }
    if !first {
        o.push('\n');
    }
    let _ = writeln!(o, "  }}{trail}");
}

fn section_f64(o: &mut String, name: &str, m: &BTreeMap<String, f64>, trail: &str) {
    let _ = writeln!(o, "  \"{name}\": {{");
    let mut first = true;
    for (k, v) in m {
        if !first {
            o.push_str(",\n");
        }
        first = false;
        o.push_str("    ");
        escape_into(o, k);
        o.push_str(": ");
        // Two decimals keep checked-in files diff-friendly.
        push_f64(o, (v * 100.0).round() / 100.0);
    }
    if !first {
        o.push('\n');
    }
    let _ = writeln!(o, "  }}{trail}");
}

/// Compare a fresh run (`cur`) against a stored checkpoint (`prev`).
///
/// `Err` is a *usage* error — mismatched schema generation or a different
/// corpus, where a diff would be meaningless (callers exit 2). `Ok(v)`
/// returns the regression descriptions, empty when the gate passes.
pub fn compare(
    prev: &PerfReport,
    cur: &PerfReport,
    tol: &Tolerances,
) -> Result<Vec<String>, String> {
    if prev.schema_version != cur.schema_version {
        return Err(format!(
            "schema_version mismatch: baseline v{}, current v{} — regenerate the baseline",
            prev.schema_version, cur.schema_version
        ));
    }
    if prev.corpus != cur.corpus {
        return Err(format!(
            "corpus mismatch: baseline {:?} vs current {:?} — these runs measured \
             different workloads",
            prev.corpus, cur.corpus
        ));
    }
    if prev.jobs != cur.jobs {
        return Err(format!(
            "worker-count mismatch: baseline ran on {} worker(s), current on {} — peak \
             RSS grows with workers; rerun with `--jobs {}` or regenerate the baseline",
            prev.jobs, cur.jobs, prev.jobs
        ));
    }
    let mut regressions = Vec::new();

    // Counters: exact. Both directions fail — a counter that *dropped*
    // still means the pipeline did different work than the checkpoint.
    let keys: std::collections::BTreeSet<&String> =
        prev.counters.keys().chain(cur.counters.keys()).collect();
    for k in keys {
        match (prev.counters.get(k), cur.counters.get(k)) {
            (Some(p), Some(c)) if p == c => {}
            (Some(p), Some(c)) => {
                regressions.push(format!("counter {k}: {p} -> {c} (exact-match section)"))
            }
            (Some(p), None) => regressions.push(format!("counter {k}: {p} -> missing")),
            // New counters are new instrumentation, not a regression.
            (None, Some(_)) | (None, None) => {}
        }
    }

    for (k, p) in &prev.times_ms {
        let Some(c) = cur.times_ms.get(k) else {
            regressions.push(format!("time {k}: {p:.1} ms -> missing"));
            continue;
        };
        let delta = c - p;
        if delta > p * tol.time_pct / 100.0 && delta > tol.time_floor_ms {
            regressions.push(format!(
                "time {k}: {p:.1} ms -> {c:.1} ms (+{:.0}% > tol {:.0}%)",
                delta / p.max(1e-9) * 100.0,
                tol.time_pct
            ));
        }
    }

    for (k, p) in &prev.rates {
        let Some(c) = cur.rates.get(k) else {
            regressions.push(format!("rate {k}: {p:.1} -> missing"));
            continue;
        };
        if *c < p * (1.0 - tol.rate_pct / 100.0) {
            regressions.push(format!(
                "rate {k}: {p:.1} -> {c:.1} (-{:.0}% > tol {:.0}%)",
                (p - c) / p.max(1e-9) * 100.0,
                tol.rate_pct
            ));
        }
    }

    for (k, p) in &prev.mem_kb {
        // A baseline from a platform with RSS sampling compared on one
        // without (or vice versa) should not fail the gate.
        let Some(c) = cur.mem_kb.get(k) else { continue };
        let grow = c.saturating_sub(*p);
        if grow as f64 > *p as f64 * tol.rss_pct / 100.0 && grow > tol.rss_floor_kb {
            regressions.push(format!(
                "mem {k}: {p} kB -> {c} kB (+{:.0}% > tol {:.0}%)",
                grow as f64 / (*p).max(1) as f64 * 100.0,
                tol.rss_pct
            ));
        }
    }

    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfReport {
        let spec = CorpusSpec::default();
        let corpus = CorpusEcho::new(&spec, &[1, 2]);
        let mut counters = BTreeMap::new();
        counters.insert("query.total_tests".into(), 1234u64);
        counters.insert("cycles.r4600.hli".into(), 98765u64);
        let mut times_ms = BTreeMap::new();
        times_ms.insert("backend.schedule".into(), 250.0);
        let mut rates = BTreeMap::new();
        rates.insert("queries_per_sec".into(), 4936.0);
        let mut mem_kb = BTreeMap::new();
        mem_kb.insert("peak_rss_kb".into(), 40000u64);
        PerfReport {
            schema_version: hli_obs::SCHEMA_VERSION,
            corpus,
            jobs: 2,
            counters,
            times_ms,
            rates,
            mem_kb,
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let parsed = PerfReport::parse_str(&r.to_json()).unwrap();
        assert_eq!(r, parsed);
    }

    #[test]
    fn parse_skips_leading_transcript_lines() {
        let text = format!("perfbench: running...\nsome table\n{}", sample().to_json());
        assert_eq!(PerfReport::parse_str(&text).unwrap(), sample());
    }

    #[test]
    fn self_compare_is_clean() {
        let r = sample();
        assert!(compare(&r, &r, &Tolerances::default()).unwrap().is_empty());
    }

    #[test]
    fn counter_drift_fails_exactly() {
        let prev = sample();
        let mut cur = sample();
        *cur.counters.get_mut("query.total_tests").unwrap() += 1;
        let regs = compare(&prev, &cur, &Tolerances::default()).unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].contains("query.total_tests"));
    }

    #[test]
    fn small_or_improving_times_pass_large_slowdowns_fail() {
        let prev = sample();
        let tol = Tolerances::default();
        let mut faster = sample();
        *faster.times_ms.get_mut("backend.schedule").unwrap() = 10.0;
        assert!(compare(&prev, &faster, &tol).unwrap().is_empty());
        // +80% but only +50 ms: under the absolute floor, passes.
        let mut small = sample();
        *small.times_ms.get_mut("backend.schedule").unwrap() = 300.0;
        assert!(compare(&prev, &small, &tol).unwrap().is_empty());
        let mut slow = sample();
        *slow.times_ms.get_mut("backend.schedule").unwrap() = 900.0;
        let regs = compare(&prev, &slow, &tol).unwrap();
        assert!(regs.iter().any(|r| r.contains("backend.schedule")), "{regs:?}");
    }

    #[test]
    fn rate_drops_and_rss_growth_fail() {
        let prev = sample();
        let tol = Tolerances::default();
        let mut cur = sample();
        *cur.rates.get_mut("queries_per_sec").unwrap() = 100.0;
        *cur.mem_kb.get_mut("peak_rss_kb").unwrap() = 400000;
        let regs = compare(&prev, &cur, &tol).unwrap();
        assert_eq!(regs.len(), 2, "{regs:?}");
    }

    #[test]
    fn schema_and_corpus_mismatches_are_hard_errors() {
        let prev = sample();
        let mut wrong_ver = sample();
        wrong_ver.schema_version = 1;
        assert!(compare(&prev, &wrong_ver, &Tolerances::default()).is_err());
        let mut wrong_corpus = sample();
        wrong_corpus.corpus.funcs += 1;
        assert!(compare(&prev, &wrong_corpus, &Tolerances::default()).is_err());
    }

    #[test]
    fn a_different_worker_count_is_refused() {
        let prev = sample();
        let mut wider = sample();
        wider.jobs = 8;
        let err = compare(&prev, &wider, &Tolerances::default()).unwrap_err();
        assert!(err.contains("--jobs 2"), "must say how to rerun: {err}");
        // A checkpoint from before the field parses as 0 workers and is
        // refused too, not compared.
        let old = PerfReport::parse_str(&prev.to_json().replace("  \"jobs\": 2,\n", "")).unwrap();
        assert_eq!(old.jobs, 0);
        assert!(compare(&old, &prev, &Tolerances::default()).is_err());
    }

    #[test]
    fn load_baseline_diagnoses_missing_and_schema_less_files() {
        let missing = "/nonexistent/BENCH_void.json";
        let err = load_baseline(missing).unwrap_err();
        assert!(err.contains(missing), "must name the file: {err}");
        assert!(err.contains("regenerate"), "must say how to recover: {err}");
        assert!(
            err.contains(&format!("v{}", hli_obs::SCHEMA_VERSION)),
            "must name the expected schema: {err}"
        );

        let dir = std::env::temp_dir();
        let stale = dir.join(format!("hli_bench_stale_{}.json", std::process::id()));
        // A structurally valid checkpoint predating the version field.
        let body = sample()
            .to_json()
            .replace(&format!("  \"schema_version\": {},\n", hli_obs::SCHEMA_VERSION), "");
        assert!(!body.contains("schema_version"));
        std::fs::write(&stale, body).unwrap();
        let err = load_baseline(stale.to_str().unwrap()).unwrap_err();
        assert!(
            err.contains("no `schema_version`") && err.contains("regenerate"),
            "schema-less baseline needs a clear diagnostic: {err}"
        );
        let _ = std::fs::remove_file(&stale);
    }

    #[test]
    fn load_baseline_round_trips_a_good_checkpoint() {
        let dir = std::env::temp_dir();
        let good = dir.join(format!("hli_bench_good_{}.json", std::process::id()));
        std::fs::write(&good, sample().to_json()).unwrap();
        assert_eq!(load_baseline(good.to_str().unwrap()).unwrap(), sample());
        let _ = std::fs::remove_file(&good);
    }

    #[test]
    fn echo_reconstructs_specs() {
        let spec = CorpusSpec { seed: 0, ..Default::default() };
        let echo = CorpusEcho::new(&spec, &[7, 9]);
        let specs = echo.specs().unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].seed, 7);
        assert_eq!(specs[1].seed, 9);
        assert_eq!(specs[0].funcs, spec.funcs);
        assert!(parse_shape("nonesuch").is_err());
    }
}
