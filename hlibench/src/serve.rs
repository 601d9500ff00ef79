//! The serve workloads: the `hlicc serve` daemon driven in-process through
//! `Server::handle_line`, the call the daemon makes for each NDJSON line.
//!
//! * `serve_edit` (jobs 1): set-up fills the cache with every pristine
//!   project; every later batch resubmits one project with one more
//!   one-constant edit, so exactly one function misses per batch.
//! * `serve_cold` (jobs 2): every batch is a corpus the daemon has never
//!   seen, so every function misses, fans out over the pool and is stored.
//!
//! The daemon runs with the `hlicc serve` default cache budget (none).

use crate::spans::{Ledger, Recorder, SpanId, REQUEST};
use crate::{Counts, Exact, Outcome, RunCfg, Timed, Workload};
use hli_backend::ddg::QueryStats;
use hli_backend::driver::{schedule_program_passes, PassSpec};
use hli_backend::lower::lower_program;
use hli_backend::rtl::{dump_func, RtlProgram};
use hli_core::image::EntryRef;
use hli_core::HliFile;
use hli_harness::{default_machines, run_benchmark_on, ImportConfig};
use hli_obs::{capture_cfg, CaptureCfg, ObsShard};
use hli_serve::{
    fnv1a, function_key, CacheKey, CachedObject, CompileFlags, DiskCache, FuncResult, ProgramReq,
    ProgramResult, Request, Response, ServeConfig, Server, ShardData,
};
use hli_suite::corpus::{edit_program, generate, CorpusSpec};
use hli_suite::Benchmark;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seed of the fixed corpora `serve_cold` sets up with.
const WARM_SEED: u64 = 1999;

/// Pool workers of the daemon under each workload.
fn jobs(w: Workload) -> usize {
    if w == Workload::ServeCold {
        2
    } else {
        1
    }
}

/// One compile batch: its programs (name, source) and its request line.
#[derive(Debug, Clone)]
pub struct Batch {
    pub id: u64,
    pub programs: Vec<(String, String)>,
    pub line: String,
}

impl Batch {
    fn new(id: u64, programs: Vec<(String, String)>) -> Batch {
        let reqs = programs
            .iter()
            .map(|(name, source)| ProgramReq {
                name: name.clone(),
                source: source.clone(),
                flags: CompileFlags::default(),
            })
            .collect();
        let line = Request::Compile { id, programs: reqs }.to_line();
        Batch { id, programs, line }
    }
}

/// `source` with `salt` added to the seed constant of every function,
/// `main` included. Corpora from different seeds share a byte-identical
/// `main` about once in thirty programs (same root call on the same line),
/// which the content-addressed cache rightly answers as a hit; a distinct
/// salt per corpus makes every function of it new to the daemon.
fn salted(source: &str, funcs: usize, salt: u64) -> String {
    let mut src = source.to_string();
    for k in 0..funcs {
        src = edit_program(&src, k, salt).expect("generated functions carry a seed constant");
    }
    const MAIN: &str = "int main() {\n    int t;\n    t = 0;\n";
    assert!(src.contains(MAIN), "generated main starts with `t = 0;`");
    src.replacen(MAIN, &format!("int main() {{\n    int t;\n    t = {salt};\n"), 1)
}

/// A corpus from `seed`, salted with `salt`.
fn corpus(seed: u64, salt: u64, programs: usize, funcs: usize) -> Vec<(String, String)> {
    generate(&CorpusSpec { seed, programs, funcs, ..CorpusSpec::default() })
        .into_iter()
        .map(|b| (b.name, salted(&b.source, funcs, salt)))
        .collect()
}

/// The batch sequence of one run, a pure function of the workload, the
/// seed and the sizes.
///
/// `serve_edit` keeps several projects, each a corpus of its own: set-up
/// submits every pristine project once, and every later batch resubmits
/// one project (round-robin) with one more one-constant edit. One project
/// alone would make a run's timings a property of one small corpus, which
/// varies by ±20% from seed to seed.
pub struct Batches {
    workload: Workload,
    seed: u64,
    programs: usize,
    funcs: usize,
    /// Batches one set-up submits.
    setup: usize,
    /// `serve_edit`: every project's corpus with its edits so far.
    projects: Vec<Vec<(String, String)>>,
    next_id: u64,
}

/// Salt step between `serve_edit` projects: far above the `+10` each edit
/// adds, so no two projects ever hold the same function.
const PROJECT_SALT: u64 = 1_000_000;

impl Batches {
    pub fn new(workload: Workload, seed: u64, sizes: &crate::Sizes) -> Batches {
        let (programs, funcs, setup) = (sizes.programs, sizes.funcs, sizes.setup_requests);
        let projects = match workload {
            Workload::ServeEdit => (0..setup as u64)
                .map(|j| {
                    let pseed = seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    corpus(pseed, (j + 1) * PROJECT_SALT, programs, funcs)
                })
                .collect(),
            _ => Vec::new(),
        };
        Batches {
            workload,
            seed,
            programs,
            funcs,
            setup,
            projects,
            next_id: setup as u64,
        }
    }

    /// The set-up batches (ids `0..setup_requests`), every function of
    /// which misses: each pristine project for `serve_edit`; fixed corpora,
    /// the same on every run, for `serve_cold`.
    pub fn setup(&self) -> Vec<Batch> {
        match self.workload {
            Workload::ServeCold => (0..self.setup as u64)
                .map(|j| Batch::new(j, corpus(WARM_SEED + j, j, self.programs, self.funcs)))
                .collect(),
            _ => self
                .projects
                .iter()
                .enumerate()
                .map(|(j, p)| Batch::new(j as u64, p.clone()))
                .collect(),
        }
    }

    /// The next batch: one project with one more edit (`serve_edit`), or a
    /// corpus from a fresh seed derived from the run's seed (`serve_cold`).
    /// Its id is its salt, so no two batches of a run share a function.
    pub fn next_batch(&mut self) -> Batch {
        let id = self.next_id;
        self.next_id += 1;
        match self.workload {
            Workload::ServeCold => {
                let seed = self.seed.wrapping_mul(0x0100_0000_01B3)
                    ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Batch::new(id, corpus(seed, id, self.programs, self.funcs))
            }
            _ => {
                let n = self.projects.len();
                let e = (id as usize) - n;
                let (p, c) = (e % n, e / n);
                let (q, k) = (c % self.programs, (c / self.programs) % self.funcs);
                let src = &mut self.projects[p][q].1;
                *src = edit_program(src, k, 10).expect("generated functions carry a seed constant");
                Batch::new(id, self.projects[p].clone())
            }
        }
    }
}

/// How many functions of a batch must miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every function misses (set-up, `serve_cold`).
    AllMiss,
    /// Exactly one function misses (`serve_edit` after set-up).
    OneMiss,
}

/// What the gate learned from one correct batch.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchFacts {
    pub funcs: u64,
    pub hits: u64,
    pub stats: QueryStats,
}

/// A program's functions as the gate compares them: how many, and an
/// FNV-1a digest of their name-sorted `(function, sched_hash)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    funcs: u64,
    hash: u64,
}

impl Digest {
    fn of<N: AsRef<str>, H: AsRef<str>>(pairs: impl IntoIterator<Item = (N, H)>) -> Digest {
        let (mut funcs, mut text) = (0, String::new());
        for (name, sched_hash) in pairs {
            funcs += 1;
            let _ = writeln!(text, "{} {}", name.as_ref(), sched_hash.as_ref());
        }
        Digest { funcs, hash: fnv1a(text.as_bytes()) }
    }
}

/// What the gate keeps of one compile response until the timed phase is
/// over: a few dozen bytes per program, so that neither the gate's work
/// nor its memory lands in the timed phase or in `peak_rss_mb`.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    id: u64,
    hits: u64,
    misses: u64,
    /// Per program: its name, and its functions or its error.
    programs: Vec<(String, Result<Answered, String>)>,
    /// Dependence-test counts summed over the batch.
    stats: QueryStats,
}

/// One program's functions as answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Answered {
    digest: Digest,
    /// How many came from the cache.
    cached: u64,
}

impl Answer {
    pub fn parse(response: &str) -> Result<Answer, String> {
        let Response::Compile { id, results, hits, misses } = Response::parse(response)? else {
            return Err("not a compile response".into());
        };
        let mut stats = QueryStats::default();
        let programs = results
            .into_iter()
            .map(|r| {
                let funcs = r.outcome.map(|funcs| {
                    for f in &funcs {
                        stats.gcc_yes += f.stats.gcc_yes;
                        stats.combined_yes += f.stats.combined_yes;
                        stats.total_tests += f.stats.total_tests;
                    }
                    Answered {
                        digest: Digest::of(funcs.iter().map(|f| (&f.function, &f.sched_hash))),
                        cached: funcs.iter().filter(|f| f.cached).count() as u64,
                    }
                });
                (r.program, funcs)
            })
            .collect();
        Ok(Answer { id, hits, misses, programs, stats })
    }
}

/// Digest of every function of `source` as scheduled by the whole-program
/// Combined pass of `schedule_program_passes` — the path the `pipeline`
/// workload validates against the AST interpreter.
fn reference(source: &str) -> Result<Digest, String> {
    let (prog, sema) = hli_lang::compile_to_ast(source)?;
    let hli = hli_frontend::generate_hli(&prog, &sema);
    let rtl = lower_program(&prog, &sema);
    let flags = CompileFlags::default();
    let passes = [PassSpec { mode: flags.mode.dep_mode(), caches: None }];
    let lookup = |n: &str| hli.entry(n).map(EntryRef::Owned);
    let mut out = schedule_program_passes(&rtl, &lookup, &passes, flags.machine.backend(), 1);
    let (sched, _) = out.pop().expect("one pass in, one result out");
    let mut funcs: Vec<(&str, String)> = sched
        .funcs
        .iter()
        .map(|f| (f.name.as_str(), format!("{:016x}", fnv1a(dump_func(f).as_bytes()))))
        .collect();
    funcs.sort();
    Ok(Digest::of(funcs))
}

/// The gate's reference digests, computed on demand on two threads. They
/// are kept for `serve_edit`, which resubmits the same sources, and
/// dropped after each batch for `serve_cold`, which never does.
pub struct References {
    keep: bool,
    memo: HashMap<u64, Result<Digest, String>>,
}

impl References {
    pub fn new(keep: bool) -> References {
        References { keep, memo: HashMap::new() }
    }

    /// [`check_batch`] against the references of the batch's sources.
    pub fn check(
        &mut self,
        batch: &Batch,
        answer: &Answer,
        expect: Expect,
    ) -> Result<BatchFacts, String> {
        let mut missing: Vec<(u64, &str)> = Vec::new();
        for (_, src) in &batch.programs {
            let h = fnv1a(src.as_bytes());
            if !self.memo.contains_key(&h) && !missing.iter().any(|(m, _)| *m == h) {
                missing.push((h, src));
            }
        }
        let refs = hli_pool::run(2, &missing, |_w, (_, src)| reference(src));
        self.memo.extend(missing.iter().map(|(h, _)| *h).zip(refs));
        let facts = check_batch(batch, answer, expect, &self.memo);
        if !self.keep {
            self.memo.clear();
        }
        facts
    }
}

/// The correctness gate for one batch: the answer is the compile answer
/// to this batch, no program came back as an error, the miss count is the
/// expected one, and every program's functions carry the reference
/// `sched_hash`es.
fn check_batch(
    batch: &Batch,
    a: &Answer,
    expect: Expect,
    refs: &HashMap<u64, Result<Digest, String>>,
) -> Result<BatchFacts, String> {
    let id = batch.id;
    if a.id != id || a.programs.len() != batch.programs.len() {
        return Err(format!("batch {id}: answer to another request"));
    }
    let mut facts = BatchFacts { stats: a.stats, ..BatchFacts::default() };
    for ((program, outcome), (name, src)) in a.programs.iter().zip(&batch.programs) {
        let got = match outcome {
            Ok(a) if program == name => a,
            Ok(_) => return Err(format!("batch {id}: program {name} out of order")),
            Err(e) => return Err(format!("batch {id}: {name} came back as an error: {e}")),
        };
        match refs.get(&fnv1a(src.as_bytes())) {
            Some(Ok(want)) if *want == got.digest => {}
            Some(Ok(_)) => {
                return Err(format!("batch {id}: {name}: a sched_hash differs from the reference"))
            }
            Some(Err(e)) => return Err(format!("batch {id}: {name}: reference: {e}")),
            None => return Err(format!("batch {id}: {name}: no reference")),
        }
        facts.funcs += got.digest.funcs;
        facts.hits += got.cached;
    }
    let want_misses = match expect {
        Expect::AllMiss => facts.funcs,
        Expect::OneMiss => 1,
    };
    let (hits, misses) = (a.hits, a.misses);
    if misses != want_misses || hits + misses != facts.funcs || facts.hits != hits {
        return Err(format!(
            "batch {id}: {hits} hits and {misses} misses ({} functions marked cached), \
             expected {want_misses} misses of {}",
            facts.hits, facts.funcs
        ));
    }
    Ok(facts)
}

/// Open the workload's daemon on the cache under `dir`, with the
/// `hlicc serve` defaults apart from the pool size.
fn open_daemon(dir: &Path, w: Workload) -> Server {
    let cfg = ServeConfig {
        cache_dir: dir.to_path_buf(),
        cache_max_bytes: 0,
        jobs: jobs(w),
    };
    Server::new(cfg).expect("open the serve cache inside the checkout")
}

pub(crate) fn run(cfg: &RunCfg, dir: &Path) -> Outcome {
    let w = cfg.workload;
    let sz = &cfg.sizes;
    let mut out = Outcome::default();
    let mut timed = Timed::default();
    let mut batches = Batches::new(w, cfg.seed, sz);
    let setup = batches.setup();
    let warm: Vec<Batch> = (0..sz.warmup).map(|_| batches.next_batch()).collect();

    // Set-up: open the daemon on a fresh cache and answer the set-up
    // batches, several times; the warm-up batches follow the last one.
    let setup_dir = |i: usize| dir.join(format!("setup{i}"));
    let ((server, setup_answers), setup_ns, setup_host) = crate::set_up(sz.setups, |i| {
        let server = open_daemon(&setup_dir(i), w);
        let answers: Vec<String> = setup.iter().map(|b| server.handle_line(&b.line).0).collect();
        (server, answers)
    });
    for i in 0..sz.setups.saturating_sub(1) {
        let _ = std::fs::remove_dir_all(setup_dir(i));
    }
    timed.setup_ns = setup_ns;
    timed.setup_host = setup_host;
    let warm_answers: Vec<String> = warm.iter().map(|b| server.handle_line(&b.line).0).collect();
    let steady = if w == Workload::ServeEdit {
        Expect::OneMiss
    } else {
        Expect::AllMiss
    };
    let mut refs = References::new(w == Workload::ServeEdit);
    let untimed = (setup.iter().zip(&setup_answers).map(|(b, a)| (b, a, Expect::AllMiss)))
        .chain(warm.iter().zip(&warm_answers).map(|(b, a)| (b, a, steady)));
    for (b, answer, expect) in untimed {
        if let Err(e) = Answer::parse(answer).and_then(|a| refs.check(b, &a, expect)) {
            out.fail(format!("untimed {e}"));
        }
    }
    let mut tracer = cfg.trace.then(|| Tracing::new(dir, w, &setup, &warm));
    // `serve_edit`'s speedups sample the first program of each project.
    let mut sample: Vec<(String, String)> = match w {
        Workload::ServeCold => Vec::new(),
        _ => setup.iter().filter_map(|b| b.programs.first().cloned()).collect(),
    };
    drop((setup, setup_answers, warm, warm_answers));

    // The timed phase: a closed loop of batches. An untraced run samples
    // the host kernel before the first batch and after each one. A traced
    // run replays each batch under spans right after it is timed, so the
    // untraced and traced halves of a pair see the same machine. Of each
    // answer only its digests are kept; the gate checks them once `VmHWM`
    // is read.
    let limit = cfg.trace.then_some(sz.trace_requests);
    let mut answers: Vec<Result<Answer, String>> = Vec::new();
    crate::quiesce();
    hli_obs::mem::reset_peak_rss();
    if tracer.is_none() {
        timed.latency_host.push(crate::host::sample());
    }
    let started = Instant::now();
    while crate::more(cfg, limit, started, timed.latency_ns.len()) {
        let batch = batches.next_batch();
        let t0 = Instant::now();
        let (response, _) = server.handle_line(&batch.line);
        timed.latency_ns.push(t0.elapsed().as_nanos() as u64);
        match &mut tracer {
            Some(t) => t.replay(timed.latency_ns.len() as u32 - 1, &batch, &response),
            None => timed.latency_host.push(crate::host::sample()),
        }
        answers.push(Answer::parse(&response));
    }
    timed.peak_rss_kb = crate::peak_rss_kb();
    drop(server);
    out.attempted = answers.len() as u64;

    // The gate, on the same batch sequence generated again.
    let mut again = Batches::new(w, cfg.seed, sz);
    for _ in 0..sz.warmup {
        again.next_batch();
    }
    let mut facts: Vec<BatchFacts> = Vec::with_capacity(answers.len());
    for answer in &answers {
        let batch = again.next_batch();
        match answer
            .as_ref()
            .map_err(String::clone)
            .and_then(|a| refs.check(&batch, a, steady))
        {
            Ok(f) => facts.push(f),
            Err(e) => {
                out.failed += 1;
                out.fail(e);
            }
        }
        if w == Workload::ServeCold && sample.len() < sz.speedup_programs {
            sample.extend(batch.programs);
        }
    }

    if let Some(t) = tracer {
        t.finish(cfg, &mut out, timed.latency_ns.iter().sum());
        return out;
    }

    timed.funcs = facts.iter().map(|f| f.funcs).sum();
    let mut exact = Exact::default();
    if facts.len() < sz.exact_requests {
        let n = facts.len();
        out.fail(format!(
            "{n} batches answered; the exact metrics need {}",
            sz.exact_requests
        ));
    }
    for f in facts.iter().take(sz.exact_requests) {
        exact.gcc_yes += f.stats.gcc_yes;
        exact.combined_yes += f.stats.combined_yes;
    }
    sample.truncate(sz.speedup_programs);
    speedups(&mut out, &mut exact, &sample);
    crate::push_end_to_end(&mut out, &timed, &exact);
    out
}

/// Speedups of served programs through the pipeline path, which also
/// checks them against the AST interpreter: the first program of each
/// pristine project for `serve_edit`, the first programs served for
/// `serve_cold`.
fn speedups(out: &mut Outcome, exact: &mut Exact, programs: &[(String, String)]) {
    let sample: Vec<Benchmark> = programs
        .iter()
        .map(|(name, source)| Benchmark {
            name: name.clone(),
            suite: "GEN".into(),
            is_fp: false,
            source: source.clone(),
        })
        .collect();
    let machines = default_machines();
    let reports = hli_pool::run(2, &sample, |_w, b| {
        run_benchmark_on(b, Default::default(), ImportConfig::default(), &machines)
    });
    for (b, r) in sample.iter().zip(reports) {
        match r {
            Ok(r) if r.validated => {
                exact.speedup_r4600.push(r.speedup_r4600());
                exact.speedup_r10000.push(r.speedup_r10000());
            }
            Ok(_) => out.fail(format!("{}: disagrees with the AST interpreter", b.name)),
            Err(e) => out.fail(format!("{}: {e}", b.name)),
        }
    }
}

/// The traced half of a traced run: each batch replayed call by call
/// under spans against a second cache, prepared the way the daemon's was.
/// Each replayed response must equal the untraced one byte for byte.
struct Tracing {
    dir: PathBuf,
    jobs: usize,
    cache: DiskCache,
    rec: Recorder,
    counts: Counts,
    hit_keys: Vec<CacheKey>,
    /// Summed busy time of pool work items.
    busy_ns: u64,
    /// Summed fan-out wall time × workers.
    capacity_ns: u64,
    /// Batches whose replay answered differently.
    mismatched: Vec<u64>,
}

impl Tracing {
    fn new(dir: &Path, w: Workload, setup: &[Batch], warm: &[Batch]) -> Tracing {
        let dir = dir.join("traced");
        let daemon = open_daemon(&dir, w);
        for b in setup.iter().chain(warm) {
            daemon.handle_line(&b.line);
        }
        drop(daemon);
        let cache = DiskCache::open(&dir, 0).expect("reopen the prepared cache");
        Tracing {
            dir,
            jobs: jobs(w),
            cache,
            rec: Recorder::default(),
            counts: Counts::default(),
            hit_keys: Vec::new(),
            busy_ns: 0,
            capacity_ns: 0,
            mismatched: Vec::new(),
        }
    }

    fn replay(&mut self, req: u32, batch: &Batch, untraced: &str) {
        if replay(self, req, &batch.line) != untraced {
            self.mismatched.push(batch.id);
        }
    }

    fn finish(mut self, cfg: &RunCfg, out: &mut Outcome, untraced_ns: u64) {
        for id in &self.mismatched {
            out.failed += 1;
            out.fail(format!("batch {id}: traced replay answered differently"));
        }
        for key in &self.hit_keys {
            let hex = key.hex();
            let path = self.dir.join("v1/objects").join(&hex[..2]).join(format!("{hex}.json"));
            self.counts.probe_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
        }
        let spans = self.rec.into_spans();
        if let Some(path) = &cfg.spans_out {
            if let Err(e) = crate::spans::write_jsonl(path, &spans) {
                out.fail(format!("writing spans to {}: {e}", path.display()));
            }
        }
        let busy = self.busy_ns as f64 / self.capacity_ns.max(1) as f64;
        crate::push_per_layer(out, &Ledger::build(&spans), untraced_ns, busy, &self.counts);
    }
}

/// One function awaiting its answer.
struct Plan {
    fi: usize,
    name: String,
    key: CacheKey,
    hit: Option<CachedObject>,
}

/// One prepped program.
struct Prep {
    rtl: RtlProgram,
    hli: HliFile,
    flags: CompileFlags,
    plans: Vec<Plan>,
}

/// `Server::handle_line` for a compile batch, replayed through the serve
/// layer's public calls in the daemon's order: decode, per-program
/// parse/HLI/lower/key, probe, fan-out compile, store and commit, encode.
fn replay(t: &mut Tracing, req: u32, line: &str) -> String {
    let (rec, cache, jobs) = (&t.rec, &mut t.cache, t.jobs);
    t.counts.request_bytes += line.len() as u64;
    rec.span(REQUEST, SpanId::NONE, req, |root| {
        let parsed = rec.span("serve.decode", root, req, |_| Request::parse(line));
        let Ok(Request::Compile { id, programs }) = parsed else {
            return String::from("(not a compile request)");
        };
        let mut preps: Vec<Result<Prep, String>> =
            programs.iter().map(|p| prep(rec, root, req, p)).collect();

        let mut misses: Vec<(usize, usize)> = Vec::new();
        for (pi, prep) in preps.iter_mut().enumerate() {
            let Ok(prep) = prep else { continue };
            for (qi, plan) in prep.plans.iter_mut().enumerate() {
                plan.hit = rec.span("serve.probe", root, req, |_| cache.get(plan.key, &plan.name));
                match &plan.hit {
                    Some(_) => t.hit_keys.push(plan.key),
                    None => misses.push((pi, qi)),
                }
            }
        }

        let cfg = CaptureCfg { provenance: true, trace: false };
        let busy = AtomicU64::new(0);
        let t_fan = Instant::now();
        let compiled: Vec<((String, QueryStats), ObsShard)> =
            rec.span("pool.fanout", root, req, |fan| {
                hli_pool::run(jobs, &misses, |_w, &(pi, qi)| {
                    let t0 = Instant::now();
                    let prep = preps[pi].as_ref().expect("misses index only prepped programs");
                    let r = capture_cfg(cfg, || compile_one(rec, fan, req, prep, &prep.plans[qi]));
                    busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    r
                })
            });
        let workers = hli_pool::resolve_jobs(jobs).min(misses.len().max(1)) as u64;
        t.capacity_ns += t_fan.elapsed().as_nanos() as u64 * workers;
        t.busy_ns += busy.into_inner();

        // Commit and assemble, request order × name-sorted functions; the
        // misses were collected in that order.
        let mut compiled = compiled.into_iter();
        let (mut hits, mut miss_count) = (0u64, 0u64);
        let mut results: Vec<ProgramResult> = Vec::with_capacity(programs.len());
        for (req_p, prep) in programs.iter().zip(preps) {
            let prep = match prep {
                Err(e) => {
                    results.push(ProgramResult { program: req_p.name.clone(), outcome: Err(e) });
                    continue;
                }
                Ok(p) => p,
            };
            let mut funcs: Vec<FuncResult> = Vec::with_capacity(prep.plans.len());
            for plan in &prep.plans {
                let (obj, cached) = match &plan.hit {
                    Some(obj) => {
                        hits += 1;
                        t.counts.records_replayed += obj.shard.records.len() as u64;
                        rec.span("obs.replay", root, req, |_| {
                            hli_obs::commit(obj.shard.clone().into_shard())
                        });
                        (obj.clone(), true)
                    }
                    None => {
                        miss_count += 1;
                        let ((dump, stats), shard) =
                            compiled.next().expect("each miss compiled exactly once");
                        let shard_data = ShardData::from_shard(&shard);
                        t.counts.records_replayed += shard_data.records.len() as u64;
                        rec.span("obs.replay", root, req, |_| hli_obs::commit(shard));
                        let obj = CachedObject {
                            key: plan.key,
                            function: plan.name.clone(),
                            sched_hash: fnv1a(dump.as_bytes()),
                            dump,
                            stats,
                            shard: shard_data,
                        };
                        if rec.span("serve.store", root, req, |_| cache.put(&obj)).is_ok() {
                            t.counts.objects_written += 1;
                        }
                        (obj, false)
                    }
                };
                funcs.push(FuncResult {
                    function: plan.name.clone(),
                    key: plan.key.hex(),
                    cached,
                    sched_hash: format!("{:016x}", obj.sched_hash),
                    stats: obj.stats,
                    dump: prep.flags.dump.then(|| obj.dump.clone()),
                });
            }
            results.push(ProgramResult { program: req_p.name.clone(), outcome: Ok(funcs) });
        }
        t.counts.hits += hits;
        t.counts.misses += miss_count;
        let resp = Response::Compile { id, results, hits, misses: miss_count };
        rec.span("serve.encode", root, req, |_| resp.to_line())
    })
}

/// The daemon's per-program prep: front end, HLI, lowering and one cache
/// key per function (name-sorted).
fn prep(rec: &Recorder, root: SpanId, req: u32, p: &ProgramReq) -> Result<Prep, String> {
    let (prog, sema) =
        rec.span("lang.parse", root, req, |_| hli_lang::compile_to_ast(&p.source))?;
    let hli = rec.span("frontend.hli", root, req, |_| hli_frontend::generate_hli(&prog, &sema));
    let rtl = rec.span("backend.lower", root, req, |_| lower_program(&prog, &sema));
    let mut plans: Vec<Plan> = rtl
        .funcs
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            let key = rec.span("serve.key", root, req, |_| {
                let dump = dump_func(f);
                let entry = hli.entry(&f.name).map(EntryRef::Owned);
                function_key(&dump, entry.as_ref(), &p.flags)
            });
            Plan { fi, name: f.name.clone(), key, hit: None }
        })
        .collect();
    plans.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(Prep { rtl, hli, flags: p.flags, plans })
}

/// Schedule one missed function alone, as the daemon does on a pool worker.
fn compile_one(
    rec: &Recorder,
    fan: SpanId,
    req: u32,
    prep: &Prep,
    plan: &Plan,
) -> (String, QueryStats) {
    let single = RtlProgram {
        funcs: vec![prep.rtl.funcs[plan.fi].clone()],
        global_addr: prep.rtl.global_addr.clone(),
        global_init: prep.rtl.global_init.clone(),
        globals_end: prep.rtl.globals_end,
    };
    let mach = prep.flags.machine.backend();
    let passes = [PassSpec { mode: prep.flags.mode.dep_mode(), caches: None }];
    let lookup = |n: &str| prep.hli.entry(n).map(EntryRef::Owned);
    let mut out = rec.span("backend.schedule", fan, req, |_| {
        schedule_program_passes(&single, &lookup, &passes, mach, 1)
    });
    let (sched, stats) = out.pop().expect("one pass in, one result out");
    (dump_func(&sched.funcs[0]), stats)
}
