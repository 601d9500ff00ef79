//! The `pipeline` workload: one generated program per request through the
//! paper-reproduction path (`hli_harness::run_benchmark_on` at one job on
//! the default R4600 + R10000 pair), each validated against the AST
//! interpreter.

use crate::spans::{Ledger, Recorder, SpanId, REQUEST};
use crate::{Counts, Exact, Outcome, RunCfg, Timed};
use hli_backend::ddg::{DepMode, QueryStats};
use hli_backend::driver::{schedule_program_passes, PassSpec};
use hli_backend::lower::lower_program;
use hli_core::image::EntryRef;
use hli_core::serialize::{decode_file, encode_file, SerializeOpts};
use hli_core::QueryCache;
use hli_frontend::{generate_hli_with, FrontendOptions};
use hli_harness::{default_machines, run_benchmark_on, BenchReport, ImportConfig, MachineCycles};
use hli_machine::MachineBackend;
use hli_obs::MetricsRegistry;
use hli_suite::corpus::{generate_program, CorpusSpec};
use hli_suite::Benchmark;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the fixed warm-up program every run sets up with.
const WARMUP_SEED: u64 = 1998;

/// Program `i` of the corpus generated from `seed` (default shape).
fn program(seed: u64, funcs: usize, i: usize) -> Benchmark {
    let spec = CorpusSpec { seed, funcs, ..CorpusSpec::default() };
    Benchmark {
        name: format!("gen.s{seed:x}.p{i:02}"),
        suite: "GEN".into(),
        is_fp: false,
        source: generate_program(&spec, i),
    }
}

/// The answer to one program that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    stats: QueryStats,
    machines: Vec<MachineCycles>,
    dyn_insns: u64,
    hli_bytes: usize,
    validated: bool,
}

impl Facts {
    fn of(r: &BenchReport) -> Facts {
        Facts {
            stats: r.stats,
            machines: r.machines.clone(),
            dyn_insns: r.dyn_insns,
            hli_bytes: r.hli_bytes,
            validated: r.validated,
        }
    }

    fn cycles(&self, machine: &str) -> MachineCycles {
        self.machines
            .iter()
            .copied()
            .find(|m| m.machine == machine)
            .unwrap_or(MachineCycles { machine: "none", gcc: 0, hli: 0 })
    }
}

/// One request as the program's users make it.
fn answer(b: &Benchmark, machines: &[&'static dyn MachineBackend]) -> Result<Facts, String> {
    run_benchmark_on(b, FrontendOptions::default(), ImportConfig::default(), machines)
        .map(|r| Facts::of(&r))
}

/// One timed request, its answer, and in a traced run the answer of its
/// traced replay.
struct Done {
    name: String,
    ns: u64,
    facts: Result<Facts, String>,
    replayed: Option<Result<Facts, String>>,
}

/// Timed `answer` calls over programs `0..` of the seed's corpus, until
/// the run's time is up or `limit` requests are made, with the
/// [`crate::host::sample`]s around them. With a recorder, each request is
/// replayed under spans right after it is timed, so the untraced and
/// traced halves of a pair see the same machine; a traced loop takes no
/// host samples.
fn closed_loop(
    cfg: &RunCfg,
    machines: &[&'static dyn MachineBackend],
    limit: Option<usize>,
    rec: Option<&Recorder>,
) -> (Vec<Done>, Vec<f64>) {
    let mut done = Vec::new();
    let mut host = Vec::new();
    if rec.is_none() {
        host.push(crate::host::sample());
    }
    let started = Instant::now();
    while crate::more(cfg, limit, started, done.len()) {
        let b = program(cfg.seed, cfg.sizes.funcs, done.len());
        let t0 = Instant::now();
        let facts = answer(&b, machines);
        let ns = t0.elapsed().as_nanos() as u64;
        let replayed = match rec {
            Some(rec) => Some(replay(rec, done.len() as u32, &b, machines)),
            None => {
                host.push(crate::host::sample());
                None
            }
        };
        done.push(Done { name: b.name, ns, facts, replayed });
    }
    (done, host)
}

/// Check every answer: it must exist and agree with the AST interpreter.
/// Returns one pass flag per request.
fn gate(out: &mut Outcome, done: &[Done]) -> Vec<bool> {
    out.attempted += done.len() as u64;
    let pass: Vec<bool> = done
        .iter()
        .map(|d| match &d.facts {
            Ok(f) if f.validated => true,
            Ok(_) => {
                out.fail(format!("{}: disagrees with the AST interpreter", d.name));
                false
            }
            Err(e) => {
                out.fail(format!("{}: {e}", d.name));
                false
            }
        })
        .collect();
    out.failed += pass.iter().filter(|p| !**p).count() as u64;
    pass
}

pub(crate) fn run(cfg: &RunCfg) -> Outcome {
    let machines = default_machines();
    let mut out = Outcome::default();
    let mut timed = Timed::default();
    // Set-up answers the first programs of a fixed warm-up corpus; the
    // untimed warm-up requests take the programs after them.
    let sz = &cfg.sizes;
    let warm: Vec<Benchmark> = (0..sz.setup_requests + sz.warmup)
        .map(|i| program(WARMUP_SEED, sz.funcs, i))
        .collect();
    let (setup, warm) = warm.split_at(sz.setup_requests.min(warm.len()));
    let (setup_answers, setup_ns, setup_host) = crate::set_up(sz.setups, |_| {
        setup.iter().map(|b| answer(b, &machines)).collect::<Vec<_>>()
    });
    timed.setup_ns = setup_ns;
    timed.setup_host = setup_host;
    let warm_answers = warm.iter().map(|b| answer(b, &machines));
    for (b, r) in setup.iter().chain(warm).zip(setup_answers.into_iter().chain(warm_answers)) {
        if let Err(e) = r {
            out.fail(format!("warm-up program {}: {e}", b.name));
        }
    }

    crate::quiesce();
    if cfg.trace {
        return traced(cfg, &machines, out);
    }

    hli_obs::mem::reset_peak_rss();
    let (done, host) = closed_loop(cfg, &machines, None, None);
    timed.peak_rss_kb = crate::peak_rss_kb();
    timed.latency_host = host;
    gate(&mut out, &done);
    timed.latency_ns = done.iter().map(|d| d.ns).collect();
    timed.funcs = done.len() as u64 * (cfg.sizes.funcs as u64 + 1);
    let facts: Vec<&Facts> = done.iter().filter_map(|d| d.facts.as_ref().ok()).collect();
    let need = cfg.sizes.exact_requests.max(cfg.sizes.speedup_programs);
    if facts.len() < need {
        out.fail(format!(
            "{} programs answered; the exact metrics need {need}",
            facts.len()
        ));
    }
    let mut exact = Exact::default();
    for f in facts.iter().take(cfg.sizes.exact_requests) {
        exact.gcc_yes += f.stats.gcc_yes;
        exact.combined_yes += f.stats.combined_yes;
    }
    for f in facts.iter().take(cfg.sizes.speedup_programs) {
        exact.speedup_r4600.push(f.cycles("r4600").speedup());
        exact.speedup_r10000.push(f.cycles("r10000").speedup());
    }
    crate::push_end_to_end(&mut out, &timed, &exact);
    out
}

/// The traced run: a fixed number of programs, each answered untraced and
/// then replayed call by call under spans. A replay must answer exactly
/// what the untraced request answered.
fn traced(cfg: &RunCfg, machines: &[&'static dyn MachineBackend], mut out: Outcome) -> Outcome {
    let rec = Recorder::default();
    let (done, _) = closed_loop(cfg, machines, Some(cfg.sizes.trace_requests), Some(&rec));
    let untraced_ns: u64 = done.iter().map(|d| d.ns).sum();
    let pass = gate(&mut out, &done);
    let mut counts = Counts::default();
    for (d, pass) in done.iter().zip(pass) {
        let replayed = d.replayed.as_ref().expect("a traced loop replays every request");
        if pass && d.facts != *replayed {
            out.failed += 1;
            out.fail(format!("{}: traced replay answered differently", d.name));
        }
        if let Ok(f) = replayed {
            counts.dyn_insns += f.dyn_insns;
            let r10k = f.cycles("r10000");
            counts.r10000_cycles += r10k.gcc + r10k.hli;
            counts.dep_tests += f.stats.total_tests;
            counts.hli_bytes += f.hli_bytes as u64;
        }
    }
    let spans = rec.into_spans();
    if let Some(path) = &cfg.spans_out {
        if let Err(e) = crate::spans::write_jsonl(path, &spans) {
            out.fail(format!("writing spans to {}: {e}", path.display()));
        }
    }
    crate::push_per_layer(&mut out, &Ledger::build(&spans), untraced_ns, 0.0, &counts);
    out
}

/// [`answer`] replayed through the pipeline's public calls, in the order
/// `run_benchmark_on` makes them, one span per call.
fn replay(
    rec: &Recorder,
    req: u32,
    b: &Benchmark,
    machines: &[&'static dyn MachineBackend],
) -> Result<Facts, String> {
    rec.span(REQUEST, SpanId::NONE, req, |root| {
        let parent = hli_obs::metrics::cur();
        let local = Arc::new(MetricsRegistry::new());
        let facts = {
            let _scope = hli_obs::metrics::scoped(local.clone());
            replay_calls(rec, root, req, b, machines)
        };
        parent.absorb(&local.snapshot());
        facts
    })
}

fn replay_calls(
    rec: &Recorder,
    root: SpanId,
    req: u32,
    b: &Benchmark,
    machines: &[&'static dyn MachineBackend],
) -> Result<Facts, String> {
    let (prog, sema) = rec
        .span("lang.parse", root, req, |_| hli_lang::compile_to_ast(&b.source))
        .map_err(|e| format!("{}: {e}", b.name))?;
    let oracle = rec
        .span("lang.interp", root, req, |_| {
            hli_lang::interp::run_program(&prog, &sema)
        })
        .map_err(|e| format!("{}: interpreter: {e}", b.name))?;
    let hli = rec.span("frontend.hli", root, req, |_| {
        generate_hli_with(&prog, &sema, FrontendOptions::default())
    });
    let errs = rec.span("core.verify", root, req, |_| hli_core::verify_file(&hli));
    if let Some((unit, err)) = errs.first() {
        return Err(format!("{}: invalid HLI for `{unit}`: {err}", b.name));
    }
    let bytes = rec.span("core.encode", root, req, |_| {
        encode_file(&hli, SerializeOpts::default())
    });
    let imported = rec
        .span("core.decode", root, req, |_| {
            decode_file(&bytes, SerializeOpts::default())
        })
        .map_err(|e| format!("{}: v1 import: {e}", b.name))?;
    let lookup = |name: &str| imported.entry(name).map(EntryRef::Owned);
    let rtl = rec.span("backend.lower", root, req, |_| lower_program(&prog, &sema));
    let caches: HashMap<String, QueryCache> =
        rtl.funcs.iter().map(|f| (f.name.clone(), QueryCache::new())).collect();
    let passes = [
        PassSpec { mode: DepMode::GccOnly, caches: Some(&caches) },
        PassSpec { mode: DepMode::Combined, caches: Some(&caches) },
    ];
    let mach0 = machines[0];
    let mut builds = rec
        .span("backend.schedule", root, req, |_| {
            schedule_program_passes(&rtl, &lookup, &passes, mach0, 1)
        })
        .into_iter();
    let (gcc_build, _) = builds.next().expect("GccOnly pass result");
    let (hli_build, stats) = builds.next().expect("Combined pass result");
    let exec = |build| {
        rec.span("machine.exec", root, req, |_| {
            hli_machine::execute_with_func_trace(build)
        })
    };
    let (gcc_res, gcc_trace, gcc_funcs) =
        exec(&gcc_build).map_err(|e| format!("{}: gcc build: {e}", b.name))?;
    let (hli_res, hli_trace, hli_funcs) =
        exec(&hli_build).map_err(|e| format!("{}: hli build: {e}", b.name))?;
    let validated = gcc_res.ret == oracle.ret
        && hli_res.ret == oracle.ret
        && gcc_res.global_checksum == oracle.global_checksum
        && hli_res.global_checksum == oracle.global_checksum;

    let nfuncs = rtl.funcs.len();
    let reg = hli_obs::metrics::cur();
    let mut cycles = Vec::with_capacity(machines.len());
    for mach in machines {
        let name = mach.name();
        let layer = match name {
            "r4600" => "machine.r4600",
            "r10000" => "machine.r10000",
            _ => "machine.other",
        };
        let ((gs, g_per), (hs, h_per)) = rec.span(layer, root, req, |_| {
            (
                mach.cycles_per_func(&gcc_trace, &gcc_funcs, nfuncs),
                mach.cycles_per_func(&hli_trace, &hli_funcs, nfuncs),
            )
        });
        for (fi, f) in rtl.funcs.iter().enumerate() {
            reg.counter(&format!("attr.func.{}.{name}.gcc_cycles", f.name)).add(g_per[fi]);
            reg.counter(&format!("attr.func.{}.{name}.hli_cycles", f.name)).add(h_per[fi]);
        }
        reg.counter(&format!("attr.total.{name}.gcc_cycles")).add(gs.cycles);
        reg.counter(&format!("attr.total.{name}.hli_cycles")).add(hs.cycles);
        cycles.push(MachineCycles { machine: name, gcc: gs.cycles, hli: hs.cycles });
    }
    Ok(Facts {
        stats,
        machines: cycles,
        dyn_insns: gcc_res.dyn_insns,
        hli_bytes: bytes.len(),
        validated,
    })
}
