//! `perfbench` — the perf-trajectory harness: run the full pipeline
//! (front end → HLI encode/import → cached queries → parallel back end →
//! machine models) over a seeded generated corpus and freeze the result
//! as a `BENCH_*.json` checkpoint, or gate a fresh run against one.
//!
//! ```text
//! perfbench [options]
//!   --seeds A,B,...    corpus seeds, one full corpus per seed (default 1,2,3)
//!   --programs P       programs per seed            (default 12)
//!   --funcs F          functions per program        (default 28)
//!   --shape S          chain|balanced|wide          (default balanced)
//!   --alias PCT        aliasing density at call sites (default 30)
//!   --depth D          max loop-nest depth 1..3     (default 2)
//!   --jobs N           pool workers (0 = all CPUs)  (default 0; the
//!                      checkpoint records the count and --compare refuses
//!                      another, since peak RSS grows with workers)
//!   --machine M[,M..]  machine models to simulate    (default r4600,r10000;
//!                      first named model drives the scheduler; --compare
//!                      needs baseline and run to use the same list)
//!   --out FILE         write the report JSON to FILE (default: stdout)
//!   --compare FILE     additionally gate against a stored checkpoint
//!   --time-tol PCT     soft tolerance for times_ms   (default 75)
//!   --rss-tol PCT      soft tolerance for mem_kb     (default 50)
//!   plus the shared --stats/--trace-out/--provenance-out flags
//! ```
//!
//! The checked-in repo checkpoint is regenerated with:
//!
//! ```text
//! cargo run --release -p hli-harness --bin perfbench -- --jobs 2 --out BENCH_6.json
//! ```
//!
//! Every generated program is validated against the AST interpreter (the
//! faultbench differential oracle): one miscompile fails the run with
//! exit 1 before any perf number is reported. `--compare` exits 1 on a
//! regression and 2 on a meaningless comparison (schema, corpus or
//! worker-count mismatch). Counter sections are derived from scoped per-report
//! metrics, so they are byte-identical across `--jobs` settings; only the
//! soft time/rate/memory sections move run to run.

use hli_harness::cli::ObsArgs;
use hli_harness::perf::{
    build_report, compare, load_baseline, parse_shape, CorpusEcho, Tolerances,
};
use hli_harness::report::{extract_jobs, extract_machines};
use hli_harness::{run_benchmarks_jobs_on, BenchReport, ImportConfig};
use hli_machine::MachineBackend;
use hli_suite::corpus::{generate, CorpusSpec};

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench [--seeds A,B,..] [--programs P] [--funcs F] \
         [--shape chain|balanced|wide] [--alias PCT] [--depth D] [--jobs N] \
         [--machine NAME[,NAME...]] [--out FILE] [--compare FILE] \
         [--time-tol PCT] [--rss-tol PCT] \
         [--stats text|json] [--trace-out t.json] [--provenance-out p.jsonl]"
    );
    std::process::exit(2)
}

struct Args {
    seeds: Vec<u64>,
    spec: CorpusSpec,
    jobs: usize,
    machines: Vec<&'static dyn MachineBackend>,
    out: Option<String>,
    cmp: Option<String>,
    tol: Tolerances,
    obs: ObsArgs,
}

fn parse_args() -> Args {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let obs = ObsArgs::extract(&mut raw).unwrap_or_else(|e| usage(&e));
    let jobs = extract_jobs(&mut raw).unwrap_or_else(|e| usage(&e));
    let machines = extract_machines(&mut raw).unwrap_or_else(|e| usage(&e));
    let mut a = Args {
        seeds: vec![1, 2, 3],
        spec: CorpusSpec { seed: 0, programs: 12, funcs: 28, ..Default::default() },
        jobs,
        machines,
        out: None,
        cmp: None,
        tol: Tolerances::default(),
        obs,
    };
    let mut it = raw.into_iter();
    while let Some(flag) = it.next() {
        let mut val =
            |what: &str| it.next().unwrap_or_else(|| usage(&format!("{flag} needs {what}")));
        match flag.as_str() {
            "--seeds" => {
                a.seeds = val("a comma-separated list")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage("--seeds: bad integer")))
                    .collect();
                if a.seeds.is_empty() {
                    usage("--seeds: need at least one seed");
                }
            }
            "--programs" => {
                a.spec.programs =
                    val("a count").parse().unwrap_or_else(|_| usage("--programs: bad count"))
            }
            "--funcs" => {
                a.spec.funcs =
                    val("a count").parse().unwrap_or_else(|_| usage("--funcs: bad count"))
            }
            "--shape" => a.spec.shape = parse_shape(&val("a shape")).unwrap_or_else(|e| usage(&e)),
            "--alias" => {
                a.spec.alias_pct =
                    val("a percent").parse().unwrap_or_else(|_| usage("--alias: bad percent"))
            }
            "--depth" => {
                a.spec.max_loop_depth =
                    val("a depth").parse().unwrap_or_else(|_| usage("--depth: bad depth"))
            }
            "--out" => a.out = Some(val("a file path")),
            "--compare" => a.cmp = Some(val("a file path")),
            "--time-tol" => {
                a.tol.time_pct =
                    val("a percent").parse().unwrap_or_else(|_| usage("--time-tol: bad percent"))
            }
            "--rss-tol" => {
                a.tol.rss_pct =
                    val("a percent").parse().unwrap_or_else(|_| usage("--rss-tol: bad percent"))
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    a
}

/// Run the corpus for every seed, in seed order, and collect the reports.
/// Exits 1 on the first compile/verify error or differential miscompile.
fn run_corpus(args: &Args) -> Vec<BenchReport> {
    let mut reports = Vec::new();
    for &seed in &args.seeds {
        let spec = CorpusSpec { seed, ..args.spec };
        let benches = generate(&spec);
        for r in
            run_benchmarks_jobs_on(&benches, ImportConfig::default(), args.jobs, &args.machines)
        {
            match r {
                Ok(rep) => reports.push(rep),
                Err(e) => {
                    eprintln!("perfbench: pipeline error: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let miscompiled: Vec<&str> =
        reports.iter().filter(|r| !r.validated).map(|r| r.name.as_str()).collect();
    if !miscompiled.is_empty() {
        eprintln!(
            "perfbench: {} generated program(s) MISCOMPILED (schedules disagree with the \
             interpreter): {}",
            miscompiled.len(),
            miscompiled.join(", ")
        );
        std::process::exit(1);
    }
    reports
}

fn main() {
    let args = parse_args();
    let total_funcs = args.seeds.len() * args.spec.programs * args.spec.funcs;
    eprintln!(
        "perfbench: {} seed(s) x {} program(s) x {} function(s) = {} functions, shape {:?}...",
        args.seeds.len(),
        args.spec.programs,
        args.spec.funcs,
        total_funcs,
        args.spec.shape
    );

    let (reports, wall) = hli_obs::timing::time(|| run_corpus(&args));
    eprintln!(
        "perfbench: {} program(s) validated against the interpreter in {}",
        reports.len(),
        hli_obs::timing::fmt_ms(wall)
    );

    let echo = CorpusEcho::new(&args.spec, &args.seeds);
    let snap = hli_obs::metrics::global().snapshot();
    let report = build_report(echo, hli_pool::resolve_jobs(args.jobs), &reports, wall, &snap);

    let json = report.to_json();
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("perfbench: cannot write {path}: {e}");
                std::process::exit(2);
            }
            eprintln!("perfbench: wrote {path}");
        }
        None => print!("{json}"),
    }

    let mut exit = 0;
    if let Some(path) = &args.cmp {
        let prev = load_baseline(path).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        });
        match compare(&prev, &report, &args.tol) {
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(2);
            }
            Ok(regs) if regs.is_empty() => {
                eprintln!(
                    "perfbench: no regression against {path} ({} counters exact, soft \
                     sections within tolerance)",
                    report.counters.len()
                );
            }
            Ok(regs) => {
                for r in &regs {
                    eprintln!("perfbench: REGRESSION: {r}");
                }
                eprintln!("perfbench: {} regression(s) against {path}", regs.len());
                exit = 1;
            }
        }
    }
    args.obs.emit();
    std::process::exit(exit);
}
