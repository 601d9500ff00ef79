//! Shared report aggregation — the one place suite-level totals are
//! computed. `table1`, `table2`, `ablation` and the library tests all go
//! through these helpers instead of hand-rolling their own loops over
//! [`BenchReport`]s.

use crate::cli::ObsArgs;
use crate::{default_machines, run_benchmarks_jobs_on, BenchReport};
use hli_backend::ddg::QueryStats;
use hli_machine::{backend_by_name, MachineBackend};
use hli_suite::Scale;

/// Everything the suite-level binaries parse from their command line.
pub struct BenchArgs {
    pub scale: Scale,
    pub obs: ObsArgs,
    /// Pool workers for [`run_benchmarks_jobs_on`] (`0` = one per CPU).
    pub jobs: usize,
    /// Machine models to simulate, in order; the first also supplies the
    /// scheduler's latency table.
    pub machines: Vec<&'static dyn MachineBackend>,
}

impl std::fmt::Debug for BenchArgs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchArgs")
            .field("scale", &(self.scale.n, self.scale.iters))
            .field("jobs", &self.jobs)
            .field("machines", &self.machines.iter().map(|m| m.name()).collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

/// Parse the command line shared by every suite-level binary —
/// `[n iters]` plus the observability flags, `--jobs N` and
/// `--machine NAME[,NAME...]` — exiting with a uniform usage message on
/// a malformed or unknown flag.
/// `table1`, `table2` and `ablation` call this instead of keeping their
/// own copies of the loop.
pub fn bench_args(bin: &str) -> BenchArgs {
    bench_args_from(bin, std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        eprintln!(
            "usage: {bin} [n iters] [--jobs N] [--machine NAME[,NAME...]] \
             [--stats text|json] [--trace-out t.json] [--provenance-out p.jsonl]"
        );
        std::process::exit(1);
    })
}

/// Testable core of [`bench_args`]: same parse over an explicit vector,
/// returning the error instead of exiting.
pub fn bench_args_from(bin: &str, mut args: Vec<String>) -> Result<BenchArgs, String> {
    let _ = bin;
    let obs = ObsArgs::extract(&mut args)?;
    let jobs = extract_jobs(&mut args)?;
    let machines = extract_machines(&mut args)?;
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag `{flag}`"));
    }
    let n = args.first().and_then(|a| a.parse().ok()).unwrap_or(64);
    let iters = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(12);
    Ok(BenchArgs { scale: Scale { n, iters }, obs, jobs, machines })
}

/// Strip `--machine NAME[,NAME...]` from `args` and resolve every name
/// through the backend registry; absent flag means the default pair
/// (r4600 first, so it drives the scheduler).
pub fn extract_machines(
    args: &mut Vec<String>,
) -> Result<Vec<&'static dyn MachineBackend>, String> {
    let Some(i) = args.iter().position(|a| a == "--machine") else {
        return Ok(default_machines());
    };
    if i + 1 >= args.len() {
        return Err("--machine needs a target name (r4600, r10000 or w4)".into());
    }
    let spec = args[i + 1].clone();
    args.drain(i..=i + 1);
    if args.iter().any(|a| a == "--machine") {
        return Err("--machine given twice; pass one comma-separated list".into());
    }
    let mut machines = Vec::new();
    for name in spec.split(',') {
        let m = backend_by_name(name).ok_or_else(|| {
            format!(
                "--machine: unknown target `{name}` (known: {})",
                hli_machine::backend_names().join(", ")
            )
        })?;
        if machines.iter().any(|p: &&dyn MachineBackend| p.name() == m.name()) {
            return Err(format!("--machine: target `{name}` listed twice"));
        }
        machines.push(m);
    }
    Ok(machines)
}

/// Strip `--jobs N` from `args` and return the parsed count (`0` when the
/// flag is absent, meaning "all CPUs").
pub fn extract_jobs(args: &mut Vec<String>) -> Result<usize, String> {
    let Some(i) = args.iter().position(|a| a == "--jobs") else {
        return Ok(0);
    };
    if i + 1 >= args.len() {
        return Err("--jobs needs a worker count".into());
    }
    let jobs = args[i + 1]
        .parse::<usize>()
        .map_err(|_| format!("--jobs: `{}` is not a worker count", args[i + 1]))?;
    args.drain(i..=i + 1);
    Ok(jobs)
}

/// Run the whole suite at `scale` on `jobs` pool workers and collect the
/// reports, failing on the first benchmark error.
pub fn collect_suite_jobs_on(
    scale: Scale,
    jobs: usize,
    machines: &[&'static dyn MachineBackend],
) -> Result<Vec<BenchReport>, String> {
    run_benchmarks_jobs_on(&hli_suite::all(scale), jobs, machines)
        .into_iter()
        .collect()
}

/// Sum the Table-2 scheduling-pass query counters across reports.
pub fn total_query_stats(reports: &[BenchReport]) -> QueryStats {
    let mut total = QueryStats::default();
    for r in reports {
        total.add(&r.stats);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_backend::ddg::DepMode;
    use hli_backend::sched::schedule_program;
    use std::sync::Arc;

    /// The `backend.ddg.*` counters are a faithful view of the `QueryStats`
    /// struct: one scheduling pass over a known kernel produces identical
    /// totals through both paths.
    #[test]
    fn registry_view_matches_query_stats_on_known_kernel() {
        let b = hli_suite::by_name("101.tomcatv", Scale::tiny()).unwrap();
        let (prog, sema) = hli_lang::compile_to_ast(&b.source).unwrap();
        let hli = hli_frontend::generate_hli(&prog, &sema);
        let rtl = hli_backend::lower::lower_program(&prog, &sema);
        let local = Arc::new(hli_obs::MetricsRegistry::new());
        let stats = {
            let _scope = hli_obs::metrics::scoped(local.clone());
            let (_, stats) = schedule_program(
                &rtl,
                &hli,
                DepMode::Combined,
                hli_machine::backend_by_name("r4600").unwrap(),
            );
            stats
        };
        assert!(stats.total_tests > 0);
        let view = QueryStats::from_registry(&local.snapshot());
        assert_eq!(view, stats, "registry view must mirror the local struct");
    }

    /// Each report's snapshot carries both scheduling passes (GCC-only and
    /// Combined), so the registry view over a report is the sum of the two
    /// passes — always at least the Combined-pass struct the table prints.
    #[test]
    fn per_report_metrics_cover_both_passes() {
        let b = hli_suite::by_name("wc", Scale::tiny()).unwrap();
        let r = crate::run_benchmark_on(
            &b,
            hli_frontend::FrontendOptions::default(),
            crate::ImportConfig,
            &default_machines(),
        )
        .unwrap();
        let view = QueryStats::from_registry(&r.metrics);
        assert!(view.total_tests >= r.stats.total_tests);
        assert!(view.combined_yes >= r.stats.combined_yes);
        // Layers below the scheduler reported through the same snapshot.
        assert!(r.metrics.counter_prefix_sum("frontend.") > 0);
        assert!(r.metrics.counter_prefix_sum("machine.") > 0);
        assert!(r.metrics.counter_prefix_sum("hli.query.") > 0);
        assert!(r.metrics.counter("hli.serialize.bytes") as usize >= r.hli_bytes);
    }

    /// The tiny-suite Table-2 totals, pinned. The aggregation refactor (and
    /// any future one) must not move these numbers: they are what the
    /// `table2` binary prints and what EXPERIMENTS.md quotes.
    #[test]
    fn table2_totals_pinned() {
        let reports = collect_suite_jobs_on(Scale::tiny(), 0, &default_machines()).unwrap();
        let total = total_query_stats(&reports);
        assert_eq!(
            total,
            QueryStats {
                total_tests: 370,
                gcc_yes: 290,
                hli_yes: 86,
                combined_yes: 86,
                call_queries: 147,
            },
            "Table-2 totals moved; if intentional, update this pin and EXPERIMENTS.md"
        );
    }

    /// The shared binary argument parse: scale positionals survive, obs
    /// flags are stripped, defaults match what the binaries documented.
    #[test]
    fn bench_args_parse_scale_and_obs_flags() {
        let v = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = bench_args_from("table2", v(&["12", "2", "--stats", "json"])).unwrap();
        assert_eq!((a.scale.n, a.scale.iters), (12, 2));
        assert_eq!(a.obs.stats, Some(crate::cli::StatsFormat::Json));
        assert_eq!(a.jobs, 0, "no --jobs flag means all CPUs");
        let a = bench_args_from("table1", v(&[])).unwrap();
        assert_eq!((a.scale.n, a.scale.iters), (64, 12));
        assert!(a.obs.stats.is_none() && a.obs.trace_out.is_none());
        assert!(a.obs.provenance_out.is_none());
        assert_eq!(a.jobs, 0);
        let names: Vec<_> = a.machines.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["r4600", "r10000"], "default machine pair, r4600 first");
        // `--jobs` may appear anywhere among the positionals.
        let a = bench_args_from("table2", v(&["12", "--jobs", "3", "2"])).unwrap();
        assert_eq!((a.scale.n, a.scale.iters), (12, 2));
        assert_eq!(a.jobs, 3);
    }

    /// A flag no binary knows is a parse error naming the flag, in any
    /// position — never silently ignored while the run goes ahead.
    #[test]
    fn bench_args_reject_unknown_flags() {
        let v = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        for args in [
            &["--bogus"][..],
            &["12", "--bogus", "2"][..],
            &["12", "2", "--bogus"][..],
        ] {
            let err = bench_args_from("table2", v(args)).unwrap_err();
            assert!(
                err.contains("unknown flag `--bogus`"),
                "error must name the flag: {err}"
            );
        }
    }

    /// `--machine` selects and orders the simulated targets; unknown or
    /// duplicate names are parse errors that list the known targets.
    #[test]
    fn bench_args_parse_machine_list() {
        let v = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = bench_args_from("table2", v(&["12", "2", "--machine", "w4"])).unwrap();
        assert_eq!((a.scale.n, a.scale.iters), (12, 2));
        let names: Vec<_> = a.machines.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["w4"]);
        let a = bench_args_from("table2", v(&["--machine", "w4,r4600"])).unwrap();
        let names: Vec<_> = a.machines.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["w4", "r4600"], "order preserved; w4 drives the scheduler");
        let err = bench_args_from("table2", v(&["--machine", "r8000"])).unwrap_err();
        assert!(
            err.contains("r8000") && err.contains("w4"),
            "lists known targets: {err}"
        );
        assert!(bench_args_from("table2", v(&["--machine"])).is_err());
        assert!(bench_args_from("table2", v(&["--machine", "w4,w4"])).is_err());
        assert!(bench_args_from("t", v(&["--machine", "w4", "--machine", "r4600"])).is_err());
    }

    #[test]
    fn extract_jobs_strips_flag_and_rejects_garbage() {
        let v = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let mut args = v(&["8", "--jobs", "4", "2"]);
        assert_eq!(extract_jobs(&mut args), Ok(4));
        assert_eq!(args, v(&["8", "2"]));
        let mut bad = v(&["--jobs", "many"]);
        assert!(extract_jobs(&mut bad).is_err());
        let mut missing = v(&["--jobs"]);
        assert!(extract_jobs(&mut missing).is_err());
    }

    /// Suite-level aggregation helpers agree with a hand-rolled loop.
    #[test]
    fn aggregation_matches_manual_loop() {
        let reports = collect_suite_jobs_on(Scale::tiny(), 0, &default_machines()).unwrap();
        let total = total_query_stats(&reports);
        let manual: u64 = reports.iter().map(|r| r.stats.total_tests).sum();
        assert_eq!(total.total_tests, manual);
    }
}
