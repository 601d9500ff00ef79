//! # hli-harness — the experiment driver
//!
//! Regenerates every table and figure of the paper's evaluation
//! (Section 4) over the synthetic suite:
//!
//! * `table1` — program characteristics: code size, HLI size in bytes,
//!   HLI bytes per source line (paper Table 1);
//! * `table2` — dependence-query counts (total, per line, GCC-yes,
//!   HLI-yes, combined-yes), the edge-reduction percentage, and simulated
//!   R4600/R10000 speedups of HLI-scheduled vs GCC-scheduled code
//!   (paper Table 2);
//! * `figures` binary — the Figure 2 region dump, the Figure 4 CSE-purge
//!   demonstration, and the Figure 6 unrolling-maintenance demonstration.
//!
//! Every run cross-checks correctness: the GCC-scheduled and HLI-scheduled
//! binaries must produce identical results, equal to the AST interpreter's
//! (the differential oracle), or the harness reports the benchmark as
//! miscompiled instead of mis-reporting a speedup.

use hli_backend::ddg::{DepMode, QueryStats};
use hli_backend::driver::{image_entry, schedule_program_passes, PassSpec};
use hli_backend::lower::lower_program;
use hli_core::serialize::{encode_file, SerializeOpts};
use hli_core::{encode_image, HliImage};
use hli_frontend::{generate_hli_with, FrontendOptions};
use hli_lang::compile_to_ast;
use hli_machine::{backend_by_name, MachineBackend};
use hli_obs::{MetricsRegistry, MetricsSnapshot};
use hli_suite::Benchmark;
use std::sync::Arc;

pub mod attr;
pub mod cli;
pub mod perf;
pub mod report;

/// Simulated cycles of the two builds (GCC-scheduled vs HLI-scheduled) on
/// one machine model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineCycles {
    /// Canonical backend name (`"r4600"`, `"r10000"`, `"w4"`).
    pub machine: &'static str,
    /// Cycles of the GCC-scheduled build.
    pub gcc: u64,
    /// Cycles of the HLI-scheduled build.
    pub hli: u64,
}

impl MachineCycles {
    pub fn speedup(&self) -> f64 {
        self.gcc as f64 / self.hli.max(1) as f64
    }
}

/// The machine models a pipeline run times on when none are named: the
/// paper's two MIPS cores, with the R4600 (first entry) as the scheduler's
/// latency source.
pub fn default_machines() -> Vec<&'static dyn MachineBackend> {
    vec![
        backend_by_name("r4600").unwrap(),
        backend_by_name("r10000").unwrap(),
    ]
}

/// Everything measured about one benchmark.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub name: String,
    pub suite: String,
    pub is_fp: bool,
    /// Source lines (Table 1 "Code size").
    pub code_lines: usize,
    /// Compact HLI encoding size (Table 1 "HLI size").
    pub hli_bytes: usize,
    /// Table 2 dependence-query counters (from the scheduling pass).
    pub stats: QueryStats,
    /// Simulated cycles on every selected machine model, in selection
    /// order. The first entry's model also supplied the scheduler's
    /// latencies (the single-source contract — see DESIGN.md).
    pub machines: Vec<MachineCycles>,
    /// Dynamic instructions executed (identical for both schedules).
    pub dyn_insns: u64,
    /// Correctness: all executions agreed with the AST interpreter.
    pub validated: bool,
    /// Metrics recorded by every layer while this benchmark ran (the
    /// pipeline runs under a scoped [`MetricsRegistry`], so the snapshot
    /// contains only this run's counters).
    pub metrics: MetricsSnapshot,
}

impl BenchReport {
    /// Table 2 "Reduction": 1 − combined/gcc.
    pub fn reduction(&self) -> f64 {
        self.stats.reduction()
    }

    pub fn tests_per_line(&self) -> f64 {
        self.stats.total_tests as f64 / self.code_lines.max(1) as f64
    }

    /// Cycle pair on the named machine, if it was selected for this run.
    pub fn cycles_on(&self, machine: &str) -> Option<MachineCycles> {
        self.machines.iter().copied().find(|m| m.machine == machine)
    }

    /// HLI-over-GCC speedup on the named machine, `None` if it was not
    /// selected for this run.
    pub fn speedup_on(&self, machine: &str) -> Option<f64> {
        self.cycles_on(machine).map(|m| m.speedup())
    }

    /// Speedup on the R4600; panics if the run did not simulate it.
    pub fn speedup_r4600(&self) -> f64 {
        self.speedup_on("r4600")
            .expect("speedup_r4600 on a run that did not simulate the R4600")
    }

    /// Speedup on the R10000; panics if the run did not simulate it.
    pub fn speedup_r10000(&self) -> f64 {
        self.speedup_on("r10000")
            .expect("speedup_r10000 on a run that did not simulate the R10000")
    }

    pub fn hli_bytes_per_line(&self) -> f64 {
        self.hli_bytes as f64 / self.code_lines.max(1) as f64
    }
}

/// Configures nothing: kept only because the benchmark under `hlibench/`
/// still passes `ImportConfig` to [`run_benchmark_on`].
#[derive(Debug, Default)]
pub struct ImportConfig;

/// Run the full measurement pipeline on one benchmark with the given
/// front-end precision options (the ablation knob) and machine list. The
/// first machine is the scheduler's latency source; every listed machine
/// is simulated and reported. `_cfg` is ignored ([`ImportConfig`]).
///
/// The pipeline runs under a scoped per-run [`MetricsRegistry`]; the
/// resulting snapshot is carried on the report and also absorbed into the
/// registry that was current at entry (normally the global one), so both
/// per-benchmark and whole-suite totals stay available.
pub fn run_benchmark_on(
    b: &Benchmark,
    opts: FrontendOptions,
    _cfg: ImportConfig,
    machines: &[&'static dyn MachineBackend],
) -> Result<BenchReport, String> {
    let parent = hli_obs::metrics::cur();
    let local = Arc::new(MetricsRegistry::new());
    let result = {
        let _scope = hli_obs::metrics::scoped(local.clone());
        run_pipeline(b, opts, machines)
    };
    let metrics = local.snapshot();
    parent.absorb(&metrics);
    let mut report = result?;
    report.metrics = metrics;
    Ok(report)
}

/// The measurement pipeline proper, writing to whatever registry is
/// current. The whole run is the span `harness.run`; every stage below it
/// opens its own span where it is implemented.
fn run_pipeline(
    b: &Benchmark,
    opts: FrontendOptions,
    machines: &[&'static dyn MachineBackend],
) -> Result<BenchReport, String> {
    let _run = hli_obs::span("harness.run");
    let (prog, sema) = {
        let _s = hli_obs::span("frontend.parse");
        compile_to_ast(&b.source).map_err(|e| format!("{}: {e}", b.name))?
    };

    // Reference semantics.
    let oracle = {
        let _s = hli_obs::span("harness.oracle");
        hli_lang::interp::run_program(&prog, &sema)
            .map_err(|e| format!("{}: interpreter: {e}", b.name))?
    };

    // Front-end: HLI generation + Table 1 size.
    let hli = generate_hli_with(&prog, &sema, opts);
    let errs = hli_core::verify_file(&hli);
    if let Some((unit, err)) = errs.first() {
        return Err(format!("{}: invalid HLI for `{unit}`: {err}", b.name));
    }
    // Table 1's size meter is the compact encoding.
    let hli_bytes = encode_file(&hli, SerializeOpts::default()).len();

    // Back-end import: hand the HLI over as the image a
    // separately-invoked back-end receives (Section 3.2.1). Opening it
    // reads only the directory; each function's unit is decoded when its
    // work item asks for it. A unit that fails to decode is quarantined
    // by the lookup.
    let image = HliImage::open(encode_image(&hli, SerializeOpts::default()))
        .map_err(|e| format!("{}: HLI import: {e}", b.name))?;
    let lookup = |name: &str| image_entry(&image, name);

    // Back-end: lower once, schedule twice (the two compiler builds) via
    // the per-function driver. Both passes run inside one work item per
    // function and ask the same query index. The suite already fans
    // benchmarks out across the pool, so the per-benchmark driver stays
    // sequential (`jobs = 1`); `hlicc back` is the per-function parallel
    // entry.
    let rtl = lower_program(&prog, &sema);
    // The first selected machine is the scheduler's latency source — the
    // same table the simulator below prices the resulting trace with.
    let mach0 = *machines
        .first()
        .ok_or_else(|| format!("{}: no machine models selected", b.name))?;
    let passes = [
        PassSpec { mode: DepMode::GccOnly, caches: None },
        PassSpec { mode: DepMode::Combined, caches: None },
    ];
    let mut builds = schedule_program_passes(&rtl, &lookup, &passes, mach0, 1).into_iter();
    let (gcc_build, _) = builds.next().expect("GccOnly pass result");
    let (hli_build, stats) = builds.next().expect("Combined pass result");

    // Machines: run each build once, streaming its events through every
    // selected model, and attribute simulated cycles to functions. The
    // attribution counters join `DecisionRecord.function` to measured
    // cycle deltas in `obsreport`; being simulated quantities they are
    // deterministic and identical across `--jobs` values.
    let (gcc_res, gcc_times) = hli_machine::time_on(&gcc_build, machines)
        .map_err(|e| format!("{}: gcc build: {e}", b.name))?;
    let (hli_res, hli_times) = hli_machine::time_on(&hli_build, machines)
        .map_err(|e| format!("{}: hli build: {e}", b.name))?;

    let validated = gcc_res.ret == oracle.ret
        && hli_res.ret == oracle.ret
        && gcc_res.global_checksum == oracle.global_checksum
        && hli_res.global_checksum == oracle.global_checksum;

    let reg = hli_obs::metrics::cur();
    let mut cycles = Vec::with_capacity(machines.len());
    for ((mach, (gs, g_per)), (hs, h_per)) in machines.iter().zip(gcc_times).zip(hli_times) {
        let name = mach.name();
        for (fi, f) in rtl.funcs.iter().enumerate() {
            reg.counter(&format!("attr.func.{}.{name}.gcc_cycles", f.name)).add(g_per[fi]);
            reg.counter(&format!("attr.func.{}.{name}.hli_cycles", f.name)).add(h_per[fi]);
        }
        reg.counter(&format!("attr.total.{name}.gcc_cycles")).add(gs.cycles);
        reg.counter(&format!("attr.total.{name}.hli_cycles")).add(hs.cycles);
        cycles.push(MachineCycles { machine: name, gcc: gs.cycles, hli: hs.cycles });
    }

    Ok(BenchReport {
        name: b.name.to_string(),
        suite: b.suite.to_string(),
        is_fp: b.is_fp,
        code_lines: b.source.lines().count(),
        hli_bytes,
        stats,
        machines: cycles,
        dyn_insns: gcc_res.dyn_insns,
        validated,
        metrics: MetricsSnapshot::default(),
    })
}

/// Run `benches` (the fixed paper suite from [`hli_suite::all`], or a
/// generated [`hli_suite::corpus`]) on `jobs` pool workers (`0` = one per
/// CPU, `1` = inline sequential), one benchmark per work item, on the
/// given machine list.
///
/// Each benchmark runs under an [`hli_obs::capture`] shard; the shards
/// are committed on the calling thread in input order, so metrics totals,
/// gauge values, provenance record order and query-id numbering are all
/// identical for `--jobs 1` and `--jobs N` — the reports (and therefore
/// the table rows, whose int/fp split is positional) stay in input order
/// regardless of worker completion order.
pub fn run_benchmarks_jobs_on(
    benches: &[Benchmark],
    jobs: usize,
    machines: &[&'static dyn MachineBackend],
) -> Vec<Result<BenchReport, String>> {
    let obs_cfg = hli_obs::CaptureCfg::from_env();
    let results = hli_pool::run(jobs, benches, |_w, b| {
        hli_obs::capture_cfg(obs_cfg, || {
            run_benchmark_on(b, FrontendOptions::default(), ImportConfig, machines)
        })
    });
    results
        .into_iter()
        .map(|(r, shard)| {
            hli_obs::commit(shard);
            r
        })
        .collect()
}

/// Format Table 1 (program characteristics).
pub fn format_table1(reports: &[BenchReport]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<7} {:>10} {:>10} {:>14}",
        "Benchmark", "Suite", "Code lines", "HLI (B)", "HLI per line"
    );
    let _ = writeln!(out, "{}", "-".repeat(60));
    let mut int_bpl = Vec::new();
    let mut fp_bpl = Vec::new();
    for (i, r) in reports.iter().enumerate() {
        if i == 4 {
            let _ = writeln!(
                out,
                "{:<14} {:<7} {:>10} {:>10} {:>14.0}   (int mean)",
                "mean",
                "-",
                "-",
                "-",
                mean(&int_bpl)
            );
        }
        let _ = writeln!(
            out,
            "{:<14} {:<7} {:>10} {:>10} {:>14.0}",
            r.name,
            r.suite,
            r.code_lines,
            r.hli_bytes,
            r.hli_bytes_per_line()
        );
        if r.is_fp {
            fp_bpl.push(r.hli_bytes_per_line());
        } else {
            int_bpl.push(r.hli_bytes_per_line());
        }
    }
    let _ = writeln!(
        out,
        "{:<14} {:<7} {:>10} {:>10} {:>14.0}   (fp mean)",
        "mean",
        "-",
        "-",
        "-",
        mean(&fp_bpl)
    );
    out
}

/// Format Table 2 (dependence tests and speedups): one speedup column per
/// machine the reports were timed on, in selection order.
pub fn format_table2(reports: &[BenchReport]) -> String {
    use std::fmt::Write;
    let machs: Vec<&'static str> = reports
        .first()
        .map(|r| r.machines.iter().map(|m| m.machine).collect())
        .unwrap_or_default();
    let mut out = String::new();
    let _ = write!(
        out,
        "{:<14} {:>7} {:>9} {:>12} {:>12} {:>12} {:>6}",
        "Benchmark", "Tests", "Per line", "GCC yes", "HLI yes", "Combined", "Red%",
    );
    for m in &machs {
        let _ = write!(out, " {:>8}", m.to_uppercase());
    }
    let _ = writeln!(out, " {:>3}", "OK");
    let _ = writeln!(out, "{}", "-".repeat(78 + 9 * machs.len() + 4));
    let split = |rs: &[&BenchReport], label: &str, out: &mut String| {
        let red: Vec<f64> = rs.iter().map(|r| r.reduction() * 100.0).collect();
        let tpl: Vec<f64> = rs.iter().map(|r| r.tests_per_line()).collect();
        let _ = write!(
            out,
            "{:<14} {:>7} {:>9.2} {:>12} {:>12} {:>12} {:>6.0}",
            "mean",
            "-",
            mean(&tpl),
            "-",
            "-",
            "-",
            mean(&red)
        );
        for m in &machs {
            let sp: Vec<f64> = rs.iter().filter_map(|r| r.speedup_on(m)).collect();
            let _ = write!(out, " {:>8.2}", geomean(&sp));
        }
        let _ = writeln!(out, "      ({label} mean)");
    };
    for (i, r) in reports.iter().enumerate() {
        if i == 4 {
            let ints: Vec<&BenchReport> = reports[..4].iter().collect();
            split(&ints, "int", &mut out);
        }
        let pct = |num: u64| {
            if r.stats.total_tests == 0 {
                0.0
            } else {
                100.0 * num as f64 / r.stats.total_tests as f64
            }
        };
        let _ = write!(
            out,
            "{:<14} {:>7} {:>9.2} {:>6} ({:>3.0}%) {:>6} ({:>3.0}%) {:>6} ({:>3.0}%) {:>6.0}",
            r.name,
            r.stats.total_tests,
            r.tests_per_line(),
            r.stats.gcc_yes,
            pct(r.stats.gcc_yes),
            r.stats.hli_yes,
            pct(r.stats.hli_yes),
            r.stats.combined_yes,
            pct(r.stats.combined_yes),
            r.reduction() * 100.0,
        );
        for m in &machs {
            let _ = match r.speedup_on(m) {
                Some(sp) => write!(out, " {sp:>8.2}"),
                None => write!(out, " {:>8}", "-"),
            };
        }
        let _ = writeln!(out, " {:>3}", if r.validated { "ok" } else { "BAD" });
    }
    let fps: Vec<&BenchReport> = reports[4..].iter().collect();
    split(&fps, "fp", &mut out);
    out
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        (v.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / v.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_suite::Scale;

    fn run_default(b: &Benchmark) -> BenchReport {
        run_benchmark_on(b, FrontendOptions::default(), ImportConfig, &default_machines()).unwrap()
    }

    #[test]
    fn one_fp_benchmark_end_to_end() {
        let b = hli_suite::by_name("034.mdljdp2", Scale::tiny()).unwrap();
        let r = run_default(&b);
        assert!(r.validated, "schedules must preserve semantics");
        assert!(r.stats.total_tests > 0);
        assert!(r.stats.combined_yes <= r.stats.gcc_yes);
        assert!(r.hli_bytes > 0);
        assert!(r.cycles_on("r4600").unwrap().gcc > 0);
        assert!(r.cycles_on("r10000").unwrap().gcc > 0);
        assert!(r.cycles_on("w4").is_none(), "w4 is opt-in via --machine");
    }

    #[test]
    fn one_int_benchmark_end_to_end() {
        let b = hli_suite::by_name("wc", Scale::tiny()).unwrap();
        let r = run_default(&b);
        assert!(r.validated);
        assert!(r.reduction() >= 0.0);
    }

    #[test]
    fn hli_never_slower_than_gcc_schedule_on_pointer_kernel() {
        let b = hli_suite::by_name("077.mdljsp2", Scale::tiny()).unwrap();
        let r = run_default(&b);
        // HLI freed edges: schedule quality must not regress.
        assert!(
            r.speedup_r10000() > 0.95,
            "r10000 speedup {:.3} collapsed",
            r.speedup_r10000()
        );
    }

    #[test]
    fn ablation_reduces_precision() {
        let b = hli_suite::by_name("034.mdljdp2", Scale::tiny()).unwrap();
        let full = run_default(&b);
        let blunt = run_benchmark_on(
            &b,
            FrontendOptions { pointer_analysis: false, ..Default::default() },
            ImportConfig,
            &default_machines(),
        )
        .unwrap();
        assert!(
            blunt.stats.combined_yes >= full.stats.combined_yes,
            "turning off points-to cannot improve the combined column"
        );
    }

    #[test]
    fn table_formatters_cover_all_rows() {
        let reports: Vec<BenchReport> =
            hli_suite::all(Scale::tiny()).iter().map(run_default).collect();
        let t1 = format_table1(&reports);
        let t2 = format_table2(&reports);
        for b in hli_suite::all(Scale::tiny()) {
            assert!(t1.contains(b.name.as_str()), "table1 missing {}", b.name);
            assert!(t2.contains(b.name.as_str()), "table2 missing {}", b.name);
        }
        assert!(t1.contains("(fp mean)"));
        assert!(t2.contains("(int mean)"));
    }

    #[test]
    fn stat_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }
}
