//! Regenerate the paper's **Table 2** — dependence-query counts from the
//! first scheduling pass (total / per line / GCC-yes / HLI-yes / combined),
//! the dependence-edge reduction, and execution speedups of HLI-scheduled
//! vs GCC-scheduled code on the R4600-like and R10000-like machine models.
//!
//! Usage: `cargo run --release -p hli-harness --bin table2 [n iters]
//! [--jobs N] [--machine NAME[,NAME...]]
//! [--stats text|json] [--trace-out t.json] [--provenance-out p.jsonl]`
//!
//! `--machine` picks the simulated targets (r4600, r10000, w4); the first
//! one also drives the scheduler's latency table, so e.g.
//! `--machine w4` regenerates the whole table for the wide in-order core.

use hli_harness::format_table2;
use hli_harness::report::{bench_args, collect_suite_jobs_on};

fn main() {
    let a = bench_args("table2");
    let (scale, obs, jobs) = (a.scale, a.obs, a.jobs);
    eprintln!("running suite at scale n={} iters={}...", scale.n, scale.iters);
    let reports = collect_suite_jobs_on(scale, jobs, &a.machines).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!("Table 2. Dependence queries, edge reduction, and speedups.");
    println!("(speedups = cycles of GCC-scheduled / cycles of HLI-scheduled)");
    println!();
    print!("{}", format_table2(&reports));
    println!();
    println!("paper shape checks:");
    println!(" - fp rows make more dependence tests per line than int rows (0.42 vs 0.10);");
    println!(" - mean reduction around half of GCC's edges (48% int / 54% fp);");
    println!(" - mdljdp2/mdljsp2-class rows reduce >80% and win most on the R10000;");
    println!(" - tomcatv-class rows reduce heavily yet barely speed up (serial fp chain);");
    println!(" - R10000 speedups >= R4600 speedups (LSQ rewards scheduling);");
    println!(" - W4 rewards scheduling hardest (4-issue in-order exposes every stall).");
    obs.emit();
    if reports.iter().any(|r| !r.validated) {
        eprintln!("WARNING: some benchmarks failed semantic validation!");
        std::process::exit(2);
    }
}
