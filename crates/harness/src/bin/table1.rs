//! Regenerate the paper's **Table 1** — benchmark program characteristics:
//! code size in lines, HLI size, and HLI bytes per source line.
//!
//! Usage: `cargo run --release -p hli-harness --bin table1 [n iters]
//! [--jobs N] [--machine NAME[,NAME...]]
//! [--stats text|json] [--trace-out t.json] [--provenance-out p.jsonl]`
//!
//! Table 1 reports machine-independent characteristics; `--machine` only
//! selects which models the underlying pipeline simulates (visible in
//! `--stats` counters), never the table itself.

use hli_harness::format_table1;
use hli_harness::report::{bench_args, collect_suite_jobs_on};

fn main() {
    let a = bench_args("table1");
    let (scale, obs, jobs) = (a.scale, a.obs, a.jobs);
    eprintln!("running suite at scale n={} iters={}...", scale.n, scale.iters);
    let reports = collect_suite_jobs_on(scale, jobs, &a.machines).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    println!("Table 1. Benchmark program characteristics.");
    println!();
    print!("{}", format_table1(&reports));
    println!();
    println!(
        "paper shape check: fp programs need more HLI bytes per line than int programs \
         (paper: 27 vs 13)."
    );
    obs.emit();
}
