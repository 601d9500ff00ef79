//! Ablation study (beyond the paper's tables, quantifying its Section 4.2
//! discussion): how much of the Table-2 edge reduction does each front-end
//! analysis contribute? Runs the whole suite under four precision settings
//! and prints the reduction each achieves.
//!
//! Usage: `cargo run --release -p hli-harness --bin ablation [n iters]
//! [--jobs N] [--machine NAME[,NAME...]] [--stats text|json]
//! [--trace-out t.json] [--provenance-out p.jsonl]`

use hli_frontend::FrontendOptions;
use hli_harness::report::bench_args;
use hli_harness::{mean, run_benchmark_on, ImportConfig};

fn main() {
    let a = bench_args("ablation");
    let (scale, obs, jobs) = (a.scale, a.obs, a.jobs);
    let machines = a.machines;
    let variants: Vec<(&str, FrontendOptions)> = vec![
        ("full HLI", FrontendOptions::default()),
        (
            "no array analysis",
            FrontendOptions { array_analysis: false, ..Default::default() },
        ),
        (
            "no pointer analysis",
            FrontendOptions { pointer_analysis: false, ..Default::default() },
        ),
        (
            "no REF/MOD",
            FrontendOptions { refmod_analysis: false, ..Default::default() },
        ),
        (
            "nothing (HLI present but blind)",
            FrontendOptions {
                array_analysis: false,
                pointer_analysis: false,
                refmod_analysis: false,
            },
        ),
    ];

    eprintln!(
        "running {} suite passes at scale n={} iters={}...",
        variants.len(),
        scale.n,
        scale.iters
    );
    let suite = hli_suite::all(scale);

    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "Benchmark", "full", "-array", "-pointer", "-refmod", "blind"
    );
    println!("{}", "-".repeat(70));

    // benchmark-major, variant-minor; parallel over the benchmarks, with
    // per-item observability shards committed in suite order so `--stats`
    // output is independent of the job count.
    let prov_on = hli_obs::provenance::active().is_some();
    let cells: Vec<Vec<f64>> = hli_pool::run(jobs, &suite, |_w, b| {
        hli_obs::capture(prov_on, || {
            variants
                .iter()
                .map(|(_, opts)| {
                    run_benchmark_on(b, *opts, ImportConfig, &machines)
                        .map(|r| r.reduction() * 100.0)
                        .unwrap_or(f64::NAN)
                })
                .collect()
        })
    })
    .into_iter()
    .map(|(row, shard)| {
        hli_obs::commit(shard);
        row
    })
    .collect();

    let mut means = vec![Vec::new(); variants.len()];
    for (b, row) in suite.iter().zip(&cells) {
        print!("{:<14}", b.name);
        for (vi, red) in row.iter().enumerate() {
            print!(" {red:>9.0}%");
            means[vi].push(*red);
        }
        println!();
    }
    println!("{}", "-".repeat(70));
    print!("{:<14}", "mean");
    for m in &means {
        print!(" {:>9.0}%", mean(m));
    }
    println!();
    println!(
        "\ncolumns = dependence-edge reduction (1 - combined/GCC) with each front-end\n\
         analysis disabled; the paper's Section 4.2 attributes its HLI-vs-combined gap\n\
         to exactly these front-end precision limits."
    );
    obs.emit();
}
