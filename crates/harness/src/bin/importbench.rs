//! `importbench` — per-pass-vs-shared query caches and
//! sequential-vs-parallel driver comparison over the whole suite, all
//! importing through the `HLI\x03` image.
//!
//! Runs the measurement pipeline over three configurations — per-pass
//! and shared query caches on one worker, then shared caches again on
//! `--jobs N` workers (default: all CPUs) — and prints, for each, the
//! wall time, the bytes the image opens consumed
//! (`hli.deserialize.bytes`), the units the image structurally validated
//! (`hli.image.units_validated`), the per-configuration peak RSS
//! (`obs.mem.peak_rss_kb`, high-water mark reset between rows where the
//! kernel allows), and the query-cache hit/miss/invalidate counters.
//!
//! The run doubles as a self-check and exits 1 if either claim the
//! configurations exist to demonstrate fails to hold:
//!
//! * shared caches must produce hits (the second scheduling pass re-asks
//!   what the first already asked);
//! * every configuration — including the multi-threaded one — must
//!   report identical Table-2 query counters: caching and parallelism
//!   change cost, never answers.
//!
//! The shared-cache speedup at `--jobs N` over one worker is printed; it
//! is reported rather than hard-checked because a wall-clock ratio on a
//! loaded or sandboxed CI machine is not a soundness property.
//!
//! Usage: `cargo run --release -p hli-harness --bin importbench [n iters]
//! [--jobs N] [--machine NAME[,NAME...]] [--stats text|json]
//! [--trace-out t.json] [--provenance-out p.jsonl]`

use hli_harness::report::{bench_args, collect_suite_jobs_on, merged_metrics, total_query_stats};
use hli_harness::ImportConfig;

fn main() {
    let a = bench_args("importbench");
    let (scale, obs, jobs, machines) = (a.scale, a.obs, a.jobs, a.machines);
    let par = hli_pool::resolve_jobs(jobs).max(2);
    let per_pass = ImportConfig { shared_cache: false };
    let shared = ImportConfig { shared_cache: true };
    let configs = [
        ("per-pass caches", per_pass, 1),
        ("shared caches", shared, 1),
        ("shared caches", shared, par),
    ];

    eprintln!(
        "running {} suite passes at scale n={} iters={} (parallel rows: {par} workers)...",
        configs.len(),
        scale.n,
        scale.iters
    );
    println!(
        "{:<24} {:>7} {:>10} {:>12} {:>9} {:>10} {:>9} {:>9} {:>11}",
        "Configuration",
        "threads",
        "wall",
        "deser (B)",
        "units",
        "peak (kB)",
        "hits",
        "misses",
        "invalidated"
    );
    println!("{}", "-".repeat(108));

    // Reset the kernel's RSS high-water mark before each row so the peak
    // column describes that configuration alone, not the process so far.
    // When the reset is refused (read-only procfs) the column degrades to
    // the process-lifetime peak.
    let mut rows = Vec::new();
    for (label, cfg, row_jobs) in configs {
        hli_obs::mem::reset_peak_rss();
        let (reports, wall) =
            hli_obs::timing::time(|| collect_suite_jobs_on(scale, cfg, row_jobs, &machines));
        let peak_kb = hli_obs::mem::peak_rss_kb();
        let reports = reports.unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(1);
        });
        let m = merged_metrics(&reports);
        let stats = total_query_stats(&reports);
        println!(
            "{:<24} {:>7} {:>10} {:>12} {:>9} {:>10} {:>9} {:>9} {:>11}",
            label,
            row_jobs,
            hli_obs::timing::fmt_ms(wall),
            m.counter("hli.deserialize.bytes"),
            m.counter("hli.image.units_validated"),
            peak_kb.map(|k| k.to_string()).unwrap_or_else(|| "-".into()),
            m.counter("backend.query_cache.hit"),
            m.counter("backend.query_cache.miss"),
            m.counter("backend.query_cache.invalidate"),
        );
        rows.push((label, cfg, row_jobs, wall, m, stats));
    }

    let mut ok = true;
    for (label, cfg, row_jobs, _, m, _) in &rows {
        if cfg.shared_cache && m.counter("backend.query_cache.hit") == 0 {
            eprintln!(
                "FAIL: `{label}` ({row_jobs} threads) saw no cache hits despite shared caches"
            );
            ok = false;
        }
    }
    let baseline = &rows[0].5;
    for (label, _, row_jobs, _, _, stats) in &rows[1..] {
        if stats != baseline {
            eprintln!(
                "FAIL: `{label}` ({row_jobs} threads) changed the Table-2 counters: \
                 {stats:?} vs {baseline:?}"
            );
            ok = false;
        }
    }
    let (seq, threaded) = (rows[1].3, rows[2].3);
    let speedup = seq.as_secs_f64() / threaded.as_secs_f64().max(1e-9);
    println!();
    println!(
        "shared-cache speedup at {par} workers: {speedup:.2}x ({} -> {})",
        hli_obs::timing::fmt_ms(seq),
        hli_obs::timing::fmt_ms(threaded)
    );
    if speedup < 1.0 {
        eprintln!("note: no parallel speedup observed (small scale or loaded machine?)");
    }
    println!(
        "checks: shared caches hit, all {} configurations agree on query counters: {}",
        rows.len(),
        if ok { "ok" } else { "FAILED" }
    );
    obs.emit();
    if !ok {
        std::process::exit(1);
    }
}
