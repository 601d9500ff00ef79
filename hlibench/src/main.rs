//! `hlibench` command line.
//!
//! ```text
//! hlibench --workload pipeline|serve_edit|serve_cold --seed N --seconds S
//!          --trace 0|1 [--cache-root DIR] [--spans-out FILE]
//! hlibench steady [--runs N] [--seconds S] [--first-seed N]
//! ```
//!
//! A run prints notes (`#` lines), failed checks (`!` lines) and, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics. It exits 1 when a check failed and 2 on a usage error.

use hlibench::steady::{report, SteadyCfg};
use hlibench::{RunCfg, Sizes, Workload};
use std::path::PathBuf;

fn usage(msg: &str) -> ! {
    eprintln!("hlibench: {msg}");
    eprintln!(
        "usage: hlibench --workload W --seed N --seconds S --trace 0|1 [--cache-root DIR] \
         [--spans-out FILE]\n       hlibench steady [--runs N] [--seconds S] [--first-seed N]"
    );
    std::process::exit(2)
}

fn num<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    v.and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number")))
}

fn trace_flag(v: Option<String>) -> bool {
    match v.as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => usage("--trace takes 0 or 1"),
    }
}

fn workload(name: &str) -> Workload {
    Workload::parse(name).unwrap_or_else(|| usage(&format!("unknown workload `{name}`")))
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("steady") {
        args.next();
        let mut cfg = SteadyCfg { runs: 5, seconds: 20.0, first_seed: 1 };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--runs" => cfg.runs = num(&a, args.next()),
                "--seconds" => cfg.seconds = num(&a, args.next()),
                "--first-seed" => cfg.first_seed = num(&a, args.next()),
                other => usage(&format!("unknown flag `{other}`")),
            }
        }
        std::process::exit(if report(&cfg) { 0 } else { 1 });
    }

    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut cache_root, mut spans_out) = (None, None);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                w = Some(workload(
                    &args.next().unwrap_or_else(|| usage("--workload needs a name")),
                ))
            }
            "--seed" => seed = Some(num::<u64>(&a, args.next())),
            "--seconds" => seconds = Some(num::<f64>(&a, args.next())),
            "--trace" => trace = Some(trace_flag(args.next())),
            "--cache-root" => cache_root = args.next().map(PathBuf::from),
            "--spans-out" => spans_out = args.next().map(PathBuf::from),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    let w = w.unwrap_or_else(|| usage("--workload is required"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let cfg = RunCfg {
        workload: w,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        sizes: Sizes::standard(w, seconds),
        cache_root: cache_root.unwrap_or_else(|| PathBuf::from(".hlibench-run")),
        spans_out,
    };
    let out = hlibench::run(&cfg);
    for n in &out.notes {
        println!("# {n}");
    }
    for f in &out.failures {
        println!("! {f}");
    }
    println!("{}", out.to_json());
    std::process::exit(if out.correct() { 0 } else { 1 });
}
