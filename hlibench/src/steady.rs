//! Steadiness report: run every workload several times, interleaved, each
//! run in a fresh process with its own seed, and print the median,
//! quartiles and extremes of every metric, plus each run's wall time
//! (`run.wall_s`). The spread column is what the bounds in
//! `BENCHMARK.json` are set against.

use crate::stats;
use crate::Workload;
use hli_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::process::Command;

pub struct SteadyCfg {
    pub runs: usize,
    pub seconds: f64,
    pub first_seed: u64,
}

/// The metrics of one run's result line, or why there are none.
fn run_once(w: Workload, seed: u64, cfg: &SteadyCfg) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let t0 = std::time::Instant::now();
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let v = json::parse(last).map_err(|e| format!("result line: {e}"))?;
    if !out.status.success() || v.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("run failed ({}): {last}", out.status));
    }
    let Some(Json::Obj(metrics)) = v.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    let mut values: BTreeMap<String, f64> = metrics
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_num()?)))
        .collect();
    values.insert("run.wall_s".into(), t0.elapsed().as_secs_f64());
    Ok(values)
}

/// Run the report; returns whether every run passed its checks.
pub fn report(cfg: &SteadyCfg) -> bool {
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut all_ok = true;
    for r in 0..cfg.runs {
        let seed = cfg.first_seed + r as u64;
        for w in Workload::ALL {
            match run_once(w, seed, cfg) {
                Ok(m) => {
                    let show = ["funcs_per_s", "latency_p50_ms", "setup_s", "run.wall_s"];
                    let line: Vec<String> = show
                        .iter()
                        .filter_map(|k| Some(format!("{k}={:.4}", m.get(*k)?)))
                        .collect();
                    eprintln!("run {r} {} seed {seed}: ok {}", w.name(), line.join(" "));
                    let per = values.entry(w.name()).or_default();
                    for (k, v) in m {
                        per.entry(k).or_default().push(v);
                    }
                }
                Err(e) => {
                    all_ok = false;
                    eprintln!("run {r} {} seed {seed}: {e}", w.name());
                }
            }
        }
    }
    println!(
        "{:<11} {:<22} {:>3} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "n", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (w, per) in &values {
        for (k, v) in per {
            let med = stats::median(v);
            let (q1, q3) = stats::quartiles(v).unwrap_or((med, med));
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let (min, max) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| (a.min(x), b.max(x)));
            println!(
                "{w:<11} {k:<22} {:>3} {med:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {:>7.2}%",
                v.len(),
                100.0 * spread
            );
        }
    }
    all_ok
}
