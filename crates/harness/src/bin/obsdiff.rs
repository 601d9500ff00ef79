//! `obsdiff` — diff two `--stats json` snapshots, or a run against a
//! pinned baseline under `tests/baselines/`, and fail on regressions.
//!
//! ```text
//! obsdiff <baseline.json> <current.json> [options]
//!   --tol PCT          global tolerance, percent (default 0 = exact)
//!   --tol-key PFX=PCT  per-key tolerance for every counter whose name
//!                      starts with PFX (longest matching prefix wins)
//!   --allow-new        new keys in `current` are not regressions
//!   --gauges           also diff gauges (skipped by default: last-write
//!                      -wins under the parallel suite, so nondeterministic)
//! ```
//!
//! Either input may be a bare snapshot or a full binary transcript — the
//! JSON block is found by scanning for the first line that is exactly `{`,
//! so `table2 12 2 --stats json > current.txt` diffs directly. A histogram
//! outside `obs.*` holds a simulated quantity (a window occupancy, a ready
//! list length) and must keep its count, sum and buckets exactly, whatever
//! the tolerances; the `obs.*` histograms hold wall-clock durations and are
//! ignored. After the per-key deltas the per-pass decision-count groups
//! are summed so a scheduling or CSE decision drift is visible even when
//! no single counter moved much.
//!
//! Exit codes: 0 no regression, 1 regression, 2 usage or parse error.

use hli_obs::json::{parse, Json};
use std::collections::BTreeMap;

/// Pass groups summed for the decision-count overview, mirroring the
/// provenance pass-name namespace plus the counters each pass maintains.
const GROUPS: &[&str] = &[
    "attr.",
    "backend.ddg.",
    "backend.sched.",
    "backend.cse.",
    "backend.licm.",
    "backend.unroll.",
    "backend.quarantine.",
    "hli.image.",
    "hli.maintain.",
    "hli.query.",
    "provenance.",
];

const USAGE: &str = "usage: obsdiff <baseline.json> <current.json> \
    [--tol PCT] [--tol-key PFX=PCT] [--allow-new] [--gauges]";

fn fail(msg: &str) -> ! {
    eprintln!("obsdiff: {msg}");
    std::process::exit(2)
}

struct Opts {
    baseline: String,
    current: String,
    tol: f64,
    tol_keys: Vec<(String, f64)>,
    allow_new: bool,
    gauges: bool,
}

fn parse_opts(args: Vec<String>) -> Opts {
    let mut pos = Vec::new();
    let mut opts = Opts {
        baseline: String::new(),
        current: String::new(),
        tol: 0.0,
        tol_keys: Vec::new(),
        allow_new: false,
        gauges: false,
    };
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tol" => {
                opts.tol = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--tol needs a percentage"));
            }
            "--tol-key" => {
                let spec = it.next().unwrap_or_else(|| fail("--tol-key needs PFX=PCT"));
                let (k, v) =
                    spec.split_once('=').unwrap_or_else(|| fail("--tol-key needs PFX=PCT"));
                let pct: f64 = v.parse().unwrap_or_else(|_| fail("--tol-key needs PFX=PCT"));
                opts.tol_keys.push((k.to_string(), pct));
            }
            "--allow-new" => opts.allow_new = true,
            "--gauges" => opts.gauges = true,
            _ if a.starts_with("--") => fail(&format!("unknown flag `{a}`\n{USAGE}")),
            _ => pos.push(a),
        }
    }
    if pos.len() != 2 {
        fail(USAGE);
    }
    opts.current = pos.pop().unwrap();
    opts.baseline = pos.pop().unwrap();
    opts
}

impl Opts {
    /// Tolerance for one key: the longest `--tol-key` prefix that matches,
    /// else the global `--tol`.
    fn tol_for(&self, key: &str) -> f64 {
        self.tol_keys
            .iter()
            .filter(|(p, _)| key.starts_with(p.as_str()))
            .max_by_key(|(p, _)| p.len())
            .map(|(_, t)| *t)
            .unwrap_or(self.tol)
    }
}

/// Read a snapshot file, skipping any leading table/log output before the
/// JSON block (first line that is exactly `{`). A missing file or a
/// snapshot without a `schema_version` field produces a diagnostic naming
/// the file, the expected schema generation, and how to regenerate —
/// never a bare parse failure.
fn try_load(path: &str) -> Result<(Json, u64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "cannot read {path}: {e} — regenerate the snapshot with a current \
             binary's `--stats json` (expected schema v{})",
            hli_obs::SCHEMA_VERSION
        )
    })?;
    let start = text
        .lines()
        .position(|l| l.trim_end() == "{")
        .ok_or_else(|| format!("{path}: no JSON snapshot found (no `{{` line)"))?;
    let json: String = text.lines().skip(start).collect::<Vec<_>>().join("\n");
    let doc = parse(&json).map_err(|e| format!("{path}: {e}"))?;
    let ver = doc
        .get("schema_version")
        .and_then(|v| v.as_num())
        .map(|n| n as u64)
        .ok_or_else(|| {
            format!(
                "{path}: snapshot has no `schema_version` field (expected v{}) — \
                 it predates snapshot versioning; regenerate it with a current \
                 binary's `--stats json`",
                hli_obs::SCHEMA_VERSION
            )
        })?;
    Ok((doc, ver))
}

fn load(path: &str) -> (Json, u64) {
    try_load(path).unwrap_or_else(|e| fail(&e))
}

/// Pull one numeric section (`counters` or `gauges`) out of a snapshot.
fn numbers(doc: &Json, section: &str, path: &str) -> BTreeMap<String, f64> {
    match doc.get(section) {
        Some(Json::Obj(m)) => {
            m.iter().filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n))).collect()
        }
        _ => fail(&format!("{path}: snapshot has no `{section}` object")),
    }
}

/// What is pinned of a histogram: its count, sum and buckets.
type Pinned = (Option<f64>, Option<f64>, Option<Json>);

/// The histograms of a snapshot outside `obs.*`.
fn histograms(doc: &Json) -> BTreeMap<String, Pinned> {
    let Some(Json::Obj(m)) = doc.get("histograms") else { return BTreeMap::new() };
    m.iter()
        .filter(|(k, _)| !k.starts_with("obs."))
        .map(|(k, h)| {
            let num = |f| h.get(f).and_then(Json::as_num);
            (k.clone(), (num("count"), num("sum"), h.get("buckets").cloned()))
        })
        .collect()
}

/// Compare the pinned histograms of two snapshots: one report line per
/// difference, and how many of them are regressions and new histograms.
fn diff_histograms(base: &Json, cur: &Json, allow_new: bool) -> (Vec<String>, u32, u32) {
    let (base, cur) = (histograms(base), histograms(cur));
    let (mut lines, mut regressions, mut new_keys) = (Vec::new(), 0, 0);
    let keys: std::collections::BTreeSet<&String> = base.keys().chain(cur.keys()).collect();
    let show = |n: Option<f64>| n.map_or("-".to_string(), |n| n.to_string());
    for key in keys {
        match (base.get(key), cur.get(key)) {
            (Some(b), Some(c)) if b == c => {}
            (Some(b), Some(c)) => {
                lines.push(format!(
                    " {key:<44} histogram count {} -> {}, sum {} -> {}, buckets {}  REGRESSION",
                    show(b.0),
                    show(c.0),
                    show(b.1),
                    show(c.1),
                    if b.2 == c.2 { "equal" } else { "differ" }
                ));
                regressions += 1;
            }
            (Some(_), None) => {
                lines.push(format!(" {key:<44} histogram -> (missing)  REGRESSION"));
                regressions += 1;
            }
            (None, Some(_)) => {
                let over = !allow_new;
                lines.push(format!(
                    " {key:<44} (new histogram){}",
                    if over { "  REGRESSION" } else { "" }
                ));
                new_keys += 1;
                regressions += u32::from(over);
            }
            (None, None) => unreachable!(),
        }
    }
    (lines, regressions, new_keys)
}

fn group_sum(map: &BTreeMap<String, f64>, prefix: &str) -> f64 {
    // A fold from +0.0: `Sum` over no f64 yields -0.0, printed as "-0".
    map.iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .fold(0.0, |acc, (_, v)| acc + v)
}

fn main() {
    let opts = parse_opts(std::env::args().skip(1).collect());
    let (base_doc, bv) = load(&opts.baseline);
    let (cur_doc, cv) = load(&opts.current);

    if bv != cv {
        fail(&format!(
            "schema_version mismatch: {} is v{bv}, {} is v{cv} — regenerate the baseline",
            opts.baseline, opts.current
        ));
    }

    let mut base = numbers(&base_doc, "counters", &opts.baseline);
    let mut cur = numbers(&cur_doc, "counters", &opts.current);
    if opts.gauges {
        base.extend(numbers(&base_doc, "gauges", &opts.baseline));
        cur.extend(numbers(&cur_doc, "gauges", &opts.current));
    }

    let mut regressions = 0u32;
    let mut tolerated = 0u32;
    let mut new_keys = 0u32;

    let keys: std::collections::BTreeSet<&String> = base.keys().chain(cur.keys()).collect();
    for key in keys {
        match (base.get(key), cur.get(key)) {
            (Some(b), Some(c)) if b == c => {}
            (Some(b), Some(c)) => {
                let tol = opts.tol_for(key);
                let pct = if *b == 0.0 {
                    f64::INFINITY
                } else {
                    (c - b) / b.abs() * 100.0
                };
                let over = pct.abs() > tol;
                println!(
                    " {key:<44} {b} -> {c} ({pct:+.1}% vs tol {tol}%){}",
                    if over { "  REGRESSION" } else { "" }
                );
                if over {
                    regressions += 1;
                } else {
                    tolerated += 1;
                }
            }
            (Some(b), None) => {
                println!(" {key:<44} {b} -> (missing)  REGRESSION");
                regressions += 1;
            }
            (None, Some(c)) => {
                let over = !opts.allow_new;
                println!(" {key:<44} (new) -> {c}{}", if over { "  REGRESSION" } else { "" });
                new_keys += 1;
                if over {
                    regressions += 1;
                }
            }
            (None, None) => unreachable!(),
        }
    }
    let (lines, hist_regressions, hist_new) = diff_histograms(&base_doc, &cur_doc, opts.allow_new);
    for line in lines {
        println!("{line}");
    }
    regressions += hist_regressions;
    new_keys += hist_new;

    println!("\nper-pass decision counts:");
    for prefix in GROUPS {
        let (b, c) = (group_sum(&base, prefix), group_sum(&cur, prefix));
        if b == 0.0 && c == 0.0 {
            continue;
        }
        println!(
            " {:<44} {b} -> {c}{}",
            format!("{prefix}*"),
            if b == c { "" } else { "  CHANGED" }
        );
    }

    println!(
        "\nobsdiff: {regressions} regression(s), {tolerated} tolerated change(s), \
         {new_keys} new key(s) ({} vs {})",
        opts.baseline, opts.current
    );
    std::process::exit(if regressions > 0 { 1 } else { 0 });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_snapshot_diagnostic_names_file_and_schema() {
        let missing = "/nonexistent/obsdiff_base.json";
        let err = try_load(missing).unwrap_err();
        assert!(err.contains(missing), "must name the file: {err}");
        assert!(
            err.contains(&format!("v{}", hli_obs::SCHEMA_VERSION)),
            "must name the expected schema: {err}"
        );
        assert!(err.contains("--stats json"), "must say how to regenerate: {err}");
    }

    #[test]
    fn empty_group_sums_to_positive_zero() {
        let map = BTreeMap::from([("a.x".to_string(), 2.0)]);
        assert_eq!(group_sum(&map, "b.").to_string(), "0");
        assert_eq!(group_sum(&map, "a.").to_string(), "2");
    }

    #[test]
    fn simulated_histograms_are_pinned_and_wall_clock_ones_are_not() {
        let snap = |occupancy: &str, phase: &str| {
            parse(&format!(
                "{{\"histograms\": {{\
                 \"machine.r10000.window_occupancy\": {{\"count\": 3, \"sum\": 60, \"max\": 32, \"buckets\": {occupancy}}},\
                 \"obs.phase.backend.schedule.ns\": {{\"count\": 2, \"sum\": {phase}, \"buckets\": [[1024, 2]]}}}}}}"
            ))
            .unwrap()
        };
        let base = snap("[[16, 1], [32, 2]]", "1500");
        let (lines, regressions, _) =
            diff_histograms(&base, &snap("[[16, 1], [32, 2]]", "1900"), false);
        assert_eq!(
            (regressions, lines.len()),
            (0, 0),
            "a wall-clock histogram may move: {lines:?}"
        );
        let (lines, regressions, _) =
            diff_histograms(&base, &snap("[[16, 2], [32, 1]]", "1500"), false);
        assert_eq!(regressions, 1, "{lines:?}");
        assert!(
            lines[0].contains("machine.r10000.window_occupancy") && lines[0].contains("differ")
        );
        let (_, regressions, _) = diff_histograms(&base, &parse("{}").unwrap(), false);
        assert_eq!(regressions, 1, "a missing simulated histogram is a regression");
    }

    #[test]
    fn schema_less_snapshot_diagnostic_is_clear() {
        let dir = std::env::temp_dir();
        let p = dir.join(format!("hli_obsdiff_noschema_{}.json", std::process::id()));
        std::fs::write(&p, "{\n  \"counters\": {\"a\": 1},\n  \"gauges\": {}\n}\n").unwrap();
        let err = try_load(p.to_str().unwrap()).unwrap_err();
        assert!(
            err.contains("no `schema_version`") && err.contains("regenerate"),
            "schema-less baseline needs a clear diagnostic: {err}"
        );
        let _ = std::fs::remove_file(&p);
    }

    #[test]
    fn versioned_snapshot_loads_with_leading_transcript() {
        let dir = std::env::temp_dir();
        let p = dir.join(format!("hli_obsdiff_ok_{}.json", std::process::id()));
        std::fs::write(
            &p,
            format!(
                "Table 2. rows...\n{{\n  \"schema_version\": {},\n  \"counters\": {{}}\n}}\n",
                hli_obs::SCHEMA_VERSION
            ),
        )
        .unwrap();
        let (doc, ver) = try_load(p.to_str().unwrap()).unwrap();
        assert_eq!(ver, hli_obs::SCHEMA_VERSION);
        assert!(matches!(doc.get("counters"), Some(Json::Obj(_))));
        let _ = std::fs::remove_file(&p);
    }
}
