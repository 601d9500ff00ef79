//! End-to-end contract of the perf-trajectory observatory: the generated
//! corpus runs the full pipeline correctly, the deterministic report
//! sections are jobs-invariant, and the `perfbench` binary's
//! emit → compare round trip gates the way CI relies on (self-compare
//! passes; a perturbed checkpoint fails; a foreign schema is refused).

use hli_harness::perf::{build_report, compare, CorpusEcho, PerfReport, Tolerances};
use hli_harness::{default_machines, run_benchmarks_jobs_on, ImportConfig};
use hli_obs::MetricsRegistry;
use hli_suite::corpus::{generate, CallShape, CorpusSpec};
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

fn tiny_spec() -> CorpusSpec {
    CorpusSpec {
        seed: 11,
        programs: 3,
        funcs: 10,
        shape: CallShape::Balanced,
        ..Default::default()
    }
}

/// Run the tiny corpus at `jobs` workers under a fresh scoped registry,
/// returning the built perf report (wall time zeroed: only the
/// deterministic sections are compared here).
fn corpus_report_at(jobs: usize) -> (PerfReport, String) {
    let spec = tiny_spec();
    let benches = generate(&spec);
    let reg = Arc::new(MetricsRegistry::new());
    let reports: Vec<_> = {
        let _scope = hli_obs::metrics::scoped(reg.clone());
        run_benchmarks_jobs_on(&benches, ImportConfig::default(), jobs, &default_machines())
            .into_iter()
            .map(|r| r.expect("generated program must compile and validate"))
            .collect()
    };
    for r in &reports {
        assert!(
            r.validated,
            "{} miscompiled: schedules disagree with the interpreter",
            r.name
        );
    }
    let echo = CorpusEcho::new(&spec, &[spec.seed]);
    let snap = reg.snapshot();
    (
        build_report(echo, jobs, &reports, Duration::ZERO, &snap),
        snap.to_json(),
    )
}

#[test]
fn corpus_counters_are_jobs_invariant() {
    let (seq, seq_json) = corpus_report_at(1);
    let (par, par_json) = corpus_report_at(8);
    assert_eq!(
        seq.counters, par.counters,
        "deterministic perf counters diverge between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        seq_json, par_json,
        "scoped corpus metrics diverge between --jobs 1 and --jobs 8"
    );
    assert!(seq.counters["query.total_tests"] > 0);
    assert_eq!(seq.counters["corpus.validated"], seq.counters["corpus.programs"]);
}

#[test]
fn every_call_shape_survives_the_full_pipeline() {
    for shape in [CallShape::Chain, CallShape::Balanced, CallShape::Wide] {
        let spec = CorpusSpec { shape, programs: 1, funcs: 8, seed: 3, ..Default::default() };
        let benches = generate(&spec);
        for r in run_benchmarks_jobs_on(&benches, ImportConfig::default(), 1, &default_machines()) {
            let r = r.expect("compiles");
            assert!(r.validated, "{} ({shape:?}) miscompiled", r.name);
            assert!(r.stats.total_tests > 0, "{} ({shape:?}) scheduled nothing", r.name);
        }
    }
}

#[test]
fn perfbench_binary_emit_compare_round_trip() {
    let dir = std::env::temp_dir();
    let out = dir.join(format!("hli_perfbench_{}.json", std::process::id()));
    let corpus_args = [
        "--seeds",
        "5",
        "--programs",
        "2",
        "--funcs",
        "8",
        "--jobs",
        "2",
    ];

    // Emit a checkpoint.
    let emit = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(corpus_args)
        .args(["--out", out.to_str().unwrap()])
        .output()
        .expect("perfbench runs");
    assert!(
        emit.status.success(),
        "emit failed: {}",
        String::from_utf8_lossy(&emit.stderr)
    );
    let text = std::fs::read_to_string(&out).unwrap();
    let report = PerfReport::parse_str(&text).expect("emitted checkpoint parses");
    assert_eq!(report.schema_version, hli_obs::SCHEMA_VERSION);
    assert_eq!(report.corpus.seeds, vec![5]);

    // Self-compare: same corpus, fresh run. Counters must match exactly
    // and every section must be present; the soft time/rate/memory
    // sections may trip on host noise between two back-to-back runs
    // (their thresholds are unit-tested on fixed inputs in `perf.rs`).
    let ok = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(corpus_args)
        .args(["--compare", out.to_str().unwrap()])
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&ok.stderr);
    assert_ne!(ok.status.code(), Some(2), "self-compare refused: {stderr}");
    let regressions: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("perfbench: REGRESSION: "))
        .collect();
    assert_eq!(ok.status.success(), regressions.is_empty(), "{stderr}");
    for r in regressions {
        let soft = ["time ", "rate ", "mem "].iter().any(|p| r.starts_with(p));
        assert!(soft && !r.contains("-> missing"), "self-compare regressed: {r}");
    }

    // Perturb an exact-section counter: the gate must fail with exit 1.
    let bad = out.with_extension("perturbed.json");
    let perturbed = text.replacen("\"query.total_tests\": ", "\"query.total_tests\": 1", 1);
    assert_ne!(perturbed, text, "perturbation must hit the counter");
    std::fs::write(&bad, perturbed).unwrap();
    let fail = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(corpus_args)
        .args(["--compare", bad.to_str().unwrap()])
        .output()
        .expect("perfbench runs");
    assert_eq!(
        fail.status.code(),
        Some(1),
        "perturbed counter must fail the gate: {}",
        String::from_utf8_lossy(&fail.stderr)
    );
    assert!(String::from_utf8_lossy(&fail.stderr).contains("REGRESSION"));

    // Mangle the schema version: refused as a usage error (exit 2).
    let old = out.with_extension("v1.json");
    std::fs::write(&old, text.replacen("\"schema_version\": 2", "\"schema_version\": 1", 1))
        .unwrap();
    let refuse = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(corpus_args)
        .args(["--compare", old.to_str().unwrap()])
        .output()
        .expect("perfbench runs");
    assert_eq!(
        refuse.status.code(),
        Some(2),
        "schema mismatch must be refused: {}",
        String::from_utf8_lossy(&refuse.stderr)
    );

    // A different corpus spec is likewise refused, not diffed.
    let other = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--seeds",
            "5",
            "--programs",
            "2",
            "--funcs",
            "9",
            "--jobs",
            "2",
        ])
        .args(["--compare", out.to_str().unwrap()])
        .output()
        .expect("perfbench runs");
    assert_eq!(
        other.status.code(),
        Some(2),
        "corpus mismatch must be refused: {}",
        String::from_utf8_lossy(&other.stderr)
    );

    for f in [&out, &bad, &old] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn checked_in_bench_checkpoint_parses_and_self_compares() {
    // The repo-root checkpoint CI gates against: it must stay parseable,
    // carry the current schema generation, and describe a corpus of at
    // least 1000 functions (the acceptance floor for the perf gate).
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_6.json"))
        .expect("BENCH_6.json is checked in at the repo root");
    let report = PerfReport::parse_str(&text).unwrap();
    assert_eq!(report.schema_version, hli_obs::SCHEMA_VERSION);
    let funcs = report.corpus.seeds.len() * report.corpus.programs * report.corpus.funcs;
    assert!(funcs >= 1000, "checkpoint corpus too small: {funcs} functions");
    assert_eq!(
        report.counters["corpus.validated"], report.counters["corpus.programs"],
        "checkpoint was recorded with miscompiles"
    );
    assert!(compare(&report, &report, &Tolerances::default()).unwrap().is_empty());
}
