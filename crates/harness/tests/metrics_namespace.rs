//! The metric-key namespace contract, enforced: every counter, gauge and
//! histogram a full pipeline run registers must live under one of the
//! prefixes documented in DESIGN.md ("Metric-key namespace"). A key
//! outside the list is either a typo or a new subsystem that needs a
//! documented prefix — both should fail CI here, with the offending key
//! named, rather than silently fragment the snapshot schema that
//! obsdiff, perfbench and obsreport all join on.

use hli_harness::{default_machines, run_benchmarks_jobs_on};
use hli_obs::{metrics, provenance, MetricsRegistry, ProvenanceSink};
use hli_suite::Scale;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// The documented prefixes, verbatim from DESIGN.md. Keep the two lists
/// in sync: the doc is the contract, this test is the enforcement.
const DOCUMENTED_PREFIXES: &[&str] = &[
    "frontend.",   // AST → HLI generation and encoding
    "backend.",    // scheduling, CSE/LICM/unroll, query cache, quarantine
    "machine.",    // R4600/R10000 model execution
    "hli.",        // HLI decode/import and Table-2 query accounting
    "provenance.", // per-pass decision verdict tallies
    "obs.",        // the observability layer's own overhead (trace, mem, phase)
    "attr.",       // decision-to-cycles attribution (per-function and total)
    "serve.",      // the hlicc serve daemon: batches, cache hits/misses/bytes
];

fn check(kind: &str, key: &str) {
    assert!(
        DOCUMENTED_PREFIXES.iter().any(|p| key.starts_with(p)),
        "{kind} key `{key}` is outside every documented metric namespace \
         ({DOCUMENTED_PREFIXES:?}); add the prefix to DESIGN.md's \
         \"Metric-key namespace\" table and to this test, or fix the key"
    );
}

#[test]
fn every_pipeline_metric_key_is_in_a_documented_namespace() {
    let reg = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(ProvenanceSink::new());
    sink.set_enabled(true);
    let ids = Arc::new(AtomicU64::new(1));
    let reports = {
        let _m = metrics::scoped(reg.clone());
        let _s = provenance::scoped(sink.clone());
        let _i = provenance::scoped_ids(ids);
        // A serve batch rides the same scoped registry, so the daemon's
        // own keys (`serve.*`) are held to the same namespace contract.
        let dir = std::env::temp_dir()
            .join(format!("hli-metrics-namespace-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = hli_serve::Server::new(hli_serve::ServeConfig {
            cache_dir: dir.clone(),
            cache_max_bytes: 0,
            jobs: 1,
        })
        .unwrap();
        let req = hli_serve::Request::Compile {
            id: 1,
            programs: vec![hli_serve::ProgramReq {
                name: "ns".into(),
                source: "int main() { return 0; }\n".into(),
                flags: hli_serve::CompileFlags::default(),
            }],
        };
        let (resp, _) = server.handle_line(&req.to_line());
        assert!(matches!(
            hli_serve::Response::parse(&resp),
            Ok(hli_serve::Response::Compile { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let suite = hli_suite::all(Scale::tiny());
        run_benchmarks_jobs_on(&suite, 2, &default_machines())
    };
    for r in reports {
        assert!(r.expect("benchmark must compile").validated);
    }
    let snap = reg.snapshot();
    assert!(!snap.counters.is_empty(), "a suite run must register counters");
    for key in snap.counters.keys() {
        check("counter", key);
    }
    for key in snap.gauges.keys() {
        check("gauge", key);
    }
    for key in snap.histograms.keys() {
        check("histogram", key);
    }
}
