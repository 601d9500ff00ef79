//! The parallel-driver determinism contract, pinned end to end: running
//! the suite on 1 worker and on 8 workers must produce **byte-identical**
//! `--stats json` metrics and `--provenance-out` JSONL.
//!
//! Both phases live in one `#[test]` on purpose: the provenance phase
//! installs thread-scoped sinks and id sources, and keeping the whole
//! scenario in a single test body keeps it self-contained no matter how
//! the test harness schedules other tests on sibling threads.

use hli_backend::ddg::{DepMode, QueryStats};
use hli_backend::driver::{image_entry, schedule_program_passes, PassSpec};
use hli_backend::lower::lower_program;
use hli_backend::rtl::RtlProgram;
use hli_core::image::EntryRef;
use hli_core::serialize::SerializeOpts;
use hli_core::{encode_image, HliImage};
use hli_harness::attr::rollup;
use hli_harness::{default_machines, run_benchmarks_jobs_on, BenchReport};
use hli_machine::MachineBackend;
use hli_obs::{
    metrics, provenance, trace, DecisionRecord, MetricsRegistry, MetricsSnapshot, ProvenanceSink,
    Tracer,
};
use hli_suite::Scale;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// The tiny suite through the harness pipeline on `jobs` workers and the
/// given machine list.
fn tiny_suite_on(
    jobs: usize,
    machines: &[&'static dyn MachineBackend],
) -> Vec<Result<BenchReport, String>> {
    run_benchmarks_jobs_on(&hli_suite::all(Scale::tiny()), jobs, machines)
}

/// Run the tiny suite at `jobs` under fresh scoped observability state,
/// returning the metrics snapshot and provenance-JSONL a binary would
/// emit (`snapshot.to_json()` is the `--stats json` output).
fn suite_obs_at(jobs: usize) -> (MetricsSnapshot, String) {
    let reg = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(ProvenanceSink::new());
    let ids = Arc::new(AtomicU64::new(1));
    let reports = {
        let _m = metrics::scoped(reg.clone());
        let _s = provenance::scoped(sink.clone());
        let _i = provenance::scoped_ids(ids);
        tiny_suite_on(jobs, &default_machines())
    };
    for r in reports {
        assert!(r.expect("benchmark must compile").validated);
    }
    (reg.snapshot(), provenance::to_jsonl(&sink.drain()))
}

/// Compile a four-function program whose `f2` unit carries an injected
/// verifier violation, at `jobs` workers, returning stats JSON and
/// provenance JSONL.
fn quarantined_obs_at(jobs: usize) -> (String, String) {
    let src = "int a[64]; int b[64]; int g;\n\
        void f1(int n) { int i; for (i = 0; i < n; i++) a[i] = b[i] + g; }\n\
        void f2(int n) { int i; for (i = 0; i < n; i++) b[i] = a[i] * 2; }\n\
        void f3(int n) { int i; for (i = 0; i < n; i++) g += a[i]; }\n\
        int main() { f1(32); f2(32); f3(32); return g; }";
    let (p, s) = hli_lang::compile_to_ast(src).unwrap();
    let mut hli = hli_frontend::generate_hli(&p, &s);
    let bad = hli.entry_mut("f2").unwrap();
    let (c0, c1) = (bad.regions[0].equiv_classes[0].id, bad.regions[0].equiv_classes[1].id);
    bad.regions[0].lcdd_table.push(hli_core::LcddEntry {
        src: c0,
        dst: c1,
        kind: hli_core::DepKind::Maybe,
        distance: hli_core::Distance::Unknown,
    });
    let prog = lower_program(&p, &s);
    let reg = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(ProvenanceSink::new());
    sink.set_enabled(true);
    let ids = Arc::new(AtomicU64::new(1));
    {
        let _m = metrics::scoped(reg.clone());
        let _s = provenance::scoped(sink.clone());
        let _i = provenance::scoped_ids(ids);
        let passes = [
            PassSpec { mode: DepMode::GccOnly, caches: None },
            PassSpec { mode: DepMode::Combined, caches: None },
        ];
        schedule_program_passes(
            &prog,
            &|n| hli.entry(n).map(EntryRef::Owned),
            &passes,
            hli_machine::backend_by_name("r4600").unwrap(),
            jobs,
        );
    }
    (reg.snapshot().to_json(), provenance::to_jsonl(&sink.drain()))
}

#[test]
fn quarantine_counters_and_provenance_are_jobs_invariant() {
    let (seq_json, seq_prov) = quarantined_obs_at(1);
    let (par_json, par_prov) = quarantined_obs_at(8);
    assert!(
        seq_json.contains("\"backend.quarantine.units\": 1"),
        "the injected-invalid unit must be quarantined exactly once: {seq_json}"
    );
    assert!(
        seq_prov.contains("quarantine.unit") && seq_prov.contains("\"function\": \"f2\""),
        "quarantine must leave a provenance record naming the unit: {seq_prov}"
    );
    assert_eq!(
        seq_json, par_json,
        "quarantine stats diverge between --jobs 1 and --jobs 8"
    );
    assert_eq!(
        seq_prov, par_prov,
        "quarantine provenance diverges between --jobs 1 and --jobs 8"
    );
}

#[test]
fn jobs_one_and_jobs_eight_are_byte_identical() {
    let (seq_snap, seq_prov) = suite_obs_at(1);
    let (par_snap, par_prov) = suite_obs_at(8);
    let (seq_json, par_json) = (seq_snap.to_json(), par_snap.to_json());
    assert!(
        seq_json.contains("backend.ddg.total_tests"),
        "snapshot must carry the pipeline's counters"
    );
    assert_eq!(
        seq_json, par_json,
        "--stats json diverges between --jobs 1 and --jobs 8"
    );
    assert!(
        !seq_prov.is_empty(),
        "an enabled sink must collect scheduling decisions"
    );
    assert_eq!(
        seq_prov, par_prov,
        "--provenance-out diverges between --jobs 1 and --jobs 8"
    );
}

/// The determinism contract holds per machine list too: the whole
/// pipeline against the w4 backend (its latency table drives the
/// scheduler AND it is the simulated target) produces byte-identical
/// `--stats json` and provenance JSONL at `--jobs 1` and `--jobs 8`.
#[test]
fn w4_stats_and_provenance_are_jobs_invariant() {
    let machines: Vec<&'static dyn MachineBackend> =
        vec![hli_machine::backend_by_name("w4").unwrap()];
    let run = |jobs: usize| -> (String, String) {
        let reg = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(ProvenanceSink::new());
        sink.set_enabled(true);
        let ids = Arc::new(AtomicU64::new(1));
        let reports = {
            let _m = metrics::scoped(reg.clone());
            let _s = provenance::scoped(sink.clone());
            let _i = provenance::scoped_ids(ids);
            tiny_suite_on(jobs, &machines)
        };
        for r in reports {
            assert!(r.expect("benchmark must compile").validated, "w4 run must stay correct");
        }
        (reg.snapshot().to_json(), provenance::to_jsonl(&sink.drain()))
    };
    let (seq_json, seq_prov) = run(1);
    let (par_json, par_prov) = run(8);
    assert!(
        seq_json.contains("machine.w4.cycles"),
        "w4 run must meter its own counters: {seq_json}"
    );
    assert!(
        !seq_json.contains("attr.total.r4600") && !seq_json.contains("attr.total.r10000"),
        "a w4-only run must not attribute cycles to unselected machines"
    );
    assert_eq!(
        seq_json, par_json,
        "w4 --stats json diverges between --jobs 1 and --jobs 8"
    );
    assert!(!seq_prov.is_empty(), "w4 run must record scheduling decisions");
    assert_eq!(
        seq_prov, par_prov,
        "w4 provenance diverges between --jobs 1 and --jobs 8"
    );
}

/// Counters of the layers whose answers must not depend on how a unit is
/// served. Import-layer metering (`hli.serialize.*`, `hli.deserialize.*`,
/// `hli.image.*`, `hli.cache.*`) is excluded: only the image lookup opens
/// and validates an image.
fn semantic_counters(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    const PREFIXES: [&str; 5] = ["hli.query.", "backend.", "attr.", "machine.", "frontend."];
    snap.counters
        .iter()
        .filter(|(k, _)| PREFIXES.iter().any(|p| k.starts_with(p)))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Schedule every tiny-suite benchmark through the two-pass driver at
/// `jobs`, resolving each function's unit
/// either from the in-memory `HliFile` (the `EntryRef::Owned` lookup the
/// serve daemon and hlibench use) or, with `image`, from the file's
/// image. Runs under fresh scoped observability state and
/// returns the scheduled programs with their stats, the metrics snapshot
/// and the provenance JSONL.
fn driver_obs_at(
    jobs: usize,
    image: bool,
) -> (Vec<(RtlProgram, QueryStats)>, MetricsSnapshot, String) {
    let reg = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(ProvenanceSink::new());
    sink.set_enabled(true);
    let ids = Arc::new(AtomicU64::new(1));
    let mut out = Vec::new();
    {
        let _m = metrics::scoped(reg.clone());
        let _s = provenance::scoped(sink.clone());
        let _i = provenance::scoped_ids(ids);
        let mach = default_machines()[0];
        for b in hli_suite::all(Scale::tiny()) {
            let (p, s) = hli_lang::compile_to_ast(&b.source).unwrap();
            let hli = hli_frontend::generate_hli(&p, &s);
            let rtl = lower_program(&p, &s);
            let passes = [
                PassSpec { mode: DepMode::GccOnly, caches: None },
                PassSpec { mode: DepMode::Combined, caches: None },
            ];
            out.extend(if image {
                let img = HliImage::open(encode_image(&hli, SerializeOpts::default())).unwrap();
                schedule_program_passes(&rtl, &|n| image_entry(&img, n), &passes, mach, jobs)
            } else {
                let owned = |n: &str| hli.entry(n).map(EntryRef::Owned);
                schedule_program_passes(&rtl, &owned, &passes, mach, jobs)
            });
        }
    }
    (out, reg.snapshot(), provenance::to_jsonl(&sink.drain()))
}

/// The image-vs-in-memory parity gate: serving each function's unit from
/// the file's image (decoded, then verified by `vet_unit`)
/// instead of lending it from the in-memory `HliFile` changes *cost only,
/// never answers*. The scheduled programs, every query/backend counter and
/// the full provenance JSONL are byte-identical between the two lookups,
/// at 1 and at 8 workers.
#[test]
fn image_lookup_answers_are_byte_identical_to_in_memory_file() {
    for jobs in [1usize, 8] {
        let (owned, owned_snap, owned_prov) = driver_obs_at(jobs, false);
        let (imaged, image_snap, image_prov) = driver_obs_at(jobs, true);
        assert!(
            image_snap.counter("hli.image.units_validated") > 0,
            "the image run must actually decode its units"
        );
        assert!(
            owned == imaged,
            "schedules diverge between owned and image at --jobs {jobs}"
        );
        assert_eq!(
            semantic_counters(&owned_snap),
            semantic_counters(&image_snap),
            "query/backend counters diverge between owned and image at --jobs {jobs}"
        );
        assert!(!owned_prov.is_empty(), "provenance must record scheduling decisions");
        assert_eq!(
            owned_prov, image_prov,
            "provenance JSONL diverges between owned and image at --jobs {jobs}"
        );
    }
}

/// Run the tiny suite at `jobs` with a scoped **logical-clock** tracer
/// installed, returning the Chrome JSON a `--trace-out` run would write.
fn trace_obs_at(jobs: usize) -> String {
    let reg = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::logical());
    {
        let _m = metrics::scoped(reg.clone());
        let _t = trace::scoped(tracer.clone());
        for r in tiny_suite_on(jobs, &default_machines()) {
            assert!(r.expect("benchmark must compile").validated);
        }
    }
    tracer.to_chrome_json()
}

#[test]
fn chrome_trace_is_jobs_invariant_under_logical_clock() {
    let seq = trace_obs_at(1);
    let par = trace_obs_at(8);
    assert!(
        seq.contains("\"traceEvents\"") && seq.contains("bench."),
        "a traced suite run must record per-benchmark spans: {seq}"
    );
    assert_eq!(
        seq, par,
        "--trace-out Chrome JSON diverges between --jobs 1 and --jobs 8: shard \
         span absorption must renumber logical ticks in commit order"
    );
}

/// Run the tiny suite at `jobs` and return the raw attribution inputs an
/// `obsreport` invocation would ingest: the counter snapshot, the drained
/// decision records, and the per-benchmark reports.
fn attr_obs_at(jobs: usize) -> (MetricsSnapshot, Vec<DecisionRecord>, Vec<BenchReport>) {
    let reg = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(ProvenanceSink::new());
    sink.set_enabled(true);
    let ids = Arc::new(AtomicU64::new(1));
    let reports = {
        let _m = metrics::scoped(reg.clone());
        let _s = provenance::scoped(sink.clone());
        let _i = provenance::scoped_ids(ids);
        tiny_suite_on(jobs, &default_machines())
    };
    let reports: Vec<BenchReport> =
        reports.into_iter().map(|r| r.expect("benchmark must compile")).collect();
    (reg.snapshot(), sink.drain(), reports)
}

#[test]
fn obsreport_rollup_is_jobs_invariant_and_reconciles() {
    let (snap1, recs1, reports) = attr_obs_at(1);
    let (snap8, recs8, _) = attr_obs_at(8);
    let r1 = rollup(&snap1.counters, &recs1, 20);
    let r8 = rollup(&snap8.counters, &recs8, 20);

    // The acceptance criterion of the attribution layer: the rollup an
    // obsreport run produces is byte-identical across --jobs settings.
    assert_eq!(
        r1.to_json(),
        r8.to_json(),
        "obsreport rollup diverges between --jobs 1 and --jobs 8"
    );
    assert!(r1.totals.decisions > 0, "suite run must record decisions");
    assert!(r1.totals.spans > 0, "scheduling decisions must carry causal spans");

    // Reconciliation: the per-table measured-benefit apportionment must
    // sum back to the aggregate measured delta exactly, and that aggregate
    // must equal the Table-2 cycle delta of the same run.
    let by_table_r4600: u64 = r1.per_table.values().map(|t| t.measured_r4600).sum();
    let by_table_r10000: u64 = r1.per_table.values().map(|t| t.measured_r10000).sum();
    assert_eq!(by_table_r4600, r1.totals.measured_r4600);
    assert_eq!(by_table_r10000, r1.totals.measured_r10000);

    let on = |m: &str, pick: fn(hli_harness::MachineCycles) -> u64| -> u64 {
        reports.iter().filter_map(|r| r.cycles_on(m)).map(pick).sum()
    };
    let gcc_r4600 = on("r4600", |c| c.gcc);
    let hli_r4600 = on("r4600", |c| c.hli);
    let gcc_r10000 = on("r10000", |c| c.gcc);
    let hli_r10000 = on("r10000", |c| c.hli);
    assert_eq!(
        r1.totals.measured_r4600,
        gcc_r4600.saturating_sub(hli_r4600),
        "attr.total r4600 delta must reconcile with the Table-2 aggregate"
    );
    assert_eq!(
        r1.totals.measured_r10000,
        gcc_r10000.saturating_sub(hli_r10000),
        "attr.total r10000 delta must reconcile with the Table-2 aggregate"
    );
}
