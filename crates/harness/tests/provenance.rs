//! Decision-provenance integration tests: the JSONL format round-trips,
//! in-process pipeline runs emit records whose query ids actually
//! occurred, the paper's Figure 4/Figure 5 examples produce the pinned
//! Applied/Blocked records, and `obsdiff` gates on snapshot regressions.

use hli_backend::cse::cse_function;
use hli_backend::ddg::DepMode;
use hli_backend::disamb::HliSide;
use hli_backend::lower::{lower_program, lower_with_loops};
use hli_backend::mapping::map_function;
use hli_backend::sched::schedule_function;
use hli_backend::unroll::unroll_function;
use hli_core::QueryCache;
use hli_frontend::generate_hli;
use hli_lang::compile_to_ast;
use hli_obs::provenance::{self, query_id_watermark, DecisionRecord, ProvenanceSink, QueryRef};
use hli_obs::Verdict;
use std::process::Command;
use std::sync::Arc;

/// The paper's Figure 4 example: `side()` mods only `unrelated`, so CSE
/// may keep the value of `g` live across the call.
const FIG4_KEEP: &str = "int g; int unrelated;\n\
    void side() { unrelated = unrelated + 1; }\n\
    int main() { int a; int b; a = g; side(); b = g; return a + b; }";

/// Variant where the callee really does clobber `g`: the purge must fire.
const FIG4_PURGE: &str = "int g;\n\
    void side() { g = g + 1; }\n\
    int main() { int a; int b; a = g; side(); b = g; return a + b; }";

/// Figure 5 shape: `pure_g` only reads `g`, so stores to `h` on either
/// side of the call may move across it (the hoist-across-call decision).
const FIG5_SRC: &str = "int g; int h;\n\
    int pure_g() { return g; }\n\
    int main() {\n h = 1; h = pure_g() + h; return h;\n}";

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Run the Figure-4 style CSE pipeline over `src` under a fresh scoped
/// sink and return the records it produced.
fn cse_records(src: &str) -> Vec<DecisionRecord> {
    let sink = Arc::new(ProvenanceSink::new());
    let _scope = provenance::scoped(sink.clone());
    let (p, s) = compile_to_ast(src).unwrap();
    let rtl = lower_program(&p, &s);
    let f = rtl.func("main").unwrap();
    let hli = generate_hli(&p, &s);
    let mut entry = hli.entry("main").unwrap().clone();
    let mut map = map_function(f, &entry);
    let _ = cse_function(
        f,
        Some((&mut entry, &mut map)),
        DepMode::Combined,
        hli_machine::backend_by_name("r4600").unwrap(),
    );
    sink.drain()
}

#[test]
fn decision_records_round_trip_through_jsonl() {
    let mut rng = Rng(0x9e3779b97f4a7c15);
    let passes = [
        "sched.pair",
        "cse.call",
        "licm.hoist",
        "unroll.loop",
        "maintain.gen_item",
    ];
    let reasons = [
        "call may modify location",
        "gcc=true \"quoted\"",
        "tab\there\\done",
        "",
    ];
    let mut records = Vec::new();
    for i in 0..100 {
        let blocked = rng.next().is_multiple_of(2);
        records.push(DecisionRecord {
            pass: passes[(rng.next() % passes.len() as u64) as usize].to_string(),
            function: format!("fn_{}", rng.next() % 7),
            region_id: if rng.next().is_multiple_of(3) {
                None
            } else {
                Some((rng.next() % 50) as u32)
            },
            order: i,
            span: rng.next() % 1000,
            est_cycles: rng.next() % 64,
            hli_queries: (0..rng.next() % 4).map(|_| QueryRef(rng.next() % 10_000)).collect(),
            verdict: if blocked {
                Verdict::Blocked {
                    reason: reasons[(rng.next() % reasons.len() as u64) as usize].to_string(),
                }
            } else {
                Verdict::Applied
            },
        });
    }
    let jsonl = provenance::to_jsonl(&records);
    let parsed: Vec<DecisionRecord> = jsonl
        .lines()
        .map(|l| DecisionRecord::parse_line(l).expect("emitted line parses"))
        .collect();
    assert_eq!(parsed, records);
}

#[test]
fn pipeline_records_cite_query_ids_that_occurred() {
    let w0 = query_id_watermark();
    let records = cse_records(FIG4_KEEP);
    let w1 = query_id_watermark();
    assert!(!records.is_empty(), "CSE over Figure 4 emitted no records");
    assert!(
        records.iter().any(|r| !r.hli_queries.is_empty()),
        "no record cites an HLI query: {records:?}"
    );
    for r in &records {
        for q in &r.hli_queries {
            assert!(
                q.0 >= w0 && q.0 < w1,
                "record cites query id {} outside the run's window [{w0}, {w1}): {r:?}",
                q.0
            );
        }
    }
}

#[test]
fn figure4_cse_keep_and_purge_records_pinned() {
    // Paper behaviour: REF/MOD shows side() cannot touch g, the entry is
    // kept across the call (Applied, justified by >= 1 query), and the
    // now-redundant second load dies (the maintenance delete).
    let keep = cse_records(FIG4_KEEP);
    let applied: Vec<_> =
        keep.iter().filter(|r| r.pass == "cse.call" && r.verdict.is_applied()).collect();
    assert_eq!(applied.len(), 1, "exactly one entry kept across the call: {keep:?}");
    assert!(!applied[0].hli_queries.is_empty(), "keep decision must cite a query");
    assert_eq!(applied[0].function, "main");
    assert!(
        keep.iter().any(|r| r.pass == "maintain.delete_item" && r.verdict.is_applied()),
        "eliminated load must produce a maintenance record: {keep:?}"
    );

    // When the callee really clobbers g the same position is Blocked.
    let purge = cse_records(FIG4_PURGE);
    let blocked: Vec<_> = purge
        .iter()
        .filter(|r| r.pass == "cse.call" && !r.verdict.is_applied())
        .collect();
    assert_eq!(blocked.len(), 1, "the g entry must be purged at the call: {purge:?}");
    match &blocked[0].verdict {
        Verdict::Blocked { reason } => assert_eq!(reason, "call may modify location"),
        v => panic!("expected Blocked, got {v:?}"),
    }
    assert!(
        !purge.iter().any(|r| r.pass == "maintain.delete_item"),
        "no load is redundant when the call clobbers g: {purge:?}"
    );
}

#[test]
fn figure5_hoist_across_call_record_pinned() {
    let sink = Arc::new(ProvenanceSink::new());
    let records = {
        let _scope = provenance::scoped(sink.clone());
        let (p, s) = compile_to_ast(FIG5_SRC).unwrap();
        let rtl = lower_program(&p, &s);
        let f = rtl.func("main").unwrap();
        let hli = generate_hli(&p, &s);
        let entry = hli.entry("main").unwrap().clone();
        let map = map_function(f, &entry);
        let cache = QueryCache::new();
        let q = cache.attach(&entry);
        let side = HliSide { query: &q, map: &map };
        let _ = schedule_function(
            f,
            Some(&side),
            DepMode::Combined,
            hli_machine::backend_by_name("r4600").unwrap(),
        );
        sink.drain()
    };
    let hoists: Vec<_> = records
        .iter()
        .filter(|r| r.pass == "sched.call" && r.verdict.is_applied())
        .collect();
    assert!(
        !hoists.is_empty(),
        "pure call must free at least one mem op to move across it: {records:?}"
    );
    assert!(
        hoists.iter().all(|r| !r.hli_queries.is_empty()),
        "hoist-across-call must be justified by an HLI query: {hoists:?}"
    );
}

#[test]
fn unroll_emits_loop_and_maintenance_records() {
    let src = "int a[16];\n\
        int main() {\n    int i;\n    for (i = 1; i < 16; i++)\n        a[i] = a[i-1] + 1;\n    return a[15];\n}";
    let sink = Arc::new(ProvenanceSink::new());
    let records = {
        let _scope = provenance::scoped(sink.clone());
        let (p, s) = compile_to_ast(src).unwrap();
        let (rtl, loops) = lower_with_loops(&p, &s);
        let f = rtl.func("main").unwrap();
        let hli = generate_hli(&p, &s);
        let mut entry = hli.entry("main").unwrap().clone();
        let mut map = map_function(f, &entry);
        let r = unroll_function(
            f,
            &loops["main"],
            3,
            Some((&mut entry, &mut map)),
            hli_machine::backend_by_name("r4600").unwrap(),
        );
        assert_eq!(r.unrolled, 1);
        sink.drain()
    };
    assert!(
        records.iter().any(|r| r.pass == "unroll.loop" && r.verdict.is_applied()),
        "unrolled loop must be recorded: {records:?}"
    );
    assert!(
        records
            .iter()
            .any(|r| r.pass == "maintain.unroll_loop" && r.region_id.is_some()),
        "the Figure-6 table rebuild must name its region: {records:?}"
    );
}

#[test]
fn hlicc_provenance_out_is_parseable_and_cites_queries() {
    let dir = std::env::temp_dir();
    let src_path = dir.join(format!("hli_prov_{}.c", std::process::id()));
    let out_path = dir.join(format!("hli_prov_{}.jsonl", std::process::id()));
    std::fs::write(&src_path, FIG4_KEEP).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hlicc"))
        .args([
            "build",
            src_path.to_str().unwrap(),
            "--cse",
            "--provenance-out",
            out_path.to_str().unwrap(),
        ])
        .output()
        .expect("hlicc runs");
    assert!(
        out.status.success(),
        "hlicc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&out_path).unwrap();
    // First line is the schema header record; decision records follow.
    assert!(
        jsonl.lines().next().unwrap_or("").contains("\"schema_version\""),
        "provenance file must lead with a schema header: {jsonl}"
    );
    let records: Vec<DecisionRecord> = jsonl
        .lines()
        .skip(1)
        .map(|l| DecisionRecord::parse_line(l).expect("hlicc emits parseable JSONL"))
        .collect();
    assert!(
        records
            .iter()
            .any(|r| r.pass == "cse.call" && r.verdict.is_applied() && !r.hli_queries.is_empty()),
        "Figure-4 keep decision missing from {records:?}"
    );
    assert!(records.iter().any(|r| r.pass == "maintain.delete_item"));
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&out_path);
    let _ = std::fs::remove_file(dir.join(format!("hli_prov_{}.hli", std::process::id())));
}

#[test]
fn obsdiff_gates_on_counter_regressions() {
    let dir = std::env::temp_dir();
    let base = dir.join(format!("hli_obsdiff_base_{}.json", std::process::id()));
    let same = dir.join(format!("hli_obsdiff_same_{}.json", std::process::id()));
    let worse = dir.join(format!("hli_obsdiff_worse_{}.json", std::process::id()));
    let snapshot = |cse: u64| {
        format!(
            "{{\n  \"schema_version\": {},\n  \"counters\": {{\n    \
             \"backend.cse.loads_eliminated\": {cse},\n    \
             \"provenance.cse.call.applied\": 1\n  }},\n  \"gauges\": {{}},\n  \
             \"histograms\": {{}}\n}}\n",
            hli_obs::SCHEMA_VERSION
        )
    };
    std::fs::write(&base, snapshot(12)).unwrap();
    // `current` may be a whole transcript; the table text before the JSON
    // block must be skipped.
    std::fs::write(&same, format!("Table 2. something\n\n{}", snapshot(12))).unwrap();
    std::fs::write(&worse, snapshot(9)).unwrap();

    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_obsdiff"))
            .args(args)
            .output()
            .expect("obsdiff runs")
    };
    let ok = run(&[base.to_str().unwrap(), same.to_str().unwrap()]);
    assert!(ok.status.success(), "identical snapshots must pass: {ok:?}");

    let bad = run(&[base.to_str().unwrap(), worse.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1), "regression must exit 1: {bad:?}");
    let text = String::from_utf8_lossy(&bad.stdout).to_string();
    assert!(
        text.contains("backend.cse.loads_eliminated") && text.contains("REGRESSION"),
        "{text}"
    );

    let tolerated = run(&[
        base.to_str().unwrap(),
        worse.to_str().unwrap(),
        "--tol",
        "50",
    ]);
    assert!(tolerated.status.success(), "within tolerance must pass: {tolerated:?}");

    let usage = run(&[base.to_str().unwrap()]);
    assert_eq!(usage.status.code(), Some(2), "bad usage must exit 2");

    for p in [&base, &same, &worse] {
        let _ = std::fs::remove_file(p);
    }
}
