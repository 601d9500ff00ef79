//! The benchmark's self-test: exact answers repeat run to run, and the
//! correctness gate rejects tampered answers.

use hli_serve::{Response, ServeConfig, Server};
use hlibench::serve::{Answer, Batch, Batches, Expect, References};
use hlibench::{run, Outcome, RunCfg, Sizes, Workload};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("hlibench-selftest-{name}"))
}

/// A run small enough for a test: no time budget, three requests.
fn tiny(w: Workload, trace: bool, name: &str) -> RunCfg {
    let sizes = Sizes {
        programs: if w == Workload::Pipeline { 1 } else { 2 },
        funcs: 4,
        setup_requests: 2,
        setups: 1,
        warmup: 1,
        min_requests: 3,
        exact_requests: 3,
        speedup_programs: 2,
        trace_requests: 3,
    };
    RunCfg {
        workload: w,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes,
        cache_root: scratch(name),
        spans_out: None,
    }
}

fn exact(out: &Outcome, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| out.metric(n).unwrap_or_else(|| panic!("no metric {n}")))
        .collect()
}

const EXACT: [&str; 4] = [
    "ok_ratio",
    "dep_reduction",
    "speedup_r4600",
    "speedup_r10000",
];

const COUNTS: [&str; 11] = [
    "machine.dyn_insns",
    "machine.r10000_cycles",
    "backend.dep_tests",
    "core.hli_bytes",
    "serve.request_kb",
    "serve.probe_kb",
    "serve.hits",
    "serve.misses",
    "serve.hit_ratio",
    "serve.objects_written",
    "obs.records_replayed",
];

fn repeats(w: Workload) {
    let name = w.name();
    let a = run(&tiny(w, false, &format!("{name}-a")));
    let b = run(&tiny(w, false, &format!("{name}-b")));
    assert!(a.correct() && b.correct(), "{:?} {:?}", a.failures, b.failures);
    assert_eq!(a.attempted, 3);
    assert_eq!(exact(&a, &EXACT), exact(&b, &EXACT));
    assert_eq!(a.metric("ok_ratio"), Some(1.0));

    let ta = run(&tiny(w, true, &format!("{name}-ta")));
    let tb = run(&tiny(w, true, &format!("{name}-tb")));
    assert!(ta.correct() && tb.correct(), "{:?} {:?}", ta.failures, tb.failures);
    assert_eq!(exact(&ta, &COUNTS), exact(&tb, &COUNTS));
    assert!(ta.metric("unattributed_ms").is_some());
}

#[test]
fn pipeline_exact_answers_repeat() {
    repeats(Workload::Pipeline);
}

#[test]
fn serve_edit_exact_answers_repeat() {
    repeats(Workload::ServeEdit);
}

#[test]
fn serve_cold_exact_answers_repeat() {
    repeats(Workload::ServeCold);
}

#[test]
fn traced_counts_show_which_layers_each_workload_uses() {
    let p = run(&tiny(Workload::Pipeline, true, "layers-p"));
    let e = run(&tiny(Workload::ServeEdit, true, "layers-e"));
    let c = run(&tiny(Workload::ServeCold, true, "layers-c"));
    assert!(p.metric("machine.dyn_insns").unwrap() > 0.0);
    assert_eq!(p.metric("serve.misses"), Some(0.0));
    assert_eq!(e.metric("machine.dyn_insns"), Some(0.0));
    assert_eq!(e.metric("serve.misses"), Some(3.0), "one miss per batch");
    assert_eq!(c.metric("serve.hits"), Some(0.0), "never a hit");
    assert_eq!(c.metric("serve.objects_written"), c.metric("serve.misses"));
}

/// The gate on one response line.
fn check(refs: &mut References, batch: &Batch, line: &str, expect: Expect) -> Result<u64, String> {
    let facts = Answer::parse(line).and_then(|a| refs.check(batch, &a, expect))?;
    Ok(facts.funcs - facts.hits)
}

/// A served `serve_edit` batch after set-up, with the gate's references.
fn served_edit_batch(name: &str) -> (Batch, String, Vec<Batch>) {
    let sizes = tiny(Workload::ServeEdit, false, name).sizes;
    let mut batches = Batches::new(Workload::ServeEdit, 11, &sizes);
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig { cache_dir: dir.clone(), cache_max_bytes: 0, jobs: 1 };
    let server = Server::new(cfg).unwrap();
    let setup = batches.setup();
    for b in &setup {
        server.handle_line(&b.line);
    }
    let batch = batches.next_batch();
    let (response, _) = server.handle_line(&batch.line);
    let _ = std::fs::remove_dir_all(&dir);
    (batch, response, setup)
}

#[test]
fn tampered_answers_fail_the_gate() {
    let (batch, response, _) = served_edit_batch("tamper");
    let mut refs = References::new(true);
    let misses = check(&mut refs, &batch, &response, Expect::OneMiss).expect("honest answer");
    assert_eq!(misses, 1);

    // A flipped digit in one sched_hash.
    let at = response.find("\"sched_hash\": \"").unwrap() + "\"sched_hash\": \"".len();
    let digit = if &response[at..at + 1] == "0" {
        "1"
    } else {
        "0"
    };
    let flipped = format!("{}{digit}{}", &response[..at], &response[at + 1..]);
    assert!(check(&mut refs, &batch, &flipped, Expect::OneMiss).is_err());

    // A second miss in the batch.
    let Response::Compile { id, mut results, hits, misses } = Response::parse(&response).unwrap()
    else {
        panic!("compile response")
    };
    let f = results[0].outcome.as_mut().unwrap().iter_mut().find(|f| f.cached).unwrap();
    f.cached = false;
    let two = Response::Compile { id, results, hits: hits - 1, misses: misses + 1 }.to_line();
    assert!(check(&mut refs, &batch, &two, Expect::OneMiss).is_err());

    // A hit where every function must miss.
    assert!(check(&mut refs, &batch, &response, Expect::AllMiss).is_err());
}

#[test]
fn a_program_error_fails_the_gate() {
    let (batch, response, _) = served_edit_batch("error");
    let mut refs = References::new(true);
    let Response::Compile { id, mut results, hits, misses } = Response::parse(&response).unwrap()
    else {
        panic!("compile response")
    };
    results[1].outcome = Err("1:1: parse error".into());
    let broken = Response::Compile { id, results, hits, misses }.to_line();
    assert!(check(&mut refs, &batch, &broken, Expect::OneMiss).is_err());
}

#[test]
fn serve_edit_projects_never_share_a_function() {
    let (_, _, setup) = served_edit_batch("projects");
    let mut refs = References::new(true);
    let dir = scratch("projects-fill");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig { cache_dir: dir.clone(), cache_max_bytes: 0, jobs: 1 };
    let server = Server::new(cfg).unwrap();
    for b in &setup {
        let (response, _) = server.handle_line(&b.line);
        check(&mut refs, b, &response, Expect::AllMiss).expect("every set-up function is new");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
