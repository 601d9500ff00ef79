//! End-to-end smoke test for the observability surface: drive the real
//! `hlicc` binary with `--stats json --trace-out` and check that every
//! pipeline layer shows up in the emitted JSON.

use hli_obs::json::{parse, Json};
use std::process::Command;

const SAMPLE: &str = "int g; int a[8];\n\
     int addg(int v) { return v + g; }\n\
     int main() {\n\
       int i; int s;\n\
       s = 0;\n\
       for (i = 0; i < 8; i++) a[i] = i * 2;\n\
       for (i = 0; i < 8; i++) s += addg(a[i]);\n\
       g = s;\n\
       return s & 255;\n\
     }";

fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("hli_obs_smoke_{}_{name}", std::process::id()));
    p
}

/// Everything after the first `{`-only line is the stats JSON (the normal
/// compiler output comes first and never starts a line with a brace).
fn stats_json(stdout: &str) -> Json {
    let start = stdout
        .lines()
        .scan(0usize, |off, l| {
            let here = *off;
            *off += l.len() + 1;
            Some((here, l))
        })
        .find(|(_, l)| *l == "{")
        .map(|(off, _)| off)
        .expect("stats JSON block in stdout");
    parse(&stdout[start..]).expect("stats output parses as JSON")
}

#[test]
fn hlicc_build_emits_stats_and_trace() {
    let src_path = tmp_path("sample.c");
    let trace_path = tmp_path("trace.json");
    std::fs::write(&src_path, SAMPLE).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_hlicc"))
        .args([
            "build",
            src_path.to_str().unwrap(),
            "--stats",
            "json",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("hlicc runs");
    assert!(
        out.status.success(),
        "hlicc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Metrics: every instrumented layer reported something.
    let stats = stats_json(&String::from_utf8(out.stdout).unwrap());
    let counters = match stats.get("counters") {
        Some(Json::Obj(kv)) => kv.clone(),
        other => panic!("no counters object: {other:?}"),
    };
    let prefix_sum = |prefix: &str| -> f64 {
        counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| v.as_num())
            .sum()
    };
    for layer in ["frontend.", "backend.", "hli.query.", "machine."] {
        assert!(prefix_sum(layer) > 0.0, "no nonzero {layer}* counter in {counters:?}");
    }

    // Trace: Chrome trace_event JSON with complete ("X") events.
    let trace =
        parse(&std::fs::read_to_string(&trace_path).unwrap()).expect("trace file parses as JSON");
    let events = trace.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents array");
    assert!(!events.is_empty(), "trace has no events");
    for ev in events {
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("ts").and_then(|v| v.as_num()).is_some());
        assert!(ev.get("dur").and_then(|v| v.as_num()).is_some());
    }
    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(|v| v.as_str())).collect();
    assert!(names.iter().any(|n| n.starts_with("hlicc.front")), "{names:?}");
    assert!(names.iter().any(|n| n.starts_with("hlicc.back")), "{names:?}");

    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(tmp_path("sample.hli"));
}

/// A schedule-only build of the Fig.4/Fig.5 fixture asks no loop-carried
/// question (the DDG tests same-iteration pairs), so obsreport may credit
/// `lcdd` with no scheduling decision.
#[test]
fn scheduling_asks_no_lcdd_and_credits_none() {
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/fig45.c");
    let prov_path = tmp_path("fig45.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_hlicc"))
        .args(["build", fixture, "--stats", "json", "--provenance-out"])
        .arg(&prov_path)
        .output()
        .expect("hlicc runs");
    assert!(
        out.status.success(),
        "hlicc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stats = stats_json(&String::from_utf8(out.stdout).unwrap());
    let lcdd = stats.get("counters").and_then(|c| c.get("hli.query.get_lcdd"));
    assert_eq!(lcdd.and_then(|v| v.as_num()), Some(0.0), "scheduling asked get_lcdd");
    let jsonl = std::fs::read_to_string(&prov_path).unwrap();
    let _ = std::fs::remove_file(&prov_path);
    let passes: std::collections::BTreeSet<String> = jsonl
        .lines()
        .filter_map(|l| hli_obs::DecisionRecord::parse_line(l).ok())
        .map(|r| r.pass)
        .filter(|p| p.starts_with("sched."))
        .collect();
    assert!(!passes.is_empty(), "the fixture schedules with HLI: {jsonl}");
    for pass in &passes {
        let tables = hli_harness::attr::tables_of(pass);
        assert!(!tables.contains(&"lcdd"), "`{pass}` credits lcdd: {tables:?}");
    }
}

#[test]
fn plain_run_output_has_no_stats_block() {
    let src_path = tmp_path("plain.c");
    std::fs::write(&src_path, SAMPLE).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_hlicc"))
        .args(["build", src_path.to_str().unwrap()])
        .output()
        .expect("hlicc runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        !stdout.lines().any(|l| l == "{"),
        "plain runs must not print stats: {stdout}"
    );
    let _ = std::fs::remove_file(&src_path);
    let _ = std::fs::remove_file(tmp_path("plain.hli"));
}
