//! Pins the AST interpreter, the differential oracle every pipeline run
//! is checked against, on real programs: `main`'s return value, the
//! global-memory checksum and all four `InterpStats` counters (steps,
//! loads, stores, calls), for the 14-program suite and for the perfbench
//! corpus that `BENCH_6.json` is measured over.
//!
//! The expected rows are in `oracle_golden.txt` next to this file, one
//! line per program:
//!
//! ```text
//! <set> <program> <ret> <checksum, hex> <steps> <loads> <stores> <calls>
//! ```
//!
//! Every test prints the rows it computed in that format before it
//! compares them, so the table is regenerated with
//!
//! ```text
//! cargo test --release -p hli-suite --test oracle_golden -- \
//!     --include-ignored --nocapture --test-threads 1 \
//!   | grep -oE '(tiny|default|corpus) [^ ]+ -?[0-9]+ [0-9a-f]{16}( [0-9]+){4}'
//! ```
//!
//! Regenerate it only for a change that is meant to alter what the
//! interpreter answers or what the workloads are.
//!
//! The default-scale suite and the corpus take seconds in release and
//! most of a minute in a debug build, so they are ignored in the plain
//! `cargo test` run; CI runs them in release with `--include-ignored`.

use hli_lang::interp::run_program;
use hli_suite::corpus::{self, CorpusSpec};
use hli_suite::{Benchmark, Scale};

const GOLDEN: &str = include_str!("oracle_golden.txt");

/// The perfbench corpus of `BENCH_6.json`: seeds 1–3, 12 programs of 28
/// functions each, every other knob at its default.
const CORPUS_SEEDS: [u64; 3] = [1, 2, 3];
const CORPUS_PROGRAMS: usize = 12;
const CORPUS_FUNCS: usize = 28;

fn row(set: &str, b: &Benchmark) -> String {
    let (prog, sema) =
        hli_lang::compile_to_ast(&b.source).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let r = run_program(&prog, &sema).unwrap_or_else(|e| panic!("{}: {e}", b.name));
    let s = r.stats;
    format!(
        "{set} {} {} {:016x} {} {} {} {}",
        b.name, r.ret, r.global_checksum, s.steps, s.loads, s.stores, s.calls
    )
}

/// Run every program of `benches` and compare its row with the table's
/// rows for `set`, in order.
fn check(set: &str, benches: &[Benchmark]) {
    let actual: Vec<String> = benches.iter().map(|b| row(set, b)).collect();
    for line in &actual {
        println!("{line}");
    }
    let expected: Vec<&str> = GOLDEN.lines().filter(|l| l.split(' ').next() == Some(set)).collect();
    assert_eq!(
        actual.len(),
        expected.len(),
        "`{set}` has {} programs but the table has {} rows",
        actual.len(),
        expected.len()
    );
    for (a, e) in actual.iter().zip(&expected) {
        assert_eq!(a, e, "interpreter answer changed (left: now, right: table)");
    }
}

#[test]
fn suite_at_tiny_scale() {
    check("tiny", &hli_suite::all(Scale::tiny()));
}

#[test]
#[ignore = "seconds in release, most of a minute in debug; CI runs it in release"]
fn suite_at_default_scale() {
    check("default", &hli_suite::all(Scale::default()));
}

#[test]
#[ignore = "seconds in release, most of a minute in debug; CI runs it in release"]
fn bench6_corpus() {
    let benches: Vec<Benchmark> = CORPUS_SEEDS
        .iter()
        .flat_map(|&seed| {
            corpus::generate(&CorpusSpec {
                seed,
                programs: CORPUS_PROGRAMS,
                funcs: CORPUS_FUNCS,
                ..Default::default()
            })
        })
        .collect();
    check("corpus", &benches);
}
