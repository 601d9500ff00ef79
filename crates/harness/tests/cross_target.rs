//! Cross-target differential suite (the MachineBackend contract, from the
//! outside).
//!
//! Retargeting the pipeline must change *timing only*. Every backend sees
//! the same source, the same HLI, and the same dependence answers; what a
//! target is allowed to change is which schedule wins and how many cycles
//! the two builds cost. These tests run the same benchmarks once per
//! target and assert both halves of that contract:
//!
//!  * functional half — the executed work is byte-identical: the exec
//!    oracle validates every build, the dynamic instruction count matches,
//!    and the Table-2 dependence-query counters match across all targets;
//!  * timing half — cycle totals are pairwise distinct (three genuinely
//!    different machine descriptions), ordered the way the
//!    microarchitectures predict, and the W4 speedup profile is measurably
//!    different from the MIPS pair.

use hli_frontend::FrontendOptions;
use hli_harness::{run_benchmark_on, BenchReport, ImportConfig};
use hli_machine::MachineBackend;
use hli_suite::{by_name, Scale};

const TARGETS: [&str; 3] = ["r4600", "r10000", "w4"];

/// Benchmarks covering the interesting shapes: branchy integer code
/// (`wc`), int with memory traffic (`129.compress`), FP loop nests
/// (`101.tomcatv`), and straight-line FP (`048.ora`).
const ROWS: [&str; 4] = ["wc", "129.compress", "101.tomcatv", "048.ora"];

fn run_on(bench: &str, target: &str) -> BenchReport {
    let b = by_name(bench, Scale::tiny()).expect("known benchmark row");
    let mach: &'static dyn MachineBackend =
        hli_machine::backend_by_name(target).expect("registered target");
    run_benchmark_on(&b, FrontendOptions::default(), ImportConfig, &[mach])
        .expect("pipeline runs on every target")
}

/// One run per (row, target); reports grouped by row in `TARGETS` order.
fn matrix() -> Vec<[BenchReport; 3]> {
    ROWS.iter().map(|row| TARGETS.map(|t| run_on(row, t))).collect()
}

#[test]
fn functional_results_are_identical_on_every_target() {
    for reports in matrix() {
        let base = &reports[0];
        for r in &reports {
            assert!(r.validated, "{}: exec oracle must validate on every target", r.name);
            assert_eq!(
                r.dyn_insns, base.dyn_insns,
                "{}: retargeting changed the executed instruction stream",
                r.name
            );
            assert_eq!(
                r.stats, base.stats,
                "{}: retargeting changed the dependence-query counters",
                r.name
            );
            assert_eq!(
                r.hli_bytes, base.hli_bytes,
                "{}: HLI encoding is machine-independent",
                r.name
            );
        }
    }
}

#[test]
fn cycle_counts_are_pairwise_distinct_across_targets() {
    for reports in matrix() {
        for (i, a) in reports.iter().enumerate() {
            for b in &reports[i + 1..] {
                let (ca, cb) = (a.machines[0], b.machines[0]);
                assert_ne!(
                    (ca.gcc, ca.hli),
                    (cb.gcc, cb.hli),
                    "{}: {} and {} priced the run identically — the backends are not \
                     genuinely different machine descriptions",
                    a.name,
                    ca.machine,
                    cb.machine
                );
            }
        }
    }
}

#[test]
fn cycle_totals_order_the_way_the_microarchitectures_predict() {
    // Out-of-order R10000 hides latencies it can; in-order 4-issue W4
    // beats single-issue R4600 on width but pays every exposed stall, so
    // raw cycles land strictly between the two MIPS models.
    for [r4600, r10000, w4] in matrix() {
        let name = &r4600.name;
        let g = |r: &BenchReport| r.machines[0].gcc;
        assert!(
            g(&r10000) < g(&w4) && g(&w4) < g(&r4600),
            "{name}: expected r10000 < w4 < r4600 gcc cycles, got {} / {} / {}",
            g(&r10000),
            g(&w4),
            g(&r4600)
        );
    }
}

#[test]
fn w4_rewards_scheduling_hardest_on_schedulable_fp_code() {
    // 101.tomcatv is the suite's most schedulable FP loop nest. An
    // in-order machine can't reorder around exposed latencies at run
    // time, so the HLI-informed schedule buys strictly more there than on
    // either MIPS model — the "measurably different speedup profile" the
    // W4 target exists to provide.
    let [r4600, r10000, w4] = ROWS
        .iter()
        .find(|r| **r == "101.tomcatv")
        .map(|r| TARGETS.map(|t| run_on(r, t)))
        .unwrap();
    let (s4600, s10000, sw4) = (
        r4600.speedup_on("r4600").unwrap(),
        r10000.speedup_on("r10000").unwrap(),
        w4.speedup_on("w4").unwrap(),
    );
    assert!(
        sw4 > s4600 && sw4 > s10000,
        "w4 speedup {sw4:.4} should exceed r4600 {s4600:.4} and r10000 {s10000:.4}"
    );
    // And it is a real win, not noise at the third decimal.
    assert!(
        sw4 > 1.10,
        "w4 tomcatv speedup {sw4:.4} should be a >10% win at tiny scale"
    );
}

#[test]
fn solo_target_reports_carry_exactly_that_machine() {
    for target in TARGETS {
        let r = run_on("wc", target);
        let names: Vec<&str> = r.machines.iter().map(|m| m.machine).collect();
        assert_eq!(names, vec![target]);
        for other in TARGETS.iter().filter(|t| **t != target) {
            assert!(r.cycles_on(other).is_none());
            assert!(r.speedup_on(other).is_none(), "absent machine has no speedup");
        }
    }
}
