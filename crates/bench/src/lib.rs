//! # hli-bench — timing harness benchmarks
//!
//! One bench target per paper table plus component microbenches and
//! ablations (all plain `fn main()` programs, `harness = false`):
//!
//! * `table1` — HLI generation + serialization cost per benchmark (the
//!   front-end overhead behind Table 1's sizes);
//! * `table2` — the scheduling pipeline (map + DDG + list schedule) under
//!   GCC-only vs Combined dependence gating (Table 2's compile-time side);
//! * `components` — parser, sema, points-to, dependence tests, query
//!   throughput, mapping, machine-model replay;
//! * `ablations` — CSE with/without REF/MOD, LICM with/without HLI,
//!   unrolling factors with HLI maintenance, front-end precision knobs.
//!
//! The shared helpers here keep the bench targets small: [`prepare`] does
//! the common front-end work, [`bench()`] is a self-calibrating
//! wall-clock timer (run with `cargo bench`; results print as ns/iter).

use hli_backend::rtl::RtlProgram;
use hli_core::HliFile;
use hli_lang::ast::Program;
use hli_lang::sema::Sema;
use hli_obs::timing::{time, Samples};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A fully front-ended benchmark ready for back-end work.
pub struct Prepared {
    pub name: &'static str,
    pub prog: Program,
    pub sema: Sema,
    pub hli: HliFile,
    pub rtl: RtlProgram,
}

/// Compile a suite benchmark end to end (panics on error — bench setup).
pub fn prepare(name: &'static str, scale: hli_suite::Scale) -> Prepared {
    let b = hli_suite::by_name(name, scale).expect("known benchmark");
    let (prog, sema) = hli_lang::compile_to_ast(&b.source).expect("compiles");
    let hli = hli_frontend::generate_hli(&prog, &sema);
    let rtl = hli_backend::lower::lower_program(&prog, &sema);
    Prepared { name, prog, sema, hli, rtl }
}

/// Mute the observability layer for timing runs: spans off, so benches
/// measure the pipeline, not the instrumentation.
pub fn quiesce_observability() {
    hli_obs::trace::global().set_enabled(false);
}

/// Minimum measurement window per bench.
const TARGET: Duration = Duration::from_millis(200);

/// Time `f` until the window fills (with warmup), collecting one sample
/// per iteration, and print a `min/median/p95` line — a single mean hides
/// the scheduling outliers that dominate small kernels, min/median/p95
/// does not. Dependency-free stand-in for a bench harness.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    for _ in 0..2 {
        black_box(f());
    }
    let start = Instant::now();
    let mut samples = Samples::new();
    while samples.len() < 5 || (start.elapsed() < TARGET && samples.len() < 1_000_000) {
        let (r, d) = time(&mut f);
        black_box(r);
        samples.push(d);
    }
    println!("{name:<48} {}", samples.summary());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_at_least_five_iters() {
        let mut n = 0u64;
        bench("test/no-op", || {
            n += 1;
            n
        });
        assert!(n >= 5);
    }
}
