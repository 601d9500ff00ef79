//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * Figure 4 — CSE across calls with vs without REF/MOD evidence
//!   (measures both compile time and how many loads survive);
//! * LICM with vs without HLI legality;
//! * Figure 6 — unrolling factors with full HLI maintenance;
//! * front-end precision knobs (array analysis, pointer analysis) against
//!   the Table-2 combined-yes count.

use hli_backend::cse::cse_function;
use hli_backend::ddg::DepMode;
use hli_backend::licm::licm_function;
use hli_backend::mapping::map_function;
use hli_backend::sched::schedule_program;
use hli_backend::unroll::unroll_function;
use hli_bench::bench;
use hli_frontend::FrontendOptions;
use hli_suite::Scale;

fn bench_cse_refmod() {
    let p = hli_bench::prepare("015.doduc", Scale::tiny());
    let f = p.rtl.func("main").unwrap();
    bench("ablations/cse/gcc-purge-all", || {
        cse_function(
            f,
            None,
            DepMode::GccOnly,
            hli_machine::backend_by_name("r4600").unwrap(),
        )
    });
    bench("ablations/cse/hli-refmod-purge", || {
        let mut entry = p.hli.entry("main").unwrap().clone();
        let mut map = map_function(f, &entry);
        cse_function(
            f,
            Some((&mut entry, &mut map)),
            DepMode::Combined,
            hli_machine::backend_by_name("r4600").unwrap(),
        )
    });
}

fn bench_licm() {
    let p = hli_bench::prepare("101.tomcatv", Scale::tiny());
    let f = p.rtl.func("residuals").unwrap();
    bench("ablations/licm/gcc", || {
        licm_function(
            f,
            None,
            DepMode::GccOnly,
            hli_machine::backend_by_name("r4600").unwrap(),
        )
    });
    bench("ablations/licm/hli", || {
        let mut entry = p.hli.entry("residuals").unwrap().clone();
        let mut map = map_function(f, &entry);
        licm_function(
            f,
            Some((&mut entry, &mut map)),
            DepMode::Combined,
            hli_machine::backend_by_name("r4600").unwrap(),
        )
    });
}

fn bench_unroll_factors() {
    let b = hli_suite::by_name("034.mdljdp2", Scale::tiny()).unwrap();
    let (prog, sema) = hli_lang::compile_to_ast(&b.source).unwrap();
    let (rtl, loops) = hli_backend::lower::lower_with_loops(&prog, &sema);
    let hli = hli_frontend::generate_hli(&prog, &sema);
    let f = rtl.func("init_md").unwrap();
    let metas = &loops["init_md"];
    assert!(!metas.is_empty(), "init_md has a constant-trip loop");
    for factor in [2u32, 4, 8] {
        bench(&format!("ablations/unroll/factor-{factor}"), || {
            let mut entry = hli.entry("init_md").unwrap().clone();
            let mut map = map_function(f, &entry);
            unroll_function(
                f,
                metas,
                factor,
                Some((&mut entry, &mut map)),
                hli_machine::backend_by_name("r4600").unwrap(),
            )
        });
    }
}

fn bench_frontend_precision() {
    let b = hli_suite::by_name("077.mdljsp2", Scale::tiny()).unwrap();
    let (prog, sema) = hli_lang::compile_to_ast(&b.source).unwrap();
    let rtl = hli_backend::lower::lower_program(&prog, &sema);
    let lat = hli_machine::backend_by_name("r4600").unwrap();
    let variants = [
        ("full", FrontendOptions::default()),
        (
            "no-array-analysis",
            FrontendOptions { array_analysis: false, ..Default::default() },
        ),
        (
            "no-pointer-analysis",
            FrontendOptions { pointer_analysis: false, ..Default::default() },
        ),
        (
            "no-refmod",
            FrontendOptions { refmod_analysis: false, ..Default::default() },
        ),
    ];
    for (label, opts) in variants {
        bench(&format!("ablations/frontend-precision/{label}"), || {
            let hli = hli_frontend::generate_hli_with(&prog, &sema, opts);
            let (_, stats) = schedule_program(&rtl, &hli, DepMode::Combined, lat);
            stats.combined_yes
        });
    }
}

fn main() {
    bench_cse_refmod();
    bench_licm();
    bench_unroll_factors();
    bench_frontend_precision();
}
