//! Scheduler speedup demo: the paper's Section 4.3 experiment on one
//! kernel, end to end, with per-machine cycle breakdowns.
//!
//! ```text
//! cargo run --release -p hli-harness --example scheduler_speedup [benchmark]
//! ```
//!
//! Default benchmark: `077.mdljsp2` (the paper's biggest R10000 winner).

use hli_backend::ddg::DepMode;
use hli_backend::lower::lower_program;
use hli_backend::sched::schedule_program;
use hli_frontend::generate_hli;
use hli_lang::compile_to_ast;
use hli_machine::{MachineBackend, R10000Config, R4600Config};
use hli_suite::Scale;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "077.mdljsp2".into());
    let Some(b) = hli_suite::by_name(&name, Scale::default()) else {
        eprintln!("unknown benchmark `{name}`");
        std::process::exit(1);
    };
    println!("benchmark: {} ({})", b.name, b.suite);

    let (prog, sema) = compile_to_ast(&b.source).unwrap();
    let oracle = hli_lang::interp::run_program(&prog, &sema).unwrap();
    let hli = generate_hli(&prog, &sema);
    let rtl = lower_program(&prog, &sema);
    let lat = hli_machine::backend_by_name("r4600").unwrap();

    let (gcc_build, _) = schedule_program(&rtl, &hli, DepMode::GccOnly, lat);
    let (hli_build, stats) = schedule_program(&rtl, &hli, DepMode::Combined, lat);
    println!(
        "dependence queries {} | GCC yes {} | HLI yes {} | combined {} | reduction {:.0}%",
        stats.total_tests,
        stats.gcc_yes,
        stats.hli_yes,
        stats.combined_yes,
        stats.reduction() * 100.0
    );

    let machs: [&dyn MachineBackend; 2] = [&R4600Config::DEFAULT, &R10000Config::DEFAULT];
    let (gr, gt) = hli_machine::time_on(&gcc_build, &machs).unwrap();
    let (hr, ht) = hli_machine::time_on(&hli_build, &machs).unwrap();
    assert_eq!(gr.ret, oracle.ret);
    assert_eq!(hr.ret, oracle.ret);
    println!("both builds validated against the interpreter (result {})", oracle.ret);
    println!("dynamic instructions: {}", gr.dyn_insns);

    let (g4, h4) = (&gt[0].0, &ht[0].0);
    let stalls = |s: &hli_machine::MachStats, k| s.detail(k).unwrap_or(0);
    println!(
        "R4600 : GCC {:>9} cycles ({} stall) | HLI {:>9} cycles ({} stall) | speedup {:.3}",
        g4.cycles,
        stalls(g4, "stall_cycles"),
        h4.cycles,
        stalls(h4, "stall_cycles"),
        g4.cycles as f64 / h4.cycles as f64
    );
    let (g10, h10) = (&gt[1].0, &ht[1].0);
    println!(
        "R10000: GCC {:>9} cycles ({} LSQ stalls) | HLI {:>9} cycles ({} LSQ stalls) | speedup {:.3}",
        g10.cycles,
        stalls(g10, "lsq_stalls"),
        h10.cycles,
        stalls(h10, "lsq_stalls"),
        g10.cycles as f64 / h10.cycles as f64
    );
    println!(
        "\npaper's mechanism: HLI lets the scheduler move loads above stores it can prove\n\
         independent; the R10000's load/store queue then issues them without waiting\n\
         (LSQ stall delta above is exactly that effect)."
    );
}
