//! Quickstart: the whole HLI round trip on a small program.
//!
//! ```text
//! cargo run --release -p hli-harness --example quickstart
//! ```
//!
//! Pipeline: MiniC source → front-end analyses → HLI file → RTL lowering →
//! item↔instruction mapping → dependence queries (GCC vs HLI vs Figure-5
//! combined) → basic-block scheduling → machine-model timing.

use hli_backend::ddg::DepMode;
use hli_backend::lower::lower_program;
use hli_backend::mapping::map_function;
use hli_backend::sched::schedule_program;
use hli_core::query::HliQuery;
use hli_core::serialize::{encode_file, SerializeOpts};
use hli_frontend::generate_hli;
use hli_lang::compile_to_ast;
use hli_machine::{MachineBackend, R10000Config, R4600Config};

const SRC: &str = "double xs[256]; double ys[256];
void saxpy(double *x, double *y, double a, int n) {
    int i;
    for (i = 0; i < n; i++) {
        y[i] = y[i] + a * x[i];
    }
}
int main() {
    int i;
    for (i = 0; i < 256; i++) { xs[i] = i; ys[i] = 256 - i; }
    saxpy(xs, ys, 3.0, 256);
    return ys[10];
}
";

fn main() {
    // 1. Front end: parse, analyze, build the HLI.
    let (prog, sema) = compile_to_ast(SRC).expect("valid MiniC");
    let hli = generate_hli(&prog, &sema);
    let bytes = encode_file(&hli, SerializeOpts::default());
    println!(
        "HLI generated: {} program units, {} bytes serialized",
        hli.entries.len(),
        bytes.len()
    );

    // 2. Ask the paper's Figure-5 question for saxpy's loop body:
    //    may `x[i]` (load) and `y[i]` (store) touch the same location?
    let entry = hli.entry("saxpy").unwrap();
    let q = HliQuery::new(entry);
    let line = entry.line_table.lines.iter().find(|l| l.items.len() >= 3).unwrap();
    let (y_load, x_load, y_store) = (line.items[0].id, line.items[1].id, line.items[2].id);
    println!(
        "HLI_GetEquivAcc(y[i] load, y[i] store) = {:?}   (same element)",
        q.get_equiv_acc(y_load, y_store)
    );
    println!(
        "HLI_GetEquivAcc(x[i] load, y[i] store) = {:?}   (points-to proves disjoint)",
        q.get_equiv_acc(x_load, y_store)
    );

    // 3. Back end: lower, map, schedule both ways.
    let rtl = lower_program(&prog, &sema);
    let f = rtl.func("saxpy").unwrap();
    let map = map_function(f, entry);
    println!(
        "mapping: {} items bound, {} unmapped",
        map.insn_to_item.len(),
        map.unmapped_insns.len()
    );
    let lat = hli_machine::backend_by_name("r4600").unwrap();
    let (gcc_build, _) = schedule_program(&rtl, &hli, DepMode::GccOnly, lat);
    let (hli_build, stats) = schedule_program(&rtl, &hli, DepMode::Combined, lat);
    println!(
        "dependence queries: {} total, GCC yes {}, HLI yes {}, combined {} (reduction {:.0}%)",
        stats.total_tests,
        stats.gcc_yes,
        stats.hli_yes,
        stats.combined_yes,
        stats.reduction() * 100.0
    );

    // 4. Machines: identical results, different cycles.
    let machs: [&dyn MachineBackend; 2] = [&R4600Config::DEFAULT, &R10000Config::DEFAULT];
    let (gr, gt) = hli_machine::time_on(&gcc_build, &machs).unwrap();
    let (hr, ht) = hli_machine::time_on(&hli_build, &machs).unwrap();
    assert_eq!(gr.ret, hr.ret, "schedules must agree");
    println!("program result: {} (both builds agree)", gr.ret);
    let (g4, h4) = (gt[0].0.cycles, ht[0].0.cycles);
    let (g10, h10) = (gt[1].0.cycles, ht[1].0.cycles);
    println!(
        "R4600 : GCC {g4} cycles, HLI {h4} cycles (speedup {:.3})",
        g4 as f64 / h4 as f64
    );
    println!(
        "R10000: GCC {g10} cycles, HLI {h10} cycles (speedup {:.3})",
        g10 as f64 / h10 as f64
    );
}
