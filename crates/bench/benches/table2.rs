//! Table 2 bench: the back-end pipeline the paper instruments — item
//! mapping, DDG construction with dependence queries, and basic-block list
//! scheduling — compared with GCC-only vs Combined (Figure 5) gating, plus
//! machine-model replay throughput.

use hli_backend::ddg::DepMode;
use hli_backend::sched::schedule_program;
use hli_bench::bench;
use hli_suite::Scale;

fn bench_schedule_modes() {
    for name in ["034.mdljdp2", "102.swim"] {
        let p = hli_bench::prepare(name, Scale::tiny());
        let lat = hli_machine::backend_by_name("r4600").unwrap();
        for (label, mode) in [("gcc", DepMode::GccOnly), ("combined", DepMode::Combined)] {
            bench(&format!("table2/schedule/{name}/{label}"), || {
                schedule_program(&p.rtl, &p.hli, mode, lat)
            });
        }
    }
}

fn bench_mapping() {
    let p = hli_bench::prepare("102.swim", Scale::tiny());
    bench("table2/map-all-functions", || {
        for f in &p.rtl.funcs {
            if let Some(e) = p.hli.entry(&f.name) {
                std::hint::black_box(hli_backend::mapping::map_function(f, e));
            }
        }
    });
}

fn bench_machines() {
    let p = hli_bench::prepare("129.compress", Scale::tiny());
    let (sched, _) = schedule_program(
        &p.rtl,
        &p.hli,
        DepMode::Combined,
        hli_machine::backend_by_name("r4600").unwrap(),
    );
    let (_, trace, _) = hli_machine::execute_with_func_trace(&sched).unwrap();
    println!("table2/machines: replaying {} dynamic insns", trace.len());
    for mach in hli_machine::all_backends() {
        bench(&format!("table2/machines/{}-replay", mach.name()), || {
            mach.cycles(&trace)
        });
    }
    bench("table2/machines/time-on-r4600-r10000", || {
        hli_machine::time_on(&sched, &hli_harness::default_machines()).unwrap()
    });
    bench("table2/machines/functional-execute", || {
        hli_machine::execute(&sched).unwrap()
    });
}

fn main() {
    bench_schedule_modes();
    bench_mapping();
    bench_machines();
}
