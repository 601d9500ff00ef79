//! Component microbenches: every analysis and data-structure layer the
//! pipeline is built from.

use hli_analysis::affine::Affine;
use hli_analysis::deptest::siv_test;
use hli_bench::bench;
use hli_core::query::HliQuery;
use hli_suite::Scale;
use std::hint::black_box;

fn bench_parse_and_sema() {
    let b = hli_suite::by_name("141.apsi", Scale::tiny()).unwrap();
    bench("components/parse", || hli_lang::parse_program(&b.source).unwrap());
    let prog = hli_lang::parse_program(&b.source).unwrap();
    bench("components/sema", || hli_lang::analyze(&prog).unwrap());
}

fn bench_analyses() {
    let b = hli_suite::by_name("103.su2cor", Scale::tiny()).unwrap();
    let (prog, sema) = hli_lang::compile_to_ast(&b.source).unwrap();
    bench("components/points-to", || hli_analysis::pointsto::analyze(&prog, &sema));
    let pts = hli_analysis::pointsto::analyze(&prog, &sema);
    bench("components/refmod", || {
        hli_analysis::refmod::analyze(&prog, &sema, &pts)
    });
}

fn bench_deptest() {
    // Strong-SIV ladder on synthetic affine pairs.
    let pairs: Vec<(Affine, Affine)> = (0..64)
        .map(|k| {
            let f = Affine::var(0).scale(1 + k % 3).add(&Affine::constant(k));
            let g = Affine::var(0).scale(1 + k % 3).add(&Affine::constant(k - (k % 7)));
            (f, g)
        })
        .collect();
    bench("components/siv-test-64-pairs", || {
        for (f, g) in &pairs {
            black_box(siv_test(f, g, 0, Some(100)));
        }
    });
}

fn bench_query_throughput() {
    let p = hli_bench::prepare("102.swim", Scale::tiny());
    let entry = p.hli.entries.iter().max_by_key(|e| e.line_table.item_count()).unwrap();
    let items: Vec<_> = entry.line_table.items().map(|(_, it)| it.id).collect();
    bench("components/query-index-build", || HliQuery::new(entry));
    let q = HliQuery::new(entry);
    bench("components/get-equiv-acc-all-pairs", || {
        let mut yes = 0u32;
        for (i, &a) in items.iter().enumerate() {
            for &b in &items[i + 1..] {
                if q.get_equiv_acc(a, b).may_overlap() {
                    yes += 1;
                }
            }
        }
        yes
    });
}

fn bench_lowering() {
    let b = hli_suite::by_name("015.doduc", Scale::tiny()).unwrap();
    let (prog, sema) = hli_lang::compile_to_ast(&b.source).unwrap();
    bench("components/lowering", || {
        hli_backend::lower::lower_program(&prog, &sema)
    });
}

fn main() {
    bench_parse_and_sema();
    bench_analyses();
    bench_deptest();
    bench_query_throughput();
    bench_lowering();
}
