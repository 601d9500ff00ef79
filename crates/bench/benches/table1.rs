//! Table 1 bench: the front-end cost of producing the HLI (generation and
//! compact serialization) for representative int and fp benchmarks.

use hli_bench::bench;
use hli_core::serialize::{encode_file, SerializeOpts};
use hli_suite::Scale;

fn bench_hli_generation() {
    for name in ["129.compress", "102.swim", "034.mdljdp2"] {
        let b = hli_suite::by_name(name, Scale::tiny()).unwrap();
        let (prog, sema) = hli_lang::compile_to_ast(&b.source).unwrap();
        bench(&format!("table1/hli-generation/{name}"), || {
            hli_frontend::generate_hli(&prog, &sema)
        });
    }
}

fn bench_serialization() {
    for name in ["102.swim", "141.apsi"] {
        let p = hli_bench::prepare(name, Scale::tiny());
        bench(&format!("table1/serialization/{name}/encode"), || {
            encode_file(&p.hli, SerializeOpts::default())
        });
        let bytes = encode_file(&p.hli, SerializeOpts::default());
        bench(&format!("table1/serialization/{name}/decode"), || {
            hli_core::serialize::decode_file(&bytes, SerializeOpts::default()).unwrap()
        });
    }
}

fn bench_full_frontend() {
    let b = hli_suite::by_name("101.tomcatv", Scale::tiny()).unwrap();
    bench("table1/source-to-hli-bytes", || {
        let (prog, sema) = hli_lang::compile_to_ast(&b.source).unwrap();
        let hli = hli_frontend::generate_hli(&prog, &sema);
        encode_file(&hli, SerializeOpts::default()).len()
    });
}

fn main() {
    bench_hli_generation();
    bench_serialization();
    bench_full_frontend();
}
