//! Data dependence graph construction for the instruction scheduler.
//!
//! This pass is the instrumented decision point of the paper's Table 2:
//! for every pair of memory references in a basic block with at least one
//! write, a *dependence query* is made ("do A and B refer to the same
//! memory location?"), and every call ↔ memory pair asks the call's
//! REF/MOD entry. Both go to the function's [`MemDisambiguator`], which
//! counts Table 2's columns and applies the Figure-5 combiner; this module
//! turns its verdicts into edges and `sched.pair`/`sched.call` records.

use crate::cfg::Block;
use crate::disamb::{Access, MemDisambiguator};
pub use crate::disamb::{DepMode, QueryStats};
use crate::rtl::RtlFunc;

/// The dependence graph of one basic block, over the block's schedulable
/// instruction positions.
#[derive(Debug, Clone)]
pub struct Ddg {
    /// Function-relative instruction indices of the nodes.
    pub nodes: Vec<usize>,
    /// `preds[k]` = node positions (indices into `nodes`) that must execute
    /// before node `k`.
    pub preds: Vec<Vec<usize>>,
    /// Inverse of `preds`.
    pub succs: Vec<Vec<usize>>,
    /// Number of memory-dependence edges (for reporting).
    pub mem_edges: usize,
    /// Causal span id covering this block's DDG construction: every
    /// `sched.pair`/`sched.call` record made while building it and the
    /// block's eventual `sched.block` record cite the same id, linking
    /// the dependence answers to the schedule they enabled. 0 when
    /// provenance is off.
    pub span: u64,
}

impl Ddg {
    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.preds.iter().map(|p| p.len()).sum()
    }
}

/// Build the dependence graph of one block, asking `disamb` every memory and
/// call question (it accumulates Table 2's counters).
pub fn build_block_ddg(f: &RtlFunc, block: &Block, disamb: &mut MemDisambiguator<'_>) -> Ddg {
    let nodes: Vec<usize> = crate::cfg::schedulable(f, block);
    let n = nodes.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut mem_edges = 0usize;

    let add_edge =
        |from: usize, to: usize, preds: &mut Vec<Vec<usize>>, succs: &mut Vec<Vec<usize>>| {
            if !preds[to].contains(&from) {
                preds[to].push(from);
                succs[from].push(to);
            }
        };

    // Register dependences.
    use std::collections::HashMap;
    let mut last_def: HashMap<u32, usize> = HashMap::new();
    let mut uses_since_def: HashMap<u32, Vec<usize>> = HashMap::new();
    for (k, &idx) in nodes.iter().enumerate() {
        let op = &f.insns[idx].op;
        for u in op.uses() {
            if let Some(&d) = last_def.get(&u) {
                add_edge(d, k, &mut preds, &mut succs); // RAW
            }
            uses_since_def.entry(u).or_default().push(k);
        }
        if let Some(d) = op.def() {
            if let Some(&pd) = last_def.get(&d) {
                add_edge(pd, k, &mut preds, &mut succs); // WAW
            }
            if let Some(us) = uses_since_def.get(&d) {
                for &u in us {
                    if u != k {
                        add_edge(u, k, &mut preds, &mut succs); // WAR
                    }
                }
            }
            last_def.insert(d, k);
            uses_since_def.insert(d, Vec::new());
        }
    }

    // Memory and call dependences.
    let prov = hli_obs::provenance::active();
    // One causal span per block DDG. Allocated whenever provenance is on
    // (not only when records end up written) so the id stream — shared
    // with query ids — is identical across `--jobs` values.
    let span = if prov.is_some() {
        hli_obs::provenance::next_span_id()
    } else {
        0
    };
    // Records are written only when HLI answered: a decision without HLI
    // cites nothing. `Applied` means no edge was needed (the scheduler may
    // reorder; the Figure-5 hoist when one side is a call), `blocked`
    // says why the edge stays. `mem_idx` gives the record's region and
    // line, `mark` the queries this one decision consumed.
    let sink = prov.as_deref().filter(|_| disamb.has_hli());
    let record = |sink: &hli_obs::ProvenanceSink,
                  disamb: &MemDisambiguator<'_>,
                  pass: &str,
                  mem_idx: usize,
                  mark: usize,
                  blocked: Option<String>| {
        sink.record(hli_obs::DecisionRecord {
            pass: pass.to_string(),
            function: f.name.clone(),
            region_id: disamb.region(disamb.item(f.insns[mem_idx].id)),
            order: f.insns[mem_idx].line,
            span,
            // Pair/call answers have no per-decision cycle estimate of
            // their own: their benefit materializes in the block's
            // `sched.block` record, which shares this span.
            est_cycles: 0,
            hli_queries: disamb.queries_since(mark),
            verdict: match blocked {
                Some(reason) => hli_obs::Verdict::Blocked { reason },
                None => hli_obs::Verdict::Applied,
            },
        });
    };
    for k in 0..n {
        let ik = &f.insns[nodes[k]];
        let k_mem = ik.op.mem_ref();
        let k_call = ik.op.is_call();
        if k_mem.is_none() && !k_call {
            continue;
        }
        for j in 0..k {
            let ij = &f.insns[nodes[j]];
            let j_call = ij.op.is_call();
            let dep = match (ij.op.mem_ref(), j_call, k_mem, k_call) {
                (Some(a), _, Some(b), _) => {
                    if !(ij.op.is_store() || ik.op.is_store()) {
                        continue; // read-read: no query, no edge
                    }
                    let mark = disamb.mark();
                    let ans = disamb.pair(
                        Access { mem: *a, item: disamb.item(ij.id) },
                        Access { mem: *b, item: disamb.item(ik.id) },
                    );
                    if let Some(sink) = sink {
                        let why = ans
                            .conflict
                            .then(|| format!("reorder blocked: gcc={} hli={}", ans.gcc, ans.hli));
                        record(sink, disamb, "sched.pair", nodes[k], mark, why);
                    }
                    ans.conflict
                }
                (_, true, _, true) => true, // calls stay ordered
                (Some(_), _, _, true) | (_, true, Some(_), _) => {
                    let (mem_idx, call_idx) = if j_call {
                        (nodes[k], nodes[j])
                    } else {
                        (nodes[j], nodes[k])
                    };
                    let (mem, call) = (&f.insns[mem_idx], &f.insns[call_idx]);
                    let mark = disamb.mark();
                    let dep =
                        disamb.call(disamb.item(mem.id), disamb.item(call.id), mem.op.is_store());
                    if let Some(sink) = sink {
                        let why = dep.then(|| "call may touch location (REF/MOD)".to_string());
                        record(sink, disamb, "sched.call", mem_idx, mark, why);
                    }
                    dep
                }
                _ => continue,
            };
            if dep {
                add_edge(j, k, &mut preds, &mut succs);
                mem_edges += 1;
            }
        }
    }

    let reg = hli_obs::metrics::cur();
    reg.counter("backend.ddg.blocks").inc();
    reg.counter("backend.ddg.mem_edges").add(mem_edges as u64);

    Ddg { nodes, preds, succs, mem_edges, span }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::blocks;
    use crate::disamb::HliSide;
    use crate::lower::lower_program;
    use crate::mapping::map_function;
    use hli_frontend::generate_hli;
    use hli_lang::compile_to_ast;

    fn stats_for(src: &str, func: &str, mode: DepMode) -> (QueryStats, usize) {
        let (p, s) = compile_to_ast(src).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        let f = prog.func(func).unwrap();
        let entry = hli.entry(func).unwrap();
        let cache = hli_core::QueryCache::new();
        let q = cache.attach(entry);
        let map = map_function(f, entry);
        let mut disamb = MemDisambiguator::new(Some(HliSide { query: &q, map: &map }), mode);
        let mut edges = 0;
        for b in blocks(f) {
            edges += build_block_ddg(f, &b, &mut disamb).mem_edges;
        }
        (disamb.stats, edges)
    }

    #[test]
    fn hli_disambiguates_distinct_arrays() {
        // Stores to a[] and loads from b[] — GCC disambiguates by symbol
        // already; make it pointer-based so GCC fails and HLI succeeds.
        let src = "double x[64]; double y[64];\n\
             void axpy(double *p, double *q) {\n\
               int i;\n\
               for (i = 0; i < 64; i++) p[i] = p[i] + q[i];\n\
             }\n\
             int main() { axpy(x, y); return 0; }";
        let (stats, _) = stats_for(src, "axpy", DepMode::Combined);
        assert!(stats.total_tests > 0);
        assert!(
            stats.hli_yes < stats.gcc_yes,
            "HLI must beat GCC on pointer accesses: {stats:?}"
        );
        assert!(stats.combined_yes <= stats.hli_yes.min(stats.gcc_yes));
    }

    #[test]
    fn reduction_matches_definition() {
        let src = "double x[64]; double y[64];\n\
             void axpy(double *p, double *q) {\n\
               int i;\n\
               for (i = 0; i < 64; i++) p[i] = p[i] + q[i];\n\
             }\n\
             int main() { axpy(x, y); return 0; }";
        let (stats, _) = stats_for(src, "axpy", DepMode::Combined);
        let expect = 1.0 - stats.combined_yes as f64 / stats.gcc_yes as f64;
        assert!((stats.reduction() - expect).abs() < 1e-12);
    }

    #[test]
    fn same_location_keeps_edge_in_all_modes() {
        let src = "int g;\nint main() { g = 1; g = g + 1; return g; }";
        for mode in [DepMode::GccOnly, DepMode::HliOnly, DepMode::Combined] {
            let (_, edges) = stats_for(src, "main", mode);
            assert!(edges > 0, "store/load of g must stay ordered in {mode:?}");
        }
    }

    #[test]
    fn gcc_only_mode_counts_but_keeps_gcc_edges() {
        let src = "int a[8]; int b[8];\nint main() { int i; for (i=0;i<8;i++) { a[i] = 1; b[i] = a[i]; } return 0; }";
        let (stats, _) = stats_for(src, "main", DepMode::GccOnly);
        // Counters accumulate regardless of mode.
        assert!(stats.total_tests > 0);
        assert!(stats.gcc_yes >= stats.combined_yes);
    }

    #[test]
    fn call_edges_respect_refmod() {
        // `pure_g` touches only g; stores to h around the call must not
        // depend on it under HLI.
        let src = "int g; int h;\n\
             int pure_g() { return g; }\n\
             int main() {\n h = 1; h = pure_g() + h; return h;\n}";
        let (p, s) = compile_to_ast(src).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap();
        let entry = hli.entry("main").unwrap();
        let cache = hli_core::QueryCache::new();
        let q = cache.attach(entry);
        let map = map_function(f, entry);
        let side = HliSide { query: &q, map: &map };
        let mut d_gcc = MemDisambiguator::new(Some(side), DepMode::GccOnly);
        let mut d_hli = MemDisambiguator::new(Some(side), DepMode::Combined);
        let mut gcc_edges = 0;
        let mut hli_edges = 0;
        for b in blocks(f) {
            gcc_edges += build_block_ddg(f, &b, &mut d_gcc).mem_edges;
            hli_edges += build_block_ddg(f, &b, &mut d_hli).mem_edges;
        }
        assert!(
            hli_edges < gcc_edges,
            "REF/MOD must relax call ordering: gcc {gcc_edges} vs hli {hli_edges}"
        );
        assert!(d_hli.stats.call_queries > 0);
    }

    #[test]
    fn call_on_loop_line_keeps_mod_edge() {
        // Regression: when a loop and the statements after its closing brace
        // share one source line, the call's owning region must come from the
        // REF/MOD naming, not the line scope — otherwise `get_call_acc`
        // matches the loop's SubRegion summary (f1: reads g0 only) for f2
        // and the scheduler hoists the g1 load across the call.
        let src = "int g0; int g1;\n\
             int f1(int a) { return a + g0; }\n\
             void f2() { g1 = g1 + 1; }\n\
             int main() {\n\
             int i; int x;\n\
             x = 1;\n\
             for (i = 0; i < 1; i++) { g0 = f1(x); } f2(); g1 += x;\n\
             return g1;\n\
             }";
        let (p, s) = compile_to_ast(src).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap();
        let entry = hli.entry("main").unwrap();
        let cache = hli_core::QueryCache::new();
        let q = cache.attach(entry);
        let map = map_function(f, entry);
        let mut disamb =
            MemDisambiguator::new(Some(HliSide { query: &q, map: &map }), DepMode::HliOnly);
        for b in blocks(f) {
            let g = build_block_ddg(f, &b, &mut disamb);
            let call_pos = g.nodes.iter().position(
                |&i| matches!(&f.insns[i].op, crate::rtl::Op::Call { func, .. } if func == "f2"),
            );
            let Some(cp) = call_pos else { continue };
            let load_pos = g.nodes.iter().position(|&i| {
                i > g.nodes[cp] && matches!(&f.insns[i].op, crate::rtl::Op::Load(..))
            });
            let lp = load_pos.expect("a g1 load follows the f2 call");
            assert!(
                g.preds[lp].contains(&cp),
                "f2 modifies g1; the load must stay ordered after the call"
            );
            return;
        }
        panic!("no block contains the f2 call");
    }

    #[test]
    fn ddg_is_acyclic_and_respects_program_order() {
        let src =
            "int a[8];\nint main() { int i; for (i=1;i<8;i++) a[i] = a[i-1] + 1; return a[7]; }";
        let (p, s) = compile_to_ast(src).unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap();
        let mut disamb = MemDisambiguator::new(None, DepMode::GccOnly);
        for b in blocks(f) {
            let g = build_block_ddg(f, &b, &mut disamb);
            for (k, ps) in g.preds.iter().enumerate() {
                for &pp in ps {
                    assert!(pp < k, "edges point forward only");
                }
            }
        }
    }
}
