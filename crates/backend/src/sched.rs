//! Basic-block list scheduling.
//!
//! The paper's performance experiment (Table 2's speedup columns) compiles
//! each benchmark twice — dependence edges from GCC alone vs. gated by HLI
//! (Figure 5) — and lets the scheduler reorder within basic blocks. This
//! module is that scheduler: classic latency-weighted critical-path list
//! scheduling over the [`crate::ddg`] graph. Labels stay at block starts,
//! control transfers stay at block ends, and instruction *ids* are
//! preserved so the HLI mapping survives scheduling.
//!
//! Latencies and issue width come from the active
//! [`hli_lir::MachineBackend`] — the scheduler owns **no** latency table
//! of its own (it used to, and the hand-copy drifted from the machine
//! models; the latency-agreement test in `hli-machine` pins that this
//! cannot recur). Ops are priced through the canonical LIR
//! ([`crate::lir::lir_function`]), and makespans are modeled at the
//! target's issue width.

use crate::cfg::{blocks, Block};
use crate::ddg::build_block_ddg;
use crate::disamb::{DepMode, HliSide, MemDisambiguator, QueryStats};
use crate::lir::lir_function;
use crate::rtl::{Insn, Op, RtlFunc};
use hli_lir::{LirFunc, MachineBackend};

/// Result of scheduling one function.
#[derive(Debug, Clone)]
pub struct SchedResult {
    pub func: RtlFunc,
    pub stats: QueryStats,
    /// Blocks whose instruction order actually changed.
    pub blocks_changed: usize,
    pub blocks_total: usize,
}

/// Schedule every basic block of `f` for the target `mach`. `hli` supplies
/// the mapping/query side when `mode` uses HLI answers; pass `None` for
/// the pure-GCC build (the counters then still see GCC results but HLI
/// columns count conservative answers).
pub fn schedule_function(
    f: &RtlFunc,
    hli: Option<&HliSide<'_>>,
    mode: DepMode,
    mach: &dyn MachineBackend,
) -> SchedResult {
    let reg = hli_obs::metrics::cur();
    let ready_hist = reg.histogram("backend.sched.ready_list");
    let prov = hli_obs::provenance::active();
    let mut disamb = MemDisambiguator::new(hli.copied(), mode);
    let mut new_insns: Vec<Insn> = Vec::with_capacity(f.insns.len());
    let mut blocks_changed = 0;
    let lir = lir_function(f);
    let bs = blocks(f);
    let blocks_total = bs.len();
    for b in &bs {
        let (order, span, est_cycles) = schedule_block(f, &lir, b, &mut disamb, mach, &ready_hist);
        let mut emitted: Vec<Insn> = Vec::with_capacity(b.len());
        // Leading labels.
        let mut i = b.start;
        while i < b.end {
            if matches!(f.insns[i].op, Op::Label(_)) {
                emitted.push(f.insns[i].clone());
                i += 1;
            } else {
                break;
            }
        }
        for &idx in &order {
            emitted.push(f.insns[idx].clone());
        }
        // Trailing control (terminator) and any interior labels (none by
        // construction, but keep whatever schedulable() excluded).
        for j in i..b.end {
            if f.insns[j].op.is_control() && !matches!(f.insns[j].op, Op::Label(_)) {
                emitted.push(f.insns[j].clone());
            }
        }
        debug_assert_eq!(emitted.len(), b.len(), "block size preserved");
        let changed = emitted.iter().zip(&f.insns[b.range()]).any(|(a, b)| a.id != b.id);
        if changed {
            blocks_changed += 1;
            // Block-level outcome record: the per-pair sched.pair/sched.call
            // records say which reorders the DDG *permitted*; this one says
            // the block's issue order actually changed. Only HLI-gated modes
            // record it — a GccOnly reorder is not an HLI-justified decision.
            if let (Some(sink), true, Some(_)) = (prov.as_deref(), mode != DepMode::GccOnly, hli) {
                sink.record(hli_obs::DecisionRecord {
                    pass: "sched.block".into(),
                    function: f.name.clone(),
                    region_id: None,
                    order: f.insns[b.start].line,
                    // Same span as every sched.pair/sched.call record made
                    // while building this block's DDG: the emitted schedule
                    // is causally downstream of those answers.
                    span,
                    // Estimated benefit: original-program-order makespan
                    // minus scheduled makespan under the same DDG and the
                    // active machine's latency table (DESIGN.md,
                    // "Estimated-benefit models").
                    est_cycles,
                    hli_queries: Vec::new(),
                    verdict: hli_obs::Verdict::Applied,
                });
            }
        }
        new_insns.extend(emitted);
    }
    let mut func = f.clone();
    func.insns = new_insns;
    // Mirror the Table-2 counters (and scheduler effect totals) into the
    // registry; `stats` itself remains the harness's unit of aggregation.
    let stats = disamb.stats;
    stats.record(&reg);
    reg.counter("backend.sched.funcs").inc();
    reg.counter("backend.sched.blocks_total").add(blocks_total as u64);
    reg.counter("backend.sched.blocks_changed").add(blocks_changed as u64);
    SchedResult { func, stats, blocks_changed, blocks_total }
}

/// List-schedule one block; returns function-relative indices in issue
/// order, the block's causal span id, and the estimated cycle benefit
/// (program-order makespan minus scheduled makespan; 0 when provenance is
/// off — the estimate only feeds `sched.block` records).
fn schedule_block(
    f: &RtlFunc,
    lir: &LirFunc,
    b: &Block,
    disamb: &mut MemDisambiguator<'_>,
    mach: &dyn MachineBackend,
    ready_hist: &hli_obs::Histogram,
) -> (Vec<usize>, u64, u64) {
    let g = build_block_ddg(f, b, disamb);
    let n = g.nodes.len();
    if n == 0 {
        return (Vec::new(), g.span, 0);
    }
    let width = mach.schedule_constraints().issue_width.max(1) as u64;
    let lat = |k: usize| mach.latency(&lir.ops[g.nodes[k]]);
    // Priority: latency-weighted height (critical path to a sink).
    let mut height = vec![0u64; n];
    for k in (0..n).rev() {
        let best_succ = g.succs[k].iter().map(|&s| height[s]).max().unwrap_or(0);
        height[k] = lat(k) + best_succ;
    }
    let mut remaining_preds: Vec<usize> = g.preds.iter().map(|p| p.len()).collect();
    let mut ready: Vec<usize> = (0..n).filter(|&k| remaining_preds[k] == 0).collect();
    let mut finish = vec![0u64; n];
    let mut order = Vec::with_capacity(n);
    let mut scheduled = vec![false; n];
    let mut time: u64 = 0;
    let mut issued: u64 = 0;
    while order.len() < n {
        ready_hist.observe(ready.len() as u64);
        // Earliest start per ready node.
        let earliest =
            |k: usize| -> u64 { g.preds[k].iter().map(|&p| finish[p]).max().unwrap_or(0) };
        // Prefer nodes startable in the current cycle, by height then
        // program order — while the cycle has free issue slots.
        let pick = if issued < width {
            ready
                .iter()
                .copied()
                .filter(|&k| earliest(k) <= time)
                .max_by_key(|&k| (height[k], std::cmp::Reverse(k)))
        } else {
            None
        };
        match pick {
            Some(k) => {
                finish[k] = time + lat(k);
                issued += 1;
                scheduled[k] = true;
                ready.retain(|&r| r != k);
                order.push(g.nodes[k]);
                for &s in &g.succs[k] {
                    remaining_preds[s] -= 1;
                    if remaining_preds[s] == 0 && !scheduled[s] {
                        ready.push(s);
                    }
                }
            }
            None => {
                // Advance the clock: to the next cycle when this one is
                // merely full, or straight to the first cycle anything
                // becomes startable when nothing is.
                let soonest = ready.iter().copied().map(earliest).min().unwrap_or(0);
                time = if soonest > time {
                    soonest.max(time + 1)
                } else {
                    time + 1
                };
                issued = 0;
            }
        }
    }
    // Estimated benefit for the block's provenance record: what the same
    // DDG + latency table predict program order would have cost, minus
    // what the chosen schedule costs. Only computed when a record could be
    // written (g.span != 0 ⇔ provenance on).
    let est = if g.span != 0 {
        let sched_makespan = finish.iter().copied().max().unwrap_or(0);
        makespan(lir, &g, mach, &(0..n).collect::<Vec<_>>()).saturating_sub(sched_makespan)
    } else {
        0
    };
    (order, g.span, est)
}

/// Makespan of issuing the block's nodes in `seq` order (node positions),
/// up to the target's issue width per cycle, operands ready at their
/// producers' finish times — the same timing rule the list scheduler
/// itself uses.
fn makespan(lir: &LirFunc, g: &crate::ddg::Ddg, mach: &dyn MachineBackend, seq: &[usize]) -> u64 {
    let width = mach.schedule_constraints().issue_width.max(1) as u64;
    let mut finish = vec![0u64; g.nodes.len()];
    let mut time: u64 = 0;
    let mut issued: u64 = 0;
    let mut span = 0u64;
    for &k in seq {
        let earliest = g.preds[k].iter().map(|&p| finish[p]).max().unwrap_or(0);
        if issued >= width {
            time += 1;
            issued = 0;
        }
        if earliest > time {
            time = earliest;
            issued = 0;
        }
        finish[k] = time + mach.latency(&lir.ops[g.nodes[k]]);
        issued += 1;
        span = span.max(finish[k]);
    }
    span
}

/// Schedule every function of a program against its HLI file: one
/// [`crate::driver::schedule_program_passes`] pass at `jobs` 1, so each
/// unit crosses the same trust boundary as every other path. Returns the
/// scheduled program and the aggregated Table-2 query counters.
pub fn schedule_program(
    prog: &crate::rtl::RtlProgram,
    hli: &hli_core::HliFile,
    mode: DepMode,
    mach: &dyn MachineBackend,
) -> (crate::rtl::RtlProgram, QueryStats) {
    let lookup = |n: &str| hli.entry(n).map(hli_core::image::EntryRef::Owned);
    let pass = crate::driver::PassSpec { mode, caches: None };
    crate::driver::schedule_program_passes(prog, &lookup, &[pass], mach, 1)
        .pop()
        .expect("one result per pass")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use crate::mapping::map_function;
    use crate::rtl::IBinOp;
    use hli_core::HliQuery;
    use hli_frontend::generate_hli;
    use hli_lang::compile_to_ast;
    use hli_lir::TableBackend;

    fn sched(src: &str, func: &str, mode: DepMode) -> (RtlFunc, RtlFunc, QueryStats) {
        let (p, s) = compile_to_ast(src).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        let f = prog.func(func).unwrap();
        let entry = hli.entry(func).unwrap();
        let q = HliQuery::new(entry);
        let map = map_function(f, entry);
        let side = HliSide { query: &q, map: &map };
        let r = schedule_function(f, Some(&side), mode, &TableBackend::scalar());
        (f.clone(), r.func, r.stats)
    }

    /// Verify the schedule is a permutation preserving all DDG edges.
    fn assert_legal(orig: &RtlFunc, new: &RtlFunc, mode: DepMode) {
        assert_eq!(orig.insns.len(), new.insns.len());
        let mut ids: Vec<u32> = new.insns.iter().map(|i| i.id).collect();
        ids.sort_unstable();
        let mut orig_ids: Vec<u32> = orig.insns.iter().map(|i| i.id).collect();
        orig_ids.sort_unstable();
        assert_eq!(ids, orig_ids, "permutation of the same instructions");
        // Rebuild the DDG on the original order and check the new order
        // respects every edge.
        let pos: std::collections::HashMap<u32, usize> =
            new.insns.iter().enumerate().map(|(i, insn)| (insn.id, i)).collect();
        let mut disamb = MemDisambiguator::new(None, mode);
        for b in blocks(orig) {
            let g = build_block_ddg(orig, &b, &mut disamb);
            for (k, preds) in g.preds.iter().enumerate() {
                for &p in preds {
                    let from = orig.insns[g.nodes[p]].id;
                    let to = orig.insns[g.nodes[k]].id;
                    assert!(pos[&from] < pos[&to], "edge {from} -> {to} violated by schedule");
                }
            }
        }
    }

    #[test]
    fn schedule_is_legal_permutation() {
        let src = "int a[16]; int b[16]; int g;\n\
            int main() {\n int i;\n for (i = 0; i < 16; i++) {\n  a[i] = g * 3;\n  b[i] = a[i] + g;\n }\n return b[7];\n}";
        let (orig, new, _) = sched(src, "main", DepMode::GccOnly);
        assert_legal(&orig, &new, DepMode::GccOnly);
    }

    #[test]
    fn hli_schedule_hoists_independent_loads() {
        // Pointer stores block following loads under GCC; HLI frees them.
        let src = "double x[64]; double y[64];\n\
            void k(double *p, double *q) {\n\
              int i;\n\
              for (i = 0; i < 64; i++) {\n\
                p[i] = p[i] * 2.0;\n\
                q[i] = q[i] + 1.0;\n\
              }\n\
            }\n\
            int main() { k(x, y); return 0; }";
        let (_, gcc_f, gcc_stats) = sched(src, "k", DepMode::GccOnly);
        let (_, hli_f, hli_stats) = sched(src, "k", DepMode::Combined);
        assert_eq!(gcc_stats.total_tests, hli_stats.total_tests);
        assert!(hli_stats.combined_yes < gcc_stats.gcc_yes);
        // The instruction orders must differ in the loop body.
        let gcc_ids: Vec<u32> = gcc_f.insns.iter().map(|i| i.id).collect();
        let hli_ids: Vec<u32> = hli_f.insns.iter().map(|i| i.id).collect();
        assert_ne!(gcc_ids, hli_ids, "HLI should unlock a different schedule");
    }

    #[test]
    fn labels_and_terminators_stay_pinned() {
        let src = "int g;\nint main() { int i; for (i = 0; i < 4; i++) g += i; return g; }";
        let (orig, new, _) = sched(src, "main", DepMode::Combined);
        for (bo, bn) in blocks(&orig).iter().zip(blocks(&new).iter()) {
            assert_eq!(bo.start, bn.start);
            assert_eq!(bo.end, bn.end);
        }
        // Terminators in place.
        for b in blocks(&new) {
            for i in b.start..b.end.saturating_sub(1) {
                assert!(
                    !matches!(new.insns[i].op, Op::Jump(_) | Op::Branch(..) | Op::Ret(_)),
                    "control instruction migrated"
                );
            }
        }
    }

    #[test]
    fn single_block_critical_path_first() {
        // A long-latency divide feeding the return should be issued before
        // independent cheap ops when possible.
        let src = "int g; int h; int z;\nint main() { int a; int b; a = g / h; b = z + 1; z = b; return a; }";
        let (_, new, _) = sched(src, "main", DepMode::GccOnly);
        let div_pos = new
            .insns
            .iter()
            .position(|i| matches!(i.op, Op::IBin(IBinOp::Div, ..)))
            .unwrap();
        // The divide's operand loads + divide itself should come early; at
        // minimum the schedule is legal and the divide is not last.
        assert!(div_pos + 2 < new.insns.len());
    }

    #[test]
    fn wide_target_schedules_are_still_legal() {
        // A 4-issue in-order table: same latencies, four slots per cycle.
        let wide = TableBackend { issue_width: 4, ..TableBackend::scalar() };
        let src = "int a[16]; int b[16]; int g;\n\
            int main() {\n int i;\n for (i = 0; i < 16; i++) {\n  a[i] = g * 3;\n  b[i] = a[i] + g;\n }\n return b[7];\n}";
        let (p, s) = compile_to_ast(src).unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap();
        let r = schedule_function(f, None, DepMode::GccOnly, &wide);
        assert_legal(f, &r.func, DepMode::GccOnly);
    }

    #[test]
    fn scheduler_latencies_come_from_the_backend() {
        // Two backends that differ only in the load latency must be able
        // to produce different critical-path heights — i.e. the scheduler
        // reads the backend's table, not a private copy.
        let a = TableBackend::scalar();
        let mut b = TableBackend::scalar();
        b.table[hli_lir::OpClass::Load.index()] = 40;
        let src = "int g; int h;\nint main() { return g + h; }";
        let (p, s) = compile_to_ast(src).unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap();
        let lir = lir_function(f);
        let load = lir.ops.iter().find(|o| o.class == hli_lir::OpClass::Load).unwrap();
        assert_eq!(a.latency(load), 2);
        assert_eq!(b.latency(load), 40);
        // Both schedules stay legal permutations.
        for mach in [&a, &b] {
            let r = schedule_function(f, None, DepMode::GccOnly, mach);
            assert_legal(f, &r.func, DepMode::GccOnly);
        }
    }
}
