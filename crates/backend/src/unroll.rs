//! Loop unrolling with the Figure-6 HLI update.
//!
//! Section 3.2.3: *"In loop unrolling, the loop body is duplicated and
//! preconditioning code is generated. The entire HLI components (tables)
//! must be reconstructed using old information."* This pass unrolls
//! canonical constant-trip innermost loops in the RTL, then drives
//! [`hli_core::maintain::unroll_loop`] and binds every duplicated memory
//! reference to its duplicated item — keeping the mapping precise so the
//! scheduler can still disambiguate inside the unrolled body.
//!
//! Scope (documented in DESIGN.md): loops must be canonical `for`s with
//! compile-time constant trip counts, no nested loops, and no
//! `break`/`continue`. The remainder ("preconditioning") iterations run in
//! a copy of the original loop placed after the unrolled loop.

use crate::mapping::HliMap;
use crate::rtl::{CmpOp, Insn, InsnId, Label, Op, RtlFunc};
use hli_core::maintain;
use hli_core::{HliEntry, RegionKind};
use hli_lir::{MachineBackend, OpClass};
use std::collections::HashMap;

/// Metadata the lowerer records per canonical constant-trip loop.
#[derive(Debug, Clone, Copy)]
pub struct LoopMeta {
    pub l_cond: Label,
    pub l_step: Label,
    pub l_exit: Label,
    /// Register holding the induction variable.
    pub ivar_reg: u32,
    pub lower: i64,
    pub step: i64,
    pub trip: i64,
    /// Source line of the loop header (joins to the HLI region).
    pub header_line: u32,
}

/// Result of unrolling one function.
#[derive(Debug, Clone)]
pub struct UnrollResult {
    pub func: RtlFunc,
    /// Loops actually unrolled.
    pub unrolled: usize,
    /// Loops skipped (non-canonical shape, nested loops, too short...).
    pub skipped: usize,
}

/// Unroll every eligible loop of `f` by `factor`. `metas` comes from the
/// lowerer ([`crate::lower::lower_with_loops`]); HLI maintenance and
/// mapping updates are applied when `hli` is given.
pub fn unroll_function(
    f: &RtlFunc,
    metas: &[LoopMeta],
    factor: u32,
    mut hli: Option<(&mut HliEntry, &mut HliMap)>,
    mach: &dyn MachineBackend,
) -> UnrollResult {
    assert!(factor >= 2, "unroll factor must be >= 2");
    let mut func = f.clone();
    let mut unrolled = 0;
    let mut skipped = 0;
    // Process loops one at a time; indices shift, so re-locate each meta
    // against the current instruction vector.
    let prov = hli_obs::provenance::active();
    for meta in metas {
        let ok = unroll_one(&mut func, meta, factor, &mut hli).is_ok();
        if ok {
            unrolled += 1;
        } else {
            skipped += 1;
        }
        // Unroll legality is structural (shape + trip count), so the record
        // cites no queries; the paired `maintain.unroll_loop` record carries
        // the region whose tables were rebuilt (Figure 6).
        if let Some(sink) = prov.as_deref() {
            let verdict = if ok {
                hli_obs::Verdict::Applied
            } else {
                hli_obs::Verdict::Blocked {
                    reason: format!("non-canonical shape or trip < {factor}"),
                }
            };
            // Estimated benefit: the trip count is known here, so count
            // the loop-overhead (condition test + backward branch, at the
            // active machine's ALU and branch latencies) of the iterations
            // the unrolled body absorbs. The remainder loop keeps its own
            // overhead.
            let est_cycles = if ok {
                let trip = meta.trip as u64;
                let u = factor as u64;
                let kept_iters = trip / u + trip % u;
                let per_iter =
                    mach.class_latency(OpClass::IAlu) + mach.class_latency(OpClass::Branch);
                (trip - kept_iters) * per_iter
            } else {
                0
            };
            // One causal span per examined loop.
            let span = hli_obs::provenance::next_span_id();
            sink.record(hli_obs::DecisionRecord {
                pass: "unroll.loop".into(),
                function: func.name.clone(),
                region_id: None,
                order: meta.header_line,
                span,
                est_cycles,
                hli_queries: Vec::new(),
                verdict,
            });
        }
    }
    let reg = hli_obs::metrics::cur();
    reg.counter("backend.unroll.loops_unrolled").add(unrolled as u64);
    reg.counter("backend.unroll.loops_skipped").add(skipped as u64);
    UnrollResult { func, unrolled, skipped }
}

/// Allocator helpers living on the function being rewritten.
struct Alloc {
    next_insn: InsnId,
    next_label: Label,
}

impl Alloc {
    fn insn(&mut self) -> InsnId {
        let i = self.next_insn;
        self.next_insn += 1;
        i
    }

    fn label(&mut self) -> Label {
        let l = self.next_label;
        self.next_label += 1;
        l
    }
}

fn unroll_one(
    func: &mut RtlFunc,
    meta: &LoopMeta,
    factor: u32,
    hli: &mut Option<(&mut HliEntry, &mut HliMap)>,
) -> Result<(), ()> {
    let u = factor as i64;
    if meta.trip < u {
        return Err(());
    }
    let labels = func.label_index();
    let (&cond_at, &step_at, &exit_at) = match (
        labels.get(&meta.l_cond),
        labels.get(&meta.l_step),
        labels.get(&meta.l_exit),
    ) {
        (Some(a), Some(b), Some(c)) => (a, b, c),
        _ => return Err(()),
    };
    if !(cond_at < step_at && step_at < exit_at) {
        return Err(());
    }
    // Expected shape:
    //   cond_at:  Label(l_cond)
    //   cond_at+1..body_start: cond computation ending in Branch(_,_,_,l_exit)
    //   body_start..step_at: body
    //   step_at: Label(l_step); step insns; Jump(l_cond)
    //   exit_at: Label(l_exit)
    let branch_at = (cond_at + 1..step_at)
        .find(|&i| matches!(func.insns[i].op, Op::Branch(_, _, _, l) if l == meta.l_exit))
        .ok_or(())?;
    let body = branch_at + 1..step_at;
    let step_range = step_at + 1..exit_at - 1; // excludes Label and Jump
    if !matches!(func.insns[exit_at - 1].op, Op::Jump(l) if l == meta.l_cond) {
        return Err(());
    }
    // Reject nested loops / break / continue: no backward targets within
    // the body and no jumps out of it other than forward within body.
    for i in body.clone() {
        if let Op::Jump(l) | Op::Branch(_, _, _, l) = func.insns[i].op {
            match labels.get(&l) {
                Some(&t) if t > i && t < step_at => {} // forward, internal
                _ => return Err(()),
            }
        }
        if matches!(func.insns[i].op, Op::Ret(_)) {
            return Err(());
        }
    }

    let mut alloc = Alloc {
        next_insn: func.insns.iter().map(|i| i.id + 1).max().unwrap_or(0),
        next_label: labels.keys().copied().max().map(|l| l + 1).unwrap_or(0),
    };

    let m = meta.trip / u; // full unrolled iterations
    let r = meta.trip % u; // remainder iterations
    let main_bound = meta.lower + m * u * meta.step;
    let full_bound = meta.lower + meta.trip * meta.step;

    // HLI maintenance first (it tells us the new item ids).
    let mut item_maps: Option<hli_core::maintain::UnrollMaps> = None;
    if let Some((entry, _)) = hli.as_mut() {
        let region = entry
            .regions
            .iter()
            .find(|rg| matches!(rg.kind, RegionKind::Loop { header_line } if header_line == meta.header_line))
            .map(|rg| rg.id)
            .ok_or(())?;
        let maps = maintain::unroll_loop(entry, region, factor, r > 0)
            .map_err(|e| crate::driver::record_item_quarantine(&func.name, &e))?;
        item_maps = Some(maps);
    }

    // Build the replacement instruction sequence for [cond_at ..= exit_at].
    let mut seq: Vec<Insn> = Vec::new();
    let l_pre_cond = alloc.label();
    let orig_body: Vec<Insn> = func.insns[body.clone()].to_vec();
    let orig_step: Vec<Insn> = func.insns[step_range.clone()].to_vec();
    let cond_line = func.insns[cond_at].line;

    // Main unrolled loop: Label(l_cond); t = main_bound; branch out when
    // done — to the remainder loop when there is one, else straight out.
    let after_main = if r > 0 { l_pre_cond } else { meta.l_exit };
    seq.push(Insn {
        id: func.insns[cond_at].id,
        line: cond_line,
        op: Op::Label(meta.l_cond),
    });
    {
        let t = func.num_regs;
        func.num_regs += 1;
        seq.push(Insn {
            id: alloc.insn(),
            line: cond_line,
            op: Op::LiI(t, main_bound),
        });
        seq.push(Insn {
            id: alloc.insn(),
            line: cond_line,
            op: Op::Branch(CmpOp::Ge, meta.ivar_reg, t, after_main),
        });
    }
    // Copy 0 = original body + step (original ids keep their mappings).
    seq.extend(orig_body.iter().cloned());
    seq.extend(orig_step.iter().cloned());
    // Copies 1..u: fresh ids, fresh internal labels.
    for k in 1..factor {
        let copy = clone_insns(&orig_body, &mut alloc, func);
        // Bind the copies' memory refs to the duplicated items.
        if let (Some((_, map)), Some(maps)) = (hli.as_mut(), item_maps.as_ref()) {
            for (orig, new) in orig_body.iter().zip(&copy) {
                if let Some(item) = map.item_of(orig.id) {
                    if let Some(&copy_item) = maps.body_items[(k - 1) as usize].get(&item) {
                        map.bind(new.id, copy_item);
                    }
                }
            }
        }
        seq.extend(copy);
        seq.extend(clone_insns(&orig_step, &mut alloc, func));
    }
    seq.push(Insn { id: alloc.insn(), line: cond_line, op: Op::Jump(meta.l_cond) });

    // Preconditioning (remainder) loop: original structure, full bound.
    if r > 0 {
        seq.push(Insn { id: alloc.insn(), line: cond_line, op: Op::Label(l_pre_cond) });
        let t = func.num_regs;
        func.num_regs += 1;
        seq.push(Insn {
            id: alloc.insn(),
            line: cond_line,
            op: Op::LiI(t, full_bound),
        });
        seq.push(Insn {
            id: alloc.insn(),
            line: cond_line,
            op: Op::Branch(CmpOp::Ge, meta.ivar_reg, t, meta.l_exit),
        });
        let pre_body = clone_insns(&orig_body, &mut alloc, func);
        if let (Some((_, map)), Some(maps)) = (hli.as_mut(), item_maps.as_ref()) {
            for (orig, new) in orig_body.iter().zip(&pre_body) {
                if let Some(item) = map.item_of(orig.id) {
                    if let Some(&pre_item) = maps.precond_items.get(&item) {
                        map.bind(new.id, pre_item);
                    }
                }
            }
        }
        seq.extend(pre_body);
        seq.extend(clone_insns(&orig_step, &mut alloc, func));
        seq.push(Insn { id: alloc.insn(), line: cond_line, op: Op::Jump(l_pre_cond) });
    }
    seq.push(Insn {
        id: func.insns[exit_at].id,
        line: func.insns[exit_at].line,
        op: Op::Label(meta.l_exit),
    });

    // Splice: everything before l_cond + seq + everything after l_exit,
    // dropping the original cond/body/step instructions.
    let mut insns = Vec::with_capacity(func.insns.len() + seq.len());
    insns.extend(func.insns[..cond_at].iter().cloned());
    insns.extend(seq);
    insns.extend(func.insns[exit_at + 1..].iter().cloned());
    func.insns = insns;
    Ok(())
}

/// Clone a run of instructions with fresh ids and renamed internal labels.
fn clone_insns(src: &[Insn], alloc: &mut Alloc, _f: &RtlFunc) -> Vec<Insn> {
    // Internal labels (if/else shapes) must be unique per copy.
    let mut label_map: HashMap<Label, Label> = HashMap::new();
    for insn in src {
        if let Op::Label(l) = insn.op {
            label_map.insert(l, alloc.label());
        }
    }
    src.iter()
        .map(|insn| {
            let mut op = insn.op.clone();
            match &mut op {
                Op::Label(l) | Op::Jump(l) | Op::Branch(_, _, _, l) => {
                    if let Some(&n) = label_map.get(l) {
                        *l = n;
                    }
                }
                _ => {}
            }
            Insn { id: alloc.insn(), line: insn.line, op }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_with_loops;
    use crate::mapping::map_function;
    use hli_frontend::generate_hli;
    use hli_lang::compile_to_ast;

    fn unrolled(
        src: &str,
        fname: &str,
        factor: u32,
        with_hli: bool,
    ) -> (UnrollResult, Option<(HliEntry, HliMap)>) {
        let (p, s) = compile_to_ast(src).unwrap();
        let (prog, loops) = lower_with_loops(&p, &s);
        let f = prog.func(fname).unwrap();
        let metas = &loops[&f.name];
        if with_hli {
            let hli = generate_hli(&p, &s);
            let mut entry = hli.entry(fname).unwrap().clone();
            let mut map = map_function(f, &entry);
            let r = unroll_function(
                f,
                metas,
                factor,
                Some((&mut entry, &mut map)),
                &hli_lir::TableBackend::scalar(),
            );
            (r, Some((entry, map)))
        } else {
            (
                unroll_function(f, metas, factor, None, &hli_lir::TableBackend::scalar()),
                None,
            )
        }
    }

    const STREAM: &str = "int a[16];\nint main() {\n int i;\n for (i = 0; i < 16; i++)\n  a[i] = i;\n return a[5];\n}";

    #[test]
    fn divisible_trip_unrolls_without_fuss() {
        let (r, _) = unrolled(STREAM, "main", 4, false);
        assert_eq!(r.unrolled, 1);
        assert_eq!(r.skipped, 0);
        // Four store copies in the unrolled body; trip divides evenly so
        // there is no remainder loop.
        let stores = r.func.insns.iter().filter(|i| i.op.is_store()).count();
        assert_eq!(stores, 4, "4 main copies, no remainder");
    }

    #[test]
    fn remainder_loop_generated_when_indivisible() {
        let src = "int a[10];\nint main() {\n int i;\n for (i = 0; i < 10; i++)\n  a[i] = i;\n return a[5];\n}";
        let (r, _) = unrolled(src, "main", 4, false);
        assert_eq!(r.unrolled, 1);
        let labels = r.func.label_index();
        assert!(labels.len() >= 3, "main cond, pre cond, exit: {labels:?}");
        // 4 main copies + 1 remainder copy of the store.
        let stores = r.func.insns.iter().filter(|i| i.op.is_store()).count();
        assert_eq!(stores, 5);
    }

    #[test]
    fn too_short_loops_skip() {
        let src =
            "int a[3];\nint main() {\n int i;\n for (i = 0; i < 3; i++) a[i] = i;\n return 0;\n}";
        let (r, _) = unrolled(src, "main", 4, false);
        assert_eq!(r.unrolled, 0);
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn nested_loops_skip_outer_unroll_inner() {
        let src = "int a[8];\nint main() {\n int i; int j;\n for (i = 0; i < 8; i++)\n  for (j = 0; j < 8; j++)\n   a[j] = i + j;\n return 0;\n}";
        let (r, _) = unrolled(src, "main", 2, false);
        // The inner loop unrolls; the outer is rejected (contains a loop).
        assert_eq!(r.unrolled, 1);
        assert_eq!(r.skipped, 1);
    }

    #[test]
    fn hli_maintenance_keeps_entry_valid_and_mapped() {
        let (r, hm) = unrolled(STREAM, "main", 2, true);
        assert_eq!(r.unrolled, 1);
        let (entry, map) = hm.unwrap();
        let errs = entry.validate();
        assert!(errs.is_empty(), "{errs:?}");
        // Every store in the unrolled code maps to an item.
        for insn in r.func.insns.iter().filter(|i| i.op.is_store()) {
            assert!(
                map.item_of(insn.id).is_some(),
                "store {} unmapped after unroll",
                insn.id
            );
        }
    }

    #[test]
    fn failed_table_maintenance_is_counted_recorded_and_skipped() {
        let (p, s) = compile_to_ast(STREAM).unwrap();
        let (prog, loops) = lower_with_loops(&p, &s);
        let f = prog.func("main").unwrap();
        let hli = generate_hli(&p, &s);
        let mut entry = hli.entry("main").unwrap().clone();
        let mut map = map_function(f, &entry);
        // Tamper: the loop region claims a sub-region, so the Figure-6
        // rebuild refuses it although the RTL loop is innermost.
        let (loop_id, parent) = entry
            .regions
            .iter()
            .find(|rg| rg.is_loop())
            .map(|rg| (rg.id, rg.parent.unwrap()))
            .unwrap();
        entry.region_mut(loop_id).subregions.push(parent);
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let sink = std::sync::Arc::new(hli_obs::ProvenanceSink::new());
        let r = {
            let _m = hli_obs::metrics::scoped(reg.clone());
            let _s = hli_obs::provenance::scoped(sink.clone());
            unroll_function(
                f,
                &loops[&f.name],
                4,
                Some((&mut entry, &mut map)),
                &hli_lir::TableBackend::scalar(),
            )
        };
        assert_eq!((r.unrolled, r.skipped), (0, 1));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("backend.unroll.loops_skipped"), 1);
        assert_eq!(snap.counter("backend.quarantine.items"), 1);
        let records = sink.drain();
        let q = records.iter().find(|r| r.pass == "quarantine.item").expect("a record");
        assert!(
            matches!(&q.verdict, hli_obs::Verdict::Blocked { reason } if reason.contains("sub-regions")),
            "{q:?}"
        );
    }

    #[test]
    fn unrolled_stencil_keeps_lcdd_info() {
        let src = "int a[16];\nint main() {\n int i;\n for (i = 1; i < 16; i++)\n  a[i] = a[i-1] + 1;\n return a[15];\n}";
        let (r, hm) = unrolled(src, "main", 2, true);
        assert_eq!(r.unrolled, 1);
        let (entry, map) = hm.unwrap();
        assert!(entry.validate().is_empty());
        // Figure 6: within an unrolled iteration, copy 0's store a[i]
        // feeds copy 1's load a[i-1] — the remapped distance-0 arc became
        // an alias entry, so a same-iteration query must say "maybe".
        let q = hli_core::query::HliQuery::new(&entry);
        let stores: Vec<_> = r
            .func
            .insns
            .iter()
            .filter(|i| i.op.is_store())
            .filter_map(|i| map.item_of(i.id))
            .collect();
        let loads: Vec<_> = r
            .func
            .insns
            .iter()
            .filter(|i| i.op.is_load())
            .filter_map(|i| map.item_of(i.id))
            .collect();
        assert!(stores.len() >= 2 && loads.len() >= 2);
        let cross = q.get_equiv_acc(stores[0], loads[1]);
        assert!(
            cross.may_overlap(),
            "copy-0 store vs copy-1 load must stay ordered, got {cross:?}"
        );
    }

    #[test]
    fn while_loops_are_not_candidates() {
        let src =
            "int g;\nint main() {\n int i; i = 0;\n while (i < 8) { g += i; i++; }\n return g;\n}";
        let (p, s) = compile_to_ast(src).unwrap();
        let (prog, loops) = lower_with_loops(&p, &s);
        let f = prog.func("main").unwrap();
        assert!(loops[&f.name].is_empty(), "only canonical for loops carry metadata");
    }
}
