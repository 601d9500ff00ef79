//! Loop-invariant load motion with HLI legality evidence.
//!
//! Section 3.2.2: *"In loop invariant code removal, a memory reference can
//! be moved out of a loop only when there remains no other memory
//! reference in the loop that can possibly alias the memory reference."*
//! GCC's local test can rarely prove that for anything addressed through a
//! pointer; the HLI's equivalence/alias/LCDD answers can. The moved item
//! is re-homed into the enclosing region via
//! [`hli_core::maintain::move_item_to_region`] — the second maintenance
//! case of Section 3.2.3.

use crate::disamb::{Access, DepMode, HliSide, MemDisambiguator};
use crate::mapping::HliMap;
use crate::rtl::{Label, Op, RtlFunc};
use hli_core::maintain;
use hli_core::{HliEntry, QueryCache};
use hli_lir::{MachineBackend, OpClass};
use std::collections::HashSet;

/// Assumed iteration count for a loop whose trip is unknown at LICM time;
/// feeds the `licm.hoist` estimated-benefit model (DESIGN.md,
/// "Estimated-benefit models").
const NOMINAL_TRIP: u64 = 8;

/// Outcome of LICM on one function.
#[derive(Debug, Clone)]
pub struct LicmResult {
    pub func: RtlFunc,
    /// Loads hoisted out of loops.
    pub hoisted: usize,
}

/// A detected natural loop in the instruction chain: a backward jump to a
/// label.
#[derive(Debug, Clone, Copy)]
struct RtlLoop {
    /// Index of the `Label` instruction that heads the loop.
    head: usize,
    /// Index of the backward `Jump`/`Branch` instruction.
    tail: usize,
}

fn find_loops(f: &RtlFunc) -> Vec<RtlLoop> {
    let labels = f.label_index();
    let mut loops = Vec::new();
    for (i, insn) in f.insns.iter().enumerate() {
        let target: Option<Label> = match insn.op {
            Op::Jump(l) | Op::Branch(_, _, _, l) => Some(l),
            _ => None,
        };
        if let Some(l) = target {
            if let Some(&h) = labels.get(&l) {
                if h < i {
                    loops.push(RtlLoop { head: h, tail: i });
                }
            }
        }
    }
    loops
}

/// Innermost loops only: no other loop strictly inside.
fn innermost(loops: &[RtlLoop]) -> Vec<RtlLoop> {
    loops
        .iter()
        .copied()
        .filter(|a| {
            !loops.iter().any(|b| {
                (b.head > a.head && b.tail <= a.tail || b.head >= a.head && b.tail < a.tail)
                    && !(b.head == a.head && b.tail == a.tail)
            })
        })
        .collect()
}

/// Run LICM. With HLI, pointer loads can hoist when the tables prove no
/// conflicting store/call in the loop; item maintenance is applied.
pub fn licm_function(
    f: &RtlFunc,
    hli: Option<(&mut HliEntry, &mut HliMap)>,
    mode: DepMode,
    mach: &dyn MachineBackend,
) -> LicmResult {
    // Cycles one avoided in-loop load costs, at the active machine's load
    // latency — the same table the scheduler and simulator read.
    let est_load_cycles = mach.class_latency(OpClass::Load);
    let cache = QueryCache::new();
    let prov = hli_obs::provenance::active();

    let loops = innermost(&find_loops(f));
    let mut hoist: Vec<(usize, usize)> = Vec::new(); // (insn index, insert-before index)
    let mut taken: HashSet<usize> = HashSet::new();

    // The legality scan only reads the entry; maintenance follows it.
    let query = hli.as_ref().map(|(e, _)| cache.attach(e));
    let side = query.as_ref().zip(hli.as_ref()).map(|(query, (_, map))| HliSide { query, map });
    // GCC's LICM consults no HLI.
    let mut disamb = MemDisambiguator::new(side.filter(|_| mode != DepMode::GccOnly), mode);
    for lp in &loops {
        let range = lp.head..=lp.tail;
        // Registers defined inside the loop.
        let defined: HashSet<u32> = range.clone().filter_map(|i| f.insns[i].op.def()).collect();
        // Instructions before the loop's first control transfer execute on
        // every trip of the header — including the final failing test — so
        // hoisting them can never introduce an execution the original
        // program did not perform. Anything after that point is
        // conditionally executed within the iteration.
        let first_ctrl =
            (lp.head + 1..=lp.tail).find(|&i| f.insns[i].op.is_control()).unwrap_or(lp.tail);
        for i in range.clone() {
            let Op::Load(dst, m) = &f.insns[i].op else { continue };
            if taken.contains(&i) {
                continue;
            }
            // Speculation safety: a pointer (register-based) load that is
            // only conditionally executed must not be hoisted — the guard
            // may be exactly what keeps its address valid. Named objects
            // (globals, frame slots) are always readable, and the load's
            // destination is a single-def temporary, so hoisting them is
            // both fault- and value-safe.
            if i >= first_ctrl && matches!(m.base, crate::rtl::BaseAddr::Reg(_)) {
                continue;
            }
            // Address must be loop-invariant.
            let addr_regs: Vec<u32> = match m.base {
                crate::rtl::BaseAddr::Reg(r) => std::iter::once(r).chain(m.index).collect(),
                _ => m.index.into_iter().collect(),
            };
            if addr_regs.iter().any(|r| defined.contains(r)) {
                continue;
            }
            // The destination must be defined only here within the loop.
            let dst_defs = range.clone().filter(|&j| f.insns[j].op.def() == Some(*dst)).count();
            if dst_defs != 1 {
                continue;
            }
            // No conflicting store or call in the loop.
            let load = Access { mem: *m, item: disamb.item(f.insns[i].id) };
            let mark = disamb.mark();
            // One causal span per hoist candidate's legality scan.
            let span = if disamb.has_hli() && prov.is_some() {
                hli_obs::provenance::next_span_id()
            } else {
                0
            };
            let blocked = (lp.head..=lp.tail).find_map(|j| match &f.insns[j].op {
                Op::Store(sm, _) => disamb
                    .hoist(load, Access { mem: *sm, item: disamb.item(f.insns[j].id) })
                    .then_some("conflicting store in loop"),
                Op::Call { .. } => disamb
                    .call(load.item, disamb.item(f.insns[j].id), false)
                    .then_some("call in loop may modify location"),
                _ => None,
            });
            if blocked.is_none() {
                hoist.push((i, lp.head));
                taken.insert(i);
            }
            // One decision record per hoist candidate that reached the
            // legality scan (HLI-gated modes only — a GCC-only hoist cites
            // no queries and is not part of the audit trail).
            if let (Some(sink), true) = (prov.as_deref(), disamb.has_hli()) {
                sink.record(hli_obs::DecisionRecord {
                    pass: "licm.hoist".into(),
                    function: f.name.clone(),
                    region_id: disamb.region(load.item),
                    order: f.insns[i].line,
                    span,
                    // A hoisted load runs once instead of once per
                    // iteration; trip counts are unknown here, so the
                    // estimate assumes NOMINAL_TRIP iterations.
                    est_cycles: if blocked.is_none() {
                        (NOMINAL_TRIP - 1) * est_load_cycles
                    } else {
                        0
                    },
                    hli_queries: disamb.queries_since(mark),
                    verdict: match blocked {
                        None => hli_obs::Verdict::Applied,
                        Some(reason) => hli_obs::Verdict::Blocked { reason: reason.to_string() },
                    },
                });
            }
        }
    }

    if hoist.is_empty() {
        return LicmResult { func: f.clone(), hoisted: 0 };
    }

    // Rebuild: hoisted instructions move to just before their loop head.
    let mut func = f.clone();
    let mut insns = Vec::with_capacity(f.insns.len());
    let hoisted_set: HashSet<usize> = hoist.iter().map(|(i, _)| *i).collect();
    for (idx, insn) in f.insns.iter().enumerate() {
        for &(h, before) in &hoist {
            if before == idx {
                insns.push(f.insns[h].clone());
            }
        }
        if !hoisted_set.contains(&idx) {
            insns.push(insn.clone());
        }
    }
    func.insns = insns;

    // HLI maintenance: re-home each hoisted item to the parent region,
    // then invalidate the memos mentioning the moved items. An item that
    // cannot move no longer describes its instruction: it is counted,
    // recorded and unbound, so later passes answer "unknown" for it.
    if let Some((entry, map)) = hli {
        let mut moved = Vec::new();
        for &(i, _) in &hoist {
            let Some(item) = map.item_of(f.insns[i].id) else { continue };
            let Some(parent) = entry.owning_region(item).and_then(|r| entry.region(r).parent)
            else {
                continue;
            };
            let line = entry.line_table.find(item).map(|(l, _)| l).unwrap_or(f.insns[i].line);
            match maintain::move_item_to_region(entry, item, parent, line) {
                Ok(()) => moved.push(item),
                Err(e) => {
                    map.unbind_item(item);
                    crate::driver::record_item_quarantine(&f.name, &e);
                }
            }
        }
        cache.invalidate_items(entry, &moved);
    }

    hli_obs::metrics::cur().counter("backend.licm.hoisted").add(hoist.len() as u64);
    LicmResult { func, hoisted: hoist.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use crate::mapping::map_function;
    use hli_frontend::generate_hli;
    use hli_lang::compile_to_ast;

    fn run(src: &str, func: &str, mode: DepMode, with_hli: bool) -> (LicmResult, Option<HliEntry>) {
        let (p, s) = compile_to_ast(src).unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func(func).unwrap();
        if with_hli {
            let hli = generate_hli(&p, &s);
            let mut entry = hli.entry(func).unwrap().clone();
            let mut map = map_function(f, &entry);
            let r = licm_function(
                f,
                Some((&mut entry, &mut map)),
                mode,
                &hli_lir::TableBackend::scalar(),
            );
            (r, Some(entry))
        } else {
            (licm_function(f, None, mode, &hli_lir::TableBackend::scalar()), None)
        }
    }

    #[test]
    fn invariant_global_load_hoists_even_for_gcc() {
        // g is loaded every iteration, only a[] is stored: distinct named
        // objects, GCC can hoist.
        let (r, _) = run(
            "int g; int a[32];\nint main() { int i; for (i = 0; i < 32; i++) a[i] = g; return 0; }",
            "main",
            DepMode::GccOnly,
            false,
        );
        assert_eq!(r.hoisted, 1);
    }

    #[test]
    fn pointer_store_blocks_gcc_but_not_hli() {
        let src = "int g; int x[32];\n\
            void k(int *p) { int i; for (i = 0; i < 32; i++) p[i] = g; }\n\
            int main() { k(x); return 0; }";
        let (gcc, _) = run(src, "k", DepMode::GccOnly, false);
        assert_eq!(gcc.hoisted, 0, "GCC cannot disambiguate p[i] from g");
        let (hli, entry) = run(src, "k", DepMode::Combined, true);
        assert_eq!(hli.hoisted, 1, "HLI proves p never points at g");
        let entry = entry.unwrap();
        assert!(entry.validate().is_empty(), "{:?}", entry.validate());
    }

    #[test]
    fn hoisted_item_rehomed_to_parent_region() {
        let src = "int g; int x[32];\n\
            void k(int *p) { int i; for (i = 0; i < 32; i++) p[i] = g; }\n\
            int main() { k(x); return 0; }";
        let (p, s) = compile_to_ast(src).unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("k").unwrap();
        let hli = generate_hli(&p, &s);
        let mut entry = hli.entry("k").unwrap().clone();
        let mut map = map_function(f, &entry);
        // Find g's load item before the move.
        let g_item = entry
            .line_table
            .items()
            .find(|(_, it)| it.ty == hli_core::ItemType::Load)
            .map(|(_, it)| it.id)
            .unwrap();
        let before_region = entry.owning_region(g_item).unwrap();
        let r = licm_function(
            f,
            Some((&mut entry, &mut map)),
            DepMode::Combined,
            &hli_lir::TableBackend::scalar(),
        );
        assert_eq!(r.hoisted, 1);
        let after_region = entry.owning_region(g_item).unwrap();
        assert_ne!(before_region, after_region);
        assert_eq!(entry.region(before_region).parent, Some(after_region));
    }

    #[test]
    fn store_to_same_location_blocks_hoist() {
        let (r, _) = run(
            "int g;\nint main() { int i; int s; s = 0; for (i = 0; i < 8; i++) { s += g; g = s; } return s; }",
            "main",
            DepMode::Combined,
            true,
        );
        assert_eq!(r.hoisted, 0, "g is stored in the loop");
    }

    #[test]
    fn call_in_loop_blocks_unless_refmod_clears() {
        let blocked = run(
            "int g; void touch() { g = g + 1; }\nint main() { int i; int s; s = 0; for (i = 0; i < 8; i++) { s += g; touch(); } return s; }",
            "main",
            DepMode::Combined,
            true,
        );
        assert_eq!(blocked.0.hoisted, 0);
        let freed = run(
            "int g; int other; void touch() { other = other + 1; }\nint main() { int i; int s; s = 0; for (i = 0; i < 8; i++) { s += g; touch(); } return s; }",
            "main",
            DepMode::Combined,
            true,
        );
        assert_eq!(freed.0.hoisted, 1, "REF/MOD clears the call");
    }

    #[test]
    fn hoisted_code_stays_a_permutation() {
        let (r, _) = run(
            "int g; int a[32];\nint main() { int i; for (i = 0; i < 32; i++) a[i] = g; return 0; }",
            "main",
            DepMode::GccOnly,
            false,
        );
        let mut ids: Vec<u32> = r.func.insns.iter().map(|i| i.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), r.func.insns.len());
    }

    #[test]
    fn loop_detection_finds_nesting() {
        let (p, s) = compile_to_ast(
            "int a[4];\nint main() { int i; int j; for (i=0;i<4;i++) for (j=0;j<4;j++) a[j] = i; return 0; }",
        )
        .unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap();
        let all = find_loops(f);
        assert_eq!(all.len(), 2);
        let inner = innermost(&all);
        assert_eq!(inner.len(), 1);
        assert!(inner[0].head > all.iter().map(|l| l.head).min().unwrap() || all.len() == 1);
    }

    #[test]
    fn failed_item_move_is_counted_recorded_and_unbound() {
        let src = "int g; int x[32];\n\
            void k(int *p) { int i; for (i = 0; i < 32; i++) p[i] = g; }\n\
            int main() { k(x); return 0; }";
        let (p, s) = compile_to_ast(src).unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("k").unwrap();
        let hli = generate_hli(&p, &s);
        let mut entry = hli.entry("k").unwrap().clone();
        let mut map = map_function(f, &entry);
        // Tamper: g's load item stays mapped and in its class but leaves
        // the line table, so re-homing it after the hoist must fail.
        let g_item = entry
            .line_table
            .items()
            .find(|(_, it)| it.ty == hli_core::ItemType::Load)
            .map(|(_, it)| it.id)
            .unwrap();
        assert!(entry.line_table.remove_item(g_item));
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let sink = std::sync::Arc::new(hli_obs::ProvenanceSink::new());
        let r = {
            let _m = hli_obs::metrics::scoped(reg.clone());
            let _s = hli_obs::provenance::scoped(sink.clone());
            licm_function(
                f,
                Some((&mut entry, &mut map)),
                DepMode::Combined,
                &hli_lir::TableBackend::scalar(),
            )
        };
        assert_eq!(r.hoisted, 1);
        assert_eq!(reg.snapshot().counter("backend.quarantine.items"), 1);
        let records = sink.drain();
        let q = records.iter().find(|r| r.pass == "quarantine.item").expect("a record");
        assert!(
            matches!(&q.verdict, hli_obs::Verdict::Blocked { reason } if reason.contains("not in line table")),
            "{q:?}"
        );
        // Later passes answer "unknown" for the hoisted load.
        assert!(map.insn_of(g_item).is_none());
    }
}
