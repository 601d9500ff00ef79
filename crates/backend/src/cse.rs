//! Local common-subexpression elimination over memory loads, with the
//! paper's Figure-4 call treatment.
//!
//! GCC's CSE keeps a table of available expressions; without
//! interprocedural information *"all the subexpressions containing a
//! memory reference will be purged from the table when a function call
//! appears"*. With HLI, `HLI_GetCallAcc` purges selectively: only entries
//! the call may **modify** go.
//!
//! This implementation covers the memory-bearing part of CSE (redundant
//! load elimination with store forwarding-awareness), which is the part
//! HLI changes. Eliminated loads delete their items through
//! [`hli_core::maintain::delete_item`] — the first of the paper's
//! Section 3.2.3 maintenance cases.

use crate::disamb::{Access, DepMode, HliSide, MemDisambiguator};
use crate::mapping::HliMap;
use crate::rtl::{InsnId, MemRef, Op, RtlFunc};
use hli_core::maintain;
use hli_core::{HliEntry, ItemId, QueryCache};
use hli_lir::{MachineBackend, OpClass};

/// Outcome of running CSE on one function.
#[derive(Debug, Clone)]
pub struct CseResult {
    pub func: RtlFunc,
    /// Redundant loads rewritten to register moves.
    pub loads_eliminated: usize,
    /// Available entries purged at calls.
    pub purged_by_call: usize,
    /// Entries that survived a call thanks to REF/MOD evidence.
    pub kept_across_call: usize,
    /// Items deleted from the HLI (already applied when HLI was supplied).
    pub deleted_items: Vec<ItemId>,
}

/// One available memory value.
#[derive(Debug, Clone)]
struct Avail {
    mem: MemRef,
    value_reg: u32,
    item: Option<ItemId>,
}

/// Run local CSE. When `hli` is provided, call purging uses REF/MOD and
/// eliminated loads are maintained out of the entry and the mapping.
pub fn cse_function(
    f: &RtlFunc,
    hli: Option<(&mut HliEntry, &mut HliMap)>,
    mode: DepMode,
    mach: &dyn MachineBackend,
) -> CseResult {
    // Estimated cycles saved by keeping one available entry across a
    // call: the reload it avoids, at the active machine's load latency
    // (DESIGN.md, "Estimated-benefit models").
    let est_load_cycles = mach.class_latency(OpClass::Load);
    let cache = QueryCache::new();
    let prov = hli_obs::provenance::active();

    let mut out: Vec<crate::rtl::Insn> = Vec::with_capacity(f.insns.len());
    let mut avail: Vec<Avail> = Vec::new();
    let mut loads_eliminated = 0;
    let mut purged_by_call = 0;
    let mut kept_across_call = 0;
    let mut deleted_items = Vec::new();

    // The scan only reads the entry; maintenance follows it.
    let query = hli.as_ref().map(|(e, _)| cache.attach(e));
    let side = query.as_ref().zip(hli.as_ref()).map(|(query, (_, map))| HliSide { query, map });
    // Items are tracked in every mode (eliminated loads are maintained
    // out of the entry), but GCC's CSE consults no HLI.
    let item_of = |insn: InsnId| side.and_then(|s| s.map.item_of(insn));
    let mut disamb = MemDisambiguator::new(side.filter(|_| mode != DepMode::GccOnly), mode);
    for insn in &f.insns {
        // Control flow boundaries flush availability (local CSE).
        if insn.op.is_control() {
            avail.clear();
            out.push(insn.clone());
            continue;
        }
        match &insn.op {
            Op::Load(dst, m) => {
                let hit = avail.iter().find(|a| a.mem == *m).map(|a| a.value_reg);
                match hit {
                    Some(src) => {
                        loads_eliminated += 1;
                        if let Some(item) = item_of(insn.id) {
                            deleted_items.push(item);
                        }
                        let mut new = insn.clone();
                        new.op = Op::Move(*dst, src);
                        // The defined register invalidates dependents below.
                        invalidate_reg(&mut avail, *dst);
                        avail.push(Avail { mem: *m, value_reg: *dst, item: None });
                        out.push(new);
                        continue;
                    }
                    None => {
                        invalidate_reg(&mut avail, *dst);
                        avail.push(Avail { mem: *m, value_reg: *dst, item: item_of(insn.id) });
                    }
                }
            }
            Op::Store(m, src) => {
                // Invalidate conflicting entries, then record the stored
                // value as available (store-to-load forwarding).
                let store = Access { mem: *m, item: item_of(insn.id) };
                avail.retain(|a| !disamb.pair(Access { mem: a.mem, item: a.item }, store).conflict);
                avail.push(Avail { mem: *m, value_reg: *src, item: store.item });
            }
            Op::Call { dst, .. } => {
                let call_item = item_of(insn.id);
                // One causal span per call site: every keep/purge decision
                // made at this call shares it.
                let span = if disamb.has_hli() && prov.is_some() {
                    hli_obs::provenance::next_span_id()
                } else {
                    0
                };
                // Figure 4: with HLI, purge only what the call may modify;
                // without it, the call may change any memory.
                avail.retain(|a| {
                    let mark = disamb.mark();
                    let purge = disamb.call(a.item, call_item, false);
                    if purge {
                        purged_by_call += 1;
                    } else {
                        kept_across_call += 1;
                    }
                    if let (Some(sink), true) = (prov.as_deref(), disamb.has_hli()) {
                        let verdict = if purge {
                            hli_obs::Verdict::Blocked {
                                reason: match (call_item, a.item) {
                                    (None, _) => "call has no HLI item",
                                    (_, None) => "entry has no HLI item",
                                    _ => "call may modify location",
                                }
                                .into(),
                            }
                        } else {
                            hli_obs::Verdict::Applied
                        };
                        sink.record(hli_obs::DecisionRecord {
                            pass: "cse.call".into(),
                            function: f.name.clone(),
                            // A call without an item cites no region.
                            region_id: call_item.and(disamb.region(a.item)),
                            order: insn.line,
                            span,
                            // A kept entry saves the reload the purge
                            // would have forced: one load latency.
                            est_cycles: if purge { 0 } else { est_load_cycles },
                            hli_queries: disamb.queries_since(mark),
                            verdict,
                        });
                    }
                    !purge
                });
                if let Some(d) = dst {
                    invalidate_reg(&mut avail, *d);
                }
            }
            other => {
                if let Some(d) = other.def() {
                    invalidate_reg(&mut avail, d);
                }
            }
        }
        out.push(insn.clone());
    }

    // Apply maintenance for the eliminated items, then drop the memos that
    // mention them so a reattached cache stays consistent with the
    // maintained entry. A failed deletion leaves the entry out of step
    // with the code: it is counted and recorded, never dropped.
    if let Some((entry, map)) = hli {
        for &item in &deleted_items {
            map.unbind_item(item);
            if let Err(e) = maintain::delete_item(entry, item) {
                crate::driver::record_item_quarantine(&f.name, &e);
            }
        }
        cache.invalidate_items(entry, &deleted_items);
    }

    let mut func = f.clone();
    func.insns = out;
    let reg = hli_obs::metrics::cur();
    reg.counter("backend.cse.loads_eliminated").add(loads_eliminated as u64);
    reg.counter("backend.cse.purged_by_call").add(purged_by_call as u64);
    reg.counter("backend.cse.kept_across_call").add(kept_across_call as u64);
    reg.counter("backend.cse.items_deleted").add(deleted_items.len() as u64);
    CseResult {
        func,
        loads_eliminated,
        purged_by_call,
        kept_across_call,
        deleted_items,
    }
}

/// A redefined register invalidates entries addressing through it or
/// holding their value in it.
fn invalidate_reg(avail: &mut Vec<Avail>, reg: u32) {
    avail.retain(|a| {
        let addr_uses = matches!(a.mem.base, crate::rtl::BaseAddr::Reg(r) if r == reg)
            || a.mem.index == Some(reg);
        !(addr_uses || a.value_reg == reg)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use crate::mapping::map_function;
    use hli_frontend::generate_hli;
    use hli_lang::compile_to_ast;

    fn run_cse(src: &str, func: &str, mode: DepMode, with_hli: bool) -> CseResult {
        let (p, s) = compile_to_ast(src).unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func(func).unwrap();
        if with_hli {
            let hli = generate_hli(&p, &s);
            let mut entry = hli.entry(func).unwrap().clone();
            let mut map = map_function(f, &entry);
            let r = cse_function(
                f,
                Some((&mut entry, &mut map)),
                mode,
                &hli_lir::TableBackend::scalar(),
            );
            assert!(entry.validate().is_empty(), "{:?}", entry.validate());
            r
        } else {
            cse_function(f, None, mode, &hli_lir::TableBackend::scalar())
        }
    }

    #[test]
    fn redundant_global_load_eliminated() {
        let r = run_cse(
            "int g;\nint main() { int a; int b; a = g; b = g; return a + b; }",
            "main",
            DepMode::GccOnly,
            false,
        );
        assert_eq!(r.loads_eliminated, 1);
    }

    #[test]
    fn store_forwarding_supplies_value() {
        let r = run_cse(
            "int g;\nint main() { g = 5; return g; }",
            "main",
            DepMode::GccOnly,
            false,
        );
        // The load of g after the store is satisfied by forwarding.
        assert_eq!(r.loads_eliminated, 1);
    }

    #[test]
    fn intervening_conflicting_store_blocks_reuse() {
        let r = run_cse(
            "int g;\nint main() { int a; int b; a = g; g = 7; b = g; return a + b; }",
            "main",
            DepMode::GccOnly,
            false,
        );
        // `b = g` is satisfied by forwarding from `g = 7`, but the original
        // `a = g` availability must have been purged; eliminating with the
        // old value would be wrong. Check semantics via the rewritten ops:
        // exactly one Move-from-forwarding, no stale reuse.
        assert_eq!(r.loads_eliminated, 1);
    }

    #[test]
    fn call_purges_everything_without_hli() {
        let r = run_cse(
            "int g; int unrelated; void f() { unrelated = 1; }\nint main() { int a; int b; a = g; f(); b = g; return a + b; }",
            "main",
            DepMode::GccOnly,
            false,
        );
        assert_eq!(r.loads_eliminated, 0, "call conservatively kills availability");
        assert!(r.purged_by_call > 0);
    }

    #[test]
    fn refmod_keeps_unrelated_values_across_call() {
        let r = run_cse(
            "int g; int unrelated; void f() { unrelated = 1; }\nint main() { int a; int b; a = g; f(); b = g; return a + b; }",
            "main",
            DepMode::Combined,
            true,
        );
        assert_eq!(r.loads_eliminated, 1, "Figure 4: g survives the call");
        assert!(r.kept_across_call > 0);
        assert_eq!(r.deleted_items.len(), 1);
    }

    #[test]
    fn call_that_mods_still_purges_with_hli() {
        let r = run_cse(
            "int g; void f() { g = g + 1; }\nint main() { int a; int b; a = g; f(); b = g; return a + b; }",
            "main",
            DepMode::Combined,
            true,
        );
        assert_eq!(r.loads_eliminated, 0, "g is modified by the call");
    }

    #[test]
    fn hli_distinguishes_array_elements() {
        let r = run_cse(
            "int a[8];\nint main() { int x; int y; x = a[1]; a[2] = 9; y = a[1]; return x + y; }",
            "main",
            DepMode::Combined,
            true,
        );
        // a[1] reload after a store to a[2]: constant offsets let even GCC
        // keep it; verify HLI agrees and it is eliminated.
        assert_eq!(r.loads_eliminated, 1);
    }

    #[test]
    fn eliminated_items_leave_valid_hli() {
        let (p, s) =
            compile_to_ast("int g;\nint main() { int a; int b; a = g; b = g; return a + b; }")
                .unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap();
        let hli = generate_hli(&p, &s);
        let mut entry = hli.entry("main").unwrap().clone();
        let before = entry.line_table.item_count();
        let mut map = map_function(f, &entry);
        let r = cse_function(
            f,
            Some((&mut entry, &mut map)),
            DepMode::Combined,
            &hli_lir::TableBackend::scalar(),
        );
        assert_eq!(entry.line_table.item_count(), before - r.deleted_items.len());
        assert!(entry.validate().is_empty());
        // The mapping no longer mentions deleted items.
        for it in &r.deleted_items {
            assert!(map.insn_of(*it).is_none());
        }
    }

    #[test]
    fn failed_item_deletion_is_counted_and_recorded() {
        let (p, s) =
            compile_to_ast("int g;\nint main() { int a; int b; a = g; b = g; return a + b; }")
                .unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap();
        let hli = generate_hli(&p, &s);
        let mut entry = hli.entry("main").unwrap().clone();
        let mut map = map_function(f, &entry);
        // Tamper: the reloaded item stays mapped but leaves the line table,
        // so deleting it after elimination must fail.
        let reload = f.insns.iter().filter(|i| matches!(i.op, Op::Load(..))).nth(1).unwrap();
        let item = map.item_of(reload.id).unwrap();
        assert!(entry.line_table.remove_item(item));
        let reg = std::sync::Arc::new(hli_obs::MetricsRegistry::new());
        let sink = std::sync::Arc::new(hli_obs::ProvenanceSink::new());
        let r = {
            let _m = hli_obs::metrics::scoped(reg.clone());
            let _s = hli_obs::provenance::scoped(sink.clone());
            cse_function(
                f,
                Some((&mut entry, &mut map)),
                DepMode::Combined,
                &hli_lir::TableBackend::scalar(),
            )
        };
        assert_eq!(r.deleted_items, vec![item]);
        assert_eq!(reg.snapshot().counter("backend.quarantine.items"), 1);
        let records = sink.drain();
        let q = records.iter().find(|r| r.pass == "quarantine.item").expect("a record");
        assert!(
            matches!(&q.verdict, hli_obs::Verdict::Blocked { reason } if reason.contains("not in line table")),
            "{q:?}"
        );
        assert!(map.insn_of(item).is_none());
    }
}
