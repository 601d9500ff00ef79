//! The one memory disambiguator every back-end pass asks (Figure 5).
//!
//! The paper's back end consults HLI at three points: the scheduler's
//! dependence test (`gcc_value * hli_value`), CSE's Figure-4 purge at calls
//! and LICM's Section 3.2.2 hoist check. They ask three questions, and
//! [`MemDisambiguator`] answers all of them:
//!
//! * [`pair`](MemDisambiguator::pair) — may two accesses touch the same
//!   location within one iteration (the DDG's memory edges, CSE's
//!   invalidation at a store)?
//! * [`hoist`](MemDisambiguator::hoist) — may a load conflict with a store
//!   of its loop in this or any other iteration (`get_equiv_acc`, then
//!   `get_lcdd` when the first says no)?
//! * [`call`](MemDisambiguator::call) — may a call touch an access, by its
//!   REF/MOD entry?
//!
//! Each answer combines GCC's local rule ([`crate::gccdep`]) with the HLI
//! answer through one mode table:
//!
//! | mode | memory pair / hoist | memory vs call |
//! |---|---|---|
//! | [`DepMode::GccOnly`] | GCC | conflict (calls clobber memory) |
//! | [`DepMode::HliOnly`] | HLI | HLI REF/MOD |
//! | [`DepMode::Combined`] | GCC ∧ HLI | HLI REF/MOD |
//!
//! The HLI side answers "may conflict" when the disambiguator has no HLI
//! or an access has no item (the paper's *unknown*). A memory pair always
//! gets both answers, never a short-circuited one, because Table 2's
//! columns ([`QueryStats`]) and the `hli.query.*` counters count every
//! answer. Passes that must not consult HLI (CSE and LICM under `GccOnly`)
//! build the disambiguator without it; the scheduler always hands it in,
//! so Table 2 counts HLI answers in both scheduling passes.
//!
//! The passes keep their own policies (edge, purge, hoist) and provenance
//! record shapes; they cite the query chain behind a decision through
//! [`mark`](MemDisambiguator::mark) and
//! [`queries_since`](MemDisambiguator::queries_since).

use crate::gccdep;
use crate::mapping::HliMap;
use crate::rtl::{InsnId, MemRef};
use hli_core::{CachedQuery, ItemId};
use hli_obs::QueryRef;

/// Which analyzer gates dependence answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepMode {
    /// GCC's own test only (the baseline build).
    GccOnly,
    /// HLI only (the paper's "HLI result" column — measured, not shipped).
    HliOnly,
    /// `gcc_value * hli_value` (Figure 5; the paper's "Combined" column).
    Combined,
}

/// Query counters matching Table 2's columns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Memory-pair dependence tests (≥ 1 write in the pair).
    pub total_tests: u64,
    /// Times GCC had to answer "may conflict".
    pub gcc_yes: u64,
    /// Times the HLI answered "may overlap" (unknown counts as yes).
    pub hli_yes: u64,
    /// Times both said yes (the Figure-5 product).
    pub combined_yes: u64,
    /// Call ↔ memory REF/MOD queries (tracked separately; the paper's
    /// table counts location-pair tests).
    pub call_queries: u64,
}

impl QueryStats {
    pub fn add(&mut self, other: &QueryStats) {
        self.total_tests += other.total_tests;
        self.gcc_yes += other.gcc_yes;
        self.hli_yes += other.hli_yes;
        self.combined_yes += other.combined_yes;
        self.call_queries += other.call_queries;
    }

    /// Table 2's "Reduction" column: 1 − combined/gcc.
    pub fn reduction(&self) -> f64 {
        if self.gcc_yes == 0 {
            0.0
        } else {
            1.0 - self.combined_yes as f64 / self.gcc_yes as f64
        }
    }

    /// Mirror these totals into the `backend.ddg.*` counters of `reg`.
    /// The struct itself stays the unit of accumulation inside DDG
    /// construction (so Table-2 arithmetic is untouched); the registry gets
    /// the same totals for `--stats` output and cross-layer reports.
    pub fn record(&self, reg: &hli_obs::MetricsRegistry) {
        reg.counter("backend.ddg.total_tests").add(self.total_tests);
        reg.counter("backend.ddg.gcc_yes").add(self.gcc_yes);
        reg.counter("backend.ddg.hli_yes").add(self.hli_yes);
        reg.counter("backend.ddg.combined_yes").add(self.combined_yes);
        reg.counter("backend.ddg.call_queries").add(self.call_queries);
    }

    /// View constructor: rebuild Table-2 totals from a metrics snapshot
    /// (the inverse of [`QueryStats::record`]).
    pub fn from_registry(snap: &hli_obs::MetricsSnapshot) -> QueryStats {
        QueryStats {
            total_tests: snap.counter("backend.ddg.total_tests"),
            gcc_yes: snap.counter("backend.ddg.gcc_yes"),
            hli_yes: snap.counter("backend.ddg.hli_yes"),
            combined_yes: snap.counter("backend.ddg.combined_yes"),
            call_queries: snap.counter("backend.ddg.call_queries"),
        }
    }
}

/// A function's HLI: the query view over its entry and the item ↔
/// instruction mapping. Queries go through the memoizing [`CachedQuery`]
/// layer, so repeated probes of the same item pair (a second scheduling
/// pass over the same function) are answered from the cache.
#[derive(Clone, Copy)]
pub struct HliSide<'a> {
    pub query: &'a CachedQuery<'a>,
    pub map: &'a HliMap,
}

/// One memory access: its address for GCC's rule, its HLI item (`None`:
/// unmapped, so HLI answers *unknown*) for the tables.
#[derive(Debug, Clone, Copy)]
pub struct Access {
    pub mem: MemRef,
    pub item: Option<ItemId>,
}

/// Both answers behind one memory-pair verdict, and the verdict.
#[derive(Debug, Clone, Copy)]
pub struct PairAnswer {
    pub gcc: bool,
    pub hli: bool,
    /// The mode's combination: may the two accesses conflict?
    pub conflict: bool,
}

/// The dependence oracle of one function: GCC's rule, the optional HLI,
/// the mode table and Table 2's counters (see the module docs).
pub struct MemDisambiguator<'a> {
    hli: Option<HliSide<'a>>,
    mode: DepMode,
    /// Table 2's counters over every question asked so far.
    pub stats: QueryStats,
}

impl<'a> MemDisambiguator<'a> {
    pub fn new(hli: Option<HliSide<'a>>, mode: DepMode) -> Self {
        MemDisambiguator { hli, mode, stats: QueryStats::default() }
    }

    /// True when HLI is consulted; passes write provenance only then.
    pub fn has_hli(&self) -> bool {
        self.hli.is_some()
    }

    /// The HLI item an instruction carries (`None` without HLI).
    pub fn item(&self, insn: InsnId) -> Option<ItemId> {
        self.hli.and_then(|s| s.map.item_of(insn))
    }

    /// The id of the region owning `item`, for provenance records.
    pub fn region(&self, item: Option<ItemId>) -> Option<u32> {
        let s = self.hli?;
        item.and_then(|it| s.query.owner_of(it)).map(|r| r.0)
    }

    /// Position in the query log; pair with
    /// [`queries_since`](Self::queries_since) to cite the queries one
    /// decision consumed (always 0 without HLI).
    pub fn mark(&self) -> usize {
        self.hli.map_or(0, |s| s.query.query_mark())
    }

    /// The query ids stamped since `mark` (empty unless provenance is on).
    pub fn queries_since(&self, mark: usize) -> Vec<QueryRef> {
        self.hli.map_or_else(Vec::new, |s| s.query.queries_since(mark))
    }

    /// May `a` and `b` touch the same location within one iteration?
    pub fn pair(&mut self, a: Access, b: Access) -> PairAnswer {
        let gcc = gccdep::may_conflict(&a.mem, &b.mem);
        let hli = match self.items(a.item, b.item) {
            Some((q, x, y)) => q.get_equiv_acc(x, y).may_overlap(),
            None => true,
        };
        self.combine(gcc, hli)
    }

    /// May `store` conflict with `load` in any iteration of their loop?
    /// Same-iteration overlap or any loop-carried arc blocks a hoist.
    pub fn hoist(&mut self, load: Access, store: Access) -> bool {
        let gcc = gccdep::may_conflict(&load.mem, &store.mem);
        let hli = match self.items(load.item, store.item) {
            Some((q, x, y)) => q.get_equiv_acc(x, y).may_overlap() || q.get_lcdd(x, y).is_some(),
            None => true,
        };
        self.combine(gcc, hli).conflict
    }

    /// May the call carrying item `call` touch the access carrying `mem`?
    /// A read conflicts when the call may modify the location; a write
    /// (`writes`) also when the call may reference it.
    pub fn call(&mut self, mem: Option<ItemId>, call: Option<ItemId>, writes: bool) -> bool {
        self.stats.call_queries += 1;
        let hli = match self.items(mem, call) {
            Some((q, m, c)) => {
                let acc = q.get_call_acc(m, c);
                acc.may_modify() || (writes && acc.may_reference())
            }
            None => true,
        };
        match self.mode {
            DepMode::GccOnly => true,
            DepMode::HliOnly | DepMode::Combined => hli,
        }
    }

    /// The query view and both items, when HLI can answer at all.
    fn items(
        &self,
        a: Option<ItemId>,
        b: Option<ItemId>,
    ) -> Option<(&'a CachedQuery<'a>, ItemId, ItemId)> {
        Some((self.hli?.query, a?, b?))
    }

    /// Count one memory-pair test and apply the mode table.
    fn combine(&mut self, gcc: bool, hli: bool) -> PairAnswer {
        let s = &mut self.stats;
        s.total_tests += 1;
        s.gcc_yes += gcc as u64;
        s.hli_yes += hli as u64;
        s.combined_yes += (gcc && hli) as u64;
        let conflict = match self.mode {
            DepMode::GccOnly => gcc,
            DepMode::HliOnly => hli,
            DepMode::Combined => gcc && hli,
        };
        PairAnswer { gcc, hli, conflict }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::blocks;
    use crate::cse::cse_function;
    use crate::ddg::build_block_ddg;
    use crate::licm::licm_function;
    use crate::lower::lower_program;
    use crate::mapping::map_function;
    use crate::rtl::{BaseAddr, Op};
    use hli_frontend::generate_hli;
    use hli_lang::compile_to_ast;

    /// `h` is stored between two loads of `g` in the entry block, and in a
    /// loop that loads `g` every iteration. GCC proves `g` and `h`
    /// independent (distinct named globals); with the items of `h`'s
    /// stores unbound, HLI can only answer "unknown".
    const PROBE: &str = "int g; int h; int a[8];\n\
        int main() {\n\
          int i; int x; int y;\n\
          x = g; h = 1; y = g;\n\
          for (i = 0; i < 8; i++) { a[i] = g; h = i; }\n\
          return x + y + h;\n\
        }";

    #[test]
    fn every_pass_reads_one_mode_table() {
        let (p, s) = compile_to_ast(PROBE).unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap();
        let hli = generate_hli(&p, &s);
        let entry = hli.entry("main").unwrap();
        let mut map = map_function(f, entry);
        let scalar_stores = f.insns.iter().filter(|i| {
            matches!(i.op, Op::Store(m, _) if matches!(m.base, BaseAddr::Sym(_)) && m.index.is_none())
        });
        for insn in scalar_stores {
            let item = map.item_of(insn.id).expect("h's store is mapped");
            map.unbind_item(item);
        }
        let mach = hli_lir::TableBackend::scalar();
        // GCC's "independent" decides everywhere except under HliOnly,
        // where the unknown store orders, purges and blocks.
        for (mode, independent) in [
            (DepMode::GccOnly, true),
            (DepMode::HliOnly, false),
            (DepMode::Combined, true),
        ] {
            let cache = hli_core::QueryCache::new();
            let q = cache.attach(entry);
            let mut disamb = MemDisambiguator::new(Some(HliSide { query: &q, map: &map }), mode);
            let edges = build_block_ddg(f, &blocks(f)[0], &mut disamb).mem_edges;
            assert_eq!(edges, if independent { 0 } else { 2 }, "DDG under {mode:?}");
            let cse = cse_function(f, Some((&mut entry.clone(), &mut map.clone())), mode, &mach);
            assert_eq!(cse.loads_eliminated, independent as usize, "CSE under {mode:?}");
            let licm = licm_function(f, Some((&mut entry.clone(), &mut map.clone())), mode, &mach);
            assert_eq!(licm.hoisted, independent as usize, "LICM under {mode:?}");
        }
    }
}
