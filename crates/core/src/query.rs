//! The HLI query interface (Section 3.2.2 of the paper).
//!
//! *"To provide a common interface across different back-ends, the stored
//! HLI can be retrieved only via a set of query functions. There are five
//! basic query functions that can be used to construct more complex query
//! functions."*
//!
//! The five basic queries here are:
//!
//! 1. [`HliQuery::get_equiv_acc`] — may two items access the same memory
//!    location within one iteration? (the paper's `HLI_GetEquivAcc`,
//!    Figure 5); folds in the alias table, since aliased classes may
//!    overlap.
//! 2. [`HliQuery::get_alias`] — the raw alias-table relation between two
//!    classes of a region.
//! 3. [`HliQuery::get_lcdd`] — the loop-carried dependence (kind and
//!    distance) between two items with respect to a loop region.
//! 4. [`HliQuery::get_call_acc`] — how a call affects a memory item (the
//!    paper's `HLI_GetCallAcc`, Figure 4).
//! 5. [`HliQuery::region_info`] / [`HliQuery::region_of_item`] — region
//!    structure lookups (scope, kind, nesting) that scheduling heuristics
//!    consume.
//!
//! All answers distinguish *"the tables say no"* ([`EquivAcc::None`]) from
//! *"the HLI cannot answer"* ([`EquivAcc::Unknown`]); the paper attributes
//! part of its HLI-vs-combined gap to exactly these unknowns (Section 4.2).
//!
//! Every call increments its `hli.query.*` counter (`get_equiv_acc`,
//! `get_alias`, `get_lcdd`, `get_call_acc`, `region_info`) in the active
//! metrics registry; the `obsreport` harness bin reads those counters as
//! the *cost* side of its per-HLI-table benefit/cost rollup, and, while a
//! provenance sink is active, each call stamps a query id that decision
//! records cite — see docs/QUERYBOOK.md ("What each query costs, and what
//! it buys") for the query→table map.

use crate::ids::{ItemId, RegionId, UNIT_REGION};
use crate::tables::*;
use hli_obs::provenance::{self, QueryRef};
use hli_obs::Counter;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Answer of an equivalent-access query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquivAcc {
    /// The two items definitely access the same location (each iteration).
    Definite,
    /// They may access the same location.
    Maybe,
    /// They definitely do not overlap (within one iteration).
    None,
    /// The HLI has no information (e.g. an unmapped item).
    Unknown,
}

impl EquivAcc {
    /// The Figure-5 collapse: does this answer force a dependence edge?
    pub fn may_overlap(self) -> bool {
        !matches!(self, EquivAcc::None)
    }
}

/// Answer of a call REF/MOD query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallAcc {
    /// The call does not touch the item's memory.
    None,
    /// The call may read it.
    Ref,
    /// The call may write it.
    Mod,
    /// The call may read and write it.
    RefMod,
    /// No REF/MOD entry covers this call — assume the worst.
    Unknown,
}

impl CallAcc {
    /// May the call write the location (the Figure-4 purge condition)?
    pub fn may_modify(self) -> bool {
        matches!(self, CallAcc::Mod | CallAcc::RefMod | CallAcc::Unknown)
    }

    /// May the call read the location?
    pub fn may_reference(self) -> bool {
        matches!(self, CallAcc::Ref | CallAcc::RefMod | CallAcc::Unknown)
    }
}

/// A resolved loop-carried dependence between two items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcddAnswer {
    /// Definite or maybe.
    pub kind: DepKind,
    /// Iteration distance of the dependence.
    pub distance: Distance,
    /// True if the dependence runs from `b` to `a` (the query argument
    /// order was against the normalized `>` direction).
    pub reversed: bool,
}

/// Prebuilt index over one [`HliEntry`] answering the basic queries in
/// (amortized) constant time. Construction is a single bottom-up pass —
/// this is the "hash table constructed as the mapping procedure proceeds"
/// of Section 3.2.1.
pub struct HliQuery<'a> {
    entry: &'a HliEntry,
    /// Per region: item → the class representing it at that region.
    class_at: Vec<HashMap<ItemId, ItemId>>,
    /// Per region: class id → kind.
    class_kind: Vec<HashMap<ItemId, EquivKind>>,
    /// Per region: unordered aliased class pairs.
    alias_pairs: Vec<HashSet<(ItemId, ItemId)>>,
    /// Item → innermost region that directly owns it.
    owner: HashMap<ItemId, RegionId>,
    /// Item → (line, type).
    item_info: HashMap<ItemId, (u32, ItemType)>,
    /// Call item → its direct region: the one whose call REF/MOD table
    /// names it as an `Item`, falling back to innermost line scope for
    /// calls named by no table (hand-built entries).
    call_region: HashMap<ItemId, RegionId>,
    /// Per-query call counters (`hli.query.*`), resolved once at index
    /// construction so each query pays one relaxed atomic add.
    counters: QueryCounters,
    /// True when a provenance sink was active at construction: every basic
    /// query then stamps a process-monotonic id into `qlog`, so optimizing
    /// passes can cite the exact query chain behind a decision (see
    /// [`HliQuery::query_mark`] / [`HliQuery::queries_since`]).
    prov_active: bool,
    qlog: RefCell<Vec<QueryRef>>,
}

/// Cached `hli.query.*` counter handles, one per basic query function.
struct QueryCounters {
    equiv_acc: Counter,
    alias: Counter,
    lcdd: Counter,
    call_acc: Counter,
    region_info: Counter,
}

impl QueryCounters {
    fn new() -> Self {
        let r = hli_obs::metrics::cur();
        QueryCounters {
            equiv_acc: r.counter("hli.query.get_equiv_acc"),
            alias: r.counter("hli.query.get_alias"),
            lcdd: r.counter("hli.query.get_lcdd"),
            call_acc: r.counter("hli.query.get_call_acc"),
            region_info: r.counter("hli.query.region_info"),
        }
    }
}

impl<'a> HliQuery<'a> {
    /// Build the index over one entry (a single bottom-up pass that reads
    /// every table once).
    pub fn new(entry: &'a HliEntry) -> Self {
        let n = entry.regions.len();
        let mut class_at: Vec<HashMap<ItemId, ItemId>> = vec![HashMap::new(); n];
        let mut class_kind: Vec<HashMap<ItemId, EquivKind>> = vec![HashMap::new(); n];
        let mut alias_pairs: Vec<HashSet<(ItemId, ItemId)>> = vec![HashSet::new(); n];
        let mut owner = HashMap::new();

        // Children always have larger ids than their parents (regions are
        // appended during a top-down construction), so a reverse id sweep
        // is a bottom-up traversal.
        for (idx, r) in entry.regions.iter().enumerate().rev() {
            for c in &r.equiv_classes {
                class_kind[idx].insert(c.id, c.kind);
                for m in &c.members {
                    match *m {
                        MemberRef::Item(it) => {
                            class_at[idx].insert(it, c.id);
                            owner.insert(it, r.id);
                        }
                        MemberRef::SubClass { region, class } => {
                            let sub: Vec<ItemId> = class_at[region.0 as usize]
                                .iter()
                                .filter(|(_, cls)| **cls == class)
                                .map(|(it, _)| *it)
                                .collect();
                            for it in sub {
                                class_at[idx].insert(it, c.id);
                            }
                        }
                    }
                }
            }
            for a in &r.alias_table {
                let classes = &a.classes;
                for i in 0..classes.len() {
                    for j in i + 1..classes.len() {
                        let (x, y) = (classes[i].min(classes[j]), classes[i].max(classes[j]));
                        alias_pairs[idx].insert((x, y));
                    }
                }
            }
        }

        // A call belongs to the region whose REF/MOD table names it as a
        // direct `CallRef::Item`. Deriving this from the call's source line
        // instead is wrong: one line can span several regions (a loop body
        // plus the statements after the closing brace), and a misattributed
        // call makes the LCA walk in `get_call_acc` match another call's
        // SubRegion summary — answering `None` for locations the call does
        // modify.
        let mut call_region = HashMap::new();
        for r in &entry.regions {
            for crm in &r.call_refmod {
                if let CallRef::Item(it) = crm.callee {
                    call_region.entry(it).or_insert(r.id);
                }
            }
        }
        let mut item_info = HashMap::new();
        for (line, it) in entry.line_table.items() {
            item_info.insert(it.id, (line, it.ty));
            if it.ty == ItemType::Call {
                call_region
                    .entry(it.id)
                    .or_insert_with(|| innermost_region_by_line(entry, line));
            }
        }

        HliQuery {
            entry,
            class_at,
            class_kind,
            alias_pairs,
            owner,
            item_info,
            call_region,
            counters: QueryCounters::new(),
            prov_active: provenance::active().is_some(),
            qlog: RefCell::new(Vec::new()),
        }
    }

    /// Stamp one query id into the log (no-op unless a provenance sink was
    /// active when this index was built, so plain runs pay one branch).
    fn stamp(&self) {
        if self.prov_active {
            self.qlog.borrow_mut().push(provenance::next_query_id());
        }
    }

    /// Position marker into the query log; pair with
    /// [`HliQuery::queries_since`] to capture the chain of basic queries a
    /// single optimization decision consumed.
    pub fn query_mark(&self) -> usize {
        self.qlog.borrow().len()
    }

    /// The ids stamped since `mark`, in issue order.
    pub fn queries_since(&self, mark: usize) -> Vec<QueryRef> {
        let log = self.qlog.borrow();
        log[mark.min(log.len())..].to_vec()
    }

    /// True when a provenance sink was active at construction. The
    /// memoization layer ([`crate::cache::CachedQuery`]) bypasses its memo
    /// tables in that case so every decision still cites a freshly-stamped
    /// query chain.
    pub fn provenance_active(&self) -> bool {
        self.prov_active
    }

    /// Basic query 5a: region metadata (id, kind, parent, scope; the
    /// region's tables are reached through the other four queries).
    pub fn region_info(&self, r: RegionId) -> &'a Region {
        self.counters.region_info.inc();
        self.stamp();
        self.entry.region(r)
    }

    /// Basic query 5b: the innermost region owning an item (for call items,
    /// the innermost region whose scope covers the call's line).
    pub fn region_of_item(&self, item: ItemId) -> Option<RegionId> {
        self.counters.region_info.inc();
        self.stamp();
        self.owner_of(item)
    }

    /// Like [`Self::region_of_item`] but without counting or stamping a
    /// query id: provenance recording itself uses this to attribute a
    /// decision to a region, and must not perturb `hli.query.*` totals.
    pub fn owner_of(&self, item: ItemId) -> Option<RegionId> {
        self.owner.get(&item).or_else(|| self.call_region.get(&item)).copied()
    }

    /// Line and access type of an item.
    pub fn item_info(&self, item: ItemId) -> Option<(u32, ItemType)> {
        self.item_info.get(&item).copied()
    }

    /// The class representing `item` at `region`, if the item is inside it.
    pub fn class_of_item_at(&self, region: RegionId, item: ItemId) -> Option<ItemId> {
        self.class_at[region.0 as usize].get(&item).copied()
    }

    /// Basic query 1 (`HLI_GetEquivAcc`): may two memory items touch the
    /// same location within a single iteration of every enclosing loop?
    pub fn get_equiv_acc(&self, a: ItemId, b: ItemId) -> EquivAcc {
        self.counters.equiv_acc.inc();
        self.stamp();
        if a == b {
            return EquivAcc::Definite;
        }
        let (Some(&ra), Some(&rb)) = (self.owner.get(&a), self.owner.get(&b)) else {
            return EquivAcc::Unknown;
        };
        let lca = self.entry.region_lca(ra, rb);
        let l = lca.0 as usize;
        let (Some(&ca), Some(&cb)) = (self.class_at[l].get(&a), self.class_at[l].get(&b)) else {
            return EquivAcc::Unknown;
        };
        if ca == cb {
            return match self.class_kind[l].get(&ca) {
                Some(EquivKind::Definite) => EquivAcc::Definite,
                Some(EquivKind::Maybe) => EquivAcc::Maybe,
                None => EquivAcc::Unknown,
            };
        }
        if self.get_alias(lca, ca, cb) {
            return EquivAcc::Maybe;
        }
        EquivAcc::None
    }

    /// Basic query 2: are two classes of `region` listed as aliased?
    pub fn get_alias(&self, region: RegionId, ca: ItemId, cb: ItemId) -> bool {
        self.counters.alias.inc();
        self.stamp();
        let key = (ca.min(cb), ca.max(cb));
        self.alias_pairs[region.0 as usize].contains(&key)
    }

    /// Basic query 3: the loop-carried dependence between two items with
    /// respect to the innermost loop enclosing both. Returns `None` when
    /// the table has no arc between their classes.
    pub fn get_lcdd(&self, a: ItemId, b: ItemId) -> Option<LcddAnswer> {
        self.counters.lcdd.inc();
        self.stamp();
        let (&ra, &rb) = (self.owner.get(&a)?, self.owner.get(&b)?);
        let lca = self.entry.region_lca(ra, rb);
        self.get_lcdd_at(lca, a, b)
    }

    /// Like [`Self::get_lcdd`] but against an explicit loop region.
    pub fn get_lcdd_at(&self, region: RegionId, a: ItemId, b: ItemId) -> Option<LcddAnswer> {
        let l = region.0 as usize;
        let (&ca, &cb) = (self.class_at[l].get(&a)?, self.class_at[l].get(&b)?);
        for e in &self.entry.region(region).lcdd_table {
            if e.src == ca && e.dst == cb {
                return Some(LcddAnswer { kind: e.kind, distance: e.distance, reversed: false });
            }
            if e.src == cb && e.dst == ca {
                return Some(LcddAnswer { kind: e.kind, distance: e.distance, reversed: true });
            }
        }
        None
    }

    /// Basic query 4 (`HLI_GetCallAcc`): how does `call` affect the memory
    /// accessed by `mem`?
    pub fn get_call_acc(&self, mem: ItemId, call: ItemId) -> CallAcc {
        self.counters.call_acc.inc();
        self.stamp();
        let Some(&rmem) = self.owner.get(&mem) else { return CallAcc::Unknown };
        let Some(&rcall) = self.call_region.get(&call) else { return CallAcc::Unknown };
        let lca = self.entry.region_lca(rmem, rcall);
        let call_path = self.entry.region_path(rcall);
        // Search outward from the LCA: a region that records no entry for
        // this call defers to its ancestors (whose classes also represent
        // the item — coarser, still sound).
        let mut region = Some(lca);
        while let Some(cur) = region {
            let l = cur.0 as usize;
            // The entry is keyed by the call item when the call is directly
            // in `cur`, else by `cur`'s child on the path down to the call.
            let callee_ref = if rcall == cur {
                CallRef::Item(call)
            } else {
                let pos = call_path.iter().position(|&r| r == cur).expect("on path");
                CallRef::SubRegion(call_path[pos + 1])
            };
            let region_entry = self.entry.region(cur);
            if let Some(entry) = region_entry.call_refmod.iter().find(|c| c.callee == callee_ref) {
                let Some(&cmem) = self.class_at[l].get(&mem) else {
                    return CallAcc::Unknown;
                };
                let r = entry.refs.contains(&cmem);
                let m = entry.mods.contains(&cmem);
                return match (r, m) {
                    (false, false) => CallAcc::None,
                    (true, false) => CallAcc::Ref,
                    (false, true) => CallAcc::Mod,
                    (true, true) => CallAcc::RefMod,
                };
            }
            region = region_entry.parent;
        }
        CallAcc::Unknown
    }
}

/// Innermost region whose line scope contains `line`.
fn innermost_region_by_line(entry: &HliEntry, line: u32) -> RegionId {
    let mut best = UNIT_REGION;
    let mut best_width = u32::MAX;
    for r in &entry.regions {
        let (lo, hi) = r.scope;
        if lo <= line && line <= hi {
            let width = hi - lo;
            if width < best_width || (width == best_width && r.id.0 > best.0) {
                best = r.id;
                best_width = width;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::tests::figure2_like;

    fn q(entry: &HliEntry) -> HliQuery<'_> {
        HliQuery::new(entry)
    }

    #[test]
    fn same_item_is_definite() {
        let e = figure2_like();
        let qx = q(&e);
        assert_eq!(qx.get_equiv_acc(ItemId(0), ItemId(0)), EquivAcc::Definite);
    }

    #[test]
    fn same_class_same_region_definite() {
        let e = figure2_like();
        let qx = q(&e);
        // Items 9 & 10: sum load/store in region 4 — same definite class.
        assert_eq!(qx.get_equiv_acc(ItemId(9), ItemId(10)), EquivAcc::Definite);
        // Items 5 & 7: b[j] load/store.
        assert_eq!(qx.get_equiv_acc(ItemId(5), ItemId(7)), EquivAcc::Definite);
    }

    #[test]
    fn different_classes_no_alias_none() {
        let e = figure2_like();
        let qx = q(&e);
        // b[j] vs b[j-1] within region 4: distinct classes, no alias entry
        // in region 4 (the LCDD covers the cross-iteration case).
        assert_eq!(qx.get_equiv_acc(ItemId(5), ItemId(6)), EquivAcc::None);
        // sum vs a[i] never overlap.
        assert_eq!(qx.get_equiv_acc(ItemId(9), ItemId(8)), EquivAcc::None);
    }

    #[test]
    fn aliased_classes_maybe() {
        let e = figure2_like();
        let qx = q(&e);
        // b[0] (item 3, region 3) vs b[j] (item 5, region 4): LCA is region
        // 3 where b[0] and b[0..9] are aliased.
        assert_eq!(qx.get_equiv_acc(ItemId(3), ItemId(5)), EquivAcc::Maybe);
    }

    #[test]
    fn cross_region_same_variable_maybe_via_parent_kind() {
        let e = figure2_like();
        let qx = q(&e);
        // a[i] in region 2 (item 1) vs a[i] in region 3 (item 4): LCA is the
        // unit where class a[0..9] is Maybe.
        assert_eq!(qx.get_equiv_acc(ItemId(1), ItemId(4)), EquivAcc::Maybe);
        // sum in region 2 (item 0) vs sum in region 4 (item 9): the unit
        // class for sum is Definite.
        assert_eq!(qx.get_equiv_acc(ItemId(0), ItemId(9)), EquivAcc::Definite);
    }

    #[test]
    fn unknown_for_unindexed_item() {
        let e = figure2_like();
        let qx = q(&e);
        assert_eq!(qx.get_equiv_acc(ItemId(0), ItemId(999)), EquivAcc::Unknown);
        assert!(EquivAcc::Unknown.may_overlap());
        assert!(!EquivAcc::None.may_overlap());
    }

    #[test]
    fn lcdd_lookup_both_directions() {
        let e = figure2_like();
        let qx = q(&e);
        // b[j] (5) → b[j-1] (6), distance 1, region 4.
        let fwd = qx.get_lcdd(ItemId(5), ItemId(6)).unwrap();
        assert_eq!(fwd.distance, Distance::Const(1));
        assert!(!fwd.reversed);
        let rev = qx.get_lcdd(ItemId(6), ItemId(5)).unwrap();
        assert!(rev.reversed);
        // No LCDD between sum items.
        assert!(qx.get_lcdd(ItemId(9), ItemId(10)).is_none());
    }

    #[test]
    fn region_of_item_and_info() {
        let e = figure2_like();
        let qx = q(&e);
        assert_eq!(qx.region_of_item(ItemId(5)), Some(RegionId(3)));
        assert_eq!(qx.item_info(ItemId(7)), Some((20, ItemType::Store)));
        assert!(qx.region_info(RegionId(3)).is_loop());
    }

    #[test]
    fn call_refmod_queries() {
        let mut e = figure2_like();
        // Add a call on line 13 (inside region 2's loop) and REF/MOD info
        // at region 2: the call may modify the "sum" class, not "a[i]".
        let call = e.fresh_id();
        e.line_table.push_item(13, ItemEntry { id: call, ty: ItemType::Call });
        let r2 = RegionId(1);
        e.region_mut(r2).scope = (12, 14);
        e.region_mut(RegionId(2)).scope = (16, 21);
        e.region_mut(RegionId(3)).scope = (19, 21);
        let (c_sum, c_ai) = {
            let r = e.region(r2);
            (r.equiv_classes[0].id, r.equiv_classes[1].id)
        };
        e.region_mut(r2).call_refmod.push(CallRefMod {
            callee: CallRef::Item(call),
            refs: vec![c_sum],
            mods: vec![c_sum],
        });
        let qx = q(&e);
        // Item 0 is sum in region 2.
        assert_eq!(qx.get_call_acc(ItemId(0), call), CallAcc::RefMod);
        // Item 1 is a[i] in region 2: entry exists, class not listed.
        assert_eq!(qx.get_call_acc(ItemId(1), call), CallAcc::None);
        let _ = c_ai;
        assert!(CallAcc::RefMod.may_modify() && CallAcc::RefMod.may_reference());
        assert!(!CallAcc::None.may_modify());
        assert!(CallAcc::Unknown.may_modify());
    }

    #[test]
    fn call_refmod_via_subregion_entry() {
        let mut e = figure2_like();
        // Call inside region 4 (line 20, innermost = RegionId(3)); REF/MOD
        // listed at region 3 (RegionId(2)) under the child on the path:
        // region 4 (RegionId(3)). It modifies b[0..9].
        let call = e.fresh_id();
        e.line_table.push_item(20, ItemEntry { id: call, ty: ItemType::Call });
        e.region_mut(RegionId(0)).scope = (10, 22);
        e.region_mut(RegionId(1)).scope = (12, 14);
        e.region_mut(RegionId(2)).scope = (16, 21);
        e.region_mut(RegionId(3)).scope = (19, 21);
        let c3_ball = e
            .region(RegionId(2))
            .equiv_classes
            .iter()
            .find(|c| c.name_hint == "b[0..9]")
            .unwrap()
            .id;
        e.region_mut(RegionId(2)).call_refmod.push(CallRefMod {
            callee: CallRef::SubRegion(RegionId(3)),
            refs: vec![],
            mods: vec![c3_ball],
        });
        let qx = q(&e);
        // Item 3 (b[0], region 3): entry exists at the LCA (region 3) and
        // b[0]'s class is not listed.
        assert_eq!(qx.get_call_acc(ItemId(3), call), CallAcc::None);
        // Item 5 (b[j], region 4): resolves to b[0..9] at region 3 → Mod.
        assert_eq!(qx.get_call_acc(ItemId(5), call), CallAcc::Mod);
        // Item 0 (sum, first loop): LCA is the unit, which has no entry.
        assert_eq!(qx.get_call_acc(ItemId(0), call), CallAcc::Unknown);
    }

    #[test]
    fn call_without_refmod_entry_is_unknown() {
        let mut e = figure2_like();
        let call = e.fresh_id();
        e.line_table.push_item(13, ItemEntry { id: call, ty: ItemType::Call });
        e.region_mut(RegionId(1)).scope = (12, 14);
        let qx = q(&e);
        assert_eq!(qx.get_call_acc(ItemId(0), call), CallAcc::Unknown);
    }

    #[test]
    fn queries_stamp_ids_only_under_a_provenance_sink() {
        use hli_obs::provenance::{self, ProvenanceSink};
        use std::sync::Arc;
        let e = figure2_like();
        // No sink: nothing is stamped.
        let plain = q(&e);
        let _ = plain.get_equiv_acc(ItemId(5), ItemId(6));
        assert!(plain.queries_since(0).is_empty());
        // Scoped sink: every basic query stamps a monotonic id, including
        // the alias query issued internally by get_equiv_acc.
        let sink = Arc::new(ProvenanceSink::new());
        let _g = provenance::scoped(sink);
        let lo = provenance::query_id_watermark();
        let qx = q(&e);
        let mark = qx.query_mark();
        let _ = qx.get_equiv_acc(ItemId(5), ItemId(6));
        let ids = qx.queries_since(mark);
        assert_eq!(ids.len(), 2, "equiv_acc over distinct classes also asks get_alias");
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let hi = provenance::query_id_watermark();
        assert!(ids.iter().all(|i| i.0 >= lo && i.0 < hi));
        // owner_of neither counts nor stamps.
        let mark2 = qx.query_mark();
        assert_eq!(qx.owner_of(ItemId(5)), Some(RegionId(3)));
        assert!(qx.queries_since(mark2).is_empty());
    }

    #[test]
    fn class_resolution_propagates_to_unit() {
        let e = figure2_like();
        let qx = q(&e);
        // Item 5 (b[j], region 4) resolves at the unit region to b[0..9].
        let c = qx.class_of_item_at(UNIT_REGION, ItemId(5)).unwrap();
        let unit = e.region(UNIT_REGION);
        assert_eq!(unit.class(c).unwrap().name_hint, "b[0..9]");
    }
}
