//! HLI maintenance functions (Section 3.2.3 of the paper).
//!
//! As the back-end optimizes, memory references are deleted (CSE), moved
//! (loop-invariant code motion) or duplicated (loop unrolling), and the HLI
//! must be updated to stay consistent:
//!
//! * [`delete_item`] — CSE removed a memory reference: drop the item,
//!   collapsing classes that become empty (and their upward references);
//! * [`gen_item_like`] — a pass materialized a new memory reference that
//!   accesses the same location as an existing one: allocate a new item
//!   *inheriting* the prototype's class membership;
//! * [`move_item_to_region`] — LICM hoisted a reference out of a loop:
//!   re-home the item into an ancestor region's corresponding class;
//! * [`unroll_loop`] — the Figure 6 update: replicate the loop body's items
//!   and classes per unrolled copy, remap each LCDD arc `(src, dst, d)` to
//!   copies `k → (k+d) mod u` with new distance `(k+d) div u` (distance-0
//!   results become intra-iteration alias entries), and optionally build a
//!   preconditioning (remainder) loop region with the original dependence
//!   structure.
//!
//! Every successful operation bumps [`HliEntry::bump_generation`]. Only
//! the serve cache key reads the generation (`hli_serve::key` hashes it
//! next to the unit's bytes). Failed operations leave both the entry and
//! its generation unchanged.

use crate::ids::{ItemId, RegionId};
use crate::tables::*;
use std::collections::HashMap;
use std::fmt;

/// A maintenance-operation failure. The entry is left unchanged on error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaintainError(pub String);

impl fmt::Display for MaintainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "HLI maintenance error: {}", self.0)
    }
}

impl std::error::Error for MaintainError {}

fn err<T>(msg: impl Into<String>) -> Result<T, MaintainError> {
    Err(MaintainError(msg.into()))
}

/// Record one completed maintenance operation with the active provenance
/// sink (no-op when provenance is off). Maintenance is the
/// invalidation/regeneration side of the audit trail: it explains why a
/// later query's answer changed.
fn prov_applied(e: &HliEntry, op: &str, region: Option<RegionId>, line: u32) {
    if let Some(sink) = hli_obs::provenance::active() {
        sink.record(hli_obs::DecisionRecord {
            pass: format!("maintain.{op}"),
            function: e.unit_name.clone(),
            region_id: region.map(|r| r.0),
            order: line,
            // Maintenance keeps tables consistent rather than making an
            // optimization decision: no causal span, no benefit estimate.
            span: 0,
            est_cycles: 0,
            hli_queries: Vec::new(),
            verdict: hli_obs::Verdict::Applied,
        });
    }
}

/// Delete an item (e.g. CSE eliminated its memory reference). Classes that
/// become empty are removed, and every table referencing them is cleaned,
/// cascading upward through enclosing regions.
pub fn delete_item(e: &mut HliEntry, id: ItemId) -> Result<(), MaintainError> {
    hli_obs::metrics::cur().counter("hli.maintain.delete_item").inc();
    let line = e.line_table.find(id).map(|(l, _)| l).unwrap_or(0);
    if !e.line_table.remove_item(id) {
        return err(format!("item {id} not in line table"));
    }
    let Some(region) = e.owning_region(id) else {
        // Call items are not class members, but their REF/MOD entries must
        // not dangle.
        for r in &mut e.regions {
            r.call_refmod.retain(|c| c.callee != CallRef::Item(id));
        }
        e.bump_generation();
        prov_applied(e, "delete_item", None, line);
        return Ok(());
    };
    let class = class_of_direct_item(e, region, id).expect("owning class");
    let r = e.region_mut(region);
    let c = r.class_mut(class).unwrap();
    c.members.retain(|m| !matches!(m, MemberRef::Item(i) if *i == id));
    cleanup_if_empty(e, region, class);
    e.bump_generation();
    prov_applied(e, "delete_item", Some(region), line);
    Ok(())
}

/// Generate a new item that *inherits* the class membership (and therefore
/// every dependence/alias fact) of `proto`. The new item is appended to
/// `line`'s item list with access type `ty`. Returns the new item's ID.
pub fn gen_item_like(
    e: &mut HliEntry,
    proto: ItemId,
    line: u32,
    ty: ItemType,
) -> Result<ItemId, MaintainError> {
    hli_obs::metrics::cur().counter("hli.maintain.gen_item").inc();
    let Some(region) = e.owning_region(proto) else {
        return err(format!("prototype {proto} has no owning class"));
    };
    let class = class_of_direct_item(e, region, proto).expect("owning class");
    let id = e.fresh_id();
    e.line_table.push_item(line, ItemEntry { id, ty });
    e.region_mut(region).class_mut(class).unwrap().members.push(MemberRef::Item(id));
    e.bump_generation();
    prov_applied(e, "gen_item", Some(region), line);
    Ok(id)
}

/// Move an item to an ancestor region (LICM hoisted it out of a loop). The
/// item joins the class that already represents it at `target` and is
/// re-keyed in the line table to `new_line`.
pub fn move_item_to_region(
    e: &mut HliEntry,
    id: ItemId,
    target: RegionId,
    new_line: u32,
) -> Result<(), MaintainError> {
    hli_obs::metrics::cur().counter("hli.maintain.move_item").inc();
    let Some(cur) = e.owning_region(id) else {
        return err(format!("item {id} has no owning class"));
    };
    if cur == target {
        return err(format!("item {id} already owned by region {target}"));
    }
    if !e.region_path(cur).contains(&target) {
        return err(format!("region {target} is not an ancestor of {cur}"));
    }
    let Some((_, ty)) = e.line_table.find(id) else {
        return err(format!("item {id} not in line table"));
    };
    // The class representing the item at the target region.
    let Some(target_class) = resolve_class_at(e, target, id) else {
        return err(format!("item {id} has no class at region {target}"));
    };
    // Add to the target class first so cleanup can never remove it.
    e.region_mut(target)
        .class_mut(target_class)
        .unwrap()
        .members
        .push(MemberRef::Item(id));
    // Then detach from the inner class and cascade-clean.
    let inner_class = class_of_direct_item(e, cur, id).expect("owning class");
    e.region_mut(cur)
        .class_mut(inner_class)
        .unwrap()
        .members
        .retain(|m| !matches!(m, MemberRef::Item(i) if *i == id));
    cleanup_if_empty(e, cur, inner_class);
    // Re-key the line table.
    e.line_table.remove_item(id);
    e.line_table.push_item(new_line, ItemEntry { id, ty });
    e.bump_generation();
    prov_applied(e, "move_item", Some(target), new_line);
    Ok(())
}

/// Maps from original item/class IDs to their copies after unrolling.
#[derive(Debug, Clone, Default)]
pub struct UnrollMaps {
    /// `body_items[k]` maps an original item to its copy in unrolled body
    /// copy `k+1` (copy 0 is the original itself).
    pub body_items: Vec<HashMap<ItemId, ItemId>>,
    /// Item map for the preconditioning (remainder) loop, if one was built.
    pub precond_items: HashMap<ItemId, ItemId>,
    /// The preconditioning region, if built.
    pub precond_region: Option<RegionId>,
}

/// Unroll a loop region by `factor` (Figure 6 of the paper). Restricted to
/// innermost loops (no sub-regions) — the shape the back-end unroller
/// handles. Items and classes are replicated per copy; LCDD arcs are
/// remapped with the `(k+d) mod u` / `(k+d) div u` rule; distance-0 results
/// become intra-iteration alias entries. When `make_precond` is set, a
/// remainder loop region with the original dependence structure is added
/// after the unrolled loop.
pub fn unroll_loop(
    e: &mut HliEntry,
    region: RegionId,
    factor: u32,
    make_precond: bool,
) -> Result<UnrollMaps, MaintainError> {
    hli_obs::metrics::cur().counter("hli.maintain.unroll_loop").inc();
    if factor < 2 {
        return err("unroll factor must be at least 2");
    }
    let r = e.region(region);
    if !r.is_loop() {
        return err(format!("region {region} is not a loop"));
    }
    if !r.subregions.is_empty() {
        return err(format!("region {region} has sub-regions (only innermost loops unroll)"));
    }
    let parent = r.parent.expect("loops have parents");
    let kind = r.kind;
    let scope = r.scope;
    let orig_classes: Vec<EquivClass> = r.equiv_classes.clone();
    let orig_alias: Vec<AliasEntry> = r.alias_table.clone();
    let orig_lcdd: Vec<LcddEntry> = r.lcdd_table.clone();

    // Direct items of the region, with their line-table info, in line order.
    let mut direct_items: Vec<(ItemId, u32, ItemType)> = Vec::new();
    for (line, it) in e.line_table.items() {
        if class_of_direct_item(e, region, it.id).is_some() {
            direct_items.push((it.id, line, it.ty));
        }
    }

    let u = factor;
    let mut maps = UnrollMaps::default();

    // --- Replicate classes and items for body copies 1..u-1. -------------
    // class_copy[k][orig_class] = class id of copy k (copy 0 = original).
    let mut class_copy: Vec<HashMap<ItemId, ItemId>> = vec![HashMap::new(); u as usize];
    for c in &orig_classes {
        class_copy[0].insert(c.id, c.id);
    }
    for k in 1..u {
        let mut item_map = HashMap::new();
        // Items first (line table order), so per-line ordering is: all of
        // copy k-1's items before copy k's.
        for &(orig, line, ty) in &direct_items {
            let id = e.fresh_id();
            e.line_table.push_item(line, ItemEntry { id, ty });
            item_map.insert(orig, id);
        }
        for c in &orig_classes {
            let id = e.fresh_id();
            class_copy[k as usize].insert(c.id, id);
            let members = c
                .members
                .iter()
                .map(|m| match m {
                    MemberRef::Item(i) => MemberRef::Item(item_map[i]),
                    MemberRef::SubClass { .. } => unreachable!("innermost loop"),
                })
                .collect();
            e.region_mut(region).equiv_classes.push(EquivClass {
                id,
                kind: c.kind,
                members,
                name_hint: if c.name_hint.is_empty() {
                    String::new()
                } else {
                    format!("{}#u{k}", c.name_hint)
                },
            });
            // The parent class holding SubClass{region, orig} also holds
            // the copy.
            attach_subclass_to_parent(e, parent, region, c.id, id);
        }
        maps.body_items.push(item_map);
    }

    // --- Replicate alias entries per copy. --------------------------------
    let mut new_alias: Vec<AliasEntry> = Vec::new();
    for a in &orig_alias {
        for k in 0..u {
            if k == 0 {
                continue; // original entry already present
            }
            new_alias.push(AliasEntry {
                classes: a.classes.iter().map(|c| class_copy[k as usize][c]).collect(),
            });
        }
    }

    // --- Remap LCDD arcs (the Figure 6 rule). -----------------------------
    let mut new_lcdd: Vec<LcddEntry> = Vec::new();
    for d in &orig_lcdd {
        match d.distance {
            Distance::Const(dist) => {
                for k in 0..u {
                    let tgt_copy = (k + dist) % u;
                    let new_dist = (k + dist) / u;
                    let src = class_copy[k as usize][&d.src];
                    let dst = class_copy[tgt_copy as usize][&d.dst];
                    if new_dist == 0 {
                        // Became an intra-iteration dependence: the two
                        // copies may touch the same location within one
                        // unrolled iteration — an alias fact now.
                        new_alias.push(AliasEntry { classes: vec![src, dst] });
                    } else {
                        new_lcdd.push(LcddEntry {
                            src,
                            dst,
                            kind: d.kind,
                            distance: Distance::Const(new_dist),
                        });
                    }
                }
            }
            Distance::Unknown => {
                // Unknown distance: every copy pair may conflict, both
                // within an iteration and across.
                for k in 0..u {
                    for j in 0..u {
                        let src = class_copy[k as usize][&d.src];
                        let dst = class_copy[j as usize][&d.dst];
                        if src != dst {
                            new_alias.push(AliasEntry { classes: vec![src, dst] });
                        }
                        new_lcdd.push(LcddEntry {
                            src,
                            dst,
                            kind: DepKind::Maybe,
                            distance: Distance::Unknown,
                        });
                    }
                }
            }
        }
    }
    {
        let r = e.region_mut(region);
        // Original LCDD entries are replaced by the remapped set.
        r.lcdd_table = new_lcdd;
        r.alias_table.extend(new_alias);
        dedup_alias(&mut r.alias_table);
    }

    // --- Preconditioning (remainder) loop. --------------------------------
    if make_precond {
        let pre = e.add_region(parent, kind, scope);
        maps.precond_region = Some(pre);
        let mut item_map = HashMap::new();
        for &(orig, line, ty) in &direct_items {
            let id = e.fresh_id();
            e.line_table.push_item(line, ItemEntry { id, ty });
            item_map.insert(orig, id);
        }
        let mut pre_class: HashMap<ItemId, ItemId> = HashMap::new();
        for c in &orig_classes {
            let id = e.fresh_id();
            pre_class.insert(c.id, id);
            let members = c
                .members
                .iter()
                .map(|m| match m {
                    MemberRef::Item(i) => MemberRef::Item(item_map[i]),
                    MemberRef::SubClass { .. } => unreachable!("innermost loop"),
                })
                .collect();
            e.region_mut(pre).equiv_classes.push(EquivClass {
                id,
                kind: c.kind,
                members,
                name_hint: if c.name_hint.is_empty() {
                    String::new()
                } else {
                    format!("{}#pre", c.name_hint)
                },
            });
            attach_subclass_to_parent_new(e, parent, region, c.id, pre, id);
        }
        // The remainder loop keeps the original dependence structure.
        let r = e.region_mut(pre);
        r.alias_table = orig_alias
            .iter()
            .map(|a| AliasEntry { classes: a.classes.iter().map(|c| pre_class[c]).collect() })
            .collect();
        r.lcdd_table = orig_lcdd
            .iter()
            .map(|d| LcddEntry {
                src: pre_class[&d.src],
                dst: pre_class[&d.dst],
                kind: d.kind,
                distance: d.distance,
            })
            .collect();
        maps.precond_items = item_map;
    }

    e.bump_generation();
    prov_applied(e, "unroll_loop", Some(region), scope.0);
    Ok(maps)
}

/// The class of `region` that directly lists `item` as a member.
fn class_of_direct_item(e: &HliEntry, region: RegionId, item: ItemId) -> Option<ItemId> {
    e.region(region)
        .equiv_classes
        .iter()
        .find(|c| c.members.iter().any(|m| matches!(m, MemberRef::Item(i) if *i == item)))
        .map(|c| c.id)
}

/// Resolve the class representing `item` at an ancestor region by chasing
/// the subclass chain upward.
fn resolve_class_at(e: &HliEntry, target: RegionId, item: ItemId) -> Option<ItemId> {
    let mut region = e.owning_region(item)?;
    let mut class = class_of_direct_item(e, region, item)?;
    while region != target {
        let parent = e.region(region).parent?;
        let pc = e.region(parent).equiv_classes.iter().find(|c| {
            c.members.iter().any(
                |m| matches!(m, MemberRef::SubClass { region: r, class: cl } if *r == region && *cl == class),
            )
        })?;
        class = pc.id;
        region = parent;
    }
    Some(class)
}

/// After removing a member: if the class is empty, remove it and every
/// reference to it, cascading to the parent.
fn cleanup_if_empty(e: &mut HliEntry, region: RegionId, class: ItemId) {
    let r = e.region(region);
    let Some(c) = r.class(class) else { return };
    if !c.members.is_empty() {
        return;
    }
    let parent = r.parent;
    {
        let r = e.region_mut(region);
        r.equiv_classes.retain(|c| c.id != class);
        for a in &mut r.alias_table {
            a.classes.retain(|&x| x != class);
        }
        r.alias_table.retain(|a| a.classes.len() >= 2);
        r.lcdd_table.retain(|d| d.src != class && d.dst != class);
        for crm in &mut r.call_refmod {
            crm.refs.retain(|&x| x != class);
            crm.mods.retain(|&x| x != class);
        }
    }
    if let Some(p) = parent {
        // Remove the SubClass reference from the parent's class.
        let mut parent_class = None;
        for pc in &mut e.region_mut(p).equiv_classes {
            let before = pc.members.len();
            pc.members.retain(
                |m| !matches!(m, MemberRef::SubClass { region: r, class: cl } if *r == region && *cl == class),
            );
            if pc.members.len() != before {
                parent_class = Some(pc.id);
            }
        }
        if let Some(pc) = parent_class {
            cleanup_if_empty(e, p, pc);
        }
    }
}

/// Add `SubClass{region, copy}` next to the existing `SubClass{region,
/// orig}` reference in the parent's classes.
fn attach_subclass_to_parent(
    e: &mut HliEntry,
    parent: RegionId,
    region: RegionId,
    orig: ItemId,
    copy: ItemId,
) {
    for pc in &mut e.region_mut(parent).equiv_classes {
        let has = pc.members.iter().any(
            |m| matches!(m, MemberRef::SubClass { region: r, class: c } if *r == region && *c == orig),
        );
        if has {
            pc.members.push(MemberRef::SubClass { region, class: copy });
            return;
        }
    }
}

/// Same, but the copy lives in a *different* (new) region.
fn attach_subclass_to_parent_new(
    e: &mut HliEntry,
    parent: RegionId,
    orig_region: RegionId,
    orig: ItemId,
    new_region: RegionId,
    copy: ItemId,
) {
    for pc in &mut e.region_mut(parent).equiv_classes {
        let has = pc.members.iter().any(
            |m| matches!(m, MemberRef::SubClass { region: r, class: c } if *r == orig_region && *c == orig),
        );
        if has {
            pc.members.push(MemberRef::SubClass { region: new_region, class: copy });
            return;
        }
    }
}

fn dedup_alias(table: &mut Vec<AliasEntry>) {
    let mut seen = std::collections::HashSet::new();
    table.retain(|a| {
        let mut key: Vec<ItemId> = a.classes.clone();
        key.sort();
        key.dedup();
        if key.len() < 2 {
            return false;
        }
        seen.insert(key)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::UNIT_REGION;
    use crate::query::{EquivAcc, HliQuery};
    use crate::tables::tests::figure2_like;

    #[test]
    fn delete_item_keeps_entry_valid() {
        let mut e = figure2_like();
        delete_item(&mut e, ItemId(9)).unwrap();
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        assert!(e.line_table.find(ItemId(9)).is_none());
        // Partner item 10 still classed.
        assert!(e.owning_region(ItemId(10)).is_some());
    }

    #[test]
    fn delete_last_item_collapses_class_chain() {
        let mut e = figure2_like();
        // Items 0 and 2 are the only members of region-2's sum class; the
        // unit's sum class also references region 3's — deleting both
        // region-2 items must drop that subclass ref but keep the unit
        // class alive.
        delete_item(&mut e, ItemId(0)).unwrap();
        delete_item(&mut e, ItemId(2)).unwrap();
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        let unit_sum = e
            .region(UNIT_REGION)
            .equiv_classes
            .iter()
            .find(|c| c.name_hint == "sum")
            .expect("unit sum class survives");
        assert_eq!(unit_sum.members.len(), 1);
    }

    #[test]
    fn delete_whole_variable_removes_unit_class() {
        let mut e = figure2_like();
        for id in [0u32, 2, 9, 10] {
            delete_item(&mut e, ItemId(id)).unwrap();
        }
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        assert!(e.region(UNIT_REGION).equiv_classes.iter().all(|c| c.name_hint != "sum"));
    }

    #[test]
    fn delete_call_item_cleans_refmod_entries() {
        let mut e = figure2_like();
        let call = e.fresh_id();
        e.line_table.push_item(13, ItemEntry { id: call, ty: ItemType::Call });
        let c_sum = e.region(RegionId(1)).equiv_classes[0].id;
        e.region_mut(RegionId(1)).call_refmod.push(CallRefMod {
            callee: CallRef::Item(call),
            refs: vec![c_sum],
            mods: vec![c_sum],
        });
        assert!(e.validate().is_empty());
        delete_item(&mut e, call).unwrap();
        assert!(
            e.validate().is_empty(),
            "deleting a call must not leave dangling REF/MOD entries: {:?}",
            e.validate()
        );
        assert!(e.region(RegionId(1)).call_refmod.is_empty());
    }

    #[test]
    fn delete_missing_item_errors() {
        let mut e = figure2_like();
        assert!(delete_item(&mut e, ItemId(999)).is_err());
    }

    #[test]
    fn gen_item_inherits_equivalence() {
        let mut e = figure2_like();
        let new = gen_item_like(&mut e, ItemId(5), 20, ItemType::Load).unwrap();
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        let q = HliQuery::new(&e);
        assert_eq!(q.get_equiv_acc(new, ItemId(5)), EquivAcc::Definite);
        assert_eq!(q.get_equiv_acc(new, ItemId(7)), EquivAcc::Definite);
        assert_eq!(q.get_equiv_acc(new, ItemId(6)), EquivAcc::None);
    }

    #[test]
    fn move_item_to_ancestor_region() {
        let mut e = figure2_like();
        // Hoist item 8 (a[i] load in region 4) to region 3 (RegionId(2)).
        move_item_to_region(&mut e, ItemId(8), RegionId(2), 16).unwrap();
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        assert_eq!(e.owning_region(ItemId(8)), Some(RegionId(2)));
        assert_eq!(e.line_table.find(ItemId(8)), Some((16, ItemType::Load)));
        // It still may-overlap its old classmates at the unit level.
        let q = HliQuery::new(&e);
        assert_ne!(q.get_equiv_acc(ItemId(8), ItemId(11)), EquivAcc::Unknown);
    }

    #[test]
    fn move_rejects_non_ancestor() {
        let mut e = figure2_like();
        // Region 1 (first i loop) is not an ancestor of item 8.
        assert!(move_item_to_region(&mut e, ItemId(8), RegionId(1), 12).is_err());
    }

    #[test]
    fn unroll_rejects_bad_inputs() {
        let mut e = figure2_like();
        assert!(unroll_loop(&mut e, RegionId(3), 1, false).is_err());
        assert!(unroll_loop(&mut e, UNIT_REGION, 2, false).is_err());
        // Region 2 has a subregion (region 4 = RegionId(3)).
        assert!(unroll_loop(&mut e, RegionId(2), 2, false).is_err());
    }

    #[test]
    fn unroll_by_2_distance_1_becomes_intra_iteration() {
        let mut e = figure2_like();
        let items_before = e.line_table.item_count();
        let maps = unroll_loop(&mut e, RegionId(3), 2, false).unwrap();
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        assert_eq!(maps.body_items.len(), 1);
        // Region 4 (id 3) had 7 direct items; one extra copy.
        assert_eq!(e.line_table.item_count(), items_before + 7);
        let r = e.region(RegionId(3));
        // Original arc (b[j] → b[j-1], d=1, u=2):
        //   k=0 → copy 1, new distance 0  → alias entry;
        //   k=1 → copy 0, new distance 1  → LCDD arc.
        assert_eq!(r.lcdd_table.len(), 1);
        assert_eq!(r.lcdd_table[0].distance, Distance::Const(1));
        assert!(!r.alias_table.is_empty());
    }

    #[test]
    fn unroll_by_4_distance_1_chains_copies() {
        let mut e = figure2_like();
        unroll_loop(&mut e, RegionId(3), 4, false).unwrap();
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        let r = e.region(RegionId(3));
        // d=1, u=4: k=0,1,2 give distance 0 (alias); k=3 gives distance 1.
        assert_eq!(r.lcdd_table.len(), 1);
        assert_eq!(r.lcdd_table[0].distance, Distance::Const(1));
        assert!(r.alias_table.iter().filter(|a| a.classes.len() == 2).count() >= 3);
    }

    #[test]
    fn unroll_distance_wider_than_factor() {
        let mut e = figure2_like();
        // Rewrite the arc to distance 5, then unroll by 2:
        // k=0: (0+5)%2=1, d=2 ; k=1: (1+5)%2=0, d=3.
        e.region_mut(RegionId(3)).lcdd_table[0].distance = Distance::Const(5);
        unroll_loop(&mut e, RegionId(3), 2, false).unwrap();
        let r = e.region(RegionId(3));
        let dists: Vec<Distance> = r.lcdd_table.iter().map(|d| d.distance).collect();
        assert!(dists.contains(&Distance::Const(2)));
        assert!(dists.contains(&Distance::Const(3)));
        assert_eq!(r.lcdd_table.len(), 2);
    }

    #[test]
    fn unroll_unknown_distance_goes_conservative() {
        let mut e = figure2_like();
        e.region_mut(RegionId(3)).lcdd_table[0].distance = Distance::Unknown;
        unroll_loop(&mut e, RegionId(3), 2, false).unwrap();
        let r = e.region(RegionId(3));
        assert_eq!(r.lcdd_table.len(), 4, "all copy pairs get unknown arcs");
        assert!(r.lcdd_table.iter().all(|d| d.distance == Distance::Unknown));
    }

    #[test]
    fn unroll_with_precond_builds_remainder_region() {
        let mut e = figure2_like();
        let n_regions = e.regions.len();
        let maps = unroll_loop(&mut e, RegionId(3), 2, true).unwrap();
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        assert_eq!(e.regions.len(), n_regions + 1);
        let pre = maps.precond_region.unwrap();
        let r = e.region(pre);
        // The remainder loop keeps the original arc unchanged.
        assert_eq!(r.lcdd_table.len(), 1);
        assert_eq!(r.lcdd_table[0].distance, Distance::Const(1));
        assert_eq!(maps.precond_items.len(), 7);
        // Parent of precond is region 3's parent (region 2 = RegionId(2)).
        assert_eq!(r.parent, Some(RegionId(2)));
    }

    #[test]
    fn precond_region_carries_intra_iteration_alias_entries() {
        let mut e = figure2_like();
        // Give the innermost loop an intra-iteration (distance-0) overlap
        // fact: two of its classes may touch the same memory within one
        // iteration. Figure 6's remainder loop keeps the original
        // dependence structure, so the fact must survive — remapped onto
        // the preconditioning region's class copies.
        let (ca, cb) = {
            let r = e.region(RegionId(3));
            (r.equiv_classes[0].id, r.equiv_classes[1].id)
        };
        e.region_mut(RegionId(3)).alias_table.push(AliasEntry { classes: vec![ca, cb] });
        assert!(e.validate().is_empty(), "{:?}", e.validate());

        let maps = unroll_loop(&mut e, RegionId(3), 2, true).unwrap();
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        let pre = maps.precond_region.unwrap();

        // Resolve each original class's precond copy through a member
        // item: original item -> precond item -> its class at `pre`.
        let precond_class_of = |orig: ItemId| -> ItemId {
            let member = e
                .region(RegionId(3))
                .class(orig)
                .unwrap()
                .members
                .iter()
                .find_map(|m| match m {
                    MemberRef::Item(i) => Some(*i),
                    MemberRef::SubClass { .. } => None,
                })
                .expect("innermost-loop classes hold items");
            class_of_direct_item(&e, pre, maps.precond_items[&member]).unwrap()
        };
        let (pa, pb) = (precond_class_of(ca), precond_class_of(cb));
        let r = e.region(pre);
        assert_eq!(r.alias_table.len(), 1, "exactly the one original alias fact: {r:?}");
        assert_eq!(r.alias_table[0].classes, vec![pa, pb]);
        // And the copies are fresh classes of the precond region, not the
        // unrolled loop's.
        assert_ne!(pa, ca);
        assert_ne!(pb, cb);
    }

    #[test]
    fn unrolled_copies_answer_queries() {
        let mut e = figure2_like();
        let maps = unroll_loop(&mut e, RegionId(3), 2, false).unwrap();
        let q = HliQuery::new(&e);
        let copy_of_5 = maps.body_items[0][&ItemId(5)];
        // The copy belongs to its own class: b[j] of copy 1 vs copy 0 are
        // different iterations — distinct locations (distance-1 arc went to
        // the alias entry between b[j] copy 0 and b[j-1] copy 1).
        let copy_of_6 = maps.body_items[0][&ItemId(6)];
        assert_eq!(q.get_equiv_acc(ItemId(5), copy_of_6), EquivAcc::Maybe);
        // And the copies still resolve at the unit region.
        assert!(q.class_of_item_at(UNIT_REGION, copy_of_5).is_some());
    }
}
