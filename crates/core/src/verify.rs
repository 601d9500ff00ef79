//! Semantic verification of HLI tables — the import trust boundary.
//!
//! The paper's central hazard (Section 3.2.3) is that stale or
//! inconsistent HLI silently miscompiles: the back-end trusts
//! equivalence/alias/LCDD answers it cannot re-derive. This module is the
//! machine-checkable well-formedness judgement the back-end runs on every
//! unit *before* trusting it (the ASDL lesson: a serialized
//! compiler-interchange format lives or dies by checkable invariants).
//!
//! [`HliEntry::verify`] extends the historical structural checks with the
//! semantic ones a fault injector actually trips:
//!
//! * **Region tree** — dense ids, parents strictly smaller than children
//!   (the acyclicity + bottom-up-sweep invariant `HliQuery` relies on),
//!   parent/subregion links agreeing in *both* directions, scopes with
//!   `lo <= hi` nested inside the parent's scope, loop headers inside
//!   their own scope.
//! * **Line table** — strictly increasing line numbers, unique item ids
//!   below `next_id` (the emission-order contract `mapping.rs` replays).
//! * **Equivalence classes** — the partition property (every memory item
//!   directly owned by exactly one class of exactly one region; calls in
//!   no class; no empty classes; subclass links resolving to an immediate
//!   child and consumed by exactly one parent class), and direct members
//!   of a *loop* region lying inside that loop's line scope.
//! * **Alias table** — entries of ≥ 2 distinct classes, all defined at
//!   the owning region (alias symmetry is representational: an entry *is*
//!   the unordered overlap set, so `A~B` and `B~A` cannot diverge).
//! * **LCDD table** — loop regions only, both endpoints defined at the
//!   owning loop (hence covering only its subtree), and distances
//!   normalized to the `>` direction: `Const(0)` is always a violation.
//! * **Call REF/MOD** — callees that are call items of the line table or
//!   immediate child regions, and REF/MOD sets naming only classes the
//!   owning region defines.
//!
//! Errors are *typed* ([`VerifyError`]): they carry the offending table,
//! region and item/class id, so the back-end's quarantine path can report
//! and count precisely what it refused. [`HliEntry::validate`] remains as
//! a thin `Vec<String>` compatibility wrapper.
//!
//! Verification is total: it never panics or loops, even on adversarial
//! decoded input. Deep checks that must index regions by id run only
//! after the region-tree pass found no violations.

use crate::ids::{ItemId, RegionId};
use crate::tables::{
    CallRef, Distance, HliEntry, HliFile, ItemType, MemberRef, Region, RegionKind,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Which HLI table a [`VerifyError`] is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableKind {
    /// The region tree itself (ids, parents, subregion links, scopes).
    RegionTree,
    /// The per-unit line table.
    LineTable,
    /// A region's equivalent-access-class sub-table.
    EquivTable,
    /// A region's alias sub-table.
    AliasTable,
    /// A region's loop-carried data dependence sub-table.
    LcddTable,
    /// A region's call REF/MOD sub-table.
    CallRefModTable,
    /// The file-level unit directory (duplicate unit names).
    UnitDirectory,
}

impl TableKind {
    /// Stable lowercase label used in `Display` output and reports.
    pub fn label(self) -> &'static str {
        match self {
            TableKind::RegionTree => "region-tree",
            TableKind::LineTable => "line-table",
            TableKind::EquivTable => "equiv-table",
            TableKind::AliasTable => "alias-table",
            TableKind::LcddTable => "lcdd-table",
            TableKind::CallRefModTable => "call-refmod-table",
            TableKind::UnitDirectory => "unit-directory",
        }
    }
}

impl fmt::Display for TableKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One violation of the HLI well-formedness rules.
///
/// The `region` and `item` fields attribute the violation for quarantine
/// reporting; `message` carries the human-readable detail (and preserves
/// the historical `validate()` wording, which tests and tools grep).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The table the violation lives in.
    pub table: TableKind,
    /// The region owning the offending sub-table entry, when attributable.
    pub region: Option<RegionId>,
    /// The offending item or class id, when attributable.
    pub item: Option<ItemId>,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.table, self.message)
    }
}

/// Accumulator keeping the check bodies terse.
struct Sink {
    errs: Vec<VerifyError>,
}

impl Sink {
    fn push(
        &mut self,
        table: TableKind,
        region: Option<RegionId>,
        item: Option<ItemId>,
        message: String,
    ) {
        self.errs.push(VerifyError { table, region, item, message });
    }
}

impl HliEntry {
    /// Check every structural and semantic invariant of this unit's
    /// tables. Returns all violations found (empty = the unit is safe to
    /// trust); never panics, even on adversarial decoded input.
    pub fn verify(&self) -> Vec<VerifyError> {
        let mut sink = Sink { errs: Vec::new() };
        verify_region_tree(self, &mut sink);
        if !sink.errs.is_empty() {
            // A broken region tree makes the deeper checks (which index
            // regions by parent/subregion id) meaningless and unsafe.
            return sink.errs;
        }
        let line_items = verify_line_table(self, &mut sink);
        verify_equiv_tables(self, &line_items, &mut sink);
        verify_region_subtables(self, &line_items, &mut sink);
        sink.errs
    }

    /// Compatibility wrapper over [`HliEntry::verify`]: the same checks,
    /// rendered to strings. Prefer `verify` in new code — it keeps the
    /// table/region/item attribution quarantine reporting needs.
    pub fn validate(&self) -> Vec<String> {
        self.verify().iter().map(|e| e.to_string()).collect()
    }
}

/// Verify a whole HLI file: every entry, plus the file-level invariant
/// that unit names are unique (the key of an image's directory).
/// Each violation is paired with the offending unit's name.
pub fn verify_file(file: &HliFile) -> Vec<(String, VerifyError)> {
    let _s = hli_obs::span("hli.verify");
    let mut out = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for e in &file.entries {
        if !seen.insert(e.unit_name.as_str()) {
            out.push((
                e.unit_name.clone(),
                VerifyError {
                    table: TableKind::UnitDirectory,
                    region: None,
                    item: None,
                    message: format!("unit `{}` defined twice in file", e.unit_name),
                },
            ));
        }
        for err in e.verify() {
            out.push((e.unit_name.clone(), err));
        }
    }
    out
}

/// Region-tree shape: dense ids, parent ordering/acyclicity, two-way
/// parent/subregion agreement, scope sanity and nesting.
fn verify_region_tree(e: &HliEntry, sink: &mut Sink) {
    let t = TableKind::RegionTree;
    if e.regions.is_empty() {
        sink.push(t, None, None, "entry has no regions (unit region required)".into());
        return;
    }
    let n = e.regions.len();
    for (i, r) in e.regions.iter().enumerate() {
        if r.id.0 as usize != i {
            sink.push(t, Some(r.id), None, format!("region index {} holds id {}", i, r.id));
        }
        if (i == 0) != r.parent.is_none() {
            sink.push(t, Some(r.id), None, format!("region {} has wrong parent-ness", r.id));
        }
        if (i == 0) != matches!(r.kind, RegionKind::Unit) {
            sink.push(
                t,
                Some(r.id),
                None,
                format!("region {} kind disagrees with its position (unit = region 0)", r.id),
            );
        }
        if let Some(p) = r.parent {
            if p.0 as usize >= n {
                sink.push(t, Some(r.id), None, format!("region {} has missing parent {}", r.id, p));
            } else if p.0 >= r.id.0 {
                // Children strictly after parents: the invariant that makes
                // the tree acyclic and the query index's bottom-up
                // reverse-id sweep correct.
                sink.push(
                    t,
                    Some(r.id),
                    None,
                    format!("region {} has parent {} with a later or equal id", r.id, p),
                );
            }
        }
        let mut listed: HashSet<RegionId> = HashSet::new();
        for &s in &r.subregions {
            if s.0 as usize >= n {
                sink.push(
                    t,
                    Some(r.id),
                    None,
                    format!("region {} lists missing subregion {}", r.id, s),
                );
                continue;
            }
            if !listed.insert(s) {
                sink.push(
                    t,
                    Some(r.id),
                    None,
                    format!("region {} lists subregion {} twice", r.id, s),
                );
            }
            if e.regions[s.0 as usize].parent != Some(r.id) {
                sink.push(
                    t,
                    Some(r.id),
                    None,
                    format!("subregion {} of {} disagrees on parent", s, r.id),
                );
            }
        }
        if r.scope.0 > r.scope.1 {
            sink.push(
                t,
                Some(r.id),
                None,
                format!("region {} scope [{}, {}] is inverted", r.id, r.scope.0, r.scope.1),
            );
        }
        if let RegionKind::Loop { header_line } = r.kind {
            if header_line < r.scope.0 || header_line > r.scope.1 {
                sink.push(
                    t,
                    Some(r.id),
                    None,
                    format!(
                        "loop region {} header line {} outside its scope [{}, {}]",
                        r.id, header_line, r.scope.0, r.scope.1
                    ),
                );
            }
        }
    }
    if !sink.errs.is_empty() {
        return;
    }
    // With ids, parents and bounds sound, check the remaining shape
    // properties that index through them.
    for r in e.regions.iter().skip(1) {
        let p = &e.regions[r.parent.unwrap().0 as usize];
        if !p.subregions.contains(&r.id) {
            sink.push(
                t,
                Some(r.id),
                None,
                format!("region {} is not listed among parent {}'s subregions", r.id, p.id),
            );
        }
        if r.scope.0 < p.scope.0 || r.scope.1 > p.scope.1 {
            sink.push(
                t,
                Some(r.id),
                None,
                format!(
                    "region {} scope [{}, {}] escapes parent {}'s scope [{}, {}]",
                    r.id, r.scope.0, r.scope.1, p.id, p.scope.0, p.scope.1
                ),
            );
        }
    }
}

/// Line-table invariants. Returns the (id -> type) map of line items for
/// the later passes.
fn verify_line_table(e: &HliEntry, sink: &mut Sink) -> HashMap<ItemId, ItemType> {
    let t = TableKind::LineTable;
    for w in e.line_table.lines.windows(2) {
        if w[0].line >= w[1].line {
            sink.push(
                t,
                None,
                None,
                format!(
                    "line table not strictly sorted: line {} then line {}",
                    w[0].line, w[1].line
                ),
            );
        }
    }
    let mut line_items: HashMap<ItemId, ItemType> = HashMap::new();
    for (_, it) in e.line_table.items() {
        if line_items.insert(it.id, it.ty).is_some() {
            sink.push(
                t,
                None,
                Some(it.id),
                format!("item {} appears twice in the line table", it.id),
            );
        }
        if it.id.0 >= e.next_id {
            sink.push(
                t,
                None,
                Some(it.id),
                format!("item {} beyond next_id {}", it.id, e.next_id),
            );
        }
    }
    line_items
}

/// Equivalence-class invariants: unique class ids, the partition
/// property, subclass link resolution, and loop-scope containment of
/// direct members.
fn verify_equiv_tables(e: &HliEntry, line_items: &HashMap<ItemId, ItemType>, sink: &mut Sink) {
    let t = TableKind::EquivTable;
    let mut class_ids: HashSet<ItemId> = HashSet::new();
    for r in &e.regions {
        for c in &r.equiv_classes {
            if !class_ids.insert(c.id) {
                sink.push(t, Some(r.id), Some(c.id), format!("class {} defined twice", c.id));
            }
            if line_items.contains_key(&c.id) {
                sink.push(
                    t,
                    Some(r.id),
                    Some(c.id),
                    format!("class {} collides with a line item", c.id),
                );
            }
            if c.id.0 >= e.next_id {
                sink.push(
                    t,
                    Some(r.id),
                    Some(c.id),
                    format!("class {} beyond next_id {}", c.id, e.next_id),
                );
            }
            if c.members.is_empty() {
                sink.push(t, Some(r.id), Some(c.id), format!("class {} has no members", c.id));
            }
        }
    }
    // Partition property: every *memory* item is a direct member of
    // exactly one class, in exactly one region.
    let mut direct_owner: HashMap<ItemId, RegionId> = HashMap::new();
    for r in &e.regions {
        for c in &r.equiv_classes {
            for m in &c.members {
                match m {
                    MemberRef::Item(it) => {
                        if let Some(prev) = direct_owner.insert(*it, r.id) {
                            sink.push(
                                t,
                                Some(r.id),
                                Some(*it),
                                format!("item {} directly owned by both {} and {}", it, prev, r.id),
                            );
                        }
                        match line_items.get(it) {
                            None => sink.push(
                                t,
                                Some(r.id),
                                Some(*it),
                                format!("class {} member {} is not a line item", c.id, it),
                            ),
                            Some(ItemType::Call) => sink.push(
                                t,
                                Some(r.id),
                                Some(*it),
                                format!("call item {} appears in an equivalence class", it),
                            ),
                            _ => {
                                // Direct members of a loop region must lie
                                // inside the loop's line scope (items
                                // hoisted out of a loop are re-homed to the
                                // parent, whose scope still covers them).
                                if r.is_loop() {
                                    if let Some((line, _)) = e.line_table.find(*it) {
                                        if line < r.scope.0 || line > r.scope.1 {
                                            sink.push(
                                                t,
                                                Some(r.id),
                                                Some(*it),
                                                format!(
                                                    "item {} at line {} outside owning loop {}'s scope [{}, {}]",
                                                    it, line, r.id, r.scope.0, r.scope.1
                                                ),
                                            );
                                        }
                                    }
                                }
                            }
                        }
                    }
                    MemberRef::SubClass { region, class } => {
                        if region.0 as usize >= e.regions.len() {
                            sink.push(
                                t,
                                Some(r.id),
                                Some(*class),
                                format!("subclass ref to missing region {region}"),
                            );
                            continue;
                        }
                        if e.region(*region).parent != Some(r.id) {
                            sink.push(
                                t,
                                Some(r.id),
                                Some(*class),
                                format!(
                                    "class {} references class {} of non-child region {}",
                                    c.id, class, region
                                ),
                            );
                        }
                        if e.region(*region).class(*class).is_none() {
                            sink.push(
                                t,
                                Some(r.id),
                                Some(*class),
                                format!(
                                    "class {} references missing class {} in region {}",
                                    c.id, class, region
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
    // Walk the line table, not the map, so the errors (and the first one,
    // which quarantine reports) come out in line-table order.
    let mut reported: HashSet<ItemId> = HashSet::new();
    for it in e.line_table.items().map(|(_, it)| it.id) {
        let memory = line_items[&it] != ItemType::Call;
        if memory && !direct_owner.contains_key(&it) && reported.insert(it) {
            sink.push(t, None, Some(it), format!("memory item {} belongs to no class", it));
        }
    }
    // Every subregion class is referenced by exactly one parent class
    // (the subtree-coverage half of the partition property).
    for r in &e.regions {
        let Some(pid) = r.parent else { continue };
        let parent = e.region(pid);
        for c in &r.equiv_classes {
            let uses: usize = parent
                .equiv_classes
                .iter()
                .flat_map(|pc| pc.members.iter())
                .filter(
                    |m| matches!(m, MemberRef::SubClass { region, class } if *region == r.id && *class == c.id),
                )
                .count();
            if uses != 1 {
                sink.push(
                    t,
                    Some(pid),
                    Some(c.id),
                    format!(
                        "class {} of region {} referenced {} times by parent {}",
                        c.id, r.id, uses, parent.id
                    ),
                );
            }
        }
    }
}

/// Alias, LCDD and call REF/MOD invariants, all per-region.
fn verify_region_subtables(e: &HliEntry, line_items: &HashMap<ItemId, ItemType>, sink: &mut Sink) {
    for r in &e.regions {
        let defined: HashSet<ItemId> = r.equiv_classes.iter().map(|c| c.id).collect();
        verify_alias_table(r, &defined, sink);
        verify_lcdd_table(r, &defined, sink);
        verify_call_refmod(e, r, line_items, &defined, sink);
    }
}

fn verify_alias_table(r: &Region, defined: &HashSet<ItemId>, sink: &mut Sink) {
    let t = TableKind::AliasTable;
    for a in &r.alias_table {
        if a.classes.len() < 2 {
            sink.push(t, Some(r.id), None, format!("alias entry in {} with <2 classes", r.id));
        }
        let mut seen: HashSet<ItemId> = HashSet::new();
        for c in &a.classes {
            if !defined.contains(c) {
                sink.push(
                    t,
                    Some(r.id),
                    Some(*c),
                    format!("alias entry in {} names foreign class {}", r.id, c),
                );
            }
            if !seen.insert(*c) {
                sink.push(
                    t,
                    Some(r.id),
                    Some(*c),
                    format!("alias entry in {} names class {} twice", r.id, c),
                );
            }
        }
    }
}

fn verify_lcdd_table(r: &Region, defined: &HashSet<ItemId>, sink: &mut Sink) {
    let t = TableKind::LcddTable;
    for d in &r.lcdd_table {
        if !r.is_loop() {
            sink.push(t, Some(r.id), None, format!("LCDD entry in non-loop region {}", r.id));
        }
        if !defined.contains(&d.src) || !defined.contains(&d.dst) {
            sink.push(
                t,
                Some(r.id),
                Some(d.src),
                format!("LCDD in {} names foreign class", r.id),
            );
        }
        if let Distance::Const(k) = d.distance {
            if k == 0 {
                sink.push(
                    t,
                    Some(r.id),
                    Some(d.src),
                    format!("LCDD in {} has distance 0 (direction must be normalized >)", r.id),
                );
            }
        }
    }
}

fn verify_call_refmod(
    e: &HliEntry,
    r: &Region,
    line_items: &HashMap<ItemId, ItemType>,
    defined: &HashSet<ItemId>,
    sink: &mut Sink,
) {
    let t = TableKind::CallRefModTable;
    for crm in &r.call_refmod {
        match crm.callee {
            CallRef::Item(it) => match line_items.get(&it) {
                Some(ItemType::Call) => {}
                _ => sink.push(
                    t,
                    Some(r.id),
                    Some(it),
                    format!("call REF/MOD in {} names non-call item {}", r.id, it),
                ),
            },
            CallRef::SubRegion(s) => {
                if e.regions.get(s.0 as usize).map(|x| x.parent) != Some(Some(r.id)) {
                    sink.push(
                        t,
                        Some(r.id),
                        None,
                        format!("call REF/MOD in {} names non-child region {}", r.id, s),
                    );
                }
            }
        }
        for c in crm.refs.iter().chain(crm.mods.iter()) {
            if !defined.contains(c) {
                sink.push(
                    t,
                    Some(r.id),
                    Some(*c),
                    format!("call REF/MOD in {} names foreign class {}", r.id, c),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::tests::figure2_like;
    use crate::tables::ItemEntry;

    #[test]
    fn figure2_entry_verifies_clean() {
        let e = figure2_like();
        let errs = e.verify();
        assert!(errs.is_empty(), "clean fixture must verify: {errs:?}");
    }

    #[test]
    fn broken_region_tree_short_circuits_deeper_checks() {
        let mut e = figure2_like();
        // Make region 2's parent point forward — acyclicity violation.
        e.regions[2].parent = Some(RegionId(3));
        let errs = e.verify();
        assert!(!errs.is_empty());
        assert!(
            errs.iter().all(|er| er.table == TableKind::RegionTree),
            "tree errors must suppress deeper passes: {errs:?}"
        );
        assert!(errs.iter().any(|er| er.message.contains("later or equal id")));
    }

    #[test]
    fn inverted_scope_and_unsorted_lines_are_reported() {
        let mut e = figure2_like();
        e.regions[2].scope = (14, 12);
        let errs = e.verify();
        assert!(errs.iter().any(|er| er.table == TableKind::RegionTree
            && er.region == Some(RegionId(2))
            && er.message.contains("inverted")));

        let mut e = figure2_like();
        e.line_table.lines.swap(0, 1);
        let errs = e.verify();
        assert!(errs.iter().any(
            |er| er.table == TableKind::LineTable && er.message.contains("not strictly sorted")
        ));
    }

    #[test]
    fn typed_errors_carry_region_and_item_attribution() {
        let mut e = figure2_like();
        // Point an alias entry at a class the region does not define
        // (class 22 is defined at the unit region, not region 2).
        e.regions[2].alias_table[0].classes[0] = ItemId(22);
        let errs = e.verify();
        let err = errs
            .iter()
            .find(|er| er.table == TableKind::AliasTable)
            .expect("alias violation reported");
        assert_eq!(err.region, Some(RegionId(2)));
        assert_eq!(err.item, Some(ItemId(22)));
        assert!(err.to_string().contains("foreign class"));
    }

    #[test]
    fn verify_file_rejects_duplicate_unit_names() {
        let f = HliFile { entries: vec![figure2_like(), figure2_like()] };
        let errs = verify_file(&f);
        assert!(errs.iter().any(|(u, er)| u == "foo" && er.table == TableKind::UnitDirectory));
    }

    #[test]
    fn unclassed_items_are_reported_in_line_table_order() {
        let mut e = figure2_like();
        // Two memory items no class claims; the later line gets the lower
        // id, so id order and line-table order disagree.
        let (late, early) = (e.fresh_id(), e.fresh_id());
        e.line_table.push_item(20, ItemEntry { id: late, ty: ItemType::Store });
        e.line_table.push_item(13, ItemEntry { id: early, ty: ItemType::Load });
        let first = e.verify();
        let items: Vec<Option<ItemId>> = first.iter().map(|er| er.item).collect();
        assert_eq!(items, [Some(early), Some(late)], "{first:?}");
        assert!(first.iter().all(|er| er.message.contains("belongs to no class")));
        for _ in 0..64 {
            assert_eq!(e.verify(), first, "the error list depends on the hash seed");
        }
    }
}
