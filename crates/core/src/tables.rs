//! The HLI data model: line table, region table, and the four per-region
//! sub-tables (Section 2 of the paper). Structural and semantic
//! validation lives in [`crate::verify`] ([`HliEntry::verify`] /
//! [`HliEntry::validate`]).

use crate::ids::{ItemId, RegionId, UNIT_REGION};

/// Access type of an item (the line-table `type` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ItemType {
    /// A memory read.
    Load,
    /// A memory write.
    Store,
    /// A call site.
    Call,
}

/// One item in a line's item list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemEntry {
    /// The item's ID, unique within the unit's shared item/class space.
    pub id: ItemId,
    /// Whether the item is a load, store or call.
    pub ty: ItemType,
}

/// One line's entry: the items generated for that source line, **in
/// back-end emission order** (this order is the whole mapping contract).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineEntry {
    /// Source line number (1-based, as the front-end emits it).
    pub line: u32,
    /// Items on this line, in back-end emission order.
    pub items: Vec<ItemEntry>,
}

/// The line table of a program unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineTable {
    /// Sorted by `line`.
    pub lines: Vec<LineEntry>,
}

impl LineTable {
    /// All items in line order then intra-line order.
    pub fn items(&self) -> impl Iterator<Item = (u32, ItemEntry)> + '_ {
        self.lines.iter().flat_map(|l| l.items.iter().map(move |it| (l.line, *it)))
    }

    /// Look up one line's entry by source line number.
    pub fn entry(&self, line: u32) -> Option<&LineEntry> {
        self.lines.binary_search_by_key(&line, |l| l.line).ok().map(|i| &self.lines[i])
    }

    /// Append an item to a line, creating the line entry if needed,
    /// keeping lines sorted.
    pub fn push_item(&mut self, line: u32, item: ItemEntry) {
        match self.lines.binary_search_by_key(&line, |l| l.line) {
            Ok(i) => self.lines[i].items.push(item),
            Err(i) => self.lines.insert(i, LineEntry { line, items: vec![item] }),
        }
    }

    /// Remove an item wherever it appears. Returns true if found.
    pub fn remove_item(&mut self, id: ItemId) -> bool {
        for l in &mut self.lines {
            if let Some(pos) = l.items.iter().position(|it| it.id == id) {
                l.items.remove(pos);
                return true;
            }
        }
        false
    }

    /// Find the line and type of an item.
    pub fn find(&self, id: ItemId) -> Option<(u32, ItemType)> {
        self.items().find(|(_, it)| it.id == id).map(|(l, it)| (l, it.ty))
    }

    /// Total number of items across all lines.
    pub fn item_count(&self) -> usize {
        self.lines.iter().map(|l| l.items.len()).sum()
    }
}

/// What a region is (region-header `type` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// The whole program unit (always region 0).
    Unit,
    /// A loop; `header_line` is the loop statement's source line.
    Loop {
        /// Source line of the loop statement itself.
        header_line: u32,
    },
}

/// Is a class's membership definitely-equivalent or merged ("maybe")?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EquivKind {
    /// All members definitely access the same memory.
    Definite,
    /// Classes merged by may-alias analysis: members *may* overlap.
    Maybe,
}

/// A member of an equivalent access class: either an item directly enclosed
/// by the region (not inside any sub-region), or a whole class of an
/// immediate sub-region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberRef {
    /// An item directly enclosed by the defining region.
    Item(ItemId),
    /// A whole class defined in an immediate sub-region.
    SubClass {
        /// The immediate sub-region that defines the class.
        region: RegionId,
        /// The class's ID inside that sub-region.
        class: ItemId,
    },
}

/// An equivalent access class. Class IDs share the item ID space (the paper:
/// *"Each equivalent access class has a unique item ID"*), so an item may
/// also "represent an equivalent access class or a whole region".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivClass {
    /// The class's ID, drawn from the unit's shared item/class ID space.
    pub id: ItemId,
    /// Definite equivalence, or a may-alias merge.
    pub kind: EquivKind,
    /// Items and sub-region classes that belong to the class.
    pub members: Vec<MemberRef>,
    /// Debug label (e.g. `a[0..9]`); not serialized in compact mode.
    pub name_hint: String,
}

/// An alias entry: a set of classes (defined at this region) that may touch
/// the same memory within one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AliasEntry {
    /// The classes that may overlap; all defined at the owning region.
    pub classes: Vec<ItemId>,
}

/// Is a dependence definite or maybe?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// The dependence provably exists.
    Definite,
    /// The dependence cannot be ruled out.
    Maybe,
}

/// A loop-carried dependence distance. Direction is always normalized `>`
/// (from an earlier to a later iteration), so distances are ≥ 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// A known constant iteration distance (≥ 1).
    Const(u32),
    /// The distance could not be computed.
    Unknown,
}

/// One loop-carried data dependence arc between two classes of this region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LcddEntry {
    /// Source class (earlier iteration).
    pub src: ItemId,
    /// Sink class (later iteration).
    pub dst: ItemId,
    /// Definite or maybe.
    pub kind: DepKind,
    /// Iteration distance of the dependence.
    pub distance: Distance,
}

/// What a call REF/MOD entry describes: one call item directly enclosed by
/// the region, or all calls inside a sub-region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallRef {
    /// One call item directly enclosed by the region.
    Item(ItemId),
    /// All calls anywhere inside the given sub-region.
    SubRegion(RegionId),
}

/// Side effects of calls on this region's classes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallRefMod {
    /// Which call(s) the entry describes.
    pub callee: CallRef,
    /// Classes possibly read by the call(s).
    pub refs: Vec<ItemId>,
    /// Classes possibly written by the call(s).
    pub mods: Vec<ItemId>,
}

/// One region entry: header plus the four sub-tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// The region's ID; index into [`HliEntry::regions`].
    pub id: RegionId,
    /// Unit region or loop region.
    pub kind: RegionKind,
    /// The enclosing region; `None` only for the unit region.
    pub parent: Option<RegionId>,
    /// Immediate sub-regions, in source order.
    pub subregions: Vec<RegionId>,
    /// Source-line span `[lo, hi]` of the region.
    pub scope: (u32, u32),
    /// Equivalent-access-class sub-table.
    pub equiv_classes: Vec<EquivClass>,
    /// Alias sub-table (within-iteration overlaps).
    pub alias_table: Vec<AliasEntry>,
    /// Loop-carried data dependence sub-table.
    pub lcdd_table: Vec<LcddEntry>,
    /// Call REF/MOD sub-table.
    pub call_refmod: Vec<CallRefMod>,
}

impl Region {
    /// Is this a loop region (vs. the unit region)?
    pub fn is_loop(&self) -> bool {
        matches!(self.kind, RegionKind::Loop { .. })
    }

    /// Find a class defined at this region by its ID.
    pub fn class(&self, id: ItemId) -> Option<&EquivClass> {
        self.equiv_classes.iter().find(|c| c.id == id)
    }

    /// Mutable variant of [`Region::class`].
    pub fn class_mut(&mut self, id: ItemId) -> Option<&mut EquivClass> {
        self.equiv_classes.iter_mut().find(|c| c.id == id)
    }
}

/// The HLI entry of one program unit.
#[derive(Debug, Clone)]
pub struct HliEntry {
    /// Name of the program unit (function) the entry describes.
    pub unit_name: String,
    /// The unit's line table.
    pub line_table: LineTable,
    /// Indexed by `RegionId` (dense). Region 0 is the unit region.
    pub regions: Vec<Region>,
    /// Next free ID in the shared item/class ID space (maintenance
    /// operations allocate from here).
    pub next_id: u32,
    /// Mutation counter bumped by every successful maintenance operation
    /// ([`crate::maintain`]). Only the serve cache key reads it (see
    /// `hli_serve::key`). Not serialized, and ignored by equality so
    /// round-tripped entries still compare equal.
    pub generation: u64,
}

impl PartialEq for HliEntry {
    fn eq(&self, other: &Self) -> bool {
        self.unit_name == other.unit_name
            && self.line_table == other.line_table
            && self.regions == other.regions
            && self.next_id == other.next_id
    }
}

impl Eq for HliEntry {}

/// A whole HLI file: one entry per program unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HliFile {
    /// One entry per program unit, in file order.
    pub entries: Vec<HliEntry>,
}

impl HliFile {
    /// Find a unit's entry by name.
    pub fn entry(&self, unit: &str) -> Option<&HliEntry> {
        self.entries.iter().find(|e| e.unit_name == unit)
    }

    /// Mutable variant of [`HliFile::entry`].
    pub fn entry_mut(&mut self, unit: &str) -> Option<&mut HliEntry> {
        self.entries.iter_mut().find(|e| e.unit_name == unit)
    }
}

impl HliEntry {
    /// An empty entry holding only the unit region (region 0).
    pub fn new(unit_name: impl Into<String>) -> Self {
        HliEntry {
            unit_name: unit_name.into(),
            line_table: LineTable::default(),
            regions: vec![Region {
                id: UNIT_REGION,
                kind: RegionKind::Unit,
                parent: None,
                subregions: Vec::new(),
                scope: (0, 0),
                equiv_classes: Vec::new(),
                alias_table: Vec::new(),
                lcdd_table: Vec::new(),
                call_refmod: Vec::new(),
            }],
            next_id: 0,
            generation: 0,
        }
    }

    /// Record that a maintenance operation mutated this entry (the serve
    /// cache key hashes the count).
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// The region with the given ID. Panics if out of range.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.0 as usize]
    }

    /// Mutable variant of [`HliEntry::region`].
    pub fn region_mut(&mut self, id: RegionId) -> &mut Region {
        &mut self.regions[id.0 as usize]
    }

    /// Allocate a fresh ID from the shared item/class space.
    pub fn fresh_id(&mut self) -> ItemId {
        let id = ItemId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Add a sub-region under `parent`; returns its ID.
    pub fn add_region(
        &mut self,
        parent: RegionId,
        kind: RegionKind,
        scope: (u32, u32),
    ) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(Region {
            id,
            kind,
            parent: Some(parent),
            subregions: Vec::new(),
            scope,
            equiv_classes: Vec::new(),
            alias_table: Vec::new(),
            lcdd_table: Vec::new(),
            call_refmod: Vec::new(),
        });
        self.region_mut(parent).subregions.push(id);
        id
    }

    /// The innermost region that lists `item` as a direct member of one of
    /// its classes.
    pub fn owning_region(&self, item: ItemId) -> Option<RegionId> {
        for r in &self.regions {
            for c in &r.equiv_classes {
                if c.members.iter().any(|m| matches!(m, MemberRef::Item(i) if *i == item)) {
                    return Some(r.id);
                }
            }
        }
        None
    }

    /// Path from the unit region down to `region` (inclusive).
    pub fn region_path(&self, region: RegionId) -> Vec<RegionId> {
        let mut path = vec![region];
        let mut cur = region;
        while let Some(p) = self.region(cur).parent {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// Lowest common ancestor of two regions.
    pub fn region_lca(&self, a: RegionId, b: RegionId) -> RegionId {
        let pa = self.region_path(a);
        let pb = self.region_path(b);
        let mut lca = UNIT_REGION;
        for (x, y) in pa.iter().zip(pb.iter()) {
            if x == y {
                lca = *x;
            } else {
                break;
            }
        }
        lca
    }

    /// Total number of memory-access (non-call) items.
    pub fn mem_item_count(&self) -> usize {
        self.line_table.items().filter(|(_, it)| it.ty != ItemType::Call).count()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Hand-build the paper's Figure 2 structure (abridged: Region 1 with
    /// sub-regions 2 and 3, region 4 inside 3).
    pub(crate) fn figure2_like() -> HliEntry {
        let mut e = HliEntry::new("foo");
        let r1 = UNIT_REGION;
        let r2 = e.add_region(r1, RegionKind::Loop { header_line: 12 }, (12, 14));
        let r3 = e.add_region(r1, RegionKind::Loop { header_line: 16 }, (16, 21));
        let r4 = e.add_region(r3, RegionKind::Loop { header_line: 19 }, (19, 21));

        // Items: line 13: sum load/store + a[i] load (region 2)
        // line 17: a[i] store, b[0] load (region 3)
        // line 20: b[j] store, b[j] load, b[j-1] load, a[i] load, sum ls (region 4)
        let ids: Vec<ItemId> = (0..12).map(|_| e.fresh_id()).collect();
        use ItemType::*;
        for (line, id, ty) in [
            (13, ids[0], Load),   // sum
            (13, ids[1], Load),   // a[i]
            (13, ids[2], Store),  // sum
            (17, ids[3], Load),   // b[0]
            (17, ids[4], Store),  // a[i]
            (20, ids[5], Load),   // b[j]
            (20, ids[6], Load),   // b[j-1]
            (20, ids[7], Store),  // b[j]
            (20, ids[8], Load),   // a[i]
            (20, ids[9], Load),   // sum
            (20, ids[10], Store), // sum
            (20, ids[11], Load),  // extra a[i]
        ] {
            e.line_table.push_item(line, ItemEntry { id, ty });
        }

        // Region 4 classes: sum{9,10}, a[i]{8,11}, b[j]{5,7}, b[j-1]{6}.
        let c4_sum = e.fresh_id();
        let c4_ai = e.fresh_id();
        let c4_bj = e.fresh_id();
        let c4_bj1 = e.fresh_id();
        {
            let r = e.region_mut(r4);
            r.equiv_classes = vec![
                EquivClass {
                    id: c4_sum,
                    kind: EquivKind::Definite,
                    members: vec![MemberRef::Item(ids[9]), MemberRef::Item(ids[10])],
                    name_hint: "sum".into(),
                },
                EquivClass {
                    id: c4_ai,
                    kind: EquivKind::Definite,
                    members: vec![MemberRef::Item(ids[8]), MemberRef::Item(ids[11])],
                    name_hint: "a[i]".into(),
                },
                EquivClass {
                    id: c4_bj,
                    kind: EquivKind::Definite,
                    members: vec![MemberRef::Item(ids[5]), MemberRef::Item(ids[7])],
                    name_hint: "b[j]".into(),
                },
                EquivClass {
                    id: c4_bj1,
                    kind: EquivKind::Definite,
                    members: vec![MemberRef::Item(ids[6])],
                    name_hint: "b[j-1]".into(),
                },
            ];
            r.lcdd_table = vec![LcddEntry {
                src: c4_bj,
                dst: c4_bj1,
                kind: DepKind::Definite,
                distance: Distance::Const(1),
            }];
        }

        // Region 3 classes: sum, a[i], b[0], b[0..9].
        let c3_sum = e.fresh_id();
        let c3_ai = e.fresh_id();
        let c3_b0 = e.fresh_id();
        let c3_ball = e.fresh_id();
        {
            let r = e.region_mut(r3);
            r.equiv_classes = vec![
                EquivClass {
                    id: c3_sum,
                    kind: EquivKind::Definite,
                    members: vec![MemberRef::SubClass { region: r4, class: c4_sum }],
                    name_hint: "sum".into(),
                },
                EquivClass {
                    id: c3_ai,
                    kind: EquivKind::Definite,
                    members: vec![
                        MemberRef::Item(ids[4]),
                        MemberRef::SubClass { region: r4, class: c4_ai },
                    ],
                    name_hint: "a[i]".into(),
                },
                EquivClass {
                    id: c3_b0,
                    kind: EquivKind::Definite,
                    members: vec![MemberRef::Item(ids[3])],
                    name_hint: "b[0]".into(),
                },
                EquivClass {
                    id: c3_ball,
                    kind: EquivKind::Maybe,
                    members: vec![
                        MemberRef::SubClass { region: r4, class: c4_bj },
                        MemberRef::SubClass { region: r4, class: c4_bj1 },
                    ],
                    name_hint: "b[0..9]".into(),
                },
            ];
            r.alias_table = vec![AliasEntry { classes: vec![c3_b0, c3_ball] }];
        }

        // Region 2 classes: sum{0,2}, a[i]{1}.
        let c2_sum = e.fresh_id();
        let c2_ai = e.fresh_id();
        {
            let r = e.region_mut(r2);
            r.equiv_classes = vec![
                EquivClass {
                    id: c2_sum,
                    kind: EquivKind::Definite,
                    members: vec![MemberRef::Item(ids[0]), MemberRef::Item(ids[2])],
                    name_hint: "sum".into(),
                },
                EquivClass {
                    id: c2_ai,
                    kind: EquivKind::Definite,
                    members: vec![MemberRef::Item(ids[1])],
                    name_hint: "a[i]".into(),
                },
            ];
        }

        // Region 1 (unit): sum, a[0..9], b[0..9].
        let c1_sum = e.fresh_id();
        let c1_a = e.fresh_id();
        let c1_b = e.fresh_id();
        {
            let r = e.region_mut(r1);
            r.scope = (10, 22);
            r.equiv_classes = vec![
                EquivClass {
                    id: c1_sum,
                    kind: EquivKind::Definite,
                    members: vec![
                        MemberRef::SubClass { region: r2, class: c2_sum },
                        MemberRef::SubClass { region: r3, class: c3_sum },
                    ],
                    name_hint: "sum".into(),
                },
                EquivClass {
                    id: c1_a,
                    kind: EquivKind::Maybe,
                    members: vec![
                        MemberRef::SubClass { region: r2, class: c2_ai },
                        MemberRef::SubClass { region: r3, class: c3_ai },
                    ],
                    name_hint: "a[0..9]".into(),
                },
                EquivClass {
                    id: c1_b,
                    kind: EquivKind::Maybe,
                    members: vec![
                        MemberRef::SubClass { region: r3, class: c3_b0 },
                        MemberRef::SubClass { region: r3, class: c3_ball },
                    ],
                    name_hint: "b[0..9]".into(),
                },
            ];
        }
        e
    }

    #[test]
    fn figure2_structure_validates() {
        let e = figure2_like();
        let errs = e.validate();
        assert!(errs.is_empty(), "unexpected violations: {errs:?}");
    }

    #[test]
    fn line_table_ops() {
        let mut lt = LineTable::default();
        lt.push_item(10, ItemEntry { id: ItemId(0), ty: ItemType::Load });
        lt.push_item(5, ItemEntry { id: ItemId(1), ty: ItemType::Store });
        lt.push_item(10, ItemEntry { id: ItemId(2), ty: ItemType::Call });
        assert_eq!(lt.lines.len(), 2);
        assert_eq!(lt.lines[0].line, 5, "lines stay sorted");
        assert_eq!(lt.item_count(), 3);
        assert_eq!(lt.find(ItemId(2)), Some((10, ItemType::Call)));
        assert!(lt.remove_item(ItemId(0)));
        assert!(!lt.remove_item(ItemId(0)));
        assert_eq!(lt.item_count(), 2);
        assert_eq!(lt.entry(10).unwrap().items.len(), 1);
    }

    #[test]
    fn owning_region_finds_direct_member() {
        let e = figure2_like();
        // Item 0 (sum load in region 2's loop).
        let r = e.owning_region(ItemId(0)).unwrap();
        assert_eq!(r, RegionId(1));
        // Item 5 (b[j] in region 4).
        assert_eq!(e.owning_region(ItemId(5)).unwrap(), RegionId(3));
    }

    #[test]
    fn region_path_and_lca() {
        let e = figure2_like();
        assert_eq!(e.region_path(RegionId(3)), vec![RegionId(0), RegionId(2), RegionId(3)]);
        assert_eq!(e.region_lca(RegionId(1), RegionId(3)), RegionId(0));
        assert_eq!(e.region_lca(RegionId(3), RegionId(2)), RegionId(2));
        assert_eq!(e.region_lca(RegionId(3), RegionId(3)), RegionId(3));
    }

    #[test]
    fn validate_catches_double_ownership() {
        let mut e = figure2_like();
        // Add item 0 to a class in region 3 as well.
        let extra = MemberRef::Item(ItemId(0));
        e.region_mut(RegionId(2)).equiv_classes[0].members.push(extra);
        let errs = e.validate();
        assert!(errs.iter().any(|m| m.contains("directly owned by both")));
    }

    #[test]
    fn validate_catches_zero_distance() {
        let mut e = figure2_like();
        e.region_mut(RegionId(3)).lcdd_table[0].distance = Distance::Const(0);
        assert!(e.validate().iter().any(|m| m.contains("distance 0")));
    }

    #[test]
    fn validate_catches_orphan_item() {
        let mut e = figure2_like();
        let id = e.fresh_id();
        e.line_table.push_item(30, ItemEntry { id, ty: ItemType::Load });
        assert!(e.validate().iter().any(|m| m.contains("belongs to no class")));
    }

    #[test]
    fn validate_catches_foreign_alias_class() {
        let mut e = figure2_like();
        e.region_mut(RegionId(1))
            .alias_table
            .push(AliasEntry { classes: vec![ItemId(900), ItemId(901)] });
        assert!(e.validate().iter().any(|m| m.contains("foreign class")));
    }

    #[test]
    fn validate_catches_lcdd_outside_loop() {
        let mut e = figure2_like();
        let (src, dst) = {
            let r0 = e.region(UNIT_REGION);
            (r0.equiv_classes[0].id, r0.equiv_classes[1].id)
        };
        e.region_mut(UNIT_REGION).lcdd_table.push(LcddEntry {
            src,
            dst,
            kind: DepKind::Maybe,
            distance: Distance::Unknown,
        });
        assert!(e.validate().iter().any(|m| m.contains("non-loop region")));
    }

    #[test]
    fn hlifile_entry_lookup() {
        let mut f = HliFile::default();
        f.entries.push(HliEntry::new("alpha"));
        f.entries.push(HliEntry::new("beta"));
        assert!(f.entry("alpha").is_some());
        assert!(f.entry("gamma").is_none());
        f.entry_mut("beta").unwrap().next_id = 7;
        assert_eq!(f.entry("beta").unwrap().next_id, 7);
    }
}
