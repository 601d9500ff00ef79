//! TBLCONST — HLI table construction (Section 3.1.2 of the paper).
//!
//! Two conceptual traversals over the front-end IR:
//!
//! 1. build the hierarchical region structure and group every memory item
//!    into per-region equivalent access classes (exact-subscript matches
//!    merge *definitely*; loop summaries merge into *maybe* section
//!    classes);
//! 2. walk the region tree bottom-up, running the dependence-test ladder
//!    per class pair to fill the LCDD table, the points-to results to fill
//!    the alias table, and the interprocedural REF/MOD summaries to fill
//!    the call REF/MOD table; then summarize each class (regular sections
//!    over the loop's iteration space) for the enclosing region.
//!
//! Grouping rules (calibrated against the paper's Figure 2):
//!
//! * within a loop region, units with identical affine access paths merge
//!   into one *definite* class; all imprecise (section/vague) units of the
//!   same array merge into one *maybe* class (region 3's `b[0..9]`), while
//!   exact units stay separate with alias entries where sections overlap
//!   (region 3's `b[0]` vs `b[0..9]`);
//! * at the unit region, everything with the same base object collapses
//!   into one class (region 1's `a[0..9]`, `b[0..9]`), *maybe* unless the
//!   accesses are provably one location — "maybe" propagates outward as
//!   Section 2.2.1 requires.

use crate::itemgen::{Item, ItemGen};
use crate::FrontendOptions;
use hli_analysis::affine::{self, Affine};
use hli_analysis::deptest::{siv_test, DepTest};
use hli_analysis::pointsto::PointsTo;
use hli_analysis::refmod::RefMod;
use hli_analysis::regiontree::{build_region_tree, RegionTree};
use hli_analysis::sections::{subscript_range, DimRange};
use hli_core::*;
use hli_lang::ast::{Expr, ExprId, ExprKind, FuncDef, Stmt};
use hli_lang::memwalk::{AccessKind, AccessPath};
use hli_lang::sema::{CanonLoop, Sema, SymId};
use std::collections::{HashMap, HashSet};

/// Run TBLCONST for one function.
pub fn run(
    f: &FuncDef,
    sema: &Sema,
    items: ItemGen,
    pts: &PointsTo,
    refmod: Option<&RefMod>,
    opts: FrontendOptions,
) -> HliEntry {
    let tree = build_region_tree(f, sema);
    let mut entry = HliEntry::new(&f.name);
    entry.next_id = items.items.len() as u32;
    entry.line_table = items.line_table.clone();
    entry.region_mut(RegionId(0)).scope = tree.unit().span;
    for node in tree.nodes.iter().skip(1) {
        let header_line = node.stmt.map(|_| node.span.0).expect("loop regions have statements");
        let id = entry.add_region(
            RegionId(node.parent.unwrap() as u32),
            RegionKind::Loop { header_line },
            node.span,
        );
        debug_assert_eq!(id.0 as usize, node.id);
    }

    let cx = Builder {
        sema,
        tree: &tree,
        pts,
        refmod,
        opts,
        expr_map: build_expr_map(f),
        modified: modified_per_region(f, &tree, sema),
    };
    cx.fill(&mut entry, &items.items);
    let reg = hli_obs::metrics::cur();
    reg.counter("frontend.tblconst.funcs").inc();
    reg.counter("frontend.tblconst.regions").add(entry.regions.len() as u64);
    entry
}

/// What an access-class unit is keyed on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum BaseKey {
    Scalar(SymId),
    Array(SymId),
    /// Access through a known root pointer (treated as a virtual array).
    PtrRoot(SymId),
    /// Access through an unknown pointer (unique per unit).
    PtrUnknown(u32),
    /// An ABI stack slot (unique per unit).
    Stack(u32),
}

/// Per-dimension access summary.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DimSummary {
    /// A loop-invariant-symbol affine subscript, exact.
    Exact(Affine),
    /// A constant element range (from summarizing a loop).
    Range(DimRange),
    /// Unanalyzable.
    Vague,
}

/// One unit entering the grouping at a region: a direct item or a child
/// region's class summary.
#[derive(Debug, Clone)]
struct Unit {
    base: BaseKey,
    dims: Vec<DimSummary>,
    kind: EquivKind,
    member: MemberRef,
    has_store: bool,
    has_load: bool,
}

/// A class built at a region, kept for summarization to the parent.
#[derive(Debug, Clone)]
struct ClassBuild {
    id: ItemId,
    base: BaseKey,
    dims: Vec<DimSummary>,
    kind: EquivKind,
    members: Vec<MemberRef>,
    has_store: bool,
    has_load: bool,
    /// Tree nodes of subregions contributing members (for REF/MOD scoping).
    from_regions: HashSet<usize>,
}

struct Builder<'a> {
    sema: &'a Sema,
    tree: &'a RegionTree,
    pts: &'a PointsTo,
    refmod: Option<&'a RefMod>,
    opts: FrontendOptions,
    expr_map: HashMap<ExprId, &'a Expr>,
    /// Per tree node: symbols assigned anywhere within the region.
    modified: Vec<HashSet<SymId>>,
}

fn build_expr_map(f: &FuncDef) -> HashMap<ExprId, &Expr> {
    let mut map = HashMap::new();
    for s in &f.body.stmts {
        s.walk_stmts(&mut |st: &Stmt| {
            st.own_exprs(&mut |e: &Expr| {
                e.walk(&mut |x| {
                    map.insert(x.id, x);
                })
            })
        });
    }
    map
}

fn modified_per_region(f: &FuncDef, tree: &RegionTree, sema: &Sema) -> Vec<HashSet<SymId>> {
    // Collect assignments per innermost region, then accumulate upward.
    let mut sets: Vec<HashSet<SymId>> = vec![HashSet::new(); tree.nodes.len()];
    for s in &f.body.stmts {
        s.walk_stmts(&mut |st: &Stmt| {
            st.own_exprs(&mut |e: &Expr| {
                e.walk(&mut |x| {
                    if let ExprKind::Assign(l, _)
                    | ExprKind::CompoundAssign(_, l, _)
                    | ExprKind::IncDec(_, l) = &x.kind
                    {
                        if matches!(l.kind, ExprKind::Ident(_)) {
                            if let Some(sym) = sema.ident_sym(l.id) {
                                let r = tree.region_of_expr(x.id);
                                sets[r].insert(sym);
                            }
                        }
                    }
                })
            })
        });
    }
    for i in (1..sets.len()).rev() {
        let here: Vec<SymId> = sets[i].iter().copied().collect();
        let p = tree.nodes[i].parent.unwrap();
        sets[p].extend(here);
    }
    sets
}

impl<'a> Builder<'a> {
    fn fill(&self, entry: &mut HliEntry, items: &[Item]) {
        let n = self.tree.nodes.len();
        // Items per region.
        let mut direct: Vec<Vec<&Item>> = vec![Vec::new(); n];
        let mut calls: Vec<Vec<&Item>> = vec![Vec::new(); n];
        for it in items {
            let r = match it.event.expr {
                Some(e) => self.tree.region_of_expr(e),
                None => 0,
            };
            if it.event.kind == AccessKind::Call {
                calls[r].push(it);
            } else {
                direct[r].push(it);
            }
        }

        // Stack-arg items belonging to each call item (memwalk emits the
        // arg stores right before their call, same line).
        let stack_args = associate_stack_args(items);

        // Callee REF/MOD accumulated per region subtree (for the
        // `CallRef::SubRegion` entries).
        let mut subtree_rm: Vec<Option<hli_analysis::RefModSet>> = vec![None; n];
        if let Some(rm) = self.refmod {
            for i in (0..n).rev() {
                let mut acc: Option<hli_analysis::RefModSet> = None;
                let mut add = |set: &hli_analysis::RefModSet| {
                    let a = acc.get_or_insert_with(Default::default);
                    a.refs.extend(set.refs.iter().copied());
                    a.mods.extend(set.mods.iter().copied());
                    a.unknown |= set.unknown;
                };
                for c in &calls[i] {
                    if let AccessPath::Call { callee } = &c.event.path {
                        if let Some(set) = rm.of(callee) {
                            add(set);
                        }
                    }
                }
                let children = self.tree.nodes[i].children.clone();
                for ch in children {
                    if let Some(set) = subtree_rm[ch].clone() {
                        add(&set);
                    }
                }
                subtree_rm[i] = acc;
            }
        }

        // Bottom-up class construction.
        let mut summaries: Vec<Vec<ClassBuild>> = vec![Vec::new(); n];
        let mut unknown_ctr = 0u32;
        for node in self.tree.bottom_up() {
            let canon = self.tree.nodes[node].canon.as_ref();
            let is_unit = node == 0;
            // Build units.
            let mut units: Vec<Unit> = Vec::new();
            for it in &direct[node] {
                units.push(self.unit_of_item(it, node, &mut unknown_ctr));
            }
            for child in &self.tree.nodes[node].children {
                for cls in &summaries[*child] {
                    units.push(Unit {
                        base: cls.base.clone(),
                        dims: cls.dims.clone(),
                        kind: cls.kind,
                        member: MemberRef::SubClass {
                            region: RegionId(*child as u32),
                            class: cls.id,
                        },
                        has_store: cls.has_store,
                        has_load: cls.has_load,
                    });
                }
            }

            // Group units into classes.
            let mut classes = self.group(entry, units, is_unit);
            // Record contributing subregions.
            for c in &mut classes {
                for m in &c.members {
                    if let MemberRef::SubClass { region, .. } = m {
                        c.from_regions.insert(region.0 as usize);
                    }
                }
            }

            // Relation tables.
            let region_id = RegionId(node as u32);
            let mut alias: Vec<AliasEntry> = Vec::new();
            let mut lcdd: Vec<LcddEntry> = Vec::new();
            let is_loop = !is_unit;
            for i in 0..classes.len() {
                for j in i..classes.len() {
                    let (a, b) = (&classes[i], &classes[j]);
                    if i != j && self.may_alias_classes(a, b) {
                        alias.push(AliasEntry { classes: vec![a.id, b.id] });
                    }
                    if is_loop && (a.has_store || b.has_store) {
                        if let Some(e) = self.lcdd_between(a, b, i == j, canon) {
                            lcdd.push(e);
                        }
                    }
                }
            }

            // Call REF/MOD entries.
            let mut refmod_entries: Vec<CallRefMod> = Vec::new();
            if let Some(rm) = self.refmod {
                for c in &calls[node] {
                    let AccessPath::Call { callee } = &c.event.path else { continue };
                    let Some(set) = rm.of(callee) else { continue };
                    let mut e = self.map_refmod(set, &classes);
                    // The call reads its own stack-argument slots.
                    if let Some(args) = stack_args.get(&c.id) {
                        for cls in &classes {
                            let holds = cls
                                .members
                                .iter()
                                .any(|m| matches!(m, MemberRef::Item(i) if args.contains(i)));
                            if holds && !e.0.contains(&cls.id) {
                                e.0.push(cls.id);
                            }
                        }
                    }
                    refmod_entries.push(CallRefMod {
                        callee: CallRef::Item(c.id),
                        refs: e.0,
                        mods: e.1,
                    });
                }
                for child in &self.tree.nodes[node].children {
                    if let Some(set) = &subtree_rm[*child] {
                        let mut e = self.map_refmod(set, &classes);
                        // Calls inside the subregion also read the stack
                        // slots represented by that subregion's summaries.
                        for cls in &classes {
                            if matches!(cls.base, BaseKey::Stack(_))
                                && cls.from_regions.contains(child)
                                && !e.0.contains(&cls.id)
                            {
                                e.0.push(cls.id);
                            }
                        }
                        refmod_entries.push(CallRefMod {
                            callee: CallRef::SubRegion(RegionId(*child as u32)),
                            refs: e.0,
                            mods: e.1,
                        });
                    }
                }
            }

            // Install into the entry.
            {
                let r = entry.region_mut(region_id);
                r.equiv_classes = classes
                    .iter()
                    .map(|c| EquivClass {
                        id: c.id,
                        kind: c.kind,
                        members: c.members.clone(),
                        name_hint: self.name_hint(c),
                    })
                    .collect();
                r.alias_table = alias;
                r.lcdd_table = lcdd;
                r.call_refmod = refmod_entries;
            }

            // Summarize for the parent.
            if !is_unit {
                summaries[node] = classes
                    .into_iter()
                    .map(|mut c| {
                        c.dims = c.dims.into_iter().map(|d| self.summarize_dim(d, canon)).collect();
                        c
                    })
                    .collect();
            }
        }
    }

    /// Build the grouping unit of one direct item.
    fn unit_of_item(&self, it: &Item, node: usize, unknown_ctr: &mut u32) -> Unit {
        let (has_load, has_store) = match it.event.kind {
            AccessKind::Load => (true, false),
            AccessKind::Store => (false, true),
            AccessKind::Call => unreachable!("calls are not grouped"),
        };
        let member = MemberRef::Item(it.id);
        let (base, dims) = match &it.event.path {
            AccessPath::Var(s) => (BaseKey::Scalar(*s), Vec::new()),
            AccessPath::ArrayElem(sym, expr) => {
                let dims = self.subscript_dims_of(*expr, node);
                (BaseKey::Array(*sym), dims)
            }
            AccessPath::PtrAccess(root, expr) => match root {
                Some(p) => {
                    let dims = if self.modified[node].contains(p) && !self.is_region_ivar(node, *p)
                    {
                        // Walking pointer: location varies within the region.
                        vec![DimSummary::Vague]
                    } else {
                        self.ptr_sub_dims(*expr, node)
                    };
                    (BaseKey::PtrRoot(*p), dims)
                }
                None => {
                    *unknown_ctr += 1;
                    (BaseKey::PtrUnknown(*unknown_ctr), vec![DimSummary::Vague])
                }
            },
            AccessPath::StackArg { .. } | AccessPath::StackParamEntry { .. } => {
                *unknown_ctr += 1;
                (BaseKey::Stack(*unknown_ctr), Vec::new())
            }
            AccessPath::Call { .. } => unreachable!(),
        };
        Unit {
            base,
            dims,
            kind: EquivKind::Definite,
            member,
            has_store,
            has_load,
        }
    }

    fn is_region_ivar(&self, node: usize, sym: SymId) -> bool {
        // The region's own induction variable (and those of enclosing
        // canonical loops) are fixed within one iteration.
        let mut cur = Some(node);
        while let Some(nd) = cur {
            if let Some(cl) = &self.tree.nodes[nd].canon {
                if cl.ivar == sym {
                    return true;
                }
            }
            cur = self.tree.nodes[nd].parent;
        }
        false
    }

    /// Per-dimension summaries of an array access expression.
    fn subscript_dims_of(&self, expr: ExprId, node: usize) -> Vec<DimSummary> {
        let Some(e) = self.expr_map.get(&expr) else { return vec![DimSummary::Vague] };
        let Some((_, subs)) = hli_lang::memwalk::resolve_array_access(e, self.sema) else {
            return vec![DimSummary::Vague];
        };
        subs.iter().map(|s| self.dim_of_expr(s, node)).collect()
    }

    /// Subscript dims of a pointer access: `*p` → `[0]`, `p[i]` → `[i]`,
    /// `p[i][j]` → `[i, j]`.
    fn ptr_sub_dims(&self, expr: ExprId, node: usize) -> Vec<DimSummary> {
        let Some(e) = self.expr_map.get(&expr) else { return vec![DimSummary::Vague] };
        match &e.kind {
            ExprKind::Deref(_) => vec![DimSummary::Exact(Affine::constant(0))],
            ExprKind::Index(..) => {
                let mut subs = Vec::new();
                let mut cur: &Expr = e;
                while let ExprKind::Index(b, i) = &cur.kind {
                    subs.push(self.dim_of_expr(i, node));
                    cur = b;
                }
                subs.reverse();
                subs
            }
            _ => vec![DimSummary::Vague],
        }
    }

    fn dim_of_expr(&self, e: &Expr, node: usize) -> DimSummary {
        if !self.opts.array_analysis {
            return DimSummary::Vague;
        }
        match affine::extract(e, self.sema) {
            Some(aff) => {
                let variant = aff
                    .symbols()
                    .any(|s| self.modified[node].contains(&s) && !self.is_region_ivar(node, s));
                if variant {
                    DimSummary::Vague
                } else {
                    DimSummary::Exact(aff)
                }
            }
            None => DimSummary::Vague,
        }
    }

    /// Group units into classes per the Figure-2 rules.
    fn group(
        &self,
        entry: &mut HliEntry,
        units: Vec<Unit>,
        is_unit_region: bool,
    ) -> Vec<ClassBuild> {
        let mut classes: Vec<ClassBuild> = Vec::new();
        'units: for u in units {
            for c in &mut classes {
                if self.unit_joins(c, &u, is_unit_region) {
                    c.members.push(u.member);
                    c.has_store |= u.has_store;
                    c.has_load |= u.has_load;
                    let exact_match = c.dims == u.dims
                        && c.dims.iter().all(|d| matches!(d, DimSummary::Exact(_)));
                    if u.kind == EquivKind::Maybe || !exact_match {
                        c.kind = EquivKind::Maybe;
                    }
                    // Widen dims to cover the newcomer.
                    c.dims = merge_dims(&c.dims, &u.dims);
                    continue 'units;
                }
            }
            classes.push(ClassBuild {
                id: entry.fresh_id(),
                base: u.base,
                dims: u.dims,
                kind: u.kind,
                members: vec![u.member],
                has_store: u.has_store,
                has_load: u.has_load,
                from_regions: HashSet::new(),
            });
        }
        classes
    }

    /// May `u` join class `c`?
    fn unit_joins(&self, c: &ClassBuild, u: &Unit, is_unit_region: bool) -> bool {
        if c.base != u.base {
            return false;
        }
        match &u.base {
            BaseKey::Scalar(_) => true,
            BaseKey::Stack(_) | BaseKey::PtrUnknown(_) => false, // unique keys never collide
            BaseKey::Array(_) | BaseKey::PtrRoot(_) => {
                if is_unit_region {
                    // The unit region collapses per base object.
                    return true;
                }
                let c_exact = c.dims.iter().all(|d| matches!(d, DimSummary::Exact(_)));
                let u_exact = u.dims.iter().all(|d| matches!(d, DimSummary::Exact(_)));
                if c_exact && u_exact {
                    // Exact units merge only on identical access paths.
                    c.dims == u.dims
                } else {
                    // Imprecise units of the same base pool into the
                    // section class; exact units stay out of it.
                    !c_exact && !u_exact
                }
            }
        }
    }

    /// May two classes overlap within one iteration?
    fn may_alias_classes(&self, a: &ClassBuild, b: &ClassBuild) -> bool {
        use BaseKey::*;
        match (&a.base, &b.base) {
            (Stack(_), _) | (_, Stack(_)) => false,
            (PtrUnknown(_), other) | (other, PtrUnknown(_)) => !matches!(other, Stack(_)),
            (Scalar(x), Scalar(y)) => x == y && a.id != b.id, // same sym ⇒ same class anyway
            (Array(x), Array(y)) => {
                if x != y {
                    return false;
                }
                self.dims_may_overlap(&a.dims, &b.dims)
            }
            (PtrRoot(p), PtrRoot(q)) => {
                if p == q {
                    return self.dims_may_overlap(&a.dims, &b.dims);
                }
                self.pts.may_alias(*p, *q)
            }
            (PtrRoot(p), Scalar(s) | Array(s)) | (Scalar(s) | Array(s), PtrRoot(p)) => {
                self.pts.may_point_to(*p, *s)
            }
            (Scalar(_), Array(_)) | (Array(_), Scalar(_)) => false,
        }
    }

    /// Same-iteration overlap between two same-base dim vectors that are
    /// *not* identical (identical would have merged).
    fn dims_may_overlap(&self, a: &[DimSummary], b: &[DimSummary]) -> bool {
        if a.len() != b.len() {
            return true; // different shapes: be conservative
        }
        for (da, db) in a.iter().zip(b) {
            let disjoint = match (da, db) {
                (DimSummary::Exact(x), DimSummary::Exact(y)) => {
                    matches!(x.const_difference(y), Some(k) if k != 0)
                }
                (DimSummary::Exact(x), DimSummary::Range(r))
                | (DimSummary::Range(r), DimSummary::Exact(x)) => {
                    x.is_constant() && !DimRange::point(x.constant).may_overlap(r)
                }
                (DimSummary::Range(x), DimSummary::Range(y)) => !x.may_overlap(y),
                _ => false,
            };
            if disjoint {
                return false;
            }
        }
        true
    }

    /// The LCDD arc between two classes (or a class and itself) for a loop
    /// region.
    fn lcdd_between(
        &self,
        a: &ClassBuild,
        b: &ClassBuild,
        self_pair: bool,
        canon: Option<&CanonLoop>,
    ) -> Option<LcddEntry> {
        use BaseKey::*;
        let maybe_arc = |kind: DepKind| {
            Some(LcddEntry { src: a.id, dst: b.id, kind, distance: Distance::Unknown })
        };
        if self_pair {
            // A class against itself across iterations.
            return match &a.base {
                Stack(_) => None,
                Scalar(_) => Some(LcddEntry {
                    src: a.id,
                    dst: a.id,
                    kind: if a.kind == EquivKind::Definite {
                        DepKind::Definite
                    } else {
                        DepKind::Maybe
                    },
                    distance: Distance::Const(1),
                }),
                PtrUnknown(_) => maybe_arc(DepKind::Maybe),
                Array(_) | PtrRoot(_) => {
                    let all_exact_invariant = canon.is_some()
                        && a.dims.iter().all(|d| match d {
                            DimSummary::Exact(aff) => aff.coeff(canon.unwrap().ivar) == 0,
                            _ => false,
                        });
                    let any_ivar_exact = canon.is_some()
                        && a.dims.iter().all(|d| matches!(d, DimSummary::Exact(_)))
                        && a.dims.iter().any(|d| match d {
                            DimSummary::Exact(aff) => aff.coeff(canon.unwrap().ivar) != 0,
                            _ => false,
                        });
                    if all_exact_invariant {
                        // One fixed location every iteration.
                        Some(LcddEntry {
                            src: a.id,
                            dst: a.id,
                            kind: if a.kind == EquivKind::Definite {
                                DepKind::Definite
                            } else {
                                DepKind::Maybe
                            },
                            distance: Distance::Const(1),
                        })
                    } else if any_ivar_exact {
                        // Moves with the loop: distinct element each
                        // iteration (e.g. a[i]) — no self arc. Strides that
                        // revisit are impossible for a single affine form.
                        None
                    } else {
                        // Sections / vague: conservatively carried.
                        maybe_arc(DepKind::Maybe)
                    }
                }
            };
        }
        match (&a.base, &b.base) {
            (Stack(_), _) | (_, Stack(_)) => None,
            (PtrUnknown(_), _) | (_, PtrUnknown(_)) => maybe_arc(DepKind::Maybe),
            (Scalar(x), Scalar(y)) => {
                if x == y {
                    maybe_arc(DepKind::Maybe)
                } else {
                    None
                }
            }
            (Array(x), Array(y)) if x == y => self.same_base_lcdd(a, b, canon),
            (PtrRoot(p), PtrRoot(q)) if p == q => self.same_base_lcdd(a, b, canon),
            (PtrRoot(p), PtrRoot(q)) => {
                if self.pts.may_alias(*p, *q) {
                    maybe_arc(DepKind::Maybe)
                } else {
                    None
                }
            }
            (PtrRoot(p), Scalar(s) | Array(s)) | (Scalar(s) | Array(s), PtrRoot(p)) => {
                if self.pts.may_point_to(*p, *s) {
                    maybe_arc(DepKind::Maybe)
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    /// LCDD between two distinct classes over the same array / pointer root.
    fn same_base_lcdd(
        &self,
        a: &ClassBuild,
        b: &ClassBuild,
        canon: Option<&CanonLoop>,
    ) -> Option<LcddEntry> {
        let Some(cl) = canon else {
            return Some(LcddEntry {
                src: a.id,
                dst: b.id,
                kind: DepKind::Maybe,
                distance: Distance::Unknown,
            });
        };
        let a_exact = a.dims.iter().all(|d| matches!(d, DimSummary::Exact(_)));
        let b_exact = b.dims.iter().all(|d| matches!(d, DimSummary::Exact(_)));
        if a_exact && b_exact && a.dims.len() == b.dims.len() {
            let trip = cl.trip_count();
            let mut signed: Option<i64> = None;
            let reg = hli_obs::metrics::cur();
            for (da, db) in a.dims.iter().zip(&b.dims) {
                let (DimSummary::Exact(fa), DimSummary::Exact(fb)) = (da, db) else {
                    unreachable!()
                };
                // Classify the ladder rung (same structure `siv_test` keys
                // off: induction-variable coefficients on both sides).
                let (c1, c2) = (fa.coeff(cl.ivar), fb.coeff(cl.ivar));
                let rung = match (c1, c2) {
                    (0, 0) => "frontend.deptest.ziv",
                    (0, _) | (_, 0) => "frontend.deptest.weak_zero_siv",
                    _ if c1 == c2 => "frontend.deptest.strong_siv",
                    _ => "frontend.deptest.miv",
                };
                reg.counter(rung).inc();
                match siv_test(fa, fb, cl.ivar, trip) {
                    DepTest::Independent => return None,
                    DepTest::Unknown => {
                        return Some(LcddEntry {
                            src: a.id,
                            dst: b.id,
                            kind: DepKind::Maybe,
                            distance: Distance::Unknown,
                        })
                    }
                    DepTest::Invariant => {}
                    DepTest::SameIteration => match signed {
                        None => signed = Some(0),
                        Some(0) => {}
                        Some(_) => return None,
                    },
                    DepTest::Carried { distance, a_to_b } => {
                        let s = if a_to_b { distance } else { -distance };
                        match signed {
                            None => signed = Some(s),
                            Some(prev) if prev == s => {}
                            Some(_) => return None,
                        }
                    }
                }
            }
            return match signed {
                // All dims invariant: same fixed location(s) both classes —
                // but distinct exact classes with all-invariant equal dims
                // merge; unequal invariant dims are Independent. Reaching
                // here means every dim was `Invariant`: overlap every
                // iteration.
                None => Some(LcddEntry {
                    src: a.id,
                    dst: b.id,
                    kind: DepKind::Maybe,
                    distance: Distance::Unknown,
                }),
                Some(0) => None, // pure same-iteration overlap is the alias table's job
                Some(s) if s > 0 => Some(LcddEntry {
                    src: a.id,
                    dst: b.id,
                    kind: dep_kind(a, b),
                    distance: Distance::Const(s as u32),
                }),
                Some(s) => Some(LcddEntry {
                    src: b.id,
                    dst: a.id,
                    kind: dep_kind(a, b),
                    distance: Distance::Const((-s) as u32),
                }),
            };
        }
        // Imprecise on at least one side: refute by disjoint sections.
        if !self.dims_may_overlap(&a.dims, &b.dims) {
            // Disjoint *within* an iteration; across iterations sections
            // summarize the whole loop already, so disjoint sections of the
            // same array never meet.
            return None;
        }
        Some(LcddEntry {
            src: a.id,
            dst: b.id,
            kind: DepKind::Maybe,
            distance: Distance::Unknown,
        })
    }

    /// Summarize a dimension for the parent region.
    fn summarize_dim(&self, d: DimSummary, canon: Option<&CanonLoop>) -> DimSummary {
        match (d, canon) {
            (DimSummary::Exact(aff), Some(cl)) => {
                if aff.coeff(cl.ivar) == 0 {
                    DimSummary::Exact(aff)
                } else {
                    let r = subscript_range(&aff, cl.ivar, cl);
                    DimSummary::Range(r)
                }
            }
            (DimSummary::Exact(aff), None) => {
                if aff.is_constant() {
                    DimSummary::Exact(aff)
                } else {
                    // Unknown iteration pattern: any symbol may have varied.
                    DimSummary::Vague
                }
            }
            (other, _) => other,
        }
    }

    /// Map an interprocedural REF/MOD set onto a region's classes.
    fn map_refmod(
        &self,
        set: &hli_analysis::RefModSet,
        classes: &[ClassBuild],
    ) -> (Vec<ItemId>, Vec<ItemId>) {
        let covers = |objs: &std::collections::BTreeSet<SymId>, c: &ClassBuild| -> bool {
            if set.unknown {
                return !matches!(c.base, BaseKey::Stack(_));
            }
            match &c.base {
                BaseKey::Scalar(s) | BaseKey::Array(s) => objs.contains(s),
                BaseKey::PtrRoot(p) => match self.pts.targets(*p) {
                    Some(t) => t.iter().any(|o| objs.contains(o)),
                    None => true,
                },
                BaseKey::PtrUnknown(_) => true,
                BaseKey::Stack(_) => false,
            }
        };
        let refs = classes.iter().filter(|c| covers(&set.refs, c)).map(|c| c.id).collect();
        let mods = classes.iter().filter(|c| covers(&set.mods, c)).map(|c| c.id).collect();
        (refs, mods)
    }

    fn name_hint(&self, c: &ClassBuild) -> String {
        let base = match &c.base {
            BaseKey::Scalar(s) | BaseKey::Array(s) => self.sema.sym(*s).name.clone(),
            BaseKey::PtrRoot(p) => format!("*{}", self.sema.sym(*p).name),
            BaseKey::PtrUnknown(k) => format!("*?{k}"),
            BaseKey::Stack(k) => format!("stack{k}"),
        };
        if c.dims.is_empty() {
            return base;
        }
        let dims: Vec<String> = c
            .dims
            .iter()
            .map(|d| match d {
                DimSummary::Exact(aff) => format!("[{aff}]"),
                DimSummary::Range(r) => format!("[{r}]"),
                DimSummary::Vague => "[?]".to_string(),
            })
            .collect();
        format!("{base}{}", dims.join(""))
    }
}

fn dep_kind(a: &ClassBuild, b: &ClassBuild) -> DepKind {
    if a.kind == EquivKind::Definite && b.kind == EquivKind::Definite {
        DepKind::Definite
    } else {
        DepKind::Maybe
    }
}

/// Widen class dims to also cover a joining unit.
fn merge_dims(c: &[DimSummary], u: &[DimSummary]) -> Vec<DimSummary> {
    if c.len() != u.len() {
        return vec![DimSummary::Vague; c.len().max(u.len()).max(1)];
    }
    c.iter()
        .zip(u)
        .map(|(a, b)| match (a, b) {
            (DimSummary::Exact(x), DimSummary::Exact(y)) if x == y => DimSummary::Exact(x.clone()),
            (DimSummary::Exact(x), DimSummary::Exact(y)) if x.is_constant() && y.is_constant() => {
                DimSummary::Range(DimRange::range(
                    x.constant.min(y.constant),
                    x.constant.max(y.constant),
                ))
            }
            (DimSummary::Range(x), DimSummary::Range(y)) => DimSummary::Range(x.hull(y)),
            (DimSummary::Range(r), DimSummary::Exact(x))
            | (DimSummary::Exact(x), DimSummary::Range(r))
                if x.is_constant() =>
            {
                DimSummary::Range(r.hull(&DimRange::point(x.constant)))
            }
            _ => DimSummary::Vague,
        })
        .collect()
}

/// Associate each call item with the stack-arg store items emitted for it
/// (they directly precede the call in emission order).
fn associate_stack_args(items: &[Item]) -> HashMap<ItemId, HashSet<ItemId>> {
    let mut map: HashMap<ItemId, HashSet<ItemId>> = HashMap::new();
    let mut pending: Vec<ItemId> = Vec::new();
    for it in items {
        match &it.event.path {
            AccessPath::StackArg { .. } => pending.push(it.id),
            AccessPath::Call { .. } if !pending.is_empty() => {
                map.insert(it.id, pending.drain(..).collect());
            }
            _ => {}
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_hli;
    use hli_core::query::{EquivAcc, HliQuery};
    use hli_core::textdump::dump_entry;
    use hli_lang::compile_to_ast;

    fn hli_of(src: &str) -> HliFile {
        let (p, s) = compile_to_ast(src).unwrap();
        generate_hli(&p, &s)
    }

    fn entry<'f>(f: &'f HliFile, name: &str) -> &'f HliEntry {
        f.entry(name).unwrap()
    }

    #[test]
    fn every_entry_validates() {
        let f = hli_of(
            "int a[10]; int b[10]; int sum;\n\
             int foo() {\n\
               int i; int j;\n\
               for (i = 0; i < 10; i++) {\n\
                 sum += a[i];\n\
               }\n\
               for (i = 0; i < 10; i++) {\n\
                 a[i] = b[0];\n\
                 for (j = 1; j < 10; j++) {\n\
                   b[j] = b[j] + b[j-1];\n\
                   sum = sum + a[i];\n\
                 }\n\
               }\n\
               return sum;\n\
             }\n\
             int main() { return foo(); }",
        );
        for e in &f.entries {
            let errs = e.verify();
            assert!(errs.is_empty(), "{}: {errs:?}\n{}", e.unit_name, dump_entry(e));
        }
    }

    /// The paper's Figure 2, end to end.
    #[test]
    fn figure2_structure_reproduced() {
        let f = hli_of(
            "int a[10]; int b[10]; int sum;\n\
             int foo() {\n\
               int i; int j;\n\
               for (i = 0; i < 10; i++) {\n\
                 sum += a[i];\n\
               }\n\
               for (i = 0; i < 10; i++) {\n\
                 a[i] = b[0];\n\
                 for (j = 1; j < 10; j++) {\n\
                   b[j] = b[j] + b[j-1];\n\
                   sum = sum + a[i];\n\
                 }\n\
               }\n\
               return sum;\n\
             }\n\
             int main() { return foo(); }",
        );
        let e = entry(&f, "foo");
        // Region structure: unit + 2 sibling i-loops + inner j-loop.
        assert_eq!(e.regions.len(), 4);
        assert_eq!(e.region(RegionId(0)).subregions.len(), 2);
        let second_i = e.region(RegionId(0)).subregions[1];
        assert_eq!(e.region(second_i).subregions.len(), 1);
        let j_loop = e.region(second_i).subregions[0];

        // The j-loop has the b[j] → b[j-1] distance-1 LCDD.
        let jl = e.region(j_loop);
        let dist1: Vec<&LcddEntry> =
            jl.lcdd_table.iter().filter(|d| d.distance == Distance::Const(1)).collect();
        assert!(
            !dist1.is_empty(),
            "expected a distance-1 arc in the j loop:\n{}",
            dump_entry(e)
        );

        // Region 3 (second i loop): b[0] aliases the b-section class.
        let r3 = e.region(second_i);
        let b0 = r3
            .equiv_classes
            .iter()
            .find(|c| c.name_hint.starts_with("b[0]"))
            .unwrap_or_else(|| panic!("no b[0] class:\n{}", dump_entry(e)));
        let bsec = r3
            .equiv_classes
            .iter()
            .find(|c| c.id != b0.id && c.name_hint.starts_with("b["))
            .expect("b section class");
        assert_eq!(bsec.kind, EquivKind::Maybe);
        assert!(
            r3.alias_table
                .iter()
                .any(|a| { a.classes.contains(&b0.id) && a.classes.contains(&bsec.id) }),
            "b[0] must alias the section:\n{}",
            dump_entry(e)
        );

        // The unit region collapses to one class per variable: sum
        // (definite), a (maybe), b (maybe).
        let unit = e.region(RegionId(0));
        assert_eq!(unit.equiv_classes.len(), 3, "{}", dump_entry(e));
        let sum = unit.equiv_classes.iter().find(|c| c.name_hint == "sum").unwrap();
        assert_eq!(sum.kind, EquivKind::Definite);
        let a = unit.equiv_classes.iter().find(|c| c.name_hint.starts_with('a')).unwrap();
        assert_eq!(a.kind, EquivKind::Maybe);
    }

    #[test]
    fn equiv_queries_disambiguate_distinct_elements() {
        let f = hli_of(
            "int a[10]; int b[10];\n\
             int main() {\n\
               int i;\n\
               for (i = 1; i < 10; i++) {\n\
                 a[i] = b[i] + b[i-1];\n\
               }\n\
               return a[0];\n\
             }",
        );
        let e = entry(&f, "main");
        let q = HliQuery::new(e);
        // Find the loop-line items: loads b[i], b[i-1]; store a[i].
        let line5 = e.line_table.entry(5).unwrap();
        let ids: Vec<ItemId> = line5.items.iter().map(|x| x.id).collect();
        let tys: Vec<ItemType> = line5.items.iter().map(|x| x.ty).collect();
        assert_eq!(tys, vec![ItemType::Load, ItemType::Load, ItemType::Store]);
        let (bi, bi1, ai) = (ids[0], ids[1], ids[2]);
        // b[i] vs b[i-1]: distinct within an iteration.
        assert_eq!(q.get_equiv_acc(bi, bi1), EquivAcc::None);
        // a[i] store vs b loads: different arrays.
        assert_eq!(q.get_equiv_acc(ai, bi), EquivAcc::None);
        // And no LCDD between a and b.
        assert!(q.get_lcdd(ai, bi).is_none());
    }

    #[test]
    fn scalar_accumulator_gets_self_arc() {
        let f = hli_of(
            "int a[10]; int sum;\n\
             int main() {\n\
               int i;\n\
               for (i = 0; i < 10; i++) sum += a[i];\n\
               return sum;\n\
             }",
        );
        let e = entry(&f, "main");
        let q = HliQuery::new(e);
        let line4 = e.line_table.entry(4).unwrap();
        // Events: load sum, load a[i], store sum.
        let sum_ld = line4.items[0].id;
        let sum_st = line4.items[2].id;
        assert_eq!(q.get_equiv_acc(sum_ld, sum_st), EquivAcc::Definite);
        let arc = q.get_lcdd(sum_ld, sum_st).expect("self LCDD on sum");
        assert_eq!(arc.distance, Distance::Const(1));
        assert_eq!(arc.kind, DepKind::Definite);
    }

    #[test]
    fn streaming_array_has_no_self_arc() {
        let f = hli_of(
            "int a[10];\n\
             int main() {\n\
               int i;\n\
               for (i = 0; i < 10; i++) a[i] = i;\n\
               return a[0];\n\
             }",
        );
        let e = entry(&f, "main");
        let q = HliQuery::new(e);
        let line4 = e.line_table.entry(4).unwrap();
        let st = line4.items[0].id;
        assert!(q.get_lcdd(st, st).is_none(), "a[i] never revisits an element");
    }

    #[test]
    fn pointer_params_disambiguated_by_points_to() {
        let f = hli_of(
            "double x[64]; double y[64];\n\
             void axpy(double *p, double *q, double s, int n) {\n\
               int i;\n\
               for (i = 0; i < n; i++) p[i] = p[i] + s * q[i];\n\
             }\n\
             int main() { axpy(x, y, 2.0, 64); return 0; }",
        );
        let e = entry(&f, "axpy");
        let q = HliQuery::new(e);
        let line4 = e.line_table.entry(4).unwrap();
        // Events: load p[i], load q[i], store p[i].
        let p_ld = line4.items[0].id;
        let q_ld = line4.items[1].id;
        let p_st = line4.items[2].id;
        assert_eq!(q.get_equiv_acc(p_ld, p_st), EquivAcc::Definite);
        assert_eq!(
            q.get_equiv_acc(q_ld, p_st),
            EquivAcc::None,
            "points-to proves p and q disjoint:\n{}",
            dump_entry(e)
        );
    }

    #[test]
    fn aliased_pointer_params_stay_aliased() {
        let f = hli_of(
            "double x[64];\n\
             void f(double *p, double *q) { p[0] = q[1]; }\n\
             int main() { f(x, x); return 0; }",
        );
        let e = entry(&f, "f");
        let q = HliQuery::new(e);
        let line2 = e.line_table.entry(2).unwrap();
        let q1_ld = line2.items[0].id;
        let p0_st = line2.items[1].id;
        assert_eq!(q.get_equiv_acc(q1_ld, p0_st), EquivAcc::Maybe);
    }

    #[test]
    fn call_refmod_entries_generated() {
        let f = hli_of(
            "int g; int h;\n\
             void bump() { g = g + 1; }\n\
             int main() {\n\
               h = 1;\n\
               bump();\n\
               return h + g;\n\
             }",
        );
        let e = entry(&f, "main");
        let q = HliQuery::new(e);
        let call = e
            .line_table
            .items()
            .find(|(_, it)| it.ty == ItemType::Call)
            .map(|(_, it)| it.id)
            .unwrap();
        let h_store = e.line_table.entry(4).unwrap().items[0].id;
        let g_load = e
            .line_table
            .entry(6)
            .unwrap()
            .items
            .iter()
            .rev()
            .find(|it| it.ty == ItemType::Load)
            .unwrap()
            .id;
        use hli_core::query::CallAcc;
        assert_eq!(q.get_call_acc(h_store, call), CallAcc::None, "{}", dump_entry(e));
        assert_eq!(q.get_call_acc(g_load, call), CallAcc::RefMod);
    }

    #[test]
    fn stack_args_are_refs_of_their_call() {
        let f = hli_of(
            "int f(int a, int b, int c, int d, int e, int x) { return a+b+c+d+e+x; }\n\
             int main() { return f(1, 2, 3, 4, 5, 6); }",
        );
        let e = entry(&f, "main");
        let q = HliQuery::new(e);
        let items: Vec<(u32, ItemEntry)> = e.line_table.items().collect();
        let call = items.iter().find(|(_, it)| it.ty == ItemType::Call).unwrap().1.id;
        let stores: Vec<ItemId> = items
            .iter()
            .filter(|(_, it)| it.ty == ItemType::Store)
            .map(|(_, it)| it.id)
            .collect();
        assert_eq!(stores.len(), 2);
        use hli_core::query::CallAcc;
        for s in stores {
            assert_eq!(q.get_call_acc(s, call), CallAcc::Ref, "{}", dump_entry(e));
        }
    }

    #[test]
    fn two_dimensional_accesses() {
        let f = hli_of(
            "double m[8][8];\n\
             int main() {\n\
               int i; int j;\n\
               for (i = 0; i < 8; i++)\n\
                 for (j = 0; j < 8; j++)\n\
                   m[i][j] = m[i][j] + 1.0;\n\
               return 0;\n\
             }",
        );
        let e = entry(&f, "main");
        let q = HliQuery::new(e);
        let line6 = e.line_table.entry(6).unwrap();
        let ld = line6.items[0].id;
        let st = line6.items[1].id;
        assert_eq!(q.get_equiv_acc(ld, st), EquivAcc::Definite);
        assert!(
            q.get_lcdd(ld, st).is_none(),
            "m[i][j] never carried:\n{}",
            dump_entry(e)
        );
        assert!(e.validate().is_empty());
    }

    #[test]
    fn stencil_carried_dependence_found() {
        let f = hli_of(
            "double v[100];\n\
             int main() {\n\
               int i;\n\
               for (i = 1; i < 99; i++) v[i] = v[i-1] + v[i+1];\n\
               return 0;\n\
             }",
        );
        let e = entry(&f, "main");
        let q = HliQuery::new(e);
        let line4 = e.line_table.entry(4).unwrap();
        // loads v[i-1], v[i+1]; store v[i].
        let vm1 = line4.items[0].id;
        let vp1 = line4.items[1].id;
        let vst = line4.items[2].id;
        // Same-iteration: all distinct.
        assert_eq!(q.get_equiv_acc(vm1, vst), EquivAcc::None);
        assert_eq!(q.get_equiv_acc(vp1, vst), EquivAcc::None);
        // Carried: store v[i] reaches load v[i-1] one iteration later.
        let arc = q.get_lcdd(vst, vm1).expect("carried arc");
        assert_eq!(arc.distance, Distance::Const(1));
        assert!(e.validate().is_empty());
    }

    #[test]
    fn walking_pointer_goes_conservative() {
        let f = hli_of(
            "int a[16];\n\
             int main() {\n\
               int *p; int i;\n\
               p = a;\n\
               for (i = 0; i < 16; i++) { *p = i; p++; }\n\
               return a[3];\n\
             }",
        );
        let e = entry(&f, "main");
        assert!(e.validate().is_empty(), "{:?}", e.validate());
        // The deref class must be a vague pointer class with a self arc.
        let loop_region = e.region(RegionId(1));
        assert!(
            loop_region.lcdd_table.iter().any(|d| d.distance == Distance::Unknown),
            "{}",
            dump_entry(e)
        );
    }

    #[test]
    fn disabled_analysis_degrades_precision() {
        let src = "int a[10];\n\
             int main() {\n\
               int i;\n\
               for (i = 1; i < 10; i++) a[i] = a[i-1];\n\
               return 0;\n\
             }";
        let (p, s) = compile_to_ast(src).unwrap();
        let precise = generate_hli(&p, &s);
        let blunt = crate::generate_hli_with(
            &p,
            &s,
            FrontendOptions { array_analysis: false, ..Default::default() },
        );
        let ep = entry(&precise, "main");
        let eb = entry(&blunt, "main");
        let qp = HliQuery::new(ep);
        let qb = HliQuery::new(eb);
        let ids = |e: &HliEntry| {
            let l = e.line_table.entry(4).unwrap();
            (l.items[0].id, l.items[1].id)
        };
        let (ld_p, st_p) = ids(ep);
        let (ld_b, st_b) = ids(eb);
        assert_eq!(qp.get_equiv_acc(ld_p, st_p), EquivAcc::None, "precise disambiguates");
        assert_eq!(qb.get_equiv_acc(ld_b, st_b), EquivAcc::Maybe, "blunt does not");
    }

    #[test]
    fn serialized_size_reasonable() {
        let f = hli_of(
            "double u[32][32]; double v[32][32];\n\
             int main() {\n\
               int i; int j;\n\
               for (i = 1; i < 31; i++)\n\
                 for (j = 1; j < 31; j++)\n\
                   u[i][j] = v[i][j] + v[i-1][j] + v[i+1][j];\n\
               return 0;\n\
             }",
        );
        let bytes = hli_core::serialize::encode_file(&f, Default::default());
        assert!(bytes.len() > 50, "non-trivial HLI");
        assert!(bytes.len() < 4096, "stays compact: {} bytes", bytes.len());
        let back = hli_core::serialize::decode_file(&bytes, Default::default()).unwrap();
        assert_eq!(back.entries.len(), f.entries.len());
    }
}
