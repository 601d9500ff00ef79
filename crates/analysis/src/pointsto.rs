//! Andersen-style points-to analysis.
//!
//! Flow- and context-insensitive inclusion-constraint analysis over the
//! whole program, in the precision class of the pointer analyses the paper
//! cites (refs 8 and 27) as front-end input to the alias table. Abstract
//! objects are declared variables (arrays as single objects). Constraints:
//!
//! * `p = &x`, `p = a` (array decay)      → base:  `pts(p) ⊇ {x}`
//! * `p = q`, `p = q ± k`                 → copy:  `pts(p) ⊇ pts(q)`
//! * `p = *q`, `p = q[i]` (pointer load)  → load:  `pts(p) ⊇ pts(o)` ∀ `o ∈ pts(q)`
//! * `*p = q`, `p[i] = q` (pointer store) → store: `pts(o) ⊇ pts(q)` ∀ `o ∈ pts(p)`
//! * calls bind argument sources to parameters; `return e` feeds a
//!   per-function return node.
//!
//! A pointer with an *empty* final set is treated as **unbounded** by
//! consumers ([`PointsTo::may_point_to`] returns true for everything):
//! an unconstrained pointer (e.g. one never assigned) must stay
//! conservative.

use hli_lang::ast::*;
use hli_lang::sema::{Sema, SymId};
use std::collections::{BTreeSet, HashMap};

/// A constraint-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Node {
    Sym(SymId),
    /// The return value of function `index`.
    Ret(u32),
}

/// The result: may-point-to sets for every pointer-valued symbol.
#[derive(Debug, Clone, Default)]
pub struct PointsTo {
    sets: HashMap<SymId, BTreeSet<SymId>>,
}

impl PointsTo {
    /// The set of objects `p` may point to (empty = unconstrained).
    pub fn targets(&self, p: SymId) -> Option<&BTreeSet<SymId>> {
        self.sets.get(&p).filter(|s| !s.is_empty())
    }

    /// May `p` point to `obj`? Unconstrained pointers may point anywhere.
    pub fn may_point_to(&self, p: SymId, obj: SymId) -> bool {
        match self.targets(p) {
            Some(s) => s.contains(&obj),
            None => true,
        }
    }

    /// Is `p`'s target set unknown (treat as the universe)?
    pub fn is_unbounded(&self, p: SymId) -> bool {
        self.targets(p).is_none()
    }

    /// May two pointers reference a common object?
    pub fn may_alias(&self, p: SymId, q: SymId) -> bool {
        match (self.targets(p), self.targets(q)) {
            (Some(a), Some(b)) => a.intersection(b).next().is_some(),
            _ => true,
        }
    }
}

/// Run the analysis over a whole program.
pub fn analyze(prog: &Program, sema: &Sema) -> PointsTo {
    let mut cx = Collector {
        sema,
        current_func: None,
        base: Vec::new(),
        copy: Vec::new(),
        load: Vec::new(),
        store: Vec::new(),
    };
    for (fi, f) in prog.funcs.iter().enumerate() {
        cx.func(fi as u32, f);
    }
    solve(cx)
}

/// A "source term" of a pointer-valued expression.
#[derive(Debug, Clone, Copy)]
enum SrcTerm {
    /// The address of an object.
    Base(SymId),
    /// The value of a node.
    Node(Node),
    /// The value loaded through a node (`*q`).
    Deref(Node),
}

struct Collector<'a> {
    sema: &'a Sema,
    current_func: Option<u32>,
    base: Vec<(Node, SymId)>,
    copy: Vec<(Node, Node)>,
    load: Vec<(Node, Node)>,
    store: Vec<(Node, Node)>,
}

impl<'a> Collector<'a> {
    fn func(&mut self, index: u32, f: &FuncDef) {
        self.current_func = Some(index);
        self.block(&f.body);
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Decl(d) => {
                if let Some(init) = &d.init {
                    self.expr(init);
                    if d.ty.is_pointer() {
                        let sym = self.sema.decl_sym(s.id);
                        let terms = self.sources(init);
                        self.bind(Node::Sym(sym), &terms);
                    }
                }
            }
            StmtKind::Expr(e) => self.expr(e),
            StmtKind::Block(b) => self.block(b),
            StmtKind::If { cond, then_body, else_body } => {
                self.expr(cond);
                self.stmt(then_body);
                if let Some(e) = else_body {
                    self.stmt(e);
                }
            }
            StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                self.expr(cond);
                self.stmt(body);
            }
            StmtKind::For { init, cond, step, body } => {
                for e in [init, cond, step].into_iter().flatten() {
                    self.expr(e);
                }
                self.stmt(body);
            }
            StmtKind::Return(Some(e)) => {
                self.expr(e);
                if self.sema.ty_of(e).decayed().is_pointer() {
                    let terms = self.sources(e);
                    let fidx = self.current_func.expect("inside a function");
                    self.bind(Node::Ret(fidx), &terms);
                }
            }
            _ => {}
        }
    }

    /// Record constraints arising from an expression tree.
    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Assign(lhs, rhs) | ExprKind::CompoundAssign(_, lhs, rhs) => {
                self.expr(rhs);
                // Subscript expressions inside the lhs may contain calls etc.
                self.lhs_subexprs(lhs);
                if self.sema.ty_of(lhs).is_pointer() {
                    let terms = self.sources(rhs);
                    match &lhs.kind {
                        ExprKind::Ident(_) => {
                            let sym = self.sema.sym_of(lhs);
                            self.bind(Node::Sym(sym), &terms);
                        }
                        ExprKind::Deref(q) => {
                            let qs = self.sources(q);
                            self.bind_through(&qs, &terms);
                        }
                        ExprKind::Index(q, _) => {
                            // Element of an array-of-pointers, or through a
                            // pointer-to-pointer.
                            match hli_lang::memwalk::resolve_array_access(lhs, self.sema) {
                                Some((arr, _)) => {
                                    // The array object itself stands for all
                                    // its elements.
                                    self.bind(Node::Sym(arr), &terms);
                                }
                                None => {
                                    let qs = self.sources(q);
                                    self.bind_through(&qs, &terms);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            ExprKind::IncDec(_, l) => self.lhs_subexprs(l),
            ExprKind::Call(_, args) => {
                for a in args {
                    self.expr(a);
                }
                for (a, param) in args.iter().zip(self.sema.func_params(self.sema.callee(e))) {
                    if self.sema.sym(param).ty.is_pointer() {
                        let terms = self.sources(a);
                        self.bind(Node::Sym(param), &terms);
                    }
                }
            }
            ExprKind::Unary(_, a) | ExprKind::Deref(a) | ExprKind::Addr(a) => self.expr(a),
            ExprKind::Binary(_, a, b) | ExprKind::Index(a, b) => {
                self.expr(a);
                self.expr(b);
            }
            _ => {}
        }
    }

    /// Visit subscript/pointer sub-expressions of an lvalue for their own
    /// side constraints (calls in subscripts, nested assigns).
    fn lhs_subexprs(&mut self, lv: &Expr) {
        match &lv.kind {
            ExprKind::Index(b, i) => {
                self.lhs_subexprs(b);
                self.expr(i);
            }
            ExprKind::Deref(p) => self.expr(p),
            _ => {}
        }
    }

    /// The source terms of a pointer-valued expression.
    fn sources(&mut self, e: &Expr) -> Vec<SrcTerm> {
        match &e.kind {
            ExprKind::Addr(lv) => self.addr_sources(lv),
            ExprKind::Ident(_) => {
                let sym = self.sema.sym_of(e);
                if self.sema.sym(sym).ty.is_array() {
                    vec![SrcTerm::Base(sym)]
                } else {
                    vec![SrcTerm::Node(Node::Sym(sym))]
                }
            }
            ExprKind::Binary(BinOp::Add | BinOp::Sub, a, b) => {
                let mut out = Vec::new();
                if self.sema.ty_of(a).decayed().is_pointer() {
                    out.extend(self.sources(a));
                }
                if self.sema.ty_of(b).decayed().is_pointer() {
                    out.extend(self.sources(b));
                }
                out
            }
            ExprKind::Deref(q) => {
                let inner = self.sources(q);
                inner
                    .into_iter()
                    .filter_map(|t| match t {
                        SrcTerm::Node(n) => Some(SrcTerm::Deref(n)),
                        // *(&x) = x's value: x is a pointer object here.
                        SrcTerm::Base(s) => Some(SrcTerm::Node(Node::Sym(s))),
                        // **q: collapse one level conservatively — treat as
                        // unknown by returning nothing (consumers go
                        // unbounded).
                        SrcTerm::Deref(_) => None,
                    })
                    .collect()
            }
            ExprKind::Index(q, _) => {
                if self.sema.ty_of(e).is_array() {
                    // Partial index of a multi-dim array: still the array.
                    return self.sources(q);
                }
                match hli_lang::memwalk::resolve_array_access(e, self.sema) {
                    Some((arr, _)) => vec![SrcTerm::Deref(Node::Sym(arr))],
                    None => {
                        let inner = self.sources(q);
                        inner
                            .into_iter()
                            .filter_map(|t| match t {
                                SrcTerm::Node(n) => Some(SrcTerm::Deref(n)),
                                SrcTerm::Base(s) => Some(SrcTerm::Deref(Node::Sym(s))),
                                SrcTerm::Deref(_) => None,
                            })
                            .collect()
                    }
                }
            }
            ExprKind::Call(..) => vec![SrcTerm::Node(Node::Ret(self.sema.callee(e)))],
            ExprKind::Assign(_, r) | ExprKind::CompoundAssign(_, _, r) => self.sources(r),
            ExprKind::IncDec(_, l) => self.sources(l),
            _ => vec![],
        }
    }

    /// Source terms of `&lv`.
    fn addr_sources(&mut self, lv: &Expr) -> Vec<SrcTerm> {
        match &lv.kind {
            ExprKind::Ident(_) => vec![SrcTerm::Base(self.sema.sym_of(lv))],
            ExprKind::Index(b, _) => {
                match hli_lang::memwalk::resolve_array_access(lv, self.sema) {
                    Some((arr, _)) => vec![SrcTerm::Base(arr)],
                    None => self.sources(b), // &p[i] ≡ p + i
                }
            }
            ExprKind::Deref(q) => self.sources(q), // &*q ≡ q
            _ => vec![],
        }
    }

    fn bind(&mut self, dst: Node, terms: &[SrcTerm]) {
        for t in terms {
            match t {
                SrcTerm::Base(s) => self.base.push((dst, *s)),
                SrcTerm::Node(n) => self.copy.push((dst, *n)),
                SrcTerm::Deref(n) => self.load.push((dst, *n)),
            }
        }
    }

    /// `*q ⊇ terms` for every pointer node of `q`.
    fn bind_through(&mut self, q_terms: &[SrcTerm], terms: &[SrcTerm]) {
        for q in q_terms {
            match q {
                SrcTerm::Node(n) => {
                    for t in terms {
                        match t {
                            // *n gains the address of s: need an auxiliary
                            // node; model as a store of a fresh base-holding
                            // node. Simplest: for each object o in pts(n)
                            // (resolved at solve time) pts(o) ⊇ {s}. We
                            // encode that as a store from a synthetic node.
                            SrcTerm::Base(s) => {
                                let aux = Node::Sym(u32::MAX - self.base.len() as u32);
                                self.base.push((aux, *s));
                                self.store.push((*n, aux));
                            }
                            SrcTerm::Node(src) => self.store.push((*n, *src)),
                            SrcTerm::Deref(src) => {
                                let aux = Node::Sym(u32::MAX / 2 - self.load.len() as u32);
                                self.load.push((aux, *src));
                                self.store.push((*n, aux));
                            }
                        }
                    }
                }
                SrcTerm::Base(s) => {
                    // *(&x) = ...: direct assignment to x.
                    for t in terms {
                        match t {
                            SrcTerm::Base(b) => self.base.push((Node::Sym(*s), *b)),
                            SrcTerm::Node(n) => self.copy.push((Node::Sym(*s), *n)),
                            SrcTerm::Deref(n) => self.load.push((Node::Sym(*s), *n)),
                        }
                    }
                }
                SrcTerm::Deref(_) => { /* ** stores: beyond MiniC's depth, drop */ }
            }
        }
    }
}

fn solve(cx: Collector<'_>) -> PointsTo {
    let mut pts: HashMap<Node, BTreeSet<SymId>> = HashMap::new();
    for (n, s) in &cx.base {
        pts.entry(*n).or_default().insert(*s);
    }
    // Iterate to fixpoint. Program sizes here are small (thousands of
    // constraints), so a simple round-robin pass is fine.
    loop {
        let mut changed = false;
        for (dst, src) in &cx.copy {
            let add: Vec<SymId> =
                pts.get(src).map(|s| s.iter().copied().collect()).unwrap_or_default();
            if !add.is_empty() {
                let d = pts.entry(*dst).or_default();
                for s in add {
                    changed |= d.insert(s);
                }
            }
        }
        for (dst, from) in &cx.load {
            let objs: Vec<SymId> =
                pts.get(from).map(|s| s.iter().copied().collect()).unwrap_or_default();
            let mut add = Vec::new();
            for o in objs {
                if let Some(s) = pts.get(&Node::Sym(o)) {
                    add.extend(s.iter().copied());
                }
            }
            if !add.is_empty() {
                let d = pts.entry(*dst).or_default();
                for s in add {
                    changed |= d.insert(s);
                }
            }
        }
        for (into, src) in &cx.store {
            let objs: Vec<SymId> =
                pts.get(into).map(|s| s.iter().copied().collect()).unwrap_or_default();
            let vals: Vec<SymId> =
                pts.get(src).map(|s| s.iter().copied().collect()).unwrap_or_default();
            if vals.is_empty() {
                continue;
            }
            for o in objs {
                let d = pts.entry(Node::Sym(o)).or_default();
                for &v in &vals {
                    changed |= d.insert(v);
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut out = PointsTo::default();
    for (n, s) in pts {
        if let Node::Sym(sym) = n {
            // Skip the synthetic auxiliary nodes.
            if sym < u32::MAX / 4 {
                out.sets.insert(sym, s);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_lang::compile_to_ast;

    fn pts_of(src: &str) -> (PointsTo, Sema) {
        let (p, s) = compile_to_ast(src).unwrap();
        let pt = analyze(&p, &s);
        (pt, s)
    }

    fn sym(s: &Sema, name: &str) -> SymId {
        s.syms
            .iter()
            .enumerate()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i as SymId)
            .unwrap()
    }

    #[test]
    fn address_of_scalar() {
        let (pt, s) = pts_of("int main() { int x; int *p; p = &x; return *p; }");
        let (p, x) = (sym(&s, "p"), sym(&s, "x"));
        assert!(pt.may_point_to(p, x));
        assert_eq!(pt.targets(p).unwrap().len(), 1);
    }

    #[test]
    fn array_decay_and_element_address() {
        let (pt, s) = pts_of(
            "int a[10]; int b[10]; int main() { int *p; int *q; p = a; q = &b[3]; return *p + *q; }",
        );
        assert!(pt.may_point_to(sym(&s, "p"), sym(&s, "a")));
        assert!(!pt.may_point_to(sym(&s, "p"), sym(&s, "b")));
        assert!(pt.may_point_to(sym(&s, "q"), sym(&s, "b")));
    }

    #[test]
    fn copy_and_arith_propagate() {
        let (pt, s) = pts_of(
            "int a[10]; int main() { int *p; int *q; int *r; p = a; q = p; r = q + 2; return *r; }",
        );
        assert!(pt.may_point_to(sym(&s, "r"), sym(&s, "a")));
    }

    #[test]
    fn distinct_pointers_dont_alias() {
        let (pt, s) = pts_of(
            "int a[10]; int b[10]; int main() { int *p; int *q; p = a; q = b; return *p + *q; }",
        );
        assert!(!pt.may_alias(sym(&s, "p"), sym(&s, "q")));
        let (pt2, s2) =
            pts_of("int a[10]; int main() { int *p; int *q; p = a; q = &a[5]; return *p + *q; }");
        assert!(pt2.may_alias(sym(&s2, "p"), sym(&s2, "q")));
    }

    #[test]
    fn unassigned_pointer_is_unbounded() {
        let (pt, s) = pts_of("int g; int main() { int *p; return g; }");
        assert!(pt.is_unbounded(sym(&s, "p")));
        assert!(pt.may_point_to(sym(&s, "p"), sym(&s, "g")));
    }

    #[test]
    fn pointer_params_bind_call_sites() {
        let (pt, s) = pts_of(
            "int a[8]; int b[8]; \
             void f(int *p) { *p = 1; } \
             int main() { f(a); f(&b[2]); return 0; }",
        );
        let p = sym(&s, "p");
        assert!(pt.may_point_to(p, sym(&s, "a")));
        assert!(pt.may_point_to(p, sym(&s, "b")));
        assert_eq!(pt.targets(p).unwrap().len(), 2);
    }

    #[test]
    fn disjoint_params_stay_disjoint() {
        let (pt, s) = pts_of(
            "int a[8]; int b[8]; \
             void f(int *p, int *q) { *p = *q; } \
             int main() { f(a, b); return 0; }",
        );
        assert!(!pt.may_alias(sym(&s, "p"), sym(&s, "q")));
    }

    #[test]
    fn return_values_flow() {
        let (pt, s) = pts_of(
            "int a[8]; \
             int *pick() { return &a[1]; } \
             int main() { int *p; p = pick(); return *p; }",
        );
        assert!(pt.may_point_to(sym(&s, "p"), sym(&s, "a")));
        assert!(!pt.is_unbounded(sym(&s, "p")));
    }

    #[test]
    fn deref_assignment_through_ptr_to_ptr() {
        let (pt, s) =
            pts_of("int x; int main() { int *p; int **h; p = &x; h = &p; *h = &x; return *p; }");
        assert!(pt.may_point_to(sym(&s, "h"), sym(&s, "p")));
        assert!(pt.may_point_to(sym(&s, "p"), sym(&s, "x")));
    }

    #[test]
    fn pointer_load_through_ptr_to_ptr() {
        let (pt, s) = pts_of(
            "int x; int main() { int *p; int **h; int *r; p = &x; h = &p; r = *h; return *r; }",
        );
        assert!(pt.may_point_to(sym(&s, "r"), sym(&s, "x")));
        assert!(!pt.is_unbounded(sym(&s, "r")));
    }

    #[test]
    fn conditional_assignment_unions() {
        let (pt, s) = pts_of(
            "int a[4]; int b[4]; int g; \
             int main() { int *p; if (g) p = a; else p = b; return *p; }",
        );
        let p = sym(&s, "p");
        assert!(pt.may_point_to(p, sym(&s, "a")));
        assert!(pt.may_point_to(p, sym(&s, "b")));
    }
}
