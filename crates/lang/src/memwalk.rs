//! The memory-access enumeration contract (ITEMGEN's ground rules).
//!
//! Section 3.1.1 of the paper: *"To guarantee that the mapping between the
//! generated memory access items and the GCC RTL instructions is correct,
//! the RTL generation rules in GCC must be considered in the HLI generation
//! by SUIF."* Items are matched to back-end memory references by (source
//! line, order within the line), so the front-end must enumerate accesses in
//! exactly the order the back-end will emit them.
//!
//! This module is that single point of truth. [`walk_function`] enumerates
//! every memory access (and call) a function performs, in back-end emission
//! order, applying the paper's rules:
//!
//! * **Pseudo-register rule** — at `-O1` and above, local scalars whose
//!   address is never taken live in pseudo-registers and generate *no*
//!   memory accesses; globals, arrays, pointer dereferences, and
//!   address-taken locals do.
//! * **Parameter-passing rule** — the first [`NUM_ARG_REGS`] scalar
//!   arguments travel in registers (evaluating a memory operand emits its
//!   ordinary load); arguments beyond that are written to the stack (an
//!   extra store that corresponds to no source-level access). At the callee
//!   entry, stack-passed parameters are loaded back, and address-taken
//!   parameters are spilled to their stack slot.
//! * **Return-value rule** — scalar returns travel in the value register and
//!   emit nothing (MiniC has no struct returns).
//!
//! The front-end's ITEMGEN consumes these events directly; the back-end's
//! lowerer is written to emit memory references in the same order, and
//! property tests in `hli-backend` verify the two agree event-for-event.

use crate::ast::*;
use crate::sema::{Sema, SymId};

/// Number of scalar argument registers in the target ABI.
pub const NUM_ARG_REGS: usize = 4;

/// What kind of memory traffic an event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Load,
    Store,
    Call,
}

/// What location an event touches.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AccessPath {
    /// A scalar variable that lives in memory (global or address-taken).
    Var(SymId),
    /// An element of a declared array: base symbol plus the `Index`
    /// expression that computes the element (subscripts hang off it).
    ArrayElem(SymId, ExprId),
    /// An access through a pointer value. The root symbol is recorded when
    /// syntactically evident (`p[i]`, `*p` → `p`); the expression is the
    /// `Deref`/`Index` node performing the access.
    PtrAccess(Option<SymId>, ExprId),
    /// ABI store of argument `index` to the outgoing-arguments stack area.
    StackArg { callee: String, index: usize },
    /// ABI load of stack-passed parameter `index` at function entry.
    StackParamEntry { index: usize },
    /// The call instruction itself (the paper's "call" item).
    Call { callee: String },
}

/// One enumerated memory access or call, in back-end emission order.
#[derive(Debug, Clone, PartialEq)]
pub struct MemEvent {
    /// Source line the access belongs to (line-table key).
    pub line: u32,
    pub kind: AccessKind,
    pub path: AccessPath,
    /// The expression performing the access, when one exists (ABI events at
    /// function entry have none).
    pub expr: Option<ExprId>,
}

/// Enumerate all memory events of `f` in back-end emission order.
pub fn walk_function(f: &FuncDef, sema: &Sema) -> Vec<MemEvent> {
    let mut w = Walker { sema, out: Vec::new() };
    w.entry_events(f);
    w.block(&f.body);
    w.out
}

/// Peel a (possibly nested) `Index` chain whose ultimate base is a declared
/// array variable. Returns the base symbol and the subscript expressions,
/// outermost dimension first. Returns `None` when the base is a pointer or
/// is not a plain identifier.
pub fn resolve_array_access<'a>(e: &'a Expr, sema: &Sema) -> Option<(SymId, Vec<&'a Expr>)> {
    let mut subs: Vec<&'a Expr> = Vec::new();
    let mut cur = e;
    loop {
        match &cur.kind {
            ExprKind::Index(base, idx) => {
                subs.push(idx);
                cur = base;
            }
            ExprKind::Ident(_) => {
                let sym = sema.ident_sym(cur.id)?;
                if !sema.sym(sym).ty.is_array() {
                    return None;
                }
                subs.reverse();
                return Some((sym, subs));
            }
            _ => return None,
        }
    }
}

struct Walker<'a> {
    sema: &'a Sema,
    out: Vec<MemEvent>,
}

impl<'a> Walker<'a> {
    fn emit(&mut self, line: u32, kind: AccessKind, path: AccessPath, expr: Option<ExprId>) {
        self.out.push(MemEvent { line, kind, path, expr });
    }

    /// ABI events at function entry: loads of stack-passed parameters and
    /// spills of address-taken parameters, in parameter order.
    fn entry_events(&mut self, f: &FuncDef) {
        let sig = self.sema.func_named(&f.name).expect("function resolved by sema");
        for (i, sym) in self.sema.func_params(sig.index).enumerate() {
            if i >= NUM_ARG_REGS {
                self.emit(f.line, AccessKind::Load, AccessPath::StackParamEntry { index: i }, None);
            }
            if self.sema.sym(sym).is_mem_resident() {
                self.emit(f.line, AccessKind::Store, AccessPath::Var(sym), None);
            }
        }
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
                    self.rvalue(init);
                    let sym = self.sema.decl_sym(s.id);
                    if self.sema.sym(sym).is_mem_resident() {
                        self.emit(s.line, AccessKind::Store, AccessPath::Var(sym), None);
                    }
                }
            }
            StmtKind::Expr(e) => self.rvalue(e),
            StmtKind::Block(b) => self.block(b),
            StmtKind::If { cond, then_body, else_body } => {
                self.rvalue(cond);
                self.stmt(then_body);
                if let Some(e) = else_body {
                    self.stmt(e);
                }
            }
            StmtKind::While { cond, body } => {
                // Lowering shape: Lcond: cond; brf exit; body; goto Lcond.
                self.rvalue(cond);
                self.stmt(body);
            }
            StmtKind::DoWhile { body, cond } => {
                self.stmt(body);
                self.rvalue(cond);
            }
            StmtKind::For { init, cond, step, body } => {
                // Lowering shape: init; Lcond: cond; brf exit; body; step;
                // goto Lcond — but the static per-line order of the header's
                // memory references is init, cond, step because the step
                // block is emitted after the body (later in the RTL chain)
                // yet grouped under the same header line *after* init and
                // cond. The back-end lowerer emits in this same shape.
                if let Some(e) = init {
                    self.rvalue(e);
                }
                if let Some(e) = cond {
                    self.rvalue(e);
                }
                self.stmt(body);
                if let Some(e) = step {
                    self.rvalue(e);
                }
            }
            StmtKind::Return(Some(e)) => self.rvalue(e),
            StmtKind::Return(None) | StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
        }
    }

    /// Is this lvalue expression a memory access (vs. a pseudo-register)?
    /// Returns the access path if so.
    fn lvalue_path(&self, e: &Expr) -> Option<AccessPath> {
        match &e.kind {
            ExprKind::Ident(_) => {
                let sym = self.sema.sym_of(e);
                let info = self.sema.sym(sym);
                if info.ty.is_array() {
                    // Bare array name: an address, not an access.
                    None
                } else if info.is_mem_resident() {
                    Some(AccessPath::Var(sym))
                } else {
                    None
                }
            }
            ExprKind::Index(..) => {
                // Partial indexing of a multi-dim array yields an address.
                if self.sema.ty_of(e).is_array() {
                    return None;
                }
                match resolve_array_access(e, self.sema) {
                    Some((sym, _)) => Some(AccessPath::ArrayElem(sym, e.id)),
                    None => Some(AccessPath::PtrAccess(self.sema.base_sym(e), e.id)),
                }
            }
            ExprKind::Deref(_) => Some(AccessPath::PtrAccess(self.sema.base_sym(e), e.id)),
            _ => None,
        }
    }

    /// Emit the events of computing an lvalue's *address* (subscripts and
    /// pointer-base loads), without touching the designated location.
    fn lvalue_address(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Ident(_) => {}
            ExprKind::Index(base, idx) => {
                // Address of base, then subscript value. For a chain
                // a[i][j] this yields i's events then j's events.
                self.lvalue_address_or_rvalue_base(base);
                self.rvalue(idx);
            }
            ExprKind::Deref(p) => self.rvalue(p),
            _ => unreachable!("address of non-lvalue"),
        }
    }

    /// Base of an `Index`: if it is itself an array-designating expression,
    /// walk only its address; if it is a pointer-valued expression, walk it
    /// as an rvalue (which may load the pointer from memory).
    fn lvalue_address_or_rvalue_base(&mut self, base: &Expr) {
        let is_array_designator = matches!(
            &base.kind,
            ExprKind::Ident(_) | ExprKind::Index(..) if self.sema.ty_of(base).is_array()
        );
        if is_array_designator {
            if let ExprKind::Index(b, i) = &base.kind {
                self.lvalue_address_or_rvalue_base(b);
                self.rvalue(i);
            }
            // Bare array ident: no events.
        } else {
            self.rvalue(base);
        }
    }

    /// Emit the events of evaluating `e` as an rvalue.
    fn rvalue(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::FloatLit(_) => {}
            ExprKind::Ident(_) => {
                if self.sema.ty_of(e).is_array() {
                    return; // decays to an address: no traffic
                }
                if let Some(path) = self.lvalue_path(e) {
                    self.emit(e.line, AccessKind::Load, path, Some(e.id));
                }
            }
            ExprKind::Unary(_, a) => self.rvalue(a),
            ExprKind::Binary(_, a, b) => {
                self.rvalue(a);
                self.rvalue(b);
            }
            ExprKind::Index(..) => {
                if self.sema.ty_of(e).is_array() {
                    // Partial index: address only.
                    self.lvalue_address(e);
                    return;
                }
                self.lvalue_address(e);
                let path = self.lvalue_path(e).expect("indexed scalar is a memory access");
                self.emit(e.line, AccessKind::Load, path, Some(e.id));
            }
            ExprKind::Deref(_) => {
                self.lvalue_address(e);
                let path = self.lvalue_path(e).expect("deref is a memory access");
                self.emit(e.line, AccessKind::Load, path, Some(e.id));
            }
            ExprKind::Addr(lv) => self.lvalue_address(lv),
            ExprKind::Assign(lhs, rhs) => {
                // Contract: RHS first, then LHS address, then the store.
                self.rvalue(rhs);
                self.lvalue_address(lhs);
                if let Some(path) = self.lvalue_path(lhs) {
                    self.emit(e.line, AccessKind::Store, path, Some(lhs.id));
                }
            }
            ExprKind::CompoundAssign(_, lhs, rhs) => {
                // Contract: LHS address, load old value, RHS, store.
                self.lvalue_address(lhs);
                let path = self.lvalue_path(lhs);
                if let Some(p) = path.clone() {
                    self.emit(e.line, AccessKind::Load, p, Some(lhs.id));
                }
                self.rvalue(rhs);
                if let Some(p) = path {
                    self.emit(e.line, AccessKind::Store, p, Some(lhs.id));
                }
            }
            ExprKind::IncDec(_, lv) => {
                self.lvalue_address(lv);
                if let Some(p) = self.lvalue_path(lv) {
                    self.emit(e.line, AccessKind::Load, p.clone(), Some(lv.id));
                    self.emit(e.line, AccessKind::Store, p, Some(lv.id));
                }
            }
            ExprKind::Call(name, args) => {
                for (i, a) in args.iter().enumerate() {
                    self.rvalue(a);
                    if i >= NUM_ARG_REGS {
                        self.emit(
                            e.line,
                            AccessKind::Store,
                            AccessPath::StackArg { callee: name.clone(), index: i },
                            Some(a.id),
                        );
                    }
                }
                self.emit(
                    e.line,
                    AccessKind::Call,
                    AccessPath::Call { callee: name.clone() },
                    Some(e.id),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_to_ast;

    fn events(src: &str, func: &str) -> Vec<(u32, AccessKind, String)> {
        let (p, s) = compile_to_ast(src).unwrap();
        let f = p.func(func).unwrap();
        walk_function(f, &s)
            .into_iter()
            .map(|ev| {
                let desc = match ev.path {
                    AccessPath::Var(sym) => format!("var:{}", s.sym(sym).name),
                    AccessPath::ArrayElem(sym, _) => format!("elem:{}", s.sym(sym).name),
                    AccessPath::PtrAccess(root, _) => format!(
                        "ptr:{}",
                        root.map(|r| s.sym(r).name.clone()).unwrap_or_else(|| "?".into())
                    ),
                    AccessPath::StackArg { callee, index } => format!("stackarg:{callee}:{index}"),
                    AccessPath::StackParamEntry { index } => format!("stackparam:{index}"),
                    AccessPath::Call { callee } => format!("call:{callee}"),
                };
                (ev.line, ev.kind, desc)
            })
            .collect()
    }

    use AccessKind::*;

    #[test]
    fn pseudo_register_rule_suppresses_local_scalars() {
        let ev = events("int main() { int x; int y; x = 1; y = x + 2; return y; }", "main");
        assert!(ev.is_empty(), "register-resident locals emit nothing: {ev:?}");
    }

    #[test]
    fn globals_load_and_store() {
        let ev = events("int g; int main() { g = g + 1; return g; }", "main");
        assert_eq!(
            ev,
            vec![
                (1, Load, "var:g".into()),
                (1, Store, "var:g".into()),
                (1, Load, "var:g".into()),
            ]
        );
    }

    #[test]
    fn assignment_order_rhs_then_lhs() {
        let ev = events(
            "int a[10]; int b[10]; int main() { int i; i = 1; a[i] = b[i+1]; return 0; }",
            "main",
        );
        assert_eq!(ev, vec![(1, Load, "elem:b".into()), (1, Store, "elem:a".into())]);
    }

    #[test]
    fn compound_assign_load_then_store() {
        let ev = events("int g; int h; int main() { g += h; return 0; }", "main");
        assert_eq!(
            ev,
            vec![
                (1, Load, "var:g".into()),
                (1, Load, "var:h".into()),
                (1, Store, "var:g".into()),
            ]
        );
    }

    #[test]
    fn incdec_on_memory_is_load_store() {
        let ev = events("int g; int main() { g++; return 0; }", "main");
        assert_eq!(ev, vec![(1, Load, "var:g".into()), (1, Store, "var:g".into())]);
    }

    #[test]
    fn incdec_on_register_local_is_silent() {
        let ev = events("int main() { int i; i = 0; i++; return i; }", "main");
        assert!(ev.is_empty());
    }

    #[test]
    fn subscript_loads_precede_element_access() {
        // a[b[0]] = 1  →  load b[0], store a[...]
        let ev = events("int a[4]; int b[4]; int main() { a[b[0]] = 1; return 0; }", "main");
        assert_eq!(ev, vec![(1, Load, "elem:b".into()), (1, Store, "elem:a".into())]);
    }

    #[test]
    fn multidim_subscripts_in_order() {
        let ev = events(
            "int m[4][5]; int x[2]; int y[2]; int main() { int t; t = m[x[0]][y[0]]; return t; }",
            "main",
        );
        assert_eq!(
            ev,
            vec![
                (1, Load, "elem:x".into()),
                (1, Load, "elem:y".into()),
                (1, Load, "elem:m".into()),
            ]
        );
    }

    #[test]
    fn pointer_deref_loads_pointer_then_target() {
        let ev = events("int *gp; int g; int main() { gp = &g; return *gp; }", "main");
        assert_eq!(
            ev,
            vec![
                (1, Store, "var:gp".into()),
                (1, Load, "var:gp".into()),
                (1, Load, "ptr:gp".into()),
            ]
        );
    }

    #[test]
    fn local_pointer_deref_suppresses_pointer_load() {
        let ev = events("int g; int main() { int *p; p = &g; return *p; }", "main");
        assert_eq!(ev, vec![(1, Load, "ptr:p".into())]);
    }

    #[test]
    fn address_of_emits_no_access() {
        let ev = events("int a[4]; int main() { int *p; p = &a[2]; return 0; }", "main");
        assert!(ev.is_empty(), "&a[const] computes an address only: {ev:?}");
    }

    #[test]
    fn address_of_with_memory_subscript() {
        let ev = events(
            "int a[4]; int b[4]; int main() { int *p; p = &a[b[0]]; return 0; }",
            "main",
        );
        assert_eq!(ev, vec![(1, Load, "elem:b".into())]);
    }

    #[test]
    fn address_taken_local_becomes_memory() {
        let ev = events("int main() { int x; int *p; p = &x; x = 3; return x; }", "main");
        assert_eq!(ev, vec![(1, Store, "var:x".into()), (1, Load, "var:x".into())]);
    }

    #[test]
    fn call_items_and_register_args() {
        let ev = events(
            "int g; int f(int a, int b) { return a + b; } int main() { return f(g, 2); }",
            "main",
        );
        assert_eq!(ev, vec![(1, Load, "var:g".into()), (1, Call, "call:f".into())]);
    }

    #[test]
    fn stack_args_beyond_four_emit_stores() {
        let ev = events(
            "int f(int a, int b, int c, int d, int e, int g) { return a+b+c+d+e+g; } \
             int main() { return f(1, 2, 3, 4, 5, 6); }",
            "main",
        );
        assert_eq!(
            ev,
            vec![
                (1, Store, "stackarg:f:4".into()),
                (1, Store, "stackarg:f:5".into()),
                (1, Call, "call:f".into()),
            ]
        );
    }

    #[test]
    fn callee_entry_loads_stack_params() {
        let ev = events(
            "int f(int a, int b, int c, int d, int e, int g) { return a+b+c+d+e+g; } \
             int main() { return f(1, 2, 3, 4, 5, 6); }",
            "f",
        );
        assert_eq!(
            ev,
            vec![
                (1, Load, "stackparam:4".into()),
                (1, Load, "stackparam:5".into()),
            ]
        );
    }

    #[test]
    fn address_taken_param_spills_at_entry() {
        let ev = events(
            "void g(int *p) { *p = 1; } int f(int a) { g(&a); return a; } int main() { return f(3); }",
            "f",
        );
        assert_eq!(ev[0], (1, Store, "var:a".into()));
    }

    #[test]
    fn for_header_order_init_cond_step() {
        let ev = events(
            "int g; int a[10]; int main() { int i; for (i = g; i < g; i += 1) a[i] = 0; return 0; }",
            "main",
        );
        // init loads g, cond loads g, then body store, then (step: nothing).
        assert_eq!(
            ev,
            vec![
                (1, Load, "var:g".into()),
                (1, Load, "var:g".into()),
                (1, Store, "elem:a".into()),
            ]
        );
    }

    #[test]
    fn while_cond_before_body_dowhile_after() {
        let ev = events(
            "int g;\nint main() {\n int i; i = 0;\n while (g) { i++; break; }\n do { i++; }\n while (g);\n return i; }",
            "main",
        );
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].1, Load);
        assert_eq!(ev[1].1, Load);
        assert!(ev[0].0 < ev[1].0, "while cond line precedes do-while cond line");
    }

    #[test]
    fn short_circuit_operands_enumerated_statically() {
        let ev = events("int g; int h; int main() { return g && h; }", "main");
        assert_eq!(ev, vec![(1, Load, "var:g".into()), (1, Load, "var:h".into())]);
    }

    #[test]
    fn resolve_array_access_on_nested_index() {
        let (p, s) = compile_to_ast("int m[4][5]; int main() { return m[1][2]; }").unwrap();
        let StmtKind::Return(Some(e)) = &p.funcs[0].body.stmts[0].kind else {
            panic!()
        };
        let (sym, subs) = resolve_array_access(e, &s).unwrap();
        assert_eq!(s.sym(sym).name, "m");
        assert_eq!(subs.len(), 2);
    }

    #[test]
    fn resolve_array_access_rejects_pointer_base() {
        let (p, s) =
            compile_to_ast("void f(int *p) { p[0] = 1; } int main() { return 0; }").unwrap();
        let StmtKind::Expr(e) = &p.funcs[0].body.stmts[0].kind else { panic!() };
        let ExprKind::Assign(lhs, _) = &e.kind else { panic!() };
        assert!(resolve_array_access(lhs, &s).is_none());
    }

    #[test]
    fn decl_init_of_address_taken_local_stores() {
        let ev = events("int g; int main() { int x = g; int *p; p = &x; return *p; }", "main");
        assert_eq!(
            ev,
            vec![
                (1, Load, "var:g".into()),
                (1, Store, "var:x".into()),
                (1, Load, "ptr:p".into()),
            ]
        );
    }
}
