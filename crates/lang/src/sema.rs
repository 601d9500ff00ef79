//! Semantic analysis for MiniC.
//!
//! Resolves identifiers to symbols, type-checks every expression, computes
//! the *address-taken* property (which drives the back-end's pseudo-register
//! rule and therefore which accesses become HLI items), and recognizes
//! *canonical loops* — the countable `for (i = lo; i < hi; i += s)` shape
//! that becomes an analyzable HLI region with known bounds.

use crate::ast::*;
use crate::types::Type;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

/// Identity of a declared variable (global, local, or parameter).
pub type SymId = u32;

/// Where a variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    Global,
    /// A local of function `func` (index into `Program::funcs`).
    Local {
        func: u32,
    },
    /// Parameter `index` of function `func`.
    Param {
        func: u32,
        index: usize,
    },
}

/// Everything sema knows about one variable.
#[derive(Debug, Clone)]
pub struct SymInfo {
    pub name: String,
    pub ty: Type,
    pub storage: Storage,
    /// True if `&name` appears anywhere. Address-taken scalars cannot live
    /// in pseudo-registers, so their accesses generate HLI items.
    pub address_taken: bool,
    pub line: u32,
}

impl SymInfo {
    /// Does this variable live in memory under the GCC `-O1`-and-above rule
    /// the paper describes (Section 3.1.1)? Globals, arrays, and
    /// address-taken locals are memory-resident; other local scalars get
    /// pseudo-registers and generate no items.
    pub fn is_mem_resident(&self) -> bool {
        matches!(self.storage, Storage::Global) || self.ty.is_array() || self.address_taken
    }
}

/// A function signature, for call checking, plus where the function's
/// symbols are numbered.
#[derive(Debug, Clone)]
pub struct FuncSig {
    pub ret: Type,
    pub params: Vec<Type>,
    /// Index into `Program::funcs`.
    pub index: u32,
    pub line: u32,
    /// The function's parameters, then its locals in declaration order,
    /// are the symbols `first_sym..first_sym + num_syms`. Sema declares
    /// them in one run, so a frame can keep them in one slice and find a
    /// symbol at `sym - first_sym`.
    pub first_sym: SymId,
    pub num_syms: u32,
}

/// A loop bound as far as sema can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    Const(i64),
    /// A loop-invariant symbol (e.g. `for (i = 0; i < n; i++)`).
    Sym(SymId),
    Unknown,
}

/// A recognized canonical (countable) loop.
#[derive(Debug, Clone)]
pub struct CanonLoop {
    /// The induction variable.
    pub ivar: SymId,
    pub lower: Bound,
    pub upper: Bound,
    /// True for `<=`, false for `<`.
    pub inclusive: bool,
    /// Positive step.
    pub step: i64,
}

impl CanonLoop {
    /// The constant trip count, when both bounds are constant.
    pub fn trip_count(&self) -> Option<i64> {
        match (self.lower, self.upper) {
            (Bound::Const(lo), Bound::Const(hi)) => {
                let hi = if self.inclusive { hi } else { hi - 1 };
                if hi < lo {
                    Some(0)
                } else {
                    Some((hi - lo) / self.step + 1)
                }
            }
            _ => None,
        }
    }
}

/// A semantic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemaError {
    pub msg: String,
    pub line: u32,
}

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "semantic error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SemaError {}

/// The result of semantic analysis over a whole [`Program`].
///
/// The per-node tables are `Vec`s indexed by the parser's dense
/// [`ExprId`]/[`StmtId`] and read through accessors. The one map is the
/// name → function lookup, for callers that start from a name.
#[derive(Debug, Clone)]
pub struct Sema {
    /// All symbols, indexed by [`SymId`]: the globals, then each
    /// function's symbols in one run (see [`FuncSig::first_sym`]).
    pub syms: Vec<SymInfo>,
    /// Function signatures, indexed by function index (`Program::funcs`).
    funcs: Vec<FuncSig>,
    /// Function index by name.
    func_index: HashMap<String, u32>,
    /// Type of every expression, indexed by [`ExprId`]. Array-typed
    /// identifiers keep their array type here; consumers apply decay.
    pub expr_ty: Vec<Type>,
    /// Per [`ExprId`]: the symbol an `Ident` resolves to.
    ident_sym: Vec<Option<SymId>>,
    /// Per [`ExprId`]: the function index a `Call` calls.
    callee: Vec<Option<u32>>,
    /// Per [`StmtId`]: the symbol a `Decl` declared.
    decl_sym: Vec<Option<SymId>>,
    /// Per [`StmtId`]: canonical-loop facts of a `For` that qualifies.
    loops: Vec<Option<CanonLoop>>,
    /// Global symbols in declaration order.
    pub globals: Vec<SymId>,
}

impl Sema {
    pub fn sym(&self, id: SymId) -> &SymInfo {
        &self.syms[id as usize]
    }

    pub fn ty_of(&self, e: &Expr) -> &Type {
        &self.expr_ty[e.id as usize]
    }

    /// The symbol expression `id` resolves to, if it is an `Ident`.
    pub fn ident_sym(&self, id: ExprId) -> Option<SymId> {
        self.ident_sym[id as usize]
    }

    /// Symbol of an `Ident` expression (panics if `e` is not an Ident that
    /// was resolved — a usage error in this codebase, not an input error).
    pub fn sym_of(&self, e: &Expr) -> SymId {
        self.ident_sym[e.id as usize].expect("identifier resolved by sema")
    }

    /// The function index a `Call` expression calls (panics if `e` is not
    /// a resolved call).
    pub fn callee(&self, e: &Expr) -> u32 {
        self.callee[e.id as usize].expect("call resolved by sema")
    }

    /// The symbol `Decl` statement `id` declared (panics if it is not one).
    pub fn decl_sym(&self, id: StmtId) -> SymId {
        self.decl_sym[id as usize].expect("declaration resolved by sema")
    }

    /// Canonical-loop facts of `For` statement `id`, if it qualifies.
    pub fn canon_loop(&self, id: StmtId) -> Option<&CanonLoop> {
        self.loops[id as usize].as_ref()
    }

    /// The signature of function `index`.
    pub fn func(&self, index: u32) -> &FuncSig {
        &self.funcs[index as usize]
    }

    /// The signature of the function called `name`, if there is one.
    pub fn func_named(&self, name: &str) -> Option<&FuncSig> {
        self.func_index.get(name).map(|&i| self.func(i))
    }

    /// Parameter symbols of function `index`, in order.
    pub fn func_params(&self, index: u32) -> Range<SymId> {
        let f = self.func(index);
        f.first_sym..f.first_sym + f.params.len() as SymId
    }

    /// The root symbol of an access path `a[i][j]`, `*p`, `x` — the variable
    /// whose storage is addressed, if syntactically evident.
    pub fn base_sym(&self, e: &Expr) -> Option<SymId> {
        match &e.kind {
            ExprKind::Ident(_) => self.ident_sym(e.id),
            ExprKind::Index(b, _) => self.base_sym(b),
            ExprKind::Deref(p) => self.base_sym(p),
            _ => None,
        }
    }
}

/// Run semantic analysis.
pub fn analyze(prog: &Program) -> Result<Sema, SemaError> {
    let mut cx = Checker {
        sema: Sema {
            syms: Vec::new(),
            funcs: Vec::with_capacity(prog.funcs.len()),
            func_index: HashMap::new(),
            expr_ty: vec![Type::Void; prog.num_exprs as usize],
            ident_sym: vec![None; prog.num_exprs as usize],
            callee: vec![None; prog.num_exprs as usize],
            decl_sym: vec![None; prog.num_stmts as usize],
            loops: vec![None; prog.num_stmts as usize],
            globals: Vec::new(),
        },
        scopes: Vec::new(),
        cur_func: 0,
        cur_ret: Type::Void,
        loop_depth: 0,
    };
    cx.program(prog)?;
    Ok(cx.sema)
}

struct Checker {
    sema: Sema,
    scopes: Vec<HashMap<String, SymId>>,
    cur_func: u32,
    cur_ret: Type,
    loop_depth: u32,
}

impl Checker {
    fn err(&self, line: u32, msg: impl Into<String>) -> SemaError {
        SemaError { msg: msg.into(), line }
    }

    fn declare(
        &mut self,
        name: &str,
        ty: Type,
        storage: Storage,
        line: u32,
    ) -> Result<SymId, SemaError> {
        let scope = self.scopes.last_mut().expect("scope stack non-empty");
        if scope.contains_key(name) {
            return Err(SemaError { msg: format!("redefinition of `{name}`"), line });
        }
        let id = self.sema.syms.len() as SymId;
        self.sema.syms.push(SymInfo {
            name: name.to_string(),
            ty,
            storage,
            address_taken: false,
            line,
        });
        self.scopes.last_mut().unwrap().insert(name.to_string(), id);
        Ok(id)
    }

    fn lookup(&self, name: &str) -> Option<SymId> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn program(&mut self, prog: &Program) -> Result<(), SemaError> {
        self.scopes.push(HashMap::new());
        for g in &prog.globals {
            if let Some(init) = &g.init {
                // Int globals cannot take a float initializer (lossy).
                if g.ty == Type::Int {
                    if let ConstInit::Double(_) = init {
                        return Err(self.err(g.line, "float initializer for int global"));
                    }
                }
                if g.ty.is_pointer() {
                    return Err(self.err(g.line, "pointer globals cannot have initializers"));
                }
            }
            let id = self.declare(&g.name, g.ty.clone(), Storage::Global, g.line)?;
            self.sema.globals.push(id);
        }
        // Collect signatures first so forward calls resolve.
        for (i, f) in prog.funcs.iter().enumerate() {
            if self.sema.func_index.contains_key(&f.name) {
                return Err(self.err(f.line, format!("redefinition of function `{}`", f.name)));
            }
            if self.lookup(&f.name).is_some() {
                return Err(self.err(
                    f.line,
                    format!("function `{}` conflicts with a global variable", f.name),
                ));
            }
            self.sema.func_index.insert(f.name.clone(), i as u32);
            self.sema.funcs.push(FuncSig {
                ret: f.ret.clone(),
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
                index: i as u32,
                line: f.line,
                first_sym: 0,
                num_syms: 0,
            });
        }
        for (i, f) in prog.funcs.iter().enumerate() {
            self.func(i as u32, f)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn func(&mut self, index: u32, f: &FuncDef) -> Result<(), SemaError> {
        self.cur_func = index;
        self.cur_ret = f.ret.clone();
        self.scopes.push(HashMap::new());
        let first_sym = self.sema.syms.len() as SymId;
        for (pi, p) in f.params.iter().enumerate() {
            self.declare(&p.name, p.ty.clone(), Storage::Param { func: index, index: pi }, p.line)?;
        }
        self.block(&f.body)?;
        self.scopes.pop();
        let sig = &mut self.sema.funcs[index as usize];
        sig.first_sym = first_sym;
        sig.num_syms = self.sema.syms.len() as SymId - first_sym;
        Ok(())
    }

    fn block(&mut self, b: &Block) -> Result<(), SemaError> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), SemaError> {
        match &s.kind {
            StmtKind::Decl(d) => {
                if let Some(init) = &d.init {
                    let ity = self.expr(init)?;
                    self.check_assignable(&d.ty, &ity, init.line)?;
                }
                let id = self.declare(
                    &d.name,
                    d.ty.clone(),
                    Storage::Local { func: self.cur_func },
                    s.line,
                )?;
                self.sema.decl_sym[s.id as usize] = Some(id);
            }
            StmtKind::Expr(e) => {
                self.expr(e)?;
            }
            StmtKind::Block(b) => self.block(b)?,
            StmtKind::If { cond, then_body, else_body } => {
                self.condition(cond)?;
                self.stmt(then_body)?;
                if let Some(e) = else_body {
                    self.stmt(e)?;
                }
            }
            StmtKind::While { cond, body } => {
                self.condition(cond)?;
                self.loop_depth += 1;
                self.stmt(body)?;
                self.loop_depth -= 1;
            }
            StmtKind::DoWhile { body, cond } => {
                self.loop_depth += 1;
                self.stmt(body)?;
                self.loop_depth -= 1;
                self.condition(cond)?;
            }
            StmtKind::For { init, cond, step, body } => {
                if let Some(e) = init {
                    self.expr(e)?;
                }
                if let Some(e) = cond {
                    self.condition(e)?;
                }
                if let Some(e) = step {
                    self.expr(e)?;
                }
                self.loop_depth += 1;
                self.stmt(body)?;
                self.loop_depth -= 1;
                self.recognize_canonical(s, init, cond, step, body);
            }
            StmtKind::Return(val) => match (val, self.cur_ret.clone()) {
                (None, Type::Void) => {}
                (None, _) => {
                    return Err(self.err(s.line, "missing return value"));
                }
                (Some(_), Type::Void) => {
                    return Err(self.err(s.line, "void function returns a value"));
                }
                (Some(e), ret) => {
                    let ty = self.expr(e)?;
                    self.check_assignable(&ret, &ty, e.line)?;
                }
            },
            StmtKind::Break | StmtKind::Continue => {
                if self.loop_depth == 0 {
                    return Err(self.err(s.line, "`break`/`continue` outside a loop"));
                }
            }
            StmtKind::Empty => {}
        }
        Ok(())
    }

    fn condition(&mut self, e: &Expr) -> Result<(), SemaError> {
        let ty = self.expr(e)?;
        let ty = ty.decayed();
        if !(ty.is_numeric() || ty.is_pointer()) {
            return Err(self.err(e.line, format!("condition has non-scalar type `{ty}`")));
        }
        Ok(())
    }

    /// Can a value of type `src` be stored into a slot of type `dst`?
    fn check_assignable(&self, dst: &Type, src: &Type, line: u32) -> Result<(), SemaError> {
        let src = src.decayed();
        let ok = match (dst, &src) {
            (Type::Int, Type::Int)
            | (Type::Int, Type::Double)
            | (Type::Double, Type::Int)
            | (Type::Double, Type::Double) => true,
            (Type::Ptr(a), Type::Ptr(b)) => a == b,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(self.err(line, format!("cannot assign `{src}` to `{dst}`")))
        }
    }

    fn set_ty(&mut self, e: &Expr, ty: Type) -> Type {
        self.sema.expr_ty[e.id as usize] = ty.clone();
        ty
    }

    fn expr(&mut self, e: &Expr) -> Result<Type, SemaError> {
        let ty = match &e.kind {
            ExprKind::IntLit(_) => Type::Int,
            ExprKind::FloatLit(_) => Type::Double,
            ExprKind::Ident(name) => {
                let Some(id) = self.lookup(name) else {
                    return Err(self.err(e.line, format!("undefined variable `{name}`")));
                };
                self.sema.ident_sym[e.id as usize] = Some(id);
                self.sema.syms[id as usize].ty.clone()
            }
            ExprKind::Unary(op, a) => {
                let t = self.expr(a)?.decayed();
                match op {
                    UnOp::Neg => {
                        if !t.is_numeric() {
                            return Err(self.err(e.line, format!("cannot negate `{t}`")));
                        }
                        t
                    }
                    UnOp::Not => {
                        if !(t.is_numeric() || t.is_pointer()) {
                            return Err(self.err(e.line, format!("cannot apply `!` to `{t}`")));
                        }
                        Type::Int
                    }
                    UnOp::BitNot => {
                        if t != Type::Int {
                            return Err(self.err(e.line, format!("cannot apply `~` to `{t}`")));
                        }
                        Type::Int
                    }
                }
            }
            ExprKind::Binary(op, a, b) => {
                let ta = self.expr(a)?.decayed();
                let tb = self.expr(b)?.decayed();
                self.binary_type(*op, &ta, &tb, e.line)?
            }
            ExprKind::Index(base, idx) => {
                let tb = self.expr(base)?;
                let ti = self.expr(idx)?;
                if ti != Type::Int {
                    return Err(self.err(idx.line, format!("array index has type `{ti}`")));
                }
                match tb.element() {
                    Some(el) => el.clone(),
                    None => {
                        return Err(self.err(e.line, format!("cannot index a `{tb}`")));
                    }
                }
            }
            ExprKind::Deref(p) => {
                let tp = self.expr(p)?.decayed();
                match tp {
                    Type::Ptr(t) => (*t).clone(),
                    other => {
                        return Err(self.err(e.line, format!("cannot dereference `{other}`")));
                    }
                }
            }
            ExprKind::Addr(lv) => {
                let t = self.expr(lv)?;
                // Mark the root variable address-taken (this is what defeats
                // the pseudo-register assignment in the back-end).
                if let Some(sym) = self.sema.base_sym(lv) {
                    self.sema.syms[sym as usize].address_taken = true;
                }
                Type::Ptr(Box::new(t.decayed_elem_or_self()))
            }
            ExprKind::Assign(lhs, rhs) => {
                let tl = self.expr(lhs)?;
                if tl.is_array() {
                    return Err(self.err(e.line, "cannot assign to an array"));
                }
                let tr = self.expr(rhs)?;
                self.check_assignable(&tl, &tr, e.line)?;
                tl
            }
            ExprKind::CompoundAssign(op, lhs, rhs) => {
                let tl = self.expr(lhs)?;
                if tl.is_array() {
                    return Err(self.err(e.line, "cannot assign to an array"));
                }
                let tr = self.expr(rhs)?.decayed();
                let combined = self.binary_type(*op, &tl.decayed(), &tr, e.line)?;
                self.check_assignable(&tl, &combined, e.line)?;
                tl
            }
            ExprKind::IncDec(_, lv) => {
                let t = self.expr(lv)?;
                match t {
                    Type::Int | Type::Ptr(_) => t,
                    other => {
                        return Err(self.err(e.line, format!("cannot increment `{other}`")));
                    }
                }
            }
            ExprKind::Call(name, args) => {
                let Some(&callee) = self.sema.func_index.get(name) else {
                    return Err(self.err(e.line, format!("call to undefined function `{name}`")));
                };
                let nparams = self.sema.func(callee).params.len();
                if nparams != args.len() {
                    return Err(self.err(
                        e.line,
                        format!("`{name}` expects {nparams} argument(s), got {}", args.len()),
                    ));
                }
                for (i, arg) in args.iter().enumerate() {
                    let at = self.expr(arg)?;
                    self.check_assignable(&self.sema.func(callee).params[i], &at, arg.line)?;
                }
                self.sema.callee[e.id as usize] = Some(callee);
                self.sema.func(callee).ret.clone()
            }
        };
        Ok(self.set_ty(e, ty))
    }

    fn binary_type(&self, op: BinOp, ta: &Type, tb: &Type, line: u32) -> Result<Type, SemaError> {
        use BinOp::*;
        if op.is_boolean() {
            let cmp_ok = match (ta, tb) {
                (a, b) if a.is_numeric() && b.is_numeric() => true,
                (Type::Ptr(a), Type::Ptr(b)) => a == b || matches!(op, LogAnd | LogOr),
                (p, n) | (n, p) if p.is_pointer() && n.is_numeric() => {
                    matches!(op, LogAnd | LogOr)
                }
                _ => false,
            };
            if !cmp_ok {
                return Err(self.err(line, format!("cannot compare `{ta}` and `{tb}`")));
            }
            return Ok(Type::Int);
        }
        match op {
            Rem | Shl | Shr | BitAnd | BitOr | BitXor => {
                if *ta == Type::Int && *tb == Type::Int {
                    Ok(Type::Int)
                } else {
                    Err(self.err(line, format!("integer operator on `{ta}` and `{tb}`")))
                }
            }
            Add | Sub => match (ta, tb) {
                (Type::Ptr(_), Type::Int) => Ok(ta.clone()),
                (Type::Int, Type::Ptr(_)) if op == Add => Ok(tb.clone()),
                (Type::Ptr(a), Type::Ptr(b)) if op == Sub && a == b => Ok(Type::Int),
                (a, b) if a.is_numeric() && b.is_numeric() => Ok(if a.is_float() || b.is_float() {
                    Type::Double
                } else {
                    Type::Int
                }),
                _ => Err(self.err(line, format!("cannot apply `+`/`-` to `{ta}` and `{tb}`"))),
            },
            Mul | Div => {
                if ta.is_numeric() && tb.is_numeric() {
                    Ok(if ta.is_float() || tb.is_float() {
                        Type::Double
                    } else {
                        Type::Int
                    })
                } else {
                    Err(self.err(line, format!("cannot multiply `{ta}` and `{tb}`")))
                }
            }
            _ => unreachable!("boolean ops handled above"),
        }
    }

    /// Recognize `for (i = lo; i < hi; i += s)` with integer `i` that is not
    /// address-taken and not modified inside the body.
    fn recognize_canonical(
        &mut self,
        s: &Stmt,
        init: &Option<Expr>,
        cond: &Option<Expr>,
        step: &Option<Expr>,
        body: &Stmt,
    ) {
        let (Some(init), Some(cond), Some(step)) = (init, cond, step) else { return };
        // init: i = <bound>
        let ExprKind::Assign(lhs, lo) = &init.kind else { return };
        let ExprKind::Ident(_) = lhs.kind else { return };
        let Some(ivar) = self.sema.ident_sym(lhs.id) else { return };
        if self.sema.syms[ivar as usize].ty != Type::Int
            || self.sema.syms[ivar as usize].address_taken
        {
            return;
        }
        let lower = self.bound_of(lo);
        // cond: i < hi or i <= hi
        let ExprKind::Binary(cmp, cl, ch) = &cond.kind else { return };
        let inclusive = match cmp {
            BinOp::Lt => false,
            BinOp::Le => true,
            _ => return,
        };
        if !matches!(cl.kind, ExprKind::Ident(_)) {
            return;
        }
        if self.sema.ident_sym(cl.id) != Some(ivar) {
            return;
        }
        let upper = self.bound_of(ch);
        // step: i++, ++i, i += c, i = i + c
        let step_val = match &step.kind {
            ExprKind::IncDec(k, t) if k.is_inc() => {
                if self.sema.ident_sym(t.id) != Some(ivar) {
                    return;
                }
                1
            }
            ExprKind::CompoundAssign(BinOp::Add, t, c) => {
                if self.sema.ident_sym(t.id) != Some(ivar) {
                    return;
                }
                let ExprKind::IntLit(v) = c.kind else { return };
                if v <= 0 {
                    return;
                }
                v
            }
            ExprKind::Assign(t, r) => {
                if self.sema.ident_sym(t.id) != Some(ivar) {
                    return;
                }
                let ExprKind::Binary(BinOp::Add, a, c) = &r.kind else { return };
                if self.sema.ident_sym(a.id) != Some(ivar) {
                    return;
                }
                let ExprKind::IntLit(v) = c.kind else { return };
                if v <= 0 {
                    return;
                }
                v
            }
            _ => return,
        };
        // The body must not modify the induction variable.
        if self.body_modifies(body, ivar) {
            return;
        }
        // A symbolic bound must be loop-invariant: not modified in the body.
        for b in [lower, upper] {
            if let Bound::Sym(s) = b {
                if self.body_modifies(body, s) || self.sema.syms[s as usize].address_taken {
                    return;
                }
            }
        }
        self.sema.loops[s.id as usize] =
            Some(CanonLoop { ivar, lower, upper, inclusive, step: step_val });
    }

    fn bound_of(&self, e: &Expr) -> Bound {
        match &e.kind {
            ExprKind::IntLit(v) => Bound::Const(*v),
            ExprKind::Unary(UnOp::Neg, a) => {
                if let ExprKind::IntLit(v) = a.kind {
                    Bound::Const(-v)
                } else {
                    Bound::Unknown
                }
            }
            ExprKind::Ident(_) => match self.sema.ident_sym(e.id) {
                Some(s) if self.sema.syms[s as usize].ty == Type::Int => Bound::Sym(s),
                _ => Bound::Unknown,
            },
            _ => Bound::Unknown,
        }
    }

    /// Does `body` contain a write to symbol `sym`?
    fn body_modifies(&self, body: &Stmt, sym: SymId) -> bool {
        let mut modified = false;
        body.walk_stmts(&mut |s| {
            s.own_exprs(&mut |e| {
                e.walk(&mut |x| match &x.kind {
                    ExprKind::Assign(l, _)
                    | ExprKind::CompoundAssign(_, l, _)
                    | ExprKind::IncDec(_, l)
                        if matches!(l.kind, ExprKind::Ident(_))
                            && self.sema.ident_sym(l.id) == Some(sym) =>
                    {
                        modified = true;
                    }
                    _ => {}
                })
            })
        });
        modified
    }
}

impl Type {
    /// Helper for `&expr` typing: arrays decay so `&a` where `a: T[n]` gives
    /// `T*` of the first element in MiniC (a simplification of C semantics).
    fn decayed_elem_or_self(&self) -> Type {
        match self {
            Type::Array(elem, _) => (**elem).clone(),
            t => t.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn sema_ok(src: &str) -> (Program, Sema) {
        let p = parse_program(src).unwrap();
        let s = analyze(&p).unwrap();
        (p, s)
    }

    fn sema_err(src: &str) -> SemaError {
        let p = parse_program(src).unwrap();
        analyze(&p).unwrap_err()
    }

    fn canon_loops(s: &Sema) -> Vec<&CanonLoop> {
        s.loops.iter().flatten().collect()
    }

    #[test]
    fn resolves_globals_locals_params() {
        let (_, s) = sema_ok("int g; int f(int p) { int l; l = g + p; return l; }");
        assert_eq!(s.globals.len(), 1);
        assert_eq!(s.func_params(0).len(), 1);
        assert_eq!(s.func(0).num_syms, 2);
        assert_eq!(s.sym(s.globals[0]).storage, Storage::Global);
    }

    /// The frame layout the interpreter relies on: globals are the first
    /// symbols, and each function's parameters (in order) and then its
    /// locals (in declaration order, nested blocks and shadowing included)
    /// are exactly `first_sym..first_sym + num_syms`.
    #[test]
    fn each_function_declares_its_symbols_contiguously() {
        let (p, s) = sema_ok(
            "int g; double h[4];
             int f(int a, double *b, int c) {
                 int x; { int x; int y[3]; x = a; } while (c) { double z; c = c - 1; }
                 return x; }
             void v() { }
             int main() { int x; { int x; { int q; x = f(1, &h[0], 2); } } v(); return 0; }",
        );
        assert_eq!(s.globals, vec![0, 1]);
        let mut next = s.globals.len() as SymId;
        for (fi, fd) in p.funcs.iter().enumerate() {
            let sig = s.func(fi as u32);
            assert_eq!(sig.first_sym, next, "`{}` starts right after its predecessor", fd.name);
            let frame: Vec<SymId> = (sig.first_sym..sig.first_sym + sig.num_syms).collect();
            let owned: Vec<SymId> = (0..s.syms.len() as SymId)
                .filter(|&id| match s.sym(id).storage {
                    Storage::Param { func, .. } | Storage::Local { func } => func == fi as u32,
                    Storage::Global => false,
                })
                .collect();
            assert_eq!(frame, owned, "`{}` owns exactly its frame's symbols", fd.name);
            let params = s.func_params(fi as u32);
            for (i, sym) in params.clone().enumerate() {
                assert_eq!(s.sym(sym).storage, Storage::Param { func: fi as u32, index: i });
                assert_eq!(s.sym(sym).name, fd.params[i].name);
            }
            for sym in params.end..sig.first_sym + sig.num_syms {
                assert_eq!(s.sym(sym).storage, Storage::Local { func: fi as u32 });
            }
            next = sig.first_sym + sig.num_syms;
        }
        assert_eq!(next as usize, s.syms.len());
        let f = s.func_named("f").unwrap();
        assert_eq!((f.num_syms, s.func_params(f.index).len()), (7, 3));
        assert_eq!(s.func_named("v").unwrap().num_syms, 0);
        assert!(s.func_named("nonesuch").is_none());
    }

    #[test]
    fn undefined_variable_rejected() {
        let e = sema_err("int main() { return x; }");
        assert!(e.msg.contains("undefined variable"));
    }

    #[test]
    fn undefined_function_rejected() {
        let e = sema_err("int main() { return f(); }");
        assert!(e.msg.contains("undefined function"));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let e = sema_err("int f(int a) { return a; } int main() { return f(1, 2); }");
        assert!(e.msg.contains("argument"));
    }

    #[test]
    fn type_promotion_int_double() {
        let (p, s) = sema_ok("double d; int main() { int i; i = 1; d = i + 2.5; return i; }");
        // Find the `i + 2.5` expression and check its type.
        let mut found = false;
        for f in &p.funcs {
            for st in &f.body.stmts {
                st.walk_stmts(&mut |st| {
                    st.own_exprs(&mut |e| {
                        e.walk(&mut |x| {
                            if let ExprKind::Binary(BinOp::Add, _, _) = x.kind {
                                assert_eq!(*s.ty_of(x), Type::Double);
                                found = true;
                            }
                        })
                    })
                });
            }
        }
        assert!(found);
    }

    #[test]
    fn pointer_arithmetic_types() {
        let (_, _s) = sema_ok("int a[10]; int main() { int *p; p = &a[0]; p = p + 3; return *p; }");
    }

    #[test]
    fn pointer_mismatch_rejected() {
        let e = sema_err("int i; double d; int main() { int *p; p = &d; return 0; }");
        assert!(e.msg.contains("cannot assign"));
    }

    #[test]
    fn address_taken_marks_root() {
        let (_, s) = sema_ok("int main() { int x; int y; int *p; p = &x; y = x; return y; }");
        let x = s.syms.iter().find(|v| v.name == "x").unwrap();
        let y = s.syms.iter().find(|v| v.name == "y").unwrap();
        assert!(x.address_taken);
        assert!(!y.address_taken);
        assert!(x.is_mem_resident());
        assert!(!y.is_mem_resident());
    }

    #[test]
    fn globals_and_arrays_are_mem_resident() {
        let (_, s) = sema_ok("int g; int main() { int a[4]; a[0] = g; return a[0]; }");
        assert!(s.sym(s.globals[0]).is_mem_resident());
        let a = s.syms.iter().find(|v| v.name == "a").unwrap();
        assert!(a.is_mem_resident());
    }

    #[test]
    fn canonical_loop_recognized() {
        let (p, s) = sema_ok(
            "int a[10]; int main() { int i; for (i = 0; i < 10; i++) a[i] = i; return 0; }",
        );
        assert_eq!(canon_loops(&s).len(), 1);
        let cl = canon_loops(&s)[0];
        assert_eq!(cl.lower, Bound::Const(0));
        assert_eq!(cl.upper, Bound::Const(10));
        assert!(!cl.inclusive);
        assert_eq!(cl.step, 1);
        assert_eq!(cl.trip_count(), Some(10));
        let _ = p;
    }

    #[test]
    fn canonical_loop_with_le_and_step() {
        let (_, s) = sema_ok(
            "int a[64]; int main() { int i; for (i = 2; i <= 20; i += 3) a[i] = i; return 0; }",
        );
        let cl = canon_loops(&s)[0];
        assert!(cl.inclusive);
        assert_eq!(cl.step, 3);
        assert_eq!(cl.trip_count(), Some(7));
    }

    #[test]
    fn symbolic_upper_bound() {
        let (_, s) = sema_ok(
            "int a[100]; int f(int n) { int i; for (i = 0; i < n; i++) a[i] = i; return 0; }",
        );
        let cl = canon_loops(&s)[0];
        assert!(matches!(cl.upper, Bound::Sym(_)));
        assert_eq!(cl.trip_count(), None);
    }

    #[test]
    fn loop_modifying_ivar_not_canonical() {
        let (_, s) = sema_ok(
            "int a[10]; int main() { int i; for (i = 0; i < 10; i++) { a[i] = i; i = i + 1; } return 0; }",
        );
        assert!(canon_loops(&s).is_empty());
    }

    #[test]
    fn loop_with_modified_symbolic_bound_not_canonical() {
        let (_, s) = sema_ok(
            "int a[10]; int main() { int i; int n; n = 10; for (i = 0; i < n; i++) { a[i] = i; n = n - 1; } return 0; }",
        );
        assert!(canon_loops(&s).is_empty());
    }

    #[test]
    fn downward_loop_not_canonical() {
        let (_, s) =
            sema_ok("int a[10]; int main() { int i; for (i = 9; i > 0; i--) a[i] = i; return 0; }");
        assert!(canon_loops(&s).is_empty());
    }

    #[test]
    fn nested_loops_both_recognized() {
        let (_, s) = sema_ok(
            "double m[8][8]; int main() { int i; int j; for (i = 0; i < 8; i++) for (j = 0; j < 8; j++) m[i][j] = 0.0; return 0; }",
        );
        assert_eq!(canon_loops(&s).len(), 2);
    }

    #[test]
    fn break_outside_loop_rejected() {
        let e = sema_err("int main() { break; return 0; }");
        assert!(e.msg.contains("outside a loop"));
    }

    #[test]
    fn return_type_checked() {
        assert!(sema_err("void f() { return 3; } int main(){return 0;}")
            .msg
            .contains("void function"));
        assert!(sema_err("int f() { return; } int main(){return 0;}")
            .msg
            .contains("missing return value"));
    }

    #[test]
    fn shadowing_in_nested_scope() {
        let (_, s) = sema_ok("int main() { int x; x = 1; { int x; x = 2; } return x; }");
        assert_eq!(s.syms.iter().filter(|v| v.name == "x").count(), 2);
    }

    #[test]
    fn redefinition_in_same_scope_rejected() {
        let e = sema_err("int main() { int x; int x; return 0; }");
        assert!(e.msg.contains("redefinition"));
    }

    #[test]
    fn array_param_decays_and_indexes() {
        let (_, _s) = sema_ok(
            "double sum(double v[], int n) { int i; double s; s = 0.0; for (i = 0; i < n; i++) s = s + v[i]; return s; } int main() { double a[5]; return 0; }",
        );
    }

    #[test]
    fn integer_ops_reject_doubles() {
        let e = sema_err("int main() { double d; int x; d = 1.0; x = d % 2; return x; }");
        assert!(e.msg.contains("integer operator"));
    }

    #[test]
    fn base_sym_through_index_and_deref() {
        let (p, s) = sema_ok("int a[10]; int main() { int *q; q = &a[0]; return a[1] + *q; }");
        let mut bases = Vec::new();
        for f in &p.funcs {
            for st in &f.body.stmts {
                st.walk_stmts(&mut |st| {
                    st.own_exprs(&mut |e| {
                        e.walk(&mut |x| {
                            if matches!(x.kind, ExprKind::Index(..) | ExprKind::Deref(_)) {
                                if let Some(b) = s.base_sym(x) {
                                    bases.push(s.sym(b).name.clone());
                                }
                            }
                        })
                    })
                });
            }
        }
        assert!(bases.contains(&"a".to_string()));
        assert!(bases.contains(&"q".to_string()));
    }
}
