//! AST → RTL lowering.
//!
//! This is the code generator whose emission rules the front-end's ITEMGEN
//! mirrors (Section 3.1.1 of the paper). The invariant that makes the whole
//! HLI mapping work: **for every source line, the memory references and
//! calls appear in this lowering in exactly the order
//! [`hli_lang::memwalk`] enumerates them.** Property tests in this crate
//! verify the invariant on arbitrary programs.
//!
//! Rules (shared with ITEMGEN):
//! * local scalars whose address is never taken live in virtual registers;
//!   globals, arrays, and address-taken locals live in memory;
//! * the first [`NUM_ARG_REGS`] arguments travel in registers; the rest are
//!   stored to outgoing-argument slots before the call and loaded from
//!   incoming slots at function entry;
//! * scalar returns use the value register (no memory traffic);
//! * `for` lowers as `init; Lcond: cond; brf exit; body; step; jump Lcond`,
//!   keeping the header line's static reference order = init, cond, step.

use crate::rtl::*;
use hli_lang::ast::*;
use hli_lang::interp::GLOBAL_BASE;
use hli_lang::memwalk::NUM_ARG_REGS;
use hli_lang::sema::{Sema, Storage, SymId};
use hli_lang::types::Type;
use std::collections::HashMap;

use crate::unroll::LoopMeta;

/// Lower a whole semantically-checked program.
pub fn lower_program(prog: &Program, sema: &Sema) -> RtlProgram {
    lower_with_loops(prog, sema).0
}

/// Lower and also return, per function, the canonical constant-trip loop
/// metadata the unroller consumes.
pub fn lower_with_loops(
    prog: &Program,
    sema: &Sema,
) -> (RtlProgram, HashMap<String, Vec<LoopMeta>>) {
    let _s = hli_obs::span("backend.lower");
    let mut global_addr = HashMap::new();
    let mut global_init = Vec::new();
    let mut addr = GLOBAL_BASE;
    for (gi, &sym) in sema.globals.iter().enumerate() {
        global_addr.insert(sym, addr);
        let g = &prog.globals[gi];
        if let Some(init) = &g.init {
            let bits = match (init, &g.ty) {
                (ConstInit::Int(v), Type::Double) => (*v as f64).to_bits(),
                (ConstInit::Int(v), _) => *v as u64,
                (ConstInit::Double(v), Type::Int) => (*v as i64) as u64,
                (ConstInit::Double(v), _) => v.to_bits(),
            };
            global_init.push((addr, bits));
        }
        addr += sema.sym(sym).ty.size().max(8) as i64;
    }
    let mut funcs = Vec::with_capacity(prog.funcs.len());
    let mut loop_metas = HashMap::new();
    let reg = hli_obs::metrics::cur();
    for (fi, f) in prog.funcs.iter().enumerate() {
        let (rf, metas) = Lowerer::new(sema).func(fi as u32, f);
        reg.counter("backend.lower.funcs").inc();
        reg.counter("backend.lower.insns").add(rf.insns.len() as u64);
        loop_metas.insert(rf.name.clone(), metas);
        funcs.push(rf);
    }
    (
        RtlProgram { funcs, global_addr, global_init, globals_end: addr },
        loop_metas,
    )
}

/// Where a value lives.
#[derive(Debug, Clone, Copy)]
enum Place {
    Reg(Reg),
    Mem(MemRef),
}

/// An integer value that may still be a compile-time constant (lets
/// constant subscripts fold into the memory-reference offset, which is what
/// gives the GCC-style dependence test its constant-offset precision).
#[derive(Debug, Clone, Copy)]
enum Val {
    Const(i64),
    Reg(Reg),
}

struct Lowerer<'a> {
    sema: &'a Sema,
    insns: Vec<Insn>,
    next_reg: Reg,
    next_label: Label,
    next_insn: InsnId,
    cur_line: u32,
    reg_of: HashMap<SymId, Reg>,
    slot_of: HashMap<SymId, i64>,
    frame_size: i64,
    out_args: u32,
    /// (break target, continue target) stack.
    loop_stack: Vec<(Label, Label)>,
    /// Return type of the function being lowered.
    ret_ty: Type,
    /// Canonical constant-trip loops encountered (for the unroller).
    loop_metas: Vec<LoopMeta>,
}

impl<'a> Lowerer<'a> {
    fn new(sema: &'a Sema) -> Self {
        Lowerer {
            sema,
            insns: Vec::new(),
            next_reg: 0,
            next_label: 0,
            next_insn: 0,
            cur_line: 0,
            reg_of: HashMap::new(),
            slot_of: HashMap::new(),
            frame_size: 0,
            out_args: 0,
            loop_stack: Vec::new(),
            ret_ty: Type::Void,
            loop_metas: Vec::new(),
        }
    }

    fn reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn label(&mut self) -> Label {
        let l = self.next_label;
        self.next_label += 1;
        l
    }

    fn emit(&mut self, op: Op) {
        let id = self.next_insn;
        self.next_insn += 1;
        self.insns.push(Insn { id, line: self.cur_line, op });
    }

    fn alloc_slot(&mut self, size: i64) -> i64 {
        let off = self.frame_size;
        self.frame_size += size.max(8);
        off
    }

    fn func(mut self, index: u32, f: &FuncDef) -> (RtlFunc, Vec<LoopMeta>) {
        self.cur_line = f.line;
        self.ret_ty = f.ret.clone();
        let params = self.sema.func_params(index);
        let mut param_regs = Vec::new();
        // Register parameters get their registers up front.
        for (i, sym) in params.clone().enumerate() {
            if i < NUM_ARG_REGS {
                let r = self.reg();
                param_regs.push(r);
                self.reg_of.insert(sym, r);
            }
        }
        // Entry ABI traffic, in parameter order (matches memwalk):
        // stack-parameter loads, then address-taken spills.
        for (i, sym) in params.clone().enumerate() {
            if i >= NUM_ARG_REGS {
                let r = self.reg();
                self.emit(Op::Load(
                    r,
                    MemRef {
                        base: BaseAddr::InArg(i as u32),
                        index: None,
                        scale: 8,
                        offset: 0,
                    },
                ));
                self.reg_of.insert(sym, r);
            }
            if self.sema.sym(sym).is_mem_resident() {
                let slot = self.alloc_slot(8);
                self.slot_of.insert(sym, slot);
                let r = self.reg_of[&sym];
                self.emit(Op::Store(MemRef::stack(slot), r));
            }
        }
        self.block(&f.body);
        // Safety net for functions that fall off the end.
        match f.ret {
            Type::Void => self.emit(Op::Ret(None)),
            _ => {
                let z = self.reg();
                self.emit(Op::LiI(z, 0));
                self.emit(Op::Ret(Some(z)));
            }
        }
        let rf = RtlFunc {
            name: f.name.clone(),
            param_regs,
            num_params: params.len(),
            insns: self.insns,
            frame_size: self.frame_size,
            out_args: self.out_args,
            num_regs: self.next_reg,
            has_ret_value: f.ret != Type::Void,
        };
        (rf, self.loop_metas)
    }

    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        self.cur_line = s.line;
        match &s.kind {
            StmtKind::Decl(d) => {
                let sym = self.sema.decl_sym(s.id);
                let info = self.sema.sym(sym);
                if info.is_mem_resident() {
                    let slot = self.alloc_slot(info.ty.size() as i64);
                    self.slot_of.insert(sym, slot);
                } else {
                    let r = self.reg();
                    self.reg_of.insert(sym, r);
                }
                if let Some(init) = &d.init {
                    let v = self.rvalue(init);
                    let v = self.convert(v, self.sema.ty_of(init), &d.ty);
                    self.cur_line = s.line;
                    match self.place_of_sym(sym) {
                        Place::Reg(r) => self.emit(Op::Move(r, v)),
                        Place::Mem(m) => self.emit(Op::Store(m, v)),
                    }
                }
            }
            StmtKind::Expr(e) => {
                self.rvalue(e);
            }
            StmtKind::Block(b) => self.block(b),
            StmtKind::If { cond, then_body, else_body } => {
                let l_else = self.label();
                self.branch_if_false(cond, l_else);
                self.stmt(then_body);
                match else_body {
                    Some(eb) => {
                        let l_end = self.label();
                        self.emit(Op::Jump(l_end));
                        self.emit(Op::Label(l_else));
                        self.stmt(eb);
                        self.emit(Op::Label(l_end));
                    }
                    None => self.emit(Op::Label(l_else)),
                }
            }
            StmtKind::While { cond, body } => {
                let l_cond = self.label();
                let l_exit = self.label();
                self.emit(Op::Label(l_cond));
                self.cur_line = s.line;
                self.branch_if_false(cond, l_exit);
                self.loop_stack.push((l_exit, l_cond));
                self.stmt(body);
                self.loop_stack.pop();
                self.emit(Op::Jump(l_cond));
                self.emit(Op::Label(l_exit));
            }
            StmtKind::DoWhile { body, cond } => {
                let l_body = self.label();
                let l_cond = self.label();
                let l_exit = self.label();
                self.emit(Op::Label(l_body));
                self.loop_stack.push((l_exit, l_cond));
                self.stmt(body);
                self.loop_stack.pop();
                self.emit(Op::Label(l_cond));
                self.cur_line = s.line;
                self.branch_if_true(cond, l_body);
                self.emit(Op::Label(l_exit));
            }
            StmtKind::For { init, cond, step, body } => {
                if let Some(e) = init {
                    self.rvalue(e);
                }
                let l_cond = self.label();
                let l_step = self.label();
                let l_exit = self.label();
                // Record unroller metadata for canonical constant-trip loops.
                if let Some(cl) = self.sema.canon_loop(s.id) {
                    if let (Some(trip), hli_lang::sema::Bound::Const(lower)) =
                        (cl.trip_count(), cl.lower)
                    {
                        if let Some(&ivar_reg) = self.reg_of.get(&cl.ivar) {
                            self.loop_metas.push(LoopMeta {
                                l_cond,
                                l_step,
                                l_exit,
                                ivar_reg,
                                lower,
                                step: cl.step,
                                trip,
                                header_line: s.line,
                            });
                        }
                    }
                }
                self.emit(Op::Label(l_cond));
                if let Some(c) = cond {
                    self.cur_line = s.line;
                    self.branch_if_false(c, l_exit);
                }
                self.loop_stack.push((l_exit, l_step));
                self.stmt(body);
                self.loop_stack.pop();
                self.emit(Op::Label(l_step));
                if let Some(e) = step {
                    self.cur_line = s.line;
                    self.rvalue(e);
                }
                self.emit(Op::Jump(l_cond));
                self.emit(Op::Label(l_exit));
            }
            StmtKind::Return(v) => match v {
                Some(e) => {
                    let r = self.rvalue(e);
                    let ety = self.sema.ty_of(e).clone();
                    let rty = self.ret_ty.clone();
                    let r = self.convert(r, &ety, &rty);
                    self.emit(Op::Ret(Some(r)));
                }
                None => self.emit(Op::Ret(None)),
            },
            StmtKind::Break => {
                let (l_exit, _) = *self.loop_stack.last().expect("break inside loop");
                self.emit(Op::Jump(l_exit));
            }
            StmtKind::Continue => {
                let (_, l_cont) = *self.loop_stack.last().expect("continue inside loop");
                self.emit(Op::Jump(l_cont));
            }
            StmtKind::Empty => {}
        }
    }

    // ---- conditions --------------------------------------------------------

    fn branch_if_false(&mut self, e: &Expr, target: Label) {
        self.branch_cond(e, target, false);
    }

    fn branch_if_true(&mut self, e: &Expr, target: Label) {
        self.branch_cond(e, target, true);
    }

    /// Branch to `target` when `e`'s truth equals `when`.
    fn branch_cond(&mut self, e: &Expr, target: Label, when: bool) {
        match &e.kind {
            ExprKind::Binary(op, a, b)
                if op.is_boolean() && !matches!(op, BinOp::LogAnd | BinOp::LogOr) =>
            {
                let ta = self.sema.ty_of(a).decayed();
                let tb = self.sema.ty_of(b).decayed();
                let cmp = cmp_of(*op);
                if ta.is_float() || tb.is_float() {
                    let ra = self.rvalue(a);
                    let ra = self.as_float_reg(ra, &ta);
                    let rb = self.rvalue(b);
                    let rb = self.as_float_reg(rb, &tb);
                    let rc = self.reg();
                    self.emit(Op::FCmp(cmp, rc, ra, rb));
                    let z = self.reg();
                    self.emit(Op::LiI(z, 0));
                    let pred = if when { CmpOp::Ne } else { CmpOp::Eq };
                    self.emit(Op::Branch(pred, rc, z, target));
                } else {
                    let ra = self.rvalue(a);
                    let rb = self.rvalue(b);
                    let pred = if when { cmp } else { negate(cmp) };
                    self.emit(Op::Branch(pred, ra, rb, target));
                }
            }
            ExprKind::Binary(BinOp::LogAnd, a, b) => {
                if when {
                    // Jump to target iff a && b.
                    let l_no = self.label();
                    self.branch_if_false(a, l_no);
                    self.branch_if_true(b, target);
                    self.emit(Op::Label(l_no));
                } else {
                    self.branch_if_false(a, target);
                    self.branch_if_false(b, target);
                }
            }
            ExprKind::Binary(BinOp::LogOr, a, b) => {
                if when {
                    self.branch_if_true(a, target);
                    self.branch_if_true(b, target);
                } else {
                    let l_yes = self.label();
                    self.branch_if_true(a, l_yes);
                    self.branch_if_false(b, target);
                    self.emit(Op::Label(l_yes));
                }
            }
            ExprKind::Unary(UnOp::Not, x) => self.branch_cond(x, target, !when),
            _ => {
                let r = self.rvalue(e);
                let r = if self.sema.ty_of(e).is_float() {
                    // Compare against 0.0.
                    let zf = self.reg();
                    self.emit(Op::LiF(zf, 0.0));
                    let rc = self.reg();
                    self.emit(Op::FCmp(CmpOp::Ne, rc, r, zf));
                    rc
                } else {
                    r
                };
                let z = self.reg();
                self.emit(Op::LiI(z, 0));
                let pred = if when { CmpOp::Ne } else { CmpOp::Eq };
                self.emit(Op::Branch(pred, r, z, target));
            }
        }
    }

    // ---- places ------------------------------------------------------------

    fn place_of_sym(&mut self, sym: SymId) -> Place {
        let info = self.sema.sym(sym);
        if info.is_mem_resident() {
            match info.storage {
                Storage::Global => Place::Mem(MemRef::sym(sym)),
                _ => Place::Mem(MemRef::stack(self.slot_of[&sym])),
            }
        } else {
            Place::Reg(self.reg_of[&sym])
        }
    }

    /// Compute the place of an lvalue, emitting its address code. Emission
    /// order matches `memwalk::lvalue_address`.
    fn place(&mut self, e: &Expr) -> Place {
        match &e.kind {
            ExprKind::Ident(_) => self.place_of_sym(self.sema.sym_of(e)),
            ExprKind::Index(..) => {
                let m = self.index_memref(e);
                Place::Mem(m)
            }
            ExprKind::Deref(p) => {
                let r = self.rvalue(p);
                Place::Mem(MemRef::reg(r))
            }
            _ => unreachable!("not an lvalue"),
        }
    }

    /// Build the memory reference of a (fully-subscripted) `Index` chain.
    fn index_memref(&mut self, e: &Expr) -> MemRef {
        // Peel the chain.
        let mut subs: Vec<&Expr> = Vec::new();
        let mut cur = e;
        while let ExprKind::Index(b, i) = &cur.kind {
            subs.push(i);
            cur = b;
        }
        subs.reverse();
        // `cur` is the base: an array designator or a pointer expression.
        let (base, strides) = match &cur.kind {
            ExprKind::Ident(_) if self.sema.ty_of(cur).is_array() => {
                let sym = self.sema.sym_of(cur);
                let dims = self.sema.sym(sym).ty.array_dims();
                let strides = strides_for(&dims, subs.len());
                let base = match self.sema.sym(sym).storage {
                    Storage::Global => BaseAddr::Sym(sym),
                    _ => BaseAddr::Stack(self.slot_of[&sym]),
                };
                (base, strides)
            }
            _ => {
                // Pointer base: evaluate it (may emit its own loads).
                let pt = self.sema.ty_of(cur).decayed();
                let r = self.rvalue(cur);
                let pointee_dims = match &pt {
                    Type::Ptr(inner) => inner.array_dims(),
                    _ => vec![],
                };
                let mut dims = pointee_dims;
                dims.insert(0, 0); // outermost dimension is unbounded
                let strides = strides_for(&dims, subs.len());
                (BaseAddr::Reg(r), strides)
            }
        };
        // Linearize: value = Σ sub_k · stride_k, keeping constants folded.
        let mut const_part: i64 = 0;
        let mut reg_part: Option<Reg> = None;
        for (sub, stride) in subs.iter().zip(&strides) {
            match self.int_value(sub) {
                Val::Const(c) => const_part += c * stride,
                Val::Reg(r) => {
                    let scaled = if *stride == 1 {
                        r
                    } else {
                        let d = self.reg();
                        self.emit(Op::IBinI(IBinOp::Mul, d, r, *stride));
                        d
                    };
                    reg_part = Some(match reg_part {
                        None => scaled,
                        Some(prev) => {
                            let d = self.reg();
                            self.emit(Op::IBin(IBinOp::Add, d, prev, scaled));
                            d
                        }
                    });
                }
            }
        }
        MemRef { base, index: reg_part, scale: 8, offset: const_part * 8 }
    }

    /// Evaluate an integer expression, keeping literals symbolic.
    fn int_value(&mut self, e: &Expr) -> Val {
        match &e.kind {
            ExprKind::IntLit(v) => Val::Const(*v),
            ExprKind::Unary(UnOp::Neg, a) => {
                if let ExprKind::IntLit(v) = a.kind {
                    Val::Const(-v)
                } else {
                    Val::Reg(self.rvalue(e))
                }
            }
            _ => Val::Reg(self.rvalue(e)),
        }
    }

    fn load_place(&mut self, p: Place) -> Reg {
        match p {
            Place::Reg(r) => r,
            Place::Mem(m) => {
                let d = self.reg();
                self.emit(Op::Load(d, m));
                d
            }
        }
    }

    fn store_place(&mut self, p: Place, v: Reg) {
        match p {
            Place::Reg(r) => self.emit(Op::Move(r, v)),
            Place::Mem(m) => self.emit(Op::Store(m, v)),
        }
    }

    /// Materialize the address a memory place designates.
    fn addr_of_place(&mut self, p: Place) -> Reg {
        let Place::Mem(m) = p else { unreachable!("address of register value") };
        let base = self.reg();
        match m.base {
            BaseAddr::Reg(r) => self.emit(Op::Move(base, r)),
            b => self.emit(Op::La(base, b, 0)),
        }
        let mut acc = base;
        if let Some(idx) = m.index {
            let scaled = self.reg();
            self.emit(Op::IBinI(IBinOp::Mul, scaled, idx, m.scale));
            let d = self.reg();
            self.emit(Op::IBin(IBinOp::Add, d, acc, scaled));
            acc = d;
        }
        if m.offset != 0 {
            let d = self.reg();
            self.emit(Op::IBinI(IBinOp::Add, d, acc, m.offset));
            acc = d;
        }
        acc
    }

    // ---- conversions --------------------------------------------------------

    fn convert(&mut self, r: Reg, from: &Type, to: &Type) -> Reg {
        let from = from.decayed();
        match (from.is_float(), to.is_float()) {
            (false, true) => {
                let d = self.reg();
                self.emit(Op::CvtIF(d, r));
                d
            }
            (true, false) if !matches!(to, Type::Double) => {
                let d = self.reg();
                self.emit(Op::CvtFI(d, r));
                d
            }
            _ => r,
        }
    }

    fn as_float_reg(&mut self, r: Reg, ty: &Type) -> Reg {
        if ty.is_float() {
            r
        } else {
            let d = self.reg();
            self.emit(Op::CvtIF(d, r));
            d
        }
    }

    // ---- expressions ---------------------------------------------------------

    /// Lower an expression to a register. Memory/call emission order matches
    /// `memwalk::rvalue`.
    fn rvalue(&mut self, e: &Expr) -> Reg {
        self.cur_line = e.line;
        match &e.kind {
            ExprKind::IntLit(v) => {
                let d = self.reg();
                self.emit(Op::LiI(d, *v));
                d
            }
            ExprKind::FloatLit(v) => {
                let d = self.reg();
                self.emit(Op::LiF(d, *v));
                d
            }
            ExprKind::Ident(_) => {
                let ty = self.sema.ty_of(e).clone();
                if ty.is_array() {
                    // Decay to the array's address.
                    let sym = self.sema.sym_of(e);
                    let d = self.reg();
                    match self.sema.sym(sym).storage {
                        Storage::Global => self.emit(Op::La(d, BaseAddr::Sym(sym), 0)),
                        _ => {
                            let slot = self.slot_of[&sym];
                            self.emit(Op::La(d, BaseAddr::Stack(slot), 0));
                        }
                    }
                    d
                } else {
                    let p = self.place_of_sym(self.sema.sym_of(e));
                    self.load_place(p)
                }
            }
            ExprKind::Unary(op, a) => {
                let ta = self.sema.ty_of(a).decayed();
                let r = self.rvalue(a);
                let d = self.reg();
                match op {
                    UnOp::Neg => {
                        if ta.is_float() {
                            let z = self.reg();
                            self.emit(Op::LiF(z, 0.0));
                            self.emit(Op::FBin(FBinOp::Sub, d, z, r));
                        } else {
                            let z = self.reg();
                            self.emit(Op::LiI(z, 0));
                            self.emit(Op::IBin(IBinOp::Sub, d, z, r));
                        }
                    }
                    UnOp::Not => {
                        if ta.is_float() {
                            let z = self.reg();
                            self.emit(Op::LiF(z, 0.0));
                            self.emit(Op::FCmp(CmpOp::Eq, d, r, z));
                        } else {
                            let z = self.reg();
                            self.emit(Op::LiI(z, 0));
                            self.emit(Op::ICmp(CmpOp::Eq, d, r, z));
                        }
                    }
                    UnOp::BitNot => {
                        let m1 = self.reg();
                        self.emit(Op::LiI(m1, -1));
                        self.emit(Op::IBin(IBinOp::Xor, d, r, m1));
                    }
                }
                d
            }
            ExprKind::Binary(op, a, b) => self.binary(e, *op, a, b),
            ExprKind::Index(..) => {
                if self.sema.ty_of(e).is_array() {
                    // Partial index: an address.
                    let m = self.index_memref(e);
                    self.addr_of_place(Place::Mem(m))
                } else {
                    let p = self.place(e);
                    // Subscript lowering may have advanced cur_line; the
                    // reference itself belongs to this expression's line
                    // (the line-table mapping key).
                    self.cur_line = e.line;
                    self.load_place(p)
                }
            }
            ExprKind::Deref(_) => {
                let p = self.place(e);
                self.cur_line = e.line;
                self.load_place(p)
            }
            ExprKind::Addr(lv) => {
                let p = self.place(lv);
                self.addr_of_place(p)
            }
            ExprKind::Assign(lhs, rhs) => {
                let v = self.rvalue(rhs);
                let v = self.convert(v, self.sema.ty_of(rhs), self.sema.ty_of(lhs));
                let p = self.place(lhs);
                self.cur_line = e.line;
                self.store_place(p, v);
                v
            }
            ExprKind::CompoundAssign(op, lhs, rhs) => {
                let tl = self.sema.ty_of(lhs).clone();
                let p = self.place(lhs);
                self.cur_line = e.line;
                let old = self.load_place(p);
                let rv = self.rvalue(rhs);
                let tr = self.sema.ty_of(rhs).clone();
                let combined = self.apply_bin(*op, old, &tl, rv, &tr, &tl);
                self.cur_line = e.line;
                self.store_place(p, combined);
                combined
            }
            ExprKind::IncDec(kind, lv) => {
                let ty = self.sema.ty_of(lv).clone();
                let p = self.place(lv);
                self.cur_line = e.line;
                let old = self.load_place(p);
                let delta = match &ty {
                    Type::Ptr(t) => t.size().max(8) as i64,
                    _ => 1,
                };
                let delta = if kind.is_inc() { delta } else { -delta };
                let new = self.reg();
                if ty.is_float() {
                    let dr = self.reg();
                    self.emit(Op::LiF(dr, delta as f64));
                    self.emit(Op::FBin(FBinOp::Add, new, old, dr));
                } else {
                    self.emit(Op::IBinI(IBinOp::Add, new, old, delta));
                }
                self.store_place(p, new);
                if kind.is_pre() {
                    new
                } else {
                    old
                }
            }
            ExprKind::Call(name, args) => {
                let sig = self.sema.func(self.sema.callee(e));
                let mut reg_args = Vec::new();
                for (i, a) in args.iter().enumerate() {
                    let r = self.rvalue(a);
                    let r = self.convert(r, self.sema.ty_of(a), &sig.params[i]);
                    self.cur_line = e.line;
                    if i < NUM_ARG_REGS {
                        reg_args.push(r);
                    } else {
                        self.out_args = self.out_args.max((i + 1 - NUM_ARG_REGS) as u32);
                        self.emit(Op::Store(
                            MemRef {
                                base: BaseAddr::OutArg(i as u32),
                                index: None,
                                scale: 8,
                                offset: 0,
                            },
                            r,
                        ));
                    }
                }
                let dst = if sig.ret == Type::Void {
                    None
                } else {
                    Some(self.reg())
                };
                self.emit(Op::Call { dst, func: name.clone(), args: reg_args });
                dst.unwrap_or_else(|| {
                    // Void calls in expression position only occur as
                    // statements; hand back a dummy.
                    let d = self.reg();
                    // No instruction needed: the register is never read.
                    d
                })
            }
        }
    }

    fn binary(&mut self, e: &Expr, op: BinOp, a: &Expr, b: &Expr) -> Reg {
        let ta = self.sema.ty_of(a).decayed();
        let tb = self.sema.ty_of(b).decayed();
        match op {
            BinOp::LogAnd => {
                let d = self.reg();
                let l_end = self.label();
                self.emit(Op::LiI(d, 0));
                self.branch_if_false_reg_chain(a, l_end);
                self.branch_if_false_reg_chain(b, l_end);
                self.emit(Op::LiI(d, 1));
                self.emit(Op::Label(l_end));
                return d;
            }
            BinOp::LogOr => {
                let d = self.reg();
                let l_true = self.label();
                let l_end = self.label();
                self.emit(Op::LiI(d, 0));
                self.branch_if_true(a, l_true);
                self.branch_if_true(b, l_true);
                self.emit(Op::Jump(l_end));
                self.emit(Op::Label(l_true));
                self.emit(Op::LiI(d, 1));
                self.emit(Op::Label(l_end));
                return d;
            }
            _ => {}
        }
        // Pointer arithmetic scales by pointee size.
        if matches!(op, BinOp::Add | BinOp::Sub) && (ta.is_pointer() || tb.is_pointer()) {
            return self.pointer_arith(op, a, &ta, b, &tb);
        }
        let ra = self.rvalue(a);
        let rb = self.rvalue(b);
        self.cur_line = e.line;
        let tr = self.sema.ty_of(e).clone();
        self.apply_bin(op, ra, &ta, rb, &tb, &tr)
    }

    /// Apply a binary operator to evaluated operands.
    fn apply_bin(&mut self, op: BinOp, ra: Reg, ta: &Type, rb: Reg, tb: &Type, tr: &Type) -> Reg {
        let float = ta.is_float() || tb.is_float();
        let d = self.reg();
        if op.is_boolean() {
            let cmp = cmp_of(op);
            if float {
                let fa = self.as_float_reg(ra, ta);
                let fb = self.as_float_reg(rb, tb);
                self.emit(Op::FCmp(cmp, d, fa, fb));
            } else {
                self.emit(Op::ICmp(cmp, d, ra, rb));
            }
            return d;
        }
        if float {
            let fa = self.as_float_reg(ra, ta);
            let fb = self.as_float_reg(rb, tb);
            let fop = match op {
                BinOp::Add => FBinOp::Add,
                BinOp::Sub => FBinOp::Sub,
                BinOp::Mul => FBinOp::Mul,
                BinOp::Div => FBinOp::Div,
                _ => unreachable!("integer-only op on floats rejected by sema"),
            };
            self.emit(Op::FBin(fop, d, fa, fb));
            // Truncate back when the result type is int (e.g. compound
            // assign into an int lvalue).
            if !tr.is_float() && tr.is_numeric() {
                let t = self.reg();
                self.emit(Op::CvtFI(t, d));
                return t;
            }
            return d;
        }
        let iop = match op {
            BinOp::Add => IBinOp::Add,
            BinOp::Sub => IBinOp::Sub,
            BinOp::Mul => IBinOp::Mul,
            BinOp::Div => IBinOp::Div,
            BinOp::Rem => IBinOp::Rem,
            BinOp::Shl => IBinOp::Shl,
            BinOp::Shr => IBinOp::Shr,
            BinOp::BitAnd => IBinOp::And,
            BinOp::BitOr => IBinOp::Or,
            BinOp::BitXor => IBinOp::Xor,
            _ => unreachable!(),
        };
        self.emit(Op::IBin(iop, d, ra, rb));
        // Integer op feeding a double slot converts at the consumer.
        if tr.is_float() {
            let t = self.reg();
            self.emit(Op::CvtIF(t, d));
            return t;
        }
        d
    }

    fn pointer_arith(&mut self, op: BinOp, a: &Expr, ta: &Type, b: &Expr, tb: &Type) -> Reg {
        let ra = self.rvalue(a);
        let rb = self.rvalue(b);
        let d = self.reg();
        match (ta, tb) {
            (Type::Ptr(t), Type::Ptr(_)) if op == BinOp::Sub => {
                let diff = self.reg();
                self.emit(Op::IBin(IBinOp::Sub, diff, ra, rb));
                self.emit(Op::IBinI(IBinOp::Div, d, diff, t.size().max(8) as i64));
            }
            (Type::Ptr(t), _) => {
                let scaled = self.reg();
                self.emit(Op::IBinI(IBinOp::Mul, scaled, rb, t.size().max(8) as i64));
                match op {
                    BinOp::Add => self.emit(Op::IBin(IBinOp::Add, d, ra, scaled)),
                    BinOp::Sub => self.emit(Op::IBin(IBinOp::Sub, d, ra, scaled)),
                    _ => unreachable!(),
                }
            }
            (_, Type::Ptr(t)) => {
                let scaled = self.reg();
                self.emit(Op::IBinI(IBinOp::Mul, scaled, ra, t.size().max(8) as i64));
                self.emit(Op::IBin(IBinOp::Add, d, rb, scaled));
            }
            _ => unreachable!("pointer_arith called without pointer operands"),
        }
        d
    }

    /// Like `branch_if_false`, but does not recurse into `&&`/`||` value
    /// lowering (used by the logical-value path to keep operand order).
    fn branch_if_false_reg_chain(&mut self, e: &Expr, target: Label) {
        self.branch_if_false(e, target);
    }
}

fn cmp_of(op: BinOp) -> CmpOp {
    match op {
        BinOp::Lt => CmpOp::Lt,
        BinOp::Le => CmpOp::Le,
        BinOp::Gt => CmpOp::Gt,
        BinOp::Ge => CmpOp::Ge,
        BinOp::Eq => CmpOp::Eq,
        BinOp::Ne => CmpOp::Ne,
        _ => unreachable!("not a comparison"),
    }
}

fn negate(c: CmpOp) -> CmpOp {
    match c {
        CmpOp::Eq => CmpOp::Ne,
        CmpOp::Ne => CmpOp::Eq,
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Ge => CmpOp::Lt,
    }
}

/// Element strides for a subscript chain over dimension lengths `dims`
/// (`dims[0]` may be 0 for the unbounded outer pointer dimension). The
/// k-th subscript's stride is the product of *all* dimensions beyond the
/// k-th — including ones not subscripted (partial indexing yields the
/// address of a whole sub-array).
fn strides_for(dims: &[usize], nsubs: usize) -> Vec<i64> {
    let mut strides = vec![1i64; nsubs];
    for (k, stride) in strides.iter_mut().enumerate() {
        let mut s = 1i64;
        for d in &dims[(k + 1).min(dims.len())..] {
            s *= (*d).max(1) as i64;
        }
        *stride = s;
    }
    strides
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_lang::compile_to_ast;
    use hli_lang::memwalk::{walk_function, AccessKind};

    fn lowered(src: &str) -> (RtlProgram, Program, Sema) {
        let (p, s) = compile_to_ast(src).unwrap();
        let r = lower_program(&p, &s);
        (r, p, s)
    }

    /// The load/store/call sequence per line must match memwalk exactly.
    fn check_contract(src: &str) {
        let (r, p, s) = lowered(src);
        for f in &p.funcs {
            let events: Vec<(u32, AccessKind)> =
                walk_function(f, &s).into_iter().map(|ev| (ev.line, ev.kind)).collect();
            let rf = r.func(&f.name).unwrap();
            let refs: Vec<(u32, AccessKind)> = rf
                .insns
                .iter()
                .filter_map(|i| match &i.op {
                    Op::Load(..) => Some((i.line, AccessKind::Load)),
                    Op::Store(..) => Some((i.line, AccessKind::Store)),
                    Op::Call { .. } => Some((i.line, AccessKind::Call)),
                    _ => None,
                })
                .collect();
            assert_eq!(
                events,
                refs,
                "ITEMGEN/lowering contract broken for `{}`:\n{}",
                f.name,
                dump_func(rf)
            );
        }
    }

    #[test]
    fn contract_scalar_globals() {
        check_contract("int g; int h;\nint main() {\n g = h + g;\n g += h;\n g++;\n return g;\n}");
    }

    #[test]
    fn contract_arrays_and_loops() {
        check_contract(
            "int a[10]; int b[10][4];\nint main() {\n int i; int j;\n for (i = 0; i < 10; i++) {\n  a[i] = a[i] + 1;\n  for (j = 0; j < 4; j++) b[i][j] = a[i];\n }\n return a[3] + b[2][1];\n}",
        );
    }

    #[test]
    fn contract_pointers() {
        check_contract(
            "int x; int *gp;\nint main() {\n int *p;\n p = &x;\n gp = p;\n *p = 3;\n *gp = *p + 1;\n return x;\n}",
        );
    }

    #[test]
    fn contract_calls_and_stack_args() {
        check_contract(
            "int g;\nint f(int a, int b, int c, int d, int e, int x) { return a + x + g; }\nint main() {\n return f(g, 2, 3, 4, g, 6);\n}",
        );
    }

    #[test]
    fn contract_conditionals_and_shortcircuit() {
        check_contract(
            "int g; int h;\nint main() {\n int r;\n if (g && h) r = 1; else r = 2;\n while (g || h) { r++; break; }\n r = g && (h || g);\n return r;\n}",
        );
    }

    #[test]
    fn contract_address_taken_locals_and_params() {
        check_contract(
            "void t(int *p) { *p = 1; }\nint f(int a) { t(&a); return a; }\nint main() {\n int x;\n int *q;\n q = &x;\n *q = 5;\n return f(x);\n}",
        );
    }

    #[test]
    fn contract_for_one_liner() {
        check_contract(
            "int a[8]; int g;\nint main() { int i; for (i = g; i < g + 4; i++) a[i] = g; return 0; }",
        );
    }

    #[test]
    fn contract_do_while() {
        check_contract(
            "int g;\nint main() {\n int i; i = 0;\n do { g += i; i++; }\n while (i < g);\n return g;\n}",
        );
    }

    #[test]
    fn constant_subscripts_fold_to_offsets() {
        let (r, _, _) = lowered("int a[10];\nint main() { a[3] = 1; return a[7]; }");
        let f = r.func("main").unwrap();
        let mems: Vec<&MemRef> = f.insns.iter().filter_map(|i| i.op.mem_ref()).collect();
        assert_eq!(mems.len(), 2);
        assert_eq!(mems[0].offset, 24);
        assert!(mems[0].index.is_none());
        assert_eq!(mems[1].offset, 56);
    }

    #[test]
    fn multidim_constant_folding() {
        let (r, _, _) = lowered("int m[4][8];\nint main() { m[2][3] = 1; return 0; }");
        let f = r.func("main").unwrap();
        let mem = f.insns.iter().find_map(|i| i.op.mem_ref()).unwrap();
        // (2*8 + 3) * 8 bytes.
        assert_eq!(mem.offset, 19 * 8);
        assert!(mem.index.is_none());
    }

    #[test]
    fn mixed_subscript_keeps_offset_and_index() {
        let (r, _, _) =
            lowered("int m[4][8];\nint main() { int i; for (i=0;i<4;i++) m[i][3] = 1; return 0; }");
        let f = r.func("main").unwrap();
        let mem = f.insns.iter().find_map(|i| i.op.mem_ref()).unwrap();
        assert_eq!(mem.offset, 24, "constant inner subscript folds");
        assert!(mem.index.is_some(), "variable outer subscript stays indexed");
    }

    #[test]
    fn frame_allocates_arrays_and_spills() {
        let (r, _, _) =
            lowered("int main() { int a[16]; int x; int *p; p = &x; a[0] = *p; return a[0]; }");
        let f = r.func("main").unwrap();
        assert!(f.frame_size >= 16 * 8 + 8, "frame {} too small", f.frame_size);
    }

    #[test]
    fn out_args_counted() {
        let (r, _, _) = lowered(
            "int f(int a,int b,int c,int d,int e,int g,int h) { return a; }\nint main() { return f(1,2,3,4,5,6,7); }",
        );
        assert_eq!(r.func("main").unwrap().out_args, 3);
        assert_eq!(r.func("f").unwrap().param_regs.len(), 4);
        assert_eq!(r.func("f").unwrap().num_params, 7);
    }

    #[test]
    fn partial_index_strides_cover_unsubscripted_dims() {
        // `m[1]` decays to a row pointer: its address is 1 × 8 elements in,
        // not 1 element in (regression: doduc miscompiled via this).
        let (r, _, _) = lowered(
            "double m[4][8];\nvoid f(double *row) { row[2] = 7.0; }\nint main() { f(m[1]); return 0; }",
        );
        let f = r.func("main").unwrap();
        let la_offsets: Vec<i64> = f
            .insns
            .iter()
            .filter_map(|i| match i.op {
                Op::IBinI(IBinOp::Add, _, _, k) => Some(k),
                Op::La(_, _, k) if k != 0 => Some(k),
                _ => None,
            })
            .collect();
        assert!(
            la_offsets.contains(&64),
            "row 1 must be 64 bytes in: {la_offsets:?}\n{}",
            dump_func(f)
        );
        assert_eq!(strides_for(&[4, 8], 1), vec![8]);
        assert_eq!(strides_for(&[4, 8], 2), vec![8, 1]);
        assert_eq!(strides_for(&[0, 8, 8], 1), vec![64]);
    }

    #[test]
    fn globals_laid_out_and_initialized() {
        let (r, _, s) = lowered("int g = 5; double d = 2.5; int a[4];\nint main() { return 0; }");
        assert_eq!(r.global_init.len(), 2);
        assert_eq!(r.global_init[0].1, 5);
        assert_eq!(r.global_init[1].1, 2.5f64.to_bits());
        // Layout is dense from GLOBAL_BASE.
        let mut addrs: Vec<i64> = s.globals.iter().map(|g| r.global_addr[g]).collect();
        addrs.sort();
        assert_eq!(addrs[0], GLOBAL_BASE);
        assert_eq!(r.globals_end, GLOBAL_BASE + 8 + 8 + 32);
    }
}
