//! A reference interpreter for MiniC ASTs.
//!
//! This is the semantic oracle for the whole reproduction: the back-end's
//! RTL interpreter (in `hli-machine`) must produce exactly the same
//! observable behaviour — `main`'s return value plus a checksum over global
//! memory — under every optimization combination. Differential tests between
//! the two catch miscompilations the way the paper's authors relied on SPEC
//! validation outputs.
//!
//! The memory model matches the back-end's: every scalar occupies one 8-byte
//! word; globals live at fixed addresses; arrays and address-taken locals
//! get stack slots; all other local scalars live in per-frame "registers"
//! (exactly the pseudo-register assignment the paper's ITEMGEN rule keys on).

use crate::ast::*;
use crate::sema::{Sema, Storage, SymId};
use crate::types::Type;
use std::fmt;

/// Base byte address of the globals segment.
pub const GLOBAL_BASE: i64 = 0x1000;
/// Base byte address of the stack segment (grows upward, frame by frame).
pub const STACK_BASE: i64 = 0x0010_0000;
/// Memory ceiling (64 MiB) — programs touching beyond this fault.
pub const MEM_LIMIT: i64 = 0x0400_0000;

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    Int(i64),
    Double(f64),
    /// A byte address.
    Ptr(i64),
}

impl Value {
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Double(v) => v as i64,
            Value::Ptr(a) => a,
        }
    }

    pub fn as_double(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Double(v) => v,
            Value::Ptr(a) => a as f64,
        }
    }

    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Double(v) => v != 0.0,
            Value::Ptr(a) => a != 0,
        }
    }

    /// Raw bit pattern, for memory storage and checksums.
    pub fn bits(self) -> u64 {
        match self {
            Value::Int(v) => v as u64,
            Value::Double(v) => v.to_bits(),
            Value::Ptr(a) => a as u64,
        }
    }

    /// Reinterpret stored bits according to a type.
    pub fn from_bits(bits: u64, ty: &Type) -> Value {
        match ty {
            Type::Double => Value::Double(f64::from_bits(bits)),
            Type::Ptr(_) => Value::Ptr(bits as i64),
            _ => Value::Int(bits as i64),
        }
    }

    /// Convert to the representation a slot of type `ty` holds.
    pub fn convert_to(self, ty: &Type) -> Value {
        match ty {
            Type::Double => Value::Double(self.as_double()),
            Type::Int => Value::Int(self.as_int()),
            Type::Ptr(_) => Value::Ptr(self.as_int()),
            _ => self,
        }
    }
}

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpError {
    pub msg: String,
    pub line: u32,
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error at line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for InterpError {}

/// Execution statistics (used by tests and the harness to characterize
/// workloads, e.g. memory references per line for Table 1 commentary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterpStats {
    pub steps: u64,
    pub loads: u64,
    pub stores: u64,
    pub calls: u64,
}

/// Result of running a program to completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecResult {
    /// `main`'s return value.
    pub ret: i64,
    /// FNV-1a over the global segment's words — the second observable.
    pub global_checksum: u64,
    pub stats: InterpStats,
}

/// Run `main()` with a default step budget.
pub fn run_program(prog: &Program, sema: &Sema) -> Result<ExecResult, InterpError> {
    run_program_limited(prog, sema, 200_000_000)
}

/// Run `main()` with an explicit step budget (one step per evaluated
/// expression node or executed statement).
pub fn run_program_limited(
    prog: &Program,
    sema: &Sema,
    max_steps: u64,
) -> Result<ExecResult, InterpError> {
    let mut interp = Interp::new(prog, sema, max_steps);
    interp.init_globals()?;
    let main = sema
        .func_named("main")
        .ok_or_else(|| InterpError { msg: "no `main` function".into(), line: 0 })?;
    let ret = interp.call(main.index, 0, 0)?;
    Ok(ExecResult {
        ret: ret.as_int(),
        global_checksum: interp.global_checksum(),
        stats: interp.stats,
    })
}

/// Either a control-flow escape or a plain completion.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// Where an lvalue lives.
#[derive(Clone, Copy)]
enum Place<'a> {
    /// Pseudo-register (frame-local scalar).
    Reg(SymId),
    /// Memory word at a byte address, holding a value of the given type.
    Mem(i64, &'a Type),
}

/// The active call's slice of the register stack. Sema numbers a
/// function's parameters and locals contiguously from `first`, so symbol
/// `sym` lives at index `base + (sym - first)`.
#[derive(Clone, Copy)]
struct Frame {
    base: usize,
    first: SymId,
}

struct Interp<'a> {
    prog: &'a Program,
    sema: &'a Sema,
    /// Word-granular memory, indexed by byte address / 8.
    mem: Vec<u64>,
    /// Byte address of each global, indexed by [`SymId`] (the globals are
    /// the first symbols).
    global_addr: Vec<i64>,
    globals_end: i64,
    /// The zero value of each symbol's type, indexed by [`SymId`]: what a
    /// fresh frame slot holds.
    defaults: Vec<Value>,
    /// The register stack: one slot per symbol of every active call,
    /// innermost call last. Register-resident scalars live here.
    regs: Vec<Value>,
    /// Parallel to `regs`: the stack address of a memory-resident local
    /// or parameter.
    slots: Vec<i64>,
    frame: Frame,
    /// Active calls.
    depth: usize,
    sp: i64,
    stats: InterpStats,
    max_steps: u64,
}

impl<'a> Interp<'a> {
    fn new(prog: &'a Program, sema: &'a Sema, max_steps: u64) -> Self {
        Interp {
            prog,
            sema,
            mem: vec![0; (STACK_BASE / 8) as usize],
            global_addr: vec![0; sema.globals.len()],
            globals_end: GLOBAL_BASE,
            defaults: sema.syms.iter().map(|s| default_value(&s.ty)).collect(),
            regs: Vec::new(),
            slots: Vec::new(),
            frame: Frame { base: 0, first: 0 },
            depth: 0,
            sp: STACK_BASE,
            stats: InterpStats::default(),
            max_steps,
        }
    }

    fn step(&mut self, line: u32) -> Result<(), InterpError> {
        self.stats.steps += 1;
        if self.stats.steps > self.max_steps {
            return Err(InterpError { msg: "step budget exceeded".into(), line });
        }
        Ok(())
    }

    fn err(&self, line: u32, msg: impl Into<String>) -> InterpError {
        InterpError { msg: msg.into(), line }
    }

    fn mem_read(&mut self, addr: i64, line: u32) -> Result<u64, InterpError> {
        if !(GLOBAL_BASE..MEM_LIMIT).contains(&addr) || addr % 8 != 0 {
            return Err(self.err(line, format!("bad load address {addr:#x}")));
        }
        let idx = (addr / 8) as usize;
        if idx >= self.mem.len() {
            self.mem.resize(idx + 1, 0);
        }
        self.stats.loads += 1;
        Ok(self.mem[idx])
    }

    fn mem_write(&mut self, addr: i64, bits: u64, line: u32) -> Result<(), InterpError> {
        if !(GLOBAL_BASE..MEM_LIMIT).contains(&addr) || addr % 8 != 0 {
            return Err(self.err(line, format!("bad store address {addr:#x}")));
        }
        let idx = (addr / 8) as usize;
        if idx >= self.mem.len() {
            self.mem.resize(idx + 1, 0);
        }
        self.stats.stores += 1;
        self.mem[idx] = bits;
        Ok(())
    }

    fn init_globals(&mut self) -> Result<(), InterpError> {
        let mut addr = GLOBAL_BASE;
        for (gi, &sym) in self.sema.globals.iter().enumerate() {
            let info = self.sema.sym(sym);
            self.global_addr[sym as usize] = addr;
            let size = info.ty.size().max(8) as i64;
            if let Some(init) = &self.prog.globals[gi].init {
                let v = match init {
                    ConstInit::Int(v) => Value::Int(*v),
                    ConstInit::Double(v) => Value::Double(*v),
                };
                let line = info.line;
                self.mem_write(addr, v.convert_to(&info.ty).bits(), line)?;
                // Init writes are setup, not program behaviour.
                self.stats.stores -= 1;
            }
            addr += size;
        }
        self.globals_end = addr;
        Ok(())
    }

    fn global_checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for a in (GLOBAL_BASE..self.globals_end).step_by(8) {
            let w = self.mem.get((a / 8) as usize).copied().unwrap_or(0);
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Index of `sym`'s slot in the active frame.
    fn slot(&self, sym: SymId) -> usize {
        self.frame.base + (sym - self.frame.first) as usize
    }

    /// Call function `func`. The caller has pushed the argument values
    /// onto the register stack from index `args` on; they become the
    /// first slots of the callee's frame.
    fn call(&mut self, func: u32, args: usize, line: u32) -> Result<Value, InterpError> {
        // Keep the MiniC frame limit low enough that the interpreter's own
        // Rust recursion (several host frames per MiniC frame) fits in a
        // default 2 MiB test-thread stack.
        if self.depth > 128 {
            return Err(self.err(line, "call stack overflow"));
        }
        self.stats.calls += 1;
        let (prog, sema) = (self.prog, self.sema);
        let sig = sema.func(func);
        let (first, n) = (sig.first_sym as usize, sig.num_syms as usize);
        let supplied = self.regs.len() - args;
        self.regs.extend_from_slice(&self.defaults[first + supplied..first + n]);
        // `slots` entries past `args` may be left over from calls made while
        // the arguments were evaluated; the frame sets each before reading.
        self.slots.resize(args + n, 0);
        let caller = std::mem::replace(&mut self.frame, Frame { base: args, first: sig.first_sym });
        let sp = self.sp;
        for (i, sym) in sema.func_params(func).enumerate() {
            let info = sema.sym(sym);
            let val = self.regs[args + i].convert_to(&info.ty);
            if info.is_mem_resident() {
                let addr = self.sp;
                self.sp += 8;
                self.slots[args + i] = addr;
                self.mem_write(addr, val.bits(), line)?;
                self.stats.stores -= 1; // ABI traffic, not program behaviour
            } else {
                self.regs[args + i] = val;
            }
        }
        let f = &prog.funcs[func as usize];
        self.depth += 1;
        let flow = self.block(&f.body)?;
        self.depth -= 1;
        self.frame = caller;
        self.regs.truncate(args);
        self.slots.truncate(args);
        self.sp = sp;
        match flow {
            Flow::Return(v) => Ok(v.convert_to(&f.ret)),
            _ if f.ret == Type::Void => Ok(Value::Int(0)),
            _ => Err(self.err(f.line, format!("function `{}` fell off the end", f.name))),
        }
    }

    fn alloc_local(&mut self, sym: SymId, line: u32) -> Result<(), InterpError> {
        let info = self.sema.sym(sym);
        let slot = self.slot(sym);
        if info.is_mem_resident() {
            let size = info.ty.size().max(8) as i64;
            let addr = self.sp;
            self.sp += size;
            if self.sp >= MEM_LIMIT {
                return Err(self.err(line, "stack segment exhausted"));
            }
            // Zero the slot (freshly reused stack may hold old bits). The
            // stack stays word-aligned and below MEM_LIMIT, so no word of
            // it can fault.
            let (lo, hi) = ((addr / 8) as usize, ((addr + size) / 8) as usize);
            if hi > self.mem.len() {
                self.mem.resize(hi, 0);
            }
            self.mem[lo..hi].fill(0);
            self.slots[slot] = addr;
        } else {
            self.regs[slot] = self.defaults[sym as usize];
        }
        Ok(())
    }

    fn block(&mut self, b: &'a Block) -> Result<Flow, InterpError> {
        for s in &b.stmts {
            match self.stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn stmt(&mut self, s: &'a Stmt) -> Result<Flow, InterpError> {
        self.step(s.line)?;
        match &s.kind {
            StmtKind::Decl(d) => {
                let sym = self.sema.decl_sym(s.id);
                self.alloc_local(sym, s.line)?;
                if let Some(init) = &d.init {
                    let v = self.eval(init)?;
                    self.write_place(self.sym_place(sym), v, s.line)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Block(b) => self.block(b),
            StmtKind::If { cond, then_body, else_body } => {
                if self.eval(cond)?.truthy() {
                    self.stmt(then_body)
                } else if let Some(e) = else_body {
                    self.stmt(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                while self.eval(cond)?.truthy() {
                    self.step(s.line)?;
                    match self.stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::DoWhile { body, cond } => {
                loop {
                    self.step(s.line)?;
                    match self.stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if !self.eval(cond)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For { init, cond, step, body } => {
                if let Some(e) = init {
                    self.eval(e)?;
                }
                loop {
                    if let Some(c) = cond {
                        if !self.eval(c)?.truthy() {
                            break;
                        }
                    }
                    self.step(s.line)?;
                    match self.stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if let Some(e) = step {
                        self.eval(e)?;
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return(v) => {
                let val = match v {
                    Some(e) => self.eval(e)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return(val))
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Empty => Ok(Flow::Normal),
        }
    }

    fn sym_place(&self, sym: SymId) -> Place<'a> {
        let info = self.sema.sym(sym);
        if info.is_mem_resident() {
            let addr = match info.storage {
                Storage::Global => self.global_addr[sym as usize],
                _ => self.slots[self.slot(sym)],
            };
            Place::Mem(addr, &info.ty)
        } else {
            Place::Reg(sym)
        }
    }

    fn read_place(&mut self, p: Place<'a>, line: u32) -> Result<Value, InterpError> {
        match p {
            Place::Reg(sym) => Ok(self.regs[self.slot(sym)]),
            Place::Mem(addr, ty) => {
                let bits = self.mem_read(addr, line)?;
                Ok(Value::from_bits(bits, ty))
            }
        }
    }

    fn write_place(&mut self, p: Place<'a>, v: Value, line: u32) -> Result<(), InterpError> {
        match p {
            Place::Reg(sym) => {
                let slot = self.slot(sym);
                self.regs[slot] = v.convert_to(&self.sema.sym(sym).ty);
                Ok(())
            }
            Place::Mem(addr, ty) => self.mem_write(addr, v.convert_to(ty).bits(), line),
        }
    }

    /// Compute the place of an lvalue expression.
    fn place(&mut self, e: &'a Expr) -> Result<Place<'a>, InterpError> {
        match &e.kind {
            ExprKind::Ident(_) => Ok(self.sym_place(self.sema.sym_of(e))),
            ExprKind::Index(base, idx) => {
                let base_addr = self.address_of(base)?;
                let i = self.eval(idx)?.as_int();
                let elem_ty = self.sema.ty_of(e);
                let stride = elem_ty.size().max(8) as i64;
                Ok(Place::Mem(base_addr + i * stride, elem_ty))
            }
            ExprKind::Deref(p) => {
                let addr = self.eval(p)?.as_int();
                Ok(Place::Mem(addr, self.sema.ty_of(e)))
            }
            _ => Err(self.err(e.line, "not an lvalue")),
        }
    }

    /// Address an array/pointer expression designates (for indexing).
    fn address_of(&mut self, e: &'a Expr) -> Result<i64, InterpError> {
        let ty = self.sema.ty_of(e);
        if ty.is_array() {
            // Arrays designate their storage directly.
            match &e.kind {
                ExprKind::Ident(_) => {
                    let sym = self.sema.sym_of(e);
                    match self.sym_place(sym) {
                        Place::Mem(addr, _) => Ok(addr),
                        Place::Reg(_) => unreachable!("arrays are memory-resident"),
                    }
                }
                ExprKind::Index(base, idx) => {
                    let base_addr = self.address_of(base)?;
                    let i = self.eval(idx)?.as_int();
                    Ok(base_addr + i * ty.size() as i64)
                }
                ExprKind::Deref(p) => Ok(self.eval(p)?.as_int()),
                _ => Err(self.err(e.line, "cannot take array address of this expression")),
            }
        } else {
            // Pointer value.
            Ok(self.eval(e)?.as_int())
        }
    }

    fn eval(&mut self, e: &'a Expr) -> Result<Value, InterpError> {
        self.step(e.line)?;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Double(*v)),
            ExprKind::Ident(_) => {
                if self.sema.ty_of(e).is_array() {
                    // Decay to pointer-to-first-element.
                    Ok(Value::Ptr(self.address_of(e)?))
                } else {
                    let p = self.place(e)?;
                    self.read_place(p, e.line)
                }
            }
            ExprKind::Unary(op, a) => {
                let v = self.eval(a)?;
                Ok(match op {
                    UnOp::Neg => match v {
                        Value::Double(d) => Value::Double(-d),
                        other => Value::Int(-other.as_int()),
                    },
                    UnOp::Not => Value::Int(!v.truthy() as i64),
                    UnOp::BitNot => Value::Int(!v.as_int()),
                })
            }
            ExprKind::Binary(op, a, b) => self.binary(e, *op, a, b),
            ExprKind::Index(..) => {
                if self.sema.ty_of(e).is_array() {
                    Ok(Value::Ptr(self.address_of(e)?))
                } else {
                    let p = self.place(e)?;
                    self.read_place(p, e.line)
                }
            }
            ExprKind::Deref(_) => {
                let p = self.place(e)?;
                self.read_place(p, e.line)
            }
            ExprKind::Addr(lv) => match self.place(lv)? {
                Place::Mem(addr, _) => Ok(Value::Ptr(addr)),
                Place::Reg(_) => Err(self.err(
                    e.line,
                    "internal: address of register value (sema should mark address-taken)",
                )),
            },
            ExprKind::Assign(lhs, rhs) => {
                // Contract: RHS evaluates before the LHS address (see
                // `memwalk` — the item order depends on this).
                let v = self.eval(rhs)?;
                let p = self.place(lhs)?;
                let v = v.convert_to(self.sema.ty_of(lhs));
                self.write_place(p, v, e.line)?;
                Ok(v)
            }
            ExprKind::CompoundAssign(op, lhs, rhs) => {
                // Contract (see memwalk): the lvalue address is computed
                // once — subscript side effects must not run twice.
                let p = self.place(lhs)?;
                let old = self.read_place(p, e.line)?;
                let rv = self.eval(rhs)?;
                let ty = self.sema.ty_of(lhs);
                let combined = self.apply_binop(*op, old, rv, ty, e.line)?.convert_to(ty);
                self.write_place(p, combined, e.line)?;
                Ok(combined)
            }
            ExprKind::IncDec(kind, lv) => {
                let ty = self.sema.ty_of(lv);
                let p = self.place(lv)?;
                let old = self.read_place(p, e.line)?;
                let delta = if let Type::Ptr(t) = ty {
                    t.size().max(8) as i64
                } else {
                    1
                };
                let delta = if kind.is_inc() { delta } else { -delta };
                let new = match old {
                    Value::Double(d) => Value::Double(d + delta as f64),
                    other => {
                        let v = other.as_int() + delta;
                        if ty.is_pointer() {
                            Value::Ptr(v)
                        } else {
                            Value::Int(v)
                        }
                    }
                };
                self.write_place(p, new, e.line)?;
                Ok(if kind.is_pre() { new } else { old })
            }
            ExprKind::Call(_, args) => {
                // Arguments go straight onto the register stack, where
                // they become the callee's first frame slots.
                let at = self.regs.len();
                for a in args {
                    let v = self.eval(a)?;
                    self.regs.push(v);
                }
                self.call(self.sema.callee(e), at, e.line)
            }
        }
    }

    fn binary(
        &mut self,
        e: &'a Expr,
        op: BinOp,
        a: &'a Expr,
        b: &'a Expr,
    ) -> Result<Value, InterpError> {
        // Short-circuit logicals first.
        match op {
            BinOp::LogAnd => {
                let va = self.eval(a)?;
                if !va.truthy() {
                    return Ok(Value::Int(0));
                }
                let vb = self.eval(b)?;
                return Ok(Value::Int(vb.truthy() as i64));
            }
            BinOp::LogOr => {
                let va = self.eval(a)?;
                if va.truthy() {
                    return Ok(Value::Int(1));
                }
                let vb = self.eval(b)?;
                return Ok(Value::Int(vb.truthy() as i64));
            }
            _ => {}
        }
        let va = self.eval(a)?;
        let vb = self.eval(b)?;
        // Pointer arithmetic scales by the pointee size. An operand's
        // pointee after decay is its type's `element()`: the target of a
        // pointer, the element of an array.
        let (ta, tb) = (self.sema.ty_of(a), self.sema.ty_of(b));
        let scale = |t: &Type| t.size().max(8) as i64;
        match (op, ta.element(), tb.element()) {
            (BinOp::Add, Some(t), _) => {
                return Ok(Value::Ptr(va.as_int() + vb.as_int() * scale(t)));
            }
            (BinOp::Add, _, Some(t)) => {
                return Ok(Value::Ptr(vb.as_int() + va.as_int() * scale(t)));
            }
            (BinOp::Sub, Some(t), None) if *tb == Type::Int => {
                return Ok(Value::Ptr(va.as_int() - vb.as_int() * scale(t)));
            }
            (BinOp::Sub, Some(t), Some(_)) => {
                return Ok(Value::Int((va.as_int() - vb.as_int()) / scale(t)));
            }
            _ => {}
        }
        self.apply_binop(op, va, vb, self.sema.ty_of(e), e.line)
    }

    fn apply_binop(
        &self,
        op: BinOp,
        va: Value,
        vb: Value,
        result_ty: &Type,
        line: u32,
    ) -> Result<Value, InterpError> {
        use BinOp::*;
        let float = matches!(va, Value::Double(_))
            || matches!(vb, Value::Double(_))
            || result_ty.is_float();
        if op.is_boolean() {
            let r = if float {
                let (x, y) = (va.as_double(), vb.as_double());
                match op {
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    Eq => x == y,
                    Ne => x != y,
                    _ => unreachable!(),
                }
            } else {
                let (x, y) = (va.as_int(), vb.as_int());
                match op {
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                    Eq => x == y,
                    Ne => x != y,
                    _ => unreachable!(),
                }
            };
            return Ok(Value::Int(r as i64));
        }
        if float && matches!(op, Add | Sub | Mul | Div) {
            let (x, y) = (va.as_double(), vb.as_double());
            let r = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => {
                    // IEEE semantics: division by zero yields inf/nan.
                    x / y
                }
                _ => unreachable!(),
            };
            return Ok(Value::Double(r).convert_to(result_ty));
        }
        let (x, y) = (va.as_int(), vb.as_int());
        let r = match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    return Err(self.err(line, "integer division by zero"));
                }
                x.wrapping_div(y)
            }
            Rem => {
                if y == 0 {
                    return Err(self.err(line, "integer remainder by zero"));
                }
                x.wrapping_rem(y)
            }
            Shl => x.wrapping_shl(y as u32),
            Shr => x.wrapping_shr(y as u32),
            BitAnd => x & y,
            BitOr => x | y,
            BitXor => x ^ y,
            _ => unreachable!(),
        };
        Ok(Value::Int(r).convert_to(result_ty))
    }
}

fn default_value(ty: &Type) -> Value {
    match ty {
        Type::Double => Value::Double(0.0),
        Type::Ptr(_) => Value::Ptr(0),
        _ => Value::Int(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_to_ast;

    fn run(src: &str) -> ExecResult {
        let (p, s) = compile_to_ast(src).unwrap();
        run_program(&p, &s).unwrap()
    }

    fn ret(src: &str) -> i64 {
        run(src).ret
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(ret("int main() { return 1 + 2 * 3 - 4 / 2; }"), 5);
        assert_eq!(ret("int main() { return (1 + 2) * 3 % 5; }"), 4);
        assert_eq!(ret("int main() { return 1 << 4 | 3; }"), 19);
    }

    #[test]
    fn float_arithmetic_truncates_to_int_return() {
        assert_eq!(ret("int main() { double x; x = 7.9; return x; }"), 7);
        assert_eq!(ret("int main() { return 10.0 / 4.0 * 2.0; }"), 5);
    }

    #[test]
    fn comparisons_and_logicals() {
        assert_eq!(
            ret("int main() { return (3 < 4) + (4 <= 4) + (5 > 4) + (1 == 1) + (1 != 1); }"),
            4
        );
        assert_eq!(ret("int main() { return (1 && 0) || (2 && 3); }"), 1);
        assert_eq!(ret("int main() { return !5 + !0; }"), 1);
    }

    #[test]
    fn short_circuit_avoids_side_effect() {
        assert_eq!(
            ret("int g = 0; int set() { g = 1; return 1; } int main() { int r; r = 0 && set(); return g * 10 + r; }"),
            0
        );
        assert_eq!(
            ret("int g = 0; int set() { g = 1; return 0; } int main() { int r; r = 1 || set(); return g * 10 + r; }"),
            1
        );
    }

    #[test]
    fn while_and_for_loops() {
        assert_eq!(
            ret("int main() { int i; int s; s = 0; for (i = 1; i <= 10; i++) s += i; return s; }"),
            55
        );
        assert_eq!(
            ret("int main() { int i; int s; i = 0; s = 0; while (i < 5) { s += i; i++; } return s; }"),
            10
        );
        assert_eq!(
            ret("int main() { int i; int s; i = 10; s = 0; do { s++; i++; } while (i < 5); return s; }"),
            1
        );
    }

    #[test]
    fn break_and_continue() {
        assert_eq!(
            ret("int main() { int i; int s; s = 0; for (i = 0; i < 10; i++) { if (i == 5) break; if (i % 2) continue; s += i; } return s; }"),
            6
        );
    }

    #[test]
    fn arrays_and_nested_indexing() {
        assert_eq!(
            ret("int a[3][4]; int main() { int i; int j; for (i=0;i<3;i++) for (j=0;j<4;j++) a[i][j] = i*10+j; return a[2][3]; }"),
            23
        );
    }

    #[test]
    fn local_array_on_stack() {
        assert_eq!(
            ret("int main() { int a[8]; int i; for (i=0;i<8;i++) a[i] = i*i; return a[7]; }"),
            49
        );
    }

    #[test]
    fn pointers_and_address_of() {
        assert_eq!(ret("int main() { int x; int *p; x = 5; p = &x; *p = 9; return x; }"), 9);
        assert_eq!(
            ret("int a[4]; int main() { int *p; p = &a[1]; *p = 7; *(p+1) = 8; return a[1] + a[2]; }"),
            15
        );
    }

    #[test]
    fn pointer_param_aliases_caller_array() {
        assert_eq!(
            ret("double v[4]; void fill(double *p, int n) { int i; for (i=0;i<n;i++) p[i] = i + 0.5; } int main() { fill(v, 4); return v[3] * 2.0; }"),
            7
        );
    }

    #[test]
    fn recursion() {
        assert_eq!(
            ret("int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main() { return fib(12); }"),
            144
        );
    }

    #[test]
    fn incdec_pre_post_semantics() {
        assert_eq!(ret("int main() { int x; x = 5; return x++ * 10 + x; }"), 56);
        assert_eq!(ret("int main() { int x; x = 5; return ++x * 10 + x; }"), 66);
        assert_eq!(ret("int main() { int x; x = 5; return x-- - x; }"), 1);
    }

    #[test]
    fn pointer_incdec_scales() {
        assert_eq!(
            ret("int a[4]; int main() { int *p; a[2] = 42; p = &a[1]; p++; return *p; }"),
            42
        );
    }

    #[test]
    fn compound_assign_on_array_elem() {
        assert_eq!(
            ret("int a[2]; int main() { a[0] = 3; a[0] *= 7; a[0] += 1; return a[0]; }"),
            22
        );
    }

    #[test]
    fn globals_initialized() {
        assert_eq!(ret("int g = 41; int main() { return g + 1; }"), 42);
        assert_eq!(ret("double d = 2.5; int main() { return d * 4.0; }"), 10);
    }

    #[test]
    fn global_checksum_reflects_state() {
        let a = run("int g[4]; int main() { g[0] = 1; return 0; }");
        let b = run("int g[4]; int main() { g[0] = 2; return 0; }");
        assert_ne!(a.global_checksum, b.global_checksum);
        let c = run("int g[4]; int main() { g[0] = 1; return 0; }");
        assert_eq!(a.global_checksum, c.global_checksum);
    }

    #[test]
    fn division_by_zero_faults() {
        let (p, s) = compile_to_ast("int main() { int z; z = 0; return 1 / z; }").unwrap();
        let e = run_program(&p, &s).unwrap_err();
        assert!(e.msg.contains("division by zero"));
    }

    #[test]
    fn step_budget_stops_infinite_loop() {
        let (p, s) = compile_to_ast("int main() { while (1) { } return 0; }").unwrap();
        let e = run_program_limited(&p, &s, 10_000).unwrap_err();
        assert!(e.msg.contains("step budget"));
    }

    #[test]
    fn null_deref_faults() {
        let (p, s) = compile_to_ast("int main() { int *p; return *p; }").unwrap();
        let e = run_program(&p, &s).unwrap_err();
        assert!(e.msg.contains("bad load address"));
    }

    #[test]
    fn call_stack_overflow_faults() {
        let (p, s) =
            compile_to_ast("int f(int n) { return f(n + 1); } int main() { return f(0); }")
                .unwrap();
        let e = run_program(&p, &s).unwrap_err();
        assert!(e.msg.contains("overflow") || e.msg.contains("step budget"));
    }

    #[test]
    fn multiple_return_paths() {
        assert_eq!(
            ret("int sign(int x) { if (x > 0) return 1; if (x < 0) return -1; return 0; } int main() { return sign(-5) + sign(7) * 10 + sign(0) * 100; }"),
            9
        );
    }

    #[test]
    fn double_to_int_conversion_on_assign() {
        assert_eq!(ret("int main() { int x; x = 3.99; return x; }"), 3);
        assert_eq!(ret("double d; int main() { d = 3; return d * 2.0; }"), 6);
    }

    #[test]
    fn stats_count_memory_traffic() {
        let r = run("int g; int main() { g = 1; return g; }");
        assert_eq!(r.stats.stores, 1);
        assert_eq!(r.stats.loads, 1);
        assert_eq!(r.stats.calls, 1); // main itself
    }

    /// An address-taken parameter gets a stack slot at entry; that spill is
    /// ABI traffic and stays out of the counts. No suite or corpus program
    /// takes a parameter's address, so the golden table does not cover it.
    #[test]
    fn address_taken_param_spill_is_not_counted() {
        let r = run("int f(int x) { int *p; p = &x; *p = *p + 1; return x; } \
                     int main() { return f(41); }");
        assert_eq!(r.ret, 42);
        assert_eq!(r.stats, InterpStats { steps: 16, loads: 2, stores: 1, calls: 2 });
    }

    #[test]
    fn stack_reuse_across_calls_is_clean() {
        // f leaves garbage on the stack; g's fresh array must read as zeros.
        assert_eq!(
            ret("void f() { int a[4]; a[0] = 99; a[1] = 98; a[2] = 97; a[3] = 96; } \
                 int g() { int b[4]; return b[0] + b[1] + b[2] + b[3]; } \
                 int main() { f(); return g(); }"),
            0
        );
    }
}
