//! The RTL executor: functional semantics plus a dynamic-trace stream.
//!
//! Semantics mirror `hli-lang`'s AST interpreter exactly (same global
//! layout, same 8-byte words, zeroed frames, truncating float→int): a
//! program's `(return value, global checksum)` must be identical through
//! either path, under any optimization combination — that is the
//! miscompilation oracle of the whole reproduction.

use hli_backend::rtl::*;
use hli_lang::interp::{GLOBAL_BASE, MEM_LIMIT, STACK_BASE};
use std::collections::HashMap;
use std::fmt;

/// Execution failure (faults map to the same conditions the AST
/// interpreter reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    pub msg: String,
    pub func: String,
    pub line: u32,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "machine fault in `{}` at line {}: {}",
            self.func, self.line, self.msg
        )
    }
}

impl std::error::Error for ExecError {}

/// Observable outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    pub ret: i64,
    /// FNV-1a over the globals segment (same function as the interpreter).
    pub global_checksum: u64,
    pub dyn_insns: u64,
    pub loads: u64,
    pub stores: u64,
    pub calls: u64,
}

// The dynamic-trace vocabulary (`DynKind`, `DynInsn`) is `hli-lir`'s: the
// executor emits it, every `MachineBackend` prices it, and re-exporting
// here keeps `hli_machine::exec::DynInsn` paths working.
pub use hli_lir::{DynInsn, DynKind};

/// Dynamic instructions a run may execute before it is stopped as
/// runaway.
const MAX_STEPS: u64 = 200_000_000;

/// Run functionally, discarding the trace.
pub fn execute(prog: &RtlProgram) -> Result<RunResult, ExecError> {
    let _s = hli_obs::span("machine.execute");
    run_traced(prog, &mut ())
}

/// Run and capture the whole dynamic trace plus, parallel to it, the
/// index into `prog.funcs` of the function each event executed in. This
/// is the join key for decision-to-cycles attribution: the cycle models
/// charge every event (or stall) to its function, and `obsreport` matches
/// those totals against the `DecisionRecord.function` of the decisions
/// made there. A `Call` event belongs to the caller (it issues in the
/// caller's frame); a `Ret` belongs to the returning callee.
///
/// The trace grows with the run; timing a build goes through
/// [`crate::time_on`], which streams it instead.
pub fn execute_with_func_trace(
    prog: &RtlProgram,
) -> Result<(RunResult, Vec<DynInsn>, Vec<u32>), ExecError> {
    let _s = hli_obs::span("machine.execute");
    let mut sink = FuncTrace::default();
    let res = run_traced(prog, &mut sink)?;
    Ok((res, sink.events, sink.funcs))
}

/// Run, handing every dynamic instruction to `sink` as it executes. No
/// span: the caller decides what the run's time is charged to.
pub(crate) fn run_traced(
    prog: &RtlProgram,
    sink: &mut impl TraceSink,
) -> Result<RunResult, ExecError> {
    Machine::new(prog, MAX_STEPS).run(sink)
}

/// Trace consumers.
pub trait TraceSink {
    fn event(&mut self, ev: DynInsn);
    /// Control transferred into `prog.funcs[func_idx]`: program start,
    /// a call entering its callee, or a return landing back in the
    /// caller. Sinks that don't attribute events per function ignore it.
    fn enter(&mut self, _func_idx: u32) {}
}

impl TraceSink for () {
    fn event(&mut self, _ev: DynInsn) {}
}

/// Sink recording each event together with its executing function index.
#[derive(Default)]
struct FuncTrace {
    events: Vec<DynInsn>,
    funcs: Vec<u32>,
    cur: u32,
}

impl TraceSink for FuncTrace {
    fn event(&mut self, ev: DynInsn) {
        self.events.push(ev);
        self.funcs.push(self.cur);
    }

    fn enter(&mut self, func_idx: u32) {
        self.cur = func_idx;
    }
}

struct Frame<'p> {
    func: &'p RtlFunc,
    /// Index of `func` in `prog.funcs`.
    func_idx: usize,
    regs: Vec<u64>,
    /// Per register, one more than the sequence number of the event that
    /// last wrote it in this frame (0: no event has).
    writers: Vec<u64>,
    base: i64,
    /// Byte address of the outgoing-args area.
    out_base: i64,
    /// Program counter (index into `func.insns`).
    pc: usize,
    /// Register receiving the return value in the *caller*.
    ret_to: Option<Reg>,
}

struct Machine<'p> {
    prog: &'p RtlProgram,
    mem: Vec<u64>,
    sp: i64,
    frames: Vec<Frame<'p>>,
    /// Events emitted so far: the sequence number of the next one.
    events: u64,
    steps: u64,
    max_steps: u64,
    loads: u64,
    stores: u64,
    calls: u64,
    /// Per function, the pc of each label (`NO_LABEL` where none is).
    labels: Vec<Vec<u32>>,
    func_index: HashMap<&'p str, usize>,
}

/// A label no instruction of its function defines.
const NO_LABEL: u32 = u32::MAX;

/// Function `f`'s label → pc table. Labels count up from 0 in each
/// function, so the table is dense; the first definition of a label wins.
fn label_table(f: &RtlFunc) -> Vec<u32> {
    let mut pcs = Vec::new();
    for (pc, insn) in f.insns.iter().enumerate() {
        if let Op::Label(l) = insn.op {
            let l = l as usize;
            if l >= pcs.len() {
                pcs.resize(l + 1, NO_LABEL);
            }
            if pcs[l] == NO_LABEL {
                pcs[l] = pc as u32;
            }
        }
    }
    pcs
}

/// The source registers an address reads: its base register, then its
/// index register.
fn addr_regs(m: &MemRef) -> ([Reg; 2], usize) {
    let mut regs = [0; 2];
    let mut n = 0;
    if let BaseAddr::Reg(r) = m.base {
        regs[n] = r;
        n += 1;
    }
    if let Some(r) = m.index {
        regs[n] = r;
        n += 1;
    }
    (regs, n)
}

impl<'p> Machine<'p> {
    fn new(prog: &'p RtlProgram, max_steps: u64) -> Self {
        let func_index = prog.funcs.iter().enumerate().map(|(i, f)| (f.name.as_str(), i)).collect();
        Machine {
            prog,
            mem: vec![0; (STACK_BASE / 8) as usize],
            sp: STACK_BASE,
            frames: Vec::new(),
            events: 0,
            steps: 0,
            max_steps,
            loads: 0,
            stores: 0,
            calls: 0,
            labels: prog.funcs.iter().map(label_table).collect(),
            func_index,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ExecError {
        let (func, line) = self
            .frames
            .last()
            .map(|f| {
                let line =
                    f.func.insns.get(f.pc.min(f.func.insns.len() - 1)).map(|i| i.line).unwrap_or(0);
                (f.func.name.clone(), line)
            })
            .unwrap_or_default();
        ExecError { msg: msg.into(), func, line }
    }

    fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for a in (GLOBAL_BASE..self.prog.globals_end).step_by(8) {
            let w = self.mem.get((a / 8) as usize).copied().unwrap_or(0);
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    fn mem_read(&mut self, addr: i64) -> Result<u64, ExecError> {
        if !(GLOBAL_BASE..MEM_LIMIT).contains(&addr) || addr % 8 != 0 {
            return Err(self.err(format!("bad load address {addr:#x}")));
        }
        let idx = (addr / 8) as usize;
        if idx >= self.mem.len() {
            self.mem.resize(idx + 1, 0);
        }
        self.loads += 1;
        Ok(self.mem[idx])
    }

    fn mem_write(&mut self, addr: i64, bits: u64) -> Result<(), ExecError> {
        if !(GLOBAL_BASE..MEM_LIMIT).contains(&addr) || addr % 8 != 0 {
            return Err(self.err(format!("bad store address {addr:#x}")));
        }
        let idx = (addr / 8) as usize;
        if idx >= self.mem.len() {
            self.mem.resize(idx + 1, 0);
        }
        self.stores += 1;
        self.mem[idx] = bits;
        Ok(())
    }

    fn push_frame(&mut self, func_idx: usize, ret_to: Option<Reg>) -> Result<(), ExecError> {
        let func: &'p RtlFunc = &self.prog.funcs[func_idx];
        if self.frames.len() > 128 {
            return Err(self.err("call stack overflow"));
        }
        self.calls += 1;
        let base = self.sp;
        let out_base = base + func.frame_size;
        let total = func.frame_size + func.out_args as i64 * 8;
        self.sp += total;
        if self.sp >= MEM_LIMIT {
            return Err(self.err("stack segment exhausted"));
        }
        // Zero the frame (locals read as 0, matching the interpreter).
        for a in (base..base + total).step_by(8) {
            let idx = (a / 8) as usize;
            if idx >= self.mem.len() {
                self.mem.resize(idx + 1, 0);
            }
            self.mem[idx] = 0;
        }
        self.frames.push(Frame {
            func,
            func_idx,
            regs: vec![0; func.num_regs as usize],
            writers: vec![0; func.num_regs as usize],
            base,
            out_base,
            pc: 0,
            ret_to,
        });
        Ok(())
    }

    fn frame(&self) -> &Frame<'p> {
        self.frames.last().expect("active frame")
    }

    fn frame_mut(&mut self) -> &mut Frame<'p> {
        self.frames.last_mut().expect("active frame")
    }

    fn reg(&self, r: Reg) -> u64 {
        self.frame().regs[r as usize]
    }

    fn set_reg(&mut self, r: Reg, v: u64) {
        self.frame_mut().regs[r as usize] = v;
    }

    /// Resolve a memory reference to a byte address.
    fn addr_of(&self, m: &MemRef) -> Result<i64, ExecError> {
        let f = self.frame();
        let base = match m.base {
            BaseAddr::Sym(s) => *self
                .prog
                .global_addr
                .get(&s)
                .ok_or_else(|| self.err(format!("unknown global {s}")))?,
            BaseAddr::Stack(off) => f.base + off,
            BaseAddr::Reg(r) => f.regs[r as usize] as i64,
            BaseAddr::OutArg(i) => {
                f.out_base + (i as i64 - hli_lang::memwalk::NUM_ARG_REGS as i64) * 8
            }
            BaseAddr::InArg(i) => {
                if self.frames.len() < 2 {
                    // `main` taking stack parameters has no caller frame.
                    return Err(self.err(format!("stack parameter {i} read with no caller frame")));
                }
                let caller = &self.frames[self.frames.len() - 2];
                caller.out_base + (i as i64 - hli_lang::memwalk::NUM_ARG_REGS as i64) * 8
            }
        };
        let idx = m.index.map(|r| f.regs[r as usize] as i64).unwrap_or(0);
        Ok(base + idx * m.scale + m.offset)
    }

    fn base_addr_value(&self, b: BaseAddr, off: i64) -> Result<i64, ExecError> {
        let f = self.frame();
        Ok(match b {
            BaseAddr::Sym(s) => {
                *self
                    .prog
                    .global_addr
                    .get(&s)
                    .ok_or_else(|| self.err(format!("unknown global {s}")))?
                    + off
            }
            BaseAddr::Stack(slot) => f.base + slot + off,
            _ => return Err(self.err("address of non-object base")),
        })
    }

    fn run(mut self, sink: &mut impl TraceSink) -> Result<RunResult, ExecError> {
        let main_idx = *self.func_index.get("main").ok_or_else(|| ExecError {
            msg: "no `main`".into(),
            func: String::new(),
            line: 0,
        })?;
        self.push_frame(main_idx, None)?;
        sink.enter(main_idx as u32);
        self.calls -= 1; // main's activation is setup, not program behaviour
                         // Initialize globals.
        for &(addr, bits) in &self.prog.global_init {
            self.mem_write(addr, bits)?;
            self.stores -= 1;
        }
        let ret_val: i64;
        'outer: loop {
            self.steps += 1;
            if self.steps > self.max_steps {
                return Err(self.err("instruction budget exceeded"));
            }
            // Borrow the instruction through the function (`'p`), not the
            // frame, so the frame can change while `insn` is live.
            let (func, pc): (&'p RtlFunc, usize) = (self.frame().func, self.frame().pc);
            let Some(insn) = func.insns.get(pc) else {
                return Err(self.err("fell off the end of the instruction chain"));
            };
            let mut next_pc = pc + 1;
            match insn.op {
                Op::LiI(d, v) => {
                    self.set_reg(d, v as u64);
                    self.emit1(sink, DynKind::Simple, Some(d), &[], 0);
                }
                Op::LiF(d, v) => {
                    self.set_reg(d, v.to_bits());
                    self.emit1(sink, DynKind::Simple, Some(d), &[], 0);
                }
                Op::Move(d, s) => {
                    let v = self.reg(s);
                    self.set_reg(d, v);
                    self.emit1(sink, DynKind::Simple, Some(d), &[s], 0);
                }
                Op::IBin(op2, d, a, b) => {
                    let (x, y) = (self.reg(a) as i64, self.reg(b) as i64);
                    let v = self.ibin(op2, x, y)?;
                    self.set_reg(d, v as u64);
                    self.emit1(sink, ikind(op2), Some(d), &[a, b], 0);
                }
                Op::IBinI(op2, d, a, imm) => {
                    let x = self.reg(a) as i64;
                    let v = self.ibin(op2, x, imm)?;
                    self.set_reg(d, v as u64);
                    self.emit1(sink, ikind(op2), Some(d), &[a], 0);
                }
                Op::FBin(op2, d, a, b) => {
                    let (x, y) = (f64::from_bits(self.reg(a)), f64::from_bits(self.reg(b)));
                    let v = match op2 {
                        FBinOp::Add => x + y,
                        FBinOp::Sub => x - y,
                        FBinOp::Mul => x * y,
                        FBinOp::Div => x / y,
                    };
                    self.set_reg(d, v.to_bits());
                    self.emit1(sink, fkind(op2), Some(d), &[a, b], 0);
                }
                Op::ICmp(c, d, a, b) => {
                    let (x, y) = (self.reg(a) as i64, self.reg(b) as i64);
                    self.set_reg(d, icmp(c, x, y) as u64);
                    self.emit1(sink, DynKind::IAlu, Some(d), &[a, b], 0);
                }
                Op::FCmp(c, d, a, b) => {
                    let (x, y) = (f64::from_bits(self.reg(a)), f64::from_bits(self.reg(b)));
                    let r = match c {
                        CmpOp::Eq => x == y,
                        CmpOp::Ne => x != y,
                        CmpOp::Lt => x < y,
                        CmpOp::Le => x <= y,
                        CmpOp::Gt => x > y,
                        CmpOp::Ge => x >= y,
                    };
                    self.set_reg(d, r as u64);
                    self.emit1(sink, DynKind::FAdd, Some(d), &[a, b], 0);
                }
                Op::CvtIF(d, s) => {
                    let v = (self.reg(s) as i64) as f64;
                    self.set_reg(d, v.to_bits());
                    self.emit1(sink, DynKind::FAdd, Some(d), &[s], 0);
                }
                Op::CvtFI(d, s) => {
                    let v = f64::from_bits(self.reg(s)) as i64;
                    self.set_reg(d, v as u64);
                    self.emit1(sink, DynKind::FAdd, Some(d), &[s], 0);
                }
                Op::La(d, b, off) => {
                    let v = self.base_addr_value(b, off)?;
                    self.set_reg(d, v as u64);
                    self.emit1(sink, DynKind::Simple, Some(d), &[], 0);
                }
                Op::Load(d, m) => {
                    let addr = self.addr_of(&m)?;
                    let bits = self.mem_read(addr)?;
                    self.set_reg(d, bits);
                    let (regs, n) = addr_regs(&m);
                    self.emit1(sink, DynKind::Load, Some(d), &regs[..n], addr);
                }
                Op::Store(m, s) => {
                    let addr = self.addr_of(&m)?;
                    let bits = self.reg(s);
                    self.mem_write(addr, bits)?;
                    let (regs, n) = addr_regs(&m);
                    let srcs = [s, regs[0], regs[1]];
                    self.emit1(sink, DynKind::Store, None, &srcs[..1 + n], addr);
                }
                Op::Call { dst, ref func, ref args } => {
                    let &fi = self
                        .func_index
                        .get(func.as_str())
                        .ok_or_else(|| self.err(format!("call to unknown `{func}`")))?;
                    self.emit1(sink, DynKind::Call, None, args, 0);
                    self.frame_mut().pc = next_pc;
                    self.push_frame(fi, dst)?;
                    sink.enter(fi as u32);
                    // Arguments move from the caller's registers (now the
                    // frame below the top) into the callee's parameters.
                    let (caller, callee) = match self.frames.as_mut_slice() {
                        [.., caller, callee] => (caller, callee),
                        _ => unreachable!("a call has a caller frame"),
                    };
                    for (&a, &pr) in args.iter().zip(&callee.func.param_regs) {
                        callee.regs[pr as usize] = caller.regs[a as usize];
                    }
                    continue 'outer;
                }
                Op::Label(_) => {}
                Op::Jump(l) => {
                    next_pc = self.label_target(l)?;
                    self.emit1(sink, DynKind::Branch { taken: true }, None, &[], 0);
                }
                Op::Branch(c, a, b, l) => {
                    let (x, y) = (self.reg(a) as i64, self.reg(b) as i64);
                    let taken = icmp(c, x, y) != 0;
                    if taken {
                        next_pc = self.label_target(l)?;
                    }
                    self.emit1(sink, DynKind::Branch { taken }, None, &[a, b], 0);
                }
                Op::Ret(v) => {
                    let bits = v.map(|r| self.reg(r)).unwrap_or(0);
                    self.emit1(sink, DynKind::Ret, None, &[], 0);
                    let frame = self.frames.pop().expect("frame");
                    self.sp = frame.base;
                    match self.frames.last_mut() {
                        None => {
                            ret_val = bits as i64;
                            break 'outer;
                        }
                        Some(caller) => {
                            if let Some(d) = frame.ret_to {
                                caller.regs[d as usize] = bits;
                            }
                            sink.enter(caller.func_idx as u32);
                        }
                    }
                    continue 'outer;
                }
            }
            self.frame_mut().pc = next_pc;
        }
        let reg = hli_obs::metrics::cur();
        reg.counter("machine.exec.dyn_insns").add(self.steps);
        reg.counter("machine.exec.loads").add(self.loads);
        reg.counter("machine.exec.stores").add(self.stores);
        reg.counter("machine.exec.calls").add(self.calls);
        Ok(RunResult {
            ret: ret_val,
            global_checksum: self.checksum(),
            dyn_insns: self.steps,
            loads: self.loads,
            stores: self.stores,
            calls: self.calls,
        })
    }

    fn label_target(&self, l: Label) -> Result<usize, ExecError> {
        match self.labels[self.frame().func_idx].get(l as usize) {
            Some(&pc) if pc != NO_LABEL => Ok(pc as usize),
            _ => Err(self.err(format!("missing label {l}"))),
        }
    }

    fn ibin(&self, op: IBinOp, x: i64, y: i64) -> Result<i64, ExecError> {
        Ok(match op {
            IBinOp::Add => x.wrapping_add(y),
            IBinOp::Sub => x.wrapping_sub(y),
            IBinOp::Mul => x.wrapping_mul(y),
            IBinOp::Div => {
                if y == 0 {
                    return Err(self.err("integer division by zero"));
                }
                x.wrapping_div(y)
            }
            IBinOp::Rem => {
                if y == 0 {
                    return Err(self.err("integer remainder by zero"));
                }
                x.wrapping_rem(y)
            }
            IBinOp::Shl => x.wrapping_shl(y as u32),
            IBinOp::Shr => x.wrapping_shr(y as u32),
            IBinOp::And => x & y,
            IBinOp::Or => x | y,
            IBinOp::Xor => x ^ y,
        })
    }

    /// Hand `sink` the event of the instruction just executed: its
    /// first three sources name their producers, and it becomes the
    /// producer of `dst`.
    fn emit1(
        &mut self,
        sink: &mut impl TraceSink,
        kind: DynKind,
        dst: Option<Reg>,
        srcs: &[Reg],
        addr: i64,
    ) {
        // This event's sequence number plus one, the form `writers`
        // keeps, so a producer's distance back is the difference. (A run
        // stops at `MAX_STEPS`, far short of a distance `u32` cannot hold.)
        let events = self.events + 1;
        let writers = &mut self.frames.last_mut().expect("active frame").writers;
        let mut producers = [0; 3];
        for (p, &r) in producers.iter_mut().zip(srcs) {
            let w = writers[r as usize];
            if w != 0 {
                *p = u32::try_from(events - w).unwrap_or(u32::MAX);
            }
        }
        if let Some(d) = dst {
            writers[d as usize] = events;
        }
        self.events = events;
        sink.event(DynInsn { kind, srcs: producers, addr });
    }
}

fn icmp(c: CmpOp, x: i64, y: i64) -> i64 {
    (match c {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }) as i64
}

fn ikind(op: IBinOp) -> DynKind {
    match op {
        IBinOp::Mul => DynKind::IMul,
        IBinOp::Div | IBinOp::Rem => DynKind::IDiv,
        _ => DynKind::IAlu,
    }
}

fn fkind(op: FBinOp) -> DynKind {
    match op {
        FBinOp::Add | FBinOp::Sub => DynKind::FAdd,
        FBinOp::Mul => DynKind::FMul,
        FBinOp::Div => DynKind::FDiv,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_backend::lower::lower_program;
    use hli_lang::compile_to_ast;
    use hli_lang::interp::run_program;

    fn run_both(src: &str) -> (i64, i64, u64, u64) {
        let (p, s) = compile_to_ast(src).unwrap();
        let interp = run_program(&p, &s).unwrap();
        let rtl = lower_program(&p, &s);
        let mach = execute(&rtl).unwrap();
        (interp.ret, mach.ret, interp.global_checksum, mach.global_checksum)
    }

    fn assert_agree(src: &str) {
        let (ri, rm, ci, cm) = run_both(src);
        assert_eq!(ri, rm, "return values diverge");
        assert_eq!(ci, cm, "global checksums diverge");
    }

    #[test]
    fn arithmetic_agrees() {
        assert_agree("int main() { return 1 + 2 * 3 - 4 / 2 + (7 % 3) + (1 << 4) + (256 >> 2); }");
        assert_agree("int main() { return (5 & 3) | (8 ^ 2); }");
        assert_agree("int main() { return -(3 - 10) + !0 + !5 + ~7; }");
    }

    #[test]
    fn float_arithmetic_agrees() {
        assert_agree("double d;\nint main() { d = 1.5 * 4.0 - 0.5; return d * 2.0; }");
        assert_agree("int main() { double x; x = 10.0; return x / 4.0 * 2.0; }");
        assert_agree("int main() { int i; i = 7; double d; d = i; return d * 2.0; }");
    }

    #[test]
    fn comparisons_and_logicals_agree() {
        assert_agree(
            "int main() { return (1 < 2) + (2 <= 2) + (3 > 4) * 10 + (1 == 1) + (2 != 2); }",
        );
        assert_agree("int main() { return (1 && 2) + (0 || 3) * 10 + (0 && 1) * 100; }");
        assert_agree(
            "double a; double b;\nint main() { a = 1.5; b = 2.5; return (a < b) + (a >= b) * 10; }",
        );
    }

    #[test]
    fn short_circuit_side_effects_agree() {
        assert_agree(
            "int g = 0; int set() { g = g + 1; return 1; }\nint main() { int r; r = 0 && set(); r = r + (1 || set()); return g * 10 + r; }",
        );
    }

    #[test]
    fn loops_agree() {
        assert_agree(
            "int main() { int i; int s; s = 0; for (i = 1; i <= 100; i++) s += i; return s; }",
        );
        assert_agree(
            "int main() { int i; int s; i = 0; s = 0; while (i < 50) { s += 2; i++; } return s; }",
        );
        assert_agree("int main() { int i; int s; i = 0; s = 0; do { s += i; i++; } while (i < 10); return s; }");
        assert_agree("int main() { int i; int s; s = 0; for (i = 0; i < 20; i++) { if (i == 10) break; if (i % 2) continue; s += i; } return s; }");
    }

    #[test]
    fn arrays_and_globals_agree() {
        assert_agree(
            "int a[16]; int g = 3;\nint main() { int i; for (i = 0; i < 16; i++) a[i] = i * g; return a[7] + a[15]; }",
        );
        assert_agree(
            "double m[4][4];\nint main() { int i; int j; for (i=0;i<4;i++) for (j=0;j<4;j++) m[i][j] = i * 10.0 + j; return m[3][2]; }",
        );
    }

    #[test]
    fn local_arrays_agree() {
        assert_agree(
            "int main() { int a[8]; int i; for (i=0;i<8;i++) a[i] = i*i; return a[7] + a[0]; }",
        );
    }

    #[test]
    fn pointers_agree() {
        assert_agree("int main() { int x; int *p; x = 5; p = &x; *p = *p + 4; return x; }");
        assert_agree(
            "int a[8];\nint main() { int *p; int s; int i; p = a; s = 0; for (i = 0; i < 8; i++) { *p = i; p++; } for (i = 0; i < 8; i++) s += a[i]; return s; }",
        );
        assert_agree(
            "int a[4];\nint main() { int *p; int *q; p = &a[0]; q = &a[3]; return q - p; }",
        );
    }

    #[test]
    fn calls_agree() {
        assert_agree(
            "int add(int a, int b) { return a + b; }\nint main() { return add(3, add(4, 5)); }",
        );
        assert_agree("int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\nint main() { return fib(15); }");
        assert_agree(
            "double scale(double x, double f) { return x * f; }\nint main() { double d; d = scale(3.0, 2.5); return d; }",
        );
    }

    #[test]
    fn stack_args_agree() {
        assert_agree(
            "int f(int a, int b, int c, int d, int e, int g, int h) { return a + b*2 + c*3 + d*4 + e*5 + g*6 + h*7; }\nint main() { return f(1,2,3,4,5,6,7); }",
        );
    }

    #[test]
    fn address_taken_params_agree() {
        assert_agree(
            "void bump(int *p) { *p = *p + 1; }\nint f(int a) { bump(&a); bump(&a); return a; }\nint main() { return f(40); }",
        );
    }

    #[test]
    fn pointer_params_agree() {
        assert_agree(
            "double v[16];\nvoid fill(double *p, int n) { int i; for (i = 0; i < n; i++) p[i] = i * 0.5; }\ndouble total(double *p, int n) { int i; double s; s = 0.0; for (i = 0; i < n; i++) s = s + p[i]; return s; }\nint main() { fill(v, 16); return total(v, 16); }",
        );
    }

    #[test]
    fn division_by_zero_faults_like_interp() {
        let (p, s) = compile_to_ast("int main() { int z; z = 0; return 5 / z; }").unwrap();
        assert!(run_program(&p, &s).is_err());
        let rtl = lower_program(&p, &s);
        let e = execute(&rtl).unwrap_err();
        assert!(e.msg.contains("division by zero"));
    }

    #[test]
    fn null_deref_faults() {
        let (p, s) = compile_to_ast("int main() { int *p; return *p; }").unwrap();
        let rtl = lower_program(&p, &s);
        let e = execute(&rtl).unwrap_err();
        assert!(e.msg.contains("bad load address"));
    }

    #[test]
    fn trace_counts_memory_ops() {
        let (p, s) = compile_to_ast("int g;\nint main() { g = 1; g = g + 1; return g; }").unwrap();
        let rtl = lower_program(&p, &s);
        let (res, trace, _) = execute_with_func_trace(&rtl).unwrap();
        let loads = trace.iter().filter(|e| e.kind == DynKind::Load).count() as u64;
        let stores = trace.iter().filter(|e| e.kind == DynKind::Store).count() as u64;
        assert_eq!(loads, res.loads);
        assert_eq!(stores, res.stores);
        assert_eq!(res.stores, 2);
        assert_eq!(res.loads, 2);
    }

    #[test]
    fn trace_addresses_are_real() {
        let (p, s) = compile_to_ast("int a[4];\nint main() { a[2] = 7; return a[2]; }").unwrap();
        let rtl = lower_program(&p, &s);
        let (_, trace, _) = execute_with_func_trace(&rtl).unwrap();
        let st = trace.iter().find(|e| e.kind == DynKind::Store).unwrap();
        let ld = trace.iter().find(|e| e.kind == DynKind::Load).unwrap();
        assert_eq!(st.addr, ld.addr);
        assert_eq!(st.addr % 8, 0);
        assert!(st.addr >= GLOBAL_BASE);
    }

    #[test]
    fn scheduled_code_remains_correct() {
        use hli_backend::ddg::DepMode;
        use hli_backend::sched::schedule_program;
        use hli_frontend::generate_hli;
        let src = "double x[32]; double y[32]; int g = 3;\n\
            void axpy(double *p, double *q, int n) { int i; for (i = 0; i < n; i++) p[i] = p[i] * 2.0 + q[i]; }\n\
            int main() {\n int i;\n for (i = 0; i < 32; i++) { x[i] = i; y[i] = i * g; }\n axpy(x, y, 32);\n return x[31] + y[7];\n}";
        let (p, s) = compile_to_ast(src).unwrap();
        let interp = run_program(&p, &s).unwrap();
        let rtl = lower_program(&p, &s);
        let hli = generate_hli(&p, &s);
        for mode in [DepMode::GccOnly, DepMode::Combined] {
            let (scheduled, _) = schedule_program(&rtl, &hli, mode, &crate::R4600Config::DEFAULT);
            let res = execute(&scheduled).unwrap();
            assert_eq!(res.ret, interp.ret, "{mode:?} broke the program");
            assert_eq!(res.global_checksum, interp.global_checksum);
        }
    }

    #[test]
    fn unrolled_code_remains_correct() {
        use hli_backend::lower::lower_with_loops;
        use hli_backend::mapping::map_function;
        use hli_backend::unroll::unroll_function;
        use hli_frontend::generate_hli;
        let src = "int a[30];\nint main() {\n int i;\n for (i = 0; i < 30; i++)\n  a[i] = i * 3;\n return a[29] + a[1];\n}";
        let (p, s) = compile_to_ast(src).unwrap();
        let interp = run_program(&p, &s).unwrap();
        let (rtl, loops) = lower_with_loops(&p, &s);
        let hli = generate_hli(&p, &s);
        for factor in [2u32, 3, 4, 8] {
            let mut prog = rtl.clone();
            let f = prog.func("main").unwrap().clone();
            let mut entry = hli.entry("main").unwrap().clone();
            let mut map = map_function(&f, &entry);
            let r = unroll_function(
                &f,
                &loops["main"],
                factor,
                Some((&mut entry, &mut map)),
                &crate::R4600Config::DEFAULT,
            );
            assert_eq!(r.unrolled, 1, "factor {factor}");
            *prog.func_mut("main").unwrap() = r.func;
            let res = execute(&prog).unwrap();
            assert_eq!(res.ret, interp.ret, "unroll by {factor} broke the program");
            assert_eq!(res.global_checksum, interp.global_checksum);
        }
    }

    #[test]
    fn nested_calls_with_stack_args_agree() {
        // Three frames deep, six args each: OutArg/InArg areas must resolve
        // through the frame chain correctly.
        assert_agree(
            "int leaf(int a, int b, int c, int d, int e, int f) { return a + b*2 + c*3 + d*4 + e*5 + f*6; }\n\
             int mid(int a, int b, int c, int d, int e, int f) { return leaf(f, e, d, c, b, a) + a; }\n\
             int main() { return mid(1, 2, 3, 4, 5, 6); }",
        );
    }

    #[test]
    fn recursion_with_stack_args_agrees() {
        assert_agree(
            "int acc(int a, int b, int c, int d, int e, int n) {\n\
               if (n <= 0) { return a + b + c + d + e; }\n\
               return acc(a + 1, b, c, d, e + n, n - 1);\n\
             }\n\
             int main() { return acc(0, 1, 2, 3, 4, 10); }",
        );
    }

    #[test]
    fn address_of_array_elements_through_calls_agree() {
        assert_agree(
            "int grid[8][8];\n\
             void put(int *cell, int v) { *cell = v; }\n\
             int main() {\n\
               int i;\n\
               for (i = 0; i < 8; i++) put(&grid[i][7 - i], i * i);\n\
               return grid[3][4] + grid[5][2];\n\
             }",
        );
    }

    #[test]
    fn float_compare_chain_agrees() {
        assert_agree(
            "double v[8];\n\
             int main() {\n\
               int i; int n;\n\
               for (i = 0; i < 8; i++) v[i] = (i - 3) * 0.5;\n\
               n = 0;\n\
               for (i = 0; i < 8; i++) { if (v[i] < 0.0) n++; if (v[i] >= 1.5) n = n + 10; }\n\
               return n;\n\
             }",
        );
    }

    #[test]
    fn cse_and_licm_remain_correct() {
        use hli_backend::cse::cse_function;
        use hli_backend::ddg::DepMode;
        use hli_backend::licm::licm_function;
        use hli_backend::mapping::map_function;
        use hli_frontend::generate_hli;
        let src = "int g = 5; int other; int a[16];\n\
            void touch() { other = other + 1; }\n\
            int main() {\n int i; int s; s = 0;\n for (i = 0; i < 16; i++) { a[i] = g; touch(); s = s + g; }\n return s + a[3] + other;\n}";
        let (p, s) = compile_to_ast(src).unwrap();
        let interp = run_program(&p, &s).unwrap();
        let rtl = lower_program(&p, &s);
        let hli = generate_hli(&p, &s);
        let mut prog = rtl.clone();
        for fname in ["main", "touch"] {
            let f = prog.func(fname).unwrap().clone();
            let mut entry = hli.entry(fname).unwrap().clone();
            let mut map = map_function(&f, &entry);
            let cse = cse_function(
                &f,
                Some((&mut entry, &mut map)),
                DepMode::Combined,
                &crate::R4600Config::DEFAULT,
            );
            let licm = licm_function(
                &cse.func,
                Some((&mut entry, &mut map)),
                DepMode::Combined,
                &crate::R4600Config::DEFAULT,
            );
            *prog.func_mut(fname).unwrap() = licm.func;
        }
        let res = execute(&prog).unwrap();
        assert_eq!(res.ret, interp.ret);
        assert_eq!(res.global_checksum, interp.global_checksum);
    }
}
