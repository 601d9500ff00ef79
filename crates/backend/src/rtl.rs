//! The RTL-like low-level IR.
//!
//! Modeled on the subset of GCC RTL the paper's mechanisms touch: a linear
//! instruction chain per function, virtual registers (the experiments
//! isolate scheduling effects, so register pressure is out of scope —
//! documented in DESIGN.md), and *at most one memory reference per
//! instruction* so a reference is addressed by its instruction id (the
//! paper's `(IRInsn, RefSpec)` 2-tuple with a trivial RefSpec).
//!
//! Every instruction carries the source line it was generated from; the
//! line is the join key of the whole HLI mapping.

use hli_lang::sema::SymId;
use std::collections::HashMap;
use std::fmt;

/// A virtual register.
pub type Reg = u32;
/// A branch-target label.
pub type Label = u32;
/// Instruction identity within a function (stable across scheduling).
pub type InsnId = u32;

/// Integer ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    And,
    Or,
    Xor,
}

/// Floating-point ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Comparison predicates (signed for ints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// What a memory address is relative to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BaseAddr {
    /// A global object.
    Sym(SymId),
    /// A frame-local object at a fixed frame offset (arrays, address-taken
    /// scalars). The offset identifies the object within the frame.
    Stack(i64),
    /// A computed address held in a register (pointer accesses).
    Reg(Reg),
    /// Outgoing-argument slot `i` of a call about to be made.
    OutArg(u32),
    /// Incoming stack-parameter slot `i` of the current function.
    InArg(u32),
}

/// One memory reference: `base + index·scale + offset` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    pub base: BaseAddr,
    pub index: Option<Reg>,
    pub scale: i64,
    pub offset: i64,
}

impl MemRef {
    pub fn sym(s: SymId) -> Self {
        MemRef { base: BaseAddr::Sym(s), index: None, scale: 8, offset: 0 }
    }

    pub fn stack(off: i64) -> Self {
        MemRef { base: BaseAddr::Stack(off), index: None, scale: 8, offset: 0 }
    }

    pub fn reg(r: Reg) -> Self {
        MemRef { base: BaseAddr::Reg(r), index: None, scale: 8, offset: 0 }
    }
}

/// Instruction operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Load immediate integer.
    LiI(Reg, i64),
    /// Load immediate float.
    LiF(Reg, f64),
    Move(Reg, Reg),
    /// `dst = a op b` (integer).
    IBin(IBinOp, Reg, Reg, Reg),
    /// `dst = a op imm` (integer).
    IBinI(IBinOp, Reg, Reg, i64),
    /// `dst = a op b` (double).
    FBin(FBinOp, Reg, Reg, Reg),
    /// `dst = (a cmp b) ? 1 : 0` (integer operands).
    ICmp(CmpOp, Reg, Reg, Reg),
    /// `dst = (a cmp b) ? 1 : 0` (double operands).
    FCmp(CmpOp, Reg, Reg, Reg),
    /// int → double.
    CvtIF(Reg, Reg),
    /// double → int (truncating).
    CvtFI(Reg, Reg),
    /// `dst = address-of(base) + offset`.
    La(Reg, BaseAddr, i64),
    /// `dst = mem[ref]` — the instruction's single memory reference.
    Load(Reg, MemRef),
    /// `mem[ref] = src`.
    Store(MemRef, Reg),
    /// Direct call; `args` are the register-passed arguments in order
    /// (stack-passed args were stored to `OutArg` slots beforehand).
    Call {
        dst: Option<Reg>,
        func: String,
        args: Vec<Reg>,
    },
    Label(Label),
    Jump(Label),
    /// Fused compare-and-branch on integer registers.
    Branch(CmpOp, Reg, Reg, Label),
    Ret(Option<Reg>),
}

impl Op {
    /// The single memory reference, if this instruction has one.
    pub fn mem_ref(&self) -> Option<&MemRef> {
        match self {
            Op::Load(_, m) | Op::Store(m, _) => Some(m),
            _ => None,
        }
    }

    pub fn is_load(&self) -> bool {
        matches!(self, Op::Load(..))
    }

    pub fn is_store(&self) -> bool {
        matches!(self, Op::Store(..))
    }

    pub fn is_call(&self) -> bool {
        matches!(self, Op::Call { .. })
    }

    /// Control-transfer instructions end basic blocks and are never
    /// reordered.
    pub fn is_control(&self) -> bool {
        matches!(self, Op::Jump(_) | Op::Branch(..) | Op::Ret(_) | Op::Label(_))
    }

    /// Registers read by this instruction.
    pub fn uses(&self) -> Vec<Reg> {
        match self {
            Op::LiI(..) | Op::LiF(..) | Op::Label(_) | Op::Jump(_) => vec![],
            Op::Move(_, s) | Op::CvtIF(_, s) | Op::CvtFI(_, s) => vec![*s],
            Op::IBin(_, _, a, b)
            | Op::FBin(_, _, a, b)
            | Op::ICmp(_, _, a, b)
            | Op::FCmp(_, _, a, b) => vec![*a, *b],
            Op::IBinI(_, _, a, _) => vec![*a],
            Op::La(..) => vec![],
            Op::Load(_, m) => m.index.iter().copied().chain(base_reg(m)).collect(),
            Op::Store(m, s) => {
                let mut v: Vec<Reg> = m.index.iter().copied().chain(base_reg(m)).collect();
                v.push(*s);
                v
            }
            Op::Call { args, .. } => args.clone(),
            Op::Branch(_, a, b, _) => vec![*a, *b],
            Op::Ret(r) => r.iter().copied().collect(),
        }
    }

    /// Register written by this instruction.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Op::LiI(d, _)
            | Op::LiF(d, _)
            | Op::Move(d, _)
            | Op::IBin(_, d, _, _)
            | Op::IBinI(_, d, _, _)
            | Op::FBin(_, d, _, _)
            | Op::ICmp(_, d, _, _)
            | Op::FCmp(_, d, _, _)
            | Op::CvtIF(d, _)
            | Op::CvtFI(d, _)
            | Op::La(d, _, _)
            | Op::Load(d, _) => Some(*d),
            Op::Call { dst, .. } => *dst,
            _ => None,
        }
    }
}

fn base_reg(m: &MemRef) -> Option<Reg> {
    match m.base {
        BaseAddr::Reg(r) => Some(r),
        _ => None,
    }
}

/// One instruction with identity and source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Insn {
    pub id: InsnId,
    pub line: u32,
    pub op: Op,
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct RtlFunc {
    pub name: String,
    /// Registers holding the register-passed parameters, in order. Stack
    /// parameters (index ≥ NUM_ARG_REGS) have no entry.
    pub param_regs: Vec<Reg>,
    /// Total parameter count (including stack-passed).
    pub num_params: usize,
    pub insns: Vec<Insn>,
    /// Bytes of frame-local storage (arrays, spilled scalars).
    pub frame_size: i64,
    /// Number of outgoing-argument slots this function needs.
    pub out_args: u32,
    pub num_regs: u32,
    /// Whether the function returns a value.
    pub has_ret_value: bool,
}

impl RtlFunc {
    /// Index of each label instruction.
    pub fn label_index(&self) -> HashMap<Label, usize> {
        self.insns
            .iter()
            .enumerate()
            .filter_map(|(i, insn)| match insn.op {
                Op::Label(l) => Some((l, i)),
                _ => None,
            })
            .collect()
    }
}

/// A lowered program: functions plus the global data layout (shared with
/// the machine models and consistent with the AST interpreter).
#[derive(Debug, Clone, PartialEq)]
pub struct RtlProgram {
    pub funcs: Vec<RtlFunc>,
    /// Global symbol → byte address.
    pub global_addr: HashMap<SymId, i64>,
    /// (address, initial bits) pairs for initialized globals.
    pub global_init: Vec<(i64, u64)>,
    /// One past the last global byte.
    pub globals_end: i64,
}

impl RtlProgram {
    pub fn func(&self, name: &str) -> Option<&RtlFunc> {
        self.funcs.iter().find(|f| f.name == name)
    }

    pub fn func_mut(&mut self, name: &str) -> Option<&mut RtlFunc> {
        self.funcs.iter_mut().find(|f| f.name == name)
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:>4} @{:<4} {:?}", self.id, self.line, self.op)
    }
}

/// Render a function's instruction chain (debugging aid).
pub fn dump_func(f: &RtlFunc) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "func {} (frame {} bytes, {} regs):",
        f.name, f.frame_size, f.num_regs
    );
    for insn in &f.insns {
        let _ = writeln!(out, "  {insn}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_and_defs() {
        let m = MemRef { base: BaseAddr::Reg(5), index: Some(6), scale: 8, offset: 16 };
        let ld = Op::Load(7, m);
        assert_eq!(ld.def(), Some(7));
        let mut u = ld.uses();
        u.sort();
        assert_eq!(u, vec![5, 6]);
        let st = Op::Store(m, 9);
        assert_eq!(st.def(), None);
        let mut u = st.uses();
        u.sort();
        assert_eq!(u, vec![5, 6, 9]);
    }

    #[test]
    fn call_defs_and_uses() {
        let c = Op::Call { dst: Some(3), func: "f".into(), args: vec![1, 2] };
        assert_eq!(c.def(), Some(3));
        assert_eq!(c.uses(), vec![1, 2]);
        assert!(c.is_call());
        assert!(!c.is_control());
    }

    #[test]
    fn control_classification() {
        assert!(Op::Jump(0).is_control());
        assert!(Op::Branch(CmpOp::Lt, 1, 2, 0).is_control());
        assert!(Op::Ret(None).is_control());
        assert!(Op::Label(0).is_control());
        assert!(!Op::LiI(0, 1).is_control());
    }

    #[test]
    fn mem_ref_extraction() {
        assert!(Op::LiI(0, 1).mem_ref().is_none());
        let m = MemRef::sym(0);
        assert_eq!(Op::Load(1, m).mem_ref(), Some(&m));
    }
}
