//! RTL opcode classification for costing.
//!
//! [`op_class`] is the *only* place an RTL `Op` is classified for costing:
//! the list scheduler prices an instruction at
//! `class_latency(op_class(&insn.op))` on the active
//! [`hli_lir::MachineBackend`]. The machine models classify dynamic events
//! with [`hli_lir::DynKind::class`], and the latency-agreement test in
//! `hli-machine` pins that the two classifications land every op in the
//! same priced class.

use crate::rtl::{FBinOp, IBinOp, Op};
use hli_lir::OpClass;

/// The opcode class a machine backend prices `op` at.
pub fn op_class(op: &Op) -> OpClass {
    match op {
        Op::Load(..) => OpClass::Load,
        Op::Store(..) => OpClass::Store,
        Op::IBin(IBinOp::Mul, ..) | Op::IBinI(IBinOp::Mul, ..) => OpClass::IMul,
        Op::IBin(IBinOp::Div | IBinOp::Rem, ..) | Op::IBinI(IBinOp::Div | IBinOp::Rem, ..) => {
            OpClass::IDiv
        }
        Op::FBin(FBinOp::Add | FBinOp::Sub, ..) => OpClass::FAdd,
        Op::FBin(FBinOp::Mul, ..) => OpClass::FMul,
        Op::FBin(FBinOp::Div, ..) => OpClass::FDiv,
        // FP compares and int<->double conversions share the FP adder,
        // matching the executor's DynKind mapping.
        Op::FCmp(..) | Op::CvtIF(..) | Op::CvtFI(..) => OpClass::FAdd,
        Op::Call { .. } => OpClass::Call,
        Op::Ret(..) => OpClass::Ret,
        Op::Jump(..) | Op::Branch(..) => OpClass::Branch,
        _ => OpClass::IAlu,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_the_op_vocabulary() {
        use crate::rtl::MemRef;
        assert_eq!(op_class(&Op::Load(0, MemRef::sym(0))), OpClass::Load);
        assert_eq!(op_class(&Op::Store(MemRef::sym(0), 0)), OpClass::Store);
        assert_eq!(op_class(&Op::IBin(crate::rtl::IBinOp::Mul, 0, 1, 2)), OpClass::IMul);
        assert_eq!(op_class(&Op::IBinI(crate::rtl::IBinOp::Rem, 0, 1, 3)), OpClass::IDiv);
        assert_eq!(op_class(&Op::FBin(crate::rtl::FBinOp::Sub, 0, 1, 2)), OpClass::FAdd);
        assert_eq!(op_class(&Op::FBin(crate::rtl::FBinOp::Div, 0, 1, 2)), OpClass::FDiv);
        assert_eq!(op_class(&Op::LiI(0, 7)), OpClass::IAlu);
        assert_eq!(op_class(&Op::Ret(None)), OpClass::Ret);
        assert_eq!(op_class(&Op::Jump(3)), OpClass::Branch);
    }
}
