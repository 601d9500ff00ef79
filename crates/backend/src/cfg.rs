//! Basic blocks over the RTL instruction chain.
//!
//! The paper's experiments schedule within basic blocks only (Section 4.3
//! attributes part of the limited integer speedups to exactly this), so
//! blocks are the unit every downstream pass works on. Calls do *not* end
//! blocks — moving memory references across calls (with REF/MOD evidence)
//! is one of the paper's headline uses.

use crate::rtl::{Op, RtlFunc};

/// A basic block: a contiguous index range of a function's instruction
/// vector, plus how it ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the last instruction.
    pub end: usize,
}

impl Block {
    pub fn range(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Partition a function into basic blocks. Labels start blocks; jumps,
/// branches and returns end them.
pub fn blocks(f: &RtlFunc) -> Vec<Block> {
    let mut out = Vec::new();
    let mut start = 0usize;
    for (i, insn) in f.insns.iter().enumerate() {
        match insn.op {
            Op::Label(_) => {
                if i > start {
                    out.push(Block { start, end: i });
                }
                start = i;
            }
            Op::Jump(_) | Op::Branch(..) | Op::Ret(_) => {
                out.push(Block { start, end: i + 1 });
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < f.insns.len() {
        out.push(Block { start, end: f.insns.len() });
    }
    out
}

/// The schedulable instructions of a block: everything except labels and
/// the terminating control transfer (which stays last).
pub fn schedulable(f: &RtlFunc, b: &Block) -> Vec<usize> {
    b.range().filter(|&i| !f.insns[i].op.is_control()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use hli_lang::compile_to_ast;

    fn func_blocks(src: &str) -> (RtlFunc, Vec<Block>) {
        let (p, s) = compile_to_ast(src).unwrap();
        let prog = lower_program(&p, &s);
        let f = prog.func("main").unwrap().clone();
        let bs = blocks(&f);
        (f, bs)
    }

    #[test]
    fn straightline_is_one_block_plus_epilogue() {
        // The lowerer appends a safety-net `li 0; ret` after the explicit
        // return, which forms its own (unreachable) block.
        let (f, bs) = func_blocks("int g;\nint main() { g = 1; g = g + 2; return g; }");
        assert_eq!(bs.len(), 2);
        assert_eq!(bs[0].start, 0);
        assert!(matches!(f.insns[bs[0].end - 1].op, Op::Ret(_)));
        assert_eq!(bs[1].end, f.insns.len());
    }

    #[test]
    fn blocks_cover_all_insns_without_overlap() {
        let (f, bs) = func_blocks(
            "int a[10];\nint main() {\n int i;\n for (i = 0; i < 10; i++) {\n  if (i > 5) a[i] = 1; else a[i] = 2;\n }\n return a[0];\n}",
        );
        let mut covered = vec![false; f.insns.len()];
        for b in &bs {
            for i in b.range() {
                assert!(!covered[i], "overlap at {i}");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "gap in coverage");
    }

    #[test]
    fn branches_end_blocks() {
        let (f, bs) = func_blocks("int g;\nint main() { if (g) g = 1; return g; }");
        for b in &bs {
            for i in b.start..b.end - 1 {
                assert!(
                    !matches!(f.insns[i].op, Op::Jump(_) | Op::Branch(..) | Op::Ret(_)),
                    "control op mid-block"
                );
            }
        }
        assert!(bs.len() >= 3);
    }

    #[test]
    fn calls_stay_inside_blocks() {
        let (f, bs) = func_blocks(
            "int g;\nint f2() { return g; }\nint main() { g = 1; g = f2() + g; return g; }",
        );
        // All of main's work is one block (no branches), despite the call.
        let with_call = bs.iter().find(|b| b.range().any(|i| f.insns[i].op.is_call())).unwrap();
        assert!(with_call.len() > 3, "call did not split the block");
        // Main body + unreachable epilogue only.
        assert_eq!(bs.len(), 2);
    }

    #[test]
    fn schedulable_excludes_control() {
        let (f, bs) = func_blocks("int g;\nint main() { if (g) g = 2; return g; }");
        for b in &bs {
            for i in schedulable(&f, b) {
                assert!(!f.insns[i].op.is_control());
            }
        }
    }
}
