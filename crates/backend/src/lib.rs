//! # hli-backend — the optimizing back-end substrate (the GCC side)
//!
//! The paper imports HLI into GCC 2.7's RTL world. GCC is not available as
//! a Rust library, so this crate implements the back-end the experiments
//! need, in GCC's image:
//!
//! * [`rtl`] — a low-level three-address IR with explicit memory references
//!   (RTL-like: every instruction has at most one memory reference, tagged
//!   with its source line);
//! * [`lower`] — AST → RTL code generation following the exact emission
//!   rules the front-end's ITEMGEN mirrors (pseudo-registers for local
//!   scalars, parameter/return-value ABI traffic, loop shapes);
//! * `cfg` — basic blocks over the instruction list;
//! * [`mapping`] — the Section 3.2.1 import: match line-table items to RTL
//!   memory references by (line, intra-line order), building the hash table
//!   both directions; unmatched references degrade to *unknown*;
//! * [`gccdep`] — the baseline dependence test in GCC 2.7's precision
//!   class (distinct named objects don't conflict, constant offsets
//!   disambiguate, anything through a pointer conflicts, calls clobber
//!   everything);
//! * [`disamb`] — the one memory disambiguator: GCC's rule, the HLI
//!   query, the Figure-5 combiner (`gcc_value * hli_value`) per
//!   [`DepMode`] and the Table-2 query counters, asked by the DDG, CSE and
//!   LICM alike;
//! * [`ddg`] — data dependence graph construction for the scheduler;
//! * [`lir`] — [`op_class`], the one classification of an RTL op into
//!   the [`hli_lir::OpClass`] the scheduler prices it at, through the
//!   active [`hli_lir::MachineBackend`];
//! * [`sched`] — a basic-block list scheduler (the paper's experiments
//!   schedule within basic blocks only); latencies and issue width come
//!   from the machine backend, never from a scheduler-private table;
//! * [`cse`] — local common-subexpression elimination with the Figure-4
//!   REF/MOD-selective purge on calls;
//! * [`licm`] — loop-invariant load hoisting with alias/REF/MOD legality
//!   and HLI maintenance;
//! * [`unroll`] — constant-trip loop unrolling with the Figure-6 HLI
//!   update (body copies, remainder loop, LCDD distance remap).

pub mod cfg;
pub mod cse;
pub mod ddg;
pub mod disamb;
pub mod driver;
pub mod gccdep;
pub mod licm;
pub mod lir;
pub mod lower;
pub mod mapping;
pub mod rtl;
pub mod sched;
pub mod unroll;

pub use disamb::{DepMode, QueryStats};
pub use driver::{schedule_program_passes, PassSpec};
pub use lir::op_class;
pub use lower::lower_program;
pub use mapping::HliMap;
pub use rtl::{Insn, MemRef, Op, RtlFunc, RtlProgram};
