//! # hli-frontend — HLI generation (the SUIF side of the paper)
//!
//! Section 3.1: *"The HLI generation in the front-end contains two major
//! phases — memory access item generation (ITEMGEN) and HLI table
//! construction (TBLCONST)."*
//!
//! * [`itemgen`] — enumerates memory-access and call items per function in
//!   the back-end's emission order (via the shared
//!   [`hli_lang::memwalk`] contract), assigns item IDs, and builds the
//!   line table.
//! * [`tblconst`] — two conceptual traversals: build the hierarchical
//!   region structure and group items into equivalent access classes, then
//!   propagate bottom-up computing LCDD arcs, alias sets and call REF/MOD
//!   entries per region, using the `hli-analysis` machinery (affine
//!   dependence tests, regular sections, points-to, interprocedural
//!   REF/MOD).
//!
//! The entry point is [`generate_hli`]; [`FrontendOptions`] exposes the
//! precision knobs the ablation benchmarks sweep (disable array dependence
//! testing or pointer analysis to see how much each contributes to the
//! Table 2 reductions).

pub mod itemgen;
pub mod tblconst;

use hli_core::HliFile;
use hli_lang::ast::Program;
use hli_lang::sema::Sema;

/// Precision knobs for HLI generation.
#[derive(Debug, Clone, Copy)]
pub struct FrontendOptions {
    /// Run the affine dependence-test ladder. When off, every same-array
    /// class pair is a maybe-dependence (ablation: "no array analysis").
    pub array_analysis: bool,
    /// Use Andersen points-to for pointer classes. When off, every pointer
    /// access is unbounded (ablation: "no pointer analysis").
    pub pointer_analysis: bool,
    /// Build call REF/MOD tables. When off, calls stay opaque.
    pub refmod_analysis: bool,
}

impl Default for FrontendOptions {
    fn default() -> Self {
        FrontendOptions {
            array_analysis: true,
            pointer_analysis: true,
            refmod_analysis: true,
        }
    }
}

/// Generate the HLI file for a program: one entry per function.
pub fn generate_hli(prog: &Program, sema: &Sema) -> HliFile {
    generate_hli_with(prog, sema, FrontendOptions::default())
}

/// [`generate_hli`] with explicit precision options.
pub fn generate_hli_with(prog: &Program, sema: &Sema, opts: FrontendOptions) -> HliFile {
    let _phase = hli_obs::span("frontend.generate");
    let pts = {
        let _s = hli_obs::span("frontend.pointsto");
        if opts.pointer_analysis {
            hli_analysis::pointsto::analyze(prog, sema)
        } else {
            hli_analysis::PointsTo::default()
        }
    };
    let refmod = {
        let _s = hli_obs::span("frontend.refmod");
        if opts.refmod_analysis {
            Some(hli_analysis::refmod::analyze(prog, sema, &pts))
        } else {
            None
        }
    };
    let mut file = HliFile::default();
    for f in &prog.funcs {
        let items = {
            let _s = hli_obs::span("frontend.itemgen");
            itemgen::run(f, sema)
        };
        let entry = {
            let _s = hli_obs::span("frontend.tblconst");
            tblconst::run(f, sema, items, &pts, refmod.as_ref(), opts)
        };
        file.entries.push(entry);
    }
    file
}
