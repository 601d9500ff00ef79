//! # hli-core — the High-Level Information format
//!
//! This crate is the paper's primary contribution rendered as a Rust
//! library: the **HLI file format** (Section 2) plus the APIs the paper's
//! Section 3 builds around it.
//!
//! An HLI file carries, for every program unit, the analysis results that
//! are *"important for back-end optimizations, but only available or
//! computable in the front-end"*:
//!
//! * a **line table** ([`tables::LineTable`]) connecting front-end *items*
//!   (memory accesses and calls, in back-end emission order) to source
//!   lines;
//! * a **region table** ([`tables::Region`]) — a hierarchy of program-unit
//!   and loop regions, each holding four sub-tables:
//!   * the **equivalent access table** ([`tables::EquivClass`]) partitioning
//!     every item in the region (including those of sub-regions) into
//!     mutually-exclusive access classes, each *definitely* or *maybe*
//!     equivalent;
//!   * the **alias table** ([`tables::AliasEntry`]) — class sets that may
//!     overlap within one iteration;
//!   * the **LCDD table** ([`tables::LcddEntry`]) — loop-carried data
//!     dependences with normalized (`>`) direction and distances;
//!   * the **call REF/MOD table** ([`tables::CallRefMod`]) — interprocedural
//!     side effects per call item or per sub-region.
//!
//! On top of the data model this crate provides:
//!
//! * [`serialize`] — the compact encoding, the one HLI codec: Table 1 of
//!   the paper reports its size (`HLI\x01` files), the serve cache key
//!   hashes its per-unit entries, and the back end imports them;
//! * [`image`] — the `HLI\x04` image the back end imports from: a
//!   directory over one compact entry per unit. Opening it reads only the
//!   directory, and each program unit is decoded into an [`HliEntry`]
//!   when the back end asks for it (the paper's §3.2.1 on-demand import);
//! * [`query`] — the *query function* interface of Section 3.2.2 (the five
//!   basic queries: equivalent access, alias, LCDD, call REF/MOD, region
//!   info), backed by a prebuilt index so back-end passes pay hash-lookup
//!   cost, not table scans;
//! * [`maintain`] — the *maintenance function* interface of Section 3.2.3:
//!   deleting, generating, inheriting and moving items as CSE, LICM and
//!   loop unrolling rewrite the back-end IR, including the Figure-6 LCDD
//!   distance update for unrolling;
//! * [`verify`] — structural *and* semantic invariants (partition
//!   property, normalized LCDD distances, dangling references, scope
//!   nesting) as typed [`verify::VerifyError`]s — the trust boundary the
//!   back-end checks before believing an imported unit
//!   ([`validate`](tables::HliEntry::validate) remains as a string-based
//!   compatibility wrapper);
//! * [`textdump`] — a human-readable rendering in the style of the paper's
//!   Figure 2.

#![deny(missing_docs)]

pub mod ids;
pub mod image;
pub mod maintain;
pub mod query;
pub mod serialize;
pub mod tables;
pub mod textdump;
pub mod verify;

pub use ids::{ItemId, RegionId};
pub use image::{encode_image, EntryRef, HliImage};
pub use query::{CallAcc, EquivAcc, HliQuery, QueryCache};
pub use tables::{
    AliasEntry, CallRef, CallRefMod, DepKind, Distance, EquivClass, EquivKind, HliEntry, HliFile,
    ItemEntry, ItemType, LcddEntry, LineEntry, LineTable, MemberRef, Region, RegionKind,
};
pub use verify::{verify_file, TableKind, VerifyError};

/// Compiles and runs every example in `docs/QUERYBOOK.md` as a doctest,
/// so the query book's worked answers are pinned by `cargo test --doc`.
#[cfg(doctest)]
#[doc = include_str!("../../../docs/QUERYBOOK.md")]
pub struct QueryBookDoctests;
