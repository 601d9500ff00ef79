//! # hli-serve — the `hlicc serve` compile daemon
//!
//! A long-lived batched compile service over the same front-end → HLI →
//! back-end pipeline the one-shot `hlicc` binary drives, plus a
//! persistent content-addressed cache so an edit-compile loop only pays
//! for the functions that actually changed. The paper's integration
//! thesis is that high-level information survives the front-end/back-end
//! boundary as an *artifact*; this crate leans on exactly that property:
//! because a function's compile inputs (lowered body, HLI unit bytes +
//! generation, machine model, dependence mode) are all serializable, a
//! compile answer is addressable by their hash. In front of those keys a
//! program's direct-mode entry, addressed by its source bytes, flags and
//! the daemon's build, keeps the function keys the front end derived, so
//! a batch runs the front end only for programs without a usable entry.
//!
//! **The contract lives in `docs/SERVE.md`** — wire framing, request and
//! response schemas, the cache-key recipe, the on-disk object layout,
//! eviction, quarantine, and the determinism guarantees. The modules here
//! implement it and the tests pin them to it:
//!
//! * [`proto`] — NDJSON request/response types and canonical codecs;
//! * [`key`] — domain-separated FNV-1a 64 function and program keys
//!   (pinned-hash tests);
//! * [`cache`] — the `<root>/v1/objects/…` store of function objects and
//!   program entries: atomic writes, LRU eviction,
//!   quarantine-on-corruption;
//! * [`daemon`] — [`Server`]: batch handling, direct-mode entry lookup,
//!   pool fan-out of cache misses, stable-order shard commits that make
//!   cached and cold output byte-identical.
//!
//! ## Determinism
//!
//! Every cache miss is compiled under an observability capture
//! ([`hli_obs::capture_cfg`]) with provenance forced on, and the whole
//! shard — counters, gauges, histograms, decision records, id count — is
//! stored in the cache object. A hit replays the stored shard through
//! [`hli_obs::commit`] in the same stable order a cold run would have
//! committed its capture. The front end's own work (prep) is captured
//! the same way and stored in the program's entry, which commits it when
//! it answers in prep's place. So `--stats json` snapshots and provenance
//! JSONL are byte-identical between a cold and a warm run (`serve.*`
//! metrics excepted — they *describe* the cache) and across `--jobs`
//! values (`serve.*` included).

pub mod cache;
pub mod daemon;
pub mod key;
pub mod proto;

pub use cache::{CachedObject, DiskCache, ProgramEntry, ShardData};
pub use daemon::{ServeConfig, Server};
pub use key::{fnv1a, function_key, program_key, CacheKey, Fnv};
pub use proto::{
    CompileFlags, FuncResult, Machine, Mode, ProgramReq, ProgramResult, Request, Response,
};

/// Version of the serve wire protocol *and* the cache object schema
/// *and* the cache-key recipe (all three move together — the key commits
/// to this constant, so bumping it orphans every deployed cache object
/// by construction rather than by scan). Echoed as `serve_version` on
/// every response line and in every cache object.
pub const SERVE_VERSION: u64 = 1;
