//! Parallel per-function back-end driver.
//!
//! The paper's on-demand import (Section 3.2.1) makes each function's trip
//! through the back-end — fetch its HLI unit, map it onto RTL, build the
//! DDG, schedule — independent of every other function's. This module
//! shards that pipeline across an [`hli_pool`] work-stealing pool, one
//! work item per function, with each item running *all* requested
//! scheduling passes back to back so a per-function [`QueryCache`] warmed
//! by the first pass serves the second.
//!
//! ## Determinism contract
//!
//! `--jobs 1` and `--jobs N` must produce byte-identical `--stats json`
//! and `--provenance-out` output. Three mechanisms enforce that:
//!
//! * every work item runs under [`hli_obs::capture`], so its metrics and
//!   provenance records land in a private shard instead of interleaving
//!   with other workers';
//! * shards are [`hli_obs::commit`]ted on the calling thread in
//!   **name-sorted function order**, independent of which worker finished
//!   when — commit renumbers each shard's locally-stamped query ids into
//!   the parent id space in that same stable order;
//! * scheduled functions are reassembled in original program order from
//!   the pool's input-order result slots.
//!
//! Since a `--jobs 1` run takes the identical capture/commit path (the
//! pool runs inline on the caller thread), equality holds by construction
//! rather than by careful auditing of every counter.
//!
//! ## Trust boundary
//!
//! Each work item resolves its function's HLI unit once, before the first
//! pass, and [`vet_unit`]-verifies it once; every pass then reads that
//! same entry. A unit failing [`hli_core::verify`] — or, for an `HLI\x03`
//! image, its structural validation ([`image_entry`]) — is
//! **quarantined**: the function compiles with HLI disabled (the pure
//! GCC-dependence conservative path — the paper's baseline) instead of
//! aborting the compile, with `backend.quarantine.*` counters and a
//! `Blocked` provenance record explaining what was refused. Because the
//! lookup and the vet run inside the item's observability capture,
//! quarantine output obeys the same determinism contract as everything
//! else.

use crate::ddg::{DepMode, HliSide, QueryStats};
use crate::rtl::RtlProgram;
use crate::sched::{schedule_function, SchedResult};
use hli_core::image::EntryRef;
use hli_core::{HliImage, QueryCache};
use hli_lir::MachineBackend;
use std::collections::HashMap;

/// Record one quarantined unit: bump the `backend.quarantine.*` counters
/// and, when a provenance sink is active, append a `Blocked` decision
/// naming the function and the first violation. Counters are resolved
/// lazily *here*, in the failure branch only, so clean compiles create no
/// `backend.quarantine.*` keys at all (keeping `--stats` snapshots and
/// their pinned baselines unchanged).
pub fn record_quarantine(function: &str, region: Option<u32>, error_count: u64, reason: &str) {
    let r = hli_obs::metrics::cur();
    r.counter("backend.quarantine.units").inc();
    r.counter("backend.quarantine.errors").add(error_count);
    if let Some(sink) = hli_obs::provenance::active() {
        sink.record(hli_obs::DecisionRecord {
            pass: "quarantine.unit".to_string(),
            function: function.to_string(),
            region_id: region,
            order: 0,
            // Quarantine happens before any decision context exists: no
            // span, no benefit estimate (span 0 is the documented "none").
            span: 0,
            est_cycles: 0,
            hli_queries: Vec::new(),
            verdict: hli_obs::Verdict::Blocked { reason: reason.to_string() },
        });
    }
}

/// The import trust boundary (Section 3.2.3's hazard, made checkable):
/// verify a unit's tables before the back-end trusts any answer derived
/// from them. Returns `true` when the unit is safe to attach; on failure
/// records a quarantine ([`record_quarantine`]) and returns `false`, and
/// the caller must fall back to the pure GCC-dependence path — the
/// paper's no-HLI baseline — for that unit.
///
/// Zero-copy units take the same gate: a view is materialized into a
/// transient owned entry, semantically verified, and discarded — so
/// `hli_core::verify` stays the single trust boundary for blindly mapped
/// image bytes, at the cost of one short-lived decode per unit (never
/// all units resident at once, which is where the zero-copy RSS win
/// comes from).
pub fn vet_unit(function: &str, entry: EntryRef<'_>) -> bool {
    let errs = match entry {
        EntryRef::Owned(e) => e.verify(),
        EntryRef::View(_) => entry.materialize().verify(),
    };
    if errs.is_empty() {
        return true;
    }
    let first = &errs[0];
    record_quarantine(
        function,
        first.region.map(|r| r.0),
        errs.len() as u64,
        &first.to_string(),
    );
    false
}

/// Resolve `function`'s unit in an `HLI\x03` image — the lookup the
/// image gives [`schedule_program_passes`]. A unit whose bytes fail the
/// image's structural validation is quarantined ([`record_quarantine`],
/// one error) and resolves to `None`, the conservative no-HLI path, so a
/// corrupt unit is counted rather than silently read as "no HLI". A
/// function the image has no unit for resolves to `None` unrecorded.
pub fn image_entry<'a>(img: &'a HliImage, function: &str) -> Option<EntryRef<'a>> {
    img.get_ref(function).unwrap_or_else(|e| {
        record_quarantine(function, None, 1, &e.to_string());
        None
    })
}

/// One scheduling pass the driver should run over every function.
pub struct PassSpec<'c> {
    /// Dependence-combination mode for this pass.
    pub mode: DepMode,
    /// Per-function memo caches; functions missing from the map (or all of
    /// them, when `None`) get a throwaway cache. Passing the *same* map to
    /// two passes shares memos between them, the harness's
    /// "shared cache" configuration.
    pub caches: Option<&'c HashMap<String, QueryCache>>,
}

/// Run every pass in `passes` over every function of `prog`, fanning the
/// functions out over `jobs` pool workers (`0` = one per CPU, `1` =
/// inline sequential). Returns one `(scheduled program, total stats)` per
/// pass, functions in original program order.
///
/// `lookup` resolves a function's HLI entry. It is called once per
/// function, inside that function's work item and before its first pass,
/// so it runs on pool threads and must be `Sync`. An `HLI\x03`
/// [`HliImage`] qualifies through [`image_entry`]; an in-memory
/// [`hli_core::HliFile`] through `|n| file.entry(n).map(EntryRef::Owned)`.
pub fn schedule_program_passes<'h>(
    prog: &RtlProgram,
    lookup: &(dyn Fn(&str) -> Option<EntryRef<'h>> + Sync),
    passes: &[PassSpec<'_>],
    mach: &dyn MachineBackend,
    jobs: usize,
) -> Vec<(RtlProgram, QueryStats)> {
    let _t = hli_obs::phase::timed("backend.schedule");
    // Probed on the caller's thread: workers cannot see a thread-scoped
    // sink/tracer, and the verdict must not depend on item placement.
    let obs_cfg = hli_obs::CaptureCfg::from_env();
    let results = hli_pool::run(jobs, &prog.funcs, |_w, f| {
        hli_obs::capture_cfg(obs_cfg, || {
            // Trust boundary: the unit is resolved and verified once per
            // work item, and every pass reads that one vetted entry. The
            // quarantine counters and provenance land in this item's
            // capture shard, so they commit in the same name-sorted order
            // as everything else — byte-identical across `--jobs` values.
            let entry = lookup(&f.name).filter(|e| vet_unit(&f.name, *e));
            passes
                .iter()
                .map(|pass| match entry {
                    Some(e) => {
                        let fresh;
                        let cache = match pass.caches.and_then(|c| c.get(&f.name)) {
                            Some(c) => c,
                            None => {
                                fresh = QueryCache::new();
                                &fresh
                            }
                        };
                        let q = cache.attach_ref(e);
                        let map = crate::mapping::map_function_ref(f, e);
                        let side = HliSide { query: &q, map: &map };
                        schedule_function(f, Some(&side), pass.mode, mach)
                    }
                    None => schedule_function(f, None, DepMode::GccOnly, mach),
                })
                .collect::<Vec<SchedResult>>()
        })
    });

    // Split results from their observability shards, then commit the
    // shards in name-sorted function order — the stable order that makes
    // provenance ids and record order identical across job counts.
    let mut per_func: Vec<std::vec::IntoIter<SchedResult>> = Vec::with_capacity(results.len());
    let mut shards: Vec<Option<hli_obs::ObsShard>> = Vec::with_capacity(results.len());
    for (rs, shard) in results {
        per_func.push(rs.into_iter());
        shards.push(Some(shard));
    }
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by(|&a, &b| prog.funcs[a].name.cmp(&prog.funcs[b].name));
    for i in order {
        hli_obs::commit(shards[i].take().unwrap());
    }

    // Reassemble one program + stats total per pass, functions in
    // original program order.
    passes
        .iter()
        .map(|_| {
            let mut out = prog.clone();
            let mut total = QueryStats::default();
            for (f, rs) in out.funcs.iter_mut().zip(per_func.iter_mut()) {
                let r = rs.next().expect("one SchedResult per pass per function");
                total.add(&r.stats);
                *f = r.func;
            }
            (out, total)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use hli_frontend::generate_hli;
    use hli_lang::compile_to_ast;
    use hli_obs::{metrics, provenance, MetricsRegistry, ProvenanceSink};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    const SRC: &str = "int a[64]; int b[64]; int g;\n\
        void f1(int n) { int i; for (i = 0; i < n; i++) a[i] = b[i] + g; }\n\
        void f2(int n) { int i; for (i = 0; i < n; i++) b[i] = a[i] * 2; }\n\
        void f3(int n) { int i; for (i = 0; i < n; i++) g += a[i]; }\n\
        int main() { f1(32); f2(32); f3(32); return g; }";

    /// Run the two-pass driver over `lookup` at `jobs` under fresh scoped
    /// observability state, returning the scheduled programs, stats, a
    /// metrics JSON snapshot and the provenance JSONL.
    /// With `shared`, both passes share one memo cache per function.
    fn drive<'h>(
        prog: &RtlProgram,
        lookup: &(dyn Fn(&str) -> Option<EntryRef<'h>> + Sync),
        shared: bool,
        jobs: usize,
        prov: bool,
    ) -> (Vec<(RtlProgram, QueryStats)>, String, String) {
        let reg = Arc::new(MetricsRegistry::new());
        let sink = Arc::new(ProvenanceSink::new());
        sink.set_enabled(prov);
        let ids = Arc::new(AtomicU64::new(1));
        let out = {
            let _m = metrics::scoped(reg.clone());
            let _s = provenance::scoped(sink.clone());
            let _i = provenance::scoped_ids(ids);
            // Built inside the scope: a cache meters into the registry
            // that is current when it is created.
            let map: HashMap<String, QueryCache> =
                prog.funcs.iter().map(|f| (f.name.clone(), QueryCache::new())).collect();
            let caches = shared.then_some(&map);
            let passes = [
                PassSpec { mode: DepMode::GccOnly, caches },
                PassSpec { mode: DepMode::Combined, caches },
            ];
            schedule_program_passes(prog, lookup, &passes, &hli_lir::TableBackend::scalar(), jobs)
        };
        let jsonl = provenance::to_jsonl(&sink.drain());
        (out, reg.snapshot().to_json(), jsonl)
    }

    /// Run the two-pass driver at `jobs` with shared memo caches.
    fn run_at(jobs: usize, prov: bool) -> (Vec<(RtlProgram, QueryStats)>, String, String) {
        let (p, s) = compile_to_ast(SRC).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        drive(&prog, &|n| hli.entry(n).map(EntryRef::Owned), true, jobs, prov)
    }

    #[test]
    fn parallel_driver_matches_sequential_bit_for_bit() {
        // Metrics phase (provenance off, memos active) and provenance
        // phase (sink on) both must be invariant in the job count.
        for prov in [false, true] {
            let (seq, seq_json, seq_prov) = run_at(1, prov);
            let (par, par_json, par_prov) = run_at(4, prov);
            assert_eq!(seq.len(), 2);
            for ((sp, ss), (pp, ps)) in seq.iter().zip(par.iter()) {
                assert_eq!(sp, pp, "scheduled programs diverge (prov={prov})");
                assert_eq!(ss, ps, "query stats diverge (prov={prov})");
            }
            assert_eq!(seq_json, par_json, "--stats json diverges (prov={prov})");
            assert_eq!(seq_prov, par_prov, "provenance JSONL diverges (prov={prov})");
            if prov {
                assert!(!seq_prov.is_empty(), "combined pass must record decisions");
            } else {
                assert!(seq_json.contains("backend.query_cache.hit"), "memos were exercised");
            }
        }
    }

    /// Like [`run_at`], but with `f2`'s unit corrupted (an LCDD entry in
    /// the non-loop unit region) so the trust boundary must quarantine it.
    fn run_quarantined_at(
        jobs: usize,
        prov: bool,
    ) -> (Vec<(RtlProgram, QueryStats)>, String, String) {
        let (p, s) = compile_to_ast(SRC).unwrap();
        let mut hli = generate_hli(&p, &s);
        let bad = hli.entry_mut("f2").unwrap();
        let (src, dst) = (bad.regions[0].equiv_classes[0].id, bad.regions[0].equiv_classes[1].id);
        bad.regions[0].lcdd_table.push(hli_core::LcddEntry {
            src,
            dst,
            kind: hli_core::DepKind::Maybe,
            distance: hli_core::Distance::Unknown,
        });
        assert!(
            !hli.entry("f2").unwrap().verify().is_empty(),
            "corruption must be detectable"
        );
        let prog = lower_program(&p, &s);
        drive(&prog, &|n| hli.entry(n).map(EntryRef::Owned), false, jobs, prov)
    }

    #[test]
    fn invalid_unit_is_quarantined_to_the_no_hli_path() {
        let (quarantined, json, jsonl) = run_quarantined_at(1, true);

        // The quarantined function must compile exactly as if its unit
        // were absent — the conservative no-HLI fallback.
        let (p, s) = compile_to_ast(SRC).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        let passes = [
            PassSpec { mode: DepMode::GccOnly, caches: None },
            PassSpec { mode: DepMode::Combined, caches: None },
        ];
        let control = schedule_program_passes(
            &prog,
            &|n| {
                if n == "f2" {
                    None
                } else {
                    hli.entry(n).map(EntryRef::Owned)
                }
            },
            &passes,
            &hli_lir::TableBackend::scalar(),
            1,
        );
        for ((qp, qs), (cp, cs)) in quarantined.iter().zip(control.iter()) {
            assert_eq!(qp, cp, "quarantined f2 must schedule like a missing unit");
            assert_eq!(qs, cs);
        }

        // One work item vets once: one quarantined unit, however many
        // passes ran, and a Blocked provenance record naming it.
        assert!(json.contains("\"backend.quarantine.units\": 1"), "{json}");
        assert!(jsonl.contains("quarantine.unit"), "{jsonl}");
        assert!(jsonl.contains("\"function\": \"f2\""), "{jsonl}");
        assert!(jsonl.contains("non-loop region"), "{jsonl}");
    }

    #[test]
    fn quarantine_is_deterministic_across_job_counts() {
        for prov in [false, true] {
            let (seq, seq_json, seq_prov) = run_quarantined_at(1, prov);
            let (par, par_json, par_prov) = run_quarantined_at(8, prov);
            for ((sp, ss), (pp, ps)) in seq.iter().zip(par.iter()) {
                assert_eq!(sp, pp, "scheduled programs diverge (prov={prov})");
                assert_eq!(ss, ps, "query stats diverge (prov={prov})");
            }
            assert_eq!(seq_json, par_json, "--stats json diverges (prov={prov})");
            assert_eq!(seq_prov, par_prov, "provenance JSONL diverges (prov={prov})");
        }
    }

    /// Claim more line records for `unit`'s body than it holds (body
    /// header word 2 is the line count), so the image's structural
    /// validation rejects exactly that unit.
    fn corrupt_unit_body(bytes: &mut [u8], unit: &str) {
        let word = |b: &[u8], w: usize| u32::from_le_bytes(b[w * 4..w * 4 + 4].try_into().unwrap());
        for i in 0..word(bytes, 1) as usize {
            let rec = 2 + 4 * i;
            let (name_off, name_len) = (word(bytes, rec) as usize, word(bytes, rec + 1) as usize);
            if &bytes[name_off..name_off + name_len] == unit.as_bytes() {
                let at = (word(bytes, rec + 2) as usize + 2) * 4;
                bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                return;
            }
        }
        panic!("no unit `{unit}` in the image");
    }

    /// Run the two-pass driver at `jobs` over an `HLI\x03` image of `SRC`
    /// whose `f2` body fails structural validation.
    fn run_corrupt_image_at(jobs: usize) -> (Vec<(RtlProgram, QueryStats)>, String, String) {
        let (p, s) = compile_to_ast(SRC).unwrap();
        let hli = generate_hli(&p, &s);
        let opts = hli_core::serialize::SerializeOpts::default();
        let mut bytes = hli_core::encode_file_v3(&hli, opts);
        corrupt_unit_body(&mut bytes, "f2");
        let img = HliImage::open(bytes, opts).unwrap();
        assert!(img.get_ref("f2").is_err(), "corruption must fail structural validation");
        let prog = lower_program(&p, &s);
        drive(&prog, &|n| image_entry(&img, n), false, jobs, true)
    }

    #[test]
    fn corrupt_image_unit_is_quarantined_once_and_jobs_invariant() {
        let (seq, seq_json, seq_prov) = run_corrupt_image_at(1);
        let (par, par_json, par_prov) = run_corrupt_image_at(8);
        assert_eq!(seq, par, "scheduled programs or stats diverge across --jobs");
        assert_eq!(seq_json, par_json, "--stats json diverges across --jobs");
        assert_eq!(seq_prov, par_prov, "provenance JSONL diverges across --jobs");

        // One quarantine for the one corrupt unit, however many passes ran.
        assert!(seq_json.contains("\"backend.quarantine.units\": 1"), "{seq_json}");
        assert!(seq_json.contains("\"backend.quarantine.errors\": 1"), "{seq_json}");
        assert_eq!(seq_prov.matches("quarantine.unit").count(), 1, "{seq_prov}");
        assert!(seq_prov.contains("\"function\": \"f2\""), "{seq_prov}");

        // `f2` compiles as if it had no unit; every other function keeps
        // its HLI schedule from the clean file.
        let (p, s) = compile_to_ast(SRC).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        let (clean, _, _) = drive(&prog, &|n| hli.entry(n).map(EntryRef::Owned), false, 1, false);
        let (blind, _, _) = drive(&prog, &|_| None, false, 1, false);
        let (combined, clean_combined, blind_combined) = (&seq[1].0, &clean[1].0, &blind[1].0);
        for (i, f) in combined.funcs.iter().enumerate() {
            let want = if f.name == "f2" {
                &blind_combined.funcs[i]
            } else {
                &clean_combined.funcs[i]
            };
            assert_eq!(f, want, "`{}` scheduled unlike its reference", f.name);
        }
        for f in ["f1", "f3"] {
            assert!(seq_prov.contains(&format!("\"function\": \"{f}\"")), "{f} used no HLI");
        }
    }

    #[test]
    fn clean_compile_creates_no_quarantine_keys() {
        let (_, json, _) = run_at(1, false);
        assert!(
            !json.contains("backend.quarantine"),
            "clean runs must not grow the stats key set: {json}"
        );
    }

    #[test]
    fn functions_missing_from_caches_get_throwaway_memos() {
        let (p, s) = compile_to_ast(SRC).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        let empty = HashMap::new();
        let passes = [PassSpec { mode: DepMode::Combined, caches: Some(&empty) }];
        let with_map = schedule_program_passes(
            &prog,
            &|n| hli.entry(n).map(EntryRef::Owned),
            &passes,
            &hli_lir::TableBackend::scalar(),
            2,
        );
        let no_map = schedule_program_passes(
            &prog,
            &|n| hli.entry(n).map(EntryRef::Owned),
            &[PassSpec { mode: DepMode::Combined, caches: None }],
            &hli_lir::TableBackend::scalar(),
            2,
        );
        assert_eq!(with_map[0].0, no_map[0].0);
        assert_eq!(with_map[0].1, no_map[0].1);
    }
}
