//! Parallel per-function back-end driver.
//!
//! The paper's on-demand import (Section 3.2.1) makes each function's trip
//! through the back-end — fetch its HLI unit, map it onto RTL, build the
//! DDG, schedule — independent of every other function's. This module
//! shards that pipeline across the [`hli_pool`] parallel map, one
//! work item per function, with each item running *all* requested
//! scheduling passes back to back over one [`HliQuery`] index of the
//! function's unit.
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
//! pass, and [`vet_unit`] verifies its tables once — borrowed from an
//! in-memory file, or decoded once from an image unit. One query index is
//! built over exactly the tables that were verified, and every pass asks
//! it. A unit failing [`hli_core::verify`] — or, for an image, failing to
//! decode ([`image_entry`]) — is
//! **quarantined**: the function compiles with HLI disabled (the pure
//! GCC-dependence conservative path — the paper's baseline) instead of
//! aborting the compile, with `backend.quarantine.*` counters and a
//! `Blocked` provenance record explaining what was refused. Because the
//! lookup and the vet run inside the item's observability capture,
//! quarantine output obeys the same determinism contract as everything
//! else.

use crate::disamb::{DepMode, HliSide, QueryStats};
use crate::rtl::RtlProgram;
use crate::sched::{schedule_function, SchedResult};
use hli_core::image::EntryRef;
use hli_core::{HliEntry, HliImage, HliQuery, QueryCache};
use hli_lir::MachineBackend;
use std::borrow::Cow;
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
    record_blocked("quarantine.unit", function, region, reason);
}

/// Record one item whose maintenance failed after a pass rewrote its code
/// (CSE deleted the reference, LICM hoisted it), so the entry no longer
/// matches the code at that item: `backend.quarantine.items`, created
/// only here like [`record_quarantine`]'s counters, plus a `Blocked`
/// `quarantine.item` decision naming the error.
pub(crate) fn record_item_quarantine(function: &str, err: &hli_core::maintain::MaintainError) {
    hli_obs::metrics::cur().counter("backend.quarantine.items").inc();
    record_blocked("quarantine.item", function, None, &err.to_string());
}

fn record_blocked(pass: &str, function: &str, region: Option<u32>, reason: &str) {
    if let Some(sink) = hli_obs::provenance::active() {
        sink.record(hli_obs::DecisionRecord {
            pass: pass.to_string(),
            function: function.to_string(),
            region_id: region,
            order: 0,
            // Quarantine happens outside any decision context: no span,
            // no benefit estimate (span 0 is the documented "none").
            span: 0,
            est_cycles: 0,
            hli_queries: Vec::new(),
            verdict: hli_obs::Verdict::Blocked { reason: reason.to_string() },
        });
    }
}

/// The import trust boundary (Section 3.2.3's hazard, made checkable):
/// verify a unit's tables before the back-end trusts any answer derived
/// from them, and hand on exactly the tables that were verified —
/// borrowed from an in-memory entry, or the ones decoded from an image
/// unit ([`EntryRef::into_tables`]). On failure records a quarantine
/// ([`record_quarantine`]) and returns the recorded reason; the caller
/// must fall back to the pure GCC-dependence path — the paper's no-HLI
/// baseline — for that unit.
pub fn vet_unit<'h>(function: &str, entry: EntryRef<'h>) -> Result<Cow<'h, HliEntry>, String> {
    let tables = entry.into_tables();
    let errs = tables.verify();
    let Some(first) = errs.first() else {
        return Ok(tables);
    };
    let why = first.to_string();
    record_quarantine(function, first.region.map(|r| r.0), errs.len() as u64, &why);
    Err(why)
}

/// Resolve `function`'s unit in an image — the lookup the image gives
/// [`schedule_program_passes`]. A unit whose body fails to decode is
/// quarantined ([`record_quarantine`], one error) and resolves to `None`,
/// the conservative no-HLI path, so a corrupt unit is counted rather than
/// silently read as "no HLI". A function the image has no unit for
/// resolves to `None` unrecorded.
pub fn image_entry(img: &HliImage, function: &str) -> Option<EntryRef<'static>> {
    img.get_ref(function).unwrap_or_else(|e| {
        record_quarantine(function, None, 1, &e.to_string());
        None
    })
}

/// One scheduling pass the driver should run over every function.
pub struct PassSpec<'c> {
    /// Dependence-combination mode for this pass.
    pub mode: DepMode,
    /// Read by nothing: kept only because the benchmark under `hlibench/`
    /// still sets it. Every pass asks its work item's [`HliQuery`].
    pub caches: Option<&'c HashMap<String, QueryCache>>,
}

/// Run every pass in `passes` over every function of `prog`, fanning the
/// functions out over `jobs` pool workers (`0` = one per CPU, `1` =
/// inline sequential). Returns one `(scheduled program, total stats)` per
/// pass, functions in original program order.
///
/// `lookup` resolves a function's HLI entry. It is called once per
/// function, inside that function's work item and before its first pass,
/// so it runs on pool threads and must be `Sync`. An [`HliImage`]
/// qualifies through [`image_entry`]; an in-memory
/// [`hli_core::HliFile`] through `|n| file.entry(n).map(EntryRef::Owned)`.
pub fn schedule_program_passes<'h>(
    prog: &RtlProgram,
    lookup: &(dyn Fn(&str) -> Option<EntryRef<'h>> + Sync),
    passes: &[PassSpec<'_>],
    mach: &dyn MachineBackend,
    jobs: usize,
) -> Vec<(RtlProgram, QueryStats)> {
    let _s = hli_obs::span("backend.schedule");
    // Probed on the caller's thread: workers cannot see a thread-scoped
    // sink, and the verdict must not depend on item placement.
    let obs_cfg = hli_obs::CaptureCfg::from_env();
    let results = hli_pool::run(jobs, &prog.funcs, |_w, f| {
        hli_obs::capture_cfg(obs_cfg, || {
            // Trust boundary: the unit is resolved and verified once per
            // work item, and every pass asks one index over the tables
            // that were verified. The quarantine counters and provenance
            // land in this item's capture shard, so they commit in the
            // same name-sorted order as everything else — byte-identical
            // across `--jobs` values.
            let tables = lookup(&f.name).and_then(|e| vet_unit(&f.name, e).ok());
            let query = tables.as_deref().map(|e| (e, HliQuery::new(e)));
            passes
                .iter()
                .map(|pass| match &query {
                    Some((e, q)) => {
                        // Mapped per pass: every call records `backend.map.*`.
                        let map = crate::mapping::map_function(f, e);
                        let side = HliSide { query: q, map: &map };
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
    use hli_core::serialize::SerializeOpts;
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
    fn drive<'h>(
        prog: &RtlProgram,
        lookup: &(dyn Fn(&str) -> Option<EntryRef<'h>> + Sync),
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
            let passes = [
                PassSpec { mode: DepMode::GccOnly, caches: None },
                PassSpec { mode: DepMode::Combined, caches: None },
            ];
            schedule_program_passes(prog, lookup, &passes, &hli_lir::TableBackend::scalar(), jobs)
        };
        let jsonl = provenance::to_jsonl(&sink.drain());
        (out, reg.snapshot().to_json(), jsonl)
    }

    /// Run the two-pass driver at `jobs` over `SRC`'s in-memory file.
    fn run_at(jobs: usize, prov: bool) -> (Vec<(RtlProgram, QueryStats)>, String, String) {
        let (p, s) = compile_to_ast(SRC).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        drive(&prog, &|n| hli.entry(n).map(EntryRef::Owned), jobs, prov)
    }

    #[test]
    fn parallel_driver_matches_sequential_bit_for_bit() {
        // Metrics phase (provenance off) and provenance phase (sink on)
        // both must be invariant in the job count.
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
            }
        }
    }

    /// The counters of a `--stats json` snapshot, less `provenance.*`.
    fn counters_outside_provenance(json: &str) -> Vec<(String, f64)> {
        let snap = hli_obs::json::parse(json).unwrap();
        let Some(hli_obs::json::Json::Obj(counters)) = snap.get("counters") else {
            panic!("no counters object in {json}");
        };
        counters
            .iter()
            .filter(|(k, _)| !k.starts_with("provenance."))
            .map(|(k, v)| (k.clone(), v.as_num().unwrap()))
            .collect()
    }

    #[test]
    fn counters_do_not_depend_on_the_provenance_sink() {
        for jobs in [1, 4] {
            let (plain_out, plain, _) = run_at(jobs, false);
            let (prov_out, prov, _) = run_at(jobs, true);
            assert_eq!(plain_out, prov_out, "schedules or stats diverge (jobs={jobs})");
            let plain = counters_outside_provenance(&plain);
            assert!(plain.iter().any(|(k, v)| k == "hli.query.get_equiv_acc" && *v > 0.0));
            assert_eq!(plain, counters_outside_provenance(&prov), "jobs={jobs}");
        }
    }

    /// Like [`run_at`], but with `f2`'s unit corrupted (an LCDD entry in
    /// the non-loop unit region) so the trust boundary must quarantine it.
    /// With `via_image`, the units are served from an image of the
    /// corrupted file: the damage is semantic, so the unit decodes and
    /// `vet_unit` must catch it in the decoded tables.
    fn run_quarantined_at(
        jobs: usize,
        prov: bool,
        via_image: bool,
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
        if via_image {
            let bytes = hli_core::encode_image(&hli, SerializeOpts::default());
            let img = HliImage::open(bytes).unwrap();
            assert!(img.get_ref("f2").unwrap().is_some(), "the damage must be semantic only");
            drive(&prog, &|n| image_entry(&img, n), jobs, prov)
        } else {
            drive(&prog, &|n| hli.entry(n).map(EntryRef::Owned), jobs, prov)
        }
    }

    #[test]
    fn invalid_unit_is_quarantined_to_the_no_hli_path() {
        let (quarantined, json, jsonl) = run_quarantined_at(1, true, false);

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
            let (seq, seq_json, seq_prov) = run_quarantined_at(1, prov, false);
            let (par, par_json, par_prov) = run_quarantined_at(8, prov, false);
            for ((sp, ss), (pp, ps)) in seq.iter().zip(par.iter()) {
                assert_eq!(sp, pp, "scheduled programs diverge (prov={prov})");
                assert_eq!(ss, ps, "query stats diverge (prov={prov})");
            }
            assert_eq!(seq_json, par_json, "--stats json diverges (prov={prov})");
            assert_eq!(seq_prov, par_prov, "provenance JSONL diverges (prov={prov})");
        }
    }

    #[test]
    fn semantically_invalid_image_unit_is_quarantined_like_the_owned_one() {
        for (prov, jobs) in [(false, 1), (false, 8), (true, 1), (true, 8)] {
            let owned = run_quarantined_at(jobs, prov, false);
            let image = run_quarantined_at(jobs, prov, true);
            let (_, json, jsonl) = &image;
            assert!(json.contains("\"backend.quarantine.units\": 1"), "{json}");
            assert_eq!(jsonl.matches("quarantine.unit").count(), usize::from(prov), "{jsonl}");
            assert!(
                image == owned,
                "image and owned lookups diverge (prov={prov}, jobs={jobs})"
            );
        }
    }

    /// Set the continuation bit on the last byte of `unit`'s compact body
    /// in the image `bytes`. That byte ends the body's last varint, so the
    /// decoder runs off the end of exactly that body.
    fn corrupt_unit_body(bytes: &mut [u8], unit: &hli_core::HliEntry) {
        let body = hli_core::serialize::encode_entry(unit, SerializeOpts::default());
        let at = bytes
            .windows(body.len())
            .position(|w| w == body)
            .unwrap_or_else(|| panic!("no body of `{}` in the image", unit.unit_name));
        bytes[at + body.len() - 1] |= 0x80;
    }

    /// Run the two-pass driver at `jobs` over an image of `SRC` whose `f2`
    /// body fails to decode.
    fn run_corrupt_image_at(jobs: usize) -> (Vec<(RtlProgram, QueryStats)>, String, String) {
        let (p, s) = compile_to_ast(SRC).unwrap();
        let hli = generate_hli(&p, &s);
        let mut bytes = hli_core::encode_image(&hli, SerializeOpts::default());
        corrupt_unit_body(&mut bytes, hli.entry("f2").unwrap());
        let img = HliImage::open(bytes).unwrap();
        assert!(img.get_ref("f2").is_err(), "corruption must fail decoding");
        for intact in ["f1", "f3", "main"] {
            assert!(img.get_ref(intact).unwrap().is_some(), "`{intact}` must stay intact");
        }
        let prog = lower_program(&p, &s);
        drive(&prog, &|n| image_entry(&img, n), jobs, true)
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
        let (clean, _, _) = drive(&prog, &|n| hli.entry(n).map(EntryRef::Owned), 1, false);
        let (blind, _, _) = drive(&prog, &|_| None, 1, false);
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
}
