//! `faultbench` — seeded fault-injection campaign against the HLI trust
//! boundary.
//!
//! The back-end treats an HLI image as *untrusted input*: decode errors
//! and verifier rejections must quarantine the affected unit onto the
//! pure-GCC conservative path, never panic the compiler and never make an
//! optimization decision the clean image would not have justified. This
//! binary stress-tests that contract at two layers:
//!
//! * **byte level** — seeded bit flips, byte substitutions, truncations
//!   and zeroed windows on the image of every suite benchmark (the one
//!   form the back end imports), pushed through the real import and
//!   two-pass scheduling pipeline under `catch_unwind`: the frame checks
//!   at open, each unit's compact decode, semantic verify on the decoded
//!   entry;
//! * **table level** — semantic mutations on *decoded* tables (flip an
//!   LCDD entry's direction, drop an alias edge, re-home an item into a
//!   different equivalence class), checking that the verifier rejects
//!   what it can and that the differential executor catches what it
//!   cannot.
//!
//! Hard failures (exit 1), reusing the Table-2 counters as the
//! differential soundness oracle:
//!
//! * any panic reaching the campaign harness;
//! * the GCC-only counters or the GCC-only schedule moving at all — HLI
//!   input must never influence the baseline path;
//! * a mutant that decodes to the *same* tables producing different
//!   stats or a different schedule;
//! * a rejected or quarantined image whose combined counters leave the
//!   `clean.combined ≤ mut.combined ≤ clean.gcc` degradation envelope,
//!   or whose compiled output disagrees with the AST-interpreter oracle.
//!
//! Verify-clean byte mutants get the table-level stance: damage to one
//! varint of a compact body can decode as a well-formed *semantic*
//! mutation no static verifier can reject, so oracle-detected ones are
//! counted, not failed — see [`ByteClass::Caught`].
//!
//! Table-level mutations that stay well-formed are *semantically wrong
//! but syntactically trusted* — no static verifier can reject a
//! may-alias table that omits a true edge, or an item quietly moved to
//! a different (still unique) class. For those the campaign asserts the
//! direction flip never changes scheduling, that any malformed shape a
//! mutation produces (e.g. re-homing the last member empties a class)
//! is quarantined, and it *reports* (rather than fails on) mutants
//! whose effect the differential executor detects: that count
//! demonstrates the oracle actually has teeth.
//!
//! Fully-rejected images (nothing decodes) skip the scheduling step: the
//! pipeline with no HLI at all is the precomputed no-HLI control run,
//! which is validated once per benchmark during setup.
//!
//! `--quarantine-check` instead runs the determinism gate: one
//! multi-function program with one deliberately-invalid unit is compiled
//! at `--jobs 1` and `--jobs N`, and the `--stats json` snapshot and
//! provenance JSONL must be byte-identical, with exactly one unit
//! quarantined.
//!
//! Usage: `faultbench [N] [--seed S] [--table M] [--jobs J]
//! [--quarantine-check] [--stats text|json] [--provenance-out p.jsonl]`
//! (N byte-level mutations, default 10000; M table-level mutations,
//! default N/10).

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hli_backend::ddg::{DepMode, QueryStats};
use hli_backend::driver::{image_entry, schedule_program_passes, PassSpec};
use hli_backend::lower::lower_program;
use hli_backend::rtl::RtlProgram;
use hli_core::image::EntryRef;
use hli_core::serialize::SerializeOpts;
use hli_core::{encode_image, HliFile, HliImage, MemberRef};
use hli_frontend::generate_hli;
use hli_lang::compile_to_ast;
use hli_obs::{metrics, provenance, MetricsRegistry, ProvenanceSink};
use hli_suite::rng::XorShift64;
use hli_suite::Scale;

/// Everything precomputed once per benchmark so a campaign iteration
/// only pays for the decode attempt plus (rarely) one schedule + run.
struct Prep {
    name: String,
    unit_names: Vec<String>,
    rtl: RtlProgram,
    /// The tables as the clean image serves them.
    clean: HliFile,
    image: Vec<u8>,
    oracle_ret: i64,
    oracle_sum: u64,
    /// Combined-pass stats of the clean image (carries `gcc_yes` too).
    clean_stats: QueryStats,
    clean_gcc_prog: RtlProgram,
    clean_hli_prog: RtlProgram,
}

/// Schedule the two compiler builds (GCC-only, then combined) inline.
fn schedule<'h>(
    rtl: &RtlProgram,
    lookup: &(dyn Fn(&str) -> Option<EntryRef<'h>> + Sync),
) -> (RtlProgram, RtlProgram, QueryStats) {
    let passes = [
        PassSpec { mode: DepMode::GccOnly, caches: None },
        PassSpec { mode: DepMode::Combined, caches: None },
    ];
    let mut out = schedule_program_passes(
        rtl,
        lookup,
        &passes,
        hli_machine::backend_by_name("r4600").unwrap(),
        1,
    )
    .into_iter();
    let (gcc_prog, _) = out.next().expect("GccOnly pass result");
    let (hli_prog, stats) = out.next().expect("Combined pass result");
    (gcc_prog, hli_prog, stats)
}

fn prepare() -> Vec<Prep> {
    hli_suite::all(Scale::tiny())
        .iter()
        .map(|b| {
            let (p, s) = compile_to_ast(&b.source).unwrap_or_else(|e| die(&b.name, &e.to_string()));
            let oracle = hli_lang::interp::run_program(&p, &s)
                .unwrap_or_else(|e| die(&b.name, &e.to_string()));
            let hli = generate_hli(&p, &s);
            if let Some((unit, err)) = hli_core::verify_file(&hli).first() {
                die(&b.name, &format!("clean HLI invalid for `{unit}`: {err}"));
            }
            let image = encode_image(&hli, SerializeOpts::default());
            let img = HliImage::open(image.clone()).unwrap_or_else(|e| die(&b.name, &e.0));
            let entries = img.units().map(|n| match img.get_ref(n) {
                Ok(Some(e)) => e.into_tables().into_owned(),
                _ => die(&b.name, &format!("clean image cannot serve `{n}`")),
            });
            let clean = HliFile { entries: entries.collect() };
            let rtl = lower_program(&p, &s);
            let (clean_gcc_prog, clean_hli_prog, clean_stats) =
                schedule(&rtl, &|n| clean.entry(n).map(EntryRef::Owned));

            // The no-HLI control: the path every fully-rejected image
            // degrades to. Validated here once, then byte-level
            // iterations that reject the whole image can skip it.
            let (_, control_prog, control_stats) = schedule(&rtl, &|_| None);
            if control_stats.combined_yes != control_stats.gcc_yes
                || control_stats.gcc_yes != clean_stats.gcc_yes
            {
                die(&b.name, "no-HLI control run does not collapse onto the GCC counters");
            }
            let run = hli_machine::execute(&control_prog)
                .unwrap_or_else(|e| die(&b.name, &e.to_string()));
            if run.ret != oracle.ret || run.global_checksum != oracle.global_checksum {
                die(&b.name, "no-HLI control run disagrees with the interpreter");
            }

            Prep {
                name: b.name.clone(),
                unit_names: clean.entries.iter().map(|e| e.unit_name.clone()).collect(),
                rtl,
                clean,
                image,
                oracle_ret: oracle.ret,
                oracle_sum: oracle.global_checksum,
                clean_stats,
                clean_gcc_prog,
                clean_hli_prog,
            }
        })
        .collect()
}

fn die(bench: &str, msg: &str) -> ! {
    eprintln!("faultbench: setup failed for {bench}: {msg}");
    std::process::exit(2)
}

/// Per-iteration rng: one stream per iteration index so outcomes do not
/// depend on how the pool distributes iterations over workers.
fn iter_rng(seed: u64, k: u64) -> XorShift64 {
    XorShift64::new(seed ^ k.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1))
}

// ---------------------------------------------------------------------
// Byte-level campaign
// ---------------------------------------------------------------------

/// How one byte-level mutant fared. `Err` is a hard soundness failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ByteClass {
    /// The image failed to decode at all (or every unit of it did).
    Rejected,
    /// Some units decoded, at least one was dropped or quarantined.
    Quarantined,
    /// Decoded to tables equal to the clean ones; stats matched.
    Identical,
    /// Decoded to *different* tables that still pass the verifier.
    Variant,
    /// A verify-clean variant whose compiled output the differential
    /// executor caught. A random byte flip inside one varint of a compact
    /// body can land as a *semantic* table mutation (one id or count
    /// cleanly rewritten, everything still well-formed) — the same
    /// wrong-but-trusted class the table-level campaign reports via
    /// [`TableClass::Detected`] rather than hard-fails, because no
    /// static verifier can reject it.
    Caught,
}

fn mutate_bytes(bytes: &mut Vec<u8>, rng: &mut XorShift64) {
    let len = bytes.len() as u64;
    match rng.next_range(4) {
        0 => {
            let pos = rng.next_range(len) as usize;
            bytes[pos] ^= 1 << rng.next_range(8);
        }
        1 => {
            let pos = rng.next_range(len) as usize;
            bytes[pos] = rng.next_u64() as u8;
        }
        2 => bytes.truncate(rng.next_range(len) as usize),
        _ => {
            let pos = rng.next_range(len) as usize;
            let end = (pos + 4).min(bytes.len());
            bytes[pos..end].fill(0);
        }
    }
}

fn byte_iteration(preps: &[Prep], seed: u64, k: u64) -> Result<ByteClass, String> {
    let mut rng = iter_rng(seed, k);
    let p = &preps[(k as usize) % preps.len()];
    let mut bytes = p.image.clone();
    mutate_bytes(&mut bytes, &mut rng);

    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_byte_mutant(p, bytes)));
    match outcome {
        Ok(r) => r.map_err(|e| format!("{} k={k}: {e}", p.name)),
        Err(_) => Err(format!("{} k={k}: PANIC escaped the import/compile pipeline", p.name)),
    }
}

fn run_byte_mutant(p: &Prep, bytes: Vec<u8>) -> Result<ByteClass, String> {
    let reg = Arc::new(MetricsRegistry::new());
    let _m = metrics::scoped(reg.clone());

    // Open the mutated image; each unit is decoded when it is asked for.
    // A unit that fails to decode is quarantined by the scheduling
    // lookup, exactly as `hlicc` and the harness treat it.
    let Ok(img) = HliImage::open(bytes) else {
        return Ok(ByteClass::Rejected);
    };
    let served = |n: &str| img.get_ref(n).ok().flatten();
    let dropped = p.unit_names.iter().filter(|n| served(n).is_none()).count();
    if dropped == p.unit_names.len() {
        // Nothing decoded: the pipeline degenerates to the no-HLI
        // control run validated during setup.
        return Ok(ByteClass::Rejected);
    }
    let identical_content = dropped == 0
        && p.clean
            .entries
            .iter()
            .all(|clean| served(&clean.unit_name).is_some_and(|e| e.tables() == clean));

    let (gcc_prog, hli_prog, stats) = schedule(&p.rtl, &|n| image_entry(&img, n));
    let quarantined = reg.snapshot().counter("backend.quarantine.units");

    // The GCC-only path must be bit-for-bit blind to HLI input.
    if stats.total_tests != p.clean_stats.total_tests || stats.gcc_yes != p.clean_stats.gcc_yes {
        return Err(format!(
            "GCC counters moved: {}/{} vs clean {}/{}",
            stats.total_tests, stats.gcc_yes, p.clean_stats.total_tests, p.clean_stats.gcc_yes
        ));
    }
    if gcc_prog != p.clean_gcc_prog {
        return Err("GccOnly schedule changed under an HLI mutation".into());
    }

    if identical_content {
        if stats != p.clean_stats || hli_prog != p.clean_hli_prog {
            return Err(format!(
                "identical tables produced different decisions: {stats:?} vs {:?}",
                p.clean_stats
            ));
        }
        return Ok(ByteClass::Identical);
    }

    let exec_matches = || -> Result<bool, String> {
        let run = hli_machine::execute(&hli_prog).map_err(|e| format!("mutant build: {e}"))?;
        Ok(run.ret == p.oracle_ret && run.global_checksum == p.oracle_sum)
    };

    if quarantined > 0 || dropped > 0 {
        // Degradation envelope: losing units can only move the combined
        // counters up toward the GCC baseline, never below the clean run.
        if stats.combined_yes < p.clean_stats.combined_yes || stats.combined_yes > stats.gcc_yes {
            return Err(format!(
                "quarantined image left the degradation envelope: combined {} not in [{}, {}]",
                stats.combined_yes, p.clean_stats.combined_yes, stats.gcc_yes
            ));
        }
        if !exec_matches()? {
            return Err("quarantined image miscompiled".into());
        }
        return Ok(ByteClass::Quarantined);
    }

    // A verify-clean variant: byte damage landed as a well-formed
    // semantic mutation (see [`ByteClass::Caught`]), so the campaign takes
    // the table-level stance: aggressive-but-validated variants are
    // reported as variants, oracle-detected ones as `Caught`.
    Ok(if exec_matches()? {
        ByteClass::Variant
    } else {
        ByteClass::Caught
    })
}

// ---------------------------------------------------------------------
// Table-level campaign
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TableClass {
    /// The verifier rejected the mutant; the unit was quarantined.
    Quarantined,
    /// Well-formed mutant whose decisions matched the clean run.
    Identical,
    /// Well-formed mutant; combined counters moved toward the baseline.
    Degraded,
    /// Well-formed mutant made the combined pass more aggressive and the
    /// differential executor still agreed with the oracle.
    Aggressive,
    /// Aggressive *and* caught by the differential executor: wrong
    /// trusted input the dynamic oracle detects.
    Detected,
}

/// One semantic mutation applied to a decoded file. Returns the kind
/// label, or `None` when the file offers no site for any kind (cannot
/// happen on the real suite).
fn mutate_tables(file: &mut HliFile, rng: &mut XorShift64) -> Option<&'static str> {
    // Collect candidate sites per mutation kind: (entry, region, index).
    let mut lcdd = Vec::new();
    let mut alias = Vec::new();
    let mut rehome = Vec::new();
    for (ei, e) in file.entries.iter().enumerate() {
        for (ri, r) in e.regions.iter().enumerate() {
            for (ti, t) in r.lcdd_table.iter().enumerate() {
                if t.src != t.dst {
                    lcdd.push((ei, ri, ti));
                }
            }
            for (ti, _) in r.alias_table.iter().enumerate() {
                alias.push((ei, ri, ti));
            }
            if r.equiv_classes.len() >= 2 {
                for (ci, c) in r.equiv_classes.iter().enumerate() {
                    for (mi, m) in c.members.iter().enumerate() {
                        if matches!(m, MemberRef::Item(_)) {
                            rehome.push((ei, ri, ci, mi));
                        }
                    }
                }
            }
        }
    }
    let mut kinds: Vec<&'static str> = Vec::new();
    if !lcdd.is_empty() {
        kinds.push("flip-lcdd");
    }
    if !alias.is_empty() {
        kinds.push("drop-alias");
    }
    if !rehome.is_empty() {
        kinds.push("rehome-item");
    }
    if kinds.is_empty() {
        return None;
    }
    let kind = *rng.choose(&kinds);
    match kind {
        "flip-lcdd" => {
            let &(ei, ri, ti) = rng.choose(&lcdd);
            let t = &mut file.entries[ei].regions[ri].lcdd_table[ti];
            std::mem::swap(&mut t.src, &mut t.dst);
        }
        "drop-alias" => {
            let &(ei, ri, ti) = rng.choose(&alias);
            file.entries[ei].regions[ri].alias_table.remove(ti);
        }
        _ => {
            let &(ei, ri, ci, mi) = rng.choose(&rehome);
            let nclasses = file.entries[ei].regions[ri].equiv_classes.len();
            let other = (ci + 1 + rng.next_range(nclasses as u64 - 1) as usize) % nclasses;
            let m = file.entries[ei].regions[ri].equiv_classes[ci].members.remove(mi);
            file.entries[ei].regions[ri].equiv_classes[other].members.push(m);
        }
    }
    Some(kind)
}

fn table_iteration(preps: &[Prep], seed: u64, k: u64) -> Result<TableClass, String> {
    let mut rng = iter_rng(seed, !k);
    let p = &preps[(k as usize) % preps.len()];
    let mut file = p.clean.clone();
    let Some(kind) = mutate_tables(&mut file, &mut rng) else {
        return Ok(TableClass::Identical);
    };

    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_table_mutant(p, &file, kind)));
    match outcome {
        Ok(r) => r.map_err(|e| format!("{} k={k} {kind}: {e}", p.name)),
        Err(_) => Err(format!("{} k={k} {kind}: PANIC escaped the compile pipeline", p.name)),
    }
}

fn run_table_mutant(p: &Prep, file: &HliFile, kind: &str) -> Result<TableClass, String> {
    let reg = Arc::new(MetricsRegistry::new());
    let _m = metrics::scoped(reg.clone());
    let (gcc_prog, hli_prog, stats) = schedule(&p.rtl, &|n| file.entry(n).map(EntryRef::Owned));
    let quarantined = reg.snapshot().counter("backend.quarantine.units");

    if stats.total_tests != p.clean_stats.total_tests || stats.gcc_yes != p.clean_stats.gcc_yes {
        return Err("GCC counters moved under a table mutation".into());
    }
    if gcc_prog != p.clean_gcc_prog {
        return Err("GccOnly schedule changed under a table mutation".into());
    }

    if quarantined > 0 {
        // Re-homing the last member of a class leaves the class empty —
        // a shape violation the verifier must catch. The other kinds
        // always stay well-formed; quarantine would mean the verifier
        // over-rejects legal may-information.
        if kind != "rehome-item" {
            return Err("well-formed mutation was quarantined".into());
        }
        if stats.combined_yes < p.clean_stats.combined_yes || stats.combined_yes > stats.gcc_yes {
            return Err("quarantined mutant left the degradation envelope".into());
        }
        return Ok(TableClass::Quarantined);
    }

    if stats == p.clean_stats && hli_prog == p.clean_hli_prog {
        return Ok(TableClass::Identical);
    }
    if kind == "flip-lcdd" {
        // The `>`-normalized direction is not consulted by the pair
        // scheduler; a flip altering decisions means LCDD leaked into a
        // query it must not answer.
        return Err("LCDD direction flip changed scheduling decisions".into());
    }
    if stats.combined_yes >= p.clean_stats.combined_yes {
        return Ok(TableClass::Degraded);
    }
    // A dropped alias edge or re-homed item made the pass more
    // aggressive: semantically wrong but well-formed trusted input that
    // no static verifier can reject. The differential executor is the
    // only oracle left.
    let run = hli_machine::execute(&hli_prog).map_err(|e| format!("mutant build: {e}"))?;
    if run.ret == p.oracle_ret && run.global_checksum == p.oracle_sum {
        Ok(TableClass::Aggressive)
    } else {
        Ok(TableClass::Detected)
    }
}

// ---------------------------------------------------------------------
// Quarantine determinism gate
// ---------------------------------------------------------------------

const QUARANTINE_SRC: &str = "int a[64]; int b[64]; int g;\n\
    void f1(int n) { int i; for (i = 0; i < n; i++) a[i] = b[i] + g; }\n\
    void f2(int n) { int i; for (i = 0; i < n; i++) b[i] = a[i] * 2; }\n\
    void f3(int n) { int i; for (i = 0; i < n; i++) g += a[i]; }\n\
    int main() { f1(32); f2(32); f3(32); return g; }";

/// Compile `QUARANTINE_SRC` with `f2`'s unit made invalid, at `jobs`
/// workers, returning the stats JSON and provenance JSONL.
fn run_quarantined(jobs: usize) -> (String, String) {
    let (p, s) = compile_to_ast(QUARANTINE_SRC).unwrap();
    let mut hli = generate_hli(&p, &s);
    let bad = hli.entry_mut("f2").expect("f2 unit");
    let (src, dst) = (bad.regions[0].equiv_classes[0].id, bad.regions[0].equiv_classes[1].id);
    bad.regions[0].lcdd_table.push(hli_core::LcddEntry {
        src,
        dst,
        kind: hli_core::DepKind::Maybe,
        distance: hli_core::Distance::Unknown,
    });
    assert!(
        !hli.entry("f2").unwrap().verify().is_empty(),
        "injected corruption undetectable"
    );
    let prog = lower_program(&p, &s);
    let reg = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(ProvenanceSink::new());
    sink.set_enabled(true);
    let ids = Arc::new(AtomicU64::new(1));
    {
        let _m = metrics::scoped(reg.clone());
        let _s = provenance::scoped(sink.clone());
        let _i = provenance::scoped_ids(ids);
        let passes = [
            PassSpec { mode: DepMode::GccOnly, caches: None },
            PassSpec { mode: DepMode::Combined, caches: None },
        ];
        schedule_program_passes(
            &prog,
            &|n| hli.entry(n).map(EntryRef::Owned),
            &passes,
            hli_machine::backend_by_name("r4600").unwrap(),
            jobs,
        );
    }
    (reg.snapshot().to_json(), provenance::to_jsonl(&sink.drain()))
}

fn quarantine_check(jobs_hi: usize) -> bool {
    let (seq_json, seq_prov) = run_quarantined(1);
    let (par_json, par_prov) = run_quarantined(jobs_hi);
    let mut ok = true;
    if !seq_json.contains("\"backend.quarantine.units\": 1") {
        eprintln!("FAIL: injected-invalid unit was not quarantined exactly once:\n{seq_json}");
        ok = false;
    }
    if !seq_prov.contains("quarantine.unit") || !seq_prov.contains("\"function\": \"f2\"") {
        eprintln!("FAIL: no quarantine provenance record names f2:\n{seq_prov}");
        ok = false;
    }
    if seq_json != par_json {
        eprintln!("FAIL: --stats json differs between --jobs 1 and --jobs {jobs_hi}");
        ok = false;
    }
    if seq_prov != par_prov {
        eprintln!("FAIL: provenance JSONL differs between --jobs 1 and --jobs {jobs_hi}");
        ok = false;
    }
    println!(
        "quarantine-check: 1 unit quarantined, stats json {} B, provenance {} record(s), \
         --jobs 1 vs --jobs {jobs_hi}: {}",
        seq_json.len(),
        seq_prov.lines().count(),
        if ok { "byte-identical" } else { "DIVERGED" }
    );
    ok
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = hli_harness::cli::ObsArgs::extract(&mut args).unwrap_or_else(|e| usage(&e));
    let jobs = hli_harness::report::extract_jobs(&mut args).unwrap_or_else(|e| usage(&e));
    let mut n: u64 = 10_000;
    let mut table_n: Option<u64> = None;
    let mut seed: u64 = 0xC0FFEE;
    let mut q_check = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--table" => {
                table_n = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--table needs an integer")),
                );
            }
            "--quarantine-check" => q_check = true,
            _ if a.starts_with("--") => usage(&format!("unknown flag `{a}`")),
            _ => n = a.parse().unwrap_or_else(|_| usage("N must be an integer")),
        }
    }

    if q_check {
        let ok = quarantine_check(if jobs == 0 { 8 } else { jobs.max(2) });
        obs.emit();
        std::process::exit(if ok { 0 } else { 1 });
    }

    let table_n = table_n.unwrap_or(n / 10);
    eprintln!("faultbench: preparing suite (tiny scale), seed {seed:#x}...");
    let preps = prepare();
    eprintln!(
        "faultbench: {} benchmarks; {n} byte-level + {table_n} table-level mutations...",
        preps.len()
    );

    let mut failures: Vec<String> = Vec::new();

    let ks: Vec<u64> = (0..n).collect();
    let (byte_out, byte_wall) =
        hli_obs::timing::time(|| hli_harness::par_map(&ks, |&k| byte_iteration(&preps, seed, k)));
    let mut bc = [0u64; 5];
    for o in byte_out {
        match o {
            Ok(ByteClass::Rejected) => bc[0] += 1,
            Ok(ByteClass::Quarantined) => bc[1] += 1,
            Ok(ByteClass::Identical) => bc[2] += 1,
            Ok(ByteClass::Variant) => bc[3] += 1,
            Ok(ByteClass::Caught) => bc[4] += 1,
            Err(e) => failures.push(e),
        }
    }
    println!(
        "byte-level ({n} mutations): {} rejected, {} quarantined, {} identical, \
         {} verify-clean variant(s), {} caught by differential executor   [{}]",
        bc[0],
        bc[1],
        bc[2],
        bc[3],
        bc[4],
        hli_obs::timing::fmt_ms(byte_wall)
    );

    let tks: Vec<u64> = (0..table_n).collect();
    let (table_out, table_wall) =
        hli_obs::timing::time(|| hli_harness::par_map(&tks, |&k| table_iteration(&preps, seed, k)));
    let mut tc = [0u64; 5];
    for o in table_out {
        match o {
            Ok(TableClass::Quarantined) => tc[0] += 1,
            Ok(TableClass::Identical) => tc[1] += 1,
            Ok(TableClass::Degraded) => tc[2] += 1,
            Ok(TableClass::Aggressive) => tc[3] += 1,
            Ok(TableClass::Detected) => tc[4] += 1,
            Err(e) => failures.push(e),
        }
    }
    println!(
        "table-level ({table_n} mutations): {} quarantined, {} identical, {} degraded, \
         {} aggressive-undetected, {} caught by differential executor   [{}]",
        tc[0],
        tc[1],
        tc[2],
        tc[3],
        tc[4],
        hli_obs::timing::fmt_ms(table_wall)
    );

    for f in failures.iter().take(10) {
        eprintln!("FAIL: {f}");
    }
    if failures.len() > 10 {
        eprintln!("... and {} more failure(s)", failures.len() - 10);
    }
    println!(
        "faultbench: {} hard failure(s), 0 panics escaped: {}",
        failures.len(),
        if failures.is_empty() {
            "PASS"
        } else {
            "FAILED"
        }
    );
    obs.emit();
    std::process::exit(if failures.is_empty() { 0 } else { 1 });
}

fn usage(msg: &str) -> ! {
    eprintln!("faultbench: {msg}");
    eprintln!(
        "usage: faultbench [N] [--seed S] [--table M] [--jobs J] [--quarantine-check] \
         [--stats text|json] [--trace-out t.json] [--provenance-out p.jsonl]"
    );
    std::process::exit(2)
}
