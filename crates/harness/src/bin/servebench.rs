//! `servebench` — the edit-recompile workload for `hlicc serve`
//! (docs/SERVE.md, "Benchmarking"; regeneration guide in EXPERIMENTS.md).
//!
//! Epoch 0 submits the pristine generated corpus as one compile batch;
//! every later epoch applies a line-count-preserving one-constant edit
//! (`hli_suite::corpus::edit_program`) to one function of one program and
//! resubmits the *whole* corpus — the IDE "rebuild all after an edit"
//! shape. Steady-state batches therefore miss exactly once, so the hit
//! rate is (N−1)/N by construction, where N = programs × (funcs + 1).
//!
//! ```text
//! servebench [--programs P] [--funcs F] [--epochs E] [--seed S]
//!            [--jobs N] [--cache DIR] [--cache-max-mb M]
//!            [--keep-cache] [--check]
//! ```
//!
//! `--check` additionally runs the determinism gate on fresh scratch
//! caches (exit 1 on violation):
//!
//! * **jobs invariance** — the workload at `--jobs 1` and `--jobs 8`
//!   produces byte-identical response lines, metrics snapshots
//!   (`serve.*` included) and provenance JSONL;
//! * **cold-vs-warm equivalence** — replaying the workload on the
//!   populated cache produces byte-identical provenance JSONL and
//!   metrics modulo the `serve.*` namespace, and response lines that
//!   differ only in `"source"`/hit counters;
//! * **direct mode** — the warm replay answers every program from its
//!   entry (`serve.program.hits` = programs × epochs, no
//!   `serve.program.misses`), and each steady-state epoch of the cold run
//!   preps exactly one program, the edited one;
//! * **steady-state hit rate ≥ 80%**.

use hli_obs::provenance::ProvenanceSink;
use hli_obs::{metrics, provenance, MetricsRegistry, MetricsSnapshot};
use hli_serve::{CompileFlags, ProgramReq, Request, Response, ServeConfig, Server};
use hli_suite::corpus::{edit_program, generate, CorpusSpec};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

fn fail(msg: &str) -> ! {
    eprintln!("servebench: {msg}");
    std::process::exit(1)
}

struct Args {
    programs: usize,
    funcs: usize,
    epochs: usize,
    seed: u64,
    jobs: usize,
    cache: Option<PathBuf>,
    cache_max_bytes: u64,
    keep_cache: bool,
    check: bool,
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        programs: 3,
        funcs: 8,
        epochs: 6,
        seed: 0xC0FFEE,
        jobs: 0,
        cache: None,
        cache_max_bytes: 0,
        keep_cache: false,
        check: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            it.next()
                .and_then(|v| {
                    let v = v
                        .strip_prefix("0x")
                        .map_or_else(|| v.parse().ok(), |h| u64::from_str_radix(h, 16).ok());
                    v
                })
                .unwrap_or_else(|| fail(&format!("{what} needs a number")))
        };
        match a.as_str() {
            "--programs" => out.programs = num("--programs") as usize,
            "--funcs" => out.funcs = num("--funcs") as usize,
            "--epochs" => out.epochs = num("--epochs") as usize,
            "--seed" => out.seed = num("--seed"),
            "--jobs" => out.jobs = num("--jobs") as usize,
            "--cache-max-mb" => out.cache_max_bytes = num("--cache-max-mb") * 1024 * 1024,
            "--cache" => {
                out.cache =
                    Some(it.next().unwrap_or_else(|| fail("--cache needs a directory")).into());
            }
            "--keep-cache" => out.keep_cache = true,
            "--check" => out.check = true,
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    if out.epochs == 0 {
        fail("--epochs must be at least 1");
    }
    out
}

/// Build the per-epoch compile request lines. Edits accumulate
/// (latest-wins per function via summed deltas), and every epoch
/// resubmits the whole corpus.
fn build_workload(args: &Args) -> Vec<String> {
    let spec = CorpusSpec {
        programs: args.programs,
        funcs: args.funcs,
        seed: args.seed,
        ..Default::default()
    };
    let pristine: Vec<(String, String)> =
        generate(&spec).into_iter().map(|b| (b.name, b.source)).collect();
    let mut edits: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut lines = Vec::with_capacity(args.epochs);
    for epoch in 0..args.epochs {
        if epoch > 0 {
            let p = (epoch - 1) % pristine.len();
            let k = ((epoch - 1) / pristine.len()) % args.funcs.max(1);
            *edits.entry((p, k)).or_insert(0) += 10;
        }
        let programs: Vec<ProgramReq> = pristine
            .iter()
            .enumerate()
            .map(|(pi, (name, source))| {
                let mut src = source.clone();
                for (&(p, k), &delta) in &edits {
                    if p == pi {
                        src = edit_program(&src, k, delta)
                            .unwrap_or_else(|| fail(&format!("cannot edit f{k} of {name}")));
                    }
                }
                ProgramReq {
                    name: name.clone(),
                    source: src,
                    flags: CompileFlags::default(),
                }
            })
            .collect();
        lines.push(Request::Compile { id: epoch as u64, programs }.to_line());
    }
    lines
}

struct RunOut {
    responses: Vec<String>,
    /// Per-epoch `(hits, misses)`.
    epochs: Vec<(u64, u64)>,
    /// Per-epoch `serve.program.misses`: programs prepped.
    prepped: Vec<u64>,
    snapshot: MetricsSnapshot,
    jsonl: String,
}

fn epoch_outcome(line: &str) -> (u64, u64) {
    match Response::parse(line) {
        Ok(Response::Compile { results, hits, misses, .. }) => {
            for r in &results {
                if let Err(e) = &r.outcome {
                    fail(&format!("program {} failed: {e}", r.program));
                }
            }
            (hits, misses)
        }
        other => fail(&format!("unexpected response: {other:?}\n{line}")),
    }
}

/// Run the workload under fully scoped observability (the determinism
/// tests' `run_at` pattern), so two runs are byte-comparable.
fn run_scoped(cache_dir: &Path, max_bytes: u64, jobs: usize, lines: &[String]) -> RunOut {
    let reg = Arc::new(MetricsRegistry::new());
    let sink = Arc::new(ProvenanceSink::new());
    sink.set_enabled(true);
    let _m = metrics::scoped(reg.clone());
    let _s = provenance::scoped(sink.clone());
    let _i = provenance::scoped_ids(Arc::new(AtomicU64::new(1)));
    let server = Server::new(ServeConfig {
        cache_dir: cache_dir.to_path_buf(),
        cache_max_bytes: max_bytes,
        jobs,
    })
    .unwrap_or_else(|e| fail(&format!("cache {}: {e}", cache_dir.display())));
    let prepped_so_far = || reg.snapshot().counter("serve.program.misses");
    let mut prepped = Vec::with_capacity(lines.len());
    let mut responses = Vec::with_capacity(lines.len());
    for line in lines {
        let before = prepped_so_far();
        responses.push(server.handle_line(line).0);
        prepped.push(prepped_so_far() - before);
    }
    let epochs = responses.iter().map(|r| epoch_outcome(r)).collect();
    RunOut {
        epochs,
        prepped,
        responses,
        snapshot: reg.snapshot(),
        jsonl: provenance::to_jsonl(&sink.drain()),
    }
}

/// Steady-state hit rate: epochs after the cold first one.
fn steady_rate(epochs: &[(u64, u64)]) -> (u64, u64) {
    let (mut hits, mut total) = (0, 0);
    for &(h, m) in &epochs[1..] {
        hits += h;
        total += h + m;
    }
    (hits, total)
}

/// Drop the `serve.*` namespace — the one namespace allowed to differ
/// between a cold and a warm run (its *job* is to describe the cache).
fn strip_serve(snap: &MetricsSnapshot) -> String {
    let mut s = snap.clone();
    s.counters.retain(|k, _| !k.starts_with("serve."));
    s.gauges.retain(|k, _| !k.starts_with("serve."));
    s.histograms.retain(|k, _| !k.starts_with("serve."));
    s.to_json()
}

/// Canonical response line with the cache markers zeroed, for
/// cold-vs-warm comparison.
fn neutral(line: &str) -> String {
    let mut r = Response::parse(line).unwrap_or_else(|e| fail(&e));
    if let Response::Compile { results, hits, misses, .. } = &mut r {
        (*hits, *misses) = (0, 0);
        for pr in results.iter_mut() {
            if let Ok(funcs) = &mut pr.outcome {
                for f in funcs {
                    f.cached = false;
                }
            }
        }
    }
    r.to_line()
}

fn check(args: &Args, lines: &[String]) -> bool {
    let scratch = std::env::temp_dir().join(format!("servebench-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let d1 = scratch.join("j1");
    let d8 = scratch.join("j8");
    let mut ok = true;
    let mut gate = |name: &str, pass: bool, detail: String| {
        let verdict = if pass {
            "ok".to_string()
        } else {
            format!("FAIL ({detail})")
        };
        println!("check: {name} ... {verdict}");
        ok &= pass;
    };

    let a = run_scoped(&d1, 0, 1, lines);
    let b = run_scoped(&d8, 0, 8, lines);
    gate(
        "jobs-1-vs-8 response lines byte-identical",
        a.responses == b.responses,
        "response payloads differ between job counts".into(),
    );
    gate(
        "jobs-1-vs-8 metrics byte-identical (serve.* included)",
        a.snapshot.to_json() == b.snapshot.to_json(),
        "metrics snapshots differ between job counts".into(),
    );
    gate(
        "jobs-1-vs-8 provenance JSONL byte-identical",
        a.jsonl == b.jsonl,
        "provenance records differ between job counts".into(),
    );

    // Warm replay on the populated jobs-1 cache: everything hits.
    let c = run_scoped(&d1, 0, 1, lines);
    let warm_misses: u64 = c.epochs.iter().map(|&(_, m)| m).sum();
    gate(
        "warm replay is all hits",
        warm_misses == 0,
        format!("{warm_misses} misses"),
    );
    let (entry_hits, prepped) = (
        c.snapshot.counter("serve.program.hits"),
        c.snapshot.counter("serve.program.misses"),
    );
    let programs = (args.programs * args.epochs) as u64;
    gate(
        "warm replay answers every program from its entry",
        entry_hits == programs && prepped == 0,
        format!("{entry_hits} of {programs} programs from entries, {prepped} prepped"),
    );
    gate(
        "each steady-state epoch preps exactly one program",
        a.prepped[1..].iter().all(|&n| n == 1),
        format!("programs prepped per epoch: {:?}", a.prepped),
    );
    gate(
        "cold-vs-warm responses identical modulo cache markers",
        a.responses
            .iter()
            .map(|l| neutral(l))
            .eq(c.responses.iter().map(|l| neutral(l))),
        "cached answers differ from cold ones".into(),
    );
    gate(
        "cold-vs-warm metrics identical outside serve.*",
        strip_serve(&a.snapshot) == strip_serve(&c.snapshot),
        "compile metrics depend on cache state".into(),
    );
    gate(
        "cold-vs-warm provenance JSONL byte-identical",
        a.jsonl == c.jsonl,
        "provenance depends on cache state".into(),
    );

    let (hits, total) = steady_rate(&a.epochs);
    let rate = if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    };
    gate(
        "steady-state hit rate >= 80%",
        args.epochs >= 2 && rate >= 0.8,
        format!("{hits}/{total} = {:.1}%", rate * 100.0),
    );
    println!(
        "servebench check: {} (steady-state hit rate {:.1}%, {hits}/{total})",
        if ok { "PASS" } else { "FAIL" },
        rate * 100.0
    );
    let _ = std::fs::remove_dir_all(&scratch);
    ok
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let obs = hli_harness::cli::ObsArgs::extract(&mut args).unwrap_or_else(|e| fail(&e));
    let args = parse_args(&args);
    let lines = build_workload(&args);

    // Report run: global observability (so --stats/--provenance-out see
    // it), user-chosen or throwaway cache.
    let (cache_dir, ephemeral) = match &args.cache {
        Some(d) => (d.clone(), false),
        None => (
            std::env::temp_dir().join(format!("servebench-{}", std::process::id())),
            !args.keep_cache,
        ),
    };
    let server = Server::new(ServeConfig {
        cache_dir: cache_dir.clone(),
        cache_max_bytes: args.cache_max_bytes,
        jobs: args.jobs,
    })
    .unwrap_or_else(|e| fail(&format!("cache {}: {e}", cache_dir.display())));
    println!(
        "servebench: {} program(s) x {} function(s) (+main), {} epoch(s), cache {}",
        args.programs,
        args.funcs,
        args.epochs,
        cache_dir.display()
    );
    let t0 = Instant::now();
    let mut epochs = Vec::with_capacity(args.epochs);
    for (epoch, line) in lines.iter().enumerate() {
        let t = Instant::now();
        let (resp, _) = server.handle_line(line);
        let (h, m) = epoch_outcome(&resp);
        epochs.push((h, m));
        println!(
            "epoch {epoch:>3}: {m:>4} miss, {h:>4} hit, {:>8.2} ms{}",
            t.elapsed().as_secs_f64() * 1e3,
            if epoch == 0 { "  (cold)" } else { "" }
        );
    }
    let total_funcs: u64 = epochs.iter().map(|&(h, m)| h + m).sum();
    let secs = t0.elapsed().as_secs_f64();
    let (hits, steady_total) = steady_rate(&epochs);
    if steady_total > 0 {
        println!(
            "steady-state hit rate: {:.1}% ({hits}/{steady_total})",
            100.0 * hits as f64 / steady_total as f64
        );
    }
    println!(
        "throughput: {:.0} functions/s ({total_funcs} over {secs:.2}s)",
        total_funcs as f64 / secs
    );
    if ephemeral {
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    let ok = !args.check || check(&args, &lines);
    obs.emit();
    if !ok {
        std::process::exit(1);
    }
}
