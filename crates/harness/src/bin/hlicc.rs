//! `hlicc` — the two-process compiler driver the paper's Figure 3 sketches.
//!
//! The paper's flow: the front-end (SUIF) compiles `foo.c` and writes
//! `foo.hli`; the back-end (GCC) compiles the same source, importing
//! `foo.hli` on demand function by function. This driver does both halves
//! over a real file so the interchange format is exercised end to end:
//!
//! ```text
//! hlicc front  <input.c> [-o out.hli]      # front end: write the HLI file
//! hlicc back   <input.c> <in.hli> [flags]  # back end: import, schedule, run
//! hlicc build  <input.c> [flags]           # both halves through a temp file
//! hlicc serve  [serve flags]               # batched compile daemon (docs/SERVE.md)
//! ```
//!
//! `serve` speaks NDJSON on stdin/stdout (or `--socket <path>`), answering
//! from a persistent content-addressed cache at `--cache <dir>` (default
//! `.hlicc-cache`); `--cache-max-mb N` bounds it, `--jobs N` sizes the
//! miss fan-out pool. The wire and cache contract is docs/SERVE.md.
//!
//! Back-end flags: `--no-hli` (GCC-only build: the same transforms, on
//! GCC's dependences alone), `--dump-rtl`, `--unroll N`, `--cse`, `--licm`,
//! `--machine NAME[,NAME...]` (select machine models; the first drives the
//! scheduler's latency table), `--time` (simulate on every selected model).
//!
//! Every subcommand also accepts the observability flags:
//! `--stats [text|json]` prints the metrics registry after the normal
//! output, `--trace-out <file.json>` writes every span as Chrome
//! `trace_event` JSON, and `--provenance-out <file.jsonl>` records every
//! HLI-justified optimization decision as one JSON object per line.

use hli_backend::cse::cse_function;
use hli_backend::ddg::DepMode;
use hli_backend::driver::{record_quarantine, vet_unit};
use hli_backend::licm::licm_function;
use hli_backend::lower::lower_with_loops;
use hli_backend::mapping::map_function;
use hli_backend::rtl::dump_func;
use hli_backend::sched::schedule_function;
use hli_backend::unroll::unroll_function;
use hli_core::serialize::SerializeOpts;
use hli_core::{encode_image, HliImage, HliQuery};
use hli_frontend::generate_hli;
use hli_lang::compile_to_ast;
use hli_machine::MachineBackend;

fn fail(msg: &str) -> ! {
    eprintln!("hlicc: {msg}");
    std::process::exit(1)
}

fn read_source(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

const OPTS: SerializeOpts = SerializeOpts { include_names: true };

/// The front end: write `input`'s HLI file to `out` and return the
/// summary line (which names the file only if the caller shows it).
fn front(input: &str, out: &str) -> String {
    let _phase = hli_obs::span("hlicc.front");
    let src = read_source(input);
    let (prog, sema) = compile_to_ast(&src).unwrap_or_else(|e| fail(&e));
    let hli = generate_hli(&prog, &sema);
    let errs = hli_core::verify_file(&hli);
    if let Some((unit, err)) = errs.first() {
        fail(&format!("internal: invalid HLI for `{unit}`: {err}"));
    }
    let bytes = encode_image(&hli, OPTS);
    std::fs::write(out, &bytes).unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    format!("{input}: {} unit(s), {} bytes of HLI", hli.entries.len(), bytes.len())
}

struct BackFlags {
    use_hli: bool,
    dump_rtl: bool,
    unroll: Option<u32>,
    cse: bool,
    licm: bool,
    time: bool,
    jobs: usize,
    /// Machine models (`--machine NAME[,NAME...]`): the first supplies the
    /// scheduler's and the estimators' latency table, and `--time`
    /// simulates on every listed model — so the timed configs are, by
    /// construction, the ones the scheduler assumed.
    machines: Vec<&'static dyn MachineBackend>,
}

/// Everything one function's trip through the back-end produced, carried
/// back to the main thread so diagnostics and dumps can be emitted in a
/// deterministic order.
struct FuncOut {
    messages: Vec<String>,
    dump: Option<String>,
    stats: hli_backend::ddg::QueryStats,
    func: hli_backend::rtl::RtlFunc,
}

/// The back end over `hli_path`; `temporary` marks the file `build`
/// wrote, which is removed as soon as it is read.
fn back(input: &str, hli_path: &str, temporary: bool, flags: BackFlags) {
    let _phase = hli_obs::span("hlicc.back");
    let src = read_source(input);
    let (prog, sema) = compile_to_ast(&src).unwrap_or_else(|e| fail(&e));
    let (rtl, loops) = lower_with_loops(&prog, &sema);
    // On-demand import (§3.2.1): opening the image parses only its
    // directory; each function's unit is decoded when its work item asks
    // for it.
    let image = HliImage::open_file(std::path::Path::new(hli_path));
    if temporary {
        let _ = std::fs::remove_file(hli_path);
    }
    let image = image.unwrap_or_else(|e| fail(&e.to_string()));
    let maintain = flags.unroll.is_some() || flags.cse || flags.licm;
    let mach = *flags.machines.first().unwrap_or_else(|| fail("no machine models selected"));

    // One pool work item per function (`--jobs N`, 0 = all CPUs). Each
    // item captures its metrics/provenance into a shard and returns its
    // diagnostics as data; the main thread then commits shards and prints
    // everything in name-sorted function order, so the output does not
    // depend on worker completion order.
    let prov_on = hli_obs::provenance::active().is_some();
    let results = hli_pool::run(flags.jobs, &rtl.funcs, |_w, f| {
        hli_obs::capture(prov_on, || -> Result<FuncOut, String> {
            let _s = hli_obs::span("backend.func");
            let mut messages = Vec::new();
            // Trust boundary (§3.2.3): a unit that fails to decode or
            // fails semantic verification is *quarantined* — this
            // function compiles on the pure GCC-dependence path instead
            // of aborting the whole build. A unit that passes is the
            // decoded copy `vet_unit` verified, which CSE/LICM/unroll
            // maintenance then rewrites in place.
            let vetted = match image.get_ref(&f.name) {
                _ if !flags.use_hli => None,
                Ok(e) => e.map(|e| vet_unit(&f.name, e)),
                Err(e) => {
                    let why = e.to_string();
                    record_quarantine(&f.name, None, 1, &why);
                    Some(Err(why))
                }
            };
            let mut entry = match vetted {
                Some(Ok(tables)) => Some(tables.into_owned()),
                Some(Err(why)) => {
                    messages.push(format!(
                        "warning: `{}`: HLI unit quarantined ({why}); compiling without HLI",
                        f.name
                    ));
                    None
                }
                None => None,
            };
            // One transform sequence, unroll → CSE → LICM → schedule, with
            // or without tables: without them every pass runs on GCC's
            // dependences alone and no HLI is maintained.
            let mut cur = f.clone();
            let mut map = entry.as_ref().map(|e| map_function(&cur, e));
            if let Some(map) = &map {
                if !map.unmapped_insns.is_empty() || !map.unmapped_items.is_empty() {
                    messages.push(format!(
                        "warning: `{}`: {} refs / {} items unmapped (treated as unknown)",
                        f.name,
                        map.unmapped_insns.len(),
                        map.unmapped_items.len()
                    ));
                }
            }
            let mode = if entry.is_some() {
                DepMode::Combined
            } else {
                DepMode::GccOnly
            };
            if let Some(u) = flags.unroll {
                let hli = entry.as_mut().zip(map.as_mut());
                let r = unroll_function(&cur, &loops[&f.name], u, hli, mach);
                cur = r.func;
                if r.unrolled > 0 {
                    messages.push(format!("`{}`: unrolled {} loop(s) by {u}", f.name, r.unrolled));
                }
            }
            if flags.cse {
                let r = cse_function(&cur, entry.as_mut().zip(map.as_mut()), mode, mach);
                if r.loads_eliminated > 0 {
                    messages
                        .push(format!("`{}`: CSE removed {} load(s)", f.name, r.loads_eliminated));
                }
                cur = r.func;
            }
            if flags.licm {
                let r = licm_function(&cur, entry.as_mut().zip(map.as_mut()), mode, mach);
                if r.hoisted > 0 {
                    messages.push(format!("`{}`: LICM hoisted {} load(s)", f.name, r.hoisted));
                }
                cur = r.func;
            }
            // Unlike import-time corruption (quarantined above), a verify
            // failure *after* maintenance is our own bug — keep it fatal
            // so it cannot hide.
            let errs = match &entry {
                Some(e) if maintain => e.verify(),
                _ => Vec::new(),
            };
            if let Some(first) = errs.first() {
                return Err(format!(
                    "maintenance broke `{}`: {first} ({} violation(s))",
                    f.name,
                    errs.len()
                ));
            }
            let query = entry.as_ref().map(HliQuery::new);
            let side = query
                .as_ref()
                .zip(map.as_ref())
                .map(|(query, map)| hli_backend::disamb::HliSide { query, map });
            let r = schedule_function(&cur, side.as_ref(), mode, mach);
            let dump = flags.dump_rtl.then(|| dump_func(&r.func));
            Ok(FuncOut { messages, dump, stats: r.stats, func: r.func })
        })
    });

    // Name-sorted emission: diagnostics, RTL dumps and shard commits all
    // follow the same stable order regardless of which worker ran what.
    let mut slots: Vec<Option<(Result<FuncOut, String>, hli_obs::ObsShard)>> =
        results.into_iter().map(Some).collect();
    let mut order: Vec<usize> = (0..slots.len()).collect();
    order.sort_by(|&a, &b| rtl.funcs[a].name.cmp(&rtl.funcs[b].name));
    let mut out = rtl.clone();
    let mut total_queries = hli_backend::ddg::QueryStats::default();
    for i in order {
        let (result, shard) = slots[i].take().unwrap();
        hli_obs::commit(shard);
        let fo = result.unwrap_or_else(|e| fail(&e));
        for m in &fo.messages {
            eprintln!("{m}");
        }
        if let Some(d) = &fo.dump {
            print!("{d}");
        }
        total_queries.add(&fo.stats);
        *out.func_mut(&rtl.funcs[i].name).unwrap() = fo.func;
    }

    println!(
        "dependence queries: {} (GCC yes {}, HLI yes {}, combined {})",
        total_queries.total_tests,
        total_queries.gcc_yes,
        total_queries.hli_yes,
        total_queries.combined_yes
    );

    // With --time, time on exactly the models the scheduler assumed (the
    // first one supplied its latency table) — no hardcoded config pair.
    let machs: &[&dyn MachineBackend] = if flags.time { &flags.machines } else { &[] };
    let (res, times) = hli_machine::time_on(&out, machs)
        .unwrap_or_else(|e| fail(&format!("execution fault: {e}")));
    println!(
        "program result: {} ({} dynamic instructions, {} loads, {} stores)",
        res.ret, res.dyn_insns, res.loads, res.stores
    );
    if flags.time {
        for (m, (s, _)) in flags.machines.iter().zip(&times) {
            let detail: Vec<String> =
                s.detail.iter().map(|(k, v)| format!("{v} {}", k.replace('_', " "))).collect();
            println!("{:<7}: {} cycles ({})", m.name(), s.cycles, detail.join(", "));
        }
    }
}

fn serve(rest: &[String]) {
    let mut cfg = hli_serve::ServeConfig {
        cache_dir: std::path::PathBuf::from(".hlicc-cache"),
        cache_max_bytes: 0,
        jobs: 0,
    };
    let mut socket: Option<std::path::PathBuf> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache" => {
                cfg.cache_dir =
                    it.next().unwrap_or_else(|| fail("--cache needs a directory")).into();
            }
            "--cache-max-mb" => {
                let mb: u64 = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--cache-max-mb needs a size"));
                cfg.cache_max_bytes = mb * 1024 * 1024;
            }
            "--jobs" => {
                cfg.jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--jobs needs a worker count"));
            }
            "--socket" => {
                socket = Some(it.next().unwrap_or_else(|| fail("--socket needs a path")).into());
            }
            other => fail(&format!("unknown serve flag `{other}`")),
        }
    }
    let server = hli_serve::Server::new(cfg).unwrap_or_else(|e| fail(&format!("cache: {e}")));
    let result = match socket {
        Some(path) => server.run_unix(&path),
        None => {
            let stdin = std::io::stdin();
            let mut stdout = std::io::stdout();
            server.run(stdin.lock(), &mut stdout).map(|_| ())
        }
    };
    result.unwrap_or_else(|e| fail(&format!("serve: {e}")));
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: hlicc front <input.c> [-o out.hli]\n       hlicc back <input.c> <in.hli> [--no-hli --jobs N --machine NAME[,NAME...] --dump-rtl --unroll N --cse --licm --time]\n       hlicc build <input.c> [back-end flags]\n       hlicc serve [--cache DIR --cache-max-mb N --jobs N --socket PATH]\n       (all: --stats [text|json], --trace-out <file.json>, --provenance-out <file.jsonl>)";
    let obs = hli_harness::cli::ObsArgs::extract(&mut args).unwrap_or_else(|e| fail(&e));
    let Some(cmd) = args.first() else { fail(usage) };
    match cmd.as_str() {
        "front" => {
            let input = args.get(1).unwrap_or_else(|| fail(usage));
            let out = match args.get(2).map(String::as_str) {
                Some("-o") => args.get(3).unwrap_or_else(|| fail(usage)).clone(),
                _ => format!("{}.hli", input.trim_end_matches(".c")),
            };
            println!("{} -> {out}", front(input, &out));
        }
        "back" | "build" => {
            let input = args.get(1).unwrap_or_else(|| fail(usage)).clone();
            let (hli_path, rest_from) = if cmd == "back" {
                (Some(args.get(2).unwrap_or_else(|| fail(usage)).clone()), 3)
            } else {
                (None, 2)
            };
            let rest = &args[rest_from.min(args.len())..];
            let mut flags = BackFlags {
                use_hli: true,
                dump_rtl: false,
                unroll: None,
                cse: false,
                licm: false,
                time: false,
                jobs: 0,
                machines: hli_harness::default_machines(),
            };
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--no-hli" => flags.use_hli = false,
                    "--dump-rtl" => flags.dump_rtl = true,
                    "--cse" => flags.cse = true,
                    "--licm" => flags.licm = true,
                    "--time" => flags.time = true,
                    "--jobs" => {
                        flags.jobs = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| fail("--jobs needs a worker count"));
                    }
                    "--machine" => {
                        let spec =
                            it.next().unwrap_or_else(|| fail("--machine needs a target name"));
                        flags.machines = spec
                            .split(',')
                            .map(|n| {
                                hli_machine::backend_by_name(n).unwrap_or_else(|| {
                                    fail(&format!(
                                        "--machine: unknown target `{n}` (known: {})",
                                        hli_machine::backend_names().join(", ")
                                    ))
                                })
                            })
                            .collect();
                    }
                    "--unroll" => {
                        let n: u32 = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| fail("--unroll needs a factor >= 2"));
                        if n < 2 {
                            fail("--unroll needs a factor >= 2");
                        }
                        flags.unroll = Some(n);
                    }
                    other => fail(&format!("unknown flag `{other}`\n{usage}")),
                }
            }
            let temporary = hli_path.is_none();
            let hli_path = hli_path.unwrap_or_else(|| {
                // build: run the front end into a temp file first, once
                // the flags are known to be good. The file is gone when
                // the run ends, so the summary does not name it.
                let tmp = std::env::temp_dir().join(format!("hlicc-{}.hli", std::process::id()));
                let path = tmp.to_string_lossy().into_owned();
                println!("{}", front(&input, &path));
                path
            });
            back(&input, &hli_path, temporary, flags);
        }
        "serve" => serve(&args[1..]),
        _ => fail(usage),
    }
    obs.emit();
}
