//! The daemon itself: batch handling, direct-mode entry lookup, cache
//! probing, pool fan-out of misses, and the stable-order commit that
//! keeps every observability artifact byte-identical across cache states
//! and job counts (docs/SERVE.md, "Determinism contract").
//!
//! Request flow for one `compile` batch:
//!
//! 1. **Plan** (caller thread, request order, one cache lock): derive
//!    each program's [`program_key`]. If its entry exists and every
//!    function object it lists is on disk, those objects are the hits
//!    and the entry's stored prep shard is committed: the front end does
//!    not run. Otherwise **prep** runs under an [`hli_obs::capture_cfg`]
//!    with provenance forced on — front end, HLI generation and lowering,
//!    then each function's [`CacheKey`] from its pre-schedule dump, HLI
//!    unit and flags — its shard is committed, and every key is probed,
//!    reusing the objects a stale entry already read (docs/SERVE.md,
//!    "Direct mode").
//! 2. **Fan out**: misses run over [`hli_pool::run`] — each function is
//!    scheduled alone (its whole program's HLI stays visible through the
//!    lookup, so call REF/MOD answers match a monolithic compile) under
//!    a capture with provenance forced on.
//! 3. **Commit** (caller thread, request order × name-sorted function
//!    order): hits replay their stored shard, misses commit their fresh
//!    capture and write the cache object. A prepped program then writes
//!    its entry. The interleaving is position-stable, which is the whole
//!    determinism argument: a shard's content is the same whether it was
//!    captured or replayed.

use crate::cache::{CachedObject, DiskCache, ProgramEntry, ShardData};
use crate::key::{fnv1a, function_key, program_key, CacheKey};
use crate::proto::{CompileFlags, FuncResult, ProgramReq, ProgramResult, Request, Response};
use hli_backend::ddg::QueryStats;
use hli_backend::driver::{schedule_program_passes, PassSpec};
use hli_backend::lower::lower_program;
use hli_backend::rtl::{dump_func, RtlProgram};
use hli_core::image::EntryRef;
use hli_core::HliFile;
use hli_obs::json::{self, Json};
use hli_obs::metrics;
use hli_obs::{capture_cfg, CaptureCfg, ObsShard};
use std::collections::BTreeMap;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cache root (`<cache_dir>/v1/objects/…`). Created if absent.
    pub cache_dir: PathBuf,
    /// Object-byte budget for LRU eviction; `0` = unlimited.
    pub cache_max_bytes: u64,
    /// Pool workers for miss fan-out (`0` = one per CPU, `1` = inline).
    pub jobs: usize,
}

/// A running daemon: one instance per cache directory, any number of
/// sequential connections.
pub struct Server {
    cfg: ServeConfig,
    cache: Mutex<DiskCache>,
    /// The build identity every program key commits to.
    build: String,
}

/// Provenance is forced on in every capture regardless of whether a sink
/// is active: the shard goes into the cache, and a stored shard must be
/// complete enough to replay under any future observability
/// configuration.
const CAPTURE: CaptureCfg = CaptureCfg { provenance: true, trace: false };

/// The daemon build a program key commits to: the running executable's
/// length and modification time, a compiler cache's default compiler
/// check. When they cannot be read, a value of this process alone, so
/// entries then help only within it.
fn build_identity() -> String {
    let exe = std::env::current_exe().and_then(std::fs::metadata);
    match exe.and_then(|m| Ok((m.len(), m.modified()?))) {
        Ok((len, mtime)) => {
            let t = mtime.duration_since(UNIX_EPOCH).unwrap_or_default();
            format!("exe len={len} mtime={}.{:09}", t.as_secs(), t.subsec_nanos())
        }
        Err(_) => {
            static START: OnceLock<u128> = OnceLock::new();
            let start = START.get_or_init(|| {
                SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default().as_nanos()
            });
            format!("pid={} start={start}", std::process::id())
        }
    }
}

/// One function awaiting its answer (plan output, probe in/out).
struct FuncPlan {
    name: String,
    key: CacheKey,
    hit: Option<CachedObject>,
}

/// What prep builds for a program's misses to compile from.
struct PrepProg {
    rtl: RtlProgram,
    hli: HliFile,
}

/// One planned program.
struct ProgPlan {
    flags: CompileFlags,
    /// Prep's output and the entry to write once the program's objects
    /// are stored; `None` when the entry answered, since then every
    /// function hits and nothing is compiled or written.
    prep: Option<(PrepProg, ProgramEntry)>,
    /// Name-sorted — the commit and response order.
    plans: Vec<FuncPlan>,
}

fn prep_program(req: &ProgramReq) -> Result<(PrepProg, Vec<FuncPlan>), String> {
    let (prog, sema) = hli_lang::compile_to_ast(&req.source)?;
    let hli = hli_frontend::generate_hli(&prog, &sema);
    let rtl = lower_program(&prog, &sema);
    let mut plans: Vec<FuncPlan> = rtl
        .funcs
        .iter()
        .map(|f| {
            let dump = dump_func(f);
            let entry = hli.entry(&f.name).map(EntryRef::Owned);
            let key = function_key(&dump, entry.as_ref(), &req.flags);
            FuncPlan { name: f.name.clone(), key, hit: None }
        })
        .collect();
    plans.sort_by(|a, b| a.name.cmp(&b.name));
    Ok((PrepProg { rtl, hli }, plans))
}

/// Schedule one function of a prepped program (a cache miss), returning
/// its scheduled dump and query stats. Runs inside a capture on a pool
/// worker.
fn compile_one(prep: &PrepProg, flags: CompileFlags, name: &str) -> (String, QueryStats) {
    let func = prep.rtl.func(name).expect("every planned function was lowered");
    let single = RtlProgram {
        funcs: vec![func.clone()],
        global_addr: prep.rtl.global_addr.clone(),
        global_init: prep.rtl.global_init.clone(),
        globals_end: prep.rtl.globals_end,
    };
    let mach = flags.machine.backend();
    let passes = [PassSpec { mode: flags.mode.dep_mode(), caches: None }];
    let mut out = schedule_program_passes(
        &single,
        &|n| prep.hli.entry(n).map(EntryRef::Owned),
        &passes,
        mach,
        1,
    );
    let (sched, stats) = out.pop().expect("one pass in, one result out");
    (dump_func(&sched.funcs[0]), stats)
}

impl Server {
    /// Open (or create) the cache and stand the daemon up.
    pub fn new(cfg: ServeConfig) -> io::Result<Server> {
        let cache = DiskCache::open(&cfg.cache_dir, cfg.cache_max_bytes)?;
        Ok(Server { cfg, cache: Mutex::new(cache), build: build_identity() })
    }

    /// Handle one request line; returns the response line (no trailing
    /// newline) and whether the request asked the daemon to shut down.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        match Request::parse(line) {
            Ok(Request::Compile { id, programs }) => {
                (self.handle_compile(id, &programs).to_line(), false)
            }
            Ok(Request::Stats { id }) => (self.handle_stats(id).to_line(), false),
            Ok(Request::Shutdown { id }) => (Response::Shutdown { id }.to_line(), true),
            Err(error) => {
                metrics::cur().counter("serve.errors").inc();
                // Best-effort id echo: the line may still be valid JSON
                // with an integer id even though the request is not.
                let id = json::parse(line).ok().and_then(|v| {
                    v.get("id")
                        .and_then(Json::as_num)
                        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                        .map(|n| n as u64)
                });
                (Response::Error { id, error }.to_line(), false)
            }
        }
    }

    /// Step 1 for one program: answer it from its entry, or prep it and
    /// probe its keys. Counts one `serve.program.{hits,misses}` outcome.
    fn plan_program(&self, cache: &mut DiskCache, req: &ProgramReq) -> Result<ProgPlan, String> {
        let reg = metrics::cur();
        let key = program_key(&self.build, req);
        // Objects read through the entry, up to the first one missing.
        let mut probed: Vec<(CacheKey, Option<CachedObject>)> = Vec::new();
        if let Some(entry) = cache.get_entry(key) {
            let mut stale = false;
            for (name, fkey) in &entry.functions {
                let hit = cache.get(*fkey, name);
                stale = hit.is_none();
                probed.push((*fkey, hit));
                if stale {
                    break;
                }
            }
            if !stale {
                reg.counter("serve.program.hits").inc();
                hli_obs::commit(entry.shard.into_shard());
                let plans = entry
                    .functions
                    .into_iter()
                    .zip(probed)
                    .map(|((name, key), (_, hit))| FuncPlan { name, key, hit })
                    .collect();
                return Ok(ProgPlan { flags: req.flags, prep: None, plans });
            }
        }
        reg.counter("serve.program.misses").inc();
        let (prepped, shard) = capture_cfg(CAPTURE, || prep_program(req));
        let shard = ShardData::from(shard);
        hli_obs::commit(shard.clone().into_shard());
        let (prep, mut plans) = prepped?;
        for plan in &mut plans {
            plan.hit = match probed.iter_mut().find(|(k, _)| *k == plan.key) {
                Some((_, hit)) => hit.take(),
                None => cache.get(plan.key, &plan.name),
            };
        }
        let functions = plans.iter().map(|p| (p.name.clone(), p.key)).collect();
        let entry = ProgramEntry { key, functions, shard };
        Ok(ProgPlan { flags: req.flags, prep: Some((prep, entry)), plans })
    }

    fn handle_compile(&self, id: u64, programs: &[ProgramReq]) -> Response {
        let reg = metrics::cur();
        reg.counter("serve.batches").inc();
        reg.counter("serve.requests").add(programs.len() as u64);
        reg.histogram("serve.batch.programs").observe(programs.len() as u64);

        // 1. Plan, in request order, under one cache lock.
        let progs: Vec<Result<ProgPlan, String>> = {
            let mut cache = self.cache.lock().expect("no batch panicked holding the cache");
            programs.iter().map(|req| self.plan_program(&mut cache, req)).collect()
        };
        let mut misses: Vec<(usize, usize)> = Vec::new();
        for (pi, prog) in progs.iter().enumerate() {
            let Ok(prog) = prog else { continue };
            for (qi, plan) in prog.plans.iter().enumerate() {
                if plan.hit.is_none() {
                    misses.push((pi, qi));
                }
            }
        }

        // 2. Fan the misses out.
        let compiled: Vec<((String, QueryStats), ObsShard)> =
            hli_pool::run(self.cfg.jobs, &misses, |_w, &(pi, qi)| {
                let prog = progs[pi].as_ref().expect("misses index only planned programs");
                let (prep, _) = prog.prep.as_ref().expect("only a prepped program misses");
                capture_cfg(CAPTURE, || compile_one(prep, prog.flags, &prog.plans[qi].name))
            });

        // 3. Commit + assemble, request order × name-sorted functions; the
        // misses were collected, and so compiled, in that order.
        let mut compiled = compiled.into_iter();
        let (mut hits, mut miss_count) = (0u64, 0u64);
        let mut results: Vec<ProgramResult> = Vec::with_capacity(programs.len());
        let mut cache = self.cache.lock().expect("no batch panicked holding the cache");
        for (req, prog) in programs.iter().zip(progs) {
            let prog = match prog {
                Err(e) => {
                    reg.counter("serve.errors").inc();
                    results.push(ProgramResult { program: req.name.clone(), outcome: Err(e) });
                    continue;
                }
                Ok(p) => p,
            };
            let mut funcs: Vec<FuncResult> = Vec::with_capacity(prog.plans.len());
            for plan in prog.plans {
                let (obj, cached) = match plan.hit {
                    Some(mut obj) => {
                        hits += 1;
                        hli_obs::commit(std::mem::take(&mut obj.shard).into_shard());
                        (obj, true)
                    }
                    None => {
                        miss_count += 1;
                        let ((dump, stats), shard) =
                            compiled.next().expect("each miss compiled exactly once");
                        // A cache object keeps the whole shard: move it
                        // into the object, store it, and commit it from
                        // there as a hit does. `put` writes only `serve.*`
                        // keys, so committing after it changes no byte.
                        let mut obj = CachedObject {
                            key: plan.key,
                            function: plan.name,
                            sched_hash: fnv1a(dump.as_bytes()),
                            dump,
                            stats,
                            shard: ShardData::from(shard),
                        };
                        if cache.put(&obj).is_err() {
                            // The answer is still correct; only the next
                            // compile of this function pays again.
                            reg.counter("serve.errors").inc();
                        }
                        hli_obs::commit(std::mem::take(&mut obj.shard).into_shard());
                        (obj, false)
                    }
                };
                funcs.push(FuncResult {
                    function: obj.function,
                    key: obj.key.hex(),
                    cached,
                    sched_hash: format!("{:016x}", obj.sched_hash),
                    stats: obj.stats,
                    dump: prog.flags.dump.then_some(obj.dump),
                });
            }
            if let Some((_, entry)) = prog.prep {
                if cache.put_entry(&entry).is_err() {
                    // Only the next submission of this program pays prep.
                    reg.counter("serve.errors").inc();
                }
            }
            results.push(ProgramResult { program: req.name.clone(), outcome: Ok(funcs) });
        }
        Response::Compile { id, results, hits, misses: miss_count }
    }

    fn handle_stats(&self, id: u64) -> Response {
        let snap = metrics::cur().snapshot();
        let stats: BTreeMap<String, u64> = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("serve."))
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        Response::Stats { id, stats }
    }

    /// Serve one NDJSON connection until EOF or a `shutdown` request.
    /// Returns `true` iff shutdown was requested (the response is
    /// written before returning).
    pub fn run<R: BufRead, W: Write>(&self, reader: R, writer: &mut W) -> io::Result<bool> {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let (resp, shutdown) = self.handle_line(&line);
            writeln!(writer, "{resp}")?;
            writer.flush()?;
            if shutdown {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Accept clients on a Unix socket, one at a time, until a client
    /// sends `shutdown`. A client I/O error drops that connection; the
    /// daemon keeps listening. The socket file is (re)created on bind
    /// and removed on orderly shutdown.
    pub fn run_unix(&self, path: &Path) -> io::Result<()> {
        let _ = std::fs::remove_file(path);
        let listener = std::os::unix::net::UnixListener::bind(path)?;
        for stream in listener.incoming() {
            let stream = stream?;
            let reader = io::BufReader::new(stream.try_clone()?);
            let mut writer = stream;
            match self.run(reader, &mut writer) {
                Ok(true) => break,
                Ok(false) | Err(_) => continue,
            }
        }
        let _ = std::fs::remove_file(path);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("hli-serve-daemon-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn server(dir: &Path, jobs: usize) -> Server {
        Server::new(ServeConfig { cache_dir: dir.to_path_buf(), cache_max_bytes: 0, jobs }).unwrap()
    }

    const SRC: &str = "int a[8];\n\
        int f(int *p, int *q, int n) {\n\
            int i;\n\
            for (i = 0; i < n; i++) a[i] = p[i] + q[0];\n\
            return a[0];\n\
        }\n\
        int main() { return f(a, a, 4); }\n";

    fn compile_line(id: u64, name: &str, source: &str) -> String {
        Request::Compile {
            id,
            programs: vec![ProgramReq {
                name: name.into(),
                source: source.into(),
                flags: CompileFlags::default(),
            }],
        }
        .to_line()
    }

    #[test]
    fn second_compile_is_all_hits_and_byte_identical() {
        let dir = tmp("warm");
        let reg = Arc::new(hli_obs::MetricsRegistry::new());
        let _g = metrics::scoped(reg);
        let s = server(&dir, 1);
        let (cold, _) = s.handle_line(&compile_line(1, "p", SRC));
        let (warm, _) = s.handle_line(&compile_line(1, "p", SRC));
        let parse = |l: &str| match Response::parse(l).unwrap() {
            Response::Compile { results, hits, misses, .. } => (results, hits, misses),
            other => panic!("{other:?}"),
        };
        let (cold_r, cold_h, cold_m) = parse(&cold);
        let (warm_r, warm_h, warm_m) = parse(&warm);
        assert_eq!((cold_h, cold_m), (0, 2), "f and main, both cold");
        assert_eq!((warm_h, warm_m), (2, 0), "both served from cache");
        // Identical payloads modulo the cache-source marker.
        let strip = |rs: Vec<ProgramResult>| {
            rs.into_iter()
                .map(|mut r| {
                    if let Ok(fs) = &mut r.outcome {
                        fs.iter_mut().for_each(|f| f.cached = false);
                    }
                    r
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(cold_r), strip(warm_r));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn req(source: &str) -> ProgramReq {
        ProgramReq {
            name: "p".into(),
            source: source.into(),
            flags: CompileFlags::default(),
        }
    }

    /// Where `key`'s file lives under the cache `dir`.
    fn file_of(dir: &Path, key: CacheKey) -> PathBuf {
        let hex = key.hex();
        dir.join("v1").join("objects").join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// A compile response's results with the cache markers cleared, and
    /// its `(hits, misses)`.
    fn neutral(line: &str) -> (Vec<ProgramResult>, (u64, u64)) {
        let Response::Compile { mut results, hits, misses, .. } = Response::parse(line).unwrap()
        else {
            panic!("{line}")
        };
        for r in &mut results {
            if let Ok(fs) = &mut r.outcome {
                fs.iter_mut().for_each(|f| f.cached = false);
            }
        }
        (results, (hits, misses))
    }

    /// The counters prep records: what a program's entry stores.
    fn prep_counters(reg: &hli_obs::MetricsRegistry) -> BTreeMap<String, u64> {
        let prefixes = ["frontend.", "backend.lower.", "hli.serialize."];
        let snap = reg.snapshot();
        let prep = snap
            .counters
            .into_iter()
            .filter(|(k, _)| prefixes.iter().any(|p| k.starts_with(p)));
        prep.collect()
    }

    #[test]
    fn unchanged_program_skips_prep() {
        let dir = tmp("direct");
        let reg = Arc::new(hli_obs::MetricsRegistry::new());
        let _g = metrics::scoped(reg.clone());
        let s = server(&dir, 1);
        let (cold, _) = s.handle_line(&compile_line(1, "p", SRC));
        let once = prep_counters(&reg);
        for prefix in ["frontend.", "backend.lower.", "hli.serialize."] {
            assert!(once.keys().any(|k| k.starts_with(prefix)), "prep records {prefix}*");
        }
        // The name is not a component of the program key.
        let (warm, _) = s.handle_line(&compile_line(1, "renamed", SRC));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.program.misses"), 1);
        assert_eq!(snap.counter("serve.program.hits"), 1);
        let twice: BTreeMap<String, u64> = once.iter().map(|(k, v)| (k.clone(), 2 * v)).collect();
        assert_eq!(prep_counters(&reg), twice, "the entry's shard stands in for prep's");
        let (mut cold, mut warm) = (neutral(&cold), neutral(&warm));
        assert_eq!((cold.1, warm.1), ((0, 2), (2, 0)));
        warm.0[0].program = "p".into();
        cold.1 = warm.1;
        assert_eq!(cold, warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_entry_reuses_its_objects_and_is_rewritten() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp("stale");
        let reg = Arc::new(hli_obs::MetricsRegistry::new());
        let _g = metrics::scoped(reg.clone());
        let s = server(&dir, 1);
        let (cold, _) = s.handle_line(&compile_line(1, "p", SRC));
        let entry_file = file_of(&dir, program_key(&s.build, &req(SRC)));
        let listed = ProgramEntry::parse(&std::fs::read_to_string(&entry_file).unwrap())
            .unwrap()
            .functions;
        assert_eq!(listed.len(), 2, "f and main");
        // Delete the last listed object, so the first is read through the
        // entry before the entry turns out stale.
        std::fs::remove_file(file_of(&dir, listed[1].1)).unwrap();
        let inode = std::fs::metadata(&entry_file).unwrap().ino();
        let before = reg.snapshot();
        let (again, _) = s.handle_line(&compile_line(1, "p", SRC));
        let after = reg.snapshot();
        let delta = |k: &str| after.counter(k) - before.counter(k);
        let (cold, again) = (neutral(&cold), neutral(&again));
        assert_eq!(cold.0, again.0, "the answer equals the cold one modulo `cached`");
        assert_eq!(again.1, (1, 1));
        assert_eq!(delta("serve.cache.misses"), 1);
        assert_eq!(
            delta("serve.cache.hits"),
            1,
            "an object read for the entry is not read again"
        );
        assert_eq!(delta("serve.program.misses"), 1);
        assert_eq!(delta("serve.program.hits"), 0);
        assert_ne!(std::fs::metadata(&entry_file).unwrap().ino(), inode, "entry rewritten");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_entry_is_quarantined_and_prep_runs() {
        let dir = tmp("truncated");
        let reg = Arc::new(hli_obs::MetricsRegistry::new());
        let _g = metrics::scoped(reg.clone());
        let s = server(&dir, 1);
        s.handle_line(&compile_line(1, "p", SRC));
        let once = prep_counters(&reg);
        let entry_file = file_of(&dir, program_key(&s.build, &req(SRC)));
        let text = std::fs::read_to_string(&entry_file).unwrap();
        std::fs::write(&entry_file, &text[..text.len() / 2]).unwrap();
        let (line, _) = s.handle_line(&compile_line(1, "p", SRC));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.cache.quarantined"), 1);
        assert_eq!(snap.counter("serve.program.misses"), 2);
        assert_eq!(neutral(&line).1, (2, 0), "the objects are intact");
        let twice: BTreeMap<String, u64> = once.iter().map(|(k, v)| (k.clone(), 2 * v)).collect();
        assert_eq!(prep_counters(&reg), twice);
        let rewritten = std::fs::read_to_string(&entry_file).unwrap();
        assert_eq!(rewritten, text, "prep wrote the entry again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn another_build_ignores_the_entry() {
        let dir = tmp("build");
        let reg = Arc::new(hli_obs::MetricsRegistry::new());
        let _g = metrics::scoped(reg.clone());
        server(&dir, 1).handle_line(&compile_line(1, "p", SRC));
        let mut other = server(&dir, 1);
        other.build = format!("not {}", other.build);
        let (line, _) = other.handle_line(&compile_line(1, "p", SRC));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.program.misses"), 2);
        assert_eq!(snap.counter("serve.program.hits"), 0);
        assert_eq!(
            neutral(&line).1,
            (2, 0),
            "function keys hash what prep made, not the build"
        );
        server(&dir, 1).handle_line(&compile_line(1, "p", SRC));
        assert_eq!(
            reg.snapshot().counter("serve.program.hits"),
            1,
            "the first build's entry"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn functions_come_back_name_sorted() {
        let dir = tmp("sorted");
        let s = server(&dir, 1);
        let src = "int zz() { return 1; }\nint aa() { return 2; }\nint main() { return 0; }\n";
        let (line, _) = s.handle_line(&compile_line(3, "p", src));
        let Response::Compile { results, .. } = Response::parse(&line).unwrap() else {
            panic!()
        };
        let names: Vec<String> = results[0]
            .outcome
            .as_ref()
            .unwrap()
            .iter()
            .map(|f| f.function.clone())
            .collect();
        assert_eq!(names, ["aa", "main", "zz"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_program_fails_alone_and_batch_survives() {
        let dir = tmp("partial");
        let reg = Arc::new(hli_obs::MetricsRegistry::new());
        let _g = metrics::scoped(reg.clone());
        let s = server(&dir, 1);
        let req = Request::Compile {
            id: 4,
            programs: vec![
                ProgramReq {
                    name: "bad".into(),
                    source: "int main( {".into(),
                    flags: CompileFlags::default(),
                },
                ProgramReq {
                    name: "good".into(),
                    source: "int main() { return 0; }\n".into(),
                    flags: CompileFlags::default(),
                },
            ],
        };
        let (line, shutdown) = s.handle_line(&req.to_line());
        assert!(!shutdown);
        let Response::Compile { results, misses, .. } = Response::parse(&line).unwrap() else {
            panic!()
        };
        assert!(results[0].outcome.is_err());
        assert!(results[1].outcome.is_ok());
        assert_eq!(misses, 1);
        assert_eq!(reg.snapshot().counter("serve.errors"), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ndjson_session_stats_and_shutdown() {
        let dir = tmp("session");
        let reg = Arc::new(hli_obs::MetricsRegistry::new());
        let _g = metrics::scoped(reg);
        let s = server(&dir, 1);
        let input = format!(
            "{}\n\nnot json\n{}\n{}\n{}\n",
            compile_line(1, "p", "int main() { return 0; }\n"),
            Request::Stats { id: 2 }.to_line(),
            Request::Shutdown { id: 3 }.to_line(),
            compile_line(9, "after", "int main() { return 9; }\n"),
        );
        let mut out = Vec::new();
        let shutdown = s.run(io::Cursor::new(input), &mut out).unwrap();
        assert!(shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4, "blank line skipped, post-shutdown line unread");
        assert!(matches!(
            Response::parse(lines[0]).unwrap(),
            Response::Compile { id: 1, .. }
        ));
        let Response::Error { id, .. } = Response::parse(lines[1]).unwrap() else {
            panic!()
        };
        assert_eq!(id, None);
        let Response::Stats { id: 2, stats } = Response::parse(lines[2]).unwrap() else {
            panic!()
        };
        assert_eq!(stats["serve.batches"], 1);
        assert_eq!(stats["serve.errors"], 1);
        assert!(stats.keys().all(|k| k.starts_with("serve.")));
        assert!(matches!(
            Response::parse(lines[3]).unwrap(),
            Response::Shutdown { id: 3 }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unix_socket_roundtrip() {
        let dir = tmp("unix");
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("hlicc.sock");
        let s = Arc::new(server(&dir.join("cache"), 1));
        let s2 = s.clone();
        let sock2 = sock.clone();
        let daemon = std::thread::spawn(move || s2.run_unix(&sock2).unwrap());
        // Wait for the socket to appear, then talk to it.
        let mut stream = loop {
            match std::os::unix::net::UnixStream::connect(&sock) {
                Ok(st) => break st,
                Err(_) => std::thread::yield_now(),
            }
        };
        writeln!(stream, "{}", compile_line(1, "p", "int main() { return 0; }\n")).unwrap();
        writeln!(stream, "{}", Request::Shutdown { id: 2 }.to_line()).unwrap();
        let mut lines = io::BufReader::new(stream).lines();
        let first = lines.next().unwrap().unwrap();
        assert!(matches!(
            Response::parse(&first).unwrap(),
            Response::Compile { id: 1, .. }
        ));
        let second = lines.next().unwrap().unwrap();
        assert!(matches!(
            Response::parse(&second).unwrap(),
            Response::Shutdown { id: 2 }
        ));
        daemon.join().unwrap();
        assert!(!sock.exists(), "socket removed on orderly shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
