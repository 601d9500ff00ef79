//! Differential test of the timing models against their previous
//! implementations.
//!
//! The modules `r10000_ref`, `r4600_ref` and `w4_ref` hold the simulator
//! loops the streaming models replaced, verbatim apart from their imports:
//! the R10000 steps every cycle and rescans its whole window, and renames
//! through hashed maps; the in-order models keep one ready-cycle entry per
//! register ever written. They are slow and unbounded, and exactly what
//! the reproduction's numbers were measured with, so every model must
//! agree with them on every statistic, every per-function cycle bin and
//! the whole scoped metrics snapshot (`machine.<name>.*` counters, the
//! `ipc_milli` gauge, the `window_occupancy` histogram), whether a trace
//! is fed whole or in chunks.
//!
//! The models read traces whose sources name their producers; the
//! reference loops read registers. They get the same traces, with each
//! event writing the register named by its own sequence number and
//! reading its producers' (`by_sequence`), so their renaming is the
//! identity.
//!
//! The short seeded traces run in every test pass. The corpus traces
//! (real scheduled builds of generated programs) are `#[ignore]`d here
//! and run in release mode by `scripts/ci.sh`:
//!
//! ```text
//! cargo test --release -p hli-machine --test model_reference -- --include-ignored
//! ```

use hli_backend::ddg::DepMode;
use hli_backend::lower::lower_program;
use hli_backend::sched::schedule_program;
use hli_lir::{rename, RegInsn, RegKey};
use hli_machine::{
    execute_with_func_trace, DynInsn, DynKind, MachStats, MachineBackend, R10000Config,
    R4600Config, W4Config,
};
use hli_obs::{MetricsRegistry, MetricsSnapshot};
use hli_suite::corpus::{generate, CorpusSpec};
use std::sync::Arc;

/// The old configs' private helpers, restated so the reference loops
/// read exactly as they did.
trait OldHelpers {
    fn latency(&self, k: DynKind) -> u64;
}

impl OldHelpers for R4600Config {
    fn latency(&self, k: DynKind) -> u64 {
        self.class_latency(k.class())
    }
}

impl OldHelpers for R10000Config {
    fn latency(&self, k: DynKind) -> u64 {
        self.class_latency(k.class())
    }
}

mod r10000_ref {
    use super::OldHelpers;
    use hli_lir::{DynKind, MachStats, RegInsn as DynInsn, RegKey};
    use hli_machine::R10000Config;
    use std::collections::HashMap;
    use std::collections::VecDeque;

    trait UnitOf {
        fn unit_of(&self, k: DynKind) -> Unit;
    }

    impl UnitOf for R10000Config {
        fn unit_of(&self, k: DynKind) -> Unit {
            match k {
                DynKind::Load | DynKind::Store => Unit::Ls,
                DynKind::FAdd | DynKind::FMul | DynKind::FDiv => Unit::Fp,
                _ => Unit::Int,
            }
        }
    }

    impl From<R10000Stats> for MachStats {
        fn from(s: R10000Stats) -> MachStats {
            MachStats {
                cycles: s.cycles,
                insns: s.insns,
                detail: vec![("lsq_stalls", s.lsq_stalls), ("forwards", s.forwards)],
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Unit {
        Int,
        Fp,
        Ls,
    }

    /// Timing outcome.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct R10000Stats {
        pub cycles: u64,
        pub insns: u64,
        /// Load issues delayed by unresolved earlier stores in the LSQ.
        pub lsq_stalls: u64,
        /// Loads that had to wait for an overlapping store's data (forwarding).
        pub forwards: u64,
    }

    #[derive(Debug, Clone)]
    struct Slot {
        kind: DynKind,
        /// Destination register and its rename version.
        dst: Option<(RegKey, u64)>,
        /// Versioned sources (register renaming: a source names the exact
        /// in-flight producer it must wait for).
        srcs: [(RegKey, u64); 3],
        n_srcs: u8,
        addr: i64,
        /// Cycle the instruction entered the window.
        fetched: u64,
        /// Cycle execution starts (u64::MAX = not yet issued).
        start: u64,
        /// Cycle the result is available.
        complete: u64,
        issued: bool,
    }

    fn simulate(
        trace: &[DynInsn],
        cfg: &R10000Config,
        mut per_func: Option<(&[u32], &mut [u64])>,
    ) -> R10000Stats {
        let mut stats = R10000Stats { insns: trace.len() as u64, ..Default::default() };
        if trace.is_empty() {
            return stats;
        }
        // Register renaming: the current version of each architectural key and
        // the completion cycle of every produced version. Version 0 = the
        // initial value, ready at cycle 0.
        let mut reg_version: HashMap<RegKey, u64> = HashMap::new();
        let mut version_ready: HashMap<(RegKey, u64), u64> = HashMap::new();
        let mut window: VecDeque<Slot> = VecDeque::with_capacity(cfg.window);
        let mut next_fetch = 0usize;
        let mut cycle: u64 = 0;
        // Generous upper bound to guarantee termination on model bugs.
        let max_cycles = (trace.len() as u64 + 64) * 64;
        let reg = hli_obs::metrics::cur();
        let occupancy = reg.histogram("machine.r10000.window_occupancy");

        while (next_fetch < trace.len() || !window.is_empty()) && cycle < max_cycles {
            // Retire in order.
            let mut retired = 0;
            while retired < cfg.width {
                match window.front() {
                    Some(s) if s.issued && s.complete <= cycle => {
                        window.pop_front();
                        retired += 1;
                    }
                    _ => break,
                }
            }
            // Fetch into the window (renaming sources to producer versions).
            let mut fetched = 0;
            while fetched < cfg.width && window.len() < cfg.window && next_fetch < trace.len() {
                let ev = &trace[next_fetch];
                let mut srcs = [(0u64, 0u64); 3];
                for (slot, &key) in srcs.iter_mut().zip(ev.srcs.iter()).take(ev.n_srcs as usize) {
                    *slot = (key, reg_version.get(&key).copied().unwrap_or(0));
                }
                let dst = ev.dst.map(|d| {
                    let v = reg_version.entry(d).or_insert(0);
                    *v += 1;
                    (d, *v)
                });
                window.push_back(Slot {
                    kind: ev.kind,
                    dst,
                    srcs,
                    n_srcs: ev.n_srcs,
                    addr: ev.addr,
                    fetched: cycle,
                    start: u64::MAX,
                    complete: u64::MAX,
                    issued: false,
                });
                next_fetch += 1;
                fetched += 1;
            }
            // Issue: scan the window oldest-first, respecting unit limits.
            let mut free = [cfg.int_units, cfg.fp_units, cfg.ls_units];
            let mut issued_this_cycle = 0;
            for i in 0..window.len() {
                if issued_this_cycle >= cfg.width {
                    break;
                }
                if window[i].issued || window[i].fetched >= cycle {
                    continue;
                }
                let unit = cfg.unit_of(window[i].kind);
                let unit_idx = match unit {
                    Unit::Int => 0,
                    Unit::Fp => 1,
                    Unit::Ls => 2,
                };
                if free[unit_idx] == 0 {
                    continue;
                }
                // Operand readiness: version 0 is ready at time 0; an in-flight
                // version is ready at its producer's completion (unknown until
                // it issues).
                let ops_ready = (0..window[i].n_srcs as usize)
                    .map(|k| {
                        let (key, ver) = window[i].srcs[k];
                        if ver == 0 {
                            0
                        } else {
                            version_ready.get(&(key, ver)).copied().unwrap_or(u64::MAX)
                        }
                    })
                    .max()
                    .unwrap_or(0);
                if ops_ready > cycle {
                    continue;
                }
                // The LSQ rule: a load may not issue while any earlier store in
                // the window has an unknown address (not yet issued), and must
                // wait for the data of an overlapping completed-address store.
                if window[i].kind == DynKind::Load {
                    let mut blocked = false;
                    let mut forward_wait: u64 = 0;
                    for j in 0..i {
                        if window[j].kind != DynKind::Store {
                            continue;
                        }
                        if !window[j].issued {
                            blocked = true;
                            break;
                        }
                        if window[j].addr == window[i].addr && window[j].complete > cycle {
                            forward_wait = forward_wait.max(window[j].complete);
                        }
                    }
                    if blocked {
                        stats.lsq_stalls += 1;
                        continue;
                    }
                    if forward_wait > cycle {
                        stats.forwards += 1;
                        continue;
                    }
                }
                // Issue it.
                let lat = cfg.latency(window[i].kind);
                window[i].issued = true;
                window[i].start = cycle;
                window[i].complete = cycle + lat;
                if let Some((d, v)) = window[i].dst {
                    version_ready.insert((d, v), cycle + lat);
                }
                free[unit_idx] -= 1;
                issued_this_cycle += 1;
            }
            occupancy.observe(window.len() as u64);
            // Attribute the cycle to the function of the oldest in-flight
            // instruction (the retirement bottleneck). The window holds trace
            // indices [next_fetch - len, next_fetch); if everything already
            // retired this cycle, charge the last-fetched function.
            if let Some((funcs, bins)) = per_func.as_mut() {
                let idx = if window.is_empty() {
                    next_fetch.saturating_sub(1)
                } else {
                    next_fetch - window.len()
                };
                bins[funcs[idx] as usize] += 1;
            }
            cycle += 1;
        }
        stats.cycles = cycle;
        reg.counter("machine.r10000.cycles").add(stats.cycles);
        reg.counter("machine.r10000.insns").add(stats.insns);
        reg.counter("machine.r10000.lsq_stalls").add(stats.lsq_stalls);
        reg.counter("machine.r10000.forwards").add(stats.forwards);
        if let Some(ipc) = (stats.insns * 1000).checked_div(stats.cycles) {
            reg.gauge("machine.r10000.ipc_milli").set(ipc as i64);
        }
        stats
    }

    pub fn run(
        trace: &[DynInsn],
        cfg: &R10000Config,
        per_func: Option<(&[u32], &mut [u64])>,
    ) -> MachStats {
        simulate(trace, cfg, per_func).into()
    }
}

mod r4600_ref {
    use super::OldHelpers;
    use hli_lir::{DynKind, MachStats, RegInsn as DynInsn, RegKey};
    use hli_machine::R4600Config;
    use std::collections::HashMap;

    impl From<R4600Stats> for MachStats {
        fn from(s: R4600Stats) -> MachStats {
            MachStats {
                cycles: s.cycles,
                insns: s.insns,
                detail: vec![
                    ("stall_cycles", s.stall_cycles),
                    ("branch_bubbles", s.branch_bubbles),
                ],
            }
        }
    }

    /// Timing outcome.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct R4600Stats {
        pub cycles: u64,
        pub insns: u64,
        /// Cycles lost waiting for operands.
        pub stall_cycles: u64,
        /// Cycles lost to taken-branch bubbles.
        pub branch_bubbles: u64,
    }

    fn simulate(
        trace: &[DynInsn],
        cfg: &R4600Config,
        mut per_func: Option<(&[u32], &mut [u64])>,
    ) -> R4600Stats {
        let mut ready: HashMap<RegKey, u64> = HashMap::new();
        let mut time: u64 = 0;
        let mut stats = R4600Stats::default();
        for (i, ev) in trace.iter().enumerate() {
            stats.insns += 1;
            let operands_ready = ev
                .sources()
                .iter()
                .map(|r| ready.get(r).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let issue = time.max(operands_ready);
            stats.stall_cycles += issue - time;
            let before = time;
            time = issue + 1;
            match ev.kind {
                DynKind::Branch { taken: true } => {
                    time += cfg.taken_branch_bubble;
                    stats.branch_bubbles += cfg.taken_branch_bubble;
                }
                DynKind::Call | DynKind::Ret => {
                    time += cfg.call_overhead;
                }
                _ => {}
            }
            if let Some(d) = ev.dst {
                ready.insert(d, issue + cfg.latency(ev.kind));
            }
            // Charge the full advance (issue stall + execute + bubbles) to the
            // function that owns this event; the per-function sums then equal
            // the total cycle count exactly.
            if let Some((funcs, bins)) = per_func.as_mut() {
                let f = funcs[i] as usize;
                bins[f] += time - before;
            }
        }
        stats.cycles = time;
        let reg = hli_obs::metrics::cur();
        reg.counter("machine.r4600.cycles").add(stats.cycles);
        reg.counter("machine.r4600.insns").add(stats.insns);
        reg.counter("machine.r4600.stall_cycles").add(stats.stall_cycles);
        reg.counter("machine.r4600.branch_bubbles").add(stats.branch_bubbles);
        stats
    }

    pub fn run(
        trace: &[DynInsn],
        cfg: &R4600Config,
        per_func: Option<(&[u32], &mut [u64])>,
    ) -> MachStats {
        simulate(trace, cfg, per_func).into()
    }
}

mod w4_ref {
    use hli_lir::{DynKind, MachStats, MachineBackend, RegInsn as DynInsn, RegKey};
    use hli_machine::W4Config;
    use std::collections::HashMap;

    impl From<W4Stats> for MachStats {
        fn from(s: W4Stats) -> MachStats {
            MachStats {
                cycles: s.cycles,
                insns: s.insns,
                detail: vec![
                    ("stall_cycles", s.stall_cycles),
                    ("idle_slots", s.idle_slots),
                ],
            }
        }
    }

    /// Timing outcome.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct W4Stats {
        pub cycles: u64,
        pub insns: u64,
        /// Cycles the issue head spent waiting for operands.
        pub stall_cycles: u64,
        /// Issue slots left empty (hazards, group-ending branches/calls).
        pub idle_slots: u64,
    }

    fn simulate(
        trace: &[DynInsn],
        cfg: &W4Config,
        mut per_func: Option<(&[u32], &mut [u64])>,
    ) -> W4Stats {
        let mut ready: HashMap<RegKey, u64> = HashMap::new();
        let mut stats = W4Stats::default();
        // `time` is the cycle the current issue group occupies; `slots` how
        // many of its issue slots are filled.
        let mut time: u64 = 0;
        let mut slots: usize = 0;
        let width = cfg.width.max(1);
        for (i, ev) in trace.iter().enumerate() {
            stats.insns += 1;
            let before = time;
            if slots == width {
                time += 1;
                slots = 0;
            }
            let operands_ready = ev
                .sources()
                .iter()
                .map(|r| ready.get(r).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            if operands_ready > time {
                // Head-of-line hazard: the whole machine waits (no reordering),
                // wasting the rest of this group and every intervening cycle.
                stats.stall_cycles += operands_ready - time;
                stats.idle_slots +=
                    (width - slots) as u64 + (operands_ready - time - 1) * width as u64;
                time = operands_ready;
                slots = 0;
            }
            slots += 1;
            if let Some(d) = ev.dst {
                ready.insert(d, time + cfg.class_latency(ev.kind.class()));
            }
            match ev.kind {
                DynKind::Branch { taken: true } => {
                    stats.idle_slots += (width - slots) as u64;
                    time += 1 + cfg.taken_branch_bubble;
                    slots = 0;
                }
                DynKind::Call | DynKind::Ret => {
                    stats.idle_slots += (width - slots) as u64;
                    time += 1 + cfg.call_overhead;
                    slots = 0;
                }
                _ => {}
            }
            // Charge the full advance to the owning function; per-function
            // sums then equal the total exactly (the trailing partial group
            // is charged to the last event below).
            if let Some((funcs, bins)) = per_func.as_mut() {
                bins[funcs[i] as usize] += time - before;
            }
        }
        if slots > 0 {
            // The last partially-filled group still takes its cycle.
            time += 1;
            if let Some((funcs, bins)) = per_func.as_mut() {
                if let Some(&f) = funcs.last() {
                    bins[f as usize] += 1;
                }
            }
        }
        stats.cycles = time;
        let reg = hli_obs::metrics::cur();
        reg.counter("machine.w4.cycles").add(stats.cycles);
        reg.counter("machine.w4.insns").add(stats.insns);
        reg.counter("machine.w4.stall_cycles").add(stats.stall_cycles);
        reg.counter("machine.w4.idle_slots").add(stats.idle_slots);
        stats
    }

    pub fn run(
        trace: &[DynInsn],
        cfg: &W4Config,
        per_func: Option<(&[u32], &mut [u64])>,
    ) -> MachStats {
        simulate(trace, cfg, per_func).into()
    }
}

/// A trace with the owning function of every event.
struct Trace {
    name: String,
    events: Vec<DynInsn>,
    /// `events` as the reference loops read them.
    named: Vec<RegInsn>,
    funcs: Vec<u32>,
    nfuncs: usize,
}

impl Trace {
    fn new(name: String, events: Vec<DynInsn>, funcs: Vec<u32>, nfuncs: usize) -> Trace {
        let named = by_sequence(&events);
        Trace { name, events, named, funcs, nfuncs }
    }
}

/// Name the registers of a producer-named trace by sequence number: each
/// event writes its own, and each source reads its producer's.
fn by_sequence(events: &[DynInsn]) -> Vec<RegInsn> {
    let name = |(seq, ev): (usize, &DynInsn)| {
        let srcs: Vec<RegKey> = ev
            .srcs
            .iter()
            .filter(|&&d| d != 0)
            .map(|&d| (seq - d as usize) as RegKey)
            .collect();
        RegInsn {
            addr: ev.addr,
            ..RegInsn::new(ev.kind, Some(seq as RegKey), &srcs)
        }
    };
    events.iter().enumerate().map(name).collect()
}

/// A reference loop: the trace and, when attributing, the owning
/// function of each event with the bins to charge.
type Reference<'a> = Box<dyn Fn(&[RegInsn], Option<(&[u32], &mut [u64])>) -> MachStats + 'a>;

/// A model under test and its reference loop.
struct Pair<'a> {
    name: String,
    model: &'a dyn MachineBackend,
    reference: Reference<'a>,
}

fn pairs<'a>(
    r10000: &'a [R10000Config],
    r4600: &'a [R4600Config],
    w4: &'a [W4Config],
) -> Vec<Pair<'a>> {
    let mut out: Vec<Pair<'a>> = Vec::new();
    for cfg in r10000 {
        out.push(Pair {
            name: format!("r10000 {cfg:?}"),
            model: cfg,
            reference: Box::new(move |t, p| r10000_ref::run(t, cfg, p)),
        });
    }
    for cfg in r4600 {
        out.push(Pair {
            name: format!("r4600 {cfg:?}"),
            model: cfg,
            reference: Box::new(move |t, p| r4600_ref::run(t, cfg, p)),
        });
    }
    for cfg in w4 {
        out.push(Pair {
            name: format!("w4 {cfg:?}"),
            model: cfg,
            reference: Box::new(move |t, p| w4_ref::run(t, cfg, p)),
        });
    }
    out
}

/// The R10000 configurations compared: the default; a small window; a
/// large window with two load/store units (where a load can issue beside
/// a store, so `forwards` is non-zero); a narrow core with one integer
/// unit; a scalar core whose window of 3 is smaller than its
/// power-of-two instruction ring; and a window of 96 with a 70-cycle
/// divide, past a 64-entry instruction ring and with a longer horizon of
/// cycles in flight.
fn r10000_configs() -> Vec<R10000Config> {
    let d = R10000Config::DEFAULT;
    vec![
        d,
        R10000Config { window: 8, ..d },
        R10000Config { window: 48, ls_units: 2, ..d },
        R10000Config { width: 2, int_units: 1, ..d },
        R10000Config { width: 1, window: 3, ..d },
        R10000Config { window: 96, ls_units: 2, idiv: 70, ..d },
    ]
}

/// The in-order configurations: the defaults, an R4600 whose 100-cycle
/// divide needs a ready ring past 64 events, and `w4` at widths 2 and 8.
fn in_order_configs() -> (Vec<R4600Config>, Vec<W4Config>) {
    (
        vec![
            R4600Config::DEFAULT,
            R4600Config { idiv: 100, ..R4600Config::DEFAULT },
        ],
        vec![
            W4Config::DEFAULT,
            W4Config { width: 2, ..W4Config::DEFAULT },
            W4Config { width: 8, ..W4Config::DEFAULT },
        ],
    )
}

/// Run `f` under a fresh scoped registry and return its snapshot too.
fn scoped<T>(f: impl FnOnce() -> T) -> (T, MetricsSnapshot) {
    let reg = Arc::new(MetricsRegistry::new());
    let out = {
        let _scope = hli_obs::metrics::scoped(reg.clone());
        f()
    };
    (out, reg.snapshot())
}

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x % n
    }
}

/// Compare `pair` with its reference on `t`: attributed and not, fed
/// whole and in seeded chunk sizes.
fn check(pair: &Pair<'_>, t: &Trace, chunk_seed: u64) -> Option<u64> {
    let what = format!("{} on {}", pair.name, t.name);
    let ((want, want_bins), want_snap) = scoped(|| {
        let mut bins = vec![0u64; t.nfuncs];
        let stats = (pair.reference)(&t.named, Some((&t.funcs, &mut bins)));
        (stats, bins)
    });
    let (got, got_snap) = scoped(|| pair.model.cycles_per_func(&t.events, &t.funcs, t.nfuncs));
    assert_eq!(got.0, want, "stats: {what}");
    assert_eq!(got.1, want_bins, "function bins: {what}");
    assert_eq!(got_snap, want_snap, "metrics: {what}");

    let mut rng = XorShift(chunk_seed | 1);
    let (chunked, chunked_snap) = scoped(|| {
        let mut sim = pair.model.sim(t.nfuncs);
        let mut at = 0;
        while at < t.events.len() {
            let n = (1 + rng.below(700) as usize).min(t.events.len() - at);
            sim.feed(&t.events[at..at + n], &t.funcs[at..at + n]);
            at += n;
        }
        sim.finish()
    });
    assert_eq!(chunked, (want.clone(), want_bins), "chunked feed: {what}");
    assert_eq!(chunked_snap, want_snap, "chunked feed metrics: {what}");

    let (plain, plain_snap) = scoped(|| pair.model.cycles(&t.events));
    let (want_plain, want_plain_snap) = scoped(|| (pair.reference)(&t.named, None));
    assert_eq!(plain, want_plain, "unattributed stats: {what}");
    assert_eq!(plain_snap, want_plain_snap, "unattributed metrics: {what}");
    want.detail("forwards")
}

/// A seeded trace over every `DynKind`: a dozen registers per frame
/// reused at random, a few frames, four load/store addresses that keep
/// colliding, and chains of divides feeding each other.
fn synthetic(seed: u64, len: usize) -> Trace {
    const NFUNCS: u64 = 4;
    let kinds = [
        DynKind::IAlu,
        DynKind::IMul,
        DynKind::IDiv,
        DynKind::FAdd,
        DynKind::FMul,
        DynKind::FDiv,
        DynKind::Load,
        DynKind::Store,
        DynKind::Call,
        DynKind::Ret,
        DynKind::Branch { taken: true },
        DynKind::Branch { taken: false },
        DynKind::Simple,
    ];
    let mut rng = XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let (mut frame, mut func, mut last): (u64, u32, RegKey) = (0, 0, 0);
    let (mut events, mut funcs) = (Vec::new(), Vec::new());
    for _ in 0..len {
        if rng.below(30) == 0 {
            frame = rng.below(4);
            func = rng.below(NFUNCS) as u32;
        }
        let reg = |rng: &mut XorShift| (frame << 24) | rng.below(12);
        let chain = rng.below(5) == 0;
        let kind = if chain {
            [DynKind::IDiv, DynKind::FDiv][rng.below(2) as usize]
        } else {
            kinds[rng.below(kinds.len() as u64) as usize]
        };
        let n_srcs = match kind {
            DynKind::Store => 1 + rng.below(3),
            _ => rng.below(4),
        } as u8;
        let mut srcs = [reg(&mut rng), reg(&mut rng), reg(&mut rng)];
        if chain || rng.below(3) == 0 {
            srcs[0] = last;
        }
        let dst = match kind {
            DynKind::Store | DynKind::Branch { .. } | DynKind::Call | DynKind::Ret => None,
            _ => Some(reg(&mut rng)),
        };
        if let Some(d) = dst {
            last = d;
        }
        let addr = match kind {
            DynKind::Load | DynKind::Store => 0x1000 + 8 * rng.below(4) as i64,
            _ => 0,
        };
        events.push(RegInsn { kind, dst, srcs, n_srcs: n_srcs.max(u8::from(chain)), addr });
        funcs.push(func);
    }
    Trace::new(
        format!("synthetic seed {seed}"),
        rename(&events),
        funcs,
        NFUNCS as usize,
    )
}

#[test]
fn models_match_their_references_on_seeded_traces() {
    let r10000 = r10000_configs();
    let (r4600, w4) = in_order_configs();
    let mut forwards = 0;
    for seed in 1..=24u64 {
        let t = synthetic(seed, 200 + 60 * seed as usize);
        for (i, pair) in pairs(&r10000, &r4600, &w4).iter().enumerate() {
            forwards += check(pair, &t, seed * 31 + i as u64).unwrap_or(0);
        }
    }
    assert!(forwards > 0, "no trace exercised store-to-load forwarding");
    let empty = Trace::new("empty".into(), Vec::new(), Vec::new(), 2);
    for pair in pairs(&r10000, &r4600, &w4) {
        check(&pair, &empty, 7);
    }
}

/// Both scheduled builds of generated programs, as the pipeline times
/// them.
fn corpus_traces() -> Vec<Trace> {
    let mut out = Vec::new();
    for seed in 1..=3u64 {
        let spec = CorpusSpec { seed, programs: 11, funcs: 12, ..CorpusSpec::default() };
        for b in generate(&spec) {
            let (p, s) = hli_lang::compile_to_ast(&b.source).expect("generated program compiles");
            let rtl = lower_program(&p, &s);
            let hli = hli_frontend::generate_hli(&p, &s);
            for mode in [DepMode::GccOnly, DepMode::Combined] {
                let (build, _) = schedule_program(&rtl, &hli, mode, &R4600Config::DEFAULT);
                let (_, events, funcs) = execute_with_func_trace(&build).expect("build runs");
                let name = format!("{} {mode:?}", b.name);
                out.push(Trace::new(name, events, funcs, build.funcs.len()));
            }
        }
    }
    out
}

#[test]
#[ignore = "minutes in a debug build; scripts/ci.sh runs it in release"]
fn models_match_their_references_on_corpus_traces() {
    let r10000 = r10000_configs();
    let (r4600, w4) = in_order_configs();
    let traces = scoped(corpus_traces).0;
    for (n, t) in traces.iter().enumerate() {
        for (i, pair) in pairs(&r10000, &r4600, &w4).iter().enumerate() {
            check(pair, t, (n * 16 + i) as u64);
        }
    }
}
