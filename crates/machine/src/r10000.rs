//! R10000-like timing model: 4-issue out-of-order with a load/store queue.
//!
//! The mechanism the paper leans on (Section 4.3): *"a load instruction in
//! the load/store queue will not be issued to the memory system until all
//! the preceding stores in the queue are known to be independent of the
//! load."* When the compiler can prove independence and schedule loads
//! above stores, the window sees the load earlier and the LSQ constraint
//! binds less often — that is why the R10000 rewards HLI scheduling more
//! than the in-order R4600.
//!
//! Model: fetch `width` instructions per cycle in trace order into a
//! finite window; an instruction begins execution when its operands are
//! ready and a function unit is free; a **load additionally waits until
//! every earlier store in the window has computed its address**, and
//! overlapping stores forward their data at completion; retirement is
//! in-order, `width` per cycle. Branches resolve at execution (perfect
//! prediction — mispredictions would only add noise common to both
//! compiler configurations being compared).
//!
//! The simulator times one instruction at a time, in trace order. Issue
//! takes the oldest ready instructions first, and fetch and retirement
//! are in order, so nothing younger ever changes the cycle an instruction
//! is fetched, issues or retires in: each follows from older instructions
//! alone (the observation ZSim's out-of-order core rests on, Sanchez and
//! Kozyrakis, ISCA 2013). For instruction *i*:
//!
//! * **fetch** `F(i) = max(F(i−1), F(i−width) + 1, R(i−window))`;
//! * **issue** `I(i)`: the first cycle at or after `F(i) + 1` and its
//!   producers' completions in which the older instructions left the
//!   issue width and its unit a free slot. A load also waits until every
//!   older store has issued and no older store to its address still has
//!   its data ahead. It completes at `C(i) = I(i) + latency`;
//! * **retire** `R(i) = max(C(i), I(i) + 1, R(i−1), R(i−width) + 1)`.
//!
//! The state is bounded by the configuration, never by the trace: those
//! cycles for the last `window` or so instructions, and the issue slots
//! taken in each cycle an instruction in the window can still issue in.
//! A configuration that can never fetch or never issue some instruction
//! (a zero width or window, a class with no unit) is an error: the
//! simulator panics, naming the cycle and the instruction, instead of
//! returning a cycle count.

use crate::exec::{DynInsn, DynKind};
use hli_lir::{longest_latency, CycleSim, MachStats, MachineBackend, OpClass};

/// Machine configuration.
#[derive(Debug, Clone, Copy)]
pub struct R10000Config {
    /// Fetch/issue/retire width.
    pub width: usize,
    /// Instruction window (active list) size.
    pub window: usize,
    /// Integer ALUs.
    pub int_units: usize,
    /// Floating-point units.
    pub fp_units: usize,
    /// Load/store units (address + cache ports).
    pub ls_units: usize,
    pub load: u64,
    pub ialu: u64,
    pub imul: u64,
    pub idiv: u64,
    pub fadd: u64,
    pub fmul: u64,
    pub fdiv: u64,
}

impl Default for R10000Config {
    fn default() -> Self {
        R10000Config::DEFAULT
    }
}

impl R10000Config {
    /// R10000: 4-wide, 32-entry active list, 2 int ALUs, 2 FPUs, 1 LSU
    /// (const so the registry can hold a `'static` instance).
    pub const DEFAULT: R10000Config = R10000Config {
        width: 4,
        window: 32,
        int_units: 2,
        fp_units: 2,
        ls_units: 1,
        load: 2,
        ialu: 1,
        imul: 6,
        idiv: 35,
        fadd: 2,
        fmul: 3,
        fdiv: 19,
    };

    /// Function-unit class of an instruction: 0 integer, 1 FP, 2
    /// load/store (the order of `[int_units, fp_units, ls_units]`).
    fn unit_of(k: DynKind) -> usize {
        match k {
            DynKind::Load | DynKind::Store => 2,
            DynKind::FAdd | DynKind::FMul | DynKind::FDiv => 1,
            _ => 0,
        }
    }
}

impl MachineBackend for R10000Config {
    fn name(&self) -> &'static str {
        "r10000"
    }

    /// The one latency table for this target; the OoO simulator's
    /// completion times and the scheduler's weights both read it.
    fn class_latency(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Load => self.load,
            OpClass::IMul => self.imul,
            OpClass::IDiv => self.idiv,
            OpClass::FAdd => self.fadd,
            OpClass::FMul => self.fmul,
            OpClass::FDiv => self.fdiv,
            // A store completes (address + data to the LSQ) in one cycle;
            // ALU-class ops, branches and call/ret results at ALU speed.
            OpClass::Store => 1,
            _ => self.ialu,
        }
    }

    fn issue_width(&self) -> u32 {
        self.width as u32
    }

    fn sim(&self, nfuncs: usize) -> Box<dyn CycleSim + '_> {
        Box::new(R10000Sim::new(self, nfuncs))
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

/// Timing outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct R10000Stats {
    cycles: u64,
    insns: u64,
    /// Load issues delayed by unresolved earlier stores in the LSQ.
    lsq_stalls: u64,
    /// Loads that had to wait for an overlapping store's data (forwarding).
    forwards: u64,
}

/// The cycles of one instruction that younger ones depend on.
#[derive(Debug, Clone, Copy, Default)]
struct Timing {
    fetch: u64,
    complete: u64,
    retire: u64,
}

/// The issue slots the instructions timed so far took in one cycle.
#[derive(Debug, Clone, Copy, Default)]
struct CycleUse {
    /// The cycle counted here; a slot holding another cycle counts none
    /// of this one's issues.
    cycle: u64,
    issued: u32,
    /// Per function unit, in `unit_of` order.
    units: [u32; 3],
}

/// One run of the out-of-order core, timing each instruction as it is
/// fed. Every field is bounded by the configuration, never by the trace.
struct R10000Sim<'c> {
    cfg: &'c R10000Config,
    /// Capacity of each function unit, in `unit_of` order.
    caps: [usize; 3],
    /// `insns[s & insn_mask]`: the cycles of instruction `s`, for the
    /// last `insns.len()` instructions, more than `width` and `window`.
    insns: Vec<Timing>,
    insn_mask: u64,
    /// `cycles[c & cycle_mask]`: the issue slots taken in cycle `c`. The
    /// cycles the instructions in the window issue in lie within the
    /// `(window − 1) × longest latency + 1` cycles after the youngest
    /// one's fetch.
    cycles: Vec<CycleUse>,
    cycle_mask: u64,
    /// Sequence number of the next instruction.
    seq: u64,
    /// Fetch and retire cycles of the previous instruction.
    fetch: u64,
    retire: u64,
    /// The latest cycle an older store issued in: a younger load issues
    /// no earlier.
    store_issue: u64,
    /// `(address, complete)` of older stores whose data may still be
    /// ahead of a younger load; at most the stores in the window once
    /// pruned at each store.
    stores: Vec<(i64, u64)>,
    /// Cycles observed at each window occupancy, flushed to the
    /// histogram once per run.
    occupancy: Vec<u64>,
    /// Cycles before this one are counted in `occupancy`.
    occ_at: u64,
    /// Instructions retired by cycle `occ_at`.
    occ_retired: u64,
    bins: Vec<u64>,
    last_func: u32,
    stats: R10000Stats,
}

impl<'c> R10000Sim<'c> {
    fn new(cfg: &'c R10000Config, nfuncs: usize) -> Self {
        let insns = (cfg.window.max(cfg.width) as u64 + 1).next_power_of_two();
        // The oldest instruction in the window issues by the cycle after
        // the youngest one's fetch, and each younger one at most the
        // longest latency after the latest older issue.
        let horizon = (cfg.window.max(1) as u64 - 1) * longest_latency(cfg) + 1;
        let cycles = horizon.next_power_of_two();
        R10000Sim {
            cfg,
            caps: [cfg.int_units, cfg.fp_units, cfg.ls_units],
            insns: vec![Timing::default(); insns as usize],
            insn_mask: insns - 1,
            cycles: vec![CycleUse::default(); cycles as usize],
            cycle_mask: cycles - 1,
            seq: 0,
            fetch: 0,
            retire: 0,
            store_issue: 0,
            stores: Vec::new(),
            occupancy: vec![0; cfg.window + 1],
            occ_at: 0,
            occ_retired: 0,
            bins: vec![0; nfuncs],
            last_func: 0,
            stats: R10000Stats::default(),
        }
    }

    fn insn(&self, seq: u64) -> &Timing {
        &self.insns[(seq & self.insn_mask) as usize]
    }

    /// Time the next instruction, `ev`, owned by function `func`.
    fn step(&mut self, ev: &DynInsn, func: u32) {
        let cfg = self.cfg;
        let (seq, width, window) = (self.seq, cfg.width as u64, cfg.window as u64);
        if width == 0 || window == 0 {
            panic!(
                "r10000 model cannot progress at cycle {}: instruction #{seq} can never be \
                 fetched (width {}, window {})",
                self.fetch, cfg.width, cfg.window
            );
        }
        // Fetch: in order, `width` a cycle, once the instruction `window`
        // older has retired.
        let mut fetch = self.fetch;
        if seq >= width {
            fetch = fetch.max(self.insn(seq - width).fetch + 1);
        }
        if seq >= window {
            fetch = fetch.max(self.insn(seq - window).retire);
        }
        self.count_occupancy(fetch, seq);

        // Issue: after the fetch cycle, with the operands ready. A
        // producer beyond the ring retired before this fetch.
        let mut ready = fetch + 1;
        for &d in &ev.srcs {
            let d = u64::from(d);
            if d.wrapping_sub(1) <= self.insn_mask {
                ready = ready.max(self.insn(seq.wrapping_sub(d)).complete);
            }
        }
        // The LSQ rule: a load waits until every older store has its
        // address, and for the data of an older store to its address.
        let (stores_issued, data_ready) = match ev.kind {
            DynKind::Load => (self.store_issue, self.data_ready(ev.addr)),
            _ => (0, 0),
        };
        let unit = R10000Config::unit_of(ev.kind);
        if self.caps[unit] == 0 {
            panic!(
                "r10000 model cannot progress at cycle {ready}: instruction #{seq} ({:?}) can \
                 never issue ({cfg:?})",
                ev.kind
            );
        }
        let earliest = ready.max(stores_issued).max(data_ready);
        let mut issue = ready;
        loop {
            if self.slot_free(issue, unit) {
                if issue >= earliest {
                    break;
                }
                // The oldest-first scan reaches the load this cycle and
                // the LSQ holds it back.
                if issue < stores_issued {
                    self.stats.lsq_stalls += 1;
                } else {
                    self.stats.forwards += 1;
                }
            }
            issue += 1;
        }
        self.take_slot(issue, unit, fetch);
        let complete = issue + cfg.class_latency(ev.kind.class());
        if ev.kind == DynKind::Store {
            self.store_issue = self.store_issue.max(issue);
            // A store complete by the cycle after this fetch can hold back
            // no load from here on.
            self.stores.retain(|&(_, complete)| complete > fetch + 1);
            self.stores.push((ev.addr, complete));
        }

        // Retire: in order, `width` a cycle, after the issue cycle and not
        // before completion.
        let mut retire = complete.max(issue + 1).max(self.retire);
        if seq >= width {
            retire = retire.max(self.insn(seq - width).retire + 1);
        }
        // Each cycle is charged to the oldest instruction in the window:
        // the cycles after the previous retirement, to this one.
        if !self.bins.is_empty() {
            self.bins[func as usize] += retire - self.retire;
        }
        self.insns[(seq & self.insn_mask) as usize] = Timing { fetch, complete, retire };
        self.seq += 1;
        self.fetch = fetch;
        self.retire = retire;
        self.last_func = func;
    }

    /// The cycle the data of every older store to `addr` is ready by.
    fn data_ready(&self, addr: i64) -> u64 {
        self.stores
            .iter()
            .filter(|&&(a, _)| a == addr)
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0)
    }

    /// Whether the older instructions left cycle `c` an issue slot and a
    /// slot of `unit`.
    fn slot_free(&self, c: u64, unit: usize) -> bool {
        let used = &self.cycles[(c & self.cycle_mask) as usize];
        used.cycle != c
            || ((used.issued as usize) < self.cfg.width
                && (used.units[unit] as usize) < self.caps[unit])
    }

    /// Take an issue slot and a slot of `unit` in cycle `c`. Cycles up to
    /// `fetch` are past for this instruction and every younger one.
    fn take_slot(&mut self, c: u64, unit: usize, fetch: u64) {
        let len = self.cycles.len();
        let used = &mut self.cycles[(c & self.cycle_mask) as usize];
        if used.cycle != c {
            assert!(
                used.cycle <= fetch,
                "r10000 cycle ring of {len} wrapped over live cycle {} at cycle {c}",
                used.cycle
            );
            *used = CycleUse { cycle: c, ..CycleUse::default() };
        }
        used.issued += 1;
        used.units[unit] += 1;
    }

    /// Count the window occupancy of each cycle before `upto`, in all of
    /// which the first `fetched` instructions, and no others, have been
    /// fetched.
    fn count_occupancy(&mut self, upto: u64, fetched: u64) {
        loop {
            while self.occ_retired < fetched && self.insn(self.occ_retired).retire <= self.occ_at {
                self.occ_retired += 1;
            }
            if self.occ_at >= upto {
                return;
            }
            let next = if self.occ_retired < fetched {
                self.insn(self.occ_retired).retire.min(upto)
            } else {
                upto
            };
            self.occupancy[(fetched - self.occ_retired) as usize] += next - self.occ_at;
            self.occ_at = next;
        }
    }
}

impl CycleSim for R10000Sim<'_> {
    fn feed(&mut self, events: &[DynInsn], funcs: &[u32]) {
        self.stats.insns += events.len() as u64;
        for (i, ev) in events.iter().enumerate() {
            self.step(ev, funcs.get(i).copied().unwrap_or(0));
        }
    }

    fn finish(mut self: Box<Self>) -> (MachStats, Vec<u64>) {
        let mut stats = self.stats;
        if stats.insns > 0 {
            // The cycle the last instruction retires in ends with an empty
            // window, charged to the last instruction's function.
            stats.cycles = self.retire + 1;
            self.count_occupancy(stats.cycles, self.seq);
            if !self.bins.is_empty() {
                self.bins[self.last_func as usize] += 1;
            }
            let reg = hli_obs::metrics::cur();
            let occupancy = reg.histogram("machine.r10000.window_occupancy");
            for (v, &n) in self.occupancy.iter().enumerate() {
                occupancy.observe_n(v as u64, n);
            }
            reg.counter("machine.r10000.cycles").add(stats.cycles);
            reg.counter("machine.r10000.insns").add(stats.insns);
            reg.counter("machine.r10000.lsq_stalls").add(stats.lsq_stalls);
            reg.counter("machine.r10000.forwards").add(stats.forwards);
            if let Some(ipc) = (stats.insns * 1000).checked_div(stats.cycles) {
                reg.gauge("machine.r10000.ipc_milli").set(ipc as i64);
            }
        }
        (stats.into(), self.bins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_lir::{rename, RegInsn, RegKey};

    fn ins(kind: DynKind, dst: Option<RegKey>, srcs: &[RegKey]) -> RegInsn {
        RegInsn::new(kind, dst, srcs)
    }

    fn mem(kind: DynKind, dst: Option<RegKey>, srcs: &[RegKey], addr: i64) -> RegInsn {
        let mut e = ins(kind, dst, srcs);
        e.addr = addr;
        e
    }

    #[test]
    fn wide_issue_beats_scalar() {
        // 16 independent ALU ops: ~4 cycles of issue on a 4-wide core.
        let t = rename(&(0..16).map(|i| ins(DynKind::IAlu, Some(i), &[])).collect::<Vec<_>>());
        let s = R10000Config::default().cycles(&t);
        assert!(s.cycles <= 10, "got {} cycles", s.cycles);
        let scalar = crate::r4600::R4600Config::default().cycles(&t);
        assert!(s.cycles < scalar.cycles);
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut t = vec![ins(DynKind::IAlu, Some(0), &[])];
        for i in 1..12u64 {
            t.push(ins(DynKind::IAlu, Some(i), &[i - 1]));
        }
        let s = R10000Config::default().cycles(&rename(&t));
        assert!(s.cycles >= 12, "chain cannot go wide: {}", s.cycles);
    }

    #[test]
    fn load_blocked_by_unissued_store() {
        // Store whose address depends on a slow divide; following load to a
        // DIFFERENT address still stalls until the store issues.
        let t = rename(&[
            ins(DynKind::IDiv, Some(1), &[]),
            mem(DynKind::Store, None, &[1], 0x1000),
            mem(DynKind::Load, Some(2), &[], 0x2000),
        ]);
        let s = R10000Config::default().cycles(&t);
        assert!(s.detail("lsq_stalls").unwrap() > 0, "LSQ must hold the load back");
        // Same code with the store independent of the divide: loads fly.
        let t2 = rename(&[
            ins(DynKind::IDiv, Some(1), &[]),
            mem(DynKind::Store, None, &[], 0x1000),
            mem(DynKind::Load, Some(2), &[], 0x2000),
        ]);
        let s2 = R10000Config::default().cycles(&t2);
        assert!(s2.cycles < s.cycles);
    }

    #[test]
    fn scheduling_loads_before_stores_pays() {
        // HLI-style schedule: the independent load moved above the store.
        let slow_store = |t: &mut Vec<RegInsn>| {
            t.push(ins(DynKind::IDiv, Some(1), &[]));
            t.push(mem(DynKind::Store, None, &[1], 0x1000));
        };
        let mut gcc_order = Vec::new();
        slow_store(&mut gcc_order);
        gcc_order.push(mem(DynKind::Load, Some(2), &[], 0x2000));
        gcc_order.push(ins(DynKind::IAlu, Some(3), &[2]));

        let mut hli_order = vec![mem(DynKind::Load, Some(2), &[], 0x2000)];
        slow_store(&mut hli_order);
        hli_order.push(ins(DynKind::IAlu, Some(3), &[2]));

        let a = R10000Config::default().cycles(&rename(&gcc_order));
        let b = R10000Config::default().cycles(&rename(&hli_order));
        assert!(
            b.cycles < a.cycles,
            "hoisted load must win: {} vs {}",
            b.cycles,
            a.cycles
        );
    }

    #[test]
    fn store_to_load_forwarding_waits_for_data() {
        let t = rename(&[
            ins(DynKind::FDiv, Some(1), &[]),
            mem(DynKind::Store, None, &[1], 0x1000),
            mem(DynKind::Load, Some(2), &[], 0x1000),
        ]);
        let s = R10000Config::default().cycles(&t);
        // The load needs the store's data: it cannot complete before the
        // divide feeding the store.
        let cfg = R10000Config::default();
        assert!(s.cycles > cfg.fdiv);
    }

    #[test]
    fn window_limits_lookahead() {
        // A long dependent FDIV chain up front, independent work behind it:
        // a small window cannot reach the independent work.
        let mut t = vec![ins(DynKind::FDiv, Some(0), &[])];
        for i in 1..8u64 {
            t.push(ins(DynKind::FDiv, Some(i), &[i - 1]));
        }
        for i in 100..200u64 {
            t.push(ins(DynKind::IAlu, Some(i), &[]));
        }
        let small = R10000Config { window: 8, ..Default::default() };
        let big = R10000Config { window: 256, ..Default::default() };
        let t = rename(&t);
        let s_small = small.cycles(&t);
        let s_big = big.cycles(&t);
        assert!(s_big.cycles < s_small.cycles);
    }

    #[test]
    fn per_func_bins_sum_to_total() {
        let mut t = vec![ins(DynKind::FDiv, Some(0), &[])];
        for i in 1..6u64 {
            t.push(ins(DynKind::FDiv, Some(i), &[i - 1]));
        }
        for i in 100..120u64 {
            t.push(ins(DynKind::IAlu, Some(i), &[]));
        }
        let t = rename(&t);
        let funcs: Vec<u32> = (0..t.len()).map(|i| if i < 6 { 0 } else { 1 }).collect();
        let cfg = R10000Config::default();
        let (stats, bins) = cfg.cycles_per_func(&t, &funcs, 2);
        assert_eq!(bins.iter().sum::<u64>(), stats.cycles);
        assert_eq!(stats, cfg.cycles(&t), "attribution must not perturb timing");
        assert!(bins[0] > bins[1], "the fdiv chain holds retirement");
    }

    #[test]
    fn empty_trace() {
        let s = R10000Config::default().cycles(&[]);
        assert_eq!(s.cycles, 0);
    }

    #[test]
    fn chunked_feed_matches_one_feed() {
        let mut t = Vec::new();
        for i in 0..40u64 {
            t.push(ins(DynKind::IDiv, Some(i % 5), &[(i + 4) % 5]));
            t.push(mem(DynKind::Store, None, &[i % 5], 0x1000 + 8 * (i % 3) as i64));
            t.push(mem(DynKind::Load, Some(10 + i % 4), &[], 0x1000 + 8 * (i % 2) as i64));
        }
        let t = rename(&t);
        let funcs: Vec<u32> = (0..t.len() as u32).map(|i| i % 3).collect();
        let cfg = R10000Config { ls_units: 2, ..Default::default() };
        let whole = cfg.cycles_per_func(&t, &funcs, 3);
        for chunk in [1, 3, 4, 7, 64] {
            let mut sim = cfg.sim(3);
            for (e, f) in t.chunks(chunk).zip(funcs.chunks(chunk)) {
                sim.feed(e, f);
            }
            assert_eq!(sim.finish(), whole, "chunks of {chunk}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot progress at cycle")]
    fn a_machine_that_cannot_fetch_is_an_error() {
        let t = rename(&[ins(DynKind::IAlu, Some(1), &[])]);
        R10000Config { window: 0, ..Default::default() }.cycles(&t);
    }

    #[test]
    #[should_panic(expected = "cannot progress at cycle")]
    fn a_machine_that_cannot_issue_is_an_error() {
        // No integer unit: the first ALU op can never issue. The model
        // must say so rather than return a cycle count.
        let t = rename(&(0..8).map(|i| ins(DynKind::IAlu, Some(i), &[])).collect::<Vec<_>>());
        R10000Config { int_units: 0, ..Default::default() }.cycles(&t);
    }
}
