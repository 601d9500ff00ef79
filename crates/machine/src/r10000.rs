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
//! The simulator keeps only what the hardware keeps, named by dense
//! index (no map grows with the trace):
//!
//! * window entries live in a power-of-two ring addressed by trace
//!   sequence number;
//! * each source is resolved once, at fetch, to the sequence number of
//!   its in-flight producer (a producer that already retired is ready),
//!   and an entry waits on its producers' wake-up lists until they
//!   issue, then on a timing wheel until its operands are ready;
//! * issue looks only at entries whose operands are ready, oldest first,
//!   and skips those whose function unit is used up;
//! * the LSQ rule is "the oldest unissued store is older than this load"
//!   plus the short list of issued stores whose data is still ahead;
//! * a cycle in which nothing retires, fetches or issues repeats exactly
//!   until the next completion, so such stretches are counted in one
//!   step, and a machine with no completion ahead can never move again:
//!   the simulator panics, naming the cycle and the oldest stuck
//!   instruction, instead of returning a cycle count.

use crate::exec::{DynInsn, DynKind};
use hli_lir::{CycleSim, MachStats, MachineBackend, OpClass, RegTable, ScheduleConstraints};
use std::collections::VecDeque;

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

    fn schedule_constraints(&self) -> ScheduleConstraints {
        ScheduleConstraints {
            in_order: false,
            issue_width: self.width as u32,
            window: self.window as u32,
        }
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

/// `complete` of an entry that has not issued.
const UNISSUED: u64 = u64::MAX;

/// One window entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    kind: DynKind,
    addr: i64,
    /// Cycle the result is available ([`UNISSUED`] until it issues).
    complete: u64,
    /// Sources whose in-flight producer has not issued yet.
    pending: u8,
    /// Cycle the sources whose producers have issued are ready.
    ready: u64,
    /// Function owning the instruction, for cycle attribution.
    func: u32,
}

const EMPTY: Entry = Entry {
    kind: DynKind::Simple,
    addr: 0,
    complete: UNISSUED,
    pending: 0,
    ready: 0,
    func: 0,
};

/// One run of the out-of-order core. Every field is bounded by the
/// window (the register table by its sweeps), never by the trace.
///
/// An unissued entry is in exactly one of three places: waiting on a
/// producer (on that producer's `consumers` list), waiting for a known
/// ready cycle (a bit in `wheel`), or operands ready (a bit in `cands`).
/// Issue looks only at `cands`, oldest first; an entry anywhere else
/// could not issue, and looking at it had no effect in the full-window
/// scan either.
struct R10000Sim<'c> {
    cfg: &'c R10000Config,
    /// Window entries; the entry of sequence number `s` is `ring[s & mask]`.
    /// At least 64 of them, so `cands` is whole words.
    ring: Vec<Entry>,
    /// Per ring slot: the entries waiting for its instruction to issue.
    consumers: Vec<Vec<u64>>,
    mask: u64,
    /// Oldest in-flight sequence number; everything below has retired.
    head: u64,
    /// Next sequence number to fetch; the window is `head..tail`.
    tail: u64,
    /// `tail` when the current cycle began fetching: entries from here
    /// on cannot issue before the next cycle.
    fetch_start: u64,
    /// One bit per ring slot: an unissued entry whose operands are ready.
    cands: Vec<u64>,
    /// Per function unit (`unit_of` order), one bit per ring slot: the
    /// entry there needs that unit. A unit with none free this cycle
    /// hides its candidates, which could neither issue nor stall.
    units: Vec<u64>,
    /// Unissued entries whose producers have all issued but whose
    /// operands are still ahead: bucket `t % buckets` holds, one bit per
    /// ring slot, those ready at cycle `t`. No operand is further ahead
    /// than the longest latency, so a bucket never mixes two cycles.
    wheel: Vec<u64>,
    /// Buckets in `wheel`, less one.
    wheel_mask: u64,
    /// Unissued stores (addresses unknown), oldest first.
    stores_unissued: VecDeque<u64>,
    /// Issued stores whose data completes after the current cycle:
    /// `(sequence number, address, complete)`.
    stores_ahead: Vec<(u64, i64, u64)>,
    /// Architectural register → sequence number of its latest producer.
    producers: RegTable,
    cycle: u64,
    /// The current cycle has retired and is part-way through its fetch,
    /// waiting for the next events.
    in_cycle: bool,
    retired: usize,
    fetched: usize,
    /// Cycles observed at each window occupancy, flushed to the
    /// histogram once per run.
    occupancy: Vec<u64>,
    bins: Vec<u64>,
    last_func: u32,
    stats: R10000Stats,
}

impl<'c> R10000Sim<'c> {
    fn new(cfg: &'c R10000Config, nfuncs: usize) -> Self {
        let cap = cfg.window.next_power_of_two().max(64);
        let longest = OpClass::ALL.iter().map(|&c| cfg.class_latency(c)).max().unwrap_or(0);
        let buckets = (longest as usize + 1).next_power_of_two();
        R10000Sim {
            cfg,
            ring: vec![EMPTY; cap],
            consumers: vec![Vec::new(); cap],
            mask: cap as u64 - 1,
            head: 0,
            tail: 0,
            fetch_start: 0,
            cands: vec![0; cap / 64],
            units: vec![0; 3 * cap / 64],
            wheel: vec![0; buckets * cap / 64],
            wheel_mask: buckets as u64 - 1,
            stores_unissued: VecDeque::new(),
            stores_ahead: Vec::new(),
            producers: RegTable::default(),
            cycle: 0,
            in_cycle: false,
            retired: 0,
            fetched: 0,
            occupancy: vec![0; cfg.window + 1],
            bins: vec![0; nfuncs],
            last_func: 0,
            stats: R10000Stats::default(),
        }
    }

    fn entry(&self, seq: u64) -> &Entry {
        &self.ring[(seq & self.mask) as usize]
    }

    /// Simulate cycles over the next `events`. Without `ended`, a cycle
    /// whose fetch runs out of events stays open for the next call;
    /// with it, the trace is over and the machine drains.
    fn run(&mut self, events: &[DynInsn], funcs: &[u32], ended: bool) {
        let (width, window) = (self.cfg.width, self.cfg.window as u64);
        let mut pos = 0;
        loop {
            if !self.in_cycle {
                if self.head == self.tail && pos == events.len() {
                    return;
                }
                self.retired = self.retire();
                self.fetched = 0;
                self.fetch_start = self.tail;
                self.in_cycle = true;
            }
            while self.fetched < width && self.tail - self.head < window {
                let Some(ev) = events.get(pos) else {
                    if ended {
                        break;
                    }
                    return;
                };
                self.fetch(ev, funcs.get(pos).copied().unwrap_or(0));
                pos += 1;
                self.fetched += 1;
            }
            self.in_cycle = false;
            let (issued, lsq_stalls, forwards) = self.issue();
            self.stats.lsq_stalls += lsq_stalls;
            self.stats.forwards += forwards;
            let occupancy = (self.tail - self.head) as usize;
            self.occupancy[occupancy] += 1;
            // Attribute the cycle to the function of the oldest in-flight
            // instruction (the retirement bottleneck); if everything
            // already retired, charge the last-fetched function.
            let func = if self.head == self.tail {
                self.last_func
            } else {
                self.entry(self.head).func
            };
            self.charge(func, 1);
            self.cycle += 1;
            if self.retired == 0 && self.fetched == 0 && issued == 0 {
                // Nothing moved, so nothing will until the next completion:
                // the cycles before it repeat this one exactly.
                let Some(next) = self.next_completion() else { self.stuck() };
                let repeats = next - self.cycle;
                self.stats.lsq_stalls += lsq_stalls * repeats;
                self.stats.forwards += forwards * repeats;
                self.occupancy[occupancy] += repeats;
                self.charge(func, repeats);
                self.cycle = next;
            }
        }
    }

    /// Charge `cycles` to function `func`, when attributing.
    fn charge(&mut self, func: u32, cycles: u64) {
        if !self.bins.is_empty() {
            self.bins[func as usize] += cycles;
        }
    }

    /// Retire completed instructions in order, up to `width`.
    fn retire(&mut self) -> usize {
        let mut n = 0;
        while n < self.cfg.width
            && self.head < self.tail
            && self.entry(self.head).complete <= self.cycle
        {
            self.head += 1;
            n += 1;
        }
        n
    }

    /// Enter one event into the window, resolving each source to its
    /// in-flight producer (a retired producer is ready).
    fn fetch(&mut self, ev: &DynInsn, func: u32) {
        let (seq, mask) = (self.tail, self.mask);
        let (mut pending, mut ready) = (0u8, 0u64);
        for &key in ev.sources() {
            let Some(p) = self.producers.get(key).filter(|&p| p >= self.head) else {
                continue;
            };
            match self.ring[(p & mask) as usize].complete {
                UNISSUED => {
                    pending += 1;
                    self.consumers[(p & mask) as usize].push(seq);
                }
                complete => ready = ready.max(complete),
            }
        }
        if let Some(d) = ev.dst {
            self.producers.insert(d, seq);
        }
        let slot = (seq & mask) as usize;
        self.ring[slot] = Entry {
            kind: ev.kind,
            addr: ev.addr,
            complete: UNISSUED,
            pending,
            ready,
            func,
        };
        let (words, bit) = (self.cands.len(), 1 << (slot % 64));
        let unit = R10000Config::unit_of(ev.kind);
        for (u, slots) in self.units.chunks_mut(words).enumerate() {
            if u == unit {
                slots[slot / 64] |= bit;
            } else {
                slots[slot / 64] &= !bit;
            }
        }
        if ev.kind == DynKind::Store {
            self.stores_unissued.push_back(seq);
        }
        if pending == 0 {
            self.operands_known(seq, ready);
        }
        self.tail += 1;
        self.last_func = func;
        // A retired producer is ready: its name can go.
        self.producers.sweep(self.head);
    }

    /// Every producer of `seq` has issued, so its operands are ready at
    /// `ready`: file it as a candidate now or at that cycle.
    fn operands_known(&mut self, seq: u64, ready: u64) {
        let slot = (seq & self.mask) as usize;
        let word = if ready <= self.cycle {
            &mut self.cands[slot / 64]
        } else {
            &mut self.wheel[(ready & self.wheel_mask) as usize * self.cands.len() + slot / 64]
        };
        *word |= 1 << (slot % 64);
    }

    /// Issue from the candidates, oldest first, respecting unit limits
    /// and the LSQ rule. Returns `(issued, lsq_stalls, forwards)` for
    /// this cycle.
    fn issue(&mut self) -> (usize, u64, u64) {
        let (cfg, c, mask) = (self.cfg, self.cycle, self.mask);
        if !self.stores_ahead.is_empty() {
            self.stores_ahead.retain(|&(_, _, complete)| complete > c);
        }
        let words = self.cands.len();
        let bucket = (c & self.wheel_mask) as usize * words;
        for (cand, due) in self.cands.iter_mut().zip(&mut self.wheel[bucket..bucket + words]) {
            *cand |= std::mem::take(due);
        }
        let mut free = [cfg.int_units, cfg.fp_units, cfg.ls_units];
        let (mut issued, mut lsq_stalls, mut forwards) = (0, 0, 0);
        // Entries fetched this cycle cannot issue before the next one.
        let mut next = self.head;
        while issued < cfg.width {
            let Some(seq) = self.next_cand(next, self.fetch_start, &free) else { break };
            next = seq + 1;
            let slot = (seq & mask) as usize;
            let e = self.ring[slot];
            if e.kind == DynKind::Load {
                // The LSQ rule: no issue while an earlier store's address
                // is unknown, nor before an overlapping store's data.
                if self.stores_unissued.front().is_some_and(|&s| s < seq) {
                    lsq_stalls += 1;
                    continue;
                }
                if self
                    .stores_ahead
                    .iter()
                    .any(|&(s, addr, complete)| s < seq && addr == e.addr && complete > c)
                {
                    forwards += 1;
                    continue;
                }
            }
            let complete = c + cfg.class_latency(e.kind.class());
            self.ring[slot].complete = complete;
            self.cands[slot / 64] &= !(1 << (slot % 64));
            if e.kind == DynKind::Store {
                let at = self.stores_unissued.iter().position(|&s| s == seq);
                self.stores_unissued.remove(at.expect("an unissued store is listed"));
                self.stores_ahead.push((seq, e.addr, complete));
            }
            free[R10000Config::unit_of(e.kind)] -= 1;
            issued += 1;
            // Wake the consumers: each waits for one producer fewer. One
            // whose operands are ready now (a zero-latency producer) is
            // younger than `seq`, so this scan still reaches it.
            for k in 0..self.consumers[slot].len() {
                let d = self.consumers[slot][k];
                let de = &mut self.ring[(d & mask) as usize];
                de.pending -= 1;
                de.ready = de.ready.max(complete);
                if de.pending == 0 {
                    let ready = de.ready;
                    self.operands_known(d, ready);
                }
            }
            self.consumers[slot].clear();
        }
        (issued, lsq_stalls, forwards)
    }

    /// The oldest candidate in `from..limit` whose unit has one `free`.
    fn next_cand(&self, mut from: u64, limit: u64, free: &[usize; 3]) -> Option<u64> {
        let words = self.cands.len();
        // Slots within one word hold consecutive sequence numbers.
        while from < limit {
            let slot = (from & self.mask) as usize;
            let w = slot / 64;
            let mut usable = 0;
            for (u, &n) in free.iter().enumerate() {
                if n > 0 {
                    usable |= self.units[u * words + w];
                }
            }
            let bits = (self.cands[w] & usable) >> (slot % 64);
            if bits != 0 {
                let seq = from + u64::from(bits.trailing_zeros());
                return (seq < limit).then_some(seq);
            }
            from += 64 - (slot % 64) as u64;
        }
        None
    }

    /// The earliest completion still ahead of the current cycle.
    fn next_completion(&self) -> Option<u64> {
        (self.head..self.tail)
            .map(|s| self.entry(s).complete)
            .filter(|&t| t != UNISSUED && t >= self.cycle)
            .min()
    }

    /// No completion is ahead and nothing moved: the machine can never
    /// progress under this configuration.
    fn stuck(&self) -> ! {
        let at = self.cycle - 1;
        if self.head == self.tail {
            panic!(
                "r10000 model cannot progress at cycle {at}: instruction #{} can never be \
                 fetched (width {}, window {})",
                self.tail, self.cfg.width, self.cfg.window
            );
        }
        let e = self.entry(self.head);
        panic!(
            "r10000 model cannot progress at cycle {at}: the oldest instruction in flight, \
             #{} ({:?}), can never issue and nothing will complete ({:?})",
            self.head, e.kind, self.cfg
        );
    }
}

impl CycleSim for R10000Sim<'_> {
    fn feed(&mut self, events: &[DynInsn], funcs: &[u32]) {
        self.stats.insns += events.len() as u64;
        self.run(events, funcs, false);
    }

    fn finish(mut self: Box<Self>) -> (MachStats, Vec<u64>) {
        self.run(&[], &[], true);
        let stats = R10000Stats { cycles: self.cycle, ..self.stats };
        if stats.insns > 0 {
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
    use hli_lir::RegKey;

    fn ins(kind: DynKind, dst: Option<RegKey>, srcs: &[RegKey]) -> DynInsn {
        let mut s = [0u64; 3];
        for (i, &r) in srcs.iter().take(3).enumerate() {
            s[i] = r;
        }
        DynInsn { kind, dst, srcs: s, n_srcs: srcs.len() as u8, addr: 0 }
    }

    fn mem(kind: DynKind, dst: Option<RegKey>, srcs: &[RegKey], addr: i64) -> DynInsn {
        let mut e = ins(kind, dst, srcs);
        e.addr = addr;
        e
    }

    #[test]
    fn wide_issue_beats_scalar() {
        // 16 independent ALU ops: ~4 cycles of issue on a 4-wide core.
        let t: Vec<DynInsn> = (0..16).map(|i| ins(DynKind::IAlu, Some(i), &[])).collect();
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
        let s = R10000Config::default().cycles(&t);
        assert!(s.cycles >= 12, "chain cannot go wide: {}", s.cycles);
    }

    #[test]
    fn load_blocked_by_unissued_store() {
        // Store whose address depends on a slow divide; following load to a
        // DIFFERENT address still stalls until the store issues.
        let t = vec![
            ins(DynKind::IDiv, Some(1), &[]),
            mem(DynKind::Store, None, &[1], 0x1000),
            mem(DynKind::Load, Some(2), &[], 0x2000),
        ];
        let s = R10000Config::default().cycles(&t);
        assert!(s.detail("lsq_stalls").unwrap() > 0, "LSQ must hold the load back");
        // Same code with the store independent of the divide: loads fly.
        let t2 = vec![
            ins(DynKind::IDiv, Some(1), &[]),
            mem(DynKind::Store, None, &[], 0x1000),
            mem(DynKind::Load, Some(2), &[], 0x2000),
        ];
        let s2 = R10000Config::default().cycles(&t2);
        assert!(s2.cycles < s.cycles);
    }

    #[test]
    fn scheduling_loads_before_stores_pays() {
        // HLI-style schedule: the independent load moved above the store.
        let slow_store = |t: &mut Vec<DynInsn>| {
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

        let a = R10000Config::default().cycles(&gcc_order);
        let b = R10000Config::default().cycles(&hli_order);
        assert!(
            b.cycles < a.cycles,
            "hoisted load must win: {} vs {}",
            b.cycles,
            a.cycles
        );
    }

    #[test]
    fn store_to_load_forwarding_waits_for_data() {
        let t = vec![
            ins(DynKind::FDiv, Some(1), &[]),
            mem(DynKind::Store, None, &[1], 0x1000),
            mem(DynKind::Load, Some(2), &[], 0x1000),
        ];
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
    fn a_machine_that_cannot_issue_is_an_error() {
        // No integer unit: the first ALU op can never issue. The model
        // must say so rather than return a cycle count.
        let t: Vec<DynInsn> = (0..8).map(|i| ins(DynKind::IAlu, Some(i), &[])).collect();
        R10000Config { int_units: 0, ..Default::default() }.cycles(&t);
    }
}
