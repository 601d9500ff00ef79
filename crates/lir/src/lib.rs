//! # hli-lir — opcode classes, trace events and the machine-backend contract
//!
//! The crates above this one used to disagree about what an instruction
//! costs: the scheduler carried its own latency table, each timing
//! simulator carried another, and the serve daemon carried a third.
//! Hand-copied tables drift (the scheduler's `imul`/`idiv`/`fdiv` entries
//! had already drifted from the R4600 model's), and a drifted table
//! silently corrupts every `est_cycles` estimate and every
//! decision-to-cycles rollup.
//!
//! This crate is the fix, in two layers:
//!
//! * **Opcode classes and trace events.** [`OpClass`] is the closed set
//!   of opcode classes a machine model prices; the back end classifies
//!   each RTL instruction into one (`hli_backend::op_class`).
//!   [`DynKind`]/[`DynInsn`] are the *dynamic* side: trace events the
//!   executor emits and the timing models consume.
//! * **The [`MachineBackend`] trait.** One object per target; its
//!   [`MachineBackend::class_latency`] table is the **single source of
//!   truth** for operation cost. The scheduler, the LICM/unroll/CSE
//!   benefit estimators and the cycle simulators all consume latencies
//!   through the trait, so scheduler/simulator drift is impossible by
//!   construction (pinned by the latency-agreement test in
//!   `hli-machine`). Its simulator is a streaming [`CycleSim`]: the
//!   trace is fed in chunks and never has to exist whole.
//!
//! Trace events carry dataflow resolved once: the executor names each
//! source's *producer*, the event that last wrote it, so no timing model
//! renames registers. The in-order models keep the ready cycle of the
//! last few events in a [`ReadyRing`]; [`rename`] gives the same form to
//! a trace written by register name.
//!
//! The crate is dependency-free on purpose: it sits *below* both the
//! back-end (which schedules against a backend) and the machine crate
//! (which implements backends), the same way a shared ASDL pickle sits
//! between lcc's front and back ends.

/// The closed set of opcode classes a machine model prices. Every RTL
/// `Op` and every dynamic [`DynKind`] maps into exactly one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU work: adds, logicals, compares, moves, immediates,
    /// address formation.
    IAlu,
    IMul,
    IDiv,
    /// FP add/sub (and compares/conversions, which share the adder).
    FAdd,
    FMul,
    FDiv,
    Load,
    Store,
    /// Control transfer (jump or conditional branch).
    Branch,
    Call,
    Ret,
}

impl OpClass {
    /// Every class, in a fixed order (the latency-agreement test and
    /// [`TableBackend`] both iterate/index this).
    pub const ALL: [OpClass; 11] = [
        OpClass::IAlu,
        OpClass::IMul,
        OpClass::IDiv,
        OpClass::FAdd,
        OpClass::FMul,
        OpClass::FDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Call,
        OpClass::Ret,
    ];

    /// Stable dense index (position in [`OpClass::ALL`]).
    pub fn index(self) -> usize {
        match self {
            OpClass::IAlu => 0,
            OpClass::IMul => 1,
            OpClass::IDiv => 2,
            OpClass::FAdd => 3,
            OpClass::FMul => 4,
            OpClass::FDiv => 5,
            OpClass::Load => 6,
            OpClass::Store => 7,
            OpClass::Branch => 8,
            OpClass::Call => 9,
            OpClass::Ret => 10,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            OpClass::IAlu => "ialu",
            OpClass::IMul => "imul",
            OpClass::IDiv => "idiv",
            OpClass::FAdd => "fadd",
            OpClass::FMul => "fmul",
            OpClass::FDiv => "fdiv",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Call => "call",
            OpClass::Ret => "ret",
        }
    }
}

/// Kind of a dynamic instruction, as the timing models see it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynKind {
    IAlu,
    IMul,
    IDiv,
    FAdd,
    FMul,
    FDiv,
    Load,
    Store,
    Call,
    Ret,
    /// Control transfer (jump or branch; `taken` distinguishes fall-through
    /// branches for front-end bubbles).
    Branch {
        taken: bool,
    },
    /// Register-only bookkeeping (moves, immediates, address formation).
    Simple,
}

impl DynKind {
    /// The opcode class a machine model prices this event at.
    #[inline]
    pub fn class(self) -> OpClass {
        match self {
            DynKind::IAlu | DynKind::Simple => OpClass::IAlu,
            DynKind::IMul => OpClass::IMul,
            DynKind::IDiv => OpClass::IDiv,
            DynKind::FAdd => OpClass::FAdd,
            DynKind::FMul => OpClass::FMul,
            DynKind::FDiv => OpClass::FDiv,
            DynKind::Load => OpClass::Load,
            DynKind::Store => OpClass::Store,
            DynKind::Call => OpClass::Call,
            DynKind::Ret => OpClass::Ret,
            DynKind::Branch { .. } => OpClass::Branch,
        }
    }
}

/// One dynamic instruction event.
///
/// A source operand is named by its *producer*: the event that last wrote
/// the register it reads, given as a distance back in the trace (`1` is
/// the event just before). `0` names no producer, for an unused slot or a
/// register no event of the run wrote (a parameter filled by the call, a
/// register never written). A register's value is the same in every model,
/// so only which event made it matters, and the executor knows that when
/// it runs the instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInsn {
    pub kind: DynKind,
    /// Producer distances of up to three source operands (0 = none).
    pub srcs: [u32; 3],
    /// Effective byte address for loads/stores.
    pub addr: i64,
}

/// A register name in a trace written by register ([`RegInsn`]).
pub type RegKey = u64;

/// A trace event written by register name, the way a hand-written trace
/// names operands; [`rename`] resolves a trace of them to [`DynInsn`]s.
#[derive(Debug, Clone, Copy)]
pub struct RegInsn {
    pub kind: DynKind,
    /// Destination register, if any.
    pub dst: Option<RegKey>,
    /// Up to three source registers.
    pub srcs: [RegKey; 3],
    pub n_srcs: u8,
    /// Effective byte address for loads/stores.
    pub addr: i64,
}

impl RegInsn {
    /// An event of `kind` writing `dst` and reading the first three of
    /// `srcs`, at address 0.
    pub fn new(kind: DynKind, dst: Option<RegKey>, srcs: &[RegKey]) -> RegInsn {
        let mut s = [0; 3];
        let n = srcs.len().min(3);
        s[..n].copy_from_slice(&srcs[..n]);
        RegInsn { kind, dst, srcs: s, n_srcs: n as u8, addr: 0 }
    }

    #[inline]
    pub fn sources(&self) -> &[RegKey] {
        &self.srcs[..self.n_srcs as usize]
    }
}

/// Name each source of a register-written trace by its producer: the
/// latest earlier event whose `dst` is that register, or none. This is
/// the renaming the executor does as it runs, for traces written by hand.
pub fn rename(trace: &[RegInsn]) -> Vec<DynInsn> {
    let mut writer = std::collections::HashMap::new();
    let mut out = Vec::with_capacity(trace.len());
    for (seq, ev) in trace.iter().enumerate() {
        let mut srcs = [0; 3];
        for (d, r) in srcs.iter_mut().zip(ev.sources()) {
            *d = writer.get(r).map_or(0, |&w: &usize| (seq - w) as u32);
        }
        if let Some(r) = ev.dst {
            writer.insert(r, seq);
        }
        out.push(DynInsn { kind: ev.kind, srcs, addr: ev.addr });
    }
    out
}

/// Timing outcome of running a trace on a backend, in target-neutral
/// shape. `detail` carries the model-specific counters (stall cycles, LSQ
/// stalls, idle slots ...) keyed by their metric leaf names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachStats {
    pub cycles: u64,
    pub insns: u64,
    pub detail: Vec<(&'static str, u64)>,
}

impl MachStats {
    /// Look up a model-specific counter by leaf name.
    pub fn detail(&self, name: &str) -> Option<u64> {
        self.detail.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
    }
}

/// A pluggable target machine: the one place its latency table, issue
/// width and cycle simulator live.
///
/// The contract (DESIGN.md, "Machine description is the single latency
/// source"): [`MachineBackend::class_latency`] is the *only* latency
/// table. The scheduler and benefit estimators price each instruction
/// through it, and a conforming `cycles` implementation prices operands
/// with it too — so a scheduler and simulator handed the same backend
/// cannot disagree.
pub trait MachineBackend: Sync {
    /// Stable target id ("r4600", "r10000", "w4"); used in CLI flags,
    /// metric keys (`machine.<name>.*`, `attr.*.<name>.*`) and the serve
    /// cache key.
    fn name(&self) -> &'static str;

    /// Cycles until a result of this class is usable — the single source
    /// of truth for this target's operation costs.
    fn class_latency(&self, class: OpClass) -> u64;

    /// Instructions the machine can issue per cycle; the list scheduler
    /// models its makespans at this width.
    fn issue_width(&self) -> u32;

    /// Start one run of this target's timing model, attributing cycles
    /// to `nfuncs` function bins (0 = no attribution).
    fn sim(&self, nfuncs: usize) -> Box<dyn CycleSim + '_>;

    /// Run a whole dynamic trace through this target's timing model.
    fn cycles(&self, trace: &[DynInsn]) -> MachStats {
        let mut sim = self.sim(0);
        sim.feed(trace, &[]);
        sim.finish().0
    }

    /// Like [`MachineBackend::cycles`], but also attributes cycles to
    /// functions: `funcs[i]` is the index of the function owning
    /// `trace[i]`, and the returned vector has `nfuncs` bins whose sum
    /// equals `stats.cycles` exactly.
    fn cycles_per_func(
        &self,
        trace: &[DynInsn],
        funcs: &[u32],
        nfuncs: usize,
    ) -> (MachStats, Vec<u64>) {
        let funcs = if nfuncs == 0 { &[][..] } else { funcs };
        debug_assert!(funcs.is_empty() || funcs.len() == trace.len());
        let mut sim = self.sim(nfuncs);
        sim.feed(trace, funcs);
        sim.finish()
    }
}

/// One run of a timing model, fed the dynamic trace in order.
///
/// The contract: feeding a trace in any split into chunks, then calling
/// [`CycleSim::finish`], gives exactly what one feed of the whole trace
/// gives — so an executor can stream events to several models at once and
/// never hold the trace. A model keeps only what its hardware keeps (a
/// window, the ready cycles of recent events, a partly filled issue
/// group): its state does not grow with the trace.
pub trait CycleSim {
    /// The next events of the trace. `funcs[i]` is the index of the
    /// function owning `events[i]`; it is empty when the run was started
    /// with no function bins.
    fn feed(&mut self, events: &[DynInsn], funcs: &[u32]);

    /// The trace has ended: drain the machine, record the model's
    /// `machine.<name>.*` metrics and return its stats and function bins.
    fn finish(self: Box<Self>) -> (MachStats, Vec<u64>);
}

/// The ready cycle of each of the last few events, by trace sequence
/// number: the whole register state of an in-order timing model.
///
/// A model sizes the ring to a `reach` past which every producer is
/// ready. An in-order clock advances at least one cycle per `width`
/// events, so a producer `width × L` or more events back, `L` the longest
/// latency, was ready by the time the consumer issues: beyond the ring a
/// producer reads as ready, exactly as it would inside it.
#[derive(Debug, Clone)]
pub struct ReadyRing {
    /// `ready[s & mask]` for the last `ready.len()` sequence numbers `s`.
    ready: Vec<u64>,
    mask: u64,
    /// Sequence number of the next event.
    seq: u64,
}

impl ReadyRing {
    /// A ring answering for producers up to at least `reach` events back.
    pub fn new(reach: u64) -> ReadyRing {
        let len = reach.max(1).next_power_of_two();
        ReadyRing { ready: vec![0; len as usize], mask: len - 1, seq: 0 }
    }

    /// The cycle every producer of the next event, `ev`, is ready by (0
    /// when it has none inside the ring).
    #[inline]
    pub fn operands_ready(&self, ev: &DynInsn) -> u64 {
        let mut ready = 0;
        for &d in &ev.srcs {
            let d = u64::from(d);
            // 1 ..= len: still in the ring (the next event's slot is
            // written only after its sources are read).
            if d.wrapping_sub(1) <= self.mask {
                ready = ready.max(self.ready[(self.seq.wrapping_sub(d) & self.mask) as usize]);
            }
        }
        ready
    }

    /// Record the next event's ready cycle; the one after it is next.
    #[inline]
    pub fn push(&mut self, ready: u64) {
        self.ready[(self.seq & self.mask) as usize] = ready;
        self.seq += 1;
    }
}

/// The longest latency of any class on `backend`: the furthest ahead a
/// result can be, the reach of its in-order ready ring.
pub fn longest_latency(backend: &(impl MachineBackend + ?Sized)) -> u64 {
    OpClass::ALL.iter().map(|&c| backend.class_latency(c)).max().unwrap_or(0)
}

/// A minimal concrete backend: a named per-class latency table over a
/// scalar stall-on-use pipeline. This is the test double the back-end's
/// own unit tests schedule against (they cannot see `hli-machine`, which
/// sits above the back-end), and a convenient base for experiments.
#[derive(Debug, Clone)]
pub struct TableBackend {
    pub name: &'static str,
    /// Latency per class, indexed by [`OpClass::index`].
    pub table: [u64; OpClass::ALL.len()],
    pub issue_width: u32,
}

impl TableBackend {
    /// A scalar table matching classic in-order defaults (load 2, ialu 1,
    /// imul 10, idiv 42, fadd 4, fmul 8, fdiv 32, everything else 1).
    pub fn scalar() -> TableBackend {
        let mut table = [1u64; OpClass::ALL.len()];
        table[OpClass::Load.index()] = 2;
        table[OpClass::IMul.index()] = 10;
        table[OpClass::IDiv.index()] = 42;
        table[OpClass::FAdd.index()] = 4;
        table[OpClass::FMul.index()] = 8;
        table[OpClass::FDiv.index()] = 32;
        TableBackend { name: "table", table, issue_width: 1 }
    }
}

impl MachineBackend for TableBackend {
    fn name(&self) -> &'static str {
        self.name
    }

    fn class_latency(&self, class: OpClass) -> u64 {
        self.table[class.index()]
    }

    fn issue_width(&self) -> u32 {
        self.issue_width
    }

    fn sim(&self, nfuncs: usize) -> Box<dyn CycleSim + '_> {
        Box::new(TableSim {
            backend: self,
            ready: ReadyRing::new(longest_latency(self)),
            bins: vec![0; nfuncs],
            time: 0,
            stalls: 0,
            insns: 0,
        })
    }
}

/// [`TableBackend`]'s run: scalar in-order stall-on-use, one issue per
/// cycle, an instruction waits for its operands' producing latencies.
struct TableSim<'b> {
    backend: &'b TableBackend,
    ready: ReadyRing,
    bins: Vec<u64>,
    time: u64,
    stalls: u64,
    insns: u64,
}

impl CycleSim for TableSim<'_> {
    fn feed(&mut self, events: &[DynInsn], funcs: &[u32]) {
        for (i, ev) in events.iter().enumerate() {
            let issue = self.time.max(self.ready.operands_ready(ev));
            self.stalls += issue - self.time;
            let before = self.time;
            self.time = issue + 1;
            self.ready.push(issue + self.backend.class_latency(ev.kind.class()));
            if let Some(&f) = funcs.get(i) {
                self.bins[f as usize] += self.time - before;
            }
        }
        self.insns += events.len() as u64;
    }

    fn finish(self: Box<Self>) -> (MachStats, Vec<u64>) {
        let stats = MachStats {
            cycles: self.time,
            insns: self.insns,
            detail: vec![("stall_cycles", self.stalls)],
        };
        (stats, self.bins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(kind: DynKind, dst: Option<RegKey>, srcs: &[RegKey]) -> RegInsn {
        RegInsn::new(kind, dst, srcs)
    }

    #[test]
    fn class_index_matches_all_order() {
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c:?}");
        }
    }

    #[test]
    fn every_dynkind_has_a_class() {
        assert_eq!(DynKind::Simple.class(), OpClass::IAlu);
        assert_eq!(DynKind::Branch { taken: true }.class(), OpClass::Branch);
        assert_eq!(DynKind::Branch { taken: false }.class(), OpClass::Branch);
        assert_eq!(DynKind::Load.class(), OpClass::Load);
    }

    #[test]
    fn rename_names_the_latest_writer() {
        let t = rename(&[
            ins(DynKind::Load, Some(7), &[3]),
            ins(DynKind::IAlu, Some(7), &[7, 7]),
            ins(DynKind::Store, None, &[7, 3, 8]),
            ins(DynKind::IAlu, Some(8), &[]),
            ins(DynKind::IAlu, None, &[8, 7]),
        ]);
        let srcs: Vec<[u32; 3]> = t.iter().map(|e| e.srcs).collect();
        assert_eq!(srcs, [[0, 0, 0], [1, 1, 0], [1, 0, 0], [0, 0, 0], [1, 3, 0]]);
    }

    #[test]
    fn ready_ring_reads_producers_within_its_reach() {
        let mut ring = ReadyRing::new(3);
        for ready in [10, 20, 30, 40] {
            ring.push(ready);
        }
        let ev = |srcs| DynInsn { kind: DynKind::IAlu, srcs, addr: 0 };
        assert_eq!(ring.operands_ready(&ev([1, 0, 0])), 40);
        assert_eq!(ring.operands_ready(&ev([0, 4, 2])), 30);
        assert_eq!(
            ring.operands_ready(&ev([5, 0, 0])),
            0,
            "beyond the reach reads as ready"
        );
        assert_eq!(ring.operands_ready(&ev([0, 0, 0])), 0);
    }

    #[test]
    fn table_backend_stalls_on_use() {
        let b = TableBackend::scalar();
        let t = rename(&[
            ins(DynKind::Load, Some(1), &[]),
            ins(DynKind::IAlu, Some(2), &[1]),
        ]);
        let s = b.cycles(&t);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.detail("stall_cycles"), Some(1));
    }

    #[test]
    fn table_backend_bins_sum_to_total() {
        let b = TableBackend::scalar();
        let t = rename(&[
            ins(DynKind::Load, Some(1), &[]),
            ins(DynKind::IAlu, Some(2), &[1]),
            ins(DynKind::FDiv, Some(3), &[]),
            ins(DynKind::FAdd, Some(4), &[3]),
        ]);
        let funcs = vec![0, 0, 1, 1];
        let (stats, bins) = b.cycles_per_func(&t, &funcs, 2);
        assert_eq!(bins.iter().sum::<u64>(), stats.cycles);
        assert_eq!(stats, b.cycles(&t));
    }
}
