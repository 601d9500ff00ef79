//! # hli-lir — the canonical low-level IR and the machine-backend contract
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
//! * **A canonical LIR.** [`OpClass`] is the closed set of opcode classes
//!   a machine model prices; [`LirOp`]/[`LirFunc`] are the pre-resolved,
//!   deterministically ordered view of a lowered function (one `LirOp`
//!   per RTL instruction, index-aligned, carrying the opcode class, the
//!   operand kinds and the source line that joins back to HLI items and
//!   provenance records). [`DynKind`]/[`DynInsn`] are the *dynamic* side:
//!   trace events the executor emits and the timing models consume.
//! * **The [`MachineBackend`] trait.** One object per target; its
//!   [`MachineBackend::class_latency`] table is the **single source of
//!   truth** for operation cost. The scheduler, the LICM/unroll/CSE
//!   benefit estimators and the cycle simulators all consume latencies
//!   through the trait, so scheduler/simulator drift is impossible by
//!   construction (pinned by the latency-agreement test in
//!   `hli-machine`). Its simulator is a streaming [`CycleSim`]: the
//!   trace is fed in chunks and never has to exist whole.
//! * **[`RegTable`]**, the one register-to-value table the timing models
//!   share, bounded by sweeping entries that can no longer matter.
//!
//! The crate is dependency-free on purpose: it sits *below* both the
//! back-end (which schedules against a backend) and the machine crate
//! (which implements backends), the same way a shared ASDL pickle sits
//! between lcc's front and back ends.

use std::hash::Hasher;

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

/// A register identity unique across frames (frame serial ⊕ register).
pub type RegKey = u64;

/// One dynamic instruction event.
#[derive(Debug, Clone, Copy)]
pub struct DynInsn {
    pub kind: DynKind,
    /// Destination register, if any.
    pub dst: Option<RegKey>,
    /// Up to three source registers.
    pub srcs: [RegKey; 3],
    pub n_srcs: u8,
    /// Effective byte address for loads/stores.
    pub addr: i64,
}

impl DynInsn {
    #[inline]
    pub fn sources(&self) -> &[RegKey] {
        &self.srcs[..self.n_srcs as usize]
    }
}

/// What an operand *is*, statically. The LIR does not rename or renumber —
/// it only classifies, so a backend can price an op without looking at the
/// RTL it came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OperandKind {
    /// No operand in this slot.
    #[default]
    None,
    /// A virtual register.
    Reg,
    /// An integer or FP immediate.
    Imm,
    /// A memory reference (the op's single load/store slot).
    Mem,
    /// A symbol (global address, call target).
    Sym,
    /// A branch/jump label.
    Label,
}

/// One pre-resolved low-level op: the opcode class, the operand kinds and
/// the provenance hooks (`id` joins to the RTL instruction and through it
/// to the HLI mapping; `line` joins to `DecisionRecord.order`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LirOp {
    /// The originating RTL instruction id (stable across scheduling).
    pub id: u32,
    /// Source line, for provenance joins.
    pub line: u32,
    pub class: OpClass,
    pub dst: OperandKind,
    pub srcs: [OperandKind; 3],
    pub n_srcs: u8,
}

/// The LIR view of one function: `ops[i]` describes the function's `i`-th
/// instruction, in instruction order. Deterministic by construction — the
/// lowering is a pure index-aligned map, so two workers lowering the same
/// function produce byte-identical LIR (pipeit ADR-025's property: keep
/// the IR pre-resolved and ordered so parallel determinism stays cheap).
#[derive(Debug, Clone, Default)]
pub struct LirFunc {
    pub name: String,
    pub ops: Vec<LirOp>,
}

/// Structural scheduling facts about a target — what the static scheduler
/// is allowed to assume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleConstraints {
    /// Whether the machine issues strictly in program order (the schedule
    /// *is* the issue order) or reorders dynamically.
    pub in_order: bool,
    /// Instructions the machine can issue per cycle; the list scheduler
    /// models its makespans at this width.
    pub issue_width: u32,
    /// Dynamic lookahead (active-list size); 1 for pure in-order targets.
    pub window: u32,
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
/// shape and cycle simulator live.
///
/// The contract (DESIGN.md, "Machine description is the single latency
/// source"): [`MachineBackend::class_latency`] is the *only* latency
/// table. The default [`MachineBackend::latency`] derives per-op cost
/// from it, the scheduler and benefit estimators call through it, and a
/// conforming `cycles` implementation prices operands with it too — so a
/// scheduler and simulator handed the same backend cannot disagree.
pub trait MachineBackend: Sync {
    /// Stable target id ("r4600", "r10000", "w4"); used in CLI flags,
    /// metric keys (`machine.<name>.*`, `attr.*.<name>.*`) and the serve
    /// cache key.
    fn name(&self) -> &'static str;

    /// Cycles until a result of this class is usable — the single source
    /// of truth for this target's operation costs.
    fn class_latency(&self, class: OpClass) -> u64;

    /// Latency of one LIR op. Defaults to the class table; a backend may
    /// refine per-op (e.g. operand-kind-dependent costs) but must stay a
    /// pure function of the op.
    fn latency(&self, op: &LirOp) -> u64 {
        self.class_latency(op.class)
    }

    fn issue_width(&self) -> u32 {
        self.schedule_constraints().issue_width
    }

    fn schedule_constraints(&self) -> ScheduleConstraints;

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
/// window, a register table, a partly filled issue group): its state does
/// not grow with the trace.
pub trait CycleSim {
    /// The next events of the trace. `funcs[i]` is the index of the
    /// function owning `events[i]`; it is empty when the run was started
    /// with no function bins.
    fn feed(&mut self, events: &[DynInsn], funcs: &[u32]);

    /// The trace has ended: drain the machine, record the model's
    /// `machine.<name>.*` metrics and return its stats and function bins.
    fn finish(self: Box<Self>) -> (MachStats, Vec<u64>);
}

/// The hasher behind [`RegTable`]: one multiply-fold per key. A
/// [`RegKey`] is a frame serial and a register number, not attacker
/// input, so SipHash's flooding defence buys nothing here.
#[derive(Debug, Clone, Copy, Default)]
pub struct FoldHasher(u64);

impl FoldHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        let m = u128::from(self.0 ^ v) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The register table every timing model keeps: a value per live
/// [`RegKey`] (the cycle its result is ready, or the trace sequence number
/// of its in-flight producer).
///
/// Every register of every frame gets a key, so an unswept table would
/// grow with the number of calls executed. A model therefore calls
/// [`RegTable::sweep`] with a floor below which an entry means the same
/// as no entry (a ready time already in the past, a producer already
/// retired). Because a model's time only grows, a swept entry could never
/// have mattered again, and the sweep is exact.
///
/// The table is open-addressed with linear probing over [`FoldHasher`]
/// homes, at most half full; a sweep rebuilds it from the survivors.
#[derive(Debug, Clone)]
pub struct RegTable {
    /// `(key, value)` slots, a power of two of them; [`RegTable::FREE`]
    /// keys mark empty slots.
    slots: Vec<(RegKey, u64)>,
    len: usize,
    sweep_at: usize,
    /// Survivors of a sweep, kept to reuse its allocation.
    keep: Vec<(RegKey, u64)>,
}

impl Default for RegTable {
    fn default() -> Self {
        RegTable {
            slots: vec![(RegTable::FREE, 0); 2 * RegTable::MIN_SWEEP],
            len: 0,
            sweep_at: RegTable::MIN_SWEEP,
            keep: Vec::new(),
        }
    }
}

impl RegTable {
    /// The key of an empty slot (no frame serial reaches it).
    const FREE: RegKey = RegKey::MAX;
    /// Size below which [`RegTable::sweep`] does nothing.
    const MIN_SWEEP: usize = 256;

    /// The slot holding `key`, or the free slot where it would go.
    #[inline]
    fn slot(&self, key: RegKey) -> usize {
        let mut h = FoldHasher::default();
        h.write_u64(key);
        let mask = self.slots.len() - 1;
        let mut i = h.finish() as usize & mask;
        while self.slots[i].0 != key && self.slots[i].0 != RegTable::FREE {
            i = (i + 1) & mask;
        }
        i
    }

    #[inline]
    pub fn get(&self, key: RegKey) -> Option<u64> {
        let (k, v) = self.slots[self.slot(key)];
        (k == key).then_some(v)
    }

    #[inline]
    pub fn insert(&mut self, key: RegKey, value: u64) {
        debug_assert_ne!(key, RegTable::FREE, "reserved register key");
        let i = self.slot(key);
        if self.slots[i].0 == key {
            self.slots[i].1 = value;
            return;
        }
        self.slots[i] = (key, value);
        self.len += 1;
        if 2 * self.len > self.slots.len() {
            self.grow();
        }
    }

    #[cold]
    fn grow(&mut self) {
        self.keep.extend(self.slots.iter().filter(|s| s.0 != RegTable::FREE));
        self.rebuild(2 * self.slots.len());
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every entry whose value is below `floor`, once the table has
    /// doubled since the last sweep (so the cost is amortized O(1) per
    /// insert and the table stays within twice its live entries).
    #[inline]
    pub fn sweep(&mut self, floor: u64) {
        if self.len >= self.sweep_at {
            self.sweep_now(floor);
        }
    }

    #[cold]
    fn sweep_now(&mut self, floor: u64) {
        self.keep
            .extend(self.slots.iter().filter(|s| s.0 != RegTable::FREE && s.1 >= floor));
        self.sweep_at = (2 * self.keep.len()).max(RegTable::MIN_SWEEP);
        self.rebuild((2 * self.sweep_at).next_power_of_two());
    }

    /// Refill `cap` slots with the entries in `keep`.
    fn rebuild(&mut self, cap: usize) {
        self.slots.clear();
        self.slots.resize(cap, (RegTable::FREE, 0));
        self.len = self.keep.len();
        let keep = std::mem::take(&mut self.keep);
        for &(key, value) in &keep {
            let i = self.slot(key);
            self.slots[i] = (key, value);
        }
        self.keep = keep;
        self.keep.clear();
    }
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

    fn schedule_constraints(&self) -> ScheduleConstraints {
        ScheduleConstraints { in_order: true, issue_width: self.issue_width, window: 1 }
    }

    fn sim(&self, nfuncs: usize) -> Box<dyn CycleSim + '_> {
        Box::new(TableSim {
            backend: self,
            ready: RegTable::default(),
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
    ready: RegTable,
    bins: Vec<u64>,
    time: u64,
    stalls: u64,
    insns: u64,
}

impl CycleSim for TableSim<'_> {
    fn feed(&mut self, events: &[DynInsn], funcs: &[u32]) {
        for (i, ev) in events.iter().enumerate() {
            let operands_ready =
                ev.sources().iter().filter_map(|&r| self.ready.get(r)).max().unwrap_or(0);
            let issue = self.time.max(operands_ready);
            self.stalls += issue - self.time;
            let before = self.time;
            self.time = issue + 1;
            if let Some(d) = ev.dst {
                self.ready.insert(d, issue + self.backend.class_latency(ev.kind.class()));
            }
            if let Some(&f) = funcs.get(i) {
                self.bins[f as usize] += self.time - before;
            }
            self.ready.sweep(self.time);
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

    fn ins(kind: DynKind, dst: Option<RegKey>, srcs: &[RegKey]) -> DynInsn {
        let mut s = [0u64; 3];
        for (i, &r) in srcs.iter().take(3).enumerate() {
            s[i] = r;
        }
        DynInsn { kind, dst, srcs: s, n_srcs: srcs.len() as u8, addr: 0 }
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
    fn default_latency_is_the_class_table() {
        let b = TableBackend::scalar();
        let op = LirOp {
            id: 0,
            line: 1,
            class: OpClass::IDiv,
            dst: OperandKind::Reg,
            srcs: [OperandKind::Reg, OperandKind::Reg, OperandKind::None],
            n_srcs: 2,
        };
        assert_eq!(b.latency(&op), b.class_latency(OpClass::IDiv));
    }

    #[test]
    fn reg_table_matches_a_map_and_sweeps_exactly() {
        let mut table = RegTable::default();
        let mut model = std::collections::HashMap::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Keys as the executor makes them: frame serial and register.
            let key = ((x % 300) << 24) | ((x >> 40) % 16);
            table.insert(key, step);
            model.insert(key, step);
            if step % 97 == 0 {
                let floor = step.saturating_sub(500);
                table.sweep(floor);
                // What the sweep dropped is below the floor; what it kept
                // reads back unchanged.
                for (&k, &v) in &model {
                    match table.get(k) {
                        Some(t) => assert_eq!(t, v),
                        None => assert!(v < floor, "live entry {k:#x} swept"),
                    }
                }
                model.retain(|&k, _| table.get(k).is_some());
                assert_eq!(table.len(), model.len());
            }
        }
        assert!(table.len() < 4 * RegTable::MIN_SWEEP, "sweeps bound the table");
        assert!(table.get(RegTable::FREE - 1).is_none());
    }

    #[test]
    fn table_backend_stalls_on_use() {
        let b = TableBackend::scalar();
        let t = vec![
            ins(DynKind::Load, Some(1), &[]),
            ins(DynKind::IAlu, Some(2), &[1]),
        ];
        let s = b.cycles(&t);
        assert_eq!(s.cycles, 3);
        assert_eq!(s.detail("stall_cycles"), Some(1));
    }

    #[test]
    fn table_backend_bins_sum_to_total() {
        let b = TableBackend::scalar();
        let t = vec![
            ins(DynKind::Load, Some(1), &[]),
            ins(DynKind::IAlu, Some(2), &[1]),
            ins(DynKind::FDiv, Some(3), &[]),
            ins(DynKind::FAdd, Some(4), &[3]),
        ];
        let funcs = vec![0, 0, 1, 1];
        let (stats, bins) = b.cycles_per_func(&t, &funcs, 2);
        assert_eq!(bins.iter().sum::<u64>(), stats.cycles);
        assert_eq!(stats, b.cycles(&t));
    }
}
