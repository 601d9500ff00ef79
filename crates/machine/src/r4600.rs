//! R4600-like timing model: single-issue, in-order, stall-on-use.
//!
//! The R4600 is a scalar in-order pipeline; what the compile-time schedule
//! buys is covering operand latencies (a load's consumer scheduled two
//! slots later hides the load-use delay). The model: one instruction issues
//! per cycle, but not before every source register's producing instruction
//! has completed; a taken branch costs one bubble.

use crate::exec::{DynInsn, DynKind};
use hli_lir::{longest_latency, CycleSim, MachStats, MachineBackend, OpClass, ReadyRing};

/// Latency configuration (cycles until the result is usable).
#[derive(Debug, Clone, Copy)]
pub struct R4600Config {
    pub load: u64,
    pub ialu: u64,
    pub imul: u64,
    pub idiv: u64,
    pub fadd: u64,
    pub fmul: u64,
    pub fdiv: u64,
    pub call_overhead: u64,
    pub taken_branch_bubble: u64,
}

impl R4600Config {
    /// Roughly R4600-class numbers (const so the registry can hold a
    /// `'static` instance).
    pub const DEFAULT: R4600Config = R4600Config {
        load: 2,
        ialu: 1,
        imul: 10,
        idiv: 42,
        fadd: 4,
        fmul: 8,
        fdiv: 32,
        call_overhead: 2,
        taken_branch_bubble: 1,
    };
}

impl Default for R4600Config {
    fn default() -> Self {
        R4600Config::DEFAULT
    }
}

impl MachineBackend for R4600Config {
    fn name(&self) -> &'static str {
        "r4600"
    }

    /// The one latency table: the simulator's stall-on-use delays and the
    /// scheduler's critical-path weights both read it.
    fn class_latency(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Load => self.load,
            OpClass::IMul => self.imul,
            OpClass::IDiv => self.idiv,
            OpClass::FAdd => self.fadd,
            OpClass::FMul => self.fmul,
            OpClass::FDiv => self.fdiv,
            // Stores, branches, calls and plain ALU ops produce (or
            // forward) results at ALU speed; call/branch *overheads* are
            // pipeline effects the simulator adds separately.
            _ => self.ialu,
        }
    }

    fn issue_width(&self) -> u32 {
        1
    }

    fn sim(&self, nfuncs: usize) -> Box<dyn CycleSim + '_> {
        Box::new(R4600Sim {
            cfg: self,
            // At most one issue a cycle: a producer the longest latency or
            // more events back is ready.
            ready: ReadyRing::new(longest_latency(self)),
            bins: vec![0; nfuncs],
            time: 0,
            stats: R4600Stats::default(),
        })
    }
}

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
struct R4600Stats {
    cycles: u64,
    insns: u64,
    /// Cycles lost waiting for operands.
    stall_cycles: u64,
    /// Cycles lost to taken-branch bubbles.
    branch_bubbles: u64,
}

/// One run of the in-order pipeline. Its state is the issue clock and the
/// ready cycles of the last few events.
struct R4600Sim<'c> {
    cfg: &'c R4600Config,
    ready: ReadyRing,
    bins: Vec<u64>,
    time: u64,
    stats: R4600Stats,
}

impl CycleSim for R4600Sim<'_> {
    fn feed(&mut self, events: &[DynInsn], funcs: &[u32]) {
        let cfg = self.cfg;
        for (i, ev) in events.iter().enumerate() {
            let issue = self.time.max(self.ready.operands_ready(ev));
            self.stats.stall_cycles += issue - self.time;
            let before = self.time;
            self.time = issue + 1;
            match ev.kind {
                DynKind::Branch { taken: true } => {
                    self.time += cfg.taken_branch_bubble;
                    self.stats.branch_bubbles += cfg.taken_branch_bubble;
                }
                DynKind::Call | DynKind::Ret => {
                    self.time += cfg.call_overhead;
                }
                _ => {}
            }
            self.ready.push(issue + cfg.class_latency(ev.kind.class()));
            // Charge the full advance (issue stall + execute + bubbles) to
            // the function that owns this event; the per-function sums
            // then equal the total cycle count exactly.
            if let Some(&f) = funcs.get(i) {
                self.bins[f as usize] += self.time - before;
            }
        }
        self.stats.insns += events.len() as u64;
    }

    fn finish(self: Box<Self>) -> (MachStats, Vec<u64>) {
        let stats = R4600Stats { cycles: self.time, ..self.stats };
        let reg = hli_obs::metrics::cur();
        reg.counter("machine.r4600.cycles").add(stats.cycles);
        reg.counter("machine.r4600.insns").add(stats.insns);
        reg.counter("machine.r4600.stall_cycles").add(stats.stall_cycles);
        reg.counter("machine.r4600.branch_bubbles").add(stats.branch_bubbles);
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

    #[test]
    fn independent_insns_issue_every_cycle() {
        let t = rename(&(0..10).map(|i| ins(DynKind::IAlu, Some(i), &[])).collect::<Vec<_>>());
        let s = R4600Config::default().cycles(&t);
        assert_eq!(s.cycles, 10);
        assert_eq!(s.detail("stall_cycles"), Some(0));
    }

    #[test]
    fn load_use_stalls() {
        let t = rename(&[
            ins(DynKind::Load, Some(1), &[]),
            ins(DynKind::IAlu, Some(2), &[1]),
        ]);
        let s = R4600Config::default().cycles(&t);
        // Load issues at 0, ready at 2; consumer stalls one cycle.
        assert_eq!(s.detail("stall_cycles"), Some(1));
        assert_eq!(s.cycles, 3);
    }

    #[test]
    fn scheduling_distance_hides_latency() {
        let hidden = rename(&[
            ins(DynKind::Load, Some(1), &[]),
            ins(DynKind::IAlu, Some(3), &[]),
            ins(DynKind::IAlu, Some(2), &[1]),
        ]);
        let s = R4600Config::default().cycles(&hidden);
        assert_eq!(s.detail("stall_cycles"), Some(0), "filler covers the load delay");
        assert_eq!(s.cycles, 3);
    }

    #[test]
    fn fdiv_chain_is_slow() {
        let t = rename(&[
            ins(DynKind::FDiv, Some(1), &[]),
            ins(DynKind::FAdd, Some(2), &[1]),
        ]);
        let s = R4600Config::default().cycles(&t);
        assert!(s.cycles > 30);
    }

    #[test]
    fn taken_branches_cost_bubbles() {
        let t = rename(&[
            ins(DynKind::Branch { taken: true }, None, &[]),
            ins(DynKind::Branch { taken: false }, None, &[]),
        ]);
        let s = R4600Config::default().cycles(&t);
        assert_eq!(s.detail("branch_bubbles"), Some(1));
        assert_eq!(s.cycles, 3);
    }

    #[test]
    fn per_func_bins_sum_to_total() {
        let t = rename(&[
            ins(DynKind::Load, Some(1), &[]),
            ins(DynKind::IAlu, Some(2), &[1]),
            ins(DynKind::Call, None, &[]),
            ins(DynKind::FDiv, Some(3), &[]),
            ins(DynKind::FAdd, Some(4), &[3]),
            ins(DynKind::Ret, None, &[]),
        ]);
        let funcs = vec![0, 0, 0, 1, 1, 1];
        let cfg = R4600Config::default();
        let (stats, bins) = cfg.cycles_per_func(&t, &funcs, 2);
        assert_eq!(bins.iter().sum::<u64>(), stats.cycles);
        assert_eq!(stats, cfg.cycles(&t), "attribution must not perturb timing");
        assert!(bins[1] > bins[0], "fdiv chain dominates");
    }

    #[test]
    fn empty_trace_is_zero() {
        let s = R4600Config::default().cycles(&[]);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.insns, 0);
    }
}
