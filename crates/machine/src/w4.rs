//! `w4` — a wide in-order (VLIW-ish) timing model: 4-issue, no dynamic
//! reordering, fully exposed latencies.
//!
//! The point of a third target is to make the Table-2 claim *per machine*:
//! the two MIPS models reward HLI scheduling for different reasons (the
//! scalar R4600 for covered load-use delays, the OoO R10000 for loads
//! lifted above stores in the LSQ), and a wide in-order core is different
//! from both — it has slots to fill **every cycle** and no hardware to
//! fill them itself, so the static schedule is the whole story. Exposed
//! ILP pays up to `width`-fold; a dependent chain wastes `width - 1`
//! slots per cycle.
//!
//! Model: up to `width` instructions issue per cycle, strictly in program
//! order (issue stops at the first instruction whose operands are not
//! ready — no skipping). An instruction's result is usable
//! `class_latency` cycles after issue. A taken branch ends its issue
//! group and costs `taken_branch_bubble`; calls/returns end the group and
//! cost `call_overhead` (the same pipeline effects the R4600 model
//! charges).

use crate::exec::{DynInsn, DynKind};
use hli_lir::{longest_latency, CycleSim, MachStats, MachineBackend, OpClass, ReadyRing};

/// Latency/shape configuration for the wide in-order core.
#[derive(Debug, Clone, Copy)]
pub struct W4Config {
    /// Issue slots per cycle.
    pub width: usize,
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

impl W4Config {
    /// A plausible wide-issue embedded-class table: shorter arithmetic
    /// pipes than the R4600, a slower cache than the R10000, four slots.
    pub const DEFAULT: W4Config = W4Config {
        width: 4,
        load: 3,
        ialu: 1,
        imul: 6,
        idiv: 24,
        fadd: 3,
        fmul: 4,
        fdiv: 24,
        call_overhead: 2,
        taken_branch_bubble: 2,
    };
}

impl Default for W4Config {
    fn default() -> Self {
        W4Config::DEFAULT
    }
}

/// Timing outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct W4Stats {
    cycles: u64,
    insns: u64,
    /// Cycles the issue head spent waiting for operands.
    stall_cycles: u64,
    /// Issue slots left empty (hazards, group-ending branches/calls).
    idle_slots: u64,
}

/// One run of the wide in-order core: the current issue group and the
/// ready cycles of the last few events.
struct W4Sim<'c> {
    cfg: &'c W4Config,
    ready: ReadyRing,
    bins: Vec<u64>,
    /// The cycle the current issue group occupies.
    time: u64,
    /// How many of its issue slots are filled.
    slots: usize,
    /// Function of the latest event, charged the trailing partial group.
    last_func: Option<u32>,
    stats: W4Stats,
}

impl CycleSim for W4Sim<'_> {
    fn feed(&mut self, events: &[DynInsn], funcs: &[u32]) {
        let cfg = self.cfg;
        let width = cfg.width.max(1);
        for (i, ev) in events.iter().enumerate() {
            let before = self.time;
            if self.slots == width {
                self.time += 1;
                self.slots = 0;
            }
            let operands_ready = self.ready.operands_ready(ev);
            if operands_ready > self.time {
                // Head-of-line hazard: the whole machine waits (no
                // reordering), wasting the rest of this group and every
                // intervening cycle.
                let wait = operands_ready - self.time;
                self.stats.stall_cycles += wait;
                self.stats.idle_slots += (width - self.slots) as u64 + (wait - 1) * width as u64;
                self.time = operands_ready;
                self.slots = 0;
            }
            self.slots += 1;
            self.ready.push(self.time + cfg.class_latency(ev.kind.class()));
            match ev.kind {
                DynKind::Branch { taken: true } => {
                    self.stats.idle_slots += (width - self.slots) as u64;
                    self.time += 1 + cfg.taken_branch_bubble;
                    self.slots = 0;
                }
                DynKind::Call | DynKind::Ret => {
                    self.stats.idle_slots += (width - self.slots) as u64;
                    self.time += 1 + cfg.call_overhead;
                    self.slots = 0;
                }
                _ => {}
            }
            // Charge the full advance to the owning function; per-function
            // sums then equal the total exactly (the trailing partial
            // group is charged to the last event in `finish`).
            if let Some(&f) = funcs.get(i) {
                self.bins[f as usize] += self.time - before;
                self.last_func = Some(f);
            }
        }
        self.stats.insns += events.len() as u64;
    }

    fn finish(mut self: Box<Self>) -> (MachStats, Vec<u64>) {
        if self.slots > 0 {
            // The last partially-filled group still takes its cycle.
            self.time += 1;
            if let Some(f) = self.last_func {
                self.bins[f as usize] += 1;
            }
        }
        let stats = W4Stats { cycles: self.time, ..self.stats };
        let reg = hli_obs::metrics::cur();
        reg.counter("machine.w4.cycles").add(stats.cycles);
        reg.counter("machine.w4.insns").add(stats.insns);
        reg.counter("machine.w4.stall_cycles").add(stats.stall_cycles);
        reg.counter("machine.w4.idle_slots").add(stats.idle_slots);
        (stats.into(), self.bins)
    }
}

impl MachineBackend for W4Config {
    fn name(&self) -> &'static str {
        "w4"
    }

    fn class_latency(&self, class: OpClass) -> u64 {
        match class {
            OpClass::Load => self.load,
            OpClass::IMul => self.imul,
            OpClass::IDiv => self.idiv,
            OpClass::FAdd => self.fadd,
            OpClass::FMul => self.fmul,
            OpClass::FDiv => self.fdiv,
            _ => self.ialu,
        }
    }

    fn issue_width(&self) -> u32 {
        self.width as u32
    }

    fn sim(&self, nfuncs: usize) -> Box<dyn CycleSim + '_> {
        // At least one cycle per `width` events: a producer `width`
        // longest latencies back is ready.
        let reach = self.width.max(1) as u64 * longest_latency(self);
        Box::new(W4Sim {
            cfg: self,
            ready: ReadyRing::new(reach),
            bins: vec![0; nfuncs],
            time: 0,
            slots: 0,
            last_func: None,
            stats: W4Stats::default(),
        })
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use hli_lir::{rename, RegInsn, RegKey};

    fn ins(kind: DynKind, dst: Option<RegKey>, srcs: &[RegKey]) -> RegInsn {
        RegInsn::new(kind, dst, srcs)
    }

    #[test]
    fn independent_insns_pack_four_wide() {
        let t = rename(&(0..16).map(|i| ins(DynKind::IAlu, Some(i), &[])).collect::<Vec<_>>());
        let s = W4Config::default().cycles(&t);
        assert_eq!(s.cycles, 4, "16 independent ops in 4 groups");
        assert_eq!(s.detail("stall_cycles"), Some(0));
        assert_eq!(s.detail("idle_slots"), Some(0));
    }

    #[test]
    fn dependent_chain_wastes_the_width() {
        let mut t = vec![ins(DynKind::IAlu, Some(0), &[])];
        for i in 1..8u64 {
            t.push(ins(DynKind::IAlu, Some(i), &[i - 1]));
        }
        let s = W4Config::default().cycles(&rename(&t));
        assert_eq!(s.cycles, 8, "one issue per cycle down a chain");
        assert!(
            s.detail("idle_slots").unwrap() >= 7 * 3,
            "three empty slots per chained cycle"
        );
    }

    #[test]
    fn head_of_line_load_blocks_everything() {
        // Independent work *behind* the load's consumer cannot pass it:
        // the machine is in-order, so the whole group waits.
        let t = rename(&[
            ins(DynKind::Load, Some(1), &[]),
            ins(DynKind::IAlu, Some(2), &[1]),
            ins(DynKind::IAlu, Some(3), &[]),
        ]);
        let s = W4Config::default().cycles(&t);
        assert!(s.detail("stall_cycles").unwrap() >= W4Config::DEFAULT.load - 1);
        // Scheduling the independent op between load and use hides it.
        let sched = rename(&[
            ins(DynKind::Load, Some(1), &[]),
            ins(DynKind::IAlu, Some(3), &[]),
            ins(DynKind::IAlu, Some(2), &[1]),
        ]);
        let s2 = W4Config::default().cycles(&sched);
        assert!(s2.cycles <= s.cycles);
    }

    #[test]
    fn taken_branch_ends_the_group() {
        let t = rename(&[
            ins(DynKind::IAlu, Some(1), &[]),
            ins(DynKind::Branch { taken: true }, None, &[]),
            ins(DynKind::IAlu, Some(2), &[]),
        ]);
        let s = W4Config::default().cycles(&t);
        // Group 1 (alu + branch) at cycle 0, bubble, then the next group.
        assert_eq!(s.cycles, 1 + 1 + W4Config::DEFAULT.taken_branch_bubble + 1 - 1);
        assert!(
            s.detail("idle_slots").unwrap() >= 2,
            "branch leaves its group's tail empty"
        );
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
        let cfg = W4Config::default();
        let (stats, bins) = cfg.cycles_per_func(&t, &funcs, 2);
        assert_eq!(bins.iter().sum::<u64>(), stats.cycles);
        assert_eq!(stats, cfg.cycles(&t), "attribution must not perturb timing");
    }

    #[test]
    fn empty_trace_is_zero() {
        let s = W4Config::default().cycles(&[]);
        assert_eq!(s.cycles, 0);
        assert_eq!(s.insns, 0);
    }
}
