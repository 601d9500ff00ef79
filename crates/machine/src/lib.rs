//! # hli-machine — the target-machine substrate
//!
//! The paper measures wall-clock speedups of HLI-scheduled binaries on two
//! MIPS machines: a pipelined in-order **R4600** and a 4-issue out-of-order
//! **R10000** whose load/store queue holds loads back until all preceding
//! stores are known independent (Section 4.3 attributes the R10000's larger
//! speedups to exactly that mechanism). Neither machine is available here,
//! so this crate provides deterministic simulators in their image:
//!
//! * [`exec`] — the RTL executor: functional semantics (the differential
//!   oracle against `hli-lang`'s AST interpreter) plus a dynamic
//!   instruction stream;
//! * [`r4600`] — a single-issue in-order pipeline timing model: issue one
//!   instruction per cycle, stall on operand latency (the compile-time
//!   schedule directly determines stalls);
//! * [`r10000`] — a 4-wide out-of-order model with a finite instruction
//!   window, function-unit contention, in-order retirement, and a
//!   load/store queue in which a load may not begin until every earlier
//!   store in the window has computed its address (and must wait for
//!   overlapping store data);
//! * [`w4`] — a wide in-order (VLIW-ish) model: 4 issue slots, no dynamic
//!   reordering, exposed latencies — the target where the static schedule
//!   is the *whole* story.
//!
//! Every model implements [`hli_lir::MachineBackend`]; its
//! `class_latency` table is the single latency source the scheduler, the
//! benefit estimators and the simulator itself all read (the
//! latency-agreement regression test pins this). Simulated cycle counts
//! replace the paper's wall-clock seconds; speedup ratios (GCC-scheduled
//! vs HLI-scheduled code on the same model) are the reproduced quantity.
//!
//! [`time_on`] runs a build once and streams its events, a fixed-size
//! chunk at a time, into every selected model's [`hli_lir::CycleSim`], so
//! no trace is ever held whole.

pub mod exec;
pub mod r10000;
pub mod r4600;
pub mod w4;

pub use exec::{execute, execute_with_func_trace, DynInsn, DynKind, ExecError, RunResult};
pub use hli_lir::{CycleSim, MachStats, MachineBackend, OpClass, ScheduleConstraints};
pub use r10000::R10000Config;
pub use r4600::R4600Config;
pub use w4::W4Config;

use exec::TraceSink;
use std::time::Instant;

/// The default-configured targets, as registry statics (`'static` so a
/// `&'static dyn MachineBackend` can be passed around freely).
pub static R4600_DEFAULT: R4600Config = R4600Config::DEFAULT;
pub static R10000_DEFAULT: R10000Config = R10000Config::DEFAULT;
pub static W4_DEFAULT: W4Config = W4Config::DEFAULT;

/// Every registered target, in canonical order (the order `--machine`
/// help text, target matrices and the cross-target tests use).
pub fn all_backends() -> [&'static dyn MachineBackend; 3] {
    [&R4600_DEFAULT, &R10000_DEFAULT, &W4_DEFAULT]
}

/// Resolve a target by its stable id ("r4600", "r10000", "w4").
pub fn backend_by_name(name: &str) -> Option<&'static dyn MachineBackend> {
    all_backends().into_iter().find(|b| b.name() == name)
}

/// The ids of every registered target, for error messages and usage text.
pub fn backend_names() -> Vec<&'static str> {
    all_backends().iter().map(|b| b.name()).collect()
}

/// One model's timing of a run: its stats and the cycles charged to each
/// function of the program.
pub type ModelTiming = (MachStats, Vec<u64>);

/// Events [`time_on`] buffers before handing them to the models: small
/// enough to stay in cache while every model walks it.
const CHUNK: usize = 1024;

/// Run a program once and time it on each given backend.
///
/// The caller names the backends (typically the same ones the scheduler
/// assumed), so a harness bin cannot silently time on a config that
/// differs from the one the schedule was built for. The run's events go
/// to every backend's [`CycleSim`] in chunks of `CHUNK` (1024) as they are
/// executed. Returns, per backend and in input order, the stats and the
/// cycles attributed to each function of `prog.funcs`.
///
/// The whole call is the span `machine.time`. Inside it, each model's
/// time is recorded as stage `machine.model.<name>`, and stage
/// `machine.execute` gets the executor's own time (the run minus the
/// models).
pub fn time_on(
    prog: &hli_backend::RtlProgram,
    machs: &[&dyn MachineBackend],
) -> Result<(RunResult, Vec<ModelTiming>), ExecError> {
    let _s = hli_obs::span("machine.time");
    if machs.is_empty() {
        return execute(prog).map(|res| (res, Vec::new()));
    }
    let start = Instant::now();
    let mut fan = FanOut {
        events: Vec::with_capacity(CHUNK),
        funcs: Vec::with_capacity(CHUNK),
        cur: 0,
        sims: machs.iter().map(|m| m.sim(prog.funcs.len())).collect(),
        ns: vec![0; machs.len()],
    };
    // A run that faults is not timed: its models are dropped unfinished,
    // so they record no `machine.<name>.*` metrics.
    let res = exec::run_traced(prog, &mut fan);
    let (stats, ns) = match res {
        Ok(_) => fan.finish(),
        Err(_) => (Vec::new(), fan.ns),
    };
    let total = start.elapsed().as_nanos() as u64;
    for (m, &ns) in machs.iter().zip(&ns) {
        hli_obs::phase::record(&format!("machine.model.{}", m.name()), ns);
    }
    hli_obs::phase::record("machine.execute", total.saturating_sub(ns.iter().sum()));
    res.map(|res| (res, stats))
}

/// The sink [`time_on`] runs a program into: buffers one chunk of events
/// (with their owning functions) and feeds it to every model, timing each.
struct FanOut<'m> {
    events: Vec<DynInsn>,
    funcs: Vec<u32>,
    cur: u32,
    sims: Vec<Box<dyn CycleSim + 'm>>,
    /// Host nanoseconds spent in each model.
    ns: Vec<u64>,
}

impl FanOut<'_> {
    fn flush(&mut self) {
        for (sim, ns) in self.sims.iter_mut().zip(&mut self.ns) {
            let t = Instant::now();
            sim.feed(&self.events, &self.funcs);
            *ns += t.elapsed().as_nanos() as u64;
        }
        self.events.clear();
        self.funcs.clear();
    }

    fn finish(mut self) -> (Vec<ModelTiming>, Vec<u64>) {
        self.flush();
        let mut ns = self.ns;
        let stats = self
            .sims
            .into_iter()
            .zip(&mut ns)
            .map(|(sim, ns)| {
                let t = Instant::now();
                let out = sim.finish();
                *ns += t.elapsed().as_nanos() as u64;
                out
            })
            .collect();
        (stats, ns)
    }
}

impl TraceSink for FanOut<'_> {
    fn event(&mut self, ev: DynInsn) {
        self.events.push(ev);
        self.funcs.push(self.cur);
        if self.events.len() == CHUNK {
            self.flush();
        }
    }

    fn enter(&mut self, func_idx: u32) {
        self.cur = func_idx;
    }
}
