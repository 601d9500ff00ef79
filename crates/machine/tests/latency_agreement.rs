//! The drift-bug regression (ISSUE: "kill the scheduler/simulator latency
//! drift"): the scheduler used to carry its own hand-copied latency table
//! whose `imul`/`idiv`/`fdiv` entries (8/36/36) had silently drifted from
//! the R4600 model's (10/42/32), corrupting every `est_cycles` estimate.
//!
//! Now both sides read one table — [`MachineBackend::class_latency`] —
//! and this test pins the contract on **every target**:
//!
//! 1. the static classification (`hli_backend::op_class` on RTL ops) and
//!    the dynamic classification (`DynKind::class` on trace events) land
//!    each Op/DynKind pair in the same priced class;
//! 2. the scheduler-side per-op latency (`class_latency` of the op's
//!    `op_class`) equals the simulator-side per-event latency
//!    (`class_latency` of the event's class) — for every pair, on every
//!    registered backend;
//! 3. the simulators *behave* at those latencies (a load-use pair stalls
//!    for exactly `class_latency(Load) - 1` on the in-order cores);
//! 4. the R4600 values are the model's, not the drifted copies;
//! 5. each registered target reports the issue width its model has.

use hli_backend::op_class;
use hli_backend::rtl::{CmpOp, FBinOp, IBinOp, MemRef, Op};
use hli_lir::OpClass;
use hli_machine::{
    all_backends, backend_by_name, DynInsn, DynKind, MachineBackend, R4600Config, W4Config,
};

/// Representative static/dynamic pairs, mirroring the executor's Op →
/// DynKind emission (`hli_machine::exec`): if the executor ever reclasses
/// an op, or `op_class` diverges from `DynKind::class`, a pair here
/// breaks.
fn rep_pairs() -> Vec<(Op, DynKind)> {
    vec![
        (Op::LiI(0, 3), DynKind::Simple),
        (Op::LiF(0, 1.5), DynKind::Simple),
        (Op::Move(0, 1), DynKind::Simple),
        (Op::La(0, hli_backend::rtl::BaseAddr::Sym(0), 0), DynKind::Simple),
        (Op::IBin(IBinOp::Add, 0, 1, 2), DynKind::IAlu),
        (Op::IBinI(IBinOp::Sub, 0, 1, 3), DynKind::IAlu),
        (Op::IBin(IBinOp::Mul, 0, 1, 2), DynKind::IMul),
        (Op::IBinI(IBinOp::Mul, 0, 1, 3), DynKind::IMul),
        (Op::IBin(IBinOp::Div, 0, 1, 2), DynKind::IDiv),
        (Op::IBin(IBinOp::Rem, 0, 1, 2), DynKind::IDiv),
        (Op::IBinI(IBinOp::Rem, 0, 1, 3), DynKind::IDiv),
        (Op::FBin(FBinOp::Add, 0, 1, 2), DynKind::FAdd),
        (Op::FBin(FBinOp::Sub, 0, 1, 2), DynKind::FAdd),
        (Op::FBin(FBinOp::Mul, 0, 1, 2), DynKind::FMul),
        (Op::FBin(FBinOp::Div, 0, 1, 2), DynKind::FDiv),
        (Op::ICmp(CmpOp::Lt, 0, 1, 2), DynKind::IAlu),
        (Op::FCmp(CmpOp::Ge, 0, 1, 2), DynKind::FAdd),
        (Op::CvtIF(0, 1), DynKind::FAdd),
        (Op::CvtFI(0, 1), DynKind::FAdd),
        (Op::Load(0, MemRef::sym(0)), DynKind::Load),
        (Op::Store(MemRef::sym(0), 0), DynKind::Store),
        (
            Op::Call { dst: None, func: "f".into(), args: Vec::new() },
            DynKind::Call,
        ),
        (Op::Ret(None), DynKind::Ret),
        (Op::Jump(0), DynKind::Branch { taken: true }),
        (Op::Branch(CmpOp::Eq, 0, 1, 0), DynKind::Branch { taken: false }),
    ]
}

#[test]
fn scheduler_and_simulator_share_one_table_on_every_target() {
    let backends = all_backends();
    assert_eq!(backends.len(), 3, "r4600, r10000, w4");
    for (op, kind) in rep_pairs() {
        assert_eq!(
            op_class(&op),
            kind.class(),
            "static and dynamic classification disagree for {op:?} / {kind:?}"
        );
        for mach in backends {
            let sched_side = mach.class_latency(op_class(&op));
            let sim_side = mach.class_latency(kind.class());
            assert_eq!(
                sched_side,
                sim_side,
                "latency drift on {}: scheduler prices {op:?} at {sched_side}, \
                 simulator prices {kind:?} at {sim_side}",
                mach.name()
            );
        }
    }
}

#[test]
fn every_opclass_is_priced_on_every_target() {
    for mach in all_backends() {
        for class in OpClass::ALL {
            let lat = mach.class_latency(class);
            assert!(
                lat >= 1,
                "{}: class {class:?} must cost at least one cycle, got {lat}",
                mach.name()
            );
        }
    }
}

#[test]
fn r4600_values_are_the_models_not_the_drifted_copies() {
    // The old scheduler table said imul=8, idiv=36, fdiv=36. The machine
    // model says 10/42/32 — and since the fix there is only one table.
    let cfg = R4600Config::default();
    let mach = backend_by_name("r4600").unwrap();
    assert_eq!(mach.class_latency(OpClass::IMul), cfg.imul);
    assert_eq!(mach.class_latency(OpClass::IMul), 10);
    assert_eq!(mach.class_latency(OpClass::IDiv), cfg.idiv);
    assert_eq!(mach.class_latency(OpClass::IDiv), 42);
    assert_eq!(mach.class_latency(OpClass::FDiv), cfg.fdiv);
    assert_eq!(mach.class_latency(OpClass::FDiv), 32);
    assert_eq!(mach.class_latency(OpClass::Load), cfg.load);
    assert_eq!(mach.class_latency(OpClass::FAdd), cfg.fadd);
    assert_eq!(mach.class_latency(OpClass::FMul), cfg.fmul);
}

/// The in-order simulators must *behave* at the advertised latencies: a
/// consumer scheduled right behind a producer stalls for exactly
/// `class_latency - 1` cycles (one slot is covered by the issue itself).
#[test]
fn in_order_simulators_behave_at_the_advertised_latencies() {
    let producer_kinds = [
        DynKind::Load,
        DynKind::IMul,
        DynKind::IDiv,
        DynKind::FAdd,
        DynKind::FMul,
        DynKind::FDiv,
    ];
    for kind in producer_kinds {
        // The consumer reads the producer just before it.
        let t = vec![
            DynInsn { kind, srcs: [0; 3], addr: 0 },
            DynInsn { kind: DynKind::IAlu, srcs: [1, 0, 0], addr: 0 },
        ];
        let r4600 = R4600Config::default();
        let s = r4600.cycles(&t);
        assert_eq!(
            s.detail("stall_cycles"),
            Some(r4600.class_latency(kind.class()) - 1),
            "r4600 load-use distance for {kind:?}"
        );
        let w4 = W4Config::default();
        let s = w4.cycles(&t);
        assert_eq!(
            s.detail("stall_cycles"),
            Some(w4.class_latency(kind.class())),
            "w4 head-of-line wait for {kind:?} (consumer shares the producer's group)"
        );
    }
}

#[test]
fn registry_resolves_all_three_targets() {
    for (name, width) in [("r4600", 1), ("r10000", 4), ("w4", 4)] {
        let b = backend_by_name(name).expect(name);
        assert_eq!(b.name(), name);
        assert_eq!(b.issue_width(), width, "{name} issue width");
    }
    assert!(backend_by_name("r8000").is_none());
    let names: Vec<_> = all_backends().iter().map(|b| b.name()).collect();
    assert_eq!(names, vec!["r4600", "r10000", "w4"]);
}
