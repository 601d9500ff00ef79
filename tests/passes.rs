//! Optimization-pass integration: every pass combination must preserve the
//! oracle semantics and keep the HLI entry valid and mapped.

use hli_backend::cse::cse_function;
use hli_backend::ddg::DepMode;
use hli_backend::licm::licm_function;
use hli_backend::lower::lower_with_loops;
use hli_backend::mapping::map_function;
use hli_backend::sched::schedule_function;
use hli_backend::unroll::unroll_function;
use hli_core::HliQuery;
use hli_frontend::generate_hli;
use hli_lang::compile_to_ast;

const PROGRAMS: &[(&str, &str)] = &[
    (
        "accumulate",
        "int a[24]; int g = 2;\nint main() { int i; int s; s = 0; for (i = 0; i < 24; i++) { a[i] = g * i; s += a[i]; } return s; }",
    ),
    (
        "stencil",
        "double v[40];\nint main() { int i; v[0] = 1.0; for (i = 1; i < 40; i++) v[i] = v[i-1] * 0.5 + i; return v[39] * 100.0; }",
    ),
    (
        "pointer_kernels",
        "double x[20]; double y[20];\nvoid k(double *p, double *q, int n) { int i; for (i = 0; i < n; i++) { p[i] = p[i] + q[i] * 2.0; } }\nint main() { int i; for (i = 0; i < 20; i++) { x[i] = i; y[i] = 20 - i; } k(x, y, 20); return x[7] + y[3]; }",
    ),
    (
        "calls_and_globals",
        "int g; int h;\nint bump() { g = g + 1; return g; }\nint pure_h() { return h; }\nint main() { int i; int s; s = 0; h = 5; for (i = 0; i < 10; i++) { s = s + bump() + pure_h(); } return s; }",
    ),
    (
        "branches",
        "int a[16];\nint main() { int i; int s; s = 0; for (i = 0; i < 16; i++) { if (i % 3 == 0) a[i] = i; else a[i] = -i; } for (i = 0; i < 16; i++) s += a[i]; return s; }",
    ),
];

/// Apply all passes in sequence with HLI maintenance and re-execute.
fn full_pass_stack(name: &str, src: &str, mode: DepMode, unroll_factor: Option<u32>) {
    let (prog, sema) = compile_to_ast(src).unwrap_or_else(|e| panic!("{name}: {e}"));
    let oracle = hli_lang::interp::run_program(&prog, &sema).unwrap();
    let (rtl, loops) = lower_with_loops(&prog, &sema);
    let hli = generate_hli(&prog, &sema);
    let mut out = rtl.clone();
    for f in &rtl.funcs {
        let mut entry = hli.entry(&f.name).unwrap().clone();
        let mut map = map_function(f, &entry);
        let mut cur = f.clone();
        if let Some(u) = unroll_factor {
            let r = unroll_function(
                &cur,
                &loops[&f.name],
                u,
                Some((&mut entry, &mut map)),
                hli_machine::backend_by_name("r4600").unwrap(),
            );
            cur = r.func;
        }
        let r = cse_function(
            &cur,
            Some((&mut entry, &mut map)),
            mode,
            hli_machine::backend_by_name("r4600").unwrap(),
        );
        cur = r.func;
        let r = licm_function(
            &cur,
            Some((&mut entry, &mut map)),
            mode,
            hli_machine::backend_by_name("r4600").unwrap(),
        );
        cur = r.func;
        // HLI must stay structurally valid after all maintenance.
        let errs = entry.validate();
        assert!(errs.is_empty(), "{name} `{}` after passes: {errs:?}", f.name);
        // And the (possibly rewritten) code must still schedule legally.
        let q = HliQuery::new(&entry);
        let side = hli_backend::disamb::HliSide { query: &q, map: &map };
        let r = schedule_function(
            &cur,
            Some(&side),
            mode,
            hli_machine::backend_by_name("r4600").unwrap(),
        );
        *out.func_mut(&f.name).unwrap() = r.func;
    }
    let res = hli_machine::execute(&out)
        .unwrap_or_else(|e| panic!("{name} [{mode:?}, unroll {unroll_factor:?}]: {e}"));
    assert_eq!(res.ret, oracle.ret, "{name} [{mode:?}, unroll {unroll_factor:?}]");
    assert_eq!(
        res.global_checksum, oracle.global_checksum,
        "{name} [{mode:?}, unroll {unroll_factor:?}]: memory state"
    );
}

#[test]
fn pass_stack_preserves_semantics_gcc_mode() {
    for (name, src) in PROGRAMS {
        full_pass_stack(name, src, DepMode::GccOnly, None);
    }
}

#[test]
fn pass_stack_preserves_semantics_combined_mode() {
    for (name, src) in PROGRAMS {
        full_pass_stack(name, src, DepMode::Combined, None);
    }
}

#[test]
fn pass_stack_with_unrolling() {
    for factor in [2u32, 3, 4] {
        for (name, src) in PROGRAMS {
            full_pass_stack(name, src, DepMode::Combined, Some(factor));
        }
    }
}

#[test]
fn cse_improvement_is_monotone_in_information() {
    // More information can only keep equal-or-more loads.
    for (name, src) in PROGRAMS {
        let (prog, sema) = compile_to_ast(src).unwrap();
        let rtl = hli_backend::lower::lower_program(&prog, &sema);
        let hli = generate_hli(&prog, &sema);
        for f in &rtl.funcs {
            let plain = cse_function(
                f,
                None,
                DepMode::GccOnly,
                hli_machine::backend_by_name("r4600").unwrap(),
            );
            let mut entry = hli.entry(&f.name).unwrap().clone();
            let mut map = map_function(f, &entry);
            let smart = cse_function(
                f,
                Some((&mut entry, &mut map)),
                DepMode::Combined,
                hli_machine::backend_by_name("r4600").unwrap(),
            );
            assert!(
                smart.loads_eliminated >= plain.loads_eliminated,
                "{name} `{}`: {} < {}",
                f.name,
                smart.loads_eliminated,
                plain.loads_eliminated
            );
        }
    }
}

#[test]
fn licm_never_hoists_conflicting_loads() {
    // A loop whose load aliases its store must not hoist in either mode.
    let src =
        "int a[8];\nint main() { int i; for (i = 1; i < 8; i++) a[i] = a[i-1] + 1; return a[7]; }";
    let (prog, sema) = compile_to_ast(src).unwrap();
    let rtl = hli_backend::lower::lower_program(&prog, &sema);
    let hli = generate_hli(&prog, &sema);
    let f = rtl.func("main").unwrap();
    for mode in [DepMode::GccOnly, DepMode::Combined] {
        let mut entry = hli.entry("main").unwrap().clone();
        let mut map = map_function(f, &entry);
        let r = licm_function(
            f,
            Some((&mut entry, &mut map)),
            mode,
            hli_machine::backend_by_name("r4600").unwrap(),
        );
        assert_eq!(r.hoisted, 0, "{mode:?} must not hoist the recurrence load");
    }
}

#[test]
fn licm_never_speculates_guarded_pointer_loads() {
    // The guard (`ok`, always false) is what keeps the bad pointer from
    // being dereferenced; hoisting the load would fault. Regression test
    // for a real miscompile: LICM must leave conditionally executed
    // register-based loads alone.
    let src = "int ok;\n\
        int zero() { return 0; }\n\
        int main() {\n\
          int i; int t; int s; int *p;\n\
          p = &ok + zero() - 1000000;\n\
          t = 0; s = 0; ok = 0;\n\
          for (i = 0; i < 8; i++) {\n\
            if (ok) { t = *p; }\n\
            s = s + t + i;\n\
          }\n\
          return s;\n\
        }";
    let (p, se) = compile_to_ast(src).unwrap();
    let oracle = hli_lang::interp::run_program(&p, &se).unwrap();
    let rtl = hli_backend::lower::lower_program(&p, &se);
    let hli = generate_hli(&p, &se);
    let f = rtl.func("main").unwrap();
    let mut entry = hli.entry("main").unwrap().clone();
    let mut map = map_function(f, &entry);
    let r = licm_function(
        f,
        Some((&mut entry, &mut map)),
        DepMode::Combined,
        hli_machine::backend_by_name("r4600").unwrap(),
    );
    let mut p2 = rtl.clone();
    *p2.func_mut("main").unwrap() = r.func;
    let res = hli_machine::execute(&p2)
        .expect("hoisting must not introduce a fault the program never raises");
    assert_eq!(res.ret, oracle.ret);
}

#[test]
fn licm_still_hoists_named_object_loads_in_bodies() {
    // Globals are always-valid addresses: body loads of them may hoist
    // even though they sit past the loop's exit branch.
    let src = "int g; int x[32];\n\
        int main() { int i; for (i = 0; i < 32; i++) x[i] = g; return x[7]; }";
    let (p, se) = compile_to_ast(src).unwrap();
    let oracle = hli_lang::interp::run_program(&p, &se).unwrap();
    let rtl = hli_backend::lower::lower_program(&p, &se);
    let hli = generate_hli(&p, &se);
    let f = rtl.func("main").unwrap();
    let mut entry = hli.entry("main").unwrap().clone();
    let mut map = map_function(f, &entry);
    let r = licm_function(
        f,
        Some((&mut entry, &mut map)),
        DepMode::Combined,
        hli_machine::backend_by_name("r4600").unwrap(),
    );
    assert_eq!(r.hoisted, 1, "the g load must still hoist");
    let mut p2 = rtl.clone();
    *p2.func_mut("main").unwrap() = r.func;
    assert_eq!(hli_machine::execute(&p2).unwrap().ret, oracle.ret);
}
