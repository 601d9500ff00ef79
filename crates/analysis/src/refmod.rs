//! Interprocedural REF/MOD analysis.
//!
//! Computes, for every function, the set of abstract objects (declared
//! variables) the function — including everything it transitively calls —
//! may read (*REF*) or write (*MOD*). Pointer accesses are resolved through
//! [`crate::pointsto`]; an access through an unbounded pointer poisons the
//! summary (`unknown` = may touch anything). This feeds the HLI's function
//! call REF/MOD table, which the paper's Figure 4 uses to keep CSE's
//! subexpression table alive across calls.

use crate::pointsto::PointsTo;
use hli_lang::ast::Program;
use hli_lang::memwalk::{walk_function, AccessKind, AccessPath};
use hli_lang::sema::{Sema, SymId};
use std::collections::{BTreeSet, HashMap};

/// REF/MOD summary of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefModSet {
    pub refs: BTreeSet<SymId>,
    pub mods: BTreeSet<SymId>,
    /// True when some access cannot be bounded (unbounded pointer, or a
    /// call to an unknown function): consumers must assume the universe.
    pub unknown: bool,
}

impl RefModSet {
    /// May the function read `obj`?
    pub fn may_ref(&self, obj: SymId) -> bool {
        self.unknown || self.refs.contains(&obj)
    }

    /// May the function write `obj`?
    pub fn may_mod(&self, obj: SymId) -> bool {
        self.unknown || self.mods.contains(&obj)
    }

    fn absorb(&mut self, other: &RefModSet) -> bool {
        let before = (self.refs.len(), self.mods.len(), self.unknown);
        self.refs.extend(other.refs.iter().copied());
        self.mods.extend(other.mods.iter().copied());
        self.unknown |= other.unknown;
        before != (self.refs.len(), self.mods.len(), self.unknown)
    }
}

/// REF/MOD summaries for a whole program, by function index.
#[derive(Debug, Clone, Default)]
pub struct RefMod {
    pub per_func: Vec<RefModSet>,
    by_name: HashMap<String, usize>,
}

impl RefMod {
    pub fn of(&self, name: &str) -> Option<&RefModSet> {
        self.by_name.get(name).map(|&i| &self.per_func[i])
    }
}

/// Compute summaries bottom-up over the call graph (fixpoint handles
/// recursion).
pub fn analyze(prog: &Program, sema: &Sema, pts: &PointsTo) -> RefMod {
    let n = prog.funcs.len();
    let mut sets: Vec<RefModSet> = Vec::with_capacity(n);
    let mut callees: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];

    for (fi, f) in prog.funcs.iter().enumerate() {
        let mut rm = RefModSet::default();
        for ev in walk_function(f, sema) {
            match (&ev.kind, &ev.path) {
                (AccessKind::Load, AccessPath::Var(s) | AccessPath::ArrayElem(s, _)) => {
                    rm.refs.insert(*s);
                }
                (AccessKind::Store, AccessPath::Var(s) | AccessPath::ArrayElem(s, _)) => {
                    rm.mods.insert(*s);
                }
                (kind, AccessPath::PtrAccess(root, _)) => {
                    let into = |set: &mut BTreeSet<SymId>, unknown: &mut bool| match root {
                        Some(p) => match pts.targets(*p) {
                            Some(objs) => set.extend(objs.iter().copied()),
                            None => *unknown = true,
                        },
                        None => *unknown = true,
                    };
                    match kind {
                        AccessKind::Load => into(&mut rm.refs, &mut rm.unknown),
                        AccessKind::Store => into(&mut rm.mods, &mut rm.unknown),
                        AccessKind::Call => {}
                    }
                }
                (_, AccessPath::Call { callee }) => match sema.func_named(callee) {
                    Some(sig) => {
                        callees[fi].insert(sig.index as usize);
                    }
                    None => rm.unknown = true,
                },
                // ABI stack traffic touches no program object.
                (_, AccessPath::StackArg { .. } | AccessPath::StackParamEntry { .. }) => {}
                // A Call kind never carries a Var/ArrayElem path.
                (AccessKind::Call, _) => unreachable!("call events use Call paths"),
            }
        }
        sets.push(rm);
    }

    // Fixpoint propagation callee → caller.
    loop {
        let mut changed = false;
        for fi in 0..n {
            let targets: Vec<usize> = callees[fi].iter().copied().collect();
            for g in targets {
                let callee = sets[g].clone();
                changed |= sets[fi].absorb(&callee);
            }
        }
        if !changed {
            break;
        }
    }

    let by_name = prog.funcs.iter().enumerate().map(|(i, f)| (f.name.clone(), i)).collect();
    RefMod { per_func: sets, by_name }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointsto;
    use hli_lang::compile_to_ast;

    fn rm_of(src: &str) -> (RefMod, Sema) {
        let (p, s) = compile_to_ast(src).unwrap();
        let pts = pointsto::analyze(&p, &s);
        (analyze(&p, &s, &pts), s)
    }

    fn sym(s: &Sema, name: &str) -> SymId {
        s.syms
            .iter()
            .enumerate()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i as SymId)
            .unwrap()
    }

    #[test]
    fn direct_global_effects() {
        let (rm, s) = rm_of("int g; int h; int f() { return g; } void w() { h = 1; } int main() { w(); return f(); }");
        let f = rm.of("f").unwrap();
        assert!(f.may_ref(sym(&s, "g")));
        assert!(!f.may_mod(sym(&s, "g")));
        assert!(!f.may_ref(sym(&s, "h")));
        let w = rm.of("w").unwrap();
        assert!(w.may_mod(sym(&s, "h")));
        assert!(!w.unknown);
    }

    #[test]
    fn effects_propagate_to_callers() {
        let (rm, s) = rm_of(
            "int g; void inner() { g = 1; } void outer() { inner(); } int main() { outer(); return 0; }",
        );
        assert!(rm.of("outer").unwrap().may_mod(sym(&s, "g")));
        assert!(rm.of("main").unwrap().may_mod(sym(&s, "g")));
    }

    #[test]
    fn pointer_effects_resolved_via_points_to() {
        let (rm, s) = rm_of(
            "int a[8]; int b[8]; \
             void fill(int *p, int n) { int i; for (i = 0; i < n; i++) p[i] = i; } \
             int main() { fill(a, 8); return b[0]; }",
        );
        let fill = rm.of("fill").unwrap();
        assert!(fill.may_mod(sym(&s, "a")));
        assert!(!fill.may_mod(sym(&s, "b")), "b never passed to fill");
        assert!(!fill.unknown);
        // main inherits fill's effects and reads b directly.
        let main = rm.of("main").unwrap();
        assert!(main.may_mod(sym(&s, "a")));
        assert!(main.may_ref(sym(&s, "b")));
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        let (rm, s) = rm_of(
            "int g; int f(int n) { if (n <= 0) return g; return f(n - 1); } int main() { return f(3); }",
        );
        assert!(rm.of("f").unwrap().may_ref(sym(&s, "g")));
        assert!(rm.of("main").unwrap().may_ref(sym(&s, "g")));
    }

    #[test]
    fn mutual_recursion_reaches_fixpoint() {
        let (rm, s) = rm_of(
            "int g; int h; \
             int odd(int n) { h = h + 1; if (n == 0) return 0; return even(n - 1); } \
             int even(int n) { g = g + 1; if (n == 0) return 1; return odd(n - 1); } \
             int main() { return even(4); }",
        );
        // `even` transitively mods both g (direct) and h (via odd).
        let even = rm.of("even").unwrap();
        assert!(even.may_mod(sym(&s, "g")));
        assert!(even.may_mod(sym(&s, "h")));
    }

    #[test]
    fn unbounded_pointer_poisons_summary() {
        let (rm, _) = rm_of("int *gp; int main() { return *gp; }");
        // gp is never assigned: the deref is unbounded.
        assert!(rm.of("main").unwrap().unknown);
    }

    #[test]
    fn address_taken_local_spill_is_a_mod_of_local_only() {
        let (rm, s) = rm_of(
            "int g; void t(int *p) { *p = 2; } int f() { int x; t(&x); return x; } int main() { return f(); }",
        );
        let f = rm.of("f").unwrap();
        assert!(f.may_mod(sym(&s, "x")), "callee writes caller local via pointer");
        assert!(!f.may_mod(sym(&s, "g")));
        assert!(!f.unknown);
    }
}
