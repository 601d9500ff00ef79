//! Affine (linear) expression extraction from MiniC expressions.
//!
//! Array dependence testing works on subscripts of the form
//! `c0 + Σ ci·vi` where the `vi` are integer variables (loop induction
//! variables and loop-invariant symbols). This module extracts that form
//! from an AST expression when it exists.

use hli_lang::ast::{BinOp, Expr, ExprKind, UnOp};
use hli_lang::sema::{Sema, SymId};
use hli_lang::types::Type;
use std::collections::BTreeMap;
use std::fmt;

/// An affine expression: `constant + Σ coeff·sym`. Terms with coefficient 0
/// are never stored.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Affine {
    pub terms: BTreeMap<SymId, i64>,
    pub constant: i64,
}

impl Affine {
    pub fn constant(c: i64) -> Self {
        Affine { terms: BTreeMap::new(), constant: c }
    }

    pub fn var(sym: SymId) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(sym, 1);
        Affine { terms, constant: 0 }
    }

    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Coefficient of a symbol (0 if absent).
    pub fn coeff(&self, sym: SymId) -> i64 {
        self.terms.get(&sym).copied().unwrap_or(0)
    }

    /// The expression with `sym`'s term removed.
    pub fn without(&self, sym: SymId) -> Affine {
        let mut a = self.clone();
        a.terms.remove(&sym);
        a
    }

    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.constant = out.constant.wrapping_add(other.constant);
        for (&s, &c) in &other.terms {
            let e = out.terms.entry(s).or_insert(0);
            *e = e.wrapping_add(c);
            if *e == 0 {
                out.terms.remove(&s);
            }
        }
        out
    }

    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            terms: self.terms.iter().map(|(&s, &c)| (s, c.wrapping_mul(k))).collect(),
            constant: self.constant.wrapping_mul(k),
        }
    }

    /// Do the two expressions differ only by a constant? Returns that
    /// constant (`self − other`) when so.
    pub fn const_difference(&self, other: &Affine) -> Option<i64> {
        if self.terms == other.terms {
            Some(self.constant - other.constant)
        } else {
            None
        }
    }

    /// Every symbol mentioned.
    pub fn symbols(&self) -> impl Iterator<Item = SymId> + '_ {
        self.terms.keys().copied()
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (s, c) in &self.terms {
            if first {
                if *c == 1 {
                    write!(f, "s{}", s)?;
                } else {
                    write!(f, "{}*s{}", c, s)?;
                }
                first = false;
            } else if *c >= 0 {
                write!(f, " + {}*s{}", c, s)?;
            } else {
                write!(f, " - {}*s{}", -c, s)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

/// Extract the affine form of an integer expression, or `None` when it is
/// not affine (multiplication of two variables, division, calls, loads
/// through memory, ...). Only scalar `int` variables become terms; an
/// `int`-typed memory read (array element, deref) is not a symbol and makes
/// the expression non-affine.
pub fn extract(e: &Expr, sema: &Sema) -> Option<Affine> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(Affine::constant(*v)),
        ExprKind::Ident(_) => {
            let sym = sema.ident_sym(e.id)?;
            if sema.sym(sym).ty == Type::Int {
                Some(Affine::var(sym))
            } else {
                None
            }
        }
        ExprKind::Unary(UnOp::Neg, a) => Some(extract(a, sema)?.scale(-1)),
        ExprKind::Binary(op, a, b) => {
            let fa = extract(a, sema);
            let fb = extract(b, sema);
            match op {
                BinOp::Add => Some(fa?.add(&fb?)),
                BinOp::Sub => Some(fa?.sub(&fb?)),
                BinOp::Mul => {
                    let (fa, fb) = (fa?, fb?);
                    if fa.is_constant() {
                        Some(fb.scale(fa.constant))
                    } else if fb.is_constant() {
                        Some(fa.scale(fb.constant))
                    } else {
                        None
                    }
                }
                BinOp::Shl => {
                    let (fa, fb) = (fa?, fb?);
                    if fb.is_constant() && (0..=31).contains(&fb.constant) {
                        Some(fa.scale(1 << fb.constant))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_lang::ast::{Program, StmtKind};
    use hli_lang::compile_to_ast;

    /// Parse a program whose main contains `x = <expr>;` and extract the
    /// RHS affine form.
    fn affine_of(expr_src: &str) -> (Option<Affine>, Sema, Program) {
        let src = format!(
            "int a[100]; int main() {{ int i; int j; int n; int x; i = 1; j = 2; n = 3; x = {expr_src}; return x; }}"
        );
        let (p, s) = compile_to_ast(&src).unwrap();
        let stmts = &p.funcs[0].body.stmts;
        let StmtKind::Expr(e) = &stmts[stmts.len() - 2].kind else { panic!() };
        let ExprKind::Assign(_, rhs) = &e.kind else { panic!() };
        let res = extract(rhs, &s);
        (res, s, p.clone())
    }

    fn sym_named(s: &Sema, name: &str) -> SymId {
        s.syms
            .iter()
            .enumerate()
            .find(|(_, v)| v.name == name)
            .map(|(i, _)| i as SymId)
            .unwrap()
    }

    #[test]
    fn constants_and_vars() {
        let (a, _, _) = affine_of("42");
        assert_eq!(a.unwrap(), Affine::constant(42));
        let (a, s, _) = affine_of("i");
        let a = a.unwrap();
        assert_eq!(a.coeff(sym_named(&s, "i")), 1);
        assert_eq!(a.constant, 0);
    }

    #[test]
    fn linear_combination() {
        let (a, s, _) = affine_of("2*i + 3*j - 4");
        let a = a.unwrap();
        assert_eq!(a.coeff(sym_named(&s, "i")), 2);
        assert_eq!(a.coeff(sym_named(&s, "j")), 3);
        assert_eq!(a.constant, -4);
    }

    #[test]
    fn nested_scaling_and_negation() {
        let (a, s, _) = affine_of("-(i - j) * 5 + 1");
        let a = a.unwrap();
        assert_eq!(a.coeff(sym_named(&s, "i")), -5);
        assert_eq!(a.coeff(sym_named(&s, "j")), 5);
        assert_eq!(a.constant, 1);
    }

    #[test]
    fn shift_as_scale() {
        let (a, s, _) = affine_of("i << 3");
        assert_eq!(a.unwrap().coeff(sym_named(&s, "i")), 8);
    }

    #[test]
    fn cancelling_terms_drop_out() {
        let (a, s, _) = affine_of("i + j - i");
        let a = a.unwrap();
        assert_eq!(a.coeff(sym_named(&s, "i")), 0);
        assert!(!a.terms.contains_key(&sym_named(&s, "i")));
        assert_eq!(a.coeff(sym_named(&s, "j")), 1);
    }

    #[test]
    fn nonaffine_rejected() {
        assert!(affine_of("i * j").0.is_none());
        assert!(affine_of("i / 2").0.is_none());
        assert!(affine_of("a[i]").0.is_none());
        assert!(affine_of("i % 3").0.is_none());
    }

    #[test]
    fn const_difference() {
        let (a, s, _) = affine_of("2*i + 5");
        let (b, s2, _) = affine_of("2*i + 1");
        // Same program shape ⇒ same SymIds for `i` in both parses.
        assert_eq!(sym_named(&s, "i"), sym_named(&s2, "i"));
        assert_eq!(a.unwrap().const_difference(&b.unwrap()), Some(4));
        let (c, _, _) = affine_of("3*i");
        let (d, _, _) = affine_of("2*i");
        assert_eq!(c.unwrap().const_difference(&d.unwrap()), None);
    }

    #[test]
    fn display_is_readable() {
        let (a, _, _) = affine_of("2*i - 3");
        let shown = a.unwrap().to_string();
        assert!(shown.contains("2*s"), "{shown}");
        assert!(shown.ends_with("- 3"), "{shown}");
        assert_eq!(Affine::constant(7).to_string(), "7");
    }
}
