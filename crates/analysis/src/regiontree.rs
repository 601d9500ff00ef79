//! The hierarchical region structure of a function.
//!
//! *"A region can be a program unit or a loop and can include sub-regions"*
//! (Section 2.2). This module builds that tree from the AST: node 0 is the
//! program unit; every loop statement (`for`, `while`, `do`) becomes a
//! nested region. Canonical `for` loops carry their recognized bounds.
//!
//! Alongside the tree we record a *precise* expression→region map: items
//! are assigned to regions through the expressions that generate them, not
//! through line heuristics. `for`-header expressions (init/cond/step)
//! belong to the loop region itself, matching where the back-end emits
//! their code.

use hli_lang::ast::*;
use hli_lang::sema::{CanonLoop, Sema};
use std::collections::HashMap;

/// One region node.
#[derive(Debug, Clone)]
pub struct RegionNode {
    pub id: usize,
    pub parent: Option<usize>,
    pub children: Vec<usize>,
    /// The loop statement, `None` for the unit region.
    pub stmt: Option<StmtId>,
    /// Canonical-loop facts, when the loop qualifies.
    pub canon: Option<CanonLoop>,
    /// Source-line span `[lo, hi]` covered by the region.
    pub span: (u32, u32),
    /// Nesting depth (unit = 0).
    pub depth: usize,
}

/// The region tree of one function.
#[derive(Debug, Clone)]
pub struct RegionTree {
    pub nodes: Vec<RegionNode>,
    /// Loop statement → its region.
    pub stmt_region: HashMap<StmtId, usize>,
    /// Every expression → the innermost region containing it.
    pub expr_region: HashMap<ExprId, usize>,
}

impl RegionTree {
    pub fn unit(&self) -> &RegionNode {
        &self.nodes[0]
    }

    /// Innermost region of an expression (unit if unknown).
    pub fn region_of_expr(&self, e: ExprId) -> usize {
        self.expr_region.get(&e).copied().unwrap_or(0)
    }

    /// Is `anc` an ancestor of (or equal to) `node`?
    pub fn is_ancestor(&self, anc: usize, node: usize) -> bool {
        let mut cur = Some(node);
        while let Some(n) = cur {
            if n == anc {
                return true;
            }
            cur = self.nodes[n].parent;
        }
        false
    }

    /// Regions in bottom-up order (children before parents).
    pub fn bottom_up(&self) -> Vec<usize> {
        // Children always have larger ids (appended during the walk).
        (0..self.nodes.len()).rev().collect()
    }

    /// Path from the unit down to `node`, inclusive.
    pub fn path(&self, node: usize) -> Vec<usize> {
        let mut p = vec![node];
        let mut cur = node;
        while let Some(par) = self.nodes[cur].parent {
            p.push(par);
            cur = par;
        }
        p.reverse();
        p
    }
}

/// Build the region tree of `f`.
pub fn build_region_tree(f: &FuncDef, sema: &Sema) -> RegionTree {
    let mut b = Builder {
        sema,
        tree: RegionTree {
            nodes: vec![RegionNode {
                id: 0,
                parent: None,
                children: Vec::new(),
                stmt: None,
                canon: None,
                span: (f.line, f.line),
                depth: 0,
            }],
            stmt_region: HashMap::new(),
            expr_region: HashMap::new(),
        },
    };
    b.block(&f.body, 0);
    // Widen ancestors to cover descendants.
    for i in (1..b.tree.nodes.len()).rev() {
        let (lo, hi) = b.tree.nodes[i].span;
        if let Some(p) = b.tree.nodes[i].parent {
            let ps = &mut b.tree.nodes[p].span;
            ps.0 = ps.0.min(lo);
            ps.1 = ps.1.max(hi);
        }
    }
    b.tree
}

struct Builder<'a> {
    sema: &'a Sema,
    tree: RegionTree,
}

impl<'a> Builder<'a> {
    fn widen(&mut self, region: usize, line: u32) {
        let s = &mut self.tree.nodes[region].span;
        s.0 = s.0.min(line);
        s.1 = s.1.max(line);
    }

    fn record_expr(&mut self, e: &Expr, region: usize) {
        self.widen(region, e.line);
        e.walk(&mut |x| {
            self.tree.expr_region.insert(x.id, region);
        });
        // `walk` already visits `e` itself; the closure above handles all.
    }

    fn new_region(&mut self, stmt: &Stmt, parent: usize) -> usize {
        let id = self.tree.nodes.len();
        self.tree.nodes.push(RegionNode {
            id,
            parent: Some(parent),
            children: Vec::new(),
            stmt: Some(stmt.id),
            canon: self.sema.canon_loop(stmt.id).cloned(),
            span: (stmt.line, stmt.line),
            depth: self.tree.nodes[parent].depth + 1,
        });
        self.tree.nodes[parent].children.push(id);
        self.tree.stmt_region.insert(stmt.id, id);
        id
    }

    fn block(&mut self, b: &Block, region: usize) {
        for s in &b.stmts {
            self.stmt(s, region);
        }
    }

    fn stmt(&mut self, s: &Stmt, region: usize) {
        self.widen(region, s.line);
        match &s.kind {
            StmtKind::Decl(d) => {
                if let Some(e) = &d.init {
                    self.record_expr(e, region);
                }
            }
            StmtKind::Expr(e) => self.record_expr(e, region),
            StmtKind::Block(b) => self.block(b, region),
            StmtKind::If { cond, then_body, else_body } => {
                self.record_expr(cond, region);
                self.stmt(then_body, region);
                if let Some(e) = else_body {
                    self.stmt(e, region);
                }
            }
            StmtKind::While { cond, body } => {
                let r = self.new_region(s, region);
                self.record_expr(cond, r);
                self.stmt(body, r);
            }
            StmtKind::DoWhile { body, cond } => {
                let r = self.new_region(s, region);
                self.stmt(body, r);
                self.record_expr(cond, r);
            }
            StmtKind::For { init, cond, step, body } => {
                let r = self.new_region(s, region);
                if let Some(e) = init {
                    self.record_expr(e, r);
                }
                if let Some(e) = cond {
                    self.record_expr(e, r);
                }
                self.stmt(body, r);
                if let Some(e) = step {
                    self.record_expr(e, r);
                }
            }
            StmtKind::Return(Some(e)) => self.record_expr(e, region),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_lang::compile_to_ast;

    fn tree_of(src: &str) -> (RegionTree, hli_lang::ast::Program, Sema) {
        let (p, s) = compile_to_ast(src).unwrap();
        let t = build_region_tree(p.func("main").unwrap(), &s);
        (t, p, s)
    }

    #[test]
    fn flat_function_has_only_unit() {
        let (t, _, _) = tree_of("int main() { int x; x = 1; return x; }");
        assert_eq!(t.nodes.len(), 1);
        assert!(t.unit().children.is_empty());
    }

    #[test]
    fn nested_loops_nest_regions() {
        let (t, _, _) = tree_of(
            "double m[8][8];\nint main() {\n int i; int j;\n for (i = 0; i < 8; i++)\n  for (j = 0; j < 8; j++)\n   m[i][j] = 0.0;\n return 0;\n}",
        );
        assert_eq!(t.nodes.len(), 3);
        assert_eq!(t.nodes[1].parent, Some(0));
        assert_eq!(t.nodes[2].parent, Some(1));
        assert_eq!(t.nodes[2].depth, 2);
        assert!(t.nodes[1].canon.is_some());
        assert!(t.nodes[2].canon.is_some());
        assert!(t.is_ancestor(0, 2));
        assert!(t.is_ancestor(1, 2));
        assert!(!t.is_ancestor(2, 1));
    }

    #[test]
    fn sequential_loops_are_siblings() {
        let (t, _, _) = tree_of(
            "int a[4];\nint main() {\n int i;\n for (i = 0; i < 4; i++) a[i] = i;\n for (i = 0; i < 4; i++) a[i] += 1;\n return 0;\n}",
        );
        assert_eq!(t.nodes.len(), 3);
        assert_eq!(t.unit().children, vec![1, 2]);
        assert_eq!(t.nodes[1].parent, Some(0));
        assert_eq!(t.nodes[2].parent, Some(0));
    }

    #[test]
    fn while_and_do_become_regions_without_canon() {
        let (t, _, _) = tree_of(
            "int g;\nint main() {\n int i; i = 0;\n while (i < g) { i++; }\n do { i--; } while (i > 0);\n return i;\n}",
        );
        assert_eq!(t.nodes.len(), 3);
        assert!(t.nodes[1].canon.is_none());
        assert!(t.nodes[2].canon.is_none());
    }

    #[test]
    fn spans_cover_bodies() {
        let (t, _, _) = tree_of(
            "int a[10];\nint main() {\n int i;\n for (i = 0; i < 10; i++)\n {\n  a[i] = i;\n  a[i] += 2;\n }\n return 0;\n}",
        );
        let loop_node = &t.nodes[1];
        assert_eq!(loop_node.span.0, 4);
        assert!(loop_node.span.1 >= 7, "span {:?}", loop_node.span);
        // The unit spans at least as wide.
        assert!(t.unit().span.0 <= 4 && t.unit().span.1 >= loop_node.span.1);
    }

    #[test]
    fn header_exprs_belong_to_loop_region() {
        let (t, p, _) = tree_of(
            "int g;\nint a[10];\nint main() {\n int i;\n for (i = g; i < 10; i++) a[i] = 0;\n return 0;\n}",
        );
        let f = p.func("main").unwrap();
        // Find the init expression (`i = g`).
        let mut init_id = None;
        for s in &f.body.stmts {
            s.walk_stmts(&mut |st| {
                if let StmtKind::For { init: Some(e), .. } = &st.kind {
                    init_id = Some(e.id);
                }
            });
        }
        assert_eq!(t.region_of_expr(init_id.unwrap()), 1);
    }

    #[test]
    fn exprs_outside_loops_map_to_unit() {
        let (t, p, _) = tree_of("int g;\nint main() {\n g = 1;\n return g;\n}");
        let f = p.func("main").unwrap();
        let StmtKind::Expr(e) = &f.body.stmts[0].kind else { panic!() };
        assert_eq!(t.region_of_expr(e.id), 0);
    }

    #[test]
    fn bottom_up_orders_children_first() {
        let (t, _, _) = tree_of(
            "int a[4];\nint main() {\n int i; int j;\n for (i=0;i<4;i++) { for (j=0;j<4;j++) a[j]=j; }\n return 0;\n}",
        );
        let order = t.bottom_up();
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        assert!(pos(2) < pos(1));
        assert!(pos(1) < pos(0));
    }

    #[test]
    fn path_runs_root_to_node() {
        let (t, _, _) = tree_of(
            "int a[4];\nint main() {\n int i; int j;\n for (i=0;i<4;i++) for (j=0;j<4;j++) a[j]=j;\n return 0;\n}",
        );
        assert_eq!(t.path(2), vec![0, 1, 2]);
        assert_eq!(t.path(0), vec![0]);
    }
}
