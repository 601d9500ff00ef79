//! Importing and mapping HLI into the back-end (Section 3.2.1).
//!
//! *"Mapping the items listed in the line table onto memory references in
//! the GCC RTL chain is straightforward since the ITEMGEN phase in the
//! front-end follows the GCC rules for memory reference generation. A hash
//! table is constructed as the mapping procedure proceeds."*
//!
//! For every source line we pair the k-th item of the line's item list
//! with the k-th memory-reference/call instruction carrying that line.
//! Type mismatches or count mismatches leave the excess *unmapped* — the
//! paper's *unknown* dependence type — which downstream consumers treat
//! conservatively. Our RTL has at most one memory reference per
//! instruction, so the paper's `(IRInsn, RefSpec)` pair degenerates to the
//! instruction id.

use crate::rtl::{InsnId, Op, RtlFunc};
use hli_core::{HliEntry, ItemId, ItemType};
use std::collections::{HashMap, HashSet};

/// The bidirectional item ↔ instruction mapping for one function.
#[derive(Debug, Clone, Default)]
pub struct HliMap {
    pub insn_to_item: HashMap<InsnId, ItemId>,
    pub item_to_insn: HashMap<ItemId, InsnId>,
    /// Instructions with a memory reference (or call) that matched no item.
    pub unmapped_insns: Vec<InsnId>,
    /// Items that matched no instruction.
    pub unmapped_items: Vec<ItemId>,
}

impl HliMap {
    pub fn item_of(&self, insn: InsnId) -> Option<ItemId> {
        self.insn_to_item.get(&insn).copied()
    }

    pub fn insn_of(&self, item: ItemId) -> Option<InsnId> {
        self.item_to_insn.get(&item).copied()
    }

    /// Record that `insn` now carries `item` (maintenance after a pass
    /// generated or moved a reference).
    pub fn bind(&mut self, insn: InsnId, item: ItemId) {
        self.insn_to_item.insert(insn, item);
        self.item_to_insn.insert(item, insn);
    }

    /// Drop the binding of an item (e.g. CSE deleted the reference).
    pub fn unbind_item(&mut self, item: ItemId) {
        if let Some(insn) = self.item_to_insn.remove(&item) {
            self.insn_to_item.remove(&insn);
        }
    }
}

fn rtl_kind(op: &Op) -> Option<ItemType> {
    match op {
        Op::Load(..) => Some(ItemType::Load),
        Op::Store(..) => Some(ItemType::Store),
        Op::Call { .. } => Some(ItemType::Call),
        _ => None,
    }
}

/// Build the mapping for one function against its HLI entry.
pub fn map_function(f: &RtlFunc, entry: &HliEntry) -> HliMap {
    let mut map = HliMap::default();
    // Group the function's memory/call instructions by line, preserving
    // chain order.
    let mut by_line: HashMap<u32, Vec<(InsnId, ItemType)>> = HashMap::new();
    for insn in &f.insns {
        if let Some(kind) = rtl_kind(&insn.op) {
            by_line.entry(insn.line).or_default().push((insn.id, kind));
        }
    }
    let mut seen_lines: HashSet<u32> = HashSet::new();
    for l in &entry.line_table.lines {
        let (line, items) = (l.line, &l.items);
        // A line entry that maintenance emptied binds nothing and leaves
        // every instruction of its line unmapped.
        seen_lines.insert(line);
        let insns = by_line.get(&line).map(|v| v.as_slice()).unwrap_or(&[]);
        let n = items.len().min(insns.len());
        for k in 0..n {
            let item = &items[k];
            let (insn, kind) = insns[k];
            if item.ty == kind {
                map.bind(insn, item.id);
            } else {
                // Order drift: the rest of this line cannot be trusted.
                map.unmapped_items.extend(items[k..].iter().map(|i| i.id));
                map.unmapped_insns.extend(insns[k..].iter().map(|(id, _)| *id));
                break;
            }
        }
        if items.len() > n {
            map.unmapped_items.extend(items[n..].iter().map(|i| i.id));
        }
        if insns.len() > n {
            map.unmapped_insns.extend(insns[n..].iter().map(|(id, _)| *id));
        }
    }
    // Lines with references but no line-table entry at all.
    for (line, insns) in &by_line {
        if !seen_lines.contains(line) {
            map.unmapped_insns.extend(insns.iter().map(|(id, _)| *id));
        }
    }
    // An item bound twice would be a bug; dedupe unmapped lists for
    // deterministic output.
    map.unmapped_insns.sort_unstable();
    map.unmapped_insns.dedup();
    map.unmapped_items.sort_unstable();
    map.unmapped_items.dedup();
    // Mapping quality: bound pairs are the paper's "hash hits"; the
    // unmapped lists are what forces conservative (Unknown) answers.
    let reg = hli_obs::metrics::cur();
    reg.counter("backend.map.bound").add(map.insn_to_item.len() as u64);
    reg.counter("backend.map.unmapped_insns").add(map.unmapped_insns.len() as u64);
    reg.counter("backend.map.unmapped_items").add(map.unmapped_items.len() as u64);
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_program;
    use hli_frontend::generate_hli;
    use hli_lang::compile_to_ast;

    fn mapped(src: &str, func: &str) -> (HliMap, RtlFunc, HliEntry) {
        let (p, s) = compile_to_ast(src).unwrap();
        let hli = generate_hli(&p, &s);
        let prog = lower_program(&p, &s);
        let f = prog.func(func).unwrap().clone();
        let e = hli.entry(func).unwrap().clone();
        let m = map_function(&f, &e);
        (m, f, e)
    }

    #[test]
    fn full_program_maps_completely() {
        let (m, f, e) = mapped(
            "int a[10]; int g;\nint sum(int *p, int n) { int i; int s; s = 0; for (i = 0; i < n; i++) s += p[i]; return s; }\nint main() {\n int i;\n for (i = 0; i < 10; i++) a[i] = g + i;\n return sum(a, 10);\n}",
            "main",
        );
        assert!(m.unmapped_insns.is_empty(), "unmapped insns: {:?}", m.unmapped_insns);
        assert!(m.unmapped_items.is_empty(), "unmapped items: {:?}", m.unmapped_items);
        // Every memory/call instruction is bound.
        let expected = f.insns.iter().filter(|i| rtl_kind(&i.op).is_some()).count();
        assert_eq!(m.insn_to_item.len(), expected);
        assert_eq!(m.insn_to_item.len(), e.line_table.item_count());
    }

    #[test]
    fn mapping_is_bijective() {
        let (m, _, _) =
            mapped("int g; int h;\nint main() { g = h; h = g + h; return g * h; }", "main");
        assert_eq!(m.insn_to_item.len(), m.item_to_insn.len());
        for (insn, item) in &m.insn_to_item {
            assert_eq!(m.item_to_insn[item], *insn);
        }
    }

    #[test]
    fn types_match_between_sides() {
        let (m, f, e) = mapped(
            "int a[4];\nint main() { a[0] = 1; a[1] = a[0] + 1; return a[1]; }",
            "main",
        );
        for (insn_id, item_id) in &m.insn_to_item {
            let insn = f.insns.iter().find(|i| i.id == *insn_id).unwrap();
            let (_, ty) = e.line_table.find(*item_id).unwrap();
            assert_eq!(rtl_kind(&insn.op), Some(ty));
        }
    }

    #[test]
    fn multiline_lvalue_expressions_still_map() {
        // The subscript sits on a different line than the assignment; the
        // memory reference must carry the assignment's line (regression:
        // cur_line drift broke the (line, order) mapping).
        let (m, _, _) = mapped(
            "int a[10]; int g;\nint main() {\n a[\n  g\n ] = a[\n  g + 1\n ] + 2;\n return a[0];\n}",
            "main",
        );
        assert!(m.unmapped_insns.is_empty(), "{:?}", m.unmapped_insns);
        assert!(m.unmapped_items.is_empty(), "{:?}", m.unmapped_items);
    }

    #[test]
    fn extra_items_degrade_to_unmapped() {
        let (_, f, mut e) = mapped("int g;\nint main() { g = 1; return g; }", "main");
        // Forge an extra item on line 2.
        let id = e.fresh_id();
        e.line_table.push_item(2, hli_core::ItemEntry { id, ty: ItemType::Load });
        let m = map_function(&f, &e);
        assert!(m.unmapped_items.contains(&id));
        // The legitimate prefix still mapped.
        assert!(!m.insn_to_item.is_empty());
    }

    #[test]
    fn type_drift_stops_line_mapping() {
        let (_, f, mut e) = mapped("int g; int h;\nint main() { g = h; return g; }", "main");
        // Swap the first line-2 item's type to Store (wrong: it's a load).
        let le = e.line_table.lines.iter_mut().find(|l| l.line == 2).unwrap();
        le.items[0].ty = ItemType::Store;
        let m = map_function(&f, &e);
        assert!(m.insn_to_item.is_empty() || !m.unmapped_insns.is_empty());
        assert!(!m.unmapped_items.is_empty());
    }

    #[test]
    fn emptied_line_entry_binds_nothing() {
        let (_, f, mut e) = mapped("int g; int h;\nint main() {\n g = h;\n return g;\n}", "main");
        let line3: Vec<ItemId> =
            e.line_table.entry(3).unwrap().items.iter().map(|i| i.id).collect();
        for id in &line3 {
            assert!(e.line_table.remove_item(*id));
        }
        assert!(
            e.line_table.entry(3).unwrap().items.is_empty(),
            "the entry stays, emptied"
        );
        let m = map_function(&f, &e);
        let insns3: Vec<InsnId> = f
            .insns
            .iter()
            .filter(|i| i.line == 3 && rtl_kind(&i.op).is_some())
            .map(|i| i.id)
            .collect();
        assert!(!insns3.is_empty());
        for insn in &insns3 {
            assert!(m.item_of(*insn).is_none());
            assert!(m.unmapped_insns.contains(insn));
        }
        // Other lines still map.
        assert!(!m.insn_to_item.is_empty());
    }

    #[test]
    fn unbind_and_rebind() {
        let (mut m, _, _) = mapped("int g;\nint main() { g = 2; return g; }", "main");
        let (&insn, &item) = m.insn_to_item.iter().next().unwrap();
        m.unbind_item(item);
        assert!(m.item_of(insn).is_none());
        m.bind(insn, item);
        assert_eq!(m.item_of(insn), Some(item));
    }
}
