//! Decision-to-cycles attribution rollups — the data model behind the
//! `obsreport` binary.
//!
//! The back-end stamps every [`DecisionRecord`] with a causal span id and
//! an **estimated** benefit at decision time (see DESIGN.md "Attribution
//! records"); the harness charges every simulated cycle to the function it
//! retired in (`attr.func.*` / `attr.total.*` counters). [`rollup`] joins
//! the two views:
//!
//! * per **pass** — applied/blocked decisions, estimated cycles, distinct
//!   causal spans, query citations;
//! * per **HLI table** — the estimated benefit of the decisions that table
//!   justified, the share of the *measured* GCC-vs-HLI cycle delta it
//!   earned, and what computing its facts cost (`hli.query.*` invocation
//!   counts);
//! * per **function** — measured cycle win on each machine model, joined
//!   to the decisions made there;
//! * **totals** — the estimated-vs-measured divergence that bounds how
//!   seriously the per-table split may be read.
//!
//! The measured total is apportioned to tables proportionally to their
//! estimated benefit using cumulative flooring, so the per-table measured
//! cycles **sum to the aggregate Table-2 delta exactly** — reconciliation
//! is by construction, and the estimated-vs-measured divergence is the
//! honest error bar on the split itself.

use hli_obs::json::{escape_into, push_f64, Json};
use hli_obs::provenance::DecisionRecord;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The five HLI fact tables of the paper (Section 2.2), as rollup keys.
pub const TABLES: &[&str] = &["equiv", "alias", "lcdd", "call_refmod", "region"];

/// Which tables justify a pass's decisions. The split is static: a
/// [`DecisionRecord`] cites query *ids*, not the table each query hit, so
/// a pass's estimated benefit is divided equally over the tables its
/// queries consult (see the per-query counters in docs/QUERYBOOK.md).
pub fn tables_of(pass: &str) -> &'static [&'static str] {
    match pass {
        // Block scheduling benefit materializes on sched.block; the
        // pair/call probes under the same span cite the actual queries.
        // `get_equiv_acc` consults the alias table; the DDG never asks
        // `get_lcdd` (same-iteration pairs only), but a hoist does.
        "sched.pair" | "sched.block" => &["equiv", "alias"],
        "sched.call" | "cse.call" => &["call_refmod"],
        "licm.hoist" => &["call_refmod", "equiv", "alias", "lcdd"],
        "unroll.loop" => &["region", "lcdd"],
        _ => &[],
    }
}

/// The `hli.query.*` invocation counter feeding each table.
pub fn cost_counter_of(table: &str) -> &'static str {
    match table {
        "equiv" => "hli.query.get_equiv_acc",
        "alias" => "hli.query.get_alias",
        "lcdd" => "hli.query.get_lcdd",
        "call_refmod" => "hli.query.get_call_acc",
        "region" => "hli.query.region_info",
        _ => "",
    }
}

/// Per-pass decision rollup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassRollup {
    pub applied: u64,
    pub blocked: u64,
    /// Estimated cycles saved by the Applied decisions.
    pub est_cycles: u64,
    /// Distinct non-zero causal span ids.
    pub spans: u64,
    /// Total query citations across the pass's records.
    pub queries: u64,
}

/// Per-HLI-table benefit/cost rollup.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableRollup {
    /// Estimated cycles saved by decisions this table justified.
    pub est_cycles: u64,
    /// This table's share of the measured R4600 cycle win.
    pub measured_r4600: u64,
    /// This table's share of the measured R10000 cycle win.
    pub measured_r10000: u64,
    /// `hli.query.*` invocations that computed this table's facts.
    pub cost_queries: u64,
}

/// Per-function measured win joined to the decisions made there.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncWin {
    pub name: String,
    pub r4600_gcc: u64,
    pub r4600_hli: u64,
    pub r10000_gcc: u64,
    pub r10000_hli: u64,
    pub decisions: u64,
    pub est_cycles: u64,
}

impl FuncWin {
    /// Measured R10000 cycle win (the sort key; negative clamps to 0).
    pub fn win_r10000(&self) -> u64 {
        self.r10000_gcc.saturating_sub(self.r10000_hli)
    }

    pub fn win_r4600(&self) -> u64 {
        self.r4600_gcc.saturating_sub(self.r4600_hli)
    }
}

/// Aggregate joins and the estimated-vs-measured error bar.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Totals {
    pub decisions: u64,
    pub applied: u64,
    pub blocked: u64,
    pub spans: u64,
    pub query_citations: u64,
    /// All `hli.query.*` invocations (the fact-computation cost).
    pub query_invocations: u64,
    pub est_cycles: u64,
    /// `attr.total.*`: aggregate GCC-minus-HLI cycle delta per model.
    pub measured_r4600: u64,
    pub measured_r10000: u64,
    /// `100 * (est - measured) / measured`; how far decision-time
    /// estimates sit from the simulated truth.
    pub divergence_r4600_pct: f64,
    pub divergence_r10000_pct: f64,
}

/// One obsreport rollup — everything `obsreport` prints or gates on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AttrReport {
    pub schema_version: u64,
    pub totals: Totals,
    pub per_pass: BTreeMap<String, PassRollup>,
    pub per_table: BTreeMap<String, TableRollup>,
    /// Top functions by measured R10000 win, descending (name-sorted on
    /// ties, truncated to the caller's `top`).
    pub top_functions: Vec<FuncWin>,
}

fn divergence_pct(est: u64, measured: u64) -> f64 {
    if measured == 0 {
        if est == 0 {
            0.0
        } else {
            100.0
        }
    } else {
        100.0 * (est as f64 - measured as f64) / measured as f64
    }
}

/// Join a `--stats json` counter map with the decision records of a
/// `--provenance-out` run. Both inputs come from the *same* run; the
/// counters carry the measured (`attr.*`) and cost (`hli.query.*`) sides,
/// the records the estimated side.
pub fn rollup(
    counters: &BTreeMap<String, u64>,
    records: &[DecisionRecord],
    top: usize,
) -> AttrReport {
    let mut per_pass: BTreeMap<String, PassRollup> = BTreeMap::new();
    let mut pass_spans: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    let mut func_decisions: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    let mut totals = Totals::default();
    let mut all_spans: BTreeSet<u64> = BTreeSet::new();
    for r in records {
        let p = per_pass.entry(r.pass.clone()).or_default();
        totals.decisions += 1;
        if r.verdict.is_applied() {
            p.applied += 1;
            totals.applied += 1;
            p.est_cycles += r.est_cycles;
        } else {
            p.blocked += 1;
            totals.blocked += 1;
        }
        p.queries += r.hli_queries.len() as u64;
        totals.query_citations += r.hli_queries.len() as u64;
        if r.span != 0 {
            pass_spans.entry(r.pass.clone()).or_default().insert(r.span);
            all_spans.insert(r.span);
        }
        let f = func_decisions.entry(r.function.clone()).or_default();
        f.0 += 1;
        if r.verdict.is_applied() {
            f.1 += r.est_cycles;
        }
    }
    for (pass, spans) in pass_spans {
        per_pass.get_mut(&pass).expect("pass seen").spans = spans.len() as u64;
    }
    totals.spans = all_spans.len() as u64;
    totals.est_cycles = per_pass.values().map(|p| p.est_cycles).sum();

    let c = |k: &str| counters.get(k).copied().unwrap_or(0);
    totals.measured_r4600 =
        c("attr.total.r4600.gcc_cycles").saturating_sub(c("attr.total.r4600.hli_cycles"));
    totals.measured_r10000 =
        c("attr.total.r10000.gcc_cycles").saturating_sub(c("attr.total.r10000.hli_cycles"));
    totals.query_invocations = TABLES.iter().map(|t| c(cost_counter_of(t))).sum();
    totals.divergence_r4600_pct = divergence_pct(totals.est_cycles, totals.measured_r4600);
    totals.divergence_r10000_pct = divergence_pct(totals.est_cycles, totals.measured_r10000);

    // Per-table estimated benefit: each pass's estimate divided equally
    // over its tables, remainder to the first (integer cycles stay exact).
    let mut per_table: BTreeMap<String, TableRollup> = TABLES
        .iter()
        .map(|&t| {
            (
                t.to_string(),
                TableRollup { cost_queries: c(cost_counter_of(t)), ..Default::default() },
            )
        })
        .collect();
    for (pass, p) in &per_pass {
        let ts = tables_of(pass);
        if ts.is_empty() || p.est_cycles == 0 {
            continue;
        }
        let share = p.est_cycles / ts.len() as u64;
        let rem = p.est_cycles % ts.len() as u64;
        for (i, t) in ts.iter().enumerate() {
            let tr = per_table.get_mut(*t).expect("known table");
            tr.est_cycles += share + if i == 0 { rem } else { 0 };
        }
    }
    // Measured share: proportional to estimated benefit, apportioned by
    // cumulative flooring so the per-table values sum to the aggregate
    // delta *exactly* (the reconciliation the acceptance gate pins).
    let est_total: u64 = per_table.values().map(|t| t.est_cycles).sum();
    if est_total > 0 {
        let apportion = |total: u64,
                         pick: fn(&mut TableRollup) -> &mut u64,
                         per_table: &mut BTreeMap<String, TableRollup>| {
            let mut acc_est: u64 = 0;
            let mut acc_out: u64 = 0;
            for t in per_table.values_mut() {
                acc_est += t.est_cycles;
                let upto = (total as u128 * acc_est as u128 / est_total as u128) as u64;
                *pick(t) = upto - acc_out;
                acc_out = upto;
            }
        };
        apportion(totals.measured_r4600, |t| &mut t.measured_r4600, &mut per_table);
        apportion(totals.measured_r10000, |t| &mut t.measured_r10000, &mut per_table);
    }

    // Per-function measured wins from the attr.func.* counters.
    let mut funcs: BTreeMap<String, FuncWin> = BTreeMap::new();
    for (k, &v) in counters {
        let Some(rest) = k.strip_prefix("attr.func.") else { continue };
        let (name, field) = match rest.rfind(".r4600.").or_else(|| rest.rfind(".r10000.")) {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => continue,
        };
        let w = funcs
            .entry(name.to_string())
            .or_insert_with(|| FuncWin { name: name.to_string(), ..Default::default() });
        match field {
            "r4600.gcc_cycles" => w.r4600_gcc += v,
            "r4600.hli_cycles" => w.r4600_hli += v,
            "r10000.gcc_cycles" => w.r10000_gcc += v,
            "r10000.hli_cycles" => w.r10000_hli += v,
            _ => {}
        }
    }
    for (name, (n, est)) in func_decisions {
        if let Some(w) = funcs.get_mut(&name) {
            w.decisions = n;
            w.est_cycles = est;
        }
    }
    let mut top_functions: Vec<FuncWin> = funcs.into_values().collect();
    top_functions
        .sort_by(|a, b| b.win_r10000().cmp(&a.win_r10000()).then_with(|| a.name.cmp(&b.name)));
    top_functions.truncate(top);

    AttrReport {
        schema_version: hli_obs::SCHEMA_VERSION,
        totals,
        per_pass,
        per_table,
        top_functions,
    }
}

impl AttrReport {
    /// Pretty JSON (sorted keys, trailing newline) — the format of a
    /// checked-in `obsreport` baseline.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(o, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(o, "  \"kind\": \"obsreport\",");
        o.push_str("  \"totals\": {\n");
        let t = &self.totals;
        let _ = writeln!(o, "    \"decisions\": {},", t.decisions);
        let _ = writeln!(o, "    \"applied\": {},", t.applied);
        let _ = writeln!(o, "    \"blocked\": {},", t.blocked);
        let _ = writeln!(o, "    \"spans\": {},", t.spans);
        let _ = writeln!(o, "    \"query_citations\": {},", t.query_citations);
        let _ = writeln!(o, "    \"query_invocations\": {},", t.query_invocations);
        let _ = writeln!(o, "    \"est_cycles\": {},", t.est_cycles);
        let _ = writeln!(o, "    \"measured_r4600\": {},", t.measured_r4600);
        let _ = writeln!(o, "    \"measured_r10000\": {},", t.measured_r10000);
        o.push_str("    \"divergence_r4600_pct\": ");
        push_f64(&mut o, round2(t.divergence_r4600_pct));
        o.push_str(",\n    \"divergence_r10000_pct\": ");
        push_f64(&mut o, round2(t.divergence_r10000_pct));
        o.push_str("\n  },\n");
        o.push_str("  \"per_pass\": {\n");
        let mut first = true;
        for (pass, p) in &self.per_pass {
            if !first {
                o.push_str(",\n");
            }
            first = false;
            o.push_str("    ");
            escape_into(&mut o, pass);
            let _ = write!(
                o,
                ": {{\"applied\": {}, \"blocked\": {}, \"est_cycles\": {}, \
                 \"spans\": {}, \"queries\": {}}}",
                p.applied, p.blocked, p.est_cycles, p.spans, p.queries
            );
        }
        o.push_str("\n  },\n  \"per_table\": {\n");
        first = true;
        for (table, tr) in &self.per_table {
            if !first {
                o.push_str(",\n");
            }
            first = false;
            o.push_str("    ");
            escape_into(&mut o, table);
            let _ = write!(
                o,
                ": {{\"est_cycles\": {}, \"measured_r4600\": {}, \
                 \"measured_r10000\": {}, \"cost_queries\": {}}}",
                tr.est_cycles, tr.measured_r4600, tr.measured_r10000, tr.cost_queries
            );
        }
        o.push_str("\n  },\n  \"top_functions\": [\n");
        for (i, f) in self.top_functions.iter().enumerate() {
            if i > 0 {
                o.push_str(",\n");
            }
            o.push_str("    {\"name\": ");
            escape_into(&mut o, &f.name);
            let _ = write!(
                o,
                ", \"win_r4600\": {}, \"win_r10000\": {}, \"decisions\": {}, \
                 \"est_cycles\": {}}}",
                f.win_r4600(),
                f.win_r10000(),
                f.decisions,
                f.est_cycles
            );
        }
        o.push_str("\n  ]\n}\n");
        o
    }

    /// Human-readable rollup.
    pub fn to_text(&self) -> String {
        let mut o = String::new();
        let t = &self.totals;
        let _ = writeln!(o, "obsreport (schema v{})", self.schema_version);
        let _ = writeln!(
            o,
            "  decisions: {} ({} applied, {} blocked) across {} causal span(s)",
            t.decisions, t.applied, t.blocked, t.spans
        );
        let _ = writeln!(
            o,
            "  facts: {} query citation(s), {} table-query invocation(s)",
            t.query_citations, t.query_invocations
        );
        let _ = writeln!(
            o,
            "  benefit: est {} cycles | measured r4600 {} (div {:+.1}%) | \
             r10000 {} (div {:+.1}%)",
            t.est_cycles,
            t.measured_r4600,
            t.divergence_r4600_pct,
            t.measured_r10000,
            t.divergence_r10000_pct
        );
        let _ = writeln!(o, "\nper pass:");
        let _ = writeln!(
            o,
            "  {:<18} {:>8} {:>8} {:>10} {:>7} {:>8}",
            "pass", "applied", "blocked", "est_cyc", "spans", "queries"
        );
        for (pass, p) in &self.per_pass {
            let _ = writeln!(
                o,
                "  {:<18} {:>8} {:>8} {:>10} {:>7} {:>8}",
                pass, p.applied, p.blocked, p.est_cycles, p.spans, p.queries
            );
        }
        let _ = writeln!(o, "\nper HLI table (benefit vs cost):");
        let _ = writeln!(
            o,
            "  {:<12} {:>10} {:>12} {:>13} {:>12}",
            "table", "est_cyc", "meas_r4600", "meas_r10000", "cost_qrys"
        );
        for (table, tr) in &self.per_table {
            let _ = writeln!(
                o,
                "  {:<12} {:>10} {:>12} {:>13} {:>12}",
                table, tr.est_cycles, tr.measured_r4600, tr.measured_r10000, tr.cost_queries
            );
        }
        let _ = writeln!(o, "\ntop functions by measured r10000 win:");
        let _ = writeln!(
            o,
            "  {:<20} {:>10} {:>11} {:>10} {:>9}",
            "function", "win_r4600", "win_r10000", "decisions", "est_cyc"
        );
        for f in &self.top_functions {
            let _ = writeln!(
                o,
                "  {:<20} {:>10} {:>11} {:>10} {:>9}",
                f.name,
                f.win_r4600(),
                f.win_r10000(),
                f.decisions,
                f.est_cycles
            );
        }
        o
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Flatten a parsed JSON document into `path -> scalar` pairs, for the
/// exact `--compare` gate (arrays index numerically).
pub fn flatten_json(doc: &Json, prefix: &str, out: &mut BTreeMap<String, String>) {
    match doc {
        Json::Obj(m) => {
            for (k, v) in m {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_json(v, &p, out);
            }
        }
        Json::Arr(a) => {
            for (i, v) in a.iter().enumerate() {
                flatten_json(v, &format!("{prefix}[{i}]"), out);
            }
        }
        Json::Num(n) => {
            out.insert(prefix.to_string(), format!("{n}"));
        }
        Json::Str(s) => {
            out.insert(prefix.to_string(), s.clone());
        }
        Json::Bool(b) => {
            out.insert(prefix.to_string(), b.to_string());
        }
        Json::Null => {
            out.insert(prefix.to_string(), "null".to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hli_obs::provenance::QueryRef;
    use hli_obs::Verdict;

    fn rec(pass: &str, func: &str, span: u64, est: u64, applied: bool) -> DecisionRecord {
        DecisionRecord {
            pass: pass.into(),
            function: func.into(),
            region_id: None,
            order: 1,
            span,
            est_cycles: est,
            hli_queries: vec![QueryRef(1), QueryRef(2)],
            verdict: if applied {
                Verdict::Applied
            } else {
                Verdict::Blocked { reason: "no".into() }
            },
        }
    }

    fn counters() -> BTreeMap<String, u64> {
        let mut c = BTreeMap::new();
        c.insert("attr.total.r4600.gcc_cycles".into(), 1000u64);
        c.insert("attr.total.r4600.hli_cycles".into(), 900u64);
        c.insert("attr.total.r10000.gcc_cycles".into(), 800u64);
        c.insert("attr.total.r10000.hli_cycles".into(), 600u64);
        c.insert("attr.func.main.r4600.gcc_cycles".into(), 1000u64);
        c.insert("attr.func.main.r4600.hli_cycles".into(), 900u64);
        c.insert("attr.func.main.r10000.gcc_cycles".into(), 800u64);
        c.insert("attr.func.main.r10000.hli_cycles".into(), 600u64);
        c.insert("hli.query.get_call_acc".into(), 40u64);
        c.insert("hli.query.get_equiv_acc".into(), 30u64);
        c
    }

    #[test]
    fn per_table_measured_sums_to_aggregate_delta() {
        let records = vec![
            rec("cse.call", "main", 3, 2, true),
            rec("licm.hoist", "main", 4, 14, true),
            rec("sched.block", "main", 5, 7, true),
            rec("cse.call", "main", 6, 0, false),
        ];
        let r = rollup(&counters(), &records, 10);
        let sum4: u64 = r.per_table.values().map(|t| t.measured_r4600).sum();
        let sum10: u64 = r.per_table.values().map(|t| t.measured_r10000).sum();
        assert_eq!(sum4, r.totals.measured_r4600, "r4600 reconciliation");
        assert_eq!(sum10, r.totals.measured_r10000, "r10000 reconciliation");
        assert_eq!(r.totals.measured_r4600, 100);
        assert_eq!(r.totals.measured_r10000, 200);
        assert_eq!(r.totals.est_cycles, 2 + 14 + 7);
        let est_sum: u64 = r.per_table.values().map(|t| t.est_cycles).sum();
        assert_eq!(est_sum, r.totals.est_cycles, "est split loses no cycles");
    }

    #[test]
    fn pass_and_span_counts_roll_up() {
        let records = vec![
            rec("cse.call", "main", 3, 2, true),
            rec("cse.call", "main", 3, 2, true),
            rec("cse.call", "f", 0, 0, false),
        ];
        let r = rollup(&counters(), &records, 10);
        let p = &r.per_pass["cse.call"];
        assert_eq!((p.applied, p.blocked), (2, 1));
        assert_eq!(p.spans, 1, "span 3 shared, span 0 never counts");
        assert_eq!(p.queries, 6);
        assert_eq!(r.totals.query_invocations, 70);
    }

    #[test]
    fn top_functions_sorted_by_r10000_win() {
        let mut c = counters();
        c.insert("attr.func.helper.r10000.gcc_cycles".into(), 5000u64);
        c.insert("attr.func.helper.r10000.hli_cycles".into(), 4000u64);
        let r = rollup(&c, &[rec("cse.call", "helper", 1, 2, true)], 10);
        assert_eq!(r.top_functions[0].name, "helper");
        assert_eq!(r.top_functions[0].win_r10000(), 1000);
        assert_eq!(r.top_functions[0].decisions, 1);
        let r1 = rollup(&c, &[], 1);
        assert_eq!(r1.top_functions.len(), 1, "--top truncates");
    }

    #[test]
    fn json_is_parseable_and_flattens_stably() {
        let records = vec![rec("unroll.loop", "main", 9, 12, true)];
        let r = rollup(&counters(), &records, 5);
        let doc = hli_obs::json::parse(&r.to_json()).expect("obsreport JSON parses");
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("obsreport"));
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_num),
            Some(hli_obs::SCHEMA_VERSION as f64)
        );
        let mut a = BTreeMap::new();
        flatten_json(&doc, "", &mut a);
        let mut b = BTreeMap::new();
        flatten_json(&hli_obs::json::parse(&r.to_json()).unwrap(), "", &mut b);
        assert_eq!(a, b);
        assert!(a.contains_key("per_table.region.est_cycles"));
        assert!(a.contains_key("top_functions[0].name"));
    }

    #[test]
    fn divergence_handles_zero_measured() {
        assert_eq!(divergence_pct(0, 0), 0.0);
        assert_eq!(divergence_pct(5, 0), 100.0);
        assert_eq!(divergence_pct(150, 100), 50.0);
    }
}
