//! The traced run's span recorder and the per-layer ledger built from it.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions, never inside the program. Each span has a
//! name (the layer), start and end, its parent span, and the id of the
//! request (one program or one batch) it belongs to. Spans are kept in
//! memory and folded into the ledger when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the span that wraps one whole request.
pub const REQUEST: &str = "request";

/// Id of a recorded span; [`SpanId::NONE`] is the parent of a request span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u32);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Thread-safe in-memory span store (spans of pool workers land here too).
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::default(),
        }
    }
}

impl Recorder {
    /// Run `f` inside a span named `name`; `f` gets the new span's id so
    /// it can parent further spans, on this thread or another.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        req: u32,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(SpanId(id));
        let end_ns = self.now_ns();
        let span = Span { id, parent: parent.0, req, name, start_ns, end_ns };
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking layer")
            .push(span);
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span recorder poisoned by a panicking layer")
    }
}

/// Write spans as JSON lines (one span per line, close order).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The per-layer ledger of a traced run.
///
/// A layer is charged its spans' self time: duration minus the part of
/// the span's interval its children cover. Children of a parallel region
/// (a pool fan-out) overlap; they share the wall time their union covers
/// in proportion to their durations, so the charges of a request's spans
/// add up to its wall time.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Layer name → wall nanoseconds charged; the request spans' own self
    /// time (the replay's glue between layer calls) is under [`REQUEST`].
    pub layers: BTreeMap<&'static str, f64>,
    /// Summed duration of the request spans: the traced end-to-end time.
    pub traced_ns: u64,
}

impl Ledger {
    pub fn build(spans: &[Span]) -> Ledger {
        let mut children: HashMap<u32, Vec<&Span>> = HashMap::new();
        for s in spans {
            children.entry(s.parent).or_default().push(s);
        }
        let mut ledger = Ledger::default();
        let roots = children.get(&0).cloned().unwrap_or_default();
        for root in roots {
            ledger.traced_ns += root.end_ns - root.start_ns;
            ledger.charge(root, 1.0, &children);
        }
        ledger
    }

    fn charge(&mut self, s: &Span, weight: f64, children: &HashMap<u32, Vec<&Span>>) {
        let dur = s.end_ns - s.start_ns;
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let covered = union_ns(s, kids);
        let summed: u64 = kids.iter().map(|k| k.end_ns - k.start_ns).sum();
        *self.layers.entry(s.name).or_default() += (dur - covered) as f64 * weight;
        let kid_weight = if summed > covered && summed > 0 {
            weight * covered as f64 / summed as f64
        } else {
            weight
        };
        for k in kids {
            self.charge(k, kid_weight, children);
        }
    }

    /// Wall time charged to `layer` in milliseconds (0 if never seen).
    pub fn wall_ms(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |ns| ns / 1e6)
    }

    /// Wall time of every layer except the request glue, in milliseconds.
    pub fn attributed_ms(&self) -> f64 {
        self.layers
            .iter()
            .filter(|(name, _)| **name != REQUEST)
            .map(|(_, ns)| ns / 1e6)
            .sum()
    }
}

/// Length of the union of the children's intervals, clipped to `parent`.
fn union_ns(parent: &Span, kids: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|k| (k.start_ns.max(parent.start_ns), k.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, req: 0, name, start_ns, end_ns }
    }

    #[test]
    fn sequential_children_close_the_request_exactly() {
        let spans = [
            sp(1, 0, REQUEST, 0, 100),
            sp(2, 1, "a", 10, 40),
            sp(3, 1, "b", 40, 90),
            sp(4, 3, "c", 50, 60),
        ];
        let l = Ledger::build(&spans);
        assert_eq!(l.traced_ns, 100);
        assert_eq!(l.layers["a"], 30.0);
        assert_eq!(l.layers["b"], 40.0);
        assert_eq!(l.layers["c"], 10.0);
        assert_eq!(l.layers[REQUEST], 20.0);
        assert_eq!(l.layers.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn parallel_children_share_the_wall_they_cover() {
        // A fan-out 0..100 whose two workers run 10..90 and 20..100.
        let spans = [
            sp(1, 0, REQUEST, 0, 100),
            sp(2, 1, "fan", 0, 100),
            sp(3, 2, "w", 10, 90),
            sp(4, 2, "w", 20, 100),
        ];
        let l = Ledger::build(&spans);
        assert!((l.layers["w"] - 90.0).abs() < 1e-9, "union 10..100");
        assert!((l.layers["fan"] - 10.0).abs() < 1e-9);
        assert!((l.attributed_ms() * 1e6 - 100.0).abs() < 1e-6);
    }
}
