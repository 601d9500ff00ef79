//! The one wall-clock helper every harness times through.
//!
//! `hli-bench`'s self-calibrating `bench()` loop, `faultbench`'s campaign
//! phases and `perfbench`'s corpus runs all need the same two things:
//! "run this once and tell me how long it took" ([`time`]) and
//! "summarize a set of per-iteration samples robustly" ([`Samples`] —
//! min/median/p95, not a single mean a slow outlier can poison). Keeping
//! both here means every binary times identically and prints comparable
//! numbers.

use std::time::{Duration, Instant};

/// Run `f` once, returning its result and the elapsed wall-clock time.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Format a wall-clock duration the way every harness prints one:
/// milliseconds with one decimal (`12.3 ms`). `faultbench`'s campaign
/// phases and `perfbench`'s corpus runs both used to hand-roll
/// `as_secs_f64() * 1e3`; one helper keeps the outputs comparable.
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.1} ms", d.as_secs_f64() * 1e3)
}

/// A set of per-iteration duration samples (nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn new() -> Self {
        Samples::default()
    }

    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// Exact quantile over the recorded samples: the value at ceil(q*n)
    /// rank (nearest-rank method). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.ns.is_empty() {
            return 0;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    pub fn min_ns(&self) -> u64 {
        self.ns.iter().copied().min().unwrap_or(0)
    }

    pub fn median_ns(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95_ns(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.ns.iter().sum())
    }

    /// The `min/median/p95 (iters)` line every timing harness prints.
    pub fn summary(&self) -> String {
        format!(
            "min {} / median {} / p95 {} ns/iter   ({} iters)",
            self.min_ns(),
            self.median_ns(),
            self.p95_ns(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_result_and_duration() {
        let (v, d) = time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }

    #[test]
    fn samples_quantiles_are_exact() {
        let mut s = Samples::new();
        // 1..=100 microseconds, shuffled order must not matter.
        for v in (1..=100u64).rev() {
            s.push(Duration::from_nanos(v));
        }
        assert_eq!(s.len(), 100);
        assert_eq!(s.min_ns(), 1);
        assert_eq!(s.median_ns(), 50);
        assert_eq!(s.p95_ns(), 95);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.total(), Duration::from_nanos(5050));
        assert!(s.summary().contains("median 50"));
    }

    #[test]
    fn fmt_ms_is_one_decimal_milliseconds() {
        assert_eq!(fmt_ms(Duration::from_millis(12)), "12.0 ms");
        assert_eq!(fmt_ms(Duration::from_micros(1250)), "1.2 ms");
        assert_eq!(fmt_ms(Duration::ZERO), "0.0 ms");
    }

    #[test]
    fn empty_samples_are_zero() {
        let s = Samples::new();
        assert!(s.is_empty());
        assert_eq!(s.min_ns(), 0);
        assert_eq!(s.median_ns(), 0);
        assert_eq!(s.p95_ns(), 0);
    }
}
