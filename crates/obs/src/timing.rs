//! The one wall-clock helper every harness times through.
//!
//! `faultbench`'s campaign phases and `perfbench`'s corpus runs both need
//! "run this once and tell me how long it took" ([`time`]) and one way to
//! print the answer ([`fmt_ms`]). Keeping both here means every binary
//! times identically and prints comparable numbers.

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
    fn fmt_ms_is_one_decimal_milliseconds() {
        assert_eq!(fmt_ms(Duration::from_millis(12)), "12.0 ms");
        assert_eq!(fmt_ms(Duration::from_micros(1250)), "1.2 ms");
        assert_eq!(fmt_ms(Duration::ZERO), "0.0 ms");
    }
}
