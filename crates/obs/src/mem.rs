//! Process-memory introspection: peak and current RSS.
//!
//! On Linux the kernel already maintains the high-water mark (`VmHWM` in
//! `/proc/self/status`), so sampling is one small file read with no
//! syscall tricks and no background thread. On other platforms the
//! functions return `None` and every consumer degrades to omitting the
//! `obs.mem.*` gauges — a graceful no-op rather than a porting burden.

/// Peak resident-set size of this process in kilobytes (`VmHWM`), or
/// `None` off Linux / when procfs is unavailable.
pub fn peak_rss_kb() -> Option<u64> {
    rss_pair().0
}

/// Current resident-set size in kilobytes (`VmRSS`), or `None` off Linux.
pub fn current_rss_kb() -> Option<u64> {
    rss_pair().1
}

/// `(VmHWM, VmRSS)` from one read of `/proc/self/status`. Both fields
/// come from the same snapshot: the old per-field helper read and parsed
/// the whole file once per field, doubling the procfs traffic per stamp
/// and letting the two values disagree about the moment they describe.
#[cfg(target_os = "linux")]
fn rss_pair() -> (Option<u64>, Option<u64>) {
    match std::fs::read_to_string("/proc/self/status") {
        Ok(status) => parse_rss_pair(&status),
        Err(_) => (None, None),
    }
}

#[cfg(not(target_os = "linux"))]
fn rss_pair() -> (Option<u64>, Option<u64>) {
    (None, None)
}

/// Extract `(VmHWM, VmRSS)` from a `/proc/self/status` body in a single
/// pass. Kept platform-independent so the parser is testable everywhere.
fn parse_rss_pair(status: &str) -> (Option<u64>, Option<u64>) {
    let (mut peak, mut cur) = (None, None);
    for line in status.lines() {
        if line.starts_with("VmHWM:") {
            peak = parse_kb_value(line);
        } else if line.starts_with("VmRSS:") {
            cur = parse_kb_value(line);
        }
        if peak.is_some() && cur.is_some() {
            break;
        }
    }
    (peak, cur)
}

/// Parse the `<n>` out of a `Vm...:\t  <n> kB` status line.
fn parse_kb_value(line: &str) -> Option<u64> {
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Reset the kernel's RSS high-water mark (`VmHWM`) to the current RSS by
/// writing `5` to `/proc/self/clear_refs`, so a caller can measure the
/// peak of one phase rather than of the whole process lifetime. Returns
/// `false` off Linux or when the write is not permitted (some sandboxes
/// mount procfs read-only); callers must treat the peak as
/// process-lifetime when it fails.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", "5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Record the `obs.mem.peak_rss_kb` / `obs.mem.current_rss_kb` gauges
/// into `snap` (the snapshot a `--stats` emitter is about to print).
/// Gauges are used because RSS is a level, not a monotone count; `obsdiff`
/// skips gauges by default, so the machine-dependent values never trip
/// the counter-determinism gates. One procfs read serves both gauges.
pub fn stamp_rss(snap: &mut crate::MetricsSnapshot) {
    let (peak, cur) = rss_pair();
    if let Some(kb) = peak {
        snap.gauges.insert("obs.mem.peak_rss_kb".into(), kb as i64);
    }
    if let Some(kb) = cur {
        snap.gauges.insert("obs.mem.current_rss_kb".into(), kb as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_reads_kb_fields() {
        // Field order in /proc/self/status is VmHWM before VmRSS on real
        // kernels, but the single-pass parser must not depend on it.
        let body = "Name:\tx\nVmRSS:\t  123 kB\nVmHWM:\t  456 kB\n";
        assert_eq!(parse_rss_pair(body), (Some(456), Some(123)));
        let kernel_order = "Name:\tx\nVmHWM:\t  456 kB\nVmRSS:\t  123 kB\nVmSwap:\t 0 kB\n";
        assert_eq!(parse_rss_pair(kernel_order), (Some(456), Some(123)));
        assert_eq!(parse_rss_pair("Name:\tx\n"), (None, None));
        assert_eq!(parse_rss_pair("VmHWM:\tgarbage kB\nVmRSS:\t 9 kB\n"), (None, Some(9)));
    }

    #[test]
    fn stamp_is_one_snapshot() {
        // Regression for the double-read: both gauges must come from one
        // parse of the same status body, so a body carrying only one of
        // the two fields yields exactly that gauge.
        assert_eq!(parse_rss_pair("VmHWM:\t 77 kB\n"), (Some(77), None));
        assert_eq!(parse_rss_pair("VmRSS:\t 33 kB\n"), (None, Some(33)));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn linux_reports_a_nonzero_peak_at_least_current() {
        // One snapshot: within a single read of /proc/self/status the
        // high-water mark can never trail the current RSS. (Two separate
        // reads — the pre-fix behaviour — can see RSS grow past a stale
        // peak, which is precisely why `stamp_rss` reads once now.)
        let (peak, cur) = rss_pair();
        let peak = peak.expect("procfs available");
        let cur = cur.expect("procfs available");
        assert!(
            peak > 0 && peak >= cur,
            "peak {peak} kB < current {cur} kB in one snapshot"
        );
        // The stamp is one snapshot too. Its figures are not compared
        // with the read above: the kernel guarantees VmHWM >= VmRSS only
        // within one read, and its approximate per-CPU RSS counters can
        // make VmHWM read lower on a later read.
        let mut snap = crate::MetricsSnapshot::default();
        stamp_rss(&mut snap);
        let stamped_peak = snap.gauges["obs.mem.peak_rss_kb"];
        let stamped_cur = snap.gauges["obs.mem.current_rss_kb"];
        assert!(
            stamped_peak > 0 && stamped_peak >= stamped_cur,
            "stamped peak {stamped_peak} kB < current {stamped_cur} kB"
        );
        // Resetting the high-water mark is best-effort (read-only procfs
        // mounts refuse the write); either way the pair must stay readable.
        let _ = reset_peak_rss();
        let (p2, c2) = rss_pair();
        assert!(p2.is_some() && c2.is_some());
    }
}
