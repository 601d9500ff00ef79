//! Host-speed reference: a fixed kernel that the timed phases run between
//! requests, so that every timing can be put on one scale.
//!
//! The benchmark's VM shares its host with other tenants, and its vCPUs
//! slow down by up to 1.8× in phases that last from seconds to minutes.
//! One fixed `pipeline` request, repeated for five minutes, read 106–185 ms
//! as 2 s means and 122–174 ms as 30 s means; a run cannot average such
//! phases away. A kernel like this one slows down with the host: in a
//! 150 s probe the same request divided by the kernel's time stayed within
//! ±1.2% as 30 s means while the request alone moved from 123 to 148 ms
//! (`NOTES.md`, Noise controls). A timed request is therefore reported in
//! nominal-host time: its wall time × [`NOMINAL_NS`] ÷ the kernel's time
//! around it.
//!
//! The kernel is the benchmark's own code and does nothing the program
//! does for it, so a change to the program moves the request and not the
//! kernel. Its parts are small (under 0.5 MB of memory) and mix the kinds
//! of work the program does: hash-table updates, sorting, string
//! allocation and a byte-serial hash.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time (geometric mean of its parts, ns) on the benchmark's
/// 2-vCPU VM in its fast phases. Timings divided by the kernel's time are
/// multiplied by this, so that they read as milliseconds on that host.
pub const NOMINAL_NS: f64 = 170_000.0;

/// Run the kernel once; returns the geometric mean of its parts' wall
/// times, in ns. Each part runs twice and only the second run is timed,
/// so that the part finds its data in cache and its freed memory in the
/// allocator whatever the request before it left behind.
pub fn sample() -> f64 {
    let parts = [time(table), time(sort), time(strings), time(scan)];
    (parts.iter().map(|t| t.ln()).sum::<f64>() / parts.len() as f64).exp()
}

/// `NOMINAL_NS` ÷ the kernel's time around request `i` of a timed phase,
/// given `host` = one sample before each request and one after the last:
/// the median of the (up to) four samples nearest the request, two on
/// each side. A single sample can catch a scheduler tick; four cannot
/// all have.
pub fn scale(host: &[f64], i: usize) -> f64 {
    if host.is_empty() {
        return 1.0;
    }
    let lo = i.saturating_sub(1).min(host.len() - 1);
    let hi = (i + 2).min(host.len() - 1);
    NOMINAL_NS / crate::stats::median(&host[lo..=hi])
}

/// `NOMINAL_NS` ÷ the kernel's time around set-up `i`, given `host` = one
/// sample before each set-up and one after the last: the mean of the
/// samples on either side.
pub fn scale_between(host: &[f64], i: usize) -> f64 {
    match (host.get(i), host.get(i + 1)) {
        (Some(a), Some(b)) => NOMINAL_NS / ((a + b) / 2.0),
        _ => 1.0,
    }
}

fn time(part: fn() -> u64) -> f64 {
    black_box(part());
    let t0 = Instant::now();
    black_box(part());
    t0.elapsed().as_nanos().max(1) as f64
}

/// A xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Hash-table updates and lookups over 8 Ki keys.
fn table() -> u64 {
    let mut m: HashMap<u64, u64> = HashMap::new();
    let (mut x, mut s) = (0x9E37_79B9_7F4A_7C15_u64, 0u64);
    for i in 0..6_000u64 {
        let k = next(&mut x) % 8_192;
        *m.entry(k).or_insert(0) += i;
        s = s.wrapping_add(*m.get(&(k ^ 1)).unwrap_or(&0));
    }
    s
}

/// Sort 8 Ki scrambled integers.
fn sort() -> u64 {
    let mut v: Vec<u64> = (0..8_192u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
    v.sort_unstable();
    v[7]
}

/// Allocate, format and drop small strings.
fn strings() -> u64 {
    let mut v: Vec<String> = Vec::new();
    for i in 0..2_000usize {
        v.push(format!("r{i}_{}", i * 7));
        if i % 3 == 0 {
            v.swap_remove(i / 2);
        }
    }
    v.iter().map(|s| s.len() as u64).sum()
}

/// FNV-1a over 64 KiB, one byte at a time.
fn scan() -> u64 {
    let buf: Vec<u8> =
        (0..65_536u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in black_box(&buf) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn scale_reads_the_samples_nearest_the_request() {
        // One sample before each of requests 0..5 and one after the last.
        let host = [1.0, 2.0, 4.0, 4.0, 8.0, 100.0].map(|k| k * NOMINAL_NS);
        // Request 2 runs between samples 2 and 3 and reads samples 1..=4.
        assert!(close(scale(&host, 2), 1.0 / 4.0));
        // At the ends the window is clipped: request 0 reads samples 0..=2.
        assert!(close(scale(&host, 0), 1.0 / 2.0));
        assert!(close(scale(&host, 4), 1.0 / 8.0));
        assert_eq!(scale(&[], 3), 1.0);
        assert!(close(scale_between(&host, 0), 1.0 / 1.5));
        assert_eq!(scale_between(&host, 5), 1.0);
    }

    #[test]
    fn a_sample_takes_time() {
        assert!(sample() > 0.0);
    }
}
