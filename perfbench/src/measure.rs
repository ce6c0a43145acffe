//! Measurement helpers: medians and percentiles (with the reporting rule
//! for tail percentiles), the peak-RSS readers, and the output digest.

/// Percentiles the benchmark can report, lowest first.
const PERCENTILE_LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// A percentile is reportable only if at least this many samples lie
/// beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, computed
/// in whole basis points so that 99.9% of 10000 is exactly rank 9990.
fn nearest_rank(n: usize, p: f64) -> usize {
    let basis_points = (p * 100.0).round() as usize;
    (basis_points * n).div_ceil(10_000).clamp(1, n)
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, p)
}

/// The highest percentile of the ladder with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, or `None` when even the
/// median has too few.
pub fn highest_reportable_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// The smallest sample count at which percentile `p` is reportable.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
        .expect("every percentile below 100 becomes reportable")
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Latency samples summarized the way the benchmark reports them.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    pub count: usize,
    /// Median over all samples.
    pub p50: f64,
    /// Median over consecutive windows of the run of each window's p99.
    /// Every window holds enough samples for its p99 to have
    /// [`MIN_SAMPLES_BEYOND`] beyond it, and taking the median across
    /// windows keeps a burst of host contention in one window from
    /// moving the figure.
    pub p99: f64,
    pub windows: usize,
    /// The highest percentile all samples together support, and its value.
    pub tail: Option<(f64, f64)>,
}

impl LatencySummary {
    /// Summarize `samples`, given in the order they completed. Fails
    /// when even one window is too short to support p99: the run was
    /// too short to report the tail it promises.
    pub fn of(samples: &[f64]) -> Result<Self, String> {
        let n = samples.len();
        let windows = n / samples_needed(99.0);
        if windows == 0 {
            return Err(format!(
                "{n} latency samples cannot support p99 (needs {})",
                samples_needed(99.0)
            ));
        }
        let window_p99: Vec<f64> = (0..windows)
            .map(|w| {
                let mut window = samples[w * n / windows..(w + 1) * n / windows].to_vec();
                window.sort_by(f64::total_cmp);
                percentile(&window, 99.0)
            })
            .collect();
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail = highest_reportable_percentile(n).map(|p| (p, percentile(&sorted, p)));
        Ok(Self {
            count: n,
            p50: percentile(&sorted, 50.0),
            p99: median(&window_p99),
            windows,
            tail,
        })
    }

    /// One line for the log: sample count, windows, pooled tail.
    pub fn describe(&self, what: &str) -> String {
        let tail = self
            .tail
            .map_or(String::new(), |(p, v)| format!(", pooled p{p} {v:.4} ms"));
        format!(
            "latency: {} {what}; p99 is the median over {} windows{tail}",
            self.count, self.windows
        )
    }
}

/// Peak resident set size (`VmHWM`) in kB, from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(value)
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vmhwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// `struct rusage` on 64-bit Linux: two `struct timeval`s (user, then
/// system time, each seconds and microseconds), then fourteen `long`s,
/// the first of which is `ru_maxrss` in kB.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Result<Rusage, String> {
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `getrusage` writes one `struct rusage`, which `Rusage`
    // lays out for 64-bit Linux, and reads nothing.
    if unsafe { getrusage(who, &mut usage) } != 0 {
        return Err("getrusage failed".to_string());
    }
    Ok(usage)
}

/// User plus system CPU seconds this process has used, over all its
/// threads.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let t = rusage(RUSAGE_SELF)?.times;
    Ok((t[0] + t[2]) as f64 + (t[1] + t[3]) as f64 / 1e6)
}

/// Peak resident set size in MiB of the largest child process this
/// process has waited for (`ru_maxrss` of `RUSAGE_CHILDREN`).
pub fn children_peak_rss_mb() -> Result<f64, String> {
    let maxrss = rusage(RUSAGE_CHILDREN)?.maxrss;
    if maxrss <= 0 {
        return Err("getrusage reports no waited-for child".to_string());
    }
    Ok(maxrss as f64 / 1024.0)
}

/// Digest of an output text: its byte length and 64-bit FNV-1a hash.
/// FNV-1a's per-byte step is a bijection of the state, so any change of
/// a single byte always changes the hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub len: usize,
    pub fnv: u64,
}

impl Digest {
    pub fn of(text: &str) -> Self {
        Self {
            len: text.len(),
            fnv: bvf_store::fnv1a(text.as_bytes()),
        }
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} bytes, fnv1a64 {:#018x}", self.len, self.fnv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1000 samples is rank 990: ten samples lie beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(highest_reportable_percentile(19), None);
        assert_eq!(highest_reportable_percentile(20), Some(50.0));
        assert_eq!(highest_reportable_percentile(999), Some(95.0));
        assert_eq!(highest_reportable_percentile(1000), Some(99.0));
        assert_eq!(highest_reportable_percentile(10_000), Some(99.9));
        assert_eq!(highest_reportable_percentile(100_000), Some(99.99));
    }

    #[test]
    fn latency_summary_refuses_a_p99_it_cannot_support() {
        let short: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(LatencySummary::of(&short).is_err());
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = LatencySummary::of(&samples).expect("1000 samples support p99");
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.p99, 990.0);
        assert_eq!(s.windows, 1);
        assert_eq!(s.tail, Some((99.0, 990.0)));
    }

    #[test]
    fn p99_is_the_median_of_window_p99s() {
        // Three windows of 1000: a burst of slow operations in the middle
        // one sets that window's p99 but not the run's.
        let mut samples = vec![1.0; 3000];
        for s in &mut samples[1000..1100] {
            *s = 50.0;
        }
        samples[2990] = 7.0;
        let s = LatencySummary::of(&samples).expect("3000 samples");
        assert_eq!(s.windows, 3);
        assert_eq!(s.p99, 1.0);
        assert_eq!(s.p50, 1.0);
        // Pooled, the burst's 100 samples hold the run's p99.
        assert_eq!(s.tail, Some((99.0, 50.0)));
    }

    #[test]
    fn vmhwm_reader_parses_status_text() {
        let status = "Name:\tbench\nVmPeak:\t  204800 kB\nVmHWM:\t   51234 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(51234));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 4096 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t lots kB\n"), None);
        assert!(peak_rss_mb().expect("this process has a status file") > 0.0);
    }

    #[test]
    fn children_peak_rss_counts_a_waited_for_child() {
        let out = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .arg("--list")
            .output()
            .expect("the test binary runs");
        assert!(out.status.success());
        let mb = children_peak_rss_mb().expect("one child was waited for");
        assert!(mb > 0.5 && mb < 4096.0, "{mb} MiB");
    }

    #[test]
    fn process_cpu_time_counts_this_threads_work() {
        // Other tests run on other threads and can only add to the count.
        let before = process_cpu_seconds().expect("getrusage");
        let t0 = std::time::Instant::now();
        let mut x = 1u64;
        while t0.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = process_cpu_seconds().expect("getrusage") - before;
        assert!(worked > 0.04, "{worked} s of CPU over 50 ms of spinning");
    }

    #[test]
    fn digest_catches_a_one_byte_change() {
        let text = "table fig16\nBFS  0.385  0.470\n".repeat(64);
        let reference = Digest::of(&text);
        assert_eq!(Digest::of(&text.clone()), reference);
        let mut bytes = text.into_bytes();
        for i in [0, bytes.len() / 2, bytes.len() - 1] {
            let original = bytes[i];
            bytes[i] = original ^ 0x01;
            let changed = String::from_utf8(bytes.clone()).expect("ascii stays utf-8");
            assert_ne!(Digest::of(&changed), reference, "flip at byte {i}");
            bytes[i] = original;
        }
    }
}
