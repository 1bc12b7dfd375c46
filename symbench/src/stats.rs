//! Summary statistics, result accounting and the result line.

use std::fmt::Write as _;

/// A tail percentile is only reported when at least this many samples
/// lie beyond it.
pub const MIN_BEYOND: usize = 10;

/// The percentile the tail metric aims for at the planned run sizes.
pub const TAIL_TARGET: f64 = 0.99;

/// Median and tail of one latency sample, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median.
    pub p50_us: f64,
    /// The tail value: the highest percentile up to [`TAIL_TARGET`]
    /// with at least [`MIN_BEYOND`] samples beyond it.
    pub tail_us: f64,
    /// Which percentile `tail_us` is (0.99 at the planned sizes).
    pub tail_pct: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Index (into the sorted sample) of the tail value: the nearest-rank
/// [`TAIL_TARGET`] percentile, lowered until [`MIN_BEYOND`] samples
/// lie beyond it. `None` when the sample is too small for any.
pub fn tail_rank(n: usize) -> Option<usize> {
    rank_at(n, TAIL_TARGET)
}

/// Index (into a sorted sample of `n`) of the nearest-rank `target`
/// percentile, lowered until [`MIN_BEYOND`] samples lie beyond it.
fn rank_at(n: usize, target: f64) -> Option<usize> {
    if n <= MIN_BEYOND {
        return None;
    }
    let nearest = ((n as f64 * target).ceil() as usize).max(1) - 1;
    Some(nearest.min(n - 1 - MIN_BEYOND))
}

/// The tail percentile taken inside each one-second window.
pub const WINDOW_TAIL: f64 = 0.90;

/// Median of a sorted sample (mean of the two middle values when even).
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// Summarise wall latencies given in nanoseconds. `None` when the
/// sample is too small to carry a tail percentile.
pub fn latency(ns: &[u64]) -> Option<Latency> {
    let n = ns.len();
    let rank = tail_rank(n)?;
    let mut us: Vec<f64> = ns.iter().map(|&v| v as f64 / 1000.0).collect();
    us.sort_by(f64::total_cmp);
    Some(Latency {
        p50_us: median_sorted(&us),
        tail_us: us[rank],
        tail_pct: (rank + 1) as f64 / n as f64,
        samples: n,
    })
}

/// Length of one throughput window.
pub const WINDOW_NS: u64 = 1_000_000_000;

/// Throughput, median and tail latency of a timed phase, each a median
/// over the phase's whole one-second windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Completions per second.
    pub rate: f64,
    /// Median wall ns.
    pub p50_ns: f64,
    /// [`WINDOW_TAIL`] percentile wall ns, over the windows holding
    /// more than [`MIN_BEYOND`] completions.
    pub p90_ns: f64,
}

/// Summarise a timed phase of `elapsed_s` by its whole one-second
/// windows. `done_ns[i]` is when call `i` completed, in ns since the
/// phase began, and `ns[i]` how long it took. A window's rate is its
/// completions after the first over the time from the first to the
/// last. Medians over windows are steadier than whole-phase figures
/// when other machines sharing the host take the CPU for a second or
/// two. `None` when no whole window holds more than [`MIN_BEYOND`]
/// completions.
pub fn windowed(done_ns: &[u64], ns: &[u64], elapsed_s: f64) -> Option<Windowed> {
    let windows = (elapsed_s * 1e9) as u64 / WINDOW_NS;
    // Per window: first and last completion, and the latencies.
    let mut per: Vec<(u64, u64, Vec<f64>)> = vec![(u64::MAX, 0, Vec::new()); windows as usize];
    for (&d, &v) in done_ns.iter().zip(ns) {
        if let Some((first, last, lat)) = per.get_mut((d / WINDOW_NS) as usize) {
            *first = (*first).min(d);
            *last = (*last).max(d);
            lat.push(v as f64);
        }
    }
    let full: Vec<_> = per
        .iter_mut()
        .filter(|(first, last, lat)| lat.len() > MIN_BEYOND && last > first)
        .collect();
    if full.is_empty() {
        return None;
    }
    let rates: Vec<f64> = full
        .iter()
        .map(|(first, last, lat)| (lat.len() - 1) as f64 * 1e9 / (*last - *first) as f64)
        .collect();
    let mut medians = Vec::new();
    let mut tails = Vec::new();
    for (_, _, lat) in full {
        lat.sort_by(f64::total_cmp);
        medians.push(median_sorted(lat));
        tails.push(lat[rank_at(lat.len(), WINDOW_TAIL).expect("more than MIN_BEYOND")]);
    }
    Some(Windowed {
        rate: median(&rates),
        p50_ns: median(&medians),
        p90_ns: median(&tails),
    })
}

/// What one end-to-end call returned, as the accounting sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// An `Err` return.
    Error,
    /// Refused by admission control (a shed response).
    Shed,
    /// Served, with at least one errored slot.
    Degraded,
    /// Served with every slot healthy.
    Ok,
}

/// Per-run accounting of attempted, failed and degraded calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls attempted.
    pub attempted: u64,
    /// `Err` returns.
    pub errors: u64,
    /// Shed (refused) responses.
    pub shed: u64,
    /// Degraded (served, some slot errored) responses.
    pub degraded: u64,
}

impl Tally {
    /// Account one call.
    pub fn record(&mut self, served: Served) {
        self.attempted += 1;
        match served {
            Served::Error => self.errors += 1,
            Served::Shed => self.shed += 1,
            Served::Degraded => self.degraded += 1,
            Served::Ok => {}
        }
    }

    /// Fold another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.shed += other.shed;
        self.degraded += other.degraded;
    }

    /// Failures: errors plus refusals. A degraded answer is an answer.
    pub fn failed(&self) -> u64 {
        self.errors + self.shed
    }

    /// Failures over attempts.
    pub fn fail_rate(&self) -> f64 {
        ratio(self.failed() as f64, self.attempted as f64)
    }

    /// Degraded responses over attempts.
    pub fn degraded_rate(&self) -> f64 {
        ratio(self.degraded as f64, self.attempted as f64)
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// True for a metric name the result line may carry: it starts with a
/// letter or digit and holds at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphanumeric() => {}
        _ => return false,
    }
    name.len() <= 64 && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// metrics. Errors on an invalid or repeated name or a non-finite value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {:?} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    ))
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `struct timeval` and the leading fields of `struct rusage` on 64-bit
/// Linux; the 14 `long` counters after them are left opaque.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User and system CPU time of the whole process so far, in ns: every
/// thread's, the client's and the fan-out workers'. A guest kernel that
/// accounts steal time leaves out the time the hypervisor gave to other
/// machines.
pub fn cpu_ns() -> Result<(u64, u64), String> {
    const RUSAGE_SELF: i32 = 0;
    let mut r = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `r` is a writable `struct rusage` of the platform's size
    // and layout, which `getrusage` fills and does not keep.
    if unsafe { getrusage(RUSAGE_SELF, &mut r) } != 0 {
        return Err("getrusage failed".into());
    }
    let ns = |t: [i64; 2]| t[0] as u64 * 1_000_000_000 + t[1] as u64 * 1_000;
    Ok((ns(r.utime), ns(r.stime)))
}

/// FNV-1a accumulator for output digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Field separator, so ("ab", "c") and ("a", "bc") differ.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Fold a string in.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Fold a flag in.
    pub fn flag(&mut self, b: bool) {
        self.bytes(&[b as u8]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_a_busy_thread() {
        let (u0, s0) = cpu_ns().unwrap();
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let (u1, s1) = cpu_ns().unwrap();
        // Other tests run beside this one, so only a lower bound holds.
        assert!(u1 + s1 - u0 - s0 >= 20_000_000, "{u0}+{s0} -> {u1}+{s1}");
    }

    #[test]
    fn tail_is_p99_when_the_sample_is_large_enough() {
        // 2000 samples: nearest-rank p99 is index 1979, with 20 beyond.
        assert_eq!(tail_rank(2000), Some(1979));
        let ns: Vec<u64> = (1..=2000).map(|v| v * 1000).collect();
        let l = latency(&ns).unwrap();
        assert_eq!(l.samples, 2000);
        assert_eq!(l.tail_us, 1980.0);
        assert!((l.tail_pct - 0.99).abs() < 1e-12);
        assert_eq!(l.p50_us, 1000.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 500 samples: p99 would leave only 5 beyond, so the tail drops
        // to the 98th percentile (index 489, 10 beyond).
        for n in [11usize, 12, 100, 500, 999, 1000, 1001, 1099] {
            let r = tail_rank(n).unwrap();
            assert!(n - 1 - r >= MIN_BEYOND, "n={n} r={r}");
            // And it is the highest such rank up to the target.
            let nearest = (n as f64 * TAIL_TARGET).ceil() as usize - 1;
            assert!(r == nearest || n - 1 - (r + 1) < MIN_BEYOND, "n={n} r={r}");
        }
        assert_eq!(tail_rank(500), Some(489));
        let l = latency(&(0..500).map(|v| v * 1000).collect::<Vec<_>>()).unwrap();
        assert!((l.tail_pct - 0.98).abs() < 1e-12);
        assert_eq!(l.samples, 500);
    }

    #[test]
    fn too_small_a_sample_has_no_tail() {
        assert_eq!(tail_rank(10), None);
        assert_eq!(tail_rank(0), None);
        assert!(latency(&[1, 2, 3]).is_none());
    }

    #[test]
    fn rate_and_latencies_are_medians_over_whole_windows() {
        // Windows 0, 1 and 2 each hold 20 completions 50 ms apart
        // (19 over 0.95 s: 20/s), taking 1..=20, 101..=120 and 21..=40
        // ns. Window 3 holds too few completions; the partial window 4
        // is left out.
        let ms = 1_000_000u64;
        let mut done = Vec::new();
        let mut ns = Vec::new();
        for (w, base) in [(0u64, 0u64), (1, 100), (2, 20)] {
            for j in 0..20 {
                done.push(w * 1000 * ms + j * 50 * ms);
                ns.push(base + j + 1);
            }
        }
        done.extend([3000 * ms, 3100 * ms, 4200 * ms]);
        ns.extend([9_999, 9_999, 9_999]);
        let w = windowed(&done, &ns, 4.5).unwrap();
        assert_eq!(w.rate, 20.0);
        // Window medians 10.5, 110.5 and 30.5.
        assert_eq!(w.p50_ns, 30.5);
        // Of 20 samples, 10 must lie beyond the tail: the 10th value,
        // so 10, 110 and 30.
        assert_eq!(w.p90_ns, 30.0);
        assert!(windowed(&done, &ns, 0.5).is_none());
        assert!(windowed(&done[60..], &ns[60..], 4.5).is_none());
    }

    #[test]
    fn shed_counts_as_failure_and_degraded_does_not() {
        let mut t = Tally::default();
        for s in [
            Served::Ok,
            Served::Degraded,
            Served::Shed,
            Served::Error,
            Served::Ok,
        ] {
            t.record(s);
        }
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failed(), 2);
        assert!((t.fail_rate() - 0.4).abs() < 1e-12);
        assert!((t.degraded_rate() - 0.2).abs() < 1e-12);
        let mut u = Tally::default();
        u.record(Served::Shed);
        t.merge(&u);
        assert_eq!((t.attempted, t.shed, t.failed()), (6, 2, 3));
    }

    #[test]
    fn metric_names_use_letters_digits_underscore_dot_dash() {
        for ok in [
            "qps",
            "p50_us",
            "hosting.hit_us",
            "datastore.plan.filter_first",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "μs", "a\"b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(result_line(true, 1, 0, &[Metric::new("a b", "s", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("a", "s", f64::NAN)]).is_err());
        let dup = [Metric::new("a", "s", 1.0), Metric::new("a", "s", 2.0)];
        assert!(result_line(true, 1, 0, &dup).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            true,
            10,
            1,
            &[
                Metric::new("p50_us", "us", 12.5),
                Metric::new("qps", "1/s", 3.0),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \
             \"qps\": {\"value\": 3.0, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn digest_separates_fields() {
        let mut a = Digest::default();
        a.str("ab");
        a.str("c");
        let mut b = Digest::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a, b);
    }
}
