//! Order statistics, interval arithmetic, and process counters.

/// Samples a percentile must leave beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a p99 needs at
/// least 1000 samples.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    sorted.get(rank - 1).copied()
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `a / b`, or 0 when nothing was measured (`b == 0`).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Half-open intervals `[start, end)` in microseconds.
pub type Interval = (u64, u64);

/// Merge intervals into a sorted, disjoint cover of the same points.
pub fn union(mut v: Vec<Interval>) -> Vec<Interval> {
    v.retain(|(s, e)| e > s);
    v.sort_unstable();
    let mut out: Vec<Interval> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of a merged interval list.
pub fn measure(merged: &[Interval]) -> u64 {
    merged.iter().map(|(s, e)| e - s).sum()
}

/// Length of `a \ b` for merged lists `a` and `b`.
pub fn minus(a: &[Interval], b: &[Interval]) -> u64 {
    let mut overlap = 0;
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (s, e) = (a[i].0.max(b[j].0), a[i].1.min(b[j].1));
        if e > s {
            overlap += e - s;
        }
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    measure(a) - overlap
}

/// Process user + system CPU time in seconds (all threads, live and
/// exited), from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    cpu_s("/proc/self/stat")
}

/// The calling thread's user + system CPU time in seconds, from
/// `/proc/thread-self/stat`.
pub fn thread_cpu_s() -> f64 {
    cpu_s("/proc/thread-self/stat")
}

/// `utime + stime` of a `/proc` stat file, in seconds.
fn cpu_s(path: &str) -> f64 {
    // USER_HZ, which Linux fixes at 100 for the /proc interface.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (field(11) + field(12)) / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn union_merges_overlaps_once() {
        // Four parallel probes inside one 100 µs request: wall time counts
        // each overlapped instant once.
        let spans = vec![(10, 50), (20, 60), (55, 70), (80, 90), (85, 85)];
        let u = union(spans);
        assert_eq!(u, vec![(10, 70), (80, 90)]);
        assert_eq!(measure(&u), 70);
    }

    #[test]
    fn self_time_is_parent_minus_children() {
        let parent = union(vec![(0, 100), (200, 300)]);
        let children = union(vec![(10, 20), (15, 40), (90, 210), (250, 400)]);
        // Children cover 10..40, 90..100, 200..210, 250..300 of the parent.
        assert_eq!(minus(&parent, &children), 200 - (30 + 10 + 10 + 50));
        assert_eq!(minus(&parent, &[]), 200);
        assert_eq!(minus(&[], &children), 0);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {}
        assert!(process_cpu_s() > 0.0);
        // A fresh thread starts at zero and only counts its own work.
        let (idle, busy) = std::thread::spawn(|| {
            let idle = thread_cpu_s();
            let spin = std::time::Instant::now();
            while spin.elapsed().as_millis() < 50 {}
            (idle, thread_cpu_s())
        })
        .join()
        .unwrap();
        assert!(idle < 0.02 && busy > idle, "{idle} {busy}");
    }
}
