//! Split one request's client-side wall time across the service's
//! layers, from the spans of its trace.
//!
//! Each stage's self time is the wall time its spans cover minus the
//! part its child stages cover, over the interval union of all its spans
//! in the request — parallel probes count once in wall time. What the
//! server-side trace does not cover at all is HTTP I/O (connect, socket
//! reads and writes, request parsing, client framing); trace time no
//! span covers is the service core (routing, JSON, sessions, engine).
//! Whatever the stage self times fail to account for — spans of an
//! unknown stage (positive), or time two unrelated stages both claim
//! (negative) — is left unattributed, so
//! `io + core + Σ self + unattributed = wall`.

use crate::stats::{measure, minus, union, Interval};

/// The stages the benchmark attributes time to, each with the stages
/// nested directly inside it.
pub const STAGES: [(&str, &[&str]); 7] = [
    ("stream.page", &["cache.lookup", "recon.serve"]),
    ("recon.serve", &[]),
    ("cache.lookup", &["sched.queue"]),
    ("sched.queue", &["resilient.search"]),
    ("resilient.search", &["traffic.shape"]),
    ("traffic.shape", &["webdb.search"]),
    ("webdb.search", &[]),
];

/// A span as the trace reports it: stage name, offset from the trace
/// start, duration (microseconds).
#[derive(Debug, Clone, Copy)]
pub struct Span<'a> {
    pub name: &'a str,
    pub start_us: u64,
    pub dur_us: u64,
}

/// One request's time, split by layer (microseconds).
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub wall_us: f64,
    /// The server trace's own total: the handler, not later stream pages.
    pub total_us: f64,
    pub io_us: f64,
    pub core_us: f64,
    /// Self time per entry of [`STAGES`].
    pub stage_self_us: [f64; STAGES.len()],
    /// Summed (not unioned) `webdb.search` span time: per-query cost.
    pub webdb_search_sum_us: f64,
    /// Signed remainder `wall − io − core − Σ self`.
    pub unattributed_us: f64,
}

fn stage_union(spans: &[Span], names: &[&str]) -> Vec<Interval> {
    union(
        spans
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(|s| (s.start_us, s.start_us + s.dur_us))
            .collect(),
    )
}

/// Attribute a request of client wall time `wall_us` whose server trace
/// ran `total_us` (the handler) and recorded `spans`.
pub fn attribute(wall_us: u64, total_us: u64, spans: &[Span]) -> Breakdown {
    let all = union(
        spans
            .iter()
            .map(|s| (s.start_us, s.start_us + s.dur_us))
            .collect(),
    );
    let handler = [(0, total_us)];
    let server = union(all.iter().copied().chain(handler).collect());
    let mut b = Breakdown {
        wall_us: wall_us as f64,
        total_us: total_us as f64,
        io_us: wall_us.saturating_sub(measure(&server)) as f64,
        core_us: minus(&union(handler.to_vec()), &all) as f64,
        ..Breakdown::default()
    };
    let mut attributed = 0u64;
    for (i, (stage, children)) in STAGES.iter().enumerate() {
        let own = stage_union(spans, &[stage]);
        let self_us = minus(&own, &stage_union(spans, children));
        b.stage_self_us[i] = self_us as f64;
        attributed += self_us;
    }
    b.webdb_search_sum_us = spans
        .iter()
        .filter(|s| s.name == "webdb.search")
        .map(|s| s.dur_us as f64)
        .sum();
    b.unattributed_us = measure(&all) as f64 - attributed as f64;
    b
}

/// Index of `stage` in [`STAGES`].
pub fn stage_index(stage: &str) -> usize {
    STAGES
        .iter()
        .position(|(s, _)| *s == stage)
        .unwrap_or_else(|| panic!("unknown stage '{stage}'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: u64, dur_us: u64) -> Span<'_> {
        Span {
            name,
            start_us,
            dur_us,
        }
    }

    fn self_of(b: &Breakdown, stage: &str) -> f64 {
        b.stage_self_us[stage_index(stage)]
    }

    #[test]
    fn nested_parallel_probes_partition_the_wall_time() {
        // A 1000 µs request whose handler ran 800 µs: two overlapping
        // cache lookups (parallel probes), each queueing and searching.
        let spans = [
            span("cache.lookup", 100, 400),
            span("sched.queue", 150, 300),
            span("resilient.search", 200, 200),
            span("traffic.shape", 210, 180),
            span("webdb.search", 220, 160),
            span("cache.lookup", 300, 300),
            span("sched.queue", 320, 250),
            span("resilient.search", 330, 200),
            span("traffic.shape", 340, 180),
            span("webdb.search", 350, 160),
        ];
        let b = attribute(1000, 800, &spans);
        assert_eq!(b.io_us, 200.0);
        // Lookups cover 100..600; the handler's other 300 µs is core.
        assert_eq!(b.core_us, 300.0);
        assert_eq!(self_of(&b, "cache.lookup"), 500.0 - 420.0);
        assert_eq!(self_of(&b, "sched.queue"), 420.0 - 330.0);
        assert_eq!(self_of(&b, "resilient.search"), 330.0 - 310.0);
        assert_eq!(self_of(&b, "traffic.shape"), 310.0 - 290.0);
        assert_eq!(self_of(&b, "webdb.search"), 290.0);
        assert_eq!(b.webdb_search_sum_us, 320.0);
        assert_eq!(b.unattributed_us, 0.0);
        let total: f64 = b.io_us + b.core_us + b.stage_self_us.iter().sum::<f64>();
        assert_eq!(total, b.wall_us);
    }

    #[test]
    fn stream_pages_after_the_handler_are_not_io() {
        // The handler returns at 50 µs; pages stream until 900 µs.
        let spans = [span("stream.page", 100, 300), span("stream.page", 500, 400)];
        let b = attribute(1000, 50, &spans);
        assert_eq!(b.core_us, 50.0);
        assert_eq!(self_of(&b, "stream.page"), 700.0);
        assert_eq!(b.io_us, 1000.0 - 750.0);
        assert_eq!(b.unattributed_us, 0.0);
    }

    #[test]
    fn unknown_and_overlapping_spans_are_unattributed() {
        let unknown = attribute(500, 400, &[span("json.encode", 10, 40)]);
        assert_eq!(unknown.unattributed_us, 40.0);
        assert_eq!(unknown.core_us, 360.0);
        // A lookup and a recon serve claiming the same 50 µs: both self
        // times count it, so the remainder goes negative.
        let overlap = attribute(
            500,
            400,
            &[
                span("cache.lookup", 100, 100),
                span("recon.serve", 150, 100),
            ],
        );
        assert_eq!(self_of(&overlap, "cache.lookup"), 100.0);
        assert_eq!(self_of(&overlap, "recon.serve"), 100.0);
        assert_eq!(overlap.unattributed_us, -50.0);
    }
}
