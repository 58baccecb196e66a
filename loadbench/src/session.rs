//! One user question as one HTTP session: create, the workload's
//! follow-up reads, delete.

use std::time::{Duration, Instant};

use qr2_http::{parse_json, Json};

use crate::client::Client;
use crate::gen::{Question, Workload, NEXT_PAGES, STREAM_LIMIT};
use crate::layers::{attribute, Breakdown, Span};

/// Which endpoint a request hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Create,
    Next,
    Stream,
    Delete,
}

/// The `stats` object of a session's last page or stream summary.
#[derive(Debug, Clone, Copy, Default)]
pub struct PageStats {
    pub queries: usize,
    pub rounds: usize,
    pub parallel_queries: usize,
    pub recon_hits: usize,
}

/// What one session produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Generator index of the session's question.
    pub index: u64,
    /// Why the session failed, if it did.
    pub error: Option<String>,
    /// Tuple ids received, in order.
    pub ids: Vec<u32>,
    pub stats: PageStats,
    /// From the origin (due time or send time) to the last byte of the
    /// create response.
    pub first_page: Duration,
    /// From the origin to the last byte of the last result.
    pub latency: Duration,
    /// Client time the whole session took, `DELETE` included, trace
    /// reads excluded.
    pub busy: Duration,
}

/// Traced-run bookkeeping: every request carries an `x-request-id` (so
/// the service always traces it) and its spans are read back after the
/// response, outside the timed interval.
pub struct Tracer {
    prefix: String,
    seq: u64,
    pub requests: Vec<(Route, Breakdown)>,
    /// Requests whose trace was not found in the ring.
    pub missing: u64,
}

impl Tracer {
    pub fn new(prefix: String) -> Tracer {
        Tracer {
            prefix,
            seq: 0,
            requests: Vec::new(),
            missing: 0,
        }
    }

    fn next_id(&mut self) -> String {
        self.seq += 1;
        format!("{}-{}", self.prefix, self.seq)
    }

    fn record(&mut self, id: &str, route: Route, wall: Duration) {
        let wall_us = u64::try_from(wall.as_micros()).unwrap_or(u64::MAX);
        match qr2_obs::find_trace(id) {
            Some(t) => {
                let spans: Vec<Span> = t
                    .spans
                    .iter()
                    .map(|s| Span {
                        name: s.name,
                        start_us: s.start_us,
                        dur_us: s.dur_us,
                    })
                    .collect();
                self.requests
                    .push((route, attribute(wall_us, t.total_us, &spans)));
            }
            None => {
                self.missing += 1;
                let b = Breakdown {
                    wall_us: wall_us as f64,
                    unattributed_us: wall_us as f64,
                    ..Breakdown::default()
                };
                self.requests.push((route, b));
            }
        }
    }
}

/// Sends one session's requests, timing them and (when traced) reading
/// their traces back.
struct Exchange<'a> {
    client: &'a mut Client,
    tracer: Option<&'a mut Tracer>,
    /// Time spent reading traces so far.
    paused: Duration,
}

impl Exchange<'_> {
    /// Send a request and check its status; returns the body and the
    /// instant its last byte arrived.
    fn send(
        &mut self,
        route: Route,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        want: u16,
    ) -> Result<(Vec<u8>, Instant), String> {
        let id = self.tracer.as_mut().map(|t| t.next_id());
        let start = Instant::now();
        let resp = self.client.request(method, path, body, id.as_deref());
        let done = Instant::now();
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.record(&id, route, done - start);
            self.paused += done.elapsed();
        }
        let resp = resp.map_err(|e| format!("{method} {path}: {e}"))?;
        if resp.status != want {
            return Err(format!(
                "{method} {path}: status {} (want {want}): {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ));
        }
        Ok((resp.body, done))
    }
}

fn parse(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 body".to_string())?;
    parse_json(text).map_err(|e| format!("bad JSON ({e:?}): {text}"))
}

fn count(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("missing '{key}'"))
}

fn page_stats(v: &Json) -> Result<PageStats, String> {
    let s = v.get("stats").ok_or("missing 'stats'")?;
    Ok(PageStats {
        queries: count(s, "queries")?,
        rounds: count(s, "rounds")?,
        parallel_queries: count(s, "parallel_queries")?,
        recon_hits: count(s, "recon_hits")?,
    })
}

fn tuple_id(t: &Json) -> Result<u32, String> {
    let id = count(t, "id")?;
    u32::try_from(id).map_err(|_| format!("tuple id {id} out of range"))
}

/// Read one JSON page (create or next): its ids, stats, and whether the
/// answer is exhausted. A degraded page is a failure.
fn read_page(v: &Json, ids: &mut Vec<u32>) -> Result<(PageStats, bool), String> {
    if v.get("degraded").and_then(Json::as_bool) != Some(false) {
        return Err("page is degraded (or lacks the flag)".into());
    }
    for t in v
        .get("results")
        .and_then(Json::as_arr)
        .ok_or("missing 'results'")?
    {
        ids.push(tuple_id(t)?);
    }
    let done = v
        .get("done")
        .and_then(Json::as_bool)
        .ok_or("missing 'done'")?;
    Ok((page_stats(v)?, done))
}

/// Read an NDJSON stream: tuple events, then exactly one summary whose
/// status says the stream ended normally.
fn read_stream(body: &[u8], ids: &mut Vec<u32>) -> Result<PageStats, String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-UTF-8 stream".to_string())?;
    let mut summary = None;
    for line in text.lines().filter(|l| !l.is_empty()) {
        if summary.is_some() {
            return Err("stream continues after its summary".into());
        }
        let v = parse(line.as_bytes())?;
        match v.get("event").and_then(Json::as_str) {
            Some("tuple") => ids.push(tuple_id(
                v.get("tuple").ok_or("tuple event without tuple")?,
            )?),
            Some("summary") => summary = Some(v),
            other => return Err(format!("unexpected stream event {other:?}")),
        }
    }
    let summary = summary.ok_or("stream ended without a summary")?;
    match summary.get("status").and_then(Json::as_str) {
        Some("complete" | "done") => page_stats(&summary),
        other => Err(format!("stream ended with status {other:?}")),
    }
}

/// Run one session of `workload` asking `q`. Latencies are measured
/// from `origin`: the due time in an open loop, the send time in a
/// closed one.
pub fn run(
    client: &mut Client,
    workload: Workload,
    index: u64,
    q: &Question,
    origin: Instant,
    tracer: Option<&mut Tracer>,
) -> Outcome {
    let started = Instant::now();
    let mut ex = Exchange {
        client,
        tracer,
        paused: Duration::ZERO,
    };
    let mut out = Outcome {
        index,
        error: None,
        ids: Vec::with_capacity(workload.depth()),
        stats: PageStats::default(),
        first_page: Duration::ZERO,
        latency: Duration::ZERO,
        busy: Duration::ZERO,
    };
    let mut query_id = None;
    let result = (|| -> Result<(), String> {
        let body = q.create_body();
        let path = format!("/v1/sources/{}/queries", q.source);
        let (page, at) = ex.send(Route::Create, "POST", &path, Some(body.as_bytes()), 201)?;
        out.first_page = at.duration_since(origin).saturating_sub(ex.paused);
        let mut last = at;
        let v = parse(&page)?;
        let id = v
            .get("query_id")
            .and_then(Json::as_str)
            .ok_or("create response lacks 'query_id'")?
            .to_string();
        query_id = Some(id.clone());
        let (stats, mut done) = read_page(&v, &mut out.ids)?;
        out.stats = stats;
        match workload {
            Workload::WarmHit | Workload::ColdLive => {
                for _ in 0..NEXT_PAGES {
                    if done {
                        break;
                    }
                    let path = format!("/v1/queries/{id}/next");
                    let (page, at) = ex.send(Route::Next, "GET", &path, None, 200)?;
                    last = at;
                    let (stats, d) = read_page(&parse(&page)?, &mut out.ids)?;
                    out.stats = stats;
                    done = d;
                }
            }
            Workload::ReconStream => {
                let path = format!("/v1/queries/{id}/stream?limit={STREAM_LIMIT}");
                let (body, at) = ex.send(Route::Stream, "GET", &path, None, 200)?;
                last = at;
                out.stats = read_stream(&body, &mut out.ids)?;
            }
        }
        out.latency = last.duration_since(origin).saturating_sub(ex.paused);
        Ok(())
    })();
    if let Err(e) = result {
        out.error = Some(e);
    }
    if let Some(id) = query_id {
        let path = format!("/v1/queries/{id}");
        if let Err(e) = ex.send(Route::Delete, "DELETE", &path, None, 204) {
            out.error.get_or_insert(e);
        }
    }
    out.busy = started.elapsed().saturating_sub(ex.paused);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_bodies_need_a_final_normal_summary() {
        let ok = b"{\"event\":\"tuple\",\"tuple\":{\"id\":4}}\n{\"event\":\"tuple\",\"tuple\":{\"id\":2}}\n{\"event\":\"summary\",\"status\":\"complete\",\"stats\":{\"queries\":0,\"rounds\":0,\"parallel_queries\":0,\"recon_hits\":1}}\n";
        let mut ids = Vec::new();
        let stats = read_stream(ok, &mut ids).unwrap();
        assert_eq!(ids, vec![4, 2]);
        assert_eq!(stats.recon_hits, 1);

        let failed = b"{\"event\":\"summary\",\"status\":\"failed\",\"stats\":{}}\n";
        assert!(read_stream(failed, &mut Vec::new()).is_err());
        let cut = b"{\"event\":\"tuple\",\"tuple\":{\"id\":4}}\n";
        assert!(read_stream(cut, &mut Vec::new()).is_err());
    }
}
