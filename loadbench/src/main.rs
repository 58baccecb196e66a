//! Loopback load benchmark for the QR2 service.
//!
//! Boots the real `Qr2App` in-process on `127.0.0.1:0` with the
//! `qr2-server` defaults (4 workers, fan-out 8) and drives it over TCP
//! from two client threads: a closed-loop phase for capacity and CPU,
//! then an open-loop phase at a fixed offered rate for latency. With
//! `--trace 1` a further closed-loop phase sends an `x-request-id` on
//! every request and splits each request's time across the layers from
//! its trace. Every session's answer is checked against an oracle.
//!
//! ```sh
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload cold_live --seed 1 --seconds 28 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `loadbench/README.md` for the metrics and workloads.

mod client;
mod gen;
mod layers;
mod oracle;
mod session;
mod stats;

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qr2_cache::{AnswerCache, CacheConfig};
use qr2_core::{DenseIndex, ExecutorKind};
use qr2_datagen::{bluenile_db, bluenile_table, zillow_table, DiamondsConfig, HomesConfig};
use qr2_http::{parse_json, HttpServer, Json};
use qr2_recon::ReconIndex;
use qr2_sched::SchedConfig;
use qr2_service::{Qr2App, Source, SourceRegistry};
use qr2_webdb::{SourcePolicy, Table};

use client::Client;
use gen::{Generator, Workload, DIAMONDS};
use layers::{stage_index, Breakdown};
use session::{Outcome, Route, Tracer};
use stats::{median, percentile, ratio};

/// Zillow's demo inventory (the `qr2-server` default, as is Blue Nile's).
const HOMES: usize = 50_000;
/// `qr2-server` defaults.
const WORKERS: usize = 4;
const FANOUT: usize = 8;
/// Client threads, each with at most one connection open.
const CLIENTS: usize = 2;
/// Every request's deadline. A failed session counts at this latency.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Set-ups per run; `setup_s` is their median. The first set-up's
/// service is the one measured; the others are timed after the peak RSS
/// is read and stopped at once, so `peak_rss_mb` reflects one service.
const SETUPS: usize = 7;
/// Share of `--seconds` spent in the closed loop; the open loop gets the
/// rest, and a traced run adds one more closed loop of the same length.
const CLOSED_SHARE: f64 = 0.25;
/// Where each phase's session indices start: the phases ask disjoint
/// questions.
const OPEN_BASE: u64 = 1_000_000;
const TRACED_BASE: u64 = 2_000_000;
/// Fewest open-loop sessions. A p99 needs 1000 (ten samples beyond it);
/// half as many again steadies `cold_live`'s tail, which rests on a few
/// costly questions.
const MIN_OPEN_SESSIONS: usize = 1500;
/// `cold_live`'s simulated web-DB round trip: the live site's ~1.2 s per
/// query (paper Fig. 4) scaled down so a run fits in seconds.
const LIVE_LATENCY: Duration = Duration::from_millis(2);
const LIVE_JITTER: Duration = Duration::from_micros(400);

/// Open-loop offered rate (sessions per second) per workload: a quarter
/// to two fifths of the seed commit's closed-loop capacity with two
/// clients. At half capacity, queueing amplified the run-to-run noise
/// of a shared 2-core host into p99 swings of ±30%.
fn open_rate(w: Workload) -> f64 {
    match w {
        Workload::WarmHit => 100.0,
        Workload::ColdLive => 30.0,
        Workload::ReconStream => 90.0,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// The booted service.
struct Env {
    server: HttpServer,
    sources: Vec<Arc<Source>>,
    setup_s: f64,
    crawl: Option<(f64, f64)>,
}

impl Env {
    fn addr(&self) -> SocketAddr {
        self.server.addr()
    }
}

/// `cold_live`'s source: Blue Nile behind a 2 ms (± 0.4 ms) simulated
/// round trip, so every paid probe waits like a live site's.
fn cold_source(seed: u64, executor: ExecutorKind) -> Source {
    let db = Arc::new(bluenile_db(&DiamondsConfig {
        n: DIAMONDS,
        ..DiamondsConfig::default()
    }));
    Source::with_scheduler(
        "bluenile",
        "Blue Nile (diamonds, simulated, 2 ms per query)",
        db,
        SourcePolicy::unlimited().with_latency(LIVE_LATENCY, LIVE_JITTER, seed),
        SchedConfig::default(),
        executor,
        Arc::new(DenseIndex::in_memory()),
        vec![],
        Arc::new(AnswerCache::new(CacheConfig::default())),
        Arc::new(ReconIndex::ephemeral()),
    )
}

fn get_json(client: &mut Client, path: &str) -> Result<Json, String> {
    let resp = client
        .request("GET", path, None, None)
        .map_err(|e| format!("GET {path}: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path}: status {}", resp.status));
    }
    parse_json(&String::from_utf8_lossy(&resp.body)).map_err(|e| format!("GET {path}: {e:?}"))
}

/// Reconstruct Blue Nile completely; returns (seconds, paid queries).
fn crawl(client: &mut Client) -> Result<(f64, f64), String> {
    const PANEL: &str = "/v1/sources/bluenile/recon";
    let start = Instant::now();
    let resp = client
        .request("POST", PANEL, Some(b"{}"), None)
        .map_err(|e| format!("POST {PANEL}: {e}"))?;
    if resp.status != 202 {
        return Err(format!("POST {PANEL}: status {}", resp.status));
    }
    loop {
        let v = get_json(client, PANEL)?;
        let recon = v.get("recon").ok_or("recon panel lacks 'recon'")?;
        let job = recon
            .get("job")
            .and_then(|j| j.get("state"))
            .and_then(Json::as_str);
        match (recon.get("state").and_then(Json::as_str), job) {
            (Some("complete"), Some("complete")) => {
                let spent = recon
                    .get("budget_spent")
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                return Ok((start.elapsed().as_secs_f64(), spent));
            }
            (_, Some("running")) | (_, None) => {}
            (state, job) => return Err(format!("crawl ended: state {state:?}, job {job:?}")),
        }
        if start.elapsed() > Duration::from_secs(120) {
            return Err("crawl did not complete within 120 s".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Set-up: build the registry, boot (which verifies the caches), check
/// the service answers, then warm it. `warm_hit` asks every popular
/// question once; `cold_live` asks a fixed set of other questions, so
/// lazy indexes, the tie region and thread pools are built before
/// timing; `recon_stream` reconstructs Blue Nile.
fn boot(gen: &Generator, seed: u64) -> Result<Env, String> {
    let w = gen.workload();
    let start = Instant::now();
    let executor = ExecutorKind::Parallel { fanout: FANOUT };
    let registry = match w {
        Workload::WarmHit | Workload::ReconStream => {
            SourceRegistry::demo(DIAMONDS, HOMES, executor)
        }
        Workload::ColdLive => {
            let mut reg = SourceRegistry::new();
            reg.register(cold_source(seed, executor));
            reg
        }
    };
    let app = Qr2App::new(registry);
    let sources = app.state().registry.all().to_vec();
    let server = app
        .serve("127.0.0.1:0", WORKERS)
        .map_err(|e| format!("serve: {e}"))?;
    let mut client = Client::new(server.addr(), REQUEST_TIMEOUT);
    get_json(&mut client, "/v1/sources")?;
    let warm_up = match w {
        Workload::WarmHit => gen::popular_questions(),
        Workload::ColdLive => gen::cold_warmup(),
        Workload::ReconStream => Vec::new(),
    };
    for (i, q) in warm_up.iter().enumerate() {
        let o = session::run(&mut client, w, i as u64, q, Instant::now(), None);
        if let Some(e) = o.error {
            return Err(format!("warm-up: {e}"));
        }
    }
    let crawled = match w {
        Workload::ReconStream => Some(crawl(&mut client)?),
        Workload::WarmHit | Workload::ColdLive => None,
    };
    Ok(Env {
        server,
        sources,
        setup_s: start.elapsed().as_secs_f64(),
        crawl: crawled,
    })
}

/// Counters read from the sources' public panels and the obs registry.
#[derive(Debug, Clone, Default)]
struct Panels {
    lookups: f64,
    free: f64,
    evictions: f64,
    dispatched: f64,
    coalesced: f64,
    ledger: f64,
    /// `qr2_sched_queue_delay_us` bucket upper bound → samples.
    queue_delay: BTreeMap<u64, u64>,
}

fn panels(sources: &[Arc<Source>]) -> Panels {
    let mut p = Panels::default();
    for s in sources {
        let c = s.cache.stats();
        p.lookups += (c.hits + c.misses + c.coalesced) as f64;
        p.free += (c.hits + c.coalesced) as f64;
        p.evictions += c.evictions as f64;
        let sched = s.sched.stats();
        p.dispatched += sched.dispatched as f64;
        p.coalesced += sched.coalesced_frontier_hits as f64;
        p.ledger += s.db.ledger().total() as f64;
    }
    for fam in qr2_obs::global().snapshot() {
        if fam.name != "qr2_sched_queue_delay_us" {
            continue;
        }
        for m in fam.metrics {
            if let qr2_obs::MetricValue::Histogram { buckets, .. } = m.value {
                let mut below = 0;
                for (upper, cumulative) in buckets {
                    *p.queue_delay.entry(upper).or_default() += cumulative - below;
                    below = cumulative;
                }
            }
        }
    }
    p
}

/// p99 of the queue-delay samples recorded between two panel reads
/// (bucket upper bound, µs; 0 when nothing queued).
fn queue_delay_p99_us(before: &Panels, after: &Panels) -> f64 {
    let delta: Vec<(u64, u64)> = after
        .queue_delay
        .iter()
        .map(|(ub, n)| (*ub, n - before.queue_delay.get(ub).copied().unwrap_or(0)))
        .collect();
    let total: u64 = delta.iter().map(|(_, n)| n).sum();
    let rank = (total as f64 * 0.99).ceil() as u64;
    let mut seen = 0;
    for (ub, n) in delta {
        seen += n;
        if seen >= rank.max(1) {
            return ub as f64;
        }
    }
    0.0
}

/// How a phase schedules sessions.
enum Plan {
    /// Back-to-back sessions until the duration has passed.
    Closed(Duration),
    /// Sessions due at these offsets from the phase start.
    Open(Vec<Duration>),
}

/// One phase's raw results.
struct Phase {
    outcomes: Vec<Outcome>,
    wall: Duration,
    /// CPU seconds the service took: the process's CPU time over the
    /// phase less the client threads' own.
    server_cpu_s: f64,
    /// CPU seconds the client threads took.
    client_cpu_s: f64,
    connects: u64,
    body_bytes: u64,
    /// Send time − due time, ms (open loop).
    late_ms: Vec<f64>,
    requests: Vec<(Route, Breakdown)>,
    missing_traces: u64,
    before: Panels,
    after: Panels,
}

impl Phase {
    fn ok(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error.is_none()).count()
    }

    /// Completed sessions per second of client busy time, summed over
    /// clients: traced and untraced phases compare on equal terms.
    fn busy_rate(&self) -> f64 {
        let busy: f64 = self.outcomes.iter().map(|o| o.busy.as_secs_f64()).sum();
        ratio(self.ok() as f64 * CLIENTS as f64, busy)
    }
}

fn drive(env: &Env, gen: &Generator, base: u64, plan: &Plan, traced: bool) -> Phase {
    let next = AtomicU64::new(0);
    let before = panels(&env.sources);
    let cpu0 = stats::process_cpu_s();
    let start = Instant::now() + Duration::from_millis(5);
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let next = &next;
                scope.spawn(move || {
                    let mut client = Client::new(env.addr(), REQUEST_TIMEOUT);
                    let mut tracer = traced.then(|| Tracer::new(format!("lb-{base}-{c}")));
                    let mut outcomes = Vec::new();
                    let mut late_ms = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let index = base + k;
                        let q = gen.question(index);
                        let origin = match plan {
                            Plan::Closed(d) => {
                                if start.elapsed() >= *d {
                                    break;
                                }
                                Instant::now()
                            }
                            Plan::Open(due) => {
                                let Some(offset) = usize::try_from(k).ok().and_then(|k| due.get(k))
                                else {
                                    break;
                                };
                                let due = start + *offset;
                                let now = Instant::now();
                                if due > now {
                                    std::thread::sleep(due - now);
                                }
                                late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                                due
                            }
                        };
                        outcomes.push(session::run(
                            &mut client,
                            gen.workload(),
                            index,
                            &q,
                            origin,
                            tracer.as_mut(),
                        ));
                    }
                    (
                        outcomes,
                        late_ms,
                        client.connects,
                        client.body_bytes,
                        tracer,
                        stats::thread_cpu_s(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let process_cpu_s = stats::process_cpu_s() - cpu0;
    let client_cpu_s: f64 = per_client.iter().map(|c| c.5).sum();
    let mut phase = Phase {
        outcomes: Vec::new(),
        wall,
        server_cpu_s: (process_cpu_s - client_cpu_s).max(0.0),
        client_cpu_s,
        connects: 0,
        body_bytes: 0,
        late_ms: Vec::new(),
        requests: Vec::new(),
        missing_traces: 0,
        before,
        after: panels(&env.sources),
    };
    for (outcomes, late, connects, bytes, tracer, _) in per_client {
        phase.outcomes.extend(outcomes);
        phase.late_ms.extend(late);
        phase.connects += connects;
        phase.body_bytes += bytes;
        if let Some(t) = tracer {
            phase.requests.extend(t.requests);
            phase.missing_traces += t.missing;
        }
    }
    phase
}

/// Check every successful session's tuples against the oracle; returns
/// the number of mismatches and reports the first few on stderr.
fn check_answers(env: &Env, gen: &Generator, phases: &[&Phase]) -> usize {
    let mut tables: HashMap<&str, Table> = HashMap::new();
    let mut memo: HashMap<String, Vec<u32>> = HashMap::new();
    let depth = gen.workload().depth();
    let mut mismatches = 0;
    for o in phases
        .iter()
        .flat_map(|p| &p.outcomes)
        .filter(|o| o.error.is_none())
    {
        let q = gen.question(o.index);
        let source = env
            .sources
            .iter()
            .find(|s| s.name == q.source)
            .expect("questions name registered sources");
        let table = tables.entry(q.source).or_insert_with(|| match q.source {
            "zillow" => zillow_table(&HomesConfig {
                n: HOMES,
                ..HomesConfig::default()
            }),
            _ => bluenile_table(&DiamondsConfig {
                n: DIAMONDS,
                ..DiamondsConfig::default()
            }),
        });
        let want = memo.entry(q.create_body()).or_insert_with(|| {
            oracle::expected_ids(table, source.reranker.normalizer(), &q, depth)
        });
        if o.ids != *want {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!(
                    "oracle mismatch on session {}: {}\n  got  {:?}\n  want {:?}",
                    o.index,
                    q.create_body(),
                    o.ids,
                    want
                );
            }
        }
    }
    mismatches
}

/// A run's verdict over its sessions.
#[derive(Debug, PartialEq, Eq)]
struct Tally {
    attempted: usize,
    failed: usize,
    correct: bool,
}

impl Tally {
    /// A session fails when it erred (a non-2xx status, a deadline, a
    /// framing error, a degraded page, a stream that did not end
    /// `complete`) or when its answer mismatched the oracle. The oracle
    /// checks only sessions without an error, so the two never overlap.
    /// Any failure makes the run incorrect.
    fn of(outcomes: &[&Outcome], mismatches: usize) -> Tally {
        let failed = outcomes.iter().filter(|o| o.error.is_some()).count() + mismatches;
        Tally {
            attempted: outcomes.len(),
            failed,
            correct: failed == 0,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Latencies (ms), failed sessions at the deadline, sorted.
fn latencies_ms<'a>(
    outcomes: impl Iterator<Item = &'a Outcome>,
    pick: impl Fn(&Outcome) -> Duration,
) -> Vec<f64> {
    let v: Vec<f64> = outcomes
        .map(|o| match o.error {
            None => pick(o).as_secs_f64() * 1e3,
            Some(_) => REQUEST_TIMEOUT.as_secs_f64() * 1e3,
        })
        .collect();
    sorted(&v)
}

fn p(sorted: &[f64], q: f64, what: &str) -> Result<f64, String> {
    percentile(sorted, q).ok_or_else(|| {
        format!(
            "{what}: {} samples cannot support p{}; raise --seconds",
            sorted.len(),
            q * 100.0
        )
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(
    setup_s: f64,
    peak_rss: f64,
    closed: &Phase,
    open: &Phase,
    failed: usize,
    attempted: usize,
) -> Result<Metrics, String> {
    let ok = closed.ok() as f64;
    let first = latencies_ms(open.outcomes.iter(), |o| o.first_page);
    let whole = latencies_ms(open.outcomes.iter(), |o| o.latency);
    let sessions = (closed.outcomes.len() + open.outcomes.len()) as f64;
    Ok(vec![
        ("setup_s", setup_s, "s"),
        (
            "sessions_per_s",
            ratio(ok, closed.wall.as_secs_f64()),
            "sessions/s",
        ),
        (
            "cpu_ms_per_session",
            ratio(closed.server_cpu_s * 1e3, ok),
            "ms/session",
        ),
        ("first_page_p50_ms", p(&first, 0.50, "first_page")?, "ms"),
        ("first_page_p99_ms", p(&first, 0.99, "first_page")?, "ms"),
        ("session_p50_ms", p(&whole, 0.50, "session")?, "ms"),
        ("session_p99_ms", p(&whole, 0.99, "session")?, "ms"),
        (
            "bytes_per_session",
            ratio((closed.body_bytes + open.body_bytes) as f64, sessions),
            "bytes/session",
        ),
        (
            "ok_frac",
            1.0 - ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        ("peak_rss_mb", peak_rss, "MiB"),
    ])
}

/// `crawl` is the reconstruction's (median seconds over the set-ups,
/// paid queries), on `recon_stream` only.
fn per_layer(
    crawl: Option<(f64, f64)>,
    closed: &Phase,
    open: &Phase,
    t: &Phase,
) -> Result<Metrics, String> {
    let n = t.outcomes.len() as f64;
    let (b, a) = (&t.before, &t.after);
    let reqs = &t.requests;
    let sum = |f: &dyn Fn(&Breakdown) -> f64| reqs.iter().map(|(_, b)| f(b)).sum::<f64>();
    let stage = |name: &str| {
        let i = stage_index(name);
        sum(&|b| b.stage_self_us[i])
    };
    let route_mean = |r: Route| {
        let of_route: Vec<f64> = reqs
            .iter()
            .filter(|(route, _)| *route == r)
            .map(|(_, b)| b.total_us)
            .collect();
        ratio(of_route.iter().sum(), of_route.len() as f64)
    };
    let ok: Vec<&Outcome> = t.outcomes.iter().filter(|o| o.error.is_none()).collect();
    let queries: usize = ok.iter().map(|o| o.stats.queries).sum();
    let parallel: usize = ok.iter().map(|o| o.stats.parallel_queries).sum();
    let rounds: usize = ok.iter().map(|o| o.stats.rounds).sum();
    let recon_served = ok
        .iter()
        .filter(|o| o.stats.recon_hits > 0 && o.stats.queries == 0)
        .count();
    let ledger = a.ledger - b.ledger;
    let (crawl_s, crawl_queries) = crawl.unwrap_or((0.0, 0.0));
    Ok(vec![
        (
            "http.connects_per_session",
            ratio(t.connects as f64, n),
            "count/session",
        ),
        (
            "http.io_us_per_request",
            ratio(sum(&|b| b.io_us), reqs.len() as f64),
            "us/request",
        ),
        ("service.create_us", route_mean(Route::Create), "us/request"),
        ("service.next_us", route_mean(Route::Next), "us/request"),
        ("service.stream_us", route_mean(Route::Stream), "us/request"),
        (
            "service.stream_page_us_per_session",
            ratio(stage("stream.page"), n),
            "us/session",
        ),
        (
            "core.self_us_per_session",
            ratio(sum(&|b| b.core_us), n),
            "us/session",
        ),
        (
            "core.rounds_per_session",
            ratio(rounds as f64, ok.len() as f64),
            "rounds/session",
        ),
        (
            "core.parallel_fraction",
            ratio(parallel as f64, queries as f64),
            "ratio",
        ),
        (
            "cache.lookups_per_session",
            ratio(a.lookups - b.lookups, n),
            "lookups/session",
        ),
        (
            "cache.hit_ratio",
            ratio(a.free - b.free, a.lookups - b.lookups),
            "ratio",
        ),
        (
            "cache.evictions_per_session",
            ratio(a.evictions - b.evictions, n),
            "count/session",
        ),
        (
            "cache.lookup_self_us_per_session",
            ratio(stage("cache.lookup"), n),
            "us/session",
        ),
        (
            "sched.queue_self_us_per_session",
            ratio(stage("sched.queue"), n),
            "us/session",
        ),
        ("sched.queue_delay_p99_us", queue_delay_p99_us(b, a), "us"),
        (
            "sched.dispatched_per_session",
            ratio(a.dispatched - b.dispatched, n),
            "probes/session",
        ),
        (
            "sched.coalesced_per_session",
            ratio(a.coalesced - b.coalesced, n),
            "probes/session",
        ),
        (
            "webdb.resilient_self_us_per_session",
            ratio(stage("resilient.search"), n),
            "us/session",
        ),
        (
            "webdb.shape_self_us_per_session",
            ratio(stage("traffic.shape"), n),
            "us/session",
        ),
        (
            "webdb.search_us_per_query",
            ratio(sum(&|b| b.webdb_search_sum_us), ledger),
            "us/query",
        ),
        (
            "webdb.paid_queries_per_session",
            ratio(ledger, n),
            "queries/session",
        ),
        (
            "recon.serve_us_per_session",
            ratio(stage("recon.serve"), n),
            "us/session",
        ),
        ("recon.served_frac", ratio(recon_served as f64, n), "ratio"),
        ("recon.crawl_s", crawl_s, "s"),
        ("recon.crawl_queries", crawl_queries, "queries"),
        (
            "trace.unattributed_frac",
            ratio(sum(&|b| b.unattributed_us.abs()), sum(&|b| b.wall_us)),
            "ratio",
        ),
        (
            "obs.trace_overhead",
            ratio(t.busy_rate(), closed.busy_rate()),
            "ratio",
        ),
        (
            "loadgen.late_p99_ms",
            p(&sorted(&open.late_ms), 0.99, "lateness")?,
            "ms",
        ),
    ])
}

fn render(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &Metrics,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        fields.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }
    Ok(format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        fields.join(",")
    ))
}

fn run(args: &Args) -> Result<(String, bool), String> {
    let w = args.workload;
    let gen = Generator::new(w, args.seed);
    let closed_for = Duration::from_secs_f64(args.seconds * CLOSED_SHARE);
    let open_n = ((open_rate(w) * args.seconds * (1.0 - CLOSED_SHARE)).round() as usize)
        .max(MIN_OPEN_SESSIONS);

    let env = boot(&gen, args.seed)?;
    let mut setups = vec![env.setup_s];
    let mut crawls: Vec<f64> = env.crawl.iter().map(|(secs, _)| *secs).collect();
    let closed = drive(&env, &gen, 0, &Plan::Closed(closed_for), false);
    let open = drive(
        &env,
        &gen,
        OPEN_BASE,
        &Plan::Open(gen::arrivals(open_n, open_rate(w))),
        false,
    );
    let traced = args
        .trace
        .then(|| drive(&env, &gen, TRACED_BASE, &Plan::Closed(closed_for), true));
    let peak_rss = stats::peak_rss_mb();

    let mut phases = vec![&closed, &open];
    phases.extend(traced.as_ref());
    let mismatches = check_answers(&env, &gen, &phases);
    let outcomes: Vec<&Outcome> = phases.iter().flat_map(|p| &p.outcomes).collect();
    let tally = Tally::of(&outcomes, mismatches);
    let errors: Vec<&String> = outcomes.iter().filter_map(|o| o.error.as_ref()).collect();
    for e in errors.iter().take(3) {
        eprintln!("failed session: {e}");
    }
    let crawl_queries = env.crawl.map(|(_, queries)| queries);
    env.server.stop();
    for _ in 1..SETUPS {
        let e = boot(&gen, args.seed)?;
        setups.push(e.setup_s);
        crawls.extend(e.crawl.map(|(secs, _)| secs));
        e.server.stop();
    }
    let setup_s = median(&setups);
    let crawl = crawl_queries.map(|queries| (median(&crawls), queries));

    let untraced_sessions = (closed.outcomes.len() + open.outcomes.len()) as f64;
    let paid =
        (closed.after.ledger - closed.before.ledger) + (open.after.ledger - open.before.ledger);
    eprintln!(
        "{}: seed {}, set-ups {:.3?} s, closed {} sessions in {:.2} s, open {} at {}/s, {} failed, {} oracle mismatches",
        w.name(),
        args.seed,
        setups,
        closed.outcomes.len(),
        closed.wall.as_secs_f64(),
        open.outcomes.len(),
        open_rate(w),
        errors.len(),
        mismatches
    );
    eprintln!(
        "  paid_queries_per_session {:.3} queries/session  failed_frac {:.5} ratio  loadgen late p99 {:?} ms",
        ratio(paid, untraced_sessions),
        ratio(tally.failed as f64, tally.attempted as f64),
        percentile(&sorted(&open.late_ms), 0.99),
    );
    eprintln!(
        "  closed-loop CPU: service {:.3} s, clients {:.3} s ({:.1}% of the process's)",
        closed.server_cpu_s,
        closed.client_cpu_s,
        100.0
            * ratio(
                closed.client_cpu_s,
                closed.server_cpu_s + closed.client_cpu_s
            )
    );

    let metrics = match &traced {
        None => end_to_end(
            setup_s,
            peak_rss,
            &closed,
            &open,
            tally.failed,
            tally.attempted,
        )?,
        Some(t) => {
            if t.missing_traces > 0 {
                eprintln!(
                    "  {} traced requests had no trace in the ring",
                    t.missing_traces
                );
            }
            per_layer(crawl, &closed, &open, t)?
        }
    };
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<38} {value:>14.4} {unit}");
    }
    let line = render(tally.correct, tally.attempted, tally.failed, &metrics)?;
    Ok((line, tally.correct))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: qr2-loadbench --workload warm_hit|cold_live|recon_stream \
                 --seed N --seconds S --trace 0|1\n\
                 (seed {} is held out for validating performance claims)",
                gen::HELD_OUT_SEED
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpListener;

    /// Answer one request per connection with each canned response in
    /// turn, closing the connection after it.
    fn canned(responses: Vec<String>) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for resp in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let mut r = BufReader::new(stream.try_clone().unwrap());
                let mut length = 0;
                loop {
                    let mut line = String::new();
                    r.read_line(&mut line).unwrap();
                    if line == "\r\n" {
                        break;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        length = v.trim().parse().unwrap();
                    }
                }
                r.read_exact(&mut vec![0; length]).unwrap();
                stream.write_all(resp.as_bytes()).unwrap();
            }
        });
        (addr, server)
    }

    #[test]
    fn a_degraded_page_fails_the_run() {
        let page = r#"{"query_id":"s1","degraded":true,"done":false,"results":[{"id":7}],"stats":{"queries":0,"rounds":0,"parallel_queries":0,"recon_hits":1}}"#;
        let (addr, server) = canned(vec![
            format!(
                "HTTP/1.1 201 Created\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{page}",
                page.len()
            ),
            "HTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n".to_string(),
        ]);
        let gen = Generator::new(Workload::ColdLive, 1);
        let mut client = Client::new(addr, Duration::from_secs(5));
        let q = gen.question(0);
        let o = session::run(&mut client, Workload::ColdLive, 0, &q, Instant::now(), None);
        server.join().unwrap();
        assert!(
            o.error.as_deref().is_some_and(|e| e.contains("degraded")),
            "{:?}",
            o.error
        );
        assert_eq!(client.connects, 2, "the session still deletes its query");
        assert_eq!(
            Tally::of(&[&o], 0),
            Tally {
                attempted: 1,
                failed: 1,
                correct: false
            }
        );
    }

    #[test]
    fn any_failure_makes_the_run_incorrect() {
        let fine = Outcome {
            index: 0,
            error: None,
            ids: vec![1, 2],
            stats: session::PageStats::default(),
            first_page: Duration::ZERO,
            latency: Duration::ZERO,
            busy: Duration::ZERO,
        };
        let mut failed = fine.clone();
        failed.error = Some("GET /v1/queries/s1/next: status 500".into());
        assert!(Tally::of(&[&fine, &fine], 0).correct);
        assert_eq!(
            Tally::of(&[&fine, &fine], 1),
            Tally {
                attempted: 2,
                failed: 1,
                correct: false
            }
        );
        assert_eq!(
            Tally::of(&[&fine, &failed], 0),
            Tally {
                attempted: 2,
                failed: 1,
                correct: false
            }
        );
    }
}
