//! Seeded request generator.
//!
//! Every request the benchmark sends is a pure function of
//! `(workload, seed, session index)`, so the same seed produces the same
//! request bytes whichever client thread happens to run a session. The
//! service sees only these requests; nothing here reads program state.

use std::time::Duration;

/// The seed held out for validating later performance claims: tune and
/// develop on other seeds, then confirm a claimed gain on this one.
pub const HELD_OUT_SEED: u64 = 9001;

/// SplitMix64, which seeds the quasi-random offsets: small, fast, and
/// fully specified, so the generated requests do not depend on any
/// library's RNG algorithm.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// An independent stream for item `index` of stream `stream` under
    /// `seed`.
    fn derive(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.0 =
            r.0.wrapping_add(r.next_u64() ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB));
        r
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmHit,
    ColdLive,
    ReconStream,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::WarmHit, Workload::ColdLive, Workload::ReconStream];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmHit => "warm_hit",
            Workload::ColdLive => "cold_live",
            Workload::ReconStream => "recon_stream",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Tuples a session asks for: the 10-row first page plus its
    /// follow-up reads.
    pub fn depth(self) -> usize {
        match self {
            Workload::WarmHit | Workload::ColdLive => PAGE_SIZE * (1 + NEXT_PAGES),
            Workload::ReconStream => PAGE_SIZE + STREAM_LIMIT,
        }
    }
}

/// Page size every session is created with.
pub const PAGE_SIZE: usize = 10;
/// `next` calls per session on `warm_hit` and `cold_live`.
pub const NEXT_PAGES: usize = 2;
/// `stream?limit=` on `recon_stream`.
pub const STREAM_LIMIT: usize = 50;

/// A closed numeric range predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Filter {
    pub attr: &'static str,
    pub min: f64,
    pub max: f64,
}

/// A ranking preference: `ORDER BY attr` or a weighted linear function.
#[derive(Debug, Clone, PartialEq)]
pub enum Ranking {
    OneDim { attr: &'static str, asc: bool },
    Md(Vec<(&'static str, f64)>),
}

/// One user question: source, conjunctive filter, ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct Question {
    pub source: &'static str,
    pub filters: Vec<Filter>,
    pub ranking: Ranking,
}

impl Question {
    /// The `POST /v1/sources/{source}/queries` body.
    pub fn create_body(&self) -> String {
        let filters: Vec<String> = self
            .filters
            .iter()
            .map(|f| format!(r#"{{"attr":"{}","min":{},"max":{}}}"#, f.attr, f.min, f.max))
            .collect();
        let ranking = match &self.ranking {
            Ranking::OneDim { attr, asc } => format!(
                r#"{{"type":"1d","attr":"{attr}","dir":"{}"}}"#,
                if *asc { "asc" } else { "desc" }
            ),
            Ranking::Md(weights) => {
                let w: Vec<String> = weights
                    .iter()
                    .map(|(a, w)| format!(r#""{a}":{w}"#))
                    .collect();
                format!(r#"{{"type":"md","weights":{{{}}}}}"#, w.join(","))
            }
        };
        format!(
            r#"{{"filters":[{}],"ranking":{ranking},"algorithm":"auto","page_size":{PAGE_SIZE}}}"#,
            filters.join(",")
        )
    }
}

/// The demo registry's four `popular_functions` (two per source).
const POPULAR: [(&str, &[(&str, f64)]); 4] = [
    (
        "bluenile",
        &[("price", 1.0), ("carat", -0.1), ("depth", -0.5)],
    ),
    ("bluenile", &[("price", 1.0), ("carat", -0.5)]),
    ("zillow", &[("price", 1.0), ("sqft", 1.0)]),
    ("zillow", &[("price", 1.0), ("sqft", -0.3)]),
];

/// The fixed handful of filters popular questions combine with, per
/// source: none, one band on each of two attributes, and both.
fn popular_filters(source: &str) -> Vec<Vec<Filter>> {
    let band = |attr, min, max| Filter { attr, min, max };
    let (a, b) = match source {
        "bluenile" => (band("price", 1000.0, 20000.0), band("carat", 0.8, 3.0)),
        _ => (
            band("price", 100000.0, 600000.0),
            band("sqft", 1000.0, 2500.0),
        ),
    };
    vec![vec![], vec![a.clone()], vec![b.clone()], vec![a, b]]
}

/// `warm_hit`'s question set: every popular function × every filter.
pub fn popular_questions() -> Vec<Question> {
    POPULAR
        .iter()
        .flat_map(|(source, weights)| {
            popular_filters(source)
                .into_iter()
                .map(move |filters| Question {
                    source,
                    filters,
                    ranking: Ranking::Md(weights.to_vec()),
                })
        })
        .collect()
}

/// Numeric Blue Nile attributes a random ranking draws from.
const BLUENILE_NUMERIC: [&str; 5] = ["price", "carat", "depth", "table", "lw_ratio"];

/// Quasi-random draws: coordinate `j` of item `i` is
/// `frac(offset_j + i·α_j)` — a Kronecker (Weyl) sequence with steps
/// the golden ratio and square roots of primes, rotated by seeded
/// offsets. Any run of consecutive items covers each coordinate almost
/// evenly, so every phase asks nearly the same mix of question shapes
/// whatever the seed, while each seed still asks different questions.
/// Rare expensive shapes (a 2D ranking pulling against the site's own
/// order, say) then appear at a steady rate instead of a random one.
/// Fixed-point arithmetic keeps the fractions exact for any index.
#[derive(Debug, Clone)]
struct Strata {
    offsets: [u64; DIMS],
    steps: [u64; DIMS],
}

/// Coordinates a question uses: its shape (which also sets the filter's
/// size), five weight magnitudes, and where the two bands start.
const DIMS: usize = 8;
const SHAPE: usize = 0;
const MAGNITUDE: usize = 1;
const FILTER: usize = 6;

impl Strata {
    fn new(seed: u64) -> Strata {
        const PRIMES: [f64; DIMS - 1] = [2.0, 3.0, 7.0, 11.0, 13.0, 17.0, 19.0];
        let mut offsets = [0; DIMS];
        let mut steps = [0; DIMS];
        for j in 0..DIMS {
            offsets[j] = Rng::derive(seed, STRATA_STREAM, j as u64).next_u64();
            let alpha = match j {
                0 => (5f64.sqrt() - 1.0) / 2.0,
                _ => PRIMES[j - 1].sqrt().fract(),
            };
            // α_j as a 64-bit binary fraction.
            steps[j] = (alpha * 18_446_744_073_709_551_616.0) as u64;
        }
        Strata { offsets, steps }
    }

    /// Coordinate `j` of item `i`, in `[0, 1)`.
    fn unit(&self, i: u64, j: usize) -> f64 {
        let x = self.offsets[j].wrapping_add(i.wrapping_mul(self.steps[j]));
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `u` in `[0, 1)` as a choice in `0..n`, and the position within that
/// choice's stratum, rescaled to `[0, 1)`.
fn split(u: f64, n: usize) -> (usize, f64) {
    let x = u * n as f64;
    let k = (x as usize).min(n - 1);
    (k, x - k as f64)
}

/// Blue Nile's (carat, price) pairs sorted by carat then price: the
/// generator sizes filter bands by how many stones they hold, so a
/// question's size does not depend on where in the catalogue it looks.
/// Built from the same generator the simulated site uses.
fn diamond_index() -> Vec<(f64, f64)> {
    let table = qr2_datagen::bluenile_table(&qr2_datagen::DiamondsConfig {
        n: DIAMONDS,
        ..qr2_datagen::DiamondsConfig::default()
    });
    let (carat, price) = (
        table.schema().expect_id("carat"),
        table.schema().expect_id("price"),
    );
    let mut rows: Vec<(f64, f64)> = (0..table.len())
        .map(|r| (table.num(r, carat), table.num(r, price)))
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    rows
}

/// Diamonds in the simulated Blue Nile catalogue.
pub const DIAMONDS: usize = 20_000;

/// Shares of the catalogue a question's filter covers: from 0.3% (60
/// stones) to 15% (3000 stones), skewed so most questions are narrow.
const MIN_SHARE: f64 = 0.003;
const MAX_SHARE: f64 = 0.15;

/// The question of item `i`: a random price × carat range over Blue
/// Nile and a random ranking — a quarter 1D, the rest MD over 2–5
/// numeric attributes with random signs.
///
/// One coordinate picks the ranking's shape hierarchically (1D or MD;
/// attribute and direction, or width, attribute subset and signs), so
/// each shape's share is near exact in every window. Where it falls
/// inside the picked shape's stratum sets the filter's size, so within
/// every shape the sizes are spread evenly too. The carat band holds a
/// `√share` slice of the catalogue starting at a random quantile; the
/// price band keeps a `√share` slice of those stones, again at a random
/// quantile.
fn random_question(st: &Strata, i: u64, diamonds: &[(f64, f64)]) -> Question {
    let u = |j| st.unit(i, j);
    let n = BLUENILE_NUMERIC.len();
    let shape = u(SHAPE);
    let (ranking, size) = if shape < 0.25 {
        let (choice, size) = split(shape / 0.25, 2 * n);
        (
            Ranking::OneDim {
                attr: BLUENILE_NUMERIC[choice / 2],
                asc: choice % 2 == 0,
            },
            size,
        )
    } else {
        let (k, rest) = split((shape - 0.25) / 0.75, n - 1);
        let k = k + 2;
        let subsets: Vec<u32> = (0u32..1 << n)
            .filter(|m| m.count_ones() as usize == k)
            .collect();
        let (choice, size) = split(rest, subsets.len() << k);
        let (subset, signs) = (subsets[choice >> k], choice & ((1 << k) - 1));
        let weights = (0..n)
            .filter(|a| subset & (1 << a) != 0)
            .enumerate()
            .map(|(slot, a)| {
                let (tenths, _) = split(u(MAGNITUDE + slot), 10);
                let sign = if signs & (1 << slot) == 0 { 1.0 } else { -1.0 };
                (BLUENILE_NUMERIC[a], sign * (1 + tenths) as f64 / 10.0)
            })
            .collect();
        (Ranking::Md(weights), size)
    };
    let slice = (MIN_SHARE * (MAX_SHARE / MIN_SHARE).powf(size * size)).sqrt();
    let m = diamonds.len();
    let span = ((slice * m as f64) as usize).clamp(1, m);
    let first = ((u(FILTER) * (m - span + 1) as f64) as usize).min(m - span);
    let (carat_lo, carat_hi) = (diamonds[first].0, diamonds[first + span - 1].0);
    let mut prices: Vec<f64> = diamonds
        .iter()
        .filter(|(c, _)| carat_lo <= *c && *c <= carat_hi)
        .map(|(_, p)| *p)
        .collect();
    prices.sort_by(f64::total_cmp);
    let keep = ((slice * prices.len() as f64).ceil() as usize).clamp(1, prices.len());
    let from =
        ((u(FILTER + 1) * (prices.len() - keep + 1) as f64) as usize).min(prices.len() - keep);
    let filters = vec![
        Filter {
            attr: "price",
            min: prices[from],
            max: prices[from + keep - 1],
        },
        Filter {
            attr: "carat",
            min: carat_lo,
            max: carat_hi,
        },
    ];
    Question {
        source: "bluenile",
        filters,
        ranking,
    }
}

/// Stream ids for [`Rng::derive`].
const STRATA_STREAM: u64 = 1;

/// The request generator of one run.
#[derive(Debug, Clone)]
pub struct Generator {
    workload: Workload,
    strata: Strata,
    popular: Vec<Question>,
    diamonds: Vec<(f64, f64)>,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let diamonds = match workload {
            Workload::WarmHit => Vec::new(),
            Workload::ColdLive | Workload::ReconStream => diamond_index(),
        };
        Generator {
            workload,
            strata: Strata::new(seed),
            popular: popular_questions(),
            diamonds,
        }
    }

    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The question session `index` asks. `cold_live` and
    /// `recon_stream` draw from the same sequence, so one seed asks both
    /// the same questions.
    pub fn question(&self, index: u64) -> Question {
        match self.workload {
            Workload::WarmHit => {
                self.popular[split(self.strata.unit(index, SHAPE), self.popular.len()).0].clone()
            }
            Workload::ColdLive | Workload::ReconStream => {
                random_question(&self.strata, index, &self.diamonds)
            }
        }
    }
}

/// `cold_live`'s warm-up questions: the first 48 of a fixed seed, which
/// ask every 1D ranking at least once. The first `lw_ratio asc` question
/// of a boot pays 630 queries for the tie mass at `lw_ratio = 1.00`;
/// later ones reuse the shared dense index. Asking it in set-up keeps
/// that one-time cost out of the timed phases, the same for every seed.
pub fn cold_warmup() -> Vec<Question> {
    let fixed = Generator::new(Workload::ColdLive, 0);
    (0..48).map(|i| fixed.question(i)).collect()
}

/// Open-loop due times: `n` sessions evenly spaced at `rate` per second,
/// as offsets from the phase start. Even spacing keeps seeded arrival
/// bursts out of the tail latency, which then reflects the service.
pub fn arrivals(n: usize, rate: f64) -> Vec<Duration> {
    (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(g: &Generator, n: u64) -> Vec<String> {
        (0..n).map(|i| g.question(i).create_body()).collect()
    }

    #[test]
    fn same_seed_same_request_bytes() {
        for w in Workload::ALL {
            let a = Generator::new(w, 42);
            let b = Generator::new(w, 42);
            assert_eq!(bytes(&a, 300), bytes(&b, 300), "{}", w.name());
        }
    }

    #[test]
    fn other_seed_other_request_bytes() {
        let a = Generator::new(Workload::ColdLive, 1);
        let b = Generator::new(Workload::ColdLive, 2);
        assert_ne!(bytes(&a, 50), bytes(&b, 50));
    }

    #[test]
    fn cold_and_recon_ask_the_same_questions() {
        let cold = Generator::new(Workload::ColdLive, 7);
        let recon = Generator::new(Workload::ReconStream, 7);
        assert_eq!(bytes(&cold, 100), bytes(&recon, 100));
    }

    #[test]
    fn warm_hit_draws_only_popular_questions() {
        let g = Generator::new(Workload::WarmHit, 3);
        let set = popular_questions();
        assert_eq!(set.len(), 16);
        for i in 0..200 {
            assert!(set.contains(&g.question(i)));
        }
    }

    #[test]
    fn cold_questions_are_well_formed() {
        let g = Generator::new(Workload::ColdLive, 11);
        for i in 0..2000 {
            let q = g.question(i);
            for f in &q.filters {
                assert!(f.min <= f.max, "{f:?}");
            }
            if let Ranking::Md(w) = &q.ranking {
                assert!((2..=5).contains(&w.len()));
                assert!(w.iter().all(|(_, x)| x.abs() >= 0.1 && x.abs() <= 1.0));
            }
        }
    }

    #[test]
    fn cold_warmup_asks_every_1d_ranking() {
        let mut shapes: Vec<(&str, bool)> = cold_warmup()
            .into_iter()
            .filter_map(|q| match q.ranking {
                Ranking::OneDim { attr, asc } => Some((attr, asc)),
                Ranking::Md(_) => None,
            })
            .collect();
        shapes.sort();
        shapes.dedup();
        assert_eq!(shapes.len(), 2 * BLUENILE_NUMERIC.len(), "{shapes:?}");
    }

    #[test]
    fn arrivals_are_evenly_spaced() {
        let a = arrivals(1000, 50.0);
        assert_eq!(a[0], Duration::ZERO);
        assert!((a[999].as_secs_f64() - 19.98).abs() < 1e-9);
    }

    #[test]
    fn every_window_asks_a_steady_mix() {
        // The share of 1D questions and of each MD width k stays within
        // 2 points of its target in every 500-session window, for any
        // seed.
        for seed in [1, 2, 3, 99] {
            let g = Generator::new(Workload::ColdLive, seed);
            for start in [0u64, 1_000_000, 123_457] {
                let mut one_d = 0;
                let mut by_k = [0usize; 6];
                for i in start..start + 500 {
                    match g.question(i).ranking {
                        Ranking::OneDim { .. } => one_d += 1,
                        Ranking::Md(w) => by_k[w.len()] += 1,
                    }
                }
                assert!(
                    (115..=135).contains(&one_d),
                    "seed {seed}: {one_d} 1D of 500"
                );
                for (k, n) in by_k.iter().enumerate().skip(2) {
                    assert!((84..=104).contains(n), "seed {seed}: {n} of width {k}");
                }
            }
        }
    }
}
