//! The open-loop query generator: one thread issuing a fixed mix of
//! `QueryService` calls at a fixed rate, as independent users would.
//!
//! Each query is timed from the instant it was due, so a query stuck
//! behind a slow one (a cold `top_k_pagerank`) counts its wait. Every
//! answer is checked against the same query on the view pinned just before
//! it, whenever no epoch swap landed in between.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webevo::prelude::{
    CollectionView, FreshnessStats, PageId, QueryService, SimRng, SiteRollup, ViewPage, WebUniverse,
};

/// Queries per second the generator sends: the total rate `repro serve`
/// requires its readers to sustain beside a crawl (its `QPS_FLOOR`).
pub const RATE_PER_S: f64 = 200.0;
/// A query answered later than this after its due time counts as late:
/// the longest `repro serve` lets an epoch swap hold a reader up (its
/// `STALL_P99_CEILING_US`).
pub const LIMIT_US: f64 = 100_000.0;
/// The generator sleeps until this long before a query is due and spins
/// the rest, so timer slack on wake-up does not count as latency.
const SPIN: Duration = Duration::from_micros(200);
/// `k` of both top-k queries.
pub const TOP_K: usize = 10;
/// RNG stream of the query sequence, apart from the universe's streams.
const QUERY_STREAM: u64 = 0x5175_6572_7931;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Lookup,
    LookupUrl,
    Freshness,
    SiteRollups,
    TopKChangeRate,
    TopKPageRank,
}

pub const KINDS: [Kind; 6] = [
    Kind::Lookup,
    Kind::LookupUrl,
    Kind::Freshness,
    Kind::SiteRollups,
    Kind::TopKChangeRate,
    Kind::TopKPageRank,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Lookup => "lookup",
            Kind::LookupUrl => "lookup_url",
            Kind::Freshness => "freshness",
            Kind::SiteRollups => "site_rollups",
            Kind::TopKChangeRate => "top_k_change_rate",
            Kind::TopKPageRank => "top_k_pagerank",
        }
    }

    /// Answered from a per-epoch memo: the first call on an epoch pays.
    pub fn memoized(self) -> bool {
        matches!(
            self,
            Kind::SiteRollups | Kind::TopKChangeRate | Kind::TopKPageRank
        )
    }

    /// The mix, per mille. Point lookups by id and by URL take equal
    /// shares of 96%. The four view-wide kinds take equal shares of the
    /// other 4%, as they take equal shares of `repro serve`'s reader mix.
    /// `perfbench/README.md` gives the reasons for 4% and how the query
    /// metrics move with it.
    fn draw(rng: &mut SimRng) -> Kind {
        match rng.index(1000) {
            0..=479 => Kind::Lookup,
            480..=959 => Kind::LookupUrl,
            960..=969 => Kind::Freshness,
            970..=979 => Kind::SiteRollups,
            980..=989 => Kind::TopKChangeRate,
            _ => Kind::TopKPageRank,
        }
    }
}

/// When the generator stops.
pub enum Until<'a> {
    /// When the crawl leg raises the flag.
    Flag(&'a AtomicBool),
    /// After a fixed time.
    Elapsed(Duration),
}

/// What one generator run saw.
#[derive(Debug, Default)]
pub struct QueryStats {
    pub attempted: u64,
    /// Answers that disagreed with the pinned view.
    pub wrong: u64,
    /// Queries that missed `LIMIT_US` or were wrong.
    pub late: u64,
    /// Latency from due time, µs.
    pub latency_us: Vec<f64>,
    /// How late the generator sent each query, µs.
    pub lag_us: Vec<f64>,
    /// Service time per kind (index as in `KINDS`), µs.
    pub service_us: [Vec<f64>; 6],
    /// Service time of the first call per epoch, memoized kinds only, µs.
    pub cold_us: [Vec<f64>; 6],
}

enum Answer {
    Page(Option<ViewPage>),
    Freshness(FreshnessStats),
    Rollups(Vec<SiteRollup>),
    TopK(Vec<(PageId, f64)>),
}

/// Send queries at `RATE_PER_S` until `until`. The sequence of kinds and
/// pages is a function of `seed` alone.
pub fn run(
    service: &QueryService,
    universe: &WebUniverse,
    seed: u64,
    until: Until<'_>,
) -> QueryStats {
    let mut rng = SimRng::seed_from_u64(seed).fork(QUERY_STREAM);
    let period = Duration::from_secs_f64(1.0 / RATE_PER_S);
    let mut stats = QueryStats::default();
    let mut last_epoch = [u64::MAX; 6];
    let start = Instant::now();
    let stopped = || match &until {
        Until::Flag(flag) => flag.load(Ordering::Relaxed),
        Until::Elapsed(limit) => start.elapsed() >= *limit,
    };
    for i in 0u32.. {
        let kind = Kind::draw(&mut rng);
        let page = PageId(rng.index(universe.page_count()) as u64);
        let due = start + period * i;
        if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
            std::thread::sleep(wait);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        if stopped() {
            break;
        }
        let sent = Instant::now();
        let pinned = service.view();
        let answer = ask(service, kind, page, universe);
        let done = Instant::now();
        let unswapped = Arc::ptr_eq(&pinned, &service.view());
        let ok = !unswapped || agrees(&answer, &pinned, kind, page, universe);

        let k = kind as usize;
        let service_us = (done - sent).as_secs_f64() * 1e6;
        stats.service_us[k].push(service_us);
        if kind.memoized() && last_epoch[k] != pinned.epoch() && unswapped {
            last_epoch[k] = pinned.epoch();
            stats.cold_us[k].push(service_us);
        }
        let latency_us = (done - due).as_secs_f64() * 1e6;
        stats.attempted += 1;
        stats.wrong += u64::from(!ok);
        stats.late += u64::from(!ok || latency_us > LIMIT_US);
        stats.latency_us.push(latency_us);
        stats.lag_us.push((sent - due).as_secs_f64() * 1e6);
    }
    stats
}

fn ask(service: &QueryService, kind: Kind, page: PageId, universe: &WebUniverse) -> Answer {
    match kind {
        Kind::Lookup => Answer::Page(service.lookup(page)),
        Kind::LookupUrl => Answer::Page(service.lookup_url(universe.url_of(page))),
        Kind::Freshness => Answer::Freshness(service.freshness()),
        Kind::SiteRollups => Answer::Rollups(service.site_rollups()),
        Kind::TopKChangeRate => Answer::TopK(service.top_k_change_rate(TOP_K)),
        Kind::TopKPageRank => Answer::TopK(service.top_k_pagerank(TOP_K)),
    }
}

/// Whether `answer` is what `view` — the epoch the service answered
/// from — says. `top_k_pagerank` is checked for shape instead of
/// recomputed: recomputing it would cost as much as the query itself and
/// delay every query due behind it.
fn agrees(
    answer: &Answer,
    view: &CollectionView,
    kind: Kind,
    page: PageId,
    universe: &WebUniverse,
) -> bool {
    match (answer, kind) {
        (Answer::Page(got), Kind::Lookup) => same_page(got.as_ref(), view.get(page)),
        (Answer::Page(got), Kind::LookupUrl) => {
            same_page(got.as_ref(), view.lookup_url(universe.url_of(page)))
        }
        (Answer::Freshness(got), Kind::Freshness) => *got == view.freshness(),
        (Answer::Rollups(got), Kind::SiteRollups) => same_rollups(got, view.site_rollups()),
        (Answer::TopK(got), Kind::TopKChangeRate) => *got == view.top_k_change_rate(TOP_K),
        (Answer::TopK(got), Kind::TopKPageRank) => {
            let ranked = view.pages().iter().filter(|p| p.site.is_some()).count();
            got.len() == TOP_K.min(ranked)
                && got
                    .windows(2)
                    .all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0))
                && got
                    .iter()
                    .all(|(id, score)| score.is_finite() && view.get(*id).is_some())
        }
        _ => false,
    }
}

/// Whether two rollup lists agree field by field (`SiteRollup` has no
/// `PartialEq`).
pub fn same_rollups(a: &[SiteRollup], b: &[SiteRollup]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(a, b)| {
            a.site == b.site
                && a.pages == b.pages
                && a.copy_age == b.copy_age
                && a.change_rate == b.change_rate
                && a.importance == b.importance
        })
}

fn same_page(a: Option<&ViewPage>, b: Option<&ViewPage>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.page == b.page
                && a.site == b.site
                && a.checksum == b.checksum
                && a.last_crawl.to_bits() == b.last_crawl.to_bits()
                && a.crawl_count == b.crawl_count
                && a.links == b.links
                && a.change_rate.to_bits() == b.change_rate.to_bits()
                && a.importance.to_bits() == b.importance.to_bits()
        }
        _ => false,
    }
}
