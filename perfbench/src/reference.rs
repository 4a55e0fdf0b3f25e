//! The final-epoch reference check. Once the crawl leg is over and no
//! epoch can land any more, every kind of view answer the service gives is
//! compared with a reference built apart from the serving layer:
//!
//! * lookups, page by page, with the simulated web (the checksum and
//!   out-links a page had when it was last crawled) and, for a single
//!   session, with the engine's exported state;
//! * site rollups with the benchmark's own fold over the view's pages;
//! * top-k by change rate with a full sort of every page's rate;
//! * top-k by PageRank with a full sort of scores solved afresh by
//!   `webevo::graph::pagerank` over the view's link graph.
//!
//! The in-flight checks in `queries.rs` compare each answer with the view
//! pinned beside it; this one checks that view and the memos behind it.

use crate::queries::{same_rollups, TOP_K};
use std::collections::BTreeMap;
use webevo::prelude::{
    pagerank, CollectionView, CrawlerState, PageGraph, PageId, PageRankConfig, QueryService,
    SiteId, SiteRollup, Summary, ViewPage, WebUniverse,
};

/// Outcome of the check: one attempted operation per query kind.
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
}

/// Check the service's final view. `state` is the engine's state at the
/// end of the crawl leg (single sessions); the fleet's engines stay inside
/// `FleetSession`, so its lookups are checked against the universe only.
pub fn check_final(
    service: &QueryService,
    universe: &WebUniverse,
    state: Option<&CrawlerState>,
) -> Checked {
    let view = service.view();
    let agree = |ok: bool| if ok { Ok(()) } else { Err(String::new()) };
    let checks = [
        ("lookup", lookups_agree(service, &view, universe, state)),
        (
            "site_rollups",
            agree(same_rollups(&service.site_rollups(), &rollups(&view))),
        ),
        (
            "top_k_change_rate",
            agree(service.top_k_change_rate(TOP_K) == top_k_change_rate(&view)),
        ),
        (
            "top_k_pagerank",
            agree(service.top_k_pagerank(TOP_K) == top_k_pagerank(&view)),
        ),
    ];
    let mut failed = 0;
    for (kind, outcome) in &checks {
        if let Err(why) = outcome {
            eprintln!(
                "[perfbench] final epoch {}: {kind} disagrees with the reference{why}",
                view.epoch()
            );
            failed += 1;
        }
    }
    Checked {
        attempted: checks.len() as u64,
        failed,
    }
}

/// Whether every page of the view is served as the simulated web and the
/// engine state say, and the engine state's pages last crawled before the
/// view's day are all served. Fails if fewer than half the view's pages
/// could be compared with the engine state.
fn lookups_agree(
    service: &QueryService,
    view: &CollectionView,
    universe: &WebUniverse,
    state: Option<&CrawlerState>,
) -> Result<(), String> {
    let day = view.day();
    let mut compared = 0usize;
    for id in view.pages().iter().map(|p| p.page) {
        let got = service
            .lookup(id)
            .ok_or_else(|| format!(": page {} is not served", id.0))?;
        let url = universe.url_of(id);
        let stored_view = got.site.is_some();
        let web_ok = got.page == id
            && got.last_crawl <= day
            && got.site.is_none_or(|site| site == url.site)
            && got.checksum == universe.checksum_at(id, got.last_crawl)
            && (!stored_view || got.links == universe.out_links(id, got.last_crawl));
        if !web_ok {
            return Err(format!(": page {} differs from the simulated web", id.0));
        }
        match state.map(|s| engine_agrees(s, &got)) {
            Some(Some(false)) => {
                return Err(format!(": page {} differs from the engine state", id.0))
            }
            Some(Some(true)) => compared += 1,
            _ => {}
        }
    }
    let Some(state) = state else {
        if view.is_empty() {
            return Err(": the view is empty".into());
        }
        return Ok(());
    };
    // Pages the engine holds, last crawled before the view's boundary,
    // were in the collection there and must be served. (A fetch slot may
    // fall on the boundary's day just after it.)
    let missing = match &state.periodic {
        Some(periodic) => periodic.current.len() != view.len(),
        None => state
            .collection
            .iter()
            .any(|(id, s)| s.last_crawl < day && service.lookup(id).is_none()),
    };
    if missing {
        return Err(": the engine state holds pages the view lacks".into());
    }
    if compared * 2 < view.len() {
        return Err(format!(
            ": only {compared} of {} pages compared with the engine state",
            view.len()
        ));
    }
    Ok(())
}

/// `Some(agrees)` when the engine state still holds the page as it was at
/// the view's boundary, `None` when the page was crawled again or evicted
/// since.
fn engine_agrees(state: &CrawlerState, got: &ViewPage) -> Option<bool> {
    if let Some(periodic) = &state.periodic {
        // The periodic view is the user-visible window, which changes only
        // at a shadow swap, and every swap publishes.
        return Some(periodic.current.get(got.page).is_some_and(|p| {
            p.checksum == got.checksum && p.crawl_time.to_bits() == got.last_crawl.to_bits()
        }));
    }
    let stored = state.collection.get(got.page)?;
    if stored.last_crawl > got.last_crawl {
        return None;
    }
    Some(
        stored.last_crawl.to_bits() == got.last_crawl.to_bits()
            && got.site == Some(stored.url.site)
            && stored.checksum == got.checksum
            && stored.crawl_count == got.crawl_count
            && stored.links == got.links
            && stored.importance.to_bits() == got.importance.to_bits()
            && state.update.estimated_rate(stored).0.to_bits() == got.change_rate.to_bits(),
    )
}

fn rollups(view: &CollectionView) -> Vec<SiteRollup> {
    let mut by_site: BTreeMap<SiteId, SiteRollup> = BTreeMap::new();
    for p in view.pages() {
        let Some(site) = p.site else { continue };
        let rollup = by_site.entry(site).or_insert(SiteRollup {
            site,
            pages: 0,
            copy_age: Summary::default(),
            change_rate: Summary::default(),
            importance: Summary::default(),
        });
        rollup.pages += 1;
        rollup.copy_age.record((view.day() - p.last_crawl).max(0.0));
        rollup.change_rate.record(p.change_rate);
        rollup.importance.record(p.importance);
    }
    by_site.into_values().collect()
}

/// The first `TOP_K` of `scores` by descending score, ties by ascending id.
fn top_k(mut scores: Vec<(PageId, f64)>) -> Vec<(PageId, f64)> {
    scores.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    scores.truncate(TOP_K);
    scores
}

fn top_k_change_rate(view: &CollectionView) -> Vec<(PageId, f64)> {
    top_k(
        view.pages()
            .iter()
            .map(|p| (p.page, p.change_rate))
            .collect(),
    )
}

/// PageRank over the links whose both ends are pages of the view with a
/// site; an unsolvable graph ranks nothing, as the view's own memo does.
fn top_k_pagerank(view: &CollectionView) -> Vec<(PageId, f64)> {
    let mut graph = PageGraph::new();
    let ranked = || view.pages().iter().filter_map(|p| Some((p, p.site?)));
    for (p, site) in ranked() {
        graph.add_page(p.page, site);
    }
    for (p, _) in ranked() {
        for link in &p.links {
            if graph.contains(link.page) {
                graph.add_link(p.page, link.page);
            }
        }
    }
    match pagerank(&graph, &PageRankConfig::paper_1999()) {
        Ok(scores) => top_k(scores.iter().collect()),
        Err(_) => Vec::new(),
    }
}
