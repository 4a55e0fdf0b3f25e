//! The incremental crawler — Algorithm 5.1 / Figure 11 made concrete,
//! deterministic, and instrumented — as one core both incremental engines
//! share, and the single-threaded engine that drives it.
//!
//! The engine is a discrete-event loop over *fetch slots*: a steady crawler
//! with budget `crawl_rate_per_day` performs one fetch every
//! `1/crawl_rate_per_day` days, continuously (§4's steady mode — low peak
//! load). Each slot:
//!
//! 1. runs the RankingModule and the UpdateModule's global reallocation if
//!    their period elapsed (the periodic, off-hot-path refinement of §5.3),
//! 2. pops the head of `CollUrls` (the most urgent URL),
//! 3. crawls it, updates the Collection / AllUrls, estimates its change
//!    rate, and pushes it back with its next due time.
//!
//! Ground truth (`WebUniverse`) is used **only** by the metrics sampler;
//! every crawl decision flows from checksums and link observations, as in
//! a real deployment.
//!
//! The engine is driven through the [`CrawlEngine`] trait
//! ([`CrawlEngine::drive`] starts and continues runs); applications go
//! through the `CrawlSession` builder in `webevo-store`.

use crate::allurls::AllUrls;
use crate::collection::Collection;
use crate::engine::{
    check_drive_target, wal_tail, CrawlBudget, CrawlEngine, FetchSource, WalCursor,
};
use crate::hooks::{CrawlHook, FetchRecord, NoopHook};
use crate::metrics::CrawlMetrics;
use crate::modules::{
    CrawlModule, EstimatorKind, RankingConfig, RankingModule, RevisitStrategy, UpdateModule,
};
use crate::routing::{RoutedBatch, RoutedLink, RoutingState, ShardScope, WalEvent};
use crate::state::{
    entries_to_queue, queue_to_entries, CrawlerState, EngineClock, EngineConfig, EngineKind,
};
use crate::view::{BoundaryPages, ViewBoundary, ViewPublisher};
use serde::{Deserialize, Serialize};
use webevo_obs::{LogicalClock, ObsSink, SpanGuard, Stage};
use webevo_schedule::RevisitQueue;
use webevo_sim::{FetchError, Fetcher, FetcherState, WebUniverse};
use webevo_types::binio::{BinDecode, BinEncode, BinError, BinReader};
use webevo_types::{DenseSet, PageId, Url, WebEvoError};

/// Configuration of the incremental crawler.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IncrementalConfig {
    /// Collection capacity in pages (§5.2's fixed size).
    pub capacity: usize,
    /// Crawl budget in fetches per day (steady).
    pub crawl_rate_per_day: f64,
    /// Period of the RankingModule pass and the revisit reallocation.
    pub ranking_interval_days: f64,
    /// Revisit strategy (the §4.3 design axis).
    pub revisit: RevisitStrategy,
    /// Change-frequency estimator (§5.3).
    pub estimator: EstimatorKind,
    /// Observations retained per page history.
    pub history_window: usize,
    /// Metrics sampling period in days.
    pub sample_interval_days: f64,
    /// RankingModule tuning.
    pub ranking: RankingConfig,
}

impl IncrementalConfig {
    /// The paper's Table 2 budget (monthly revisit cycle, daily ranking),
    /// derived from [`CrawlBudget::paper_monthly`] — the one place that
    /// budget is defined.
    pub fn monthly(capacity: usize) -> IncrementalConfig {
        CrawlBudget::paper_monthly(capacity).incremental_config()
    }
}

impl BinEncode for IncrementalConfig {
    fn bin_encode(&self, out: &mut Vec<u8>) {
        self.capacity.bin_encode(out);
        self.crawl_rate_per_day.bin_encode(out);
        self.ranking_interval_days.bin_encode(out);
        self.revisit.bin_encode(out);
        self.estimator.bin_encode(out);
        self.history_window.bin_encode(out);
        self.sample_interval_days.bin_encode(out);
        self.ranking.bin_encode(out);
    }
}

impl BinDecode for IncrementalConfig {
    fn bin_decode(r: &mut BinReader<'_>) -> Result<IncrementalConfig, BinError> {
        Ok(IncrementalConfig {
            capacity: usize::bin_decode(r)?,
            crawl_rate_per_day: f64::bin_decode(r)?,
            ranking_interval_days: f64::bin_decode(r)?,
            revisit: crate::modules::RevisitStrategy::bin_decode(r)?,
            estimator: crate::modules::EstimatorKind::bin_decode(r)?,
            history_window: usize::bin_decode(r)?,
            sample_interval_days: f64::bin_decode(r)?,
            ranking: crate::modules::RankingConfig::bin_decode(r)?,
        })
    }
}

/// The Figure 12 state and the per-fetch algorithm both incremental
/// engines run. [`IncrementalCrawler`] drives it one fetch slot at a time
/// with a synchronous RankingModule; [`crate::ThreadedCrawler`] drives it
/// in seq-ordered batches from a worker pool, with the RankingModule on
/// its own thread. Everything the two share lives here once, so a fix to
/// the incremental algorithm lands in both engines.
pub(crate) struct IncrementalCore {
    pub(crate) config: IncrementalConfig,
    pub(crate) collection: Collection,
    pub(crate) all_urls: AllUrls,
    /// `CollUrls`; `queued` is its membership set.
    queue: RevisitQueue,
    queued: DenseSet,
    /// Pages the RankingModule proposed for admission; the eviction they
    /// pay for happens only when their crawl *succeeds* (Algorithm 5.1
    /// discards at crawl time, steps [7]-[9] — evicting at proposal time
    /// would leak slots whenever a candidate turns out dead).
    admissions: DenseSet,
    update: UpdateModule,
    crawl: CrawlModule,
    pub(crate) metrics: CrawlMetrics,
    run_start: f64,
    /// Discrete-event clock; lives on the struct (not the run loop) so a
    /// checkpoint can freeze it and a resumed engine continues mid-run.
    pub(crate) clock: EngineClock,
    /// Seed URLs injected (guards against double seeding on resume).
    pub(crate) seeded: bool,
    /// Fetch attempts issued; pairs with [`FetchRecord::seq`]. Routed
    /// batches consume numbers from the same counter, so the WAL is one
    /// totally-ordered event stream.
    pub(crate) fetch_seq: u64,
    /// Cross-shard routing: scope, outbox of foreign discoveries, and the
    /// applied-exchange counter. Inert (default) when unsharded.
    pub(crate) routing: RoutingState,
    /// Observability sink. Write-only and deliberately absent from
    /// [`CrawlerState`]: spans and counters describe the run, they never
    /// steer it, so a traced run stays byte-identical to an untraced one.
    pub(crate) obs: ObsSink,
    /// Serving-view publisher, fired at every pass boundary. Write-only
    /// and absent from [`CrawlerState`] for the same reason as `obs`: a
    /// served run stays byte-identical to an unserved one.
    pub(crate) publisher: Option<Box<dyn ViewPublisher>>,
}

impl IncrementalCore {
    /// A fresh core. Panics unless the crawl rate, ranking interval, and
    /// sample interval are all positive — the one place every incremental
    /// engine's configuration is checked.
    pub(crate) fn new(config: IncrementalConfig) -> IncrementalCore {
        assert!(config.crawl_rate_per_day > 0.0, "crawl rate must be positive");
        assert!(config.ranking_interval_days > 0.0, "ranking interval must be positive");
        assert!(config.sample_interval_days > 0.0, "sample interval must be positive");
        let default_interval = config.capacity as f64 / config.crawl_rate_per_day;
        IncrementalCore {
            collection: Collection::new(config.capacity, config.history_window),
            all_urls: AllUrls::new(),
            queue: RevisitQueue::new(),
            queued: DenseSet::new(),
            admissions: DenseSet::new(),
            update: UpdateModule::new(config.revisit, config.estimator, default_interval),
            crawl: CrawlModule::new(),
            metrics: CrawlMetrics::default(),
            run_start: 0.0,
            clock: EngineClock { t: 0.0, next_ranking: 0.0, next_sample: 0.0 },
            seeded: false,
            fetch_seq: 0,
            routing: RoutingState::default(),
            obs: ObsSink::noop(),
            publisher: None,
            config,
        }
    }

    /// Rebuild the shared state from a checkpoint. The caller checks the
    /// engine kind and takes the engine-specific fields first.
    pub(crate) fn from_state(state: CrawlerState) -> Result<IncrementalCore, WebEvoError> {
        Ok(IncrementalCore {
            config: state.config.as_incremental()?.clone(),
            collection: state.collection,
            all_urls: state.all_urls,
            queue: entries_to_queue(&state.queue),
            queued: state.queued.into_iter().collect(),
            admissions: state.admissions.into_iter().collect(),
            update: state.update,
            crawl: state.crawl,
            metrics: state.metrics,
            run_start: state.run_start,
            clock: state.clock,
            seeded: state.seeded,
            fetch_seq: state.fetch_seq,
            routing: state.routing,
            obs: ObsSink::noop(),
            publisher: None,
        })
    }

    /// Capture the shared state, with the engine-specific fields supplied
    /// by the engine (fetcher state excluded; the checkpoint layer merges
    /// it in, since only the run loop can reach the fetcher).
    pub(crate) fn export_state(
        &self,
        engine: EngineKind,
        ranking_runs: u64,
        ranking_applied: u64,
        rank_pending: bool,
    ) -> CrawlerState {
        CrawlerState {
            engine,
            config: EngineConfig::Incremental(self.config.clone()),
            run_start: self.run_start,
            seeded: self.seeded,
            clock: self.clock,
            fetch_seq: self.fetch_seq,
            collection: self.collection.clone(),
            all_urls: self.all_urls.clone(),
            queue: queue_to_entries(&self.queue),
            queued: self.queued.to_vec(),
            admissions: self.admissions.to_vec(),
            update: self.update.clone(),
            ranking_runs,
            ranking_applied,
            rank_pending,
            crawl: self.crawl.clone(),
            periodic: None,
            metrics: self.metrics.clone(),
            fetcher: None,
            routing: self.routing.clone(),
        }
    }

    /// A span of `stage` stamped at `t` and the current sequence number.
    pub(crate) fn span(&self, stage: Stage, t: f64) -> SpanGuard {
        self.obs.span(stage, LogicalClock::new(t, self.fetch_seq))
    }

    fn enqueue(&mut self, url: Url, due: f64) {
        if self.queued.insert(url.page) {
            self.queue.push(url, due);
        }
    }

    fn enqueue_front(&mut self, url: Url) {
        if self.queued.insert(url.page) {
            self.queue.push_front(url);
        }
    }

    /// Check a drive target and open the drive, starting the run on a
    /// fresh engine. Returns the drive span.
    pub(crate) fn begin_drive(
        &mut self,
        universe: &WebUniverse,
        until: f64,
    ) -> Result<SpanGuard, WebEvoError> {
        check_drive_target(until, self.clock.t, self.seeded)?;
        if !self.seeded {
            self.begin_run(universe);
        }
        self.metrics.observe_speed(self.config.crawl_rate_per_day);
        Ok(self.span(Stage::Drive, self.clock.t))
    }

    /// Open a WAL replay and return the tail the snapshot does not cover.
    /// A day-0 snapshot means the run died before its first cadence
    /// snapshot: an empty log means nothing ever happened, and otherwise
    /// the log necessarily starts at seq 1, so the replay *is* the run from
    /// the top — start it exactly as a drive would.
    pub(crate) fn begin_replay<'e>(
        &mut self,
        universe: &WebUniverse,
        events: &'e [WalEvent],
    ) -> Result<&'e [WalEvent], WebEvoError> {
        if !self.seeded {
            if events.is_empty() {
                return Ok(events);
            }
            self.begin_run(universe);
        }
        wal_tail(events, self.fetch_seq)
    }

    /// Start the run at the frozen clock: anchor the periodic activities
    /// and inject the seed URLs (§1's "initial set of URLs, called seed
    /// URLs").
    fn begin_run(&mut self, universe: &WebUniverse) {
        let start = self.clock.t;
        self.run_start = start;
        self.clock = EngineClock {
            t: start,
            next_ranking: start + self.config.ranking_interval_days,
            next_sample: start,
        };
        for site in universe.sites() {
            // A scoped (fleet-shard) engine seeds only the sites it owns;
            // foreign sites are other shards' seeds.
            if self.routing.is_foreign(site.id) {
                continue;
            }
            if let Some(root) = universe.occupant(site.id, 0, start) {
                let url = Url::new(site.id, root);
                self.all_urls.discover(url, start);
                self.enqueue(url, start);
            }
        }
        self.seeded = true;
    }

    /// The exchange barrier the next routed batch closes: the
    /// ranking-cadence instant the fleet coordinator drives to.
    pub(crate) fn exchange_barrier(&self) -> f64 {
        (self.routing.exchanges + 1) as f64 * self.config.ranking_interval_days
    }

    /// Apply one routed-link delivery: the outbox the coordinator drained
    /// to build this exchange is cleared, each link enters `AllUrls` (and
    /// the frontier, collection permitting) exactly as a locally
    /// discovered link would, one sequence number is consumed, and the
    /// exchange counter advances. Shared by live injection and WAL
    /// replay, so a replayed shard is bit-identical to the live one.
    pub(crate) fn apply_routed(&mut self, batch: RoutedBatch) {
        self.routing.outbox.clear();
        self.fetch_seq = batch.seq;
        self.routing.exchanges += 1;
        let t = batch.t;
        for link in batch.links {
            let first_sighting = !self.all_urls.contains(link.url);
            self.all_urls.add_in_link(link.url, link.from, t);
            if !self.collection.is_full() && !self.collection.contains(link.url.page) {
                if first_sighting {
                    self.enqueue_front(link.url);
                } else {
                    self.enqueue(link.url, t);
                }
            }
        }
    }

    /// Pop the head of `CollUrls` (the most urgent URL).
    pub(crate) fn next_visit(&mut self) -> Option<Url> {
        let visit = self.queue.pop()?;
        self.queued.remove(visit.url.page);
        Some(visit.url)
    }

    /// Apply one fetch outcome (Algorithm 5.1 steps [7]-[12]): update or
    /// admit the page, forward its links to `AllUrls`, and schedule its
    /// next visit — or handle the failure.
    pub(crate) fn apply_fetch(
        &mut self,
        universe: &WebUniverse,
        record: FetchRecord,
        hook: &mut dyn CrawlHook,
    ) {
        self.crawl.observe(record.result.is_err());
        if hook.active() {
            hook.on_fetch(&record);
        }
        let FetchRecord { seq, url, t, result } = record;
        match result {
            Ok(outcome) => {
                self.obs.add("fetch_ok_total", 1);
                self.metrics.record_fetch(true);
                if self.collection.contains(url.page) {
                    self.collection.update(url.page, outcome.checksum, outcome.links.clone(), t);
                } else {
                    let admitted = self.admissions.remove(url.page);
                    if self.collection.is_full() {
                        if !admitted {
                            // A stale growth-phase entry: the collection
                            // filled up since it was queued. Drop it; the
                            // RankingModule decides admissions now.
                            return;
                        }
                        // Algorithm 5.1 steps [7]-[8]: make room by
                        // discarding the least-important page, now that the
                        // replacement is in hand.
                        if let Some(victim) = self.collection.least_important() {
                            if let Some(stored) = self.collection.discard(victim) {
                                self.queue.remove(stored.url);
                                self.queued.remove(victim);
                                self.update.forget(victim);
                            }
                        }
                    }
                    self.collection.save(url, outcome.checksum, outcome.links.clone(), t);
                    let birth = universe.page(url.page).birth;
                    if birth >= self.run_start {
                        // Only pages born during the run measure "how fast
                        // do *new* pages reach users"; initial-fill pages
                        // would just measure the warm-up.
                        self.metrics.record_admission_latency(t - birth);
                        let found = self
                            .all_urls
                            .info(url)
                            .map(|i| i.discovered)
                            .unwrap_or(t);
                        self.metrics.record_discovery_latency(t - found);
                    }
                }
                // Forward discovered URLs to AllUrls (Algorithm 5.1 steps
                // [11]-[12]) with in-link evidence.
                for link in &outcome.links {
                    if self.routing.is_foreign(link.site) {
                        // Another shard owns this site: queue the sighting
                        // for the next fleet exchange instead of entering
                        // the local frontier. Every sighting is routed
                        // (no dedup), mirroring the per-sighting
                        // `add_in_link` evidence a single node collects.
                        self.routing.outbox.push(RoutedLink { seq, from: url.page, url: *link });
                        continue;
                    }
                    let first_sighting = !self.all_urls.contains(*link);
                    self.all_urls.add_in_link(*link, url.page, t);
                    // While the collection has room, brand-new URLs jump
                    // the queue (§5.3: the new page "is placed on the top
                    // of CollUrls, so that the UpdateModule can crawl the
                    // page immediately"). Once full, admission is the
                    // RankingModule's call.
                    if !self.collection.is_full() && !self.collection.contains(link.page) {
                        if first_sighting {
                            self.enqueue_front(*link);
                        } else {
                            self.enqueue(*link, t);
                        }
                    }
                }
                self.enqueue(url, self.update.next_due(url.page, t));
            }
            Err(FetchError::NotFound) => {
                self.obs.add("fetch_not_found_total", 1);
                self.metrics.record_fetch(false);
                self.all_urls.mark_dead(url, t);
                self.admissions.remove(url.page);
                if self.collection.discard(url.page).is_some() {
                    self.update.forget(url.page);
                }
                // The freed slot is refilled by the next ranking pass.
            }
            Err(FetchError::Transient) => {
                self.obs.add("fetch_transient_total", 1);
                self.metrics.record_fetch(false);
                // Retry with a small backoff.
                self.enqueue(url, t + 0.25);
            }
            Err(FetchError::RateLimited { retry_at }) => {
                self.obs.add("fetch_rate_limited_total", 1);
                self.enqueue(url, retry_at.max(t + 0.01));
            }
        }
    }

    /// Schedule a ranking pass's replacement proposals, then reallocate
    /// the revisit budget. A proposal only *schedules* its candidate (at
    /// the queue front, per §5.3); the matching eviction happens when the
    /// candidate's crawl succeeds, so dead candidates never cost a slot.
    /// A candidate already stored is skipped: a ranking computed on an
    /// older copy of the collection (the threaded engine's) may propose a
    /// page admitted since.
    pub(crate) fn admit_ranked(&mut self, replacements: Vec<(PageId, Url)>) {
        for (_victim, admit) in replacements {
            if self.collection.contains(admit.page) {
                continue;
            }
            self.admissions.insert(admit.page);
            self.enqueue_front(admit);
        }
        self.update.reallocate(&self.collection, self.config.crawl_rate_per_day);
    }

    /// Open the span of the pass boundary at `t`.
    pub(crate) fn pass_span(&self, t: f64) -> SpanGuard {
        let span = self.span(Stage::Pass, t);
        self.obs.gauge("queue_depth", self.queue.len() as f64);
        span
    }

    /// Finish the pass boundary at `t` after the engine's ranking step:
    /// advance the ranking clock *before* the hook (a snapshot must record
    /// this pass as done, or the restored engine would run the boundary
    /// twice), offer the hook a snapshot, and publish the serving view.
    /// `export` captures the engine's full state; it is lazy on purpose —
    /// most boundaries only flush the WAL, and no state should be captured
    /// unless a snapshot is actually due.
    pub(crate) fn close_pass(
        &mut self,
        t: f64,
        hook: &mut dyn CrawlHook,
        passes: u64,
        export: &mut dyn FnMut(&IncrementalCore) -> CrawlerState,
    ) {
        self.clock.next_ranking += self.config.ranking_interval_days;
        if hook.active() {
            let core = &*self;
            hook.on_pass_boundary(t, &mut || export(core));
        }
        if let Some(publisher) = self.publisher.as_mut() {
            let _swap = self.obs.span(Stage::ViewSwap, LogicalClock::new(t, self.fetch_seq));
            publisher.publish(ViewBoundary {
                t,
                fetch_seq: self.fetch_seq,
                passes,
                pages: BoundaryPages::Stored { collection: &self.collection, update: &self.update },
                metrics: &self.metrics,
            });
        }
    }

    /// Emit the grid samples due by slot time `t`. Samples sit at the grid
    /// instant, not the slot that crossed it: slot times depend on the
    /// crawl rate, and fleet shards run at ownership-apportioned rates yet
    /// must sample on one shared grid to merge (the periodic engine pins
    /// its grid the same way).
    pub(crate) fn sample_due(&mut self, universe: &WebUniverse, t: f64) {
        while self.clock.next_sample <= t {
            let ts = self.clock.next_sample;
            self.sample_metrics(universe, ts);
            self.clock.next_sample += self.config.sample_interval_days;
        }
    }

    /// Emit every pending grid sample up to `until`, then the closing
    /// sample at `until` itself (a no-op when `until` sits on the grid —
    /// [`CrawlMetrics::sample`] dedups the identical instant). Every
    /// drive boundary flushes through here, so the sampled instants are a
    /// pure function of the drive horizons and the sampling cadence —
    /// never of the crawl rate, whose slot times vary per fleet shard.
    pub(crate) fn flush_samples(&mut self, universe: &WebUniverse, until: f64) {
        self.sample_due(universe, until);
        self.sample_metrics(universe, until);
    }

    /// Evaluation-only: freshness and mean age of the collection against
    /// ground truth.
    fn sample_metrics(&mut self, universe: &WebUniverse, t: f64) {
        if self.collection.is_empty() {
            self.metrics.sample(t, 0.0, 0.0);
            return;
        }
        let mut fresh = 0usize;
        let mut age_sum = 0.0;
        let n = self.collection.len();
        for (p, stored) in self.collection.iter() {
            if universe.copy_is_fresh(p, stored.last_crawl, t) {
                fresh += 1;
            } else {
                let page = universe.page(p);
                let staled_at = universe
                    .first_change_after(p, stored.last_crawl)
                    .unwrap_or(page.death)
                    .min(page.death);
                age_sum += (t - staled_at).max(0.0);
            }
        }
        self.metrics.sample(t, fresh as f64 / n as f64, age_sum / n as f64);
    }

    /// [`CrawlEngine::set_scope`] for both incremental engines.
    pub(crate) fn set_scope(&mut self, scope: ShardScope) -> Result<(), WebEvoError> {
        if self.seeded {
            return Err(WebEvoError::InvalidState(
                "shard scope must be set before the run starts".into(),
            ));
        }
        self.routing.scope = Some(scope);
        Ok(())
    }

    /// [`CrawlEngine::inject_links`] for both incremental engines.
    pub(crate) fn inject_links(
        &mut self,
        links: Vec<RoutedLink>,
    ) -> Result<RoutedBatch, WebEvoError> {
        if !self.seeded {
            return Err(WebEvoError::InvalidState(
                "cannot inject routed links before the run starts".into(),
            ));
        }
        let batch = RoutedBatch { seq: self.fetch_seq + 1, t: self.clock.t, links };
        self.apply_routed(batch.clone());
        Ok(batch)
    }

    /// [`CrawlEngine::close_sample`] for both incremental engines.
    pub(crate) fn close_sample(&mut self, universe: &WebUniverse, t: f64) {
        if self.seeded {
            self.flush_samples(universe, t);
        }
    }
}

/// The incremental crawler (left-hand column of Figure 10): the shared
/// incremental core driven one fetch slot at a time, with the
/// RankingModule run synchronously at each pass boundary.
pub struct IncrementalCrawler {
    core: IncrementalCore,
    ranking: RankingModule,
}

impl IncrementalCrawler {
    /// Create a crawler. Panics unless the crawl rate, ranking interval,
    /// and sample interval are positive.
    pub fn new(config: IncrementalConfig) -> IncrementalCrawler {
        IncrementalCrawler {
            ranking: RankingModule::new(config.ranking.clone()),
            core: IncrementalCore::new(config),
        }
    }

    /// Rebuild an engine from a checkpointed state. Returns the engine and
    /// the fetcher state the caller must install into its fetcher (via
    /// e.g. `SimFetcher::restore_state`) before replaying or resuming.
    pub fn from_state(
        mut state: CrawlerState,
    ) -> Result<(IncrementalCrawler, Option<FetcherState>), WebEvoError> {
        if state.engine != EngineKind::Incremental {
            return Err(WebEvoError::InvalidState(format!(
                "state was written by the {} engine, not the incremental one",
                state.engine
            )));
        }
        let runs = state.ranking_runs;
        let fetcher = state.fetcher.take();
        let core = IncrementalCore::from_state(state)?;
        let ranking = RankingModule::with_runs(core.config.ranking.clone(), runs);
        Ok((IncrementalCrawler { core, ranking }, fetcher))
    }

    /// All discovered URLs (for inspection).
    pub fn all_urls(&self) -> &AllUrls {
        &self.core.all_urls
    }

    /// Ranking passes completed.
    pub fn ranking_runs(&self) -> u64 {
        self.ranking.runs()
    }

    /// The discrete-event loop over fetch slots, shared by live runs and
    /// WAL replay. Stops at `end`, or — for replay sources — at log
    /// exhaustion; the exhaustion check sits *before* the boundary
    /// handlers so a resumed run re-enters at exactly the point the
    /// interrupted one left.
    fn advance(
        &mut self,
        universe: &WebUniverse,
        source: &mut FetchSource<'_>,
        end: f64,
        hook: &mut dyn CrawlHook,
    ) {
        let step = 1.0 / self.core.config.crawl_rate_per_day;
        // The open fetch-batch span, lazily started at the first fetch
        // after a boundary and closed (dropped) at the next one — so the
        // trace alternates fetch_batch / pass under the drive span.
        let mut fetch_span: Option<SpanGuard> = None;
        while self.core.clock.t < end {
            // Routed batches re-inject before anything else: live
            // injection happens while the engine is frozen *between*
            // drives, i.e. before the boundary handlers of the slot the
            // clock froze on.
            if let Some(batch) = source.take_routed_at(self.core.fetch_seq + 1, self.core.clock.t) {
                // A routed record marks the end of a live drive call,
                // which closed by flushing samples through the exchange
                // barrier — the instant the coordinator drove to, which
                // the frozen clock has just overshot. Reconstruct that
                // flush (not a sample at the clock, which belongs to no
                // live row) so the replayed series matches the
                // interrupted one row for row.
                self.core.flush_samples(universe, self.core.exchange_barrier());
                self.core.apply_routed(batch);
                continue;
            }
            if source.exhausted() {
                break;
            }
            let t = self.core.clock.t;
            self.core.sample_due(universe, t);
            if t >= self.core.clock.next_ranking {
                fetch_span = None;
                let _pass = self.core.pass_span(t);
                let outcome = self.ranking.run(&mut self.core.collection, &self.core.all_urls);
                self.core.admit_ranked(outcome.replacements);
                let runs = self.ranking.runs();
                let source = &*source;
                self.core.close_pass(t, hook, runs, &mut |core| {
                    let mut state = core.export_state(EngineKind::Incremental, runs, 0, false);
                    state.fetcher = source.fetcher_state();
                    state
                });
            }
            let Some(url) = self.core.next_visit() else {
                // Nothing to crawl yet (collection empty and no
                // discoveries): burn the slot.
                self.core.clock.t += step;
                continue;
            };
            if self.core.routing.is_foreign(url.site) {
                // Residual foreign entry (only possible in a frontier
                // inherited from a pre-routing checkpoint): routed links,
                // not fetches, cross shard boundaries — drop it without
                // spending a fetch or touching the fetch accounting.
                self.core.clock.t += step;
                continue;
            }
            if self.core.obs.enabled() && fetch_span.is_none() {
                fetch_span = Some(self.core.span(Stage::FetchBatch, t));
            }
            self.core.fetch_seq += 1;
            let seq = self.core.fetch_seq;
            let result = source.fetch(seq, url, t);
            self.core.apply_fetch(universe, FetchRecord { seq, url, t, result }, hook);
            self.core.clock.t += step;
        }
    }
}

impl CrawlEngine for IncrementalCrawler {
    fn kind(&self) -> EngineKind {
        EngineKind::Incremental
    }

    fn started(&self) -> bool {
        self.core.seeded
    }

    fn clock(&self) -> EngineClock {
        self.core.clock
    }

    /// Advance to day `until`. The first call starts the run at day 0 and
    /// injects the seed URLs (§1's "initial set of URLs, called seed
    /// URLs"); later calls continue from the frozen clock — including
    /// after a checkpoint restore, where the continuation is
    /// bit-identical to a never-interrupted run (`tests/determinism.rs`).
    ///
    /// Each call closes with a metrics sample at `until`. When `until`
    /// sits on the sampling grid — as every fleet exchange barrier does —
    /// the closing sample collapses into the grid sample at the same
    /// instant (`CrawlMetrics::sample` dedups identical instants), so
    /// segmented drives, single long drives, and the checkpoint-recovery
    /// path (restore + replay + drive) all produce the same series; a
    /// continued in-memory run carries one extra row only at an off-grid
    /// intermediate horizon.
    fn drive(
        &mut self,
        universe: &WebUniverse,
        fetcher: &mut dyn Fetcher,
        hook: &mut dyn CrawlHook,
        until: f64,
    ) -> Result<&CrawlMetrics, WebEvoError> {
        let _drive = self.core.begin_drive(universe, until)?;
        self.advance(universe, &mut FetchSource::Live(fetcher), until, hook);
        self.core.flush_samples(universe, until);
        Ok(&self.core.metrics)
    }

    /// Re-apply the write-ahead-log tail after restoring a snapshot:
    /// records already covered by the snapshot (seq ≤ the restored
    /// `fetch_seq`) are skipped, the rest drive the normal slot loop with
    /// logged outcomes instead of live fetches. Afterwards the engine (and
    /// `fetcher`, advanced via [`Fetcher::observe_replay`]) sit at the
    /// exact state of the last flushed pass boundary; call
    /// [`CrawlEngine::drive`] to continue crawling for real.
    fn replay(
        &mut self,
        universe: &WebUniverse,
        fetcher: &mut dyn Fetcher,
        events: &[WalEvent],
    ) -> Result<(), WebEvoError> {
        let tail = self.core.begin_replay(universe, events)?;
        let mut source = FetchSource::Replay { log: WalCursor::new(tail), fetcher };
        // The log is finite and each non-idle slot consumes one record, so
        // the unbounded horizon is only ever reached by exhaustion.
        self.advance(universe, &mut source, f64::INFINITY, &mut NoopHook);
        Ok(())
    }

    fn export_state(&self) -> CrawlerState {
        self.core.export_state(EngineKind::Incremental, self.ranking.runs(), 0, false)
    }

    fn metrics(&self) -> &CrawlMetrics {
        &self.core.metrics
    }

    fn collection(&self) -> Option<&Collection> {
        Some(&self.core.collection)
    }

    fn collection_len(&self) -> usize {
        self.core.collection.len()
    }

    fn passes(&self) -> u64 {
        self.ranking.runs()
    }

    fn set_obs(&mut self, obs: ObsSink) {
        self.core.obs = obs;
    }

    fn set_view_publisher(&mut self, publisher: Box<dyn ViewPublisher>) {
        self.core.publisher = Some(publisher);
    }

    fn set_scope(&mut self, scope: ShardScope) -> Result<(), WebEvoError> {
        self.core.set_scope(scope)
    }

    fn routing(&self) -> &RoutingState {
        &self.core.routing
    }

    fn inject_links(&mut self, links: Vec<RoutedLink>) -> Result<RoutedBatch, WebEvoError> {
        self.core.inject_links(links)
    }

    fn close_sample(&mut self, universe: &WebUniverse, t: f64) {
        self.core.close_sample(universe, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::collection_quality;
    use webevo_sim::{SimFetcher, UniverseConfig, WebUniverse};

    fn universe() -> WebUniverse {
        WebUniverse::generate(UniverseConfig::test_scale(77))
    }

    fn config(capacity: usize) -> IncrementalConfig {
        IncrementalConfig {
            capacity,
            crawl_rate_per_day: capacity as f64 / 5.0, // 5-day cycles: fast tests
            ranking_interval_days: 2.0,
            revisit: RevisitStrategy::Uniform,
            estimator: EstimatorKind::Ep,
            history_window: 100,
            sample_interval_days: 1.0,
            ranking: RankingConfig::default(),
        }
    }

    fn run(crawler: &mut IncrementalCrawler, u: &WebUniverse, f: &mut SimFetcher, days: f64) {
        crawler.drive(u, f, &mut NoopHook, days).expect("drive succeeds");
    }

    #[test]
    fn fills_collection_and_stays_fresh() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = IncrementalCrawler::new(config(60));
        run(&mut crawler, &u, &mut fetcher, 60.0);
        assert!(
            crawler.collection_len() >= 55,
            "collection should fill: {}",
            crawler.collection_len()
        );
        let f = crawler.metrics().average_freshness_from(20.0);
        // Calibration: the analytic per-page ceiling for this universe's
        // rate mixture at a 5-day cycle is ~0.62; the engine also spends
        // budget on discovery and carries churned pages until ranking
        // evicts them, landing near 0.49 at this seed.
        assert!(f > 0.45, "steady-state freshness too low: {f}");
        assert!(crawler.ranking_runs() >= 20);
    }

    #[test]
    fn discovers_beyond_seeds() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = IncrementalCrawler::new(config(40));
        run(&mut crawler, &u, &mut fetcher, 30.0);
        assert!(
            crawler.all_urls().len() > u.site_count(),
            "link extraction should discover non-seed URLs"
        );
    }

    #[test]
    fn dead_pages_are_evicted_and_replaced() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = IncrementalCrawler::new(config(50));
        run(&mut crawler, &u, &mut fetcher, 100.0);
        // After 100 days of churn, every stored page must still be alive
        // recently (dead ones evicted on NotFound).
        let mut stale_dead = 0;
        for (p, stored) in crawler.collection().expect("incremental has one").iter() {
            if !u.alive(p, 100.0) && (100.0 - stored.last_crawl) > 10.0 {
                stale_dead += 1;
            }
        }
        assert!(
            stale_dead <= crawler.collection_len() / 5,
            "too many dead pages lingering: {stale_dead}"
        );
    }

    #[test]
    fn new_page_latency_is_recorded() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = IncrementalCrawler::new(config(50));
        run(&mut crawler, &u, &mut fetcher, 60.0);
        assert!(crawler.metrics().new_page_latency.count() > 10);
        assert!(crawler.metrics().new_page_latency.mean() >= 0.0);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let u = universe();
        let run_once = || {
            let mut fetcher = SimFetcher::new(&u);
            let mut crawler = IncrementalCrawler::new(config(40));
            run(&mut crawler, &u, &mut fetcher, 40.0);
            (
                crawler.collection_len(),
                crawler.metrics().fetches,
                crawler.metrics().freshness.values().to_vec(),
            )
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn survives_transient_failures() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u).with_failure_rate(0.2);
        let mut crawler = IncrementalCrawler::new(config(50));
        run(&mut crawler, &u, &mut fetcher, 60.0);
        assert!(crawler.metrics().failed_fetches > 0);
        assert!(
            crawler.collection_len() >= 40,
            "collection should still fill under failures: {}",
            crawler.collection_len()
        );
        let f = crawler.metrics().average_freshness_from(30.0);
        assert!(f > 0.4, "freshness under failures: {f}");
    }

    #[test]
    fn quality_is_meaningful() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut crawler = IncrementalCrawler::new(config(30));
        run(&mut crawler, &u, &mut fetcher, 60.0);
        let q = collection_quality(crawler.collection().expect("has one"), &u, 60.0);
        assert!(q > 0.2 && q <= 1.0 + 1e-9, "quality={q}");
    }

    #[test]
    fn optimal_strategy_runs_end_to_end() {
        let u = universe();
        let mut fetcher = SimFetcher::new(&u);
        let mut cfg = config(50);
        cfg.revisit = RevisitStrategy::Optimal;
        cfg.estimator = EstimatorKind::Eb;
        let mut crawler = IncrementalCrawler::new(cfg);
        run(&mut crawler, &u, &mut fetcher, 80.0);
        let f = crawler.metrics().average_freshness_from(40.0);
        assert!(f > 0.38, "optimal steady-state freshness: {f}");

        // The paper's §4.3 claim is comparative: the optimal allocation
        // must clearly beat the proportional trap under the same
        // (noisy, estimated) rates — absolute freshness depends on the
        // universe's rate mixture, which is heavy-tailed here.
        let mut prop_cfg = config(50);
        prop_cfg.revisit = RevisitStrategy::Proportional;
        prop_cfg.estimator = EstimatorKind::Eb;
        let mut prop_fetcher = SimFetcher::new(&u);
        let mut prop = IncrementalCrawler::new(prop_cfg);
        run(&mut prop, &u, &mut prop_fetcher, 80.0);
        let f_prop = prop.metrics().average_freshness_from(40.0);
        assert!(f > f_prop, "optimal {f} should beat proportional {f_prop}");
    }
}
