//! The Figure 12 architecture with real concurrency — and deterministic
//! replay.
//!
//! §5.3: *"multiple CrawlModules may run in parallel"* and *"separating the
//! update decision (UpdateModule) from the refinement decision
//! (RankingModule) is crucial for performance … the crawler cannot
//! recompute the importance of pages for every page crawled."*
//!
//! The threaded engine is a dispatch strategy over the same
//! `IncrementalCore` the single-threaded engine drives: the Figure 12
//! state, the per-fetch algorithm, sampling, routing, and checkpoint
//! export all live there once. What this module adds is only how slots
//! are fetched and how ranking is scheduled:
//!
//! * **A worker pool.** N CrawlModule workers fetch concurrently behind
//!   crossbeam channels. Fetch slots are dispatched in batches of at most
//!   `workers`, each job tagged with its slot sequence number;
//!   completions are collected for the whole batch and applied in `seq`
//!   order, so the interleaving of state updates does not depend on
//!   thread timing. Workers still fetch concurrently — only the
//!   *application* order is pinned.
//! * **A ranking thread.** The RankingModule runs on its own thread
//!   against collection snapshots, so the crawl hot path never waits for
//!   PageRank. A request is issued at each pass boundary and its response
//!   applied at the *next* boundary (one full interval of overlap), not
//!   whenever the thread happens to finish — so its effect on the crawl
//!   schedule is replayable.
//!
//! Live drives and WAL replay run the **same** batch-slot loop: a
//! `BatchSource` either dispatches to the workers or consumes and
//! cross-checks logged records, and a `RankPipe` either uses the
//! ranking thread or ranks inline. Determinism is what makes the engine
//! *checkpointable*: a [`CrawlerState`] snapshot plus the write-ahead-log
//! tail reconstructs the pre-crash engine bit-for-bit
//! (`tests/determinism.rs` pins this).
//!
//! Simulated time advances with the fetch budget exactly as in the
//! single-threaded engine (one slot per fetch), so results are comparable.

use crate::allurls::AllUrls;
use crate::collection::Collection;
use crate::engine::{CrawlEngine, WalCursor};
use crate::hooks::{CrawlHook, FetchRecord, NoopHook};
use crate::incremental::{IncrementalConfig, IncrementalCore};
use crate::metrics::CrawlMetrics;
use crate::modules::RankingModule;
use crate::routing::{RoutedBatch, RoutedLink, RoutingState, ShardScope, WalEvent};
use crate::state::{CrawlerState, EngineClock, EngineKind};
use crate::view::ViewPublisher;
use crossbeam::channel::{self, Receiver, Sender};
use webevo_obs::{ObsSink, SpanGuard, Stage};
use webevo_sim::{Fetcher, Politeness, SimFetcher, WebUniverse};
use webevo_types::{PageId, Url, WebEvoError};

/// A ranking request: snapshots of the state the RankingModule scans.
struct RankRequest {
    collection: Collection,
    all_urls: AllUrls,
}

impl RankRequest {
    fn of(core: &IncrementalCore) -> RankRequest {
        RankRequest { collection: core.collection.clone(), all_urls: core.all_urls.clone() }
    }
}

/// A ranking response: new importance scores and replacement proposals.
struct RankResponse {
    importance: Vec<(PageId, f64)>,
    replacements: Vec<(PageId, Url)>,
}

/// Compute a ranking response from a request.
fn rank(ranking: &mut RankingModule, mut req: RankRequest) -> RankResponse {
    let outcome = ranking.run(&mut req.collection, &req.all_urls);
    let importance = req
        .collection
        .iter()
        .map(|(p, s)| (p, s.importance))
        .collect();
    RankResponse { importance, replacements: outcome.replacements }
}

/// Where a batch of fetch slots gets its results: the worker pool in a
/// live drive, or the write-ahead log during recovery — the pattern
/// [`crate::engine::FetchSource`] follows for the single-threaded engines.
enum BatchSource<'a> {
    /// Send jobs to the crawl workers; collect their completions.
    Workers { jobs: Sender<(u64, Url, f64)>, done: Receiver<FetchRecord> },
    /// Consume logged outcomes, cross-checking each against the slot the
    /// re-derived schedule dispatched.
    Replay { log: WalCursor<'a>, batch: Vec<FetchRecord> },
}

impl BatchSource<'_> {
    /// True once a replay source has no events left.
    fn exhausted(&self) -> bool {
        match self {
            BatchSource::Workers { .. } => false,
            BatchSource::Replay { log, .. } => log.exhausted(),
        }
    }

    /// See [`WalCursor::take_routed_at`]; always `None` for the workers.
    fn take_routed_at(&mut self, seq: u64, t: f64) -> Option<RoutedBatch> {
        match self {
            BatchSource::Workers { .. } => None,
            BatchSource::Replay { log, .. } => log.take_routed_at(seq, t),
        }
    }

    /// Start fetch attempt `seq` of `url` at `t`.
    fn dispatch(&mut self, seq: u64, url: Url, t: f64) {
        match self {
            BatchSource::Workers { jobs, .. } => jobs.send((seq, url, t)).expect("workers alive"),
            BatchSource::Replay { log, batch } => batch.push(log.next_fetch(seq, url, t).clone()),
        }
    }

    /// The `dispatched` results of the current batch, in `seq` order.
    fn collect(&mut self, dispatched: usize) -> Vec<FetchRecord> {
        match self {
            BatchSource::Workers { done, .. } => {
                let mut batch: Vec<FetchRecord> =
                    (0..dispatched).map(|_| done.recv().expect("worker alive")).collect();
                batch.sort_by_key(|d| d.seq);
                batch
            }
            BatchSource::Replay { batch, .. } => std::mem::take(batch),
        }
    }
}

/// How ranking requests reach the RankingModule: the ranking thread in a
/// live drive, or inline during WAL replay. Either way the response to a
/// request is taken at a fixed point — the next pass boundary or the
/// drive's end — so replay reproduces the live schedule.
enum RankPipe {
    /// The ranking thread, with at most one request outstanding.
    Thread { requests: Sender<RankRequest>, responses: Receiver<RankResponse>, in_flight: bool },
    /// Rank synchronously when the response is due.
    Inline { ranking: RankingModule, pending: Option<RankRequest> },
}

impl RankPipe {
    /// Issue a request.
    fn issue(&mut self, req: RankRequest) {
        match self {
            RankPipe::Thread { requests, in_flight, .. } => {
                *in_flight = requests.send(req).is_ok();
            }
            RankPipe::Inline { pending, .. } => *pending = Some(req),
        }
    }

    /// The response to the outstanding request, if one is outstanding.
    fn answer(&mut self) -> Option<RankResponse> {
        match self {
            RankPipe::Thread { responses, in_flight, .. } => {
                std::mem::take(in_flight).then(|| responses.recv().expect("ranking thread alive"))
            }
            RankPipe::Inline { ranking, pending } => pending.take().map(|req| rank(ranking, req)),
        }
    }
}

/// The multi-threaded incremental crawler: the shared core plus a worker
/// pool, a ranking thread, and seq-ordered batch application.
pub struct ThreadedCrawler {
    core: IncrementalCore,
    workers: usize,
    ranking_applied: u64,
    /// True once the first pass boundary has been crossed: a ranking
    /// request derived from the engine state at the most recent boundary
    /// is conceptually outstanding. Checkpoints persist the flag; the
    /// request itself is rebuilt from the snapshot (it is taken at exactly
    /// the state the request was built from).
    rank_pending: bool,
    /// A rebuilt-but-not-yet-issued ranking request: set by
    /// [`ThreadedCrawler::from_state`] and carried out of WAL replay,
    /// issued when the next slot loop starts.
    unsent_rank_request: Option<RankRequest>,
}

impl ThreadedCrawler {
    /// Create with `workers` parallel CrawlModules. Panics on zero
    /// workers, or unless the crawl rate, ranking interval, and sample
    /// interval are positive.
    pub fn new(config: IncrementalConfig, workers: usize) -> ThreadedCrawler {
        assert!(workers >= 1);
        ThreadedCrawler {
            core: IncrementalCore::new(config),
            workers,
            ranking_applied: 0,
            rank_pending: false,
            unsent_rank_request: None,
        }
    }

    /// Rebuild an engine from a checkpointed state.
    pub fn from_state(state: CrawlerState) -> Result<ThreadedCrawler, WebEvoError> {
        let EngineKind::Threaded { workers } = state.engine else {
            return Err(WebEvoError::InvalidState(format!(
                "state was written by the {} engine, not the threaded one",
                state.engine
            )));
        };
        if workers == 0 {
            return Err(WebEvoError::InvalidState(
                "threaded state must carry a positive worker count".into(),
            ));
        }
        let (ranking_applied, rank_pending) = (state.ranking_applied, state.rank_pending);
        let core = IncrementalCore::from_state(state)?;
        // Snapshots are taken at pass boundaries, after the previous
        // response was applied and before the next request was issued: the
        // restored state *is* the outstanding request's base.
        let unsent_rank_request = rank_pending.then(|| RankRequest::of(&core));
        Ok(ThreadedCrawler { core, workers, ranking_applied, rank_pending, unsent_rank_request })
    }

    /// Ranking outcomes applied.
    pub fn ranking_applied(&self) -> u64 {
        self.ranking_applied
    }

    /// The batch-slot loop, shared by live drives and WAL replay. Stops at
    /// `end` (checked first: boundaries past it belong to whoever resumes
    /// the run) or at log exhaustion.
    fn run_slots(
        &mut self,
        universe: &WebUniverse,
        source: &mut BatchSource<'_>,
        pipe: &mut RankPipe,
        end: f64,
        hook: &mut dyn CrawlHook,
    ) {
        let step = 1.0 / self.core.config.crawl_rate_per_day;
        // A restored or replayed engine re-issues the outstanding request.
        if let Some(req) = self.unsent_rank_request.take() {
            pipe.issue(req);
        }
        let mut fetch_span: Option<SpanGuard> = None;
        loop {
            let t = self.core.clock.t;
            if t >= end {
                break;
            }
            // A routed record marks the end of a live drive call — the
            // exchange barrier the coordinator drove to, after which the
            // batch was injected into the frozen engine. Reconstruct that
            // drive's closing work first.
            if let Some(batch) = source.take_routed_at(self.core.fetch_seq + 1, t) {
                let barrier = self.core.exchange_barrier();
                self.close_drive(universe, pipe, barrier);
                self.core.apply_routed(batch);
                continue;
            }
            if source.exhausted() {
                break;
            }
            self.core.sample_due(universe, t);
            if t >= self.core.clock.next_ranking {
                fetch_span = None;
                let _pass = self.core.pass_span(t);
                // The response to the request issued one interval ago
                // lands here — a fixed application point, not "whenever
                // the ranking thread finishes", so replay can reproduce
                // it. Waiting only at the pass boundary keeps ranking off
                // the fetch hot path, as §5.3 prescribes.
                if let Some(res) = pipe.answer() {
                    self.apply_ranking(res);
                }
                self.rank_pending = true;
                let (kind, applied) = (self.kind(), self.ranking_applied);
                self.core.close_pass(t, hook, applied, &mut |core| {
                    core.export_state(kind, 0, applied, true)
                });
                pipe.issue(RankRequest::of(&self.core));
            }
            // One batch of fetch slots: at most `workers` jobs, never
            // crossing the next boundary. Workers race to grab them; slot
            // order is restored at application time.
            let horizon = self.core.clock.next_sample.min(self.core.clock.next_ranking).min(end);
            let mut dispatched = 0usize;
            let mut progressed = false;
            while dispatched < self.workers && self.core.clock.t < horizon && !source.exhausted() {
                let Some(url) = self.core.next_visit() else { break };
                progressed = true;
                if !self.core.routing.is_foreign(url.site) {
                    if self.core.obs.enabled() && fetch_span.is_none() {
                        fetch_span = Some(self.core.span(Stage::FetchBatch, self.core.clock.t));
                    }
                    self.core.fetch_seq += 1;
                    source.dispatch(self.core.fetch_seq, url, self.core.clock.t);
                    dispatched += 1;
                }
                // A residual foreign entry (only possible in a frontier
                // inherited from a pre-routing checkpoint) burns its slot
                // without spending a fetch or a sequence number: routed
                // links, not fetches, cross shard boundaries.
                self.core.clock.t += step;
            }
            if !progressed {
                // Nothing to crawl this slot.
                self.core.clock.t += step;
            }
            for record in source.collect(dispatched) {
                self.core.apply_fetch(universe, record, hook);
            }
        }
    }

    /// Close a drive at `until`: apply the outstanding ranking response
    /// (the drive's end is a deterministic application point; the
    /// outstanding request is consumed here, so a state exported
    /// afterwards does not re-issue one), then emit the pending grid
    /// samples and the closing sample.
    fn close_drive(&mut self, universe: &WebUniverse, pipe: &mut RankPipe, until: f64) {
        if let Some(res) = pipe.answer() {
            self.apply_ranking(res);
            self.rank_pending = false;
        }
        self.core.flush_samples(universe, until);
    }

    fn apply_ranking(&mut self, res: RankResponse) {
        self.ranking_applied += 1;
        for (p, importance) in res.importance {
            if let Some(stored) = self.core.collection.get_mut(p) {
                stored.importance = importance;
            }
        }
        self.core.admit_ranked(res.replacements);
    }
}

impl CrawlEngine for ThreadedCrawler {
    fn kind(&self) -> EngineKind {
        EngineKind::Threaded { workers: self.workers }
    }

    fn started(&self) -> bool {
        self.core.seeded
    }

    fn clock(&self) -> EngineClock {
        self.core.clock
    }

    /// Advance to day `until`. The first call starts the run at day 0;
    /// later calls continue from the frozen clock (including after
    /// [`crate::engine::restore`] + replay, where the continuation is
    /// bit-identical to a never-interrupted run).
    ///
    /// `fetcher` is ignored: the workers spawn their own
    /// [`SimFetcher`]s against `universe` with unrestricted politeness,
    /// under which the simulated fetch is a pure function of `(url, t)` —
    /// that is what makes the worker pool deterministic and the engine
    /// checkpointable without fetcher state.
    ///
    /// Each call closes with a metrics sample at `until` and applies the
    /// in-flight ranking response. A continued in-memory run therefore
    /// carries artifacts a single longer run would not have at that
    /// point; the checkpoint-recovery path does not, because snapshots
    /// are captured at pass boundaries.
    fn drive(
        &mut self,
        universe: &WebUniverse,
        _fetcher: &mut dyn Fetcher,
        hook: &mut dyn CrawlHook,
        until: f64,
    ) -> Result<&CrawlMetrics, WebEvoError> {
        let _drive = self.core.begin_drive(universe, until)?;
        let (jobs, job_rx) = channel::unbounded::<(u64, Url, f64)>();
        let (done_tx, done) = channel::unbounded::<FetchRecord>();
        let (requests, request_rx) = channel::unbounded::<RankRequest>();
        let (response_tx, responses) = channel::unbounded::<RankResponse>();
        let ranking_config = self.core.config.ranking.clone();
        crossbeam::scope(|scope| {
            // --- CrawlModule workers. ---
            for _ in 0..self.workers {
                let job_rx = job_rx.clone();
                let done_tx = done_tx.clone();
                scope.spawn(move |_| {
                    let mut fetcher =
                        SimFetcher::new(universe).with_politeness(Politeness::unrestricted());
                    while let Ok((seq, url, t)) = job_rx.recv() {
                        let result = Fetcher::fetch(&mut fetcher, url, t);
                        if done_tx.send(FetchRecord { seq, url, t, result }).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx); // the coordinator holds the only receiver

            // --- RankingModule thread. ---
            scope.spawn(move |_| {
                let mut ranking = RankingModule::new(ranking_config);
                while let Ok(req) = request_rx.recv() {
                    if response_tx.send(rank(&mut ranking, req)).is_err() {
                        break;
                    }
                }
            });
            // --- Coordinator: the UpdateModule role. Spans are
            // coordinator-only: workers never touch the sink, so recording
            // cannot perturb the race-free batch application. ---
            let mut source = BatchSource::Workers { jobs, done };
            let mut pipe = RankPipe::Thread { requests, responses, in_flight: false };
            self.run_slots(universe, &mut source, &mut pipe, until, hook);
            drop(source); // workers exit
            self.close_drive(universe, &mut pipe, until);
        })
        .expect("crawler threads do not panic");
        Ok(&self.core.metrics)
    }

    /// Re-apply the write-ahead-log tail after restoring a snapshot: the
    /// same batch-slot loop as a live drive re-derives the deterministic
    /// schedule from the restored state, each slot consuming its logged
    /// outcome instead of fetching. Ranking runs inline (same
    /// request/response timing, no thread), and routed batches re-inject
    /// at the exchange barrier they were logged at. Records already
    /// covered by the snapshot are skipped. `fetcher` is ignored, as in
    /// [`CrawlEngine::drive`].
    fn replay(
        &mut self,
        universe: &WebUniverse,
        _fetcher: &mut dyn Fetcher,
        events: &[WalEvent],
    ) -> Result<(), WebEvoError> {
        let tail = self.core.begin_replay(universe, events)?;
        let mut source = BatchSource::Replay { log: WalCursor::new(tail), batch: Vec::new() };
        let ranking = RankingModule::new(self.core.config.ranking.clone());
        let mut pipe = RankPipe::Inline { ranking, pending: None };
        self.run_slots(universe, &mut source, &mut pipe, f64::INFINITY, &mut NoopHook);
        if let RankPipe::Inline { pending, .. } = pipe {
            self.unsent_rank_request = pending;
        }
        Ok(())
    }

    /// Capture the full engine state (worker fetchers are stateless: the
    /// simulated fetch is a pure function of `(url, t)` under the
    /// unrestricted politeness the workers run with).
    fn export_state(&self) -> CrawlerState {
        self.core.export_state(self.kind(), 0, self.ranking_applied, self.rank_pending)
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
        self.ranking_applied
    }

    fn uses_external_fetcher(&self) -> bool {
        false
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
    use crate::incremental::{IncrementalCrawler, IncrementalConfig};
    use crate::modules::{EstimatorKind, RevisitStrategy};
    use crate::modules::RankingConfig;
    use webevo_sim::{SimFetcher, UniverseConfig};

    fn config(capacity: usize) -> IncrementalConfig {
        IncrementalConfig {
            capacity,
            crawl_rate_per_day: capacity as f64 / 5.0,
            ranking_interval_days: 2.0,
            revisit: RevisitStrategy::Uniform,
            estimator: EstimatorKind::Ep,
            history_window: 100,
            sample_interval_days: 1.0,
            ranking: RankingConfig::default(),
        }
    }

    /// Drive through the trait; the threaded engine ignores the fetcher.
    fn run(crawler: &mut ThreadedCrawler, u: &WebUniverse, days: f64) {
        let mut unused = SimFetcher::new(u);
        crawler.drive(u, &mut unused, &mut NoopHook, days).expect("drive succeeds");
    }

    #[test]
    #[should_panic(expected = "crawl rate must be positive")]
    fn zero_crawl_rate_is_rejected_at_construction() {
        let mut cfg = config(20);
        cfg.crawl_rate_per_day = 0.0;
        let _ = ThreadedCrawler::new(cfg, 2);
    }

    #[test]
    fn threaded_fills_collection() {
        let u = WebUniverse::generate(UniverseConfig::test_scale(55));
        let mut crawler = ThreadedCrawler::new(config(50), 4);
        run(&mut crawler, &u, 50.0);
        assert!(
            crawler.collection_len() >= 45,
            "len={}",
            crawler.collection_len()
        );
        assert!(crawler.ranking_applied() > 5);
    }

    #[test]
    fn threaded_matches_single_threaded_statistically() {
        // Fixed composition (no churn, capacity covers every reachable
        // page): any freshness difference is then pure scheduling, which
        // must agree between the engines. Under churn the engines hold
        // *different but equally valid* page sets, because the threaded
        // engine applies ranking one interval later — exactly as in a real
        // concurrent crawler.
        let mut ucfg = UniverseConfig::test_scale(56);
        ucfg.churn = false;
        ucfg.pages_per_site = 20;
        ucfg.window_size = 20;
        let u = WebUniverse::generate(ucfg);
        let capacity = 200; // 10 sites × 20 slots: everything fits
        let mut threaded = ThreadedCrawler::new(config(capacity), 4);
        run(&mut threaded, &u, 60.0);
        let mut fetcher = SimFetcher::new(&u);
        let mut single = IncrementalCrawler::new(config(capacity));
        single.drive(&u, &mut fetcher, &mut NoopHook, 60.0).expect("drive succeeds");
        let f_threaded = threaded.metrics().average_freshness_from(30.0);
        let f_single = single.metrics().average_freshness_from(30.0);
        assert!(
            (f_threaded - f_single).abs() < 0.08,
            "threaded {f_threaded} vs single {f_single}"
        );
    }

    #[test]
    fn single_worker_still_works() {
        let u = WebUniverse::generate(UniverseConfig::test_scale(57));
        let mut crawler = ThreadedCrawler::new(config(30), 1);
        run(&mut crawler, &u, 30.0);
        assert!(crawler.collection_len() >= 25);
    }

    #[test]
    fn threaded_replays_identically() {
        // The deterministic coordinator is a replay contract: same
        // universe, same config, same worker count → bit-identical
        // metrics, run to run. (A free-running coordinator could not
        // promise this; checkpoint recovery builds on it.)
        let u = WebUniverse::generate(UniverseConfig::test_scale(58));
        let run_once = || {
            let mut crawler = ThreadedCrawler::new(config(40), 4);
            run(&mut crawler, &u, 40.0);
            (
                crawler.metrics().fetches,
                crawler.metrics().failed_fetches,
                crawler
                    .metrics()
                    .freshness
                    .rows()
                    .collect::<Vec<(f64, f64)>>(),
            )
        };
        let a = run_once();
        assert!(a.0 > 0, "the run should actually crawl");
        assert_eq!(a, run_once());
    }

    #[test]
    fn worker_count_changes_schedule_but_not_safety() {
        // More workers = larger dispatch batches = slightly different
        // schedules; both must fill the collection and stay deterministic
        // for their own worker count.
        let u = WebUniverse::generate(UniverseConfig::test_scale(59));
        for workers in [1, 3, 8] {
            let mut crawler = ThreadedCrawler::new(config(40), workers);
            run(&mut crawler, &u, 40.0);
            assert!(
                crawler.collection_len() >= 35,
                "workers={workers} len={}",
                crawler.collection_len()
            );
        }
    }

    #[test]
    fn state_roundtrip_preserves_continuation() {
        // Export at the end of a run, rebuild, and continue both engines:
        // the original and the restored copy must stay in lockstep.
        let u = WebUniverse::generate(UniverseConfig::test_scale(60));
        let mut original = ThreadedCrawler::new(config(30), 2);
        run(&mut original, &u, 21.0);
        let state = original.export_state();
        assert_eq!(state.engine, EngineKind::Threaded { workers: 2 });
        let mut restored = ThreadedCrawler::from_state(state).expect("state restores");
        run(&mut original, &u, 35.0);
        run(&mut restored, &u, 35.0);
        assert_eq!(original.metrics().fetches, restored.metrics().fetches);
        let rows_a: Vec<(f64, f64)> = original.metrics().freshness.rows().collect();
        let rows_b: Vec<(f64, f64)> = restored.metrics().freshness.rows().collect();
        assert_eq!(rows_a, rows_b, "restored engine diverged");
    }

    #[test]
    fn from_state_rejects_foreign_states() {
        let u = WebUniverse::generate(UniverseConfig::test_scale(61));
        let mut crawler = ThreadedCrawler::new(config(20), 2);
        run(&mut crawler, &u, 8.0);
        let mut state = crawler.export_state();
        state.engine = EngineKind::Incremental;
        assert!(matches!(
            ThreadedCrawler::from_state(state),
            Err(WebEvoError::InvalidState(_))
        ));
    }
}
