//! The three workloads, each run as legs: set-up, a timed crawl leg, and a
//! timed recovery, with the output checks between them.

use crate::median;
use crate::queries::{self, QueryStats, Until};
use crate::reference;
use crate::trace::{lock, SharedTracer, TimedFetcher, TimedHook, TimedPublisher, Tracer};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use webevo::core::engine::restore;
use webevo::prelude::{
    recover, CheckpointConfig, Checkpointer, CrawlBudget, CrawlEngine, CrawlMetrics, CrawlSession,
    EngineKind, Fetcher, FleetMetrics, FleetSession, IncrementalCrawler, ObsSink, PeriodicCrawler,
    ServeHandle, ShardFn, ShardId, ShardPlan, ShardedFetcher, SimFetcher, UniverseConfig,
    WebUniverse,
};
use webevo::store::fleet::shard_dir_name;
use webevo::store::{encode_snapshot, SNAPSHOT_FILE};
use webevo::types::binio::BinEncode;

/// Sites and page slots of the scaled universe (capacity 400,140).
const SITES: usize = 270;
const PAGES: usize = 400_000;
/// Days per full revisit of the collection.
const CYCLE_DAYS: f64 = 15.0;
/// Length of the post-crawl query leg where queries cannot run beside the
/// crawl. The view is final there, so one cold `top_k_pagerank` call sets
/// most of its late share; a longer leg dilutes that one call.
const QUERY_LEG: Duration = Duration::from_secs(5);
/// Set-ups per leg; set-up time takes the median of each step.
const SETUPS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DurableServed,
    PeriodicBatch,
    Fleet2Shard,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "durable-served" => Some(Workload::DurableServed),
            "periodic-batch" => Some(Workload::PeriodicBatch),
            "fleet-2shard" => Some(Workload::Fleet2Shard),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DurableServed => "durable-served",
            Workload::PeriodicBatch => "periodic-batch",
            Workload::Fleet2Shard => "fleet-2shard",
        }
    }

    fn engine(self) -> EngineKind {
        match self {
            Workload::PeriodicBatch => EngineKind::Periodic,
            _ => EngineKind::Incremental,
        }
    }

    /// Simulated days of the crawl leg.
    fn days(self) -> f64 {
        match self {
            Workload::PeriodicBatch => 3.0 * CYCLE_DAYS,
            _ => 12.0,
        }
    }

    /// Full-snapshot cadence, simulated days.
    fn snapshot_every(self) -> f64 {
        match self {
            Workload::PeriodicBatch => 5.0,
            _ => 4.0,
        }
    }

    /// Freshness is averaged from this day on, past the warm-up.
    fn warmup(self) -> f64 {
        match self {
            Workload::PeriodicBatch => CYCLE_DAYS,
            _ => 3.0,
        }
    }
}

/// One leg's results. Timed quantities are seconds.
pub struct Leg {
    pub generate_s: f64,
    pub setup_s: f64,
    pub crawl_s: f64,
    pub recover_s: f64,
    /// Fetch attempts (owned attempts for a fleet).
    pub fetches: u64,
    pub failed_fetches: u64,
    pub freshness: f64,
    pub age_days: f64,
    pub queries: QueryStats,
    /// Crawl, resume and every query.
    pub attempted: u64,
    /// Errors, wrong answers and resumes that diverged.
    pub failed: u64,
    /// The sink the program recorded into, and the crawl leg's window on
    /// its clock, µs.
    pub obs: ObsSink,
    pub crawl_window_us: (u64, u64),
    /// Size of the snapshot file(s) the crawl leg left on disk.
    pub snapshot_bytes: u64,
    /// Serving epochs published, and the pages of the last one.
    pub epochs: u64,
    pub view_pages: usize,
    pub fleet: Option<FleetMetrics>,
    /// The traced leg's timeline, if traced.
    pub tracer: Option<SharedTracer>,
    pub steps: RecoverySteps,
}

/// Step timings of a recovery done call by call (traced legs).
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoverySteps {
    pub decode_s: f64,
    pub restore_s: f64,
    pub replay_s: f64,
    pub replay_events: u64,
    pub continue_s: f64,
}

impl RecoverySteps {
    fn add(&mut self, other: RecoverySteps) {
        self.decode_s += other.decode_s;
        self.restore_s += other.restore_s;
        self.replay_s += other.replay_s;
        self.replay_events += other.replay_events;
        self.continue_s += other.continue_s;
    }
}

/// Run a set-up step `SETUPS` times, dropping each result before the
/// next, and return the last result with the median of the times the step
/// reported for itself.
fn repeated<T>(mut step: impl FnMut() -> Result<(T, f64), String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (value, secs) = step()?;
        times.push(secs);
        last = Some(value);
    }
    Ok((last.expect("SETUPS is positive"), median(&times)))
}

/// Generate the universe `SETUPS` times; return the last with the median
/// generation time.
fn generate(seed: u64, days: f64) -> (WebUniverse, f64) {
    let config = UniverseConfig::scaled(seed, SITES, PAGES, days + 1.0);
    let generated = repeated(|| {
        let start = Instant::now();
        let universe = WebUniverse::generate(config.clone());
        Ok((universe, start.elapsed().as_secs_f64()))
    });
    generated.expect("generation does not fail")
}

fn budget(universe: &WebUniverse) -> CrawlBudget {
    let capacity = universe.site_count() * universe.config().pages_per_site;
    CrawlBudget::paper_monthly(capacity).with_cycle_days(CYCLE_DAYS)
}

fn file_len(path: PathBuf) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

fn metrics_bytes(metrics: &CrawlMetrics) -> Vec<u8> {
    let mut out = Vec::new();
    metrics.bin_encode(&mut out);
    out
}

fn micros_since(origin: Instant, t: Instant) -> u64 {
    t.duration_since(origin).as_micros() as u64
}

/// Run one leg of `workload`. `traced` wraps the layers the crawl thread
/// calls and recovers call by call; otherwise recovery is the public
/// `resume`.
pub fn run_leg(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Result<Leg, String> {
    let _ = std::fs::remove_dir_all(dir);
    let leg = match workload {
        Workload::Fleet2Shard => fleet_leg(workload, seed, dir, traced),
        _ => single_leg(workload, seed, dir, traced),
    };
    let _ = std::fs::remove_dir_all(dir);
    leg
}

/// Whether the query generator may run beside the crawl thread without
/// using more threads than the machine has cores.
fn queries_beside_crawl(crawl_threads: usize) -> bool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    crawl_threads < cores
}

/// Run `crawl` with the query generator beside it when cores allow, else
/// run the generator for `QUERY_LEG` after it.
fn with_queries<R>(
    service: &webevo::prelude::QueryService,
    universe: &WebUniverse,
    seed: u64,
    crawl_threads: usize,
    crawl: impl FnOnce() -> R,
) -> (R, QueryStats) {
    if !queries_beside_crawl(crawl_threads) {
        let out = crawl();
        return (
            out,
            queries::run(service, universe, seed, Until::Elapsed(QUERY_LEG)),
        );
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| queries::run(service, universe, seed, Until::Flag(&stop)));
        let out = crawl();
        stop.store(true, Ordering::Relaxed);
        (
            out,
            generator
                .join()
                .expect("the query generator does not panic"),
        )
    })
}

fn single_leg(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Result<Leg, String> {
    let days = workload.days();
    let every = workload.snapshot_every();
    let ckpt_dir = dir.join("ckpt");
    let tracer = traced.then(Tracer::shared);

    // Set-up: universe, engine, serving attachment, base snapshot.
    let (universe, generate_s) = generate(seed, days);
    let obs_origin = Instant::now();
    let obs = ObsSink::recording();
    let budget = budget(&universe);
    let ((mut engine, serve, mut fetcher, mut ckpt), build_s) = repeated(|| {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let t0 = Instant::now();
        let mut engine: Box<dyn CrawlEngine + Send> = match workload.engine() {
            EngineKind::Periodic => Box::new(PeriodicCrawler::new(budget.periodic_config())),
            _ => Box::new(IncrementalCrawler::new(budget.incremental_config())),
        };
        engine.set_obs(obs.clone());
        let serve = ServeHandle::new(obs.clone());
        engine.set_view_publisher(match &tracer {
            Some(tracer) => Box::new(TimedPublisher {
                inner: serve.publisher(),
                tracer: tracer.clone(),
            }),
            None => serve.publisher(),
        });
        let fetcher = SimFetcher::new(&universe);
        let mut initial = engine.export_state();
        initial.fetcher = fetcher.export_state();
        let mut ckpt = Checkpointer::create(CheckpointConfig::new(&ckpt_dir, every), &initial)
            .map_err(|e| format!("base snapshot: {e}"))?;
        ckpt.set_obs(obs.clone());
        Ok(((engine, serve, fetcher, ckpt), t0.elapsed().as_secs_f64()))
    })?;
    let setup_s = generate_s + build_s;

    // Crawl leg, ending when the last snapshot is durable.
    let service = serve.service();
    let ((crawl, window), queries) = with_queries(&service, &universe, seed, 1, || {
        let start = Instant::now();
        let result = match &tracer {
            None => engine
                .drive(&universe, &mut fetcher, &mut ckpt, days)
                .map(|_| ()),
            Some(tracer) => {
                let mut fetcher = TimedFetcher {
                    inner: &mut fetcher,
                    tracer: tracer.clone(),
                };
                let mut hook = TimedHook {
                    inner: &mut ckpt,
                    tracer: tracer.clone(),
                };
                lock(tracer).begin_drive();
                let result = engine
                    .drive(&universe, &mut fetcher, &mut hook, days)
                    .map(|_| ());
                lock(tracer).end_drive();
                result
            }
        };
        drop(ckpt);
        let end = Instant::now();
        let window = (
            micros_since(obs_origin, start),
            micros_since(obs_origin, end),
        );
        (result.map(|()| (end - start).as_secs_f64()), window)
    });
    let crawl_s = crawl.map_err(|e| format!("crawl: {e}"))?;
    let metrics = engine.metrics().clone();
    let mut state = engine.export_state();
    state.fetcher = fetcher.export_state();
    let expected = encode_snapshot(&state);
    drop((engine, fetcher));
    let checked = reference::check_final(&service, &universe, Some(&state));
    drop(state);
    let snapshot_bytes = file_len(ckpt_dir.join(SNAPSHOT_FILE));

    // Recovery, then the check that it landed on the uninterrupted state.
    let (recovered, recover_s, steps) = match &tracer {
        None => {
            let start = Instant::now();
            let mut session = CrawlSession::builder()
                .engine(workload.engine())
                .budget(budget)
                .universe(&universe)
                .checkpoint(&ckpt_dir, every)
                .obs(obs.clone())
                .build()
                .map_err(|e| format!("resume session: {e}"))?;
            session.resume(days).map_err(|e| format!("resume: {e}"))?;
            let recover_s = start.elapsed().as_secs_f64();
            (
                encode_snapshot(&session.export_state()),
                recover_s,
                RecoverySteps::default(),
            )
        }
        Some(tracer) => {
            let start = Instant::now();
            let mut fetcher = SimFetcher::new(&universe);
            let (engine, steps) = recover_stepwise(
                &universe,
                &ckpt_dir,
                &dir.join("continued"),
                every,
                &mut fetcher,
                days,
                tracer,
            )?;
            let recover_s = start.elapsed().as_secs_f64();
            let mut state = engine.export_state();
            state.fetcher = fetcher.export_state();
            (encode_snapshot(&state), recover_s, steps)
        }
    };
    let diverged = recovered != expected;
    if diverged {
        eprintln!(
            "[perfbench] {}: the resumed state differs from the uninterrupted one",
            workload.name()
        );
    }

    let failed = u64::from(diverged) + queries.wrong + checked.failed;
    Ok(Leg {
        generate_s,
        setup_s,
        crawl_s,
        recover_s,
        fetches: metrics.fetches,
        failed_fetches: metrics.failed_fetches,
        freshness: metrics.average_freshness_from(workload.warmup()),
        age_days: metrics.age.time_average(),
        attempted: 2 + queries.attempted + checked.attempted,
        failed,
        queries,
        obs,
        crawl_window_us: window,
        snapshot_bytes,
        epochs: service.epoch(),
        view_pages: service.epoch_info().pages,
        fleet: None,
        tracer,
        steps,
    })
}

/// Recover a checkpoint directory call by call — decode, rebuild the
/// engine, replay the WAL tail, re-snapshot into `continued` — then drive
/// the unflushed tail to `days`, as `CrawlSession::resume` does.
fn recover_stepwise(
    universe: &WebUniverse,
    dir: &Path,
    continued: &Path,
    every: f64,
    fetcher: &mut dyn Fetcher,
    days: f64,
    tracer: &SharedTracer,
) -> Result<(Box<dyn CrawlEngine + Send>, RecoverySteps), String> {
    let mut steps = RecoverySteps::default();
    let t = Instant::now();
    let recovered = recover(dir)
        .map_err(|e| format!("recover {dir:?}: {e}"))?
        .ok_or_else(|| format!("no checkpoint in {dir:?}"))?;
    steps.decode_s = t.elapsed().as_secs_f64();
    lock(tracer).record("recover", t);

    let t = Instant::now();
    let (mut engine, fetcher_state) =
        restore(recovered.state).map_err(|e| format!("restore: {e}"))?;
    if let Some(state) = fetcher_state {
        fetcher.restore_state(state);
    }
    steps.restore_s = t.elapsed().as_secs_f64();
    lock(tracer).record("restore", t);

    let t = Instant::now();
    engine
        .replay(universe, fetcher, &recovered.wal)
        .map_err(|e| format!("replay: {e}"))?;
    steps.replay_s = t.elapsed().as_secs_f64();
    steps.replay_events = recovered.wal.len() as u64;
    lock(tracer).record("replay", t);

    let t = Instant::now();
    let mut state = engine.export_state();
    state.fetcher = fetcher.export_state();
    let mut ckpt = Checkpointer::continue_from(CheckpointConfig::new(continued, every), &state)
        .map_err(|e| format!("continue_from: {e}"))?;
    drop(state);
    steps.continue_s = t.elapsed().as_secs_f64();
    lock(tracer).record("continue", t);

    let t = Instant::now();
    if days > engine.clock().t {
        engine
            .drive(universe, fetcher, &mut ckpt, days)
            .map_err(|e| format!("tail drive: {e}"))?;
    } else {
        engine.close_sample(universe, days);
    }
    drop(ckpt);
    lock(tracer).record("tail", t);
    Ok((engine, steps))
}

const SHARDS: u32 = 2;

fn build_fleet<'u>(
    universe: &'u WebUniverse,
    dir: &Path,
    every: f64,
    obs: &ObsSink,
) -> Result<FleetSession<'u>, String> {
    FleetSession::builder()
        .shards(SHARDS)
        .partition(ShardFn::Hash)
        .budget(budget(universe))
        .universe(universe)
        .checkpoint(dir, every)
        .concurrency(SHARDS as usize)
        .obs(obs.clone())
        .build()
        .map_err(|e| format!("fleet build: {e}"))
}

/// Owned fetch attempts: a shard's rejections of foreign URLs are not
/// crawl work.
fn owned_fetches(results: &FleetMetrics) -> u64 {
    results.merged.fetches
        - results
            .shards
            .iter()
            .map(|s| s.foreign_rejects)
            .sum::<u64>()
}

fn fleet_leg(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Result<Leg, String> {
    let days = workload.days();
    let every = workload.snapshot_every();
    let fleet_dir = dir.join("fleet");
    let tracer = traced.then(Tracer::shared);

    let (universe, generate_s) = generate(seed, days);
    let obs_origin = Instant::now();
    let obs = ObsSink::recording();
    let ((mut fleet, service), build_s) = repeated(|| {
        let _ = std::fs::remove_dir_all(&fleet_dir);
        let t0 = Instant::now();
        let mut fleet = build_fleet(&universe, &fleet_dir, every, &obs)?;
        let service = fleet.serve();
        Ok(((fleet, service), t0.elapsed().as_secs_f64()))
    })?;
    let setup_s = generate_s + build_s;

    // The shards take both cores, so queries run after the crawl leg.
    let ((crawl, window), queries) =
        with_queries(&service, &universe, seed, SHARDS as usize, || {
            let start = Instant::now();
            let result = fleet.run(days).cloned();
            let end = Instant::now();
            let window = (
                micros_since(obs_origin, start),
                micros_since(obs_origin, end),
            );
            (result.map(|r| (r, (end - start).as_secs_f64())), window)
        });
    let (results, crawl_s) = crawl.map_err(|e| format!("fleet run: {e}"))?;
    let plan = *fleet.plan();
    drop(fleet);
    let checked = reference::check_final(&service, &universe, None);

    // Recovery, then the check that it reproduces the uninterrupted run.
    // `FleetSession` keeps shard engines to itself, so the comparison is
    // over each shard's encoded metrics and collection size.
    let recover_s;
    let t2 = Instant::now();
    let (diverged, steps) = match &tracer {
        None => {
            let mut resumed = build_fleet(&universe, &fleet_dir, every, &obs)?;
            let again = resumed
                .resume(days)
                .map_err(|e| format!("fleet resume: {e}"))?
                .clone();
            recover_s = t2.elapsed().as_secs_f64();
            let same = metrics_bytes(&again.merged) == metrics_bytes(&results.merged)
                && again.shards.iter().zip(&results.shards).all(|(a, b)| {
                    a.collection_len == b.collection_len
                        && metrics_bytes(&a.metrics) == metrics_bytes(&b.metrics)
                });
            (!same, RecoverySteps::default())
        }
        Some(tracer) => {
            let checked = recover_fleet_stepwise(
                &universe, &fleet_dir, &plan, every, days, &results, tracer,
            )?;
            recover_s = t2.elapsed().as_secs_f64();
            checked
        }
    };
    if diverged {
        eprintln!(
            "[perfbench] {}: the resumed fleet differs from the uninterrupted one",
            workload.name()
        );
    }

    Ok(Leg {
        generate_s,
        setup_s,
        crawl_s,
        recover_s,
        fetches: owned_fetches(&results),
        failed_fetches: results.merged.failed_fetches,
        freshness: results.merged.average_freshness_from(workload.warmup()),
        age_days: results.merged.age.time_average(),
        attempted: 2 + queries.attempted + checked.attempted,
        failed: u64::from(diverged) + queries.wrong + checked.failed,
        queries,
        obs,
        crawl_window_us: window,
        snapshot_bytes: (0..SHARDS)
            .map(|k| {
                file_len(
                    fleet_dir
                        .join(shard_dir_name(ShardId(k)))
                        .join(SNAPSHOT_FILE),
                )
            })
            .sum(),
        epochs: service.epoch(),
        view_pages: service.epoch_info().pages,
        fleet: Some(results),
        tracer,
        steps,
    })
}

/// Recover every shard directory call by call and compare each shard's
/// metrics with the uninterrupted run's. Valid after a fleet run that
/// finished: every shard then holds the same exchange count, so no
/// alignment is needed.
fn recover_fleet_stepwise(
    universe: &WebUniverse,
    fleet_dir: &Path,
    plan: &ShardPlan,
    every: f64,
    days: f64,
    results: &FleetMetrics,
    tracer: &SharedTracer,
) -> Result<(bool, RecoverySteps), String> {
    let mut total = RecoverySteps::default();
    let mut diverged = false;
    for (k, report) in results.shards.iter().enumerate() {
        let shard = ShardId(k as u32);
        let shard_dir = fleet_dir.join(shard_dir_name(shard));
        let mut fetcher = ShardedFetcher::new(SimFetcher::new(universe), *plan, shard);
        let (engine, steps) = recover_stepwise(
            universe,
            &shard_dir,
            &fleet_dir.join(format!("continued-{k}")),
            every,
            &mut fetcher,
            days,
            tracer,
        )?;
        total.add(steps);
        diverged |= engine.collection_len() != report.collection_len
            || metrics_bytes(engine.metrics()) != metrics_bytes(&report.metrics);
    }
    Ok((diverged, total))
}
