//! The per-layer metrics of a traced run, from three sources:
//!
//! * the traced leg's wrappers (`trace.rs`), which time each call into
//!   `sim`, `store` and `serve` from the crawl thread and give `core` the
//!   gaps between those calls;
//! * the traced leg's recovery, done call by call;
//! * the untraced leg's `ObsSink`, where the program records its own stage
//!   spans (`obs.*`, and the shard drive spans behind
//!   `fleet.shard_drive_*`).
//!
//! `FleetSession` builds its shards' fetchers, hooks and publishers itself,
//! so on `fleet-2shard` the wrapper metrics read 0; `obs.*` is the view
//! inside that run.

use crate::queries::KINDS;
use crate::trace::{lock, Busy, Layer, LAYERS};
use crate::workload::Leg;
use crate::{median, metric, percentile, Metric};
use std::collections::BTreeMap;
use webevo::prelude::{ShardId, SpanRecord, Stage};

/// The obs spans that lie inside the leg's crawl window.
fn crawl_spans(leg: &Leg) -> Vec<SpanRecord> {
    let (from, to) = leg.crawl_window_us;
    leg.obs
        .spans()
        .into_iter()
        .filter(|s| s.start_us >= from && s.end_us.is_some_and(|end| end <= to))
        .collect()
}

fn stage_secs(spans: &[SpanRecord], stage: Stage) -> f64 {
    spans
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.duration_us() as f64)
        .sum::<f64>()
        * 1e-6
}

/// Length of the union of the spans' intervals, seconds.
fn union_secs(spans: &[&SpanRecord]) -> f64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start_us, s.end_us.unwrap_or(s.start_us)))
        .collect();
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for (start, end) in intervals {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total as f64 * 1e-6
}

/// The metrics of a traced leg: outside timings, counts and recovery steps.
pub fn traced(leg: &Leg) -> Vec<Metric> {
    let tracer = leg.tracer.as_ref().map(lock);
    let busy = |layer: Layer| tracer.as_ref().map_or(Busy::default(), |t| t.busy(layer));
    let fetch = busy(Layer::Fetch);
    let (slot, pass) = (busy(Layer::Slot), busy(Layer::Pass));
    let (fetch_calls, fetch_errors) = match (&tracer, &leg.fleet) {
        (Some(t), None) => (fetch.calls, t.fetch_errors),
        _ => (leg.fetches, leg.failed_fetches),
    };
    let registry = leg.obs.merged_registry().unwrap_or_default();
    let lineages = leg.fleet.as_ref().map_or(1, |f| f.shards.len()) as u64;
    let steps = &leg.steps;
    let q = &leg.queries;

    let mut out = vec![
        metric("sim.generate_s", leg.generate_s, "s"),
        metric("sim.fetch_calls", fetch_calls as f64, "count"),
        metric("sim.fetch_busy_s", fetch.secs(), "s"),
        metric(
            "sim.fetch_err_frac",
            fetch_errors as f64 / fetch_calls.max(1) as f64,
            "ratio",
        ),
        metric("core.slot_busy_s", slot.secs(), "s"),
        metric(
            "core.slot_us_per_fetch",
            slot.secs() * 1e6 / fetch.calls.max(1) as f64,
            "us",
        ),
        metric("core.pass_busy_s", pass.secs(), "s"),
        metric("core.passes", pass.calls as f64, "count"),
        metric(
            "core.pass_ms_mean",
            pass.secs() * 1e3 / pass.calls.max(1) as f64,
            "ms",
        ),
        metric("core.idle_busy_s", busy(Layer::Idle).secs(), "s"),
        metric("core.restore_s", steps.restore_s, "s"),
        metric("core.replay_s", steps.replay_s, "s"),
        metric("core.replay_events", steps.replay_events as f64, "count"),
        metric("store.on_fetch_busy_s", busy(Layer::OnFetch).secs(), "s"),
        metric("store.boundary_busy_s", busy(Layer::Boundary).secs(), "s"),
        metric(
            "store.boundaries",
            busy(Layer::Boundary).calls as f64,
            "count",
        ),
        metric(
            "store.wal_records",
            registry
                .histogram("wal_flush_records")
                .map_or(0.0, |h| h.sum()),
            "count",
        ),
        metric(
            "store.wal_bytes",
            registry.counter("wal_bytes_total") as f64,
            "bytes",
        ),
        metric(
            "store.snapshots",
            (registry.counter("snapshots_total") + lineages) as f64,
            "count",
        ),
        metric("store.snapshot_bytes", leg.snapshot_bytes as f64, "bytes"),
        metric("store.recover_decode_s", steps.decode_s, "s"),
        metric("store.continue_snapshot_s", steps.continue_s, "s"),
        metric("serve.publish_busy_s", busy(Layer::Publish).secs(), "s"),
        metric("serve.publishes", leg.epochs as f64, "count"),
        metric("serve.view_pages", leg.view_pages as f64, "count"),
    ];
    for kind in KINDS {
        let name = kind.name();
        let service = &q.service_us[kind as usize];
        out.push(metric(
            format!("serve.query.{name}.p50_us"),
            percentile(service, 0.50),
            "us",
        ));
        out.push(metric(
            format!("serve.query.{name}.p99_us"),
            percentile(service, 0.99),
            "us",
        ));
        if kind.memoized() {
            let cold = &q.cold_us[kind as usize];
            out.push(metric(
                format!("serve.query.{name}.cold_us"),
                median(cold),
                "us",
            ));
        }
    }
    out.push(metric(
        "serve.latency_p99_us",
        percentile(&q.latency_us, 0.99),
        "us",
    ));
    out.push(metric(
        "serve.generator_lag_p99_us",
        percentile(&q.lag_us, 0.99),
        "us",
    ));

    let (routed, imbalance) = match &leg.fleet {
        None => (0, 1.0),
        Some(fleet) => {
            let owned: Vec<f64> = fleet
                .shards
                .iter()
                .map(|s| (s.metrics.fetches - s.foreign_rejects) as f64)
                .collect();
            let mean = owned.iter().sum::<f64>() / owned.len() as f64;
            (
                fleet.routed_links(),
                owned.iter().copied().fold(0.0, f64::max) / mean,
            )
        }
    };
    out.push(metric("fleet.routed_links", routed as f64, "count"));
    out.push(metric("fleet.shard_fetch_imbalance", imbalance, "ratio"));

    // Coverage: the share of the traced drive the layer timings explain.
    // A fleet's shard loops are out of reach, so there it is the share of
    // the crawl leg covered by the program's own root spans.
    let coverage = match (&tracer, &leg.fleet) {
        (Some(t), None) => {
            LAYERS.iter().map(|&l| t.busy(l).secs()).sum::<f64>() / t.span_secs("drive")
        }
        _ => {
            let spans = crawl_spans(leg);
            let roots: Vec<&SpanRecord> = spans.iter().filter(|s| s.parent.is_none()).collect();
            let (from, to) = leg.crawl_window_us;
            union_secs(&roots) / ((to - from) as f64 * 1e-6)
        }
    };
    out.push(metric("trace.coverage", coverage, "ratio"));
    out
}

/// Whether `name` is one of the metrics `program` reports.
pub fn is_program_metric(name: &str) -> bool {
    name.starts_with("obs.") || name.starts_with("fleet.shard_drive_")
}

/// The program's own record of an untraced leg, read from its `ObsSink`:
/// stage totals over the crawl leg (decode over the recovery) and the
/// per-shard drive time.
pub fn program(leg: &Leg) -> Vec<Metric> {
    let spans = crawl_spans(leg);
    let mut out = Vec::new();
    for (name, stage) in [
        ("obs.pass_s", Stage::Pass),
        ("obs.fetch_batch_s", Stage::FetchBatch),
        ("obs.view_swap_s", Stage::ViewSwap),
        ("obs.wal_flush_s", Stage::WalFlush),
        ("obs.snapshot_encode_s", Stage::SnapshotEncode),
        ("obs.exchange_barrier_s", Stage::ExchangeBarrier),
    ] {
        out.push(metric(name, stage_secs(&spans, stage), "s"));
    }
    let all_spans = leg.obs.spans();
    out.push(metric(
        "obs.snapshot_decode_s",
        stage_secs(&all_spans, Stage::SnapshotDecode),
        "s",
    ));
    out.push(metric("obs.spans", all_spans.len() as f64, "count"));

    // Per-shard drive time: the slowest shard holds every barrier.
    let mut drive: BTreeMap<Option<ShardId>, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.stage == Stage::Drive) {
        *drive.entry(s.shard).or_default() += s.duration_us() as f64 * 1e-6;
    }
    let drive_max = drive.values().copied().fold(0.0, f64::max);
    let drive_mean = drive.values().sum::<f64>() / drive.len().max(1) as f64;
    out.push(metric("fleet.shard_drive_max_s", drive_max, "s"));
    out.push(metric("fleet.shard_drive_mean_s", drive_mean, "s"));
    out
}
