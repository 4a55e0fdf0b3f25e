//! `perfbench`: the webevo crawl benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <durable-served|periodic-batch|fleet-2shard>
//!           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Repeats the workload's legs while another one is expected to end within
//! `--seconds` (at least `MIN_LEGS`) and prints one JSON line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.
//!
//! Each leg runs in a child process of its own (`--leg plain|traced`), so
//! every leg starts from the same cold heap and `peak_rss_mib` is the
//! high-water mark of the process that ran it. With `--trace 1` the legs
//! come in pairs, one untraced and one traced.

#![forbid(unsafe_code)]

mod layers;
mod queries;
mod reference;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use workload::{run_leg, Workload};

/// Fewest leg repetitions in a run (an untraced and traced pair counts as
/// one): a run of one leg is at the mercy of one noisy stretch.
const MIN_LEGS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <durable-served|periodic-batch|fleet-2shard> \
                     --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>";

#[derive(Clone, Copy, PartialEq, Eq)]
enum LegKind {
    Plain,
    Traced,
}

impl LegKind {
    fn name(self) -> &'static str {
        match self {
            LegKind::Plain => "plain",
            LegKind::Traced => "traced",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    /// Set in a child process: run this one leg and report it.
    leg: Option<LegKind>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut leg = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--leg" => {
                leg = Some(match value.as_str() {
                    "plain" => LegKind::Plain,
                    "traced" => LegKind::Traced,
                    _ => return Err(bad("plain or traced")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds {seconds}: must be positive"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        leg,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in (0, 1].
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => sorted[((p * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// What a child process reports about its leg.
struct LegReport {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Query latencies from due time, µs (plain legs).
    latency_us: Vec<f64>,
}

impl LegReport {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

/// Child side: run one leg and print it as `ops`, `m` and `lat` lines.
fn run_child(args: &Args, kind: LegKind) -> Result<(), String> {
    let name = args.workload.name();
    let dir = args.work_dir.join(format!("{name}-{}", std::process::id()));
    let leg = run_leg(args.workload, args.seed, &dir, kind == LegKind::Traced)?;
    let sane = leg.fetches > 0 && leg.freshness > 0.0 && leg.freshness <= 1.0;
    let mut metrics = vec![metric("crawl_s", leg.crawl_s, "s")];
    match kind {
        LegKind::Plain => {
            let q = &leg.queries;
            metrics.extend([
                metric("setup_s", leg.setup_s, "s"),
                metric(
                    "crawl_fetches_per_s",
                    leg.fetches as f64 / leg.crawl_s,
                    "1/s",
                ),
                metric("peak_rss_mib", peak_rss_mib()?, "MiB"),
                metric("freshness", leg.freshness, "ratio"),
                metric("age_days", leg.age_days, "days"),
                metric("recover_s", leg.recover_s, "s"),
                metric("queries_late", q.late as f64, "count"),
                metric("queries_attempted", q.attempted as f64, "count"),
            ]);
            metrics.extend(layers::program(&leg));
        }
        LegKind::Traced => {
            metrics.extend(layers::traced(&leg));
            if let Some(tracer) = &leg.tracer {
                let path = args
                    .work_dir
                    .join(format!("{name}-seed{}.trace.jsonl", args.seed));
                trace::lock(tracer)
                    .write_jsonl(&path)
                    .map_err(|e| format!("{path:?}: {e}"))?;
                eprintln!("[perfbench] spans written to {}", path.display());
            }
        }
    }
    eprintln!(
        "[perfbench] {name} {} leg: setup {:.3}s, crawl {:.3}s ({} fetches), recover {:.3}s",
        kind.name(),
        leg.setup_s,
        leg.crawl_s,
        leg.fetches,
        leg.recover_s
    );
    let failed = leg.failed + u64::from(!sane);
    println!("ops {} {failed}", leg.attempted);
    for m in &metrics {
        println!("m {} {} {}", m.name, m.unit, m.value);
    }
    let latency: Vec<String> = leg.queries.latency_us.iter().map(f64::to_string).collect();
    println!("lat {}", latency.join(" "));
    Ok(())
}

/// Parent side: run one leg in a child process and parse its report.
fn spawn_leg(args: &Args, kind: LegKind) -> Result<LegReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(&args.work_dir)
        .args(["--leg", kind.name()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a {} leg: {e}", kind.name()))?;
    if !out.status.success() {
        return Err(format!("{} leg exited with {}", kind.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut report = LegReport {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        latency_us: Vec::new(),
    };
    let number = |s: &str| {
        s.parse::<f64>()
            .map_err(|_| format!("bad number {s:?} in a leg report"))
    };
    for line in stdout.lines() {
        let mut words = line.split_whitespace();
        match words.next() {
            Some("ops") => {
                let mut next = || {
                    words
                        .next()
                        .ok_or("short ops line")
                        .and_then(|w| w.parse().map_err(|_| "bad ops line"))
                };
                report.attempted = next()?;
                report.failed = next()?;
            }
            Some("m") => {
                let (Some(name), Some(unit), Some(value)) =
                    (words.next(), words.next(), words.next())
                else {
                    return Err(format!("bad metric line {line:?}"));
                };
                let unit = unit_of(unit).ok_or_else(|| format!("unknown unit in {line:?}"))?;
                report.metrics.push(metric(name, number(value)?, unit));
            }
            Some("lat") => report.latency_us = words.map(number).collect::<Result<_, _>>()?,
            _ => {}
        }
    }
    Ok(report)
}

/// The units a leg report may carry, as static strings.
fn unit_of(unit: &str) -> Option<&'static str> {
    [
        "s", "ms", "us", "1/s", "MiB", "ratio", "days", "count", "bytes",
    ]
    .into_iter()
    .find(|u| *u == unit)
}

/// The median of each metric over runs that report the same names.
fn median_by_name(runs: &[Vec<Metric>]) -> Vec<Metric> {
    runs[0]
        .iter()
        .map(|m| {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.iter().find(|x| x.name == m.name).map(|x| x.value))
                .collect();
            metric(m.name.clone(), median(&values), m.unit)
        })
        .collect()
}

/// The end-to-end metrics over the plain legs.
fn end_to_end(legs: &[&LegReport]) -> Vec<Metric> {
    const PER_LEG: [&str; 6] = [
        "setup_s",
        "crawl_fetches_per_s",
        "peak_rss_mib",
        "freshness",
        "age_days",
        "recover_s",
    ];
    let runs: Vec<Vec<Metric>> = legs
        .iter()
        .map(|leg| {
            leg.metrics
                .iter()
                .filter(|m| PER_LEG.contains(&m.name.as_str()))
                .map(|m| metric(m.name.clone(), m.value, m.unit))
                .collect()
        })
        .collect();
    let mut out = median_by_name(&runs);
    let latency: Vec<f64> = legs
        .iter()
        .flat_map(|leg| leg.latency_us.iter().copied())
        .collect();
    let late: f64 = legs.iter().map(|leg| leg.get("queries_late")).sum();
    let queries: f64 = legs.iter().map(|leg| leg.get("queries_attempted")).sum();
    out.extend([
        metric("query_p50_us", percentile(&latency, 0.50), "us"),
        metric("query_ontime_frac", 1.0 - late / queries.max(1.0), "ratio"),
    ]);
    out
}

/// The per-layer metrics over (plain, traced) pairs: the traced leg's
/// outside timings, the plain leg's record from inside the program, and
/// the tracing overhead between the two.
fn per_layer(pairs: &[(&LegReport, &LegReport)]) -> Vec<Metric> {
    let runs: Vec<Vec<Metric>> = pairs
        .iter()
        .map(|(plain, traced)| {
            let mut run: Vec<Metric> = traced
                .metrics
                .iter()
                .chain(
                    plain
                        .metrics
                        .iter()
                        .filter(|m| layers::is_program_metric(&m.name)),
                )
                .filter(|m| m.name != "crawl_s")
                .map(|m| metric(m.name.clone(), m.value, m.unit))
                .collect();
            let overhead = traced.get("crawl_s") / plain.get("crawl_s") - 1.0;
            run.push(metric("trace.overhead_frac", overhead, "ratio"));
            run
        })
        .collect();
    median_by_name(&runs)
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!(
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    Ok(out)
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work_dir).map_err(|e| format!("{:?}: {e}", args.work_dir))?;
    let name = args.workload.name();
    let start = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut legs: Vec<(LegReport, Option<LegReport>)> = Vec::new();
    // Start another leg only while it should end within the budget, so
    // a run lasts about `--seconds`.
    let min_legs = if args.trace { 1 } else { MIN_LEGS };
    let mut durations: Vec<f64> = Vec::new();
    while legs.len() < min_legs
        || start.elapsed().as_secs_f64() + median(&durations) <= args.seconds
    {
        let leg_start = Instant::now();
        let pair = spawn_leg(args, LegKind::Plain).and_then(|plain| {
            let traced = if args.trace {
                Some(spawn_leg(args, LegKind::Traced)?)
            } else {
                None
            };
            Ok((plain, traced))
        });
        match pair {
            Ok(pair) => {
                for leg in std::iter::once(&pair.0).chain(&pair.1) {
                    attempted += leg.attempted;
                    failed += leg.failed;
                }
                legs.push(pair);
                durations.push(leg_start.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("[perfbench] {name}: {e}");
                attempted += 1;
                failed += 1;
                break;
            }
        }
    }
    eprintln!(
        "[perfbench] {name}: {} leg(s) in {:.1}s",
        legs.len(),
        start.elapsed().as_secs_f64()
    );
    if legs.is_empty() {
        return Err("no leg completed".into());
    }
    let metrics = if args.trace {
        let pairs: Vec<(&LegReport, &LegReport)> = legs
            .iter()
            .filter_map(|(plain, traced)| Some((plain, traced.as_ref()?)))
            .collect();
        per_layer(&pairs)
    } else {
        end_to_end(&legs.iter().map(|(plain, _)| plain).collect::<Vec<_>>())
    };
    json(failed == 0, attempted, failed, &metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.leg {
        Some(kind) => run_child(&args, kind),
        None => run(&args).map(|line| println!("{line}")),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
