//! The traced run's recorder: three timing wrappers around the layers the
//! crawl thread calls into, and the span list they fill.
//!
//! Every wrapper call stamps its entry and exit on one shared timeline. The
//! time between two calls belongs to the engine (`core`): from the return
//! of one fetch or `on_fetch` to the entry of the next one is the slot
//! loop (apply the outcome, feed AllUrls, pop the queue); from the last
//! per-fetch call to the entry of `on_pass_boundary` (or of `publish`, when
//! no hook runs) is the ranking pass with its metrics sample; from the
//! start of the drive or the return of a boundary or publish to the next
//! fetch (or the end of the drive) is the idle phase between batches (the
//! periodic engine samples metrics and seeds its next window there). The
//! one gap left unattributed, between a boundary and its publish, is what
//! keeps `trace.coverage` honest.
//!
//! Per-fetch calls are accumulated, not kept as spans: a 12-day crawl makes
//! 320k fetches. The span list holds one `slots` span per run of
//! consecutive fetch slots (with its call count) and one span per pass,
//! boundary and publish, all children of the `drive` span.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use webevo::core::view::{ViewBoundary, ViewPublisher};
use webevo::prelude::{
    CrawlHook, CrawlerState, FetchError, FetchOutcome, FetchRecord, Fetcher, FetcherState, Url,
};

/// Where the crawl thread's time went, one accumulator per layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `sim`: `Fetcher::fetch`.
    Fetch,
    /// `store`: `CrawlHook::on_fetch` (WAL record buffering).
    OnFetch,
    /// `store`: `CrawlHook::on_pass_boundary` (WAL flush, snapshot hand-off).
    Boundary,
    /// `serve`: `ViewPublisher::publish` (view build and epoch swap).
    Publish,
    /// `core`: the slot loop between two per-fetch calls.
    Slot,
    /// `core`: the ranking pass before a boundary.
    Pass,
    /// `core`: the engine between a boundary and the next batch.
    Idle,
}

pub const LAYERS: [Layer; 7] = [
    Layer::Fetch,
    Layer::OnFetch,
    Layer::Boundary,
    Layer::Publish,
    Layer::Slot,
    Layer::Pass,
    Layer::Idle,
];

/// Busy time and call count of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    pub ns: u64,
    pub calls: u64,
}

impl Busy {
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Calls the span stands for (fetch slots for `slots`, else 1).
    pub calls: u64,
}

/// The shared timeline. See the module docs.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    busy: [Busy; LAYERS.len()],
    spans: Vec<Span>,
    /// The open `drive` span.
    drive: Option<usize>,
    /// The open `slots` span of the current run of fetch slots.
    slots: Option<usize>,
    /// Exit time and layer of the previous wrapper call in this drive.
    last: Option<(u64, Layer)>,
    /// Fetches that returned an error (simulated 404s and failures).
    pub fetch_errors: u64,
}

pub type SharedTracer = Arc<Mutex<Tracer>>;

impl Tracer {
    pub fn shared() -> SharedTracer {
        Arc::new(Mutex::new(Tracer {
            origin: Instant::now(),
            busy: [Busy::default(); LAYERS.len()],
            spans: Vec::new(),
            drive: None,
            slots: None,
            last: None,
            fetch_errors: 0,
        }))
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn busy(&self, layer: Layer) -> Busy {
        self.busy[layer as usize]
    }

    /// Total time of the spans named `name`.
    pub fn span_secs(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Record a finished span outside any drive (set-up, recovery steps).
    pub fn record(&mut self, name: &'static str, start: Instant) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            calls: 1,
        });
    }

    pub fn begin_drive(&mut self) {
        let start_ns = self.now();
        self.drive = Some(self.spans.len());
        self.spans.push(Span {
            name: "drive",
            start_ns,
            end_ns: start_ns,
            parent: None,
            calls: 1,
        });
        self.last = Some((start_ns, Layer::Idle));
    }

    pub fn end_drive(&mut self) {
        let now = self.now();
        self.close_slots();
        if let Some((prev_end, _)) = self.last.take() {
            self.add_gap(Layer::Idle, prev_end, now);
        }
        if let Some(drive) = self.drive.take() {
            self.spans[drive].end_ns = now;
        }
    }

    fn add_gap(&mut self, gap: Layer, from: u64, to: u64) {
        let busy = &mut self.busy[gap as usize];
        busy.ns += to - from;
        busy.calls += 1;
        if gap != Layer::Slot {
            self.close_slots();
            let name = if gap == Layer::Pass { "pass" } else { "idle" };
            self.spans.push(Span {
                name,
                start_ns: from,
                end_ns: to,
                parent: self.drive,
                calls: 1,
            });
        }
    }

    fn close_slots(&mut self) {
        if let (Some(slots), Some((end, _))) = (self.slots.take(), self.last) {
            self.spans[slots].end_ns = end;
        }
    }

    /// Stamp a wrapper's entry: attribute the gap since the previous call,
    /// then open the span bookkeeping for `layer`.
    fn enter(&mut self, layer: Layer) -> u64 {
        let now = self.now();
        let per_fetch = |l: Layer| matches!(l, Layer::Fetch | Layer::OnFetch);
        if let Some((prev_end, prev)) = self.last {
            let gap = match (per_fetch(prev), layer) {
                (true, Layer::Fetch | Layer::OnFetch) => Some(Layer::Slot),
                (true, _) => Some(Layer::Pass),
                (false, Layer::Fetch) => Some(Layer::Idle),
                (false, _) => None,
            };
            if let Some(gap) = gap {
                self.add_gap(gap, prev_end, now);
            }
        }
        if per_fetch(layer) {
            match self.slots {
                Some(slots) => {
                    if layer == Layer::Fetch {
                        self.spans[slots].calls += 1;
                    }
                }
                None => {
                    self.slots = Some(self.spans.len());
                    self.spans.push(Span {
                        name: "slots",
                        start_ns: now,
                        end_ns: now,
                        parent: self.drive,
                        calls: 1,
                    });
                }
            }
        } else {
            self.close_slots();
        }
        now
    }

    fn exit(&mut self, layer: Layer, start_ns: u64) {
        let now = self.now();
        let busy = &mut self.busy[layer as usize];
        busy.ns += now - start_ns;
        busy.calls += 1;
        if let Some(name) = match layer {
            Layer::Boundary => Some("boundary"),
            Layer::Publish => Some("publish"),
            _ => None,
        } {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: now,
                parent: self.drive,
                calls: 1,
            });
        }
        self.last = Some((now, layer));
    }

    /// Write the spans as JSON lines: name, start, end, parent, calls.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// The wrapped layers never call back into the tracer, so each wrapper
/// holds the lock across its inner call: one lock per call.
pub fn lock(tracer: &SharedTracer) -> MutexGuard<'_, Tracer> {
    tracer
        .lock()
        .expect("no wrapper panicked while holding the tracer")
}

/// Times `Fetcher::fetch` and forwards the replay-state calls untimed.
pub struct TimedFetcher<'f> {
    pub inner: &'f mut dyn Fetcher,
    pub tracer: SharedTracer,
}

impl Fetcher for TimedFetcher<'_> {
    fn fetch(&mut self, url: Url, t: f64) -> Result<FetchOutcome, FetchError> {
        let mut tracer = lock(&self.tracer);
        let start = tracer.enter(Layer::Fetch);
        let result = self.inner.fetch(url, t);
        tracer.exit(Layer::Fetch, start);
        tracer.fetch_errors += u64::from(result.is_err());
        result
    }

    fn export_state(&self) -> Option<FetcherState> {
        self.inner.export_state()
    }

    fn observe_replay(&mut self, url: Url, t: f64, result: &Result<FetchOutcome, FetchError>) {
        self.inner.observe_replay(url, t, result);
    }

    fn restore_state(&mut self, state: FetcherState) {
        self.inner.restore_state(state);
    }
}

/// Times both `CrawlHook` callbacks of the wrapped hook (the checkpointer).
pub struct TimedHook<'h> {
    pub inner: &'h mut dyn CrawlHook,
    pub tracer: SharedTracer,
}

impl CrawlHook for TimedHook<'_> {
    fn active(&self) -> bool {
        self.inner.active()
    }

    fn on_fetch(&mut self, record: &FetchRecord) {
        let mut tracer = lock(&self.tracer);
        let start = tracer.enter(Layer::OnFetch);
        self.inner.on_fetch(record);
        tracer.exit(Layer::OnFetch, start);
    }

    fn on_pass_boundary(&mut self, t: f64, export: &mut dyn FnMut() -> CrawlerState) {
        let mut tracer = lock(&self.tracer);
        let start = tracer.enter(Layer::Boundary);
        self.inner.on_pass_boundary(t, export);
        tracer.exit(Layer::Boundary, start);
    }
}

/// Times `ViewPublisher::publish` of the serving layer's publisher.
pub struct TimedPublisher {
    pub inner: Box<dyn ViewPublisher>,
    pub tracer: SharedTracer,
}

impl ViewPublisher for TimedPublisher {
    fn publish(&mut self, boundary: ViewBoundary<'_>) {
        let mut tracer = lock(&self.tracer);
        let start = tracer.enter(Layer::Publish);
        self.inner.publish(boundary);
        tracer.exit(Layer::Publish, start);
    }
}
