#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Structured observability for the execution stack: a sharded span
//! recorder and a counter registry.
//!
//! The engine ([`mr-sim`]), the resident worker pool, the retained delta
//! path, the DAG executor, and the planner's cache are all instrumented
//! with *spans* (named intervals) and *counters*. This crate is the
//! substrate they write into; it deliberately depends on nothing, so
//! every other crate in the workspace can depend on it without cycles.
//!
//! # The recorder
//!
//! Tracing is **off by default** and costs one relaxed atomic load per
//! instrumentation site while off; the cost of turning it *on* is what
//! the perf ledger reports as `obs.traced_overhead_pct`. [`record`]
//! turns it on around a closure and returns the collected [`Trace`] next
//! to the closure's result:
//!
//! ```
//! let (sum, trace) = mr_obs::record(|| {
//!     let _g = mr_obs::span("add");
//!     1 + 1
//! });
//! assert_eq!(sum, 2);
//! assert_eq!(trace.span_count("add"), 1);
//! ```
//!
//! Every thread that records during a session gets its own **lane** — a
//! per-worker buffer named after the thread (the resident pool's workers
//! are `mr-pool-0`, `mr-pool-1`, …), so recording is contention-free on
//! the hot path. At collection the lanes are merged deterministically:
//! lanes sort by name, and each lane's events sort by start time with
//! longer (enclosing) spans first, which is exactly parent-before-child
//! order for the nested spans a lane produces.
//!
//! Spans are recorded *transactionally*: a [`SpanGuard`] stamps its
//! start on construction and emits one closed-interval event on drop.
//! There is no open-`Begin`/separate-`End` pair to split, so a collected
//! trace can never contain a half-open span — [`Trace::check_well_formed`]
//! verifies the remaining structural invariants (per-lane start-time
//! ordering and strict interval nesting, never partial overlap).
//!
//! Sessions serialise on a process-wide lock (concurrent [`record`]
//! calls queue), and guards carry the session epoch, so a guard that
//! outlives its session records nothing rather than leaking into the
//! next trace.
//!
//! # The metrics hub
//!
//! [`MetricsHub`] is a named-counter registry designed as the
//! scrape surface a future `mr-serve` daemon would expose. Counters are
//! always on (an atomic add is the whole cost); the process-wide hub is
//! [`global`], and subsystems that need per-instance stats (the plan
//! cache) own a private hub with the same API.
//!
//! # Exports
//!
//! [`Trace::chrome_json`] renders the Chrome `trace_event` format, which
//! loads directly in Perfetto (`ui.perfetto.dev`) or `chrome://tracing`.
//! Aggregated JSON snapshots are rendered by the consumer (`repro
//! trace`) so they can share `mr-bench`'s JSON builder.
//!
//! [`mr-sim`]: https://docs.rs/mr-sim

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

// -----------------------------------------------------------------
// Recorder state.
// -----------------------------------------------------------------

/// The one-word gate every instrumentation site checks first. Relaxed is
/// enough: a site that misses a just-started session records nothing,
/// which is indistinguishable from running slightly earlier.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether a recording session is active. One relaxed atomic load — the
/// entire disabled-mode cost of a `span`/`instant` call site.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A span/instant name: static in the common case, owned when a call
/// site labels dynamically (DAG node names). The owned variant is only
/// ever constructed while tracing is on.
#[derive(Debug, Clone)]
enum Name {
    Static(&'static str),
    Owned(String),
}

impl Name {
    fn as_str(&self) -> &str {
        match self {
            Name::Static(s) => s,
            Name::Owned(s) => s,
        }
    }
}

/// One raw event as a lane stores it: absolute instants, converted to
/// session-relative offsets at collection.
#[derive(Debug)]
struct RawEvent {
    name: Name,
    at: Instant,
    /// `Some(dur)` for a closed span, `None` for an instant marker.
    dur: Option<Duration>,
    value: Option<u64>,
    /// True for cross-thread intervals (see [`complete`]): exempt from
    /// the lane's span-nesting discipline.
    asynchronous: bool,
}

/// A per-thread event buffer. Threads append under their own mutex (no
/// cross-thread contention while recording); collection drains it.
#[derive(Debug)]
struct LaneBuf {
    name: String,
    events: Mutex<Vec<RawEvent>>,
}

/// Process-wide recorder state behind [`state`].
struct RecorderState {
    /// Serialises sessions: held for the whole of [`record`].
    session: Mutex<()>,
    /// Bumped per session; guards and thread-lane caches carry it so
    /// stale writers from a previous session are rejected.
    epoch: AtomicU64,
    /// The active session's start instant (collection converts event
    /// instants to offsets from it).
    start: Mutex<Option<Instant>>,
    /// Every lane that wrote during the active session.
    lanes: Mutex<Vec<Arc<LaneBuf>>>,
}

fn state() -> &'static RecorderState {
    static STATE: OnceLock<RecorderState> = OnceLock::new();
    STATE.get_or_init(|| RecorderState {
        session: Mutex::new(()),
        epoch: AtomicU64::new(0),
        start: Mutex::new(None),
        lanes: Mutex::new(Vec::new()),
    })
}

/// Locks a mutex, recovering from poisoning (a panicking traced closure
/// must not wedge every later session).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// This thread's lane for the epoch it last recorded in.
    static LANE: RefCell<Option<(u64, Arc<LaneBuf>)>> = const { RefCell::new(None) };
}

/// The calling thread's lane for `epoch`, registering a fresh one (named
/// after the thread) on first use per session.
fn lane_for(epoch: u64) -> Arc<LaneBuf> {
    LANE.with(|slot| {
        let mut slot = slot.borrow_mut();
        if let Some((e, lane)) = slot.as_ref() {
            if *e == epoch {
                return Arc::clone(lane);
            }
        }
        let mut lanes = lock(&state().lanes);
        let name = match std::thread::current().name() {
            Some(n) => n.to_string(),
            None => format!("anon-{}", lanes.len()),
        };
        let lane = Arc::new(LaneBuf {
            name,
            events: Mutex::new(Vec::new()),
        });
        lanes.push(Arc::clone(&lane));
        drop(lanes);
        *slot = Some((epoch, Arc::clone(&lane)));
        lane
    })
}

/// Appends `event` to the calling thread's lane if the session `epoch`
/// is still the active one.
fn push(epoch: u64, event: RawEvent) {
    if !is_enabled() || state().epoch.load(Ordering::Relaxed) != epoch {
        return;
    }
    lock(&lane_for(epoch).events).push(event);
}

// -----------------------------------------------------------------
// Instrumentation API.
// -----------------------------------------------------------------

/// An open span: created by [`span`]/[`span_with`], recorded as one
/// closed interval when dropped. Inert (a no-op holding no allocation)
/// when tracing is off at construction or the session ended before the
/// drop.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    live: Option<(Name, Instant, u64)>,
}

impl SpanGuard {
    fn begin(name: Name) -> SpanGuard {
        let epoch = state().epoch.load(Ordering::Relaxed);
        SpanGuard {
            live: Some((name, Instant::now(), epoch)),
        }
    }

    const INERT: SpanGuard = SpanGuard { live: None };
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, at, epoch)) = self.live.take() {
            let dur = at.elapsed();
            push(
                epoch,
                RawEvent {
                    name,
                    at,
                    dur: Some(dur),
                    value: None,
                    asynchronous: false,
                },
            );
        }
    }
}

/// Opens a statically named span over the guard's scope.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::INERT;
    }
    SpanGuard::begin(Name::Static(name))
}

/// Opens a dynamically labelled span; the label closure only runs (and
/// only allocates) while tracing is on.
#[inline]
pub fn span_with(label: impl FnOnce() -> String) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard::INERT;
    }
    SpanGuard::begin(Name::Owned(label()))
}

/// Records a point-in-time marker carrying a value (an occupancy gauge,
/// a queue depth).
#[inline]
pub fn instant_value(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let epoch = state().epoch.load(Ordering::Relaxed);
    push(
        epoch,
        RawEvent {
            name: Name::Static(name),
            at: Instant::now(),
            dur: None,
            value: Some(value),
            asynchronous: false,
        },
    );
}

/// `Some(now)` while tracing is on — for spans whose start and end live
/// on different threads (a queue wait starts at enqueue on the caller
/// and ends at claim on a worker). Pair with [`complete`].
#[inline]
pub fn now_if_enabled() -> Option<Instant> {
    if is_enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records a closed span that `started` at an instant captured earlier
/// (see [`now_if_enabled`]) and ends now, on the calling thread's lane.
///
/// The interval is marked *asynchronous*: its start predates whatever
/// spans the recording thread had open (the wait began on another
/// thread), so it is exempt from the lane's nesting discipline and the
/// Chrome export renders it as an async `b`/`e` pair rather than a
/// stack-nested `X` slice.
#[inline]
pub fn complete(name: &'static str, started: Instant) {
    if !is_enabled() {
        return;
    }
    let epoch = state().epoch.load(Ordering::Relaxed);
    push(
        epoch,
        RawEvent {
            name: Name::Static(name),
            at: started,
            dur: Some(started.elapsed()),
            value: None,
            asynchronous: true,
        },
    );
}

// -----------------------------------------------------------------
// Sessions and collection.
// -----------------------------------------------------------------

/// Resets [`ENABLED`] even if the traced closure panics.
struct EnabledGuard;

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// Runs `f` with tracing enabled and returns its result next to the
/// collected [`Trace`].
///
/// Sessions serialise on a process-wide lock; a concurrent `record`
/// blocks until the active one finishes. Recording is process-global —
/// spans from unrelated threads that happen to run during the session
/// land in the trace too (they are closed intervals on their own lanes,
/// so the trace stays well-formed) — and, by the workspace determinism
/// contract, enabling it never perturbs any semantic output.
pub fn record<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let s = state();
    let _session = lock(&s.session);
    let start = Instant::now();
    *lock(&s.start) = Some(start);
    lock(&s.lanes).clear();
    s.epoch.fetch_add(1, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let enabled = EnabledGuard;
    let result = f();
    drop(enabled);
    (result, collect(start))
}

/// Drains the session's lanes into a [`Trace`]: lanes sorted by name,
/// each lane's events sorted by `(start, longest-first)` — parent
/// spans before their children.
fn collect(start: Instant) -> Trace {
    let mut lanes: Vec<Lane> = lock(&state().lanes)
        .drain(..)
        .map(|buf| {
            let mut events: Vec<Event> = lock(&buf.events)
                .drain(..)
                .map(|raw| Event {
                    name: raw.name.as_str().to_string(),
                    ts: raw.at.saturating_duration_since(start),
                    dur: raw.dur,
                    value: raw.value,
                    asynchronous: raw.asynchronous,
                })
                .collect();
            events.sort_by(|a, b| {
                a.ts.cmp(&b.ts)
                    .then_with(|| b.dur.unwrap_or_default().cmp(&a.dur.unwrap_or_default()))
                    .then_with(|| a.name.cmp(&b.name))
            });
            Lane {
                name: buf.name.clone(),
                events,
            }
        })
        .filter(|lane| !lane.events.is_empty())
        .collect();
    lanes.sort_by(|a, b| a.name.cmp(&b.name));
    Trace { lanes }
}

// -----------------------------------------------------------------
// The collected trace.
// -----------------------------------------------------------------

/// One collected event: a closed span (`dur: Some`) or an instant
/// marker (`dur: None`), at offset `ts` from the session start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event name, e.g. `engine.map` or `pool.queue_wait`.
    pub name: String,
    /// Offset from the session start.
    pub ts: Duration,
    /// Span length; `None` for instant markers.
    pub dur: Option<Duration>,
    /// Gauge value for instants that carry one.
    pub value: Option<u64>,
    /// True for cross-thread intervals recorded with [`complete`]: their
    /// start predates the recording thread's open spans, so they are
    /// exempt from lane nesting and export as Chrome async events.
    pub asynchronous: bool,
}

/// One thread's merged event sequence, named after the thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lane {
    /// The recording thread's name (`mr-pool-3`, a test name, `anon-N`).
    pub name: String,
    /// Events sorted by start time, enclosing spans first.
    pub events: Vec<Event>,
}

/// A deterministically merged recording session: lanes in name order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Per-thread lanes, sorted by lane name.
    pub lanes: Vec<Lane>,
}

impl Trace {
    /// Total number of events across all lanes.
    pub fn total_events(&self) -> usize {
        self.lanes.iter().map(|l| l.events.len()).sum()
    }

    /// How many events named `name` the trace holds (spans and instants).
    pub fn span_count(&self, name: &str) -> usize {
        self.lanes
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| e.name == name)
            .count()
    }

    /// Per-name aggregates over all span events: `(count, total, max)`
    /// of the span durations, keyed by name in sorted order. Instant
    /// markers aggregate with zero duration.
    pub fn aggregate(&self) -> BTreeMap<String, SpanAggregate> {
        let mut agg: BTreeMap<String, SpanAggregate> = BTreeMap::new();
        for event in self.lanes.iter().flat_map(|l| &l.events) {
            let entry = agg.entry(event.name.clone()).or_default();
            entry.count += 1;
            let dur = event.dur.unwrap_or_default();
            entry.total += dur;
            entry.max = entry.max.max(dur);
        }
        agg
    }

    /// Verifies the structural invariants collection promises: per lane,
    /// events are sorted by start time, and synchronous span intervals
    /// either nest or are disjoint — never partially overlapping.
    /// Asynchronous intervals ([`complete`]) start on another thread, so
    /// they are sort-checked but exempt from the nesting discipline.
    /// Every span is closed by construction (guards record one complete
    /// interval), so a violation here means the recorder itself is
    /// broken.
    pub fn check_well_formed(&self) -> Result<(), String> {
        for lane in &self.lanes {
            let mut prev_ts = Duration::ZERO;
            // Stack of enclosing span end-offsets.
            let mut open: Vec<Duration> = Vec::new();
            for event in &lane.events {
                if event.ts < prev_ts {
                    return Err(format!(
                        "lane {}: event {} starts before its predecessor",
                        lane.name, event.name
                    ));
                }
                prev_ts = event.ts;
                while let Some(&enclosing_end) = open.last() {
                    if enclosing_end <= event.ts {
                        open.pop();
                    } else {
                        break;
                    }
                }
                if event.asynchronous {
                    continue;
                }
                if let Some(dur) = event.dur {
                    let end = event.ts + dur;
                    if let Some(&enclosing_end) = open.last() {
                        if end > enclosing_end {
                            return Err(format!(
                                "lane {}: span {} partially overlaps its enclosing span",
                                lane.name, event.name
                            ));
                        }
                    }
                    open.push(end);
                }
            }
        }
        Ok(())
    }

    /// Renders the Chrome `trace_event` format (JSON Object Format with
    /// a `traceEvents` array of `X`/`b`/`e`/`i`/`M` events, timestamps
    /// in microseconds) — loadable in Perfetto or `chrome://tracing`.
    /// Synchronous spans export as stack-nested `X` slices; asynchronous
    /// intervals (queue waits) as `b`/`e` pairs with per-event ids, so
    /// their cross-thread extents never corrupt the thread stacks.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        let mut first = true;
        let mut push_event = |s: String, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&s);
        };
        let mut async_id: u64 = 0;
        for (tid, lane) in self.lanes.iter().enumerate() {
            push_event(
                format!(
                    "{{\"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
                     \"args\": {{\"name\": {}}}}}",
                    json_string(&lane.name)
                ),
                &mut out,
            );
            for event in &lane.events {
                let ts = micros(event.ts);
                let rendered = match event.dur {
                    Some(dur) if event.asynchronous => {
                        async_id += 1;
                        let name = json_string(&event.name);
                        let end = micros(event.ts + dur);
                        push_event(
                            format!(
                                "{{\"ph\": \"b\", \"pid\": 1, \"tid\": {tid}, \"name\": {name}, \
                                 \"cat\": \"mr\", \"id\": \"0x{async_id:x}\", \"ts\": {ts}}}",
                            ),
                            &mut out,
                        );
                        format!(
                            "{{\"ph\": \"e\", \"pid\": 1, \"tid\": {tid}, \"name\": {name}, \
                             \"cat\": \"mr\", \"id\": \"0x{async_id:x}\", \"ts\": {end}}}",
                        )
                    }
                    Some(dur) => format!(
                        "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"name\": {}, \
                         \"cat\": \"mr\", \"ts\": {ts}, \"dur\": {}}}",
                        json_string(&event.name),
                        micros(dur)
                    ),
                    None => {
                        let args = match event.value {
                            Some(v) => format!(", \"args\": {{\"value\": {v}}}"),
                            None => String::new(),
                        };
                        format!(
                            "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {tid}, \"name\": {}, \
                             \"cat\": \"mr\", \"s\": \"t\", \"ts\": {ts}{args}}}",
                            json_string(&event.name)
                        )
                    }
                };
                push_event(rendered, &mut out);
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-name span statistics from [`Trace::aggregate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAggregate {
    /// Number of events with this name.
    pub count: u64,
    /// Sum of span durations (zero for instants).
    pub total: Duration,
    /// Longest single span.
    pub max: Duration,
}

/// Microseconds with fixed millisecond-precision rendering — the
/// `trace_event` timestamp unit.
fn micros(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e6)
}

/// A JSON string literal (quoted, escaped) — self-contained so this
/// crate stays dependency-free.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// -----------------------------------------------------------------
// The metrics hub.
// -----------------------------------------------------------------

/// A monotonically increasing counter handle — an `Arc`'d atomic, so
/// call sites clone it once and pay one atomic add per increment.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named counter registry — the scrape surface.
///
/// The process-wide instance is [`global`]; subsystems that need
/// per-instance stats (e.g. `PlanCache`) own a private hub. Counter
/// handles are get-or-create by name ([`MetricsHub::counter`]) and cheap
/// to clone; [`MetricsHub::counters`] snapshots everything in name order
/// for export.
#[derive(Debug, Default)]
pub struct MetricsHub {
    counters: Mutex<BTreeMap<String, Counter>>,
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use. Clone the
    /// handle out of hot paths so increments skip the registry lock.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = lock(&self.counters);
        match counters.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter::default();
                counters.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// Current value of the counter named `name` (zero if it was never
    /// touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.counters).get(name).map_or(0, Counter::get)
    }

    /// Every counter as `(name, value)`, in name order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock(&self.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect()
    }
}

/// The process-wide hub the execution stack's always-on counters live
/// in (`pool.*`, `engine.*`, `delta.*`, `dag.*`).
pub fn global() -> &'static MetricsHub {
    static GLOBAL: OnceLock<MetricsHub> = OnceLock::new();
    GLOBAL.get_or_init(MetricsHub::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_mode_records_nothing() {
        // Recording is process-global and the sibling tests run sessions
        // on other threads: hold the session lock so "disabled" is a
        // fact rather than a race.
        let no_session = lock(&state().session);
        assert!(!is_enabled());
        let g = span("never");
        instant_value("never", 7);
        assert!(now_if_enabled().is_none());
        drop(g);
        drop(no_session);
        let ((), trace) = record(|| {});
        assert_eq!(trace.total_events(), 0);
    }

    #[test]
    fn record_collects_nested_spans_in_parent_first_order() {
        let (value, trace) = record(|| {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                std::thread::sleep(Duration::from_micros(50));
            }
            instant_value("gauge", 3);
            42
        });
        assert_eq!(value, 42);
        assert_eq!(trace.lanes.len(), 1);
        let names: Vec<&str> = trace.lanes[0]
            .events
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(names, vec!["outer", "inner", "gauge"]);
        assert!(trace.lanes[0].events[0].dur >= trace.lanes[0].events[1].dur);
        assert_eq!(trace.lanes[0].events[2].value, Some(3));
        trace
            .check_well_formed()
            .expect("nested spans are well-formed");
        let agg = trace.aggregate();
        assert_eq!(agg["outer"].count, 1);
        assert!(agg["outer"].total >= agg["inner"].total);
    }

    #[test]
    fn lanes_merge_across_threads_sorted_by_name() {
        let ((), trace) = record(|| {
            let spawn = |name: &str| {
                std::thread::Builder::new()
                    .name(name.to_string())
                    .spawn(|| {
                        let _g = span("work");
                    })
                    .expect("spawn")
            };
            let b = spawn("lane-b");
            let a = spawn("lane-a");
            a.join().unwrap();
            b.join().unwrap();
        });
        let names: Vec<&str> = trace.lanes.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["lane-a", "lane-b"]);
        assert_eq!(trace.span_count("work"), 2);
        trace.check_well_formed().expect("one span per lane");
    }

    #[test]
    fn guards_outliving_their_session_record_nothing() {
        let (guard, trace) = record(|| span("straddler"));
        assert_eq!(trace.span_count("straddler"), 0);
        drop(guard); // after the session: must not panic, must not leak.
        let ((), next) = record(|| {});
        assert_eq!(next.span_count("straddler"), 0);
    }

    #[test]
    fn cross_thread_completes_record_the_enqueue_to_claim_interval() {
        let ((), trace) = record(|| {
            let t0 = now_if_enabled().expect("enabled inside record");
            std::thread::sleep(Duration::from_micros(100));
            complete("queue_wait", t0);
        });
        assert_eq!(trace.span_count("queue_wait"), 1);
        let event = &trace.lanes[0].events[0];
        assert!(event.dur.expect("a complete is a span") >= Duration::from_micros(100));
        assert!(event.asynchronous, "completes are cross-thread intervals");
        // Chrome export renders the interval as an async b/e pair.
        let json = trace.chrome_json();
        assert!(json.contains("\"ph\": \"b\""), "{json}");
        assert!(json.contains("\"ph\": \"e\""), "{json}");
    }

    #[test]
    fn well_formedness_rejects_partial_overlap() {
        let trace = Trace {
            lanes: vec![Lane {
                name: "bad".into(),
                events: vec![
                    Event {
                        name: "a".into(),
                        ts: Duration::from_micros(0),
                        dur: Some(Duration::from_micros(10)),
                        value: None,
                        asynchronous: false,
                    },
                    Event {
                        name: "b".into(),
                        ts: Duration::from_micros(5),
                        dur: Some(Duration::from_micros(10)),
                        value: None,
                        asynchronous: false,
                    },
                ],
            }],
        };
        let err = trace.check_well_formed().expect_err("partial overlap");
        assert!(err.contains("partially overlaps"), "{err}");

        // The same shape is legal when the straddling interval is a
        // cross-thread (asynchronous) one: its start lives on another
        // thread, so it is exempt from the lane's nesting discipline.
        let mut relaxed = trace;
        relaxed.lanes[0].events[1].asynchronous = true;
        relaxed.check_well_formed().expect("async overlap is legal");
    }

    #[test]
    fn chrome_json_renders_thread_metadata_and_x_events() {
        let ((), trace) = record(|| {
            let _g = span("engine.map");
            instant_value("pool.occupancy", 2);
        });
        let json = trace.chrome_json();
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"M\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"name\": \"engine.map\""));
        assert!(json.contains("\"args\": {\"value\": 2}"));
    }

    #[test]
    fn json_strings_escape_controls_and_quotes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn hub_counters_are_shared_by_name() {
        let hub = MetricsHub::new();
        let a = hub.counter("x");
        let b = hub.counter("x");
        a.add(2);
        b.incr();
        assert_eq!(hub.counter_value("x"), 3);
        assert_eq!(hub.counter_value("absent"), 0);
        assert_eq!(hub.counters(), vec![("x".to_string(), 3)]);
    }

    #[test]
    fn global_hub_is_one_instance() {
        let c = global().counter("obs.test.global");
        c.incr();
        assert!(global().counter_value("obs.test.global") >= 1);
    }
}
