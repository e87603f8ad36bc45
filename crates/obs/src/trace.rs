//! A span-based tracer.
//!
//! A [`Tracer`] hands out [`Span`] guards; each finished span becomes a
//! [`SpanRecord`] with microsecond start/duration offsets from the tracer's
//! epoch. The whole recording exports as Chrome `trace_event` JSON —
//! complete (`"ph": "X"`) events that `chrome://tracing` and Perfetto load
//! directly, nesting inferred from timestamp containment.

use std::{
    sync::{
        atomic::{AtomicU32, Ordering},
        Arc, Mutex,
    },
    time::{Duration, Instant},
};

use crate::json::Json;

/// The Chrome-trace thread lane the main pipeline records into; executor
/// workers use `MAIN_TID + 1 + worker_index`.
pub const MAIN_TID: u32 = 1;

/// One finished span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name, e.g. `stage.detect`.
    pub name: String,
    /// Category, e.g. `pipeline`.
    pub cat: String,
    /// Microseconds from the tracer's epoch to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
    /// Nesting depth at the time the span was opened (0 = top level).
    pub depth: u32,
    /// Chrome-trace thread lane ([`MAIN_TID`] for the pipeline thread; one
    /// lane per executor worker).
    pub tid: u32,
    /// Whether the span was flushed while its thread was unwinding from a
    /// panic (i.e. it closed via drop glue inside a `catch_unwind`
    /// isolation boundary). Panicked spans are partial frames: the work
    /// they cover was cut short, but their time is real and must not be
    /// silently dropped from traces or profiles.
    pub panicked: bool,
}

impl SpanRecord {
    /// Whether `self` fully contains `other` on the timeline.
    pub fn contains(&self, other: &SpanRecord) -> bool {
        self.start_us <= other.start_us
            && other.start_us + other.dur_us <= self.start_us + self.dur_us
    }
}

/// One sampled counter value (a Chrome `"ph": "C"` counter event), e.g. the
/// process-wide live heap bytes sampled at a stage boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSample {
    /// Counter track name, e.g. `mem.live_bytes`.
    pub name: String,
    /// Microseconds from the tracer's epoch.
    pub ts_us: u64,
    /// Sampled value.
    pub value: i64,
}

#[derive(Debug, Default)]
struct Inner {
    records: Vec<SpanRecord>,
    counters: Vec<CounterSample>,
}

/// Locks a tracer mutex even when a panicking thread poisoned it: span
/// flushing happens in drop glue during unwinding, and a poisoned-lock
/// panic inside a drop would abort the process instead of letting the
/// harden boundary catch the original fault.
fn lock(m: &Mutex<Inner>) -> std::sync::MutexGuard<'_, Inner> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Records nested timed spans relative to a fixed epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    depth: AtomicU32,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            depth: AtomicU32::new(0),
            inner: Mutex::new(Inner::default()),
        }
    }
}

impl Tracer {
    /// A fresh tracer whose epoch is "now".
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Opens a span on a shared tracer. Ends when the guard is dropped or
    /// [`Span::end`] is called.
    pub fn span(self: &Arc<Tracer>, name: &str, cat: &str) -> Span {
        self.span_on(name, cat, MAIN_TID)
    }

    /// Opens a span on an explicit Chrome-trace thread lane. The sentinel
    /// executor gives each worker its own lane so worker activity renders
    /// side by side in `chrome://tracing` / Perfetto.
    pub fn span_on(self: &Arc<Tracer>, name: &str, cat: &str, tid: u32) -> Span {
        let depth = self.depth.fetch_add(1, Ordering::Relaxed);
        Span {
            tracer: Some(self.clone()),
            name: name.to_string(),
            cat: cat.to_string(),
            start: Instant::now(),
            depth,
            tid,
            done: false,
        }
    }

    /// Microseconds from the tracer's epoch to `t`.
    fn micros(&self, t: Instant) -> u64 {
        let us = t.saturating_duration_since(self.epoch).as_micros();
        us.min(u64::MAX as u128) as u64
    }

    fn finish(&self, span: &mut Span) -> Duration {
        let now = Instant::now();
        let start_us = self.micros(span.start);
        // Derive the duration from a truncated *end* timestamp rather than
        // truncating the elapsed time directly: truncation is then monotone
        // in real time, so a child's recorded interval can never poke out
        // of its parent's by a sub-microsecond rounding artefact.
        let end_us = self.micros(now);
        // Every recorded span was opened by `span_on`, which counted it.
        self.depth.fetch_sub(1, Ordering::Relaxed);
        let mut g = lock(&self.inner);
        g.records.push(SpanRecord {
            name: std::mem::take(&mut span.name),
            cat: std::mem::take(&mut span.cat),
            start_us,
            dur_us: end_us.saturating_sub(start_us),
            depth: span.depth,
            tid: span.tid,
            panicked: std::thread::panicking(),
        });
        now.saturating_duration_since(span.start)
    }

    /// All finished spans, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        lock(&self.inner).records.clone()
    }

    /// Records a counter sample (exported as a Chrome `"ph": "C"` counter
    /// event), timestamped "now" against the tracer's epoch.
    pub fn counter(&self, name: &str, value: i64) {
        let ts_us = self.micros(Instant::now());
        lock(&self.inner).counters.push(CounterSample {
            name: name.to_string(),
            ts_us,
            value,
        });
    }

    /// All recorded counter samples, in recording order.
    pub fn counters(&self) -> Vec<CounterSample> {
        lock(&self.inner).counters.clone()
    }

    /// The recording as a Chrome `trace_event` document.
    pub fn to_chrome_json(&self) -> Json {
        let mut records = self.records();
        // Lanes first, then time; depth breaks the tie when a parent and
        // child share the same microsecond start and duration — the parent
        // must still precede.
        records.sort_by_key(|r| (r.tid, r.start_us, std::cmp::Reverse(r.dur_us), r.depth));
        let mut events: Vec<Json> = records
            .into_iter()
            .map(|r| {
                let mut fields = vec![
                    ("name".into(), Json::Str(r.name)),
                    ("cat".into(), Json::Str(r.cat)),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Int(r.start_us as i64)),
                    ("dur".into(), Json::Int(r.dur_us as i64)),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::Int(r.tid as i64)),
                ];
                if r.panicked {
                    fields.push((
                        "args".into(),
                        Json::Obj(vec![("panicked".into(), Json::Bool(true))]),
                    ));
                }
                Json::Obj(fields)
            })
            .collect();
        // Counter tracks render under the span lanes in chrome://tracing /
        // Perfetto; samples stay in recording (time) order per track.
        let mut counters = self.counters();
        counters.sort_by(|a, b| (&a.name, a.ts_us).cmp(&(&b.name, b.ts_us)));
        events.extend(counters.into_iter().map(|c| {
            Json::Obj(vec![
                ("name".into(), Json::Str(c.name.clone())),
                ("cat".into(), Json::Str("counter".into())),
                ("ph".into(), Json::Str("C".into())),
                ("ts".into(), Json::Int(c.ts_us as i64)),
                ("pid".into(), Json::Int(1)),
                ("args".into(), Json::Obj(vec![(c.name, Json::Int(c.value))])),
            ])
        }));
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }
}

/// An open span; records itself into its tracer when dropped or ended.
///
/// A span with no tracer (from [`crate::scope::span`] when no session is
/// installed) is inert: it still measures elapsed time but records nothing.
#[derive(Debug)]
pub struct Span {
    tracer: Option<Arc<Tracer>>,
    name: String,
    cat: String,
    start: Instant,
    depth: u32,
    tid: u32,
    done: bool,
}

impl Span {
    /// An inert span that measures time but records nowhere.
    pub fn disabled() -> Span {
        Span {
            tracer: None,
            name: String::new(),
            cat: String::new(),
            start: Instant::now(),
            depth: 0,
            tid: MAIN_TID,
            done: false,
        }
    }

    /// Ends the span now and returns its exact measured duration.
    pub fn end(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        if self.done {
            return Duration::ZERO;
        }
        self.done = true;
        match self.tracer.take() {
            Some(t) => t.finish(self),
            None => self.start.elapsed(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_with_nesting_depth() {
        let t = Arc::new(Tracer::new());
        let outer = t.span("outer", "test");
        {
            let _inner = t.span("inner", "test");
        }
        outer.end();
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        // Completion order: inner first.
        assert_eq!(recs[0].name, "inner");
        assert_eq!(recs[0].depth, 1);
        assert_eq!(recs[1].name, "outer");
        assert_eq!(recs[1].depth, 0);
        assert!(recs[1].contains(&recs[0]), "outer must contain inner");
    }

    #[test]
    fn end_returns_elapsed_and_prevents_double_record() {
        let t = Arc::new(Tracer::new());
        let s = t.span("once", "test");
        std::thread::sleep(Duration::from_millis(2));
        let d = s.end();
        assert!(d >= Duration::from_millis(2));
        assert_eq!(t.records().len(), 1);
    }

    #[test]
    fn disabled_span_is_inert() {
        let s = Span::disabled();
        let d = s.end();
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn chrome_export_shape() {
        let t = Arc::new(Tracer::new());
        t.span("a", "cat").end();
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("name").and_then(Json::as_str), Some("a"));
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("pid").and_then(Json::as_i64), Some(1));
        assert!(e.get("ts").and_then(Json::as_i64).is_some());
        assert!(e.get("dur").and_then(Json::as_i64).is_some());
        // Round trips through the parser.
        let text = doc.to_string_pretty();
        assert!(crate::json::parse(&text).is_ok());
    }

    #[test]
    fn worker_lane_spans_export_their_tid() {
        let t = Arc::new(Tracer::new());
        t.span_on("unit", "sentinel", MAIN_TID + 3).end();
        t.span("main", "pipeline").end();
        let recs = t.records();
        assert_eq!(recs[0].tid, MAIN_TID + 3);
        assert_eq!(recs[1].tid, MAIN_TID);
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Export groups by lane: the main lane precedes the worker lane.
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("main"));
        assert_eq!(events[0].get("tid").and_then(Json::as_i64), Some(1));
        assert_eq!(events[1].get("tid").and_then(Json::as_i64), Some(4));
    }

    #[test]
    fn span_dropped_during_unwind_is_flushed_with_panicked_tag() {
        let t = Arc::new(Tracer::new());
        let tc = t.clone();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _open = tc.span("doomed", "test");
            panic!("boom");
        }));
        assert!(caught.is_err());
        let recs = t.records();
        assert_eq!(recs.len(), 1, "open span must be flushed, not dropped");
        assert_eq!(recs[0].name, "doomed");
        assert!(recs[0].panicked, "unwound span must carry panicked: true");
        // A clean span on the same (recovered) thread is not tagged.
        t.span("fine", "test").end();
        assert!(!t.records()[1].panicked);
        // The tag round-trips into the Chrome export as args.panicked.
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let doomed = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("doomed"))
            .unwrap();
        assert_eq!(
            doomed
                .get("args")
                .and_then(|a| a.get("panicked"))
                .and_then(Json::as_bool),
            Some(true)
        );
        let fine = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("fine"))
            .unwrap();
        assert!(fine.get("args").is_none());
    }

    #[test]
    fn tracer_survives_lock_poisoning_by_a_panicked_holder() {
        // A thread that panics between span open and close must not poison
        // the tracer for everyone else (flushing happens in drop glue where
        // a second panic would abort the process).
        let t = Arc::new(Tracer::new());
        let tc = t.clone();
        let _ = std::thread::spawn(move || {
            let _open = tc.span("worker", "test");
            panic!("worker died");
        })
        .join();
        t.span("after", "test").end();
        let names: Vec<_> = t.records().into_iter().map(|r| r.name).collect();
        assert!(names.contains(&"worker".to_string()));
        assert!(names.contains(&"after".to_string()));
    }

    #[test]
    fn counter_samples_export_as_chrome_counter_events() {
        let t = Arc::new(Tracer::new());
        t.counter("mem.live_bytes", 1024);
        t.counter("mem.live_bytes", 2048);
        t.span("work", "test").end();
        assert_eq!(t.counters().len(), 2);
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let cs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
            .collect();
        assert_eq!(cs.len(), 2);
        assert_eq!(
            cs[0]
                .get("args")
                .and_then(|a| a.get("mem.live_bytes"))
                .and_then(Json::as_i64),
            Some(1024)
        );
        assert!(crate::json::parse(&doc.to_string_pretty()).is_ok());
    }

    #[test]
    fn export_orders_parents_before_children() {
        let t = Arc::new(Tracer::new());
        let outer = t.span("outer", "test");
        t.span("inner", "test").end();
        outer.end();
        let doc = t.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events[0].get("name").and_then(Json::as_str), Some("outer"));
        assert_eq!(events[1].get("name").and_then(Json::as_str), Some("inner"));
    }
}
