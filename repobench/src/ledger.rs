//! The traced run's span recorder and per-operation layer ledger.
//!
//! Every span has an explicit parent link. Spans come in four categories:
//!
//! - **op**: one measured operation, the same calls the untraced run makes;
//! - **layer**: a public call the operation makes, timed from the
//!   benchmark's side;
//! - **engine**: a span the program recorded itself into the
//!   [`ObsSession`](vc_obs::ObsSession) the call was given, re-parented
//!   under that call;
//! - **probe**: an extra call the benchmark makes after an operation has
//!   ended, only to split or explain one of its layers (e.g. lexing alone).
//!   Probes never run inside an operation, so they cannot inflate it.
//!
//! A layer or engine span may carry the per-layer metric its duration counts
//! toward. Values are accumulated per operation by metric name with
//! [`Ledger::add`]; [`Ledger::means`] averages them over operations.

use std::{
    collections::BTreeMap,
    time::Instant, //
};

use vc_obs::{
    Json,
    SpanRecord, //
};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Span name (the public call it wraps, or the program's span name).
    pub name: String,
    /// `op`, `layer`, `engine`, or `probe`.
    pub cat: &'static str,
    /// Parent span id (`None` for an operation's or a probe group's root).
    pub parent: Option<usize>,
    /// Microseconds from the ledger's epoch to the span start.
    pub start_us: f64,
    /// Duration in microseconds (zero while open).
    pub dur_us: f64,
    /// The per-layer metric the span's duration counts toward.
    pub metric: Option<&'static str>,
}

/// Per-layer values of one finished operation, by metric name.
#[derive(Clone, Debug, Default)]
struct OpRecord {
    e2e_ms: f64,
    values: BTreeMap<&'static str, f64>,
}

/// Span recorder plus per-operation ledger.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    spans: Vec<SpanRec>,
    ops: Vec<OpRecord>,
    current: OpRecord,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            epoch: Instant::now(),
            spans: Vec::new(),
            ops: Vec::new(),
            current: OpRecord::default(),
        }
    }
}

impl Ledger {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    fn open(&mut self, name: &str, cat: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(SpanRec {
            name: name.to_string(),
            cat,
            parent,
            start_us,
            dur_us: 0.0,
            metric: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in milliseconds.
    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.dur_us = end - span.start_us;
        span.dur_us / 1e3
    }

    /// Starts an operation: opens its root span and a fresh value record.
    pub fn begin_op(&mut self, name: &str) -> usize {
        self.current = OpRecord::default();
        self.open(name, "op", None)
    }

    /// Closes the operation's root span and returns its milliseconds.
    /// Values added after this, by its probes, still count toward it
    /// until the next [`begin_op`](Self::begin_op).
    pub fn end_op(&mut self, op: usize) -> f64 {
        let e2e = self.close(op);
        self.current.e2e_ms = e2e;
        e2e
    }

    /// Runs `f` in a layer span under `parent`; its milliseconds are added
    /// to `metric` when one is given. Returns the result, the span id and
    /// the milliseconds.
    pub fn layer<T>(
        &mut self,
        name: &str,
        metric: Option<&'static str>,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize, f64) {
        let id = self.open(name, "layer", Some(parent));
        let out = f();
        let ms = self.close(id);
        if let Some(m) = metric {
            self.spans[id].metric = Some(m);
            self.add(m, ms);
        }
        (out, id, ms)
    }

    /// Opens the root of a group of probes for the current operation.
    pub fn begin_probes(&mut self, name: &str) -> usize {
        self.open(name, "probe", None)
    }

    /// Closes a probe group opened by [`begin_probes`](Self::begin_probes).
    pub fn end_probes(&mut self, group: usize) {
        self.close(group);
    }

    /// Runs `f` in a probe span under `group`; returns its result and
    /// milliseconds.
    pub fn probe<T>(&mut self, name: &str, group: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open(name, "probe", Some(group));
        let out = f();
        (out, self.close(id))
    }

    /// Adds the program's own spans from `records` under the layer span
    /// `call` that produced them. `names` maps each kept span name to the
    /// metrics its duration counts toward (the first one tags the span);
    /// other spans are dropped. Program time is aligned so that the first
    /// kept span starts where `call` started, and a span nests under the
    /// innermost kept span that contains it.
    pub fn adopt(
        &mut self,
        call: usize,
        records: &[SpanRecord],
        names: &[(&str, &[&'static str])],
    ) {
        let mut kept: Vec<(&SpanRecord, &[&'static str])> = records
            .iter()
            .filter_map(|r| {
                let (_, metrics) = names.iter().find(|(n, _)| *n == r.name)?;
                Some((r, *metrics))
            })
            .collect();
        // Outer spans first where two start together.
        kept.sort_by_key(|(r, _)| (r.start_us, std::cmp::Reverse(r.dur_us)));
        let Some(first) = kept.first().map(|(r, _)| r.start_us) else {
            return;
        };
        let base = self.spans[call].start_us;
        // (span id, end in program microseconds) of the open enclosing spans.
        let mut stack: Vec<(usize, u64)> = Vec::new();
        for (r, metrics) in kept {
            while stack
                .last()
                .is_some_and(|&(_, end)| end < r.start_us + r.dur_us)
            {
                stack.pop();
            }
            let parent = stack.last().map_or(call, |&(id, _)| id);
            self.spans.push(SpanRec {
                name: r.name.clone(),
                cat: "engine",
                parent: Some(parent),
                start_us: base + (r.start_us - first) as f64,
                dur_us: r.dur_us as f64,
                metric: metrics.first().copied(),
            });
            stack.push((self.spans.len() - 1, r.start_us + r.dur_us));
            for m in metrics {
                self.add(m, r.dur_us as f64 / 1e3);
            }
        }
    }

    /// Adds `value` to metric `name` of the current operation. Names
    /// starting with `n.` are counts that only feed derived ratios.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.current.values.entry(name).or_insert(0.0) += value;
    }

    /// Files the current operation's record; call once its probes are done.
    pub fn finish_op(&mut self) {
        self.ops.push(std::mem::take(&mut self.current));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per-operation means of every metric seen, plus the mean operation
    /// time. Metrics an operation did not record count as zero for it.
    pub fn means(&self) -> (BTreeMap<&'static str, f64>, f64) {
        let n = self.ops.len().max(1) as f64;
        let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
        for op in &self.ops {
            for (k, v) in &op.values {
                *sums.entry(k).or_insert(0.0) += v;
            }
        }
        let e2e = self.ops.iter().map(|o| o.e2e_ms).sum::<f64>() / n;
        (sums.into_iter().map(|(k, v)| (k, v / n)).collect(), e2e)
    }

    /// The recording as a Chrome `trace_event` document; each event's
    /// `args` carry its span id, parent id and metric.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id".to_string(), Json::Int(id as i64))];
                if let Some(p) = s.parent {
                    args.push(("parent".to_string(), Json::Int(p as i64)));
                }
                if let Some(m) = s.metric {
                    args.push(("metric".to_string(), Json::Str(m.to_string())));
                }
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("cat".into(), Json::Str(s.cat.to_string())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Float(s.start_us)),
                    ("dur".into(), Json::Float(s.dur_us)),
                    ("pid".into(), Json::Int(1)),
                    ("tid".into(), Json::Int(1)),
                    ("args".into(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name: name.into(),
            cat: "test".into(),
            start_us,
            dur_us,
            depth: 0,
            tid: 1,
            panicked: false,
        }
    }

    #[test]
    fn adopted_spans_nest_and_count_toward_their_metrics() {
        let mut l = Ledger::default();
        let op = l.begin_op("op");
        let (_, call, _) = l.layer("call", None, op, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let records = [
            record("inner", 1_100, 300),
            record("skipped", 1_050, 10),
            record("outer", 1_000, 1_000),
            record("later", 1_500, 200),
        ];
        l.adopt(
            call,
            &records,
            &[
                ("outer", &[]),
                ("inner", &["a_ms"]),
                ("later", &["a_ms", "b_ms"]),
            ],
        );
        let e2e = l.end_op(op);
        let group = l.begin_probes("probes");
        let (_, p) = l.probe("p", group, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        l.end_probes(group);
        l.finish_op();
        assert!(p >= 3.0 && e2e >= 2.0);
        let spans = l.spans();
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(spans[by_name("outer")].parent, Some(call));
        assert_eq!(spans[by_name("inner")].parent, Some(by_name("outer")));
        assert_eq!(spans[by_name("later")].parent, Some(by_name("outer")));
        assert_eq!(
            spans[by_name("later")].start_us - spans[by_name("outer")].start_us,
            500.0
        );
        assert!(!spans.iter().any(|s| s.name == "skipped"));
        let (means, mean_e2e) = l.means();
        assert_eq!(means["a_ms"], 0.5);
        assert_eq!(means["b_ms"], 0.2);
        assert_eq!(mean_e2e, e2e);
    }
}
