//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans go to a `camp_obs::Recorder`, kept in memory and exported as a
//! Chrome trace at the end. The recorder's own timestamps have
//! microsecond resolution, so every span also carries its duration in
//! nanoseconds as the `ns` attribute; per-layer metrics are computed from
//! that attribute. With tracing off, [`Tracer::span`] only calls its
//! closure, so an untraced run executes the same code minus the
//! bookkeeping.

use camp_obs::span::AttrValue;
use camp_obs::{Json, Recorder, SpanRecord};
use std::collections::BTreeMap;
use std::time::Instant;

/// Optional span recorder.
pub struct Tracer {
    recorder: Option<Recorder>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { recorder: on.then(Recorder::new) }
    }

    /// Runs `f` inside a span of `layer` named `stage:subject`, parented
    /// under the calling thread's current span.
    pub fn span<R>(
        &self,
        layer: &'static str,
        stage: &'static str,
        subject: &str,
        f: impl FnOnce() -> R,
    ) -> R {
        let Some(recorder) = &self.recorder else {
            return f();
        };
        let mut scope = recorder.scope(layer, format!("{stage}:{subject}"));
        let start = Instant::now();
        let result = f();
        scope.attr("ns", start.elapsed().as_nanos() as u64);
        result
    }

    /// Runs `f` with `parent` as the thread's current span (hand-off to a
    /// worker thread).
    pub fn with_parent<R>(&self, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        match &self.recorder {
            Some(recorder) => recorder.with_parent(parent, f),
            None => f(),
        }
    }

    /// Runs `f` inside a root span and passes it the span's id.
    pub fn root<R>(&self, layer: &'static str, name: &str, f: impl FnOnce(Option<u64>) -> R) -> R {
        let Some(recorder) = &self.recorder else {
            return f(None);
        };
        let mut scope = recorder.scope_rooted(layer, name.to_string());
        let start = Instant::now();
        let result = f(Some(scope.id()));
        scope.attr("ns", start.elapsed().as_nanos() as u64);
        result
    }

    /// Per-(layer, stage) span durations, plus a Chrome trace of the
    /// first [`CHROME_RECORDS`] records.
    pub fn finish(self) -> Option<(Spans, String)> {
        let records = self.recorder?.records();
        let chrome = chrome_trace(&records[..records.len().min(CHROME_RECORDS)]);
        Some((Spans::from_records(&records), chrome))
    }
}

/// Records exported to the Chrome trace; a traced `serve-online` run
/// records about ten per request, and the whole set would make a trace
/// of hundreds of MiB that no viewer loads.
const CHROME_RECORDS: usize = 50_000;

/// Chrome trace-event document (`chrome://tracing`, Perfetto): one
/// complete event per span, one `tid` per thread, attributes as `args`.
fn chrome_trace(records: &[SpanRecord]) -> String {
    let events = records
        .iter()
        .map(|record| {
            let args = record.attrs.iter().map(|(key, value)| (key.to_string(), value.to_json()));
            Json::obj(vec![
                ("name", record.name.as_str().into()),
                ("cat", record.category.into()),
                ("ph", "X".into()),
                ("ts", record.start_us.into()),
                ("dur", record.dur_us.into()),
                ("pid", 1u64.into()),
                ("tid", record.thread.into()),
                ("args", Json::Obj(args.collect())),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", "ms".into()),
    ])
    .render()
}

/// Span durations grouped by `(layer, stage)`.
#[derive(Default)]
pub struct Spans {
    by_stage: BTreeMap<(String, String), Vec<(String, f64)>>,
}

impl Spans {
    fn from_records(records: &[SpanRecord]) -> Spans {
        let mut spans = Spans::default();
        for record in records {
            let Some(ns) = record.attrs.iter().find_map(|(key, value)| match (key, value) {
                (&"ns", AttrValue::U64(ns)) => Some(*ns as f64),
                _ => None,
            }) else {
                continue;
            };
            let (stage, subject) = record.name.split_once(':').unwrap_or((&record.name, ""));
            spans
                .by_stage
                .entry((record.category.to_string(), stage.to_string()))
                .or_default()
                .push((subject.to_string(), ns));
        }
        spans
    }

    /// `(subject, ns)` of every span of one stage.
    pub fn stage(&self, layer: &str, stage: &str) -> &[(String, f64)] {
        self.by_stage
            .get(&(layer.to_string(), stage.to_string()))
            .map_or(&[], Vec::as_slice)
    }

    /// Durations of one stage, in microseconds.
    pub fn micros(&self, layer: &str, stage: &str) -> Vec<f64> {
        self.stage(layer, stage).iter().map(|(_, ns)| ns / 1e3).collect()
    }

    /// Total seconds spent in one stage (summed over threads).
    pub fn total_s(&self, layer: &str, stage: &str) -> f64 {
        self.stage(layer, stage).iter().map(|(_, ns)| ns).sum::<f64>() / 1e9
    }

    /// Mean microseconds per span of one stage (0 when it never ran).
    pub fn mean_us(&self, layer: &str, stage: &str) -> f64 {
        crate::stats::mean(&self.micros(layer, stage))
    }
}
