//! In-memory spans recorded by the traced run around each call into a
//! solver layer. Spans are kept until the run ends and then summarised
//! per name (calls and total time).

use std::sync::Mutex;
use std::time::Instant;

use serde::Value;

use crate::report::num;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start: Instant,
    end: Option<Instant>,
}

/// Identifier of an open or closed span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// Span recorder shared by the driving thread and the rank threads.
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            spans: Mutex::new(Vec::with_capacity(4096)),
        }
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str) -> SpanId {
        let start = Instant::now();
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            start,
            end: None,
        });
        SpanId(spans.len() - 1)
    }

    pub fn end(&self, id: SpanId) {
        let end = Instant::now();
        self.spans.lock().expect("span lock")[id.0].end = Some(end);
    }

    /// Record a span that was timed by the caller.
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        self.spans.lock().expect("span lock").push(Span {
            name,
            start,
            end: Some(end),
        });
    }

    /// Run `f` inside a span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Per-name summary of the closed spans: calls and total
    /// milliseconds.
    pub fn summary(&self) -> Value {
        let spans = self.spans.lock().expect("span lock");
        let mut rows: Vec<(&'static str, u64, f64)> = Vec::new();
        for s in spans.iter() {
            let Some(end) = s.end else { continue };
            let dur = (end - s.start).as_secs_f64();
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += dur;
                }
                None => rows.push((s.name, 1, dur)),
            }
        }
        Value::Object(
            rows.into_iter()
                .map(|(name, calls, total)| {
                    (
                        name.to_string(),
                        Value::Object(vec![
                            ("calls".into(), Value::U64(calls)),
                            ("total_ms".into(), num(total * 1e3)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}
