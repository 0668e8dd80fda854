//! Benchmark-side spans: one per call into a layer, recorded from the
//! benchmark's own files, kept in memory and written out at exit.
//!
//! A span has a name, the layer (crate) it calls into, start and end, the
//! span that caused it and the id of the op it belongs to. (Self times per
//! layer are computed in `layers.rs`, from the same clock readings.)

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    /// Index of the causing span, `None` for a root.
    pub parent: Option<usize>,
    /// Shared by all spans of one op.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans when on; every call is a no-op when off (measured runs).
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn scope<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            op,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let r = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        r
    }

    /// Time a leaf call into a layer and return `(result, elapsed ns)`. The
    /// elapsed time is measured whether or not the tracer is on, so layer
    /// replay reads the same clock the span records.
    pub fn call<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(layer, name, op, start, end);
        (r, end.duration_since(start).as_nanos() as u64)
    }

    /// Record a span observed elsewhere (another thread, or timed by hand)
    /// as a child of the currently open span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            op,
            start_ns,
            end_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// chrome://tracing `trace_event` JSON. Each event's `args` carry the
    /// span id, its parent's id and the op id.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(s.layer)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Int(i as u64 + 1)),
                            ("parent", Json::Int(s.parent.map_or(0, |p| p as u64 + 1))),
                            ("op", Json::Int(s.op)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_point_at_parents_and_share_the_op_id() {
        let mut t = Tracer::new(true);
        t.scope("loadgen", "replay", 7, |t| {
            t.call("codegen", "stage", 7, || {
                std::thread::sleep(Duration::from_millis(2))
            });
            t.scope("core", "run", 7, |t| {
                t.call("exec", "call", 7, || {
                    std::thread::sleep(Duration::from_millis(3))
                });
            });
        });
        t.scope("loadgen", "other", 8, |_| {});
        let spans = t.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().take(4).all(|s| s.op == 7));
        let trace = t.chrome_trace().to_string();
        assert!(trace.contains("\"parent\": 3") && trace.contains("\"op\": 7"));
    }

    #[test]
    fn an_off_tracer_records_nothing_but_still_times_calls() {
        let mut t = Tracer::new(false);
        let (v, ns) = t.call("exec", "call", 1, || {
            std::thread::sleep(Duration::from_millis(1));
            5
        });
        assert_eq!(v, 5);
        assert!(ns >= 1_000_000);
        t.scope("core", "run", 1, |_| {});
        assert!(t.spans().is_empty());
    }
}
