//! Span tracing with chrome://tracing export.
//!
//! Spans are recorded as *complete* events (`ph: "X"` — one record carrying
//! both start timestamp and duration) against a process-wide monotonic
//! epoch; point-in-time occurrences (a tier promotion, a worker death) are
//! *instant* events (`ph: "i"`). Events are buffered in a small per-thread
//! `Vec` and drained into a bounded global ring buffer either when the
//! local buffer fills, when the thread exits, or on an explicit
//! [`flush_thread`] — so the hot path never takes the ring's lock.
//!
//! The ring keeps the newest [`RING_CAP`] events and counts what it had to
//! drop, so a long-lived daemon can stay instrumented without unbounded
//! memory. [`chrome_trace_json`] renders the ring as a `trace_event` JSON
//! object (`{"traceEvents": [...]}`) that loads directly in
//! chrome://tracing or Perfetto; [`trace_summary`] renders a per-name
//! plain-text digest for terminals.

use crate::json::escape;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum events retained in the global ring buffer; beyond it the oldest
/// events are dropped (and counted) so tracing never grows without bound.
pub const RING_CAP: usize = 65_536;

/// Events a thread buffers locally before draining into the ring.
const LOCAL_CAP: usize = 128;

/// One argument value attached to a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Integer payload (ids, counts, epochs).
    I64(i64),
    /// Floating-point payload.
    F64(f64),
    /// String payload (family names, worker labels).
    Str(String),
}

impl ArgValue {
    fn render(&self, out: &mut String) {
        match self {
            ArgValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            ArgValue::F64(v) => escape(&v.to_string(), out),
            ArgValue::Str(s) => escape(s, out),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Complete,
    Instant,
}

#[derive(Debug, Clone)]
struct Event {
    name: &'static str,
    phase: Phase,
    /// Microseconds since the process trace epoch.
    ts_us: u64,
    /// Duration in microseconds (complete events only).
    dur_us: u64,
    tid: u64,
    args: Vec<(&'static str, ArgValue)>,
}

/// The trace epoch: every timestamp is measured from the first probe.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process trace epoch — the clock all spans share.
/// Useful for [`complete_span_at`], where begin and end are observed at
/// different places.
pub fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Small dense thread ids (chrome://tracing lanes), assigned on first use.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Relaxed);
    }
    TID.with(|t| *t)
}

#[derive(Default)]
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(Mutex::default)
}

struct LocalBuf(Vec<Event>);

impl Drop for LocalBuf {
    fn drop(&mut self) {
        drain(&mut self.0);
    }
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const { RefCell::new(LocalBuf(Vec::new())) };
}

fn drain(events: &mut Vec<Event>) {
    if events.is_empty() {
        return;
    }
    let mut ring = ring().lock().expect("trace ring poisoned");
    for ev in events.drain(..) {
        if ring.events.len() == RING_CAP {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(ev);
    }
}

fn push(ev: Event) {
    LOCAL.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.0.push(ev);
        if buf.0.len() >= LOCAL_CAP {
            drain(&mut buf.0);
        }
    });
}

/// Drain the calling thread's buffered events into the global ring. Export
/// helpers call this for their own thread; long-lived worker threads flush
/// automatically when their buffer fills and when they exit.
pub fn flush_thread() {
    LOCAL.with(|buf| drain(&mut buf.borrow_mut().0));
}

/// A live span: records a complete event from construction to drop. Obtain
/// one with [`span`]; attach arguments with the `arg_*` methods. When
/// telemetry is disabled the guard is inert.
#[must_use = "a span measures until it is dropped; binding it to _ ends it immediately"]
pub struct SpanGuard {
    name: &'static str,
    start_us: u64,
    active: bool,
    args: Vec<(&'static str, ArgValue)>,
}

impl SpanGuard {
    /// Attach an integer argument (visible in the chrome trace).
    pub fn arg_i64(&mut self, key: &'static str, v: i64) {
        if self.active {
            self.args.push((key, ArgValue::I64(v)));
        }
    }

    /// Attach a float argument.
    pub fn arg_f64(&mut self, key: &'static str, v: f64) {
        if self.active {
            self.args.push((key, ArgValue::F64(v)));
        }
    }

    /// Attach a string argument.
    pub fn arg_str(&mut self, key: &'static str, v: &str) {
        if self.active {
            self.args.push((key, ArgValue::Str(v.to_string())));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = now_us();
        push(Event {
            name: self.name,
            phase: Phase::Complete,
            ts_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            tid: thread_id(),
            args: std::mem::take(&mut self.args),
        });
    }
}

/// Begin a span named `name` on the calling thread; it records when the
/// returned guard drops. A no-op guard is returned when telemetry is off.
pub fn span(name: &'static str) -> SpanGuard {
    let active = crate::enabled();
    SpanGuard {
        name,
        start_us: if active { now_us() } else { 0 },
        active,
        args: Vec::new(),
    }
}

/// Record a point-in-time event (tier promotion, worker death, epoch bump).
pub fn instant(name: &'static str, args: Vec<(&'static str, ArgValue)>) {
    if !crate::enabled() {
        return;
    }
    push(Event {
        name,
        phase: Phase::Instant,
        ts_us: now_us(),
        dur_us: 0,
        tid: thread_id(),
        args,
    });
}

/// Record a complete span whose start was observed earlier (via
/// [`now_us`]) — the shape cross-thread lifecycles need, e.g. a dsweep
/// lease issued in one poll iteration and completed in a later one.
pub fn complete_span_at(name: &'static str, start_us: u64, args: Vec<(&'static str, ArgValue)>) {
    if !crate::enabled() {
        return;
    }
    push(Event {
        name,
        phase: Phase::Complete,
        ts_us: start_us,
        dur_us: now_us().saturating_sub(start_us),
        tid: thread_id(),
        args,
    });
}

/// Forget every recorded event (tests and A/B harnesses).
pub fn clear_trace() {
    flush_thread();
    let mut ring = ring().lock().expect("trace ring poisoned");
    ring.events.clear();
    ring.dropped = 0;
}

fn collect() -> (Vec<Event>, u64) {
    flush_thread();
    let ring = ring().lock().expect("trace ring poisoned");
    (ring.events.iter().cloned().collect(), ring.dropped)
}

/// Render every retained event as chrome://tracing `trace_event` JSON
/// (`{"traceEvents": [...]}`). Load it via chrome://tracing or
/// <https://ui.perfetto.dev>. Only the calling thread's buffer is flushed
/// first; other live threads contribute what they have already drained.
pub fn chrome_trace_json() -> String {
    let (events, dropped) = collect();
    render_chrome_trace(&events, dropped)
}

fn render_chrome_trace(events: &[Event], dropped: u64) -> String {
    let pid = std::process::id();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ph = match ev.phase {
            Phase::Complete => "X",
            Phase::Instant => "i",
        };
        out.push_str("{\"name\":");
        escape(ev.name, &mut out);
        let _ = write!(
            out,
            ",\"cat\":\"distill\",\"ph\":\"{ph}\",\"ts\":{},",
            ev.ts_us
        );
        if ev.phase == Phase::Complete {
            let _ = write!(out, "\"dur\":{},", ev.dur_us);
        } else {
            // Instant events scope to their thread lane.
            out.push_str("\"s\":\"t\",");
        }
        let _ = write!(out, "\"pid\":{pid},\"tid\":{}", ev.tid);
        if !ev.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in ev.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                escape(k, &mut out);
                out.push(':');
                v.render(&mut out);
            }
            out.push('}');
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"dropped_events\":{dropped}}}}}"
    );
    out
}

/// Write [`chrome_trace_json`] to `path`, creating its parent directory if
/// needed, and return the number of events exported. The count and the file
/// come from one snapshot of the ring, so they always agree.
pub fn write_chrome_trace(path: impl AsRef<std::path::Path>) -> std::io::Result<usize> {
    let path = path.as_ref();
    let (events, dropped) = collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render_chrome_trace(&events, dropped))?;
    Ok(events.len())
}

/// A plain-text digest of the retained events: per name, the occurrence
/// count and (for spans) total/mean duration — the terminal-friendly
/// counterpart of the chrome export.
pub fn trace_summary() -> String {
    let (events, dropped) = collect();
    struct Row {
        count: u64,
        total_us: u64,
        max_us: u64,
        instant: bool,
    }
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    for ev in &events {
        let row = rows.entry(ev.name).or_insert(Row {
            count: 0,
            total_us: 0,
            max_us: 0,
            instant: ev.phase == Phase::Instant,
        });
        row.count += 1;
        row.total_us += ev.dur_us;
        row.max_us = row.max_us.max(ev.dur_us);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace summary: {} event(s), {} dropped",
        events.len(),
        dropped
    );
    for (name, row) in &rows {
        if row.instant {
            let _ = writeln!(out, "  {:<32} x{:<8} (instant)", name, row.count);
        } else {
            let _ = writeln!(
                out,
                "  {:<32} x{:<8} total {:>10.3} ms  mean {:>9.3} ms  max {:>9.3} ms",
                name,
                row.count,
                row.total_us as f64 / 1e3,
                row.total_us as f64 / 1e3 / row.count.max(1) as f64,
                row.max_us as f64 / 1e3
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    // The ring buffer is process-global, so every test serialises on this
    // lock and starts from a cleared ring.
    fn locked() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        clear_trace();
        guard
    }

    #[test]
    fn span_records_on_drop_with_args() {
        let _g = locked();
        {
            let mut sp = span("test.work");
            sp.arg_i64("items", 3);
            sp.arg_str("who", "unit");
        }
        instant("test.tick", vec![("n", ArgValue::I64(1))]);
        let json = chrome_trace_json();
        assert!(json.contains("\"name\":\"test.work\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"items\":3"));
        assert!(json.contains("\"who\":\"unit\""));
        assert!(json.contains("\"name\":\"test.tick\""));
        assert!(json.contains("\"ph\":\"i\""));
        let summary = trace_summary();
        assert!(summary.contains("test.work"));
        assert!(summary.contains("(instant)"));
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let _g = locked();
        crate::set_enabled(false);
        {
            let mut sp = span("test.silent");
            sp.arg_i64("x", 1);
        }
        instant("test.silent_i", Vec::new());
        complete_span_at("test.silent_c", 0, Vec::new());
        crate::set_enabled(true);
        let json = chrome_trace_json();
        assert!(!json.contains("test.silent"));
    }

    #[test]
    fn complete_span_at_measures_from_given_start() {
        let _g = locked();
        let t0 = now_us();
        complete_span_at("test.lease", t0, vec![("epoch", ArgValue::I64(2))]);
        let json = chrome_trace_json();
        assert!(json.contains("\"name\":\"test.lease\""));
        assert!(json.contains("\"epoch\":2"));
    }

    #[test]
    fn ring_drops_oldest_beyond_cap() {
        let _g = locked();
        for _ in 0..RING_CAP + 10 {
            instant("test.flood", Vec::new());
        }
        flush_thread();
        let ring = ring().lock().unwrap();
        assert_eq!(ring.events.len(), RING_CAP);
        assert!(ring.dropped >= 10);
    }

    #[test]
    fn write_chrome_trace_creates_the_directory_and_counts_what_it_writes() {
        let _g = locked();
        for i in 0..5 {
            instant("test.export", vec![("i", ArgValue::I64(i))]);
        }
        let root = std::env::temp_dir().join(format!("distill-trace-{}", std::process::id()));
        let path = root.join("missing").join("nested").join("trace.json");
        let written = write_chrome_trace(&path).expect("trace export");
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&root).ok();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), written);
        assert_eq!(written, 5);
    }

    #[test]
    fn span_args_escape_and_parse_back_unchanged() {
        let _g = locked();
        let nasty = "quote \" backslash \\ newline \n control \u{1} non-ascii \u{e9}\u{1F600}";
        {
            let mut sp = span("test.escape");
            sp.arg_str("text", nasty);
        }
        let doc = Json::parse(&chrome_trace_json()).expect("trace parses");
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let text = events[0].get("args").and_then(|a| a.get("text"));
        assert_eq!(text.and_then(Json::as_str), Some(nasty));
    }
}
