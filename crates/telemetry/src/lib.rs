//! Workspace-wide observability for the Distill runtime.
//!
//! Every performance claim in the paper is an attribution claim — which
//! decision bought which speedup — and answering that at runtime needs two
//! complementary surfaces, both provided here:
//!
//! * a **metrics registry** ([`metrics`]): named counters, gauges and
//!   fixed-bucket histograms with p50/p95/p99 snapshots. Steady-state
//!   updates are single relaxed atomic operations on `&'static` handles, so
//!   probes are cheap enough to stay on in release builds; registration
//!   (the only locked path) happens once per name.
//! * **span tracing** ([`trace`]): begin/end spans with monotonic
//!   timestamps and per-thread ids, buffered thread-locally and drained
//!   into a bounded global ring buffer, exportable as chrome://tracing
//!   `trace_event` JSON or a plain-text summary.
//!
//! Both exports escape strings with the [`json`] module, whose [`json::Json`]
//! tree also parses them back and writes the `figures` reports.
//!
//! Both surfaces honour one **kill switch**: setting the environment
//! variable `DISTILL_TELEMETRY=0` (or calling [`set_enabled`]`(false)`)
//! turns every probe in the workspace into a single relaxed load plus an
//! untaken branch — no clocks read, no atomics bumped, no events buffered.
//! Telemetry never changes what the runtime computes: all bit-identity
//! differentials hold with probes on or off.
//!
//! # Naming convention
//!
//! Metric and span names are dot-separated, `subsystem.noun[.detail]`,
//! lowercase: `engine.tier.fused.dispatch_ns`, `serve.wait_ns`,
//! `dsweep.lease`. Histograms carry their unit as a `_ns` / `_trials`
//! suffix. The README's *Observability* section lists the full catalog.
//!
//! # Example
//!
//! ```
//! use distill_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! let requests = telemetry::registry().counter("doc.requests");
//! requests.inc();
//! {
//!     let mut span = telemetry::span("doc.handle");
//!     span.arg_i64("request", 1);
//! } // span records on drop
//! telemetry::flush_thread();
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("doc.requests"), Some(1));
//! assert!(telemetry::chrome_trace_json().contains("doc.handle"));
//! ```

pub mod json;
pub mod metrics;
pub mod trace;

pub use metrics::{
    registry, snapshot, Counter, Gauge, Histogram, HistogramSnapshot, Registry, TelemetrySnapshot,
};
pub use trace::{
    chrome_trace_json, clear_trace, complete_span_at, flush_thread, instant, now_us, span,
    trace_summary, write_chrome_trace, ArgValue, SpanGuard,
};

use std::sync::atomic::{AtomicU8, Ordering};

/// Kill-switch state: 0 = uninitialised (read the environment on first
/// probe), 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Whether telemetry probes are live. This is the guard every probe in the
/// workspace checks first; when it returns `false` the probe must do no
/// further work. The first call reads `DISTILL_TELEMETRY` once — telemetry
/// defaults **on** (probes are cheap by design) and `DISTILL_TELEMETRY=0`
/// disables it.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = std::env::var("DISTILL_TELEMETRY").map_or(true, |v| v != "0");
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Override the kill switch in-process (tests, A/B overhead measurements).
/// The environment variable is only consulted before the first probe; this
/// call wins afterwards.
pub fn set_enabled(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_toggles() {
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
