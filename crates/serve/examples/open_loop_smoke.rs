//! Bounded open-loop serving smoke: start a daemon, drive the registry's
//! serve mix with concurrent clients, and verify a sample of responses
//! bitwise against solo reruns. Exits non-zero on any mismatch, so CI can
//! gate on it directly.
//!
//! With `DISTILL_CHAOS` set (e.g. `panic=3,seed=7`) the smoke becomes the
//! resilience check: the injected worker panic must be absorbed by the
//! quarantine + client-retry path, every request must still complete, and
//! the surviving responses must stay bit-identical to solo reruns.
//!
//! The smoke doubles as the serving trace-export check: after the run it
//! writes the daemon's chrome://tracing export to
//! `bench_results/trace_serve.json`, re-parses it with the in-repo JSON
//! parser, and fails unless the trace is well-formed and contains the
//! spans the daemon is documented to emit.

use criterion::json::Json;
use std::time::Duration;

use distill_serve::{run_open_loop, ServeConfig, Server, TrafficConfig};

/// Parse a chrome trace export and require well-formed events plus at least
/// one event per `required` name. Panics (non-zero exit) on any violation.
fn validate_trace(path: &str, required: &[&str]) -> usize {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let root = Json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("trace has a traceEvents array");
    assert!(!events.is_empty(), "{path}: traceEvents is empty");
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("event has ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?}");
        assert!(ev.get("name").and_then(Json::as_str).is_some(), "event has name");
        assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "event has ts");
        assert!(ev.get("pid").and_then(Json::as_f64).is_some(), "event has pid");
        assert!(ev.get("tid").and_then(Json::as_f64).is_some(), "event has tid");
        if ph == "X" {
            assert!(ev.get("dur").and_then(Json::as_f64).is_some(), "span has dur");
        }
    }
    for name in required {
        assert!(
            events
                .iter()
                .any(|ev| ev.get("name").and_then(Json::as_str) == Some(name)),
            "{path}: no {name:?} event in the trace"
        );
    }
    events.len()
}

fn main() {
    let families: Vec<String> = distill_models::serve_mix()
        .iter()
        .map(|spec| spec.name.to_string())
        .collect();
    assert!(!families.is_empty(), "registry has no Tag::Serve families");

    // Server::start installs this plan; parse it here too so the smoke
    // knows whether it is exercising the resilience path.
    let chaos = distill::chaos::ChaosPlan::from_env()
        .unwrap_or_else(|e| panic!("bad {} spec: {e}", distill::chaos::CHAOS_ENV));
    let chaos_armed = !chaos.is_inert();

    let server = Server::start(ServeConfig {
        workers: 2,
        batch: 16,
        ..ServeConfig::default()
    });
    let traffic = TrafficConfig {
        families,
        requests: 24,
        trials_per_request: 6,
        clients: 4,
        arrival_interval: Duration::from_micros(100),
        ..TrafficConfig::default()
    };
    let report = run_open_loop(&server, &traffic).expect("open-loop run failed");
    assert!(
        report.failed.is_empty(),
        "requests failed past retry: {:?}",
        report.failed
    );
    assert_eq!(report.requests, traffic.requests, "requests went missing");
    assert_eq!(report.trials, traffic.requests * traffic.trials_per_request);
    if chaos_armed && chaos.panic_trial.is_some() {
        let stats = server.stats();
        assert_eq!(
            stats.worker_panics, 1,
            "armed chaos panic did not fire exactly once"
        );
        assert!(
            report.retries >= 1,
            "quarantined request was not retried by the client"
        );
        println!(
            "serve smoke chaos: absorbed {} worker panic(s), requeued {} trial(s), \
             {} client retry(ies); all responses served",
            stats.worker_panics, stats.requeued_trials, report.retries
        );
    }

    // Identity check: a concurrent burst per family (forcing coalesced
    // spans) must match the same ranges rerun alone, bit for bit.
    let mut checked = 0usize;
    for family in &traffic.families {
        let tickets: Vec<_> = (0..3)
            .map(|_| {
                server
                    .submit(distill_serve::TrialRequest::new(family, 4))
                    .expect("submit failed")
            })
            .collect();
        for ticket in tickets {
            let start = ticket.start();
            let served = ticket.wait().expect("serve failed");
            let solo = server.run_solo(family, start, 4).expect("solo rerun failed");
            assert_eq!(
                served.outputs, solo.outputs,
                "coalesced response diverged from solo run for {family}"
            );
            assert_eq!(served.passes, solo.passes, "pass counts diverged for {family}");
            checked += 1;
        }
    }

    let stats = server.stats();
    println!(
        "serve smoke: {} requests ({} trials) in {:.3}s — {:.0} trials/s, \
         {}/{} coalesced, {} spans ({} coalesced), {} batch calls, {} identity checks",
        report.requests,
        report.trials,
        report.elapsed_s,
        report.throughput_tps,
        report.coalesced_requests,
        report.requests,
        stats.spans,
        stats.coalesced_spans,
        stats.batch_calls,
        checked,
    );

    // Telemetry cross-check: the registry's mirrored counters must agree
    // with the scheduler's own bookkeeping.
    let snap = server.telemetry();
    if snap.enabled {
        assert_eq!(
            snap.counter("serve.spans").unwrap_or(0),
            stats.spans,
            "span counter drifted"
        );
        assert_eq!(
            snap.counter("serve.batch_calls").unwrap_or(0),
            stats.batch_calls,
            "batch-call counter drifted"
        );
        println!(
            "serve smoke telemetry: cache hits={} misses={}, wait p95 {} us",
            snap.counter("serve.cache.hits").unwrap_or(0),
            snap.counter("serve.cache.misses").unwrap_or(0),
            snap.histogram("serve.wait_ns").map_or(0, |h| h.p95 / 1_000),
        );
    }

    // Trace export: drop the server first so its worker threads exit and
    // flush their buffered events into the ring.
    drop(server);
    if snap.enabled {
        let path = "bench_results/trace_serve.json";
        let events = distill_telemetry::write_chrome_trace(path).expect("trace export");
        let parsed = validate_trace(path, &["serve.chunk"]);
        assert_eq!(parsed, events, "export and re-parse disagree on event count");
        println!("serve smoke trace: {events} event(s) -> {path} (valid trace_event JSON)");
    }
}
