//! Integration tests of the telemetry layer against the `Session`/`Runner`
//! API: the metrics registry's per-run counters must agree exactly with the
//! `RunResult::stats` the driver reports, the `DISTILL_TELEMETRY=0` kill
//! switch must be bit-transparent and probe-free, and the chrome-trace
//! export must be machine-parseable `trace_event` JSON.

use distill::{RunSpec, Session};
use distill_models::predator_prey_s;
use distill_telemetry as telemetry;
use distill_telemetry::json::Json;
use std::sync::Mutex;

/// The registry, trace ring and kill switch are process-global, so every
/// test serialises on this lock and restores telemetry to enabled.
fn locked() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    telemetry::set_enabled(true);
    guard
}

fn run_workload(trials: usize) -> distill::RunResult {
    let w = predator_prey_s();
    Session::new(&w.model)
        .build()
        .expect("session builds")
        .run(&RunSpec::new(w.inputs.clone(), trials))
        .expect("run succeeds")
}

/// Property: the registry's `run.*` counter movement across a run equals
/// the `RunResult::stats` delta the driver itself reports — the two
/// surfaces can never disagree about what a run cost.
#[test]
fn snapshot_delta_equals_run_result_stats() {
    let _g = locked();
    let before = telemetry::snapshot();
    let result = run_workload(6);
    let after = telemetry::snapshot();

    let delta = |name: &str| after.counter_delta(&before, name);
    assert_eq!(delta("run.instructions"), result.stats.instructions);
    assert_eq!(delta("run.calls"), result.stats.calls);
    assert_eq!(delta("run.loads"), result.stats.loads);
    assert_eq!(delta("run.stores"), result.stats.stores);
    assert_eq!(delta("run.frame_pool_hits"), result.stats.frame_pool_hits);
    assert_eq!(delta("run.fused_ops"), result.stats.fused_ops);
    assert_eq!(delta("run.frame_slots"), result.stats.frame_slots);
    assert_eq!(delta("run.completed"), 1);

    // The engine-level dispatch probes fired too. Each per-tier `calls`
    // increment is one top-level engine entry; `stats.calls` additionally
    // counts the calls those entries made internally, so the tier total is
    // a positive lower bound.
    let tier_calls: u64 = after
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("engine.tier.") && name.ends_with(".calls"))
        .map(|&(ref name, v)| v - before.counter(name).unwrap_or(0))
        .sum();
    assert!(tier_calls > 0, "no tier dispatch probe fired");
    assert!(
        tier_calls <= result.stats.calls,
        "tier entries ({tier_calls}) exceed total calls ({})",
        result.stats.calls
    );
}

/// Property: with the kill switch thrown, a run is bitwise identical to an
/// instrumented run and moves no counter and records no trace event — the
/// probes must cost exactly nothing, not merely little.
#[test]
fn kill_switch_is_bit_identical_and_probe_free() {
    let _g = locked();
    let on = run_workload(5);

    telemetry::set_enabled(false);
    telemetry::clear_trace();
    let before = telemetry::snapshot();
    let off = run_workload(5);
    let after = telemetry::snapshot();
    let trace = telemetry::chrome_trace_json();
    telemetry::set_enabled(true);

    assert_eq!(on.outputs, off.outputs, "kill switch altered outputs");
    assert_eq!(on.passes, off.passes, "kill switch altered pass counts");
    assert_eq!(
        on.stats, off.stats,
        "kill switch altered the engine's own statistics"
    );
    for (name, v) in &after.counters {
        assert_eq!(
            *v,
            before.counter(name).unwrap_or(0),
            "counter {name} moved while telemetry was off"
        );
    }
    assert!(!after.enabled, "snapshot must record the disabled state");
    let root = Json::parse(&trace).expect("trace parses");
    assert_eq!(
        root.get("traceEvents")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0),
        "trace events recorded while telemetry was off"
    );
}

/// The chrome-trace export of an instrumented run parses as `trace_event`
/// JSON with well-formed events, including the driver's `run` span.
#[test]
fn chrome_trace_export_is_valid_trace_event_json() {
    let _g = locked();
    telemetry::clear_trace();
    let _ = run_workload(4);
    telemetry::instant(
        "test.marker",
        vec![("k", telemetry::ArgValue::Str("v".into()))],
    );

    let root = Json::parse(&telemetry::chrome_trace_json()).expect("trace parses");
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents is an array");
    assert!(!events.is_empty());
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("event has ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?}");
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        assert!(ev.get("ts").and_then(Json::as_f64).is_some());
        assert!(ev.get("pid").and_then(Json::as_f64).is_some());
        assert!(ev.get("tid").and_then(Json::as_f64).is_some());
        if ph == "X" {
            assert!(ev.get("dur").and_then(Json::as_f64).is_some());
        }
    }
    let has = |name: &str, ph: &str| {
        events.iter().any(|ev| {
            ev.get("name").and_then(Json::as_str) == Some(name)
                && ev.get("ph").and_then(Json::as_str) == Some(ph)
        })
    };
    assert!(has("run", "X"), "driver run span missing from the trace");
    assert!(
        has("test.marker", "i"),
        "instant event missing from the trace"
    );

    // The textual digest covers the same events.
    let summary = telemetry::trace_summary();
    assert!(summary.contains("run"));
    assert!(summary.contains("test.marker"));
}

/// The snapshot's JSON rendering parses and carries the run counters the
/// serve introspection call exposes.
#[test]
fn snapshot_json_round_trips() {
    let _g = locked();
    let _ = run_workload(3);
    let snap = telemetry::snapshot();
    let json = Json::parse(&snap.to_json()).expect("snapshot JSON parses");
    assert_eq!(json.get("enabled").and_then(Json::as_bool), Some(true));
    let counters = json.get("counters").expect("snapshot has counters");
    assert!(
        counters
            .get("run.completed")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0,
        "run.completed missing from snapshot JSON"
    );
}
