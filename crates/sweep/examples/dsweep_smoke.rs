//! Distributed-sweep smoke: 2 workers, one injected kill, bitwise check.
//!
//! Run after a workspace build so the `distill-sweep-worker` binary exists
//! (the coordinator degrades to in-process worker threads otherwise, which
//! still exercises the full lease protocol):
//!
//! ```text
//! cargo run --release -p distill-sweep --example dsweep_smoke
//! ```
//!
//! The smoke runs the anchor family serially, then distributed across two
//! workers with a seeded fault plan that kills one worker mid-sweep, and
//! exits non-zero unless the recovered distributed outputs are bitwise
//! identical to serial with at least one re-issued lease. An explicit
//! schedule can be injected via `DISTILL_CHAOS` (see `distill::chaos`).
//!
//! It also exports the coordinator's chrome://tracing view of the sweep to
//! `bench_results/trace_dsweep.json` and re-parses it with the in-repo JSON
//! parser, failing unless the trace is well-formed and shows completed
//! `dsweep.lease` spans.

use distill::{RunSpec, Session};
use distill_models::registry;
use distill_sweep::{dsweep_family, outputs_bits_equal, DsweepConfig, FaultPlan, ANCHOR_FAMILY};
use distill_telemetry::json::Json;

/// Parse a chrome trace export and require well-formed events plus at least
/// one event per `required` name. Panics (non-zero exit) on any violation.
fn validate_trace(path: &str, required: &[&str]) -> usize {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let root = Json::parse(&text).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("trace has a traceEvents array");
    assert!(!events.is_empty(), "{path}: traceEvents is empty");
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("event has ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph:?}");
        assert!(
            ev.get("name").and_then(Json::as_str).is_some(),
            "event has name"
        );
        assert!(
            ev.get("ts").and_then(Json::as_f64).is_some(),
            "event has ts"
        );
        assert!(
            ev.get("pid").and_then(Json::as_f64).is_some(),
            "event has pid"
        );
        assert!(
            ev.get("tid").and_then(Json::as_f64).is_some(),
            "event has tid"
        );
        if ph == "X" {
            assert!(
                ev.get("dur").and_then(Json::as_f64).is_some(),
                "span has dur"
            );
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
    let trials = 48;
    let cfg = DsweepConfig {
        workers: 2,
        threads: 2,
        batch: 4,
        lease_trials: 6,
        trials: Some(trials),
        faults: match FaultPlan::from_env() {
            Ok(p) if !p.is_inert() => p,
            Ok(_) => FaultPlan::seeded(0xD5EE9, 2),
            Err(e) => {
                eprintln!("dsweep_smoke: bad fault plan: {e}");
                std::process::exit(2);
            }
        },
        ..DsweepConfig::default()
    };

    // Serial reference through the ordinary session path.
    let spec = registry::by_name(ANCHOR_FAMILY).expect("anchor family registered");
    let w = spec.build(cfg.scale);
    let serial = Session::new(&w.model)
        .compile_config(cfg.compile)
        .build()
        .expect("serial build")
        .run(&RunSpec::new(w.inputs.clone(), trials))
        .expect("serial run");

    let report = dsweep_family(ANCHOR_FAMILY, &cfg).expect("distributed sweep");
    let identical =
        outputs_bits_equal(&serial.outputs, &report.outputs) && serial.passes == report.passes;

    println!(
        "dsweep_smoke: family={} mode={} workers={}/{} leases={} reissued={} \
         deaths={} fenced={} max_epoch={} fallback={} merged_steals={} identical={}",
        report.family,
        report.mode,
        report.workers_connected,
        report.workers_requested,
        report.leases,
        report.reissued,
        report.worker_deaths,
        report.fenced_stale,
        report.max_epoch,
        report.fallback_leases,
        report.shards.steals,
        identical,
    );

    // Recovery summary: the one-line digest of how the sweep survived its
    // faults, with the merged ShardStats counters that absorb the re-issues.
    println!(
        "dsweep_smoke recovery: {} lease(s) re-issued, {} stale result(s) fenced, \
         {} worker death(s), max epoch {}, merged shards: {} thread(s), {} chunk(s), \
         {} steal(s), {} instruction(s)",
        report.reissued,
        report.fenced_stale,
        report.worker_deaths,
        report.max_epoch,
        report.shards.threads,
        report.shards.chunks,
        report.shards.steals,
        report.shards.stats.instructions,
    );

    if !identical {
        eprintln!("dsweep_smoke: FAIL — distributed outputs diverged from serial");
        std::process::exit(1);
    }
    if report.faults_expected_recovery() && report.reissued == 0 {
        eprintln!("dsweep_smoke: FAIL — kill fault injected but no lease was re-issued");
        std::process::exit(1);
    }

    // Trace export: the coordinator thread observed every lease lifecycle,
    // and worker threads (thread mode) flushed their buffers on exit.
    if distill_telemetry::enabled() {
        let path = "bench_results/trace_dsweep.json";
        let mut required = vec!["dsweep.lease"];
        if report.reissued > 0 {
            required.push("dsweep.lease_reissued");
        }
        if report.workers_connected == 0 {
            // Full in-process fallback: no lease was ever issued over the
            // socket, so only the fallback runs' spans exist.
            required = vec!["run"];
        }
        let events = distill_telemetry::write_chrome_trace(path).expect("trace export");
        let parsed = validate_trace(path, &required);
        assert_eq!(
            parsed, events,
            "export and re-parse disagree on event count"
        );
        println!("dsweep_smoke trace: {events} event(s) -> {path} (valid trace_event JSON)");
    }
    println!("dsweep_smoke: PASS");
}

/// Local helper trait so the check reads naturally above.
trait ExpectedRecovery {
    fn faults_expected_recovery(&self) -> bool;
}

impl ExpectedRecovery for distill_sweep::DsweepReport {
    fn faults_expected_recovery(&self) -> bool {
        // A kill plan always forces at least one re-issue as long as any
        // worker actually connected; with zero workers the whole run fell
        // back in-process and there is nothing to recover.
        self.workers_connected > 0
    }
}
