//! Resilience differential for the serving daemon: under a seeded chaos
//! schedule (worker panics, overload bursts, expired deadlines, build
//! failures) the server must degrade *typed*, never wrong — every request
//! that is not shed or expired returns bytes bitwise identical to a solo
//! run of the same trial range, shed/expired/panicked requests get their
//! specific [`ServeError`] variant (the server never hangs and never
//! unwinds), and the resilience counters match the schedule exactly.
//!
//! [`run_solo`](Server::run_solo) is the reference oracle throughout: it
//! executes trials directly on a fresh engine clone, outside the span
//! scheduler and outside every chaos hook.

use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use distill::chaos::{self, ChaosPlan};
use distill_serve::{ServeConfig, ServeError, Server, TrafficConfig, TrialRequest};

const FAMILY: &str = "necker_cube_3";

/// Chaos arming is process-global (it mirrors the `DISTILL_CHAOS`
/// environment contract), so the scenarios must not interleave. Each test
/// holds this lock for its whole body and disarms on entry and exit.
fn chaos_guard() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    let guard = match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    chaos::disarm();
    guard
}

/// Wait until the server has packed at least `n` spans — i.e. the worker
/// owns everything submitted so far, and later submissions cannot join
/// those spans.
fn await_spans(server: &Server, n: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while server.stats().spans < n {
        assert!(std::time::Instant::now() < deadline, "span never packed");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Assert `ticket`'s response is bitwise identical to a solo rerun of the
/// same absolute range.
fn assert_solo_identical(server: &Server, ticket: distill_serve::Ticket, what: &str) {
    let (start, trials) = (ticket.start(), ticket.trials());
    let served = ticket
        .wait()
        .unwrap_or_else(|e| panic!("{what} failed: {e}"));
    let solo = server.run_solo(FAMILY, start, trials).expect("solo rerun");
    assert_eq!(
        served.outputs, solo.outputs,
        "{what}: outputs diverged from solo"
    );
    assert_eq!(
        served.passes, solo.passes,
        "{what}: passes diverged from solo"
    );
}

#[test]
fn expired_deadline_is_rejected_typed_and_unexpired_neighbor_serves() {
    let _guard = chaos_guard();
    // One worker held inside each chunk for 40ms: submissions made while
    // it sleeps stay queued until the next pack.
    ChaosPlan {
        delay_ms: 40,
        ..ChaosPlan::default()
    }
    .install();
    let server = Server::start(ServeConfig {
        workers: 1,
        batch: 8,
        ..ServeConfig::default()
    });

    // Occupy the worker, then queue A (already-expired budget) and B (no
    // budget) behind it. The next pack must expire A without executing it
    // and serve B.
    let occupy = server.submit(TrialRequest::new(FAMILY, 8)).expect("occupy");
    await_spans(&server, 1);
    let a = server
        .submit(TrialRequest::new(FAMILY, 4).with_deadline(Duration::ZERO))
        .expect("submit A");
    let b = server
        .submit(TrialRequest::new(FAMILY, 4))
        .expect("submit B");

    assert_eq!(a.wait().unwrap_err(), ServeError::DeadlineExceeded);
    chaos::disarm();
    assert_solo_identical(&server, b, "unexpired neighbor B");
    assert_solo_identical(&server, occupy, "occupying request");

    let stats = server.stats();
    assert_eq!(stats.expired, 1, "exactly A expires");
    assert_eq!(stats.worker_panics, 0);
    assert_eq!(stats.shed, 0);
}

#[test]
fn overloaded_lane_sheds_with_hint_and_survivors_serve_bit_identically() {
    let _guard = chaos_guard();
    let before_shed = distill_telemetry::snapshot()
        .counter("serve.lane.shed")
        .unwrap_or(0);
    ChaosPlan {
        delay_ms: 40,
        ..ChaosPlan::default()
    }
    .install();
    let server = Server::start(ServeConfig {
        workers: 1,
        batch: 8,
        lane_capacity: 8,
        ..ServeConfig::default()
    });

    let occupy = server.submit(TrialRequest::new(FAMILY, 8)).expect("occupy");
    await_spans(&server, 1);
    // Two 4-trial submissions fill the watermark exactly; the third must
    // be shed at the door with a non-zero drain estimate, without moving
    // the lane cursor.
    let q1 = server.submit(TrialRequest::new(FAMILY, 4)).expect("q1");
    let q2 = server.submit(TrialRequest::new(FAMILY, 4)).expect("q2");
    let shed = server.submit(TrialRequest::new(FAMILY, 4)).unwrap_err();
    let ServeError::Overloaded { retry_after_hint } = shed else {
        panic!("expected Overloaded, got {shed:?}");
    };
    assert!(
        retry_after_hint > Duration::ZERO,
        "hint estimates drain time"
    );

    chaos::disarm();
    let q2_start = q2.start();
    for (t, what) in [(occupy, "occupy"), (q1, "q1"), (q2, "q2")] {
        assert_solo_identical(&server, t, what);
    }
    // The queue has drained and the shed submission left no trace in the
    // trial space: the next submission is admitted and gets the range the
    // shed one would have had, contiguous with q2.
    let q3 = server
        .submit(TrialRequest::new(FAMILY, 4))
        .expect("q3 after drain");
    assert_eq!(q3.start(), q2_start + 4, "shed submission moved the cursor");
    assert_solo_identical(&server, q3, "q3");

    let stats = server.stats();
    assert_eq!(stats.shed, 1, "exactly one submission sheds");
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.worker_panics, 0);
    let after_shed = distill_telemetry::snapshot()
        .counter("serve.lane.shed")
        .unwrap_or(0);
    if distill_telemetry::enabled() {
        assert_eq!(
            after_shed - before_shed,
            1,
            "serve.lane.shed counter drifted"
        );
    }
}

#[test]
fn worker_panic_quarantines_one_request_and_requeues_span_mates() {
    let _guard = chaos_guard();
    // Trial-space plan: decoy D owns [0,4); A/B/C own [4,8)/[8,12)/[12,16)
    // and are queued while the worker sleeps in D's chunk, so they pack
    // into one coalesced span whose middle chunk (B's range, containing
    // trial 9) panics.
    ChaosPlan {
        delay_ms: 40,
        panic_trial: Some(9),
        ..ChaosPlan::default()
    }
    .install();
    let server = Server::start(ServeConfig {
        workers: 1,
        batch: 4,
        ..ServeConfig::default()
    });

    let d = server.submit(TrialRequest::new(FAMILY, 4)).expect("decoy");
    await_spans(&server, 1);
    let a = server.submit(TrialRequest::new(FAMILY, 4)).expect("A");
    let b = server.submit(TrialRequest::new(FAMILY, 4)).expect("B");
    let c = server.submit(TrialRequest::new(FAMILY, 4)).expect("C");
    assert_eq!((a.start(), b.start(), c.start()), (4, 8, 12));

    // B fails typed with the injected panic's message; nothing hangs.
    match b.wait() {
        Err(ServeError::WorkerPanicked(msg)) => {
            assert!(
                msg.contains("chaos: injected panic on trial 9"),
                "msg: {msg}"
            );
        }
        other => panic!("expected WorkerPanicked for B, got {other:?}"),
    }
    // A, C (requeued span-mates) and D still serve bit-identically.
    chaos::disarm();
    for (t, what) in [(a, "span-mate A"), (c, "span-mate C"), (d, "decoy D")] {
        assert_solo_identical(&server, t, what);
    }
    // The quarantined range itself is still servable afterwards — the
    // panic poisoned no lane state.
    let retry = server
        .submit(TrialRequest {
            family: FAMILY.into(),
            trials: 4,
            start: Some(8),
            deadline: None,
        })
        .expect("resubmit B's range");
    assert_solo_identical(&server, retry, "resubmitted B range");

    let stats = server.stats();
    assert_eq!(stats.worker_panics, 1, "the armed panic fires exactly once");
    assert_eq!(stats.requeued_trials, 8, "A and C requeue, 4 trials each");
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.expired, 0);
}

#[test]
fn mid_build_panic_leaves_no_poisoned_or_partial_cache_entry() {
    let _guard = chaos_guard();
    ChaosPlan {
        panic_build: Some(0),
        ..ChaosPlan::default()
    }
    .install();
    let server = Server::start(ServeConfig::default());

    // The armed build panic surfaces as a typed Build error on the
    // submitting call — not an unwind, not a poisoned cache mutex.
    let err = server.submit(TrialRequest::new(FAMILY, 2)).unwrap_err();
    match &err {
        ServeError::Build(msg) => {
            assert!(msg.contains("artifact build panicked"), "msg: {msg}");
            assert!(msg.contains("chaos: injected panic"), "msg: {msg}");
        }
        other => panic!("expected Build error, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(
        stats.cache.hits, 0,
        "failed build must not populate the cache"
    );

    // With the fault disarmed (it self-disarms after firing) the same
    // family builds cleanly on the same cache — nothing half-inserted
    // survived the panic.
    let t = server
        .submit(TrialRequest::new(FAMILY, 2))
        .expect("post-panic build");
    assert_solo_identical(&server, t, "post-panic request");
    let stats = server.stats();
    assert_eq!(
        stats.cache.misses, 2,
        "both attempts were clean cache misses — the panic neither poisoned \
         the cache nor left a half-inserted entry behind"
    );
    assert_eq!(stats.cache.hits, 0, "nothing stale satisfied the rebuild");
}

#[test]
fn seeded_chaos_open_loop_retries_to_completion_bit_identically() {
    let _guard = chaos_guard();
    // Trial 5 panics mid-run; the traffic generator's wait-retry path must
    // resubmit the quarantined range and finish every request. Preflight
    // compilation uses run_solo (trial 0 only), which has no chaos hooks.
    ChaosPlan {
        panic_trial: Some(5),
        seed: 7,
        ..ChaosPlan::default()
    }
    .install();
    let server = Server::start(ServeConfig {
        workers: 2,
        batch: 4,
        ..ServeConfig::default()
    });
    let traffic = TrafficConfig {
        families: vec![FAMILY.into()],
        requests: 8,
        trials_per_request: 4,
        clients: 2,
        arrival_interval: Duration::from_micros(50),
        ..TrafficConfig::default()
    };
    let report = distill_serve::run_open_loop(&server, &traffic).expect("open loop");

    assert!(
        report.failed.is_empty(),
        "requests failed past retry: {:?}",
        report.failed
    );
    assert_eq!(report.requests, 8, "every request completes");
    assert_eq!(
        server.stats().worker_panics,
        1,
        "armed panic fires exactly once"
    );
    assert!(report.retries >= 1, "the quarantined request was retried");
    assert!(
        report.records.iter().any(|r| r.attempts > 1),
        "some record consumed a retry attempt"
    );

    chaos::disarm();
    for r in &report.records {
        let solo = server.run_solo(&r.family, r.start, r.trials).expect("solo");
        assert_eq!(solo.outputs.len(), r.trials);
    }
    // Full-lane sweep: the complete served trial space, including the
    // requeued and retried ranges, matches one contiguous solo pass.
    let total = 8 * 4;
    let swept = server
        .submit(TrialRequest {
            family: FAMILY.into(),
            trials: total,
            start: Some(0),
            deadline: None,
        })
        .expect("sweep");
    assert_solo_identical(&server, swept, "post-chaos full sweep");
}
