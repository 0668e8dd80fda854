//! Panic-safety of the in-process shard path: a worker thread that panics
//! mid-sweep must surface as a typed `DistillError`, not a hung join, a
//! propagated unwind, or a silent partial result. Also the fire-once
//! semantics of the chaos injector's trial, build and artifact-read hooks.
//!
//! Uses the chaos injector's trial-panic hook
//! (`distill::chaos::panic_on_trial`) to detonate a chosen trial. The hooks
//! are process-global, so this suite lives in its own integration-test
//! binary — the harness gives it its own process — and runs its scenarios
//! one after the other inside a single `#[test]`: two tests arming the same
//! hook on parallel test threads would detonate each other's trials (and
//! arming them from `distill`'s own unit tests would race the runs and
//! artifact reads those tests make).

use distill::chaos::{self, ChaosPlan};
use distill::{DistillError, RunSpec, Session};

const TRIALS: usize = 24;

#[test]
fn injected_trial_panics_are_typed_on_shards_and_unwind_on_the_serial_path() {
    trial_panic_fires_once_then_self_disarms();
    corruption_countdown_hits_the_armed_read_only();
    build_panic_countdown_fires_on_the_armed_ordinal();
    panicking_shard_worker_surfaces_as_driver_error();
    serial_path_reports_the_injected_panic_too();
}

fn trial_panic_fires_once_then_self_disarms() {
    chaos::panic_on_trial(Some(7));
    chaos::check_panic_trial(0, 7); // window [0, 7) does not cover 7
    chaos::check_panic_trial(8, 100);
    let hit = std::panic::catch_unwind(|| chaos::check_panic_trial(0, 8));
    assert!(hit.is_err(), "armed trial inside the window must panic");
    // Fired → disarmed: the recovery rerun of the same window is clean.
    chaos::check_panic_trial(0, 8);
    chaos::panic_on_trial(None);
}

fn corruption_countdown_hits_the_armed_read_only() {
    ChaosPlan {
        corrupt_read: Some(1),
        seed: 5,
        ..Default::default()
    }
    .install();
    let clean = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
    let mut first = clean.clone();
    assert!(
        !chaos::corrupt_artifact_read(&mut first),
        "read 0 is not armed"
    );
    assert_eq!(first, clean);
    let mut second = clean.clone();
    assert!(chaos::corrupt_artifact_read(&mut second), "read 1 is armed");
    assert_eq!(
        second.iter().zip(&clean).filter(|(a, b)| a != b).count(),
        1,
        "exactly one byte flips"
    );
    let mut third = clean.clone();
    assert!(
        !chaos::corrupt_artifact_read(&mut third),
        "fired once, then inert"
    );
    assert_eq!(third, clean);
    chaos::disarm();
}

fn build_panic_countdown_fires_on_the_armed_ordinal() {
    ChaosPlan {
        panic_build: Some(1),
        ..Default::default()
    }
    .install();
    chaos::check_panic_build("warmup"); // build 0: clean
    let hit = std::panic::catch_unwind(|| chaos::check_panic_build("victim"));
    assert!(hit.is_err(), "build 1 is armed");
    chaos::check_panic_build("recovery"); // fired once, then inert
    chaos::disarm();
}

fn panicking_shard_worker_surfaces_as_driver_error() {
    let w = distill_models::predator_prey_s();
    let spec = RunSpec::new(w.inputs.clone(), TRIALS)
        .with_batch(4)
        .with_shards(4);

    // Detonate a mid-space trial: some worker thread picks up its chunk and
    // panics while the other workers keep draining the queue.
    distill::chaos::panic_on_trial(Some(13));
    let result = Session::new(&w.model).build().unwrap().run(&spec);
    distill::chaos::panic_on_trial(None);

    let err = result.expect_err("a panicking worker must fail the run");
    match &err {
        DistillError::Driver(m) => {
            assert!(
                m.contains("panicked") && m.contains("trial 13"),
                "error should identify the panic: {m}"
            );
        }
        other => panic!("expected a Driver error, got {other:?}"),
    }

    // The driver is not poisoned: the same session contract works again
    // once the fault is gone, and matches a serial run bitwise.
    let healthy = Session::new(&w.model).build().unwrap().run(&spec).unwrap();
    let serial = Session::new(&w.model)
        .build()
        .unwrap()
        .run(&RunSpec::new(w.inputs.clone(), TRIALS))
        .unwrap();
    assert_eq!(healthy.outputs, serial.outputs);
    assert_eq!(healthy.passes, serial.passes);
}

fn serial_path_reports_the_injected_panic_too() {
    // The unsharded whole-model path runs the chunk on the caller's thread;
    // the hook must not leak an unwind through the public API there either —
    // it panics on the caller thread, which is an unwind `run` does not
    // catch, so this test pins the *sharded* path as the panic-safe one and
    // documents the difference.
    let w = distill_models::predator_prey_s();
    distill::chaos::panic_on_trial(Some(2));
    let outcome = std::panic::catch_unwind(|| {
        Session::new(&w.model)
            .build()
            .unwrap()
            .run(&RunSpec::new(w.inputs.clone(), 6))
    });
    distill::chaos::panic_on_trial(None);
    assert!(
        outcome.is_err(),
        "serial path runs on the caller thread; the injected panic unwinds"
    );
}
