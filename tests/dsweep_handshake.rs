//! A dsweep worker built from another tree is turned away, never re-issued
//! to. Each scenario points the coordinator at a stub worker (this test
//! binary, re-executed) that either says hello with versions this build
//! does not speak or answers the job with a rejection:
//!
//! * under `WorkerMode::Process` the sweep fails with an error naming the
//!   skew;
//! * under `WorkerMode::Auto` it completes on the in-process path,
//!   bit-identical to a serial run, with no death and no re-issue.
//!
//! The scenarios set process environment variables, so they run in order
//! from one `main` (this target has no test harness).

use distill::{RunSpec, Session, ARTIFACT_VERSION};
use distill_models::{registry, Scale};
use distill_sweep::coordinator::WORKER_BIN_ENV;
use distill_sweep::proto::{self, fnv1a, Msg, PROTOCOL_VERSION};
use distill_sweep::{dsweep_family, outputs_bits_equal, DsweepConfig, WorkerMode, ANCHOR_FAMILY};
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// Set in a re-executed stub worker: how it misbehaves.
const STUB_ENV: &str = "DSWEEP_HANDSHAKE_STUB";

const TRIALS: usize = 12;

fn main() {
    if let Ok(stub) = std::env::var(STUB_ENV) {
        let args: Vec<String> = std::env::args().collect();
        return stub_worker(&stub, &args[1], args[2].parse().unwrap());
    }
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(120));
        eprintln!("dsweep_handshake: a scenario hung");
        std::process::exit(1);
    });
    let exe = std::env::current_exe().unwrap();
    std::env::set_var(WORKER_BIN_ENV, &exe);
    let serial = {
        let w = registry::by_name(ANCHOR_FAMILY)
            .unwrap()
            .build(Scale::Reduced);
        let mut runner = Session::new(&w.model).build().unwrap();
        runner.run(&RunSpec::new(w.inputs.clone(), TRIALS)).unwrap()
    };
    for stub in ["legacy-hello", "other-version", "reject-job"] {
        std::env::set_var(STUB_ENV, stub);
        let started = Instant::now();

        let err = dsweep_family(ANCHOR_FAMILY, &config(WorkerMode::Process))
            .expect_err("a skewed worker must fail a process-only sweep");
        assert!(
            err.to_string().contains("version skew"),
            "{stub}: the error must name the skew: {err}"
        );

        let report = dsweep_family(ANCHOR_FAMILY, &config(WorkerMode::Auto))
            .unwrap_or_else(|e| panic!("{stub}: auto mode must fall back: {e}"));
        assert_eq!(report.reissued, 0, "{stub}: a skew is not re-issued");
        assert_eq!(report.worker_deaths, 0, "{stub}: a skew is not a death");
        assert_eq!(report.fallback_leases, report.leases, "{stub}");
        assert!(
            outputs_bits_equal(&serial.outputs, &report.outputs),
            "{stub}"
        );
        assert_eq!(serial.passes, report.passes, "{stub}");
        println!(
            "{stub}: process mode failed typed, auto mode fell back ({} leases) in {:.2} s",
            report.leases,
            started.elapsed().as_secs_f64()
        );
    }
}

fn config(mode: WorkerMode) -> DsweepConfig {
    DsweepConfig {
        workers: 2,
        threads: 1,
        batch: 4,
        lease_trials: 5,
        trials: Some(TRIALS),
        mode,
        ..DsweepConfig::default()
    }
}

/// A worker built from another tree, in one of three ways.
fn stub_worker(stub: &str, socket: &str, worker: u32) {
    let mut stream = UnixStream::connect(socket).unwrap();
    let pid = u64::from(std::process::id());
    match stub {
        // The hello of a worker that predates versioned hellos.
        "legacy-hello" => {
            let mut payload = vec![1u8];
            payload.extend_from_slice(&worker.to_le_bytes());
            payload.extend_from_slice(&pid.to_le_bytes());
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(&fnv1a(&payload).to_le_bytes());
            frame.extend_from_slice(&payload);
            stream.write_all(&frame).unwrap();
        }
        "other-version" => {
            let hello = Msg::Hello {
                worker,
                pid,
                protocol: PROTOCOL_VERSION,
                artifact_version: ARTIFACT_VERSION + 1,
            };
            proto::write_msg(&mut stream, &hello).unwrap();
        }
        "reject-job" => {
            let hello = Msg::Hello {
                worker,
                pid,
                protocol: PROTOCOL_VERSION,
                artifact_version: ARTIFACT_VERSION,
            };
            proto::write_msg(&mut stream, &hello).unwrap();
            assert!(matches!(proto::read_msg(&mut stream), Ok(Msg::Job(_))));
            let reason = "artifact rejected: this stub decodes nothing".to_string();
            proto::write_msg(&mut stream, &Msg::Reject { worker, reason }).unwrap();
        }
        other => panic!("unknown stub {other}"),
    }
    // Run nothing and answer nothing until the coordinator shuts the worker
    // down or hangs up. (A lease sent before the rejection arrived goes
    // back to the queue.)
    while !matches!(proto::read_msg(&mut stream), Ok(Msg::Shutdown) | Err(_)) {}
}
