//! The distributed sweep worker: connect, receive a job, execute leases.
//!
//! A worker never compiles and never decides what to run: the coordinator
//! ships the serialized artifact and the registry key, the worker rebuilds
//! the model + trial inputs deterministically from the registry (both sides
//! share the same build), deserializes the artifact, and executes each
//! lease `[start, start + count)` through the ordinary `Session`/`Runner`
//! contract with [`distill::RunSpec::with_offset`] — so a lease's outputs
//! are bitwise the same slice a serial run would produce, no matter which
//! worker runs it, how many threads it shards across, or how many times the
//! lease was re-issued before landing here.
//!
//! The same `worker_main` body serves both deployment shapes: the
//! `distill-sweep-worker` binary (process isolation, hard exit on the kill
//! fault) and an in-process thread the coordinator falls back to when no
//! binary can be spawned (same protocol over the same socket, soft exit).

use crate::proto::{self, Job, Msg, ProtoError, WorkerFaults, HEARTBEAT_INTERVAL_MS};
use distill::{
    deserialize_artifact, RunSpec, Runner, Session, ShardStats, TrialInput, ARTIFACT_VERSION,
};
use distill_models::{registry, Scale};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a worker was deployed — decides what "die" means for the kill fault.
#[derive(Debug, Clone, Copy)]
pub struct WorkerCtx {
    /// Worker slot assigned by the spawner (echoed in `Hello`/`Heartbeat`).
    pub worker: u32,
    /// `true` in the worker *process* (kill fault = `process::exit`);
    /// `false` for an in-process worker thread (kill fault = drop the
    /// connection and return, so a test process is never taken down).
    pub hard_exit: bool,
}

fn die(ctx: &WorkerCtx) -> Result<(), String> {
    if ctx.hard_exit {
        // Abrupt by design: no shutdown handshake, no flush — the
        // coordinator must recover from exactly this.
        std::process::exit(3);
    }
    Ok(())
}

/// Run the worker protocol over `stream` until shutdown, disconnect, or an
/// injected death. A job this build cannot run (an artifact it cannot
/// decode, an unknown family) is answered with [`Msg::Reject`]: dying
/// instead would look like a crash, and the coordinator would re-issue the
/// lease to the next worker built from the same tree. Other errors are
/// returned as strings for the binary to print; the coordinator only ever
/// observes them as a closed connection.
pub fn worker_main(stream: UnixStream, ctx: WorkerCtx) -> Result<(), String> {
    let mut reader = stream;
    let writer = Arc::new(Mutex::new(reader.try_clone().map_err(|e| e.to_string())?));
    send(
        &writer,
        &Msg::Hello {
            worker: ctx.worker,
            pid: std::process::id() as u64,
            protocol: proto::PROTOCOL_VERSION,
            artifact_version: ARTIFACT_VERSION,
        },
    )?;

    // The job arrives first; heartbeats only start once we know the fault
    // plan's heartbeat delay.
    let job = match proto::read_msg(&mut reader) {
        Ok(Msg::Job(job)) => job,
        Ok(other) => return Err(format!("expected Job, got {other:?}")),
        Err(e) => return Err(format!("reading job: {e}")),
    };

    let (inputs, mut runner) = match prepare(&job) {
        Ok(ready) => ready,
        Err(reason) => {
            let worker = ctx.worker;
            return send(&writer, &Msg::Reject { worker, reason });
        }
    };

    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = spawn_heartbeat(&writer, &stop, ctx.worker, &job.faults);

    let faults = job.faults;
    let mut completed: u64 = 0;
    let mut dropped = false;
    let mut garbled = false;
    let outcome = loop {
        match proto::read_msg(&mut reader) {
            Ok(Msg::Lease {
                start,
                count,
                epoch,
            }) => {
                if faults.kill_after.is_some_and(|k| completed >= k) {
                    die(&ctx)?;
                    break Ok(());
                }
                let lease_spec = RunSpec::new(inputs.clone(), count as usize)
                    .with_batch(job.batch.max(1) as usize)
                    .with_shards(job.threads.max(1) as usize)
                    .with_offset(start as usize);
                let mut lease_span = distill_telemetry::span("dsweep.worker_lease");
                lease_span.arg_i64("worker", ctx.worker as i64);
                lease_span.arg_i64("start", start as i64);
                lease_span.arg_i64("count", count as i64);
                lease_span.arg_i64("epoch", epoch as i64);
                let result = match runner.run(&lease_spec) {
                    Ok(r) => r,
                    Err(e) => break Err(format!("lease [{start}, +{count}) failed: {e}")),
                };
                drop(lease_span);
                let mut shards = result.shards.unwrap_or(ShardStats {
                    threads: 1,
                    chunks: 1,
                    batch: job.batch.max(1) as usize,
                    steals: 0,
                    stats: Default::default(),
                });
                // Ship the full per-run counter delta (the serial fallback
                // path has no worker threads, but its work still counts).
                shards.stats = result.stats;
                let msg = Msg::LeaseResult(proto::LeaseResult {
                    start,
                    count,
                    epoch,
                    outputs: result.outputs,
                    passes: result.passes,
                    shards,
                });
                if faults.drop_after == Some(completed) && !dropped {
                    // Computed but never sent: the coordinator's lease
                    // deadline must expire and re-issue.
                    dropped = true;
                } else if faults.garble_after == Some(completed) && !garbled {
                    garbled = true;
                    if send_garbled(&writer, &msg).is_err() {
                        break Ok(());
                    }
                } else if send(&writer, &msg).is_err() {
                    break Ok(());
                }
                completed += 1;
            }
            Ok(Msg::Shutdown) => break Ok(()),
            Ok(other) => break Err(format!("unexpected message: {other:?}")),
            Err(ProtoError::Eof) => break Ok(()),
            Err(e) => break Err(format!("reading lease: {e}")),
        }
    };

    stop.store(true, Ordering::SeqCst);
    let _ = heartbeat.join();
    outcome
}

/// Rebuild the job's trial inputs from the registry and a runner from its
/// artifact.
fn prepare(job: &Job) -> Result<(Vec<TrialInput>, Box<dyn Runner>), String> {
    let spec = registry::by_name(&job.family)
        .ok_or_else(|| format!("unknown model family '{}'", job.family))?;
    let scale = if job.scale_full {
        Scale::Full
    } else {
        Scale::Reduced
    };
    let w = spec.build(scale);
    let artifact =
        deserialize_artifact(&job.artifact).map_err(|e| format!("artifact rejected: {e}"))?;
    let runner = Session::new(&w.model)
        .build_with(artifact)
        .map_err(|e| format!("building runner: {e}"))?;
    Ok((w.inputs, runner))
}

fn spawn_heartbeat(
    writer: &Arc<Mutex<UnixStream>>,
    stop: &Arc<AtomicBool>,
    worker: u32,
    faults: &WorkerFaults,
) -> std::thread::JoinHandle<()> {
    let writer = Arc::clone(writer);
    let stop = Arc::clone(stop);
    let delay = faults.heartbeat_delay_ms;
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(HEARTBEAT_INTERVAL_MS + delay));
            let mut w = writer.lock().expect("heartbeat writer lock");
            if proto::write_msg(&mut *w, &Msg::Heartbeat { worker }).is_err() {
                // Coordinator gone; the main loop will observe EOF too.
                return;
            }
        }
    })
}

fn send(writer: &Arc<Mutex<UnixStream>>, msg: &Msg) -> Result<(), String> {
    let mut w = writer.lock().expect("writer lock");
    proto::write_msg(&mut *w, msg).map_err(|e| e.to_string())
}

fn send_garbled(writer: &Arc<Mutex<UnixStream>>, msg: &Msg) -> Result<(), String> {
    let mut w = writer.lock().expect("writer lock");
    proto::write_msg_garbled(&mut *w, msg).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill::{compile, serialize_artifact, CompileConfig};

    #[test]
    fn a_job_it_cannot_decode_is_rejected_not_died_on() {
        let (mut coordinator, stream) = UnixStream::pair().unwrap();
        let ctx = WorkerCtx {
            worker: 4,
            hard_exit: false,
        };
        let worker = std::thread::spawn(move || worker_main(stream, ctx));
        match proto::read_msg(&mut coordinator).unwrap() {
            Msg::Hello {
                worker: 4,
                protocol,
                artifact_version,
                ..
            } => {
                assert_eq!(protocol, proto::PROTOCOL_VERSION);
                assert_eq!(artifact_version, ARTIFACT_VERSION);
            }
            other => panic!("expected hello, got {other:?}"),
        }
        // An artifact from a build one format version ahead.
        let family = crate::ANCHOR_FAMILY;
        let w = registry::by_name(family).unwrap().build(Scale::Reduced);
        let mut artifact =
            serialize_artifact(&compile(&w.model, CompileConfig::default()).unwrap());
        artifact[8..12].copy_from_slice(&(ARTIFACT_VERSION + 1).to_le_bytes());
        let job = Job {
            family: family.into(),
            scale_full: false,
            batch: 1,
            threads: 1,
            artifact,
            faults: WorkerFaults::default(),
        };
        proto::write_msg(&mut coordinator, &Msg::Job(job)).unwrap();
        match proto::read_msg(&mut coordinator).unwrap() {
            Msg::Reject { worker: 4, reason } => assert!(reason.contains("version"), "{reason}"),
            other => panic!("expected a rejection, got {other:?}"),
        }
        assert_eq!(worker.join().unwrap(), Ok(()));
        assert!(matches!(
            proto::read_msg(&mut coordinator),
            Err(ProtoError::Eof)
        ));
    }
}
