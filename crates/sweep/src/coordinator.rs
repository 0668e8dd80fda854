//! The distributed sweep coordinator: compile once, lease the trial space,
//! survive the workers.
//!
//! ```text
//!                    ┌────────────────────────────┐
//!                    │        coordinator         │
//!                    │  compile → serialize once  │
//!                    │  leases: (start,count,epoch)│
//!                    └───┬──────────┬──────────┬──┘
//!            unix socket │          │          │  frames: len|fnv64|payload
//!                 ┌──────┴───┐ ┌────┴─────┐ ┌──┴───────┐
//!                 │ worker 0 │ │ worker 1 │ │ worker N │   (process or thread)
//!                 │ threads×T│ │ threads×T│ │ threads×T│
//!                 └──────────┘ └──────────┘ └──────────┘
//! ```
//!
//! The trial space `[0, trials)` is carved into fixed lease windows. Each
//! lease is issued to one worker under an **epoch**; a worker death (EOF,
//! stale heartbeat) or a lease deadline bumps the epoch and re-queues the
//! window with exponential backoff, and any result carrying a stale epoch is
//! **fenced** — dropped without inspection — so a straggler can never race
//! its own replacement. Because trials are location-independent (PRNG
//! streams and input cycling key off the absolute trial index, shipped via
//! [`distill::RunSpec::with_offset`]), the stitched outputs are bitwise
//! identical to a serial run **at any topology and under any fault
//! schedule** — re-running a lease is always safe, which is what makes the
//! recovery story this simple.
//!
//! When no worker can be spawned (or every worker dies), the coordinator
//! degrades to the in-process path: remaining leases run locally through
//! the same offset-windowed `RunSpec`, so a missing binary or a hostile
//! fault plan degrades throughput, never correctness.

use crate::probes::{dsweep_probes, record_reissue};
use crate::proto::{self, FaultPlan, Job, Msg, ProtoError};
use crate::worker::{worker_main, WorkerCtx};
use distill::ChunkQueue;
use distill::{
    compile, serialize_artifact, CompileConfig, DistillError, RunSpec, Runner, Session, ShardStats,
};
use distill_models::{registry, Scale};
use distill_telemetry::{self as telemetry, ArgValue};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How workers are deployed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerMode {
    /// Spawn `distill-sweep-worker` processes when the binary can be found,
    /// fall back to in-process worker threads otherwise (the default: test
    /// harnesses that never build dependency binaries still exercise the
    /// full protocol).
    Auto,
    /// Require worker processes; zero spawned processes degrades straight
    /// to the local in-process path.
    Process,
    /// In-process worker threads speaking the same socket protocol.
    Thread,
}

/// Configuration of a distributed sweep.
#[derive(Debug, Clone)]
pub struct DsweepConfig {
    /// Worker count (processes or threads, by `mode`).
    pub workers: usize,
    /// Shard threads *inside* each worker.
    pub threads: usize,
    /// Trials per compiled batch within a lease.
    pub batch: usize,
    /// Trials per lease window.
    pub lease_trials: usize,
    /// Workload scale preset.
    pub scale: Scale,
    /// Override of the registry's per-scale sweep trial count.
    pub trials: Option<usize>,
    /// Compile-time knobs (the artifact is compiled once, here).
    pub compile: CompileConfig,
    /// Deployment shape.
    pub mode: WorkerMode,
    /// Deterministic fault schedule (inert by default).
    pub faults: FaultPlan,
    /// Re-issue a lease whose result has not arrived within this deadline.
    pub lease_timeout: Duration,
    /// Declare a worker dead when no heartbeat arrived within this window.
    pub heartbeat_timeout: Duration,
}

impl Default for DsweepConfig {
    fn default() -> Self {
        DsweepConfig {
            workers: 2,
            threads: 2,
            batch: 8,
            lease_trials: 16,
            scale: Scale::Reduced,
            trials: None,
            compile: CompileConfig::default(),
            mode: WorkerMode::Auto,
            faults: FaultPlan::default(),
            lease_timeout: Duration::from_secs(5),
            heartbeat_timeout: Duration::from_secs(2),
        }
    }
}

/// What a distributed sweep did and produced.
#[derive(Debug, Clone)]
pub struct DsweepReport {
    /// Registry key of the swept family.
    pub family: String,
    /// Built model name.
    pub model: String,
    /// Trials executed.
    pub trials: usize,
    /// Workers requested by the config.
    pub workers_requested: usize,
    /// Workers that actually connected.
    pub workers_connected: usize,
    /// Deployment label: `process`, `thread`, or `in-process`, with
    /// `+fallback` appended when leases finished on the local path.
    pub mode: String,
    /// Lease windows the trial space was carved into.
    pub leases: usize,
    /// Leases re-issued after a death or deadline (also folded into the
    /// merged [`ShardStats::steals`] — a re-issue *is* redistribution).
    pub reissued: u64,
    /// Results dropped because their epoch was stale.
    pub fenced_stale: u64,
    /// Workers that died (EOF, stale heartbeat, corrupt frame).
    pub worker_deaths: u64,
    /// Highest epoch any lease reached (0 = no recovery needed).
    pub max_epoch: u32,
    /// Leases that completed on the local in-process fallback path.
    pub fallback_leases: usize,
    /// Per-lease [`ShardStats`] merged across the whole sweep.
    pub shards: ShardStats,
    /// Wall-clock seconds for the lease phase (compilation excluded).
    pub elapsed_s: f64,
    /// Stitched per-trial outputs, in absolute trial order.
    pub outputs: Vec<Vec<f64>>,
    /// Stitched per-trial pass counts.
    pub passes: Vec<u64>,
}

/// Environment override for the worker binary path (tests, packaging).
pub const WORKER_BIN_ENV: &str = "DISTILL_SWEEP_WORKER";

/// Locate the `distill-sweep-worker` binary: the [`WORKER_BIN_ENV`]
/// override, then next to the current executable, then one directory up
/// (examples and test binaries live in subdirectories of the target
/// profile directory that holds the bins).
pub fn find_worker_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var(WORKER_BIN_ENV) {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for base in [Some(dir), dir.parent()].into_iter().flatten() {
        let candidate = base.join("distill-sweep-worker");
        if candidate.is_file() {
            return Some(candidate);
        }
    }
    None
}

// -- internal state ---------------------------------------------------------

/// What a completed lease contributes to the stitch: its window's outputs
/// and pass counters, in trial order.
type LeaseOutput = (Vec<Vec<f64>>, Vec<u64>);

struct LeaseState {
    start: usize,
    count: usize,
    epoch: u32,
    attempts: u32,
    done: bool,
    issued_to: Option<usize>,
    deadline: Option<Instant>,
    ready_at: Instant,
    /// Trace timestamp of the current issue ([`telemetry::now_us`]); the
    /// accepted result closes a `dsweep.lease` span started here.
    issued_us: u64,
}

struct WorkerSlot {
    write: Option<UnixStream>,
    alive: bool,
    last_heartbeat: Instant,
    busy_with: Option<usize>,
}

enum Event {
    Hello(usize, UnixStream),
    Msg(usize, Msg),
    Gone(usize),
}

fn backoff(attempts: u32) -> Duration {
    Duration::from_millis((10u64 << attempts.min(5)).min(320))
}

/// Attempts after which a lease is declared undeliverable — ten rounds of
/// re-issue with backoff means something is structurally broken, not flaky.
const MAX_LEASE_ATTEMPTS: u32 = 10;

static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

fn socket_path() -> PathBuf {
    std::env::temp_dir().join(format!(
        "distill-dsweep-{}-{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn driver_err(m: impl Into<String>) -> DistillError {
    DistillError::Driver(m.into())
}

/// Run one family's trial space across the distributed topology.
///
/// # Errors
/// Unknown family, compilation failure, an undeliverable lease
/// (`MAX_LEASE_ATTEMPTS` exceeded), or a local-fallback run failure.
/// Worker deaths and timeouts are *not* errors — recovering from them is
/// the point.
pub fn dsweep_family(family: &str, cfg: &DsweepConfig) -> Result<DsweepReport, DistillError> {
    let spec = registry::by_name(family)
        .ok_or_else(|| driver_err(format!("unknown model family '{family}'")))?;
    let w = spec.build(cfg.scale);
    let trials = cfg.trials.unwrap_or_else(|| spec.sweep_trials(cfg.scale));
    let artifact = compile(&w.model, cfg.compile)?;
    // Serialized exactly once; every worker deserializes this buffer.
    let artifact_bytes = serialize_artifact(&artifact);

    // Carve the trial space into lease windows through the same range-queue
    // substrate the in-process shard path schedules with.
    let carve = ChunkQueue::over(0..trials, cfg.lease_trials.max(1));
    let now = Instant::now();
    let mut leases: Vec<LeaseState> = std::iter::from_fn(|| carve.grab())
        .map(|r| LeaseState {
            start: r.start,
            count: r.len(),
            epoch: 0,
            attempts: 0,
            done: false,
            issued_to: None,
            deadline: None,
            ready_at: now,
            issued_us: 0,
        })
        .collect();
    let mut results: Vec<Option<LeaseOutput>> = (0..leases.len()).map(|_| None).collect();

    let started = Instant::now();
    let mut report = DsweepReport {
        family: family.to_string(),
        model: w.model.name.clone(),
        trials,
        workers_requested: cfg.workers,
        workers_connected: 0,
        mode: String::new(),
        leases: leases.len(),
        reissued: 0,
        fenced_stale: 0,
        worker_deaths: 0,
        max_epoch: 0,
        fallback_leases: 0,
        shards: ShardStats {
            threads: 0,
            chunks: 0,
            batch: 0,
            steals: 0,
            stats: Default::default(),
        },
        elapsed_s: 0.0,
        outputs: Vec::with_capacity(trials),
        passes: Vec::with_capacity(trials),
    };

    // ---- spawn the topology ------------------------------------------------
    let path = socket_path();
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path)
        .map_err(|e| driver_err(format!("binding {}: {e}", path.display())))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| driver_err(e.to_string()))?;

    let (tx, rx) = mpsc::channel::<Event>();
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = spawn_acceptor(listener, tx.clone(), Arc::clone(&stop));

    let workers = cfg.workers.max(1);
    let mut children: Vec<std::process::Child> = Vec::new();
    let mut threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let use_process = match cfg.mode {
        WorkerMode::Process => true,
        WorkerMode::Thread => false,
        WorkerMode::Auto => find_worker_bin().is_some(),
    };
    let mut spawned = 0usize;
    if use_process {
        if let Some(bin) = find_worker_bin() {
            for idx in 0..workers {
                match std::process::Command::new(&bin)
                    .arg(&path)
                    .arg(idx.to_string())
                    .spawn()
                {
                    Ok(child) => {
                        children.push(child);
                        spawned += 1;
                    }
                    Err(_) => break,
                }
            }
        }
        report.mode = "process".into();
    } else {
        for idx in 0..workers {
            let path = path.clone();
            threads.push(std::thread::spawn(move || {
                let ctx = WorkerCtx {
                    worker: idx as u32,
                    hard_exit: false,
                };
                if let Ok(stream) = UnixStream::connect(&path) {
                    let _ = worker_main(stream, ctx);
                }
            }));
            spawned += 1;
        }
        report.mode = "thread".into();
    }

    // ---- lease loop --------------------------------------------------------
    let mut slots: Vec<WorkerSlot> = (0..workers)
        .map(|_| WorkerSlot {
            write: None,
            alive: false,
            busy_with: None,
            last_heartbeat: Instant::now(),
        })
        .collect();
    let hello_grace = Duration::from_secs(3);
    let assign_grace = Duration::from_secs(1);
    let mut undeliverable: Option<String> = None;

    'drive: loop {
        if spawned == 0 || leases.iter().all(|l| l.done) {
            break;
        }
        let now = Instant::now();

        // Deadline scan: an outstanding lease past its deadline is fenced
        // (epoch bump) and re-queued; the worker keeps crunching, but its
        // eventual answer carries the old epoch and is dropped.
        for lease in leases.iter_mut() {
            if lease.done || lease.issued_to.is_none() {
                continue;
            }
            if lease.deadline.is_some_and(|d| now >= d) {
                if let Some(slot) = lease.issued_to.take() {
                    slots[slot].busy_with = None;
                }
                lease.deadline = None;
                lease.epoch += 1;
                lease.attempts += 1;
                lease.ready_at = now + backoff(lease.attempts);
                report.reissued += 1;
                report.max_epoch = report.max_epoch.max(lease.epoch);
                if telemetry::enabled() {
                    record_reissue(lease.start, lease.count, lease.epoch, lease.attempts);
                }
                if lease.attempts > MAX_LEASE_ATTEMPTS {
                    undeliverable = Some(format!(
                        "lease [{}, +{}) exceeded {MAX_LEASE_ATTEMPTS} attempts",
                        lease.start, lease.count
                    ));
                    break 'drive;
                }
            }
        }

        // Heartbeat scan.
        for slot_idx in 0..slots.len() {
            if slots[slot_idx].alive
                && now.duration_since(slots[slot_idx].last_heartbeat) > cfg.heartbeat_timeout
            {
                bury_worker(slot_idx, &mut slots, &mut leases, &mut report, now);
            }
        }

        // Assignment: one lease per idle live worker. Held back until every
        // spawned worker has said Hello (or the grace expires): with at
        // least `workers` leases this guarantees each worker receives a
        // first lease, so a fast sibling cannot starve a slow-connecting
        // worker out of the sweep — which also makes seeded fault
        // schedules (armed on the victim's first lease grab) land
        // deterministically under any host load.
        let assignment_open =
            report.workers_connected >= spawned || started.elapsed() > assign_grace;
        for slot_idx in 0..slots.len() {
            if !assignment_open {
                break;
            }
            if !slots[slot_idx].alive || slots[slot_idx].busy_with.is_some() {
                continue;
            }
            let Some(li) = leases
                .iter()
                .position(|l| !l.done && l.issued_to.is_none() && l.ready_at <= now)
            else {
                break;
            };
            let msg = Msg::Lease {
                start: leases[li].start as u64,
                count: leases[li].count as u64,
                epoch: leases[li].epoch,
            };
            let sent = slots[slot_idx]
                .write
                .as_mut()
                .map(|w| proto::write_msg(w, &msg).is_ok())
                .unwrap_or(false);
            if sent {
                leases[li].issued_to = Some(slot_idx);
                leases[li].deadline = Some(now + cfg.lease_timeout);
                slots[slot_idx].busy_with = Some(li);
                if telemetry::enabled() {
                    leases[li].issued_us = telemetry::now_us();
                    dsweep_probes().leases_issued.inc();
                }
            } else {
                bury_worker(slot_idx, &mut slots, &mut leases, &mut report, now);
            }
        }

        // If nobody is alive and nobody can still connect, degrade.
        let alive = slots.iter().filter(|s| s.alive).count();
        if alive == 0 && (report.workers_connected >= spawned || started.elapsed() > hello_grace) {
            break;
        }

        match rx.recv_timeout(Duration::from_millis(15)) {
            Ok(Event::Hello(slot, write)) => {
                if slot < slots.len() && slots[slot].write.is_none() {
                    report.workers_connected += 1;
                    let job = Msg::Job(Job {
                        family: family.to_string(),
                        scale_full: cfg.scale == Scale::Full,
                        batch: cfg.batch.max(1) as u64,
                        threads: cfg.threads.max(1) as u64,
                        artifact: artifact_bytes.clone(),
                        faults: proto::worker_faults(&cfg.faults, slot as u32),
                    });
                    let mut write = write;
                    if proto::write_msg(&mut write, &job).is_ok() {
                        slots[slot].write = Some(write);
                        slots[slot].alive = true;
                        slots[slot].last_heartbeat = Instant::now();
                    }
                }
            }
            Ok(Event::Msg(slot, Msg::Heartbeat { .. })) => {
                if slot < slots.len() {
                    slots[slot].last_heartbeat = Instant::now();
                }
                if telemetry::enabled() {
                    dsweep_probes().heartbeats.inc();
                }
            }
            Ok(Event::Msg(slot, Msg::LeaseResult(r))) => {
                if slot < slots.len() {
                    slots[slot].last_heartbeat = Instant::now();
                }
                let Some(li) = leases.iter().position(|l| l.start == r.start as usize) else {
                    report.fenced_stale += 1;
                    record_fence(r.start as usize, r.epoch, "unknown-start");
                    continue;
                };
                // The sender is idle again either way.
                if slots.get(slot).is_some_and(|s| s.busy_with == Some(li)) {
                    slots[slot].busy_with = None;
                }
                let lease = &mut leases[li];
                if lease.done || r.epoch != lease.epoch {
                    report.fenced_stale += 1;
                    record_fence(lease.start, r.epoch, "stale-epoch");
                    continue;
                }
                if r.outputs.len() != lease.count || r.passes.len() != lease.count {
                    // A malformed result is a lying worker: bury it and
                    // re-issue.
                    bury_worker(slot, &mut slots, &mut leases, &mut report, Instant::now());
                    continue;
                }
                lease.done = true;
                lease.issued_to = None;
                lease.deadline = None;
                if telemetry::enabled() {
                    dsweep_probes().leases_completed.inc();
                    telemetry::complete_span_at(
                        "dsweep.lease",
                        lease.issued_us,
                        vec![
                            ("start", ArgValue::I64(lease.start as i64)),
                            ("count", ArgValue::I64(lease.count as i64)),
                            ("epoch", ArgValue::I64(lease.epoch as i64)),
                            ("worker", ArgValue::I64(slot as i64)),
                        ],
                    );
                }
                results[li] = Some((r.outputs, r.passes));
                report.shards.merge(&r.shards);
            }
            Ok(Event::Msg(_, _)) => {}
            Ok(Event::Gone(slot)) => {
                bury_worker(slot, &mut slots, &mut leases, &mut report, Instant::now());
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    // ---- shutdown the topology --------------------------------------------
    for slot in &mut slots {
        if let Some(w) = slot.write.as_mut() {
            let _ = proto::write_msg(w, &Msg::Shutdown);
        }
    }
    stop.store(true, Ordering::SeqCst);
    let _ = acceptor.join();
    for mut child in children {
        // Reap: normal exits already happened, killed workers are the test
        // plan, stragglers must not outlive the sweep.
        let _ = child.kill();
        let _ = child.wait();
    }
    for t in threads {
        let _ = t.join();
    }
    let _ = std::fs::remove_file(&path);

    if let Some(m) = undeliverable {
        return Err(driver_err(m));
    }

    // ---- in-process fallback for whatever is left --------------------------
    let remaining: Vec<usize> = leases
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.done)
        .map(|(i, _)| i)
        .collect();
    if !remaining.is_empty() {
        let mut runner: Box<dyn Runner> = Session::new(&w.model).build_with(artifact.clone())?;
        for li in remaining {
            let lease = &leases[li];
            let spec = RunSpec::new(w.inputs.clone(), lease.count)
                .with_batch(cfg.batch)
                .with_shards(cfg.threads)
                .with_offset(lease.start);
            let r = runner.run(&spec)?;
            let mut shards = r.shards.unwrap_or(ShardStats {
                threads: 1,
                chunks: 1,
                batch: cfg.batch,
                steals: 0,
                stats: Default::default(),
            });
            shards.stats = r.stats;
            report.shards.merge(&shards);
            results[li] = Some((r.outputs, r.passes));
            report.fallback_leases += 1;
        }
        report.mode.push_str("+fallback");
    }
    if report.workers_connected == 0 && report.fallback_leases == report.leases {
        report.mode = "in-process".into();
    }

    // ---- stitch ------------------------------------------------------------
    for (li, slot) in results.into_iter().enumerate() {
        let (outs, passes) = slot.ok_or_else(|| {
            driver_err(format!("lease {li} produced no result (coordinator bug)"))
        })?;
        report.outputs.extend(outs);
        report.passes.extend(passes);
    }
    // A re-issued lease is work redistributed across workers — the same
    // measure the in-process queue reports as a steal — so recovery is
    // visible in the merged ShardStats, not only in the side counters.
    report.shards.steals += report.reissued;
    report.elapsed_s = started.elapsed().as_secs_f64();
    Ok(report)
}

/// Declare a worker dead: close its stream, re-queue its outstanding lease
/// under a bumped epoch with backoff.
fn bury_worker(
    slot_idx: usize,
    slots: &mut [WorkerSlot],
    leases: &mut [LeaseState],
    report: &mut DsweepReport,
    now: Instant,
) {
    let Some(slot) = slots.get_mut(slot_idx) else {
        return;
    };
    if !slot.alive {
        return;
    }
    slot.alive = false;
    slot.write = None;
    report.worker_deaths += 1;
    if telemetry::enabled() {
        dsweep_probes().worker_deaths.inc();
        telemetry::instant(
            "dsweep.worker_death",
            vec![("worker", ArgValue::I64(slot_idx as i64))],
        );
    }
    if let Some(li) = slot.busy_with.take() {
        let lease = &mut leases[li];
        if !lease.done {
            lease.issued_to = None;
            lease.deadline = None;
            lease.epoch += 1;
            lease.attempts += 1;
            lease.ready_at = now + backoff(lease.attempts);
            report.reissued += 1;
            report.max_epoch = report.max_epoch.max(lease.epoch);
            if telemetry::enabled() {
                record_reissue(lease.start, lease.count, lease.epoch, lease.attempts);
            }
        }
    }
}

/// Mirror a fenced (dropped) result into the telemetry layer.
fn record_fence(start: usize, epoch: u32, reason: &'static str) {
    if !telemetry::enabled() {
        return;
    }
    dsweep_probes().fenced_stale.inc();
    telemetry::instant(
        "dsweep.fenced_result",
        vec![
            ("start", ArgValue::I64(start as i64)),
            ("epoch", ArgValue::I64(epoch as i64)),
            ("reason", ArgValue::Str(reason.into())),
        ],
    );
}

fn spawn_acceptor(
    listener: UnixListener,
    tx: mpsc::Sender<Event>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut readers = Vec::new();
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let tx = tx.clone();
                    readers.push(std::thread::spawn(move || reader_loop(stream, tx)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        drop(listener);
        for r in readers {
            let _ = r.join();
        }
    })
}

/// Per-connection reader: the first message must be `Hello` (identifying
/// the worker slot); everything after is forwarded to the event loop. Any
/// protocol error — including a garbled frame — ends the connection, which
/// the coordinator treats as a death.
fn reader_loop(stream: UnixStream, tx: mpsc::Sender<Event>) {
    let mut read = stream;
    let write = match read.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let slot = match proto::read_msg(&mut read) {
        Ok(Msg::Hello { worker, .. }) => worker as usize,
        _ => return,
    };
    if tx.send(Event::Hello(slot, write)).is_err() {
        return;
    }
    loop {
        match proto::read_msg(&mut read) {
            Ok(msg) => {
                if tx.send(Event::Msg(slot, msg)).is_err() {
                    return;
                }
            }
            Err(ProtoError::Eof) | Err(ProtoError::Io(_)) | Err(ProtoError::Corrupt(_)) => {
                let _ = tx.send(Event::Gone(slot));
                return;
            }
        }
    }
}
