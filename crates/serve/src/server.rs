//! The serving daemon: concurrent client sessions over shared artifacts,
//! with cross-request batch coalescing.
//!
//! # Scheduling model
//!
//! Each model family a client touches gets a **lane**: the family's cached
//! artifact, its flattened per-trial inputs, a template [`Engine`] and a
//! FIFO of pending request segments. Requests allocate *contiguous ranges
//! of the lane's shared trial space* — request `i` asking for `n` trials
//! gets `[cursor, cursor + n)` and advances the cursor — so two back-to-back
//! requests to the same family are, by construction, one contiguous range of
//! trial indices. Per-trial inputs are the family's registered workload
//! inputs cycled by **absolute** trial index, exactly the offline runner's
//! convention, which is what makes carving the trial space across clients
//! invisible to any individual trial.
//!
//! Workers pull work in spans. A **span** is one contiguous range packed
//! from a lane's pending FIFO — possibly covering segments of several
//! requests (that is the coalescing), possibly a slice of one oversized
//! request (spans are capped at [`ServeConfig::span_cap`] trials). The span
//! owns a work-stealing `ChunkQueue` over its range, the same substrate the
//! offline sharded runner uses, so several workers can execute one span's
//! chunks concurrently through the artifact's `trials_batch(start, count)`
//! entry point. When a span's last chunk completes, the finishing worker
//! demuxes the span's per-trial outputs back to each originating request.
//!
//! **Packing is lazy**: there is no scheduler thread and no batching timer.
//! A worker packs the next span only when no already-packed span has
//! grabbable chunks left. While all workers are busy executing, newly
//! submitted requests accumulate in the lane FIFOs and the *next* pack
//! sweeps them into one span — under load, coalescing emerges from
//! backpressure rather than from a latency-costing delay, and on an idle
//! server a lone request is packed (and starts executing) immediately.
//!
//! # Fairness
//!
//! Two rules bound starvation. Across lanes, the packer round-robins: each
//! pack starts scanning at the lane after the previously packed one, so a
//! chatty family cannot freeze out a quiet one. Within a lane the FIFO is
//! strict — segments coalesce only in arrival order, and a span never
//! reaches past a gap in the trial space (an explicitly placed
//! [`TrialRequest::start`]) to grab later work. A request is never held
//! back waiting for a coalescing partner to arrive.
//!
//! # Bit-transparency
//!
//! Coalescing is semantically invisible: every response is bitwise
//! identical to the same trial range running alone ([`Server::run_solo`]).
//! This holds because trials are independent (per-trial PRNG streams are
//! derived from the absolute trial index; lanes require whole-model
//! artifacts, whose trial prologue resets state), because staged inputs are
//! cycled by absolute index, and because chunk execution here is the same
//! sequence of engine operations the offline driver performs — the
//! serial/sharded bit-identity the core runner guarantees extends to the
//! serving path.
//!
//! # Resilience
//!
//! Three failure seams are typed rather than fatal, and all three preserve
//! bit-transparency for every request they do not reject:
//!
//! * **Deadlines** — a request may carry a latency budget
//!   ([`TrialRequest::deadline`]). Budgets are checked at pack time:
//!   a segment still queued past its deadline is rejected with
//!   [`ServeError::DeadlineExceeded`] and never packed, so an expired
//!   request is refused loudly instead of being served late.
//! * **Admission control** — [`ServeConfig::lane_capacity`] bounds each
//!   lane's queued trials; a submission past the high-watermark is shed
//!   with [`ServeError::Overloaded`], whose `retry_after_hint` is derived
//!   from the lane's observed per-trial service time.
//! * **Worker-panic quarantine** — a chunk that panics (engine bug or an
//!   armed [`distill::chaos`] plan) is caught at the span boundary on the
//!   worker. The panicking worker drops its engine/staging clones for the
//!   lane, the requests overlapping the lost chunk get
//!   [`ServeError::WorkerPanicked`], and every *other* segment of the span
//!   is requeued at the front of its lane and re-served — bit-identically,
//!   because segments carry absolute trial indices and re-execution is the
//!   same deterministic chunk sequence. The server itself never unwinds.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use distill::{global_names as gn, Engine, ExecConfig, TierPolicy, Value};
use distill_codegen::{CompileConfig, CompiledModel, StagingBuffer};
use distill_exec::ChunkQueue;
use distill_ir::FuncId;
use distill_models::Scale;

use crate::cache::{ArtifactCache, CacheStats};
use crate::probes::{lane_depth_gauge, serve_probes};
use crate::ServeError;
use distill_telemetry as telemetry;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor threads (default 2).
    pub workers: usize,
    /// Trials per engine entry: chunk size for the batched entry point
    /// (clamped to the artifact's `batch_capacity`); `1` disables batched
    /// execution (default 32).
    pub batch: usize,
    /// Most trials one span may cover; oversized requests split across
    /// spans. `0` (the default) resolves to `batch * 32`.
    pub span_cap: usize,
    /// In-memory artifact-cache capacity (default 8).
    pub cache_capacity: usize,
    /// Artifact directory for the disk-backed cache; `None` keeps the cache
    /// memory-only.
    pub disk_dir: Option<std::path::PathBuf>,
    /// Compile configuration for artifacts built on behalf of clients.
    /// Must keep [`distill::CompileMode::WholeModel`]: lanes need the
    /// whole-trial entry point.
    pub compile: CompileConfig,
    /// Workload scale used when resolving a family from the registry.
    pub scale: Scale,
    /// Admission high-watermark per lane, in queued (submitted-but-not-yet
    /// packed) trials: a submission that would push a lane past it is shed
    /// with [`ServeError::Overloaded`]. `0` (the default) disables
    /// shedding, preserving the unbounded-queue behavior.
    pub lane_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            batch: 32,
            span_cap: 0,
            cache_capacity: 8,
            disk_dir: None,
            compile: CompileConfig::default(),
            scale: Scale::Reduced,
            lane_capacity: 0,
        }
    }
}

/// One client request: run `trials` trials of a registered family.
#[derive(Debug, Clone)]
pub struct TrialRequest {
    /// Registry name of the model family.
    pub family: String,
    /// Number of trials to run.
    pub trials: usize,
    /// Absolute start index in the family's trial space; `None` (the
    /// common case) lets the server allocate the next contiguous range,
    /// which is what makes back-to-back requests coalescible.
    pub start: Option<usize>,
    /// Optional latency budget, measured from submission. A request still
    /// queued when the budget expires is rejected with
    /// [`ServeError::DeadlineExceeded`] at the next pack instead of being
    /// served late; `None` (the default) never expires.
    pub deadline: Option<Duration>,
}

impl TrialRequest {
    /// A request for `trials` trials at a server-allocated start index.
    pub fn new(family: impl Into<String>, trials: usize) -> TrialRequest {
        TrialRequest {
            family: family.into(),
            trials,
            start: None,
            deadline: None,
        }
    }

    /// Attach a latency budget (see [`TrialRequest::deadline`]).
    pub fn with_deadline(mut self, budget: Duration) -> TrialRequest {
        self.deadline = Some(budget);
        self
    }
}

/// A completed request: per-trial outputs in request order.
#[derive(Debug, Clone)]
pub struct TrialResponse {
    /// The family that ran.
    pub family: String,
    /// Absolute trial index of the request's first trial.
    pub start: usize,
    /// One output vector per trial.
    pub outputs: Vec<Vec<f64>>,
    /// Scheduler passes per trial.
    pub passes: Vec<u64>,
    /// Queue + execution time, submit to demux (max over the request's
    /// spans when it split).
    pub latency: Duration,
    /// Whether any span serving this request also carried trials from
    /// another request.
    pub coalesced: bool,
}

/// Aggregate serving counters (plus a cache-stats snapshot).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Requests accepted.
    pub requests: u64,
    /// Trials requested.
    pub trials: u64,
    /// Spans packed.
    pub spans: u64,
    /// Spans that coalesced trials from more than one request.
    pub coalesced_spans: u64,
    /// Batched engine entries (`trials_batch` calls).
    pub batch_calls: u64,
    /// Submissions shed by admission control ([`ServeError::Overloaded`]).
    pub shed: u64,
    /// Request segments rejected for an expired deadline
    /// ([`ServeError::DeadlineExceeded`]).
    pub expired: u64,
    /// Span chunks lost to a caught worker panic.
    pub worker_panics: u64,
    /// Trials requeued (and re-served bit-identically) after sharing a
    /// span with a panicked chunk.
    pub requeued_trials: u64,
    /// Artifact-cache counters.
    pub cache: CacheStats,
}

/// One demuxed slice of a request, sent back over the ticket channel.
enum Part {
    Ok {
        /// Offset of this slice within the request.
        offset: usize,
        outputs: Vec<Vec<f64>>,
        passes: Vec<u64>,
        latency: Duration,
        coalesced: bool,
    },
    Err(ServeError),
}

/// Handle for one submitted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    family: String,
    start: usize,
    trials: usize,
    rx: Receiver<Part>,
}

impl Ticket {
    /// Absolute trial index the server allocated for the request.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Number of trials the ticket is waiting on (clients retrying a
    /// failed ticket resubmit the same `(start, trials)` range).
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Block until every trial of the request completes, reassembling
    /// split requests from their span parts.
    ///
    /// # Errors
    /// [`ServeError::Exec`] if a span serving the request failed;
    /// [`ServeError::Disconnected`] if the server dropped mid-flight.
    pub fn wait(self) -> Result<TrialResponse, ServeError> {
        let mut outputs = vec![Vec::new(); self.trials];
        let mut passes = vec![0u64; self.trials];
        let mut got = 0usize;
        let mut latency = Duration::ZERO;
        let mut coalesced = false;
        while got < self.trials {
            match self.rx.recv() {
                Ok(Part::Ok {
                    offset,
                    outputs: o,
                    passes: p,
                    latency: l,
                    coalesced: c,
                }) => {
                    got += o.len();
                    for (k, out) in o.into_iter().enumerate() {
                        outputs[offset + k] = out;
                    }
                    passes[offset..offset + p.len()].copy_from_slice(&p);
                    latency = latency.max(l);
                    coalesced |= c;
                }
                Ok(Part::Err(e)) => return Err(e),
                Err(_) => return Err(ServeError::Disconnected),
            }
        }
        Ok(TrialResponse {
            family: self.family,
            start: self.start,
            outputs,
            passes,
            latency,
            coalesced,
        })
    }
}

/// Everything a worker needs to execute a lane's trials: shared by the
/// lane, every in-flight span and [`Server::run_solo`].
struct LaneExec {
    artifact: Arc<CompiledModel>,
    /// Flattened per-trial inputs, cycled by absolute trial index.
    flats: Vec<Vec<f64>>,
    /// The batched entry point, resolved iff batching is usable for this
    /// lane (`config.batch > 1` and the artifact has batch capacity).
    batch_fn: Option<FuncId>,
    trial_fn: FuncId,
    /// Trials per engine entry for this lane's spans.
    chunk: usize,
    /// Cloned per worker; cloning shares code, copies memory.
    template: Engine,
    /// EWMA of observed per-trial service time, updated per completed
    /// chunk; feeds the [`ServeError::Overloaded`] retry hint. `0` until
    /// the lane's first chunk completes.
    ns_per_trial: AtomicU64,
}

/// A pending request segment queued on a lane.
struct PendingSeg {
    start: usize,
    trials: usize,
    offset_in_req: usize,
    tx: Sender<Part>,
    submitted: Instant,
    /// Absolute expiry instant (submission + budget), if the request
    /// carried one.
    deadline: Option<Instant>,
}

/// One model family's serving state.
struct Lane {
    name: String,
    exec: Arc<LaneExec>,
    /// Next unallocated trial index.
    cursor: usize,
    pending: VecDeque<PendingSeg>,
    /// Trials currently queued (sum of `pending` segment sizes); the
    /// admission-control level [`ServeConfig::lane_capacity`] bounds.
    queued: usize,
    /// Telemetry gauge tracking this lane's submitted-but-unpacked trials.
    depth: &'static telemetry::Gauge,
}

/// A segment of a packed span, remembered for demux.
struct Segment {
    offset_in_req: usize,
    start: usize,
    trials: usize,
    tx: Sender<Part>,
    submitted: Instant,
    /// Carried through packing so a requeued segment keeps its original
    /// expiry.
    deadline: Option<Instant>,
    /// When the segment was packed into this span; `submitted → packed` is
    /// the telemetry wait time, `packed → demux` the service time.
    packed: Instant,
}

/// Mutable portion of a span: its segments and accumulating results.
struct SpanWork {
    segments: Vec<Segment>,
    outs: Vec<Vec<f64>>,
    passes: Vec<u64>,
    completed: usize,
    failed: Option<ServeError>,
    /// Span-relative chunk ranges lost to a caught worker panic, with the
    /// panic message; non-empty turns span completion into quarantine +
    /// requeue instead of a plain demux.
    panicked: Vec<(std::ops::Range<usize>, String)>,
}

/// A packed unit of execution: one contiguous trial range of one lane,
/// chunked over a work-stealing queue.
struct SpanJob {
    exec: Arc<LaneExec>,
    /// Lane index, used to key worker-local engine/staging reuse.
    lane: usize,
    /// Absolute trial index of the span's first trial.
    lo: usize,
    trials: usize,
    queue: ChunkQueue,
    coalesced: bool,
    work: Mutex<SpanWork>,
}

#[derive(Default)]
struct State {
    lanes: Vec<Lane>,
    /// Spans with grabbable chunks; drained spans drop off lazily.
    spans: Vec<Arc<SpanJob>>,
    /// Lane index the next pack starts scanning *after* (round-robin).
    rr_cursor: usize,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    trials: AtomicU64,
    spans: AtomicU64,
    coalesced_spans: AtomicU64,
    batch_calls: AtomicU64,
    shed: AtomicU64,
    expired: AtomicU64,
    worker_panics: AtomicU64,
    requeued_trials: AtomicU64,
}

struct Inner {
    state: Mutex<State>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
    cache: Mutex<ArtifactCache>,
    config: ServeConfig,
}

/// The serving daemon. Dropping the server drains all queued work, then
/// stops the workers.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

/// A cheap cloneable client handle onto a [`Server`].
#[derive(Clone)]
pub struct ClientSession {
    inner: Arc<Inner>,
}

impl Server {
    /// Start a server with the given configuration. Infallible: artifacts
    /// compile lazily on first use of each family.
    ///
    /// Arms the process-global chaos injector from `DISTILL_CHAOS` when
    /// that variable is set (see [`distill::chaos`]), so a daemon under
    /// test can have faults scheduled from the outside; a malformed spec
    /// is reported on stderr rather than silently running fault-free.
    pub fn start(config: ServeConfig) -> Server {
        if let Err(e) = distill::chaos::install_from_env() {
            eprintln!("distill-serve: bad {} spec: {e}", distill::chaos::CHAOS_ENV);
        }
        let mut config = config;
        config.workers = config.workers.max(1);
        config.batch = config.batch.max(1);
        if config.span_cap == 0 {
            config.span_cap = config.batch * 32;
        }
        let cache = match &config.disk_dir {
            Some(dir) => ArtifactCache::with_disk(config.cache_capacity, dir.clone()),
            None => ArtifactCache::new(config.cache_capacity),
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(State::default()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            cache: Mutex::new(cache),
            config,
        });
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn serve worker")
            })
            .collect();
        Server { inner, workers }
    }

    /// Open a client session.
    pub fn client(&self) -> ClientSession {
        ClientSession {
            inner: self.inner.clone(),
        }
    }

    /// Submit a request directly (equivalent to a one-off client session).
    pub fn submit(&self, request: TrialRequest) -> Result<Ticket, ServeError> {
        self.inner.submit(request)
    }

    /// Run `trials` trials of `family` starting at absolute index `start`
    /// as if the request were alone on an idle server: a fresh engine,
    /// trial-by-trial, bypassing the scheduler entirely. This is the
    /// identity baseline coalesced responses are compared against.
    pub fn run_solo(
        &self,
        family: &str,
        start: usize,
        trials: usize,
    ) -> Result<TrialResponse, ServeError> {
        self.inner.run_solo(family, start, trials)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        let c = &self.inner.counters;
        ServeStats {
            requests: c.requests.load(Ordering::Relaxed),
            trials: c.trials.load(Ordering::Relaxed),
            spans: c.spans.load(Ordering::Relaxed),
            coalesced_spans: c.coalesced_spans.load(Ordering::Relaxed),
            batch_calls: c.batch_calls.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            expired: c.expired.load(Ordering::Relaxed),
            worker_panics: c.worker_panics.load(Ordering::Relaxed),
            requeued_trials: c.requeued_trials.load(Ordering::Relaxed),
            cache: self.inner.cache.lock().unwrap().stats(),
        }
    }

    /// The live-introspection call: freeze the process-wide telemetry
    /// registry — queue depths, wait/service quantiles, cache and engine
    /// counters — without stopping (or even pausing) the daemon. Render it
    /// with [`distill_telemetry::TelemetrySnapshot::to_json`] for
    /// dashboards; [`ClientSession::telemetry`] exposes the same surface to
    /// connected clients.
    pub fn telemetry(&self) -> telemetry::TelemetrySnapshot {
        telemetry::snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            // Take the state lock so no worker is between its work check
            // and its condvar wait when the flag flips.
            let _st = self.inner.state.lock().unwrap();
            self.inner.shutdown.store(true, Ordering::Release);
            self.inner.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl ClientSession {
    /// Submit a request; returns immediately with a [`Ticket`].
    pub fn submit(&self, request: TrialRequest) -> Result<Ticket, ServeError> {
        self.inner.submit(request)
    }

    /// Query the serving daemon's telemetry without restarting it (see
    /// [`Server::telemetry`]).
    pub fn telemetry(&self) -> telemetry::TelemetrySnapshot {
        telemetry::snapshot()
    }
}

impl Inner {
    fn submit(&self, req: TrialRequest) -> Result<Ticket, ServeError> {
        if req.trials == 0 {
            return Err(ServeError::EmptyRequest);
        }
        if self.shutdown.load(Ordering::Acquire) {
            return Err(ServeError::Disconnected);
        }
        let lane_idx = self.ensure_lane(&req.family)?;
        let (tx, rx) = mpsc::channel();
        let start = {
            let mut st = self.state.lock().unwrap();
            let lane = &mut st.lanes[lane_idx];
            let cap = self.config.lane_capacity;
            if cap > 0 && lane.queued + req.trials > cap {
                // Shed at the door: nothing is queued, the cursor does not
                // move, and the client gets a drain-time estimate from the
                // lane's observed service rate.
                let per = lane.exec.ns_per_trial.load(Ordering::Relaxed).max(50_000);
                let hint = Duration::from_nanos(lane.queued.max(1) as u64 * per);
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
                if telemetry::enabled() {
                    serve_probes().shed.inc();
                }
                return Err(ServeError::Overloaded {
                    retry_after_hint: hint,
                });
            }
            let submitted = Instant::now();
            let start = req.start.unwrap_or(lane.cursor);
            lane.cursor = lane.cursor.max(start + req.trials);
            lane.queued += req.trials;
            lane.pending.push_back(PendingSeg {
                start,
                trials: req.trials,
                offset_in_req: 0,
                tx,
                submitted,
                deadline: req.deadline.map(|budget| submitted + budget),
            });
            if telemetry::enabled() {
                lane.depth.add(req.trials as i64);
            }
            start
        };
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters
            .trials
            .fetch_add(req.trials as u64, Ordering::Relaxed);
        if telemetry::enabled() {
            let p = serve_probes();
            p.requests.inc();
            p.trials.add(req.trials as u64);
            p.queue_depth.add(req.trials as i64);
        }
        self.work_cv.notify_all();
        Ok(Ticket {
            family: req.family,
            start,
            trials: req.trials,
            rx,
        })
    }

    /// Find or create the lane for `family`, compiling (or cache-loading)
    /// its artifact outside the scheduler lock.
    fn ensure_lane(&self, family: &str) -> Result<usize, ServeError> {
        if let Some(i) = self.lane_index(family) {
            return Ok(i);
        }
        let spec = distill_models::by_name(family)
            .ok_or_else(|| ServeError::UnknownFamily(family.to_string()))?;
        let workload = spec.build(self.config.scale);
        let artifact = {
            let mut cache = self.cache.lock().unwrap();
            // Catch a compiler panic *inside* the guard so the cache mutex
            // is never poisoned by a failed build: the panic becomes a
            // typed Build error and the next lookup recompiles cleanly
            // (the cache inserts only after a successful compile).
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.get_or_compile(family, &workload.model, self.config.compile)
            }))
            .unwrap_or_else(|payload| {
                Err(ServeError::Build(format!(
                    "artifact build panicked: {}",
                    distill_exec::panic_message(payload.as_ref())
                )))
            })?
        };
        let trial_fn = artifact.trial_func.ok_or_else(|| {
            ServeError::Build(format!(
                "family `{family}` compiled without a whole-model entry point \
                 (serving requires CompileMode::WholeModel)"
            ))
        })?;
        let mut flats: Vec<Vec<f64>> = workload
            .inputs
            .iter()
            .map(|input| artifact.layout.flatten_input(&workload.model.input_nodes, input))
            .collect();
        if flats.is_empty() {
            // No registered inputs: every trial reads a zeroed input image,
            // matching the batched staging path's zero-fill.
            flats.push(vec![0.0; artifact.layout.ext_len]);
        }
        let policy = TierPolicy::from_env().unwrap_or(artifact.config.tier);
        let template = Engine::with_config(artifact.module.clone(), ExecConfig { policy });
        let batch_usable =
            self.config.batch > 1 && artifact.batch_capacity > 0 && artifact.batch_func.is_some();
        let chunk = if batch_usable {
            self.config.batch.min(artifact.batch_capacity)
        } else {
            self.config.batch
        };
        let exec = Arc::new(LaneExec {
            batch_fn: if batch_usable { artifact.batch_func } else { None },
            trial_fn,
            chunk,
            flats,
            template,
            artifact,
            ns_per_trial: AtomicU64::new(0),
        });
        let mut st = self.state.lock().unwrap();
        // Another client may have raced us through the compile; keep theirs.
        if let Some(i) = st.lanes.iter().position(|l| l.name == family) {
            return Ok(i);
        }
        st.lanes.push(Lane {
            name: family.to_string(),
            exec,
            cursor: 0,
            pending: VecDeque::new(),
            queued: 0,
            depth: lane_depth_gauge(family),
        });
        Ok(st.lanes.len() - 1)
    }

    fn lane_index(&self, family: &str) -> Option<usize> {
        let st = self.state.lock().unwrap();
        st.lanes.iter().position(|l| l.name == family)
    }

    fn run_solo(
        &self,
        family: &str,
        start: usize,
        trials: usize,
    ) -> Result<TrialResponse, ServeError> {
        if trials == 0 {
            return Err(ServeError::EmptyRequest);
        }
        let lane_idx = self.ensure_lane(family)?;
        let exec = self.state.lock().unwrap().lanes[lane_idx].exec.clone();
        let t0 = Instant::now();
        let mut engine = exec.template.clone();
        let out_len = exec.artifact.layout.trial_output_len;
        let mut outputs = Vec::with_capacity(trials);
        let mut passes = Vec::with_capacity(trials);
        for t in start..start + trials {
            engine
                .write_global_f64(gn::EXT_INPUT, &exec.flats[t % exec.flats.len()])
                .map_err(exec_err)?;
            engine
                .call(exec.trial_fn, &[Value::I64(t as i64)])
                .map_err(exec_err)?;
            let out = engine.read_global_f64(gn::TRIAL_OUTPUT).map_err(exec_err)?;
            outputs.push(out[..out_len].to_vec());
            passes.push(engine.read_global_i64(gn::PASSES, 0).map_err(exec_err)? as u64);
        }
        Ok(TrialResponse {
            family: family.to_string(),
            start,
            outputs,
            passes,
            latency: t0.elapsed(),
            coalesced: false,
        })
    }
}

fn exec_err(e: distill::ExecError) -> ServeError {
    ServeError::Exec(e.to_string())
}

/// Pull a grabbable chunk from the active spans, lazily dropping drained
/// spans (their in-flight chunks are owned by the workers running them).
fn grab_chunk(st: &mut State) -> Option<(Arc<SpanJob>, std::ops::Range<usize>)> {
    while !st.spans.is_empty() {
        if let Some(range) = st.spans[0].queue.grab() {
            return Some((st.spans[0].clone(), range));
        }
        st.spans.swap_remove(0);
    }
    None
}

/// Pack the next span from the lane FIFOs, round-robining across lanes.
/// Returns whether a span was packed.
fn pack_next_span(st: &mut State, inner: &Inner) -> bool {
    if st.lanes.is_empty() {
        return false;
    }
    let n = st.lanes.len();
    for i in 0..n {
        let li = (st.rr_cursor + i) % n;
        expire_lane(&mut st.lanes[li], inner);
        if st.lanes[li].pending.is_empty() {
            continue;
        }
        st.rr_cursor = (li + 1) % n;
        let span = pack_lane_span(&mut st.lanes[li], li, inner.config.span_cap);
        inner.counters.spans.fetch_add(1, Ordering::Relaxed);
        if span.coalesced {
            inner.counters.coalesced_spans.fetch_add(1, Ordering::Relaxed);
        }
        if telemetry::enabled() {
            let p = serve_probes();
            p.spans.inc();
            if span.coalesced {
                p.coalesced_spans.inc();
            }
            p.span_trials.record(span.trials as u64);
            p.queue_depth.add(-(span.trials as i64));
            st.lanes[li].depth.add(-(span.trials as i64));
        }
        st.spans.push(span);
        return true;
    }
    false
}

/// Reject every queued segment whose deadline has passed with a typed
/// [`ServeError::DeadlineExceeded`]. Runs under the state lock at pack
/// time — the last gate before execution — so an expired request is never
/// packed into a span, wherever it sits in the FIFO.
fn expire_lane(lane: &mut Lane, inner: &Inner) {
    if lane.pending.iter().all(|p| p.deadline.is_none()) {
        return;
    }
    let now = Instant::now();
    let before = lane.pending.len();
    let mut expired_trials = 0usize;
    lane.pending.retain(|p| {
        let expired = p.deadline.is_some_and(|d| d <= now);
        if expired {
            expired_trials += p.trials;
            let _ = p.tx.send(Part::Err(ServeError::DeadlineExceeded));
        }
        !expired
    });
    let expired_segs = before - lane.pending.len();
    if expired_segs == 0 {
        return;
    }
    lane.queued -= expired_trials;
    inner
        .counters
        .expired
        .fetch_add(expired_segs as u64, Ordering::Relaxed);
    if telemetry::enabled() {
        serve_probes().expired.add(expired_segs as u64);
        serve_probes().queue_depth.add(-(expired_trials as i64));
        lane.depth.add(-(expired_trials as i64));
    }
}

/// Pack one span from the front of a lane's FIFO: contiguous segments in
/// arrival order, up to `span_cap` trials, splitting an oversized front
/// segment rather than leaving capacity idle.
fn pack_lane_span(lane: &mut Lane, lane_idx: usize, span_cap: usize) -> Arc<SpanJob> {
    let lo = lane.pending.front().expect("pack on empty lane").start;
    let mut next = lo;
    let mut total = 0usize;
    let mut segments = Vec::new();
    while total < span_cap {
        let Some(p) = lane.pending.front_mut() else {
            break;
        };
        if p.start != next {
            // A gap in the trial space (explicitly placed request): the
            // span stays contiguous; the rest waits for the next pack.
            break;
        }
        let take = p.trials.min(span_cap - total);
        let packed = Instant::now();
        if telemetry::enabled() {
            serve_probes()
                .wait_ns
                .record_duration(packed.duration_since(p.submitted));
        }
        segments.push(Segment {
            offset_in_req: p.offset_in_req,
            start: p.start,
            trials: take,
            tx: p.tx.clone(),
            submitted: p.submitted,
            deadline: p.deadline,
            packed,
        });
        p.start += take;
        p.trials -= take;
        p.offset_in_req += take;
        next += take;
        total += take;
        if p.trials == 0 {
            lane.pending.pop_front();
        }
    }
    lane.queued -= total;
    let coalesced = segments.len() > 1;
    let chunk = lane.exec.chunk.min(total).max(1);
    Arc::new(SpanJob {
        exec: lane.exec.clone(),
        lane: lane_idx,
        lo,
        trials: total,
        queue: ChunkQueue::new(total, chunk),
        coalesced,
        work: Mutex::new(SpanWork {
            segments,
            outs: vec![Vec::new(); total],
            passes: vec![0; total],
            completed: 0,
            failed: None,
            panicked: Vec::new(),
        }),
    })
}

/// Executor thread: grab chunks while any span has them, pack new spans
/// when none do, sleep when the lanes are idle. Exits once shutdown is
/// flagged *and* every queued trial has been packed and grabbed — drop
/// drains, it does not abandon.
fn worker_loop(inner: &Arc<Inner>) {
    // Worker-local engine and staging-buffer reuse, keyed by lane: cloning
    // the template engine copies globals, so it happens once per
    // (worker, lane), not per chunk.
    let mut engines: HashMap<usize, Engine> = HashMap::new();
    let mut stagings: HashMap<usize, StagingBuffer> = HashMap::new();
    loop {
        let grabbed = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if let Some(g) = grab_chunk(&mut st) {
                    break Some(g);
                }
                if pack_next_span(&mut st, inner) {
                    continue;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                st = inner.work_cv.wait(st).unwrap();
            }
        };
        let Some((span, range)) = grabbed else {
            return;
        };
        run_span_chunk(inner, &span, range, &mut engines, &mut stagings);
    }
}

/// Execute one chunk of a span and record it; the worker that completes
/// the span's last trial demuxes the results to the requesters.
///
/// The engine-operation sequence here mirrors the offline driver's
/// trial-chunk execution exactly (stage → `trials_batch(lo, n)` → read
/// back, or the trial-by-trial path for unbatched lanes) — with the one
/// serving twist that inputs go through a worker-local double-buffered
/// [`StagingBuffer`], whose published image is byte-identical to the
/// offline `stage_batch` allocation.
fn run_span_chunk(
    inner: &Inner,
    span: &SpanJob,
    range: std::ops::Range<usize>,
    engines: &mut HashMap<usize, Engine>,
    stagings: &mut HashMap<usize, StagingBuffer>,
) {
    let exec = &span.exec;
    let layout = &exec.artifact.layout;
    let out_len = layout.trial_output_len;
    let n = range.len();
    let lo = span.lo + range.start;
    let t0 = Instant::now();
    let result = {
        let engine = engines
            .entry(span.lane)
            .or_insert_with(|| exec.template.clone());
        let mut chunk_span = telemetry::span("serve.chunk");
        chunk_span.arg_i64("lane", span.lane as i64);
        chunk_span.arg_i64("lo", lo as i64);
        chunk_span.arg_i64("trials", n as i64);
        // The chunk body runs under catch_unwind: a panic (an engine bug,
        // or an armed chaos plan) must quarantine this chunk, not unwind
        // the worker thread and strand the span.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
            || -> Result<(Vec<Vec<f64>>, Vec<u64>), ServeError> {
                distill::chaos::chunk_delay();
                distill::chaos::check_panic_trial(lo, n);
                let mut outs = Vec::with_capacity(n);
                let mut passes = Vec::with_capacity(n);
                match exec.batch_fn {
                    Some(bf) => {
                        if layout.ext_len > 0 {
                            let staging = stagings
                                .entry(span.lane)
                                .or_insert_with(|| layout.staging_buffer(exec.chunk));
                            staging.stage(&exec.flats, lo, n);
                            engine
                                .write_global_f64(gn::BATCH_EXT, staging.publish())
                                .map_err(exec_err)?;
                        }
                        engine
                            .call(bf, &[Value::I64(lo as i64), Value::I64(n as i64)])
                            .map_err(exec_err)?;
                        inner.counters.batch_calls.fetch_add(1, Ordering::Relaxed);
                        if telemetry::enabled() {
                            serve_probes().batch_calls.inc();
                        }
                        let o = engine
                            .read_global_f64_prefix(gn::BATCH_OUT, n * out_len)
                            .map_err(exec_err)?;
                        let p = engine
                            .read_global_f64_prefix(gn::BATCH_PASSES, n)
                            .map_err(exec_err)?;
                        for k in 0..n {
                            outs.push(o[k * out_len..(k + 1) * out_len].to_vec());
                            passes.push(p[k] as u64);
                        }
                    }
                    None => {
                        for t in lo..lo + n {
                            engine
                                .write_global_f64(gn::EXT_INPUT, &exec.flats[t % exec.flats.len()])
                                .map_err(exec_err)?;
                            engine
                                .call(exec.trial_fn, &[Value::I64(t as i64)])
                                .map_err(exec_err)?;
                            let out =
                                engine.read_global_f64(gn::TRIAL_OUTPUT).map_err(exec_err)?;
                            outs.push(out[..out_len].to_vec());
                            passes.push(
                                engine.read_global_i64(gn::PASSES, 0).map_err(exec_err)? as u64
                            );
                        }
                    }
                }
                Ok((outs, passes))
            },
        ));
        drop(chunk_span);
        result
    };

    let mut work = span.work.lock().unwrap();
    match result {
        Ok(Ok((outs, passes))) => {
            // Feed the admission controller's retry hint with an EWMA of
            // observed per-trial service time (racy updates are fine for a
            // hint).
            let per = (t0.elapsed().as_nanos() as u64) / n.max(1) as u64;
            let old = exec.ns_per_trial.load(Ordering::Relaxed);
            let ewma = if old == 0 { per } else { (3 * old + per) / 4 };
            exec.ns_per_trial.store(ewma.max(1), Ordering::Relaxed);
            for (k, (o, p)) in outs.into_iter().zip(passes).enumerate() {
                work.outs[range.start + k] = o;
                work.passes[range.start + k] = p;
            }
        }
        Ok(Err(e)) => work.failed = Some(e),
        Err(payload) => {
            // Quarantine: the worker's engine (and staging buffer) for
            // this lane may be mid-trial; drop both so the next chunk
            // starts from a fresh template clone. Other workers' clones
            // and the shared template are unaffected.
            engines.remove(&span.lane);
            stagings.remove(&span.lane);
            let msg = distill_exec::panic_message(payload.as_ref());
            inner.counters.worker_panics.fetch_add(1, Ordering::Relaxed);
            if telemetry::enabled() {
                serve_probes().worker_panics.inc();
            }
            work.panicked.push((range.clone(), msg));
        }
    }
    work.completed += n;
    if work.completed == span.trials {
        finish_span(inner, span, &mut work);
    }
}

/// Complete a span. The clean path demuxes results to the requesters; a
/// span that lost chunks to a worker panic instead fails exactly the
/// segments overlapping the lost ranges with a typed
/// [`ServeError::WorkerPanicked`] and requeues every other segment at the
/// front of its lane, where the next pack re-serves it — bit-identically,
/// because segments carry absolute trial indices and chunk execution is
/// deterministic in them.
fn finish_span(inner: &Inner, span: &SpanJob, work: &mut MutexGuard<'_, SpanWork>) {
    if work.panicked.is_empty() {
        demux_span(span, work);
        return;
    }
    let panicked = std::mem::take(&mut work.panicked);
    let segments = std::mem::take(&mut work.segments);
    let mut requeue = Vec::new();
    for seg in segments {
        let rel = seg.start - span.lo;
        let hit = panicked
            .iter()
            .find(|(r, _)| rel < r.end && r.start < rel + seg.trials);
        match hit {
            Some((_, msg)) => {
                let _ = seg.tx.send(Part::Err(ServeError::WorkerPanicked(msg.clone())));
            }
            None => requeue.push(seg),
        }
    }
    if requeue.is_empty() {
        return;
    }
    let total: usize = requeue.iter().map(|s| s.trials).sum();
    inner
        .counters
        .requeued_trials
        .fetch_add(total as u64, Ordering::Relaxed);
    // Taking the state lock while holding the span's work lock is safe:
    // no path acquires them in the opposite order (pack and grab touch
    // only the state lock; the span queue is lock-free).
    let mut st = inner.state.lock().unwrap();
    let lane = &mut st.lanes[span.lane];
    lane.queued += total;
    if telemetry::enabled() {
        serve_probes().requeued.add(total as u64);
        serve_probes().queue_depth.add(total as i64);
        lane.depth.add(total as i64);
    }
    // Reverse push_front keeps the requeued segments in ascending start
    // order at the front of the FIFO, ahead of newer arrivals.
    for seg in requeue.into_iter().rev() {
        lane.pending.push_front(PendingSeg {
            start: seg.start,
            trials: seg.trials,
            offset_in_req: seg.offset_in_req,
            tx: seg.tx,
            submitted: seg.submitted,
            deadline: seg.deadline,
        });
    }
    drop(st);
    inner.work_cv.notify_all();
}

/// Send each segment of a completed span its slice of the results.
fn demux_span(span: &SpanJob, work: &mut MutexGuard<'_, SpanWork>) {
    let segments = std::mem::take(&mut work.segments);
    let probes_on = telemetry::enabled();
    for seg in segments {
        if probes_on {
            serve_probes()
                .service_ns
                .record_duration(seg.packed.elapsed());
        }
        let part = match &work.failed {
            Some(e) => Part::Err(e.clone()),
            None => {
                let rel = seg.start - span.lo;
                Part::Ok {
                    offset: seg.offset_in_req,
                    outputs: work.outs[rel..rel + seg.trials].to_vec(),
                    passes: work.passes[rel..rel + seg.trials].to_vec(),
                    latency: seg.submitted.elapsed(),
                    coalesced: span.coalesced,
                }
            }
        };
        // A requester that dropped its ticket is not an error.
        let _ = seg.tx.send(part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(workers: usize, batch: usize) -> Server {
        Server::start(ServeConfig {
            workers,
            batch,
            ..ServeConfig::default()
        })
    }

    #[test]
    fn unknown_family_and_empty_request_are_rejected() {
        let srv = server(1, 4);
        assert_eq!(
            srv.submit(TrialRequest::new("no_such_family", 3)).unwrap_err(),
            ServeError::UnknownFamily("no_such_family".into())
        );
        assert_eq!(
            srv.submit(TrialRequest::new("necker_cube_3", 0)).unwrap_err(),
            ServeError::EmptyRequest
        );
    }

    #[test]
    fn responses_match_solo_runs_bitwise() {
        let srv = server(3, 4);
        // Burst-submit from several clients so spans coalesce, then check
        // every response against the request running alone.
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                let client = srv.client();
                client
                    .submit(TrialRequest::new("necker_cube_3", 3 + (i % 3)))
                    .unwrap()
            })
            .collect();
        for t in tickets {
            let (start, trials) = (t.start(), t.trials);
            let got = t.wait().unwrap();
            let solo = srv.run_solo("necker_cube_3", start, trials).unwrap();
            assert_eq!(got.outputs, solo.outputs);
            assert_eq!(got.passes, solo.passes);
        }
        let stats = srv.stats();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.trials, 2 * (3 + 4 + 5));
    }

    #[test]
    fn oversized_requests_split_across_spans_and_reassemble() {
        let srv = Server::start(ServeConfig {
            workers: 2,
            batch: 4,
            span_cap: 8,
            ..ServeConfig::default()
        });
        let ticket = srv.submit(TrialRequest::new("necker_cube_3", 21)).unwrap();
        let got = ticket.wait().unwrap();
        assert_eq!(got.outputs.len(), 21);
        let solo = srv.run_solo("necker_cube_3", 0, 21).unwrap();
        assert_eq!(got.outputs, solo.outputs);
        assert_eq!(got.passes, solo.passes);
        assert!(srv.stats().spans >= 3, "21 trials over span_cap 8");
    }

    #[test]
    fn explicit_start_indices_leave_gaps_unserved() {
        let srv = server(2, 4);
        let a = srv
            .submit(TrialRequest {
                family: "necker_cube_3".into(),
                trials: 2,
                start: Some(10),
                deadline: None,
            })
            .unwrap();
        let got = a.wait().unwrap();
        assert_eq!(got.start, 10);
        let solo = srv.run_solo("necker_cube_3", 10, 2).unwrap();
        assert_eq!(got.outputs, solo.outputs);
        // The cursor advanced past the explicit range.
        let b = srv.submit(TrialRequest::new("necker_cube_3", 1)).unwrap();
        assert_eq!(b.start(), 12);
        b.wait().unwrap();
    }

    #[test]
    fn unbatched_lane_matches_batched_lane() {
        let batched = server(2, 8);
        let unbatched = server(2, 1);
        let a = batched
            .submit(TrialRequest::new("botvinick_stroop", 5))
            .unwrap()
            .wait()
            .unwrap();
        let b = unbatched
            .submit(TrialRequest::new("botvinick_stroop", 5))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(a.outputs, b.outputs);
        assert_eq!(a.passes, b.passes);
        assert_eq!(batched.stats().batch_calls, 1);
        assert_eq!(unbatched.stats().batch_calls, 0);
    }

    #[test]
    fn drop_drains_queued_work() {
        let srv = server(1, 4);
        let tickets: Vec<Ticket> = (0..4)
            .map(|_| srv.submit(TrialRequest::new("necker_cube_3", 4)).unwrap())
            .collect();
        drop(srv);
        for t in tickets {
            assert_eq!(t.wait().unwrap().outputs.len(), 4);
        }
    }
}
