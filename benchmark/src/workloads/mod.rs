//! The eight workloads. Each is chosen for the layer that does most of its
//! work (see `why`), so that a change to one layer has a workload that
//! exercises it and one that bypasses it.

mod cold_build;
mod dsweep;
mod runloop;
mod serve;

use crate::json::Json;
use crate::metrics::Metrics;
use crate::oracle::Sample;
use crate::spans::Tracer;
use crate::util::{Digest, Rng};
use std::time::Instant;

/// What one timed region did.
#[derive(Debug, Default)]
pub struct Timed {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored, were refused, shed or expired, or broke a
    /// workload-specific rule (their reasons are in `notes`).
    pub failed: u64,
    pub trials: u64,
    pub wall_s: f64,
    /// One latency per op, in ms.
    pub latencies_ms: Vec<f64>,
    /// FNV over the outputs and pass counts of the first `digest_ops` ops, a
    /// count every run of these arguments reaches, so the digest repeats
    /// exactly for a given seed and duration.
    pub digest: Digest,
    pub digest_ops: u64,
    /// Seeded sample of ops kept for the output check.
    pub samples: Vec<Sample>,
    pub notes: Vec<String>,
}

impl Timed {
    /// Fold another round into this one: counts add up, digests chain.
    pub fn absorb(&mut self, round: Timed) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.trials += round.trials;
        self.wall_s += round.wall_s;
        self.latencies_ms.extend(round.latencies_ms);
        self.digest.word(round.digest.0);
        self.digest_ops += round.digest_ops;
        self.samples.extend(round.samples);
        self.notes.extend(round.notes);
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

/// One workload. `setup` may be called several times (set-up time is a
/// metric); each call replaces what the previous one built.
pub trait Workload {
    /// Build models, compile, start servers, run warm-up ops.
    ///
    /// # Errors
    /// Anything that prevents the workload from running, as text.
    fn setup(&mut self) -> Result<(), String>;

    /// One timed region: ops for `seconds`, each timed, outputs folded into
    /// the digest and sampled for the check. A measured run has several
    /// rounds, each after a fresh set-up; `round` selects the seeded stream
    /// the ops (or the arrival schedule) are drawn from, so rounds run
    /// different ops of the same mix.
    fn run(&mut self, seconds: f64, round: u64, t: &mut Tracer) -> Timed;

    /// Recompute the sampled ops with the independent executors; one message
    /// per op that does not match.
    fn verify(&mut self, timed: &Timed) -> Vec<String>;

    /// Traced run only: per-layer metrics of the last `run`, plus extra
    /// report sections (the `layers` table among them).
    ///
    /// # Errors
    /// A failed replay or layer measurement, as text.
    fn layers(&mut self, t: &mut Tracer, m: &mut Metrics) -> Result<Vec<(String, Json)>, String>;
}

/// Name and reason of every workload, in reporting order.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("dispatch_heavy", "32-trial batched runs of the three heaviest families: exec dispatch is >=95% of every op, so tier work must show here"),
    ("boundary_heavy", "1-8 trial runs of cheap families: validation, staging, global write/read-back and result allocation are the largest share they ever are"),
    ("cold_build", "cold O0/O2/O3 builds and warm artifact loads of all 12 families plus one trial: codegen, opt, verify, decode/fuse/thread and the artifact codec do the work"),
    ("serve_steady", "open-loop Poisson requests at about a third of capacity: latency is service time and lanes rarely hold two requests, so coalescing is bypassed"),
    ("serve_burst", "open-loop bursts of 24 tiny requests to one family at similar utilisation: queueing, span packing, coalescing and demux dominate"),
    ("shard_sweep", "2-shard batched runs over fresh trial windows: the sharded runner, ChunkQueue and Engine::clone at a scale that can be timed"),
    ("dsweep_procs", "dsweep_family over 2 worker processes: coordinator, wire framing, sockets, process spawn and worker-side artifact decode"),
    ("baseline_py", "2-6 trial runs of the eight Figure-4 families on the pyvm baseline: the paper's denominator, which compiled-side changes must not move"),
];

/// The workload called `name`, with inputs and schedule generated from
/// `seed`.
pub fn make(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dispatch_heavy" | "boundary_heavy" | "shard_sweep" | "baseline_py" => {
            Box::new(runloop::RunLoop::new(name, seed)?)
        }
        "cold_build" => Box::new(cold_build::ColdBuild::new(seed)),
        "serve_steady" => Box::new(serve::Serve::new(serve::Regime::Steady, seed)),
        "serve_burst" => Box::new(serve::Serve::new(serve::Regime::Burst, seed)),
        "dsweep_procs" => Box::new(dsweep::Dsweep::new(seed)),
        _ => return None,
    })
}

/// Where in an op's result the kept sample sits.
pub(crate) struct Placement {
    pub family: usize,
    pub inputs: usize,
    /// Absolute trial index of the op's first trial.
    pub window_start: usize,
    /// Trials into the window at which the kept ones start.
    pub skip: usize,
}

/// Per-trial outputs and pass counts of one op.
pub(crate) type Trials = (Vec<Vec<f64>>, Vec<u64>);

/// The ops of a closed-loop workload (one caller; the next op starts when
/// the previous one returns). [`drive`] owns the loop.
pub(crate) trait ClosedLoop {
    /// An op, prepared outside the timed call.
    type Plan;

    /// Ops per round-robin cycle: a round stops only on a cycle boundary, so
    /// every round times the same mix.
    fn cycle(&self) -> u64;

    /// Prepare op number `op` (untimed): draw its seeded shape.
    fn plan(&mut self, op: u64, rng: &mut Rng) -> Self::Plan;

    /// The timed call. Must return every trial the plan asked for.
    fn exec(&mut self, plan: &Self::Plan) -> Result<Trials, String>;

    /// Layer and name of the op's span.
    fn span(&self, plan: &Self::Plan) -> (&'static str, &'static str);

    /// Where to cut the sample out of a kept op (`kept` samples so far).
    fn place(&self, op: u64, plan: &Self::Plan, sampler: &Sampler, kept: usize) -> Placement;
}

/// Round `k` numbers its ops from `k` times this: a multiple of every cycle
/// length, so a round starts on family 0 and its trial windows do not
/// overlap another round's.
const ROUND_STRIDE: u64 = 1_000_032;

/// Ops for `seconds` (and at least `min_ops`, over which the digest is taken)
/// of a round's seeded op sequence (`None`: the warm-up sequence).
pub(crate) fn drive<W: ClosedLoop>(
    w: &mut W,
    seed: u64,
    seconds: f64,
    min_ops: u64,
    round: Option<u64>,
    sampler: Option<Sampler>,
    t: &mut Tracer,
) -> Timed {
    let mut out = Timed {
        digest_ops: min_ops,
        ..Timed::default()
    };
    let mut rng = Rng::new(seed, &stream("ops", round));
    let first_op = round.unwrap_or(0) * ROUND_STRIDE;
    let start = Instant::now();
    loop {
        let op = first_op + out.attempted;
        let plan = w.plan(op, &mut rng);
        let t0 = Instant::now();
        let r = w.exec(&plan);
        let t1 = Instant::now();
        out.latencies_ms
            .push(t1.duration_since(t0).as_secs_f64() * 1e3);
        let (layer, name) = w.span(&plan);
        t.record(layer, name, op, t0, t1);
        out.attempted += 1;
        match r {
            Ok((outputs, passes)) => {
                out.trials += outputs.len() as u64;
                if out.attempted <= min_ops {
                    out.digest.trials(&outputs, &passes);
                }
                if let Some(s) = sampler.filter(|s| s.keep(op, out.samples.len())) {
                    let at = w.place(op, &plan, &s, out.samples.len());
                    out.samples.push(Sample::of(
                        op,
                        at.family,
                        at.inputs,
                        at.window_start,
                        at.skip,
                        &outputs,
                        &passes,
                    ));
                }
            }
            Err(e) => out.fail(format!("op {op}: {e}")),
        }
        let cycle_done = out.attempted.is_multiple_of(w.cycle());
        if cycle_done && out.attempted >= min_ops && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// Label of the seeded stream a round draws from (`None`: the warm-up ops).
pub(crate) fn stream(kind: &str, round: Option<u64>) -> String {
    match round {
        Some(k) => format!("{kind}/{k}"),
        None => format!("{kind}/warm"),
    }
}

/// Which ops of a round are kept for the output check: a seeded
/// 1-in-`stride` draw, where `stride` aims at about 24 samples over the
/// expected op count (five rounds make a measured run), capped at 32 kept.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sampler {
    seed: u64,
    stride: u64,
}

impl Sampler {
    pub(crate) const CAP: usize = 32;

    pub(crate) fn new(seed: u64, expected_ops: f64) -> Sampler {
        Sampler {
            seed,
            stride: ((expected_ops / 24.0) as u64).max(1),
        }
    }

    fn hash(&self, op: u64) -> u64 {
        let mut z = self.seed ^ op.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }

    /// Whether to keep op `op`, given `kept` samples so far.
    pub(crate) fn keep(&self, op: u64, kept: usize) -> bool {
        kept < Sampler::CAP && self.hash(op).is_multiple_of(self.stride)
    }

    /// How far into an op's `trials`-long window the kept trials start.
    pub(crate) fn skip(&self, op: u64, trials: usize) -> usize {
        (self.hash(op) >> 20) as usize % trials.max(1)
    }
}
