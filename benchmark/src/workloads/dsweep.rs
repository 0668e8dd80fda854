//! `dsweep_procs`: closed loop, one caller; an op is one `dsweep_family`
//! call over two worker *processes*. `dsweep_family` resolves the family
//! from the registry and always sweeps trials `0..n` of its registered
//! inputs, so the generated input is the sequence of sweep sizes.

use super::{drive, ClosedLoop, Placement, Sampler, Timed, Trials, Workload};
use crate::inputs::{families, Family};
use crate::json::Json;
use crate::layers::{self, LayerFamily};
use crate::metrics::Metrics;
use crate::oracle::check_samples;
use crate::spans::Tracer;
use crate::util::{median, Rng};
use distill::{RunSpec, Session};
use distill_sweep::proto::{decode_msg, encode_msg, LeaseResult, Msg};
use distill_sweep::{dsweep_family, find_worker_bin, DsweepConfig, DsweepReport, WorkerMode};
use std::time::Instant;

const FAMILIES: [&str; 2] = ["predator_prey_2", "necker_cube_8"];
/// Nominal sweep size per family, chosen so both families' sweeps take about
/// as long (a `necker_cube_8` trial costs ~20x a `predator_prey_2` trial, and
/// with two latency clusters the median op flips between them); an op's size
/// is this, give or take up to an eighth (seeded).
const NOMINAL_TRIALS: [usize; 2] = [10240, 1024];
const WORKERS: usize = 2;
const BATCH: usize = 64;
const LEASE_TRIALS: usize = 256;
const MIN_OPS_PER_S: f64 = 1.0;

fn config(trials: usize) -> DsweepConfig {
    DsweepConfig {
        workers: WORKERS,
        threads: 1,
        batch: BATCH,
        lease_trials: LEASE_TRIALS,
        trials: Some(trials),
        mode: WorkerMode::Process,
        ..DsweepConfig::default()
    }
}

/// What `layers` needs of the last timed region.
#[derive(Default)]
struct LastRun {
    /// `(family, trials, call seconds, lease-phase seconds)` per good op.
    ops: Vec<(usize, usize, f64, f64)>,
    leases: u64,
    reissued: u64,
    fenced_stale: u64,
    worker_deaths: u64,
    fallback_leases: u64,
    /// One lease's worth of real outputs, for the wire-format timings.
    lease: Option<LeaseResult>,
}

pub struct Dsweep {
    seed: u64,
    families: Vec<Family>,
    last: LastRun,
}

impl Dsweep {
    pub fn new(seed: u64) -> Dsweep {
        Dsweep {
            seed,
            families: Vec::new(),
            last: LastRun::default(),
        }
    }
}

/// One op: a sweep of `trials` trials of a family.
pub(crate) struct Sweep {
    family: usize,
    trials: usize,
}

impl ClosedLoop for Dsweep {
    type Plan = Sweep;

    /// A sweep of each family: the two carry very different trial counts.
    fn cycle(&self) -> u64 {
        FAMILIES.len() as u64
    }

    fn plan(&mut self, op: u64, rng: &mut Rng) -> Sweep {
        let family = (op % FAMILIES.len() as u64) as usize;
        Sweep {
            family,
            trials: NOMINAL_TRIALS[family] / 32 * (28 + rng.range(0, 8)),
        }
    }

    fn exec(&mut self, op: &Sweep) -> Result<Trials, String> {
        let start = Instant::now();
        let r =
            dsweep_family(FAMILIES[op.family], &config(op.trials)).map_err(|e| e.to_string())?;
        let call_s = start.elapsed().as_secs_f64();
        if !good(&r, op.trials) {
            return Err(format!(
                "mode `{}`, {} fallback leases, {} of {} trials, {} of {WORKERS} workers",
                r.mode,
                r.fallback_leases,
                r.outputs.len(),
                op.trials,
                r.workers_connected
            ));
        }
        let last = &mut self.last;
        last.ops.push((op.family, op.trials, call_s, r.elapsed_s));
        last.leases += r.leases as u64;
        last.reissued += r.reissued;
        last.fenced_stale += r.fenced_stale;
        last.worker_deaths += r.worker_deaths;
        last.fallback_leases += r.fallback_leases as u64;
        if last.lease.is_none() {
            last.lease = Some(LeaseResult {
                start: 0,
                count: LEASE_TRIALS as u64,
                epoch: 0,
                outputs: r.outputs[..LEASE_TRIALS].to_vec(),
                passes: r.passes[..LEASE_TRIALS].to_vec(),
                shards: r.shards,
            });
        }
        Ok((r.outputs, r.passes))
    }

    fn span(&self, _: &Sweep) -> (&'static str, &'static str) {
        ("sweep", "dsweep_family")
    }

    fn place(&self, op: u64, sweep: &Sweep, sampler: &Sampler, kept: usize) -> Placement {
        // Every sweep starts at trial 0; every other sample keeps that
        // window, for the baseline check.
        let skip = if kept.is_multiple_of(2) {
            0
        } else {
            sampler.skip(op, sweep.trials)
        };
        Placement {
            family: sweep.family,
            inputs: 0,
            window_start: 0,
            skip,
        }
    }
}

/// An op counts only if it ran in true process mode, nothing fell back to
/// the in-process path, and every trial came back.
fn good(r: &DsweepReport, trials: usize) -> bool {
    r.mode == "process"
        && r.fallback_leases == 0
        && r.workers_connected == WORKERS
        && r.outputs.len() == trials
        && r.passes.len() == trials
}

impl Workload for Dsweep {
    fn setup(&mut self) -> Result<(), String> {
        if find_worker_bin().is_none() {
            return Err(
                "no distill-sweep-worker binary: build the root workspace and set \
                        DISTILL_SWEEP_WORKER (benchmark/run.sh does both)"
                    .into(),
            );
        }
        self.families = families(&FAMILIES, self.seed);
        let warm = drive(self, self.seed, 0.0, 2, None, None, &mut Tracer::new(false));
        if warm.failed > 0 {
            return Err(format!("warm-up failed: {}", warm.notes.join("; ")));
        }
        Ok(())
    }

    fn run(&mut self, seconds: f64, round: u64, t: &mut Tracer) -> Timed {
        let min_ops = ((MIN_OPS_PER_S * seconds) as u64).max(1);
        // Few enough ops that every one is checked.
        self.last = LastRun::default();
        let sampler = Sampler::new(self.seed, 1.0);
        drive(
            self,
            self.seed,
            seconds,
            min_ops,
            Some(round),
            Some(sampler),
            t,
        )
    }

    fn verify(&mut self, timed: &Timed) -> Vec<String> {
        check_samples(&self.families, &timed.samples, false, |f, _| &f.registered)
    }

    fn layers(&mut self, t: &mut Tracer, m: &mut Metrics) -> Result<Vec<(String, Json)>, String> {
        let last = &self.last;
        m.set("sweep.leases", last.leases as f64);
        m.set("sweep.reissued", last.reissued as f64);
        m.set("sweep.fenced_stale", last.fenced_stale as f64);
        m.set("sweep.worker_deaths", last.worker_deaths as f64);
        m.set("sweep.fallback_leases", last.fallback_leases as f64);
        let fixed: Vec<f64> = last
            .ops
            .iter()
            .map(|(_, _, call, lease)| (call - lease) * 1e3)
            .collect();
        m.set("sweep.fixed_ms_per_call", median(&fixed));
        let trials: usize = last.ops.iter().map(|o| o.1).sum();
        let lease_s: f64 = last.ops.iter().map(|o| o.3).sum();
        m.set(
            "sweep.lease_phase_trials_per_s",
            trials as f64 / lease_s.max(1e-9),
        );

        // The same sweeps in one process on the sharded runner (same
        // families, batch and thread count): what the processes cost.
        let (mut dsweep_ns, mut sharded_ns) = (0.0, 0.0);
        for (fam, f) in self.families.iter().enumerate() {
            let Some(&(_, trials, call_s, _)) = last.ops.iter().find(|o| o.0 == fam) else {
                continue;
            };
            let mut runner = Session::new(&f.model).build().map_err(|e| e.to_string())?;
            let spec = RunSpec::new(f.registered.clone(), trials)
                .with_batch(BATCH)
                .with_shards(WORKERS);
            runner.run(&spec).map_err(|e| e.to_string())?;
            let (r, ns) = layers::time_ns(|| runner.run(&spec));
            r.map_err(|e| e.to_string())?;
            dsweep_ns += call_s * 1e9 / trials as f64;
            sharded_ns += ns as f64 / trials as f64;
        }
        m.set(
            "sweep.overhead_vs_sharded",
            if sharded_ns > 0.0 {
                dsweep_ns / sharded_ns
            } else {
                0.0
            },
        );

        if let Some(lease) = &last.lease {
            let msg = Msg::LeaseResult(lease.clone());
            let payload = encode_msg(&msg);
            decode_msg(&payload).map_err(|e| e.to_string())?;
            let reps = |f: &mut dyn FnMut()| {
                median(
                    &(0..50)
                        .map(|_| layers::time_ns(&mut *f).1 as f64)
                        .collect::<Vec<_>>(),
                )
            };
            m.set(
                "sweep.encode_ns_per_frame",
                reps(&mut || drop(std::hint::black_box(encode_msg(&msg)))),
            );
            m.set(
                "sweep.decode_ns_per_frame",
                reps(&mut || drop(std::hint::black_box(decode_msg(&payload)))),
            );
            // Length prefix + checksum + payload.
            m.set("sweep.frame_bytes", (12 + payload.len()) as f64);
        }

        // What a worker does with one lease, replayed through the layers.
        let fams = LayerFamily::of(&self.families, true);
        let ops: Vec<(usize, RunSpec)> = (0..4)
            .map(|k| {
                let fam = k % 2;
                let spec = RunSpec::new(self.families[fam].registered.clone(), LEASE_TRIALS);
                (fam, spec.with_batch(BATCH).with_offset(LEASE_TRIALS * k))
            })
            .collect();
        let table = layers::compiled_layers(t, &fams, &ops, &[], m)?;
        Ok(vec![("layers".to_string(), table.to_json())])
    }
}
