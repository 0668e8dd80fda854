//! The four closed-loop `Runner::run` workloads: one caller, the next op
//! starts when the previous one returns. They share the loop and differ in
//! families, target and the seeded shape of an op.

use super::{drive, stream, ClosedLoop, Placement, Sampler, Timed, Trials, Workload};
use crate::inputs::{families, Family};
use crate::json::Json;
use crate::layers::{self, LayerFamily};
use crate::metrics::Metrics;
use crate::oracle::check_samples;
use crate::spans::Tracer;
use crate::util::Rng;
use distill::{ExecMode, OptLevel, RunSpec, Runner, Session, Target, TrialInput};
use distill_cogmodel::BaselineRunner;
use distill_models::{registry, Tag};

/// The seeded shape of one op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shape {
    family: usize,
    /// Which of the family's input sets the spec carries.
    inputs: usize,
    trials: usize,
    batch: usize,
    shards: usize,
    offset: usize,
}

struct Def {
    families: Vec<&'static str>,
    baseline: bool,
    /// Ops shard their trial window across threads (`shard_sweep`).
    sharded: bool,
    /// Input sets per family: 1 = all 16 inputs in every spec; 4 = four
    /// specs of 4 inputs each (the baseline cannot run an offset window, so
    /// it varies its inputs by set).
    input_sets: usize,
    shape: fn(&mut Rng, u64) -> Shape,
    /// Ops every run completes at least, per second asked for (the digest
    /// covers exactly these).
    min_ops_per_s: f64,
    /// Ops replayed through the layers in the traced run.
    replay_ops: u64,
}

/// A fresh window three times in four, window 0 otherwise (the only window
/// the baseline interpreter can check).
fn seeded_offset(rng: &mut Rng) -> usize {
    if rng.range(0, 3) == 0 {
        0
    } else {
        rng.range(1, 1 << 20)
    }
}

fn dispatch_shape(rng: &mut Rng, op: u64) -> Shape {
    Shape {
        family: (op % 3) as usize,
        inputs: 0,
        trials: 32,
        batch: 32,
        shards: 1,
        offset: seeded_offset(rng),
    }
}

fn boundary_shape(rng: &mut Rng, op: u64) -> Shape {
    let trials = [1, 1, 1, 2, 4, 8][rng.range(0, 5)];
    let batch = if op.is_multiple_of(2) { 64 } else { 1 };
    Shape {
        family: (op % 3) as usize,
        inputs: 0,
        trials,
        batch,
        shards: 1,
        offset: seeded_offset(rng),
    }
}

fn shard_shape(_: &mut Rng, op: u64) -> Shape {
    let family = (op % 2) as usize;
    // Sized so both families' ops take about the same time (~50 ms): with two
    // distinct latency clusters the median op would flip between them.
    let trials = [3200, 360][family];
    Shape {
        family,
        inputs: 0,
        trials,
        batch: 64,
        shards: 2,
        offset: (op / 2) as usize * trials,
    }
}

fn baseline_shape(rng: &mut Rng, op: u64) -> Shape {
    // 2-6 trials (4 on average): with a fixed size the eight families form
    // eight latency clusters and the median op sits on the edge between the
    // fourth and the fifth.
    let inputs = rng.range(0, 3);
    Shape {
        family: (op % 8) as usize,
        inputs,
        trials: rng.range(2, 6),
        batch: 1,
        shards: 1,
        offset: 0,
    }
}

fn def(name: &str) -> Option<Def> {
    Some(match name {
        "dispatch_heavy" => Def {
            families: vec![
                "predator_prey_skewed",
                "botvinick_stroop",
                "predator_prey_6",
            ],
            baseline: false,
            sharded: false,
            input_sets: 1,
            shape: dispatch_shape,
            min_ops_per_s: 6.0,
            replay_ops: 12,
        },
        "boundary_heavy" => Def {
            families: vec!["predator_prey_2", "necker_cube_3", "multitasking"],
            baseline: false,
            sharded: false,
            input_sets: 1,
            shape: boundary_shape,
            min_ops_per_s: 600.0,
            replay_ops: 120,
        },
        "shard_sweep" => Def {
            families: vec!["predator_prey_2", "necker_cube_8"],
            baseline: false,
            sharded: true,
            input_sets: 1,
            shape: shard_shape,
            min_ops_per_s: 4.0,
            replay_ops: 6,
        },
        "baseline_py" => Def {
            families: registry::by_tag(Tag::Figure4)
                .iter()
                .map(|s| s.name)
                .collect(),
            baseline: true,
            sharded: false,
            input_sets: 4,
            shape: baseline_shape,
            min_ops_per_s: 50.0,
            replay_ops: 0,
        },
        _ => return None,
    })
}

pub struct RunLoop {
    seed: u64,
    def: Def,
    families: Vec<Family>,
    runners: Vec<Box<dyn Runner>>,
    /// `specs[family][input set]`, reshaped in place per op.
    specs: Vec<Vec<RunSpec>>,
    /// Mean op time seen in warm-up, in seconds (sizes the sampler).
    warm_op_s: f64,
}

impl RunLoop {
    pub fn new(name: &str, seed: u64) -> Option<RunLoop> {
        Some(RunLoop {
            seed,
            def: def(name)?,
            families: Vec::new(),
            runners: Vec::new(),
            specs: Vec::new(),
            warm_op_s: 0.0,
        })
    }

    fn input_set(&self, family: usize, set: usize) -> &[TrialInput] {
        let all = &self.families[family].inputs;
        let per = all.len() / self.def.input_sets;
        &all[set * per..(set + 1) * per]
    }

    /// Give the family's prebuilt spec the shape of this op (the inputs stay
    /// in place, so no op pays for cloning them).
    fn reshape(&mut self, s: Shape) -> &RunSpec {
        let spec = &mut self.specs[s.family][s.inputs];
        spec.trials = s.trials;
        spec.batch = s.batch;
        spec.shards = s.shards;
        spec.offset = s.offset;
        spec
    }

    fn replay_ops(&self) -> Vec<(usize, RunSpec)> {
        let mut rng = Rng::new(self.seed, &stream("ops", Some(0)));
        (0..self.def.replay_ops)
            .map(|op| {
                let s = (self.def.shape)(&mut rng, op);
                // The chain is serial: a sharded op is replayed as the
                // serial run of the same window.
                let spec = RunSpec::new(self.families[s.family].inputs.clone(), s.trials)
                    .with_batch(s.batch)
                    .with_offset(s.offset);
                (s.family, spec)
            })
            .collect()
    }
}

impl ClosedLoop for RunLoop {
    type Plan = Shape;

    fn cycle(&self) -> u64 {
        self.families.len() as u64
    }

    fn plan(&mut self, op: u64, rng: &mut Rng) -> Shape {
        let shape = (self.def.shape)(rng, op);
        self.reshape(shape);
        shape
    }

    fn exec(&mut self, shape: &Shape) -> Result<Trials, String> {
        let r = self.runners[shape.family]
            .run(&self.specs[shape.family][shape.inputs])
            .map_err(|e| e.to_string())?;
        if r.outputs.len() != shape.trials {
            return Err(format!(
                "{} trials came back, {} asked",
                r.outputs.len(),
                shape.trials
            ));
        }
        Ok((r.outputs, r.passes))
    }

    fn span(&self, _: &Shape) -> (&'static str, &'static str) {
        ("core", "Runner::run")
    }

    fn place(&self, op: u64, shape: &Shape, sampler: &Sampler, _: usize) -> Placement {
        // A window-0 op keeps its first trials: the only ones the baseline
        // interpreter can recompute.
        let skip = if shape.offset == 0 {
            0
        } else {
            sampler.skip(op, shape.trials)
        };
        Placement {
            family: shape.family,
            inputs: shape.inputs,
            window_start: shape.offset,
            skip,
        }
    }
}

impl Workload for RunLoop {
    fn setup(&mut self) -> Result<(), String> {
        self.families = families(&self.def.families, self.seed);
        let target = if self.def.baseline {
            Target::Baseline(ExecMode::CPython)
        } else {
            Target::SingleCore
        };
        self.runners = self
            .families
            .iter()
            .map(|f| {
                Session::new(&f.model)
                    .target(target)
                    .build()
                    .map_err(|e| format!("{}: {e}", f.name))
            })
            .collect::<Result<_, _>>()?;
        self.specs = (0..self.families.len())
            .map(|f| {
                (0..self.def.input_sets)
                    .map(|s| RunSpec::new(self.input_set(f, s).to_vec(), 1))
                    .collect()
            })
            .collect();
        // Warm-up: the first ops of the sequence, so frame pools, staging
        // and every family's code are hot before anything is timed.
        let warm_ops = (self.def.min_ops_per_s * 0.25).ceil() as u64 + self.families.len() as u64;
        let warm = drive(
            self,
            self.seed,
            0.0,
            warm_ops,
            None,
            None,
            &mut Tracer::new(false),
        );
        if warm.failed > 0 {
            return Err(format!("warm-up failed: {}", warm.notes.join("; ")));
        }
        self.warm_op_s = warm.wall_s / warm.attempted as f64;
        Ok(())
    }

    fn run(&mut self, seconds: f64, round: u64, t: &mut Tracer) -> Timed {
        let min_ops = ((self.def.min_ops_per_s * seconds) as u64).max(1);
        let sampler = Sampler::new(self.seed ^ round, seconds / self.warm_op_s.max(1e-9));
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
        let sets = self.def.input_sets;
        check_samples(&self.families, &timed.samples, self.def.baseline, |f, s| {
            let per = f.inputs.len() / sets;
            &f.inputs[s.inputs * per..][..per]
        })
    }

    fn layers(&mut self, t: &mut Tracer, m: &mut Metrics) -> Result<Vec<(String, Json)>, String> {
        let fams = LayerFamily::of(&self.families, false);
        let table = layers::compiled_layers(t, &fams, &self.replay_ops(), &[] as &[OptLevel], m)?;
        let mut report = vec![("layers".to_string(), table.to_json())];

        if self.def.baseline {
            let (mut ns, mut evals, mut trials) = (0u64, 0u64, 0u64);
            for f in &self.families {
                let (r, t_ns) = layers::time_ns(|| {
                    BaselineRunner::new(ExecMode::CPython).run(&f.model, &f.inputs, 4)
                });
                let r = r.map_err(|e| e.to_string())?;
                ns += t_ns;
                evals += r.expr_evaluations;
                trials += 4;
            }
            m.set("cogmodel.baseline_ns_per_trial", ns as f64 / trials as f64);
            m.set("pyvm.expr_evals_per_trial", evals as f64 / trials as f64);
            m.set("pyvm.ns_per_expr_eval", ns as f64 / evals.max(1) as f64);
            let models: Vec<_> = self
                .families
                .iter()
                .map(|f| (f.name, &f.model, &f.inputs[..]))
                .collect();
            let (rows, geomean) = layers::speedup_vs_baseline(&models)?;
            m.set("core.speedup_vs_baseline_geomean", geomean);
            let rows = rows
                .into_iter()
                .map(|r| {
                    Json::obj([
                        (
                            "speedup",
                            Json::Num(r.baseline_ns_per_trial / r.compiled_ns_per_trial),
                        ),
                        ("baseline_ns_per_trial", Json::Num(r.baseline_ns_per_trial)),
                        ("compiled_ns_per_trial", Json::Num(r.compiled_ns_per_trial)),
                        ("family", Json::Str(r.family)),
                    ])
                })
                .collect();
            report.push(("speedup_vs_baseline".into(), Json::Arr(rows)));
        }

        if self.def.sharded {
            // The same windows serial and sharded, alternating.
            let mut rng = Rng::new(self.seed, &stream("ops", Some(0)));
            let (mut serial_ns, mut sharded_ns, mut chunks, mut steals, mut threads) =
                (0u64, 0u64, 0u64, 0u64, 1usize);
            for op in 0..4 {
                let shape = (self.def.shape)(&mut rng, op);
                let sharded = self.reshape(shape).clone();
                let serial = sharded.clone().with_shards(1);
                let runner = &mut self.runners[shape.family];
                let (r, ns) = layers::time_ns(|| runner.run(&serial));
                r.map_err(|e| e.to_string())?;
                serial_ns += ns;
                let (r, ns) = layers::time_ns(|| runner.run(&sharded));
                let r = r.map_err(|e| e.to_string())?;
                sharded_ns += ns;
                let stats = r.shards.ok_or("sharded run reported no shard statistics")?;
                chunks += stats.chunks as u64;
                steals += stats.steals;
                threads = threads.max(stats.threads);
            }
            let speedup = serial_ns as f64 / sharded_ns as f64;
            m.set("core.shard.speedup_vs_serial", speedup);
            m.set("core.shard.efficiency", speedup / threads as f64);
            m.set("core.shard.chunks", chunks as f64);
            m.set("core.shard.steals", steals as f64);
            let engine = self.runners[0]
                .engine()
                .ok_or("compiled runner has no engine")?;
            let (clone_ns, grab_ns) = layers::shard_fixed_costs(engine);
            m.set("exec.engine_clone_ns", clone_ns);
            m.set("exec.chunkqueue_grab_ns", grab_ns);
        }
        Ok(report)
    }
}
