//! `cold_build`: time to first result. Closed loop, one caller. A sweep is,
//! for each of the 12 registry families, a cold `Session::build` at O0, O2
//! and O3 followed by one trial, then a warm `deserialize_artifact` +
//! `build_with` + one trial per family: 48 ops, repeated until time is up.

use super::{drive, ClosedLoop, Placement, Sampler, Timed, Trials, Workload};
use crate::inputs::{families, Family};
use crate::json::Json;
use crate::layers::{self, LayerFamily};
use crate::metrics::Metrics;
use crate::oracle::check_samples;
use crate::spans::Tracer;
use crate::util::Rng;
use distill::{deserialize_artifact, serialize_artifact, OptLevel, RunSpec, Session};
use distill_models::registry;

const LEVELS: [OptLevel; 3] = [OptLevel::O0, OptLevel::O2, OptLevel::O3];
const MIN_OPS_PER_S: f64 = 12.0;

pub struct ColdBuild {
    seed: u64,
    families: Vec<Family>,
    /// Serialized O2 artifact per family, for the warm ops.
    artifacts: Vec<Vec<u8>>,
    specs: Vec<RunSpec>,
    warm_op_s: f64,
}

impl ColdBuild {
    pub fn new(seed: u64) -> ColdBuild {
        ColdBuild {
            seed,
            families: Vec::new(),
            artifacts: Vec::new(),
            specs: Vec::new(),
            warm_op_s: 0.0,
        }
    }
}

/// One op: which family, a cold build at a level or (`None`) a warm load.
pub(crate) struct BuildOp {
    family: usize,
    level: Option<OptLevel>,
    offset: usize,
}

impl ClosedLoop for ColdBuild {
    type Plan = BuildOp;

    fn cycle(&self) -> u64 {
        1
    }

    fn plan(&mut self, op: u64, rng: &mut Rng) -> BuildOp {
        let n = self.families.len() as u64;
        let cold = n * LEVELS.len() as u64;
        let slot = op % (cold + n);
        let (family, level) = if slot < cold {
            let level = LEVELS[(slot % LEVELS.len() as u64) as usize];
            ((slot / LEVELS.len() as u64) as usize, Some(level))
        } else {
            ((slot - cold) as usize, None)
        };
        // Window 0 one time in four: the only one the baseline can check.
        let offset = if rng.range(0, 3) == 0 {
            0
        } else {
            rng.range(1, 1 << 20)
        };
        self.specs[family].offset = offset;
        BuildOp {
            family,
            level,
            offset,
        }
    }

    /// Build (cold at a level, or warm from bytes), then one trial.
    fn exec(&mut self, op: &BuildOp) -> Result<Trials, String> {
        let name = self.families[op.family].name;
        let session = Session::new(&self.families[op.family].model);
        let mut runner = match op.level {
            Some(level) => session.opt_level(level).build(),
            None => {
                let artifact = deserialize_artifact(&self.artifacts[op.family])
                    .map_err(|e| format!("{name}: {e}"))?;
                session.build_with(artifact)
            }
        }
        .map_err(|e| format!("{name}: {e}"))?;
        let r = runner
            .run(&self.specs[op.family])
            .map_err(|e| format!("{name}: {e}"))?;
        if r.outputs.len() != 1 {
            return Err(format!("{name}: no trial came back"));
        }
        Ok((r.outputs, r.passes))
    }

    fn span(&self, op: &BuildOp) -> (&'static str, &'static str) {
        (
            "core",
            if op.level.is_some() {
                "Session::build+run"
            } else {
                "build_with+run"
            },
        )
    }

    fn place(&self, _: u64, op: &BuildOp, _: &Sampler, _: usize) -> Placement {
        Placement {
            family: op.family,
            inputs: 0,
            window_start: op.offset,
            skip: 0,
        }
    }
}

impl Workload for ColdBuild {
    fn setup(&mut self) -> Result<(), String> {
        let names: Vec<&str> = registry::registry().iter().map(|s| s.name).collect();
        self.families = families(&names, self.seed);
        self.artifacts = self
            .families
            .iter()
            .map(|f| {
                let runner = Session::new(&f.model)
                    .build()
                    .map_err(|e| format!("{}: {e}", f.name))?;
                Ok(serialize_artifact(
                    runner.compiled().ok_or("compiled runner has no artifact")?,
                ))
            })
            .collect::<Result<_, String>>()?;
        self.specs = self
            .families
            .iter()
            .map(|f| RunSpec::new(f.inputs.clone(), 1))
            .collect();
        let warm = drive(
            self,
            self.seed,
            0.0,
            16,
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
        let min_ops = ((MIN_OPS_PER_S * seconds) as u64).max(1);
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
        check_samples(&self.families, &timed.samples, false, |f, _| &f.inputs)
    }

    fn layers(&mut self, t: &mut Tracer, m: &mut Metrics) -> Result<Vec<(String, Json)>, String> {
        let fams = LayerFamily::of(&self.families, false);
        let table = layers::compiled_layers(t, &fams, &[], &LEVELS, m)?;
        Ok(vec![("layers".to_string(), table.to_json())])
    }
}
