//! The output check. Observable model behaviour is the specification,
//! whatever executes it, so sampled ops are recomputed by two executors that
//! share nothing with the tier under test: the unoptimised IR on the
//! IR-walking reference interpreter, and the `pyvm` baseline interpreter.

use crate::inputs::Family;
use distill::{ExecMode, OptLevel, RunSpec, Runner, Session, Target, Tier, TierPolicy, TrialInput};
use distill_cogmodel::Composition;

/// Trials kept per sampled op (a sub-window of the op's trial window).
pub const SAMPLE_TRIALS: usize = 4;

/// What is kept of a sampled op for the check.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: u64,
    /// Index into the workload's family list.
    pub family: usize,
    /// Which of the family's input sets the op ran on.
    pub inputs: usize,
    /// Absolute trial index of the first kept trial.
    pub start: usize,
    pub outputs: Vec<Vec<f64>>,
    pub passes: Vec<u64>,
}

impl Sample {
    /// Keep up to [`SAMPLE_TRIALS`] trials of an op's result, starting
    /// `skip` trials into its window (which begins at `window_start`).
    pub fn of(
        op: u64,
        family: usize,
        inputs: usize,
        window_start: usize,
        skip: usize,
        outputs: &[Vec<f64>],
        passes: &[u64],
    ) -> Sample {
        let lo = skip.min(outputs.len().saturating_sub(1));
        let hi = (lo + SAMPLE_TRIALS).min(outputs.len());
        Sample {
            op,
            family,
            inputs,
            start: window_start + lo,
            outputs: outputs[lo..hi].to_vec(),
            passes: passes[lo..hi].to_vec(),
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()) + 1e-12
}

/// Whether two sets of per-trial outputs are the same bit for bit.
pub fn bits_equal(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

fn all_close(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(p, q)| close(*p, *q)))
}

/// The independent executors for one family.
pub struct Oracle {
    /// `OptLevel::O0` on `Tier::Reference`, serial, unbatched.
    reference: Box<dyn Runner>,
    /// Default configuration, serial, unbatched: what a sharded, served or
    /// distributed window must equal bit for bit.
    serial: Box<dyn Runner>,
    /// `Target::Baseline(ExecMode::CPython)`.
    baseline: Box<dyn Runner>,
}

impl Oracle {
    /// # Panics
    /// Panics when a registry model fails to compile: nothing can be
    /// checked then.
    pub fn new(model: &Composition) -> Oracle {
        let build = |s: Session| s.build().expect("oracle session builds");
        Oracle {
            reference: build(
                Session::new(model)
                    .opt_level(OptLevel::O0)
                    .tier(TierPolicy::Fixed(Tier::Reference)),
            ),
            serial: build(Session::new(model)),
            baseline: build(Session::new(model).target(Target::Baseline(ExecMode::CPython))),
        }
    }

    /// Check a sample of compiled execution: bitwise against the reference
    /// interpreter on unoptimised IR (first kept trial) and against a plain
    /// serial run (whole sample), and — for windows starting at trial 0,
    /// the only ones the baseline can run — within 1e-9 of `pyvm` with equal
    /// pass counts.
    pub fn check_compiled(&mut self, inputs: &[TrialInput], s: &Sample) -> Result<(), String> {
        let window =
            |start: usize, trials: usize| RunSpec::new(inputs.to_vec(), trials).with_offset(start);
        let r = self
            .reference
            .run(&window(s.start, 1))
            .map_err(|e| e.to_string())?;
        if !bits_equal(&r.outputs, &s.outputs[..1]) || r.passes[..] != s.passes[..1] {
            return Err(format!(
                "op {} trial {}: differs from O0 on the reference tier",
                s.op, s.start
            ));
        }
        let r = self
            .serial
            .run(&window(s.start, s.outputs.len()))
            .map_err(|e| e.to_string())?;
        if !bits_equal(&r.outputs, &s.outputs) || r.passes != s.passes {
            return Err(format!(
                "op {} window {}+{}: differs from a serial run",
                s.op,
                s.start,
                s.outputs.len()
            ));
        }
        if s.start == 0 {
            let n = s.outputs.len().min(2);
            let r = self
                .baseline
                .run(&window(0, n))
                .map_err(|e| e.to_string())?;
            if !all_close(&r.outputs, &s.outputs[..n]) || r.passes[..] != s.passes[..n] {
                return Err(format!(
                    "op {} window 0+{n}: differs from the pyvm baseline",
                    s.op
                ));
            }
        }
        Ok(())
    }

    /// Check a sample of *baseline* execution (the `baseline_py` workload,
    /// where `pyvm` is what is measured) against the reference interpreter
    /// on unoptimised IR: within 1e-9, equal pass counts.
    pub fn check_baseline(&mut self, inputs: &[TrialInput], s: &Sample) -> Result<(), String> {
        let spec = RunSpec::new(inputs.to_vec(), s.outputs.len()).with_offset(s.start);
        let r = self.reference.run(&spec).map_err(|e| e.to_string())?;
        if !all_close(&r.outputs, &s.outputs) || r.passes != s.passes {
            return Err(format!(
                "op {} window {}+{}: pyvm differs from compiled O0",
                s.op,
                s.start,
                s.outputs.len()
            ));
        }
        Ok(())
    }
}

/// Check every sample against its family's oracle (built on first use).
/// `inputs_of` names the inputs a sampled op ran on; `baseline` says the ops
/// were `pyvm` runs. Returns one message per op that does not match.
pub fn check_samples<'a>(
    families: &[Family],
    samples: impl IntoIterator<Item = &'a Sample>,
    baseline: bool,
    inputs_of: impl for<'f> Fn(&'f Family, &Sample) -> &'f [TrialInput],
) -> Vec<String> {
    let mut oracles: Vec<Option<Oracle>> = families.iter().map(|_| None).collect();
    samples
        .into_iter()
        .filter_map(|s| {
            let f = &families[s.family];
            let oracle = oracles[s.family].get_or_insert_with(|| Oracle::new(&f.model));
            let inputs = inputs_of(f, s);
            let checked = if baseline {
                oracle.check_baseline(inputs, s)
            } else {
                oracle.check_compiled(inputs, s)
            };
            checked.err().map(|e| format!("{}: {e}", f.name))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_correct_sample_passes_and_a_flipped_bit_fails() {
        let f = Family::new("predator_prey_2", 3);
        let mut oracle = Oracle::new(&f.model);
        for (start, shards) in [(0usize, 1usize), (37, 2)] {
            let spec = RunSpec::new(f.inputs.clone(), 6)
                .with_offset(start)
                .with_batch(4)
                .with_shards(shards);
            let r = Session::new(&f.model).build().unwrap().run(&spec).unwrap();
            let good = Sample::of(1, 0, 0, start, 1, &r.outputs, &r.passes);
            assert_eq!(good.start, start + 1);
            assert_eq!(good.outputs.len(), SAMPLE_TRIALS);
            oracle.check_compiled(&f.inputs, &good).unwrap();
            let whole = Sample::of(1, 0, 0, start, 0, &r.outputs, &r.passes);
            oracle.check_compiled(&f.inputs, &whole).unwrap();
            let mut bad = whole.clone();
            bad.outputs[0][0] = f64::from_bits(bad.outputs[0][0].to_bits() ^ 1);
            assert!(oracle.check_compiled(&f.inputs, &bad).is_err());
            let mut bad = whole;
            bad.passes[2] += 1;
            assert!(oracle.check_compiled(&f.inputs, &bad).is_err());
        }
        let spec = RunSpec::new(f.inputs.clone(), 3);
        let r = Session::new(&f.model)
            .target(Target::Baseline(ExecMode::CPython))
            .build()
            .unwrap()
            .run(&spec)
            .unwrap();
        oracle
            .check_baseline(&f.inputs, &Sample::of(2, 0, 0, 0, 0, &r.outputs, &r.passes))
            .unwrap();
    }
}
