//! Generated inputs: registry families plus seeded trial inputs.
//!
//! `Session`-driven workloads run each family on 16 seeded perturbations of
//! its registered input vectors (same arity, so every spec validates).
//! `serve` and `dsweep_family` resolve families from the registry by name and
//! use the registered inputs; there the generated input is the schedule.

use crate::util::Rng;
use distill::{Composition, TrialInput};
use distill_models::{registry, Scale};

/// Distinct inputs generated per family.
pub const INPUTS_PER_FAMILY: usize = 16;

#[derive(Debug, Clone)]
pub struct Family {
    pub name: &'static str,
    pub model: Composition,
    /// The registry's own inputs (what `serve` and `dsweep` feed the model).
    pub registered: Vec<TrialInput>,
    /// `INPUTS_PER_FAMILY` seeded perturbations of `registered`.
    pub inputs: Vec<TrialInput>,
}

impl Family {
    /// Build registry family `name` with inputs generated from `seed`.
    ///
    /// # Panics
    /// Panics when the registry has no such family: workload definitions
    /// name families statically, so a miss is a bug in the benchmark.
    pub fn new(name: &str, seed: u64) -> Family {
        let spec = registry::by_name(name).unwrap_or_else(|| panic!("no registry family `{name}`"));
        let w = spec.build(Scale::Reduced);
        let mut rng = Rng::new(seed, &format!("inputs/{name}"));
        let inputs = (0..INPUTS_PER_FAMILY)
            .map(|k| perturb(&w.inputs[k % w.inputs.len()], &mut rng))
            .collect();
        Family {
            name: spec.name,
            model: w.model,
            registered: w.inputs,
            inputs,
        }
    }
}

/// Scale every value by up to ±5 % and shift it by up to ±0.01, keeping the
/// shape of the input.
fn perturb(input: &TrialInput, rng: &mut Rng) -> TrialInput {
    input
        .iter()
        .map(|port| {
            port.iter()
                .map(|v| v * (1.0 + 0.1 * (rng.unit() - 0.5)) + 0.02 * (rng.unit() - 0.5))
                .collect()
        })
        .collect()
}

pub fn families(names: &[&str], seed: u64) -> Vec<Family> {
    names.iter().map(|n| Family::new(n, seed)).collect()
}

/// FNV digest of a set of generated inputs: equal for equal seeds, different
/// otherwise.
pub fn inputs_digest(families: &[Family]) -> u64 {
    let mut d = crate::util::Digest::default();
    for f in families {
        for input in &f.inputs {
            d.trials(input, &[]);
        }
    }
    d.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_inputs_and_keeps_their_shape() {
        let a = families(&["predator_prey_2", "botvinick_stroop"], 11);
        let b = families(&["predator_prey_2", "botvinick_stroop"], 11);
        let c = families(&["predator_prey_2", "botvinick_stroop"], 12);
        assert_eq!(inputs_digest(&a), inputs_digest(&b));
        assert_ne!(inputs_digest(&a), inputs_digest(&c));
        for f in &a {
            assert_eq!(f.inputs.len(), INPUTS_PER_FAMILY);
            for (k, input) in f.inputs.iter().enumerate() {
                let reg = &f.registered[k % f.registered.len()];
                assert_eq!(input.len(), reg.len());
                for (p, q) in input.iter().zip(reg) {
                    assert_eq!(p.len(), q.len());
                }
            }
            assert_ne!(
                f.inputs[0],
                f.inputs[f.registered.len()],
                "cycled inputs are distinct"
            );
        }
    }
}
