//! A miniature feed-forward neural-network substrate standing in for the
//! PyTorch components of heterogeneous models (the Multitasking model of
//! §5 feeds a PyTorch network's output into a PsyNeuLink LCA).
//!
//! Only the forward pass is needed inside a cognitive model run, and Distill
//! lowers it through exactly the same path as native mechanisms — that is
//! the point the paper makes about cross-framework optimization (§3.4.2).
//! Weights are generated deterministically from a seed so baseline and
//! compiled runs agree bit-for-bit.

use crate::functions::dense_layer;
use crate::mechanism::Mechanism;
use distill_pyvm::SplitMix64;

/// Specification of a fully connected network: layer widths from input to
/// output, e.g. `[4, 8, 3]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpSpec {
    /// Layer widths, input first.
    pub widths: Vec<usize>,
    /// Whether hidden layers use a logistic activation (otherwise tanh).
    pub logistic: bool,
    /// Seed for the deterministic weight initialization.
    pub seed: u64,
}

impl MlpSpec {
    /// Create a spec.
    pub fn new(widths: Vec<usize>, logistic: bool, seed: u64) -> MlpSpec {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        MlpSpec {
            widths,
            logistic,
            seed,
        }
    }

    /// Number of layers (weight matrices).
    pub fn n_layers(&self) -> usize {
        self.widths.len() - 1
    }

    /// Total number of trainable parameters.
    pub fn n_params(&self) -> usize {
        self.widths.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }
}

/// Deterministic Xavier-style weight initialization.
fn init_weights(rng: &mut SplitMix64, n_in: usize, n_out: usize) -> (Vec<f64>, Vec<f64>) {
    let scale = (6.0 / (n_in + n_out) as f64).sqrt();
    let weights = (0..n_in * n_out)
        .map(|_| (rng.uniform() * 2.0 - 1.0) * scale)
        .collect();
    let bias = (0..n_out)
        .map(|_| (rng.uniform() * 2.0 - 1.0) * 0.1)
        .collect();
    (weights, bias)
}

/// Build the chain of PyTorch-tagged mechanisms implementing the network's
/// forward pass. The mechanisms must be connected in order (output port 0 of
/// layer `k` to input port 0 of layer `k+1`) by the composition.
pub fn build_mlp(name_prefix: &str, spec: &MlpSpec) -> Vec<Mechanism> {
    let mut rng = SplitMix64::new(spec.seed);
    let mut layers = Vec::with_capacity(spec.n_layers());
    for (k, w) in spec.widths.windows(2).enumerate() {
        let (weights, bias) = init_weights(&mut rng, w[0], w[1]);
        let is_last = k == spec.n_layers() - 1;
        layers.push(dense_layer(
            &format!("{name_prefix}_fc{k}"),
            w[0],
            w[1],
            weights,
            bias,
            // Hidden layers follow the spec; the output layer is logistic so
            // downstream evidence accumulators receive values in (0, 1).
            if is_last { true } else { spec.logistic },
        ));
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::Framework;

    #[test]
    fn spec_accounting() {
        let spec = MlpSpec::new(vec![4, 8, 3], false, 7);
        assert_eq!(spec.n_layers(), 2);
        assert_eq!(spec.n_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn build_produces_connected_shapes() {
        let spec = MlpSpec::new(vec![4, 8, 3], false, 7);
        let layers = build_mlp("net", &spec);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].input_sizes, vec![4]);
        assert_eq!(layers[0].output_sizes, vec![8]);
        assert_eq!(layers[1].input_sizes, vec![8]);
        assert_eq!(layers[1].output_sizes, vec![3]);
        assert!(layers.iter().all(|l| l.framework == Framework::PyTorch));
    }

    #[test]
    fn weights_are_deterministic_per_seed() {
        let spec = MlpSpec::new(vec![3, 3], false, 42);
        let a = build_mlp("a", &spec);
        let b = build_mlp("b", &spec);
        assert_eq!(a[0].param("weights"), b[0].param("weights"));
        let other = build_mlp("c", &MlpSpec::new(vec![3, 3], false, 43));
        assert_ne!(a[0].param("weights"), other[0].param("weights"));
    }

    #[test]
    #[should_panic]
    fn single_width_spec_is_rejected() {
        MlpSpec::new(vec![4], false, 1);
    }
}
