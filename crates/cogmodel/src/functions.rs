//! The framework's standard function library (§3.4.1).
//!
//! PsyNeuLink mechanisms pick their computation from a library of functions
//! (Linear, Logistic, integrators, …). Distill keeps pre-defined templates
//! for these and specializes each one to the types and shapes of the lexical
//! instance that uses it — which is exactly what these constructors do:
//! given concrete shapes and parameter values they emit a fully scalarized
//! [`NodeComputation`] (and the corresponding [`Mechanism`]).

use crate::condition::Condition;
use crate::mechanism::{Framework, Mechanism, NodeComputation};
use distill_pyvm::{CmpOp, Expr, MathFn};

/// `y = slope * x + intercept`, element-wise over a port of size `n`.
pub fn linear(name: &str, n: usize, slope: f64, intercept: f64) -> Mechanism {
    let outputs = vec![(0..n)
        .map(|i| {
            Expr::add(
                Expr::mul(Expr::param("slope"), Expr::input_elem(0, i)),
                Expr::param("intercept"),
            )
        })
        .collect()];
    Mechanism::new(
        name,
        NodeComputation {
            outputs,
            state_updates: vec![],
        },
    )
    .with_inputs(vec![n])
    .with_param("slope", vec![slope])
    .with_param("intercept", vec![intercept])
}

/// `y = 1 / (1 + exp(-gain * (x - bias)))`, element-wise.
pub fn logistic(name: &str, n: usize, gain: f64, bias: f64) -> Mechanism {
    let outputs = vec![(0..n)
        .map(|i| {
            Expr::logistic(
                Expr::input_elem(0, i),
                Expr::param("gain"),
                Expr::param("bias"),
            )
        })
        .collect()];
    Mechanism::new(
        name,
        NodeComputation {
            outputs,
            state_updates: vec![],
        },
    )
    .with_inputs(vec![n])
    .with_param("gain", vec![gain])
    .with_param("bias", vec![bias])
}

/// A weighted-sum ("transfer") mechanism: output element `j` is
/// `f(sum_i w[j][i] * x[i] + b[j])` where `f` is a logistic with the given
/// gain. The weight matrix is stored row-major in a single parameter, and
/// the sum is fully unrolled — the monomorphic specialization of §3.4.1.
pub fn weighted_transfer(
    name: &str,
    n_in: usize,
    n_out: usize,
    weights: Vec<f64>,
    bias: Vec<f64>,
    gain: f64,
) -> Mechanism {
    assert_eq!(weights.len(), n_in * n_out, "weight matrix shape mismatch");
    assert_eq!(bias.len(), n_out, "bias shape mismatch");
    let outputs = vec![(0..n_out)
        .map(|j| {
            let mut acc = Expr::param_elem("bias", j);
            for i in 0..n_in {
                acc = Expr::add(
                    acc,
                    Expr::mul(
                        Expr::param_elem("weights", j * n_in + i),
                        Expr::input_elem(0, i),
                    ),
                );
            }
            Expr::logistic(acc, Expr::param("gain"), Expr::lit(0.0))
        })
        .collect()];
    Mechanism::new(
        name,
        NodeComputation {
            outputs,
            state_updates: vec![],
        },
    )
    .with_inputs(vec![n_in])
    .with_param("weights", weights)
    .with_param("bias", bias)
    .with_param("gain", vec![gain])
}

/// Drift-diffusion (DDM) integrator step: evidence accumulates as
/// `x += rate * stimulus * dt + noise * sqrt(dt) * N(0,1)`; the output is
/// the updated evidence. Used by two-choice decision models (Fig. 3).
pub fn ddm_integrator(name: &str, rate: f64, noise: f64, dt: f64, x0: f64) -> Mechanism {
    let drift = Expr::mul(
        Expr::mul(Expr::param("rate"), Expr::input(0)),
        Expr::param("dt"),
    );
    let diffusion = Expr::mul(
        Expr::mul(
            Expr::param("noise"),
            Expr::call1(MathFn::Sqrt, Expr::param("dt")),
        ),
        Expr::RandNormal,
    );
    let next = Expr::add(Expr::state("evidence"), Expr::add(drift, diffusion));
    Mechanism::new(
        name,
        NodeComputation {
            outputs: vec![vec![next.clone()]],
            state_updates: vec![("evidence".into(), 0, next)],
        },
    )
    .with_inputs(vec![1])
    .with_param("rate", vec![rate])
    .with_param("noise", vec![noise])
    .with_param("dt", vec![dt])
    .with_state("evidence", vec![x0])
}

/// Leaky competing accumulator (LCA) step over `n` competing units:
/// `x_j += dt * (stimulus_j - leak * x_j - beta * sum_{k != j} x_k)
///         + noise * sqrt(dt) * N(0,1)`.
pub fn lca_integrator(
    name: &str,
    n: usize,
    leak: f64,
    competition: f64,
    noise: f64,
    dt: f64,
) -> Mechanism {
    let mut outputs = Vec::with_capacity(n);
    let mut state_updates = Vec::with_capacity(n);
    for j in 0..n {
        let mut inhibition = Expr::lit(0.0);
        for k in 0..n {
            if k != j {
                inhibition = Expr::add(inhibition, Expr::state_elem("act", k));
            }
        }
        let drive = Expr::sub(
            Expr::sub(
                Expr::input_elem(0, j),
                Expr::mul(Expr::param("leak"), Expr::state_elem("act", j)),
            ),
            Expr::mul(Expr::param("competition"), inhibition),
        );
        let noise_term = Expr::mul(
            Expr::mul(
                Expr::param("noise"),
                Expr::call1(MathFn::Sqrt, Expr::param("dt")),
            ),
            Expr::RandNormal,
        );
        let next = Expr::add(
            Expr::state_elem("act", j),
            Expr::add(Expr::mul(Expr::param("dt"), drive), noise_term),
        );
        // Activations are clamped at zero from below (standard LCA).
        let clamped = Expr::call2(MathFn::Max, next, Expr::lit(0.0));
        outputs.push(clamped.clone());
        state_updates.push(("act".to_string(), j, clamped));
    }
    Mechanism::new(
        name,
        NodeComputation {
            outputs: vec![outputs],
            state_updates,
        },
    )
    .with_inputs(vec![n])
    .with_param("leak", vec![leak])
    .with_param("competition", vec![competition])
    .with_param("noise", vec![noise])
    .with_param("dt", vec![dt])
    .with_state("act", vec![0.0; n])
}

/// A Gaussian observer (predator-prey `Obs` nodes, §2.1): the observed
/// position of an entity is its true position plus noise whose standard
/// deviation shrinks with the attention allocated to the entity:
/// `obs_i = true_i + (sigma_max - attention * sigma_gain) * N(0,1)`.
pub fn gaussian_observer(name: &str, dims: usize, sigma_max: f64, sigma_gain: f64) -> Mechanism {
    let outputs = vec![(0..dims)
        .map(|i| {
            let sigma = Expr::call2(
                MathFn::Max,
                Expr::sub(
                    Expr::param("sigma_max"),
                    Expr::mul(Expr::param("attention"), Expr::param("sigma_gain")),
                ),
                Expr::lit(0.0),
            );
            Expr::add(Expr::input_elem(0, i), Expr::mul(sigma, Expr::RandNormal))
        })
        .collect()];
    Mechanism::new(
        name,
        NodeComputation {
            outputs,
            state_updates: vec![],
        },
    )
    .with_inputs(vec![dims])
    .with_param("sigma_max", vec![sigma_max])
    .with_param("sigma_gain", vec![sigma_gain])
    // `attention` is the controlled parameter the grid search writes into.
    .with_param("attention", vec![0.0])
}

/// A [`gaussian_observer`] that *deliberates* at high attention: when the
/// controlled `attention` exceeds `threshold`, each observed element is
/// refined by the mean of `deliberation` extra standard-normal samples
/// (scaled by `refine_gain`). Attention therefore buys a better estimate at
/// a real computational price — the evaluation cost of a grid point depends
/// on the attention levels its allocation decodes to, which makes the grid
/// *cost-skewed*: contiguous index ranges share the high-stride signal's
/// level and so cluster cheap and expensive cells together, the load shape
/// that serializes statically-chunked parallel sweeps and that work stealing
/// rebalances.
///
/// Both arms of the attention gate are honest about PRNG use: the refinement
/// draws only happen when the gate is taken (the interpreter short-circuits
/// and the compiled lowering branches), so the baseline, compiled, and every
/// parallel schedule consume identical streams.
pub fn deliberative_observer(
    name: &str,
    dims: usize,
    sigma_max: f64,
    sigma_gain: f64,
    deliberation: usize,
) -> Mechanism {
    let k = deliberation.max(1);
    let outputs = vec![(0..dims)
        .map(|i| {
            let sigma = Expr::call2(
                MathFn::Max,
                Expr::sub(
                    Expr::param("sigma_max"),
                    Expr::mul(Expr::param("attention"), Expr::param("sigma_gain")),
                ),
                Expr::lit(0.0),
            );
            let base = Expr::add(Expr::input_elem(0, i), Expr::mul(sigma, Expr::RandNormal));
            let mut refine = Expr::RandNormal;
            for _ in 1..k {
                refine = Expr::add(Expr::RandNormal, refine);
            }
            let refine_mean = Expr::mul(Expr::lit(1.0 / k as f64), refine);
            let gate = Expr::Cmp(
                CmpOp::Gt,
                Box::new(Expr::param("attention")),
                Box::new(Expr::param("threshold")),
            );
            let deliberated = Expr::If(
                Box::new(gate),
                Box::new(Expr::mul(Expr::param("refine_gain"), refine_mean)),
                Box::new(Expr::lit(0.0)),
            );
            Expr::add(base, deliberated)
        })
        .collect()];
    Mechanism::new(
        name,
        NodeComputation {
            outputs,
            state_updates: vec![],
        },
    )
    .with_inputs(vec![dims])
    .with_param("sigma_max", vec![sigma_max])
    .with_param("sigma_gain", vec![sigma_gain])
    .with_param("attention", vec![0.0])
    .with_param("threshold", vec![0.5])
    .with_param("refine_gain", vec![0.05])
}

/// A recurrent "Necker cube vertex" unit: a leaky integrator driven by the
/// summed activity of its neighbours (arriving on input port 0) minus its
/// own decay, squashed by a logistic.
pub fn necker_vertex(name: &str, n_neighbors: usize, leak: f64, gain: f64, dt: f64) -> Mechanism {
    let mut drive = Expr::lit(0.0);
    for i in 0..n_neighbors {
        drive = Expr::add(drive, Expr::input_elem(0, i));
    }
    let net = Expr::sub(drive, Expr::mul(Expr::param("leak"), Expr::state("act")));
    let next = Expr::add(Expr::state("act"), Expr::mul(Expr::param("dt"), net));
    let squashed = Expr::logistic(next.clone(), Expr::param("gain"), Expr::lit(0.5));
    Mechanism::new(
        name,
        NodeComputation {
            outputs: vec![vec![squashed]],
            state_updates: vec![("act".into(), 0, next)],
        },
    )
    .with_inputs(vec![n_neighbors])
    .with_param("leak", vec![leak])
    .with_param("gain", vec![gain])
    .with_param("dt", vec![dt])
    .with_state("act", vec![0.1])
}

/// The vectorized variant of the Necker cube model: all `n` vertices live in
/// a single mechanism whose input port carries the full activity vector and
/// whose adjacency is encoded in a weight parameter (1.0 where connected).
pub fn necker_vectorized(
    name: &str,
    n: usize,
    adjacency: Vec<f64>,
    leak: f64,
    gain: f64,
    dt: f64,
) -> Mechanism {
    assert_eq!(adjacency.len(), n * n, "adjacency matrix shape mismatch");
    let mut outputs = Vec::with_capacity(n);
    let mut state_updates = Vec::with_capacity(n);
    for j in 0..n {
        let mut drive = Expr::lit(0.0);
        for i in 0..n {
            drive = Expr::add(
                drive,
                Expr::mul(
                    Expr::param_elem("adjacency", j * n + i),
                    Expr::input_elem(0, i),
                ),
            );
        }
        let net = Expr::sub(
            drive,
            Expr::mul(Expr::param("leak"), Expr::state_elem("act", j)),
        );
        let next = Expr::add(
            Expr::state_elem("act", j),
            Expr::mul(Expr::param("dt"), net),
        );
        let squashed = Expr::logistic(next.clone(), Expr::param("gain"), Expr::lit(0.5));
        outputs.push(squashed);
        state_updates.push(("act".to_string(), j, next));
    }
    Mechanism::new(
        name,
        NodeComputation {
            outputs: vec![outputs],
            state_updates,
        },
    )
    .with_inputs(vec![n])
    .with_param("adjacency", adjacency)
    .with_param("leak", vec![leak])
    .with_param("gain", vec![gain])
    .with_param("dt", vec![dt])
    .with_state("act", vec![0.1; n])
}

/// A pass-through mechanism that simply republishes its input (used for
/// stimulus/"Loc" input nodes so every model value flows through a port).
pub fn identity(name: &str, n: usize) -> Mechanism {
    let outputs = vec![(0..n).map(|i| Expr::input_elem(0, i)).collect()];
    Mechanism::new(
        name,
        NodeComputation {
            outputs,
            state_updates: vec![],
        },
    )
    .with_inputs(vec![n])
}

/// An execution-count probe: cognitive scientists track how often nodes run
/// (§2.1 "metadata"); this mechanism exposes the count as its output.
pub fn call_counter(name: &str) -> Mechanism {
    let next = Expr::add(Expr::state("count"), Expr::lit(1.0));
    Mechanism::new(
        name,
        NodeComputation {
            outputs: vec![vec![next.clone()]],
            state_updates: vec![("count".into(), 0, next)],
        },
    )
    .with_inputs(vec![1])
    .with_state("count", vec![0.0])
    .with_condition(Condition::Always)
}

/// A dense (fully connected) neural-network layer imported from PyTorch:
/// `y_j = act(sum_i w[j][i] x_i + b[j])` with a tanh or logistic activation,
/// fully unrolled for the instantiated shape.
pub fn dense_layer(
    name: &str,
    n_in: usize,
    n_out: usize,
    weights: Vec<f64>,
    bias: Vec<f64>,
    logistic_act: bool,
) -> Mechanism {
    assert_eq!(weights.len(), n_in * n_out, "weight matrix shape mismatch");
    assert_eq!(bias.len(), n_out, "bias shape mismatch");
    let outputs = vec![(0..n_out)
        .map(|j| {
            let mut acc = Expr::param_elem("bias", j);
            for i in 0..n_in {
                acc = Expr::add(
                    acc,
                    Expr::mul(
                        Expr::param_elem("weights", j * n_in + i),
                        Expr::input_elem(0, i),
                    ),
                );
            }
            if logistic_act {
                Expr::logistic(acc, Expr::lit(1.0), Expr::lit(0.0))
            } else {
                Expr::call1(MathFn::Tanh, acc)
            }
        })
        .collect()];
    Mechanism::new(
        name,
        NodeComputation {
            outputs,
            state_updates: vec![],
        },
    )
    .with_framework(Framework::PyTorch)
    .with_inputs(vec![n_in])
    .with_param("weights", weights)
    .with_param("bias", bias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_pyvm::{DynValue, EvalContext, ExecMode, Interpreter, SplitMix64};

    /// Evaluate a mechanism's outputs on concrete inputs with the baseline
    /// interpreter (helper shared by the library tests).
    fn eval_outputs(m: &Mechanism, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut interp = Interpreter::new(ExecMode::CPython);
        let params = m.params_dict();
        let mut state = m.state_dict();
        let mut rng = SplitMix64::new(1);
        let dyn_inputs: Vec<DynValue> = inputs.iter().map(|v| DynValue::vector(v)).collect();
        m.computation
            .outputs
            .iter()
            .map(|port| {
                port.iter()
                    .map(|e| {
                        let mut ctx = EvalContext {
                            inputs: &dyn_inputs,
                            params: &params,
                            state: &mut state,
                            rng: &mut rng,
                            cache_key: None,
                        };
                        interp.eval(e, &mut ctx).unwrap()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn linear_computes_slope_and_intercept() {
        let m = linear("lin", 3, 2.0, 1.0);
        let out = eval_outputs(&m, &[vec![0.0, 1.0, 2.0]]);
        assert_eq!(out, vec![vec![1.0, 3.0, 5.0]]);
    }

    #[test]
    fn logistic_is_bounded_and_monotone() {
        let m = logistic("log", 1, 2.0, 0.0);
        let lo = eval_outputs(&m, &[vec![-5.0]])[0][0];
        let mid = eval_outputs(&m, &[vec![0.0]])[0][0];
        let hi = eval_outputs(&m, &[vec![5.0]])[0][0];
        assert!(lo < mid && mid < hi);
        assert!((mid - 0.5).abs() < 1e-12);
        assert!(lo > 0.0 && hi < 1.0);
    }

    #[test]
    fn weighted_transfer_unrolls_matrix_product() {
        // 2-in, 2-out identity weights with zero bias and huge gain behaves
        // like a (soft) threshold on each input.
        let m = weighted_transfer("h", 2, 2, vec![1.0, 0.0, 0.0, 1.0], vec![0.0, 0.0], 1.0);
        let out = eval_outputs(&m, &[vec![2.0, -2.0]]);
        assert!(out[0][0] > 0.8);
        assert!(out[0][1] < 0.2);
    }

    #[test]
    fn ddm_accumulates_with_zero_noise() {
        let m = ddm_integrator("ddm", 1.0, 0.0, 0.1, 0.0);
        // One step with stimulus 1.0 should add rate*stim*dt = 0.1.
        let out = eval_outputs(&m, &[vec![1.0]]);
        assert!((out[0][0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn lca_units_compete() {
        let m = lca_integrator("lca", 2, 0.1, 0.5, 0.0, 0.1);
        let out = eval_outputs(&m, &[vec![1.0, 0.2]]);
        assert!(out[0][0] > out[0][1], "stronger stimulus accumulates more");
        assert!(out[0][1] >= 0.0, "activations are clamped at zero");
    }

    #[test]
    fn observer_noise_shrinks_with_attention() {
        let mut low = gaussian_observer("obs", 2, 1.0, 0.9);
        let mut high = low.clone();
        low.param_mut("attention").unwrap()[0] = 0.0;
        high.param_mut("attention").unwrap()[0] = 1.0;
        // With the same RNG seed the deviation scales with sigma.
        let o_low = eval_outputs(&low, &[vec![0.0, 0.0]]);
        let o_high = eval_outputs(&high, &[vec![0.0, 0.0]]);
        let d_low: f64 = o_low[0].iter().map(|x| x.abs()).sum();
        let d_high: f64 = o_high[0].iter().map(|x| x.abs()).sum();
        assert!(d_high < d_low);
    }

    #[test]
    fn dense_layer_is_tagged_pytorch() {
        let m = dense_layer("nn", 2, 2, vec![1.0, 0.0, 0.0, 1.0], vec![0.0, 0.0], false);
        assert_eq!(m.framework, Framework::PyTorch);
        let out = eval_outputs(&m, &[vec![0.5, -0.5]]);
        assert!((out[0][0] - 0.5f64.tanh()).abs() < 1e-12);
        assert!((out[0][1] - (-0.5f64).tanh()).abs() < 1e-12);
    }

    #[test]
    fn vectorized_and_scalar_necker_have_matching_shapes() {
        let adj = vec![
            0.0, 1.0, 1.0, //
            1.0, 0.0, 1.0, //
            1.0, 1.0, 0.0,
        ];
        let vec_m = necker_vectorized("neckv", 3, adj, 0.4, 2.0, 0.1);
        assert_eq!(vec_m.output_sizes, vec![3]);
        let scalar_m = necker_vertex("v0", 2, 0.4, 2.0, 0.1);
        assert_eq!(scalar_m.output_sizes, vec![1]);
        assert_eq!(scalar_m.input_sizes, vec![2]);
    }

    #[test]
    fn call_counter_counts() {
        let m = call_counter("probe");
        let out1 = eval_outputs(&m, &[vec![0.0]]);
        assert_eq!(out1[0][0], 1.0);
    }
}
