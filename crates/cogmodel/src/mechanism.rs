//! Mechanisms: the nodes of a cognitive model.

use crate::condition::Condition;
use distill_pyvm::{DynValue, Expr};

/// The environment a component was authored in. Distill lowers computations
/// from every framework to the same IR (§3.4.2); the baseline environments
/// cannot (PyPy/Pyston cannot run PyTorch components at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Framework {
    /// Native PsyNeuLink mechanism.
    #[default]
    PsyNeuLink,
    /// A neural network or optimizer imported from PyTorch.
    PyTorch,
    /// A plain numpy-style function.
    Numpy,
}

impl Framework {
    /// Human-readable name used in error messages and figures.
    pub fn name(&self) -> &'static str {
        match self {
            Framework::PsyNeuLink => "PsyNeuLink",
            Framework::PyTorch => "PyTorch",
            Framework::Numpy => "numpy",
        }
    }
}

/// The scalarized computation of a mechanism.
///
/// `outputs[p][i]` is the expression for element `i` of output port `p`;
/// `state_updates` are `(state name, element index, expression)` triples
/// applied after the outputs are computed (all expressions read the state
/// values from *before* the update, i.e. the update is simultaneous).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeComputation {
    /// Per output port, per element, the defining expression.
    pub outputs: Vec<Vec<Expr>>,
    /// Read-write state updates applied after output computation.
    pub state_updates: Vec<(String, usize, Expr)>,
}

impl NodeComputation {
    /// A computation with a single scalar output and no state updates.
    pub fn scalar(expr: Expr) -> NodeComputation {
        NodeComputation {
            outputs: vec![vec![expr]],
            state_updates: Vec::new(),
        }
    }

    /// Total expression size (compile-cost proxy).
    pub fn size(&self) -> usize {
        self.outputs.iter().flatten().map(Expr::size).sum::<usize>()
            + self
                .state_updates
                .iter()
                .map(|(_, _, e)| e.size())
                .sum::<usize>()
    }

    /// Whether any expression draws random numbers.
    pub fn uses_rng(&self) -> bool {
        self.outputs.iter().flatten().any(Expr::uses_rng)
            || self.state_updates.iter().any(|(_, _, e)| e.uses_rng())
    }
}

/// A node of the model graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Mechanism {
    /// Unique name within the composition.
    pub name: String,
    /// Framework of origin.
    pub framework: Framework,
    /// Size (element count) of each input port.
    pub input_sizes: Vec<usize>,
    /// Size of each output port.
    pub output_sizes: Vec<usize>,
    /// Read-only parameters: `(name, values)`.
    pub params: Vec<(String, Vec<f64>)>,
    /// Read-write state with its initial values: `(name, values)`.
    pub state: Vec<(String, Vec<f64>)>,
    /// The node's computation.
    pub computation: NodeComputation,
    /// Activation condition consulted by the scheduler each pass.
    pub condition: Condition,
}

impl Mechanism {
    /// Create a mechanism with the given name and computation; ports and
    /// parameters are added with the builder-style methods.
    pub fn new(name: impl Into<String>, computation: NodeComputation) -> Mechanism {
        let output_sizes = computation.outputs.iter().map(Vec::len).collect();
        Mechanism {
            name: name.into(),
            framework: Framework::PsyNeuLink,
            input_sizes: Vec::new(),
            output_sizes,
            params: Vec::new(),
            state: Vec::new(),
            computation,
            condition: Condition::Always,
        }
    }

    /// Set the framework of origin.
    pub fn with_framework(mut self, fw: Framework) -> Mechanism {
        self.framework = fw;
        self
    }

    /// Declare the input port sizes.
    pub fn with_inputs(mut self, sizes: Vec<usize>) -> Mechanism {
        self.input_sizes = sizes;
        self
    }

    /// Add a read-only parameter.
    pub fn with_param(mut self, name: &str, values: Vec<f64>) -> Mechanism {
        self.params.push((name.to_string(), values));
        self
    }

    /// Add a read-write state entry with its initial value.
    pub fn with_state(mut self, name: &str, values: Vec<f64>) -> Mechanism {
        self.state.push((name.to_string(), values));
        self
    }

    /// Set the activation condition.
    pub fn with_condition(mut self, c: Condition) -> Mechanism {
        self.condition = c;
        self
    }

    /// Look up a read-only parameter's values.
    pub fn param(&self, name: &str) -> Option<&[f64]> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Mutably look up a read-only parameter (the controller writes the
    /// chosen control-signal values here between trials).
    pub fn param_mut(&mut self, name: &str) -> Option<&mut Vec<f64>> {
        self.params
            .iter_mut()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// The read-only parameter dictionary as a dynamic value (baseline path).
    pub fn params_dict(&self) -> DynValue {
        DynValue::Dict(
            self.params
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        if v.len() == 1 {
                            DynValue::Float(v[0])
                        } else {
                            DynValue::vector(v)
                        },
                    )
                })
                .collect(),
        )
    }

    /// The read-write state dictionary (initial values) as a dynamic value.
    pub fn state_dict(&self) -> DynValue {
        DynValue::Dict(
            self.state
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        if v.len() == 1 {
                            DynValue::Float(v[0])
                        } else {
                            DynValue::vector(v)
                        },
                    )
                })
                .collect(),
        )
    }

    /// Total number of scalar output elements.
    pub fn total_output_size(&self) -> usize {
        self.output_sizes.iter().sum()
    }

    /// Total number of scalar input elements.
    pub fn total_input_size(&self) -> usize {
        self.input_sizes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_pyvm::Expr as E;

    #[test]
    fn builder_and_accessors() {
        let comp = NodeComputation::scalar(E::mul(E::param("slope"), E::input(0)));
        let m = Mechanism::new("linear", comp)
            .with_inputs(vec![1])
            .with_param("slope", vec![2.0])
            .with_state("count", vec![0.0])
            .with_framework(Framework::Numpy);
        assert_eq!(m.output_sizes, vec![1]);
        assert_eq!(m.input_sizes, vec![1]);
        assert_eq!(m.param("slope"), Some(&[2.0][..]));
        assert_eq!(m.param("missing"), None);
        assert_eq!(m.framework.name(), "numpy");
        assert_eq!(m.total_output_size(), 1);
        assert_eq!(m.total_input_size(), 1);
    }

    #[test]
    fn dictionaries_mirror_parameters() {
        let comp = NodeComputation::scalar(E::input(0));
        let m = Mechanism::new("n", comp)
            .with_inputs(vec![1])
            .with_param("w", vec![1.0, 2.0, 3.0])
            .with_state("acc", vec![0.5]);
        let d = m.params_dict();
        assert_eq!(d.get("w").map(|v| v.len()), Some(3));
        let s = m.state_dict();
        assert_eq!(s.get("acc").and_then(DynValue::as_f64), Some(0.5));
    }

    #[test]
    fn computation_size_and_rng() {
        let c = NodeComputation {
            outputs: vec![vec![E::add(
                E::input(0),
                E::mul(E::param("noise"), E::RandNormal),
            )]],
            state_updates: vec![("acc".into(), 0, E::add(E::state("acc"), E::lit(1.0)))],
        };
        assert!(c.uses_rng());
        assert!(c.size() > 5);
        let m = Mechanism::new("obs", c).with_inputs(vec![1]);
        assert_eq!(m.output_sizes, vec![1]);
    }

    #[test]
    fn multi_port_output_sizes_derived_from_computation() {
        let c = NodeComputation {
            outputs: vec![vec![E::input(0), E::input(0)], vec![E::lit(1.0)]],
            state_updates: vec![],
        };
        let m = Mechanism::new("multi", c);
        assert_eq!(m.output_sizes, vec![2, 1]);
        assert_eq!(m.total_output_size(), 3);
    }
}
