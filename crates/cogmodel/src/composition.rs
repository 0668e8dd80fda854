//! Compositions: the model graph, its projections, its controller, and the
//! sanitization run that discovers every type and shape (§2.2, §3.1).

use crate::condition::TrialEndSpec;
use crate::controller::Controller;
use crate::mechanism::{Framework, Mechanism};
use distill_pyvm::{DynValue, EvalContext, ExecMode, Interpreter, SplitMix64};
use std::collections::HashMap;
use std::fmt;

/// Trial termination condition (re-exported under the composition's name).
pub type TrialEnd = TrialEndSpec;

/// A projection: the output of one mechanism's port feeds a slice of another
/// mechanism's input port.
///
/// `feedback` projections close cycles (recurrent models such as the Necker
/// cube); they deliver the *previous* pass's value, while feed-forward
/// projections deliver the value computed earlier in the same pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Projection {
    /// Source mechanism index.
    pub from_node: usize,
    /// Source output port.
    pub from_port: usize,
    /// Destination mechanism index.
    pub to_node: usize,
    /// Destination input port.
    pub to_port: usize,
    /// Offset within the destination input port at which the source value is
    /// written.
    pub to_offset: usize,
    /// Whether this is a feedback (previous-pass) projection.
    pub feedback: bool,
}

/// Everything the sanitization run (§3.1) discovers about one mechanism.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeShape {
    /// Mechanism name.
    pub name: String,
    /// Input port sizes.
    pub input_sizes: Vec<usize>,
    /// Output port sizes.
    pub output_sizes: Vec<usize>,
    /// Read-only parameter names and element counts.
    pub param_shapes: Vec<(String, usize)>,
    /// Read-write state names and element counts.
    pub state_shapes: Vec<(String, usize)>,
    /// Whether the node draws random numbers (needs a PRNG state slot).
    pub uses_rng: bool,
    /// Framework of origin.
    pub framework: Framework,
}

/// The result of the sanitization run over a whole composition.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShapeInfo {
    /// Per-node shapes, indexed like `Composition::mechanisms`.
    pub nodes: Vec<NodeShape>,
}

impl ShapeInfo {
    /// Total number of scalar output slots across all nodes (the size of the
    /// current/previous output structures of §3.3).
    pub fn total_output_slots(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.output_sizes.iter().sum::<usize>())
            .sum()
    }

    /// Total number of read-only parameter slots.
    pub fn total_param_slots(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.param_shapes.iter().map(|(_, s)| s).sum::<usize>())
            .sum()
    }

    /// Total number of read-write state slots.
    pub fn total_state_slots(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.state_shapes.iter().map(|(_, s)| s).sum::<usize>())
            .sum()
    }
}

/// Errors raised while building or validating a composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompositionError(pub String);

impl fmt::Display for CompositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "composition error: {}", self.0)
    }
}

impl std::error::Error for CompositionError {}

/// A cognitive model: mechanisms, projections, designated inputs and
/// outputs, an optional grid-search controller and a trial-end condition.
#[derive(Debug, Clone, PartialEq)]
pub struct Composition {
    /// Model name (used in figures and reports).
    pub name: String,
    /// The nodes.
    pub mechanisms: Vec<Mechanism>,
    /// The edges.
    pub projections: Vec<Projection>,
    /// Nodes that receive the external trial input on their input port 0, in
    /// the order the trial input vectors are given.
    pub input_nodes: Vec<usize>,
    /// Nodes whose output port 0 is concatenated into the trial result.
    pub output_nodes: Vec<usize>,
    /// Optional grid-search controller.
    pub controller: Option<Controller>,
    /// Trial termination condition.
    pub trial_end: TrialEnd,
    /// Whether read-write state is reset to its initial values at the start
    /// of every trial.
    pub reset_state_each_trial: bool,
}

impl Composition {
    /// Create an empty composition that stops each trial after one pass.
    pub fn new(name: impl Into<String>) -> Composition {
        Composition {
            name: name.into(),
            mechanisms: Vec::new(),
            projections: Vec::new(),
            input_nodes: Vec::new(),
            output_nodes: Vec::new(),
            controller: None,
            trial_end: TrialEnd::AfterNPasses(1),
            reset_state_each_trial: true,
        }
    }

    /// Add a mechanism; returns its node index.
    pub fn add(&mut self, m: Mechanism) -> usize {
        self.mechanisms.push(m);
        self.mechanisms.len() - 1
    }

    /// Add a feed-forward projection writing the whole source port at offset
    /// `to_offset` of the destination port.
    pub fn connect(
        &mut self,
        from_node: usize,
        from_port: usize,
        to_node: usize,
        to_port: usize,
        to_offset: usize,
    ) {
        self.projections.push(Projection {
            from_node,
            from_port,
            to_node,
            to_port,
            to_offset,
            feedback: false,
        });
    }

    /// Add a feedback projection (delivers the previous pass's value).
    pub fn connect_feedback(
        &mut self,
        from_node: usize,
        from_port: usize,
        to_node: usize,
        to_port: usize,
        to_offset: usize,
    ) {
        self.projections.push(Projection {
            from_node,
            from_port,
            to_node,
            to_port,
            to_offset,
            feedback: true,
        });
    }

    /// Find a node index by mechanism name.
    pub fn node_by_name(&self, name: &str) -> Option<usize> {
        self.mechanisms.iter().position(|m| m.name == name)
    }

    /// Whether any mechanism comes from the given framework.
    pub fn uses_framework(&self, fw: Framework) -> bool {
        self.mechanisms.iter().any(|m| m.framework == fw)
    }

    /// Validate structural invariants: indices in range, projection slices
    /// inside their destination ports, feed-forward edges acyclic.
    ///
    /// # Errors
    /// Returns a [`CompositionError`] describing the first violation.
    pub fn validate(&self) -> Result<(), CompositionError> {
        let n = self.mechanisms.len();
        if n == 0 {
            return Err(CompositionError("composition has no mechanisms".into()));
        }
        for p in &self.projections {
            if p.from_node >= n || p.to_node >= n {
                return Err(CompositionError(format!(
                    "projection references unknown node ({} -> {})",
                    p.from_node, p.to_node
                )));
            }
            let src = &self.mechanisms[p.from_node];
            let dst = &self.mechanisms[p.to_node];
            let src_size = *src.output_sizes.get(p.from_port).ok_or_else(|| {
                CompositionError(format!(
                    "projection from missing port {} of {}",
                    p.from_port, src.name
                ))
            })?;
            let dst_size = *dst.input_sizes.get(p.to_port).ok_or_else(|| {
                CompositionError(format!(
                    "projection into missing port {} of {}",
                    p.to_port, dst.name
                ))
            })?;
            if p.to_offset + src_size > dst_size {
                return Err(CompositionError(format!(
                    "projection {} -> {} overflows destination port ({} + {} > {})",
                    src.name, dst.name, p.to_offset, src_size, dst_size
                )));
            }
        }
        for &i in self.input_nodes.iter().chain(&self.output_nodes) {
            if i >= n {
                return Err(CompositionError(format!("unknown input/output node {i}")));
            }
        }
        if let Some(c) = &self.controller {
            if c.objective_node >= n {
                return Err(CompositionError(
                    "controller objective node is unknown".into(),
                ));
            }
            for s in &c.signals {
                let m = self.mechanisms.get(s.node).ok_or_else(|| {
                    CompositionError(format!("control signal targets unknown node {}", s.node))
                })?;
                if m.param(&s.param).is_none() {
                    return Err(CompositionError(format!(
                        "control signal targets missing parameter {}.{}",
                        m.name, s.param
                    )));
                }
            }
        }
        // Feed-forward subgraph must be acyclic.
        self.topological_order().map(|_| ())
    }

    /// Topological order of the nodes over feed-forward projections only.
    ///
    /// # Errors
    /// Returns an error if the feed-forward subgraph contains a cycle (such
    /// cycles must be broken by marking projections as feedback).
    pub fn topological_order(&self) -> Result<Vec<usize>, CompositionError> {
        let n = self.mechanisms.len();
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for p in &self.projections {
            if p.feedback {
                continue;
            }
            succs[p.from_node].push(p.to_node);
            indegree[p.to_node] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            order.push(i);
            for &s in &succs[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.push(s);
                }
            }
        }
        if order.len() != n {
            return Err(CompositionError(
                "feed-forward projections form a cycle; mark recurrent edges as feedback".into(),
            ));
        }
        // Stable-ish order: sort ready batches by index for determinism.
        Ok(order)
    }

    /// The sanitization run (§2.2 / §3.1): execute every mechanism once with
    /// default (zero) inputs through the dynamic interpreter, checking that
    /// every parameter and state entry resolves and that the computed output
    /// counts match the declared port sizes. Returns the shape inventory
    /// Distill's dynamic-to-static conversion is driven by.
    ///
    /// # Errors
    /// Returns a [`CompositionError`] if a node's computation fails or its
    /// shape disagrees with its declaration.
    pub fn sanitize(&self) -> Result<ShapeInfo, CompositionError> {
        self.validate()?;
        let mut interp = Interpreter::new(ExecMode::CPython);
        let mut rng = SplitMix64::new(0);
        let mut nodes = Vec::with_capacity(self.mechanisms.len());
        for m in &self.mechanisms {
            let inputs: Vec<DynValue> = m
                .input_sizes
                .iter()
                .map(|&s| DynValue::vector(&vec![0.0; s]))
                .collect();
            let params = m.params_dict();
            let mut state = m.state_dict();
            let mut produced = Vec::new();
            for port in &m.computation.outputs {
                for e in port {
                    let mut ctx = EvalContext {
                        inputs: &inputs,
                        params: &params,
                        state: &mut state,
                        rng: &mut rng,
                        cache_key: None,
                    };
                    let v = interp.eval(e, &mut ctx).map_err(|err| {
                        CompositionError(format!("sanitization of {} failed: {err}", m.name))
                    })?;
                    produced.push(v);
                }
            }
            let declared: usize = m.output_sizes.iter().sum();
            if produced.len() != declared {
                return Err(CompositionError(format!(
                    "sanitization of {}: produced {} output elements but {} are declared",
                    m.name,
                    produced.len(),
                    declared
                )));
            }
            for (name, index, e) in &m.computation.state_updates {
                let mut ctx = EvalContext {
                    inputs: &inputs,
                    params: &params,
                    state: &mut state,
                    rng: &mut rng,
                    cache_key: None,
                };
                let v = interp.eval(e, &mut ctx).map_err(|err| {
                    CompositionError(format!("sanitization of {} failed: {err}", m.name))
                })?;
                let mut ctx = EvalContext {
                    inputs: &inputs,
                    params: &params,
                    state: &mut state,
                    rng: &mut rng,
                    cache_key: None,
                };
                interp
                    .store_state(&mut ctx, name, *index, v)
                    .map_err(|err| {
                        CompositionError(format!("sanitization of {} failed: {err}", m.name))
                    })?;
            }
            nodes.push(NodeShape {
                name: m.name.clone(),
                input_sizes: m.input_sizes.clone(),
                output_sizes: m.output_sizes.clone(),
                param_shapes: m.params.iter().map(|(n, v)| (n.clone(), v.len())).collect(),
                state_shapes: m.state.iter().map(|(n, v)| (n.clone(), v.len())).collect(),
                uses_rng: m.computation.uses_rng(),
                framework: m.framework,
            });
        }
        Ok(ShapeInfo { nodes })
    }

    /// Incoming projections per `(node, port)`, grouped for the runner and
    /// the code generator.
    pub fn incoming(&self) -> HashMap<(usize, usize), Vec<Projection>> {
        let mut map: HashMap<(usize, usize), Vec<Projection>> = HashMap::new();
        for p in &self.projections {
            map.entry((p.to_node, p.to_port)).or_default().push(*p);
        }
        map
    }

    /// Total number of mechanisms.
    pub fn node_count(&self) -> usize {
        self.mechanisms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::{identity, linear, logistic};

    fn two_node_chain() -> Composition {
        let mut c = Composition::new("chain");
        let a = c.add(identity("in", 2));
        let b = c.add(linear("lin", 2, 2.0, 0.0));
        c.connect(a, 0, b, 0, 0);
        c.input_nodes = vec![a];
        c.output_nodes = vec![b];
        c
    }

    #[test]
    fn validates_well_formed_model() {
        let c = two_node_chain();
        assert!(c.validate().is_ok());
        assert_eq!(c.topological_order().unwrap().len(), 2);
        assert_eq!(c.node_by_name("lin"), Some(1));
        assert_eq!(c.node_by_name("nope"), None);
    }

    #[test]
    fn rejects_port_overflow() {
        let mut c = two_node_chain();
        // Writing a 2-wide output at offset 1 of a 2-wide port overflows.
        c.connect(0, 0, 1, 0, 1);
        let err = c.validate().unwrap_err();
        assert!(err.0.contains("overflows"));
    }

    #[test]
    fn rejects_feedforward_cycles_but_accepts_feedback() {
        let mut c = Composition::new("loop");
        let a = c.add(logistic("a", 1, 1.0, 0.0));
        let b = c.add(logistic("b", 1, 1.0, 0.0));
        c.connect(a, 0, b, 0, 0);
        c.connect(b, 0, a, 0, 0);
        assert!(c.validate().is_err());
        // Marking the back edge as feedback resolves the cycle.
        c.projections.last_mut().unwrap().feedback = true;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sanitization_reports_shapes() {
        let c = two_node_chain();
        let info = c.sanitize().unwrap();
        assert_eq!(info.nodes.len(), 2);
        assert_eq!(info.nodes[1].name, "lin");
        assert_eq!(info.nodes[1].output_sizes, vec![2]);
        assert_eq!(info.total_output_slots(), 4);
        assert_eq!(
            info.nodes[1]
                .param_shapes
                .iter()
                .map(|(n, _)| n.as_str())
                .collect::<Vec<_>>(),
            vec!["slope", "intercept"]
        );
        assert!(!info.nodes[0].uses_rng);
    }

    #[test]
    fn sanitization_catches_shape_mismatch() {
        let mut c = two_node_chain();
        // Corrupt the declared output size.
        c.mechanisms[1].output_sizes = vec![3];
        let err = c.sanitize().unwrap_err();
        assert!(err.0.contains("declared"), "{err}");
    }

    #[test]
    fn incoming_projections_grouped_per_port() {
        let mut c = Composition::new("fanin");
        let a = c.add(identity("a", 1));
        let b = c.add(identity("b", 1));
        let d = c.add(identity("sum", 2));
        c.connect(a, 0, d, 0, 0);
        c.connect(b, 0, d, 0, 1);
        let inc = c.incoming();
        assert_eq!(inc[&(d, 0)].len(), 2);
        assert!(!inc.contains_key(&(a, 0)));
    }
}
