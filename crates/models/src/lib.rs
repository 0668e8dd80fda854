//! `distill-models` — the cognitive models evaluated in the paper (§5).
//!
//! Each constructor returns a [`Composition`] plus a default workload
//! ([`Workload`]): the trial inputs and trial count the figures use. The
//! models are:
//!
//! * **Necker cube S / M / vectorized** — bistable-perception models with
//!   one leaky unit per drawing vertex (3 or 8), and a hand-vectorized
//!   variant of the 8-vertex model used by the clone-detection study (§4.4).
//! * **Predator-Prey S / M / L / XL** — the running example: a grid-search
//!   controller allocates attention to prey/predator/player (2, 4, 6 or 100
//!   levels per entity ⇒ 8 … 1,000,000 evaluations per trial), Gaussian
//!   observers sample observed locations, an action node moves the player
//!   and an objective node scores the move.
//! * **Botvinick Stroop** — the conflict-monitoring model: color and word
//!   pathways, a task-demand layer, a response layer and a decision-energy
//!   accumulator run for many passes per trial.
//! * **Extended Stroop A / B** — the Stroop model plus two DDM decision
//!   stages; the A and B variants compute the DDM drive differently but are
//!   computationally equivalent (clone detection detects this).
//! * **Multitasking** — a PyTorch MLP classifies the stimulus, a PsyNeuLink
//!   LCA accumulates the evidence to a response-time decision; the model
//!   spans two frameworks.

use distill_cogmodel::composition::TrialEnd;
use distill_cogmodel::functions::{
    gaussian_observer, identity, lca_integrator, necker_vectorized, necker_vertex,
    weighted_transfer,
};
use distill_cogmodel::mechanism::{Mechanism, NodeComputation};
use distill_cogmodel::nn::{build_mlp, MlpSpec};
use distill_cogmodel::{Composition, ControlSignal, Controller};
use distill_pyvm::Expr as E;

/// A model together with the workload the figures run it on.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The model.
    pub model: Composition,
    /// Trial inputs (cycled through).
    pub inputs: Vec<Vec<Vec<f64>>>,
    /// Number of trials the figure workload runs.
    pub trials: usize,
}

/// The Necker-cube model with `n` vertices, one mechanism per vertex,
/// recurrently connected to its ring neighbours via feedback projections.
pub fn necker_cube(n: usize, passes: u64) -> Workload {
    let mut c = Composition::new(format!("necker_cube_{n}"));
    let stim = c.add(identity("stimulus", n));
    let mut vertices = Vec::with_capacity(n);
    for v in 0..n {
        // Each vertex listens to its two ring neighbours plus the stimulus.
        vertices.push(c.add(necker_vertex(&format!("vertex_{v}"), 3, 0.4, 2.0, 0.1)));
    }
    for v in 0..n {
        let left = vertices[(v + n - 1) % n];
        let right = vertices[(v + 1) % n];
        c.connect_feedback(left, 0, vertices[v], 0, 0);
        c.connect_feedback(right, 0, vertices[v], 0, 1);
        // The external stimulus element for this vertex (a 1-wide slice of
        // the stimulus vector).
        let probe = c.add(
            Mechanism::new(
                format!("probe_{v}"),
                NodeComputation::scalar(E::input_elem(0, v)),
            )
            .with_inputs(vec![n]),
        );
        c.connect(stim, 0, probe, 0, 0);
        c.connect(probe, 0, vertices[v], 0, 2);
    }
    c.input_nodes = vec![stim];
    c.output_nodes = vertices.clone();
    c.trial_end = TrialEnd::AfterNPasses(passes);
    c.reset_state_each_trial = true;
    let inputs = vec![vec![(0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect()]];
    Workload {
        model: c,
        inputs,
        trials: 20,
    }
}

/// The small (3-vertex) Necker cube variant.
pub fn necker_cube_s() -> Workload {
    necker_cube(3, 50)
}

/// The medium (8-vertex) Necker cube variant.
pub fn necker_cube_m() -> Workload {
    necker_cube(8, 50)
}

/// The hand-vectorized 8-vertex Necker cube: one mechanism holds the whole
/// activity vector and the ring adjacency is a weight matrix.
pub fn vectorized_necker_cube() -> Workload {
    let n = 8;
    let mut adjacency = vec![0.0; n * n];
    for v in 0..n {
        adjacency[v * n + (v + n - 1) % n] = 1.0;
        adjacency[v * n + (v + 1) % n] = 1.0;
    }
    let mut c = Composition::new("vectorized_necker_cube");
    let stim = c.add(identity("stimulus", n));
    let cube = c.add(necker_vectorized("cube", n, adjacency, 0.4, 2.0, 0.1));
    // Recurrent self-connection carries the previous activity vector; the
    // stimulus perturbs it each pass.
    c.connect_feedback(cube, 0, cube, 0, 0);
    let _ = stim;
    c.input_nodes = vec![stim];
    c.output_nodes = vec![cube];
    c.trial_end = TrialEnd::AfterNPasses(50);
    let inputs = vec![vec![(0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect()]];
    Workload {
        model: c,
        inputs,
        trials: 20,
    }
}

/// The predator-prey model with `levels` attention levels per entity
/// (2 ⇒ S, 4 ⇒ M, 6 ⇒ L, 100 ⇒ XL; evaluations per trial = `levels³`).
pub fn predator_prey(levels: usize) -> Workload {
    predator_prey_family(levels, None)
}

/// The skewed-grid predator-prey variant: observers *deliberate* (pay extra
/// PRNG-driven refinement work) whenever their attention allocation exceeds
/// the deliberation threshold, so the cost of a grid evaluation depends on
/// the allocation it decodes — cheap and expensive cells cluster along the
/// high-stride control signal. This is the workload that exercises work
/// stealing end-to-end through `Target::MultiCore`: static contiguous
/// chunks of the grid serialize on the deliberating ranges, the stealing
/// scheduler rebalances them, and either way the argmin (and every trial
/// output) is bit-identical because evaluation streams are index-derived.
pub fn predator_prey_skewed(levels: usize) -> Workload {
    predator_prey_family(levels, Some(24))
}

/// Shared scaffold of [`predator_prey`] and [`predator_prey_skewed`]:
/// `deliberation` picks plain gaussian observers (`None`) or deliberative
/// ones with that many refinement draws per gated element.
fn predator_prey_family(levels: usize, deliberation: Option<usize>) -> Workload {
    use distill_cogmodel::functions::deliberative_observer;
    let mut c = Composition::new(match deliberation {
        Some(_) => format!("predator_prey_skewed_{levels}"),
        None => format!("predator_prey_{levels}"),
    });
    let observer = |name: &str| match deliberation {
        Some(k) => deliberative_observer(name, 2, 2.0, 1.9, k),
        None => gaussian_observer(name, 2, 2.0, 1.9),
    };
    // External input: 2-D locations of player, prey, predator (6 values).
    let loc = c.add(identity("loc", 6));
    // One observer per entity (2-D each).
    let obs_player = c.add(observer("obs_player"));
    let obs_prey = c.add(observer("obs_prey"));
    let obs_predator = c.add(observer("obs_predator"));
    // Player occupies elements 0..2, prey 2..4, predator 4..6 of the
    // location vector; the observers take 2-wide ports, so connect through
    // slicing probes.
    let slice_player = c.add(
        Mechanism::new(
            "slice_player",
            NodeComputation {
                outputs: vec![vec![E::input_elem(0, 0), E::input_elem(0, 1)]],
                state_updates: vec![],
            },
        )
        .with_inputs(vec![6]),
    );
    c.connect(loc, 0, slice_player, 0, 0);
    c.connect(slice_player, 0, obs_player, 0, 0);
    let slice_prey = c.add(
        Mechanism::new(
            "slice_prey",
            NodeComputation {
                outputs: vec![vec![E::input_elem(0, 2), E::input_elem(0, 3)]],
                state_updates: vec![],
            },
        )
        .with_inputs(vec![6]),
    );
    let slice_pred = c.add(
        Mechanism::new(
            "slice_predator",
            NodeComputation {
                outputs: vec![vec![E::input_elem(0, 4), E::input_elem(0, 5)]],
                state_updates: vec![],
            },
        )
        .with_inputs(vec![6]),
    );
    c.connect(loc, 0, slice_prey, 0, 0);
    c.connect(loc, 0, slice_pred, 0, 0);
    c.connect(slice_prey, 0, obs_prey, 0, 0);
    c.connect(slice_pred, 0, obs_predator, 0, 0);

    // Action: move from the observed player position towards the observed
    // prey and away from the observed predator (2-D direction).
    let action = c.add(
        Mechanism::new(
            "action",
            NodeComputation {
                outputs: vec![(0..2)
                    .map(|d| {
                        let player = E::input_elem(0, d);
                        let prey = E::input_elem(1, d);
                        let pred = E::input_elem(2, d);
                        let towards = E::sub(prey, player.clone());
                        let away = E::mul(E::param("avoidance"), E::sub(player, pred));
                        E::add(towards, away)
                    })
                    .collect()],
                state_updates: vec![],
            },
        )
        .with_inputs(vec![2, 2, 2])
        .with_param("avoidance", vec![0.5]),
    );
    c.connect(obs_player, 0, action, 0, 0);
    c.connect(obs_prey, 0, action, 1, 0);
    c.connect(obs_predator, 0, action, 2, 0);

    // Objective: how well the chosen move closes in on the true prey while
    // staying away from the true predator.
    let objective = c.add(
        Mechanism::new(
            "objective",
            NodeComputation::scalar({
                // new player position = player + action (per dimension)
                let mut gain = E::lit(0.0);
                for d in 0..2 {
                    let new_pos = E::add(E::input_elem(1, d), E::input_elem(0, d));
                    let to_prey = E::sub(E::input_elem(1, 2 + d), new_pos.clone());
                    let to_pred = E::sub(E::input_elem(1, 4 + d), new_pos);
                    gain = E::add(
                        gain,
                        E::sub(
                            E::mul(E::param("pred_weight"), E::mul(to_pred.clone(), to_pred)),
                            E::mul(to_prey.clone(), to_prey),
                        ),
                    );
                }
                gain
            }),
        )
        .with_inputs(vec![2, 6])
        .with_param("pred_weight", vec![0.3]),
    );
    c.connect(action, 0, objective, 0, 0);
    c.connect(loc, 0, objective, 1, 0);

    c.input_nodes = vec![loc];
    c.output_nodes = vec![action, objective];
    c.trial_end = TrialEnd::AfterNPasses(1);

    let attn_levels: Vec<f64> = (0..levels)
        .map(|i| i as f64 / (levels.max(2) - 1) as f64)
        .collect();
    c.controller = Some(Controller {
        signals: [obs_player, obs_prey, obs_predator]
            .iter()
            .map(|&node| ControlSignal {
                node,
                param: "attention".into(),
                index: 0,
                levels: attn_levels.clone(),
                cost_coeff: 0.05,
            })
            .collect(),
        objective_node: objective,
        objective_port: 0,
        seed: 0xBEEF,
    });

    let inputs = vec![
        vec![vec![0.0, 0.0, 3.0, 1.0, -2.0, -1.5]],
        vec![vec![1.0, -1.0, -2.0, 2.0, 3.0, 0.5]],
    ];
    Workload {
        model: c,
        inputs,
        trials: 3,
    }
}

/// Predator-Prey S (2 attention levels per entity, 8 evaluations).
pub fn predator_prey_s() -> Workload {
    predator_prey(2)
}

/// Predator-Prey M (4 levels, 64 evaluations).
pub fn predator_prey_m() -> Workload {
    predator_prey(4)
}

/// Predator-Prey L (6 levels, 216 evaluations).
pub fn predator_prey_l() -> Workload {
    predator_prey(6)
}

/// Predator-Prey XL (100 levels, 1,000,000 evaluations) — "representative of
/// models that will be commonplace in future".
pub fn predator_prey_xl() -> Workload {
    predator_prey(100)
}

/// A stress configuration for the simulated GPU's cost model: a wide
/// observer feeds a 24-unit logistic bank and an 8-unit mixdown whose
/// inlined grid-evaluation kernel carries far more live values than the
/// predator-prey kernels, driving the modelled register demand to the ISA
/// cap — the regime where Fig. 6's `max_registers` throttle and the
/// occupancy/spill trade-off actually bite. The controller sweeps the
/// observer's attention against the bank's logistic gain (`levels²` grid
/// points), so the same model also serves as a large-grid target for the
/// multicore and sharded schedulers.
pub fn gpu_stress(levels: usize) -> Workload {
    let mut c = Composition::new(format!("gpu_stress_{levels}"));
    let width = 8usize;
    let hidden = 24usize;
    let stim = c.add(identity("stimulus", width));
    let obs = c.add(gaussian_observer("obs", width, 2.0, 1.9));
    c.connect(stim, 0, obs, 0, 0);
    // Deterministic pseudo-random weights from a fixed LCG so the model is
    // reproducible without depending on any runtime PRNG stream.
    let mut state = 0x5EED_CAFE_u64;
    let mut next_w = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Top 32 bits scaled into the symmetric range [-1, 1).
        ((state >> 32) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let w1: Vec<f64> = (0..width * hidden).map(|_| next_w() * 0.6).collect();
    let bank = c.add(weighted_transfer(
        "bank",
        width,
        hidden,
        w1,
        vec![0.0; hidden],
        1.0,
    ));
    c.connect(obs, 0, bank, 0, 0);
    let w2: Vec<f64> = (0..hidden * width).map(|_| next_w() * 0.4).collect();
    let mix = c.add(weighted_transfer(
        "mix",
        hidden,
        width,
        w2,
        vec![-0.5; width],
        1.0,
    ));
    c.connect(bank, 0, mix, 0, 0);
    // Objective: reconstruction quality of the mixdown against the true
    // stimulus (negated squared error, so the argmin minimizes error).
    let objective = c.add(
        Mechanism::new(
            "objective",
            NodeComputation::scalar({
                let mut gain = E::lit(0.0);
                for d in 0..width {
                    let diff = E::sub(E::input_elem(0, d), E::input_elem(1, d));
                    gain = E::sub(gain, E::mul(diff.clone(), diff));
                }
                gain
            }),
        )
        .with_inputs(vec![width, width]),
    );
    c.connect(mix, 0, objective, 0, 0);
    c.connect(stim, 0, objective, 1, 0);
    c.input_nodes = vec![stim];
    c.output_nodes = vec![mix, objective];
    c.trial_end = TrialEnd::AfterNPasses(1);

    let unit: Vec<f64> = (0..levels)
        .map(|i| i as f64 / (levels.max(2) - 1) as f64)
        .collect();
    c.controller = Some(distill_cogmodel::Controller {
        signals: vec![
            ControlSignal {
                node: obs,
                param: "attention".into(),
                index: 0,
                levels: unit.clone(),
                cost_coeff: 0.05,
            },
            ControlSignal {
                node: bank,
                param: "gain".into(),
                index: 0,
                levels: unit.iter().map(|v| 0.5 + v).collect(),
                cost_coeff: 0.02,
            },
        ],
        objective_node: objective,
        objective_port: 0,
        seed: 0xF_EED,
    });

    let inputs = vec![
        vec![vec![1.0, -0.5, 0.25, 0.8, -1.0, 0.4, -0.2, 0.6]],
        vec![vec![-0.3, 0.9, -0.7, 0.1, 0.5, -0.8, 1.0, -0.4]],
    ];
    Workload {
        model: c,
        inputs,
        trials: 2,
    }
}

/// The Botvinick Stroop conflict-monitoring model.
///
/// Word and color pathways feed a response layer; a task-demand layer biases
/// the color pathway; decision energy accumulates over many passes.
pub fn botvinick_stroop() -> Workload {
    let mut c = Composition::new("botvinick_stroop");
    // Input: [color_red, color_green, word_red, word_green, task_color, task_word]
    let stim = c.add(identity("stimulus", 6));
    let color_slice = c.add(
        Mechanism::new(
            "color_input",
            NodeComputation {
                outputs: vec![vec![E::input_elem(0, 0), E::input_elem(0, 1)]],
                state_updates: vec![],
            },
        )
        .with_inputs(vec![6]),
    );
    let word_slice = c.add(
        Mechanism::new(
            "word_input",
            NodeComputation {
                outputs: vec![vec![E::input_elem(0, 2), E::input_elem(0, 3)]],
                state_updates: vec![],
            },
        )
        .with_inputs(vec![6]),
    );
    let task_slice = c.add(
        Mechanism::new(
            "task_demand",
            NodeComputation {
                outputs: vec![vec![E::input_elem(0, 4), E::input_elem(0, 5)]],
                state_updates: vec![],
            },
        )
        .with_inputs(vec![6]),
    );
    c.connect(stim, 0, color_slice, 0, 0);
    c.connect(stim, 0, word_slice, 0, 0);
    c.connect(stim, 0, task_slice, 0, 0);

    // Hidden pathways: color pathway gets the task bias added to both units.
    let color_hidden = c.add(weighted_transfer(
        "color_hidden",
        4,
        2,
        vec![2.2, -2.2, 4.0, 0.0, -2.2, 2.2, 4.0, 0.0],
        vec![-4.0, -4.0],
        1.0,
    ));
    let word_hidden = c.add(weighted_transfer(
        "word_hidden",
        4,
        2,
        vec![2.6, -2.6, 0.0, 4.0, -2.6, 2.6, 0.0, 4.0],
        vec![-4.0, -4.0],
        1.0,
    ));
    c.connect(color_slice, 0, color_hidden, 0, 0);
    c.connect(task_slice, 0, color_hidden, 0, 2);
    c.connect(word_slice, 0, word_hidden, 0, 0);
    c.connect(task_slice, 0, word_hidden, 0, 2);

    // Response layer combines both pathways.
    let response = c.add(weighted_transfer(
        "response",
        4,
        2,
        vec![1.3, -1.3, 2.5, -2.5, -1.3, 1.3, -2.5, 2.5],
        vec![-1.0, -1.0],
        1.0,
    ));
    c.connect(color_hidden, 0, response, 0, 0);
    c.connect(word_hidden, 0, response, 0, 2);

    // Decision energy accumulates the response difference over time.
    let energy = c.add(
        Mechanism::new(
            "decision_energy",
            NodeComputation {
                outputs: vec![vec![E::add(
                    E::state("energy"),
                    E::mul(
                        E::param("rate"),
                        E::sub(E::input_elem(0, 0), E::input_elem(0, 1)),
                    ),
                )]],
                state_updates: vec![(
                    "energy".into(),
                    0,
                    E::add(
                        E::state("energy"),
                        E::mul(
                            E::param("rate"),
                            E::sub(E::input_elem(0, 0), E::input_elem(0, 1)),
                        ),
                    ),
                )],
            },
        )
        .with_inputs(vec![2])
        .with_param("rate", vec![0.05])
        .with_state("energy", vec![0.0]),
    );
    c.connect(response, 0, energy, 0, 0);

    c.input_nodes = vec![stim];
    c.output_nodes = vec![response, energy];
    c.trial_end = TrialEnd::AfterNPasses(200);
    // Congruent, incongruent and neutral color-naming conditions.
    let inputs = vec![
        vec![vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]],
        vec![vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]],
        vec![vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0]],
    ];
    Workload {
        model: c,
        inputs,
        trials: 60,
    }
}

/// Shared scaffold of the two extended Stroop variants: the Stroop model
/// plus two DDM stages whose drive is the response-layer difference. The
/// `variant_b` flag switches to the alternative (but computationally
/// equivalent) formulation of the drive and reward.
fn extended_stroop(variant_b: bool) -> Workload {
    let mut w = botvinick_stroop();
    let c = &mut w.model;
    c.name = if variant_b {
        "extended_stroop_b".into()
    } else {
        "extended_stroop_a".into()
    };
    let response = c.node_by_name("response").expect("response layer exists");

    // Color-naming DDM and finger-pointing DDM, driven by the (signed)
    // response difference. Variant A computes `r0 - r1`, variant B computes
    // `-(r1 - r0)` — different expressions, identical computation.
    let drive = |b: bool| -> E {
        if b {
            // Variant B writes the drive with a redundant `+ 0` and reversed
            // sub-expression nesting; constant folding canonicalizes it to the
            // same computation as variant A.
            E::sub(
                E::add(E::input_elem(0, 0), E::lit(0.0)),
                E::input_elem(0, 1),
            )
        } else {
            E::sub(E::input_elem(0, 0), E::input_elem(0, 1))
        }
    };
    let mk_ddm = |name: &str, b: bool| {
        let next = E::add(
            E::state("evidence"),
            E::mul(E::param("rate"), E::mul(drive(b), E::param("dt"))),
        );
        Mechanism::new(
            name,
            NodeComputation {
                outputs: vec![vec![next.clone()]],
                state_updates: vec![("evidence".into(), 0, next)],
            },
        )
        .with_inputs(vec![2])
        .with_param("rate", vec![1.0])
        .with_param("dt", vec![0.05])
        .with_state("evidence", vec![0.0])
    };
    let ddm_color = c.add(mk_ddm("ddm_color", variant_b));
    let ddm_finger = c.add(mk_ddm("ddm_finger", variant_b));
    c.connect(response, 0, ddm_color, 0, 0);
    c.connect(response, 0, ddm_finger, 0, 0);

    // Reward combines the two decisions; A sums then scales, B scales then
    // sums — equivalent once constants fold.
    // Reward averages the two decisions; A and B spell the average with the
    // operands and factors in opposite order.
    let reward_expr = if variant_b {
        E::mul(
            E::add(E::input_elem(0, 0), E::input_elem(1, 0)),
            E::lit(0.5),
        )
    } else {
        E::mul(
            E::lit(0.5),
            E::add(E::input_elem(0, 0), E::input_elem(1, 0)),
        )
    };
    let reward = c.add(
        Mechanism::new("reward", NodeComputation::scalar(reward_expr)).with_inputs(vec![1, 1]),
    );
    c.connect(ddm_color, 0, reward, 0, 0);
    c.connect(ddm_finger, 0, reward, 1, 0);
    c.output_nodes = vec![response, ddm_color, ddm_finger, reward];
    // Fewer trials than the base Stroop model: keeps the extended variants
    // inside the simulated PyPy trace budget (the paper reports the OOM
    // failure only for the base Botvinick Stroop workload).
    w.trials = 10;
    w
}

/// Extended Stroop, variant A.
pub fn extended_stroop_a() -> Workload {
    extended_stroop(false)
}

/// Extended Stroop, variant B (computationally equivalent to A).
pub fn extended_stroop_b() -> Workload {
    extended_stroop(true)
}

/// The Multitasking model: a PyTorch MLP produces feature evidence for the
/// stimulus, a PsyNeuLink LCA accumulates it until one unit crosses the
/// decision threshold; the response time is the number of passes.
pub fn multitasking() -> Workload {
    let mut c = Composition::new("multitasking");
    let stim = c.add(identity("stimulus", 4));
    let layers = build_mlp("torch_net", &MlpSpec::new(vec![4, 6, 3], false, 2024));
    let mut prev = stim;
    let mut layer_ids = Vec::new();
    for l in layers {
        let id = c.add(l);
        c.connect(prev, 0, id, 0, 0);
        layer_ids.push(id);
        prev = id;
    }
    let lca = c.add(lca_integrator("lca_decision", 3, 0.2, 0.3, 0.05, 0.1));
    c.connect(prev, 0, lca, 0, 0);
    // Readout of the strongest accumulator.
    let readout = c.add(
        Mechanism::new(
            "readout",
            NodeComputation::scalar(E::call2(
                distill_pyvm::MathFn::Max,
                E::call2(
                    distill_pyvm::MathFn::Max,
                    E::input_elem(0, 0),
                    E::input_elem(0, 1),
                ),
                E::input_elem(0, 2),
            )),
        )
        .with_inputs(vec![3]),
    );
    c.connect(lca, 0, readout, 0, 0);
    c.input_nodes = vec![stim];
    c.output_nodes = vec![lca, readout];
    c.trial_end = TrialEnd::Threshold {
        node: readout,
        port: 0,
        threshold: 1.0,
        max_passes: 400,
    };
    // Stimulus/goal combinations producing a response-time distribution.
    let inputs = vec![
        vec![vec![1.0, 0.0, 1.0, 0.0]],
        vec![vec![0.0, 1.0, 1.0, 0.0]],
        vec![vec![1.0, 1.0, 0.0, 1.0]],
        vec![vec![0.3, 0.7, 0.5, 0.5]],
    ];
    Workload {
        model: c,
        inputs,
        trials: 40,
    }
}

pub mod registry;

pub use registry::{by_name, by_tag, serve_mix, Scale, Tag, TargetKind, WorkloadSpec};

/// The eight models of Fig. 4, in the order the figure lists them —
/// data-driven from the [`registry`] (the entries tagged [`Tag::Figure4`]).
pub fn figure4_models() -> Vec<Workload> {
    registry::by_tag(Tag::Figure4)
        .into_iter()
        .map(|s| s.build(Scale::Reduced))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_cogmodel::{BaselineRunner, Framework};
    use distill_pyvm::ExecMode;

    fn smoke_run(w: &Workload, trials: usize) -> Vec<Vec<f64>> {
        BaselineRunner::new(ExecMode::CPython)
            .run(&w.model, &w.inputs, trials)
            .expect("baseline run succeeds")
            .outputs
    }

    #[test]
    fn all_models_sanitize() {
        for w in figure4_models()
            .into_iter()
            .chain([predator_prey_m(), predator_prey_l()])
        {
            w.model
                .sanitize()
                .unwrap_or_else(|e| panic!("{}: {e}", w.model.name));
        }
    }

    #[test]
    fn necker_models_oscillate_within_bounds() {
        for w in [necker_cube_s(), necker_cube_m(), vectorized_necker_cube()] {
            let out = smoke_run(&w, 2);
            for v in out.iter().flatten() {
                assert!(v.is_finite(), "{}: non-finite activation", w.model.name);
                assert!(
                    (0.0..=1.0).contains(v),
                    "{}: {v} out of [0,1]",
                    w.model.name
                );
            }
        }
    }

    #[test]
    fn predator_prey_s_runs_and_reports_objective() {
        let w = predator_prey_s();
        let r = BaselineRunner::new(ExecMode::CPython)
            .run(&w.model, &w.inputs, 2)
            .unwrap();
        assert_eq!(r.controller_evaluations, 2 * 8);
        assert_eq!(r.outputs[0].len(), 3); // 2-D action + scalar objective
    }

    #[test]
    fn predator_prey_grid_sizes_match_the_paper() {
        assert_eq!(
            predator_prey_s()
                .model
                .controller
                .as_ref()
                .unwrap()
                .grid_size(),
            8
        );
        assert_eq!(
            predator_prey_m()
                .model
                .controller
                .as_ref()
                .unwrap()
                .grid_size(),
            64
        );
        assert_eq!(
            predator_prey_l()
                .model
                .controller
                .as_ref()
                .unwrap()
                .grid_size(),
            216
        );
        assert_eq!(
            predator_prey_xl()
                .model
                .controller
                .as_ref()
                .unwrap()
                .grid_size(),
            1_000_000
        );
    }

    #[test]
    fn stroop_decision_energy_grows_with_incongruence() {
        let w = botvinick_stroop();
        let r = BaselineRunner::new(ExecMode::CPython)
            .run(&w.model, &w.inputs, 2)
            .unwrap();
        // Outputs: response (2) then energy (1).
        let congruent_energy = r.outputs[0][2].abs();
        let incongruent_energy = r.outputs[1][2].abs();
        assert!(congruent_energy.is_finite() && incongruent_energy.is_finite());
        assert!(
            congruent_energy >= incongruent_energy,
            "congruent trials should build decision energy at least as fast \
             (congruent {congruent_energy} vs incongruent {incongruent_energy})"
        );
    }

    #[test]
    fn extended_stroop_variants_produce_identical_outputs() {
        let a = smoke_run(&extended_stroop_a(), 3);
        let b = smoke_run(&extended_stroop_b(), 3);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn multitasking_uses_pytorch_and_terminates_by_threshold() {
        let w = multitasking();
        assert!(w.model.uses_framework(Framework::PyTorch));
        let r = BaselineRunner::new(ExecMode::CPython)
            .run(&w.model, &w.inputs, 4)
            .unwrap();
        for p in &r.passes {
            assert!(*p >= 1 && *p <= 400);
        }
        // Response times should vary across stimuli (a distribution, §5).
        let distinct: std::collections::HashSet<u64> = r.passes.iter().copied().collect();
        assert!(!distinct.is_empty());
    }

    #[test]
    fn figure4_lists_eight_models() {
        let names: Vec<String> = figure4_models()
            .iter()
            .map(|w| w.model.name.clone())
            .collect();
        assert_eq!(names.len(), 8);
        assert!(names.contains(&"botvinick_stroop".to_string()));
        assert!(names.contains(&"multitasking".to_string()));
    }
}
