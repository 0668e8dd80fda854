//! The grid contract across every execution target.
//!
//! A controller's grid search has one winner definition: the costs of all
//! grid points, folded in index order through a reservoir argmin seeded
//! with `seed ^ trial`, starting at index 0. Ties therefore break by the
//! reservoir's draw, and a grid whose costs never compare (all NaN) picks
//! index 0. Every target — the dynamic baseline, the whole-model trial
//! function, the per-node driver with a serial, multicore or simulated-GPU
//! grid — must pick the same winner, so their outputs are bitwise equal.
//!
//! The model is the smallest one that exposes the tie-break: one control
//! signal with 8 levels and no allocation cost, an objective that ignores
//! the allocation, and an output that reports the committed level.

use distill::{CompileMode, Composition, ExecMode, GpuConfig, RunResult, RunSpec, Session, Target};
use distill_cogmodel::functions::identity;
use distill_cogmodel::mechanism::{Mechanism, NodeComputation};
use distill_cogmodel::{ControlSignal, Controller};
use distill_pyvm::Expr as E;

const TRIALS: usize = 8;

/// One signal of levels 1..=8 at zero cost; the objective is `objective`
/// whatever the allocation, and the output is the committed level.
fn flat_grid_model(objective: f64) -> Composition {
    let mut c = Composition::new("flat_grid");
    let x = c.add(identity("x", 1));
    let gain = c.add(
        Mechanism::new(
            "gain",
            NodeComputation {
                outputs: vec![vec![E::mul(E::param("attention"), E::input_elem(0, 0))]],
                state_updates: vec![],
            },
        )
        .with_inputs(vec![1])
        .with_param("attention", vec![1.0]),
    );
    let score = c.add(
        Mechanism::new("score", NodeComputation::scalar(E::lit(objective))).with_inputs(vec![1]),
    );
    c.connect(x, 0, gain, 0, 0);
    c.connect(gain, 0, score, 0, 0);
    c.input_nodes = vec![x];
    c.output_nodes = vec![gain];
    c.controller = Some(Controller {
        signals: vec![ControlSignal {
            node: gain,
            param: "attention".into(),
            index: 0,
            levels: (1..=8).map(f64::from).collect(),
            cost_coeff: 0.0,
        }],
        objective_node: score,
        objective_port: 0,
        seed: 0xBEEF,
    });
    c
}

/// Run `model` on every target and require bitwise-equal outputs and equal
/// pass counts; returns the baseline's committed level per trial.
fn levels_on_every_target(model: &Composition) -> Vec<f64> {
    let spec = RunSpec::new(vec![vec![vec![1.0]]], TRIALS);
    let run = |session: Session| -> RunResult {
        session
            .build()
            .expect("runner builds")
            .run(&spec)
            .expect("run succeeds")
    };
    let bits = |r: &RunResult| -> Vec<Vec<u64>> {
        r.outputs
            .iter()
            .map(|o| o.iter().map(|v| v.to_bits()).collect())
            .collect()
    };
    let session = Session::new(model);
    let baseline = run(session.clone().target(Target::Baseline(ExecMode::CPython)));
    let mut targets = vec![
        ("whole-model".to_string(), session.clone()),
        (
            "per-node".into(),
            session.clone().mode(CompileMode::PerNode),
        ),
        (
            "gpu".into(),
            session.clone().target(Target::Gpu(GpuConfig::default())),
        ),
    ];
    for threads in [1, 2, 4] {
        let multicore = session.clone().target(Target::MultiCore { threads });
        targets.push((format!("multicore:{threads}"), multicore));
    }
    for (label, session) in targets {
        let r = run(session);
        assert_eq!(
            bits(&r),
            bits(&baseline),
            "{label}: outputs diverge from the baseline"
        );
        assert_eq!(r.passes, baseline.passes, "{label}: pass counts diverge");
    }
    baseline.outputs.iter().map(|o| o[0]).collect()
}

#[test]
fn tied_grids_break_ties_identically_on_every_target() {
    let levels = levels_on_every_target(&flat_grid_model(1.0));
    // Every point ties, so the reservoir's draw — not the lowest index —
    // picks the winner, and it varies from trial to trial.
    assert!(
        levels.iter().any(|&l| l != levels[0]),
        "ties did not reach the reservoir: {levels:?}"
    );
}

#[test]
fn nan_grids_pick_index_zero_on_every_target() {
    let levels = levels_on_every_target(&flat_grid_model(f64::NAN));
    // No NaN cost compares, so the fold keeps its initial index 0: level 1.
    assert_eq!(levels, vec![1.0; TRIALS]);
}
