//! The §4 analyses: floating-point value ranges, convergence-time estimation
//! via scalar evolution, adaptive mesh refinement, and clone detection —
//! all without running the model.
//!
//! Run with `cargo run --example model_analysis`.

use distill::analysis::{self, vrp};
use distill::{compile, CompileConfig};
use distill_ir::{FunctionBuilder, Module, Ty};
use distill_models::{extended_stroop_a, extended_stroop_b};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- VRP: the logistic function's output range (§4.1) -------------------
    let mut m = Module::new("analysis_demo");
    let fid = m.declare_function("logistic", vec![Ty::F64], Ty::F64);
    {
        let f = m.function_mut(fid);
        let mut b = FunctionBuilder::new(f);
        let e = b.create_block("entry");
        b.switch_to_block(e);
        let x = b.param(0);
        let neg = b.fneg(x);
        let ex = b.exp(neg);
        let one = b.const_f64(1.0);
        let den = b.fadd(one, ex);
        let r = b.fdiv(one, den);
        b.ret(Some(r));
    }
    let mut opts = vrp::VrpOptions::default();
    opts.param_ranges.insert(0, vrp::Interval::new(-8.0, 8.0));
    let ranges = vrp::analyze_function(m.function(fid), &opts);
    let ret = m.function(fid).values.len() - 1;
    println!(
        "VRP: logistic output range = {}",
        ranges[&distill_ir::ValueId::from_index(ret)]
    );

    // --- SCEV: DDM convergence time (§4.2) -----------------------------------
    let steps = analysis::scev::ddm_expected_steps(0.0, 1.0, 0.01, 1.0);
    println!("SCEV: DDM with rate 1.0, dt 0.01, threshold 1.0 needs at least {steps:?} steps");

    // --- Mesh refinement (§4.3, Fig. 2) --------------------------------------
    let mesh = {
        let mut m = Module::new("cost");
        let fid = m.declare_function("cost", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let a = b.param(0);
            let opt = b.const_f64(4.6);
            let d = b.fsub(a, opt);
            let sq = b.fmul(d, d);
            b.ret(Some(sq));
        }
        analysis::refine(
            m.function(fid),
            0,
            0.0,
            5.0,
            &[],
            analysis::MeshOptions::default(),
        )
    };
    println!(
        "Mesh refinement: optimal attention ~= {:.3} after {} rounds ({} interval evaluations)",
        mesh.estimate,
        mesh.rounds(),
        mesh.analysis_evaluations
    );

    // --- Clone detection (§4.4) ----------------------------------------------
    // Analyses need only the compiled artifact, so `compile` is the right
    // entry point here; to *execute* a model, build a `distill::Session`
    // instead (see the quickstart example).
    let a = extended_stroop_a();
    let b = extended_stroop_b();
    let ca = compile(&a.model, CompileConfig::default())?;
    let cb = compile(&b.model, CompileConfig::default())?;
    let mut merged = ca.module.clone();
    let mut other = cb.module.function(cb.trial_func.unwrap()).clone();
    other.name = "trial_b".into();
    let fb = merged.add_function(other);
    let report = analysis::functions_equivalent(&merged, ca.trial_func.unwrap(), fb);
    println!(
        "Clone detection: extended Stroop A == B ? {} ({} instructions matched)",
        report.equivalent, report.matched_instructions
    );
    Ok(())
}
