//! Quickstart: build a tiny cognitive model, run it on the dynamic baseline,
//! compile it with Distill and compare outputs and speed — all through the
//! unified `Session`/`Runner` API.
//!
//! Run with `cargo run --example quickstart`.

use distill::{Composition, ExecMode, RunSpec, Session, Target};
use distill_cogmodel::functions::{identity, linear, logistic};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A three-node pipeline: input -> linear gain -> logistic squash.
    let mut model = Composition::new("quickstart");
    let input = model.add(identity("input", 4));
    let gain = model.add(linear("gain", 4, 2.5, 0.1));
    let squash = model.add(logistic("squash", 4, 1.0, 0.0));
    model.connect(input, 0, gain, 0, 0);
    model.connect(gain, 0, squash, 0, 0);
    model.input_nodes = vec![input];
    model.output_nodes = vec![squash];

    let inputs = vec![
        vec![vec![0.1, -0.4, 1.2, 0.0]],
        vec![vec![0.9, 0.3, -1.0, 2.0]],
    ];
    let trials = 2000;
    let spec = RunSpec::new(inputs, trials);

    // Baseline: the PsyNeuLink-style scheduler interpreted over dynamic values.
    let mut baseline_runner = Session::new(&model)
        .target(Target::Baseline(ExecMode::CPython))
        .build()?;
    let t = Instant::now();
    let baseline = baseline_runner.run(&spec)?;
    let baseline_time = t.elapsed();

    // Distill: compile to IR, optimize model-wide, execute over static structures.
    let mut runner = Session::new(&model).build()?;
    let t = Instant::now();
    let compiled = runner.run(&spec)?;
    let distill_time = t.elapsed();

    // Batched: the same trials, but looped inside compiled code through the
    // generated `trials_batch` entry point — one engine entry per 64 trials.
    let mut batched_runner = Session::new(&model).build()?;
    let t = Instant::now();
    let batched = batched_runner.run(&spec.clone().with_batch(64))?;
    let batched_time = t.elapsed();

    assert_eq!(
        baseline.outputs, compiled.outputs,
        "both paths compute the same model"
    );
    assert_eq!(
        compiled.outputs, batched.outputs,
        "batching changes nothing but speed"
    );
    println!("baseline (CPython-style): {baseline_time:?} for {trials} trials");
    println!("Distill (whole-model):    {distill_time:?} for {trials} trials");
    println!("Distill (batch=64):       {batched_time:?} for {trials} trials");
    println!(
        "speedup: {:.1}x compiled, {:.1}x batched",
        baseline_time.as_secs_f64() / distill_time.as_secs_f64().max(1e-9),
        baseline_time.as_secs_f64() / batched_time.as_secs_f64().max(1e-9)
    );
    println!("first trial output: {:?}", compiled.outputs[0]);
    Ok(())
}
