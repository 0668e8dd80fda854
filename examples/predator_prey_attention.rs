//! The paper's running example: the predator-prey task with an optimizing
//! controller that grid-searches attention allocations, accelerated by
//! Distill and parallelized over CPU threads and the simulated GPU — every
//! configuration the same `Session` with a different `Target`.
//!
//! Run with `cargo run --release --example predator_prey_attention`.

use distill::{compile, CompileConfig, GpuConfig, RunSpec, Session, Target};
use distill_models::predator_prey;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 6 attention levels per entity => 216 evaluations per trial (the paper's
    // "L" variant; switch to 100 levels for XL's 1,000,000 evaluations).
    let workload = predator_prey(6);
    let session = Session::new(&workload.model);

    // Target is a run-time knob: compile once, build one runner per target.
    let artifact = compile(&workload.model, CompileConfig::default())?;
    println!(
        "compiled {} nodes, grid of {} evaluations per trial",
        workload.model.node_count(),
        artifact.grid_size,
    );
    let mut runner = session.clone().build_with(artifact.clone())?;

    let t = Instant::now();
    let result = runner.run(&RunSpec::new(workload.inputs.clone(), 3))?;
    println!("3 trials (serial, whole-model): {:?}", t.elapsed());
    println!("actions + objective per trial: {:?}", result.outputs);

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut mcpu = session
        .clone()
        .target(Target::MultiCore { threads })
        .build_with(artifact.clone())?;
    let t = Instant::now();
    let parallel = mcpu.run(&RunSpec::new(workload.inputs.clone(), 1))?;
    let stats = parallel.grid.expect("multicore target reports grid stats");
    println!(
        "full trial, grid search on {threads} threads: {:?} ({} evaluations, {} steals)",
        t.elapsed(),
        stats.evaluations,
        stats.steals
    );
    println!("actions + objective: {:?}", parallel.outputs);

    let mut gpu_runner = session
        .target(Target::Gpu(GpuConfig::default()))
        .build_with(artifact)?;
    let gpu = gpu_runner
        .run(&RunSpec::new(workload.inputs.clone(), 1))?
        .gpu
        .expect("gpu target reports modelled timing");
    println!(
        "simulated GPU: modelled kernel time {:.4}s at occupancy {:.2}",
        gpu.kernel_time_s, gpu.occupancy
    );
    Ok(())
}
