//! Smoke tests: execute every figure workload once under `cargo test -q`, so
//! the figure code paths are compiled and exercised by the tier-1 verify
//! instead of rotting behind `cargo bench`.
//!
//! Each test uses the smallest workload the figure supports; the full-size
//! sweeps stay behind `cargo bench` / `figures --full`. Where the figN
//! function itself is too heavy for the unoptimized test profile (fig4's
//! eight-model sweep, fig5a's L variant), the test mirrors the corresponding
//! bench body at reduced size instead.

use distill::{
    time_baseline, time_distill, CompileConfig, CompileMode, ExecMode, GpuConfig, Measurement,
    RunSpec, Session, Target,
};
use distill_bench as bench;
use distill_models::{botvinick_stroop, necker_cube_s, predator_prey, registry, Scale, Tag};

#[test]
fn fig2_mesh_refinement_runs() {
    let r = bench::fig2();
    assert!(r.rounds >= 1);
    assert!(!r.trace.is_empty());
    let json = r.to_json().to_string();
    assert!(json.starts_with('{') && json.contains("\"estimate\":"));
}

#[test]
fn fig3_clone_detection_runs() {
    let r = bench::fig3();
    assert!(r.equivalent, "Extended Stroop A and B are clones: {:?}", r.mismatch);
    assert!(r.matched_instructions > 0);
}

#[test]
fn fig4_workload_runs_per_environment() {
    // Mirrors benches/fig4_envs.rs at one trial on the smallest model.
    let w = necker_cube_s();
    for mode in ExecMode::all() {
        match time_baseline(&w.model, &w.inputs, 1, mode, Some(bench::DNF_BUDGET)) {
            Measurement::Time(d) => assert!(d.as_nanos() > 0),
            // The simulated JIT environments may legitimately fail (OOM /
            // unsupported-framework annotations), but never silently.
            Measurement::Failed(msg) => assert!(!msg.is_empty()),
        }
    }
    match time_distill(&w.model, &w.inputs, 1, CompileConfig::default()) {
        Measurement::Time(d) => assert!(d.as_nanos() > 0),
        Measurement::Failed(msg) => panic!("Distill path failed: {msg}"),
    }
}

#[test]
fn fig4_registry_models_run_baseline_and_distill() {
    // The figure's model list is data-driven from the registry: every
    // Figure4-tagged family must run one trial under the CPython baseline
    // and under Distill (the figure itself scales the trial counts).
    for spec in registry::by_tag(Tag::Figure4) {
        let w = spec.build(Scale::Reduced);
        match time_baseline(&w.model, &w.inputs, 1, ExecMode::CPython, Some(bench::DNF_BUDGET)) {
            Measurement::Time(d) => assert!(d.as_nanos() > 0, "{}", spec.name),
            Measurement::Failed(msg) => panic!("{}: baseline failed: {msg}", spec.name),
        }
        match time_distill(&w.model, &w.inputs, 1, CompileConfig::default()) {
            Measurement::Time(d) => assert!(d.as_nanos() > 0, "{}", spec.name),
            Measurement::Failed(msg) => panic!("{}: Distill path failed: {msg}", spec.name),
        }
    }
}

#[test]
fn fig5a_workload_scales_baseline_vs_distill() {
    // Data-driven from the registry's scaling ladder; run the smallest
    // variant end to end on both paths (the ladder's first entry is the S
    // variant the old hand-rolled test used).
    let scaling = registry::by_tag(Tag::Scaling);
    assert_eq!(scaling[0].build(Scale::Reduced).model.name, predator_prey(2).model.name);
    let w = scaling[0].build(Scale::Reduced);
    let spec = RunSpec::new(w.inputs.clone(), 1);
    Session::new(&w.model)
        .target(Target::Baseline(ExecMode::CPython))
        .build()
        .expect("baseline build")
        .run(&spec)
        .expect("baseline trial");
    Session::new(&w.model)
        .build()
        .expect("compile")
        .run(&spec)
        .expect("compiled trial");
}

#[test]
fn fig5b_workload_compiles_both_scopes() {
    // Mirrors benches/fig5b_per_node.rs at a twentieth of the trial count.
    let w = bench::scaled(botvinick_stroop(), 0.05);
    let spec = RunSpec::new(w.inputs.clone(), w.trials);
    for mode in [CompileMode::PerNode, CompileMode::WholeModel] {
        Session::new(&w.model)
            .mode(mode)
            .build()
            .expect("compile")
            .run(&spec)
            .expect("compiled trial");
    }
}

#[test]
fn fig5c_workload_runs_serial_mcpu_gpu() {
    let s = bench::fig5c(4, 2);
    assert_eq!(s.cells.len(), 3);
    assert!(s.cells.iter().all(|c| c.result.is_ok()));
    assert!(s.to_json().to_string().contains("\"seconds\":"));
}

#[test]
fn fig6_workload_sweeps_register_throttles() {
    let r = bench::fig6(3);
    assert_eq!(r.rows.len(), 10);
    assert!(r.rows.iter().all(|row| row.kernel_time_s > 0.0));
    // Throttling registers can only hurt (or not affect) the fp64 kernel.
    let fp64: Vec<&bench::Fig6Row> = r.rows.iter().filter(|row| row.kernel == "fp64").collect();
    let unthrottled = fp64.iter().find(|r| r.max_registers == 256).unwrap();
    let throttled = fp64.iter().find(|r| r.max_registers == 16).unwrap();
    assert!(throttled.kernel_time_s >= unthrottled.kernel_time_s);
}

#[test]
fn fig7_workload_breaks_down_compile_cost() {
    let r = bench::fig7(2, 1);
    assert_eq!(r.models.len(), 2);
    for m in &r.models {
        assert_eq!(m.rows.len(), 4, "O0..O3 for {}", m.name);
        for row in &m.rows {
            assert!(row.compile_s > 0.0);
            assert!(row.instructions > 0);
        }
    }
    // The sweep covers O0..O3 in order. (Instruction counts may go either
    // way: folding/DCE shrink the module, O2/O3 inlining grows it.)
    let levels: Vec<&str> = r.models[0].rows.iter().map(|row| row.level.as_str()).collect();
    assert_eq!(levels, ["O0", "O1", "O2", "O3"]);
}

#[test]
fn gpu_grid_runs_with_fp32_and_throttle() {
    // The fig6 bench exercises custom GpuConfigs through Target::Gpu; keep
    // that path under test too.
    let w = predator_prey(2);
    let cfg = GpuConfig::default().fp32().with_max_registers(32);
    let report = Session::new(&w.model)
        .target(Target::Gpu(cfg))
        .build()
        .expect("compile")
        .run(&RunSpec::new(w.inputs.clone(), 1))
        .expect("gpu run")
        .gpu
        .expect("gpu target reports modelled timing");
    assert!(report.total_time_s > 0.0);
    assert!(report.occupancy > 0.0 && report.occupancy <= 1.0);
}
