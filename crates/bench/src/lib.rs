//! `distill-bench` — the harness that regenerates every figure of the
//! paper's evaluation (§6).
//!
//! Each `figN` function produces the data series of the corresponding figure
//! as plain structs with a `render()` text form; the `figures` binary prints
//! them, and the Criterion benches in `benches/` time the individual
//! configurations. Absolute numbers differ from the paper (the baseline is a
//! Rust-hosted dynamic interpreter, not CPython 3.6 on an i7-8700; the GPU
//! is simulated), but the series have the same shape: who wins, by roughly
//! what factor, and which configurations fail with which annotation.

use criterion::json::Json;
use distill::{
    analysis, compile, time_baseline, time_distill, CompileConfig, CompileMode, ExecMode,
    GpuConfig, Measurement, OptLevel, RunSpec, Session, Target,
};
use distill_models::{
    botvinick_stroop, extended_stroop_a, extended_stroop_b, figure4_models, multitasking,
    predator_prey, registry, Scale, Tag, Workload,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Budget (expression evaluations) after which a baseline configuration is
/// reported as "did not finish", standing in for the paper's 24-hour cutoff.
pub const DNF_BUDGET: u64 = 200_000_000;

/// One cell of Fig. 4 / Fig. 5: a configuration and its measurement.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Configuration label (e.g. `CPython`, `Pyston-DISTILL`).
    pub label: String,
    /// Wall-clock seconds, or the failure annotation.
    pub result: Result<f64, String>,
}

impl Cell {
    fn time(label: impl Into<String>, m: Measurement) -> Cell {
        Cell {
            label: label.into(),
            result: match m {
                Measurement::Time(d) => Ok(d.as_secs_f64()),
                Measurement::Failed(msg) => Err(msg),
            },
        }
    }

    /// The cell as a JSON object: `{"label": …, "seconds": …}` on success,
    /// `{"label": …, "error": …}` on a failure annotation.
    pub fn to_json(&self) -> Json {
        match &self.result {
            Ok(s) => Json::obj([("label", Json::str(&self.label)), ("seconds", (*s).into())]),
            Err(msg) => Json::obj([("label", Json::str(&self.label)), ("error", Json::str(msg))]),
        }
    }
}

/// A titled group of cells (one model of Fig. 4, one variant of Fig. 5…).
#[derive(Debug, Clone)]
pub struct Series {
    /// Title (model name, variant, …).
    pub title: String,
    /// The cells.
    pub cells: Vec<Cell>,
}

impl Series {
    /// Render the series as aligned text rows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}", self.title);
        let base = self
            .cells
            .first()
            .and_then(|c| c.result.as_ref().ok().copied());
        for c in &self.cells {
            match &c.result {
                Ok(s) => {
                    let rel = base.map(|b| s / b).unwrap_or(1.0);
                    let _ = writeln!(out, "  {:<24} {:>12.6} s   (x{:.4} of baseline)", c.label, s, rel);
                }
                Err(msg) => {
                    let _ = writeln!(out, "  {:<24} {:>12}     <-- {}", c.label, "-", msg);
                }
            }
        }
        out
    }

    /// The series as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("title", Json::str(&self.title)),
            ("cells", Json::Arr(self.cells.iter().map(Cell::to_json).collect())),
        ])
    }
}

/// Scale a workload's trial count (used to keep the harness fast while
/// preserving relative shapes).
pub fn scaled(mut w: Workload, factor: f64) -> Workload {
    w.trials = ((w.trials as f64 * factor).round() as usize).max(1);
    w
}

/// Fig. 4: running time of the eight models under the four baseline
/// environments, each with and without Distill, normalized to CPython.
pub fn fig4(trial_scale: f64) -> Vec<Series> {
    let mut out = Vec::new();
    for w in figure4_models() {
        let w = scaled(w, trial_scale);
        let mut cells = Vec::new();
        for mode in ExecMode::all() {
            cells.push(Cell::time(
                mode.label(),
                time_baseline(&w.model, &w.inputs, w.trials, mode, Some(DNF_BUDGET)),
            ));
        }
        // The Distill path is host-independent in this reproduction: one
        // compiled measurement stands for all four environments.
        let distill = time_distill(&w.model, &w.inputs, w.trials, CompileConfig::default());
        for mode in ExecMode::all() {
            cells.push(Cell {
                label: format!("{}-DISTILL", mode.label()),
                result: match &distill {
                    Measurement::Time(d) => Ok(d.as_secs_f64()),
                    Measurement::Failed(m) => Err(m.clone()),
                },
            });
        }
        out.push(Series {
            title: w.model.name.clone(),
            cells,
        });
    }
    out
}

/// Fig. 5a: Predator-Prey scaling — CPython vs Distill. The scaling ladder
/// is data-driven from the registry's [`Tag::Scaling`] entries, built at
/// the scale matching the run's archive stamp; `full` also adds the XL
/// variant (10⁶ evaluations).
pub fn fig5a(full: bool) -> Vec<Series> {
    let scale = if full { Scale::Full } else { Scale::Reduced };
    let mut out = Vec::new();
    let mut workloads: Vec<Workload> = registry::by_tag(Tag::Scaling)
        .into_iter()
        .map(|s| s.build(scale))
        .collect();
    if full {
        workloads.push(predator_prey(100));
    }
    for w in workloads {
        let trials = 1;
        let huge_grid = w
            .model
            .controller
            .as_ref()
            .map(|c| c.grid_size() >= 1_000_000)
            .unwrap_or(false);
        let baseline = time_baseline(
            &w.model,
            &w.inputs,
            trials,
            ExecMode::CPython,
            Some(if huge_grid { 20_000_000 } else { DNF_BUDGET }),
        );
        let distill = time_distill(&w.model, &w.inputs, trials, CompileConfig::default());
        out.push(Series {
            title: w.model.name.clone(),
            cells: vec![
                Cell::time("CPython", baseline),
                Cell::time("CPython-DISTILL", distill),
            ],
        });
    }
    out
}

/// Fig. 5b: Botvinick Stroop — per-node vs whole-model compilation.
pub fn fig5b(trial_scale: f64) -> Series {
    let w = scaled(botvinick_stroop(), trial_scale);
    let baseline = time_baseline(&w.model, &w.inputs, w.trials, ExecMode::CPython, None);
    let per_node = time_distill(
        &w.model,
        &w.inputs,
        w.trials,
        CompileConfig {
            mode: CompileMode::PerNode,
            ..CompileConfig::default()
        },
    );
    let whole = time_distill(&w.model, &w.inputs, w.trials, CompileConfig::default());
    Series {
        title: "botvinick_stroop per-node vs whole-model".into(),
        cells: vec![
            Cell::time("CPython", baseline),
            Cell::time("CPython-DISTILL-per-node", per_node),
            Cell::time("CPython-DISTILL", whole),
        ],
    }
}

/// Fig. 5c: Predator-Prey XL grid search — single thread vs multicore vs
/// (simulated) GPU, every configuration a [`Session`] target running the
/// same one-trial [`RunSpec`]. `levels` lets tests shrink the grid.
///
/// Unlike the pre-Session harness (which timed the parallel backends' grid
/// search in isolation), every cell now times a full trial through the
/// uniform `run` contract — like the paper's figure. The parallel targets
/// drive the scheduler per node, so their cells include that boundary
/// crossing on top of the parallelized grid; with grids of 10³–10⁶
/// evaluations the grid phase dominates.
pub fn fig5c(levels: usize, threads: usize) -> Series {
    let w = predator_prey(levels);
    let spec = RunSpec::new(w.inputs.clone(), 1);
    // Target is a run-time knob: compile once, build one runner per target.
    let artifact =
        compile(&w.model, CompileConfig::default()).expect("compilation succeeds");
    let grid = artifact.grid_size;

    let mut serial_runner = Session::new(&w.model)
        .build_with(artifact.clone())
        .expect("runner builds");
    let start = Instant::now();
    let _ = serial_runner.run(&spec).expect("serial trial");
    let serial = start.elapsed().as_secs_f64();

    let mut mcpu_runner = Session::new(&w.model)
        .target(Target::MultiCore { threads })
        .build_with(artifact.clone())
        .expect("runner builds");
    let start = Instant::now();
    let _ = mcpu_runner.run(&spec).expect("multicore grid");
    let mcpu = start.elapsed().as_secs_f64();

    let gpu = Session::new(&w.model)
        .target(Target::Gpu(GpuConfig::default()))
        .build_with(artifact)
        .expect("runner builds")
        .run(&spec)
        .expect("gpu grid")
        .gpu
        .expect("gpu target reports modelled timing");

    Series {
        title: format!("predator_prey grid={grid} parallel execution"),
        cells: vec![
            Cell {
                label: "CPython-DISTILL (1 thread)".into(),
                result: Ok(serial),
            },
            Cell {
                label: format!("CPython-DISTILL-mCPU ({threads} threads)"),
                result: Ok(mcpu),
            },
            Cell {
                label: "CPython-DISTILL-GPU (modelled)".into(),
                result: Ok(gpu.total_time_s),
            },
        ],
    }
}

/// One configuration of the Fig. 6 register sweep.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// `fp32` or `fp64`.
    pub kernel: &'static str,
    /// The max-register throttle applied to the kernel.
    pub max_registers: usize,
    /// Modelled kernel time in seconds.
    pub kernel_time_s: f64,
    /// Modelled occupancy in `[0, 1]`.
    pub occupancy: f64,
}

/// Fig. 6 data: GPU time and occupancy vs the max-register throttle.
#[derive(Debug, Clone)]
pub struct Fig6Report {
    /// Grid-search size of the model the sweep ran on.
    pub grid_size: usize,
    /// One row per (kernel, throttle) configuration.
    pub rows: Vec<Fig6Row>,
}

impl Fig6Report {
    /// Render as the aligned text table the paper's figure tabulates.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Fig 6: GPU running time vs max registers (grid = {})",
            self.grid_size
        );
        let _ = writeln!(out, "  {:<8} {:<10} {:>12} {:>12}", "kernel", "max regs", "time (s)", "occupancy");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<8} {:<10} {:>12.4} {:>12.3}",
                r.kernel, r.max_registers, r.kernel_time_s, r.occupancy
            );
        }
        out
    }

    /// The sweep as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("grid_size", self.grid_size.into()),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("kernel", r.kernel.into()),
                                ("max_registers", r.max_registers.into()),
                                ("kernel_time_s", r.kernel_time_s.into()),
                                ("occupancy", r.occupancy.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Fig. 6: GPU time and occupancy vs the max-register throttle, fp32 & fp64.
pub fn fig6(levels: usize) -> Fig6Report {
    let w = predator_prey(levels);
    // The GpuConfig is a run-time knob: compile once and rebuild only the
    // (cheap) runner per configuration via `build_with`.
    let artifact =
        compile(&w.model, CompileConfig::default()).expect("compilation succeeds");
    let grid_size = artifact.grid_size;
    let spec = RunSpec::new(w.inputs.clone(), 1);
    let mut rows = Vec::new();
    for fp32 in [true, false] {
        for regs in [256usize, 128, 64, 32, 16] {
            let cfg = if fp32 {
                GpuConfig::default().fp32().with_max_registers(regs)
            } else {
                GpuConfig::default().with_max_registers(regs)
            };
            let r = Session::new(&w.model)
                .target(Target::Gpu(cfg))
                .build_with(artifact.clone())
                .expect("runner builds")
                .run(&spec)
                .expect("gpu run")
                .gpu
                .expect("gpu target reports modelled timing");
            rows.push(Fig6Row {
                kernel: if fp32 { "fp32" } else { "fp64" },
                max_registers: regs,
                kernel_time_s: r.kernel_time_s,
                occupancy: r.occupancy,
            });
        }
    }
    Fig6Report { grid_size, rows }
}

/// One opt level's breakdown within [`Fig7Model`].
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Optimization level label (`O0` … `O3`).
    pub level: String,
    /// Compilation seconds.
    pub compile_s: f64,
    /// Execution seconds for all trials.
    pub exec_s: f64,
    /// Trial-input construction seconds (measured separately like the
    /// paper's stack).
    pub input_constr_s: f64,
    /// IR instructions after optimization.
    pub instructions: usize,
    /// Scheduler passes executed across the trials.
    pub passes: u64,
}

/// One model's O0–O3 sweep within [`Fig7Report`].
#[derive(Debug, Clone)]
pub struct Fig7Model {
    /// Model name.
    pub name: String,
    /// One row per optimization level.
    pub rows: Vec<Fig7Row>,
}

/// Fig. 7 data: compilation / execution breakdown at O0–O3.
#[derive(Debug, Clone)]
pub struct Fig7Report {
    /// Trials each configuration executed.
    pub trials: usize,
    /// The models swept.
    pub models: Vec<Fig7Model>,
}

impl Fig7Report {
    /// Render as the indented text breakdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Fig 7: runtime breakdown at O0-O3");
        for m in &self.models {
            let _ = writeln!(out, "  -- {}", m.name);
            for r in &m.rows {
                let _ = writeln!(
                    out,
                    "    {:<3} compile {:>9.4}s  execute {:>9.4}s  input-constr {:>9.6}s  ({} IR instructions, {} trials, {} passes)",
                    r.level, r.compile_s, r.exec_s, r.input_constr_s, r.instructions, self.trials, r.passes,
                );
            }
        }
        out
    }

    /// The breakdown as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("trials", self.trials.into()),
            (
                "models",
                Json::Arr(
                    self.models
                        .iter()
                        .map(|m| {
                            Json::obj([
                                ("name", Json::str(&m.name)),
                                (
                                    "rows",
                                    Json::Arr(
                                        m.rows
                                            .iter()
                                            .map(|r| {
                                                Json::obj([
                                                    ("level", Json::str(&r.level)),
                                                    ("compile_s", r.compile_s.into()),
                                                    ("exec_s", r.exec_s.into()),
                                                    ("input_constr_s", r.input_constr_s.into()),
                                                    ("instructions", r.instructions.into()),
                                                    ("passes", r.passes.into()),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Fig. 7: compilation / execution time breakdown at O0–O3 for Predator-Prey
/// (XL by default) and Multitasking.
pub fn fig7(levels: usize, trials: usize) -> Fig7Report {
    let mut models = Vec::new();
    for (name, w) in [
        (format!("predator_prey_{levels}"), predator_prey(levels)),
        ("multitasking".to_string(), multitasking()),
    ] {
        let mut rows = Vec::new();
        for level in OptLevel::all() {
            let t0 = Instant::now();
            let mut runner = Session::new(&w.model)
                .opt_level(level)
                .build()
                .expect("compilation succeeds");
            let compile_s = t0.elapsed().as_secs_f64();
            let insts = runner
                .compiled()
                .map(|c| c.module.inst_count())
                .unwrap_or(0);
            let t1 = Instant::now();
            let input_construction: f64;
            let spec = {
                // Input construction = assembling the run spec the driver
                // writes into the static arrays; measured separately like
                // the paper's stack.
                let t = Instant::now();
                let spec = RunSpec::new(w.inputs.clone(), trials);
                input_construction = t.elapsed().as_secs_f64();
                spec
            };
            let result = runner.run(&spec).expect("compiled run");
            let exec_s = t1.elapsed().as_secs_f64();
            rows.push(Fig7Row {
                level: level.to_string(),
                compile_s,
                exec_s,
                input_constr_s: input_construction,
                instructions: insts,
                passes: result.passes.iter().sum::<u64>(),
            });
        }
        models.push(Fig7Model { name, rows });
    }
    Fig7Report { trials, models }
}

/// One refinement round of [`Fig2Report`].
#[derive(Debug, Clone)]
pub struct Fig2Step {
    /// Attention interval the round narrowed to.
    pub param_lo: f64,
    /// Upper end of the attention interval.
    pub param_hi: f64,
    /// Interval evaluation of the cost over that attention range (low end).
    pub cost_lo: f64,
    /// Interval evaluation of the cost over that attention range (high end).
    pub cost_hi: f64,
}

/// Fig. 2 data: adaptive mesh refinement vs grid search.
#[derive(Debug, Clone)]
pub struct Fig2Report {
    /// The per-round refinement trace.
    pub trace: Vec<Fig2Step>,
    /// Refinement rounds until convergence.
    pub rounds: usize,
    /// Final attention estimate.
    pub estimate: f64,
    /// Interval evaluations the analysis spent (vs ~100000 model runs for a
    /// conventional grid search).
    pub analysis_evaluations: usize,
}

impl Fig2Report {
    /// Render as the per-step text trace.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Fig 2: mesh refinement vs grid search");
        for (i, step) in self.trace.iter().enumerate() {
            let _ = writeln!(
                out,
                "  step {:>2}: attention in [{:.4}, {:.4}]  cost range [{:.2}, {:.2}]",
                i, step.param_lo, step.param_hi, step.cost_lo, step.cost_hi
            );
        }
        let _ = writeln!(
            out,
            "  estimate after {} rounds: attention ~= {:.3} using {} interval evaluations",
            self.rounds, self.estimate, self.analysis_evaluations
        );
        let _ = writeln!(
            out,
            "  conventional grid search: 100 levels x ~1000 stochastic runs = ~100000 model executions"
        );
        out
    }

    /// The refinement result as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rounds", self.rounds.into()),
            ("estimate", self.estimate.into()),
            ("analysis_evaluations", self.analysis_evaluations.into()),
            (
                "trace",
                Json::Arr(
                    self.trace
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("param_lo", s.param_lo.into()),
                                ("param_hi", s.param_hi.into()),
                                ("cost_lo", s.cost_lo.into()),
                                ("cost_hi", s.cost_hi.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Fig. 2: adaptive mesh refinement vs grid search for the prey-attention
/// parameter of the predator-prey cost surrogate.
pub fn fig2() -> Fig2Report {
    use distill_ir::{FunctionBuilder, Module, Ty};
    // The compiled, pre-optimized evaluation function reduces (for a fixed
    // predator/player allocation) to a smooth cost curve in the prey
    // attention; the surrogate below matches Fig. 2's curve shape with the
    // optimum near 4.6 on a [0, 5] attention axis.
    let mut m = Module::new("fig2");
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
        let scale = b.const_f64(4.0);
        let scaled = b.fmul(sq, scale);
        let off = b.const_f64(-395.0);
        let r = b.fadd(scaled, off);
        b.ret(Some(r));
    }
    let result = analysis::refine(
        m.function(fid),
        0,
        0.0,
        5.0,
        &[],
        analysis::MeshOptions::default(),
    );
    Fig2Report {
        trace: result
            .trace
            .iter()
            .map(|step| Fig2Step {
                param_lo: step.param.lo,
                param_hi: step.param.hi,
                cost_lo: step.cost.lo,
                cost_hi: step.cost.hi,
            })
            .collect(),
        rounds: result.rounds(),
        estimate: result.estimate,
        analysis_evaluations: result.analysis_evaluations,
    }
}

/// Fig. 3 data: whole-model clone-detection verdict.
#[derive(Debug, Clone)]
pub struct Fig3Report {
    /// Whether Extended Stroop A and B were proven equivalent.
    pub equivalent: bool,
    /// Instructions matched by the comparator.
    pub matched_instructions: usize,
    /// First mismatch description, when not equivalent.
    pub mismatch: Option<String>,
}

impl Fig3Report {
    /// Render the verdict line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== Fig 3 / §4.4: clone detection");
        let _ = writeln!(
            out,
            "  extended_stroop A ~ B (whole model, inlined): equivalent = {} ({} instructions matched{})",
            self.equivalent,
            self.matched_instructions,
            self.mismatch
                .as_ref()
                .map(|m| format!(", first mismatch: {m}"))
                .unwrap_or_default()
        );
        out
    }

    /// The verdict as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("equivalent", self.equivalent.into()),
            ("matched_instructions", self.matched_instructions.into()),
            (
                "mismatch",
                match &self.mismatch {
                    Some(m) => Json::str(m),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Fig. 3 / §4.4: clone detection results — LCA vs DDM node equivalence,
/// Extended Stroop A vs B, Necker cube M vs its vectorized form.
pub fn fig3() -> Fig3Report {
    // Node-level: LCA with leak 0 vs DDM (reusing the analysis test shape).
    let a = extended_stroop_a();
    let b = extended_stroop_b();
    let ca = compile(&a.model, CompileConfig::default()).expect("compile A");
    let cb = compile(&b.model, CompileConfig::default()).expect("compile B");
    let fa = ca.module.function_by_name("trial").expect("trial in A");
    let fb = cb.module.function_by_name("trial").expect("trial in B");
    // Cross-module comparison: copy B's trial into A's module namespace.
    let mut merged = ca.module.clone();
    let mut renamed = cb.module.function(fb).clone();
    renamed.name = "trial_b".into();
    let fb_in_a = merged.add_function(renamed);
    let report = analysis::functions_equivalent(&merged, fa, fb_in_a);
    Fig3Report {
        equivalent: report.equivalent,
        matched_instructions: report.matched_instructions,
        mismatch: report.mismatch.as_ref().map(|m| m.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_locates_the_optimum_without_model_runs() {
        let r = fig2();
        assert_eq!(r.rounds, 7);
        assert!((r.estimate - 4.6).abs() < 0.1, "optimum near 4.6: {}", r.estimate);
        let text = r.render();
        assert!(text.contains("estimate after 7 rounds"));
        assert!(text.contains("interval evaluations"));
        assert!(r.to_json().to_string().contains("\"rounds\":7"));
    }

    #[test]
    fn fig5b_reports_all_three_configurations() {
        // Wall-clock ordering (whole-model < per-node < baseline) is asserted
        // by the release-profile Criterion bench `fig5b_per_node`; under the
        // unoptimized test profile we only check that every configuration
        // completes and renders.
        let s = fig5b(0.1);
        let t: Vec<f64> = s.cells.iter().filter_map(|c| c.result.clone().ok()).collect();
        assert_eq!(t.len(), 3);
        assert!(s.render().contains("CPython-DISTILL-per-node"));
    }

    #[test]
    fn fig5c_reports_three_configurations() {
        let s = fig5c(6, 4);
        assert_eq!(s.cells.len(), 3);
        assert!(s.cells.iter().all(|c| c.result.is_ok()));
    }

    #[test]
    fn fig5a_is_registry_driven() {
        let series = fig5a(false);
        let scaling = distill_models::by_tag(distill_models::Tag::Scaling);
        assert_eq!(series.len(), scaling.len());
        for (s, spec) in series.iter().zip(scaling) {
            assert_eq!(s.title, spec.build(distill_models::Scale::Reduced).model.name);
            assert_eq!(s.cells.len(), 2);
        }
    }

    #[test]
    fn fig6_reports_occupancy_sweep() {
        let r = fig6(4);
        assert_eq!(r.rows.len(), 10, "5 register throttles x {{fp32, fp64}}");
        assert!(r.rows.iter().any(|row| row.kernel == "fp32"));
        assert!(r.rows.iter().any(|row| row.kernel == "fp64"));
        let text = r.render();
        assert!(text.contains("fp32"));
        assert!(text.contains("fp64"));
        assert_eq!(text.matches('\n').count() >= 12, true);
    }
}
