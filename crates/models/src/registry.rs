//! The workload registry: every model family the harnesses run, described
//! declaratively.
//!
//! A [`WorkloadSpec`] names a model family together with its scale presets,
//! the figure/sweep groups it belongs to ([`Tag`]) and the execution targets
//! it is meant to exercise ([`TargetKind`]). Consumers — the `figures`
//! binary, the fig2–fig7 smoke tests and the `distill-sweep` orchestrator —
//! iterate [`registry()`] instead of hard-coding model lists, so registering
//! a new family here is all it takes for it to appear in the figures, the
//! sweeps and the determinism suites (see the README's "Registering a new
//! workload family" how-to).
//!
//! This crate sits below `distill-core` in the dependency DAG, so target
//! kinds are described abstractly; `distill-sweep` maps them onto concrete
//! `distill::Target`s.

use crate::{
    botvinick_stroop, extended_stroop_a, extended_stroop_b, gpu_stress, multitasking,
    necker_cube_m, necker_cube_s, predator_prey_l, predator_prey_m, predator_prey_s,
    predator_prey_skewed, vectorized_necker_cube, Workload,
};

/// Workload scale preset: CI-friendly reduced workloads vs paper scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced workloads (the `figures` default, used by tests and CI).
    Reduced,
    /// Paper-scale workloads (`figures --full`).
    Full,
}

/// Execution-target kinds a workload is meant to exercise. Mapped onto
/// concrete `distill::Target`s by consumers above `distill-core` in the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetKind {
    /// The dynamic baseline interpreter.
    Baseline,
    /// Compiled, single core.
    SingleCore,
    /// Compiled, grid search across OS threads.
    MultiCore,
    /// Compiled, grid search on the simulated GPU.
    Gpu,
}

/// Registry groups: which figures and sweeps a family belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// One of the eight Fig. 4 models (registry order = figure order).
    Figure4,
    /// The Fig. 5a predator-prey scaling ladder.
    Scaling,
    /// Included in the default trial-throughput sweep.
    Sweep,
    /// Cost-skewed grid — exercises the work-stealing schedulers.
    Skewed,
    /// Stress configuration for the GPU cost model.
    GpuCost,
    /// Part of the default mixed-family load of the serving benchmark
    /// workloads and the open-loop smoke: whole-model families
    /// cheap enough per trial that request-level effects — coalescing,
    /// queueing, cache reuse — dominate the measurement.
    Serve,
}

/// A declaratively-registered workload family.
#[derive(Clone)]
pub struct WorkloadSpec {
    /// Registry key (also the prefix of the built model's name).
    pub name: &'static str,
    /// One-line description for reports and docs.
    pub summary: &'static str,
    /// Groups the family belongs to.
    pub tags: &'static [Tag],
    /// Targets the family is meant to exercise.
    pub targets: &'static [TargetKind],
    /// Trial counts for throughput sweeps at (reduced, full) scale; the
    /// figure workload's own trial count lives in the built [`Workload`].
    pub sweep_trials: (usize, usize),
    build: fn(Scale) -> Workload,
}

impl WorkloadSpec {
    /// Build the family's model and figure workload at the given scale.
    pub fn build(&self, scale: Scale) -> Workload {
        (self.build)(scale)
    }

    /// Whether the family belongs to the given group.
    pub fn has_tag(&self, tag: Tag) -> bool {
        self.tags.contains(&tag)
    }

    /// Whether the family is meant to run on the given target kind.
    pub fn supports(&self, kind: TargetKind) -> bool {
        self.targets.contains(&kind)
    }

    /// Trial count for throughput sweeps at the given scale.
    pub fn sweep_trials(&self, scale: Scale) -> usize {
        match scale {
            Scale::Reduced => self.sweep_trials.0,
            Scale::Full => self.sweep_trials.1,
        }
    }
}

impl std::fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("name", &self.name)
            .field("tags", &self.tags)
            .field("targets", &self.targets)
            .finish_non_exhaustive()
    }
}

const ALL_TARGETS: &[TargetKind] = &[
    TargetKind::Baseline,
    TargetKind::SingleCore,
    TargetKind::MultiCore,
    TargetKind::Gpu,
];
const SERIAL_TARGETS: &[TargetKind] = &[TargetKind::Baseline, TargetKind::SingleCore];

fn b_vectorized_necker(_: Scale) -> Workload {
    vectorized_necker_cube()
}
fn b_necker_s(_: Scale) -> Workload {
    necker_cube_s()
}
fn b_necker_m(_: Scale) -> Workload {
    necker_cube_m()
}
fn b_pp_s(_: Scale) -> Workload {
    predator_prey_s()
}
fn b_pp_m(_: Scale) -> Workload {
    predator_prey_m()
}
fn b_pp_l(_: Scale) -> Workload {
    predator_prey_l()
}
fn b_stroop(_: Scale) -> Workload {
    botvinick_stroop()
}
fn b_ext_a(_: Scale) -> Workload {
    extended_stroop_a()
}
fn b_ext_b(_: Scale) -> Workload {
    extended_stroop_b()
}
fn b_multitasking(_: Scale) -> Workload {
    multitasking()
}
fn b_pp_skewed(scale: Scale) -> Workload {
    predator_prey_skewed(match scale {
        Scale::Reduced => 6,
        Scale::Full => 10,
    })
}
fn b_gpu_stress(scale: Scale) -> Workload {
    gpu_stress(match scale {
        Scale::Reduced => 6,
        Scale::Full => 20,
    })
}

/// The registered workload families. The first eight entries are the Fig. 4
/// models in figure order; the remainder are scaling variants and the
/// stress families added on top of the paper's six.
const REGISTRY: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "vectorized_necker_cube",
        summary: "hand-vectorized 8-vertex bistable-perception model",
        tags: &[Tag::Figure4, Tag::Sweep, Tag::Serve],
        targets: SERIAL_TARGETS,
        sweep_trials: (60, 400),
        build: b_vectorized_necker,
    },
    WorkloadSpec {
        name: "necker_cube_3",
        summary: "3-vertex Necker cube, one leaky unit per vertex",
        tags: &[Tag::Figure4],
        targets: SERIAL_TARGETS,
        sweep_trials: (60, 400),
        build: b_necker_s,
    },
    WorkloadSpec {
        name: "necker_cube_8",
        summary: "8-vertex Necker cube, one leaky unit per vertex",
        tags: &[Tag::Figure4, Tag::Sweep, Tag::Serve],
        targets: SERIAL_TARGETS,
        sweep_trials: (40, 240),
        build: b_necker_m,
    },
    WorkloadSpec {
        name: "predator_prey_2",
        summary: "predator-prey S: grid-search attention controller, 8 evals/trial",
        tags: &[Tag::Figure4, Tag::Scaling, Tag::Sweep, Tag::Serve],
        targets: ALL_TARGETS,
        sweep_trials: (240, 2000),
        build: b_pp_s,
    },
    WorkloadSpec {
        name: "botvinick_stroop",
        summary: "conflict-monitoring Stroop, 200 passes/trial",
        tags: &[Tag::Figure4, Tag::Sweep, Tag::Serve],
        targets: SERIAL_TARGETS,
        sweep_trials: (16, 120),
        build: b_stroop,
    },
    WorkloadSpec {
        name: "extended_stroop_a",
        summary: "Stroop + two DDM stages, variant A",
        tags: &[Tag::Figure4],
        targets: SERIAL_TARGETS,
        sweep_trials: (16, 120),
        build: b_ext_a,
    },
    WorkloadSpec {
        name: "extended_stroop_b",
        summary: "Stroop + two DDM stages, variant B (clone of A)",
        tags: &[Tag::Figure4],
        targets: SERIAL_TARGETS,
        sweep_trials: (16, 120),
        build: b_ext_b,
    },
    WorkloadSpec {
        name: "multitasking",
        summary: "PyTorch MLP + PsyNeuLink LCA, threshold-terminated trials",
        tags: &[Tag::Figure4, Tag::Sweep],
        targets: SERIAL_TARGETS,
        sweep_trials: (40, 240),
        build: b_multitasking,
    },
    WorkloadSpec {
        name: "predator_prey_4",
        summary: "predator-prey M: 64 evals/trial",
        tags: &[Tag::Scaling],
        targets: ALL_TARGETS,
        sweep_trials: (60, 400),
        build: b_pp_m,
    },
    WorkloadSpec {
        name: "predator_prey_6",
        summary: "predator-prey L: 216 evals/trial",
        tags: &[Tag::Scaling],
        targets: ALL_TARGETS,
        sweep_trials: (24, 160),
        build: b_pp_l,
    },
    WorkloadSpec {
        name: "predator_prey_skewed",
        summary: "cost-skewed predator-prey: attention buys deliberation work",
        tags: &[Tag::Skewed, Tag::Sweep],
        targets: &[TargetKind::SingleCore, TargetKind::MultiCore],
        sweep_trials: (8, 40),
        build: b_pp_skewed,
    },
    WorkloadSpec {
        name: "gpu_stress",
        summary: "register-heavy kernel stressing the GPU occupancy model",
        tags: &[Tag::GpuCost, Tag::Sweep],
        targets: &[TargetKind::SingleCore, TargetKind::Gpu],
        sweep_trials: (24, 120),
        build: b_gpu_stress,
    },
];

/// All registered workload families.
pub fn registry() -> &'static [WorkloadSpec] {
    REGISTRY
}

/// The families belonging to a group, in registry order.
pub fn by_tag(tag: Tag) -> Vec<&'static WorkloadSpec> {
    REGISTRY.iter().filter(|s| s.has_tag(tag)).collect()
}

/// Look a family up by registry key.
pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// The default mixed-family serving load (the serving benchmark workloads
/// and the open-loop smoke), in registry order: three serial whole-model families
/// plus the grid-search predator-prey anchor, so coalesced traffic mixes
/// cheap threshold-terminated trials with controller-heavy ones.
pub fn serve_mix() -> Vec<&'static WorkloadSpec> {
    by_tag(Tag::Serve)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_entries_lead_in_figure_order() {
        let fig4 = by_tag(Tag::Figure4);
        assert_eq!(fig4.len(), 8);
        let names: Vec<&str> = fig4.iter().map(|s| s.name).collect();
        assert_eq!(names[0], "vectorized_necker_cube");
        assert!(names.contains(&"botvinick_stroop"));
        assert!(names.contains(&"multitasking"));
    }

    #[test]
    fn names_are_unique_and_resolvable() {
        for spec in registry() {
            assert_eq!(by_name(spec.name).unwrap().name, spec.name);
        }
        let mut names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len(), "duplicate registry keys");
    }

    #[test]
    fn every_family_builds_and_sanitizes_at_both_scales() {
        for spec in registry() {
            for scale in [Scale::Reduced, Scale::Full] {
                let w = spec.build(scale);
                w.model
                    .sanitize()
                    .unwrap_or_else(|e| panic!("{} @ {scale:?}: {e}", spec.name));
                assert!(w.trials > 0);
                assert!(spec.sweep_trials(scale) > 0);
                assert!(!w.inputs.is_empty());
            }
        }
    }

    #[test]
    fn stress_families_are_registered() {
        let skewed = by_name("predator_prey_skewed").expect("skewed family registered");
        assert!(skewed.supports(TargetKind::MultiCore));
        assert!(skewed.has_tag(Tag::Skewed));
        assert!(skewed.build(Scale::Reduced).model.controller.is_some());
        let gpu = by_name("gpu_stress").expect("gpu stress family registered");
        assert!(gpu.supports(TargetKind::Gpu));
        assert!(gpu.build(Scale::Reduced).model.controller.is_some());
    }
}
