//! Compilation is deterministic: compiling the same model twice in one
//! process gives the same artifact bytes, for every registered workload
//! family at every level the benchmark builds (O0, O2, O3). And it is
//! faithful: the optimized model runs bit-identically to the unoptimized
//! one.
//!
//! The optimizer's output must not depend on hash-map iteration order
//! (`RandomState` seeds differ per map), or two builds of one family differ
//! in value numbering, artifact caches key equal configurations to unequal
//! bytes, and "the optimized IR is unchanged" cannot be checked at all.

use distill::{
    compile, serialize_artifact, CompileConfig, OptLevel, RunResult, RunSpec, Session, Tier,
    TierPolicy,
};
use distill_models::{registry, Scale};
use distill_opt::{dce, fold, inline, mem2reg, memopt, simplify_cfg};

#[test]
fn every_family_compiles_to_identical_artifact_bytes_at_every_level() {
    for spec in registry::registry() {
        let model = spec.build(Scale::Reduced).model;
        for level in [OptLevel::O0, OptLevel::O2, OptLevel::O3] {
            let config = CompileConfig {
                opt_level: level,
                ..CompileConfig::default()
            };
            let first = compile(&model, config).expect("compiles");
            let second = compile(&model, config).expect("compiles");
            assert!(
                serialize_artifact(&first) == serialize_artifact(&second),
                "{} at {level}: two compiles gave different artifact bytes",
                spec.name
            );
        }
    }
}

/// On the reference tier, every family's O2 outputs and pass counts equal
/// O0's bit for bit, and the module is valid right after the load/store
/// pass first runs.
#[test]
fn every_family_runs_bit_identically_at_o0_and_o2() {
    const TRIALS: usize = 3;
    for spec in registry::registry() {
        let w = spec.build(Scale::Reduced);
        let run = |level| -> RunResult {
            Session::new(&w.model)
                .opt_level(level)
                .tier(TierPolicy::Fixed(Tier::Reference))
                .build()
                .and_then(|mut r| r.run(&RunSpec::new(w.inputs.clone(), TRIALS)))
                .unwrap_or_else(|e| panic!("{} at {level}: {e}", spec.name))
        };
        let bits = |r: &RunResult| -> Vec<Vec<u64>> {
            let rows = r.outputs.iter();
            rows.map(|t| t.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let (o0, o2) = (run(OptLevel::O0), run(OptLevel::O2));
        assert_eq!(bits(&o0), bits(&o2), "{}: O2 outputs diverged", spec.name);
        assert_eq!(
            o0.passes, o2.passes,
            "{}: O2 pass counts diverged",
            spec.name
        );

        let config = CompileConfig {
            opt_level: OptLevel::O0,
            ..CompileConfig::default()
        };
        let mut module = compile(&w.model, config).expect("compiles").module;
        inline::run(&mut module);
        for pass in [
            mem2reg::run,
            fold::run,
            simplify_cfg::run,
            fold::run,
            dce::run,
        ] {
            pass(&mut module);
        }
        let changes = memopt::run(&mut module);
        assert!(changes > 0, "{}: the pass changed nothing", spec.name);
        if let Err(e) = distill_ir::verify::verify_module(&module) {
            panic!("{}: invalid IR after memopt: {e}", spec.name);
        }
    }
}
