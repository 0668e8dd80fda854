//! Compilation is deterministic: compiling the same model twice in one
//! process gives the same artifact bytes, for every registered workload
//! family at every level the benchmark builds (O0, O2, O3).
//!
//! The optimizer's output must not depend on hash-map iteration order
//! (`RandomState` seeds differ per map), or two builds of one family differ
//! in value numbering, artifact caches key equal configurations to unequal
//! bytes, and "the optimized IR is unchanged" cannot be checked at all.

use distill::{compile, serialize_artifact, CompileConfig, OptLevel};
use distill_models::{registry, Scale};

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
