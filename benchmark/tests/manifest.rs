//! `BENCHMARK.json` at the repository root must list exactly what the
//! benchmark reports: the workloads, the end-to-end metrics with their
//! bounds, and the per-layer metrics.

use distill_benchmark::metrics::{END_TO_END, PER_LAYER};
use distill_benchmark::workloads::WORKLOADS;

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    assert!(text.contains("\"command\": [\"bash\", \"benchmark/run.sh\"]"));
    assert!(text.contains("\"paths\": [\"benchmark\"]"));
    for (name, why) in WORKLOADS {
        assert!(
            text.contains(&format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}")),
            "workload {name}"
        );
    }
    for m in END_TO_END {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound
        );
        assert!(text.contains(&entry), "end-to-end metric {entry}");
    }
    for m in PER_LAYER {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            m.better.label()
        );
        assert!(text.contains(&entry), "per-layer metric {entry}");
    }
    let listed = text.matches("{\"name\": ").count();
    assert_eq!(
        listed,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists something else too"
    );
}
