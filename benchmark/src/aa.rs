//! The A/A check: the same code and seed run several times must agree
//! within the benchmark's own bounds. Reads the flat `<workload>.trace<k>.tsv`
//! files each run leaves in its output directory.

use crate::metrics::END_TO_END;
use crate::util::median;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::path::Path;

/// Per-layer names that are exact counts: they must repeat, not merely agree.
const EXACT: &[&str] = &[
    "output_digest",
    "exec.dispatches_per_trial",
    "opt.O2.insts_after",
    "opt.O3.insts_after",
    "codegen.insts_emitted",
    "loadgen.output_digest_lo32",
];

fn read_tsv(path: &Path) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut cols = l.split('\t');
            Some((cols.next()?.to_string(), cols.next()?.to_string()))
        })
        .collect())
}

/// Compare the runs in `dirs`; returns the table to print and whether every
/// pair of (workload, end-to-end metric) agreed and every exact count
/// repeated.
///
/// # Errors
/// A missing or unreadable metrics file.
pub fn compare(dirs: &[&Path]) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<16} {:<22} {:>10} {:>8}  verdict\n",
        "workload", "metric", "spread", "bound"
    );
    let mut ok = true;
    for (workload, _) in WORKLOADS {
        let measured: Vec<_> = dirs
            .iter()
            .map(|d| read_tsv(&d.join(format!("{workload}.trace0.tsv"))))
            .collect::<Result<_, _>>()?;
        for m in END_TO_END {
            let values: Vec<f64> = measured
                .iter()
                .filter_map(|run| run.get(m.name)?.parse().ok())
                .collect();
            if values.len() != dirs.len() {
                return Err(format!("{workload}: `{}` missing from a run", m.name));
            }
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = (hi - lo) / median(&values);
            let within = spread <= m.bound;
            ok &= within;
            table.push_str(&format!(
                "{workload:<16} {:<22} {:>9.2}% {:>7.0}%  {}\n",
                m.name,
                spread * 100.0,
                m.bound * 100.0,
                if within {
                    "agrees"
                } else {
                    "DISAGREES: lengthen the workload"
                }
            ));
        }
        for kind in 0..2 {
            let runs: Vec<_> = dirs
                .iter()
                .map(|d| read_tsv(&d.join(format!("{workload}.trace{kind}.tsv"))))
                .collect::<Result<_, _>>()?;
            for name in EXACT {
                let values: Vec<&String> = runs.iter().filter_map(|r| r.get(*name)).collect();
                if values.windows(2).any(|w| w[0] != w[1]) {
                    ok = false;
                    table.push_str(&format!(
                        "{workload:<16} {name:<22} trace{kind}: DOES NOT REPEAT {values:?}\n"
                    ));
                }
            }
        }
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_run(dir: &Path, tps: f64, dispatches: &str) {
        std::fs::create_dir_all(dir).unwrap();
        for (w, _) in WORKLOADS {
            let e2e = format!(
                "output_digest\tabc\tfnv\nsetup_s\t0.1\ts\ntrials_per_s\t{tps}\ttrials/s\nop_latency_p50_ms\t1\tms\n\
                 op_latency_p95_ms\t2\tms\npeak_rss_mb\t10\tMiB\n"
            );
            std::fs::write(dir.join(format!("{w}.trace0.tsv")), e2e).unwrap();
            let layer = format!(
                "output_digest\tabc\tfnv\nexec.dispatches_per_trial\t{dispatches}\tcount\n"
            );
            std::fs::write(dir.join(format!("{w}.trace1.tsv")), layer).unwrap();
        }
    }

    #[test]
    fn agreement_is_judged_against_each_metrics_bound() {
        let base = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-aa-{}", std::process::id()));
        let (a, b, c, d) = (
            base.join("a"),
            base.join("b"),
            base.join("c"),
            base.join("d"),
        );
        write_run(&a, 1000.0, "5");
        write_run(&b, 1010.0, "5");
        write_run(&c, 1200.0, "5");
        write_run(&d, 1000.0, "6");
        let (table, ok) = compare(&[&a, &b]).unwrap();
        assert!(ok, "{table}");
        let (table, ok) = compare(&[&a, &c]).unwrap();
        assert!(!ok && table.contains("DISAGREES"), "{table}");
        let (table, ok) = compare(&[&a, &d]).unwrap();
        assert!(!ok && table.contains("DOES NOT REPEAT"), "{table}");
        assert!(compare(&[&a, &base.join("missing")]).is_err());
        std::fs::remove_dir_all(&base).unwrap();
    }
}
