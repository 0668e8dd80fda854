//! The repository's benchmark: eight workloads, five end-to-end metrics and
//! a per-layer cost table, measured from outside through the product crates'
//! public functions. See `README.md` beside this crate for the glossary and
//! the layer → end-to-end map.
//!
//! One process measures one workload in one of two kinds of run:
//!
//! * **measured** (`--trace 0`): telemetry off, no spans; five rounds of
//!   set-up plus a fifth of `--seconds` of timed ops; reports the end-to-end
//!   metrics, each the median over the rounds.
//! * **traced** (`--trace 1`): a quarter of the time with telemetry off,
//!   then the same ops again with telemetry and benchmark-side spans on
//!   (their ratio is the tracing overhead), then the layer replay; reports
//!   the per-layer metrics and writes the trace.
//!
//! Both check a seeded sample of ops against the independent executors in
//! [`oracle`].

pub mod aa;
pub mod inputs;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod spans;
pub mod util;
pub mod workloads;

use json::Json;
use metrics::{Metrics, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::path::PathBuf;
use std::time::Instant;
use workloads::{Timed, WORKLOADS};

/// Rounds of a measured run: each sets up, then times a fifth of the
/// region; every end-to-end metric is the median over rounds.
pub const ROUNDS: u64 = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the report, the flat metrics file and the trace go.
    pub out: PathBuf,
}

/// What one run found; `line` is the result object the command prints last.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` of every metric of this kind of run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub digest: u64,
    pub mismatches: Vec<String>,
    pub notes: Vec<String>,
    pub latency_samples: usize,
}

impl Outcome {
    pub fn line(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, value, unit)| {
            (
                *name,
                Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Ambient overrides that would change what is measured. Removed (and
/// `DISTILL_TELEMETRY` pinned, for worker processes) before any other
/// thread exists.
fn pin_environment(telemetry_on: bool) {
    for var in ["DISTILL_TIER", "DISTILL_CHAOS", "DISTILL_DSWEEP_FAULTS"] {
        std::env::remove_var(var);
    }
    std::env::set_var("DISTILL_TELEMETRY", if telemetry_on { "1" } else { "0" });
    distill_telemetry::set_enabled(telemetry_on);
}

fn p50_ms(t: &Timed) -> f64 {
    util::percentile(&t.latencies_ms, 0.5)
}

/// Run one workload once.
///
/// # Errors
/// An unknown workload, a set-up or layer-measurement failure, or an
/// unwritable output directory, as text. A wrong output is not an error
/// here: it comes back as `correct == false`.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let why = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .map(|(_, why)| *why)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    pin_environment(false);
    let mut w = workloads::make(&args.workload, args.seed).expect("listed workload");
    let mut m = Metrics::default();
    let mut sections: Vec<(String, Json)> = Vec::new();
    let mut tracer = Tracer::new(args.trace);

    let mut timed = Timed::default();
    if args.trace {
        w.setup()?;
        // The same ops twice: telemetry off, then telemetry and spans on.
        let off = w.run(args.seconds / 4.0, 0, &mut Tracer::new(false));
        pin_environment(true);
        distill_telemetry::clear_trace();
        let on = tracer.scope("loadgen", "timed_region", 0, |t| {
            w.run(args.seconds / 4.0, 0, t)
        });
        m.set(
            "telemetry.traced_overhead_ratio",
            p50_ms(&on) / p50_ms(&off),
        );
        timed.absorb(on);
        // Failures of the untraced pass count too; its timings do not.
        timed.attempted += off.attempted;
        timed.failed += off.failed;
        timed.notes.extend(off.notes);
    } else {
        // Every round sets up afresh, then times a fifth of the region. The
        // heap and code layout a set-up happens to produce shifts an
        // interpreter's speed by a few percent for as long as it lives, so
        // each metric is the median over rounds rather than one long region.
        let (mut setup_s, mut rate, mut p50, mut p95) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            let start = Instant::now();
            w.setup()?;
            setup_s.push(start.elapsed().as_secs_f64());
            let r = w.run(args.seconds / ROUNDS as f64, round, &mut tracer);
            rate.push(r.trials as f64 / r.wall_s);
            p50.push(p50_ms(&r));
            p95.push(util::percentile(&r.latencies_ms, 0.95));
            timed.absorb(r);
        }
        m.set("setup_s", util::median(&setup_s));
        m.set("trials_per_s", util::median(&rate));
        m.set("op_latency_p50_ms", util::median(&p50));
        m.set("op_latency_p95_ms", util::median(&p95));
        let per_round = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        sections.push((
            "rounds".into(),
            Json::obj([
                ("setup_s", per_round(&setup_s)),
                ("trials_per_s", per_round(&rate)),
                ("op_latency_p50_ms", per_round(&p50)),
                ("op_latency_p95_ms", per_round(&p95)),
            ]),
        ));
    }
    let mismatches = w.verify(&timed);

    if args.trace {
        sections.extend(w.layers(&mut tracer, &mut m)?);
        m.set(
            "loadgen.output_digest_lo32",
            (timed.digest.0 & 0xffff_ffff) as f64,
        );
    } else {
        m.set("peak_rss_mb", util::peak_rss_mb());
    }

    let names: Vec<(&'static str, &'static str)> = if args.trace {
        PER_LAYER.iter().map(|d| (d.name, d.unit)).collect()
    } else {
        END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
    };
    let metrics = names
        .into_iter()
        .map(|(name, unit)| (name, m.get(name), unit))
        .collect();
    let outcome = Outcome {
        correct: mismatches.is_empty(),
        attempted: timed.attempted,
        failed: timed.failed + mismatches.len() as u64,
        metrics,
        digest: timed.digest.0,
        mismatches,
        notes: timed.notes.clone(),
        latency_samples: timed.latencies_ms.len(),
    };
    write_outputs(args, why, &timed, &outcome, sections, &tracer)?;
    Ok(outcome)
}

fn write_outputs(
    args: &Args,
    why: &str,
    timed: &Timed,
    outcome: &Outcome,
    sections: Vec<(String, Json)>,
    tracer: &Tracer,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("writing under {}: {e}", args.out.display());
    std::fs::create_dir_all(&args.out).map_err(io)?;
    let kind = u8::from(args.trace);
    let stem = format!("{}.trace{kind}", args.workload);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut report = vec![
        ("workload".to_string(), Json::str(&args.workload)),
        ("why".to_string(), Json::str(why)),
        ("seed".to_string(), Json::Int(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("nproc".to_string(), Json::Int(nproc as u64)),
        ("correct".to_string(), Json::Bool(outcome.correct)),
        ("attempted".to_string(), Json::Int(outcome.attempted)),
        ("failed".to_string(), Json::Int(outcome.failed)),
        ("trials".to_string(), Json::Int(timed.trials)),
        ("wall_s".to_string(), Json::Num(timed.wall_s)),
        (
            "latency_samples".to_string(),
            Json::Int(outcome.latency_samples as u64),
        ),
        (
            "output_digest".to_string(),
            Json::Str(format!("{:016x}", outcome.digest)),
        ),
        ("output_digest_ops".to_string(), Json::Int(timed.digest_ops)),
        (
            "ops_checked".to_string(),
            Json::Int(timed.samples.len() as u64),
        ),
        (
            "mismatches".to_string(),
            Json::Arr(outcome.mismatches.iter().map(Json::str).collect()),
        ),
        (
            "failures".to_string(),
            Json::Arr(outcome.notes.iter().map(Json::str).collect()),
        ),
        (
            "metrics".to_string(),
            Json::obj(outcome.metrics.iter().map(|(name, value, unit)| {
                let mut fields = vec![("value", Json::Num(*value)), ("unit", Json::str(*unit))];
                if let Some(d) = PER_LAYER.iter().find(|d| d.name == *name) {
                    fields.push(("layer", Json::str(d.layer)));
                    fields.push(("moves", Json::str(d.moves)));
                    fields.push(("on", Json::str(d.on)));
                }
                (*name, Json::obj(fields))
            })),
        ),
    ];
    report.extend(sections);
    std::fs::write(
        args.out.join(format!("{stem}.json")),
        format!("{}\n", Json::Obj(report)),
    )
    .map_err(io)?;

    let mut tsv = format!("output_digest\t{:016x}\tfnv\n", outcome.digest);
    for (name, value, unit) in &outcome.metrics {
        tsv.push_str(&format!("{name}\t{value}\t{unit}\n"));
    }
    std::fs::write(args.out.join(format!("{stem}.tsv")), tsv).map_err(io)?;

    if args.trace {
        let path = args.out.join(format!("trace_{}.json", args.workload));
        std::fs::write(path, format!("{}\n", tracer.chrome_trace())).map_err(io)?;
        // The product's own spans (telemetry ring), for the same run.
        distill_telemetry::write_chrome_trace(
            args.out.join(format!("telemetry_{}.json", args.workload)),
        )
        .map_err(io)?;
    }
    Ok(())
}

/// The human-readable part of a run's output: every metric by name with its
/// unit, and the sample counts behind the percentiles.
pub fn describe(args: &Args, o: &Outcome) -> String {
    let mut s = format!(
        "{} seed={} seconds={} trace={}: {} ops attempted, {} failed, {} latency samples, output_digest={:016x}\n",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        o.attempted,
        o.failed,
        o.latency_samples,
        o.digest
    );
    for (name, value, unit) in &o.metrics {
        s.push_str(&format!("  {name:<40} {value:>18.6} {unit}\n"));
    }
    for line in o.mismatches.iter().chain(&o.notes) {
        s.push_str(&format!("  !! {line}\n"));
    }
    s
}
