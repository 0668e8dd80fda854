//! Regenerate the paper's figures from the command line.
//!
//! ```text
//! figures                # every figure, reduced workloads (CI-friendly)
//! figures --full         # every figure at paper scale (slow)
//! figures --fig 2        # adaptive mesh refinement (Fig. 2)
//! figures --fig 3        # clone detection (Fig. 3 / §4.4)
//! figures --fig 4        # baseline environments vs Distill (Fig. 4)
//! figures --fig 5a|5b|5c # scaling / per-node / parallel (Fig. 5)
//! figures --fig 6        # GPU register sweep (Fig. 6)
//! figures --fig 7        # compilation cost breakdown (Fig. 7)
//! figures --out DIR      # where JSON reports go (default bench_results/)
//! ```
//!
//! Besides the human-readable tables, every figure is timed and emitted as a
//! JSON record (tagged with `full_scale` so runs at different scales are
//! never compared by accident) — one `FIG-JSON {...}` line on stdout per
//! figure, one `<dir>/figures_<fig>.json` file each, plus a combined
//! `<dir>/figures.json` — so the per-figure timings can be archived and
//! compared across commits. The combined file is only (re)written when all
//! figures ran; a `--fig N` run refreshes just its own file. Unrecognized
//! arguments are rejected (exit 2) rather than silently changing the scale
//! of an archived run.

use criterion::json::Json;
use distill_bench as bench;
use std::path::PathBuf;
use std::time::Instant;

struct Emitter {
    dir: PathBuf,
    /// Paper-scale workloads (`--full`); recorded in every JSON record so
    /// archived timings are never compared across scales by accident.
    full: bool,
    records: Vec<Json>,
}

impl Emitter {
    fn new(dir: PathBuf, full: bool) -> Emitter {
        Emitter {
            dir,
            full,
            records: Vec::new(),
        }
    }

    /// Run a figure that produces several [`bench::Series`].
    fn series_figure(
        &mut self,
        name: &str,
        header: &str,
        run: impl FnOnce() -> Vec<bench::Series>,
    ) {
        self.figure(name, || {
            let series = run();
            let mut text = format!("== {header}\n");
            for s in &series {
                text.push_str(&s.render());
            }
            (text, Json::Arr(series.iter().map(|s| s.to_json()).collect()))
        });
    }

    /// Run one figure, print its rendered form, and record `{figure,
    /// elapsed_s, data}` both on stdout and as a JSON file.
    fn figure(&mut self, name: &str, render_and_data: impl FnOnce() -> (String, Json)) {
        let start = Instant::now();
        let (text, data) = render_and_data();
        let elapsed = start.elapsed().as_secs_f64();
        print!("{text}");
        let record = Json::obj([
            ("figure", name.into()),
            ("full_scale", self.full.into()),
            ("elapsed_s", elapsed.into()),
            ("data", data),
        ]);
        println!("FIG-JSON {record}");
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            eprintln!("warning: cannot create {}: {e}", self.dir.display());
        }
        let path = self.dir.join(format!("figures_{name}.json"));
        if let Err(e) = std::fs::write(&path, format!("{record}\n")) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
        self.records.push(record);
    }

    /// Write the combined report, but only when every figure ran — a
    /// `--fig N` run must not overwrite a previous full archive with a
    /// partial one (the per-figure file is still refreshed). Returns false
    /// when no figure ran at all.
    fn finish(self, all_figures: bool) -> bool {
        if self.records.is_empty() {
            return false;
        }
        if !all_figures {
            println!("JSON report written to {} (single figure: combined figures.json left untouched)", self.dir.display());
            return true;
        }
        let combined = Json::obj([("figures", Json::Arr(self.records))]);
        let path = self.dir.join("figures.json");
        if let Err(e) = std::fs::write(&path, format!("{combined}\n")) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        } else {
            println!("JSON reports written to {}", self.dir.display());
        }
        true
    }
}

fn main() {
    const FIGS: [&str; 8] = ["2", "3", "4", "5a", "5b", "5c", "6", "7"];
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Strict parse: a typo like `--ful` must not silently fall back to the
    // reduced-scale default and get archived as if it were a paper-scale run.
    let mut fig: Option<String> = None;
    let mut full = false;
    let mut out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                match args.get(i) {
                    Some(f) if FIGS.contains(&f.as_str()) => {
                        if let Some(prev) = &fig {
                            if prev != f {
                                eprintln!(
                                    "error: conflicting figure selection '{prev}' vs '{f}'"
                                );
                                std::process::exit(2);
                            }
                        }
                        fig = Some(f.clone());
                    }
                    Some(f) => {
                        eprintln!(
                            "error: unknown figure '{f}' (expected one of {})",
                            FIGS.join(", ")
                        );
                        std::process::exit(2);
                    }
                    None => {
                        eprintln!("error: --fig requires a value");
                        std::process::exit(2);
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(dir) if !dir.is_empty() => out = Some(dir.clone()),
                    _ => {
                        eprintln!("error: --out requires a value");
                        std::process::exit(2);
                    }
                }
            }
            // Reduced workloads are the default so the binary doubles as an
            // offline CI probe; `--full` restores paper scale.
            "--full" => full = true,
            other => {
                eprintln!("error: unrecognized argument '{other}'");
                eprintln!("usage: figures [--fig 2|3|4|5a|5b|5c|6|7] [--full] [--out DIR]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let scale = if full { 1.0 } else { 0.1 };
    // Explicit CLI flag wins over the environment.
    let out_dir = out
        .or_else(|| std::env::var("DISTILL_BENCH_DIR").ok().filter(|d| !d.is_empty()))
        .unwrap_or_else(|| "bench_results".to_string());

    let want = |name: &str| fig.is_none() || fig.as_deref() == Some(name);
    let mut emit = Emitter::new(PathBuf::from(out_dir), full);

    if want("2") {
        emit.figure("fig2", || {
            let r = bench::fig2();
            (r.render(), r.to_json())
        });
    }
    if want("3") {
        emit.figure("fig3", || {
            let r = bench::fig3();
            (r.render(), r.to_json())
        });
    }
    if want("4") {
        emit.series_figure(
            "fig4",
            "Fig 4: model running times per environment (normalized in render)",
            || bench::fig4(scale),
        );
    }
    if want("5a") {
        emit.series_figure("fig5a", "Fig 5a: predator-prey scaling", || bench::fig5a(full));
    }
    if want("5b") {
        emit.figure("fig5b", || {
            let s = bench::fig5b(scale);
            (s.render(), s.to_json())
        });
    }
    if want("5c") {
        emit.figure("fig5c", || {
            let levels = if full { 100 } else { 10 };
            let s = bench::fig5c(levels, distill_sweep::default_threads());
            (s.render(), s.to_json())
        });
    }
    if want("6") {
        emit.figure("fig6", || {
            let r = bench::fig6(if full { 20 } else { 6 });
            (r.render(), r.to_json())
        });
    }
    if want("7") {
        emit.figure("fig7", || {
            let r = bench::fig7(if full { 20 } else { 4 }, 2);
            (r.render(), r.to_json())
        });
    }
    if !emit.finish(fig.is_none()) {
        eprintln!("error: no figure ran");
        std::process::exit(2);
    }
}
