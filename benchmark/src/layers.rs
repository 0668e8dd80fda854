//! Layer replay: redo an opaque call (`Session::build`, `Runner::run`)
//! through the layers' public functions, one span per call, so its time can
//! be attributed to the crate that spends it.
//!
//! A replay has two parts. The *chain* re-does the opaque call step by step
//! and produces the same artifact, engine and outputs, so its total can be
//! compared with the opaque call's (`core.attributed_frac`). The *detail*
//! re-measures pieces that only run nested inside a chain step (sanitize and
//! verify inside `compile`, decode/fuse/thread inside `Engine::with_config`)
//! and moves that much time from the enclosing layer to the owning one.
//! Whatever the opaque call spends beyond the chain is `core`'s own time
//! (spec validation, result allocation, stats snapshots), so the rows of a
//! [`LayerTable`] sum to the opaque wall clock.

use crate::json::Json;
use crate::spans::Tracer;
use crate::util::median;
use distill::{
    compile, global_names as gn, CompileConfig, CompiledModel, Composition, Engine, EngineStats,
    ExecConfig, OptLevel, RunResult, RunSpec, Runner, Session, Tier, TierPolicy, TrialInput, Value,
};
use distill_exec::backend::{ExecTier, ThreadedTier};
use distill_exec::decode::decode_module;
use distill_exec::fuse::fuse_module;
use distill_ir::verify::verify_module;
use distill_opt::{PassManager, PassStats};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Self time per layer over a set of replayed ops, beside the opaque calls'
/// own wall clock.
#[derive(Debug, Default, Clone)]
pub struct LayerTable {
    pub ops: u64,
    pub opaque_ns: u64,
    by_layer: BTreeMap<&'static str, i64>,
}

impl LayerTable {
    pub fn add(&mut self, layer: &'static str, ns: i64) {
        *self.by_layer.entry(layer).or_insert(0) += ns;
    }

    fn attributed_ns(&self) -> i64 {
        self.by_layer.values().sum()
    }

    /// Σ replay self-times ÷ opaque call time; 0 before any op was replayed.
    pub fn attributed_frac(&self) -> f64 {
        if self.opaque_ns == 0 {
            return 0.0;
        }
        self.attributed_ns() as f64 / self.opaque_ns as f64
    }

    /// Rows (layer → self ns) that sum to `wall_ns`: `core` is what the
    /// opaque calls spent beyond the replayed chain.
    pub fn to_json(&self) -> Json {
        let core = self.opaque_ns as i64 - self.attributed_ns();
        let mut rows: Vec<(String, Json)> = self
            .by_layer
            .iter()
            .map(|(l, ns)| ((*l).to_string(), Json::Num(*ns as f64)))
            .collect();
        rows.push(("core".into(), Json::Num(core as f64)));
        Json::obj([
            ("replayed_ops", Json::Int(self.ops)),
            ("wall_ns", Json::Int(self.opaque_ns)),
            ("self_ns", Json::Obj(rows)),
            ("attributed_frac", Json::Num(self.attributed_frac())),
        ])
    }
}

/// Base slot of every global, as `Engine::with_config` lays memory out.
fn global_bases(module: &distill_ir::Module) -> Vec<usize> {
    let mut next = 0;
    module
        .globals
        .iter()
        .map(|g| {
            let base = next;
            next += g.init.len();
            base
        })
        .collect()
}

/// One replayed `Session::build`.
#[derive(Debug)]
pub struct BuildReplay {
    pub sanitize_ns: u64,
    /// `compile(m, O0)` minus the sanitize and the two verifier runs inside it.
    pub lower_ns: u64,
    pub verify_ns: u64,
    pub opt_ns: u64,
    pub decode_ns: u64,
    pub fuse_ns: u64,
    /// `ThreadedTier::prepare` minus decode and fuse (`thread_module` itself
    /// is crate-private).
    pub thread_ns: u64,
    /// `Engine::with_config` minus decode, fuse and thread.
    pub engine_new_ns: u64,
    pub insts_emitted: u64,
    pub insts_after: u64,
    pub pass: PassStats,
    pub compiled: CompiledModel,
    pub engine: Engine,
}

/// Replay `Session::new(model).compile_config(config).build()`.
///
/// # Errors
/// A compile or verifier failure, as text.
pub fn replay_build(
    t: &mut Tracer,
    op: u64,
    model: &Composition,
    config: CompileConfig,
    table: &mut LayerTable,
) -> Result<BuildReplay, String> {
    let o0 = CompileConfig {
        opt_level: OptLevel::O0,
        ..config
    };
    let chain = t.scope("loadgen", "replay", op, |t| -> Result<_, String> {
        let (compiled, compile_ns) = t.call("codegen", "compile(O0)", op, || compile(model, o0));
        let mut compiled = compiled.map_err(|e| e.to_string())?;
        let unoptimised = compiled.module.clone();
        let (pass, opt_ns) = t.call("opt", "PassManager::run", op, || {
            PassManager::new(config.opt_level).run(&mut compiled.module)
        });
        let (verified, verify_ns) = t.call("ir", "verify_module", op, || {
            verify_module(&compiled.module)
        });
        verified.map_err(|e| e.to_string())?;
        compiled.opt_stats = pass;
        compiled.config = config;
        let (engine, engine_ns) = t.call("exec", "Engine::with_config", op, || {
            Engine::with_config(
                compiled.module.clone(),
                ExecConfig {
                    policy: config.tier,
                },
            )
        });
        Ok((
            compiled,
            unoptimised,
            engine,
            pass,
            compile_ns,
            opt_ns,
            verify_ns,
            engine_ns,
        ))
    })?;
    let (compiled, unoptimised, engine, pass, compile_ns, opt_ns, verify_ns, engine_ns) = chain;

    let detail = t.scope("loadgen", "replay.detail", op, |t| {
        let (_, sanitize_ns) = t.call("cogmodel", "Composition::sanitize", op, || model.sanitize());
        let (_, verify_o0_ns) = t.call("ir", "verify_module(O0)", op, || {
            verify_module(&unoptimised)
        });
        let bases = global_bases(&compiled.module);
        let (decoded, decode_ns) = t.call("exec", "decode_module", op, || {
            decode_module(&compiled.module, &bases)
        });
        let (_, fuse_ns) = t.call("exec", "fuse_module", op, || fuse_module(&decoded));
        let module = Arc::new(compiled.module.clone());
        let (_, prepare_ns) = t.call("exec", "ThreadedTier::prepare", op, || {
            ThreadedTier::prepare(module, &bases)
        });
        (sanitize_ns, verify_o0_ns, decode_ns, fuse_ns, prepare_ns)
    });
    let (sanitize_ns, verify_o0_ns, decode_ns, fuse_ns, prepare_ns) = detail;

    // `compile(O0)` verifies the unoptimised module twice (before and after
    // its empty pipeline); the opaque build verifies it once, then the
    // optimised module once.
    let lower_ns = compile_ns.saturating_sub(sanitize_ns + 2 * verify_o0_ns);
    let thread_ns = prepare_ns.saturating_sub(decode_ns + fuse_ns);
    table.add("cogmodel", sanitize_ns as i64);
    table.add("codegen", lower_ns as i64);
    table.add("ir", (verify_o0_ns + verify_ns) as i64);
    table.add("opt", opt_ns as i64);
    table.add("exec", engine_ns as i64);
    Ok(BuildReplay {
        sanitize_ns,
        lower_ns,
        verify_ns,
        opt_ns,
        decode_ns,
        fuse_ns,
        thread_ns,
        engine_new_ns: engine_ns.saturating_sub(decode_ns + fuse_ns + thread_ns),
        insts_emitted: unoptimised.inst_count() as u64,
        insts_after: compiled.module.inst_count() as u64,
        pass,
        compiled,
        engine,
    })
}

/// Totals over replayed `Runner::run` calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunAgg {
    pub ops: u64,
    pub trials: u64,
    pub batched_trials: u64,
    pub flatten_ns: u64,
    pub stage_ns: u64,
    pub write_ns: u64,
    pub call_ns: u64,
    pub read_ns: u64,
    pub stats: EngineStats,
}

/// Replay `runner.run(spec)` on a replayed build's artifact and engine
/// (serially; a sharded spec runs the same chunks on one engine). Returns the outputs and pass counts, which
/// must equal the opaque call's bit for bit.
///
/// # Errors
/// An engine failure, as text.
pub fn replay_run(
    t: &mut Tracer,
    op: u64,
    model: &Composition,
    built: &mut BuildReplay,
    spec: &RunSpec,
    agg: &mut RunAgg,
    table: &mut LayerTable,
) -> Result<(Vec<Vec<f64>>, Vec<u64>), String> {
    let (compiled, engine) = (&built.compiled, &mut built.engine);
    let layout = &compiled.layout;
    let trial_fn = compiled
        .trial_func
        .ok_or("artifact has no whole-model entry point")?;
    let batch_fn = if spec.batch > 1 && compiled.batch_capacity > 0 {
        compiled.batch_func
    } else {
        None
    };
    let chunk = match batch_fn {
        Some(_) => spec.batch.min(compiled.batch_capacity),
        None => spec.batch,
    }
    .max(1);
    let out_len = layout.trial_output_len;
    let before = engine.stats();
    let mut local = RunAgg::default();
    let mut outs = Vec::with_capacity(spec.trials);
    let mut passes = Vec::with_capacity(spec.trials);
    t.scope("loadgen", "replay", op, |t| -> Result<(), String> {
        let (flats, ns) = t.call(
            "codegen",
            "Layout::flatten_input",
            op,
            || -> Vec<Vec<f64>> {
                spec.inputs
                    .iter()
                    .map(|i| layout.flatten_input(&model.input_nodes, i))
                    .collect()
            },
        );
        local.flatten_ns += ns;
        let mut done = 0;
        while done < spec.trials {
            let n = chunk.min(spec.trials - done);
            let lo = spec.offset + done;
            if let Some(bf) = batch_fn {
                if layout.ext_len > 0 {
                    let (staging, ns) = t.call("codegen", "Layout::stage_batch", op, || {
                        layout.stage_batch(&flats, lo, n)
                    });
                    local.stage_ns += ns;
                    let (w, ns) = t.call("exec", "Engine::write_global_f64", op, || {
                        engine.write_global_f64(gn::BATCH_EXT, &staging)
                    });
                    local.write_ns += ns;
                    w.map_err(|e| e.to_string())?;
                }
                let (c, ns) = t.call("exec", "Engine::call", op, || {
                    engine.call(bf, &[Value::I64(lo as i64), Value::I64(n as i64)])
                });
                local.call_ns += ns;
                c.map_err(|e| e.to_string())?;
                let (r, ns) = t.call("exec", "Engine::read_global_f64_prefix", op, || {
                    let o = engine.read_global_f64_prefix(gn::BATCH_OUT, n * out_len)?;
                    let p = engine.read_global_f64_prefix(gn::BATCH_PASSES, n)?;
                    Ok::<_, distill::ExecError>((o, p))
                });
                local.read_ns += ns;
                let (o, p) = r.map_err(|e| e.to_string())?;
                for k in 0..n {
                    outs.push(o[k * out_len..(k + 1) * out_len].to_vec());
                    passes.push(p[k] as u64);
                }
                local.batched_trials += n as u64;
            } else {
                for trial in lo..lo + n {
                    let (w, ns) = t.call("exec", "Engine::write_global_f64", op, || {
                        engine.write_global_f64(gn::EXT_INPUT, &flats[trial % flats.len()])
                    });
                    local.write_ns += ns;
                    w.map_err(|e| e.to_string())?;
                    let (c, ns) = t.call("exec", "Engine::call", op, || {
                        engine.call(trial_fn, &[Value::I64(trial as i64)])
                    });
                    local.call_ns += ns;
                    c.map_err(|e| e.to_string())?;
                    let (r, ns) = t.call("exec", "Engine::read_global_f64", op, || {
                        let o = engine.read_global_f64(gn::TRIAL_OUTPUT)?;
                        let p = engine.read_global_i64(gn::PASSES, 0)?;
                        Ok::<_, distill::ExecError>((o, p))
                    });
                    local.read_ns += ns;
                    let (o, p) = r.map_err(|e| e.to_string())?;
                    outs.push(o[..out_len].to_vec());
                    passes.push(p as u64);
                }
            }
            done += n;
        }
        Ok(())
    })?;
    table.add("codegen", (local.flatten_ns + local.stage_ns) as i64);
    table.add(
        "exec",
        (local.write_ns + local.call_ns + local.read_ns) as i64,
    );
    agg.ops += 1;
    agg.trials += spec.trials as u64;
    agg.batched_trials += local.batched_trials;
    agg.flatten_ns += local.flatten_ns;
    agg.stage_ns += local.stage_ns;
    agg.write_ns += local.write_ns;
    agg.call_ns += local.call_ns;
    agg.read_ns += local.read_ns;
    agg.stats.add(&engine.stats_since(&before));
    Ok((outs, passes))
}

/// Whether a replay reproduced the opaque call bit for bit.
pub fn same_bits(r: &RunResult, outputs: &[Vec<f64>], passes: &[u64]) -> bool {
    r.passes == passes && crate::oracle::bits_equal(&r.outputs, outputs)
}

pub fn time_ns<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_nanos() as u64)
}

fn median_ns(reps: usize, mut f: impl FnMut() -> u64) -> f64 {
    median(&(0..reps).map(|_| f() as f64).collect::<Vec<_>>())
}

fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn run_ns(runner: &mut dyn Runner, spec: &RunSpec) -> Result<u64, String> {
    let (r, ns) = time_ns(|| runner.run(spec));
    r.map(|_| ns).map_err(|e| e.to_string())
}

/// ns per trial on each tier (reference, decoded, fused, threaded), set
/// through `CompileConfig.tier`; the mean over the given models.
pub fn tier_ladder(models: &[(&Composition, &[TrialInput])]) -> Result<[f64; 4], String> {
    const TRIALS: usize = 2;
    let mut ladder = [0.0; 4];
    for (slot, tier) in [Tier::Reference, Tier::Decoded, Tier::Fused, Tier::Threaded]
        .into_iter()
        .enumerate()
    {
        let mut per_model = Vec::new();
        for (model, inputs) in models {
            let config = CompileConfig {
                tier: TierPolicy::Fixed(tier),
                ..CompileConfig::default()
            };
            let mut runner = Session::new(model)
                .compile_config(config)
                .build()
                .map_err(|e| e.to_string())?;
            let spec = RunSpec::new(inputs.to_vec(), TRIALS);
            run_ns(runner.as_mut(), &spec)?;
            per_model.push(run_ns(runner.as_mut(), &spec)? as f64 / TRIALS as f64);
        }
        ladder[slot] = per_model.iter().sum::<f64>() / per_model.len().max(1) as f64;
    }
    Ok(ladder)
}

/// Unbatched ÷ `with_batch(64)` time of the same 64 trials; the geometric
/// mean over the given runners (> 1 means batching pays).
pub fn batch_vs_unbatched(
    runners: &mut [(Box<dyn Runner>, Vec<TrialInput>)],
) -> Result<f64, String> {
    let mut ratios = Vec::new();
    for (runner, inputs) in runners.iter_mut() {
        let plain = RunSpec::new(inputs.clone(), 64);
        let batched = plain.clone().with_batch(64);
        let mut t = [Vec::new(), Vec::new()];
        for _ in 0..3 {
            t[0].push(run_ns(runner.as_mut(), &plain)? as f64);
            t[1].push(run_ns(runner.as_mut(), &batched)? as f64);
        }
        ratios.push(median(&t[0]) / median(&t[1]));
    }
    Ok(geomean(&ratios))
}

/// `serialize_artifact` / `deserialize_artifact` time (medians) and size.
pub fn artifact_codec(compiled: &CompiledModel) -> Result<(f64, f64, u64), String> {
    let bytes = distill::serialize_artifact(compiled);
    distill::deserialize_artifact(&bytes).map_err(|e| e.to_string())?;
    let ser = median_ns(5, || time_ns(|| distill::serialize_artifact(compiled)).1);
    let de = median_ns(5, || time_ns(|| distill::deserialize_artifact(&bytes)).1);
    Ok((ser, de, bytes.len() as u64))
}

/// Median time of freezing the telemetry registry.
pub fn telemetry_snapshot_ns() -> f64 {
    median_ns(20, || time_ns(distill_telemetry::snapshot).1)
}

/// `Engine::clone` (median) and `ChunkQueue::grab` (mean over a drained
/// queue), the sharded runner's per-worker and per-chunk fixed costs.
pub fn shard_fixed_costs(engine: &Engine) -> (f64, f64) {
    let clone_ns = median_ns(50, || time_ns(|| engine.clone()).1);
    const GRABS: usize = 100_000;
    let queue = distill::ChunkQueue::new(GRABS, 1);
    let (_, ns) = time_ns(|| {
        while let Some(r) = queue.grab() {
            std::hint::black_box(r);
        }
    });
    (clone_ns, ns as f64 / GRABS as f64)
}

/// One family's row of the compiled-vs-baseline comparison.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    pub family: String,
    pub baseline_ns_per_trial: f64,
    pub compiled_ns_per_trial: f64,
}

/// Compiled ÷ baseline speed on the same ops: a row per family and the
/// geometric mean of the ratios.
pub fn speedup_vs_baseline(
    models: &[(&str, &Composition, &[TrialInput])],
) -> Result<(Vec<SpeedupRow>, f64), String> {
    const TRIALS: usize = 4;
    let mut rows = Vec::new();
    for (name, model, inputs) in models {
        let spec = RunSpec::new(inputs.to_vec(), TRIALS);
        let mut base = Session::new(model)
            .target(distill::Target::Baseline(distill::ExecMode::CPython))
            .build()
            .map_err(|e| e.to_string())?;
        let mut comp = Session::new(model).build().map_err(|e| e.to_string())?;
        let mut ns = [Vec::new(), Vec::new()];
        for _ in 0..3 {
            ns[0].push(run_ns(base.as_mut(), &spec)? as f64 / TRIALS as f64);
            ns[1].push(run_ns(comp.as_mut(), &spec)? as f64 / TRIALS as f64);
        }
        rows.push(SpeedupRow {
            family: (*name).to_string(),
            baseline_ns_per_trial: median(&ns[0]),
            compiled_ns_per_trial: median(&ns[1]),
        });
    }
    let ratios: Vec<f64> = rows
        .iter()
        .map(|r| r.baseline_ns_per_trial / r.compiled_ns_per_trial)
        .collect();
    let g = geomean(&ratios);
    Ok((rows, g))
}

/// A workload's families as the layer measurements need them.
pub struct LayerFamily<'a> {
    pub name: &'a str,
    pub model: &'a Composition,
    pub inputs: &'a [TrialInput],
}

impl<'a> LayerFamily<'a> {
    /// Views of `families` on their generated inputs, or (`registered`) on
    /// the registry's own, which is what `serve` and `dsweep` run.
    pub fn of(families: &'a [crate::inputs::Family], registered: bool) -> Vec<LayerFamily<'a>> {
        families
            .iter()
            .map(|f| LayerFamily {
                name: f.name,
                model: &f.model,
                inputs: if registered { &f.registered } else { &f.inputs },
            })
            .collect()
    }
}

/// The per-layer numbers every compiled workload reports, measured on its
/// own families and a fixed sample of its own ops.
///
/// `ops` are replayed against a default-config runner (opaque call first,
/// then the chain; outputs must agree bit for bit) and enter the table.
/// Builds enter the table only at `table_levels` (the `cold_build` workload,
/// whose ops *are* builds); elsewhere a build happens once, in set-up.
///
/// # Errors
/// Any build, run or bit-identity failure, as text.
pub fn compiled_layers(
    t: &mut Tracer,
    families: &[LayerFamily<'_>],
    ops: &[(usize, RunSpec)],
    table_levels: &[OptLevel],
    m: &mut crate::metrics::Metrics,
) -> Result<LayerTable, String> {
    let mut table = LayerTable::default();
    let mut scratch = LayerTable::default();
    let n = families.len().max(1) as f64;
    let mut replays = Vec::new();
    let mut opaque = Vec::new();
    let mut op_id = 1_000_000u64;
    let mut sum = BTreeMap::<&'static str, f64>::new();
    let mut bump = |k: &'static str, v: f64| *sum.entry(k).or_insert(0.0) += v;
    for f in families {
        for level in [OptLevel::O0, OptLevel::O2, OptLevel::O3] {
            let in_table = table_levels.contains(&level);
            if level == OptLevel::O0 && !in_table {
                continue;
            }
            op_id += 1;
            let config = CompileConfig {
                opt_level: level,
                ..CompileConfig::default()
            };
            let (runner, build_ns) =
                time_ns(|| Session::new(f.model).compile_config(config).build());
            let mut runner = runner.map_err(|e| e.to_string())?;
            let first = RunSpec::new(f.inputs.to_vec(), 1);
            let (want, first_ns) = time_ns(|| runner.run(&first));
            let want = want.map_err(|e| e.to_string())?;
            let tbl = if in_table { &mut table } else { &mut scratch };
            let mut b = replay_build(t, op_id, f.model, config, tbl)?;
            let mut agg = RunAgg::default();
            let (o, p) = replay_run(t, op_id, f.model, &mut b, &first, &mut agg, tbl)?;
            if !same_bits(&want, &o, &p) {
                return Err(format!(
                    "{}: replayed {level} build differs from Session::build",
                    f.name
                ));
            }
            if in_table {
                table.ops += 1;
                table.opaque_ns += build_ns + first_ns;
            }
            match level {
                OptLevel::O2 => {
                    bump("cogmodel.sanitize_ns", b.sanitize_ns as f64 / n);
                    bump("codegen.lower_ns", b.lower_ns as f64 / n);
                    bump("codegen.insts_emitted", b.insts_emitted as f64);
                    bump("ir.verify_ns", b.verify_ns as f64 / n);
                    bump("opt.O2.pipeline_ns", b.opt_ns as f64 / n);
                    bump("opt.O2.insts_after", b.insts_after as f64);
                    bump("opt.O2.changes.mem2reg", b.pass.promoted_allocas as f64);
                    bump("opt.O2.changes.fold", b.pass.folded as f64);
                    bump("opt.O2.changes.dce", b.pass.dce_removed as f64);
                    bump("opt.O2.changes.cse", b.pass.cse_removed as f64);
                    bump("opt.O2.changes.cfg", b.pass.cfg_simplified as f64);
                    bump("opt.O2.changes.licm", b.pass.licm_hoisted as f64);
                    bump("opt.O2.changes.inline", b.pass.inlined_calls as f64);
                    bump("exec.decode_ns", b.decode_ns as f64 / n);
                    bump("exec.fuse_ns", b.fuse_ns as f64 / n);
                    bump("exec.thread_ns", b.thread_ns as f64 / n);
                    bump("exec.engine_new_ns", b.engine_new_ns as f64 / n);
                    bump(
                        "exec.static_ops.decoded",
                        b.engine.tier_code_stats(Tier::Decoded).static_ops as f64,
                    );
                    bump(
                        "exec.static_ops.fused",
                        b.engine.tier_code_stats(Tier::Fused).static_ops as f64,
                    );
                    bump(
                        "exec.static_ops.threaded",
                        b.engine.tier_code_stats(Tier::Threaded).static_ops as f64,
                    );
                    bump(
                        "exec.frame_slots",
                        b.engine.tier_code_stats(Tier::Fused).frame_slots as f64,
                    );
                    bump("core.build_ns", build_ns as f64 / n);
                    let (ser, de, bytes) = artifact_codec(&b.compiled)?;
                    bump("core.artifact.serialize_ns", ser / n);
                    bump("core.artifact.deserialize_ns", de / n);
                    bump("core.artifact.bytes", bytes as f64);
                    replays.push(b);
                    opaque.push(runner);
                }
                OptLevel::O3 => {
                    bump("opt.O3.pipeline_ns", b.opt_ns as f64 / n);
                    bump("opt.O3.insts_after", b.insts_after as f64);
                }
                _ => {}
            }
        }
    }

    let mut agg = RunAgg::default();
    for (i, (fam, spec)) in ops.iter().enumerate() {
        let f = &families[*fam];
        let (want, ns) = time_ns(|| opaque[*fam].run(spec));
        let want = want.map_err(|e| e.to_string())?;
        let (o, p) = replay_run(
            t,
            i as u64 + 1,
            f.model,
            &mut replays[*fam],
            spec,
            &mut agg,
            &mut table,
        )?;
        if !same_bits(&want, &o, &p) {
            return Err(format!(
                "{}: replayed run of op {i} differs from Runner::run",
                f.name
            ));
        }
        table.ops += 1;
        table.opaque_ns += ns;
    }
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    m.set(
        "codegen.flatten_input_ns_per_op",
        per(agg.flatten_ns, agg.ops),
    );
    m.set(
        "codegen.stage_batch_ns_per_trial",
        per(agg.stage_ns, agg.batched_trials),
    );
    m.set(
        "exec.write_global_ns_per_trial",
        per(agg.write_ns, agg.trials),
    );
    m.set(
        "exec.read_global_ns_per_trial",
        per(agg.read_ns, agg.trials),
    );
    m.set("exec.call_ns_per_trial", per(agg.call_ns, agg.trials));
    m.set(
        "exec.dispatches_per_trial",
        per(agg.stats.instructions, agg.trials),
    );
    m.set(
        "exec.fused_op_rate",
        per(agg.stats.fused_ops, agg.stats.instructions),
    );
    m.set(
        "exec.ns_per_dispatch",
        per(agg.call_ns, agg.stats.instructions),
    );
    m.set(
        "exec.frame_pool_hit_rate",
        per(agg.stats.frame_pool_hits, agg.stats.calls),
    );

    // Fixed cost of one `run`: a 1-trial call minus the engine call inside
    // it, on the cheapest family (a few microseconds cannot be resolved
    // under a millisecond-long call).
    if !families.is_empty() {
        let mut per_family = Vec::new();
        for (fam, f) in families.iter().enumerate() {
            let one = RunSpec::new(f.inputs.to_vec(), 1);
            let (mut fixed, mut call) = (Vec::new(), Vec::new());
            for _ in 0..30 {
                let (r, ns) = time_ns(|| opaque[fam].run(&one));
                r.map_err(|e| e.to_string())?;
                let mut a = RunAgg::default();
                replay_run(
                    &mut Tracer::new(false),
                    0,
                    f.model,
                    &mut replays[fam],
                    &one,
                    &mut a,
                    &mut scratch,
                )?;
                fixed.push(ns as f64 - a.call_ns as f64);
                call.push(a.call_ns as f64);
            }
            per_family.push((median(&call), median(&fixed)));
        }
        per_family.sort_by(|a, b| a.0.total_cmp(&b.0));
        m.set("core.run_fixed_ns", per_family[0].1);
    }

    let mut runners: Vec<(Box<dyn Runner>, Vec<TrialInput>)> = opaque
        .into_iter()
        .zip(families)
        .map(|(r, f)| (r, f.inputs.to_vec()))
        .collect();
    m.set(
        "core.batch_vs_unbatched_ratio",
        batch_vs_unbatched(&mut runners)?,
    );
    let models: Vec<(&Composition, &[TrialInput])> =
        families.iter().map(|f| (f.model, f.inputs)).collect();
    let ladder = tier_ladder(&models)?;
    m.set("exec.tier_ns_per_trial.reference", ladder[0]);
    m.set("exec.tier_ns_per_trial.decoded", ladder[1]);
    m.set("exec.tier_ns_per_trial.fused", ladder[2]);
    m.set("exec.tier_ns_per_trial.threaded", ladder[3]);
    m.set("telemetry.snapshot_ns", telemetry_snapshot_ns());
    for (k, v) in sum {
        m.set(k, v);
    }
    m.set("core.attributed_frac", table.attributed_frac());
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Family;

    /// Layer replay is bit-identical to `Runner::run` for every family the
    /// workloads use, batched and unbatched, at an offset.
    #[test]
    fn replay_reproduces_runner_run_for_every_workload_family() {
        let mut t = Tracer::new(true);
        for spec in distill_models::registry::registry() {
            let f = Family::new(spec.name, 5);
            let mut table = LayerTable::default();
            let mut agg = RunAgg::default();
            let mut b =
                replay_build(&mut t, 1, &f.model, CompileConfig::default(), &mut table).unwrap();
            let mut opaque = Session::new(&f.model).build().unwrap();
            assert_eq!(
                b.insts_after,
                opaque.compiled().unwrap().module.inst_count() as u64,
                "{}",
                f.name
            );
            for rs in [
                RunSpec::new(f.inputs.clone(), 3).with_offset(41),
                RunSpec::new(f.inputs.clone(), 70).with_batch(64),
                RunSpec::new(f.inputs.clone(), 9)
                    .with_batch(4)
                    .with_shards(2)
                    .with_offset(1000),
            ] {
                let want = opaque.run(&rs).unwrap();
                let (outs, passes) =
                    replay_run(&mut t, 2, &f.model, &mut b, &rs, &mut agg, &mut table).unwrap();
                assert!(
                    same_bits(&want, &outs, &passes),
                    "{} {:?}",
                    f.name,
                    (rs.trials, rs.batch, rs.shards)
                );
            }
            assert_eq!(agg.ops, 3);
            assert_eq!(agg.trials, 82);
            assert_eq!(agg.batched_trials, 79);
            assert!(agg.stats.instructions > 0 && agg.call_ns > 0);
        }
        assert!(t
            .spans()
            .iter()
            .any(|s| s.name == "Engine::call" && s.parent.is_some()));
    }

    #[test]
    fn layer_table_rows_sum_to_the_opaque_wall_clock() {
        let mut table = LayerTable {
            opaque_ns: 1_000,
            ops: 1,
            ..LayerTable::default()
        };
        table.add("exec", 700);
        table.add("codegen", 200);
        assert!((table.attributed_frac() - 0.9).abs() < 1e-12);
        let json = table.to_json().to_string();
        assert!(json.contains("\"core\": 100"), "{json}");
    }
}
