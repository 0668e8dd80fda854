//! Adaptive mesh refinement over a parameter sub-space (§4.3, Fig. 2).
//!
//! The conventional way to find the best attention allocation in the
//! predator-prey model is to grid-search the parameter (e.g. 100 levels) and
//! run the stochastic model many times per level — hundreds of thousands of
//! runs. The paper instead evaluates the model's cost function over
//! parameter *intervals* using the floating-point VRP of [`crate::vrp`] and
//! repeatedly bisects the most promising interval, homing in on the optimum
//! in a handful of rounds with **zero** model executions.
//!
//! The function under analysis is an IR function `cost(param) -> f64`
//! (usually the grid-search evaluation function extracted by
//! `distill-codegen` and pre-optimized so it is a pure expression of its
//! parameter); stochastic terms appear as PRNG intrinsics whose ranges are
//! handled conservatively by the VRP transfer functions.

use crate::vrp::{analyze_function, Interval, VrpOptions};
use distill_ir::{Function, Terminator};

/// Options controlling the refinement.
#[derive(Debug, Clone, Copy)]
pub struct MeshOptions {
    /// Number of bisection rounds to perform.
    pub rounds: usize,
    /// Stop early when the parameter interval is narrower than this.
    pub min_width: f64,
}

impl Default for MeshOptions {
    fn default() -> Self {
        // The paper reports locating the predator-prey optimum in about 7
        // refinement rounds (Fig. 2).
        MeshOptions {
            rounds: 7,
            min_width: 1e-6,
        }
    }
}

/// One refinement step: the interval considered and the cost range the
/// analysis derived for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshStep {
    /// Parameter interval examined in this step.
    pub param: Interval,
    /// Cost interval derived by VRP for that parameter interval.
    pub cost: Interval,
}

/// Result of an adaptive mesh refinement.
#[derive(Debug, Clone)]
pub struct MeshResult {
    /// The final (narrowest) parameter interval containing the estimated
    /// optimum.
    pub best_param: Interval,
    /// Cost range over the final interval.
    pub best_cost: Interval,
    /// Midpoint of the final interval — the point estimate of the optimal
    /// parameter value.
    pub estimate: f64,
    /// Every interval evaluation performed, in order (two per round).
    pub trace: Vec<MeshStep>,
    /// Number of interval evaluations (compiler analyses) performed.
    pub analysis_evaluations: usize,
}

impl MeshResult {
    /// Number of refinement rounds actually performed.
    pub fn rounds(&self) -> usize {
        self.trace.len() / 2
    }
}

/// Evaluate the cost function's range over a parameter interval using VRP.
///
/// `param_index` selects which function parameter is being refined; the
/// remaining parameters are pinned with `fixed_params` (index, interval)
/// pairs — in the predator-prey example these are the attention levels of
/// the predator and the player, held constant while the prey attention is
/// searched.
pub fn cost_range(
    func: &Function,
    param_index: usize,
    param: Interval,
    fixed_params: &[(usize, Interval)],
) -> Interval {
    let mut opts = VrpOptions::default();
    opts.param_ranges.insert(param_index, param);
    for (i, r) in fixed_params {
        opts.param_ranges.insert(*i, *r);
    }
    let ranges = analyze_function(func, &opts);
    // The cost is the function's return value.
    let mut result = Interval::top();
    for b in func.block_order() {
        if let Some(Terminator::Ret(Some(v))) = &func.block(b).term {
            result = ranges.get(v).copied().unwrap_or_else(Interval::top);
        }
    }
    result
}

/// Adaptively refine `[lo, hi]` for parameter `param_index` of `func`,
/// minimizing the cost returned by the function.
///
/// The search keeps the half-interval whose cost range has the lower upper
/// bound (ties broken towards the lower bound), which is the bisection
/// strategy illustrated in Fig. 2 of the paper.
pub fn refine(
    func: &Function,
    param_index: usize,
    lo: f64,
    hi: f64,
    fixed_params: &[(usize, Interval)],
    opts: MeshOptions,
) -> MeshResult {
    assert!(lo < hi, "refine: empty parameter interval");
    let mut current = Interval::new(lo, hi);
    let mut trace = Vec::new();
    let mut evaluations = 0usize;

    for _ in 0..opts.rounds {
        if current.width() < opts.min_width {
            break;
        }
        let mid = 0.5 * (current.lo + current.hi);
        let left = Interval::new(current.lo, mid);
        let right = Interval::new(mid, current.hi);
        let cl = cost_range(func, param_index, left, fixed_params);
        let cr = cost_range(func, param_index, right, fixed_params);
        evaluations += 2;
        trace.push(MeshStep {
            param: left,
            cost: cl,
        });
        trace.push(MeshStep {
            param: right,
            cost: cr,
        });
        // Prefer the half whose worst case is better; fall back to the
        // better best case when the worst cases tie.
        current = if cl.hi < cr.hi || (cl.hi == cr.hi && cl.lo <= cr.lo) {
            left
        } else {
            right
        };
    }

    let best_cost = cost_range(func, param_index, current, fixed_params);
    evaluations += 1;
    MeshResult {
        best_param: current,
        best_cost,
        estimate: 0.5 * (current.lo + current.hi),
        trace,
        analysis_evaluations: evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distill_ir::{FunctionBuilder, Module, Ty};

    /// Build `cost(a) = (a - 4.6)^2 - 390.0`, a smooth surrogate of the
    /// predator-prey attention cost with its optimum near 4.6 (Fig. 2).
    fn quadratic_cost(optimum: f64, offset: f64) -> (Module, distill_ir::FuncId) {
        let mut m = Module::new("m");
        let fid = m.declare_function("cost", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let a = b.param(0);
            let c = b.const_f64(optimum);
            let d = b.fsub(a, c);
            let sq = b.fmul(d, d);
            let off = b.const_f64(offset);
            let r = b.fadd(sq, off);
            b.ret(Some(r));
        }
        (m, fid)
    }

    #[test]
    fn refinement_converges_to_the_optimum() {
        let (m, fid) = quadratic_cost(4.6, -390.0);
        let result = refine(
            m.function(fid),
            0,
            0.0,
            5.0,
            &[],
            MeshOptions {
                rounds: 12,
                min_width: 1e-9,
            },
        );
        assert!(
            (result.estimate - 4.6).abs() < 0.01,
            "estimate {} should approach 4.6",
            result.estimate
        );
        assert!(result.analysis_evaluations <= 2 * 12 + 1);
    }

    #[test]
    fn seven_rounds_reach_paper_precision() {
        // The paper needs ~7 rounds over [0, 5] to pin the optimum near 4.6;
        // 7 bisections of a width-5 interval give a width of 5/2^7 ≈ 0.04.
        let (m, fid) = quadratic_cost(4.6, -390.0);
        let result = refine(m.function(fid), 0, 0.0, 5.0, &[], MeshOptions::default());
        assert_eq!(result.rounds(), 7);
        assert!(result.best_param.width() <= 5.0 / 128.0 + 1e-12);
        assert!(result.best_param.contains(4.6) || (result.estimate - 4.6).abs() < 0.06);
    }

    #[test]
    fn interval_evaluations_vastly_undercut_grid_runs() {
        // Conventional approach from the paper: 100 attention levels, each
        // run many times (say 1000 samples) = 100_000 model executions. The
        // analysis needs a couple of dozen interval evaluations.
        let (m, fid) = quadratic_cost(4.6, -390.0);
        let result = refine(m.function(fid), 0, 0.0, 5.0, &[], MeshOptions::default());
        let grid_runs = 100 * 1000;
        assert!(result.analysis_evaluations * 1000 < grid_runs);
    }

    #[test]
    fn cost_range_is_sound_for_point_parameters() {
        let (m, fid) = quadratic_cost(2.0, 0.0);
        for a in [0.0, 1.0, 2.0, 3.5, 5.0] {
            let r = cost_range(m.function(fid), 0, Interval::point(a), &[]);
            let exact = (a - 2.0) * (a - 2.0);
            assert!(
                r.contains(exact),
                "range {r} must contain exact cost {exact} at a={a}"
            );
        }
    }

    #[test]
    fn fixed_parameters_are_respected() {
        // cost(a, b) = (a - 1)^2 + b, with b pinned to [2, 2].
        let mut m = Module::new("m");
        let fid = m.declare_function("cost2", vec![Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut bld = FunctionBuilder::new(f);
            let e = bld.create_block("entry");
            bld.switch_to_block(e);
            let a = bld.param(0);
            let b = bld.param(1);
            let one = bld.const_f64(1.0);
            let d = bld.fsub(a, one);
            let sq = bld.fmul(d, d);
            let r = bld.fadd(sq, b);
            bld.ret(Some(r));
        }
        let result = refine(
            m.function(fid),
            0,
            0.0,
            3.0,
            &[(1, Interval::point(2.0))],
            MeshOptions {
                rounds: 10,
                min_width: 1e-9,
            },
        );
        assert!((result.estimate - 1.0).abs() < 0.05);
        // With b = 2 the minimum cost is 2.
        assert!(result
            .best_cost
            .contains(2.0 + (result.estimate - 1.0).powi(2)));
    }
}
