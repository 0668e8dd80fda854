//! The optimizing controller: exhaustive grid search over control-signal
//! allocations (the `Control` node of the predator-prey model, §2.1).
//!
//! Each trial, the controller enumerates the cartesian product of its
//! control signals' allowed levels, evaluates the model under every
//! candidate allocation, scores each one as
//! `cost = -objective + Σ cost_coeff · level`, and commits the allocation
//! with the lowest cost (ties broken uniformly at random with reservoir
//! sampling, §3.3). The number of evaluations is `levels^signals` — 8 for
//! Predator-Prey S and 1,000,000 for XL — and is the workload Distill
//! parallelizes across CPU threads and GPU threads (§3.6).

use distill_pyvm::SplitMix64;

/// One controlled parameter and its allowed levels.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlSignal {
    /// Index of the mechanism whose parameter is controlled.
    pub node: usize,
    /// Name of the controlled (read-only) parameter on that mechanism.
    pub param: String,
    /// Element within the parameter.
    pub index: usize,
    /// Allowed allocation levels (the grid along this dimension).
    pub levels: Vec<f64>,
    /// Linear cost per unit of allocation (the "cost of paying attention").
    pub cost_coeff: f64,
}

/// The grid-search controller attached to a composition.
#[derive(Debug, Clone, PartialEq)]
pub struct Controller {
    /// The control signals (grid dimensions).
    pub signals: Vec<ControlSignal>,
    /// Node whose output port 0, element 0 is the objective to maximize.
    pub objective_node: usize,
    /// Output port of the objective node.
    pub objective_port: usize,
    /// Seed for the per-evaluation PRNG streams (§3.6 reproducibility).
    pub seed: u64,
}

impl Controller {
    /// Total number of grid points (`Π levels_i`).
    pub fn grid_size(&self) -> usize {
        self.signals.iter().map(|s| s.levels.len().max(1)).product()
    }

    /// Decode a flat grid index into one allocation level per signal.
    pub fn allocation(&self, mut index: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.signals.len());
        for s in &self.signals {
            let n = s.levels.len().max(1);
            out.push(s.levels[index % n]);
            index /= n;
        }
        out
    }

    /// The allocation cost term `Σ cost_coeff · level` for an allocation.
    pub fn allocation_cost(&self, allocation: &[f64]) -> f64 {
        self.signals
            .iter()
            .zip(allocation)
            .map(|(s, a)| s.cost_coeff * a)
            .sum()
    }

    /// Combine an objective value with the allocation cost into the scalar
    /// the grid search minimizes.
    pub fn total_cost(&self, objective: f64, allocation: &[f64]) -> f64 {
        -objective + self.allocation_cost(allocation)
    }
}

/// Reservoir-sampling argmin: keeps a single best index while scanning
/// candidate costs, choosing uniformly at random among ties without storing
/// them (§3.3).
///
/// This is the one host-side definition of a grid search's winner: the
/// baseline runner offers each cost as it evaluates it, and the compiled
/// per-node driver folds the cost window that its serial, multicore or GPU
/// grid executor filled, in index order, seeded with `seed ^ trial`. The
/// whole-model trial function carries the same fold in IR. The reservoir
/// starts at index 0, as the IR fold does, so a grid whose costs never
/// compare (all NaN) picks index 0 everywhere.
#[derive(Debug, Clone, Copy)]
pub struct ReservoirArgmin {
    best_cost: f64,
    best_index: usize,
    ties_seen: u64,
    rng: SplitMix64,
}

impl ReservoirArgmin {
    /// Start an empty reservoir with the given tie-breaking seed.
    pub fn new(seed: u64) -> ReservoirArgmin {
        ReservoirArgmin {
            best_cost: f64::INFINITY,
            best_index: 0,
            ties_seen: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Offer a candidate `(index, cost)`.
    pub fn offer(&mut self, index: usize, cost: f64) {
        if cost < self.best_cost {
            self.best_cost = cost;
            self.best_index = index;
            self.ties_seen = 1;
        } else if cost == self.best_cost {
            // k-th tie (1-based, counting the current best as the first) is
            // selected with probability 1/k — uniform over all ties.
            self.ties_seen += 1;
            if self.rng.uniform() < 1.0 / self.ties_seen as f64 {
                self.best_index = index;
            }
        }
    }

    /// The winning index.
    pub fn best_index(&self) -> usize {
        self.best_index
    }

    /// The winning cost.
    pub fn best_cost(&self) -> f64 {
        self.best_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller_2x3() -> Controller {
        Controller {
            signals: vec![
                ControlSignal {
                    node: 0,
                    param: "attention".into(),
                    index: 0,
                    levels: vec![0.0, 1.0],
                    cost_coeff: 0.1,
                },
                ControlSignal {
                    node: 1,
                    param: "attention".into(),
                    index: 0,
                    levels: vec![0.0, 0.5, 1.0],
                    cost_coeff: 0.2,
                },
            ],
            objective_node: 2,
            objective_port: 0,
            seed: 7,
        }
    }

    #[test]
    fn grid_size_and_decoding() {
        let c = controller_2x3();
        assert_eq!(c.grid_size(), 6);
        let all: Vec<Vec<f64>> = (0..6).map(|i| c.allocation(i)).collect();
        // Every allocation is distinct and covers the cartesian product.
        for a in &all {
            assert_eq!(a.len(), 2);
        }
        let distinct: std::collections::HashSet<String> =
            all.iter().map(|a| format!("{a:?}")).collect();
        assert_eq!(distinct.len(), 6);
    }

    #[test]
    fn cost_combines_objective_and_allocation() {
        let c = controller_2x3();
        let alloc = vec![1.0, 0.5];
        assert!((c.allocation_cost(&alloc) - (0.1 + 0.1)).abs() < 1e-12);
        assert!((c.total_cost(2.0, &alloc) - (-2.0 + 0.2)).abs() < 1e-12);
    }

    #[test]
    fn reservoir_argmin_finds_minimum() {
        let mut r = ReservoirArgmin::new(1);
        for (i, c) in [5.0, 3.0, 4.0, 3.5].iter().enumerate() {
            r.offer(i, *c);
        }
        assert_eq!(r.best_index(), 1);
        assert_eq!(r.best_cost(), 3.0);
    }

    #[test]
    fn reservoir_ties_are_roughly_uniform() {
        // 3 tied minima; over many seeds each should win about a third of
        // the time.
        let mut wins = [0usize; 3];
        for seed in 0..3000 {
            let mut r = ReservoirArgmin::new(seed);
            for (i, c) in [1.0, 0.5, 0.5, 2.0, 0.5].iter().enumerate() {
                r.offer(i, *c);
            }
            let w = match r.best_index() {
                1 => 0,
                2 => 1,
                4 => 2,
                other => panic!("non-tied index {other} won"),
            };
            wins[w] += 1;
        }
        for w in wins {
            assert!((700..1300).contains(&w), "tie-breaking is skewed: {wins:?}");
        }
    }
}
