//! Scheduler activation conditions (§2.2).
//!
//! PsyNeuLink nodes declare conditions describing when they are ready to run
//! — every pass, every N passes, only after another node has run a number of
//! times, and so on. The scheduler consults these each pass (Listing 1 in
//! the paper); the back-and-forth between this logic and node execution is
//! one of the overheads model-wide compilation removes (§6.2).

/// When a mechanism is ready to execute within a trial.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Run in every pass.
    Always,
    /// Run only in passes whose index is a multiple of `n` (0-based: runs in
    /// pass 0, n, 2n, …).
    EveryNPasses(u64),
    /// Run only once another node has executed at least `n` times this
    /// trial.
    AfterNCalls {
        /// Index of the other node in the composition.
        node: usize,
        /// Required number of executions.
        n: u64,
    },
    /// Run only until this node itself has executed `n` times this trial.
    AtMostNCalls(u64),
    /// Never run (used to disable nodes in ablations).
    Never,
}

impl Condition {
    /// Decide readiness given the current pass index, this node's execution
    /// count this trial, and all nodes' execution counts this trial.
    pub fn is_ready(&self, pass: u64, own_calls: u64, all_calls: &[u64]) -> bool {
        match self {
            Condition::Always => true,
            Condition::EveryNPasses(n) => *n != 0 && pass.is_multiple_of(*n),
            Condition::AfterNCalls { node, n } => all_calls.get(*node).copied().unwrap_or(0) >= *n,
            Condition::AtMostNCalls(n) => own_calls < *n,
            Condition::Never => false,
        }
    }
}

/// When a trial is over (the inner `while not end_of_trial` of Listing 1).
#[derive(Debug, Clone, PartialEq)]
pub enum TrialEndSpec {
    /// Stop after a fixed number of passes.
    AfterNPasses(u64),
    /// Stop once the absolute value of element 0 of the given node's output
    /// port reaches `threshold` (evidence-accumulation models), or after
    /// `max_passes` as a safety bound.
    Threshold {
        /// Node whose output is monitored.
        node: usize,
        /// Output port of that node.
        port: usize,
        /// Decision threshold on `|value|`.
        threshold: f64,
        /// Upper bound on passes even if the threshold is never crossed.
        max_passes: u64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_and_never() {
        assert!(Condition::Always.is_ready(0, 0, &[]));
        assert!(Condition::Always.is_ready(10, 5, &[1, 2]));
        assert!(!Condition::Never.is_ready(0, 0, &[]));
    }

    #[test]
    fn every_n_passes() {
        let c = Condition::EveryNPasses(3);
        assert!(c.is_ready(0, 0, &[]));
        assert!(!c.is_ready(1, 0, &[]));
        assert!(!c.is_ready(2, 0, &[]));
        assert!(c.is_ready(3, 0, &[]));
        assert!(!Condition::EveryNPasses(0).is_ready(0, 0, &[]));
    }

    #[test]
    fn after_n_calls_of_other_node() {
        let c = Condition::AfterNCalls { node: 1, n: 2 };
        assert!(!c.is_ready(5, 0, &[9, 1]));
        assert!(c.is_ready(5, 0, &[0, 2]));
        assert!(!c.is_ready(5, 0, &[0]));
    }

    #[test]
    fn at_most_n_calls() {
        let c = Condition::AtMostNCalls(2);
        assert!(c.is_ready(0, 0, &[]));
        assert!(c.is_ready(1, 1, &[]));
        assert!(!c.is_ready(2, 2, &[]));
    }
}
