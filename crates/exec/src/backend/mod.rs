//! Pluggable execution tiers.
//!
//! The engine runs the same module at four specialization levels, each one a
//! [`ExecTier`] implementation over its own prepared form of the code:
//!
//! | tier                      | prepared form                    | dispatch            | role               |
//! |---------------------------|----------------------------------|---------------------|--------------------|
//! | [`Tier::Reference`]       | the IR itself                    | IR walk             | oracle             |
//! | [`Tier::Decoded`]         | predecoded arrays                | `match` interpreter | benchmark rung     |
//! | [`Tier::Fused`]           | predecoded + superinstructions   | `match` interpreter | benchmark rung     |
//! | [`Tier::Threaded`]        | per-block `(handler, op)` arrays | indirect call       | production default |
//!
//! Which tier a call runs on is a [`TierPolicy`]: `Fixed(tier)` pins every
//! function; the default is `Fixed(Tier::Threaded)`. All tiers are pinned
//! bit-identical to the reference oracle by the registry-driven
//! differential suites.
//!
//! # Adding a tier
//!
//! 1. Define a prepared-code type and a tier struct owning it behind `Arc`
//!    (clones of the engine share prepared code; only mutable state is
//!    copied). Build it in a `prepare` constructor — tiers may build on each
//!    other's forms, e.g. [`ThreadedTier`] threads the fused stream.
//! 2. Implement [`ExecTier`]: `call` executes one function against the
//!    mutable [`EngineCtx`] (memory, statistics, frame pool) and must match
//!    the reference tier bit-for-bit on verifier-clean IR; `code_stats`
//!    reports the static shape of the prepared code.
//! 3. Add a [`Tier`] variant, store the tier struct in `Engine`, route it in
//!    `Engine::call_tier`, and extend the `DISTILL_TIER` parser.
//! 4. Register the differentials: the workload-registry suites in
//!    `tests/interp_differential.rs` iterate every tier, so a new variant is
//!    picked up by adding it to `ALL_TIERS` there.
//!
//! The seam is deliberately wide enough for a native template-JIT tier: its
//! `prepare` would emit machine code per block and `call` would jump into it,
//! with the same `EngineCtx` contract for memory and statistics.

pub mod interp;
pub mod reference;
pub mod threaded;

use crate::decode::DecodedFunction;
use crate::engine::{EngineCtx, ExecError, Value};
use crate::fuse::FuseSummary;
use distill_ir::{FuncId, Module};
use std::fmt;
use std::sync::Arc;

pub use threaded::ThreadedFunction;

/// One execution tier, in increasing order of specialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The retained IR-walking interpreter — the behavioural oracle.
    Reference,
    /// The predecoded interpreter core (flat per-block arrays, pooled
    /// frames).
    Decoded,
    /// The predecoded form after superinstruction fusion and frame
    /// compaction.
    Fused,
    /// Direct-threaded dispatch over the fused stream: per-block arrays of
    /// `(handler fn-pointer, packed operands)`, one indirect call per op.
    /// The production tier ([`TierPolicy::default`]).
    Threaded,
}

impl Tier {
    /// The tier's registry/JSON label (also the `DISTILL_TIER` spelling).
    pub fn label(&self) -> &'static str {
        match self {
            Tier::Reference => "reference",
            Tier::Decoded => "decoded",
            Tier::Fused => "fused",
            Tier::Threaded => "threaded",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How the engine picks a tier per call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPolicy {
    /// Every function runs on the given tier.
    Fixed(Tier),
}

impl TierPolicy {
    /// Interpret a `DISTILL_TIER` environment value as an explicit policy
    /// request. Accepts the four tier spellings (any casing). Empty and
    /// unrecognized values count as unset, so a typo degrades to the default
    /// rather than silently changing semantics per call site. Returns `None`
    /// when the value requests nothing.
    pub fn from_env_values(tier: Option<&str>) -> Option<TierPolicy> {
        match tier?.trim().to_ascii_lowercase().as_str() {
            "reference" => Some(TierPolicy::Fixed(Tier::Reference)),
            "decoded" => Some(TierPolicy::Fixed(Tier::Decoded)),
            "fused" => Some(TierPolicy::Fixed(Tier::Fused)),
            "threaded" => Some(TierPolicy::Fixed(Tier::Threaded)),
            _ => None,
        }
    }

    /// Read [`TierPolicy::from_env_values`] from the process environment.
    pub fn from_env() -> Option<TierPolicy> {
        TierPolicy::from_env_values(std::env::var("DISTILL_TIER").ok().as_deref())
    }

    /// Whether this policy needs the fusion pass to run at engine
    /// construction (everything above the decoded tier executes the fused
    /// stream).
    pub(crate) fn wants_fusion(&self) -> bool {
        !matches!(
            self,
            TierPolicy::Fixed(Tier::Reference) | TierPolicy::Fixed(Tier::Decoded)
        )
    }
}

impl fmt::Display for TierPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let TierPolicy::Fixed(t) = self;
        f.write_str(t.label())
    }
}

impl Default for TierPolicy {
    /// The direct-threaded tier: the fastest tier on every benchmark
    /// workload and bit-identical to the reference oracle.
    fn default() -> TierPolicy {
        TierPolicy::Fixed(Tier::Threaded)
    }
}

/// Static shape of a tier's prepared code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCodeStats {
    /// Functions with a prepared body.
    pub functions: usize,
    /// Static instructions across all prepared bodies.
    pub static_ops: u64,
    /// Register-frame slots across all prepared bodies.
    pub frame_slots: u64,
}

/// One execution tier: prepared code plus the dispatch loop that runs it.
///
/// `call` executes a function against the engine's mutable state; every
/// implementation must be bit-identical to [`ReferenceTier`] on
/// verifier-clean IR (enforced by the differential suites). `prepare` builds
/// the tier's prepared form standalone; the engine itself chains the
/// construction (decode → fuse → thread) so tiers share intermediate forms.
pub trait ExecTier {
    /// The tier's stable label (matches [`Tier::label`]).
    fn name(&self) -> &'static str;

    /// Execute `func` with `args` against `ctx`, drawing from `fuel`.
    ///
    /// # Errors
    /// [`ExecError`] on type errors, memory violations, division by zero,
    /// depth or fuel exhaustion.
    fn call(
        &self,
        ctx: &mut EngineCtx,
        func: FuncId,
        args: &[Value],
        fuel: &mut u64,
    ) -> Result<Value, ExecError>;

    /// Static shape of the prepared code.
    fn code_stats(&self) -> TierCodeStats;

    /// Build the tier's prepared code for a module from scratch.
    fn prepare(module: Arc<Module>, global_base: &[usize]) -> Self
    where
        Self: Sized;
}

/// [`Tier::Reference`]: the retained IR-walking oracle.
#[derive(Debug, Clone)]
pub struct ReferenceTier {
    pub(crate) module: Arc<Module>,
}

impl ExecTier for ReferenceTier {
    fn name(&self) -> &'static str {
        Tier::Reference.label()
    }

    fn call(
        &self,
        ctx: &mut EngineCtx,
        func: FuncId,
        args: &[Value],
        fuel: &mut u64,
    ) -> Result<Value, ExecError> {
        reference::call_in(ctx, &self.module, func, args, fuel, 0)
    }

    fn code_stats(&self) -> TierCodeStats {
        let mut stats = TierCodeStats::default();
        for f in &self.module.functions {
            if f.is_declaration {
                continue;
            }
            stats.functions += 1;
            stats.frame_slots += f.values.len() as u64;
            stats.static_ops += f
                .layout
                .iter()
                .map(|b| f.block(*b).insts.len() as u64)
                .sum::<u64>();
        }
        stats
    }

    fn prepare(module: Arc<Module>, _global_base: &[usize]) -> ReferenceTier {
        ReferenceTier { module }
    }
}

fn decoded_code_stats(code: &[DecodedFunction]) -> TierCodeStats {
    let mut stats = TierCodeStats::default();
    for f in code.iter().filter(|f| f.entry.is_some()) {
        stats.functions += 1;
        stats.frame_slots += f.num_values as u64;
        stats.static_ops += f.blocks.iter().map(|b| b.code.len() as u64).sum::<u64>();
    }
    stats
}

/// [`Tier::Decoded`]: the predecoded interpreter core.
#[derive(Debug, Clone)]
pub struct DecodedTier {
    pub(crate) code: Arc<Vec<DecodedFunction>>,
}

impl ExecTier for DecodedTier {
    fn name(&self) -> &'static str {
        Tier::Decoded.label()
    }

    fn call(
        &self,
        ctx: &mut EngineCtx,
        func: FuncId,
        args: &[Value],
        fuel: &mut u64,
    ) -> Result<Value, ExecError> {
        interp::call_in(ctx, &self.code, func.index(), args, fuel, 0)
    }

    fn code_stats(&self) -> TierCodeStats {
        decoded_code_stats(&self.code)
    }

    fn prepare(module: Arc<Module>, global_base: &[usize]) -> DecodedTier {
        DecodedTier {
            code: Arc::new(crate::decode::decode_module(&module, global_base)),
        }
    }
}

/// [`Tier::Fused`]: the superinstruction stream, same dispatch loop as
/// [`DecodedTier`].
#[derive(Debug, Clone)]
pub struct FusedTier {
    pub(crate) code: Arc<Vec<DecodedFunction>>,
    pub(crate) summary: FuseSummary,
}

impl ExecTier for FusedTier {
    fn name(&self) -> &'static str {
        Tier::Fused.label()
    }

    fn call(
        &self,
        ctx: &mut EngineCtx,
        func: FuncId,
        args: &[Value],
        fuel: &mut u64,
    ) -> Result<Value, ExecError> {
        interp::call_in(ctx, &self.code, func.index(), args, fuel, 0)
    }

    fn code_stats(&self) -> TierCodeStats {
        decoded_code_stats(&self.code)
    }

    fn prepare(module: Arc<Module>, global_base: &[usize]) -> FusedTier {
        let decoded = crate::decode::decode_module(&module, global_base);
        let (fused, summary) = crate::fuse::fuse_module(&decoded);
        FusedTier {
            code: Arc::new(fused),
            summary,
        }
    }
}

/// [`Tier::Threaded`]: direct-threaded dispatch over the fused stream.
#[derive(Debug, Clone)]
pub struct ThreadedTier {
    pub(crate) code: Arc<Vec<ThreadedFunction>>,
}

impl ExecTier for ThreadedTier {
    fn name(&self) -> &'static str {
        Tier::Threaded.label()
    }

    fn call(
        &self,
        ctx: &mut EngineCtx,
        func: FuncId,
        args: &[Value],
        fuel: &mut u64,
    ) -> Result<Value, ExecError> {
        threaded::call_in(ctx, &self.code, func.index(), args, fuel, 0)
    }

    fn code_stats(&self) -> TierCodeStats {
        let mut stats = TierCodeStats::default();
        for f in self.code.iter().filter(|f| f.entry.is_some()) {
            stats.functions += 1;
            stats.frame_slots += f.num_values as u64;
            stats.static_ops += f.blocks.iter().map(|b| b.code.len() as u64).sum::<u64>();
        }
        stats
    }

    fn prepare(module: Arc<Module>, global_base: &[usize]) -> ThreadedTier {
        let fused = FusedTier::prepare(module, global_base);
        ThreadedTier {
            code: Arc::new(threaded::thread_module(&fused.code)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_env_values_parse_to_fixed_policies() {
        for (spelling, tier) in [
            ("reference", Tier::Reference),
            ("decoded", Tier::Decoded),
            ("fused", Tier::Fused),
            ("threaded", Tier::Threaded),
            ("THREADED", Tier::Threaded),
            (" fused ", Tier::Fused),
        ] {
            assert_eq!(
                TierPolicy::from_env_values(Some(spelling)),
                Some(TierPolicy::Fixed(tier)),
                "{spelling}"
            );
        }
    }

    #[test]
    fn unset_empty_and_unknown_tier_values_request_nothing() {
        assert_eq!(TierPolicy::from_env_values(None), None);
        assert_eq!(TierPolicy::from_env_values(Some("")), None);
        assert_eq!(TierPolicy::from_env_values(Some("bogus")), None);
        // The retired profile-guided spelling is unknown like any other.
        assert_eq!(TierPolicy::from_env_values(Some("adaptive")), None);
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(TierPolicy::Fixed(Tier::Threaded).to_string(), "threaded");
        assert_eq!(TierPolicy::default(), TierPolicy::Fixed(Tier::Threaded));
    }
}
