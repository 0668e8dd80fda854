//! The IR execution engine.
//!
//! Memory is a flat vector of scalar slots. Globals are materialized at
//! engine construction in declaration order; `alloca` slots live in a stack
//! region that grows past the globals and is truncated when the allocating
//! frame returns. Addresses are slot indices carried in [`Value::Ptr`].
//!
//! # Execution tiers
//!
//! The engine prepares every module at four specialization levels and picks
//! one per call according to its [`TierPolicy`] (see [`crate::backend`] for
//! the tier architecture): the retained IR-walking reference oracle, the
//! predecoded interpreter (see [`crate::decode`]), the fused
//! superinstruction stream (see [`crate::fuse`]), and direct-threaded
//! dispatch over the fused stream — the default. The per-tier entry points
//! ([`Engine::call_reference`], [`Engine::call_decoded`],
//! [`Engine::call_fused`], [`Engine::call_threaded`]) bypass the policy for
//! A/B measurement and differential testing.
//!
//! The mutable state a call runs against — memory image, statistics, the
//! register-frame pool — lives in [`EngineCtx`], which every tier borrows
//! while its immutable prepared code is shared behind `Arc`.
//!
//! The engine is `Clone`: the multicore backend gives every worker thread
//! its own copy, which is the "thread-local copy of the read-write
//! parameter structure and node outputs" strategy of §3.6. Clones share the
//! immutable module and every tier's prepared code behind `Arc` — only the
//! mutable memory image is copied, so spawning a worker is cheap.

use crate::backend::{
    DecodedTier, ExecTier, FusedTier, ReferenceTier, ThreadedTier, Tier, TierCodeStats, TierPolicy,
};
use crate::decode::decode_module;
use crate::fuse::{fuse_module, FuseSummary};
use distill_ir::{Constant, FuncId, GlobalId, Module};
use std::fmt;
use std::sync::Arc;

/// A runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 64-bit float.
    F64(f64),
    /// 64-bit integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
    /// Pointer (slot index into engine memory).
    Ptr(usize),
    /// The unit value of `Void`-typed instructions.
    Unit,
}

impl Value {
    /// View as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::I64(v) => Some(*v as f64),
            Value::Bool(b) => Some(*b as i64 as f64),
            _ => None,
        }
    }

    /// View as `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// View as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Execution failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A value had the wrong runtime type for an operation.
    Type(String),
    /// A memory access fell outside the allocated slots.
    OutOfBounds {
        /// Offending slot address.
        addr: usize,
        /// Memory size at the time.
        size: usize,
    },
    /// An undefined (uninitialized) value was read.
    Undef(String),
    /// Integer division by zero.
    DivisionByZero,
    /// The instruction budget was exhausted (guards against non-terminating
    /// generated code in tests).
    FuelExhausted,
    /// The called function is only a declaration.
    MissingBody(String),
    /// A global was looked up by a name the module does not declare.
    UnknownGlobal(String),
    /// The call stack exceeded the engine's depth limit.
    DepthExceeded,
    /// A parallel worker thread panicked; the unwind was caught at `join`
    /// and surfaced as this error instead of tearing down the driver.
    WorkerPanicked(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Type(m) => write!(f, "type error: {m}"),
            ExecError::OutOfBounds { addr, size } => {
                write!(
                    f,
                    "memory access at slot {addr} out of bounds (size {size})"
                )
            }
            ExecError::Undef(m) => write!(f, "undefined value read: {m}"),
            ExecError::DivisionByZero => write!(f, "integer division by zero"),
            ExecError::FuelExhausted => write!(f, "instruction budget exhausted"),
            ExecError::MissingBody(n) => write!(f, "function {n} has no body"),
            ExecError::UnknownGlobal(n) => write!(f, "unknown global {n}"),
            ExecError::DepthExceeded => write!(f, "call depth exceeded"),
            ExecError::WorkerPanicked(m) => write!(f, "worker thread panicked: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One memory slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Slot {
    F64(f64),
    I64(i64),
    Bool(bool),
    Uninit,
}

/// Statistics accumulated while executing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instruction dispatches executed. On the fused path a superinstruction
    /// counts once, so the same work reports fewer dispatches than on the
    /// decoded path — [`EngineStats::fused_ops`] says how many of them were
    /// superinstructions.
    pub instructions: u64,
    /// Function calls made.
    pub calls: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Register frames served from the reuse pool instead of a fresh
    /// allocation (predecoded path only; the first call per depth misses).
    pub frame_pool_hits: u64,
    /// Work-stealing chunk grabs beyond each worker's first, accumulated by
    /// drivers that run parallel grid searches from this engine (see
    /// [`Engine::record_steals`] and `ParallelResult::steals`).
    pub steals: u64,
    /// Fused superinstructions executed (absolute loads/stores, GEP+memory
    /// pairs, load/store-fused arithmetic, fused compare-and-branch
    /// terminators). `fused_ops / instructions` is the dynamic fusion rate.
    pub fused_ops: u64,
    /// Cumulative register-frame slots acquired across calls; comparing the
    /// fused and decoded paths shows how much the liveness compaction in
    /// [`crate::fuse`] shrank the pooled frames.
    pub frame_slots: u64,
}

impl EngineStats {
    /// Field-wise accumulate `other` into `self` — the one definition of
    /// the counter fold, shared by [`Engine::absorb_stats`] and every
    /// driver that reduces worker-thread counter deltas.
    pub fn add(&mut self, other: &EngineStats) {
        self.instructions += other.instructions;
        self.calls += other.calls;
        self.loads += other.loads;
        self.stores += other.stores;
        self.frame_pool_hits += other.frame_pool_hits;
        self.steals += other.steals;
        self.fused_ops += other.fused_ops;
        self.frame_slots += other.frame_slots;
    }
}

/// A call frame: one register per SSA value of the function.
pub(crate) type Frame = Vec<Option<Value>>;

/// Construction-time knobs of the engine's execution pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Which tier [`Engine::call`] dispatches to (see [`TierPolicy`]).
    pub policy: TierPolicy,
}

impl ExecConfig {
    /// Pin every call to one tier.
    pub fn fixed(tier: Tier) -> ExecConfig {
        ExecConfig {
            policy: TierPolicy::Fixed(tier),
        }
    }
}

impl Default for ExecConfig {
    /// The `DISTILL_TIER` environment override when set, otherwise the
    /// threaded tier ([`TierPolicy::default`]) — so any tier can be
    /// A/B-measured without touching a call site.
    fn default() -> ExecConfig {
        ExecConfig {
            policy: TierPolicy::from_env().unwrap_or_default(),
        }
    }
}

/// The mutable state a call executes against: the flat memory image, the
/// statistics counters, and the register-frame pool. Every [`ExecTier`]
/// borrows this exclusively for the duration of a call while its prepared
/// code stays shared and immutable.
#[derive(Debug)]
pub struct EngineCtx {
    pub(crate) memory: Vec<Slot>,
    pub(crate) global_base: Vec<usize>,
    /// First slot past the globals; the stack region starts here.
    pub(crate) stack_base: usize,
    pub(crate) stats: EngineStats,
    pub(crate) frame_pool: Vec<Frame>,
    pub(crate) phi_scratch: Vec<Value>,
}

/// Cap on pooled frames kept for reuse; deeper recursion falls back to
/// fresh allocations rather than hoarding memory.
const FRAME_POOL_CAP: usize = 64;

impl EngineCtx {
    pub(crate) fn acquire_frame(&mut self, num_values: usize) -> Frame {
        self.stats.frame_slots += num_values as u64;
        match self.frame_pool.pop() {
            Some(mut frame) => {
                self.stats.frame_pool_hits += 1;
                frame.clear();
                frame.resize(num_values, None);
                frame
            }
            None => vec![None; num_values],
        }
    }

    pub(crate) fn release_frame(&mut self, frame: Frame) {
        if self.frame_pool.len() < FRAME_POOL_CAP {
            self.frame_pool.push(frame);
        }
    }

    /// Pop a returning frame's allocas (never below the global region).
    pub(crate) fn truncate_stack(&mut self, frame_base: usize) {
        self.memory.truncate(frame_base.max(self.stack_base));
    }

    /// Push `slots` uninitialized stack slots; returns their base address.
    pub(crate) fn alloca(&mut self, slots: usize) -> usize {
        let addr = self.memory.len();
        for _ in 0..slots {
            self.memory.push(Slot::Uninit);
        }
        addr
    }

    pub(crate) fn load_slot(&self, addr: usize) -> Result<Value, ExecError> {
        match self.memory.get(addr) {
            Some(Slot::F64(v)) => Ok(Value::F64(*v)),
            Some(Slot::I64(v)) => Ok(Value::I64(*v)),
            Some(Slot::Bool(b)) => Ok(Value::Bool(*b)),
            Some(Slot::Uninit) => Err(ExecError::Undef(format!("slot {addr}"))),
            None => Err(ExecError::OutOfBounds {
                addr,
                size: self.memory.len(),
            }),
        }
    }

    pub(crate) fn store_slot(&mut self, addr: usize, value: Value) -> Result<(), ExecError> {
        let size = self.memory.len();
        let slot = self
            .memory
            .get_mut(addr)
            .ok_or(ExecError::OutOfBounds { addr, size })?;
        *slot = match value {
            Value::F64(v) => Slot::F64(v),
            Value::I64(v) => Slot::I64(v),
            Value::Bool(b) => Slot::Bool(b),
            Value::Ptr(p) => Slot::I64(p as i64),
            Value::Unit => return Err(ExecError::Type("storing unit value".into())),
        };
        Ok(())
    }
}

/// The execution engine: a module prepared at every tier plus its
/// materialized memory.
#[derive(Debug)]
pub struct Engine {
    module: Arc<Module>,
    reference: ReferenceTier,
    pub(crate) decoded: DecodedTier,
    pub(crate) fused: FusedTier,
    pub(crate) threaded: ThreadedTier,
    policy: TierPolicy,
    fuse_enabled: bool,
    pub(crate) ctx: EngineCtx,
    /// Maximum instructions per top-level `call` (default: effectively
    /// unlimited). Tests lower it to catch runaway loops.
    pub fuel_limit: u64,
}

impl Clone for Engine {
    /// Clone the mutable memory image; the module and every tier's prepared
    /// code are shared (immutable after construction), so worker threads can
    /// be spawned without re-lowering or copying any code.
    fn clone(&self) -> Engine {
        Engine {
            module: Arc::clone(&self.module),
            reference: self.reference.clone(),
            decoded: self.decoded.clone(),
            fused: self.fused.clone(),
            threaded: self.threaded.clone(),
            policy: self.policy,
            fuse_enabled: self.fuse_enabled,
            ctx: EngineCtx {
                memory: self.ctx.memory.clone(),
                global_base: self.ctx.global_base.clone(),
                stack_base: self.ctx.stack_base,
                stats: self.ctx.stats,
                frame_pool: Vec::new(),
                phi_scratch: Vec::new(),
            },
            fuel_limit: self.fuel_limit,
        }
    }
}

impl Engine {
    /// Materialize an engine for a module with the default [`ExecConfig`]
    /// (the threaded tier unless `DISTILL_TIER` requests otherwise): lay out
    /// the globals and lower every function to each tier's prepared form
    /// (once; the code is shared by every [`Clone`] of the engine).
    pub fn new(module: Module) -> Engine {
        Engine::with_config(module, ExecConfig::default())
    }

    /// Materialize an engine with an explicit tier policy.
    pub fn with_config(module: Module, config: ExecConfig) -> Engine {
        let mut memory = Vec::new();
        let mut global_base = Vec::with_capacity(module.globals.len());
        for g in &module.globals {
            global_base.push(memory.len());
            for c in &g.init {
                memory.push(match c {
                    Constant::F64(v) => Slot::F64(*v),
                    Constant::F32(v) => Slot::F64(*v as f64),
                    Constant::I64(v) => Slot::I64(*v),
                    Constant::Bool(b) => Slot::Bool(*b),
                    Constant::Undef => Slot::Uninit,
                });
            }
        }
        let stack_base = memory.len();
        // Build the tier pipeline once, sharing intermediates: decode, then
        // fuse (unless the policy pins a pre-fusion tier), then thread the
        // fused stream. Threading is O(static ops), so it is always built
        // eagerly and per-tier entry points work under any policy.
        let decoded_code = Arc::new(decode_module(&module, &global_base));
        let fuse_enabled = config.policy.wants_fusion();
        let (fused_code, fuse_summary) = if fuse_enabled {
            let (fused, summary) = fuse_module(&decoded_code);
            (Arc::new(fused), summary)
        } else {
            // The fused tier aliases the decoded form; nothing was fused.
            (Arc::clone(&decoded_code), FuseSummary::default())
        };
        let threaded_code = Arc::new(crate::backend::threaded::thread_module(&fused_code));
        let module = Arc::new(module);
        Engine {
            reference: ReferenceTier {
                module: Arc::clone(&module),
            },
            decoded: DecodedTier { code: decoded_code },
            fused: FusedTier {
                code: fused_code,
                summary: fuse_summary,
            },
            threaded: ThreadedTier {
                code: threaded_code,
            },
            module,
            policy: config.policy,
            fuse_enabled,
            ctx: EngineCtx {
                memory,
                global_base,
                stack_base,
                stats: EngineStats::default(),
                frame_pool: Vec::new(),
                phi_scratch: Vec::new(),
            },
            fuel_limit: u64::MAX,
        }
    }

    /// The module being executed.
    pub fn module(&self) -> &Module {
        &self.module
    }

    /// The tier policy [`Engine::call`] dispatches under.
    pub fn tier_policy(&self) -> TierPolicy {
        self.policy
    }

    /// Whether the fusion pass ran at construction (true for every policy
    /// that can execute the fused stream).
    pub fn fuse_enabled(&self) -> bool {
        self.fuse_enabled
    }

    /// Static accounting of the construction-time fusion pass (zeroed when
    /// fusion is disabled).
    pub fn fuse_summary(&self) -> FuseSummary {
        self.fused.summary
    }

    /// Static shape of a tier's prepared code.
    pub fn tier_code_stats(&self, tier: Tier) -> TierCodeStats {
        match tier {
            Tier::Reference => self.reference.code_stats(),
            Tier::Decoded => self.decoded.code_stats(),
            Tier::Fused => self.fused.code_stats(),
            Tier::Threaded => self.threaded.code_stats(),
        }
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.ctx.stats
    }

    /// Reset statistics.
    pub fn reset_stats(&mut self) {
        self.ctx.stats = EngineStats::default();
    }

    /// Fold a worker engine's counters into this engine's statistics.
    /// Sharded drivers run chunks on engine clones whose stats would die
    /// with their thread; absorbing them keeps the template engine's
    /// [`EngineStats`] a faithful account of all work done on its behalf.
    pub fn absorb_stats(&mut self, other: &EngineStats) {
        self.ctx.stats.add(other);
    }

    /// The counters accumulated since `base` (a snapshot of this engine's
    /// earlier [`Engine::stats`]). The inverse of [`Engine::absorb_stats`]:
    /// workers snapshot at spawn, run, and hand the delta back — keeping the
    /// field-by-field bookkeeping in one place next to the fold.
    pub fn stats_since(&self, base: &EngineStats) -> EngineStats {
        let s = &self.ctx.stats;
        EngineStats {
            instructions: s.instructions - base.instructions,
            calls: s.calls - base.calls,
            loads: s.loads - base.loads,
            stores: s.stores - base.stores,
            frame_pool_hits: s.frame_pool_hits - base.frame_pool_hits,
            steals: s.steals - base.steals,
            fused_ops: s.fused_ops - base.fused_ops,
            frame_slots: s.frame_slots - base.frame_slots,
        }
    }

    /// Fold work-stealing chunk grabs into [`EngineStats::steals`]. Worker
    /// engines are dropped when their thread finishes, so the driver that
    /// owns the template engine records the scheduler's aggregate here
    /// after each parallel grid search.
    pub fn record_steals(&mut self, n: u64) {
        self.ctx.stats.steals += n;
    }

    /// Base slot address of a global.
    pub fn global_addr(&self, id: GlobalId) -> usize {
        self.ctx.global_base[id.index()]
    }

    /// The full memory image as `(tag, bits)` pairs (tags: 0 = f64, 1 = i64,
    /// 2 = bool, 3 = uninitialized). Intended for differential tests that
    /// assert two engines reached bit-identical states.
    pub fn memory_bits(&self) -> Vec<(u8, u64)> {
        self.ctx
            .memory
            .iter()
            .map(|s| match s {
                Slot::F64(v) => (0u8, v.to_bits()),
                Slot::I64(v) => (1u8, *v as u64),
                Slot::Bool(b) => (2u8, *b as u64),
                Slot::Uninit => (3u8, 0),
            })
            .collect()
    }

    fn global_id(&self, name: &str) -> Result<GlobalId, ExecError> {
        self.module
            .global_by_name(name)
            .ok_or_else(|| ExecError::UnknownGlobal(name.to_string()))
    }

    /// Read a global's slots as `f64` values.
    ///
    /// # Errors
    /// [`ExecError::UnknownGlobal`] if the global name is unknown.
    pub fn read_global_f64(&self, name: &str) -> Result<Vec<f64>, ExecError> {
        let id = self.global_id(name)?;
        let len = self.module.global(id).ty.slot_count();
        self.read_global_f64_prefix(name, len)
    }

    /// Read only the first `len` slots of a global as `f64` values — the
    /// cheap path for partially-filled staging buffers (e.g. a batch chunk
    /// smaller than the staging capacity).
    ///
    /// # Errors
    /// [`ExecError::UnknownGlobal`] if the global name is unknown.
    ///
    /// # Panics
    /// Panics if `len` exceeds the global's size (a driver contract
    /// violation, not a runtime condition).
    pub fn read_global_f64_prefix(&self, name: &str, len: usize) -> Result<Vec<f64>, ExecError> {
        let id = self.global_id(name)?;
        let base = self.ctx.global_base[id.index()];
        assert!(
            len <= self.module.global(id).ty.slot_count(),
            "prefix of {len} slots exceeds global {name}"
        );
        Ok(self.ctx.memory[base..base + len]
            .iter()
            .map(|s| match s {
                Slot::F64(v) => *v,
                Slot::I64(v) => *v as f64,
                Slot::Bool(b) => *b as i64 as f64,
                Slot::Uninit => f64::NAN,
            })
            .collect())
    }

    /// Overwrite a global's slots with `f64` values (shorter inputs leave the
    /// remaining slots untouched).
    ///
    /// # Errors
    /// [`ExecError::UnknownGlobal`] if the global name is unknown;
    /// [`ExecError::OutOfBounds`] if `values` is longer than the global —
    /// writing past a global's extent would silently corrupt its neighbour.
    pub fn write_global_f64(&mut self, name: &str, values: &[f64]) -> Result<(), ExecError> {
        let id = self.global_id(name)?;
        let size = self.module.global(id).ty.slot_count();
        if values.len() > size {
            return Err(ExecError::OutOfBounds {
                addr: values.len(),
                size,
            });
        }
        let base = self.ctx.global_base[id.index()];
        for (i, v) in values.iter().enumerate() {
            self.ctx.memory[base + i] = Slot::F64(*v);
        }
        Ok(())
    }

    /// Write a single `i64` slot of a global.
    ///
    /// # Errors
    /// [`ExecError::UnknownGlobal`] if the global name is unknown;
    /// [`ExecError::OutOfBounds`] if `index` is outside the global.
    pub fn write_global_i64(
        &mut self,
        name: &str,
        index: usize,
        value: i64,
    ) -> Result<(), ExecError> {
        let id = self.global_id(name)?;
        let size = self.module.global(id).ty.slot_count();
        if index >= size {
            return Err(ExecError::OutOfBounds { addr: index, size });
        }
        let base = self.ctx.global_base[id.index()];
        self.ctx.memory[base + index] = Slot::I64(value);
        Ok(())
    }

    /// Read a single `i64` slot of a global.
    ///
    /// # Errors
    /// [`ExecError::UnknownGlobal`] if the global name is unknown;
    /// [`ExecError::OutOfBounds`] if `index` is outside the global;
    /// [`ExecError::Undef`] if the slot is uninitialized.
    pub fn read_global_i64(&self, name: &str, index: usize) -> Result<i64, ExecError> {
        let id = self.global_id(name)?;
        let size = self.module.global(id).ty.slot_count();
        if index >= size {
            return Err(ExecError::OutOfBounds { addr: index, size });
        }
        let base = self.ctx.global_base[id.index()];
        match self.ctx.memory[base + index] {
            Slot::I64(v) => Ok(v),
            Slot::F64(v) => Ok(v as i64),
            Slot::Bool(b) => Ok(b as i64),
            Slot::Uninit => Err(ExecError::Undef(format!("global {name}[{index}]"))),
        }
    }

    // -----------------------------------------------------------------------
    // Tier dispatch
    // -----------------------------------------------------------------------

    /// Call a function by id with the given arguments, on the tier the
    /// engine's [`TierPolicy`] selects.
    ///
    /// # Errors
    /// Returns [`ExecError`] on type errors, memory violations, division by
    /// zero, depth or fuel exhaustion.
    pub fn call(&mut self, func: FuncId, args: &[Value]) -> Result<Value, ExecError> {
        let TierPolicy::Fixed(tier) = self.policy;
        self.call_tier(tier, func, args)
    }

    /// Call a function on an explicit tier, bypassing the policy. The
    /// per-tier convenience wrappers below delegate here.
    ///
    /// # Errors
    /// Same surface as [`Engine::call`].
    pub fn call_tier(
        &mut self,
        tier: Tier,
        func: FuncId,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        // Telemetry probes once per dispatch, never per instruction: a
        // latency sample plus the stats delta mirrored into the global
        // registry. Off means one relaxed load and the untaken branch.
        if !distill_telemetry::enabled() {
            return self.dispatch_tier(tier, func, args);
        }
        let before = self.ctx.stats;
        let start = std::time::Instant::now();
        let result = self.dispatch_tier(tier, func, args);
        crate::probes::record_dispatch(tier, start.elapsed(), &before, &self.ctx.stats);
        result
    }

    /// The raw tier dispatch behind [`Engine::call_tier`].
    fn dispatch_tier(
        &mut self,
        tier: Tier,
        func: FuncId,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let mut fuel = self.fuel_limit;
        // Disjoint field borrows: the tier's prepared code is immutable
        // while the call mutates only `ctx`.
        match tier {
            Tier::Reference => self.reference.call(&mut self.ctx, func, args, &mut fuel),
            Tier::Decoded => self.decoded.call(&mut self.ctx, func, args, &mut fuel),
            Tier::Fused => self.fused.call(&mut self.ctx, func, args, &mut fuel),
            Tier::Threaded => self.threaded.call(&mut self.ctx, func, args, &mut fuel),
        }
    }

    /// Call a function through the retained IR-walking reference
    /// interpreter: the pre-predecode implementation that deep-clones the
    /// callee per call and resolves operands against the value arena on
    /// every read. Semantically identical to [`Engine::call`] (the
    /// differential suite enforces it); kept as the behavioural baseline
    /// and as the bottom rung of the benchmark's tier ladder.
    ///
    /// # Errors
    /// Same surface as [`Engine::call`].
    pub fn call_reference(&mut self, func: FuncId, args: &[Value]) -> Result<Value, ExecError> {
        self.call_tier(Tier::Reference, func, args)
    }

    /// Call a function through the **unfused** predecoded form — the PR 3
    /// interpreter core, retained for A/B measurement (the benchmark's
    /// tier ladder) and differential testing against the fused fast path.
    ///
    /// # Errors
    /// Same surface as [`Engine::call`].
    pub fn call_decoded(&mut self, func: FuncId, args: &[Value]) -> Result<Value, ExecError> {
        self.call_tier(Tier::Decoded, func, args)
    }

    /// Call a function through the fused superinstruction stream (the plain
    /// predecoded form when the policy disabled fusion at construction).
    ///
    /// # Errors
    /// Same surface as [`Engine::call`].
    pub fn call_fused(&mut self, func: FuncId, args: &[Value]) -> Result<Value, ExecError> {
        self.call_tier(Tier::Fused, func, args)
    }

    /// Call a function through the direct-threaded dispatcher (see
    /// [`crate::backend::threaded`]).
    ///
    /// # Errors
    /// Same surface as [`Engine::call`].
    pub fn call_threaded(&mut self, func: FuncId, args: &[Value]) -> Result<Value, ExecError> {
        self.call_tier(Tier::Threaded, func, args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{DecodedInst, Operand};
    use distill_ir::{FunctionBuilder, Intrinsic, Module, Ty};
    use distill_pyvm::SplitMix64;

    const ALL_TIERS: [Tier; 4] = [Tier::Reference, Tier::Decoded, Tier::Fused, Tier::Threaded];

    fn axpy_module() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let fid = m.declare_function("axpy", vec![Ty::F64, Ty::F64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let a = b.param(0);
            let x = b.param(1);
            let y = b.param(2);
            let ax = b.fmul(a, x);
            let r = b.fadd(ax, y);
            b.ret(Some(r));
        }
        (m, fid)
    }

    #[test]
    fn straightline_arithmetic() {
        let (m, fid) = axpy_module();
        let mut e = Engine::new(m);
        let r = e
            .call(fid, &[Value::F64(2.0), Value::F64(3.0), Value::F64(1.0)])
            .unwrap();
        assert_eq!(r, Value::F64(7.0));
        assert!(e.stats().instructions >= 2);
    }

    #[test]
    fn every_tier_matches_the_reference_path() {
        let (m, fid) = axpy_module();
        let mut e = Engine::new(m);
        let args = [Value::F64(2.0), Value::F64(3.0), Value::F64(1.0)];
        let oracle = e.call_reference(fid, &args);
        for tier in ALL_TIERS {
            assert_eq!(e.call_tier(tier, fid, &args), oracle, "{tier}");
        }
    }

    fn sum_module() -> (Module, FuncId) {
        // sum(0..n)
        let mut m = Module::new("m");
        let fid = m.declare_function("sum", vec![Ty::I64], Ty::I64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let entry = b.create_block("entry");
            let header = b.create_block("header");
            let body = b.create_block("body");
            let exit = b.create_block("exit");
            b.switch_to_block(entry);
            let n = b.param(0);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            b.br(header);
            b.switch_to_block(header);
            let i = b.empty_phi(Ty::I64);
            let acc = b.empty_phi(Ty::I64);
            b.add_phi_incoming(i, entry, zero);
            b.add_phi_incoming(acc, entry, zero);
            let c = b.cmp(distill_ir::CmpPred::ILt, i, n);
            b.cond_br(c, body, exit);
            b.switch_to_block(body);
            let acc2 = b.iadd(acc, i);
            let i2 = b.iadd(i, one);
            b.add_phi_incoming(i, body, i2);
            b.add_phi_incoming(acc, body, acc2);
            b.br(header);
            b.switch_to_block(exit);
            b.ret(Some(acc));
        }
        (m, fid)
    }

    #[test]
    fn loops_and_phis_sum_integers() {
        let (m, _) = sum_module();
        let mut e = Engine::new(m);
        let r = e.call(FuncId::from_index(0), &[Value::I64(10)]).unwrap();
        assert_eq!(r, Value::I64(45));
    }

    #[test]
    fn loops_and_phis_match_reference_on_every_tier() {
        let (m, fid) = sum_module();
        let mut fast = Engine::new(m.clone());
        let mut slow = Engine::new(m);
        for n in [0i64, 1, 2, 17, 100] {
            let oracle = slow.call_reference(fid, &[Value::I64(n)]);
            for tier in ALL_TIERS {
                assert_eq!(
                    fast.call_tier(tier, fid, &[Value::I64(n)]),
                    oracle,
                    "n={n} {tier}"
                );
            }
        }
        assert_eq!(fast.memory_bits(), slow.memory_bits());
    }

    #[test]
    fn globals_memory_and_gep() {
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("buf", Ty::array(Ty::F64, 4), true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("bump", vec![Ty::I64, Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let idx = b.param(0);
            let inc = b.param(1);
            let base = b.global_addr(g);
            let p = b.elem_addr(base, idx);
            let old = b.load(p);
            let new = b.fadd(old, inc);
            b.store(p, new);
            b.ret(Some(new));
        }
        let mut e = Engine::new(m);
        e.write_global_f64("buf", &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let r = e.call(fid, &[Value::I64(2), Value::F64(0.5)]).unwrap();
        assert_eq!(r, Value::F64(3.5));
        assert_eq!(e.read_global_f64("buf").unwrap(), vec![1.0, 2.0, 3.5, 4.0]);
    }

    #[test]
    fn unknown_globals_are_typed_errors() {
        let (m, _) = axpy_module();
        let mut e = Engine::new(m);
        assert_eq!(
            e.read_global_f64("nope").unwrap_err(),
            ExecError::UnknownGlobal("nope".into())
        );
        assert_eq!(
            e.read_global_i64("nope", 0).unwrap_err(),
            ExecError::UnknownGlobal("nope".into())
        );
        assert_eq!(
            e.write_global_f64("nope", &[1.0]).unwrap_err(),
            ExecError::UnknownGlobal("nope".into())
        );
        assert_eq!(
            e.write_global_i64("nope", 0, 1).unwrap_err(),
            ExecError::UnknownGlobal("nope".into())
        );
        assert_eq!(
            e.read_global_f64_prefix("nope", 0).unwrap_err(),
            ExecError::UnknownGlobal("nope".into())
        );
    }

    #[test]
    fn global_writes_are_bounds_checked() {
        let mut m = Module::new("m");
        m.add_zeroed_global("a", Ty::array(Ty::F64, 2), true);
        m.add_zeroed_global("b", Ty::array(Ty::F64, 2), true);
        let mut e = Engine::new(m);
        // An oversized write must not silently spill into the next global.
        assert!(matches!(
            e.write_global_f64("a", &[1.0, 2.0, 3.0]),
            Err(ExecError::OutOfBounds { .. })
        ));
        assert_eq!(e.read_global_f64("b").unwrap(), vec![0.0, 0.0]);
        assert!(matches!(
            e.write_global_i64("a", 2, 1),
            Err(ExecError::OutOfBounds { .. })
        ));
        assert!(matches!(
            e.read_global_i64("a", 5),
            Err(ExecError::OutOfBounds { .. })
        ));
        // In-bounds shorter writes still work and leave the tail untouched.
        e.write_global_f64("a", &[7.5]).unwrap();
        assert_eq!(e.read_global_f64("a").unwrap(), vec![7.5, 0.0]);
    }

    #[test]
    fn call_depth_limit_is_a_typed_error_on_every_tier() {
        // f(x) = f(x): infinite recursion trips the depth limit.
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::I64], Ty::I64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_signatures(vec![(vec![Ty::I64], Ty::I64)]);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let r = b.call(fid, vec![x]);
            b.ret(Some(r));
        }
        // 256 interpreter levels need more stack than the default test
        // thread provides under the unoptimized profile.
        std::thread::Builder::new()
            .stack_size(32 * 1024 * 1024)
            .spawn(move || {
                let mut e = Engine::new(m);
                for tier in ALL_TIERS {
                    assert_eq!(
                        e.call_tier(tier, fid, &[Value::I64(0)]),
                        Err(ExecError::DepthExceeded),
                        "{tier}"
                    );
                }
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn alloca_frames_are_released() {
        let mut m = Module::new("m");
        let fid = m.declare_function("f", vec![Ty::F64], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let slot = b.alloca(Ty::F64);
            b.store(slot, x);
            let v = b.load(slot);
            b.ret(Some(v));
        }
        let mut e = Engine::new(m);
        let before = e.ctx.memory.len();
        for _ in 0..100 {
            e.call(fid, &[Value::F64(1.0)]).unwrap();
        }
        assert_eq!(e.ctx.memory.len(), before, "stack slots must be reclaimed");
    }

    #[test]
    fn frame_pool_is_reused_across_calls() {
        let (m, fid) = axpy_module();
        let mut e = Engine::new(m);
        let args = [Value::F64(2.0), Value::F64(3.0), Value::F64(1.0)];
        for _ in 0..10 {
            e.call(fid, &args).unwrap();
        }
        // The first call allocates; every later top-level call reuses it.
        assert!(
            e.stats().frame_pool_hits >= 9,
            "expected pooled frames, stats: {:?}",
            e.stats()
        );
    }

    #[test]
    fn prng_intrinsics_match_the_shared_generator() {
        let mut m = Module::new("m");
        let g = m.add_global("rng", Ty::array(Ty::I64, 1), vec![Constant::I64(42)], true);
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("draw", vec![], Ty::F64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f).with_global_types(tys);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let base = b.global_addr(g);
            let p = b.const_elem_addr(base, 0);
            let r = b.intrinsic(Intrinsic::RandNormal, vec![p]);
            b.ret(Some(r));
        }
        let mut e = Engine::new(m);
        let mut reference = SplitMix64::new(42);
        for _ in 0..5 {
            let got = e.call(fid, &[]).unwrap().as_f64().unwrap();
            assert_eq!(got, reference.normal());
        }
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut m = Module::new("m");
        let fid = m.declare_function("div", vec![Ty::I64, Ty::I64], Ty::I64);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            b.switch_to_block(e);
            let x = b.param(0);
            let y = b.param(1);
            let r = b.sdiv(x, y);
            b.ret(Some(r));
        }
        let mut e = Engine::new(m);
        for tier in ALL_TIERS {
            assert_eq!(
                e.call_tier(tier, fid, &[Value::I64(1), Value::I64(0)]),
                Err(ExecError::DivisionByZero),
                "{tier}"
            );
        }
    }

    #[test]
    fn fuel_limit_stops_runaway_loops_on_every_tier() {
        let mut m = Module::new("m");
        let fid = m.declare_function("spin", vec![], Ty::Void);
        {
            let f = m.function_mut(fid);
            let mut b = FunctionBuilder::new(f);
            let e = b.create_block("entry");
            let l = b.create_block("loop");
            b.switch_to_block(e);
            b.br(l);
            b.switch_to_block(l);
            let one = b.const_i64(1);
            let _ = b.iadd(one, one);
            b.br(l);
        }
        let mut e = Engine::new(m);
        e.fuel_limit = 10_000;
        for tier in ALL_TIERS {
            assert_eq!(
                e.call_tier(tier, fid, &[]),
                Err(ExecError::FuelExhausted),
                "{tier}"
            );
        }
    }

    #[test]
    fn cloned_engines_have_independent_memory() {
        let mut m = Module::new("m");
        m.add_zeroed_global("buf", Ty::array(Ty::F64, 2), true);
        let e1 = Engine::new(m);
        let mut e2 = e1.clone();
        e2.write_global_f64("buf", &[9.0, 9.0]).unwrap();
        assert_eq!(e1.read_global_f64("buf").unwrap(), vec![0.0, 0.0]);
        assert_eq!(e2.read_global_f64("buf").unwrap(), vec![9.0, 9.0]);
    }

    #[test]
    fn clones_share_every_tiers_prepared_code() {
        let (m, _) = axpy_module();
        let e1 = Engine::new(m);
        let e2 = e1.clone();
        assert!(Arc::ptr_eq(&e1.decoded.code, &e2.decoded.code));
        assert!(Arc::ptr_eq(&e1.fused.code, &e2.fused.code));
        assert!(Arc::ptr_eq(&e1.threaded.code, &e2.threaded.code));
        assert!(Arc::ptr_eq(&e1.module, &e2.module));
    }

    #[test]
    fn decoded_policy_aliases_the_decoded_code() {
        let (m, fid) = axpy_module();
        let mut e = Engine::with_config(m, ExecConfig::fixed(Tier::Decoded));
        assert!(!e.fuse_enabled());
        assert_eq!(e.fuse_summary(), FuseSummary::default());
        assert!(Arc::ptr_eq(&e.fused.code, &e.decoded.code));
        let args = [Value::F64(2.0), Value::F64(3.0), Value::F64(1.0)];
        assert_eq!(e.call(fid, &args), Ok(Value::F64(7.0)));
        assert_eq!(
            e.stats().fused_ops,
            0,
            "no superinstructions without fusion"
        );
    }

    #[test]
    fn fused_and_decoded_paths_agree_and_fusion_shrinks_frames() {
        let (m, fid) = sum_module();
        // Pinned explicitly so an inherited DISTILL_TIER cannot turn this
        // into a decoded-vs-decoded comparison.
        let mut e = Engine::with_config(m, ExecConfig::fixed(Tier::Fused));
        assert!(e.fuse_enabled());
        let summary = e.fuse_summary();
        assert!(
            summary.fused_frame_slots < summary.decoded_frame_slots,
            "liveness compaction must shrink frames: {summary:?}"
        );
        for n in [0i64, 1, 17, 100] {
            assert_eq!(
                e.call(fid, &[Value::I64(n)]),
                e.call_decoded(fid, &[Value::I64(n)]),
                "n={n}"
            );
        }
        // The loop's cmp+cond_br fused: superinstructions executed.
        assert!(e.stats().fused_ops > 0, "stats: {:?}", e.stats());
        // Frame-slot accounting: the fused entries are smaller than the
        // decoded entries for the same call pattern.
        assert!(e.stats().frame_slots > 0);
    }

    #[test]
    fn threaded_tier_matches_fused_results_and_instruction_counts() {
        let (m, fid) = sum_module();
        let mut fused = Engine::with_config(m.clone(), ExecConfig::fixed(Tier::Fused));
        let mut threaded = Engine::with_config(m, ExecConfig::fixed(Tier::Threaded));
        for n in [0i64, 1, 17, 100] {
            assert_eq!(
                threaded.call(fid, &[Value::I64(n)]),
                fused.call(fid, &[Value::I64(n)]),
                "n={n}"
            );
        }
        // Block-granular accounting on the threaded tier must total exactly
        // what the fused interpreter charges per op.
        assert_eq!(threaded.stats().instructions, fused.stats().instructions);
        assert_eq!(threaded.stats().fused_ops, fused.stats().fused_ops);
        assert_eq!(threaded.memory_bits(), fused.memory_bits());
    }

    /// Run `fid(args)` on a fresh engine per tier, after `setup`, and assert
    /// that every tier returns exactly what the reference returns and leaves
    /// the same memory image. Returns the reference's result.
    fn assert_every_tier_matches_reference(
        m: &Module,
        fid: FuncId,
        args: &[Value],
        setup: impl Fn(&mut Engine),
    ) -> Result<Value, ExecError> {
        let run = |tier: Tier| {
            let mut e = Engine::with_config(m.clone(), ExecConfig::fixed(tier));
            setup(&mut e);
            (e.call(fid, args), e.memory_bits())
        };
        let oracle = run(Tier::Reference);
        for tier in ALL_TIERS {
            assert_eq!(run(tier), oracle, "{tier}");
        }
        oracle.0
    }

    /// Whether `fid`'s fused stream holds an instruction of the given shape:
    /// pins that a case reaches the threaded fast path it is aimed at.
    fn fuses_to(m: &Module, fid: FuncId, shape: impl Fn(&DecodedInst) -> bool) -> bool {
        let e = Engine::with_config(m.clone(), ExecConfig::fixed(Tier::Threaded));
        let code = &e.fused.code[fid.index()];
        code.blocks
            .iter()
            .flat_map(|b| b.code.iter())
            .any(|op| shape(&op.inst))
    }

    /// One function over the module's globals, built by `body`.
    fn single_function(
        m: &mut Module,
        params: Vec<Ty>,
        ret: Ty,
        body: impl FnOnce(&mut FunctionBuilder),
    ) -> FuncId {
        let tys: Vec<Ty> = m.globals.iter().map(|g| g.ty.clone()).collect();
        let fid = m.declare_function("f", params, ret);
        let mut b = FunctionBuilder::new(m.function_mut(fid)).with_global_types(tys);
        let e = b.create_block("entry");
        b.switch_to_block(e);
        body(&mut b);
        fid
    }

    #[test]
    fn fast_path_tag_misses_fall_back_to_the_interpreter_exactly() {
        use DecodedInst as D;
        let abs = |o: &Operand| matches!(o, Operand::Imm(Value::Ptr(_)));

        // A float `LoadBin` whose slot was retagged to an I64 at run time:
        // the interpreter's arm coerces it.
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("g", Ty::array(Ty::F64, 1), true);
        let fid = single_function(&mut m, vec![Ty::F64], Ty::F64, |b| {
            let base = b.global_addr(g);
            let p = b.const_elem_addr(base, 0);
            let v = b.load(p);
            let x = b.param(0);
            let r = b.fadd(v, x);
            b.ret(Some(r));
        });
        assert!(fuses_to(&m, fid, |i| matches!(
            i,
            D::LoadBin { ptr, other: Operand::Reg(_), .. } if abs(ptr)
        )));
        let r = assert_every_tier_matches_reference(&m, fid, &[Value::F64(0.5)], |e| {
            e.write_global_i64("g", 0, 7).unwrap()
        });
        assert_eq!(r, Ok(Value::F64(7.5)));

        // A `Select` whose condition register holds an I64.
        let mut m = Module::new("m");
        let fid = single_function(&mut m, vec![Ty::Bool, Ty::F64, Ty::F64], Ty::F64, |b| {
            let (c, x, y) = (b.param(0), b.param(1), b.param(2));
            let r = b.select(c, x, y);
            b.ret(Some(r));
        });
        assert!(fuses_to(&m, fid, |i| matches!(
            i,
            D::Select {
                cond: Operand::Reg(_),
                ..
            }
        )));
        let args = [Value::I64(1), Value::F64(1.0), Value::F64(2.0)];
        let r = assert_every_tier_matches_reference(&m, fid, &args, |_| {});
        assert_eq!(r, Err(ExecError::Type("select condition".into())));

        // A `RandCall` whose state slot is uninitialized.
        let mut m = Module::new("m");
        let g = m.add_global("rng", Ty::array(Ty::I64, 1), vec![Constant::Undef], true);
        let fid = single_function(&mut m, vec![], Ty::F64, |b| {
            let base = b.global_addr(g);
            let p = b.const_elem_addr(base, 0);
            let r = b.intrinsic(Intrinsic::RandNormal, vec![p]);
            b.ret(Some(r));
        });
        assert!(fuses_to(
            &m,
            fid,
            |i| matches!(i, D::RandCall { state, .. } if abs(state))
        ));
        let r = assert_every_tier_matches_reference(&m, fid, &[], |_| {});
        assert_eq!(r, Err(ExecError::Undef("slot 0".into())));

        // A `StoreAbs` of an undefined register (a parameter never passed).
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("g", Ty::array(Ty::F64, 1), true);
        let fid = single_function(&mut m, vec![Ty::F64], Ty::Void, |b| {
            let base = b.global_addr(g);
            let p = b.const_elem_addr(base, 0);
            let x = b.param(0);
            b.store(p, x);
            b.ret(None);
        });
        assert!(fuses_to(&m, fid, |i| matches!(
            i,
            D::StoreAbs {
                value: Operand::Reg(_),
                ..
            }
        )));
        let r = assert_every_tier_matches_reference(&m, fid, &[], |_| {});
        assert_eq!(
            r,
            Err(ExecError::Undef("value %0 used before definition".into()))
        );

        // A float `BinStore` past the end of memory.
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("g", Ty::array(Ty::F64, 2), true);
        let fid = single_function(&mut m, vec![Ty::F64, Ty::F64], Ty::Void, |b| {
            let base = b.global_addr(g);
            let p = b.const_elem_addr(base, 5);
            let (x, y) = (b.param(0), b.param(1));
            let r = b.fadd(x, y);
            b.store(p, r);
            b.ret(None);
        });
        assert!(fuses_to(
            &m,
            fid,
            |i| matches!(i, D::BinStore { ptr, .. } if abs(ptr))
        ));
        let r = assert_every_tier_matches_reference(
            &m,
            fid,
            &[Value::F64(1.0), Value::F64(2.0)],
            |_| {},
        );
        assert_eq!(r, Err(ExecError::OutOfBounds { addr: 5, size: 2 }));

        // A `GepLoad` into a global array with a negative index.
        let mut m = Module::new("m");
        let g = m.add_zeroed_global("g", Ty::array(Ty::F64, 4), true);
        let fid = single_function(&mut m, vec![Ty::I64], Ty::F64, |b| {
            let base = b.global_addr(g);
            let i = b.param(0);
            let p = b.elem_addr(base, i);
            let v = b.load(p);
            b.ret(Some(v));
        });
        assert!(fuses_to(
            &m,
            fid,
            |i| matches!(i, D::GepLoad { base, .. } if abs(base))
        ));
        let r = assert_every_tier_matches_reference(&m, fid, &[Value::I64(-1)], |_| {});
        assert_eq!(r, Err(ExecError::OutOfBounds { addr: 0, size: 4 }));
    }

    #[test]
    fn missing_body_errors_on_every_tier() {
        let mut m = Module::new("m");
        let fid = m.declare_function("decl", vec![], Ty::F64);
        m.function_mut(fid).is_declaration = true;
        let mut e = Engine::new(m);
        for tier in ALL_TIERS {
            assert_eq!(
                e.call_tier(tier, fid, &[]),
                Err(ExecError::MissingBody("decl".into())),
                "{tier}"
            );
        }
    }
}
