//! `distill-exec` — execution engines for compiled Distill IR.
//!
//! The paper executes the generated LLVM IR natively (JIT on the host CPU,
//! NVPTX on the GPU). Without LLVM we execute the same IR with a fast
//! register-based engine over flat, statically laid out memory — the point
//! of comparison with the dynamic baseline is preserved: no boxing, no
//! string-keyed lookups, no interpreter/scheduler ping-pong, whole-model
//! optimization applied before execution.
//!
//! Three backends:
//!
//! * [`engine::Engine`] — single-thread execution of any IR function over
//!   the module's globals, behind four pluggable specialization tiers
//!   (see [`backend`]): the IR-walking reference oracle, the predecoded
//!   interpreter, the fused superinstruction stream, and direct-threaded
//!   dispatch — selected per call by a [`TierPolicy`].
//! * [`mcpu`] — the multicore grid-search backend of §3.6: the evaluation
//!   space is split across OS threads, each thread works on its own copy of
//!   the read-write state (here: its own copy of the engine memory), and
//!   every evaluation's cost lands at its index in one cost window.
//! * [`gpu`] — a simulated SIMT GPU (§6.3, Fig. 6): it executes the same
//!   kernel per grid point into the same cost window and reports a modelled
//!   execution time from an occupancy/register/local-memory cost model
//!   calibrated to the paper's GTX 1060 observations.
//!
//! Both grid backends are phase 1 of a grid search only: they fill the cost
//! window, and the driver folds it, in index order, through the one
//! tie-breaking argmin (`ReservoirArgmin` in `distill-cogmodel`).

pub mod backend;
pub mod decode;
pub mod engine;
pub mod fuse;
pub mod gpu;
pub mod mcpu;
pub(crate) mod probes;
pub mod shard;

pub use backend::{ExecTier, Tier, TierCodeStats, TierPolicy};
pub use engine::{Engine, EngineCtx, EngineStats, ExecConfig, ExecError, Value};
pub use fuse::FuseSummary;
pub use gpu::{GpuConfig, GpuRunReport};
pub use mcpu::{grid_costs, EvalContext, ParallelResult};
pub use shard::{panic_message, ChunkQueue, GrabCount};
