//! `distill-serve` — a long-lived serving daemon over the Distill runtime.
//!
//! The batch harnesses in `distill-bench` compile a model, run one workload
//! and exit. This crate keeps the runtime resident instead, the way a
//! cognitive-model service would deploy it, and adds the three pieces a
//! daemon needs on top of `distill`'s one-shot [`Session`] API:
//!
//! * an **artifact cache** ([`cache::ArtifactCache`]) keyed by
//!   `(family, CompileConfig)`: compiled artifacts are LRU-cached in memory
//!   and optionally persisted with `distill`'s versioned on-disk codec, so a
//!   restarted daemon reloads yesterday's artifacts instead of recompiling —
//!   and rejects artifacts written by an older codec revision;
//! * **concurrent client sessions** ([`server::ClientSession`]): any number
//!   of clients share one `Arc`'d artifact per family and submit
//!   [`server::TrialRequest`]s through a cheap cloneable handle;
//! * a **coalescing scheduler** (see [`server`] module docs): trials from
//!   independent requests to the same family are packed into shared
//!   `trials_batch(start, count)` spans executed over the same
//!   `ChunkQueue` substrate the offline sharded runner uses, then demuxed
//!   back per request. Coalescing is *bit-transparent*: every response is
//!   bitwise identical to the same request running alone on an idle server.
//!
//! The open-loop traffic generator in [`traffic`] drives a server on a
//! fixed arrival schedule, reporting throughput and latency percentiles
//! (the `open_loop_smoke` example and `tests/serve_faults.rs` use it).
//!
//! The daemon is instrumented end to end with `distill-telemetry` (metric
//! names are catalogued in the README's Observability section):
//! queue-depth gauges per lane, wait/service-time histograms, span-packing
//! and cache counters, and `serve.chunk` trace spans. [`Server::telemetry`] / [`ClientSession::telemetry`] freeze the
//! registry into a [`TelemetrySnapshot`] so a live daemon can be queried
//! instead of restarted.
//!
//! [`Session`]: distill::Session

pub mod cache;
pub(crate) mod probes;
pub mod server;
pub mod traffic;

pub use cache::{ArtifactCache, CacheStats};
pub use distill_telemetry::TelemetrySnapshot;
pub use server::{
    ClientSession, ServeConfig, ServeStats, Server, Ticket, TrialRequest, TrialResponse,
};
pub use traffic::{run_open_loop, FailedRequest, RequestRecord, TrafficConfig, TrafficReport};

/// Errors surfaced by the serving layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The requested family is not in the workload registry.
    UnknownFamily(String),
    /// A request asked for zero trials.
    EmptyRequest,
    /// Compiling (or loading) the family's artifact failed, or the artifact
    /// has no whole-model entry point for the scheduler to drive.
    Build(String),
    /// The server shut down while the request was queued or in flight.
    Disconnected,
    /// The execution engine failed while running a span.
    Exec(String),
    /// The request's [`server::TrialRequest::deadline`] expired while it
    /// was still queued; it was never executed.
    DeadlineExceeded,
    /// The lane's queue is past its admission high-watermark
    /// ([`server::ServeConfig::lane_capacity`]); the request was shed
    /// without being queued. The hint estimates when the backlog will have
    /// drained, from the lane's observed per-trial service time.
    Overloaded {
        /// Suggested client-side pause before resubmitting.
        retry_after_hint: std::time::Duration,
    },
    /// A worker thread panicked while executing a span chunk covering this
    /// request. Other requests coalesced into the same span are requeued
    /// and re-served; only the requests overlapping the panicked chunk get
    /// this error. Carries the panic message.
    WorkerPanicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownFamily(name) => write!(f, "unknown workload family `{name}`"),
            ServeError::EmptyRequest => write!(f, "request asked for zero trials"),
            ServeError::Build(msg) => write!(f, "artifact build failed: {msg}"),
            ServeError::Disconnected => write!(f, "server shut down"),
            ServeError::Exec(msg) => write!(f, "execution failed: {msg}"),
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline expired before execution")
            }
            ServeError::Overloaded { retry_after_hint } => write!(
                f,
                "lane over its admission watermark; retry after ~{:?}",
                retry_after_hint
            ),
            ServeError::WorkerPanicked(msg) => {
                write!(f, "worker panicked while serving the request: {msg}")
            }
        }
    }
}

impl std::error::Error for ServeError {}
