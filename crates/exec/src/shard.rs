//! Chunked work distribution shared by the parallel backends.
//!
//! Both kinds of parallelism in this repository drain an index space across
//! OS threads: the multicore grid search ([`crate::mcpu`]) distributes grid
//! evaluations, and the sharded trial driver in `distill-core` distributes
//! `trials_batch`-sized chunks of the trial space. The scheduling substrate
//! is the same — an atomic next-index counter over a fixed range, grabbed in
//! chunks so one shared cache line amortizes over many work items — so it
//! lives here once as [`ChunkQueue`].
//!
//! The queue is *work-stealing* in the same sense PR 3's grid scheduler is:
//! a worker that finishes its chunk early goes back for more, so a skewed
//! cost profile cannot serialize the sweep on the unluckiest worker. Every
//! grab beyond a worker's first is reported as a steal (redistribution that
//! another worker could have absorbed); single-worker runs report zero by
//! convention, since a lone worker draining the queue is self-scheduling.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An atomic chunked index queue over `0..limit`.
#[derive(Debug)]
pub struct ChunkQueue {
    next: AtomicUsize,
    limit: usize,
    chunk: usize,
}

impl ChunkQueue {
    /// A queue handing out `chunk`-sized ranges of `0..limit` (chunk is
    /// clamped to at least 1).
    pub fn new(limit: usize, chunk: usize) -> ChunkQueue {
        ChunkQueue::over(0..limit, chunk)
    }

    /// The lease-range adapter: a queue handing out `chunk`-sized ranges of
    /// an arbitrary `start..end` window instead of `0..limit`. This is how a
    /// holder of a *lease* over part of a larger index space — the
    /// distributed sweep coordinator carving a trial space into leases, or a
    /// worker sharding its leased range across threads — reuses the same
    /// scheduling substrate: the ranges handed out are absolute indices
    /// into the global space, so per-index determinism (PRNG streams derived
    /// from the absolute trial index) is preserved no matter which process
    /// drains which window.
    pub fn over(range: Range<usize>, chunk: usize) -> ChunkQueue {
        ChunkQueue {
            next: AtomicUsize::new(range.start),
            limit: range.end.max(range.start),
            chunk: chunk.max(1),
        }
    }

    /// A queue whose chunk size targets at least `grabs_per_worker` grabs
    /// per worker (so one expensive tail region cannot serialize the sweep)
    /// while never exceeding `max_chunk` (so the shared counter stays
    /// amortized).
    pub fn balanced(
        limit: usize,
        workers: usize,
        grabs_per_worker: usize,
        max_chunk: usize,
    ) -> ChunkQueue {
        let denom = workers.max(1) * grabs_per_worker.max(1);
        let chunk = (limit / denom).clamp(1, max_chunk.max(1));
        ChunkQueue::new(limit, chunk)
    }

    /// Grab the next chunk, or `None` when the range is drained.
    pub fn grab(&self) -> Option<Range<usize>> {
        let lo = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if lo >= self.limit {
            return None;
        }
        Some(lo..(lo + self.chunk).min(self.limit))
    }

    /// The configured chunk size.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// The exclusive upper bound of the index space.
    pub fn limit(&self) -> usize {
        self.limit
    }
}

/// Render a worker thread's panic payload as a message, so drivers can fold
/// a caught unwind into a typed error (`ExecError::WorkerPanicked`,
/// `DistillError::Driver`) instead of re-panicking on `join` and tearing the
/// whole run down with a hung caller or a silent partial result.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-worker tally of queue grabs, folded into steal statistics: every grab
/// beyond the first is a steal. See the module docs for the convention on
/// single-worker runs (the caller zeroes the total when only one worker
/// drained the queue).
#[derive(Debug, Default, Clone, Copy)]
pub struct GrabCount(u64);

impl GrabCount {
    /// Record one successful grab.
    pub fn record(&mut self) {
        self.0 += 1;
    }

    /// Grabs beyond the first — the worker's steal count.
    pub fn steals(&self) -> u64 {
        self.0.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_the_whole_range_exactly_once() {
        let q = ChunkQueue::new(103, 10);
        let mut seen = [false; 103];
        while let Some(r) = q.grab() {
            for i in r {
                assert!(!seen[i], "index {i} handed out twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn empty_range_grabs_nothing() {
        let q = ChunkQueue::new(0, 8);
        assert!(q.grab().is_none());
    }

    #[test]
    fn balanced_matches_the_grid_scheduler_formula() {
        // The fig5c grid scheduler's historical sizing: at least 8 chunks
        // per worker, capped at 1024.
        let q = ChunkQueue::balanced(1_000_000, 4, 8, 1024);
        assert_eq!(q.chunk(), 1024);
        let q = ChunkQueue::balanced(100, 4, 8, 1024);
        assert_eq!(q.chunk(), 3);
        let q = ChunkQueue::balanced(5, 4, 8, 1024);
        assert_eq!(q.chunk(), 1);
    }

    #[test]
    fn concurrent_grabs_partition_the_range() {
        let q = ChunkQueue::new(10_000, 7);
        let counts: Vec<usize> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut n = 0;
                        while let Some(r) = q.grab() {
                            n += r.len();
                        }
                        n
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
    }

    #[test]
    fn range_queue_drains_exactly_the_window() {
        let q = ChunkQueue::over(40..103, 10);
        let mut seen = [false; 103];
        while let Some(r) = q.grab() {
            for i in r {
                assert!((40..103).contains(&i), "index {i} outside the lease window");
                assert!(!seen[i], "index {i} handed out twice");
                seen[i] = true;
            }
        }
        assert!(seen[40..103].iter().all(|&s| s));
        assert!(seen[..40].iter().all(|&s| !s));
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // the inverted window is the case under test
    fn empty_and_inverted_windows_grab_nothing() {
        assert!(ChunkQueue::over(7..7, 4).grab().is_none());
        assert!(ChunkQueue::over(9..3, 4).grab().is_none());
    }

    #[test]
    fn panic_messages_cover_the_common_payloads() {
        let caught = std::thread::spawn(|| panic!("literal payload")).join().unwrap_err();
        assert_eq!(panic_message(&*caught), "literal payload");
        let caught = std::thread::spawn(|| panic!("formatted {}", 7)).join().unwrap_err();
        assert_eq!(panic_message(&*caught), "formatted 7");
        let caught = std::thread::spawn(|| std::panic::panic_any(42i32)).join().unwrap_err();
        assert_eq!(panic_message(&*caught), "non-string panic payload");
    }

    #[test]
    fn grab_count_reports_steals() {
        let mut g = GrabCount::default();
        assert_eq!(g.steals(), 0);
        g.record();
        assert_eq!(g.steals(), 0);
        g.record();
        g.record();
        assert_eq!(g.steals(), 2);
    }
}
