//! Open-loop traffic generation against a [`Server`].
//!
//! Open-loop means arrivals follow a fixed schedule regardless of how fast
//! the server answers: request `i` is submitted at `t0 + i * interval`,
//! never gated on request `i - 1` completing. This is the honest way to
//! measure a serving system — a closed loop (submit, wait, submit) lets a
//! slow server throttle its own offered load and hide queueing delay,
//! which is exactly the regime where cross-request coalescing matters.
//!
//! Reported latency is end-to-end from the *scheduled* arrival time: any
//! submit-side slip (the generator falling behind its own schedule) is
//! charged to the request on top of the server-side queue + execution
//! time, so an overloaded run shows up as latency growth rather than being
//! silently re-timed.
//!
//! # Retry
//!
//! The generator is also the reference client for the server's resilience
//! surface. A submission shed with [`ServeError::Overloaded`] is retried
//! up to [`TrafficConfig::max_attempts`] times after the server's
//! `retry_after_hint` (or the seeded exponential backoff, whichever is
//! longer); a ticket that fails with [`ServeError::WorkerPanicked`] is
//! resubmitted for the *same* absolute trial range, so the retried
//! response is bit-identical to what the failed attempt would have
//! returned. Backoff jitter is seeded ([`TrafficConfig::retry_seed`]) —
//! the same config replays the same pauses. Requests that exhaust their
//! attempts (or hit a non-retryable error such as
//! [`ServeError::DeadlineExceeded`]) are reported per request in
//! [`TrafficReport::failed`] instead of aborting the run.

use std::time::{Duration, Instant};

use crate::server::{Server, Ticket, TrialRequest};
use crate::ServeError;

/// Open-loop load description.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Families requests cycle through (round-robin by request index).
    pub families: Vec<String>,
    /// Total requests to submit.
    pub requests: usize,
    /// Trials per request.
    pub trials_per_request: usize,
    /// Concurrent client sessions; request `i` goes to client
    /// `i % clients`.
    pub clients: usize,
    /// Scheduled gap between consecutive arrivals (across all clients).
    pub arrival_interval: Duration,
    /// Optional per-request latency budget, forwarded to the server (see
    /// [`TrialRequest::deadline`]).
    pub deadline: Option<Duration>,
    /// Attempts per request (submission or wait), 1 = no retry.
    pub max_attempts: u32,
    /// Base pause before the first retry; doubles per attempt, with seeded
    /// jitter on top.
    pub retry_base: Duration,
    /// Seed for the retry-jitter stream: the same `(seed, request,
    /// attempt)` always produces the same pause.
    pub retry_seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> TrafficConfig {
        TrafficConfig {
            families: vec!["necker_cube_3".to_string()],
            requests: 32,
            trials_per_request: 8,
            clients: 4,
            arrival_interval: Duration::from_micros(200),
            deadline: None,
            max_attempts: 3,
            retry_base: Duration::from_micros(200),
            retry_seed: 0xC0FF_EE00,
        }
    }
}

/// One request's outcome.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Family the request ran.
    pub family: String,
    /// Absolute start index the server allocated.
    pub start: usize,
    /// Trials requested.
    pub trials: usize,
    /// End-to-end latency in seconds, from scheduled arrival to demux
    /// (including any retry pauses).
    pub latency_s: f64,
    /// Whether the request shared a span with another request.
    pub coalesced: bool,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
}

/// A request that did not complete: it exhausted its attempts or hit a
/// non-retryable error.
#[derive(Debug, Clone)]
pub struct FailedRequest {
    /// Submission index of the request.
    pub index: usize,
    /// Family it targeted.
    pub family: String,
    /// The final error.
    pub error: ServeError,
    /// Attempts consumed before giving up.
    pub attempts: u32,
}

/// Aggregated open-loop run results.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Requests completed.
    pub requests: usize,
    /// Trials completed.
    pub trials: usize,
    /// Wall-clock seconds from first scheduled arrival to last response.
    pub elapsed_s: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
    /// Completed trials per second.
    pub throughput_tps: f64,
    /// Per-request latencies in seconds, sorted ascending, so a percentile
    /// is an index into it; completed requests only.
    pub latencies_s: Vec<f64>,
    /// Requests whose response was coalesced with another request's.
    pub coalesced_requests: usize,
    /// Per-request outcomes in submission order (completed requests).
    pub records: Vec<RequestRecord>,
    /// Requests that did not complete, in submission order — per-request
    /// failures are reported here rather than aborting the whole run.
    pub failed: Vec<FailedRequest>,
    /// Total retry attempts across all requests (shed resubmissions plus
    /// panic-recovery resubmissions).
    pub retries: u64,
}

/// Seeded exponential backoff with jitter: `base * 2^(attempt-1)`,
/// stretched by a deterministic factor in `[1, 2)` drawn from
/// `(seed, request, attempt)`.
fn backoff(config: &TrafficConfig, request: usize, attempt: u32) -> Duration {
    let mut s = config
        .retry_seed
        .wrapping_add((request as u64) << 24)
        .wrapping_add(attempt as u64);
    let jitter = 1.0 + (distill::chaos::splitmix64(&mut s) % 1024) as f64 / 1024.0;
    let base = config.retry_base.max(Duration::from_micros(1));
    base.saturating_mul(1u32 << (attempt - 1).min(16))
        .mul_f64(jitter)
}

/// What one client thread produced: completed records (tagged with their
/// submission index), per-request failures, and its retry count.
type ClientOutcome = (Vec<(usize, RequestRecord)>, Vec<FailedRequest>, u64);

/// Drive `server` with the configured open-loop load and collect the
/// report. Blocks until every submitted request completes or conclusively
/// fails; per-request errors land in [`TrafficReport::failed`].
///
/// # Errors
/// Only config-level preflight failures (an unknown family); request-level
/// errors never abort the run.
pub fn run_open_loop(server: &Server, config: &TrafficConfig) -> Result<TrafficReport, ServeError> {
    assert!(
        !config.families.is_empty(),
        "traffic needs at least one family"
    );
    assert!(config.clients > 0, "traffic needs at least one client");
    assert!(
        config.max_attempts > 0,
        "traffic needs at least one attempt"
    );
    // Compile every lane up front so the measurement is steady-state
    // serving, not first-request compilation.
    for family in &config.families {
        server.run_solo(family, 0, 1)?;
    }

    let clients = config.clients.min(config.requests.max(1));
    let t0 = Instant::now();
    let results: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let session = server.client();
                let config = &*config;
                scope.spawn(move || run_client(&session, config, clients, c, t0))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(c, h)| match h.join() {
                Ok(outcome) => outcome,
                Err(payload) => {
                    // A panicked client thread loses its bookkeeping; charge
                    // each request it owned as failed rather than aborting
                    // the whole generator.
                    let msg = distill_exec::panic_message(payload.as_ref());
                    let failed = (c..config.requests)
                        .step_by(clients)
                        .map(|i| FailedRequest {
                            index: i,
                            family: config.families[i % config.families.len()].clone(),
                            error: ServeError::WorkerPanicked(format!(
                                "traffic client panicked: {msg}"
                            )),
                            attempts: 0,
                        })
                        .collect();
                    (Vec::new(), failed, 0)
                }
            })
            .collect()
    });
    let elapsed_s = t0.elapsed().as_secs_f64();

    let mut records_by_index = Vec::new();
    let mut failed = Vec::new();
    let mut retries = 0u64;
    for (r, f, n) in results {
        records_by_index.extend(r);
        failed.extend(f);
        retries += n;
    }
    records_by_index.sort_by_key(|(i, _)| *i);
    failed.sort_by_key(|f| f.index);
    let records: Vec<RequestRecord> = records_by_index.into_iter().map(|(_, r)| r).collect();
    let trials: usize = records.iter().map(|r| r.trials).sum();
    let coalesced_requests = records.iter().filter(|r| r.coalesced).count();
    let mut latencies_s: Vec<f64> = records.iter().map(|r| r.latency_s).collect();
    latencies_s.sort_by(|a, b| a.total_cmp(b));
    Ok(TrafficReport {
        requests: records.len(),
        trials,
        elapsed_s,
        throughput_rps: records.len() as f64 / elapsed_s.max(1e-12),
        throughput_tps: trials as f64 / elapsed_s.max(1e-12),
        latencies_s,
        coalesced_requests,
        records,
        failed,
        retries,
    })
}

/// One client thread: submit its slice of the schedule (with shed-retry),
/// then redeem every ticket (with panic-retry).
fn run_client(
    session: &crate::server::ClientSession,
    config: &TrafficConfig,
    clients: usize,
    c: usize,
    t0: Instant,
) -> ClientOutcome {
    let mut tickets: Vec<(usize, Duration, u32, Ticket)> = Vec::new();
    let mut failed = Vec::new();
    let mut retries = 0u64;
    for i in (c..config.requests).step_by(clients) {
        let scheduled = t0 + config.arrival_interval * i as u32;
        while Instant::now() < scheduled {
            std::thread::sleep(scheduled.saturating_duration_since(Instant::now()));
        }
        let slip = scheduled.elapsed();
        let family = &config.families[i % config.families.len()];
        let mut attempt = 1u32;
        loop {
            let mut request = TrialRequest::new(family, config.trials_per_request);
            request.deadline = config.deadline;
            match session.submit(request) {
                Ok(t) => {
                    tickets.push((i, slip, attempt, t));
                    break;
                }
                Err(ServeError::Overloaded { retry_after_hint })
                    if attempt < config.max_attempts =>
                {
                    retries += 1;
                    std::thread::sleep(retry_after_hint.max(backoff(config, i, attempt)));
                    attempt += 1;
                }
                Err(error) => {
                    failed.push(FailedRequest {
                        index: i,
                        family: family.clone(),
                        error,
                        attempts: attempt,
                    });
                    break;
                }
            }
        }
    }
    // Open loop: wait only after the client's whole schedule is submitted.
    let mut records = Vec::with_capacity(tickets.len());
    for (i, slip, first_attempts, ticket) in tickets {
        let family = config.families[i % config.families.len()].clone();
        let mut attempt = first_attempts;
        let mut current = ticket;
        loop {
            let (start, trials) = (current.start(), current.trials());
            match current.wait() {
                Ok(response) => {
                    records.push((
                        i,
                        RequestRecord {
                            family: response.family.clone(),
                            start: response.start,
                            trials: response.outputs.len(),
                            latency_s: (slip + response.latency).as_secs_f64(),
                            coalesced: response.coalesced,
                            attempts: attempt,
                        },
                    ));
                    break;
                }
                Err(ServeError::WorkerPanicked(_)) if attempt < config.max_attempts => {
                    // Transient by construction (the panicked worker is
                    // quarantined): resubmit the *same* absolute range so
                    // the retried response is bit-identical to a solo run
                    // of the original allocation.
                    retries += 1;
                    std::thread::sleep(backoff(config, i, attempt));
                    attempt += 1;
                    let request = TrialRequest {
                        family: family.clone(),
                        trials,
                        start: Some(start),
                        deadline: config.deadline,
                    };
                    match session.submit(request) {
                        Ok(t) => current = t,
                        Err(error) => {
                            failed.push(FailedRequest {
                                index: i,
                                family,
                                error,
                                attempts: attempt,
                            });
                            break;
                        }
                    }
                }
                Err(error) => {
                    failed.push(FailedRequest {
                        index: i,
                        family,
                        error,
                        attempts: attempt,
                    });
                    break;
                }
            }
        }
    }
    (records, failed, retries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;

    #[test]
    fn open_loop_completes_and_aggregates() {
        let server = Server::start(ServeConfig {
            workers: 2,
            batch: 4,
            ..ServeConfig::default()
        });
        let config = TrafficConfig {
            families: vec!["necker_cube_3".into(), "necker_cube_8".into()],
            requests: 10,
            trials_per_request: 3,
            clients: 3,
            arrival_interval: Duration::from_micros(50),
            ..TrafficConfig::default()
        };
        let report = run_open_loop(&server, &config).unwrap();
        assert_eq!(report.requests, 10);
        assert_eq!(report.trials, 30);
        assert!(report.failed.is_empty(), "{:?}", report.failed);
        assert_eq!(report.retries, 0, "clean run needs no retries");
        assert_eq!(report.latencies_s.len(), 10);
        assert!(report.throughput_rps > 0.0);
        assert!(report.latencies_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(report.records.iter().all(|r| r.attempts == 1));
        // Every record is bit-identical to its solo rerun.
        for r in &report.records {
            let solo = server.run_solo(&r.family, r.start, r.trials).unwrap();
            assert_eq!(solo.outputs.len(), r.trials);
        }
    }

    #[test]
    fn backoff_is_seeded_and_monotone_in_attempts() {
        let config = TrafficConfig::default();
        assert_eq!(backoff(&config, 3, 1), backoff(&config, 3, 1));
        assert_ne!(
            backoff(&config, 3, 1),
            backoff(&config, 4, 1),
            "jitter varies by request"
        );
        // Exponential envelope: attempt k+2 always exceeds attempt k
        // (jitter spans [1, 2), the base doubles).
        for k in 1..6u32 {
            assert!(backoff(&config, 0, k + 2) > backoff(&config, 0, k));
        }
    }
}
