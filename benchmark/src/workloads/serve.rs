//! The two open-loop serving workloads. Requests are sent on a seeded
//! schedule whatever the server does (independent users), by one generator
//! thread. Each request is timed from when it was *due*, so a stall is
//! charged to every request it delays.
//!
//! `serve` resolves families from the registry by name and runs them on
//! their registered inputs, so the generated input here is the schedule:
//! family, request size and arrival time, all from the seed.

use super::{stream, Sampler, Timed, Workload};
use crate::inputs::{families, Family};
use crate::json::Json;
use crate::layers::{self, LayerFamily};
use crate::metrics::Metrics;
use crate::oracle::{check_samples, Sample};
use crate::spans::Tracer;
use crate::util::{median, percentile, Rng};
use distill::RunSpec;
use distill_models::registry;
use distill_serve::{ServeConfig, ServeStats, Server, Ticket, TrialRequest};
use std::time::{Duration, Instant};

/// Fixed latency limit of the serving workloads.
const SLO_MS: f64 = 25.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Poisson arrivals at 250 req/s, families of `serve_mix()` and sizes
    /// of 4–12 trials in equal shares.
    Steady,
    /// Poisson bursts at 120 bursts/s, each 24 back-to-back requests of 1–2
    /// trials to one of two families.
    Burst,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    /// Scheduled arrival, ns after the start of the region.
    at_ns: u64,
    family: usize,
    trials: usize,
}

/// Timings of one completed request.
struct Done {
    /// Scheduled arrival to completion.
    latency_ms: f64,
    /// The same with `submit`'s return in place of its call: an upper bound.
    client_ms: f64,
    /// `TrialResponse::latency`: the server's own submit-to-demux time.
    server_ms: f64,
}

/// Numbers of the last timed region that only `layers` reports.
#[derive(Default)]
struct LastRun {
    stats: ServeStats,
    wall_s: f64,
    sent: usize,
    completed: usize,
    slo_missed: usize,
    slip_ms: Vec<f64>,
    submit_ns: Vec<f64>,
    client_ms: Vec<f64>,
    server_ms: Vec<f64>,
    first_requests: Vec<Req>,
}

pub struct Serve {
    regime: Regime,
    seed: u64,
    families: Vec<Family>,
    server: Option<Server>,
    /// Warm-up responses at trial window 0 (the one the baseline can check).
    warm: Vec<Sample>,
    last: LastRun,
}

fn stats_since(now: ServeStats, then: ServeStats) -> ServeStats {
    let mut d = now;
    d.requests -= then.requests;
    d.trials -= then.trials;
    d.spans -= then.spans;
    d.coalesced_spans -= then.coalesced_spans;
    d.batch_calls -= then.batch_calls;
    d.shed -= then.shed;
    d.expired -= then.expired;
    d.worker_panics -= then.worker_panics;
    d.requeued_trials -= then.requeued_trials;
    d
}

fn sleep_until(target: Instant) {
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

impl Serve {
    pub fn new(regime: Regime, seed: u64) -> Serve {
        Serve {
            regime,
            seed,
            families: Vec::new(),
            server: None,
            warm: Vec::new(),
            last: LastRun::default(),
        }
    }

    fn family_names(&self) -> Vec<&'static str> {
        match self.regime {
            Regime::Steady => registry::serve_mix().iter().map(|s| s.name).collect(),
            Regime::Burst => vec!["predator_prey_2", "necker_cube_8"],
        }
    }

    /// The arrival schedule of a round: a pure function of the seed.
    ///
    /// Arrivals are a Poisson process conditioned on its count (`rate x
    /// seconds` arrival times drawn uniformly over the round), and families
    /// and request sizes are dealt from shuffled decks, so every seed offers
    /// the same load in a different order. An unconditioned draw of a few
    /// hundred arrivals would move the offered load by several percent from
    /// seed to seed, which would read as a change in the server.
    fn schedule(&self, seconds: f64, round: u64) -> Vec<Req> {
        let mut rng = Rng::new(self.seed, &stream("schedule", Some(round)));
        let n = self.families.len();
        let (rate, per_arrival, sizes): (f64, usize, Vec<usize>) = match self.regime {
            Regime::Steady => (250.0, 1, (4..=12).collect()),
            Regime::Burst => (120.0, 24, [1, 2].repeat(12)),
        };
        let arrivals = ((rate * seconds).round() as usize).max(1);
        let mut at: Vec<u64> = (0..arrivals)
            .map(|_| (rng.unit() * seconds * 1e9) as u64)
            .collect();
        at.sort_unstable();
        let mut family_deck = Deck::new((0..n).collect());
        let mut size_deck = Deck::new(sizes);
        let mut reqs = Vec::with_capacity(arrivals * per_arrival);
        for at_ns in at {
            let family = family_deck.deal(&mut rng);
            for _ in 0..per_arrival {
                reqs.push(Req {
                    at_ns,
                    family,
                    trials: size_deck.deal(&mut rng),
                });
            }
        }
        reqs
    }
}

/// Deals its cards in a seeded order, reshuffling when it runs out, so that
/// every card comes up equally often.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(cards: Vec<usize>) -> Deck {
        let next = cards.len();
        Deck { cards, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.cards.len() {
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.range(0, i));
            }
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

impl Workload for Serve {
    fn setup(&mut self) -> Result<(), String> {
        self.server = None; // joins the previous server's workers first
        self.families = families(&self.family_names(), self.seed);
        let server = Server::start(ServeConfig::default());
        self.warm.clear();
        // The first request to a family compiles its artifact and opens its
        // lane; it also lands on trial window 0.
        for (i, f) in self.families.iter().enumerate() {
            let r = server
                .submit(TrialRequest::new(f.name, 4))
                .and_then(Ticket::wait)
                .map_err(|e| format!("{}: {e}", f.name))?;
            self.warm
                .push(Sample::of(0, i, 0, r.start, 0, &r.outputs, &r.passes));
        }
        // Then enough traffic that both workers hold an engine per lane.
        let tickets: Vec<Ticket> = (0..120)
            .map(|k| {
                server.submit(TrialRequest::new(
                    self.families[k % self.families.len()].name,
                    8,
                ))
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        for ticket in tickets {
            ticket.wait().map_err(|e| e.to_string())?;
        }
        self.server = Some(server);
        Ok(())
    }

    fn run(&mut self, seconds: f64, round: u64, t: &mut Tracer) -> Timed {
        let sched = self.schedule(seconds, round);
        let server = self.server.as_ref().expect("setup ran");
        let before = server.stats();
        let client = server.client();
        let sampler = Sampler::new(self.seed ^ round, sched.len() as f64);
        let names: Vec<&str> = self.families.iter().map(|f| f.name).collect();
        let mut out = Timed {
            digest_ops: sched.len() as u64,
            ..Timed::default()
        };

        // Submit on schedule. The generator is this one thread: redeeming
        // tickets while submitting would take a second thread, and on a small
        // host every wake-up of it preempts a server worker. Responses wait
        // in their ticket's channel until the schedule has been sent.
        let epoch = Instant::now() + Duration::from_millis(2);
        let mut sent_at = Vec::with_capacity(sched.len());
        let mut returned_at = Vec::with_capacity(sched.len());
        let mut tickets = Vec::with_capacity(sched.len());
        for req in &sched {
            sleep_until(epoch + Duration::from_nanos(req.at_ns));
            sent_at.push(Instant::now());
            tickets.push(client.submit(TrialRequest::new(names[req.family], req.trials)));
            returned_at.push(Instant::now());
        }

        let mut done: Vec<Done> = Vec::with_capacity(sched.len());
        let mut slip_ms = Vec::with_capacity(sched.len());
        let mut submit_ns = Vec::with_capacity(sched.len());
        let mut last_completion = epoch;
        for (i, ticket) in tickets.into_iter().enumerate() {
            let req = sched[i];
            let due = epoch + Duration::from_nanos(req.at_ns);
            let (sent, returned) = (sent_at[i], returned_at[i]);
            slip_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
            submit_ns.push(returned.duration_since(sent).as_nanos() as f64);
            match ticket.and_then(Ticket::wait) {
                Ok(resp) if resp.outputs.len() == req.trials => {
                    // Scheduled arrival -> handed to the server (the
                    // generator's lateness counts) + the server's own
                    // submit-to-demux time. `sent` rather than `returned`:
                    // the server stamps a request early in `submit`, and
                    // under load the caller often loses the CPU to the
                    // workers it has just woken before `submit` returns.
                    let latency = sent.duration_since(due) + resp.latency;
                    let upper = returned.duration_since(due) + resp.latency;
                    last_completion = last_completion.max(sent + resp.latency);
                    t.record("serve", "request", i as u64, due, sent + resp.latency);
                    out.trials += req.trials as u64;
                    out.digest.trials(&resp.outputs, &resp.passes);
                    if sampler.keep(i as u64, out.samples.len()) {
                        let skip = sampler.skip(i as u64, req.trials);
                        out.samples.push(Sample::of(
                            i as u64,
                            req.family,
                            0,
                            resp.start,
                            skip,
                            &resp.outputs,
                            &resp.passes,
                        ));
                    }
                    done.push(Done {
                        latency_ms: latency.as_secs_f64() * 1e3,
                        client_ms: upper.as_secs_f64() * 1e3,
                        server_ms: resp.latency.as_secs_f64() * 1e3,
                    });
                }
                Ok(resp) => out.fail(format!(
                    "request {i}: {} trials of {}",
                    resp.outputs.len(),
                    req.trials
                )),
                Err(e) => out.fail(format!("request {i}: {e}")),
            }
        }

        out.attempted = sched.len() as u64;
        out.wall_s = last_completion
            .duration_since(epoch)
            .as_secs_f64()
            .max(1e-9);
        out.latencies_ms = done.iter().map(|d| d.latency_ms).collect();
        let slo_missed = sched.len() - done.iter().filter(|d| d.latency_ms <= SLO_MS).count();
        self.last = LastRun {
            stats: stats_since(server.stats(), before),
            wall_s: out.wall_s,
            sent: sched.len(),
            completed: done.len(),
            slo_missed,
            slip_ms,
            submit_ns,
            client_ms: done.iter().map(|d| d.client_ms).collect(),
            server_ms: done.iter().map(|d| d.server_ms).collect(),
            first_requests: sched.iter().take(24).copied().collect(),
        };
        out
    }

    fn verify(&mut self, timed: &Timed) -> Vec<String> {
        let samples = self.warm.iter().chain(&timed.samples);
        check_samples(&self.families, samples, false, |f, _| &f.registered)
    }

    fn layers(&mut self, t: &mut Tracer, m: &mut Metrics) -> Result<Vec<(String, Json)>, String> {
        let workers = ServeConfig::default().workers as f64;
        // Stopping the server joins its workers, which flushes their trace
        // buffers: only then is every `serve.chunk` span in the ring.
        self.server = None;
        let last = &self.last;
        let s = &last.stats;
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        m.set("serve.submit_ns_p50", median(&last.submit_ns));
        m.set("serve.server_latency_p50_ms", median(&last.server_ms));
        m.set(
            "serve.server_latency_p99_ms",
            percentile(&last.server_ms, 0.99),
        );
        let snap = distill_telemetry::snapshot();
        m.set(
            "serve.wait_ns_p50",
            snap.histogram("serve.wait_ns")
                .map_or(0.0, |h| h.p50 as f64),
        );
        m.set(
            "serve.service_ns_p50",
            snap.histogram("serve.service_ns")
                .map_or(0.0, |h| h.p50 as f64),
        );
        m.set(
            "serve.worker_busy_frac",
            chunk_busy_ms() / 1e3 / (workers * last.wall_s),
        );
        m.set("serve.spans", s.spans as f64);
        m.set("serve.coalesced_span_frac", per(s.coalesced_spans, s.spans));
        m.set("serve.requests_per_span", per(s.requests, s.spans));
        m.set("serve.trials_per_batch_call", per(s.trials, s.batch_calls));
        m.set("serve.shed", s.shed as f64);
        m.set("serve.expired", s.expired as f64);
        m.set("serve.worker_panics", s.worker_panics as f64);
        m.set("serve.requeued_trials", s.requeued_trials as f64);
        m.set("serve.cache.hits", s.cache.hits as f64);
        m.set("serve.cache.misses", s.cache.misses as f64);
        m.set("serve.cache.evictions", s.cache.evictions as f64);
        let slip_p95 = percentile(&last.slip_ms, 0.95);
        m.set("loadgen.slip_p95_ms", slip_p95);
        m.set("loadgen.offered_rps", last.sent as f64 / last.wall_s);
        m.set("loadgen.achieved_rps", last.completed as f64 / last.wall_s);
        m.set("loadgen.client_observed_p50_ms", median(&last.client_ms));
        m.set(
            "loadgen.slo_miss_frac",
            last.slo_missed as f64 / last.sent.max(1) as f64,
        );

        // The same engine work the requests did, replayed through the
        // layers: each of the first requests as a batched run of its size.
        let fams = LayerFamily::of(&self.families, true);
        let batch = ServeConfig::default().batch;
        let ops: Vec<(usize, RunSpec)> = last
            .first_requests
            .iter()
            .enumerate()
            .map(|(k, r)| {
                let spec = RunSpec::new(self.families[r.family].registered.clone(), r.trials);
                (r.family, spec.with_batch(batch).with_offset(64 * (k + 1)))
            })
            .collect();
        let table = layers::compiled_layers(t, &fams, &ops, &[], m)?;
        Ok(vec![
            ("layers".to_string(), table.to_json()),
            ("loadgen_valid".to_string(), Json::Bool(slip_p95 <= 1.0)),
            ("slo_ms".to_string(), Json::Num(SLO_MS)),
        ])
    }
}

/// Total duration of the `serve.chunk` spans in the telemetry ring, in ms
/// (read from the plain-text summary, the only public view of span totals).
fn chunk_busy_ms() -> f64 {
    distill_telemetry::trace_summary()
        .lines()
        .find(|l| l.trim_start().starts_with("serve.chunk "))
        .and_then(|l| {
            let mut words = l.split_whitespace().skip_while(|w| *w != "total");
            words.nth(1)?.parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}
