//! One deterministic chaos injector for the whole runtime.
//!
//! Every fault the repository can inject — a panicking trial chunk, a
//! mid-build compiler panic, a corrupted artifact read, an execution delay,
//! a distributed-sweep worker kill — is described by one seeded
//! [`ChaosPlan`] and driven from one place, instead of each subsystem
//! growing its own ad-hoc hook. The serving daemon, the distributed sweep
//! and the robustness tests all arm the same schedule, which is what lets a
//! single integer reproduce a whole failure scenario across subsystems.
//!
//! Two consumption styles:
//!
//! * **Process-global hooks** ([`ChaosPlan::install`]): the trial-panic,
//!   build-panic, artifact-corruption and delay faults arm process-global
//!   atomics that the hot paths poll ([`check_panic_trial`],
//!   [`check_panic_build`], [`corrupt_artifact_read`], [`chunk_delay`]).
//!   Each armed fault fires **once** and disarms itself, so a recovery
//!   path re-running the same trial range is not re-injected — exactly the
//!   semantics a requeue-and-reserve scheduler needs.
//! * **Plan-as-value**: the distributed-sweep fields (`kill`, `drop`,
//!   `garble`, `heartbeat_delay_ms`) are read directly off the plan by the
//!   dsweep coordinator, which slices them per worker and ships them over
//!   the wire; they involve no process-global state here.
//!
//! The environment spec ([`ChaosPlan::from_env`]) reads [`CHAOS_ENV`]
//! (`DISTILL_CHAOS`), a comma-separated `key=value` list:
//!
//! | key           | meaning                                              |
//! |---------------|------------------------------------------------------|
//! | `panic=T`     | panic the first chunk covering absolute trial `T`    |
//! | `buildpanic=N`| panic the `N`th artifact build (0-based)             |
//! | `corrupt=N`   | flip one seeded byte of the `N`th artifact read      |
//! | `delay=MS`    | sleep `MS` ms before every trial chunk               |
//! | `kill=W@K`    | dsweep: kill worker `W` after `K` completed leases   |
//! | `drop=W@K`    | dsweep: drop worker `W`'s lease-`K` result, once     |
//! | `garble=W@K`  | dsweep: garble worker `W`'s lease-`K` frame, once    |
//! | `hbdelay=MS`  | dsweep: delay every heartbeat by `MS` ms             |
//! | `seed=S`      | seed for derived randomness (corruption byte index)  |
//!
//! Unset or empty → inert plan; a malformed entry is an **error**, so a
//! typoed schedule cannot silently run fault-free.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// The environment variable [`ChaosPlan::from_env`] reads.
pub const CHAOS_ENV: &str = "DISTILL_CHAOS";

/// A deterministic, seeded fault schedule for the whole process (and, via
/// the dsweep fields, the whole worker topology). Inert by default.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosPlan {
    /// Seed for derived randomness (victim selection, corruption byte
    /// index); recorded so one integer reproduces the schedule.
    pub seed: u64,
    /// Panic the first executed chunk whose window covers this absolute
    /// trial index (fires once, on whatever thread picked the chunk up).
    pub panic_trial: Option<usize>,
    /// Panic the `N`th artifact build after installation (0-based), once.
    pub panic_build: Option<u64>,
    /// Corrupt (one seeded byte flip) the `N`th artifact read after
    /// installation (0-based), once.
    pub corrupt_read: Option<u64>,
    /// Sleep this long before every trial chunk (0 = no delay).
    pub delay_ms: u64,
    /// dsweep: kill worker `.0` after `.1` completed leases.
    pub kill: Option<(u32, u64)>,
    /// dsweep: drop the result of worker `.0`'s lease number `.1`.
    pub drop: Option<(u32, u64)>,
    /// dsweep: garble the result frame of worker `.0`'s lease number `.1`.
    pub garble: Option<(u32, u64)>,
    /// dsweep: delay every heartbeat of every worker by this many ms.
    pub heartbeat_delay_ms: u64,
}

// Process-global armed state. `usize::MAX` / `-1` mean "disarmed"; the
// build/read counters count *down* so the fault fires exactly when the
// armed ordinal is consumed, then the counter parks at -1 (disarmed).
const NO_TRIAL: usize = usize::MAX;
static PANIC_TRIAL: AtomicUsize = AtomicUsize::new(NO_TRIAL);
static BUILD_COUNTDOWN: AtomicI64 = AtomicI64::new(-1);
static READ_COUNTDOWN: AtomicI64 = AtomicI64::new(-1);
static DELAY_MS: AtomicU64 = AtomicU64::new(0);
static SEED: AtomicU64 = AtomicU64::new(0);

/// SplitMix64 step: advances `state` and returns the next value. The one
/// mixing primitive every seeded schedule in the repository derives from
/// (fault victims, corruption offsets, retry jitter).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosPlan {
    /// A seeded kill schedule for a `workers`-wide dsweep topology: derive
    /// a victim worker from `seed` deterministically. The victim always
    /// dies on its *first* lease grab — the coordinator holds assignment
    /// until every spawned worker has connected, so a first lease is the
    /// one grab scheduling cannot starve the victim out of, making the
    /// kill land under any load.
    pub fn seeded(seed: u64, workers: usize) -> ChaosPlan {
        let mut s = seed;
        let victim = (splitmix64(&mut s) % workers.max(1) as u64) as u32;
        ChaosPlan {
            seed,
            kill: Some((victim, 0)),
            ..ChaosPlan::default()
        }
    }

    /// Parse the plan from [`CHAOS_ENV`]. Unset or empty → inert plan.
    ///
    /// # Errors
    /// A malformed spec, so a typoed schedule cannot silently run
    /// fault-free.
    pub fn from_env() -> Result<ChaosPlan, String> {
        env_spec().map_or(Ok(ChaosPlan::default()), |v| ChaosPlan::parse(&v))
    }

    /// Parse the [`CHAOS_ENV`] grammar (exposed for tests and CLIs); see
    /// the module docs for the key table.
    pub fn parse(text: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::default();
        for item in text.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("chaos entry '{item}' is not key=value"))?;
            let worker_at = |v: &str| -> Result<(u32, u64), String> {
                let (w, k) = v
                    .split_once('@')
                    .ok_or_else(|| format!("chaos value '{v}' is not W@K"))?;
                Ok((
                    w.parse().map_err(|_| format!("bad worker index '{w}'"))?,
                    k.parse().map_err(|_| format!("bad lease count '{k}'"))?,
                ))
            };
            let num = |v: &str, what: &str| -> Result<u64, String> {
                v.parse().map_err(|_| format!("bad {what} '{v}'"))
            };
            match key {
                "panic" => plan.panic_trial = Some(num(value, "trial index")? as usize),
                "buildpanic" => plan.panic_build = Some(num(value, "build ordinal")?),
                "corrupt" => plan.corrupt_read = Some(num(value, "read ordinal")?),
                "delay" => plan.delay_ms = num(value, "delay")?,
                "kill" => plan.kill = Some(worker_at(value)?),
                "drop" => plan.drop = Some(worker_at(value)?),
                "garble" => plan.garble = Some(worker_at(value)?),
                "hbdelay" => plan.heartbeat_delay_ms = num(value, "delay")?,
                "seed" => plan.seed = num(value, "seed")?,
                other => return Err(format!("unknown chaos key '{other}'")),
            }
        }
        Ok(plan)
    }

    /// Whether the plan injects nothing anywhere (the seed alone injects
    /// nothing).
    pub fn is_inert(&self) -> bool {
        let inert = ChaosPlan {
            seed: self.seed,
            ..ChaosPlan::default()
        };
        *self == inert
    }

    /// Arm this plan's process-global hooks (trial panic, build panic,
    /// artifact-read corruption, chunk delay). The dsweep fields are *not*
    /// global state — the coordinator consumes them off the plan value —
    /// so installing a pure-dsweep plan is a no-op here. Installing
    /// replaces whatever was armed before; [`disarm`] clears everything.
    pub fn install(&self) {
        SEED.store(self.seed, Ordering::SeqCst);
        PANIC_TRIAL.store(self.panic_trial.unwrap_or(NO_TRIAL), Ordering::SeqCst);
        BUILD_COUNTDOWN.store(
            self.panic_build.map_or(-1, |n| n.min(i64::MAX as u64 - 1) as i64),
            Ordering::SeqCst,
        );
        READ_COUNTDOWN.store(
            self.corrupt_read.map_or(-1, |n| n.min(i64::MAX as u64 - 1) as i64),
            Ordering::SeqCst,
        );
        DELAY_MS.store(self.delay_ms, Ordering::SeqCst);
    }
}

/// Parse the environment spec and [`install`](ChaosPlan::install) it.
/// Returns the plan when one was armed, `None` when no spec is set — an
/// unset environment never clobbers a programmatically installed plan.
///
/// # Errors
/// A malformed spec (see [`ChaosPlan::from_env`]).
pub fn install_from_env() -> Result<Option<ChaosPlan>, String> {
    let Some(spec) = env_spec() else {
        return Ok(None);
    };
    let plan = ChaosPlan::parse(&spec)?;
    plan.install();
    Ok(Some(plan))
}

/// The [`CHAOS_ENV`] value, when set to something non-blank.
fn env_spec() -> Option<String> {
    std::env::var(CHAOS_ENV).ok().filter(|v| !v.trim().is_empty())
}

/// Disarm every process-global hook.
pub fn disarm() {
    ChaosPlan::default().install();
}

/// Arm (or with `None` disarm) a panic on the given absolute trial index
/// without touching the rest of the installed plan, for tests that inject
/// one trial panic and nothing else.
pub fn panic_on_trial(trial: Option<usize>) {
    PANIC_TRIAL.store(trial.unwrap_or(NO_TRIAL), Ordering::SeqCst);
}

/// Called by every trial-chunk executor with its `[lo, lo + n)` window;
/// panics — once, then self-disarms — when the armed trial falls inside
/// it. The self-disarm is what makes recovery paths (a serve requeue, a
/// dsweep lease re-issue, a client retry) run clean instead of re-tripping
/// the same fault forever.
pub fn check_panic_trial(lo: usize, n: usize) {
    let t = PANIC_TRIAL.load(Ordering::SeqCst);
    if t != NO_TRIAL
        && t >= lo
        && t < lo + n
        && PANIC_TRIAL
            .compare_exchange(t, NO_TRIAL, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    {
        panic!("chaos: injected panic on trial {t}");
    }
}

/// Called by artifact builders (the serve cache's compile path); panics on
/// the armed build ordinal, once.
pub fn check_panic_build(what: &str) {
    let fired = BUILD_COUNTDOWN
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| (v >= 0).then(|| v - 1))
        == Ok(0);
    if fired {
        panic!("chaos: injected panic while building artifact for `{what}`");
    }
}

/// Called by [`crate::read_artifact`] on the raw bytes before decoding;
/// flips one seeded byte on the armed read ordinal, once. Returns whether
/// the corruption fired (tests assert on it; production callers ignore it
/// and let the codec's integrity checks reject the bytes).
pub fn corrupt_artifact_read(bytes: &mut [u8]) -> bool {
    let fired = READ_COUNTDOWN
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| (v >= 0).then(|| v - 1))
        == Ok(0);
    if fired && !bytes.is_empty() {
        let mut s = SEED.load(Ordering::SeqCst) ^ bytes.len() as u64;
        let idx = (splitmix64(&mut s) % bytes.len() as u64) as usize;
        bytes[idx] ^= 0x40;
        return true;
    }
    false
}

/// Called by trial-chunk executors before running a chunk; sleeps the
/// armed delay (a scheduler-pressure fault: it widens the window in which
/// queues build up, without changing any output byte).
pub fn chunk_delay() {
    let ms = DELAY_MS.load(Ordering::SeqCst);
    if ms > 0 {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_the_unified_grammar_and_rejects_typos() {
        let plan =
            ChaosPlan::parse("panic=13, buildpanic=0, corrupt=2, delay=5, kill=1@2, seed=9")
                .unwrap();
        assert_eq!(plan.panic_trial, Some(13));
        assert_eq!(plan.panic_build, Some(0));
        assert_eq!(plan.corrupt_read, Some(2));
        assert_eq!(plan.delay_ms, 5);
        assert_eq!(plan.kill, Some((1, 2)));
        assert_eq!(plan.seed, 9);
        assert!(!plan.is_inert());

        // The dsweep-era grammar is a strict subset.
        let old = ChaosPlan::parse("kill=1@2, drop=0@1, garble=1@1, hbdelay=40, seed=3").unwrap();
        assert_eq!(old.drop, Some((0, 1)));
        assert_eq!(old.garble, Some((1, 1)));
        assert_eq!(old.heartbeat_delay_ms, 40);

        assert!(ChaosPlan::parse("").unwrap().is_inert());
        assert!(ChaosPlan::parse("seed=42").unwrap().is_inert());
        assert!(ChaosPlan::parse("kill=oops").is_err());
        assert!(ChaosPlan::parse("explode=1@1").is_err());
        assert!(ChaosPlan::parse("panic").is_err());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_kill_on_first_lease() {
        for seed in [0u64, 1, 0xD5EE9, u64::MAX] {
            let a = ChaosPlan::seeded(seed, 4);
            let b = ChaosPlan::seeded(seed, 4);
            assert_eq!(a, b);
            let (victim, lease) = a.kill.unwrap();
            assert!(victim < 4);
            assert_eq!(lease, 0);
        }
    }

    #[test]
    fn trial_panic_fires_once_then_self_disarms() {
        panic_on_trial(Some(7));
        check_panic_trial(0, 7); // window [0, 7) does not cover 7
        check_panic_trial(8, 100);
        let hit = std::panic::catch_unwind(|| check_panic_trial(0, 8));
        assert!(hit.is_err(), "armed trial inside the window must panic");
        // Fired → disarmed: the recovery rerun of the same window is clean.
        check_panic_trial(0, 8);
        panic_on_trial(None);
    }

    #[test]
    fn corruption_countdown_hits_the_armed_read_only() {
        ChaosPlan {
            corrupt_read: Some(1),
            seed: 5,
            ..Default::default()
        }
        .install();
        let clean = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut first = clean.clone();
        assert!(!corrupt_artifact_read(&mut first), "read 0 is not armed");
        assert_eq!(first, clean);
        let mut second = clean.clone();
        assert!(corrupt_artifact_read(&mut second), "read 1 is armed");
        assert_ne!(second, clean);
        assert_eq!(
            second.iter().zip(&clean).filter(|(a, b)| a != b).count(),
            1,
            "exactly one byte flips"
        );
        let mut third = clean.clone();
        assert!(!corrupt_artifact_read(&mut third), "fired once, then inert");
        assert_eq!(third, clean);
        disarm();
    }

    #[test]
    fn build_panic_countdown_fires_on_the_armed_ordinal() {
        ChaosPlan {
            panic_build: Some(1),
            ..Default::default()
        }
        .install();
        check_panic_build("warmup"); // build 0: clean
        let hit = std::panic::catch_unwind(|| check_panic_build("victim"));
        assert!(hit.is_err(), "build 1 is armed");
        check_panic_build("recovery"); // fired once, then inert
        disarm();
    }
}
