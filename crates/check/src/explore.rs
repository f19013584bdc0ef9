//! The exploration driver: run a scenario closure under many seeded
//! schedules, and replay any single seed exactly.
//!
//! A *scenario* is a plain closure; it runs as virtual thread 0, spawns
//! helpers with [`crate::thread::spawn`], and asserts its invariants with
//! ordinary `assert!` — a panic, a deadlock, or an exhausted step budget
//! all surface as a [`Failure`] carrying the seed that produced the
//! schedule plus the trailing operation trace. Feed the seed back through
//! [`replay`] (or commit it to a corpus checked by [`check_corpus`]) and
//! the identical schedule re-runs: scheduling decisions are a pure
//! function of the seed and the program's runnable sets.
//!
//! Explorations are globally serialized (one at a time per process) so
//! any process-wide state shared by the code under test sees traffic from
//! exactly one scheduler, keeping replays deterministic even when the
//! test harness runs test functions on parallel threads.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, Once};

use crate::sched::{self, splitmix64, SchedInner};

/// Bounds for one exploration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Schedules to try per [`explore`] call.
    pub iterations: u64,
    /// Per-schedule step budget; exceeding it fails the schedule as a
    /// livelock (or an unexpectedly huge scenario).
    pub max_steps: u64,
    /// Optional bound on involuntary preemptions per schedule: small
    /// values concentrate the search on few-context-switch interleavings,
    /// where most real bugs live (the DPOR-ish knob).
    pub preemption_bound: Option<u32>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            iterations: 1000,
            max_steps: 50_000,
            preemption_bound: None,
        }
    }
}

/// A failing schedule: everything needed to reproduce and diagnose it.
pub struct Failure {
    /// Scenario name as passed to the driver.
    pub scenario: String,
    /// The exact seed to hand to [`replay`].
    pub seed: u64,
    /// Panic message, deadlock report, or step-budget report.
    pub message: String,
    /// Trailing operation trace of the failing schedule.
    pub trace: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "scenario '{}' failed under seed {:#018x}\n  {}",
            self.scenario, self.seed, self.message
        )?;
        writeln!(
            f,
            "  replay locally: htvm_check::replay(\"{}\", &cfg, {:#018x}, scenario)",
            self.scenario, self.seed
        )?;
        write!(f, "  trace (tail):\n{}", self.trace)
    }
}

impl fmt::Debug for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Summary of a successful exploration.
#[derive(Debug, Clone, Copy)]
pub struct Report {
    /// Schedules executed.
    pub iterations: u64,
    /// Total instrumented steps across all schedules.
    pub steps: u64,
}

static EXPLORE_LOCK: Mutex<()> = Mutex::new(());
static QUIET_HOOK: Once = Once::new();

/// Panics inside virtual threads are captured and reported through
/// [`Failure`]; keep the default hook from spraying expected backtraces
/// (mutant-catching tests *want* failures) while leaving every
/// non-virtual panic's output untouched.
fn install_quiet_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if sched::ctx().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

fn run_once(
    name: &str,
    cfg: &Config,
    seed: u64,
    scenario: &Arc<dyn Fn() + Send + Sync>,
) -> Result<u64, Failure> {
    let sched = SchedInner::new(seed, cfg.max_steps, cfg.preemption_bound);
    let f = scenario.clone();
    let s2 = sched.clone();
    let root = std::thread::Builder::new()
        .name("vthread-0".to_owned())
        .spawn(move || {
            sched::install(s2.clone(), 0);
            s2.wait_until_scheduled(0);
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f())) {
                s2.record_panic(0, payload);
            }
            s2.finish(0);
        })
        .expect("spawn scenario root thread");
    match sched.wait_outcome() {
        Ok(steps) => {
            let _ = root.join();
            Ok(steps)
        }
        Err((message, trace)) => {
            // Leave the failing iteration's threads to free-run teardown;
            // joining could block on a schedule that no longer completes.
            drop(root);
            Err(Failure {
                scenario: name.to_owned(),
                seed,
                message,
                trace,
            })
        }
    }
}

/// Run `cfg.iterations` seeded schedules of `scenario`, deriving each
/// iteration's seed from `base_seed`. Stops at the first failing schedule
/// and returns it; the embedded seed replays that exact schedule.
pub fn explore(
    name: &str,
    cfg: &Config,
    base_seed: u64,
    scenario: impl Fn() + Send + Sync + 'static,
) -> Result<Report, Failure> {
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    install_quiet_hook();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    let mut steps = 0;
    for i in 0..cfg.iterations {
        let seed = splitmix64(base_seed.wrapping_add(i));
        steps += run_once(name, cfg, seed, &f)?;
    }
    Ok(Report {
        iterations: cfg.iterations,
        steps,
    })
}

/// Re-run one exact schedule. This is how a failing seed printed by CI is
/// reproduced locally, and how committed regression corpora are checked.
pub fn replay(
    name: &str,
    cfg: &Config,
    seed: u64,
    scenario: impl Fn() + Send + Sync + 'static,
) -> Result<(), Failure> {
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    install_quiet_hook();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    run_once(name, cfg, seed, &f).map(|_| ())
}

/// Replay every seed in a committed corpus, stopping at the first failure.
pub fn check_corpus(
    name: &str,
    cfg: &Config,
    seeds: &[u64],
    scenario: impl Fn() + Send + Sync + 'static,
) -> Result<(), Failure> {
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    install_quiet_hook();
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(scenario);
    for &seed in seeds {
        run_once(name, cfg, seed, &f)?;
    }
    Ok(())
}

/// `n` fresh seeds from OS entropy (no `rand` dependency: hasher keys are
/// randomized per process). Failing seeds must be printed — and then
/// committed to the corpus.
pub fn random_seeds(n: usize) -> Vec<u64> {
    let state = RandomState::new();
    (0..n)
        .map(|i| {
            let mut h = state.build_hasher();
            h.write_u64(i as u64);
            splitmix64(h.finish())
        })
        .collect()
}

/// Read a seed count from `var` (default `default_n`) and mint that many
/// fresh random seeds — the CI job's "N fresh seeds per run" knob. Set the
/// variable to `0` for fully deterministic runs.
pub fn random_seeds_from_env(var: &str, default_n: usize) -> Vec<u64> {
    let n = std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or(default_n);
    random_seeds(n)
}
