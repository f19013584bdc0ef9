//! Deterministic schedule exploration of the lock-free spine.
//!
//! These tests drive `htvm-core`'s concurrency kernels — the Chase–Lev
//! deque, the segmented injector, the epoch-stamped sleeper registry, and
//! the EARTH-style sync slot — through the `htvm-check` explorer. The core
//! is built with `--features check`, so every atomic op, fence, lock and
//! condvar wait inside those kernels is a schedule point.
//!
//! Three kinds of test live here:
//!
//! 1. **Invariant sweeps**: correct protocols must pass *every* explored
//!    schedule (no job loss, no double-take, no lost wakeup, fire exactly
//!    once).
//! 2. **Mutant catches**: deliberately broken variants (committed behind
//!    `cfg(check)` in core) must be *caught*, proving the explorer actually
//!    covers the race each real protocol defends against. Their failing
//!    seeds are committed below.
//! 3. **Regression seeds**: schedules that exposed real bugs fixed in this
//!    repo, replayed forever. `SEED_SYNC_SLOT_LOST_RACER` reproduced the
//!    `SyncSlot::set_action` accounting race (a post-crossing racer could
//!    silently drop another racer's armed action, return `true`, and never
//!    tick `late_actions`) before `sync.rs` re-checked `remaining` under
//!    the action lock.
//!
//! To reproduce a CI-printed seed locally:
//!
//! ```text
//! htvm_check::replay("<scenario>", &cfg, 0x<seed>, scenario_fn)
//! ```
//!
//! See ARCHITECTURE.md §verification for what this style of exploration
//! does and does not cover (sequentially consistent interleavings only;
//! weak-memory arguments stay with Lê et al. and the stress suites).

use std::sync::atomic::{AtomicUsize, Ordering as StdOrdering};
use std::sync::{Arc, Mutex as StdMutex};

use htvm_check::{check_corpus, explore, random_seeds_from_env, replay, Config};
use htvm_core::deque::{Injector, Steal, Worker};
use htvm_core::sleepers::{ParkOutcome, Sleepers};
use htvm_core::sync::SyncSlot;
use htvm_core::{AdmissionQueue, AdmitError, CancelToken};

// ---------------------------------------------------------------------------
// Committed seed corpus.
//
// Every constant below is a seed that either (a) exposed a real bug fixed
// in this repo, or (b) catches a committed mutant — proof the explorer
// covers that protocol's load-bearing race. Replayed by `committed_corpus_*`
// tests on every run. Schedules are a pure function of (seed, program), so
// these replay identically on any machine.
// ---------------------------------------------------------------------------

/// Real bug: `SyncSlot::set_action` racer accounting (see module docs).
/// Under the pre-fix code this schedule made two racers on a zero-count
/// slot both return `true` while only one action ran and `late_actions`
/// stayed 0. Must pass forever now.
const SEED_SYNC_SLOT_LOST_RACER: u64 = 0x203cfdbad06e70dc;

/// Catches `Sleepers::park_mutant_no_recheck` (check-then-park race,
/// invariant 2): the worker registers after the spawner's wake scan and
/// sleeps through the wakeup — a deadlock under this schedule.
const SEED_SLEEPERS_MUTANT_LOST_WAKEUP: u64 = 0x98603fddc26f6e07;

/// Catches `Stealer::steal_mutant_no_cas` (double-take): two thieves read
/// the same `top` and both claim the same element.
const SEED_DEQUE_MUTANT_DOUBLE_TAKE: u64 = 0xf8b44b6aadf07fd5;

/// Serving-layer seeds (PR 7): the admission handoff and the
/// cancel-vs-dispatch race both pass their full sweeps under these base
/// seeds; committed so the exact explored schedules replay forever.
const SEED_ADMISSION_HANDOFF: u64 = 0x6c62272e07bb0142;
const SEED_CANCEL_VS_DISPATCH: u64 = 0x27d4eb2f165667c5;

/// Elastic retire, side 1: the retire flag racing a worker's park
/// (`Pool::retire_in`'s flag → bump → `Sleepers::wake_worker` handshake
/// against the park abort re-check). No schedule may strand the retiring
/// worker asleep or leave a token behind.
const SEED_RETIRE_VS_PARK: u64 = 0x9e3779b97f4a7c15;

/// Elastic retire, side 2: a retire racing a concurrent spawn's
/// publish/bump/wake. The retiring worker may absorb the spawn's wake
/// token and exit without searching; the retire path's follow-up wake
/// (`finish_retire`'s unconditional re-wake after the republish) must
/// re-deliver it so the surviving worker finds the job — a lost job
/// here deadlocks the schedule.
const SEED_RETIRE_VS_SPAWN: u64 = 0x2545f4914f6cdd1d;

/// Supervision seeds (PR 10): worker death (`DeathWatch`) racing a
/// retire request for the same slot, a death's deque republish racing
/// a parked peer, and a dispatcher death racing live submissions.
/// Full sweeps pass under these base seeds; committed so the exact
/// explored schedules replay forever.
const SEED_DEATH_VS_RETIRE: u64 = 0xd1342543de82ef95;
const SEED_DEATH_VS_SPAWN: u64 = 0x94d049bb133111eb;
const SEED_DISPATCHER_RESTART_VS_SUBMIT: u64 = 0xbf58476d1ce4e5b7;

/// Submit-side dispatch passes racing the dispatcher thread's predicate
/// wait (`submit_pass_vs_dispatcher_scenario`). The full sweep passes
/// under this base seed; committed so the exact explored schedules
/// replay forever.
const SEED_SUBMIT_PASS_VS_DISPATCHER: u64 = 0x5851f42d4c957f2d;

/// Shared per-test setup: install the between-iterations reset of core's
/// process-wide epoch registry (required for seed-exact replay of deque
/// scenarios) and build a bounds config.
fn cfg(iterations: u64) -> Config {
    htvm_check::set_iteration_reset(htvm_core::deque::check_reset_epochs);
    Config {
        iterations,
        max_steps: 40_000,
        preemption_bound: None,
    }
}

// ---------------------------------------------------------------------------
// Chase–Lev deque: owner pop vs thief steal, including buffer growth.
// ---------------------------------------------------------------------------

/// Fill the buffer to capacity serially, then race the owner (pushing a
/// few more — the next push grows the buffer while thieves may be mid-read
/// on the old one — then draining) against two thieves. Every pushed value
/// must be claimed exactly once, across pops and steals combined.
fn deque_pop_vs_steal_scenario() {
    const FILL: u64 = 64; // MIN_BUFFER_CAP: next push forces a grow.
    const EXTRA: u64 = 3;
    let w = Worker::new_lifo();
    for v in 0..FILL {
        w.push(v);
    }
    let claimed = Arc::new(StdMutex::new(Vec::new()));
    let thieves: Vec<_> = (0..2)
        .map(|_| {
            let s = w.stealer();
            let claimed = claimed.clone();
            htvm_check::thread::spawn(move || {
                let mut mine = Vec::new();
                for _ in 0..4 {
                    if let Steal::Success(v) = s.steal() {
                        mine.push(v);
                    }
                }
                claimed.lock().unwrap().extend(mine);
            })
        })
        .collect();
    for v in FILL..FILL + EXTRA {
        w.push(v);
    }
    // Drain: the owner is the only producer, so a `None` means empty for
    // good (thieves only remove).
    let mut popped = Vec::new();
    while let Some(v) = w.pop() {
        popped.push(v);
    }
    for t in thieves {
        t.join();
    }
    let mut all = claimed.lock().unwrap().clone();
    all.extend(popped);
    all.sort_unstable();
    let expect: Vec<u64> = (0..FILL + EXTRA).collect();
    assert_eq!(all, expect, "every value claimed exactly once");
}

#[test]
fn deque_pop_vs_steal_no_loss_no_dup() {
    explore(
        "deque-pop-vs-steal",
        &cfg(150),
        0x9e3779b97f4a7c15,
        deque_pop_vs_steal_scenario,
    )
    .unwrap_or_else(|f| panic!("{f}"));
}

/// The last-element race Lê et al.'s SeqCst fence exists for: one element,
/// the owner pops while two thieves steal. Exactly one side may win it.
fn deque_last_element_scenario() {
    let w = Worker::new_lifo();
    w.push(7u64);
    let wins = Arc::new(AtomicUsize::new(0));
    let thieves: Vec<_> = (0..2)
        .map(|_| {
            let s = w.stealer();
            let wins = wins.clone();
            htvm_check::thread::spawn(move || {
                for _ in 0..2 {
                    if let Steal::Success(v) = s.steal() {
                        assert_eq!(v, 7);
                        wins.fetch_add(1, StdOrdering::SeqCst);
                    }
                }
            })
        })
        .collect();
    if w.pop().is_some() {
        wins.fetch_add(1, StdOrdering::SeqCst);
    }
    for t in thieves {
        t.join();
    }
    assert_eq!(
        wins.load(StdOrdering::SeqCst),
        1,
        "the single element must be claimed exactly once"
    );
}

#[test]
fn deque_last_element_claimed_exactly_once() {
    explore(
        "deque-last-element",
        &cfg(400),
        0x2545f4914f6cdd1d,
        deque_last_element_scenario,
    )
    .unwrap_or_else(|f| panic!("{f}"));
}

/// Satellite: `len()` under the owner's speculative `bottom` decrement.
/// `Worker::pop` stores `bottom - 1` *before* learning the deque is empty;
/// a watcher sampling between that store and the restore sees `b < t`.
/// The snapshot must saturate to 0, never wrap to 2^64-ish garbage.
fn deque_len_saturation_scenario() {
    let w = Worker::new_lifo();
    let s = w.stealer();
    let watcher = htvm_check::thread::spawn(move || {
        for _ in 0..5 {
            let n = s.len();
            assert!(n <= 1, "len snapshot wrapped: {n}");
            assert!(s.len() != usize::MAX, "len underflowed");
        }
    });
    // Pop on an empty (then one-element) deque: each attempt opens the
    // inconsistent b < t window for the watcher to land in.
    for round in 0..3u64 {
        if round == 1 {
            w.push(1);
        }
        let _ = w.pop();
        assert!(w.len() <= 1, "owner-side len snapshot wrapped");
    }
    watcher.join();
}

#[test]
fn deque_len_saturates_during_speculative_pop() {
    explore(
        "deque-len-saturation",
        &cfg(300),
        0x853c49e6748fea9b,
        deque_len_saturation_scenario,
    )
    .unwrap_or_else(|f| panic!("{f}"));
}

/// Mutant catch: the CAS-less steal must be caught double-taking. This is
/// the race the real `Stealer::steal`'s `top` CAS defends against.
fn deque_mutant_double_take_scenario() {
    let w = Worker::new_lifo();
    for v in 0..3u64 {
        w.push(v);
    }
    let claimed = Arc::new(StdMutex::new(Vec::new()));
    let thieves: Vec<_> = (0..2)
        .map(|_| {
            let s = w.stealer();
            let claimed = claimed.clone();
            htvm_check::thread::spawn(move || {
                let mut mine = Vec::new();
                for _ in 0..2 {
                    if let Steal::Success(v) = s.steal_mutant_no_cas() {
                        mine.push(v);
                    }
                }
                claimed.lock().unwrap().extend(mine);
            })
        })
        .collect();
    for t in thieves {
        t.join();
    }
    let mut got = claimed.lock().unwrap().clone();
    while let Some(v) = w.pop() {
        got.push(v);
    }
    got.sort_unstable();
    assert_eq!(got, vec![0, 1, 2], "an element was double-taken or lost");
}

#[test]
fn mutant_steal_without_cas_is_caught() {
    let failure = explore(
        "deque-mutant-double-take",
        &cfg(300),
        0xda942042e4dd58b5,
        deque_mutant_double_take_scenario,
    )
    .expect_err("the explorer must catch the CAS-less steal double-taking");
    assert!(
        failure.message.contains("double-taken or lost"),
        "unexpected failure mode: {failure}"
    );
    eprintln!("deque mutant caught under seed {:#018x}", failure.seed);
}

// ---------------------------------------------------------------------------
// Segmented injector: exactly-once FIFO, across a segment boundary.
// ---------------------------------------------------------------------------

/// Push one batch spanning two segments, then race two consumers draining
/// it. Each value must be consumed exactly once, and each consumer's local
/// sequence must be increasing (global FIFO implies per-consumer
/// subsequences are ordered).
fn injector_exactly_once_scenario() {
    const N: u64 = 34; // SEGMENT_CAP is 32: the batch crosses a boundary.
    let inj = Arc::new(Injector::new());
    inj.push_batch((0..N).collect());
    let taken = Arc::new(StdMutex::new(Vec::new()));
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let inj = inj.clone();
            let taken = taken.clone();
            htvm_check::thread::spawn(move || {
                let mut mine: Vec<u64> = Vec::new();
                loop {
                    match inj.steal() {
                        Steal::Success(v) => mine.push(v),
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    }
                }
                assert!(
                    mine.windows(2).all(|p| p[0] < p[1]),
                    "per-consumer order not FIFO: {mine:?}"
                );
                taken.lock().unwrap().extend(mine);
            })
        })
        .collect();
    for c in consumers {
        c.join();
    }
    let mut all = taken.lock().unwrap().clone();
    all.sort_unstable();
    let expect: Vec<u64> = (0..N).collect();
    assert_eq!(all, expect, "every injected value consumed exactly once");
}

#[test]
fn injector_exactly_once_fifo_across_segments() {
    explore(
        "injector-exactly-once",
        &cfg(150),
        0xbf58476d1ce4e5b9,
        injector_exactly_once_scenario,
    )
    .unwrap_or_else(|f| panic!("{f}"));
}

// ---------------------------------------------------------------------------
// Sleepers: the check-then-park race (invariants 2–4 of the protocol).
// ---------------------------------------------------------------------------

/// One worker races `observe → search → park` against a spawner's
/// `publish → bump → wake`. No schedule may lose the wakeup: the worker
/// always ends up consuming the job, and no token or registration is left
/// behind.
fn sleepers_no_lost_wakeup_scenario() {
    let s = Arc::new(Sleepers::new(1, 1));
    let job = Arc::new(htvm_check::prim::AtomicBool::new(false));
    let outcome = Arc::new(StdMutex::new(None));
    let worker = {
        let s = s.clone();
        let job = job.clone();
        let outcome = outcome.clone();
        htvm_check::thread::spawn(move || {
            loop {
                let epoch = s.observe_epoch();
                // Final work search.
                if job.swap(false, std::sync::atomic::Ordering::SeqCst) {
                    return;
                }
                let out = s.park(0, 0, epoch, || false);
                *outcome.lock().unwrap() = Some(out);
                // Woken / Withdrawn / TokenConsumed / StrayToken all mean
                // the same thing to a worker: search again.
            }
        })
    };
    // The spawner side, in protocol order: publish, bump, wake.
    job.store(true, std::sync::atomic::Ordering::SeqCst);
    s.bump_epoch();
    let woke = s.wake_one_in(0);
    worker.join();
    assert_eq!(s.parked(), 0, "no registration left behind");
    // Token hygiene (invariant 4): a fresh park attempt must not find a
    // stray token. `aborting` makes it withdraw instead of sleeping.
    let out = s.park(0, 0, s.observe_epoch(), || true);
    assert_eq!(out, ParkOutcome::Withdrawn, "stray token left in a mailbox");
    assert_eq!(s.parked(), 0);
    // Accounting consistency: a targeted wake implies the worker was (or
    // was about to be) registered; it must then have consumed the token.
    if woke.is_some() {
        let got = outcome
            .lock()
            .unwrap()
            .expect("worker parked at least once");
        assert!(
            matches!(got, ParkOutcome::Woken | ParkOutcome::TokenConsumed),
            "a delivered token must be consumed by its registration, got {got:?}"
        );
    }
}

#[test]
fn sleepers_park_never_loses_a_wakeup() {
    // Also under a tight preemption bound: the interesting interleavings
    // of this protocol need few context switches.
    for bound in [None, Some(3)] {
        let c = Config {
            preemption_bound: bound,
            ..cfg(400)
        };
        explore(
            "sleepers-no-lost-wakeup",
            &c,
            0x94d049bb133111eb,
            sleepers_no_lost_wakeup_scenario,
        )
        .unwrap_or_else(|f| panic!("(bound {bound:?}) {f}"));
    }
}

/// Mutant catch: the same scenario, but the worker parks through
/// `park_mutant_no_recheck` — the classic check-then-park bug the epoch
/// re-check (invariant 2) exists for. Some schedule must deadlock.
fn sleepers_mutant_scenario() {
    let s = Arc::new(Sleepers::new(1, 1));
    let job = Arc::new(htvm_check::prim::AtomicBool::new(false));
    let worker = {
        let s = s.clone();
        let job = job.clone();
        htvm_check::thread::spawn(move || {
            loop {
                let epoch = s.observe_epoch();
                if job.swap(false, std::sync::atomic::Ordering::SeqCst) {
                    return;
                }
                // BUG (deliberate, committed in core behind cfg(check)):
                // no post-registration epoch re-check.
                let _ = s.park_mutant_no_recheck(0, 0, epoch, || false);
            }
        })
    };
    job.store(true, std::sync::atomic::Ordering::SeqCst);
    s.bump_epoch();
    let _ = s.wake_one_in(0);
    worker.join();
}

#[test]
fn mutant_park_without_recheck_is_caught() {
    let failure = explore(
        "sleepers-mutant-lost-wakeup",
        &cfg(400),
        0xd6e8feb86659fd93,
        sleepers_mutant_scenario,
    )
    .expect_err("the explorer must catch the check-then-park race");
    assert!(
        failure.message.contains("deadlock"),
        "expected a lost-wakeup deadlock, got: {failure}"
    );
    eprintln!("sleepers mutant caught under seed {:#018x}", failure.seed);
}

/// Elastic retire vs park: models `run_worker`'s loop-top retire check
/// plus `Pool::flag_retiring`'s two-sided handshake (flag SeqCst → epoch
/// bump → targeted `wake_worker`). Whatever the interleaving, the worker
/// must terminate — either its park abort sees the flag, its epoch
/// re-check fires, or the targeted wake finds its registration — and no
/// token may be left in a mailbox afterwards (invariant 4).
fn retire_vs_park_scenario() {
    let s = Arc::new(Sleepers::new(1, 1));
    let retiring = Arc::new(htvm_check::prim::AtomicBool::new(false));
    let worker = {
        let s = s.clone();
        let retiring = retiring.clone();
        htvm_check::thread::spawn(move || loop {
            let epoch = s.observe_epoch();
            if retiring.load(std::sync::atomic::Ordering::SeqCst) {
                return;
            }
            let _ = s.park(0, 0, epoch, || {
                retiring.load(std::sync::atomic::Ordering::SeqCst)
            });
        })
    };
    // The retire side, in protocol order: flag, bump, targeted wake.
    retiring.store(true, std::sync::atomic::Ordering::SeqCst);
    s.bump_epoch();
    let _ = s.wake_worker(0, 0);
    worker.join();
    assert_eq!(s.parked(), 0, "no registration left behind");
    // Token hygiene: the slot's mailbox must be clean for its next
    // occupant (a grown worker reusing the slot).
    let out = s.park(0, 0, s.observe_epoch(), || true);
    assert_eq!(out, ParkOutcome::Withdrawn, "stray token left in a mailbox");
}

#[test]
fn retiring_worker_never_sleeps_through_its_retire() {
    for bound in [None, Some(3)] {
        let c = Config {
            preemption_bound: bound,
            ..cfg(400)
        };
        explore(
            "retire-vs-park",
            &c,
            SEED_RETIRE_VS_PARK,
            retire_vs_park_scenario,
        )
        .unwrap_or_else(|f| panic!("(bound {bound:?}) {f}"));
    }
}

/// Elastic retire vs spawn: worker 0 is retired while a spawn publishes
/// a job with the usual publish → bump → wake sequence. The spawn's
/// token may land on worker 0, which exits without searching (the
/// retire check precedes the job search, as in `run_worker`); the
/// retire path's follow-up wake must then re-deliver the signal so
/// worker 1 finds the job. The job must execute exactly once, and a
/// schedule that strands it while worker 1 sleeps deadlocks the joins.
fn retire_vs_spawn_scenario() {
    let s = Arc::new(Sleepers::new(1, 2));
    let job = Arc::new(htvm_check::prim::AtomicBool::new(false));
    let retiring = Arc::new(htvm_check::prim::AtomicBool::new(false));
    let stop = Arc::new(htvm_check::prim::AtomicBool::new(false));
    let executed = Arc::new(AtomicUsize::new(0));
    // Worker 0: a normal search loop with the loop-top retire check.
    let w0 = {
        let (s, job, retiring, executed) =
            (s.clone(), job.clone(), retiring.clone(), executed.clone());
        htvm_check::thread::spawn(move || loop {
            let epoch = s.observe_epoch();
            if retiring.load(std::sync::atomic::Ordering::SeqCst) {
                return;
            }
            if job.swap(false, std::sync::atomic::Ordering::SeqCst) {
                executed.fetch_add(1, StdOrdering::SeqCst);
                continue;
            }
            let _ = s.park(0, 0, epoch, || {
                retiring.load(std::sync::atomic::Ordering::SeqCst)
            });
        })
    };
    // Worker 1: survives the retire; must drain the job before stopping
    // (observing `stop` re-searches once — the publish precedes the stop
    // store, so a stale pre-publish search cannot leak the job out).
    let w1 = {
        let (s, job, stop, executed) = (s.clone(), job.clone(), stop.clone(), executed.clone());
        htvm_check::thread::spawn(move || loop {
            let epoch = s.observe_epoch();
            if job.swap(false, std::sync::atomic::Ordering::SeqCst) {
                executed.fetch_add(1, StdOrdering::SeqCst);
                continue;
            }
            if stop.load(std::sync::atomic::Ordering::SeqCst) {
                if job.swap(false, std::sync::atomic::Ordering::SeqCst) {
                    executed.fetch_add(1, StdOrdering::SeqCst);
                }
                return;
            }
            let _ = s.park(1, 0, epoch, || {
                stop.load(std::sync::atomic::Ordering::SeqCst)
            });
        })
    };
    // Spawn side: publish, bump, wake — the token may land on either.
    job.store(true, std::sync::atomic::Ordering::SeqCst);
    s.bump_epoch();
    let _ = s.wake_one_in(0);
    // Retire side for worker 0: flag, bump, targeted wake…
    retiring.store(true, std::sync::atomic::Ordering::SeqCst);
    s.bump_epoch();
    let _ = s.wake_worker(0, 0);
    // …then the republish follow-up (`finish_retire`'s unconditional
    // re-wake): without this line some schedules strand the job while
    // worker 1 sleeps, and the explorer reports the deadlock.
    s.bump_epoch();
    let _ = s.wake_one_in(0);
    w0.join();
    // Shutdown handshake for the survivor.
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    s.bump_epoch();
    let _ = s.wake_one_in(0);
    w1.join();
    assert_eq!(
        executed.load(StdOrdering::SeqCst),
        1,
        "the spawned job must run exactly once across the retire"
    );
    assert_eq!(s.parked(), 0, "no registration left behind");
    for w in 0..2 {
        let out = s.park(w, 0, s.observe_epoch(), || true);
        assert_eq!(out, ParkOutcome::Withdrawn, "stray token in mailbox {w}");
    }
}

#[test]
fn retire_racing_a_spawn_never_loses_the_job() {
    for bound in [None, Some(3)] {
        let c = Config {
            preemption_bound: bound,
            ..cfg(400)
        };
        explore(
            "retire-vs-spawn",
            &c,
            SEED_RETIRE_VS_SPAWN,
            retire_vs_spawn_scenario,
        )
        .unwrap_or_else(|f| panic!("(bound {bound:?}) {f}"));
    }
}

// ---------------------------------------------------------------------------
// SyncSlot: fire-exactly-once and racer accounting (the real bug).
// ---------------------------------------------------------------------------

/// The regression scenario for the `set_action` accounting race. On a
/// zero-count slot the threshold is crossed from birth, so there is no
/// legitimate pre-crossing replacement window: of N racing `set_action`
/// calls, exactly one may win (its action runs, it gets `true`) and every
/// other must be told it lost (`false` + one `late_actions` tick).
///
/// Pre-fix, a racer descheduled between arming and its `remaining` check
/// could have its armed action silently replaced by a later racer — it
/// returned `true`, its action never ran, and `late_actions` never moved.
fn sync_slot_zero_count_racers_scenario() {
    let slot = SyncSlot::new(0);
    let ran = Arc::new(AtomicUsize::new(0));
    let trues = Arc::new(AtomicUsize::new(0));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let slot = slot.clone();
            let ran = ran.clone();
            let trues = trues.clone();
            htvm_check::thread::spawn(move || {
                let r2 = ran.clone();
                if slot.set_action(move || {
                    r2.fetch_add(1, StdOrdering::SeqCst);
                }) {
                    trues.fetch_add(1, StdOrdering::SeqCst);
                }
            })
        })
        .collect();
    for r in racers {
        r.join();
    }
    assert_eq!(ran.load(StdOrdering::SeqCst), 1, "exactly one action runs");
    assert_eq!(
        trues.load(StdOrdering::SeqCst),
        1,
        "exactly one racer may be told it won"
    );
    assert_eq!(
        slot.late_actions(),
        1,
        "every losing racer must tick late_actions exactly once"
    );
    assert!(slot.has_fired());
}

#[test]
fn sync_slot_zero_count_racers_account_exactly_once() {
    explore(
        "sync-slot-racer-accounting",
        &cfg(400),
        0xca01f9dd41c34a10,
        sync_slot_zero_count_racers_scenario,
    )
    .unwrap_or_else(|f| panic!("{f}"));
}

/// `set_action` racing the crossing signal on a count-1 slot: whatever the
/// schedule, exactly one action runs, the slot ends fired, and every racer
/// either got `true` or was counted late — never neither, never both.
fn sync_slot_signal_vs_set_action_scenario() {
    let slot = SyncSlot::new(1);
    let ran = Arc::new(AtomicUsize::new(0));
    let trues = Arc::new(AtomicUsize::new(0));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let slot = slot.clone();
            let ran = ran.clone();
            let trues = trues.clone();
            htvm_check::thread::spawn(move || {
                let r2 = ran.clone();
                if slot.set_action(move || {
                    r2.fetch_add(1, StdOrdering::SeqCst);
                }) {
                    trues.fetch_add(1, StdOrdering::SeqCst);
                }
            })
        })
        .collect();
    assert!(slot.signal(), "the only signal crosses the threshold");
    for r in racers {
        r.join();
    }
    assert_eq!(ran.load(StdOrdering::SeqCst), 1, "fire exactly once");
    assert!(slot.has_fired());
    assert_eq!(
        trues.load(StdOrdering::SeqCst) as u64 + slot.late_actions(),
        2,
        "each racer is either armed-or-ran (true) or counted late"
    );
}

#[test]
fn sync_slot_signal_vs_set_action_fires_exactly_once() {
    explore(
        "sync-slot-signal-vs-set-action",
        &cfg(400),
        0xaef17502108ef2d9,
        sync_slot_signal_vs_set_action_scenario,
    )
    .unwrap_or_else(|f| panic!("{f}"));
}

/// SSP-style wavefront: slot A's continuation signals slot B (the next
/// wavefront), while both slots are over-signalled by racing producers.
/// The wave must advance exactly once end to end.
fn sync_slot_wavefront_scenario() {
    let waves = Arc::new(AtomicUsize::new(0));
    let w2 = waves.clone();
    let slot_b = SyncSlot::with_action(1, move || {
        w2.fetch_add(1, StdOrdering::SeqCst);
    });
    let b2 = slot_b.clone();
    let slot_a = SyncSlot::with_action(1, move || {
        b2.signal();
    });
    let producers: Vec<_> = (0..2)
        .map(|_| {
            let a = slot_a.clone();
            htvm_check::thread::spawn(move || {
                a.signal(); // over-signalled: only one crossing
            })
        })
        .collect();
    for p in producers {
        p.join();
    }
    assert_eq!(
        waves.load(StdOrdering::SeqCst),
        1,
        "the wavefront must advance exactly once"
    );
    assert!(slot_a.has_fired() && slot_b.has_fired());
    assert_eq!(slot_a.late_actions() + slot_b.late_actions(), 0);
}

#[test]
fn sync_slot_wavefront_advances_exactly_once() {
    explore(
        "sync-slot-wavefront",
        &cfg(300),
        0x2b2e160e9dfc2cfb,
        sync_slot_wavefront_scenario,
    )
    .unwrap_or_else(|f| panic!("{f}"));
}

// ---------------------------------------------------------------------------
// Serving layer (PR 7): admission-queue handoff and cancel-vs-dispatch.
// ---------------------------------------------------------------------------

/// Producer→consumer handoff through the bounded admission queue, racing
/// a close: every *accepted* value must be consumed exactly once and in
/// FIFO order (popped live or drained after close), every refused push
/// must hand the item back typed, and a push after close must be refused
/// as `Closed` — no value may be lost, duplicated, or reordered,
/// whatever the interleaving of push, pop, close and drain.
fn admission_handoff_scenario() {
    let q = Arc::new(AdmissionQueue::new(2));
    let accepted = Arc::new(StdMutex::new(Vec::new()));
    let producer = {
        let q = q.clone();
        let accepted = accepted.clone();
        htvm_check::thread::spawn(move || {
            let mut acc = Vec::new();
            for v in 0..4u64 {
                match q.try_push(v) {
                    Ok(()) => acc.push(v),
                    Err(AdmitError::Full(back)) => {
                        assert_eq!(back, v, "typed refusal returns the item")
                    }
                    Err(AdmitError::Closed(_)) => unreachable!("nobody closed yet"),
                }
            }
            q.close();
            match q.try_push(99) {
                Err(AdmitError::Closed(back)) => assert_eq!(back, 99),
                other => panic!("push after close must refuse Closed, got {other:?}"),
            }
            accepted.lock().unwrap().extend(acc);
        })
    };
    // The consumer races the producer with a bounded number of pop
    // attempts (popping works on a closed queue), then drains the rest.
    let mut got = Vec::new();
    for _ in 0..6 {
        if let Some(v) = q.pop() {
            got.push(v);
        }
    }
    producer.join();
    got.extend(q.drain());
    let accepted = accepted.lock().unwrap().clone();
    assert_eq!(
        got, accepted,
        "handoff must deliver exactly the accepted values, in FIFO order"
    );
    assert_eq!(q.pushed(), accepted.len() as u64);
    assert!(q.is_empty(), "drain after close leaves nothing behind");
}

#[test]
fn admission_handoff_delivers_exactly_once_in_order() {
    explore(
        "admission-queue-handoff",
        &cfg(300),
        SEED_ADMISSION_HANDOFF,
        admission_handoff_scenario,
    )
    .unwrap_or_else(|f| panic!("{f}"));
}

/// The serving layer's load-bearing race: a request sitting in the
/// admission queue is cancelled *while* the dispatcher moves it. The
/// dispatcher mirrors `htvm_serve::server::dispatch_one` (skip if
/// already resolved, else claim at the grain boundary) for the first
/// request and the shed path (`resolve_rejected`: claim then reject)
/// for the second. Whatever the schedule, each request must resolve to
/// **exactly one** of executed / rejected / cancelled — never zero
/// (a hung client), never two (a double resolution).
fn cancel_vs_dispatch_scenario() {
    const CANCELLED: usize = 1;
    const EXECUTED: usize = 1 << 8;
    const REJECTED: usize = 1 << 16;
    let q = Arc::new(AdmissionQueue::new(2));
    let resolutions: Arc<Vec<AtomicUsize>> =
        Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
    let tokens: Vec<CancelToken> = (0..2)
        .map(|i| {
            let t = CancelToken::new();
            let resolutions = resolutions.clone();
            t.on_cancelled(move || {
                resolutions[i].fetch_add(CANCELLED, StdOrdering::SeqCst);
            });
            q.try_push((i, t.clone()))
                .unwrap_or_else(|_| panic!("fits"));
            t
        })
        .collect();
    let canceller = {
        let tokens = tokens.clone();
        htvm_check::thread::spawn(move || {
            for t in &tokens {
                t.cancel();
            }
        })
    };
    // Dispatch path (first pop): skip if the cancel hook already
    // resolved it, otherwise the grain-boundary claim decides.
    if let Some((i, t)) = q.pop() {
        if !t.is_cancelled() && t.try_claim() {
            resolutions[i].fetch_add(EXECUTED, StdOrdering::SeqCst);
        }
    }
    // Shed path (second pop): claim-then-reject; losing the claim means
    // the concurrent cancel already resolved it and the shed is a no-op.
    if let Some((i, t)) = q.pop() {
        if t.try_claim() {
            resolutions[i].fetch_add(REJECTED, StdOrdering::SeqCst);
        }
    }
    canceller.join();
    for (i, r) in resolutions.iter().enumerate() {
        let r = r.load(StdOrdering::SeqCst);
        assert!(
            r == CANCELLED || r == EXECUTED || r == REJECTED,
            "request {i} must resolve exactly once, got {r:#x}"
        );
    }
}

#[test]
fn cancelled_in_queue_resolves_exactly_one_of_executed_or_rejected() {
    explore(
        "cancel-vs-dispatch",
        &cfg(400),
        SEED_CANCEL_VS_DISPATCH,
        cancel_vs_dispatch_scenario,
    )
    .unwrap_or_else(|f| panic!("{f}"));
}

/// Submit-side dispatch passes vs the dispatcher thread's predicate
/// wait, mirroring `htvm_serve::server`: a pass runs under one lock and
/// moves queued requests into the pool while in-flight capacity is
/// free; a submitter pushes, then runs a pass if `try_lock` wins and
/// kicks the dispatcher otherwise (or if its pass left runnable work);
/// a completion that frees capacity at the cap kicks; a kick sets a
/// flag under the wake lock and notifies; the dispatcher runs a pass,
/// then waits only while no kick is pending, and clears the flag
/// before its next pass. Capacity is 1 and one request completes, so
/// the second request goes out only through a pass after that
/// completion — a lost kick strands it.
///
/// Invariants: every admitted request is dispatched exactly once, and
/// the dispatcher never commits to a wait while runnable work is queued
/// with no kick pending and no submitter or completer still on its way
/// to a pass or a kick (`obligations`). A kick that is only a bare
/// notify, without the flag, breaks the second: the notify lands
/// between the dispatcher's pass and its wait and is lost.
struct PassModel {
    queue: AdmissionQueue<usize>,
    in_flight: htvm_check::prim::AtomicUsize,
    /// Threads between admitting work (or freeing capacity) and their
    /// pass or kick.
    obligations: htvm_check::prim::AtomicUsize,
    pass_lock: htvm_check::prim::Mutex<()>,
    pending: htvm_check::prim::Mutex<bool>,
    wake_cv: htvm_check::prim::Condvar,
    shutdown: htvm_check::prim::AtomicBool,
    /// Total dispatched, for the completer and the final wait.
    out: htvm_check::prim::Mutex<usize>,
    out_cv: htvm_check::prim::Condvar,
    per_request: Vec<AtomicUsize>,
}

const PASS_MODEL_CAP: usize = 1;

impl PassModel {
    /// `server::pass`, reduced to the cap and the queue. Returns `more`.
    fn pass(&self) -> bool {
        use std::sync::atomic::Ordering::SeqCst;
        while self.in_flight.load(SeqCst) < PASS_MODEL_CAP {
            let Some(i) = self.queue.pop() else { break };
            self.in_flight.fetch_add(1, SeqCst);
            self.per_request[i].fetch_add(1, StdOrdering::SeqCst);
            *self.out.lock() += 1;
            self.out_cv.notify_all();
        }
        self.in_flight.load(SeqCst) < PASS_MODEL_CAP && !self.queue.is_empty()
    }

    /// `ServerInner::kick`.
    fn kick(&self) {
        let mut pending = self.pending.lock();
        if !*pending {
            *pending = true;
            self.wake_cv.notify_one();
        }
    }

    /// `TenantHandle::submit_with_token` after admission:
    /// `dispatch_or_kick`.
    fn submit(&self, i: usize) {
        use std::sync::atomic::Ordering::SeqCst;
        self.obligations.fetch_add(1, SeqCst);
        self.queue.try_push(i).unwrap_or_else(|_| panic!("fits"));
        let more = match self.pass_lock.try_lock() {
            Some(_g) => self.pass(),
            None => true,
        };
        if more {
            self.kick();
        }
        self.obligations.fetch_sub(1, SeqCst);
    }

    /// `FinishGuard::drop`'s capacity release.
    fn complete(&self) {
        use std::sync::atomic::Ordering::SeqCst;
        self.obligations.fetch_add(1, SeqCst);
        if self.in_flight.fetch_sub(1, SeqCst) >= PASS_MODEL_CAP {
            self.kick();
        }
        self.obligations.fetch_sub(1, SeqCst);
    }

    /// `server::dispatcher_loop`, minus the fault point and backoffs.
    fn dispatcher(&self) {
        use std::sync::atomic::Ordering::SeqCst;
        loop {
            let stopping = self.shutdown.load(SeqCst);
            let more = {
                let _g = self.pass_lock.lock();
                self.pass()
            };
            if stopping {
                return;
            }
            if more {
                continue;
            }
            let mut pending = self.pending.lock();
            if !*pending {
                let runnable =
                    self.in_flight.load(SeqCst) < PASS_MODEL_CAP && !self.queue.is_empty();
                assert!(
                    !runnable || self.obligations.load(SeqCst) > 0,
                    "dispatcher waits with work queued and no kick pending"
                );
                self.wake_cv.wait(&mut pending);
            }
            *pending = false;
        }
    }

    fn await_out(&self, n: usize) {
        let mut out = self.out.lock();
        while *out < n {
            self.out_cv.wait(&mut out);
        }
    }
}

fn submit_pass_vs_dispatcher_scenario() {
    let m = Arc::new(PassModel {
        queue: AdmissionQueue::new(2),
        in_flight: htvm_check::prim::AtomicUsize::new(0),
        obligations: htvm_check::prim::AtomicUsize::new(0),
        pass_lock: htvm_check::prim::Mutex::new(()),
        pending: htvm_check::prim::Mutex::new(false),
        wake_cv: htvm_check::prim::Condvar::new(),
        shutdown: htvm_check::prim::AtomicBool::new(false),
        out: htvm_check::prim::Mutex::new(0),
        out_cv: htvm_check::prim::Condvar::new(),
        per_request: (0..2).map(|_| AtomicUsize::new(0)).collect(),
    });
    let dispatcher = {
        let m = m.clone();
        htvm_check::thread::spawn(move || m.dispatcher())
    };
    let submitters: Vec<_> = (0..2)
        .map(|i| {
            let m = m.clone();
            htvm_check::thread::spawn(move || m.submit(i))
        })
        .collect();
    // The one completion: whichever request went out first finishes,
    // freeing the only slot.
    let completer = {
        let m = m.clone();
        htvm_check::thread::spawn(move || {
            m.await_out(1);
            m.complete();
        })
    };
    for s in submitters {
        s.join();
    }
    completer.join();
    // No kick from here on until both are out: a stranded request
    // deadlocks this wait, and the explorer reports it.
    m.await_out(2);
    m.shutdown.store(true, std::sync::atomic::Ordering::SeqCst);
    m.kick();
    dispatcher.join();
    for (i, r) in m.per_request.iter().enumerate() {
        assert_eq!(
            r.load(StdOrdering::SeqCst),
            1,
            "request {i} must be dispatched exactly once"
        );
    }
    assert!(m.queue.is_empty(), "nothing left queued");
}

#[test]
fn submit_pass_and_dispatcher_never_strand_a_request() {
    for bound in [None, Some(3)] {
        let c = Config {
            preemption_bound: bound,
            ..cfg(400)
        };
        explore(
            "submit-pass-vs-dispatcher",
            &c,
            SEED_SUBMIT_PASS_VS_DISPATCHER,
            submit_pass_vs_dispatcher_scenario,
        )
        .unwrap_or_else(|f| panic!("(bound {bound:?}) {f}"));
    }
}

// ---------------------------------------------------------------------------
// Supervision (PR 10): worker death vs retire/spawn, dispatcher restart.
// ---------------------------------------------------------------------------

/// Per-slot lifecycle states, mirroring `htvm_core::native`.
const SLOT_ACTIVE: u8 = 0;
const SLOT_RETIRING: u8 = 1;
const SLOT_VACANT: u8 = 2;

/// Worker death vs retire: models `DeathWatch::drop` racing
/// `Pool::retire_in`'s `Active → Retiring` request on the same slot.
/// The dying thread republishes its deque, then either sees the retire
/// flag (completing the retire on the dead worker's behalf) or
/// respawns into the still-`Active` slot — in which case the respawned
/// worker's loop-top check / park-abort must observe the flag instead.
/// Whatever the interleaving: the retire completes exactly once, the
/// slot ends `Vacant`, the dead worker's jobs are republished exactly
/// once, and no mailbox token is left behind.
fn death_vs_retire_scenario() {
    let s = Arc::new(Sleepers::new(1, 1));
    let slot = Arc::new(htvm_check::prim::AtomicU8::new(SLOT_ACTIVE));
    let retires = Arc::new(AtomicUsize::new(0));
    let respawns = Arc::new(AtomicUsize::new(0));
    let republished = Arc::new(StdMutex::new(Vec::new()));
    let worker = {
        let (s, slot) = (s.clone(), slot.clone());
        let (retires, respawns) = (retires.clone(), respawns.clone());
        let republished = republished.clone();
        htvm_check::thread::spawn(move || {
            // The worker dies mid-loop: `DeathWatch` fires on its
            // thread with two jobs still queued. Republish them with
            // the retire's bump-then-wake sequence (plus the
            // unconditional rotated re-wake).
            let deque = Worker::new_lifo();
            deque.push(7u64);
            deque.push(8u64);
            let mut repub = Vec::new();
            while let Some(v) = deque.pop() {
                repub.push(v);
            }
            s.bump_epoch();
            for _ in 0..repub.len() {
                let _ = s.wake_one_in(0);
            }
            let _ = s.wake_one_in(0); // rotated re-wake
            republished.lock().unwrap().extend(repub);
            // Death-completes-retire path: the reservation already left
            // the gauge, so finish the retire instead of respawning.
            if slot.load(StdOrdering::SeqCst) == SLOT_RETIRING {
                slot.store(SLOT_VACANT, StdOrdering::SeqCst);
                retires.fetch_add(1, StdOrdering::SeqCst);
                return;
            }
            // Heal path: respawn into the same still-Active slot. The
            // respawn runs sequenced-after the death protocol (thread
            // spawn), so modelling it on the same check-thread
            // preserves the happens-before shape. Its loop is
            // `run_worker`'s: loop-top retire check, then park with
            // the retire re-check as the abort condition.
            respawns.fetch_add(1, StdOrdering::SeqCst);
            loop {
                let epoch = s.observe_epoch();
                if slot.load(StdOrdering::SeqCst) == SLOT_RETIRING {
                    slot.store(SLOT_VACANT, StdOrdering::SeqCst);
                    retires.fetch_add(1, StdOrdering::SeqCst);
                    return;
                }
                let _ = s.park(0, 0, epoch, || {
                    slot.load(StdOrdering::SeqCst) == SLOT_RETIRING
                });
            }
        })
    };
    // Retire side (`Pool::retire_in`), protocol order: flag the slot,
    // bump, targeted wake. The request may land before the death check
    // (the dying thread completes it) or after (the respawned worker
    // must see it — its park-abort or epoch re-check may be the only
    // thing standing between this schedule and a deadlock).
    let won = slot
        .compare_exchange(
            SLOT_ACTIVE,
            SLOT_RETIRING,
            StdOrdering::SeqCst,
            StdOrdering::SeqCst,
        )
        .is_ok();
    s.bump_epoch();
    let _ = s.wake_worker(0, 0);
    worker.join();
    assert!(won, "nothing else requests retire on an Active slot");
    assert_eq!(
        retires.load(StdOrdering::SeqCst),
        1,
        "the retire completes exactly once — by the death or its respawn"
    );
    assert_eq!(slot.load(StdOrdering::SeqCst), SLOT_VACANT);
    assert!(respawns.load(StdOrdering::SeqCst) <= 1);
    let mut repub = republished.lock().unwrap().clone();
    repub.sort_unstable();
    assert_eq!(repub, vec![7, 8], "dead worker's jobs republished once");
    assert_eq!(s.parked(), 0, "no registration left behind");
    let out = s.park(0, 0, s.observe_epoch(), || true);
    assert_eq!(out, ParkOutcome::Withdrawn, "stray token left in a mailbox");
}

#[test]
fn worker_death_racing_a_retire_completes_it_exactly_once() {
    for bound in [None, Some(3)] {
        let c = Config {
            preemption_bound: bound,
            ..cfg(400)
        };
        explore(
            "death-vs-retire",
            &c,
            SEED_DEATH_VS_RETIRE,
            death_vs_retire_scenario,
        )
        .unwrap_or_else(|f| panic!("(bound {bound:?}) {f}"));
    }
}

/// Worker death vs a parked peer: worker 0 dies with a job in its
/// deque while worker 1 is (maybe) asleep. `DeathWatch`'s republish
/// must move the job to the shared injector and re-deliver the wake
/// (bump, per-job wake, rotated re-wake) so the survivor — or the
/// respawned worker itself — claims it. The job must be claimed
/// exactly once (the injector's CAS arbitration), and every mailbox
/// must end clean.
fn death_vs_spawn_scenario() {
    let s = Arc::new(Sleepers::new(1, 2));
    let inj = Arc::new(Injector::new());
    let stop = Arc::new(htvm_check::prim::AtomicBool::new(false));
    let executed = Arc::new(AtomicUsize::new(0));
    // Worker 0 dies with job 42 queued; its death protocol republishes
    // and re-wakes, then the respawned worker searches once before
    // exiting (the real heal keeps searching; one pass is enough to
    // model the respawn racing the survivor for the republished job).
    let w0 = {
        let (s, inj, executed) = (s.clone(), inj.clone(), executed.clone());
        htvm_check::thread::spawn(move || {
            let deque = Worker::new_lifo();
            deque.push(42u64);
            while let Some(v) = deque.pop() {
                inj.push(v);
            }
            s.bump_epoch();
            let _ = s.wake_one_in(0); // one republished job, one wake
            let _ = s.wake_one_in(0); // rotated re-wake
            loop {
                match inj.steal() {
                    Steal::Success(_) => {
                        executed.fetch_add(1, StdOrdering::SeqCst);
                    }
                    Steal::Empty => {}
                    Steal::Retry => continue,
                }
                break;
            }
        })
    };
    // Worker 1: a survivor's search loop — steal, or park with the
    // stop re-check; observing stop re-searches once (the republish
    // precedes the stop store, so a stale pre-publish search cannot
    // leak the job out).
    let w1 = {
        let (s, inj, stop, executed) = (s.clone(), inj.clone(), stop.clone(), executed.clone());
        htvm_check::thread::spawn(move || loop {
            let epoch = s.observe_epoch();
            match inj.steal() {
                Steal::Success(_) => {
                    executed.fetch_add(1, StdOrdering::SeqCst);
                    continue;
                }
                Steal::Retry => continue,
                Steal::Empty => {}
            }
            if stop.load(StdOrdering::SeqCst) {
                loop {
                    match inj.steal() {
                        Steal::Success(_) => {
                            executed.fetch_add(1, StdOrdering::SeqCst);
                        }
                        Steal::Retry => continue,
                        Steal::Empty => {}
                    }
                    break;
                }
                return;
            }
            let _ = s.park(1, 0, epoch, || stop.load(StdOrdering::SeqCst));
        })
    };
    w0.join();
    // Shutdown handshake for the survivor.
    stop.store(true, StdOrdering::SeqCst);
    s.bump_epoch();
    let _ = s.wake_one_in(0);
    w1.join();
    assert_eq!(
        executed.load(StdOrdering::SeqCst),
        1,
        "the dead worker's job must run exactly once"
    );
    assert_eq!(s.parked(), 0, "no registration left behind");
    for w in 0..2 {
        let out = s.park(w, 0, s.observe_epoch(), || true);
        assert_eq!(out, ParkOutcome::Withdrawn, "stray token in mailbox {w}");
    }
}

#[test]
fn worker_death_never_loses_a_queued_job() {
    for bound in [None, Some(3)] {
        let c = Config {
            preemption_bound: bound,
            ..cfg(400)
        };
        explore(
            "death-vs-spawn",
            &c,
            SEED_DEATH_VS_SPAWN,
            death_vs_spawn_scenario,
        )
        .unwrap_or_else(|f| panic!("(bound {bound:?}) {f}"));
    }
}

/// Dispatcher restart vs submit: the dispatcher parks waiting for
/// work, a client's submit (push, bump, wake) races its death — the
/// fault fires *before* any pop, as in `dispatcher_loop`, so no
/// request is ever held by the dying thread — and the successor
/// spawned by the drop guard (sequenced-after on the same
/// check-thread) must drain everything the client admitted. Every
/// accepted request resolves exactly once; the close handshake must
/// terminate the successor whatever the schedule.
fn dispatcher_restart_vs_submit_scenario() {
    let s = Arc::new(Sleepers::new(1, 1));
    let q = Arc::new(AdmissionQueue::<(usize, CancelToken)>::new(4));
    let resolutions: Arc<Vec<AtomicUsize>> =
        Arc::new((0..2).map(|_| AtomicUsize::new(0)).collect());
    let restarts = Arc::new(AtomicUsize::new(0));
    let dispatcher = {
        let (s, q) = (s.clone(), q.clone());
        let (resolutions, restarts) = (resolutions.clone(), restarts.clone());
        htvm_check::thread::spawn(move || {
            // Incarnation 1: parks waiting for work (a submit's kick
            // may rouse it), then dies before popping anything.
            let epoch = s.observe_epoch();
            if !q.is_closed() && q.is_empty() {
                let _ = s.park(0, 0, epoch, || q.is_closed());
            }
            restarts.fetch_add(1, StdOrdering::SeqCst);
            // Incarnation 2 (the drop guard's successor): the standard
            // pop-then-park loop — it always drains before parking, so
            // a kick token consumed by the dead incarnation cannot
            // strand admitted work.
            loop {
                let epoch = s.observe_epoch();
                let mut progressed = false;
                while let Some((i, t)) = q.pop() {
                    if t.try_claim() {
                        resolutions[i].fetch_add(1, StdOrdering::SeqCst);
                    }
                    progressed = true;
                }
                if q.is_closed() && q.is_empty() {
                    return;
                }
                if !progressed {
                    let _ = s.park(0, 0, epoch, || q.is_closed());
                }
            }
        })
    };
    // The client: two submits, each with its kick (push, bump, wake),
    // then the shutdown close with a final kick.
    for i in 0..2usize {
        q.try_push((i, CancelToken::new()))
            .expect("queue fits both");
        s.bump_epoch();
        let _ = s.wake_one_in(0);
    }
    q.close();
    s.bump_epoch();
    let _ = s.wake_one_in(0);
    dispatcher.join();
    for (i, r) in resolutions.iter().enumerate() {
        assert_eq!(
            r.load(StdOrdering::SeqCst),
            1,
            "request {i} must resolve exactly once across the restart"
        );
    }
    assert_eq!(restarts.load(StdOrdering::SeqCst), 1);
    assert!(q.is_empty(), "nothing left behind after the close drain");
    assert_eq!(s.parked(), 0, "no registration left behind");
    let out = s.park(0, 0, s.observe_epoch(), || true);
    assert_eq!(out, ParkOutcome::Withdrawn, "stray token left in a mailbox");
}

#[test]
fn dispatcher_restart_never_strands_an_admitted_request() {
    for bound in [None, Some(3)] {
        let c = Config {
            preemption_bound: bound,
            ..cfg(400)
        };
        explore(
            "dispatcher-restart-vs-submit",
            &c,
            SEED_DISPATCHER_RESTART_VS_SUBMIT,
            dispatcher_restart_vs_submit_scenario,
        )
        .unwrap_or_else(|f| panic!("(bound {bound:?}) {f}"));
    }
}

// ---------------------------------------------------------------------------
// Committed corpus + fresh random seeds (the CI job's two halves).
// ---------------------------------------------------------------------------

/// Regression seeds for bugs fixed in this repo: these schedules failed
/// once; they must pass forever.
#[test]
fn committed_corpus_regressions_pass() {
    check_corpus(
        "sync-slot-racer-accounting",
        &cfg(1),
        &[SEED_SYNC_SLOT_LOST_RACER],
        sync_slot_zero_count_racers_scenario,
    )
    .unwrap_or_else(|f| panic!("regression resurfaced: {f}"));
    check_corpus(
        "admission-queue-handoff",
        &cfg(1),
        &[SEED_ADMISSION_HANDOFF],
        admission_handoff_scenario,
    )
    .unwrap_or_else(|f| panic!("regression resurfaced: {f}"));
    check_corpus(
        "cancel-vs-dispatch",
        &cfg(1),
        &[SEED_CANCEL_VS_DISPATCH],
        cancel_vs_dispatch_scenario,
    )
    .unwrap_or_else(|f| panic!("regression resurfaced: {f}"));
    check_corpus(
        "retire-vs-park",
        &cfg(1),
        &[SEED_RETIRE_VS_PARK],
        retire_vs_park_scenario,
    )
    .unwrap_or_else(|f| panic!("regression resurfaced: {f}"));
    check_corpus(
        "retire-vs-spawn",
        &cfg(1),
        &[SEED_RETIRE_VS_SPAWN],
        retire_vs_spawn_scenario,
    )
    .unwrap_or_else(|f| panic!("regression resurfaced: {f}"));
    check_corpus(
        "death-vs-retire",
        &cfg(1),
        &[SEED_DEATH_VS_RETIRE],
        death_vs_retire_scenario,
    )
    .unwrap_or_else(|f| panic!("regression resurfaced: {f}"));
    check_corpus(
        "death-vs-spawn",
        &cfg(1),
        &[SEED_DEATH_VS_SPAWN],
        death_vs_spawn_scenario,
    )
    .unwrap_or_else(|f| panic!("regression resurfaced: {f}"));
    check_corpus(
        "dispatcher-restart-vs-submit",
        &cfg(1),
        &[SEED_DISPATCHER_RESTART_VS_SUBMIT],
        dispatcher_restart_vs_submit_scenario,
    )
    .unwrap_or_else(|f| panic!("regression resurfaced: {f}"));
    check_corpus(
        "submit-pass-vs-dispatcher",
        &cfg(1),
        &[SEED_SUBMIT_PASS_VS_DISPATCHER],
        submit_pass_vs_dispatcher_scenario,
    )
    .unwrap_or_else(|f| panic!("regression resurfaced: {f}"));
}

/// Mutant seeds: these schedules must keep *failing* against the committed
/// mutants — if one stops failing, the explorer lost coverage of that race.
#[test]
fn committed_corpus_mutant_seeds_still_catch() {
    let f = replay(
        "sleepers-mutant-lost-wakeup",
        &cfg(1),
        SEED_SLEEPERS_MUTANT_LOST_WAKEUP,
        sleepers_mutant_scenario,
    )
    .expect_err("committed seed no longer catches the check-then-park mutant");
    assert!(f.message.contains("deadlock"), "{f}");
    let f = replay(
        "deque-mutant-double-take",
        &cfg(1),
        SEED_DEQUE_MUTANT_DOUBLE_TAKE,
        deque_mutant_double_take_scenario,
    )
    .expect_err("committed seed no longer catches the CAS-less steal mutant");
    assert!(f.message.contains("double-taken or lost"), "{f}");
}

/// The CI job's fresh-seed half: a few schedules from OS entropy on every
/// invariant scenario. A failure prints the seed (commit it to the corpus
/// above). `HTVM_CHECK_RANDOM_SEEDS=0` makes this fully deterministic.
#[test]
fn fresh_random_seeds_hold_invariants() {
    let seeds = random_seeds_from_env("HTVM_CHECK_RANDOM_SEEDS", 2);
    let scenarios: &[(&str, fn())] = &[
        ("deque-pop-vs-steal", deque_pop_vs_steal_scenario),
        ("deque-last-element", deque_last_element_scenario),
        ("injector-exactly-once", injector_exactly_once_scenario),
        ("sleepers-no-lost-wakeup", sleepers_no_lost_wakeup_scenario),
        ("retire-vs-park", retire_vs_park_scenario),
        ("retire-vs-spawn", retire_vs_spawn_scenario),
        ("death-vs-retire", death_vs_retire_scenario),
        ("death-vs-spawn", death_vs_spawn_scenario),
        (
            "dispatcher-restart-vs-submit",
            dispatcher_restart_vs_submit_scenario,
        ),
        ("admission-queue-handoff", admission_handoff_scenario),
        ("cancel-vs-dispatch", cancel_vs_dispatch_scenario),
        (
            "submit-pass-vs-dispatcher",
            submit_pass_vs_dispatcher_scenario,
        ),
        (
            "sync-slot-racer-accounting",
            sync_slot_zero_count_racers_scenario,
        ),
        (
            "sync-slot-signal-vs-set-action",
            sync_slot_signal_vs_set_action_scenario,
        ),
    ];
    for &seed in &seeds {
        for (name, scenario) in scenarios {
            let c = Config {
                iterations: 25,
                ..cfg(0)
            };
            explore(name, &c, seed, scenario)
                .unwrap_or_else(|f| panic!("fresh-seed failure — commit this seed!\n{f}"));
        }
    }
}
