//! # htvm-check — deterministic schedule exploration
//!
//! A miniature loom: run a small concurrent scenario under a virtual
//! scheduler that serializes its threads onto one baton and picks every
//! next step with a seeded PRNG. The interleaving — and so every outcome
//! of a synchronization bug — becomes a pure function of the seed:
//! exploration is just trying many seeds, and any failure ships with the
//! one integer needed to reproduce it exactly.
//!
//! Three pieces:
//!
//! * [`prim`] — instrumented drop-ins for atomics, fences, mutexes and
//!   condvars. `htvm-core` swaps these in behind its `check` feature (see
//!   its `chk` shim module), so the *production* deque/sleeper/SyncSlot
//!   code runs unmodified under the explorer.
//! * [`thread`] — scheduler-aware spawn/join for scenario code.
//! * [`mod@explore`] — the driver: [`explore()`](explore::explore) to search,
//!   [`replay()`](explore::replay) to reproduce a seed,
//!   [`check_corpus()`](explore::check_corpus) for committed regression
//!   corpora.
//!
//! What the explorer covers — and what it doesn't: the baton makes every
//! schedule sequentially consistent, so this finds *interleaving* bugs
//! (lost wakeups, torn check-then-act sequences, double-takes, dropped
//! hand-offs) but not *weak-memory* bugs (missing fences that only
//! reorder on hardware). The fence placement of the Chase–Lev deque is
//! justified by Lê et al. (PPoPP 2013) and exercised by the stress CI;
//! the explorer owns everything above that line. See ARCHITECTURE.md
//! §verification.

#![warn(missing_docs)]

pub mod explore;
pub mod prim;
mod sched;
pub mod thread;

pub use explore::{
    check_corpus, explore, random_seeds, random_seeds_from_env, replay, Config, Failure, Report,
};
