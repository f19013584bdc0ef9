//! The per-[`Interp`](super::Interp) cache of SSP `forall` plans.
//!
//! Lowering a `forall` nest (`super::executor`'s SSP path) depends on
//! four things only: the loop variable, its evaluated bounds, the body
//! AST, and the answers the resolver gave it for the body's free names.
//! Scheduling and partitioning add the forced `@hint` level and chunk
//! and the worker count (fixed per interpreter); the compiled code's
//! bounds proofs depend only on the trip counts and the array
//! *lengths*. This module keeps the result of that work per program
//! point, keyed and guarded so a hit is exactly as if it had been
//! recomputed:
//!
//! * **Point** ([`PlanCache::point`]): keyed by the body's address. Only
//!   bodies found inside the running [`Program`] are cached, and the
//!   entry pins the function holding the body, so the address cannot be
//!   freed and reused while the entry lives: an address names one body. Bodies outside
//!   the program (the copies naive helpers and `spawn` blocks run) and
//!   empty bodies (whose address is shared) are planned uncached. The
//!   entry also carries the knowledge-base key of the point, so a hit
//!   skips formatting the body: every loop looks its `pipeline` hint up
//!   under it, and an `Adaptive` interpreter records its outcome there
//!   (`super::executor`).
//! * **Plan key** ([`PlanKey`]): the evaluated bounds, the forced
//!   `@hint` level and chunk, and the kernel mode.
//! * **Guard** ([`Guard`]): every `(name, answer)` the lowering consumed,
//!   `None` answers included, recorded on the miss by [`Recorder`]. A hit
//!   re-resolves those names and requires bit-identical numbers (so
//!   `-0.0` and `0.0` differ), arrays of identical length, and an
//!   identical alias partition (which recorded arrays are one region).
//!   Futures and unit answers are never cached.
//!
//! Entries hold no [`SharedRegion`]: the guard keeps lengths and alias
//! classes, and each run binds its own arrays, so a finished run's arrays
//! are freed when the run ends. A hit writes the run's array table into
//! the calling thread's reused table storage ([`take_table`],
//! [`recycle_table`]), which is empty between uses. The number of points
//! is capped at [`PLAN_CACHE_CAPACITY`]; inserting past it evicts the
//! least recently used point. Points are found by a linear scan of their
//! addresses: a program has a handful of `forall`s, and the scan hashes
//! nothing.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm_core::SharedRegion;
use htvm_ssp::exec::NestExecPlan;
use parking_lot::Mutex;

use super::ast::{FnDef, Program, Stmt};
use super::compile::CompiledCode;
use super::executor::KernelMode;
use super::interp::{Env, Value};
use super::lower::KernelCode;

/// Most program points one interpreter keeps plans for.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// Program point → cached plan, shared by every run of one interpreter.
#[derive(Default)]
pub(crate) struct PlanCache {
    /// The cached points.
    points: Mutex<Vec<Arc<PointEntry>>>,
    /// Monotonic use stamp for least-recently-used eviction.
    clock: AtomicU64,
}

/// One program point: its knowledge-base key and latest plan.
pub(crate) struct PointEntry {
    /// The body's address and length.
    addr: (usize, usize),
    /// The knowledge-base key of the point (see [`point_key`]).
    pub(crate) point: String,
    /// The function holding the body, keeping its address from reuse
    /// (`None` for an uncached point).
    _pin: Option<Arc<FnDef>>,
    last_used: AtomicU64,
    plan: Mutex<Option<Arc<CachedPlan>>>,
}

/// The non-resolver inputs a cached plan was made for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PlanKey {
    pub(crate) from: i64,
    pub(crate) to: i64,
    pub(crate) level: Option<usize>,
    pub(crate) chunk: Option<u64>,
    pub(crate) mode: KernelMode,
}

/// A plan for one key and guard. `ready: None` caches a bail-out: the
/// nest falls back to the naive executor without re-attempting lowering.
pub(crate) struct CachedPlan {
    key: PlanKey,
    guard: Guard,
    pub(crate) ready: Option<ReadyPlan>,
}

/// Everything the SSP path needs to run a nest, minus its arrays. The
/// kernel's array table is the run's distinct arrays in alias-class
/// order (see [`Guard`]): the lowering numbers its table entries in the
/// order it first resolves each region, which is the order the guard
/// records them in.
pub(crate) struct ReadyPlan {
    /// Trip count per nest level, outermost first.
    pub(crate) trips: Vec<u64>,
    /// The chosen level and its thread partition.
    pub(crate) exec: NestExecPlan,
    /// The kernel, in the interpreter's kernel mode.
    pub(crate) code: CachedCode,
    /// The kernel's cost per point on the calling thread, as an `f64`'s
    /// bits, from the latest run that timed any (0: not measured yet).
    ns_per_point: AtomicU64,
}

impl ReadyPlan {
    pub(crate) fn new(trips: Vec<u64>, exec: NestExecPlan, code: CachedCode) -> Self {
        Self {
            trips,
            exec,
            code,
            ns_per_point: AtomicU64::new(0),
        }
    }

    /// The measured cost per point, if any run has timed one.
    pub(crate) fn ns_per_point(&self) -> Option<f64> {
        match self.ns_per_point.load(Ordering::Relaxed) {
            0 => None,
            bits => Some(f64::from_bits(bits)),
        }
    }

    /// Record a run's timing of `points` points that took `ns` in all.
    pub(crate) fn record_cost(&self, ns: u64, points: u64) {
        if points > 0 {
            let per_point = ns as f64 / points as f64;
            self.ns_per_point
                .store(per_point.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Immutable kernel code, rebound to each run's arrays.
pub(crate) enum CachedCode {
    /// Run-at-a-time compiled code.
    Compiled(Arc<CompiledCode>),
    /// The point-at-a-time tape.
    Interpreted(Arc<KernelCode>),
}

impl PlanCache {
    /// The entry of the `forall var in … { body }` that `program` is
    /// running, creating it on a miss. A body outside `program`, or an
    /// empty one, gets a fresh entry that is not cached.
    pub(crate) fn point(&self, var: &str, body: &[Stmt], program: &Program) -> Arc<PointEntry> {
        let addr = (body.as_ptr() as usize, body.len());
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let found = self.points.lock().iter().find(|e| e.addr == addr).cloned();
        if let Some(e) = found {
            e.last_used.store(stamp, Ordering::Relaxed);
            return e;
        }
        let owner = if body.is_empty() {
            None
        } else {
            owner_of(program, body)
        };
        let cached = owner.is_some();
        let entry = Arc::new(PointEntry {
            addr,
            point: point_key(var, body),
            _pin: owner.cloned(),
            last_used: AtomicU64::new(stamp),
            plan: Mutex::new(None),
        });
        if !cached {
            return entry;
        }
        let mut points = self.points.lock();
        let mut evicted = None;
        if let Some(i) = points.iter().position(|e| e.addr == addr) {
            // Another run inserted the point meanwhile: replace it.
            evicted = Some(points.swap_remove(i));
        } else if points.len() >= PLAN_CACHE_CAPACITY {
            let lru = points
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(i, _)| i);
            evicted = lru.map(|i| points.swap_remove(i));
        }
        points.push(entry.clone());
        drop(points);
        // The evicted entry may hold the last reference to a function's
        // AST: free it outside the lock.
        drop(evicted);
        entry
    }

    /// Program points currently cached.
    pub(crate) fn len(&self) -> usize {
        self.points.lock().len()
    }
}

impl PointEntry {
    /// The cached plan for `key` if its guard holds in `env`, having
    /// written the run's distinct arrays in alias-class order — the
    /// kernel's array table — into `table` (which may hold anything on a
    /// miss).
    pub(crate) fn lookup(
        &self,
        key: &PlanKey,
        env: &Env,
        table: &mut Vec<SharedRegion>,
    ) -> Option<Arc<CachedPlan>> {
        let plan = self.plan.lock().clone()?;
        if plan.key != *key {
            return None;
        }
        plan.guard.check(env, table)?;
        Some(plan)
    }

    /// Cache `ready` (or a bail-out) for `key` under `guard`, replacing
    /// the point's previous plan — or, without a guard (an answer was
    /// uncacheable), leave the cache alone. Returns the plan either way.
    pub(crate) fn store(
        &self,
        key: PlanKey,
        guard: Option<Guard>,
        ready: Option<ReadyPlan>,
    ) -> Arc<CachedPlan> {
        let cacheable = guard.is_some();
        let plan = Arc::new(CachedPlan {
            key,
            guard: guard.unwrap_or(Guard {
                answers: Vec::new(),
            }),
            ready,
        });
        if cacheable {
            *self.plan.lock() = Some(plan.clone());
        }
        plan
    }
}

/// The function of `program` one of whose statement lists is `body` (by
/// address and length, not by value).
fn owner_of<'p>(program: &'p Program, body: &[Stmt]) -> Option<&'p Arc<FnDef>> {
    fn walk(stmts: &[Stmt], body: &[Stmt]) -> bool {
        std::ptr::eq(stmts, body)
            || stmts.iter().any(|s| match s {
                Stmt::If(_, then, els) => walk(then, body) || walk(els, body),
                Stmt::While(_, b)
                | Stmt::For(_, _, _, b)
                | Stmt::Forall { body: b, .. }
                | Stmt::Spawn(b)
                | Stmt::Atomic(b) => walk(b, body),
                _ => false,
            })
    }
    program.fns.iter().find(|f| walk(&f.body, body))
}

/// The knowledge-base key of a program point, stable across executions
/// *and* processes: the induction variable plus a structural fingerprint
/// of the body, so two different loops sharing a variable name cannot
/// exchange hints or recorded outcomes.
fn point_key(var: &str, body: &[Stmt]) -> String {
    use std::fmt::Write;
    let mut h = Fnv1a(0xcbf29ce484222325);
    write!(h, "{body:?}").expect("hashing never fails");
    format!("{var}@{:012x}", h.0 & 0xffff_ffff_ffff)
}

/// FNV-1a over the text written to it — deterministic across processes
/// (unlike the std hasher), so knowledge persisted by one run keys
/// correctly in the next. Hashing the body's `Debug` text as it is
/// written avoids building the string.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.as_bytes() {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
        Ok(())
    }
}

/// One recorded resolver answer, as the guard compares it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    /// The name was unbound.
    Absent,
    /// A number, by bit pattern.
    Num(u64),
    /// An array: its length and its alias class (the index, in order of
    /// first appearance, of the distinct region it resolved to).
    Arr { len: usize, class: usize },
}

/// The resolver answers one lowering consumed (see module docs).
pub(crate) struct Guard {
    answers: Vec<(String, Answer)>,
}

impl Guard {
    /// Re-resolve every recorded name in `env`, writing the distinct
    /// arrays into `reps` in alias-class order; `Some` on a match.
    fn check(&self, env: &Env, reps: &mut Vec<SharedRegion>) -> Option<()> {
        reps.clear();
        for (name, want) in &self.answers {
            if answer(env.get(name), reps)? != *want {
                return None;
            }
        }
        Some(())
    }
}

thread_local! {
    /// This thread's reused array-table storage: empty between uses, so
    /// it keeps no region alive.
    static TABLE: Cell<Vec<SharedRegion>> = const { Cell::new(Vec::new()) };
}

/// An empty array table, with the capacity this thread's earlier tables
/// left behind (a table in use elsewhere on the thread leaves none).
pub(crate) fn take_table() -> Vec<SharedRegion> {
    TABLE.with(Cell::take)
}

/// Release a table's regions and keep its storage for this thread's
/// next [`take_table`].
pub(crate) fn recycle_table(mut table: Vec<SharedRegion>) {
    table.clear();
    TABLE.with(|t| t.set(table));
}

/// Classify one resolver answer, appending a newly seen region to
/// `reps`. `None` for answers that are never cached (futures, unit).
fn answer(v: Option<Value>, reps: &mut Vec<SharedRegion>) -> Option<Answer> {
    Some(match v {
        None => Answer::Absent,
        Some(Value::Num(x)) => Answer::Num(x.to_bits()),
        Some(Value::Arr(r)) => {
            let len = r.len();
            let class = match reps.iter().position(|x| x.same_region(&r)) {
                Some(c) => c,
                None => {
                    reps.push(r);
                    reps.len() - 1
                }
            };
            Answer::Arr { len, class }
        }
        Some(Value::Fut(_) | Value::Unit) => return None,
    })
}

/// A resolver over `env` that records every distinct name it answers —
/// the miss path's half of the guard.
pub(crate) struct Recorder<'e> {
    env: &'e Env,
    seen: RefCell<Vec<(String, Option<Value>)>>,
}

impl<'e> Recorder<'e> {
    pub(crate) fn new(env: &'e Env) -> Self {
        Self {
            env,
            seen: RefCell::new(Vec::new()),
        }
    }

    /// Resolve `name` in the environment once, recording the answer;
    /// repeated reads of a name get the recorded answer, so the lowering
    /// sees one consistent snapshot — exactly what the guard describes —
    /// even if another thread assigns the name meanwhile.
    pub(crate) fn resolve(&self, name: &str) -> Option<Value> {
        let mut seen = self.seen.borrow_mut();
        if let Some((_, v)) = seen.iter().find(|(n, _)| n == name) {
            return v.clone();
        }
        let v = self.env.get(name);
        seen.push((name.to_string(), v.clone()));
        v
    }

    /// The guard of everything recorded (`None` if an answer is
    /// uncacheable) plus the distinct arrays in alias-class order.
    pub(crate) fn finish(self) -> (Option<Guard>, Vec<SharedRegion>) {
        let mut reps = Vec::new();
        let mut answers = Some(Vec::new());
        for (name, v) in self.seen.into_inner() {
            match answer(v, &mut reps) {
                Some(a) => {
                    if let Some(g) = &mut answers {
                        g.push((name, a));
                    }
                }
                None => answers = None,
            }
        }
        (answers.map(|answers| Guard { answers }), reps)
    }
}
