//! The per-[`Interp`](super::Interp) cache of resolved programs and
//! their SSP `forall` plans.
//!
//! A program is resolved once (`super::resolve`); [`PlanCache::module`]
//! finds its module again on every later run by one lookup on the
//! identity of the program's functions, which the module pins, so their
//! allocations cannot be freed and reused while it lives.
//!
//! Lowering a `forall` nest (`super::executor`'s SSP path) depends only
//! on the loop variable, its evaluated bounds, the body AST and the
//! resolver's answers for the body's free names; scheduling and
//! partitioning add the forced `@hint` level and chunk and the worker
//! count (fixed per interpreter); the compiled code's bounds proofs
//! depend only on the trip counts and the array *lengths*. Each `forall`
//! keeps that work in its plan slot ([`PointEntry`]), keyed and guarded
//! so a hit is exactly as if it had been recomputed:
//!
//! * **Point**: the `forall` itself. Modules that share a function share
//!   its slots. A slot also carries the point's knowledge-base key.
//! * **Plan key** ([`PlanKey`]): the evaluated bounds, the forced
//!   `@hint` level and chunk, and the kernel mode.
//! * **Guard** ([`Guard`]): every answer the lowering consumed, by the
//!   slot its name has at the loop ([`Recorder`]; a name unbound there
//!   is unbound on every run). A hit reads those slots and requires
//!   bit-identical numbers (so `-0.0` and `0.0` differ), arrays of
//!   identical length, and an identical alias partition (which recorded
//!   arrays are one region). Futures and unit answers are never cached.
//!
//! Entries hold no [`SharedRegion`]: each run binds its own arrays,
//! through the calling thread's reused table storage ([`take_table`],
//! [`recycle_table`]), which is empty between uses. The cache holds at
//! most [`PLAN_CACHE_CAPACITY`] programs and as many distinct points;
//! past either it evicts the least recently run program. A program with
//! more points than that is resolved on every run.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm_core::SharedRegion;
use htvm_ssp::exec::{times_inline_run, NestExecPlan};
use parking_lot::Mutex;

use super::ast::Program;
use super::compile::CompiledCode;
use super::env::Env;
use super::executor::KernelMode;
use super::interp::Value;
use super::lower::KernelCode;
use super::resolve::{resolve, Forall, Module, Slot};

/// Most programs, and most `forall` program points, one interpreter
/// keeps resolved and planned.
pub const PLAN_CACHE_CAPACITY: usize = 64;

/// Resolved programs and their plans, shared by every run of one
/// interpreter.
#[derive(Default)]
pub(crate) struct PlanCache {
    modules: Mutex<Vec<Arc<Module>>>,
    /// Monotonic use stamp for least-recently-used eviction.
    clock: AtomicU64,
}

/// One program point: its knowledge-base key and latest plan.
pub(crate) struct PointEntry {
    /// The knowledge-base key of the point.
    pub(crate) point: String,
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
    /// Runs so far, for [`times_inline_run`].
    runs: AtomicU64,
}

impl ReadyPlan {
    pub(crate) fn new(trips: Vec<u64>, exec: NestExecPlan, code: CachedCode) -> Self {
        Self {
            trips,
            exec,
            code,
            ns_per_point: AtomicU64::new(0),
            runs: AtomicU64::new(0),
        }
    }

    /// Count a run of the plan, and say whether it times its inline
    /// waves ([`times_inline_run`]). Concurrent runs may count as one,
    /// which only shifts which run is timed.
    pub(crate) fn time_this_run(&self) -> bool {
        let run = self.runs.load(Ordering::Relaxed);
        self.runs.store(run + 1, Ordering::Relaxed);
        times_inline_run(run)
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
    /// The resolved module of `program`, resolving it on a miss.
    pub(crate) fn module(&self, program: &Program) -> Arc<Module> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let found = self
            .modules
            .lock()
            .iter()
            .find(|m| m.is_of(program))
            .cloned();
        if let Some(m) = found {
            m.last_used.store(stamp, Ordering::Relaxed);
            return m;
        }
        let mut module = resolve(program);
        module.last_used = AtomicU64::new(stamp);
        let mut modules = self.modules.lock();
        if let Some(m) = modules.iter().find(|m| m.is_of(program)) {
            // Another run resolved it meanwhile.
            return m.clone();
        }
        for m in modules.iter() {
            module.share_points(m);
        }
        let module = Arc::new(module);
        if module.foralls.len() > PLAN_CACHE_CAPACITY {
            return module;
        }
        modules.push(module.clone());
        let mut evicted = Vec::new();
        while modules.len() > PLAN_CACHE_CAPACITY || distinct_points(&modules) > PLAN_CACHE_CAPACITY
        {
            let lru = (0..modules.len() - 1)
                .min_by_key(|&i| modules[i].last_used.load(Ordering::Relaxed))
                .expect("the new module fits alone");
            evicted.push(modules.remove(lru));
        }
        drop(modules);
        // An evicted module may hold the last reference to a function's
        // AST: free it outside the lock.
        drop(evicted);
        module
    }

    /// Program points currently cached.
    pub(crate) fn len(&self) -> usize {
        distinct_points(&self.modules.lock())
    }
}

/// The distinct plan slots of `modules` (modules that share a function
/// share its slots).
fn distinct_points(modules: &[Arc<Module>]) -> usize {
    let mut points: Vec<*const PointEntry> = modules
        .iter()
        .flat_map(|m| m.points().map(Arc::as_ptr))
        .collect();
    points.sort_unstable();
    points.dedup();
    points.len()
}

impl PointEntry {
    pub(crate) fn new(point: String) -> Self {
        Self {
            point,
            plan: Mutex::new(None),
        }
    }

    /// The cached plan for `key` if its guard holds in `env`, having
    /// written the run's distinct arrays in alias-class order — the
    /// kernel's array table — into `table` (which may hold anything on a
    /// miss).
    pub(crate) fn lookup(
        &self,
        key: &PlanKey,
        env: &Env<'_>,
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

/// One recorded resolver answer, as the guard compares it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    /// A number, by bit pattern.
    Num(u64),
    /// An array: its length and its alias class (the index, in order of
    /// first appearance, of the distinct region it resolved to).
    Arr { len: usize, class: usize },
}

/// The resolver answers one lowering consumed, by slot (see module docs).
pub(crate) struct Guard {
    answers: Vec<(Slot, Answer)>,
}

impl Guard {
    /// Read every recorded slot in `env`, writing the distinct arrays
    /// into `reps` in alias-class order; `Some` on a match.
    fn check(&self, env: &Env<'_>, reps: &mut Vec<SharedRegion>) -> Option<()> {
        reps.clear();
        for (slot, want) in &self.answers {
            if answer(env.get(*slot), reps)? != *want {
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
fn answer(v: Value, reps: &mut Vec<SharedRegion>) -> Option<Answer> {
    Some(match v {
        Value::Num(x) => Answer::Num(x.to_bits()),
        Value::Arr(r) => {
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
        Value::Fut(_) | Value::Unit => return None,
    })
}

/// A name bound at a `forall`: its slot and the value read there.
type Bound = (Slot, Value);

/// A by-name resolver over the names visible at a `forall`, reading
/// their slots in `env`, that records every distinct name it answers —
/// the miss path's half of the guard.
pub(crate) struct Recorder<'e> {
    forall: &'e Forall,
    env: &'e Env<'e>,
    seen: RefCell<Vec<(String, Option<Bound>)>>,
}

impl<'e> Recorder<'e> {
    pub(crate) fn new(forall: &'e Forall, env: &'e Env<'e>) -> Self {
        Self {
            forall,
            env,
            seen: RefCell::new(Vec::new()),
        }
    }

    /// Resolve `name` at the loop once, recording the answer; repeated
    /// reads of a name get the recorded answer, so the lowering sees one
    /// consistent snapshot — exactly what the guard describes — even if
    /// another thread assigns the name meanwhile.
    pub(crate) fn resolve(&self, name: &str) -> Option<Value> {
        let mut seen = self.seen.borrow_mut();
        if let Some((_, v)) = seen.iter().find(|(n, _)| n == name) {
            return v.as_ref().map(|(_, v)| v.clone());
        }
        let v = self
            .forall
            .slot_of(name)
            .map(|slot| (slot, self.env.get(slot)));
        let answer = v.as_ref().map(|(_, v)| v.clone());
        seen.push((name.to_string(), v));
        answer
    }

    /// The guard of everything recorded (`None` if an answer is
    /// uncacheable) plus the distinct arrays in alias-class order.
    pub(crate) fn finish(self) -> (Option<Guard>, Vec<SharedRegion>) {
        let mut reps = Vec::new();
        let mut answers = Some(Vec::new());
        for (slot, v) in self.seen.into_inner().into_iter().filter_map(|(_, v)| v) {
            match answer(v, &mut reps) {
                Some(a) => {
                    if let Some(g) = &mut answers {
                        g.push((slot, a));
                    }
                }
                None => answers = None,
            }
        }
        (answers.map(|answers| Guard { answers }), reps)
    }
}
