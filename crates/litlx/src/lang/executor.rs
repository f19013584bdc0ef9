//! Pluggable `forall` execution strategies.
//!
//! The interpreter no longer hardwires a loop path: every non-profiled
//! `forall` goes through `run_forall`, which picks between two
//! `LoopExecutor` strategies:
//!
//! * `NaiveExecutor` — the historical flat fan-out: helper SGTs claim
//!   chunks from an atomic cursor under a hint-selected schedule
//!   (`static` / `chunk` / `guided`), the calling thread helping. A
//!   failing loop reports its lowest failing iteration's error.
//! * `SspExecutor` — the §3.3 pipeline: lower the nest to
//!   `htvm_ssp::ir::LoopNest` ([`super::lower`]), schedule every level,
//!   pick one, partition it into thread groups, and run each group as
//!   one tile of the kernel — spread on the native pool with domain
//!   placement, or inline on the calling thread when spreading does not
//!   pay or the groups form a wavefront (`htvm_ssp::exec`). Anything the
//!   lowering cannot prove affine bails back to the naive path.
//!
//! The choice is the adaptive loop of §4.1: `@hint(pipeline)` pragmas are
//! written into the knowledge base and force the path; recorded outcomes
//! (wall time per path, fed back after every loop) decide when both have
//! been measured; a static heuristic covers cold starts. The session
//! [`LoopStrategy`] caps how adventurous the interpreter may be.
//!
//! # Plan reuse
//!
//! The SSP path's planning work — lowering, scheduling every level,
//! partitioning and compiling — is done once per program point and kept
//! in the interpreter's plan cache (`super::plan_cache`), shared by all
//! of its runs. A cached plan holds the nest's trip counts, the chosen
//! level and partition, and the kernel code, but no arrays: each run
//! binds its own.
//!
//! * **Key.** The point is the body's address. Only bodies inside the
//!   running program are cached, and the entry pins the function holding
//!   the body, so the address cannot be reused while the entry lives; the copies of a
//!   body that naive helpers and `spawn` blocks run are planned uncached.
//!   The plan is keyed by the evaluated bounds, the forced `@hint` level
//!   and chunk, and the [`KernelMode`].
//! * **Guard.** On a miss, the lowering's resolver is wrapped to record
//!   every `(name, answer)` it consumed, unbound names included. A hit
//!   re-resolves those names and requires bit-identical numbers (so
//!   `-0.0` and `0.0` differ), arrays of identical length, and an
//!   identical alias partition (which recorded arrays are one region).
//!   Future and unit answers are never cached.
//! * **Why a hit is sound.** Lowering is a pure function of
//!   `(var, from, to, body)` and the resolver's answers; scheduling and
//!   partitioning are pure functions of the lowered nest, the worker
//!   count and the forced hints; the compiled kernel's bounds proofs
//!   depend only on the trip counts and the array lengths, and its
//!   monomorphized shapes on which arrays are distinct. A hit therefore
//!   yields exactly the plan a fresh lowering would, and every unchecked
//!   access stays licensed by the same proof:
//!   `CompiledKernel::bind` asserts the lengths and distinctness, and
//!   `execute_tile` still asserts box membership.
//! * **Misses.** A new point (a program parsed anew is a new point),
//!   different bounds, hints or kernel mode, or any guarded answer
//!   that changed: a number's bits, an array's length, the alias
//!   partition, a name becoming bound or unbound. A miss re-plans and
//!   replaces the point's plan. Bail-outs are cached too, so a nest that
//!   falls back to naive stops re-attempting lowering.
//!
//! The knowledge-base decision and the outcome record still run on every
//! loop, so [`LoopStrategy::Adaptive`] keeps learning; only the planning
//! is reused. A cached plan also carries its measured cost per point,
//! which, with the interpreter's measured pool wake, places each of its
//! waves ([`RunOutput::ssp_inline_waves`](super::RunOutput::ssp_inline_waves)).
//! [`RunOutput::ssp_plan_hits`](super::RunOutput::ssp_plan_hits)
//! counts the reuses, and the cache keeps at most
//! [`PLAN_CACHE_CAPACITY`](super::PLAN_CACHE_CAPACITY) points.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm_adapt::pipeline::{self, ExecPathTaken, LoopPath, LoopShape};
use htvm_core::faults::describe_payload;
use htvm_core::SharedRegion;
use htvm_ssp::exec::{plan_native, run_partitioned, spread_pays, Placement, TileBody};
use htvm_ssp::partition::PartitionPlan;
use htvm_ssp::ssp::{schedule_level, LevelPlan, SspConfig};
use parking_lot::Mutex;

use super::ast::{Hint, Stmt};
use super::compile::{compile_code, CompiledKernel};
use super::interp::{Env, Scope, Value};
use super::lower::{lower_forall, Kernel, LoweredForall};
use super::plan_cache::{CachedCode, CachedPlan, PlanKey, PointEntry, ReadyPlan, Recorder};

/// How the interpreter executes `forall` loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopStrategy {
    /// Always the naive flat SGT fan-out. `@hint(pipeline)` pragmas (and
    /// knowledge-base entries) still force the SSP path per loop.
    #[default]
    Naive,
    /// Attempt SSP lowering on every `forall`, falling back to naive on
    /// bail-out. `@hint(pipeline = 0)` still forces naive per loop.
    Ssp,
    /// Let `htvm_adapt::pipeline` decide per loop from hints, recorded
    /// outcomes, and shape.
    Adaptive,
}

/// How SSP loop bodies execute once a nest has taken the pipelined path.
///
/// Both modes produce bit-identical program output (see
/// [`mod@super::compile`]'s exactness argument); the compiled mode exists to
/// remove per-point interpreter overhead, the interpreted mode to measure
/// it and to differentially test the compiler against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Point-at-a-time register-tape interpretation
    /// ([`super::lower::Kernel::execute_tile`]).
    Interpreted,
    /// Tile-at-a-time execution of the optimized tape
    /// ([`super::compile::compile`]): constant folding, dead-register
    /// elimination, strength-reduced per-level strides, hoisted bounds
    /// proofs, monomorphized native loops for common body shapes, and a
    /// strip-mined tape for the rest.
    #[default]
    Compiled,
}

/// Everything one `forall` execution needs (bounds already evaluated).
pub(crate) struct ForallSpec<'a> {
    pub(crate) var: &'a str,
    pub(crate) from: i64,
    pub(crate) to: i64,
    pub(crate) body: &'a [Stmt],
    pub(crate) hints: &'a [Hint],
    pub(crate) env: &'a Env,
}

/// A loop-execution strategy. `run` reports which path actually executed
/// (the SSP strategy may fall back to naive on a lowering bail-out, and
/// reports whether its kernel ran compiled or interpreted).
pub(crate) trait LoopExecutor {
    fn run(&self, scope: &Scope<'_>, spec: &ForallSpec<'_>) -> Result<ExecPathTaken, String>;
}

/// Entry point: pick a path for this loop, execute it, record the outcome.
pub(crate) fn run_forall(scope: &Scope<'_>, spec: &ForallSpec<'_>) -> Result<(), String> {
    let n = (spec.to - spec.from).max(0) as u64;
    if n == 0 {
        return Ok(());
    }
    let ex = &scope.shared.exec;
    let entry = ex.plans.point(spec.var, spec.body, &scope.shared.program);
    let point = entry.point.as_str();
    let pragma = pipeline_pragma(spec.hints);
    let shape = estimate_shape(scope, spec, n);
    let decision = {
        let mut kb = ex.kb.lock();
        // Lower `@hint(pipeline …)` pragmas into the knowledge base (once
        // per point) so the policy — and future runs via the persisted
        // database — sees them as §4.1 structured hints.
        if let Some(kv) = pragma {
            if !kb
                .hints_at(point)
                .iter()
                .any(|h| h.get("pipeline").is_some())
            {
                kb.add_hint(point, pipeline::pipeline_hint(kv, 100));
            }
        }
        pipeline::decide_loop_path(&kb, point, shape)
    };
    use htvm_adapt::pipeline::DecisionReason;
    let path = match ex.strategy {
        // Session strategy caps the default; a hint always wins.
        _ if decision.reason == DecisionReason::Hint => decision.path,
        LoopStrategy::Naive => LoopPath::Naive,
        LoopStrategy::Ssp => LoopPath::Pipelined,
        LoopStrategy::Adaptive => decision.path,
    };
    let start = std::time::Instant::now();
    let ssp = SspExecutor {
        level: decision.level,
        chunk: decision.chunk,
        entry: &entry,
    };
    let executor: &dyn LoopExecutor = match path {
        LoopPath::Pipelined => &ssp,
        LoopPath::Naive => &NaiveExecutor,
    };
    let ran = executor.run(scope, spec)?;
    let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    pipeline::record_exec_outcome(&mut ex.kb.lock(), point, ran, nanos.max(1));
    Ok(())
}

/// The `pipeline`-related key/values of a pragma list, if any.
fn pipeline_pragma(hints: &[Hint]) -> Option<Vec<(String, String)>> {
    let h = hints.iter().find(|h| h.get_num("pipeline").is_some())?;
    let mut kv = Vec::new();
    for key in ["pipeline", "level", "chunk"] {
        if let Some(v) = h.get_num(key) {
            kv.push((key.to_string(), format!("{}", v as i64)));
        }
    }
    Some(kv)
}

/// Syntactic shape estimate: depth of the single-statement loop spine and
/// total points. Bounds are *const-folded*, never evaluated through the
/// interpreter — a bound calling a user function must not have its side
/// effects run an extra time just to estimate a shape. Unfoldable bounds
/// assume the outer trip count.
fn estimate_shape(scope: &Scope<'_>, spec: &ForallSpec<'_>, n: u64) -> LoopShape {
    let mut depth = 1usize;
    let mut points = n;
    let mut cur = spec.body;
    loop {
        let (from, to, body) = match cur {
            [Stmt::Forall { from, to, body, .. }] => (from, to, body),
            [Stmt::For(_, from, to, body)] => (from, to, body),
            _ => break,
        };
        let level_n = match (const_fold(from, spec.env), const_fold(to, spec.env)) {
            (Some(a), Some(b)) => ((b as i64) - (a as i64)).max(0) as u64,
            // Bound depends on an induction variable or a call: assume
            // the outer trip count.
            _ => n,
        };
        depth += 1;
        points = points.saturating_mul(level_n.max(1));
        cur = body;
    }
    LoopShape {
        depth,
        points,
        workers: scope.shared.workers,
    }
}

/// Pure constant folding over the environment: numbers, env-bound
/// numeric variables, arithmetic, negation. Anything else (calls,
/// indexing, induction variables not yet bound) is `None`.
fn const_fold(e: &super::ast::Expr, env: &Env) -> Option<f64> {
    use super::ast::{BinOp, Expr};
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Var(v) => match env.get(v) {
            Some(Value::Num(n)) => Some(n),
            _ => None,
        },
        Expr::Neg(x) => Some(-const_fold(x, env)?),
        Expr::Bin(op, l, r) => {
            let (a, b) = (const_fold(l, env)?, const_fold(r, env)?);
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => Some(a * b),
                BinOp::Div => Some(a / b),
                BinOp::Rem => Some(a % b),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The historical flat fan-out: helpers steal chunks from an atomic
/// cursor; the caller participates, so loops finish on a single worker.
///
/// A failing loop reports the error of its lowest failing iteration, the
/// rule `htvm_ssp::exec`'s waves use for groups: an iteration is skipped
/// only once a lower one has failed, so every iteration below the
/// recorded error still runs, and the caller returns only after every
/// claimed chunk is done. An iteration that panics fails with
/// `forall iteration i panicked: …`, and `return` in the body fails the
/// iteration that reached it.
pub(crate) struct NaiveExecutor;

/// How the naive loop sizes the chunks it hands out
/// (`@hint(schedule = …, chunk = …)`).
enum Schedule {
    /// One chunk per worker (the default).
    Static,
    /// Fixed-size chunks.
    Chunk(u64),
    /// A worker's share of what is left.
    Guided,
}

impl Schedule {
    fn from_hints(hints: &[Hint]) -> Self {
        match hints.iter().find_map(|h| h.get_str("schedule")) {
            Some("guided") => Schedule::Guided,
            Some("chunk") => {
                let chunk = hints.iter().find_map(|h| h.get_num("chunk"));
                Schedule::Chunk((chunk.unwrap_or(1.0) as u64).max(1))
            }
            _ => Schedule::Static,
        }
    }
}

/// One naive loop's cursor, completion count and error, shared by the
/// caller and its helper SGTs.
struct NaiveLoop {
    n: u64,
    workers: u64,
    schedule: Schedule,
    next: AtomicU64,
    done: htvm_core::sync::EventCount,
    /// The lowest failing iteration so far (`u64::MAX`: none), read
    /// without the lock to skip the iterations behind it.
    failed_at: AtomicU64,
    /// That iteration's error.
    error: Mutex<Option<String>>,
}

impl NaiveLoop {
    /// Claim the next chunk `[lo, hi)` of the iteration space, if any.
    fn claim(&self) -> Option<(u64, u64)> {
        let n = self.n;
        loop {
            let cur = self.next.load(Ordering::Acquire);
            if cur >= n {
                return None;
            }
            let size = match self.schedule {
                Schedule::Static => n.div_ceil(self.workers).max(1),
                Schedule::Chunk(size) => size,
                Schedule::Guided => ((n - cur) / self.workers).max(1),
            };
            let end = (cur + size).min(n);
            if self
                .next
                .compare_exchange(cur, end, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some((cur, end));
            }
        }
    }

    /// Run chunks until the cursor is exhausted, binding `var` to
    /// `from + i` for iteration `i`.
    fn work(&self, scope: &Scope<'_>, var: &str, from: i64, body: &[Stmt], env: &Env) {
        while let Some((lo, hi)) = self.claim() {
            for i in lo..hi {
                if i >= self.failed_at.load(Ordering::Acquire) {
                    break;
                }
                let e = env.child();
                e.define(var, Value::Num((from + i as i64) as f64));
                let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    scope.exec_block_returns(body, &e)
                }));
                let err = match ran {
                    Ok(Ok(false)) => continue,
                    Ok(Ok(true)) => "`return` inside forall is not allowed".to_string(),
                    Ok(Err(err)) => err,
                    Err(p) => format!("forall iteration {i} panicked: {}", describe_payload(&*p)),
                };
                self.fail(i, err);
                break;
            }
            self.done.add(hi - lo);
        }
    }

    /// Record iteration `i`'s error unless a lower iteration already failed.
    fn fail(&self, i: u64, err: String) {
        let mut slot = self.error.lock();
        if i < self.failed_at.load(Ordering::Acquire) {
            self.failed_at.store(i, Ordering::Release);
            *slot = Some(err);
        }
    }
}

impl LoopExecutor for NaiveExecutor {
    fn run(&self, scope: &Scope<'_>, spec: &ForallSpec<'_>) -> Result<ExecPathTaken, String> {
        let n = (spec.to - spec.from).max(0) as u64;
        let from = spec.from;
        let workers = scope.shared.workers as u64;
        let lp = Arc::new(NaiveLoop {
            n,
            workers,
            schedule: Schedule::from_hints(spec.hints),
            next: AtomicU64::new(0),
            done: htvm_core::sync::EventCount::new(),
            failed_at: AtomicU64::new(u64::MAX),
            error: Mutex::new(None),
        });

        // Helpers: workers-1 SGTs; the caller participates too.
        for _ in 0..workers.saturating_sub(1) {
            let env = spec.env.clone();
            let body = spec.body.to_vec();
            let var = spec.var.to_string();
            let lp = lp.clone();
            scope.spawn_sgt(move |scope| lp.work(scope, &var, from, &body, &env));
        }
        lp.work(scope, spec.var, from, spec.body, spec.env);
        static NAIVE_JOIN: htvm_core::sync::WaitMeter = htvm_core::sync::WaitMeter::new();
        lp.done.wait_for(n, &NAIVE_JOIN);
        let err = lp.error.lock().take();
        match err {
            Some(err) => Err(err),
            None => Ok(ExecPathTaken::Naive),
        }
    }
}

/// The §3.3 pipeline: lower → schedule → partition → wavefront-execute,
/// through the interpreter's plan cache.
pub(crate) struct SspExecutor<'p> {
    /// Forced pipelined level (from a hint), if any.
    pub(crate) level: Option<usize>,
    /// Forced group size in level-iterations (from a hint), if any.
    pub(crate) chunk: Option<u64>,
    /// The program point's plan-cache entry.
    pub(crate) entry: &'p PointEntry,
}

impl SspExecutor<'_> {
    /// Returns `Ok(None)` if the nest cannot take the SSP path (lowering
    /// bail, unschedulable levels, forced level invalid) — the caller
    /// falls back to naive. Runtime errors (out-of-bounds stores) are
    /// real errors. The interpreter thread is the *helping caller* of
    /// `run_partitioned` — it claims groups itself — and that call is
    /// panic-safe: a group that unwinds (kernel bug, poisoned
    /// region, a compiled run asked for points outside the iteration box)
    /// comes back as this function's `Err` instead of wedging the help
    /// loop or unwinding through the interpreter.
    ///
    /// The plan — or the bail-out — comes from the point's cache entry
    /// when its key and guard match (module docs), and is made by
    /// [`SspExecutor::plan_fresh`] otherwise. Each group executes as one
    /// tile ([`TileBody`]): one call of the compiled kernel under
    /// [`KernelMode::Compiled`], a point-at-a-time walk of the raw tape
    /// ([`Kernel::execute_tile`]) under [`KernelMode::Interpreted`]. The
    /// `Ok(Some(path))` value reports which, for the knowledge base.
    ///
    /// The nest's waves are spread over the pool only when
    /// [`spread_pays`], from the plan's measured cost per point (times a
    /// wave's points) and the interpreter's measured pool wake (its
    /// [`WakeMeter`](htvm_ssp::exec::WakeMeter)); otherwise they run
    /// inline on this thread. Every successful run refreshes the cost
    /// per point from the groups this thread ran itself; every spread
    /// wave adds a wake sample. A fresh plan has no cost yet, so its
    /// first run spreads — unless its groups form a wavefront, whose
    /// waves `htvm_ssp::exec` always runs inline.
    fn try_run(
        &self,
        scope: &Scope<'_>,
        spec: &ForallSpec<'_>,
    ) -> Result<Option<ExecPathTaken>, String> {
        let ex = &scope.shared.exec;
        let key = PlanKey {
            from: spec.from,
            to: spec.to,
            level: self.level,
            chunk: self.chunk,
            mode: ex.kernel_mode,
        };
        let (plan, arrays) = match self.entry.lookup(&key, spec.env) {
            Some(hit) => {
                ex.ssp_plan_hits.fetch_add(1, Ordering::Relaxed);
                hit
            }
            None => self.plan_fresh(scope, spec, key),
        };
        let Some(ready) = &plan.ready else {
            return Ok(None);
        };
        let (body, taken): (Arc<TileBody>, _) = match &ready.code {
            CachedCode::Compiled(code) => {
                let kernel = CompiledKernel::bind(code.clone(), arrays);
                let tile = move |outer: &[i64], lo, hi| {
                    kernel
                        .execute_tile(outer, lo, hi)
                        .map_err(|f| f.to_string())
                };
                (Arc::new(tile), ExecPathTaken::SspCompiled)
            }
            CachedCode::Interpreted(code) => {
                let kernel = Kernel {
                    code: code.clone(),
                    arrays,
                };
                let trips = ready.trips.clone();
                let tile = move |outer: &[i64], lo, hi| kernel.execute_tile(&trips, outer, lo, hi);
                (Arc::new(tile), ExecPathTaken::SspInterp)
            }
        };
        let level = ready.exec.level_plan.level;
        let part = &ready.exec.partition;
        let wave_points: u64 = ready.trips[level..].iter().product();
        let placement = if spread_pays(
            part.groups(ready.trips[level]),
            ready.ns_per_point().map(|ns| ns * wave_points as f64),
            ex.wake.mean_ns(),
        ) {
            Placement::Spread(ex.wake.clone())
        } else {
            Placement::Inline
        };
        let report = run_partitioned(
            &ex.pool,
            &ready.trips,
            level,
            0, // the kernel translates 0-based indices via its own bounds
            part,
            body,
            placement,
        )?;
        ready.record_cost(report.caller_ns, report.caller_points);
        scope
            .shared
            .sgt_spawns
            .fetch_add(report.spawned, Ordering::Relaxed);
        ex.ssp_foralls.fetch_add(1, Ordering::Relaxed);
        ex.ssp_waves.fetch_add(report.waves, Ordering::Relaxed);
        ex.ssp_inline_waves
            .fetch_add(report.inline_waves, Ordering::Relaxed);
        if report.wavefront {
            ex.ssp_wavefronts.fetch_add(1, Ordering::Relaxed);
        }
        if taken == ExecPathTaken::SspCompiled {
            ex.ssp_compiled.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Some(taken))
    }

    /// The miss path: lower (recording every resolver answer), schedule
    /// every level, partition one and compile the kernel, then cache the
    /// result — plan or bail-out — under the recorded guard. Returns the
    /// plan with this run's array table.
    fn plan_fresh(
        &self,
        scope: &Scope<'_>,
        spec: &ForallSpec<'_>,
        key: PlanKey,
    ) -> (Arc<CachedPlan>, Vec<SharedRegion>) {
        let recorder = Recorder::new(spec.env);
        let lowered = lower_forall(spec.var, spec.from, spec.to, spec.body, &|name: &str| {
            recorder.resolve(name)
        });
        let made = lowered.ok().and_then(|l| self.prepare(scope, l, key.mode));
        let (guard, reps) = recorder.finish();
        if let Some((_, arrays)) = &made {
            assert!(
                arrays.len() == reps.len()
                    && arrays.iter().zip(&reps).all(|(a, r)| a.same_region(r)),
                "the kernel's array table is the guard's alias classes in order"
            );
        }
        (
            self.entry.store(key, guard, made.map(|(ready, _)| ready)),
            reps,
        )
    }

    /// Schedule, partition and compile a lowered nest: the plan and the
    /// kernel's array table for this run.
    fn prepare(
        &self,
        scope: &Scope<'_>,
        lowered: LoweredForall,
        mode: KernelMode,
    ) -> Option<(ReadyPlan, Vec<SharedRegion>)> {
        let workers = scope.shared.workers as u64;
        let allowed: Vec<usize> = match self.level {
            Some(l) if lowered.parallel_levels.contains(&l) => vec![l],
            Some(_) => return None, // forced level is not a forall level
            None => lowered.parallel_levels.clone(),
        };
        // Only the levels the plan may pick are worth scheduling.
        let cfg = SspConfig::default();
        let plans: Vec<LevelPlan> = allowed
            .iter()
            .filter_map(|&l| schedule_level(&lowered.nest, l, &cfg).ok())
            .collect();
        let trips = lowered.nest.trip_counts;
        let mut exec = plan_native(&trips, &plans, &allowed, workers)?;
        if let Some(chunk) = self.chunk {
            let n_l = trips[exec.level_plan.level];
            let threads = n_l.div_ceil(chunk.max(1));
            exec.partition = PartitionPlan::new(&exec.level_plan, n_l, threads);
        }
        let Kernel { code, arrays } = lowered.kernel;
        let code = match mode {
            KernelMode::Compiled => {
                let lens = arrays.iter().map(SharedRegion::len).collect();
                CachedCode::Compiled(Arc::new(compile_code(&code, lens, &trips)))
            }
            KernelMode::Interpreted => CachedCode::Interpreted(code),
        };
        Some((ReadyPlan::new(trips, exec, code), arrays))
    }
}

impl LoopExecutor for SspExecutor<'_> {
    fn run(&self, scope: &Scope<'_>, spec: &ForallSpec<'_>) -> Result<ExecPathTaken, String> {
        if let Some(taken) = self.try_run(scope, spec)? {
            Ok(taken)
        } else {
            scope
                .shared
                .exec
                .ssp_bailouts
                .fetch_add(1, Ordering::Relaxed);
            NaiveExecutor.run(scope, spec)
        }
    }
}
