//! `forall` execution strategies.
//!
//! The interpreter no longer hardwires a loop path: every non-profiled
//! `forall` goes through `run_forall`, which picks between two
//! executors, each of whose `run` reports the path that actually
//! executed (the SSP executor may fall back to naive on a lowering
//! bail-out, and reports whether its kernel ran compiled or
//! interpreted):
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
//! written into the knowledge base and force the path; under
//! [`LoopStrategy::Adaptive`], recorded outcomes (wall time per path, fed
//! back after every loop) decide when both have been measured, and a
//! static heuristic covers cold starts. The session [`LoopStrategy`] caps
//! how adventurous the interpreter may be.
//!
//! # The knowledge base on every loop
//!
//! Every `forall` looks up the `pipeline` hint at its program point, with
//! no allocation ([`htvm_adapt::pipeline::hinted_loop_path`]), so a hint
//! added to a shared knowledge base between runs steers the next one.
//! Only [`LoopStrategy::Adaptive`] reads recorded outcomes, so only it
//! estimates the nest's shape, times the loop and records the outcome;
//! [`LoopStrategy::Naive`] and [`LoopStrategy::Ssp`] take their own path
//! unless a hint forces one, and record nothing.
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
//! * **Key.** The point is the `forall` itself: the resolved module
//!   (`super::resolve`) gives every `forall` an id, and the loop reads
//!   its plan slot by that id, whichever thread runs it — the caller, a
//!   naive helper or a `spawn` block. Programs that share a function
//!   share its slots. The plan is keyed by the evaluated bounds, the
//!   forced `@hint` level and chunk, and the [`KernelMode`].
//! * **Guard.** On a miss, the lowering's by-name resolver is answered
//!   from the slots of the names visible at the loop, and every
//!   `(slot, answer)` it consumed is recorded (a name unbound there is
//!   unbound on every run). A hit reads those slots and requires
//!   bit-identical numbers (so `-0.0` and `0.0` differ), arrays of
//!   identical length, and an identical alias partition (which recorded
//!   arrays are one region). Future and unit answers are never cached.
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
//!   partition. A miss re-plans and
//!   replaces the point's plan. Bail-outs are cached too, so a nest that
//!   falls back to naive stops re-attempting lowering.
//!
//! The knowledge-base lookup (and, under [`LoopStrategy::Adaptive`], the
//! decision and the outcome record) still run on every loop; only the
//! planning is reused. A cached plan also carries its measured cost per
//! point, which, with the interpreter's measured pool wake, places each
//! of its waves ([`RunOutput::ssp_inline_waves`](super::RunOutput::ssp_inline_waves));
//! a plan's inline runs refresh it on a sample of runs
//! ([`htvm_ssp::exec::times_inline_run`]).
//! An inline run borrows its bound kernel and hands its array table back
//! to the thread's reused storage; a spread run's pool jobs share it.
//! [`RunOutput::ssp_plan_hits`](super::RunOutput::ssp_plan_hits)
//! counts the reuses, and the cache keeps at most
//! [`PLAN_CACHE_CAPACITY`](super::PLAN_CACHE_CAPACITY) points.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm_adapt::pipeline::{self, ExecPathTaken, LoopPath, LoopShape};
use htvm_core::faults::describe_payload;
use htvm_core::SharedRegion;
use htvm_ssp::exec::{
    plan_native, run_partitioned, spread_pays, ExecReport, Placement, TileBody, WakeMeter,
};
use htvm_ssp::partition::PartitionPlan;
use htvm_ssp::ssp::{schedule_level, LevelPlan, SspConfig};
use parking_lot::Mutex;

use super::ast::{Hint, Stmt};
use super::compile::{compile_code, CompiledKernel};
use super::env::Env;
use super::interp::{Scope, Value};
use super::lower::{lower_forall, Kernel, LoweredForall};
use super::plan_cache::{
    recycle_table, take_table, CachedCode, CachedPlan, PlanKey, PointEntry, ReadyPlan, Recorder,
};
use super::resolve::Forall;

/// How the interpreter executes `forall` loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoopStrategy {
    /// Always the naive flat SGT fan-out. `@hint(pipeline)` pragmas (and
    /// knowledge-base entries) still force the SSP path per loop. Records
    /// no outcome.
    #[default]
    Naive,
    /// Attempt SSP lowering on every `forall`, falling back to naive on
    /// bail-out. `@hint(pipeline = 0)` still forces naive per loop.
    /// Records no outcome.
    Ssp,
    /// Let `htvm_adapt::pipeline` decide per loop from hints, recorded
    /// outcomes, and shape. The only strategy that records each loop's
    /// outcome into the knowledge base.
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
    /// The loop's id in the running module.
    pub(crate) id: usize,
    pub(crate) forall: &'a Forall,
    pub(crate) from: i64,
    pub(crate) to: i64,
    pub(crate) env: &'a Env<'a>,
}

/// Entry point: pick a path for this loop, execute it, and — under
/// [`LoopStrategy::Adaptive`], the only strategy that reads them — record
/// the outcome.
pub(crate) fn run_forall(scope: &Scope<'_>, spec: &ForallSpec<'_>) -> Result<(), String> {
    let n = (spec.to - spec.from).max(0) as u64;
    if n == 0 {
        return Ok(());
    }
    let ex = &scope.shared.exec;
    let entry = &spec.forall.entry;
    let point = entry.point.as_str();
    let adaptive = ex.strategy == LoopStrategy::Adaptive;
    let shape = adaptive.then(|| estimate_shape(scope, spec, n));
    let decision = {
        let mut kb = ex.kb.lock();
        // Lower `@hint(pipeline …)` pragmas into the knowledge base (once
        // per point) so the policy — and future runs via the persisted
        // database — sees them as §4.1 structured hints.
        if let Some(kv) = &spec.forall.pragma {
            if kb.hint_with(point, "pipeline").is_none() {
                kb.add_hint(point, pipeline::pipeline_hint(kv.clone(), 100));
            }
        }
        match shape {
            Some(shape) => Some(pipeline::decide_loop_path(&kb, point, shape)),
            None => pipeline::hinted_loop_path(&kb, point),
        }
    };
    // A hint always wins; otherwise the session strategy decides.
    let (path, level, chunk) = match (decision, ex.strategy) {
        (Some(d), _) => (d.path, d.level, d.chunk),
        (None, LoopStrategy::Naive) => (LoopPath::Naive, None, None),
        (None, _) => (LoopPath::Pipelined, None, None),
    };
    let start = adaptive.then(std::time::Instant::now);
    let ran = match path {
        LoopPath::Pipelined => SspExecutor {
            level,
            chunk,
            entry,
        }
        .run(scope, spec)?,
        LoopPath::Naive => NaiveExecutor.run(scope, spec)?,
    };
    if let Some(start) = start {
        let nanos = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        pipeline::record_exec_outcome(&mut ex.kb.lock(), point, ran, nanos.max(1));
    }
    Ok(())
}

/// The `pipeline`-related key/values of a pragma list, if any.
pub(crate) fn pipeline_pragma(hints: &[Hint]) -> Option<Vec<(String, String)>> {
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
    let lookup = |name: &str| spec.forall.slot_of(name).map(|s| spec.env.get(s));
    let mut cur = spec.forall.ast.as_slice();
    loop {
        let (from, to, body) = match cur {
            [Stmt::Forall { from, to, body, .. }] => (from, to, body),
            [Stmt::For(_, from, to, body)] => (from, to, body),
            _ => break,
        };
        let level_n = match (const_fold(from, &lookup), const_fold(to, &lookup)) {
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

/// Pure constant folding over the loop's visible bindings: numbers,
/// bound numeric variables, arithmetic, negation. Anything else (calls,
/// indexing, induction variables not yet bound) is `None`.
fn const_fold(e: &super::ast::Expr, lookup: &dyn Fn(&str) -> Option<Value>) -> Option<f64> {
    use super::ast::{BinOp, Expr};
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Var(v) => match lookup(v) {
            Some(Value::Num(n)) => Some(n),
            _ => None,
        },
        Expr::Neg(x) => Some(-const_fold(x, lookup)?),
        Expr::Bin(op, l, r) => {
            let (a, b) = (const_fold(l, lookup)?, const_fold(r, lookup)?);
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

    /// Run chunks of `forall`'s body until the cursor is exhausted,
    /// binding its variable to `from + i` for iteration `i`.
    fn work(&self, scope: &Scope<'_>, forall: &Forall, from: i64, env: &Env<'_>) {
        let mut e = env.loop_frame(&forall.body);
        while let Some((lo, hi)) = self.claim() {
            for i in lo..hi {
                if i >= self.failed_at.load(Ordering::Acquire) {
                    break;
                }
                let ran = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    e.next_iteration(from + i as i64);
                    scope.run_iteration(&forall.body, &e)
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

impl NaiveExecutor {
    fn run(&self, scope: &Scope<'_>, spec: &ForallSpec<'_>) -> Result<ExecPathTaken, String> {
        let n = (spec.to - spec.from).max(0) as u64;
        let from = spec.from;
        let workers = scope.shared.workers as u64;
        let lp = Arc::new(NaiveLoop {
            n,
            workers,
            schedule: Schedule::from_hints(&spec.forall.hints),
            next: AtomicU64::new(0),
            done: htvm_core::sync::EventCount::new(),
            failed_at: AtomicU64::new(u64::MAX),
            error: Mutex::new(None),
        });

        // Helpers: workers-1 SGTs, each with a capture of the loop's
        // environment; the caller participates too.
        for _ in 0..workers.saturating_sub(1) {
            let (lp, id) = (lp.clone(), spec.id);
            scope.spawn_sgt(spec.env.capture(), move |scope, env| {
                lp.work(scope, &scope.shared.module.foralls[id], from, env)
            });
        }
        lp.work(scope, spec.forall, from, spec.env);
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
    /// inline on this thread. Every spread run, and a sample of the
    /// plan's inline runs ([`htvm_ssp::exec::times_inline_run`]),
    /// refreshes the cost per point from the groups this thread timed;
    /// every spread wave adds a wake sample. A fresh plan has no cost yet, so its
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
        let mut table = take_table();
        let plan = match self.entry.lookup(&key, spec.env, &mut table) {
            Some(hit) => {
                scope.count(|c| c.plan_hits += 1);
                hit
            }
            None => {
                let (plan, fresh) = self.plan_fresh(scope, spec, key);
                table = fresh;
                plan
            }
        };
        let Some(ready) = &plan.ready else {
            recycle_table(table);
            return Ok(None);
        };
        let level = ready.exec.level_plan.level;
        let part = &ready.exec.partition;
        let wave_points: u64 = ready.trips[level..].iter().product();
        let spread = spread_pays(
            part.groups(ready.trips[level]),
            ready.ns_per_point().map(|ns| ns * wave_points as f64),
            ex.wake.mean_ns(),
        )
        .then(|| ex.wake.clone());
        let timed = spread.is_some() || ready.time_this_run();
        // The kernel translates 0-based indices via its own bounds.
        let run = |placement: Placement<'_>| {
            run_partitioned(&ex.pool, &ready.trips, level, 0, part, placement)
        };
        let (report, taken) = match &ready.code {
            CachedCode::Compiled(code) => {
                let kernel = CompiledKernel::bind(code.clone(), table);
                let (report, back) = run_tiles(kernel, spread, timed, run, |k, outer, lo, hi| {
                    k.execute_tile(outer, lo, hi).map_err(|f| f.to_string())
                });
                if let Some(k) = back {
                    recycle_table(k.into_arrays());
                }
                (report?, ExecPathTaken::SspCompiled)
            }
            CachedCode::Interpreted(code) => {
                let kernel = Kernel {
                    code: code.clone(),
                    arrays: table,
                };
                let (report, back) = run_tiles(
                    (kernel, ready.trips.clone()),
                    spread,
                    timed,
                    run,
                    |(k, trips), outer, lo, hi| k.execute_tile(trips, outer, lo, hi),
                );
                if let Some((k, _)) = back {
                    recycle_table(k.arrays);
                }
                (report?, ExecPathTaken::SspInterp)
            }
        };
        ready.record_cost(report.caller_ns, report.caller_points);
        if report.spawned > 0 {
            scope
                .shared
                .sgt_spawns
                .fetch_add(report.spawned, Ordering::Relaxed);
        }
        scope.count(|c| {
            c.foralls += 1;
            c.waves += report.waves;
            c.inline_waves += report.inline_waves;
            c.wavefronts += u64::from(report.wavefront);
            c.compiled += u64::from(taken == ExecPathTaken::SspCompiled);
        });
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
        let f = spec.forall;
        let recorder = Recorder::new(f, spec.env);
        let lowered = lower_forall(&f.var, spec.from, spec.to, &f.ast, &|name: &str| {
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

/// Run a bound kernel's tiles through `run`: inline (timed if `timed`),
/// the waves borrow it and it comes back, so its array table can be
/// reused; spread (with the pool's wake meter), the pool jobs share it,
/// since they may outlive the call.
fn run_tiles<K: Send + Sync + 'static>(
    kernel: K,
    spread: Option<Arc<WakeMeter>>,
    timed: bool,
    run: impl FnOnce(Placement<'_>) -> Result<ExecReport, String>,
    tile: fn(&K, &[i64], i64, i64) -> Result<(), String>,
) -> (Result<ExecReport, String>, Option<K>) {
    match spread {
        Some(wake) => {
            let body: Arc<TileBody> = Arc::new(move |outer, lo, hi| tile(&kernel, outer, lo, hi));
            (run(Placement::Spread(body, wake)), None)
        }
        None => {
            let body = |outer: &[i64], lo, hi| tile(&kernel, outer, lo, hi);
            let report = run(if timed {
                Placement::Inline(&body)
            } else {
                Placement::InlineUntimed(&body)
            });
            (report, Some(kernel))
        }
    }
}

impl SspExecutor<'_> {
    fn run(&self, scope: &Scope<'_>, spec: &ForallSpec<'_>) -> Result<ExecPathTaken, String> {
        if let Some(taken) = self.try_run(scope, spec)? {
            Ok(taken)
        } else {
            scope.count(|c| c.bailouts += 1);
            NaiveExecutor.run(scope, spec)
        }
    }
}
