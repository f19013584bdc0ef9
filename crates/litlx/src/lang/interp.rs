//! The LITL-X interpreter: executes programs on the native HTVM runtime.
//!
//! A run walks the program's resolved module (`lang::resolve`): names
//! are frame slots, calls are function indices and every `forall` has an
//! id that indexes its plan slot. The interpreter's plan cache resolves a
//! program once and keeps its module, found on later runs by one lookup
//! on the identity of the program's functions ([`Interp::run`] copies
//! no program).
//!
//! Mapping of language constructs onto the execution model:
//!
//! * a program run is one **LGT**, and `main` runs as that LGT on the
//!   thread that called [`Interp::run`] ([`htvm_core::Htvm::run_lgt`]):
//!   no pool job and no cross-thread hand-off per run. The run returns
//!   once every SGT of the program has finished; a panic in `main` comes
//!   back as `Err("main panicked: …")` after that join;
//! * `forall` bodies and `spawn` blocks become **SGTs** on the
//!   interpreter's pool — the spawning thread participates in its own loop
//!   (helping), so loops finish even on a single worker, and the thread
//!   that called `run` is the helping caller of `main`'s loops;
//! * `future`/`force` lower onto [`crate::future::LitlFuture`];
//! * `atomic { … }` blocks serialize through the interpreter's atomic
//!   domain;
//! * `@hint` pragmas choose the `forall` schedule (`static`, `chunk`,
//!   `guided`) — the language-level face of the paper's loop-parallelism
//!   adaptation.
//!
//! Shared-variable semantics inside `forall` follow the usual parallel-loop
//! rule: arrays are shared (element writes race only if the program makes
//! them race), scalars assigned inside an iteration are last-writer-wins.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm_adapt::KnowledgeBase;
use htvm_core::faults::describe_payload;
use htvm_core::{Htvm, HtvmConfig, Pool, PoolStats, SharedRegion, Topology};
use htvm_ssp::exec::WakeMeter;
use parking_lot::Mutex;

use super::ast::{BinOp, Program};
use super::env::{Capture, Env};
use super::executor::{self, ForallSpec, KernelMode, LoopStrategy};
use super::plan_cache::PlanCache;
use super::profile::{ForallProfile, ProfileState};
use super::resolve::{Block, Builtin, Forall, Module, RExpr, RStmt};
use crate::future::LitlFuture;

/// A runtime value.
#[derive(Clone)]
pub enum Value {
    /// A number (LITL-X is f64-only, like the pseudo-code of Fig. 3).
    Num(f64),
    /// An array of f64, aliased across scopes and threads.
    Arr(SharedRegion),
    /// An unresolved or resolved future of a number.
    Fut(LitlFuture<f64>),
    /// No value.
    Unit,
}

impl std::fmt::Debug for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Num(n) => write!(f, "Num({n})"),
            Value::Arr(a) => write!(f, "Arr(len={})", a.len()),
            Value::Fut(x) => write!(f, "Fut(resolved={})", x.is_resolved()),
            Value::Unit => write!(f, "Unit"),
        }
    }
}

impl Value {
    pub(crate) fn as_num(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Num(n) => Ok(*n),
            Value::Fut(_) => Err(format!("{what}: got an unforced future; apply force(…)")),
            other => Err(format!("{what}: expected number, got {other:?}")),
        }
    }

    fn as_arr(&self, what: &str) -> Result<SharedRegion, String> {
        match self {
            Value::Arr(a) => Ok(a.clone()),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    fn truthy(&self) -> bool {
        matches!(self, Value::Num(n) if *n != 0.0)
    }
}

/// Shared interpreter state across all threads of one run.
pub(crate) struct Shared {
    /// The program, resolved.
    pub(crate) module: Arc<Module>,
    printed: Mutex<Vec<String>>,
    error: Mutex<Option<String>>,
    atomic_gate: Mutex<()>,
    pub(crate) sgt_spawns: AtomicU64,
    pub(crate) workers: usize,
    /// The loop-execution side: pool handle, session strategy, knowledge
    /// base, and SSP counters (see `lang::executor`).
    pub(crate) exec: ExecShared,
    /// When set, the run is a sequential *profiled* run: every AST node
    /// evaluated bumps the meter, `forall` records per-iteration costs,
    /// and `spawn`/`future` execute inline (see `lang::profile`).
    profile: Option<Arc<ProfileState>>,
}

/// Loop-execution state shared by all threads of a run.
pub(crate) struct ExecShared {
    /// The native pool, for domain-placed group spawns.
    pub(crate) pool: Arc<Pool>,
    /// Session-level loop strategy.
    pub(crate) strategy: LoopStrategy,
    /// Whether SSP loop bodies run compiled (tile-at-a-time) or interpreted.
    pub(crate) kernel_mode: KernelMode,
    /// §4.1 knowledge base: pragma hints in, observed outcomes out (the
    /// latter under [`LoopStrategy::Adaptive`] only).
    pub(crate) kb: Arc<Mutex<KnowledgeBase>>,
    /// The interpreter's measured pool wake, shared by all its runs.
    pub(crate) wake: Arc<WakeMeter>,
    /// The run's SSP counters, summed from each [`Scope`]'s own as the
    /// scope ends.
    counts: Mutex<SspCounts>,
}

/// The SSP counters of a run (see [`RunOutput`]). Each [`Scope`] counts
/// its own `forall`s without synchronization and adds them to the run's
/// once, when it ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SspCounts {
    /// `forall`s that reused a cached plan (or cached bail-out).
    pub(crate) plan_hits: u64,
    /// `forall`s executed through the SSP pipeline.
    pub(crate) foralls: u64,
    /// `forall`s that attempted SSP and fell back to naive.
    pub(crate) bailouts: u64,
    /// SSP executions that needed a cross-group signal wavefront.
    pub(crate) wavefronts: u64,
    /// SSP executions that ran the compiled tile-at-a-time kernel.
    pub(crate) compiled: u64,
    /// Waves the SSP executions ran.
    pub(crate) waves: u64,
    /// Of those, the waves run inline on the calling thread.
    pub(crate) inline_waves: u64,
}

impl SspCounts {
    fn add(&mut self, o: SspCounts) {
        self.plan_hits += o.plan_hits;
        self.foralls += o.foralls;
        self.bailouts += o.bailouts;
        self.wavefronts += o.wavefronts;
        self.compiled += o.compiled;
        self.waves += o.waves;
        self.inline_waves += o.inline_waves;
    }
}

impl Shared {
    pub(crate) fn fail(&self, msg: String) {
        let mut e = self.error.lock();
        if e.is_none() {
            *e = Some(msg);
        }
    }
}

/// Result of a program run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Lines produced by `print(...)`, in program order per thread
    /// (cross-thread order is scheduling-dependent).
    pub printed: Vec<String>,
    /// Number of SGTs the run spawned (forall chunks/groups, spawn
    /// blocks, futures).
    pub sgt_spawns: u64,
    /// `forall`s executed through the SSP lower→schedule→partition path.
    pub ssp_foralls: u64,
    /// `forall`s that attempted the SSP path and bailed back to naive.
    pub ssp_bailouts: u64,
    /// SSP executions whose partition needed a signal wavefront.
    pub ssp_wavefronts: u64,
    /// SSP executions that ran the compiled tile-at-a-time kernel (0 when
    /// the interpreter was built with [`KernelMode::Interpreted`]).
    pub ssp_compiled: u64,
    /// `forall`s on the SSP path that reused the interpreter's cached
    /// plan — or cached bail-out — for their program point instead of
    /// lowering, scheduling and compiling again (see
    /// [`mod@super::executor`]).
    pub ssp_plan_hits: u64,
    /// Waves the SSP executions ran (one per index tuple of the levels
    /// outside each nest's partitioned level).
    pub ssp_waves: u64,
    /// Of [`RunOutput::ssp_waves`], those run inline on the calling
    /// thread rather than spread as one pool job per group: the wave's
    /// measured work did not pay for the pool's measured wake (see
    /// [`mod@htvm_ssp::exec`]). Every other wave was spread.
    pub ssp_inline_waves: u64,
}

/// The LITL-X interpreter.
pub struct Interp {
    htvm: Htvm,
    workers: usize,
    strategy: LoopStrategy,
    kernel_mode: KernelMode,
    kb: Arc<Mutex<KnowledgeBase>>,
    plans: PlanCache,
    wake: Arc<WakeMeter>,
}

pub(crate) enum Flow {
    Normal,
    Return(Value),
}

impl Interp {
    /// An interpreter over a fresh HTVM runtime with `workers` workers and
    /// no locality grouping.
    pub fn new(workers: usize) -> Self {
        Self::with_topology(Topology::flat(workers))
    }

    /// An interpreter over a fresh HTVM runtime whose pool workers are
    /// grouped into the locality domains of `topology` — LITL-X programs
    /// then run on grouped domains like every other workload (SSP groups
    /// are placed round-robin across the domains).
    pub fn with_topology(topology: Topology) -> Self {
        let workers = topology.workers();
        Self {
            htvm: Htvm::new(HtvmConfig::with_topology(topology)),
            workers: workers.max(1),
            strategy: LoopStrategy::default(),
            kernel_mode: KernelMode::default(),
            kb: Arc::new(Mutex::new(KnowledgeBase::new())),
            plans: PlanCache::default(),
            wake: Arc::new(WakeMeter::default()),
        }
    }

    /// Set the session loop strategy (builder style).
    pub fn with_strategy(mut self, strategy: LoopStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Choose how SSP loop bodies execute (builder style): the default
    /// [`KernelMode::Compiled`] tile-at-a-time path, or the point-at-a-time
    /// tape interpreter ([`KernelMode::Interpreted`]). Program output is
    /// bit-identical either way; this exists for benchmarking and
    /// differential testing.
    pub fn with_kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel_mode = mode;
        self
    }

    /// Share a knowledge base (builder style) — e.g. one loaded from a
    /// persisted §4.1 database, or shared across interpreter instances so
    /// recorded loop outcomes carry over.
    pub fn with_knowledge(mut self, kb: Arc<Mutex<KnowledgeBase>>) -> Self {
        self.kb = kb;
        self
    }

    /// The knowledge base this interpreter reads hints from, and — under
    /// [`LoopStrategy::Adaptive`] — records loop outcomes into.
    pub fn knowledge(&self) -> Arc<Mutex<KnowledgeBase>> {
        self.kb.clone()
    }

    /// Pool counters of the underlying runtime (steals, domain spawns).
    pub fn pool_stats(&self) -> PoolStats {
        self.htvm.pool_stats()
    }

    /// The locality-domain topology the interpreter runs on.
    pub fn topology(&self) -> &Topology {
        self.htvm.topology()
    }

    /// The `forall` program points of the programs the plan cache holds
    /// (at most [`PLAN_CACHE_CAPACITY`](super::PLAN_CACHE_CAPACITY)).
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Run `main` (no arguments) on the calling thread; its SGTs run on
    /// the interpreter's pool. Returns printed output or the run's
    /// runtime error — a panic in `main` is `Err("main panicked: …")`.
    pub fn run(&self, program: &Program) -> Result<RunOutput, String> {
        self.run_inner(program, None).map(|(out, _)| out)
    }

    /// Run `main` sequentially under the instruction meter, recording the
    /// per-iteration cost vector of every `forall` (§4.2's monitor feeding
    /// §3.3's continuous compilation). Output is identical to [`Interp::run`]
    /// for deterministic programs.
    pub fn profile(&self, program: &Program) -> Result<(RunOutput, Vec<ForallProfile>), String> {
        let state = Arc::new(ProfileState::new());
        let (out, st) = self.run_inner(program, Some(state))?;
        let profiles = st.expect("profile state present").foralls.lock().clone();
        Ok((out, profiles))
    }

    fn run_inner(
        &self,
        program: &Program,
        profile: Option<Arc<ProfileState>>,
    ) -> Result<(RunOutput, Option<Arc<ProfileState>>), String> {
        let module = self.plans.module(program);
        let Some(main) = module.main else {
            return Err("program has no `main` function".to_string());
        };
        let shared = Arc::new(Shared {
            module,
            printed: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            atomic_gate: Mutex::new(()),
            sgt_spawns: AtomicU64::new(0),
            workers: self.workers,
            exec: ExecShared {
                pool: self.htvm.pool(),
                strategy: self.strategy,
                kernel_mode: self.kernel_mode,
                kb: self.kb.clone(),
                wake: self.wake.clone(),
                counts: Mutex::new(SspCounts::default()),
            },
            profile,
        });
        // `main` runs on this thread as the program's LGT; its SGTs run on
        // the pool and are joined before `run_lgt` returns or re-raises.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.htvm.run_lgt(|lgt| {
                let scope = Scope::new(shared.clone(), lgt);
                if let Err(e) = scope.call_fn(main, Vec::new()) {
                    shared.fail(e);
                }
            })
        }));
        if let Err(payload) = ran {
            return Err(format!("main panicked: {}", describe_payload(&*payload)));
        }
        let err = shared.error.lock().clone();
        if let Some(e) = err {
            return Err(e);
        }
        let printed = std::mem::take(&mut *shared.printed.lock());
        let c = *shared.exec.counts.lock();
        let out = RunOutput {
            printed,
            sgt_spawns: shared.sgt_spawns.load(Ordering::Relaxed),
            ssp_foralls: c.foralls,
            ssp_bailouts: c.bailouts,
            ssp_wavefronts: c.wavefronts,
            ssp_compiled: c.compiled,
            ssp_plan_hits: c.plan_hits,
            ssp_waves: c.waves,
            ssp_inline_waves: c.inline_waves,
        };
        Ok((out, shared.profile.clone()))
    }
}

/// An arithmetic or comparison operator applied (comparisons give 0 or 1).
fn arith(op: BinOp, a: f64, b: f64) -> f64 {
    match op {
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => a * b,
        BinOp::Div => a / b,
        BinOp::Rem => a % b,
        BinOp::Eq => (a == b) as i64 as f64,
        BinOp::Ne => (a != b) as i64 as f64,
        BinOp::Lt => (a < b) as i64 as f64,
        BinOp::Le => (a <= b) as i64 as f64,
        BinOp::Gt => (a > b) as i64 as f64,
        BinOp::Ge => (a >= b) as i64 as f64,
        BinOp::And | BinOp::Or => unreachable!("logicals short-circuit"),
    }
}

/// A boxed interpreter job: runs with the spawn capability of the SGT that
/// executes it, so nested spawns never need `'static` contexts.
type SpawnJob = Box<dyn FnOnce(&dyn Spawn) + Send>;

/// Spawn capability — implemented by both LGT and SGT contexts, so the
/// statement walker is agnostic about which level it runs at.
trait Spawn {
    fn spawn_job(&self, job: SpawnJob);
}

impl Spawn for htvm_core::LgtCtx<'_> {
    fn spawn_job(&self, job: SpawnJob) {
        self.spawn_sgt(move |sgt| job(sgt));
    }
}

impl Spawn for htvm_core::SgtCtx<'_> {
    fn spawn_job(&self, job: SpawnJob) {
        self.spawn_sgt(move |sgt| job(sgt));
    }
}

/// An execution scope: shared state + spawn capability of the current
/// thread level, and the SSP counters of the `forall`s it ran, which it
/// adds to the run's when it ends (before its LGT or SGT finishes).
pub(crate) struct Scope<'a> {
    pub(crate) shared: Arc<Shared>,
    spawner: &'a dyn Spawn,
    counts: Cell<SspCounts>,
}

impl Drop for Scope<'_> {
    fn drop(&mut self) {
        let c = self.counts.get();
        if c != SspCounts::default() {
            self.shared.exec.counts.lock().add(c);
        }
    }
}

impl<'a> Scope<'a> {
    fn new(shared: Arc<Shared>, spawner: &'a dyn Spawn) -> Self {
        Self {
            shared,
            spawner,
            counts: Cell::new(SspCounts::default()),
        }
    }

    /// Update this scope's SSP counters.
    pub(crate) fn count(&self, f: impl FnOnce(&mut SspCounts)) {
        let mut c = self.counts.get();
        f(&mut c);
        self.counts.set(c);
    }

    /// Spawn `job` as an SGT, in the environment `capture` holds.
    pub(crate) fn spawn_sgt(
        &self,
        capture: Capture,
        job: impl FnOnce(&Scope<'_>, &Env<'_>) + Send + 'static,
    ) {
        self.shared.sgt_spawns.fetch_add(1, Ordering::Relaxed);
        let shared = self.shared.clone();
        self.spawner.spawn_job(Box::new(move |sp: &dyn Spawn| {
            capture.enter(|env| job(&Scope::new(shared, sp), env));
        }));
    }

    fn call_fn(&self, f: usize, args: Vec<Value>) -> Result<Value, String> {
        let func = &self.shared.module.fns[f];
        if args.len() != func.params.len() {
            return Err(format!(
                "{}: expected {} arguments, got {}",
                func.name,
                func.params.len(),
                args.len()
            ));
        }
        let env = Env::root(func.body.frame.expect("a function body has a frame"));
        for (&p, a) in func.params.iter().zip(args) {
            env.set_top(p, a);
        }
        match self.exec_block(&func.body.stmts, &env)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Unit),
        }
    }

    fn exec_block(&self, stmts: &[RStmt], env: &Env<'_>) -> Result<Flow, String> {
        for s in stmts {
            if let Flow::Return(v) = self.exec_stmt(s, env)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    /// Run a nested block: in a frame of its own if it has one.
    fn run_block(&self, block: &Block, env: &Env<'_>) -> Result<Flow, String> {
        match block.frame {
            Some(shape) => self.exec_block(&block.stmts, &env.child(shape)),
            None => self.exec_block(&block.stmts, env),
        }
    }

    /// Run one iteration of a `forall` body in `env`, its iteration
    /// frame, reporting whether a `return` fired — for the loop
    /// executors, which must reject `return` inside `forall` without
    /// pattern-matching `Flow`.
    pub(crate) fn run_iteration(&self, body: &Block, env: &Env<'_>) -> Result<bool, String> {
        Ok(matches!(
            self.exec_block(&body.stmts, env)?,
            Flow::Return(_)
        ))
    }

    fn exec_stmt(&self, stmt: &RStmt, env: &Env<'_>) -> Result<Flow, String> {
        match stmt {
            RStmt::Let(slot, e) => {
                let v = self.eval(e, env)?;
                env.set(*slot, v);
            }
            RStmt::Assign(target, e) => {
                let v = self.eval(e, env)?;
                match target {
                    Ok(slot) => env.set(*slot, v),
                    Err(name) => return Err(format!("assignment to undefined variable `{name}`")),
                }
            }
            RStmt::StoreIndex {
                array,
                index,
                value,
                accumulate,
            } => {
                let arr = match array {
                    Ok(slot) => env.get(*slot).as_arr("indexed store")?,
                    Err(name) => return Err(format!("undefined array `{name}`")),
                };
                let i = self.eval_num(index, env, "array index")? as usize;
                if i >= arr.len() {
                    return Err(format!(
                        "index {i} out of bounds for array of length {}",
                        arr.len()
                    ));
                }
                let v = self.eval_num(value, env, "stored value")?;
                if let Some(p) = &self.shared.profile {
                    p.stores.fetch_add(1, Ordering::Relaxed);
                }
                if *accumulate {
                    arr.fetch_add_f64(i, v);
                } else {
                    arr.write_f64(i, v);
                }
            }
            RStmt::If(cond, then, els) => {
                let block = if self.eval(cond, env)?.truthy() {
                    then
                } else {
                    els
                };
                return self.run_block(block, env);
            }
            RStmt::While(cond, body) => {
                while self.eval(cond, env)?.truthy() {
                    if let Flow::Return(v) = self.run_block(body, env)? {
                        return Ok(Flow::Return(v));
                    }
                }
            }
            RStmt::For(from, to, body) => {
                let a = self.eval_num(from, env, "for start")? as i64;
                let b = self.eval_num(to, env, "for end")? as i64;
                let mut e = env.loop_frame(body);
                for i in a..b {
                    e.next_iteration(i);
                    if let Flow::Return(v) = self.exec_block(&body.stmts, &e)? {
                        return Ok(Flow::Return(v));
                    }
                }
            }
            RStmt::Forall { id, from, to } => {
                let a = self.eval_num(from, env, "forall start")? as i64;
                let b = self.eval_num(to, env, "forall end")? as i64;
                let forall = &self.shared.module.foralls[*id];
                if let Some(p) = &self.shared.profile {
                    self.run_forall_profiled(forall, a, b, env, p)?;
                } else {
                    executor::run_forall(
                        self,
                        &ForallSpec {
                            id: *id,
                            forall,
                            from: a,
                            to: b,
                            env,
                        },
                    )?;
                }
            }
            RStmt::Spawn(id) => {
                let body = &self.shared.module.spawns[*id];
                if self.shared.profile.is_some() {
                    // Profiled runs are sequential: execute inline.
                    self.run_block(body, env)?;
                    return Ok(Flow::Normal);
                }
                let id = *id;
                self.spawn_sgt(env.capture(), move |scope, env| {
                    let body = &scope.shared.module.spawns[id];
                    if let Err(e) = scope.run_block(body, env) {
                        scope.shared.fail(e);
                    }
                });
            }
            RStmt::Future(slot, id) => {
                let fut: LitlFuture<f64> = LitlFuture::unresolved();
                env.set(*slot, Value::Fut(fut.clone()));
                if self.shared.profile.is_some() {
                    // Profiled runs resolve futures eagerly, inline.
                    let n = self.eval(&self.shared.module.futures[*id], env)?;
                    fut.resolve(n.as_num("future value")?);
                    return Ok(Flow::Normal);
                }
                let id = *id;
                self.spawn_sgt(env.capture(), move |scope, env| {
                    let value = scope
                        .eval(&scope.shared.module.futures[id], env)
                        .and_then(|v| v.as_num("future value"));
                    match value {
                        Ok(n) => fut.resolve(n),
                        Err(err) => {
                            scope.shared.fail(err);
                            fut.resolve(f64::NAN);
                        }
                    }
                });
            }
            RStmt::Atomic(body) => {
                let _gate = self.shared.atomic_gate.lock();
                return self.run_block(body, env);
            }
            RStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Unit,
                };
                return Ok(Flow::Return(v));
            }
            RStmt::Expr(e) => {
                self.eval(e, env)?;
            }
        }
        Ok(Flow::Normal)
    }

    /// Profiled (sequential) loop execution: meter every iteration and
    /// record the cost vector (§4.2's monitor feeding §3.3's continuous
    /// compilation). Parallel execution lives in `lang::executor`.
    fn run_forall_profiled(
        &self,
        forall: &Forall,
        from: i64,
        to: i64,
        env: &Env<'_>,
        p: &ProfileState,
    ) -> Result<(), String> {
        let n = (to - from).max(0) as u64;
        let mut costs = Vec::with_capacity(n as usize);
        let mut e = env.loop_frame(&forall.body);
        for i in 0..n {
            let before = p.ops_now();
            e.next_iteration(from + i as i64);
            self.exec_block(&forall.body.stmts, &e)?;
            costs.push(p.ops_now() - before);
        }
        p.foralls.lock().push(ForallProfile {
            var: forall.var.to_string(),
            costs,
        });
        Ok(())
    }

    /// Count one evaluated node on a profiled run's meter.
    fn meter(&self) {
        if let Some(p) = &self.shared.profile {
            p.ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`Scope::eval`] of a number, `what` naming it in a type error.
    /// Variables and arithmetic build no [`Value`].
    fn eval_num(&self, e: &RExpr, env: &Env<'_>, what: &str) -> Result<f64, String> {
        match e {
            RExpr::Var(slot) => {
                self.meter();
                env.with(*slot, |v| v.as_num(what))
            }
            RExpr::Bin(op, l, r) if !matches!(op, BinOp::And | BinOp::Or) => {
                self.meter();
                let a = self.eval_num(l, env, "left operand")?;
                let b = self.eval_num(r, env, "right operand")?;
                Ok(arith(*op, a, b))
            }
            _ => self.eval(e, env)?.as_num(what),
        }
    }

    pub(crate) fn eval(&self, e: &RExpr, env: &Env<'_>) -> Result<Value, String> {
        self.meter();
        match e {
            RExpr::Num(n) => Ok(Value::Num(*n)),
            RExpr::Var(slot) => Ok(env.get(*slot)),
            RExpr::Unbound(name) => Err(format!("undefined variable `{name}`")),
            RExpr::Index(arr, idx) => {
                let a = self.eval(arr, env)?.as_arr("indexing")?;
                let i = self.eval_num(idx, env, "array index")? as usize;
                if i >= a.len() {
                    return Err(format!(
                        "index {i} out of bounds for array of length {}",
                        a.len()
                    ));
                }
                if let Some(p) = &self.shared.profile {
                    p.loads.fetch_add(1, Ordering::Relaxed);
                }
                Ok(Value::Num(a.read_f64(i)))
            }
            RExpr::Neg(x) => Ok(Value::Num(-self.eval_num(x, env, "negation")?)),
            RExpr::Not(x) => Ok(Value::Num(if self.eval(x, env)?.truthy() {
                0.0
            } else {
                1.0
            })),
            RExpr::Bin(op, l, r) => {
                // Short-circuit logicals.
                if *op == BinOp::And {
                    return Ok(Value::Num(
                        if self.eval(l, env)?.truthy() && self.eval(r, env)?.truthy() {
                            1.0
                        } else {
                            0.0
                        },
                    ));
                }
                if *op == BinOp::Or {
                    return Ok(Value::Num(
                        if self.eval(l, env)?.truthy() || self.eval(r, env)?.truthy() {
                            1.0
                        } else {
                            0.0
                        },
                    ));
                }
                let a = self.eval_num(l, env, "left operand")?;
                let b = self.eval_num(r, env, "right operand")?;
                Ok(Value::Num(arith(*op, a, b)))
            }
            RExpr::Call(f, args) => {
                let vals = args
                    .iter()
                    .map(|a| self.eval(a, env))
                    .collect::<Result<Vec<_>, _>>()?;
                self.call_fn(*f, vals)
            }
            RExpr::Builtin(b, args) => self.builtin(*b, args, env),
            RExpr::Unknown(name) => Err(format!("unknown function `{name}`")),
        }
    }

    fn builtin(&self, b: Builtin, args: &[RExpr], env: &Env<'_>) -> Result<Value, String> {
        let (name, arity) = b.signature();
        if args.len() != arity {
            return Err(format!(
                "{name}: expected {arity} arguments, got {}",
                args.len()
            ));
        }
        let arg = |i: usize| self.eval(&args[i], env);
        // The argument's description is formatted only on an error.
        let num = |i: usize| -> Result<f64, String> {
            match arg(i)? {
                Value::Num(n) => Ok(n),
                other => other.as_num(&format!("{name} argument {i}")),
            }
        };
        let n = |x: f64| Ok(Value::Num(x));
        match b {
            Builtin::Array => Ok(Value::Arr(SharedRegion::new(num(0)? as usize))),
            Builtin::Len => n(arg(0)?.as_arr("len")?.len() as f64),
            // A left fold in index order: the summation order is part of
            // the result's bits.
            Builtin::Sum => n(arg(0)?.as_arr("sum")?.iter_f64().sum()),
            Builtin::Force => match arg(0)? {
                Value::Fut(f) => n(f.force()),
                v => Ok(v),
            },
            Builtin::Sqrt => n(num(0)?.sqrt()),
            Builtin::Abs => n(num(0)?.abs()),
            Builtin::Exp => n(num(0)?.exp()),
            Builtin::Log => n(num(0)?.ln()),
            Builtin::Sin => n(num(0)?.sin()),
            Builtin::Cos => n(num(0)?.cos()),
            Builtin::Floor => n(num(0)?.floor()),
            Builtin::Pow => n(num(0)?.powf(num(1)?)),
            Builtin::Min => n(num(0)?.min(num(1)?)),
            Builtin::Max => n(num(0)?.max(num(1)?)),
            Builtin::Workers => n(self.shared.workers as f64),
            Builtin::Print => {
                let s = match arg(0)? {
                    Value::Num(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                        format!("{}", n as i64)
                    }
                    Value::Num(n) => format!("{n}"),
                    Value::Arr(a) => format!("[array;{}]", a.len()),
                    Value::Fut(f) => format!("<future resolved={}>", f.is_resolved()),
                    Value::Unit => "()".to_string(),
                };
                self.shared.printed.lock().push(s);
                Ok(Value::Unit)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse;

    fn run(src: &str) -> RunOutput {
        let p = parse(src).unwrap();
        Interp::new(4).run(&p).unwrap()
    }

    fn run_err(src: &str) -> String {
        let p = parse(src).unwrap();
        Interp::new(2).run(&p).unwrap_err()
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run("fn main() { print(1 + 2 * 3 - 4 / 2); }");
        assert_eq!(out.printed, vec!["5"]);
    }

    #[test]
    fn recursion_factorial() {
        let out = run(
            "fn fact(n) { if n <= 1 { return 1; } return n * fact(n - 1); }
             fn main() { print(fact(10)); }",
        );
        assert_eq!(out.printed, vec!["3628800"]);
    }

    #[test]
    fn while_loop_and_assignment() {
        let out = run("fn main() { let s = 0; let i = 0;
               while i < 10 { s = s + i; i = i + 1; }
               print(s); }");
        assert_eq!(out.printed, vec!["45"]);
    }

    #[test]
    fn sequential_for() {
        let out = run("fn main() { let a = array(5);
               for i in 0..5 { a[i] = i * i; }
               print(sum(a)); }");
        assert_eq!(out.printed, vec!["30"]);
    }

    #[test]
    fn sum_folds_left_to_right() {
        // Left to right: ((1e16 + 1) - 1e16) + 1 = 1, where a pairwise
        // (1e16 + 1) + (-1e16 + 1) would round both halves to ±1e16 and
        // give 0.
        let out = run("fn main() { let a = array(4); let big = 10000000000000000;
               a[0] = big; a[1] = 1; a[2] = 0 - big; a[3] = 1;
               print(sum(a)); }");
        assert_eq!(out.printed, vec!["1"]);
    }

    #[test]
    fn forall_fills_array_in_parallel() {
        let out = run("fn main() { let n = 200; let a = array(n);
               forall i in 0..n { a[i] = i; }
               print(sum(a)); }");
        assert_eq!(out.printed, vec!["19900"]);
        assert!(out.sgt_spawns > 0, "forall must spawn helper SGTs");
    }

    #[test]
    fn forall_guided_schedule() {
        let out = run("fn main() { let n = 100; let a = array(n);
               @hint(schedule = \"guided\")
               forall i in 0..n { a[i] = 2 * i; }
               print(sum(a)); }");
        assert_eq!(out.printed, vec!["9900"]);
    }

    #[test]
    fn forall_chunk_schedule() {
        let out = run("fn main() { let n = 64; let a = array(n);
               @hint(schedule = \"chunk\", chunk = 4)
               forall i in 0..n { a[i] = 1; }
               print(sum(a)); }");
        assert_eq!(out.printed, vec!["64"]);
    }

    #[test]
    fn forall_accumulate_is_atomic() {
        let out = run("fn main() { let a = array(1);
               forall i in 0..1000 { a[0] += 1; }
               print(a[0]); }");
        assert_eq!(out.printed, vec!["1000"]);
    }

    #[test]
    fn future_force_round_trip() {
        let out = run(
            "fn slow(x) { let s = 0; for i in 0..100 { s = s + x; } return s; }
             fn main() { future f = slow(3); print(force(f)); }",
        );
        assert_eq!(out.printed, vec!["300"]);
    }

    #[test]
    fn spawn_joined_before_exit() {
        let out = run("fn main() { let a = array(1);
               spawn { a[0] = 42; }
             }");
        // The LGT join guarantees the spawn ran; nothing printed, no error.
        assert_eq!(out.printed, Vec::<String>::new());
        assert!(out.sgt_spawns >= 1);
    }

    #[test]
    fn atomic_blocks_serialize_rmw() {
        let out = run("fn main() { let a = array(1);
               forall i in 0..200 {
                 atomic { a[0] = a[0] + 1; }
               }
               print(a[0]); }");
        assert_eq!(out.printed, vec!["200"]);
    }

    #[test]
    fn nested_forall_completes() {
        let out = run("fn main() { let n = 8; let a = array(n * n);
               forall i in 0..n {
                 forall j in 0..n { a[i * n + j] = i + j; }
               }
               print(sum(a)); }");
        assert_eq!(out.printed, vec!["448"]);
    }

    #[test]
    fn errors_propagate() {
        assert!(run_err("fn main() { print(undefined_var); }").contains("undefined"));
        assert!(run_err("fn main() { let a = array(2); a[5] = 1; }").contains("out of bounds"));
        assert!(run_err("fn main() { nope(1); }").contains("unknown function"));
        assert!(run_err("fn f(a, b) { return a; } fn main() { f(1); }").contains("arguments"));
    }

    #[test]
    fn error_inside_forall_surfaces() {
        let err = run_err(
            "fn main() { let a = array(4);
               forall i in 0..100 { a[i] = 1; } }",
        );
        assert!(err.contains("out of bounds"), "got: {err}");
    }

    #[test]
    fn builtins_cover_math() {
        let out = run("fn main() {
               print(max(min(sqrt(16), 3), floor(2.7)));
               print(pow(2, 10));
               print(abs(0 - 5));
             }");
        assert_eq!(out.printed, vec!["3", "1024", "5"]);
    }

    #[test]
    fn empty_forall_is_noop() {
        let out = run("fn main() { forall i in 5..5 { print(i); } print(1); }");
        assert_eq!(out.printed, vec!["1"]);
    }

    #[test]
    fn workers_builtin_reports_pool() {
        let p = parse("fn main() { print(workers()); }").unwrap();
        let out = Interp::new(3).run(&p).unwrap();
        assert_eq!(out.printed, vec!["3"]);
    }

    #[test]
    fn profile_records_forall_costs() {
        let p = parse(
            "fn main() { let n = 32; let a = array(n);
               forall i in 0..n {
                 let s = 0;
                 for k in 0..i { s = s + k; }
                 a[i] = s;
               }
               print(sum(a)); }",
        )
        .unwrap();
        let (out, profiles) = Interp::new(2).profile(&p).unwrap();
        assert_eq!(out.printed, vec!["4960"]);
        assert_eq!(profiles.len(), 1);
        let costs = &profiles[0].costs;
        assert_eq!(costs.len(), 32);
        // The body's inner loop runs `i` times: costs must increase.
        assert!(
            costs.last().unwrap() > &(costs[0] + 10),
            "triangular loop must show increasing per-iteration cost: {costs:?}"
        );
        // The monitor's hint matches the §4.1 vocabulary.
        assert_eq!(
            crate::lang::profile::suggest_hint(costs),
            Some(("cost_trend", "monotonic"))
        );
    }

    #[test]
    fn profile_output_matches_parallel_run() {
        let src = "fn main() { let n = 100; let a = array(n);
               forall i in 0..n { a[i] = i * 3; }
               print(sum(a)); }";
        let p = parse(src).unwrap();
        let run_out = Interp::new(4).run(&p).unwrap();
        let (prof_out, _) = Interp::new(4).profile(&p).unwrap();
        assert_eq!(run_out.printed, prof_out.printed);
    }

    #[test]
    fn profile_runs_spawn_and_future_inline() {
        let p = parse(
            "fn main() { let a = array(1);
               spawn { a[0] += 5; }
               future f = 2 * 4;
               print(a[0] + force(f)); }",
        )
        .unwrap();
        let (out, _) = Interp::new(2).profile(&p).unwrap();
        // Inline spawn runs *before* the print in a sequential profile.
        assert_eq!(out.printed, vec!["13"]);
        assert_eq!(out.sgt_spawns, 0, "profiling must not spawn SGTs");
    }

    #[test]
    fn profile_counts_loads_and_stores() {
        let p = parse(
            "fn main() { let a = array(8);
               for i in 0..8 { a[i] = 1; }
               let s = a[0] + a[1];
               print(s); }",
        )
        .unwrap();
        let interp = Interp::new(1);
        let state = {
            let (_, profiles) = interp.profile(&p).unwrap();
            profiles
        };
        // No forall in this program; the meter itself is validated through
        // the public profile() API indirectly (loads/stores counted on the
        // shared state which run_inner drops). The forall list is empty.
        assert!(state.is_empty());
    }

    const MATMUL_SRC: &str = "fn main() {
        let n = 12;
        let a = array(n * n); let b = array(n * n); let c = array(n * n);
        forall i in 0..n * n { a[i] = i % 7; }
        forall i in 0..n * n { b[i] = i % 5; }
        forall i in 0..n {
          forall j in 0..n {
            for k in 0..n {
              c[i * n + j] += a[i * n + k] * b[k * n + j];
            }
          }
        }
        print(sum(c)); }";

    #[test]
    fn ssp_strategy_matches_naive_output_on_matmul() {
        let p = parse(MATMUL_SRC).unwrap();
        let naive = Interp::new(1).run(&p).unwrap();
        let ssp = Interp::with_topology(htvm_core::Topology::domains(2, 2))
            .with_strategy(LoopStrategy::Ssp)
            .run(&p)
            .unwrap();
        assert_eq!(ssp.printed, naive.printed);
        assert!(ssp.ssp_foralls >= 1, "matmul nest must take the SSP path");
        // The flat init loops are affine too (`%` is a supported kernel
        // op), so every forall of the program pipelines.
        assert_eq!(ssp.ssp_foralls, 3);
        assert_eq!(ssp.ssp_bailouts, 0);
        // The default kernel mode is compiled: every SSP forall ran the
        // tile-at-a-time path.
        assert_eq!(ssp.ssp_compiled, 3);
    }

    #[test]
    fn kernel_modes_agree_bitwise_and_report_the_path() {
        let p = parse(MATMUL_SRC).unwrap();
        let interp = Interp::new(4)
            .with_strategy(LoopStrategy::Ssp)
            .with_kernel_mode(KernelMode::Interpreted)
            .run(&p)
            .unwrap();
        let compiled = Interp::new(4)
            .with_strategy(LoopStrategy::Ssp)
            .with_kernel_mode(KernelMode::Compiled)
            .run(&p)
            .unwrap();
        // Compiled execution preserves the interpreter's evaluation order
        // exactly (see `lang::compile`), so the printed output — a float
        // reduction over the result matrix — is bit-identical.
        assert_eq!(compiled.printed, interp.printed);
        assert_eq!(interp.ssp_compiled, 0);
        assert_eq!(compiled.ssp_compiled, compiled.ssp_foralls);
    }

    #[test]
    fn ssp_wavefront_preserves_carried_dependence_semantics() {
        // a[(i+1)*m + j] = a[i*m + j] + 1: iteration i+1 reads what i
        // wrote — a naive parallel fan-out would race; the SSP path must
        // detect the carried dependence and serialize groups through the
        // wavefront, reproducing sequential output exactly.
        let src = "fn main() {
            let n = 24; let m = 6;
            let a = array((n + 1) * m);
            for j in 0..m { a[j] = j; }
            forall i in 0..n {
              forall j in 0..m {
                a[(i + 1) * m + j] = a[i * m + j] + 1;
              }
            }
            for r in 0..(n + 1) * m { print(a[r]); } }";
        let p = parse(src).unwrap();
        let seq = Interp::new(1).run(&p).unwrap();
        let ssp = Interp::with_topology(htvm_core::Topology::domains(2, 2))
            .with_strategy(LoopStrategy::Ssp)
            .run(&p)
            .unwrap();
        assert_eq!(ssp.printed, seq.printed, "must match sequential");
        assert_eq!(ssp.ssp_foralls, 1);
        assert_eq!(ssp.ssp_bailouts, 0, "the nest is affine; no bail expected");
        // The planner partitions the *space* level j (the i-carried dep
        // drops there — it is satisfied by the sequential outer waves), so
        // no wavefront is needed: exactly the most-profitable-level story.
        assert_eq!(ssp.ssp_wavefronts, 0);
    }

    #[test]
    fn flat_recurrence_executes_as_sgt_wavefront() {
        // a[i+1] = a[i] + i: a genuine level-carried recurrence with only
        // one level to partition — the SSP path must chain the iteration
        // groups through the signal wavefront and still match sequential
        // output exactly (a naive parallel fan-out would race).
        let src = "fn main() {
            let n = 64;
            let a = array(n + 1);
            a[0] = 7;
            forall i in 0..n { a[i + 1] = a[i] + i; }
            for r in 0..n + 1 { print(a[r]); } }";
        let p = parse(src).unwrap();
        let seq = Interp::new(1).run(&p).unwrap();
        let ssp = Interp::with_topology(htvm_core::Topology::domains(2, 2))
            .with_strategy(LoopStrategy::Ssp)
            .run(&p)
            .unwrap();
        assert_eq!(ssp.printed, seq.printed, "wavefront must match sequential");
        assert_eq!(ssp.ssp_foralls, 1);
        assert_eq!(ssp.ssp_bailouts, 0);
        assert_eq!(ssp.ssp_wavefronts, 1, "the carried dep needs the wavefront");
    }

    #[test]
    fn pipeline_pragma_forces_ssp_under_naive_strategy() {
        let src = "fn main() {
            let n = 8;
            let y = array(n * n);
            @hint(pipeline)
            forall i in 0..n {
              forall j in 0..n { y[i * n + j] = i + j; }
            }
            print(sum(y)); }";
        let p = parse(src).unwrap();
        let out = Interp::new(2).run(&p).unwrap();
        assert_eq!(out.printed, vec!["448"]);
        assert_eq!(
            out.ssp_foralls, 1,
            "@hint(pipeline) must force the SSP path"
        );
    }

    #[test]
    fn pipeline_pragma_can_force_naive_under_ssp_strategy() {
        let src = "fn main() {
            let n = 64;
            let y = array(n);
            @hint(pipeline = 0)
            forall i in 0..n { y[i] = 2 * i; }
            print(sum(y)); }";
        let p = parse(src).unwrap();
        let out = Interp::new(2)
            .with_strategy(LoopStrategy::Ssp)
            .run(&p)
            .unwrap();
        assert_eq!(out.printed, vec!["4032"]);
        assert_eq!(out.ssp_foralls, 0, "@hint(pipeline = 0) must force naive");
        assert_eq!(out.ssp_bailouts, 0, "forced naive is not a bail-out");
    }

    #[test]
    fn non_affine_loops_bail_to_naive_under_ssp_strategy() {
        let src = "fn main() {
            let n = 50; let a = array(n);
            forall i in 0..n { if i < 25 { a[i] = 1; } }
            print(sum(a)); }";
        let p = parse(src).unwrap();
        let out = Interp::new(2)
            .with_strategy(LoopStrategy::Ssp)
            .run(&p)
            .unwrap();
        assert_eq!(out.printed, vec!["25"]);
        assert_eq!(out.ssp_foralls, 0);
        assert_eq!(out.ssp_bailouts, 1, "a guarded body is not lowerable");
    }

    #[test]
    fn ssp_out_of_bounds_store_is_an_error() {
        let src = "fn main() {
            let a = array(10);
            forall i in 0..8 {
              forall j in 0..4 { a[i * 4 + j] = 1; }
            } }";
        let p = parse(src).unwrap();
        let err = Interp::new(2)
            .with_strategy(LoopStrategy::Ssp)
            .run(&p)
            .unwrap_err();
        assert!(err.contains("out of bounds"), "got: {err}");
    }

    #[test]
    fn knowledge_base_records_loop_outcomes() {
        let src = "fn main() {
            let n = 16; let y = array(n * n);
            forall i in 0..n {
              forall j in 0..n { y[i * n + j] = i * j; }
            }
            print(sum(y)); }";
        let p = parse(src).unwrap();
        let interp = Interp::new(2).with_strategy(LoopStrategy::Adaptive);
        let kb = interp.knowledge();
        let out = interp.run(&p).unwrap();
        assert_eq!(out.printed, vec!["14400"]);
        // The adaptive policy ran the nest one way and recorded it under
        // the loop's fingerprinted program point.
        let text = kb.lock().to_text().unwrap();
        assert!(
            text.lines().any(|l| l.starts_with("outcome\ti@")),
            "loop outcome must land in the knowledge base: {text:?}"
        );
    }

    #[test]
    fn ssp_groups_are_placed_across_domains() {
        let src = "fn main() {
            let n = 16; let y = array(n * n);
            @hint(pipeline)
            forall i in 0..n {
              forall j in 0..n { y[i * n + j] = i + j; }
            }
            print(sum(y)); }";
        let p = parse(src).unwrap();
        let interp = Interp::with_topology(htvm_core::Topology::domains(2, 1));
        let out = interp.run(&p).unwrap();
        assert_eq!(out.ssp_foralls, 1);
        let stats = interp.pool_stats();
        assert_eq!(stats.domain_spawns.len(), 2);
        assert!(
            stats.domain_spawns.iter().all(|&d| d > 0),
            "round-robin placement must hit every domain: {:?}",
            stats.domain_spawns
        );
        assert_eq!(interp.topology().num_domains(), 2);
    }

    #[test]
    fn nested_forall_profiles_both_levels() {
        let p = parse(
            "fn main() { let n = 6; let a = array(n * n);
               forall i in 0..n {
                 forall j in 0..n { a[i * n + j] = i + j; }
               }
               print(sum(a)); }",
        )
        .unwrap();
        let (out, profiles) = Interp::new(2).profile(&p).unwrap();
        assert_eq!(out.printed, vec!["180"]);
        // Inner foralls are recorded per outer iteration, plus the outer.
        assert_eq!(profiles.len(), 7);
    }
}
