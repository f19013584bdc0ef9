//! The LITL-X interpreter: executes programs on the native HTVM runtime.
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

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm_adapt::KnowledgeBase;
use htvm_core::faults::describe_payload;
use htvm_core::{Htvm, HtvmConfig, Pool, PoolStats, SharedRegion, Topology};
use htvm_ssp::exec::WakeMeter;
use parking_lot::Mutex;

use super::ast::{BinOp, Expr, FnDef, Program, Stmt};
use super::executor::{self, ForallSpec, KernelMode, LoopStrategy};
use super::plan_cache::PlanCache;
use super::profile::{ForallProfile, ProfileState};
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

/// Lexical environment: a chain of shared frames. Cloning shares frames
/// (child scopes see parent bindings; parallel bodies snapshot the chain).
#[derive(Clone, Default)]
pub(crate) struct Env {
    frames: Vec<Arc<Mutex<HashMap<String, Value>>>>,
}

impl Env {
    pub(crate) fn child(&self) -> Env {
        let mut e = self.clone();
        e.frames.push(Arc::new(Mutex::new(HashMap::new())));
        e
    }

    pub(crate) fn define(&self, name: &str, v: Value) {
        self.frames
            .last()
            .expect("env has a frame")
            .lock()
            .insert(name.to_string(), v);
    }

    pub(crate) fn get(&self, name: &str) -> Option<Value> {
        for f in self.frames.iter().rev() {
            if let Some(v) = f.lock().get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn assign(&self, name: &str, v: Value) -> bool {
        for f in self.frames.iter().rev() {
            let mut g = f.lock();
            if let Some(slot) = g.get_mut(name) {
                *slot = v;
                return true;
            }
        }
        false
    }
}

/// Shared interpreter state across all threads of one run.
pub(crate) struct Shared {
    pub(crate) program: Program,
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
    /// §4.1 knowledge base: pragma hints in, observed outcomes out.
    pub(crate) kb: Arc<Mutex<KnowledgeBase>>,
    /// The interpreter's SSP plan cache, shared by all its runs.
    pub(crate) plans: Arc<PlanCache>,
    /// The interpreter's measured pool wake, shared by all its runs.
    pub(crate) wake: Arc<WakeMeter>,
    /// `forall`s that reused a cached plan (or cached bail-out).
    pub(crate) ssp_plan_hits: AtomicU64,
    /// `forall`s executed through the SSP pipeline.
    pub(crate) ssp_foralls: AtomicU64,
    /// `forall`s that attempted SSP and fell back to naive.
    pub(crate) ssp_bailouts: AtomicU64,
    /// SSP executions that needed a cross-group signal wavefront.
    pub(crate) ssp_wavefronts: AtomicU64,
    /// SSP executions that ran the compiled tile-at-a-time kernel.
    pub(crate) ssp_compiled: AtomicU64,
    /// Waves the SSP executions ran.
    pub(crate) ssp_waves: AtomicU64,
    /// Of those, the waves run inline on the calling thread.
    pub(crate) ssp_inline_waves: AtomicU64,
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
    plans: Arc<PlanCache>,
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
            plans: Arc::new(PlanCache::default()),
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

    /// The knowledge base this interpreter reads hints from and records
    /// loop outcomes into.
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

    /// Program points with an entry in the SSP plan cache (at most
    /// [`PLAN_CACHE_CAPACITY`](super::PLAN_CACHE_CAPACITY)).
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
        if program.get_fn("main").is_none() {
            return Err("program has no `main` function".to_string());
        }
        let shared = Arc::new(Shared {
            program: program.clone(),
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
                plans: self.plans.clone(),
                wake: self.wake.clone(),
                ssp_plan_hits: AtomicU64::new(0),
                ssp_foralls: AtomicU64::new(0),
                ssp_bailouts: AtomicU64::new(0),
                ssp_wavefronts: AtomicU64::new(0),
                ssp_compiled: AtomicU64::new(0),
                ssp_waves: AtomicU64::new(0),
                ssp_inline_waves: AtomicU64::new(0),
            },
            profile,
        });
        // `main` runs on this thread as the program's LGT; its SGTs run on
        // the pool and are joined before `run_lgt` returns or re-raises.
        let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.htvm.run_lgt(|lgt| {
                let main = shared.program.get_fn("main").expect("checked above");
                let scope = Scope {
                    shared: shared.clone(),
                    spawner: lgt,
                };
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
        let printed = shared.printed.lock().clone();
        let out = RunOutput {
            printed,
            sgt_spawns: shared.sgt_spawns.load(Ordering::Relaxed),
            ssp_foralls: shared.exec.ssp_foralls.load(Ordering::Relaxed),
            ssp_bailouts: shared.exec.ssp_bailouts.load(Ordering::Relaxed),
            ssp_wavefronts: shared.exec.ssp_wavefronts.load(Ordering::Relaxed),
            ssp_compiled: shared.exec.ssp_compiled.load(Ordering::Relaxed),
            ssp_plan_hits: shared.exec.ssp_plan_hits.load(Ordering::Relaxed),
            ssp_waves: shared.exec.ssp_waves.load(Ordering::Relaxed),
            ssp_inline_waves: shared.exec.ssp_inline_waves.load(Ordering::Relaxed),
        };
        Ok((out, shared.profile.clone()))
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
/// thread level.
pub(crate) struct Scope<'a> {
    pub(crate) shared: Arc<Shared>,
    spawner: &'a dyn Spawn,
}

impl Scope<'_> {
    pub(crate) fn spawn_sgt(&self, job: impl FnOnce(&Scope<'_>) + Send + 'static) {
        self.shared.sgt_spawns.fetch_add(1, Ordering::Relaxed);
        let shared = self.shared.clone();
        self.spawner.spawn_job(Box::new(move |sp: &dyn Spawn| {
            let scope = Scope {
                shared,
                spawner: sp,
            };
            job(&scope);
        }));
    }

    fn call_fn(&self, f: &Arc<FnDef>, args: Vec<Value>) -> Result<Value, String> {
        if args.len() != f.params.len() {
            return Err(format!(
                "{}: expected {} arguments, got {}",
                f.name,
                f.params.len(),
                args.len()
            ));
        }
        let env = Env::default().child();
        for (p, a) in f.params.iter().zip(args) {
            env.define(p, a);
        }
        match self.exec_block(&f.body, &env)? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::Unit),
        }
    }

    pub(crate) fn exec_block(&self, stmts: &[Stmt], env: &Env) -> Result<Flow, String> {
        for s in stmts {
            if let Flow::Return(v) = self.exec_stmt(s, env)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    /// Like [`Scope::exec_block`], but reports whether a `return` fired —
    /// for the loop executors, which must reject `return` inside `forall`
    /// without pattern-matching `Flow`.
    pub(crate) fn exec_block_returns(&self, stmts: &[Stmt], env: &Env) -> Result<bool, String> {
        Ok(matches!(self.exec_block(stmts, env)?, Flow::Return(_)))
    }

    fn exec_stmt(&self, stmt: &Stmt, env: &Env) -> Result<Flow, String> {
        match stmt {
            Stmt::Let(name, e) => {
                let v = self.eval(e, env)?;
                env.define(name, v);
                Ok(Flow::Normal)
            }
            Stmt::Assign(name, e) => {
                let v = self.eval(e, env)?;
                if !env.assign(name, v) {
                    return Err(format!("assignment to undefined variable `{name}`"));
                }
                Ok(Flow::Normal)
            }
            Stmt::StoreIndex {
                array,
                index,
                value,
                accumulate,
            } => {
                let arr = env
                    .get(array)
                    .ok_or_else(|| format!("undefined array `{array}`"))?
                    .as_arr("indexed store")?;
                let i = self.eval(index, env)?.as_num("array index")? as usize;
                if i >= arr.len() {
                    return Err(format!(
                        "index {i} out of bounds for array of length {}",
                        arr.len()
                    ));
                }
                let v = self.eval(value, env)?.as_num("stored value")?;
                if let Some(p) = &self.shared.profile {
                    p.stores.fetch_add(1, Ordering::Relaxed);
                }
                if *accumulate {
                    arr.fetch_add_f64(i, v);
                } else {
                    arr.write_f64(i, v);
                }
                Ok(Flow::Normal)
            }
            Stmt::If(cond, then, els) => {
                if self.eval(cond, env)?.truthy() {
                    self.exec_block(then, &env.child())
                } else {
                    self.exec_block(els, &env.child())
                }
            }
            Stmt::While(cond, body) => {
                while self.eval(cond, env)?.truthy() {
                    if let Flow::Return(v) = self.exec_block(body, &env.child())? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For(var, from, to, body) => {
                let a = self.eval(from, env)?.as_num("for start")? as i64;
                let b = self.eval(to, env)?.as_num("for end")? as i64;
                for i in a..b {
                    let e = env.child();
                    e.define(var, Value::Num(i as f64));
                    if let Flow::Return(v) = self.exec_block(body, &e)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Forall {
                var,
                from,
                to,
                body,
                hints,
            } => {
                let a = self.eval(from, env)?.as_num("forall start")? as i64;
                let b = self.eval(to, env)?.as_num("forall end")? as i64;
                if let Some(p) = self.shared.profile.clone() {
                    self.run_forall_profiled(var, a, b, body, env, &p)?;
                } else {
                    executor::run_forall(
                        self,
                        &ForallSpec {
                            var,
                            from: a,
                            to: b,
                            body,
                            hints,
                            env,
                        },
                    )?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Spawn(body) => {
                if self.shared.profile.is_some() {
                    // Profiled runs are sequential: execute inline.
                    self.exec_block(body, &env.child())?;
                    return Ok(Flow::Normal);
                }
                let env = env.clone();
                let body = body.to_vec();
                self.spawn_sgt(move |scope| {
                    if let Err(e) = scope.exec_block(&body, &env.child()) {
                        scope.shared.fail(e);
                    }
                });
                Ok(Flow::Normal)
            }
            Stmt::Future(name, e) => {
                let fut: LitlFuture<f64> = LitlFuture::unresolved();
                env.define(name, Value::Fut(fut.clone()));
                if self.shared.profile.is_some() {
                    // Profiled runs resolve futures eagerly, inline.
                    let n = self.eval(e, env)?.as_num("future value")?;
                    fut.resolve(n);
                    return Ok(Flow::Normal);
                }
                let env2 = env.clone();
                let e = e.clone();
                self.spawn_sgt(move |scope| match scope.eval(&e, &env2) {
                    Ok(v) => match v.as_num("future value") {
                        Ok(n) => fut.resolve(n),
                        Err(err) => {
                            scope.shared.fail(err);
                            fut.resolve(f64::NAN);
                        }
                    },
                    Err(err) => {
                        scope.shared.fail(err);
                        fut.resolve(f64::NAN);
                    }
                });
                Ok(Flow::Normal)
            }
            Stmt::Atomic(body) => {
                let _gate = self.shared.atomic_gate.lock();
                self.exec_block(body, &env.child())
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
        }
    }

    /// Profiled (sequential) loop execution: meter every iteration and
    /// record the cost vector (§4.2's monitor feeding §3.3's continuous
    /// compilation). Parallel execution lives in `lang::executor`.
    fn run_forall_profiled(
        &self,
        var: &str,
        from: i64,
        to: i64,
        body: &[Stmt],
        env: &Env,
        p: &Arc<ProfileState>,
    ) -> Result<(), String> {
        let n = (to - from).max(0) as u64;
        let mut costs = Vec::with_capacity(n as usize);
        for i in 0..n {
            let before = p.ops_now();
            let e = env.child();
            e.define(var, Value::Num((from + i as i64) as f64));
            self.exec_block(body, &e)?;
            costs.push(p.ops_now() - before);
        }
        p.foralls.lock().push(ForallProfile {
            var: var.to_string(),
            costs,
        });
        Ok(())
    }

    pub(crate) fn eval(&self, e: &Expr, env: &Env) -> Result<Value, String> {
        if let Some(p) = &self.shared.profile {
            p.ops.fetch_add(1, Ordering::Relaxed);
        }
        match e {
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Var(name) => env
                .get(name)
                .ok_or_else(|| format!("undefined variable `{name}`")),
            Expr::Index(arr, idx) => {
                let a = self.eval(arr, env)?.as_arr("indexing")?;
                let i = self.eval(idx, env)?.as_num("array index")? as usize;
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
            Expr::Neg(x) => Ok(Value::Num(-self.eval(x, env)?.as_num("negation")?)),
            Expr::Not(x) => Ok(Value::Num(if self.eval(x, env)?.truthy() {
                0.0
            } else {
                1.0
            })),
            Expr::Bin(op, l, r) => {
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
                let a = self.eval(l, env)?.as_num("left operand")?;
                let b = self.eval(r, env)?.as_num("right operand")?;
                let v = match op {
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
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                };
                Ok(Value::Num(v))
            }
            Expr::Call(name, args) => self.call(name, args, env),
        }
    }

    fn call(&self, name: &str, args: &[Expr], env: &Env) -> Result<Value, String> {
        // User functions shadow builtins.
        if let Some(f) = self.shared.program.get_fn(name) {
            let f = f.clone();
            let vals = args
                .iter()
                .map(|a| self.eval(a, env))
                .collect::<Result<Vec<_>, _>>()?;
            return self.call_fn(&f, vals);
        }
        let num = |i: usize| -> Result<f64, String> {
            self.eval(&args[i], env)?
                .as_num(&format!("{name} argument {i}"))
        };
        let need = |k: usize| -> Result<(), String> {
            if args.len() == k {
                Ok(())
            } else {
                Err(format!(
                    "{name}: expected {k} arguments, got {}",
                    args.len()
                ))
            }
        };
        match name {
            "array" => {
                need(1)?;
                let n = num(0)? as usize;
                Ok(Value::Arr(SharedRegion::new(n)))
            }
            "len" => {
                need(1)?;
                let a = self.eval(&args[0], env)?.as_arr("len")?;
                Ok(Value::Num(a.len() as f64))
            }
            "sum" => {
                need(1)?;
                let a = self.eval(&args[0], env)?.as_arr("sum")?;
                // A left fold in index order: the summation order is part
                // of the result's bits.
                Ok(Value::Num(a.iter_f64().sum()))
            }
            "force" => {
                need(1)?;
                match self.eval(&args[0], env)? {
                    Value::Fut(f) => Ok(Value::Num(f.force())),
                    v => Ok(v),
                }
            }
            "sqrt" => {
                need(1)?;
                Ok(Value::Num(num(0)?.sqrt()))
            }
            "abs" => {
                need(1)?;
                Ok(Value::Num(num(0)?.abs()))
            }
            "exp" => {
                need(1)?;
                Ok(Value::Num(num(0)?.exp()))
            }
            "log" => {
                need(1)?;
                Ok(Value::Num(num(0)?.ln()))
            }
            "sin" => {
                need(1)?;
                Ok(Value::Num(num(0)?.sin()))
            }
            "cos" => {
                need(1)?;
                Ok(Value::Num(num(0)?.cos()))
            }
            "floor" => {
                need(1)?;
                Ok(Value::Num(num(0)?.floor()))
            }
            "pow" => {
                need(2)?;
                Ok(Value::Num(num(0)?.powf(num(1)?)))
            }
            "min" => {
                need(2)?;
                Ok(Value::Num(num(0)?.min(num(1)?)))
            }
            "max" => {
                need(2)?;
                Ok(Value::Num(num(0)?.max(num(1)?)))
            }
            "workers" => {
                need(0)?;
                Ok(Value::Num(self.shared.workers as f64))
            }
            "print" => {
                need(1)?;
                let v = self.eval(&args[0], env)?;
                let s = match v {
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
            other => Err(format!("unknown function `{other}`")),
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
