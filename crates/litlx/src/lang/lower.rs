//! Lowering LITL-X `forall` nests to the SSP loop-nest IR.
//!
//! §3.3 of the paper wants loops to travel a compile→schedule→execute
//! pipeline: pick the most profitable loop level, software-pipeline it,
//! partition the pipelined code into threads. The front of that pipeline
//! is this pass: a `forall` statement whose body is a perfect nest of
//! `forall`/`for` loops over an **affine** innermost body (stores and
//! `let`s of pure arithmetic, with array indices affine in the induction
//! variables) lowers to
//!
//! * an [`htvm_ssp::ir::LoopNest`] — trip counts per level, one op per
//!   load/arith/store with latencies and resource classes, and dependence
//!   **distance vectors** from uniformly-generated array-access pairs; and
//! * a [`Kernel`] — the body compiled to a flat register tape over the
//!   program's [`SharedRegion`] arrays, executable at any iteration point
//!   without touching the interpreter's environment chain.
//!
//! Anything non-affine **bails out** ([`LowerBail`]) and the interpreter
//! falls back to the naive flat fan-out; a bail is a lost optimization,
//! never an error.
//!
//! Dependence analysis is conservative where it must be: accesses to one
//! array with different coefficient vectors abort the lowering, and for
//! uniformly-generated pairs *every* realizable distance solution is
//! enumerated (distance digits are symmetric around zero, so several can
//! coexist); a pair whose solution set explodes aborts rather than risk
//! an under-approximated dependence set.

use std::collections::HashMap;
use std::sync::Arc;

use htvm_core::SharedRegion;
use htvm_ssp::ir::{Dep, LoopNest, Op, OpKind};

use super::ast::{BinOp, Expr, Stmt};
use super::interp::Value;

/// Why lowering gave up on a nest (diagnostic; the caller falls back to
/// the naive executor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerBail {
    /// A loop bound is not a compile-time constant of the enclosing scope
    /// (e.g. triangular nests whose inner bound uses an outer induction
    /// variable).
    NonConstBound(String),
    /// A statement form the kernel compiler does not handle.
    UnsupportedStmt(String),
    /// An expression form the kernel compiler does not handle.
    UnsupportedExpr(String),
    /// An array index is not affine in the induction variables.
    NonAffineIndex(String),
    /// Two accesses to one array have different coefficient vectors —
    /// dependence distances would not be constant.
    NonUniformAccess(String),
    /// The dependence-distance solution set of an access pair is too
    /// large to enumerate — the nest's dependence structure is too
    /// irregular to pipeline safely.
    NonInjectiveAccess(String),
    /// A level has a zero (or negative) trip count; nothing to pipeline.
    EmptyLevel(String),
    /// Induction variable shadowing across levels.
    ShadowedVar(String),
}

impl std::fmt::Display for LowerBail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerBail::NonConstBound(s) => write!(f, "non-constant loop bound: {s}"),
            LowerBail::UnsupportedStmt(s) => write!(f, "unsupported statement: {s}"),
            LowerBail::UnsupportedExpr(s) => write!(f, "unsupported expression: {s}"),
            LowerBail::NonAffineIndex(s) => write!(f, "non-affine index: {s}"),
            LowerBail::NonUniformAccess(s) => write!(f, "non-uniform accesses to `{s}`"),
            LowerBail::NonInjectiveAccess(s) => write!(f, "non-injective accesses to `{s}`"),
            LowerBail::EmptyLevel(s) => write!(f, "empty loop level `{s}`"),
            LowerBail::ShadowedVar(s) => write!(f, "shadowed induction variable `{s}`"),
        }
    }
}

/// Resolve a free (non-induction) variable of the nest to its runtime
/// value — the interpreter passes its environment lookup.
pub type Resolver<'a> = dyn Fn(&str) -> Option<Value> + 'a;

/// An affine index expression: `Σ coefs[l]·i_l + offset` over the
/// absolute induction-variable values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AffineIdx {
    /// One coefficient per nest level, outermost first.
    pub coefs: Vec<i64>,
    /// Constant offset.
    pub offset: i64,
}

impl AffineIdx {
    fn constant(depth: usize, offset: i64) -> Self {
        Self {
            coefs: vec![0; depth],
            offset,
        }
    }

    /// Evaluate at absolute induction values.
    pub fn eval(&self, abs: &[i64]) -> i64 {
        self.coefs.iter().zip(abs).map(|(c, i)| c * i).sum::<i64>() + self.offset
    }
}

/// Unary math builtins the kernel supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn {
    /// `sqrt(x)`
    Sqrt,
    /// `abs(x)`
    Abs,
    /// `exp(x)`
    Exp,
    /// `log(x)`
    Log,
    /// `sin(x)`
    Sin,
    /// `cos(x)`
    Cos,
    /// `floor(x)`
    Floor,
}

/// Binary math builtins the kernel supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MathFn2 {
    /// `pow(x, y)`
    Pow,
    /// `min(x, y)`
    Min,
    /// `max(x, y)`
    Max,
}

/// One instruction of the compiled body tape.
#[derive(Debug, Clone, PartialEq)]
pub enum KInstr {
    /// `r[dst] = val`
    Const {
        /// Destination register.
        dst: usize,
        /// Literal value.
        val: f64,
    },
    /// `r[dst] = (absolute induction value at level)`
    IdxVal {
        /// Destination register.
        dst: usize,
        /// Nest level.
        level: usize,
    },
    /// `r[dst] = arrays[arr][idx]`
    Load {
        /// Destination register.
        dst: usize,
        /// Array table index.
        arr: usize,
        /// Affine index.
        idx: AffineIdx,
    },
    /// `r[dst] = r[a] ⊕ r[b]`
    Bin {
        /// Destination register.
        dst: usize,
        /// Operator.
        op: BinOp,
        /// Left operand register.
        a: usize,
        /// Right operand register.
        b: usize,
    },
    /// `r[dst] = -r[a]`
    Neg {
        /// Destination register.
        dst: usize,
        /// Operand register.
        a: usize,
    },
    /// `r[dst] = f(r[a])`
    Call1 {
        /// Destination register.
        dst: usize,
        /// Builtin.
        f: MathFn,
        /// Operand register.
        a: usize,
    },
    /// `r[dst] = f(r[a], r[b])`
    Call2 {
        /// Destination register.
        dst: usize,
        /// Builtin.
        f: MathFn2,
        /// Operand registers.
        a: usize,
        /// Second operand register.
        b: usize,
    },
    /// `arrays[arr][idx] (+)= r[src]`
    Store {
        /// Source register.
        src: usize,
        /// Array table index.
        arr: usize,
        /// Affine index.
        idx: AffineIdx,
        /// `+=` (atomic accumulate) rather than `=`.
        accumulate: bool,
    },
}

/// The immutable part of a compiled innermost body: the register tape
/// and the nest's lower bounds. It names arrays only by array-table
/// index, so one `KernelCode` can run over any run's arrays (the SSP
/// executor's plan cache rebinds it per run).
#[derive(Debug)]
pub struct KernelCode {
    /// Instructions in program order.
    pub instrs: Vec<KInstr>,
    /// Register count.
    pub regs: usize,
    /// Absolute lower bound per level: the executor hands 0-based indices,
    /// the kernel translates.
    pub los: Vec<i64>,
}

/// The compiled innermost body: shared immutable code plus the array
/// table of one run, executable at any iteration point by any thread.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The tape and geometry.
    pub code: Arc<KernelCode>,
    /// Array table (deduplicated by region identity).
    pub arrays: Vec<SharedRegion>,
}

thread_local! {
    /// Reusable evaluation scratch (registers + absolute indices): the
    /// kernel runs once per iteration point on the hot path, and a heap
    /// allocation per point would rival the tape's arithmetic cost.
    static KERNEL_SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<i64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

impl Kernel {
    /// Execute one iteration point given 0-based per-level indices.
    pub fn execute(&self, idx0: &[i64]) -> Result<(), String> {
        KERNEL_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let (regs, abs) = &mut *scratch;
            abs.clear();
            abs.extend(self.code.los.iter().zip(idx0).map(|(lo, i)| lo + i));
            regs.clear();
            regs.resize(self.code.regs, 0.0);
            self.code.execute_in(&self.arrays, abs, regs)
        })
    }

    /// Execute one tile of the `trips` box point by point: with `outer`
    /// the 0-based indices of the levels outside level `outer.len()`,
    /// every point whose index at that level lies in `lo..hi` (0-based),
    /// inner levels full, in lexicographic order — one SSP group's work
    /// ([`htvm_ssp::exec::TileBody`]), in the order
    /// [`CompiledKernel::execute_tile`](super::compile::CompiledKernel::execute_tile)
    /// runs it. The first failing point's error ends the tile. This is
    /// the compiled kernel's differential oracle.
    pub fn execute_tile(
        &self,
        trips: &[u64],
        outer: &[i64],
        lo: i64,
        hi: i64,
    ) -> Result<(), String> {
        let level = outer.len();
        let inner = &trips[level + 1..];
        let mut idx = outer.to_vec();
        idx.resize(trips.len(), 0);
        for l in lo..hi {
            idx[level] = l;
            for t in 0..inner.iter().product::<u64>() {
                let mut rem = t;
                for (k, &n) in inner.iter().enumerate().rev() {
                    idx[level + 1 + k] = (rem % n) as i64;
                    rem /= n;
                }
                self.execute(&idx)?;
            }
        }
        Ok(())
    }
}

impl KernelCode {
    /// The tape proper, over `arrays` and caller-provided scratch.
    fn execute_in(
        &self,
        arrays: &[SharedRegion],
        abs: &[i64],
        r: &mut [f64],
    ) -> Result<(), String> {
        let at = |arr: &SharedRegion, idx: &AffineIdx| -> Result<usize, String> {
            let i = idx.eval(abs);
            if i < 0 || i as usize >= arr.len() {
                return Err(format!(
                    "index {i} out of bounds for array of length {}",
                    arr.len()
                ));
            }
            Ok(i as usize)
        };
        for ins in &self.instrs {
            match ins {
                KInstr::Const { dst, val } => r[*dst] = *val,
                KInstr::IdxVal { dst, level } => r[*dst] = abs[*level] as f64,
                KInstr::Load { dst, arr, idx } => {
                    let a = &arrays[*arr];
                    r[*dst] = a.read_f64(at(a, idx)?);
                }
                KInstr::Bin { dst, op, a, b } => {
                    let (x, y) = (r[*a], r[*b]);
                    r[*dst] = match op {
                        BinOp::Add => x + y,
                        BinOp::Sub => x - y,
                        BinOp::Mul => x * y,
                        BinOp::Div => x / y,
                        BinOp::Rem => x % y,
                        BinOp::Eq => (x == y) as i64 as f64,
                        BinOp::Ne => (x != y) as i64 as f64,
                        BinOp::Lt => (x < y) as i64 as f64,
                        BinOp::Le => (x <= y) as i64 as f64,
                        BinOp::Gt => (x > y) as i64 as f64,
                        BinOp::Ge => (x >= y) as i64 as f64,
                        BinOp::And | BinOp::Or => unreachable!("bailed at compile time"),
                    };
                }
                KInstr::Neg { dst, a } => r[*dst] = -r[*a],
                KInstr::Call1 { dst, f, a } => {
                    let x = r[*a];
                    r[*dst] = match f {
                        MathFn::Sqrt => x.sqrt(),
                        MathFn::Abs => x.abs(),
                        MathFn::Exp => x.exp(),
                        MathFn::Log => x.ln(),
                        MathFn::Sin => x.sin(),
                        MathFn::Cos => x.cos(),
                        MathFn::Floor => x.floor(),
                    };
                }
                KInstr::Call2 { dst, f, a, b } => {
                    let (x, y) = (r[*a], r[*b]);
                    r[*dst] = match f {
                        MathFn2::Pow => x.powf(y),
                        MathFn2::Min => x.min(y),
                        MathFn2::Max => x.max(y),
                    };
                }
                KInstr::Store {
                    src,
                    arr,
                    idx,
                    accumulate,
                } => {
                    let a = &arrays[*arr];
                    let i = at(a, idx)?;
                    if *accumulate {
                        a.fetch_add_f64(i, r[*src]);
                    } else {
                        a.write_f64(i, r[*src]);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The result of lowering a `forall` nest.
#[derive(Debug, Clone)]
pub struct LoweredForall {
    /// The loop-nest IR handed to the SSP scheduler.
    pub nest: LoopNest,
    /// The compiled body.
    pub kernel: Kernel,
    /// Levels that were `forall` (parallel) in the source — the only
    /// levels the executor may partition.
    pub parallel_levels: Vec<usize>,
}

/// One collected nest level.
struct LevelInfo {
    var: String,
    lo: i64,
    n: u64,
    parallel: bool,
}

/// An array access recorded for dependence analysis.
struct Access {
    arr: usize,
    idx: AffineIdx,
    write: bool,
    op: usize,
}

/// Lower a `forall var in from..to { body }` whose bounds the caller has
/// already evaluated. See module docs for what qualifies.
pub fn lower_forall(
    var: &str,
    from: i64,
    to: i64,
    body: &[Stmt],
    resolve: &Resolver<'_>,
) -> Result<LoweredForall, LowerBail> {
    // 1. Collect the perfect nest.
    let mut levels = vec![LevelInfo {
        var: var.to_string(),
        lo: from,
        n: trip(var, from, to)?,
        parallel: true,
    }];
    let mut cur = body;
    loop {
        let induction: Vec<&str> = levels.iter().map(|l| l.var.as_str()).collect();
        match cur {
            [Stmt::Forall {
                var,
                from,
                to,
                body,
                hints: _,
            }] => {
                if induction.contains(&var.as_str()) {
                    return Err(LowerBail::ShadowedVar(var.clone()));
                }
                let (lo, hi) = bounds(from, to, &induction, resolve)?;
                levels.push(LevelInfo {
                    var: var.clone(),
                    lo,
                    n: trip(var, lo, hi)?,
                    parallel: true,
                });
                cur = body;
            }
            [Stmt::For(var, from, to, body)] => {
                if induction.contains(&var.as_str()) {
                    return Err(LowerBail::ShadowedVar(var.clone()));
                }
                let (lo, hi) = bounds(from, to, &induction, resolve)?;
                levels.push(LevelInfo {
                    var: var.clone(),
                    lo,
                    n: trip(var, lo, hi)?,
                    parallel: false,
                });
                cur = body;
            }
            _ => break,
        }
    }

    // 2. Compile the innermost body to a tape, collecting ops + accesses.
    let mut c = Compiler {
        levels: &levels,
        resolve,
        instrs: Vec::new(),
        regs: 0,
        arrays: Vec::new(),
        array_names: Vec::new(),
        scalars: HashMap::new(),
        reg_producer: Vec::new(),
        ops: Vec::new(),
        deps: Vec::new(),
        accesses: Vec::new(),
    };
    for stmt in cur {
        c.compile_stmt(stmt)?;
    }
    if c.accesses.iter().all(|a| !a.write) {
        // A nest with no stores has no observable effect worth pipelining.
        return Err(LowerBail::UnsupportedStmt("body performs no stores".into()));
    }

    // 3. Cross-iteration dependences from access pairs.
    c.memory_deps()?;

    let nest = LoopNest {
        name: format!("litlx:{var}"),
        trip_counts: levels.iter().map(|l| l.n).collect(),
        ops: c.ops,
        deps: c.deps,
    };
    nest.validate().map_err(LowerBail::UnsupportedStmt)?;
    Ok(LoweredForall {
        kernel: Kernel {
            code: Arc::new(KernelCode {
                instrs: c.instrs,
                regs: c.regs,
                los: levels.iter().map(|l| l.lo).collect(),
            }),
            arrays: c.arrays,
        },
        parallel_levels: levels
            .iter()
            .enumerate()
            .filter(|(_, l)| l.parallel)
            .map(|(i, _)| i)
            .collect(),
        nest,
    })
}

fn trip(var: &str, lo: i64, hi: i64) -> Result<u64, LowerBail> {
    if hi <= lo {
        return Err(LowerBail::EmptyLevel(var.to_string()));
    }
    Ok((hi - lo) as u64)
}

/// Evaluate a pair of loop-bound expressions to constants of the enclosing
/// scope (must not mention induction variables).
fn bounds(
    from: &Expr,
    to: &Expr,
    induction: &[&str],
    resolve: &Resolver<'_>,
) -> Result<(i64, i64), LowerBail> {
    let lo = const_int(from, induction, resolve)?;
    let hi = const_int(to, induction, resolve)?;
    Ok((lo, hi))
}

/// Constant-fold an expression over the enclosing scope. Induction
/// variables are not constants here.
fn const_num(e: &Expr, induction: &[&str], resolve: &Resolver<'_>) -> Result<f64, LowerBail> {
    let bail = || LowerBail::NonConstBound(format!("{e:?}"));
    match e {
        Expr::Num(n) => Ok(*n),
        Expr::Var(v) => {
            if induction.contains(&v.as_str()) {
                return Err(bail());
            }
            match resolve(v) {
                Some(Value::Num(n)) => Ok(n),
                _ => Err(bail()),
            }
        }
        Expr::Neg(x) => Ok(-const_num(x, induction, resolve)?),
        Expr::Bin(op, l, r) => {
            let a = const_num(l, induction, resolve)?;
            let b = const_num(r, induction, resolve)?;
            match op {
                BinOp::Add => Ok(a + b),
                BinOp::Sub => Ok(a - b),
                BinOp::Mul => Ok(a * b),
                BinOp::Div => Ok(a / b),
                BinOp::Rem => Ok(a % b),
                _ => Err(bail()),
            }
        }
        _ => Err(bail()),
    }
}

fn const_int(e: &Expr, induction: &[&str], resolve: &Resolver<'_>) -> Result<i64, LowerBail> {
    let n = const_num(e, induction, resolve)?;
    if n.fract() != 0.0 || n.abs() > 1e15 {
        return Err(LowerBail::NonConstBound(format!("{e:?}")));
    }
    Ok(n as i64)
}

struct Compiler<'a> {
    levels: &'a [LevelInfo],
    resolve: &'a Resolver<'a>,
    instrs: Vec<KInstr>,
    regs: usize,
    arrays: Vec<SharedRegion>,
    array_names: Vec<String>,
    /// Let-bound scalars → register.
    scalars: HashMap<String, usize>,
    /// Producing op of each register (None for constants/index values).
    reg_producer: Vec<Option<usize>>,
    ops: Vec<Op>,
    deps: Vec<Dep>,
    accesses: Vec<Access>,
}

impl Compiler<'_> {
    fn depth(&self) -> usize {
        self.levels.len()
    }

    fn fresh(&mut self, producer: Option<usize>) -> usize {
        let r = self.regs;
        self.regs += 1;
        self.reg_producer.push(producer);
        r
    }

    fn push_op(&mut self, name: impl Into<String>, latency: u32, kind: OpKind) -> usize {
        self.ops.push(Op::new(name, latency, kind));
        self.ops.len() - 1
    }

    fn dep_from(&mut self, producer: Option<usize>, to: usize) {
        if let Some(from) = producer {
            self.deps.push(Dep::independent(from, to, self.depth()));
        }
    }

    fn level_of(&self, name: &str) -> Option<usize> {
        self.levels.iter().position(|l| l.var == name)
    }

    fn array_id(&mut self, name: &str) -> Result<usize, LowerBail> {
        let region = match (self.resolve)(name) {
            Some(Value::Arr(a)) => a,
            _ => {
                return Err(LowerBail::UnsupportedExpr(format!(
                    "`{name}` is not an array"
                )))
            }
        };
        // Deduplicate by identity: two names may alias one region.
        if let Some(i) = self.arrays.iter().position(|a| a.same_region(&region)) {
            return Ok(i);
        }
        self.arrays.push(region);
        self.array_names.push(name.to_string());
        Ok(self.arrays.len() - 1)
    }

    /// Extract an affine form for an index expression.
    fn affine(&self, e: &Expr) -> Result<AffineIdx, LowerBail> {
        let bail = || LowerBail::NonAffineIndex(format!("{e:?}"));
        let depth = self.depth();
        match e {
            Expr::Num(n) => {
                if n.fract() != 0.0 {
                    return Err(bail());
                }
                Ok(AffineIdx::constant(depth, *n as i64))
            }
            Expr::Var(v) => {
                if let Some(l) = self.level_of(v) {
                    let mut a = AffineIdx::constant(depth, 0);
                    a.coefs[l] = 1;
                    return Ok(a);
                }
                let induction: Vec<&str> = self.levels.iter().map(|l| l.var.as_str()).collect();
                let n = const_num(e, &induction, self.resolve).map_err(|_| bail())?;
                if n.fract() != 0.0 {
                    return Err(bail());
                }
                let _ = v;
                Ok(AffineIdx::constant(depth, n as i64))
            }
            Expr::Neg(x) => {
                let mut a = self.affine(x)?;
                for c in &mut a.coefs {
                    *c = -*c;
                }
                a.offset = -a.offset;
                Ok(a)
            }
            Expr::Bin(BinOp::Add, l, r) => {
                let (a, b) = (self.affine(l)?, self.affine(r)?);
                Ok(combine(&a, &b, 1))
            }
            Expr::Bin(BinOp::Sub, l, r) => {
                let (a, b) = (self.affine(l)?, self.affine(r)?);
                Ok(combine(&a, &b, -1))
            }
            Expr::Bin(BinOp::Mul, l, r) => {
                let (a, b) = (self.affine(l)?, self.affine(r)?);
                let scale = |k: i64, x: &AffineIdx| AffineIdx {
                    coefs: x.coefs.iter().map(|c| c * k).collect(),
                    offset: x.offset * k,
                };
                if a.coefs.iter().all(|&c| c == 0) {
                    Ok(scale(a.offset, &b))
                } else if b.coefs.iter().all(|&c| c == 0) {
                    Ok(scale(b.offset, &a))
                } else {
                    Err(bail())
                }
            }
            _ => Err(bail()),
        }
    }

    fn compile_stmt(&mut self, stmt: &Stmt) -> Result<(), LowerBail> {
        match stmt {
            Stmt::Let(name, e) => {
                let (r, _) = self.compile_expr(e)?;
                self.scalars.insert(name.clone(), r);
                Ok(())
            }
            Stmt::StoreIndex {
                array,
                index,
                value,
                accumulate,
            } => {
                let arr = self.array_id(array)?;
                let idx = self.affine(index)?;
                let (src, producer) = self.compile_expr(value)?;
                let lat = if *accumulate { 5 } else { 1 };
                let op = self.push_op(format!("store {array}"), lat, OpKind::Mem);
                self.dep_from(producer, op);
                self.accesses.push(Access {
                    arr,
                    idx: idx.clone(),
                    write: true,
                    op,
                });
                self.instrs.push(KInstr::Store {
                    src,
                    arr,
                    idx,
                    accumulate: *accumulate,
                });
                Ok(())
            }
            other => Err(LowerBail::UnsupportedStmt(stmt_name(other).to_string())),
        }
    }

    /// Compile a pure value expression; returns (register, producing op).
    fn compile_expr(&mut self, e: &Expr) -> Result<(usize, Option<usize>), LowerBail> {
        match e {
            Expr::Num(n) => {
                let r = self.fresh(None);
                self.instrs.push(KInstr::Const { dst: r, val: *n });
                Ok((r, None))
            }
            Expr::Var(v) => {
                if let Some(l) = self.level_of(v) {
                    let r = self.fresh(None);
                    self.instrs.push(KInstr::IdxVal { dst: r, level: l });
                    return Ok((r, None));
                }
                if let Some(&r) = self.scalars.get(v) {
                    return Ok((r, self.reg_producer[r]));
                }
                match (self.resolve)(v) {
                    Some(Value::Num(n)) => {
                        let r = self.fresh(None);
                        self.instrs.push(KInstr::Const { dst: r, val: n });
                        Ok((r, None))
                    }
                    _ => Err(LowerBail::UnsupportedExpr(format!(
                        "free variable `{v}` is not a number"
                    ))),
                }
            }
            Expr::Index(arr, idx) => {
                let Expr::Var(name) = arr.as_ref() else {
                    return Err(LowerBail::UnsupportedExpr(format!("{arr:?}")));
                };
                let a = self.array_id(name)?;
                let aff = self.affine(idx)?;
                let op = self.push_op(format!("load {name}"), 4, OpKind::Mem);
                self.accesses.push(Access {
                    arr: a,
                    idx: aff.clone(),
                    write: false,
                    op,
                });
                let r = self.fresh(Some(op));
                self.instrs.push(KInstr::Load {
                    dst: r,
                    arr: a,
                    idx: aff,
                });
                Ok((r, Some(op)))
            }
            Expr::Neg(x) => {
                let (a, pa) = self.compile_expr(x)?;
                let op = self.push_op("neg", 1, OpKind::Alu);
                self.dep_from(pa, op);
                let r = self.fresh(Some(op));
                self.instrs.push(KInstr::Neg { dst: r, a });
                Ok((r, Some(op)))
            }
            Expr::Bin(op, l, r) => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    // Short-circuit semantics would change error behaviour
                    // under eager evaluation; leave to the interpreter.
                    return Err(LowerBail::UnsupportedExpr("&& / ||".into()));
                }
                let (a, pa) = self.compile_expr(l)?;
                let (b, pb) = self.compile_expr(r)?;
                let (lat, kind) = match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                        (5, OpKind::Fpu)
                    }
                    _ => (1, OpKind::Alu),
                };
                let o = self.push_op(format!("{op:?}"), lat, kind);
                self.dep_from(pa, o);
                self.dep_from(pb, o);
                let dst = self.fresh(Some(o));
                self.instrs.push(KInstr::Bin { dst, op: *op, a, b });
                Ok((dst, Some(o)))
            }
            Expr::Call(name, args) => {
                let f1 = match name.as_str() {
                    "sqrt" => Some(MathFn::Sqrt),
                    "abs" => Some(MathFn::Abs),
                    "exp" => Some(MathFn::Exp),
                    "log" => Some(MathFn::Log),
                    "sin" => Some(MathFn::Sin),
                    "cos" => Some(MathFn::Cos),
                    "floor" => Some(MathFn::Floor),
                    _ => None,
                };
                if let Some(f) = f1 {
                    if args.len() != 1 {
                        return Err(LowerBail::UnsupportedExpr(format!("{name} arity")));
                    }
                    let (a, pa) = self.compile_expr(&args[0])?;
                    let op = self.push_op(name.clone(), 8, OpKind::Fpu);
                    self.dep_from(pa, op);
                    let dst = self.fresh(Some(op));
                    self.instrs.push(KInstr::Call1 { dst, f, a });
                    return Ok((dst, Some(op)));
                }
                let f2 = match name.as_str() {
                    "pow" => Some(MathFn2::Pow),
                    "min" => Some(MathFn2::Min),
                    "max" => Some(MathFn2::Max),
                    _ => None,
                };
                if let Some(f) = f2 {
                    if args.len() != 2 {
                        return Err(LowerBail::UnsupportedExpr(format!("{name} arity")));
                    }
                    let (a, pa) = self.compile_expr(&args[0])?;
                    let (b, pb) = self.compile_expr(&args[1])?;
                    let op = self.push_op(name.clone(), 8, OpKind::Fpu);
                    self.dep_from(pa, op);
                    self.dep_from(pb, op);
                    let dst = self.fresh(Some(op));
                    self.instrs.push(KInstr::Call2 { dst, f, a, b });
                    return Ok((dst, Some(op)));
                }
                Err(LowerBail::UnsupportedExpr(format!("call to `{name}`")))
            }
            Expr::Not(_) => Err(LowerBail::UnsupportedExpr("!".into())),
        }
    }

    /// Cross-iteration dependences: examine every pair of accesses to one
    /// array where at least one writes, and emit distance vectors (see
    /// module docs for the conservative representative-set construction).
    fn memory_deps(&mut self) -> Result<(), LowerBail> {
        let depth = self.depth();
        let trips: Vec<u64> = self.levels.iter().map(|l| l.n).collect();
        let mut new_deps: Vec<Dep> = Vec::new();
        for i in 0..self.accesses.len() {
            for j in i..self.accesses.len() {
                let (a, b) = (&self.accesses[i], &self.accesses[j]);
                if a.arr != b.arr || (!a.write && !b.write) {
                    continue;
                }
                if i == j && !a.write {
                    continue;
                }
                let name = self.array_names[a.arr].clone();
                if a.idx.coefs != b.idx.coefs {
                    return Err(LowerBail::NonUniformAccess(name));
                }
                // Same location when coef·(I_b − I_a) = offset_a − offset_b.
                let delta = a.idx.offset - b.idx.offset;
                let free: Vec<usize> = (0..depth).filter(|&l| a.idx.coefs[l] == 0).collect();
                let fixed: Vec<usize> = (0..depth).filter(|&l| a.idx.coefs[l] != 0).collect();
                // Enumerate every fixed-level solution of
                // `coef·d = delta` realizable inside the iteration space
                // (distance digits are symmetric around 0, so the map need
                // not be injective — e.g. strides (4,1) admit both (0,2)
                // and (1,−2) for Δ = 2; every solution is a dependence).
                for d_fixed in solve_uniform(&a.idx.coefs, &trips, &fixed, delta, &name)? {
                    let mut v = vec![0i64; depth];
                    for (&l, &d) in fixed.iter().zip(&d_fixed) {
                        v[l] = d;
                    }
                    if v.iter().all(|&x| x == 0) {
                        // Same fixed point: loop-independent dep in program
                        // order, plus a carried dep at every free level
                        // (the location is shared across their iterations),
                        // both directions.
                        if a.op != b.op {
                            let (from, to) = if a.op < b.op {
                                (a.op, b.op)
                            } else {
                                (b.op, a.op)
                            };
                            new_deps.push(Dep::independent(from, to, depth));
                        }
                        for &f in &free {
                            new_deps.push(Dep::carried_at(a.op, b.op, depth, f));
                            if a.op != b.op {
                                new_deps.push(Dep::carried_at(b.op, a.op, depth, f));
                            }
                        }
                        continue;
                    }
                    // Direction from the lexicographic sign.
                    let (src, dst, w): (usize, usize, Vec<i64>) =
                        if *v.iter().find(|&&x| x != 0).expect("nonzero") > 0 {
                            (a.op, b.op, v)
                        } else {
                            (b.op, a.op, v.iter().map(|x| -x).collect())
                        };
                    let p = w.iter().position(|&x| x != 0).expect("nonzero");
                    new_deps.push(Dep {
                        from: src,
                        to: dst,
                        distance: w.clone(),
                    });
                    // Free levels before the first fixed component admit
                    // realized distances carried at that level — both
                    // directions (see module docs).
                    for &f in free.iter().filter(|&&f| f < p) {
                        let mut u = w.clone();
                        u[f] = 1;
                        new_deps.push(Dep {
                            from: src,
                            to: dst,
                            distance: u,
                        });
                        let mut u2: Vec<i64> = w.iter().map(|x| -x).collect();
                        u2[f] = 1;
                        new_deps.push(Dep {
                            from: dst,
                            to: src,
                            distance: u2,
                        });
                    }
                }
            }
        }
        new_deps.sort_by(|a, b| (a.from, a.to, &a.distance).cmp(&(b.from, b.to, &b.distance)));
        new_deps.dedup();
        self.deps.extend(new_deps);
        self.deps
            .sort_by(|a, b| (a.from, a.to, &a.distance).cmp(&(b.from, b.to, &b.distance)));
        self.deps.dedup();
        Ok(())
    }
}

fn combine(a: &AffineIdx, b: &AffineIdx, sign: i64) -> AffineIdx {
    AffineIdx {
        coefs: a
            .coefs
            .iter()
            .zip(&b.coefs)
            .map(|(x, y)| x + sign * y)
            .collect(),
        offset: a.offset + sign * b.offset,
    }
}

fn stmt_name(s: &Stmt) -> &'static str {
    match s {
        Stmt::Let(..) => "let",
        Stmt::Assign(..) => "assignment to an outer scalar",
        Stmt::StoreIndex { .. } => "store",
        Stmt::If(..) => "if",
        Stmt::While(..) => "while",
        Stmt::For(..) => "imperfectly nested for",
        Stmt::Forall { .. } => "imperfectly nested forall",
        Stmt::Spawn(..) => "spawn",
        Stmt::Future(..) => "future",
        Stmt::Atomic(..) => "atomic",
        Stmt::Return(..) => "return",
        Stmt::Expr(..) => "expression statement",
    }
}

/// Cap on enumerated dependence solutions per access pair; beyond this the
/// dependence structure is considered too irregular to pipeline.
const MAX_SOLUTIONS: usize = 32;

/// Enumerate every solution of `Σ coefs[l]·d_l = delta` over the `fixed`
/// levels with `|d_l| < trip_l` — each one is an iteration-distance at
/// which the two accesses touch the same location. Distance digits are
/// symmetric around zero, so several solutions can coexist even for
/// mixed-radix strides. Returns solutions in `fixed` order; bails if the
/// set explodes past [`MAX_SOLUTIONS`].
fn solve_uniform(
    coefs: &[i64],
    trips: &[u64],
    fixed: &[usize],
    delta: i64,
    array: &str,
) -> Result<Vec<Vec<i64>>, LowerBail> {
    // Order fixed levels by |stride| descending and prune with the total
    // reach of the smaller strides.
    let mut order: Vec<usize> = fixed.to_vec();
    order.sort_by_key(|&l| std::cmp::Reverse(coefs[l].abs()));
    let mut reach = vec![0i64; order.len() + 1];
    for k in (0..order.len()).rev() {
        let l = order[k];
        reach[k] = reach[k + 1] + (trips[l] as i64 - 1) * coefs[l].abs();
    }
    struct Search<'a> {
        order: &'a [usize],
        reach: &'a [i64],
        coefs: &'a [i64],
        trips: &'a [u64],
        out: Vec<HashMap<usize, i64>>,
    }
    impl Search<'_> {
        fn rec(&mut self, k: usize, rem: i64, digits: &mut HashMap<usize, i64>) -> bool {
            if k == self.order.len() {
                if rem == 0 {
                    self.out.push(digits.clone());
                }
                return self.out.len() <= MAX_SOLUTIONS;
            }
            let l = self.order[k];
            let s = self.coefs[l];
            let max_d = self.trips[l] as i64 - 1;
            for q in -max_d..=max_d {
                if (rem - q * s).abs() > self.reach[k + 1] {
                    continue;
                }
                digits.insert(l, q);
                let ok = self.rec(k + 1, rem - q * s, digits);
                digits.remove(&l);
                if !ok {
                    return false;
                }
            }
            true
        }
    }
    let mut search = Search {
        order: &order,
        reach: &reach,
        coefs,
        trips,
        out: Vec::new(),
    };
    let mut digits: HashMap<usize, i64> = HashMap::new();
    if !search.rec(0, delta, &mut digits) {
        return Err(LowerBail::NonInjectiveAccess(array.to_string()));
    }
    let out = search.out;
    Ok(out
        .into_iter()
        .map(|m| fixed.iter().map(|l| m[l]).collect())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::parser::parse;

    /// Lower the first `forall` of `main` with the given free bindings.
    fn lower_src(src: &str, bindings: &[(&str, Value)]) -> Result<LoweredForall, LowerBail> {
        let p = parse(src).unwrap();
        let main = p.get_fn("main").unwrap();
        let Stmt::Forall {
            var,
            from,
            to,
            body,
            ..
        } = main
            .body
            .iter()
            .find(|s| matches!(s, Stmt::Forall { .. }))
            .unwrap()
        else {
            unreachable!()
        };
        let resolve = |name: &str| -> Option<Value> {
            bindings
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.clone())
        };
        let get = |e: &Expr| const_int(e, &[], &resolve).unwrap();
        lower_forall(var, get(from), get(to), body, &resolve)
    }

    fn arr(n: usize) -> Value {
        Value::Arr(SharedRegion::new(n))
    }

    #[test]
    fn matmul_nest_lowers_with_k_carried_accumulate() {
        let src = "fn main() {
            forall i in 0..8 {
              forall j in 0..8 {
                for k in 0..8 {
                  c[i * 8 + j] += a[i * 8 + k] * b[k * 8 + j];
                }
              }
            }
          }";
        let l = lower_src(src, &[("a", arr(64)), ("b", arr(64)), ("c", arr(64))]).unwrap();
        assert_eq!(l.nest.trip_counts, vec![8, 8, 8]);
        assert_eq!(l.parallel_levels, vec![0, 1]);
        // The accumulate store is carried by k (level 2) only.
        let store_self: Vec<_> = l
            .nest
            .deps
            .iter()
            .filter(|d| d.from == d.to && d.distance.iter().any(|&x| x != 0))
            .collect();
        assert!(!store_self.is_empty(), "accumulate must self-depend");
        for d in store_self {
            assert_eq!(d.distance, vec![0, 0, 1]);
        }
        assert!(l.nest.validate().is_ok());
    }

    #[test]
    fn carried_shift_produces_outer_distance() {
        // a[(i+1)*m + j] = a[i*m + j] + 1 → flow dep carried at i, dist 1.
        let src = "fn main() {
            forall i in 0..6 {
              forall j in 0..4 {
                a[(i + 1) * 4 + j] = a[i * 4 + j] + 1;
              }
            }
          }";
        let l = lower_src(src, &[("a", arr(64))]).unwrap();
        assert!(
            l.nest
                .deps
                .iter()
                .any(|d| d.distance == vec![1, 0] && d.from != d.to),
            "expected an i-carried flow dep: {:?}",
            l.nest.deps
        );
    }

    #[test]
    fn kernel_executes_points() {
        let src = "fn main() {
            forall i in 0..4 {
              forall j in 0..3 {
                y[i * 3 + j] = x[i * 3 + j] * 2 + i;
              }
            }
          }";
        let x = SharedRegion::from_f64(&(0..12).map(|v| v as f64).collect::<Vec<_>>());
        let y = SharedRegion::new(12);
        let l = lower_src(
            src,
            &[("x", Value::Arr(x.clone())), ("y", Value::Arr(y.clone()))],
        )
        .unwrap();
        for i in 0..4 {
            for j in 0..3 {
                l.kernel.execute(&[i, j]).unwrap();
            }
        }
        for v in 0..12 {
            assert_eq!(y.read_f64(v), (v as f64) * 2.0 + (v / 3) as f64);
        }
    }

    #[test]
    fn kernel_reports_out_of_bounds() {
        let src = "fn main() {
            forall i in 0..10 { a[i + 3] = 1; }
          }";
        let l = lower_src(src, &[("a", arr(8))]).unwrap();
        assert!(l.kernel.execute(&[2]).is_ok());
        let err = l.kernel.execute(&[7]).unwrap_err();
        assert!(err.contains("out of bounds"), "{err}");
    }

    #[test]
    fn non_affine_and_unsupported_forms_bail() {
        let a8 = || ("a", arr(8));
        // Index quadratic in the induction variable.
        assert!(matches!(
            lower_src("fn main() { forall i in 0..4 { a[i * i] = 1; } }", &[a8()]),
            Err(LowerBail::NonAffineIndex(_))
        ));
        // Print has side effects.
        assert!(matches!(
            lower_src("fn main() { forall i in 0..4 { print(i); } }", &[]),
            Err(LowerBail::UnsupportedStmt(_))
        ));
        // Triangular bound.
        assert!(matches!(
            lower_src(
                "fn main() { forall i in 0..4 { forall j in 0..i { a[j] = 1; } } }",
                &[a8()]
            ),
            Err(LowerBail::NonConstBound(_))
        ));
        // Transposed (non-uniform) read of a written array.
        assert!(matches!(
            lower_src(
                "fn main() { forall i in 0..2 { forall j in 0..2 {
                    a[i * 2 + j] = a[j * 2 + i];
                 } } }",
                &[a8()]
            ),
            Err(LowerBail::NonUniformAccess(_))
        ));
        // Empty range.
        assert!(matches!(
            lower_src("fn main() { forall i in 4..4 { a[i] = 1; } }", &[a8()]),
            Err(LowerBail::EmptyLevel(_))
        ));
    }

    #[test]
    fn symmetric_digit_range_yields_multiple_dependences() {
        // a[i*4+j] vs a[i*4+j+2] over j in 0..4: Δ = 2 is realized both as
        // (0, 2) and as (1, −2) — the analysis must emit both, not pick
        // one arbitrarily.
        let src = "fn main() {
            forall i in 0..6 {
              forall j in 0..4 {
                a[i * 4 + j] = a[i * 4 + j + 2] + 1;
              }
            }
          }";
        let l = lower_src(src, &[("a", arr(32))]).unwrap();
        let carried: Vec<&Dep> = l
            .nest
            .deps
            .iter()
            .filter(|d| d.distance.iter().any(|&x| x != 0))
            .collect();
        assert!(
            carried.iter().any(|d| d.distance == vec![0, 2]),
            "missing the (0,2) solution: {carried:?}"
        );
        assert!(
            carried.iter().any(|d| d.distance == vec![1, -2]),
            "missing the (1,-2) solution: {carried:?}"
        );
    }

    #[test]
    fn aliased_arrays_share_an_entry() {
        let region = SharedRegion::new(16);
        let src = "fn main() { forall i in 0..8 { a[i] = b[i + 8]; } }";
        let l = lower_src(
            src,
            &[
                ("a", Value::Arr(region.clone())),
                ("b", Value::Arr(region.clone())),
            ],
        )
        .unwrap();
        assert_eq!(l.kernel.arrays.len(), 1, "aliases must unify");
    }

    #[test]
    fn read_only_nest_bails() {
        let src = "fn main() { forall i in 0..8 { let x = a[i]; } }";
        assert!(matches!(
            lower_src(src, &[("a", arr(8))]),
            Err(LowerBail::UnsupportedStmt(_))
        ));
    }
}
