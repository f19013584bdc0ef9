//! Compiling the lowered kernel tape for run-at-a-time execution.
//!
//! [`super::lower`] produces a per-point register tape: correct, but every
//! iteration point pays a scratch borrow, per-instruction dispatch, an
//! affine-index evaluation and a bounds check per access, and a
//! `Result<(), String>` error path. This module takes that tape plus the
//! nest's rectangular trip counts and produces a [`CompiledKernel`] that
//! executes whole **runs** — `(prefix, t0..t1)` spans of the innermost
//! level — instead of points:
//!
//! 1. **Tape optimization** — constant folding, dead-register
//!    elimination, and a preamble/body split that hoists everything
//!    invariant in the innermost level (constants, outer index values,
//!    loads with innermost stride 0 from arrays the kernel never stores)
//!    to once-per-run execution.
//! 2. **Bounds-check hoisting** — each access's affine index is bounded
//!    over the whole iteration box at compile time (interval arithmetic in
//!    `i128`, so no intermediate overflow). A proven access runs
//!    branch-free and infallibly through the `SharedRegion` unchecked
//!    API; an unproven access keeps a checked fallback whose error — a
//!    tiny `Copy` [`KernelFault`] — is formatted only if it surfaces.
//! 3. **Strength reduction** — affine polynomials become per-slot base
//!    indices (evaluated once per run) plus per-point stride increments.
//! 4. **Monomorphization** — the two shapes the benchmarks actually hit
//!    get native closed-form loops, unrolled by 4 over the region word
//!    slabs: `Plan::DotAccum` (`c[..] += a[..] * b[..]` with an
//!    innermost-invariant store, the matmul reduction) and
//!    `Plan::FmaMap` (`d[..] = a[..] * b[..] (+ k)`, the elementwise
//!    map). Everything else runs on the optimized run-at-a-time tape
//!    interpreter, `Plan::Tape`.
//!
//! # Why the results stay bit-identical to the interpreted path
//!
//! The SSP executor serializes every pair of iterations that can touch
//! one location: same-location accesses inside one partitioned-level
//! iteration run sequentially in one group, and pairs that span
//! partitioned-level iterations force a wavefront (the lowering emits
//! carried dependences at every distinguishing level, in both directions
//! for free levels), which runs groups in ascending order. Execution
//! order is therefore exactly the sequential lexicographic order, so
//!
//! * accumulate stores may use a plain load-add-store
//!   ([`SharedRegion::accum_f64_unchecked`]) instead of a CAS loop, and
//! * `Plan::DotAccum` may keep the accumulator in a register for the
//!   whole run and store once — the products are applied in iteration
//!   order to the loaded value, so the final bits equal the per-point
//!   read-add-write sequence. This requires the store array to be
//!   distinct from both load arrays (checked at compile time; regions
//!   are identity-deduplicated, and distinct regions never overlap).
//!
//! The unrolled loops never reassociate floating-point sums. Memory
//! access stays relaxed-atomic throughout — a racing LITL-X `spawn` may
//! always write a `SharedRegion` concurrently, so handing LLVM a plain
//! `&[f64]` would be undefined behaviour no matter what the kernel
//! proves about itself. Relaxed `AtomicU64` loads/stores compile to bare
//! moves on x86-64; the unroll buys instruction-level parallelism even
//! though the atomic slabs keep the autovectorizer off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htvm_core::SharedRegion;

use super::ast::BinOp;
use super::lower::{AffineIdx, KInstr, Kernel, KernelCode, MathFn, MathFn2};

/// A data-dependent bounds fault from an unproven access of the checked
/// fallback path. Deliberately a tiny `Copy` value: the hot loop returns
/// it by value and nothing allocates unless the caller formats it (the
/// text matches the interpreted kernel's error, so both paths report
/// identically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelFault {
    /// Array-table index of the faulting access.
    pub arr: usize,
    /// The affine index value that fell outside the array.
    pub index: i64,
    /// Length of the array.
    pub len: usize,
}

impl std::fmt::Display for KernelFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "index {} out of bounds for array of length {}",
            self.index, self.len
        )
    }
}

impl std::error::Error for KernelFault {}

/// One array access of the compiled kernel: the original affine form,
/// its innermost stride, and whether the whole-box bounds proof held.
#[derive(Debug, Clone)]
pub struct RunAccess {
    /// Array-table index.
    pub arr: usize,
    /// The affine index over absolute induction values.
    pub idx: AffineIdx,
    /// Innermost-level coefficient: the per-point index increment.
    pub stride: i64,
    /// Whether `min/max` of `idx` over the iteration box is provably in
    /// bounds — the license for the branch-free unchecked path.
    pub proven: bool,
}

/// One instruction of the optimized tape. Mirrors [`KInstr`] except that
/// loads and stores reference an access **slot** whose index is
/// maintained incrementally per point instead of re-evaluating the
/// affine polynomial.
#[derive(Debug, Clone, PartialEq)]
enum CInstr {
    Const {
        dst: usize,
        val: f64,
    },
    IdxVal {
        dst: usize,
        level: usize,
    },
    Load {
        dst: usize,
        slot: usize,
    },
    Bin {
        dst: usize,
        op: BinOp,
        a: usize,
        b: usize,
    },
    Neg {
        dst: usize,
        a: usize,
    },
    Call1 {
        dst: usize,
        f: MathFn,
        a: usize,
    },
    Call2 {
        dst: usize,
        f: MathFn2,
        a: usize,
        b: usize,
    },
    Store {
        src: usize,
        slot: usize,
        accumulate: bool,
    },
}

impl CInstr {
    fn dst(&self) -> Option<usize> {
        match self {
            CInstr::Const { dst, .. }
            | CInstr::IdxVal { dst, .. }
            | CInstr::Load { dst, .. }
            | CInstr::Bin { dst, .. }
            | CInstr::Neg { dst, .. }
            | CInstr::Call1 { dst, .. }
            | CInstr::Call2 { dst, .. } => Some(*dst),
            CInstr::Store { .. } => None,
        }
    }

    fn operands(&self) -> (Option<usize>, Option<usize>) {
        match self {
            CInstr::Const { .. } | CInstr::IdxVal { .. } | CInstr::Load { .. } => (None, None),
            CInstr::Neg { a, .. } | CInstr::Call1 { a, .. } => (Some(*a), None),
            CInstr::Bin { a, b, .. } | CInstr::Call2 { a, b, .. } => (Some(*a), Some(*b)),
            CInstr::Store { src, .. } => (Some(*src), None),
        }
    }
}

/// The `c[..] += a[..] * b[..]` reduction with an innermost-invariant
/// store: per-run register accumulation, one store.
#[derive(Debug, Clone, Copy)]
struct DotAccum {
    /// Access slots: the two loads and the accumulate store.
    a: usize,
    b: usize,
    c: usize,
}

/// The `d[..] = a[..] * b[..] (+ k)` elementwise map; `k` is a
/// preamble register (run-invariant), if present.
#[derive(Debug, Clone, Copy)]
struct FmaMap {
    a: usize,
    b: usize,
    dst: usize,
    addend: Option<usize>,
}

/// How a compiled kernel executes a run.
#[derive(Debug, Clone)]
enum Plan {
    /// Monomorphized accumulate reduction (see [`DotAccum`]).
    DotAccum(DotAccum),
    /// Monomorphized elementwise FMA map (see [`FmaMap`]).
    FmaMap(FmaMap),
    /// The optimized run-at-a-time tape interpreter.
    Tape,
}

/// Introspection of a compilation, for tests, benches and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileInfo {
    /// Which executor the kernel got: `"dot-accum"`, `"fma-map"` or
    /// `"tape"`.
    pub plan: &'static str,
    /// Total access slots.
    pub accesses: usize,
    /// Slots whose bounds proof held.
    pub proven: usize,
    /// Instructions hoisted to the once-per-run preamble.
    pub hoisted: usize,
    /// Per-point body instructions after optimization.
    pub body: usize,
    /// Whether every access is proven (the kernel is infallible).
    pub all_proven: bool,
}

/// The immutable result of compiling a kernel against one nest geometry
/// and one set of array lengths: everything but the arrays themselves.
/// Shared behind an `Arc`, it is rebound to each run's arrays by
/// `CompiledKernel::bind`, which asserts the lengths the bounds proofs
/// were made against.
#[derive(Debug)]
pub(crate) struct CompiledCode {
    lens: Vec<usize>,
    los: Vec<i64>,
    trips: Vec<u64>,
    accesses: Vec<RunAccess>,
    preamble: Vec<CInstr>,
    body: Vec<CInstr>,
    regs: usize,
    plan: Plan,
}

/// A compiled kernel bound to one run's array table, executing runs of
/// the innermost level.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    code: Arc<CompiledCode>,
    arrays: Vec<SharedRegion>,
}

/// Bound `idx` over the rectangular box `[los[l], los[l]+trips[l])` per
/// level and check the extremes against `len`. Interval arithmetic in
/// `i128`: the i64 coefficients and bounds cannot overflow the product
/// space.
fn prove_in_bounds(idx: &AffineIdx, los: &[i64], trips: &[u64], len: usize) -> bool {
    let mut lo = idx.offset as i128;
    let mut hi = idx.offset as i128;
    for ((&c, &l0), &n) in idx.coefs.iter().zip(los).zip(trips) {
        if n == 0 {
            // Empty box: nothing will execute; treat as unproven so the
            // unchecked path is never licensed by a vacuous proof.
            return false;
        }
        let at_lo = (c as i128) * (l0 as i128);
        let at_hi = (c as i128) * (l0 as i128 + n as i128 - 1);
        lo += at_lo.min(at_hi);
        hi += at_lo.max(at_hi);
    }
    lo >= 0 && hi < len as i128
}

fn eval_bin(op: BinOp, x: f64, y: f64) -> f64 {
    match op {
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
        BinOp::And | BinOp::Or => unreachable!("bailed at lowering"),
    }
}

fn eval_call1(f: MathFn, x: f64) -> f64 {
    match f {
        MathFn::Sqrt => x.sqrt(),
        MathFn::Abs => x.abs(),
        MathFn::Exp => x.exp(),
        MathFn::Log => x.ln(),
        MathFn::Sin => x.sin(),
        MathFn::Cos => x.cos(),
        MathFn::Floor => x.floor(),
    }
}

fn eval_call2(f: MathFn2, x: f64, y: f64) -> f64 {
    match f {
        MathFn2::Pow => x.powf(y),
        MathFn2::Min => x.min(y),
        MathFn2::Max => x.max(y),
    }
}

/// Compile `kernel` against the nest's rectangular `trips` (one count
/// per level, outermost first — the same geometry the SSP executor
/// partitions). The result is tied to this geometry and to the lengths
/// of `kernel.arrays`: the bounds proofs quantify over exactly this box,
/// [`CompiledKernel::execute_run`] asserts membership, and
/// `CompiledKernel::bind` asserts the lengths.
pub fn compile(kernel: &Kernel, trips: &[u64]) -> CompiledKernel {
    let lens: Vec<usize> = kernel.arrays.iter().map(SharedRegion::len).collect();
    let code = Arc::new(compile_code(&kernel.code, lens, trips));
    CompiledKernel::bind(code, kernel.arrays.clone())
}

/// The array-independent core of [`compile`]: `lens[k]` is the length
/// the bounds proofs assume for array-table entry `k`.
pub(crate) fn compile_code(kernel: &KernelCode, lens: Vec<usize>, trips: &[u64]) -> CompiledCode {
    assert_eq!(
        kernel.los.len(),
        trips.len(),
        "trip counts must cover every nest level"
    );
    let depth = trips.len();
    let innermost = depth - 1;

    // Pass 1: KInstr -> CInstr, collecting access slots (base + stride +
    // bounds proof) and folding constants as we go.
    let mut accesses: Vec<RunAccess> = Vec::new();
    let slot = |accesses: &mut Vec<RunAccess>, arr: usize, idx: &AffineIdx| -> usize {
        accesses.push(RunAccess {
            arr,
            idx: idx.clone(),
            stride: *idx.coefs.last().expect("depth >= 1"),
            proven: prove_in_bounds(idx, &kernel.los, trips, lens[arr]),
        });
        accesses.len() - 1
    };
    let mut known: Vec<Option<f64>> = vec![None; kernel.regs];
    let mut instrs: Vec<CInstr> = Vec::with_capacity(kernel.instrs.len());
    for ins in &kernel.instrs {
        match ins {
            KInstr::Const { dst, val } => {
                known[*dst] = Some(*val);
                instrs.push(CInstr::Const {
                    dst: *dst,
                    val: *val,
                });
            }
            KInstr::IdxVal { dst, level } => instrs.push(CInstr::IdxVal {
                dst: *dst,
                level: *level,
            }),
            KInstr::Load { dst, arr, idx } => {
                let s = slot(&mut accesses, *arr, idx);
                instrs.push(CInstr::Load { dst: *dst, slot: s });
            }
            KInstr::Bin { dst, op, a, b } => match (known[*a], known[*b]) {
                (Some(x), Some(y)) => {
                    let v = eval_bin(*op, x, y);
                    known[*dst] = Some(v);
                    instrs.push(CInstr::Const { dst: *dst, val: v });
                }
                _ => instrs.push(CInstr::Bin {
                    dst: *dst,
                    op: *op,
                    a: *a,
                    b: *b,
                }),
            },
            KInstr::Neg { dst, a } => match known[*a] {
                Some(x) => {
                    known[*dst] = Some(-x);
                    instrs.push(CInstr::Const { dst: *dst, val: -x });
                }
                None => instrs.push(CInstr::Neg { dst: *dst, a: *a }),
            },
            KInstr::Call1 { dst, f, a } => match known[*a] {
                Some(x) => {
                    let v = eval_call1(*f, x);
                    known[*dst] = Some(v);
                    instrs.push(CInstr::Const { dst: *dst, val: v });
                }
                None => instrs.push(CInstr::Call1 {
                    dst: *dst,
                    f: *f,
                    a: *a,
                }),
            },
            KInstr::Call2 { dst, f, a, b } => match (known[*a], known[*b]) {
                (Some(x), Some(y)) => {
                    let v = eval_call2(*f, x, y);
                    known[*dst] = Some(v);
                    instrs.push(CInstr::Const { dst: *dst, val: v });
                }
                _ => instrs.push(CInstr::Call2 {
                    dst: *dst,
                    f: *f,
                    a: *a,
                    b: *b,
                }),
            },
            KInstr::Store {
                src,
                arr,
                idx,
                accumulate,
            } => {
                let s = slot(&mut accesses, *arr, idx);
                instrs.push(CInstr::Store {
                    src: *src,
                    slot: s,
                    accumulate: *accumulate,
                });
            }
        }
    }

    // Pass 2: dead-register elimination (backward liveness). Stores are
    // roots. A dead *load* may only be dropped when its bounds are proven
    // — an unproven dead load must stay, or the compiled kernel would
    // stop faulting where the interpreted one faults.
    let mut live = vec![false; kernel.regs];
    let mut keep = vec![false; instrs.len()];
    for (i, ins) in instrs.iter().enumerate().rev() {
        let needed = match ins {
            CInstr::Store { .. } => true,
            CInstr::Load { dst, slot } => live[*dst] || !accesses[*slot].proven,
            other => other.dst().map(|d| live[d]).unwrap_or(false),
        };
        keep[i] = needed;
        if needed {
            let (a, b) = ins.operands();
            if let Some(a) = a {
                live[a] = true;
            }
            if let Some(b) = b {
                live[b] = true;
            }
        }
    }
    let instrs: Vec<CInstr> = instrs
        .into_iter()
        .zip(keep)
        .filter_map(|(ins, k)| k.then_some(ins))
        .collect();

    // Pass 3: preamble/body split. Innermost-invariant instructions run
    // once per run. A load hoists only when its innermost stride is 0,
    // its bounds are proven (a hoisted fault would reorder against body
    // stores), and the kernel never stores its array (a body store could
    // feed it mid-run).
    let mut array_stored = vec![false; lens.len()];
    for ins in &instrs {
        if let CInstr::Store { slot, .. } = ins {
            array_stored[accesses[*slot].arr] = true;
        }
    }
    let mut hoisted_reg = vec![false; kernel.regs];
    let mut preamble = Vec::new();
    let mut body = Vec::new();
    for ins in instrs {
        let hoist = match &ins {
            CInstr::Const { .. } => true,
            CInstr::IdxVal { level, .. } => *level < innermost,
            CInstr::Load { slot, .. } => {
                let a = &accesses[*slot];
                a.stride == 0 && a.proven && !array_stored[a.arr]
            }
            CInstr::Neg { a, .. } | CInstr::Call1 { a, .. } => hoisted_reg[*a],
            CInstr::Bin { a, b, .. } | CInstr::Call2 { a, b, .. } => {
                hoisted_reg[*a] && hoisted_reg[*b]
            }
            CInstr::Store { .. } => false,
        };
        if hoist {
            if let Some(d) = ins.dst() {
                hoisted_reg[d] = true;
            }
            preamble.push(ins);
        } else {
            body.push(ins);
        }
    }

    // Pass 4: monomorphization over the residual body.
    let plan = match_dot_accum(&body, &accesses)
        .or_else(|| match_fma_map(&body, &accesses, &hoisted_reg))
        .unwrap_or(Plan::Tape);

    CompiledCode {
        lens,
        los: kernel.los.clone(),
        trips: trips.to_vec(),
        accesses,
        preamble,
        body,
        regs: kernel.regs,
        plan,
    }
}

/// Match `c[inv] += a[..] * b[..]`: two loads, a multiply of exactly
/// those, an accumulate store of the product whose index is
/// innermost-invariant. Requires full bounds proofs and a store array
/// distinct from both load arrays (the run-long register accumulator
/// defers the store to the end of the run, which must not be observable
/// through a load).
fn match_dot_accum(body: &[CInstr], accesses: &[RunAccess]) -> Option<Plan> {
    let [CInstr::Load { dst: r1, slot: sa }, CInstr::Load { dst: r2, slot: sb }, CInstr::Bin {
        dst: r3,
        op: BinOp::Mul,
        a,
        b,
    }, CInstr::Store {
        src,
        slot: sc,
        accumulate: true,
    }] = body
    else {
        return None;
    };
    if !((a == r1 && b == r2) || (a == r2 && b == r1)) || src != r3 {
        return None;
    }
    let (aa, ab, ac) = (&accesses[*sa], &accesses[*sb], &accesses[*sc]);
    if ac.stride != 0 || !(aa.proven && ab.proven && ac.proven) {
        return None;
    }
    if ac.arr == aa.arr || ac.arr == ab.arr {
        return None;
    }
    Some(Plan::DotAccum(DotAccum {
        a: *sa,
        b: *sb,
        c: *sc,
    }))
}

/// Match `d[..] = a[..] * b[..]` or `d[..] = a[..] * b[..] + k` with `k`
/// a run-invariant (preamble) register. Requires full bounds proofs and
/// a destination array distinct from both sources: the unrolled loop
/// batches four loads before four stores, which is only
/// order-equivalent when they cannot alias.
fn match_fma_map(body: &[CInstr], accesses: &[RunAccess], hoisted_reg: &[bool]) -> Option<Plan> {
    let (sa, sb, r1, r2, mul, rest) = match body {
        [CInstr::Load { dst: r1, slot: sa }, CInstr::Load { dst: r2, slot: sb }, CInstr::Bin {
            dst,
            op: BinOp::Mul,
            a,
            b,
        }, rest @ ..] => (*sa, *sb, *r1, *r2, (*dst, *a, *b), rest),
        _ => return None,
    };
    let (r3, a, b) = mul;
    if !((a == r1 && b == r2) || (a == r2 && b == r1)) {
        return None;
    }
    let (addend, store) = match rest {
        [CInstr::Store {
            src,
            slot,
            accumulate: false,
        }] if *src == r3 => (None, *slot),
        [CInstr::Bin {
            dst: r4,
            op: BinOp::Add,
            a: x,
            b: y,
        }, CInstr::Store {
            src,
            slot,
            accumulate: false,
        }] if *src == *r4 => {
            let k = if *x == r3 && hoisted_reg.get(*y).copied().unwrap_or(false) {
                *y
            } else if *y == r3 && hoisted_reg.get(*x).copied().unwrap_or(false) {
                *x
            } else {
                return None;
            };
            (Some(k), *slot)
        }
        _ => return None,
    };
    let (aa, ab, ad) = (&accesses[sa], &accesses[sb], &accesses[store]);
    if !(aa.proven && ab.proven && ad.proven) {
        return None;
    }
    if ad.arr == aa.arr || ad.arr == ab.arr {
        return None;
    }
    Some(Plan::FmaMap(FmaMap {
        a: sa,
        b: sb,
        dst: store,
        addend,
    }))
}

/// Relaxed-atomic `f64` load without a bounds check.
///
/// # Safety
///
/// `i` is non-negative and `(i as usize) < w.len()` — established by the
/// caller's compile-time bounds proof plus `execute_run`'s box assertion.
#[inline(always)]
unsafe fn lrel(w: &[AtomicU64], i: i64) -> f64 {
    debug_assert!(0 <= i && (i as usize) < w.len());
    f64::from_bits(w.get_unchecked(i as usize).load(Ordering::Relaxed))
}

/// Relaxed-atomic `f64` store without a bounds check.
///
/// # Safety
///
/// Same contract as [`lrel`].
#[inline(always)]
unsafe fn srel(w: &[AtomicU64], i: i64, v: f64) {
    debug_assert!(0 <= i && (i as usize) < w.len());
    w.get_unchecked(i as usize)
        .store(v.to_bits(), Ordering::Relaxed);
}

/// Per-thread run scratch: registers, absolute induction values, and the
/// incrementally maintained per-slot indices — borrowed **once per run**,
/// not once per point.
struct RunScratch {
    regs: Vec<f64>,
    abs: Vec<i64>,
    idxs: Vec<i64>,
}

thread_local! {
    static RUN_SCRATCH: std::cell::RefCell<RunScratch> = const {
        std::cell::RefCell::new(RunScratch {
            regs: Vec::new(),
            abs: Vec::new(),
            idxs: Vec::new(),
        })
    };
}

impl CompiledKernel {
    /// Bind compiled `code` to one run's array table.
    ///
    /// # Panics
    ///
    /// If the table's lengths differ from those the code was compiled
    /// against (the unchecked accesses are licensed by bounds proofs over
    /// exactly those lengths), or if two entries are one region (the
    /// lowering deduplicates aliases, and the monomorphized shapes rely
    /// on distinct entries never overlapping).
    pub(crate) fn bind(code: Arc<CompiledCode>, arrays: Vec<SharedRegion>) -> Self {
        assert!(
            arrays.len() == code.lens.len()
                && arrays.iter().zip(&code.lens).all(|(a, &n)| a.len() == n),
            "array lengths differ from the compiled kernel's"
        );
        for (k, a) in arrays.iter().enumerate() {
            assert!(
                !arrays[..k].iter().any(|b| b.same_region(a)),
                "array-table entries must be distinct regions"
            );
        }
        Self { code, arrays }
    }

    /// What the compiler did with this kernel.
    pub fn info(&self) -> CompileInfo {
        let c = &self.code;
        CompileInfo {
            plan: match c.plan {
                Plan::DotAccum(_) => "dot-accum",
                Plan::FmaMap(_) => "fma-map",
                Plan::Tape => "tape",
            },
            accesses: c.accesses.len(),
            proven: c.accesses.iter().filter(|a| a.proven).count(),
            hoisted: c.preamble.len(),
            body: c.body.len(),
            all_proven: c.accesses.iter().all(|a| a.proven),
        }
    }

    /// The access slots (for tests asserting which proofs held).
    pub fn accesses(&self) -> &[RunAccess] {
        &self.code.accesses
    }

    /// Execute one run: the iteration points `(prefix, t)` for `t` in
    /// `t0..t1`, where `prefix` holds the 0-based indices of every level
    /// but the innermost (the kernel translates via the nest's lower
    /// bounds).
    ///
    /// # Panics
    ///
    /// If the run lies outside the compiled iteration box. The bounds
    /// proofs quantify over exactly that box, so membership is asserted
    /// — not assumed — before any unchecked access; the SSP executor
    /// catches the panic as the group's error.
    pub fn execute_run(&self, prefix: &[i64], t0: i64, t1: i64) -> Result<(), KernelFault> {
        self.code.execute_run(&self.arrays, prefix, t0, t1)
    }
}

/// Run execution lives on the code, with the bound array table as an
/// argument: the hot loops then read the code through a plain shared
/// reference, which the optimizer may keep in registers across the
/// relaxed-atomic stores. Only [`CompiledKernel::execute_run`] calls in,
/// with the table `CompiledKernel::bind` checked against `lens`.
impl CompiledCode {
    /// [`CompiledKernel::execute_run`] over `arrays`, a table whose
    /// lengths are `self.lens` and whose entries are distinct regions.
    fn execute_run(
        &self,
        arrays: &[SharedRegion],
        prefix: &[i64],
        t0: i64,
        t1: i64,
    ) -> Result<(), KernelFault> {
        let depth = self.trips.len();
        assert_eq!(
            prefix.len(),
            depth - 1,
            "run prefix must cover every level but the innermost"
        );
        for (l, &p) in prefix.iter().enumerate() {
            assert!(
                p >= 0 && (p as u64) < self.trips[l],
                "run prefix {p} outside level {l} (trip count {})",
                self.trips[l]
            );
        }
        let n_last = self.trips[depth - 1];
        assert!(
            0 <= t0 && t0 <= t1 && (t1 as u64) <= n_last,
            "run {t0}..{t1} outside the innermost trip count {n_last}"
        );
        if t0 == t1 {
            return Ok(());
        }
        RUN_SCRATCH.with(|cell| {
            let mut borrow = cell.borrow_mut();
            let RunScratch { regs, abs, idxs } = &mut *borrow;
            abs.clear();
            abs.extend(
                self.los[..depth - 1]
                    .iter()
                    .zip(prefix)
                    .map(|(lo, p)| lo + p),
            );
            abs.push(self.los[depth - 1] + t0);
            regs.clear();
            regs.resize(self.regs, 0.0);
            self.run_preamble(arrays, abs, regs);
            let n = (t1 - t0) as usize;
            match &self.plan {
                Plan::DotAccum(m) => {
                    self.run_dot_accum(arrays, m, abs, n);
                    Ok(())
                }
                Plan::FmaMap(m) => {
                    self.run_fma_map(arrays, m, regs, abs, n);
                    Ok(())
                }
                Plan::Tape => self.run_tape(arrays, regs, abs, idxs, n),
            }
        })
    }

    /// The once-per-run preamble. Infallible by construction: only
    /// proven loads hoist.
    fn run_preamble(&self, arrays: &[SharedRegion], abs: &[i64], regs: &mut [f64]) {
        for ins in &self.preamble {
            match ins {
                CInstr::Const { dst, val } => regs[*dst] = *val,
                CInstr::IdxVal { dst, level } => regs[*dst] = abs[*level] as f64,
                CInstr::Load { dst, slot } => {
                    let a = &self.accesses[*slot];
                    let i = a.idx.eval(abs);
                    // SAFETY: hoisted loads are proven in bounds over the
                    // whole box, and `execute_run` asserted membership.
                    regs[*dst] = unsafe { arrays[a.arr].read_f64_unchecked(i as usize) };
                }
                CInstr::Bin { dst, op, a, b } => regs[*dst] = eval_bin(*op, regs[*a], regs[*b]),
                CInstr::Neg { dst, a } => regs[*dst] = -regs[*a],
                CInstr::Call1 { dst, f, a } => regs[*dst] = eval_call1(*f, regs[*a]),
                CInstr::Call2 { dst, f, a, b } => {
                    regs[*dst] = eval_call2(*f, regs[*a], regs[*b]);
                }
                CInstr::Store { .. } => unreachable!("stores never hoist"),
            }
        }
    }

    fn run_dot_accum(&self, arrays: &[SharedRegion], m: &DotAccum, abs: &[i64], n: usize) {
        let (aa, ab, ac) = (
            &self.accesses[m.a],
            &self.accesses[m.b],
            &self.accesses[m.c],
        );
        let aw = arrays[aa.arr].atomics();
        let bw = arrays[ab.arr].atomics();
        let cr = &arrays[ac.arr];
        let (da, db) = (aa.stride, ab.stride);
        let mut ia = aa.idx.eval(abs);
        let mut ib = ab.idx.eval(abs);
        let ic = ac.idx.eval(abs);
        // SAFETY: every index below is the access's affine form evaluated
        // at a point of the run; `execute_run` asserted the run lies in
        // the compiled box and the matcher required full bounds proofs
        // over that box. Keeping the accumulator in a register for the
        // run is exact: products are added in iteration order onto the
        // loaded value (bit-identical to per-point read-add-write — the
        // SSP wavefront guarantees no concurrent writer), and the store
        // array is proven distinct from both load arrays.
        unsafe {
            let mut s = cr.read_f64_unchecked(ic as usize);
            let mut k = 0usize;
            while k + 4 <= n {
                let p0 = lrel(aw, ia) * lrel(bw, ib);
                let p1 = lrel(aw, ia + da) * lrel(bw, ib + db);
                let p2 = lrel(aw, ia + 2 * da) * lrel(bw, ib + 2 * db);
                let p3 = lrel(aw, ia + 3 * da) * lrel(bw, ib + 3 * db);
                s += p0;
                s += p1;
                s += p2;
                s += p3;
                ia += 4 * da;
                ib += 4 * db;
                k += 4;
            }
            while k < n {
                s += lrel(aw, ia) * lrel(bw, ib);
                ia += da;
                ib += db;
                k += 1;
            }
            cr.write_f64_unchecked(ic as usize, s);
        }
    }

    fn run_fma_map(
        &self,
        arrays: &[SharedRegion],
        m: &FmaMap,
        regs: &[f64],
        abs: &[i64],
        n: usize,
    ) {
        let (aa, ab, ad) = (
            &self.accesses[m.a],
            &self.accesses[m.b],
            &self.accesses[m.dst],
        );
        let aw = arrays[aa.arr].atomics();
        let bw = arrays[ab.arr].atomics();
        let dw = arrays[ad.arr].atomics();
        let (da, db, dd) = (aa.stride, ab.stride, ad.stride);
        let mut ia = aa.idx.eval(abs);
        let mut ib = ab.idx.eval(abs);
        let mut id = ad.idx.eval(abs);
        let add = m.addend.map(|r| regs[r]);
        // SAFETY: as in `run_dot_accum` — run-in-box asserted, all three
        // slots proven. The 4-wide batches reorder loads against stores
        // only across arrays proven distinct (the matcher rejects
        // aliases), and no floating-point sum is reassociated: each
        // point computes exactly `a*b` or `a*b + k` as the interpreter
        // would.
        unsafe {
            let mut k = 0usize;
            if let Some(v) = add {
                while k + 4 <= n {
                    let p0 = lrel(aw, ia) * lrel(bw, ib) + v;
                    let p1 = lrel(aw, ia + da) * lrel(bw, ib + db) + v;
                    let p2 = lrel(aw, ia + 2 * da) * lrel(bw, ib + 2 * db) + v;
                    let p3 = lrel(aw, ia + 3 * da) * lrel(bw, ib + 3 * db) + v;
                    srel(dw, id, p0);
                    srel(dw, id + dd, p1);
                    srel(dw, id + 2 * dd, p2);
                    srel(dw, id + 3 * dd, p3);
                    ia += 4 * da;
                    ib += 4 * db;
                    id += 4 * dd;
                    k += 4;
                }
                while k < n {
                    srel(dw, id, lrel(aw, ia) * lrel(bw, ib) + v);
                    ia += da;
                    ib += db;
                    id += dd;
                    k += 1;
                }
            } else {
                while k + 4 <= n {
                    let p0 = lrel(aw, ia) * lrel(bw, ib);
                    let p1 = lrel(aw, ia + da) * lrel(bw, ib + db);
                    let p2 = lrel(aw, ia + 2 * da) * lrel(bw, ib + 2 * db);
                    let p3 = lrel(aw, ia + 3 * da) * lrel(bw, ib + 3 * db);
                    srel(dw, id, p0);
                    srel(dw, id + dd, p1);
                    srel(dw, id + 2 * dd, p2);
                    srel(dw, id + 3 * dd, p3);
                    ia += 4 * da;
                    ib += 4 * db;
                    id += 4 * dd;
                    k += 4;
                }
                while k < n {
                    srel(dw, id, lrel(aw, ia) * lrel(bw, ib));
                    ia += da;
                    ib += db;
                    id += dd;
                    k += 1;
                }
            }
        }
    }

    /// The optimized run-at-a-time tape interpreter: scratch borrowed by
    /// the caller once per run, per-slot indices maintained
    /// incrementally, proven accesses branch-free, unproven accesses
    /// checked with an allocation-free fault.
    fn run_tape(
        &self,
        arrays: &[SharedRegion],
        regs: &mut [f64],
        abs: &mut [i64],
        idxs: &mut Vec<i64>,
        n: usize,
    ) -> Result<(), KernelFault> {
        idxs.clear();
        idxs.extend(self.accesses.iter().map(|a| a.idx.eval(abs)));
        let last = abs.len() - 1;
        for _ in 0..n {
            for ins in &self.body {
                match ins {
                    CInstr::Const { dst, val } => regs[*dst] = *val,
                    CInstr::IdxVal { dst, level } => regs[*dst] = abs[*level] as f64,
                    CInstr::Load { dst, slot } => {
                        let a = &self.accesses[*slot];
                        let i = idxs[*slot];
                        regs[*dst] = if a.proven {
                            // SAFETY: proven over the box; run-in-box
                            // asserted by `execute_run`.
                            unsafe { arrays[a.arr].read_f64_unchecked(i as usize) }
                        } else {
                            let region = &arrays[a.arr];
                            if i < 0 || i as usize >= region.len() {
                                return Err(KernelFault {
                                    arr: a.arr,
                                    index: i,
                                    len: region.len(),
                                });
                            }
                            region.read_f64(i as usize)
                        };
                    }
                    CInstr::Bin { dst, op, a, b } => regs[*dst] = eval_bin(*op, regs[*a], regs[*b]),
                    CInstr::Neg { dst, a } => regs[*dst] = -regs[*a],
                    CInstr::Call1 { dst, f, a } => regs[*dst] = eval_call1(*f, regs[*a]),
                    CInstr::Call2 { dst, f, a, b } => {
                        regs[*dst] = eval_call2(*f, regs[*a], regs[*b]);
                    }
                    CInstr::Store {
                        src,
                        slot,
                        accumulate,
                    } => {
                        let a = &self.accesses[*slot];
                        let i = idxs[*slot];
                        let v = regs[*src];
                        if a.proven {
                            // SAFETY: proven over the box; run-in-box
                            // asserted by `execute_run`. The plain
                            // load-add-store accumulate is exact under
                            // the executor's serialization of
                            // same-location accesses (module docs).
                            unsafe {
                                if *accumulate {
                                    arrays[a.arr].accum_f64_unchecked(i as usize, v);
                                } else {
                                    arrays[a.arr].write_f64_unchecked(i as usize, v);
                                }
                            }
                        } else {
                            let region = &arrays[a.arr];
                            if i < 0 || i as usize >= region.len() {
                                return Err(KernelFault {
                                    arr: a.arr,
                                    index: i,
                                    len: region.len(),
                                });
                            }
                            if *accumulate {
                                region.fetch_add_f64(i as usize, v);
                            } else {
                                region.write_f64(i as usize, v);
                            }
                        }
                    }
                }
            }
            for (i, a) in self.accesses.iter().enumerate() {
                idxs[i] += a.stride;
            }
            abs[last] += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::interp::Value;
    use crate::lang::lower::{lower_forall, LoweredForall};
    use crate::lang::parser::parse;
    use crate::lang::Stmt;

    /// Lower the first `forall` of `main` with the given free bindings.
    fn lower_src(src: &str, bindings: &[(&str, Value)]) -> LoweredForall {
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
        let f = |e: &crate::lang::Expr| match e {
            crate::lang::Expr::Num(n) => *n as i64,
            _ => panic!("test bounds must be literal"),
        };
        lower_forall(var, f(from), f(to), body, &resolve).unwrap()
    }

    /// Run the compiled kernel over the full nest, run-at-a-time.
    fn run_all(c: &CompiledKernel, trips: &[u64]) -> Result<(), KernelFault> {
        let depth = trips.len();
        let combos: u64 = trips[..depth - 1].iter().product();
        for w in 0..combos {
            let mut prefix = vec![0i64; depth - 1];
            let mut rem = w;
            for (k, &n) in trips[..depth - 1].iter().enumerate().rev() {
                prefix[k] = (rem % n) as i64;
                rem /= n;
            }
            c.execute_run(&prefix, 0, trips[depth - 1] as i64)?;
        }
        Ok(())
    }

    #[test]
    fn matmul_compiles_to_dot_accum_and_matches_interpreter() {
        let n = 6usize;
        let src = "fn main() {
            forall i in 0..6 {
              forall j in 0..6 {
                for k in 0..6 {
                  c[i * 6 + j] += a[i * 6 + k] * b[k * 6 + j];
                }
              }
            }
          }";
        let data: Vec<f64> = (0..n * n).map(|v| (v as f64) * 0.37 - 3.1).collect();
        let a = SharedRegion::from_f64(&data);
        let b = SharedRegion::from_f64(&data.iter().map(|x| x * 1.5).collect::<Vec<_>>());
        let c1 = SharedRegion::new(n * n);
        let c2 = SharedRegion::new(n * n);
        let bind = |c: &SharedRegion| {
            vec![
                ("a", Value::Arr(a.clone())),
                ("b", Value::Arr(b.clone())),
                ("c", Value::Arr(c.clone())),
            ]
        };
        // Interpreted point-at-a-time reference.
        let l1 = lower_src(src, &bind(&c1));
        for i in 0..n as i64 {
            for j in 0..n as i64 {
                for k in 0..n as i64 {
                    l1.kernel.execute(&[i, j, k]).unwrap();
                }
            }
        }
        // Compiled run-at-a-time.
        let l2 = lower_src(src, &bind(&c2));
        let compiled = compile(&l2.kernel, &l2.nest.trip_counts);
        assert_eq!(compiled.info().plan, "dot-accum");
        assert!(compiled.info().all_proven);
        run_all(&compiled, &l2.nest.trip_counts).unwrap();
        // Bit-identical, not just close: the compiled reduction keeps
        // sequential order.
        assert_eq!(c1.to_f64_vec(), c2.to_f64_vec());
    }

    #[test]
    fn elementwise_product_compiles_to_fma_map() {
        let src = "fn main() {
            forall i in 0..4 {
              forall j in 0..5 {
                d[i * 5 + j] = x[i * 5 + j] * y[i * 5 + j];
              }
            }
          }";
        let x = SharedRegion::from_f64(&(0..20).map(|v| v as f64 * 0.5).collect::<Vec<_>>());
        let y = SharedRegion::from_f64(&(0..20).map(|v| v as f64 + 1.0).collect::<Vec<_>>());
        let d = SharedRegion::new(20);
        let l = lower_src(
            src,
            &[
                ("x", Value::Arr(x.clone())),
                ("y", Value::Arr(y.clone())),
                ("d", Value::Arr(d.clone())),
            ],
        );
        let c = compile(&l.kernel, &l.nest.trip_counts);
        assert_eq!(c.info().plan, "fma-map");
        run_all(&c, &l.nest.trip_counts).unwrap();
        for v in 0..20 {
            assert_eq!(d.read_f64(v), (v as f64 * 0.5) * (v as f64 + 1.0));
        }
    }

    #[test]
    fn aliasing_store_falls_back_to_tape() {
        // d aliases x: the monomorphized shapes must refuse, the tape
        // must still produce the sequential answer.
        let region = SharedRegion::from_f64(&(0..8).map(|v| v as f64).collect::<Vec<_>>());
        let src = "fn main() {
            forall i in 0..8 { d[i] = x[i] * x[i]; }
          }";
        let l = lower_src(
            src,
            &[
                ("x", Value::Arr(region.clone())),
                ("d", Value::Arr(region.clone())),
            ],
        );
        let c = compile(&l.kernel, &l.nest.trip_counts);
        assert_eq!(c.info().plan, "tape", "aliased map must not monomorphize");
        c.execute_run(&[], 0, 8).unwrap();
        for v in 0..8 {
            assert_eq!(region.read_f64(v), (v * v) as f64);
        }
    }

    #[test]
    fn unproven_access_keeps_checked_fallback_and_faults_lazily() {
        // a[i + 3] over i in 0..10 against len 8: max index 12 — proof
        // fails, kernel stays fallible, and the fault formats like the
        // interpreter's error.
        let src = "fn main() { forall i in 0..10 { a[i + 3] = 1; } }";
        let a = SharedRegion::new(8);
        let l = lower_src(src, &[("a", Value::Arr(a.clone()))]);
        let c = compile(&l.kernel, &l.nest.trip_counts);
        assert_eq!(c.info().plan, "tape");
        assert!(!c.info().all_proven);
        assert!(c.execute_run(&[], 0, 5).is_ok(), "indices 3..=7 fit");
        let fault = c.execute_run(&[], 5, 10).unwrap_err();
        assert_eq!(fault.index, 8);
        assert_eq!(fault.len, 8);
        assert!(fault.to_string().contains("out of bounds"));
    }

    #[test]
    fn constant_folding_and_dce_shrink_the_tape() {
        // `2 * 3` folds; the dead `let` (proven load) disappears.
        let src = "fn main() {
            forall i in 0..8 {
              let dead = a[i];
              b[i] = a[i] * (2 * 3);
            }
          }";
        let a = SharedRegion::from_f64(&[1.0; 8]);
        let b = SharedRegion::new(8);
        let l = lower_src(
            src,
            &[("a", Value::Arr(a.clone())), ("b", Value::Arr(b.clone()))],
        );
        let c = compile(&l.kernel, &l.nest.trip_counts);
        let info = c.info();
        // The folded constant hoists to the preamble; the body keeps only
        // live-load / mul / store.
        assert_eq!(info.body, 3, "{info:?}");
        c.execute_run(&[], 0, 8).unwrap();
        assert_eq!(b.read_f64(3), 6.0);
    }

    #[test]
    fn dead_unproven_load_is_kept_for_fault_parity() {
        let src = "fn main() {
            forall i in 0..10 {
              let dead = a[i + 3];
              b[i] = i;
            }
          }";
        let a = SharedRegion::new(8);
        let b = SharedRegion::new(16);
        let l = lower_src(
            src,
            &[("a", Value::Arr(a.clone())), ("b", Value::Arr(b.clone()))],
        );
        let c = compile(&l.kernel, &l.nest.trip_counts);
        let fault = c.execute_run(&[], 0, 10).unwrap_err();
        assert_eq!(fault.index, 8, "the dead load must still fault");
        // Exactly like the interpreted kernel.
        assert!(l.kernel.execute(&[5]).is_err());
    }

    #[test]
    fn preamble_hoists_run_invariants() {
        // `i * 10` and the constant hoist; only the store (plus the
        // innermost index value) stays per-point.
        let src = "fn main() {
            forall i in 0..4 {
              forall j in 0..8 {
                b[i * 8 + j] = i * 10 + j;
              }
            }
          }";
        let b = SharedRegion::new(32);
        let l = lower_src(src, &[("b", Value::Arr(b.clone()))]);
        let c = compile(&l.kernel, &l.nest.trip_counts);
        let info = c.info();
        assert!(info.hoisted >= 2, "{info:?}");
        run_all(&c, &l.nest.trip_counts).unwrap();
        for v in 0..32 {
            assert_eq!(b.read_f64(v), ((v / 8) * 10 + v % 8) as f64);
        }
    }

    #[test]
    fn runs_outside_the_box_panic_instead_of_reading() {
        let src = "fn main() { forall i in 0..8 { a[i] = 1; } }";
        let a = SharedRegion::new(8);
        let l = lower_src(src, &[("a", Value::Arr(a.clone()))]);
        let c = compile(&l.kernel, &l.nest.trip_counts);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.execute_run(&[], 0, 9)));
        assert!(r.is_err(), "a run past the trip count must panic");
    }

    #[test]
    fn scan_recurrence_runs_on_the_tape_bitwise() {
        let src = "fn main() {
            forall i in 0..31 { a[i + 1] = a[i] + i; }
          }";
        let mk = || SharedRegion::from_f64(&(0..32).map(|v| v as f64 * 0.125).collect::<Vec<_>>());
        let (a1, a2) = (mk(), mk());
        let l1 = lower_src(src, &[("a", Value::Arr(a1.clone()))]);
        for i in 0..31 {
            l1.kernel.execute(&[i]).unwrap();
        }
        let l2 = lower_src(src, &[("a", Value::Arr(a2.clone()))]);
        let c = compile(&l2.kernel, &l2.nest.trip_counts);
        assert_eq!(c.info().plan, "tape");
        assert!(c.info().all_proven);
        c.execute_run(&[], 0, 31).unwrap();
        assert_eq!(a1.to_f64_vec(), a2.to_f64_vec());
    }
}
