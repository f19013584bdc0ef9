//! SSP-native semantics: the compile→schedule→execute pipeline must be
//! observationally equal to sequential interpretation.
//!
//! * Randomized property: generated affine `forall` nests (random depth,
//!   trip counts, stores/reads with mixed-radix strides and small offset
//!   shifts — which create genuine carried dependences) run through the
//!   full SSP path on a grouped topology and must print exactly what a
//!   single-worker in-order run prints. The generator stays inside the
//!   lowerable fragment and the test asserts no bail-out happened, so a
//!   regression in the lowering or the wavefront cannot hide behind the
//!   naive fallback.
//! * Directed cases: a carried-dependence nest that must take the
//!   wavefront, on several topologies.

use proptest::prelude::*;

use htvm_core::Topology;
use litlx::lang::{parse, Interp, LoopStrategy};

/// Tiny deterministic generator state (the vendored proptest shim seeds
/// per-case; we derive everything from one u64 for readability of
/// failures).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Build a random affine nest program. `t` (written) is addressed with
/// mixed-radix strides plus small constant offsets; `s` (read-only) with
/// arbitrary in-bounds affine forms. All values are small integers, so
/// f64 arithmetic is exact and output comparison is bitwise.
fn gen_program(seed: u64) -> String {
    let mut r = Lcg(seed.wrapping_add(0x9e3779b97f4a7c15));
    let depth = 1 + r.below(3) as usize;
    let trips: Vec<u64> = (0..depth).map(|_| 2 + r.below(3)).collect();
    let points: u64 = trips.iter().product();
    // Mixed-radix strides: stride[l] = Π trips[l+1..].
    let strides: Vec<u64> = (0..depth)
        .map(|l| trips[l + 1..].iter().product::<u64>())
        .collect();
    let pad = 4u64;
    let t_len = points + pad;
    let s_len = points + pad;
    let vars = ["v0", "v1", "v2"];
    let mr = |r: &mut Lcg| -> String {
        // The canonical mixed-radix address plus a small offset.
        let off = r.below(pad);
        let terms: Vec<String> = (0..depth)
            .map(|l| format!("{} * {}", vars[l], strides[l]))
            .collect();
        format!("{} + {off}", terms.join(" + "))
    };
    let expr = |r: &mut Lcg| -> String {
        match r.below(5) {
            0 => format!("{}", 1 + r.below(4)),
            1 => vars[r.below(depth as u64) as usize].to_string(),
            2 => format!("s[{}]", mr(r)),
            3 => format!("t[{}]", mr(r)),
            _ => format!(
                "{} * {} + {}",
                vars[r.below(depth as u64) as usize],
                1 + r.below(3),
                1 + r.below(4)
            ),
        }
    };
    let stores = 1 + r.below(2);
    let mut body = String::new();
    for _ in 0..stores {
        let opch = if r.below(3) == 0 { "+=" } else { "=" };
        let lhs = mr(&mut r);
        let e1 = expr(&mut r);
        let e2 = expr(&mut r);
        body.push_str(&format!("t[{lhs}] {opch} {e1} + {e2}; "));
    }
    // Wrap the body in the nest: the outermost level is always `forall`;
    // inner levels randomly `forall` or `for`.
    let mut nest = body;
    for l in (0..depth).rev() {
        let kw = if l == 0 || r.below(2) == 0 {
            "forall"
        } else {
            "for"
        };
        nest = format!("{kw} {} in 0..{} {{ {nest} }}", vars[l], trips[l]);
    }
    format!(
        "fn main() {{
            let s = array({s_len});
            let t = array({t_len});
            for q in 0..{s_len} {{ s[q] = q % 5 + 1; }}
            for q in 0..{t_len} {{ t[q] = q % 3; }}
            {nest}
            for q in 0..{t_len} {{ print(t[q]); }}
        }}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pipelined execution of random affine nests produces the same array
    /// contents as sequential interpretation — and really took the SSP
    /// path (no silent fallback).
    #[test]
    fn random_affine_nests_match_sequential(seed in 0u64..100_000) {
        let src = gen_program(seed);
        let p = parse(&src).unwrap_or_else(|e| panic!("generated program failed to parse: {e}\n{src}"));
        let seq = Interp::new(1).run(&p).expect("sequential run");
        let ssp = Interp::with_topology(Topology::domains(2, 2))
            .with_strategy(LoopStrategy::Ssp)
            .run(&p)
            .expect("ssp run");
        prop_assert_eq!(ssp.ssp_bailouts, 0, "generator left the lowerable fragment:\n{}", src);
        prop_assert_eq!(ssp.ssp_foralls, 1, "nest did not take the SSP path:\n{}", src);
        prop_assert_eq!(&ssp.printed, &seq.printed, "ssp diverged from sequential:\n{}", src);
    }
}

/// The acceptance case spelled out: a `forall` nest with a carried
/// dependence lowers through `LoopNest`, executes as a wavefront of
/// thread groups — serial, so inline on the interpreter thread — and
/// matches sequential output — on several topologies.
#[test]
fn carried_dependence_wavefront_on_grouped_topologies() {
    let src = "fn main() {
        let n = 96;
        let a = array(n + 2);
        a[0] = 1; a[1] = 1;
        forall i in 0..n { a[i + 2] = a[i + 1] + a[i]; }
        for q in 0..n + 2 { print(a[q]); } }";
    let p = parse(src).unwrap();
    let seq = Interp::new(1).run(&p).unwrap();
    for topo in [
        Topology::flat(4),
        Topology::domains(2, 2),
        Topology::from_sizes([1, 3]),
    ] {
        let out = Interp::with_topology(topo.clone())
            .with_strategy(LoopStrategy::Ssp)
            .run(&p)
            .unwrap();
        assert_eq!(out.printed, seq.printed, "topology {topo:?}");
        assert_eq!(out.ssp_foralls, 1, "topology {topo:?}");
        assert_eq!(out.ssp_bailouts, 0, "topology {topo:?}");
        assert_eq!(
            out.ssp_wavefronts, 1,
            "distance-1 and -2 carried deps require the wavefront ({topo:?})"
        );
        assert_eq!(out.ssp_inline_waves, out.ssp_waves, "({topo:?})");
        assert_eq!(out.sgt_spawns, 0, "a wavefront wave runs inline ({topo:?})");
    }
}

/// Modulo-schedule legality at the *partitioned* level: for every level
/// plan of the standard nests, the achieved schedule verifies against its
/// reduced DDG (no dependence violated at the chosen II, no resource
/// oversubscription) and the partition's wavefront flag agrees with the
/// DDG's carried distances.
#[test]
fn level_plans_verify_and_wavefront_matches_ddg() {
    use htvm_ssp::ddg::Ddg;
    use htvm_ssp::ir::LoopNest;
    use htvm_ssp::partition::PartitionPlan;
    use htvm_ssp::ssp::{schedule_all_levels, SspConfig};

    let cfg = SspConfig::default();
    for nest in [
        LoopNest::matmul_like(8, 8, 8),
        LoopNest::stencil_like(8, 32),
        LoopNest::elementwise(16, 16),
    ] {
        for plan in schedule_all_levels(&nest, &cfg) {
            let ddg = Ddg::for_level(&nest, plan.level).expect("scheduled level has a DDG");
            plan.schedule
                .verify(&nest, &ddg, &cfg.resources)
                .unwrap_or_else(|e| panic!("{} level {}: {e}", nest.name, plan.level));
            let part = PartitionPlan::new(&plan, nest.trip_counts[plan.level], 4);
            let carried = ddg.edges.iter().any(|e| e.distance > 0);
            assert_eq!(
                part.wavefront, carried,
                "{} level {}: wavefront flag disagrees with DDG",
                nest.name, plan.level
            );
        }
    }
}
