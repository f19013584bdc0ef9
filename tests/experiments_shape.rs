//! Shape assertions over every experiment: the reproduction's contract is
//! not absolute numbers (our substrate is a simulator, not the authors'
//! testbed) but *who wins, by roughly what factor, and where crossovers
//! fall*. Each test runs the experiment at Quick scale and checks exactly
//! those properties. EXPERIMENTS.md records the full-scale tables.

use htvm_bench::experiments::{self, Scale};

/// Tests that assert on *wall-clock* ratios must not time-share the host's
/// few cores with each other; they serialize on this lock, and each of
/// their attempts starts once the host is seen running two threads side
/// by side (`await_parallel_host`). (Simulator-time experiments are
/// deterministic and run freely in parallel.)
static WALL_CLOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn wall_clock_guard() -> std::sync::MutexGuard<'static, ()> {
    WALL_CLOCK.lock().unwrap_or_else(|e| e.into_inner())
}

mod common;
use common::{await_parallel_host, multicore};

fn col(t: &htvm_bench::Table, name: &str) -> Vec<f64> {
    let v = t.column_f64(name);
    assert!(
        !v.is_empty(),
        "column {name} missing or empty in {}",
        t.title
    );
    v
}

#[test]
fn e1_more_hw_threads_hide_more_latency() {
    let t = experiments::e1_latency_tolerance(Scale::Quick);
    // At the highest latency scale, throughput must grow with hw threads.
    let rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[1] == "8x").collect();
    assert!(rows.len() >= 2);
    let first: f64 = rows.first().unwrap()[2].parse().unwrap();
    let last: f64 = rows.last().unwrap()[2].parse().unwrap();
    assert!(
        last > first * 2.0,
        "8 hw threads should at least double throughput at 8x latency: {first} -> {last}"
    );
    // In-stream switching must beat OS-weight switching everywhere.
    for r in &t.rows {
        let instream: f64 = r[2].parse().unwrap();
        let os: f64 = r[3].parse().unwrap();
        assert!(
            instream >= os * 0.99,
            "in-stream switch must not lose to OS switch: {r:?}"
        );
    }
}

#[test]
fn e2_parcel_wins_beyond_crossover() {
    let t = experiments::e2_parcels(Scale::Quick);
    // The largest block must be won by the parcel, by a wide margin over
    // per-element remote loads.
    let last = t.rows.last().unwrap();
    assert_eq!(last[4], "parcel", "large blocks: parcel must win: {last:?}");
    let loads: f64 = last[1].parse().unwrap();
    let parcel: f64 = last[3].parse().unwrap();
    assert!(parcel * 4.0 < loads, "parcel {parcel} vs loads {loads}");
}

#[test]
fn e3_futures_do_not_lose_to_barriers() {
    let _wall = wall_clock_guard();
    await_parallel_host();
    let t = experiments::e3_futures(Scale::Quick);
    let speedup: f64 = t.rows[1][2].parse().unwrap();
    eprintln!("e3 futures/barrier speedup: {speedup}");
    // Wall-clock on a shared machine: demand only "futures are at least
    // roughly competitive, usually better".
    assert!(
        speedup > 0.8,
        "futures pipeline collapsed vs barrier: {speedup}"
    );
}

#[test]
fn e4_percolation_beats_demand_fetch() {
    let t = experiments::e4_percolation(Scale::Quick);
    let speedups = col(&t, "speedup_vs_demand");
    assert!(
        speedups.last().unwrap() > &1.2,
        "deep percolation must beat demand fetch: {speedups:?}"
    );
    // Accesses identical across depths (timing-only optimization).
    let acc = col(&t, "accesses");
    assert!(acc.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn e5_grain_cost_ordering() {
    let t = experiments::e5_spawn_costs(Scale::Quick);
    let costs = col(&t, "cycles/spawn");
    assert!(
        costs[0] < costs[1] && costs[1] < costs[2],
        "TGT < SGT < LGT: {costs:?}"
    );
}

/// The idle-protocol acceptance claim, measured: a parked pool is silent
/// (no periodic self-wakes, no spurious wakes), and a cold spawn still
/// reaches execution (latency is finite and positive).
#[test]
fn e5b_parked_pool_is_silent_and_wakes_on_spawn() {
    let _wall = wall_clock_guard();
    let t = experiments::e5b_native_spawn(Scale::Quick);
    assert_eq!(t.rows.len(), 2, "flat + grouped rows");
    for r in &t.rows {
        let p50: f64 = r[1].parse().unwrap();
        let reparks_per_s: f64 = r[5].parse().unwrap();
        let idle_wakes: u64 = r[6].parse().unwrap();
        assert!(p50 > 0.0, "spawn→exec latency must be measured: {r:?}");
        assert_eq!(
            reparks_per_s, 0.0,
            "idle pool must not re-park (self-wake): {r:?}"
        );
        assert_eq!(idle_wakes, 0, "idle pool must not wake anyone: {r:?}");
        // Every cold spawn woke somebody: wakes were recorded.
        let targeted: u64 = r[3].parse().unwrap();
        let escalated: u64 = r[4].parse().unwrap();
        assert!(targeted + escalated > 0, "cold spawns must wake: {r:?}");
    }
}

/// The scheduling-spine acceptance claim, measured: the lock-free deque
/// beats the mutex shim on owner push/pop and on thief steals, and the
/// batched injector publish beats per-job lock round-trips.
#[test]
fn e5c_lock_free_spine_beats_mutex_shim() {
    let _wall = wall_clock_guard();
    // Structure is asserted on every attempt; the speedup claims are
    // wall-clock on a shared host, so best-of-3.
    let mut last = String::new();
    for attempt in 0..3 {
        await_parallel_host();
        let t = experiments::e5c_queue_ops(Scale::Quick);
        assert_eq!(t.rows.len(), 6, "push+pop, 3 steal rows, 2 batch rows");
        let speedups = col(&t, "speedup");
        for (r, s) in t.rows.iter().zip(&speedups) {
            assert!(*s > 0.0, "speedup must be measured: {r:?}");
        }
        // push+pop (row 0) and the three steal rows (1..=3) are the
        // acceptance surface; the batch rows ride along.
        let ok = speedups[0] > 1.0 && speedups[1..=3].iter().all(|&s| s > 1.0);
        if ok {
            return;
        }
        last = format!("{speedups:?}");
        eprintln!("e5c attempt {attempt}: speedups {last}");
    }
    panic!("lock-free spine never beat the mutex shim: {last}");
}

#[test]
fn e6_dynamic_beats_static_under_skew() {
    let t = experiments::e6_loop_sched(Scale::Quick);
    let get = |dist: &str, policy: &str| -> f64 {
        t.cell("makespan", |r| r[0] == dist && r[1] == policy)
            .unwrap_or_else(|| panic!("row {dist}/{policy}"))
            .parse()
            .unwrap()
    };
    // GSS's first chunk is n/p — identical to static block's first block —
    // so on *decreasing* costs guided can only tie static (the classical
    // GSS weakness that TSS/FSS address); it wins on *increasing* costs,
    // where its shrinking chunks spread the expensive tail.
    assert!(get("increasing", "guided") < get("increasing", "static-block"));
    assert!(get("decreasing", "guided") <= get("decreasing", "static-block"));
    assert!(get("decreasing", "trapezoid") < get("decreasing", "static-block"));
    assert!(get("decreasing", "self-sched(1)") < get("decreasing", "static-block"));
    assert!(get("bimodal", "factoring") <= get("bimodal", "static-block"));
    // On uniform costs static is fine (within 5%).
    let su = get("uniform", "static-block");
    let gu = get("uniform", "guided");
    assert!(su <= gu * 1.05, "uniform: static {su} vs guided {gu}");
}

#[test]
fn e7_ssp_best_level_beats_innermost_for_matmul() {
    let t = experiments::e7_ssp(Scale::Quick);
    let rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "matmul-like").collect();
    let inner = rows.iter().find(|r| r[1] == "2").expect("innermost row");
    let best = rows.iter().find(|r| r[7] == "*").expect("starred best row");
    assert_ne!(best[1], "2", "best level must not be the innermost");
    let ci: f64 = inner[5].parse().unwrap();
    let cb: f64 = best[5].parse().unwrap();
    assert!(
        cb * 1.5 < ci,
        "SSP best {cb} must beat innermost {ci} by >1.5x"
    );
}

#[test]
fn e8_threading_scales_then_saturates() {
    let t = experiments::e8_ssp_mt(Scale::Quick);
    let rows: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "matmul-like").collect();
    let s1: f64 = rows.first().unwrap()[4].parse().unwrap();
    let s_last: f64 = rows.last().unwrap()[4].parse().unwrap();
    assert!(
        s_last > s1 * 2.0,
        "threads must speed SSP up: {s1} -> {s_last}"
    );
    // Wavefront rows scale worse than parallel rows at the same T.
    let wf: Vec<&Vec<String>> = t
        .rows
        .iter()
        .filter(|r| r[0].contains("wavefront"))
        .collect();
    let wf_last: f64 = wf.last().unwrap()[4].parse().unwrap();
    assert!(
        wf_last < s_last,
        "wavefront speedup {wf_last} must trail parallel {s_last}"
    );
}

#[test]
fn e9_migration_beats_none_under_skew() {
    let t = experiments::e9_load_balance(Scale::Quick);
    let get = |workload: &str, policy: &str| -> f64 {
        t.cell("makespan", |r| r[0] == workload && r[1] == policy)
            .unwrap()
            .parse()
            .unwrap()
    };
    for wl in ["skewed", "skew+phase-shift"] {
        let none = get(wl, "none");
        for pol in ["sender-initiated", "receiver-initiated", "work-stealing"] {
            assert!(get(wl, pol) < none, "{pol} must beat no-migration on {wl}");
        }
    }
}

#[test]
fn e10_adaptation_cuts_remote_fraction() {
    let t = experiments::e10_locality(Scale::Quick);
    let get = |trace: &str, policy: &str, col: &str| -> f64 {
        t.cell(col, |r| r[0] == trace && r[1] == policy)
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(
        get("producer-consumer", "migrate", "cycles")
            < get("producer-consumer", "fixed-home", "cycles")
    );
    assert!(get("read-mostly", "replicate", "cycles") < get("read-mostly", "fixed-home", "cycles"));
    assert!(
        get("producer-consumer", "migrate", "remote_frac")
            < get("producer-consumer", "fixed-home", "remote_frac") / 2.0
    );
}

#[test]
fn e11_adaptive_tracks_best_fixed() {
    let t = experiments::e11_latency_adapt(Scale::Quick);
    let utils = col(&t, "mean_utilization");
    let adaptive = *utils.last().unwrap();
    let best_other = utils[..utils.len() - 1].iter().cloned().fold(0.0, f64::max);
    assert!(
        adaptive > best_other * 0.8,
        "adaptive {adaptive} must be near the best non-adaptive strategy {best_other}"
    );
    // Adaptivity must beat both fixed extremes: too few threads starve the
    // pipeline, too many thrash the shared cache and the DRAM channels.
    let by_name = |n: &str| -> f64 {
        t.cell("mean_utilization", |r| r[0] == n)
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(adaptive > by_name("fixed(1)"), "must beat starved fixed(1)");
    assert!(
        adaptive > by_name("fixed(16)"),
        "must beat thrashing fixed(16)"
    );
}

#[test]
fn e12_hints_cut_search_cost() {
    let t = experiments::e12_hints(Scale::Quick);
    let get = |wl: &str, strat: &str, col: &str| -> f64 {
        t.cell(col, |r| r[0] == wl && r[1] == strat)
            .unwrap()
            .parse()
            .unwrap()
    };
    for wl in ["decreasing", "bimodal"] {
        assert!(get(wl, "hinted", "trials") < get(wl, "exhaustive", "trials"));
        assert!(get(wl, "hinted", "search_cost") < get(wl, "exhaustive", "search_cost"));
        // Hinted winner within 10% of exhaustive winner.
        assert!(
            get(wl, "hinted", "final_makespan") <= get(wl, "exhaustive", "final_makespan") * 1.10
        );
    }
}

#[test]
fn e13_overhead_shrinks_with_period() {
    let t = experiments::e13_monitor(Scale::Quick);
    let fracs = col(&t, "overhead_frac");
    assert!(
        fracs.windows(2).all(|w| w[0] >= w[1]),
        "overhead must fall as the period grows: {fracs:?}"
    );
}

#[test]
fn e14_parallel_matches_and_speeds_up() {
    let _wall = wall_clock_guard();
    // Wall-clock on a small shared host is noisy even under the guard —
    // cargo runs *other test binaries* concurrently. Two claims are
    // asserted, best of three attempts:
    //  (1) the robust contrast: hierarchical beats the flat mapping at
    //      equal worker count by a wide margin (the paper's overhead
    //      argument; measured 5–8× on idle hosts);
    //  (2) hierarchical is at least at parity with sequential.
    let mut best_contrast = 0.0f64;
    let mut best_speedup = 0.0f64;
    for attempt in 0..3 {
        await_parallel_host();
        let t = experiments::e14_neocortex(Scale::Quick);
        // All rows must agree on spikes (asserted inside too).
        let spikes: Vec<f64> = col(&t, "spikes");
        assert!(spikes.windows(2).all(|w| w[0] == w[1]));
        let hier: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "hierarchical").collect();
        let flat: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0] == "flat").collect();
        let hier_rate: f64 = hier.last().unwrap()[2].parse().unwrap();
        let flat_rate: f64 = flat.last().unwrap()[2].parse().unwrap();
        let sp: f64 = hier.last().unwrap()[3].parse().unwrap();
        best_contrast = best_contrast.max(hier_rate / flat_rate.max(1e-9));
        best_speedup = best_speedup.max(sp);
        if best_contrast > 2.5 && (best_speedup > 1.0 || !multicore()) {
            return;
        }
        eprintln!(
            "e14 attempt {attempt}: speedup {sp}, hier/flat {:.2}",
            hier_rate / flat_rate
        );
    }
    assert!(
        best_contrast > 2.5,
        "hierarchical/flat contrast {best_contrast} too small"
    );
    assert!(
        best_speedup > 1.0 || !multicore(),
        "hierarchical speedup {best_speedup} below sequential parity"
    );
}

#[test]
fn e15_md_parallel_speedup() {
    let _wall = wall_clock_guard();
    // Best of three: see e14.
    let mut best = 0.0f64;
    for attempt in 0..3 {
        await_parallel_host();
        let t = experiments::e15_md(Scale::Quick);
        // Potentials agree across all rows (bit-faithful parallelization).
        let pots = col(&t, "potential");
        for p in &pots {
            assert!((p - pots[0]).abs() < 1e-6 * pots[0].abs());
        }
        let fine: Vec<&Vec<String>> = t.rows.iter().filter(|r| r[0].contains("fine")).collect();
        let sp: f64 = fine.last().unwrap()[3].parse().unwrap();
        best = best.max(sp);
        if best > 1.2 || !multicore() {
            return;
        }
        eprintln!("e15 attempt {attempt}: speedup {sp}");
    }
    panic!("fine-grain MD speedup {best} too small across 3 attempts");
}

#[test]
fn e17_grouped_topology_cuts_remote_steal_ratio() {
    let _wall = wall_clock_guard();
    let ratio = |t: &htvm_bench::Table, workload: &str, topo: &str| -> f64 {
        t.cell("remote_ratio", |r| r[0] == workload && r[1] == topo)
            .unwrap_or_else(|| panic!("row {workload}/{topo}"))
            .parse()
            .unwrap()
    };
    // Structure is always asserted; the steal-preference claim observes
    // real parallel scheduling, so it is multicore-gated and best-of-3.
    let mut last = String::new();
    for attempt in 0..3 {
        await_parallel_host();
        let t = experiments::e17_domains(Scale::Quick);
        for workload in ["neocortex", "md"] {
            // Same job count on every topology (grouping is a placement
            // policy, not a decomposition change).
            let sgts: Vec<f64> = t
                .rows
                .iter()
                .filter(|r| r[0] == workload)
                .map(|r| r[3].parse().unwrap())
                .collect();
            assert_eq!(sgts.len(), 2, "{workload}: flat + 2-dom rows expected");
            assert!(
                sgts.windows(2).all(|w| w[0] == w[1]),
                "{workload}: {sgts:?}"
            );
        }
        if !multicore() {
            return;
        }
        let ok = ["neocortex", "md"].iter().all(|w| {
            // Flat's ratio is 1 whenever it stole at all; the grouped run
            // must come in under it.
            ratio(&t, w, "flat") > 0.0 && ratio(&t, w, "2-dom") < ratio(&t, w, "flat")
        });
        if ok {
            return;
        }
        last = ["neocortex", "md"]
            .iter()
            .map(|w| {
                format!(
                    "{w}: flat {} vs 2-dom {}",
                    ratio(&t, w, "flat"),
                    ratio(&t, w, "2-dom")
                )
            })
            .collect::<Vec<_>>()
            .join("; ");
        eprintln!("e17 attempt {attempt}: {last}");
    }
    panic!("2-domain topology never cut the remote-steal ratio: {last}");
}

#[test]
fn e16_litlx_results_match_native() {
    let _wall = wall_clock_guard();
    let t = experiments::e16_litlx(Scale::Quick);
    for r in &t.rows {
        assert_eq!(r[4], "true", "kernel {} mismatch", r[0]);
    }
}

#[test]
fn e18_ssp_native_is_correct_and_places_groups() {
    let _wall = wall_clock_guard();
    let t = experiments::e18_ssp_native(Scale::Quick);
    let cell = |workload: &str, path: &str, topo: &str, col: &str| -> String {
        t.cell(col, |r| r[0] == workload && r[1] == path && r[2] == topo)
            .unwrap_or_else(|| panic!("missing row {workload}/{path}/{topo}"))
            .to_string()
    };
    for topo in ["flat", "2-dom"] {
        // Correctness first: both SSP kernel modes compute what the naive
        // path computes (matmul), and the wavefront path reproduces the
        // exact sequential recurrence where naive is a race.
        for ssp in ["ssp-interp", "ssp-comp"] {
            assert_eq!(
                cell("litlx-matmul", ssp, topo, "check"),
                cell("litlx-matmul", "naive", topo, "check"),
                "{topo}: {ssp} matmul diverged"
            );
            let n = 48u64; // Quick-scale scan length
            let expected = (3 + n * (n - 1) / 2).to_string();
            assert_eq!(cell("litlx-scan", ssp, topo, "check"), expected);
            assert_eq!(cell("litlx-scan", ssp, topo, "wavefronts"), "1");
            // The pipelined paths actually pipelined.
            assert!(
                cell("litlx-matmul", ssp, topo, "pipelined")
                    .parse::<u64>()
                    .unwrap()
                    >= 1
            );
        }
        assert_eq!(
            cell("md-force", "ssp", topo, "check"),
            cell("md-force", "naive", topo, "check"),
            "{topo}: ssp md potential diverged"
        );
        assert!(
            cell("md-force", "ssp", topo, "pipelined")
                .parse::<u64>()
                .unwrap()
                >= 2
        );
        // And every spread SSP row records domain placements. The scan
        // is a wavefront, whose one wave runs inline: it spawns nothing.
        for (workload, path, spread) in [
            ("litlx-matmul", "ssp-interp", true),
            ("litlx-matmul", "ssp-comp", true),
            ("litlx-scan", "ssp-interp", false),
            ("litlx-scan", "ssp-comp", false),
            ("md-force", "ssp", true),
        ] {
            let spawns = cell(workload, path, topo, "dom_spawns");
            assert_eq!(
                spawns.split('/').any(|d| d.parse::<u64>().unwrap() > 0),
                spread,
                "{workload}/{path}/{topo}: domain spawns {spawns}"
            );
            if !spread {
                assert_eq!(cell(workload, path, topo, "spawned"), "0");
            }
        }
    }
    // On a grouped topology the round-robin placement must hit both
    // domains (single-CPU safe: placement is decided at spawn time).
    let spawns = cell("md-force", "ssp", "2-dom", "dom_spawns");
    let parts: Vec<u64> = spawns.split('/').map(|d| d.parse().unwrap()).collect();
    assert_eq!(parts.len(), 2);
    assert!(
        parts.iter().all(|&d| d > 0),
        "placement skipped a domain: {spawns}"
    );
}

#[test]
fn e19_serving_conserves_requests_and_orders_percentiles() {
    let _wall = wall_clock_guard();
    let t = experiments::e19_serving(Scale::Quick);
    // ≥3 rates × 3 tenants, every row's ledger balanced.
    assert!(t.rows.len() >= 9, "expected ≥9 rows, got {}", t.rows.len());
    let idx = |name: &str| {
        t.col(name)
            .unwrap_or_else(|| panic!("missing column {name}"))
    };
    let (offered, refused, completed, cancelled, shed) = (
        idx("offered"),
        idx("refused"),
        idx("completed"),
        idx("cancelled"),
        idx("shed"),
    );
    let (p50, p99, p999, check) = (idx("p50_us"), idx("p99_us"), idx("p999_us"), idx("check"));
    let mut rates = std::collections::BTreeSet::new();
    let mut tenants = std::collections::BTreeSet::new();
    for r in &t.rows {
        rates.insert(r[0].clone());
        tenants.insert(r[1].clone());
        assert_eq!(r[check], "ok", "conservation ledger leaked: {r:?}");
        let n = |i: usize| r[i].parse::<u64>().unwrap();
        assert_eq!(
            n(offered),
            n(refused) + n(completed) + n(cancelled) + n(shed),
            "offered must split exactly across the outcome buckets: {r:?}"
        );
        assert!(n(completed) > 0, "a tenant completed nothing: {r:?}");
        assert!(
            n(p50) <= n(p99) && n(p99) <= n(p999),
            "percentiles out of order: {r:?}"
        );
    }
    assert!(rates.len() >= 3, "need ≥3 arrival rates, got {rates:?}");
    assert_eq!(tenants.len(), 3, "need 3 tenants, got {tenants:?}");
}

#[test]
fn e21_chaos_conserves_and_heals_under_both_configs() {
    let _wall = wall_clock_guard();
    let t = experiments::e21_chaos(Scale::Quick);
    let idx = |name: &str| {
        t.col(name)
            .unwrap_or_else(|| panic!("missing column {name}"))
    };
    let (config, completed, failed, retried) = (
        idx("config"),
        idx("completed"),
        idx("failed"),
        idx("retried"),
    );
    let (deaths, respawns, restarts, check) = (
        idx("deaths"),
        idx("respawns"),
        idx("restarts"),
        idx("check"),
    );
    let (p50, p99) = (idx("p50_us"), idx("p99_us"));
    let injections = idx("injections");
    assert_eq!(t.rows.len(), 2, "one clean row, one faulted row: {t:?}");
    for r in &t.rows {
        // The check column already folds in zero hangs, ledger
        // conservation, and deaths == respawns.
        assert_eq!(r[check], "ok", "chaos ledger leaked: {r:?}");
        let n = |i: usize| r[i].parse::<u64>().unwrap();
        assert!(n(completed) > 0, "config completed nothing: {r:?}");
        assert!(n(p50) <= n(p99), "percentiles out of order: {r:?}");
        match r[config].as_str() {
            "clean" => {
                // Nothing may fire with the fault plane disarmed.
                assert_eq!(n(failed) + n(retried) + n(deaths) + n(restarts), 0, "{r:?}");
                assert_eq!(n(injections), 0, "disarmed plane injected: {r:?}");
            }
            "faults-1pct" => {
                // The storm actually stormed: the seeded rules fired
                // (deterministic per (seed, occurrence), so this is not
                // a flaky coin-flip) and every death healed.
                assert!(n(retried) + n(failed) > 0, "no body fault fired: {r:?}");
                assert!(n(deaths) > 0, "no worker kill fired: {r:?}");
                assert_eq!(n(deaths), n(respawns), "unhealed deaths: {r:?}");
                // The plan's capped kill fires on any schedule, and every
                // death and dispatcher restart is an injection the plane
                // counted.
                assert!(n(injections) > 0, "the fault plane injected nothing: {r:?}");
                assert!(
                    n(injections) >= n(deaths) + n(restarts),
                    "more deaths and restarts than injections: {r:?}"
                );
            }
            other => panic!("unexpected config {other}"),
        }
    }
}
