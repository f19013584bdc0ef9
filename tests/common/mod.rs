//! Helpers shared by the root integration-test binaries.

use std::time::{Duration, Instant};

/// Wall-clock speedup and steal-observation assertions need real cores to
/// be meaningful: on a single-CPU host a parallel run can never beat
/// sequential and one worker can legitimately drain a short run before any
/// peer is scheduled. Those specific claims are gated on this; correctness
/// claims are always asserted.
pub fn multicore() -> bool {
    std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
}

/// A multicore host can still run fewer of its cores at once than it
/// reports: a virtual machine's second core can take a few hundred
/// milliseconds to come up to speed after idling, and a host shared with
/// other machines can withhold it for seconds. A parallel run measured
/// then shows no speedup and no steals whatever the runtime does. Called
/// right before each attempt of a wall-clock or steal-observation claim,
/// this keeps two threads busy (up to 20 s) until they are seen running
/// side by side at full speed on three probes in a row, so the attempt
/// starts on cores that are running. It returns whether they were;
/// either way the caller measures and asserts as before, so a host that
/// never delivers two cores still fails the claim.
pub fn await_parallel_host() -> bool {
    if !multicore() {
        return false;
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut streak = 0;
    while Instant::now() < deadline {
        if delivered_parallelism() >= 1.7 {
            streak += 1;
            if streak == 3 {
                return true;
            }
        } else {
            streak = 0;
        }
    }
    eprintln!("host never ran two threads side by side within 20 s");
    false
}

/// Spin iterations two threads complete side by side in 25 ms, over the
/// iterations one thread completes alone: ~2 on two running cores, ~1
/// when the host runs only one of them.
fn delivered_parallelism() -> f64 {
    let spin = || {
        let start = Instant::now();
        let mut n = 0u64;
        while start.elapsed() < Duration::from_millis(25) {
            n = std::hint::black_box(n + 1);
        }
        n
    };
    let alone = spin();
    let pair = std::thread::scope(|s| {
        let a = s.spawn(spin);
        let b = s.spawn(spin);
        a.join().unwrap() + b.join().unwrap()
    });
    pair as f64 / alone.max(1) as f64
}
