//! The host fingerprint printed with every result, the idle
//! sleep-lateness probe, and the generator thread's timer slack.

use std::time::{Duration, Instant};

use crate::stats::pct;

#[cfg(target_os = "linux")]
extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// Set the calling thread's timer slack to 1 ns, so its sleeps end when
/// asked instead of up to 50 µs (Linux's default slack) later. Returns
/// whether the kernel accepted it; elsewhere a no-op returning false.
pub fn set_timer_slack_1ns() -> bool {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and only
        // changes the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// How late (µs) each of `n` idle sleeps of `nap` woke up, measured on a
/// fresh thread with 1 ns timer slack: the host's own wake-up noise.
pub fn sleep_lateness_us(n: usize, nap: Duration) -> Vec<f64> {
    std::thread::scope(|s| {
        s.spawn(|| {
            set_timer_slack_1ns();
            (0..n)
                .map(|_| {
                    let t = Instant::now();
                    std::thread::sleep(nap);
                    (t.elapsed().saturating_sub(nap)).as_secs_f64() * 1e6
                })
                .collect()
        })
        .join()
        .expect("sleep probe thread panicked")
    })
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// The checked-out commit, read from `.git` when the benchmark runs in a
/// git work tree, else `unknown`.
fn commit() -> String {
    let head = match read_trimmed(".git/HEAD") {
        Some(h) => h,
        None => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(c) = read_trimmed(&format!(".git/{reference}")) {
        return c;
    }
    read_trimmed(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Busy and stolen time (jiffies) summed over all CPUs, from the first
/// line of `/proc/stat`; `None` where it cannot be read.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    // user nice system idle iowait irq softirq steal ...
    let steal = *f.get(7)?;
    let busy = f[0] + f[1] + f[2] + f[5] + f[6];
    Some((busy, steal))
}

/// Share of the non-idle CPU time between two [`cpu_ticks`] readings that
/// the hypervisor gave to other guests (0 when unreadable).
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((b0, s0)), Some((b1, s1))) => {
            let steal = s1.saturating_sub(s0) as f64;
            let busy = b1.saturating_sub(b0) as f64;
            if steal + busy > 0.0 {
                steal / (steal + busy)
            } else {
                0.0
            }
        }
        _ => 0.0,
    }
}

/// One line describing the host: CPUs, cgroup CPU quota, kernel, commit
/// and an idle sleep-lateness probe taken now.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_max = read_trimmed("/sys/fs/cgroup/cpu.max").unwrap_or_else(|| "absent".into());
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into());
    let lag = sleep_lateness_us(200, Duration::from_micros(200));
    let p50 = pct(&lag, 0.5);
    let p90 = pct(&lag, 0.9);
    format!(
        "nproc={nproc} cpu.max=\"{cpu_max}\" kernel={kernel} commit={} \
         idle_sleep200us_late_us.p50={p50:.1} .p90={p90:.1} (n=200)",
        commit()
    )
}
