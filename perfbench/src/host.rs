//! Host facts and process counters from procfs.
//!
//! Every reader degrades to a neutral value when procfs is unavailable,
//! so a missing counter shows up as an obviously-zero metric rather than
//! an aborted benchmark.

use std::fs;

/// Linux reports `/proc/*/stat` times in USER_HZ ticks, fixed at 100 by
/// the kernel ABI.
const USER_HZ: f64 = 100.0;

/// Process user + system CPU time in seconds (all threads, including
/// exited ones).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated, utime and stime being the
    // 12th and 13th of them.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Pins glibc's mmap threshold at the 32 MiB its dynamic adjustment
/// otherwise ratchets up to partway through a process (on the first free
/// of a large mapping). Without the pin, allocations between 128 KiB and
/// 32 MiB switch mid-benchmark from fresh mappings to reused heap, which
/// shows up as a step change in set-up time and peak RSS.
pub fn pin_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt takes plain integers and is safe to call before
        // any other thread exists.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
        }
    }
}

/// Returns freed heap memory to the kernel, so every set-up and run starts
/// from the live baseline rather than from memory earlier runs left cached
/// in the allocator.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointers and is thread-safe; it only
    // releases free pages of the allocator's own arenas.
    unsafe {
        malloc_trim(0);
    }
}

/// Trims the heap, then resets the process's peak-RSS mark to its current
/// RSS, so the next reading covers one run. Returns false when the kernel
/// refuses the reset (the next reading then covers the whole process
/// lifetime).
pub fn reset_peak_rss() -> bool {
    trim_heap();
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<u64>().ok())
        })
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    pub fn now() -> Self {
        let line = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_owned))
            .unwrap_or_default();
        // cpu user nice system idle iowait irq softirq steal [guest ...];
        // guest time is already counted in user.
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            total: v.iter().sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// What every result records about the machine that produced it.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub available_parallelism: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub git_commit: String,
}

impl HostInfo {
    pub fn detect() -> Self {
        HostInfo {
            available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find(|l| l.starts_with("model name"))
                        .and_then(|l| l.split_once(':'))
                        .map(|(_, v)| v.trim().to_owned())
                })
                .unwrap_or_else(|| "unknown".to_owned()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            git_commit: git_commit().unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// (absent in exported source trees).
fn git_commit() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_owned());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_owned)
}
