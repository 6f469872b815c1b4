//! The host block printed with every result: what the numbers were
//! measured on. Read from `/proc` and `/sys` where Linux provides them;
//! the toolchain version and commit come from the launcher's
//! environment (`PERFBENCH_RUSTC`, `PERFBENCH_GIT_SHA`), and so do any
//! allocator settings (`GLIBC_TUNABLES`) the caller set.

use std::fmt::Write as _;

/// Logical CPUs this process may run on.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` CPU time of the whole machine so far, in clock
/// ticks, from the first line of `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// The share of CPU time a hypervisor gave to other guests between two
/// [`cpu_ticks`] readings: how much of a run the host took away.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    after.0.saturating_sub(before.0) as f64 / total.max(1) as f64
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(level, size, shared_cpu_list)` of each data/unified cache of cpu0.
fn caches() -> Vec<(String, String, String)> {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |p: String| std::fs::read_to_string(p).map(|s| s.trim().to_string());
    (0..8)
        .filter_map(|i| {
            let dir = format!("{base}/index{i}");
            let kind = read(format!("{dir}/type")).ok()?;
            if kind == "Instruction" {
                return None;
            }
            Some((
                read(format!("{dir}/level")).ok()?,
                read(format!("{dir}/size")).ok()?,
                read(format!("{dir}/shared_cpu_list")).unwrap_or_default(),
            ))
        })
        .collect()
}

fn env_or_unknown(key: &str) -> String {
    std::env::var(key)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host block as a JSON object. `busy_threads` is the most threads
/// the workload keeps runnable at once in a timed phase; a run with
/// more than `nproc` is labelled oversubscribed.
pub fn block(workload: &str, busy_threads: usize) -> String {
    let n = nproc();
    let caches: Vec<String> = caches()
        .into_iter()
        .map(|(level, size, shared)| {
            format!(
                "{{\"level\":{},\"size\":{},\"shared_cpus\":{}}}",
                json_str(&level),
                json_str(&size),
                json_str(&shared)
            )
        })
        .collect();
    format!(
        "{{\"nproc\":{n},\"cpu_model\":{},\"caches\":[{}],\"rustc\":{},\"git_sha\":{},\
         \"glibc_tunables\":{},\"workload\":{},\"busy_threads\":{busy_threads},\
         \"oversubscribed\":{}}}",
        json_str(&cpu_model()),
        caches.join(","),
        json_str(&env_or_unknown("PERFBENCH_RUSTC")),
        json_str(&env_or_unknown("PERFBENCH_GIT_SHA")),
        json_str(&std::env::var("GLIBC_TUNABLES").unwrap_or_default()),
        json_str(workload),
        busy_threads > n
    )
}
