//! Process and host probes read from `/proc` and sysfs.

use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux user-space ABI).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system) the whole process has used so far.
pub fn cpu_time() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("stat: {e}"))?;
    // The command name may contain spaces; the fields after it do not.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of stat(5) are the 12th and 13th after the name.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("stat field {i} unreadable"))
    };
    Ok(Duration::from_secs_f64((tick(11)? + tick(12)?) / USER_HZ))
}

extern "C" {
    /// glibc: returns the free memory of every malloc arena to the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Resets the process's peak resident set size to its current size, so the
/// next [`peak_rss_mib`] covers only what happens after this call.
///
/// Free memory the allocator still holds from earlier solves is returned
/// first; otherwise it would count towards every later peak, by an amount
/// that depends on how earlier solves happened to fragment the heap.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` takes no pointers, touches only the allocator's
    // free lists under the allocator's own locks, and may be called from any
    // thread at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}

/// Peak resident set size (`VmHWM`) since start or the last reset, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Size in bytes of the highest-level cache of CPU 0, from sysfs.
pub fn llc_bytes() -> Option<u64> {
    let base = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, u64)> = None;
    for entry in std::fs::read_dir(base).ok()?.flatten() {
        let dir = entry.path();
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().ok().map(|k| k << 10),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().ok().map(|m| m << 20),
                None => size.parse::<u64>().ok(),
            },
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes));
            }
        }
    }
    best.map(|(_, b)| b)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
