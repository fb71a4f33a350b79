//! Host accounting read from `/proc`: process CPU time and peak resident
//! set. Either failing to read is an error, never a silent 0.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields (the
/// kernel's fixed `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process (`/proc/self/stat` fields 14 and 15).
///
/// # Errors
///
/// The file is missing or does not parse.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; the fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("/proc/self/stat: no command field")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("/proc/self/stat: field {} unreadable", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size in MB (`VmHWM` of `/proc/self/status`).
///
/// # Errors
///
/// The file is missing or has no parseable `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM".to_string())
}
