//! What the kernel says about this process: CPU time and peak resident set.
//!
//! Read from `/proc/self`, because the container has no `libc` crate to call
//! `getrusage` with. Linux only, like the box the benchmark is tuned on.

use std::fs;

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux the repo targets; without `libc` it cannot be asked.
const CLK_TCK: f64 = 100.0;

/// User + system CPU seconds of the whole process, threads that have ended
/// included. The resolution is one tick, 10 ms.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_ticks(&stat).expect("utime and stime in /proc/self/stat") as f64 / CLK_TCK
}

/// `utime + stime` of a `/proc/<pid>/stat` line. The command name (field 2)
/// may itself hold spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11); // state is field 3; utime is 14
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of the process so far, in KiB.
pub fn vm_hwm_kib() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM in /proc/self/status")
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_survive_a_hostile_command_name() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 731 19 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some(750));
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        assert_eq!(parse_vm_hwm_kib("Name:\tx\nVmHWM:\t  275432 kB\nVmRSS:\t 1 kB\n"), Some(275432));
        assert!(vm_hwm_kib() > 0);
        assert!(cpu_seconds() >= 0.0);
    }
}
