//! Helpers shared by the integration-test binaries (`mod common;`).

/// The process's peak resident set so far, in KiB.
pub fn vm_hwm_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("a number of KiB")
}
