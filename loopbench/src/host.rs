//! What a number was measured on: revision, cores, compiler, memory.

use std::fs;
use std::process::{Command, Stdio};

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `rustc -V` of the compiler that built this binary.
#[must_use]
pub fn rustc() -> &'static str {
    env!("LOOPBENCH_RUSTC")
}

/// `git rev-parse HEAD` in the working directory, or `"none"` outside
/// a git checkout.
#[must_use]
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "none".into(), |rev| rev.trim().to_string())
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
