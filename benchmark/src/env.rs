//! The process environment: what the harness clears on entry, and what
//! it records about the machine in every result file.

use crate::json::{obj, Json};
use std::path::PathBuf;
use std::process::Command;

/// Environment knobs of the library crates. The harness clears all of
/// them on entry and passes clock, models and pool width explicitly.
pub const NOWMP_VARS: [&str; 5] = [
    "NOWMP_QUICK",
    "NOWMP_CLOCK",
    "NOWMP_TIME_SCALE",
    "NOWMP_NO_EMULATE",
    "NOWMP_POOL",
];

/// Logical CPUs this process may run on.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker-pool width the task engine runs with: every core, capped at
/// the engine's own default ceiling of 8.
pub fn pool_width() -> usize {
    available_parallelism().min(8)
}

/// Remove every `NOWMP_*` knob, then pin the task-engine pool width —
/// `TaskSystem` reads it from `NOWMP_POOL` and offers no other way in.
/// Call once at the top of `main`, before any thread exists.
pub fn sanitize() {
    for v in NOWMP_VARS {
        std::env::remove_var(v);
    }
    std::env::set_var("NOWMP_POOL", pool_width().to_string());
}

/// Where scratch files (checkpoints, traces, result files) go: `out/`
/// beside the harness manifest, which `.gitignore` names.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create output directory {}: {e}", dir.display()));
    dir
}

/// Write to every page of `bytes` of newly mapped memory and give it
/// back to the kernel.
///
/// The reference machine is a VM whose memory the host backs lazily and
/// takes back a few seconds after the guest frees it: the first touch of
/// a page the guest has not used lately costs a host fault, 10 ms per MB
/// against 0.6 ms per MB for a page it has. Past some 500 MB of resident
/// set a process finds no such pages left, and `table1_paper1999` grows
/// by 33 MB a step: somewhere between its 4th and its 12th step the
/// steps went from 120 ms to 350 ms of host time, at a point that moved
/// from run to run. Pages freed a moment ago are handed out again first,
/// so paying the host faults here, outside the timed step, leaves the
/// step the guest's own.
pub fn prefault(bytes: usize) {
    let mut fresh = vec![0u8; bytes];
    for page in fresh.chunks_mut(4096) {
        page[0] = 1;
    }
    std::hint::black_box(&fresh);
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn tool_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or_else(available_parallelism)
}

/// The `machine` block of a result file: enough to tell whether two
/// files may be compared at all.
pub fn machine_info(seed: u64) -> Json {
    obj([
        ("nproc", nproc().into()),
        ("available_parallelism", available_parallelism().into()),
        ("rustc", tool_line("rustc", &["-V"]).into()),
        (
            "git_revision",
            tool_line("git", &["rev-parse", "HEAD"]).into(),
        ),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("seed", seed.into()),
        ("pool_width", pool_width().into()),
    ])
}

/// Restores the calling thread's CPU affinity when dropped.
pub struct CpuPin {
    #[cfg(target_os = "linux")]
    saved: Option<[u64; affinity::WORDS]>,
}

/// Confine the calling thread — and every thread it spawns while the
/// guard lives — to the last CPU it may run on (the first one is where
/// interrupts and the machine's other work tend to land).
///
/// The real-clock workload and lanes time four threads handing work to
/// each other. On a two-vCPU machine whether a pair shares a CPU is the
/// kernel's choice, and a cross-CPU futex wake-up costs 80–100 µs there
/// against 20 µs on one CPU: unpinned, `pages_per_s` read 15 k or 88 k
/// from one run to the next. On one CPU the host time spent inside the
/// library is the whole result. Without `sched_setaffinity` (non-Linux)
/// the guard does nothing.
pub fn pin_to_one_cpu() -> CpuPin {
    #[cfg(target_os = "linux")]
    {
        CpuPin {
            saved: affinity::pin_last(),
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        CpuPin {}
    }
}

impl Drop for CpuPin {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        if let Some(mask) = self.saved {
            affinity::set(&mask);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// 64-bit words of a `cpu_set_t` (1024 CPUs).
    pub const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: `mask` points to `WORDS * 8` readable bytes, the size
        // passed; pid 0 names the calling thread. The call only reads.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }

    /// Pin to the highest allowed CPU; returns the mask to restore, or
    /// `None` if the affinity could not be read or changed.
    pub fn pin_last() -> Option<[u64; WORDS]> {
        let mut saved = [0u64; WORDS];
        // SAFETY: `saved` is `WORDS * 8` writable bytes, the size
        // passed; the kernel writes at most that many.
        let got = unsafe { sched_getaffinity(0, WORDS * 8, saved.as_mut_ptr()) };
        if got != 0 {
            return None;
        }
        let word = saved.iter().rposition(|&w| w != 0)?;
        let mut one = [0u64; WORDS];
        one[word] = 1 << (63 - saved[word].leading_zeros());
        set(&one).then_some(saved)
    }
}
