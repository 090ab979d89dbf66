//! Host noise and process cost: steal time from `/proc/stat`, process CPU
//! time from `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`, peak resident set
//! from `/proc/self/status`. Off Linux every reading is zero.
//!
//! Process CPU time is what the benchmark's rates are measured against.
//! It counts only time a thread of the process was on a CPU: the kernel
//! leaves out time the hypervisor stole (paravirtual steal accounting)
//! and time a thread waited to be woken or scheduled. Those waits are
//! what makes wall-clock rates of the caller/worker round trip wander
//! on a shared host; the work each packet costs does not.

use std::time::Instant;

/// A snapshot of wall, process-CPU and system-wide CPU accounting.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    wall: Instant,
    cpu_ns: u64,
    steal_ticks: u64,
    all_ticks: u64,
}

/// What the host did between two samples, or over several such windows.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds this process used.
    pub cpu_s: f64,
    steal_ticks: u64,
    all_ticks: u64,
}

impl Window {
    /// Share of all CPU time the hypervisor stole.
    pub fn steal_frac(&self) -> f64 {
        if self.all_ticks == 0 {
            0.0
        } else {
            self.steal_ticks as f64 / self.all_ticks as f64
        }
    }

    /// Add another window's time.
    pub fn add(&mut self, other: &Window) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.steal_ticks += other.steal_ticks;
        self.all_ticks += other.all_ticks;
    }
}

/// CPU time used so far by every thread of this process, live or ended,
/// in nanoseconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return 0;
    }
    u64::try_from(t.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(t.tv_nsec).unwrap_or(0)
}

/// CPU time used so far by this process (not measured off 64-bit Linux).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ns() -> u64 {
    0
}

fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(line) = stat.lines().next() else {
        return (0, 0);
    };
    // cpu user nice system idle iowait irq softirq steal [guest guest_nice]
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

impl Sample {
    /// Take a sample now.
    pub fn now() -> Sample {
        let (steal_ticks, all_ticks) = cpu_ticks();
        Sample {
            wall: Instant::now(),
            cpu_ns: process_cpu_ns(),
            steal_ticks,
            all_ticks,
        }
    }

    /// The window from `self` to `later`.
    pub fn until(&self, later: &Sample) -> Window {
        Window {
            wall_s: later.wall.duration_since(self.wall).as_secs_f64(),
            cpu_s: later.cpu_ns.saturating_sub(self.cpu_ns) as f64 * 1e-9,
            steal_ticks: later.steal_ticks.saturating_sub(self.steal_ticks),
            all_ticks: later.all_ticks.saturating_sub(self.all_ticks),
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
