//! Process counters: disk bytes written (`/proc/self/io`), peak resident
//! memory (`/proc/self/status`), and CPU time and context switches from
//! `getrusage`, which unlike `/proc/self/status` sums every thread of the
//! process, including the planner workers that already exited.

use std::fs;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// (CPU microseconds, voluntary + involuntary context switches) of the
/// whole process.
fn rusage() -> (u64, u64) {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a properly sized, writable `struct rusage` and
    // RUSAGE_SELF (0) is a valid `who`.
    if unsafe { getrusage(0, &mut usage) } != 0 {
        return (0, 0);
    }
    let micros = |t: [i64; 2]| (t[0] * 1_000_000 + t[1]) as u64;
    // ru_nvcsw and ru_nivcsw are the last two longs
    (
        micros(usage.utime) + micros(usage.stime),
        (usage.rest[12] + usage.rest[13]) as u64,
    )
}

/// A reading of this process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `write_bytes` of `/proc/self/io`: bytes this process caused to be
    /// sent to the storage layer.
    pub write_bytes: u64,
    /// User + system CPU time, in microseconds.
    pub cpu_micros: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Counters {
    pub fn read() -> Counters {
        let (cpu_micros, ctx_switches) = rusage();
        Counters {
            write_bytes: io_field("write_bytes"),
            cpu_micros,
            ctx_switches,
        }
    }

    /// Counter deltas since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            cpu_micros: self.cpu_micros.saturating_sub(earlier.cpu_micros),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    pub fn cpu_ms(&self) -> f64 {
        self.cpu_micros as f64 / 1e3
    }
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

fn io_field(name: &str) -> u64 {
    field(
        &fs::read_to_string("/proc/self/io").unwrap_or_default(),
        name,
    )
}

fn status_field(name: &str) -> u64 {
    field(
        &fs::read_to_string("/proc/self/status").unwrap_or_default(),
        name,
    )
}

/// The first number after `name:` on its line.
fn field(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(name)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}
