//! Outside-in process counters read from `/proc`.

use std::fs;

/// One reading of a process's `/proc` counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcCounters {
    /// CPU time of every thread, in microseconds: the threads'
    /// `/proc/<pid>/task/*/schedstat` run time, or where that is missing
    /// user + system time from `/proc/<pid>/stat` (fields 14 and 15).
    pub cpu_us: f64,
    /// Read plus write system calls (`/proc/<pid>/io` `syscr` + `syscw`).
    pub syscalls: u64,
    /// Voluntary context switches summed over the process's threads
    /// (`/proc/<pid>/task/*/status`) — one per blocking wait, i.e. wakeups.
    pub wakeups: u64,
}

impl ProcCounters {
    pub fn read(pid: u32) -> Result<ProcCounters, String> {
        let stat = read(&format!("/proc/{pid}/stat"))?;
        // The command name may hold spaces; fields resume after its `)`.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or("malformed stat")?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |index: usize| -> Result<f64, String> {
            fields
                .get(index)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| format!("stat field {index} missing"))
        };
        // `rest` starts at field 3 (state), so utime (14) is index 11.
        let ticks_us = (ticks(11)? + ticks(12)?) * 1e6 / clock_ticks_per_second();

        let io = read(&format!("/proc/{pid}/io"))?;
        let syscalls = field(&io, "syscr:")? + field(&io, "syscw:")?;

        let mut wakeups = 0;
        // Per-thread `schedstat` run time, in nanoseconds: finer than the
        // clock ticks of `stat`, which it replaces when every thread has it.
        let mut run_ns = Some(0u64);
        let tasks = fs::read_dir(format!("/proc/{pid}/task")).map_err(|e| e.to_string())?;
        for task in tasks.flatten() {
            // A thread that exits between the listing and the read simply
            // stops counting.
            if let Ok(status) = fs::read_to_string(task.path().join("status")) {
                wakeups += field(&status, "voluntary_ctxt_switches:")?;
                let ns = fs::read_to_string(task.path().join("schedstat"))
                    .ok()
                    .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok());
                run_ns = run_ns.zip(ns).map(|(sum, ns)| sum + ns);
            }
        }
        let cpu_us = run_ns.map_or(ticks_us, |ns| ns as f64 / 1e3);
        Ok(ProcCounters {
            cpu_us,
            syscalls,
            wakeups,
        })
    }

    pub fn since(&self, earlier: &ProcCounters) -> ProcCounters {
        ProcCounters {
            cpu_us: self.cpu_us - earlier.cpu_us,
            syscalls: self.syscalls.saturating_sub(earlier.syscalls),
            wakeups: self.wakeups.saturating_sub(earlier.wakeups),
        }
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = read(&format!("/proc/{pid}/status"))?;
    Ok(field(&status, "VmHWM:")? as f64 / 1024.0)
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// The first integer after `key` at the start of a line.
fn field(text: &str, key: &str) -> Result<u64, String> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| format!("`{key}` missing"))
}

/// CPU time the calling thread has used so far, in microseconds.
pub fn thread_cpu_us() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as f64 * 1e6 + ts.nsec as f64 / 1e3
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn clock_ticks_per_second() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes a plain integer and returns a plain integer.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}
