//! The host measurements and settings the benchmark needs (Linux, 64-bit).
//!
//! `getrusage(2)` gives the host-side layer numbers: CPU split into user and
//! system time, and voluntary and involuntary context switches. The process's
//! peak resident set comes from `/proc/self/status` instead, since
//! `ru_maxrss` keeps the parent's resident set from before `exec`.

use std::os::raw::{c_int, c_long};

const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as laid out by Linux on 64-bit targets.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

/// `cpu_set_t`: a bitmask of 1024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawRusage) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
}

/// One resource-usage reading.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches (the thread parked, e.g. waiting for the token).
    pub vcsw: u64,
    /// Involuntary context switches (the OS preempted the thread).
    pub ivcsw: u64,
}

impl Usage {
    /// CPU seconds, user plus system.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// The usage accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            vcsw: self.vcsw - earlier.vcsw,
            ivcsw: self.ivcsw - earlier.ivcsw,
        }
    }
}

fn read(who: c_int) -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the kernel's
    // 64-bit Linux layout; getrusage writes only inside it.
    let rc = unsafe { getrusage(who, &mut raw) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Usage {
        user_s: secs(raw.ru_utime),
        sys_s: secs(raw.ru_stime),
        vcsw: raw.ru_nvcsw as u64,
        ivcsw: raw.ru_nivcsw as u64,
    }
}

/// Usage of the whole process so far (all threads, live and exited).
pub fn process() -> Usage {
    read(RUSAGE_SELF)
}

/// Usage of the calling thread so far.
pub fn thread() -> Usage {
    read(RUSAGE_THREAD)
}

/// Peak resident set of this process image (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Restrict the calling thread, and every thread it spawns later, to the
/// lowest-numbered CPU it may run on. Returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a live, writable cpu_set_t of `size` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..1024)
        .find(|&c| allowed.0[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live cpu_set_t of `size` bytes, only read.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}
