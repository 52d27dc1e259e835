//! What the benchmark knows about the machine it runs on: the thread count `T`, the
//! processor-time clock the end-to-end timings are read from, a fixed integer loop that
//! tells host drift from a regression, and the process's peak memory.

use std::hint::black_box;
use std::time::Instant;

/// `available_parallelism`, or 1 when the platform will not say.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The only thread count the benchmark uses besides 1: `min(nproc, 4)`.
pub fn wide_threads() -> usize {
    nproc().min(4)
}

/// `struct timespec` / `struct timeval` on 64-bit Linux: two machine words.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct TimePair {
    secs: i64,
    frac: i64,
}

/// `struct rusage` on 64-bit Linux: user and system time, then fourteen counters.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    user: TimePair,
    system: TimePair,
    counters: [i64; 14],
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RUSAGE_CHILDREN: i32 = -1;
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

// The C library `std` already links; the benchmark depends on no crate for five calls.
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn clock_gettime(clock: i32, time: *mut TimePair) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, set_bytes: usize, set: *const u64) -> i32;
}

/// Processor time this process (all its threads) and the children it has waited for
/// have consumed so far, in ms. Unlike wall time it does not count the time a thread sat
/// runnable behind someone else's, nor (the kernel subtracts it) time the hypervisor gave
/// to another guest: it is what the program cost, whatever the neighbours were doing.
pub fn cpu_ms() -> f64 {
    let mut own = TimePair::default();
    let mut children = Rusage::default();
    // SAFETY: both calls write only into the structure passed, and both structures have
    // the layout 64-bit Linux gives `timespec` and `rusage`.
    let failed = unsafe {
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut own) != 0
            || getrusage(RUSAGE_CHILDREN, &mut children) != 0
    };
    assert!(!failed, "the process CPU-time clock is not readable");
    let reaped = (children.user.secs + children.system.secs) as f64 * 1e3
        + (children.user.frac + children.system.frac) as f64 / 1e3;
    own.secs as f64 * 1e3 + own.frac as f64 / 1e6 + reaped
}

/// Confine this thread, and every thread and process started from it afterwards, to the
/// processor it is running on; returns that processor. The 1-thread measurements run this
/// way: one thread of work needs one processor, and a generator and a worker that take
/// turns on one processor do the same thing on a quiet host and on a crowded one, which
/// two threads passing work between two processors do not. `None` if the kernel refuses
/// (the run goes on unconfined).
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes nothing; `sched_setaffinity` reads `set_bytes` bytes
    // of the mask, which is that long.
    unsafe {
        let cpu = usize::try_from(sched_getcpu()).ok()?;
        let mut set = [0u64; 16];
        *set.get_mut(cpu / 64)? = 1 << (cpu % 64);
        (sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) == 0).then_some(cpu)
    }
}

/// Fix the allocator's `mmap` threshold at 32 MiB and its trim threshold at twice that:
/// the values glibc's self-adjusting thresholds end at once a block that large has been
/// freed. Left to adjust themselves, which allocations come from the heap (and stay
/// resident) depends on the order in which two threads happened to free their first large
/// blocks: the same seed then peaks anywhere from 34 to 40 MB on `dag-irregular`; fixed,
/// within 1 MB. (Fixing only the first leaves the trim threshold at its 128 KiB start, and
/// every large free hands the heap's top back to the kernel: `kernels-coarse` then costs a
/// third more.) Returns whether the allocator took the settings.
pub fn fix_malloc_thresholds() -> bool {
    // SAFETY: `mallopt` only stores the values; called before any other thread exists.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1 }
}

/// The host-speed canary: a fixed 4M-step dependent integer chain. It touches no memory
/// and calls nothing in the repository, so its time moves only when the host does.
pub fn calib_once() -> f64 {
    const STEPS: u32 = 4 << 20;
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..STEPS {
        // xorshift64: each step depends on the last, so the loop cannot be vectorised away.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Median of `reps` canary runs, in ms.
pub fn calib_ms_p50(reps: usize) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| calib_once()).collect();
    crate::stats::median(&samples)
}

/// Peak resident set of this process (`VmHWM`), in MB, from `/proc/self/status`.
/// `None` off Linux or if the field is missing.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        // Other tests run beside this one and the clock is the whole process's, so all
        // that can be said is that it never runs backwards and that work moves it.
        let start = cpu_ms();
        calib_once();
        let after_work = cpu_ms();
        assert!(after_work > start, "a 4M-step loop cost no processor time");
        assert!(cpu_ms() >= after_work);
    }

    #[test]
    fn thread_count_is_capped_at_four() {
        assert!((1..=4).contains(&wide_threads()));
        assert!(wide_threads() <= nproc());
    }
}
