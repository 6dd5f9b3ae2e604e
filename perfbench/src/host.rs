//! Two process-wide conditions the benchmark pins, because left alone
//! each one settles differently from run to run and moves every figure
//! with it. `RATIONALE.md` ("Pinned host conditions") has the
//! measurements.
//!
//! - **glibc's malloc thresholds.** By default glibc raises its mmap
//!   threshold the first time a large mmapped block is freed, and the
//!   trim threshold with it, so whether a later large buffer comes from
//!   the heap or from fresh, page-faulting mmap memory depends on the
//!   order of earlier allocations. The benchmark sets both to the values
//!   glibc's own rule ends at (32 MiB and 64 MiB) before anything is
//!   allocated.
//! - **Which CPU runs the daemon.** The daemon's threads and the load
//!   generator's threads are each held to one CPU of their own, the way
//!   a load generator runs on a separate machine. Left to the scheduler,
//!   they settled per run into one of two placements, which differed by
//!   a factor of 1.5 in light-request latency.
//!
//! Both are no-ops where the platform lacks them (not Linux with glibc)
//! or the process may use fewer than two CPUs.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod sys {
    /// `cpu_set_t`: 1024 CPU bits.
    pub type CpuMask = [u64; 16];

    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuMask) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuMask) -> i32;
    }

    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_MMAP_THRESHOLD: i32 = -3;
}

/// Sets glibc's mmap threshold to 32 MiB and its trim threshold to
/// 64 MiB, which also turns off their adjustment at run time. Returns
/// whether both took effect.
pub fn pin_malloc() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // SAFETY: `mallopt` takes two plain integers and only changes the
        // allocator's tuning; both parameters are documented glibc ones.
        unsafe {
            sys::mallopt(sys::M_MMAP_THRESHOLD, 32 << 20) == 1
                && sys::mallopt(sys::M_TRIM_THRESHOLD, 64 << 20) == 1
        }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        false
    }
}

/// The CPUs the benchmark gives the daemon and the load generator.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    pub daemon: usize,
    pub generator: usize,
}

impl Placement {
    /// The last two CPUs this thread may run on: the daemon gets the
    /// higher one. `None` with fewer than two.
    pub fn from_affinity() -> Option<Placement> {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            let mut mask: sys::CpuMask = [0; 16];
            // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and the
            // size passed is its size; pid 0 names the calling thread.
            let rc = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), &mut mask) };
            if rc != 0 {
                return None;
            }
            let cpus: Vec<usize> = (0..mask.len() * 64)
                .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect();
            match cpus[..] {
                [.., generator, daemon] => Some(Placement { daemon, generator }),
                _ => None,
            }
        }
        #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
        {
            None
        }
    }
}

/// Holds the calling thread to `cpu`; threads it spawns afterwards
/// inherit that. Returns whether it took effect.
pub fn pin_thread(cpu: usize) -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        let mut mask: sys::CpuMask = [0; 16];
        if cpu >= mask.len() * 64 {
            return false;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is an initialised `cpu_set_t`-sized buffer and the
        // size passed is its size; pid 0 names the calling thread.
        unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), &mask) == 0 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    {
        let _ = cpu;
        false
    }
}
