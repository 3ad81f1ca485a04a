//! Which CPU the one thread of `embedded_logical` runs on.
//!
//! That workload is a single thread that sleeps in `fsync` after every
//! commit, and where it wakes up decides what it measures: on the
//! reference box the disk's completion interrupts all land on one of the
//! two CPUs, and a thread parked on the other pays a cross-CPU wake-up per
//! commit (lock-step p50 ≈ 115 µs instead of ≈ 75 µs). Left to the
//! scheduler the thread stays wherever it happened to start, so identical
//! runs fall into one regime or the other. The harness therefore times a
//! few `fsync`s on each CPU it may use and keeps its thread on the fastest
//! for the run phases — a property it observes, not a CPU number it is
//! told — and gives the thread back to the scheduler before the restarts,
//! whose recovery workers are sized by `available_parallelism`.
//!
//! Only `embedded_logical` does this. The served workloads run as
//! `llogtool serve` does: every thread placed by the scheduler.

use std::fs::File;
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::time::Instant;

/// `fsync`s timed per candidate CPU.
const PROBE_SYNCS: usize = 128;
/// Candidate CPUs looked at (the lowest-numbered allowed ones).
const MAX_CANDIDATES: usize = 16;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t` of glibc and musl: 1024 bits.
    pub type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }

    /// The calling thread's affinity mask.
    pub fn get() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread; the call writes at most
        // `cpusetsize` bytes into it and keeps no pointer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    /// Set the calling thread's affinity mask.
    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live buffer of exactly the size passed, only
        // read by the call; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub type CpuSet = [u64; 16];
    pub fn get() -> Option<CpuSet> {
        None
    }
    pub fn set(_: &CpuSet) -> bool {
        false
    }
}

/// The calling thread held on one CPU; dropping it restores the mask the
/// thread had.
pub struct Pinned {
    original: sys::CpuSet,
    /// The CPU chosen.
    pub cpu: usize,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        sys::set(&self.original);
    }
}

fn only(cpu: usize) -> sys::CpuSet {
    let mut set: sys::CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    set
}

/// Median latency (ns) of a 4 KiB overwrite + `fdatasync` in a
/// preallocated scratch file under `dir` — the shape of a commit on a
/// preallocated log segment — from wherever the calling thread runs now.
fn fsync_median_ns(dir: &Path) -> std::io::Result<u64> {
    let path = dir.join("affinity-probe");
    let mut file = File::create(&path)?;
    let page = [0xA5u8; 4096];
    for _ in 0..PROBE_SYNCS {
        file.write_all(&page)?;
    }
    file.sync_all()?;
    file.seek(SeekFrom::Start(0))?;
    let mut ns = Vec::with_capacity(PROBE_SYNCS);
    for _ in 0..PROBE_SYNCS {
        let t0 = Instant::now();
        file.write_all(&page)?;
        file.sync_data()?;
        ns.push(t0.elapsed().as_nanos() as u64);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(crate::stats::quantile(&mut ns, 0.5))
}

/// Hold the calling thread on the allowed CPU where `fsync` under `dir`
/// returns fastest. `None` (the thread stays where the scheduler puts it)
/// when there is no choice to make: one allowed CPU, or a platform without
/// thread affinity.
pub fn pin_to_fastest_fsync_cpu(dir: &Path) -> std::io::Result<Option<Pinned>> {
    let Some(original) = sys::get() else {
        return Ok(None);
    };
    let allowed: Vec<usize> = (0..original.len() * 64)
        .filter(|cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1)
        .take(MAX_CANDIDATES)
        .collect();
    if allowed.len() < 2 {
        return Ok(None);
    }
    // From here on every way out restores the mask (`Drop`).
    let mut pinned = Pinned {
        original,
        cpu: allowed[0],
    };
    let mut best = u64::MAX;
    for &cpu in &allowed {
        if sys::set(&only(cpu)) {
            let ns = fsync_median_ns(dir)?;
            if ns < best {
                best = ns;
                pinned.cpu = cpu;
            }
        }
    }
    Ok((best != u64::MAX && sys::set(&only(pinned.cpu))).then_some(pinned))
}
