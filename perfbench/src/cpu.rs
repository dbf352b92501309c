//! CPU time and placement: the machine's busy and stolen time, the CPU
//! time of one process, and pinning threads to one CPU.
//!
//! On a VM whose host takes CPU time from it (steal), a wall time says as
//! much about the host's other tenants as about the program. The benchmark
//! therefore reports the wall time of a long, busy operation net of steal
//! ([`Steal::net`]) and the server's cost of start-up and of each request
//! as its own CPU time ([`process_cpu_s`]), which the kernel accounts
//! without the stolen time.
//!
//! A wake-up that crosses to another vCPU costs the VM an interrupt sent
//! through the host, and that cost, charged as CPU time of the thread that
//! sends it, grows when the host is busy. The servers that take the reads
//! and writes, and the client threads that read from them, therefore share
//! one CPU ([`pin_thread`]), so the per-request CPU time is the program's
//! path and not the host's interrupt delivery.

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Words of the CPU masks passed to the affinity calls (1 024 CPUs).
const MASK_WORDS: usize = 16;

/// Busy time of the machine (user, nice, system, irq, softirq, steal) and
/// the stolen part of it, in clock ticks, from the first line of
/// `/proc/stat`.
fn machine_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let v: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    let [user, nice, system, _idle, _iowait, irq, softirq, steal] = v[..] else {
        return None;
    };
    Some((user + nice + system + irq + softirq + steal, steal))
}

/// The machine's busy and stolen time at one instant.
#[derive(Clone, Copy)]
pub struct Steal(Option<(u64, u64)>);

impl Steal {
    pub fn now() -> Steal {
        Steal(machine_ticks())
    }

    /// Share of the busy time since `self` that the host took (0 when
    /// `/proc/stat` cannot be read or nothing ran).
    pub fn share(self) -> f64 {
        match (self.0, machine_ticks()) {
            (Some((b0, s0)), Some((b1, s1))) if b1 > b0 => {
                s1.saturating_sub(s0) as f64 / (b1 - b0) as f64
            }
            _ => 0.0,
        }
    }

    /// `wall` seconds, measured since `self`, net of the stolen share: the
    /// time the work would have taken had the host taken nothing.
    pub fn net(self, wall: f64) -> f64 {
        wall * (1.0 - self.share())
    }
}

/// CPU time of process `pid` so far (every thread, exited ones included),
/// in seconds, from its process CPU-time clock (nanosecond resolution).
pub fn process_cpu_s(pid: i32) -> Option<f64> {
    let mut clock = 0i32;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: both out-pointers refer to live locals of the types the calls
    // expect on 64-bit Linux (`clockid_t` is an i32).
    let ok = unsafe {
        clock_getcpuclockid(pid, &mut clock) == 0 && clock_gettime(clock, &mut ts) == 0
    };
    ok.then_some(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

/// The lowest-numbered CPU this process may run on.
pub fn first_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live buffer of the size passed.
    if unsafe { sched_getaffinity(0, 8 * MASK_WORDS, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    (0..64 * MASK_WORDS).find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
}

/// Restrict the calling thread to CPU `cpu`; the threads and programs it
/// starts afterwards inherit the restriction. Makes one system call and no
/// allocation, so it may run between `fork` and `exec`.
pub fn pin_thread(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed.
    unsafe { sched_setaffinity(0, 8 * MASK_WORDS, mask.as_ptr()) == 0 }
}
