//! The few Linux calls the standard library does not wrap, as minimal
//! bindings: `ppoll(2)`, so the one-thread client sleeps in the kernel
//! until a response arrives or the next request is due and leaves the
//! host's CPUs to the server it measures; the timer slack; CPU affinity;
//! and the process and thread CPU clocks.

use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Keep thread `tid` (0: the calling thread) — and the threads and
/// processes it starts from then on — on CPU `cpu` (below 64); returns
/// whether the kernel agreed.
pub fn pin_thread(tid: i32, cpu: usize) -> bool {
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live 8-byte CPU set that outlives the call, and
    // its size is passed with it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// CPU time this process has run so far, all its threads (the ones that
/// already exited too), in ns. Like `/proc/<pid>/task/*/schedstat`, it
/// leaves out time the hypervisor gave to other tenants.
pub fn process_cpu_ns() -> Option<u64> {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has run so far, in ns (0 if the clock is
/// unavailable).
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID).unwrap_or(0)
}

fn cpu_clock_ns(clock: i32) -> Option<u64> {
    let mut spec = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `spec` is a live `struct timespec` the kernel writes the
    // clock's value into; the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(clock, &mut spec) };
    (rc == 0).then(|| spec.tv_sec as u64 * 1_000_000_000 + spec.tv_nsec as u64)
}

/// Ask the kernel to wake this thread's timed waits within 1 µs of their
/// deadline (the default slack is 50 µs), so scheduled sends leave on
/// time.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes this thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000u64);
    }
}

/// Block until one of `fds` is readable (or writable, where `write` is
/// set), or `timeout` passes.
pub fn wait(fds: &[(RawFd, bool)], timeout: Duration) -> std::io::Result<()> {
    let mut polls: Vec<PollFd> = fds
        .iter()
        .map(|&(fd, write)| PollFd {
            fd,
            events: if write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        })
        .collect();
    let spec =
        Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) };
    // SAFETY: `polls` is a live, properly aligned array of `polls.len()`
    // `struct pollfd`s that the kernel may write `revents` into; `spec` is
    // a `struct timespec` that outlives the call; a null signal mask leaves
    // the mask unchanged.
    let rc = unsafe { ppoll(polls.as_mut_ptr(), polls.len() as u64, &spec, std::ptr::null()) };
    if rc < 0 {
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}
