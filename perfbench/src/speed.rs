//! The host's speed, measured with a fixed reference kernel.
//!
//! On a shared host the same work takes a different amount of CPU time from
//! one second to the next, at no CPU steal: a neighbour on the other
//! hyperthread of the physical core, or on the shared caches, takes cycles
//! the guest cannot see, and the guest has no performance counters to count
//! instructions with. On a 2-vCPU KVM guest (Xeon, family 6 model 143) an
//! in-process replay of knife-edge-tcp lines through the admission
//! controller took 2.7 µs per line for seconds at a time, then 4.8 µs for
//! tens of seconds. A fixed kernel of system calls and allocation, timed on
//! the same CPU just before and just after each measured piece, slows down
//! with it: over 45 s of that replay, medians over 2 s windows of the
//! replay's CPU time per line spread 0.37 (IQR over median), and medians of
//! its ratio to the kernel's time 0.05.
//!
//! [`scaled`] turns a CPU time into the time it would have taken on a host
//! where one kernel run takes exactly [`REF_US`]: the program's own code
//! changes the scaled figure, the host's state much less. The kernel is
//! this file's own code, so no change to the program can change it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

/// The reference speed: the CPU time one kernel run is scaled to, in µs
/// (about what it takes on the 2-vCPU guest of the figures above).
pub const REF_US: f64 = 1_000.0;
/// Kernel runs per reading; a reading is the cheapest of them, so an
/// interrupt in one run does not count.
const RUNS: usize = 3;

/// The reference kernel: 200 round trips of a 200-byte message through a
/// Unix socket pair (system calls, like the server's socket reads and
/// writes), then 2000 inserts of formatted keys with small vectors into a
/// B-tree map (allocation and formatting, like request handling).
fn kernel(seed: u64) -> u64 {
    let mut acc = 0u64;
    if let Ok((mut a, mut b)) = UnixStream::pair() {
        let mut buf = [0u8; 256];
        for i in 0..200u64 {
            let _ = a.write_all(&[i as u8; 200]);
            acc += b.read(&mut buf).unwrap_or(0) as u64 + u64::from(buf[0]);
        }
    }
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut map = BTreeMap::new();
    for i in 0..2000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(format!("k{}", x % 500), vec![i; (x % 8) as usize]);
    }
    map.values().fold(acc, |acc, v| acc.wrapping_mul(31) ^ v.len() as u64)
}

/// The CPU time of one kernel run on `cpu` (µs, cheapest of `RUNS`): the
/// calling thread moves to `cpu` for the reading and then to `home`.
/// Where the kernel refuses the move (a host with one CPU), the reading
/// is taken where the thread is.
pub fn reading(cpu: usize, home: usize) -> f64 {
    let moved = crate::sys::pin_thread(0, cpu);
    let mut best = f64::INFINITY;
    for run in 0..RUNS {
        let t0 = crate::sys::thread_cpu_ns();
        black_box(kernel(black_box(run as u64 + 7)));
        let t1 = crate::sys::thread_cpu_ns();
        best = best.min((t1 - t0) as f64 / 1_000.0);
    }
    if moved {
        crate::sys::pin_thread(0, home);
    }
    best
}

/// `cpu_time` (any unit) taken while one kernel run took `reading_us`,
/// scaled to the reference speed.
pub fn scaled(cpu_time: f64, reading_us: f64) -> f64 {
    cpu_time * REF_US / reading_us
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_readings_are_positive() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
        assert!(reading(0, 0) > 0.0);
        assert_eq!(scaled(3.0, 2_000.0), 1.5);
    }
}
