//! The host-speed reference.
//!
//! The machine the benchmark was sized on is a virtual machine shared with
//! other work. Its speed drifts by 15–30% over minutes, and that drift
//! moves whole runs: over ten `reduce-cold` runs of unchanged code, the
//! interquartile range of the median pass time was 27% of its median. So
//! every run also times a fixed reference kernel between operations:
//! integer arithmetic plus a random walk over a 16 MiB table. It is plain standard-library code
//! that no change to the repository's crates can speed up or slow down.
//! The benchmark scales every timing of a run by the kernel's nominal time
//! over its median time in that run.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's median time on the machine the benchmark was sized on (2
/// hardware threads) in a quiet hour, so that calibrated times read close
/// to that machine's wall times.
pub const NOMINAL_S: f64 = 0.023;

/// Entries in the random-walk table: 16 MiB of `u32`, larger than the
/// last-level cache share a run can count on.
const TABLE_LEN: usize = 4 << 20;

/// Bytes the table adds to the process's resident set. A run builds it
/// before the workload allocates anything, so it is a mapping of its own
/// rather than reused heap, and building it writes every page.
pub const TABLE_BYTES: usize = TABLE_LEN * std::mem::size_of::<u32>();

/// Dependent loads per timing.
const HOPS: usize = 100_000;

/// Arithmetic rounds per timing.
const ROUNDS: u64 = 5_000_000;

/// Least time between two timings, so the kernel costs about 5% of a run.
const INTERVAL: Duration = Duration::from_millis(500);

/// Timings of the reference kernel across one run.
pub struct Reference {
    /// A single cycle through every entry, so a walk never falls into a
    /// short loop that stays in cache.
    table: Vec<u32>,
    position: u32,
    times: Vec<f64>,
    last: Instant,
}

impl Reference {
    /// Builds the table and takes the first timing.
    pub fn new() -> Self {
        let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
        // Sattolo's shuffle: a uniformly random single cycle.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..TABLE_LEN).rev() {
            x = xorshift(x);
            table.swap(i, (x % i as u64) as usize);
        }
        let mut reference = Reference {
            table,
            position: 0,
            times: Vec::new(),
            last: Instant::now(),
        };
        reference.time();
        reference
    }

    /// Times the kernel if [`INTERVAL`] has passed since the last timing.
    pub fn time_if_due(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.time();
        }
    }

    fn time(&mut self) {
        let start = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut sum = 0u64;
        for i in 0..ROUNDS {
            x = xorshift(x);
            sum = sum.wrapping_add(x.wrapping_mul(i | 1));
        }
        let mut at = self.position;
        for _ in 0..HOPS {
            at = self.table[at as usize];
        }
        self.position = black_box(at);
        black_box(sum);
        self.times.push(start.elapsed().as_secs_f64());
        self.last = Instant::now();
    }

    /// Every timing so far, in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// The factor that turns wall times of a run into calibrated times: the
/// nominal kernel time over the run's median kernel time.
pub fn factor(times: &[f64]) -> f64 {
    NOMINAL_S / median(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle_through_every_entry() {
        let reference = Reference::new();
        let mut at = 0u32;
        for step in 1..=TABLE_LEN {
            at = reference.table[at as usize];
            if at == 0 {
                assert_eq!(step, TABLE_LEN, "the walk returned early");
            }
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn a_slower_host_scales_times_down() {
        assert_eq!(factor(&[NOMINAL_S, NOMINAL_S * 3.0, NOMINAL_S]), 1.0);
        assert_eq!(factor(&[NOMINAL_S * 2.0]), 0.5);
    }
}
