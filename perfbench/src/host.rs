//! Host speed. The benchmark shares a few cores of a host whose other
//! tenants come and go, and the host's speed moves by a third over tens
//! of seconds. A fixed calibration loop, timed again and again next to
//! the measured work, tracks that speed: the benchmark scales the times
//! that are host CPU work by how long the loop took, relative to
//! [`REFERENCE_S`].
//!
//! The loop mimics the warp interpreter's inner step: 32 lanes of
//! integer arithmetic with data-dependent branches, fed by a dependent
//! walk over a 4 KiB table. The table is small so that the loop adds
//! nothing to the peak memory of the serve workload, whose server shares
//! the benchmark's process. On the baseline host, a loop that walked a
//! 4 MiB table tracked the `reproduce` passes about as well, and one that
//! allocated, cloned and walked an 8 MiB buffer worse (see README.md).

use std::hint::black_box;
use std::time::Instant;

use crate::measure::median;

/// Words in the loop's table: 4 KiB.
const TABLE_WORDS: usize = 1 << 10;
/// Steps of one calibration loop.
const STEPS: u32 = 24 << 16;
/// Seconds one calibration loop takes on the baseline host when it is
/// quiet (see README.md). A scaled time reads as the host seconds the
/// work would take there.
pub const REFERENCE_S: f64 = 0.1;

/// One calibration loop. Returns its checksum, so the work cannot be
/// optimised away and provably stays the same work.
fn calibration_loop() -> u64 {
    let mut table: Vec<u32> = (0..TABLE_WORDS as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mask = table.len() - 1;
    let mut lanes = [0u32; 32];
    let mut at = 1usize;
    let mut sum = 0u64;
    for step in 0..black_box(STEPS) {
        let v = table[at];
        for (l, lane) in lanes.iter_mut().enumerate() {
            let x = lane.wrapping_add(v ^ l as u32).rotate_left(step & 31);
            *lane = if x & 1 == 0 {
                x >> 1
            } else {
                x.wrapping_mul(3).wrapping_add(1)
            };
        }
        sum = sum.wrapping_add(lanes.iter().map(|x| u64::from(x.count_ones())).sum::<u64>());
        table[at] = v ^ lanes[(step & 31) as usize];
        at = ((v as usize) ^ (at << 3) ^ (step >> 16) as usize) & mask;
    }
    sum
}

/// Calibration samples of one run.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Time one calibration loop.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(calibration_loop());
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// How much slower than the reference host this run's host was: the
    /// median calibration time over [`REFERENCE_S`]. Panics before the
    /// first sample.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / REFERENCE_S
    }

    /// A host time of CPU work, in reference-host seconds.
    pub fn time(&self, t: f64) -> f64 {
        t / self.slowdown()
    }

    /// A rate of CPU work per host second, per reference-host second.
    pub fn rate(&self, r: f64) -> f64 {
        r * self.slowdown()
    }

    /// A latency made of a part that is host CPU work on top of a
    /// `base` that is not: only the part above `base` is scaled.
    pub fn above(&self, base: f64, t: f64) -> f64 {
        base + self.time(t - base)
    }

    /// A wall time of which `cpu` seconds were spent on a CPU: only that
    /// share is scaled. When the work ran on more than one CPU at once,
    /// all of the wall counts as CPU work.
    pub fn on_cpu(&self, wall: f64, cpu: f64) -> f64 {
        let on = cpu.clamp(0.0, wall);
        wall - on + self.time(on)
    }

    /// The loop times, in the order they were taken.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// One line for the log: the slowdown and what it rests on.
    pub fn describe(&self) -> String {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        format!(
            "host: slowdown {:.4} against the reference host, from {} calibration loops \
             (median {:.4} s, range {:.4}-{:.4} s)",
            self.slowdown(),
            sorted.len(),
            median(&sorted),
            sorted[0],
            sorted[sorted.len() - 1]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_calibration_loop_is_fixed_work() {
        // The checksum pins the loop: a change to it would change what
        // every scaled figure means.
        assert_eq!(calibration_loop(), CHECKSUM);
    }

    const CHECKSUM: u64 = 780_130_458;

    #[test]
    fn scaling_divides_times_and_multiplies_rates_by_the_slowdown() {
        let mut host = HostSpeed {
            samples: vec![0.1, 0.2, 0.9],
        };
        assert!((host.slowdown() - 2.0).abs() < 1e-12);
        assert!((host.time(5.0) - 2.5).abs() < 1e-12);
        assert!((host.rate(100.0) - 200.0).abs() < 1e-12);
        assert!((host.above(5.0, 13.0) - 9.0).abs() < 1e-12);
        assert!((host.on_cpu(10.0, 6.0) - 7.0).abs() < 1e-12);
        assert!((host.on_cpu(10.0, 15.0) - 5.0).abs() < 1e-12);
        host.sample();
        assert_eq!(host.samples().len(), 4);
        assert!(host.samples()[3] > 0.0);
        assert!(host.describe().contains("from 4 calibration loops"));
    }
}
