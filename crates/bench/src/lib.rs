//! Benchmark harness crate for the BVF reproduction.
//!
//! The Criterion benches live under `benches/`:
//!
//! * `benches/collector.rs` and `benches/exec_step.rs` — the collector and
//!   execute-loop hot paths.
//! * `benches/trace_overhead.rs` — the <5% tracing overhead gate, timed
//!   with [`min_of_paired_reps`]. Every span goes straight into the trace
//!   sink, so its cost scales with spans per work item, which a
//!   count-based campaign test bounds.
//!
//! Run with `cargo bench --workspace` (results land in `target/criterion`).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Best-of-`reps` wall times of two arms, `(base, measured)`, timed in
/// alternation rep by rep (and in swapped order on odd reps), so a burst
/// of host load lands on both arms rather than on whichever ran second.
/// The minimum filters the scheduler noise a mean would smear into the
/// comparison.
pub fn min_of_paired_reps(
    reps: usize,
    mut base: impl FnMut(),
    mut measured: impl FnMut(),
) -> (Duration, Duration) {
    fn time(body: &mut impl FnMut()) -> Duration {
        let t0 = Instant::now();
        body();
        t0.elapsed()
    }
    let (mut best_base, mut best_measured) = (Duration::MAX, Duration::MAX);
    for rep in 0..reps {
        if rep % 2 == 0 {
            best_base = best_base.min(time(&mut base));
            best_measured = best_measured.min(time(&mut measured));
        } else {
            best_measured = best_measured.min(time(&mut measured));
            best_base = best_base.min(time(&mut base));
        }
    }
    (best_base, best_measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_reps_alternate_the_arms() {
        let order = std::cell::RefCell::new(Vec::new());
        let (a, b) = min_of_paired_reps(
            4,
            || order.borrow_mut().push('a'),
            || order.borrow_mut().push('b'),
        );
        assert_eq!(order.into_inner(), ['a', 'b', 'b', 'a', 'a', 'b', 'b', 'a']);
        assert!(a < Duration::MAX && b < Duration::MAX);
    }
}
