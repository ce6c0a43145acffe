//! Cycle-weighted bit-value occupancy, for standby (leakage) accounting.
//!
//! BVF SRAM leaks less when storing 1 than when storing 0 (9.61% less in the
//! paper's circuit simulation), so leakage energy depends on *what* is
//! resident in an array over time, not just on its capacity. The
//! [`OccupancyIntegrator`] integrates `(ones, zeros) × cycles` as array
//! contents change.

/// Integrates bit-value occupancy over time.
///
/// Call [`OccupancyIntegrator::advance`] whenever the array contents change
/// (or at the end of the simulated interval); the integrator accumulates
/// `bit × cycle` products for 1s and 0s separately.
///
/// # Example
///
/// ```
/// use bvf_bits::OccupancyIntegrator;
///
/// // An 64-bit array initialized to all ones (the BVF initialization rule).
/// let mut occ = OccupancyIntegrator::new(64, /* initially all ones */ 64);
/// occ.advance(10);              // 10 cycles of 64 ones
/// occ.set_ones(16);             // a write leaves 16 ones resident
/// occ.advance(5);               // 5 cycles of 16 ones / 48 zeros
/// assert_eq!(occ.one_bit_cycles(), 64 * 10 + 16 * 5);
/// assert_eq!(occ.zero_bit_cycles(), 48 * 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OccupancyIntegrator {
    capacity_bits: u64,
    current_ones: u64,
    one_bit_cycles: u128,
    zero_bit_cycles: u128,
}

impl OccupancyIntegrator {
    /// Create an integrator for an array of `capacity_bits` total bits, with
    /// `initial_ones` of them currently holding 1.
    ///
    /// # Panics
    ///
    /// Panics if `initial_ones > capacity_bits`.
    pub fn new(capacity_bits: u64, initial_ones: u64) -> Self {
        assert!(
            initial_ones <= capacity_bits,
            "initial ones ({initial_ones}) exceed capacity ({capacity_bits})"
        );
        Self {
            capacity_bits,
            current_ones: initial_ones,
            one_bit_cycles: 0,
            zero_bit_cycles: 0,
        }
    }

    /// Array capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.capacity_bits
    }

    /// Bits currently holding 1.
    pub fn current_ones(&self) -> u64 {
        self.current_ones
    }

    /// Integrate the current occupancy over `cycles` cycles.
    pub fn advance(&mut self, cycles: u64) {
        self.one_bit_cycles += u128::from(self.current_ones) * u128::from(cycles);
        self.zero_bit_cycles +=
            u128::from(self.capacity_bits - self.current_ones) * u128::from(cycles);
    }

    /// Update the resident 1-bit count after array contents change.
    ///
    /// # Panics
    ///
    /// Panics if `ones > capacity_bits`.
    pub fn set_ones(&mut self, ones: u64) {
        assert!(
            ones <= self.capacity_bits,
            "ones ({ones}) exceed capacity ({})",
            self.capacity_bits
        );
        self.current_ones = ones;
    }

    /// Apply a delta to the resident 1-bit count (e.g. a line fill replacing
    /// `old_ones` with `new_ones`), saturating at the array bounds.
    pub fn replace(&mut self, old_ones: u64, new_ones: u64) {
        let next = self
            .current_ones
            .saturating_sub(old_ones)
            .saturating_add(new_ones)
            .min(self.capacity_bits);
        self.current_ones = next;
    }

    /// Accumulated `1-bit × cycle` product.
    pub fn one_bit_cycles(&self) -> u128 {
        self.one_bit_cycles
    }

    /// Accumulated `0-bit × cycle` product.
    pub fn zero_bit_cycles(&self) -> u128 {
        self.zero_bit_cycles
    }

    /// Fraction of integrated bit-cycles spent holding 1; 0.0 when empty.
    pub fn one_occupancy(&self) -> f64 {
        let total = self.one_bit_cycles + self.zero_bit_cycles;
        if total == 0 {
            0.0
        } else {
            self.one_bit_cycles as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_ones_initialization() {
        let mut occ = OccupancyIntegrator::new(100, 100);
        occ.advance(7);
        assert_eq!(occ.one_bit_cycles(), 700);
        assert_eq!(occ.zero_bit_cycles(), 0);
        assert_eq!(occ.one_occupancy(), 1.0);
    }

    #[test]
    fn replace_saturates() {
        let mut occ = OccupancyIntegrator::new(10, 5);
        occ.replace(9, 0); // underflow would occur; saturates at 0
        assert_eq!(occ.current_ones(), 0);
        occ.replace(0, 99); // overflow clamps to capacity
        assert_eq!(occ.current_ones(), 10);
    }

    #[test]
    #[should_panic(expected = "exceed capacity")]
    fn set_ones_validates() {
        let mut occ = OccupancyIntegrator::new(8, 0);
        occ.set_ones(9);
    }

    proptest! {
        #[test]
        fn bit_cycles_conserve_capacity(
            cap in 1u64..10_000,
            steps in proptest::collection::vec((0u64..10_000, 0u64..1000), 0..20),
        ) {
            let mut occ = OccupancyIntegrator::new(cap, 0);
            let mut total_cycles = 0u128;
            for (ones, cycles) in steps {
                occ.set_ones(ones.min(cap));
                occ.advance(cycles);
                total_cycles += u128::from(cycles);
            }
            prop_assert_eq!(
                occ.one_bit_cycles() + occ.zero_bit_cycles(),
                u128::from(cap) * total_cycles
            );
        }
    }
}
