//! SRAM array model: geometry plus word-level access energy.
//!
//! An on-chip SRAM unit (register file bank, cache data array, scratchpad
//! bank) is modeled as a 2-D array of bit cells with a fixed word width. A
//! word access asserts one wordline (decoder + driver overhead) and touches
//! `word_bits` bitline columns, each charged per [`AccessEnergy`].

use crate::cell::{AccessEnergy, CellKind};
use crate::leakage::LeakagePower;
use crate::process::{ProcessNode, Supply};

/// Physical geometry of one SRAM array (mat/subarray).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayGeometry {
    /// Rows sharing a bitline (cells per bitline). The paper's Fig. 5/6 use
    /// "Set=32"; real arrays go up to 128 or 256 (§2.3).
    pub rows: u32,
    /// Bits per accessed word (columns activated per access).
    pub word_bits: u32,
}

impl ArrayGeometry {
    /// Create a geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: u32, word_bits: u32) -> Self {
        assert!(
            rows > 0 && word_bits > 0,
            "array dimensions must be non-zero"
        );
        Self { rows, word_bits }
    }

    /// Total capacity in bits.
    pub fn capacity_bits(self) -> u64 {
        u64::from(self.rows) * u64::from(self.word_bits)
    }
}

impl Default for ArrayGeometry {
    /// The paper's Fig. 5/6 configuration: 32 cells per bitline, 32-bit words.
    fn default() -> Self {
        Self::new(32, 32)
    }
}

/// A fully-specified SRAM array: cell kind, geometry and operating point.
///
/// # Example
///
/// ```
/// use bvf_circuit::{ArrayGeometry, CellKind, ProcessNode, SramArray, Supply};
///
/// let arr = SramArray::new(
///     CellKind::BvfSram8T,
///     ArrayGeometry::default(),
///     ProcessNode::N28,
///     Supply::NOMINAL,
/// );
/// // An all-ones word reads far cheaper than an all-zeros word on BVF SRAM.
/// assert!(arr.read_energy_fj(&u32::MAX.to_le_bytes()) < arr.read_energy_fj(&0u32.to_le_bytes()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramArray {
    kind: CellKind,
    geometry: ArrayGeometry,
    node: ProcessNode,
    supply: Supply,
    access: AccessEnergy,
    leakage: LeakagePower,
    wordline_fj: f64,
}

impl SramArray {
    /// Build an array model.
    ///
    /// # Panics
    ///
    /// Panics if the cell cannot operate at `supply` (6T below 0.9V).
    pub fn new(kind: CellKind, geometry: ArrayGeometry, node: ProcessNode, supply: Supply) -> Self {
        let access = AccessEnergy::of(kind, node, supply, geometry.rows);
        let leakage = LeakagePower::of(kind, node, supply);
        let wordline_fj = node.wordline_energy_fj_at_1v() * supply.dynamic_scale();
        Self {
            kind,
            geometry,
            node,
            supply,
            access,
            leakage,
            wordline_fj,
        }
    }

    /// Cell kind of this array.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Geometry of this array.
    pub fn geometry(&self) -> ArrayGeometry {
        self.geometry
    }

    /// Process node.
    pub fn node(&self) -> ProcessNode {
        self.node
    }

    /// Supply voltage.
    pub fn supply(&self) -> Supply {
        self.supply
    }

    /// Energy (fJ) to read the given bytes (one word access per
    /// `word_bits` chunk, wordline overhead charged per access).
    pub fn read_energy_fj(&self, data: &[u8]) -> f64 {
        let ones = bit_ones(data);
        let zeros = data.len() as u64 * 8 - ones;
        self.access.read_word(ones, zeros) + self.wordline_fj * self.accesses_for(data.len())
    }

    /// Energy (fJ) to write the given bytes.
    pub fn write_energy_fj(&self, data: &[u8]) -> f64 {
        let ones = bit_ones(data);
        let zeros = data.len() as u64 * 8 - ones;
        self.access.write_word(ones, zeros) + self.wordline_fj * self.accesses_for(data.len())
    }

    /// Energy (fJ) to read a payload given only its bit counts.
    pub fn read_energy_counts_fj(&self, ones: u64, zeros: u64) -> f64 {
        let bytes = ((ones + zeros) / 8).max(1) as usize;
        self.access.read_word(ones, zeros) + self.wordline_fj * self.accesses_for(bytes)
    }

    /// Energy (fJ) to write a payload given only its bit counts.
    pub fn write_energy_counts_fj(&self, ones: u64, zeros: u64) -> f64 {
        let bytes = ((ones + zeros) / 8).max(1) as usize;
        self.access.write_word(ones, zeros) + self.wordline_fj * self.accesses_for(bytes)
    }

    /// Standby power (nW) of the whole array given its current 1-bit count.
    ///
    /// # Panics
    ///
    /// Panics if `ones` exceeds the array capacity.
    pub fn standby_power_nw(&self, ones: u64) -> f64 {
        let cap = self.geometry.capacity_bits();
        assert!(ones <= cap, "ones ({ones}) exceed capacity ({cap})");
        self.leakage.array_power(ones, cap - ones)
    }

    /// Number of word accesses needed for `bytes` bytes.
    fn accesses_for(&self, bytes: usize) -> f64 {
        let word_bytes = (self.geometry.word_bits as usize).div_ceil(8);
        bytes.div_ceil(word_bytes).max(1) as f64
    }
}

fn bit_ones(data: &[u8]) -> u64 {
    data.iter().map(|b| u64::from(b.count_ones())).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bvf28() -> SramArray {
        SramArray::new(
            CellKind::BvfSram8T,
            ArrayGeometry::default(),
            ProcessNode::N28,
            Supply::NOMINAL,
        )
    }

    #[test]
    fn ones_are_cheaper_to_read_and_write() {
        let arr = bvf28();
        let ones = [0xffu8; 4];
        let zeros = [0x00u8; 4];
        assert!(arr.read_energy_fj(&ones) < arr.read_energy_fj(&zeros));
        assert!(arr.write_energy_fj(&ones) < arr.write_energy_fj(&zeros));
    }

    #[test]
    fn six_t_is_data_independent() {
        let arr = SramArray::new(
            CellKind::Sram6T,
            ArrayGeometry::default(),
            ProcessNode::N40,
            Supply::NOMINAL,
        );
        let a = arr.read_energy_fj(&[0xff; 8]);
        let b = arr.read_energy_fj(&[0x00; 8]);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn counts_and_bytes_paths_agree() {
        let arr = bvf28();
        let data = [0xa5u8, 0x00, 0xff, 0x3c];
        let ones = bit_ones(&data);
        let zeros = 32 - ones;
        assert!((arr.read_energy_fj(&data) - arr.read_energy_counts_fj(ones, zeros)).abs() < 1e-9);
        assert!(
            (arr.write_energy_fj(&data) - arr.write_energy_counts_fj(ones, zeros)).abs() < 1e-9
        );
    }

    #[test]
    fn multi_word_access_charges_multiple_wordlines() {
        let arr = bvf28();
        // 128 bytes at 32-bit words = 32 accesses vs 4 bytes = 1 access.
        let single = arr.read_energy_fj(&[0xffu8; 4]);
        let line = arr.read_energy_fj(&[0xffu8; 128]);
        assert!(line > 31.0 * single && line < 33.0 * single);
    }

    #[test]
    fn standby_validates_capacity() {
        let arr = bvf28();
        let cap = arr.geometry().capacity_bits();
        let all_ones = arr.standby_power_nw(cap);
        let all_zeros = arr.standby_power_nw(0);
        assert!(all_ones < all_zeros);
    }

    #[test]
    #[should_panic(expected = "exceed capacity")]
    fn standby_rejects_overflow() {
        let arr = bvf28();
        let _ = arr.standby_power_nw(arr.geometry().capacity_bits() + 1);
    }

    #[test]
    fn geometry_capacity() {
        assert_eq!(ArrayGeometry::new(128, 32).capacity_bits(), 4096);
        assert_eq!(ArrayGeometry::default().capacity_bits(), 1024);
    }
}
