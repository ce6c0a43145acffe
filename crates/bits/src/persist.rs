//! [`Persist`] impls for the bit-statistics value types, so campaign
//! results containing them can live in the on-disk result store.
//!
//! Layouts are field-by-field in declaration order. Any field change to
//! these types must be accompanied by a bump of the *store format version*
//! in `bvf_sim::store`, which re-keys every entry (old entries become
//! unreachable, never misparsed).

use bvf_store::{CodecError, Persist, Reader, Writer};

use crate::profile::NarrowValueProfile;
use crate::stats::BitCounts;
use crate::toggle::ToggleStats;

impl Persist for BitCounts {
    fn persist(&self, w: &mut Writer) {
        w.u64(self.ones);
        w.u64(self.zeros);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            ones: r.u64()?,
            zeros: r.u64()?,
        })
    }
}

impl Persist for ToggleStats {
    fn persist(&self, w: &mut Writer) {
        w.u64(self.transfers);
        w.u64(self.bit_toggles);
        w.u64(self.bit_slots);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            transfers: r.u64()?,
            bit_toggles: r.u64()?,
            bit_slots: r.u64()?,
        })
    }
}

impl Persist for NarrowValueProfile {
    fn persist(&self, w: &mut Writer) {
        w.u64(self.words);
        w.u64(self.leading_bits_sum);
        w.u64(self.zero_words);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            words: r.u64()?,
            leading_bits_sum: r.u64()?,
            zero_words: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::restore(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(back, v);
    }

    #[test]
    fn stats_types_round_trip() {
        round_trip(BitCounts { ones: 3, zeros: 61 });
        round_trip(ToggleStats {
            transfers: 10,
            bit_toggles: 77,
            bit_slots: 2560,
        });
        round_trip(NarrowValueProfile {
            words: 4,
            leading_bits_sum: 30,
            zero_words: 1,
        });
    }
}
