//! Bus-invert coding — the classic low-power bus scheme the paper contrasts
//! BVF against (§3.2, citing Stan & Burleson).
//!
//! Bus-invert minimizes the *Hamming distance between consecutive words* on
//! a parallel bus: if transmitting the next flit as-is would toggle more
//! than half the wires, the inverted flit is sent instead and an extra
//! polarity line is raised. Two structural drawbacks motivate BVF's
//! different objective:
//!
//! 1. it needs one extra parity line per channel (and per stored word, if
//!    data is kept encoded in SRAM) — real metadata overhead;
//! 2. it optimizes *transitions*, not *state*: it has no preference between
//!    0s and 1s inside a word, so it cannot harvest the BVF cell's
//!    asymmetric access energy, which needs Hamming *weight* maximized.
//!
//! This implementation exists as a measurable baseline: the ablation
//! exhibits compare raw, bus-inverted and BVF-coded traffic on both metrics
//! (toggles and weight).

use bvf_bits::hamming::distance_bytes;

/// One bus-invert-coded channel of fixed width.
///
/// # Example
///
/// ```
/// use bvf_core::bus_invert::BusInvertChannel;
///
/// let mut ch = BusInvertChannel::new(4);
/// ch.transmit(&[0x00, 0x00, 0x00, 0x00]);
/// // Sending all-ones raw would toggle 32 wires; bus-invert sends the
/// // complement (all zeros) and raises the polarity line: 1 toggle total.
/// let (wires, inverted) = ch.transmit(&[0xff, 0xff, 0xff, 0xff]);
/// assert!(inverted);
/// assert_eq!(wires, vec![0x00, 0x00, 0x00, 0x00]);
/// assert_eq!(ch.wire_toggles(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusInvertChannel {
    width_bytes: usize,
    last_wires: Vec<u8>,
    last_polarity: bool,
    wire_toggles: u64,
    transfers: u64,
    inversions: u64,
}

impl BusInvertChannel {
    /// New channel carrying `width_bytes`-wide flits (plus the implicit
    /// polarity line).
    ///
    /// # Panics
    ///
    /// Panics if `width_bytes` is zero.
    pub fn new(width_bytes: usize) -> Self {
        assert!(width_bytes > 0, "channel width must be non-zero");
        Self {
            width_bytes,
            last_wires: vec![0; width_bytes],
            last_polarity: false,
            wire_toggles: 0,
            transfers: 0,
            inversions: 0,
        }
    }

    /// Transmit one flit; returns the wire pattern actually driven and
    /// whether it was inverted.
    ///
    /// # Panics
    ///
    /// Panics if the flit width differs from the channel width.
    pub fn transmit(&mut self, flit: &[u8]) -> (Vec<u8>, bool) {
        assert_eq!(
            flit.len(),
            self.width_bytes,
            "flit width {} != channel width {}",
            flit.len(),
            self.width_bytes
        );
        let direct = distance_bytes(&self.last_wires, flit);
        let inverted_flit: Vec<u8> = flit.iter().map(|b| !b).collect();
        let inverted = distance_bytes(&self.last_wires, &inverted_flit);
        let half = (self.width_bytes as u64 * 8) / 2;
        let (wires, polarity) = if direct > half.max(inverted.min(direct)) || inverted < direct {
            (inverted_flit, true)
        } else {
            (flit.to_vec(), false)
        };
        let mut toggles = distance_bytes(&self.last_wires, &wires);
        if polarity != self.last_polarity {
            toggles += 1; // the polarity line itself switches
        }
        self.wire_toggles += toggles;
        self.transfers += 1;
        if polarity {
            self.inversions += 1;
        }
        self.last_wires = wires.clone();
        self.last_polarity = polarity;
        (wires, polarity)
    }

    /// Decode a received wire pattern given its polarity bit.
    pub fn decode(wires: &[u8], inverted: bool) -> Vec<u8> {
        if inverted {
            wires.iter().map(|b| !b).collect()
        } else {
            wires.to_vec()
        }
    }

    /// Total wire toggles driven so far (including the polarity line).
    pub fn wire_toggles(&self) -> u64 {
        self.wire_toggles
    }

    /// Flits transferred.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// How many transfers were sent inverted.
    pub fn inversions(&self) -> u64 {
        self.inversions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn never_toggles_more_than_half_plus_polarity() {
        let mut ch = BusInvertChannel::new(4);
        let flits: Vec<[u8; 4]> = vec![
            [0x00; 4], [0xff; 4], [0xaa; 4], [0x55; 4], [0x0f; 4], [0xf0; 4],
        ];
        let mut last = vec![0u8; 4];
        let mut last_pol = false;
        for f in &flits {
            let before = ch.wire_toggles();
            let (wires, pol) = ch.transmit(f);
            let step = ch.wire_toggles() - before;
            let data_toggles = distance_bytes(&last, &wires);
            assert!(data_toggles <= 16, "data toggles {data_toggles} > width/2");
            assert!(step <= 17, "step {step} exceeds half + polarity");
            last = wires;
            last_pol = pol;
        }
        let _ = last_pol;
    }

    #[test]
    fn decode_recovers_data() {
        let mut ch = BusInvertChannel::new(2);
        for f in [[0x12u8, 0x34], [0xff, 0xff], [0x00, 0x01]] {
            let (wires, pol) = ch.transmit(&f);
            assert_eq!(BusInvertChannel::decode(&wires, pol), f.to_vec());
        }
    }

    #[test]
    fn alternating_extremes_trigger_inversion() {
        let mut ch = BusInvertChannel::new(4);
        ch.transmit(&[0x00; 4]);
        let (_, pol) = ch.transmit(&[0xff; 4]);
        assert!(pol, "full inversion must use the polarity line");
        assert!(ch.inversions() >= 1);
    }

    #[test]
    #[should_panic(expected = "channel width")]
    fn width_mismatch_rejected() {
        let mut ch = BusInvertChannel::new(4);
        ch.transmit(&[0u8; 3]);
    }

    proptest! {
        #[test]
        fn roundtrip(flits: Vec<[u8; 8]>) {
            let mut ch = BusInvertChannel::new(8);
            for f in &flits {
                let (wires, pol) = ch.transmit(f);
                prop_assert_eq!(BusInvertChannel::decode(&wires, pol), f.to_vec());
            }
        }

        #[test]
        fn beats_or_matches_raw_toggles(flits: Vec<[u8; 8]>) {
            // Bus-invert never toggles more data wires than raw transmission;
            // with the polarity line it can exceed raw by at most 1/transfer.
            let mut ch = BusInvertChannel::new(8);
            let mut raw_last = vec![0u8; 8];
            let mut raw_toggles = 0u64;
            for f in &flits {
                ch.transmit(f);
                raw_toggles += distance_bytes(&raw_last, f);
                raw_last = f.to_vec();
            }
            prop_assert!(ch.wire_toggles() <= raw_toggles + flits.len() as u64);
        }
    }
}
