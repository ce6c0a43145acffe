//! Toggle-rate accounting for on-chip interconnect channels.
//!
//! Dynamic energy on a parallel bus or NoC channel is proportional to the
//! number of wires that switch between consecutive transfers (the activity
//! factor α in P = αCV²f). [`ChannelToggles`] tracks one physical channel:
//! it remembers the last flit transmitted and counts bit transitions against
//! each new flit. [`ToggleStats::packet`] counts one packet on a channel
//! whose wires rest at an idle flit between packets, which needs no
//! history at all.

use crate::hamming;

/// Aggregated toggle statistics for one or more channels.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ToggleStats {
    /// Number of flits transferred (excluding the priming flit per channel).
    pub transfers: u64,
    /// Total wire transitions observed.
    pub bit_toggles: u64,
    /// Total wire-slots observed (`transfers * flit_bits`).
    pub bit_slots: u64,
}

impl ToggleStats {
    /// Toggles of one packet on a channel whose wires rest at the all-`idle`
    /// flit between packets: `data` leaves as `flit_bytes`-wide flits (the
    /// last one zero-padded) and the wires return to idle after it. The
    /// transition from idle into the first flit counts only when
    /// `from_idle`; a channel's very first flit primes its wires instead.
    ///
    /// Because every packet starts and ends at the same idle flit, a
    /// channel's toggle count is the sum of this over its packets: on a
    /// [`ChannelToggles`] that has sent a packet and then idled, sending
    /// `data` flit by flit with [`ChannelToggles::send`] and idling again
    /// with [`ChannelToggles::send_splat`] adds exactly
    /// `ToggleStats::packet(data, flit_bytes, idle, true)`, and on a fresh
    /// counter exactly the `from_idle = false` value. An empty packet
    /// sends nothing.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero.
    pub fn packet(data: &[u8], flit_bytes: usize, idle: u8, from_idle: bool) -> Self {
        assert!(flit_bytes > 0, "flit size must be non-zero");
        // Zero-padded tail wires against idle ones.
        let pad = |len: usize| (flit_bytes - len) as u64 * u64::from(idle.count_ones());
        let mut flits = data.chunks(flit_bytes);
        let Some(first) = flits.next() else {
            return Self::default();
        };
        let mut bit_toggles = if from_idle {
            hamming::distance_to_splat(first, idle) + pad(first.len())
        } else {
            0
        };
        let mut transfers = u64::from(from_idle);
        let mut prev = first;
        for flit in flits {
            // `prev` is full-width (only the last chunk can be short), so
            // a short flit's zero-padded tail costs `prev`'s tail weight.
            bit_toggles += hamming::distance_bytes(&prev[..flit.len()], flit)
                + hamming::weight_bytes(&prev[flit.len()..]);
            transfers += 1;
            prev = flit;
        }
        bit_toggles += hamming::distance_to_splat(prev, idle) + pad(prev.len());
        transfers += 1;
        Self {
            transfers,
            bit_toggles,
            bit_slots: transfers * flit_bytes as u64 * 8,
        }
    }

    /// Fraction of wire-slots that toggled, in `[0, 1]`; 0.0 when empty.
    pub fn toggle_rate(&self) -> f64 {
        if self.bit_slots == 0 {
            0.0
        } else {
            self.bit_toggles as f64 / self.bit_slots as f64
        }
    }
}

impl core::ops::Add for ToggleStats {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            transfers: self.transfers + rhs.transfers,
            bit_toggles: self.bit_toggles + rhs.bit_toggles,
            bit_slots: self.bit_slots + rhs.bit_slots,
        }
    }
}

impl core::ops::AddAssign for ToggleStats {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl core::iter::Sum for ToggleStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

/// Toggle counter for a single physical channel with a fixed flit size.
///
/// The first flit primes the wires and does not count as a transfer (the
/// channel state before the first observed flit is unknown).
///
/// # Example
///
/// ```
/// use bvf_bits::ChannelToggles;
///
/// let mut ch = ChannelToggles::new(4); // 4-byte flits
/// ch.send(&[0x00, 0x00, 0x00, 0x00]);
/// ch.send(&[0xff, 0x00, 0x00, 0x00]); // 8 wires toggle
/// let s = ch.stats();
/// assert_eq!(s.transfers, 1);
/// assert_eq!(s.bit_toggles, 8);
/// assert_eq!(s.bit_slots, 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelToggles {
    flit_bytes: usize,
    /// Wire state after the most recent flit (always `flit_bytes` long;
    /// all-zero until primed). Updated in place — `send` never allocates.
    last: Vec<u8>,
    primed: bool,
    stats: ToggleStats,
}

impl ChannelToggles {
    /// Create a counter for a channel carrying `flit_bytes`-byte flits.
    ///
    /// # Panics
    ///
    /// Panics if `flit_bytes` is zero.
    pub fn new(flit_bytes: usize) -> Self {
        assert!(flit_bytes > 0, "flit size must be non-zero");
        Self {
            flit_bytes,
            last: vec![0u8; flit_bytes],
            primed: false,
            stats: ToggleStats::default(),
        }
    }

    /// Flit size in bytes.
    pub fn flit_bytes(&self) -> usize {
        self.flit_bytes
    }

    /// Transmit one flit. Flits shorter than the channel width are
    /// zero-padded (tail wires idle at 0), mirroring partially filled flits.
    ///
    /// # Panics
    ///
    /// Panics if `flit` is longer than the channel width.
    pub fn send(&mut self, flit: &[u8]) {
        assert!(
            flit.len() <= self.flit_bytes,
            "flit ({}B) exceeds channel width ({}B)",
            flit.len(),
            self.flit_bytes
        );
        if self.primed {
            // Distance to the zero-padded flit, without materializing the
            // padding: the tail wires drop to 0, so they contribute exactly
            // the weight of the previous tail.
            self.stats.transfers += 1;
            self.stats.bit_toggles += hamming::distance_bytes(&self.last[..flit.len()], flit)
                + hamming::weight_bytes(&self.last[flit.len()..]);
            self.stats.bit_slots += self.flit_bytes as u64 * 8;
        }
        self.last[..flit.len()].copy_from_slice(flit);
        self.last[flit.len()..].fill(0);
        self.primed = true;
    }

    /// Transmit one full-width flit whose every byte is `byte` (e.g. the
    /// all-ones idle pattern of a precharged bus) without building it.
    pub fn send_splat(&mut self, byte: u8) {
        if self.primed {
            self.stats.transfers += 1;
            self.stats.bit_toggles += hamming::distance_to_splat(&self.last, byte);
            self.stats.bit_slots += self.flit_bytes as u64 * 8;
        }
        self.last.fill(byte);
        self.primed = true;
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> ToggleStats {
        self.stats
    }

    /// Clear history and statistics while keeping the flit size.
    pub fn reset(&mut self) {
        self.last.fill(0);
        self.primed = false;
        self.stats = ToggleStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_flits_do_not_toggle() {
        let mut ch = ChannelToggles::new(8);
        for _ in 0..10 {
            ch.send(&[0xaa; 8]);
        }
        assert_eq!(ch.stats().bit_toggles, 0);
        assert_eq!(ch.stats().transfers, 9);
    }

    #[test]
    fn alternating_flits_toggle_everything() {
        let mut ch = ChannelToggles::new(2);
        ch.send(&[0x00, 0x00]);
        ch.send(&[0xff, 0xff]);
        ch.send(&[0x00, 0x00]);
        let s = ch.stats();
        assert_eq!(s.bit_toggles, 32);
        assert!((s.toggle_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn short_flits_are_zero_padded() {
        let mut ch = ChannelToggles::new(4);
        ch.send(&[0xff]); // wires: ff 00 00 00
        ch.send(&[]); // wires: 00 00 00 00 → 8 toggles
        assert_eq!(ch.stats().bit_toggles, 8);
    }

    #[test]
    #[should_panic(expected = "exceeds channel width")]
    fn oversized_flit_panics() {
        let mut ch = ChannelToggles::new(2);
        ch.send(&[0, 0, 0]);
    }

    #[test]
    fn reset_clears_history() {
        let mut ch = ChannelToggles::new(1);
        ch.send(&[0xff]);
        ch.send(&[0x00]);
        ch.reset();
        assert_eq!(ch.stats(), ToggleStats::default());
        ch.send(&[0xff]); // priming flit again — no transfer counted
        assert_eq!(ch.stats().transfers, 0);
    }

    #[test]
    fn splat_matches_explicit_flit() {
        let mut a = ChannelToggles::new(4);
        let mut b = ChannelToggles::new(4);
        for (flit, idle) in [([0x12u8, 0x34, 0x56, 0x78], 0xff), ([0; 4], 0x00)] {
            a.send(&flit);
            a.send_splat(idle);
            b.send(&flit);
            b.send(&[idle; 4]);
        }
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn send_never_depends_on_history_representation(
            flits: Vec<[u8; 8]>,
            cut in 0usize..8,
        ) {
            // Short flits zero-pad; a shortened resend must equal sending
            // the explicitly padded flit.
            let mut short = ChannelToggles::new(8);
            let mut padded = ChannelToggles::new(8);
            for f in &flits {
                let mut p = [0u8; 8];
                p[..cut].copy_from_slice(&f[..cut]);
                short.send(&f[..cut]);
                padded.send(&p);
            }
            prop_assert_eq!(short.stats(), padded.stats());
        }

        #[test]
        fn packets_sum_to_the_channel_count(
            lines: Vec<Vec<u8>>,
            flit_sel in 0usize..4,
            idle: u8,
        ) {
            // Per-packet counts against the resting idle flit must add up
            // to one channel counter fed every packet flit by flit, each
            // followed by the idle return; empty packets send nothing.
            let fb = [1, 3, 8, 32][flit_sel];
            let mut channel = ChannelToggles::new(fb);
            let mut summed = ToggleStats::default();
            let mut carried = false;
            for line in &lines {
                summed += ToggleStats::packet(line, fb, idle, carried);
                if !line.is_empty() {
                    for flit in line.chunks(fb) {
                        channel.send(flit);
                    }
                    channel.send_splat(idle);
                    carried = true;
                }
                prop_assert_eq!(summed, channel.stats());
            }
        }

        #[test]
        fn toggle_rate_in_unit_interval(flits: Vec<[u8; 4]>) {
            let mut ch = ChannelToggles::new(4);
            for f in &flits {
                ch.send(f);
            }
            let r = ch.stats().toggle_rate();
            prop_assert!((0.0..=1.0).contains(&r));
        }

        #[test]
        fn transfers_is_sends_minus_one(flits: Vec<[u8; 2]>) {
            prop_assume!(!flits.is_empty());
            let mut ch = ChannelToggles::new(2);
            for f in &flits {
                ch.send(f);
            }
            prop_assert_eq!(ch.stats().transfers, flits.len() as u64 - 1);
        }
    }
}
