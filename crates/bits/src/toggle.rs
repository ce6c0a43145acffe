//! Toggle-rate accounting for on-chip interconnect channels.
//!
//! Dynamic energy on a parallel bus or NoC channel is proportional to the
//! number of wires that switch between consecutive transfers (the activity
//! factor α in P = αCV²f). [`ChannelToggles`] tracks one physical channel:
//! it remembers the last flit transmitted and counts bit transitions against
//! each new flit.

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

    /// Transmit a whole line as consecutive flits in one batched pass —
    /// bit-identical to calling [`ChannelToggles::send`] on every
    /// `flit_bytes`-sized chunk of `data` (the final chunk may be short and
    /// zero-pads, as usual), but without copying each intermediate flit into
    /// the wire-state buffer: toggles between in-line neighbors are computed
    /// directly on `data`, and only the final flit lands in `last`.
    ///
    /// Sending an empty line is a no-op (no flits).
    pub fn send_line(&mut self, data: &[u8]) {
        let fb = self.flit_bytes;
        let mut prev: Option<&[u8]> = None;
        for flit in data.chunks(fb) {
            match prev {
                None => {
                    // First flit toggles against the stored wire state.
                    if self.primed {
                        self.stats.transfers += 1;
                        self.stats.bit_toggles +=
                            hamming::distance_bytes(&self.last[..flit.len()], flit)
                                + hamming::weight_bytes(&self.last[flit.len()..]);
                        self.stats.bit_slots += fb as u64 * 8;
                    }
                }
                Some(p) => {
                    // In-line neighbor: `p` is always full-width (only the
                    // last chunk can be short), so the zero-padded tail of a
                    // short `flit` contributes `p`'s tail weight.
                    self.stats.transfers += 1;
                    self.stats.bit_toggles += hamming::distance_bytes(&p[..flit.len()], flit)
                        + hamming::weight_bytes(&p[flit.len()..]);
                    self.stats.bit_slots += fb as u64 * 8;
                }
            }
            prev = Some(flit);
        }
        if let Some(flit) = prev {
            self.last[..flit.len()].copy_from_slice(flit);
            self.last[flit.len()..].fill(0);
            self.primed = true;
        }
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
        fn send_line_matches_per_flit_sends(lines: Vec<Vec<u8>>, idle_every in 0usize..4) {
            // Batched whole-line sends must be bit-identical to the scalar
            // per-flit path, across partial tail flits and interleaved idle
            // returns (the NoC packet sequence the collector produces).
            let mut batched = ChannelToggles::new(8);
            let mut scalar = ChannelToggles::new(8);
            for (i, line) in lines.iter().enumerate() {
                batched.send_line(line);
                for flit in line.chunks(8) {
                    scalar.send(flit);
                }
                if idle_every > 0 && i % idle_every == 0 {
                    batched.send_splat(0xff);
                    scalar.send_splat(0xff);
                }
                prop_assert_eq!(&batched, &scalar);
            }
            prop_assert_eq!(batched.stats(), scalar.stats());
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
