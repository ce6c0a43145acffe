//! Crossbar NoC between SMs and L2 banks.
//!
//! Packets consist of a small header (command, addresses, ids — never
//! coded) and an optional data payload (a cache line or store data — coded
//! per view). Each (endpoint, direction) pair is a physical channel whose
//! wires toggle between consecutive flits; the per-view toggle accounting
//! itself lives in [`crate::stats::StatsCollector`], this module assigns
//! stable channel ids and packet layouts.
//!
//! # Channel / flit model
//!
//! Every channel is two physical sub-channels:
//!
//! * **Sideband (control) wires**, [`HEADER_BYTES`] wide. The raw header
//!   travels here in one flit per packet and is never coded — addresses
//!   and ids must stay machine-readable at the router.
//! * **Data wires**, `flit_bytes` wide. The payload is chunked into
//!   `ceil(payload / flit_bytes)` flits (the tail flit zero-pads), each
//!   coded per view; after the last payload flit the data wires return to
//!   the precharged all-ones idle state.
//!
//! A packet thus occupies one sideband header flit plus its payload flits
//! (a header-only request is one flit; a 128B line at 32B flits is five).
//! The idle return is a wire transition, not an occupied flit, so it counts
//! toward toggle energy but not link utilization. Within the collector each
//! channel keeps its sideband toggle history apart from the data wires',
//! whose packets are counted one at a time from the idle state.

/// Bytes of header prepended to every NoC packet (command + address + ids).
pub const HEADER_BYTES: usize = 16;

/// Channel-id bit distinguishing reply channels from request channels.
pub const REPLY_TAG: u32 = 1 << 28;

/// Endpoint ids (SM or L2-bank index) must fit below the direction tag.
pub const ENDPOINT_BITS: u32 = 28;

/// Bits of a reply-channel endpoint reserved for the L2-bank index (the
/// SM index occupies the bits above). 256 banks is far beyond any
/// configuration; the SM id still gets 20 bits.
pub const BANK_BITS: u32 = 8;

/// Direction of travel through the crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// SM → L2-bank request channel.
    Request,
    /// L2-bank → SM reply channel.
    Reply,
}

/// Stable channel id for an endpoint pair. Requests are serialized on the
/// source SM's injection port; replies travel the dedicated (bank → SM)
/// wires through the crossbar switch, so each (SM, bank) pair is its own
/// reply channel. Because every SM owns a private slice of the L2 (the
/// bank state is per-SM), a reply channel's toggle history involves
/// exactly one SM — which is what lets a launch shard over an SM range
/// reproduce the unsharded NoC statistics exactly.
///
/// Ids are disjoint by construction as tagged bit-fields: bits
/// `0..ENDPOINT_BITS` carry the endpoint index (for replies, the SM index
/// above [`BANK_BITS`] bank bits) and bit 28 ([`REPLY_TAG`]) the
/// direction — so no request or reply id can alias another regardless of
/// SM/bank counts.
///
/// # Panics
///
/// Panics if the endpoint index does not fit in [`ENDPOINT_BITS`] bits, or
/// if a reply's bank index does not fit in [`BANK_BITS`] bits.
pub fn channel_id(sm: u32, l2_bank: u32, dir: Direction) -> u32 {
    let (endpoint, tag) = match dir {
        Direction::Request => (sm, 0),
        Direction::Reply => {
            assert!(
                l2_bank < (1 << BANK_BITS),
                "bank id {l2_bank} exceeds {BANK_BITS}-bit reply-channel field"
            );
            ((sm << BANK_BITS) | l2_bank, REPLY_TAG)
        }
    };
    assert!(
        endpoint < (1 << ENDPOINT_BITS),
        "endpoint id {endpoint} exceeds {ENDPOINT_BITS}-bit channel field"
    );
    endpoint | tag
}

/// Build a request/reply header. The layout is fixed and deterministic so
/// header toggles are realistic: command byte, SM/bank/warp id low bytes,
/// 8-byte address, then the id high bytes (ids are 16-bit fields split so
/// the common small-id case keeps its byte positions).
///
/// # Panics
///
/// Panics if an id exceeds 16 bits — a wider id would silently alias
/// another endpoint in the header and corrupt toggle accounting.
pub fn header(cmd: u8, sm: u32, bank: u32, addr: u64, warp: u32) -> [u8; HEADER_BYTES] {
    assert!(
        sm <= 0xffff && bank <= 0xffff && warp <= 0xffff,
        "header id out of 16-bit range (sm {sm}, bank {bank}, warp {warp})"
    );
    let mut h = [0u8; HEADER_BYTES];
    h[0] = cmd;
    h[1] = sm as u8;
    h[2] = bank as u8;
    h[3] = warp as u8;
    h[4..12].copy_from_slice(&addr.to_le_bytes());
    h[12] = (sm >> 8) as u8;
    h[13] = (bank >> 8) as u8;
    h[14] = (warp >> 8) as u8;
    // byte 15 reserved (zero)
    h
}

/// Command encodings for the header byte.
pub mod cmd {
    /// Read request (no payload).
    pub const READ_REQ: u8 = 0x01;
    /// Write request (carries store payload).
    pub const WRITE_REQ: u8 = 0x02;
    /// Read reply (carries line payload).
    pub const READ_REPLY: u8 = 0x81;
    /// Instruction fetch request.
    pub const IFETCH_REQ: u8 = 0x03;
    /// Instruction fetch reply (carries instruction payload).
    pub const IFETCH_REPLY: u8 = 0x83;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn channels_are_stable_and_disjoint() {
        assert_eq!(
            channel_id(3, 5, Direction::Request),
            channel_id(3, 0, Direction::Request),
            "requests serialize on the SM port"
        );
        assert_ne!(
            channel_id(3, 5, Direction::Request),
            channel_id(3, 5, Direction::Reply)
        );
        assert_ne!(
            channel_id(0, 0, Direction::Reply),
            channel_id(0, 1, Direction::Reply)
        );
        // Replies are per (SM, bank) pair: two SMs reading through the same
        // bank must not share a toggle history, or a launch shard's NoC
        // statistics would depend on which other SMs ran alongside it.
        assert_ne!(
            channel_id(0, 1, Direction::Reply),
            channel_id(1, 1, Direction::Reply)
        );
    }

    #[test]
    fn large_sm_ids_do_not_alias_reply_channels() {
        // The pre-tagged scheme (`1000 + bank`) aliased SM 1000's request
        // channel with bank 0's reply channel; tagged bit-fields cannot.
        assert_ne!(
            channel_id(1000, 0, Direction::Request),
            channel_id(0, 0, Direction::Reply)
        );
        assert_ne!(
            channel_id(1001, 0, Direction::Request),
            channel_id(0, 1, Direction::Reply)
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 28-bit channel field")]
    fn oversized_endpoint_rejected() {
        let _ = channel_id(1 << ENDPOINT_BITS, 0, Direction::Request);
    }

    #[test]
    fn header_roundtrips_address() {
        let h = header(cmd::READ_REQ, 7, 2, 0xdead_beef_cafe, 11);
        assert_eq!(h[0], cmd::READ_REQ);
        assert_eq!(
            u64::from_le_bytes(h[4..12].try_into().unwrap()),
            0xdead_beef_cafe
        );
    }

    #[test]
    fn header_keeps_wide_ids_distinct() {
        // Regression: ids ≥ 256 used to truncate to `as u8`, so SM 1 and
        // SM 257 produced byte-identical headers.
        let a = header(cmd::READ_REQ, 1, 0, 0x1000, 0);
        let b = header(cmd::READ_REQ, 257, 0, 0x1000, 0);
        assert_ne!(a, b);
        let roundtrip =
            |h: &[u8; HEADER_BYTES], lo: usize, hi: usize| u32::from(h[lo]) | u32::from(h[hi]) << 8;
        let h = header(cmd::WRITE_REQ, 300, 515, 0xabcd, 999);
        assert_eq!(roundtrip(&h, 1, 12), 300);
        assert_eq!(roundtrip(&h, 2, 13), 515);
        assert_eq!(roundtrip(&h, 3, 14), 999);
    }

    #[test]
    fn header_layout_unchanged_for_small_ids() {
        // Ids < 256 must keep the original byte placement (high bytes all
        // zero) so existing toggle statistics are unaffected.
        let h = header(cmd::READ_REPLY, 5, 3, 0x42, 7);
        assert_eq!(&h[12..16], &[0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of 16-bit range")]
    fn oversized_header_id_rejected() {
        let _ = header(cmd::READ_REQ, 0x1_0000, 0, 0, 0);
    }

    proptest! {
        /// Tagged bit-fields make every (endpoint, direction) channel id
        /// unique.
        #[test]
        fn channel_ids_disjoint_by_construction(
            sm in 0u32..(1 << (ENDPOINT_BITS - BANK_BITS)),
            bank in 0u32..(1 << BANK_BITS),
        ) {
            let req = channel_id(sm, bank, Direction::Request);
            let rep = channel_id(sm, bank, Direction::Reply);
            prop_assert_ne!(req, rep);
            // Direction is recoverable from the tag alone.
            prop_assert_eq!(req & REPLY_TAG, 0);
            prop_assert_eq!(rep & REPLY_TAG, REPLY_TAG);
        }

        /// The header embeds (cmd, sm, bank, warp, addr) injectively for
        /// all in-range ids.
        #[test]
        fn header_is_injective(
            sm in 0u32..=0xffff, bank in 0u32..=0xffff,
            warp in 0u32..=0xffff, addr: u64,
        ) {
            let h = header(cmd::READ_REQ, sm, bank, addr, warp);
            prop_assert_eq!(u32::from(h[1]) | u32::from(h[12]) << 8, sm);
            prop_assert_eq!(u32::from(h[2]) | u32::from(h[13]) << 8, bank);
            prop_assert_eq!(u32::from(h[3]) | u32::from(h[14]) << 8, warp);
            prop_assert_eq!(u64::from_le_bytes(h[4..12].try_into().unwrap()), addr);
        }
    }
}
