//! [`Persist`] impls for simulation results, so a [`TraceSummary`] can be
//! cached in the on-disk result store and restored bit-identically.
//!
//! Layouts are field-by-field in declaration order; any change here or to
//! the underlying structs must bump `bvf_sim::store::STORE_FORMAT_VERSION`
//! so stale entries re-key to misses instead of misparsing.
//!
//! The [`PhaseProfile`] is deliberately **not** persisted: it describes
//! where the *simulator's own* wall time went on the run that produced the
//! entry, which is meaningless for a cache hit. `TraceSummary`'s equality
//! already ignores it, so a restored summary still compares bit-identical
//! to a fresh simulation — the property the `--cache-verify` flag asserts.

use std::collections::BTreeMap;

use bvf_store::{CodecError, Persist, Reader, Writer};

use crate::phase::PhaseProfile;
use crate::sim::TraceSummary;
use crate::stats::{CodingView, UnitStats, ViewStats};
use crate::DramStats;

impl Persist for CodingView {
    fn persist(&self, w: &mut Writer) {
        w.str(&self.name);
        w.bool(self.nv);
        w.bool(self.vs);
        w.bool(self.isa);
        w.usize(self.vs_reg_pivot);
        w.u64(self.isa_mask);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            name: r.str()?,
            nv: r.bool()?,
            vs: r.bool()?,
            isa: r.bool()?,
            vs_reg_pivot: r.usize()?,
            isa_mask: r.u64()?,
        })
    }
}

impl Persist for UnitStats {
    fn persist(&self, w: &mut Writer) {
        w.u64(self.reads);
        w.u64(self.writes);
        w.u64(self.fills);
        self.read_bits.persist(w);
        self.write_bits.persist(w);
        self.fill_bits.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            reads: r.u64()?,
            writes: r.u64()?,
            fills: r.u64()?,
            read_bits: Persist::restore(r)?,
            write_bits: Persist::restore(r)?,
            fill_bits: Persist::restore(r)?,
        })
    }
}

impl Persist for ViewStats {
    fn persist(&self, w: &mut Writer) {
        self.view.persist(w);
        self.units.persist(w);
        self.noc.persist(w);
        w.u64(self.dummy_movs);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let view = CodingView::restore(r)?;
        let units = BTreeMap::restore(r)?;
        let noc = Persist::restore(r)?;
        let dummy_movs = r.u64()?;
        Ok(ViewStats::from_stored(view, units, noc, dummy_movs))
    }
}

impl Persist for DramStats {
    fn persist(&self, w: &mut Writer) {
        w.u64(self.requests);
        w.u64(self.row_hits);
        w.u64(self.busy_cycles);
        w.u64(self.reorders);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            requests: r.u64()?,
            row_hits: r.u64()?,
            busy_cycles: r.u64()?,
            reorders: r.u64()?,
        })
    }
}

impl Persist for TraceSummary {
    fn persist(&self, w: &mut Writer) {
        self.views.persist(w);
        w.u64(self.cycles);
        w.u64(self.dynamic_instructions);
        w.f64(self.l1d_hit_rate);
        w.f64(self.l2_hit_rate);
        self.narrow.persist(w);
        self.data_bits.persist(w);
        self.lane_profile.persist(w);
        w.usize(self.optimal_lane);
        self.utilization.persist(w);
        w.u64(self.smem_conflict_cycles);
        self.dram.persist(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            views: Vec::restore(r)?,
            cycles: r.u64()?,
            dynamic_instructions: r.u64()?,
            l1d_hit_rate: r.f64()?,
            l2_hit_rate: r.f64()?,
            narrow: Persist::restore(r)?,
            data_bits: Persist::restore(r)?,
            lane_profile: Persist::restore(r)?,
            optimal_lane: r.usize()?,
            utilization: BTreeMap::restore(r)?,
            smem_conflict_cycles: r.u64()?,
            dram: Persist::restore(r)?,
            profile: PhaseProfile::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gpu, GpuConfig};
    use bvf_isa::ir::{BufferId, Kernel, LaunchConfig, Op, Operand, Special, Stmt};

    /// The smallest real launch: a vector add on one SM, exercising
    /// registers, both cache paths, the NoC, and DRAM so every persisted
    /// field is non-trivial.
    fn tiny_summary() -> TraceSummary {
        let mut k = Kernel::new("persist_vecadd", 6);
        k.body.push(Stmt::op3(
            Op::Mov,
            0,
            Operand::Special(Special::GlobalTid),
            Operand::Imm(0),
        ));
        k.body.push(Stmt::op3(
            Op::LdGlobal(BufferId(0)),
            1,
            Operand::Reg(0),
            Operand::Imm(0),
        ));
        k.body
            .push(Stmt::op3(Op::IAdd, 2, Operand::Reg(1), Operand::Reg(1)));
        k.body.push(Stmt::op4(
            Op::StGlobal(BufferId(1)),
            0,
            Operand::Reg(0),
            Operand::Imm(0),
            Operand::Reg(2),
        ));
        let mut config = GpuConfig::baseline();
        config.sms = 1;
        let mut gpu = Gpu::new(config, CodingView::standard_set(0x00ff_00ff));
        let n = 256u32;
        gpu.memory_mut().add_buffer(
            BufferId(0),
            (0..n).map(|i| i.wrapping_mul(0x9e3779b9)).collect(),
        );
        gpu.memory_mut()
            .add_buffer(BufferId(1), vec![0; n as usize]);
        gpu.launch(&k, LaunchConfig::new(8, 32))
    }

    #[test]
    fn trace_summary_round_trips_bit_identically() {
        let summary = tiny_summary();
        let mut w = Writer::new();
        summary.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = TraceSummary::restore(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        // PartialEq on TraceSummary covers every simulated counter (it
        // ignores only the phase profile, which is not persisted).
        assert_eq!(back, summary);
        // And the re-encoding is byte-identical: content addressing over
        // encoded summaries is stable.
        let mut w2 = Writer::new();
        back.persist(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
    }

    fn encode(value: &impl Persist) -> Vec<u8> {
        let mut w = Writer::new();
        value.persist(&mut w);
        w.into_bytes()
    }

    /// Decoding `bytes` returns a value or an error; a panic fails the
    /// calling test.
    fn decode_never_panics(bytes: &[u8]) {
        let _ = TraceSummary::restore(&mut Reader::new(bytes));
    }

    #[test]
    fn truncated_summary_fails_to_decode() {
        let summary = tiny_summary();
        let mut w = Writer::new();
        summary.persist(&mut w);
        let bytes = w.into_bytes();
        let cut = bytes.len() / 2;
        assert!(TraceSummary::restore(&mut Reader::new(&bytes[..cut])).is_err());
    }

    // The store's checksum turns corrupt files into misses before they
    // reach these decoders, so the file-level tests never exercise them.
    // These feed the decoders directly.

    #[test]
    fn every_truncation_decodes_or_errs() {
        let bytes = encode(&tiny_summary());
        for cut in 0..bytes.len() {
            decode_never_panics(&bytes[..cut]);
        }
    }

    #[test]
    fn every_single_bit_flip_decodes_or_errs() {
        let mut bytes = encode(&tiny_summary());
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            decode_never_panics(&bytes);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_bytes_decode_or_err(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..4096),
        ) {
            decode_never_panics(&bytes);
        }
    }
}
