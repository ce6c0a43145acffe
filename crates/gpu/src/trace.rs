//! Trace dump and offline replay — the paper's original methodology.
//!
//! The paper's evaluation dumps every access of every BVF unit (up to tens
//! of GB per application) and post-processes the dump with a parser that
//! applies each coder. Our simulator folds statistics online instead, but
//! this module preserves the dump-and-parse pipeline:
//!
//! * [`TraceLog`] records the raw event stream a simulation produces;
//! * [`replay`] re-derives per-view statistics from a recorded stream.
//!
//! `tests` assert the two pipelines agree bit-for-bit, which is the
//! correctness argument for the online shortcut.

use bvf_core::Unit;

use crate::stats::{AccessKind, CodingView, StatsCollector, ViewStats};

/// One raw trace event, exactly as the simulator reported it (no coding
/// applied — the parser applies coders, as in the paper).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Register-file access: full warp contents + active mask.
    Reg {
        /// Access kind.
        kind: AccessKind,
        /// 32 lane values.
        lanes: Vec<u32>,
        /// Active-lane mask.
        active: u32,
    },
    /// Shared-memory access.
    Shared {
        /// Access kind.
        kind: AccessKind,
        /// 32 lane values.
        lanes: Vec<u32>,
        /// Active-lane mask.
        active: u32,
    },
    /// Line-granular data access at an L1/L2 unit.
    Line {
        /// Target unit.
        unit: Unit,
        /// Access kind.
        kind: AccessKind,
        /// Raw line content.
        data: Vec<u8>,
    },
    /// Single-instruction access (IFB / L1I hit).
    Instr {
        /// Target unit.
        unit: Unit,
        /// Access kind.
        kind: AccessKind,
        /// Raw instruction word.
        word: u64,
    },
    /// Instruction-line access (L1I fill / L2 instruction read).
    InstrLine {
        /// Target unit.
        unit: Unit,
        /// Access kind.
        kind: AccessKind,
        /// Raw instruction words.
        words: Vec<u64>,
    },
    /// NoC packet.
    Noc {
        /// Channel id.
        channel: u32,
        /// Raw header bytes (never coded).
        header: Vec<u8>,
        /// Raw payload bytes.
        payload: Vec<u8>,
        /// Whether the payload is instruction-stream data.
        instruction: bool,
    },
    /// A VS dummy-mov re-encode event.
    DummyMov,
}

/// A recorded event stream.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceLog {
    /// Events in simulation order.
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Replay a recorded event stream through a fresh collector — the offline
/// "parser" of the paper's §5 — producing the same per-view statistics the
/// online pipeline computes during simulation.
///
/// # Panics
///
/// Panics if `views` is empty or an event carries a malformed lane vector.
pub fn replay(log: &TraceLog, views: Vec<CodingView>, flit_bytes: usize) -> Vec<ViewStats> {
    let mut collector = StatsCollector::new(views, flit_bytes);
    for event in &log.events {
        match event {
            TraceEvent::Reg {
                kind,
                lanes,
                active,
            } => {
                let lanes: [u32; 32] = lanes.as_slice().try_into().expect("32 lanes");
                collector.record_register(*kind, &lanes, *active);
            }
            TraceEvent::Shared {
                kind,
                lanes,
                active,
            } => {
                let lanes: [u32; 32] = lanes.as_slice().try_into().expect("32 lanes");
                collector.record_shared(*kind, &lanes, *active);
            }
            TraceEvent::Line { unit, kind, data } => {
                collector.record_line(*unit, *kind, data);
            }
            TraceEvent::Instr { unit, kind, word } => {
                collector.record_instruction(*unit, *kind, *word);
            }
            TraceEvent::InstrLine { unit, kind, words } => {
                collector.record_instruction_line(*unit, *kind, words);
            }
            TraceEvent::Noc {
                channel,
                header,
                payload,
                instruction,
            } => {
                collector.record_noc_packet(*channel, header, payload, *instruction);
            }
            TraceEvent::DummyMov => collector.record_dummy_mov(),
        }
    }
    collector.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::sim::Gpu;
    use bvf_isa::ir::{BufferId, Kernel, LaunchConfig, Op, Operand, Special, Stmt};

    fn run_logged() -> (TraceLog, Vec<ViewStats>, usize) {
        let mut k = Kernel::new("copy", 4);
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
        k.body.push(Stmt::op4(
            Op::StGlobal(BufferId(1)),
            0,
            Operand::Reg(0),
            Operand::Imm(0),
            Operand::Reg(1),
        ));
        let mut cfg = GpuConfig::baseline();
        cfg.sms = 2;
        let flit = cfg.noc_flit_bytes;
        let mut gpu = Gpu::new(cfg, CodingView::standard_set(0x0f0f));
        gpu.enable_trace_log();
        gpu.memory_mut()
            .add_buffer(BufferId(0), (0..512u32).map(|i| i * 3).collect());
        gpu.memory_mut().add_buffer(BufferId(1), vec![0; 512]);
        let summary = gpu.launch(&k, LaunchConfig::new(8, 64));
        let log = gpu.take_trace_log().expect("log was enabled");
        (log, summary.views, flit)
    }

    #[test]
    fn offline_replay_matches_online_statistics() {
        let (log, online, flit) = run_logged();
        assert!(!log.is_empty());
        let offline = replay(&log, CodingView::standard_set(0x0f0f), flit);
        assert_eq!(online.len(), offline.len());
        for (a, b) in online.iter().zip(&offline) {
            assert_eq!(a.view, b.view);
            assert_eq!(a.units, b.units, "view {}", a.view.name);
            assert_eq!(a.noc, b.noc, "view {}", a.view.name);
            assert_eq!(a.dummy_movs, b.dummy_movs);
        }
    }

    mod random_streams {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic value source for event payloads (the proptest shim
        /// samples the selector/seed pairs; the LCG expands them).
        struct Lcg(u64);

        impl Lcg {
            fn next(&mut self) -> u64 {
                self.0 = self
                    .0
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                self.0
            }

            fn kind(&mut self) -> AccessKind {
                match self.next() % 3 {
                    0 => AccessKind::Read,
                    1 => AccessKind::Write,
                    _ => AccessKind::Fill,
                }
            }
        }

        /// Feed one synthesized event into the online collector. Covers every
        /// [`TraceEvent`] variant, including degenerate payloads (empty,
        /// non-word-aligned, header-only NoC packets).
        fn drive(collector: &mut StatsCollector, sel: u8, seed: u64) {
            let mut r = Lcg(seed);
            match sel % 7 {
                0 | 1 => {
                    let mut lanes = [0u32; 32];
                    for l in &mut lanes {
                        *l = (r.next() >> 16) as u32;
                    }
                    let active = (r.next() >> 8) as u32;
                    let kind = r.kind();
                    if (sel % 7).is_multiple_of(2) {
                        collector.record_register(kind, &lanes, active);
                    } else {
                        collector.record_shared(kind, &lanes, active);
                    }
                }
                2 => {
                    // Lengths chosen to hit every line-path branch: empty,
                    // non-word-aligned pass-through (3, 5), odd word counts
                    // that exercise the SWAR tail word (20, 36, 100), and
                    // full cache lines.
                    let len = [0usize, 3, 5, 20, 36, 64, 100, 128][(r.next() % 8) as usize];
                    let mut data = vec![0u8; len];
                    for b in &mut data {
                        *b = (r.next() >> 24) as u8;
                    }
                    let unit = [Unit::L1d, Unit::L1c, Unit::L1t, Unit::L2][(r.next() % 4) as usize];
                    let kind = r.kind();
                    collector.record_line(unit, kind, &data);
                }
                3 => {
                    let unit = [Unit::Ifb, Unit::L1i][(r.next() % 2) as usize];
                    let kind = r.kind();
                    collector.record_instruction(unit, kind, r.next());
                }
                4 => {
                    let n = (r.next() % 17) as usize;
                    let words: Vec<u64> = (0..n).map(|_| r.next()).collect();
                    let unit = [Unit::L1i, Unit::L2][(r.next() % 2) as usize];
                    let kind = r.kind();
                    collector.record_instruction_line(unit, kind, &words);
                }
                5 => {
                    let channel = (r.next() % 4) as u32;
                    let header: Vec<u8> = if r.next().is_multiple_of(4) {
                        Vec::new()
                    } else {
                        (0..crate::noc::HEADER_BYTES)
                            .map(|_| (r.next() >> 32) as u8)
                            .collect()
                    };
                    // Payload lengths straddle flit boundaries (flit = 32):
                    // header-only, short single flits, partial tail flits
                    // (40 → 32+8, 100 → 3×32+4), non-word-aligned payloads
                    // that skip coding (7, 33), and full lines.
                    let len = [0usize, 7, 12, 33, 40, 64, 100, 128][(r.next() % 8) as usize];
                    let payload: Vec<u8> = (0..len).map(|_| (r.next() >> 40) as u8).collect();
                    let instruction = r.next().is_multiple_of(2);
                    collector.record_noc_packet(channel, &header, &payload, instruction);
                }
                _ => collector.record_dummy_mov(),
            }
        }

        proptest! {
            /// The optimized online collector and the offline dump-and-parse
            /// pipeline must agree bit-for-bit on arbitrary event streams —
            /// not just on streams real kernels happen to produce.
            #[test]
            fn replay_matches_online_for_random_event_streams(picks: Vec<(u8, u64)>) {
                let views = CodingView::standard_set(0x0123_4567_89ab_cdef);
                let flit = 32;
                let mut online = StatsCollector::new(views.clone(), flit).with_trace_log();
                for &(sel, seed) in &picks {
                    drive(&mut online, sel, seed);
                }
                let log = online.take_log().expect("log enabled");
                prop_assert_eq!(log.len(), picks.len());
                let offline = replay(&log, views, flit);
                prop_assert_eq!(online.finish(), offline);
            }
        }
    }
}
