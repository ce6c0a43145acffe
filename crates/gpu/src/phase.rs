//! Per-phase wall-time attribution for a kernel launch.
//!
//! When a [`bvf_obs::MetricsSink`] is installed on the [`crate::Gpu`]
//! (see [`crate::Gpu::set_metrics`]), the simulator opens cheap spans
//! around its phases — warp stepping, the instruction-fetch path, the
//! data-memory path, statistics collection, the end-of-launch DRAM drain,
//! launch setup and teardown — and folds them into a [`PhaseProfile`] on
//! the returned [`crate::TraceSummary`]. The raw spans nest (statistics
//! collection runs *inside* the fetch and memory paths, which run inside a
//! warp step), so the profile reports **self time**: the slices are
//! disjoint and sum to the launch wall time. Profiling never changes
//! simulation results — it only measures where the simulator's own time
//! goes.

use bvf_obs::{CounterId, MetricsSink, Recorder, TimerId};

/// A disjoint slice of a launch's wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Warp decode/execute/scheduling — step time minus the fetch and
    /// memory callbacks.
    Exec,
    /// Instruction fetch: L1I/L2 probes and NoC traffic, minus the
    /// collector time spent on that path.
    Ifetch,
    /// Data memory: global/shared accesses, coalescing, L1/L2 probes and
    /// DRAM enqueues, minus the collector time spent on that path.
    DataMemory,
    /// Multi-view statistics collection on the instruction path.
    StatsInstr,
    /// Multi-view statistics collection on the data path.
    StatsData,
    /// End-of-launch FR-FCFS DRAM channel drain.
    DramDrain,
    /// Launch setup and teardown: acquiring the collector, then per SM
    /// resetting the caches and sharing the prepared memory image, then
    /// replaying the store log, sorting touched lines and finishing the
    /// collector. Events count the SMs set up, a total every shard split
    /// of a launch agrees on.
    Setup,
    /// The residual of launch wall time no phase above attributes.
    Other,
}

impl Phase {
    /// Stable lowercase name (used in tables and telemetry records).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Exec => "exec",
            Phase::Ifetch => "ifetch",
            Phase::DataMemory => "data_memory",
            Phase::StatsInstr => "stats_instr",
            Phase::StatsData => "stats_data",
            Phase::DramDrain => "dram_drain",
            Phase::Setup => "setup",
            Phase::Other => "other",
        }
    }
}

impl core::fmt::Display for Phase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One phase's share of a launch (or of an aggregate of launches).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSlice {
    /// Which phase.
    pub phase: Phase,
    /// Self time in nanoseconds (disjoint from every other slice).
    pub nanos: u64,
    /// Number of events attributed to the phase (instructions for `exec`,
    /// fetches for `ifetch`, accesses for `data_memory`, collector calls
    /// for the stats phases, DRAM requests for `dram_drain`, SMs set up for
    /// `setup`).
    pub events: u64,
}

/// Where a launch's wall time went, by phase. Empty (no slices) when the
/// GPU has no metrics sink installed — the common, uninstrumented case.
///
/// Profiles are *excluded* from [`crate::TraceSummary`] equality: two runs
/// of the same workload are the same result however the simulator's own
/// time was spent.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseProfile {
    /// Total launch wall time in nanoseconds (0 when disabled).
    pub launch_nanos: u64,
    /// Disjoint self-time slices, in fixed [`Phase`] order; they sum to
    /// `launch_nanos` (modulo clock granularity).
    pub slices: Vec<PhaseSlice>,
}

impl PhaseProfile {
    /// The disabled (un-profiled) profile.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Was this launch profiled?
    pub fn is_enabled(&self) -> bool {
        !self.slices.is_empty()
    }

    /// The slice for `phase`, if profiling was enabled.
    pub fn slice(&self, phase: Phase) -> Option<&PhaseSlice> {
        self.slices.iter().find(|s| s.phase == phase)
    }

    /// Accumulate another profile into this one (summing nanos and events
    /// phase-wise). Merging an empty profile is a no-op; merging into an
    /// empty profile adopts the other side.
    pub fn merge(&mut self, other: &PhaseProfile) {
        if other.slices.is_empty() {
            return;
        }
        if self.slices.is_empty() {
            *self = other.clone();
            return;
        }
        self.launch_nanos += other.launch_nanos;
        for (a, b) in self.slices.iter_mut().zip(&other.slices) {
            debug_assert_eq!(a.phase, b.phase, "profiles share the fixed phase order");
            a.nanos += b.nanos;
            a.events += b.events;
        }
    }

    /// Build the disjoint profile from a launch recorder's local values
    /// (must be called before the recorder flushes).
    pub(crate) fn from_recorder(rec: &Recorder, m: &SimMetrics) -> Self {
        if !rec.is_enabled() {
            return Self::empty();
        }
        let launch = rec.timer_nanos(m.launch);
        let step = rec.timer_nanos(m.step);
        let ifetch = rec.timer_nanos(m.ifetch);
        let gmem = rec.timer_nanos(m.gmem);
        let smem = rec.timer_nanos(m.smem);
        let stats_instr = rec.timer_nanos(m.stats_instr);
        let stats_data = rec.timer_nanos(m.stats_data);
        let dram = rec.timer_nanos(m.dram);
        let setup = rec.timer_nanos(m.setup);
        let slices = vec![
            PhaseSlice {
                phase: Phase::Exec,
                nanos: step.saturating_sub(ifetch + gmem + smem),
                events: rec.timer_count(m.step),
            },
            PhaseSlice {
                phase: Phase::Ifetch,
                nanos: ifetch.saturating_sub(stats_instr),
                events: rec.timer_count(m.ifetch),
            },
            PhaseSlice {
                phase: Phase::DataMemory,
                nanos: (gmem + smem).saturating_sub(stats_data),
                events: rec.timer_count(m.gmem) + rec.timer_count(m.smem),
            },
            PhaseSlice {
                phase: Phase::StatsInstr,
                nanos: stats_instr,
                events: rec.timer_count(m.stats_instr),
            },
            PhaseSlice {
                phase: Phase::StatsData,
                nanos: stats_data,
                events: rec.timer_count(m.stats_data),
            },
            PhaseSlice {
                phase: Phase::DramDrain,
                nanos: dram,
                events: rec.counter_value(m.dram_requests),
            },
            PhaseSlice {
                phase: Phase::Setup,
                nanos: setup,
                events: rec.timer_count(m.setup),
            },
            PhaseSlice {
                phase: Phase::Other,
                nanos: launch.saturating_sub(step + dram + setup),
                events: 0,
            },
        ];
        Self {
            launch_nanos: launch,
            slices,
        }
    }
}

/// The simulator's registered metric ids. Registration is idempotent per
/// sink, so building this per launch is cheap; on a disabled sink every id
/// is a dummy and every use a no-op.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimMetrics {
    pub launch: TimerId,
    pub step: TimerId,
    pub ifetch: TimerId,
    pub gmem: TimerId,
    pub smem: TimerId,
    pub stats_instr: TimerId,
    pub stats_data: TimerId,
    pub dram: TimerId,
    pub setup: TimerId,
    pub reg_events: CounterId,
    pub smem_events: CounterId,
    pub instr_events: CounterId,
    pub line_events: CounterId,
    pub noc_packets: CounterId,
    pub noc_flits: CounterId,
    pub dram_requests: CounterId,
}

impl SimMetrics {
    pub fn register(sink: &MetricsSink) -> Self {
        Self {
            launch: sink.timer("sim.launch"),
            step: sink.timer("sim.step"),
            ifetch: sink.timer("sim.ifetch"),
            gmem: sink.timer("sim.global_mem"),
            smem: sink.timer("sim.shared_mem"),
            stats_instr: sink.timer("stats.instr_path"),
            stats_data: sink.timer("stats.data_path"),
            dram: sink.timer("dram.drain"),
            setup: sink.timer("sim.setup"),
            reg_events: sink.counter("stats.reg_events"),
            smem_events: sink.counter("stats.smem_events"),
            instr_events: sink.counter("stats.instr_events"),
            line_events: sink.counter("stats.line_events"),
            noc_packets: sink.counter("noc.packets"),
            noc_flits: sink.counter("noc.flits"),
            dram_requests: sink.counter("dram.requests"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_is_disabled() {
        let p = PhaseProfile::empty();
        assert!(!p.is_enabled());
        assert_eq!(p.slice(Phase::Exec), None);
    }

    #[test]
    fn merge_accumulates_phase_wise() {
        let mk = |n: u64| PhaseProfile {
            launch_nanos: n * 10,
            slices: vec![
                PhaseSlice {
                    phase: Phase::Exec,
                    nanos: n,
                    events: n / 2,
                },
                PhaseSlice {
                    phase: Phase::Other,
                    nanos: 9 * n,
                    events: 0,
                },
            ],
        };
        let mut a = PhaseProfile::empty();
        a.merge(&mk(4)); // adopt
        a.merge(&mk(6)); // accumulate
        a.merge(&PhaseProfile::empty()); // no-op
        assert_eq!(a.launch_nanos, 100);
        let exec = a.slice(Phase::Exec).unwrap();
        assert_eq!(exec.nanos, 10);
        assert_eq!(exec.events, 5);
        assert_eq!(a.slice(Phase::Other).unwrap().nanos, 90);
    }

    #[test]
    fn disabled_sink_yields_empty_profile() {
        let sink = MetricsSink::disabled();
        let m = SimMetrics::register(&sink);
        let rec = sink.recorder();
        assert!(!PhaseProfile::from_recorder(&rec, &m).is_enabled());
    }

    #[test]
    fn slices_are_disjoint_and_sum_to_launch() {
        let sink = MetricsSink::enabled();
        let m = SimMetrics::register(&sink);
        let mut rec = sink.recorder();
        // Simulate a nested launch: launch ⊃ step ⊃ ifetch ⊃ stats_instr.
        let launch = rec.begin(m.launch);
        let step = rec.begin(m.step);
        let ifetch = rec.begin(m.ifetch);
        let si = rec.begin(m.stats_instr);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.end(si);
        rec.end(ifetch);
        rec.end(step);
        rec.end(launch);
        let p = PhaseProfile::from_recorder(&rec, &m);
        assert!(p.is_enabled());
        let total: u64 = p.slices.iter().map(|s| s.nanos).sum();
        // Disjoint slices reassemble the launch (clock reads are ordered,
        // so saturating subtraction never clips here).
        assert!(
            total <= p.launch_nanos,
            "slices ({total}) exceed launch ({})",
            p.launch_nanos
        );
        assert!(p.slice(Phase::StatsInstr).unwrap().nanos >= 2_000_000);
        assert_eq!(p.slice(Phase::Exec).unwrap().events, 1);
    }

    #[test]
    fn phase_names_are_stable() {
        let all = [
            Phase::Exec,
            Phase::Ifetch,
            Phase::DataMemory,
            Phase::StatsInstr,
            Phase::StatsData,
            Phase::DramDrain,
            Phase::Setup,
            Phase::Other,
        ];
        let names: Vec<_> = all.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "exec",
                "ifetch",
                "data_memory",
                "stats_instr",
                "stats_data",
                "dram_drain",
                "setup",
                "other"
            ]
        );
    }
}
