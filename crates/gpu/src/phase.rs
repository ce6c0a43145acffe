//! Per-phase wall-time attribution for a kernel launch.
//!
//! When profiling is on (an enabled sink passed to
//! [`crate::Gpu::set_metrics`]), every launch runs one [`PhaseClock`],
//! which the simulator switches as it moves between phases, and returns
//! its [`PhaseProfile`] on the [`crate::LaunchShard`]; [`crate::merge_shards`]
//! adds the DRAM drain to the merged [`crate::TraceSummary`]'s profile. The
//! profile is the simulator's only report of its own time: callers turn it
//! into metrics timers or trace spans. Profiling never changes simulation
//! results.

use std::time::Instant;

/// A disjoint slice of a launch's wall time.
///
/// The clock is read only around bodies that are long against one read
/// of it (~45 ns): a line-granular body (a data line's cache and NoC
/// work, an L1I miss, a wave's CTA dispatch) gets its own slice, while a
/// word-granular one (an L1I hit, a register or shared-memory word, a
/// warp pick) stays in its caller's phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Warp decode and execute, outside the fetch-miss and memory
    /// callbacks: L1I hits, register events, warp picks and barrier
    /// releases included.
    Exec,
    /// Instruction fetch on an L1I miss: the L2 probe, the DRAM enqueue
    /// and the line's word events, outside its collector block. An L1I
    /// hit stays in `exec`.
    Ifetch,
    /// Data memory: global/shared accesses, coalescing, L1/L2 probes and
    /// DRAM enqueues, outside each line's collector block.
    DataMemory,
    /// Multi-view statistics collection on the instruction path: one
    /// slice per L1I miss for its NoC packets and line records.
    StatsInstr,
    /// Multi-view statistics collection on the data path: one slice per
    /// data line for its NoC packets and line records.
    StatsData,
    /// End-of-launch FR-FCFS DRAM channel drain.
    DramDrain,
    /// Launch setup and teardown: acquiring the collector, then per SM
    /// resetting the caches and sharing the prepared memory image, then
    /// replaying the store log, collecting touched lines and finishing the
    /// collector. Events count the SMs set up, a total every shard split
    /// of a launch agrees on.
    Setup,
    /// CTA dispatch: building a wave's warps and shared memory. Events
    /// count CTAs dispatched, summed over SMs, so every shard split of a
    /// launch agrees on them. Picks and barrier releases run in `exec`.
    Sched,
    /// The launch loop's own work between the phases above (per-SM
    /// bookkeeping and result assembly).
    Other,
}

impl Phase {
    /// Every phase, in profile order (`phase as usize` is the index).
    pub const ALL: [Phase; 9] = [
        Phase::Exec,
        Phase::Ifetch,
        Phase::DataMemory,
        Phase::StatsInstr,
        Phase::StatsData,
        Phase::DramDrain,
        Phase::Setup,
        Phase::Sched,
        Phase::Other,
    ];

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
            Phase::Sched => "sched",
            Phase::Other => "other",
        }
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
    /// L1I misses for `ifetch`, warp accesses for `data_memory`, collector
    /// calls for the stats phases, DRAM requests for `dram_drain`, SMs set
    /// up for `setup`, CTAs dispatched for `sched`).
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
    /// Disjoint self-time slices, in [`Phase::ALL`] order; they sum
    /// exactly to `launch_nanos`.
    pub slices: Vec<PhaseSlice>,
}

impl PhaseProfile {
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
}

#[cfg(test)]
thread_local! {
    /// Clock reads on this thread, counted by [`now`].
    static CLOCK_READS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Clock reads on this thread so far: a test counts a launch's reads as
/// the difference across it.
#[cfg(test)]
pub(crate) fn clock_reads() -> u64 {
    CLOCK_READS.with(std::cell::Cell::get)
}

/// The one clock read behind every [`PhaseClock`] switch.
fn now() -> Instant {
    #[cfg(test)]
    CLOCK_READS.with(|n| n.set(n.get() + 1));
    Instant::now()
}

/// One launch's phase clock: the phase the simulator is in, when it
/// entered it, and the time and events charged to each phase so far.
///
/// [`PhaseClock::switch`] reads the clock once and charges the time since
/// the previous switch to the phase being left, so every nanosecond of the
/// clock's life lands in exactly one slice. A disabled clock never reads
/// the clock and finishes as an empty profile.
pub(crate) struct PhaseClock {
    current: Phase,
    /// When `current` was entered; `None` on a disabled clock.
    since: Option<Instant>,
    nanos: [u64; Phase::ALL.len()],
    events: [u64; Phase::ALL.len()],
}

impl PhaseClock {
    /// A clock running in `phase` from now on, or a disabled one.
    pub fn start(enabled: bool, phase: Phase) -> Self {
        Self {
            current: phase,
            since: enabled.then(now),
            nanos: [0; Phase::ALL.len()],
            events: [0; Phase::ALL.len()],
        }
    }

    /// Enter `phase`, charging the time since the last switch to the phase
    /// being left. Returns the phase left, so a nested callee switches
    /// back to its caller's phase when it is done.
    #[inline]
    pub fn switch(&mut self, phase: Phase) -> Phase {
        let left = self.current;
        if let Some(since) = &mut self.since {
            let t = now();
            self.nanos[left as usize] += t.duration_since(*since).as_nanos() as u64;
            *since = t;
        }
        self.current = phase;
        left
    }

    /// Attribute `n` events to `phase`.
    #[inline]
    pub fn count(&mut self, phase: Phase, n: u64) {
        self.events[phase as usize] += n;
    }

    /// Close the current slice and fold the clock into a profile (empty
    /// when disabled).
    pub fn finish(mut self) -> PhaseProfile {
        if self.since.is_none() {
            return PhaseProfile::default();
        }
        self.switch(self.current);
        PhaseProfile {
            launch_nanos: self.nanos.iter().sum(),
            slices: Phase::ALL
                .iter()
                .map(|&phase| PhaseSlice {
                    phase,
                    nanos: self.nanos[phase as usize],
                    events: self.events[phase as usize],
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_is_disabled() {
        let p = PhaseProfile::default();
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
        let mut a = PhaseProfile::default();
        a.merge(&mk(4)); // adopt
        a.merge(&mk(6)); // accumulate
        a.merge(&PhaseProfile::default()); // no-op
        assert_eq!(a.launch_nanos, 100);
        let exec = a.slice(Phase::Exec).unwrap();
        assert_eq!(exec.nanos, 10);
        assert_eq!(exec.events, 5);
        assert_eq!(a.slice(Phase::Other).unwrap().nanos, 90);
    }

    #[test]
    fn disabled_sink_yields_empty_profile() {
        let before = clock_reads();
        let sink = bvf_obs::MetricsSink::disabled();
        let mut clock = PhaseClock::start(sink.is_enabled(), Phase::Setup);
        assert_eq!(clock.switch(Phase::Exec), Phase::Setup);
        assert_eq!(clock.switch(Phase::Ifetch), Phase::Exec);
        clock.count(Phase::Exec, 3);
        let p = clock.finish();
        assert_eq!(clock_reads(), before, "a disabled clock read the clock");
        assert!(!p.is_enabled());
        assert_eq!(p, PhaseProfile::default());
    }

    #[test]
    fn slices_sum_exactly_to_the_launch() {
        let before = clock_reads();
        let mut clock = PhaseClock::start(true, Phase::Setup);
        clock.switch(Phase::Exec);
        clock.count(Phase::Exec, 7);
        std::thread::sleep(std::time::Duration::from_millis(1));
        clock.switch(Phase::Sched);
        clock.switch(Phase::Other);
        let p = clock.finish();
        // One read to start, one per switch, one to close the last slice.
        assert_eq!(clock_reads() - before, 5);
        assert_eq!(p.slices.len(), Phase::ALL.len());
        let total: u64 = p.slices.iter().map(|s| s.nanos).sum();
        assert_eq!(total, p.launch_nanos);
        assert!(p.slice(Phase::Exec).unwrap().nanos >= 1_000_000);
        assert_eq!(p.slice(Phase::Exec).unwrap().events, 7);
        for (i, s) in p.slices.iter().enumerate() {
            assert_eq!(s.phase, Phase::ALL[i], "slices in phase order");
        }
    }

    #[test]
    fn a_nested_switch_restores_the_callers_phase() {
        let mut clock = PhaseClock::start(true, Phase::Exec);
        // exec ⊃ data_memory ⊃ stats_data, each callee switching back.
        let exec = clock.switch(Phase::DataMemory);
        let data = clock.switch(Phase::StatsData);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(clock.switch(data), Phase::StatsData);
        assert_eq!(clock.switch(exec), Phase::DataMemory);
        assert_eq!(exec, Phase::Exec);
        assert_eq!(clock.current, Phase::Exec);
        let p = clock.finish();
        // The nested slice is charged to the innermost phase only.
        assert!(p.slice(Phase::StatsData).unwrap().nanos >= 2_000_000);
        assert!(p.slice(Phase::DataMemory).unwrap().nanos < 2_000_000);
        let total: u64 = p.slices.iter().map(|s| s.nanos).sum();
        assert_eq!(total, p.launch_nanos);
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<_> = Phase::ALL.iter().map(|p| p.name()).collect();
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
                "sched",
                "other"
            ]
        );
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL is in declaration order");
        }
    }
}
