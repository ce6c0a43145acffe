//! Off-chip DRAM channel model with FR-FCFS scheduling (Table 3: "6 memory
//! channels, FR-FCFS scheduling").
//!
//! BVF itself is transparent to off-chip memory (§4: "our design does not
//! impact off-chip bus or DRAM"), so this model carries no BVF energy —
//! it exists to complete the substrate: L2 misses are serviced through
//! per-channel bank state machines whose row-buffer behavior and service
//! times feed the chip-level runtime estimate (and therefore leakage).
//!
//! The timing model is the standard three-parameter one: a row-buffer *hit*
//! pays CAS + burst; a row *miss* pays precharge + activate + CAS + burst.
//! FR-FCFS ("first-ready, first-come-first-served") services the oldest
//! request that hits an open row before older row-missing requests.

use std::collections::VecDeque;

/// DRAM timing and geometry parameters (in DRAM-clock cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Banks per channel.
    pub banks: u32,
    /// Row-buffer size in bytes.
    pub row_bytes: u32,
    /// Precharge latency (tRP).
    pub t_rp: u32,
    /// Activate latency (tRCD).
    pub t_rcd: u32,
    /// Column access latency (tCAS/CL).
    pub t_cas: u32,
    /// Data burst occupancy per 128B transfer.
    pub t_burst: u32,
    /// How many queued requests FR-FCFS may look past to find a row hit.
    pub frfcfs_window: usize,
}

impl Default for DramConfig {
    /// GDDR5-class parameters.
    fn default() -> Self {
        Self {
            banks: 16,
            row_bytes: 2048,
            t_rp: 12,
            t_rcd: 12,
            t_cas: 12,
            t_burst: 4,
            frfcfs_window: 16,
        }
    }
}

/// One memory request (an L2 miss or writeback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// Line-aligned byte address.
    pub addr: u64,
    /// Write (true) or read (false).
    pub is_write: bool,
}

/// Aggregate statistics for one channel.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DramStats {
    /// Requests serviced.
    pub requests: u64,
    /// Row-buffer hits among them.
    pub row_hits: u64,
    /// Total busy cycles accumulated.
    pub busy_cycles: u64,
    /// Requests reordered past an older one by FR-FCFS.
    pub reorders: u64,
}

impl DramStats {
    /// Accumulate another channel's (or launch shard's) statistics.
    /// Every field is an associative counter, so folding per-channel and
    /// per-shard stats in any grouping yields the same totals.
    pub fn merge(&mut self, other: &DramStats) {
        self.requests += other.requests;
        self.row_hits += other.row_hits;
        self.busy_cycles += other.busy_cycles;
        self.reorders += other.reorders;
    }

    /// Row-buffer hit rate in `[0, 1]`; 0 when idle.
    pub fn row_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }
}

/// One DRAM channel: per-bank open-row state plus a request queue drained
/// with FR-FCFS. The queue holds each request's `(bank, row)`, resolved
/// once on enqueue: FR-FCFS rescans its window at every pick, and neither
/// the address nor the direction affects the timing past that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramChannel {
    config: DramConfig,
    open_rows: Vec<Option<u64>>,
    queue: VecDeque<(usize, u64)>,
    stats: DramStats,
}

impl DramChannel {
    /// New channel with all banks precharged (no open rows).
    pub fn new(config: DramConfig) -> Self {
        Self {
            config,
            open_rows: vec![None; config.banks as usize],
            queue: VecDeque::new(),
            stats: DramStats::default(),
        }
    }

    /// The (bank, row) pair a request targets. The bank index XOR-hashes
    /// several row-bit groups (the standard anti-conflict interleaving) so
    /// that streams with power-of-two strides — e.g. parallel buffers at
    /// megabyte-aligned bases — spread across banks instead of ping-ponging
    /// rows within one bank.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let row = addr / u64::from(self.config.row_bytes);
        let hashed = row ^ (row >> 4) ^ (row >> 9);
        let bank = (hashed % u64::from(self.config.banks)) as usize;
        (bank, row)
    }

    /// Enqueue a request.
    pub fn enqueue(&mut self, req: DramRequest) {
        self.queue.push_back(self.locate(req.addr));
    }

    /// Service one request per FR-FCFS, returning its latency in cycles
    /// (`None` when the queue is empty).
    pub fn service_one(&mut self) -> Option<u32> {
        if self.queue.is_empty() {
            return None;
        }
        // First-ready: the oldest request within the window whose row is
        // open; otherwise plain FCFS.
        let window = self.config.frfcfs_window.min(self.queue.len());
        let pick = (0..window)
            .find(|&i| {
                let (bank, row) = self.queue[i];
                self.open_rows[bank] == Some(row)
            })
            .unwrap_or(0);
        if pick != 0 {
            self.stats.reorders += 1;
        }
        let (bank, row) = self.queue.remove(pick).expect("index within queue");
        let c = &self.config;
        let latency = if self.open_rows[bank] == Some(row) {
            self.stats.row_hits += 1;
            c.t_cas + c.t_burst
        } else if self.open_rows[bank].is_none() {
            c.t_rcd + c.t_cas + c.t_burst
        } else {
            c.t_rp + c.t_rcd + c.t_cas + c.t_burst
        };
        self.open_rows[bank] = Some(row);
        self.stats.requests += 1;
        self.stats.busy_cycles += u64::from(latency);
        Some(latency)
    }

    /// Drain the whole queue, returning total busy cycles consumed.
    pub fn drain(&mut self) -> u64 {
        let mut total = 0u64;
        while let Some(lat) = self.service_one() {
            total += u64::from(lat);
        }
        total
    }

    /// Pending request count.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn channel() -> DramChannel {
        DramChannel::new(DramConfig::default())
    }

    #[test]
    fn sequential_stream_hits_the_row_buffer() {
        let mut ch = channel();
        // 16 consecutive 128B lines live in the same 2KB row.
        for i in 0..16u64 {
            ch.enqueue(DramRequest {
                addr: i * 128,
                is_write: false,
            });
        }
        ch.drain();
        let s = ch.stats();
        assert_eq!(s.requests, 16);
        assert_eq!(s.row_hits, 15, "only the activate misses");
        assert!(s.row_hit_rate() > 0.9);
    }

    #[test]
    fn row_conflicts_pay_precharge() {
        let cfg = DramConfig::default();
        let mut ch = DramChannel::new(cfg);
        // Find two different rows that hash into the same bank.
        let hash = |row: u64| (row ^ (row >> 4) ^ (row >> 9)) % u64::from(cfg.banks);
        let row_a = 0u64;
        let row_b = (1..4096u64)
            .find(|&r| hash(r) == hash(row_a))
            .expect("a conflicting row exists");
        let a = row_a * u64::from(cfg.row_bytes);
        let b = row_b * u64::from(cfg.row_bytes);
        ch.enqueue(DramRequest {
            addr: a,
            is_write: false,
        });
        let first = ch.service_one().unwrap();
        ch.enqueue(DramRequest {
            addr: b,
            is_write: false,
        });
        let second = ch.service_one().unwrap();
        assert_eq!(first, cfg.t_rcd + cfg.t_cas + cfg.t_burst);
        assert_eq!(second, cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.t_burst);
    }

    #[test]
    fn frfcfs_prefers_open_row_requests() {
        let cfg = DramConfig::default();
        let mut ch = DramChannel::new(cfg);
        let row0_line0 = 0u64;
        let other_bank_row = u64::from(cfg.row_bytes); // row 1 → bank 1
        let row0_line1 = 128u64;
        ch.enqueue(DramRequest {
            addr: row0_line0,
            is_write: false,
        });
        ch.service_one();
        // Queue: [other-bank request, open-row hit] → FR-FCFS takes the hit.
        ch.enqueue(DramRequest {
            addr: other_bank_row,
            is_write: true,
        });
        ch.enqueue(DramRequest {
            addr: row0_line1,
            is_write: false,
        });
        let lat = ch.service_one().unwrap();
        assert_eq!(
            lat,
            cfg.t_cas + cfg.t_burst,
            "row hit must be serviced first"
        );
        assert_eq!(ch.stats().reorders, 1);
        assert_eq!(ch.pending(), 1);
    }

    #[test]
    fn drain_empties_queue() {
        let mut ch = channel();
        for i in 0..100u64 {
            ch.enqueue(DramRequest {
                addr: i * 4096 * 17,
                is_write: i % 3 == 0,
            });
        }
        let busy = ch.drain();
        assert_eq!(ch.pending(), 0);
        assert_eq!(ch.stats().busy_cycles, busy);
        assert!(busy > 0);
        assert!(ch.service_one().is_none());
    }

    #[test]
    fn random_traffic_hits_less_than_streaming() {
        let mut seq = channel();
        let mut rnd = channel();
        let mut x = 12345u64;
        for i in 0..256u64 {
            seq.enqueue(DramRequest {
                addr: i * 128,
                is_write: false,
            });
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            rnd.enqueue(DramRequest {
                addr: (x >> 16) % (1 << 30),
                is_write: false,
            });
        }
        seq.drain();
        rnd.drain();
        assert!(seq.stats().row_hit_rate() > rnd.stats().row_hit_rate());
    }
}
