//! Warp schedulers: greedy-then-oldest, loose round-robin, two-level.
//!
//! The scheduler decides which resident warp issues next, which reorders
//! memory traffic and therefore changes the *sequence* of flits on each NoC
//! channel — the mechanism behind the paper's scheduler-sensitivity study
//! (Fig. 21). The simulator is functional, so "stall" means "the warp just
//! issued a long-latency memory access".

use crate::config::SchedulerKind;

/// Size of the two-level scheduler's active set (per [72] in the paper).
const TWO_LEVEL_ACTIVE_SET: usize = 8;

/// A warp scheduler instance for one SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// GTO: the warp currently holding the greedy slot.
    greedy: Option<usize>,
    /// LRR: next index to consider.
    rr_next: usize,
    /// Two-level: the active set (warp indices), round-robin position.
    active_set: Vec<usize>,
    active_next: usize,
    /// Two-level: where the last refill stopped scanning, so vacancies are
    /// offered to warps in rotation order rather than re-biasing the lowest
    /// warp indices (the pending set is serviced oldest-demotion-first in
    /// [72]; a rotating scan is the stateless equivalent).
    refill_next: usize,
}

impl Scheduler {
    /// Create a scheduler of the given kind.
    pub fn new(kind: SchedulerKind) -> Self {
        Self {
            kind,
            greedy: None,
            rr_next: 0,
            active_set: Vec::new(),
            active_next: 0,
            refill_next: 0,
        }
    }

    /// The policy this scheduler implements.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// How many consecutive non-yielding ops one `pick` may issue without
    /// changing which warp the policy would select next. GTO re-picks the
    /// greedy warp after every `Ok` step, so a whole straight-line run can
    /// issue under one slot with identical semantics; LRR and two-level
    /// rotate on every pick, so batching would reorder the instruction
    /// interleaving (and with it I-cache and NoC event sequencing).
    pub fn max_consecutive(&self) -> u64 {
        match self.kind {
            SchedulerKind::Gto => u64::MAX,
            SchedulerKind::Lrr | SchedulerKind::TwoLevel => 1,
        }
    }

    /// Pick the next warp to issue from `ready` (indices of ready warps,
    /// ascending = oldest first). Returns `None` when nothing is ready.
    pub fn pick(&mut self, ready: &[bool]) -> Option<usize> {
        if ready.iter().all(|r| !r) {
            return None;
        }
        match self.kind {
            SchedulerKind::Gto => {
                if let Some(g) = self.greedy {
                    if ready.get(g).copied().unwrap_or(false) {
                        return Some(g);
                    }
                }
                // Oldest ready warp takes the greedy slot.
                let oldest = ready.iter().position(|&r| r)?;
                self.greedy = Some(oldest);
                Some(oldest)
            }
            SchedulerKind::Lrr => {
                let n = ready.len();
                for off in 0..n {
                    let i = (self.rr_next + off) % n;
                    if ready[i] {
                        self.rr_next = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            SchedulerKind::TwoLevel => {
                self.refill_active_set(ready);
                let n = self.active_set.len();
                for off in 0..n {
                    let slot = (self.active_next + off) % n;
                    let w = self.active_set[slot];
                    if ready.get(w).copied().unwrap_or(false) {
                        self.active_next = (slot + 1) % n;
                        return Some(w);
                    }
                }
                // Active set fully stalled: promote any ready warp.
                let i = ready.iter().position(|&r| r)?;
                self.promote(i);
                Some(i)
            }
        }
    }

    /// Notify that warp `w` stalled on a memory access.
    pub fn on_stall(&mut self, w: usize) {
        match self.kind {
            SchedulerKind::Gto => {
                if self.greedy == Some(w) {
                    self.greedy = None;
                }
            }
            SchedulerKind::TwoLevel => self.demote(w),
            SchedulerKind::Lrr => {}
        }
    }

    /// Notify that warp `w` finished execution.
    pub fn on_finish(&mut self, w: usize) {
        self.on_stall(w);
    }

    /// Remove warp `w` from the active set, keeping the round-robin cursor
    /// on the warp it was about to consider. Removing an element below the
    /// cursor shifts every later element down by one, so the cursor must
    /// follow — otherwise the rotation silently skips the surviving warp
    /// that slid into the vacated slot.
    fn demote(&mut self, w: usize) {
        let Some(pos) = self.active_set.iter().position(|&x| x == w) else {
            return;
        };
        self.active_set.remove(pos);
        if pos < self.active_next {
            self.active_next -= 1;
        }
        if self.active_next >= self.active_set.len() {
            self.active_next = 0;
        }
    }

    /// Fill vacancies in the active set. The scan starts at `refill_next`
    /// and wraps, so over time every resident warp gets an equal shot at a
    /// vacancy — refilling from warp 0 every time would hand low-index
    /// warps the slot whenever they are ready, starving the tail of the
    /// warp list (the paper's [72] services the pending set oldest-first).
    fn refill_active_set(&mut self, ready: &[bool]) {
        let n = ready.len();
        if self.active_set.len() >= TWO_LEVEL_ACTIVE_SET || n == 0 {
            return;
        }
        let start = self.refill_next % n;
        for off in 0..n {
            if self.active_set.len() >= TWO_LEVEL_ACTIVE_SET {
                break;
            }
            let i = (start + off) % n;
            if ready[i] && !self.active_set.contains(&i) {
                self.active_set.push(i);
                // The next refill resumes just past the last admitted warp.
                self.refill_next = (i + 1) % n;
            }
        }
    }

    fn promote(&mut self, w: usize) {
        if !self.active_set.contains(&w) {
            if self.active_set.len() >= TWO_LEVEL_ACTIVE_SET {
                // Evict the oldest active warp, cursor-adjusted like any
                // other removal.
                let victim = self.active_set[0];
                self.demote(victim);
            }
            self.active_set.push(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn gto_sticks_to_one_warp_until_stall() {
        let mut s = Scheduler::new(SchedulerKind::Gto);
        let r = ready(4);
        assert_eq!(s.pick(&r), Some(0));
        assert_eq!(s.pick(&r), Some(0));
        s.on_stall(0);
        let mut r2 = r.clone();
        r2[0] = false;
        assert_eq!(s.pick(&r2), Some(1));
        assert_eq!(s.pick(&r2), Some(1));
    }

    #[test]
    fn gto_returns_to_oldest() {
        let mut s = Scheduler::new(SchedulerKind::Gto);
        let mut r = ready(3);
        r[0] = false;
        assert_eq!(s.pick(&r), Some(1));
        s.on_stall(1);
        r[0] = true;
        r[1] = false;
        assert_eq!(s.pick(&r), Some(0), "oldest ready warp wins");
    }

    #[test]
    fn lrr_rotates() {
        let mut s = Scheduler::new(SchedulerKind::Lrr);
        let r = ready(3);
        assert_eq!(s.pick(&r), Some(0));
        assert_eq!(s.pick(&r), Some(1));
        assert_eq!(s.pick(&r), Some(2));
        assert_eq!(s.pick(&r), Some(0));
    }

    #[test]
    fn lrr_skips_unready() {
        let mut s = Scheduler::new(SchedulerKind::Lrr);
        let mut r = ready(3);
        r[1] = false;
        assert_eq!(s.pick(&r), Some(0));
        assert_eq!(s.pick(&r), Some(2));
        assert_eq!(s.pick(&r), Some(0));
    }

    #[test]
    fn two_level_stays_in_active_set() {
        let mut s = Scheduler::new(SchedulerKind::TwoLevel);
        let r = ready(16);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..32 {
            seen.insert(s.pick(&r).unwrap());
        }
        assert_eq!(
            seen.len(),
            TWO_LEVEL_ACTIVE_SET,
            "issues must rotate within the 8-warp active set"
        );
    }

    #[test]
    fn two_level_replaces_stalled_warps() {
        let mut s = Scheduler::new(SchedulerKind::TwoLevel);
        let mut r = ready(16);
        let first = s.pick(&r).unwrap();
        s.on_stall(first);
        r[first] = false;
        // The demoted warp must not be picked again while stalled.
        for _ in 0..32 {
            assert_ne!(s.pick(&r), Some(first));
        }
    }

    /// Regression: demoting a warp that sits *below* the round-robin
    /// cursor used to leave the cursor pointing one slot too far, so the
    /// warp that slid into the vacated slot was silently skipped for a
    /// whole rotation. With the cursor adjustment, one full rotation after
    /// a mid-rotation demotion must issue every surviving active warp
    /// exactly once.
    #[test]
    fn two_level_demotion_mid_rotation_keeps_the_rotation_fair() {
        let mut s = Scheduler::new(SchedulerKind::TwoLevel);
        let mut r = ready(8); // exactly one active set's worth
                              // Establish the active set [0..8] and advance the cursor past
                              // warps 0..4, so the next pick would be warp 4.
        for expect in 0..4 {
            assert_eq!(s.pick(&r), Some(expect));
        }
        // Warp 1 (below the cursor) stalls and is demoted mid-rotation.
        s.on_stall(1);
        r[1] = false;
        // The rest of the rotation must be 4, 5, 6, 7 — not skip 4 (the
        // pre-fix symptom: the cursor pointed at 5's slot after the shift)
        // and not re-issue an already-serviced warp.
        let mut issued = Vec::new();
        for _ in 0..4 {
            issued.push(s.pick(&r).unwrap());
        }
        assert_eq!(
            issued,
            vec![4, 5, 6, 7],
            "rotation skipped or repeated a warp"
        );
    }

    /// Regression: promotion into a full set evicts the oldest active warp
    /// (`remove(0)`), which shifts every slot below the cursor — without
    /// the cursor adjustment the rotation resumed one warp too far.
    #[test]
    fn two_level_promotion_mid_rotation_keeps_the_rotation_fair() {
        let mut s = Scheduler::new(SchedulerKind::TwoLevel);
        let mut r = ready(16);
        // Active set [0..8]; advance the cursor past warps 0..4.
        for expect in 0..4 {
            assert_eq!(s.pick(&r), Some(expect));
        }
        // The whole active set stalls momentarily (no demotion
        // notifications — think scoreboard stalls), so pick() promotes the
        // oldest pending ready warp, evicting active warp 0 from a full set.
        r[0..8].fill(false);
        assert_eq!(s.pick(&r), Some(8));
        // Actives 4..8 wake up. The rotation left off at warp 4 and the
        // eviction happened below the cursor: the next lap must start at 4
        // (pre-fix it resumed at 5) and then visit 5, 6, 7, then the
        // newly promoted 8.
        r[4..8].fill(true);
        let picks: Vec<usize> = (0..5).map(|_| s.pick(&r).unwrap()).collect();
        assert_eq!(picks, vec![4, 5, 6, 7, 8], "rotation lost its place");
    }

    /// Regression: vacancies used to be refilled in ascending warp-index
    /// order, so a just-demoted low-index warp that was still ready
    /// re-entered the set immediately while high-index warps never got a
    /// slot. The refill must scan from the rotation point instead.
    #[test]
    fn two_level_refill_starts_at_the_rotation_point_not_warp_zero() {
        let mut s = Scheduler::new(SchedulerKind::TwoLevel);
        let r = ready(16);
        s.pick(&r).unwrap(); // fill the active set with [0..8]
                             // Warp 3 stalls on memory but its data returns immediately: it is
                             // demoted yet stays ready.
        s.on_stall(3);
        s.pick(&r).unwrap(); // triggers a refill of the vacancy
        assert!(
            s.active_set.contains(&8),
            "vacancy must go to the next pending warp in rotation (8), set: {:?}",
            s.active_set
        );
        assert!(
            !s.active_set.contains(&3),
            "a just-demoted warp must go to the back of the queue, set: {:?}",
            s.active_set
        );
    }

    #[test]
    fn nothing_ready_returns_none() {
        for kind in SchedulerKind::ALL {
            let mut s = Scheduler::new(kind);
            assert_eq!(s.pick(&[false, false]), None);
            assert_eq!(s.pick(&[]), None);
        }
    }
}
