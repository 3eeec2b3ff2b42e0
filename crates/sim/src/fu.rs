//! Backend ways: the pool of functional-unit instances.
//!
//! Select maps instructions "oldest-first … to the first free backend way
//! that matches the instruction's type" (§4.2.2). A *backend way* is one
//! FU instance identified by a global index; spatial diversity means the
//! two copies of an instruction use different instances.

use blackjack_isa::FuType;

use crate::config::{FuCounts, FuLatencies};

/// The pool of backend ways with per-cycle allocation and unpipelined-unit
/// busy tracking.
#[derive(Debug, Clone)]
pub struct FuPool {
    counts: FuCounts,
    /// Per global way: cycle until which the unit is busy (unpipelined).
    busy_until: Vec<u64>,
    /// Per global way: allocated in the current cycle.
    taken: Vec<bool>,
}

impl FuPool {
    /// Creates the pool.
    pub fn new(counts: FuCounts) -> FuPool {
        let n = counts.total();
        FuPool { counts, busy_until: vec![0; n], taken: vec![false; n] }
    }

    /// The instance counts.
    pub fn counts(&self) -> &FuCounts {
        &self.counts
    }

    /// Clears this cycle's allocations (call at the start of issue).
    pub fn begin_cycle(&mut self) {
        self.taken.iter_mut().for_each(|t| *t = false);
    }

    /// Allocates the first free instance of `ty` at `cycle`, marking an
    /// unpipelined unit busy for `lat` cycles. Returns the global way.
    pub fn try_alloc(&mut self, ty: FuType, cycle: u64, lat: &FuLatencies) -> Option<usize> {
        let n = self.counts.of(ty);
        for i in 0..n {
            let way = self.counts.global_way(ty, i);
            if !self.taken[way] && self.busy_until[way] <= cycle {
                self.taken[way] = true;
                if FuLatencies::unpipelined(ty) {
                    self.busy_until[way] = cycle + lat.of(ty);
                }
                return Some(way);
            }
        }
        None
    }

    /// Undoes this cycle's [`FuPool::try_alloc`] of `way`, for a group
    /// that could not allocate all its members. The unit was free at this
    /// cycle or it could not have been allocated, so it is marked free
    /// outright: no later cycle can tell the difference.
    pub fn undo_alloc(&mut self, way: usize) {
        self.taken[way] = false;
        self.release(way);
    }

    /// Frees an unpipelined unit early (squash of an executing divide).
    pub fn release(&mut self, way: usize) {
        self.busy_until[way] = 0;
    }

    /// The earliest cycle after `cycle` at which a busy unpipelined unit
    /// becomes free again, if any is busy past `cycle`.
    pub fn next_release(&self, cycle: u64) -> Option<u64> {
        self.busy_until.iter().copied().filter(|&t| t > cycle).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> FuPool {
        FuPool::new(FuCounts::default())
    }

    #[test]
    fn allocates_lowest_index_first() {
        let mut p = pool();
        let lat = FuLatencies::default();
        p.begin_cycle();
        assert_eq!(p.try_alloc(FuType::IntAlu, 0, &lat), Some(0));
        assert_eq!(p.try_alloc(FuType::IntAlu, 0, &lat), Some(1));
        assert_eq!(p.try_alloc(FuType::IntAlu, 0, &lat), Some(2));
        assert_eq!(p.try_alloc(FuType::IntAlu, 0, &lat), Some(3));
        assert_eq!(p.try_alloc(FuType::IntAlu, 0, &lat), None, "only 4 int ALUs");
    }

    #[test]
    fn classes_use_disjoint_ways() {
        let mut p = pool();
        let lat = FuLatencies::default();
        p.begin_cycle();
        let alu = p.try_alloc(FuType::IntAlu, 0, &lat).unwrap();
        let mul = p.try_alloc(FuType::IntMul, 0, &lat).unwrap();
        let mem = p.try_alloc(FuType::MemPort, 0, &lat).unwrap();
        assert_ne!(alu, mul);
        assert_ne!(mul, mem);
        assert_eq!(p.counts().way_type(mul).0, FuType::IntMul);
    }

    #[test]
    fn pipelined_unit_free_next_cycle() {
        let mut p = pool();
        let lat = FuLatencies::default();
        p.begin_cycle();
        assert_eq!(p.try_alloc(FuType::IntMul, 0, &lat), Some(4));
        p.begin_cycle();
        assert_eq!(p.try_alloc(FuType::IntMul, 1, &lat), Some(4), "multiplier is pipelined");
    }

    #[test]
    fn unpipelined_unit_stays_busy() {
        let mut p = pool();
        let lat = FuLatencies::default();
        p.begin_cycle();
        let w0 = p.try_alloc(FuType::IntDiv, 0, &lat).unwrap();
        p.begin_cycle();
        let w1 = p.try_alloc(FuType::IntDiv, 1, &lat).unwrap();
        assert_ne!(w0, w1, "second divide goes to the other divider");
        p.begin_cycle();
        assert_eq!(p.try_alloc(FuType::IntDiv, 2, &lat), None, "both dividers busy");
        p.begin_cycle();
        assert!(p.try_alloc(FuType::IntDiv, lat.int_div, &lat).is_some(), "free after latency");
    }

    #[test]
    fn undo_alloc_returns_the_way_this_cycle() {
        let mut p = pool();
        let lat = FuLatencies::default();
        p.begin_cycle();
        let div = p.try_alloc(FuType::IntDiv, 5, &lat).unwrap();
        let alu = p.try_alloc(FuType::IntAlu, 5, &lat).unwrap();
        assert_eq!(p.next_release(5), Some(5 + lat.int_div));
        p.undo_alloc(div);
        p.undo_alloc(alu);
        assert_eq!(p.next_release(5), None, "an undone divide does not hold its unit");
        assert_eq!(p.try_alloc(FuType::IntDiv, 5, &lat), Some(div), "same way again");
        assert_eq!(p.try_alloc(FuType::IntAlu, 5, &lat), Some(alu));
    }

    #[test]
    fn release_frees_early() {
        let mut p = pool();
        let lat = FuLatencies::default();
        p.begin_cycle();
        let w = p.try_alloc(FuType::FpDiv, 0, &lat).unwrap();
        assert_eq!(p.next_release(1), Some(lat.fp_div));
        p.release(w);
        assert_eq!(p.next_release(1), None);
    }

    #[test]
    fn next_release_is_the_earliest_busy_unit_past_the_cycle() {
        let mut p = pool();
        let lat = FuLatencies::default();
        p.begin_cycle();
        assert_eq!(p.try_alloc(FuType::IntAlu, 0, &lat), Some(0));
        assert_eq!(p.next_release(0), None, "pipelined units never hold a release");
        p.try_alloc(FuType::IntDiv, 0, &lat).unwrap();
        p.begin_cycle();
        p.try_alloc(FuType::FpDiv, 3, &lat).unwrap();
        assert_eq!(p.next_release(3), Some(3 + lat.fp_div), "12 < 20 cycles");
        assert_eq!(p.next_release(3 + lat.fp_div), Some(lat.int_div));
        assert_eq!(p.next_release(lat.int_div), None, "free from the release cycle on");
    }
}
