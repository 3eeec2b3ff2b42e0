//! Per-context active list (reorder buffer).

use std::collections::VecDeque;

use crate::uop::UopId;

/// A program-ordered active list for one context.
///
/// The trailing thread in BlackJack mode fetches out of program order
/// (leading issue order), so its entries are allocated by *virtual index*
/// (§4.3.1): the DTQ's program-order sequence number is translated to a
/// window position, leaving holes for not-yet-fetched older instructions.
///
/// Only the window is stored: position `i` holds sequence `head_seq + i`,
/// and the window ends at the youngest allocated entry. A clone copies
/// just that window: the 1,305 snapshots the benchmark's
/// `inject-transient` campaign retains at once copy 1.7 MiB of active
/// lists, where full 512-entry lists would copy 30.6 MiB. The copy's
/// buffer holds just the window, so a restored core's window grows back
/// on its first allocations. A squash pops entries off the back.
#[derive(Debug, Clone)]
pub struct ActiveList {
    window: VecDeque<Option<UopId>>,
    capacity: usize,
    /// Sequence number of the next instruction to commit.
    head_seq: u64,
    live: usize,
}

impl ActiveList {
    /// Creates an active list with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ActiveList {
        assert!(capacity > 0, "active list capacity must be positive");
        ActiveList { window: VecDeque::new(), capacity, head_seq: 0, live: 0 }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The sequence number the next commit must have.
    pub fn head_seq(&self) -> u64 {
        self.head_seq
    }

    /// True if an instruction with sequence `seq` can be allocated now
    /// (its virtual index falls within the window).
    pub fn can_allocate(&self, seq: u64) -> bool {
        seq >= self.head_seq && seq - self.head_seq < self.capacity as u64
    }

    /// Allocates the entry for `seq`.
    ///
    /// # Panics
    ///
    /// Panics if out of window or the entry is already occupied.
    pub fn allocate(&mut self, seq: u64, id: UopId) {
        assert!(self.can_allocate(seq), "active list allocation out of window (seq {seq})");
        let pos = (seq - self.head_seq) as usize;
        if pos < self.window.len() {
            assert!(self.window[pos].is_none(), "active list slot collision at seq {seq}");
            self.window[pos] = Some(id);
        } else {
            self.window.resize(pos, None);
            self.window.push_back(Some(id));
        }
        self.live += 1;
    }

    /// The uop at the commit head, if the head instruction has been
    /// allocated (the trailing thread may have holes).
    pub fn head(&self) -> Option<UopId> {
        self.window.front().copied().flatten()
    }

    /// Commits the head entry, advancing the window.
    ///
    /// # Panics
    ///
    /// Panics if the head is not present.
    pub fn commit_head(&mut self) -> UopId {
        let id = self.window.pop_front().flatten().expect("committing a hole");
        self.head_seq += 1;
        self.live -= 1;
        id
    }

    /// Removes the youngest entry if its sequence is greater than `seq`
    /// and returns it. Calling this until it returns `None` squashes
    /// every entry after `seq`, youngest first (the squash walk order).
    pub fn pop_youngest_after(&mut self, seq: u64) -> Option<UopId> {
        if self.window.is_empty() || self.head_seq + self.window.len() as u64 - 1 <= seq {
            return None;
        }
        let id = self.window.pop_back().flatten().expect("the window ends at an entry");
        while let Some(None) = self.window.back() {
            self.window.pop_back();
        }
        self.live -= 1;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::{Uop, UopSlab};
    use blackjack_isa::Inst;
    use blackjack_rng::Rng;

    fn mk_ids(n: usize) -> Vec<UopId> {
        let mut slab = UopSlab::new();
        (0..n).map(|i| slab.insert(Uop::new(i as u64, 0, i as u64, 0, 0, Inst::Nop))).collect()
    }

    #[test]
    fn in_order_allocate_and_commit() {
        let ids = mk_ids(3);
        let mut al = ActiveList::new(4);
        for (i, id) in ids.iter().enumerate() {
            al.allocate(i as u64, *id);
        }
        assert_eq!(al.head(), Some(ids[0]));
        assert_eq!(al.commit_head(), ids[0]);
        assert_eq!(al.commit_head(), ids[1]);
        assert_eq!(al.head_seq(), 2);
    }

    #[test]
    fn out_of_order_allocation_with_holes() {
        let ids = mk_ids(3);
        let mut al = ActiveList::new(4);
        al.allocate(2, ids[2]); // younger arrives first (BlackJack trailing)
        assert_eq!(al.head(), None, "head is a hole");
        al.allocate(0, ids[0]);
        assert_eq!(al.head(), Some(ids[0]));
        al.commit_head();
        assert_eq!(al.head(), None, "seq 1 still missing");
        al.allocate(1, ids[1]);
        assert_eq!(al.head(), Some(ids[1]));
    }

    #[test]
    fn window_limits_allocation() {
        let ids = mk_ids(2);
        let mut al = ActiveList::new(4);
        assert!(al.can_allocate(3));
        assert!(!al.can_allocate(4), "beyond window");
        al.allocate(0, ids[0]);
        al.commit_head();
        assert!(al.can_allocate(4), "window slides with commit");
    }

    #[test]
    #[should_panic]
    fn out_of_window_panics() {
        let ids = mk_ids(1);
        let mut al = ActiveList::new(2);
        al.allocate(5, ids[0]);
    }

    #[test]
    fn squash_returns_youngest_first() {
        let ids = mk_ids(4);
        let mut al = ActiveList::new(8);
        for (i, id) in ids.iter().enumerate() {
            al.allocate(i as u64, *id);
        }
        let squashed: Vec<UopId> = std::iter::from_fn(|| al.pop_youngest_after(1)).collect();
        assert_eq!(squashed, vec![ids[3], ids[2]]);
        assert_eq!(al.len(), 2);
        assert_eq!(al.head(), Some(ids[0]));
    }

    #[test]
    fn wraparound() {
        let ids = mk_ids(6);
        let mut al = ActiveList::new(2);
        al.allocate(0, ids[0]);
        al.allocate(1, ids[1]);
        al.commit_head();
        al.commit_head();
        al.allocate(2, ids[2]);
        al.allocate(3, ids[3]);
        assert_eq!(al.commit_head(), ids[2]);
        assert_eq!(al.commit_head(), ids[3]);
    }

    /// The ring the windowed list replaced, kept as the reference model:
    /// all `capacity` entries stored, sequence `seq` at slot
    /// `seq % capacity`, squash by scanning every slot and sorting.
    struct RingList {
        slots: Vec<Option<(u64, UopId)>>,
        head_seq: u64,
        live: usize,
    }

    impl RingList {
        fn new(capacity: usize) -> RingList {
            RingList { slots: vec![None; capacity], head_seq: 0, live: 0 }
        }

        fn slot(&self, seq: u64) -> usize {
            (seq % self.slots.len() as u64) as usize
        }

        fn can_allocate(&self, seq: u64) -> bool {
            seq >= self.head_seq && seq - self.head_seq < self.slots.len() as u64
        }

        fn occupied(&self, seq: u64) -> bool {
            self.slots[self.slot(seq)].is_some()
        }

        fn allocate(&mut self, seq: u64, id: UopId) {
            let slot = self.slot(seq);
            assert!(self.can_allocate(seq) && self.slots[slot].is_none());
            self.slots[slot] = Some((seq, id));
            self.live += 1;
        }

        fn head(&self) -> Option<UopId> {
            match self.slots[self.slot(self.head_seq)] {
                Some((seq, id)) if seq == self.head_seq => Some(id),
                _ => None,
            }
        }

        fn commit_head(&mut self) -> UopId {
            let slot = self.slot(self.head_seq);
            let (_, id) = self.slots[slot].take().expect("committing a hole");
            self.head_seq += 1;
            self.live -= 1;
            id
        }

        fn squash_after(&mut self, seq: u64) -> Vec<UopId> {
            let mut squashed: Vec<(u64, UopId)> = self
                .slots
                .iter_mut()
                .filter_map(|s| if matches!(s, Some((q, _)) if *q > seq) { s.take() } else { None })
                .collect();
            self.live -= squashed.len();
            squashed.sort_by_key(|&(q, _)| std::cmp::Reverse(q));
            squashed.into_iter().map(|(_, id)| id).collect()
        }
    }

    fn assert_same(al: &ActiveList, ring: &RingList, what: &str) {
        assert_eq!(al.head(), ring.head(), "{what}: head");
        assert_eq!(al.len(), ring.live, "{what}: len");
        assert_eq!(al.head_seq(), ring.head_seq, "{what}: head_seq");
        for seq in ring.head_seq.saturating_sub(2)..ring.head_seq + ring.slots.len() as u64 + 2 {
            assert_eq!(al.can_allocate(seq), ring.can_allocate(seq), "{what}: can_allocate({seq})");
        }
        let last = (al.window.len() as u64).checked_sub(1).map(|p| al.window[p as usize]);
        assert!(matches!(last, None | Some(Some(_))), "{what}: the window ends at an entry");
    }

    #[test]
    fn window_matches_the_ring_reference() {
        let ids = mk_ids(4096);
        let id_of = |seq: u64| ids[(seq % 4096) as usize];
        let mut rng = Rng::seed_from_u64(0xAC71);
        for case in 0..300 {
            let capacity = rng.random_range(1..=24usize);
            // Half the cases allocate in order, as the leading and SRT
            // threads do; the other half by virtual index with holes, as
            // the BlackJack trailing thread does.
            let virtual_index = case % 2 == 1;
            let mut al = ActiveList::new(capacity);
            let mut ring = RingList::new(capacity);
            let mut next_seq = 0u64;
            for step in 0..400 {
                let what = format!("case {case} step {step} (capacity {capacity})");
                match rng.random_range(0..10u32) {
                    0..=4 => {
                        let seq = if virtual_index {
                            ring.head_seq + rng.random_range(0..capacity as u64)
                        } else {
                            next_seq
                        };
                        if ring.can_allocate(seq) && !ring.occupied(seq) {
                            al.allocate(seq, id_of(seq));
                            ring.allocate(seq, id_of(seq));
                            next_seq = seq + 1;
                        }
                    }
                    5..=7 => {
                        if ring.head().is_some() {
                            assert_eq!(al.commit_head(), ring.commit_head(), "{what}: commit");
                        }
                    }
                    _ => {
                        let back = rng.random_range(0..=capacity as u64);
                        let seq = (ring.head_seq + back).saturating_sub(1);
                        let squashed: Vec<UopId> =
                            std::iter::from_fn(|| al.pop_youngest_after(seq)).collect();
                        assert_eq!(squashed, ring.squash_after(seq), "{what}: squash after {seq}");
                        if !virtual_index {
                            next_seq = next_seq.min(seq + 1);
                        }
                    }
                }
                assert_same(&al, &ring, &what);
                assert_same(&al.clone(), &ring, &what);
            }
        }
    }
}
