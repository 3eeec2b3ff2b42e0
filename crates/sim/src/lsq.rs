//! Per-context load/store queue with conservative memory disambiguation
//! and byte-granular store-to-load forwarding.

use crate::uop::UopId;

/// One LSQ entry, allocated at rename in program order.
#[derive(Debug, Clone, Copy)]
pub struct LsqEntry {
    /// The owning uop.
    pub id: UopId,
    /// Program-order sequence number of the owning instruction.
    pub seq: u64,
    /// True for stores.
    pub is_store: bool,
    /// Effective address once computed.
    pub addr: Option<u64>,
    /// Access size in bytes.
    pub bytes: u64,
    /// Store data once computed.
    pub data: Option<u64>,
}

/// A program-ordered load/store queue for one context.
///
/// Disambiguation is conservative: a load may issue only when every older
/// store in the queue has a known address, and composes its value at
/// completion once every overlapping older store has its data.
/// Forwarding is byte-granular across all older stores.
#[derive(Debug, Clone, Default)]
pub struct Lsq {
    entries: std::collections::VecDeque<LsqEntry>,
    capacity: usize,
}

impl Lsq {
    /// Creates a queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Lsq {
        assert!(capacity > 0, "LSQ capacity must be positive");
        Lsq { entries: std::collections::VecDeque::with_capacity(capacity), capacity }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are occupied.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if no entry can be allocated.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Allocates an entry at the tail (rename order = program order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not monotonically
    /// increasing.
    pub fn allocate(&mut self, id: UopId, seq: u64, is_store: bool, bytes: u64) {
        assert!(!self.is_full(), "LSQ overflow — rename must stall");
        if let Some(back) = self.entries.back() {
            assert!(back.seq < seq, "LSQ allocation out of program order");
        }
        self.entries.push_back(LsqEntry { id, seq, is_store, addr: None, bytes, data: None });
    }

    /// Records a computed address (and data, for stores) at execute.
    ///
    /// # Panics
    ///
    /// Panics if the instruction has no LSQ entry.
    pub fn execute(&mut self, seq: u64, addr: u64, data: Option<u64>) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.seq == seq)
            .expect("executing memory op without an LSQ entry");
        e.addr = Some(addr);
        e.data = data;
    }

    /// True if every store older than `seq` has a *known address* — the
    /// split-store condition under which the load at `seq` may issue
    /// (overlap is then decidable; data availability is checked at the
    /// load's completion via [`Lsq::forward_status`]).
    pub fn older_stores_addr_known(&self, seq: u64) -> bool {
        self.entries
            .iter()
            .take_while(|e| e.seq < seq)
            .all(|e| !e.is_store || e.addr.is_some())
    }

    /// Fills in a split store's data once its data operand arrives.
    ///
    /// # Panics
    ///
    /// Panics if the store has no entry or no address yet.
    pub fn set_data(&mut self, seq: u64, data: u64) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.seq == seq)
            .expect("late store data without an LSQ entry");
        assert!(e.addr.is_some(), "store data arrived before its address");
        e.data = Some(data);
    }

    /// Like [`Lsq::forward`], but fails with the sequence number of the
    /// oldest older store that overlaps the load's bytes and has not
    /// produced its data yet: the load waits for that store's data.
    pub fn forward_status(&self, seq: u64, addr: u64, bytes: u64) -> Result<[Option<u8>; 8], u64> {
        for e in self.entries.iter().take_while(|e| e.seq < seq) {
            if !e.is_store || e.data.is_some() {
                continue;
            }
            let Some(saddr) = e.addr else { continue };
            let overlap = addr < saddr.wrapping_add(e.bytes) && saddr < addr.wrapping_add(bytes);
            if overlap {
                return Err(e.seq);
            }
        }
        Ok(self.forward(seq, addr, bytes))
    }

    /// Byte-granular forwarding: returns each of the `bytes` bytes at
    /// `addr` as seen by the load at `seq` from *older stores in this
    /// queue*, or `None` where no older store covers the byte. Entries
    /// from `bytes` on are `None`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is over 8.
    pub fn forward(&self, seq: u64, addr: u64, bytes: u64) -> [Option<u8>; 8] {
        let mut out = [None; 8];
        let load = &mut out[..bytes as usize];
        // Oldest→youngest so younger stores overwrite older ones.
        for e in self.entries.iter().take_while(|e| e.seq < seq) {
            if !e.is_store {
                continue;
            }
            let (Some(saddr), Some(data)) = (e.addr, e.data) else { continue };
            for (i, slot) in load.iter_mut().enumerate() {
                let a = addr.wrapping_add(i as u64);
                let off = a.wrapping_sub(saddr);
                if off < e.bytes {
                    *slot = Some((data >> (8 * off)) as u8);
                }
            }
        }
        out
    }

    /// Releases the head entry at commit.
    ///
    /// # Panics
    ///
    /// Panics if the head does not match `seq` (commit must be in program
    /// order).
    pub fn commit_head(&mut self, seq: u64) {
        let head = self.entries.pop_front().expect("committing with empty LSQ");
        assert_eq!(head.seq, seq, "LSQ commit out of order");
    }

    /// Squashes every entry younger than `seq` (exclusive).
    pub fn squash_after(&mut self, seq: u64) {
        while let Some(back) = self.entries.back() {
            if back.seq > seq {
                self.entries.pop_back();
            } else {
                break;
            }
        }
    }

    /// The head entry, if any.
    pub fn head(&self) -> Option<&LsqEntry> {
        self.entries.front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::{Uop, UopSlab};
    use blackjack_isa::Inst;

    fn mk_ids(n: usize) -> Vec<UopId> {
        let mut slab = UopSlab::new();
        (0..n).map(|i| slab.insert(Uop::new(i as u64, 0, i as u64, 0, Inst::Nop))).collect()
    }

    #[test]
    fn allocation_in_order() {
        let ids = mk_ids(3);
        let mut q = Lsq::new(4);
        q.allocate(ids[0], 0, true, 8);
        q.allocate(ids[1], 5, false, 8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.head().unwrap().seq, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_allocation_panics() {
        let ids = mk_ids(2);
        let mut q = Lsq::new(4);
        q.allocate(ids[0], 5, true, 8);
        q.allocate(ids[1], 3, false, 8);
    }

    #[test]
    fn older_stores_gate_loads() {
        let ids = mk_ids(3);
        let mut q = Lsq::new(4);
        q.allocate(ids[0], 0, true, 8); // store, unexecuted
        q.allocate(ids[1], 1, false, 8); // load
        assert!(!q.older_stores_addr_known(1));
        q.execute(0, 100, None); // split store: address first, data later
        assert!(q.older_stores_addr_known(1));
    }

    #[test]
    fn loads_do_not_gate_loads() {
        let ids = mk_ids(2);
        let mut q = Lsq::new(4);
        q.allocate(ids[0], 0, false, 8); // older load, unexecuted
        q.allocate(ids[1], 1, false, 8);
        assert!(q.older_stores_addr_known(1));
    }

    #[test]
    fn forwarding_exact_and_partial() {
        let ids = mk_ids(3);
        let mut q = Lsq::new(4);
        q.allocate(ids[0], 0, true, 8);
        q.allocate(ids[1], 1, true, 4);
        q.allocate(ids[2], 2, false, 8);
        q.execute(0, 100, Some(0x1111_1111_1111_1111));
        q.execute(1, 104, Some(0x2222_2222));
        let f = q.forward(2, 100, 8);
        // Bytes 0..4 from the older 8B store, 4..8 from the younger word store.
        assert_eq!(f[0], Some(0x11));
        assert_eq!(f[3], Some(0x11));
        assert_eq!(f[4], Some(0x22));
        assert_eq!(f[7], Some(0x22));
        // A byte outside both stores:
        let f = q.forward(2, 108, 4);
        assert_eq!(f, [None; 8]);
    }

    #[test]
    fn a_load_waits_on_its_oldest_overlapping_store_without_data() {
        let ids = mk_ids(5);
        let mut q = Lsq::new(8);
        q.allocate(ids[0], 0, true, 8);
        q.allocate(ids[1], 1, true, 8);
        q.allocate(ids[2], 2, true, 4);
        q.allocate(ids[3], 3, false, 8);
        q.execute(0, 200, None); // no data, no overlap
        q.execute(1, 100, None); // overlaps, no data
        q.execute(2, 104, None); // overlaps, no data
        assert_eq!(q.forward_status(3, 100, 8), Err(1));
        q.set_data(2, 0xaabb_ccdd);
        assert_eq!(q.forward_status(3, 100, 8), Err(1));
        q.set_data(1, 0x1111_1111_1111_1111);
        let f = q.forward_status(3, 100, 8).expect("every overlapping store has data");
        assert_eq!(f[0], Some(0x11));
        assert_eq!(f[4], Some(0xdd));
        // Store 0 never overlaps, so its missing data never holds the load.
        assert_eq!(q.forward_status(3, 100, 8), Ok(q.forward(3, 100, 8)));
    }

    #[test]
    fn forwarding_ignores_younger_stores() {
        let ids = mk_ids(2);
        let mut q = Lsq::new(4);
        q.allocate(ids[0], 0, false, 8); // load at seq 0
        q.allocate(ids[1], 1, true, 8); // younger store
        q.execute(1, 100, Some(0xff));
        assert_eq!(q.forward(0, 100, 8), [None; 8]);
    }

    #[test]
    fn commit_pops_head_in_order() {
        let ids = mk_ids(2);
        let mut q = Lsq::new(4);
        q.allocate(ids[0], 0, true, 8);
        q.allocate(ids[1], 1, false, 8);
        q.commit_head(0);
        assert_eq!(q.head().unwrap().seq, 1);
    }

    #[test]
    #[should_panic]
    fn commit_wrong_seq_panics() {
        let ids = mk_ids(2);
        let mut q = Lsq::new(4);
        q.allocate(ids[0], 0, true, 8);
        q.commit_head(1);
    }

    #[test]
    fn squash_truncates_tail() {
        let ids = mk_ids(3);
        let mut q = Lsq::new(4);
        q.allocate(ids[0], 0, true, 8);
        q.allocate(ids[1], 1, false, 8);
        q.allocate(ids[2], 2, false, 8);
        q.squash_after(0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.head().unwrap().seq, 0);
    }
}
