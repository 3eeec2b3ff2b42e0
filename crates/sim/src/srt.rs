//! SRT's leading→trailing communication queues: the Branch Outcome Queue
//! (BOQ), the Load Value Queue (LVQ), and the way log used for diversity
//! accounting in SRT mode.

/// One committed leading branch outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoqEntry {
    /// Per-context control-flow sequence number (counts branches/jumps).
    pub branch_seq: u64,
    /// Whether the branch redirected.
    pub taken: bool,
    /// The committed next PC.
    pub next_pc: u64,
}

/// The Branch Outcome Queue: leading branch outcomes consumed by the
/// trailing thread as perfect predictions (SRT mode).
#[derive(Debug, Clone)]
pub struct Boq {
    entries: std::collections::VecDeque<BoqEntry>,
    capacity: usize,
}

impl Boq {
    /// Creates a queue of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Boq {
        assert!(capacity > 0, "BOQ capacity must be positive");
        Boq { entries: std::collections::VecDeque::with_capacity(capacity), capacity }
    }

    /// Number of buffered outcomes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the leading thread must stall before committing another
    /// branch.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Pushes an outcome at leading commit.
    ///
    /// # Panics
    ///
    /// Panics if full — leading commit must stall instead.
    pub fn push(&mut self, e: BoqEntry) {
        assert!(!self.is_full(), "BOQ overflow — leading commit must stall");
        if let Some(back) = self.entries.back() {
            debug_assert!(back.branch_seq < e.branch_seq);
        }
        self.entries.push_back(e);
    }

    /// Consumes the next outcome (at trailing fetch of the branch).
    pub fn pop(&mut self) -> Option<BoqEntry> {
        self.entries.pop_front()
    }
}

/// One committed leading load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LvqEntry {
    /// Per-context load sequence number.
    pub load_seq: u64,
    /// Leading effective address (checked against the trailing address).
    pub addr: u64,
    /// The loaded (extended) value forwarded to the trailing thread.
    pub value: u64,
    /// SEC-DED check bits generated over the clean load value at the
    /// protected end of the load path (`CoreConfig::lvq_ecc`); zero when
    /// ECC is disabled. Decoded at the trailing read port.
    pub ecc: u8,
}

/// The Load Value Queue: leading load values consumed by trailing loads so
/// the trailing thread never touches the cache (§3).
///
/// BlackJack's trailing thread executes loads out of program order, so
/// lookups are by load sequence number rather than strictly FIFO; entries
/// are retired in order at trailing commit.
#[derive(Debug, Clone)]
pub struct Lvq {
    entries: std::collections::VecDeque<LvqEntry>,
    capacity: usize,
}

impl Lvq {
    /// Creates a queue of the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Lvq {
        assert!(capacity > 0, "LVQ capacity must be positive");
        Lvq { entries: std::collections::VecDeque::with_capacity(capacity), capacity }
    }

    /// Number of buffered loads.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if the leading thread must stall before committing another
    /// load.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Pushes a load at leading commit.
    ///
    /// # Panics
    ///
    /// Panics if full — leading commit must stall instead.
    pub fn push(&mut self, e: LvqEntry) {
        assert!(!self.is_full(), "LVQ overflow — leading commit must stall");
        if let Some(back) = self.entries.back() {
            debug_assert!(back.load_seq < e.load_seq);
        }
        self.entries.push_back(e);
    }

    /// The physical payload-RAM slot the entry for `load_seq` occupies:
    /// the queue is a circular RAM, so the slot is the load sequence
    /// number modulo capacity. Fault plans target slots, not sequence
    /// numbers ([`FaultSite::LvqPayload`](blackjack_faults::FaultSite)).
    pub fn slot_of(&self, load_seq: u64) -> usize {
        (load_seq % self.capacity as u64) as usize
    }

    /// The queue's capacity (number of payload-RAM slots).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up the entry for `load_seq` (out-of-order trailing access).
    pub fn lookup(&self, load_seq: u64) -> Option<&LvqEntry> {
        // Entries are in load_seq order; binary search.
        let base = self.entries.front()?.load_seq;
        if load_seq < base {
            return None;
        }
        let idx = (load_seq - base) as usize;
        let e = self.entries.get(idx)?;
        debug_assert_eq!(e.load_seq, load_seq);
        Some(e)
    }

    /// Retires every entry up to and including `load_seq` (at trailing
    /// commit of the load).
    pub fn retire_through(&mut self, load_seq: u64) {
        while matches!(self.entries.front(), Some(e) if e.load_seq <= load_seq) {
            self.entries.pop_front();
        }
    }
}

/// Leading-copy resource usage, recorded at leading commit and consumed at
/// trailing commit to evaluate spatial diversity (SRT mode; in BlackJack
/// mode the DTQ carries this information instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayRecord {
    /// Program-order sequence number.
    pub seq: u64,
    /// Frontend way the leading copy used.
    pub front_way: usize,
    /// Backend way the leading copy used.
    pub back_way: usize,
}

/// Sequence-indexed log of leading-copy way usage.
#[derive(Debug, Clone, Default)]
pub struct WayLog {
    entries: std::collections::VecDeque<WayRecord>,
}

impl WayLog {
    /// Creates an empty log.
    pub fn new() -> WayLog {
        WayLog::default()
    }

    /// Records the leading copy of `seq`.
    pub fn push(&mut self, rec: WayRecord) {
        if let Some(back) = self.entries.back() {
            debug_assert!(back.seq < rec.seq);
        }
        self.entries.push_back(rec);
    }

    /// Looks up and retires the record for `seq`.
    ///
    /// Records older than `seq` are dropped (they can only be left over
    /// from squashed leading instructions, which never happens for
    /// committed records — the lookup is strict in practice).
    pub fn take(&mut self, seq: u64) -> Option<WayRecord> {
        while let Some(front) = self.entries.front() {
            match front.seq.cmp(&seq) {
                std::cmp::Ordering::Less => {
                    self.entries.pop_front();
                }
                std::cmp::Ordering::Equal => return self.entries.pop_front(),
                std::cmp::Ordering::Greater => return None,
            }
        }
        None
    }

    /// Looks up the record for `seq` without retiring it (used at trailing
    /// issue for interference classification).
    pub fn get(&self, seq: u64) -> Option<&WayRecord> {
        let base = self.entries.front()?.seq;
        if seq < base {
            return None;
        }
        let e = self.entries.get((seq - base) as usize)?;
        debug_assert_eq!(e.seq, seq);
        Some(e)
    }

    /// Number of outstanding records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no records are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boq_fifo() {
        let mut b = Boq::new(2);
        b.push(BoqEntry { branch_seq: 0, taken: true, next_pc: 8 });
        b.push(BoqEntry { branch_seq: 1, taken: false, next_pc: 12 });
        assert!(b.is_full());
        assert_eq!(b.pop().unwrap().branch_seq, 0);
        assert_eq!(b.pop().unwrap().branch_seq, 1);
        assert!(b.pop().is_none());
    }

    #[test]
    #[should_panic]
    fn boq_overflow_panics() {
        let mut b = Boq::new(1);
        b.push(BoqEntry { branch_seq: 0, taken: true, next_pc: 8 });
        b.push(BoqEntry { branch_seq: 1, taken: true, next_pc: 8 });
    }

    #[test]
    fn lvq_indexed_lookup() {
        let mut l = Lvq::new(8);
        for i in 0..4 {
            l.push(LvqEntry { load_seq: i, addr: 100 + i, value: i * 10, ecc: 0 });
        }
        assert_eq!(l.lookup(2).unwrap().value, 20);
        assert_eq!(l.lookup(0).unwrap().addr, 100);
        assert!(l.lookup(4).is_none());
    }

    #[test]
    fn lvq_retire_slides_window() {
        let mut l = Lvq::new(8);
        for i in 0..4 {
            l.push(LvqEntry { load_seq: i, addr: 0, value: i, ecc: 0 });
        }
        l.retire_through(1);
        assert_eq!(l.len(), 2);
        assert!(l.lookup(1).is_none(), "retired");
        assert_eq!(l.lookup(3).unwrap().value, 3);
    }

    #[test]
    fn lvq_lookup_before_window_is_none() {
        let mut l = Lvq::new(4);
        l.push(LvqEntry { load_seq: 5, addr: 0, value: 0, ecc: 0 });
        assert_eq!(l.slot_of(5), 1, "circular RAM: slot = seq % capacity");
        assert!(l.lookup(4).is_none());
    }

    #[test]
    fn waylog_take_in_order() {
        let mut w = WayLog::new();
        w.push(WayRecord { seq: 0, front_way: 1, back_way: 2 });
        w.push(WayRecord { seq: 1, front_way: 3, back_way: 4 });
        let r = w.take(0).unwrap();
        assert_eq!((r.front_way, r.back_way), (1, 2));
        assert_eq!(w.take(1).unwrap().front_way, 3);
        assert!(w.is_empty());
    }

    #[test]
    fn waylog_missing_seq() {
        let mut w = WayLog::new();
        w.push(WayRecord { seq: 5, front_way: 0, back_way: 0 });
        assert!(w.take(3).is_none(), "older than window");
        assert_eq!(w.take(5).unwrap().seq, 5);
    }
}
