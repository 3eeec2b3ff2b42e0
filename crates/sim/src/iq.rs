//! The shared, unified issue queue.
//!
//! SMT's unified issue queue is central to the paper's argument: RMT-style
//! segmentation would give spatial diversity for free but "would incur
//! substantial performance loss", so BlackJack keeps the queue unified and
//! unmodified, and recovers diversity through safe-shuffle plus the
//! dependence check at commit.
//!
//! The queue tracks dispatch (age) order — select is oldest-first — and
//! models the payload RAM: every resident instruction occupies a physical
//! payload entry whose index is exposed so payload-RAM faults can corrupt
//! whoever sits in a defective entry.
//!
//! Each resident is a compact [`Resident`] record written at dispatch: it
//! carries everything select reads, including a wait mark per register
//! operand that is still unwritten. Writeback clears the marks
//! ([`IssueQueue::wake`]), so select never touches the uop slab or the
//! register file to decide readiness.

use blackjack_isa::FuType;

use crate::uop::{PhysReg, UopId};

/// What select knows about one resident instruction (32 bytes).
#[derive(Debug, Clone, Copy)]
pub struct Resident {
    /// The uop in the slab.
    pub id: UopId,
    /// Trailing packet id ([`Resident::NO_PACKET`] when the uop carries
    /// none).
    pub packet: u64,
    /// The load's ordering key: its sequence number for a leading load
    /// (LSQ disambiguation), its load number for a trailing load (LVQ
    /// arrival). Unused unless [`Resident::is_load`].
    pub load_key: u64,
    /// Register operands that gate issue (`NO_REG` where absent; a
    /// store's data operand never gates).
    srcs: [PhysReg; 2],
    /// FU class select allocates a way of.
    pub fu: FuType,
    /// Payload-RAM entry the resident occupies (set by
    /// [`IssueQueue::insert`]).
    entry: u16,
    flags: u8,
}

/// `srcs` entry of an absent operand.
const NO_REG: PhysReg = PhysReg::MAX;

const TRAILING: u8 = 1;
const FILLER: u8 = 1 << 1;
const LOAD: u8 = 1 << 2;
const ISSUED: u8 = 1 << 3;
const WAIT0: u8 = 1 << 4;

impl Resident {
    /// `packet` of a uop outside any trailing packet.
    pub const NO_PACKET: u64 = u64::MAX;

    /// A resident record with no gating operands and no load condition.
    pub fn new(id: UopId, fu: FuType, trailing: bool, filler: bool, packet: Option<u64>) -> Resident {
        let mut flags = 0;
        if trailing {
            flags |= TRAILING;
        }
        if filler {
            flags |= FILLER;
        }
        Resident {
            id,
            packet: packet.unwrap_or(Resident::NO_PACKET),
            load_key: 0,
            srcs: [NO_REG; 2],
            fu,
            entry: 0,
            flags,
        }
    }

    /// Gates issue on register operands `srcs`, marking those for which
    /// `written` is false as waiting.
    pub fn gated_on(mut self, srcs: [Option<PhysReg>; 2], written: impl Fn(PhysReg) -> bool) -> Resident {
        for (i, src) in srcs.into_iter().enumerate() {
            if let Some(p) = src {
                self.srcs[i] = p;
                if !written(p) {
                    self.flags |= WAIT0 << i;
                }
            }
        }
        self
    }

    /// Gates issue on the LSQ (leading) or LVQ (trailing) condition of
    /// the load with ordering key `key`.
    pub fn load(mut self, key: u64) -> Resident {
        self.flags |= LOAD;
        self.load_key = key;
        self
    }

    /// True for the trailing context.
    pub fn is_trailing(&self) -> bool {
        self.flags & TRAILING != 0
    }

    /// True for a safe-shuffle filler NOP.
    pub fn is_filler(&self) -> bool {
        self.flags & FILLER != 0
    }

    /// True for a load gated by the LSQ or LVQ (see `load_key`).
    pub fn is_load(&self) -> bool {
        self.flags & LOAD != 0
    }

    /// True once select issued the resident this cycle.
    pub fn is_issued(&self) -> bool {
        self.flags & ISSUED != 0
    }

    /// True while any gating register operand is unwritten.
    pub fn waits_on_registers(&self) -> bool {
        self.flags & (WAIT0 | WAIT0 << 1) != 0
    }

    /// The payload-RAM entry the resident occupies.
    pub fn entry(&self) -> usize {
        self.entry as usize
    }

    fn context_is(&self, trailing: bool) -> bool {
        self.is_trailing() == trailing
    }
}

/// The unified issue queue shared by both SMT contexts.
#[derive(Debug, Clone)]
pub struct IssueQueue {
    capacity: usize,
    /// Residents in dispatch (age) order, oldest first.
    order: Vec<Resident>,
    /// Payload RAM occupancy; residents reference indices here.
    payload: Vec<bool>,
}

impl IssueQueue {
    /// Creates a queue with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a payload index.
    pub fn new(capacity: usize) -> IssueQueue {
        assert!(capacity > 0, "issue queue capacity must be positive");
        assert!(capacity <= u16::MAX as usize, "issue queue capacity {capacity} too large");
        IssueQueue { capacity, order: Vec::with_capacity(capacity), payload: vec![false; capacity] }
    }

    /// Number of resident instructions.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if the queue holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Free entries remaining.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.order.len()
    }

    /// True if no more instructions can be dispatched.
    pub fn is_full(&self) -> bool {
        self.order.len() >= self.capacity
    }

    /// Dispatches a resident into the lowest free payload-RAM entry,
    /// returning that entry, or `None` if the queue is full.
    pub fn insert(&mut self, mut r: Resident) -> Option<usize> {
        if self.is_full() {
            return None;
        }
        let entry = self.payload.iter().position(|used| !used)?;
        self.payload[entry] = true;
        r.entry = entry as u16;
        self.order.push(r);
        Some(entry)
    }

    /// Residents in age order, oldest first.
    pub fn residents(&self) -> &[Resident] {
        &self.order
    }

    /// Marks the resident at age position `i` issued; it stays visible to
    /// the rest of this cycle's select and leaves at
    /// [`IssueQueue::retire_issued`].
    pub fn mark_issued(&mut self, i: usize) {
        self.order[i].flags |= ISSUED;
    }

    /// Removes every resident issued this cycle, freeing its payload
    /// entry.
    pub fn retire_issued(&mut self) {
        let payload = &mut self.payload;
        self.order.retain(|r| {
            if r.is_issued() {
                payload[r.entry()] = false;
                false
            } else {
                true
            }
        });
    }

    /// Writeback of `p` in the given context: clears the wait mark of
    /// every resident operand reading it.
    pub fn wake(&mut self, trailing: bool, p: PhysReg) {
        for r in self.order.iter_mut().filter(|r| r.context_is(trailing)) {
            for i in 0..2 {
                if r.srcs[i] == p {
                    r.flags &= !(WAIT0 << i);
                }
            }
        }
    }

    /// `p` became unwritten again (reallocated while a resident still
    /// reads it): marks every resident operand reading it as waiting.
    pub fn unwake(&mut self, trailing: bool, p: PhysReg) {
        for r in self.order.iter_mut().filter(|r| r.context_is(trailing)) {
            for i in 0..2 {
                if r.srcs[i] == p {
                    r.flags |= WAIT0 << i;
                }
            }
        }
    }

    /// Removes a uop (on squash). Returns true if it was present.
    pub fn remove(&mut self, id: UopId) -> bool {
        if let Some(pos) = self.order.iter().position(|r| r.id == id) {
            let r = self.order.remove(pos);
            self.payload[r.entry()] = false;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::{Uop, UopSlab};
    use blackjack_isa::Inst;

    fn ids(n: usize) -> (UopSlab, Vec<UopId>) {
        let mut slab = UopSlab::new();
        let ids = (0..n).map(|i| slab.insert(Uop::new(i as u64, 0, i as u64, 0, Inst::Nop))).collect();
        (slab, ids)
    }

    fn ready(id: UopId) -> Resident {
        Resident::new(id, FuType::IntAlu, false, false, None)
    }

    fn order(q: &IssueQueue) -> Vec<UopId> {
        q.residents().iter().map(|r| r.id).collect()
    }

    #[test]
    fn a_resident_record_fits_half_a_cache_line() {
        assert!(std::mem::size_of::<Resident>() <= 32, "{}", std::mem::size_of::<Resident>());
    }

    #[test]
    fn age_order_preserved() {
        let (_s, ids) = ids(3);
        let mut q = IssueQueue::new(8);
        for id in &ids {
            q.insert(ready(*id)).unwrap();
        }
        assert_eq!(order(&q), ids);
    }

    #[test]
    fn capacity_enforced() {
        let (_s, ids) = ids(3);
        let mut q = IssueQueue::new(2);
        assert!(q.insert(ready(ids[0])).is_some());
        assert!(q.insert(ready(ids[1])).is_some());
        assert!(q.is_full());
        assert!(q.insert(ready(ids[2])).is_none());
    }

    #[test]
    fn payload_entries_are_reused() {
        let (_s, ids) = ids(3);
        let mut q = IssueQueue::new(2);
        let e0 = q.insert(ready(ids[0])).unwrap();
        let _e1 = q.insert(ready(ids[1])).unwrap();
        q.remove(ids[0]);
        let e2 = q.insert(ready(ids[2])).unwrap();
        assert_eq!(e0, e2, "freed payload entry is recycled — the payload-RAM aliasing hazard");
        assert_eq!(q.residents()[1].entry(), e2);
    }

    #[test]
    fn remove_middle_keeps_order() {
        let (_s, ids) = ids(3);
        let mut q = IssueQueue::new(4);
        for id in &ids {
            q.insert(ready(*id)).unwrap();
        }
        q.remove(ids[1]);
        assert_eq!(order(&q), vec![ids[0], ids[2]]);
        assert_eq!(q.free_slots(), 2);
    }

    #[test]
    fn remove_absent_is_false() {
        let (_s, ids) = ids(2);
        let mut q = IssueQueue::new(2);
        q.insert(ready(ids[0])).unwrap();
        assert!(!q.remove(ids[1]));
    }

    #[test]
    fn issued_residents_leave_after_select_and_free_their_entries() {
        let (_s, ids) = ids(3);
        let mut q = IssueQueue::new(3);
        for id in &ids {
            q.insert(ready(*id)).unwrap();
        }
        q.mark_issued(0);
        q.mark_issued(2);
        assert_eq!(q.len(), 3, "issued residents stay until select ends");
        assert!(q.residents()[0].is_issued());
        q.retire_issued();
        assert_eq!(order(&q), vec![ids[1]]);
        assert_eq!(q.insert(ready(ids[0])), Some(0), "lowest freed entry first");
    }

    #[test]
    fn writeback_wakes_only_matching_operands_of_its_context() {
        let (_s, ids) = ids(3);
        let mut q = IssueQueue::new(4);
        let wait = |id, trailing, srcs| {
            Resident::new(id, FuType::IntAlu, trailing, false, None).gated_on(srcs, |_| false)
        };
        q.insert(wait(ids[0], false, [Some(70), Some(71)])).unwrap();
        q.insert(wait(ids[1], true, [Some(70), None])).unwrap();
        q.insert(wait(ids[2], false, [Some(71), Some(71)])).unwrap();
        q.wake(false, 71);
        let waits: Vec<bool> = q.residents().iter().map(|r| r.waits_on_registers()).collect();
        assert_eq!(waits, [true, true, false], "p71 readied both operands of the third");
        q.wake(false, 70);
        assert!(!q.residents()[0].waits_on_registers());
        assert!(q.residents()[1].waits_on_registers(), "the trailing file's p70 is unwritten");
        q.unwake(false, 71);
        let waits: Vec<bool> = q.residents().iter().map(|r| r.waits_on_registers()).collect();
        assert_eq!(waits, [true, true, true]);
        q.wake(true, 70);
        q.wake(false, 71);
        assert!(q.residents().iter().all(|r| !r.waits_on_registers()));
    }
}
