//! The Dependence Trace Queue (§4.2.1).
//!
//! Entries are *allocated at leading issue*, in issue order, with packet
//! boundaries demarcating instructions that co-issued in one cycle.
//! Instructions *record* their payload (undecoded instruction, rename
//! maps, way IDs, virtual active-list/LSQ indices) when they commit;
//! squashed instructions leave tombstones. Safe-shuffle consumes whole
//! packets from the head once every member has committed, so the trailing
//! thread — like SRT's — never executes misspeculated instructions.

use blackjack_isa::FuType;

use crate::uop::{MaybeSeq, PhysReg};

/// Everything a committed leading instruction deposits for its trailing
/// copy: the paper's instruction word, rename maps, way IDs and virtual
/// indices. Way numbers are bytes and optional sequence numbers
/// [`MaybeSeq`] words, so an entry fits 72 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DtqPayload {
    /// The undecoded instruction word, pristine (as stored in memory).
    /// The trailing frontend applies its *own* way's fault corruption to
    /// this word at fetch, so a leading frontend fault cannot silently
    /// replicate into both copies.
    pub raw: u32,
    /// Fetch PC.
    pub pc: u64,
    /// Committed next PC (program-order check input).
    pub next_pc: u64,
    /// Program-order sequence number — the virtual active-list index.
    pub seq: u64,
    /// Load sequence number (virtual LVQ index), for loads.
    pub load_seq: MaybeSeq,
    /// Store sequence number, for stores.
    pub store_seq: MaybeSeq,
    /// Memory-op sequence number (the virtual LSQ index), for loads and
    /// stores.
    pub mem_seq: MaybeSeq,
    /// Leading physical source registers (the borrowed rename maps).
    pub lead_srcs: [Option<PhysReg>; 2],
    /// Leading physical destination register.
    pub lead_dst: Option<PhysReg>,
    /// Frontend way the leading copy used.
    pub front_way: u8,
    /// Backend way the leading copy used.
    pub back_way: u8,
    /// FU class of the instruction.
    pub fu: FuType,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum EntryState {
    Pending,
    Committed(DtqPayload),
    Squashed,
    /// Consumed out of order by [`Dtq::pop_committed_starved`]; the slot
    /// is kept as a placeholder so outstanding entry indices stay valid.
    Consumed,
}

#[derive(Debug, Clone)]
struct DtqEntry {
    state: EntryState,
    end_of_packet: bool,
}

/// The Dependence Trace Queue.
///
/// Allocation returns a stable index used to record or squash the entry
/// later; indices are never reused while the entry is resident.
#[derive(Debug, Clone)]
pub struct Dtq {
    entries: std::collections::VecDeque<DtqEntry>,
    /// Allocation index of the current front entry.
    front_index: u64,
    /// Resident entries in the `Committed` state: what
    /// [`Dtq::pop_committed_starved`] can harvest.
    committed: usize,
    capacity: usize,
    /// Statistics: packets consumed.
    packets_popped: u64,
}

impl Dtq {
    /// Creates a DTQ with `capacity` instruction entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Dtq {
        assert!(capacity > 0, "DTQ capacity must be positive");
        Dtq {
            entries: std::collections::VecDeque::with_capacity(capacity),
            front_index: 0,
            committed: 0,
            capacity,
            packets_popped: 0,
        }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Remaining allocation slots.
    pub fn free_slots(&self) -> usize {
        self.capacity - self.entries.len()
    }

    /// Packets consumed so far.
    pub fn packets_popped(&self) -> u64 {
        self.packets_popped
    }

    /// Allocates an entry at leading issue; `end_of_packet` marks the last
    /// instruction issued this cycle. Returns the entry's stable index.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — leading issue must stall instead.
    pub fn allocate(&mut self, end_of_packet: bool) -> u64 {
        assert!(self.free_slots() > 0, "DTQ overflow — leading issue must stall");
        let idx = self.front_index + self.entries.len() as u64;
        self.entries.push_back(DtqEntry { state: EntryState::Pending, end_of_packet });
        idx
    }

    fn slot_mut(&mut self, index: u64) -> &mut DtqEntry {
        let off = index
            .checked_sub(self.front_index)
            .expect("DTQ index before window") as usize;
        self.entries.get_mut(off).expect("DTQ index after window")
    }

    /// Records a committed instruction's payload into its entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is outside the window or not pending.
    pub fn record(&mut self, index: u64, payload: DtqPayload) {
        let e = self.slot_mut(index);
        assert_eq!(e.state, EntryState::Pending, "DTQ entry recorded twice");
        e.state = EntryState::Committed(payload);
        self.committed += 1;
    }

    /// Tombstones a squashed instruction's entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is outside the window or already committed.
    pub fn squash(&mut self, index: u64) {
        let e = self.slot_mut(index);
        assert!(
            !matches!(e.state, EntryState::Committed(_)),
            "cannot squash a committed DTQ entry"
        );
        e.state = EntryState::Squashed;
    }

    /// Starvation escape: harvests up to `max` *committed* entries from
    /// anywhere in the queue, in order, skipping pending ones.
    ///
    /// Safe because commit is program-ordered: a committed entry is
    /// program-older than — and therefore independent of — every pending
    /// (uncommitted) entry ahead of it, and committed entries keep their
    /// mutual (dataflow-respecting) order. Used only when the trailing
    /// thread would otherwise starve behind a commit-stalled entry (e.g.,
    /// a store waiting on a full store buffer that only the trailing
    /// thread can drain). The caller must *not* shuffle the result — the
    /// harvested entries are not mutually independent — and should issue
    /// them as single-instruction packets.
    pub fn pop_committed_starved(&mut self, max: usize) -> Option<Vec<DtqPayload>> {
        let mut out = Vec::new();
        // The walk stops once nothing committed is left to harvest, so a
        // queue with no committed entry is not walked at all.
        for e in self.entries.iter_mut() {
            if out.len() >= max || self.committed == 0 {
                break;
            }
            if let EntryState::Committed(p) = e.state {
                out.push(p);
                e.state = EntryState::Consumed;
                self.committed -= 1;
            }
        }
        // Compact the fully-consumed front so the window advances.
        while matches!(
            self.entries.front().map(|e| &e.state),
            Some(EntryState::Consumed) | Some(EntryState::Squashed)
        ) {
            self.entries.pop_front();
            self.front_index += 1;
        }
        if out.is_empty() {
            None
        } else {
            self.packets_popped += 1;
            Some(out)
        }
    }

    /// Pops the next complete packet: the committed payloads of the head
    /// packet, once none of its members is still pending. Empty packets
    /// (fully squashed) are skipped. Returns `None` when the head packet
    /// is incomplete or the queue is empty.
    pub fn pop_packet(&mut self) -> Option<Vec<DtqPayload>> {
        loop {
            // Find the head packet's extent.
            let mut span = 0;
            let mut found_end = false;
            for e in self.entries.iter() {
                span += 1;
                if matches!(e.state, EntryState::Pending) {
                    return None;
                }
                if e.end_of_packet {
                    found_end = true;
                    break;
                }
            }
            if !found_end {
                return None; // packet still being issued
            }
            let mut out = Vec::new();
            for _ in 0..span {
                let e = self.entries.pop_front().expect("span within bounds");
                self.front_index += 1;
                if let EntryState::Committed(p) = e.state {
                    out.push(p);
                    self.committed -= 1;
                }
                // Squashed and Consumed entries are tombstones.
            }
            if !out.is_empty() {
                self.packets_popped += 1;
                return Some(out);
            }
            // Fully squashed packet: skip and retry.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(seq: u64) -> DtqPayload {
        DtqPayload {
            raw: 0,
            pc: 0x1000 + seq * 4,
            next_pc: 0x1004 + seq * 4,
            seq,
            load_seq: MaybeSeq::NONE,
            store_seq: MaybeSeq::NONE,
            mem_seq: MaybeSeq::NONE,
            lead_srcs: [None, None],
            lead_dst: None,
            front_way: 0,
            back_way: 0,
            fu: FuType::IntAlu,
        }
    }

    #[test]
    fn a_payload_fits_72_bytes() {
        // Every snapshot copies the DTQ's committed entries.
        assert!(std::mem::size_of::<DtqPayload>() <= 72, "{}", std::mem::size_of::<DtqPayload>());
    }

    #[test]
    fn packet_pops_only_when_complete() {
        let mut d = Dtq::new(16);
        let a = d.allocate(false);
        let b = d.allocate(true);
        assert!(d.pop_packet().is_none(), "both pending");
        d.record(a, payload(0));
        assert!(d.pop_packet().is_none(), "one pending");
        d.record(b, payload(1));
        let p = d.pop_packet().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].seq, 0);
        assert_eq!(p[1].seq, 1);
    }

    #[test]
    fn commit_out_of_issue_order() {
        let mut d = Dtq::new(16);
        let a = d.allocate(true); // packet 1
        let b = d.allocate(true); // packet 2
        // The packet-2 instruction commits first (it issued later but is
        // program-older? No — commit order is program order; issue order
        // differs. The DTQ must tolerate recording in any order.)
        d.record(b, payload(1));
        assert!(d.pop_packet().is_none(), "head packet still pending");
        d.record(a, payload(0));
        assert_eq!(d.pop_packet().unwrap()[0].seq, 0);
        assert_eq!(d.pop_packet().unwrap()[0].seq, 1);
    }

    #[test]
    fn squashed_members_are_skipped() {
        let mut d = Dtq::new(16);
        let a = d.allocate(false);
        let b = d.allocate(false);
        let c = d.allocate(true);
        d.record(a, payload(0));
        d.squash(b);
        d.record(c, payload(2));
        let p = d.pop_packet().unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p[1].seq, 2);
    }

    #[test]
    fn fully_squashed_packet_is_transparent() {
        let mut d = Dtq::new(16);
        let a = d.allocate(true);
        let b = d.allocate(true);
        d.squash(a);
        d.record(b, payload(9));
        let p = d.pop_packet().unwrap();
        assert_eq!(p[0].seq, 9);
        assert!(d.is_empty());
    }

    #[test]
    fn unfinished_packet_not_popped() {
        let mut d = Dtq::new(16);
        let a = d.allocate(false); // packet never closed
        d.record(a, payload(0));
        assert!(d.pop_packet().is_none());
    }

    #[test]
    fn capacity_and_free_slots() {
        let mut d = Dtq::new(2);
        d.allocate(false);
        assert_eq!(d.free_slots(), 1);
        d.allocate(true);
        assert_eq!(d.free_slots(), 0);
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let mut d = Dtq::new(1);
        d.allocate(false);
        d.allocate(false);
    }

    #[test]
    fn starved_harvest_takes_committed_entries_around_pending_ones() {
        let mut d = Dtq::new(8);
        let a = d.allocate(true);
        let b = d.allocate(true);
        let c = d.allocate(true);
        let e = d.allocate(true);
        let f = d.allocate(true);
        assert!(d.pop_committed_starved(4).is_none(), "nothing committed");
        assert_eq!(d.len(), 5, "nothing to compact in front of a pending entry");
        d.squash(a);
        assert!(d.pop_committed_starved(4).is_none(), "still nothing committed");
        assert_eq!(d.len(), 4, "the squashed front compacts all the same");
        d.record(c, payload(2));
        d.record(e, payload(3));
        d.squash(b);
        let got = d.pop_committed_starved(1).unwrap();
        assert_eq!(got.iter().map(|p| p.seq).collect::<Vec<_>>(), [2]);
        // The squashed front and the consumed entry behind it compact.
        assert_eq!(d.len(), 2);
        assert_eq!(d.pop_committed_starved(4).unwrap()[0].seq, 3);
        assert!(d.pop_committed_starved(4).is_none(), "the pending entry stays");
        assert_eq!(d.len(), 1);
        d.record(f, payload(4));
        assert_eq!(d.pop_packet().unwrap()[0].seq, 4);
        assert!(d.is_empty());
        assert_eq!(d.packets_popped(), 3);
    }

    #[test]
    fn window_indices_stay_valid_across_pops() {
        let mut d = Dtq::new(8);
        let a = d.allocate(true);
        d.record(a, payload(0));
        d.pop_packet().unwrap();
        let b = d.allocate(true);
        d.record(b, payload(1)); // index 1, window base moved
        assert_eq!(d.pop_packet().unwrap()[0].seq, 1);
        assert_eq!(d.packets_popped(), 2);
    }
}
