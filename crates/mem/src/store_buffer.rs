//! The SRT store buffer: committed leading-thread stores awaiting the
//! trailing-thread comparison.
//!
//! In SRT (and BlackJack), a leading store does not update memory at
//! commit. It waits here until the corresponding trailing store commits;
//! the pair is compared on *address and data*, and only on agreement is the
//! store released to the memory image. A mismatch is an error detection.

use blackjack_isa::PagedMem;

/// One buffered store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreRecord {
    /// Effective address.
    pub addr: u64,
    /// Access size in bytes (1, 4, or 8).
    pub bytes: u64,
    /// Width-truncated store data.
    pub data: u64,
    /// Program-order store sequence number (per thread).
    pub seq: u64,
}

/// Outcome of checking a trailing store against the buffer head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreCheck {
    /// Addresses and data agree; the store was released to memory.
    Match,
    /// The pair disagrees — a fault was detected. The buffered (leading)
    /// record is returned for diagnosis; memory was *not* updated.
    Mismatch(StoreRecord),
    /// The buffer is empty: the trailing thread produced a store the
    /// leading thread never committed (a program-order error).
    Unpaired,
}

/// FIFO buffer of committed, unchecked leading stores.
///
/// Also serves leading-thread load forwarding: loads younger than a
/// committed-but-unreleased store must see its data, which
/// [`StoreBuffer::read_through`] provides at byte granularity.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: std::collections::VecDeque<StoreRecord>,
    capacity: usize,
    checked: u64,
    mismatches: u64,
}

impl StoreBuffer {
    /// Creates a buffer holding at most `capacity` stores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> StoreBuffer {
        assert!(capacity > 0, "store buffer capacity must be positive");
        StoreBuffer {
            entries: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            checked: 0,
            mismatches: 0,
        }
    }

    /// Number of buffered stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no stores are buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if another store cannot be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Stores checked (released or mismatched) so far.
    pub fn checked(&self) -> u64 {
        self.checked
    }

    /// Mismatches observed so far.
    pub fn mismatches(&self) -> u64 {
        self.mismatches
    }

    /// Buffers a committed leading store.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full; the pipeline must stall commit instead
    /// of pushing into a full buffer.
    pub fn push(&mut self, rec: StoreRecord) {
        assert!(!self.is_full(), "store buffer overflow — commit must stall");
        self.entries.push_back(rec);
    }

    /// Checks a trailing store against the buffer head (stores commit in
    /// program order in both threads, so the head is the partner).
    ///
    /// On a match the store is written to `mem` and retired from the
    /// buffer. On a mismatch the leading record is retired but **not**
    /// written, and the discrepancy is counted.
    pub fn check(&mut self, addr: u64, bytes: u64, data: u64, mem: &mut PagedMem) -> StoreCheck {
        let Some(lead) = self.entries.pop_front() else {
            self.mismatches += 1;
            return StoreCheck::Unpaired;
        };
        self.checked += 1;
        if lead.addr == addr && lead.bytes == bytes && lead.data == data {
            mem.write_sized(addr, bytes, data);
            StoreCheck::Match
        } else {
            self.mismatches += 1;
            StoreCheck::Mismatch(lead)
        }
    }

    /// Reads `bytes` (1, 4, or 8) at `addr`, seeing buffered stores
    /// (youngest first) in front of memory, at byte granularity.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not 1, 4, or 8.
    pub fn read_through(&self, addr: u64, bytes: u64, mem: &PagedMem) -> u64 {
        let backing = mem.read_sized(addr, bytes);
        let mut out = 0u64;
        for i in 0..bytes {
            let a = addr.wrapping_add(i);
            let byte = self
                .entries
                .iter()
                .rev()
                .find_map(|r| {
                    let off = a.wrapping_sub(r.addr);
                    (off < r.bytes).then(|| (r.data >> (8 * off)) as u8)
                })
                .unwrap_or((backing >> (8 * i)) as u8);
            out |= (byte as u64) << (8 * i);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(addr: u64, bytes: u64, data: u64, seq: u64) -> StoreRecord {
        StoreRecord { addr, bytes, data, seq }
    }

    #[test]
    fn matching_pair_releases_to_memory() {
        let mut sb = StoreBuffer::new(4);
        let mut mem = PagedMem::new();
        sb.push(rec(100, 8, 7, 0));
        assert_eq!(mem.read_u64(100), 0, "not visible before check");
        assert_eq!(sb.check(100, 8, 7, &mut mem), StoreCheck::Match);
        assert_eq!(mem.read_u64(100), 7);
        assert!(sb.is_empty());
    }

    #[test]
    fn data_mismatch_detected_and_blocked() {
        let mut sb = StoreBuffer::new(4);
        let mut mem = PagedMem::new();
        sb.push(rec(100, 8, 7, 0));
        let out = sb.check(100, 8, 8, &mut mem);
        assert!(matches!(out, StoreCheck::Mismatch(r) if r.data == 7));
        assert_eq!(mem.read_u64(100), 0, "corrupt store never reaches memory");
        assert_eq!(sb.mismatches(), 1);
    }

    #[test]
    fn addr_mismatch_detected() {
        let mut sb = StoreBuffer::new(4);
        let mut mem = PagedMem::new();
        sb.push(rec(100, 8, 7, 0));
        assert!(matches!(sb.check(104, 8, 7, &mut mem), StoreCheck::Mismatch(_)));
    }

    #[test]
    fn unpaired_trailing_store_detected() {
        let mut sb = StoreBuffer::new(4);
        let mut mem = PagedMem::new();
        assert_eq!(sb.check(0, 8, 0, &mut mem), StoreCheck::Unpaired);
        assert_eq!(sb.mismatches(), 1);
    }

    #[test]
    fn fifo_order() {
        let mut sb = StoreBuffer::new(4);
        let mut mem = PagedMem::new();
        sb.push(rec(0, 8, 1, 0));
        sb.push(rec(8, 8, 2, 1));
        assert_eq!(sb.check(0, 8, 1, &mut mem), StoreCheck::Match);
        assert_eq!(sb.check(8, 8, 2, &mut mem), StoreCheck::Match);
    }

    #[test]
    #[should_panic]
    fn overflow_panics() {
        let mut sb = StoreBuffer::new(1);
        sb.push(rec(0, 8, 0, 0));
        sb.push(rec(8, 8, 0, 1));
    }

    #[test]
    fn read_through_sees_youngest_store() {
        let mut sb = StoreBuffer::new(4);
        let mut mem = PagedMem::new();
        mem.write_u64(0, 0x1111_1111_1111_1111);
        sb.push(rec(0, 8, 0x2222_2222_2222_2222, 0));
        sb.push(rec(0, 4, 0x3333_3333, 1));
        // Low 4 bytes from the younger word store, high 4 from the older.
        assert_eq!(sb.read_through(0, 8, &mem), 0x2222_2222_3333_3333);
        // Bytes beyond any buffered store come from memory.
        assert_eq!(sb.read_through(8, 8, &mem), 0);
    }

    #[test]
    fn read_through_partial_overlap() {
        let sb = {
            let mut sb = StoreBuffer::new(4);
            sb.push(rec(4, 4, 0xdead_beef, 0));
            sb
        };
        let mut mem = PagedMem::new();
        mem.write_u64(0, 0x0102_0304_0506_0708);
        let v = sb.read_through(0, 8, &mem);
        assert_eq!(v, 0xdead_beef_0506_0708);
    }
}
