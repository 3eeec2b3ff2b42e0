//! Leading-thread branch prediction: gshare + BTB (for `jalr`) + RAS.
//!
//! Conditional-branch *targets* and `jal` targets are exact (computed from
//! the decoded instruction at fetch); the predictor supplies conditional
//! directions, return-address-stack targets for returns, and BTB targets
//! for other indirect jumps.

use std::sync::Arc;

/// gshare direction predictor with a global history register.
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    history: u64,
    mask: u64,
}

impl Gshare {
    /// Creates a predictor with `2^bits` two-bit counters.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 24.
    pub fn new(bits: u32) -> Gshare {
        assert!((1..=24).contains(&bits), "gshare bits out of range");
        Gshare { counters: vec![2u8; 1 << bits], history: 0, mask: (1 << bits) - 1 }
    }

    fn index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Current global history (snapshot before speculative update).
    pub fn history(&self) -> u64 {
        self.history
    }

    /// Speculatively shifts an assumed outcome into the history (at fetch).
    pub fn push_history(&mut self, taken: bool) {
        self.history = ((self.history << 1) | taken as u64) & self.mask;
    }

    /// Restores a snapshot (misprediction recovery), then shifts in the
    /// now-known outcome of the mispredicted branch.
    pub fn recover(&mut self, snapshot: u64, actual: bool) {
        self.history = ((snapshot << 1) | actual as u64) & self.mask;
    }

    /// Trains the counter for the branch at `pc` whose history snapshot was
    /// `snapshot` (commit-time update).
    pub fn train(&mut self, pc: u64, snapshot: u64, taken: bool) {
        let idx = (((pc >> 2) ^ snapshot) & self.mask) as usize;
        let c = &mut self.counters[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// Direct-mapped branch target buffer for indirect jumps.
///
/// The table sits behind an `Arc`: a clone shares it, and whichever copy
/// first changes an entry copies the table then. The 1,305 snapshots the
/// benchmark's `inject-transient` campaign retains at once hold 34
/// tables, one per chain, where a plain table would copy all 1,024
/// entries into each: no update after a chain's first retained snapshot
/// changed an entry.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Arc<[Option<(u64, u64)>]>, // (tag pc, target)
    mask: usize,
}

impl Btb {
    /// Creates a BTB with `entries` slots (rounded to a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Btb {
        assert!(entries > 0, "BTB needs at least one entry");
        let n = entries.next_power_of_two();
        Btb { entries: vec![None; n].into(), mask: n - 1 }
    }

    /// Predicted target for the jump at `pc`, if any.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        let e = self.entries[((pc >> 2) as usize) & self.mask]?;
        (e.0 == pc).then_some(e.1)
    }

    /// Records the resolved target of the jump at `pc`. Rewriting the
    /// entry it already holds leaves a shared table shared.
    pub fn update(&mut self, pc: u64, target: u64) {
        let idx = ((pc >> 2) as usize) & self.mask;
        if self.entries[idx] != Some((pc, target)) {
            Arc::make_mut(&mut self.entries)[idx] = Some((pc, target));
        }
    }
}

/// Return address stack (not repaired across squashes; mispredicted calls
/// simply pollute it, costing a few extra mispredictions, as in simple
/// hardware).
#[derive(Debug, Clone)]
pub struct Ras {
    stack: Vec<u64>,
    depth: usize,
}

impl Ras {
    /// Creates a RAS of the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn new(depth: usize) -> Ras {
        assert!(depth > 0, "RAS needs at least one entry");
        Ras { stack: Vec::with_capacity(depth), depth }
    }

    /// Pushes a return address (on calls).
    pub fn push(&mut self, addr: u64) {
        if self.stack.len() == self.depth {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return address (on returns).
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gshare_learns_biased_branch() {
        let mut g = Gshare::new(10);
        let pc = 0x1000;
        for _ in 0..8 {
            let snap = g.history();
            g.push_history(true);
            g.train(pc, snap, true);
        }
        assert!(g.predict(pc));
    }

    #[test]
    fn gshare_learns_not_taken() {
        let mut g = Gshare::new(10);
        let pc = 0x2000;
        for _ in 0..8 {
            let snap = g.history();
            g.push_history(false);
            g.train(pc, snap, false);
        }
        assert!(!g.predict(pc));
    }

    #[test]
    fn gshare_learns_alternating_with_history() {
        let mut g = Gshare::new(10);
        let pc = 0x3000;
        // Alternating T/N/T/N: with history the two contexts use different
        // counters and should both train toward their outcome.
        for i in 0..64 {
            let taken = i % 2 == 0;
            let predicted = g.predict(pc);
            let snap = g.history();
            g.push_history(taken);
            g.train(pc, snap, taken);
            if i > 32 {
                assert_eq!(predicted, taken, "iteration {i}");
            }
        }
    }

    #[test]
    fn recover_resets_history() {
        let mut g = Gshare::new(8);
        let snap = g.history();
        g.push_history(true);
        g.push_history(true);
        g.recover(snap, false);
        assert_eq!(g.history(), (snap << 1) & 0xff);
    }

    #[test]
    fn btb_hit_and_alias() {
        let mut b = Btb::new(16);
        assert_eq!(b.lookup(0x100), None);
        b.update(0x100, 0x500);
        assert_eq!(b.lookup(0x100), Some(0x500));
        // A different pc mapping to the same slot evicts.
        b.update(0x100 + 16 * 4, 0x900);
        assert_eq!(b.lookup(0x100), None);
    }

    #[test]
    fn btb_clone_shares_the_table_until_an_entry_changes() {
        let mut a = Btb::new(16);
        a.update(0x100, 0x500);
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.entries, &b.entries), "a clone shares the table");
        b.update(0x100, 0x500);
        assert!(Arc::ptr_eq(&a.entries, &b.entries), "rewriting the same target keeps it shared");
        b.update(0x100, 0x600);
        assert!(!Arc::ptr_eq(&a.entries, &b.entries), "a changed entry unshares the table");
        assert_eq!(a.lookup(0x100), Some(0x500), "the other copy keeps its entry");
        assert_eq!(b.lookup(0x100), Some(0x600));
        let c = b.clone();
        b.update(0x200, 0x700);
        assert!(!Arc::ptr_eq(&b.entries, &c.entries), "a new entry unshares the table");
        assert_eq!(c.lookup(0x200), None);
        assert_eq!(b.lookup(0x200), Some(0x700));
    }

    #[test]
    fn ras_lifo_and_overflow() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // evicts 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }
}
