//! Dynamic micro-ops and the in-flight instruction slab.

use blackjack_isa::{FuType, Inst, LogReg};

/// Index of a physical register within one context's file.
pub type PhysReg = u16;

/// Stable handle to an in-flight [`Uop`] in the [`UopSlab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UopId {
    idx: u32,
    gen: u32,
}

/// Pipeline position of a micro-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Sitting in the frontend fetch queue.
    Fetched,
    /// Renamed, waiting in the issue queue.
    InQueue,
    /// Issued to a functional unit, executing.
    Executing,
    /// Result produced; waiting to commit.
    Completed,
}

/// One dynamic instruction (or safe-shuffle filler NOP) in flight.
#[derive(Debug, Clone)]
pub struct Uop {
    /// Globally unique, monotonically increasing id (age stamp).
    pub uid: u64,
    /// Context: 0 = leading/single, 1 = trailing.
    pub ctx: usize,
    /// Per-context program-order sequence number. Filler NOPs use
    /// `u64::MAX` (they never commit).
    pub seq: u64,
    /// Fetch PC.
    pub pc: u64,
    /// The raw instruction word as seen by this copy (after any frontend
    /// fault corruption).
    pub raw: u32,
    /// The pristine instruction word as stored in memory, before any
    /// frontend corruption. The DTQ carries this copy so a leading
    /// frontend fault cannot replicate into the trailing thread (each
    /// copy's corruption is applied at its own fetch way).
    pub pristine: u32,
    /// The decoded instruction.
    pub inst: Inst,
    /// FU class (normally `inst.fu_type()`; overridden for typed NOPs).
    pub fu: FuType,
    /// Current pipeline stage.
    pub stage: Stage,

    // --- rename ---
    /// Renamed source physical registers (`None` = x0 / absent operand).
    pub srcs: [Option<PhysReg>; 2],
    /// Allocated destination physical register.
    pub dst: Option<PhysReg>,
    /// Previous mapping of the destination logical register (freed at
    /// commit; restored on squash). Leading/SRT-trailing only.
    pub old_dst: Option<PhysReg>,
    /// Destination logical register.
    pub log_dst: Option<LogReg>,

    // --- trailing-thread (DTQ) rename inputs ---
    /// Leading physical source registers borrowed through the DTQ.
    pub lead_srcs: [Option<PhysReg>; 2],
    /// Leading physical destination register borrowed through the DTQ.
    pub lead_dst: Option<PhysReg>,
    /// Leading copy's frontend way (for diversity accounting).
    pub lead_front_way: usize,
    /// Leading copy's backend way.
    pub lead_back_way: usize,
    /// Leading copy's committed next-PC (program-order check input).
    pub lead_next_pc: u64,

    // --- resource usage ---
    /// Frontend way this copy flowed through.
    pub front_way: usize,
    /// Backend way this copy issued to (set at issue).
    pub back_way: Option<usize>,
    /// Cycle this uop issued.
    pub issue_cycle: Option<u64>,
    /// Issue-queue payload-RAM entry this uop occupied (for payload-fault
    /// application at late value capture).
    pub payload_slot: usize,
    /// Leading: id of the co-issue packet this uop belongs to.
    /// Trailing: id of the shuffled packet it was fetched in.
    pub packet: Option<u64>,
    /// True for safe-shuffle filler NOPs.
    pub filler: bool,

    // --- execution results ---
    /// Computed destination value (raw bits for FP).
    pub result: Option<u64>,
    /// SEC-DED check bits over the *clean* load value, generated at the
    /// leading load's value capture before any backend/payload/cache-data
    /// corruption can strike (`CoreConfig::lvq_ecc`). Travels with the
    /// load to commit, where it is pushed into the LVQ entry.
    pub ecc: u8,
    /// Computed next PC.
    pub next_pc: u64,
    /// Conditional-branch outcome.
    pub taken: bool,
    /// Effective address (memory ops).
    pub eff_addr: Option<u64>,
    /// Width-truncated store data (stores).
    pub store_val: Option<u64>,

    // --- branch prediction (leading) ---
    /// Next PC predicted at fetch.
    pub pred_next_pc: u64,
    /// Global-history snapshot *before* this branch updated it.
    pub ghist_snapshot: u64,

    // --- memory ordering ---
    /// Program-order load number (loads only).
    pub load_seq: Option<u64>,
    /// Program-order store number (stores only).
    pub store_seq: Option<u64>,
    /// Program-order memory-op number (loads and stores; the virtual LSQ
    /// index of §4.2.1).
    pub mem_seq: Option<u64>,
    /// DTQ entry index allocated at leading issue (BlackJack modes).
    pub dtq_index: Option<u64>,
    /// Context counter values (`next_seq`, `next_load_seq`,
    /// `next_store_seq`, `next_mem_seq`) *after* this uop was fetched;
    /// squash recovery restores from the mispredicted branch's snapshot.
    pub cnt_after: [u64; 4],
}

impl Uop {
    /// Creates a fresh uop in the `Fetched` stage with empty rename and
    /// execution state.
    pub fn new(uid: u64, ctx: usize, seq: u64, pc: u64, raw: u32, inst: Inst) -> Uop {
        Uop {
            uid,
            ctx,
            seq,
            pc,
            raw,
            pristine: raw,
            inst,
            fu: inst.fu_type(),
            stage: Stage::Fetched,
            srcs: [None, None],
            dst: None,
            old_dst: None,
            log_dst: inst.dst(),
            lead_srcs: [None, None],
            lead_dst: None,
            lead_front_way: usize::MAX,
            lead_back_way: usize::MAX,
            lead_next_pc: 0,
            front_way: 0,
            back_way: None,
            issue_cycle: None,
            payload_slot: 0,
            packet: None,
            filler: false,
            result: None,
            ecc: 0,
            next_pc: pc.wrapping_add(4),
            taken: false,
            eff_addr: None,
            store_val: None,
            pred_next_pc: pc.wrapping_add(4),
            ghist_snapshot: 0,
            load_seq: None,
            store_seq: None,
            mem_seq: None,
            dtq_index: None,
            cnt_after: [0; 4],
        }
    }

    /// True if this uop is an architectural instruction (commits), as
    /// opposed to a filler NOP.
    pub fn architectural(&self) -> bool {
        !self.filler
    }
}

/// Generational slab holding all in-flight uops.
///
/// Handles ([`UopId`]) are invalidated on removal, so a stale id from a
/// squashed instruction can never silently alias a new one.
///
/// An insert takes the lowest free slot, found in a free bitmap, so live
/// uops pack at the bottom of the slab, and a removal that empties the
/// top slot trims `slots` back to the last live one. A clone therefore
/// copies only the live prefix, not the high-water mark set by the
/// fullest moment of the run. Over the 1,305 snapshots the benchmark's
/// `inject-transient` campaign retains at once, a slab averages 119 live
/// uops in 131 copied slots against a 418-slot high-water mark; gcc in
/// BlackJack mode fills 959 slots early, then runs with a few dozen
/// uops live. The derived `Clone` allocates afresh in `clone_from` too,
/// so a refilled snapshot holds no larger slot buffer than a new one.
/// `gens` stays whole across a clone: a squash leaves stale ids in the
/// in-flight list, and a slot past a clone's live prefix keeps its
/// generation, so such an id never matches the uop the clone later puts
/// there.
#[derive(Debug, Default, Clone)]
pub struct UopSlab {
    /// Ends at the last live slot.
    slots: Vec<Option<Uop>>,
    /// Generation of every slot up to the high-water mark.
    gens: Vec<u32>,
    /// Bit `i` is set when slot `i < gens.len()` holds no uop.
    free: Vec<u64>,
    live: usize,
}

impl UopSlab {
    /// Creates an empty slab.
    pub fn new() -> UopSlab {
        UopSlab::default()
    }

    /// Number of live uops.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no uops are in flight.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots up to and including the last live one: what a clone copies.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Slots ever used: the high-water mark of [`UopSlab::slot_count`].
    pub fn high_water(&self) -> usize {
        self.gens.len()
    }

    /// Inserts a uop into the lowest free slot, returning its handle.
    pub fn insert(&mut self, uop: Uop) -> UopId {
        let idx = match self.free.iter().position(|&w| w != 0) {
            Some(w) => w * 64 + self.free[w].trailing_zeros() as usize,
            None => {
                if self.gens.len() == self.free.len() * 64 {
                    self.free.push(0);
                }
                self.gens.push(0);
                self.gens.len() - 1
            }
        };
        self.free[idx / 64] &= !(1 << (idx % 64));
        // Every slot below `idx` is live and every slot past the last
        // live one is free, so `idx` is inside `slots` or just past it.
        if idx == self.slots.len() {
            self.slots.push(Some(uop));
        } else {
            self.slots[idx] = Some(uop);
        }
        self.live += 1;
        UopId { idx: idx as u32, gen: self.gens[idx] }
    }

    /// Returns the uop for `id`, if it is still live.
    pub fn get(&self, id: UopId) -> Option<&Uop> {
        if self.gens.get(id.idx as usize) == Some(&id.gen) {
            self.slots[id.idx as usize].as_ref()
        } else {
            None
        }
    }

    /// Mutable access to the uop for `id`, if it is still live.
    pub fn get_mut(&mut self, id: UopId) -> Option<&mut Uop> {
        if self.gens.get(id.idx as usize) == Some(&id.gen) {
            self.slots[id.idx as usize].as_mut()
        } else {
            None
        }
    }

    /// Immutable access that panics on a dead handle (pipeline invariant
    /// violations should fail loudly).
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed uop.
    pub fn at(&self, id: UopId) -> &Uop {
        self.get(id).expect("stale UopId")
    }

    /// Mutable access that panics on a dead handle.
    ///
    /// # Panics
    ///
    /// Panics if `id` refers to a removed uop.
    pub fn at_mut(&mut self, id: UopId) -> &mut Uop {
        self.get_mut(id).expect("stale UopId")
    }

    /// Removes and returns the uop, invalidating its handle.
    pub fn remove(&mut self, id: UopId) -> Option<Uop> {
        let idx = id.idx as usize;
        if self.gens.get(idx) != Some(&id.gen) {
            return None;
        }
        let u = self.slots[idx].take()?;
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free[idx / 64] |= 1 << (idx % 64);
        self.live -= 1;
        if idx + 1 == self.slots.len() {
            let keep = self.slots.iter().rposition(Option::is_some).map_or(0, |last| last + 1);
            self.slots.truncate(keep);
        }
        Some(u)
    }

    /// True if the handle is still live.
    pub fn contains(&self, id: UopId) -> bool {
        self.get(id).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blackjack_isa::{AluOp, Reg};
    use blackjack_rng::Rng;

    fn mk(uid: u64) -> Uop {
        Uop::new(
            uid,
            0,
            uid,
            0x1000,
            0,
            Inst::Alu { op: AluOp::Add, rd: Reg::new(1), rs1: Reg::new(2), rs2: Reg::new(3) },
        )
    }

    #[test]
    fn insert_get_remove() {
        let mut s = UopSlab::new();
        let a = s.insert(mk(1));
        let b = s.insert(mk(2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.at(a).uid, 1);
        assert_eq!(s.at(b).uid, 2);
        assert_eq!(s.remove(a).unwrap().uid, 1);
        assert!(s.get(a).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn generations_prevent_aliasing() {
        let mut s = UopSlab::new();
        let a = s.insert(mk(1));
        s.remove(a);
        let b = s.insert(mk(2)); // reuses the slot
        assert!(s.get(a).is_none(), "stale handle stays dead");
        assert_eq!(s.at(b).uid, 2);
        assert!(s.remove(a).is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn new_uop_defaults() {
        let u = mk(7);
        assert_eq!(u.stage, Stage::Fetched);
        assert_eq!(u.fu, FuType::IntAlu);
        assert!(u.architectural());
        assert_eq!(u.next_pc, 0x1004);
        assert_eq!(u.log_dst, Some(LogReg::new(1)));
    }

    #[test]
    fn double_remove_is_none() {
        let mut s = UopSlab::new();
        let a = s.insert(mk(1));
        assert!(s.remove(a).is_some());
        assert!(s.remove(a).is_none());
        assert!(s.is_empty());
    }

    /// One side of the clone property test: a slab and the map model of
    /// what it must hold.
    #[derive(Clone, Default)]
    struct Side {
        slab: UopSlab,
        /// Live handles and the uid each must read back.
        live: Vec<(UopId, u64)>,
        /// Every handle this side has removed.
        dead: Vec<UopId>,
    }

    impl Side {
        /// Inserts `uid`; returns true if it reused a slot past the live
        /// prefix that an earlier uop had held.
        fn insert(&mut self, uid: u64) -> bool {
            let lowest = (0..).find(|&i| self.live.iter().all(|(id, _)| id.idx != i)).unwrap();
            let past_prefix = lowest as usize >= self.slab.slot_count();
            let reused = (lowest as usize) < self.slab.high_water();
            let id = self.slab.insert(mk(uid));
            assert_eq!(id.idx, lowest, "an insert takes the lowest free slot");
            self.live.push((id, uid));
            past_prefix && reused
        }

        fn remove(&mut self, k: usize) {
            let (id, uid) = self.live.swap_remove(k);
            assert_eq!(self.slab.remove(id).map(|u| u.uid), Some(uid));
            self.dead.push(id);
        }

        fn check(&self, what: &str) {
            assert_eq!(self.slab.len(), self.live.len(), "{what}: len");
            for &(id, uid) in &self.live {
                assert_eq!(self.slab.get(id).map(|u| u.uid), Some(uid), "{what}: {id:?}");
            }
            for &id in &self.dead {
                assert!(!self.slab.contains(id), "{what}: removed {id:?} reads back");
            }
            let last = self.live.iter().map(|(id, _)| id.idx as usize + 1).max().unwrap_or(0);
            assert_eq!(self.slab.slot_count(), last, "{what}: slots end at the last live one");
        }
    }

    #[test]
    fn slab_matches_a_map_model_across_clones() {
        let mut rng = Rng::seed_from_u64(0x51AB);
        let mut uid = 0u64;
        let mut reuses_past_prefix = 0;
        for case in 0..200 {
            let mut sides = [Side::default(), Side::default()];
            for step in 0..400 {
                let what = format!("case {case} step {step}");
                let (s, d) = if rng.random_bool(0.5) { (0, 1) } else { (1, 0) };
                // Alternate growing and draining phases, so clones land
                // far below the donor's high-water mark.
                let grow = (step / 60) % 2 == 0;
                match rng.random_range(0..20u32) {
                    0 => {
                        sides[d] = sides[s].clone();
                        assert_eq!(sides[d].slab.high_water(), sides[s].slab.high_water());
                    }
                    1 => {
                        let [a, b] = &mut sides;
                        let (src, dst) = if s == 0 { (&*a, b) } else { (&*b, a) };
                        dst.slab.clone_from(&src.slab);
                        dst.live.clone_from(&src.live);
                        dst.dead.clone_from(&src.dead);
                        assert_eq!(dst.slab.high_water(), src.slab.high_water());
                        assert_eq!(
                            dst.slab.slots.capacity(),
                            dst.slab.slot_count(),
                            "{what}: a refill keeps no larger buffer than a fresh clone"
                        );
                    }
                    2 => {
                        if let Some(&id) = sides[s].dead.last() {
                            assert!(sides[s].slab.remove(id).is_none(), "{what}: double remove");
                        }
                    }
                    r if sides[s].live.is_empty() || (r < 13) == grow => {
                        uid += 1;
                        if sides[s].insert(uid) {
                            reuses_past_prefix += 1;
                        }
                    }
                    _ => {
                        let k = rng.random_range(0..sides[s].live.len());
                        sides[s].remove(k);
                    }
                }
                sides[0].check(&what);
                sides[1].check(&what);
            }
        }
        assert!(reuses_past_prefix > 100, "only {reuses_past_prefix} reuses past a live prefix");
    }
}
