//! Set-associative cache model (tags + LRU state only).

use std::sync::Arc;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Latency of a hit, in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (capacity not divisible by
    /// `assoc * line_bytes`, or line size not a power of two).
    pub fn num_sets(&self) -> usize {
        assert!(self.line_bytes.is_power_of_two(), "line size must be a power of two");
        let set_bytes = self.line_bytes * self.assoc as u64;
        assert!(
            set_bytes > 0 && self.size_bytes.is_multiple_of(set_bytes),
            "capacity {} not divisible by assoc*line {}",
            self.size_bytes,
            set_bytes
        );
        let sets = self.size_bytes / set_bytes;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        sets as usize
    }
}

/// Hit/miss/writeback counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Misses (fills).
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when there have been no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One cache line, packed to 16 bytes: the first access to a chunk
/// after a clone copies all of its lines (512 B for Table 1's 8-way L2,
/// 256 B for its 4-way L1s), so line size is the unsharing cost. `meta`
/// holds the LRU stamp (higher = more recently used) in its upper 62
/// bits and valid/dirty in the low two.
#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    meta: u64,
}

impl Line {
    const VALID: u64 = 1;
    const DIRTY: u64 = 1 << 1;
    const LRU_SHIFT: u32 = 2;

    const EMPTY: Line = Line { tag: 0, meta: 0 };

    fn filled(tag: u64, dirty: bool, stamp: u64) -> Line {
        let dirty = if dirty { Line::DIRTY } else { 0 };
        Line { tag, meta: (stamp << Line::LRU_SHIFT) | dirty | Line::VALID }
    }

    fn valid(&self) -> bool {
        self.meta & Line::VALID != 0
    }

    fn dirty(&self) -> bool {
        self.meta & Line::DIRTY != 0
    }

    fn lru(&self) -> u64 {
        self.meta >> Line::LRU_SHIFT
    }

    fn touch(&mut self, stamp: u64, write: bool) {
        let dirty = if write { Line::DIRTY } else { 0 };
        self.meta = (stamp << Line::LRU_SHIFT) | dirty | (self.meta & (Line::VALID | Line::DIRTY));
    }
}

/// Sets per copy-on-write chunk of a [`Cache`]'s lines: the grain at
/// which an access after a clone copies lines. A cache with no more sets
/// than this is one chunk.
pub const CHUNK_SETS: usize = 4;

/// Chunks per handle group: a clone copies one handle per group.
const GROUP_CHUNKS: usize = 4;

/// A group's chunk handles; `None` is a chunk never accessed, every line
/// invalid.
type Group = [Option<Arc<[Line]>>; GROUP_CHUNKS];

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Whether the line was present.
    pub hit: bool,
    /// Base address of a dirty line this access evicted, if any.
    pub writeback: Option<u64>,
}

/// A set-associative, true-LRU, write-back write-allocate cache.
///
/// The model tracks tags and replacement state only; see the crate docs for
/// why data is held externally.
///
/// Lines are shared copy-on-write in chunks of [`CHUNK_SETS`] sets, and
/// the chunks' handles in groups of four: a clone shares every group
/// with its source, and either side copies a group's handles and then
/// the chunk on its first [`Cache::access`] to the chunk
/// ([`Cache::probe`] copies nothing).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// The lines, `assoc` per set row-major, in chunks of [`CHUNK_SETS`]
    /// sets whose handles sit in groups of `GROUP_CHUNKS`; `None` is a
    /// group never accessed. Snapshot-heavy campaigns clone the
    /// hierarchy thousands of times, so a clone copies only the group
    /// handles (2.3 KB for the Table 1 hierarchy) and counts a reference
    /// only for the groups accessed. A new cache holds no group, so a
    /// cold core allocates only the groups and chunks it touches.
    groups: Vec<Option<Arc<Group>>>,
    set_shift: u32,
    set_mask: u64,
    stamp: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::num_sets`]).
    pub fn new(cfg: CacheConfig) -> Cache {
        let sets = cfg.num_sets();
        let chunk_sets = sets.min(CHUNK_SETS);
        Cache {
            groups: vec![None; (sets / chunk_sets).div_ceil(GROUP_CHUNKS)],
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            stamp: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// Group index, chunk slot within the group, and the offset of
    /// `set`'s first line within the chunk.
    fn locate(&self, set: usize) -> (usize, usize, usize) {
        let chunk = set / CHUNK_SETS;
        (chunk / GROUP_CHUNKS, chunk % GROUP_CHUNKS, set % CHUNK_SETS * self.cfg.assoc)
    }

    /// The configured geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn split(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.set_shift;
        ((line & self.set_mask) as usize, line >> self.set_mask.count_ones())
    }

    /// Set index the line containing `addr` maps to (no state change).
    /// Fault plans target physical sets (the `CacheData`/`CacheTag` fault
    /// sites), so the pipeline needs the geometry mapping exposed.
    pub fn set_of(&self, addr: u64) -> usize {
        self.split(addr).0
    }

    /// Number of sets in this cache.
    pub fn sets(&self) -> usize {
        (self.set_mask + 1) as usize
    }

    /// True if the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.split(addr);
        let (group, slot, at) = self.locate(set);
        let Some(lines) = self.groups[group].as_ref().and_then(|g| g[slot].as_ref()) else {
            return false;
        };
        lines[at..at + self.cfg.assoc].iter().any(|l| l.valid() && l.tag == tag)
    }

    /// Performs an access, updating tags, LRU, and statistics.
    ///
    /// A miss allocates the line (write-allocate); `write` marks it dirty.
    /// The victim's address is reported so a write-back can be charged.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.stamp += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.split(addr);
        let (group, slot, at) = self.locate(set);
        let assoc = self.cfg.assoc;
        let chunk_lines = self.sets().min(CHUNK_SETS) * assoc;
        // Every access writes LRU state, so a hit unshares the group and
        // the chunk too.
        let group = Arc::make_mut(self.groups[group].get_or_insert_with(Default::default));
        let lines =
            group[slot].get_or_insert_with(|| (0..chunk_lines).map(|_| Line::EMPTY).collect());
        let lines = &mut Arc::make_mut(lines)[at..at + assoc];

        if let Some(l) = lines.iter_mut().find(|l| l.valid() && l.tag == tag) {
            l.touch(self.stamp, write);
            return Access { hit: true, writeback: None };
        }

        self.stats.misses += 1;
        let victim = lines
            .iter_mut()
            .min_by_key(|l| if l.valid() { l.lru() } else { 0 })
            .expect("cache set is never empty");
        let mut writeback = None;
        if victim.valid() && victim.dirty() {
            self.stats.writebacks += 1;
            let victim_line = (victim.tag << self.set_mask.count_ones()) | set as u64;
            writeback = Some(victim_line << self.set_shift);
        }
        *victim = Line::filled(tag, write, self.stamp);
        Access { hit: false, writeback }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 16B lines = 128 B
        Cache::new(CacheConfig { size_bytes: 128, assoc: 2, line_bytes: 16, hit_latency: 1 })
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    #[should_panic]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig { size_bytes: 100, assoc: 3, line_bytes: 16, hit_latency: 1 });
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x40, false).hit);
        assert!(c.access(0x40, false).hit);
        assert!(c.access(0x4f, false).hit, "same line");
        assert!(!c.access(0x50, false).hit, "next line");
        assert_eq!(c.stats().misses, 2);
        assert_eq!(c.stats().accesses, 4);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to set 0 (stride = sets*line = 64).
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // 0 now MRU; 64 is LRU
        c.access(128, false); // evicts 64
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = small();
        c.access(0, true); // dirty
        c.access(64, false);
        let a = c.access(128, false); // evicts line 0 (dirty)
        assert_eq!(a.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
        // Clean eviction reports no writeback.
        let a = c.access(192, false); // evicts 64 (clean)
        assert_eq!(a.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // now dirty via hit
        c.access(64, false);
        let a = c.access(128, false);
        assert_eq!(a.writeback, Some(0));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        for i in 0..4u64 {
            c.access(i * 16, false);
        }
        for i in 0..4u64 {
            assert!(c.probe(i * 16), "set {i} retained");
        }
    }

    #[test]
    fn set_of_matches_geometry() {
        let c = small();
        assert_eq!(c.sets(), 4);
        // 16B lines, 4 sets: set = (addr >> 4) & 3.
        assert_eq!(c.set_of(0x00), 0);
        assert_eq!(c.set_of(0x10), 1);
        assert_eq!(c.set_of(0x3f), 3);
        assert_eq!(c.set_of(0x40), 0, "wraps past the last set");
    }

    #[test]
    fn miss_rate() {
        let mut c = small();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0, false);
        c.access(0, false);
        assert_eq!(c.stats().miss_rate(), 0.5);
    }

    /// Table 1's L2 geometry: 4,096 sets of 8 ways.
    fn l2() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 12,
        })
    }

    /// Where each group's handles live: equal pointers are a shared
    /// group, null a group never accessed.
    fn group_ptrs(c: &Cache) -> Vec<*const Group> {
        c.groups.iter().map(|g| g.as_ref().map_or(std::ptr::null(), Arc::as_ptr)).collect()
    }

    /// Where each chunk's lines live, group by group: equal pointers are
    /// a shared chunk, null a chunk never accessed.
    fn chunk_ptrs(c: &Cache) -> Vec<*const Line> {
        let empty: Group = Default::default();
        let chunks = |g: &Option<Arc<Group>>| g.as_deref().unwrap_or(&empty).clone();
        let ptr = |ch: Option<Arc<[Line]>>| ch.map_or(std::ptr::null(), |ch| ch.as_ptr());
        c.groups.iter().flat_map(chunks).map(ptr).collect()
    }

    #[test]
    fn a_new_cache_allocates_only_the_chunks_it_accesses() {
        // No more sets than one chunk: a single chunk of every line.
        for sets in [CHUNK_SETS / 2, CHUNK_SETS] {
            let cfg = CacheConfig {
                size_bytes: (sets * 2 * 16) as u64,
                assoc: 2,
                line_bytes: 16,
                hit_latency: 1,
            };
            let mut c = Cache::new(cfg);
            assert_eq!(c.groups.len(), 1, "{sets} sets");
            c.access(16 * (sets as u64 - 1), false);
            let chunk = c.groups[0].as_ref().and_then(|g| g[0].as_ref());
            assert_eq!(chunk.map(|ch| ch.len()), Some(sets * 2), "{sets} sets");
            assert_eq!(chunk_ptrs(&c).iter().filter(|p| !p.is_null()).count(), 1, "{sets} sets");
        }
        let mut c = l2();
        assert_eq!(c.groups.len() * GROUP_CHUNKS, 4096 / CHUNK_SETS);
        assert!(c.groups.iter().all(Option::is_none), "a new cache holds no chunk");
        assert!(!c.probe(0));
        assert!(c.groups.iter().all(Option::is_none), "probe allocates nothing");
        // Set CHUNK_SETS + 1 lives in chunk 1, of group 0; only that slot
        // gets a chunk, of its own.
        c.access((CHUNK_SETS as u64 + 1) * 64, false);
        let ptrs = chunk_ptrs(&c);
        let held: Vec<usize> = (0..ptrs.len()).filter(|&i| !ptrs[i].is_null()).collect();
        assert_eq!(held, [1]);
        let group = c.groups[0].as_ref().unwrap();
        let chunk = group[1].as_ref().unwrap();
        assert_eq!(chunk.len(), CHUNK_SETS * 8);
        assert_eq!((Arc::strong_count(group), Arc::strong_count(chunk)), (1, 1));
    }

    #[test]
    fn access_copies_only_the_accessed_chunk_on_the_accessing_side() {
        let mut a = l2();
        // Give every chunk lines of its own.
        for set in 0..a.sets() as u64 {
            a.access(set * 64, false);
        }
        let mut b = a.clone();
        let (shared_groups, shared) = (group_ptrs(&a), chunk_ptrs(&a));
        assert!(shared.iter().all(|p| !p.is_null()), "every chunk accessed");
        assert_eq!(group_ptrs(&b), shared_groups, "a clone shares every group");
        assert_eq!(chunk_ptrs(&b), shared, "and so every chunk");
        assert!(a.groups.iter().flatten().all(|g| Arc::strong_count(g) == 2));

        assert!(b.probe(0) && !b.probe(1 << 30));
        assert_eq!(chunk_ptrs(&b), shared, "probe copies nothing");

        // Chunk 2 runs from set 2 * CHUNK_SETS to set 3 * CHUNK_SETS - 1: a
        // hit on its first set copies its group's handles and that chunk,
        // on b only.
        let (first, last) = (2 * CHUNK_SETS as u64, 3 * CHUNK_SETS as u64 - 1);
        assert!(b.access(first * 64, false).hit);
        let (b_groups, b_ptrs) = (group_ptrs(&b), chunk_ptrs(&b));
        assert_eq!(group_ptrs(&a), shared_groups, "the other side keeps every group");
        assert_eq!(chunk_ptrs(&a), shared, "and every chunk");
        let copied = |new: &[*const Line], old: &[*const Line]| -> Vec<usize> {
            (0..old.len()).filter(|&i| new[i] != old[i]).collect()
        };
        assert_eq!(copied(&b_ptrs, &shared), [2]);
        let groups: Vec<usize> =
            (0..shared_groups.len()).filter(|&i| b_groups[i] != shared_groups[i]).collect();
        assert_eq!(groups, [2 / GROUP_CHUNKS]);
        let a_chunk = a.groups[2 / GROUP_CHUNKS].as_ref().unwrap()[2 % GROUP_CHUNKS].as_ref();
        assert_eq!(Arc::strong_count(a_chunk.unwrap()), 1);

        // Its last set: already b's own, nothing copied.
        b.access(last * 64 + (1 << 30), true);
        assert_eq!(chunk_ptrs(&b), b_ptrs);
        assert_eq!(group_ptrs(&b), b_groups);
        assert!(!a.probe(last * 64 + (1 << 30)), "b's fill stays on b");
    }
}
