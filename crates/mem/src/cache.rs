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
/// after a clone copies all of its lines (2 KiB for Table 1's 8-way L2,
/// 1 KiB for its 4-way L1s), so line size is the unsharing cost. `meta`
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

/// Sets per copy-on-write chunk of lines. A cache with no more sets than
/// this is one chunk.
const CHUNK_SETS: usize = 16;

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
/// Lines are shared copy-on-write in chunks of 16 sets: a clone shares
/// every chunk with its source, and either side copies a chunk on its
/// first [`Cache::access`] to it ([`Cache::probe`] copies nothing).
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// The lines, `assoc` per set row-major, in chunks of `CHUNK_SETS`
    /// sets. Snapshot-heavy campaigns clone the hierarchy thousands of
    /// times, so a clone copies only these handles: 4.6 KB for the
    /// Table 1 hierarchy. A new cache's slots all hold one shared empty
    /// chunk, so a cold core allocates only the chunks it touches.
    chunks: Vec<Arc<[Line]>>,
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
        let empty: Arc<[Line]> = vec![Line::EMPTY; chunk_sets * cfg.assoc].into();
        Cache {
            chunks: vec![empty; sets / chunk_sets],
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: sets as u64 - 1,
            stamp: 0,
            stats: CacheStats::default(),
            cfg,
        }
    }

    /// Chunk index and the offset of `set`'s first line within it.
    fn locate(&self, set: usize) -> (usize, usize) {
        (set / CHUNK_SETS, set % CHUNK_SETS * self.cfg.assoc)
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
        let (chunk, at) = self.locate(set);
        self.chunks[chunk][at..at + self.cfg.assoc].iter().any(|l| l.valid() && l.tag == tag)
    }

    /// Performs an access, updating tags, LRU, and statistics.
    ///
    /// A miss allocates the line (write-allocate); `write` marks it dirty.
    /// The victim's address is reported so a write-back can be charged.
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.stamp += 1;
        self.stats.accesses += 1;
        let (set, tag) = self.split(addr);
        let (chunk, at) = self.locate(set);
        let assoc = self.cfg.assoc;
        // Every access writes LRU state, so a hit unshares the chunk too.
        let lines = &mut Arc::make_mut(&mut self.chunks[chunk])[at..at + assoc];

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

    /// Table 1's L2 geometry: 4,096 sets of 8 ways, so 256 chunks.
    fn l2() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            assoc: 8,
            line_bytes: 64,
            hit_latency: 12,
        })
    }

    /// Where each chunk's lines live: equal pointers are a shared chunk.
    fn chunk_ptrs(c: &Cache) -> Vec<*const Line> {
        c.chunks.iter().map(|ch| Arc::as_ptr(ch).cast::<Line>()).collect()
    }

    #[test]
    fn a_new_cache_shares_one_empty_chunk() {
        // No more sets than one chunk: a single chunk of every line.
        assert_eq!(small().chunks.len(), 1);
        assert_eq!(small().chunks[0].len(), 4 * 2);
        let mut c = l2();
        assert_eq!(c.chunks.len(), 4096 / CHUNK_SETS);
        assert_eq!(c.chunks[0].len(), CHUNK_SETS * 8);
        assert!(c.chunks.iter().all(|ch| Arc::ptr_eq(ch, &c.chunks[0])));
        assert_eq!(Arc::strong_count(&c.chunks[0]), 256);
        // Set 17 lives in chunk 1; only that slot gets a chunk of its own.
        c.access(17 * 64, false);
        assert_eq!(Arc::strong_count(&c.chunks[1]), 1);
        assert_eq!(Arc::strong_count(&c.chunks[0]), 255);
    }

    #[test]
    fn access_copies_only_the_accessed_chunk_on_the_accessing_side() {
        let mut a = l2();
        // Give every chunk lines of its own.
        for set in 0..a.sets() as u64 {
            a.access(set * 64, false);
        }
        let mut b = a.clone();
        let shared = chunk_ptrs(&a);
        assert_eq!(chunk_ptrs(&b), shared, "a clone shares every chunk");
        assert!(a.chunks.iter().all(|ch| Arc::strong_count(ch) == 2));

        assert!(b.probe(0) && !b.probe(1 << 30));
        assert_eq!(chunk_ptrs(&b), shared, "probe copies nothing");

        // Set 37 lives in chunk 2: a hit on it copies that chunk, on b only.
        assert!(b.access(37 * 64, false).hit);
        let b_ptrs = chunk_ptrs(&b);
        assert_eq!(chunk_ptrs(&a), shared, "the other side keeps every chunk");
        let copied: Vec<usize> = (0..shared.len()).filter(|&i| b_ptrs[i] != shared[i]).collect();
        assert_eq!(copied, [2]);
        assert_eq!(Arc::strong_count(&a.chunks[2]), 1);

        // Another set of the same chunk: already b's own, nothing copied.
        b.access(38 * 64 + (1 << 30), true);
        assert_eq!(chunk_ptrs(&b), b_ptrs);
        assert!(!a.probe(38 * 64 + (1 << 30)), "b's fill stays on b");
    }
}
