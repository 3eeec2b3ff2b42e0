//! The composed L1I / L1D / unified-L2 / DRAM timing hierarchy.

use crate::cache::{Cache, CacheConfig, CacheStats};

/// Configuration of the whole memory system.
///
/// Defaults reproduce Table 1 of the paper: 64KB 4-way 2-cycle L1s,
/// 2MB 8-way unified L2, 350-cycle memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Flat main-memory latency in cycles.
    pub mem_latency: u64,
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig {
            l1i: CacheConfig { size_bytes: 64 * 1024, assoc: 4, line_bytes: 64, hit_latency: 2 },
            l1d: CacheConfig { size_bytes: 64 * 1024, assoc: 4, line_bytes: 64, hit_latency: 2 },
            l2: CacheConfig {
                size_bytes: 2 * 1024 * 1024,
                assoc: 8,
                line_bytes: 64,
                hit_latency: 12,
            },
            mem_latency: 350,
        }
    }
}

/// The timing-side memory hierarchy.
///
/// Each access returns the number of cycles until the data is available;
/// the pipeline schedules instruction completion from that.
#[derive(Debug, Clone)]
pub struct MemSystem {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    mem_latency: u64,
    mem_accesses: u64,
}

impl MemSystem {
    /// Builds the hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if any cache geometry is inconsistent.
    pub fn new(cfg: &MemConfig) -> MemSystem {
        MemSystem {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            mem_latency: cfg.mem_latency,
            mem_accesses: 0,
        }
    }

    /// Instruction fetch access; returns total latency in cycles.
    pub fn access_instr(&mut self, addr: u64) -> u64 {
        let l1 = self.l1i.access(addr, false);
        let mut lat = self.l1i.config().hit_latency;
        if !l1.hit {
            lat += self.level2(addr, false);
        }
        lat
    }

    /// Data access; returns total latency in cycles.
    pub fn access_data(&mut self, addr: u64, write: bool) -> u64 {
        let l1 = self.l1d.access(addr, write);
        let mut lat = self.l1d.config().hit_latency;
        if !l1.hit {
            lat += self.level2(addr, false);
        }
        if let Some(wb) = l1.writeback {
            // Write-back traffic hits the L2 but is off the load's critical
            // path; charge only its tag update.
            let _ = self.l2.access(wb, true);
        }
        lat
    }

    fn level2(&mut self, addr: u64, write: bool) -> u64 {
        let l2 = self.l2.access(addr, write);
        let mut lat = self.l2.config().hit_latency;
        if !l2.hit {
            lat += self.mem_latency;
            self.mem_accesses += 1;
        }
        lat
    }

    /// Data access whose L1D lookup is forced to miss (tag-array fault
    /// model): the stored tag reads as garbage, so the access pays the L2
    /// path on top of the L1 latency even when the line is resident. The
    /// underlying access still updates tag/LRU state normally — the fault
    /// is purely a timing perturbation, which is exactly what a corrupted
    /// tag costs once the refill rewrites it.
    pub fn access_data_forced_miss(&mut self, addr: u64, write: bool) -> u64 {
        let base = self.access_data(addr, write);
        if base == self.l1d.config().hit_latency {
            base + self.level2(addr, false)
        } else {
            base
        }
    }

    /// True if `addr` currently hits in the L1D (no state change).
    pub fn probe_l1d(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// Set index `addr` maps to in the L1D (fault-site keying).
    pub fn l1d_set(&self, addr: u64) -> usize {
        self.l1d.set_of(addr)
    }

    /// Number of L1D sets (fault-universe sizing).
    pub fn l1d_sets(&self) -> usize {
        self.l1d.sets()
    }

    /// L1I statistics.
    pub fn l1i_stats(&self) -> &CacheStats {
        self.l1i.stats()
    }

    /// L1D statistics.
    pub fn l1d_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> &CacheStats {
        self.l2.stats()
    }

    /// Number of accesses that went all the way to main memory.
    pub fn mem_accesses(&self) -> u64 {
        self.mem_accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_compose() {
        let cfg = MemConfig::default();
        let mut m = MemSystem::new(&cfg);
        // Cold: L1 (2) + L2 (12) + mem (350).
        assert_eq!(m.access_data(0x1000, false), 2 + 12 + 350);
        // Warm L1 hit.
        assert_eq!(m.access_data(0x1000, false), 2);
        assert_eq!(m.mem_accesses(), 1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let cfg = MemConfig::default();
        let mut m = MemSystem::new(&cfg);
        m.access_data(0, false);
        // Touch enough conflicting lines to evict addr 0 from the 4-way L1
        // (same set stride = 16KB for 64KB/4-way/64B) but stay within L2.
        for i in 1..=4u64 {
            m.access_data(i * 16 * 1024, false);
        }
        assert!(!m.probe_l1d(0));
        // L1 miss, L2 hit: 2 + 12.
        assert_eq!(m.access_data(0, false), 14);
    }

    #[test]
    fn icache_and_dcache_are_separate() {
        let cfg = MemConfig::default();
        let mut m = MemSystem::new(&cfg);
        let cold_i = m.access_instr(0x4000);
        assert_eq!(cold_i, 2 + 12 + 350);
        // Data access to the same line: misses L1D but hits the unified L2.
        assert_eq!(m.access_data(0x4000, false), 2 + 12);
        // Instruction re-fetch hits L1I.
        assert_eq!(m.access_instr(0x4000), 2);
    }

    #[test]
    fn stats_accumulate() {
        let cfg = MemConfig::default();
        let mut m = MemSystem::new(&cfg);
        for i in 0..10 {
            m.access_data(i * 64, false);
        }
        assert_eq!(m.l1d_stats().accesses, 10);
        assert_eq!(m.l1d_stats().misses, 10);
        for i in 0..10 {
            m.access_data(i * 64, false);
        }
        assert_eq!(m.l1d_stats().misses, 10, "second sweep all hits");
    }

    #[test]
    fn forced_miss_charges_l2_path_on_resident_line() {
        let cfg = MemConfig::default();
        let mut m = MemSystem::new(&cfg);
        m.access_data(0x1000, false);
        // Resident line: a healthy access is an L1 hit (2 cycles); the
        // tag-fault access pays the L2 hit path on top (2 + 12).
        assert_eq!(m.access_data(0x1000, false), 2);
        assert_eq!(m.access_data_forced_miss(0x1000, false), 2 + 12);
        // On a genuine miss the forced-miss path charges nothing extra.
        assert_eq!(m.access_data_forced_miss(0x2000, false), 2 + 12 + 350);
    }

    #[test]
    fn l1d_set_indexing() {
        let cfg = MemConfig::default();
        let m = MemSystem::new(&cfg);
        // 64KB / 4-way / 64B lines = 256 sets; set = (addr >> 6) & 255.
        assert_eq!(m.l1d_sets(), 256);
        assert_eq!(m.l1d_set(0), 0);
        assert_eq!(m.l1d_set(64), 1);
        assert_eq!(m.l1d_set(256 * 64), 0);
    }
}
