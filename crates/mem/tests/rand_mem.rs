//! Randomized property tests: the memory models against simple reference
//! models, driven by the workspace PRNG.

use std::collections::HashMap;

use blackjack_isa::PagedMem;
use blackjack_mem::{Cache, CacheConfig, CacheStats, StoreBuffer, StoreRecord};
use blackjack_rng::Rng;

/// Random byte/word/dword writes against a byte-map model.
#[derive(Debug, Clone)]
enum MemOp {
    W8(u64, u8),
    W32(u64, u32),
    W64(u64, u64),
    R(u64, u8), // address, size log2 in {0,2,3}
}

/// Page boundaries the accesses cluster around. Anchor 0 puts them
/// within 16 bytes of `u64::MAX`, where an access wraps to page 0.
const ANCHORS: [u64; 4] = [0, 0x10_0000, 0x10_1000, 0x7fff_f000];

fn mem_op(rng: &mut Rng) -> MemOp {
    // Cluster addresses so reads observe writes and multi-byte accesses
    // straddle pages.
    let anchor = ANCHORS[rng.random_range(0..ANCHORS.len())];
    let addr = anchor.wrapping_add(rng.random_range(0u64..32)).wrapping_sub(16);
    // Every fourth write stores zeros: a written page holding only zeros
    // must compare equal to an absent one.
    let v = if rng.random_range(0..4u32) == 0 { 0 } else { rng.next_u64() };
    match rng.random_range(0..4u32) {
        0 => MemOp::W8(addr, v as u8),
        1 => MemOp::W32(addr, v as u32),
        2 => MemOp::W64(addr, v),
        _ => MemOp::R(addr, [0u8, 2, 3][rng.random_range(0..3usize)]),
    }
}

/// A memory under test and its byte-map model (absent bytes read zero).
type Side = (PagedMem, HashMap<u64, u8>);

fn model_byte(model: &HashMap<u64, u8>, a: u64) -> u8 {
    model.get(&a).copied().unwrap_or(0)
}

fn apply(op: MemOp, (mem, model): &mut Side) {
    let mut record = |a: u64, bytes: &[u8]| {
        for (i, b) in bytes.iter().enumerate() {
            model.insert(a.wrapping_add(i as u64), *b);
        }
    };
    match op {
        MemOp::W8(a, v) => {
            mem.write_u8(a, v);
            record(a, &[v]);
        }
        MemOp::W32(a, v) => {
            mem.write_u32(a, v);
            record(a, &v.to_le_bytes());
        }
        MemOp::W64(a, v) => {
            mem.write_u64(a, v);
            record(a, &v.to_le_bytes());
        }
        MemOp::R(a, logsz) => {
            let n = 1u64 << logsz;
            let want = (0..n)
                .fold(0u64, |w, i| w | (model_byte(model, a.wrapping_add(i)) as u64) << (8 * i));
            assert_eq!(mem.read_sized(a, n), want, "read {n} bytes at {a:#x}");
        }
    }
}

/// The lowest address at which two byte maps differ.
fn model_difference(a: &HashMap<u64, u8>, b: &HashMap<u64, u8>) -> Option<u64> {
    a.keys().chain(b.keys()).copied().filter(|&k| model_byte(a, k) != model_byte(b, k)).min()
}

/// Random accesses, a clone taken mid-sequence with both sides written
/// afterwards, and `first_difference` between the sides and against an
/// empty memory, all against byte maps.
#[test]
fn paged_mem_matches_byte_map() {
    let mut rng = Rng::seed_from_u64(0x11E1);
    let empty: Side = (PagedMem::new(), HashMap::new());
    for _ in 0..100 {
        let n_ops = rng.random_range(1..200usize);
        let clone_at = rng.random_range(0..n_ops);
        let mut sides: Vec<Side> = vec![empty.clone()];
        for k in 0..n_ops {
            if k == clone_at {
                sides.push(sides[0].clone());
            }
            let side = rng.random_range(0..sides.len());
            apply(mem_op(&mut rng), &mut sides[side]);
        }
        for (mem, model) in &sides {
            for (&a, &b) in model {
                assert_eq!(mem.read_u8(a), b, "byte at {a:#x}");
            }
        }
        for (x, y) in [(&sides[0], &sides[1]), (&sides[0], &empty), (&sides[1], &empty)] {
            let want = model_difference(&x.1, &y.1);
            assert_eq!(x.0.first_difference(&y.0), want);
            assert_eq!(y.0.first_difference(&x.0), want);
        }
    }
}

/// The store buffer's byte-granular read-through equals replaying the
/// buffered stores over memory in order.
#[test]
fn store_buffer_read_through_matches_replay() {
    let mut rng = Rng::seed_from_u64(0x5B5B);
    for _ in 0..500 {
        let n_stores = rng.random_range(0..16usize);
        let read_addr = rng.random_range(0u64..64);
        let mut sb = StoreBuffer::new(32);
        let mut mem = PagedMem::new();
        // Background memory pattern.
        for a in 0..96u64 {
            mem.write_u8(a, (a as u8).wrapping_mul(37));
        }
        let mut replay = mem.clone();
        for i in 0..n_stores {
            let addr = rng.random_range(0u64..64);
            let bytes = [1u64, 4, 8][rng.random_range(0..3usize)];
            let data = rng.next_u64() & (u64::MAX >> (64 - 8 * bytes));
            sb.push(StoreRecord { addr, bytes, data, seq: i as u64 });
            replay.write_sized(addr, bytes, data);
        }
        let got = sb.read_through(read_addr, 8, &mem);
        let want = replay.read_u64(read_addr);
        assert_eq!(got, want);
    }
}

/// A cache's reference model: per set, the resident lines
/// most-recent-last with their dirty bits, and the counters the cache
/// must report.
#[derive(Debug, Clone)]
struct LruModel {
    sets: Vec<Vec<(u64, bool)>>,
    stats: CacheStats,
}

/// A cache under test and its model.
type CacheSide = (Cache, LruModel);

/// An address in one of the four `hot` sets (so lines get evicted) or,
/// as often, in any set (so every chunk is touched).
fn cache_addr(rng: &mut Rng, cfg: &CacheConfig, hot: u64) -> u64 {
    let sets = cfg.num_sets() as u64;
    let set = if rng.random_range(0..2u32) == 0 {
        (hot + rng.random_range(0..4u64)) % sets
    } else {
        rng.random_range(0..sets)
    };
    let tag = rng.random_range(0..2 * cfg.assoc as u64);
    (tag * sets + set) * cfg.line_bytes + rng.random_range(0..cfg.line_bytes)
}

/// One access (a write one time in three) or probe, checked against the
/// model: hit, the evicted dirty line's address, and residency.
fn cache_op(rng: &mut Rng, hot: u64, (cache, model): &mut CacheSide) {
    let cfg = *cache.config();
    let a = cache_addr(rng, &cfg, hot);
    let line = a / cfg.line_bytes;
    let ways = &mut model.sets[(line % cfg.num_sets() as u64) as usize];
    let pos = ways.iter().position(|&(l, _)| l == line);
    if rng.random_range(0..4u32) == 0 {
        assert_eq!(cache.probe(a), pos.is_some(), "probe {a:#x}");
        return;
    }
    let write = rng.random_range(0..3u32) == 0;
    let got = cache.access(a, write);
    model.stats.accesses += 1;
    let mut writeback = None;
    let dirty = match pos {
        Some(p) => ways.remove(p).1 || write,
        None => {
            model.stats.misses += 1;
            if ways.len() == cfg.assoc {
                let (victim, victim_dirty) = ways.remove(0);
                if victim_dirty {
                    model.stats.writebacks += 1;
                    writeback = Some(victim * cfg.line_bytes);
                }
            }
            write
        }
    };
    ways.push((line, dirty));
    assert_eq!(got.hit, pos.is_some(), "access {a:#x}");
    assert_eq!(got.writeback, writeback, "writeback of access {a:#x}");
}

/// The cache agrees with per-set LRU lists, with fewer sets than a
/// copy-on-write chunk, exactly one, and many: hits, writebacks and
/// counters, through a clone taken mid-sequence after which both sides
/// take different accesses, each against its own copy of the model.
#[test]
fn cache_matches_lru_model() {
    let mut rng = Rng::seed_from_u64(0xCAC4E);
    for sets in [8u64, 16, 256] {
        let cfg =
            CacheConfig { size_bytes: sets * 4 * 32, assoc: 4, line_bytes: 32, hit_latency: 1 };
        let fresh =
            LruModel { sets: vec![Vec::new(); sets as usize], stats: CacheStats::default() };
        for _ in 0..50 {
            let n_ops = rng.random_range(1..(4 * sets as usize).max(300));
            let clone_at = rng.random_range(0..n_ops);
            let hot = rng.random_range(0..sets);
            let mut sides: Vec<CacheSide> = vec![(Cache::new(cfg), fresh.clone())];
            for k in 0..n_ops {
                if k == clone_at {
                    sides.push(sides[0].clone());
                }
                let side = rng.random_range(0..sides.len());
                cache_op(&mut rng, hot, &mut sides[side]);
            }
            for (cache, model) in &sides {
                assert_eq!(*cache.stats(), model.stats, "{sets} sets: counters");
                for &(line, _) in model.sets.iter().flatten() {
                    assert!(cache.probe(line * cfg.line_bytes), "{sets} sets: line {line:#x}");
                }
            }
        }
    }
}
