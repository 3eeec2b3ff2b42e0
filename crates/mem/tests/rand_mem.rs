//! Randomized property tests: the memory models against simple reference
//! models, driven by the workspace PRNG.

use std::collections::HashMap;

use blackjack_isa::PagedMem;
use blackjack_mem::{Cache, CacheConfig, StoreBuffer, StoreRecord};
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

/// The cache agrees with a reference model: per-set LRU lists.
#[test]
fn cache_matches_lru_model() {
    let mut rng = Rng::seed_from_u64(0xCAC4E);
    for _ in 0..50 {
        let n_addrs = rng.random_range(1..300usize);
        let cfg = CacheConfig { size_bytes: 1024, assoc: 4, line_bytes: 32, hit_latency: 1 };
        let mut cache = Cache::new(cfg);
        let sets = cfg.num_sets() as u64;
        // Model: per set, most-recent-last vector of line addresses.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); sets as usize];
        for _ in 0..n_addrs {
            let a = rng.random_range(0u64..0x4000);
            let line = a / cfg.line_bytes;
            let set = (line % sets) as usize;
            let hit_model = model[set].contains(&line);
            let got = cache.access(a, false);
            assert_eq!(got.hit, hit_model, "addr {a:#x}");
            if hit_model {
                let pos = model[set].iter().position(|l| *l == line).unwrap();
                model[set].remove(pos);
            } else if model[set].len() == cfg.assoc {
                model[set].remove(0); // evict LRU
            }
            model[set].push(line);
        }
    }
}
