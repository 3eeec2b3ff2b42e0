//! Snapshot chains keep only what the live core writes after each donor:
//! memory shares copy-on-write blocks of `MEM_BLOCK_BYTES` and cache tags
//! chunks of `CHUNK_SETS` sets (DESIGN §2.11). A counting global
//! allocator pins the live heap of equake's chains, whose stores scatter
//! across 1,191 distinct 4 KiB regions and set the campaign's peak, and
//! what the stores of a live core cost once a snapshot shares its image.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use blackjack::faults::FaultPlan;
use blackjack::isa::asm::assemble;
use blackjack::isa::MEM_BLOCK_BYTES;
use blackjack::sim::{Core, CoreConfig, Mode};
use blackjack::workloads::Benchmark;
use blackjack::Metrics;
use blackjack_bench::detection::{BenchInputs, DetectionConfig, DetectionGroup};

/// Tracks this thread's live heap and its high-water mark, so the
/// harness's own threads cannot leak into a test's figures. A block
/// freed here that another thread allocated counts against this one, so
/// figures are only read as differences within one test.
struct Counting;

thread_local! {
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// This thread's live heap, in bytes, from an arbitrary origin.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Starts a new high-water mark at the current live heap.
fn reset_peak() {
    PEAK.with(|peak| peak.set(live()));
}

fn peak() -> i64 {
    PEAK.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged, so `Counting`
// upholds the `GlobalAlloc` contract exactly as `System` does; counting
// touches only const-initialised thread-locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller's guarantees for `alloc` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as i64);
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const MIB: f64 = (1 << 20) as f64;

/// Builds equake's SRT and BlackJack groups as the campaign does (one
/// shared set of inputs, the default config, metrics off) and bounds the
/// peak live heap of each build and what its trimmed chain keeps. The
/// builds peak at 12.3 and 12.9 MiB and the chains keep 5.4 and 6.2 MiB;
/// with whole 4 KiB pages and 16-set cache chunks shared copy-on-write,
/// they peaked at 26.6 and 27.2 MiB and kept 15.9 and 17.1 MiB.
#[test]
fn equake_chains_keep_only_what_the_live_core_writes() {
    let inputs = Arc::new(BenchInputs::build(Benchmark::Equake));
    // (mode, peak during the build, live after it), in MiB.
    for (mode, build_bound, held_bound) in [(Mode::Srt, 15.0, 7.0), (Mode::BlackJack, 16.0, 8.0)] {
        let base = live();
        reset_peak();
        let group = DetectionGroup::build(
            mode,
            DetectionConfig::default(),
            Arc::clone(&inputs),
            &mut Metrics::Off,
        );
        let built = (peak() - base) as f64 / MIB;
        let held = (live() - base) as f64 / MIB;
        let donors = group.chain.as_ref().map_or(0, |chain| chain.len());
        eprintln!("{mode}: build peak {built:.1} MiB, {donors} donors hold {held:.1} MiB");
        assert!(donors > 0, "{mode}: the chain keeps the simulated arms' donors");
        assert!(built <= build_bound, "{mode}: the build peaked at {built:.1} MiB");
        assert!(held <= held_bound, "{mode}: {donors} donors hold {held:.1} MiB");
    }
}

/// Rewrites `N` words 1 KiB apart once a snapshot shares the image they
/// live in: each store copies the block it writes, not the page around
/// it. The bound allows two blocks per store, for the share of the page's
/// block handles and of the cache chunks the stores access that each
/// store also copies. A store copies 344 bytes; with 4 KiB pages shared
/// whole, it copied 1,161.
#[test]
fn stores_after_a_snapshot_copy_about_one_block_each() {
    const N: u64 = 4096;
    const STRIDE: u64 = 1024;
    const BASE: u64 = 0x40_0000;
    let prog = assemble(&format!(
        r#"
        .text
            li  x24, {STRIDE}
            li  x22, 2
        pass:
            li  x20, {BASE}
            li  x21, {N}
        word:
            sd  x22, 0(x20)
            add x20, x20, x24
            addi x21, x21, -1
            bnez x21, word
            li  x21, 2000
        spin:
            addi x21, x21, -1
            bnez x21, spin
            addi x22, x22, -1
            bnez x22, pass
            halt
        "#
    ))
    .unwrap();
    let word = |core: &Core, i: u64| core.mem().read_u64(BASE + i * STRIDE);

    let mut core = Core::new(CoreConfig::with_mode(Mode::Single), &prog, FaultPlan::new());
    // Stop in the spin loop between the passes: every first-pass store
    // has reached memory and no second-pass store has.
    while word(&core, N - 1) != 2 {
        core.run(core.cycle() + 100);
    }
    assert!((0..N).all(|i| word(&core, i) == 2), "the first pass is done");
    let blocks = core.mem().page_count();
    let snap = core.snapshot();

    let before = live();
    assert!(core.run(u64::MAX).completed());
    let grown = live() - before;
    assert!((0..N).all(|i| word(&core, i) == 1), "the second pass rewrote every word");
    assert_eq!(core.mem().page_count(), blocks, "no store writes a new block");
    let frozen = snap.restore();
    assert!((0..N).all(|i| word(&frozen, i) == 2), "the snapshot keeps its image");
    let per_store = grown as f64 / N as f64;
    eprintln!("{N} stores after a snapshot grew the heap {grown} B, {per_store:.0} B per store");
    assert!(
        grown <= (N * 2 * MEM_BLOCK_BYTES as u64) as i64,
        "{N} stores after a snapshot grew the heap {grown} B, {per_store:.0} B per store"
    );
}
