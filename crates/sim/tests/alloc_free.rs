//! The fault-free hot loop allocates nothing in Single and SRT mode once
//! warm: every per-cycle buffer keeps its capacity, forwarding composes
//! bytes in a fixed array, and a squash retires its victims in place.
//! A counting global allocator pins that on an L1-resident loop whose
//! loads forward from stores, whose calls exercise the RAS and BTB, and
//! whose data-dependent branch mispredicts constantly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use blackjack_faults::FaultPlan;
use blackjack_isa::asm::assemble;
use blackjack_sim::{Core, CoreConfig, Mode};

/// Counts this thread's allocations, so the harness's own threads cannot
/// leak into a test's tally.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged, so `Counting`
// upholds the `GlobalAlloc` contract exactly as `System` does; counting
// touches only a const-initialised thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc_zeroed` pass through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// 64 words of table, a linear congruential walk over it, a store the
/// next load forwards from, and a branch on a pseudo-random bit.
const LOOP: &str = "
.data
table:  .zero 512
.text
        la   x20, table
        li   x21, 40000
        li   x22, 12345
loop:
        li   x23, 1103515245
        mul  x22, x22, x23
        addi x22, x22, 1013
        srli x6, x22, 7
        andi x6, x6, 504
        add  x8, x20, x6
        ld   x9, 0(x8)
        add  x9, x9, x21
        sd   x9, 0(x8)
        lw   x10, 4(x8)
        add  x5, x5, x10
        srli x11, x22, 17
        andi x11, x11, 1
        beqz x11, skip
        call bump
skip:
        addi x21, x21, -1
        bnez x21, loop
        halt
bump:
        addi x5, x5, 3
        ret
";

#[test]
fn single_and_srt_hot_loops_allocate_nothing_once_warm() {
    let prog = assemble(LOOP).unwrap();
    for mode in [Mode::Single, Mode::Srt] {
        let mut core = Core::new(CoreConfig::with_mode(mode), &prog, FaultPlan::new());
        core.run(50_000);
        let mispredicts = core.stats().mispredicts;
        let before = allocations();
        core.run(250_000);
        let allocated = allocations() - before;
        assert!(!core.finished(), "{mode}: the measured window must stay inside the loop");
        assert!(
            core.stats().mispredicts - mispredicts > 1_000,
            "{mode}: the loop must keep squashing"
        );
        assert_eq!(allocated, 0, "{mode}: {allocated} allocations in 200,000 warm cycles");
    }
}
