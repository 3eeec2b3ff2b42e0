//! Sparse byte-addressable memory backing both the interpreter and the
//! timing simulator's data state.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Bytes per copy-on-write block: the grain at which a [`PagedMem`]
/// allocates, shares and copies memory.
pub const MEM_BLOCK_BYTES: usize = 256;

/// Bytes per page: the grain of a [`PagedMem`]'s page map, whose entries
/// each hold the handles of [`MEM_PAGE_BYTES`] / [`MEM_BLOCK_BYTES`]
/// blocks.
pub const MEM_PAGE_BYTES: usize = 16 * 1024;

const BLOCK_SHIFT: u32 = MEM_BLOCK_BYTES.trailing_zeros();
const BLOCK_MASK: u64 = (MEM_BLOCK_BYTES as u64) - 1;
const PAGE_SHIFT: u32 = MEM_PAGE_BYTES.trailing_zeros();
const PAGE_BLOCKS: usize = MEM_PAGE_BYTES / MEM_BLOCK_BYTES;

type Block = [u8; MEM_BLOCK_BYTES];

/// One page's block handles; an absent block reads as zeros.
type Page = [Option<Arc<Block>>; PAGE_BLOCKS];

/// What every unwritten block reads as.
static ZERO_BLOCK: Block = [0; MEM_BLOCK_BYTES];

/// The slot of `addr`'s block within its page.
fn slot(addr: u64) -> usize {
    (addr >> BLOCK_SHIFT) as usize % PAGE_BLOCKS
}

/// Hashes a page number with one multiply. Page numbers are dense and
/// never adversarial, so SipHash's flooding resistance buys nothing, and
/// every fetch and load hashes one. The rotation moves the product's
/// well-mixed high half into the low bits the table indexes with.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the page map hashes only u64 page numbers")
    }

    fn write_u64(&mut self, page: u64) {
        self.0 = page.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(32)
    }
}

/// A sparse, paged, byte-addressable 64-bit memory.
///
/// Memory is allocated in blocks of [`MEM_BLOCK_BYTES`] on first write and
/// initialized to zero, so any address is readable. Multi-byte accesses
/// are little-endian and may cross block and page boundaries, and wrap
/// past `u64::MAX` to address 0.
///
/// Blocks are shared copy-on-write, and so is each page's table of block
/// handles: a clone shares every page with its source, and either side
/// copies a page's handles and the written block only when it first
/// writes the block. A snapshot of a core's memory therefore costs one
/// reference count per page, and a store after it copies one block, not
/// the whole page.
///
/// # Example
///
/// ```
/// use blackjack_isa::PagedMem;
///
/// let mut m = PagedMem::new();
/// m.write_u64(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u64(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u64(0x2000), 0, "untouched memory reads zero");
///
/// let snap = m.clone();
/// m.write_u64(0x1000, 1);
/// assert_eq!(snap.read_u64(0x1000), 0xdead_beef, "a clone keeps its own view");
/// ```
#[derive(Debug, Clone, Default)]
pub struct PagedMem {
    pages: HashMap<u64, Arc<Page>, BuildHasherDefault<PageHasher>>,
}

impl PagedMem {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> PagedMem {
        PagedMem::default()
    }

    /// Number of distinct blocks ([`MEM_BLOCK_BYTES`] each) written so
    /// far: what the image holds, at the grain it allocates. Reads
    /// allocate nothing.
    pub fn page_count(&self) -> usize {
        self.pages.values().map(|page| page.iter().flatten().count()).sum()
    }

    /// The block holding `addr`, or the zero block if it was never
    /// written.
    fn block(&self, addr: u64) -> &Block {
        self.pages
            .get(&(addr >> PAGE_SHIFT))
            .and_then(|page| page[slot(addr)].as_deref())
            .unwrap_or(&ZERO_BLOCK)
    }

    /// The block holding `addr`, allocated on first write. A page or
    /// block a clone still holds is unshared (copied) first.
    fn block_mut(&mut self, addr: u64) -> &mut Block {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Arc::new([const { None }; PAGE_BLOCKS]));
        Arc::make_mut(Arc::make_mut(page)[slot(addr)].get_or_insert_with(|| Arc::new(ZERO_BLOCK)))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.block(addr)[(addr & BLOCK_MASK) as usize]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.block_mut(addr)[(addr & BLOCK_MASK) as usize] = val;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr & BLOCK_MASK) as usize;
        let mut out = [0u8; N];
        match self.block(addr).get(off..off + N) {
            Some(bytes) => out.copy_from_slice(bytes),
            // Straddles a block boundary, or wraps past `u64::MAX` to
            // address 0.
            None => {
                for (i, b) in out.iter_mut().enumerate() {
                    *b = self.read_u8(addr.wrapping_add(i as u64));
                }
            }
        }
        out
    }

    /// Writes bytes starting at `addr`, one block at a time.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & BLOCK_MASK) as usize;
            let (chunk, rest) = bytes.split_at(bytes.len().min(MEM_BLOCK_BYTES - off));
            self.block_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            bytes = rest;
        }
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes::<4>(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes::<8>(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Reads `size` bytes (1, 4, or 8) zero-extended into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 4, or 8.
    pub fn read_sized(&self, addr: u64, size: u64) -> u64 {
        match size {
            1 => self.read_u8(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// Writes the low `size` bytes (1, 4, or 8) of `val`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 4, or 8.
    pub fn write_sized(&mut self, addr: u64, size: u64, val: u64) {
        match size {
            1 => self.write_u8(addr, val as u8),
            4 => self.write_u32(addr, val as u32),
            8 => self.write_u64(addr, val),
            _ => panic!("unsupported access size {size}"),
        }
    }

    /// The SDC oracle: the lowest address at which the two memories
    /// differ, or `None` if they hold the same bytes everywhere. A block
    /// written on one side only compares against zeros, so writing a
    /// block without changing its contents is no difference. Pages and
    /// blocks both sides share are skipped without reading them.
    pub fn first_difference(&self, other: &PagedMem) -> Option<u64> {
        let mut pages: Vec<u64> = self.pages.keys().chain(other.pages.keys()).copied().collect();
        pages.sort_unstable();
        pages.dedup();
        pages.into_iter().find_map(|p| {
            let (a, b) = (self.pages.get(&p), other.pages.get(&p));
            if matches!((a, b), (Some(a), Some(b)) if Arc::ptr_eq(a, b)) {
                return None;
            }
            (0..PAGE_BLOCKS).find_map(|i| {
                let (x, y) = (a.and_then(|pg| pg[i].as_ref()), b.and_then(|pg| pg[i].as_ref()));
                match (x, y) {
                    (None, None) => return None,
                    (Some(x), Some(y)) if Arc::ptr_eq(x, y) => return None,
                    _ => {}
                }
                let (x, y) = (x.map_or(&ZERO_BLOCK, |x| x), y.map_or(&ZERO_BLOCK, |y| y));
                // Whole blocks first; bytes only inside a block that differs.
                if x == y {
                    return None;
                }
                let off = x.iter().zip(y).position(|(u, v)| u != v)?;
                Some((p << PAGE_SHIFT) + (i << BLOCK_SHIFT) as u64 + off as u64)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = PagedMem::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xffff_ffff_ffff_fff0), 0);
        assert_eq!(m.page_count(), 0, "reads do not allocate");
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = PagedMem::new();
        m.write_u8(10, 0xab);
        assert_eq!(m.read_u8(10), 0xab);
        m.write_u32(100, 0x1234_5678);
        assert_eq!(m.read_u32(100), 0x1234_5678);
        m.write_u64(200, u64::MAX);
        assert_eq!(m.read_u64(200), u64::MAX);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PagedMem::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_block_and_page_access() {
        let mut m = PagedMem::new();
        // Straddles blocks 0 and 1 of page 0.
        let addr = MEM_BLOCK_BYTES as u64 - 4;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2, "two blocks");
        // Straddles the last block of page 0 and the first of page 1.
        let addr = MEM_PAGE_BYTES as u64 - 2;
        m.write_u32(addr, 0xaabb_ccdd);
        assert_eq!(m.read_u32(addr), 0xaabb_ccdd);
        assert_eq!(m.read_u8(MEM_PAGE_BYTES as u64), 0xbb);
        assert_eq!(m.page_count(), 4);
        // Wraps past `u64::MAX` to address 0.
        m.write_u64(u64::MAX - 3, u64::MAX);
        assert_eq!(m.read_u64(u64::MAX - 3), u64::MAX);
        assert_eq!(m.read_u32(0), 0xffff_ffff);
        assert_eq!(m.page_count(), 5);
    }

    #[test]
    fn a_write_after_a_clone_copies_one_block() {
        let mut a = PagedMem::new();
        for i in 0..PAGE_BLOCKS as u64 {
            a.write_u64(i * MEM_BLOCK_BYTES as u64, i + 1);
        }
        let b = a.clone();
        let page = |m: &PagedMem| Arc::clone(&m.pages[&0]);
        assert!(Arc::ptr_eq(&page(&a), &page(&b)), "a clone shares the page");
        a.write_u8(3 * MEM_BLOCK_BYTES as u64 + 1, 0xff);
        let (pa, pb) = (page(&a), page(&b));
        assert!(!Arc::ptr_eq(&pa, &pb), "the writer holds its own handles");
        let shared = |i: usize| Arc::ptr_eq(pa[i].as_ref().unwrap(), pb[i].as_ref().unwrap());
        assert_eq!((0..PAGE_BLOCKS).filter(|&i| !shared(i)).collect::<Vec<_>>(), [3]);
        assert_eq!(b.read_u64(3 * MEM_BLOCK_BYTES as u64), 4, "the clone keeps its view");
        assert_eq!(a.first_difference(&b), Some(3 * MEM_BLOCK_BYTES as u64 + 1));
    }

    #[test]
    fn sized_access() {
        let mut m = PagedMem::new();
        m.write_sized(0, 8, 0xffff_ffff_ffff_ffff);
        m.write_sized(0, 4, 0x1234_5678);
        assert_eq!(m.read_sized(0, 4), 0x1234_5678);
        assert_eq!(m.read_sized(0, 8), 0xffff_ffff_1234_5678);
        m.write_sized(0, 1, 0);
        assert_eq!(m.read_sized(0, 1), 0);
    }

    #[test]
    fn difference_detection() {
        let mut a = PagedMem::new();
        let mut b = PagedMem::new();
        assert_eq!(a.first_difference(&b), None);
        a.write_u8(5000, 1);
        b.write_u8(5000, 1);
        assert_eq!(a.first_difference(&b), None);
        b.write_u8(6000, 2);
        assert_eq!(a.first_difference(&b), Some(6000));
        // A zero written on one side only is no difference.
        a.write_u64(0x9_0000, 0);
        assert_eq!(b.first_difference(&a), Some(6000));
        b.write_u8(5999, 3);
        assert_eq!(b.first_difference(&a), Some(5999));
    }
}
