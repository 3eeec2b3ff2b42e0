//! Sparse byte-addressable memory backing both the interpreter and the
//! timing simulator's data state.

use std::collections::HashMap;
use std::sync::Arc;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

type Page = [u8; PAGE_SIZE];

/// What every untouched page reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE];

/// A sparse, paged, byte-addressable 64-bit memory.
///
/// Pages are allocated on first write and initialized to zero, so any
/// address is readable. Multi-byte accesses are little-endian and may cross
/// page boundaries.
///
/// Pages are shared copy-on-write: a clone shares every page with its
/// source, and either side copies a page only when it first writes it. A
/// snapshot of a core's memory therefore costs one reference count per
/// page, and later snapshots copy only the pages written in between.
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
    pages: HashMap<u64, Arc<Page>>,
}

impl PagedMem {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> PagedMem {
        PagedMem::default()
    }

    /// Number of distinct pages touched so far.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The page holding `addr`, or the zero page if it was never written.
    fn page(&self, addr: u64) -> &Page {
        self.pages.get(&(addr >> PAGE_SHIFT)).map_or(&ZERO_PAGE, |p| p)
    }

    /// The page holding `addr`, allocated on first write and unshared
    /// (copied) if a clone still holds it.
    fn page_mut(&mut self, addr: u64) -> &mut Page {
        Arc::make_mut(self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Arc::new(ZERO_PAGE)))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr)[(addr & PAGE_MASK) as usize]
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let off = (addr & PAGE_MASK) as usize;
        let mut out = [0u8; N];
        match self.page(addr).get(off..off + N) {
            Some(bytes) => out.copy_from_slice(bytes),
            // Straddles a page boundary, or wraps past `u64::MAX` to page 0.
            None => {
                for (i, b) in out.iter_mut().enumerate() {
                    *b = self.read_u8(addr.wrapping_add(i as u64));
                }
            }
        }
        out
    }

    /// Writes bytes starting at `addr`, one page-sized chunk at a time.
    pub fn write_bytes(&mut self, mut addr: u64, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (chunk, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE - off));
            self.page_mut(addr)[off..off + chunk.len()].copy_from_slice(chunk);
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
    /// differ, or `None` if they hold the same bytes everywhere. A page
    /// written on one side only compares against zeros, so touching a page
    /// without changing its contents is no difference.
    pub fn first_difference(&self, other: &PagedMem) -> Option<u64> {
        let mut pages: Vec<u64> = self.pages.keys().chain(other.pages.keys()).copied().collect();
        pages.sort_unstable();
        pages.dedup();
        pages.into_iter().find_map(|p| {
            let base = p << PAGE_SHIFT;
            let (a, b) = (self.page(base), other.page(base));
            // Whole pages first; bytes only inside a page that differs.
            if a == b {
                return None;
            }
            let off = a.iter().zip(b).position(|(x, y)| x != y)?;
            Some(base + off as u64)
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
    fn cross_page_access() {
        let mut m = PagedMem::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles pages 0 and 1
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.page_count(), 2);
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
    }
}
