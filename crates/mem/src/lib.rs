//! # Memory hierarchy models for the BlackJack simulator
//!
//! Timing-accurate (tag-only) cache models plus the SRT store buffer:
//!
//! * [`Cache`] — set-associative, true-LRU, write-back write-allocate.
//!   Caches model *timing and tags only*; data lives in the shared
//!   `blackjack_isa::PagedMem` image, a standard simulator factorization
//!   that keeps the store-buffer/LSQ forwarding semantics exact.
//! * [`MemSystem`] — composed L1I/L1D → unified L2 → fixed-latency DRAM,
//!   returning access latencies in cycles.
//! * [`StoreBuffer`] — committed leading-thread stores awaiting the
//!   trailing-thread check (the SRT output-comparison point), with precise
//!   byte-granular forwarding.
//!
//! # Example
//!
//! ```
//! use blackjack_mem::{MemSystem, MemConfig};
//!
//! let mut m = MemSystem::new(&MemConfig::default());
//! let cold = m.access_data(0x1000, false);
//! let warm = m.access_data(0x1000, false);
//! assert!(cold > warm, "first touch misses all the way to memory");
//! ```

mod cache;
mod hierarchy;
mod store_buffer;

pub use cache::{Cache, CacheConfig, CacheStats, CHUNK_SETS};
pub use hierarchy::{MemConfig, MemSystem};
pub use store_buffer::{StoreBuffer, StoreCheck, StoreRecord};
