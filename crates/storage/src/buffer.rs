//! What every buffer pool shares: the [`BufferStats`] counters and the
//! [`PagePool`] page-access trait. The pool itself is
//! [`crate::striped::StripedBufferPool`].
// roadlint: serving-path

use crate::error::StorageError;
use crate::page::{Page, PageId};

/// Buffer-pool counters. `page_faults` is the paper's I/O metric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page accesses through the pool.
    pub logical_reads: u64,
    /// Accesses that missed the cache and hit the store.
    pub page_faults: u64,
    /// Dirty pages written back (on eviction or flush).
    pub write_backs: u64,
}

impl BufferStats {
    /// Fraction of accesses served from the cache. Defined at zero reads:
    /// a pool that has served no accesses has missed none, so the rate is
    /// `1.0` (never `NaN`) — the same convention as
    /// `SearchStats::buffer_hit_rate` in the core crate.
    pub fn hit_rate(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            1.0 - self.page_faults as f64 / self.logical_reads as f64
        }
    }
}

/// Page-granular storage access: what the paged [`crate::BPlusTree`] needs
/// from its backing pool. Implemented by [`crate::striped::TalliedPool`],
/// a per-query view of the concurrent
/// [`crate::striped::StripedBufferPool`].
///
/// Every method is fallible: the striped implementation surfaces a
/// poisoned stripe or store lock as [`StorageError::LockPoisoned`] instead
/// of panicking the serving thread, so the trait carries the `Result`
/// through to every caller.
pub trait PagePool {
    /// Allocates a fresh zeroed page (cached clean).
    fn alloc(&mut self) -> Result<PageId, StorageError>;
    /// Reads page `id` through the cache.
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R, StorageError>;
    /// Mutates page `id` through the cache, marking it dirty.
    fn with_page_mut<R>(
        &mut self,
        id: PageId,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R, StorageError>;
}
