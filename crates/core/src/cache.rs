//! Page-granular neighbor caching over the edge file: the policy, the page
//! geometry, and a benchmark-only LRU.
//!
//! The core RingSampler design reads bare 4-byte entries and caches
//! nothing — its memory is `O(|V| + threads)`. The optional cache
//! (`CachePolicy::Page { budget_bytes }`) exists for two reasons documented
//! in the paper:
//!
//! * Fig. 8 shows that under a 4 GB budget, 32 threads beat 64 because the
//!   leftover memory "caches neighbor data, reducing I/O"; the cache is
//!   that mechanism, made explicit and budget-charged.
//! * §4.4 notes "a smart caching strategy would be needed" for
//!   inference-readiness.
//!
//! **Policy: one static, profiled hot set per sampler.** `budget_bytes` is
//! the whole sampler's, not a worker's: memory is `O(|V|) + budget`, not
//! `O(|V|) + threads × budget`. `RingSampler::new` runs one batch of
//! `batch_size` targets, drawn from a salted seed, through an uncached
//! worker (DiskGNN's offline access profile). Each sampled neighbor list
//! spreads its draws evenly over its bytes, and a page scores what lands
//! on it. The top `budget_bytes / PAGE_SIZE` pages are kept, ties to the
//! lower page; spare room is filled in file order, so a budget of at least
//! the file holds all of it. The pages are read once into one immutable
//! region (GIDS's constant buffer of the hottest data, chosen ahead of
//! time rather than found by eviction), charged once, and shared through
//! an `Arc` by every worker of every epoch and every `worker()` client. A
//! lookup is a slot-table load — no hash, insert, eviction or lock; a miss
//! is read as its whole page by the normal fetch path and not kept.
//!
//! [`PageCache`], the per-worker LRU this replaced, is no longer used by
//! the sampler. It stays only because the frozen benchmark's layer walk
//! (`benchmark/src/layers.rs`) imports it, and leaves when that walk is
//! re-pointed at the hot set.

use std::collections::HashMap;

use crate::error::Result;
use crate::memory::{MemoryBudget, MemoryCharge};

/// Cache page size in bytes (one SSD-friendly 4 KiB block).
pub const PAGE_SIZE: usize = 4096;

const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    page_no: u64,
    prev: u32,
    next: u32,
    data: Box<[u8]>,
}

/// Fixed-capacity LRU cache of file pages. Benchmark-only: the sampler's
/// cache is the hot set (see the module docs); this stays for the frozen
/// benchmark's layer walk and leaves with it.
#[doc(hidden)]
#[derive(Debug)]
pub struct PageCache {
    map: HashMap<u64, u32>,
    slots: Vec<Slot>,
    head: u32,
    tail: u32,
    capacity: usize,
    hits: u64,
    misses: u64,
    _charge: MemoryCharge,
}

impl PageCache {
    /// Creates a cache of `budget_bytes / (PAGE_SIZE + overhead)` pages,
    /// charging the full budget against `budget`.
    ///
    /// # Errors
    /// [`crate::error::SamplerError::OutOfMemory`] if the budget cannot be
    /// charged, and `InvalidConfig` if the budget is too small for a single
    /// page.
    pub fn new(budget_bytes: u64, budget: &MemoryBudget) -> Result<Self> {
        // Account ~64 bytes/page of map + slot overhead.
        let per_page = PAGE_SIZE as u64 + 64;
        let capacity = (budget_bytes / per_page) as usize;
        if capacity == 0 {
            return Err(crate::error::SamplerError::InvalidConfig(format!(
                "page cache budget {budget_bytes} below one page"
            )));
        }
        let charge = budget.charge(budget_bytes, "page cache")?;
        Ok(Self {
            map: HashMap::with_capacity(capacity),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            _charge: charge,
        })
    }

    /// Maximum number of resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident pages.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count (lookups only; inserts don't count).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slots[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[idx as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `page_no`, promoting it to most-recently-used on hit.
    pub fn get(&mut self, page_no: u64) -> Option<&[u8]> {
        match self.map.get(&page_no).copied() {
            Some(idx) => {
                self.hits += 1;
                if self.head != idx {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                Some(&self.slots[idx as usize].data)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Checks residency without promoting or counting.
    pub fn contains(&self, page_no: u64) -> bool {
        self.map.contains_key(&page_no)
    }

    /// Inserts (or refreshes) `page_no` with `data`, evicting the LRU page
    /// if at capacity. `data` shorter than [`PAGE_SIZE`] is zero-padded
    /// (last page of a file).
    pub fn insert(&mut self, page_no: u64, data: &[u8]) {
        debug_assert!(data.len() <= PAGE_SIZE, "page data too large");
        if let Some(&idx) = self.map.get(&page_no) {
            let slot = &mut self.slots[idx as usize];
            slot.data[..data.len()].copy_from_slice(data);
            slot.data[data.len()..].fill(0);
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return;
        }
        let idx = if self.slots.len() < self.capacity {
            let mut page = vec![0u8; PAGE_SIZE].into_boxed_slice();
            page[..data.len()].copy_from_slice(data);
            self.slots.push(Slot {
                page_no,
                prev: NIL,
                next: NIL,
                data: page,
            });
            (self.slots.len() - 1) as u32
        } else {
            // Evict the LRU tail and reuse its slot.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let old_page = self.slots[victim as usize].page_no;
            self.map.remove(&old_page);
            let slot = &mut self.slots[victim as usize];
            slot.page_no = page_no;
            slot.data[..data.len()].copy_from_slice(data);
            slot.data[data.len()..].fill(0);
            victim
        };
        self.map.insert(page_no, idx);
        self.push_front(idx);
    }

    /// Hit ratio over the cache lifetime (0 when never queried).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Splits a byte offset into `(page number, offset within page)`.
pub fn page_of(byte_offset: u64) -> (u64, usize) {
    (
        byte_offset / PAGE_SIZE as u64,
        (byte_offset % PAGE_SIZE as u64) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(pages: usize) -> PageCache {
        let budget = MemoryBudget::unlimited();
        PageCache::new((pages as u64) * (PAGE_SIZE as u64 + 64), &budget).unwrap()
    }

    fn page_filled(v: u8) -> Vec<u8> {
        vec![v; PAGE_SIZE]
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = cache(4);
        c.insert(10, &page_filled(7));
        assert_eq!(c.get(10).unwrap()[0], 7);
        assert!(c.get(11).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cache(3);
        c.insert(1, &page_filled(1));
        c.insert(2, &page_filled(2));
        c.insert(3, &page_filled(3));
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(1).is_some());
        c.insert(4, &page_filled(4));
        assert!(c.contains(1));
        assert!(!c.contains(2), "page 2 should have been evicted");
        assert!(c.contains(3));
        assert!(c.contains(4));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn reinsert_updates_data() {
        let mut c = cache(2);
        c.insert(5, &page_filled(1));
        c.insert(5, &page_filled(9));
        assert_eq!(c.get(5).unwrap()[100], 9);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn short_page_zero_padded() {
        let mut c = cache(2);
        c.insert(0, &[1, 2, 3]);
        let p = c.get(0).unwrap();
        assert_eq!(&p[..3], &[1, 2, 3]);
        assert!(p[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn capacity_one_works() {
        let mut c = cache(1);
        c.insert(1, &page_filled(1));
        c.insert(2, &page_filled(2));
        assert!(!c.contains(1));
        assert!(c.contains(2));
        c.insert(3, &page_filled(3));
        assert!(c.contains(3));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn budget_is_charged_and_released() {
        let budget = MemoryBudget::limited(3 * (PAGE_SIZE as u64 + 64));
        let c = PageCache::new(2 * (PAGE_SIZE as u64 + 64), &budget).unwrap();
        assert!(budget.used() > 0);
        assert!(PageCache::new(2 * (PAGE_SIZE as u64 + 64), &budget).is_err());
        drop(c);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn too_small_budget_rejected() {
        let budget = MemoryBudget::unlimited();
        assert!(PageCache::new(10, &budget).is_err());
    }

    #[test]
    fn page_of_math() {
        assert_eq!(page_of(0), (0, 0));
        assert_eq!(page_of(4095), (0, 4095));
        assert_eq!(page_of(4096), (1, 0));
        assert_eq!(page_of(10_000), (2, 10_000 - 8192));
    }

    #[test]
    fn heavy_churn_consistency() {
        let mut c = cache(8);
        for i in 0..1000u64 {
            c.insert(i % 32, &page_filled((i % 251) as u8));
            if let Some(d) = c.get((i * 7) % 32) {
                assert_eq!(d.len(), PAGE_SIZE);
            }
        }
        assert!(c.len() <= 8);
    }
}
