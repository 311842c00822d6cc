//! Fixed-capacity LRU cache for completed job results.
//!
//! Keys are job digests (`u64`); values are shared [`RankResult`]s so a
//! cache hit costs one `Arc` clone. The recency list is an intrusive
//! doubly-linked list over a slab `Vec`, giving O(1) get / insert /
//! evict with zero unsafe code.
//!
//! The engine wraps the single-threaded [`LruCache`] in a
//! [`ShardedLru`]: `N` independent shards, each behind its own mutex,
//! selected by a mix of the key hash — so concurrent requests for
//! different digests no longer serialize on one cache-wide lock.

use crate::job::RankResult;
use crate::lock_recover;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const NIL: usize = usize::MAX;

struct Entry {
    key: u64,
    value: Arc<RankResult>,
    prev: usize,
    next: usize,
}

/// An LRU map from job digest to result.
pub struct LruCache {
    map: HashMap<u64, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl LruCache {
    /// Create a cache holding at most `capacity` results (a capacity of
    /// 0 disables caching).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity.min(4096)),
            slab: Vec::with_capacity(capacity.min(4096)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Look up a digest, marking the entry most-recently-used.
    pub fn get(&mut self, key: u64) -> Option<Arc<RankResult>> {
        let idx = *self.map.get(&key)?;
        self.detach(idx);
        self.attach_front(idx);
        Some(Arc::clone(&self.slab[idx].value))
    }

    /// Insert (or refresh) a result, evicting the least-recently-used
    /// entry when full.
    pub fn insert(&mut self, key: u64, value: Arc<RankResult>) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].value = value;
            self.detach(idx);
            self.attach_front(idx);
            return;
        }
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.detach(lru);
            self.map.remove(&self.slab[lru].key);
            self.free.push(lru);
        }
        let entry = Entry {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx] = entry;
                idx
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn attach_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// A result cache split into power-of-two shards, each an independent
/// [`LruCache`] behind its own mutex. The shard for a key is chosen by
/// a Fibonacci multiplicative mix of the digest, so contention scales
/// down with the shard count while each shard keeps exact LRU order.
pub struct ShardedLru {
    shards: Vec<Mutex<LruCache>>,
    mask: u64,
}

impl ShardedLru {
    /// Build a cache of `capacity` total entries over `shards` shards
    /// (rounded up to a power of two, at least 1). Each shard holds
    /// `ceil(capacity / shards)` entries, so the effective total can
    /// round up slightly; [`ShardedLru::capacity`] reports the real
    /// bound. A `capacity` of 0 disables caching.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(LruCache::new(per_shard)))
                .collect(),
            mask: shards as u64 - 1,
        }
    }

    /// Pick a shard count for `capacity` on this machine: one shard per
    /// CPU (capped at 16) but never so many that a shard would hold
    /// fewer than ~4 entries, and a single shard for tiny caches so the
    /// configured capacity stays exact.
    pub fn auto_shards(capacity: usize) -> usize {
        if capacity == 0 {
            return 1;
        }
        let by_cpu = crate::tables::available_parallelism()
            .next_power_of_two()
            .min(16);
        let by_capacity = (capacity / 4).max(1).next_power_of_two();
        by_cpu.min(by_capacity)
    }

    fn shard(&self, key: u64) -> &Mutex<LruCache> {
        // Fibonacci hash: spread FNV digests (whose low bits carry the
        // last input bytes) across shards via the high bits of a
        // golden-ratio multiply
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(mixed & self.mask) as usize]
    }

    /// Look up a digest, marking the entry most-recently-used within
    /// its shard.
    pub fn get(&self, key: u64) -> Option<Arc<RankResult>> {
        lock_recover(self.shard(key)).get(key)
    }

    /// Insert (or refresh) a result, evicting within the key's shard
    /// when that shard is full.
    pub fn insert(&self, key: u64, value: Arc<RankResult>) {
        lock_recover(self.shard(key)).insert(key, value);
    }

    /// Number of cached results across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity (per-shard capacity × shard count).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).capacity()).sum()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: usize) -> Arc<RankResult> {
        Arc::new(RankResult {
            algorithm: "t".into(),
            ranking: vec![tag],
            consensus: None,
            metrics: vec![],
        })
    }

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(4);
        assert!(c.get(1).is_none());
        c.insert(1, result(1));
        assert_eq!(c.get(1).unwrap().ranking, vec![1]);
        assert!(c.get(2).is_none());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(1, result(1));
        c.insert(2, result(2));
        assert!(c.get(1).is_some()); // 1 is now MRU, 2 is LRU
        c.insert(3, result(3)); // evicts 2
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, result(1));
        c.insert(2, result(2));
        c.insert(1, result(11)); // refresh: 2 becomes LRU
        c.insert(3, result(3)); // evicts 2
        assert_eq!(c.get(1).unwrap().ranking, vec![11]);
        assert!(c.get(2).is_none());
    }

    #[test]
    fn poisoned_shard_keeps_serving() {
        // a holder that panics mid-update poisons the shard's mutex;
        // the LRU it guards is still structurally valid, so lookups,
        // inserts, `len` and `capacity` must recover instead of panicking
        let cache = Arc::new(ShardedLru::new(4, 1));
        cache.insert(1, result(1));
        let poisoner = Arc::clone(&cache);
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("poison the shard");
        })
        .join();
        assert!(joined.is_err());
        assert!(cache.shards[0].is_poisoned());
        assert_eq!(cache.get(1).unwrap().ranking, vec![1]);
        cache.insert(2, result(2));
        assert_eq!(cache.get(2).unwrap().ranking, vec![2]);
        assert_eq!((cache.len(), cache.capacity()), (2, 4));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.insert(1, result(1));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut c = LruCache::new(2);
        for key in 0..100u64 {
            c.insert(key, result(key as usize));
        }
        assert_eq!(c.len(), 2);
        assert!(c.slab.len() <= 3, "slab grew to {}", c.slab.len());
        assert!(c.get(99).is_some());
        assert!(c.get(98).is_some());
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        c.insert(1, result(1));
        c.insert(2, result(2));
        assert!(c.get(1).is_none());
        assert_eq!(c.get(2).unwrap().ranking, vec![2]);
    }

    #[test]
    fn sharded_hit_and_miss() {
        let c = ShardedLru::new(64, 4);
        assert_eq!(c.shard_count(), 4);
        assert!(c.get(1).is_none());
        c.insert(1, result(1));
        assert_eq!(c.get(1).unwrap().ranking, vec![1]);
        assert!(c.get(2).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.capacity(), 64);
    }

    #[test]
    fn sharded_len_never_exceeds_capacity() {
        let c = ShardedLru::new(16, 4);
        for key in 0..500u64 {
            c.insert(key, result(key as usize));
        }
        assert!(c.len() <= c.capacity(), "{} > {}", c.len(), c.capacity());
        assert!(c.len() >= 4, "every shard should retain something");
    }

    #[test]
    fn sharded_zero_capacity_disables_caching() {
        let c = ShardedLru::new(0, 8);
        c.insert(1, result(1));
        assert!(c.get(1).is_none());
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn sharded_shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedLru::new(64, 3).shard_count(), 4);
        assert_eq!(ShardedLru::new(64, 0).shard_count(), 1);
    }

    #[test]
    fn auto_shards_keeps_tiny_caches_exact() {
        assert_eq!(ShardedLru::auto_shards(0), 1);
        assert_eq!(ShardedLru::auto_shards(1), 1);
        assert_eq!(ShardedLru::auto_shards(3), 1);
        // large caches may shard (bounded by CPU count, so ≥ 1)
        assert!(ShardedLru::auto_shards(4096) >= 1);
        assert!(ShardedLru::auto_shards(4096) <= 16);
    }

    #[test]
    fn sharded_concurrent_access_is_safe() {
        // retention is not asserted per-insert: a thread preempted
        // between its insert and get can lose the race to 32 evicting
        // inserts on the same shard — only value integrity and the
        // capacity bound are deterministic under concurrency
        let c = Arc::new(ShardedLru::new(256, 8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..64u64 {
                        let key = t * 64 + i;
                        c.insert(key, result(key as usize));
                        if let Some(hit) = c.get(key) {
                            assert_eq!(hit.ranking, vec![key as usize]);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.len() <= c.capacity());
        assert!(!c.is_empty(), "the final inserts can't all be evicted");
        for key in 0..512u64 {
            if let Some(hit) = c.get(key) {
                assert_eq!(hit.ranking, vec![key as usize]);
            }
        }
    }
}
