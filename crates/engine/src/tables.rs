//! Cross-request cache of Mallows [`SamplerTables`] and the execution
//! context handed to every algorithm run.
//!
//! Algorithm 1 rebuilds its per-`(n, θ)` insertion-CDF table on every
//! call unless one is supplied; a serving engine that answers many
//! requests over the same candidate-pool size and dispersion should
//! build that table once. [`TableCache`] keys tables on exact
//! `(n, θ)` pairs next to the LRU result cache, and its hit/miss
//! counters surface in `GET /stats` as `sampler_table_hits` /
//! `sampler_table_misses`.
//!
//! Unlike the result cache, entries here are *parameter*-level, not
//! request-level: two jobs with different scores, groups or seeds still
//! share one table as long as `(n, θ)` match, so the hit rate is much
//! higher than the result cache's under diverse traffic.

use mallows_model::tables::SamplerTables;
use mallows_model::MallowsError;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared, bounded cache of [`SamplerTables`] keyed on `(n, θ)`,
/// split into hash-selected shards (each behind its own mutex) so
/// concurrent lookups of different keys do not contend on one lock.
pub struct TableCache {
    capacity: usize,
    shards: Vec<Mutex<Inner>>,
    mask: u64,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct Inner {
    map: HashMap<(usize, u64), Arc<SamplerTables>>,
    /// Insertion order for FIFO eviction. Tables are small (`n` floats
    /// plus a 4 KB guide) and cheap to rebuild, so plain FIFO is
    /// enough — no recency bookkeeping on the hot hit path.
    order: VecDeque<(usize, u64)>,
}

impl TableCache {
    /// Cache holding at most `capacity` tables (0 disables caching —
    /// every lookup builds a fresh table and counts as a miss), with a
    /// machine-appropriate shard count.
    pub fn new(capacity: usize) -> Self {
        TableCache::with_shards(capacity, crate::cache::ShardedLru::auto_shards(capacity))
    }

    /// Cache with an explicit shard count (rounded up to a power of
    /// two, at least 1). Each shard holds `ceil(capacity / shards)`
    /// entries; small caches should use one shard to keep the bound
    /// exact.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        TableCache {
            capacity,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Inner {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            mask: shards as u64 - 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: (usize, u64)) -> &Mutex<Inner> {
        // FNV-style fold of the two key halves, then a Fibonacci mix so
        // the shard index comes from the high bits
        let folded = (key.0 as u64)
            .wrapping_mul(0x0000_0100_0000_01b3)
            .wrapping_add(key.1);
        let mixed = folded.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[(mixed & self.mask) as usize]
    }

    fn per_shard_capacity(&self) -> usize {
        self.capacity.div_ceil(self.shards.len())
    }

    /// Fetch the table for `(n, theta)`, building and caching it on a
    /// miss. `θ` is keyed by its exact bit pattern.
    pub fn get_or_build(&self, n: usize, theta: f64) -> Result<Arc<SamplerTables>, MallowsError> {
        let key = (n, theta.to_bits());
        if self.capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(SamplerTables::new(n, theta)?));
        }
        let shard = self.shard(key);
        {
            let inner = crate::lock_recover(shard);
            if let Some(tables) = inner.map.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(tables));
            }
        }
        // build outside the lock: construction is O(n) but need not
        // serialize concurrent misses on different keys
        let tables = Arc::new(SamplerTables::new(n, theta)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = crate::lock_recover(shard);
        // a racing builder may have inserted an equivalent table for
        // this key already; overwriting it is harmless (same (n, θ) →
        // identical contents) and `order` keeps a single entry
        if inner.map.insert(key, Arc::clone(&tables)).is_none() {
            inner.order.push_back(key);
            if inner.order.len() > self.per_shard_capacity() {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.map.remove(&evicted);
                }
            }
        }
        Ok(tables)
    }

    /// Tables served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Tables that had to be built.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Tables currently cached (across all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| crate::lock_recover(s).map.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}

/// Per-engine resources threaded into every [`Algorithm::run`]
/// (algorithms that need no shared state ignore it; stand-alone callers
/// use [`ExecContext::default`]).
///
/// [`Algorithm::run`]: crate::registry::Algorithm::run
#[derive(Clone)]
pub struct ExecContext {
    /// Shared sampler-table cache.
    pub tables: Arc<TableCache>,
    /// Per-job thread budget for parallel sample-batch fan-out. The
    /// engine sets this so `workers × batch_threads` stays within the
    /// machine (the logical batch split — and therefore every result —
    /// is independent of it).
    pub batch_threads: usize,
    /// Trace ID of the request (or batch chunk) this execution belongs
    /// to; 0 for untraced library calls. Algorithms may stamp it into
    /// their own diagnostics — the engine threads it here so a run is
    /// attributable to its `GET /debug/traces` entry.
    pub trace_id: u64,
}

impl ExecContext {
    /// Context backed by the given table cache and the default
    /// (whole-machine) per-job thread budget.
    pub fn new(tables: Arc<TableCache>) -> Self {
        ExecContext {
            tables,
            batch_threads: available_parallelism(),
            trace_id: 0,
        }
    }

    /// Cap the per-job fan-out thread budget (minimum 1).
    pub fn with_batch_threads(mut self, batch_threads: usize) -> Self {
        self.batch_threads = batch_threads.max(1);
        self
    }

    /// Attribute this context to a trace (the engine clones its shared
    /// context per traced execution — an `Arc` clone plus scalars, no
    /// deep copy).
    pub fn with_trace_id(mut self, trace_id: u64) -> Self {
        self.trace_id = trace_id;
        self
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        ExecContext::new(Arc::new(TableCache::new(64)))
    }
}

/// Detected CPU count (1 when detection fails).
pub(crate) fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_miss_shares_the_table() {
        let cache = TableCache::new(4);
        let a = cache.get_or_build(100, 1.0).unwrap();
        let b = cache.get_or_build(100, 1.0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_parameters_are_distinct_entries() {
        let cache = TableCache::new(4);
        cache.get_or_build(100, 1.0).unwrap();
        cache.get_or_build(100, 2.0).unwrap();
        cache.get_or_build(200, 1.0).unwrap();
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn evicts_oldest_beyond_capacity() {
        let cache = TableCache::new(2);
        cache.get_or_build(10, 1.0).unwrap();
        cache.get_or_build(20, 1.0).unwrap();
        cache.get_or_build(30, 1.0).unwrap(); // evicts (10, 1.0)
        assert_eq!(cache.len(), 2);
        cache.get_or_build(10, 1.0).unwrap(); // rebuilt: a miss
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = TableCache::new(0);
        cache.get_or_build(10, 1.0).unwrap();
        cache.get_or_build(10, 1.0).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(cache.is_empty());
    }

    #[test]
    fn invalid_theta_propagates() {
        let cache = TableCache::new(4);
        assert!(cache.get_or_build(10, -1.0).is_err());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn sharded_cache_shares_hits_across_shards() {
        let cache = TableCache::with_shards(16, 4);
        assert_eq!(cache.shard_count(), 4);
        for _ in 0..3 {
            for n in [10usize, 20, 30, 40, 50] {
                cache.get_or_build(n, 1.0).unwrap();
            }
        }
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 10);
        assert_eq!(cache.len(), 5);
    }

    #[test]
    fn sharded_eviction_bounds_each_shard() {
        let cache = TableCache::with_shards(8, 2); // 4 per shard
        for n in 10..60 {
            cache.get_or_build(n, 1.0).unwrap();
        }
        assert!(cache.len() <= 8, "len = {}", cache.len());
        assert!(cache.len() >= 4, "both shards should retain entries");
    }

    #[test]
    fn poisoned_shard_keeps_serving() {
        // a holder that panics mid-update poisons the shard's mutex;
        // the map it guards is still structurally valid, so lookups,
        // inserts and `len` must recover instead of panicking
        let cache = Arc::new(TableCache::with_shards(4, 1));
        cache.get_or_build(10, 1.0).unwrap();
        let poisoner = Arc::clone(&cache);
        let joined = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("poison the shard");
        })
        .join();
        assert!(joined.is_err());
        assert!(cache.shards[0].is_poisoned());
        cache.get_or_build(10, 1.0).unwrap(); // hit
        cache.get_or_build(20, 1.0).unwrap(); // miss + insert
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(TableCache::new(8));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..32 {
                        let n = 50 + (t + i) % 4;
                        cache.get_or_build(n, 1.0).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cache.hits() + cache.misses(), 8 * 32);
        assert!(cache.len() <= 4);
    }
}
