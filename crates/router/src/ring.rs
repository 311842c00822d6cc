//! Consistent-hash ring over backend addresses.
//!
//! Each backend contributes `VNODES` virtual points placed by
//! hashing `addr#vnode`; a key is owned by the backend whose point is
//! the key's clockwise successor. The classic properties follow
//! directly from the construction and are pinned by
//! `tests/ring_properties.rs`:
//!
//! * **deterministic** — the ring is a pure function of the backend
//!   set, so every router instance (and every rebuild) agrees;
//! * **uniform** — with hundreds of points per backend the arc lengths
//!   concentrate, keeping per-backend load within a few percent;
//! * **monotone** — adding a backend only moves keys *onto* the new
//!   backend (~1/N of them); removing one only moves keys that lived
//!   on it. The rest of the cluster keeps its cache-warm assignments.
//!
//! Keys are [`fairrank_engine::job::RankJob::digest`] values — the
//! same algorithm+input digest the result cache is keyed by — so a
//! request lands on the replica that already holds its cached result.

/// Virtual points per backend. 1024 keeps the expected per-backend
/// arc imbalance around ±3% (relative spread ~1/√VNODES), so with the
/// ±12% sampling noise of 1k keys the property tests' ±20% uniformity
/// bound holds with real margin. An 8-backend ring is 8 192 points —
/// a rebuild is one sort, microseconds, and lookups stay a 13-step
/// binary search.
const VNODES: usize = 1024;

/// FNV-1a over `bytes` (same constants as the engine's digests).
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut hash = hash;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// splitmix64 finalizer: FNV output is well-distributed in the low
/// bits but ring placement compares full 64-bit values, so run the
/// hash through an avalanching mix before placing points.
fn mix(value: u64) -> u64 {
    let mut z = value.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Ring position of virtual point `vnode` for `addr`.
fn point(addr: &str, vnode: usize) -> u64 {
    let hash = fnv1a(0xcbf2_9ce4_8422_2325, addr.as_bytes());
    let hash = fnv1a(hash, b"#");
    mix(fnv1a(hash, &(vnode as u64).to_le_bytes()))
}

/// An immutable consistent-hash ring. Rebuilt from scratch on every
/// membership change — a build is a sort of `N × VNODES` points, far
/// below a probe interval's budget even for large clusters.
#[derive(Clone, Debug, Default)]
pub struct HashRing {
    /// `(position, backend index)` sorted by position. Position ties
    /// across backends break toward the lower index, so equal inputs
    /// always produce identical rings.
    points: Vec<(u64, u32)>,
    backends: Vec<String>,
}

impl HashRing {
    /// Build a ring over `backends` (order-sensitive only for tie
    /// breaks; duplicates are debug-asserted against).
    pub fn build<S: AsRef<str>>(backends: &[S]) -> HashRing {
        let backends: Vec<String> = backends.iter().map(|b| b.as_ref().to_string()).collect();
        debug_assert!(
            {
                let mut sorted = backends.clone();
                sorted.sort();
                sorted.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate backend addresses"
        );
        let mut points = Vec::with_capacity(backends.len() * VNODES);
        for (index, addr) in backends.iter().enumerate() {
            for vnode in 0..VNODES {
                points.push((point(addr, vnode), index as u32));
            }
        }
        points.sort_unstable();
        HashRing { points, backends }
    }

    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    pub fn len(&self) -> usize {
        self.backends.len()
    }

    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// The backend owning `key`, or `None` on an empty ring.
    pub fn owner(&self, key: u64) -> Option<&str> {
        let start = self.successor_index(key)?;
        let (_, backend) = self.points[start];
        Some(&self.backends[backend as usize])
    }

    /// Every backend in ring order starting from `key`'s owner, each
    /// listed once. Element 0 is the owner; the rest are the failover
    /// sequence a router walks when the owner is shedding or gone.
    pub fn owners(&self, key: u64) -> Vec<&str> {
        let Some(start) = self.successor_index(key) else {
            return Vec::new();
        };
        let mut seen = vec![false; self.backends.len()];
        let mut order = Vec::with_capacity(self.backends.len());
        for offset in 0..self.points.len() {
            let (_, backend) = self.points[(start + offset) % self.points.len()];
            if !seen[backend as usize] {
                seen[backend as usize] = true;
                order.push(self.backends[backend as usize].as_str());
                if order.len() == self.backends.len() {
                    break;
                }
            }
        }
        order
    }

    /// Index of the first point at or clockwise of `key` (wrapping).
    fn successor_index(&self, key: u64) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let position = mix(key);
        let index = self.points.partition_point(|&(p, _)| p < position);
        Some(index % self.points.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:8080")).collect()
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::build::<&str>(&[]);
        assert!(ring.is_empty());
        assert_eq!(ring.owner(42), None);
        assert!(ring.owners(42).is_empty());
    }

    #[test]
    fn single_backend_owns_everything() {
        let ring = HashRing::build(&["127.0.0.1:9000"]);
        for key in 0..100u64 {
            assert_eq!(ring.owner(key), Some("127.0.0.1:9000"));
        }
    }

    #[test]
    fn owners_lists_every_backend_once_owner_first() {
        let ring = HashRing::build(&addrs(5));
        for key in 0..50u64 {
            let owners = ring.owners(key);
            assert_eq!(owners.len(), 5);
            assert_eq!(owners[0], ring.owner(key).unwrap());
            let mut sorted: Vec<_> = owners.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "owners must be distinct");
        }
    }

    #[test]
    fn build_is_order_insensitive_for_ownership() {
        let forward = HashRing::build(&addrs(4));
        let mut reversed = addrs(4);
        reversed.reverse();
        let backward = HashRing::build(&reversed);
        for key in 0..1000u64 {
            assert_eq!(forward.owner(key), backward.owner(key));
        }
    }
}
