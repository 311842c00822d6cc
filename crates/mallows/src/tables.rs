//! Precomputed sampler tables and the zero-allocation RIM fast path.
//!
//! Every stage `j` of the repeated insertion model draws an inversion
//! count `V_j ∈ {0, …, j−1}` from the truncated geometric law
//! `P(V = v) ∝ q^v` with `q = e^{−θ}`. The closed-form inversion used
//! by [`sample_truncated_geometric`] pays two `ln` calls and a `powi`
//! per stage; at serving scale (the engine re-runs Algorithm 1 for
//! every request) that arithmetic — plus the per-sample allocations of
//! the naive path — dominates the hot loop.
//!
//! [`SamplerTables`] removes both costs for a fixed `(n, θ)` pair:
//!
//! * one shared prefix table `S[v] = Σ_{u ≤ v} q^u` (`n` floats, 80 KB
//!   at `n = 10⁴`) serves **all** stages, because stage `j`'s CDF is
//!   `S[v] / S[j−1]`: a stage draws one uniform `u` and returns
//!   `min{v : S[v] ≥ u·S[j−1]}`;
//! * the prefix **saturates**: from the first index `sat` where `S`
//!   equals its final value bit for bit, every later entry is that
//!   same `total` (`q^v` has dropped below half an ulp of the sum;
//!   `sat ≈ 60` at `θ = 0.6`, `≈ 680` at `θ = 0.05`, `0` once `q`
//!   underflows). Every stage `j > sat + 1` therefore shares one CDF,
//!   `S[v] / total`, and its answer lies in `0..=sat`;
//! * those stages invert through a 1024-bucket guide table (Chen–Asau):
//!   `guide[b] = min{v : S[v] ≥ (b/1024)·total}`. A draw computes
//!   `target = u·total` and scans up from `guide[⌊1024·u⌋]` while
//!   `S[v] < target` — usually zero or one step;
//! * stages `j ≤ sat + 1` keep a galloping search from `v = 0`
//!   (doubling steps, then a binary search in the final gap). At
//!   `θ = 0` the prefix `S[v] = v + 1` never saturates, so every stage
//!   takes this path and the uniform worst case stays `O(log j)`;
//! * [`RimSampler`] owns the table plus code/decode scratch and writes
//!   samples into caller-provided [`Permutation`] buffers, so a
//!   best-of-`m` loop performs no allocation after warm-up.
//!
//! The guide path is exact, not approximate: it consumes the same
//! single `f64` per stage and returns the same index as the galloping
//! search. For `j > sat + 1`, `S[j−1] = total` bit for bit, so both
//! compute the identical `target`. The bucket `b = ⌊1024·u⌋` satisfies
//! `b/1024 ≤ u` exactly, and rounded multiplication by the positive
//! `total` is monotone, so the bucket's threshold is at most `target`
//! and no index below `guide[b]` can qualify. The scan then stops at
//! the first qualifying index, which is the galloping search's answer.
//! `#[doc(hidden)]` [`SamplerTables::sample_stage_reference`] keeps
//! the pure galloping search as the oracle the property tests and the
//! `sampler_tables` bench compare against.
//!
//! Tables are cheap to build and immutable, so the serving engine
//! caches them per `(n, θ)` across requests. The build adds powers of
//! `q` only up to the saturation point and fills the rest with `total`;
//! this also skips the subnormal arithmetic `q^v` would otherwise run
//! into (for `q > 1/2` it never reaches zero). It then fills the 4 KB
//! guide when some stage will use it.
//!
//! ```
//! use mallows_model::tables::{RimSampler, SamplerTables};
//! use ranking_core::Permutation;
//! use rand::{rngs::StdRng, SeedableRng};
//! use std::sync::Arc;
//!
//! let tables = Arc::new(SamplerTables::new(50, 1.0).unwrap());
//! let mut sampler = RimSampler::from_tables(Permutation::identity(50), tables).unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut out = Permutation::identity(0);
//! for _ in 0..10 {
//!     sampler.sample_into(&mut out, &mut rng); // reuses `out`'s buffer
//!     assert_eq!(out.len(), 50);
//! }
//! ```

use crate::{MallowsError, Result};
use rand::Rng;
use ranking_core::lehmer::{self, DecodeScratch};
use ranking_core::Permutation;
use std::sync::Arc;

/// Buckets in the guide table (a power of two, so the bucket index of
/// `u ∈ [0, 1)` is an exact scaling).
const GUIDE_BUCKETS: usize = 1024;

/// Precomputed per-`(n, θ)` insertion-CDF table for RIM sampling.
///
/// Immutable and `Send + Sync`; share it behind an [`Arc`] across
/// samplers, worker threads and the engine's table cache.
#[derive(Debug, Clone)]
pub struct SamplerTables {
    n: usize,
    theta: f64,
    /// `prefix[v] = Σ_{u=0..=v} q^u`; saturates harmlessly once `q^u`
    /// underflows (the tail mass is below one ulp of the total).
    prefix: Vec<f64>,
    /// `prefix[n−1]` (0 for an empty table).
    total: f64,
    /// First index with `prefix[sat] == total` bit for bit; stages
    /// `j > sat + 1` use the guide table. `n − 1` when the prefix never
    /// saturates (`θ = 0`, or tiny `θ` at small `n`).
    sat: usize,
    /// `guide[b] = min{v : prefix[v] ≥ (b/1024)·total}`, all `≤ sat`;
    /// all zero (a valid but slow start) when no stage `j > sat + 1`
    /// exists or `sat` does not fit `u32`.
    guide: Box<[u32; GUIDE_BUCKETS]>,
}

impl SamplerTables {
    /// Build the table for rankings of `n` items at dispersion
    /// `θ ≥ 0`. Costs `O(n)` time, `n` floats and a 4 KB guide table.
    ///
    /// ```
    /// use mallows_model::tables::SamplerTables;
    /// let t = SamplerTables::new(100, 0.5).unwrap();
    /// assert_eq!((t.n(), t.theta()), (100, 0.5));
    /// assert!(SamplerTables::new(100, -1.0).is_err());
    /// ```
    pub fn new(n: usize, theta: f64) -> Result<Self> {
        if !theta.is_finite() || theta < 0.0 {
            return Err(MallowsError::InvalidTheta { theta });
        }
        let q = (-theta).exp();
        let mut prefix = Vec::with_capacity(n);
        let mut power = 1.0f64;
        let mut sum = 0.0f64;
        // once adding q^v leaves the sum unchanged, every later (smaller)
        // power does too, so the rest of the table is the total. Stopping
        // there also skips the slow subnormal multiplications: for
        // q > 1/2, q^v never reaches zero but sticks at the smallest
        // subnormal
        while prefix.len() < n && sum + power != sum {
            sum += power;
            prefix.push(sum);
            power *= q;
        }
        // every pushed entry grew the sum, so the last one is the first
        // equal to the total
        let sat = prefix.len().saturating_sub(1);
        prefix.resize(n, sum);
        let total = sum;
        // an all-zero guide is still a valid (if slow) start for every
        // scan, so it stays zero when no stage j > sat + 1 will read it,
        // or when its entries would not fit u32 (32 GiB of prefix)
        let mut guide = Box::new([0u32; GUIDE_BUCKETS]);
        if sat + 1 < n && u32::try_from(sat).is_ok() {
            let mut v = 0usize;
            for (b, slot) in guide.iter_mut().enumerate() {
                // the same rounded product a draw with u = b/1024
                // computes; it is at most prefix[sat] = total, which
                // stops the walk
                let threshold = (b as f64 / GUIDE_BUCKETS as f64) * total;
                while prefix[v] < threshold {
                    v += 1;
                }
                *slot = v as u32;
            }
        }
        Ok(SamplerTables {
            n,
            theta,
            prefix,
            total,
            sat,
            guide,
        })
    }

    /// Maximum ranking length the table supports.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The dispersion `θ` the table was built for.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Approximate heap footprint in bytes (engine cache accounting).
    pub fn bytes(&self) -> usize {
        self.prefix.len() * std::mem::size_of::<f64>() + std::mem::size_of_val(&*self.guide)
    }

    /// Draw `V ∈ {0, …, j−1}` with `P(V = v) ∝ q^v` by inverse-CDF
    /// lookup in the prefix table. Requires `j ≤ n`; consumes exactly
    /// one `f64` from `rng` for `j ≥ 2` and none for `j ≤ 1`.
    ///
    /// Stages past the saturation point resolve through the guide
    /// table, earlier ones through the galloping search; both return
    /// the same value for the same draw (see the module docs).
    #[inline]
    pub fn sample_stage<R: Rng + ?Sized>(&self, j: usize, rng: &mut R) -> usize {
        if j <= 1 {
            return 0;
        }
        let u = rng.random();
        if j <= self.sat + 1 {
            self.gallop(j, u)
        } else {
            self.guided(u)
        }
    }

    /// The galloping inverse-CDF search for every stage — the oracle
    /// that [`SamplerTables::sample_stage`] and
    /// [`SamplerTables::sample_code_into`] match draw for draw. Not
    /// meant for production use.
    #[doc(hidden)]
    pub fn sample_stage_reference<R: Rng + ?Sized>(&self, j: usize, rng: &mut R) -> usize {
        if j <= 1 {
            return 0;
        }
        self.gallop(j, rng.random())
    }

    /// Smallest `v < j` with `prefix[v] ≥ u·prefix[j−1]`, by a
    /// galloping search from `v = 0`. Requires `2 ≤ j ≤ n`.
    #[inline]
    fn gallop(&self, j: usize, u: f64) -> usize {
        debug_assert!(j <= self.n, "stage {j} exceeds table size {}", self.n);
        let s = &self.prefix[..j];
        // smallest v with CDF(v) = s[v]/s[j−1] ≥ u; u < 1 guarantees
        // v = j−1 qualifies, so the search cannot fall off the end
        let target = u * s[j - 1];
        if s[0] >= target {
            return 0;
        }
        let mut lo = 0usize; // invariant: s[lo] < target
        let mut step = 1usize;
        while lo + step < j && s[lo + step] < target {
            lo += step;
            step <<= 1;
        }
        let mut hi = (lo + step).min(j - 1); // s[hi] ≥ target
        while hi > lo + 1 {
            let mid = lo + (hi - lo) / 2;
            if s[mid] < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }

    /// Smallest `v` with `prefix[v] ≥ u·total`, scanning up from the
    /// guide entry of `u`'s bucket. Exact for every stage `j > sat + 1`.
    #[inline]
    fn guided(&self, u: f64) -> usize {
        let target = u * self.total;
        // u ∈ [0, 1), so the bucket is already below 1024; the mask
        // only lets the compiler drop the bounds check
        let mut v = self.guide[(u * GUIDE_BUCKETS as f64) as usize & (GUIDE_BUCKETS - 1)] as usize;
        // prefix[sat] = total ≥ target stops the scan by v = sat
        while self.prefix[v] < target {
            v += 1;
        }
        v
    }

    /// Fill `code` with a fresh stage-valid insertion code (`code[j−1]`
    /// is stage `j`'s inversion count) for a ranking of `len ≤ n`
    /// items, reusing the buffer. Draws exactly what `len` calls of
    /// [`SamplerTables::sample_stage_reference`] would. Stage values
    /// are below `len`, so they fit `u32` for every ranking the
    /// decoders accept (`len ≤ u32::MAX`).
    pub fn sample_code_into<R: Rng + ?Sized>(&self, len: usize, code: &mut Vec<u32>, rng: &mut R) {
        debug_assert!(len <= self.n);
        code.clear();
        code.reserve(len);
        if len == 0 {
            return;
        }
        // stage 1 has a single slot and draws nothing; stages 2..=sat+1
        // see a still-growing prefix; the rest share the saturated CDF
        // (whose answers lie in 0..=sat), so the hot loop carries no
        // per-stage branch
        code.push(0);
        let galloped = len.min(self.sat + 1);
        code.extend((2..=galloped).map(|j| self.gallop(j, rng.random()) as u32));
        code.extend((galloped..len).map(|_| self.guided(rng.random()) as u32));
    }
}

/// Sample `V ∈ {0, …, j−1}` with `P(V = v) ∝ q^v` (`q = e^{−θ}`) by
/// closed-form CDF inversion — the table-free reference sampler.
///
/// Uniform for `q ≥ 1` (`θ = 0`); falls back to an exact linear scan
/// when floating-point inversion lands out of range. [`SamplerTables`]
/// draws from the same distribution without the per-draw `ln`/`powi`
/// cost; this form remains for one-off draws, the per-stage-θ
/// generalized model, and as the independent reference the golden
/// distribution tests compare the table path against.
///
/// ```
/// use mallows_model::tables::sample_truncated_geometric;
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(3);
/// let v = sample_truncated_geometric(0.5f64.exp().recip(), 6, &mut rng);
/// assert!(v < 6);
/// ```
pub fn sample_truncated_geometric<R: Rng + ?Sized>(q: f64, j: usize, rng: &mut R) -> usize {
    if j <= 1 {
        return 0;
    }
    if q >= 1.0 {
        return rng.random_range(0..j);
    }
    let u: f64 = rng.random::<f64>();
    // CDF(v) = (1 − q^{v+1}) / (1 − q^j); solve CDF(v) ≥ u.
    let mass = 1.0 - q.powi(j as i32);
    let x = 1.0 - u * mass;
    let v = (x.ln() / q.ln()).ceil() as isize - 1;
    if (0..j as isize).contains(&v) {
        return v as usize;
    }
    // Numerical edge: fall back to exact linear scan.
    let mut acc = 0.0;
    let norm: f64 = (0..j).map(|v| q.powi(v as i32)).sum();
    for v in 0..j {
        acc += q.powi(v as i32) / norm;
        if u <= acc {
            return v;
        }
    }
    j - 1
}

/// One full draw of the pre-table reference sampler: closed-form stage
/// inversion ([`sample_truncated_geometric`]) plus an allocating
/// decode — exactly the original `MallowsModel::sample` implementation.
///
/// This is **not** a fast path. It exists as the independent baseline
/// that the golden distribution tests
/// (`crates/mallows/tests/golden_distribution.rs`) and the
/// before/after benches (`bench/benches/sampler_tables.rs`) compare
/// the table-driven sampler against; keeping it here prevents the two
/// from reconstructing — and silently diverging on — their own copies.
///
/// ```
/// use mallows_model::tables::sample_reference;
/// use ranking_core::Permutation;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(6);
/// let s = sample_reference(&Permutation::identity(9), 1.0, &mut rng);
/// assert_eq!(s.len(), 9);
/// ```
pub fn sample_reference<R: Rng + ?Sized>(
    center: &Permutation,
    theta: f64,
    rng: &mut R,
) -> Permutation {
    let n = center.len();
    let q = (-theta).exp();
    let code: Vec<usize> = (1..=n)
        .map(|j| sample_truncated_geometric(q, j, rng))
        .collect();
    lehmer::decode_insertion_code(center, &code).expect("sampled code is stage-valid")
}

/// Zero-allocation Mallows sampler: shared [`SamplerTables`] plus owned
/// code and decode scratch.
///
/// After the first sample has grown the buffers, every further
/// [`RimSampler::sample_into`] performs no heap allocation. The
/// two-phase API ([`RimSampler::sample_code`] then
/// [`RimSampler::decode_code_into`]) lets selection loops that only
/// need the Kendall tau distance (`d_KT = Σ code`) skip decoding
/// non-winning samples entirely.
#[derive(Debug, Clone)]
pub struct RimSampler {
    center: Permutation,
    tables: Arc<SamplerTables>,
    code: Vec<u32>,
    scratch: DecodeScratch,
}

impl RimSampler {
    /// Build a sampler around `center` at dispersion `θ`, constructing
    /// a fresh table.
    pub fn new(center: Permutation, theta: f64) -> Result<Self> {
        let tables = Arc::new(SamplerTables::new(center.len(), theta)?);
        RimSampler::from_tables(center, tables)
    }

    /// Build a sampler from a shared (possibly cached) table. Errors
    /// when the table is too small for the centre.
    pub fn from_tables(center: Permutation, tables: Arc<SamplerTables>) -> Result<Self> {
        if tables.n() < center.len() {
            return Err(MallowsError::LengthMismatch {
                center: center.len(),
                other: tables.n(),
            });
        }
        Ok(RimSampler {
            center,
            tables,
            code: Vec::new(),
            scratch: DecodeScratch::new(),
        })
    }

    /// The centre permutation samples are drawn around.
    pub fn center(&self) -> &Permutation {
        &self.center
    }

    /// The shared stage table.
    pub fn tables(&self) -> &Arc<SamplerTables> {
        &self.tables
    }

    /// Draw a fresh insertion code into the internal buffer and return
    /// it. The code alone determines the sample; decode lazily via
    /// [`RimSampler::decode_code_into`].
    pub fn sample_code<R: Rng + ?Sized>(&mut self, rng: &mut R) -> &[u32] {
        self.tables
            .sample_code_into(self.center.len(), &mut self.code, rng);
        &self.code
    }

    /// `Σ code` of the last drawn code — exactly the Kendall tau
    /// distance between the (not yet decoded) sample and the centre.
    pub fn code_total(&self) -> u64 {
        self.code.iter().map(|&v| u64::from(v)).sum()
    }

    /// Decode the last drawn code into `out`, reusing its buffer.
    pub fn decode_code_into(&mut self, out: &mut Permutation) {
        lehmer::decode_insertion_code_into(&self.center, &self.code, &mut self.scratch, out)
            .expect("sampled code is stage-valid by construction");
    }

    /// Draw one exact Mallows sample into `out`, reusing its buffer —
    /// the allocation-free equivalent of
    /// [`MallowsModel::sample`](crate::MallowsModel::sample).
    pub fn sample_into<R: Rng + ?Sized>(&mut self, out: &mut Permutation, rng: &mut R) {
        self.sample_code(rng);
        self.decode_code_into(out);
    }

    /// Convenience allocating form of [`RimSampler::sample_into`].
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Permutation {
        let mut out = Permutation::identity(0);
        self.sample_into(&mut out, rng);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_invalid_theta() {
        assert!(SamplerTables::new(5, -0.1).is_err());
        assert!(SamplerTables::new(5, f64::NAN).is_err());
    }

    #[test]
    fn prefix_matches_geometric_series() {
        let t = SamplerTables::new(6, 1.0).unwrap();
        let q = (-1.0f64).exp();
        let mut expect = 0.0;
        for v in 0..6 {
            expect += q.powi(v as i32);
            assert!((t.prefix[v] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn saturation_point_and_guide_follow_the_prefix() {
        for (theta, lo, hi) in [(0.6, 50, 70), (0.05, 600, 760), (40.0, 0, 0)] {
            let t = SamplerTables::new(10_000, theta).unwrap();
            // the early-stopping build leaves the unabridged running sum
            let q = (-theta).exp();
            let (mut sum, mut power) = (0.0f64, 1.0f64);
            for &p in &t.prefix {
                sum += power;
                power *= q;
                assert_eq!(p.to_bits(), sum.to_bits(), "θ={theta}");
            }
            assert!((lo..=hi).contains(&t.sat), "θ={theta}: sat = {}", t.sat);
            assert_eq!(t.prefix[t.sat].to_bits(), t.total.to_bits());
            assert!(t.sat == 0 || t.prefix[t.sat - 1] < t.total);
            for (b, &g) in t.guide.iter().enumerate() {
                let threshold = (b as f64 / GUIDE_BUCKETS as f64) * t.total;
                let g = g as usize;
                assert!(t.prefix[g] >= threshold && (g == 0 || t.prefix[g - 1] < threshold));
            }
        }
        // θ = 0 never saturates: every stage gallops
        assert_eq!(SamplerTables::new(500, 0.0).unwrap().sat, 499);
        assert_eq!(SamplerTables::new(0, 0.6).unwrap().sat, 0);
    }

    /// Replays a fixed list of raw 64-bit words, cycling.
    #[derive(Clone)]
    struct Replay {
        words: Arc<[u64]>,
        at: usize,
    }

    impl rand::RngCore for Replay {
        fn next_u64(&mut self) -> u64 {
            let w = self.words[self.at % self.words.len()];
            self.at += 1;
            w
        }
    }

    #[test]
    fn guide_path_is_exact_at_bucket_boundaries() {
        // f64 draws take the top 53 bits: bucket b starts at mantissa
        // b·2⁴³ (word b << 54); also feed the mantissa just below each
        // boundary and the largest one, 2⁵³ − 1
        let mut words: Vec<u64> = Vec::new();
        for b in 0..GUIDE_BUCKETS as u64 {
            words.push(b << 54);
            if b > 0 {
                words.push((b << 54) - (1 << 11));
            }
        }
        words.push(((1u64 << 53) - 1) << 11);
        let words: Arc<[u64]> = words.into();
        for theta in [1e-3, 0.05, 0.6, 2.0, 40.0] {
            let n = 3000;
            let t = SamplerTables::new(n, theta).unwrap();
            for &w in words.iter() {
                let stub = Replay {
                    words: Arc::from([w]),
                    at: 0,
                };
                for j in [(t.sat + 2).min(n), n] {
                    assert_eq!(
                        t.sample_stage(j, &mut stub.clone()),
                        t.sample_stage_reference(j, &mut stub.clone()),
                        "θ={theta} j={j} word={w:#x}"
                    );
                }
            }
            // whole codes over the cycling stream, stage for stage
            let mut fast = Replay {
                words: Arc::clone(&words),
                at: 0,
            };
            let mut oracle = fast.clone();
            let mut code = Vec::new();
            for _ in 0..3 {
                t.sample_code_into(n, &mut code, &mut fast);
                let expect: Vec<u32> = (1..=n)
                    .map(|j| t.sample_stage_reference(j, &mut oracle) as u32)
                    .collect();
                assert_eq!(code, expect, "θ={theta}");
                assert_eq!(fast.at, oracle.at);
            }
        }
    }

    #[test]
    fn stage_one_never_draws() {
        let t = SamplerTables::new(4, 0.7).unwrap();
        // a panicking RNG proves no randomness is consumed for j ≤ 1
        struct NoDraw;
        impl rand::RngCore for NoDraw {
            fn next_u64(&mut self) -> u64 {
                panic!("stage 1 must not draw");
            }
        }
        assert_eq!(t.sample_stage(1, &mut NoDraw), 0);
        assert_eq!(t.sample_stage(0, &mut NoDraw), 0);
    }

    #[test]
    fn table_inversion_matches_closed_form_distribution() {
        // per-stage χ²-style check against exact probabilities
        let theta = 0.8f64;
        let q = (-theta).exp();
        let t = SamplerTables::new(8, theta).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let draws = 40_000;
        for j in [2usize, 5, 8] {
            let mut counts = vec![0usize; j];
            for _ in 0..draws {
                counts[t.sample_stage(j, &mut rng)] += 1;
            }
            let norm: f64 = (0..j).map(|v| q.powi(v as i32)).sum();
            for v in 0..j {
                let p = q.powi(v as i32) / norm;
                let observed = counts[v] as f64 / draws as f64;
                let sigma = (p * (1.0 - p) / draws as f64).sqrt();
                assert!(
                    (observed - p).abs() < 5.0 * sigma + 1e-4,
                    "j={j} v={v}: exact {p:.5} vs observed {observed:.5}"
                );
            }
        }
    }

    #[test]
    fn theta_zero_stage_is_uniform() {
        let t = SamplerTables::new(5, 0.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let draws = 25_000;
        let mut counts = vec![0usize; 5];
        for _ in 0..draws {
            counts[t.sample_stage(5, &mut rng)] += 1;
        }
        for &c in &counts {
            let expected = draws as f64 / 5.0;
            assert!(
                (c as f64 - expected).abs() < 5.0 * expected.sqrt(),
                "count {c}"
            );
        }
    }

    #[test]
    fn extreme_theta_underflow_is_safe() {
        // q^v underflows almost immediately at θ = 40; every draw must
        // still be the centre's choice (v = 0)
        let t = SamplerTables::new(2000, 40.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for j in [2usize, 100, 2000] {
            for _ in 0..50 {
                assert_eq!(t.sample_stage(j, &mut rng), 0);
            }
        }
    }

    #[test]
    fn sampler_reuses_buffers_and_produces_valid_permutations() {
        let center = Permutation::random(300, &mut StdRng::seed_from_u64(1));
        let mut sampler = RimSampler::new(center, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut out = Permutation::identity(0);
        for _ in 0..20 {
            sampler.sample_into(&mut out, &mut rng);
            let mut sorted = out.as_order().to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..300).collect::<Vec<_>>());
        }
    }

    #[test]
    fn code_total_equals_kendall_tau() {
        use ranking_core::distance;
        let center = Permutation::random(40, &mut StdRng::seed_from_u64(7));
        let mut sampler = RimSampler::new(center.clone(), 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut out = Permutation::identity(0);
        for _ in 0..25 {
            sampler.sample_into(&mut out, &mut rng);
            assert_eq!(
                sampler.code_total(),
                distance::kendall_tau(&out, &center).unwrap()
            );
        }
    }

    #[test]
    fn external_code_decode_matches_internal_path() {
        // a code drawn straight from the table and decoded by the
        // library decoder is the sampler's own draw
        let center = Permutation::random(60, &mut StdRng::seed_from_u64(21));
        let tables = Arc::new(SamplerTables::new(60, 0.4).unwrap());
        let mut a = RimSampler::from_tables(center.clone(), Arc::clone(&tables)).unwrap();
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let mut out_a = Permutation::identity(0);
        let mut out_b = Permutation::identity(0);
        let mut code = Vec::new();
        let mut scratch = DecodeScratch::new();
        for _ in 0..15 {
            a.sample_into(&mut out_a, &mut rng_a);
            tables.sample_code_into(60, &mut code, &mut rng_b);
            lehmer::decode_insertion_code_into(&center, &code, &mut scratch, &mut out_b).unwrap();
            assert_eq!(out_a, out_b);
        }
    }

    #[test]
    fn from_tables_rejects_short_tables() {
        let tables = Arc::new(SamplerTables::new(3, 1.0).unwrap());
        assert!(RimSampler::from_tables(Permutation::identity(5), tables).is_err());
    }

    #[test]
    fn shared_tables_support_shorter_centers() {
        let tables = Arc::new(SamplerTables::new(64, 1.0).unwrap());
        let mut sampler =
            RimSampler::from_tables(Permutation::identity(10), Arc::clone(&tables)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(sampler.sample(&mut rng).len(), 10);
    }
}
