//! Job and result types flowing through the engine.
//!
//! A [`RankJob`] is a fully self-contained request: algorithm name,
//! input data and parameters (including the RNG seed, so re-running a
//! job is bit-reproducible). Jobs have a canonical text form whose
//! FNV-1a hash keys the result cache.

use crate::json::Json;
use crate::num;
use std::fmt::Write as _;

/// Input payload of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobInput {
    /// A candidate pool: per-item utility scores and (optionally) a
    /// protected-group id per item. An empty `groups` means "single
    /// group" (fairness metrics degenerate gracefully).
    Scores {
        /// Utility score per item.
        scores: Vec<f64>,
        /// Group id per item (dense, 0-based), or empty.
        groups: Vec<usize>,
    },
    /// A vote profile: each vote is a full ranking (permutation of
    /// `0..n`), plus an optional group id per item.
    Votes {
        /// One permutation of `0..n` per voter.
        votes: Vec<Vec<usize>>,
        /// Group id per item (dense, 0-based), or empty.
        groups: Vec<usize>,
    },
}

impl JobInput {
    /// Number of items being ranked.
    pub fn len(&self) -> usize {
        match self {
            JobInput::Scores { scores, .. } => scores.len(),
            JobInput::Votes { votes, .. } => votes.first().map_or(0, Vec::len),
        }
    }

    /// True when there is nothing to rank.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The group assignment column (may be empty).
    pub fn groups(&self) -> &[usize] {
        match self {
            JobInput::Scores { groups, .. } | JobInput::Votes { groups, .. } => groups,
        }
    }
}

/// Best-of-`m` selection criterion of the `mallows` algorithm (paper
/// Algorithm 1): which of the `m` Mallows samples is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Criterion {
    /// Highest NDCG against the job's scores (utility).
    Ndcg,
    /// Smallest infeasible index w.r.t. the job's known groups.
    Infeasible,
    /// Smallest Kendall tau distance to the centre ranking.
    Kendall,
}

impl Criterion {
    /// Every criterion, in documentation order.
    pub const ALL: [Criterion; 3] = [Criterion::Ndcg, Criterion::Infeasible, Criterion::Kendall];

    /// The name used by `--criterion` and the HTTP `criterion` field.
    pub fn as_str(self) -> &'static str {
        match self {
            Criterion::Ndcg => "ndcg",
            Criterion::Infeasible => "infeasible",
            Criterion::Kendall => "kendall",
        }
    }

    /// Parse a criterion name (`ndcg`, `infeasible` or `kendall`).
    pub fn parse(name: &str) -> Option<Criterion> {
        Criterion::ALL.into_iter().find(|c| c.as_str() == name)
    }
}

/// Tunable parameters of a job. The defaults are the HTTP API's; the
/// `fairrank` CLI shares all of them except `samples`, which `rank`
/// defaults to 1 (`aggregate` and `pipeline` use 15, like this type).
#[derive(Debug, Clone, PartialEq)]
pub struct JobParams {
    /// Mallows dispersion θ.
    pub theta: f64,
    /// Mallows best-of-`m` sample count.
    pub samples: usize,
    /// Mallows best-of-`m` selection criterion.
    pub criterion: Criterion,
    /// Fairness proportion tolerance.
    pub tolerance: f64,
    /// Constraint-noise standard deviation σ for the noise-robustness
    /// scenarios (`detconstsort`, `ipf` and `ilp` perturb their
    /// fairness constraints by N(0, σ²) when σ > 0).
    pub noise_sd: f64,
    /// Shortlist size (None = rank everything).
    pub k: Option<usize>,
    /// Deterministic RNG seed for this job.
    pub seed: u64,
    /// Aggregation stage name (pipeline jobs).
    pub method: String,
    /// Post-processing stage name (pipeline jobs).
    pub post: String,
    /// Protected group id (FA*IR).
    pub protected: usize,
    /// Minimum protected proportion (FA*IR; None = pool share).
    pub proportion: Option<f64>,
    /// Significance level α (FA*IR).
    pub alpha: f64,
}

impl Default for JobParams {
    fn default() -> Self {
        JobParams {
            theta: 1.0,
            samples: 15,
            criterion: Criterion::Ndcg,
            tolerance: 0.1,
            noise_sd: 0.0,
            k: None,
            seed: 42,
            method: "kemeny".to_string(),
            post: "mallows".to_string(),
            protected: 0,
            proportion: None,
            alpha: 0.1,
        }
    }
}

/// One unit of work: run `algorithm` on `input` with `params`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankJob {
    /// Registry name of the algorithm.
    pub algorithm: String,
    /// Input payload.
    pub input: JobInput,
    /// Parameters (seed included).
    pub params: JobParams,
}

impl RankJob {
    /// Canonical text form: every field in a fixed order. Two jobs have
    /// equal canonical forms iff they are behaviourally identical, so
    /// the form's hash is a sound cache key.
    pub fn canonical(&self) -> String {
        let mut s = String::with_capacity(256);
        let p = &self.params;
        let _ = write!(
            s,
            "algo={};theta={};samples={};crit={};tol={};noise={};k={:?};seed={};method={};post={};prot={};prop={:?};alpha={};",
            self.algorithm, p.theta, p.samples, p.criterion.as_str(), p.tolerance, p.noise_sd, p.k,
            p.seed, p.method, p.post, p.protected, p.proportion, p.alpha
        );
        match &self.input {
            JobInput::Scores { scores, groups } => {
                s.push_str("scores=");
                for &x in scores {
                    num::write_f64(x, &mut s);
                    s.push(',');
                }
                s.push_str(";groups=");
                write_index_list(groups, &mut s);
            }
            JobInput::Votes { votes, groups } => {
                s.push_str("votes=");
                for vote in votes {
                    write_index_list(vote, &mut s);
                    s.push('|');
                }
                s.push_str(";groups=");
                write_index_list(groups, &mut s);
            }
        }
        s
    }

    /// FNV-1a hash of the canonical form (the cache key).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.canonical().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Append each index followed by a comma (the canonical form's lists).
fn write_index_list(indices: &[usize], out: &mut String) {
    for &i in indices {
        num::write_usize(i, out);
        out.push(',');
    }
}

/// Output of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct RankResult {
    /// Algorithm that produced the result.
    pub algorithm: String,
    /// The (fair) ranking: item ids in rank order.
    pub ranking: Vec<usize>,
    /// The pre-post-processing consensus, for pipeline jobs.
    pub consensus: Option<Vec<usize>>,
    /// Named metrics, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl RankResult {
    /// Look up one metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Serialize the response body directly into `out`, byte-identical
    /// to `to_json().to_string()` but without building the intermediate
    /// [`Json`] tree — the HTTP workers call this with a reusable
    /// buffer so a warm request serializes with zero allocations.
    pub fn write_json(&self, out: &mut String) {
        fn write_index_array(indices: &[usize], out: &mut String) {
            out.push('[');
            for (i, &idx) in indices.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                num::write_usize(idx, out);
            }
            out.push(']');
        }

        out.push_str("{\"algorithm\":");
        crate::json::write_string(&self.algorithm, out);
        match &self.consensus {
            Some(consensus) => {
                out.push_str(",\"consensus\":");
                write_index_array(consensus, out);
                out.push_str(",\"fair_ranking\":");
                write_index_array(&self.ranking, out);
            }
            None => {
                out.push_str(",\"ranking\":");
                write_index_array(&self.ranking, out);
            }
        }
        out.push_str(",\"metrics\":{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::write_string(name, out);
            out.push(':');
            crate::json::write_number(*value, out);
        }
        out.push_str("}}");
    }

    /// JSON body served for this result. Pipeline results carry both
    /// `consensus` and `fair_ranking`; plain jobs carry `ranking`.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = vec![(
            "algorithm".to_string(),
            Json::String(self.algorithm.clone()),
        )];
        match &self.consensus {
            Some(consensus) => {
                fields.push(("consensus".to_string(), Json::index_array(consensus)));
                fields.push(("fair_ranking".to_string(), Json::index_array(&self.ranking)));
            }
            None => {
                fields.push(("ranking".to_string(), Json::index_array(&self.ranking)));
            }
        }
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Json::Number(*v)))
            .collect();
        fields.push(("metrics".to_string(), Json::Object(metrics)));
        Json::Object(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(seed: u64) -> RankJob {
        RankJob {
            algorithm: "mallows".to_string(),
            input: JobInput::Scores {
                scores: vec![0.9, 0.5, 0.1],
                groups: vec![0, 1, 0],
            },
            params: JobParams {
                seed,
                ..JobParams::default()
            },
        }
    }

    #[test]
    fn digest_is_stable_and_seed_sensitive() {
        assert_eq!(job(1).digest(), job(1).digest());
        assert_ne!(job(1).digest(), job(2).digest());
    }

    #[test]
    fn digest_sees_input_changes() {
        let a = job(1);
        let mut b = job(1);
        if let JobInput::Scores { scores, .. } = &mut b.input {
            scores[0] = 0.91;
        }
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn digest_sees_criterion_changes() {
        let mut b = job(1);
        b.params.criterion = Criterion::Kendall;
        assert_ne!(job(1).digest(), b.digest());
        for c in Criterion::ALL {
            assert_eq!(Criterion::parse(c.as_str()), Some(c));
        }
        assert_eq!(Criterion::parse("utility"), None);
    }

    #[test]
    fn digest_sees_algorithm_changes() {
        let a = job(1);
        let mut b = job(1);
        b.algorithm = "detconstsort".to_string();
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn result_json_shapes() {
        let plain = RankResult {
            algorithm: "borda".into(),
            ranking: vec![2, 0, 1],
            consensus: None,
            metrics: vec![("ndcg".into(), 0.9)],
        };
        let text = plain.to_json().to_string();
        assert!(text.contains("\"ranking\":[2,0,1]"), "{text}");
        assert!(!text.contains("fair_ranking"), "{text}");

        let pipe = RankResult {
            algorithm: "pipeline".into(),
            ranking: vec![1, 0],
            consensus: Some(vec![0, 1]),
            metrics: vec![],
        };
        let text = pipe.to_json().to_string();
        assert!(text.contains("\"consensus\":[0,1]"), "{text}");
        assert!(text.contains("\"fair_ranking\":[1,0]"), "{text}");
    }

    #[test]
    fn write_json_matches_to_json_exactly() {
        let results = [
            RankResult {
                algorithm: "borda".into(),
                ranking: vec![2, 0, 1],
                consensus: None,
                metrics: vec![("ndcg".into(), 0.9321), ("count".into(), 4.0)],
            },
            RankResult {
                algorithm: "pipeline".into(),
                ranking: vec![1, 0],
                consensus: Some(vec![0, 1]),
                metrics: vec![],
            },
            RankResult {
                algorithm: "weird \"name\"".into(),
                ranking: vec![],
                consensus: None,
                metrics: vec![("nan".into(), f64::NAN)],
            },
        ];
        for result in &results {
            let mut direct = String::from("junk"); // appends, never clears
            result.write_json(&mut direct);
            assert_eq!(direct[4..], result.to_json().to_string());
        }
    }

    #[test]
    fn votes_canonical_distinguishes_vote_boundaries() {
        let a = RankJob {
            algorithm: "borda".into(),
            input: JobInput::Votes {
                votes: vec![vec![0, 1], vec![1, 0]],
                groups: vec![],
            },
            params: JobParams::default(),
        };
        let b = RankJob {
            algorithm: "borda".into(),
            input: JobInput::Votes {
                votes: vec![vec![0, 1, 1, 0]],
                groups: vec![],
            },
            params: JobParams::default(),
        };
        assert_ne!(a.digest(), b.digest());
    }
}
