//! Seeded inputs. Every body, CSV row and job seed of a run is a pure
//! function of the workload seed, so one seed gives one input set.

use fairrank_engine::job::{JobInput, JobParams, RankJob};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// An independent random stream for one purpose of one run.
pub fn rng(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

/// Everything of a request except its seed: route, algorithm, input
/// and parameters, plus the body text up to the seed's value.
pub struct Head {
    pub path: &'static str,
    pub algorithm: &'static str,
    pub input: JobInput,
    pub params: JobParams,
    bytes: Vec<u8>,
}

/// A set of distinct requests. Each entry is a head plus a job seed, so
/// many entries can share one large candidate pool.
#[derive(Default)]
pub struct Catalogue {
    pub heads: Vec<Head>,
    /// `(head, job seed)` per entry.
    pub entries: Vec<(usize, u64)>,
}

impl Catalogue {
    /// Add a head; its body is rendered once, here.
    pub fn push_head(
        &mut self,
        path: &'static str,
        algorithm: &'static str,
        input: JobInput,
        params: JobParams,
    ) -> usize {
        let bytes = body_head(path, algorithm, &input, &params);
        self.heads.push(Head {
            path,
            algorithm,
            input,
            params,
            bytes,
        });
        self.heads.len() - 1
    }

    pub fn push_entry(&mut self, head: usize, seed: u64) -> usize {
        self.entries.push((head, seed));
        self.entries.len() - 1
    }

    pub fn head(&self, entry: usize) -> &Head {
        &self.heads[self.entries[entry].0]
    }

    /// The job the server should decode from the entry's body.
    pub fn job(&self, entry: usize) -> RankJob {
        let (head, seed) = self.entries[entry];
        let head = &self.heads[head];
        RankJob {
            algorithm: head.algorithm.to_string(),
            input: head.input.clone(),
            params: JobParams {
                seed,
                ..head.params.clone()
            },
        }
    }

    /// Write the entry's request body into `out` (cleared first).
    pub fn body_into(&self, entry: usize, out: &mut Vec<u8>) {
        let (head, seed) = self.entries[entry];
        out.clear();
        out.extend_from_slice(&self.heads[head].bytes);
        out.extend_from_slice(seed.to_string().as_bytes());
        out.push(b'}');
    }
}

/// JSON body of a request without its closing `seed` value: every
/// parameter the job uses is written, so the server decodes exactly
/// the job [`Catalogue::job`] builds.
fn body_head(path: &str, algorithm: &str, input: &JobInput, p: &JobParams) -> Vec<u8> {
    let mut s = String::with_capacity(64 + 12 * input.len());
    s.push('{');
    match path {
        "/rank" => {
            let _ = write!(s, "\"algorithm\":\"{algorithm}\",");
        }
        "/aggregate" => {
            let _ = write!(s, "\"method\":\"{algorithm}\",");
        }
        _ => {
            let _ = write!(s, "\"method\":\"{}\",\"post\":\"{}\",", p.method, p.post);
        }
    }
    let _ = write!(
        s,
        "\"theta\":{},\"samples\":{},\"tolerance\":{},",
        p.theta, p.samples, p.tolerance
    );
    let groups = match input {
        JobInput::Scores { scores, groups } => {
            s.push_str("\"scores\":");
            push_array(&mut s, scores);
            groups
        }
        JobInput::Votes { votes, groups } => {
            s.push_str("\"votes\":[");
            for (i, vote) in votes.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_array(&mut s, vote);
            }
            s.push(']');
            groups
        }
    };
    s.push_str(",\"groups\":");
    push_array(&mut s, groups);
    s.push_str(",\"seed\":");
    s.into_bytes()
}

fn push_array<T: std::fmt::Display>(s: &mut String, values: &[T]) {
    s.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{v}");
    }
    s.push(']');
}

/// A candidate pool of `n` items in `groups` groups (item `i` is in
/// group `i mod groups`) whose scores fall with the group index, so the
/// score order is unfair and the fair re-rankers have work to do.
/// Scores have six decimals, so their text form parses back exactly.
pub fn biased_pool(rng: &mut StdRng, n: usize, groups: usize) -> (Vec<f64>, Vec<usize>) {
    let group_of: Vec<usize> = (0..n).map(|i| i % groups).collect();
    let scores = group_of
        .iter()
        .map(|&g| {
            let bias = 0.3 * (groups - 1 - g) as f64 / groups as f64;
            ((0.05 + bias + 0.6 * rng.random::<f64>()) * 1e6).round() / 1e6
        })
        .collect();
    (scores, group_of)
}

/// A vote profile over `items` items: `voters` noisy copies of one
/// shuffled reference order, with items alternating between two
/// groups.
pub fn vote_profile(rng: &mut StdRng, items: usize, voters: usize) -> JobInput {
    let mut reference: Vec<usize> = (0..items).collect();
    for i in (1..items).rev() {
        reference.swap(i, rng.random_range(0..=i));
    }
    let votes = (0..voters)
        .map(|_| {
            let mut vote = reference.clone();
            for _ in 0..items / 2 {
                let i = rng.random_range(0..items - 1);
                vote.swap(i, i + 1);
            }
            vote
        })
        .collect();
    JobInput::Votes {
        votes,
        groups: (0..items).map(|i| i % 2).collect(),
    }
}

/// Arrival offsets (seconds) of a Poisson process at `rate` per second
/// over `duration` seconds, conditioned on its expected count: that
/// many uniform times, sorted. The draw is the same for every workload
/// seed: the seed varies what is sent, not the burst pattern, so the
/// tail latencies of two runs face the same bursts.
pub fn poisson_arrivals(rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = rng(0, 0xA441_7A15);
    let count = (rate * duration).round() as usize;
    let mut arrivals: Vec<f64> = (0..count).map(|_| rng.random::<f64>() * duration).collect();
    arrivals.sort_by(f64::total_cmp);
    arrivals
}

/// Arrival offsets (seconds) `rate` per second over `duration` seconds,
/// evenly spaced with each arrival jittered by up to an eighth of the
/// spacing either way: consecutive arrivals lie at least three quarters
/// of a spacing apart, so requests shorter than that never overlap on
/// the server. Like [`poisson_arrivals`], one fixed draw for every seed.
pub fn paced_arrivals(rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = rng(0, 0x9ACE_D0FF);
    let count = (rate * duration).round() as usize;
    (0..count)
        .map(|i| (i as f64 + 0.5 + 0.25 * (rng.random::<f64>() - 0.5)) / rate)
        .collect()
}

/// Zipf(`exponent`) draws over ranks `0..n` (rank 0 most popular).
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (1..=n)
            .map(|k| {
                total += 1.0 / (k as f64).powf(exponent);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u = rng.random::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// The candidate CSV of the `cli_rank` workload: `id,score,group` rows.
pub fn candidate_csv(rng: &mut StdRng, rows: usize) -> String {
    let (scores, groups) = biased_pool(rng, rows, 4);
    let mut csv = String::with_capacity(rows * 24);
    csv.push_str("id,score,group\n");
    for (i, (score, group)) in scores.iter().zip(&groups).enumerate() {
        let _ = writeln!(csv, "c{i},{score},g{group}");
    }
    csv
}
