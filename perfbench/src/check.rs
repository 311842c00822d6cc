//! The correctness gate: every body a server returned is compared byte
//! for byte with the in-process result of the same job, computed
//! through `Engine::submit` and `RankResult::write_json` — the code the
//! server itself runs.

use crate::drive::{Answer, FirstBodies, Shot};
use crate::gen::Catalogue;
use fairrank_engine::job::RankResult;
use fairrank_engine::{Engine, EngineConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The in-process result of each entry that was answered, and whether
/// the server's first body for it matched.
pub struct Verdicts {
    results: Vec<Option<(Arc<RankResult>, bool)>>,
}

impl Verdicts {
    /// A shot is correct when it was 2xx, matched the entry's first
    /// body, and that first body matched the in-process result.
    pub fn correct(&self, shot: &Shot) -> bool {
        shot.answer == Answer::Matched && matches!(self.results[shot.entry], Some((_, true)))
    }

    /// Shots whose body was wrong: it differed from another body for
    /// the same job, or from the in-process result.
    pub fn wrong(&self, shot: &Shot) -> bool {
        match shot.answer {
            Answer::Mismatched => true,
            Answer::Matched => matches!(self.results[shot.entry], Some((_, false))),
            Answer::Failed => false,
        }
    }

    /// The in-process result of a correctly answered entry.
    pub fn result(&self, entry: usize) -> Option<&RankResult> {
        match &self.results[entry] {
            Some((result, true)) => Some(result),
            _ => None,
        }
    }
}

/// An engine configured like the oracle needs: no result cache (every
/// job runs), two workers.
pub fn oracle_engine() -> Arc<Engine> {
    Engine::new(EngineConfig {
        workers: 2,
        cache_capacity: 0,
        ..EngineConfig::default()
    })
}

/// The body the server must return for `entry`.
pub fn expected_body(
    engine: &Arc<Engine>,
    cat: &Catalogue,
    entry: usize,
) -> crate::Result<(Arc<RankResult>, Vec<u8>)> {
    let result = engine
        .submit(cat.job(entry))
        .map_err(|e| format!("in-process run of entry {entry} failed: {e}"))?;
    let mut body = String::new();
    result.write_json(&mut body);
    Ok((result, body.into_bytes()))
}

/// Compare every first body with the in-process result, on two threads.
pub fn verify(cat: &Catalogue, first: &FirstBodies) -> crate::Result<Verdicts> {
    let engine = oracle_engine();
    let answered: Vec<usize> = (0..cat.entries.len())
        .filter(|&e| first.get(e).is_some())
        .collect();
    let results = Mutex::new((0..cat.entries.len()).map(|_| None).collect::<Vec<_>>());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..crate::drive::CLIENT_THREADS)
            .map(|_| {
                scope.spawn(|| -> crate::Result<()> {
                    while let Some(&entry) = answered.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (result, body) = expected_body(&engine, cat, entry)?;
                        let matched = first.get(entry) == Some(body.as_slice());
                        results.lock().expect("verdict lock")[entry] = Some((result, matched));
                    }
                    Ok(())
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("oracle thread panicked"))
    })?;
    Ok(Verdicts {
        results: results.into_inner().expect("verdict lock"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{biased_pool, rng};
    use fairrank_engine::job::{JobInput, JobParams};

    #[test]
    fn corrupted_response_counts_as_failed() {
        let mut cat = Catalogue::default();
        let (scores, groups) = biased_pool(&mut rng(1, 0), 40, 2);
        let head = cat.push_head(
            "/rank",
            "mallows",
            JobInput::Scores { scores, groups },
            JobParams::default(),
        );
        let good = cat.push_entry(head, 1);
        let bad = cat.push_entry(head, 2);
        let engine = oracle_engine();
        let first = FirstBodies::new(2);
        let (_, body) = expected_body(&engine, &cat, good).unwrap();
        assert!(first.admit(good, &body));
        let (_, mut corrupted) = expected_body(&engine, &cat, bad).unwrap();
        let last = corrupted.len() - 2;
        corrupted[last] ^= 1;
        assert!(first.admit(bad, &corrupted));

        let verdicts = verify(&cat, &first).unwrap();
        let shot = |entry| Shot {
            seq: 0,
            entry,
            latency_ms: 1.0,
            late_ms: None,
            done_s: 0.0,
            answer: Answer::Matched,
        };
        assert!(verdicts.correct(&shot(good)));
        assert!(!verdicts.correct(&shot(bad)));
        assert!(verdicts.wrong(&shot(bad)));
        // a later body that differs from the first for its entry fails
        // at once, before any in-process comparison
        assert!(!first.admit(good, &corrupted));
    }
}
