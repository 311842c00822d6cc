//! Library backing the `fairrank` binary.
//!
//! Every subcommand is a pure function from parsed arguments to an
//! output string, so the full command surface is unit-testable without
//! spawning processes:
//!
//! * [`commands::rank`] — post-process a candidate CSV with any of the
//!   workspace's fair-ranking algorithms;
//! * [`commands::metrics`] — fairness/utility report for a ranked CSV;
//! * [`commands::sample`] — draw Mallows permutations;
//! * [`commands::aggregate`] — aggregate a vote-profile CSV;
//! * [`commands::pipeline`] — aggregate and fair post-process in one
//!   call;
//! * [`commands::index`] — build a `.frix` sidecar index so the file
//!   commands above can ingest chunk-parallel (`--jobs`).
//!
//! `rank`, `aggregate` and `pipeline` build a
//! [`RankJob`](fairrank_engine::job::RankJob) from their files and
//! flags and run it in-process through the engine's
//! [`Registry`](fairrank_engine::registry::Registry), so their output
//! matches what `fairrank serve` returns for the same job.
//!
//! File formats are deliberately minimal (`id,score,group` rows for
//! candidates; one comma-separated ranking per line for votes) and are
//! documented in [`csv`].

pub mod args;
pub mod commands;
pub mod csv;
pub mod experiment;
pub mod signals;

/// Errors surfaced to the terminal user.
#[derive(Debug)]
pub enum CliError {
    /// Command-line usage problem (unknown flag, missing value, …).
    Usage(String),
    /// Input file problem (I/O or malformed content).
    Input(String),
    /// An algorithm reported failure (e.g. infeasible bounds). The
    /// original error is kept so callers can walk the full chain via
    /// [`std::error::Error::source`] instead of getting a flattened
    /// string.
    Algorithm(Box<dyn std::error::Error + Send + Sync>),
    /// `fairrank analyze` found non-allowlisted diagnostics (the count
    /// is carried; the diagnostics themselves were already printed).
    Analysis(usize),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Input(m) => write!(f, "input error: {m}"),
            CliError::Algorithm(e) => write!(f, "algorithm error: {e}"),
            CliError::Analysis(n) => {
                write!(f, "analysis failed: {n} non-allowlisted diagnostic(s)")
            }
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Algorithm(e) => Some(e.as_ref()),
            CliError::Usage(_) | CliError::Input(_) | CliError::Analysis(_) => None,
        }
    }
}

/// In-process job errors: an unknown algorithm or a malformed job is
/// a usage error (exit 2), an algorithm failure keeps its source chain
/// (exit 1).
impl From<fairrank_engine::EngineError> for CliError {
    fn from(e: fairrank_engine::EngineError) -> Self {
        use fairrank_engine::EngineError;
        match e {
            EngineError::UnknownAlgorithm(_) | EngineError::InvalidJob(_) => {
                CliError::Usage(e.to_string())
            }
            EngineError::Algorithm(source) => CliError::Algorithm(source),
            EngineError::Overloaded | EngineError::ShuttingDown => CliError::Algorithm(Box::new(e)),
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CliError>;

/// Top-level usage text (shown for `fairrank help` and usage errors).
pub const USAGE: &str = "\
fairrank — fair ranking through Mallows randomization (and baselines)

USAGE:
    fairrank <COMMAND> [FLAGS]

COMMANDS:
    rank        post-process a candidate CSV into a fair(er) ranking
    metrics     fairness/utility report for an already-ranked CSV
    sample      draw permutations from a Mallows distribution
    aggregate   aggregate a vote profile into a consensus ranking
    pipeline    aggregate + fair post-process in one call
    index       build a `.frix` sidecar index for fast parallel ingest
    experiment  run the German-Credit evaluation sweep as an engine batch job
    serve       run the batch-serving engine's HTTP JSON API
    router      consistent-hash front for N serve replicas
    analyze     static-analysis pass over this workspace's own sources
    help        print this message

RANK:
    fairrank rank --input FILE --algorithm ALGO [--output FILE]
        --algorithm   mallows | detconstsort | ipf | ilp | exact-kt |
                      gr-binary | fair-top-k | fa-ir | weakly-fair
        --theta       Mallows dispersion θ           (default 1.0)
        --samples     Mallows best-of-m samples      (default 1)
        --criterion   mallows selection criterion    (default ndcg)
                      ndcg | infeasible | kendall
        --tolerance   fairness proportion tolerance  (default 0.1)
        --k           shortlist size                 (default all)
        --protected   protected group label (fa-ir)  (default first label)
        --proportion  fa-ir minimum proportion p     (default group share)
        --alpha       fa-ir significance             (default 0.1)
        --seed        RNG seed                       (default 42)
        --jobs        ingest threads with an index   (default 0 = CPUs)

METRICS:
    fairrank metrics --input FILE [--tolerance T] [--at K] [--jobs N]

SAMPLE:
    fairrank sample --n N [--theta T] [--count M] [--seed S]

AGGREGATE:
    fairrank aggregate --input FILE --method METHOD [--seed S] [--jobs N]
        --method      borda | copeland | footrule | kemeny | markov

PIPELINE:
    fairrank pipeline --input VOTES --groups FILE [--method M] [--post P]
        --groups      label,group rows mapping vote labels to groups
        --method      aggregation stage (default kemeny)
        --post        none | mallows | gr-binary | exact-kt | ipf
                      (default mallows; --theta/--samples apply)
        --seed        RNG seed for reproducible runs   (default 42)
        --jobs        ingest threads with an index     (default 0 = CPUs)

INDEX:
    fairrank index --input FILE [--format csv|statlog] [--force true]
        Builds FILE.frix — a sidecar index holding one byte offset per
        record — enabling O(1) record seeks and `--jobs` chunk-parallel
        ingest for every command that reads FILE. A fresh existing
        index is reused; --force true rebuilds. Indexed reads verify
        the source's length/checksum and fall back to a sequential
        scan (with a stderr warning) when the file has changed since
        indexing. See docs/DATASET.md.
        --format      csv (comma, `#` comments) | statlog (spaces)
                      (default: sniffed from the extension)

EXPERIMENT:
    fairrank experiment [--sizes 10,20,..] [--reps N] [--data FILE]
        --sizes       ranking sizes to sweep           (default 10..50)
        --reps        repetitions per size             (default 5)
        --theta       Mallows dispersion θ             (default 1.0)
        --noise       constraint-noise σ               (default 0)
        --samples     Mallows best-of-m samples        (default 15)
        --data        stream a dataset file instead of the synthetic
                      generator (UCI Statlog `german.data`, or the
                      `age,sex,housing,credit_amount` CSV)
        --format      statlog | csv    (default: sniffed from extension)
        --jobs        ingest threads when --data has a `.frix` index
                      (default 0 = one per CPU; see `fairrank index`)
        --workers     engine worker threads            (default 2)
        --csv         `true` emits CSV tables          (default false)
        --seed        RNG seed                         (default 42)
    Every (size, rep, algorithm) cell is one chunk of a single engine
    batch job — the same execution core as POST /jobs.

SERVE:
    fairrank serve [--host H] [--port P] [--workers N] [--io-threads N]
        --host        bind address                     (default 127.0.0.1)
        --port        TCP port (0 = ephemeral)         (default 8080)
        --workers     job worker threads               (default 4)
        --queue       bounded job-queue capacity       (default 256)
        --cache       LRU result-cache capacity        (default 1024)
        --table-cache sampler-table cache (n, θ) slots (default 64)
        --cache-shards     cache shard count (0 = auto)     (default 0)
        --io-threads       keep-alive I/O workers (0 = one per CPU)
        --max-conn-requests requests served per connection  (default 1024)
        --idle-timeout-ms  keep-alive idle timeout          (default 5000)
        --pending          accepted-connection backlog      (default 1024)
        --job-runners      async batch-job runner threads   (default 2)
        --job-capacity     batch-job store capacity         (default 256)
        --access-log       JSON access-log file (`-` = stderr; one
                           line per request, fsynced on drain)
                                                            (default off)
        --trace-recent     flight-recorder recent-trace ring (default 128)
        --trace-slow       flight-recorder slow-trace slots  (default 32)
        --trace-slow-us    slow-trace threshold in µs        (default 10000)
    Routes: POST /rank | /aggregate | /pipeline | /jobs,
            GET /jobs/{id} | /healthz | /readyz | /stats | /metrics
                | /debug/traces,
            DELETE /jobs/{id}.
    Request fields mirror the flags above (scores/votes/groups inline).
    Connections are HTTP/1.1 keep-alive; send `Connection: close` to
    end one, or it closes after --max-conn-requests requests or
    --idle-timeout-ms of silence.
    /metrics is Prometheus text format (per-route + per-algorithm
    latency histograms, queue-wait/service breakdowns and process
    self-metrics). Every request gets an `x-trace-id`;
    GET /debug/traces (filter with ?route=…&algorithm=…) returns the
    flight recorder's recent and slowest span breakdowns.
    SIGTERM/SIGINT drain gracefully: /readyz
    flips to 503, in-flight requests and running batch jobs finish,
    queued jobs cancel, new connections get 503, then the process
    exits.

ROUTER:
    fairrank router --backend H:P [--backend H:P ...] [--host H] [--port P]
        --backend     a `fairrank serve` replica address; repeat the
                      flag (or pass one comma-separated list) for more
        --host        bind address                     (default 127.0.0.1)
        --port        TCP port (0 = ephemeral)         (default 8088)
        --probe-ms    /readyz probe interval           (default 200)
        --hedge-after-us    hedge a slow request to the next owner
                            after N µs (0 = off)       (default 0)
        --request-timeout-ms per-attempt backend read timeout
                                                       (default 30000)
    Requests are consistent-hashed across ready backends by the same
    algorithm+input digest the result cache uses, so a request lands
    on the replica already holding its cached result. A draining or
    dead replica leaves the ring (probe-gated; connection errors evict
    immediately) and its queued batch jobs are resubmitted to the next
    owner. Responses add `x-backend` and `x-backend-trace-id` headers;
    GET /metrics aggregates all backend scrapes plus router counters.
    With no ready backend, requests get `503 {\"error\":\"no backends
    ready\"}`. See docs/CLUSTER.md.

ANALYZE:
    fairrank analyze [--format text|json] [--allowlist FILE] [--root DIR]
        --format      text (default) | json
        --allowlist   allowlist file    (default ROOT/analyze.toml)
        --root        workspace root    (default: nearest [workspace]
                      Cargo.toml above the current directory)
    Lints this workspace's own Rust sources for the engine's
    invariants: determinism in the kernel crates (no wall clocks,
    ambient RNGs or hash-order iteration), panic-freedom on the HTTP
    request paths, bounded channels in the serving crates, `// SAFETY:`
    comments on every `unsafe`, `#![forbid(unsafe_code)]` on crate
    roots, and metric-family <-> docs consistency. Exits non-zero when
    any diagnostic is not covered by a justified allowlist entry.
    See docs/ANALYSIS.md.

Candidate CSV: one `id,score,group` row per candidate (header allowed).
Vote CSV: one comma-separated ranking of item labels per line.
All randomized commands accept --seed; equal seeds give equal output.
";

#[cfg(test)]
mod tests {
    use super::USAGE;
    use fairness_ranking::pipeline::Aggregator;
    use fairrank_engine::job::Criterion;
    use fairrank_engine::registry::{AlgorithmKind, Registry};

    /// The `|`-separated names listed under `flag` in the `section`
    /// block of [`USAGE`], up to the next flag.
    fn listed(section: &str, flag: &str) -> Vec<String> {
        let (_, rest) = USAGE
            .split_once(&format!("\n{section}:\n"))
            .unwrap_or_else(|| panic!("no {section} section"));
        let block = rest.split("\n\n").next().unwrap_or("");
        let mut names = Vec::new();
        let mut in_flag = false;
        for line in block.lines().map(str::trim) {
            if line.starts_with("--") {
                in_flag = line.starts_with(&format!("{flag} "));
            }
            // the list starts on the flag's own line or the next one
            let list = line.strip_prefix(flag).unwrap_or(line);
            if in_flag && list.contains('|') {
                names.extend(list.split('|').map(|n| n.trim().to_string()));
            }
        }
        names.retain(|n| !n.is_empty());
        names
    }

    #[test]
    fn usage_lists_every_registered_name() {
        let registry = Registry::standard();
        let algorithms = listed("RANK", "--algorithm");
        for name in registry.names_of_kind(AlgorithmKind::PostProcessor) {
            assert!(
                algorithms.iter().any(|n| n == name),
                "rank --algorithm misses {name}"
            );
        }
        let methods = listed("AGGREGATE", "--method");
        for aggregator in Aggregator::ALL {
            let name = aggregator.name();
            assert!(
                methods.iter().any(|n| n == name),
                "aggregate --method misses {name}"
            );
        }
        let criteria = listed("RANK", "--criterion");
        for criterion in Criterion::ALL {
            let name = criterion.as_str();
            assert!(
                criteria.iter().any(|n| n == name),
                "rank --criterion misses {name}"
            );
        }
    }
}
