//! End-to-end CLI round trips: rank a candidate file, feed the output
//! back into `metrics`, aggregate votes produced by `sample`, and read
//! rendered rankings back field for field, whatever bytes their ids and
//! labels hold.

use fairness_metrics::GroupAssignment;
use fairrank_cli::args::Args;
use fairrank_cli::commands;
use fairrank_cli::csv::{cli_dialect, CandidateTable, VoteProfile};
use proptest::prelude::*;

fn args(tokens: &[&str]) -> Args {
    Args::parse(tokens.iter().map(std::string::ToString::to_string)).unwrap()
}

fn temp(name: &str, content: &str) -> String {
    let path = std::env::temp_dir().join(format!("fairrank_rt_{name}"));
    std::fs::write(&path, content).unwrap();
    path.to_string_lossy().into_owned()
}

fn pool_csv(n: usize) -> String {
    let mut s = String::from("id,score,group\n");
    for i in 0..n {
        let score = 1.0 - i as f64 / n as f64;
        let group = if i % 3 == 0 { "b" } else { "a" };
        s.push_str(&format!("cand{i},{score},{group}\n"));
    }
    s
}

#[test]
fn rank_output_feeds_metrics() {
    let input = temp("pool.csv", &pool_csv(24));
    for algo in [
        "mallows",
        "detconstsort",
        "ipf",
        "ilp",
        "exact-kt",
        "weakly-fair",
    ] {
        let ranked = commands::rank(&args(&[
            "rank",
            "--input",
            &input,
            "--algorithm",
            algo,
            "--samples",
            "5",
            "--theta",
            "0.7",
        ]))
        .unwrap_or_else(|e| panic!("{algo}: {e}"));
        // strip the rank column and the comment footer → valid metrics input
        let as_candidates: String = ranked
            .lines()
            .skip(1)
            .filter(|l| !l.starts_with('#'))
            .map(|l| {
                let mut parts = l.splitn(2, ',');
                parts.next();
                parts.next().expect("rank,id,score,group row").to_string() + "\n"
            })
            .collect();
        let reranked = temp(&format!("ranked_{algo}.csv"), &as_candidates);
        let report = commands::metrics(&args(&["metrics", "--input", &reranked])).unwrap();
        assert!(report.contains("candidates,24"), "{algo}: {report}");
        assert!(report.contains("ndcg,"), "{algo}");
        // every algorithm keeps all candidates
        assert_eq!(as_candidates.lines().count(), 24, "{algo}");
    }
}

#[test]
fn sampled_permutations_aggregate_back_to_center() {
    // `sample` at high θ concentrates on the identity; aggregating the
    // sampled votes must recover it.
    let out = commands::sample(&args(&[
        "sample", "--n", "6", "--theta", "12.0", "--count", "7", "--seed", "3",
    ]))
    .unwrap();
    let votes_file = temp("votes.csv", &out);
    for method in ["borda", "copeland", "footrule", "kemeny", "markov"] {
        let agg = commands::aggregate(&args(&[
            "aggregate",
            "--input",
            &votes_file,
            "--method",
            method,
        ]))
        .unwrap();
        let first_line = agg.lines().next().unwrap();
        assert_eq!(
            first_line, "0,1,2,3,4,5",
            "{method} failed to recover the centre"
        );
    }
}

#[test]
fn fair_top_k_via_cli_truncates_and_reports() {
    let input = temp("pool_topk.csv", &pool_csv(30));
    let out = commands::rank(&args(&[
        "rank",
        "--input",
        &input,
        "--algorithm",
        "fair-top-k",
        "--k",
        "6",
        "--tolerance",
        "0.05",
    ]))
    .unwrap();
    let rows: Vec<&str> = out
        .lines()
        .skip(1)
        .filter(|l| !l.starts_with('#'))
        .collect();
    assert_eq!(rows.len(), 6);
    // the shortlist must include at least one 'b'-group candidate
    // (pool share 1/3, tolerance ±5 % → floor(0.28·6) = 1 required)
    assert!(rows.iter().any(|l| l.ends_with(",b")), "{rows:?}");
}

/// Pieces of generated ids and labels, heavy in what CSV output must
/// quote: delimiters, quotes, line breaks, edge whitespace (ASCII and
/// not) and comment markers.
const PIECES: [&str; 14] = [
    "a", "b", "z9", "ü", ",", "\"", "\r", "\n", "\r\n", " ", "\t", "\u{a0}", "#", "x,y",
];

fn field(picks: &[usize]) -> String {
    picks.iter().map(|&p| PIECES[p % PIECES.len()]).collect()
}

fn fields() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(0usize..64, 0..6)
}

/// Every record of `text` under the CLI's input dialect.
fn records(text: &str) -> Vec<Vec<String>> {
    let mut reader = cli_dialect().reader(text.as_bytes());
    let mut rows = Vec::new();
    while let Some(record) = reader.read_record().expect("rendered CSV reads back") {
        rows.push(record.iter().map(str::to_string).collect());
    }
    rows
}

proptest! {
    #[test]
    fn rendered_rankings_read_back_field_for_field(
        rows in prop::collection::vec((fields(), any::<u64>(), 0usize..3), 1..24),
        labels in prop::collection::vec(fields(), 3),
    ) {
        let n = rows.len();
        let table = CandidateTable {
            ids: rows.iter().map(|(picks, _, _)| field(picks)).collect(),
            // finite scores from raw bits: subnormals, -0 and huge ones
            scores: rows
                .iter()
                .map(|&(_, bits, _)| f64::from_bits(bits & !(1 << 62)))
                .collect(),
            groups: GroupAssignment::new(rows.iter().map(|r| r.2).collect(), 3).unwrap(),
            group_labels: labels.iter().map(|picks| field(picks)).collect(),
        };
        let order: Vec<usize> = (0..n).rev().collect();
        let read = records(&table.render_ranking(&order));
        prop_assert_eq!(read.len(), n + 1);
        prop_assert_eq!(&read[0], &["rank", "id", "score", "group"]);
        for (rank, (row, &item)) in read[1..].iter().zip(&order).enumerate() {
            prop_assert_eq!(row.len(), 4, "{:?}", row);
            prop_assert_eq!(&row[0], &(rank + 1).to_string());
            prop_assert_eq!(&row[1], &table.ids[item]);
            let score: f64 = row[2].parse().unwrap();
            prop_assert_eq!(score.to_bits(), table.scores[item].to_bits());
            prop_assert_eq!(&row[3], &table.group_labels[table.groups.group_of(item)]);
        }
    }

    #[test]
    fn rendered_votes_read_back_label_for_label(
        labels in prop::collection::vec(fields(), 2..8),
        shift in 0usize..8,
    ) {
        let profile = VoteProfile {
            labels: labels.iter().map(|picks| field(picks)).collect(),
            votes: Vec::new(),
        };
        let n = profile.labels.len();
        let order: Vec<usize> = (0..n).map(|i| (i + shift) % n).collect();
        // as `aggregate` prints it (at the start of a line) and as
        // `pipeline` does (after a row name)
        let mut text = String::new();
        profile.render(&order, &mut text);
        text.push_str("\nfair,");
        profile.render(&order, &mut text);
        text.push('\n');
        let expected: Vec<&String> = order.iter().map(|&i| &profile.labels[i]).collect();
        let read = records(&text);
        prop_assert_eq!(read.len(), 2);
        prop_assert_eq!(read[0].iter().collect::<Vec<_>>(), expected.clone());
        prop_assert_eq!(&read[1][0], "fair");
        prop_assert_eq!(read[1][1..].iter().collect::<Vec<_>>(), expected);
    }
}
