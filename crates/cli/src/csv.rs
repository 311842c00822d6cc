//! CSV input/output for the CLI, built on the workspace's shared
//! streaming reader ([`fairrank_dataset`]) — no hand-rolled line
//! splitting.
//!
//! **Candidate files** hold one `id,score,group` row per candidate.
//! A header row is detected (and skipped) when its second field does
//! not parse as a number. Group labels are arbitrary strings and are
//! densified in first-appearance order. Quoted fields (ids or group
//! labels containing commas), CRLF line endings and `#` comment lines
//! are handled by the shared reader; duplicate candidate ids are
//! rejected with both line numbers.
//!
//! **Vote files** hold one complete ranking per line: comma-separated
//! item labels, best first. Every line must rank exactly the same label
//! set.
//!
//! **Output** (rankings rendered back to CSV) is written field by field
//! into one buffer (`push_field`, [`fairrank_engine::num`]). A field
//! is quoted, with `""` escapes (RFC 4180), when it holds a comma, a
//! quote, CR or LF, or starts or ends with whitespace (which the reader
//! trims), and a vote line's first label also when it starts with `#`
//! (which would read as a comment); every other field is copied
//! verbatim.

use crate::{CliError, Result};
use fairness_metrics::GroupAssignment;
use fairrank_dataset::{BatchDecoder, Dialect, FieldType, IndexedCsv, RecordBatch};
use fairrank_engine::num;
use ranking_core::Permutation;
use std::io::BufRead;

/// Rows decoded per streaming batch: bounds memory on huge files
/// without a read call per row.
const BATCH_ROWS: usize = 4096;

/// The dialect of every CLI CSV input (candidates and votes): comma
/// fields, `#` comments. Also what `fairrank index` builds sidecars
/// under for these files.
pub fn cli_dialect() -> Dialect {
    Dialect::csv().comment(b'#')
}

fn input_err(e: impl std::fmt::Display) -> CliError {
    CliError::Input(e.to_string())
}

/// A parsed candidate table.
#[derive(Debug, Clone)]
pub struct CandidateTable {
    /// Candidate identifiers, in file order (item `i` = row `i`).
    pub ids: Vec<String>,
    /// Quality scores, aligned with `ids`.
    pub scores: Vec<f64>,
    /// Dense protected-group assignment, aligned with `ids`.
    pub groups: GroupAssignment,
    /// Group label for each dense group id.
    pub group_labels: Vec<String>,
}

impl CandidateTable {
    /// Parse candidate CSV content held in memory (see module docs).
    /// `CandidateTable::from_reader` streams instead.
    pub fn parse(content: &str) -> Result<Self> {
        Self::from_reader(content.as_bytes())
    }

    /// Stream candidate CSV from any buffered reader: rows are decoded
    /// in bounded typed batches, so peak memory is the parsed columns,
    /// never the raw file.
    fn from_reader<R: BufRead>(src: R) -> Result<Self> {
        let mut reader = cli_dialect().reader(src);
        let mut decoder = BatchDecoder::new(Self::schema().to_vec()).sniff_header(true);
        let mut builder = TableBuilder::default();
        while let Some(batch) = decoder
            .read_batch(&mut reader, BATCH_ROWS)
            .map_err(input_err)?
        {
            builder.push_batch(batch);
        }
        builder.finish()
    }

    /// Assemble a table from already-decoded batches (the indexed
    /// parallel ingest path) — identical to [`Self::from_reader`] on
    /// the same rows.
    fn from_batches(batches: Vec<RecordBatch>) -> Result<Self> {
        let mut builder = TableBuilder::default();
        for batch in batches {
            builder.push_batch(batch);
        }
        builder.finish()
    }

    /// The candidate-file schema: `id,score,group`. The group column
    /// is dictionary-encoded at decode time — group labels are few, so
    /// this avoids a per-row `String` allocation that used to make the
    /// streaming path slower than the legacy whole-file slurp.
    pub fn schema() -> [FieldType; 3] {
        [FieldType::Str, FieldType::F64, FieldType::Category]
    }

    /// Read and parse a candidate file. With a fresh `.frix` sidecar
    /// next to it (see `fairrank index`) the file is decoded
    /// chunk-parallel on up to `jobs` threads (0 = one per CPU);
    /// otherwise — or when the sidecar is stale — it streams
    /// sequentially. The resulting table is identical either way.
    pub fn read_with_jobs(path: &str, jobs: usize) -> Result<Self> {
        if let Some(indexed) = IndexedCsv::open(path, cli_dialect()) {
            let batches = indexed
                .read_batches_parallel(&Self::schema(), true, jobs)
                .map_err(input_err)?;
            return Self::from_batches(batches);
        }
        Self::from_reader(fairrank_dataset::open_file(path).map_err(input_err)?)
    }

    /// Read and parse a candidate file (auto-detects a sidecar index;
    /// equivalent to [`Self::read_with_jobs`] with `jobs = 0`).
    pub fn read(path: &str) -> Result<Self> {
        Self::read_with_jobs(path, 0)
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the table has no rows (never: `parse` rejects that).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Render a ranking (ranked order of item indices) back to CSV:
    /// a `rank,id,score,group` header, then one row per item, written
    /// into one reserved buffer with no allocation per row. Scores
    /// print as `{}` does.
    pub fn render_ranking(&self, order: &[usize]) -> String {
        const HEADER: &str = "rank,id,score,group\n";
        // rows are gathered a block at a time before they are written:
        // a ranking visits the columns out of file order, and a tight
        // gather loop overlaps those cache misses
        const BLOCK: usize = 256;
        // group labels are few: each is quoted (if need be) once
        let labels: Vec<String> = self
            .group_labels
            .iter()
            .map(|label| {
                let mut field = String::new();
                push_field(label, &mut field);
                field
            })
            .collect();
        // summed in file order (a ranked pass would miss the cache);
        // for a shortlist it over-reserves, and untouched pages cost
        // no memory
        let id_bytes: usize = self.ids.iter().map(String::len).sum();
        let label_bytes = labels.iter().map(String::len).max().unwrap_or(0);
        // per row: the rank, about 24 bytes for a score, three commas
        // and the newline; then room for the footer
        let row_bytes = order.len().to_string().len() + 24 + 4 + label_bytes;
        let mut out =
            String::with_capacity(HEADER.len() + id_bytes + order.len() * row_bytes + 512);
        out.push_str(HEADER);
        let mut rows: Vec<(&str, f64, &str)> = Vec::with_capacity(BLOCK.min(order.len()));
        let mut rank = 0;
        for block in order.chunks(BLOCK) {
            rows.clear();
            rows.extend(block.iter().map(|&item| {
                let label = &labels[self.groups.group_of(item)];
                (self.ids[item].as_str(), self.scores[item], label.as_str())
            }));
            for &(id, score, label) in &rows {
                rank += 1;
                num::write_usize(rank, &mut out);
                out.push(',');
                push_field(id, &mut out);
                out.push(',');
                num::write_f64(score, &mut out);
                out.push(',');
                out.push_str(label);
                out.push('\n');
            }
        }
        out
    }
}

/// Append `field` as one CSV field: verbatim, or quoted with `""`
/// escapes when it holds a comma, a quote, CR or LF, or starts or ends
/// with whitespace (which the reader would trim).
fn push_field(field: &str, out: &mut String) {
    if needs_quotes(field) {
        push_quoted(field, out);
    } else {
        out.push_str(field);
    }
}

/// Whether `field` must be quoted to read back as itself (see
/// [`push_field`]). Whitespace is ASCII up to the space or a
/// multi-byte character, so the edge bytes rule most fields out
/// without decoding a `char`.
fn needs_quotes(field: &str) -> bool {
    let bytes = field.as_bytes();
    let (Some(&first), Some(&last)) = (bytes.first(), bytes.last()) else {
        return false;
    };
    bytes
        .iter()
        .any(|&b| matches!(b, b',' | b'"' | b'\r' | b'\n'))
        || ((first <= b' ' || first >= 0x80) && field.starts_with(char::is_whitespace))
        || ((last <= b' ' || last >= 0x80) && field.ends_with(char::is_whitespace))
}

/// Append `field` quoted, with `""` escapes.
fn push_quoted(field: &str, out: &mut String) {
    out.push('"');
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            out.push_str("\"\"");
        }
        out.push_str(part);
    }
    out.push('"');
}

/// Incremental [`CandidateTable`] assembly shared by the sequential
/// and chunk-parallel ingest paths: batches are merged in record
/// order, group labels densified in first-appearance order.
#[derive(Default)]
struct TableBuilder {
    ids: Vec<String>,
    scores: Vec<f64>,
    group_ids: Vec<usize>,
    group_labels: Vec<String>,
    // source line per row, for exact duplicate-id reporting (a
    // transient column: cheaper than a per-id hash map, which would
    // re-own every id string and dominate peak memory)
    lines: Vec<u64>,
}

impl TableBuilder {
    fn push_batch(&mut self, batch: RecordBatch) {
        let (mut columns, mut batch_lines) = batch.into_parts();
        let batch_groups = columns
            .pop()
            .and_then(fairrank_dataset::Column::into_category)
            .expect("column 2");
        let mut batch_scores = columns
            .pop()
            .and_then(fairrank_dataset::Column::into_f64)
            .expect("column 1");
        let mut batch_ids = columns
            .pop()
            .and_then(fairrank_dataset::Column::into_str)
            .expect("column 0");
        self.ids.append(&mut batch_ids);
        self.scores.append(&mut batch_scores);
        self.lines.append(&mut batch_lines);
        // remap the batch's dictionary to the global one: per-batch
        // dictionaries are in first-appearance order, and batches
        // arrive in record order, so the merged order equals the
        // sequential first-appearance order
        let (batch_labels, codes) = batch_groups.into_parts();
        let remap: Vec<usize> = batch_labels
            .into_iter()
            .map(
                |label| match self.group_labels.iter().position(|l| *l == label) {
                    Some(g) => g,
                    None => {
                        self.group_labels.push(label);
                        self.group_labels.len() - 1
                    }
                },
            )
            .collect();
        self.group_ids
            .extend(codes.into_iter().map(|c| remap[c as usize]));
    }

    fn finish(self) -> Result<CandidateTable> {
        if self.ids.is_empty() {
            return Err(CliError::Input("no candidate rows found".to_string()));
        }
        reject_duplicate_ids(&self.ids, &self.lines)?;
        let num_groups = self.group_labels.len();
        let groups = GroupAssignment::new(self.group_ids, num_groups)
            .expect("dense ids are in range by construction");
        Ok(CandidateTable {
            ids: self.ids,
            scores: self.scores,
            groups,
            group_labels: self.group_labels,
        })
    }
}

/// Duplicate-candidate-id check via a transient open-addressing table
/// of row indices (4 bytes per slot at 2× occupancy — a `HashMap` of
/// id strings would re-own every id and dominate the table's peak
/// memory). Rows are probed in file order, so the first collision hit
/// is the earliest re-occurrence; it is reported with both line
/// numbers.
fn reject_duplicate_ids(ids: &[String], lines: &[u64]) -> Result<()> {
    fn fnv(s: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
    const EMPTY: u32 = u32::MAX;
    let mask = (ids.len() * 2).next_power_of_two().max(16) - 1;
    let mut slots: Vec<u32> = vec![EMPTY; mask + 1];
    for (row, id) in ids.iter().enumerate() {
        let mut slot = fnv(id) as usize & mask;
        loop {
            match slots[slot] {
                EMPTY => {
                    slots[slot] = row as u32;
                    break;
                }
                first if ids[first as usize] == *id => {
                    return Err(CliError::Input(format!(
                        "line {}: duplicate candidate id `{}` (first seen at line {})",
                        lines[row], id, lines[first as usize]
                    )));
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }
    Ok(())
}

/// A parsed vote profile over a shared label universe.
#[derive(Debug, Clone)]
pub struct VoteProfile {
    /// Item labels, indexed by dense item id.
    pub labels: Vec<String>,
    /// One permutation per vote.
    pub votes: Vec<Permutation>,
}

impl VoteProfile {
    /// Parse vote CSV content held in memory (one ranking per line).
    pub fn parse(content: &str) -> Result<Self> {
        Self::from_reader(content.as_bytes())
    }

    /// Stream a vote profile from any buffered reader, one ranking at
    /// a time.
    fn from_reader<R: BufRead>(src: R) -> Result<Self> {
        let mut reader = cli_dialect().reader(src);
        let mut labels: Vec<String> = Vec::new();
        let mut votes = Vec::new();
        while let Some(record) = reader.read_record().map_err(input_err)? {
            if labels.is_empty() {
                labels = Self::label_universe(&record)?;
            }
            votes.push(Self::parse_vote(&record, &labels)?);
        }
        if votes.is_empty() {
            return Err(CliError::Input("no vote rows found".to_string()));
        }
        Ok(VoteProfile { labels, votes })
    }

    /// The label universe from the file's first record (which is also
    /// the first vote), with a duplicate-label check.
    fn label_universe(record: &fairrank_dataset::StrRecord<'_>) -> Result<Vec<String>> {
        let labels: Vec<String> = record.iter().map(str::to_string).collect();
        let mut sorted = labels.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != labels.len() {
            return Err(CliError::Input(format!(
                "line {}: duplicate label in ranking",
                record.line()
            )));
        }
        Ok(labels)
    }

    /// Decode one ranking record against the label universe.
    fn parse_vote(
        record: &fairrank_dataset::StrRecord<'_>,
        labels: &[String],
    ) -> Result<Permutation> {
        let lineno = record.line();
        if record.len() != labels.len() {
            return Err(CliError::Input(format!(
                "line {lineno}: ranking has {} items, expected {}",
                record.len(),
                labels.len()
            )));
        }
        let mut order = Vec::with_capacity(labels.len());
        for field in record.iter() {
            let item = labels.iter().position(|l| l == field).ok_or_else(|| {
                CliError::Input(format!("line {lineno}: unknown label `{field}`"))
            })?;
            order.push(item);
        }
        Permutation::from_order(order)
            .map_err(|_| CliError::Input(format!("line {lineno}: not a permutation of the labels")))
    }

    /// Read and parse a vote file. With a fresh `.frix` sidecar the
    /// votes are parsed chunk-parallel on up to `jobs` threads (0 =
    /// one per CPU), reassembled in file order; otherwise the file
    /// streams sequentially. The profile is identical either way.
    pub fn read_with_jobs(path: &str, jobs: usize) -> Result<Self> {
        let Some(indexed) = IndexedCsv::open(path, cli_dialect()) else {
            return Self::from_reader(fairrank_dataset::open_file(path).map_err(input_err)?);
        };
        if indexed.record_count() == 0 {
            return Err(CliError::Input("no vote rows found".to_string()));
        }
        // the label universe comes from record 0 (which chunk 0 will
        // also parse as the first vote, exactly like the streaming path)
        let labels = {
            let mut reader = indexed.seek_to(0).map_err(input_err)?;
            let record = reader
                .read_record()
                .map_err(input_err)?
                .ok_or_else(|| CliError::Input("no vote rows found".to_string()))?;
            Self::label_universe(&record)?
        };
        // parse errors come back as chunk values so the lowest-line
        // error wins in chunk order, matching the sequential scan
        let per_chunk = indexed
            .process_chunks(jobs, |_, mut chunk| {
                use fairrank_dataset::RecordSource;
                let mut votes = Vec::with_capacity(chunk.remaining());
                loop {
                    match chunk.next_record()? {
                        None => return Ok(Ok(votes)),
                        Some(record) => match Self::parse_vote(&record, &labels) {
                            Ok(vote) => votes.push(vote),
                            Err(e) => return Ok(Err(e)),
                        },
                    }
                }
            })
            .map_err(input_err)?;
        let mut votes = Vec::with_capacity(indexed.record_count());
        for chunk in per_chunk {
            votes.extend(chunk?);
        }
        Ok(VoteProfile { labels, votes })
    }

    /// Read and parse a vote file (auto-detects a sidecar index;
    /// equivalent to [`Self::read_with_jobs`] with `jobs = 0`).
    pub fn read(path: &str) -> Result<Self> {
        Self::read_with_jobs(path, 0)
    }

    /// The votes as item-index orders (a job's `votes` input).
    pub fn vote_orders(&self) -> Vec<Vec<usize>> {
        self.votes.iter().map(|v| v.as_order().to_vec()).collect()
    }

    /// Append a ranking (item indices in rank order) to `out` as
    /// comma-separated labels, each a CSV field (see the module docs).
    pub fn render(&self, order: &[usize], out: &mut String) {
        for (rank, &i) in order.iter().enumerate() {
            let label = &self.labels[i];
            if rank > 0 {
                out.push(',');
            } else if label.starts_with('#') && (out.is_empty() || out.ends_with('\n')) {
                // at the start of a line it would read as a comment
                push_quoted(label, out);
                continue;
            }
            push_field(label, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANDIDATES: &str = "id,score,group\n\
                              alice,0.9,f\n\
                              bob,0.8,m\n\
                              carol,0.7,f\n\
                              dan,0.6,m\n";

    #[test]
    fn parses_candidates_with_header() {
        let t = CandidateTable::parse(CANDIDATES).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(t.ids[0], "alice");
        assert_eq!(t.scores[2], 0.7);
        assert_eq!(t.group_labels, vec!["f", "m"]);
        assert_eq!(t.groups.as_slice(), &[0, 1, 0, 1]);
    }

    #[test]
    fn parses_candidates_without_header() {
        let t = CandidateTable::parse("a,1.0,x\nb,0.5,y\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.group_labels, vec!["x", "y"]);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let t = CandidateTable::parse("# comment\n\na,1.0,x\n\nb,0.5,x\n").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.groups.num_groups(), 1);
    }

    #[test]
    fn parses_quoted_ids_with_commas_and_crlf() {
        let t = CandidateTable::parse("id,score,group\r\n\"smith, alice\",0.9,f\r\nbob,0.8,m\r\n")
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.ids[0], "smith, alice");
        assert_eq!(t.group_labels, vec!["f", "m"]);
    }

    #[test]
    fn rejects_duplicate_ids_with_both_line_numbers() {
        let err = CandidateTable::parse("a,1.0,x\nb,0.9,x\na,0.8,y\n").unwrap_err();
        let message = err.to_string();
        assert!(message.contains("line 3"), "{message}");
        assert!(message.contains("duplicate candidate id `a`"), "{message}");
        assert!(message.contains("first seen at line 1"), "{message}");
    }

    #[test]
    fn rejects_malformed_rows() {
        assert!(CandidateTable::parse("a,1.0\n").is_err());
        assert!(CandidateTable::parse("a,1.0,x\nb,notanumber,x\n").is_err());
        assert!(CandidateTable::parse("a,1.0,x\nb,inf,x\n").is_err());
        assert!(CandidateTable::parse("").is_err());
    }

    #[test]
    fn malformed_rows_report_line_numbers() {
        let err = CandidateTable::parse("a,1.0,x\nb,nope,x\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = CandidateTable::parse("a,1.0,x\nb,0.5\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn render_round_trips_order() {
        let t = CandidateTable::parse(CANDIDATES).unwrap();
        let rendered = t.render_ranking(&[3, 0, 1, 2]);
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[0], "rank,id,score,group");
        assert_eq!(lines[1], "1,dan,0.6,m");
        assert_eq!(lines[2], "2,alice,0.9,f");
    }

    #[test]
    fn parses_votes() {
        let v = VoteProfile::parse("a,b,c\nb,a,c\nc,a,b\n").unwrap();
        assert_eq!(v.labels, vec!["a", "b", "c"]);
        assert_eq!(v.votes.len(), 3);
        assert_eq!(v.votes[1].as_order(), &[1, 0, 2]);
    }

    #[test]
    fn vote_render_round_trips() {
        let v = VoteProfile::parse("a,b,c\nc,b,a\n").unwrap();
        let mut line = String::new();
        v.render(v.votes[1].as_order(), &mut line);
        assert_eq!(line, "c,b,a");
    }

    #[test]
    fn rejects_inconsistent_votes() {
        assert!(VoteProfile::parse("a,b,c\na,b\n").is_err());
        assert!(VoteProfile::parse("a,b,c\na,b,d\n").is_err());
        assert!(VoteProfile::parse("a,b,c\na,a,b\n").is_err());
        assert!(VoteProfile::parse("a,a,b\n").is_err());
        assert!(VoteProfile::parse("").is_err());
    }
}
