//! The streaming, record-at-a-time CSV reader.

use crate::{CsvError, CsvErrorKind, Result};
use std::io::BufRead;

/// The parsing dialect of a CSV-ish file: delimiter, comment
/// character, whitespace-merge and trim behaviour.
///
/// A `Dialect` is what the sidecar index (see [`crate::index`]) stores
/// in its header, so an index built under one dialect is never used to
/// seek a reader configured with another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dialect {
    /// Field delimiter (an ASCII byte).
    pub delimiter: u8,
    /// Lines whose first non-blank byte is this are skipped.
    pub comment: Option<u8>,
    /// Treat runs of the delimiter as one separator and drop empty
    /// unquoted fields (whitespace-aligned files).
    pub merge: bool,
    /// Trim unquoted fields of surrounding ASCII whitespace.
    pub trim: bool,
}

impl Dialect {
    /// Comma-separated, no comment character, trimming (the
    /// [`CsvReader::new`] defaults).
    pub fn csv() -> Dialect {
        Dialect {
            delimiter: b',',
            comment: None,
            merge: false,
            trim: true,
        }
    }

    /// Whitespace-separated (runs of spaces/tabs separate fields) —
    /// the UCI Statlog dialect.
    pub fn space_separated() -> Dialect {
        Dialect {
            delimiter: b' ',
            comment: None,
            merge: true,
            trim: true,
        }
    }

    /// Skip lines whose first non-blank byte is `comment`.
    pub fn comment(mut self, comment: u8) -> Dialect {
        self.comment = Some(comment);
        self
    }

    /// Build a [`CsvReader`] over `src` with this dialect.
    pub fn reader<R: BufRead>(self, src: R) -> CsvReader<R> {
        CsvReader::with_dialect(src, self)
    }

    fn is_delimiter(&self, b: u8) -> bool {
        b == self.delimiter || (self.merge && self.delimiter == b' ' && b == b'\t')
    }
}

/// A streaming CSV reader over any [`BufRead`].
///
/// One record is parsed at a time into reusable internal buffers, so
/// memory is bounded by the largest single record regardless of file
/// size. The dialect covers what the workspace's inputs need:
///
/// * quoted fields (`"smith, carol"`) with `""` escapes and embedded
///   newlines (multi-line fields, whose line breaks are kept as
///   written, `\r\n` or `\n`);
/// * CRLF and bare-LF line endings;
/// * blank lines and (optionally) comment lines, skipped;
/// * a whitespace-merging mode for space-aligned files such as UCI
///   Statlog (`delimiter(b' ')` + `merge_delimiters(true)`), where
///   runs of the delimiter separate fields and empty fields are
///   dropped;
/// * unquoted fields trimmed of surrounding ASCII whitespace (the
///   workspace's historical behaviour; quoted fields are verbatim).
///
/// Records whose first physical line contains no quote — the hot path
/// for machine-written files — are returned **zero-copy**: field
/// bounds point straight into the line buffer, nothing is re-copied.
/// Only records with quoting go through the unescaping scratch buffer.
///
/// The reader tracks the byte offset of every record it returns
/// ([`CsvReader::record_start`]), which is what the sidecar index
/// builder records, and it can be opened mid-file at a known offset
/// and line number ([`CsvReader::starting_at`]) so an indexed chunk
/// reports exactly the same line numbers as a sequential scan.
///
/// Errors carry the 1-based line number where the record started.
pub struct CsvReader<R> {
    src: R,
    dialect: Dialect,
    /// 1-based number of the next physical line to read.
    next_line: u64,
    /// Line the current record started on.
    record_line: u64,
    /// Byte offset (from the start of the source) of the next unread
    /// byte.
    pos: u64,
    /// Byte offset where the current record's first line starts.
    record_pos: u64,
    /// Reusable physical-line buffer.
    raw: String,
    /// The line ending stripped from `raw` (`"\r\n"`, `"\n"` or none).
    ending: &'static str,
    /// Current field under construction (unescaped; quoted path only).
    field: String,
    /// Unescaped text of every field of the current record (quoted
    /// path only — the fast path borrows from `raw` instead).
    buf: String,
    /// `(start, end)` bounds of each field, into `raw` or `buf`.
    bounds: Vec<(usize, usize)>,
    /// Whether `bounds` refers to `raw` (fast path) or `buf`.
    from_raw: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// A comma-separated reader with no comment character.
    pub fn new(src: R) -> Self {
        CsvReader::with_dialect(src, Dialect::csv())
    }

    /// A reader with an explicit [`Dialect`].
    pub fn with_dialect(src: R, dialect: Dialect) -> Self {
        CsvReader {
            src,
            dialect,
            next_line: 1,
            record_line: 0,
            pos: 0,
            record_pos: 0,
            raw: String::new(),
            ending: "",
            field: String::new(),
            buf: String::new(),
            bounds: Vec::new(),
            from_raw: true,
        }
    }

    /// A whitespace-separated reader (runs of spaces/tabs separate
    /// fields) — the UCI Statlog dialect.
    pub fn space_separated(src: R) -> Self {
        CsvReader::with_dialect(src, Dialect::space_separated())
    }

    /// Change the field delimiter (an ASCII byte). Tab delimiters also
    /// match literal tabs when whitespace-merging is on.
    pub fn delimiter(mut self, delimiter: u8) -> Self {
        self.dialect.delimiter = delimiter;
        self
    }

    /// Skip lines whose first non-blank byte is `comment`.
    pub fn comment(mut self, comment: u8) -> Self {
        self.dialect.comment = Some(comment);
        self
    }

    /// Treat runs of the delimiter as one separator and drop empty
    /// unquoted fields (for whitespace-aligned files).
    pub fn merge_delimiters(mut self, merge: bool) -> Self {
        self.dialect.merge = merge;
        self
    }

    /// Whether unquoted fields are trimmed of surrounding ASCII
    /// whitespace (default: true).
    pub fn trim(mut self, trim: bool) -> Self {
        self.dialect.trim = trim;
        self
    }

    /// Declare that `src` is positioned `offset` bytes into the file,
    /// at the start of 1-based physical line `line` — the indexed-seek
    /// entry point: a reader opened mid-file reports the same byte
    /// offsets and line numbers a sequential scan would.
    pub fn starting_at(mut self, offset: u64, line: u64) -> Self {
        self.pos = offset;
        self.record_pos = offset;
        self.next_line = line;
        self
    }

    /// The dialect this reader parses with.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Byte offset (from the start of the source) of the next unread
    /// byte.
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// Byte offset where the most recently returned record's first
    /// physical line starts.
    pub fn record_start(&self) -> u64 {
        self.record_pos
    }

    /// Read the next record, skipping blank and comment lines.
    /// Returns `Ok(None)` at end of input. The returned record borrows
    /// the reader's buffers and is invalidated by the next call.
    pub fn read_record(&mut self) -> Result<Option<StrRecord<'_>>> {
        loop {
            if !self.next_content_line()? {
                return Ok(None);
            }
            self.parse_record()?;
            if self.bounds.is_empty() {
                // a line of pure delimiters in merge mode: nothing here
                continue;
            }
            return Ok(Some(StrRecord {
                text: if self.from_raw { &self.raw } else { &self.buf },
                bounds: &self.bounds,
                line: self.record_line,
            }));
        }
    }

    /// Advance `raw` to the next non-blank, non-comment line. Returns
    /// false at end of input.
    fn next_content_line(&mut self) -> Result<bool> {
        loop {
            let line_start = self.pos;
            if !self.fill_raw_line()? {
                return Ok(false);
            }
            self.record_line = self.next_line - 1;
            let content = self.raw.trim_start();
            if content.is_empty() {
                continue;
            }
            if let Some(comment) = self.dialect.comment {
                if content.as_bytes()[0] == comment {
                    continue;
                }
            }
            self.record_pos = line_start;
            return Ok(true);
        }
    }

    /// Read one physical line into `raw` (line ending stripped),
    /// advancing the line counter and byte position. Returns false at
    /// end of input.
    fn fill_raw_line(&mut self) -> Result<bool> {
        self.raw.clear();
        let n = self.src.read_line(&mut self.raw).map_err(|e| CsvError {
            line: self.next_line,
            kind: if e.kind() == std::io::ErrorKind::InvalidData {
                CsvErrorKind::Utf8
            } else {
                CsvErrorKind::Io(e.to_string())
            },
        })?;
        if n == 0 {
            return Ok(false);
        }
        self.pos += n as u64;
        self.next_line += 1;
        self.ending = "";
        if self.raw.ends_with('\n') {
            self.raw.pop();
            self.ending = "\n";
            if self.raw.ends_with('\r') {
                self.raw.pop();
                self.ending = "\r\n";
            }
        }
        Ok(true)
    }

    /// Parse the record starting in `raw` into `bounds` (and `buf`
    /// when quoting forces unescaping), pulling continuation lines
    /// while inside a quoted field.
    fn parse_record(&mut self) -> Result<()> {
        self.bounds.clear();
        // fast path: no quote anywhere in the line — record field
        // bounds straight into `raw`, zero copies
        if !self.raw.as_bytes().contains(&b'"') {
            self.from_raw = true;
            let dialect = self.dialect;
            let raw = self.raw.as_str();
            let bytes = raw.as_bytes();
            let bounds = &mut self.bounds;
            if dialect.merge {
                let mut start = 0;
                for i in 0..=bytes.len() {
                    if i < bytes.len() && !dialect.is_delimiter(bytes[i]) {
                        continue;
                    }
                    push_raw_field(raw, &dialect, bounds, start, i);
                    start = i + 1;
                }
            } else {
                let delimiter = dialect.delimiter;
                let mut start = 0;
                loop {
                    match bytes[start..].iter().position(|&b| b == delimiter) {
                        Some(off) => {
                            push_raw_field(raw, &dialect, bounds, start, start + off);
                            start += off + 1;
                        }
                        None => {
                            push_raw_field(raw, &dialect, bounds, start, bytes.len());
                            break;
                        }
                    }
                }
            }
            return Ok(());
        }
        self.from_raw = false;
        self.buf.clear();
        self.field.clear();
        let mut in_quotes = false;
        // whether the field under construction opened with a quote
        let mut quoted = false;
        loop {
            let mut i = 0;
            while i < self.raw.len() {
                let bytes = self.raw.as_bytes();
                if in_quotes {
                    match bytes[i..].iter().position(|&b| b == b'"') {
                        None => {
                            self.field.push_str(&self.raw[i..]);
                            i = self.raw.len();
                        }
                        Some(off) => {
                            self.field.push_str(&self.raw[i..i + off]);
                            i += off;
                            if bytes.get(i + 1) == Some(&b'"') {
                                self.field.push('"');
                                i += 2;
                            } else {
                                in_quotes = false;
                                i += 1;
                            }
                        }
                    }
                    continue;
                }
                let b = bytes[i];
                if self.dialect.is_delimiter(b) {
                    self.end_field(quoted);
                    quoted = false;
                    i += 1;
                } else if b == b'"'
                    && !quoted
                    && (self.field.is_empty()
                        || (self.dialect.trim && self.field.trim().is_empty()))
                {
                    // an opening quote (leading whitespace tolerated
                    // when trimming): the field restarts verbatim
                    self.field.clear();
                    in_quotes = true;
                    quoted = true;
                    i += 1;
                } else if quoted && (b == b' ' || b == b'\t') {
                    // whitespace between a closing quote and the next
                    // delimiter is not part of the field
                    i += 1;
                } else {
                    // literal run up to the next delimiter or quote
                    let end = bytes[i..]
                        .iter()
                        .position(|&b| self.dialect.is_delimiter(b) || b == b'"')
                        .map_or(self.raw.len(), |off| i + off);
                    if end == i {
                        // a literal quote inside an unquoted field
                        self.field.push('"');
                        i += 1;
                    } else {
                        self.field.push_str(&self.raw[i..end]);
                        i = end;
                    }
                }
            }
            if !in_quotes {
                break;
            }
            // the quoted field continues on the next physical line
            self.field.push_str(self.ending);
            if !self.fill_raw_line()? {
                return Err(CsvError {
                    line: self.record_line,
                    kind: CsvErrorKind::UnclosedQuote,
                });
            }
        }
        self.end_field(quoted);
        Ok(())
    }

    /// Commit the field under construction to the record (quoted
    /// path), applying trimming and merge-mode empty-field dropping.
    fn end_field(&mut self, quoted: bool) {
        let text = if quoted || !self.dialect.trim {
            self.field.as_str()
        } else {
            self.field.trim()
        };
        if !(self.dialect.merge && !quoted && text.is_empty()) {
            let start = self.buf.len();
            self.buf.push_str(text);
            self.bounds.push((start, self.buf.len()));
        }
        self.field.clear();
    }
}

/// Commit the unquoted field `raw[start..end]` to the record as
/// trimmed bounds into `raw` — no text is copied (the fast path).
fn push_raw_field(
    raw: &str,
    dialect: &Dialect,
    bounds: &mut Vec<(usize, usize)>,
    start: usize,
    end: usize,
) {
    let (mut s, mut e) = (start, end);
    if dialect.trim {
        let trimmed = raw[start..end].trim();
        s = trimmed.as_ptr() as usize - raw.as_ptr() as usize;
        e = s + trimmed.len();
    }
    if !(dialect.merge && s == e) {
        bounds.push((s, e));
    }
}

/// One parsed record at a time, from any source — a plain
/// [`CsvReader`] or an indexed chunk view (see
/// [`crate::index::ChunkReader`]). [`crate::BatchDecoder`] decodes
/// from any `RecordSource`, so the sequential and chunk-parallel
/// ingest paths share one decoding loop.
pub trait RecordSource {
    /// Read the next record; `Ok(None)` at end of the source. The
    /// record borrows this source and is invalidated by the next call.
    fn next_record(&mut self) -> Result<Option<StrRecord<'_>>>;
}

impl<R: BufRead> RecordSource for CsvReader<R> {
    fn next_record(&mut self) -> Result<Option<StrRecord<'_>>> {
        self.read_record()
    }
}

/// A zero-copy view of one record: fields borrow the reader's internal
/// buffer and are valid until the next `read_record` call.
#[derive(Debug, Clone, Copy)]
pub struct StrRecord<'a> {
    text: &'a str,
    bounds: &'a [(usize, usize)],
    line: u64,
}

impl<'a> StrRecord<'a> {
    /// Number of fields.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True when the record has no fields (never returned by
    /// `read_record`).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// 1-based line number the record started on.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Field by 0-based index.
    pub fn get(&self, index: usize) -> Option<&'a str> {
        let &(start, end) = self.bounds.get(index)?;
        Some(&self.text[start..end])
    }

    /// Iterate over the fields in order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + '_ {
        (0..self.len()).map(|i| self.get(i).expect("index in range"))
    }

    /// Field by index, or a line-numbered field-count error.
    pub fn require(&self, index: usize) -> Result<&'a str> {
        self.get(index).ok_or(CsvError {
            line: self.line,
            kind: CsvErrorKind::FieldCount {
                expected: index + 1,
                found: self.len(),
            },
        })
    }

    /// Error unless the record has exactly `expected` fields.
    pub fn expect_len(&self, expected: usize) -> Result<()> {
        if self.len() == expected {
            Ok(())
        } else {
            Err(CsvError {
                line: self.line,
                kind: CsvErrorKind::FieldCount {
                    expected,
                    found: self.len(),
                },
            })
        }
    }

    /// Parse field `index` as a finite `f64`, with a line- and
    /// field-numbered error.
    pub fn parse_f64(&self, index: usize) -> Result<f64> {
        let text = self.require(index)?;
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => Err(self.parse_error(index, "a finite number", text)),
        }
    }

    /// Parse field `index` as a `usize`, with a line- and
    /// field-numbered error.
    pub fn parse_usize(&self, index: usize) -> Result<usize> {
        let text = self.require(index)?;
        text.parse::<usize>()
            .map_err(|_| self.parse_error(index, "a non-negative integer", text))
    }

    /// A [`CsvErrorKind::Parse`] error pinned to this record's line.
    pub fn parse_error(&self, index: usize, expected: &str, value: &str) -> CsvError {
        let mut value = value.to_string();
        value.truncate(64);
        CsvError {
            line: self.line,
            kind: CsvErrorKind::Parse {
                field: index,
                expected: expected.to_string(),
                value,
            },
        }
    }

    /// Header sniffing: true when any of the listed fields does *not*
    /// parse as a number — i.e. the record looks like a header row for
    /// a schema whose `numeric_fields` should be numeric.
    pub fn looks_like_header(&self, numeric_fields: &[usize]) -> bool {
        numeric_fields
            .iter()
            .any(|&i| self.get(i).is_none_or(|f| f.parse::<f64>().is_err()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(reader: &mut CsvReader<&[u8]>) -> Vec<(u64, Vec<String>)> {
        let mut out = Vec::new();
        while let Some(record) = reader.read_record().unwrap() {
            out.push((record.line(), record.iter().map(str::to_string).collect()));
        }
        out
    }

    #[test]
    fn plain_fields_and_line_numbers() {
        let mut r = CsvReader::new("a,1,x\nb,2,y\n".as_bytes());
        let rows = read_all(&mut r);
        assert_eq!(rows[0], (1, vec!["a".into(), "1".into(), "x".into()]));
        assert_eq!(rows[1], (2, vec!["b".into(), "2".into(), "y".into()]));
    }

    #[test]
    fn crlf_and_missing_final_newline() {
        let mut r = CsvReader::new("a,1\r\nb,2".as_bytes());
        let rows = read_all(&mut r);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].1, vec!["b", "2"]);
    }

    #[test]
    fn quoted_fields_keep_commas_and_escapes() {
        let mut r = CsvReader::new("\"smith, carol\",0.7\n\"say \"\"hi\"\"\",1\n".as_bytes());
        let rows = read_all(&mut r);
        assert_eq!(rows[0].1, vec!["smith, carol", "0.7"]);
        assert_eq!(rows[1].1, vec!["say \"hi\"", "1"]);
    }

    #[test]
    fn quoted_field_spans_lines_and_line_numbers_stay_right() {
        let mut r = CsvReader::new("\"two\nlines\",1\nnext,2\n".as_bytes());
        let rows = read_all(&mut r);
        assert_eq!(rows[0], (1, vec!["two\nlines".into(), "1".into()]));
        assert_eq!(rows[1], (3, vec!["next".into(), "2".into()]));
    }

    #[test]
    fn quoted_line_breaks_keep_their_bytes() {
        let mut r = CsvReader::new("\"crlf\r\nbreak\",\"lf\nbreak\"\r\n".as_bytes());
        let rows = read_all(&mut r);
        assert_eq!(rows[0].1, vec!["crlf\r\nbreak", "lf\nbreak"]);
    }

    #[test]
    fn unclosed_quote_is_an_error() {
        let mut r = CsvReader::new("\"open,1\n".as_bytes());
        let err = r.read_record().unwrap_err();
        assert_eq!(err.kind, CsvErrorKind::UnclosedQuote);
        assert_eq!(err.line, 1);
    }

    #[test]
    fn blank_and_comment_lines_skipped() {
        let mut r = CsvReader::new("# header\n\n  \na,1\n#x\nb,2\n".as_bytes()).comment(b'#');
        let rows = read_all(&mut r);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, 4);
        assert_eq!(rows[1].0, 6);
    }

    #[test]
    fn unquoted_fields_are_trimmed_quoted_kept() {
        let mut r = CsvReader::new(" a , \" b \" ,c\n".as_bytes());
        let rows = read_all(&mut r);
        assert_eq!(rows[0].1, vec!["a", " b ", "c"]);
    }

    #[test]
    fn empty_fields_survive_in_csv_mode() {
        let mut r = CsvReader::new("a,,c\n,,\n".as_bytes());
        let rows = read_all(&mut r);
        assert_eq!(rows[0].1, vec!["a", "", "c"]);
        assert_eq!(rows[1].1, vec!["", "", ""]);
    }

    #[test]
    fn whitespace_mode_merges_runs() {
        let mut r = CsvReader::space_separated("A11  6\tA34   A43\n  B 1\n".as_bytes());
        let rows = read_all(&mut r);
        assert_eq!(rows[0].1, vec!["A11", "6", "A34", "A43"]);
        assert_eq!(rows[1].1, vec!["B", "1"]);
    }

    #[test]
    fn typed_accessors_pin_line_and_field() {
        let mut r = CsvReader::new("a,nope\n".as_bytes());
        let record = r.read_record().unwrap().unwrap();
        assert_eq!(record.parse_f64(1).unwrap_err().line, 1);
        let err = record.parse_usize(1).unwrap_err();
        assert!(matches!(err.kind, CsvErrorKind::Parse { field: 1, .. }));
        assert!(record.require(5).is_err());
        assert!(record.expect_len(3).is_err());
        assert_eq!(record.parse_f64(5).unwrap_err().line, 1);
    }

    #[test]
    fn header_sniffing() {
        let mut r = CsvReader::new("id,score,group\nalice,0.9,f\n".as_bytes());
        let header = r.read_record().unwrap().unwrap();
        assert!(header.looks_like_header(&[1]));
        let data = r.read_record().unwrap().unwrap();
        assert!(!data.looks_like_header(&[1]));
    }

    #[test]
    fn literal_quote_inside_unquoted_field() {
        let mut r = CsvReader::new("it\"s,1\n".as_bytes());
        let rows = read_all(&mut r);
        assert_eq!(rows[0].1, vec!["it\"s", "1"]);
    }

    #[test]
    fn invalid_utf8_is_reported() {
        let mut r = CsvReader::new(&[0x61u8, 0xFF, 0x0A][..]);
        let err = r.read_record().unwrap_err();
        assert_eq!(err.kind, CsvErrorKind::Utf8);
    }

    #[test]
    fn record_start_tracks_byte_offsets() {
        // comment and blank lines advance the position but are never a
        // record start; CRLF line endings count both bytes
        let data = "# c\n\na,1\r\nb,2\n\"x\ny\",3\nlast,4";
        let mut r = CsvReader::new(data.as_bytes()).comment(b'#');
        let mut starts = Vec::new();
        while let Some(line) = r.read_record().unwrap().map(|record| record.line()) {
            starts.push((r.record_start(), line));
        }
        // offsets of "a,1", "b,2", the multi-line quoted record, "last,4"
        assert_eq!(starts, vec![(5, 3), (10, 4), (14, 5), (22, 7)]);
        assert_eq!(r.position(), data.len() as u64);
    }

    #[test]
    fn starting_at_reproduces_mid_file_reads() {
        let data = "a,1\nb,2\nc,3\n";
        // a full scan records where record 2 ("c,3") starts
        let mut full = CsvReader::new(data.as_bytes());
        full.read_record().unwrap();
        full.read_record().unwrap();
        full.read_record().unwrap();
        let (offset, line) = (full.record_start(), 3u64);
        // a reader opened at that offset sees identical content
        let mut mid = CsvReader::new(&data.as_bytes()[offset as usize..]).starting_at(offset, line);
        let record = mid.read_record().unwrap().unwrap();
        assert_eq!(record.line(), 3);
        assert_eq!(record.iter().collect::<Vec<_>>(), vec!["c", "3"]);
        assert_eq!(mid.record_start(), offset);
    }

    #[test]
    fn dialect_round_trips_through_builders() {
        let r = CsvReader::new("".as_bytes())
            .delimiter(b';')
            .comment(b'%')
            .merge_delimiters(true)
            .trim(false);
        let d = r.dialect();
        assert_eq!(d.delimiter, b';');
        assert_eq!(d.comment, Some(b'%'));
        assert!(d.merge);
        assert!(!d.trim);
        let s = Dialect::space_separated();
        assert_eq!(s.delimiter, b' ');
        assert!(s.merge);
        assert_eq!(Dialect::csv().comment(b'#').comment, Some(b'#'));
    }
}
