//! Typed, bounded-size columnar decoding on top of the streaming
//! reader.

use crate::csv::{RecordSource, StrRecord};
use crate::Result;

/// Declared type of one CSV column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldType {
    /// Arbitrary text.
    Str,
    /// A finite `f64`.
    F64,
    /// A non-negative integer.
    USize,
    /// Low-cardinality text, dictionary-encoded: each distinct label
    /// is allocated once per batch, rows carry `u32` codes. The right
    /// type for group/category columns — decoding allocates per
    /// distinct label, not per row.
    Category,
}

/// One decoded column of a [`RecordBatch`].
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// Text column.
    Str(Vec<String>),
    /// Numeric column.
    F64(Vec<f64>),
    /// Integer column.
    USize(Vec<usize>),
    /// Dictionary-encoded text column.
    Category(DictColumn),
}

/// A dictionary-encoded text column: `labels` holds each distinct
/// value once, in first-appearance order; `codes` holds one index into
/// `labels` per row. Lookup is a linear scan of the dictionary, so
/// this is for genuinely low-cardinality columns (groups, categories),
/// where it eliminates the per-row `String` allocation a
/// [`Column::Str`] column would pay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DictColumn {
    labels: Vec<String>,
    codes: Vec<u32>,
}

impl DictColumn {
    /// Distinct labels, in first-appearance order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Per-row codes into [`DictColumn::labels`].
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Decompose into `(labels, codes)`.
    pub fn into_parts(self) -> (Vec<String>, Vec<u32>) {
        (self.labels, self.codes)
    }

    fn push(&mut self, text: &str) {
        let code = match self.labels.iter().position(|l| l == text) {
            Some(code) => code,
            None => {
                self.labels.push(text.to_string());
                self.labels.len() - 1
            }
        };
        self.codes.push(code as u32);
    }
}

impl Column {
    fn with_capacity(ty: FieldType, capacity: usize) -> Column {
        match ty {
            FieldType::Str => Column::Str(Vec::with_capacity(capacity)),
            FieldType::F64 => Column::F64(Vec::with_capacity(capacity)),
            FieldType::USize => Column::USize(Vec::with_capacity(capacity)),
            FieldType::Category => Column::Category(DictColumn {
                labels: Vec::new(),
                codes: Vec::with_capacity(capacity),
            }),
        }
    }

    fn push_from(&mut self, record: &StrRecord<'_>, index: usize) -> Result<()> {
        match self {
            Column::Str(v) => v.push(record.require(index)?.to_string()),
            Column::F64(v) => v.push(record.parse_f64(index)?),
            Column::USize(v) => v.push(record.parse_usize(index)?),
            Column::Category(d) => d.push(record.require(index)?),
        }
        Ok(())
    }

    /// Rows in the column.
    pub fn len(&self) -> usize {
        match self {
            Column::Str(v) => v.len(),
            Column::F64(v) => v.len(),
            Column::USize(v) => v.len(),
            Column::Category(d) => d.codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Text view (None for non-text columns).
    pub fn as_str(&self) -> Option<&[String]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view (None for non-numeric columns).
    pub fn as_f64(&self) -> Option<&[f64]> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Integer view (None for non-integer columns).
    pub fn as_usize(&self) -> Option<&[usize]> {
        match self {
            Column::USize(v) => Some(v),
            _ => None,
        }
    }

    /// Dictionary view (None for non-category columns).
    pub fn as_category(&self) -> Option<&DictColumn> {
        match self {
            Column::Category(d) => Some(d),
            _ => None,
        }
    }

    /// Take ownership of a text column (None for non-text columns) —
    /// lets consumers move decoded strings out instead of cloning.
    pub fn into_str(self) -> Option<Vec<String>> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Take ownership of a numeric column.
    pub fn into_f64(self) -> Option<Vec<f64>> {
        match self {
            Column::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Take ownership of a dictionary-encoded column.
    pub fn into_category(self) -> Option<DictColumn> {
        match self {
            Column::Category(d) => Some(d),
            _ => None,
        }
    }
}

/// A bounded chunk of typed rows decoded from the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordBatch {
    columns: Vec<Column>,
    lines: Vec<u64>,
}

impl RecordBatch {
    /// Rows decoded into this batch.
    pub fn rows(&self) -> usize {
        self.lines.len()
    }

    /// Column by 0-based index (panics when out of range).
    pub fn column(&self, index: usize) -> &Column {
        &self.columns[index]
    }

    /// All columns, schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// 1-based source line number of row `row` — blank and comment
    /// lines do not shift the positions, so errors about a row can be
    /// reported exactly.
    pub fn line(&self, row: usize) -> u64 {
        self.lines[row]
    }

    /// 1-based line number of the batch's first record.
    pub fn first_line(&self) -> u64 {
        self.lines.first().copied().unwrap_or(0)
    }

    /// Decompose into owned columns and per-row line numbers, so
    /// consumers can move the decoded values instead of cloning them.
    pub fn into_parts(self) -> (Vec<Column>, Vec<u64>) {
        (self.columns, self.lines)
    }
}

/// Decodes fixed-schema records into [`RecordBatch`]es of bounded row
/// count, so arbitrarily large files are processed chunk by chunk.
#[derive(Debug, Clone)]
pub struct BatchDecoder {
    types: Vec<FieldType>,
    sniff_header: bool,
    header_checked: bool,
}

impl BatchDecoder {
    /// A decoder expecting exactly `types.len()` fields per record.
    pub fn new(types: Vec<FieldType>) -> Self {
        BatchDecoder {
            types,
            sniff_header: false,
            header_checked: false,
        }
    }

    /// Sniff (and skip) a header row: the first record is treated as a
    /// header when any of the schema's numeric columns fails to parse
    /// as a number in it.
    pub fn sniff_header(mut self, sniff: bool) -> Self {
        self.sniff_header = sniff;
        self
    }

    /// Number of columns in the schema.
    pub fn width(&self) -> usize {
        self.types.len()
    }

    /// Decode up to `max_rows` records into one batch. Returns
    /// `Ok(None)` when the stream is exhausted. Any malformed record
    /// aborts with its line-numbered error.
    ///
    /// The source can be a plain [`crate::CsvReader`] or an indexed
    /// chunk ([`crate::index::ChunkReader`]) — any [`RecordSource`].
    pub fn read_batch<S: RecordSource>(
        &mut self,
        reader: &mut S,
        max_rows: usize,
    ) -> Result<Option<RecordBatch>> {
        let max_rows = max_rows.max(1);
        let mut columns: Vec<Column> = self
            .types
            .iter()
            .map(|&ty| Column::with_capacity(ty, max_rows))
            .collect();
        let mut lines = Vec::with_capacity(max_rows);
        if self.sniff_header && !self.header_checked {
            self.header_checked = true;
            let numeric: Vec<usize> = self
                .types
                .iter()
                .enumerate()
                .filter(|(_, ty)| matches!(ty, FieldType::F64 | FieldType::USize))
                .map(|(i, _)| i)
                .collect();
            match reader.next_record()? {
                None => return Ok(None),
                // a data row after all: decode it like any other
                Some(record) if !record.looks_like_header(&numeric) => {
                    record.expect_len(self.types.len())?;
                    lines.push(record.line());
                    for (index, column) in columns.iter_mut().enumerate() {
                        column.push_from(&record, index)?;
                    }
                }
                Some(_) => {}
            }
        }
        while lines.len() < max_rows {
            let Some(record) = reader.next_record()? else {
                break;
            };
            record.expect_len(self.types.len())?;
            lines.push(record.line());
            for (index, column) in columns.iter_mut().enumerate() {
                column.push_from(&record, index)?;
            }
        }
        if lines.is_empty() {
            return Ok(None);
        }
        Ok(Some(RecordBatch { columns, lines }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CsvErrorKind, CsvReader};

    #[test]
    fn decodes_typed_chunks() {
        let data = "a,1.5,3\nb,2.5,4\nc,3.5,5\n";
        let mut reader = CsvReader::new(data.as_bytes());
        let mut decoder = BatchDecoder::new(vec![FieldType::Str, FieldType::F64, FieldType::USize]);
        let first = decoder.read_batch(&mut reader, 2).unwrap().unwrap();
        assert_eq!(first.rows(), 2);
        assert_eq!(first.first_line(), 1);
        assert_eq!(first.column(0).as_str().unwrap(), &["a", "b"]);
        assert_eq!(first.column(1).as_f64().unwrap(), &[1.5, 2.5]);
        assert_eq!(first.column(2).as_usize().unwrap(), &[3, 4]);
        let second = decoder.read_batch(&mut reader, 2).unwrap().unwrap();
        assert_eq!(second.rows(), 1);
        assert_eq!(second.first_line(), 3);
        assert!(decoder.read_batch(&mut reader, 2).unwrap().is_none());
    }

    #[test]
    fn field_count_mismatch_carries_the_line() {
        let mut reader = CsvReader::new("a,1\nb\n".as_bytes());
        let mut decoder = BatchDecoder::new(vec![FieldType::Str, FieldType::F64]);
        let err = decoder.read_batch(&mut reader, 16).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.kind,
            CsvErrorKind::FieldCount {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn parse_failure_carries_line_and_field() {
        let mut reader = CsvReader::new("a,1\nb,oops\n".as_bytes());
        let mut decoder = BatchDecoder::new(vec![FieldType::Str, FieldType::F64]);
        let err = decoder.read_batch(&mut reader, 16).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, CsvErrorKind::Parse { field: 1, .. }));
    }

    #[test]
    fn non_finite_numbers_rejected() {
        let mut reader = CsvReader::new("a,inf\n".as_bytes());
        let mut decoder = BatchDecoder::new(vec![FieldType::Str, FieldType::F64]);
        assert!(decoder.read_batch(&mut reader, 4).is_err());
    }

    #[test]
    fn category_columns_dictionary_encode() {
        let data = "a,g1\nb,g0\nc,g1\nd,g1\ne,g2\n";
        let mut reader = CsvReader::new(data.as_bytes());
        let mut decoder = BatchDecoder::new(vec![FieldType::Str, FieldType::Category]);
        let batch = decoder.read_batch(&mut reader, 16).unwrap().unwrap();
        let dict = batch.column(1).as_category().unwrap();
        assert_eq!(dict.labels(), &["g1", "g0", "g2"]);
        assert_eq!(dict.codes(), &[0, 1, 0, 0, 2]);
        assert_eq!(batch.column(1).len(), 5);
        let (labels, codes) = batch
            .into_parts()
            .0
            .pop()
            .unwrap()
            .into_category()
            .unwrap()
            .into_parts();
        assert_eq!(labels.len(), 3);
        assert_eq!(codes.len(), 5);
    }

    #[test]
    fn column_accessor_mismatches_are_none() {
        let mut reader = CsvReader::new("1\n".as_bytes());
        let mut decoder = BatchDecoder::new(vec![FieldType::F64]);
        let batch = decoder.read_batch(&mut reader, 4).unwrap().unwrap();
        assert!(batch.column(0).as_str().is_none());
        assert!(batch.column(0).as_usize().is_none());
        assert!(!batch.column(0).is_empty());
        assert_eq!(batch.columns().len(), 1);
    }
}
