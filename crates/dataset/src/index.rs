//! The `.frix` sidecar index: O(1) record seeks and chunk-parallel
//! ingest for CSV-ish files (xsv's `index` idiom).
//!
//! A sidecar index (built once by `fairrank index`, or by
//! [`CsvIndex::build`]) records the byte offset and 1-based line
//! number of every record in a source file, plus enough header
//! metadata to detect staleness. With it, [`IndexedCsv`] can:
//!
//! * answer [`IndexedCsv::record_count`] without touching the source;
//! * open a [`CsvReader`] positioned at any record
//!   ([`IndexedCsv::seek_to`]) that reports exactly the line numbers a
//!   sequential scan would;
//! * split the file into contiguous record-range chunks
//!   ([`IndexedCsv::chunks`]) that parse independently — record
//!   boundaries are known, so a mid-file reader never starts inside a
//!   quoted field;
//! * fan those chunks across worker threads
//!   ([`IndexedCsv::process_chunks`],
//!   [`IndexedCsv::read_batches_parallel`]) with results reassembled
//!   in chunk order, so the output stream is **byte-identical
//!   regardless of thread count** — the same determinism discipline as
//!   the engine's wide-mallows fan-out.
//!
//! Staleness is checked on every open: the index stores the source's
//! byte length and an FNV-1a checksum of its first and last 4 KiB,
//! plus the [`Dialect`] it was built under. Any mismatch makes
//! [`IndexedCsv::open`] warn on stderr and return `None`, and
//! [`ingest_batches`] then falls back to the plain sequential scan —
//! a stale index can cost speed, never correctness. The full format
//! and invalidation rules are documented in `docs/DATASET.md`.

use crate::csv::{CsvReader, Dialect, RecordSource, StrRecord};
use crate::{BatchDecoder, CsvError, CsvErrorKind, FieldType, RecordBatch, Result};
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// Sidecar file magic.
const MAGIC: &[u8; 4] = b"FRIX";
/// Sidecar format version.
const VERSION: u32 = 1;
/// Fixed header size in bytes (entries follow).
const HEADER_LEN: usize = 40;
/// Bytes of the source hashed from each end for the freshness check.
const CHECKSUM_SPAN: usize = 4096;
/// Records per logical chunk in the parallel drivers. Fixed (not a
/// function of the thread count) so chunk boundaries — and therefore
/// the reassembled output — are identical at any `--jobs` value.
pub const CHUNK_RECORDS: usize = 4096;

/// Byte offset and 1-based line number where one record starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordPos {
    /// Byte offset of the record's first physical line.
    pub offset: u64,
    /// 1-based line number of the record's first physical line.
    pub line: u64,
}

/// A parsed (or freshly built) sidecar index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvIndex {
    dialect: Dialect,
    source_len: u64,
    source_checksum: u64,
    entries: Vec<RecordPos>,
}

/// The sidecar path for `path`: the source path with `.frix` appended
/// (`data.csv` → `data.csv.frix`).
pub fn sidecar_path(path: &str) -> PathBuf {
    PathBuf::from(format!("{path}.frix"))
}

/// Length and checksum of the source file, as stored in the sidecar
/// header: `(byte_len, fnv1a(first 4 KiB ++ last 4 KiB))`. Reading two
/// bounded spans keeps the freshness check O(1) in the file size;
/// `docs/DATASET.md` spells out what that does and does not catch.
fn source_signature(path: &str) -> Result<(u64, u64)> {
    let mut file = File::open(path).map_err(|e| io_error(path, &e))?;
    let len = file.metadata().map_err(|e| io_error(path, &e))?.len();
    let mut hasher = Fnv1a::new();
    let span = CHECKSUM_SPAN as u64;
    let mut buf = vec![0u8; CHECKSUM_SPAN.min(len as usize)];
    file.read_exact(&mut buf).map_err(|e| io_error(path, &e))?;
    hasher.write(&buf);
    if len > span {
        file.seek(SeekFrom::Start(len - span.min(len)))
            .map_err(|e| io_error(path, &e))?;
        let mut tail = vec![0u8; span.min(len) as usize];
        file.read_exact(&mut tail).map_err(|e| io_error(path, &e))?;
        hasher.write(&tail);
    }
    Ok((len, hasher.finish()))
}

impl CsvIndex {
    /// Build an index by scanning `path` with a [`CsvReader`] under
    /// `dialect` — record framing (quotes, CRLF, comments, merge mode)
    /// is handled by the same code that will later read the records.
    pub fn build(path: &str, dialect: Dialect) -> Result<CsvIndex> {
        let (source_len, source_checksum) = source_signature(path)?;
        let file = File::open(path).map_err(|e| io_error(path, &e))?;
        let mut reader = dialect.reader(BufReader::new(file));
        let mut entries = Vec::new();
        // map the record to its line number inside the condition so the
        // record's borrow of `reader` ends before `record_start()`
        while let Some(line) = reader.read_record()?.map(|record| record.line()) {
            entries.push(RecordPos {
                offset: reader.record_start(),
                line,
            });
        }
        Ok(CsvIndex {
            dialect,
            source_len,
            source_checksum,
            entries,
        })
    }

    /// The dialect the index was built under.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Number of records in the indexed source.
    pub fn record_count(&self) -> usize {
        self.entries.len()
    }

    /// Offset/line of record `record` (0-based).
    pub fn entry(&self, record: usize) -> Option<RecordPos> {
        self.entries.get(record).copied()
    }

    /// True when `path` still matches the length/checksum recorded at
    /// build time.
    pub fn is_fresh(&self, path: &str) -> bool {
        matches!(
            source_signature(path),
            Ok((len, sum)) if len == self.source_len && sum == self.source_checksum
        )
    }

    /// Serialize to the sidecar next to `path`, atomically: the bytes
    /// are written to a `.tmp` neighbour and renamed into place, so a
    /// crash mid-write never leaves a truncated index where a reader
    /// could find it (truncation is detected anyway, but an atomic
    /// write means the previous index stays usable).
    pub fn write_sidecar(&self, path: &str) -> Result<PathBuf> {
        let sidecar = sidecar_path(path);
        let tmp = PathBuf::from(format!("{}.tmp", sidecar.display()));
        let mut bytes = Vec::with_capacity(HEADER_LEN + 16 * self.entries.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.push(self.dialect.delimiter);
        bytes.push(self.dialect.comment.unwrap_or(0));
        bytes.push(self.dialect.merge as u8);
        bytes.push(self.dialect.trim as u8);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&self.source_len.to_le_bytes());
        bytes.extend_from_slice(&self.source_checksum.to_le_bytes());
        bytes.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for entry in &self.entries {
            bytes.extend_from_slice(&entry.offset.to_le_bytes());
            bytes.extend_from_slice(&entry.line.to_le_bytes());
        }
        let write = |p: &Path| -> std::io::Result<()> {
            let mut f = File::create(p)?;
            f.write_all(&bytes)?;
            f.sync_all()
        };
        write(&tmp).map_err(|e| io_error(&tmp.display().to_string(), &e))?;
        std::fs::rename(&tmp, &sidecar)
            .map_err(|e| io_error(&sidecar.display().to_string(), &e))?;
        Ok(sidecar)
    }

    /// Parse a sidecar file. Corruption (bad magic, unknown version,
    /// truncation, trailing garbage) is an error — callers treat it
    /// like a stale index.
    pub fn load(sidecar: &Path) -> Result<CsvIndex> {
        let name = sidecar.display();
        let bytes = std::fs::read(sidecar).map_err(|e| io_error(&name.to_string(), &e))?;
        let corrupt = |what: &str| CsvError::other(0, format!("index {name}: {what}"));
        if bytes.len() < HEADER_LEN {
            return Err(corrupt("truncated header"));
        }
        if &bytes[0..4] != MAGIC {
            return Err(corrupt("bad magic (not a .frix index)"));
        }
        if u32::from_le_bytes(bytes[4..8].try_into().unwrap()) != VERSION {
            return Err(corrupt("unsupported version"));
        }
        let dialect = Dialect {
            delimiter: bytes[8],
            comment: match bytes[9] {
                0 => None,
                c => Some(c),
            },
            merge: bytes[10] != 0,
            trim: bytes[11] != 0,
        };
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let source_len = u64_at(16);
        let source_checksum = u64_at(24);
        let count = u64_at(32) as usize;
        if bytes.len() != HEADER_LEN + 16 * count {
            return Err(corrupt("entry table length mismatch"));
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            entries.push(RecordPos {
                offset: u64_at(HEADER_LEN + 16 * i),
                line: u64_at(HEADER_LEN + 16 * i + 8),
            });
        }
        Ok(CsvIndex {
            dialect,
            source_len,
            source_checksum,
            entries,
        })
    }
}

/// One contiguous record range of an [`IndexedCsv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// 0-based index of the chunk's first record.
    pub start: usize,
    /// Number of records in the chunk.
    pub len: usize,
}

/// A seekable, chunkable view of an indexed source file.
pub struct IndexedCsv {
    path: String,
    index: CsvIndex,
}

impl IndexedCsv {
    /// Open the indexed view of `path` for reading under `dialect`.
    ///
    /// Returns `None` (silently) when no sidecar exists, and `None`
    /// with a warning on stderr when the sidecar is corrupt, was built
    /// under a different dialect, or no longer matches the source
    /// (length/checksum) — callers fall back to the sequential scan.
    pub fn open(path: &str, dialect: Dialect) -> Option<IndexedCsv> {
        let sidecar = sidecar_path(path);
        if !sidecar.exists() {
            return None;
        }
        let warn = |what: &str| {
            eprintln!(
                "warning: index {} {what}; falling back to sequential scan \
                 (re-run `fairrank index` to rebuild)",
                sidecar.display()
            );
        };
        let index = match CsvIndex::load(&sidecar) {
            Ok(index) => index,
            Err(e) => {
                warn(&format!("is unreadable ({e})"));
                return None;
            }
        };
        if index.dialect != dialect {
            warn("was built under a different dialect");
            return None;
        }
        if !index.is_fresh(path) {
            warn("is stale (source changed since indexing)");
            return None;
        }
        Some(IndexedCsv {
            path: path.to_string(),
            index,
        })
    }

    /// The indexed source path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The underlying index.
    pub fn index(&self) -> &CsvIndex {
        &self.index
    }

    /// Number of records, answered from the index alone.
    pub fn record_count(&self) -> usize {
        self.index.record_count()
    }

    /// A [`CsvReader`] positioned at record `record` (0-based); it
    /// reports the same byte offsets and 1-based line numbers a
    /// sequential scan would, and reads on to end of file.
    pub fn seek_to(&self, record: usize) -> Result<CsvReader<BufReader<File>>> {
        let pos = self.index.entry(record).ok_or_else(|| {
            CsvError::other(
                0,
                format!(
                    "record {record} out of range (index has {})",
                    self.record_count()
                ),
            )
        })?;
        let mut file = File::open(&self.path).map_err(|e| io_error(&self.path, &e))?;
        file.seek(SeekFrom::Start(pos.offset))
            .map_err(|e| io_error(&self.path, &e))?;
        Ok(self
            .index
            .dialect
            .reader(BufReader::new(file))
            .starting_at(pos.offset, pos.line))
    }

    /// A reader over exactly the records of `chunk` — it stops at the
    /// chunk's record count, not at end of file.
    pub fn chunk_reader(&self, chunk: Chunk) -> Result<ChunkReader> {
        Ok(ChunkReader {
            reader: self.seek_to(chunk.start)?,
            remaining: chunk.len,
        })
    }

    /// Split the file into `n` contiguous, near-equal record ranges
    /// (fewer when there are fewer records than `n`).
    pub fn chunks(&self, n: usize) -> Vec<Chunk> {
        let records = self.record_count();
        let n = n.clamp(1, records.max(1));
        if records == 0 {
            return Vec::new();
        }
        let base = records / n;
        let extra = records % n;
        let mut start = 0;
        (0..n)
            .map(|i| {
                let len = base + usize::from(i < extra);
                let chunk = Chunk { start, len };
                start += len;
                chunk
            })
            .collect()
    }

    /// Split the file into fixed-size record ranges (`size` records
    /// each, last one short). This is what the parallel drivers use:
    /// the boundaries depend only on the data, never on the thread
    /// count, which is what makes their output thread-count-invariant.
    fn chunks_of(&self, size: usize) -> Vec<Chunk> {
        let size = size.max(1);
        (0..self.record_count())
            .step_by(size)
            .map(|start| Chunk {
                start,
                len: size.min(self.record_count() - start),
            })
            .collect()
    }

    /// Run `work` over every fixed-size chunk on up to `jobs` scoped
    /// worker threads (0 = one per CPU), returning the per-chunk
    /// results **in chunk order**.
    ///
    /// Determinism: chunk boundaries are fixed ([`CHUNK_RECORDS`]),
    /// results are slotted by chunk index, and workers claim chunk
    /// indices in increasing order — so on failure every chunk below
    /// the failing one has also run, and the error returned (the
    /// lowest-indexed one) is the same error a sequential scan would
    /// hit first, at any thread count.
    pub fn process_chunks<T, F>(&self, jobs: usize, work: F) -> Result<Vec<T>>
    where
        T: Send,
        F: Fn(usize, ChunkReader) -> Result<T> + Sync,
    {
        let chunks = self.chunks_of(CHUNK_RECORDS);
        let jobs = effective_jobs(jobs).min(chunks.len()).max(1);
        let run_one = |i: usize| -> Result<T> { work(i, self.chunk_reader(chunks[i])?) };
        if jobs == 1 || chunks.len() <= 1 {
            return chunks.iter().enumerate().map(|(i, _)| run_one(i)).collect();
        }
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<(usize, Result<T>)>();
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                let tx = tx.clone();
                let (chunks, next, failed, run_one) = (&chunks, &next, &failed, &run_one);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks.len() || failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let result = run_one(i);
                    if result.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    if tx.send((i, result)).is_err() {
                        break;
                    }
                });
            }
        });
        drop(tx);
        let mut slots: Vec<Option<Result<T>>> = (0..chunks.len()).map(|_| None).collect();
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        let mut out = Vec::with_capacity(chunks.len());
        for slot in slots {
            match slot {
                Some(Ok(value)) => out.push(Ok(value)),
                // the lowest-indexed error: everything below it ran clean
                Some(Err(e)) => return Err(e),
                // an unclaimed chunk after a lower-indexed failure —
                // unreachable without one, since every index below a
                // claimed one is claimed
                None => break,
            }
        }
        out.into_iter().collect()
    }

    /// Decode the whole file into typed [`RecordBatch`]es by fanning
    /// fixed-size chunks across up to `jobs` threads (0 = one per
    /// CPU). Batches come back in record order; only the first chunk's
    /// decoder header-sniffs. The concatenated rows are identical to a
    /// sequential [`BatchDecoder`] pass, at any thread count.
    pub fn read_batches_parallel(
        &self,
        types: &[FieldType],
        sniff_header: bool,
        jobs: usize,
    ) -> Result<Vec<RecordBatch>> {
        let per_chunk = self.process_chunks(jobs, |i, mut chunk| {
            let mut decoder =
                BatchDecoder::new(types.to_vec()).sniff_header(sniff_header && i == 0);
            let mut batches = Vec::new();
            while let Some(batch) = decoder.read_batch(&mut chunk, CHUNK_RECORDS)? {
                batches.push(batch);
            }
            Ok(batches)
        })?;
        Ok(per_chunk.into_iter().flatten().collect())
    }
}

/// A [`RecordSource`] over one chunk of an [`IndexedCsv`]: reads
/// exactly the chunk's records, then reports end of input.
pub struct ChunkReader {
    reader: CsvReader<BufReader<File>>,
    remaining: usize,
}

impl ChunkReader {
    /// Records left in the chunk.
    pub fn remaining(&self) -> usize {
        self.remaining
    }
}

impl RecordSource for ChunkReader {
    fn next_record(&mut self) -> Result<Option<StrRecord<'_>>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        self.reader.read_record()
    }
}

/// Resolve a `--jobs` value: 0 means one job per available CPU.
fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    } else {
        jobs
    }
}

/// Typed whole-file ingest with automatic index detection: when a
/// fresh sidecar exists the file is decoded chunk-parallel on up to
/// `jobs` threads (0 = one per CPU), otherwise it is scanned
/// sequentially. Either way the concatenated rows are identical.
pub fn ingest_batches(
    path: &str,
    dialect: Dialect,
    types: &[FieldType],
    sniff_header: bool,
    jobs: usize,
) -> Result<Vec<RecordBatch>> {
    if let Some(indexed) = IndexedCsv::open(path, dialect) {
        return indexed.read_batches_parallel(types, sniff_header, jobs);
    }
    let mut reader = dialect.reader(crate::open_file(path)?);
    let mut decoder = BatchDecoder::new(types.to_vec()).sniff_header(sniff_header);
    let mut batches = Vec::new();
    while let Some(batch) = decoder.read_batch(&mut reader, CHUNK_RECORDS)? {
        batches.push(batch);
    }
    Ok(batches)
}

/// 64-bit FNV-1a, the workspace's standard non-cryptographic hash.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn io_error(path: &str, e: &dyn std::fmt::Display) -> CsvError {
    CsvError {
        line: 0,
        kind: CsvErrorKind::Io(format!("{path}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!(
                "frix-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn file(&self, name: &str, contents: &str) -> String {
            let path = self.0.join(name);
            std::fs::write(&path, contents).unwrap();
            path.display().to_string()
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sequential_rows(path: &str, dialect: Dialect) -> Vec<(u64, Vec<String>)> {
        let mut reader = dialect.reader(crate::open_file(path).unwrap());
        let mut rows = Vec::new();
        while let Some(record) = reader.read_record().unwrap() {
            rows.push((record.line(), record.iter().map(str::to_string).collect()));
        }
        rows
    }

    #[test]
    fn index_round_trips_through_sidecar() {
        let scratch = Scratch::new("roundtrip");
        let path = scratch.file(
            "data.csv",
            "# comment\nid,score,group\na,1,x\n\"q,z\",2,y\nc,3,z\n",
        );
        let dialect = Dialect::csv().comment(b'#');
        let index = CsvIndex::build(&path, dialect).unwrap();
        assert_eq!(index.record_count(), 4);
        index.write_sidecar(&path).unwrap();
        let loaded = CsvIndex::load(&sidecar_path(&path)).unwrap();
        assert_eq!(loaded, index);
        assert!(loaded.is_fresh(&path));
        assert_eq!(loaded.dialect(), dialect);
    }

    #[test]
    fn seek_matches_sequential_scan() {
        let scratch = Scratch::new("seek");
        let path = scratch.file("data.csv", "a,1\r\n\n# note\n\"multi\nline\",2\nc,3\nd,4\n");
        let dialect = Dialect::csv().comment(b'#');
        let rows = sequential_rows(&path, dialect);
        let index = CsvIndex::build(&path, dialect).unwrap();
        index.write_sidecar(&path).unwrap();
        let indexed = IndexedCsv::open(&path, dialect).unwrap();
        assert_eq!(indexed.record_count(), rows.len());
        for (i, expected) in rows.iter().enumerate() {
            let mut reader = indexed.seek_to(i).unwrap();
            let record = reader.read_record().unwrap().unwrap();
            assert_eq!(record.line(), expected.0);
            let fields: Vec<String> = record.iter().map(str::to_string).collect();
            assert_eq!(&fields, &expected.1);
        }
        assert!(indexed.seek_to(rows.len()).is_err());
    }

    #[test]
    fn chunked_reads_concatenate_to_sequential() {
        let scratch = Scratch::new("chunks");
        let body: String = (0..97).map(|i| format!("r{i},{i}\n")).collect();
        let path = scratch.file("data.csv", &body);
        let dialect = Dialect::csv();
        let rows = sequential_rows(&path, dialect);
        CsvIndex::build(&path, dialect)
            .unwrap()
            .write_sidecar(&path)
            .unwrap();
        let indexed = IndexedCsv::open(&path, dialect).unwrap();
        for n in [1, 2, 3, 8, 97, 200] {
            let chunks = indexed.chunks(n);
            assert_eq!(chunks.iter().map(|c| c.len).sum::<usize>(), 97);
            let mut got = Vec::new();
            for chunk in chunks {
                let mut reader = indexed.chunk_reader(chunk).unwrap();
                while let Some(record) = reader.next_record().unwrap() {
                    got.push((record.line(), record.iter().map(str::to_string).collect()));
                }
            }
            assert_eq!(got, rows, "chunks({n})");
        }
    }

    #[test]
    fn parallel_batches_equal_sequential_at_any_jobs() {
        let scratch = Scratch::new("parallel");
        let mut body = String::from("id,score,group\n");
        for i in 0..9000 {
            body.push_str(&format!("cand{i},{}.5,g{}\n", i, i % 4));
        }
        let path = scratch.file("data.csv", &body);
        let dialect = Dialect::csv();
        let types = [FieldType::Str, FieldType::F64, FieldType::Str];
        let sequential = ingest_batches(&path, dialect, &types, true, 1).unwrap();
        CsvIndex::build(&path, dialect)
            .unwrap()
            .write_sidecar(&path)
            .unwrap();
        let flatten = |batches: &[RecordBatch]| {
            let mut rows = Vec::new();
            for batch in batches {
                for row in 0..batch.rows() {
                    rows.push((
                        batch.line(row),
                        batch.column(0).as_str().unwrap()[row].clone(),
                        batch.column(1).as_f64().unwrap()[row],
                        batch.column(2).as_str().unwrap()[row].clone(),
                    ));
                }
            }
            rows
        };
        let baseline = flatten(&sequential);
        assert_eq!(baseline.len(), 9000);
        let indexed = IndexedCsv::open(&path, dialect).unwrap();
        let mut streams = Vec::new();
        for jobs in [1, 2, 8] {
            let batches = indexed.read_batches_parallel(&types, true, jobs).unwrap();
            assert_eq!(flatten(&batches), baseline, "jobs={jobs}");
            streams.push(batches);
        }
        // not just the same rows: the same batches, byte for byte
        assert_eq!(streams[0], streams[1]);
        assert_eq!(streams[1], streams[2]);
    }

    #[test]
    fn parallel_error_is_the_sequential_error() {
        let scratch = Scratch::new("error");
        let mut body = String::new();
        for i in 0..9000 {
            body.push_str(&format!("r{i},{i}\n"));
        }
        body.push_str("bad,notanumber\n");
        for i in 0..3000 {
            body.push_str(&format!("s{i},{i}\n"));
        }
        let path = scratch.file("data.csv", &body);
        let dialect = Dialect::csv();
        let types = [FieldType::Str, FieldType::F64];
        let sequential_err = ingest_batches(&path, dialect, &types, false, 1).unwrap_err();
        CsvIndex::build(&path, dialect)
            .unwrap()
            .write_sidecar(&path)
            .unwrap();
        let indexed = IndexedCsv::open(&path, dialect).unwrap();
        for jobs in [1, 2, 8] {
            let err = indexed
                .read_batches_parallel(&types, false, jobs)
                .unwrap_err();
            assert_eq!(err, sequential_err, "jobs={jobs}");
        }
    }

    #[test]
    fn stale_after_append_falls_back() {
        let scratch = Scratch::new("append");
        let path = scratch.file("data.csv", "a,1\nb,2\n");
        let dialect = Dialect::csv();
        CsvIndex::build(&path, dialect)
            .unwrap()
            .write_sidecar(&path)
            .unwrap();
        assert!(IndexedCsv::open(&path, dialect).is_some());
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        writeln!(file, "c,3").unwrap();
        drop(file);
        // the open warns and declines; ingest still sees every record
        assert!(IndexedCsv::open(&path, dialect).is_none());
        let batches =
            ingest_batches(&path, dialect, &[FieldType::Str, FieldType::F64], false, 4).unwrap();
        assert_eq!(batches.iter().map(RecordBatch::rows).sum::<usize>(), 3);
    }

    #[test]
    fn stale_after_rewrite_falls_back() {
        let scratch = Scratch::new("rewrite");
        let path = scratch.file("data.csv", "a,1\nb,2\n");
        let dialect = Dialect::csv();
        CsvIndex::build(&path, dialect)
            .unwrap()
            .write_sidecar(&path)
            .unwrap();
        // same length, different bytes
        std::fs::write(&path, "x,9\ny,8\n").unwrap();
        assert!(IndexedCsv::open(&path, dialect).is_none());
    }

    #[test]
    fn dialect_mismatch_and_corruption_fall_back() {
        let scratch = Scratch::new("mismatch");
        let path = scratch.file("data.csv", "a,1\nb,2\n");
        CsvIndex::build(&path, Dialect::csv())
            .unwrap()
            .write_sidecar(&path)
            .unwrap();
        assert!(IndexedCsv::open(&path, Dialect::csv()).is_some());
        assert!(IndexedCsv::open(&path, Dialect::csv().comment(b'#')).is_none());
        assert!(IndexedCsv::open(&path, Dialect::space_separated()).is_none());
        // truncate the sidecar: unreadable, not a crash
        let sidecar = sidecar_path(&path);
        let bytes = std::fs::read(&sidecar).unwrap();
        std::fs::write(&sidecar, &bytes[..bytes.len() - 3]).unwrap();
        assert!(IndexedCsv::open(&path, Dialect::csv()).is_none());
        // wrong magic
        std::fs::write(&sidecar, b"NOPEnope").unwrap();
        assert!(IndexedCsv::open(&path, Dialect::csv()).is_none());
        // no sidecar at all: silent None
        std::fs::remove_file(&sidecar).unwrap();
        assert!(IndexedCsv::open(&path, Dialect::csv()).is_none());
    }

    #[test]
    fn empty_file_indexes_cleanly() {
        let scratch = Scratch::new("empty");
        let path = scratch.file("data.csv", "# only comments\n\n");
        let dialect = Dialect::csv().comment(b'#');
        let index = CsvIndex::build(&path, dialect).unwrap();
        assert_eq!(index.record_count(), 0);
        index.write_sidecar(&path).unwrap();
        let indexed = IndexedCsv::open(&path, dialect).unwrap();
        assert!(indexed.chunks(4).is_empty());
        assert!(indexed.chunks_of(16).is_empty());
        assert!(indexed
            .read_batches_parallel(&[FieldType::Str], false, 4)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cpus() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }
}
