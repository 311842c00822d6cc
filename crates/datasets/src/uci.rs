//! Loader for the **real** UCI Statlog German Credit file.
//!
//! The workspace ships a synthetic stand-in ([`GermanCredit::generate`])
//! so every experiment runs offline, but users who have downloaded the
//! original `german.data` (<https://doi.org/10.24432/C5NC77>) can run
//! the same pipelines on the real records. The Statlog format is one
//! applicant per line, 21 space-separated fields; this loader consumes
//! the four the paper uses:
//!
//! | field (1-based) | attribute | encoding |
//! |---|---|---|
//! | 5  | credit amount (DM) | integer |
//! | 9  | personal status & sex | `A91`/`A93`/`A94` male, `A92`/`A95` female |
//! | 13 | age in years | integer (bucketed at 35, as in the paper) |
//! | 15 | housing | `A151` rent, `A152` own, `A153` free |
//!
//! Ties in credit amount are broken by a deterministic sub-cent jitter
//! (line-number scaled) so the induced ranking is a strict total order,
//! mirroring the synthetic generator's guarantee.

use crate::german_credit::{AgeGroup, GermanCredit, Housing, Record, Sex};
use crate::{DatasetError, Result};
use fairrank_dataset::{CsvReader, Dialect, IndexedCsv, RecordSource, StrRecord};
use std::io::BufRead;

/// Decode one Statlog line into a [`Record`]. Line numbers feed the
/// deterministic tie-break, and indexed chunk readers report true
/// source line numbers — so the chunk-parallel path produces exactly
/// the records the sequential scan does.
fn statlog_record(fields: &StrRecord<'_>) -> Result<Record> {
    let lineno = fields.line() as usize;
    if fields.len() < 15 {
        return Err(DatasetError::Malformed {
            line: lineno,
            what: "expected at least 15 Statlog fields",
        });
    }
    let amount = fields.parse_f64(4)?;
    let sex = match fields.require(8)? {
        "A91" | "A93" | "A94" => Sex::Male,
        "A92" | "A95" => Sex::Female,
        _ => {
            return Err(DatasetError::Malformed {
                line: lineno,
                what: "personal status (field 9) is not A91–A95",
            })
        }
    };
    let age_years = fields.parse_usize(12)?;
    let housing = match fields.require(14)? {
        "A151" => Housing::Rent,
        "A152" => Housing::Own,
        "A153" => Housing::Free,
        _ => {
            return Err(DatasetError::Malformed {
                line: lineno,
                what: "housing (field 15) is not A151–A153",
            })
        }
    };
    Ok(Record {
        age: if age_years < 35 {
            AgeGroup::Under35
        } else {
            AgeGroup::AtLeast35
        },
        sex,
        housing,
        // deterministic tie-break keeps the induced order strict
        credit_amount: amount + (lineno.saturating_sub(1) as f64) * 1e-6,
    })
}

fn finish(records: Vec<Record>) -> Result<GermanCredit> {
    if records.is_empty() {
        return Err(DatasetError::Malformed {
            line: 0,
            what: "no records found",
        });
    }
    Ok(GermanCredit::from_records(records))
}

/// Parse a Statlog `german.data` stream record by record — memory is
/// bounded by one line, not the file.
fn read_statlog<R: BufRead>(src: R) -> Result<GermanCredit> {
    let mut reader = CsvReader::space_separated(src);
    let mut records = Vec::new();
    while let Some(fields) = reader.read_record()? {
        records.push(statlog_record(&fields)?);
    }
    finish(records)
}

/// Read and parse a Statlog file from disk. With a fresh `.frix`
/// sidecar (see `fairrank index --format statlog`) the file is parsed
/// chunk-parallel on up to `jobs` threads (0 = one per CPU) and
/// reassembled in file order; otherwise it streams sequentially. The
/// dataset is identical either way.
pub fn load_statlog_with_jobs(path: &str, jobs: usize) -> Result<GermanCredit> {
    let Some(indexed) = IndexedCsv::open(path, Dialect::space_separated()) else {
        return read_statlog(fairrank_dataset::open_file(path)?);
    };
    // record-level errors come back as chunk values so the
    // lowest-line error wins in chunk order, like the sequential scan
    let per_chunk = indexed.process_chunks(jobs, |_, mut chunk| {
        let mut records = Vec::with_capacity(chunk.remaining());
        loop {
            match chunk.next_record()? {
                None => return Ok(Ok(records)),
                Some(fields) => match statlog_record(&fields) {
                    Ok(record) => records.push(record),
                    Err(e) => return Ok(Err(e)),
                },
            }
        }
    })?;
    let mut records = Vec::with_capacity(indexed.record_count());
    for chunk in per_chunk {
        records.extend(chunk?);
    }
    finish(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse the contents of a Statlog `german.data` file held in
    /// memory.
    fn parse_statlog(content: &str) -> Result<GermanCredit> {
        read_statlog(content.as_bytes())
    }

    // Six syntactically faithful Statlog lines (field values shortened to
    // the ones the loader reads; remaining fields are placeholders).
    const SAMPLE: &str = "\
A11 6 A34 A43 1169 A65 A75 4 A93 A101 4 A121 67 A143 A152 2 A173 1 A192 A201 1
A12 48 A32 A43 5951 A61 A73 2 A92 A101 2 A121 22 A143 A152 1 A173 1 A191 A201 2
A14 12 A34 A46 2096 A61 A74 2 A93 A101 3 A121 49 A143 A152 1 A172 2 A191 A201 1
A11 42 A32 A42 7882 A61 A74 2 A93 A103 4 A122 45 A143 A153 1 A173 2 A191 A201 1
A11 24 A33 A40 4870 A61 A73 3 A93 A101 4 A124 53 A143 A153 2 A173 2 A191 A201 2
A12 36 A32 A46 9055 A65 A73 2 A91 A101 4 A124 35 A143 A151 2 A172 2 A192 A201 1";

    #[test]
    fn parses_sample_records() {
        let data = parse_statlog(SAMPLE).unwrap();
        assert_eq!(data.len(), 6);
        let r = data.records();
        // line 1: male, 67 → ≥35, own, 1169 DM
        assert_eq!(r[0].sex, Sex::Male);
        assert_eq!(r[0].age, AgeGroup::AtLeast35);
        assert_eq!(r[0].housing, Housing::Own);
        assert!((r[0].credit_amount - 1169.0).abs() < 1e-3);
        // line 2: female, 22 → <35, own
        assert_eq!(r[1].sex, Sex::Female);
        assert_eq!(r[1].age, AgeGroup::Under35);
        // line 4: free housing
        assert_eq!(r[3].housing, Housing::Free);
        // line 6: rent, exactly 35 → ≥35 bucket
        assert_eq!(r[5].housing, Housing::Rent);
        assert_eq!(r[5].age, AgeGroup::AtLeast35);
    }

    #[test]
    fn credit_amounts_are_strictly_distinct() {
        // duplicate amounts on different lines stay distinct
        let dup =
            "A11 6 A34 A43 1000 A65 A75 4 A93 A101 4 A121 40 A143 A152 2 A173 1 A192 A201 1\n\
                   A11 6 A34 A43 1000 A65 A75 4 A92 A101 4 A121 30 A143 A151 2 A173 1 A192 A201 1";
        let data = parse_statlog(dup).unwrap();
        let a = data.records()[0].credit_amount;
        let b = data.records()[1].credit_amount;
        assert_ne!(a, b);
    }

    #[test]
    fn group_accessors_work_on_parsed_data() {
        let data = parse_statlog(SAMPLE).unwrap();
        let sex_age = data.sex_age_groups();
        assert_eq!(sex_age.num_groups(), 4);
        let housing = data.housing_groups();
        assert_eq!(housing.num_groups(), 3);
        assert_eq!(housing.group_sizes().iter().sum::<usize>(), 6);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_statlog("A11 6 A34").is_err());
        assert!(parse_statlog("").is_err());
        let bad_sex = SAMPLE.replace("A93 A101 4 A121 67", "A99 A101 4 A121 67");
        assert!(parse_statlog(&bad_sex).is_err());
        let bad_amount = SAMPLE.replacen("1169", "xyz", 1);
        assert!(parse_statlog(&bad_amount).is_err());
        let bad_housing = SAMPLE.replacen("A143 A152 2 A173 1 A192", "A143 A999 2 A173 1 A192", 1);
        assert!(parse_statlog(&bad_housing).is_err());
    }
}
