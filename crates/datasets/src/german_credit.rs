//! Synthetic German Credit dataset (UCI Statlog stand-in).
//!
//! The paper ranks the 1000 German Credit records by `Credit Amount`,
//! treats the combined `Sex-Age` attribute (4 values) as known and
//! evaluates fairness against `Housing` (3 values) as the unknown
//! attribute. Table I fixes the full joint distribution of those two
//! attributes; this module regenerates records matching that table
//! cell-for-cell and draws credit amounts from a log-normal calibrated
//! to the published summary statistics of the real attribute
//! (median ≈ 2320 DM, mean ≈ 3271 DM, range [250, 18424]).

use crate::{DatasetError, Result};
use eval_stats::NormalSampler;
use fairness_metrics::GroupAssignment;
use fairrank_dataset::{ingest_batches, Dialect, FieldType, RecordBatch};
use rand::seq::SliceRandom;
use rand::Rng;

/// Age bucket of the paper's combined attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgeGroup {
    /// Strictly younger than 35.
    Under35,
    /// 35 or older.
    AtLeast35,
}

/// Sex as recorded in the Statlog encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sex {
    /// Female.
    Female,
    /// Male.
    Male,
}

/// Housing status — the paper's *unknown* protected attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Housing {
    /// Living for free.
    Free,
    /// Owner.
    Own,
    /// Renting.
    Rent,
}

impl Housing {
    /// Dense group id (0 = free, 1 = own, 2 = rent).
    fn group_id(self) -> usize {
        match self {
            Housing::Free => 0,
            Housing::Own => 1,
            Housing::Rent => 2,
        }
    }
}

/// One synthetic credit applicant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Age bucket.
    pub age: AgeGroup,
    /// Sex.
    pub sex: Sex,
    /// Housing status.
    pub housing: Housing,
    /// Credit amount in DM — the ranking score.
    pub credit_amount: f64,
}

impl Record {
    /// Combined Sex-Age group id, ordered as Table I's rows:
    /// 0 = `<35 female`, 1 = `<35 male`, 2 = `≥35 female`, 3 = `≥35 male`.
    fn sex_age_group(&self) -> usize {
        match (self.age, self.sex) {
            (AgeGroup::Under35, Sex::Female) => 0,
            (AgeGroup::Under35, Sex::Male) => 1,
            (AgeGroup::AtLeast35, Sex::Female) => 2,
            (AgeGroup::AtLeast35, Sex::Male) => 3,
        }
    }
}

/// Table I of the paper: counts per (Age-Sex row, Housing column).
/// Rows: `<35 f`, `<35 m`, `≥35 f`, `≥35 m`; columns: free, own, rent.
pub const TABLE_I: [[usize; 3]; 4] = [[2, 131, 80], [23, 261, 51], [17, 65, 15], [66, 256, 33]];

/// Log-normal location for credit amounts (`exp(μ)` ≈ 2320 DM median).
const LN_AMOUNT_MU: f64 = 7.75;
/// Log-normal scale for credit amounts (matches mean ≈ 3271 DM).
const LN_AMOUNT_SIGMA: f64 = 0.83;
/// Clip range of the real attribute.
const AMOUNT_RANGE: (f64, f64) = (250.0, 18424.0);

/// The synthetic dataset: 1000 records with Table I's exact joint
/// distribution.
#[derive(Debug, Clone)]
pub struct GermanCredit {
    records: Vec<Record>,
}

impl GermanCredit {
    /// Generate the dataset. Record order and credit amounts depend on
    /// the RNG; the joint attribute distribution never does. Credit
    /// amounts are jittered to be pairwise distinct so the induced
    /// ranking is a strict total order (as with the real data).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut sampler = NormalSampler::new(LN_AMOUNT_MU, LN_AMOUNT_SIGMA);
        let mut records = Vec::with_capacity(1000);
        let rows = [
            (AgeGroup::Under35, Sex::Female),
            (AgeGroup::Under35, Sex::Male),
            (AgeGroup::AtLeast35, Sex::Female),
            (AgeGroup::AtLeast35, Sex::Male),
        ];
        let cols = [Housing::Free, Housing::Own, Housing::Rent];
        for (row, &(age, sex)) in rows.iter().enumerate() {
            for (col, &housing) in cols.iter().enumerate() {
                for _ in 0..TABLE_I[row][col] {
                    let raw = sampler.sample_lognormal(rng);
                    let amount =
                        raw.clamp(AMOUNT_RANGE.0, AMOUNT_RANGE.1) + rng.random::<f64>() * 1e-3; // strict total order
                    records.push(Record {
                        age,
                        sex,
                        housing,
                        credit_amount: amount,
                    });
                }
            }
        }
        records.shuffle(rng);
        GermanCredit { records }
    }

    /// Build directly from records (used by the UCI loader; the
    /// synthetic generator is [`GermanCredit::generate`]).
    pub fn from_records(records: Vec<Record>) -> Self {
        GermanCredit { records }
    }

    /// All records.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Number of records (1000 for the synthetic generator).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are present (possible only via
    /// [`GermanCredit::from_records`]).
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Ranking scores: the credit amounts.
    pub fn credit_amounts(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.credit_amount).collect()
    }

    /// The known protected attribute: combined Sex-Age (4 groups, in
    /// Table I row order).
    pub fn sex_age_groups(&self) -> GroupAssignment {
        GroupAssignment::new(self.records.iter().map(Record::sex_age_group).collect(), 4)
            .expect("group ids < 4 by construction")
    }

    /// The unknown protected attribute: Housing (3 groups: free, own,
    /// rent).
    pub fn housing_groups(&self) -> GroupAssignment {
        GroupAssignment::new(
            self.records.iter().map(|r| r.housing.group_id()).collect(),
            3,
        )
        .expect("group ids < 3 by construction")
    }

    /// Recompute Table I from the records (used to print the paper's
    /// Table I and by tests to assert exactness).
    pub fn table_i(&self) -> [[usize; 3]; 4] {
        let mut t = [[0usize; 3]; 4];
        for r in &self.records {
            t[r.sex_age_group()][r.housing.group_id()] += 1;
        }
        t
    }

    /// Draw `n` distinct record indices uniformly (the per-repetition
    /// subsampling used for the size sweeps of Figs. 5–7).
    pub fn sample_indices<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.records.len()).collect();
        idx.shuffle(rng);
        idx.truncate(n.min(self.records.len()));
        idx
    }

    /// Render the records as `age,sex,housing,credit_amount` CSV (the
    /// workspace's interchange form; [`GermanCredit::load_csv_with_jobs`]
    /// reads it back).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("age,sex,housing,credit_amount\n");
        for r in &self.records {
            let age = match r.age {
                AgeGroup::Under35 => "under35",
                AgeGroup::AtLeast35 => "atleast35",
            };
            let sex = match r.sex {
                Sex::Female => "female",
                Sex::Male => "male",
            };
            let housing = match r.housing {
                Housing::Free => "free",
                Housing::Own => "own",
                Housing::Rent => "rent",
            };
            out.push_str(&format!("{age},{sex},{housing},{}\n", r.credit_amount));
        }
        out
    }

    /// The interchange-CSV schema: `age,sex,housing,credit_amount`.
    /// The three attribute columns are dictionary-encoded — each has a
    /// handful of distinct labels, so decoding allocates per label per
    /// batch, not per row.
    fn csv_schema() -> [FieldType; 4] {
        [
            FieldType::Category,
            FieldType::Category,
            FieldType::Category,
            FieldType::F64,
        ]
    }

    /// Convert one decoded batch's rows into [`Record`]s. Each
    /// dictionary label is validated once per batch; rows then map
    /// through the per-batch code table. A bad label is reported with
    /// the line of its first occurrence — the same line the row-by-row
    /// scan would have flagged.
    fn records_from_batch(batch: &RecordBatch, records: &mut Vec<Record>) -> Result<()> {
        fn decode_labels<'a, T: Copy>(
            batch: &'a RecordBatch,
            column: usize,
            decode: impl Fn(&str) -> Option<T>,
            what: &'static str,
        ) -> Result<(Vec<T>, &'a [u32])> {
            let dict = batch.column(column).as_category().expect("schema column");
            let decoded: Vec<T> = dict
                .labels()
                .iter()
                .enumerate()
                .map(|(code, label)| {
                    decode(&label.to_ascii_lowercase()).ok_or_else(|| {
                        let row = dict
                            .codes()
                            .iter()
                            .position(|&c| c as usize == code)
                            .expect("every dictionary label has a row");
                        DatasetError::Malformed {
                            line: batch.line(row) as usize,
                            what,
                        }
                    })
                })
                .collect::<Result<_>>()?;
            Ok((decoded, dict.codes()))
        }
        let (ages, age_codes) = decode_labels(
            batch,
            0,
            |label| match label {
                "under35" | "<35" => Some(AgeGroup::Under35),
                "atleast35" | ">=35" => Some(AgeGroup::AtLeast35),
                _ => None,
            },
            "age must be `under35` or `atleast35`",
        )?;
        let (sexes, sex_codes) = decode_labels(
            batch,
            1,
            |label| match label {
                "female" | "f" => Some(Sex::Female),
                "male" | "m" => Some(Sex::Male),
                _ => None,
            },
            "sex must be `female` or `male`",
        )?;
        let (housings, housing_codes) = decode_labels(
            batch,
            2,
            |label| match label {
                "free" => Some(Housing::Free),
                "own" => Some(Housing::Own),
                "rent" => Some(Housing::Rent),
                _ => None,
            },
            "housing must be `free`, `own` or `rent`",
        )?;
        let amounts = batch.column(3).as_f64().expect("schema column 3");
        records.reserve(batch.rows());
        for row in 0..batch.rows() {
            records.push(Record {
                age: ages[age_codes[row] as usize],
                sex: sexes[sex_codes[row] as usize],
                housing: housings[housing_codes[row] as usize],
                credit_amount: amounts[row],
            });
        }
        Ok(())
    }

    fn from_record_batches(batches: &[RecordBatch]) -> Result<GermanCredit> {
        let mut records = Vec::with_capacity(batches.iter().map(RecordBatch::rows).sum());
        for batch in batches {
            Self::records_from_batch(batch, &mut records)?;
        }
        if records.is_empty() {
            return Err(DatasetError::Malformed {
                line: 0,
                what: "no records found",
            });
        }
        Ok(GermanCredit { records })
    }

    /// Load the interchange CSV from disk. With a fresh `.frix`
    /// sidecar (see `fairrank index`) the file is decoded
    /// chunk-parallel on up to `jobs` threads (0 = one per CPU);
    /// otherwise it streams sequentially. The dataset is identical
    /// either way.
    pub fn load_csv_with_jobs(path: &str, jobs: usize) -> Result<GermanCredit> {
        let dialect = Dialect::csv().comment(b'#');
        let batches = ingest_batches(path, dialect, &Self::csv_schema(), true, jobs)?;
        Self::from_record_batches(&batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairrank_dataset::{BatchDecoder, CsvReader};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::io::BufRead;

    /// Stream `age,sex,housing,credit_amount` CSV back into a dataset
    /// through the shared typed-batch decoder — bounded memory, exact
    /// per-line errors, header row optional.
    fn read_csv<R: BufRead>(src: R) -> Result<GermanCredit> {
        let mut reader = CsvReader::new(src).comment(b'#');
        let mut decoder = BatchDecoder::new(GermanCredit::csv_schema().to_vec()).sniff_header(true);
        let mut records = Vec::new();
        let mut any = false;
        while let Some(batch) = decoder.read_batch(&mut reader, 4096)? {
            any = true;
            GermanCredit::records_from_batch(&batch, &mut records)?;
        }
        if !any || records.is_empty() {
            return Err(DatasetError::Malformed {
                line: 0,
                what: "no records found",
            });
        }
        Ok(GermanCredit { records })
    }

    fn data(seed: u64) -> GermanCredit {
        GermanCredit::generate(&mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn has_1000_records() {
        assert_eq!(data(1).len(), 1000);
    }

    #[test]
    fn joint_distribution_matches_table_i_exactly() {
        assert_eq!(data(2).table_i(), TABLE_I);
    }

    #[test]
    fn marginals_match_paper_totals() {
        let d = data(3);
        let housing = d.housing_groups().group_sizes();
        assert_eq!(housing, vec![108, 713, 179]);
        let sexage = d.sex_age_groups().group_sizes();
        assert_eq!(sexage, vec![213, 335, 97, 355]);
    }

    #[test]
    fn credit_amounts_within_real_range() {
        let d = data(4);
        for r in d.records() {
            assert!(r.credit_amount >= AMOUNT_RANGE.0);
            assert!(r.credit_amount <= AMOUNT_RANGE.1 + 1.0);
        }
    }

    #[test]
    fn credit_amounts_are_distinct() {
        let d = data(5);
        let mut amounts = d.credit_amounts();
        amounts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in amounts.windows(2) {
            assert!(w[0] < w[1], "tied credit amounts break the total order");
        }
    }

    #[test]
    fn median_amount_plausible() {
        let d = data(6);
        let m = eval_stats::stats::median(&d.credit_amounts());
        // real attribute median ≈ 2320 DM; allow generous tolerance
        assert!((1500.0..3500.0).contains(&m), "median {m}");
    }

    #[test]
    fn distribution_is_seed_invariant() {
        assert_eq!(data(7).table_i(), data(8).table_i());
    }

    #[test]
    fn sample_indices_are_distinct() {
        let d = data(9);
        let mut rng = StdRng::seed_from_u64(10);
        let idx = d.sample_indices(100, &mut rng);
        assert_eq!(idx.len(), 100);
        let set: std::collections::HashSet<_> = idx.iter().collect();
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn sample_indices_clamped_to_population() {
        let d = data(11);
        let mut rng = StdRng::seed_from_u64(12);
        assert_eq!(d.sample_indices(5000, &mut rng).len(), 1000);
    }

    #[test]
    fn csv_round_trip_preserves_records() {
        let d = data(15);
        let csv = d.to_csv();
        assert!(csv.starts_with("age,sex,housing,credit_amount\n"));
        let back = read_csv(csv.as_bytes()).unwrap();
        assert_eq!(back.len(), d.len());
        assert_eq!(back.table_i(), d.table_i());
        for (a, b) in d.records().iter().zip(back.records()) {
            assert_eq!(a.sex_age_group(), b.sex_age_group());
            assert_eq!(a.housing, b.housing);
            assert!((a.credit_amount - b.credit_amount).abs() < 1e-9);
        }
    }

    #[test]
    fn csv_reader_rejects_bad_rows_with_line_numbers() {
        let bad = "age,sex,housing,credit_amount\nunder35,female,own,100\nunder35,alien,own,5\n";
        let err = read_csv(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        let bad_amount = "under35,female,own,100\nunder35,female,own,not-a-number\n";
        let err = read_csv(bad_amount.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(read_csv(b"" as &[u8]).is_err());
        assert!(GermanCredit::load_csv_with_jobs("/nonexistent.csv", 0).is_err());
    }

    #[test]
    fn subset_groups_are_consistent_with_records() {
        let d = data(13);
        let mut rng = StdRng::seed_from_u64(14);
        let idx = d.sample_indices(50, &mut rng);
        let sub = d.sex_age_groups().subset(&idx);
        for (i, &orig) in idx.iter().enumerate() {
            assert_eq!(sub.group_of(i), d.records()[orig].sex_age_group());
        }
    }
}
