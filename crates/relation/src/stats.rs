//! Per-column and per-bin statistics, computed in one pass over the typed
//! columns.
//!
//! The k-anonymity view of a binned table is "records containing the same
//! value constitute a bin, and the size of every bin is at least k" (§2).
//! These helpers compute value frequencies per column and bin sizes over the
//! full quasi-identifier combination, which the metrics crate turns into
//! information-loss figures, k-anonymity checks and the Fig. 14 statistics.
//!
//! With the columnar table core, frequency and distinct counts read the
//! typed storage directly: integer columns are scanned as native `i64`s and
//! dictionary columns count *codes* (one `u32` compare per row), touching the
//! actual [`Value`]s only once per distinct entry. In particular
//! distinct-counting is a single pass — the previous implementation built the
//! full frequency map and then took its length, scanning the column's values
//! twice.

use crate::column::ColumnData;
use crate::error::RelationError;
use crate::table::Table;
use crate::value::Value;
use std::collections::{BTreeMap, HashSet};

/// Frequency of each distinct value in one column.
///
/// Returned as a `BTreeMap` so iteration order is deterministic, which keeps
/// reports and tests stable. Dictionary columns are counted by code — one
/// integer increment per row — and each distinct value is cloned exactly
/// once.
pub fn value_counts(table: &Table, column: &str) -> Result<BTreeMap<Value, usize>, RelationError> {
    let idx = table.schema().index_of(column)?;
    let mut counts = BTreeMap::new();
    match table.columns()[idx].data() {
        ColumnData::Int(values) => {
            for &v in values {
                *counts.entry(Value::Int(v)).or_insert(0) += 1;
            }
        }
        ColumnData::Dict { dict, codes } => {
            let mut per_code = vec![0usize; dict.len()];
            for &code in codes {
                per_code[code as usize] += 1;
            }
            for (code, &count) in per_code.iter().enumerate() {
                if count > 0 {
                    counts.insert(dict[code].clone(), count);
                }
            }
        }
    }
    Ok(counts)
}

/// Number of distinct values in one column, in a single pass over the rows.
///
/// Stale dictionary entries (left behind by overwrites or deletions) are not
/// counted: only codes actually present in the rows contribute.
pub fn distinct_count(table: &Table, column: &str) -> Result<usize, RelationError> {
    Ok(column_stats(table, column)?.distinct)
}

/// Min, max and distinct count of one column, computed in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Smallest value under the total [`Value`] order, `None` when empty.
    pub min: Option<Value>,
    /// Largest value under the total [`Value`] order, `None` when empty.
    pub max: Option<Value>,
    /// Number of distinct values among the rows.
    pub distinct: usize,
}

/// Compute [`ColumnStats`] for one column in a single pass over the rows.
///
/// Integer columns scan the native `i64` vector; dictionary columns mark a
/// per-code presence bitmap (one index per row) and then reduce over the
/// distinct entries only.
pub fn column_stats(table: &Table, column: &str) -> Result<ColumnStats, RelationError> {
    let idx = table.schema().index_of(column)?;
    match table.columns()[idx].data() {
        ColumnData::Int(values) => {
            let mut seen = HashSet::with_capacity(values.len());
            let mut min = None;
            let mut max = None;
            for &v in values {
                seen.insert(v);
                min = Some(min.map_or(v, |m: i64| m.min(v)));
                max = Some(max.map_or(v, |m: i64| m.max(v)));
            }
            Ok(ColumnStats {
                min: min.map(Value::Int),
                max: max.map(Value::Int),
                distinct: seen.len(),
            })
        }
        ColumnData::Dict { dict, codes } => {
            let mut present = vec![false; dict.len()];
            for &code in codes {
                present[code as usize] = true;
            }
            let mut distinct = 0;
            let mut min: Option<&Value> = None;
            let mut max: Option<&Value> = None;
            for (code, &p) in present.iter().enumerate() {
                if !p {
                    continue;
                }
                distinct += 1;
                let v = &dict[code];
                min = Some(min.map_or(v, |m| m.min(v)));
                max = Some(max.map_or(v, |m| m.max(v)));
            }
            Ok(ColumnStats { min: min.cloned(), max: max.cloned(), distinct })
        }
    }
}

/// Bin sizes over a combination of columns: every distinct tuple of values in
/// `columns` is one bin; the map value is the number of records in the bin.
pub fn bin_sizes(
    table: &Table,
    columns: &[&str],
) -> Result<BTreeMap<Vec<Value>, usize>, RelationError> {
    let indices: Vec<usize> =
        columns.iter().map(|c| table.schema().index_of(c)).collect::<Result<_, _>>()?;
    let mut bins = BTreeMap::new();
    for row in 0..table.len() {
        let key: Vec<Value> = indices.iter().map(|&i| table.columns()[i].value(row)).collect();
        *bins.entry(key).or_insert(0) += 1;
    }
    Ok(bins)
}

/// Bin sizes over all quasi-identifying columns of the table's schema.
pub fn quasi_bin_sizes(table: &Table) -> Result<BTreeMap<Vec<Value>, usize>, RelationError> {
    let names = table.schema().quasi_names();
    bin_sizes(table, &names)
}

/// The size of the smallest bin over `columns`, or `None` for an empty table.
pub fn min_bin_size(table: &Table, columns: &[&str]) -> Result<Option<usize>, RelationError> {
    Ok(bin_sizes(table, columns)?.values().copied().min())
}

/// Mean of the integer values in a column, ignoring non-integers.
/// Used by the rightful-ownership protocol, which derives the owner's mark
/// from a statistic of the clear-text identifying column (§5.4).
pub fn numeric_mean(table: &Table, column: &str) -> Result<Option<f64>, RelationError> {
    let idx = table.schema().index_of(column)?;
    let (sum, count) = match table.columns()[idx].data() {
        ColumnData::Int(values) => (values.iter().map(|&v| v as f64).sum::<f64>(), values.len()),
        ColumnData::Dict { dict, codes } => {
            // Resolve each distinct entry once; per-row work is a lookup.
            let per_code: Vec<Option<i64>> = dict.iter().map(Value::as_int).collect();
            let mut sum = 0.0;
            let mut count = 0usize;
            for &code in codes {
                if let Some(v) = per_code[code as usize] {
                    sum += v as f64;
                    count += 1;
                }
            }
            (sum, count)
        }
    };
    if count == 0 {
        return Ok(None);
    }
    Ok(Some(sum / count as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnRole, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let rows = [
            (1, 30, "Surgeon"),
            (2, 30, "Surgeon"),
            (3, 30, "Nurse"),
            (4, 40, "Nurse"),
            (5, 40, "Nurse"),
        ];
        for (id, age, doc) in rows {
            t.insert(vec![Value::int(id), Value::int(age), Value::text(doc)]).unwrap();
        }
        t
    }

    #[test]
    fn value_counts_per_column() {
        let t = table();
        let counts = value_counts(&t, "doctor").unwrap();
        assert_eq!(counts[&Value::text("Surgeon")], 2);
        assert_eq!(counts[&Value::text("Nurse")], 3);
        assert_eq!(distinct_count(&t, "age").unwrap(), 2);
        assert!(value_counts(&t, "missing").is_err());
    }

    #[test]
    fn column_stats_single_pass() {
        let t = table();
        assert_eq!(
            column_stats(&t, "age").unwrap(),
            ColumnStats { min: Some(Value::int(30)), max: Some(Value::int(40)), distinct: 2 }
        );
        assert_eq!(
            column_stats(&t, "doctor").unwrap(),
            ColumnStats {
                min: Some(Value::text("Nurse")),
                max: Some(Value::text("Surgeon")),
                distinct: 2
            }
        );
        let empty = Table::new(Schema::medical_example());
        assert_eq!(
            column_stats(&empty, "age").unwrap(),
            ColumnStats { min: None, max: None, distinct: 0 }
        );
        assert!(column_stats(&t, "missing").is_err());
    }

    #[test]
    fn distinct_count_ignores_stale_dictionary_entries() {
        // Overwriting the only "Surgeon" rows leaves the entry interned but
        // unreferenced; the live distinct count must not include it.
        let mut t = table();
        let doctor = t.schema().index_of("doctor").unwrap();
        for row in [0, 1] {
            t.column_mut(doctor).unwrap().set(row, &Value::text("Nurse"));
        }
        assert_eq!(distinct_count(&t, "doctor").unwrap(), 1);
        let counts = value_counts(&t, "doctor").unwrap();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[&Value::text("Nurse")], 5);
    }

    #[test]
    fn bin_sizes_over_combination() {
        let t = table();
        let bins = bin_sizes(&t, &["age", "doctor"]).unwrap();
        assert_eq!(bins.len(), 3);
        assert_eq!(bins[&vec![Value::int(30), Value::text("Surgeon")]], 2);
        assert_eq!(bins[&vec![Value::int(30), Value::text("Nurse")]], 1);
        assert_eq!(bins[&vec![Value::int(40), Value::text("Nurse")]], 2);
        assert_eq!(min_bin_size(&t, &["age", "doctor"]).unwrap(), Some(1));
    }

    #[test]
    fn quasi_bin_sizes_uses_schema_roles() {
        let t = table();
        let bins = quasi_bin_sizes(&t).unwrap();
        // quasi columns are age and doctor → same as the explicit call.
        assert_eq!(bins, bin_sizes(&t, &["age", "doctor"]).unwrap());
    }

    #[test]
    fn min_bin_size_empty_table() {
        let t = Table::new(Schema::medical_example());
        assert_eq!(min_bin_size(&t, &["age"]).unwrap(), None);
    }

    #[test]
    fn numeric_mean_ignores_text() {
        let t = table();
        assert_eq!(numeric_mean(&t, "id").unwrap(), Some(3.0));
        assert_eq!(numeric_mean(&t, "doctor").unwrap(), None);
    }

    #[test]
    fn numeric_mean_over_mixed_dictionary_column() {
        // A promoted column mixing ints and intervals averages the ints only.
        let mut t = table();
        let age = t.schema().index_of("age").unwrap();
        t.column_mut(age).unwrap().set(0, &Value::interval(30, 40));
        assert_eq!(numeric_mean(&t, "age").unwrap(), Some((30 + 30 + 40 + 40) as f64 / 4.0));
    }
}
