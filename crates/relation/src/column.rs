//! Typed column storage for the columnar [`Table`](crate::table::Table) core.
//!
//! A column starts life as a dense vector of native `i64`s and is promoted to
//! a dictionary-encoded representation the first time a non-integer value is
//! written into it (a `Null`, a text label, or a generalization interval —
//! exactly what binning and watermarking produce). A dictionary column keeps
//! every distinct [`Value`] once and a dense `u32` code per row, so the hot
//! loops (binning leaf resolution, watermark embed/detect kernels, column
//! statistics) can do per-distinct-value work once and per-row work on plain
//! integer vectors.
//!
//! Deleting rows never rewrites a dictionary: stale entries may linger after
//! deletions or overwrites, so consumers that need the *live* distinct set
//! must count codes present in the rows (see `relation::stats`), not
//! dictionary length.

use crate::value::Value;
use std::collections::hash_map::{Entry, HashMap};

/// A dictionary-encoded column: the distinct values interned once, plus one
/// dense code per row.
#[derive(Debug, Clone, Default)]
pub struct DictColumn {
    dict: Vec<Value>,
    codes: Vec<u32>,
    index: HashMap<Value, u32>,
}

impl DictColumn {
    /// The number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The interned dictionary, indexed by code. May contain entries no row
    /// currently references.
    pub fn dict(&self) -> &[Value] {
        &self.dict
    }

    /// The dense per-row codes, in row order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The value of `row` (a reference into the dictionary).
    pub fn value(&self, row: usize) -> &Value {
        let code = self.codes[row];
        // medlint::allow(checked-framing, u32→usize widens losslessly on every supported target and the code was produced by intern() on this column)
        &self.dict[code as usize]
    }

    /// Intern `value`, returning its code without appending a row. A
    /// dictionary of 2^32 distinct values would need hundreds of gigabytes,
    /// so the code-width saturation below is unreachable in practice.
    pub fn intern(&mut self, value: &Value) -> u32 {
        match self.index.get(value) {
            Some(&code) => code,
            None => self.intern_owned(value.clone()),
        }
    }

    /// [`DictColumn::intern`] for a value the caller owns, so a new entry is
    /// cloned once rather than twice.
    pub(crate) fn intern_owned(&mut self, value: Value) -> u32 {
        match self.index.entry(value) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let code = u32::try_from(self.dict.len()).unwrap_or(u32::MAX);
                self.dict.push(entry.key().clone());
                *entry.insert(code)
            }
        }
    }

    /// Append a row holding an already-interned `code`.
    pub(crate) fn push_code(&mut self, code: u32) {
        self.codes.push(code);
    }

    /// Append a row holding `value`.
    pub fn push(&mut self, value: &Value) {
        let code = self.intern(value);
        self.codes.push(code);
    }

    /// Overwrite `row` with `value`, interning it if new.
    pub fn set(&mut self, row: usize, value: &Value) {
        let code = self.intern(value);
        self.codes[row] = code;
    }

    /// Overwrite `row` with an already-interned `code`. The caller must have
    /// obtained the code from [`DictColumn::intern`] on this column.
    pub fn set_code(&mut self, row: usize, code: u32) {
        self.codes[row] = code;
    }
}

/// One table column: a typed vector of cell values.
#[derive(Debug, Clone)]
pub enum Column {
    /// A column that has only ever held `Value::Int` cells: native `i64`s.
    Int(Vec<i64>),
    /// A dictionary-encoded column (categorical labels, intervals, nulls, or
    /// a formerly-integer column that received a non-integer write).
    Dict(DictColumn),
}

/// A borrowed, typed view of one column's storage, for batch kernels.
#[derive(Debug, Clone, Copy)]
pub enum ColumnData<'a> {
    /// Native integers, one per row.
    Int(&'a [i64]),
    /// Dictionary entries plus dense per-row codes.
    Dict {
        /// The interned distinct values, indexed by code.
        dict: &'a [Value],
        /// One code per row, in row order.
        codes: &'a [u32],
    },
}

impl Column {
    /// A new, empty column. Starts integer-typed and promotes itself on the
    /// first non-integer write.
    pub fn new() -> Self {
        Column::Int(Vec::new())
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Dict(d) => d.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The typed storage view for batch kernels.
    pub fn data(&self) -> ColumnData<'_> {
        match self {
            Column::Int(v) => ColumnData::Int(v),
            Column::Dict(d) => ColumnData::Dict { dict: d.dict(), codes: d.codes() },
        }
    }

    /// The value of `row`, materialized.
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Dict(d) => d.value(row).clone(),
        }
    }

    /// Append a row holding `value`, promoting to dictionary encoding when
    /// the value is not an integer.
    pub fn push(&mut self, value: &Value) {
        match (&mut *self, value) {
            (Column::Int(v), Value::Int(i)) => v.push(*i),
            (Column::Int(_), _) => {
                self.promote().push(value);
            }
            (Column::Dict(d), _) => d.push(value),
        }
    }

    /// Overwrite `row` with `value`, promoting to dictionary encoding when
    /// the value is not an integer.
    pub fn set(&mut self, row: usize, value: &Value) {
        match (&mut *self, value) {
            (Column::Int(v), Value::Int(i)) => v[row] = *i,
            (Column::Int(_), _) => {
                self.promote().set(row, value);
            }
            (Column::Dict(d), _) => d.set(row, value),
        }
    }

    /// Force dictionary encoding and return the dictionary column. Integer
    /// columns are promoted by interning each distinct `i64` once; an
    /// already-promoted column is returned as is.
    pub fn promote(&mut self) -> &mut DictColumn {
        if let Column::Int(v) = self {
            let mut d = DictColumn::default();
            for &i in v.iter() {
                d.push(&Value::Int(i));
            }
            *self = Column::Dict(d);
        }
        match self {
            Column::Dict(d) => d,
            // The branch above replaced any Int variant.
            Column::Int(_) => unreachable!("promote() always installs Column::Dict"),
        }
    }

    /// The dictionary column, if this column is dictionary-encoded.
    pub fn as_dict(&self) -> Option<&DictColumn> {
        match self {
            Column::Dict(d) => Some(d),
            Column::Int(_) => None,
        }
    }

    /// Keep only the rows whose `keep` flag is true. `keep` must have one
    /// entry per row. Dictionary entries are never garbage-collected.
    pub fn retain_rows(&mut self, keep: &[bool]) {
        match self {
            Column::Int(v) => {
                let mut row = 0;
                v.retain(|_| {
                    let k = keep[row];
                    row += 1;
                    k
                });
            }
            Column::Dict(d) => {
                let mut row = 0;
                d.codes.retain(|_| {
                    let k = keep[row];
                    row += 1;
                    k
                });
            }
        }
    }
}

impl Default for Column {
    fn default() -> Self {
        Column::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_stays_native_until_non_int_write() {
        let mut c = Column::new();
        c.push(&Value::int(3));
        c.push(&Value::int(7));
        assert!(matches!(c.data(), ColumnData::Int([3, 7])));
        c.push(&Value::interval(0, 10));
        let ColumnData::Dict { dict, codes } = c.data() else {
            panic!("expected promotion to dictionary encoding");
        };
        assert_eq!(codes.len(), 3);
        assert_eq!(dict[codes[0] as usize], Value::int(3));
        assert_eq!(dict[codes[2] as usize], Value::interval(0, 10));
    }

    #[test]
    fn dictionary_interns_each_distinct_value_once() {
        let mut c = Column::new();
        for v in ["a", "b", "a", "a", "b"] {
            c.push(&Value::text(v));
        }
        let ColumnData::Dict { dict, codes } = c.data() else { panic!("dict expected") };
        assert_eq!(dict.len(), 2);
        assert_eq!(codes, &[0, 1, 0, 0, 1]);
    }

    #[test]
    fn set_promotes_and_preserves_other_rows() {
        let mut c = Column::new();
        c.push(&Value::int(34));
        c.push(&Value::int(61));
        c.set(1, &Value::interval(60, 70));
        assert_eq!(c.value(0), Value::int(34));
        assert_eq!(c.value(1), Value::interval(60, 70));
    }

    #[test]
    fn retain_rows_keeps_flagged_rows_in_order() {
        let mut c = Column::new();
        for i in 0..5 {
            c.push(&Value::int(i));
        }
        c.retain_rows(&[true, false, true, false, true]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(1), Value::int(2));
        let mut d = Column::new();
        for v in ["x", "y", "z"] {
            d.push(&Value::text(v));
        }
        d.retain_rows(&[false, true, true]);
        assert_eq!(d.value(0), Value::text("y"));
        assert_eq!(d.value(1), Value::text("z"));
    }

    #[test]
    fn intern_does_not_append_rows() {
        let mut c = Column::new();
        c.push(&Value::text("a"));
        let d = c.promote();
        let code = d.intern(&Value::text("b"));
        assert_eq!(d.len(), 1);
        d.set_code(0, code);
        assert_eq!(c.value(0), Value::text("b"));
    }
}
