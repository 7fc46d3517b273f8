//! A small predicate language over table rows.
//!
//! Only the constructs the framework and the attack models need: equality,
//! numeric comparisons, conjunction, disjunction and negation. The paper's
//! subset-deletion attack issues
//! `DELETE FROM R WHERE SSN > lval AND SSN < uval` (§7.2); that maps to
//! [`Predicate::and`] of two [`Predicate::gt`]/[`Predicate::lt`] leaves.

use crate::error::RelationError;
use crate::table::Table;
use crate::value::Value;

/// A boolean predicate over a single row.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// Column equals the value.
    Eq {
        /// Column name.
        column: String,
        /// Value to compare against.
        value: Value,
    },
    /// Column is strictly greater than the value (numeric or lexicographic
    /// for text).
    Gt {
        /// Column name.
        column: String,
        /// Value to compare against.
        value: Value,
    },
    /// Column is strictly less than the value.
    Lt {
        /// Column name.
        column: String,
        /// Value to compare against.
        value: Value,
    },
    /// Both operands hold.
    And(Box<Predicate>, Box<Predicate>),
    /// At least one operand holds.
    Or(Box<Predicate>, Box<Predicate>),
    /// The operand does not hold.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `column = value`
    pub fn eq(column: impl Into<String>, value: Value) -> Self {
        Predicate::Eq { column: column.into(), value }
    }

    /// `column > value`
    pub fn gt(column: impl Into<String>, value: Value) -> Self {
        Predicate::Gt { column: column.into(), value }
    }

    /// `column < value`
    pub fn lt(column: impl Into<String>, value: Value) -> Self {
        Predicate::Lt { column: column.into(), value }
    }

    /// `self AND other`
    pub fn and(self, other: Predicate) -> Self {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`
    pub fn or(self, other: Predicate) -> Self {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Predicate::Not(Box::new(self))
    }

    /// The paper's range-delete condition: `lo < column AND column < hi`.
    pub fn between_exclusive(column: &str, lo: Value, hi: Value) -> Self {
        Predicate::gt(column, lo).and(Predicate::lt(column, hi))
    }

    /// Evaluate against the row at position `row` of `table`.
    ///
    /// # Panics
    ///
    /// If a column the predicate names is present but `row` is out of range.
    pub fn matches(&self, table: &Table, row: usize) -> Result<bool, RelationError> {
        let cell = |column: &str| -> Result<Value, RelationError> {
            Ok(table.columns()[table.schema().index_of(column)?].value(row))
        };
        match self {
            Predicate::True => Ok(true),
            Predicate::Eq { column, value } => Ok(&cell(column)? == value),
            Predicate::Gt { column, value } => {
                Ok(compare(&cell(column)?, value) == std::cmp::Ordering::Greater)
            }
            Predicate::Lt { column, value } => {
                Ok(compare(&cell(column)?, value) == std::cmp::Ordering::Less)
            }
            Predicate::And(a, b) => Ok(a.matches(table, row)? && b.matches(table, row)?),
            Predicate::Or(a, b) => Ok(a.matches(table, row)? || b.matches(table, row)?),
            Predicate::Not(a) => Ok(!a.matches(table, row)?),
        }
    }
}

/// Comparison used by `Gt`/`Lt`: falls back to the total [`Ord`] on values,
/// which orders ints numerically and text lexicographically — exactly what
/// the range-delete attack over SSN strings needs.
fn compare(a: &Value, b: &Value) -> std::cmp::Ordering {
    a.cmp(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnRole, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("ssn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (ssn, age) in [("a100", 30), ("a200", 40), ("a300", 50), ("a400", 60)] {
            t.insert(vec![Value::text(ssn), Value::int(age)]).unwrap();
        }
        t
    }

    #[test]
    fn eq_matches_exact_value() {
        let t = table();
        let hits = t.select(&Predicate::eq("age", Value::int(40))).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn gt_lt_on_numbers() {
        let t = table();
        assert_eq!(t.select(&Predicate::gt("age", Value::int(40))).unwrap().len(), 2);
        assert_eq!(t.select(&Predicate::lt("age", Value::int(40))).unwrap().len(), 1);
    }

    #[test]
    fn range_delete_like_the_paper() {
        let mut t = table();
        // DELETE FROM R WHERE ssn > "a100" AND ssn < "a400"
        let pred = Predicate::between_exclusive("ssn", Value::text("a100"), Value::text("a400"));
        assert_eq!(t.delete_where(&pred).unwrap(), 2);
        let remaining: Vec<String> = t
            .column_values("ssn")
            .unwrap()
            .iter()
            .map(|v| v.as_text().unwrap().to_string())
            .collect();
        assert_eq!(remaining, vec!["a100", "a400"]);
    }

    #[test]
    fn boolean_combinators() {
        let t = table();
        let p = Predicate::eq("age", Value::int(30)).or(Predicate::eq("age", Value::int(60)));
        assert_eq!(t.select(&p).unwrap().len(), 2);
        let p = Predicate::gt("age", Value::int(30)).and(Predicate::lt("age", Value::int(60)));
        assert_eq!(t.select(&p).unwrap().len(), 2);
        let p = Predicate::eq("age", Value::int(30)).not();
        assert_eq!(t.select(&p).unwrap().len(), 3);
        assert_eq!(t.select(&Predicate::True).unwrap().len(), 4);
    }

    #[test]
    fn unknown_column_is_an_error() {
        let t = table();
        assert!(t.select(&Predicate::eq("nope", Value::Null)).is_err());
    }
}
