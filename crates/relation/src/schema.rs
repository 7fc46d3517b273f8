//! Schemas with privacy roles.
//!
//! The paper classifies columns into identifying, quasi-identifying and
//! other columns (§2); the quasi-identifying columns further split into
//! categorical ones (generalized along a domain hierarchy tree) and numeric
//! ones (generalized along a binary interval tree). The schema records that
//! classification so the binning and watermarking agents can find their
//! targets without extra configuration.

use crate::error::RelationError;

/// Privacy classification of a column (§2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnRole {
    /// Explicitly identifies an individual (e.g. SSN, name). Encrypted by the
    /// binning algorithm (Fig. 8) rather than suppressed, to keep records
    /// traceable to the data holder.
    Identifying,
    /// Quasi-identifying categorical column generalized along a categorical
    /// domain hierarchy tree (e.g. doctor, symptom, prescription).
    QuasiCategorical,
    /// Quasi-identifying numeric column generalized along a binary interval
    /// tree (e.g. age, zip code).
    QuasiNumeric,
    /// Carries no identifying information; left untouched.
    NonIdentifying,
}

impl ColumnRole {
    /// True for either quasi-identifying role.
    pub fn is_quasi(&self) -> bool {
        matches!(self, ColumnRole::QuasiCategorical | ColumnRole::QuasiNumeric)
    }

    /// True for the identifying role.
    pub fn is_identifying(&self) -> bool {
        matches!(self, ColumnRole::Identifying)
    }
}

/// A named, role-annotated column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within a schema).
    pub name: String,
    /// Privacy role.
    pub role: ColumnRole,
}

impl ColumnDef {
    /// Create a column definition.
    pub fn new(name: impl Into<String>, role: ColumnRole) -> Self {
        ColumnDef { name: name.into(), role }
    }
}

/// An ordered list of columns with unique names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema, rejecting duplicate column names.
    pub fn new(columns: Vec<ColumnDef>) -> Result<Self, RelationError> {
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.clone()) {
                return Err(RelationError::DuplicateColumn(c.name.clone()));
            }
        }
        Ok(Schema { columns })
    }

    /// The schema of the paper's running example:
    /// `R(ssn, age, zip_code, doctor, symptom, prescription)` with `ssn`
    /// identifying, `age`/`zip_code` numeric quasi-identifiers and the rest
    /// categorical quasi-identifiers.
    pub fn medical_example() -> Self {
        Schema::new(vec![
            ColumnDef::new("ssn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("zip_code", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
            ColumnDef::new("symptom", ColumnRole::QuasiCategorical),
            ColumnDef::new("prescription", ColumnRole::QuasiCategorical),
        ])
        .expect("example schema has unique column names")
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All column definitions in order.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize, RelationError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelationError::UnknownColumn(name.to_string()))
    }

    /// The column definition at `index`, if any.
    pub fn column(&self, index: usize) -> Option<&ColumnDef> {
        self.columns.get(index)
    }

    /// The column definition named `name`.
    pub fn column_by_name(&self, name: &str) -> Result<&ColumnDef, RelationError> {
        let idx = self.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// Indices of all identifying columns.
    pub fn identifying_indices(&self) -> Vec<usize> {
        self.indices_with(ColumnRole::is_identifying)
    }

    /// Indices of all quasi-identifying columns (categorical and numeric).
    pub fn quasi_indices(&self) -> Vec<usize> {
        self.indices_with(ColumnRole::is_quasi)
    }

    /// Names of all quasi-identifying columns, in schema order.
    pub fn quasi_names(&self) -> Vec<&str> {
        self.columns.iter().filter(|c| c.role.is_quasi()).map(|c| c.name.as_str()).collect()
    }

    /// Indices of columns matching a role predicate.
    fn indices_with(&self, pred: impl Fn(&ColumnRole) -> bool) -> Vec<usize> {
        self.columns.iter().enumerate().filter(|(_, c)| pred(&c.role)).map(|(i, _)| i).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medical_example_shape() {
        let s = Schema::medical_example();
        assert_eq!(s.arity(), 6);
        assert_eq!(s.identifying_indices(), vec![0]);
        assert_eq!(s.quasi_indices(), vec![1, 2, 3, 4, 5]);
        assert_eq!(s.quasi_names(), vec!["age", "zip_code", "doctor", "symptom", "prescription"]);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(vec![
            ColumnDef::new("a", ColumnRole::NonIdentifying),
            ColumnDef::new("a", ColumnRole::Identifying),
        ])
        .unwrap_err();
        assert_eq!(err, RelationError::DuplicateColumn("a".into()));
    }

    #[test]
    fn index_lookup() {
        let s = Schema::medical_example();
        assert_eq!(s.index_of("age").unwrap(), 1);
        assert_eq!(s.index_of("prescription").unwrap(), 5);
        assert!(matches!(s.index_of("missing"), Err(RelationError::UnknownColumn(_))));
        assert_eq!(s.column(3).unwrap().name, "doctor");
        assert!(s.column(99).is_none());
        assert_eq!(s.column_by_name("ssn").unwrap().role, ColumnRole::Identifying);
    }

    #[test]
    fn role_predicates() {
        assert!(ColumnRole::QuasiNumeric.is_quasi());
        assert!(ColumnRole::QuasiCategorical.is_quasi());
        assert!(!ColumnRole::Identifying.is_quasi());
        assert!(ColumnRole::Identifying.is_identifying());
        assert!(!ColumnRole::NonIdentifying.is_identifying());
    }
}
