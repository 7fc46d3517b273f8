//! Usage metrics in bound form (Eq. 4) and their evaluation.
//!
//! ```text
//! InfLoss_i ≤ bd_i   for every generalized column i
//! InfLoss   ≤ bd_avg
//! ```
//!
//! The paper enforces these bounds *off-line*, translating them once into a
//! set of maximal generalization nodes per tree (that translation lives in
//! `medshield-binning::maximal`). The bound form is still useful to verify a
//! finished binning/watermarking run and is what the Fig. 13 experiment
//! reports against.

use crate::info_loss::{column_info_loss, ColumnGeneralization, MetricsError};
use medshield_relation::Table;
use std::collections::BTreeMap;

/// Maximal allowable information loss, per column and on average (Eq. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct UsageBounds {
    /// Per-column bounds `bd_i`, keyed by column name. Columns without an
    /// entry are bounded only by `bd_avg`.
    pub per_column: BTreeMap<String, f64>,
    /// Bound on the normalized (average) information loss `bd_avg`.
    pub average: f64,
}

impl UsageBounds {
    /// Uniform bounds: the same `bound` for every listed column and for the
    /// average.
    pub fn uniform(columns: &[&str], bound: f64) -> Self {
        UsageBounds {
            per_column: columns.iter().map(|c| (c.to_string(), bound)).collect(),
            average: bound,
        }
    }

    /// Unconstrained metrics (every loss allowed) — useful in tests and when
    /// the maximal generalization nodes are given directly, which is the
    /// simplification the paper's own experiments make (§7).
    pub fn unconstrained() -> Self {
        UsageBounds { per_column: BTreeMap::new(), average: 1.0 }
    }

    /// The bound for a column, defaulting to the average bound.
    pub fn bound_for(&self, column: &str) -> f64 {
        *self.per_column.get(column).unwrap_or(&self.average)
    }

    /// Evaluate the bounds against a table and its per-column
    /// generalizations. Returns a full per-column report.
    pub fn check(
        &self,
        table: &Table,
        columns: &[ColumnGeneralization<'_>],
    ) -> Result<UsageCheck, MetricsError> {
        let mut per_column = BTreeMap::new();
        let mut sum = 0.0;
        for cg in columns {
            let loss = column_info_loss(table, cg)?;
            sum += loss;
            let bound = self.bound_for(cg.column);
            per_column.insert(
                cg.column.to_string(),
                ColumnCheck { loss, bound, ok: loss <= bound + EPS },
            );
        }
        let average_loss = if columns.is_empty() { 0.0 } else { sum / columns.len() as f64 };
        Ok(UsageCheck {
            per_column,
            average_loss,
            average_bound: self.average,
            average_ok: average_loss <= self.average + EPS,
        })
    }
}

/// Numerical slack for bound comparisons.
const EPS: f64 = 1e-9;

/// Loss vs bound for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnCheck {
    /// Measured information loss.
    pub loss: f64,
    /// The applicable bound.
    pub bound: f64,
    /// `loss ≤ bound`.
    pub ok: bool,
}

/// Result of evaluating [`UsageBounds`] over a table.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageCheck {
    /// Per-column results.
    pub per_column: BTreeMap<String, ColumnCheck>,
    /// Measured normalized loss (Eq. 3).
    pub average_loss: f64,
    /// The average bound.
    pub average_bound: f64,
    /// `average_loss ≤ average_bound`.
    pub average_ok: bool,
}

impl UsageCheck {
    /// True when every per-column bound and the average bound hold.
    pub fn all_ok(&self) -> bool {
        self.average_ok && self.per_column.values().all(|c| c.ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info_loss::ColumnGeneralization;
    use medshield_dht::builder::CategoricalNodeSpec;
    use medshield_dht::GeneralizationSet;
    use medshield_relation::{ColumnDef, ColumnRole, Schema, Value};

    fn tree() -> medshield_dht::DomainHierarchyTree {
        CategoricalNodeSpec::internal(
            "root",
            vec![
                CategoricalNodeSpec::internal(
                    "left",
                    vec![CategoricalNodeSpec::leaf("a"), CategoricalNodeSpec::leaf("b")],
                ),
                CategoricalNodeSpec::internal(
                    "right",
                    vec![CategoricalNodeSpec::leaf("c"), CategoricalNodeSpec::leaf("d")],
                ),
            ],
        )
        .build("col")
        .unwrap()
    }

    fn table() -> Table {
        let schema =
            Schema::new(vec![ColumnDef::new("col", ColumnRole::QuasiCategorical)]).unwrap();
        let mut t = Table::new(schema);
        for v in ["a", "b", "c", "d"] {
            t.insert(vec![Value::text(v)]).unwrap();
        }
        t
    }

    #[test]
    fn bound_for_falls_back_to_average() {
        let b = UsageBounds::uniform(&["x"], 0.3);
        assert_eq!(b.bound_for("x"), 0.3);
        assert_eq!(b.bound_for("unlisted"), 0.3);
        let u = UsageBounds::unconstrained();
        assert_eq!(u.bound_for("anything"), 1.0);
    }

    #[test]
    fn check_passes_within_bounds() {
        let tr = tree();
        let t = table();
        let left = tr.node_by_label("left").unwrap();
        let right = tr.node_by_label("right").unwrap();
        let g = GeneralizationSet::new(&tr, vec![left, right]).unwrap();
        let cols = [ColumnGeneralization { column: "col", tree: &tr, generalization: &g }];
        // Loss = (4·1/4)/4 = 0.25
        let bounds = UsageBounds::uniform(&["col"], 0.3);
        let check = bounds.check(&t, &cols).unwrap();
        assert!(check.all_ok());
        assert!((check.average_loss - 0.25).abs() < 1e-12);
        assert!(check.per_column["col"].ok);
    }

    #[test]
    fn check_fails_beyond_bounds() {
        let tr = tree();
        let t = table();
        let g = GeneralizationSet::root_only(&tr);
        let cols = [ColumnGeneralization { column: "col", tree: &tr, generalization: &g }];
        // Loss = 3/4 = 0.75 > 0.3
        let bounds = UsageBounds::uniform(&["col"], 0.3);
        let check = bounds.check(&t, &cols).unwrap();
        assert!(!check.all_ok());
        assert!(!check.per_column["col"].ok);
        assert!(!check.average_ok);
    }

    #[test]
    fn boundary_value_counts_as_ok() {
        let tr = tree();
        let t = table();
        let left = tr.node_by_label("left").unwrap();
        let right = tr.node_by_label("right").unwrap();
        let g = GeneralizationSet::new(&tr, vec![left, right]).unwrap();
        let cols = [ColumnGeneralization { column: "col", tree: &tr, generalization: &g }];
        let bounds = UsageBounds::uniform(&["col"], 0.25);
        assert!(bounds.check(&t, &cols).unwrap().all_ok());
    }

    #[test]
    fn empty_column_list_is_trivially_ok() {
        let bounds = UsageBounds::unconstrained();
        let check = bounds.check(&table(), &[]).unwrap();
        assert!(check.all_ok());
        assert_eq!(check.average_loss, 0.0);
    }
}
