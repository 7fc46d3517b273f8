//! Property-based tests of the relational substrate.

use medshield_relation::{csv, ColumnDef, ColumnRole, Predicate, Schema, Table, Value};
use proptest::prelude::*;

/// Arbitrary cell values, including the generalized interval form.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i32>().prop_map(|v| Value::Int(v as i64)),
        "[A-Za-z0-9 .:-]{0,12}".prop_map(Value::Text),
        (any::<i16>(), 1i64..500).prop_map(|(lo, w)| Value::interval(lo as i64, lo as i64 + w)),
    ]
}

fn arb_table() -> impl Strategy<Value = Table> {
    prop::collection::vec((arb_value(), arb_value(), arb_value()), 0..40).prop_map(|rows| {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("a", ColumnRole::QuasiNumeric),
            ColumnDef::new("b", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut table = Table::new(schema);
        for (x, y, z) in rows {
            table.insert(vec![x, y, z]).unwrap();
        }
        table
    })
}

proptest! {
    /// Value display/parse round-trips for everything except free text that
    /// happens to look like another variant.
    #[test]
    fn value_parse_is_stable_on_reparse(v in arb_value()) {
        // parse(display(v)) may normalize (e.g. text "42" becomes Int 42), but
        // a second round trip must be a fixed point.
        let once = Value::parse(&v.to_string());
        let twice = Value::parse(&once.to_string());
        prop_assert_eq!(once, twice);
    }

    /// CSV export/import preserves the number of rows and re-parses every
    /// cell to the same normalized value.
    #[test]
    fn csv_roundtrip(table in arb_table()) {
        let text = csv::to_csv(&table);
        let roles = [
            ("id", ColumnRole::Identifying),
            ("a", ColumnRole::QuasiNumeric),
            ("b", ColumnRole::QuasiCategorical),
        ];
        let parsed = csv::from_csv(&text, &roles).unwrap();
        prop_assert_eq!(parsed.len(), table.len());
        for name in ["id", "a", "b"] {
            let originals = table.column_values(name).unwrap();
            for (o, n) in originals.iter().zip(parsed.column_values(name).unwrap()) {
                // Normalization: whitespace-only text collapses to Null and
                // numeric-looking text becomes Int; both are idempotent.
                prop_assert_eq!(n, Value::parse(&o.to_string()));
            }
        }
        prop_assert_eq!(parsed.schema().quasi_names(), table.schema().quasi_names());
    }

    /// delete_where(p) removes exactly the tuples selected by p and keeps
    /// everything else untouched.
    #[test]
    fn delete_where_is_exact(table in arb_table(), threshold in any::<i32>()) {
        let predicate = Predicate::gt("a", Value::Int(threshold as i64));
        let selected = table.select(&predicate).unwrap();
        let mut working = table.snapshot();
        let removed = working.delete_where(&predicate).unwrap();
        prop_assert_eq!(removed, selected.len());
        prop_assert_eq!(working.len(), table.len() - removed);
        // The survivors are exactly the unselected rows, in order, unchanged.
        let ids = table.ids();
        let kept: Vec<usize> = (0..ids.len()).filter(|&row| !selected.contains(&ids[row])).collect();
        prop_assert_eq!(working.ids(), kept.iter().map(|&row| ids[row]).collect::<Vec<_>>());
        for (row, &original_row) in kept.iter().enumerate() {
            for c in 0..3 {
                prop_assert_eq!(working.value_at(row, c), table.value_at(original_row, c));
            }
        }
    }

    /// Bin sizes over the quasi columns always sum to the table size.
    #[test]
    fn bin_sizes_partition_the_table(table in arb_table()) {
        let bins = medshield_relation::stats::quasi_bin_sizes(&table).unwrap();
        let total: usize = bins.values().sum();
        prop_assert_eq!(total, table.len());
    }

    /// The columnar core is invisible at the API: after arbitrary edits
    /// (including ones that force Int→Dict column promotion and grow the
    /// dictionaries), the whole-column view, the per-cell accessor, and a
    /// row-by-row rebuild of the table all describe the same relation — and
    /// the CSV bytes of the columnar table and the row-wise rebuild are
    /// identical.
    #[test]
    fn columnar_views_roundtrip_through_rows(
        table in arb_table(),
        edits in prop::collection::vec((any::<u16>(), 0usize..3, arb_value()), 0..25),
    ) {
        let mut table = table;
        if !table.is_empty() {
            for (pick, col, v) in edits {
                let row = pick as usize % table.len();
                table.column_mut(col).unwrap().set(row, &v);
            }
        }
        // Row-wise rebuild from the positional accessor.
        let mut rebuilt = Table::new(table.schema().clone());
        for row in 0..table.len() {
            rebuilt.insert((0..3).map(|c| table.value_at(row, c).unwrap()).collect()).unwrap();
        }
        prop_assert_eq!(rebuilt.len(), table.len());
        // Every cell agrees across the column view, the positional accessor,
        // and the rebuilt row store.
        for (c, name) in ["id", "a", "b"].into_iter().enumerate() {
            let column = table.column_values(name).unwrap();
            prop_assert_eq!(&column, &rebuilt.column_values(name).unwrap());
            for (row, value) in column.iter().enumerate() {
                prop_assert_eq!(&table.value_at(row, c).unwrap(), value);
            }
        }
        prop_assert_eq!(csv::to_csv(&rebuilt), csv::to_csv(&table));
    }
}
