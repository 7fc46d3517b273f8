//! A release must not carry what binning removed from view.
//!
//! Dictionary-encoded columns keep every value ever interned, so a binning
//! step that rewrote cells in place would leave each cleartext identifier and
//! each exact quasi value in the column dictionaries of the released table,
//! readable by anyone holding it. These tests pin the stronger property:
//! binning builds its columns fresh, so no dictionary entry of an identifying
//! column equals an original identifier, and every dictionary entry of the
//! binned table is used by at least one row.

use medshield_core::binning::BinningOutcome;
use medshield_core::relation::{ColumnData, Table, Value};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};
use std::collections::HashSet;

fn engine() -> ProtectionEngine {
    ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(4)
            .eta(5)
            .mark_len(20)
            .encryption_secret(b"privacy-enc".to_vec())
            .watermark_secret(b"privacy-wm".to_vec())
            .build(),
    )
}

/// Every original value of every identifying column.
fn original_identifiers(table: &Table) -> HashSet<Value> {
    let schema = table.schema();
    schema
        .identifying_indices()
        .into_iter()
        .flat_map(|i| table.column_values(&schema.column(i).unwrap().name).unwrap())
        .collect()
}

fn assert_no_cleartext_identifier(what: &str, table: &Table, originals: &HashSet<Value>) {
    for i in table.schema().identifying_indices() {
        let entries: Vec<Value> = match table.column(i).unwrap().data() {
            ColumnData::Int(values) => values.iter().map(|&v| Value::Int(v)).collect(),
            ColumnData::Dict { dict, .. } => dict.to_vec(),
        };
        let leaked = entries.iter().filter(|v| originals.contains(v)).count();
        assert_eq!(leaked, 0, "{what}: {leaked} cleartext identifiers in column {i}");
    }
}

fn assert_dictionaries_are_used(what: &str, table: &Table) {
    for (i, column) in table.columns().iter().enumerate() {
        if let ColumnData::Dict { dict, codes } = column.data() {
            let used: HashSet<u32> = codes.iter().copied().collect();
            let stale = dict.len() - used.len();
            assert_eq!(stale, 0, "{what}: {stale} of {} entries of column {i} unused", dict.len());
        }
    }
}

fn check_binned(what: &str, original: &Table, outcome: &BinningOutcome) {
    assert_eq!(outcome.table.len(), original.len());
    assert_no_cleartext_identifier(what, &outcome.table, &original_identifiers(original));
    assert_dictionaries_are_used(what, &outcome.table);
}

#[test]
fn binning_drops_cleartext_and_stale_dictionary_entries() {
    let ds = MedicalDataset::generate(&DatasetConfig::small(600));
    let engine = engine();
    let maximal = engine.default_maximal(&ds.trees);
    let agent = engine.binning_agent();
    check_binned("bin", &ds.table, &agent.bin(&ds.table, &ds.trees, &maximal).unwrap());
    check_binned(
        "bin_per_attribute",
        &ds.table,
        &agent.bin_per_attribute(&ds.table, &ds.trees, &maximal).unwrap(),
    );
}

#[test]
fn releases_carry_no_cleartext_identifier() {
    let ds = MedicalDataset::generate(&DatasetConfig::small(600));
    let engine = engine();
    let originals = original_identifiers(&ds.table);
    for (what, release) in [
        ("protect", engine.protect(&ds.table, &ds.trees).unwrap()),
        ("protect_per_attribute", engine.protect_per_attribute(&ds.table, &ds.trees).unwrap()),
    ] {
        check_binned(what, &ds.table, &release.binning);
        assert_no_cleartext_identifier(what, &release.table, &originals);
    }
}
