//! Cross-crate integration tests: the full protect → outsource → detect
//! lifecycle, exercising datagen, binning, watermarking, metrics and the
//! pipeline together.

use medshield_core::metrics::{
    column_satisfies_k, mark_loss, satisfies_k_anonymity, table_info_loss, ColumnGeneralization,
};
use medshield_core::relation::{csv, ColumnRole, Value};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

fn dataset(n: usize) -> MedicalDataset {
    MedicalDataset::generate(&DatasetConfig::small(n))
}

#[test]
fn full_pipeline_guarantees_privacy_and_ownership() {
    let ds = dataset(2_000);
    let pipeline = ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(10)
            .epsilon(2)
            .eta(10)
            .duplication(4)
            .mark_len(20)
            .mark_text("integration-test-owner")
            .build(),
    );
    let release = pipeline.protect(&ds.table, &ds.trees).unwrap();

    // Privacy: the binned table is (k+ε)-anonymous over the quasi identifiers,
    // and stays at least k-anonymous per attribute after watermarking.
    let quasi = ds.table.schema().quasi_names();
    assert!(satisfies_k_anonymity(&release.binning.table, &quasi, 12).unwrap());
    for column in &quasi {
        assert!(column_satisfies_k(&release.table, column, 10).unwrap());
    }

    // The identifying column is encrypted: no original SSN appears anywhere.
    let originals: std::collections::HashSet<String> = ds
        .table
        .column_values("ssn")
        .unwrap()
        .into_iter()
        .filter_map(|v| v.as_text().map(str::to_owned))
        .collect();
    for v in release.table.column_values("ssn").unwrap() {
        assert!(!originals.contains(v.as_text().unwrap()));
    }

    // Ownership: the mark round-trips exactly on the untouched release.
    let detection = pipeline.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
    assert_eq!(detection.mark, release.mark.bits());
}

#[test]
fn information_loss_stays_below_one_and_grows_with_k() {
    let ds = dataset(1_500);
    let mut previous = 0.0f64;
    for k in [2usize, 20, 80] {
        let pipeline =
            ProtectionEngine::sequential(ProtectionConfig::builder().k(k).eta(25).build());
        let release = pipeline.protect(&ds.table, &ds.trees).unwrap();
        let cgs: Vec<ColumnGeneralization<'_>> = release
            .binning
            .columns
            .iter()
            .map(|cb| ColumnGeneralization {
                column: &cb.column,
                tree: &ds.trees[&cb.column],
                generalization: &cb.ultimate,
            })
            .collect();
        let loss = table_info_loss(&ds.table, &cgs).unwrap();
        assert!((0.0..=1.0).contains(&loss), "k={k}: loss {loss} out of range");
        assert!(loss + 0.05 >= previous, "k={k}: loss {loss} dropped sharply from {previous}");
        previous = previous.max(loss);
    }
}

#[test]
fn release_survives_csv_roundtrip_and_detection_still_works() {
    let ds = dataset(1_200);
    let pipeline = ProtectionEngine::sequential(
        ProtectionConfig::builder().k(5).eta(8).duplication(3).mark_text("csv-owner").build(),
    );
    let release = pipeline.protect(&ds.table, &ds.trees).unwrap();

    // Outsource as CSV, re-import on the other side.
    let text = csv::to_csv(&release.table);
    let roles = [
        ("ssn", ColumnRole::Identifying),
        ("age", ColumnRole::QuasiNumeric),
        ("zip_code", ColumnRole::QuasiNumeric),
        ("doctor", ColumnRole::QuasiCategorical),
        ("symptom", ColumnRole::QuasiCategorical),
        ("prescription", ColumnRole::QuasiCategorical),
    ];
    let imported = csv::from_csv(&text, &roles).unwrap();
    assert_eq!(imported.len(), release.table.len());

    let detection = pipeline.detect(&imported, &release.binning.columns, &ds.trees).unwrap();
    assert_eq!(
        mark_loss(release.mark.bits(), &detection.mark),
        0.0,
        "CSV round-trip must not destroy the mark"
    );
}

#[test]
fn two_owners_with_different_keys_do_not_interfere() {
    let ds = dataset(1_000);
    let owner_a = ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(4)
            .eta(10)
            .mark_text("owner-a")
            .watermark_secret(b"key-a".to_vec())
            .build(),
    );
    let owner_b = ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(4)
            .eta(10)
            .mark_text("owner-b")
            .watermark_secret(b"key-b".to_vec())
            .build(),
    );
    let release_a = owner_a.protect(&ds.table, &ds.trees).unwrap();
    // Owner B's detector on owner A's release must not find owner B's mark.
    let detection =
        owner_b.detect(&release_a.table, &release_a.binning.columns, &ds.trees).unwrap();
    let mark_b = medshield_core::watermark::Mark::from_bytes(b"owner-b", 20);
    assert!(mark_loss(mark_b.bits(), &detection.mark) > 0.2);
}

#[test]
fn binned_values_are_generalizations_of_the_originals() {
    let ds = dataset(800);
    let pipeline = ProtectionEngine::sequential(ProtectionConfig::builder().k(8).eta(20).build());
    let release = pipeline.protect(&ds.table, &ds.trees).unwrap();
    // Every binned value must be an ancestor-or-self of the original value's
    // leaf in the column's tree (privacy never *adds* specificity).
    for cb in &release.binning.columns {
        let tree = &ds.trees[&cb.column];
        let originals = ds.table.column_values(&cb.column).unwrap();
        let binned = release.binning.table.column_values(&cb.column).unwrap();
        for (orig, binned) in originals.iter().zip(&binned) {
            let leaf = tree.leaf_for_value(orig).unwrap();
            let bin_node = tree.node_for_value(binned).unwrap();
            assert!(
                tree.is_ancestor_or_self(bin_node, leaf).unwrap(),
                "column {}: {binned} is not a generalization of {orig}",
                cb.column,
            );
        }
    }
}

#[test]
fn non_identifying_columns_pass_through_untouched() {
    // Add a non-identifying column and verify the pipeline leaves it alone.
    use medshield_core::relation::{ColumnDef, Schema, Table};
    let schema = Schema::new(vec![
        ColumnDef::new("ssn", ColumnRole::Identifying),
        ColumnDef::new("age", ColumnRole::QuasiNumeric),
        ColumnDef::new("note", ColumnRole::NonIdentifying),
    ])
    .unwrap();
    let mut table = Table::new(schema);
    for i in 0..200i64 {
        table
            .insert(vec![
                Value::text(format!("id-{i}")),
                Value::int(i % 90),
                Value::text(format!("free text {i}")),
            ])
            .unwrap();
    }
    let mut trees = std::collections::BTreeMap::new();
    trees.insert("age".to_string(), medshield_datagen::ontology::age_tree());

    let pipeline = ProtectionEngine::sequential(ProtectionConfig::builder().k(5).eta(5).build());
    let release = pipeline.protect(&table, &trees).unwrap();
    assert_eq!(
        table.column_values("note").unwrap(),
        release.table.column_values("note").unwrap(),
        "note column must not change"
    );
}
