//! Smoke tests for the workspace wiring itself: the façade re-exports that
//! every integration test and example depends on, and the round-tripping of
//! the builder defaults. These exist so that a manifest or re-export
//! regression fails with a named test instead of a wall of unrelated
//! compile errors.

use medshield_core::{ProtectionConfig, ProtectionEngine};

#[test]
fn core_reexports_every_subcrate_path_the_tests_use() {
    // Each statement only has to *resolve*; the values are irrelevant.
    // `medshield_core::metrics` / `::relation` are the paths `end_to_end.rs`
    // and friends import, so they must keep working verbatim.
    let _: fn(&[bool], &[bool]) -> f64 = medshield_core::metrics::mark_loss;
    let _ = medshield_core::relation::Schema::medical_example();
    let _ = medshield_core::crypto::sha256::sha256(b"smoke");
    let _ = medshield_core::dht::builder::numeric_binary_tree("x", &[(0, 10), (10, 20)]).unwrap();
    let _ = medshield_core::binning::BinningConfig::with_k(3);
    let _ = medshield_core::watermark::Mark::from_bytes(b"smoke", 8);
    let _ = medshield_core::attacks::SubsetAddition::new(0.1, 1);
    let _ = medshield_core::datagen::DatasetConfig::small(1);
}

#[test]
fn facade_reexports_the_core_crate() {
    // The `medshield` facade is the one-dependency entry point.
    let config = medshield::ProtectionConfig::builder().k(3).build();
    let _pipeline = medshield::ProtectionEngine::sequential(config);
    let _ = medshield::core::relation::Schema::medical_example();
}

#[test]
fn protection_config_builder_roundtrips_its_defaults() {
    let defaults = ProtectionConfig::default();
    let built = ProtectionConfig::builder().build();
    assert_eq!(defaults, built, "an empty builder must reproduce ProtectionConfig::default()");
}

#[test]
fn builder_overrides_stick_and_feed_the_pipeline() {
    let config = ProtectionConfig::builder()
        .k(7)
        .eta(13)
        .duplication(2)
        .mark_len(10)
        .mark_text("smoke-owner")
        .build();
    let debug = format!("{config:?}");
    assert!(debug.contains('7'), "k=7 should appear in {debug}");
    let _ = ProtectionEngine::sequential(config);
}
