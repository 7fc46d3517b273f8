//! Equivalence of the chunk-parallel [`ProtectionEngine`] and the sequential
//! [`ProtectionEngine`]: for thread counts {1, 2, 4, 8} the engine must
//! produce a byte-identical release table, an identical embedding report, and
//! an identical detection report — on clean releases and on attacked ones.
//! This pins the parallel refactor to the paper's (sequential) semantics.

use medshield_core::attacks::{Attack, MixedAttack, SubsetAlteration, SubsetDeletion};
use medshield_core::relation::csv;
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn config(k: usize, eta: u64, duplication: usize) -> ProtectionConfig {
    ProtectionConfig::builder()
        .k(k)
        .eta(eta)
        .duplication(duplication)
        .mark_text("equivalence-property-owner")
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sequential pipeline output and N-thread engine output are
    /// byte-identical, and both detectors return the same verdict, across
    /// randomized table sizes, seeds and selection rates.
    #[test]
    fn parallel_engine_matches_sequential_pipeline(
        n in 300usize..900,
        seed in 0u64..1000,
        eta in 2u64..12,
    ) {
        let ds = MedicalDataset::generate(&DatasetConfig { num_tuples: n, seed, zipf_exponent: 0.8 });
        let pipeline = ProtectionEngine::sequential(config(4, eta, 2));
        let reference = pipeline.protect_per_attribute(&ds.table, &ds.trees).unwrap();
        let reference_csv = csv::to_csv(&reference.table);
        let reference_detection = pipeline
            .detect(&reference.table, &reference.binning.columns, &ds.trees)
            .unwrap();

        for threads in THREAD_COUNTS {
            let engine = ProtectionEngine::new(config(4, eta, 2), threads).unwrap();
            let release = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
            prop_assert_eq!(&csv::to_csv(&release.table), &reference_csv);
            prop_assert_eq!(&release.embedding, &reference.embedding);
            prop_assert_eq!(&release.mark, &reference.mark);
            let detection = engine
                .detect(&release.table, &release.binning.columns, &ds.trees)
                .unwrap();
            prop_assert_eq!(&detection, &reference_detection);
        }
    }

    /// The equivalence also holds on attacked releases — the detection-side
    /// sharding must merge votes identically even when tuples are missing or
    /// altered.
    #[test]
    fn parallel_detection_matches_on_attacked_release(
        seed in 0u64..1000,
        delete_percent in 5u64..40,
    ) {
        let delete_fraction = delete_percent as f64 / 100.0;
        let ds = MedicalDataset::generate(&DatasetConfig {
            num_tuples: 800,
            seed,
            zipf_exponent: 0.8,
        });
        let pipeline = ProtectionEngine::sequential(config(4, 5, 2));
        let release = pipeline.protect_per_attribute(&ds.table, &ds.trees).unwrap();
        let attack = MixedAttack::new()
            .then(SubsetDeletion::random(delete_fraction, seed))
            .then(SubsetAlteration::new(0.1, seed.wrapping_add(1)));
        let attacked = attack.apply(&release.table);
        let reference = pipeline
            .detect(&attacked, &release.binning.columns, &ds.trees)
            .unwrap();
        for threads in THREAD_COUNTS {
            let engine = ProtectionEngine::new(config(4, 5, 2), threads).unwrap();
            let detection = engine
                .detect(&attacked, &release.binning.columns, &ds.trees)
                .unwrap();
            prop_assert_eq!(&detection, &reference);
        }
    }
}
