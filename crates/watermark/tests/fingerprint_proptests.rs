//! Property tests for the per-recipient fingerprint model.
//!
//! The release/copy refinement only works if two things hold for *every*
//! choice of recipients and mark length:
//!
//! 1. **Pairwise distinct** — different recipients always get different
//!    fingerprints, so their copies are tellable apart;
//! 2. **Detection-equivalent for the owner** — every copy is detected with
//!    the owner key exactly like a single-mark release: the same tuples are
//!    selected, the same positions are covered, and a clean detect pass
//!    recovers that recipient's bits exactly.

use medshield_binning::{BinningAgent, BinningConfig, BinningOutcome};
use medshield_datagen::{DatasetConfig, MedicalDataset};
use medshield_dht::GeneralizationSet;
use medshield_watermark::{FingerprintDeriver, WatermarkConfig, WatermarkKey, Watermarker};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One shared binned dataset: the binning state depends on neither the
/// recipients nor the mark length, so every proptest case reuses it.
fn binned() -> &'static (MedicalDataset, BinningOutcome) {
    static BINNED: OnceLock<(MedicalDataset, BinningOutcome)> = OnceLock::new();
    BINNED.get_or_init(|| {
        let ds = MedicalDataset::generate(&DatasetConfig::small(900));
        let agent = BinningAgent::new(BinningConfig::with_k(4));
        let maximal: BTreeMap<String, GeneralizationSet> = ds
            .trees
            .iter()
            .map(|(name, tree)| (name.clone(), GeneralizationSet::at_depth(tree, 0)))
            .collect();
        let outcome = agent.bin(&ds.table, &ds.trees, &maximal).expect("binning succeeds");
        (ds, outcome)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn per_recipient_copies_are_distinct_but_detection_equivalent(
        recipients in 2usize..5,
        mark_len in 8usize..33,
    ) {
        let (ds, binned) = binned();
        let key = WatermarkKey::from_master(b"owner-secret", 4);
        let wm = Watermarker::new(WatermarkConfig::new(key.clone()));
        let deriver = FingerprintDeriver::new(&key, mark_len);
        let names: Vec<String> =
            (0..recipients).map(|i| format!("recipient-{i}")).collect();
        let marks: Vec<_> = names.iter().map(|n| deriver.derive(n)).collect();

        // Pairwise distinct fingerprints.
        for i in 0..marks.len() {
            for j in i + 1..marks.len() {
                prop_assert_ne!(&marks[i], &marks[j]);
            }
        }

        // Embed each recipient's copy and detect it with the owner key.
        let mut structure = None;
        for (name, mark) in names.iter().zip(&marks) {
            let (copy, report) = wm.embed(binned, &ds.trees, mark).expect("embedding succeeds");
            prop_assert!(report.selected_tuples > 0);
            let detected =
                wm.detect(&copy, &binned.columns, &ds.trees, mark_len).expect("detection succeeds");
            // A clean detect pass recovers exactly this recipient's bits.
            prop_assert!(
                detected.mark == mark.bits(),
                "copy for {name} did not detect to its own fingerprint"
            );
            // Detection-equivalence: every copy selects the same tuples and
            // covers the same positions — the owner's one detection
            // configuration serves all copies.
            let shape = (detected.selected_tuples, detected.covered_positions, detected.wmd_len);
            match structure {
                None => structure = Some(shape),
                Some(expected) => prop_assert!(
                    shape == expected,
                    "copy for {name} has a different detection structure"
                ),
            }
        }
    }
}
