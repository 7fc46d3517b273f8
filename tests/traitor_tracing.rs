//! The release/copy model end to end through the facade: per-recipient
//! fingerprints are pairwise distinct, owner-key detection traces a leaked
//! copy back to its recipient under deletion and alteration attacks, and a
//! 2-party collusion still surrenders one of the colluders.

use medshield_core::attacks::{Attack, CollusionAttack, SubsetAlteration, SubsetDeletion};
use medshield_core::relation::{csv, Table};
use medshield_core::watermark::{score_recipients, FingerprintDeriver, Watermarker};
use medshield_core::{ProtectedRelease, ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

struct Fixture {
    dataset: MedicalDataset,
    owner: ProtectionEngine,
    release: ProtectedRelease,
    /// `(name, fingerprint, copy)` per recipient.
    copies: Vec<(String, medshield_core::watermark::Mark, Table)>,
}

fn fixture() -> Fixture {
    let dataset = MedicalDataset::generate(&DatasetConfig::small(1_200));
    let owner = ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(4)
            .eta(5)
            .mark_len(20)
            .watermark_secret(b"facade-owner-key".to_vec())
            .build(),
    );
    let release = owner.protect(&dataset.table, &dataset.trees).unwrap();
    let deriver = FingerprintDeriver::new(&owner.config().watermark.key, owner.config().mark_len);
    let wm = Watermarker::new(owner.config().watermark.clone());
    let copies = ["clinic-a", "clinic-b", "clinic-c"]
        .iter()
        .map(|name| {
            let mark = deriver.derive(name);
            let (copy, report) = wm
                .embed_into(&release.table, &release.binning.columns, &dataset.trees, &mark)
                .unwrap();
            assert!(report.selected_tuples > 0, "copy for {name} embedded nothing");
            ((*name).to_string(), mark, copy)
        })
        .collect();
    Fixture { dataset, owner, release, copies }
}

impl Fixture {
    /// Rank every recipient against `leaked` and return the top name.
    fn trace(&self, leaked: &Table) -> String {
        let report =
            self.owner.detect(leaked, &self.release.binning.columns, &self.dataset.trees).unwrap();
        let ranking = score_recipients(
            &report.mark,
            self.copies.iter().map(|(name, mark, _)| (name.as_str(), mark)),
        );
        assert_eq!(ranking.len(), self.copies.len());
        ranking[0].name.clone()
    }
}

#[test]
fn copies_are_pairwise_distinct_and_clean_leaks_trace_exactly() {
    let fx = fixture();
    for i in 0..fx.copies.len() {
        for j in i + 1..fx.copies.len() {
            assert_ne!(fx.copies[i].1, fx.copies[j].1, "fingerprints must differ");
            assert_ne!(
                csv::to_csv(&fx.copies[i].2),
                csv::to_csv(&fx.copies[j].2),
                "copies for {} and {} must be tellable apart",
                fx.copies[i].0,
                fx.copies[j].0
            );
        }
    }
    for (name, _, copy) in &fx.copies {
        assert_eq!(&fx.trace(copy), name, "clean leak of {name}'s copy must trace to {name}");
    }
}

#[test]
fn deletion_and_alteration_leave_the_true_leaker_on_top() {
    let fx = fixture();
    let (name, _, copy) = &fx.copies[1];
    let deleted = SubsetDeletion::random(0.3, 9).apply(copy);
    assert_eq!(&fx.trace(&deleted), name, "30% deletion must not misdirect the trace");
    let altered = SubsetAlteration::new(0.2, 9).apply(copy);
    assert_eq!(&fx.trace(&altered), name, "20% alteration must not misdirect the trace");
}

#[test]
fn two_party_collusion_surrenders_a_colluder() {
    let fx = fixture();
    let colluded = CollusionAttack::new(vec![fx.copies[2].2.clone()], 7).apply(&fx.copies[1].2);
    let top = fx.trace(&colluded);
    assert!(
        top == fx.copies[1].0 || top == fx.copies[2].0,
        "collusion of {} and {} traced to the innocent {top}",
        fx.copies[1].0,
        fx.copies[2].0
    );
}
