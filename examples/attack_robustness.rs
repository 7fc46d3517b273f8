//! Attack robustness demo: apply the paper's attack models to a protected
//! release and report how much of the mark survives each of them — a
//! miniature, human-readable version of the Fig. 12 experiments, plus the
//! §5.2 generalization-attack comparison between the single-level and the
//! hierarchical schemes.
//!
//! ```bash
//! cargo run --release -p medshield-core --example attack_robustness
//! ```

use medshield_core::attacks::{
    Attack, GeneralizationAttack, MixedAttack, SubsetAddition, SubsetAlteration, SubsetDeletion,
};
use medshield_core::metrics::mark_loss;
use medshield_core::watermark::{Mark, WatermarkConfig, WatermarkKey, Watermarker};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

fn main() {
    let dataset = MedicalDataset::generate(&DatasetConfig::small(4_000));
    let config = ProtectionConfig::builder()
        .k(5)
        .eta(10)
        .mark_len(20)
        .mark_text("General Hospital 2005")
        .build();
    let engine = ProtectionEngine::sequential(config);
    let release = engine.protect(&dataset.table, &dataset.trees).unwrap();
    println!(
        "protected {} tuples; {} watermarked; mark = {}",
        release.table.len(),
        release.embedding.selected_tuples,
        release.mark
    );

    let attacks: Vec<(String, Box<dyn Attack>)> = vec![
        ("subset alteration 30%".into(), Box::new(SubsetAlteration::new(0.30, 1))),
        ("subset alteration 60%".into(), Box::new(SubsetAlteration::new(0.60, 2))),
        ("subset addition 50%".into(), Box::new(SubsetAddition::new(0.50, 3))),
        ("subset deletion 50% (random)".into(), Box::new(SubsetDeletion::random(0.50, 4))),
        (
            "subset deletion 40% (SQL ranges)".into(),
            Box::new(SubsetDeletion::ranges(0.40, 5, "ssn")),
        ),
        (
            "generalization attack (1 level)".into(),
            Box::new(GeneralizationAttack::new(1, dataset.trees.clone())),
        ),
        (
            "mixed: delete 20% + add 20% + alter 20%".into(),
            Box::new(
                MixedAttack::new()
                    .then(SubsetDeletion::random(0.20, 6))
                    .then(SubsetAddition::new(0.20, 7))
                    .then(SubsetAlteration::new(0.20, 8)),
            ),
        ),
    ];

    println!("\n{:<42} {:>10} {:>12}", "attack", "mark loss", "table size");
    for (name, attack) in &attacks {
        let attacked = attack.apply(&release.table);
        let detection = engine.detect(&attacked, &release.binning.columns, &dataset.trees).unwrap();
        let loss = mark_loss(release.mark.bits(), &detection.mark);
        println!("{:<42} {:>9.1}% {:>12}", name, loss * 100.0, attacked.len());
    }

    // §5.2: the generalization attack erases a single-level watermark but not
    // the hierarchical one.
    println!("\ngeneralization-attack ablation (single-level vs hierarchical):");
    let key = WatermarkKey::from_master(b"General Hospital 2005/single", 10);
    let single = Watermarker::single_level(WatermarkConfig::new(key));
    let mark = Mark::from_bytes(b"General Hospital 2005", 20);
    let single_marked = single.embed(&release.binning, &dataset.trees, &mark).unwrap().0;
    let attack = GeneralizationAttack::new(1, dataset.trees.clone());

    let single_clean = single
        .detect(&single_marked, &release.binning.columns, &dataset.trees, mark.len())
        .unwrap()
        .mark;
    let single_attacked = single
        .detect(&attack.apply(&single_marked), &release.binning.columns, &dataset.trees, mark.len())
        .unwrap()
        .mark;
    let hier_attacked = engine
        .detect(&attack.apply(&release.table), &release.binning.columns, &dataset.trees)
        .unwrap();
    println!(
        "  single-level : {:>5.1}% loss before the attack, {:>5.1}% after",
        mark_loss(mark.bits(), &single_clean) * 100.0,
        mark_loss(mark.bits(), &single_attacked) * 100.0
    );
    println!(
        "  hierarchical : {:>5.1}% loss before the attack, {:>5.1}% after",
        0.0,
        mark_loss(release.mark.bits(), &hier_attacked.mark) * 100.0
    );
}
