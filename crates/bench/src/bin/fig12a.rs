//! Figure 12(a) — robustness to Subset Alteration: percentage of altered data
//! vs mark loss, for η ∈ {50, 75, 100}.

#![forbid(unsafe_code)]

use medshield_attacks::{Attack, SubsetAlteration};
use medshield_bench::{experiment_dataset, print_figure_header, protect_per_attribute};
use medshield_core::metrics::mark_loss;

fn main() {
    let dataset = experiment_dataset();
    print_figure_header(
        "Figure 12(a)",
        "robustness of hierarchical watermarking to Subset Alteration",
    );

    let etas = [50u64, 75, 100];
    let fractions = [0.0f64, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];

    println!("{:>16} {:>8} {:>8} {:>8}", "data alteration %", "η=50", "η=75", "η=100");
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); fractions.len()];
    for &eta in &etas {
        let (engine, release) = protect_per_attribute(&dataset, 10, eta);
        for (fi, &fraction) in fractions.iter().enumerate() {
            let attacked = SubsetAlteration::new(fraction, 2005 + fi as u64).apply(&release.table);
            let detection = engine
                .detect(&attacked, &release.binning.columns, &dataset.trees)
                .expect("detection runs on attacked data");
            rows[fi].push(mark_loss(release.mark.bits(), &detection.mark) * 100.0);
        }
    }
    for (fi, &fraction) in fractions.iter().enumerate() {
        println!(
            "{:>16.0} {:>8.1} {:>8.1} {:>8.1}",
            fraction * 100.0,
            rows[fi][0],
            rows[fi][1],
            rows[fi][2]
        );
    }
    println!();
    println!("paper shape: mark loss grows slowly with the altered fraction (≈30% loss");
    println!("at 70%+ alteration) and smaller η (more embedded copies) is more resilient.");
}
