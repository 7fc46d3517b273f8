//! Figure 12(c) — robustness to Subset Deletion: percentage of deleted tuples
//! vs mark loss, for η ∈ {50, 75, 100}. Deletions are issued as SQL range
//! deletes over the (encrypted) identifier, like the paper's
//! `DELETE FROM R WHERE SSN > lval AND SSN < uval`.

#![forbid(unsafe_code)]

use medshield_attacks::{Attack, SubsetDeletion};
use medshield_bench::{experiment_dataset, print_figure_header, protect_per_attribute};
use medshield_core::metrics::mark_loss;

fn main() {
    let dataset = experiment_dataset();
    print_figure_header(
        "Figure 12(c)",
        "robustness of hierarchical watermarking to Subset Deletion",
    );

    let etas = [50u64, 75, 100];
    let fractions = [0.0f64, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.98];

    println!("{:>16} {:>8} {:>8} {:>8}", "data deletion %", "η=50", "η=75", "η=100");
    let mut rows: Vec<Vec<f64>> = vec![Vec::new(); fractions.len()];
    for &eta in &etas {
        let (engine, release) = protect_per_attribute(&dataset, 10, eta);
        for (fi, &fraction) in fractions.iter().enumerate() {
            let attacked =
                SubsetDeletion::ranges(fraction, 777 + fi as u64, "ssn").apply(&release.table);
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
    println!("paper shape: mark loss increases roughly linearly with the amount of deleted");
    println!("data, and smaller η (more redundancy) is more resilient.");
}
