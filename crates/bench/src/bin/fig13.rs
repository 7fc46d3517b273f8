//! Figure 13 — information loss caused by watermarking as a function of η.
//!
//! The watermark permutes a selected value to another ultimate generalization
//! node under the same maximal node, so the *generalization level* of the
//! table does not change; what is lost is the correctness of the permuted
//! cells. We therefore report, per η, the fraction of quasi-identifying
//! cells whose value no longer generalizes the original value (i.e. cells the
//! watermark actually moved), which is the distortion Fig. 13 bounds at a few
//! per cent. The extra Eq.-3 information loss of the watermarked table over
//! the binned table is reported alongside for completeness.

#![forbid(unsafe_code)]

use medshield_bench::{
    experiment_dataset, info_loss_of, print_figure_header, protect_per_attribute,
};

fn main() {
    let dataset = experiment_dataset();
    print_figure_header("Figure 13", "information loss caused by watermarking vs η");

    let etas = [50u64, 75, 100, 125, 150, 175, 200];
    println!(
        "{:>6} {:>18} {:>22} {:>22}",
        "η", "cells permuted %", "binning info loss %", "extra info loss %"
    );
    for &eta in &etas {
        let (_engine, release) = protect_per_attribute(&dataset, 10, eta);
        let total_cells = (dataset.table.len() * release.binning.columns.len()) as f64;
        let permuted = release.embedding.changed_cells as f64 / total_cells * 100.0;

        let cols: Vec<_> = release
            .binning
            .columns
            .iter()
            .map(|cb| (cb.column.clone(), cb.ultimate.clone()))
            .collect();
        let binned_loss = info_loss_of(&dataset, &cols) * 100.0;
        // The watermarked cells carry a *wrong* ultimate-node value; counting
        // them as fully lost gives a conservative extra-loss estimate.
        let extra_loss = permuted;

        println!("{eta:>6} {permuted:>18.2} {binned_loss:>22.1} {extra_loss:>22.2}");
    }
    println!();
    println!("paper shape: the loss added by watermarking is minor (under ~10%) and");
    println!("decreases as η grows (fewer tuples are selected for embedding).");
}
