//! Figure 14 — effect of watermarking on binning: per attribute and per k,
//! the total number of bins, the number of bins whose size changed, and the
//! number of bins whose size fell below k. Also prints the analytic Lemma 1/2
//! probabilities for reference.

#![forbid(unsafe_code)]

use medshield_bench::{experiment_dataset, print_figure_header, protect_per_attribute};
use medshield_core::{analytic_interference, measure_interference};

fn main() {
    let dataset = experiment_dataset();
    print_figure_header(
        "Figure 14",
        "effect of watermarking on binning (total bins / bins changed / bins below k)",
    );

    let ks = [10usize, 20, 45, 100];
    let columns = ["age", "zip_code", "doctor", "symptom", "prescription"];

    println!(
        "{:>5} | {:^20} | {:^20} | {:^20} | {:^20} | {:^20}",
        "k", columns[0], columns[1], columns[2], columns[3], columns[4]
    );
    for &k in &ks {
        let (_engine, release) = protect_per_attribute(&dataset, k, 100);
        let reports = measure_interference(&release.binning.table, &release.table, k)
            .expect("interference measurable");
        let by_name: std::collections::BTreeMap<_, _> = reports.into_iter().collect();
        let mut row = format!("{k:>5} |");
        for column in &columns {
            let r = &by_name[*column];
            row.push_str(&format!(" {:>6} {:>6} {:>6} |", r.total_bins, r.changed_bins, r.below_k));
        }
        println!("{row}");
    }
    println!();
    println!("cell format: total bins / bins with changed size / bins with size < k");
    println!("paper shape: many bins change size, essentially none drop below k.");

    // Analytic §6 probabilities (Lemmas 1 and 2) for the k = 10 run.
    let (_engine, release) = protect_per_attribute(&dataset, 10, 100);
    println!("\nLemma 1/2 (k=10): per column, probability that one bit-embedding shrinks");
    println!("(Pr-) or grows (Pr+) a particular bin — equal by the seamlessness argument:");
    for a in analytic_interference(&release.binning.columns, &dataset.trees) {
        println!(
            "  {:<13} maximal nodes {:>3}, ultimate nodes {:>3}, Pr- = Pr+ = {:.4}",
            a.column, a.maximal_nodes, a.ultimate_nodes, a.pr_minus
        );
    }
}
