//! §5.2 ablation — the generalization attack against the single-level scheme
//! (the paper's argument for why a hierarchical scheme is needed) and against
//! the hierarchical scheme itself.

#![forbid(unsafe_code)]

use medshield_attacks::{Attack, GeneralizationAttack};
use medshield_bench::{experiment_dataset, print_figure_header, protect_per_attribute};
use medshield_core::metrics::mark_loss;
use medshield_core::watermark::{Mark, WatermarkConfig, WatermarkKey, Watermarker};

fn main() {
    let dataset = experiment_dataset();
    print_figure_header(
        "Section 5.2 ablation",
        "generalization attack vs single-level and hierarchical watermarking",
    );

    let (engine, release) = protect_per_attribute(&dataset, 10, 50);

    // Single-level baseline with its own key, embedded into the same binned
    // table.
    let key = WatermarkKey::from_master(b"single-level-baseline", 50);
    let single = Watermarker::single_level(WatermarkConfig::new(key));
    let mark = Mark::from_bytes(b"single-level-baseline", 20);
    let single_marked = single
        .embed(&release.binning, &dataset.trees, &mark)
        .expect("single-level embedding succeeds")
        .0;

    println!("{:>22} {:>22} {:>22}", "attack levels", "single-level loss %", "hierarchical loss %");
    for levels in 0usize..=3 {
        let (single_table, hier_table) = if levels == 0 {
            (single_marked.snapshot(), release.table.snapshot())
        } else {
            let attack = GeneralizationAttack::new(levels, dataset.trees.clone());
            (attack.apply(&single_marked), attack.apply(&release.table))
        };
        let single_detected = single
            .detect(&single_table, &release.binning.columns, &dataset.trees, mark.len())
            .expect("single-level detection runs")
            .mark;
        let hier_detected = engine
            .detect(&hier_table, &release.binning.columns, &dataset.trees)
            .expect("hierarchical detection runs");
        println!(
            "{:>22} {:>22.1} {:>22.1}",
            levels,
            mark_loss(mark.bits(), &single_detected) * 100.0,
            mark_loss(release.mark.bits(), &hier_detected.mark) * 100.0
        );
    }
    println!();
    println!("paper claim: one level of further generalization erases the single-level");
    println!("mark (no key needed), while the hierarchical mark survives because copies");
    println!("of every bit live at all levels up to the maximal generalization nodes.");
}
