//! The chunk-parallel protection engine.
//!
//! [`ProtectionEngine`] runs the paper's Fig. 2 pipeline — binning agent,
//! watermarking agent, detection, dispute resolution — with the watermark
//! hot paths sharded over row chunks and executed on scoped threads.
//!
//! Tuple selection and embedding are keyed per-tuple PRF decisions (Eq. 5)
//! with no cross-tuple data dependency, so the table can be split into
//! disjoint row chunks processed independently (the same observation
//! exploited by Agrawal–Kiernan-style relational watermarking):
//!
//! 1. the run-wide state (selector, resolved identity, extended mark, target
//!    columns) is precomputed once as an
//!    [`EmbedPlan`](medshield_watermark::EmbedPlan) /
//!    [`DetectPlan`](medshield_watermark::DetectPlan), and the columnar
//!    batch state (per-dictionary-code memos, identity codec, interned write
//!    targets) once as an [`EmbedKernel`](medshield_watermark::EmbedKernel) /
//!    [`DetectKernel`](medshield_watermark::DetectKernel);
//! 2. the row index space is split into `threads` contiguous ranges, one
//!    scoped worker per range (`std::thread::scope` — no extra dependencies,
//!    no detached threads), every worker reading the same immutable columnar
//!    table;
//! 3. per-range results ([`EmbeddingReport`] counters plus edit lists,
//!    detection vote tallies) are merged **in range order**; embedding edits
//!    are written back on this thread by `EmbedKernel::apply`.
//!
//! Because every per-tuple decision is content-keyed and chunk results merge
//! by exact integer arithmetic, the parallel output is byte-identical to the
//! sequential path for any thread count — a property pinned by the
//! `engine_equivalence` test suite. The multi-attribute binning search is
//! sharded too (candidate combinations scored against an immutable
//! `SearchPlan`, per-shard bests merged deterministically — see
//! `medshield_binning::multi`); the engine's `threads` knob drives both
//! stages, and the `binning_equivalence` suite pins the binning side.

use crate::config::ProtectionConfig;
use medshield_binning::{BinningAgent, BinningError, BinningOutcome, ColumnBinning};
use medshield_dht::{DomainHierarchyTree, GeneralizationSet};
use medshield_relation::Table;
use medshield_watermark::hierarchical::{DetectionTally, EmbeddingReport};
use medshield_watermark::ownership::{self, OwnershipProof, OwnershipVerdict};
use medshield_watermark::{DetectionReport, EmbedChunk, Mark, WatermarkError, Watermarker};
use std::collections::BTreeMap;
use std::thread;

/// Errors from the end-to-end pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The binning stage failed.
    Binning(BinningError),
    /// The watermarking stage failed.
    Watermark(WatermarkError),
    /// The table has no identifying column to derive the ownership statistic
    /// from.
    NoIdentifyingColumn,
    /// The requested worker-thread count is zero. The engine used to clamp
    /// this silently to one while the binning agent rejected it
    /// ([`BinningError::InvalidThreads`]); the contract is now uniform —
    /// every entry point rejects zero.
    InvalidThreads,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Binning(e) => write!(f, "binning failed: {e}"),
            PipelineError::Watermark(e) => write!(f, "watermarking failed: {e}"),
            PipelineError::NoIdentifyingColumn => {
                write!(f, "the schema declares no identifying column")
            }
            PipelineError::InvalidThreads => {
                write!(f, "the worker thread count must be at least 1")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<BinningError> for PipelineError {
    fn from(e: BinningError) -> Self {
        PipelineError::Binning(e)
    }
}

impl From<WatermarkError> for PipelineError {
    fn from(e: WatermarkError) -> Self {
        PipelineError::Watermark(e)
    }
}

/// Everything the data holder keeps after protecting a table: the release
/// itself plus the state needed for later detection and dispute resolution.
#[derive(Debug, Clone)]
pub struct ProtectedRelease {
    /// The binned **and** watermarked table — this is what gets outsourced.
    pub table: Table,
    /// The binning outcome (binned-but-unmarked table, per-column node sets).
    /// Kept by the data holder; the maximal/ultimate sets are needed to
    /// detect the mark later.
    pub binning: BinningOutcome,
    /// The embedded mark.
    pub mark: Mark,
    /// The ownership proof (`v` and `F(v)`), present when the mark was
    /// derived from the identifying-column statistic.
    pub ownership: Option<OwnershipProof>,
    /// Statistics of the embedding run.
    pub embedding: EmbeddingReport,
}

/// The unified protection framework — binning agent + watermarking agent —
/// with chunk-parallel watermark embedding and detection.
#[derive(Debug, Clone)]
pub struct ProtectionEngine {
    config: ProtectionConfig,
    binning_agent: BinningAgent,
    watermarker: Watermarker,
    threads: usize,
}

impl ProtectionEngine {
    /// Build an engine from a configuration. `threads` drives **both**
    /// sharded stages — the multi-attribute binning search and the watermark
    /// embed/detect hot paths — and overrides `config.binning.threads` so one
    /// knob rules both; `1` reproduces the strictly sequential pipeline —
    /// though every thread count produces byte-identical output, so the
    /// choice is purely about hardware. `0` is rejected
    /// ([`PipelineError::InvalidThreads`]), matching the binning agent's
    /// contract instead of silently clamping.
    pub fn new(config: ProtectionConfig, threads: usize) -> Result<Self, PipelineError> {
        if threads == 0 {
            return Err(PipelineError::InvalidThreads);
        }
        let mut config = config;
        config.binning.threads = threads;
        let binning_agent = BinningAgent::new(config.binning.clone());
        let watermarker = Watermarker::new(config.watermark.clone());
        Ok(ProtectionEngine { config, binning_agent, watermarker, threads })
    }

    /// A single-threaded engine: the strictly sequential reference the
    /// chunk-parallel runs are pinned against.
    pub fn sequential(config: ProtectionConfig) -> Self {
        Self::new(config, 1).expect("one worker thread is always a valid count")
    }

    /// Number of worker threads the binning search and the watermark stages
    /// use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Change the worker-thread count for both the binning search and the
    /// watermark stages. Like [`ProtectionEngine::new`], zero is rejected.
    pub fn set_threads(&mut self, threads: usize) -> Result<(), PipelineError> {
        if threads == 0 {
            return Err(PipelineError::InvalidThreads);
        }
        self.threads = threads;
        self.config.binning.threads = threads;
        self.binning_agent = BinningAgent::new(self.config.binning.clone());
        Ok(())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ProtectionConfig {
        &self.config
    }

    /// The binning agent (exposes the identifier cipher for dispute
    /// resolution).
    pub fn binning_agent(&self) -> &BinningAgent {
        &self.binning_agent
    }

    /// The watermarking agent (always the hierarchical scheme).
    pub fn watermarker(&self) -> &Watermarker {
        &self.watermarker
    }

    /// Default per-column usage metrics: maximal generalization nodes at the
    /// configured depth.
    pub fn default_maximal(
        &self,
        trees: &BTreeMap<String, DomainHierarchyTree>,
    ) -> BTreeMap<String, GeneralizationSet> {
        trees
            .iter()
            .map(|(name, tree)| {
                (name.clone(), GeneralizationSet::at_depth(tree, self.config.default_maximal_depth))
            })
            .collect()
    }

    /// Protect `table`: bin to the k-anonymity specification under the
    /// default usage metrics, then embed the owner's mark chunk-parallel.
    pub fn protect(
        &self,
        table: &Table,
        trees: &BTreeMap<String, DomainHierarchyTree>,
    ) -> Result<ProtectedRelease, PipelineError> {
        let maximal = self.default_maximal(trees);
        self.protect_with_metrics(table, trees, &maximal)
    }

    /// Protect `table` under explicit per-column usage metrics (maximal
    /// generalization nodes).
    pub fn protect_with_metrics(
        &self,
        table: &Table,
        trees: &BTreeMap<String, DomainHierarchyTree>,
        maximal: &BTreeMap<String, GeneralizationSet>,
    ) -> Result<ProtectedRelease, PipelineError> {
        let binning = self.binning_agent.bin(table, trees, maximal)?;
        self.finish_release(table, trees, binning)
    }

    /// Protect `table` enforcing k-anonymity **per attribute only** (the
    /// mono-attribute stage of the paper; the granularity at which its §6
    /// analysis and Fig. 12–14 experiments operate). Leaves much more
    /// watermark bandwidth than the full combination requirement.
    pub fn protect_per_attribute(
        &self,
        table: &Table,
        trees: &BTreeMap<String, DomainHierarchyTree>,
    ) -> Result<ProtectedRelease, PipelineError> {
        let maximal = self.default_maximal(trees);
        let binning = self.binning_agent.bin_per_attribute(table, trees, &maximal)?;
        self.finish_release(table, trees, binning)
    }

    /// Shared tail of the protect variants: derive the mark and embed it.
    fn finish_release(
        &self,
        original: &Table,
        trees: &BTreeMap<String, DomainHierarchyTree>,
        binning: BinningOutcome,
    ) -> Result<ProtectedRelease, PipelineError> {
        // The owner's mark: either F(statistic of the clear-text identifiers)
        // or a hash of the configured mark text.
        let (mark, ownership) = if self.config.mark_from_statistic {
            let proof = OwnershipProof::from_original_table(original, self.config.mark_len)
                .ok_or(PipelineError::NoIdentifyingColumn)?;
            (proof.mark(), Some(proof))
        } else {
            (Mark::from_bytes(self.config.mark_text.as_bytes(), self.config.mark_len), None)
        };

        let (table, embedding) = self.embed(&binning.table, &binning.columns, trees, &mark)?;
        Ok(ProtectedRelease { table, binning, mark, ownership, embedding })
    }

    /// Embed `mark` into a binned table, sharding the rows over the engine's
    /// worker threads. Chunk reports are merged in chunk order; the result is
    /// byte-identical to the sequential embedding.
    pub fn embed(
        &self,
        binned_table: &Table,
        binning_columns: &[ColumnBinning],
        trees: &BTreeMap<String, DomainHierarchyTree>,
        mark: &Mark,
    ) -> Result<(Table, EmbeddingReport), PipelineError> {
        let plan = self
            .watermarker
            .plan_embed(binned_table.schema(), binning_columns, trees, mark)
            .map_err(PipelineError::Watermark)?;
        let mut table = binned_table.snapshot();
        let kernel =
            self.watermarker.prepare_embed(&plan, &mut table).map_err(PipelineError::Watermark)?;
        let rows = table.len();
        // A 0-row table embeds nothing: return the empty report instead of
        // letting the chunking arithmetic below see a zero length (a served
        // endpoint must never panic on an empty submission).
        if rows == 0 {
            let report = EmbeddingReport::empty(plan.wmd_len());
            return Ok((table, report));
        }
        let threads = self.threads.min(rows).max(1);
        let chunks: Vec<EmbedChunk> = if threads == 1 {
            vec![kernel.run_range(&plan, &table, 0..rows).map_err(PipelineError::Watermark)?]
        } else {
            let chunk_size = rows.div_ceil(threads);
            let kernel_ref = &kernel;
            let plan_ref = &plan;
            let table_ref = &table;
            let results: Vec<Result<EmbedChunk, WatermarkError>> = thread::scope(|scope| {
                let workers: Vec<_> = (0..threads)
                    .map(|i| {
                        let start = (i * chunk_size).min(rows);
                        let end = ((i + 1) * chunk_size).min(rows);
                        scope.spawn(move || kernel_ref.run_range(plan_ref, table_ref, start..end))
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("embedding worker panicked")).collect()
            });
            results.into_iter().collect::<Result<Vec<_>, _>>().map_err(PipelineError::Watermark)?
        };
        let report = kernel.apply(&plan, &mut table, chunks).map_err(PipelineError::Watermark)?;
        Ok((table, report))
    }

    /// Detect the mark in a (possibly attacked) table, using the binning
    /// state retained by the data holder. Votes are collected chunk-parallel
    /// and merged in chunk order, so the report is identical to the
    /// sequential detector's.
    pub fn detect(
        &self,
        table: &Table,
        columns: &[ColumnBinning],
        trees: &BTreeMap<String, DomainHierarchyTree>,
    ) -> Result<DetectionReport, PipelineError> {
        let mark_len = self.config.mark_len;
        let plan = self
            .watermarker
            .plan_detect(table.schema(), columns, trees, mark_len)
            .map_err(PipelineError::Watermark)?;
        let rows = table.len();
        // A 0-row table carries no votes: an empty report, never a panic.
        if rows == 0 {
            return Ok(DetectionTally::new(plan.wmd_len()).into_report(mark_len));
        }
        let kernel =
            self.watermarker.prepare_detect(&plan, table).map_err(PipelineError::Watermark)?;
        let threads = self.threads.min(rows).max(1);
        if threads == 1 {
            let tally =
                kernel.run_range(&plan, table, 0..rows).map_err(PipelineError::Watermark)?;
            return Ok(tally.into_report(mark_len));
        }
        let chunk_size = rows.div_ceil(threads);
        let kernel_ref = &kernel;
        let plan_ref = &plan;
        let results: Vec<Result<DetectionTally, WatermarkError>> = thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|i| {
                    let start = (i * chunk_size).min(rows);
                    let end = ((i + 1) * chunk_size).min(rows);
                    scope.spawn(move || kernel_ref.run_range(plan_ref, table, start..end))
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("detection worker panicked")).collect()
        });
        let mut tally = DetectionTally::new(plan.wmd_len());
        for chunk_tally in results {
            tally.merge(&chunk_tally.map_err(PipelineError::Watermark)?);
        }
        Ok(tally.into_report(mark_len))
    }

    /// Resolve an ownership dispute over `disputed` (§5.4): decrypt the
    /// identifying column with the holder's binning key, recompute the
    /// statistic, compare against the claimed proof and the extracted mark.
    pub fn resolve_ownership(
        &self,
        proof: &OwnershipProof,
        disputed: &Table,
        identifier_column: &str,
        extracted_mark: &[bool],
        tau: f64,
        max_mark_loss: f64,
    ) -> OwnershipVerdict {
        ownership::resolve_dispute(
            proof,
            disputed,
            identifier_column,
            |cipher| self.binning_agent.decrypt_identifier(cipher).ok(),
            tau,
            extracted_mark,
            max_mark_loss,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_datagen::{DatasetConfig, MedicalDataset};
    use medshield_metrics::mark_loss;
    use medshield_relation::csv;

    fn dataset(n: usize) -> MedicalDataset {
        MedicalDataset::generate(&DatasetConfig::small(n))
    }

    fn config(k: usize, eta: u64) -> ProtectionConfig {
        ProtectionConfig::builder().k(k).eta(eta).duplication(2).mark_text("Engine Owner").build()
    }

    fn city_hospital(k: usize, eta: u64) -> ProtectionEngine {
        ProtectionEngine::sequential(
            ProtectionConfig::builder()
                .k(k)
                .eta(eta)
                // Small data sets leave only a modest bandwidth channel, so
                // keep the extended mark short enough for full coverage.
                .duplication(2)
                .mark_text("City Hospital")
                .build(),
        )
    }

    #[test]
    fn parallel_release_is_byte_identical_to_sequential() {
        let ds = dataset(1200);
        let sequential = ProtectionEngine::sequential(config(4, 5));
        let reference = sequential.protect(&ds.table, &ds.trees).unwrap();
        let reference_csv = csv::to_csv(&reference.table);
        for threads in [2usize, 3, 4, 8] {
            let engine = ProtectionEngine::new(config(4, 5), threads).unwrap();
            let release = engine.protect(&ds.table, &ds.trees).unwrap();
            assert_eq!(
                csv::to_csv(&release.table),
                reference_csv,
                "{threads}-thread release must match the sequential bytes"
            );
            assert_eq!(release.embedding, reference.embedding, "{threads}-thread report");
            assert_eq!(release.mark, reference.mark);
        }
    }

    #[test]
    fn parallel_detection_matches_sequential_report() {
        let ds = dataset(1000);
        let sequential = ProtectionEngine::sequential(config(4, 5));
        let release = sequential.protect(&ds.table, &ds.trees).unwrap();
        let reference =
            sequential.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
        assert_eq!(reference.mark, release.mark.bits());
        for threads in [2usize, 4, 8] {
            let engine = ProtectionEngine::new(config(4, 5), threads).unwrap();
            let report =
                engine.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
            assert_eq!(report, reference, "{threads}-thread detection report");
        }
    }

    #[test]
    fn more_threads_than_rows_degrades_gracefully() {
        // A 40-row table offers too little bandwidth to guarantee exact mark
        // recovery; what must hold is that 64 requested workers collapse to
        // the row count and reproduce the sequential results exactly.
        let ds = dataset(40);
        let sequential = ProtectionEngine::sequential(config(2, 2));
        let reference = sequential.protect(&ds.table, &ds.trees).unwrap();
        let reference_report =
            sequential.detect(&reference.table, &reference.binning.columns, &ds.trees).unwrap();
        let engine = ProtectionEngine::new(config(2, 2), 64).unwrap();
        let release = engine.protect(&ds.table, &ds.trees).unwrap();
        assert_eq!(csv::to_csv(&release.table), csv::to_csv(&reference.table));
        let report = engine.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
        assert_eq!(report, reference_report);
    }

    #[test]
    fn zero_threads_is_rejected_consistently() {
        // The engine used to clamp 0 to 1 while the binning agent rejected
        // it; both entry points now agree on a structured error.
        assert_eq!(
            ProtectionEngine::new(config(2, 2), 0).unwrap_err(),
            PipelineError::InvalidThreads
        );
        let mut engine = ProtectionEngine::new(config(2, 2), 2).unwrap();
        assert_eq!(engine.set_threads(0), Err(PipelineError::InvalidThreads));
        // A failed set_threads must leave the engine untouched and usable.
        assert_eq!(engine.threads(), 2);
        engine.set_threads(4).unwrap();
        assert_eq!(engine.threads(), 4);
        // The binning agent's own entry point keeps rejecting zero too.
        let agent = BinningAgent::new(medshield_binning::BinningConfig {
            threads: 0,
            ..Default::default()
        });
        let ds = dataset(40);
        let maximal = ProtectionEngine::sequential(config(2, 2)).default_maximal(&ds.trees);
        assert_eq!(
            agent.bin(&ds.table, &ds.trees, &maximal).unwrap_err(),
            BinningError::InvalidThreads
        );
    }

    #[test]
    fn empty_table_never_panics_and_yields_empty_reports() {
        let ds = dataset(10);
        let empty = Table::new(ds.table.schema().clone());
        for threads in [1usize, 4] {
            let engine = ProtectionEngine::new(config(2, 2), threads).unwrap();
            // Binning an empty table succeeds trivially; embedding selects
            // nothing; detection sees no votes — and none of it may panic.
            let release = engine.protect(&empty, &ds.trees).unwrap();
            assert_eq!(release.table.len(), 0);
            assert_eq!(release.embedding.selected_tuples, 0);
            assert_eq!(release.embedding.embedded_cells, 0);
            assert_eq!(release.embedding.changed_cells, 0);
            let report =
                engine.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
            assert_eq!(report.selected_tuples, 0);
            assert_eq!(report.covered_positions, 0);
            // Detecting an empty (possibly fully-deleted) suspect against a
            // real release's binning state must not panic either.
            let real = engine.protect(&ds.table, &ds.trees).unwrap();
            let report = engine.detect(&empty, &real.binning.columns, &ds.trees).unwrap();
            assert_eq!(report.selected_tuples, 0);
        }
    }

    #[test]
    fn protect_then_detect_roundtrip() {
        let ds = dataset(1000);
        let p = city_hospital(4, 5);
        let release = p.protect(&ds.table, &ds.trees).unwrap();
        assert!(release.binning.satisfied);
        assert!(release.embedding.embedded_cells > 0);
        let detection = p.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
        assert_eq!(detection.mark, release.mark.bits());
    }

    #[test]
    fn statistic_derived_mark_supports_dispute_resolution() {
        let ds = dataset(1000);
        let p = ProtectionEngine::sequential(
            ProtectionConfig::builder()
                .k(4)
                .eta(5)
                .duplication(2)
                .mark_from_statistic(true)
                .build(),
        );
        let release = p.protect(&ds.table, &ds.trees).unwrap();
        let proof = release.ownership.clone().expect("statistic-derived mark carries a proof");
        let detection = p.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
        let verdict = p.resolve_ownership(
            &proof,
            &release.table,
            "ssn",
            &detection.mark,
            proof.statistic.abs() * 0.05 + 1.0,
            0.2,
        );
        assert!(verdict.accepted, "{verdict:?}");
    }

    #[test]
    fn attacker_without_keys_is_rejected_in_dispute() {
        let ds = dataset(600);
        let owner = ProtectionEngine::sequential(
            ProtectionConfig::builder()
                .k(4)
                .eta(8)
                .mark_from_statistic(true)
                .encryption_secret(b"owner-enc".to_vec())
                .watermark_secret(b"owner-wm".to_vec())
                .build(),
        );
        let release = owner.protect(&ds.table, &ds.trees).unwrap();

        // The attacker claims the release as his own, with his own engine
        // (different keys) and a fabricated statistic.
        let attacker = ProtectionEngine::sequential(
            ProtectionConfig::builder()
                .k(4)
                .eta(8)
                .mark_from_statistic(true)
                .encryption_secret(b"attacker-enc".to_vec())
                .watermark_secret(b"attacker-wm".to_vec())
                .build(),
        );
        let bogus_proof = OwnershipProof { statistic: 123456.0, mark_len: 20 };
        let detection =
            attacker.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
        let verdict = attacker.resolve_ownership(
            &bogus_proof,
            &release.table,
            "ssn",
            &detection.mark,
            1000.0,
            0.2,
        );
        assert!(!verdict.accepted);
    }

    #[test]
    fn mark_survives_without_attack_at_various_eta() {
        let ds = dataset(2500);
        for eta in [5u64, 10, 20] {
            let p = city_hospital(4, eta);
            let release = p.protect(&ds.table, &ds.trees).unwrap();
            let detection = p.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
            let loss = mark_loss(release.mark.bits(), &detection.mark);
            assert_eq!(loss, 0.0, "eta={eta}");
        }
    }

    #[test]
    fn per_attribute_protection_roundtrips_and_keeps_columns_anonymous() {
        let ds = dataset(1500);
        let p = city_hospital(6, 10);
        let release = p.protect_per_attribute(&ds.table, &ds.trees).unwrap();
        for column in release.table.schema().quasi_names() {
            assert!(
                medshield_metrics::column_satisfies_k(&release.binning.table, column, 6).unwrap(),
                "column {column}"
            );
        }
        let detection = p.detect(&release.table, &release.binning.columns, &ds.trees).unwrap();
        assert_eq!(detection.mark, release.mark.bits());
        // Per-attribute binning leaves plenty of bandwidth: most selected
        // cells should actually carry a bit.
        assert!(release.embedding.embedded_cells > release.embedding.skipped_cells);
    }

    #[test]
    fn explicit_usage_metrics_are_respected() {
        let ds = dataset(500);
        let p = city_hospital(3, 10);
        // Usage metrics: depth-1 maximal nodes for every column.
        let maximal: BTreeMap<String, GeneralizationSet> =
            ds.trees.iter().map(|(n, t)| (n.clone(), GeneralizationSet::at_depth(t, 1))).collect();
        let release = p.protect_with_metrics(&ds.table, &ds.trees, &maximal).unwrap();
        for cb in &release.binning.columns {
            let tree = &ds.trees[&cb.column];
            assert!(cb.ultimate.is_at_or_below(tree, &maximal[&cb.column]).unwrap());
            for v in release.table.column_values(&cb.column).unwrap() {
                let node = tree.node_for_value(&v).unwrap();
                assert!(maximal[&cb.column].covering_node(tree, node).is_ok());
            }
        }
    }

    /// §5.4 under fire: the rightful owner must still win a dispute over a
    /// release mauled by a composition of the paper's attack models, and an
    /// attacker presenting a fabricated statistic over the same mauled
    /// release must still lose.
    #[test]
    fn dispute_resolves_correctly_on_mixed_attacked_release() {
        use medshield_attacks::{Attack, MixedAttack, SubsetAlteration, SubsetDeletion};

        let ds = dataset(1500);
        let p = ProtectionEngine::sequential(
            ProtectionConfig::builder()
                .k(4)
                .eta(5)
                .duplication(2)
                .mark_from_statistic(true)
                .build(),
        );
        let release = p.protect(&ds.table, &ds.trees).unwrap();
        let proof = release.ownership.clone().expect("statistic-derived mark carries a proof");

        // A mild mixed attack: delete 10% of the tuples, then alter 5%.
        let attack = MixedAttack::new()
            .then(SubsetDeletion::random(0.10, 7))
            .then(SubsetAlteration::new(0.05, 8));
        let attacked = attack.apply(&release.table);
        assert!(attacked.len() < release.table.len());

        let detection = p.detect(&attacked, &release.binning.columns, &ds.trees).unwrap();
        let tau = proof.statistic.abs() * 0.05 + 1.0;
        let verdict = p.resolve_ownership(&proof, &attacked, "ssn", &detection.mark, tau, 0.25);
        assert!(verdict.statistic_consistent, "{verdict:?}");
        assert!(verdict.accepted, "owner must prevail on a mildly attacked release: {verdict:?}");

        // The thief's claim over the very same attacked table: wrong statistic
        // (he cannot decrypt the identifiers to compute the real one).
        let bogus = OwnershipProof { statistic: proof.statistic + 10_000_000.0, mark_len: 20 };
        let thief_verdict =
            p.resolve_ownership(&bogus, &attacked, "ssn", &detection.mark, tau, 0.25);
        assert!(!thief_verdict.accepted, "{thief_verdict:?}");
    }

    #[test]
    fn pipeline_error_display() {
        let e = PipelineError::NoIdentifyingColumn;
        assert!(e.to_string().contains("identifying"));
        let e = PipelineError::Binning(BinningError::InvalidK);
        assert!(e.to_string().contains("binning failed"));
        let e = PipelineError::Watermark(WatermarkError::EmptyMark);
        assert!(e.to_string().contains("watermarking failed"));
    }
}
