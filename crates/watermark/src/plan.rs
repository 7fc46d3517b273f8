//! Precomputed per-run state for chunked embedding and detection.
//!
//! The per-tuple work of both watermarking schemes — keyed selection,
//! bit-index derivation, tree walks — depends only on the tuple's own values
//! (Eq. 5 keys every decision on the tuple identity, never on row position).
//! Everything that *does* need the table as a whole (schema lookups,
//! tree/binning validation, mark duplication) is hoisted into a plan built
//! once per run. Workers then process disjoint row ranges of the shared
//! table against the shared plan, which is what makes the chunk-parallel
//! engine's output byte-identical to the sequential path.

use crate::error::WatermarkError;
use crate::key::{Mark, WatermarkConfig};
use crate::select::{ResolvedIdentity, Selector, TupleIdentity};
use medshield_binning::ColumnBinning;
use medshield_dht::DomainHierarchyTree;
use medshield_relation::Schema;
use std::collections::BTreeMap;

/// One watermark-target column, fully resolved: its index in the schema, its
/// binning state, and its domain hierarchy tree.
#[derive(Debug, Clone)]
pub(crate) struct PlanColumn<'a> {
    /// Index of the column in the (binned) table's schema.
    pub index: usize,
    /// The column's binning state (maximal / ultimate generalization nodes).
    pub binning: &'a ColumnBinning,
    /// The column's domain hierarchy tree.
    pub tree: &'a DomainHierarchyTree,
}

/// How to treat a target column that the table's schema does not contain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MissingColumns {
    /// Fail the plan — embedding must be able to write every target column.
    Reject,
    /// Drop the column from the plan — a suspect table may have had columns
    /// deleted by an attacker, and detection simply collects no votes there.
    Skip,
}

/// State shared by every chunk of one embedding or detection run.
#[derive(Debug, Clone)]
pub(crate) struct PlanCore<'a> {
    /// The keyed selector (Eq. 5 + permutation / bit indices).
    pub selector: Selector,
    /// The schema-resolved tuple identity source. `None` only in detection
    /// plans whose virtual-key columns the (attacked) table no longer has:
    /// no identity means no tuple can be selected, so such a run simply
    /// collects zero votes instead of failing.
    pub identity: Option<ResolvedIdentity>,
    /// The resolved target columns.
    pub columns: Vec<PlanColumn<'a>>,
}

impl<'a> PlanCore<'a> {
    /// Resolve the run-wide state: selector, identity and target columns.
    pub fn build(
        config: &WatermarkConfig,
        schema: &Schema,
        binning_columns: &'a [ColumnBinning],
        trees: &'a BTreeMap<String, DomainHierarchyTree>,
        missing: MissingColumns,
    ) -> Result<Self, WatermarkError> {
        let selector = Selector::new(&config.key)?;
        let identity = match TupleIdentity::from_virtual_columns(&config.virtual_key_columns)
            .resolve(schema)
        {
            Ok(resolved) => Some(resolved),
            // A virtual-key column the suspect table no longer carries: in
            // skip mode (detection) the run degrades to a no-votes report, as
            // the sequential detectors always did. Misconfiguration
            // (NoIdentity, duplicate columns) still fails in either mode.
            Err(WatermarkError::Relation(_)) if missing == MissingColumns::Skip => None,
            Err(e) => return Err(e),
        };
        let targets: Vec<&'a ColumnBinning> = match &config.columns {
            Some(wanted) => binning_columns.iter().filter(|c| wanted.contains(&c.column)).collect(),
            None => binning_columns.iter().collect(),
        };
        let mut columns = Vec::with_capacity(targets.len());
        for cb in targets {
            let tree = trees
                .get(&cb.column)
                .ok_or_else(|| WatermarkError::MissingTree(cb.column.clone()))?;
            match schema.index_of(&cb.column) {
                Ok(index) => columns.push(PlanColumn { index, binning: cb, tree }),
                Err(e) => match missing {
                    MissingColumns::Reject => return Err(e.into()),
                    MissingColumns::Skip => continue,
                },
            }
        }
        Ok(PlanCore { selector, identity, columns })
    }
}

/// Everything a worker needs to embed the mark into a row chunk. Built by
/// [`Watermarker::plan_embed`](crate::Watermarker::plan_embed); immutable
/// and shareable across threads.
#[derive(Debug, Clone)]
pub struct EmbedPlan<'a> {
    pub(crate) core: PlanCore<'a>,
    /// The extended (duplicated) mark `wmd`.
    pub(crate) wmd: Vec<bool>,
}

impl<'a> EmbedPlan<'a> {
    pub(crate) fn build(
        config: &WatermarkConfig,
        schema: &Schema,
        binning_columns: &'a [ColumnBinning],
        trees: &'a BTreeMap<String, DomainHierarchyTree>,
        mark: &Mark,
    ) -> Result<Self, WatermarkError> {
        if mark.is_empty() {
            return Err(WatermarkError::EmptyMark);
        }
        let core = PlanCore::build(config, schema, binning_columns, trees, MissingColumns::Reject)?;
        Ok(EmbedPlan { core, wmd: mark.duplicate(config.duplication) })
    }

    /// Length of the extended mark `wmd`.
    pub fn wmd_len(&self) -> usize {
        self.wmd.len()
    }
}

/// Everything a worker needs to collect detection votes from a row chunk.
/// Built by [`Watermarker::plan_detect`](crate::Watermarker::plan_detect);
/// immutable and shareable across threads.
#[derive(Debug, Clone)]
pub struct DetectPlan<'a> {
    pub(crate) core: PlanCore<'a>,
    /// Length of the extended mark `wmd`.
    pub(crate) wmd_len: usize,
    /// Fold the hierarchical per-level parities by level-weighted majority.
    pub(crate) weighted_voting: bool,
}

impl<'a> DetectPlan<'a> {
    pub(crate) fn build(
        config: &WatermarkConfig,
        schema: &Schema,
        binning_columns: &'a [ColumnBinning],
        trees: &'a BTreeMap<String, DomainHierarchyTree>,
        mark_len: usize,
    ) -> Result<Self, WatermarkError> {
        if mark_len == 0 {
            return Err(WatermarkError::EmptyMark);
        }
        let core = PlanCore::build(config, schema, binning_columns, trees, MissingColumns::Skip)?;
        Ok(DetectPlan {
            core,
            wmd_len: mark_len * config.duplication.max(1),
            weighted_voting: config.weighted_voting,
        })
    }

    /// Length of the extended mark `wmd`.
    pub fn wmd_len(&self) -> usize {
        self.wmd_len
    }
}
