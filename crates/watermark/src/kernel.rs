//! Columnar batch kernels for watermark embedding and detection.
//!
//! The row-at-a-time kernels used to redo three pieces of work for every
//! (tuple, column) cell: re-derive the tuple's identity bytes from owned
//! [`Value`]s, re-run the HMAC key schedule inside every PRF call, and
//! re-resolve the cell's value against the domain hierarchy tree. With the
//! columnar [`Table`] core all three are hoisted out of the row loop:
//!
//! * **Identity bytes** — the framed byte encoding of each dictionary entry
//!   of an identity column is precomputed once per run (`IdentCodec`);
//!   the per-row work is a code lookup plus a `memcpy`. Integer identity
//!   columns are framed inline from the native `i64` vector.
//! * **PRF label schedules** — the per-column `bit:` / `perm:` label prefixes
//!   are precomputed ([`KeyedPrf::label_prefix`]) and each per-cell PRF is a
//!   single midstate-cached HMAC over `prefix ‖ ident`
//!   ([`KeyedPrf::prefixed_value_wide`]). The 128-bit wide value is reduced
//!   per sibling-set size with [`KeyedPrf::reduce_wide`], which is exactly
//!   the reduction the labeled per-call path performs — so one HMAC now
//!   serves every level of a tree walk.
//! * **Tree resolution** — everything about a cell that depends only on its
//!   *value* (null checks, ultimate/maximal node lookup, detection's climb
//!   and per-level vote) is memoized per dictionary code, so each distinct
//!   value is resolved once per run instead of once per row.
//!
//! Embedding never mutates the table inside the hot loop: workers scan
//! disjoint row ranges of a shared `&Table` and emit per-column *edit lists*
//! of `(row, dictionary code)` pairs ([`EmbedChunk`]), which
//! [`EmbedKernel::apply`] writes back on the caller's thread. This is what
//! lets the chunk-parallel engine share one immutable table across workers
//! while staying byte-identical to the sequential path.

use crate::error::WatermarkError;
use crate::hierarchical::{climb_and_read, DetectionTally, EmbeddingReport};
use crate::plan::{DetectPlan, EmbedPlan, PlanColumn};
use crate::select::{set_parity, ResolvedIdentity};
use crate::voting::{level_weights, majority, weighted_majority};
use medshield_crypto::KeyedPrf;
use medshield_dht::{DomainHierarchyTree, GeneralizationSet, NodeId};
use medshield_relation::{Column, ColumnData, Table, Value};
use std::collections::HashMap;
use std::ops::Range;

/// Length-prefix one identity field the way `ResolvedIdentity::bytes` does.
fn frame_value_into(value: &Value, out: &mut Vec<u8>) {
    let field = value.canonical_bytes();
    out.extend_from_slice(&(field.len() as u64).to_be_bytes());
    out.extend_from_slice(&field);
}

/// One identity column, pre-encoded for per-row byte assembly.
#[derive(Debug, Clone)]
enum IdentField {
    /// A native integer column: framed inline from the `i64` vector.
    Int {
        /// Schema index of the column.
        col: usize,
    },
    /// A dictionary column: every entry's framed bytes precomputed once.
    Dict {
        /// Schema index of the column.
        col: usize,
        /// Framed identity bytes per dictionary code.
        framed: Vec<Vec<u8>>,
    },
}

/// The per-run identity encoder: emits exactly the bytes of
/// [`ResolvedIdentity::bytes`] for any row, without materializing a `Value`.
#[derive(Debug, Clone)]
struct IdentCodec {
    fields: Vec<IdentField>,
}

impl IdentCodec {
    /// Precompute the framed encodings against the table's current
    /// dictionaries. Must be built *after* any dictionary growth of the run
    /// (embedding interns its write targets first).
    fn build(identity: &ResolvedIdentity, table: &Table) -> Self {
        let fields = identity
            .indices()
            .iter()
            .map(|&col| match table.columns()[col].data() {
                ColumnData::Int(_) => IdentField::Int { col },
                ColumnData::Dict { dict, .. } => {
                    let mut framed = Vec::with_capacity(dict.len());
                    for v in dict {
                        let mut buf = Vec::new();
                        frame_value_into(v, &mut buf);
                        framed.push(buf);
                    }
                    IdentField::Dict { col, framed }
                }
            })
            .collect();
        IdentCodec { fields }
    }

    /// Append the identity bytes of `row` to `out`.
    fn write(&self, columns: &[Column], row: usize, out: &mut Vec<u8>) {
        for field in &self.fields {
            match field {
                IdentField::Int { col } => {
                    if let ColumnData::Int(values) = columns[*col].data() {
                        // Value::Int canonical bytes: tag 0x01 + 8 BE bytes,
                        // hence a fixed 9-byte length prefix.
                        out.extend_from_slice(&9u64.to_be_bytes());
                        out.push(0x01);
                        out.extend_from_slice(&values[row].to_be_bytes());
                    } else {
                        // The column was promoted after this codec was built;
                        // fall back to the materializing path.
                        frame_value_into(&columns[*col].value(row), out);
                    }
                }
                IdentField::Dict { col, framed } => {
                    let mut done = false;
                    if let ColumnData::Dict { codes, .. } = columns[*col].data() {
                        if let Some(bytes) = framed.get(codes[row] as usize) {
                            out.extend_from_slice(bytes);
                            done = true;
                        }
                    }
                    if !done {
                        frame_value_into(&columns[*col].value(row), out);
                    }
                }
            }
        }
    }
}

/// The watermarking scheme: which walk embedding performs per cell and
/// which vote detection reads from a cell's value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scheme {
    /// Fig. 9: descend from the maximal node, encoding the bit at every
    /// level, until an ultimate node is reached; detection climbs back and
    /// folds the per-level parities.
    Hierarchical,
    /// §5.2 baseline: permute within the ultimate node's sibling set only;
    /// detection reads that one parity.
    SingleLevel,
}

/// What a cell's *value* alone determines about embedding into it.
#[derive(Debug, Clone, Copy)]
enum CellMemo {
    /// Nothing to do and nothing to count (single-level null / unresolvable
    /// value, or a dictionary entry no row references).
    Ignore,
    /// Skipped cell, counted in [`EmbeddingReport::skipped_cells`].
    Skip,
    /// The maximal-node lookup failed during preparation; re-run it on first
    /// hit so a selected row surfaces exactly the error the row-at-a-time
    /// path raised (unselected rows never did).
    Recheck {
        /// The cell's ultimate generalization node.
        target: NodeId,
    },
    /// Ready to embed: walk from `node`.
    Start {
        /// Hierarchical: the covering maximal node. Single-level: the cell's
        /// ultimate node.
        node: NodeId,
    },
}

/// One planned column's precomputed embedding state.
#[derive(Debug, Clone)]
struct EmbedColumn {
    /// Per-dictionary-code memo of the value-determined work.
    memo: Vec<CellMemo>,
    /// Dictionary code of every ultimate node's value, interned up front so
    /// workers can emit codes without touching the dictionary.
    node_code: HashMap<NodeId, u32>,
    /// Precomputed `bit:<column>` label prefix.
    bit_prefix: Vec<u8>,
    /// Precomputed `perm:<column>` label prefix.
    perm_prefix: Vec<u8>,
}

/// One row's write-back: the new dictionary code for a (row, column) cell.
/// The `Value` variant only fires on the defensive walk exit (a non-ultimate
/// leaf), which consistent binning state never produces.
#[derive(Debug, Clone)]
enum Edit {
    Code(usize, u32),
    Value(usize, Value),
}

/// The edits and report of one row range, produced by
/// [`EmbedKernel::run_range`] and consumed by [`EmbedKernel::apply`].
#[derive(Debug, Clone)]
pub struct EmbedChunk {
    report: EmbeddingReport,
    edits: Vec<Vec<Edit>>,
}

/// A prepared embedding run over a columnar table: per-code memos, interned
/// write targets and an identity codec. Immutable once built — workers share
/// it by reference across threads.
#[derive(Debug, Clone)]
pub struct EmbedKernel {
    scheme: Scheme,
    columns: Vec<EmbedColumn>,
    ident: Option<IdentCodec>,
}

impl EmbedKernel {
    /// Prepare `table` for an embedding run of `plan`: promote every target
    /// column to dictionary encoding, intern the values the walks can write,
    /// memoize the value-determined work per dictionary code, and freeze the
    /// identity codec. The table must not be modified between this call and
    /// [`EmbedKernel::apply`], other than by `apply` itself.
    pub(crate) fn prepare(
        plan: &EmbedPlan<'_>,
        table: &mut Table,
        scheme: Scheme,
    ) -> Result<Self, WatermarkError> {
        let mut columns = Vec::with_capacity(plan.core.columns.len());
        for pc in &plan.core.columns {
            columns.push(EmbedColumn::prepare(pc, table, scheme)?);
        }
        let ident = plan.core.identity.as_ref().map(|id| IdentCodec::build(id, table));
        Ok(EmbedKernel { scheme, columns, ident })
    }

    /// Embed into the rows of `range`, reading the shared `table` and
    /// emitting the edits instead of writing them. Ranges of one run must be
    /// disjoint; merging the chunks in row order via [`EmbedKernel::apply`]
    /// reproduces the sequential result exactly, because every per-cell
    /// decision depends only on the tuple's own pre-edit values.
    pub fn run_range(
        &self,
        plan: &EmbedPlan<'_>,
        table: &Table,
        range: Range<usize>,
    ) -> Result<EmbedChunk, WatermarkError> {
        let mut report = EmbeddingReport::empty(plan.wmd_len());
        let mut edits: Vec<Vec<Edit>> = vec![Vec::new(); self.columns.len()];
        let Some(ident) = &self.ident else {
            // No identity: nothing can be selected (embed plans always carry
            // one; this mirrors the old guard against misused detect plans).
            return Ok(EmbedChunk { report, edits });
        };
        let columns = table.columns();
        let prf = plan.core.selector.permutation_prf();
        let wmd_len = plan.wmd.len() as u64;
        let mut buf = Vec::new();
        for row in range {
            buf.clear();
            ident.write(columns, row, &mut buf);
            if !plan.core.selector.selects(&buf) {
                continue;
            }
            report.selected_tuples += 1;
            for (ci, (st, pc)) in self.columns.iter().zip(&plan.core.columns).enumerate() {
                let code = match columns[pc.index].data() {
                    ColumnData::Dict { codes, .. } => codes[row],
                    // Prepared columns are always dictionary-encoded; treat a
                    // mismatch as an unresolvable cell rather than panicking.
                    ColumnData::Int(_) => continue,
                };
                let start = match st.memo.get(code as usize).copied().unwrap_or(CellMemo::Ignore) {
                    CellMemo::Ignore => continue,
                    CellMemo::Skip => {
                        report.skipped_cells += 1;
                        continue;
                    }
                    CellMemo::Recheck { target } => {
                        let max_node = pc
                            .binning
                            .maximal
                            .covering_node(pc.tree, target)
                            .map_err(WatermarkError::Dht)?;
                        if pc.binning.ultimate.contains(max_node) {
                            report.skipped_cells += 1;
                            continue;
                        }
                        max_node
                    }
                    CellMemo::Start { node } => node,
                };
                let bit_wide = prf.prefixed_value_wide(&st.bit_prefix, &buf);
                let bit = plan.wmd[KeyedPrf::reduce_wide(bit_wide, wmd_len) as usize];
                let perm_wide = prf.prefixed_value_wide(&st.perm_prefix, &buf);
                let new_node = match self.scheme {
                    Scheme::Hierarchical => {
                        descend_wide(pc.tree, &pc.binning.ultimate, start, perm_wide, bit)?
                    }
                    Scheme::SingleLevel => {
                        match permute_wide(pc.tree, &pc.binning.ultimate, start, perm_wide, bit)? {
                            Some(node) => node,
                            None => continue,
                        }
                    }
                };
                report.embedded_cells += 1;
                match st.node_code.get(&new_node) {
                    Some(&new_code) => {
                        if new_code != code {
                            report.changed_cells += 1;
                            edits[ci].push(Edit::Code(row, new_code));
                        }
                    }
                    None => {
                        // Defensive walk exit on a non-ultimate leaf: write
                        // the value through the slow path.
                        let new_value =
                            pc.tree.node_value(new_node).map_err(WatermarkError::Dht)?;
                        if new_value != columns[pc.index].value(row) {
                            report.changed_cells += 1;
                        }
                        edits[ci].push(Edit::Value(row, new_value));
                    }
                }
            }
        }
        Ok(EmbedChunk { report, edits })
    }

    /// Write the chunks' edit lists back into `table` (in chunk order, on the
    /// caller's thread) and merge their reports.
    pub fn apply(
        &self,
        plan: &EmbedPlan<'_>,
        table: &mut Table,
        chunks: Vec<EmbedChunk>,
    ) -> Result<EmbeddingReport, WatermarkError> {
        let mut report = EmbeddingReport::empty(plan.wmd_len());
        for chunk in &chunks {
            report.merge(&chunk.report);
        }
        for chunk in chunks {
            for (ci, edits) in chunk.edits.into_iter().enumerate() {
                if edits.is_empty() {
                    continue;
                }
                let index = plan.core.columns[ci].index;
                let Some(column) = table.column_mut(index) else { continue };
                let dict = column.promote();
                for edit in edits {
                    match edit {
                        Edit::Code(row, code) => dict.set_code(row, code),
                        Edit::Value(row, value) => dict.set(row, &value),
                    }
                }
            }
        }
        Ok(report)
    }
}

impl EmbedColumn {
    /// Promote the column, intern every ultimate node's value, and memoize
    /// the value-determined embedding decision per present dictionary code.
    fn prepare(
        pc: &PlanColumn<'_>,
        table: &mut Table,
        scheme: Scheme,
    ) -> Result<Self, WatermarkError> {
        let column_name = &pc.binning.column;
        let bit_prefix = KeyedPrf::label_prefix(&format!("bit:{column_name}"));
        let perm_prefix = KeyedPrf::label_prefix(&format!("perm:{column_name}"));
        let Some(column) = table.column_mut(pc.index) else {
            // The plan resolved this index against the same schema; an
            // out-of-range index means the table and plan diverged.
            return Err(WatermarkError::Relation(
                medshield_relation::RelationError::UnknownColumn(column_name.clone()),
            ));
        };
        let dict = column.promote();
        let mut node_code = HashMap::with_capacity(pc.binning.ultimate.len());
        for &node in pc.binning.ultimate.nodes() {
            let value = pc.tree.node_value(node).map_err(WatermarkError::Dht)?;
            node_code.insert(node, dict.intern(&value));
        }
        // Memoize only codes some row actually references: stale dictionary
        // entries must not raise errors the row loop never would.
        let mut present = vec![false; dict.dict().len()];
        for &code in dict.codes() {
            if let Some(slot) = present.get_mut(code as usize) {
                *slot = true;
            }
        }
        let mut memo = Vec::with_capacity(present.len());
        for (code, &p) in present.iter().enumerate() {
            if !p {
                memo.push(CellMemo::Ignore);
                continue;
            }
            let value = &dict.dict()[code];
            memo.push(match scheme {
                Scheme::Hierarchical => hierarchical_cell_memo(pc, value),
                Scheme::SingleLevel => single_level_cell_memo(pc, value),
            });
        }
        Ok(EmbedColumn { memo, node_code, bit_prefix, perm_prefix })
    }
}

/// The value-determined part of the hierarchical embedding decision.
fn hierarchical_cell_memo(pc: &PlanColumn<'_>, value: &Value) -> CellMemo {
    if value.is_null() {
        return CellMemo::Skip;
    }
    let Ok(target) = pc.binning.ultimate.node_for_value(pc.tree, value) else {
        return CellMemo::Skip;
    };
    match pc.binning.maximal.covering_node(pc.tree, target) {
        // Surface the error lazily: the row loop only raised it for
        // *selected* rows holding this value.
        Err(_) => CellMemo::Recheck { target },
        Ok(max_node) => {
            if pc.binning.ultimate.contains(max_node) {
                // No gap at this cell: permuting would exceed the usage
                // metrics (§5.1 special case).
                CellMemo::Skip
            } else {
                CellMemo::Start { node: max_node }
            }
        }
    }
}

/// The value-determined part of the single-level embedding decision.
fn single_level_cell_memo(pc: &PlanColumn<'_>, value: &Value) -> CellMemo {
    if value.is_null() {
        return CellMemo::Ignore;
    }
    match pc.binning.ultimate.node_for_value(pc.tree, value) {
        Ok(node) => CellMemo::Start { node },
        Err(_) => CellMemo::Ignore,
    }
}

/// Walk down from `start` (a maximal generalization node), at each level
/// picking the child whose sorted-set index parity equals `bit`, until an
/// ultimate generalization node is reached. The per-level index is the
/// shared 128-bit permutation value reduced by the sibling-set size —
/// exactly what the labeled per-level PRF call computed.
fn descend_wide(
    tree: &DomainHierarchyTree,
    ultimate: &GeneralizationSet,
    start: NodeId,
    perm_wide: u128,
    bit: bool,
) -> Result<NodeId, WatermarkError> {
    let mut node = start;
    loop {
        let children = tree.children(node).map_err(WatermarkError::Dht)?;
        if children.is_empty() {
            // Defensive: a leaf that is not an ultimate node. This cannot
            // happen for consistent binning state, but never loop.
            return Ok(node);
        }
        let raw = KeyedPrf::reduce_wide(perm_wide, children.len() as u64) as usize;
        let idx = set_parity(raw, bit, children.len());
        node = children[idx];
        if ultimate.contains(node) {
            return Ok(node);
        }
    }
}

/// Permute `node` within its sibling set so the chosen sibling's index parity
/// encodes `bit`, then descend to an ultimate node (the §5.2 baseline walk).
/// Returns `None` for a singleton sibling set or a sibling subtree holding no
/// ultimate node.
fn permute_wide(
    tree: &DomainHierarchyTree,
    ultimate: &GeneralizationSet,
    node: NodeId,
    perm_wide: u128,
    bit: bool,
) -> Result<Option<NodeId>, WatermarkError> {
    let siblings = tree.siblings(node).map_err(WatermarkError::Dht)?;
    if siblings.len() <= 1 {
        return Ok(None);
    }
    let raw = KeyedPrf::reduce_wide(perm_wide, siblings.len() as u64) as usize;
    let idx = set_parity(raw, bit, siblings.len());
    let mut target = siblings[idx];
    loop {
        if ultimate.contains(target) {
            return Ok(Some(target));
        }
        let children = tree.children(target).map_err(WatermarkError::Dht)?;
        if children.is_empty() {
            // The sibling's subtree lies above the ultimate level; give up on
            // this cell rather than emit an invalid value.
            return Ok(None);
        }
        let raw = KeyedPrf::reduce_wide(perm_wide, children.len() as u64) as usize;
        let idx = set_parity(raw, bit, children.len());
        target = children[idx];
    }
}

/// Per-column vote memo: what each distinct cell value contributes to
/// detection, resolved once per run.
#[derive(Debug, Clone)]
enum VoteMemo {
    /// Dictionary column: vote per code (`None` = no vote).
    Dict(Vec<Option<bool>>),
    /// Native integer column: vote per distinct value present in the rows.
    Int(HashMap<i64, Option<bool>>),
}

/// One planned column's precomputed detection state.
#[derive(Debug, Clone)]
struct DetectColumn {
    votes: VoteMemo,
    /// Precomputed `bit:<column>` label prefix.
    bit_prefix: Vec<u8>,
}

/// A prepared detection run: per-value vote memos plus the identity codec.
/// Immutable and shareable across worker threads; the table must not change
/// between `DetectKernel::prepare`-time and the last
/// [`DetectKernel::run_range`] call.
#[derive(Debug, Clone)]
pub struct DetectKernel {
    columns: Vec<DetectColumn>,
    ident: Option<IdentCodec>,
}

impl DetectKernel {
    /// Memoize each planned column's per-value vote under `scheme` and
    /// freeze the identity codec.
    pub(crate) fn prepare(
        plan: &DetectPlan<'_>,
        table: &Table,
        scheme: Scheme,
    ) -> Result<Self, WatermarkError> {
        let cell_vote = |pc: &PlanColumn<'_>, value: &Value| match scheme {
            Scheme::Hierarchical => hierarchical_cell_vote(pc, value, plan.weighted_voting),
            Scheme::SingleLevel => single_level_cell_vote(pc, value),
        };
        let mut columns = Vec::with_capacity(plan.core.columns.len());
        for pc in &plan.core.columns {
            let bit_prefix = KeyedPrf::label_prefix(&format!("bit:{}", pc.binning.column));
            let votes = match table.columns()[pc.index].data() {
                ColumnData::Int(values) => {
                    let mut memo = HashMap::new();
                    for &v in values {
                        if let std::collections::hash_map::Entry::Vacant(e) = memo.entry(v) {
                            e.insert(cell_vote(pc, &Value::Int(v))?);
                        }
                    }
                    VoteMemo::Int(memo)
                }
                ColumnData::Dict { dict, codes } => {
                    let mut present = vec![false; dict.len()];
                    for &code in codes {
                        if let Some(slot) = present.get_mut(code as usize) {
                            *slot = true;
                        }
                    }
                    let mut memo = Vec::with_capacity(dict.len());
                    for (code, &p) in present.iter().enumerate() {
                        // Stale entries no row references cast no vote and
                        // must not raise errors.
                        memo.push(if p { cell_vote(pc, &dict[code])? } else { None });
                    }
                    VoteMemo::Dict(memo)
                }
            };
            columns.push(DetectColumn { votes, bit_prefix });
        }
        let ident = plan.core.identity.as_ref().map(|id| IdentCodec::build(id, table));
        Ok(DetectKernel { columns, ident })
    }

    /// Collect the votes of the rows in `range` into a fresh tally. Tallies
    /// of disjoint ranges merge (in any order) to exactly the sequential
    /// run's tally.
    pub fn run_range(
        &self,
        plan: &DetectPlan<'_>,
        table: &Table,
        range: Range<usize>,
    ) -> Result<DetectionTally, WatermarkError> {
        let mut tally = DetectionTally::new(plan.wmd_len());
        let Some(ident) = &self.ident else {
            // The suspect table lost the virtual-key columns: no tuple can be
            // re-identified, so the run legitimately collects zero votes.
            return Ok(tally);
        };
        let columns = table.columns();
        let prf = plan.core.selector.permutation_prf();
        let wmd_len = plan.wmd_len() as u64;
        let mut buf = Vec::new();
        for row in range {
            buf.clear();
            ident.write(columns, row, &mut buf);
            if !plan.core.selector.selects(&buf) {
                continue;
            }
            tally.note_selected();
            for (dc, pc) in self.columns.iter().zip(&plan.core.columns) {
                let vote = match (&dc.votes, columns[pc.index].data()) {
                    (VoteMemo::Dict(memo), ColumnData::Dict { codes, .. }) => {
                        memo.get(codes[row] as usize).copied().flatten()
                    }
                    (VoteMemo::Int(memo), ColumnData::Int(values)) => {
                        memo.get(&values[row]).copied().flatten()
                    }
                    // Layout changed between prepare and run (contract
                    // violation): treat as attacker garbage, no vote.
                    _ => None,
                };
                let Some(bit) = vote else { continue };
                let pos =
                    KeyedPrf::reduce_wide(prf.prefixed_value_wide(&dc.bit_prefix, &buf), wmd_len);
                tally.vote(pos as usize, bit, 1.0)?;
            }
        }
        Ok(tally)
    }
}

/// The hierarchical scheme's per-value detection vote: climb from the
/// value's node to its maximal generalization node and fold the per-level
/// parities by (optionally weighted) majority.
fn hierarchical_cell_vote(
    pc: &PlanColumn<'_>,
    value: &Value,
    weighted: bool,
) -> Result<Option<bool>, WatermarkError> {
    if value.is_null() {
        return Ok(None);
    }
    // Attacker garbage: no vote.
    let Ok(node) = pc.tree.node_for_value(value) else { return Ok(None) };
    let Some(level_bits) = climb_and_read(pc.tree, &pc.binning.maximal, node)? else {
        return Ok(None);
    };
    if level_bits.is_empty() {
        return Ok(None);
    }
    let bit = if weighted {
        weighted_majority(&level_bits, &level_weights(level_bits.len()))?
    } else {
        majority(&level_bits)
    };
    Ok(Some(bit))
}

/// The single-level scheme's per-value detection vote: the parity of the
/// value's ultimate-node index within its sibling set.
fn single_level_cell_vote(
    pc: &PlanColumn<'_>,
    value: &Value,
) -> Result<Option<bool>, WatermarkError> {
    let Ok(node) = pc.tree.node_for_value(value) else { return Ok(None) };
    if !pc.binning.ultimate.contains(node) {
        // The value no longer sits at the ultimate level: the single-level
        // bit is gone.
        return Ok(None);
    }
    let siblings = pc.tree.siblings(node).map_err(WatermarkError::Dht)?;
    if siblings.len() <= 1 {
        // A singleton sibling set carries no information (the embedder
        // skipped it too).
        return Ok(None);
    }
    let Some(idx) = DomainHierarchyTree::index_in(node, &siblings) else { return Ok(None) };
    Ok(Some(idx % 2 == 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::TupleIdentity;
    use medshield_relation::{ColumnDef, ColumnRole, Schema};

    /// `id` is an integer identifier, `ssn` a text one; `age` and `doctor`
    /// serve as a virtual key mixing both encodings.
    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("id", ColumnRole::Identifying),
            ColumnDef::new("ssn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..40i64 {
            t.insert(vec![
                Value::int(i * 7 - 100),
                Value::text(format!("ssn-{}", i % 13)),
                Value::int(20 + i % 5),
                if i % 4 == 0 { Value::Null } else { Value::text(format!("doc-{}", i % 3)) },
            ])
            .unwrap();
        }
        t
    }

    /// Every row's codec bytes equal the reference `ResolvedIdentity::bytes`.
    fn assert_codec_matches(codec: &IdentCodec, identity: &ResolvedIdentity, table: &Table) {
        for row in 0..table.len() {
            let mut out = Vec::new();
            codec.write(table.columns(), row, &mut out);
            assert_eq!(out, identity.bytes(table, row), "row {row}");
        }
    }

    fn resolve(identity: &TupleIdentity, table: &Table) -> ResolvedIdentity {
        identity.resolve(table.schema()).unwrap()
    }

    #[test]
    fn codec_matches_reference_on_int_and_dict_identifiers() {
        let t = table();
        let identity = resolve(&TupleIdentity::IdentifyingColumns, &t);
        let codec = IdentCodec::build(&identity, &t);
        assert!(matches!(codec.fields[0], IdentField::Int { col: 0 }));
        assert!(matches!(codec.fields[1], IdentField::Dict { col: 1, .. }));
        assert_codec_matches(&codec, &identity, &t);
    }

    #[test]
    fn codec_matches_reference_on_a_virtual_key() {
        let t = table();
        let identity = resolve(&TupleIdentity::VirtualKey(vec!["doctor".into(), "age".into()]), &t);
        assert_codec_matches(&IdentCodec::build(&identity, &t), &identity, &t);
    }

    #[test]
    fn codec_falls_back_for_a_column_promoted_after_build() {
        let mut t = table();
        let identity = resolve(&TupleIdentity::IdentifyingColumns, &t);
        let codec = IdentCodec::build(&identity, &t);
        // A non-integer write promotes the integer column to a dictionary.
        t.column_mut(0).unwrap().set(3, &Value::interval(0, 10));
        assert!(t.column(0).unwrap().as_dict().is_some());
        assert_codec_matches(&codec, &identity, &t);
    }

    #[test]
    fn codec_falls_back_for_a_code_interned_after_build() {
        let mut t = table();
        let identity = resolve(&TupleIdentity::IdentifyingColumns, &t);
        let codec = IdentCodec::build(&identity, &t);
        let IdentField::Dict { framed, .. } = &codec.fields[1] else { panic!("dict field") };
        let built = framed.len();
        t.column_mut(1).unwrap().set(5, &Value::text("ssn-new"));
        assert_eq!(t.column(1).unwrap().as_dict().unwrap().codes()[5] as usize, built);
        assert_codec_matches(&codec, &identity, &t);
    }
}
