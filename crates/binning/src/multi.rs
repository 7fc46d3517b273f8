//! Multi-attribute binning: `GenUltiNd` (Fig. 7 of the paper).
//!
//! After mono-attribute binning each attribute satisfies k-anonymity on its
//! own, but combinations of attributes may not (§4.2). Multi-attribute
//! binning therefore searches, per column, the allowable generalizations
//! lying between the minimal and the maximal generalization nodes, and picks
//! the combination — the **ultimate generalization** — that satisfies
//! k-anonymity over the full quasi-identifier set with the least loss.
//!
//! Two search modes are provided:
//!
//! * **Exhaustive** (the paper's `EnumGen` + `Selection`): enumerate every
//!   combination of allowable generalizations, keep the valid ones, choose
//!   the one minimizing the selection score. Used whenever the number of
//!   combinations is at most [`crate::BinningConfig::exhaustive_limit`].
//! * **Greedy coarsening** (scalability fallback, documented in DESIGN.md):
//!   start from the minimal generalization of every column and repeatedly
//!   apply the cheapest single merge (collapsing a sibling group into its
//!   parent, never above the maximal nodes), preferring merges that touch a
//!   violating bin, until k-anonymity holds or no merge is left.
//!
//! Both searches run on `threads` scoped worker threads ([`std::thread::scope`],
//! mirroring the chunk-parallel protection engine): candidates are scored
//! against the same immutable `SearchPlan`/`TableLeaves` state, the
//! exhaustive candidate space is sharded into contiguous linear-index ranges,
//! the greedy frontier is sharded into candidate-merge chunks, and per-shard
//! bests merge under a total order — lowest loss first, ties broken by the
//! lowest candidate index in the deterministic enumeration order (a fixed
//! lexicographic order on the per-column node vectors). The outcome is
//! therefore byte-identical for every thread count, a property pinned by the
//! repository-level `binning_equivalence` suite.
//!
//! The selection score is either specificity loss (the paper's preferred
//! estimate) or the full information loss of Eq. (1)–(3), per
//! [`SelectionStrategy`].

use crate::config::SelectionStrategy;
use crate::error::BinningError;
use crate::plan::{SearchPlan, TableLeaves};
use medshield_dht::{DhtKind, DomainHierarchyTree, GeneralizationSet, NodeId};
use medshield_relation::Table;
use std::collections::{BTreeMap, HashMap};
use std::thread;

/// Per-column input to multi-attribute binning.
#[derive(Debug, Clone)]
pub struct ColumnContext<'a> {
    /// Column name.
    pub column: &'a str,
    /// The column's domain hierarchy tree.
    pub tree: &'a DomainHierarchyTree,
    /// Minimal generalization nodes from mono-attribute binning.
    pub minimal: &'a GeneralizationSet,
    /// Maximal generalization nodes from the usage metrics.
    pub maximal: &'a GeneralizationSet,
}

/// Which search mode produced the ultimate generalization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchMode {
    /// Exhaustive enumeration of all allowable combinations.
    Exhaustive,
    /// Greedy coarsening fallback.
    Greedy,
    /// Multi-attribute binning was skipped: the minimal generalization nodes
    /// of mono-attribute binning were used directly (per-attribute
    /// k-anonymity only; see `BinningAgent::bin_per_attribute`).
    PerAttribute,
}

/// Result of multi-attribute binning.
#[derive(Debug, Clone)]
pub struct MultiBinning {
    /// Ultimate generalization nodes, one set per input column, in input
    /// order.
    pub ultimate: Vec<GeneralizationSet>,
    /// Whether the returned generalization satisfies k-anonymity over the
    /// combination of all columns.
    pub satisfied: bool,
    /// Which search mode was used.
    pub mode: SearchMode,
    /// Notes about fallbacks or unbinnable data.
    pub warnings: Vec<String>,
}

/// `GenUltiNd(mingends[], maxgends[], tr[])`: choose the ultimate
/// generalization nodes for all columns simultaneously, sharding the search
/// over `threads` scoped worker threads (1 = sequential; every thread count
/// produces an identical result).
pub fn generate_ultimate_nodes(
    table: &Table,
    columns: &[ColumnContext<'_>],
    k: usize,
    selection: SelectionStrategy,
    exhaustive_limit: usize,
    threads: usize,
) -> Result<MultiBinning, BinningError> {
    if k == 0 {
        return Err(BinningError::InvalidK);
    }
    if threads == 0 {
        return Err(BinningError::InvalidThreads);
    }
    if columns.is_empty() {
        return Ok(MultiBinning {
            ultimate: Vec::new(),
            satisfied: true,
            mode: SearchMode::Exhaustive,
            warnings: Vec::new(),
        });
    }

    let leaves = TableLeaves::build(table, columns)?;

    // Decide the search mode from the size of the combination space.
    let mut product: usize = 1;
    for c in columns {
        let n = GeneralizationSet::count_between(c.tree, c.minimal, c.maximal)
            .map_err(BinningError::Dht)?;
        product = product.saturating_mul(n);
    }

    if product <= exhaustive_limit {
        let plan = SearchPlan::build(columns, &leaves, selection, exhaustive_limit)?;
        exhaustive_search(&plan, &leaves, columns, k, threads)
    } else {
        greedy_search(columns, &leaves, k, selection, threads)
    }
}

/// One row's bin key packed into a `u64` via the per-column strides.
fn packed_key(leaves: &TableLeaves, covers: &[&[NodeId]], strides: &[u64], row: usize) -> u64 {
    covers
        .iter()
        .enumerate()
        .map(|(col, cover)| cover[leaves.row_leaf_ix[col][row] as usize].0 as u64 * strides[col])
        .sum()
}

/// One row's bin key as the vector of covering nodes (the overflow fallback).
fn vec_key(leaves: &TableLeaves, covers: &[&[NodeId]], row: usize) -> Vec<NodeId> {
    covers
        .iter()
        .enumerate()
        .map(|(col, cover)| cover[leaves.row_leaf_ix[col][row] as usize])
        .collect()
}

/// True if every bin over `keys` holds at least `k` rows (count-only fast
/// path for the exhaustive scan).
fn all_bins_at_least<K: Eq + std::hash::Hash>(keys: impl Iterator<Item = K>, k: usize) -> bool {
    let mut bins: HashMap<K, usize> = HashMap::new();
    for key in keys {
        *bins.entry(key).or_insert(0) += 1;
    }
    bins.values().all(|&n| n >= k)
}

/// True if every bin of the candidate combination (given per-column dense
/// covering maps) holds at least `k` rows.
fn bins_satisfy_k(
    leaves: &TableLeaves,
    covers: &[&[NodeId]],
    strides: Option<&[u64]>,
    k: usize,
) -> bool {
    let rows = leaves.rows();
    if k <= 1 || rows == 0 {
        return true;
    }
    match strides {
        Some(strides) => {
            all_bins_at_least((0..rows).map(|row| packed_key(leaves, covers, strides, row)), k)
        }
        None => all_bins_at_least((0..rows).map(|row| vec_key(leaves, covers, row)), k),
    }
}

/// Rows belonging to under-`k` bins of the combination (sorted, so the result
/// is independent of hash-map iteration order).
fn undersized_bin_rows(
    leaves: &TableLeaves,
    covers: &[&[NodeId]],
    strides: Option<&[u64]>,
    k: usize,
) -> Vec<usize> {
    let rows = leaves.rows();
    match strides {
        Some(strides) => medshield_metrics::undersized_rows(
            (0..rows).map(|row| packed_key(leaves, covers, strides, row)),
            k,
        ),
        None => {
            medshield_metrics::undersized_rows((0..rows).map(|row| vec_key(leaves, covers, row)), k)
        }
    }
}

/// Largest dense bin-key space the scratch counter will allocate (slots of
/// `u32`); candidates whose per-column bin counts multiply past this fall
/// back to the hashed key path.
const DENSE_BIN_CAP: usize = 1 << 22;

/// Reusable scratch state for the dense candidate-validity check, so the hot
/// candidate loop performs no per-candidate allocation.
#[derive(Default)]
struct BinScratch {
    /// Dense bin counts, grown to the largest key space seen; only the
    /// `touched` slots are ever non-zero between candidates.
    counts: Vec<u32>,
    /// Keys dirtied by the current candidate (clearing is O(distinct bins),
    /// not O(key space)).
    touched: Vec<u32>,
    /// Per-row packed bin keys, accumulated column by column.
    keys: Vec<usize>,
    /// Mixed-radix strides over the candidate's per-column bin counts.
    strides: Vec<usize>,
}

/// True if every bin of the candidate (given as per-column option digits)
/// holds at least `k` rows. The check is a branchless column scan: each
/// column adds `bin_ix[leaf_ix] * stride` into the per-row key buffer, then
/// a single counting pass over the packed keys tallies the dense scratch
/// array. Equivalent to the hashed [`bins_satisfy_k`] (which remains as the
/// overflow fallback for astronomically wide key spaces).
fn candidate_satisfies_k(
    plan: &SearchPlan,
    leaves: &TableLeaves,
    digits: &[usize],
    k: usize,
    scratch: &mut BinScratch,
) -> bool {
    let rows = leaves.rows();
    if k <= 1 || rows == 0 {
        return true;
    }
    scratch.strides.clear();
    let mut total: usize = 1;
    for (c, &d) in plan.columns.iter().zip(digits) {
        scratch.strides.push(total);
        total = total.saturating_mul(c.bin_counts[d].max(1));
        if total > DENSE_BIN_CAP {
            let covers: Vec<&[NodeId]> =
                plan.columns.iter().zip(digits).map(|(c, &d)| c.covers[d].as_slice()).collect();
            let strides = plan.packed_keys.then_some(plan.key_strides.as_slice());
            return bins_satisfy_k(leaves, &covers, strides, k);
        }
    }
    if scratch.counts.len() < total {
        scratch.counts.resize(total, 0);
    }
    scratch.keys.clear();
    scratch.keys.resize(rows, 0);
    for (col, (c, &d)) in plan.columns.iter().zip(digits).enumerate() {
        let bin_ix = &c.bin_ix[d];
        let stride = scratch.strides[col];
        for (key, &leaf_ix) in scratch.keys.iter_mut().zip(&leaves.row_leaf_ix[col]) {
            *key += bin_ix[leaf_ix as usize] as usize * stride;
        }
    }
    for &key in &scratch.keys {
        let slot = &mut scratch.counts[key];
        if *slot == 0 {
            scratch.touched.push(key as u32);
        }
        *slot += 1;
    }
    let mut ok = true;
    for &key in &scratch.touched {
        ok &= scratch.counts[key as usize] >= k as u32;
        scratch.counts[key as usize] = 0;
    }
    scratch.touched.clear();
    ok
}

/// Best candidate of one contiguous linear-index range: the valid candidate
/// with the lowest score, ties broken by the lowest index.
fn best_in_range(
    plan: &SearchPlan,
    leaves: &TableLeaves,
    k: usize,
    start: usize,
    end: usize,
) -> Option<(f64, usize)> {
    let mut scratch = BinScratch::default();
    let mut digits = plan.decode(start);
    let mut best: Option<(f64, usize)> = None;
    for idx in start..end {
        // Score first: the score is a handful of table lookups while the
        // validity check costs a full row scan, and a candidate whose score
        // is not strictly below the running best can never replace it (ties
        // go to the lower index, which this ascending scan saw first) — so
        // the row scan is skipped for all but the descending-score chain.
        let score = plan.candidate_score(&digits);
        if best.as_ref().map(|(s, _)| score < *s).unwrap_or(true)
            && candidate_satisfies_k(plan, leaves, &digits, k, &mut scratch)
        {
            best = Some((score, idx));
        }
        plan.advance(&mut digits);
    }
    best
}

/// The merge rule for per-shard bests: lowest score wins, ties go to the
/// lowest candidate index. Folding shards in ascending-range order therefore
/// reproduces the sequential scan exactly.
fn better_candidate(a: Option<(f64, usize)>, b: Option<(f64, usize)>) -> Option<(f64, usize)> {
    match (a, b) {
        (None, b) => b,
        (a, None) => a,
        (Some((sa, ia)), Some((sb, ib))) => {
            if sb < sa || (sb == sa && ib < ia) {
                Some((sb, ib))
            } else {
                Some((sa, ia))
            }
        }
    }
}

/// Exhaustive `EnumGen` + `Selection`, sharded over the candidate space.
fn exhaustive_search(
    plan: &SearchPlan,
    leaves: &TableLeaves,
    columns: &[ColumnContext<'_>],
    k: usize,
    threads: usize,
) -> Result<MultiBinning, BinningError> {
    let total = plan.total_candidates();
    let workers = threads.min(total).max(1);
    let best = if workers == 1 {
        best_in_range(plan, leaves, k, 0, total)
    } else {
        let chunk = total.div_ceil(workers);
        let shard_bests: Vec<Option<(f64, usize)>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let start = w * chunk;
                    let end = (start + chunk).min(total);
                    scope.spawn(move || best_in_range(plan, leaves, k, start, end))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("search worker panicked")).collect()
        });
        shard_bests.into_iter().fold(None, better_candidate)
    };

    let mut warnings = Vec::new();
    match best {
        Some((_, idx)) => {
            let ultimate: Vec<GeneralizationSet> = plan
                .columns
                .iter()
                .zip(plan.decode(idx))
                .map(|(c, d)| c.options[d].clone())
                .collect();
            Ok(MultiBinning { ultimate, satisfied: true, mode: SearchMode::Exhaustive, warnings })
        }
        None => {
            // Not even the all-maximal combination satisfies k: the data are
            // not binnable within the usage metrics. Return the maximal
            // generalization as the best effort.
            warnings.push(format!(
                "no allowable generalization satisfies k={k}; returning the maximal generalization"
            ));
            let ultimate: Vec<GeneralizationSet> =
                columns.iter().map(|c| c.maximal.clone()).collect();
            Ok(MultiBinning { ultimate, satisfied: false, mode: SearchMode::Exhaustive, warnings })
        }
    }
}

/// One candidate merge of the greedy frontier: collapse `children` (all
/// current generalization nodes) into `parent` on column `column`.
#[derive(Debug, Clone)]
struct MergeCandidate {
    column: usize,
    parent: NodeId,
    children: Vec<NodeId>,
}

/// Greedy coarsening fallback for large combination spaces. The frontier of
/// candidate merges is evaluated in parallel chunks; the pick is made by a
/// total order (benefit ratio, then loss delta, then candidate index), so the
/// result is identical for every thread count.
fn greedy_search(
    columns: &[ColumnContext<'_>],
    leaves: &TableLeaves,
    k: usize,
    selection: SelectionStrategy,
    threads: usize,
) -> Result<MultiBinning, BinningError> {
    let mut warnings = Vec::new();
    let strides_buf = crate::plan::key_strides_for(columns);
    let strides = strides_buf.as_deref();
    // Entries per occurring leaf, node-keyed (for the merge-score deltas).
    let leaf_counts: Vec<HashMap<NodeId, usize>> =
        (0..columns.len()).map(|i| leaves.leaf_count_map(i)).collect();
    // Current generalization per column, as an ordered node set.
    let mut current: Vec<BTreeMap<NodeId, ()>> =
        columns.iter().map(|c| c.minimal.nodes().iter().map(|&n| (n, ())).collect()).collect();
    // Dense covering maps for the occurring leaves (indexed by compact leaf
    // index, like the plan's per-option covers).
    let mut covers: Vec<Vec<NodeId>> = Vec::with_capacity(columns.len());
    for (i, c) in columns.iter().enumerate() {
        let mut cover = Vec::with_capacity(leaves.leaves[i].len());
        for &leaf in &leaves.leaves[i] {
            cover.push(c.minimal.covering_node(c.tree, leaf).map_err(BinningError::Dht)?);
        }
        covers.push(cover);
    }

    loop {
        let cover_refs: Vec<&[NodeId]> = covers.iter().map(Vec::as_slice).collect();
        let violating_rows = undersized_bin_rows(leaves, &cover_refs, strides, k);
        if violating_rows.is_empty() {
            break;
        }
        // How many violating rows each covering node holds, per column: the
        // "benefit" of a merge is the number of violating rows it touches.
        let violating_counts: Vec<HashMap<NodeId, usize>> = (0..columns.len())
            .map(|i| {
                let mut m: HashMap<NodeId, usize> = HashMap::new();
                for &row in &violating_rows {
                    *m.entry(covers[i][leaves.row_leaf_ix[i][row] as usize]).or_insert(0) += 1;
                }
                m
            })
            .collect();

        // Enumerate candidate merges in a deterministic (column, parent)
        // order.
        let mut candidates: Vec<MergeCandidate> = Vec::new();
        for (i, c) in columns.iter().enumerate() {
            // Group current nodes by parent.
            let mut by_parent: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
            for &node in current[i].keys() {
                if let Some(parent) = c.tree.parent(node).map_err(BinningError::Dht)? {
                    by_parent.entry(parent).or_default().push(node);
                }
            }
            for (parent, members) in by_parent {
                let children = c.tree.children(parent).map_err(BinningError::Dht)?;
                if members.len() != children.len() {
                    continue; // not all siblings are currently generalization nodes
                }
                // The parent must stay within the usage metrics (at or below a
                // maximal generalization node).
                if c.maximal.covering_node(c.tree, parent).is_err() {
                    continue;
                }
                candidates.push(MergeCandidate { column: i, parent, children: children.to_vec() });
            }
        }

        if candidates.is_empty() {
            warnings.push(format!(
                "greedy multi-attribute binning exhausted all merges without reaching k={k}"
            ));
            break;
        }

        // Score the frontier — (loss delta, violating rows touched) per
        // candidate — in parallel chunks; results come back in candidate
        // order, so the pick below is thread-count independent.
        let workers = threads.min(candidates.len()).max(1);
        let scored: Vec<(f64, usize)> = if workers == 1 {
            score_merges(&candidates, columns, &leaf_counts, &violating_counts, selection)
        } else {
            let chunk = candidates.len().div_ceil(workers);
            let leaf_counts = &leaf_counts;
            let violating_counts = &violating_counts;
            let chunks: Vec<Vec<(f64, usize)>> = thread::scope(|scope| {
                let handles: Vec<_> = candidates
                    .chunks(chunk)
                    .map(|slice| {
                        scope.spawn(move || {
                            score_merges(slice, columns, leaf_counts, violating_counts, selection)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("frontier worker panicked")).collect()
            });
            chunks.into_iter().flatten().collect()
        };

        // Pick the merge with the best benefit-per-cost ratio (violating rows
        // touched per unit of added loss), preferring smaller deltas and then
        // lower candidate indices on ties; merges that touch nothing are only
        // considered when no merge touches a violating bin, in which case the
        // cheapest one is taken.
        let any_touching = scored.iter().any(|(_, touched)| *touched > 0);
        let mut pick = 0usize;
        let mut have_pick = false;
        for (idx, &(delta, touched)) in scored.iter().enumerate() {
            if any_touching && touched == 0 {
                continue;
            }
            if !have_pick {
                pick = idx;
                have_pick = true;
                continue;
            }
            let (best_delta, best_touched) = scored[pick];
            let better = if any_touching {
                let ratio = touched as f64 / (delta + 1e-9);
                let best_ratio = best_touched as f64 / (best_delta + 1e-9);
                ratio > best_ratio || (ratio == best_ratio && delta < best_delta)
            } else {
                delta < best_delta
            };
            if better {
                pick = idx;
            }
        }

        let MergeCandidate { column: col, parent, children } = candidates[pick].clone();
        for ch in &children {
            current[col].remove(ch);
        }
        current[col].insert(parent, ());
        for cover in covers[col].iter_mut() {
            if children.contains(cover) {
                *cover = parent;
            }
        }
    }

    // Materialize and validate the final sets.
    let mut ultimate = Vec::with_capacity(columns.len());
    for (i, c) in columns.iter().enumerate() {
        let nodes: Vec<NodeId> = current[i].keys().copied().collect();
        ultimate.push(GeneralizationSet::new(c.tree, nodes).map_err(BinningError::Dht)?);
    }
    let cover_refs: Vec<&[NodeId]> = covers.iter().map(Vec::as_slice).collect();
    let satisfied = undersized_bin_rows(leaves, &cover_refs, strides, k).is_empty();
    Ok(MultiBinning { ultimate, satisfied, mode: SearchMode::Greedy, warnings })
}

/// Evaluate a slice of the greedy frontier: loss delta and violating rows
/// touched for every candidate merge, in slice order.
fn score_merges(
    candidates: &[MergeCandidate],
    columns: &[ColumnContext<'_>],
    leaf_counts: &[HashMap<NodeId, usize>],
    violating_counts: &[HashMap<NodeId, usize>],
    selection: SelectionStrategy,
) -> Vec<(f64, usize)> {
    candidates
        .iter()
        .map(|m| {
            let delta = merge_score_delta(
                columns[m.column].tree,
                &leaf_counts[m.column],
                m.parent,
                &m.children,
                selection,
            );
            let touched: usize = m
                .children
                .iter()
                .map(|ch| violating_counts[m.column].get(ch).copied().unwrap_or(0))
                .sum();
            (delta, touched)
        })
        .collect()
}

/// Increase in the column score caused by merging `children` into `parent`.
fn merge_score_delta(
    tree: &DomainHierarchyTree,
    leaf_counts: &HashMap<NodeId, usize>,
    parent: NodeId,
    children: &[NodeId],
    selection: SelectionStrategy,
) -> f64 {
    match selection {
        SelectionStrategy::SpecificityLoss => {
            (children.len() as f64 - 1.0) / tree.leaf_count().max(1) as f64
        }
        SelectionStrategy::FullInfoLoss => {
            let total: usize = leaf_counts.values().sum();
            if total == 0 {
                return 0.0;
            }
            let entries_under = |node: NodeId| -> usize {
                tree.leaves_under(node)
                    .map(|ls| ls.iter().map(|l| leaf_counts.get(l).copied().unwrap_or(0)).sum())
                    .unwrap_or(0)
            };
            match tree.kind() {
                DhtKind::Categorical => {
                    let s = tree.leaf_count() as f64;
                    let parent_cost = entries_under(parent) as f64
                        * (tree.leaf_count_under(parent).unwrap_or(1) as f64 - 1.0)
                        / s;
                    let child_cost: f64 = children
                        .iter()
                        .map(|&c| {
                            entries_under(c) as f64
                                * (tree.leaf_count_under(c).unwrap_or(1) as f64 - 1.0)
                                / s
                        })
                        .sum();
                    (parent_cost - child_cost) / total as f64
                }
                DhtKind::Numeric => {
                    let (lo, hi) = tree
                        .node(tree.root())
                        .expect("root exists")
                        .interval
                        .expect("numeric root interval");
                    let span = (hi - lo) as f64;
                    let width = |n: NodeId| {
                        let (l, h) = tree.node(n).expect("node").interval.expect("interval");
                        (h - l) as f64
                    };
                    let parent_cost = entries_under(parent) as f64 * width(parent) / span;
                    let child_cost: f64 =
                        children.iter().map(|&c| entries_under(c) as f64 * width(c) / span).sum();
                    (parent_cost - child_cost) / total as f64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_dht::builder::{numeric_binary_tree, CategoricalNodeSpec};
    use medshield_relation::{ColumnDef, ColumnRole, Schema, Value};

    fn two_column_table() -> (Table, DomainHierarchyTree, DomainHierarchyTree) {
        let doctor_tree = CategoricalNodeSpec::internal(
            "Staff",
            vec![
                CategoricalNodeSpec::internal(
                    "Doctor",
                    vec![
                        CategoricalNodeSpec::leaf("Surgeon"),
                        CategoricalNodeSpec::leaf("Physician"),
                    ],
                ),
                CategoricalNodeSpec::internal(
                    "Paramedic",
                    vec![
                        CategoricalNodeSpec::leaf("Nurse"),
                        CategoricalNodeSpec::leaf("Pharmacist"),
                    ],
                ),
            ],
        )
        .build("doctor")
        .unwrap();
        let age_tree =
            numeric_binary_tree("age", &[(0, 25), (25, 50), (50, 75), (75, 100)]).unwrap();

        let schema = Schema::new(vec![
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        // Mirrors the paper's §4.2 example: each attribute alone is
        // k-anonymous, the combination is not.
        let rows = [
            (10, "Surgeon"),
            (12, "Surgeon"),
            (30, "Surgeon"),
            (35, "Physician"),
            (60, "Nurse"),
            (65, "Nurse"),
            (80, "Pharmacist"),
            (85, "Pharmacist"),
        ];
        for (age, doc) in rows {
            t.insert(vec![Value::int(age), Value::text(doc)]).unwrap();
        }
        (t, age_tree, doctor_tree)
    }

    fn contexts<'a>(
        age_tree: &'a DomainHierarchyTree,
        doctor_tree: &'a DomainHierarchyTree,
        age_min: &'a GeneralizationSet,
        age_max: &'a GeneralizationSet,
        doc_min: &'a GeneralizationSet,
        doc_max: &'a GeneralizationSet,
    ) -> Vec<ColumnContext<'a>> {
        vec![
            ColumnContext { column: "age", tree: age_tree, minimal: age_min, maximal: age_max },
            ColumnContext {
                column: "doctor",
                tree: doctor_tree,
                minimal: doc_min,
                maximal: doc_max,
            },
        ]
    }

    /// Check k-anonymity of the chosen generalization by materializing it.
    fn satisfies(
        table: &Table,
        columns: &[(&str, &DomainHierarchyTree)],
        gens: &[GeneralizationSet],
        k: usize,
    ) -> bool {
        let mut t = table.snapshot();
        for ((col, tree), g) in columns.iter().zip(gens.iter()) {
            let index = t.schema().index_of(col).unwrap();
            let column = t.column_mut(index).unwrap();
            for row in 0..table.len() {
                let gv = g.generalize_value(tree, &table.value_at(row, index).unwrap()).unwrap();
                column.set(row, &gv);
            }
        }
        let names: Vec<&str> = columns.iter().map(|(c, _)| *c).collect();
        medshield_metrics::satisfies_k_anonymity(&t, &names, k).unwrap()
    }

    #[test]
    fn exhaustive_finds_a_valid_minimal_loss_generalization() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);

        let r = generate_ultimate_nodes(
            &table,
            &ctxs,
            2,
            SelectionStrategy::SpecificityLoss,
            10_000,
            1,
        )
        .unwrap();
        assert_eq!(r.mode, SearchMode::Exhaustive);
        assert!(r.satisfied);
        assert!(satisfies(&table, &[("age", &age_tree), ("doctor", &doctor_tree)], &r.ultimate, 2));
        // The chosen generalization must not be the trivial all-root one:
        // the data allow something finer (e.g. age halves + doctor level 1).
        let total_nodes: usize = r.ultimate.iter().map(medshield_dht::GeneralizationSet::len).sum();
        assert!(total_nodes > 2, "should be finer than root-only on both columns");
    }

    #[test]
    fn parallel_search_matches_sequential_exactly() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        // Both search modes (exhaustive via a large limit, greedy via limit 1)
        // must be thread-count independent.
        for limit in [10_000usize, 1] {
            let reference = generate_ultimate_nodes(
                &table,
                &ctxs,
                2,
                SelectionStrategy::SpecificityLoss,
                limit,
                1,
            )
            .unwrap();
            for threads in [2usize, 3, 4, 8, 64] {
                let r = generate_ultimate_nodes(
                    &table,
                    &ctxs,
                    2,
                    SelectionStrategy::SpecificityLoss,
                    limit,
                    threads,
                )
                .unwrap();
                assert_eq!(r.ultimate, reference.ultimate, "limit {limit}, threads {threads}");
                assert_eq!(r.satisfied, reference.satisfied);
                assert_eq!(r.mode, reference.mode);
                assert_eq!(r.warnings, reference.warnings);
            }
        }
    }

    #[test]
    fn greedy_matches_exhaustive_feasibility() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);

        // Force the greedy path with a tiny exhaustive limit.
        let r = generate_ultimate_nodes(&table, &ctxs, 2, SelectionStrategy::SpecificityLoss, 1, 2)
            .unwrap();
        assert_eq!(r.mode, SearchMode::Greedy);
        assert!(r.satisfied);
        assert!(satisfies(&table, &[("age", &age_tree), ("doctor", &doctor_tree)], &r.ultimate, 2));
        // Ultimate nodes stay within the usage metrics.
        for (g, ctx) in r.ultimate.iter().zip(&ctxs) {
            assert!(g.is_at_or_below(ctx.tree, ctx.maximal).unwrap());
        }
    }

    #[test]
    fn full_info_loss_selection_also_works() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        for limit in [1usize, 10_000] {
            for threads in [1usize, 4] {
                let r = generate_ultimate_nodes(
                    &table,
                    &ctxs,
                    2,
                    SelectionStrategy::FullInfoLoss,
                    limit,
                    threads,
                )
                .unwrap();
                assert!(r.satisfied, "limit {limit}");
                assert!(satisfies(
                    &table,
                    &[("age", &age_tree), ("doctor", &doctor_tree)],
                    &r.ultimate,
                    2
                ));
            }
        }
    }

    #[test]
    fn unbinnable_data_reports_unsatisfied() {
        let (table, age_tree, doctor_tree) = two_column_table();
        // Usage metrics forbid any generalization (maximal = leaves), so
        // k = 2 over the combination cannot be met.
        let age_leaves = GeneralizationSet::all_leaves(&age_tree);
        let doc_leaves = GeneralizationSet::all_leaves(&doctor_tree);
        let ctxs =
            contexts(&age_tree, &doctor_tree, &age_leaves, &age_leaves, &doc_leaves, &doc_leaves);
        for limit in [1usize, 10_000] {
            let r = generate_ultimate_nodes(
                &table,
                &ctxs,
                2,
                SelectionStrategy::SpecificityLoss,
                limit,
                2,
            )
            .unwrap();
            assert!(!r.satisfied, "limit {limit}");
            assert!(!r.warnings.is_empty());
        }
    }

    #[test]
    fn k_one_keeps_the_minimal_generalization() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        let r = generate_ultimate_nodes(
            &table,
            &ctxs,
            1,
            SelectionStrategy::SpecificityLoss,
            10_000,
            1,
        )
        .unwrap();
        assert!(r.satisfied);
        // With k=1 nothing needs generalizing, so the minimal (all-leaves)
        // generalization is optimal under both scores.
        assert_eq!(r.ultimate[0], age_min);
        assert_eq!(r.ultimate[1], doc_min);
    }

    #[test]
    fn empty_column_list_is_trivially_satisfied() {
        let (table, _, _) = two_column_table();
        let r = generate_ultimate_nodes(&table, &[], 5, SelectionStrategy::SpecificityLoss, 10, 1)
            .unwrap();
        assert!(r.satisfied);
        assert!(r.ultimate.is_empty());
    }

    #[test]
    fn k_zero_rejected() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        assert!(matches!(
            generate_ultimate_nodes(&table, &ctxs, 0, SelectionStrategy::SpecificityLoss, 10, 1),
            Err(BinningError::InvalidK)
        ));
    }

    #[test]
    fn zero_threads_rejected() {
        let (table, age_tree, doctor_tree) = two_column_table();
        let age_min = GeneralizationSet::all_leaves(&age_tree);
        let age_max = GeneralizationSet::root_only(&age_tree);
        let doc_min = GeneralizationSet::all_leaves(&doctor_tree);
        let doc_max = GeneralizationSet::root_only(&doctor_tree);
        let ctxs = contexts(&age_tree, &doctor_tree, &age_min, &age_max, &doc_min, &doc_max);
        assert!(matches!(
            generate_ultimate_nodes(&table, &ctxs, 2, SelectionStrategy::SpecificityLoss, 10, 0),
            Err(BinningError::InvalidThreads)
        ));
    }
}
