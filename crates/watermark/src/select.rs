//! Tuple identity and keyed tuple selection (Eq. 5 of the paper).
//!
//! Watermarking alters only a keyed fraction of the tuples: tuple `ti` is
//! selected when `H(ti.ident, k1) mod η == 0`. The identity bytes normally
//! come from the (encrypted) identifying columns, which binning leaves intact;
//! when those cannot be relied on, a *virtual primary key* is assembled from
//! other columns (footnote 1, referencing Li/Swarup/Jajodia).

use crate::error::WatermarkError;
use crate::key::WatermarkKey;
use medshield_crypto::KeyedPrf;
use medshield_relation::{Schema, Table};
use std::collections::BTreeSet;

/// How a tuple's identity bytes are derived for the keyed hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TupleIdentity {
    /// Concatenate the canonical bytes of the identifying columns (the
    /// default; these are encrypted by binning and assumed to stay intact).
    IdentifyingColumns,
    /// Concatenate the canonical bytes of the named columns (virtual primary
    /// key).
    VirtualKey(Vec<String>),
}

impl TupleIdentity {
    /// Build the identity source from a watermark configuration.
    pub fn from_virtual_columns(virtual_key_columns: &[String]) -> Self {
        if virtual_key_columns.is_empty() {
            TupleIdentity::IdentifyingColumns
        } else {
            TupleIdentity::VirtualKey(virtual_key_columns.to_vec())
        }
    }

    /// Resolve the identity source against a schema once, so the per-row
    /// byte derivation needs no column lookup by name.
    ///
    /// A [`TupleIdentity::VirtualKey`] naming the same column twice is
    /// rejected: the duplicate adds no entropy but makes two keys over
    /// different column sets (e.g. `[a, a]` and `[a]` extended ad hoc)
    /// silently produce related identities.
    pub fn resolve(&self, schema: &Schema) -> Result<ResolvedIdentity, WatermarkError> {
        let indices: Vec<usize> = match self {
            TupleIdentity::IdentifyingColumns => {
                let idx = schema.identifying_indices();
                if idx.is_empty() {
                    return Err(WatermarkError::NoIdentity);
                }
                idx
            }
            TupleIdentity::VirtualKey(columns) => {
                if columns.is_empty() {
                    return Err(WatermarkError::NoIdentity);
                }
                let mut seen = BTreeSet::new();
                for c in columns {
                    if !seen.insert(c.as_str()) {
                        return Err(WatermarkError::DuplicateIdentityColumn(c.clone()));
                    }
                }
                columns.iter().map(|c| schema.index_of(c)).collect::<Result<Vec<_>, _>>()?
            }
        };
        Ok(ResolvedIdentity { indices })
    }
}

/// A [`TupleIdentity`] resolved against a schema: the column indices whose
/// values form a row's identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedIdentity {
    indices: Vec<usize>,
}

impl ResolvedIdentity {
    /// The identity bytes of the row at position `row` of `table`: each
    /// identity field's canonical bytes prefixed by its 64-bit big-endian
    /// length. The framing keeps the concatenation injective regardless of
    /// the field encoding — two distinct rows cannot collide to one identity
    /// by shifting bytes across a field boundary (e.g. `("ab", "c")` vs
    /// `("a", "bc")`). This is the reference encoding the batch kernels'
    /// precomputed identity codec must reproduce.
    pub fn bytes(&self, table: &Table, row: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for &i in &self.indices {
            let field = table.columns()[i].value(row).canonical_bytes();
            out.extend_from_slice(&(field.len() as u64).to_be_bytes());
            out.extend_from_slice(&field);
        }
        out
    }

    /// The resolved column indices, in identity order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }
}

/// The selection predicate of Eq. (5) plus the derived indices used by the
/// embedding primitive, bundled so every call site reduces hashes the same
/// way.
#[derive(Debug, Clone)]
pub struct Selector {
    selection: KeyedPrf,
    permutation: KeyedPrf,
    eta: u64,
}

impl Selector {
    /// Build a selector from the watermarking key.
    pub fn new(key: &WatermarkKey) -> Result<Self, WatermarkError> {
        if key.eta == 0 {
            return Err(WatermarkError::InvalidEta);
        }
        Ok(Selector {
            selection: key.selection_prf(),
            permutation: key.permutation_prf(),
            eta: key.eta,
        })
    }

    /// Eq. (5): is this tuple watermarked?
    pub fn selects(&self, ident: &[u8]) -> bool {
        self.selection.selects(ident, self.eta)
    }

    /// Index of the mark bit carried by this tuple in `column`
    /// (`H(ident, k2) mod |wmd|`, domain-separated per column).
    pub fn bit_index(&self, ident: &[u8], column: &str, wmd_len: usize) -> usize {
        if wmd_len == 0 {
            return 0;
        }
        self.permutation.labeled_value_mod(&format!("bit:{column}"), ident, wmd_len as u64) as usize
    }

    /// Raw permutation index for a sibling set of size `set_len`
    /// (`H(ident, k2) mod |S|`, domain-separated per column).
    pub fn permutation_index(&self, ident: &[u8], column: &str, set_len: usize) -> usize {
        if set_len == 0 {
            return 0;
        }
        self.permutation.labeled_value_mod(&format!("perm:{column}"), ident, set_len as u64)
            as usize
    }

    /// The permutation/bit-index PRF, for batch kernels that hoist the label
    /// prefix out of the row loop and reduce one wide PRF value per level
    /// ([`KeyedPrf::prefixed_value_wide`] + [`KeyedPrf::reduce_wide`] —
    /// bit-identical to [`Selector::bit_index`] /
    /// [`Selector::permutation_index`]).
    pub(crate) fn permutation_prf(&self) -> &KeyedPrf {
        &self.permutation
    }
}

/// `SetµBit`: force the least significant bit of a permutation index to the
/// mark bit, keeping the index within `set_len`. With a singleton set the bit
/// cannot be represented and index 0 is returned.
pub fn set_parity(index: usize, bit: bool, set_len: usize) -> usize {
    if set_len <= 1 {
        return 0;
    }
    let wanted = usize::from(bit);
    let candidate = (index & !1usize) | wanted;
    if candidate < set_len {
        return candidate;
    }
    // Fall back to the highest index with the right parity.
    let top = set_len - 1;
    if top % 2 == wanted {
        top
    } else {
        top - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medshield_relation::{ColumnDef, ColumnRole, Schema, Value};

    fn table() -> Table {
        let schema = Schema::new(vec![
            ColumnDef::new("ssn", ColumnRole::Identifying),
            ColumnDef::new("age", ColumnRole::QuasiNumeric),
            ColumnDef::new("doctor", ColumnRole::QuasiCategorical),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..50 {
            t.insert(vec![
                Value::text(format!("ssn-{i}")),
                Value::int(30 + i),
                Value::text("Surgeon"),
            ])
            .unwrap();
        }
        t
    }

    /// Length-prefix one field the way [`ResolvedIdentity::bytes`] does.
    fn framed(value: &Value) -> Vec<u8> {
        let field = value.canonical_bytes();
        let mut out = (field.len() as u64).to_be_bytes().to_vec();
        out.extend_from_slice(&field);
        out
    }

    #[test]
    fn identity_from_identifying_columns() {
        let t = table();
        let id = TupleIdentity::IdentifyingColumns.resolve(t.schema()).unwrap();
        assert_eq!(id.bytes(&t, 0), framed(&Value::text("ssn-0")));
    }

    #[test]
    fn identity_from_virtual_key() {
        let t = table();
        let id = TupleIdentity::VirtualKey(vec!["age".into(), "doctor".into()]);
        let bytes = id.resolve(t.schema()).unwrap().bytes(&t, 0);
        let mut expected = framed(&Value::int(30));
        expected.extend_from_slice(&framed(&Value::text("Surgeon")));
        assert_eq!(bytes, expected);
        // Unknown virtual column is an error.
        let bad = TupleIdentity::VirtualKey(vec!["nope".into()]);
        assert!(bad.resolve(t.schema()).is_err());
        // Empty virtual key is rejected.
        let empty = TupleIdentity::VirtualKey(vec![]);
        assert!(matches!(empty.resolve(t.schema()), Err(WatermarkError::NoIdentity)));
    }

    #[test]
    fn duplicate_virtual_key_columns_are_rejected() {
        let t = table();
        let dup = TupleIdentity::VirtualKey(vec!["age".into(), "doctor".into(), "age".into()]);
        assert!(matches!(
            dup.resolve(t.schema()),
            Err(WatermarkError::DuplicateIdentityColumn(c)) if c == "age"
        ));
    }

    #[test]
    fn identity_bytes_are_injective_under_adversarial_values() {
        // Adversarial pairs designed to collide if fields were concatenated
        // without framing: content shifted across the field boundary, empty
        // vs. missing content, and text that mimics another variant's bytes.
        let schema = Schema::new(vec![
            ColumnDef::new("a", ColumnRole::Identifying),
            ColumnDef::new("b", ColumnRole::Identifying),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let rows: Vec<(Value, Value)> = vec![
            (Value::text("ab"), Value::text("c")),
            (Value::text("a"), Value::text("bc")),
            (Value::text("abc"), Value::text("")),
            (Value::text(""), Value::text("abc")),
            (Value::Null, Value::text("abc")),
            (Value::int(0x6162), Value::text("c")),
            (Value::interval(0, 1), Value::Null),
            (Value::Null, Value::interval(0, 1)),
        ];
        for (a, b) in rows {
            t.insert(vec![a, b]).unwrap();
        }
        let resolved = TupleIdentity::IdentifyingColumns.resolve(t.schema()).unwrap();
        let identities: Vec<Vec<u8>> = (0..t.len()).map(|row| resolved.bytes(&t, row)).collect();
        for i in 0..identities.len() {
            for j in (i + 1)..identities.len() {
                assert_ne!(
                    identities[i], identities[j],
                    "tuples {i} and {j} collided to one identity"
                );
            }
        }
    }

    #[test]
    fn resolved_identity_matches_table_path() {
        let t = table();
        let id = TupleIdentity::VirtualKey(vec!["doctor".into(), "age".into()]);
        let resolved = id.resolve(t.schema()).unwrap();
        assert_eq!(resolved.indices(), &[2, 1]);
        for row in 0..t.len() {
            let mut expected = framed(&t.value_at(row, 2).unwrap());
            expected.extend_from_slice(&framed(&t.value_at(row, 1).unwrap()));
            assert_eq!(resolved.bytes(&t, row), expected);
        }
    }

    #[test]
    fn identity_requires_identifying_columns_when_default() {
        let schema = Schema::new(vec![ColumnDef::new("x", ColumnRole::NonIdentifying)]).unwrap();
        let mut t = Table::new(schema);
        t.insert(vec![Value::int(1)]).unwrap();
        let id = TupleIdentity::IdentifyingColumns;
        assert!(matches!(id.resolve(t.schema()), Err(WatermarkError::NoIdentity)));
    }

    #[test]
    fn from_virtual_columns_picks_source() {
        assert_eq!(TupleIdentity::from_virtual_columns(&[]), TupleIdentity::IdentifyingColumns);
        assert_eq!(
            TupleIdentity::from_virtual_columns(&["a".into()]),
            TupleIdentity::VirtualKey(vec!["a".into()])
        );
    }

    #[test]
    fn selector_rejects_zero_eta() {
        let key = WatermarkKey::new(b"k1".to_vec(), b"k2".to_vec(), 0);
        assert!(matches!(Selector::new(&key), Err(WatermarkError::InvalidEta)));
    }

    #[test]
    fn selection_rate_tracks_eta() {
        let key = WatermarkKey::from_master(b"secret", 10);
        let sel = Selector::new(&key).unwrap();
        let n = 10_000;
        let picked = (0..n).filter(|i| sel.selects(format!("ident-{i}").as_bytes())).count();
        let expected = n as f64 / 10.0;
        assert!(
            (picked as f64 - expected).abs() < expected * 0.3,
            "picked {picked}, expected ≈ {expected}"
        );
    }

    #[test]
    fn eta_one_selects_everything() {
        let key = WatermarkKey::from_master(b"secret", 1);
        let sel = Selector::new(&key).unwrap();
        assert!((0..100).all(|i| sel.selects(format!("id-{i}").as_bytes())));
    }

    #[test]
    fn indices_are_deterministic_and_in_range() {
        let key = WatermarkKey::from_master(b"secret", 5);
        let sel = Selector::new(&key).unwrap();
        for i in 0..200u32 {
            let ident = i.to_be_bytes();
            let b = sel.bit_index(&ident, "age", 160);
            assert!(b < 160);
            assert_eq!(b, sel.bit_index(&ident, "age", 160));
            let p = sel.permutation_index(&ident, "age", 7);
            assert!(p < 7);
        }
        // Degenerate lengths.
        assert_eq!(sel.bit_index(b"x", "age", 0), 0);
        assert_eq!(sel.permutation_index(b"x", "age", 0), 0);
    }

    #[test]
    fn column_separation_of_indices() {
        let key = WatermarkKey::from_master(b"secret", 5);
        let sel = Selector::new(&key).unwrap();
        let differing = (0..100u32)
            .filter(|i| {
                sel.bit_index(&i.to_be_bytes(), "age", 1000)
                    != sel.bit_index(&i.to_be_bytes(), "doctor", 1000)
            })
            .count();
        assert!(differing > 50, "column labels should decorrelate bit indices");
    }

    #[test]
    fn set_parity_behaviour() {
        // Even request.
        assert_eq!(set_parity(5, false, 8), 4);
        // Odd request.
        assert_eq!(set_parity(4, true, 8), 5);
        // Parity preserved when already correct.
        assert_eq!(set_parity(6, false, 8), 6);
        // Clamped to range: index 7 requested odd in a set of 7 (max 6).
        assert_eq!(set_parity(7, true, 7), 5);
        assert_eq!(set_parity(7, false, 7), 6);
        // Singleton set cannot encode.
        assert_eq!(set_parity(3, true, 1), 0);
        assert_eq!(set_parity(0, false, 1), 0);
        // Result always in range and with requested parity when set_len > 1.
        for len in 2..10usize {
            for idx in 0..len {
                for bit in [false, true] {
                    let r = set_parity(idx, bit, len);
                    assert!(r < len);
                    assert_eq!(r % 2 == 1, bit);
                }
            }
        }
    }
}
