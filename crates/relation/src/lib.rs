//! # medshield-relation
//!
//! A small, dependency-free, in-memory relational substrate used by the
//! MedShield framework (Bertino et al., ICDE 2005).
//!
//! The paper operates on a single relational table of medical records,
//! `R(ssn, age, zip_code, doctor, symptom, prescription)`, whose columns are
//! classified into *identifying*, *quasi-identifying* (categorical or
//! numeric), and *non-identifying* columns (§2). The binning agent rewrites
//! quasi-identifying values, the watermarking agent permutes a keyed subset of
//! them, and the attack models insert, alter and delete tuples (including the
//! paper's SQL range delete, §7.2).
//!
//! This crate provides exactly that substrate:
//!
//! * [`Value`] — a typed cell value (integer, text, half-open interval, null).
//! * [`ColumnRole`] / [`ColumnDef`] / [`Schema`] — schema with privacy roles.
//! * [`Table`] / [`TupleId`] — a columnar store with stable tuple ids,
//!   insertion, cell access by row position, and predicate-based deletion.
//! * [`Column`] / [`ColumnData`] — the typed column vectors behind the table:
//!   native `i64` vectors for integers, dictionary-encoded code vectors for
//!   categorical/generalized data; the batch kernels of the binning and
//!   watermarking crates read these directly.
//! * [`Predicate`] — a tiny predicate language sufficient for the attack
//!   models (`DELETE FROM R WHERE ssn > lo AND ssn < hi`).
//! * [`stats`] — per-column statistics (value counts, one-pass min/max/
//!   distinct, bin sizes, group-by over quasi-identifier combinations) used
//!   by the metrics crate.
//! * [`csv`] — the CSV codec of request and reply bodies, parsing straight
//!   into columns and encoding from the dictionaries.
//!
//! ```
//! use medshield_relation::{ColumnDef, ColumnRole, Schema, Table, Value};
//!
//! let schema = Schema::new(vec![
//!     ColumnDef::new("ssn", ColumnRole::Identifying),
//!     ColumnDef::new("age", ColumnRole::QuasiNumeric),
//! ])
//! .unwrap();
//! let mut table = Table::new(schema);
//! table.insert(vec![Value::text("123-45-6789"), Value::int(42)]).unwrap();
//! assert_eq!(table.len(), 1);
//! assert_eq!(table.column_values("age").unwrap(), vec![Value::int(42)]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod column;
pub mod csv;
pub mod error;
pub mod predicate;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use column::{Column, ColumnData, DictColumn};
pub use error::RelationError;
pub use predicate::Predicate;
pub use schema::{ColumnDef, ColumnRole, Schema};
pub use table::{Table, TupleId};
pub use value::Value;
