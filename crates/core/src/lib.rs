//! # MedShield — privacy and ownership preserving outsourcing of medical data
//!
//! A from-scratch Rust implementation of the unified framework of
//! Bertino, Ooi, Yang and Deng, *Privacy and Ownership Preserving of
//! Outsourced Medical Data*, ICDE 2005.
//!
//! The framework protects a relational table of medical records before it is
//! outsourced, against two distinct threats:
//!
//! 1. **Re-identification of individuals** — handled by the *binning agent*
//!    ([`medshield_binning`]): quasi-identifying columns are generalized along
//!    domain hierarchy trees until every quasi-identifier combination is
//!    shared by at least k records, while information loss stays inside
//!    usage-metric bounds enforced off-line as *maximal generalization
//!    nodes*. Identifying columns are encrypted rather than suppressed so the
//!    data remain traceable to the holder.
//! 2. **Data theft / ownership disputes** — handled by the *watermarking
//!    agent* ([`medshield_watermark`]): a keyed fraction of tuples carries an
//!    owner-specific mark, embedded by permuting binned values in the gap
//!    between the maximal and ultimate generalization nodes, hierarchically
//!    at every level so that even a re-generalization attack cannot erase it.
//!    The mark itself is derived from a statistic of the clear-text
//!    identifying column, which settles the rightful-ownership problem
//!    without presenting the original table in court.
//!
//! [`ProtectionEngine`] wires the two agents together (Fig. 2 of the paper):
//! `protect` runs binning followed by watermarking, `detect` recovers the
//! mark from a (possibly attacked) release, and `resolve_ownership` runs the
//! court protocol. The watermark hot paths are sharded over row chunks and
//! run on scoped worker threads — with output byte-identical to the
//! single-threaded [`ProtectionEngine::sequential`] engine. [`interference`]
//! quantifies how much watermarking perturbs the bins (Lemmas 1–2 and the
//! Fig. 14 statistics).
//!
//! ```
//! use medshield_core::{ProtectionConfig, ProtectionEngine};
//! use medshield_datagen::{DatasetConfig, MedicalDataset};
//!
//! let dataset = MedicalDataset::generate(&DatasetConfig::small(400));
//! let config = ProtectionConfig::builder()
//!     .k(4)
//!     .eta(2)          // watermark every other tuple in this small example
//!     .duplication(1)  // small table ⇒ small extended mark
//!     .mark_text("City Hospital Research Release 2005")
//!     .build();
//! let engine = ProtectionEngine::sequential(config);
//! let release = engine.protect(&dataset.table, &dataset.trees).unwrap();
//! let detection = engine
//!     .detect(&release.table, &release.binning.columns, &dataset.trees)
//!     .unwrap();
//! assert_eq!(detection.mark, release.mark.bits());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod codec;
pub mod config;
pub mod engine;
pub mod interference;

pub use codec::CodecError;
pub use config::{ProtectionConfig, ProtectionConfigBuilder};
pub use engine::{PipelineError, ProtectedRelease, ProtectionEngine};
pub use interference::{analytic_interference, measure_interference, ColumnInterference};

// Re-export the sub-crates so downstream users can depend on `medshield-core`
// alone.
pub use medshield_attacks as attacks;
pub use medshield_binning as binning;
pub use medshield_crypto as crypto;
pub use medshield_datagen as datagen;
pub use medshield_dht as dht;
pub use medshield_metrics as metrics;
pub use medshield_relation as relation;
pub use medshield_watermark as watermark;
