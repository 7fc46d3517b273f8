//! # medshield
//!
//! Facade crate for the MedShield workspace — a Rust reproduction of
//! Bertino, Ooi, Yang and Deng, *Privacy and Ownership Preserving of
//! Outsourced Medical Data*, ICDE 2005.
//!
//! Everything lives in the sub-crates (see `docs/ARCHITECTURE.md`); this
//! crate re-exports [`medshield_core`] so that a single dependency pulls in
//! the whole framework, and it anchors the repository-level integration
//! tests (`tests/`) and runnable examples (`examples/`).
//!
//! ```
//! use medshield::core::{ProtectionConfig, ProtectionEngine};
//!
//! let config = ProtectionConfig::builder().k(4).build();
//! let _engine = ProtectionEngine::sequential(config);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use medshield_core as core;

pub use medshield_core::{
    ProtectedRelease, ProtectionConfig, ProtectionConfigBuilder, ProtectionEngine,
};
