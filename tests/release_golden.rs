//! Golden release bytes: SHA-256 digests of fixed-seed outputs, pinned as
//! constants.
//!
//! The equivalence suites compare the code with itself (N threads against
//! one, served against in-process), so a refactor that changed both sides
//! the same way would pass them. These digests were computed once and must
//! never change unless the release format or the paper's algorithms change
//! on purpose. On a mismatch the test prints the fresh digest.

use medshield_core::attacks::{Attack, MixedAttack, SubsetAlteration, SubsetDeletion};
use medshield_core::crypto::{hex, sha256::sha256};
use medshield_core::relation::csv;
use medshield_core::watermark::{
    DetectionReport, Mark, WatermarkConfig, WatermarkKey, Watermarker,
};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

const PROTECT_CSV: &str = "2a724d8ab16f9549820f814b0415a0037e681528d026380f499bcfc30115e9d6";
const PER_ATTRIBUTE_CSV: &str = "b8440629994587abe1dde0ea9d7e5c323243023ae0ce7b34dc70fd1e6175d09a";
const ATTACKED_DETECTION: &str = "98c81976e0e4ad2a379e9208a9968f2d2800356236ae627facb69f2a6d96e2ff";
const SINGLE_LEVEL_CSV: &str = "8dacfc1fb31dbbc2d017825f5c9bd3213240eede3f7570571aba8bf9192e60cd";
const SINGLE_LEVEL_MARK: &str = "f6e27447a10012321636bafeb23c438b1e03df716a5d73648b73ac8239d9f3d3";

fn digest(bytes: &[u8]) -> String {
    hex::encode(&sha256(bytes))
}

fn bits(mark: &[bool]) -> String {
    mark.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn encode_detection(report: &DetectionReport) -> String {
    format!(
        "mark={} covered={} wmd_len={} selected={}",
        bits(&report.mark),
        report.covered_positions,
        report.wmd_len,
        report.selected_tuples
    )
}

fn engine() -> ProtectionEngine {
    ProtectionEngine::sequential(
        ProtectionConfig::builder()
            .k(4)
            .eta(5)
            .duplication(2)
            .mark_len(20)
            .encryption_secret(b"golden-enc".to_vec())
            .watermark_secret(b"golden-wm".to_vec())
            .mark_text("Golden Release Owner")
            .build(),
    )
}

fn dataset() -> MedicalDataset {
    MedicalDataset::generate(&DatasetConfig::small(1_000))
}

fn assert_digest(what: &str, bytes: &[u8], expected: &str) {
    let actual = digest(bytes);
    assert_eq!(actual, expected, "{what}: digest changed (fresh value {actual})");
}

#[test]
fn protect_release_bytes_are_pinned() {
    let ds = dataset();
    let release = engine().protect(&ds.table, &ds.trees).unwrap();
    assert_digest("protect", csv::to_csv(&release.table).as_bytes(), PROTECT_CSV);
}

#[test]
fn per_attribute_release_bytes_and_attacked_detection_are_pinned() {
    let ds = dataset();
    let engine = engine();
    let release = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
    assert_digest(
        "protect_per_attribute",
        csv::to_csv(&release.table).as_bytes(),
        PER_ATTRIBUTE_CSV,
    );

    let attacked = MixedAttack::new()
        .then(SubsetDeletion::random(0.2, 11))
        .then(SubsetAlteration::new(0.2, 12))
        .apply(&release.table);
    let report = engine.detect(&attacked, &release.binning.columns, &ds.trees).unwrap();
    assert_digest("attacked detection", encode_detection(&report).as_bytes(), ATTACKED_DETECTION);
}

#[test]
fn single_level_embed_and_detect_are_pinned() {
    let ds = dataset();
    let release = engine().protect_per_attribute(&ds.table, &ds.trees).unwrap();
    let key = WatermarkKey::from_master(b"golden-single-level", 5);
    let single = Watermarker::single_level(WatermarkConfig::new(key));
    let mark = Mark::from_bytes(b"golden-single-level", 20);
    let (marked, _) = single.embed(&release.binning, &ds.trees, &mark).unwrap();
    assert_digest("single-level embed", csv::to_csv(&marked).as_bytes(), SINGLE_LEVEL_CSV);

    let detected = single.detect(&marked, &release.binning.columns, &ds.trees, mark.len()).unwrap();
    assert_digest("single-level mark", bits(&detected.mark).as_bytes(), SINGLE_LEVEL_MARK);
}
