//! Golden release bytes: SHA-256 digests of fixed-seed outputs, pinned as
//! constants.
//!
//! The equivalence suites compare the code with itself (N threads against
//! one, served against in-process), so a refactor that changed both sides
//! the same way would pass them. These digests were computed once and must
//! never change unless the release format or the paper's algorithms change
//! on purpose. On a mismatch the test prints the fresh digest.

use medshield_core::attacks::{
    Attack, CollusionAttack, GeneralizationAttack, MixedAttack, SubsetAlteration, SubsetDeletion,
};
use medshield_core::crypto::{hex, sha256::sha256};
use medshield_core::relation::{csv, Table};
use medshield_core::watermark::{
    DetectionReport, FingerprintDeriver, Mark, WatermarkConfig, WatermarkKey, Watermarker,
};
use medshield_core::{ProtectionConfig, ProtectionEngine};
use medshield_datagen::{DatasetConfig, MedicalDataset};

const PROTECT_CSV: &str = "2a724d8ab16f9549820f814b0415a0037e681528d026380f499bcfc30115e9d6";
const PER_ATTRIBUTE_CSV: &str = "b8440629994587abe1dde0ea9d7e5c323243023ae0ce7b34dc70fd1e6175d09a";
const ATTACKED_DETECTION: &str = "98c81976e0e4ad2a379e9208a9968f2d2800356236ae627facb69f2a6d96e2ff";
const SINGLE_LEVEL_CSV: &str = "8dacfc1fb31dbbc2d017825f5c9bd3213240eede3f7570571aba8bf9192e60cd";
const SINGLE_LEVEL_MARK: &str = "f6e27447a10012321636bafeb23c438b1e03df716a5d73648b73ac8239d9f3d3";
const BIN_CSV: &str = "d1d852ada07ee7534b666bcf1cfc1857134f3f1e2509c1d01218a05ec0108c4f";
const BIN_PER_ATTRIBUTE_CSV: &str =
    "00194215ac513de1f7ed29230dfa9eb17cd648d9c03aafbd487591948d17e9a5";
const ALTERATION_CSV: &str = "c5945ef0aa5c87dc63343d2128187e991badfcef6090672e488bc9b5bd80e06d";
const RANDOM_DELETION_CSV: &str =
    "b0b6efb0e8da37c5b049faf831d80f317381c51437e5b43d192307c7d6e72444";
const RANGE_DELETION_CSV: &str = "ea49f0a4408c696589b8402cf7b41e4baa2078a5c9262d23147bc4f084b05f7f";
const COLLUSION_CSV: &str = "f5e2e9601ea76e059bd3109d18653e2f253eb79f9365264fade285157131dc6e";
const GENERALIZATION_CSV: &str = "9cba7f6090b7aab8fa807795b0e04c8bb1e6954d7fe5a668f86a0945dafec209";

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

#[test]
fn binning_outcome_bytes_are_pinned() {
    let ds = dataset();
    let engine = engine();
    let agent = engine.binning_agent();
    let maximal = engine.default_maximal(&ds.trees);
    let binned = agent.bin(&ds.table, &ds.trees, &maximal).unwrap();
    assert_digest("bin", csv::to_csv(&binned.table).as_bytes(), BIN_CSV);
    let per_attribute = agent.bin_per_attribute(&ds.table, &ds.trees, &maximal).unwrap();
    assert_digest(
        "bin_per_attribute",
        csv::to_csv(&per_attribute.table).as_bytes(),
        BIN_PER_ATTRIBUTE_CSV,
    );
}

#[test]
fn attacked_table_bytes_are_pinned() {
    let ds = dataset();
    let engine = engine();
    let release = engine.protect_per_attribute(&ds.table, &ds.trees).unwrap();
    let attacked = |attack: &dyn Attack| csv::to_csv(&attack.apply(&release.table));

    assert_digest(
        "subset alteration",
        attacked(&SubsetAlteration::new(0.3, 21)).as_bytes(),
        ALTERATION_CSV,
    );
    assert_digest(
        "random deletion",
        attacked(&SubsetDeletion::random(0.3, 22)).as_bytes(),
        RANDOM_DELETION_CSV,
    );
    assert_digest(
        "identifier-range deletion",
        attacked(&SubsetDeletion::ranges(0.3, 23, "ssn")).as_bytes(),
        RANGE_DELETION_CSV,
    );
    assert_digest(
        "generalization",
        attacked(&GeneralizationAttack::new(1, ds.trees.clone())).as_bytes(),
        GENERALIZATION_CSV,
    );

    // Collusion mixes fingerprinted recipient copies of the same release.
    let deriver = FingerprintDeriver::new(&engine.config().watermark.key, engine.config().mark_len);
    let copies: Vec<Table> = ["golden-a", "golden-b", "golden-c"]
        .iter()
        .map(|name| {
            engine
                .watermarker()
                .embed_into(
                    &release.table,
                    &release.binning.columns,
                    &ds.trees,
                    &deriver.derive(name),
                )
                .unwrap()
                .0
        })
        .collect();
    let colluded = csv::to_csv(&CollusionAttack::new(copies[1..].to_vec(), 24).apply(&copies[0]));
    assert_ne!(colluded, csv::to_csv(&copies[0]), "the mix must differ from the first copy");
    assert_digest("collusion", colluded.as_bytes(), COLLUSION_CSV);
}
