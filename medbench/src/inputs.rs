//! Seeded inputs: the pre-seeded release store each workload starts from and
//! the request list it sends. The list is endless and built a round at a
//! time: request `i` is a function of the workload, the seed and `i` alone,
//! so the same arguments give the same bytes however far a run gets.

use crate::Ctx;
use medshield_core::attacks::{Attack, CollusionAttack, SubsetAlteration, SubsetDeletion};
use medshield_core::binning::ColumnBinning;
use medshield_core::datagen::{DatasetConfig, MedicalDataset};
use medshield_core::relation::{csv, Table};
use medshield_core::watermark::derive_recipient_mark;
use medshield_serve::store::StoredRecipient;
use medshield_serve::{Command, DurableStore, ReleaseStore, Request, StoredRelease};
use std::path::Path;

/// The three served traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Hospitals submit distinct originals for protection.
    ProtectIngest,
    /// A crawler checks attacked suspect copies against stored releases.
    DetectScan,
    /// Recipient copies are issued beside leak tracing on the same store.
    TraceMix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "protect-ingest" => Some(Workload::ProtectIngest),
            "detect-scan" => Some(Workload::DetectScan),
            "trace-mix" => Some(Workload::TraceMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProtectIngest => "protect-ingest",
            Workload::DetectScan => "detect-scan",
            Workload::TraceMix => "trace-mix",
        }
    }

    /// Requests per round. A round is a complete, balanced slice of the
    /// traffic (protect-ingest: one table from each of 16 size strata), so
    /// every round does the same mix of work and rounds can be compared.
    pub fn round_len(self) -> usize {
        match self {
            Workload::ProtectIngest => 16,
            Workload::DetectScan => 1000,
            Workload::TraceMix => 64,
        }
    }

    /// Whether the workload writes to the store (and so gets the restart
    /// probe).
    pub fn is_durable(self) -> bool {
        self != Workload::DetectScan
    }
}

/// SplitMix64: a small, fully specified generator, so inputs do not depend
/// on any library's sampling algorithm.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A sub-seed for stream `tag`, independent of how much of this stream
    /// was drawn.
    pub fn derive(seed: u64, tag: u64) -> u64 {
        Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
    }
}

/// What a reply must satisfy; checked after the timed phase.
#[derive(Debug, Clone)]
pub enum Expect {
    /// The body is the in-process release of the submitted table.
    Protect { per_attribute: bool },
    /// The mark equals in-process detection of the suspect.
    Detect { release: usize },
    /// The body is the in-process fingerprinted copy for `recipient`.
    ProtectFor { release: usize, recipient: String },
    /// The named leaker is one of `culprits`.
    Leaker { culprits: Vec<String> },
}

/// One request of the list: its frame payload and its check.
pub struct Op {
    pub payload: Vec<u8>,
    pub expect: Expect,
}

impl Op {
    fn new(request: Request, expect: Expect) -> Op {
        Op { payload: request.encode(), expect }
    }
}

/// A release in the pre-seeded store, as the benchmark keeps it.
pub struct SeededRelease {
    pub id: u64,
    /// The published (binned and marked) table.
    pub table: Table,
    pub columns: Vec<ColumnBinning>,
    /// Leaked tables prepared at setup (indexes into [`Plan::shared`]),
    /// each with the recipients that produced it.
    pub leaks: Vec<(usize, Vec<String>)>,
}

/// A workload's inputs: the pre-seeded store's releases and what it takes
/// to build any request of the list.
pub struct Plan {
    workload: Workload,
    seed: u64,
    pub releases: Vec<SeededRelease>,
    /// Bodies many requests send (trace-mix: the published releases, then
    /// the prepared leaks).
    shared: Vec<String>,
    /// Records in the pre-seeded store (releases plus recipient records).
    pub seeded_records: usize,
}

impl Plan {
    pub fn round_len(&self) -> usize {
        self.workload.round_len()
    }

    /// Whether request `i` writes to the store.
    pub fn is_write(&self, i: usize) -> bool {
        match self.workload {
            Workload::ProtectIngest => true,
            Workload::DetectScan => false,
            Workload::TraceMix => i.is_multiple_of(4),
        }
    }

    /// Requests `range` of the list, built on every core.
    pub fn ops(&self, range: std::ops::Range<usize>) -> Vec<Op> {
        parallel_map(range.len(), |k| self.op(range.start + k))
    }

    /// Request `i` of the list.
    pub fn op(&self, i: usize) -> Op {
        match self.workload {
            Workload::ProtectIngest => self.protect_ingest_op(i),
            Workload::DetectScan => self.detect_scan_op(i),
            Workload::TraceMix => self.trace_mix_op(i),
        }
    }
}

/// Seed the store in `dir` and keep what the request list needs.
pub fn build(workload: Workload, seed: u64, ctx: &Ctx, dir: &Path) -> Result<Plan, String> {
    let (releases, shared, seeded_records) = match workload {
        Workload::ProtectIngest => (seed_store(ctx, dir, Vec::new())?, Vec::new(), 0),
        Workload::DetectScan => {
            let originals: Vec<Table> =
                (0..64).map(|i| table(120, Rng::derive(seed, 0x2000 + i))).collect();
            let releases = seed_store(ctx, dir, originals)?;
            let records = releases.len();
            (releases, Vec::new(), records)
        }
        Workload::TraceMix => trace_mix_store(seed, ctx, dir)?,
    };
    Ok(Plan { workload, seed, releases, shared, seeded_records })
}

fn table(rows: usize, seed: u64) -> Table {
    MedicalDataset::generate(&DatasetConfig { num_tuples: rows, seed, ..DatasetConfig::default() })
        .table
}

/// Protect `tables` in-process and store them through the program's own
/// durable store, compacting halfway so recovery reads a snapshot and a log.
fn seed_store(ctx: &Ctx, dir: &Path, tables: Vec<Table>) -> Result<Vec<SeededRelease>, String> {
    let protected = tables
        .iter()
        .map(|table| ctx.engine.protect_per_attribute(table, &ctx.trees))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("seed protect: {e}"))?;
    let store = DurableStore::open(dir, 0).map_err(|e| format!("cannot seed {dir:?}: {e}"))?;
    let mut ids = Vec::with_capacity(protected.len());
    for (i, release) in protected.iter().enumerate() {
        if i > 0 && i == protected.len() / 2 {
            store.compact().map_err(|e| format!("seed snapshot: {e}"))?;
        }
        let record = StoredRelease {
            columns: release.binning.columns.clone(),
            mark: release.mark.clone(),
            ownership: release.ownership.clone(),
            recipients: Vec::new(),
        };
        ids.push(store.append(record).map_err(|e| format!("seed append: {e}"))?);
    }
    store.sync().map_err(|e| format!("seed sync: {e}"))?;
    Ok(protected
        .into_iter()
        .zip(ids)
        .map(|(release, id)| SeededRelease {
            id,
            table: release.table,
            columns: release.binning.columns,
            leaks: Vec::new(),
        })
        .collect())
}

/// `f(0..n)` in order, computed on every core: each item depends only on
/// its index, so the result is the same for any core count.
fn parallel_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from).min(n.max(1));
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let f = &f;
        let parts: Vec<_> = (0..threads)
            .map(|t| {
                scope
                    .spawn(move || (t * chunk..((t + 1) * chunk).min(n)).map(f).collect::<Vec<T>>())
            })
            .collect();
        parts.into_iter().flat_map(|p| p.join().expect("an input generator panicked")).collect()
    })
}

/// Size strata of a protect-ingest round.
const STRATA: usize = 16;

/// Recipients registered per release at setup; their copies make the leaks.
const SEED_RECIPIENTS: usize = 3;

impl Plan {
    /// A distinct original, sizes log-uniform over 500–4,000 rows. Every
    /// round holds one table from each of 16 size strata in a seeded order,
    /// and the strata 3, 7, 11 and 15 ask for multi-attribute binning, so one
    /// request in four does and every round (and every seed) submits the
    /// same mix.
    fn protect_ingest_op(&self, i: usize) -> Op {
        let (round, slot) = (i / STRATA, i % STRATA);
        let mut order = Rng::new(Rng::derive(self.seed, 0x1_0000_0000 + round as u64));
        let mut strata: Vec<usize> = (0..STRATA).collect();
        for k in (1..STRATA).rev() {
            strata.swap(k, order.below(k + 1));
        }
        let stratum = strata[slot];
        let mut rng = Rng::new(Rng::derive(self.seed, 0x10_0000 + i as u64));
        let u = (stratum as f64 + rng.unit()) / STRATA as f64;
        let rows = (500.0 * 8f64.powf(u)).round() as usize;
        let body = csv::to_csv(&table(rows, rng.next_u64()));
        let per_attribute = stratum % 4 != 3;
        let mut request = Request::new(Command::Protect);
        if !per_attribute {
            request = request.param("per-attribute", "false");
        }
        Op::new(request.body(body), Expect::Protect { per_attribute })
    }

    /// A distinct 120-row copy of one of the 64 releases, attacked by a
    /// seeded 10% alteration or deletion.
    fn detect_scan_op(&self, i: usize) -> Op {
        let mut rng = Rng::new(Rng::derive(self.seed, 0x20_0000 + i as u64));
        let release = rng.below(self.releases.len());
        let attack_seed = rng.next_u64();
        let published = &self.releases[release].table;
        let suspect = if rng.below(2) == 0 {
            SubsetAlteration::new(0.10, attack_seed).apply(published)
        } else {
            SubsetDeletion::random(0.10, attack_seed).apply(published)
        };
        let request = Request::new(Command::Detect)
            .param("release", format!("r{}", self.releases[release].id))
            .body(csv::to_csv(&suspect));
        Op::new(request, Expect::Detect { release })
    }

    /// Every 4th request issues a copy of one of the 16 releases to a new
    /// recipient; the other three trace one of its prepared leaks.
    fn trace_mix_op(&self, i: usize) -> Op {
        let mut rng = Rng::new(Rng::derive(self.seed, 0x30_0000 + i as u64));
        let release = rng.below(self.releases.len());
        let id = format!("r{}", self.releases[release].id);
        if i.is_multiple_of(4) {
            let recipient = format!("w{i}");
            let request = Request::new(Command::ProtectFor)
                .param("release", id)
                .param("recipient", recipient.clone())
                .body(self.shared[release].clone());
            Op::new(request, Expect::ProtectFor { release, recipient })
        } else {
            let (leak, culprits) = &self.releases[release].leaks[rng.below(4)];
            let request = Request::new(Command::ResolveLeaker)
                .param("release", id)
                .body(self.shared[*leak].clone());
            Op::new(request, Expect::Leaker { culprits: culprits.clone() })
        }
    }
}

/// 16 releases of 1,000 rows, each with three recipients and four prepared
/// leaks (two single-copy leaks, two 2-party collusions). Returns the
/// releases, the shared bodies (the published releases, then the leaks) and
/// the records stored.
fn trace_mix_store(
    seed: u64,
    ctx: &Ctx,
    dir: &Path,
) -> Result<(Vec<SeededRelease>, Vec<String>, usize), String> {
    let originals: Vec<Table> =
        (0..16).map(|i| table(1000, Rng::derive(seed, 0x3000 + i))).collect();
    let mut releases = seed_store(ctx, dir, originals)?;
    let store = DurableStore::open(dir, 0).map_err(|e| format!("cannot reopen {dir:?}: {e}"))?;
    let key = &ctx.engine.watermarker().config().key;
    let mark_len = ctx.engine.config().mark_len;
    let mut rng = Rng::new(Rng::derive(seed, 3));
    let mut shared: Vec<String> = releases.iter().map(|r| csv::to_csv(&r.table)).collect();
    for (r, release) in releases.iter_mut().enumerate() {
        let mut copies = Vec::with_capacity(SEED_RECIPIENTS);
        for j in 0..SEED_RECIPIENTS {
            let name = format!("s{r}x{j}");
            let mark = derive_recipient_mark(key, &name, mark_len);
            let (copy, _) = ctx
                .engine
                .embed(&release.table, &release.columns, &ctx.trees, &mark)
                .map_err(|e| format!("seed copy: {e}"))?;
            store
                .add_recipient(release.id, StoredRecipient { name: name.clone(), mark })
                .map_err(|e| format!("seed recipient: {e}"))?;
            copies.push((name, copy));
        }
        let mixed = |a: usize, b: usize, seed: u64| {
            CollusionAttack::new(vec![copies[b].1.clone()], seed).apply(&copies[a].1)
        };
        let leaks = [
            (SubsetDeletion::random(0.10, rng.next_u64()).apply(&copies[0].1), vec![0]),
            (SubsetAlteration::new(0.10, rng.next_u64()).apply(&copies[1].1), vec![1]),
            (mixed(0, 1, rng.next_u64()), vec![0, 1]),
            (mixed(1, 2, rng.next_u64()), vec![1, 2]),
        ];
        for (leaked, culprits) in leaks {
            shared.push(csv::to_csv(&leaked));
            let culprits = culprits.into_iter().map(|c| copies[c].0.clone()).collect();
            release.leaks.push((shared.len() - 1, culprits));
        }
    }
    store.sync().map_err(|e| format!("seed sync: {e}"))?;
    let records = releases.len() * (1 + SEED_RECIPIENTS);
    Ok((releases, shared, records))
}
