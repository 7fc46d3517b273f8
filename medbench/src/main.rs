//! `medbench`: the medshield service benchmark.
//!
//! Starts the release `medshield serve` binary as its own process over a
//! pre-seeded durable data directory, drives one of three traffic mixes over
//! loopback TCP, checks every reply against an in-process reference, and
//! prints each metric by name with its unit. With `--trace 1` it also
//! replays the request sequence in-process with a span around every layer
//! call and prints the per-layer breakdown instead.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path medbench/Cargo.toml -- \
//!     --workload detect-scan --seed 1 --seconds 10 --trace 0
//! ```

mod check;
mod inputs;
mod load;
mod report;
mod server;
mod trace;

use inputs::{Expect, Workload};
use load::Conn;
use medshield_core::datagen::ontology;
use medshield_core::dht::DomainHierarchyTree;
use medshield_core::ProtectionEngine;
use medshield_serve::{json, Client, Command, Request, Response};
use report::{median, percentile};
use server::Server;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The protection configuration the server is started with, and the
/// in-process reference built from it.
pub mod config {
    use medshield_core::ProtectionConfig;

    const K: usize = 10;
    const EPSILON: usize = 2;
    const ETA: u64 = 5;
    const DUPLICATION: usize = 2;
    /// Long enough that a 2-party collusion still outranks every innocent
    /// recipient registered during a run.
    const MARK_LEN: usize = 128;
    const MARK_TEXT: &str = "medbench-owner";
    const ENC_SECRET: &str = "medbench-enc";
    const WM_SECRET: &str = "medbench-wm";
    /// Store records between snapshots: several compactions per run.
    pub const SNAPSHOT_EVERY: usize = 32;

    pub fn protection() -> ProtectionConfig {
        ProtectionConfig::builder()
            .k(K)
            .epsilon(EPSILON)
            .eta(ETA)
            .duplication(DUPLICATION)
            .mark_len(MARK_LEN)
            .mark_text(MARK_TEXT)
            .mark_from_statistic(false)
            .encryption_secret(ENC_SECRET.as_bytes().to_vec())
            .watermark_secret(WM_SECRET.as_bytes().to_vec())
            .build()
    }

    /// `medshield serve` flags for the same configuration (one engine
    /// thread per worker, the server's default).
    pub fn server_args(threads: usize) -> Vec<String> {
        let flags = [
            ("addr", "127.0.0.1:0".to_string()),
            ("threads", threads.to_string()),
            ("k", K.to_string()),
            ("epsilon", EPSILON.to_string()),
            ("eta", ETA.to_string()),
            ("duplication", DUPLICATION.to_string()),
            ("mark-len", MARK_LEN.to_string()),
            ("mark-text", MARK_TEXT.to_string()),
            ("mark-from-statistic", "false".to_string()),
            ("enc-secret", ENC_SECRET.to_string()),
            ("wm-secret", WM_SECRET.to_string()),
            ("snapshot-every", SNAPSHOT_EVERY.to_string()),
        ];
        flags.into_iter().flat_map(|(k, v)| [format!("--{k}"), v]).collect()
    }
}

/// The in-process reference: one engine with the server's configuration and
/// the same domain hierarchy trees.
pub struct Ctx {
    pub engine: ProtectionEngine,
    pub trees: BTreeMap<String, DomainHierarchyTree>,
}

/// Server launches per run; `setup_s` is their median.
const SETUP_LAUNCHES: usize = 31;
/// Of those, the launches made before the timed phase.
const SETUP_LAUNCHES_BEFORE: usize = 16;
/// Requests in flight on the pipelined connection (below the queue depth).
const WINDOW: usize = 8;
/// Pings timed for the round-trip figure.
const PINGS: usize = 200;

const USAGE: &str =
    "usage: medbench --workload protect-ingest|detect-scan|trace-mix --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut argv = std::env::args().skip(1);
        while let Some(flag) = argv.next() {
            let key =
                flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(key.to_string(), value);
        }
        let get = |k: &str| values.get(k).ok_or_else(|| format!("--{k} is required"));
        let number =
            |k: &str| get(k)?.parse::<u64>().map_err(|_| format!("--{k} must be a number"));
        let name = get("workload")?;
        let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
        let trace = match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        };
        let seconds = number("seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args { workload, seed: number("seed")?, seconds, trace })
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("medbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("medbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Scratch space of one run under `.medbench/work`, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path, args: &Args) -> Result<WorkDir, String> {
        let name = format!("{}-s{}-p{}", args.workload.name(), args.seed, std::process::id());
        let dir = root.join(".medbench").join("work").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Replace `to` with a copy of the store files in `from`.
fn restore(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {to:?}: {e}"))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("cannot list {from:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("cannot copy {:?}: {e}", entry.path()))?;
        }
    }
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries.filter_map(Result::ok).filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum()
        })
        .unwrap_or(0)
}

/// Wall time of each phase of a run, for the result lines.
struct Phases(Vec<String>, Instant);

impl Phases {
    fn new() -> Phases {
        Phases(Vec::new(), Instant::now())
    }

    fn end(&mut self, name: &str) {
        self.0.push(format!("{name}={:.1}s", self.1.elapsed().as_secs_f64()));
        self.1 = Instant::now();
    }
}

/// Facts from the served run that the per-layer report needs.
pub struct Served {
    pub p50_us: f64,
    pub ping_rtt_us: f64,
    pub batched_ratio: f64,
    pub disk_bytes_per_record: f64,
}

fn run(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/cli/Cargo.toml").is_file() {
        return Err("run from the root of a medshield checkout".into());
    }
    let workload = args.workload;
    let binary = server::build(&root)?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let ctx = Ctx {
        engine: ProtectionEngine::new(config::protection(), 1).map_err(|e| e.to_string())?,
        trees: ontology::all_trees(),
    };
    let work = WorkDir::create(&root, args)?;
    let (pristine, live) = (work.path("pristine"), work.path("live"));
    let mut phases = Phases::new();
    let plan = inputs::build(workload, args.seed, &ctx, &pristine)?;
    phases.end("inputs");

    println!(
        "medbench workload={} seed={} seconds={} trace={} round={} requests",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.round_len()
    );
    println!(
        "host: nproc={nproc} data-dir-fs={} flush=fdatasync before each write reply (group commit) \
         transport=loopback TCP; latencies are this sandbox's, not a device's",
        server::filesystem_of(&work.0)
    );

    // Set-up: launch over the pre-seeded store until the load connection
    // answered a warm-up ping. Some launches run before the timed phase
    // (the last one serves it) and the rest after the checks, so a burst on
    // the host does not shift all of them.
    let pipelined = workload == Workload::DetectScan;
    let launch = |setups: &mut Vec<f64>| -> Result<(Server, Conn), String> {
        restore(&pristine, &live)?;
        let window = if pipelined { WINDOW } else { 0 };
        let (server, conn, setup) = server::launch_and_connect(&binary, &live, nproc, window)?;
        setups.push(setup.as_secs_f64());
        Ok((server, conn))
    };
    let mut setups = Vec::with_capacity(SETUP_LAUNCHES);
    for _ in 1..SETUP_LAUNCHES_BEFORE {
        launch(&mut setups)?;
    }
    let (server, mut conn) = launch(&mut setups)?;
    let mut control = Client::connect(server.addr).map_err(|e| e.to_string())?;

    phases.end("launches");
    // The timed phase.
    let batched_before = server::ping(&mut control)?;
    let cpu_before = server.cpu()?;
    let outcome = load::run(&mut conn, &plan, args.seconds as f64, || server.cpu())?;
    let cpu = server.cpu()?.saturating_sub(cpu_before).as_secs_f64();
    let peak_rss_kib = server.peak_rss_kib()?;
    let batched = server::ping(&mut control)?.saturating_sub(batched_before);
    let mut rtts = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let start = Instant::now();
        server::ping(&mut control)?;
        rtts.push(start.elapsed().as_secs_f64() * 1e6);
    }

    phases.end("timed");
    // Off the clock: the restart probe, then the correctness gate.
    let mut failures = Vec::new();
    if workload.is_durable() {
        let probes = restart_probe_requests(&plan, &outcome.replies)?;
        let first = call_all(&mut control, &probes)?;
        drop((conn, control, server));
        let restarted = Server::launch(&binary, &live, nproc)?;
        let mut client = Client::connect(restarted.addr).map_err(|e| e.to_string())?;
        let second = call_all(&mut client, &probes)?;
        for ((probe, a), b) in probes.iter().zip(&first).zip(&second) {
            if !a.is_ok() || a != b {
                failures.push(format!(
                    "{} after restart differs: {} then {}",
                    probe.command.name(),
                    a.json,
                    b.json
                ));
            }
        }
    } else {
        drop((conn, control, server));
    }
    let samples = report::samples(&plan, &outcome);
    let written = samples.iter().filter(|s| s.write).count();
    let disk_bytes_per_record = dir_bytes(&live) as f64 / (plan.seeded_records + written) as f64;
    failures.extend(check::check_all(&ctx, &plan, &outcome.replies, nproc));
    for _ in SETUP_LAUNCHES_BEFORE..SETUP_LAUNCHES {
        launch(&mut setups)?;
    }

    phases.end("checks");
    let completed = samples.len();
    let attempted = outcome.replies.len();
    let all: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let timed_s: f64 = outcome.rounds.iter().map(|r| r.wall.as_secs_f64()).sum();
    let detects = if workload == Workload::DetectScan { completed } else { 0 };
    let served = Served {
        p50_us: percentile(&all, 50.0) * 1e3,
        ping_rtt_us: median(&rtts),
        batched_ratio: if detects == 0 { 0.0 } else { batched as f64 / detects as f64 },
        disk_bytes_per_record,
    };

    // Human-readable lines: every figure with its sample count.
    let failed = failures.len().min(attempted);
    println!(
        "served: attempted={attempted} completed={completed} failed={failed} failed_ratio={} \
         timed_rounds={} timed_s={timed_s:.3} server_cpu_s={cpu:.2} (warm-up round included)",
        failed as f64 / attempted.max(1) as f64,
        outcome.rounds.len(),
    );
    for (class, write, pcts) in [("write", true, [50.0, 90.0]), ("read", false, [50.0, 99.0])] {
        let sample: Vec<f64> =
            samples.iter().filter(|s| s.write == write).map(|s| s.latency_ms).collect();
        if !sample.is_empty() {
            println!(
                "served {class}s: n={} p{}={:.3} ms p{}={:.3} ms",
                sample.len(),
                pcts[0],
                percentile(&sample, pcts[0]),
                pcts[1],
                percentile(&sample, pcts[1])
            );
        }
    }
    let rates: Vec<f64> =
        outcome.rounds.iter().map(|r| r.requests as f64 / r.wall.as_secs_f64()).collect();
    println!(
        "served rounds: n={} req/s min={:.1} p25={:.1} p50={:.1} p75={:.1} max={:.1}",
        rates.len(),
        percentile(&rates, 0.0),
        percentile(&rates, 25.0),
        percentile(&rates, 50.0),
        percentile(&rates, 75.0),
        percentile(&rates, 100.0)
    );
    println!(
        "server: ping rtt median {:.1} us (n={PINGS}); batched detects {} of {detects}; \
         setup launches {:?} s",
        served.ping_rtt_us,
        batched,
        setups.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>(),
    );

    let metrics = if args.trace {
        let spans_dir = root.join(".medbench").join("trace");
        std::fs::create_dir_all(&spans_dir)
            .map_err(|e| format!("cannot create {spans_dir:?}: {e}"))?;
        let spans = spans_dir.join(format!("{}-s{}.tsv", workload.name(), args.seed));
        let (metrics, replay_failures) =
            report::traced(workload, &ctx, &plan, &outcome.replies, &served, &pristine, &spans)?;
        failures.extend(replay_failures);
        metrics
    } else {
        report::end_to_end(&setups, &outcome.rounds, peak_rss_kib)
    };

    phases.end("trace");
    println!("phases: {}", phases.0.join(" "));
    for f in failures.iter().take(20) {
        eprintln!("medbench: FAILED {f}");
    }
    let failed = failures.len().min(attempted);
    let correct = failures.is_empty() && completed == attempted && !outcome.rounds.is_empty();
    report::print(correct, attempted, failed, if correct { &metrics } else { &[] });
    Ok(correct)
}

fn reply_ok(reply: &load::Reply) -> Option<&Response> {
    reply.response.as_ref().ok().filter(|r| r.is_ok())
}

fn call_all(client: &mut Client, requests: &[Request]) -> Result<Vec<Response>, String> {
    requests.iter().map(|r| client.call(r).map_err(|e| e.to_string())).collect()
}

/// Requests whose replies must be byte-identical before and after a restart,
/// built from the last write the run acknowledged. protect-ingest: a `detect`
/// of the last protected release. trace-mix: a `detect` and a
/// `resolve-leaker` of the copy last issued to a new recipient; the
/// `resolve-leaker` reply counts and ranks every registered recipient, so a
/// recipient record lost on restart changes it.
fn restart_probe_requests(
    plan: &inputs::Plan,
    replies: &[load::Reply],
) -> Result<Vec<Request>, String> {
    let written = replies.iter().enumerate().rev().find_map(|(i, reply)| {
        let response = reply_ok(reply).filter(|_| plan.is_write(i))?;
        let expect = plan.op(i).expect;
        let release = match &expect {
            Expect::Protect { .. } => json::get_str(&response.json, "release")?,
            Expect::ProtectFor { release, .. } => format!("r{}", plan.releases[*release].id),
            _ => return None,
        };
        Some((release, response.body.clone()?, expect))
    });
    let (release, body, expect) = written.ok_or("no write was acknowledged")?;
    let detect = Request::new(Command::Detect).param("release", release.clone()).body(body.clone());
    Ok(match expect {
        Expect::ProtectFor { .. } => {
            vec![detect, Request::new(Command::ResolveLeaker).param("release", release).body(body)]
        }
        _ => vec![detect],
    })
}
