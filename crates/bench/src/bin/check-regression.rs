//! Bench-regression guard for CI: compare freshly generated `BENCH_*.json`
//! files against the baselines committed under `crates/bench/baselines/` and
//! fail when single-thread throughput drops by more than the tolerance.
//!
//! ```text
//! check-regression [FRESH.json ...]
//! ```
//!
//! With no arguments, every `BENCH_*.json` in the current directory that has
//! a committed baseline of the same file name is checked (at least one must
//! exist). The guard reads the 1-thread/1-worker entry — `rows_per_sec` for
//! the engine and binning benches, `requests_per_sec` for the serving-layer
//! bench — because the sharding speedup depends on the host's core count,
//! while single-thread throughput is the stable per-commit signal the
//! trajectory is tracked by. The serving-layer bench additionally guards
//! its durable-store axis (`durable_requests_per_sec`), the
//! 1024-connection point of its connections axis, and the 16-recipient
//! point of its recipients axis (`protect_for_per_sec` /
//! `resolve_leaker_per_sec`), so neither the fsync path, the multiplexed
//! I/O core, nor the traitor-tracing path can regress behind the in-memory
//! metric. Files that record a `layout` axis (the table layout the bench
//! ran against, `columnar` since the column-store refactor) must match
//! their baseline's layout, and a baseline layout can never silently
//! disappear from the fresh file. Every bench also records the host's
//! logical-CPU count (`host_parallelism`); a fresh file generated on a
//! host with a different core count than the baseline is refused outright —
//! the floors are calibrated per host and a cross-core comparison would
//! quietly turn the guard into noise. A refused file and a failed floor end
//! with different closing messages, so a failure names its real cause.
//!
//! Environment:
//!
//! * `MEDSHIELD_BASELINE_DIR` — baseline directory (default
//!   `crates/bench/baselines`).
//! * `MEDSHIELD_REGRESSION_TOLERANCE` — allowed fractional drop (default
//!   `0.25`, i.e. fail below 75% of the baseline).

#![forbid(unsafe_code)]

use medshield_bench::benchjson;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn baseline_dir() -> PathBuf {
    std::env::var("MEDSHIELD_BASELINE_DIR")
        .unwrap_or_else(|_| "crates/bench/baselines".into())
        .into()
}

fn tolerance() -> f64 {
    std::env::var("MEDSHIELD_REGRESSION_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25)
}

/// Why a fresh bench file failed its check.
#[derive(Debug, PartialEq)]
enum Failure {
    /// The file could not be compared with its baseline, so no floor was
    /// evaluated: an unreadable file, a different workload, host core count
    /// or layout, or an axis the baseline carries that stopped reporting.
    Refused(String),
    /// A throughput floor failed.
    Regression(String),
}

use Failure::{Refused, Regression};

/// Check one fresh bench file against its baseline; `Ok(line)` describes the
/// comparison.
fn check(fresh_path: &Path, baseline_path: &Path, tolerance: f64) -> Result<String, Failure> {
    let fresh = std::fs::read_to_string(fresh_path).map_err(|e| {
        Refused(format!("cannot read fresh bench file {}: {e}", fresh_path.display()))
    })?;
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| Refused(format!("cannot read baseline {}: {e}", baseline_path.display())))?;
    compare(&fresh, &baseline, tolerance)
}

/// Compare the contents of a fresh bench file with its baseline.
fn compare(fresh: &str, baseline: &str, tolerance: f64) -> Result<String, Failure> {
    let name = benchjson::benchmark_name(fresh).unwrap_or("unknown-benchmark").to_string();
    // A throughput comparison is only meaningful over the same workload:
    // different rows/k/candidate counts shift rows_per_sec for workload
    // reasons and would silently mask (or fake) real regressions.
    for field in ["rows", "k", "candidates", "tables", "detect_rounds", "conn_requests"] {
        let (f, b) = (benchjson::top_metric(fresh, field), benchjson::top_metric(baseline, field));
        if let (Some(f), Some(b)) = (f, b) {
            if f != b {
                return Err(Refused(format!(
                    "{name}: workload mismatch — fresh {field}={f} vs baseline {field}={b}; \
                     regenerate the baseline with the same bench parameters"
                )));
            }
        }
    }
    // The host's core count is part of the calibration: thread scheduling,
    // group-commit batching and the readiness loop all price differently
    // across core counts, so the floors only mean something against a
    // baseline regenerated on the same class of host. A baseline that
    // records the count while the fresh file reports none means the bench
    // stopped recording it — the guard must never deactivate silently.
    match (
        benchjson::top_metric(fresh, "host_parallelism"),
        benchjson::top_metric(baseline, "host_parallelism"),
    ) {
        (Some(f), Some(b)) if f != b => {
            return Err(Refused(format!(
                "{name}: host core-count mismatch — fresh host_parallelism={f} vs baseline \
                 host_parallelism={b}; throughput floors are not comparable across core \
                 counts, regenerate the baseline on this host"
            )));
        }
        (None, Some(b)) => {
            return Err(Refused(format!(
                "{name}: the baseline records host_parallelism={b} but the fresh file \
                 reports none — the bench stopped recording the host core count"
            )));
        }
        _ => {}
    }
    // The table layout is part of the workload: columnar rows/s are only
    // comparable against a columnar baseline. A baseline that records a
    // layout the fresh file no longer reports means the layout axis stopped
    // reporting — the guard must never deactivate silently.
    match (benchjson::top_string(fresh, "layout"), benchjson::top_string(baseline, "layout")) {
        (Some(f), Some(b)) if f != b => {
            return Err(Refused(format!(
                "{name}: layout mismatch — fresh \"{f}\" vs baseline \"{b}\"; the throughput \
                 floors below are calibrated per layout, regenerate the baseline"
            )));
        }
        (None, Some(b)) => {
            return Err(Refused(format!(
                "{name}: the baseline records a \"{b}\" table layout but the fresh file \
                 reports none — the layout axis of the bench stopped reporting"
            )));
        }
        _ => {}
    }
    // Engine/binning benches report rows_per_sec; the serving-layer bench
    // reports requests_per_sec. Guard whichever the file carries.
    let (metric, unit) = ["rows_per_sec", "requests_per_sec"]
        .iter()
        .find(|m| benchjson::thread_metric(fresh, 1, m).is_some())
        .map(|&m| (m, if m == "rows_per_sec" { "rows/s" } else { "req/s" }))
        .ok_or_else(|| {
            Refused(format!(
                "{name}: fresh file has no 1-thread rows_per_sec or requests_per_sec entry"
            ))
        })?;
    let fresh_1t = benchjson::thread_metric(fresh, 1, metric)
        .ok_or_else(|| Refused(format!("{name}: fresh file has no 1-thread {metric} entry")))?;
    let base_1t = benchjson::thread_metric(baseline, 1, metric)
        .ok_or_else(|| Refused(format!("{name}: baseline has no 1-thread {metric} entry")))?;
    let floor = base_1t * (1.0 - tolerance);
    let ratio = fresh_1t / base_1t;
    let mut line = format!(
        "{name}: 1-thread {fresh_1t:.0} {unit} vs baseline {base_1t:.0} {unit} \
         ({:.0}% of baseline, floor {floor:.0})",
        ratio * 100.0
    );
    if fresh_1t < floor {
        return Err(Regression(format!("REGRESSION — {line}")));
    }
    // The serving-layer bench also carries a durable-store axis; hold the
    // fsync-batched path to the same trajectory so a persistence-layer
    // slowdown cannot hide behind the in-memory metric. A baseline that
    // carries the metric while the fresh file does not is itself a failure:
    // the guard must never deactivate silently.
    let durable = "durable_requests_per_sec";
    match (
        benchjson::thread_metric(fresh, 1, durable),
        benchjson::thread_metric(baseline, 1, durable),
    ) {
        (Some(fresh_d), Some(base_d)) => {
            let floor_d = base_d * (1.0 - tolerance);
            line.push_str(&format!(
                "; durable {fresh_d:.0} vs {base_d:.0} ({:.0}%, floor {floor_d:.0})",
                fresh_d / base_d * 100.0
            ));
            if fresh_d < floor_d {
                return Err(Regression(format!("REGRESSION (durable axis) — {line}")));
            }
        }
        (None, Some(_)) => {
            return Err(Refused(format!(
                "{name}: the baseline carries a 1-thread {durable} entry but the fresh \
                 file does not — the persistence axis of the bench stopped reporting"
            )));
        }
        _ => {}
    }
    // The serving-layer bench also carries a connections axis: the
    // 1024-connection throughput is the readiness loop's at-scale signal,
    // held to the same trajectory so a multiplexing slowdown cannot hide
    // behind the per-worker metrics. As with the durable axis, a baseline
    // that carries the entry while the fresh file does not is a failure.
    match (
        benchjson::axis_metric(fresh, "connections", 1024, "requests_per_sec"),
        benchjson::axis_metric(baseline, "connections", 1024, "requests_per_sec"),
    ) {
        (Some(fresh_c), Some(base_c)) => {
            let floor_c = base_c * (1.0 - tolerance);
            line.push_str(&format!(
                "; 1024-conn {fresh_c:.0} vs {base_c:.0} ({:.0}%, floor {floor_c:.0})",
                fresh_c / base_c * 100.0
            ));
            if fresh_c < floor_c {
                return Err(Regression(format!("REGRESSION (connections axis) — {line}")));
            }
        }
        (None, Some(_)) => {
            return Err(Refused(format!(
                "{name}: the baseline carries a 1024-connection requests_per_sec entry but \
                 the fresh file does not — the connections axis of the bench stopped reporting"
            )));
        }
        _ => {}
    }
    // The serving-layer bench also carries a recipients axis: protect-for
    // and resolve-leaker throughput at 16 registered recipients is the
    // traitor-tracing path's at-scale signal — fingerprint scoring grows
    // with the candidate set, and a slowdown there must not hide behind the
    // single-mark metrics. Same rule as above: a baseline that carries the
    // entries while the fresh file does not is itself a failure.
    for tracing_metric in ["protect_for_per_sec", "resolve_leaker_per_sec"] {
        match (
            benchjson::axis_metric(fresh, "recipients", 16, tracing_metric),
            benchjson::axis_metric(baseline, "recipients", 16, tracing_metric),
        ) {
            (Some(fresh_r), Some(base_r)) => {
                let floor_r = base_r * (1.0 - tolerance);
                line.push_str(&format!(
                    "; 16-recipient {tracing_metric} {fresh_r:.0} vs {base_r:.0} \
                     ({:.0}%, floor {floor_r:.0})",
                    fresh_r / base_r * 100.0
                ));
                if fresh_r < floor_r {
                    return Err(Regression(format!("REGRESSION (recipients axis) — {line}")));
                }
            }
            (None, Some(_)) => {
                return Err(Refused(format!(
                    "{name}: the baseline carries a 16-recipient {tracing_metric} entry but \
                     the fresh file does not — the recipients axis of the bench stopped \
                     reporting"
                )));
            }
            _ => {}
        }
    }
    Ok(line)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fresh_files: Vec<PathBuf> = if args.is_empty() {
        ["BENCH_binning.json", "BENCH_serve.json", "BENCH_throughput.json"]
            .iter()
            .map(PathBuf::from)
            .filter(|p| p.exists())
            .collect()
    } else {
        args.iter().map(PathBuf::from).collect()
    };
    if fresh_files.is_empty() {
        eprintln!(
            "error: no fresh BENCH_*.json found — run `bench --bin binning` or \
             `bench --bin throughput` first, or pass the files explicitly"
        );
        return ExitCode::FAILURE;
    }

    let dir = baseline_dir();
    let tolerance = tolerance();
    let (mut refused, mut regressed) = (false, false);
    for fresh in &fresh_files {
        let file_name = fresh.file_name().expect("bench paths name a file");
        let baseline = dir.join(file_name);
        match check(fresh, &baseline, tolerance) {
            Ok(line) => println!("ok: {line}"),
            Err(Refused(line)) => {
                eprintln!("error: {line}");
                refused = true;
            }
            Err(Regression(line)) => {
                eprintln!("error: {line}");
                regressed = true;
            }
        }
    }
    if regressed {
        eprintln!(
            "throughput fell more than {:.0}% below the committed baseline; \
             refresh crates/bench/baselines/ if the drop is intended",
            tolerance * 100.0
        );
    }
    if refused {
        eprintln!(
            "a fresh file was refused before any throughput floor was checked: it does not \
             match its baseline's workload, host core count or layout, or it stopped \
             reporting an axis the baseline carries; rerun the bench to match the baseline, \
             or regenerate the baseline on this host class"
        );
    }
    if refused || regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "benchmark": "protection-engine-throughput",
  "layout": "columnar",
  "rows": 8000,
  "host_parallelism": 2,
  "threads": [
    {"threads": 1, "rows_per_sec": 1000.0, "durable_requests_per_sec": 500.0}
  ]
}
"#;

    fn refusal(fresh: &str) -> String {
        match compare(fresh, BASELINE, 0.25) {
            Err(Refused(line)) => line,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn matching_file_passes_and_a_slow_one_is_a_regression() {
        assert!(compare(BASELINE, BASELINE, 0.25).is_ok());
        let slow = BASELINE.replace("\"rows_per_sec\": 1000.0", "\"rows_per_sec\": 700.0");
        assert!(matches!(compare(&slow, BASELINE, 0.25), Err(Regression(_))));
        let slow_durable = BASELINE
            .replace("\"durable_requests_per_sec\": 500.0", "\"durable_requests_per_sec\": 300.0");
        assert!(matches!(compare(&slow_durable, BASELINE, 0.25), Err(Regression(_))));
    }

    #[test]
    fn unreadable_file_is_refused() {
        let missing = Path::new("no-such-dir/BENCH_missing.json");
        assert!(matches!(check(missing, missing, 0.25), Err(Refused(_))));
    }

    #[test]
    fn workload_mismatch_is_refused() {
        let fresh = BASELINE.replace("\"rows\": 8000", "\"rows\": 6000");
        assert!(refusal(&fresh).contains("workload mismatch"));
    }

    #[test]
    fn core_count_mismatch_is_refused() {
        let fresh = BASELINE.replace("\"host_parallelism\": 2", "\"host_parallelism\": 4");
        assert!(refusal(&fresh).contains("core-count mismatch"));
        let fresh = BASELINE.replace("  \"host_parallelism\": 2,\n", "");
        assert!(refusal(&fresh).contains("stopped recording the host core count"));
    }

    #[test]
    fn layout_mismatch_is_refused() {
        let fresh = BASELINE.replace("\"columnar\"", "\"row\"");
        assert!(refusal(&fresh).contains("layout mismatch"));
        let fresh = BASELINE.replace("  \"layout\": \"columnar\",\n", "");
        assert!(refusal(&fresh).contains("layout axis of the bench stopped reporting"));
    }

    #[test]
    fn missing_axis_is_refused() {
        let fresh = BASELINE.replace(", \"durable_requests_per_sec\": 500.0", "");
        assert!(refusal(&fresh).contains("persistence axis of the bench stopped reporting"));
        let fresh = BASELINE.replace("\"rows_per_sec\"", "\"other_per_sec\"");
        assert!(refusal(&fresh).contains("no 1-thread rows_per_sec or requests_per_sec"));
    }
}
