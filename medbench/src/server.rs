//! The served program: building `medshield`, running `medshield serve` as a
//! child process over a data directory, and reading its counters and its
//! `/proc` accounting.

use crate::config;
use crate::load::Conn;
use medshield_serve::json;
use medshield_serve::{Client, PipelinedClient};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Build the release `medshield` binary from the checkout at `root` and
/// return its path. Uses its own target directory under the benchmark's
/// build directory, so it never waits on the lock of the build that is
/// running this program.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let target = root.join(base).join("medshield-server");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet", "-p", "medshield-cli", "--bin"])
        .arg("medshield")
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building medshield failed ({status})"));
    }
    Ok(target.join("release").join("medshield"))
}

/// A running `medshield serve` process; killed and reaped on drop.
pub struct Server {
    child: Child,
    /// Kept open for the process's lifetime: closing it would turn any
    /// later write to stdout into a broken pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Start the server over `data_dir` with `threads` workers and wait for
    /// its banner (printed once recovery has finished and the port is bound).
    pub fn launch(binary: &Path, data_dir: &Path, threads: usize) -> Result<Server, String> {
        let mut child = Command::new(binary)
            .arg("serve")
            .args(config::server_args(threads))
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {binary:?}: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("the server's stdout was not captured".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .split_whitespace()
            .skip_while(|w| *w != "on")
            .nth(1)
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Server { child, _stdout: stdout, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("the server did not report its address: {banner:?}"))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Server CPU time (user + system) so far.
    pub fn cpu(&self) -> Result<Duration, String> {
        let path = format!("/proc/{}/stat", self.pid());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line, in clock ticks.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (ticks(11), ticks(12)) {
            // Linux reports these in USER_HZ, which is 100 on every
            // architecture it exports to user space.
            (Some(u), Some(s)) => Ok(Duration::from_millis((u + s) * 10)),
            _ => Err(format!("cannot parse {path}")),
        }
    }

    /// Peak resident set size (`VmHWM`) in KiB.
    pub fn peak_rss_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `ping`; returns the server's `batched_detects` counter.
pub fn ping(client: &mut Client) -> Result<u64, String> {
    let reply = client.ping().map_err(|e| format!("ping: {e}"))?;
    if json::get_bool(&reply.json, "pong") != Some(true) {
        return Err(format!("unexpected ping reply: {}", reply.json));
    }
    Ok(json::get_u64(&reply.json, "batched_detects").unwrap_or(0))
}

pub fn ping_pipelined(client: &mut PipelinedClient) -> Result<(), String> {
    let request = medshield_serve::Request::new(medshield_serve::Command::Ping);
    let id = client.submit(&request).map_err(|e| format!("ping: {e}"))?;
    let reply = client.wait(id).map_err(|e| format!("ping: {e}"))?;
    if json::get_bool(&reply.json, "pong") != Some(true) {
        return Err(format!("unexpected ping reply: {}", reply.json));
    }
    Ok(())
}

/// Launch the server and open the load connection (pipelined with
/// `window` requests in flight, or blocking when `window` is 0), which
/// answers a warm-up `ping`. Returns the server, the connection and the
/// set-up time.
pub fn launch_and_connect(
    binary: &Path,
    data_dir: &Path,
    threads: usize,
    window: usize,
) -> Result<(Server, Conn, Duration), String> {
    let start = Instant::now();
    let server = Server::launch(binary, data_dir, threads)?;
    let conn = if window > 0 {
        let mut client = PipelinedClient::connect(server.addr).map_err(|e| format!("{e}"))?;
        ping_pipelined(&mut client)?;
        Conn::Pipelined { client, window }
    } else {
        let mut client = Client::connect(server.addr).map_err(|e| format!("{e}"))?;
        ping(&mut client)?;
        Conn::Blocking(client)
    };
    Ok((server, conn, start.elapsed()))
}

/// The filesystem type holding `path`, from `/proc/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _device = f.next()?;
            let mount = f.next()?;
            let fs = f.next()?;
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}
