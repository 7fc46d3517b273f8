//! The load generator: one connection sends the request list round by
//! round (closed loop), a warm-up round first, then timed rounds until
//! `--seconds` of them have passed. Each round is a balanced slice of the
//! traffic, built before it starts and off the clock, so every timed round
//! yields one sample of each rate.

use crate::inputs::{Op, Plan};
use medshield_serve::{Client, PipelinedClient, Response};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// How long a pipelined connection waits for any reply before it gives up
/// on its in-flight requests.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One answered (or failed) request.
pub struct Reply {
    /// Submit to reply.
    pub latency: Duration,
    pub response: Result<Response, String>,
}

impl Reply {
    fn new(start: Instant, response: Result<Response, String>) -> Reply {
        Reply { latency: start.elapsed(), response }
    }
}

/// One timed round: its requests, wall time and server CPU time.
pub struct Round {
    pub requests: usize,
    pub wall: Duration,
    pub cpu: Duration,
    pub mean_latency: Duration,
}

/// The replies of the requests sent (a prefix of the list, indexed like
/// it; the first round is the warm-up) and the timed rounds.
pub struct Outcome {
    pub replies: Vec<Reply>,
    pub rounds: Vec<Round>,
}

/// The connection the list is sent over.
pub enum Conn {
    /// One request in flight.
    Blocking(Client),
    /// Up to `window` requests in flight.
    Pipelined { client: PipelinedClient, window: usize },
}

impl Conn {
    /// Send `ops` and append their replies in order. Returns false once the
    /// connection has failed.
    fn send(&mut self, ops: &[Op], out: &mut Vec<Reply>) -> bool {
        match self {
            Conn::Blocking(client) => {
                for op in ops {
                    let start = Instant::now();
                    let response = client.request_raw(&op.payload);
                    let failed = response.is_err();
                    out.push(Reply::new(start, response.map_err(|e| e.to_string())));
                    if failed {
                        return false;
                    }
                }
                true
            }
            Conn::Pipelined { client, window } => {
                let base = out.len();
                let mut replies: Vec<Option<Reply>> = ops.iter().map(|_| None).collect();
                let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
                let mut pending = 0..ops.len();
                let mut healthy = true;
                loop {
                    while in_flight.len() < *window {
                        let Some(i) = pending.next() else { break };
                        let start = Instant::now();
                        match client.submit_raw(&ops[i].payload) {
                            Ok(id) => {
                                in_flight.insert(id, (i, start));
                            }
                            Err(e) => {
                                replies[i] = Some(Reply::new(start, Err(e.to_string())));
                                pending = 0..0;
                                healthy = false;
                            }
                        }
                    }
                    if in_flight.is_empty() {
                        break;
                    }
                    let error = match client.poll_reply(REPLY_TIMEOUT) {
                        Ok(Some((id, response))) => {
                            if let Some((i, start)) = in_flight.remove(&id) {
                                replies[i] = Some(Reply::new(start, Ok(response)));
                            }
                            continue;
                        }
                        Ok(None) => "no reply within the timeout".to_string(),
                        Err(e) => e.to_string(),
                    };
                    for (_, (i, start)) in in_flight.drain() {
                        replies[i] = Some(Reply::new(start, Err(error.clone())));
                    }
                    pending = 0..0;
                    healthy = false;
                }
                // Requests never submitted after a failure end the list here.
                out.extend(replies.into_iter().map_while(|r| r));
                healthy && out.len() - base == ops.len()
            }
        }
    }
}

/// Run the warm-up round, then timed rounds until they add up to
/// `seconds`. `cpu` reads the server's CPU time so far.
pub fn run(
    conn: &mut Conn,
    plan: &Plan,
    seconds: f64,
    cpu: impl Fn() -> Result<Duration, String>,
) -> Result<Outcome, String> {
    let round_len = plan.round_len();
    let mut replies = Vec::new();
    if !conn.send(&plan.ops(0..round_len), &mut replies) {
        return Ok(Outcome { replies, rounds: Vec::new() });
    }
    let mut rounds: Vec<Round> = Vec::new();
    let mut timed = Duration::ZERO;
    for r in 1.. {
        if timed.as_secs_f64() >= seconds {
            break;
        }
        let ops = plan.ops(r * round_len..(r + 1) * round_len);
        let (cpu_before, start) = (cpu()?, Instant::now());
        let first = replies.len();
        let healthy = conn.send(&ops, &mut replies);
        let wall = start.elapsed();
        if !healthy {
            break;
        }
        timed += wall;
        let latency: Duration = replies[first..].iter().map(|r| r.latency).sum();
        rounds.push(Round {
            requests: round_len,
            wall,
            cpu: cpu()?.saturating_sub(cpu_before),
            mean_latency: latency / round_len as u32,
        });
    }
    Ok(Outcome { replies, rounds })
}
