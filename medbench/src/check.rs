//! The correctness gate: every reply is checked against an in-process
//! `ProtectionEngine` built with the server's configuration, after the timed
//! phase and off the clock.

use crate::inputs::{Expect, Op, Plan};
use crate::load::Reply;
use crate::Ctx;
use medshield_core::relation::csv;
use medshield_core::watermark::{derive_recipient_mark, Mark};
use medshield_serve::{json, Request, MEDICAL_ROLES};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Check every reply on `threads` threads; returns a description of each
/// failed request (empty when all passed).
pub fn check_all(ctx: &Ctx, plan: &Plan, replies: &[Reply], threads: usize) -> Vec<String> {
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(reply) = replies.get(i) else { break };
                if let Err(why) = check_one(ctx, plan, &plan.op(i), reply) {
                    failures
                        .lock()
                        .expect("a checker panicked")
                        .push(format!("request {i}: {why}"));
                }
            });
        }
    });
    let mut failures = failures.into_inner().expect("a checker panicked");
    failures.sort();
    failures
}

fn check_one(ctx: &Ctx, plan: &Plan, op: &Op, reply: &Reply) -> Result<(), String> {
    let response = reply.response.as_ref().map_err(Clone::clone)?;
    if !response.is_ok() {
        return Err(format!("error reply: {}", response.json));
    }
    let request = Request::parse(&op.payload).map_err(|e| e.to_string())?;
    let table = csv::from_csv(&request.body, &MEDICAL_ROLES).map_err(|e| e.to_string())?;
    let engine = &ctx.engine;
    match &op.expect {
        Expect::Protect { per_attribute } => {
            let release = if *per_attribute {
                engine.protect_per_attribute(&table, &ctx.trees)
            } else {
                engine.protect(&table, &ctx.trees)
            }
            .map_err(|e| e.to_string())?;
            same_body(response.body.as_deref(), &csv::to_csv(&release.table))
        }
        Expect::ProtectFor { release, recipient } => {
            let columns = &plan.releases[*release].columns;
            let mark = derive_recipient_mark(
                &engine.watermarker().config().key,
                recipient,
                engine.config().mark_len,
            );
            let (copy, _) =
                engine.embed(&table, columns, &ctx.trees, &mark).map_err(|e| e.to_string())?;
            same_body(response.body.as_deref(), &csv::to_csv(&copy))
        }
        Expect::Detect { release } => {
            let columns = &plan.releases[*release].columns;
            let report = engine.detect(&table, columns, &ctx.trees).map_err(|e| e.to_string())?;
            let expected = Mark::from_bits(report.mark).to_string();
            match json::get_str(&response.json, "mark") {
                Some(mark) if mark == expected => Ok(()),
                other => Err(format!("detected mark {other:?}, in-process {expected}")),
            }
        }
        Expect::Leaker { culprits } => match json::get_str(&response.json, "leaker") {
            Some(leaker) if culprits.contains(&leaker) => Ok(()),
            other => Err(format!("named {other:?}, the leak came from {culprits:?}")),
        },
    }
}

fn same_body(served: Option<&str>, expected: &str) -> Result<(), String> {
    match served {
        Some(body) if body == expected => Ok(()),
        Some(body) => Err(format!(
            "body differs from the in-process release ({} vs {} bytes)",
            body.len(),
            expected.len()
        )),
        None => Err("reply carries no body".into()),
    }
}
