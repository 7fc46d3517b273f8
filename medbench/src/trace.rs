//! The traced run: the workload's request sequence replayed in-process,
//! calling each layer's public functions in the order the server's handlers
//! call them, with a span around every call. Spans stay in memory and are
//! written out when the run ends. Nothing here runs inside the program, so
//! end-to-end numbers never carry tracing cost.

use crate::Ctx;
use medshield_core::binning::ColumnBinning;
use medshield_core::metrics::mark_loss;
use medshield_core::relation::{csv, Table};
use medshield_core::watermark::hierarchical::EmbeddingReport;
use medshield_core::watermark::{derive_recipient_mark, score_recipients, DetectionReport, Mark};
use medshield_serve::json::{obj, str_arr, Json};
use medshield_serve::protocol::{encode_frame, read_frame, DEFAULT_MAX_FRAME_LEN};
use medshield_serve::store::StoredRecipient;
use medshield_serve::{
    Command, DurableStore, ReleaseStore, Request, Response, StoredRelease, CARRIES_MARK_THRESHOLD,
    MEDICAL_ROLES,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: which request it served, which layer call it was, when
/// it ran (nanoseconds since the replay began) and the span that made it.
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records spans when on; a plain pass-through when off (the untraced
/// replay that prices the tracing itself).
pub struct Tracer {
    on: bool,
    epoch: Instant,
    request: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    /// Work counts recorded at the same call sites (rows, cells, ...).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            request: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { request: self.request, name, start_ns, end_ns: start_ns, parent });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// Write every span as a tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\trequest\tname\tstart_ns\tend_ns\tparent")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The layer a span name belongs to. A request's root span is the
/// handler's own glue (dispatch, parameters), which is the server module.
pub fn layer_of(name: &str) -> &'static str {
    const LAYERS: [(&str, &str); 7] = [
        ("binning.", "binning"),
        ("relation.", "relation"),
        ("watermark.embed", "watermark.embed"),
        ("watermark.", "watermark.detect"),
        ("core.engine", "core.engine"),
        ("serve.store", "serve.store"),
        ("serve.protocol", "serve.protocol"),
    ];
    LAYERS.iter().find(|(prefix, _)| name.starts_with(prefix)).map_or("serve.server", |(_, l)| l)
}

type Step<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Replays requests against an in-process engine and a durable store of
/// its own, seeded like the server's.
pub struct Replayer<'a> {
    ctx: &'a Ctx,
    store: DurableStore,
    snapshot_every: usize,
    mutations: usize,
}

impl<'a> Replayer<'a> {
    /// Open the store in `dir` without automatic snapshots: the replay
    /// compacts on the server's cadence itself, so the snapshot is a span of
    /// its own instead of hiding inside an append.
    pub fn open(ctx: &'a Ctx, dir: &Path, snapshot_every: usize) -> Step<Replayer<'a>> {
        let store = DurableStore::open(dir, 0).map_err(err)?;
        Ok(Replayer { ctx, store, snapshot_every, mutations: 0 })
    }

    pub fn compact(&self, t: &mut Tracer) -> Step<()> {
        t.span("serve.store.snapshot", |_| self.store.compact()).map_err(err)
    }

    /// Replay request `index` (its frame payload): frame it as a client
    /// would, decode it as the I/O core does, run the handler, frame the
    /// reply and decode it.
    pub fn replay(&mut self, t: &mut Tracer, index: usize, payload: &[u8]) -> Step<Response> {
        t.request = u32::try_from(index).unwrap_or(u32::MAX);
        let id = index as u64;
        let root = match Request::parse(payload).map(|r| r.command) {
            Ok(Command::Protect) => "request.protect",
            Ok(Command::Detect) => "request.detect",
            Ok(Command::ProtectFor) => "request.protect-for",
            Ok(Command::ResolveLeaker) => "request.resolve-leaker",
            _ => {
                return Err("the replay handles protect, detect, protect-for, resolve-leaker".into())
            }
        };
        t.span(root, |t| {
            let frame = t.span("serve.protocol.encode", |_| encode_frame(Some(id), payload));
            let frame = frame.map_err(err)?;
            let request = t.span("serve.protocol.decode", |_| {
                let frame =
                    read_frame(&mut frame.as_slice(), DEFAULT_MAX_FRAME_LEN).map_err(err)?;
                let frame = frame.ok_or("empty request frame")?;
                Request::parse(&frame.payload).map_err(err)
            })?;
            let response = match request.command {
                Command::Protect => self.protect(t, &request)?,
                Command::Detect => self.detect(t, &request)?,
                Command::ProtectFor => self.protect_for(t, &request)?,
                _ => self.resolve_leaker(t, &request)?,
            };
            let reply =
                t.span("serve.protocol.encode", |_| encode_frame(Some(id), &response.encode()));
            let reply = reply.map_err(err)?;
            t.count("frame_bytes", (frame.len() + reply.len()) as f64);
            t.span("serve.protocol.decode", |_| {
                let frame =
                    read_frame(&mut reply.as_slice(), DEFAULT_MAX_FRAME_LEN).map_err(err)?;
                let frame = frame.ok_or("empty reply frame")?;
                Response::decode(&frame.payload).map_err(err)
            })
        })
    }

    fn parse(&self, t: &mut Tracer, request: &Request) -> Step<Table> {
        let table = t.span("relation.csv.parse", |_| csv::from_csv(&request.body, &MEDICAL_ROLES));
        let table = table.map_err(err)?;
        t.count("parse_rows", table.len() as f64);
        Ok(table)
    }

    fn release(
        &self,
        t: &mut Tracer,
        request: &Request,
    ) -> Step<(u64, std::sync::Arc<StoredRelease>)> {
        let raw = request.params.get("release").ok_or("no release parameter")?;
        let id: u64 = raw.trim_start_matches('r').parse().map_err(err)?;
        let stored = t.span("serve.store.get", |_| self.store.get(id));
        Ok((id, stored.ok_or_else(|| format!("no release r{id}"))?))
    }

    /// After a store mutation: compact on the server's cadence.
    fn mutated(&mut self, t: &mut Tracer) -> Step<()> {
        self.mutations += 1;
        if self.snapshot_every > 0 && self.mutations.is_multiple_of(self.snapshot_every) {
            self.compact(t)?;
        }
        Ok(())
    }

    fn sync(&self, t: &mut Tracer) -> Step<()> {
        t.span("serve.store.sync", |_| self.store.sync()).map_err(err)
    }

    /// `ProtectionEngine::embed` with engine threads = 1, call by call.
    fn embed(
        &self,
        t: &mut Tracer,
        binned: &Table,
        columns: &[ColumnBinning],
        mark: &Mark,
    ) -> Step<(Table, EmbeddingReport)> {
        let (ctx, wm) = (self.ctx, self.ctx.engine.watermarker());
        t.span("core.engine.embed", |t| {
            let plan = t.span("watermark.embed_plan", |_| {
                wm.plan_embed(binned.schema(), columns, &ctx.trees, mark)
            });
            let plan = plan.map_err(err)?;
            let mut table = t.span("relation.table.snapshot", |_| binned.snapshot());
            let kernel = t.span("watermark.embed_prepare", |_| wm.prepare_embed(&plan, &mut table));
            let kernel = kernel.map_err(err)?;
            let rows = table.len();
            if rows == 0 {
                return Ok((table, EmbeddingReport::empty(plan.wmd_len())));
            }
            let chunk = t.span("watermark.embed_run", |_| kernel.run_range(&plan, &table, 0..rows));
            let chunk = chunk.map_err(err)?;
            let report =
                t.span("watermark.embed_apply", |_| kernel.apply(&plan, &mut table, vec![chunk]));
            let report = report.map_err(err)?;
            t.count("embed_rows", rows as f64);
            t.count("embed_selected", report.selected_tuples as f64);
            t.count("embed_cells", report.embedded_cells as f64);
            t.count("embed_changed", report.changed_cells as f64);
            Ok((table, report))
        })
    }

    /// `ProtectionEngine::detect` with engine threads = 1, call by call.
    fn engine_detect(
        &self,
        t: &mut Tracer,
        table: &Table,
        columns: &[ColumnBinning],
    ) -> Step<DetectionReport> {
        t.span("core.engine.detect", |t| self.detect_kernels(t, table, columns))
    }

    fn detect_kernels(
        &self,
        t: &mut Tracer,
        table: &Table,
        columns: &[ColumnBinning],
    ) -> Step<DetectionReport> {
        let (ctx, wm) = (self.ctx, self.ctx.engine.watermarker());
        let mark_len = ctx.engine.config().mark_len;
        let plan = t.span("watermark.detect_plan", |_| {
            wm.plan_detect(table.schema(), columns, &ctx.trees, mark_len)
        });
        let plan = plan.map_err(err)?;
        if table.is_empty() {
            return ctx.engine.detect(table, columns, &ctx.trees).map_err(err);
        }
        let kernel = t.span("watermark.detect_prepare", |_| wm.prepare_detect(&plan, table));
        let kernel = kernel.map_err(err)?;
        t.span("watermark.detect_run", |_| {
            kernel.run_range(&plan, table, 0..table.len()).map(|tally| tally.into_report(mark_len))
        })
        .map_err(err)
    }

    fn protect(&mut self, t: &mut Tracer, request: &Request) -> Step<Response> {
        let table = self.parse(t, request)?;
        let per_attribute = match request.params.get("per-attribute") {
            Some(v) => v.parse().map_err(err)?,
            None => true,
        };
        let ctx = self.ctx;
        let engine = &ctx.engine;
        let protected = t.span("core.engine.protect", |t| -> Step<_> {
            let maximal = engine.default_maximal(&ctx.trees);
            let agent = engine.binning_agent();
            let binning = if per_attribute {
                t.span("binning.per_attribute", |_| {
                    agent.bin_per_attribute(&table, &ctx.trees, &maximal)
                })
            } else {
                t.span("binning.multi", |_| agent.bin(&table, &ctx.trees, &maximal))
            };
            let binning = binning.map_err(err)?;
            t.count(
                if per_attribute { "binned_rows.per_attribute" } else { "binned_rows.multi" },
                table.len() as f64,
            );
            t.count("binning_calls", 1.0);
            t.count("binning_satisfied", f64::from(u8::from(binning.satisfied)));
            let config = engine.config();
            if config.mark_from_statistic {
                return Err("the replay mirrors a server with mark-from-statistic off".into());
            }
            let mark = Mark::from_bytes(config.mark_text.as_bytes(), config.mark_len);
            let (released, report) = self.embed(t, &binning.table, &binning.columns, &mark)?;
            Ok((binning, released, report, mark))
        });
        let (binning, released, report, mark) = protected?;
        let id = t.span("serve.store.append", |_| {
            self.store.append(StoredRelease {
                columns: binning.columns.clone(),
                mark: mark.clone(),
                ownership: None,
                recipients: Vec::new(),
            })
        });
        let id = id.map_err(err)?;
        self.mutated(t)?;
        let body = t.span("relation.csv.encode", |_| csv::to_csv(&released));
        let response = t.span("serve.protocol.encode", |_| {
            ok_response(
                vec![
                    ("release", format!("r{id}").into()),
                    ("rows", released.len().into()),
                    ("selected_tuples", report.selected_tuples.into()),
                    ("embedded_cells", report.embedded_cells.into()),
                    ("changed_cells", report.changed_cells.into()),
                    ("skipped_cells", report.skipped_cells.into()),
                    ("wmd_len", report.wmd_len.into()),
                    ("satisfied", binning.satisfied.into()),
                    ("mark", mark.to_string().into()),
                    ("has_ownership_proof", false.into()),
                    ("warnings", str_arr(&binning.warnings)),
                ],
                Some(body),
            )
        });
        self.sync(t)?;
        Ok(response)
    }

    /// The micro-batched detect path, as a batch of one.
    fn detect(&mut self, t: &mut Tracer, request: &Request) -> Step<Response> {
        let (_, stored) = self.release(t, request)?;
        let table = self.parse(t, request)?;
        let report = self.detect_kernels(t, &table, &stored.columns)?;
        Ok(t.span("serve.protocol.encode", |_| {
            let loss = mark_loss(stored.mark.bits(), &report.mark);
            ok_response(
                vec![
                    ("rows", table.len().into()),
                    ("selected_tuples", report.selected_tuples.into()),
                    ("covered_positions", report.covered_positions.into()),
                    ("wmd_len", report.wmd_len.into()),
                    ("mark", Mark::from_bits(report.mark.clone()).to_string().into()),
                    ("mark_loss", loss.into()),
                    ("carries_mark", (loss <= CARRIES_MARK_THRESHOLD).into()),
                ],
                None,
            )
        }))
    }

    /// `protect-for` naming an existing release: fingerprint a new copy.
    fn protect_for(&mut self, t: &mut Tracer, request: &Request) -> Step<Response> {
        let name = request.params.get("recipient").ok_or("no recipient parameter")?.clone();
        let engine = &self.ctx.engine;
        let mark = t.span("watermark.fingerprint_derive", |_| {
            derive_recipient_mark(
                &engine.watermarker().config().key,
                &name,
                engine.config().mark_len,
            )
        });
        let (id, stored) = self.release(t, request)?;
        let table = self.parse(t, request)?;
        let (copy, report) = self.embed(t, &table, &stored.columns, &mark)?;
        let updated = t.span("serve.store.add_recipient", |_| {
            self.store.add_recipient(id, StoredRecipient { name: name.clone(), mark: mark.clone() })
        });
        let recipients = updated.map_err(err)?.ok_or("release vanished")?.recipients.len();
        self.mutated(t)?;
        let body = t.span("relation.csv.encode", |_| csv::to_csv(&copy));
        let response = t.span("serve.protocol.encode", |_| {
            ok_response(
                vec![
                    ("release", format!("r{id}").into()),
                    ("recipient", name.into()),
                    ("recipients", recipients.into()),
                    ("rows", copy.len().into()),
                    ("selected_tuples", report.selected_tuples.into()),
                    ("embedded_cells", report.embedded_cells.into()),
                    ("changed_cells", report.changed_cells.into()),
                    ("skipped_cells", report.skipped_cells.into()),
                    ("wmd_len", report.wmd_len.into()),
                ],
                Some(body),
            )
        });
        self.sync(t)?;
        Ok(response)
    }

    fn resolve_leaker(&mut self, t: &mut Tracer, request: &Request) -> Step<Response> {
        let (_, stored) = self.release(t, request)?;
        let table = self.parse(t, request)?;
        let report = self.engine_detect(t, &table, &stored.columns)?;
        let ranking = t.span("watermark.score", |_| {
            score_recipients(
                &report.mark,
                stored.recipients.iter().map(|r| (r.name.as_str(), &r.mark)),
            )
        });
        t.count("candidates", ranking.len() as f64);
        let top = ranking.first().ok_or("no candidate was scored")?;
        Ok(t.span("serve.protocol.encode", |_| {
            let names: Vec<String> = ranking.iter().map(|s| s.name.clone()).collect();
            ok_response(
                vec![
                    ("rows", table.len().into()),
                    ("selected_tuples", report.selected_tuples.into()),
                    ("wmd_len", report.wmd_len.into()),
                    ("candidates", ranking.len().into()),
                    ("leaker", top.name.clone().into()),
                    ("leaker_score", top.score.into()),
                    ("runner_up_score", ranking.get(1).map_or(0.0, |s| s.score).into()),
                    ("ranking", str_arr(&names)),
                ],
                None,
            )
        }))
    }
}

fn ok_response(fields: Vec<(&str, Json)>, body: Option<String>) -> Response {
    let mut pairs = vec![("status", Json::from("ok"))];
    pairs.extend(fields);
    Response { json: obj(pairs).to_string(), body }
}

/// Per span name: summed duration and self time, calls, and the number of
/// requests that made at least one such call.
#[derive(Default, Clone, Copy)]
pub struct NameStats {
    pub total_ns: f64,
    pub self_ns: f64,
    pub calls: usize,
    pub requests: usize,
}

pub struct Summary {
    pub by_name: BTreeMap<&'static str, NameStats>,
    /// Self time per layer.
    pub layer_self_ns: BTreeMap<&'static str, f64>,
    /// Root span durations, one per request.
    pub request_ns: Vec<f64>,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    let mut layer_self_ns: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last_request: BTreeMap<&'static str, u32> = BTreeMap::new();
    let mut request_ns = Vec::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(children) as f64;
        let stats = by_name.entry(s.name).or_default();
        stats.total_ns += total as f64;
        stats.self_ns += own;
        stats.calls += 1;
        if last_request.insert(s.name, s.request) != Some(s.request) {
            stats.requests += 1;
        }
        *layer_self_ns.entry(layer_of(s.name)).or_insert(0.0) += own;
        if s.parent.is_none() {
            request_ns.push(total as f64);
        }
    }
    Summary { by_name, layer_self_ns, request_ns }
}
