//! `daemon-mixed`: a closed loop of client connections against `sptd`.
//!
//! The daemon is `spt_serve::serve` — the server `sptd` runs — started in
//! this process on a private socket and artifact cache. Each client sends
//! its next request only after the previous reply, as `sptc --daemon`
//! callers do. Most requests are warm compile/sim/stats hits on the suite
//! keys primed during set-up; one in [`gen::FRESH_EVERY`] is a never-seen
//! variant that takes the miss path.

use crate::drive::{contain, Checked, Ctx, Window, Workload};
use crate::gen::{self, DaemonReq};
use crate::layers::Acc;
use crate::oracle::{self, Outcome};
use crate::spans::Recorder;
use crate::stats;
use spt_bench_suite::Benchmark;
use spt_core::pipeline::transform_module_timed;
use spt_core::{CompilerConfig, ProfilingInput};
use spt_serve::proto::{self, Request, Response};
use spt_serve::{
    serve, sim_with_cache_in, Client, ClientError, CompileReq, CompileResp, CompileService,
    ReqBody, ServerHandle, ServiceConfig, SimReq, SimResp, SimTraceStats,
};
use spt_sim::{MachineConfig, SimResult, SptSimulator};
use spt_trace::codec::Fnv;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Config id of `best` in the daemon protocol.
const BEST: u8 = 1;

/// Requests generated per client and second of run time: more than a
/// client can send, so a stream never runs dry.
const REQUESTS_PER_S: f64 = 5000.0;

/// Warm-hit requests replayed directly against the service after a traced
/// window, to time `execute` and the protocol codec without the socket.
const REPLAYED: usize = 400;

/// Fresh variants whose simulations a traced run re-times directly.
const SIM_SAMPLE: usize = 20;

/// In-memory budget of the daemon's tiers: room for every suite key many
/// times over, small enough that fresh variants reach LRU eviction early
/// in a run, so peak memory plateaus instead of growing with run length.
const MEM_BUDGET: u64 = 32 << 20;

/// The kind of a request and the suite program it concerns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Compile(usize),
    Sim(usize),
    Stats,
    Fresh(usize),
}

/// What a reply computed, kept for the post-window checks.
struct Reply {
    kind: Kind,
    failed: bool,
    /// FNV of the report, and for sims of both encoded results.
    digest: u64,
    spt: Option<Outcome>,
}

/// What the local oracle computed for one suite program.
struct Expected {
    compile: u64,
    sim: u64,
    reference: Outcome,
    speedup: f64,
}

fn sim_req(source: String, b: &Benchmark) -> SimReq {
    SimReq {
        source,
        entry: b.entry.to_string(),
        train: b.train_arg,
        arg: b.train_arg,
        config_id: BEST,
        machine: MachineConfig::default(),
    }
}

fn compile_req(b: &Benchmark) -> CompileReq {
    CompileReq {
        source: b.source.to_string(),
        entry: b.entry.to_string(),
        train: b.train_arg,
        config_id: BEST,
        want_module_text: false,
    }
}

fn sim_digest(report_debug: &str, baseline: &[u8], spt: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(report_debug.as_bytes());
    h.update_u64(baseline.len() as u64);
    h.update(baseline);
    h.update(spt);
    h.finish()
}

fn decode_sim(bytes: &[u8]) -> Result<SimResult, String> {
    spt_trace::sim_from_bytes(bytes).map_err(|e| format!("undecodable sim result: {e}"))
}

/// The kind of `r`.
fn kind(r: &DaemonReq) -> Kind {
    match r {
        DaemonReq::Compile { prog } => Kind::Compile(*prog),
        DaemonReq::Sim { prog } => Kind::Sim(*prog),
        DaemonReq::Stats => Kind::Stats,
        DaemonReq::Fresh { prog, .. } => Kind::Fresh(*prog),
    }
}

/// The request body the client sends for `r`. Building it — and a fresh
/// variant's source — is the client's own work, inside the timed op.
fn body(suite: &[Benchmark], r: &DaemonReq) -> ReqBody {
    match r {
        DaemonReq::Compile { prog } => ReqBody::Compile(compile_req(&suite[*prog])),
        DaemonReq::Sim { prog } => {
            ReqBody::Sim(sim_req(suite[*prog].source.to_string(), &suite[*prog]))
        }
        DaemonReq::Stats => ReqBody::Stats,
        DaemonReq::Fresh { prog, helper, name } => {
            let b = &suite[*prog];
            ReqBody::Sim(sim_req(gen::variant_source(b, helper, name), b))
        }
    }
}

/// A decoded reply.
enum Resp {
    Compile(CompileResp),
    Sim(SimResp),
    Stats,
}

/// Sends one request and waits for its decoded reply: the timed op.
fn send(client: &mut Client, suite: &[Benchmark], r: &DaemonReq) -> Result<Resp, String> {
    let e = |e: ClientError| e.to_string();
    Ok(match body(suite, r) {
        ReqBody::Compile(c) => Resp::Compile(client.compile(c).map_err(e)?),
        ReqBody::Sim(s) => Resp::Sim(client.sim(s).map_err(e)?),
        ReqBody::Stats => {
            client.stats().map_err(e)?;
            Resp::Stats
        }
        _ => return Err("unexpected request kind".into()),
    })
}

/// Checks what can be checked without the oracle and keeps what the
/// oracle needs. `cells[p]` is the memory size of suite program `p`'s own
/// globals, which a fresh variant shares: a rename adds no global.
fn check_reply(kind: Kind, resp: Resp, cells: &[usize], acc: &mut Acc) -> Result<Reply, String> {
    let mut reply = Reply {
        kind,
        failed: false,
        digest: 0,
        spt: None,
    };
    match (kind, resp) {
        (Kind::Compile(_), Resp::Compile(r)) => {
            let mut h = Fnv::new();
            h.update(r.report_debug.as_bytes());
            reply.digest = h.finish();
        }
        (Kind::Sim(prog) | Kind::Fresh(prog), Resp::Sim(r)) => {
            let baseline = decode_sim(&r.baseline)?;
            let spt = decode_sim(&r.spt)?;
            if baseline.ret != spt.ret {
                return Err("SPT result differs from baseline".into());
            }
            if matches!(kind, Kind::Fresh(_)) {
                acc.stages(&r.timings);
                acc.sim(&spt);
            }
            reply.digest = sim_digest(&r.report_debug, &r.baseline, &r.spt);
            reply.spt = Some(Outcome::of_sim(&spt, cells[prog]));
        }
        (Kind::Stats, Resp::Stats) => {}
        _ => return Err("reply of another kind than the request".into()),
    }
    Ok(reply)
}

pub struct DaemonMixed {
    suite: Vec<Benchmark>,
    /// Memory cells of each suite program's globals.
    cells: Vec<usize>,
    service: Arc<CompileService>,
    handle: Option<ServerHandle>,
    cache_dir: PathBuf,
    clients: Vec<Client>,
    streams: Vec<Vec<DaemonReq>>,
    /// Next request of each client's stream.
    cursor: Vec<usize>,
    replies: Vec<Reply>,
    /// Requests of the last traced window: (client, stream index, round
    /// trip seconds).
    traced: Vec<(usize, usize, f64)>,
    stats_at_start: HashMap<String, u64>,
}

impl Drop for DaemonMixed {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(h) = self.handle.take() {
            h.shutdown_and_join();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

fn stats_map(service: &CompileService) -> HashMap<String, u64> {
    service.stats().into_iter().collect()
}

impl Workload for DaemonMixed {
    const TAIL_OF: &'static str = "request";

    fn setup(ctx: &Ctx, k: usize) -> Result<Self, String> {
        let workers = crate::pinned_workers();
        let suite = spt_bench_suite::suite();
        let helpers: Vec<Vec<String>> = suite.iter().map(gen::helpers).collect();
        let n = (ctx.seconds * REQUESTS_PER_S) as u64 + 1000;
        // One client connection per pinned worker: never more than cores.
        let streams: Vec<Vec<DaemonReq>> = (0..workers)
            .map(|c| gen::daemon_stream(ctx.seed, c as u64, n, &helpers))
            .collect();

        let cache_dir = ctx.tmp.join(format!("daemon-cache-{k}"));
        let socket = ctx.tmp.join(format!("d{k}.sock"));
        let service = Arc::new(CompileService::new(ServiceConfig {
            cache_dir: Some(cache_dir.clone()),
            mem_budget_bytes: MEM_BUDGET,
            ..ServiceConfig::default()
        }));
        let handle = serve(service.clone(), &socket, workers)
            .map_err(|e| format!("cannot start the daemon on {}: {e}", socket.display()))?;
        let cells = suite
            .iter()
            .map(|b| spt_frontend::compile(b.source).map(|m| oracle::cells(&m)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("frontend: {e}"))?;
        let mut state = DaemonMixed {
            suite,
            cells,
            service,
            handle: Some(handle),
            cache_dir,
            clients: Vec::new(),
            streams,
            cursor: Vec::new(),
            replies: Vec::new(),
            traced: Vec::new(),
            stats_at_start: HashMap::new(),
        };
        for _ in 0..workers {
            state
                .clients
                .push(Client::connect(&socket).map_err(|e| format!("connect: {e}"))?);
        }
        state.cursor = vec![0; state.clients.len()];
        // Warm-up: every suite key the hits ask for, computed once.
        let mut acc = Acc::default();
        for prog in 0..state.suite.len() {
            for r in [DaemonReq::Compile { prog }, DaemonReq::Sim { prog }] {
                send(&mut state.clients[0], &state.suite, &r)
                    .and_then(|resp| check_reply(kind(&r), resp, &state.cells, &mut acc))
                    .map_err(|e| format!("warm-up of {}: {e}", state.suite[prog].name))?;
            }
        }
        Ok(state)
    }

    fn window(&mut self, _ctx: &Ctx, seconds: f64, rec: &mut Recorder, acc: &mut Acc) -> Window {
        let traced = rec.is_on();
        if traced {
            self.stats_at_start = stats_map(&self.service);
        }
        let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        let t0 = Instant::now();
        let per_client: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.streams)
                .zip(&self.cursor)
                .enumerate()
                .map(|(c, ((client, stream), &start))| {
                    let (cells, suite) = (&self.cells, &self.suite);
                    s.spawn(move || {
                        let mut rec = Recorder::new(traced, t0);
                        let mut acc = Acc::default();
                        let mut out = Vec::new();
                        let mut i = start;
                        while Instant::now() < deadline && i < stream.len() {
                            let op = ((c as u64) << 32) | i as u64;
                            let t = Instant::now();
                            let root = rec.begin("op", op, Recorder::root());
                            let rt = rec.begin("serve.roundtrip", op, root);
                            let resp = contain(|| send(client, suite, &stream[i]));
                            rec.end(rt);
                            rec.end(root);
                            let lat = t.elapsed().as_secs_f64();
                            let r = resp.and_then(|resp| {
                                contain(|| check_reply(kind(&stream[i]), resp, cells, &mut acc))
                            });
                            out.push((i, lat, r));
                            i += 1;
                        }
                        (out, rec, acc, i)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("a client thread panicked outside its contained ops")
                })
                .collect()
        });
        let mut w = Window {
            wall_s: t0.elapsed().as_secs_f64(),
            ..Window::default()
        };
        if traced {
            self.traced.clear();
        }
        for (c, (out, crec, cacc, next)) in per_client.into_iter().enumerate() {
            self.cursor[c] = next;
            rec.absorb(crec);
            acc.merge(cacc);
            for (i, lat, r) in out {
                w.op_s.push(lat);
                w.tail_s.push(lat);
                let kind = kind(&self.streams[c][i]);
                if traced {
                    self.traced.push((c, i, lat));
                }
                self.replies.push(r.unwrap_or_else(|e| {
                    eprintln!("client {c} request {i}: {e}");
                    Reply {
                        kind,
                        failed: true,
                        digest: 0,
                        spt: None,
                    }
                }));
            }
        }
        w
    }

    /// Daemon counters over the traced window, the miss path's frontend
    /// replayed offline, and `execute` plus the protocol codec timed
    /// directly on replayed warm-hit frames.
    fn finish_trace(&mut self, acc: &mut Acc) {
        let ops = self.traced.len().max(1) as f64;
        let end = stats_map(&self.service);
        let delta = |k: &str| {
            end.get(k).copied().unwrap_or(0) as f64
                - self.stats_at_start.get(k).copied().unwrap_or(0) as f64
        };
        let tiers = [
            "mem_module",
            "mem_unit",
            "mem_sim",
            "mem_func_analysis",
            "mem_func_emit",
        ];
        let sum =
            |suffix: &str| -> f64 { tiers.iter().map(|t| delta(&format!("{t}_{suffix}"))).sum() };
        let (hits, misses) = (sum("hits"), sum("misses"));
        acc.set(
            "serve.mem_hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        );
        acc.set("serve.pipeline_runs", delta("pipeline_runs") / ops);
        acc.set("serve.flights_led", delta("flights_led") / ops);
        acc.set("serve.flights_joined", delta("flights_joined") / ops);
        acc.set("serve.disk_memo_hits", delta("disk_memo_hits") / ops);
        acc.set(
            "serve.evictions",
            (sum("evictions") + delta("disk_budget_evictions")) / ops,
        );
        acc.set("serve.errors", delta("errors_total") / ops);

        // The miss path's frontend and simulations run inside the daemon,
        // out of the spans' reach: re-time them here on the window's fresh
        // sources. Every frontend run is re-timed; the simulations of the
        // first SIM_SAMPLE fresh variants are, scaled to all of them.
        let fresh: Vec<(usize, String)> = self
            .traced
            .iter()
            .filter_map(|&(c, i, _)| match &self.streams[c][i] {
                DaemonReq::Fresh { prog, helper, name } => {
                    Some((*prog, gen::variant_source(&self.suite[*prog], helper, name)))
                }
                _ => None,
            })
            .collect();
        let mut frontend_s = 0.0;
        for (_, source) in &fresh {
            let t = Instant::now();
            let _ = std::hint::black_box(spt_frontend::compile(source));
            frontend_s += t.elapsed().as_secs_f64();
        }
        acc.add("frontend_offline_s", frontend_s);
        let (mut base_s, mut spt_s, mut sampled) = (0.0, 0.0, 0);
        let mut trace = SimTraceStats::default();
        for (prog, source) in fresh.iter().take(SIM_SAMPLE) {
            let b = &self.suite[*prog];
            let timed = contain(|| {
                let baseline = spt_frontend::compile(source).map_err(|e| e.to_string())?;
                let mut module = baseline.clone();
                let input = ProfilingInput::new(b.entry, [b.train_arg]);
                transform_module_timed(&mut module, &input, &CompilerConfig::best())
                    .map_err(|e| e.to_string())?;
                let machine = MachineConfig::default();
                let mut sim = |m: &spt_ir::Module| {
                    let t = Instant::now();
                    sim_with_cache_in(m, b.entry, b.train_arg, &machine, None, &mut trace)
                        .map(|_| t.elapsed().as_secs_f64())
                        .map_err(|e| e.to_string())
                };
                Ok((sim(&baseline)?, sim(&module)?))
            });
            if let Ok((base, spt)) = timed {
                base_s += base;
                spt_s += spt;
                sampled += 1;
            }
        }
        if sampled > 0 {
            let scale = fresh.len() as f64 / sampled as f64;
            acc.add("sim_baseline_offline_s", base_s * scale);
            acc.add("sim_spt_offline_s", spt_s * scale);
            acc.add("sim_trace_s", (trace.capture_s + trace.replay_s) * scale);
            acc.add("trace_capture_s", trace.capture_s * scale);
            acc.add("trace_replay_s", trace.replay_s * scale);
        }
        let (mut exec, mut dec, mut enc) = (Vec::new(), Vec::new(), Vec::new());
        let hits = self
            .traced
            .iter()
            .map(|&(c, i, _)| &self.streams[c][i])
            .filter(|r| !matches!(r, DaemonReq::Fresh { .. }))
            .take(REPLAYED);
        for (id, r) in hits.enumerate() {
            let req = Request {
                id: id as u64,
                body: body(&self.suite, r),
            };
            let t = Instant::now();
            let frame = proto::encode_request(&req);
            let enc_req = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let decoded = proto::decode_request(&frame);
            let dec_req = t.elapsed().as_secs_f64();
            let Ok(decoded) = decoded else { continue };
            let t = Instant::now();
            let body = self.service.execute(&decoded.body);
            exec.push(t.elapsed().as_secs_f64());
            let resp = Response {
                id: decoded.id,
                body,
            };
            let t = Instant::now();
            let frame = proto::encode_response(&resp);
            let enc_resp = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let _ = std::hint::black_box(proto::decode_response(&frame));
            let dec_resp = t.elapsed().as_secs_f64();
            enc.push(enc_req + enc_resp);
            dec.push(dec_req + dec_resp);
        }
        let rtt: Vec<f64> = self.traced.iter().map(|t| t.2).collect();
        let hit_rtt: Vec<f64> = self
            .traced
            .iter()
            .filter(|&&(c, i, _)| !matches!(self.streams[c][i], DaemonReq::Fresh { .. }))
            .map(|t| t.2)
            .collect();
        let exec_us = stats::median(&exec) * 1e6;
        acc.set("serve.roundtrip_us", stats::median(&rtt) * 1e6);
        acc.set("serve.execute_us", exec_us);
        // Both medians are over warm hits, so their difference is the
        // socket, framing and client-side cost of a hit.
        acc.set(
            "serve.transport_us",
            (stats::median(&hit_rtt) * 1e6 - exec_us).max(0.0),
        );
        acc.set("serve.decode_us", stats::median(&dec) * 1e6);
        acc.set("serve.encode_us", stats::median(&enc) * 1e6);
    }

    /// Every suite-key reply must equal a locally computed compile and
    /// simulation, and every simulated SPT run — fresh variants included,
    /// whose rename leaves the semantics alone — must match the reference
    /// interpreter on the untransformed program.
    fn check(&mut self) -> Checked {
        let expected: Vec<Result<Expected, String>> = self
            .suite
            .iter()
            .map(|b| {
                contain(|| {
                    let baseline = spt_frontend::compile(b.source).map_err(|e| e.to_string())?;
                    let mut module = baseline.clone();
                    let input = ProfilingInput::new(b.entry, [b.train_arg]);
                    let (report, _) =
                        transform_module_timed(&mut module, &input, &CompilerConfig::best())
                            .map_err(|e| e.to_string())?;
                    let report = format!("{report:?}");
                    let sim = SptSimulator::default();
                    let base_run = sim
                        .run(&baseline, b.entry, &[b.train_arg])
                        .map_err(|e| e.to_string())?;
                    let spt_run = sim
                        .run(&module, b.entry, &[b.train_arg])
                        .map_err(|e| e.to_string())?;
                    let mut h = Fnv::new();
                    h.update(report.as_bytes());
                    let compile = h.finish();
                    let sim = sim_digest(
                        &report,
                        &spt_trace::sim_to_bytes(&base_run),
                        &spt_trace::sim_to_bytes(&spt_run),
                    );
                    Ok(Expected {
                        compile,
                        sim,
                        reference: oracle::reference(&baseline, b.entry, b.train_arg)?,
                        speedup: base_run.cycles as f64 / spt_run.cycles.max(1) as f64,
                    })
                })
            })
            .collect();
        for (n, r) in self.replies.iter_mut().enumerate() {
            if r.failed {
                continue;
            }
            let ok = match r.kind {
                Kind::Stats => true,
                Kind::Compile(p) => matches!(&expected[p], Ok(e) if e.compile == r.digest),
                Kind::Sim(p) => {
                    matches!(&expected[p], Ok(e) if e.sim == r.digest && r.spt == Some(e.reference))
                }
                Kind::Fresh(p) => matches!(&expected[p], Ok(e) if r.spt == Some(e.reference)),
            };
            if !ok {
                eprintln!("reply {n} ({:?}) differs from the local oracle", r.kind);
                r.failed = true;
            }
        }
        // Replies to suite sims equal the local runs (checked above), so
        // the local runs give the speedup whatever keys the window drew.
        let speedup = spt_bench::geomean(expected.iter().flatten().map(|e| e.speedup));
        Checked {
            attempted: self.replies.len() as u64,
            failed: self.replies.iter().filter(|r| r.failed).count() as u64,
            speedup_geomean: speedup,
        }
    }
}
