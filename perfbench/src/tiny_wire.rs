//! `tiny-wire`: a 2-layer hidden-64 model behind the full serving tier —
//! `RouterServer` → `Router` (RF 2, heartbeats, adaptive hedging) → two
//! loopback `ClusterNode`s. Two closed-loop clients post raw HTTP/1.1
//! on one keep-alive connection each. Compute is about a millisecond of
//! each request; the rest is per-request overhead of the wire, so a
//! kernel change should leave this workload unchanged.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gobo_cluster::{ClusterNode, Router, RouterConfig, RouterServer};
use gobo_serve::json::{parse, Json};
use gobo_serve::{Client, EncodeRequest, ServeCore, ServeOptions};

use crate::check::{references, Reference, Tally};
use crate::layers::{self, Payload};
use crate::report;
use crate::rng::{input_pool, Input};
use crate::serving::{self, Done, RssPeak};
use crate::setup;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{Ctx, Outcome, SetupSamples};

/// Set-ups per untraced run before and after the measured phase; the
/// tier comes up in well under a second, so more repetitions steady its
/// millisecond-scale medians.
const SETUP_BEFORE: usize = 5;
const SETUP_AFTER: usize = 4;
/// Client threads, one keep-alive connection each.
const CLIENTS: usize = 2;
/// Request lengths: 4–32 tokens, each equally often.
const LENGTHS: std::ops::RangeInclusive<usize> = 4..=32;

/// The running tier.
struct Tier {
    cores: Vec<Arc<ServeCore>>,
    nodes: Vec<ClusterNode>,
    router: Arc<Router>,
    server: RouterServer,
    bytes: Vec<u8>,
    compression_ratio: f64,
}

impl Tier {
    fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    fn shutdown(self) {
        drop(self.server);
        self.router.shutdown();
        for mut node in self.nodes {
            node.shutdown();
        }
        for core in self.cores {
            core.shutdown();
        }
    }
}

fn bring_up(ctx: &Ctx, samples: &mut SetupSamples) -> Tier {
    let started = Instant::now();
    let model = setup::synthesize(&setup::tiny_config(), 0.0);
    let revision = setup::quantize(&model);
    drop(model);
    let path = setup::write(&ctx.dir, "tiny.gobom", &revision.bytes);
    let warm = [(4..12).collect::<Vec<usize>>()];
    let mut cores = Vec::new();
    let mut nodes = Vec::new();
    let router = Arc::new(Router::new(RouterConfig::default()));
    for i in 0..2 {
        let served = setup::serve(ServeOptions::default(), &path, &warm);
        samples.publish_ms.push(served.publish_ms);
        let node = ClusterNode::start(Arc::clone(&served.core), "127.0.0.1:0")
            .expect("bind a loopback node");
        router.add_node(format!("n{i}"), node.local_addr().to_string());
        cores.push(served.core);
        nodes.push(node);
    }
    router.start();
    let server =
        RouterServer::bind(Arc::clone(&router), "127.0.0.1:0").expect("bind the router front");
    let tier = Tier {
        cores,
        nodes,
        router,
        server,
        bytes: revision.bytes,
        compression_ratio: revision.compression_ratio,
    };
    let mut conn = Conn::open(&tier.addr());
    for len in [4, 16, 32] {
        let warm = Input { ids: (4..4 + len).collect(), type_ids: Vec::new() };
        let body = layers::request_body(&warm);
        let (status, _) = conn.post(&body).expect("warm-up request");
        assert_eq!(status, 200, "warm-up request served");
    }
    samples.setup_s.push(started.elapsed().as_secs_f64());
    samples.quantize_s.push(revision.quantize_s);
    tier
}

/// One keep-alive HTTP/1.1 connection speaking raw requests.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the router front");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        stream.set_read_timeout(Some(Duration::from_secs(15))).expect("set a read timeout");
        let writer = stream.try_clone().expect("clone the socket");
        Conn { reader: BufReader::new(stream), writer }
    }

    /// Posts `/v1/encode` and returns the status and body.
    fn post(&mut self, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "POST /v1/encode HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let mut body = vec![0; length.ok_or_else(|| bad("no content-length"))?];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8(body).map_err(|_| bad("body not utf-8"))?))
    }
}

/// The encode response body as the payload it carries.
fn parse_response(body: &str) -> Option<Payload> {
    let json = parse(body).ok()?;
    let floats = |v: &Json| -> Option<Vec<f32>> {
        v.as_array()?.iter().map(|x| x.as_f64().map(|f| f as f32)).collect()
    };
    let hidden = json.get("hidden")?;
    let dims = hidden.get("dims")?.as_usize_array()?;
    let pooled = match json.get("pooled")? {
        Json::Null => None,
        v => Some(floats(v)?),
    };
    Some(Payload {
        hidden: floats(hidden.get("data")?)?,
        dims: [*dims.first()?, *dims.get(1)?],
        pooled,
        batch_size: json.get("batch_size")?.as_usize()?,
        queue_us: json.get("queue_us")?.as_usize()? as u64,
        compute_us: json.get("compute_us")?.as_usize()? as u64,
    })
}

/// Per-client results of a closed-loop phase.
#[derive(Default)]
struct Phase {
    done: Vec<Done>,
    attempted: u64,
    failed: u64,
    tally: Tally,
    tokens: usize,
    payloads: Vec<Payload>,
    elapsed_s: f64,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.tally.merge(other.tally);
        self.tokens += other.tokens;
        self.payloads.extend(other.payloads);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    fn latencies(&self) -> Samples {
        Samples::new(self.done.iter().map(|d| d.lat_ms).collect())
    }
}

/// How a phase reaches the model.
#[derive(Clone, Copy)]
enum Path<'a> {
    /// Raw HTTP to the router front.
    Http(&'a str),
    /// `Router::encode` called directly.
    Router(&'a Router),
    /// `Client::encode` on one node's core, in-process.
    Client(&'a Arc<ServeCore>),
}

/// `CLIENTS` closed-loop threads for `secs`, each walking the pool from
/// its own offset.
fn closed_loop(
    path: Path<'_>,
    pool: &[Input],
    refs: &[Reference],
    secs: f64,
    tracer: Option<&Tracer>,
) -> Phase {
    let started = Instant::now();
    let run_client = |c: usize| {
        let mut phase = Phase::default();
        let mut conn = match path {
            Path::Http(addr) => Some((addr, Conn::open(addr))),
            _ => None,
        };
        let client = match path {
            Path::Client(core) => Some(Client::new(Arc::clone(core))),
            _ => None,
        };
        let mut i = c * pool.len() / CLIENTS;
        while started.elapsed().as_secs_f64() < secs {
            let input = i % pool.len();
            i += 1;
            let item = &pool[input];
            phase.attempted += 1;
            let req_id = (c as u64) << 32 | phase.attempted;
            let t0 = Instant::now();
            let got: Option<Payload> = match path {
                Path::Http(_) => {
                    let (addr, conn) = conn.as_mut().expect("HTTP path has a connection");
                    match conn.post(&layers::request_body(item)) {
                        Ok((200, text)) => parse_response(&text),
                        Ok(_) => None,
                        Err(_) => {
                            *conn = Conn::open(addr);
                            None
                        }
                    }
                }
                Path::Router(router) => {
                    let ids: Vec<u32> = item.ids.iter().map(|&t| t as u32).collect();
                    router.encode(setup::MODEL_NAME, None, &ids, &[], 0).ok().map(|ok| Payload {
                        dims: [
                            ok.dims.first().copied().unwrap_or(0) as usize,
                            ok.dims.get(1).copied().unwrap_or(0) as usize,
                        ],
                        hidden: ok.hidden,
                        pooled: ok.pooled,
                        batch_size: ok.batch_size as usize,
                        queue_us: ok.queue_us,
                        compute_us: ok.compute_us,
                    })
                }
                Path::Client(_) => client
                    .as_ref()
                    .and_then(|cl| {
                        cl.encode(EncodeRequest::new(setup::MODEL_NAME, item.ids.clone())).ok()
                    })
                    .map(|r| Payload::from_response(&r)),
            };
            let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(t) = tracer {
                let id = t.reserve();
                t.record(id, 0, req_id, "client.request", t0, Instant::now());
            }
            let Some(p) = got else {
                phase.failed += 1;
                continue;
            };
            if !phase.tally.check(&refs[input], &p.hidden, p.pooled.as_deref()) {
                phase.failed += 1;
                continue;
            }
            phase.tokens += item.ids.len();
            phase.done.push(Done {
                input,
                lat_ms,
                queue_us: p.queue_us,
                compute_us: p.compute_us,
                batch_size: p.batch_size,
                rev: 0,
            });
            if phase.payloads.len() < 20 {
                phase.payloads.push(p);
            }
        }
        phase.elapsed_s = started.elapsed().as_secs_f64();
        phase
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS).map(|c| s.spawn(move || run_client(c))).collect();
        let mut all = Phase::default();
        for h in handles {
            all.merge(h.join().expect("client thread panicked"));
        }
        all
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let config = setup::tiny_config();
    let mut samples = SetupSamples::default();
    let (before, after) = ctx.setup_reps(SETUP_BEFORE, SETUP_AFTER);
    let mut tier = bring_up(ctx, &mut samples);
    for _ in 1..before {
        tier.shutdown();
        tier = bring_up(ctx, &mut samples);
    }
    let pool = input_pool(ctx.seed, &LENGTHS.collect::<Vec<_>>(), 2, config.vocab, false);
    let refs = references(&setup::decode(&tier.bytes), &pool);
    let mut out = Outcome {
        constants: vec![("clients", CLIENTS as f64), ("replication", 2.0)],
        ..Outcome::default()
    };
    let addr = tier.addr();
    let metrics = tier.router.metrics();
    let (requests0, hedges0, failovers0) = (
        metrics.requests.load(Ordering::Relaxed),
        metrics.hedge_fires.load(Ordering::Relaxed),
        metrics.failovers.load(Ordering::Relaxed),
    );

    let secs = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let rss = RssPeak::start();
    let http = closed_loop(Path::Http(&addr), &pool, &refs, secs, None);
    let rss_mib = rss.finish();
    let lat = http.latencies();
    out.lines.push(format!(
        "HTTP via router, {CLIENTS} clients: {}",
        crate::stats::describe(&lat, "ms")
    ));
    out.report.put_dist("lat_p50_ms", Some("lat_tail_ms"), &lat);
    out.report.put(
        "rps",
        http.done.len() as f64 / http.elapsed_s,
        format!("{} done in {:.2} s", http.done.len(), http.elapsed_s),
    );
    out.report.put(
        "tokens_per_s",
        http.tokens as f64 / http.elapsed_s,
        format!("{} tokens", http.tokens),
    );
    out.report.put("rss_mib", rss_mib, "peak over the measured phase");
    out.count(http.attempted, http.failed, http.tally);

    if ctx.trace {
        let traced = closed_loop(Path::Http(&addr), &pool, &refs, secs, Some(&ctx.tracer));
        out.count(traced.attempted, traced.failed, traced.tally);
        let base = http.done.len() as f64 / http.elapsed_s;
        let with = traced.done.len() as f64 / traced.elapsed_s;
        out.report.put(
            "trace.overhead_pct",
            100.0 * (base - with) / base,
            "rps, untraced vs traced",
        );
        let requests = metrics.requests.load(Ordering::Relaxed) - requests0;
        let hedges = metrics.hedge_fires.load(Ordering::Relaxed) - hedges0;
        let failovers = metrics.failovers.load(Ordering::Relaxed) - failovers0;
        out.report.put(
            "cluster.hedge_ratio",
            hedges as f64 / requests.max(1) as f64,
            format!("{hedges} hedges / {requests} routed"),
        );
        out.report.put("cluster.failovers", failovers as f64, format!("over {requests} routed"));
        serving::scheduler_metrics(&traced.done, &pool, &mut out.report);

        let routed = closed_loop(Path::Router(&tier.router), &pool, &refs, secs / 2.0, None);
        let direct = closed_loop(Path::Client(&tier.cores[0]), &pool, &refs, secs / 2.0, None);
        for p in [&routed, &direct] {
            out.count(p.attempted, p.failed, p.tally);
        }
        let (route, local) = (routed.latencies(), direct.latencies());
        out.lines.push(format!("Router::encode direct: {}", crate::stats::describe(&route, "ms")));
        out.lines
            .push(format!("Client::encode on one node: {}", crate::stats::describe(&local, "ms")));
        out.report.put_dist("cluster.route_ms.p50", Some("cluster.route_ms.tail"), &route);
        let (http_p50, route_p50, local_p50) = (
            traced.latencies().median().unwrap_or(0.0),
            route.median().unwrap_or(0.0),
            local.median().unwrap_or(0.0),
        );
        out.report.put(
            "cluster.hop_ms",
            route_p50 - local_p50,
            "p50 Router::encode - p50 in-process Client::encode",
        );
        out.report.put(
            "serve.http_front_ms",
            http_p50 - route_p50,
            "p50 HTTP - p50 Router::encode",
        );
        out.report.put("serve.draining_peak", 0.0, "no reloads on this workload");

        let engine = tier.cores[0]
            .registry()
            .get(setup::MODEL_NAME, None)
            .expect("model is served")
            .engine
            .clone();
        let batches = serving::batch_inputs(&traced.done, &pool);
        let (bytes, ratio) = (tier.bytes.clone(), tier.compression_ratio);
        tier.shutdown();
        layers::replay(&engine, &batches, Duration::from_secs(2), &ctx.tracer, &mut out.report);
        let median_len =
            Samples::new(traced.done.iter().map(|d| pool[d.input].ids.len() as f64).collect());
        layers::tensor_ops(
            &config,
            median_len.median().unwrap_or(16.0) as usize,
            &ctx.tracer,
            &mut out.report,
        );
        let t = &ctx.tracer;
        layers::codecs(&pool, &traced.payloads, t, &mut out.report);
        layers::format_and_publish(&bytes, &ctx.dir, t, &mut out.report);
        out.report.put("quant.compression_ratio", ratio, "whole model, FC layers");
        layers::kernel_table(t, &mut out.report, &mut out.lines);
        out.report.not_applicable(report::OPEN_LOOP_ONLY, "closed loop");
    } else {
        tier.shutdown();
    }
    for _ in 0..after {
        bring_up(ctx, &mut samples).shutdown();
    }
    samples.put(&mut out.report);
    out
}
