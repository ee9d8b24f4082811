//! `lubm_serve`: the same 1M-fact knowledge base, defaults (answer cache
//! on), behind the TCP server. Two closed-loop client connections with no
//! think time. A quarter of the requests are `ANSWER handle` on the eight
//! prepared queries — exact answer-cache hits of 0 to 76 500 tuples, where
//! rendering, encoding and framing are the cost. The rest are `QUERY text`
//! point queries whose constant nobody asked about before: a new canonical
//! key each, so parse → rewrite → plan → execute run every time on tiny
//! results. A faster join kernel should not move this workload; a cheaper
//! wire format or less per-query overhead should.

use std::path::Path;
use std::sync::Arc;

use nyaya::serve::{
    serve, write_frame, AnswerSet, Backend, Client, Request as WireRequest, Response, Server,
    ServerConfig,
};
use nyaya::sql::{execute_ucq_intra, plan_cq_cost};
use nyaya::KbBackend;

use crate::check::{same, Digest, Expected, RefDb};
use crate::common::{cores, hit_ratio, staged_compile, timed, Compiled, Plan, RewriteTotals};
use crate::inputs::{self, Lubm, Request};
use crate::lubm_join::{self, Ready, LUBM_FACTS};
use crate::metrics::Report;
use crate::stats::{geomean, median, midmean, percentile, sum};
use crate::trace::Tracer;

pub const CONNECTIONS: usize = 2;
/// Servers brought up per run; `setup_s` is the lower decile over them.
const SETUP_REPS: usize = 3;

struct Serving {
    ready: Ready,
    backend: Arc<KbBackend>,
    server: Server,
    clients: Vec<Client>,
    /// Wire handle of prepared query `i`.
    handles: Vec<u64>,
    /// What `ANSWER` on each handle returned during set-up.
    warm: Vec<Digest>,
}

/// Generated facts → ready for the first request: build, bind, connect,
/// `PREPARE` the eight queries and execute each once so that later
/// `ANSWER`s are the cache hits the workload is about.
fn setup(lubm: &Lubm) -> Result<(Serving, f64), String> {
    let (built, ms) = timed(|| -> Result<Serving, String> {
        let (ready, _) = lubm_join::setup(lubm, true);
        let backend = Arc::new(KbBackend::new(Arc::clone(&ready.kb)));
        let server = serve("127.0.0.1:0", backend.clone(), ServerConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let mut clients = Vec::new();
        for _ in 0..CONNECTIONS {
            clients
                .push(Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?);
        }
        let (mut handles, mut warm) = (Vec::new(), Vec::new());
        for (name, text) in inputs::lubm_queries() {
            let handle = clients[0]
                .prepare(&text)
                .map_err(|e| format!("PREPARE {name}: {e}"))?;
            let answers = clients[0]
                .answer(handle, None)
                .map_err(|e| format!("ANSWER {name}: {e}"))?;
            handles.push(handle);
            warm.push(Digest::of_strings(&answers.tuples));
        }
        Ok(Serving {
            ready,
            backend,
            server,
            clients,
            handles,
            warm,
        })
    });
    built.map(|serving| (serving, ms))
}

/// Stop the server's threads and wait for them.
fn shutdown(serving: Serving) {
    let Serving {
        server, clients, ..
    } = serving;
    server.handle().shutdown();
    drop(clients);
    server.join();
}

/// What one request returned: latency and the fingerprint of the answer.
struct Served {
    ms: f64,
    outcome: Result<Digest, String>,
}

fn drive(client: &mut Client, handles: &[u64], schedule: &[Request]) -> Vec<Served> {
    schedule
        .iter()
        .map(|request| {
            let (answers, ms) = timed(|| match request {
                Request::Answer(q) => client.answer(handles[*q], None),
                Request::Point(p) => client.query(&p.text, None),
            });
            Served {
                ms,
                outcome: answers
                    .map(|a| Digest::of_strings(&a.tuples))
                    .map_err(|e| e.to_string()),
            }
        })
        .collect()
}

pub fn run(seed: u64, seconds: u64, report: &mut Report) {
    // ~100 requests per second over both connections at the defining commit.
    let per_connection = 4 * (seconds * 12) as usize;
    let names = inputs::lubm_queries();
    let (lubm, gen_ms) = timed(|| inputs::lubm(seed, LUBM_FACTS));
    let schedules: Vec<Vec<Request>> = (0..CONNECTIONS)
        .map(|c| inputs::schedule(seed, &lubm.config, c, per_connection))
        .collect();

    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            shutdown(previous);
        }
        match setup(&lubm) {
            Ok((serving, ms)) => {
                setup_s.push(ms / 1e3);
                last = Some(serving);
            }
            Err(e) => {
                report.op(Err(format!("set-up: {e}")));
                return;
            }
        }
    }
    let mut serving = last.expect("SETUP_REPS > 0");

    // The handles' answers against the references, once.
    let expected = Expected::embedded();
    let (want, cqs) = lubm_join::references(&serving.ready, &lubm.facts);
    for (q, (name, _)) in names.iter().enumerate() {
        report.op(same(&format!("ANSWER {name}"), serving.warm[q], want[q]));
        report.op(expected.check("lubm", name, seed, cqs[q], serving.warm[q]));
    }

    // The measured phase: one thread per connection, closed loop.
    let handles = serving.handles.clone();
    let (served, wall_ms) = timed(|| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = serving
                .clients
                .iter_mut()
                .zip(&schedules)
                .map(|(client, schedule)| {
                    let handles = &handles;
                    scope.spawn(move || drive(client, handles, schedule))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        })
    });

    // Every served answer against the reference evaluator, on the
    // rewriting the server compiled for it (a cache hit by now).
    let kb = Arc::clone(&serving.ready.kb);
    let mut refdb = RefDb::new(&lubm.facts);
    let mut answer_ms: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut point_ms: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let mut point_cqs = [0u64; 3];
    for (schedule, results) in schedules.iter().zip(&served) {
        for (request, result) in schedule.iter().zip(results) {
            let (what, want) = match request {
                Request::Answer(q) => {
                    answer_ms[*q].push(result.ms);
                    (format!("ANSWER {}", names[*q].0), Ok(want[*q]))
                }
                Request::Point(p) => {
                    point_ms[p.template].push(result.ms);
                    let reference = kb
                        .prepare_text(&p.text)
                        .map_err(|e| e.to_string())
                        .and_then(|prepared| refdb.answers(&kb, &prepared))
                        .map(|(cqs, digest)| {
                            point_cqs[p.template] = cqs;
                            digest
                        });
                    (p.text.clone(), reference)
                }
            };
            report.op(match (&result.outcome, &want) {
                (Ok(got), Ok(want)) => same(&what, *got, *want),
                (Err(e), _) | (_, Err(e)) => Err(format!("{what}: {e}")),
            });
        }
    }

    let stats = kb.stats();
    let all_points: Vec<f64> = point_ms.iter().flatten().copied().collect();
    let point_p50: Vec<f64> = point_ms.iter().map(|s| median(s)).collect();
    let answer_p50: Vec<f64> = answer_ms.iter().map(|s| median(s)).collect();
    let point_mid: Vec<f64> = point_ms.iter().map(|s| midmean(s)).collect();
    let answer_mid: Vec<f64> = answer_ms.iter().map(|s| midmean(s)).collect();
    let requests = CONNECTIONS * per_connection;
    report.setup(&setup_s);
    report.set("op_ms", geomean(&point_mid), all_points.len());
    report.set(
        "op_ms_tail",
        percentile(&all_points, 99.0),
        all_points.len(),
    );
    // The mean, not the geomean: the answers worth fetching are the large
    // ones, and the empty answer of U-q5 is a bare round trip of 30 µs.
    report.set(
        "alt_ms",
        sum(&answer_mid) / answer_mid.len() as f64,
        requests - all_points.len(),
    );
    report.info(
        "serve_answer_ms_p50",
        sum(&answer_p50) / answer_p50.len() as f64,
        "ms",
        requests - all_points.len(),
    );
    report.set("ops_per_s", requests as f64 / (wall_ms / 1e3), requests);
    report.set(
        "resident_bytes_per_fact",
        (stats.fact_bytes + stats.index_bytes) as f64 / stats.snapshot_facts.max(1) as f64,
        1,
    );
    report.set(
        "rewriting_cqs",
        (cqs.iter().sum::<u64>() + point_cqs.iter().sum::<u64>()) as f64,
        names.len() + 3,
    );
    report.info(
        "serve_point_ms_p50",
        median(&all_points),
        "ms",
        all_points.len(),
    );
    report.info(
        "serve_rps",
        requests as f64 / (wall_ms / 1e3),
        "1/s",
        requests,
    );
    report.info(
        "answer_cache_hit_ratio",
        hit_ratio(stats.cache_answer_hits, stats.cache_answer_misses),
        "ratio",
        requests,
    );
    report.info("connections", CONNECTIONS as f64, "count", 1);
    report.info("cores", cores() as f64, "count", 1);
    report.info("ontologies.gen_s", gen_ms / 1e3, "s", 1);
    for (template, ms) in point_p50.iter().enumerate() {
        report.info(
            &format!("point_ms_p50.template{}", template + 1),
            *ms,
            "ms",
            point_ms[template].len(),
        );
    }
    for (q, (name, _)) in names.iter().enumerate() {
        report.info(
            &format!("answer_ms_p50.{name}"),
            answer_p50[q],
            "ms",
            answer_ms[q].len(),
        );
    }
    shutdown(serving);
}

/// The traced run: one connection; each request goes over the wire under
/// a span, then its server-side work is replayed stage by stage — request
/// parsing, the `Backend` call, the facade call inside it, encoding and
/// framing, client-side decoding; for point queries also parse → key →
/// rewrite → plan → execute through the layer crates.
pub fn run_traced(seed: u64, report: &mut Report, out_dir: &Path) {
    const REQUESTS: usize = 240;
    let (lubm, gen_ms) = timed(|| inputs::lubm(seed, LUBM_FACTS));
    let schedule = inputs::schedule(seed, &lubm.config, 0, REQUESTS);
    let (mut serving, _) = match setup(&lubm) {
        Ok(ready) => ready,
        Err(e) => {
            report.op(Err(format!("set-up: {e}")));
            return;
        }
    };
    let mut t = Tracer::new();
    let kb = Arc::clone(&serving.ready.kb);
    let backend: Arc<dyn Backend> = serving.backend.clone();
    let ontology = nyaya::ontologies::load(nyaya::ontologies::BenchmarkId::U).raw;
    let compiled = Compiled::build(&ontology.tgds, &ontology.ncs);
    let snapshot = kb.snapshot();
    let mut rewrites = RewriteTotals::default();

    for _ in 0..200 {
        t.span("serve.ping", |_| serving.clients[0].ping().expect("PING"));
    }

    let (mut wire_ms, mut staged_ms) = (0.0, 0.0);
    let (mut render_ms, mut bytes, mut answers_sent) = (0.0, 0usize, 0usize);
    let (mut plan_us, mut plans) = (0.0, 0usize);
    for request in &schedule {
        t.next_op();
        let wire = match request {
            Request::Answer(q) => WireRequest::Answer {
                handle: serving.handles[*q],
                at: None,
            },
            Request::Point(p) => WireRequest::Query {
                query: p.text.clone(),
                at: None,
            },
        };
        let span = if matches!(request, Request::Answer(_)) {
            "wire.answer"
        } else {
            "wire.point"
        };
        let served = t.span(span, |_| serving.clients[0].call(&wire));
        wire_ms += t.last_ms(span);

        // Server side, replayed in process. The point query's rewriting and
        // answer are cached by now, so the backend call shows what a repeat
        // costs; its cold cost is staged below through the layer crates.
        let frame = wire.encode();
        let replay: Result<AnswerSet, String> = t.span("staged.op", |t| {
            let parsed = t.span("serve.parse_request", |_| WireRequest::parse(&frame))?;
            let answers = t.span("serve.backend", |_| match &parsed {
                WireRequest::Answer { handle, at } => backend.answer(*handle, *at),
                WireRequest::Query { query, at } => backend.query(query, *at),
                _ => Err("unexpected verb".to_owned()),
            })?;
            let response = Response::Answers(answers);
            let framed = t.span("serve.encode", |_| {
                let mut out = Vec::new();
                write_frame(&mut out, &response.encode()).expect("writing to a Vec");
                out
            });
            bytes += framed.len();
            answers_sent += 1;
            match t.span("serve.decode", |_| Response::parse(&framed[4..]))? {
                Response::Answers(a) => Ok(a),
                other => Err(format!("decoded {other:?}")),
            }
        });
        staged_ms += t.last_ms("staged.op");
        report.op(match (served, replay) {
            (Ok(Response::Answers(wire)), Ok(replayed)) if wire.tuples == replayed.tuples => Ok(()),
            (Ok(_), Ok(_)) => Err("the wire and the in-process replay disagree".to_owned()),
            (Err(e), _) => Err(e.to_string()),
            (_, Err(e)) => Err(e),
        });

        match request {
            Request::Answer(q) => {
                // Rendering = the backend's answer minus the facade's.
                let (_, facade_ms) = timed(|| kb.execute(&serving.ready.prepared[*q]));
                render_ms += (t.last_ms("serve.backend") - facade_ms).max(0.0);
            }
            Request::Point(p) => {
                t.span("staged.point", |t| {
                    let (_, plan, _) = staged_compile(t, &compiled, &p.text, &mut rewrites);
                    if let Plan::Ucq(ucq) = &plan {
                        t.span("sql.execute_ucq", |_| {
                            execute_ucq_intra(
                                snapshot.database(),
                                ucq,
                                1,
                                cores(),
                                snapshot.build_cache(),
                                1.0,
                            )
                        });
                        t.span("probe.sql.plan", |_| {
                            for cq in ucq.iter() {
                                std::hint::black_box(plan_cq_cost(snapshot.database(), cq));
                            }
                        });
                        plan_us += t.last_ms("probe.sql.plan") * 1e3;
                        plans += ucq.size();
                    }
                });
            }
        }
    }
    let stats = kb.stats();
    let per_op = |name: &str, scale: f64| t.total_ms(name) * scale / t.calls(name).max(1) as f64;
    report.set(
        "serve.ping_us",
        per_op("serve.ping", 1e3),
        t.calls("serve.ping"),
    );
    report.set(
        "serve.wire_answer_ms",
        per_op("wire.answer", 1.0),
        t.calls("wire.answer"),
    );
    report.set(
        "serve.wire_point_ms",
        per_op("wire.point", 1.0),
        t.calls("wire.point"),
    );
    report.set(
        "serve.parse_request_us",
        per_op("serve.parse_request", 1e3),
        t.calls("serve.parse_request"),
    );
    report.set(
        "serve.render_ms",
        render_ms / t.calls("wire.answer").max(1) as f64,
        t.calls("wire.answer"),
    );
    report.set(
        "serve.encode_ms",
        per_op("serve.encode", 1.0),
        t.calls("serve.encode"),
    );
    report.set(
        "serve.decode_ms",
        per_op("serve.decode", 1.0),
        t.calls("serve.decode"),
    );
    report.set(
        "serve.bytes_per_answer",
        bytes as f64 / answers_sent.max(1) as f64,
        answers_sent,
    );
    report.set(
        "parser.parse_us",
        per_op("parser.parse_query", 1e3),
        t.calls("parser.parse_query"),
    );
    report.set(
        "core.canonical_key_us",
        per_op("core.canonical_key", 1e3),
        t.calls("core.canonical_key"),
    );
    report.set(
        "rewrite.auto_decide_ms",
        per_op("rewrite.auto_decide", 1.0),
        t.calls("rewrite.auto_decide"),
    );
    report.set(
        "rewrite.expand_ms",
        per_op("rewrite.expand", 1.0),
        t.calls("rewrite.expand"),
    );
    report.set(
        "rewrite.explored",
        rewrites.explored as f64,
        t.calls("rewrite.expand"),
    );
    report.set(
        "rewrite.dedup_hits",
        rewrites.dedup_hits as f64,
        t.calls("rewrite.expand"),
    );
    report.set(
        "rewrite.atoms_eliminated",
        rewrites.atoms_eliminated as f64,
        t.calls("rewrite.expand"),
    );
    report.set(
        "rewrite.useful_ratio",
        rewrites.final_cqs as f64 / rewrites.explored.max(1) as f64,
        t.calls("rewrite.expand"),
    );
    report.set("sql.plan_us", plan_us / plans.max(1) as f64, plans);
    report.set(
        "sql.exec_ms",
        per_op("sql.execute_ucq", 1.0),
        t.calls("sql.execute_ucq"),
    );
    report.set(
        "kb.answer_cache_hit_ratio",
        hit_ratio(stats.cache_answer_hits, stats.cache_answer_misses),
        schedule.len(),
    );
    report.set(
        "kb.rewrite_cache_hit_ratio",
        hit_ratio(stats.cache_hits, stats.cache_misses),
        schedule.len(),
    );
    report.facade_vs_staged(wire_ms, staged_ms, schedule.len());
    report.set("ontologies.gen_s", gen_ms / 1e3, 1);
    crate::finish_trace(&t, "lubm_serve", out_dir);
    shutdown(serving);
}
