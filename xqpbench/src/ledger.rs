//! The traced pass: times the public calls into each layer in-process, on
//! the workload's own requests, and prints the per-layer ledger.
//!
//! Spans are taken in this file around the calls into each crate; the
//! program carries no tracing of its own. The pass runs in a separate
//! invocation from the end-to-end runs, so those carry no timers beyond
//! send and reply.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xqp::{Database, RuleSet, SessionOptions, Strategy};
use xqp_algebra::{optimize_expr, Expr, LogicalPlan, SchemaNode};
use xqp_exec::context::statistics_of;
use xqp_exec::{physical, PlanCache, DEFAULT_PLAN_CACHE_CAPACITY};
use xqp_serve::{Client, Server, ServerConfig};
use xqp_storage::{update, SuccinctDoc, TagStreams, ValueIndex};

use crate::served::{err, judge, open_db, open_durable, run_loop, Prepared, Stop};
use crate::stats::mid;
use crate::workload::{Kind, DOC, MARKER_PATH, WRITE_FRAGMENT};

/// Repeats of each layer call per traced request; the per-request value
/// is their middle.
const REPEATS: usize = 5;
/// Repeats of each load-phase call.
const LOAD_REPEATS: usize = 3;
/// Distinct requests traced per workload (every template included).
const TRACED: usize = 18;
/// Reads per session of the served replay that reads plan-cache, queue
/// and MVCC counters under the workload's own session mix; about a second
/// of traffic on each workload.
fn replay_reads(kind: Kind) -> usize {
    match kind {
        Kind::Update => 1500,
        _ => 100,
    }
}
/// Writer rounds of the write ledger (two WAL records each, so the
/// ledger spans at least one compaction).
const WRITE_ROUNDS: u64 = 100;

/// The sample basis of the ledger, printed above it.
pub fn samples() -> String {
    format!(
        "per-request times: middle of {REPEATS} repeats, median over up to {TRACED} traced \
         requests; load phase: middle of {LOAD_REPEATS} calls; write layers: median over \
         {WRITE_ROUNDS} rounds"
    )
}

/// Coverage outside this band means a layer is missing from the ledger
/// or the tracing itself costs time.
pub const COVERAGE_BAND: (f64, f64) = (0.9, 1.1);

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Ledger {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ledger {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn check(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            if self.notes.len() < 5 {
                self.notes.push(format!("{what}: {e}"));
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Time `f`, returning its result and the elapsed time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// Shortest span timed as one sample; calls faster than this are timed
/// in batches and the batch time divided, so sub-microsecond layers keep
/// all their digits instead of reading as a few clock ticks.
const MIN_SPAN_US: f64 = 100.0;

/// Middle of `n` timings of `f`, in µs per call, after one untimed call.
fn mid_us<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let first = us(timed(|| std::hint::black_box(f())).1);
    let batch = (MIN_SPAN_US / first.max(1e-3)).ceil().clamp(1.0, 1000.0) as usize;
    let v: Vec<f64> = (0..n)
        .map(|_| {
            let span = timed(|| {
                for _ in 0..batch {
                    std::hint::black_box(f());
                }
            });
            us(span.1) / batch as f64
        })
        .collect();
    mid(&v)
}

fn mid_ms<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    mid_us(n, &mut f) / 1e3
}

/// The FLWOR pipeline a compiled query body lowers, as the executor
/// finds it: the body itself, or the first one inside a constructor.
fn flwor_of(body: &Expr) -> Option<&LogicalPlan> {
    fn in_node(n: &SchemaNode) -> Option<&LogicalPlan> {
        match n {
            SchemaNode::Placeholder(Expr::Flwor(p)) => Some(p),
            SchemaNode::Element { children, .. } => children.iter().find_map(in_node),
            SchemaNode::If { then_children, else_children, .. } => {
                then_children.iter().chain(else_children).find_map(in_node)
            }
            _ => None,
        }
    }
    match body {
        Expr::Flwor(plan) => Some(plan),
        Expr::Construct(tree) => in_node(&tree.root),
        _ => None,
    }
}

/// Universe indices the pass traces: the warm-up set (one per template),
/// then the head of session 0's stream, without repeats.
fn traced_requests(prep: &Prepared) -> Vec<usize> {
    let mut picked = prep.wl.warmup();
    for i in prep.wl.stream(0).take(50 * TRACED) {
        if picked.len() >= TRACED.max(prep.wl.templates.len()) {
            break;
        }
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked
}

/// Run the traced pass over `prep`.
pub fn run(prep: &Prepared) -> Result<Ledger, String> {
    let mut l = Ledger::default();
    load_phase(prep, &mut l)?;
    read_phase(prep, &mut l)?;
    write_phase(prep, &mut l)?;
    buffer_phase(prep, &mut l)?;
    Ok(l)
}

/// Set-up layers: parse, succinct build, statistics, value index, tag
/// streams, store reopen and server start.
fn load_phase(prep: &Prepared, l: &mut Ledger) -> Result<(), String> {
    let xml = &prep.wl.xml;
    l.put("xml.parse_ms", mid_ms(LOAD_REPEATS, || xqp_xml::parse_document(xml)), "ms");
    let dom = xqp_xml::parse_document(xml).map_err(err)?;
    l.put(
        "storage.succinct_build_ms",
        mid_ms(LOAD_REPEATS, || SuccinctDoc::from_document(&dom)),
        "ms",
    );
    let sdoc = SuccinctDoc::from_document(&dom);
    l.put("storage.doc_heap_mb", sdoc.heap_bytes() as f64 / 1e6, "MB");
    l.put("exec.statistics_ms", mid_ms(LOAD_REPEATS, || statistics_of(&sdoc)), "ms");
    l.put("storage.value_index_ms", mid_ms(LOAD_REPEATS, || ValueIndex::build(&sdoc)), "ms");
    l.put("storage.tag_streams_ms", mid_ms(LOAD_REPEATS, || TagStreams::build(&sdoc)), "ms");
    l.put("storage.tag_streams_mb", TagStreams::build(&sdoc).heap_bytes() as f64 / 1e6, "MB");
    let mut opens = Vec::new();
    for _ in 0..LOAD_REPEATS {
        let (db, d) = timed(|| match prep.wl.kind {
            Kind::Paged => Database::open_with_buffer(&prep.paged_store, prep.pool_pages),
            _ => Database::open(&prep.store),
        });
        db.map_err(err)?;
        opens.push(ms(d));
    }
    l.put("persist.open_ms", mid(&opens), "ms");
    let db = Arc::new(open_db(prep)?);
    let mut starts = Vec::new();
    for _ in 0..LOAD_REPEATS {
        let (server, d) =
            timed(|| Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()));
        server.map_err(err)?.shutdown();
        starts.push(ms(d));
    }
    l.put("serve.start_ms", mid(&starts), "ms");
    Ok(())
}

/// Per-request layers on the served database, the wire, and a short
/// served replay of the workload's session mix.
fn read_phase(prep: &Prepared, l: &mut Ledger) -> Result<(), String> {
    let server = Server::start(Arc::new(open_db(prep)?), "127.0.0.1:0", ServerConfig::default())
        .map_err(err)?;
    let db = server.database();

    // Replay: plan-cache traffic, admission queue and live versions under
    // the workload's own sessions (and writer, on update).
    let mut admin = Client::connect(server.addr()).map_err(err)?;
    let before = admin.stats().map_err(err)?;
    let (hits0, misses0, _) = server.cache_stats();
    let replay = run_loop(&server, prep, Stop::Reads(replay_reads(prep.wl.kind)), true);
    let (hits1, misses1, _) = server.cache_stats();
    let after = admin.stats().map_err(err)?;
    l.attempted += replay.attempted;
    l.failed += replay.failed;
    l.notes.extend(replay.errors.iter().cloned());
    let lookups = (hits1 - hits0) + (misses1 - misses0);
    l.put("exec.plan_hit_ratio", (hits1 - hits0) as f64 / lookups.max(1) as f64, "ratio");
    let delta = |key: &str| {
        let get = |pairs: &[(String, u64)]| {
            pairs.iter().find(|(k, _)| k == key).map(|&(_, v)| v).unwrap_or(0)
        };
        (get(&after) - get(&before)) as f64
    };
    l.put("serve.queued_total", delta("queued_total"), "count");
    l.put("serve.queue_shed", delta("queue_shed"), "count");
    l.put("serve.overload_rejections", delta("overload_rejections"), "count");
    l.put("exec.live_versions_max", replay.live_versions_max as f64, "count");

    let strategies = [Strategy::Auto, Strategy::NoK, Strategy::TwigStack, Strategy::BinaryJoin];
    let rules = RuleSet::all();
    let shared = Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY));
    let mut cols: [Vec<f64>; 14] = Default::default();
    let (mut layers, mut untraced) = (0.0, 0.0);
    let (mut visited, mut results, mut streamed, mut joins, mut rows, mut peak) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    let traced = traced_requests(prep);
    for &i in &traced {
        let text = &prep.wl.universe[i].text;
        let want = &prep.refs[i];
        let snap = db.document(DOC).map_err(err)?;

        let snapshot = mid_us(REPEATS, || db.document(DOC));
        let parse = mid_us(REPEATS, || xqp_xquery::parse_query(text));
        let body = xqp_xquery::parse_query(text).map_err(err)?.body;
        let rewrite = mid_us(REPEATS, || optimize_expr(body.clone(), &rules));
        // The clone is not part of the rewrite layer.
        let clone = mid_us(REPEATS, || body.clone());
        let rewrite = (rewrite - clone).max(0.0);
        let (optimized, _) = optimize_expr(body, &rules);

        // Warm executor per strategy: streams built and plan compiled once,
        // so strategies compare like for like.
        let mut per_strategy = [0.0; 4];
        for (k, &s) in strategies.iter().enumerate() {
            let ex = snap.executor().with_strategy(s);
            let got = ex.query(text).map_err(err)?;
            l.check(&format!("{} `{text}`", s.name()), judge(want, Ok((0, got))));
            per_strategy[k] = mid_us(REPEATS, || ex.query_items(text));
        }
        let warm = snap.executor();
        let items = warm.query_items(text).map_err(err)?;
        let lower = mid_us(REPEATS, || {
            flwor_of(&optimized).map(|p| physical::lower(p, warm.context(), Strategy::Auto))
        });
        let execute = mid_us(REPEATS, || warm.query_items(text));
        let fresh = mid_us(REPEATS, || snap.executor().query_items(text));
        let context_setup = fresh - execute;
        let serialize = mid_us(REPEATS, || warm.serialize_items(&items));
        let body_bytes = warm.serialize_items(&items).len() as f64;

        warm.reset_counters();
        let items = warm.query_items(text).map_err(err)?;
        let c = warm.counters();
        visited += c.nodes_visited;
        results += items.len() as u64;
        streamed += c.stream_items;
        joins += c.structural_joins;
        rows += c.phys_rows;
        peak = peak.max(c.peak_bindings);

        // Untraced in-process request as a session runs it on a plan-cache
        // miss (the traced compile layers are the miss path).
        let whole = mid_us(REPEATS, || {
            let opts = SessionOptions {
                cache: Some(Arc::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY))),
                ..SessionOptions::default()
            };
            db.query_session(DOC, text, &opts)
        });
        layers += snapshot + parse + rewrite + lower + context_setup + execute + serialize;
        untraced += whole;

        // Wire: the same request over one session minus the same call
        // in-process, both against a warm plan cache.
        let opts = SessionOptions { cache: Some(Arc::clone(&shared)), ..SessionOptions::default() };
        db.query_session(DOC, text, &opts).map_err(err)?;
        let in_process = mid_us(REPEATS, || db.query_session(DOC, text, &opts));
        let mut wire_ok = Ok(());
        let over_wire = mid_us(REPEATS, || {
            let r = judge(want, admin.query(DOC, text));
            if r.is_err() {
                wire_ok = r;
            }
        });
        l.check(&format!("served `{text}`"), wire_ok);

        let best = per_strategy[1..].iter().copied().fold(f64::INFINITY, f64::min);
        let row = [
            snapshot,
            parse,
            rewrite,
            lower,
            context_setup,
            execute,
            per_strategy[0],
            per_strategy[1],
            per_strategy[2],
            per_strategy[3],
            per_strategy[0] / best,
            serialize,
            body_bytes,
            over_wire - in_process,
        ];
        for (col, v) in cols.iter_mut().zip(row) {
            col.push(v);
        }
    }
    let _ = admin.close();
    server.shutdown();

    let names: [(&'static str, &'static str); 14] = [
        ("exec.snapshot_us", "us"),
        ("xquery.parse_us", "us"),
        ("algebra.rewrite_us", "us"),
        ("exec.lower_us", "us"),
        ("exec.context_setup_us", "us"),
        ("exec.execute_us", "us"),
        ("exec.strategy.auto_us", "us"),
        ("exec.strategy.nok_us", "us"),
        ("exec.strategy.twigstack_us", "us"),
        ("exec.strategy.binaryjoin_us", "us"),
        ("exec.auto_over_best", "ratio"),
        ("exec.serialize_us", "us"),
        ("serve.response_bytes", "bytes"),
        ("serve.wire_us", "us"),
    ];
    for ((name, unit), col) in names.into_iter().zip(&cols) {
        l.put(name, mid(col), unit);
    }
    let n = traced.len() as f64;
    l.put("exec.nodes_visited_per_result", visited as f64 / results.max(1) as f64, "count");
    l.put("exec.stream_items_per_query", streamed as f64 / n, "count");
    l.put("exec.structural_joins_per_query", joins as f64 / n, "count");
    l.put("exec.phys_rows_per_query", rows as f64 / n, "count");
    l.put("exec.peak_bindings", peak as f64, "count");
    let coverage = layers / untraced;
    l.put("trace.coverage", coverage, "ratio");
    if coverage < COVERAGE_BAND.0 || coverage > COVERAGE_BAND.1 {
        l.notes.push(format!(
            "FLAG trace.coverage {coverage:.3} outside [{}, {}]: the layers account for \
             {:.0}% of the untraced request",
            COVERAGE_BAND.0,
            COVERAGE_BAND.1,
            coverage * 100.0
        ));
    }
    Ok(())
}

/// Write layers: the update writer's rounds against this workload's
/// document in a durable store with the update workload's settings.
fn write_phase(prep: &Prepared, l: &mut Ledger) -> Result<(), String> {
    let db = open_durable(prep)?;
    let frag = xqp_xml::parse_document(WRITE_FRAGMENT).map_err(err)?;
    let before_doc = db.serialize(DOC).map_err(err)?;
    let gen0 = db.generation(DOC).map_err(err)?;
    let p0 = db.persist_stats(DOC).map_err(err)?;
    let mut cols: [Vec<f64>; 5] = Default::default();
    for r in 0..WRITE_ROUNDS {
        let target = prep.wl.write_target(r);
        let (hits, target_t) = timed(|| db.select(DOC, &target));
        let hits = hits.map_err(err)?;
        let snap = db.document(DOC).map_err(err)?;
        let (spliced, splice_t) = timed(|| update::insert_subtree(snap.sdoc(), hits[0], &frag));
        let spliced = spliced.map_err(err)?;
        let (_, stats_t) = timed(|| statistics_of(&spliced));
        drop((snap, spliced));
        let (n, insert_t) = timed(|| db.insert_into(DOC, &target, WRITE_FRAGMENT));
        l.check(&format!("insert `{target}`"), one(n.map_err(err)?));
        let (n, delete_t) = timed(|| db.delete_matching(DOC, MARKER_PATH));
        l.check("delete marker", one(n.map_err(err)?));
        for (col, d) in cols.iter_mut().zip([target_t, splice_t, stats_t, insert_t, delete_t]) {
            col.push(us(d));
        }
    }
    let p1 = db.persist_stats(DOC).map_err(err)?;
    let gen_moved = db.generation(DOC).map_err(err)? - gen0;
    l.check(
        "generation advance",
        (gen_moved == 2 * WRITE_ROUNDS)
            .then_some(())
            .ok_or(format!("{gen_moved} generations for {WRITE_ROUNDS} rounds")),
    );
    l.check(
        "document restored",
        (db.serialize(DOC).map_err(err)? == before_doc)
            .then_some(())
            .ok_or_else(|| "document differs after the write rounds".to_string()),
    );
    let names = [
        "exec.update_target_us",
        "storage.splice_us",
        "exec.install_stats_us",
        "storage.insert_us",
        "storage.delete_us",
    ];
    for (name, col) in names.into_iter().zip(&cols) {
        l.put(name, mid(col), "us");
    }
    let writes = (2 * WRITE_ROUNDS) as f64;
    l.put(
        "persist.bytes_per_write",
        (p1.bytes_written - p0.bytes_written) as f64 / writes,
        "bytes",
    );
    l.put("persist.compactions", (p1.compactions - p0.compactions) as f64, "count");
    let mut compacts = Vec::new();
    for _ in 0..LOAD_REPEATS {
        let (r, d) = timed(|| db.compact(DOC));
        r.map_err(err)?;
        compacts.push(ms(d));
    }
    l.put("persist.compact_ms", mid(&compacts), "ms");
    Ok(())
}

fn one(n: usize) -> Result<(), String> {
    (n == 1).then_some(()).ok_or(format!("touched {n} nodes, expected 1"))
}

/// Buffer-pool layers: the traced requests on the paged store through a
/// pool of a tenth of its pages, against the same requests resident.
fn buffer_phase(prep: &Prepared, l: &mut Ledger) -> Result<(), String> {
    let paged = Database::open_with_buffer(&prep.paged_store, prep.pool_pages).map_err(err)?;
    let resident = Database::new();
    resident.load_str(DOC, &prep.wl.xml).map_err(err)?;
    let s0 = paged.buffer_stats().expect("pool configured");
    let (mut paged_us, mut resident_us) = (0.0, 0.0);
    // Every paged query between the two `buffer_stats` reads, batched
    // timing repeats included.
    let mut paged_runs = 0u64;
    for i in traced_requests(prep) {
        let text = &prep.wl.universe[i].text;
        let got = paged.query(DOC, text).map_err(err)?;
        paged_runs += 1;
        l.check(&format!("paged `{text}`"), judge(&prep.refs[i], Ok((0, got))));
        resident.query(DOC, text).map_err(err)?;
        paged_us += mid_us(REPEATS, || {
            paged_runs += 1;
            paged.query(DOC, text)
        });
        resident_us += mid_us(REPEATS, || resident.query(DOC, text));
    }
    let s1 = paged.buffer_stats().expect("pool configured");
    let queries = paged_runs as f64;
    let (hits, misses) = ((s1.hits - s0.hits) as f64, (s1.misses - s0.misses) as f64);
    l.put("buffer.pins_per_query", (hits + misses) / queries, "count");
    l.put("buffer.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    l.put("buffer.misses_per_query", misses / queries, "count");
    l.put("buffer.evictions_per_query", (s1.evictions - s0.evictions) as f64 / queries, "count");
    l.put("buffer.paged_over_resident", paged_us / resident_us, "ratio");
    Ok(())
}
