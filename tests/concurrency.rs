//! Concurrency smoke test: one `Executor` shared by reference across eight
//! OS threads running a mixed query workload. The executor's read paths are
//! `Send + Sync` (atomic counters, lock-guarded lazy state), so this must
//! complete with no panics, every thread seeing correct results, and the
//! merged `ExecCounters` consistent with the work done. Executors built
//! from one document version share its lazily built structural index, so
//! threads also race that first build.

use std::sync::{Arc, Barrier};
use xqp_exec::{Executor, PlanCache, Strategy, VersionedDoc};
use xqp_gen::{gen_xmark, xmark_queries, XmarkConfig};
use xqp_storage::{SNodeId, SuccinctDoc};

const STORE: &str = "<store>\
<inventory>\
<item sku=\"A1\"><name>bolt</name><price>10</price><qty>500</qty></item>\
<item sku=\"A2\"><name>nut</name><price>5</price><qty>800</qty></item>\
<item sku=\"B1\"><name>washer</name><price>2</price><qty>50</qty></item>\
<item sku=\"B2\"><name>gear</name><price>120</price><qty>7</qty></item>\
</inventory>\
<orders>\
<order id=\"o1\" sku=\"A1\" units=\"20\"/>\
<order id=\"o2\" sku=\"B2\" units=\"2\"/>\
<order id=\"o3\" sku=\"A1\" units=\"5\"/>\
</orders>\
</store>";

const THREADS: usize = 8;
const ROUNDS: usize = 12;

/// (query, expected serialization) — a mix of paths, FLWORs and aggregates.
const WORKLOAD: &[(&str, &str)] = &[
    ("//item[price > 100]/name", "<name>gear</name>"),
    ("count(doc()//item)", "4"),
    (
        "for $i in doc()/store/inventory/item where $i/qty < 100 \
         return string($i/name)",
        "washer gear",
    ),
    ("sum(doc()//item/price)", "137"),
    ("distinct-values(doc()/store/orders/order/@sku)", "A1 B2"),
    ("exists(doc()//order[@units = 2])", "true"),
];

#[test]
fn one_executor_shared_across_threads() {
    let sdoc = SuccinctDoc::parse(STORE).unwrap();
    let ex = Executor::new(&sdoc);
    let before = ex.counters();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let ex = &ex;
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    // Stagger so threads hit different queries simultaneously.
                    let (q, want) = WORKLOAD[(t + r) % WORKLOAD.len()];
                    let got = ex.query(q).expect("query evaluates");
                    assert_eq!(got, want, "thread {t} round {r} query `{q}`");
                }
            });
        }
    });

    let after = ex.counters();
    // Counters only move forward, and the workload did real work.
    assert!(after.nodes_visited >= before.nodes_visited);
    assert!(after.stream_items >= before.stream_items);
    assert!(after.plan_misses >= before.plan_misses);

    // Every distinct query text compiles at most once per cache slot; with
    // 8 threads × 12 rounds over 6 queries the cache must have hits, and
    // hits + misses equals the number of compile requests that went through
    // the cache. (Misses can exceed 6 only through a benign first-use race.)
    let total = after.plan_hits + after.plan_misses;
    assert!(after.plan_hits > 0, "repeated queries should hit the plan cache");
    assert!(after.plan_misses >= WORKLOAD.len() as u64);
    assert!(total >= (THREADS * ROUNDS) as u64, "every query consults the cache");
}

#[test]
fn parallel_strategy_is_itself_thread_safe() {
    // Nested parallelism: concurrent callers each fanning out their own
    // scoped worker threads must not interfere.
    let sdoc = SuccinctDoc::parse(STORE).unwrap();
    let ex = Executor::new(&sdoc).with_strategy(Strategy::Parallel { threads: 2 });
    let want = ex.eval_path_str("//item[price > 10]/name").unwrap();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let ex = &ex;
            let want = &want;
            scope.spawn(move || {
                for _ in 0..ROUNDS {
                    let got = ex.eval_path_str("//item[price > 10]/name").unwrap();
                    assert_eq!(&got, want);
                }
            });
        }
    });
}

#[test]
fn shared_plan_cache_across_executors_and_threads() {
    // The Database arrangement: short-lived executors, one long-lived cache.
    let sdoc = SuccinctDoc::parse(STORE).unwrap();
    let cache = Arc::new(PlanCache::default());
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let sdoc = &sdoc;
            let cache = Arc::clone(&cache);
            scope.spawn(move || {
                for r in 0..ROUNDS {
                    let ex = Executor::new(sdoc).with_plan_cache(Arc::clone(&cache));
                    let (q, want) = WORKLOAD[r % WORKLOAD.len()];
                    assert_eq!(ex.query(q).expect("query evaluates"), want);
                }
            });
        }
    });
    let (hits, misses, _evictions) = cache.stats();
    assert!(hits > 0);
    assert!(misses >= WORKLOAD.len() as u64);
    assert_eq!(hits + misses, (THREADS * ROUNDS) as u64);
}

#[test]
fn threads_racing_the_first_structural_index_build_share_one_result() {
    // A fresh version: nothing built yet. Every thread's first query needs
    // the index (Auto reads statistics, the join strategies read streams).
    let dom = gen_xmark(&XmarkConfig::scale(0.05));
    let version = VersionedDoc::new(SuccinctDoc::from_document(&dom)).snapshot();
    assert!(!version.structural_index().is_built());
    let strategies = [Strategy::Auto, Strategy::TwigStack, Strategy::BinaryJoin];
    let paths: Vec<&str> = xmark_queries().iter().map(|q| q.path).collect();

    // Single-threaded reference over a separate copy of the document.
    let reference = SuccinctDoc::from_document(&dom);
    let want: Vec<Vec<SNodeId>> = paths
        .iter()
        .map(|p| Executor::new(&reference).with_strategy(Strategy::NoK).eval_path_str(p).unwrap())
        .collect();

    let barrier = Barrier::new(THREADS);
    let seen: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (version, barrier, paths, want) = (&version, &barrier, &paths, &want);
                let strategy = strategies[t % strategies.len()];
                scope.spawn(move || {
                    let ex = version.executor().with_strategy(strategy);
                    barrier.wait();
                    // Stagger so threads start on different queries.
                    for k in (0..paths.len()).map(|k| (k + t) % paths.len()) {
                        let got = ex.eval_path_str(paths[k]).expect("path evaluates");
                        assert_eq!(got, want[k], "thread {t} {strategy:?} `{}`", paths[k]);
                    }
                    let streams = ex.context().streams() as *const _ as usize;
                    let stats = ex.context().stats() as *const _ as usize;
                    (streams, stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("reader thread")).collect()
    });
    // One build was published and every thread read that one.
    let first = seen[0];
    assert!(seen.iter().all(|&s| s == first), "threads saw different indexes: {seen:?}");
    assert_eq!(first.0, version.tag_streams() as *const _ as usize);
    assert_eq!(first.1, Arc::as_ptr(&version.statistics()) as usize);
}
