//! E6 — scalability: evaluation time vs. document size for a fixed query
//! set. The NoK scan must grow linearly with the document (§4.2's
//! single-scan claim); the holistic join grows with its streams.

use std::hint::black_box;
use xqp_bench::harness::{BenchmarkId, Criterion, Throughput};
use xqp_bench::{criterion_group, criterion_main};
use xqp_bench::{indexed, run_path, xmark_at, SCALES};
use xqp_exec::Strategy;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("E6_scalability");
    g.sample_size(10);
    for scale in SCALES {
        let doc = indexed(xmark_at(scale));
        g.throughput(Throughput::Elements(doc.node_count() as u64));
        for (name, strat) in [
            ("nok", Strategy::NoK),
            ("twig", Strategy::TwigStack),
            ("parallel", Strategy::Parallel { threads: 0 }),
        ] {
            g.bench_with_input(BenchmarkId::new(name, format!("scale{scale}")), &doc, |b, doc| {
                b.iter(|| {
                    black_box(run_path(doc, strat, "//open_auction[bidder/increase > 20]/reserve"))
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
