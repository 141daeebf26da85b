//! E5 — NoK vs. join-based evaluation (the paper's headline comparison,
//! §4.2: "our approach outperforms existing join-based approaches").
//!
//! Six XMark path queries (X1–X6, `xqp_gen::workload`) under all four
//! physical strategies on a fixed-scale document whose tag streams are
//! built once, outside the timed loop.

use std::hint::black_box;
use xqp_bench::harness::{BenchmarkId, Criterion};
use xqp_bench::{criterion_group, criterion_main};
use xqp_bench::{indexed, run_path, xmark_at, STRATEGIES};

fn bench(c: &mut Criterion) {
    // One structural index, built before timing and shared by every
    // strategy: the loops measure evaluation only.
    let doc = indexed(xmark_at(0.2));
    let mut g = c.benchmark_group("E5_nok_vs_join");
    g.sample_size(10);
    for q in xqp_gen::xmark_queries() {
        for strat in STRATEGIES {
            g.bench_with_input(
                BenchmarkId::new(format!("{}_{}", q.id, strat.name()), q.id),
                &q.path,
                |b, path| b.iter(|| black_box(run_path(&doc, strat, path))),
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
