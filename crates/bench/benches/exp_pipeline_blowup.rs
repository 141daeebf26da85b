//! E4 — the pipelined-navigation blow-up (paper §3.2 / Gottlob et al. [4]).
//!
//! On a chain document of depth d, the query family
//! `//a[b and .//a[b and …]]` costs Θ(dⁿ) under naive pipelined navigation
//! (predicates re-evaluated per context) but one linear scan under τ.
//! Criterion sweeps the query size n; the naive series grows geometrically
//! while the NoK series stays flat.

use std::hint::black_box;
use xqp_bench::harness::{BenchmarkId, Criterion};
use xqp_bench::{criterion_group, criterion_main};
use xqp_bench::{indexed, run_path};
use xqp_exec::Strategy;
use xqp_gen::{blowup_doc, blowup_query};
use xqp_storage::SuccinctDoc;

fn bench(c: &mut Criterion) {
    let depth = 12;
    let doc = indexed(SuccinctDoc::from_document(&blowup_doc(depth)));
    let mut g = c.benchmark_group("E4_pipeline_blowup");
    g.sample_size(10);
    for n in [2usize, 3, 4, 5] {
        let q = blowup_query(n);
        g.bench_with_input(BenchmarkId::new("naive", n), &q, |b, q| {
            b.iter(|| black_box(run_path(&doc, Strategy::Naive, q)))
        });
        g.bench_with_input(BenchmarkId::new("nok_tpm", n), &q, |b, q| {
            b.iter(|| black_box(run_path(&doc, Strategy::NoK, q)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
