//! Shared fixtures for the experiment benches and the `report` binary.
//!
//! Every experiment (see DESIGN.md §6 and EXPERIMENTS.md) uses the same
//! documents and query sets, built here so the benches and the
//! table-printing harness measure identical work. The [`harness`] module
//! is the std-only stand-in for criterion (the build environment is
//! offline; no registry crates resolve).

pub mod harness;

use std::sync::Arc;
use xqp_exec::{DocVersion, Strategy, VersionedDoc};
use xqp_gen::{gen_xmark, XmarkConfig};
use xqp_storage::SuccinctDoc;
use xqp_xml::Document;

/// The serial physical strategies every comparison sweeps.
pub const STRATEGIES: [Strategy; 4] =
    [Strategy::NoK, Strategy::TwigStack, Strategy::BinaryJoin, Strategy::Naive];

/// Standard XMark document scales for the size sweeps (E5/E6).
pub const SCALES: [f64; 4] = [0.05, 0.1, 0.2, 0.4];

/// Build the stored form of an XMark document at `scale`.
pub fn xmark_at(scale: f64) -> SuccinctDoc {
    SuccinctDoc::from_document(&gen_xmark(&XmarkConfig::scale(scale)))
}

/// Build both the DOM and stored forms (for the update experiment).
pub fn xmark_both(scale: f64) -> (Document, SuccinctDoc) {
    let dom = gen_xmark(&XmarkConfig::scale(scale));
    let sdoc = SuccinctDoc::from_document(&dom);
    (dom, sdoc)
}

/// Wrap `sdoc` as a document version and build its structural index (tag
/// streams + statistics) up front, so timed loops measure evaluation, not
/// index construction. Every strategy run against the returned version
/// shares that one index, as the join baselines assume per-label lists
/// already stored in the database.
pub fn indexed(sdoc: SuccinctDoc) -> Arc<DocVersion> {
    let version = VersionedDoc::new(sdoc).snapshot();
    version.statistics(); // read off the streams, so this builds both
    version
}

/// Run a path query once under one strategy, returning the hit count. The
/// executor reads `doc`'s shared structural index (see [`indexed`]).
pub fn run_path(doc: &DocVersion, strategy: Strategy, path: &str) -> usize {
    doc.executor()
        .with_strategy(strategy)
        .eval_path_str(path)
        .expect("benchmark query evaluates")
        .len()
}

/// Median wall-clock of `iters` runs of `f` (the report binary's measure;
/// criterion handles its own statistics).
pub fn median_time(iters: usize, mut f: impl FnMut()) -> std::time::Duration {
    let mut times: Vec<std::time::Duration> = (0..iters)
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build_and_queries_run() {
        let doc = indexed(xmark_at(0.02));
        for strat in STRATEGIES {
            assert!(run_path(&doc, strat, "//keyword") > 0);
        }
    }
}
