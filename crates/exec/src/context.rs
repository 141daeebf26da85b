//! Execution context, node references and runtime values.

use crate::governor::ResourceGovernor;
use crate::physical::EvalError;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use xqp_algebra::{DocStatistics, Item, Sequence};
use xqp_storage::{SNodeId, SuccinctDoc, TagStreams, ValueIndex};
use xqp_xml::{Atomic, Document, NodeId};

/// A reference to a node: either in the stored (succinct) document or in the
/// executor's output arena (a node built by a constructor).
///
/// Ordering is document order, with all stored nodes before all built nodes
/// (constructed trees have implementation-defined order; this one is stable
/// and total).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeRef {
    /// A node of the queried document.
    Stored(SNodeId),
    /// A node in the output arena.
    Built(NodeId),
}

/// A runtime value: a flat sequence of items over [`NodeRef`]s.
pub type Val = Sequence<NodeRef>;

/// Runtime failure (unknown function, type error, unsupported form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XqError(pub String);

impl XqError {
    /// Build from anything stringy.
    pub fn new(msg: impl Into<String>) -> Self {
        XqError(msg.into())
    }

    /// Did this error originate from a resource-governor limit trip
    /// (deadline, memory budget, row cap, or cancellation)? The check is on
    /// the stable `"resource governor"` message marker, so it survives the
    /// flattening from [`EvalError`] and any diagnostic decoration the
    /// engine adds on top.
    pub fn is_resource_limit(&self) -> bool {
        self.0.contains("resource governor")
    }
}

impl fmt::Display for XqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.0)
    }
}

impl std::error::Error for XqError {}

/// Work counters, the timing-independent effort measure the experiments use
/// (node visits survive machine noise; wall-clock comes from the bench
/// harness).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Document nodes touched by navigation/scans.
    pub nodes_visited: u64,
    /// Intervals consumed by join-based operators.
    pub stream_items: u64,
    /// Binary structural joins performed.
    pub structural_joins: u64,
    /// Compiled plans served from the plan cache.
    pub plan_hits: u64,
    /// Queries that had to be compiled from scratch.
    pub plan_misses: u64,
    /// Compiled plans evicted to stay within cache capacity.
    pub plan_evictions: u64,
    /// Bytes written by the persistence layer (snapshots + WAL records);
    /// zero unless the document has a durable store attached.
    pub persist_bytes_written: u64,
    /// WAL records replayed when the durable store was opened.
    pub persist_records_replayed: u64,
    /// Log compactions performed by the durable store.
    pub persist_compactions: u64,
    /// WAL group commits (batched-fsync `log_batch` calls).
    pub persist_group_commits: u64,
    /// WAL records written through group commits.
    pub persist_group_records: u64,
    /// Largest single group-commit batch.
    pub persist_group_max_batch: u64,
    /// Buffer-pool fetches served from a resident page frame; zero unless
    /// the database serves paged documents through a pool.
    pub buffer_hits: u64,
    /// Buffer-pool fetches that had to read the page from disk.
    pub buffer_misses: u64,
    /// Page frames dropped by the pool's clock sweep.
    pub buffer_evictions: u64,
    /// High-water mark of simultaneously pinned page frames.
    pub buffer_pinned_peak: u64,
    /// Rows (total bindings) emitted by physical operators.
    pub phys_rows: u64,
    /// Batches pulled through the physical pipeline.
    pub phys_batches: u64,
    /// High-water mark of simultaneously-live intermediate bindings — the
    /// memory-shaped number experiment E16 compares between the streaming
    /// pipeline and the materializing interpreter.
    pub peak_bindings: u64,
    /// Cooperative resource-governor checks performed; zero when no governor
    /// was attached.
    pub governor_checks: u64,
    /// Governor limit trips recorded (sticky: 0 or 1 per governed query).
    pub governor_trips: u64,
}

/// Shared counter storage. Relaxed atomics: every counter is an independent
/// monotone tally — threads never coordinate through them, we only need each
/// increment to land exactly once.
#[derive(Default)]
struct CounterCells {
    nodes_visited: AtomicU64,
    stream_items: AtomicU64,
    structural_joins: AtomicU64,
    phys_rows: AtomicU64,
    phys_batches: AtomicU64,
    /// Gauge of currently-live intermediate bindings (not a snapshot field —
    /// only its high-water mark is reported).
    live_bindings: AtomicU64,
    peak_bindings: AtomicU64,
}

/// The structural index of one document version: the per-tag interval
/// lists the join operators read and the planner statistics derived from
/// them. Both are built on first use — the lists by one sweep over the
/// parentheses, the statistics from the lists — and an `Arc` of the slot is
/// shared by every context over the same document version, so readers pay
/// the build once per version, not once per request.
#[derive(Debug, Default)]
pub struct StructuralIndex {
    streams: OnceLock<TagStreams>,
    stats: OnceLock<Arc<DocStatistics>>,
}

impl StructuralIndex {
    /// An empty slot; nothing is built until a reader asks.
    pub fn new() -> Self {
        StructuralIndex::default()
    }

    /// The tag streams of `sdoc`, built on first use. `sdoc` must be the
    /// document this slot was created for.
    pub fn streams(&self, sdoc: &SuccinctDoc) -> &TagStreams {
        self.streams.get_or_init(|| TagStreams::build(sdoc))
    }

    /// The planner statistics of `sdoc`, derived from its streams on first
    /// use (building the streams if no reader has yet).
    pub fn statistics(&self, sdoc: &SuccinctDoc) -> &Arc<DocStatistics> {
        self.stats.get_or_init(|| Arc::new(statistics_from(sdoc, self.streams(sdoc))))
    }

    /// True once the streams have been built.
    pub fn is_built(&self) -> bool {
        self.streams.get().is_some()
    }
}

/// Everything evaluation needs: the stored document, optional indexes,
/// the (possibly shared) structural index and the output arena.
///
/// `Send + Sync`: the stored document and indexes are shared immutable
/// borrows, the structural index is built behind `OnceLock`s, counters are
/// atomics, and the output arena sits behind a `Mutex` — so one context can
/// be shared by the scoped worker threads of [`crate::parallel`] and by
/// callers running whole queries from multiple threads.
pub struct ExecContext<'a> {
    /// The queried document in succinct storage.
    pub sdoc: &'a SuccinctDoc,
    /// Optional content index (σv pushdown probes it).
    pub index: Option<&'a ValueIndex>,
    structure: Arc<StructuralIndex>,
    built: Mutex<Document>,
    counters: CounterCells,
    governor: Option<Arc<ResourceGovernor>>,
}

// Compile-time proof that the context (and hence the executor) can cross
// threads; if a non-Sync field sneaks back in, this fails to build.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ExecContext<'_>>();
};

impl<'a> ExecContext<'a> {
    /// Create a context over a stored document with a private structural
    /// index. Statistics and tag streams are built lazily — query setup
    /// must not pay O(n) unless the cost model or a join-based operator
    /// actually runs.
    pub fn new(sdoc: &'a SuccinctDoc) -> Self {
        ExecContext {
            sdoc,
            index: None,
            structure: Arc::new(StructuralIndex::new()),
            built: Mutex::new(Document::new()),
            counters: CounterCells::default(),
            governor: None,
        }
    }

    /// Cardinality statistics (derived from the structural index on first
    /// use).
    pub fn stats(&self) -> &DocStatistics {
        self.structure.statistics(self.sdoc)
    }

    /// Attach a value index.
    pub fn with_index(mut self, index: &'a ValueIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Read the structural index from a shared slot (one per document
    /// version) instead of a private one. The slot must have been created
    /// for this context's document.
    pub fn with_structural_index(mut self, structure: Arc<StructuralIndex>) -> Self {
        self.structure = structure;
        self
    }

    /// The structural index slot this context reads.
    pub fn structural_index(&self) -> &Arc<StructuralIndex> {
        &self.structure
    }

    /// The tag streams, built on first use (join-based operators only).
    pub fn streams(&self) -> &TagStreams {
        self.structure.streams(self.sdoc)
    }

    // ---- resource governor --------------------------------------------------

    /// Attach a per-query resource governor; every cooperative check point
    /// in the evaluation paths consults it through this context.
    pub fn with_governor(mut self, governor: Arc<ResourceGovernor>) -> Self {
        self.governor = Some(governor);
        self
    }

    /// The attached governor, if any.
    pub fn governor(&self) -> Option<&Arc<ResourceGovernor>> {
        self.governor.as_ref()
    }

    /// Cooperative governor check against the current live-binding gauge.
    /// One `Option` test when ungoverned.
    #[inline]
    pub fn governor_check(&self) -> Result<(), EvalError> {
        match &self.governor {
            None => Ok(()),
            Some(g) => g.check(self.counters.live_bindings.load(Ordering::Relaxed)),
        }
    }

    /// Governor check against the live gauge **plus** `extra` transient
    /// bindings the caller is holding (a materialized environment, a τ
    /// expansion stack) — the governor-facing twin of
    /// [`Self::bindings_pulse`].
    #[inline]
    pub fn governor_check_mem(&self, extra: u64) -> Result<(), EvalError> {
        match &self.governor {
            None => Ok(()),
            Some(g) => g.check(self.counters.live_bindings.load(Ordering::Relaxed) + extra),
        }
    }

    /// Polling form for loops that cannot return `Result` (the sweep
    /// function pointers shared with the parallel partitioner). `true` means
    /// stop early with partial state; the sticky trip is re-raised by the
    /// next `Result`-bearing check.
    #[inline]
    pub fn governor_should_stop(&self) -> bool {
        match &self.governor {
            None => false,
            Some(g) => g.should_stop(self.counters.live_bindings.load(Ordering::Relaxed)),
        }
    }

    /// Account `n` emitted result items against the governor's row cap.
    #[inline]
    pub fn governor_note_rows(&self, n: u64) -> Result<(), EvalError> {
        match &self.governor {
            None => Ok(()),
            Some(g) => g.note_rows(n),
        }
    }

    /// Enforce the row cap against the final, absolute result size (no
    /// accumulation — safe after streaming paths already noted their rows).
    #[inline]
    pub fn governor_check_total_rows(&self, total: u64) -> Result<(), EvalError> {
        match &self.governor {
            None => Ok(()),
            Some(g) => g.check_total_rows(total),
        }
    }

    /// Count `n` node visits.
    #[inline]
    pub fn visit(&self, n: u64) {
        self.counters.nodes_visited.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` stream items consumed.
    #[inline]
    pub fn consume_stream(&self, n: u64) {
        self.counters.stream_items.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one structural join.
    #[inline]
    pub fn count_join(&self) {
        self.counters.structural_joins.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` rows emitted by a physical operator.
    #[inline]
    pub fn count_phys_rows(&self, n: u64) {
        self.counters.phys_rows.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one batch pulled through the physical pipeline.
    #[inline]
    pub fn count_phys_batch(&self) {
        self.counters.phys_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Register `n` intermediate bindings becoming live, updating the
    /// high-water mark. Pair with [`Self::bindings_dead`].
    #[inline]
    pub fn bindings_live(&self, n: u64) {
        let now = self.counters.live_bindings.fetch_add(n, Ordering::Relaxed) + n;
        self.counters.peak_bindings.fetch_max(now, Ordering::Relaxed);
    }

    /// Register `n` intermediate bindings going dead (consumed/dropped).
    #[inline]
    pub fn bindings_dead(&self, n: u64) {
        self.counters.live_bindings.fetch_sub(n, Ordering::Relaxed);
    }

    /// Register `n` bindings transiently live on top of the long-lived ones
    /// (a batch in flight, a materialized clause output): bumps the
    /// high-water mark without moving the live gauge.
    #[inline]
    pub fn bindings_pulse(&self, n: u64) {
        let now = self.counters.live_bindings.load(Ordering::Relaxed) + n;
        self.counters.peak_bindings.fetch_max(now, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn counters(&self) -> ExecCounters {
        let gov = self.governor.as_ref().map(|g| g.stats()).unwrap_or_default();
        ExecCounters {
            nodes_visited: self.counters.nodes_visited.load(Ordering::Relaxed),
            stream_items: self.counters.stream_items.load(Ordering::Relaxed),
            structural_joins: self.counters.structural_joins.load(Ordering::Relaxed),
            phys_rows: self.counters.phys_rows.load(Ordering::Relaxed),
            phys_batches: self.counters.phys_batches.load(Ordering::Relaxed),
            peak_bindings: self.counters.peak_bindings.load(Ordering::Relaxed),
            governor_checks: gov.checks,
            governor_trips: gov.trips,
            ..ExecCounters::default()
        }
    }

    /// Reset the counters (between measured runs).
    pub fn reset_counters(&self) {
        self.counters.nodes_visited.store(0, Ordering::Relaxed);
        self.counters.stream_items.store(0, Ordering::Relaxed);
        self.counters.structural_joins.store(0, Ordering::Relaxed);
        self.counters.phys_rows.store(0, Ordering::Relaxed);
        self.counters.phys_batches.store(0, Ordering::Relaxed);
        self.counters.live_bindings.store(0, Ordering::Relaxed);
        self.counters.peak_bindings.store(0, Ordering::Relaxed);
    }

    // ---- output arena -------------------------------------------------------

    /// Run `f` with mutable access to the output arena.
    ///
    /// The arena lock is held only for the duration of `f`; do not call
    /// [`Self::with_built`]/[`Self::with_built_mut`] re-entrantly from `f`.
    pub fn with_built_mut<T>(&self, f: impl FnOnce(&mut Document) -> T) -> T {
        f(&mut self.built.lock().expect("built arena poisoned"))
    }

    /// Run `f` with shared access to the output arena.
    pub fn with_built<T>(&self, f: impl FnOnce(&Document) -> T) -> T {
        f(&self.built.lock().expect("built arena poisoned"))
    }

    // ---- node accessors (dispatch over NodeRef) ------------------------------

    /// XPath string value of a node.
    pub fn string_value(&self, n: NodeRef) -> String {
        match n {
            NodeRef::Stored(s) => self.sdoc.string_value(s),
            NodeRef::Built(b) => self.with_built(|d| d.string_value(b)),
        }
    }

    /// Atomized value of a node: **untyped** (a string), per the XQuery data
    /// model — comparisons and arithmetic promote it as needed. Eagerly
    /// typing here would corrupt string contexts (`"11e1"` is not `110`).
    pub fn typed_value(&self, n: NodeRef) -> Atomic {
        Atomic::Str(self.string_value(n))
    }

    /// Element/attribute name, if any.
    pub fn name_of(&self, n: NodeRef) -> Option<String> {
        match n {
            NodeRef::Stored(s) => {
                if self.sdoc.is_text(s) {
                    None
                } else {
                    Some(self.sdoc.name(s).to_string())
                }
            }
            NodeRef::Built(b) => self.with_built(|d| d.name(b).map(|q| q.as_lexical())),
        }
    }

    /// True if the node is an element.
    pub fn is_element(&self, n: NodeRef) -> bool {
        match n {
            NodeRef::Stored(s) => self.sdoc.is_element(s),
            NodeRef::Built(b) => self.with_built(|d| d.is_element(b)),
        }
    }

    /// Atomize a whole sequence (nodes → typed values, atoms pass through).
    pub fn atomize(&self, v: &Val) -> Vec<Atomic> {
        v.iter()
            .map(|item| match item {
                Item::Node(n) => self.typed_value(*n),
                Item::Atom(a) => a.clone(),
            })
            .collect()
    }
}

/// Derive cost-model statistics for a document: one sweep builds its tag
/// streams, and the statistics are read off them.
/// Database paths get them from the version's shared [`StructuralIndex`]
/// instead, which keeps the streams for the join operators.
pub fn statistics_of(sdoc: &SuccinctDoc) -> DocStatistics {
    statistics_from(sdoc, &TagStreams::build(sdoc))
}

/// Statistics from already-built streams: a tag's count is its stream's
/// length, elements are the intervals that are not attributes, and the
/// maximum depth is the deepest element's level.
fn statistics_from(sdoc: &SuccinctDoc, streams: &TagStreams) -> DocStatistics {
    let tag_counts =
        streams.tags().map(|(t, s)| (sdoc.tag_table().name(t).to_string(), s.len())).collect();
    DocStatistics::from_counts(
        sdoc.node_count(),
        streams.total_len() - streams.attribute_len(),
        tag_counts,
        streams.max_element_level() as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_doc() -> SuccinctDoc {
        SuccinctDoc::parse("<a x=\"1\"><b>7</b><c>hi</c></a>").unwrap()
    }

    #[test]
    fn noderef_ordering_stored_before_built() {
        assert!(NodeRef::Stored(SNodeId(100)) < NodeRef::Built(NodeId(0)));
        assert!(NodeRef::Stored(SNodeId(1)) < NodeRef::Stored(SNodeId(2)));
        assert!(NodeRef::Built(NodeId(1)) < NodeRef::Built(NodeId(2)));
    }

    #[test]
    fn context_accessors() {
        let sdoc = ctx_doc();
        let ctx = ExecContext::new(&sdoc);
        let root = NodeRef::Stored(sdoc.root().unwrap());
        assert_eq!(ctx.string_value(root), "7hi");
        assert_eq!(ctx.name_of(root), Some("a".into()));
        assert!(ctx.is_element(root));
    }

    #[test]
    fn built_nodes_work_too() {
        let sdoc = ctx_doc();
        let ctx = ExecContext::new(&sdoc);
        let built = ctx.with_built_mut(|d| {
            let root = d.root();
            let el = d.append_element(root, "out");
            d.append_text(el, "42");
            el
        });
        let r = NodeRef::Built(built);
        assert_eq!(ctx.string_value(r), "42");
        assert_eq!(ctx.typed_value(r), Atomic::Str("42".into()));
        assert_eq!(ctx.name_of(r), Some("out".into()));
    }

    #[test]
    fn statistics_derived_from_storage() {
        let sdoc = ctx_doc();
        let ctx = ExecContext::new(&sdoc);
        assert_eq!(ctx.stats().tag_count("b"), 1);
        assert_eq!(ctx.stats().tag_count("x"), 1);
        assert_eq!(ctx.stats().tag_count("*"), 3);
        assert!(ctx.stats().max_depth >= 2);
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let sdoc = ctx_doc();
        let ctx = ExecContext::new(&sdoc);
        ctx.visit(5);
        ctx.count_join();
        ctx.consume_stream(3);
        let c = ctx.counters();
        assert_eq!(c.nodes_visited, 5);
        assert_eq!(c.structural_joins, 1);
        assert_eq!(c.stream_items, 3);
        ctx.reset_counters();
        assert_eq!(ctx.counters(), ExecCounters::default());
    }

    #[test]
    fn binding_gauge_tracks_high_water_mark() {
        let sdoc = ctx_doc();
        let ctx = ExecContext::new(&sdoc);
        ctx.bindings_live(10);
        ctx.bindings_live(5);
        ctx.bindings_dead(12);
        ctx.bindings_live(2);
        let c = ctx.counters();
        assert_eq!(c.peak_bindings, 15, "peak is the max of the live gauge");
        ctx.count_phys_rows(7);
        ctx.count_phys_batch();
        let c = ctx.counters();
        assert_eq!(c.phys_rows, 7);
        assert_eq!(c.phys_batches, 1);
        ctx.reset_counters();
        assert_eq!(ctx.counters(), ExecCounters::default());
    }

    #[test]
    fn shared_structural_index_is_built_once() {
        let sdoc = ctx_doc();
        let slot = Arc::new(StructuralIndex::new());
        let a = ExecContext::new(&sdoc).with_structural_index(Arc::clone(&slot));
        let b = ExecContext::new(&sdoc).with_structural_index(Arc::clone(&slot));
        assert!(!slot.is_built(), "creating contexts builds nothing");
        assert_eq!(a.stats().tag_count("b"), 1);
        assert!(slot.is_built(), "statistics come from the streams");
        assert!(std::ptr::eq(a.streams(), b.streams()));
        assert!(std::ptr::eq(a.stats(), b.stats()));
    }

    #[test]
    fn streams_built_lazily() {
        let sdoc = ctx_doc();
        let ctx = ExecContext::new(&sdoc);
        let s = ctx.streams();
        assert!(s.total_len() > 0);
    }

    #[test]
    fn atomize_mixed_sequence() {
        let sdoc = ctx_doc();
        let ctx = ExecContext::new(&sdoc);
        let b = sdoc.child_elements(sdoc.root().unwrap()).next().unwrap();
        let v: Val = vec![Item::Node(NodeRef::Stored(b)), Item::Atom(Atomic::Str("x".into()))];
        let atoms = ctx.atomize(&v);
        assert_eq!(atoms, vec![Atomic::Str("7".into()), Atomic::Str("x".into())]);
    }
}
