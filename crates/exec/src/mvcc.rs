//! MVCC document versions: snapshot-isolated reads for a serving process.
//!
//! The single-owner `Database` of the early PRs made every reader exclude
//! every writer. This module promotes the generation-stamp idea from
//! `storage::persist` into the in-memory store: a document is a chain of
//! immutable [`DocVersion`]s — succinct structure + content, the optional
//! value/suffix indexes built *for that structure's ranks*, and the lazily
//! built structural index (tag streams + planner statistics) — published
//! through a [`VersionedDoc`] cell.
//!
//! * **Readers** call [`VersionedDoc::snapshot`], a brief read-lock `Arc`
//!   clone, and then run entirely against the captured version. They never
//!   block writers and can never observe a half-applied update: versions
//!   are immutable after publication.
//! * **Writers** build the successor off-line (splices, index rebuilds)
//!   and [`publish`](VersionedDoc) it with one pointer swap under a short
//!   write lock. Writers must be externally serialized per document (the
//!   `Database` holds a per-document writer mutex); the generation stamp is
//!   assigned under the publish lock, so it is monotonic regardless.
//! * **Reclamation** is refcount-based: the cell holds only a `Weak` to
//!   each retired version, so a version's memory is freed the moment its
//!   last reader drops the snapshot `Arc`. [`VersionedDoc::live_versions`]
//!   observes this for tests and server introspection.
//!
//! The compiled-plan cache is deliberately *shared* across versions
//! (`Arc<PlanCache>`): installing a successor does not clear it. Instead
//! every executor built from a snapshot scopes its cache keys by the
//! snapshot's generation ([`Executor::with_cache_scope`]), which
//! logically invalidates old plans — they stop matching and age out via
//! LRU — while a slow reader still holding the previous version keeps
//! hitting its own generation's entries. This also keeps the cache's
//! hit/miss counters continuous across updates, which the plan-cache
//! regression suite pins.

use crate::cache::PlanCache;
use crate::context::StructuralIndex;
use crate::engine::Executor;
use std::sync::{Arc, Mutex, MutexGuard, RwLock, Weak};
use xqp_algebra::DocStatistics;
use xqp_storage::{SuccinctDoc, SuffixIndex, TagStreams, ValueIndex};

/// One immutable published version of a document: structure, content
/// indexes, the structural index and the (shared) plan cache, stamped with
/// the generation at which it was installed.
pub struct DocVersion {
    generation: u64,
    sdoc: Arc<SuccinctDoc>,
    index: Option<Arc<ValueIndex>>,
    suffix: Option<Arc<SuffixIndex>>,
    /// Tag streams and planner statistics, built by the first reader that
    /// needs either and shared by every executor over this version (and by
    /// index-toggle successors, which keep the same structure). Never built
    /// at install or executor creation: readers that only navigate never
    /// pay for it.
    structure: Arc<StructuralIndex>,
    cache: Arc<PlanCache>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DocVersion>();
    assert_send_sync::<VersionedDoc>();
};

impl DocVersion {
    /// The generation this version was installed at (0 for the initial
    /// load; +1 per successful publish).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The succinct document itself.
    pub fn sdoc(&self) -> &SuccinctDoc {
        &self.sdoc
    }

    /// The value (σv) index built for this version, if enabled.
    pub fn value_index(&self) -> Option<&ValueIndex> {
        self.index.as_deref()
    }

    /// The suffix (substring) index built for this version, if enabled.
    pub fn suffix_index(&self) -> Option<&SuffixIndex> {
        self.suffix.as_deref()
    }

    /// Cost-model statistics for this version, derived on first use.
    pub fn statistics(&self) -> Arc<DocStatistics> {
        Arc::clone(self.structure.statistics(&self.sdoc))
    }

    /// The per-tag interval streams of this version, built on first use.
    pub fn tag_streams(&self) -> &TagStreams {
        self.structure.streams(&self.sdoc)
    }

    /// The structural-index slot every executor over this version shares.
    pub fn structural_index(&self) -> &Arc<StructuralIndex> {
        &self.structure
    }

    /// The plan cache shared across this document's versions.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.cache
    }

    /// An executor over this snapshot: document, value index, the shared
    /// structural index and the shared plan cache scoped to this version's
    /// generation. Callers layer strategy / rules / governor on top.
    pub fn executor(&self) -> Executor<'_> {
        self.executor_with_cache(Arc::clone(&self.cache), format!("g{}", self.generation))
    }

    /// Like [`DocVersion::executor`], but against an externally shared
    /// cache (the server's process-wide one) under an explicit scope —
    /// conventionally `"{doc}@g{generation}"`, so documents and
    /// generations never collide in the shared key space.
    pub fn executor_with_cache(
        &self,
        cache: Arc<PlanCache>,
        scope: impl Into<String>,
    ) -> Executor<'_> {
        let mut ex = Executor::new(&self.sdoc)
            .with_structural_index(Arc::clone(&self.structure))
            .with_plan_cache(cache)
            .with_cache_scope(scope);
        if let Some(idx) = &self.index {
            ex = ex.with_index(idx);
        }
        ex
    }
}

/// `document()` callers navigate the snapshot exactly like the raw
/// succinct doc they used to get.
impl std::ops::Deref for DocVersion {
    type Target = SuccinctDoc;

    fn deref(&self) -> &SuccinctDoc {
        &self.sdoc
    }
}

/// The publication cell for one document: the current version behind a
/// short-critical-section `RwLock`, plus weak handles to retired versions
/// so reclamation stays observable without keeping them alive.
pub struct VersionedDoc {
    current: RwLock<Arc<DocVersion>>,
    retired: Mutex<Vec<Weak<DocVersion>>>,
}

impl VersionedDoc {
    /// Wrap an initial document as generation 0, no indexes, fresh cache.
    pub fn new(sdoc: SuccinctDoc) -> Self {
        VersionedDoc {
            current: RwLock::new(Arc::new(DocVersion {
                generation: 0,
                sdoc: Arc::new(sdoc),
                index: None,
                suffix: None,
                structure: Arc::new(StructuralIndex::new()),
                cache: Arc::new(PlanCache::default()),
            })),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Capture the current version. The read lock is held only for the
    /// `Arc` clone; everything after runs lock-free against the snapshot.
    pub fn snapshot(&self) -> Arc<DocVersion> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The current generation.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// Publish `sdoc` as the next version. Indexes present on the current
    /// version are rebuilt for the new ranks *before* the publish lock is
    /// taken, so readers stay unblocked during the rebuild; the plan cache
    /// is carried over (generation scoping invalidates logically).
    pub fn install_document(&self, sdoc: SuccinctDoc) -> Arc<DocVersion> {
        let cur = self.snapshot();
        let sdoc = Arc::new(sdoc);
        let index = cur.index.as_ref().map(|_| Arc::new(ValueIndex::build(&sdoc)));
        let suffix = cur.suffix.as_ref().map(|_| Arc::new(SuffixIndex::build(&sdoc)));
        self.publish(DocVersion {
            generation: 0, // stamped under the publish lock
            sdoc,
            index,
            suffix,
            structure: Arc::new(StructuralIndex::new()),
            cache: Arc::clone(&cur.cache),
        })
    }

    /// Publish a successor that shares the current structure but has the
    /// value index built (`true`) or dropped (`false`). The structural
    /// index slot is shared with the predecessor (same document, built or
    /// not); the generation still bumps, so cached plans recompile and can
    /// pick up (or stop using) σv probes.
    pub fn set_value_index(&self, on: bool) -> Arc<DocVersion> {
        let cur = self.snapshot();
        let index = on.then(|| Arc::new(ValueIndex::build(&cur.sdoc)));
        self.publish(DocVersion {
            generation: 0,
            sdoc: Arc::clone(&cur.sdoc),
            index,
            suffix: cur.suffix.clone(),
            structure: Arc::clone(&cur.structure),
            cache: Arc::clone(&cur.cache),
        })
    }

    /// Publish a successor with the suffix index built or dropped; see
    /// [`VersionedDoc::set_value_index`].
    pub fn set_suffix_index(&self, on: bool) -> Arc<DocVersion> {
        let cur = self.snapshot();
        let suffix = on.then(|| Arc::new(SuffixIndex::build(&cur.sdoc)));
        self.publish(DocVersion {
            generation: 0,
            sdoc: Arc::clone(&cur.sdoc),
            index: cur.index.clone(),
            suffix,
            structure: Arc::clone(&cur.structure),
            cache: Arc::clone(&cur.cache),
        })
    }

    /// Versions still reachable: the current one plus every retired
    /// version some reader still holds. Drops dead weak handles as a side
    /// effect, so a steady state with no readers reports 1.
    pub fn live_versions(&self) -> usize {
        let mut retired = self.retired_list();
        retired.retain(|w| w.strong_count() > 0);
        1 + retired.len()
    }

    fn retired_list(&self) -> MutexGuard<'_, Vec<Weak<DocVersion>>> {
        self.retired.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Swap in `next` under the write lock, stamping its generation, and
    /// retire the displaced version as a weak handle.
    fn publish(&self, mut next: DocVersion) -> Arc<DocVersion> {
        let mut cur = self.current.write().unwrap_or_else(|e| e.into_inner());
        next.generation = cur.generation + 1;
        let next = Arc::new(next);
        let old = std::mem::replace(&mut *cur, Arc::clone(&next));
        drop(cur);
        let mut retired = self.retired_list();
        retired.retain(|w| w.strong_count() > 0);
        retired.push(Arc::downgrade(&old));
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_isolated_from_installs() {
        let v = VersionedDoc::new(SuccinctDoc::parse("<r><a/></r>").unwrap());
        let before = v.snapshot();
        assert_eq!(before.generation(), 0);
        v.install_document(SuccinctDoc::parse("<r><a/><b/></r>").unwrap());
        // The old snapshot still answers from the old structure…
        assert_eq!(before.executor().query("/r/b").unwrap(), "");
        // …while fresh snapshots see the new one, at the next generation.
        let after = v.snapshot();
        assert_eq!(after.generation(), 1);
        assert_eq!(after.executor().query("/r/b").unwrap(), "<b/>");
    }

    #[test]
    fn retired_versions_are_freed_when_the_last_reader_drops() {
        let v = VersionedDoc::new(SuccinctDoc::parse("<r/>").unwrap());
        let held = v.snapshot();
        v.install_document(SuccinctDoc::parse("<r><x/></r>").unwrap());
        v.install_document(SuccinctDoc::parse("<r><x/><y/></r>").unwrap());
        // gen 0 is pinned by `held`; gen 1 had no reader and is gone.
        assert_eq!(v.live_versions(), 2);
        drop(held);
        assert_eq!(v.live_versions(), 1);
    }

    #[test]
    fn index_toggles_share_structure_and_bump_generation() {
        let v = VersionedDoc::new(SuccinctDoc::parse("<r><a>1</a></r>").unwrap());
        let plain = v.snapshot();
        let indexed = v.set_value_index(true);
        assert_eq!(indexed.generation(), 1);
        assert!(indexed.value_index().is_some());
        assert!(std::ptr::eq(plain.sdoc(), indexed.sdoc()), "structure is shared");
        assert!(
            Arc::ptr_eq(plain.structural_index(), indexed.structural_index()),
            "the structural index is shared, built or not"
        );
        assert!(Arc::ptr_eq(&plain.statistics(), &indexed.statistics()), "stats are shared");
        let dropped = v.set_value_index(false);
        assert!(dropped.value_index().is_none());
        assert_eq!(dropped.generation(), 2);
    }

    #[test]
    fn plan_cache_is_shared_and_generation_scoped() {
        let v = VersionedDoc::new(SuccinctDoc::parse("<r><a>1</a></r>").unwrap());
        let g0 = v.snapshot();
        g0.executor().query("/r/a").unwrap();
        g0.executor().query("/r/a").unwrap();
        // Same generation: second run hits.
        assert_eq!(g0.plan_cache().stats(), (1, 1, 0));
        let g1 = v.install_document(SuccinctDoc::parse("<r><a>2</a></r>").unwrap());
        assert!(Arc::ptr_eq(g0.plan_cache(), g1.plan_cache()), "cache is shared");
        // New generation: same text misses (logical invalidation), counters
        // keep accumulating across the install.
        g1.executor().query("/r/a").unwrap();
        assert_eq!(g1.plan_cache().stats(), (1, 2, 0));
        // The old snapshot still hits its own generation's entry.
        g0.executor().query("/r/a").unwrap();
        assert_eq!(g0.plan_cache().stats(), (2, 2, 0));
    }
}
