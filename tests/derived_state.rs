//! Derived-state oracle: every document version's structural index (tag
//! streams + planner statistics) must equal a from-scratch rebuild.
//!
//! The index is built lazily, once per `DocVersion`, by one sweep over the
//! balanced parentheses and shared by every executor over that version.
//! These tests check, over an XMark document and after every kind of
//! version install (document install, insert, delete, value and suffix
//! index toggles):
//!
//! * the streams equal the node-by-node construction through
//!   `SuccinctDoc::interval` (the loop the sweep replaced, kept here as the
//!   oracle), and the statistics equal the old per-node derivation;
//! * every executor of one generation reads one shared slot (`Arc::ptr_eq`);
//! * installing a version builds nothing, and a retired version's index is
//!   freed once its last snapshot is dropped;
//! * the sweep gives the same answer over paged bits behind a tiny pool.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use xqp::exec::context::statistics_of;
use xqp::{Database, DocStatistics};
use xqp_exec::{DocVersion, PlanCache, Strategy, VersionedDoc};
use xqp_gen::{gen_xmark, XmarkConfig};
use xqp_storage::{update, Interval, SNodeId, SuccinctDoc, TagId};
use xqp_xml::serialize;

fn xmark_xml(scale: f64) -> String {
    serialize(&gen_xmark(&XmarkConfig::scale(scale)))
}

/// Oracle for the streams: one `interval` (select + find_close + depth)
/// per element or attribute, grouped by tag id in document order.
fn reference_streams(sdoc: &SuccinctDoc) -> Vec<Vec<Interval>> {
    let mut lists = vec![Vec::new(); sdoc.tag_table().len()];
    for n in (0..sdoc.node_count() as u32).map(SNodeId) {
        if sdoc.is_text(n) {
            continue;
        }
        let (start, end, level) = sdoc.interval(n);
        lists[sdoc.tag(n).index()].push(Interval { start, end, level, node: n });
    }
    lists
}

/// Oracle for the statistics: the per-node derivation the planner used
/// before the sweep (one name lookup per element or attribute).
fn reference_stats(sdoc: &SuccinctDoc) -> DocStatistics {
    let mut tag_counts = HashMap::new();
    let mut elements = 0usize;
    let mut max_depth = 0usize;
    for n in (0..sdoc.node_count() as u32).map(SNodeId) {
        if sdoc.is_text(n) {
            continue;
        }
        if sdoc.is_element(n) {
            elements += 1;
            max_depth = max_depth.max(sdoc.depth(n));
        }
        *tag_counts.entry(sdoc.name(n).to_string()).or_insert(0) += 1;
    }
    DocStatistics::from_counts(sdoc.node_count(), elements, tag_counts, max_depth)
}

/// The version's derived state equals a from-scratch rebuild.
fn assert_fresh(v: &DocVersion, what: &str) {
    let sdoc = v.sdoc();
    let want = reference_streams(sdoc);
    let got = v.tag_streams();
    for (t, list) in want.iter().enumerate() {
        let tag = TagId(t as u32);
        assert_eq!(
            got.stream(tag),
            list.as_slice(),
            "{what}: stream of `{}` differs from the per-node rebuild",
            sdoc.tag_table().name(tag)
        );
    }
    assert_eq!(got.total_len(), want.iter().map(Vec::len).sum::<usize>(), "{what}");
    let stats = reference_stats(sdoc);
    assert_eq!(*v.statistics(), stats, "{what}: version statistics");
    assert_eq!(statistics_of(sdoc), stats, "{what}: statistics_of");
}

/// Every executor built over the current generation reads one slot.
fn assert_one_slot_per_generation(db: &Database, what: &str) {
    let a = db.document("doc").unwrap();
    let b = db.document("doc").unwrap();
    assert_eq!(a.generation(), b.generation());
    let slot = a.structural_index();
    let cache = Arc::new(PlanCache::default());
    let executors = [
        a.executor(),
        b.executor(),
        b.executor().with_strategy(Strategy::TwigStack),
        a.executor_with_cache(cache, "doc@shared"),
    ];
    for ex in &executors {
        assert!(Arc::ptr_eq(ex.context().structural_index(), slot), "{what}");
    }
}

/// Installing a version (and building executors over it) builds nothing.
fn assert_unbuilt(db: &Database, what: &str) {
    let v = db.document("doc").unwrap();
    let _ex = v.executor();
    assert!(!v.structural_index().is_built(), "{what}: built at install or executor creation");
}

/// One named version install.
type Step = (&'static str, fn(&Database));

#[test]
fn every_install_kind_leaves_a_fresh_lazily_built_index() {
    let db = Database::new();
    db.load_str("doc", &xmark_xml(0.1)).unwrap();
    assert_unbuilt(&db, "load");
    assert_fresh(&db.document("doc").unwrap(), "load");
    assert_one_slot_per_generation(&db, "load");

    let steps: [Step; 7] = [
        ("insert", |db| {
            // Deeper than any XMark element, with an attribute one level
            // below the deepest element: `max_depth` counts elements only.
            let deep = "<watch a=\"1\"><x><y><z><w><v><u><t><s k=\"deep\">new</s></t></u>\
                        </v></w></z></y></x></watch>";
            assert_eq!(db.insert_into("doc", "/site/people/person[1]", deep).unwrap(), 1);
        }),
        ("value index on", |db| db.create_index("doc").unwrap()),
        ("multi insert", |db| {
            let n = db.insert_into("doc", "//open_auction", "<note>n</note>").unwrap();
            assert!(n > 1);
        }),
        ("suffix index on", |db| db.create_suffix_index("doc").unwrap()),
        ("delete", |db| {
            assert!(db.delete_matching("doc", "//watch").unwrap() >= 1);
        }),
        ("value index off", |db| db.drop_index("doc").unwrap()),
        ("multi delete", |db| {
            assert!(db.delete_matching("doc", "//note").unwrap() > 1);
        }),
    ];
    for (what, step) in steps {
        let before = db.document("doc").unwrap();
        before.tag_streams();
        step(&db);
        let after = db.document("doc").unwrap();
        assert_eq!(after.generation(), before.generation() + 1, "{what}");
        if Arc::ptr_eq(before.structural_index(), after.structural_index()) {
            // Index toggles keep the structure, so they keep its index.
            assert!(std::ptr::eq(before.sdoc(), after.sdoc()), "{what}");
        } else {
            assert_unbuilt(&db, what);
        }
        drop((before, after));
        assert_fresh(&db.document("doc").unwrap(), what);
        assert_one_slot_per_generation(&db, what);
        // The streams answer queries: join strategies agree with NoK.
        let nok = db.select("doc", "//person[watch]/name").unwrap();
        let v = db.document("doc").unwrap();
        for s in [Strategy::TwigStack, Strategy::BinaryJoin] {
            assert_eq!(
                v.executor().with_strategy(s).eval_path_str("//person[watch]/name").unwrap(),
                nok,
                "{what}: {s:?}"
            );
        }
    }
}

#[test]
fn install_document_versions_build_and_free_their_own_index() {
    let base = SuccinctDoc::parse(&xmark_xml(0.1)).unwrap();
    let cell = VersionedDoc::new(base);
    let g0 = cell.snapshot();
    assert_fresh(&g0, "generation 0");
    let weak = Arc::downgrade(g0.structural_index());

    // An install splices a new structure: a new, unbuilt slot.
    let person = g0.executor().eval_path_str("/site/people/person").unwrap()[0];
    let frag = xqp_xml::parse_document("<fresh><a>1</a></fresh>").unwrap();
    let spliced = update::insert_subtree(g0.sdoc(), person, &frag).unwrap();
    let g1 = cell.install_document(spliced);
    assert!(!g1.structural_index().is_built());
    assert!(!Arc::ptr_eq(g0.structural_index(), g1.structural_index()));
    assert_fresh(&g1, "generation 1");

    // Toggles share the slot with their predecessor.
    let g2 = cell.set_value_index(true);
    assert!(Arc::ptr_eq(g1.structural_index(), g2.structural_index()));

    // The retired generation's index lives exactly as long as a snapshot
    // of it does.
    assert!(weak.upgrade().is_some(), "g0 is still held");
    drop(g0);
    assert!(weak.upgrade().is_none(), "g0's index outlived its last snapshot");

    // A toggle's shared slot is freed only when every version using it is.
    let weak1 = Arc::downgrade(g1.structural_index());
    let g3 = cell.install_document(SuccinctDoc::parse("<site/>").unwrap());
    drop((g1, g2));
    assert!(weak1.upgrade().is_none(), "g1/g2's shared index outlived its versions");
    assert_fresh(&g3, "generation 3");
    assert_eq!(cell.live_versions(), 1);
}

#[test]
fn retired_database_version_frees_its_index() {
    let db = Database::new();
    db.load_str("doc", &xmark_xml(0.1)).unwrap();
    let old = db.document("doc").unwrap();
    db.query("doc", "//item[mailbox/mail]//keyword").unwrap();
    assert!(old.structural_index().is_built(), "a reader needing streams builds the index");
    let weak = Arc::downgrade(old.structural_index());
    db.insert_into("doc", "/site", "<extra/>").unwrap();
    assert!(weak.upgrade().is_some());
    drop(old);
    assert!(weak.upgrade().is_none(), "retired index outlived its last snapshot");
    assert_eq!(db.live_versions("doc").unwrap(), 1);
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xqp-derived-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sweep_over_paged_bits_behind_a_tiny_pool_matches_the_oracle() {
    let dir = tmp("paged");
    let xml = xmark_xml(0.1);
    let mut db = Database::new();
    db.set_buffer_pool(8);
    db.load_str("doc", &xml).unwrap();
    db.persist_to(&dir).unwrap();
    drop(db);

    let pooled = Database::open_with_buffer(&dir, 4).unwrap();
    let v = pooled.document("doc").unwrap();
    assert!(v.sdoc().is_paged(), "the reopened document must be paged");
    assert_fresh(&v, "paged");
    let resident = SuccinctDoc::parse(&xml).unwrap();
    assert_eq!(v.tag_streams(), &xqp_storage::TagStreams::build(&resident));
    let pool = pooled.buffer_stats().unwrap();
    assert!(pool.resident_peak <= 4, "{pool:?}");
    drop((v, pooled));
    let _ = std::fs::remove_dir_all(&dir);
}
