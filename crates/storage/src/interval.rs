//! Region (interval) encoding and per-tag streams.
//!
//! The join-based baselines — binary structural joins, PathStack, TwigStack —
//! all consume, per tag, a document-order stream of `(start, end, level)`
//! regions (Zhang et al. SIGMOD'01; Al-Khalifa et al. ICDE'02). This is
//! exactly what extended-relational systems shred documents into, and the
//! encoding the paper contrasts its succinct scheme against. [`TagStreams`]
//! derives these streams from a [`SuccinctDoc`] once; the operators then
//! never touch the document again.

use crate::succinct::{SNodeId, SuccinctDoc};
use crate::tags::TagId;

/// One element's region: `start < d.start && d.end < end` ⇔ this element is
/// an ancestor of `d`; `level` distinguishes parent-child from
/// ancestor-descendant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Position of the open parenthesis (pre-order).
    pub start: u32,
    /// Position of the matching close parenthesis.
    pub end: u32,
    /// Depth (root element = 1).
    pub level: u32,
    /// The node this region describes.
    pub node: SNodeId,
}

impl Interval {
    /// True if `self` is a proper ancestor of `other`.
    #[inline]
    pub fn contains(&self, other: &Interval) -> bool {
        self.start < other.start && other.end < self.end
    }

    /// True if `self` is the parent of `other`.
    #[inline]
    pub fn is_parent_of(&self, other: &Interval) -> bool {
        self.contains(other) && self.level + 1 == other.level
    }

    /// True if `self` ends before `other` begins (document-order disjoint).
    #[inline]
    pub fn before(&self, other: &Interval) -> bool {
        self.end < other.start
    }
}

/// Per-tag, document-ordered interval lists for a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagStreams {
    /// One list per tag id (`TagId::TEXT`'s stays empty).
    lists: Vec<Vec<Interval>>,
    /// Per tag id: how many of its intervals are attributes (an attribute
    /// and an element of the same name share one tag id and one list).
    attrs: Vec<u32>,
    total: usize,
    attributes: usize,
    max_element_level: u32,
}

/// Stack marker for an open text node (texts get no interval).
const TEXT_SLOT: (u32, u32) = (u32::MAX, 0);

impl TagStreams {
    /// Build streams for all element and attribute tags in `doc` with one
    /// pre-order sweep over the parenthesis words: an open parenthesis
    /// starts the next node's interval, a close writes the `end` of the
    /// innermost open one. The lists are sized exactly by a first pass
    /// over the tag ids, so the sweep never reallocates.
    pub fn build(doc: &SuccinctDoc) -> Self {
        let n_tags = doc.tag_table().len();
        let mut counts = vec![0u32; n_tags];
        for t in doc.raw_tags().iter() {
            counts[t.index()] += 1;
        }
        counts[TagId::TEXT.index()] = 0;
        let mut lists: Vec<Vec<Interval>> =
            counts.iter().map(|&c| Vec::with_capacity(c as usize)).collect();
        let mut attrs = vec![0u32; n_tags];
        let (mut total, mut attributes, mut max_element_level) = (0usize, 0usize, 0u32);

        let mut tags = doc.raw_tags().iter();
        let mut is_attr = doc.raw_is_attr().cursor();
        // (tag, index in its list) per open node, innermost last.
        let mut open: Vec<(u32, u32)> = Vec::new();
        let bits = doc.bp().bits();
        let mut node = 0u32;
        for (wi, word) in bits.iter_words().enumerate() {
            let base = wi * 64;
            for b in 0..(bits.len() - base).min(64) {
                let pos = (base + b) as u32;
                if word >> b & 1 == 1 {
                    let tag = tags.next().expect("one tag id per open parenthesis");
                    if tag == TagId::TEXT {
                        open.push(TEXT_SLOT);
                    } else {
                        let level = open.len() as u32 + 1;
                        let list = &mut lists[tag.index()];
                        open.push((tag.0, list.len() as u32));
                        list.push(Interval { start: pos, end: 0, level, node: SNodeId(node) });
                        total += 1;
                        if is_attr.get(node as usize) {
                            attrs[tag.index()] += 1;
                            attributes += 1;
                        } else {
                            max_element_level = max_element_level.max(level);
                        }
                    }
                    node += 1;
                } else {
                    let (tag, i) = open.pop().expect("balanced parentheses");
                    if tag != TEXT_SLOT.0 {
                        lists[tag as usize][i as usize].end = pos;
                    }
                }
            }
        }
        debug_assert!(open.is_empty() && node as usize == doc.node_count());
        TagStreams { lists, attrs, total, attributes, max_element_level }
    }

    /// The document-ordered stream for `tag` (empty if the tag is absent).
    pub fn stream(&self, tag: TagId) -> &[Interval] {
        self.lists.get(tag.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Stream looked up by tag name through the document's symbol table.
    pub fn stream_by_name<'a>(&'a self, doc: &SuccinctDoc, name: &str) -> &'a [Interval] {
        match doc.tag_table().lookup(name) {
            Some(t) => self.stream(t),
            None => &[],
        }
    }

    /// Every non-empty stream with its tag, in tag-id order.
    pub fn tags(&self) -> impl Iterator<Item = (TagId, &[Interval])> + '_ {
        self.lists
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(t, l)| (TagId(t as u32), l.as_slice()))
    }

    /// All element (`attributes == false`) or all attribute intervals of
    /// the document, in document order: the per-tag lists of that kind
    /// merged by start position.
    pub fn all_of_kind(&self, doc: &SuccinctDoc, attributes: bool) -> Vec<Interval> {
        let mut out = Vec::with_capacity(if attributes {
            self.attributes
        } else {
            self.total - self.attributes
        });
        for (list, &a) in self.lists.iter().zip(&self.attrs) {
            let wanted = if attributes { a as usize } else { list.len() - a as usize };
            match wanted {
                0 => {}
                n if n == list.len() => out.extend_from_slice(list),
                _ => out.extend(
                    list.iter().filter(|iv| doc.raw_is_attr().get(iv.node.index()) == attributes),
                ),
            }
        }
        // Stable sort merges the already-sorted per-tag runs.
        out.sort_by_key(|iv| iv.start);
        out
    }

    /// Total intervals across all streams.
    pub fn total_len(&self) -> usize {
        self.total
    }

    /// Attribute intervals across all streams (the rest are elements).
    pub fn attribute_len(&self) -> usize {
        self.attributes
    }

    /// Level of the deepest element (0 for an empty document).
    pub fn max_element_level(&self) -> u32 {
        self.max_element_level
    }

    /// Number of distinct tags with at least one interval.
    pub fn tag_count(&self) -> usize {
        self.lists.iter().filter(|l| !l.is_empty()).count()
    }

    /// Heap bytes (for the storage-size experiment): each interval costs
    /// 16 bytes — the shredded-relational representation the paper compares
    /// its 2-bits-per-node structure against — plus one list header and one
    /// attribute count per tag.
    pub fn heap_bytes(&self) -> usize {
        self.lists.iter().map(|s| s.capacity() * std::mem::size_of::<Interval>()).sum::<usize>()
            + self.lists.capacity() * std::mem::size_of::<Vec<Interval>>()
            + self.attrs.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "<bib><book year=\"1994\"><title>t1</title><author>a1</author></book><book year=\"2000\"><title>t2</title><author>a2</author><author>a3</author></book></bib>";

    fn setup() -> (SuccinctDoc, TagStreams) {
        let doc = SuccinctDoc::parse(SAMPLE).unwrap();
        let streams = TagStreams::build(&doc);
        (doc, streams)
    }

    #[test]
    fn stream_sizes() {
        let (doc, s) = setup();
        assert_eq!(s.stream_by_name(&doc, "book").len(), 2);
        assert_eq!(s.stream_by_name(&doc, "author").len(), 3);
        assert_eq!(s.stream_by_name(&doc, "year").len(), 2); // attributes too
        assert_eq!(s.stream_by_name(&doc, "absent").len(), 0);
        // 8 elements + 2 attributes
        assert_eq!(s.total_len(), 10);
    }

    #[test]
    fn streams_are_document_ordered() {
        let (doc, s) = setup();
        for name in ["book", "author", "title"] {
            let st = s.stream_by_name(&doc, name);
            assert!(st.windows(2).all(|w| w[0].start < w[1].start), "{name}");
        }
    }

    #[test]
    fn containment_matches_tree() {
        let (doc, s) = setup();
        let books = s.stream_by_name(&doc, "book").to_vec();
        let authors = s.stream_by_name(&doc, "author").to_vec();
        // book1 contains author1 only; book2 contains author2, author3.
        assert!(books[0].contains(&authors[0]));
        assert!(!books[0].contains(&authors[1]));
        assert!(books[1].contains(&authors[1]));
        assert!(books[1].contains(&authors[2]));
        // Cross-check against the tree.
        for b in &books {
            for a in &authors {
                assert_eq!(b.contains(a), doc.is_ancestor(b.node, a.node));
            }
        }
    }

    #[test]
    fn parent_child_needs_level() {
        let (doc, s) = setup();
        let bib = &s.stream_by_name(&doc, "bib")[0];
        let books = s.stream_by_name(&doc, "book");
        let titles = s.stream_by_name(&doc, "title");
        assert!(bib.is_parent_of(&books[0]));
        assert!(bib.contains(&titles[0]));
        assert!(!bib.is_parent_of(&titles[0])); // grandchild
    }

    #[test]
    fn before_relation() {
        let (doc, s) = setup();
        let books = s.stream_by_name(&doc, "book");
        assert!(books[0].before(&books[1]));
        assert!(!books[1].before(&books[0]));
        assert!(!books[0].before(books.first().unwrap()));
    }

    /// The node-by-node construction the sweep replaced: one
    /// `interval` (select + find_close + depth) per element or attribute.
    fn per_node(doc: &SuccinctDoc) -> Vec<Vec<Interval>> {
        let mut lists = vec![Vec::new(); doc.tag_table().len()];
        for n in (0..doc.node_count() as u32).map(SNodeId) {
            if !doc.is_text(n) {
                let (start, end, level) = doc.interval(n);
                lists[doc.tag(n).index()].push(Interval { start, end, level, node: n });
            }
        }
        lists
    }

    #[test]
    fn sweep_matches_per_node_construction() {
        for xml in [
            SAMPLE,
            "<a/>",
            "<a>t</a>",
            "<a x=\"1\"><a x=\"2\">t<x>u</x></a><b><a/></b></a>",
            "<r><d><d><d><d>deep</d></d></d></d><e y=\"\"/></r>",
            "<a><b c=\"1\"/></a>",
        ] {
            let doc = SuccinctDoc::parse(xml).unwrap();
            let s = TagStreams::build(&doc);
            let want = per_node(&doc);
            for (t, list) in want.iter().enumerate() {
                assert_eq!(s.stream(TagId(t as u32)), list.as_slice(), "{xml} tag {t}");
            }
            assert_eq!(s.total_len(), want.iter().map(Vec::len).sum::<usize>(), "{xml}");
            let attrs = (0..doc.node_count() as u32).filter(|&n| doc.is_attribute(SNodeId(n)));
            assert_eq!(s.attribute_len(), attrs.count(), "{xml}");
            let deepest = doc.elements().map(|n| doc.depth(n) as u32).max().unwrap_or(0);
            assert_eq!(s.max_element_level(), deepest, "{xml}");
        }
    }

    #[test]
    fn all_of_kind_merges_in_document_order() {
        // `x` names both an attribute and an element: its list is mixed.
        let doc = SuccinctDoc::parse("<a x=\"1\"><x y=\"2\"/><b x=\"3\">t</b></a>").unwrap();
        let s = TagStreams::build(&doc);
        let elems: Vec<SNodeId> = s.all_of_kind(&doc, false).iter().map(|iv| iv.node).collect();
        assert_eq!(elems, doc.elements().collect::<Vec<_>>());
        let attrs: Vec<SNodeId> = s.all_of_kind(&doc, true).iter().map(|iv| iv.node).collect();
        let want: Vec<SNodeId> =
            (0..doc.node_count() as u32).map(SNodeId).filter(|&n| doc.is_attribute(n)).collect();
        assert_eq!(attrs, want);
        assert_eq!(attrs.len(), 3);
    }

    #[test]
    fn interval_identity_roundtrip() {
        let (doc, s) = setup();
        for st in ["bib", "book", "title", "author", "year"] {
            for iv in s.stream_by_name(&doc, st) {
                let (a, b, l) = doc.interval(iv.node);
                assert_eq!((a, b, l), (iv.start, iv.end, iv.level));
            }
        }
    }
}
