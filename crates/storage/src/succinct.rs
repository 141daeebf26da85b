//! The succinct document: structure + tags + content, stored separately.
//!
//! A [`SuccinctDoc`] is the paper's physical representation (§4.2):
//!
//! * structure: a balanced-parentheses sequence over **element, attribute and
//!   text nodes** in pre-order ([`Bp`], 2 bits/node + o(n) directories);
//! * schema: one [`TagId`] per node (attribute nodes carry their attribute
//!   name; text nodes carry the reserved [`TagId::TEXT`]);
//! * content: text/attribute data in a [`ContentStore`], located via a
//!   `has_content` bit vector whose rank gives the content rank — so
//!   structure scans never touch variable-length data.
//!
//! Nodes are addressed by [`SNodeId`], the pre-order rank; comparing two ids
//! compares document order. Attribute nodes are stored as the leading
//! children of their element, preserving the XPath document-order rule.
//!
//! Comments and processing instructions are not stored: the query subset
//! under study never addresses them, and dropping them keeps the structure
//! regular (this is the same simplification the original system makes).

use crate::bitvec::BitVec;
use crate::bp::Bp;
use crate::content::ContentStore;
use crate::tags::{TagId, TagTable, TagVec};
use std::borrow::Cow;
use std::fmt;
use xqp_xml::{Atomic, Document, Event, NodeId, NodeKind};

/// Pre-order rank of a stored node. Ordering is document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SNodeId(pub u32);

impl SNodeId {
    /// The rank as `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Kind of a stored node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SKind {
    /// An element.
    Element,
    /// An attribute (leading child of its element).
    Attribute,
    /// A text node (leaf).
    Text,
}

/// A document in succinct physical storage.
#[derive(Debug, Clone)]
pub struct SuccinctDoc {
    bp: Bp,
    /// Per-node tag; `TagId::TEXT` for text nodes.
    tags: TagVec,
    /// Bit per node: is this an attribute node?
    is_attr: BitVec,
    /// Bit per node: does this node carry content (text or attribute)?
    has_content: BitVec,
    content: ContentStore,
    tag_table: TagTable,
}

impl SuccinctDoc {
    // ---- construction -----------------------------------------------------

    /// Encode an arena [`Document`]. Comments and PIs are dropped.
    pub fn from_document(doc: &Document) -> Self {
        let mut b = Builder::new();
        if let Some(root) = doc.root_element() {
            b.walk(doc, root);
        }
        b.finish()
    }

    /// Build from a stream of parse events — the streaming path the paper's
    /// pre-order linearization enables. Comments and PIs are skipped.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a Event>) -> Self {
        let mut b = Builder::new();
        for ev in events {
            b.push_event(ev);
        }
        b.finish()
    }

    /// Parse and encode in one step.
    pub fn parse(input: &str) -> xqp_xml::Result<Self> {
        let doc = xqp_xml::parse_document(input)?;
        Ok(Self::from_document(&doc))
    }

    /// Assemble from raw parts (used by the update path).
    pub(crate) fn from_parts(
        bits: BitVec,
        tags: Vec<TagId>,
        is_attr: BitVec,
        has_content: BitVec,
        content: ContentStore,
        tag_table: TagTable,
    ) -> Self {
        SuccinctDoc {
            bp: Bp::new(bits),
            tags: TagVec::resident(tags),
            is_attr,
            has_content,
            content,
            tag_table,
        }
    }

    /// Assemble from parts whose heavy components (structure bits, tag ids,
    /// content arena) live behind the buffer pool. The [`Bp`] arrives
    /// pre-built: its directories were computed by the streaming open scan.
    pub(crate) fn from_paged_parts(
        bp: Bp,
        tags: TagVec,
        is_attr: BitVec,
        has_content: BitVec,
        content: ContentStore,
        tag_table: TagTable,
    ) -> Self {
        SuccinctDoc { bp, tags, is_attr, has_content, content, tag_table }
    }

    /// True if any component is backed by the buffer pool rather than RAM.
    pub fn is_paged(&self) -> bool {
        self.bp.bits().is_paged() || self.tags.is_paged() || self.content.is_paged()
    }

    // ---- basic accessors ----------------------------------------------------

    /// Number of stored nodes (elements + attributes + texts).
    pub fn node_count(&self) -> usize {
        self.tags.len()
    }

    /// True if the document stores nothing.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// The root element (`n0`), if any.
    pub fn root(&self) -> Option<SNodeId> {
        (!self.is_empty()).then_some(SNodeId(0))
    }

    /// The balanced-parentheses structure (used by tests and stats).
    pub fn bp(&self) -> &Bp {
        &self.bp
    }

    /// The tag symbol table.
    pub fn tag_table(&self) -> &TagTable {
        &self.tag_table
    }

    /// The content store.
    pub fn content_store(&self) -> &ContentStore {
        &self.content
    }

    pub(crate) fn raw_tags(&self) -> &TagVec {
        &self.tags
    }

    pub(crate) fn raw_is_attr(&self) -> &BitVec {
        &self.is_attr
    }

    pub(crate) fn raw_has_content(&self) -> &BitVec {
        &self.has_content
    }

    /// Kind of node `n`.
    pub fn kind(&self, n: SNodeId) -> SKind {
        if self.tags.get(n.index()) == TagId::TEXT {
            SKind::Text
        } else if self.is_attr.get(n.index()) {
            SKind::Attribute
        } else {
            SKind::Element
        }
    }

    /// Tag id of node `n` (`TagId::TEXT` for text nodes).
    pub fn tag(&self, n: SNodeId) -> TagId {
        self.tags.get(n.index())
    }

    /// Tag name of node `n`.
    pub fn name(&self, n: SNodeId) -> &str {
        self.tag_table.name(self.tags.get(n.index()))
    }

    /// True if `n` is an element.
    pub fn is_element(&self, n: SNodeId) -> bool {
        self.kind(n) == SKind::Element
    }

    /// True if `n` is a text node.
    pub fn is_text(&self, n: SNodeId) -> bool {
        self.tags.get(n.index()) == TagId::TEXT
    }

    /// True if `n` is an attribute node.
    pub fn is_attribute(&self, n: SNodeId) -> bool {
        self.kind(n) == SKind::Attribute
    }

    /// The node holding content rank `r` (inverse of the `has_content`
    /// rank mapping); `None` when `r` is out of range.
    pub fn node_of_content_rank(&self, r: usize) -> Option<SNodeId> {
        self.has_content.select1(r).map(|i| SNodeId(i as u32))
    }

    /// Content of a text or attribute node; `None` for elements. Borrowed
    /// when the content arena is resident, assembled from page frames when
    /// it is paged.
    pub fn content(&self, n: SNodeId) -> Option<Cow<'_, str>> {
        if self.has_content.get(n.index()) {
            Some(self.content.get(self.has_content.rank1(n.index())))
        } else {
            None
        }
    }

    // ---- navigation (NoK axes) ---------------------------------------------

    /// Parenthesis position of node `n`.
    #[inline]
    pub fn pos(&self, n: SNodeId) -> usize {
        self.bp.node_select(n.index()).expect("node id in range")
    }

    /// Node at parenthesis position `p` (must be an open paren).
    #[inline]
    pub fn node_at(&self, p: usize) -> SNodeId {
        SNodeId(self.bp.node_rank(p) as u32)
    }

    /// First child (attributes included — they come first).
    pub fn first_child(&self, n: SNodeId) -> Option<SNodeId> {
        self.bp.first_child(self.pos(n)).map(|p| self.node_at(p))
    }

    /// Next sibling.
    pub fn next_sibling(&self, n: SNodeId) -> Option<SNodeId> {
        self.bp.next_sibling(self.pos(n)).map(|p| self.node_at(p))
    }

    /// Parent node.
    pub fn parent(&self, n: SNodeId) -> Option<SNodeId> {
        self.bp.parent(self.pos(n)).map(|p| self.node_at(p))
    }

    /// Nodes in the subtree of `n`, including `n` — contiguous in rank space.
    pub fn subtree(&self, n: SNodeId) -> impl Iterator<Item = SNodeId> {
        let size = self.subtree_size(n);
        (n.0..n.0 + size as u32).map(SNodeId)
    }

    /// Size of the subtree of `n`, including `n`.
    pub fn subtree_size(&self, n: SNodeId) -> usize {
        self.bp.subtree_size(self.pos(n))
    }

    /// Depth of `n` (root element = 1).
    pub fn depth(&self, n: SNodeId) -> usize {
        self.bp.depth(self.pos(n)) as usize
    }

    /// True if `a` is a proper ancestor of `d`.
    pub fn is_ancestor(&self, a: SNodeId, d: SNodeId) -> bool {
        a < d && d.index() < a.index() + self.subtree_size(a)
    }

    /// Children of `n` (attributes included).
    pub fn children(&self, n: SNodeId) -> ChildIter<'_> {
        ChildIter { doc: self, next: self.first_child(n) }
    }

    /// Element children of `n`.
    pub fn child_elements(&self, n: SNodeId) -> impl Iterator<Item = SNodeId> + '_ {
        self.children(n).filter(move |&c| self.is_element(c))
    }

    /// Attribute nodes of element `n` (its leading children).
    pub fn attributes(&self, n: SNodeId) -> impl Iterator<Item = SNodeId> + '_ {
        self.children(n).take_while(move |&c| self.is_attribute(c))
    }

    /// Attribute value by name test.
    pub fn attribute(&self, n: SNodeId, name: &str) -> Option<Cow<'_, str>> {
        // Collect first to drop the iterator borrow before calling content().
        let hit = self.attributes(n).find(|&a| name == "*" || self.name(a) == name)?;
        self.content(hit)
    }

    /// All element nodes in document order.
    pub fn elements(&self) -> impl Iterator<Item = SNodeId> + '_ {
        (0..self.node_count() as u32).map(SNodeId).filter(move |&n| self.is_element(n))
    }

    // ---- values --------------------------------------------------------------

    /// XPath string value: concatenated descendant text for elements, own
    /// content for text/attribute nodes.
    pub fn string_value(&self, n: SNodeId) -> String {
        match self.kind(n) {
            SKind::Text | SKind::Attribute => {
                self.content(n).map(Cow::into_owned).unwrap_or_default()
            }
            SKind::Element => {
                let mut out = String::new();
                for d in self.subtree(n) {
                    if self.is_text(d) {
                        if let Some(c) = self.content(d) {
                            out.push_str(&c);
                        }
                    }
                }
                out
            }
        }
    }

    /// Atomized value of `n` — **untyped** (a string) per the XQuery data
    /// model; comparisons promote it to numbers when the other operand is
    /// numeric.
    pub fn typed_value(&self, n: SNodeId) -> Atomic {
        Atomic::Str(self.string_value(n))
    }

    // ---- export ---------------------------------------------------------------

    /// Region-encoding interval of `n`: `(start, end, level)` with start/end
    /// the open/close parenthesis positions.
    pub fn interval(&self, n: SNodeId) -> (u32, u32, u32) {
        let p = self.pos(n);
        (p as u32, self.bp.find_close(p) as u32, self.depth(n) as u32)
    }

    /// Reconstruct an arena [`Document`] from the stored form.
    pub fn to_document(&self) -> Document {
        let mut doc = Document::new();
        if let Some(root) = self.root() {
            self.rebuild(root, doc.root(), &mut doc);
        }
        doc
    }

    fn rebuild(&self, n: SNodeId, parent: NodeId, doc: &mut Document) {
        match self.kind(n) {
            SKind::Element => {
                let el = doc.append_element(parent, self.name(n));
                for c in self.children(n).collect::<Vec<_>>() {
                    match self.kind(c) {
                        SKind::Attribute => {
                            let name = self.name(c).to_string();
                            let value = self.content(c).map(Cow::into_owned).unwrap_or_default();
                            doc.set_attribute(el, name, value);
                        }
                        _ => self.rebuild(c, el, doc),
                    }
                }
            }
            SKind::Text => {
                doc.append_text(parent, self.content(n).as_deref().unwrap_or_default());
            }
            SKind::Attribute => {
                unreachable!("attributes handled by their element");
            }
        }
    }

    /// Heap bytes of every component (structure, tags, flags, content, table).
    /// Paged components count only their resident side (directories, spans).
    pub fn heap_bytes(&self) -> usize {
        self.bp.heap_bytes()
            + self.tags.heap_bytes()
            + self.is_attr.heap_bytes()
            + self.has_content.heap_bytes()
            + self.content.heap_bytes()
            + self.tag_table.heap_bytes()
    }
}

/// Iterator over the children of a node.
pub struct ChildIter<'a> {
    doc: &'a SuccinctDoc,
    next: Option<SNodeId>,
}

impl<'a> Iterator for ChildIter<'a> {
    type Item = SNodeId;

    fn next(&mut self) -> Option<SNodeId> {
        let n = self.next?;
        self.next = self.doc.next_sibling(n);
        Some(n)
    }
}

/// Incremental builder shared by the DOM and streaming paths.
struct Builder {
    bits: BitVec,
    tags: Vec<TagId>,
    is_attr: BitVec,
    has_content: BitVec,
    content: ContentStore,
    tag_table: TagTable,
}

impl Builder {
    fn new() -> Self {
        Builder {
            bits: BitVec::new(),
            tags: Vec::new(),
            is_attr: BitVec::new(),
            has_content: BitVec::new(),
            content: ContentStore::new(),
            tag_table: TagTable::new(),
        }
    }

    fn open(&mut self, tag: TagId, attr: bool, content: Option<&str>) {
        self.bits.push(true);
        self.tags.push(tag);
        self.is_attr.push(attr);
        match content {
            Some(s) => {
                self.has_content.push(true);
                self.content.push(s);
            }
            None => self.has_content.push(false),
        }
    }

    fn close(&mut self) {
        self.bits.push(false);
    }

    fn walk(&mut self, doc: &Document, id: NodeId) {
        match &doc.node(id).kind {
            NodeKind::Element { name, attributes } => {
                let tag = self.tag_table.intern(&name.as_lexical());
                self.open(tag, false, None);
                for &aid in attributes {
                    if let NodeKind::Attribute { name, value } = &doc.node(aid).kind {
                        let tag = self.tag_table.intern(&name.as_lexical());
                        self.open(tag, true, Some(value));
                        self.close();
                    }
                }
                for child in doc.children(id) {
                    self.walk(doc, child);
                }
                self.close();
            }
            NodeKind::Text(t) => {
                self.open(TagId::TEXT, false, Some(t));
                self.close();
            }
            // Comments and PIs are not stored.
            _ => {}
        }
    }

    fn push_event(&mut self, ev: &Event) {
        match ev {
            Event::StartElement { name, attributes, self_closing } => {
                let tag = self.tag_table.intern(&name.as_lexical());
                self.open(tag, false, None);
                for attr in attributes {
                    let tag = self.tag_table.intern(&attr.name.as_lexical());
                    self.open(tag, true, Some(&attr.value));
                    self.close();
                }
                if *self_closing {
                    self.close();
                }
            }
            Event::EndElement { .. } => self.close(),
            Event::Text(t) => {
                self.open(TagId::TEXT, false, Some(t));
                self.close();
            }
            Event::Comment(_) | Event::ProcessingInstruction { .. } => {}
        }
    }

    fn finish(mut self) -> SuccinctDoc {
        self.bits.finish();
        self.is_attr.finish();
        self.has_content.finish();
        SuccinctDoc {
            bp: Bp::new(self.bits),
            tags: TagVec::resident(self.tags),
            is_attr: self.is_attr,
            has_content: self.has_content,
            content: self.content,
            tag_table: self.tag_table,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqp_xml::{parse_document, serialize, Parser};

    const SAMPLE: &str =
        "<bib><book year=\"1994\"><title>TCP/IP Illustrated</title><author>Stevens</author></book><book year=\"2000\"><title>Data on the Web</title><author>Abiteboul</author><author>Buneman</author></book></bib>";

    fn sdoc(s: &str) -> SuccinctDoc {
        SuccinctDoc::parse(s).unwrap()
    }

    #[test]
    fn node_counts() {
        let d = sdoc(SAMPLE);
        // elements: bib, 2×book, 2×title, 3×author = 8; attrs: 2; texts: 5
        assert_eq!(d.node_count(), 15);
        assert_eq!(d.elements().count(), 8);
    }

    #[test]
    fn roundtrip_through_document() {
        let original = parse_document(SAMPLE).unwrap();
        let d = SuccinctDoc::from_document(&original);
        let back = d.to_document();
        assert_eq!(serialize(&back), SAMPLE);
    }

    #[test]
    fn streaming_build_equals_dom_build() {
        let events: Vec<_> = Parser::new(SAMPLE).collect::<xqp_xml::Result<_>>().unwrap();
        let from_stream = SuccinctDoc::from_events(events.iter());
        let from_dom = sdoc(SAMPLE);
        assert_eq!(serialize(&from_stream.to_document()), serialize(&from_dom.to_document()));
        assert_eq!(from_stream.node_count(), from_dom.node_count());
    }

    #[test]
    fn navigation_matches_structure() {
        let d = sdoc("<a><b><c/></b><d/></a>");
        let a = d.root().unwrap();
        assert_eq!(d.name(a), "a");
        let b = d.first_child(a).unwrap();
        assert_eq!(d.name(b), "b");
        let c = d.first_child(b).unwrap();
        assert_eq!(d.name(c), "c");
        assert_eq!(d.next_sibling(c), None);
        let dd = d.next_sibling(b).unwrap();
        assert_eq!(d.name(dd), "d");
        assert_eq!(d.parent(dd), Some(a));
        assert_eq!(d.parent(a), None);
        assert_eq!(d.depth(c), 3);
        assert_eq!(d.subtree_size(a), 4);
    }

    #[test]
    fn attributes_are_leading_children() {
        let d = sdoc("<a x=\"1\" y=\"2\"><b/></a>");
        let a = d.root().unwrap();
        let kids: Vec<_> = d.children(a).collect();
        assert_eq!(kids.len(), 3);
        assert!(d.is_attribute(kids[0]));
        assert!(d.is_attribute(kids[1]));
        assert!(d.is_element(kids[2]));
        assert_eq!(d.attribute(a, "x").as_deref(), Some("1"));
        assert_eq!(d.attribute(a, "y").as_deref(), Some("2"));
        assert_eq!(d.attribute(a, "z"), None);
        assert_eq!(d.attributes(a).count(), 2);
    }

    #[test]
    fn string_value_excludes_attributes() {
        let d = sdoc("<a x=\"ATTR\">t1<b>t2</b></a>");
        let a = d.root().unwrap();
        assert_eq!(d.string_value(a), "t1t2");
    }

    #[test]
    fn typed_value_is_untyped_atomic() {
        let d = sdoc("<n>42</n>");
        // Untyped: numeric interpretation happens at comparison time.
        assert_eq!(d.typed_value(d.root().unwrap()), Atomic::Str("42".into()));
        assert_eq!(d.typed_value(d.root().unwrap()).as_number(), Some(42.0));
    }

    #[test]
    fn subtree_is_contiguous_rank_range() {
        let d = sdoc(SAMPLE);
        let bib = d.root().unwrap();
        let book1 = d.child_elements(bib).next().unwrap();
        let subtree: Vec<_> = d.subtree(book1).collect();
        // book + @year + title + title-text + author + author-text = 6 nodes
        assert_eq!(subtree.len(), 6);
        assert!(subtree.windows(2).all(|w| w[1].0 == w[0].0 + 1));
    }

    #[test]
    fn is_ancestor_via_ranks() {
        let d = sdoc("<a><b><c/></b><d/></a>");
        let a = d.root().unwrap();
        let b = d.first_child(a).unwrap();
        let c = d.first_child(b).unwrap();
        let dd = d.next_sibling(b).unwrap();
        assert!(d.is_ancestor(a, c));
        assert!(d.is_ancestor(b, c));
        assert!(!d.is_ancestor(b, dd));
        assert!(!d.is_ancestor(c, b));
        assert!(!d.is_ancestor(a, a));
    }

    #[test]
    fn intervals_nest_properly() {
        let d = sdoc(SAMPLE);
        let bib = d.root().unwrap();
        let (s0, e0, l0) = d.interval(bib);
        assert_eq!(l0, 1);
        for n in d.elements().skip(1) {
            let (s, e, _) = d.interval(n);
            assert!(s0 < s && e < e0, "child interval inside root");
            assert!(s < e);
        }
    }

    #[test]
    fn mixed_content_roundtrip() {
        let s = "<p>one <em>two</em> three</p>";
        let d = sdoc(s);
        assert_eq!(serialize(&d.to_document()), s);
        assert_eq!(d.string_value(d.root().unwrap()), "one two three");
    }

    #[test]
    fn comments_and_pis_dropped() {
        let d = sdoc("<a><!--c--><?pi x?><b/></a>");
        assert_eq!(d.node_count(), 2);
        assert_eq!(serialize(&d.to_document()), "<a><b/></a>");
    }

    #[test]
    fn node_of_content_rank_inverts_content() {
        let d = sdoc("<a x=\"v1\">t1<b>t2</b></a>");
        for r in 0..d.content_store().len() {
            let n = d.node_of_content_rank(r).unwrap();
            assert_eq!(d.content(n), Some(d.content_store().get(r)));
        }
        assert_eq!(d.node_of_content_rank(99), None);
    }

    #[test]
    fn content_by_rank_lookup() {
        let d = sdoc("<a x=\"v1\">t1<b>t2</b></a>");
        // In pre-order: a(elem), x(attr,v1), text(t1), b(elem), text(t2)
        assert_eq!(d.content(SNodeId(1)).as_deref(), Some("v1"));
        assert_eq!(d.content(SNodeId(2)).as_deref(), Some("t1"));
        assert_eq!(d.content(SNodeId(0)), None);
        assert_eq!(d.content(SNodeId(4)).as_deref(), Some("t2"));
    }

    #[test]
    fn empty_and_whitespace_text() {
        let d = sdoc("<a> </a>");
        let a = d.root().unwrap();
        assert_eq!(d.string_value(a), " ");
    }

    #[test]
    fn heap_bytes_positive() {
        let d = sdoc(SAMPLE);
        assert!(d.heap_bytes() > 0);
    }
}
