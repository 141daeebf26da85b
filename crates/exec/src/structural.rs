//! Binary structural joins — the join-based baseline (⋈s physically).
//!
//! The extended-relational and early native approaches evaluate a pattern by
//! one **structural join per arc** over region-encoded tag streams (Zhang et
//! al. SIGMOD'01; Al-Khalifa et al. ICDE'02 "stack-tree"). This module
//! implements the stack-tree merge as semi-joins and evaluates a
//! single-output pattern by a bottom-up + top-down semi-join sweep — linear
//! per join in the stream sizes, but paying one join *per arc*, which is the
//! overhead the paper's NoK approach avoids (§4.2, §5).
//!
//! Join-order selection over linear paths realizes rewrite R4 / experiment
//! E8: [`eval_linear_pairs`] materializes intermediate tuples (whose count
//! the order controls), [`eval_linear_ordered`] is the semi-join variant
//! (order-insensitive, used as an exactness oracle).

use crate::context::ExecContext;
use xqp_storage::{Interval, SNodeId};
use xqp_xpath::{PRel, PatternGraph, VertexKind};

/// Candidate intervals for a pattern vertex: its tag stream filtered by
/// kind and value constraints (σs + σv applied to the stream). When the
/// context carries a [`xqp_storage::ValueIndex`] and the vertex has an
/// equality constraint, the index is probed instead of scanning the stream.
pub fn candidates(ctx: &ExecContext<'_>, g: &PatternGraph, v: usize) -> Vec<Interval> {
    let vert = &g.vertices[v];
    let want_attr = vert.kind == VertexKind::Attribute;
    // Index probe: equality or numeric-range constraints over named
    // element/attribute tags.
    if let (Some(index), VertexKind::Element | VertexKind::Attribute) = (ctx.index, vert.kind) {
        if vert.label != "*" && !vert.constraints.is_empty() {
            if let Some(tag) = ctx.sdoc.tag_table().lookup(&vert.label) {
                if let Some(nodes) = index_probe(index, tag, &vert.constraints) {
                    let mut hits: Vec<Interval> = nodes
                        .into_iter()
                        .filter(|&n| ctx.sdoc.is_attribute(n) == want_attr)
                        .map(|n| {
                            let (start, end, level) = ctx.sdoc.interval(n);
                            Interval { start, end, level, node: n }
                        })
                        .collect();
                    ctx.consume_stream(hits.len() as u64);
                    // Remaining constraints still verify per hit.
                    if vert.constraints.len() > 1 {
                        hits.retain(|iv| {
                            let val = ctx.sdoc.typed_value(iv.node);
                            vert.constraints.iter().all(|c| c.matches(&val))
                        });
                    }
                    return hits;
                }
            }
        }
    }
    let mut out: Vec<Interval> = match vert.kind {
        VertexKind::Root => return Vec::new(),
        VertexKind::Text => {
            // Streams carry elements/attributes only; text candidates come
            // from a node scan.
            (0..ctx.sdoc.node_count() as u32)
                .map(SNodeId)
                .filter(|&n| ctx.sdoc.is_text(n))
                .map(|n| {
                    let (start, end, level) = ctx.sdoc.interval(n);
                    Interval { start, end, level, node: n }
                })
                .collect()
        }
        _ => {
            let streams = ctx.streams();
            if vert.label == "*" {
                streams.all_of_kind(ctx.sdoc, want_attr)
            } else {
                streams
                    .stream_by_name(ctx.sdoc, &vert.label)
                    .iter()
                    .copied()
                    .filter(|iv| ctx.sdoc.is_attribute(iv.node) == want_attr)
                    .collect()
            }
        }
    };
    // Consumption is counted pre-filter: every interval was read and its
    // value inspected, whether or not the constraint kept it.
    ctx.consume_stream(out.len() as u64);
    if !vert.constraints.is_empty() {
        out.retain(|iv| {
            let val = ctx.sdoc.typed_value(iv.node);
            vert.constraints.iter().all(|c| c.matches(&val))
        });
    }
    out
}

/// Pick the most selective index-answerable constraint: equality first,
/// then a numeric range. Returns `None` when no constraint is probe-able.
fn index_probe(
    index: &xqp_storage::ValueIndex,
    tag: xqp_storage::TagId,
    constraints: &[xqp_xpath::ValueConstraint],
) -> Option<Vec<SNodeId>> {
    use std::ops::Bound;
    use xqp_xml::Atomic;
    use xqp_xpath::CmpOp;
    // Stored values atomize as untyped strings, so the semantics the probe
    // must reproduce depend on the literal's *declared* type (see
    // `Atomic::compare`): a declared number promotes the node value
    // (non-parseable ⇒ incomparable ⇒ false), while a string literal
    // compares lexicographically over every string value — including
    // numeric-looking ones and the empty string. Probing the numeric tree
    // for a numeric-looking *string* literal silently drops those; the
    // differential fuzzer caught exactly that (`//e[c < "5"]` over `<c/>`:
    // "" < "5" lexicographically, but "" is not in the numeric tree).
    if let Some(eq) =
        constraints.iter().find(|c| c.op == CmpOp::Eq && !matches!(c.literal, Atomic::Boolean(_)))
    {
        return Some(index.lookup_eq(tag, &eq.literal));
    }
    for c in constraints {
        match &c.literal {
            Atomic::Integer(_) | Atomic::Double(_) => {
                let v = c.literal.as_number().expect("declared number has a numeric view");
                let (lo, hi) = match c.op {
                    CmpOp::Gt => (Bound::Excluded(v), Bound::Unbounded),
                    CmpOp::Ge => (Bound::Included(v), Bound::Unbounded),
                    CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(v)),
                    CmpOp::Le => (Bound::Unbounded, Bound::Included(v)),
                    _ => continue,
                };
                return Some(index.lookup_numeric_range(tag, lo, hi));
            }
            Atomic::Str(s) => {
                let (lo, hi) = match c.op {
                    CmpOp::Gt => (Bound::Excluded(s.as_str()), Bound::Unbounded),
                    CmpOp::Ge => (Bound::Included(s.as_str()), Bound::Unbounded),
                    CmpOp::Lt => (Bound::Unbounded, Bound::Excluded(s.as_str())),
                    CmpOp::Le => (Bound::Unbounded, Bound::Included(s.as_str())),
                    _ => continue,
                };
                return Some(index.lookup_string_range(tag, lo, hi));
            }
            Atomic::Boolean(_) => continue,
        }
    }
    None
}

/// How many descendant-side iterations may pass between governor polls in
/// the semi-join loops. The join functions return plain `Vec`s (their
/// signatures are shared with the parallel sweep workers), so a trip is
/// observed by bailing out early; the caller's next fallible governor check
/// raises the typed error.
const GOVERNOR_POLL_EVERY: u32 = 256;

fn rel_ok(a: &Interval, d: &Interval, rel: PRel) -> bool {
    match rel {
        PRel::Descendant => a.contains(d),
        PRel::Child => a.is_parent_of(d),
    }
}

/// Stack-tree semi-join keeping the **descendant-side** intervals that have
/// a matching ancestor. Both inputs must be sorted by `start`.
pub fn semijoin_keep_desc(
    ctx: &ExecContext<'_>,
    anc: &[Interval],
    desc: &[Interval],
    rel: PRel,
) -> Vec<Interval> {
    ctx.count_join();
    ctx.consume_stream((anc.len() + desc.len()) as u64);
    let mut out = Vec::new();
    let mut stack: Vec<Interval> = Vec::new();
    let mut ai = 0;
    let mut since_poll: u32 = 0;
    for d in desc {
        since_poll += 1;
        if since_poll >= GOVERNOR_POLL_EVERY {
            since_poll = 0;
            if ctx.governor_should_stop() {
                break;
            }
        }
        while ai < anc.len() && anc[ai].start < d.start {
            while let Some(top) = stack.last() {
                if top.end < anc[ai].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(anc[ai]);
            ai += 1;
        }
        while let Some(top) = stack.last() {
            if top.end < d.start {
                stack.pop();
            } else {
                break;
            }
        }
        let hit = match rel {
            PRel::Descendant => stack.last().is_some_and(|a| a.contains(d)),
            PRel::Child => stack.iter().rev().any(|a| a.is_parent_of(d)),
        };
        if hit {
            out.push(*d);
        }
    }
    out
}

/// Stack-tree semi-join keeping the **ancestor-side** intervals that contain
/// at least one descendant. Both inputs sorted by `start`.
pub fn semijoin_keep_anc(
    ctx: &ExecContext<'_>,
    anc: &[Interval],
    desc: &[Interval],
    rel: PRel,
) -> Vec<Interval> {
    ctx.count_join();
    ctx.consume_stream((anc.len() + desc.len()) as u64);
    let mut alive = vec![false; anc.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut ai = 0;
    let mut since_poll: u32 = 0;
    for d in desc {
        since_poll += 1;
        if since_poll >= GOVERNOR_POLL_EVERY {
            since_poll = 0;
            if ctx.governor_should_stop() {
                break;
            }
        }
        while ai < anc.len() && anc[ai].start < d.start {
            while let Some(&top) = stack.last() {
                if anc[top].end < anc[ai].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(ai);
            ai += 1;
        }
        while let Some(&top) = stack.last() {
            if anc[top].end < d.start {
                stack.pop();
            } else {
                break;
            }
        }
        // Every stack entry spans d.start, hence (well-nestedness) contains
        // d; for parent-child only the entry one level up qualifies.
        for &s in stack.iter().rev() {
            if rel_ok(&anc[s], d, rel) {
                alive[s] = true;
                if rel == PRel::Child {
                    break;
                }
            }
        }
    }
    anc.iter().zip(alive).filter_map(|(a, keep)| keep.then_some(*a)).collect()
}

/// Per-vertex candidate lists with the context restriction and the root's
/// Child-arc level filter applied — the front half of
/// [`eval_pattern_binary`], shared with [`crate::parallel`] (which
/// partitions the output vertex's list across worker threads before
/// running [`sweep`] per chunk).
pub fn pattern_candidates(
    ctx: &ExecContext<'_>,
    g: &PatternGraph,
    context: Option<SNodeId>,
) -> Vec<Vec<Interval>> {
    let n = g.vertices.len();
    let mut cand: Vec<Vec<Interval>> = (0..n).map(|v| candidates(ctx, g, v)).collect();

    // Context restriction (and the root's Child arcs = top-level elements).
    if let Some(c) = context {
        let (cs, ce, _) = ctx.sdoc.interval(c);
        for list in cand.iter_mut().skip(1) {
            list.retain(|iv| cs < iv.start && iv.end < ce);
        }
    }
    let context_level = context.map_or(0, |c| ctx.sdoc.interval(c).2);
    for (child, rel) in g.children(g.root()) {
        if rel == PRel::Child {
            cand[child].retain(|iv| iv.level == context_level + 1);
        }
    }
    cand
}

/// Evaluate a single-output pattern entirely with binary structural joins:
/// σs/σv per vertex, then a bottom-up semi-join sweep (existence) and a
/// top-down sweep (connectivity). `context` restricts matches to a subtree.
pub fn eval_pattern_binary(
    ctx: &ExecContext<'_>,
    g: &PatternGraph,
    context: Option<SNodeId>,
) -> Vec<SNodeId> {
    let outputs = g.outputs();
    assert_eq!(outputs.len(), 1, "binary-join evaluation needs one output vertex");
    if g.unsatisfiable || ctx.sdoc.is_empty() {
        return Vec::new();
    }
    let cand = pattern_candidates(ctx, g, context);
    sweep(ctx, g, cand)
}

/// The semi-join sweep over prepared candidate lists — the back half of
/// [`eval_pattern_binary`]. Exact with respect to its inputs: the result is
/// every node in the output vertex's list that participates in a full
/// pattern match drawn from the given lists, in document order.
pub fn sweep(
    ctx: &ExecContext<'_>,
    g: &PatternGraph,
    mut cand: Vec<Vec<Interval>>,
) -> Vec<SNodeId> {
    let outputs = g.outputs();

    // Bottom-up: a vertex keeps only candidates with every mandatory child
    // arc satisfied (post-order over the pattern tree).
    let order = post_order(g);
    for &v in &order {
        let kids: Vec<(usize, PRel)> = g.children(v).collect();
        for (c, rel) in kids {
            if g.vertices[c].optional {
                continue;
            }
            if v == g.root() {
                continue; // root handled implicitly (candidates filtered above)
            }
            let filtered = semijoin_keep_anc(ctx, &cand[v], &cand[c], rel);
            cand[v] = filtered;
        }
    }

    // Top-down along the root-to-output chain: connectivity.
    let mut chain = vec![outputs[0]];
    let mut cur = outputs[0];
    while let Some(arc) = g.incoming(cur) {
        cur = arc.from;
        if cur != g.root() {
            chain.push(cur);
        }
    }
    chain.reverse();
    let mut prev: Option<Vec<Interval>> = None;
    for &v in &chain {
        if let Some(p) = &prev {
            let rel = g.incoming(v).expect("non-root chain vertex").rel;
            cand[v] = semijoin_keep_desc(ctx, p, &cand[v], rel);
        }
        prev = Some(cand[v].clone());
    }
    cand[outputs[0]].iter().map(|iv| iv.node).collect()
}

fn post_order(g: &PatternGraph) -> Vec<usize> {
    fn rec(g: &PatternGraph, v: usize, out: &mut Vec<usize>) {
        for (c, _) in g.children(v) {
            rec(g, c, out);
        }
        out.push(v);
    }
    let mut out = Vec::new();
    rec(g, g.root(), &mut out);
    out
}

/// Evaluate a linear descendant path (`//t1//t2//…//tk`) by pairwise
/// semi-joins applied in the given order of arcs (indices into `0..k-1`).
/// Used by the join-order experiment (E8): a bad order keeps big
/// intermediate streams alive, a good one shrinks them first.
pub fn eval_linear_ordered(
    ctx: &ExecContext<'_>,
    tags: &[&str],
    arc_order: &[usize],
) -> Vec<SNodeId> {
    assert!(tags.len() >= 2);
    assert_eq!(arc_order.len(), tags.len() - 1);
    let streams = ctx.streams();
    let mut lists: Vec<Vec<Interval>> =
        tags.iter().map(|t| streams.stream_by_name(ctx.sdoc, t).to_vec()).collect();
    for list in &lists {
        ctx.consume_stream(list.len() as u64);
    }
    for &arc in arc_order {
        // Arc i joins tags[i] (anc) with tags[i+1] (desc); semi-join both
        // ways so later joins see reduced inputs.
        let kept_desc = semijoin_keep_desc(ctx, &lists[arc], &lists[arc + 1], PRel::Descendant);
        let kept_anc = semijoin_keep_anc(ctx, &lists[arc], &lists[arc + 1], PRel::Descendant);
        lists[arc + 1] = kept_desc;
        lists[arc] = kept_anc;
    }
    // Final connectivity sweep top-down to make the result exact regardless
    // of the chosen order.
    for i in 0..tags.len() - 1 {
        lists[i + 1] = semijoin_keep_desc(ctx, &lists[i], &lists[i + 1], PRel::Descendant);
    }
    lists[tags.len() - 1].iter().map(|iv| iv.node).collect()
}

/// Evaluate a linear descendant path by **pair-materializing** structural
/// joins applied in the given arc order — the classic intermediate-result
/// pipeline whose cost the join order controls (Wu et al. [5], rewrite R4 /
/// experiment E8). Returns the final matches of the last tag plus the total
/// number of intermediate tuples materialized.
pub fn eval_linear_pairs(
    ctx: &ExecContext<'_>,
    tags: &[&str],
    arc_order: &[usize],
) -> (Vec<SNodeId>, usize) {
    assert!(tags.len() >= 2);
    assert_eq!(arc_order.len(), tags.len() - 1);
    let streams: Vec<Vec<Interval>> = {
        let s = ctx.streams();
        tags.iter().map(|t| s.stream_by_name(ctx.sdoc, t).to_vec()).collect()
    };
    // Partial results: rows binding a contiguous range of columns.
    let mut rows: Vec<Vec<Option<Interval>>> = Vec::new();
    let mut bound: Vec<bool> = vec![false; tags.len()];
    let mut intermediates = 0usize;
    for &arc in arc_order {
        let (l, r) = (arc, arc + 1);
        ctx.count_join();
        match (bound[l], bound[r]) {
            (false, false) => {
                // Seed rows from a full pair join of the two streams.
                let mut stack: Vec<Interval> = Vec::new();
                let mut ai = 0;
                let anc = &streams[l];
                for d in &streams[r] {
                    while ai < anc.len() && anc[ai].start < d.start {
                        while let Some(top) = stack.last() {
                            if top.end < anc[ai].start {
                                stack.pop();
                            } else {
                                break;
                            }
                        }
                        stack.push(anc[ai]);
                        ai += 1;
                    }
                    while let Some(top) = stack.last() {
                        if top.end < d.start {
                            stack.pop();
                        } else {
                            break;
                        }
                    }
                    for a in stack.iter().filter(|a| a.contains(d)) {
                        let mut row = vec![None; tags.len()];
                        row[l] = Some(*a);
                        row[r] = Some(*d);
                        rows.push(row);
                    }
                }
            }
            (true, false) => {
                // Extend each row downward: descendants of row[l] in stream r.
                let mut next = Vec::new();
                for row in &rows {
                    let a = row[l].expect("bound column");
                    let s = &streams[r];
                    let from = s.partition_point(|iv| iv.start <= a.start);
                    for d in &s[from..] {
                        if d.start > a.end {
                            break;
                        }
                        if a.contains(d) {
                            let mut nr = row.clone();
                            nr[r] = Some(*d);
                            next.push(nr);
                        }
                    }
                }
                rows = next;
            }
            (false, true) => {
                // Extend upward: ancestors of row[r] with tag l.
                let mut next = Vec::new();
                for row in &rows {
                    let d = row[r].expect("bound column");
                    let mut anc = ctx.sdoc.parent(d.node);
                    while let Some(p) = anc {
                        if ctx.sdoc.is_element(p) && ctx.sdoc.name(p) == tags[l] {
                            let (start, end, level) = ctx.sdoc.interval(p);
                            let mut nr = row.clone();
                            nr[l] = Some(Interval { start, end, level, node: p });
                            next.push(nr);
                        }
                        anc = ctx.sdoc.parent(p);
                    }
                }
                rows = next;
            }
            (true, true) => {
                rows.retain(|row| row[l].expect("bound").contains(&row[r].expect("bound")));
            }
        }
        bound[l] = true;
        bound[r] = true;
        intermediates += rows.len();
        ctx.consume_stream(rows.len() as u64);
    }
    let last = tags.len() - 1;
    let mut out: Vec<SNodeId> = rows.iter().filter_map(|r| r[last].map(|iv| iv.node)).collect();
    out.sort_unstable();
    out.dedup();
    (out, intermediates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::NodeRef;
    use crate::naive;
    use xqp_storage::SuccinctDoc;
    use xqp_xpath::parse_path;

    const BIB: &str = "<bib>\
        <book year=\"1994\"><title>TCP</title><author>Stevens</author><price>65</price></book>\
        <book year=\"2000\"><title>Data</title><author>Abiteboul</author><author>Buneman</author><price>39</price></book>\
        <article><title>X</title><keyword>xml</keyword></article>\
        </bib>";

    fn join_eval(doc: &SuccinctDoc, path: &str) -> Vec<SNodeId> {
        let ctx = ExecContext::new(doc);
        let g = PatternGraph::from_path(&parse_path(path).unwrap()).unwrap();
        eval_pattern_binary(&ctx, &g, None)
    }

    fn naive_eval(doc: &SuccinctDoc, path: &str) -> Vec<SNodeId> {
        let ctx = ExecContext::new(doc);
        naive::eval_path(&ctx, &[], &parse_path(path).unwrap())
            .unwrap()
            .into_iter()
            .map(|n| match n {
                NodeRef::Stored(s) => s,
                NodeRef::Built(_) => unreachable!(),
            })
            .collect()
    }

    fn assert_same(doc: &SuccinctDoc, path: &str) {
        assert_eq!(join_eval(doc, path), naive_eval(doc, path), "path `{path}`");
    }

    #[test]
    fn join_evaluation_matches_naive() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        for p in [
            "/bib/book/title",
            "//title",
            "//book/title",
            "/bib//author",
            "/bib/book[author]/title",
            "//book[@year = 1994]/title",
            "//book[price > 50]/title",
            "//*[keyword]/title",
            "/bib/book//text()",
            "//missing",
        ] {
            assert_same(&d, p);
        }
    }

    #[test]
    fn recursive_nesting_cases() {
        let d = SuccinctDoc::parse("<a><a><a><b/></a></a><b/></a>").unwrap();
        for p in ["//a//a", "//a//b", "//a[b]", "//a/a/b"] {
            assert_same(&d, p);
        }
    }

    #[test]
    fn semijoin_desc_basic() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let ctx = ExecContext::new(&d);
        let streams = ctx.streams();
        let books = streams.stream_by_name(&d, "book").to_vec();
        let authors = streams.stream_by_name(&d, "author").to_vec();
        let kept = semijoin_keep_desc(&ctx, &books, &authors, PRel::Descendant);
        assert_eq!(kept.len(), 3);
        let kept_pc = semijoin_keep_desc(&ctx, &books, &authors, PRel::Child);
        assert_eq!(kept_pc.len(), 3); // authors are direct children here
    }

    #[test]
    fn semijoin_anc_basic() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let ctx = ExecContext::new(&d);
        let streams = ctx.streams();
        let all_elems: Vec<Interval> = {
            let mut v: Vec<Interval> = d
                .elements()
                .map(|n| {
                    let (s, e, l) = d.interval(n);
                    Interval { start: s, end: e, level: l, node: n }
                })
                .collect();
            v.sort_by_key(|iv| iv.start);
            v
        };
        let keywords = streams.stream_by_name(&d, "keyword").to_vec();
        // Elements with a keyword descendant: bib + article.
        let kept = semijoin_keep_anc(&ctx, &all_elems, &keywords, PRel::Descendant);
        assert_eq!(kept.len(), 2);
        // Elements with a keyword *child*: article only.
        let kept_pc = semijoin_keep_anc(&ctx, &all_elems, &keywords, PRel::Child);
        assert_eq!(kept_pc.len(), 1);
        assert_eq!(d.name(kept_pc[0].node), "article");
    }

    #[test]
    fn join_counters_tick() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let ctx = ExecContext::new(&d);
        let g = PatternGraph::from_path(&parse_path("/bib/book[author]/title").unwrap()).unwrap();
        ctx.reset_counters();
        let _ = eval_pattern_binary(&ctx, &g, None);
        // One join per non-root arc at least.
        assert!(ctx.counters().structural_joins >= 2);
    }

    #[test]
    fn linear_ordered_any_order_is_exact() {
        let d =
            SuccinctDoc::parse("<r><a><b><c>1</c></b></a><a><b/></a><b><c>2</c></b><c>3</c></r>")
                .unwrap();
        let ctx = ExecContext::new(&d);
        let expect = naive_eval(&d, "//a//b//c");
        for order in [[0, 1], [1, 0]] {
            let got = eval_linear_ordered(&ctx, &["a", "b", "c"], &order);
            assert_eq!(got, expect, "order {order:?}");
        }
    }

    #[test]
    fn pair_join_orders_agree_but_differ_in_intermediates() {
        // Many a's each with b's; only some b's have c's.
        let mut doc = xqp_xml::Document::new();
        let root = doc.append_element(doc.root(), "r");
        for i in 0..100 {
            let a = doc.append_element(root, "a");
            for j in 0..3 {
                let b = doc.append_element(a, "b");
                if i % 10 == 0 && j == 0 {
                    doc.append_element(b, "c");
                }
            }
        }
        let sdoc = SuccinctDoc::from_document(&doc);
        let ctx = ExecContext::new(&sdoc);
        let expect = naive_eval(&sdoc, "//a//b//c");
        let (good, good_tuples) = eval_linear_pairs(&ctx, &["a", "b", "c"], &[1, 0]);
        let (bad, bad_tuples) = eval_linear_pairs(&ctx, &["a", "b", "c"], &[0, 1]);
        assert_eq!(good, expect);
        assert_eq!(bad, expect);
        // The cost-model order (rare pair first) materializes far less.
        assert!(good_tuples * 2 < bad_tuples, "good {good_tuples} vs bad {bad_tuples}");
    }

    #[test]
    fn index_probe_matches_scan_for_every_literal_type() {
        // Values chosen so lexicographic and numeric order disagree: "" and
        // "4x" sort below "5" as strings but are absent from the numeric
        // tree, "12" sorts below "5" as a string but above as a number.
        let d =
            SuccinctDoc::parse("<r><c/><c>abc</c><c>4x</c><c>12</c><c>7</c><c>5</c><c>5.0</c></r>")
                .unwrap();
        let index = xqp_storage::ValueIndex::build(&d);
        let scan_ctx = ExecContext::new(&d);
        let probe_ctx = ExecContext::new(&d).with_index(&index);
        for pred in [
            "c < \"5\"",
            "c <= \"5\"",
            "c > \"5\"",
            "c >= \"12\"",
            "c = \"\"",
            "c = \"5\"",
            "c < 5",
            "c <= 5",
            "c > 5",
            "c >= 12",
            "c = 5",
        ] {
            let path = format!("//*[{pred}]");
            let g = PatternGraph::from_path(&parse_path(&path).unwrap()).unwrap();
            // Vertex 1 under the root arc is the constrained `c` graft.
            let v = (0..g.vertices.len())
                .find(|&i| !g.vertices[i].constraints.is_empty())
                .expect("predicate produced a constrained vertex");
            let scanned = candidates(&scan_ctx, &g, v);
            let probed = candidates(&probe_ctx, &g, v);
            assert_eq!(probed, scanned, "pred `{pred}`");
        }
    }

    #[test]
    fn context_restricted_join_eval() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let ctx = ExecContext::new(&d);
        let bib = d.root().unwrap();
        let book2 = d.child_elements(bib).nth(1).unwrap();
        let mut g = PatternGraph::empty();
        let last = g.graft_path(g.root(), &parse_path("author").unwrap()).unwrap().unwrap();
        g.mark_output(last);
        let m = eval_pattern_binary(&ctx, &g, Some(book2));
        assert_eq!(m.len(), 2);
    }
}
