//! Cardinality statistics and the cost model.
//!
//! The paper lists a cost model as required infrastructure ("a cost model is
//! also needed as a basis of choosing the optimal physical query plan", §2)
//! but defers it to future work; this module supplies the natural one. It is
//! intentionally simple — per-tag cardinalities plus containment-style
//! selectivity guesses — which is enough to (a) order structural joins by
//! estimated input size (rule R4 / experiment E8) and (b) choose between a
//! NoK scan, a holistic twig join and a binary-join pipeline per pattern.

use crate::expr::Expr;
use crate::plan::LogicalPlan;
use std::collections::HashMap;
use xqp_xml::{Document, NodeKind};
use xqp_xpath::{PathExpr, PatternGraph, VertexKind};

/// Default selectivity of an equality value constraint.
const SEL_VALUE_EQ: f64 = 0.1;
/// Default selectivity of a range value constraint.
const SEL_VALUE_RANGE: f64 = 0.3;
/// Default selectivity of a `where` clause whose condition the model cannot
/// decompose.
const SEL_WHERE: f64 = 0.5;

/// The physical access methods a τ (tree-pattern-matching) operator can be
/// lowered to. The logical τ is one operator; these are its physical
/// implementations in `xqp-exec` (§2: "for each logical operator, many
/// physical operators that implement the same functionalities").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpmAccess {
    /// Single pre-order navigational scan (the paper's NoK matcher).
    NokScan,
    /// Holistic twig join over region-encoded tag streams.
    TwigStack,
    /// Pairwise stack-tree structural joins, R4-ordered.
    BinaryJoin,
}

impl TpmAccess {
    /// Display name used by EXPLAIN renderings.
    pub fn name(self) -> &'static str {
        match self {
            TpmAccess::NokScan => "nok",
            TpmAccess::TwigStack => "twigstack",
            TpmAccess::BinaryJoin => "binaryjoin",
        }
    }
}

/// Per-clause estimate produced by [`CostModel::cost_plan`], in the same
/// bottom-up order as [`LogicalPlan::clauses`] (EnvRoot first).
#[derive(Debug, Clone)]
pub struct ClauseEstimate {
    /// Estimated total bindings flowing *out* of this clause.
    pub rows: f64,
    /// Estimated work of this clause alone.
    pub cost: f64,
    /// For τ clauses: the chosen access method and its cost.
    pub access: Option<(TpmAccess, f64)>,
}

/// Whole-plan cost estimate: cardinality propagated through every clause of
/// a FLWOR pipeline, so join ordering (R4) and τ access-method choice come
/// out of one planning pass.
#[derive(Debug, Clone)]
pub struct PlanCostReport {
    /// One estimate per clause, bottom-up (EnvRoot first).
    pub clauses: Vec<ClauseEstimate>,
    /// Estimated bindings the pipeline delivers to its consumer.
    pub out_rows: f64,
    /// Sum of the per-clause costs.
    pub total_cost: f64,
}

/// Per-document cardinality statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocStatistics {
    /// Total stored nodes (elements + attributes + texts).
    pub node_count: usize,
    /// Element nodes only.
    pub element_count: usize,
    /// Occurrences per tag name (elements and attributes).
    pub tag_counts: HashMap<String, usize>,
    /// Maximum element depth.
    pub max_depth: usize,
}

impl DocStatistics {
    /// Gather statistics from an arena document.
    pub fn from_document(doc: &Document) -> Self {
        let mut s = DocStatistics::default();
        for i in 0..doc.len() as u32 {
            let id = xqp_xml::NodeId(i);
            match &doc.node(id).kind {
                NodeKind::Element { name, .. } => {
                    s.element_count += 1;
                    s.node_count += 1;
                    *s.tag_counts.entry(name.as_lexical()).or_insert(0) += 1;
                    s.max_depth = s.max_depth.max(doc.depth(id));
                }
                NodeKind::Attribute { name, .. } => {
                    s.node_count += 1;
                    *s.tag_counts.entry(name.as_lexical()).or_insert(0) += 1;
                }
                NodeKind::Text(_) => s.node_count += 1,
                _ => {}
            }
        }
        s
    }

    /// Assemble from pre-computed counts (the storage layer uses this to
    /// avoid materializing a DOM).
    pub fn from_counts(
        node_count: usize,
        element_count: usize,
        tag_counts: HashMap<String, usize>,
        max_depth: usize,
    ) -> Self {
        DocStatistics { node_count, element_count, tag_counts, max_depth }
    }

    /// Number of nodes matching a name test (`*` matches every element).
    pub fn tag_count(&self, test: &str) -> usize {
        if test == "*" {
            self.element_count
        } else {
            self.tag_counts.get(test).copied().unwrap_or(0)
        }
    }
}

/// The cost model over one document's statistics.
#[derive(Debug, Clone)]
pub struct CostModel<'a> {
    stats: &'a DocStatistics,
}

impl<'a> CostModel<'a> {
    /// Wrap statistics.
    pub fn new(stats: &'a DocStatistics) -> Self {
        CostModel { stats }
    }

    /// Estimated matches of one pattern vertex considered in isolation.
    pub fn vertex_cardinality(&self, g: &PatternGraph, v: usize) -> f64 {
        let vert = &g.vertices[v];
        let base = match vert.kind {
            VertexKind::Root => 1.0,
            // Saturating: `from_counts` callers can hand in element counts
            // that exceed the node total (and an empty document has zero of
            // both); a wrapped subtraction here turns into a 2^64 cardinality
            // that poisons every downstream estimate.
            VertexKind::Text => {
                self.stats.node_count.saturating_sub(self.stats.element_count) as f64
            }
            _ => self.stats.tag_count(&vert.label) as f64,
        };
        let sel: f64 = vert
            .constraints
            .iter()
            .map(|c| match c.op {
                xqp_xpath::CmpOp::Eq => SEL_VALUE_EQ,
                xqp_xpath::CmpOp::Ne => 1.0 - SEL_VALUE_EQ,
                _ => SEL_VALUE_RANGE,
            })
            .product();
        base * sel
    }

    /// Estimated embeddings of the whole pattern: the output-vertex
    /// cardinality damped by the existence selectivity of each branch.
    pub fn pattern_cardinality(&self, g: &PatternGraph) -> f64 {
        // Bottom-up: card(v) = card_local(v) · Π_children min(1, card(child)/card_local(v))
        fn rec(cm: &CostModel<'_>, g: &PatternGraph, v: usize) -> f64 {
            let local = cm.vertex_cardinality(g, v).max(1e-9);
            let mut card = local;
            for (c, _) in g.children(v) {
                let child = rec(cm, g, c);
                card *= (child / local).min(1.0);
            }
            card
        }
        if g.unsatisfiable {
            return 0.0;
        }
        rec(self, g, g.root())
    }

    /// Cost of one binary structural join over inputs of the given sizes
    /// (stack-tree is linear in inputs plus output).
    pub fn structural_join_cost(&self, left: f64, right: f64) -> f64 {
        left + right + 0.5 * left.min(right)
    }

    /// Cost of evaluating a pattern with one NoK navigational scan: a single
    /// sequential pass over the document structure.
    pub fn nok_scan_cost(&self, _g: &PatternGraph) -> f64 {
        self.stats.node_count as f64
    }

    /// Cost of a holistic twig join: the sum of the per-tag streams it must
    /// merge.
    pub fn twig_cost(&self, g: &PatternGraph) -> f64 {
        (1..g.vertices.len()).map(|v| self.vertex_cardinality(g, v)).sum()
    }

    /// Cost of the fully binary-join pipeline in a given order: joins are
    /// applied pairwise over the per-vertex streams.
    pub fn binary_join_pipeline_cost(&self, cards: &[f64]) -> f64 {
        if cards.is_empty() {
            return 0.0;
        }
        let mut acc = cards[0];
        let mut total = 0.0;
        for &c in &cards[1..] {
            total += self.structural_join_cost(acc, c);
            // Output estimate: containment joins rarely exceed the smaller
            // input by much.
            acc = acc.min(c).max(1.0);
        }
        total
    }

    /// Rule R4: order join inputs ascending by estimated cardinality so the
    /// cheapest pair joins first. Returns the permutation.
    pub fn choose_join_order(&self, cards: &[f64]) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..cards.len()).collect();
        idx.sort_by(|&a, &b| cards[a].total_cmp(&cards[b]));
        idx
    }

    /// Enumerate probe orders for an isolated join graph (R12): every
    /// permutation of the sides (≤ 6 sides, so ≤ 720 orders) is costed by
    /// summed intermediate cardinalities, where placing a side connected by
    /// an edge to an already-placed side applies the equality selectivity.
    /// Returns the cheapest permutation. FLWOR output order is fixed by the
    /// sides' source order, so this informs the physical build/probe
    /// strategy and the explain audit trail, not the result order.
    pub fn choose_join_graph_order(&self, cards: &[f64], edges: &[(usize, usize)]) -> Vec<usize> {
        let n = cards.len();
        if n == 0 {
            return Vec::new();
        }
        if n > 6 {
            // Too many sides to enumerate: R4-style ascending fallback.
            return self.choose_join_order(cards);
        }
        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut perm: Vec<usize> = (0..n).collect();
        permute(&mut perm, 0, &mut |p| {
            let mut placed: Vec<usize> = Vec::with_capacity(n);
            let mut inter = 1.0f64;
            let mut cost = 0.0f64;
            for &s in p {
                inter *= cards[s].max(1e-9);
                let connecting = edges
                    .iter()
                    .filter(|(a, b)| {
                        (*a == s && placed.contains(b)) || (*b == s && placed.contains(a))
                    })
                    .count();
                inter *= SEL_VALUE_EQ.powi(connecting as i32);
                placed.push(s);
                cost += inter;
            }
            if best.as_ref().is_none_or(|(c, _)| cost < *c) {
                best = Some((cost, p.to_vec()));
            }
        });
        best.map_or_else(|| (0..n).collect(), |(_, p)| p)
    }

    /// Cost of evaluating `g` with a specific access method. The binary
    /// pipeline is costed in its R4 join order.
    pub fn access_cost(&self, g: &PatternGraph, access: TpmAccess) -> f64 {
        match access {
            TpmAccess::NokScan => self.nok_scan_cost(g),
            TpmAccess::TwigStack => self.twig_cost(g),
            TpmAccess::BinaryJoin => {
                let cards: Vec<f64> =
                    (0..g.vertices.len()).map(|v| self.vertex_cardinality(g, v)).collect();
                let ordered: Vec<f64> =
                    self.choose_join_order(&cards).into_iter().map(|i| cards[i]).collect();
                self.binary_join_pipeline_cost(&ordered)
            }
        }
    }

    /// The `Auto` policy for one τ: a pure NoK pattern takes the single
    /// scan; otherwise the cheaper of the hybrid scan and the holistic twig
    /// join (the twig must win clearly — its constant factors are worse).
    pub fn choose_access(&self, g: &PatternGraph) -> (TpmAccess, f64) {
        let scan = self.nok_scan_cost(g);
        if g.is_nok_only() {
            return (TpmAccess::NokScan, scan);
        }
        let twig = self.twig_cost(g);
        if twig < scan * 0.5 {
            (TpmAccess::TwigStack, twig)
        } else {
            (TpmAccess::NokScan, scan)
        }
    }

    /// Estimated result cardinality of a path: the final step's tag count
    /// (document-wide — the caller decides whether that total is spread
    /// across outer bindings or multiplied by them).
    pub fn path_cardinality(&self, path: &PathExpr) -> f64 {
        match path.steps.last() {
            Some(step) => (self.stats.tag_count(step.test.label()) as f64).max(0.0),
            None => 1.0,
        }
    }

    /// Estimated result cardinality of an arbitrary expression: paths and
    /// compiled patterns use the statistics; scalars estimate 1.
    pub fn expr_cardinality(&self, e: &Expr) -> f64 {
        match e {
            Expr::Path { path, .. } => self.path_cardinality(path),
            Expr::CompiledPath { path, plan, .. } => {
                if let crate::plan::PathOp::TpmFrom { pattern, .. } = plan.as_ref() {
                    self.pattern_cardinality(pattern)
                } else {
                    self.path_cardinality(path)
                }
            }
            Expr::SequenceExpr(items) => items.iter().map(|i| self.expr_cardinality(i)).sum(),
            Expr::If { then_branch, else_branch, .. } => {
                self.expr_cardinality(then_branch).max(self.expr_cardinality(else_branch))
            }
            Expr::Flwor(plan) => self.cost_plan(plan).out_rows,
            // Aggregate calls and quantifiers reduce their argument to a
            // single item — the cardinality of the streaming fold's output,
            // however large the folded input estimate was.
            Expr::Call { .. } | Expr::Quantified { .. } => 1.0,
            _ => 1.0,
        }
    }

    /// Whole-plan costing: walk the clause pipeline bottom-up, propagating
    /// the estimated binding count through every for/let/where/order-by/τ
    /// layer. This is where R4-style ordering information and the τ access
    /// choice meet in a single pass — the physical planner in `xqp-exec`
    /// annotates its operators directly from this report.
    pub fn cost_plan(&self, plan: &LogicalPlan) -> PlanCostReport {
        let mut clauses = Vec::new();
        let mut rows = 0.0f64;
        for clause in plan.clauses() {
            let est = match clause {
                LogicalPlan::EnvRoot => ClauseEstimate { rows: 1.0, cost: 0.0, access: None },
                LogicalPlan::ForBind { source, .. } => {
                    let total = self.expr_cardinality(source).max(0.0);
                    // A correlated source (`$b/author`) spreads its total
                    // matches across the upstream bindings; an independent
                    // source re-produces them per binding.
                    let out = if source.free_vars().is_empty() { rows * total } else { total };
                    ClauseEstimate { rows: out, cost: rows + out, access: None }
                }
                LogicalPlan::LetBind { .. } => ClauseEstimate { rows, cost: rows, access: None },
                LogicalPlan::Where { .. } => {
                    ClauseEstimate { rows: rows * SEL_WHERE, cost: rows, access: None }
                }
                LogicalPlan::OrderBy { .. } => {
                    let n = rows.max(1.0);
                    ClauseEstimate { rows, cost: n * n.log2().max(1.0), access: None }
                }
                LogicalPlan::TpmBind { pattern, vars, .. } => {
                    let (access, acc_cost) = self.choose_access(pattern);
                    let mut out = rows;
                    let mut anchor = 1.0f64;
                    for tv in vars {
                        let c = self.vertex_cardinality(pattern, tv.vertex).max(0.0);
                        if tv.one_to_many {
                            out *= (c / anchor).max(1e-6);
                            anchor = c.max(1e-9);
                        }
                    }
                    ClauseEstimate {
                        rows: out,
                        cost: acc_cost + out,
                        access: Some((access, acc_cost)),
                    }
                }
                LogicalPlan::JoinGraph { sides, edges, .. } => {
                    let cards: Vec<f64> =
                        sides.iter().map(|s| self.expr_cardinality(&s.source).max(0.0)).collect();
                    let cross: f64 = cards.iter().product();
                    // Each equi-edge prunes the cross product like an
                    // equality constraint.
                    let sel = SEL_VALUE_EQ.powi(edges.len() as i32);
                    let out = rows * cross * sel;
                    // Hash join: evaluate each side once per upstream row,
                    // build + probe linear in the inputs, emit the output.
                    let side_work: f64 = cards.iter().sum();
                    ClauseEstimate { rows: out, cost: rows * side_work + out, access: None }
                }
                LogicalPlan::ReturnClause { .. } => {
                    ClauseEstimate { rows, cost: rows, access: None }
                }
            };
            rows = est.rows;
            clauses.push(est);
        }
        let total_cost = clauses.iter().map(|c| c.cost).sum();
        PlanCostReport { clauses, out_rows: rows, total_cost }
    }
}

/// Visit every permutation of `items` (recursive swap enumeration).
fn permute(items: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        f(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, f);
        items.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::TpmVar;
    use xqp_xml::parse_document;
    use xqp_xpath::{parse_path, PatternGraph};

    fn stats() -> DocStatistics {
        let doc = parse_document(
            "<bib>\
             <book year=\"1\"><title>a</title><author>x</author><author>y</author></book>\
             <book year=\"2\"><title>b</title><author>z</author></book>\
             <article><title>c</title></article>\
             </bib>",
        )
        .unwrap();
        DocStatistics::from_document(&doc)
    }

    #[test]
    fn counts_from_document() {
        let s = stats();
        assert_eq!(s.tag_count("book"), 2);
        assert_eq!(s.tag_count("author"), 3);
        assert_eq!(s.tag_count("title"), 3);
        assert_eq!(s.tag_count("year"), 2); // attributes counted
        assert_eq!(s.tag_count("absent"), 0);
        assert_eq!(s.tag_count("*"), s.element_count);
        assert_eq!(s.element_count, 10);
        assert!(s.max_depth >= 3);
    }

    #[test]
    fn vertex_cardinality_uses_tags_and_constraints() {
        let s = stats();
        let cm = CostModel::new(&s);
        let g = PatternGraph::from_path(&parse_path("/bib/book[@year = 1]").unwrap()).unwrap();
        let book = g.vertices.iter().position(|v| v.label == "book").unwrap();
        let year = g.vertices.iter().position(|v| v.label == "year").unwrap();
        assert_eq!(cm.vertex_cardinality(&g, book), 2.0);
        // 2 year attributes × 0.1 equality selectivity
        assert!((cm.vertex_cardinality(&g, year) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn pattern_cardinality_monotone_in_constraints() {
        let s = stats();
        let cm = CostModel::new(&s);
        let free = PatternGraph::from_path(&parse_path("/bib/book").unwrap()).unwrap();
        let constrained =
            PatternGraph::from_path(&parse_path("/bib/book[@year = 1]").unwrap()).unwrap();
        assert!(cm.pattern_cardinality(&constrained) < cm.pattern_cardinality(&free));
        assert!(cm.pattern_cardinality(&free) <= 2.0 + 1e-9);
    }

    #[test]
    fn unsatisfiable_pattern_is_zero() {
        let s = stats();
        let cm = CostModel::new(&s);
        let g = PatternGraph::from_path(&parse_path("/bib[1 = 2]").unwrap()).unwrap();
        assert_eq!(cm.pattern_cardinality(&g), 0.0);
    }

    #[test]
    fn join_order_sorts_ascending() {
        let s = stats();
        let cm = CostModel::new(&s);
        let order = cm.choose_join_order(&[100.0, 1.0, 50.0]);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn good_join_order_is_cheaper() {
        let s = stats();
        let cm = CostModel::new(&s);
        let cards = [1000.0, 10.0, 500.0];
        let good: Vec<f64> = cm.choose_join_order(&cards).iter().map(|&i| cards[i]).collect();
        let bad: Vec<f64> = vec![1000.0, 500.0, 10.0];
        assert!(cm.binary_join_pipeline_cost(&good) < cm.binary_join_pipeline_cost(&bad));
    }

    #[test]
    fn nok_cost_is_one_scan() {
        let s = stats();
        let cm = CostModel::new(&s);
        let g = PatternGraph::from_path(&parse_path("/bib/book[author]/title").unwrap()).unwrap();
        assert_eq!(cm.nok_scan_cost(&g), s.node_count as f64);
        // A twig over rare tags costs less than a full scan; over every tag
        // it can cost more. Here streams are small:
        assert!(cm.twig_cost(&g) < cm.nok_scan_cost(&g) * 2.0);
    }

    #[test]
    fn choose_access_prefers_nok_for_nok_only_patterns() {
        let s = stats();
        let cm = CostModel::new(&s);
        let g = PatternGraph::from_path(&parse_path("/bib/book/title").unwrap()).unwrap();
        assert!(g.is_nok_only());
        let (access, cost) = cm.choose_access(&g);
        assert_eq!(access, TpmAccess::NokScan);
        assert_eq!(cost, cm.nok_scan_cost(&g));
    }

    #[test]
    fn choose_access_picks_twig_when_streams_are_sparse() {
        // 1000 nodes but the queried tags are rare → twig beats the scan.
        let mut tags = HashMap::new();
        tags.insert("bib".to_string(), 1usize);
        tags.insert("book".to_string(), 3);
        tags.insert("title".to_string(), 3);
        let s = DocStatistics::from_counts(1000, 900, tags, 4);
        let cm = CostModel::new(&s);
        let g = PatternGraph::from_path(&parse_path("/bib//book/title").unwrap()).unwrap();
        assert!(!g.is_nok_only());
        let (access, cost) = cm.choose_access(&g);
        assert_eq!(access, TpmAccess::TwigStack);
        assert_eq!(cost, cm.twig_cost(&g));
        // Every named access method has a finite cost.
        for a in [TpmAccess::NokScan, TpmAccess::TwigStack, TpmAccess::BinaryJoin] {
            assert!(cm.access_cost(&g, a).is_finite());
        }
    }

    #[test]
    fn expr_cardinality_uses_last_step_tag() {
        let s = stats();
        let cm = CostModel::new(&s);
        let authors = Expr::doc_path(parse_path("/bib/book/author").unwrap());
        assert_eq!(cm.expr_cardinality(&authors), 3.0);
        assert_eq!(cm.expr_cardinality(&Expr::lit(1i64)), 1.0);
        let seq = Expr::SequenceExpr(vec![authors.clone(), authors]);
        assert_eq!(cm.expr_cardinality(&seq), 6.0);
    }

    #[test]
    fn cost_plan_propagates_cardinality_through_clauses() {
        let s = stats();
        let cm = CostModel::new(&s);
        // for $b in doc()/bib/book  where …  return $b/title
        let plan = LogicalPlan::ReturnClause {
            input: Box::new(LogicalPlan::Where {
                input: Box::new(LogicalPlan::ForBind {
                    input: Box::new(LogicalPlan::EnvRoot),
                    var: "b".into(),
                    source: Expr::doc_path(parse_path("/bib/book").unwrap()),
                }),
                cond: Expr::lit(true),
            }),
            expr: Expr::var_path("b", parse_path("title").unwrap()),
        };
        let report = cm.cost_plan(&plan);
        assert_eq!(report.clauses.len(), 4);
        // EnvRoot → 1 row, for → 2 books, where → damped, return unchanged.
        assert_eq!(report.clauses[0].rows, 1.0);
        assert_eq!(report.clauses[1].rows, 2.0);
        assert!(report.clauses[2].rows < 2.0);
        assert_eq!(report.out_rows, report.clauses[3].rows);
        assert!(report.total_cost > 0.0);
    }

    #[test]
    fn cost_plan_tpm_bind_reports_access_choice() {
        let s = stats();
        let cm = CostModel::new(&s);
        let g = PatternGraph::from_path(&parse_path("/bib/book/author").unwrap()).unwrap();
        let book = g.vertices.iter().position(|v| v.label == "book").unwrap();
        let plan = LogicalPlan::ReturnClause {
            input: Box::new(LogicalPlan::TpmBind {
                input: Box::new(LogicalPlan::EnvRoot),
                pattern: g,
                vars: vec![TpmVar { var: "b".into(), vertex: book, one_to_many: true }],
            }),
            expr: Expr::var("b"),
        };
        let report = cm.cost_plan(&plan);
        let tpm = &report.clauses[1];
        let (access, cost) = tpm.access.expect("τ clause must report its access method");
        assert_eq!(access, TpmAccess::NokScan);
        assert!(cost > 0.0);
        assert!((tpm.rows - 2.0).abs() < 1e-9); // two books
    }

    #[test]
    fn costing_an_empty_document_is_finite() {
        // Zero nodes, zero elements, no tags: every estimate must come out
        // finite and non-negative — no division by zero, no underflow.
        let s = DocStatistics::default();
        let cm = CostModel::new(&s);
        let g =
            PatternGraph::from_path(&parse_path("/bib//book[@year = 1]/text()").unwrap()).unwrap();
        for v in 0..g.vertices.len() {
            let c = cm.vertex_cardinality(&g, v);
            assert!(c.is_finite() && c >= 0.0, "vertex {v}: {c}");
        }
        assert!(cm.pattern_cardinality(&g).is_finite());
        for a in [TpmAccess::NokScan, TpmAccess::TwigStack, TpmAccess::BinaryJoin] {
            let c = cm.access_cost(&g, a);
            assert!(c.is_finite() && c >= 0.0, "{a:?}: {c}");
        }
        let (_, cost) = cm.choose_access(&g);
        assert!(cost.is_finite());
        // Whole-plan costing over the empty document.
        let plan = LogicalPlan::ReturnClause {
            input: Box::new(LogicalPlan::OrderBy {
                input: Box::new(LogicalPlan::ForBind {
                    input: Box::new(LogicalPlan::EnvRoot),
                    var: "b".into(),
                    source: Expr::doc_path(parse_path("/bib/book").unwrap()),
                }),
                keys: vec![],
            }),
            expr: Expr::var("b"),
        };
        let report = cm.cost_plan(&plan);
        assert!(report.total_cost.is_finite() && report.total_cost >= 0.0);
        assert!(report.out_rows.is_finite());
    }

    #[test]
    fn text_cardinality_saturates_on_inconsistent_counts() {
        // element_count > node_count (a from_counts caller bug) must clamp
        // to zero, not wrap to 2^64.
        let s = DocStatistics::from_counts(3, 10, HashMap::new(), 2);
        let cm = CostModel::new(&s);
        let g = PatternGraph::from_path(&parse_path("/a/text()").unwrap()).unwrap();
        let text = g
            .vertices
            .iter()
            .position(|v| matches!(v.kind, VertexKind::Text))
            .expect("pattern has a text vertex");
        assert_eq!(cm.vertex_cardinality(&g, text), 0.0);
    }

    #[test]
    fn from_counts_constructor() {
        let mut tags = HashMap::new();
        tags.insert("a".to_string(), 5usize);
        let s = DocStatistics::from_counts(10, 7, tags, 4);
        assert_eq!(s.tag_count("a"), 5);
        assert_eq!(s.tag_count("*"), 7);
        assert_eq!(s.max_depth, 4);
    }
}
