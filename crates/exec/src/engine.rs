//! The executor — parse → optimize → evaluate → serialize.

use crate::cache::{CompiledPlan, PlanCache};
use crate::context::{ExecContext, ExecCounters, NodeRef, StructuralIndex, Val, XqError};
use crate::eval::{Evaluator, Scope};
use crate::governor::ResourceGovernor;
use crate::physical::{self, EvalMode};
use crate::planner::Strategy;
use std::sync::Arc;
use std::time::Instant;
use xqp_algebra::{optimize_expr, Expr, Item, LogicalPlan, RewriteReport, RuleSet};
use xqp_algebra::{SchemaNode, SchemaTree};
use xqp_storage::{BufferStats, SKind, SNodeId, StoreCounters, SuccinctDoc, ValueIndex};
use xqp_xml::serialize::{escape_attr, escape_text};

/// A configured query executor over one stored document.
///
/// `Send + Sync`: one executor can serve queries from many threads at once
/// (see `tests/concurrency.rs`), and `Strategy::Parallel` fans single
/// queries out over scoped worker threads.
pub struct Executor<'a> {
    ctx: ExecContext<'a>,
    strategy: Strategy,
    rules: RuleSet,
    mode: EvalMode,
    plan_cache: Arc<PlanCache>,
    cache_scope: Option<String>,
    persist: Option<StoreCounters>,
    buffer: Option<BufferStats>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Executor<'_>>();
};

impl<'a> Executor<'a> {
    /// An executor with the default (all rules, auto strategy) configuration
    /// and a private plan cache.
    pub fn new(doc: &'a SuccinctDoc) -> Self {
        Executor {
            ctx: ExecContext::new(doc),
            strategy: Strategy::Auto,
            rules: RuleSet::all(),
            mode: EvalMode::default(),
            plan_cache: Arc::new(PlanCache::default()),
            cache_scope: None,
            persist: None,
            buffer: None,
        }
    }

    /// Attach a value index (σv probes).
    pub fn with_index(mut self, index: &'a ValueIndex) -> Self {
        self.ctx = self.ctx.with_index(index);
        self
    }

    /// Read tag streams and statistics from a shared structural-index slot
    /// (one per document version, see [`crate::mvcc::DocVersion`]) so the
    /// index is built once per version, not once per executor. The slot
    /// must belong to this executor's document.
    pub fn with_structural_index(mut self, structure: Arc<StructuralIndex>) -> Self {
        self.ctx = self.ctx.with_structural_index(structure);
        self
    }

    /// Fix the physical strategy.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Fix the rewrite-rule set.
    pub fn with_rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Select how FLWOR plans execute: streamed through the physical
    /// pipeline (default) or materialized clause-at-a-time.
    pub fn with_eval_mode(mut self, mode: EvalMode) -> Self {
        self.mode = mode;
        self
    }

    /// Share a plan cache with this executor. `xqp::Database` keeps one
    /// cache per stored document so compiled plans survive across the
    /// short-lived executors it builds per query.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> Self {
        self.plan_cache = cache;
        self
    }

    /// The plan cache in use.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// Scope the plan-cache keys this executor produces. MVCC snapshots
    /// share one cache per document across versions and fold the snapshot's
    /// generation (and, in the server, the document name) into the scope:
    /// installing a new version *logically* invalidates every cached plan —
    /// old-generation entries stop matching and age out via LRU — without
    /// clearing the cache, so a slow reader still holding the old snapshot
    /// can keep inserting plans under its own generation's keys without
    /// racing fresh entries. Counters (hits/misses/evictions) accumulate
    /// across scopes, preserving cache-traffic continuity over updates.
    pub fn with_cache_scope(mut self, scope: impl Into<String>) -> Self {
        self.cache_scope = Some(scope.into());
        self
    }

    /// Attach a per-query resource governor (deadline, memory budget, row
    /// cap, cancellation). The governor's deadline clock starts when the
    /// governor was created, so build it just before running the query.
    pub fn with_governor(mut self, governor: Arc<ResourceGovernor>) -> Self {
        self.ctx = self.ctx.with_governor(governor);
        self
    }

    /// Attach persistence-traffic counters (from the document's durable
    /// store) so they surface through [`Executor::counters`] and the
    /// `explain` rendering next to the plan-cache line.
    pub fn with_persist_stats(mut self, counters: StoreCounters) -> Self {
        self.persist = Some(counters);
        self
    }

    /// Attach buffer-pool statistics (from the database's page pool) so
    /// they surface through [`Executor::counters`] and the `explain`
    /// rendering next to the persistence line.
    pub fn with_buffer_stats(mut self, stats: BufferStats) -> Self {
        self.buffer = Some(stats);
        self
    }

    /// The execution context (counters, statistics).
    pub fn context(&self) -> &ExecContext<'a> {
        &self.ctx
    }

    /// Work counters accumulated so far (evaluation work from the context,
    /// plan-cache traffic from the cache).
    pub fn counters(&self) -> ExecCounters {
        let mut c = self.ctx.counters();
        let (hits, misses, evictions) = self.plan_cache.stats();
        c.plan_hits = hits;
        c.plan_misses = misses;
        c.plan_evictions = evictions;
        if let Some(p) = self.persist {
            c.persist_bytes_written = p.bytes_written;
            c.persist_records_replayed = p.records_replayed;
            c.persist_compactions = p.compactions;
            c.persist_group_commits = p.group_commits;
            c.persist_group_records = p.group_records;
            c.persist_group_max_batch = p.group_max_batch;
        }
        if let Some(b) = self.buffer {
            c.buffer_hits = b.hits;
            c.buffer_misses = b.misses;
            c.buffer_evictions = b.evictions;
            c.buffer_pinned_peak = b.pinned_peak;
        }
        c
    }

    /// Reset work counters.
    pub fn reset_counters(&self) {
        self.ctx.reset_counters()
    }

    /// The plan-cache variant tag: the strategy, with the worker count kept
    /// for `Parallel` since it changes the lowered plan's annotations, and
    /// the cache scope (document generation under MVCC) prefixed when set.
    fn variant(&self) -> String {
        let base = match self.strategy {
            Strategy::Parallel { threads } => format!("parallel:{threads}"),
            s => s.name().to_string(),
        };
        match &self.cache_scope {
            Some(scope) => format!("{scope}#{base}"),
            None => base,
        }
    }

    /// Front end: parse + rewrite `query` and lower its FLWOR (if any) to
    /// the physical pipeline, consulting the plan cache.
    fn compile(&self, query: &str) -> Result<CompiledPlan, XqError> {
        self.plan_cache.get_or_compile(query, &self.variant(), &self.rules, || {
            let body =
                xqp_xquery::parse_query(query).map_err(|e| XqError::new(e.to_string()))?.body;
            let (body, report) = optimize_expr(body, &self.rules);
            let physical = flwor_of(&body)
                .and_then(|plan| physical::lower(plan, &self.ctx, self.strategy).ok())
                .map(Arc::new);
            Ok(CompiledPlan { body, report, physical })
        })
    }

    /// Run a query, returning the result sequence as items.
    ///
    /// Errors — including governor limit trips — come back decorated with
    /// the query text and the elapsed wall-clock time, so a CLI user can
    /// tell *which* query hit *what* after how long. The decoration keeps
    /// the stable `"resource governor"` class marker intact
    /// ([`XqError::is_resource_limit`] still classifies correctly).
    pub fn query_items(&self, query: &str) -> Result<Val, XqError> {
        let started = Instant::now();
        self.query_items_inner(query).map_err(|e| decorate_error(e, query, started))
    }

    fn query_items_inner(&self, query: &str) -> Result<Val, XqError> {
        let plan = self.compile(query)?;
        let ev = Evaluator::new(&self.ctx, self.strategy)
            .with_mode(self.mode)
            .with_physical(plan.physical.clone());
        let items = ev.eval(&plan.body, &Scope::root())?;
        // Backstop: sweep loops that cannot return `Result` bail out early
        // on a trip, so the sticky trip must resurface here — a truncated
        // result never escapes. The absolute row-cap check covers paths
        // that do not stream their output through `note_rows`.
        self.ctx.governor_check()?;
        self.ctx.governor_check_total_rows(items.len() as u64)?;
        Ok(items)
    }

    /// Run a query, returning serialized XML (items separated per XQuery
    /// serialization: adjacent atoms space-joined, nodes concatenated).
    pub fn query(&self, query: &str) -> Result<String, XqError> {
        let items = self.query_items(query)?;
        Ok(self.serialize_items(&items))
    }

    /// Optimize without executing; returns the plan rendering (including a
    /// plan-cache traffic line) and which rules fired.
    pub fn explain(&self, query: &str) -> Result<(String, RewriteReport), XqError> {
        let plan = self.compile(query)?;
        let mut rendering = render_plan(&plan.body);
        if !rendering.ends_with('\n') {
            rendering.push('\n');
        }
        rendering.push_str(&render_optimizer(&plan.report));
        if let Some(phys) = &plan.physical {
            rendering.push_str(&phys.render(self.mode));
        }
        let (hits, misses, evictions) = self.plan_cache.stats();
        rendering.push_str(&format!(
            "-- plan cache: hits={hits} misses={misses} evictions={evictions} entries={}/{}\n",
            self.plan_cache.len(),
            self.plan_cache.capacity(),
        ));
        let c = self.ctx.counters();
        rendering.push_str(&format!(
            "-- governor: checks={} trips={}\n",
            c.governor_checks, c.governor_trips,
        ));
        if let Some(p) = self.persist {
            rendering.push_str(&format!(
                "-- persistence: bytes_written={} records_replayed={} compactions={} \
                 group_commits={} group_records={} group_max_batch={}\n",
                p.bytes_written,
                p.records_replayed,
                p.compactions,
                p.group_commits,
                p.group_records,
                p.group_max_batch,
            ));
        }
        if let Some(b) = self.buffer {
            rendering.push_str(&format!(
                "-- buffer pool: capacity={} resident={} hits={} misses={} evictions={} \
                 pinned_peak={} overcommits={}\n",
                b.capacity, b.resident, b.hits, b.misses, b.evictions, b.pinned_peak, b.overcommits,
            ));
        }
        Ok((rendering, plan.report))
    }

    /// Evaluate a bare path expression to node ids (strategy-dispatched).
    pub fn eval_path_str(&self, path: &str) -> Result<Vec<SNodeId>, XqError> {
        let parsed = xqp_xpath::parse_path(path).map_err(|e| XqError::new(e.to_string()))?;
        // Relative paths have no context here, so they select nothing (the
        // naive cascade's semantics). Compiling one to a pattern would
        // silently root it at the document instead — the pattern graph has
        // no way to say "relative" — so only absolute paths take the TPM
        // fast path. Found by the differential strategy sweep: `select
        // descendant::b` returned every `b` under NoK/TwigStack/BinaryJoin
        // but nothing under Naive.
        if parsed.absolute && self.strategy != Strategy::Naive && self.rules.fuse_tpm {
            let (op, _) = xqp_algebra::optimize_path(&parsed, &self.rules);
            if let xqp_algebra::PathOp::TpmFrom { pattern, .. } = &op {
                let hits = crate::planner::eval_pattern(&self.ctx, pattern, None, self.strategy);
                self.ctx.governor_check()?;
                return Ok(hits);
            }
        }
        let out = crate::naive::eval_path(&self.ctx, &[], &parsed)?;
        // Same backstop as `query_items`: poll-based sweep bail-outs must
        // not pass off a partial node set as the answer.
        self.ctx.governor_check()?;
        Ok(out
            .into_iter()
            .map(|n| match n {
                NodeRef::Stored(s) => s,
                NodeRef::Built(_) => unreachable!("paths over the stored document"),
            })
            .collect())
    }

    /// Serialize a result sequence.
    pub fn serialize_items(&self, items: &Val) -> String {
        let mut out = String::new();
        let mut prev_atom = false;
        for item in items {
            match item {
                Item::Atom(a) => {
                    if prev_atom {
                        out.push(' ');
                    }
                    out.push_str(&a.as_string());
                    prev_atom = true;
                }
                Item::Node(n) => {
                    out.push_str(&self.serialize_node(*n));
                    prev_atom = false;
                }
            }
        }
        out
    }

    /// Serialize one node (stored or constructed).
    pub fn serialize_node(&self, n: NodeRef) -> String {
        match n {
            NodeRef::Stored(s) => serialize_stored(self.ctx.sdoc, s),
            NodeRef::Built(b) => self.ctx.with_built(|d| xqp_xml::serialize_node(d, b)),
        }
    }
}

/// Attach the query text (trimmed and truncated) and the elapsed wall-clock
/// time to an error — actionable diagnostics for CLI users, most useful for
/// governor deadline trips ("what ran too long, and for how long").
fn decorate_error(e: XqError, query: &str, started: Instant) -> XqError {
    let elapsed = started.elapsed().as_millis();
    let trimmed = query.trim();
    let mut q: String = trimmed.chars().take(80).collect();
    if trimmed.chars().count() > 80 {
        q.push('…');
    }
    XqError::new(format!("{} (query `{q}`, after {elapsed} ms)", e.0))
}

/// Render the optimizer trace: one line per attempted rule pass in pipeline
/// order, with the plan diff of every firing indented beneath it. Empty for
/// non-FLWOR queries (no pipeline ran).
fn render_optimizer(report: &RewriteReport) -> String {
    if report.passes.is_empty() {
        return String::new();
    }
    let fired = report.passes.iter().filter(|p| p.fired).count();
    let mut out = format!(
        "-- optimizer: {} passes, {} fired (budget {})\n",
        report.passes.len(),
        fired,
        xqp_algebra::REWRITE_BUDGET,
    );
    for p in &report.passes {
        out.push_str(&format!("   {}: {}\n", p.rule, if p.fired { "fired" } else { "no match" }));
        for d in &p.diff {
            out.push_str(&format!("     {d}\n"));
        }
    }
    out
}

/// The first FLWOR pipeline embedded in a constructor's schema tree — the
/// paper's Fig. 1 γ-over-pipeline shape.
fn first_flwor(tree: &SchemaTree) -> Option<&LogicalPlan> {
    fn rec(n: &SchemaNode) -> Option<&LogicalPlan> {
        match n {
            SchemaNode::Placeholder(Expr::Flwor(p)) => Some(p),
            SchemaNode::Element { children, .. } => children.iter().find_map(rec),
            SchemaNode::If { then_children, else_children, .. } => {
                then_children.iter().chain(else_children).find_map(rec)
            }
            _ => None,
        }
    }
    rec(&tree.root)
}

/// The FLWOR pipeline a query body runs — direct, or embedded in a γ.
fn flwor_of(body: &Expr) -> Option<&LogicalPlan> {
    match body {
        Expr::Flwor(plan) => Some(plan),
        Expr::Construct(tree) => first_flwor(tree),
        _ => None,
    }
}

/// Render an optimized query body: FLWOR pipelines expand to their plan,
/// and a constructor-topped query (γ over a FLWOR placeholder, the paper's
/// Fig. 1 shape) shows the γ line above the embedded pipeline.
fn render_plan(body: &Expr) -> String {
    match body {
        Expr::Flwor(plan) => plan.explain(),
        Expr::Construct(tree) => match first_flwor(tree) {
            Some(plan) => {
                let mut out = format!("γ[{}]\n", tree.root_name());
                for line in plan.explain().lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
                out
            }
            None => format!("γ[{}]\n", tree.root_name()),
        },
        other => format!("{other}\n"),
    }
}

/// Serialize a stored subtree without materializing a DOM.
pub fn serialize_stored(sdoc: &SuccinctDoc, n: SNodeId) -> String {
    let mut out = String::new();
    write_stored(sdoc, n, &mut out);
    out
}

fn write_stored(sdoc: &SuccinctDoc, n: SNodeId, out: &mut String) {
    match sdoc.kind(n) {
        SKind::Text => out.push_str(&escape_text(sdoc.content(n).as_deref().unwrap_or_default())),
        SKind::Attribute => {
            // A bare attribute serializes as name="value".
            out.push_str(sdoc.name(n));
            out.push_str("=\"");
            out.push_str(&escape_attr(sdoc.content(n).as_deref().unwrap_or_default()));
            out.push('"');
        }
        SKind::Element => {
            out.push('<');
            out.push_str(sdoc.name(n));
            let mut has_children = false;
            let kids: Vec<SNodeId> = sdoc.children(n).collect();
            for &c in &kids {
                if sdoc.is_attribute(c) {
                    out.push(' ');
                    out.push_str(sdoc.name(c));
                    out.push_str("=\"");
                    out.push_str(&escape_attr(sdoc.content(c).as_deref().unwrap_or_default()));
                    out.push('"');
                } else {
                    has_children = true;
                }
            }
            if !has_children {
                out.push_str("/>");
                return;
            }
            out.push('>');
            for &c in &kids {
                if !sdoc.is_attribute(c) {
                    write_stored(sdoc, c, out);
                }
            }
            out.push_str("</");
            out.push_str(sdoc.name(n));
            out.push('>');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIB: &str = "<bib>\
        <book year=\"1994\"><title>TCP</title><author>Stevens</author><price>65</price></book>\
        <book year=\"2000\"><title>Data</title><author>Abiteboul</author><author>Buneman</author><price>39</price></book>\
        </bib>";

    fn exec(doc: &SuccinctDoc) -> Executor<'_> {
        Executor::new(doc)
    }

    #[test]
    fn fig1_use_case_end_to_end() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let out = exec(&d)
            .query(
                "<results> { for $b in doc(\"bib.xml\")/bib/book \
                 let $t := $b/title let $a := $b/author \
                 return <result> {$t} {$a} </result> } </results>",
            )
            .unwrap();
        assert_eq!(
            out,
            "<results><result><title>TCP</title><author>Stevens</author></result>\
             <result><title>Data</title><author>Abiteboul</author><author>Buneman</author></result></results>"
                .replace("</result>\\\n             <result>", "</result><result>")
        );
    }

    #[test]
    fn path_query_serialization() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let out = exec(&d).query("/bib/book/title").unwrap();
        assert_eq!(out, "<title>TCP</title><title>Data</title>");
    }

    #[test]
    fn attribute_results_serialize_as_pairs() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let out = exec(&d).query("/bib/book/@year").unwrap();
        assert_eq!(out, "year=\"1994\"year=\"2000\"");
    }

    #[test]
    fn atom_results_space_joined() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let out = exec(&d).query("(1, 2, \"x\")").unwrap();
        assert_eq!(out, "1 2 x");
    }

    #[test]
    fn eval_path_str_matches_across_strategies() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        for s in [
            Strategy::Auto,
            Strategy::NoK,
            Strategy::TwigStack,
            Strategy::BinaryJoin,
            Strategy::Naive,
        ] {
            let e = Executor::new(&d).with_strategy(s);
            let hits = e.eval_path_str("//book[price > 50]/title").unwrap();
            assert_eq!(hits.len(), 1, "strategy {s:?}");
            assert_eq!(d.string_value(hits[0]), "TCP");
        }
    }

    #[test]
    fn explain_reports_rules() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let (plan, report) =
            exec(&d).explain("for $b in doc()/bib/book let $t := $b/title return $t").unwrap();
        assert!(plan.contains("tpm-bind"), "{plan}");
        assert_eq!(report.count("R5"), 1);
    }

    #[test]
    fn explain_without_rules_shows_plain_pipeline() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let e = Executor::new(&d).with_rules(RuleSet::none());
        let (plan, report) =
            e.explain("for $b in doc()/bib/book let $t := $b/title return $t").unwrap();
        assert!(plan.contains("for $b"), "{plan}");
        assert!(plan.contains("let $t"), "{plan}");
        assert!(report.applied.is_empty());
    }

    #[test]
    fn serialize_stored_escapes() {
        let d = SuccinctDoc::parse("<a x=\"&quot;&amp;\">a&lt;b</a>").unwrap();
        let s = serialize_stored(&d, d.root().unwrap());
        assert_eq!(s, "<a x=\"&quot;&amp;\">a&lt;b</a>");
    }

    #[test]
    fn parse_errors_surface() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        assert!(exec(&d).query("for $x in").is_err());
        assert!(exec(&d).eval_path_str("//a[").is_err());
    }

    #[test]
    fn repeated_queries_hit_the_plan_cache() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let e = exec(&d);
        let a = e.query("/bib/book/title").unwrap();
        let b = e.query("/bib/book/title").unwrap();
        let c = e.query("  /bib/book/title  ").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
        let counters = e.counters();
        assert_eq!(counters.plan_misses, 1);
        assert_eq!(counters.plan_hits, 2);
    }

    #[test]
    fn explain_shows_physical_plan_with_actuals_after_execution() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let e = exec(&d);
        let q = "for $b in doc()/bib/book where $b/price > 50 return $b/title";
        let (plan, _) = e.explain(q).unwrap();
        assert!(plan.contains("-- physical plan (streaming, batch=64)"), "{plan}");
        assert!(plan.contains("construct"), "{plan}");
        assert!(plan.contains("actual 0 rows"), "explain alone must not execute: {plan}");
        e.query(q).unwrap();
        let (plan, _) = e.explain(q).unwrap();
        assert!(plan.contains("actual 1 rows"), "{plan}");
    }

    #[test]
    fn materializing_mode_matches_streaming() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let q = "for $b in doc()/bib/book order by $b/price return $b/title";
        let streaming = exec(&d).query(q).unwrap();
        let materializing = exec(&d).with_eval_mode(EvalMode::Materializing).query(q).unwrap();
        assert_eq!(streaming, materializing);
        let (plan, _) = exec(&d).with_eval_mode(EvalMode::Materializing).explain(q).unwrap();
        assert!(plan.contains("(materializing, batch=64)"), "{plan}");
    }

    #[test]
    fn explain_shows_plan_cache_line() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let e = exec(&d);
        let (plan, _) = e.explain("/bib/book/title").unwrap();
        assert!(plan.contains("-- plan cache: hits=0 misses=1"), "{plan}");
        let (plan, _) = e.explain("/bib/book/title").unwrap();
        assert!(plan.contains("hits=1"), "{plan}");
        assert!(plan.contains("entries=1/"), "{plan}");
    }

    #[test]
    fn counters_accessible() {
        let d = SuccinctDoc::parse(BIB).unwrap();
        let e = exec(&d);
        e.reset_counters();
        let _ = e.query("/bib/book/title").unwrap();
        assert!(e.counters().nodes_visited > 0 || e.counters().stream_items > 0);
    }
}
