//! Query execution (paper §II-C and Fig. 2).
//!
//! The flow the paper describes, end to end:
//!
//! 1. the embedded JavaScript forwards the customer's query;
//! 2. primary content sources are queried with it;
//! 3. supplemental sources are queried with templates over fields of
//!    each primary result — those fetches **fan out in parallel**,
//!    one of the platform's core "heavy lifting" claims (ablated in
//!    experiment E1);
//! 4. everything merges into the designed layout and renders to HTML;
//! 5. the HTML goes back to the page.
//!
//! Latency is *virtual*: each source reports virtual milliseconds, and
//! the runtime combines them as `max` under parallel execution or
//! `sum` under the sequential ablation.
//!
//! The parallel fan-out is a virtual-clock model. Its point is to
//! overlap *remote* source latency, and here that latency lives on the
//! virtual clock while the sources run in-process. So the fetches run
//! inline, one after another on the calling thread: every task starts
//! at the same virtual time with the same budget and its own pre-split
//! retry grant, each slot has its own `catch_unwind`, and the stage
//! charges the `max`. No OS thread is spawned per query.

use crate::admission::{FanoutScheduler, Lane};
use crate::app::{ApplicationConfig, ResiliencePolicy};
use crate::monetize::Impression;
use crate::source::{run_source_ctx, DataSourceDef, SourceCtx, SourceOutcome, Substrates};
use crate::source_cache::{FetchStatus, Fetched, SourceCache};
use crate::trace::{ExecutionTrace, TraceNode};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;

use symphony_designer::{render_element, Element, ElementKind};
use symphony_services::BreakerRegistry;

/// Fan-out execution mode (E1 ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Supplemental fetches run concurrently; virtual time is the max.
    Parallel,
    /// Fetches run one after another; virtual time is the sum.
    Sequential,
}

/// Fixed virtual cost of receiving/dispatching the snippet request.
pub const RECEIVE_MS: u32 = 1;
/// Fixed virtual cost of merging and formatting the response.
pub const MERGE_MS: u32 = 2;
/// Cap on the scoped OS threads [`Platform::warmup`] spreads table
/// optimization across. The query fan-out itself spawns none.
///
/// [`Platform::warmup`]: crate::hosting::Platform::warmup
pub const MAX_FANOUT_WORKERS: usize = 16;
/// Flat virtual cost of a shed (admission-refused) response: cheaper
/// than a cache hit, and no source, breaker, or cache is touched.
pub const SHED_MS: u32 = 1;

/// Execution context the hosting layer threads into the runtime: the
/// platform's virtual clock and its shared circuit breakers. The
/// default (`now = 0`, no breakers) reproduces standalone execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCtx<'a> {
    /// Virtual time at which the query arrives.
    pub now_ms: u64,
    /// Shared per-endpoint circuit breakers.
    pub breakers: Option<&'a BreakerRegistry>,
    /// The platform's shared L2 source-result cache. `None` executes
    /// every fetch directly (standalone execution, ablations).
    pub source_cache: Option<&'a SourceCache>,
    /// The platform's fan-out accounting: each fan-out with tasks takes
    /// one one-thread grant on it, counted per tenant and lane. `None`
    /// counts nothing (standalone execution).
    pub scheduler: Option<&'a FanoutScheduler>,
    /// Lane the fan-out's grant is counted on.
    pub lane: Lane,
}

/// The rendered response.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// Final HTML injected into the host page.
    pub html: String,
    /// Stage-by-stage trace (drives Fig. 2).
    pub trace: ExecutionTrace,
    /// Total virtual latency.
    pub virtual_ms: u32,
    /// Impressions rendered (consumed by the monetization log).
    pub impressions: Vec<Impression>,
}

/// A supplemental fetch task.
struct FanoutTask {
    primary_source: String,
    item_idx: usize,
    source: String,
    query: String,
    k: usize,
}

/// Execute `query` against an application over the given substrates.
pub fn execute(
    app: &ApplicationConfig,
    query: &str,
    subs: Substrates<'_>,
    mode: ExecMode,
) -> QueryResponse {
    execute_with_overrides(app, query, subs, mode, &HashMap::new())
}

/// Like [`execute`], with pre-resolved outcomes for some primary
/// sources. The hosting layer uses this for
/// [`DataSourceDef::ComposedApp`](crate::source::DataSourceDef::ComposedApp)
/// sources, whose results come from recursively querying another
/// hosted application.
pub fn execute_with_overrides(
    app: &ApplicationConfig,
    query: &str,
    subs: Substrates<'_>,
    mode: ExecMode,
    overrides: &HashMap<String, SourceOutcome>,
) -> QueryResponse {
    execute_resilient(app, query, subs, mode, overrides, &ExecCtx::default())
}

/// The remaining fetch budget when `consumed` virtual ms of source
/// work already happened: the per-source soft budget, further capped
/// by what the query deadline leaves after the fixed receive/merge
/// costs. `None` = unlimited.
fn budget_for(policy: &ResiliencePolicy, consumed: u32) -> Option<u32> {
    let from_deadline = (policy.query_deadline_ms != u32::MAX).then(|| {
        policy
            .query_deadline_ms
            .saturating_sub(RECEIVE_MS + MERGE_MS + consumed)
    });
    let from_source =
        (policy.per_source_budget_ms != u32::MAX).then_some(policy.per_source_budget_ms);
    match (from_deadline, from_source) {
        (None, b) => b,
        (a, None) => a,
        (Some(a), Some(b)) => Some(a.min(b)),
    }
}

/// One source fetch, routed through the platform's L2 source cache
/// when one is attached; executed directly otherwise.
#[allow(clippy::too_many_arguments)]
fn cached_fetch(
    def: &DataSourceDef,
    owner: symphony_store::TenantId,
    query: &str,
    k: usize,
    subs: Substrates<'_>,
    constraint: Option<&symphony_store::Filter>,
    sctx: &SourceCtx<'_>,
    cache: Option<&SourceCache>,
) -> Fetched {
    match cache {
        Some(c) => c.fetch(def, Some(owner), query, k, constraint, sctx, || {
            run_source_ctx(def, query, k, subs, constraint, sctx)
        }),
        None => Fetched::uncached(run_source_ctx(def, query, k, subs, constraint, sctx)),
    }
}

/// Trace-detail marker for fetches the L2 cache satisfied.
fn status_suffix(status: FetchStatus) -> &'static str {
    match status {
        FetchStatus::Hit => " (L2 hit)",
        FetchStatus::Coalesced => " (L2 coalesced)",
        FetchStatus::Uncached | FetchStatus::Miss => "",
    }
}

/// Soft outcome for a fan-out task whose source panicked: the slot
/// degrades, the query survives.
fn panic_outcome(source: &str, payload: &(dyn std::any::Any + Send)) -> SourceOutcome {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string());
    SourceOutcome {
        items: Vec::new(),
        virtual_ms: 0,
        error: Some(format!("source {source:?} panicked: {msg}")),
        attempts: 1,
    }
}

/// Like [`execute_with_overrides`], under an execution context: the
/// virtual clock position anchors deterministic latency draws and
/// fault windows, the app's [`ResiliencePolicy`] bounds deadlines /
/// budgets / retries, and the shared circuit breakers are consulted
/// for every service fetch.
pub fn execute_resilient(
    app: &ApplicationConfig,
    query: &str,
    subs: Substrates<'_>,
    mode: ExecMode,
    overrides: &HashMap<String, SourceOutcome>,
    ctx: &ExecCtx<'_>,
) -> QueryResponse {
    let policy = app.resilience;
    // The query-wide retry pool; `None` = unlimited.
    let mut retry_pool: Option<u32> =
        (policy.max_total_retries != u32::MAX).then_some(policy.max_total_retries);

    // ---- Stage 1: primary content -------------------------------
    let primary_specs = app.primary_lists();
    let mut primary: HashMap<String, Fetched> = HashMap::new();
    let mut consumed_primary: u32 = 0; // sequential-mode accumulation
    for (source, max, _) in &primary_specs {
        if primary.contains_key(source) {
            continue;
        }
        let fetched = if let Some(pre) = overrides.get(source) {
            Fetched::uncached(pre.clone())
        } else {
            match app.source(source) {
                Some(cfg) => {
                    let consumed = match mode {
                        ExecMode::Parallel => 0,
                        ExecMode::Sequential => consumed_primary,
                    };
                    let sctx = SourceCtx {
                        now_ms: ctx.now_ms + (RECEIVE_MS + consumed) as u64,
                        budget_ms: budget_for(&policy, consumed),
                        retries_allowed: retry_pool,
                        breakers: ctx.breakers,
                    };
                    cached_fetch(
                        &cfg.def,
                        app.owner,
                        query,
                        *max,
                        subs,
                        app.constraint(source),
                        &sctx,
                        ctx.source_cache,
                    )
                }
                None => Fetched::uncached(SourceOutcome {
                    items: Vec::new(),
                    virtual_ms: 0,
                    error: Some(format!("source {source:?} not configured")),
                    attempts: 0,
                }),
            }
        };
        // Deduct retries in configuration order (primaries execute in
        // a plain loop, so this is deterministic in both modes). Cache
        // hits charge nothing: the executing fetch already paid.
        if let Some(pool) = retry_pool.as_mut() {
            *pool = pool.saturating_sub(fetched.attempts_charged.saturating_sub(1));
        }
        consumed_primary += fetched.charged_ms;
        primary.insert(source.clone(), fetched);
    }
    let primary_ms = {
        let iter = primary.values().map(|f| f.charged_ms);
        match mode {
            ExecMode::Parallel => iter.max().unwrap_or(0),
            ExecMode::Sequential => iter.sum(),
        }
    };

    // ---- Stage 2: supplemental fan-out ---------------------------
    let mut tasks: Vec<FanoutTask> = Vec::new();
    for (psource, max, item_el) in &primary_specs {
        let outcome = &primary[psource].outcome;
        let nested = nested_lists(item_el);
        if nested.is_empty() {
            continue;
        }
        for (idx, item) in outcome.items.iter().take(*max).enumerate() {
            let lookup = |name: &str| item.field(name).map(str::to_string);
            for (ssource, smax) in &nested {
                let Some(binding) = app.binding(ssource) else {
                    continue; // validated configs always have one
                };
                let q = binding.query_template.render(&lookup);
                if q.trim().is_empty() {
                    continue;
                }
                tasks.push(FanoutTask {
                    primary_source: psource.clone(),
                    item_idx: idx,
                    source: ssource.clone(),
                    query: q,
                    k: *smax,
                });
            }
        }
    }

    let outcomes: Vec<Fetched> = match mode {
        ExecMode::Sequential => {
            let mut out = Vec::with_capacity(tasks.len());
            let mut consumed = primary_ms;
            for t in &tasks {
                let sctx = SourceCtx {
                    now_ms: ctx.now_ms + (RECEIVE_MS + consumed) as u64,
                    budget_ms: budget_for(&policy, consumed),
                    retries_allowed: retry_pool,
                    breakers: ctx.breakers,
                };
                let o = guarded_dispatch(app, t, subs, &sctx, ctx.source_cache);
                if let Some(pool) = retry_pool.as_mut() {
                    *pool = pool.saturating_sub(o.attempts_charged.saturating_sub(1));
                }
                consumed += o.charged_ms;
                out.push(o);
            }
            out
        }
        ExecMode::Parallel => {
            // All fan-out fetches start together, once the primaries
            // are in: same virtual start time and deadline budget.
            let n = tasks.len();
            let start_ms = ctx.now_ms + (RECEIVE_MS + primary_ms) as u64;
            let budget = budget_for(&policy, primary_ms);
            // Pre-split the retry pool across tasks, so no task's grant
            // depends on what an earlier task in the loop used.
            let retry_grants: Vec<Option<u32>> = match retry_pool {
                None => vec![None; n],
                Some(pool) => (0..n as u32)
                    .map(|i| Some(pool / n as u32 + u32::from(i < pool % n as u32)))
                    .collect(),
            };
            // The fetches run one after another on this thread; their
            // parallelism is modelled on the virtual clock (same start,
            // `max`-combined), which is what remote sources would see.
            let _fanout_grant = ctx
                .scheduler
                .filter(|_| n > 0)
                .map(|s| s.acquire(app.owner.0 as u64, ctx.lane));
            let outcomes: Vec<Fetched> = tasks
                .iter()
                .zip(retry_grants)
                .map(|(t, retries_allowed)| {
                    let sctx = SourceCtx {
                        now_ms: start_ms,
                        budget_ms: budget,
                        retries_allowed,
                        breakers: ctx.breakers,
                    };
                    guarded_dispatch(app, t, subs, &sctx, ctx.source_cache)
                })
                .collect();
            if let Some(pool) = retry_pool.as_mut() {
                for o in &outcomes {
                    *pool = pool.saturating_sub(o.attempts_charged.saturating_sub(1));
                }
            }
            outcomes
        }
    };
    let mut suppl: HashMap<(String, usize, String), Fetched> = HashMap::new();
    let mut fanout_trace: Vec<TraceNode> = Vec::new();
    for (t, o) in tasks.iter().zip(outcomes) {
        fanout_trace.push(TraceNode::leaf(
            format!("supplemental: {} for item #{}", t.source, t.item_idx),
            o.charged_ms,
            match &o.outcome.error {
                Some(e) => format!(
                    "query {:?} — error: {e}{}",
                    t.query,
                    status_suffix(o.status)
                ),
                None => format!(
                    "query {:?} — {} results{}",
                    t.query,
                    o.outcome.items.len(),
                    status_suffix(o.status)
                ),
            },
        ));
        suppl.insert((t.primary_source.clone(), t.item_idx, t.source.clone()), o);
    }

    // ---- Virtual-time accounting ---------------------------------
    let suppl_ms_iter = suppl.values().map(|f| f.charged_ms);
    let suppl_ms = match mode {
        ExecMode::Parallel => suppl_ms_iter.max().unwrap_or(0),
        ExecMode::Sequential => suppl_ms_iter.sum(),
    };
    let total_ms = RECEIVE_MS + primary_ms + suppl_ms + MERGE_MS;
    let error_count = primary
        .values()
        .chain(suppl.values())
        .filter(|f| f.outcome.error.is_some())
        .count() as u32;
    let (mut l2_hits, mut l2_misses, mut l2_coalesced) = (0u32, 0u32, 0u32);
    for f in primary.values().chain(suppl.values()) {
        match f.status {
            FetchStatus::Hit => l2_hits += 1,
            FetchStatus::Miss => l2_misses += 1,
            FetchStatus::Coalesced => l2_coalesced += 1,
            FetchStatus::Uncached => {}
        }
    }

    // ---- Stage 3: merge + format (render to HTML) ----------------
    let impressions: RefCell<Vec<Impression>> = RefCell::new(Vec::new());
    let no_fields = |_: &str| None;
    let mut top_nested = |source: &str, max: usize, item_el: &Element| -> String {
        let Some(outcome) = primary.get(source).map(|f| &f.outcome) else {
            return String::new();
        };
        let mut html = String::new();
        for (idx, item) in outcome.items.iter().take(max).enumerate() {
            record_impression(&impressions, source, idx, item);
            let lookup = |name: &str| item.field(name).map(str::to_string);
            let psource = source;
            let mut inner_nested = |ssource: &str, smax: usize, sitem_el: &Element| -> String {
                let Some(soutcome) = suppl
                    .get(&(psource.to_string(), idx, ssource.to_string()))
                    .map(|f| &f.outcome)
                else {
                    return String::new();
                };
                let mut shtml = String::new();
                for (sidx, sitem) in soutcome.items.iter().take(smax).enumerate() {
                    record_impression(&impressions, ssource, sidx, sitem);
                    let slookup = |name: &str| sitem.field(name).map(str::to_string);
                    // Depth > 2 nesting renders empty (the paper
                    // describes exactly one supplemental level).
                    shtml.push_str(&render_element(
                        sitem_el,
                        &app.stylesheet,
                        &slookup,
                        &mut |_, _, _| String::new(),
                    ));
                }
                shtml
            };
            html.push_str(&render_element(
                item_el,
                &app.stylesheet,
                &lookup,
                &mut inner_nested,
            ));
        }
        html
    };
    let html = render_element(
        app.layout.root(),
        &app.stylesheet,
        &no_fields,
        &mut top_nested,
    );

    // ---- Trace ----------------------------------------------------
    let mut stages = vec![TraceNode::leaf(
        "receive query from embedded snippet",
        RECEIVE_MS,
        format!("app {:?}", app.name),
    )];
    for (source, max, _) in &primary_specs {
        let f = &primary[source];
        stages.push(TraceNode::leaf(
            format!("primary: {source}"),
            f.charged_ms,
            match &f.outcome.error {
                Some(e) => format!("error: {e}{}", status_suffix(f.status)),
                None => format!(
                    "{} results (max {max}){}",
                    f.outcome.items.len(),
                    status_suffix(f.status)
                ),
            },
        ));
    }
    if !fanout_trace.is_empty() {
        stages.push(TraceNode::group(
            "supplemental fan-out",
            suppl_ms,
            match mode {
                ExecMode::Parallel => {
                    format!("parallel: max of {} fetches (1 worker)", fanout_trace.len())
                }
                ExecMode::Sequential => {
                    format!("sequential: sum of {} fetches", fanout_trace.len())
                }
            },
            fanout_trace,
        ));
    }
    stages.push(TraceNode::leaf(
        "merge + format HTML",
        MERGE_MS,
        format!("{} bytes", html.len()),
    ));

    QueryResponse {
        html,
        trace: ExecutionTrace {
            app: app.name.clone(),
            query: query.to_string(),
            total_ms,
            cache_hit: false,
            error_count,
            degraded: error_count > 0,
            shed: false,
            l2_hits,
            l2_misses,
            l2_coalesced,
            stages,
        },
        virtual_ms: total_ms,
        impressions: impressions.into_inner(),
    }
}

/// Build the cheap degraded response for a query shed by admission
/// control: the layout shell renders with every result slot empty —
/// the same path a fully errored query takes — at a flat [`SHED_MS`]
/// cost, without consulting any source, breaker, or cache. Each
/// primary slot carries a `(shed)` marker in its trace detail, like
/// the `(L2 hit)` suffixes on served fetches.
pub fn shed_response(app: &ApplicationConfig, query: &str, reason: &str) -> QueryResponse {
    let no_fields = |_: &str| None;
    let mut empty_nested = |_: &str, _: usize, _: &Element| String::new();
    let html = render_element(
        app.layout.root(),
        &app.stylesheet,
        &no_fields,
        &mut empty_nested,
    );
    let mut stages = vec![TraceNode::leaf(
        "admission control",
        SHED_MS,
        format!("shed: {reason}"),
    )];
    for (source, _, _) in app.primary_lists() {
        stages.push(TraceNode::leaf(
            format!("primary: {source}"),
            0,
            "not fetched (shed)",
        ));
    }
    stages.push(TraceNode::leaf(
        "merge + format HTML",
        0,
        format!("{} bytes (empty shell)", html.len()),
    ));
    QueryResponse {
        html,
        trace: ExecutionTrace {
            app: app.name.clone(),
            query: query.to_string(),
            total_ms: SHED_MS,
            cache_hit: false,
            error_count: 0,
            degraded: true,
            shed: true,
            l2_hits: 0,
            l2_misses: 0,
            l2_coalesced: 0,
            stages,
        },
        virtual_ms: SHED_MS,
        impressions: Vec::new(),
    }
}

/// [`dispatch`] under `catch_unwind`: one panicking source degrades
/// its own slot only.
fn guarded_dispatch(
    app: &ApplicationConfig,
    task: &FanoutTask,
    subs: Substrates<'_>,
    sctx: &SourceCtx<'_>,
    cache: Option<&SourceCache>,
) -> Fetched {
    std::panic::catch_unwind(AssertUnwindSafe(|| dispatch(app, task, subs, sctx, cache)))
        .unwrap_or_else(|p| Fetched::uncached(panic_outcome(&task.source, p.as_ref())))
}

fn dispatch(
    app: &ApplicationConfig,
    task: &FanoutTask,
    subs: Substrates<'_>,
    sctx: &SourceCtx<'_>,
    cache: Option<&SourceCache>,
) -> Fetched {
    match app.source(&task.source) {
        Some(cfg) => cached_fetch(
            &cfg.def,
            app.owner,
            &task.query,
            task.k,
            subs,
            app.constraint(&task.source),
            sctx,
            cache,
        ),
        None => Fetched::uncached(SourceOutcome {
            items: Vec::new(),
            virtual_ms: 0,
            error: Some(format!("source {:?} not configured", task.source)),
            attempts: 0,
        }),
    }
}

fn record_impression(
    impressions: &RefCell<Vec<Impression>>,
    source: &str,
    position: usize,
    item: &crate::source::ResultItem,
) {
    let is_ad = item.field("campaign").is_some() && item.field("price_cents").is_some();
    let url = ["url", "target_url", "detail_url", "link"]
        .iter()
        .find_map(|f| item.field(f))
        .map(str::to_string);
    let title = item.field("title").unwrap_or_default().to_string();
    impressions.borrow_mut().push(Impression {
        source: source.to_string(),
        url,
        title,
        position,
        is_ad,
        ad_campaign: item.field("campaign").and_then(|c| c.parse().ok()),
        ad_price_cents: item.field("price_cents").and_then(|c| c.parse().ok()),
    });
}

/// Nested result lists in an item layout: `(source, max_results)`.
fn nested_lists(item_el: &Element) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    item_el.visit(&mut |e| {
        if let ElementKind::ResultList {
            source,
            max_results,
            ..
        } = &e.kind
        {
            out.push((source.clone(), *max_results));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use crate::source::DataSourceDef;
    use symphony_designer::{Canvas, Element};
    use symphony_services::{CallPolicy, LatencyModel, PricingService, SimulatedTransport};
    use symphony_store::ingest::{ingest, DataFormat};
    use symphony_store::{IndexedTable, Store, TenantId};
    use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};

    struct World {
        store: Store,
        tenant: TenantId,
        key: symphony_store::AccessKey,
        engine: SearchEngine,
        transport: SimulatedTransport,
    }

    fn world() -> World {
        let mut store = Store::new();
        let (tenant, key) = store.create_tenant("GamerQueen");
        let (table, _) = ingest(
            "inventory",
            "title,genre,description,detail_url,price\n\
             Galactic Raiders,shooter,a fast space shooter,http://shop.example.com/gr,49.99\n\
             Farm Story,sim,calm farming,http://shop.example.com/fs,19.99\n",
            DataFormat::Csv,
        )
        .unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
            .unwrap();
        store.space_mut(tenant, &key).unwrap().put_table(indexed);

        let corpus = Corpus::generate(
            &CorpusConfig {
                sites_per_topic: 2,
                pages_per_site: 4,
                ..CorpusConfig::default()
            }
            .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]),
        );
        let engine = SearchEngine::new(corpus);
        let mut transport = SimulatedTransport::new(5);
        transport.register("pricing", Box::new(PricingService), LatencyModel::fast());
        World {
            store,
            tenant,
            key,
            engine,
            transport,
        }
    }

    fn gamer_queen(world: &World) -> ApplicationConfig {
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(root, Element::search_box("Search games…"))
            .unwrap();
        let item = Element::column(vec![
            Element::link_field("detail_url", "{title}"),
            Element::text("{description}"),
            Element::result_list(
                "reviews",
                Element::column(vec![
                    Element::link_field("url", "{title}"),
                    Element::rich_text("{snippet}"),
                ]),
                3,
            ),
            Element::result_list("pricing", Element::text("${price} ({currency})"), 1),
        ]);
        canvas
            .insert(root, Element::result_list("inventory", item, 10))
            .unwrap();

        AppBuilder::new("GamerQueen", world.tenant)
            .layout(canvas)
            .source(
                "inventory",
                DataSourceDef::Proprietary {
                    table: "inventory".into(),
                },
            )
            .source(
                "reviews",
                DataSourceDef::WebVertical {
                    vertical: Vertical::Web,
                    config: SearchConfig::default().restrict_to([
                        "gamespot.com",
                        "ign.com",
                        "teamxbox.com",
                    ]),
                },
            )
            .source(
                "pricing",
                DataSourceDef::Service {
                    endpoint: "pricing".into(),
                    operation: "/price".into(),
                    item_param: "item".into(),
                    policy: CallPolicy::default(),
                },
            )
            .supplemental("reviews", "{title} review")
            .supplemental("pricing", "{title}")
            .build()
            .unwrap()
    }

    fn subs(world: &World) -> Substrates<'_> {
        Substrates {
            space: Some(world.store.space(world.tenant, &world.key).unwrap()),
            engine: Some(&world.engine),
            transport: Some(&world.transport),
            ads: None,
            scatter: None,
        }
    }

    #[test]
    fn end_to_end_gamer_queen_query() {
        let w = world();
        let app = gamer_queen(&w);
        let resp = execute(&app, "space shooter", subs(&w), ExecMode::Parallel);
        // Primary hit rendered with its fields.
        assert!(resp.html.contains("Galactic Raiders"), "{}", resp.html);
        assert!(resp.html.contains("href=\"http://shop.example.com/gr\""));
        // Supplemental review from a restricted site.
        assert!(resp.html.contains("review"), "{}", resp.html);
        // Pricing service result.
        assert!(resp.html.contains("(USD)"), "{}", resp.html);
        // Trace stages present.
        assert!(resp.trace.find("receive query").is_some());
        assert!(resp.trace.find("primary: inventory").is_some());
        assert!(resp.trace.find("supplemental fan-out").is_some());
        assert!(resp.trace.find("merge + format").is_some());
    }

    #[test]
    fn parallel_latency_is_max_sequential_is_sum() {
        let w = world();
        let app = gamer_queen(&w);
        let par = execute(&app, "space shooter", subs(&w), ExecMode::Parallel);
        let seq = execute(&app, "space shooter", subs(&w), ExecMode::Sequential);
        assert!(
            seq.virtual_ms > par.virtual_ms,
            "sequential {} must exceed parallel {}",
            seq.virtual_ms,
            par.virtual_ms
        );
        // Parallel bound: receive + max(primary) + max(suppl) + merge.
        assert!(par.virtual_ms <= RECEIVE_MS + 35 + 600 + MERGE_MS);
    }

    #[test]
    fn impressions_are_recorded_per_rendered_result() {
        let w = world();
        let app = gamer_queen(&w);
        let resp = execute(&app, "space shooter", subs(&w), ExecMode::Parallel);
        assert!(!resp.impressions.is_empty());
        let inventory_imps = resp
            .impressions
            .iter()
            .filter(|i| i.source == "inventory")
            .count();
        assert_eq!(inventory_imps, 1); // one matching game
        assert!(resp.impressions.iter().any(|i| i.source == "reviews"));
        assert!(resp.impressions.iter().all(|i| !i.is_ad));
    }

    #[test]
    fn no_results_renders_shell() {
        let w = world();
        let app = gamer_queen(&w);
        let resp = execute(&app, "zzzqqq", subs(&w), ExecMode::Parallel);
        assert!(resp.html.contains("sym-search"));
        assert!(resp.impressions.is_empty());
        assert!(resp.trace.find("supplemental fan-out").is_none());
    }

    #[test]
    fn missing_substrate_degrades_gracefully() {
        let w = world();
        let app = gamer_queen(&w);
        let partial = Substrates {
            space: Some(w.store.space(w.tenant, &w.key).unwrap()),
            engine: None,
            transport: Some(&w.transport),
            ads: None,
            scatter: None,
        };
        let resp = execute(&app, "space shooter", partial, ExecMode::Parallel);
        // The primary result still renders; reviews report an error.
        assert!(resp.html.contains("Galactic Raiders"));
        let fanout = resp.trace.find("supplemental: reviews").unwrap();
        assert!(fanout.detail.contains("error"));
    }

    /// Service that records, in call order, the thread each fetch ran
    /// on and the item it was asked about; it prices every item by
    /// name so a rendered slot shows which fetch filled it.
    struct ProbeService {
        calls: std::sync::Arc<std::sync::Mutex<Vec<(std::thread::ThreadId, String)>>>,
    }

    impl symphony_services::Service for ProbeService {
        fn describe(&self) -> symphony_services::ServiceDescription {
            symphony_services::ServiceDescription {
                name: "probe".into(),
                protocol: symphony_services::Protocol::Rest,
                operations: vec![symphony_services::OperationDesc {
                    name: "/price".into(),
                    params: vec!["item".into()],
                    returns: vec!["item".into(), "price".into()],
                }],
            }
        }

        fn handle(
            &self,
            request: &symphony_services::ServiceRequest,
        ) -> Result<symphony_services::ServiceResponse, symphony_services::ServiceFault> {
            let item = request.param("item").unwrap_or("?").to_string();
            self.calls
                .lock()
                .unwrap()
                .push((std::thread::current().id(), item.clone()));
            Ok(symphony_services::ServiceResponse::single(&[
                ("item", item.as_str()),
                ("price", &format!("{item} price")),
            ]))
        }
    }

    /// Service that always panics (misbehaving third-party code).
    struct PanicService;

    impl symphony_services::Service for PanicService {
        fn describe(&self) -> symphony_services::ServiceDescription {
            symphony_services::ServiceDescription {
                name: "unstable".into(),
                protocol: symphony_services::Protocol::Rest,
                operations: vec![],
            }
        }

        fn handle(
            &self,
            _request: &symphony_services::ServiceRequest,
        ) -> Result<symphony_services::ServiceResponse, symphony_services::ServiceFault> {
            panic!("unstable service blew up");
        }
    }

    /// A wide app: `rows` catalog items, each with one service
    /// supplemental — `rows` fan-out tasks.
    fn wide_app(
        rows: usize,
        endpoint: &str,
    ) -> (
        Store,
        TenantId,
        symphony_store::AccessKey,
        ApplicationConfig,
    ) {
        let mut store = Store::new();
        let (tenant, key) = store.create_tenant("Wide");
        let mut csv = String::from("title,description\n");
        for i in 0..rows {
            csv.push_str(&format!("Gadget {i},a shiny gadget\n"));
        }
        let (table, _) = ingest("catalog", &csv, DataFormat::Csv).unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
            .unwrap();
        store.space_mut(tenant, &key).unwrap().put_table(indexed);

        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        let item = Element::column(vec![
            Element::text("{title}"),
            Element::result_list(endpoint, Element::text("{price}"), 1),
        ]);
        canvas
            .insert(root, Element::result_list("catalog", item, rows))
            .unwrap();
        let app = AppBuilder::new("Wide", tenant)
            .layout(canvas)
            .source(
                "catalog",
                DataSourceDef::Proprietary {
                    table: "catalog".into(),
                },
            )
            .source(
                endpoint,
                DataSourceDef::Service {
                    endpoint: endpoint.into(),
                    operation: "/price".into(),
                    item_param: "item".into(),
                    policy: CallPolicy::default(),
                },
            )
            .supplemental(endpoint, "{title}")
            .build()
            .unwrap();
        (store, tenant, key, app)
    }

    #[test]
    fn wide_fanout_runs_inline_in_task_order() {
        use crate::admission::FanoutScheduler;
        let calls = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut transport = SimulatedTransport::new(7);
        transport.register(
            "probe",
            Box::new(ProbeService {
                calls: calls.clone(),
            }),
            LatencyModel::fast(),
        );
        let (store, tenant, key, app) = wide_app(120, "probe");
        let subs = Substrates {
            space: Some(store.space(tenant, &key).unwrap()),
            engine: None,
            transport: Some(&transport),
            ads: None,
            scatter: None,
        };
        let scheduler = FanoutScheduler::new();
        let ctx = ExecCtx {
            scheduler: Some(&scheduler),
            ..ExecCtx::default()
        };
        let resp = execute_resilient(
            &app,
            "gadget",
            subs,
            ExecMode::Parallel,
            &HashMap::new(),
            &ctx,
        );
        let fanout = resp.trace.find("supplemental fan-out").unwrap();
        assert_eq!(fanout.children.len(), 120);
        assert!(fanout.detail.contains("(1 worker)"), "{}", fanout.detail);
        assert!(!resp.trace.degraded);

        // Every fetch ran on this thread, one per task, in task order.
        let calls = calls.lock().unwrap();
        let me = std::thread::current().id();
        assert!(calls.iter().all(|(thread, _)| *thread == me));
        let task_items: Vec<String> = fanout
            .children
            .iter()
            .map(|c| {
                let q = c.detail.split('"').nth(1).unwrap();
                q.to_string()
            })
            .collect();
        let called: Vec<String> = calls.iter().map(|(_, item)| item.clone()).collect();
        assert_eq!(called, task_items);

        // Each slot holds its own task's outcome, rendered in task order.
        let mut at = 0;
        for item in &task_items {
            let found = resp.html[at..]
                .find(&format!("{item} price"))
                .unwrap_or_else(|| panic!("slot for {item:?} missing or out of order"));
            at += found + 1;
        }

        // Virtual time still combines as max, not sum.
        assert!(
            resp.virtual_ms <= RECEIVE_MS + 5 + 10 + MERGE_MS,
            "parallel virtual time must be max-combined, got {}",
            resp.virtual_ms
        );
        // One grant for the fan-out, returned once it finished.
        assert_eq!(scheduler.granted(tenant.0 as u64), 1);
        assert_eq!(scheduler.outstanding(), (0, 0));
    }

    #[test]
    fn fanout_without_tasks_takes_no_grant() {
        use crate::admission::FanoutScheduler;
        let w = world();
        let app = gamer_queen(&w);
        let scheduler = FanoutScheduler::new();
        let ctx = ExecCtx {
            scheduler: Some(&scheduler),
            ..ExecCtx::default()
        };
        let resp = execute_resilient(
            &app,
            "zzzqqq",
            subs(&w),
            ExecMode::Parallel,
            &HashMap::new(),
            &ctx,
        );
        assert!(resp.trace.find("supplemental fan-out").is_none());
        assert_eq!(scheduler.granted(w.tenant.0 as u64), 0);
        assert_eq!(scheduler.outstanding(), (0, 0));
    }

    #[test]
    fn panicking_service_degrades_its_slot_only() {
        let mut transport = SimulatedTransport::new(7);
        transport.register("unstable", Box::new(PanicService), LatencyModel::fast());
        let (store, tenant, key, app) = wide_app(3, "unstable");
        let subs = Substrates {
            space: Some(store.space(tenant, &key).unwrap()),
            engine: None,
            transport: Some(&transport),
            ads: None,
            scatter: None,
        };
        let resp = execute(&app, "gadget", subs, ExecMode::Parallel);
        // The primary list still renders every item.
        assert!(resp.html.contains("Gadget 0"), "{}", resp.html);
        assert!(resp.html.contains("Gadget 2"), "{}", resp.html);
        // Each panicked slot degraded softly.
        assert!(resp.trace.degraded);
        assert_eq!(resp.trace.error_count, 3);
        let slot = resp.trace.find("supplemental: unstable").unwrap();
        assert!(slot.detail.contains("panicked"), "{}", slot.detail);
        assert!(slot.detail.contains("unstable service blew up"));
    }

    #[test]
    fn deadline_cuts_slow_supplementals_but_renders_primaries() {
        let w = world();
        let mut app = gamer_queen(&w);
        app.resilience = crate::app::ResiliencePolicy {
            query_deadline_ms: 20,
            ..Default::default()
        };
        let resp = execute(&app, "space shooter", subs(&w), ExecMode::Parallel);
        // Deadline held: receive(1) + inventory(5) + suppl(≤12) + merge(2).
        assert!(
            resp.virtual_ms <= 20,
            "deadline blown: {} ms",
            resp.virtual_ms
        );
        // Primary content renders; the 35-ms web fetch is cut for free.
        assert!(resp.html.contains("Galactic Raiders"));
        assert!(resp.trace.degraded);
        let reviews = resp.trace.find("supplemental: reviews").unwrap();
        assert!(
            reviews.detail.contains("deadline cut"),
            "{}",
            reviews.detail
        );
        assert_eq!(reviews.virtual_ms, 0);
        // The fast pricing service still fits in the remaining budget.
        let pricing = resp.trace.find("supplemental: pricing").unwrap();
        assert!(pricing.detail.contains("results"), "{}", pricing.detail);
    }

    #[test]
    fn shed_response_is_cheap_and_marked() {
        let w = world();
        let app = gamer_queen(&w);
        let resp = shed_response(&app, "space shooter", "rate limit");
        assert_eq!(resp.virtual_ms, SHED_MS);
        assert!(resp.trace.shed);
        assert!(resp.trace.degraded);
        assert_eq!(resp.trace.error_count, 0);
        assert!(resp.impressions.is_empty());
        // The layout shell still renders (search box, empty lists).
        assert!(resp.html.contains("sym-search"), "{}", resp.html);
        // Slots carry the (shed) marker like (L2 hit) suffixes.
        let slot = resp.trace.find("primary: inventory").unwrap();
        assert!(slot.detail.contains("(shed)"), "{}", slot.detail);
        assert!(resp.trace.render().contains("shed"));
    }

    #[test]
    fn supplemental_queries_are_per_item() {
        let w = world();
        let app = gamer_queen(&w);
        // "game" in description? Query matching both items:
        let resp = execute(&app, "shooter farming", subs(&w), ExecMode::Parallel);
        let fanouts: Vec<&str> = resp
            .trace
            .find("supplemental fan-out")
            .map(|n| n.children.iter().map(|c| c.detail.as_str()).collect())
            .unwrap_or_default();
        assert!(fanouts
            .iter()
            .any(|d| d.contains("Galactic Raiders review")));
        assert!(fanouts.iter().any(|d| d.contains("Farm Story review")));
    }
}
