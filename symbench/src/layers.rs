//! The traced replay of one executed query into the layers below the
//! hosting layer, through their public functions and outside the
//! platform's caches and scheduler.
//!
//! The end-to-end call has already run when the replay starts, so the
//! replay cannot change what the platform served. It reads the
//! platform's tables, engine and ad server, and calls services on the
//! benchmark's own transport, which carries the same registrations as
//! the platform's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use symphony_cluster::wire::{decode_pool, encode_pool};
use symphony_cluster::ClusterWeb;
use symphony_core::runtime::{execute_resilient, ExecCtx, ExecMode, RECEIVE_MS};
use symphony_core::source::{
    DataSourceDef, ScatterSearch, Substrates, ADS_MS, PROPRIETARY_MS, WEB_MS,
};
use symphony_core::{ApplicationConfig, Lane};
use symphony_designer::{render_element, Element, ElementKind};
use symphony_services::{
    BreakerRegistry, ResilienceContext, ServiceClient, ServiceError, ServiceRequest,
    SimulatedTransport,
};
use symphony_store::{HybridQuery, TenantSpace};
use symphony_text::snippet::SnippetGenerator;
use symphony_text::{Query, StandardAnalyzer};
use symphony_web::{SearchEngine, ShardPool, Vertical, WebResult};

use crate::spans::Tracer;

/// Worker threads of the replayed supplemental fan-out: one per CPU of
/// the reference host, so overlapping children show up in self time.
pub const REPLAY_WORKERS: usize = 2;

/// One result item: `(field, value)` pairs, as the runtime binds them.
pub type Item = Vec<(String, String)>;

/// What the replay reads from and calls into.
#[derive(Clone, Copy)]
pub struct ReplayCtx<'a> {
    /// The app the query was served for (shard-local config on a router).
    pub app: &'a ApplicationConfig,
    /// The app owner's tenant space.
    pub space: Option<&'a TenantSpace>,
    /// The web engine of the serving platform.
    pub engine: &'a SearchEngine,
    /// The benchmark's own service transport.
    pub transport: &'a SimulatedTransport,
    /// The benchmark's own breakers.
    pub breakers: &'a BreakerRegistry,
    /// The serving platform's ad server.
    pub ads: &'a symphony_ads::AdServer,
    /// The shard fleet, for a router-served query.
    pub cluster: Option<&'a ClusterWeb>,
    /// The benchmark's own copy of the shard-node transport.
    pub shard_transport: Option<&'a SimulatedTransport>,
}

/// Counts gathered by the replays of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCounts {
    /// Service calls made.
    pub service_calls: u64,
    /// Transport attempts over all service calls.
    pub service_attempts: u64,
    /// Calls refused by an open breaker.
    pub service_fastfail: u64,
    /// Web candidate pools built.
    pub pools: u64,
    /// Entries over all pools (each one is a snippet built).
    pub pool_entries: u64,
    /// Web results returned after merging.
    pub web_results: u64,
    /// Shard legs called.
    pub legs: u64,
    /// Encoded pool bytes over all legs.
    pub wire_bytes: u64,
    /// Router-served queries replayed (denominator of legs per query).
    pub scatter_queries: u64,
    /// Replayed renders whose HTML differs from the served page.
    pub render_mismatches: u64,
    /// Renders compared against the served page.
    pub render_compared: u64,
}

impl LayerCounts {
    /// Fold another run's counts in.
    pub fn merge(&mut self, o: &LayerCounts) {
        self.service_calls += o.service_calls;
        self.service_attempts += o.service_attempts;
        self.service_fastfail += o.service_fastfail;
        self.pools += o.pools;
        self.pool_entries += o.pool_entries;
        self.web_results += o.web_results;
        self.legs += o.legs;
        self.wire_bytes += o.wire_bytes;
        self.scatter_queries += o.scatter_queries;
        self.render_mismatches += o.render_mismatches;
        self.render_compared += o.render_compared;
    }
}

/// Finer-grained calls a fetch implies, timed after the runtime's
/// timeline so they never count as its children.
enum Deferred {
    /// Snippets of one local pool's pages.
    Snippets { query: String, pool: ShardPool },
    /// The legs of one scatter.
    Legs {
        vertical: Vertical,
        query: String,
        config: symphony_web::SearchConfig,
        k: usize,
    },
}

/// What one replayed fetch returned: its items, the virtual ms the
/// runtime would charge for it uncached, and whether it failed.
struct Fetch {
    items: Vec<Item>,
    ms: u32,
    failed: bool,
}

impl Fetch {
    fn ok(items: Vec<Item>, ms: u32) -> Fetch {
        Fetch {
            items,
            ms,
            failed: false,
        }
    }
}

/// One supplemental fetch, as the runtime derives it from a primary item.
struct Task {
    primary: String,
    idx: usize,
    source: String,
    query: String,
    k: usize,
}

/// Nested result lists of an item layout, in render order.
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

fn field(item: &Item, name: &str) -> Option<String> {
    item.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
}

fn web_item(r: WebResult) -> Item {
    let mut f = vec![
        ("url".to_string(), r.url),
        ("title".to_string(), r.title),
        ("snippet".to_string(), r.snippet),
        ("domain".to_string(), r.domain),
    ];
    if let Some(src) = r.image_src {
        f.push(("image_src".into(), src));
    }
    if let Some(d) = r.duration_s {
        f.push(("duration_s".into(), d.to_string()));
    }
    if let Some(d) = r.date {
        f.push(("date".into(), d.to_string()));
    }
    f
}

/// Replay one executed query. `served_html` is the page the platform
/// returned; a healthy (not degraded) answer must render identically.
pub fn replay(
    t: &mut Tracer,
    request: u64,
    now_ms: u64,
    query: &str,
    ctx: &ReplayCtx<'_>,
    served_html: Option<&str>,
    counts: &mut LayerCounts,
) {
    // The runtime as a whole, without L2 and without the scheduler.
    let subs = Substrates {
        space: ctx.space,
        engine: Some(ctx.engine),
        transport: Some(ctx.transport),
        ads: Some(ctx.ads),
        scatter: ctx.cluster.map(|c| c as &dyn ScatterSearch),
    };
    let exec_ctx = ExecCtx {
        now_ms,
        breakers: None,
        source_cache: None,
        scheduler: None,
        lane: Lane::Interactive,
    };
    let no_overrides = HashMap::new();
    t.time("runtime.execute", None, request, || {
        std::hint::black_box(execute_resilient(
            ctx.app,
            query,
            subs,
            ExecMode::Parallel,
            &no_overrides,
            &exec_ctx,
        ))
    });

    // The same work as direct layer calls, laid out as the runtime
    // lays it out: primaries in turn, then the supplemental fan-out on
    // a worker pool, then the render.
    let root = t.open("runtime.replay", None, request);
    let specs = ctx.app.primary_lists();
    let mut primary: HashMap<String, Vec<Item>> = HashMap::new();
    let mut deferred = Vec::new();
    let mut primary_ms = 0u32;
    let mut failed = false;
    for (source, max, _) in &specs {
        if primary.contains_key(source) {
            continue;
        }
        let f = fetch(
            t,
            Some(root),
            request,
            now_ms,
            source,
            query,
            *max,
            ctx,
            counts,
            &mut deferred,
        );
        primary_ms = primary_ms.max(f.ms);
        failed |= f.failed;
        primary.insert(source.clone(), f.items);
    }
    // Supplementals start together once the primaries are in, on the
    // virtual clock of an uncached execution.
    let fanout_ms = now_ms + (RECEIVE_MS + primary_ms) as u64;
    let mut tasks = Vec::new();
    for (psource, max, item_el) in &specs {
        let nested = nested_lists(item_el);
        for (idx, item) in primary[psource].iter().take(*max).enumerate() {
            for (ssource, smax) in &nested {
                let Some(binding) = ctx.app.binding(ssource) else {
                    continue;
                };
                let q = binding.query_template.render(&|n: &str| field(item, n));
                if q.trim().is_empty() {
                    continue;
                }
                tasks.push(Task {
                    primary: psource.clone(),
                    idx,
                    source: ssource.clone(),
                    query: q,
                    k: *smax,
                });
            }
        }
    }
    let next = AtomicUsize::new(0);
    let origin = t.origin();
    let mut suppl: HashMap<(String, usize, String), Vec<Item>> = HashMap::new();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..REPLAY_WORKERS.min(tasks.len()))
            .map(|_| {
                let (next, tasks) = (&next, &tasks);
                s.spawn(move || {
                    let mut wt = Tracer::new(origin);
                    let mut wc = LayerCounts::default();
                    let mut wd = Vec::new();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(task) = tasks.get(i) else { break };
                        let f = fetch(
                            &mut wt,
                            None,
                            request,
                            fanout_ms,
                            &task.source,
                            &task.query,
                            task.k,
                            ctx,
                            &mut wc,
                            &mut wd,
                        );
                        out.push((i, f));
                    }
                    (wt, wc, wd, out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay worker panicked"))
            .collect::<Vec<_>>()
    });
    for (wt, wc, wd, out) in results {
        t.adopt(wt, Some(root));
        counts.merge(&wc);
        deferred.extend(wd);
        for (i, f) in out {
            let task = &tasks[i];
            failed |= f.failed;
            suppl.insert(
                (task.primary.clone(), task.idx, task.source.clone()),
                f.items,
            );
        }
    }
    let (html, _) = t.time("designer.render", Some(root), request, || {
        render_page(ctx.app, &primary, &suppl)
    });
    t.close(root);
    // Only healthy answers on both sides are comparable: a replayed
    // fetch runs uncached, so a service failure can fall on a call the
    // platform answered from its cache, and the other way round.
    if let Some(served) = served_html.filter(|_| !failed) {
        counts.render_compared += 1;
        if served != html {
            counts.render_mismatches += 1;
        }
    }

    // Finer-grained calls inside the fetches, timed on their own.
    for d in deferred {
        match d {
            Deferred::Snippets { query, pool } => {
                snippets(t, request, ctx.engine, &query, &pool, counts)
            }
            Deferred::Legs {
                vertical,
                query,
                config,
                k,
            } => scatter_legs(t, request, vertical, &query, &config, k, ctx, counts),
        }
    }
    for (source, max, _) in &specs {
        if let Some(cfg) = ctx.app.source(source) {
            if let DataSourceDef::Proprietary { table } | DataSourceDef::Hybrid { table, .. } =
                &cfg.def
            {
                if let Some(ft) = ctx.space.and_then(|s| s.table(table).ok()?.fulltext()) {
                    let parsed = Query::parse(query);
                    t.time("textindex.fulltext", None, request, || {
                        std::hint::black_box(ft.search(&parsed, *max))
                    });
                }
            }
        }
    }
}

/// Fetch one source through its layer's public function.
#[allow(clippy::too_many_arguments)]
fn fetch(
    t: &mut Tracer,
    parent: Option<usize>,
    request: u64,
    now_ms: u64,
    source: &str,
    query: &str,
    k: usize,
    ctx: &ReplayCtx<'_>,
    counts: &mut LayerCounts,
    deferred: &mut Vec<Deferred>,
) -> Fetch {
    let Some(cfg) = ctx.app.source(source) else {
        return Fetch::ok(Vec::new(), 0);
    };
    let rows = |hits: Vec<symphony_store::fulltext::TextHit>, table: &str| -> Vec<Item> {
        let Some(indexed) = ctx.space.and_then(|s| s.table(table).ok()) else {
            return Vec::new();
        };
        let schema = indexed.table().schema();
        hits.iter()
            .filter_map(|h| {
                let rec = indexed.table().get(h.record)?;
                Some(
                    schema
                        .fields()
                        .iter()
                        .enumerate()
                        .map(|(i, f)| (f.name.clone(), rec.get(i).display_string()))
                        .collect(),
                )
            })
            .collect()
    };
    match &cfg.def {
        DataSourceDef::Proprietary { table } => {
            let Some(indexed) = ctx.space.and_then(|s| s.table(table).ok()) else {
                return Fetch::ok(Vec::new(), 0);
            };
            let parsed = Query::parse(query);
            let (hits, _) = t.time("datastore.search", parent, request, || {
                indexed.search(&parsed, k)
            });
            Fetch::ok(rows(hits.unwrap_or_default(), table), PROPRIETARY_MS)
        }
        DataSourceDef::Hybrid { table, filter } => {
            let Some(indexed) = ctx.space.and_then(|s| s.table(table).ok()) else {
                return Fetch::ok(Vec::new(), 0);
            };
            let hq = HybridQuery::new(Query::parse(query), filter.clone(), k);
            let (res, _) = t.time("datastore.hybrid", parent, request, || {
                indexed.hybrid_query(&hq)
            });
            Fetch::ok(
                rows(res.map(|r| r.hits).unwrap_or_default(), table),
                PROPRIETARY_MS,
            )
        }
        DataSourceDef::WebVertical { vertical, config } => {
            if let Some(cluster) = ctx.cluster {
                let (out, _) = t.time("cluster.scatter", parent, request, || {
                    cluster.scatter(*vertical, query, config, k, now_ms)
                });
                deferred.push(Deferred::Legs {
                    vertical: *vertical,
                    query: query.to_string(),
                    config: config.clone(),
                    k,
                });
                counts.scatter_queries += 1;
                counts.web_results += out.results.len() as u64;
                Fetch {
                    items: out.results.into_iter().map(web_item).collect(),
                    ms: out.virtual_ms,
                    failed: out.error.is_some(),
                }
            } else {
                let (pool, _) = t.time("websearch.pool", parent, request, || {
                    ctx.engine.search_pool(*vertical, query, config, k)
                });
                let copy = pool.clone();
                let (results, _) = t.time("websearch.merge", parent, request, || {
                    SearchEngine::merge_pools(vec![copy], k)
                });
                deferred.push(Deferred::Snippets {
                    query: query.to_string(),
                    pool,
                });
                counts.web_results += results.len() as u64;
                Fetch::ok(results.into_iter().map(web_item).collect(), WEB_MS)
            }
        }
        DataSourceDef::Service {
            endpoint,
            operation,
            item_param,
            policy,
        } => {
            let client = ServiceClient::with_policy(ctx.transport, *policy);
            let request_msg = ServiceRequest::get(operation, &[(item_param, query)]);
            let rctx = ResilienceContext {
                now_ms,
                budget_ms: None,
                max_retries: None,
                breakers: Some(ctx.breakers),
            };
            let (out, _) = t.time("services.call", parent, request, || {
                client.call_resilient(endpoint, &request_msg, &rctx)
            });
            counts.service_calls += 1;
            match out {
                Ok(o) => {
                    counts.service_attempts += o.attempts as u64;
                    Fetch::ok(
                        o.response.records.into_iter().take(k).collect(),
                        o.total_latency_ms,
                    )
                }
                Err((e, burned)) => {
                    if matches!(e, ServiceError::CircuitOpen { .. }) {
                        counts.service_fastfail += 1;
                    } else {
                        counts.service_attempts += policy.retries as u64 + 1;
                    }
                    Fetch {
                        items: Vec::new(),
                        ms: burned,
                        failed: true,
                    }
                }
            }
        }
        DataSourceDef::Ads { slots } => {
            let (placements, _) = t.time("adserver.select", parent, request, || {
                ctx.ads.select(query, (*slots).min(k.max(1)))
            });
            let items = placements
                .into_iter()
                .map(|p| {
                    vec![
                        ("title".to_string(), p.title),
                        ("display_url".to_string(), p.display_url),
                        ("target_url".to_string(), p.target_url),
                        ("text".to_string(), p.text),
                        ("keyword".to_string(), p.keyword),
                        ("campaign".to_string(), p.campaign.0.to_string()),
                        ("price_cents".to_string(), p.price_cents.to_string()),
                        ("position".to_string(), p.position.to_string()),
                    ]
                })
                .collect();
            Fetch::ok(items, ADS_MS)
        }
        DataSourceDef::ComposedApp { .. } => Fetch::ok(Vec::new(), 0),
    }
}

/// Time the snippets of one pool's pages, as `search_pool` builds them.
fn snippets(
    t: &mut Tracer,
    request: u64,
    engine: &SearchEngine,
    query: &str,
    pool: &ShardPool,
    counts: &mut LayerCounts,
) {
    counts.pools += 1;
    counts.pool_entries += pool.entries.len() as u64;
    let analyzer = StandardAnalyzer::new();
    let parsed = Query::parse(query);
    let words = parsed.positive_words();
    let generator = SnippetGenerator::new(&analyzer, &words);
    let pages = &engine.corpus().pages;
    let start = t.now_ns();
    for e in &pool.entries {
        std::hint::black_box(generator.snippet(&pages[e.page].body));
    }
    let end = t.now_ns();
    t.push("textindex.snippets", start, end, None, request);
}

/// The legs of one scatter, call by call: each shard's pool, its wire
/// encoding and decoding, the shard RPC on the benchmark's copy of the
/// node transport, and the gather merge.
#[allow(clippy::too_many_arguments)]
fn scatter_legs(
    t: &mut Tracer,
    request: u64,
    vertical: Vertical,
    query: &str,
    config: &symphony_web::SearchConfig,
    k: usize,
    ctx: &ReplayCtx<'_>,
    counts: &mut LayerCounts,
) {
    let Some(cluster) = ctx.cluster else { return };
    let mut pools = Vec::new();
    for (i, engine) in cluster.shard_engines().iter().enumerate() {
        let (pool, _) = t.time("websearch.pool", None, request, || {
            engine.search_pool(vertical, query, config, k)
        });
        snippets(t, request, engine, query, &pool, counts);
        let (wire, _) = t.time("cluster.encode", None, request, || encode_pool(&pool));
        counts.wire_bytes += wire
            .records
            .iter()
            .flatten()
            .map(|(k, v)| (k.len() + v.len()) as u64)
            .sum::<u64>();
        let (decoded, _) = t.time("cluster.decode", None, request, || decode_pool(&wire));
        if let Some(transport) = ctx.shard_transport {
            let req = symphony_cluster::wire::search_request(vertical, query, config, k);
            let client =
                ServiceClient::with_policy(transport, symphony_services::CallPolicy::default());
            let endpoint = symphony_services::rpc::shard_endpoint(i);
            let rctx = ResilienceContext::at(0);
            let (out, _) = t.time("services.call", None, request, || {
                client.call_resilient(&endpoint, &req, &rctx)
            });
            counts.service_calls += 1;
            if let Ok(o) = out {
                counts.service_attempts += o.attempts as u64;
            }
        }
        counts.legs += 1;
        pools.push(decoded.unwrap_or(pool));
    }
    t.time("websearch.merge", None, request, || {
        SearchEngine::merge_pools(pools, k)
    });
}

/// Render the app layout from replayed items, as the runtime's merge
/// and format stage does.
fn render_page(
    app: &ApplicationConfig,
    primary: &HashMap<String, Vec<Item>>,
    suppl: &HashMap<(String, usize, String), Vec<Item>>,
) -> String {
    let no_fields = |_: &str| None;
    let mut top = |source: &str, max: usize, item_el: &Element| -> String {
        let Some(items) = primary.get(source) else {
            return String::new();
        };
        let mut html = String::new();
        for (idx, item) in items.iter().take(max).enumerate() {
            let lookup = |n: &str| field(item, n);
            let mut inner = |ss: &str, smax: usize, sel: &Element| -> String {
                let Some(sitems) = suppl.get(&(source.to_string(), idx, ss.to_string())) else {
                    return String::new();
                };
                let mut s = String::new();
                for sitem in sitems.iter().take(smax) {
                    let sl = |n: &str| field(sitem, n);
                    s.push_str(&render_element(
                        sel,
                        &app.stylesheet,
                        &sl,
                        &mut |_, _, _| String::new(),
                    ));
                }
                s
            };
            html.push_str(&render_element(
                item_el,
                &app.stylesheet,
                &lookup,
                &mut inner,
            ));
        }
        html
    };
    render_element(app.layout.root(), &app.stylesheet, &no_fields, &mut top)
}
