//! Cluster integration tests: bit-identical scatter-gather, replica
//! failover, partial degradation, tenant placement, and rebalancing.

use std::sync::Arc;

use symphony_cluster::{rendezvous_shard, ClusterWeb, Router};
use symphony_core::{AppBuilder, ApplicationConfig, DataSourceDef, ScatterSearch};
use symphony_designer::{Canvas, Element};
use symphony_services::rpc::{replica_endpoint, shard_endpoint};
use symphony_services::{BreakerState, FaultPlan};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::{IndexedTable, TenantId};
use symphony_text::snippet::SnippetGenerator;
use symphony_text::Query;
use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical, WebResult};

fn corpus() -> Corpus {
    Corpus::generate(
        &CorpusConfig {
            sites_per_topic: 3,
            pages_per_site: 6,
            ..CorpusConfig::default()
        }
        .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]),
    )
}

fn shard_fleet(corpus: &Corpus, n: usize) -> Vec<Arc<SearchEngine>> {
    SearchEngine::build_cluster(corpus, n, 1)
        .into_iter()
        .map(Arc::new)
        .collect()
}

fn result_bits(results: &[WebResult]) -> Vec<(String, u32)> {
    results
        .iter()
        .map(|r| (r.url.clone(), r.score.to_bits()))
        .collect()
}

/// The snippet an eager pool built for a result: the vertical index's
/// analyzer over the query's positive words, augmentation terms
/// included, run on the page body.
fn eager_snippet(
    engine: &SearchEngine,
    vertical: Vertical,
    query: &str,
    config: &SearchConfig,
    url: &str,
) -> String {
    let parsed = Query::parse(query);
    let mut words = parsed.positive_words();
    words.extend(config.augment_terms.iter().map(String::as_str));
    let body = &engine.corpus().page_by_url(url).expect("known url").body;
    SnippetGenerator::new(engine.analyzer(vertical), &words).snippet(body)
}

/// Index of the first result whose snippet differs from the eager one.
fn wrong_snippet(
    engine: &SearchEngine,
    vertical: Vertical,
    query: &str,
    config: &SearchConfig,
    results: &[WebResult],
) -> Option<usize> {
    results
        .iter()
        .position(|r| r.snippet != eager_snippet(engine, vertical, query, config, &r.url))
}

const QUERIES: [&str; 4] = [
    "Galactic Raiders",
    "game review",
    "+space farm",
    "\"Farm Story\"",
];

#[test]
fn scatter_is_bit_identical_to_single_engine_search() {
    let corpus = corpus();
    let single = SearchEngine::new(corpus.clone());
    let config = SearchConfig::default();
    let mut costs = Vec::new();
    for n in [1usize, 2, 4] {
        let cluster = ClusterWeb::new(shard_fleet(&corpus, n), 0x5CA7);
        let mut worst = 0u32;
        for vertical in Vertical::ALL {
            for q in QUERIES {
                let out = cluster.scatter(vertical, q, &config, 10, 0);
                assert_eq!(out.shards_answered, n as u32);
                assert_eq!(out.error, None);
                let want = single.search(vertical, q, &config, 10);
                let at = format!("vertical {vertical:?} query {q:?} shards {n}");
                assert_eq!(result_bits(&out.results), result_bits(&want), "{at}");
                assert_eq!(out.results, want, "{at}");
                assert_eq!(
                    wrong_snippet(&single, vertical, q, &config, &out.results),
                    None,
                    "{at}"
                );
                worst = worst.max(out.virtual_ms);
            }
        }
        costs.push(worst);
    }
    // Splitting documents across nodes shrinks the per-leg RPC, and
    // legs run in parallel: 4 shards must beat 1 on virtual cost.
    assert!(
        costs[2] < costs[0],
        "4-shard cost {} should undercut 1-shard cost {}",
        costs[2],
        costs[0]
    );
}

#[test]
fn primary_outage_fails_over_to_replica_with_full_results() {
    let corpus = corpus();
    let single = SearchEngine::new(corpus.clone());
    let plan = FaultPlan::new().outage(&shard_endpoint(0), 0, 1_000_000);
    let cluster = ClusterWeb::new(shard_fleet(&corpus, 3), 0x5CA7).with_fault_plan(plan);
    let config = SearchConfig::default();
    let out = cluster.scatter(Vertical::Web, "game review", &config, 10, 100);
    // The replica answered for shard 0: nothing degraded, results
    // still exactly the single-index ranking.
    assert_eq!(out.shards_answered, 3);
    assert_eq!(out.error, None);
    assert_eq!(
        result_bits(&out.results),
        result_bits(&single.search(Vertical::Web, "game review", &config, 10))
    );
}

#[test]
fn repeated_outage_trips_the_breaker_and_cheapens_failover() {
    let corpus = corpus();
    let plan = FaultPlan::new().outage(&shard_endpoint(0), 0, 10_000_000);
    let cluster = ClusterWeb::new(shard_fleet(&corpus, 2), 0x5CA7).with_fault_plan(plan);
    let config = SearchConfig::default();
    let first = cluster.scatter(Vertical::Web, "game review", &config, 10, 0);
    let mut now = 1_000u64;
    let mut open_at = None;
    for _ in 0..20 {
        let out = cluster.scatter(Vertical::Web, "game review", &config, 10, now);
        assert_eq!(out.shards_answered, 2, "replica keeps the shard serving");
        if cluster.breaker_state(&shard_endpoint(0), now) == BreakerState::Open {
            open_at = Some(now);
            break;
        }
        now += 1_000;
    }
    let open_at = open_at.expect("breaker opens under a sustained outage");
    // With the primary fast-failed by the open breaker, the next call
    // skips the burned primary attempts entirely: failover costs only
    // the replica leg, far under the first, breaker-less failover.
    let tripped = cluster.scatter(Vertical::Web, "game review", &config, 10, open_at);
    assert_eq!(tripped.shards_answered, 2);
    assert!(
        tripped.virtual_ms < first.virtual_ms,
        "post-trip cost {} should undercut first failover {}",
        tripped.virtual_ms,
        first.virtual_ms
    );
}

#[test]
fn dead_shard_degrades_to_partial_results() {
    let corpus = corpus();
    let plan = FaultPlan::new()
        .outage(&shard_endpoint(0), 0, 1_000_000)
        .outage(&replica_endpoint(0), 0, 1_000_000);
    let fleet = shard_fleet(&corpus, 3);
    let surviving: Vec<String> = fleet[1..]
        .iter()
        .flat_map(|e| e.search(Vertical::Web, "game review", &SearchConfig::default(), 50))
        .map(|r| r.url)
        .collect();
    let cluster = ClusterWeb::new(fleet, 0x5CA7).with_fault_plan(plan);
    let out = cluster.scatter(
        Vertical::Web,
        "game review",
        &SearchConfig::default(),
        10,
        100,
    );
    assert_eq!(out.shards_total, 3);
    assert_eq!(out.shards_answered, 2);
    let err = out.error.expect("partial result carries an error");
    assert!(
        err.contains("shard(s) 0"),
        "error names the dead shard: {err}"
    );
    assert!(!out.results.is_empty(), "survivors still answer");
    for r in &out.results {
        assert!(
            surviving.contains(&r.url),
            "{} can only come from a live shard",
            r.url
        );
    }
    let engine = &cluster.shard_engines()[1];
    let config = SearchConfig::default();
    assert_eq!(
        wrong_snippet(engine, Vertical::Web, "game review", &config, &out.results),
        None,
        "the partial page is snippeted at the gather side"
    );
}

#[test]
fn rendezvous_placement_is_deterministic_and_spreads() {
    let shards = 4;
    let mut counts = vec![0usize; shards];
    for i in 0..200 {
        let name = format!("tenant-{i}");
        let s = rendezvous_shard(&name, shards);
        assert_eq!(s, rendezvous_shard(&name, shards), "stable placement");
        counts[s] += 1;
    }
    for (s, &c) in counts.iter().enumerate() {
        assert!(
            c >= 20,
            "shard {s} got {c}/200 tenants — rendezvous should spread"
        );
    }
    // Growing the fleet only relocates tenants, never scrambles the
    // ones whose rendezvous winner is unchanged: the 4-shard winner
    // keeps winning among the first 4 when it also wins at 5.
    for i in 0..50 {
        let name = format!("tenant-{i}");
        let four = rendezvous_shard(&name, 4);
        let five = rendezvous_shard(&name, 5);
        assert!(five == four || five == 4, "HRW minimal disruption");
    }
}

fn web_app(name: &str, owner: TenantId) -> ApplicationConfig {
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("web", Element::text("{title}"), 10),
        )
        .unwrap();
    AppBuilder::new(name, owner)
        .layout(canvas)
        .source(
            "web",
            DataSourceDef::WebVertical {
                vertical: Vertical::Web,
                config: SearchConfig::default(),
            },
        )
        .build()
        .unwrap()
}

fn inventory_app(name: &str, owner: TenantId) -> ApplicationConfig {
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("inv", Element::text("{title}"), 10),
        )
        .unwrap();
    AppBuilder::new(name, owner)
        .layout(canvas)
        .source(
            "inv",
            DataSourceDef::Proprietary {
                table: "inv".into(),
            },
        )
        .build()
        .unwrap()
}

fn inventory_table() -> IndexedTable {
    let (table, _) = ingest(
        "inv",
        "title\nGalactic Raiders deluxe\nFarm Story pack\n",
        DataFormat::Csv,
    )
    .unwrap();
    let mut indexed = IndexedTable::new(table);
    indexed.enable_fulltext(&[("title", 1.0)]).unwrap();
    indexed
}

/// Two tenant names guaranteed to land on different shards.
fn two_spread_tenants(router: &Router) -> (String, String) {
    let first = "tenant-0".to_string();
    let home = router.home_shard(&first);
    for i in 1..64 {
        let name = format!("tenant-{i}");
        if router.home_shard(&name) != home {
            return (first, name);
        }
    }
    panic!("no spread among 64 tenant names");
}

#[test]
fn router_homes_tenants_and_serves_queries_bit_identically() {
    let corpus = corpus();
    let single = SearchEngine::new(corpus.clone());
    let mut router = Router::new(&corpus, 4, 1, 0xC0FFEE);
    let (a, b) = two_spread_tenants(&router);
    let sa = router.create_tenant(&a);
    let sb = router.create_tenant(&b);
    assert_ne!(sa, sb);
    assert_eq!(router.tenant_shard(&a), Some(sa));

    let dummy = TenantId(0); // overwritten by register_app
    let app_a = router.register_app(&a, web_app("AppA", dummy)).unwrap();
    let app_b = router.register_app(&b, web_app("AppB", dummy)).unwrap();
    router.publish(app_a).unwrap();
    router.publish(app_b).unwrap();

    let resp = router.query(app_a, "Galactic Raiders").unwrap();
    assert!(!resp.trace.shed && !resp.trace.degraded);
    // The rendered impressions follow the single-index ranking: the
    // scatter path is invisible to the application.
    let expected = single.search(
        Vertical::Web,
        "Galactic Raiders",
        &SearchConfig::default(),
        10,
    );
    let urls: Vec<&str> = resp
        .impressions
        .iter()
        .filter_map(|i| i.url.as_deref())
        .collect();
    let expected_urls: Vec<&str> = expected.iter().map(|r| r.url.as_str()).collect();
    assert_eq!(urls, expected_urls);
    assert!(router.query(app_b, "farm").is_ok());

    // Folded observability: both apps' queries show up, weighted into
    // one cluster summary; the repeat query hits an L1 cache somewhere
    // in the fleet and the folded cache stats see it.
    router.query(app_a, "Galactic Raiders").unwrap();
    let summary = router.traffic_summary();
    assert_eq!(summary.app, "cluster");
    assert_eq!(summary.queries, 3);
    assert_eq!(summary.shed_queries, 0);
    let cache = router.cache_stats();
    assert!(cache.hits >= 1, "repeat query hits the app cache");
    assert!(cache.misses >= 2, "first queries miss");
}

#[test]
fn move_tenant_rehomes_tables_apps_and_routes() {
    let corpus = corpus();
    let mut router = Router::new(&corpus, 3, 1, 0xC0FFEE);
    let name = "alice";
    let home = router.create_tenant(name);
    router.upload_table(name, inventory_table()).unwrap();
    let app = router
        .register_app(name, inventory_app("Shop", TenantId(0)))
        .unwrap();
    router.publish(app).unwrap();
    let before = router.query(app, "galactic").unwrap();
    assert!(before.html.contains("Galactic Raiders deluxe"));

    let target = (home + 1) % router.num_shards();
    router.move_tenant(name, target).unwrap();
    assert_eq!(router.tenant_shard(name), Some(target));
    // Same global app id, same table, new shard.
    let after = router.query(app, "galactic").unwrap();
    assert!(after.html.contains("Galactic Raiders deluxe"));
    assert!(!after.trace.degraded, "table moved with the tenant");
    // Moving to the current shard is a no-op.
    router.move_tenant(name, target).unwrap();
    assert_eq!(router.tenant_shard(name), Some(target));
}

mod sharded_equals_single {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The heart of the tentpole guarantee, under random corpora:
        /// for every shard count 1–8, scatter-gather over the
        /// document-partitioned fleet returns exactly — bit for bit —
        /// what one index over the whole corpus returns.
        #[test]
        fn sharded_equals_single(
            seed in 0u64..1_000,
            sites in 1usize..4,
            pages in 2usize..7,
            shards in 1usize..=8,
            k in 1usize..16,
            query_idx in 0usize..6,
            vertical_idx in 0usize..4,
        ) {
            let corpus = Corpus::generate(
                &CorpusConfig {
                    seed,
                    sites_per_topic: sites,
                    pages_per_site: pages,
                    ..CorpusConfig::default()
                }
                .with_entities(Topic::Games, ["Galactic Raiders"]),
            );
            let queries = [
                "Galactic Raiders",
                "game review",
                "+space farm",
                "\"Galactic Raiders\"",
                "lasers -golf",
                "news trailer",
            ];
            let query = queries[query_idx];
            let vertical = Vertical::ALL[vertical_idx];
            let single = SearchEngine::new(corpus.clone());
            let cluster = ClusterWeb::new(shard_fleet(&corpus, shards), seed);
            let config = SearchConfig::default();
            let out = cluster.scatter(vertical, query, &config, k, 0);
            prop_assert_eq!(out.shards_answered as usize, shards);
            prop_assert_eq!(out.error, None);
            let want = single.search(vertical, query, &config, k);
            prop_assert_eq!(result_bits(&out.results), result_bits(&want));
            prop_assert_eq!(
                wrong_snippet(&single, vertical, query, &config, &out.results),
                None
            );
            prop_assert_eq!(out.results, want);
        }
    }
}

#[test]
fn full_shard_outage_serves_degraded_queries_through_the_router() {
    let corpus = corpus();
    let plan = FaultPlan::new()
        .outage(&shard_endpoint(1), 0, 10_000_000)
        .outage(&replica_endpoint(1), 0, 10_000_000);
    let mut router = Router::with_faults(&corpus, 3, 1, 0xC0FFEE, plan);
    let name = "tenant-0";
    router.create_tenant(name);
    let app = router
        .register_app(name, web_app("Chaos", TenantId(0)))
        .unwrap();
    router.publish(app).unwrap();
    let resp = router.query(app, "game review").unwrap();
    // The query serves: partial results, marked degraded, with the
    // silent shard named in the trace.
    assert!(resp.trace.degraded, "shard loss degrades, never errors");
    assert!(!resp.trace.shed);
    let rendered = format!("{:?}", resp.trace);
    assert!(
        rendered.contains("shard(s) 1"),
        "trace names the dead shard: {rendered}"
    );
    let summary = router.app_traffic_summary(app).unwrap();
    assert_eq!(summary.degraded_queries, 1);
}

#[test]
fn dead_shard_partial_page_through_the_router_carries_snippets() {
    let corpus = corpus();
    let plan = FaultPlan::new()
        .outage(&shard_endpoint(2), 0, 10_000_000)
        .outage(&replica_endpoint(2), 0, 10_000_000);
    let mut router = Router::with_faults(&corpus, 3, 1, 0xC0FFEE, plan);
    let name = "tenant-0";
    router.create_tenant(name);
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("web", Element::rich_text("[{snippet}]"), 10),
        )
        .unwrap();
    let config = SearchConfig::default().augment(["review"]);
    let app = AppBuilder::new("Snippets", TenantId(0))
        .layout(canvas)
        .source(
            "web",
            DataSourceDef::WebVertical {
                vertical: Vertical::Web,
                config: config.clone(),
            },
        )
        .build()
        .unwrap();
    let app = router.register_app(name, app).unwrap();
    router.publish(app).unwrap();
    let resp = router.query(app, "Galactic Raiders").unwrap();
    assert!(resp.trace.degraded, "shard 2 is silent");

    // The page the two live shards produce, in order; each result must
    // show the snippet an eager pool would have built.
    let engines = router.cluster().shard_engines();
    let pools = engines[..2]
        .iter()
        .map(|e| e.search_pool(Vertical::Web, "Galactic Raiders", &config, 10))
        .collect();
    let partial = SearchEngine::merge_pools(pools, 10);
    assert!(!partial.is_empty());
    let mut from = 0;
    for r in &partial {
        let snippet = eager_snippet(
            &engines[0],
            Vertical::Web,
            "Galactic Raiders",
            &config,
            &r.url,
        );
        assert!(snippet.contains("<b>"), "{snippet}");
        let at = resp.html[from..]
            .find(&format!("[{snippet}]"))
            .unwrap_or_else(|| panic!("{} missing or out of order in {}", r.url, resp.html));
        from += at + 1;
    }
    assert_eq!(resp.html.matches("[").count(), partial.len());
}
