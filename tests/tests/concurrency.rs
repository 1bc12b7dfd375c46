//! Multi-threaded stress tests for the platform's `&self` serving
//! path.
//!
//! The central claim under test: running N workloads concurrently
//! against one shared [`Platform`] produces exactly the same aggregate
//! counters — impressions, clicks, cache hits/misses, publisher
//! earnings, ledger totals, even the virtual clock — as running the
//! same workloads sequentially. The workloads use disjoint apps (one
//! per thread) and only deterministic sources (proprietary tables, the
//! simulated web, the ad auction), so every counter is
//! interleaving-independent.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use symphony_ads::{Ad, Keyword, MatchType};
use symphony_core::app::AppBuilder;
use symphony_core::hosting::{Platform, QuotaConfig};
use symphony_core::source::DataSourceDef;
use symphony_core::{AppId, SourceCacheConfig};
use symphony_designer::{template, Canvas, Element};
use symphony_services::{
    CallPolicy, OperationDesc, Protocol, Service, ServiceDescription, ServiceFault, ServiceRequest,
    ServiceResponse,
};
use symphony_store::ingest::{ingest, DataFormat};
use symphony_store::IndexedTable;
use symphony_web::{Corpus, CorpusConfig, SearchConfig, SearchEngine, Topic, Vertical};

const THREADS: usize = 4;
const QUERIES_PER_THREAD: usize = 300;

const INVENTORY: &str = "\
title,genre,description,detail_url
Galactic Raiders,shooter,a fast space shooter game with lasers,http://shop.example.com/gr
Farm Story,sim,a calm farming game with crops and animals,http://shop.example.com/fs
Star Harvest,sim,space farming game,http://shop.example.com/sh
";

/// One platform hosting `apps` structurally-identical applications,
/// each on its own tenant with its own publisher name.
fn build_platform(apps: usize) -> (Platform, Vec<AppId>) {
    let corpus = Corpus::generate(
        &CorpusConfig {
            sites_per_topic: 2,
            pages_per_site: 4,
            ..CorpusConfig::default()
        }
        .with_entities(
            Topic::Games,
            ["Galactic Raiders", "Farm Story", "Star Harvest"],
        ),
    );
    let mut platform = Platform::new(SearchEngine::new(corpus))
        .with_quotas(QuotaConfig {
            requests_per_minute: u32::MAX,
            // The virtual clock advances with every request from every
            // thread; an effectively-infinite TTL keeps per-app cache
            // behavior a function of that app's own query stream alone.
            cache_ttl_ms: u64::MAX / 2,
            ..QuotaConfig::default()
        })
        // The apps share web-vertical fingerprints, so the shared L2
        // source cache would make per-query charges depend on which
        // thread's fetch lands first (hit vs. coalesced) — exact
        // counter equality needs it off. Singleflight determinism is
        // covered separately below with the L2 enabled.
        .with_source_cache(SourceCacheConfig::disabled());

    let adv = platform.ads_mut().add_advertiser("MegaGames");
    platform.ads_mut().add_campaign(
        adv,
        "games-broad",
        u32::MAX,
        vec![
            Keyword::new("game", MatchType::Broad, 60),
            Keyword::new("shooter", MatchType::Broad, 80),
        ],
        Ad {
            title: "Mega Sale".into(),
            display_url: "mega.example.com".into(),
            target_url: "http://mega.example.com".into(),
            text: "deals on games".into(),
        },
        0.9,
    );
    platform.ads_mut().add_campaign(
        adv,
        "farming",
        u32::MAX,
        vec![Keyword::new("farming", MatchType::Broad, 40)],
        Ad {
            title: "Farm Bundle".into(),
            display_url: "farm.example.com".into(),
            target_url: "http://farm.example.com".into(),
            text: "grow crops".into(),
        },
        0.7,
    );

    let mut ids = Vec::new();
    for i in 0..apps {
        let (tenant, key) = platform.create_tenant(&format!("Tenant{i}"));
        let (table, _) = ingest("inventory", INVENTORY, DataFormat::Csv).unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
            .unwrap();
        platform.upload_table(tenant, &key, indexed).unwrap();

        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas.insert(root, Element::search_box("Search…")).unwrap();
        let item = Element::column(vec![
            Element::link_field("detail_url", "{title}"),
            Element::text("{description}"),
            Element::result_list(
                "reviews",
                Element::column(vec![
                    Element::link_field("url", "{title}"),
                    Element::rich_text("{snippet}"),
                ]),
                2,
            ),
        ]);
        canvas
            .insert(root, Element::result_list("inventory", item, 10))
            .unwrap();
        canvas
            .insert(
                root,
                Element::result_list("sponsored", template::ad_layout(), 1),
            )
            .unwrap();

        let config = AppBuilder::new(&format!("App{i}"), tenant)
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
                    config: SearchConfig::default().restrict_to(["gamespot.com", "ign.com"]),
                },
            )
            .source("sponsored", DataSourceDef::Ads { slots: 1 })
            .supplemental("reviews", "{title} review")
            .build()
            .unwrap();
        let id = platform.register_app(config).unwrap();
        platform.publish(id).unwrap();
        ids.push(id);
    }
    (platform, ids)
}

/// Deterministic per-thread query stream: a head-heavy mix so each
/// stream produces both cache hits and misses.
fn workload(thread: usize) -> Vec<String> {
    let pool = [
        "space shooter game",
        "calm farming game",
        "shooter",
        "farming",
        "fast lasers game",
        "crops and animals",
        "galactic game",
        "star harvest",
    ];
    (0..QUERIES_PER_THREAD)
        .map(|i| pool[(i * (thread + 3)) % pool.len()].to_string())
        .collect()
}

/// Run one thread's workload: query, then click every ad impression.
fn run_workload(platform: &Platform, id: AppId, queries: &[String]) {
    for q in queries {
        let resp = platform.query(id, q).unwrap();
        for imp in resp.impressions.iter().filter(|i| i.is_ad) {
            platform.click(id, q, imp).unwrap();
        }
    }
}

/// Everything we compare between the concurrent and sequential runs.
#[derive(Debug, PartialEq)]
struct Counters {
    per_app: Vec<(u64, u64, u64, u64, u64, u64)>, // impressions, clicks, ad_clicks, hits, misses, earnings
    platform_cut_cents: u64,
    clock_ms: u64,
}

fn counters(platform: &Platform, ids: &[AppId]) -> Counters {
    let per_app = ids
        .iter()
        .map(|&id| {
            let summary = platform.traffic_summary(id).unwrap();
            let cache = platform.cache_stats(id).unwrap();
            (
                summary.impressions,
                summary.clicks,
                summary.ad_clicks,
                cache.hits,
                cache.misses,
                platform.publisher_earnings_cents(id).unwrap(),
            )
        })
        .collect();
    Counters {
        per_app,
        platform_cut_cents: platform.ads().ledger().platform_cut_cents(),
        clock_ms: platform.clock_ms(),
    }
}

#[test]
fn concurrent_counters_match_sequential_run() {
    // Concurrent: THREADS threads share one platform, each serving its
    // own app.
    let (concurrent, ids) = build_platform(THREADS);
    std::thread::scope(|scope| {
        for (t, &id) in ids.iter().enumerate() {
            let platform = &concurrent;
            scope.spawn(move || run_workload(platform, id, &workload(t)));
        }
    });

    // Sequential: an identically-built platform runs the same
    // workloads one after another.
    let (sequential, seq_ids) = build_platform(THREADS);
    for (t, &id) in seq_ids.iter().enumerate() {
        run_workload(&sequential, id, &workload(t));
    }

    let conc = counters(&concurrent, &ids);
    let seq = counters(&sequential, &seq_ids);
    assert_eq!(conc, seq);

    // Sanity on magnitude: every thread really did its full stream.
    for &(impressions, clicks, ad_clicks, hits, misses, earnings) in &conc.per_app {
        assert!(impressions > 0);
        assert_eq!(hits + misses, QUERIES_PER_THREAD as u64);
        assert!(hits > 0, "head-heavy stream must produce cache hits");
        assert!(misses > 0);
        assert!(ad_clicks > 0, "ad clicks must be billed");
        assert_eq!(clicks, ad_clicks, "this workload only clicks ads");
        assert!(earnings > 0);
    }
}

#[test]
fn hammering_one_app_from_many_threads_stays_consistent() {
    // Same app from every thread: exact counters depend on the
    // interleaving (concurrent misses on one key may each execute),
    // but the bookkeeping invariants must hold and every response must
    // be the correct rendering for its query.
    let (platform, ids) = build_platform(1);
    let id = ids[0];
    let expected = platform.query(id, "space shooter game").unwrap();

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let platform = &platform;
            let expected_html = expected.html.clone();
            scope.spawn(move || {
                for _ in 0..QUERIES_PER_THREAD {
                    let resp = platform.query(id, "space shooter game").unwrap();
                    assert_eq!(
                        resp.html, expected_html,
                        "every response renders identically"
                    );
                }
            });
        }
    });

    let cache = platform.cache_stats(id).unwrap();
    let total = (THREADS * QUERIES_PER_THREAD) as u64 + 1;
    assert_eq!(
        cache.hits + cache.misses,
        total,
        "every lookup is counted once"
    );
    assert!(cache.hits > 0);
    let summary = platform.traffic_summary(id).unwrap();
    let per_response = expected.impressions.len() as u64;
    assert_eq!(summary.impressions, total * per_response);
}

#[test]
fn concurrent_ad_clicks_never_overdraw_a_budget() {
    // A tight budget clicked from many threads: some clicks fail with
    // a budget error, but total campaign spend must never exceed the
    // budget (the check and the debit are atomic inside AdServer).
    let corpus = Corpus::generate(&CorpusConfig {
        sites_per_topic: 1,
        pages_per_site: 2,
        ..CorpusConfig::default()
    });
    let mut platform = Platform::new(SearchEngine::new(corpus));
    let adv = platform.ads_mut().add_advertiser("A");
    let campaign = platform.ads_mut().add_campaign(
        adv,
        "tight",
        200,
        vec![Keyword::new("game", MatchType::Broad, 50)],
        Ad {
            title: "t".into(),
            display_url: "d".into(),
            target_url: "http://u.example.com".into(),
            text: "x".into(),
        },
        0.9,
    );

    let placements = platform.ads().select("fun game", 1);
    let placement = placements.first().expect("campaign matches").clone();
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let ads = platform.ads();
            let placement = placement.clone();
            scope.spawn(move || {
                for _ in 0..50 {
                    let _ = ads.record_click(&placement, "pub");
                }
            });
        }
    });
    assert!(platform.ads().ledger().campaign_spend_cents(campaign) <= 200);
    assert!(platform.ads().ledger().campaign_spend_cents(campaign) > 0);
}

#[test]
fn singleflight_executes_a_shared_source_exactly_once() {
    // THREADS apps on one platform share a service-backed source (the
    // L2 key is tenant-agnostic for services). All threads race the
    // same supplemental fetch: the shared source cache must collapse
    // them onto exactly one backend execution — by coalescing onto the
    // in-flight leader or by serving the finished entry — and every
    // thread must render the same response.
    struct CountingService {
        calls: Arc<AtomicUsize>,
    }
    impl Service for CountingService {
        fn describe(&self) -> ServiceDescription {
            ServiceDescription {
                name: "Counting".into(),
                protocol: Protocol::Rest,
                operations: vec![OperationDesc {
                    name: "/price".into(),
                    params: vec!["item".into()],
                    returns: vec!["price".into()],
                }],
            }
        }
        fn handle(&self, _: &ServiceRequest) -> Result<ServiceResponse, ServiceFault> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            // Hold the leader in real time so racing threads pile onto
            // the in-flight entry rather than a finished cache entry —
            // exactly-once must hold under either interleaving.
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok(ServiceResponse::single(&[("price", "9.99")]))
        }
    }

    const ONE_ROW: &str = "title,description\nGalactic Raiders,a fast space shooter\n";
    let corpus = Corpus::generate(&CorpusConfig {
        sites_per_topic: 1,
        pages_per_site: 2,
        ..CorpusConfig::default()
    });
    let calls = Arc::new(AtomicUsize::new(0));
    let mut platform = Platform::new(SearchEngine::new(corpus));
    platform.transport_mut().register(
        "pricing",
        Box::new(CountingService {
            calls: Arc::clone(&calls),
        }),
        symphony_services::LatencyModel {
            base_ms: 10,
            jitter_ms: 0,
            failure_rate: 0.0,
        },
    );

    let mut ids = Vec::new();
    for i in 0..THREADS {
        let (tenant, key) = platform.create_tenant(&format!("Tenant{i}"));
        let (table, _) = ingest("inventory", ONE_ROW, DataFormat::Csv).unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
            .unwrap();
        platform.upload_table(tenant, &key, indexed).unwrap();
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        let item = Element::column(vec![
            Element::text("{title}"),
            Element::result_list("svc", Element::text("price: {price}"), 1),
        ]);
        canvas
            .insert(root, Element::result_list("inventory", item, 5))
            .unwrap();
        let config = AppBuilder::new(&format!("App{i}"), tenant)
            .layout(canvas)
            .source(
                "inventory",
                DataSourceDef::Proprietary {
                    table: "inventory".into(),
                },
            )
            .source(
                "svc",
                DataSourceDef::Service {
                    endpoint: "pricing".into(),
                    operation: "/price".into(),
                    item_param: "item".into(),
                    policy: CallPolicy::default(),
                },
            )
            .supplemental("svc", "{title}")
            .build()
            .unwrap();
        let id = platform.register_app(config).unwrap();
        platform.publish(id).unwrap();
        ids.push(id);
    }

    let barrier = Arc::new(Barrier::new(THREADS));
    let htmls: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let platform = &platform;
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let resp = platform.query(id, "galactic").unwrap();
                    assert!(!resp.trace.degraded, "{}", resp.trace.render());
                    resp.html.clone()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        calls.load(Ordering::SeqCst),
        1,
        "backend ran more than once"
    );
    for html in &htmls {
        assert!(html.contains("price: 9.99"), "{html}");
        assert_eq!(html, &htmls[0], "responses diverged");
    }
    // Per-tenant proprietary fetches each miss once; the shared
    // service key misses once and is served THREADS-1 times.
    let stats = platform.source_cache_stats();
    assert_eq!(stats.executions, THREADS as u64 + 1);
    assert_eq!(stats.misses, THREADS as u64 + 1);
    assert_eq!(stats.hits + stats.coalesced, THREADS as u64 - 1);
}

/// One client's seeded stream of distinct (always-L1-missing) queries
/// over an L2 far smaller than its supplemental key space: the cache
/// evicts and runs TinyLFU admission on almost every page. The fan-out
/// runs inline on the querying thread, so each page reaches the L2 in
/// task order and two fresh platforms end in the same state.
#[test]
fn cold_fanout_at_l2_capacity_is_deterministic() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use symphony_core::SourceCacheStats;
    use symphony_services::{InventoryService, LatencyModel, PricingService};

    const ROWS: usize = 400;
    const QUERIES: usize = 160;

    fn run() -> (SourceCacheStats, Vec<(String, u32, bool)>) {
        let words = Topic::Games.words();
        let mut r = StdRng::seed_from_u64(0xC01D);
        let mut csv = String::from("title,description\n");
        for i in 0..ROWS {
            let description: Vec<&str> =
                (0..6).map(|_| words[r.gen_range(0..words.len())]).collect();
            csv.push_str(&format!("Game {i},{}\n", description.join(" ")));
        }
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 2,
            pages_per_site: 6,
            ..CorpusConfig::default()
        });
        let mut platform = Platform::new(SearchEngine::new(corpus))
            .with_quotas(QuotaConfig {
                requests_per_minute: u32::MAX,
                ..QuotaConfig::default()
            })
            .with_source_cache(SourceCacheConfig {
                capacity: 64,
                ..SourceCacheConfig::default()
            });
        platform.transport_mut().register(
            "pricing",
            Box::new(PricingService),
            LatencyModel {
                base_ms: 10,
                jitter_ms: 20,
                failure_rate: 0.05,
            },
        );
        platform.transport_mut().register(
            "stock",
            Box::new(InventoryService),
            LatencyModel::default(),
        );
        let (tenant, key) = platform.create_tenant("Cold");
        let (table, _) = ingest("inventory", &csv, DataFormat::Csv).unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("description", 1.0)])
            .unwrap();
        platform.upload_table(tenant, &key, indexed).unwrap();

        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        let item = Element::column(vec![
            Element::text("{title}"),
            Element::result_list("reviews", Element::link_field("url", "{title}"), 2),
            Element::result_list("pricing", Element::text("${price}"), 1),
            Element::result_list("stock", Element::text("{quantity} in stock"), 1),
        ]);
        canvas
            .insert(root, Element::result_list("inventory", item, 10))
            .unwrap();
        let service = |endpoint: &str, operation: &str| DataSourceDef::Service {
            endpoint: endpoint.into(),
            operation: operation.into(),
            item_param: "item".into(),
            policy: CallPolicy::default(),
        };
        let config = AppBuilder::new("Cold", tenant)
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
                    config: SearchConfig::default(),
                },
            )
            .source("pricing", service("pricing", "/price"))
            .source("stock", service("stock", "CheckStock"))
            .supplemental("reviews", "{title} review")
            .supplemental("pricing", "{title}")
            .supplemental("stock", "{title}")
            .build()
            .unwrap();
        let id = platform.register_app(config).unwrap();
        platform.publish(id).unwrap();

        // Popular term pairs bring the same rows, and so the same
        // supplemental keys, back; the trailing token keeps every
        // query text distinct.
        let mut q = StdRng::seed_from_u64(7);
        let responses = (0..QUERIES)
            .map(|i| {
                let a = words[q.gen_range(0..8)];
                let b = words[q.gen_range(0..words.len())];
                let resp = platform.query(id, &format!("{a} {b} zq{i}")).unwrap();
                assert!(!resp.trace.cache_hit, "distinct queries miss L1");
                (resp.html.clone(), resp.virtual_ms, resp.trace.degraded)
            })
            .collect();
        (platform.source_cache_stats(), responses)
    }

    let (stats, responses) = run();
    assert!(
        stats.evictions > 0,
        "the stream must run the L2 at capacity"
    );
    assert!(stats.hits > 0, "popular rows must bring keys back");
    assert!(responses.iter().any(|(_, _, degraded)| *degraded));
    assert_eq!(run(), (stats, responses));
}
