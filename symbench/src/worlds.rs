//! Seeded inputs and world builders for the four workloads.
//!
//! Everything a workload feeds the program is generated here from the
//! workload seed; the program only ever sees the generated rows,
//! queries and arrivals. A world build is what `setup_s` times.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symphony_bench::traffic::{generate, Arrival, TrafficConfig};
use symphony_bench::{corpus, Scale, REVIEW_SITES};
use symphony_cluster::Router;
use symphony_core::app::AppBuilder;
use symphony_core::runtime::{execute_resilient, ExecCtx, ExecMode};
use symphony_core::source::{DataSourceDef, Substrates};
use symphony_core::{
    AdmissionPolicy, AppId, ApplicationConfig, Lane, MonetizationConfig, Platform, QuotaConfig,
    SourceCacheConfig,
};
use symphony_designer::{Canvas, Element};
use symphony_services::SimulatedTransport;
use symphony_services::{CallPolicy, InventoryService, LatencyModel, PricingService};
use symphony_store::{
    AccessKey, CmpOp, FieldType, Filter, IndexKind, IndexedTable, Record, Schema, Table, TenantId,
    Value,
};
use symphony_web::{Corpus, SearchConfig, SearchEngine, Topic, Vertical};

/// SplitMix64: per-item seeds derived from the workload seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, salt))
}

fn games() -> &'static [&'static str] {
    Topic::Games.words()
}

const GENRES: [&str; 12] = [
    "shooter",
    "racing",
    "puzzle",
    "strategy",
    "arcade",
    "sports",
    "horror",
    "platformer",
    "simulation",
    "adventure",
    "fighting",
    "rhythm",
];

/// Seed of the platform transports and of the benchmark's own copy.
pub const TRANSPORT_SEED: u64 = 0xD1CE;

/// Register the supplemental services. Called for a platform's
/// transport and for the benchmark's own, so both hold identical
/// registrations.
pub fn register_services(transport: &mut SimulatedTransport) {
    // A small seeded failure rate: some pricing slots error, so some
    // responses are degraded.
    transport.register(
        "pricing",
        Box::new(PricingService),
        LatencyModel {
            base_ms: 10,
            jitter_ms: 20,
            failure_rate: 0.02,
        },
    );
    transport.register("stock", Box::new(InventoryService), LatencyModel::default());
}

/// The benchmark's own service transport.
pub fn bench_transport() -> SimulatedTransport {
    let mut t = SimulatedTransport::new(TRANSPORT_SEED);
    register_services(&mut t);
    t
}

fn unlimited_quotas(cache_ttl_ms: u64) -> QuotaConfig {
    QuotaConfig {
        requests_per_minute: u32::MAX,
        cache_ttl_ms,
        ..QuotaConfig::default()
    }
}

fn no_logging() -> MonetizationConfig {
    MonetizationConfig {
        log_interactions: false,
        publisher: String::new(),
    }
}

/// One synthetic inventory row: title, genre, description, price.
pub type Row = (String, String, String, f64);

fn capitalize(w: &str) -> String {
    let mut c = w.chars();
    match c.next() {
        Some(f) => f.to_uppercase().chain(c).collect(),
        None => String::new(),
    }
}

/// `n` inventory rows with distinct titles. Titles are distinct so one
/// page never asks the L2 cache for the same supplemental key twice:
/// concurrent fan-out workers would then race for it. Row `i` takes the
/// `i`-th (word, word, edition) title for every seed, so the cost of the
/// titles' review searches does not swing with the seed; genres,
/// descriptions and prices are drawn from it.
pub fn inventory_rows(seed: u64, salt: u64, n: usize) -> Vec<Row> {
    let mut r = rng(seed, salt);
    let words = games();
    let w = words.len();
    let general = symphony_web::topic::GENERAL_WORDS;
    (0..n)
        .map(|i| {
            let title = format!(
                "{} {} {}",
                capitalize(words[i % w]),
                capitalize(words[(i / w) % w]),
                1 + i / (w * w)
            );
            let genre = GENRES[r.gen_range(0..GENRES.len())].to_string();
            let description: Vec<&str> = (0..12)
                .map(|_| {
                    if r.gen_bool(0.6) {
                        words[r.gen_range(0..words.len())]
                    } else {
                        general[r.gen_range(0..general.len())]
                    }
                })
                .collect();
            let price = r.gen_range(500..6000) as f64 / 100.0;
            (title, genre, description.join(" "), price)
        })
        .collect()
}

/// An indexed inventory table over `rows`.
pub fn inventory_table(rows: &[Row]) -> IndexedTable {
    let schema = Schema::of(&[
        ("title", FieldType::Text),
        ("genre", FieldType::Text),
        ("description", FieldType::Text),
        ("price", FieldType::Float),
    ]);
    let mut table = Table::new("inventory", schema);
    for (title, genre, description, price) in rows {
        table.insert(Record::new(vec![
            Value::Text(title.clone()),
            Value::Text(genre.clone()),
            Value::Text(description.clone()),
            Value::Float(*price),
        ]));
    }
    let mut indexed = IndexedTable::new(table);
    indexed
        .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
        .expect("inventory columns exist");
    indexed
}

fn reviews_source() -> DataSourceDef {
    DataSourceDef::WebVertical {
        vertical: Vertical::Web,
        config: SearchConfig::default().restrict_to(REVIEW_SITES),
    }
}

fn service_source(endpoint: &str, operation: &str) -> DataSourceDef {
    DataSourceDef::Service {
        endpoint: endpoint.into(),
        operation: operation.into(),
        item_param: "item".into(),
        policy: CallPolicy::default(),
    }
}

// ---- cold_fanout -------------------------------------------------------

/// Rows in the `cold_fanout` inventory. Each title keys three
/// supplemental fetches, so the key space is far larger than the
/// 4 096 entries of the default L2.
pub const COLD_ROWS: usize = 20_000;
/// Results per page.
pub const COLD_K: usize = 10;

/// Inputs of `cold_fanout`.
pub struct ColdInputs {
    /// Inventory rows.
    pub rows: Vec<Row>,
    terms: symphony_web::zipf::Zipf,
    seed: u64,
}

impl ColdInputs {
    /// Generate from the seed.
    pub fn new(seed: u64) -> ColdInputs {
        ColdInputs {
            rows: inventory_rows(seed, 1, COLD_ROWS),
            terms: symphony_web::zipf::Zipf::new(games().len(), 1.0),
            seed,
        }
    }

    /// Query `i`: two Zipf-popular inventory terms plus a token no
    /// other query carries, so every query text is distinct and L1
    /// always misses, while popular term pairs bring the same rows —
    /// and so the same supplemental keys — back.
    pub fn query(&self, i: u64) -> String {
        let mut r = StdRng::seed_from_u64(mix(self.seed ^ 0xC01D, i));
        let w = games();
        let a = w[self.terms.sample(&mut r)];
        let b = w[self.terms.sample(&mut r)];
        format!("{a} {b} zq{i}")
    }
}

/// The `cold_fanout` world: one GamerQueen-shaped app.
pub struct ColdWorld {
    /// The platform.
    pub platform: Platform,
    /// The app.
    pub app: AppId,
}

/// Build the `cold_fanout` world.
pub fn build_cold(inputs: &ColdInputs) -> ColdWorld {
    let mut platform = Platform::new(SearchEngine::new(corpus(Scale::Medium)))
        .with_transport_seed(TRANSPORT_SEED)
        .with_quotas(unlimited_quotas(QuotaConfig::default().cache_ttl_ms));
    register_services(platform.transport_mut());
    let (tenant, key) = platform.create_tenant("GamerQueen");
    platform
        .upload_table(tenant, &key, inventory_table(&inputs.rows))
        .expect("within quota");
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
        Element::result_list("pricing", Element::text("${price}"), 1),
        Element::result_list("stock", Element::text("{quantity} in stock"), 1),
    ]);
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(root, Element::search_box("Search games…"))
        .expect("root");
    canvas
        .insert(root, Element::result_list("inventory", item, COLD_K))
        .expect("root");
    let config = AppBuilder::new("GamerQueen", tenant)
        .layout(canvas)
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .source("reviews", reviews_source())
        .source("pricing", service_source("pricing", "/price"))
        .source("stock", service_source("stock", "CheckStock"))
        .supplemental("reviews", "{title} review")
        .supplemental("pricing", "{title}")
        .supplemental("stock", "{title}")
        // The event log would grow with every served query; this
        // workload measures the miss path, not the log.
        .monetization(no_logging())
        .build()
        .expect("valid app");
    let app = platform.register_app(config).expect("registers");
    platform.publish(app).expect("publishes");
    platform.warmup();
    ColdWorld { platform, app }
}

// ---- web_scatter -------------------------------------------------------

/// Shards behind the router.
pub const SHARDS: usize = 4;
/// Web-only tenants.
pub const WEB_TENANTS: usize = 16;
/// Distinct query texts in the Zipf stream.
pub const WEB_POOL: usize = 4_000;
/// Zipf skew of the web query stream. Mild, so no handful of head
/// queries — different for every seed — sets the run's cost.
pub const WEB_SKEW: f64 = 0.7;

/// Inputs of `web_scatter`.
pub struct ScatterInputs {
    /// Query texts, most popular first.
    pub pool: Vec<String>,
    zipf: symphony_web::zipf::Zipf,
    seed: u64,
}

impl ScatterInputs {
    /// Generate from the seed.
    pub fn new(seed: u64) -> ScatterInputs {
        let mut r = rng(seed, 2);
        let pool = (0..WEB_POOL)
            .map(|_| {
                let topic = Topic::ALL[r.gen_range(0..Topic::ALL.len())];
                let w = topic.words();
                format!(
                    "{} {}",
                    w[r.gen_range(0..w.len())],
                    w[r.gen_range(0..w.len())]
                )
            })
            .collect();
        ScatterInputs {
            pool,
            zipf: symphony_web::zipf::Zipf::new(WEB_POOL, WEB_SKEW),
            seed,
        }
    }

    /// Query `i`: `(tenant, text)`, Zipf over the pool.
    pub fn query(&self, i: u64) -> (usize, &str) {
        let mut r = StdRng::seed_from_u64(mix(self.seed ^ 0x5CA7, i));
        let q = self.zipf.sample(&mut r);
        (r.gen_range(0..WEB_TENANTS), &self.pool[q])
    }
}

/// The `web_scatter` world.
pub struct ScatterWorld {
    /// The router over the shard fleet.
    pub router: Router,
    /// One web app per tenant.
    pub apps: Vec<AppId>,
}

/// The corpus `web_scatter` serves.
pub fn scatter_corpus() -> Corpus {
    corpus(Scale::Large)
}

/// Build the `web_scatter` world over `corpus`.
pub fn build_scatter(corpus: &Corpus) -> ScatterWorld {
    let mut router = Router::new(corpus, SHARDS, 2, 0xE5AD)
        .with_quotas(unlimited_quotas(0))
        .with_source_cache(SourceCacheConfig::disabled());
    let mut apps = Vec::new();
    for i in 0..WEB_TENANTS {
        let name = format!("Tenant{i}");
        router.create_tenant(&name);
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list("web", Element::link_field("url", "{title}"), 10),
            )
            .expect("root");
        // The router replaces the owner with the shard-local tenant.
        let config = AppBuilder::new(&format!("App{i}"), TenantId(0))
            .layout(canvas)
            .source(
                "web",
                DataSourceDef::WebVertical {
                    vertical: Vertical::Web,
                    config: SearchConfig::default(),
                },
            )
            .monetization(no_logging())
            .build()
            .expect("valid app");
        let id = router.register_app(&name, config).expect("registers");
        router.publish(id).expect("publishes");
        apps.push(id);
    }
    router.warmup();
    ScatterWorld { router, apps }
}

impl ScatterWorld {
    /// Home shard, shard-local id and config of tenant `i`'s app.
    pub fn local_app(&self, i: usize) -> (usize, AppId, &ApplicationConfig) {
        let shard = self
            .router
            .tenant_shard(&format!("Tenant{i}"))
            .expect("tenant exists");
        let name = format!("App{i}");
        let platform = self.router.shard(shard);
        let (local, config) = (0..)
            .map_while(|j| platform.app(AppId(j)).map(|c| (AppId(j), c)))
            .find(|(_, c)| c.name == name)
            .expect("app registered on its home shard");
        (shard, local, config)
    }
}

// ---- tenant_mix --------------------------------------------------------

/// Tenants on the platform.
pub const MIX_TENANTS: usize = 8;
/// Inventory rows per tenant.
pub const MIX_ROWS: usize = 400;
/// Distinct query texts per tenant stream.
pub const MIX_POOL: usize = 96;
/// Sessions in the generated schedule (each has 1–4 arrivals); the
/// replay repeats the schedule, shifted in time, when it runs out.
pub const MIX_SESSIONS: usize = 40_000;
/// Virtual span the generated sessions start within, before scaling.
const MIX_SPAN_MS: u64 = 4_000_000;
/// Offered load as a share of pilot-measured capacity.
pub const MIX_LOAD: f64 = 0.5;
/// Provisioned admission rate as a share of capacity (as `e-overload`).
pub const MIX_PROVISION: f64 = 0.85;
/// Tenant popularity skew.
const MIX_SKEW: f64 = 0.8;
/// Admission burst per tenant.
pub const MIX_BURST: u32 = 16;

/// Inputs of `tenant_mix`.
pub struct MixInputs {
    /// Inventory rows per tenant.
    pub rows: Vec<Vec<Row>>,
    /// Query texts.
    pub pool: Vec<String>,
    /// Arrival schedule on the virtual clock (unscaled).
    pub arrivals: Vec<Arrival>,
    /// Ad campaigns: `(keyword, bid cents)`.
    pub campaigns: Vec<(String, u32)>,
}

impl MixInputs {
    /// Generate from the seed.
    pub fn new(seed: u64) -> MixInputs {
        let rows = (0..MIX_TENANTS)
            .map(|t| inventory_rows(seed, 100 + t as u64, MIX_ROWS))
            .collect();
        let mut r = rng(seed, 3);
        let w = games();
        let pool = (0..MIX_POOL)
            .map(|_| {
                format!(
                    "{} {}",
                    w[r.gen_range(0..w.len())],
                    w[r.gen_range(0..w.len())]
                )
            })
            .collect();
        let campaigns = (0..12)
            .map(|_| (w[r.gen_range(0..w.len())].to_string(), r.gen_range(20..90)))
            .collect();
        let arrivals = generate(&TrafficConfig {
            tenants: MIX_TENANTS,
            sessions: MIX_SESSIONS,
            tenant_skew: MIX_SKEW,
            duration_ms: MIX_SPAN_MS,
            diurnal_amplitude: 0.3,
            query_pool: MIX_POOL,
            click_base: 0.3,
            bursts: Vec::new(),
            seed: mix(seed, 4),
        });
        MixInputs {
            rows,
            pool,
            arrivals,
            campaigns,
        }
    }

    /// Mean arrival rate of the unscaled schedule, per virtual second.
    pub fn arrival_qps(&self) -> f64 {
        let span = self.span_ms().max(1);
        self.arrivals.len() as f64 * 1000.0 / span as f64
    }

    /// Virtual span of one pass over the schedule.
    pub fn span_ms(&self) -> u64 {
        self.arrivals.last().map_or(0, |a| a.at_ms + 1)
    }
}

/// The `tenant_mix` world.
pub struct MixWorld {
    /// The platform.
    pub platform: Platform,
    /// One app per tenant.
    pub apps: Vec<AppId>,
    /// Tenant ids and keys (for re-uploads).
    pub tenants: Vec<(TenantId, AccessKey)>,
    /// Provisioned admission rate per tenant, per virtual second.
    pub rates: Vec<u32>,
    /// Capacity the pilot measured, queries per virtual second.
    pub capacity_qps: f64,
    /// Factor turning the generated schedule's times into times at
    /// [`MIX_LOAD`] of capacity.
    pub time_scale: f64,
}

fn mix_app(i: usize, tenant: TenantId, admission: AdmissionPolicy) -> ApplicationConfig {
    let item = Element::column(vec![
        Element::text("{title}"),
        Element::result_list("reviews", Element::link_field("url", "{title}"), 1),
        Element::result_list("pricing", Element::text("${price}"), 1),
    ]);
    let mut canvas = Canvas::new();
    let root = canvas.root_id();
    canvas
        .insert(
            root,
            Element::result_list("ads", Element::text("{title} {display_url}"), 2),
        )
        .expect("root");
    canvas
        .insert(root, Element::result_list("inventory", item, 3))
        .expect("root");
    AppBuilder::new(&format!("Shop{i}"), tenant)
        .layout(canvas)
        .source(
            "inventory",
            DataSourceDef::Proprietary {
                table: "inventory".into(),
            },
        )
        .source("ads", DataSourceDef::Ads { slots: 2 })
        .source("reviews", reviews_source())
        .source("pricing", service_source("pricing", "/price"))
        .supplemental("reviews", "{title} review")
        .supplemental("pricing", "{title}")
        .monetization(MonetizationConfig {
            log_interactions: true,
            publisher: format!("pub-{i}"),
        })
        .admission(admission)
        .build()
        .expect("valid app")
}

/// Integer rates summing to `total`, split by Zipf share with
/// largest-remainder rounding (as `e-overload` provisions).
fn zipf_rates(total: u64, n: usize, skew: f64) -> Vec<u32> {
    let raw: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(skew)).collect();
    let sum: f64 = raw.iter().sum();
    let exact: Vec<f64> = raw.iter().map(|s| total as f64 * s / sum).collect();
    let mut rates: Vec<u64> = exact.iter().map(|e| e.floor() as u64).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        (exact[b] - rates[b] as f64)
            .total_cmp(&(exact[a] - rates[a] as f64))
            .then(a.cmp(&b))
    });
    let mut left = total.saturating_sub(rates.iter().sum());
    for i in order {
        if left == 0 {
            break;
        }
        rates[i] += 1;
        left -= 1;
    }
    rates.into_iter().map(|r| r.max(1) as u32).collect()
}

/// Arrivals the pilot executes to measure service time.
const PILOT_QUERIES: usize = 120;

/// Build the `tenant_mix` world.
pub fn build_mix(inputs: &MixInputs) -> MixWorld {
    let mut platform = Platform::new(SearchEngine::new(corpus(Scale::Medium)))
        .with_transport_seed(TRANSPORT_SEED)
        .with_quotas(unlimited_quotas(QuotaConfig::default().cache_ttl_ms));
    register_services(platform.transport_mut());
    let adv = platform.ads_mut().add_advertiser("Arcade Outfitters");
    for (n, (kw, bid)) in inputs.campaigns.iter().enumerate() {
        platform.ads_mut().add_campaign(
            adv,
            &format!("campaign {n}"),
            50_000,
            vec![symphony_ads::Keyword::new(
                kw,
                symphony_ads::MatchType::Broad,
                *bid,
            )],
            symphony_ads::Ad {
                title: format!("{} deals", capitalize(kw)),
                display_url: format!("ads{n}.example.com"),
                target_url: format!("http://ads{n}.example.com/{kw}"),
                text: format!("Everything {kw}, this week"),
            },
            0.5 + (n % 5) as f64 / 10.0,
        );
    }
    let mut tenants = Vec::new();
    for (i, rows) in inputs.rows.iter().enumerate() {
        let (tenant, key) = platform.create_tenant(&format!("Publisher{i}"));
        platform
            .upload_table(tenant, &key, inventory_table(rows))
            .expect("within quota");
        tenants.push((tenant, key));
    }
    platform.warmup();

    // Pilot: mean virtual service time of an executed (uncached)
    // query over the generator's own (tenant, query) mix; capacity is
    // its reciprocal. Runs the runtime directly, so no platform state
    // changes.
    let configs: Vec<ApplicationConfig> = (0..MIX_TENANTS)
        .map(|i| mix_app(i, tenants[i].0, AdmissionPolicy::default()))
        .collect();
    let mut pilot_ms = 0u64;
    // The benchmark's own transport: identical registrations, and the
    // pilot's calls leave the platform's untouched.
    let own = bench_transport();
    for a in inputs.arrivals.iter().take(PILOT_QUERIES) {
        let t = a.tenant as usize % MIX_TENANTS;
        let resp = execute_resilient(
            &configs[t],
            &inputs.pool[a.query as usize % inputs.pool.len()],
            Substrates {
                space: platform.store().space_by_id(tenants[t].0),
                engine: Some(platform.engine()),
                transport: Some(&own),
                ads: Some(platform.ads()),
                scatter: None,
            },
            ExecMode::Parallel,
            &Default::default(),
            &ExecCtx {
                now_ms: a.at_ms,
                breakers: None,
                source_cache: None,
                scheduler: None,
                lane: Lane::Interactive,
            },
        );
        pilot_ms += resp.virtual_ms as u64;
    }
    let mean_service_ms = pilot_ms as f64 / PILOT_QUERIES as f64;
    let capacity_qps = 1000.0 / mean_service_ms;
    let total = (MIX_PROVISION * capacity_qps)
        .round()
        .max(MIX_TENANTS as f64) as u64;
    let rates = zipf_rates(total, MIX_TENANTS, MIX_SKEW);
    let mut apps = Vec::new();
    for (i, &rate) in rates.iter().enumerate() {
        // Rates as `e-overload` provisions them; the burst is deeper
        // than its 2 so that, at half load, expiring L1 entries of a
        // small tenant never miss together past its bucket: every query
        // is admitted, through the bucket and the concurrency slot.
        let admission = AdmissionPolicy {
            rate_per_sec: rate,
            burst: MIX_BURST,
            max_concurrency: 16,
            weight: rate,
        };
        let id = platform
            .register_app(mix_app(i, tenants[i].0, admission))
            .expect("registers");
        platform.publish(id).expect("publishes");
        apps.push(id);
    }
    let time_scale = inputs.arrival_qps() / (MIX_LOAD * capacity_qps);
    MixWorld {
        platform,
        apps,
        tenants,
        rates,
        capacity_qps,
        time_scale,
    }
}

// ---- hybrid_filter -----------------------------------------------------

/// Rows in the `hybrid_filter` table.
pub const HYBRID_ROWS: usize = 20_000;
/// Price cutoffs of the five apps: `price < cutoff` over prices
/// uniform in `0..1000`, so 0.1 %, 1 %, 5 %, 20 % and 50 % selectivity.
pub const HYBRID_CUTOFFS: [i64; 5] = [1, 10, 50, 200, 500];
/// Results per page.
pub const HYBRID_K: usize = 10;
const NOTES: [&str; 48] = [
    "oak", "citrus", "vanilla", "tannins", "melon", "smoky", "bright", "barrel", "finish", "aged",
    "cherry", "pepper", "mineral", "floral", "honey", "spice", "plum", "leather", "tobacco",
    "cedar", "earthy", "jammy", "crisp", "buttery", "toasty", "herbal", "grassy", "peach",
    "apricot", "lemon", "lime", "apple", "pear", "berry", "cassis", "violet", "rose", "licorice",
    "mocha", "caramel", "nutty", "saline", "flinty", "velvety", "silky", "bold", "lean", "round",
];

/// Inputs of `hybrid_filter`.
pub struct HybridInputs {
    /// `(title, body, price)` rows.
    pub rows: Vec<(String, String, i64)>,
    seed: u64,
}

impl HybridInputs {
    /// Generate from the seed.
    pub fn new(seed: u64) -> HybridInputs {
        let mut r = rng(seed, 5);
        // Every price in 0..1000 occurs equally often, in a seeded
        // order: each app's selectivity, and so the planner's choice,
        // is the same for every seed.
        let mut prices: Vec<i64> = (0..HYBRID_ROWS as i64).map(|i| i % 1000).collect();
        for i in (1..prices.len()).rev() {
            prices.swap(i, r.gen_range(0..=i));
        }
        let rows = prices
            .into_iter()
            .enumerate()
            .map(|(row, price)| {
                let title = format!("wine {} lot{row}", r.gen_range(0..97));
                let body: Vec<&str> = (0..6).map(|_| NOTES[r.gen_range(0..NOTES.len())]).collect();
                (title, body.join(" "), price)
            })
            .collect();
        HybridInputs { rows, seed }
    }

    /// Query `i`: `(app index, text)`; apps round-robin, one or two
    /// note terms.
    pub fn query(&self, i: u64) -> (usize, String) {
        let h = mix(self.seed ^ 0x4B1D, i);
        let a = NOTES[(h % NOTES.len() as u64) as usize];
        let text = if (h >> 40).is_multiple_of(2) {
            a.to_string()
        } else {
            format!("{a} {}", NOTES[((h >> 20) % NOTES.len() as u64) as usize])
        };
        ((i % HYBRID_CUTOFFS.len() as u64) as usize, text)
    }
}

/// The `hybrid_filter` world.
pub struct HybridWorld {
    /// The platform.
    pub platform: Platform,
    /// One app per cutoff, in [`HYBRID_CUTOFFS`] order.
    pub apps: Vec<AppId>,
    /// The tenant owning the table.
    pub tenant: TenantId,
}

/// The filter of app `i`.
pub fn hybrid_filter(i: usize) -> Filter {
    Filter::cmp(2, CmpOp::Lt, Value::Int(HYBRID_CUTOFFS[i]))
}

/// Build the `hybrid_filter` world.
pub fn build_hybrid(inputs: &HybridInputs) -> HybridWorld {
    // No web source: the smallest corpus keeps the engine out of the way.
    let mut platform = Platform::new(SearchEngine::new(corpus(Scale::Small)))
        .with_quotas(unlimited_quotas(0))
        .with_source_cache(SourceCacheConfig::disabled());
    let (tenant, key) = platform.create_tenant("Cellar");
    let schema = Schema::of(&[
        ("title", FieldType::Text),
        ("body", FieldType::Text),
        ("price", FieldType::Int),
    ]);
    let mut table = Table::new("wines", schema);
    for (title, body, price) in &inputs.rows {
        table.insert(Record::new(vec![
            Value::Text(title.clone()),
            Value::Text(body.clone()),
            Value::Int(*price),
        ]));
    }
    let mut indexed = IndexedTable::new(table);
    indexed
        .create_index("price", IndexKind::Ordered)
        .expect("price column exists");
    indexed
        .enable_fulltext(&[("title", 2.0), ("body", 1.0)])
        .expect("text columns exist");
    platform
        .upload_table(tenant, &key, indexed)
        .expect("within quota");
    platform.warmup();
    let mut apps = Vec::new();
    for (i, cutoff) in HYBRID_CUTOFFS.iter().enumerate() {
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list(
                    "wines",
                    Element::text("{title}: {body} ({price})"),
                    HYBRID_K,
                ),
            )
            .expect("root");
        let config = AppBuilder::new(&format!("Under{cutoff}"), tenant)
            .layout(canvas)
            .source(
                "wines",
                DataSourceDef::Hybrid {
                    table: "wines".into(),
                    filter: hybrid_filter(i),
                },
            )
            .monetization(no_logging())
            .build()
            .expect("valid app");
        let id = platform.register_app(config).expect("registers");
        platform.publish(id).expect("publishes");
        apps.push(id);
    }
    HybridWorld {
        platform,
        apps,
        tenant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_sum_to_the_target_and_follow_popularity() {
        let r = zipf_rates(40, 8, 0.8);
        assert_eq!(r.iter().map(|&x| x as u64).sum::<u64>(), 40);
        assert!(r.windows(2).all(|w| w[0] >= w[1]), "{r:?}");
    }

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = ColdInputs::new(7);
        let b = ColdInputs::new(7);
        let c = ColdInputs::new(8);
        assert_eq!(a.rows, b.rows);
        assert_ne!(a.rows, c.rows);
        assert_eq!(a.query(5), b.query(5));
        assert_ne!(a.query(5), a.query(6));
        let s = ScatterInputs::new(3);
        assert_eq!(s.query(11), ScatterInputs::new(3).query(11));
    }
}
