//! The hosted platform.
//!
//! Paper §II-A, "Hosting": *"Regardless of how an application is
//! distributed, its execution and the resources involved are always
//! shouldered by Symphony."* [`Platform`] owns every substrate, hosts
//! registered applications behind a publish lifecycle, enforces
//! request and storage quotas, caches results, and aggregates each
//! app's interaction telemetry.
//!
//! # Concurrency model
//!
//! The platform splits its API along the serving/administration line:
//!
//! - **Serving** ([`Platform::query`], [`Platform::click`], and the
//!   analytics/readout methods) takes `&self` and may run from many
//!   threads against one shared `Platform` (it is `Send + Sync`).
//! - **Administration** (tenant/table management, app registration,
//!   publish/unpublish, substrate mutators) takes `&mut self`, so
//!   exclusive access is enforced statically — no lock is ever needed
//!   to read app configs or tenant tables on the serving path.
//!
//! Mutable serving state is sharded behind fine-grained locks so
//! unrelated requests do not contend: each hosted app has its own
//! result-cache, request-metering and interaction-telemetry
//! [`Mutex`]es, ad billing synchronizes inside [`AdServer`], and the
//! virtual clock is an [`AtomicU64`].

use crate::admission::{FanoutScheduler, Lane, TokenBucket};
use crate::app::{AppId, ApplicationConfig};
use crate::cache::{CacheStats, LruTtlCache};
use crate::embed::{embed_snippet, SocialManifest};
use crate::error::PlatformError;
use crate::monetize::{AppTraffic, Impression, TrafficSummary};
use crate::runtime::{execute_resilient, shed_response, ExecCtx, ExecMode, QueryResponse};
use crate::source::Substrates;
use crate::source_cache::{normalize_query, SourceCache, SourceCacheConfig, SourceCacheStats};

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use symphony_ads::{AdServer, CampaignId, Placement};
use symphony_services::hash::{fnv1a, FNV_OFFSET};
use symphony_store::{AccessKey, IndexedTable, Store, TenantId};
use symphony_web::SearchEngine;

/// Virtual cost of serving a response from the cache.
pub const CACHE_HIT_MS: u32 = 2;

/// Platform-wide quota configuration.
#[derive(Debug, Clone, Copy)]
pub struct QuotaConfig {
    /// Requests allowed per application per virtual minute.
    pub requests_per_minute: u32,
    /// Maximum live records per tenant space.
    pub max_records_per_tenant: usize,
    /// Result-cache entries per application.
    pub cache_capacity: usize,
    /// Result-cache TTL in virtual ms.
    pub cache_ttl_ms: u64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            requests_per_minute: 600,
            max_records_per_tenant: 100_000,
            cache_capacity: 256,
            cache_ttl_ms: 60_000,
        }
    }
}

/// What one [`Platform::maintenance_tick`] did across substrates.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceSummary {
    /// Full-text views visited (tenant tables, plus one entry for the
    /// web engine's verticals when the platform owns the engine).
    pub views: usize,
    /// Views that sealed their memtable segment this tick.
    pub sealed: usize,
    /// Background segment merges run.
    pub merges: usize,
    /// Tombstoned documents physically purged from posting lists.
    pub purged_docs: usize,
    /// Expired entries swept out of the per-app L1 response caches.
    pub purged_responses: usize,
    /// Expired entries swept out of the shared L2 source cache.
    pub purged_sources: usize,
}

struct HostedApp {
    /// Immutable after [`Platform::register_app`] (admin ops hold
    /// `&mut Platform`, so the serving path reads it lock-free).
    config: ApplicationConfig,
    published: bool,
    /// Per-app result cache (L1): requests for different apps never
    /// contend on it. Entries are `Arc`s of the pre-marked hit variant
    /// of a response, so a hit is a pointer clone — no deep
    /// `QueryResponse` copy on the hot path.
    cache: Mutex<LruTtlCache<String, Arc<QueryResponse>>>,
    /// Request timestamps inside the current quota window.
    metering: Mutex<VecDeque<u64>>,
    /// Queries served (cache hits and shed queries included).
    queries: AtomicU64,
    /// Queries whose response was degraded (some source slot errored).
    /// Disjoint from `shed_queries`.
    degraded_queries: AtomicU64,
    /// Queries shed by admission control before execution.
    shed_queries: AtomicU64,
    /// Admission token bucket, refilled on the virtual clock.
    bucket: Mutex<TokenBucket>,
    /// Queries of this app currently in execution (cache hits and shed
    /// responses never count: they consume no execution resources).
    inflight: AtomicU32,
    /// Interaction telemetry, aggregated on write (written only when
    /// the app's `log_interactions` is on).
    traffic: Mutex<AppTraffic>,
}

/// RAII in-execution marker: holds one slot of an app's concurrency
/// cap, released on drop (panic-safe).
struct InflightSlot<'a>(&'a AtomicU32);

impl<'a> InflightSlot<'a> {
    /// Atomically claim a slot if fewer than `max` are taken.
    fn try_enter(counter: &'a AtomicU32, max: u32) -> Option<InflightSlot<'a>> {
        counter
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
                (c < max).then_some(c + 1)
            })
            .ok()
            .map(|_| InflightSlot(counter))
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The Symphony platform: substrates + hosted applications.
///
/// `Send + Sync`; see the [module docs](self) for which methods may
/// run concurrently.
pub struct Platform {
    store: Store,
    engine: Arc<SearchEngine>,
    transport: symphony_services::SimulatedTransport,
    ads: AdServer,
    apps: Vec<HostedApp>,
    /// Per-endpoint circuit breakers, shared by every hosted app
    /// (lock-sharded internally).
    breakers: symphony_services::BreakerRegistry,
    /// Platform-wide L2 source-result cache, shared by every hosted
    /// app (lock-sharded internally; singleflight + TinyLFU).
    source_cache: SourceCache,
    /// Platform-wide fan-out accounting: one one-thread grant per
    /// fan-out with tasks, counted per tenant and lane. Fan-outs run
    /// inline on the querying thread; their parallelism is modelled
    /// on the virtual clock.
    scheduler: FanoutScheduler,
    clock_ms: AtomicU64,
    quotas: QuotaConfig,
    mode: ExecMode,
    host_url: String,
    /// Distributed web-search backend; when set, web-vertical sources
    /// scatter across shard nodes instead of hitting `engine`.
    scatter: Option<Arc<dyn crate::source::ScatterSearch>>,
}

// Compile-time guarantee that the serving path can be shared across
// threads; a non-Sync field would fail here, not at a distant callsite.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Platform>();
};

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("apps", &self.apps.len())
            .field("clock_ms", &self.clock_ms.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl Platform {
    /// Create a platform over a prepared web engine. Accepts either an
    /// owned engine or a shared `Arc` (baseline models share one corpus).
    pub fn new(engine: impl Into<Arc<SearchEngine>>) -> Platform {
        Platform {
            store: Store::new(),
            engine: engine.into(),
            transport: symphony_services::SimulatedTransport::new(0xD1CE),
            ads: AdServer::new(),
            apps: Vec::new(),
            breakers: symphony_services::BreakerRegistry::new(
                symphony_services::BreakerConfig::default(),
            ),
            source_cache: SourceCache::new(SourceCacheConfig::default()),
            scheduler: FanoutScheduler::new(),
            clock_ms: AtomicU64::new(0),
            quotas: QuotaConfig::default(),
            mode: ExecMode::Parallel,
            host_url: "https://symphony.example.com".into(),
            scatter: None,
        }
    }

    /// Attach a distributed web-search backend. Web-vertical sources
    /// then scatter across its shard nodes instead of querying the
    /// local engine; caches are cleared because cached entries were
    /// produced by the other backend.
    pub fn set_scatter(&mut self, scatter: Arc<dyn crate::source::ScatterSearch>) {
        self.scatter = Some(scatter);
        self.source_cache.clear();
        for app in &mut self.apps {
            app.cache.get_mut().clear();
        }
    }

    /// Override quotas.
    pub fn with_quotas(mut self, quotas: QuotaConfig) -> Platform {
        self.quotas = quotas;
        self
    }

    /// Override the fan-out mode (E1 ablation).
    pub fn with_mode(mut self, mode: ExecMode) -> Platform {
        self.mode = mode;
        self
    }

    /// Override the circuit-breaker configuration
    /// ([`BreakerConfig::disabled`](symphony_services::BreakerConfig::disabled)
    /// restores the pre-breaker behaviour). Resets breaker state, and
    /// drops cached source results whose negative entries were keyed
    /// to the old breaker behaviour.
    pub fn with_breaker_config(mut self, config: symphony_services::BreakerConfig) -> Platform {
        self.breakers = symphony_services::BreakerRegistry::new(config);
        self.source_cache.clear();
        self
    }

    /// Override the L2 source-cache configuration
    /// ([`SourceCacheConfig::disabled`] restores the pre-L2 behaviour,
    /// where every L1 miss re-fetches every source).
    pub fn with_source_cache(mut self, config: SourceCacheConfig) -> Platform {
        self.source_cache = SourceCache::new(config);
        self
    }

    /// Replace the transport with a freshly seeded one (chaos tests
    /// run the same scenario over a seed grid). Call before
    /// registering services: existing registrations are dropped, and
    /// cached source results with them.
    pub fn with_transport_seed(mut self, seed: u64) -> Platform {
        self.transport = symphony_services::SimulatedTransport::new(seed);
        self.source_cache.clear();
        self
    }

    // ---- Substrate access ----------------------------------------

    /// Mutable transport (register services before building apps).
    /// Invalidates the L2 source cache: cached service outcomes may
    /// not survive re-registration or fault-plan changes.
    pub fn transport_mut(&mut self) -> &mut symphony_services::SimulatedTransport {
        self.source_cache.clear();
        &mut self.transport
    }

    /// Mutable ad server (create campaigns).
    pub fn ads_mut(&mut self) -> &mut AdServer {
        &mut self.ads
    }

    /// The ad server (ledger access).
    pub fn ads(&self) -> &AdServer {
        &self.ads
    }

    /// The web engine.
    pub fn engine(&self) -> &SearchEngine {
        &self.engine
    }

    /// Mutable web engine, for live corpus updates (crawl ingest,
    /// URL removal, click feedback). `None` when the engine `Arc` is
    /// shared outside this platform (baseline models share one
    /// corpus); ingest through a dedicated platform instead. Drops the
    /// L2 source cache and every app's result cache, since web results
    /// may change underneath them.
    pub fn engine_mut(&mut self) -> Option<&mut SearchEngine> {
        Arc::get_mut(&mut self.engine)?;
        self.source_cache.clear();
        for app in &mut self.apps {
            app.cache.get_mut().clear();
        }
        Arc::get_mut(&mut self.engine)
    }

    /// The shared circuit breakers (inspection / manual reset).
    pub fn breakers(&self) -> &symphony_services::BreakerRegistry {
        &self.breakers
    }

    /// The shared fan-out accounting (lifetime grants per tenant,
    /// outstanding grants per lane).
    pub fn scheduler(&self) -> &FanoutScheduler {
        &self.scheduler
    }

    /// Breaker state for one endpoint at the current virtual time.
    pub fn breaker_state(&self, endpoint: &str) -> symphony_services::BreakerState {
        self.breakers
            .state(endpoint, self.clock_ms.load(Ordering::SeqCst))
    }

    /// The store (tenant management through the normal keyed API).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable store. Invalidates the L2 source cache: cached
    /// proprietary-table outcomes may not survive data changes.
    pub fn store_mut(&mut self) -> &mut Store {
        self.source_cache.clear();
        &mut self.store
    }

    /// Aggregate statistics of the platform-wide L2 source cache.
    pub fn source_cache_stats(&self) -> SourceCacheStats {
        self.source_cache.stats()
    }

    // ---- Tenants and data -----------------------------------------

    /// Create a tenant space.
    pub fn create_tenant(&mut self, name: &str) -> (TenantId, AccessKey) {
        self.store.create_tenant(name)
    }

    /// Upload a table into a tenant space, enforcing the storage
    /// quota.
    pub fn upload_table(
        &mut self,
        tenant: TenantId,
        key: &AccessKey,
        table: IndexedTable,
    ) -> Result<(), PlatformError> {
        let limit = self.quotas.max_records_per_tenant;
        let space = self.store.space_mut(tenant, key)?;
        if space.total_records() + table.table().len() > limit {
            return Err(PlatformError::StorageQuotaExceeded { limit });
        }
        space.put_table(table);
        // Cached outcomes against the replaced table are stale.
        self.source_cache.clear();
        Ok(())
    }

    /// Warm the platform for serving: compress every tenant table's
    /// full-text posting lists and precompute their score-bound stats,
    /// spreading tables across at most
    /// [`MAX_FANOUT_WORKERS`](crate::runtime::MAX_FANOUT_WORKERS) scoped
    /// threads. Multi-app boot calls this once after uploading
    /// tenant data so first queries skip the raw-postings slow path.
    /// Optimization never changes results, so nothing cached is
    /// invalidated. Returns the number of tables visited.
    pub fn warmup(&mut self) -> usize {
        let tables: Vec<&mut IndexedTable> = self
            .store
            .spaces_mut()
            .flat_map(|space| space.tables_mut())
            .collect();
        let n = tables.len();
        if n == 0 {
            return 0;
        }
        // `&mut self`: no query is in flight, so warmup needs no grant.
        let chunk = n.div_ceil(crate::runtime::MAX_FANOUT_WORKERS.min(n));
        std::thread::scope(|s| {
            let mut rest = tables;
            while !rest.is_empty() {
                let take = chunk.min(rest.len());
                let part: Vec<&mut IndexedTable> = rest.drain(..take).collect();
                s.spawn(move || {
                    for table in part {
                        table.optimize_fulltext();
                    }
                });
            }
        });
        n
    }

    /// One background-maintenance step over every full-text view at
    /// the current virtual clock: each tenant table's view — and the
    /// web engine's verticals, when the platform owns the engine —
    /// seals its memtable if over the segment policy's size cap or
    /// staleness window, then runs at most one tombstone-purging
    /// merge. Driven off the same virtual clock the serving path
    /// advances, so a replayed workload schedules the exact same
    /// seals and merges.
    ///
    /// Maintenance is rank-safe (results are bit-identical before and
    /// after), so nothing cached is invalidated; under a
    /// `near_real_time` segment policy it is also the moment buffered
    /// documents become visible.
    pub fn maintenance_tick(&mut self) -> MaintenanceSummary {
        let now = self.clock_ms.load(Ordering::SeqCst);
        let mut summary = MaintenanceSummary::default();
        for space in self.store.spaces_mut() {
            for table in space.tables_mut() {
                if let Some(r) = table.maintain_fulltext(now) {
                    summary.views += 1;
                    summary.sealed += usize::from(r.sealed);
                    summary.merges += r.merged_segments;
                    summary.purged_docs += r.purged_docs;
                }
            }
        }
        if let Some(engine) = Arc::get_mut(&mut self.engine) {
            let r = engine.maintain(now);
            summary.views += 1;
            summary.sealed += usize::from(r.sealed);
            summary.merges += r.merged_segments;
            summary.purged_docs += r.purged_docs;
        }
        // Eager cache sweeps ride the same tick: expired L1 response
        // entries and L2 source outcomes are reclaimed here instead of
        // lingering until a lookup happens to land on them.
        for app in &mut self.apps {
            summary.purged_responses += app.cache.get_mut().purge_expired(now);
        }
        summary.purged_sources += self.source_cache.purge_expired(now);
        summary
    }

    // ---- Application lifecycle ------------------------------------

    /// Register a validated application (starts unpublished).
    pub fn register_app(&mut self, config: ApplicationConfig) -> Result<AppId, PlatformError> {
        config.validate()?;
        let id = AppId(self.apps.len() as u32);
        let admission = config.admission;
        self.apps.push(HostedApp {
            config,
            published: false,
            cache: Mutex::new(LruTtlCache::new(
                self.quotas.cache_capacity,
                self.quotas.cache_ttl_ms,
            )),
            metering: Mutex::new(VecDeque::new()),
            queries: AtomicU64::new(0),
            degraded_queries: AtomicU64::new(0),
            shed_queries: AtomicU64::new(0),
            bucket: Mutex::new(TokenBucket::new(
                admission.rate_per_sec,
                admission.burst,
                self.clock_ms.load(Ordering::SeqCst),
            )),
            inflight: AtomicU32::new(0),
            traffic: Mutex::new(AppTraffic::default()),
        });
        Ok(id)
    }

    /// Publish an application (it becomes queryable).
    pub fn publish(&mut self, id: AppId) -> Result<(), PlatformError> {
        let app = self
            .apps
            .get_mut(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))?;
        app.published = true;
        Ok(())
    }

    /// Unpublish an application (cache cleared).
    pub fn unpublish(&mut self, id: AppId) -> Result<(), PlatformError> {
        let app = self
            .apps
            .get_mut(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))?;
        app.published = false;
        app.cache.get_mut().clear();
        Ok(())
    }

    /// The configuration of a hosted app.
    pub fn app(&self, id: AppId) -> Option<&ApplicationConfig> {
        self.apps.get(id.0 as usize).map(|a| &a.config)
    }

    /// Copy-paste embed code for an app.
    pub fn embed_code(&self, id: AppId) -> Result<String, PlatformError> {
        let app = self
            .apps
            .get(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))?;
        Ok(embed_snippet(&app.config, id, &self.host_url))
    }

    /// Social deployment descriptor for an app.
    pub fn social_manifest(&self, id: AppId) -> Result<SocialManifest, PlatformError> {
        let app = self
            .apps
            .get(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))?;
        Ok(SocialManifest::for_app(&app.config, id, &self.host_url))
    }

    // ---- Query path (Fig. 2) --------------------------------------

    /// Execute a customer query against a published application.
    ///
    /// Takes `&self`: any number of queries (for the same or different
    /// apps) may run concurrently against one shared platform. The
    /// response is shared ([`Arc`]): cache hits hand out the same
    /// allocation to every caller instead of deep-cloning it.
    pub fn query(&self, id: AppId, query: &str) -> Result<Arc<QueryResponse>, PlatformError> {
        self.query_at_depth(id, query, 0)
    }

    /// Maximum app-composition depth (paper §IV: "creating new
    /// applications by composing other applications"). Depth 0 is the
    /// queried app; its composed sources run at depth 1. Beyond the
    /// limit a composed source degrades to a soft error, which also
    /// breaks composition cycles.
    ///
    /// Composed sources are resolved on every parent request, *before*
    /// the parent's cache lookup — the child usually answers from its
    /// own result cache, so repeated composition is cheap, and child
    /// traffic statistics stay accurate.
    pub const MAX_COMPOSE_DEPTH: u32 = 2;

    fn query_at_depth(
        &self,
        id: AppId,
        query: &str,
        depth: u32,
    ) -> Result<Arc<QueryResponse>, PlatformError> {
        // Resolve composed primary sources by recursively querying the
        // referenced apps *before* the main borrow-split below.
        let composed: Vec<(String, AppId)> = {
            let config = self
                .apps
                .get(id.0 as usize)
                .map(|a| &a.config)
                .ok_or(PlatformError::AppNotFound(id.0))?;
            config
                .sources
                .iter()
                .filter_map(|s| match s.def {
                    crate::source::DataSourceDef::ComposedApp { app } => {
                        Some((s.name.clone(), app))
                    }
                    _ => None,
                })
                .collect()
        };
        let mut overrides: std::collections::HashMap<String, crate::source::SourceOutcome> =
            std::collections::HashMap::new();
        for (name, child) in composed {
            let outcome = if depth + 1 >= Self::MAX_COMPOSE_DEPTH {
                crate::source::SourceOutcome {
                    items: Vec::new(),
                    virtual_ms: 0,
                    error: Some(format!(
                        "composition depth limit ({}) reached",
                        Self::MAX_COMPOSE_DEPTH
                    )),
                    attempts: 0,
                }
            } else {
                let child_name = self
                    .app(child)
                    .map(|c| c.name.clone())
                    .unwrap_or_else(|| format!("app-{}", child.0));
                match self.query_at_depth(child, query, depth + 1) {
                    Ok(resp) => crate::source::SourceOutcome {
                        items: resp
                            .impressions
                            .iter()
                            .filter(|imp| !imp.is_ad) // never re-syndicate ads
                            .map(|imp| crate::source::ResultItem {
                                fields: vec![
                                    ("title".to_string(), imp.title.clone()),
                                    ("url".to_string(), imp.url.clone().unwrap_or_default()),
                                    ("source".to_string(), imp.source.clone()),
                                    ("app".to_string(), child_name.clone()),
                                ],
                                score: 0.0,
                            })
                            .collect(),
                        virtual_ms: resp.virtual_ms,
                        error: None,
                        attempts: 1,
                    },
                    Err(e) => crate::source::SourceOutcome {
                        items: Vec::new(),
                        virtual_ms: 0,
                        error: Some(e.to_string()),
                        attempts: 0,
                    },
                }
            };
            overrides.insert(name, outcome);
        }
        self.query_with_overrides(id, query, overrides)
    }

    fn query_with_overrides(
        &self,
        id: AppId,
        query: &str,
        overrides: std::collections::HashMap<String, crate::source::SourceOutcome>,
    ) -> Result<Arc<QueryResponse>, PlatformError> {
        let hosted = self
            .apps
            .get(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))?;
        if !hosted.published {
            return Err(PlatformError::NotPublished(hosted.config.name.clone()));
        }
        let now = self.clock_ms.load(Ordering::SeqCst);

        // Request quota over the last virtual minute, under this
        // app's metering lock (requests for other apps don't touch it).
        {
            let mut metering = hosted.metering.lock();
            let window_start = now.saturating_sub(60_000);
            while metering.front().is_some_and(|&t| t < window_start) {
                metering.pop_front();
            }
            if metering.len() >= self.quotas.requests_per_minute as usize {
                return Err(PlatformError::QuotaExceeded {
                    app: hosted.config.name.clone(),
                    limit: self.quotas.requests_per_minute,
                });
            }
            metering.push_back(now);
        }

        // Responses computed under parent-composition `overrides` are
        // a different result than the app's plain answer for the same
        // text: key them separately so neither can poison the other.
        let mut cache_key = normalize_query(query);
        if !overrides.is_empty() {
            cache_key.push_str(&format!(
                "\u{1}ov:{:016x}",
                overrides_fingerprint(&overrides)
            ));
        }
        let log_interactions = hosted.config.monetization.log_interactions;

        let cached = hosted.cache.lock().get(&cache_key, now).cloned();
        if let Some(resp) = cached {
            // The cached entry is already the marked hit variant
            // (cache_hit, flat CACHE_HIT_MS timing): serving it is a
            // pointer clone, not a deep response copy.
            hosted.queries.fetch_add(1, Ordering::Relaxed);
            if resp.trace.degraded && !resp.trace.shed {
                hosted.degraded_queries.fetch_add(1, Ordering::Relaxed);
            }
            let at = self.advance_clock_by(CACHE_HIT_MS as u64);
            if log_interactions {
                hosted
                    .traffic
                    .lock()
                    .record_impressions(resp.impressions.len(), at);
            }
            return Ok(resp);
        }

        // Admission control (tentpole: per-tenant overload protection).
        // Checked only on the execute path — cache hits above consume
        // no execution resources and are never shed. Order: claim a
        // concurrency slot first (a refused slot consumes no token),
        // then a bucket token; refusal on either sheds the query with
        // the cheap degraded shell instead of queuing it.
        let admission = hosted.config.admission;
        let _inflight = if admission.is_unlimited() {
            None
        } else {
            let Some(slot) = InflightSlot::try_enter(&hosted.inflight, admission.max_concurrency)
            else {
                return Ok(self.shed(hosted, query, "concurrency cap reached"));
            };
            if !hosted.bucket.lock().try_acquire(now) {
                drop(slot);
                return Ok(self.shed(hosted, query, "rate limit exceeded"));
            }
            Some(slot)
        };

        // Cache miss: execute without holding the cache lock, so a
        // slow source never blocks this app's cache hits. Concurrent
        // misses on the same key may both assemble the response, but
        // the expensive source fetches underneath coalesce in the L2
        // source cache's singleflight; last writer wins here.
        let subs = Substrates {
            space: self.store.space_by_id(hosted.config.owner),
            engine: Some(&self.engine),
            transport: Some(&self.transport),
            ads: Some(&self.ads),
            scatter: self.scatter.as_deref(),
        };
        let resp = execute_resilient(
            &hosted.config,
            query,
            subs,
            self.mode,
            &overrides,
            &ExecCtx {
                now_ms: now,
                breakers: Some(&self.breakers),
                source_cache: Some(&self.source_cache),
                scheduler: Some(&self.scheduler),
                lane: Lane::Interactive,
            },
        );
        hosted.queries.fetch_add(1, Ordering::Relaxed);
        if resp.trace.degraded {
            hosted.degraded_queries.fetch_add(1, Ordering::Relaxed);
        }
        let at = self.advance_clock_by(resp.virtual_ms as u64);
        if log_interactions {
            hosted
                .traffic
                .lock()
                .record_impressions(resp.impressions.len(), at);
        }
        // Build the hit variant once, at insert time (the one clone a
        // miss pays); every later hit shares it.
        let mut hit = resp.clone();
        hit.trace.cache_hit = true;
        hit.virtual_ms = CACHE_HIT_MS;
        hit.trace.total_ms = CACHE_HIT_MS;
        // A degraded response (deadline cut, breaker open, source
        // errors) must not shadow a healthy re-execution for the full
        // response TTL: give it the same short TTL as a negative
        // source entry.
        let ttl = if resp.trace.degraded {
            self.source_cache
                .config()
                .negative_ttl_ms
                .min(self.quotas.cache_ttl_ms)
        } else {
            self.quotas.cache_ttl_ms
        };
        // Zero TTL means the response cache is disabled — skip the
        // insert entirely. A ttl-0 entry would still be servable at the
        // clock millisecond it was inserted (expiry is strict `>`), and
        // because shed queries do not advance the clock, a burst of
        // queued arrivals can process at that frozen instant and ride
        // the entry past admission control.
        if ttl > 0 {
            hosted
                .cache
                .lock()
                .put_with_ttl(cache_key, Arc::new(hit), at, ttl);
        }
        Ok(Arc::new(resp))
    }

    /// Shed one query: account it and hand back the degraded shell
    /// without touching the serving clock. Never cached, never logged
    /// as impressions (a shed response renders none), never counted as
    /// degraded (the rates stay disjoint).
    fn shed(&self, hosted: &HostedApp, query: &str, reason: &str) -> Arc<QueryResponse> {
        let resp = shed_response(&hosted.config, query, reason);
        hosted.queries.fetch_add(1, Ordering::Relaxed);
        hosted.shed_queries.fetch_add(1, Ordering::Relaxed);
        // Deliberately no clock advance: admission refuses work at the
        // front door, *before* it occupies the serving path, so a shed
        // consumes none of the platform's serving capacity. The
        // response still reports `SHED_MS` as the client-visible
        // latency of the rejection itself.
        Arc::new(resp)
    }

    /// Advance the virtual clock by `ms`, returning the new time.
    fn advance_clock_by(&self, ms: u64) -> u64 {
        self.clock_ms.fetch_add(ms, Ordering::SeqCst) + ms
    }

    /// Record a customer click on a rendered impression. Ad clicks are
    /// billed and the publisher credited automatically.
    ///
    /// Takes `&self`; safe to call concurrently with queries and other
    /// clicks.
    pub fn click(
        &self,
        id: AppId,
        query: &str,
        impression: &Impression,
    ) -> Result<Option<u32>, PlatformError> {
        let hosted = self
            .apps
            .get(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))?;
        let publisher = &hosted.config.monetization.publisher;
        if hosted.config.monetization.log_interactions {
            let at = self.clock_ms.load(Ordering::SeqCst);
            hosted.traffic.lock().record_click(at, query, impression);
        }
        if impression.is_ad {
            if let (Some(campaign), Some(price)) =
                (impression.ad_campaign, impression.ad_price_cents)
            {
                let placement = Placement {
                    campaign: CampaignId(campaign),
                    position: impression.position,
                    price_cents: price,
                    keyword: String::new(),
                    title: impression.title.clone(),
                    display_url: String::new(),
                    target_url: impression.url.clone().unwrap_or_default(),
                    text: String::new(),
                };
                let entry = self
                    .ads
                    .record_click(&placement, publisher)
                    .map_err(|e| PlatformError::InvalidConfig(e.to_string()))?;
                return Ok(Some(entry.publisher_share_cents));
            }
        }
        Ok(None)
    }

    // ---- Analytics --------------------------------------------------

    /// Traffic summary for an app, including the degraded-query error
    /// rate.
    pub fn traffic_summary(&self, id: AppId) -> Result<TrafficSummary, PlatformError> {
        let app = self
            .apps
            .get(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))?;
        let mut summary = app.traffic.lock().summary(&app.config.name);
        summary.queries = app.queries.load(Ordering::Relaxed);
        summary.degraded_queries = app.degraded_queries.load(Ordering::Relaxed);
        summary.shed_queries = app.shed_queries.load(Ordering::Relaxed);
        Ok(summary)
    }

    /// Per-virtual-day `(day, impressions, clicks)` series for an app.
    pub fn daily_series(&self, id: AppId) -> Result<Vec<(u64, u64, u64)>, PlatformError> {
        let app = self
            .apps
            .get(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))?;
        Ok(app.traffic.lock().daily_series())
    }

    /// Referral-audit CSV for an app: its newest
    /// [`AUDIT_RING_CLICKS`](crate::monetize::AUDIT_RING_CLICKS) clicks,
    /// in click order.
    pub fn referral_audit_csv(&self, id: AppId) -> Result<String, PlatformError> {
        let app = self
            .apps
            .get(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))?;
        Ok(app.traffic.lock().referral_audit_csv())
    }

    /// Cache statistics for an app.
    pub fn cache_stats(&self, id: AppId) -> Option<CacheStats> {
        self.apps.get(id.0 as usize).map(|a| a.cache.lock().stats())
    }

    /// Sweep expired entries from an app's result cache, returning how
    /// many were removed (they are also counted in
    /// [`CacheStats::expired`]).
    pub fn purge_expired_cache(&self, id: AppId) -> Option<usize> {
        let now = self.clock_ms.load(Ordering::SeqCst);
        self.apps
            .get(id.0 as usize)
            .map(|a| a.cache.lock().purge_expired(now))
    }

    /// The platform's virtual clock.
    pub fn clock_ms(&self) -> u64 {
        self.clock_ms.load(Ordering::SeqCst)
    }

    /// Advance the virtual clock (think time between requests, TTL
    /// expiry in tests/benches).
    pub fn advance_clock(&self, ms: u64) {
        self.clock_ms.fetch_add(ms, Ordering::SeqCst);
    }

    /// Earnings credited to an app's publisher so far, in cents.
    pub fn publisher_earnings_cents(&self, id: AppId) -> Option<u64> {
        let app = self.apps.get(id.0 as usize)?;
        Some(
            self.ads
                .ledger()
                .publisher_earnings_cents(&app.config.monetization.publisher),
        )
    }
}

/// A query-serving host the traffic harness can drive: a single
/// [`Platform`] or a multi-shard router hosting many platforms.
///
/// The clock methods take the app whose traffic is being played so a
/// router can keep one virtual clock *per shard* — tenants homed on
/// different shards advance independently, which is exactly how
/// wall-clock parallelism across nodes shows up under virtual time. A
/// single platform has one global clock and ignores the app.
pub trait QueryHost: Sync {
    /// Virtual clock of the node serving `app`'s queries.
    fn host_clock_ms(&self, app: AppId) -> u64;
    /// Advance the clock of the node serving `app`.
    fn host_advance_clock(&self, app: AppId, ms: u64);
    /// Serve one query for `app`.
    fn host_query(&self, app: AppId, query: &str) -> Result<Arc<QueryResponse>, PlatformError>;
    /// Record a click on one of `app`'s impressions.
    fn host_click(
        &self,
        app: AppId,
        query: &str,
        impression: &Impression,
    ) -> Result<Option<u32>, PlatformError>;
    /// Latest virtual time across all serving nodes (replay span end).
    fn host_span_end(&self) -> u64;
}

impl QueryHost for Platform {
    fn host_clock_ms(&self, _app: AppId) -> u64 {
        self.clock_ms()
    }

    fn host_advance_clock(&self, _app: AppId, ms: u64) {
        self.advance_clock(ms)
    }

    fn host_query(&self, app: AppId, query: &str) -> Result<Arc<QueryResponse>, PlatformError> {
        self.query(app, query)
    }

    fn host_click(
        &self,
        app: AppId,
        query: &str,
        impression: &Impression,
    ) -> Result<Option<u32>, PlatformError> {
        self.click(app, query, impression)
    }

    fn host_span_end(&self) -> u64 {
        self.clock_ms()
    }
}

/// Stable fingerprint of a pre-resolved override set (sorted by source
/// name, hashing the full outcome). Appended to the L1 key so that
/// responses computed under different parent-composition contexts
/// never collide.
fn overrides_fingerprint(
    overrides: &std::collections::HashMap<String, crate::source::SourceOutcome>,
) -> u64 {
    let mut names: Vec<&String> = overrides.keys().collect();
    names.sort();
    let mut h = FNV_OFFSET;
    for name in names {
        h = fnv1a(h, name.as_bytes());
        h = fnv1a(h, format!("{:?}", overrides[name]).as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppBuilder;
    use crate::source::DataSourceDef;
    use symphony_designer::{Canvas, Element};
    use symphony_store::ingest::{ingest, DataFormat};
    use symphony_web::{Corpus, CorpusConfig, SearchConfig, Topic, Vertical};

    fn platform() -> (Platform, TenantId, AccessKey) {
        let corpus = Corpus::generate(
            &CorpusConfig {
                sites_per_topic: 2,
                pages_per_site: 4,
                ..CorpusConfig::default()
            }
            .with_entities(Topic::Games, ["Galactic Raiders", "Farm Story"]),
        );
        let mut platform = Platform::new(SearchEngine::new(corpus));
        let (tenant, key) = platform.create_tenant("GamerQueen");
        let (table, _) = ingest(
            "inventory",
            "title,genre,description\nGalactic Raiders,shooter,a fast space shooter\nFarm Story,sim,calm farming\n",
            DataFormat::Csv,
        )
        .unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
            .unwrap();
        platform.upload_table(tenant, &key, indexed).unwrap();
        (platform, tenant, key)
    }

    fn register_gamer_queen(platform: &mut Platform, tenant: TenantId) -> AppId {
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas.insert(root, Element::search_box("Search…")).unwrap();
        let item = Element::column(vec![
            Element::text("{title}"),
            Element::result_list("reviews", Element::text("{title}"), 2),
        ]);
        canvas
            .insert(root, Element::result_list("inventory", item, 10))
            .unwrap();
        let config = AppBuilder::new("GamerQueen", tenant)
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
            .supplemental("reviews", "{title} review")
            .build()
            .unwrap();
        platform.register_app(config).unwrap()
    }

    #[test]
    fn publish_lifecycle() {
        let (mut p, tenant, _key) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        assert!(matches!(
            p.query(id, "shooter").unwrap_err(),
            PlatformError::NotPublished(_)
        ));
        p.publish(id).unwrap();
        let resp = p.query(id, "shooter").unwrap();
        assert!(resp.html.contains("Galactic Raiders"));
        p.unpublish(id).unwrap();
        assert!(p.query(id, "shooter").is_err());
    }

    #[test]
    fn unknown_app_errors() {
        let (mut p, _, _) = platform();
        assert_eq!(
            p.query(AppId(9), "x").unwrap_err(),
            PlatformError::AppNotFound(9)
        );
        assert!(p.publish(AppId(9)).is_err());
        assert!(p.embed_code(AppId(9)).is_err());
    }

    #[test]
    fn cache_hits_are_fast_and_marked() {
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        let first = p.query(id, "shooter").unwrap();
        assert!(!first.trace.cache_hit);
        let second = p.query(id, "Shooter").unwrap(); // normalized key
        assert!(second.trace.cache_hit);
        assert_eq!(second.virtual_ms, CACHE_HIT_MS);
        assert_eq!(second.html, first.html);
        let stats = p.cache_stats(id).unwrap();
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn cache_hits_share_one_allocation() {
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        p.query(id, "shooter").unwrap();
        // Every hit hands out the same Arc — no per-hit deep clone of
        // the response.
        let a = p.query(id, "shooter").unwrap();
        let b = p.query(id, "shooter").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn source_cache_stats_track_the_query_path() {
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        p.query(id, "shooter").unwrap();
        let first = p.source_cache_stats();
        assert!(first.misses > 0, "fresh platform must miss");
        assert_eq!(first.hits, 0);
        // A distinct query re-runs the primary (new key) but re-uses
        // the per-item supplemental web fetches it shares with the
        // first query's result set, if any; at minimum nothing breaks
        // and counters only grow.
        p.query(id, "galactic shooter").unwrap();
        let second = p.source_cache_stats();
        assert!(second.misses >= first.misses);
        assert!(second.executions >= first.executions);
        // An L1 hit never reaches the source layer.
        let before = p.source_cache_stats();
        p.query(id, "shooter").unwrap();
        let after = p.source_cache_stats();
        assert_eq!(before.executions, after.executions);
    }

    #[test]
    fn cache_expires_after_ttl() {
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        p.query(id, "shooter").unwrap();
        p.advance_clock(120_000); // past the 60s TTL
        let again = p.query(id, "shooter").unwrap();
        assert!(!again.trace.cache_hit);
    }

    #[test]
    fn request_quota_enforced_and_recovers() {
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 1,
            pages_per_site: 2,
            ..CorpusConfig::default()
        });
        let mut p = Platform::new(SearchEngine::new(corpus)).with_quotas(QuotaConfig {
            requests_per_minute: 3,
            ..QuotaConfig::default()
        });
        let (tenant, key) = p.create_tenant("T");
        let (table, _) = ingest("inv", "title\nA\n", DataFormat::Csv).unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed.enable_fulltext(&[("title", 1.0)]).unwrap();
        p.upload_table(tenant, &key, indexed).unwrap();
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list("inv", Element::text("{title}"), 5),
            )
            .unwrap();
        let id = p
            .register_app(
                AppBuilder::new("T", tenant)
                    .source(
                        "inv",
                        DataSourceDef::Proprietary {
                            table: "inv".into(),
                        },
                    )
                    .layout(canvas)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        p.publish(id).unwrap();
        for _ in 0..3 {
            p.query(id, "a").unwrap();
        }
        assert!(matches!(
            p.query(id, "a").unwrap_err(),
            PlatformError::QuotaExceeded { limit: 3, .. }
        ));
        // After a virtual minute, capacity returns.
        p.advance_clock(61_000);
        assert!(p.query(id, "a").is_ok());
    }

    #[test]
    fn storage_quota_enforced() {
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 1,
            pages_per_site: 2,
            ..CorpusConfig::default()
        });
        let mut p = Platform::new(SearchEngine::new(corpus)).with_quotas(QuotaConfig {
            max_records_per_tenant: 1,
            ..QuotaConfig::default()
        });
        let (tenant, key) = p.create_tenant("T");
        let (table, _) = ingest("inv", "t\nA\nB\n", DataFormat::Csv).unwrap();
        let err = p
            .upload_table(tenant, &key, IndexedTable::new(table))
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::StorageQuotaExceeded { limit: 1 }
        ));
    }

    #[test]
    fn impressions_logged_and_summarized() {
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        let resp = p.query(id, "shooter").unwrap();
        assert!(!resp.impressions.is_empty());
        let imp = resp.impressions[0].clone();
        p.click(id, "shooter", &imp).unwrap();
        let summary = p.traffic_summary(id).unwrap();
        assert!(summary.impressions >= 1);
        assert_eq!(summary.clicks, 1);
        let csv = p.referral_audit_csv(id).unwrap();
        assert!(csv.lines().count() >= 2);
    }

    #[test]
    fn same_name_apps_keep_separate_telemetry() {
        let (mut p, first_tenant, _) = platform();
        let (second_tenant, key) = p.create_tenant("OtherShop");
        let (table, _) = ingest(
            "inventory",
            "title,genre,description\nSpace Trader,sim,a space trading game\n",
            DataFormat::Csv,
        )
        .unwrap();
        let mut indexed = IndexedTable::new(table);
        indexed
            .enable_fulltext(&[("title", 2.0), ("genre", 1.0), ("description", 1.0)])
            .unwrap();
        p.upload_table(second_tenant, &key, indexed).unwrap();
        let first = register_gamer_queen(&mut p, first_tenant);
        let second = register_gamer_queen(&mut p, second_tenant);
        assert_eq!(p.app(first).unwrap().name, p.app(second).unwrap().name);
        p.publish(first).unwrap();
        p.publish(second).unwrap();

        let resp = p.query(first, "shooter").unwrap();
        p.click(first, "shooter", &resp.impressions[0]).unwrap();
        assert!(p.traffic_summary(first).unwrap().impressions > 0);
        assert_eq!(p.traffic_summary(first).unwrap().clicks, 1);

        let other = p.traffic_summary(second).unwrap();
        assert_eq!(other.impressions, 0);
        assert_eq!(other.clicks, 0);
        assert!(other.top_queries.is_empty());
        assert!(p.daily_series(second).unwrap().is_empty());
        assert_eq!(
            p.referral_audit_csv(second).unwrap(),
            "at_ms,query,source,url,is_ad\n"
        );
    }

    #[test]
    fn embed_and_manifest_accessible() {
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        let code = p.embed_code(id).unwrap();
        assert!(code.contains("symphony-app-0"));
        let manifest = p.social_manifest(id).unwrap();
        assert_eq!(manifest.get("app_name"), Some("GamerQueen"));
    }

    #[test]
    fn warmup_optimizes_tenant_tables_and_preserves_results() {
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        let before = p.query(id, "shooter").unwrap().html.clone();
        assert_eq!(p.warmup(), 1);
        let table = p
            .store()
            .space_by_id(tenant)
            .unwrap()
            .table("inventory")
            .unwrap();
        assert!(table.fulltext().unwrap().index().stats().fully_compressed);
        p.advance_clock(120_000); // expire the L1 entry
        let after = p.query(id, "shooter").unwrap();
        assert!(!after.trace.cache_hit);
        assert_eq!(after.html, before);
    }

    #[test]
    fn warmup_on_empty_store_is_a_noop() {
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 1,
            pages_per_site: 2,
            ..CorpusConfig::default()
        });
        let mut p = Platform::new(SearchEngine::new(corpus));
        assert_eq!(p.warmup(), 0);
    }

    #[test]
    fn maintenance_tick_runs_on_the_virtual_clock_and_preserves_results() {
        let (mut p, tenant, key) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        let policy = symphony_text::SegmentPolicy {
            memtable_max_docs: 4096,
            staleness_window_ms: 10,
            merge_fanin: 4,
            near_real_time: false,
        };
        p.store_mut()
            .space_mut(tenant, &key)
            .unwrap()
            .table_mut("inventory")
            .unwrap()
            .set_fulltext_policy(policy);
        let before = p.query(id, "shooter").unwrap().html.clone();
        // The query advanced the clock past the staleness window, so
        // the tick seals the tenant view's memtable.
        let s = p.maintenance_tick();
        assert_eq!(s.views, 2, "tenant view + owned engine");
        assert!(s.sealed >= 1);
        // Maintenance is rank-safe: after the cache expires, the same
        // query renders the same response.
        p.advance_clock(120_000);
        let after = p.query(id, "shooter").unwrap();
        assert!(!after.trace.cache_hit);
        assert_eq!(after.html, before);
        // A second tick with no elapsed time and an empty memtable
        // finds nothing to do on the tenant view.
        let quiet = p.maintenance_tick();
        assert_eq!(quiet.views, 2);
    }

    #[test]
    fn engine_mut_allows_live_ingest_and_drops_caches() {
        use symphony_web::{Page, PageKind};
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        p.query(id, "shooter").unwrap();
        assert!(p.query(id, "shooter").unwrap().trace.cache_hit);
        let page = Page {
            site: 0,
            url: format!("http://{}/fresh-crawl", p.engine().corpus().sites[0].domain),
            title: "Fresh Crawl".into(),
            body: "freshly crawled page".into(),
            links: Vec::new(),
            kind: PageKind::Article,
        };
        p.engine_mut().unwrap().ingest_page(page);
        // Live ingest cleared the result caches: the next query is a
        // miss, not a stale hit over the pre-ingest corpus.
        assert!(!p.query(id, "shooter").unwrap().trace.cache_hit);
    }

    #[test]
    fn engine_mut_refuses_a_shared_engine() {
        let corpus = Corpus::generate(&CorpusConfig {
            sites_per_topic: 1,
            pages_per_site: 2,
            ..CorpusConfig::default()
        });
        let shared = Arc::new(SearchEngine::new(corpus));
        let mut p = Platform::new(shared.clone());
        assert!(p.engine_mut().is_none());
        drop(shared);
        assert!(p.engine_mut().is_some());
    }

    fn register_rate_limited(
        platform: &mut Platform,
        tenant: TenantId,
        rate: u32,
        burst: u32,
    ) -> AppId {
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list("inventory", Element::text("{title}"), 10),
            )
            .unwrap();
        let config = AppBuilder::new("Limited", tenant)
            .layout(canvas)
            .source(
                "inventory",
                DataSourceDef::Proprietary {
                    table: "inventory".into(),
                },
            )
            .admission(crate::app::AdmissionPolicy {
                rate_per_sec: rate,
                burst,
                max_concurrency: u32::MAX,
                weight: 1,
            })
            .build()
            .unwrap();
        platform.register_app(config).unwrap()
    }

    #[test]
    fn over_rate_queries_are_shed_with_the_degraded_shell() {
        let (mut p, tenant, _) = platform();
        let id = register_rate_limited(&mut p, tenant, 1, 2);
        p.publish(id).unwrap();
        // Burst of 2 admits; distinct queries defeat the L1 cache.
        assert!(!p.query(id, "shooter one").unwrap().trace.shed);
        assert!(!p.query(id, "shooter two").unwrap().trace.shed);
        // The two executions advanced the clock well under a second at
        // 1 token/s the bucket is still empty: the third is shed.
        let clock_before = p.clock_ms();
        let shed = p.query(id, "shooter three").unwrap();
        assert!(shed.trace.shed);
        assert!(shed.trace.degraded);
        assert_eq!(shed.trace.error_count, 0);
        assert_eq!(shed.virtual_ms, crate::runtime::SHED_MS);
        // Front-door rejection: the serving clock never saw the query.
        assert_eq!(p.clock_ms(), clock_before);
        assert!(shed.impressions.is_empty());
        assert!(shed.trace.render().contains("shed"));
        // Shed responses are never cached: after the bucket refills,
        // the same query executes for real.
        p.advance_clock(2_000);
        let again = p.query(id, "shooter three").unwrap();
        assert!(!again.trace.shed);
        assert!(!again.trace.cache_hit);
        // Counters: disjoint shed vs degraded, both rates defined.
        let s = p.traffic_summary(id).unwrap();
        assert_eq!(s.queries, 4);
        assert_eq!(s.shed_queries, 1);
        assert_eq!(s.degraded_queries, 0);
        assert!((s.shed_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cache_hits_bypass_admission() {
        let (mut p, tenant, _) = platform();
        let id = register_rate_limited(&mut p, tenant, 1, 1);
        p.publish(id).unwrap();
        assert!(!p.query(id, "shooter").unwrap().trace.shed);
        // The bucket is empty, but repeats are L1 hits — admission
        // never sees them and nothing is shed.
        for _ in 0..5 {
            let r = p.query(id, "shooter").unwrap();
            assert!(r.trace.cache_hit);
            assert!(!r.trace.shed);
        }
        assert_eq!(p.traffic_summary(id).unwrap().shed_queries, 0);
    }

    #[test]
    fn concurrency_cap_sheds_and_releases() {
        let (mut p, tenant, _) = platform();
        let mut canvas = Canvas::new();
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list("inventory", Element::text("{title}"), 10),
            )
            .unwrap();
        let config = AppBuilder::new("Capped", tenant)
            .layout(canvas)
            .source(
                "inventory",
                DataSourceDef::Proprietary {
                    table: "inventory".into(),
                },
            )
            .admission(crate::app::AdmissionPolicy {
                max_concurrency: 1,
                ..crate::app::AdmissionPolicy::default()
            })
            .build()
            .unwrap();
        let id = p.register_app(config).unwrap();
        p.publish(id).unwrap();
        // Queries here are sequential, so the single slot is always
        // free again by the next call: nothing is shed, and the slot
        // count returns to zero (the RAII guard released it).
        for i in 0..4 {
            assert!(!p.query(id, &format!("shooter {i}")).unwrap().trace.shed);
        }
        assert_eq!(p.traffic_summary(id).unwrap().shed_queries, 0);
        // Saturate the slot by hand and the next query sheds.
        let hosted = &p.apps[id.0 as usize];
        let held = InflightSlot::try_enter(&hosted.inflight, 1).unwrap();
        assert!(p.query(id, "while full").unwrap().trace.shed);
        drop(held);
        assert!(!p.query(id, "after release").unwrap().trace.shed);
    }

    #[test]
    fn maintenance_tick_sweeps_expired_caches() {
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        p.query(id, "shooter").unwrap();
        p.query(id, "farm").unwrap();
        // Nothing has expired yet.
        let fresh = p.maintenance_tick();
        assert_eq!(fresh.purged_responses, 0);
        // Push the clock past both the L1 TTL (60s) and the L2 TTLs.
        p.advance_clock(600_000);
        let swept = p.maintenance_tick();
        assert_eq!(swept.purged_responses, 2, "both L1 entries reclaimed");
        assert!(swept.purged_sources > 0, "L2 outcomes reclaimed");
        // The sweep is also visible in the per-app cache stats.
        assert_eq!(p.cache_stats(id).unwrap().expired, 2);
        let again = p.maintenance_tick();
        assert_eq!(again.purged_responses, 0);
        assert_eq!(again.purged_sources, 0);
    }

    #[test]
    fn clock_advances_with_work() {
        let (mut p, tenant, _) = platform();
        let id = register_gamer_queen(&mut p, tenant);
        p.publish(id).unwrap();
        let before = p.clock_ms();
        let resp = p.query(id, "shooter").unwrap();
        assert_eq!(p.clock_ms(), before + resp.virtual_ms as u64);
    }
}
