//! The tenant router: N independent [`Platform`] shards behind one
//! front door.
//!
//! Two placement regimes coexist, mirroring the data they place:
//!
//! * **Web verticals are document-partitioned.** Every shard indexes a
//!   slice of the corpus ([`SearchEngine::build_cluster`]), and every
//!   web query scatters to all shards through [`ClusterWeb`].
//! * **Tenant tables are placed whole.** A tenant's tables, apps, and
//!   interaction logs live together on one *home shard*, chosen by
//!   rendezvous hashing over the tenant name — deterministic, uniform,
//!   and stable under explicit rebalancing ([`Router::move_tenant`]).
//!
//! Each shard keeps its own virtual clock. Tenants homed on different
//! shards advance independently — that is how wall-clock parallelism
//! across nodes appears under virtual time, and why an N-shard fleet
//! shows aggregate throughput gains in experiment E-shard.

use std::collections::BTreeMap;
use std::sync::Arc;

use symphony_core::{
    AppId, ApplicationConfig, CacheStats, Impression, Platform, PlatformError, QueryHost,
    QueryResponse, QuotaConfig, TrafficSummary,
};
use symphony_services::hash::{fnv1a_wide, splitmix64, FNV_OFFSET};
use symphony_services::FaultPlan;
use symphony_store::{AccessKey, IndexedTable, TenantId};
use symphony_web::{Corpus, SearchEngine};

use crate::scatter::ClusterWeb;

/// Where a tenant lives.
#[derive(Debug, Clone)]
struct TenantHome {
    shard: usize,
    id: TenantId,
    key: AccessKey,
}

/// One router-global application: which shard hosts it, under which
/// shard-local id, and everything needed to re-register it elsewhere.
#[derive(Debug, Clone)]
struct AppRoute {
    shard: usize,
    local: AppId,
    tenant: String,
    config: ApplicationConfig,
    published: bool,
}

fn hash_str(s: &str) -> u64 {
    // FNV-1a (wide), then one splitmix round to spread short names.
    splitmix64(fnv1a_wide(FNV_OFFSET, s.as_bytes()))
}

/// Rendezvous (highest-random-weight) choice of home shard for a
/// tenant name: every router instance computes the same placement,
/// and changing the shard count only moves the minimal set of tenants.
pub fn rendezvous_shard(tenant: &str, num_shards: usize) -> usize {
    assert!(num_shards > 0, "placement needs at least one shard");
    let th = hash_str(tenant);
    (0..num_shards)
        .max_by_key(|&s| splitmix64(th ^ (s as u64).wrapping_mul(0xA24B_AED4_963E_E407)))
        .expect("non-empty shard range")
}

/// N platform shards behind one routing layer.
pub struct Router {
    shards: Vec<Platform>,
    cluster: Arc<ClusterWeb>,
    tenants: BTreeMap<String, TenantHome>,
    routes: Vec<AppRoute>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("shards", &self.shards.len())
            .field("tenants", &self.tenants.len())
            .field("apps", &self.routes.len())
            .finish()
    }
}

impl Router {
    /// Bring up an `num_shards`-node fleet over `corpus`: each shard
    /// indexes its document slice, hosts its tenants, and serves web
    /// queries by scattering through the shared [`ClusterWeb`].
    pub fn new(corpus: &Corpus, num_shards: usize, threads: usize, seed: u64) -> Router {
        Self::build(corpus, num_shards, threads, seed, None)
    }

    /// Like [`Router::new`], with chaos windows scheduled on the
    /// inter-node transport (shard outages, latency spikes).
    pub fn with_faults(
        corpus: &Corpus,
        num_shards: usize,
        threads: usize,
        seed: u64,
        plan: FaultPlan,
    ) -> Router {
        Self::build(corpus, num_shards, threads, seed, Some(plan))
    }

    fn build(
        corpus: &Corpus,
        num_shards: usize,
        threads: usize,
        seed: u64,
        plan: Option<FaultPlan>,
    ) -> Router {
        let engines: Vec<Arc<SearchEngine>> =
            SearchEngine::build_cluster(corpus, num_shards, threads)
                .into_iter()
                .map(Arc::new)
                .collect();
        let mut cluster = ClusterWeb::new(engines.clone(), seed);
        if let Some(plan) = plan {
            cluster = cluster.with_fault_plan(plan);
        }
        let cluster = Arc::new(cluster);
        let shards = engines
            .into_iter()
            .map(|engine| {
                let mut p = Platform::new(engine);
                p.set_scatter(cluster.clone());
                p
            })
            .collect();
        Router {
            shards,
            cluster,
            tenants: BTreeMap::new(),
            routes: Vec::new(),
        }
    }

    /// Number of platform shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The scatter-gather fleet (breaker states, shard engines).
    pub fn cluster(&self) -> &ClusterWeb {
        &self.cluster
    }

    /// Direct access to one shard platform (tests, maintenance).
    pub fn shard(&self, i: usize) -> &Platform {
        &self.shards[i]
    }

    /// Apply a quota config to every shard.
    pub fn with_quotas(mut self, quotas: QuotaConfig) -> Router {
        self.shards = self
            .shards
            .into_iter()
            .map(|p| p.with_quotas(quotas))
            .collect();
        self
    }

    /// Apply a source-cache (L2) config to every shard.
    pub fn with_source_cache(mut self, config: symphony_core::SourceCacheConfig) -> Router {
        self.shards = self
            .shards
            .into_iter()
            .map(|p| p.with_source_cache(config))
            .collect();
        self
    }

    /// The home shard placement for `tenant` (whether or not it
    /// exists yet).
    pub fn home_shard(&self, tenant: &str) -> usize {
        rendezvous_shard(tenant, self.shards.len())
    }

    /// Current shard of an existing tenant (differs from
    /// [`Router::home_shard`] after an explicit move).
    pub fn tenant_shard(&self, tenant: &str) -> Option<usize> {
        self.tenants.get(tenant).map(|h| h.shard)
    }

    fn home(&self, tenant: &str) -> Result<&TenantHome, PlatformError> {
        self.tenants
            .get(tenant)
            .ok_or_else(|| PlatformError::InvalidConfig(format!("unknown tenant {tenant:?}")))
    }

    fn route(&self, id: AppId) -> Result<&AppRoute, PlatformError> {
        self.routes
            .get(id.0 as usize)
            .ok_or(PlatformError::AppNotFound(id.0))
    }

    /// Create `tenant` on its rendezvous home shard. Returns the shard
    /// index it landed on.
    pub fn create_tenant(&mut self, tenant: &str) -> usize {
        let shard = self.home_shard(tenant);
        let (id, key) = self.shards[shard].create_tenant(tenant);
        self.tenants
            .insert(tenant.to_string(), TenantHome { shard, id, key });
        shard
    }

    /// Upload a table into `tenant`'s space on its current shard.
    pub fn upload_table(&mut self, tenant: &str, table: IndexedTable) -> Result<(), PlatformError> {
        let TenantHome { shard, id, key } = self.home(tenant)?.clone();
        self.shards[shard].upload_table(id, &key, table)
    }

    /// Register an application for `tenant` on its current shard.
    /// `config.owner` is overwritten with the tenant's shard-local id;
    /// callers address apps only through the returned router-global
    /// [`AppId`].
    pub fn register_app(
        &mut self,
        tenant: &str,
        mut config: ApplicationConfig,
    ) -> Result<AppId, PlatformError> {
        let TenantHome { shard, id, .. } = self.home(tenant)?.clone();
        config.owner = id;
        let local = self.shards[shard].register_app(config.clone())?;
        let global = AppId(self.routes.len() as u32);
        self.routes.push(AppRoute {
            shard,
            local,
            tenant: tenant.to_string(),
            config,
            published: false,
        });
        Ok(global)
    }

    /// Publish an application.
    pub fn publish(&mut self, id: AppId) -> Result<(), PlatformError> {
        let (shard, local) = {
            let r = self.route(id)?;
            (r.shard, r.local)
        };
        self.shards[shard].publish(local)?;
        self.routes[id.0 as usize].published = true;
        Ok(())
    }

    /// Serve one query, on the app's home shard.
    pub fn query(&self, id: AppId, query: &str) -> Result<Arc<QueryResponse>, PlatformError> {
        let r = self.route(id)?;
        self.shards[r.shard].query(r.local, query)
    }

    /// Record a click, on the app's home shard.
    pub fn click(
        &self,
        id: AppId,
        query: &str,
        impression: &Impression,
    ) -> Result<Option<u32>, PlatformError> {
        let r = self.route(id)?;
        self.shards[r.shard].click(r.local, query, impression)
    }

    /// Warm every shard for serving. Returns tables visited.
    pub fn warmup(&mut self) -> usize {
        self.shards.iter_mut().map(|s| s.warmup()).sum()
    }

    /// Move `tenant` — tables, apps, publication state — to
    /// `to_shard`, the explicit rebalancing path. Tables drain from
    /// the old shard's space and re-upload on the new one; apps are
    /// re-registered under the tenant's new shard-local id and the old
    /// copies unpublished. Router-global [`AppId`]s stay valid across
    /// the move.
    pub fn move_tenant(&mut self, tenant: &str, to_shard: usize) -> Result<(), PlatformError> {
        if to_shard >= self.shards.len() {
            return Err(PlatformError::InvalidConfig(format!(
                "shard {to_shard} out of range ({} shards)",
                self.shards.len()
            )));
        }
        let old = self.home(tenant)?.clone();
        if old.shard == to_shard {
            return Ok(());
        }
        // Drain tables from the old space.
        let tables: Vec<IndexedTable> = {
            let space = self.shards[old.shard]
                .store_mut()
                .space_mut(old.id, &old.key)
                .map_err(PlatformError::Store)?;
            let names: Vec<String> = space.table_names().iter().map(|s| s.to_string()).collect();
            names.iter().filter_map(|n| space.drop_table(n)).collect()
        };
        // Land the tenant on the new shard.
        let (new_id, new_key) = self.shards[to_shard].create_tenant(tenant);
        for table in tables {
            self.shards[to_shard].upload_table(new_id, &new_key, table)?;
        }
        // Re-home every app: register under the new owner id, restore
        // publication, retire the old copy.
        for route in self.routes.iter_mut().filter(|r| r.tenant == tenant) {
            let mut config = route.config.clone();
            config.owner = new_id;
            let new_local = self.shards[to_shard].register_app(config.clone())?;
            if route.published {
                self.shards[to_shard].publish(new_local)?;
                self.shards[old.shard].unpublish(route.local)?;
            }
            route.shard = to_shard;
            route.local = new_local;
            route.config = config;
        }
        self.tenants.insert(
            tenant.to_string(),
            TenantHome {
                shard: to_shard,
                id: new_id,
                key: new_key,
            },
        );
        Ok(())
    }

    /// Traffic summary of one application (served by its home shard).
    pub fn app_traffic_summary(&self, id: AppId) -> Result<TrafficSummary, PlatformError> {
        let r = self.route(id)?;
        self.shards[r.shard].traffic_summary(r.local)
    }

    /// Cluster-wide traffic summary: every app's per-shard summary
    /// folded into one. Counters sum, so the derived shed/degraded/
    /// error rates come out weighted by each shard's query volume.
    pub fn traffic_summary(&self) -> TrafficSummary {
        let mut total = TrafficSummary {
            app: "cluster".to_string(),
            ..TrafficSummary::default()
        };
        for i in 0..self.routes.len() {
            if let Ok(s) = self.app_traffic_summary(AppId(i as u32)) {
                total.merge(&s);
            }
        }
        total
    }

    /// Cluster-wide response-cache stats: per-app L1 caches folded
    /// across every shard.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for r in &self.routes {
            if let Some(s) = self.shards[r.shard].cache_stats(r.local) {
                total.merge(&s);
            }
        }
        total
    }
}

impl QueryHost for Router {
    fn host_clock_ms(&self, app: AppId) -> u64 {
        self.route(app)
            .map(|r| self.shards[r.shard].clock_ms())
            .unwrap_or(0)
    }

    fn host_advance_clock(&self, app: AppId, ms: u64) {
        if let Ok(r) = self.route(app) {
            self.shards[r.shard].advance_clock(ms);
        }
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
        self.shards
            .iter()
            .map(Platform::clock_ms)
            .max()
            .unwrap_or(0)
    }
}
