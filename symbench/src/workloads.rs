//! The four workloads.
//!
//! * `cold_fanout` — Fig. 2's whole miss path: distinct queries, so L1
//!   always misses, over a 10 × 3 supplemental fan-out.
//! * `web_scatter` — a 4-shard router of web-only tenants, caches off:
//!   the scatter-gather web path, with no fan-out tasks at all.
//! * `tenant_mix` — eight tenants on one platform under replayed
//!   open-loop traffic: mostly L1 hits, with admission, ads, clicks,
//!   dashboards, maintenance and re-uploads beside the reads.
//! * `hybrid_filter` — the hybrid planner across five selectivities,
//!   caches off, the only workload that reaches it.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Instant;

use symphony_cluster::scatter::shard_rpc_ms;
use symphony_cluster::wire::ShardSearchService;
use symphony_core::{AppId, Platform};
use symphony_services::{BreakerConfig, BreakerRegistry, LatencyModel, SimulatedTransport};
use symphony_store::{HybridPlan, HybridQuery, TableQuery, TenantSpace};
use symphony_text::Query;
use symphony_web::{SearchConfig, SearchEngine, Vertical};

use crate::layers::ReplayCtx;
use crate::run::{executed, traffic_fields, Counters, Observer, Sample, Workload};
use crate::worlds::*;

/// State every workload's traced replay needs besides the world.
struct Replayer {
    transport: SimulatedTransport,
    breakers: BreakerRegistry,
}

impl Replayer {
    fn new() -> Replayer {
        Replayer {
            transport: bench_transport(),
            breakers: BreakerRegistry::new(BreakerConfig::default()),
        }
    }

    fn ctx<'a>(&'a self, p: &'a Platform, app: AppId) -> ReplayCtx<'a> {
        let config = p.app(app).expect("app exists");
        ReplayCtx {
            app: config,
            space: p.store().space_by_id(config.owner),
            engine: p.engine(),
            transport: &self.transport,
            breakers: &self.breakers,
            ads: p.ads(),
            cluster: None,
            shard_transport: None,
        }
    }
}

/// Counters of a single platform serving `apps`.
fn platform_counters(p: &Platform, apps: &[AppId]) -> Counters {
    let mut owners: Vec<u64> = apps
        .iter()
        .map(|&a| p.app(a).expect("app exists").owner.0 as u64)
        .collect();
    owners.sort_unstable();
    owners.dedup();
    Counters {
        l1: apps
            .iter()
            .map(|&a| p.cache_stats(a).expect("app exists"))
            .collect(),
        l2: p.source_cache_stats(),
        granted: owners.iter().map(|&t| p.scheduler().granted(t)).sum(),
        traffic: apps
            .iter()
            .map(|&a| traffic_fields(&p.traffic_summary(a).expect("app exists")))
            .collect(),
        billed: p.ads().ledger().len() as u64,
        ..Counters::default()
    }
}

/// Titles of the `inventory` impressions of a response, in order.
fn impression_titles(s: &Sample, source: &str) -> Vec<String> {
    s.resp
        .impressions
        .iter()
        .filter(|i| i.source == source)
        .map(|i| i.title.clone())
        .collect()
}

/// Check that the primary inventory items equal `IndexedTable::search`.
fn check_primary(space: Option<&TenantSpace>, s: &Sample, k: usize) -> Result<(), String> {
    let table = space
        .and_then(|sp| sp.table("inventory").ok())
        .ok_or("no inventory table")?;
    let hits = table
        .search(&Query::parse(&s.query), k)
        .map_err(|e| e.to_string())?;
    let expected: Vec<String> = hits
        .iter()
        .map(|h| {
            table
                .table()
                .get(h.record)
                .map(|r| r.get(0).display_string())
                .unwrap_or_default()
        })
        .collect();
    let got = impression_titles(s, "inventory");
    if got == expected {
        Ok(())
    } else {
        Err(format!(
            "op {} {:?}: served {got:?}, table search {expected:?}",
            s.op, s.query
        ))
    }
}

// ---- cold_fanout -------------------------------------------------------

/// `cold_fanout`.
pub struct ColdFanout {
    inputs: ColdInputs,
    replayer: Replayer,
}

impl ColdFanout {
    /// From the seed.
    pub fn new(seed: u64) -> ColdFanout {
        ColdFanout {
            inputs: ColdInputs::new(seed),
            replayer: Replayer::new(),
        }
    }
}

impl Workload for ColdFanout {
    type World = ColdWorld;
    const WARMUP_OPS: u64 = 100;
    const TRACE_OPS: u64 = 800;
    const HEAP_OPS: u64 = 800;
    const L2_INTERLEAVED: Option<&'static str> = Some("inventory");

    fn build(&self) -> ColdWorld {
        build_cold(&self.inputs)
    }

    fn op(&self, w: &mut ColdWorld, op: u64, obs: &mut Observer) {
        let q = self.inputs.query(op);
        let now = w.platform.clock_ms();
        let resp = obs.query(op, 0, &q, || w.platform.query(w.app, &q));
        if let Some(r) = resp.filter(|r| obs.tracing() && executed(r)) {
            obs.replay(op, now, &q, &self.replayer.ctx(&w.platform, w.app), &r);
        }
    }

    fn counters(&self, w: &ColdWorld) -> Counters {
        platform_counters(&w.platform, &[w.app])
    }

    fn check(&self, w: &ColdWorld, samples: &[Sample]) -> Result<(), String> {
        let owner = w.platform.app(w.app).expect("app").owner;
        let space = w.platform.store().space_by_id(owner);
        if samples.is_empty() {
            return Err("no responses kept".into());
        }
        samples
            .iter()
            .try_for_each(|s| check_primary(space, s, COLD_K))
    }

    fn describe(&self, w: &ColdWorld) -> Vec<String> {
        let l2 = w.platform.source_cache_stats();
        vec![format!(
            "L2: {} hits, {} misses, {} evictions, {} executions",
            l2.hits, l2.misses, l2.evictions, l2.executions
        )]
    }
}

// ---- web_scatter -------------------------------------------------------

/// `web_scatter`.
pub struct WebScatter {
    inputs: ScatterInputs,
    corpus: symphony_web::Corpus,
    replayer: Replayer,
    /// The benchmark's copy of the shard-node transport, made from the
    /// first traced world's engines.
    shard_transport: OnceLock<SimulatedTransport>,
}

impl WebScatter {
    /// From the seed.
    pub fn new(seed: u64) -> WebScatter {
        WebScatter {
            inputs: ScatterInputs::new(seed),
            corpus: scatter_corpus(),
            replayer: Replayer::new(),
            shard_transport: OnceLock::new(),
        }
    }
}

impl Workload for WebScatter {
    type World = ScatterWorld;
    const CLIENTS: usize = 2;
    const WARMUP_OPS: u64 = 200;
    const TRACE_OPS: u64 = 2_000;
    const HEAP_OPS: u64 = 2_000;

    fn build(&self) -> ScatterWorld {
        build_scatter(&self.corpus)
    }

    fn op(&self, w: &mut ScatterWorld, op: u64, obs: &mut Observer) {
        self.op_shared(w, op, obs)
    }

    fn op_shared(&self, w: &ScatterWorld, op: u64, obs: &mut Observer) {
        let (tenant, q) = self.inputs.query(op);
        let app = w.apps[tenant];
        let resp = obs.query(op, tenant, q, || w.router.query(app, q));
        if let Some(r) = resp.filter(|r| obs.tracing() && executed(r)) {
            let (shard, _, config) = w.local_app(tenant);
            let p = w.router.shard(shard);
            let cluster = w.router.cluster();
            let shard_transport = self.shard_transport.get_or_init(|| {
                // Same registrations as the fleet's own transport.
                let mut t = SimulatedTransport::new(0xE5AD);
                for (i, engine) in cluster.shard_engines().iter().enumerate() {
                    let latency = LatencyModel {
                        base_ms: shard_rpc_ms(engine.doc_count(Vertical::Web)),
                        jitter_ms: 0,
                        failure_rate: 0.0,
                    };
                    for endpoint in [
                        symphony_services::rpc::shard_endpoint(i),
                        symphony_services::rpc::replica_endpoint(i),
                    ] {
                        t.register(
                            &endpoint,
                            Box::new(ShardSearchService::new(engine.clone())),
                            latency.clone(),
                        );
                    }
                }
                t
            });
            let ctx = ReplayCtx {
                app: config,
                space: p.store().space_by_id(config.owner),
                engine: p.engine(),
                transport: &self.replayer.transport,
                breakers: &self.replayer.breakers,
                ads: p.ads(),
                cluster: Some(cluster),
                shard_transport: Some(shard_transport),
            };
            obs.replay(op, p.clock_ms(), q, &ctx, &r);
        }
    }

    fn counters(&self, w: &ScatterWorld) -> Counters {
        let mut c = Counters::default();
        for (i, &app) in w.apps.iter().enumerate() {
            let (shard, local, config) = w.local_app(i);
            let p = w.router.shard(shard);
            c.l1.push(p.cache_stats(local).expect("app exists"));
            c.granted += p.scheduler().granted(config.owner.0 as u64);
            c.traffic.push(traffic_fields(
                &w.router.app_traffic_summary(app).expect("app exists"),
            ));
        }
        for s in 0..w.router.num_shards() {
            let l2 = w.router.shard(s).source_cache_stats();
            c.l2.hits += l2.hits;
            c.l2.misses += l2.misses;
            c.l2.executions += l2.executions;
            c.l2.evictions += l2.evictions;
            c.l2.admission_rejected += l2.admission_rejected;
            c.billed += w.router.shard(s).ads().ledger().len() as u64;
        }
        c
    }

    fn check(&self, _w: &ScatterWorld, samples: &[Sample]) -> Result<(), String> {
        if samples.is_empty() {
            return Err("no responses kept".into());
        }
        // The unsharded reference engine over the same corpus.
        let single = SearchEngine::new(self.corpus.clone());
        for s in samples {
            let expected: Vec<String> = single
                .search(Vertical::Web, &s.query, &SearchConfig::default(), 10)
                .into_iter()
                .map(|r| r.url)
                .collect();
            let got: Vec<String> = s
                .resp
                .impressions
                .iter()
                .filter(|i| i.source == "web")
                .map(|i| i.url.clone().unwrap_or_default())
                .collect();
            if got != expected {
                return Err(format!(
                    "op {} {:?}: router {got:?}, single engine {expected:?}",
                    s.op, s.query
                ));
            }
        }
        Ok(())
    }
}

// ---- tenant_mix --------------------------------------------------------

/// Arrivals between dashboard refreshes. A refresh summarises the whole
/// interaction log, so its cost grows with the operations a run has
/// completed; at this interval refreshes take a few percent of the
/// timed phase, and CPU per call barely depends on how far a run got.
const DASHBOARD_EVERY: u64 = 2_500;
/// Arrivals between maintenance ticks.
const MAINTENANCE_EVERY: u64 = 500;
/// Arrivals between inventory re-uploads (one tenant at a time).
const UPLOAD_EVERY: u64 = 4_000;

/// `tenant_mix`.
pub struct TenantMix {
    inputs: MixInputs,
    replayer: Replayer,
    /// Virtual times of each tenant's admitted executions in the last
    /// second, to tell a shed under the tenant's provisioned rate.
    admitted: std::sync::Mutex<Vec<VecDeque<u64>>>,
}

impl TenantMix {
    /// From the seed.
    pub fn new(seed: u64) -> TenantMix {
        TenantMix {
            inputs: MixInputs::new(seed),
            replayer: Replayer::new(),
            admitted: std::sync::Mutex::new(vec![VecDeque::new(); MIX_TENANTS]),
        }
    }
}

impl Workload for TenantMix {
    type World = MixWorld;
    const WARMUP_OPS: u64 = 1_500;
    const TRACE_OPS: u64 = 8_000;
    const HEAP_OPS: u64 = 4_000;

    fn build(&self) -> MixWorld {
        self.admitted
            .lock()
            .expect("admission window lock poisoned")
            .iter_mut()
            .for_each(VecDeque::clear);
        build_mix(&self.inputs)
    }

    fn op(&self, w: &mut MixWorld, op: u64, obs: &mut Observer) {
        let n = self.inputs.arrivals.len() as u64;
        let a = self.inputs.arrivals[(op % n) as usize];
        let pass = op / n;
        let due = ((a.at_ms + pass * self.inputs.span_ms()) as f64 * w.time_scale) as u64;
        let tenant = a.tenant as usize % MIX_TENANTS;
        let app = w.apps[tenant];
        let q = &self.inputs.pool[a.query as usize % self.inputs.pool.len()];
        let now = w.platform.clock_ms();
        if now < due {
            w.platform.advance_clock(due - now);
        }
        let now = w.platform.clock_ms();
        let resp = obs.query(op, tenant, q, || w.platform.query(app, q));
        let Some(resp) = resp else { return };
        {
            let mut admitted = self
                .admitted
                .lock()
                .expect("admission window lock poisoned");
            let window = &mut admitted[tenant];
            while window.front().is_some_and(|&t| t + 1000 <= now) {
                window.pop_front();
            }
            if resp.trace.shed {
                if window.len() < w.rates[tenant] as usize {
                    obs.layer_count("admission.shed_under_share", 1);
                }
            } else if executed(&resp) {
                window.push_back(now);
            }
        }
        if obs.tracing() && executed(&resp) {
            obs.replay(op, now, q, &self.replayer.ctx(&w.platform, app), &resp);
        }
        for p in 0..8usize {
            if a.clicks & (1 << p) != 0 && p < resp.impressions.len() {
                let imp = &resp.impressions[p];
                let billed = obs.call(op, "hosting.click", || w.platform.click(app, q, imp));
                match billed {
                    Ok(_) => {}
                    // A page cached in L1 can still show an ad whose
                    // campaign has since spent its budget; the ad server
                    // refuses to bill that click. Counted, not a failure.
                    Err(e) if e.to_string().contains("budget exhausted") => {
                        obs.budget_refusals += 1;
                    }
                    Err(_) => obs.click_errors += 1,
                }
            }
        }
        if op % DASHBOARD_EVERY == DASHBOARD_EVERY - 1 {
            let p = &w.platform;
            let apps = &w.apps;
            obs.call(op, "hosting.dashboard", || {
                for &id in apps {
                    std::hint::black_box(p.traffic_summary(id).expect("app exists"));
                    std::hint::black_box(p.daily_series(id).expect("app exists"));
                }
            });
        }
        if op % MAINTENANCE_EVERY == MAINTENANCE_EVERY / 2 {
            std::hint::black_box(w.platform.maintenance_tick());
        }
        if op % UPLOAD_EVERY == UPLOAD_EVERY - 1 {
            let t = ((op / UPLOAD_EVERY) % MIX_TENANTS as u64) as usize;
            let (tenant, key) = &w.tenants[t];
            w.platform
                .upload_table(*tenant, key, inventory_table(&self.inputs.rows[t]))
                .expect("re-upload within quota");
        }
    }

    fn counters(&self, w: &MixWorld) -> Counters {
        platform_counters(&w.platform, &w.apps)
    }

    fn check(&self, w: &MixWorld, samples: &[Sample]) -> Result<(), String> {
        if samples.is_empty() {
            return Err("no responses kept".into());
        }
        for s in samples {
            let owner = w.platform.app(w.apps[s.app]).expect("app").owner;
            check_primary(w.platform.store().space_by_id(owner), s, 3)?;
        }
        Ok(())
    }

    fn describe(&self, w: &MixWorld) -> Vec<String> {
        let c = platform_counters(&w.platform, &w.apps);
        let l1 = c.l1_total();
        vec![
            format!(
                "pilot capacity {:.2} q/virtual-s; provisioned rates {:?}; offered at {:.0}% of capacity",
                w.capacity_qps,
                w.rates,
                MIX_LOAD * 100.0
            ),
            format!(
                "L1 {} hits / {} misses; billed clicks {}",
                l1.hits, l1.misses, c.billed
            ),
        ]
    }
}

// ---- hybrid_filter -----------------------------------------------------

/// Every n-th executed query of the traced run also times the three
/// forced plans.
const PLAN_PROBE_EVERY: u64 = 10;

/// `hybrid_filter`.
pub struct HybridFilter {
    inputs: HybridInputs,
    replayer: Replayer,
}

impl HybridFilter {
    /// From the seed.
    pub fn new(seed: u64) -> HybridFilter {
        HybridFilter {
            inputs: HybridInputs::new(seed),
            replayer: Replayer::new(),
        }
    }
}

const PLANS: [HybridPlan; 3] = [
    HybridPlan::FilterFirst,
    HybridPlan::SearchFirst,
    HybridPlan::Scan,
];

fn plan_name(p: HybridPlan) -> &'static str {
    match p {
        HybridPlan::FilterFirst => "datastore.plan.filter_first",
        HybridPlan::SearchFirst => "datastore.plan.search_first",
        HybridPlan::Scan => "datastore.plan.scan",
    }
}

fn wines(w: &HybridWorld) -> &symphony_store::IndexedTable {
    w.platform
        .store()
        .space_by_id(w.tenant)
        .and_then(|s| s.table("wines").ok())
        .expect("wines table uploaded")
}

impl Workload for HybridFilter {
    type World = HybridWorld;
    const WARMUP_OPS: u64 = 250;
    const TRACE_OPS: u64 = 2_000;
    const HEAP_OPS: u64 = 2_000;

    fn build(&self) -> HybridWorld {
        build_hybrid(&self.inputs)
    }

    fn op(&self, w: &mut HybridWorld, op: u64, obs: &mut Observer) {
        let (i, q) = self.inputs.query(op);
        let app = w.apps[i];
        let now = w.platform.clock_ms();
        let resp = obs.query(op, i, &q, || w.platform.query(app, &q));
        let Some(r) = resp.filter(|r| obs.tracing() && executed(r)) else {
            return;
        };
        obs.replay(op, now, &q, &self.replayer.ctx(&w.platform, app), &r);
        let table = wines(w);
        let hq = HybridQuery::new(Query::parse(&q), hybrid_filter(i), HYBRID_K);
        let explain = table.hybrid_explain(&hq);
        obs.layer_count(plan_name(explain.plan), 1);
        if op.is_multiple_of(PLAN_PROBE_EVERY) {
            let mut times = [0f64; 3];
            for (t, plan) in times.iter_mut().zip(PLANS) {
                let t0 = Instant::now();
                std::hint::black_box(table.hybrid_query_planned(&hq, Some(plan)).ok());
                *t = t0.elapsed().as_nanos() as f64;
            }
            let chosen = times[PLANS
                .iter()
                .position(|&p| p == explain.plan)
                .expect("a plan")];
            let best = times.iter().copied().fold(f64::INFINITY, f64::min);
            obs.layer_sample("datastore.plan_regret", chosen / best);
            let truth = table.query(&TableQuery::filtered(hq.filter.clone())).len();
            if let Some(est) = explain.estimated_matches {
                obs.layer_sample("datastore.estimate_ratio", est as f64 / truth.max(1) as f64);
            }
        }
    }

    fn counters(&self, w: &HybridWorld) -> Counters {
        platform_counters(&w.platform, &w.apps)
    }

    fn check(&self, w: &HybridWorld, samples: &[Sample]) -> Result<(), String> {
        if samples.is_empty() {
            return Err("no responses kept".into());
        }
        let table = wines(w);
        for s in samples {
            let hq = HybridQuery::new(Query::parse(&s.query), hybrid_filter(s.app), HYBRID_K);
            let chosen = table.hybrid_query(&hq).map_err(|e| e.to_string())?;
            for plan in PLANS {
                let forced = table
                    .hybrid_query_planned(&hq, Some(plan))
                    .map_err(|e| e.to_string())?;
                if forced.hits != chosen.hits {
                    return Err(format!(
                        "op {} {:?} under {}: {} plan differs from the chosen {}",
                        s.op,
                        s.query,
                        HYBRID_CUTOFFS[s.app],
                        plan.name(),
                        chosen.explain.plan.name()
                    ));
                }
            }
            let expected: Vec<String> = chosen
                .hits
                .iter()
                .map(|h| {
                    table
                        .table()
                        .get(h.record)
                        .map(|r| r.get(0).display_string())
                        .unwrap_or_default()
                })
                .collect();
            let got = impression_titles(s, "wines");
            if got != expected {
                return Err(format!(
                    "op {} {:?}: served {got:?}, hybrid query {expected:?}",
                    s.op, s.query
                ));
            }
        }
        Ok(())
    }
}
