//! Scatter-gather over the shard fleet.
//!
//! [`ClusterWeb`] owns the inter-node plumbing: a simulated transport
//! with one primary and one replica endpoint per shard, a breaker
//! registry watching each endpoint, and the resilient call policy the
//! legs run under. A web-vertical query scatters to every shard,
//! gathers the per-shard candidate pools, and merges them rank-safely
//! with [`SearchEngine::merge_pools`] — bit-identical to a
//! single-index search whenever every shard answers.
//!
//! Pools arrive without snippets. Before merging, the gather side
//! attaches a [`SnippetSource`](symphony_web::SnippetSource) built from
//! the page table every shard engine shares, so the merge snippets
//! only the results that reach the page: no second RPC round and no
//! extra virtual cost.
//!
//! Failure semantics ride the existing service machinery rather than
//! new code paths: a dead primary burns its retries, the breaker trips
//! and starts fast-failing it for free, and the leg falls over to the
//! replica endpoint. A shard whose primary *and* replica both fail is
//! simply absent from the merge — the query degrades to a partial
//! result whose error names the silent shards, it does not fail.
//!
//! Virtual time follows the platform's parallel fan-out convention:
//! the scatter costs the *max* over per-shard call chains plus a
//! constant gather step, because the legs run concurrently on the
//! virtual clock.

use std::sync::Arc;

use symphony_core::{ScatterOutcome, ScatterSearch};
use symphony_services::{
    BreakerConfig, BreakerRegistry, BreakerState, CallPolicy, FaultPlan, LatencyModel,
    ResilienceContext, ServiceClient, SimulatedTransport,
};
use symphony_web::{SearchConfig, SearchEngine, ShardPool, Vertical};

use crate::wire::{decode_pool, search_request, ShardSearchService};
use symphony_services::rpc::{replica_endpoint, shard_endpoint};

/// Virtual cost of the gather step (pool merge at the router), on top
/// of the slowest shard leg.
pub const GATHER_MS: u32 = 2;

/// Virtual latency of one shard-node search RPC, scaled to the number
/// of web documents the node's index holds. Calibrated so a node
/// holding the full default bench corpus (~200 pages) costs
/// [`symphony_core::WEB_MS`] — a 1-shard cluster prices like the
/// single-node engine, and an `n`-shard split divides the
/// document-dependent part by `n`.
pub fn shard_rpc_ms(web_docs: usize) -> u32 {
    5 + (web_docs * 3 / 20) as u32
}

/// The shard fleet behind a router: N document-partitioned search
/// nodes (each with a replica), reachable only through the simulated
/// transport.
pub struct ClusterWeb {
    shards: Vec<Arc<SearchEngine>>,
    transport: SimulatedTransport,
    breakers: BreakerRegistry,
    policy: CallPolicy,
}

impl std::fmt::Debug for ClusterWeb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterWeb")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ClusterWeb {
    /// Bring up the fleet over pre-built shard engines (see
    /// [`SearchEngine::build_cluster`]): registers a primary and a
    /// replica node per shard, both serving the same slice.
    pub fn new(shards: Vec<Arc<SearchEngine>>, seed: u64) -> ClusterWeb {
        assert!(!shards.is_empty(), "a cluster needs at least one shard");
        let mut transport = SimulatedTransport::new(seed);
        let mut slowest_base = 0u32;
        for (i, engine) in shards.iter().enumerate() {
            let latency = LatencyModel {
                base_ms: shard_rpc_ms(engine.doc_count(Vertical::Web)),
                jitter_ms: 0,
                failure_rate: 0.0,
            };
            slowest_base = slowest_base.max(latency.base_ms);
            transport.register(
                &shard_endpoint(i),
                Box::new(ShardSearchService::new(engine.clone())),
                latency.clone(),
            );
            transport.register(
                &replica_endpoint(i),
                Box::new(ShardSearchService::new(engine.clone())),
                latency,
            );
        }
        ClusterWeb {
            shards,
            transport,
            breakers: BreakerRegistry::new(BreakerConfig::default()),
            // Timeout scales with the fleet's slowest node: an outage
            // charges the client its full timeout per attempt, so an
            // oversized timeout would turn every unnoticed dead node
            // into a virtual-minutes stall before the breaker trips.
            policy: CallPolicy {
                timeout_ms: (slowest_base * 4).max(50),
                retries: 1,
                backoff_base_ms: 0,
                backoff_cap_ms: 0,
                hedge_after_ms: None,
            },
        }
    }

    /// Schedule chaos windows (node outages, latency spikes) on the
    /// fleet's transport. Endpoint names come from
    /// [`shard_endpoint`] / [`replica_endpoint`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> ClusterWeb {
        self.transport.set_fault_plan(plan);
        self
    }

    /// Number of shards in the fleet.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard engines, in shard order.
    pub fn shard_engines(&self) -> &[Arc<SearchEngine>] {
        &self.shards
    }

    /// Breaker state of one endpoint at `now_ms` (tests, dashboards).
    pub fn breaker_state(&self, endpoint: &str, now_ms: u64) -> BreakerState {
        self.breakers.state(endpoint, now_ms)
    }

    /// Run one leg against shard `i`: primary first, replica on
    /// failure (a tripped breaker fast-fails the primary for free, so
    /// steady-state failover costs only the replica call). Returns the
    /// decoded pool (if any answer arrived) and the virtual cost of
    /// the whole chain.
    fn call_shard(
        &self,
        i: usize,
        vertical: Vertical,
        query: &str,
        config: &SearchConfig,
        k: usize,
        now_ms: u64,
    ) -> (Option<ShardPool>, u32) {
        let request = search_request(vertical, query, config, k);
        let client = ServiceClient::with_policy(&self.transport, self.policy);
        let ctx = ResilienceContext {
            now_ms,
            budget_ms: None,
            max_retries: None,
            breakers: Some(&self.breakers),
        };
        let mut spent = 0u32;
        for endpoint in [shard_endpoint(i), replica_endpoint(i)] {
            let ctx = ResilienceContext {
                now_ms: now_ms + spent as u64,
                ..ctx
            };
            match client.call_resilient(&endpoint, &request, &ctx) {
                Ok(out) => {
                    spent = spent.saturating_add(out.total_latency_ms);
                    // A garbled frame reads as a failed node, not as a
                    // truncated pool: fall through to the replica.
                    match decode_pool(&out.response) {
                        Some(pool) => return (Some(pool), spent),
                        None => continue,
                    }
                }
                Err((_, burned)) => spent = spent.saturating_add(burned),
            }
        }
        (None, spent)
    }
}

impl ScatterSearch for ClusterWeb {
    fn scatter(
        &self,
        vertical: Vertical,
        query: &str,
        config: &SearchConfig,
        k: usize,
        now_ms: u64,
    ) -> ScatterOutcome {
        let mut pools = Vec::with_capacity(self.shards.len());
        let mut silent: Vec<usize> = Vec::new();
        let mut slowest = 0u32;
        for i in 0..self.shards.len() {
            let (pool, spent) = self.call_shard(i, vertical, query, config, k, now_ms);
            slowest = slowest.max(spent);
            match pool {
                Some(p) => pools.push(p),
                None => silent.push(i),
            }
        }
        if !pools.is_empty() {
            let source = self.shards[0].snippet_source(vertical, query, config);
            for pool in &mut pools {
                pool.snippets = Some(source.clone());
            }
        }
        let shards_total = self.shards.len() as u32;
        let shards_answered = shards_total - silent.len() as u32;
        let error = if silent.is_empty() {
            None
        } else {
            let ids: Vec<String> = silent.iter().map(usize::to_string).collect();
            Some(format!(
                "partial web results: shard(s) {} unanswered",
                ids.join(",")
            ))
        };
        ScatterOutcome {
            results: SearchEngine::merge_pools(pools, k),
            virtual_ms: slowest.saturating_add(GATHER_MS),
            shards_answered,
            shards_total,
            error,
        }
    }
}
