//! The platform-wide L2 source-result cache.
//!
//! The per-app response cache (L1, [`crate::hosting`]) absorbs exact
//! repeats of one app's queries, but the expensive work lives a level
//! lower: `run_source_ctx` fetches against web verticals, proprietary
//! tables, and SOAP/REST services. Community verticals share sources —
//! eight gaming apps all fan out `"{title} review"` against the same
//! web vertical — so the platform caches *source outcomes* once and
//! shares them across apps and across L1-missed queries (experiment
//! E-cache).
//!
//! Three mechanisms, layered:
//!
//! 1. **Sharded outcome cache** — FNV-1a over `SHARDS` independent
//!    mutexes (the [`BreakerRegistry`](symphony_services::BreakerRegistry)
//!    pattern), keyed by `(source fingerprint, normalized query)`.
//!    Entries hold `Arc<SourceOutcome>`, so hits are pointer clones.
//!    TTLs are per source kind; error outcomes get a short *negative*
//!    TTL and are never served while the endpoint's circuit breaker is
//!    open or half-open (an open breaker fast-fails in 0 virtual ms —
//!    cheaper and more truthful than a stale cached error — and a
//!    half-open breaker needs real probes to close).
//! 2. **Singleflight** — concurrent misses on one key coalesce onto a
//!    single executor; waiters block on the shard's [`Condvar`] and
//!    receive the leader's `Arc<SourceOutcome>`. Virtual-time
//!    accounting is interleaving-independent: a request that observes
//!    an outcome completed *after* its own start (`completed_at >
//!    now`) is charged the remaining wait, exactly as if it had run
//!    the fetch itself, so traces replay identically no matter which
//!    thread happened to lead.
//! 3. **TinyLFU admission** — a doorkeeper bitset plus a 4-bit
//!    count-min sketch estimates each key's popularity; at capacity a
//!    candidate is admitted only if it is more popular than the LRU
//!    victim, so one-hit-wonder tail queries stop evicting the hot
//!    head. Counters halve periodically to age the history.
//!
//! `std::sync` primitives (not the vendored `parking_lot` façade) are
//! used because singleflight needs a [`Condvar`].

use crate::cache::LruTtlCache;
use crate::source::{DataSourceDef, SourceCtx, SourceOutcome};
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use symphony_services::hash::{fnv1a, FNV_OFFSET};
use symphony_services::BreakerState;
use symphony_store::TenantId;

/// Number of independently locked shards.
const SHARDS: usize = 8;

/// Virtual cost of serving a source outcome from the cache (pointer
/// clone + bookkeeping; cheaper than the cheapest real fetch).
pub const SOURCE_CACHE_HIT_MS: u32 = 1;

/// Tuning for the platform's shared source cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceCacheConfig {
    /// Master switch; `false` makes every fetch execute uncached.
    pub enabled: bool,
    /// Total entries across all shards.
    pub capacity: usize,
    /// TTL for web-vertical outcomes (virtual ms).
    pub web_ttl_ms: u64,
    /// TTL for proprietary-table outcomes (virtual ms).
    pub proprietary_ttl_ms: u64,
    /// TTL for service outcomes (virtual ms).
    pub service_ttl_ms: u64,
    /// Short TTL for *negative* entries (error outcomes), and the knob
    /// the hosting layer reuses for degraded L1 responses.
    pub negative_ttl_ms: u64,
}

impl Default for SourceCacheConfig {
    fn default() -> Self {
        SourceCacheConfig {
            enabled: true,
            capacity: 4096,
            web_ttl_ms: 30_000,
            proprietary_ttl_ms: 10_000,
            service_ttl_ms: 5_000,
            negative_ttl_ms: 500,
        }
    }
}

impl SourceCacheConfig {
    /// A cache that never serves or stores (the L1-only baseline in
    /// experiment E-cache, and the stress suite's sequential-equality
    /// harness, where cross-app sharing would couple the apps'
    /// virtual-time accounting).
    pub fn disabled() -> Self {
        SourceCacheConfig {
            enabled: false,
            ..SourceCacheConfig::default()
        }
    }
}

/// Aggregate statistics across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCacheStats {
    /// Fetches served from a live positive entry.
    pub hits: u64,
    /// Fetches served from a live negative (error) entry.
    pub negative_hits: u64,
    /// Fetches that coalesced onto another request's execution.
    pub coalesced: u64,
    /// Fetches that found nothing servable.
    pub misses: u64,
    /// Underlying source executions (misses that ran, including
    /// negative-entry bypasses while a breaker was open).
    pub executions: u64,
    /// Insertions rejected by the TinyLFU admission policy.
    pub admission_rejected: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Entries dropped because their TTL lapsed.
    pub expired: u64,
}

impl SourceCacheStats {
    /// Fraction of fetches that avoided a source execution.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.negative_hits + self.coalesced + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.negative_hits + self.coalesced) as f64 / total as f64
        }
    }
}

/// How a fetch was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchStatus {
    /// The source kind is not cacheable (ads, composed apps) or the
    /// cache is disabled; the fetch executed directly.
    Uncached,
    /// Nothing servable was cached; this request executed the fetch.
    Miss,
    /// Served from a cached outcome completed at or before this
    /// request's start.
    Hit,
    /// Coalesced onto an execution that completed after this request's
    /// start (singleflight, or a cached outcome still "in the future"
    /// of this request's virtual clock).
    Coalesced,
}

/// A source fetch as seen through the cache: the (shared) outcome plus
/// what this particular request is charged for it.
#[derive(Debug, Clone)]
pub struct Fetched {
    /// The fetch outcome; hits share one allocation across requests.
    pub outcome: Arc<SourceOutcome>,
    /// Virtual ms this request pays (full cost for the executor,
    /// remaining wait for coalesced requests, [`SOURCE_CACHE_HIT_MS`]
    /// for hits).
    pub charged_ms: u32,
    /// Transport attempts this request is charged against the query's
    /// retry budget (0 for hits and coalesced requests — the executor
    /// already paid).
    pub attempts_charged: u32,
    /// How the fetch was satisfied.
    pub status: FetchStatus,
}

impl Fetched {
    /// Wrap a directly-executed outcome (no cache involved).
    pub fn uncached(outcome: SourceOutcome) -> Fetched {
        Fetched {
            charged_ms: outcome.virtual_ms,
            attempts_charged: outcome.attempts,
            outcome: Arc::new(outcome),
            status: FetchStatus::Uncached,
        }
    }
}

/// Cache key: source fingerprint + normalized query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FetchKey {
    fingerprint: u64,
    query: String,
}

impl FetchKey {
    /// Stable 64-bit hash (FNV-1a; `DefaultHasher` seeds vary per
    /// process, which would unshard deterministically-replayed runs).
    fn hash64(&self) -> u64 {
        let h = fnv1a(FNV_OFFSET, &self.fingerprint.to_le_bytes());
        fnv1a(h, self.query.as_bytes())
    }
}

#[derive(Debug, Clone)]
struct CachedEntry {
    outcome: Arc<SourceOutcome>,
    /// Virtual time the originating execution finished.
    completed_at: u64,
    /// True for error outcomes (short TTL, breaker-coherent serving).
    negative: bool,
}

/// Singleflight slot for one in-flight key.
enum Flight {
    /// The leader is executing; `waiters` requests are parked on the
    /// shard condvar.
    Running { waiters: usize },
    /// The leader finished; the result stays until every registered
    /// waiter has consumed it (admission may have kept it out of the
    /// cache proper).
    Done {
        outcome: Arc<SourceOutcome>,
        completed_at: u64,
        remaining: usize,
    },
}

#[derive(Default)]
struct ShardCounters {
    hits: u64,
    negative_hits: u64,
    coalesced: u64,
    misses: u64,
    executions: u64,
    admission_rejected: u64,
}

struct ShardState {
    cache: LruTtlCache<FetchKey, CachedEntry>,
    inflight: HashMap<FetchKey, Flight>,
    sketch: TinyLfu,
    counters: ShardCounters,
}

struct Shard {
    state: Mutex<ShardState>,
    cv: Condvar,
}

impl Shard {
    fn lock(&self) -> MutexGuard<'_, ShardState> {
        // A panic can only poison this mutex if it unwinds through the
        // short bookkeeping sections below (never through user code,
        // which runs unlocked); the state is consistent either way.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The platform-wide source-result cache. One instance per
/// [`Platform`](crate::hosting::Platform), shared by every hosted app.
pub struct SourceCache {
    config: SourceCacheConfig,
    shards: Vec<Shard>,
}

impl std::fmt::Debug for SourceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SourceCache")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SourceCache {
    /// Empty cache with the given tuning.
    pub fn new(config: SourceCacheConfig) -> SourceCache {
        let shard_capacity = (config.capacity / SHARDS).max(1);
        SourceCache {
            config,
            shards: (0..SHARDS)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        // Entries carry per-kind TTLs via put_with_ttl;
                        // the cache-wide TTL is never used.
                        cache: LruTtlCache::new(shard_capacity, u64::MAX),
                        inflight: HashMap::new(),
                        sketch: TinyLfu::new(shard_capacity),
                        counters: ShardCounters::default(),
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
        }
    }

    /// The active tuning.
    pub fn config(&self) -> SourceCacheConfig {
        self.config
    }

    /// Aggregate statistics across all shards.
    pub fn stats(&self) -> SourceCacheStats {
        let mut out = SourceCacheStats::default();
        for shard in &self.shards {
            let st = shard.lock();
            out.hits += st.counters.hits;
            out.negative_hits += st.counters.negative_hits;
            out.coalesced += st.counters.coalesced;
            out.misses += st.counters.misses;
            out.executions += st.counters.executions;
            out.admission_rejected += st.counters.admission_rejected;
            out.evictions += st.cache.stats().evictions;
            out.expired += st.cache.stats().expired;
        }
        out
    }

    /// Eagerly sweep expired entries from every shard at the given
    /// virtual time, returning how many were removed (they also count
    /// in [`SourceCacheStats::expired`]). Without this, an expired
    /// entry lingers until its key is touched again;
    /// [`Platform::maintenance_tick`](crate::hosting::Platform::maintenance_tick)
    /// calls it so cold keys are reclaimed on the maintenance cadence.
    pub fn purge_expired(&self, now_ms: u64) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.lock().cache.purge_expired(now_ms))
            .sum()
    }

    /// Drop every cached outcome (admin mutations — table uploads,
    /// transport changes — invalidate source results wholesale).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut st = shard.lock();
            st.cache.clear();
            st.sketch.reset();
        }
    }

    /// TTL for a positive outcome of this source kind (0 = uncacheable).
    fn ttl_for(&self, def: &DataSourceDef) -> u64 {
        match def {
            DataSourceDef::Proprietary { .. } | DataSourceDef::Hybrid { .. } => {
                self.config.proprietary_ttl_ms
            }
            DataSourceDef::WebVertical { .. } => self.config.web_ttl_ms,
            DataSourceDef::Service { .. } => self.config.service_ttl_ms,
            DataSourceDef::Ads { .. } | DataSourceDef::ComposedApp { .. } => 0,
        }
    }

    /// Fetch through the cache: serve a live entry, coalesce onto an
    /// in-flight execution of the same key, or run `exec` and publish
    /// the outcome. `exec` runs *without* any shard lock held.
    ///
    /// The classification is purely virtual-time: an outcome that
    /// completed at or before `sctx.now_ms` is a [`FetchStatus::Hit`]
    /// charged [`SOURCE_CACHE_HIT_MS`]; one completing after it is
    /// [`FetchStatus::Coalesced`] charged the remaining wait. Either
    /// way the charge is capped by `sctx.budget_ms` — a request whose
    /// budget cannot cover the wait degrades to a deadline cut, like
    /// any other over-budget fetch.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch(
        &self,
        def: &DataSourceDef,
        owner: Option<TenantId>,
        query: &str,
        k: usize,
        constraint: Option<&symphony_store::Filter>,
        sctx: &SourceCtx<'_>,
        exec: impl FnOnce() -> SourceOutcome,
    ) -> Fetched {
        if !self.config.enabled {
            return Fetched::uncached(exec());
        }
        let Some(fingerprint) = fingerprint(def, owner, k, constraint) else {
            return Fetched::uncached(exec());
        };
        let key = FetchKey {
            fingerprint,
            query: normalize_query(query),
        };
        let hash = key.hash64();
        let shard = &self.shards[(hash % SHARDS as u64) as usize];
        let now = sctx.now_ms;

        let mut st = shard.lock();
        st.sketch.record(hash);
        let mut registered = false;
        loop {
            // 1. A live cached entry?
            if let Some(entry) = st.cache.get(&key, now) {
                let serve = !entry.negative || self.negative_servable(def, sctx);
                if serve {
                    let entry = entry.clone();
                    let counters = &mut st.counters;
                    let fetched = classify(entry.outcome, entry.completed_at, now, sctx, counters);
                    if registered {
                        consume_waiter_slot(&mut st, &key);
                    }
                    return fetched;
                }
                // Negative entry suppressed by breaker state: fall
                // through to execute (the breaker fast-fails or probes).
            }
            // 2. An in-flight or just-finished execution?
            match st.inflight.get_mut(&key) {
                Some(Flight::Done {
                    outcome,
                    completed_at,
                    ..
                }) => {
                    let (outcome, completed_at) = (outcome.clone(), *completed_at);
                    let counters = &mut st.counters;
                    let fetched = classify(outcome, completed_at, now, sctx, counters);
                    if registered {
                        consume_waiter_slot(&mut st, &key);
                    }
                    return fetched;
                }
                Some(Flight::Running { waiters }) => {
                    if !registered {
                        *waiters += 1;
                        registered = true;
                    }
                    st = shard.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                    // A leader that panicked removed the slot; loop and
                    // retry from the top (possibly becoming the leader).
                    if !st.inflight.contains_key(&key) {
                        registered = false;
                    }
                    continue;
                }
                None => {}
            }
            break;
        }

        // 3. Leader: execute without the lock, then publish.
        st.inflight
            .insert(key.clone(), Flight::Running { waiters: 0 });
        st.counters.misses += 1;
        st.counters.executions += 1;
        drop(st);

        let mut guard = InflightGuard {
            shard,
            key: Some(&key),
        };
        let outcome = Arc::new(exec());
        guard.key = None; // completion below also clears the slot
        drop(guard);

        let completed_at = now + outcome.virtual_ms as u64;
        let negative = outcome.error.is_some();
        let mut st = shard.lock();
        match st.inflight.remove(&key) {
            Some(Flight::Running { waiters }) if waiters > 0 => {
                st.inflight.insert(
                    key.clone(),
                    Flight::Done {
                        outcome: outcome.clone(),
                        completed_at,
                        remaining: waiters,
                    },
                );
            }
            _ => {}
        }
        // Outcomes where nothing was attempted (breaker fast-fails,
        // deadline cuts) are control-plane state, ~free to recompute,
        // and would go stale the moment the breaker or budget moves:
        // never cached.
        if outcome.attempts >= 1 {
            let ttl = if negative {
                self.config.negative_ttl_ms
            } else {
                self.ttl_for(def)
            };
            if ttl > 0 {
                let entry = CachedEntry {
                    outcome: outcome.clone(),
                    completed_at,
                    negative,
                };
                admit(&mut st, key, entry, now, ttl, hash);
            }
        }
        shard.cv.notify_all();
        drop(st);

        Fetched {
            charged_ms: outcome.virtual_ms,
            attempts_charged: outcome.attempts,
            outcome,
            status: FetchStatus::Miss,
        }
    }

    /// May a negative (error) entry be served right now? Only while
    /// the endpoint's breaker is closed: an open circuit fast-fails in
    /// 0 ms (cheaper and reflects live breaker state in the trace),
    /// and a half-open circuit needs its probe to actually flow.
    fn negative_servable(&self, def: &DataSourceDef, sctx: &SourceCtx<'_>) -> bool {
        let (DataSourceDef::Service { endpoint, .. }, Some(breakers)) = (def, sctx.breakers) else {
            return true; // no breaker governs this source kind
        };
        breakers.state(endpoint, sctx.now_ms) == BreakerState::Closed
    }
}

/// Classify a served outcome by virtual time and account for it.
fn classify(
    outcome: Arc<SourceOutcome>,
    completed_at: u64,
    now: u64,
    sctx: &SourceCtx<'_>,
    counters: &mut ShardCounters,
) -> Fetched {
    let (charged_ms, status) = if completed_at > now {
        // The outcome lies in this request's future: it waits exactly
        // as long as running the fetch itself would have taken, which
        // keeps parallel fan-outs interleaving-independent.
        (
            (completed_at - now).min(u32::MAX as u64) as u32,
            FetchStatus::Coalesced,
        )
    } else {
        (SOURCE_CACHE_HIT_MS, FetchStatus::Hit)
    };
    match status {
        FetchStatus::Coalesced => counters.coalesced += 1,
        _ if outcome.error.is_some() => counters.negative_hits += 1,
        _ => counters.hits += 1,
    }
    // A served outcome still has to fit the caller's budget.
    if let Some(budget) = sctx.budget_ms {
        if charged_ms > budget {
            return Fetched {
                outcome: Arc::new(SourceOutcome {
                    items: Vec::new(),
                    virtual_ms: 0,
                    error: Some(
                        symphony_services::ServiceError::DeadlineCut { budget_ms: budget }
                            .to_string(),
                    ),
                    attempts: 0,
                }),
                charged_ms: 0,
                attempts_charged: 0,
                status,
            };
        }
    }
    Fetched {
        outcome,
        charged_ms,
        attempts_charged: 0,
        status,
    }
}

/// A woken waiter consumed (or skipped past) the flight result: drop
/// its reservation, removing the `Done` slot once everyone is through.
fn consume_waiter_slot(st: &mut ShardState, key: &FetchKey) {
    if let Some(Flight::Done { remaining, .. }) = st.inflight.get_mut(key) {
        *remaining -= 1;
        if *remaining == 0 {
            st.inflight.remove(key);
        }
    }
}

/// TinyLFU-gated insert: below capacity always admits; at capacity the
/// candidate must be estimated more popular than the LRU victim.
fn admit(st: &mut ShardState, key: FetchKey, entry: CachedEntry, now: u64, ttl: u64, hash: u64) {
    let at_capacity = st.cache.len() >= st.cache_capacity();
    if at_capacity {
        let victim_estimate = st
            .cache
            .peek_lru()
            .map(|k| st.sketch.estimate(k.hash64()))
            .unwrap_or(0);
        if st.sketch.estimate(hash) <= victim_estimate {
            st.counters.admission_rejected += 1;
            return;
        }
    }
    st.cache.put_with_ttl(key, entry, now, ttl);
}

impl ShardState {
    fn cache_capacity(&self) -> usize {
        // LruTtlCache doesn't expose capacity; mirror it through the
        // sketch, which is sized from the same number.
        self.sketch.capacity
    }
}

/// Leader cleanup on panic: unpark waiters so they can elect a new
/// leader instead of blocking forever.
struct InflightGuard<'a> {
    shard: &'a Shard,
    key: Option<&'a FetchKey>,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut st = self.shard.lock();
            st.inflight.remove(key);
            self.shard.cv.notify_all();
        }
    }
}

// ---- Fingerprints -------------------------------------------------

/// Stable fingerprint of everything besides the query that determines
/// a source outcome: the source definition (including its full
/// configuration), the owning tenant for proprietary tables, the
/// result count `k`, and any structured constraint. `None` marks the
/// source kind uncacheable: ad auctions are billing-stateful, and
/// composed apps are resolved (and cached) by the hosting layer.
fn fingerprint(
    def: &DataSourceDef,
    owner: Option<TenantId>,
    k: usize,
    constraint: Option<&symphony_store::Filter>,
) -> Option<u64> {
    let mut h = fnv1a(FNV_OFFSET, &(k as u64).to_le_bytes());
    match def {
        DataSourceDef::Proprietary { table } => {
            h = fnv1a(h, b"proprietary");
            h = fnv1a(h, &owner?.0.to_le_bytes());
            h = fnv1a(h, table.as_bytes());
            if let Some(f) = constraint {
                h = fnv1a(h, format!("{f:?}").as_bytes());
            }
        }
        DataSourceDef::Hybrid { table, filter } => {
            // Tenant-scoped like proprietary; the source's baked-in
            // predicate is part of the outcome, so it keys too.
            h = fnv1a(h, b"hybrid");
            h = fnv1a(h, &owner?.0.to_le_bytes());
            h = fnv1a(h, table.as_bytes());
            h = fnv1a(h, format!("{filter:?}").as_bytes());
            if let Some(f) = constraint {
                h = fnv1a(h, format!("{f:?}").as_bytes());
            }
        }
        DataSourceDef::WebVertical { vertical, config } => {
            h = fnv1a(h, b"web");
            h = fnv1a(h, vertical.name().as_bytes());
            h = fnv1a(h, format!("{config:?}").as_bytes());
        }
        DataSourceDef::Service {
            endpoint,
            operation,
            item_param,
            policy,
        } => {
            h = fnv1a(h, b"service");
            h = fnv1a(h, endpoint.as_bytes());
            h = fnv1a(h, operation.as_bytes());
            h = fnv1a(h, item_param.as_bytes());
            // The call policy shapes latency and retries, which are
            // part of the cached outcome.
            h = fnv1a(h, format!("{policy:?}").as_bytes());
        }
        DataSourceDef::Ads { .. } | DataSourceDef::ComposedApp { .. } => return None,
    }
    Some(h)
}

// ---- Query normalization ------------------------------------------

/// Case-fold and whitespace-fold a query in a single pass over its
/// characters, allocating only the output buffer. `"  SPACE   Shooter "`
/// and `"space shooter"` map to the same cache key at both levels.
///
/// Uses `char::to_lowercase` per character, which drops the one
/// str-level refinement (`'Σ'` at word end lowercases to `'σ'`, not
/// final `'ς'`); keys are internal-only, so folding both spellings to
/// `'σ'` is exactly what a cache wants.
pub fn normalize_query(q: &str) -> String {
    let mut out = String::with_capacity(q.len());
    let mut pending_space = false;
    for c in q.chars() {
        if c.is_whitespace() {
            pending_space = !out.is_empty();
            continue;
        }
        if pending_space {
            out.push(' ');
            pending_space = false;
        }
        for lc in c.to_lowercase() {
            out.push(lc);
        }
    }
    out
}

// ---- TinyLFU -------------------------------------------------------

/// W-TinyLFU-style frequency sketch: a doorkeeper bitset in front of a
/// 4-row count-min sketch of 4-bit counters (two per byte). A key's
/// first sighting only sets its doorkeeper bit; repeats increment the
/// sketch. Every `sample_cap` recordings all counters halve and the
/// doorkeeper clears, so popularity decays.
struct TinyLfu {
    /// Shard capacity (also the admission cache's capacity; kept here
    /// because sizing derives from it).
    capacity: usize,
    doorkeeper: Vec<u64>,
    /// 4 rows × `width` 4-bit counters, packed two per byte.
    counters: Vec<u8>,
    /// Counters per row; power of two.
    width: usize,
    samples: u32,
    sample_cap: u32,
}

/// Per-row index mixers (odd constants; splitmix-style finalization).
const ROW_SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
];

fn mix(h: u64, seed: u64) -> u64 {
    let mut x = h ^ seed;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

impl TinyLfu {
    fn new(capacity: usize) -> TinyLfu {
        let width = (capacity * 2).next_power_of_two().max(64);
        TinyLfu {
            capacity,
            doorkeeper: vec![0; width / 64],
            counters: vec![0; 4 * width / 2],
            width,
            samples: 0,
            sample_cap: (capacity as u32).saturating_mul(10).max(100),
        }
    }

    fn reset(&mut self) {
        self.doorkeeper.iter_mut().for_each(|w| *w = 0);
        self.counters.iter_mut().for_each(|c| *c = 0);
        self.samples = 0;
    }

    /// Record one access of `hash`.
    fn record(&mut self, hash: u64) {
        self.samples += 1;
        if self.samples >= self.sample_cap {
            self.halve();
        }
        let bit = (hash as usize) & (self.width - 1);
        let (word, mask) = (bit / 64, 1u64 << (bit % 64));
        if self.doorkeeper[word] & mask == 0 {
            self.doorkeeper[word] |= mask;
            return;
        }
        for (row, seed) in ROW_SEEDS.iter().enumerate() {
            let idx = (mix(hash, *seed) as usize) & (self.width - 1);
            let byte = row * self.width / 2 + idx / 2;
            let shift = (idx % 2) * 4;
            let nibble = (self.counters[byte] >> shift) & 0xF;
            if nibble < 15 {
                self.counters[byte] += 1 << shift;
            }
        }
    }

    /// Estimated popularity: the doorkeeper bit plus the count-min
    /// (minimum across rows) sketch estimate.
    fn estimate(&self, hash: u64) -> u32 {
        let bit = (hash as usize) & (self.width - 1);
        let door = u32::from(self.doorkeeper[bit / 64] & (1 << (bit % 64)) != 0);
        let mut min = u8::MAX;
        for (row, seed) in ROW_SEEDS.iter().enumerate() {
            let idx = (mix(hash, *seed) as usize) & (self.width - 1);
            let byte = row * self.width / 2 + idx / 2;
            let shift = (idx % 2) * 4;
            min = min.min((self.counters[byte] >> shift) & 0xF);
        }
        door + min as u32
    }

    /// Age the history: halve every 4-bit counter in place and clear
    /// the doorkeeper.
    fn halve(&mut self) {
        for byte in &mut self.counters {
            // Halve both packed nibbles at once: high nibble h→h/2,
            // low nibble l→l/2; the shifted-out low bit of the high
            // nibble is masked off so it can't leak into the low one.
            *byte = (*byte >> 1) & 0x77;
        }
        self.doorkeeper.iter_mut().for_each(|w| *w = 0);
        self.samples /= 2;
    }
}

// The cache sits on the platform's concurrent serving path.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SourceCache>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ResultItem;
    use symphony_web::{SearchConfig, Vertical};

    fn web_def() -> DataSourceDef {
        DataSourceDef::WebVertical {
            vertical: Vertical::Web,
            config: SearchConfig::default(),
        }
    }

    fn svc_def(endpoint: &str) -> DataSourceDef {
        DataSourceDef::Service {
            endpoint: endpoint.into(),
            operation: "/price".into(),
            item_param: "item".into(),
            policy: symphony_services::CallPolicy::default(),
        }
    }

    fn ok_outcome(ms: u32) -> SourceOutcome {
        SourceOutcome {
            items: vec![ResultItem {
                fields: vec![("title".into(), "x".into())],
                score: 1.0,
            }],
            virtual_ms: ms,
            error: None,
            attempts: 1,
        }
    }

    fn err_outcome(ms: u32) -> SourceOutcome {
        SourceOutcome {
            items: Vec::new(),
            virtual_ms: ms,
            error: Some("timed out".into()),
            attempts: 2,
        }
    }

    #[test]
    fn miss_then_hit_shares_the_outcome_allocation() {
        let cache = SourceCache::new(SourceCacheConfig::default());
        let first = cache.fetch(
            &web_def(),
            None,
            "space shooter",
            5,
            None,
            &SourceCtx::at(0),
            || ok_outcome(35),
        );
        assert_eq!(first.status, FetchStatus::Miss);
        assert_eq!(first.charged_ms, 35);
        assert_eq!(first.attempts_charged, 1);

        // Same key later: a hit, charged the flat cache cost, sharing
        // the same allocation.
        let second = cache.fetch(
            &web_def(),
            None,
            "  SPACE   Shooter ",
            5,
            None,
            &SourceCtx::at(100),
            || panic!("must not execute"),
        );
        assert_eq!(second.status, FetchStatus::Hit);
        assert_eq!(second.charged_ms, SOURCE_CACHE_HIT_MS);
        assert_eq!(second.attempts_charged, 0);
        assert!(Arc::ptr_eq(&first.outcome, &second.outcome));

        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.executions), (1, 1, 1));
    }

    #[test]
    fn same_virtual_start_reads_as_coalesced_wait() {
        // Two requests with the same virtual start: whichever runs
        // second observes an outcome completing in its future and is
        // charged the full wait — identical accounting to having run
        // the fetch itself, so thread interleaving can't show through.
        let cache = SourceCache::new(SourceCacheConfig::default());
        cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(10), || {
            ok_outcome(35)
        });
        let twin = cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(10), || {
            panic!("must not execute")
        });
        assert_eq!(twin.status, FetchStatus::Coalesced);
        assert_eq!(twin.charged_ms, 35);
        assert_eq!(cache.stats().coalesced, 1);
    }

    #[test]
    fn different_k_or_query_miss() {
        let cache = SourceCache::new(SourceCacheConfig::default());
        cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(0), || {
            ok_outcome(35)
        });
        let other_k = cache.fetch(&web_def(), None, "q", 3, None, &SourceCtx::at(50), || {
            ok_outcome(35)
        });
        assert_eq!(other_k.status, FetchStatus::Miss);
        let other_q = cache.fetch(&web_def(), None, "r", 5, None, &SourceCtx::at(100), || {
            ok_outcome(35)
        });
        assert_eq!(other_q.status, FetchStatus::Miss);
    }

    #[test]
    fn proprietary_keys_are_tenant_scoped() {
        let def = DataSourceDef::Proprietary {
            table: "inventory".into(),
        };
        let cache = SourceCache::new(SourceCacheConfig::default());
        cache.fetch(
            &def,
            Some(TenantId(1)),
            "q",
            5,
            None,
            &SourceCtx::at(0),
            || ok_outcome(5),
        );
        let other_tenant = cache.fetch(
            &def,
            Some(TenantId(2)),
            "q",
            5,
            None,
            &SourceCtx::at(10),
            || ok_outcome(5),
        );
        assert_eq!(other_tenant.status, FetchStatus::Miss);
        let same_tenant = cache.fetch(
            &def,
            Some(TenantId(1)),
            "q",
            5,
            None,
            &SourceCtx::at(10),
            || panic!("must not execute"),
        );
        assert_eq!(same_tenant.status, FetchStatus::Hit);
    }

    #[test]
    fn ads_and_disabled_cache_bypass() {
        let cache = SourceCache::new(SourceCacheConfig::default());
        let ads = DataSourceDef::Ads { slots: 2 };
        for _ in 0..2 {
            let f = cache.fetch(&ads, None, "q", 2, None, &SourceCtx::at(0), || {
                ok_outcome(12)
            });
            assert_eq!(f.status, FetchStatus::Uncached);
        }
        let off = SourceCache::new(SourceCacheConfig::disabled());
        for _ in 0..2 {
            let f = off.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(0), || {
                ok_outcome(35)
            });
            assert_eq!(f.status, FetchStatus::Uncached);
        }
        assert_eq!(off.stats(), SourceCacheStats::default());
    }

    #[test]
    fn ttl_expiry_reexecutes() {
        let config = SourceCacheConfig {
            web_ttl_ms: 100,
            ..SourceCacheConfig::default()
        };
        let cache = SourceCache::new(config);
        cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(0), || {
            ok_outcome(35)
        });
        let fresh = cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(90), || {
            panic!("inside ttl")
        });
        assert_eq!(fresh.status, FetchStatus::Hit);
        let stale = cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(101), || {
            ok_outcome(35)
        });
        assert_eq!(stale.status, FetchStatus::Miss);
        assert_eq!(cache.stats().expired, 1);
    }

    #[test]
    fn negative_entries_expire_fast_and_count_separately() {
        let cache = SourceCache::new(SourceCacheConfig::default()); // negative_ttl 500
        let miss = cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(0), || {
            err_outcome(35)
        });
        assert!(miss.outcome.error.is_some());
        // Inside the negative TTL: the error is served back.
        let served = cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(100), || {
            panic!("negative entry must serve")
        });
        assert_eq!(served.status, FetchStatus::Hit);
        assert!(served.outcome.error.is_some());
        assert_eq!(cache.stats().negative_hits, 1);
        // Past it: re-executed.
        let retried = cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(600), || {
            ok_outcome(35)
        });
        assert_eq!(retried.status, FetchStatus::Miss);
        assert!(retried.outcome.error.is_none());
    }

    #[test]
    fn negative_entry_is_bypassed_while_breaker_not_closed() {
        use symphony_services::{BreakerConfig, BreakerRegistry};
        let cache = SourceCache::new(SourceCacheConfig::default());
        let breakers = BreakerRegistry::new(BreakerConfig {
            failure_threshold: 1,
            open_ms: 1_000,
            half_open_successes: 1,
        });
        let def = svc_def("pricing");
        cache.fetch(&def, None, "q", 5, None, &SourceCtx::at(0), || {
            err_outcome(40)
        });
        breakers.record("pricing", 40, false); // trip: Open
        let ctx = SourceCtx {
            breakers: Some(&breakers),
            ..SourceCtx::at(50)
        };
        // Open breaker: the fresh negative entry is NOT served; the
        // fetch re-executes (and would fast-fail against the breaker).
        let bypassed = cache.fetch(&def, None, "q", 5, None, &ctx, || SourceOutcome {
            items: Vec::new(),
            virtual_ms: 0,
            error: Some("circuit open".into()),
            attempts: 0,
        });
        assert_eq!(bypassed.status, FetchStatus::Miss);
        assert!(bypassed.outcome.error.as_deref() == Some("circuit open"));
        // Attempts == 0 outcomes are never cached: once the breaker
        // closes again the healthy path re-executes immediately.
        breakers.reset();
        let after = cache.fetch(
            &def,
            None,
            "q",
            5,
            None,
            &SourceCtx {
                breakers: Some(&breakers),
                ..SourceCtx::at(60)
            },
            || ok_outcome(10),
        );
        // The original negative entry (still inside its TTL) serves
        // again now that the breaker is closed... unless it was
        // overwritten; either way no stale circuit-open error appears.
        assert!(after.outcome.error.as_deref() != Some("circuit open"));
    }

    #[test]
    fn over_budget_hit_degrades_to_deadline_cut() {
        let cache = SourceCache::new(SourceCacheConfig::default());
        cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(0), || {
            ok_outcome(35)
        });
        // Coalesced wait of 35 ms against a 10 ms budget: cut.
        let cut = cache.fetch(
            &web_def(),
            None,
            "q",
            5,
            None,
            &SourceCtx {
                budget_ms: Some(10),
                ..SourceCtx::at(0)
            },
            || panic!("must not execute"),
        );
        assert_eq!(cut.charged_ms, 0);
        assert_eq!(cut.attempts_charged, 0);
        assert!(cut.outcome.error.as_ref().unwrap().contains("deadline cut"));
        // A plain hit (1 ms) fits the same budget.
        let hit = cache.fetch(
            &web_def(),
            None,
            "q",
            5,
            None,
            &SourceCtx {
                budget_ms: Some(10),
                ..SourceCtx::at(100)
            },
            || panic!("must not execute"),
        );
        assert_eq!(hit.status, FetchStatus::Hit);
        assert!(hit.outcome.error.is_none());
    }

    #[test]
    fn singleflight_coalesces_concurrent_misses_to_one_execution() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = SourceCache::new(SourceCacheConfig::default());
        let executions = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = &cache;
                    let executions = &executions;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        cache.fetch(
                            &web_def(),
                            None,
                            "stampede",
                            5,
                            None,
                            &SourceCtx::at(0),
                            || {
                                executions.fetch_add(1, Ordering::SeqCst);
                                // Real dwell so the others genuinely pile up.
                                std::thread::sleep(std::time::Duration::from_millis(20));
                                ok_outcome(35)
                            },
                        )
                    })
                })
                .collect();
            let results: Vec<Fetched> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(
                executions.load(Ordering::SeqCst),
                1,
                "exactly one execution per coalesced key"
            );
            // Same virtual start ⇒ every non-leader is charged the full
            // wait; all share the leader's allocation.
            for f in &results {
                assert_eq!(f.charged_ms, 35);
                assert!(Arc::ptr_eq(&f.outcome, &results[0].outcome));
            }
            let statuses = |s: FetchStatus| results.iter().filter(|f| f.status == s).count();
            assert_eq!(statuses(FetchStatus::Miss), 1);
            assert_eq!(statuses(FetchStatus::Coalesced), 7);
        });
    }

    #[test]
    fn panicking_leader_unparks_waiters() {
        let cache = Arc::new(SourceCache::new(SourceCacheConfig::default()));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let (c2, b2) = (cache.clone(), barrier.clone());
        let waiter = std::thread::spawn(move || {
            b2.wait();
            // Arrive second (the leader dwells before panicking).
            std::thread::sleep(std::time::Duration::from_millis(5));
            c2.fetch(
                &web_def(),
                None,
                "doomed",
                5,
                None,
                &SourceCtx::at(0),
                || ok_outcome(35),
            )
        });
        barrier.wait();
        let leader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.fetch(
                &web_def(),
                None,
                "doomed",
                5,
                None,
                &SourceCtx::at(0),
                || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    panic!("leader died");
                },
            )
        }));
        assert!(leader.is_err());
        // The waiter must not deadlock: it re-elects itself leader.
        let f = waiter.join().unwrap();
        assert!(f.outcome.error.is_none());
    }

    #[test]
    fn admission_protects_hot_entries_from_one_hit_wonders() {
        // Shard capacity 1 (capacity < SHARDS): a hot key is recorded
        // many times, then a cold key on the same shard tries to evict
        // it. TinyLFU must reject the newcomer.
        let config = SourceCacheConfig {
            capacity: 1,
            ..SourceCacheConfig::default()
        };
        let cache = SourceCache::new(config);
        // Heat up "hot" with repeated fetches (first is a miss).
        for t in 0..5u64 {
            cache.fetch(
                &web_def(),
                None,
                "hot",
                5,
                None,
                &SourceCtx::at(t * 10),
                || ok_outcome(35),
            );
        }
        // Walk distinct cold keys until one lands on hot's shard; each
        // is seen once, so its estimate can't beat the hot key's.
        for i in 0..64 {
            let q = format!("cold {i}");
            cache.fetch(&web_def(), None, &q, 5, None, &SourceCtx::at(100), || {
                ok_outcome(35)
            });
        }
        assert!(cache.stats().admission_rejected > 0, "no insert rejected");
        // The hot key is still resident.
        let hot = cache.fetch(
            &web_def(),
            None,
            "hot",
            5,
            None,
            &SourceCtx::at(200),
            || panic!("hot key was evicted"),
        );
        assert_eq!(hot.status, FetchStatus::Hit);
    }

    #[test]
    fn purge_expired_sweeps_all_shards() {
        let config = SourceCacheConfig::default();
        let cache = SourceCache::new(config);
        // Populate several keys (they spread over the shards).
        for i in 0..16 {
            cache.fetch(
                &web_def(),
                None,
                &format!("query {i}"),
                5,
                None,
                &SourceCtx::at(0),
                || ok_outcome(35),
            );
        }
        // Nothing is expired yet.
        assert_eq!(cache.purge_expired(config.web_ttl_ms / 2), 0);
        // Past the web TTL everything goes, and the stats agree.
        let swept = cache.purge_expired(config.web_ttl_ms + 40);
        assert_eq!(swept, 16);
        assert_eq!(cache.stats().expired, 16);
        assert_eq!(cache.purge_expired(config.web_ttl_ms + 41), 0);
    }

    #[test]
    fn clear_invalidates_everything() {
        let cache = SourceCache::new(SourceCacheConfig::default());
        cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(0), || {
            ok_outcome(35)
        });
        cache.clear();
        let refetched = cache.fetch(&web_def(), None, "q", 5, None, &SourceCtx::at(1), || {
            ok_outcome(35)
        });
        assert_eq!(refetched.status, FetchStatus::Miss);
    }

    // ---- TinyLFU unit tests ---------------------------------------

    #[test]
    fn sketch_estimates_grow_with_recorded_frequency() {
        let mut lfu = TinyLfu::new(64);
        let (hot, cold) = (0xAAAA_u64, 0x5555_u64);
        assert_eq!(lfu.estimate(hot), 0);
        lfu.record(hot); // doorkeeper only
        assert_eq!(lfu.estimate(hot), 1);
        for _ in 0..6 {
            lfu.record(hot);
        }
        assert!(lfu.estimate(hot) >= 6);
        lfu.record(cold);
        assert!(lfu.estimate(hot) > lfu.estimate(cold));
    }

    #[test]
    fn sketch_counters_saturate_at_fifteen() {
        let mut lfu = TinyLfu::new(64);
        for _ in 0..100 {
            lfu.record(7);
        }
        assert_eq!(lfu.estimate(7), 1 + 15, "doorkeeper + saturated nibble");
    }

    #[test]
    fn halving_ages_counters_and_clears_doorkeeper() {
        let mut lfu = TinyLfu::new(64);
        for _ in 0..9 {
            lfu.record(7); // doorkeeper + 8 increments
        }
        let before = lfu.estimate(7);
        assert_eq!(before, 9);
        lfu.halve();
        // Doorkeeper bit gone (-1), counters 8 → 4.
        assert_eq!(lfu.estimate(7), 4);
        // Both packed nibble positions halve independently: exercise a
        // hash pair landing in the same byte, different nibbles.
        let mut lfu2 = TinyLfu::new(64);
        for h in [2u64, 3u64] {
            for _ in 0..7 {
                lfu2.record(h);
            }
        }
        let (a, b) = (lfu2.estimate(2), lfu2.estimate(3));
        lfu2.halve();
        assert_eq!(lfu2.estimate(2), (a - 1) / 2);
        assert_eq!(lfu2.estimate(3), (b - 1) / 2);
    }

    #[test]
    fn sample_cap_triggers_automatic_halving() {
        let mut lfu = TinyLfu::new(8); // sample_cap = max(80, 100) = 100
        for _ in 0..99 {
            lfu.record(42);
        }
        let before = lfu.estimate(42);
        lfu.record(42); // 100th sample: halve fires first
        assert!(lfu.estimate(42) < before, "automatic halving never fired");
    }

    // ---- normalize_query unit tests -------------------------------

    #[test]
    fn normalize_folds_case_and_whitespace_in_one_pass() {
        assert_eq!(normalize_query("  SPACE   Shooter "), "space shooter");
        assert_eq!(normalize_query("a\tb\nc"), "a b c");
        assert_eq!(normalize_query(""), "");
        assert_eq!(normalize_query(" \t\n "), "");
        assert_eq!(normalize_query("one"), "one");
    }

    #[test]
    fn normalize_handles_unicode() {
        // Multi-char expansions: 'İ' lowercases to "i\u{307}".
        assert_eq!(normalize_query("İstanbul"), "i\u{307}stanbul");
        // German sharp s is already lowercase; uppercase ẞ folds to it.
        assert_eq!(normalize_query("STRAẞE"), "straße");
        // Greek sigma: char-level folding maps 'Σ' to 'σ' everywhere
        // (no final-sigma rule) — both spellings share one key.
        assert_eq!(normalize_query("ΟΔΟΣ"), "οδοσ");
        assert_eq!(normalize_query("οδος"), "οδος");
        // Non-ASCII whitespace folds too.
        assert_eq!(normalize_query("a\u{00a0}b\u{2003}c"), "a b c");
        // CJK text passes through untouched.
        assert_eq!(normalize_query("東京 タワー"), "東京 タワー");
    }

    #[test]
    fn normalize_matches_the_split_join_reference() {
        // The old implementation, kept as a reference oracle.
        fn reference(q: &str) -> String {
            q.split_whitespace()
                .map(|w| w.to_lowercase())
                .collect::<Vec<_>>()
                .join(" ")
        }
        for q in [
            "Space Shooter",
            "  a  B  c  ",
            "",
            "  ",
            "MIXED case\tTABS",
            "ünïcödé STRAẞE",
            "日本語 テスト",
        ] {
            assert_eq!(normalize_query(q), reference(q), "diverged on {q:?}");
        }
    }
}
