//! Monetization: interaction telemetry, summaries, referral audits.
//!
//! Paper §II-A, "Monetization": the platform records customer
//! interactions, credits ad-click revenue automatically, and lets the
//! designer download click-traffic summaries "to serve as the basis
//! for charging or auditing referral compensation".
//!
//! Interactions are aggregated on write, one aggregate per hosted
//! app, instead of being kept as an event log. An aggregate holds
//! impression, click and ad-click counters, clicks per source, a
//! per-virtual-day `(impressions, clicks)` map, a Space-Saving sketch
//! of the most-clicked queries and a ring of the newest clicks. Its
//! size depends on the app's sources, the virtual days it served and
//! two constants, never on how much traffic it logged, and so does the
//! cost of every read.
//!
//! - **Top queries.** The sketch (Metwally et al., 2005) keeps
//!   [`TOP_QUERY_COUNTERS`] counters. While an app has at most that
//!   many distinct clicked queries its counts are exact. Beyond that,
//!   after `n` clicks every reported count is at least the query's true
//!   count and at most `n / TOP_QUERY_COUNTERS` above it, and every
//!   query clicked more than `n / TOP_QUERY_COUNTERS` times is kept.
//! - **Referral audit.** The CSV export holds the newest
//!   [`AUDIT_RING_CLICKS`] clicks in click order; the click counters
//!   still count every click.

use std::collections::{BTreeMap, VecDeque};
use symphony_services::hash::{fnv1a, FNV_OFFSET};

/// Counters in an app's Space-Saving sketch of clicked queries.
pub const TOP_QUERY_COUNTERS: usize = 64;

/// Newest clicks an app keeps for its referral-audit CSV.
pub const AUDIT_RING_CLICKS: usize = 1024;

/// Entries of [`TrafficSummary::top_queries`].
const TOP_QUERIES_REPORTED: usize = 10;

/// One virtual day of the platform clock, in ms.
const DAY_MS: u64 = 86_400_000;

/// An impression: one result shown to a customer.
#[derive(Debug, Clone, PartialEq)]
pub struct Impression {
    /// Data source that produced the result.
    pub source: String,
    /// Result link target, when the layout rendered one.
    pub url: Option<String>,
    /// Result title (first text-ish binding).
    pub title: String,
    /// Position within its result list.
    pub position: usize,
    /// Whether this was an ad placement.
    pub is_ad: bool,
    /// Ad campaign id (ads only).
    pub ad_campaign: Option<u32>,
    /// GSP price in cents (ads only).
    pub ad_price_cents: Option<u32>,
}

/// A per-application traffic summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficSummary {
    /// Application name.
    pub app: String,
    /// Total impressions.
    pub impressions: u64,
    /// Total clicks.
    pub clicks: u64,
    /// Clicks per source.
    pub clicks_by_source: BTreeMap<String, u64>,
    /// Most-clicked queries with counts, descending (count, then
    /// query, breaks ties). Counts are the per-app sketch's estimates;
    /// see the [module docs](self) for their error bound.
    pub top_queries: Vec<(String, u64)>,
    /// Ad clicks (subset of clicks).
    pub ad_clicks: u64,
    /// Queries served (filled by the hosting layer; the interaction
    /// counters alone cannot see queries that rendered zero
    /// impressions).
    pub queries: u64,
    /// Queries that served a degraded (partial) response after
    /// executing (source errors, deadline cuts). Disjoint from
    /// [`TrafficSummary::shed_queries`].
    pub degraded_queries: u64,
    /// Queries shed by admission control before any execution
    /// (answered with the cheap degraded shell).
    pub shed_queries: u64,
}

impl TrafficSummary {
    /// Overall click-through rate.
    pub fn ctr(&self) -> f64 {
        if self.impressions == 0 {
            0.0
        } else {
            self.clicks as f64 / self.impressions as f64
        }
    }

    /// Fraction of queries that served a degraded response (0.0, not
    /// NaN, when no queries were served).
    pub fn error_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.degraded_queries as f64 / self.queries as f64
        }
    }

    /// Fraction of queries shed by admission control (0.0, not NaN,
    /// when no queries were served).
    pub fn shed_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.shed_queries as f64 / self.queries as f64
        }
    }

    /// Fold `other` into `self`: counters sum, per-source and
    /// per-query click maps merge, and `top_queries` is re-ranked over
    /// the union. Because the derived rates ([`TrafficSummary::ctr`],
    /// [`TrafficSummary::error_rate`], [`TrafficSummary::shed_rate`])
    /// divide summed counters, a merged summary weights each input by
    /// its query volume — a shard serving 10× the traffic moves the
    /// folded rate 10× as much.
    pub fn merge(&mut self, other: &TrafficSummary) {
        self.impressions += other.impressions;
        self.clicks += other.clicks;
        self.ad_clicks += other.ad_clicks;
        self.queries += other.queries;
        self.degraded_queries += other.degraded_queries;
        self.shed_queries += other.shed_queries;
        for (source, n) in &other.clicks_by_source {
            *self.clicks_by_source.entry(source.clone()).or_insert(0) += n;
        }
        let mut by_query: BTreeMap<&str, u64> = BTreeMap::new();
        for (q, n) in self.top_queries.iter().chain(&other.top_queries) {
            *by_query.entry(q).or_insert(0) += n;
        }
        let mut merged: Vec<(String, u64)> = by_query
            .into_iter()
            .map(|(q, n)| (q.to_string(), n))
            .collect();
        rank(&mut merged);
        merged.truncate(TOP_QUERIES_REPORTED);
        self.top_queries = merged;
    }
}

/// Sort `(query, count)` pairs by count descending, then query.
fn rank(queries: &mut [(String, u64)]) {
    queries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
}

/// Space-Saving sketch of an app's clicked queries: at most
/// [`TOP_QUERY_COUNTERS`] counters.
#[derive(Debug, Default)]
struct TopQueries {
    counters: Vec<QueryCounter>,
}

/// One Space-Saving counter.
#[derive(Debug)]
struct QueryCounter {
    /// FNV-1a of `query`: the lookup compares it before the text.
    hash: u64,
    query: String,
    count: u64,
}

impl TopQueries {
    /// Count one click on `query`.
    fn add(&mut self, query: &str) {
        let hash = fnv1a(FNV_OFFSET, query.as_bytes());
        if let Some(c) = self
            .counters
            .iter_mut()
            .find(|c| c.hash == hash && c.query == query)
        {
            c.count += 1;
        } else if self.counters.len() < TOP_QUERY_COUNTERS {
            self.counters.push(QueryCounter {
                hash,
                query: query.to_string(),
                count: 1,
            });
        } else {
            // Replace the counter that ranks last (smallest count, then
            // greatest query); the newcomer inherits its count, which
            // bounds how far its estimate can exceed its true count.
            let last = self
                .counters
                .iter_mut()
                .min_by(|a, b| a.count.cmp(&b.count).then_with(|| b.query.cmp(&a.query)))
                .expect("a full sketch has counters");
            last.hash = hash;
            last.query.clear();
            last.query.push_str(query);
            last.count += 1;
        }
    }

    /// Every counter as `(query, count)`, ranked.
    fn ranked(&self) -> Vec<(String, u64)> {
        let mut all: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|c| (c.query.clone(), c.count))
            .collect();
        rank(&mut all);
        all
    }
}

/// One click kept for the referral audit.
#[derive(Debug, Default)]
struct AuditClick {
    at_ms: u64,
    query: String,
    source: String,
    url: Option<String>,
    is_ad: bool,
}

/// One hosted app's interaction telemetry, aggregated on write.
#[derive(Debug, Default)]
pub(crate) struct AppTraffic {
    impressions: u64,
    clicks: u64,
    ad_clicks: u64,
    clicks_by_source: BTreeMap<String, u64>,
    /// Virtual day -> (impressions, clicks).
    days: BTreeMap<u64, (u64, u64)>,
    top_queries: TopQueries,
    /// The newest [`AUDIT_RING_CLICKS`] clicks, oldest first.
    audit: VecDeque<AuditClick>,
}

impl AppTraffic {
    /// Count `n` impressions rendered at virtual time `at_ms`.
    pub(crate) fn record_impressions(&mut self, n: usize, at_ms: u64) {
        if n == 0 {
            return;
        }
        self.impressions += n as u64;
        self.days.entry(at_ms / DAY_MS).or_default().0 += n as u64;
    }

    /// Count a click on `impression`, served for `query`, at virtual
    /// time `at_ms`.
    pub(crate) fn record_click(&mut self, at_ms: u64, query: &str, impression: &Impression) {
        self.clicks += 1;
        if impression.is_ad {
            self.ad_clicks += 1;
        }
        match self.clicks_by_source.get_mut(&impression.source) {
            Some(n) => *n += 1,
            None => {
                self.clicks_by_source.insert(impression.source.clone(), 1);
            }
        }
        self.days.entry(at_ms / DAY_MS).or_default().1 += 1;
        self.top_queries.add(query);
        // A full ring recycles its oldest entry's buffers.
        let mut click = if self.audit.len() == AUDIT_RING_CLICKS {
            self.audit.pop_front().expect("a full ring has clicks")
        } else {
            AuditClick::default()
        };
        click.at_ms = at_ms;
        click.query.clear();
        click.query.push_str(query);
        click.source.clone_from(&impression.source);
        click.url.clone_from(&impression.url);
        click.is_ad = impression.is_ad;
        self.audit.push_back(click);
    }

    /// The app's traffic summary. The query counters are left at zero
    /// for the hosting layer to fill.
    pub(crate) fn summary(&self, app: &str) -> TrafficSummary {
        let mut top_queries = self.top_queries.ranked();
        top_queries.truncate(TOP_QUERIES_REPORTED);
        TrafficSummary {
            app: app.to_string(),
            impressions: self.impressions,
            clicks: self.clicks,
            clicks_by_source: self.clicks_by_source.clone(),
            top_queries,
            ad_clicks: self.ad_clicks,
            queries: 0,
            degraded_queries: 0,
            shed_queries: 0,
        }
    }

    /// Per-virtual-day traffic series: `(day index, impressions,
    /// clicks)` in day order. The platform clock starts at 0, so day
    /// indexes are relative to platform start.
    pub(crate) fn daily_series(&self) -> Vec<(u64, u64, u64)> {
        self.days.iter().map(|(&d, &(i, c))| (d, i, c)).collect()
    }

    /// The newest [`AUDIT_RING_CLICKS`] clicks as CSV, in click order,
    /// for referral auditing (the paper's "summary ... can be
    /// downloaded").
    pub(crate) fn referral_audit_csv(&self) -> String {
        let names: Vec<String> = ["at_ms", "query", "source", "url", "is_ad"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = self
            .audit
            .iter()
            .map(|c| {
                vec![
                    c.at_ms.to_string(),
                    c.query.clone(),
                    c.source.clone(),
                    c.url.clone().unwrap_or_default(),
                    c.is_ad.to_string(),
                ]
            })
            .collect();
        symphony_store::formats::csv::to_csv(&names, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum InteractionKind {
        Impression,
        Click,
    }

    /// One interaction as the former append-only event log held it.
    #[derive(Debug, Clone)]
    struct InteractionEvent {
        app: String,
        at_ms: u64,
        query: String,
        kind: InteractionKind,
        source: String,
        url: Option<String>,
        is_ad: bool,
    }

    // ---- Oracle: the former scan-based views over the whole log ----

    fn oracle_summary(events: &[InteractionEvent], app: &str) -> TrafficSummary {
        let mut impressions = 0u64;
        let mut clicks = 0u64;
        let mut ad_clicks = 0u64;
        let mut clicks_by_source: BTreeMap<String, u64> = BTreeMap::new();
        let mut query_clicks: BTreeMap<String, u64> = BTreeMap::new();
        for e in events.iter().filter(|e| e.app == app) {
            match e.kind {
                InteractionKind::Impression => impressions += 1,
                InteractionKind::Click => {
                    clicks += 1;
                    if e.is_ad {
                        ad_clicks += 1;
                    }
                    *clicks_by_source.entry(e.source.clone()).or_insert(0) += 1;
                    *query_clicks.entry(e.query.clone()).or_insert(0) += 1;
                }
            }
        }
        let mut top_queries: Vec<(String, u64)> = query_clicks.into_iter().collect();
        top_queries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top_queries.truncate(10);
        TrafficSummary {
            app: app.to_string(),
            impressions,
            clicks,
            clicks_by_source,
            top_queries,
            ad_clicks,
            queries: 0,
            degraded_queries: 0,
            shed_queries: 0,
        }
    }

    fn oracle_query_clicks(events: &[InteractionEvent], app: &str) -> BTreeMap<String, u64> {
        let mut query_clicks: BTreeMap<String, u64> = BTreeMap::new();
        for e in events
            .iter()
            .filter(|e| e.app == app && e.kind == InteractionKind::Click)
        {
            *query_clicks.entry(e.query.clone()).or_insert(0) += 1;
        }
        query_clicks
    }

    fn oracle_daily_series(events: &[InteractionEvent], app: &str) -> Vec<(u64, u64, u64)> {
        let mut days: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for e in events.iter().filter(|e| e.app == app) {
            let day = e.at_ms / 86_400_000;
            let entry = days.entry(day).or_insert((0, 0));
            match e.kind {
                InteractionKind::Impression => entry.0 += 1,
                InteractionKind::Click => entry.1 += 1,
            }
        }
        days.into_iter().map(|(d, (i, c))| (d, i, c)).collect()
    }

    fn oracle_audit_csv(events: &[InteractionEvent], app: &str) -> String {
        let names: Vec<String> = ["at_ms", "query", "source", "url", "is_ad"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let rows: Vec<Vec<String>> = events
            .iter()
            .filter(|e| e.app == app && e.kind == InteractionKind::Click)
            .map(|e| {
                vec![
                    e.at_ms.to_string(),
                    e.query.clone(),
                    e.source.clone(),
                    e.url.clone().unwrap_or_default(),
                    e.is_ad.to_string(),
                ]
            })
            .collect();
        symphony_store::formats::csv::to_csv(&names, &rows)
    }

    /// Aggregate `app`'s events on write, as the platform does.
    fn aggregate(events: &[InteractionEvent], app: &str) -> AppTraffic {
        let mut traffic = AppTraffic::default();
        for e in events.iter().filter(|e| e.app == app) {
            match e.kind {
                InteractionKind::Impression => traffic.record_impressions(1, e.at_ms),
                InteractionKind::Click => traffic.record_click(
                    e.at_ms,
                    &e.query,
                    &Impression {
                        source: e.source.clone(),
                        url: e.url.clone(),
                        title: String::new(),
                        position: 0,
                        is_ad: e.is_ad,
                        ad_campaign: None,
                        ad_price_cents: None,
                    },
                ),
            }
        }
        traffic
    }

    fn event(
        app: &str,
        kind: InteractionKind,
        source: &str,
        query: &str,
        is_ad: bool,
    ) -> InteractionEvent {
        InteractionEvent {
            app: app.into(),
            at_ms: 1000,
            query: query.into(),
            kind,
            source: source.into(),
            url: Some(format!("http://x/{query}")),
            is_ad,
        }
    }

    fn log() -> Vec<InteractionEvent> {
        let mut l = Vec::new();
        for _ in 0..10 {
            l.push(event(
                "GamerQueen",
                InteractionKind::Impression,
                "inventory",
                "space",
                false,
            ));
        }
        l.push(event(
            "GamerQueen",
            InteractionKind::Click,
            "inventory",
            "space",
            false,
        ));
        l.push(event(
            "GamerQueen",
            InteractionKind::Click,
            "reviews",
            "space",
            false,
        ));
        l.push(event(
            "GamerQueen",
            InteractionKind::Click,
            "ads",
            "space",
            true,
        ));
        l.push(event(
            "GamerQueen",
            InteractionKind::Click,
            "inventory",
            "farm",
            false,
        ));
        l.push(event(
            "Other",
            InteractionKind::Click,
            "inventory",
            "space",
            false,
        ));
        l
    }

    #[test]
    fn summary_counts_per_app() {
        let s = aggregate(&log(), "GamerQueen").summary("GamerQueen");
        assert_eq!(s.impressions, 10);
        assert_eq!(s.clicks, 4);
        assert_eq!(s.ad_clicks, 1);
        assert_eq!(s.clicks_by_source["inventory"], 2);
        assert_eq!(s.clicks_by_source["ads"], 1);
        assert!((s.ctr() - 0.4).abs() < 1e-9);
        assert_eq!(s, oracle_summary(&log(), "GamerQueen"));
    }

    #[test]
    fn top_queries_ordered() {
        let s = aggregate(&log(), "GamerQueen").summary("GamerQueen");
        assert_eq!(s.top_queries[0].0, "space");
        assert_eq!(s.top_queries[0].1, 3);
    }

    #[test]
    fn other_apps_isolated() {
        let s = aggregate(&log(), "Other").summary("Other");
        assert_eq!(s.clicks, 1);
        assert_eq!(s.impressions, 0);
    }

    #[test]
    fn empty_summary() {
        let s = AppTraffic::default().summary("X");
        assert_eq!(s.ctr(), 0.0);
        assert!(s.top_queries.is_empty());
        // Rates are defined (0.0, not NaN) with zero queries.
        assert_eq!(s.error_rate(), 0.0);
        assert_eq!(s.shed_rate(), 0.0);
    }

    #[test]
    fn shed_and_error_rates_are_disjoint_fractions() {
        let mut s = AppTraffic::default().summary("X");
        s.queries = 10;
        s.degraded_queries = 2;
        s.shed_queries = 3;
        assert!((s.error_rate() - 0.2).abs() < 1e-12);
        assert!((s.shed_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn daily_series_buckets_by_virtual_day() {
        let mut l = Vec::new();
        let mut e = event("A", InteractionKind::Impression, "s", "q", false);
        e.at_ms = 10; // day 0
        l.push(e.clone());
        e.kind = InteractionKind::Click;
        l.push(e.clone());
        e.at_ms = 86_400_000 + 5; // day 1
        l.push(e);
        assert_eq!(
            aggregate(&l, "A").daily_series(),
            vec![(0, 1, 1), (1, 0, 1)]
        );
        assert!(aggregate(&l, "B").daily_series().is_empty());
    }

    #[test]
    fn audit_csv_contains_clicks_only() {
        let csv = aggregate(&log(), "GamerQueen").referral_audit_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "at_ms,query,source,url,is_ad");
        assert_eq!(lines.len(), 1 + 4);
        assert!(lines[1].contains("space"));
        assert!(csv.contains("true"), "ad click flagged");
    }

    #[test]
    fn audit_ring_keeps_the_newest_clicks_in_click_order() {
        let total = AUDIT_RING_CLICKS + 10;
        let mut l = Vec::new();
        for i in 0..total {
            let mut e = event("A", InteractionKind::Click, "s", &format!("q{i}"), false);
            e.at_ms = i as u64;
            l.push(e);
        }
        let traffic = aggregate(&l, "A");
        assert_eq!(traffic.summary("A").clicks, total as u64);
        assert_eq!(
            traffic.referral_audit_csv(),
            oracle_audit_csv(&l[total - AUDIT_RING_CLICKS..], "A")
        );
        let csv = traffic.referral_audit_csv();
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), AUDIT_RING_CLICKS);
        assert!(rows[0].starts_with("10,q10,"));
        assert!(rows[AUDIT_RING_CLICKS - 1].starts_with(&format!("{},", total - 1)));
    }

    #[test]
    fn full_sketch_replaces_the_last_ranked_query() {
        let mut sketch = TopQueries::default();
        for i in 0..TOP_QUERY_COUNTERS {
            sketch.add(&format!("q{i:02}"));
        }
        sketch.add("q00");
        // All others tie at 1: the greatest query, "q63", ranks last
        // and its counter passes to the newcomer, count 1 + 1.
        sketch.add("new");
        let ranked = sketch.ranked();
        assert_eq!(ranked.len(), TOP_QUERY_COUNTERS);
        assert_eq!(ranked[0], ("new".to_string(), 2));
        assert_eq!(ranked[1], ("q00".to_string(), 2));
        assert!(ranked.iter().all(|(q, _)| q != "q63"));
    }

    const APPS: [&str; 3] = ["A", "B", "C"];
    const SOURCES: [&str; 4] = ["inventory", "reviews", "web", "ads"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Aggregation on write reproduces the scan-based views: every
        /// counter and the daily series exactly; the top queries
        /// exactly while an app has at most `TOP_QUERY_COUNTERS`
        /// distinct clicked queries, and within the Space-Saving error
        /// bound beyond that.
        #[test]
        fn aggregate_matches_the_scan_oracle(
            universe in 1usize..300,
            stream in prop::collection::vec(
                ((0usize..3, 0usize..4, 0usize..300, 0usize..300), (0u8..4, any::<bool>(), 0u64..4, 0u64..1000)),
                0..600,
            ),
        ) {
            let events: Vec<InteractionEvent> = stream
                .iter()
                .map(|&((app, source, qa, qb), (kind, is_ad, day, ms))| InteractionEvent {
                    app: APPS[app].to_string(),
                    at_ms: day * 86_400_000 + ms,
                    query: format!("q{}", qa.min(qb) % universe),
                    kind: if kind == 0 {
                        InteractionKind::Impression
                    } else {
                        InteractionKind::Click
                    },
                    source: SOURCES[source].to_string(),
                    url: (source != 2).then(|| format!("http://x/{qa}")),
                    is_ad,
                })
                .collect();
            for app in APPS {
                let traffic = aggregate(&events, app);
                let got = traffic.summary(app);
                let want = oracle_summary(&events, app);
                prop_assert_eq!(got.impressions, want.impressions);
                prop_assert_eq!(got.clicks, want.clicks);
                prop_assert_eq!(got.ad_clicks, want.ad_clicks);
                prop_assert_eq!(&got.clicks_by_source, &want.clicks_by_source);
                prop_assert_eq!(traffic.daily_series(), oracle_daily_series(&events, app));
                prop_assert_eq!(traffic.referral_audit_csv(), oracle_audit_csv(&events, app));

                let truth = oracle_query_clicks(&events, app);
                let ranked = traffic.top_queries.ranked();
                prop_assert_eq!(&got.top_queries[..], &ranked[..ranked.len().min(TOP_QUERIES_REPORTED)]);
                if truth.len() <= TOP_QUERY_COUNTERS {
                    prop_assert_eq!(&got.top_queries, &want.top_queries);
                } else {
                    let n = got.clicks;
                    for (q, c) in &ranked {
                        let t = truth[q];
                        prop_assert!(t <= *c && (c - t) * TOP_QUERY_COUNTERS as u64 <= n,
                            "{q}: estimate {c}, true {t}, {n} clicks");
                    }
                    for (q, &t) in &truth {
                        if t * TOP_QUERY_COUNTERS as u64 > n {
                            prop_assert!(ranked.iter().any(|(r, _)| r == q),
                                "{q} clicked {t} of {n} times is missing");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn merge_sums_counters_and_reranks_top_queries() {
        let mut a = TrafficSummary {
            app: "GamerQueen".into(),
            impressions: 100,
            clicks: 10,
            clicks_by_source: [("inventory".to_string(), 6), ("web".to_string(), 4)]
                .into_iter()
                .collect(),
            top_queries: vec![("space".into(), 7), ("farm".into(), 3)],
            ad_clicks: 2,
            queries: 50,
            degraded_queries: 5,
            shed_queries: 10,
        };
        let b = TrafficSummary {
            app: "GamerQueen".into(),
            impressions: 300,
            clicks: 30,
            clicks_by_source: [("web".to_string(), 20), ("ads".to_string(), 10)]
                .into_iter()
                .collect(),
            top_queries: vec![("farm".into(), 25), ("space".into(), 5)],
            ad_clicks: 8,
            queries: 150,
            degraded_queries: 0,
            shed_queries: 0,
        };
        a.merge(&b);
        assert_eq!(a.impressions, 400);
        assert_eq!(a.clicks, 40);
        assert_eq!(a.ad_clicks, 10);
        assert_eq!(a.queries, 200);
        assert_eq!(a.degraded_queries, 5);
        assert_eq!(a.shed_queries, 10);
        assert_eq!(a.clicks_by_source["web"], 24);
        assert_eq!(a.clicks_by_source["inventory"], 6);
        assert_eq!(a.clicks_by_source["ads"], 10);
        // "farm" overtakes "space" once both shards are folded in.
        assert_eq!(
            a.top_queries,
            vec![("farm".to_string(), 28), ("space".to_string(), 12)]
        );
    }

    #[test]
    fn merged_rates_are_weighted_by_query_volume() {
        // Shard A: 10 queries, all shed. Shard B: 90 queries, none
        // shed. The folded shed rate must be 10%, not the 50% a naive
        // average of per-shard rates would give.
        let mut a = TrafficSummary {
            queries: 10,
            shed_queries: 10,
            degraded_queries: 0,
            ..Default::default()
        };
        let b = TrafficSummary {
            queries: 90,
            shed_queries: 0,
            degraded_queries: 9,
            ..Default::default()
        };
        assert_eq!(a.shed_rate(), 1.0);
        a.merge(&b);
        assert!((a.shed_rate() - 0.1).abs() < 1e-12);
        assert!((a.error_rate() - 0.09).abs() < 1e-12);
    }
}
