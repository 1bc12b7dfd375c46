//! Run loops shared by the workloads: the timed closed loop, the
//! fixed-length runs the traced mode compares, and the observer that
//! times and accounts each end-to-end call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use symphony_core::{CacheStats, PlatformError, QueryResponse, SourceCacheStats};

use crate::layers::{self, LayerCounts, ReplayCtx};
use crate::spans::{self, Tracer};
use crate::stats::{self, Digest, Metric, Served, Tally};
use crate::worlds::mix;

/// World builds per untraced run; `setup_s` is the median of their CPU
/// times.
pub const SETUPS: usize = 5;

/// How far an interleaving-dependent counter may differ between the
/// untraced and the traced pass, as a share of its population (L2
/// lookups, or queries). Observed: at most 0.15 %.
pub const L2_TOLERANCE: f64 = 0.02;

/// Every n-th executed query is kept for the output checks.
pub const SAMPLE_EVERY: u64 = 25;

/// Counters the program keeps, read after a run. The traced run must
/// read exactly what the untraced run of the same seed read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// L1 response-cache statistics, per app.
    pub l1: Vec<CacheStats>,
    /// L2 source-cache statistics, summed over platforms.
    pub l2: SourceCacheStats,
    /// Fan-out worker permits granted to the apps' tenants.
    pub granted: u64,
    /// Per app: queries, degraded, shed, impressions, clicks, ad clicks.
    pub traffic: Vec<[u64; 6]>,
    /// Billed clicks in the ad ledger.
    pub billed: u64,
    /// Order-independent digest of every query's trace fields and
    /// result ids.
    pub digest: u64,
    /// End-to-end accounting.
    pub tally: Tally,
}

impl Counters {
    /// L1 totals over apps.
    pub fn l1_total(&self) -> CacheStats {
        let mut t = CacheStats::default();
        for s in &self.l1 {
            t.merge(s);
        }
        t
    }
}

/// Traffic summary fields the counters compare.
pub fn traffic_fields(s: &symphony_core::TrafficSummary) -> [u64; 6] {
    [
        s.queries,
        s.degraded_queries,
        s.shed_queries,
        s.impressions,
        s.clicks,
        s.ad_clicks,
    ]
}

/// One kept response, for the output checks.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Operation number.
    pub op: u64,
    /// Query text.
    pub query: String,
    /// Which app (workload-specific index).
    pub app: usize,
    /// The response.
    pub resp: Arc<QueryResponse>,
}

/// Times and accounts the end-to-end calls of one client.
#[derive(Debug, Default)]
pub struct Observer {
    /// Spans, in the traced run (after warm-up).
    pub tracer: Option<Tracer>,
    /// Replay counts, in the traced run.
    pub counts: LayerCounts,
    /// Record latencies (the timed or compared phase).
    pub timed: bool,
    /// Wall ns of every end-to-end query call while `timed`.
    pub query_ns: Vec<u64>,
    /// Completion time of each of those calls, ns since `phase_start`.
    pub done_ns: Vec<u64>,
    /// Start of the timed phase.
    pub phase_start: Option<Instant>,
    /// Wall ns of executed (L1 miss, admitted) calls while `timed`.
    pub miss_ns: Vec<u64>,
    /// Wall ns of dashboard refreshes while `timed`.
    pub dashboard_ns: Vec<u64>,
    /// `Platform::click` calls that returned `Err` other than a refusal
    /// to bill; any fails the run.
    pub click_errors: u64,
    /// Ad clicks the ad server refused to bill: the campaign's budget
    /// was spent after the page was cached.
    pub budget_refusals: u64,
    /// End-to-end accounting while `timed`.
    pub tally: Tally,
    /// Digest over every call observed.
    pub digest: u64,
    /// Executed queries, over every call observed.
    pub executed: u64,
    /// Supplemental fan-out tasks of executed queries, from their traces.
    pub fanout_tasks: u64,
    /// HTML bytes of executed responses.
    pub html_bytes: u64,
    /// Kept responses.
    pub samples: Vec<Sample>,
    /// Workload-specific per-layer samples, averaged.
    pub layer_samples: BTreeMap<&'static str, Vec<f64>>,
    /// Workload-specific per-layer counts.
    pub layer_counts: BTreeMap<&'static str, u64>,
    /// When set, the digest covers only this source's impressions and
    /// leaves the degraded flag out (see [`Workload::L2_INTERLEAVED`]).
    pub digest_source: Option<&'static str>,
}

/// Whether a response was executed: served past L1 and admission.
pub fn executed(resp: &QueryResponse) -> bool {
    !resp.trace.cache_hit && !resp.trace.shed
}

impl Observer {
    /// An observer for the timed or compared phase.
    pub fn timed() -> Observer {
        Observer {
            timed: true,
            ..Observer::default()
        }
    }

    /// True in the traced run.
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Make one end-to-end query call for operation `op`.
    pub fn query(
        &mut self,
        op: u64,
        app: usize,
        query: &str,
        call: impl FnOnce() -> Result<Arc<QueryResponse>, PlatformError>,
    ) -> Option<Arc<QueryResponse>> {
        let start = self.tracer.as_ref().map(|t| t.now_ns());
        let t0 = Instant::now();
        let result = call();
        let ns = t0.elapsed().as_nanos() as u64;
        let mut d = Digest::default();
        d.bytes(&op.to_le_bytes());
        let served = match &result {
            Err(e) => {
                d.str(&e.to_string());
                Served::Error
            }
            Ok(resp) => {
                d.flag(resp.trace.cache_hit);
                d.flag(resp.trace.shed);
                if self.digest_source.is_none() {
                    d.flag(resp.trace.degraded);
                }
                let source = self.digest_source;
                for imp in resp
                    .impressions
                    .iter()
                    .filter(|i| source.is_none_or(|s| i.source == s))
                {
                    d.str(&imp.source);
                    d.str(&imp.title);
                    d.str(imp.url.as_deref().unwrap_or(""));
                }
                if resp.trace.shed {
                    Served::Shed
                } else if resp.trace.degraded {
                    Served::Degraded
                } else {
                    Served::Ok
                }
            }
        };
        self.digest = self.digest.wrapping_add(mix(d.0, 0));
        let resp = result.ok();
        let ran = resp.as_deref().is_some_and(executed);
        if self.timed {
            self.tally.record(served);
            self.query_ns.push(ns);
            if let Some(p) = self.phase_start {
                self.done_ns.push(p.elapsed().as_nanos() as u64);
            }
            if ran {
                self.miss_ns.push(ns);
            }
        }
        if let Some(r) = resp.as_deref().filter(|r| executed(r)) {
            self.executed += 1;
            self.html_bytes += r.html.len() as u64;
            self.fanout_tasks += r
                .trace
                .find("supplemental fan-out")
                .map_or(0, |n| n.children.len() as u64);
            if self.executed.is_multiple_of(SAMPLE_EVERY) {
                self.samples.push(Sample {
                    op,
                    query: query.to_string(),
                    app,
                    resp: Arc::clone(resp.as_ref().expect("executed implies a response")),
                });
            }
        }
        if let (Some(t), Some(s)) = (self.tracer.as_mut(), start) {
            let name = match served {
                Served::Error => "hosting.error",
                Served::Shed => "hosting.shed",
                _ if !ran => "hosting.hit",
                _ => "hosting.miss",
            };
            t.push(name, s, s + ns, None, op);
        }
        resp
    }

    /// Time a non-query call (click, dashboard) as span `name`.
    pub fn call<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer.as_mut() {
            Some(t) => t.time(name, None, op, f).0,
            None => {
                let t0 = Instant::now();
                let out = f();
                if self.timed && name == "hosting.dashboard" {
                    self.dashboard_ns.push(t0.elapsed().as_nanos() as u64);
                }
                out
            }
        }
    }

    /// Replay an executed query into the lower layers (traced run only).
    pub fn replay(
        &mut self,
        op: u64,
        now_ms: u64,
        query: &str,
        ctx: &ReplayCtx<'_>,
        resp: &QueryResponse,
    ) {
        if let Some(t) = self.tracer.as_mut() {
            let served = (!resp.trace.degraded).then_some(resp.html.as_str());
            layers::replay(t, op, now_ms, query, ctx, served, &mut self.counts);
        }
    }

    /// Keep a workload-specific per-layer sample.
    pub fn layer_sample(&mut self, name: &'static str, v: f64) {
        self.layer_samples.entry(name).or_default().push(v);
    }

    /// Bump a workload-specific per-layer count.
    pub fn layer_count(&mut self, name: &'static str, n: u64) {
        *self.layer_counts.entry(name).or_default() += n;
    }

    /// Fold another client's observations in.
    pub fn merge(&mut self, o: Observer) {
        self.tracer = match (self.tracer.take(), o.tracer) {
            (Some(mut a), Some(b)) => {
                a.adopt(b, None);
                Some(a)
            }
            (a, b) => a.or(b),
        };
        self.counts.merge(&o.counts);
        self.query_ns.extend(o.query_ns);
        self.done_ns.extend(o.done_ns);
        self.miss_ns.extend(o.miss_ns);
        self.dashboard_ns.extend(o.dashboard_ns);
        self.click_errors += o.click_errors;
        self.budget_refusals += o.budget_refusals;
        self.tally.merge(&o.tally);
        self.digest = self.digest.wrapping_add(o.digest);
        self.executed += o.executed;
        self.fanout_tasks += o.fanout_tasks;
        self.html_bytes += o.html_bytes;
        self.samples.extend(o.samples);
        for (k, v) in o.layer_samples {
            self.layer_samples.entry(k).or_default().extend(v);
        }
        for (k, v) in o.layer_counts {
            *self.layer_counts.entry(k).or_default() += v;
        }
    }
}

/// One workload: how to build its world, run one operation, read the
/// program's counters and check its outputs.
pub trait Workload: Sync {
    /// The world a build produces.
    type World: Send + Sync;
    /// Closed-loop client threads.
    const CLIENTS: usize = 1;
    /// Operations run after each build and before timing: they let the
    /// caches fill and their digest is compared across builds.
    const WARMUP_OPS: u64;
    /// Operations the traced mode runs, once untraced and once traced.
    const TRACE_OPS: u64;
    /// Timed operations `peak_heap_mb` covers. The peak is read once
    /// these have run, so that it covers the same work however fast the
    /// host runs: what an interaction log or a re-upload holds depends
    /// on how many operations a run gets through. Small enough to run
    /// in a third of the timed phase.
    const HEAP_OPS: u64;
    /// Set, to the primary source, when the L2 source cache runs at
    /// capacity under a parallel fan-out. Which of a page's concurrent
    /// inserts it keeps then depends on thread interleaving, and so do
    /// its hit counts, the virtual clock and the service failures drawn
    /// from it. Such a workload compares those counters within
    /// [`L2_TOLERANCE`] and digests only its primary source's results.
    const L2_INTERLEAVED: Option<&'static str> = None;

    /// Build the world (what `setup_s` times).
    fn build(&self) -> Self::World;
    /// Run operation `op` on an exclusively held world.
    fn op(&self, w: &mut Self::World, op: u64, obs: &mut Observer);
    /// Run operation `op` on a shared world (multi-client workloads).
    fn op_shared(&self, _w: &Self::World, _op: u64, _obs: &mut Observer) {
        unreachable!("single-client workload")
    }
    /// Read the program's counters.
    fn counters(&self, w: &Self::World) -> Counters;
    /// Check kept outputs against reference computations.
    fn check(&self, w: &Self::World, samples: &[Sample]) -> Result<(), String>;
    /// Workload-specific human-readable lines.
    fn describe(&self, _w: &Self::World) -> Vec<String> {
        Vec::new()
    }
}

/// Run operations `from..to` with `Self::CLIENTS` clients, stopping
/// early at `deadline`.
fn run_ops<W: Workload>(
    wl: &W,
    w: &mut W::World,
    from: u64,
    to: u64,
    deadline: Option<Instant>,
    obs: &mut Observer,
) {
    let expired = |d: Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
    if W::CLIENTS == 1 {
        for op in from..to {
            if expired(deadline) {
                break;
            }
            wl.op(w, op, obs);
        }
        return;
    }
    let next = AtomicU64::new(from);
    let shared: &W::World = w;
    let origin = obs.tracer.as_ref().map(|t| t.origin());
    let observers: Vec<Observer> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..W::CLIENTS)
            .map(|_| {
                let next = &next;
                let timed = obs.timed;
                let digest_source = obs.digest_source;
                let phase_start = obs.phase_start;
                s.spawn(move || {
                    let mut o = Observer {
                        timed,
                        digest_source,
                        phase_start,
                        tracer: origin.map(Tracer::new),
                        ..Observer::default()
                    };
                    loop {
                        if expired(deadline) {
                            break;
                        }
                        let op = next.fetch_add(1, Ordering::Relaxed);
                        if op >= to {
                            break;
                        }
                        wl.op_shared(shared, op, &mut o);
                    }
                    o
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    for o in observers {
        obs.merge(o);
    }
}

/// Warm up a fresh world: the first `WARMUP_OPS` operations, by one
/// client so their digest is reproducible.
fn warm<W: Workload>(wl: &W, w: &mut W::World) -> Observer {
    let mut obs = Observer {
        digest_source: W::L2_INTERLEAVED,
        ..Observer::default()
    };
    for op in 0..W::WARMUP_OPS {
        if W::CLIENTS == 1 {
            wl.op(w, op, &mut obs);
        } else {
            wl.op_shared(w, op, &mut obs);
        }
    }
    obs
}

/// Outcome of one benchmark run.
pub struct Outcome {
    /// Outputs checked and consistent.
    pub correct: bool,
    /// Calls attempted in the measured phase.
    pub attempted: u64,
    /// Calls failed (errors and refusals) in the measured phase.
    pub failed: u64,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
}

/// Every click the workload delivered was accepted.
fn clicks_accepted(obs: &Observer) -> Result<(), String> {
    match obs.click_errors {
        0 => Ok(()),
        n => Err(format!("{n} Platform::click calls returned Err")),
    }
}

fn report_check(what: &str, result: Result<(), String>, ok: &mut bool) {
    match result {
        Ok(()) => println!("check {what}: ok"),
        Err(e) => {
            println!("check {what}: FAILED: {e}");
            *ok = false;
        }
    }
}

/// The untraced run: `SETUPS` timed builds (the first and the last
/// warmed up, their digests compared), then the closed loop for
/// `seconds` on the last world.
pub fn untraced<W: Workload>(wl: &W, seconds: u64) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut setup_cpu_s = Vec::new();
    let mut digests = Vec::new();
    let mut world = None;
    let mut warm_click_errors = 0;
    for i in 0..SETUPS {
        drop(world.take());
        let c0 = stats::cpu_ns()?;
        let t0 = Instant::now();
        let mut w = wl.build();
        setup_s.push(t0.elapsed().as_secs_f64());
        let c1 = stats::cpu_ns()?;
        setup_cpu_s.push((c1.0 + c1.1 - c0.0 - c0.1) as f64 / 1e9);
        // The first build's warm-up digest is compared with the last's,
        // which the timed phase then continues; the builds between are
        // only timed.
        if i == 0 || i == SETUPS - 1 {
            let warmed = warm(wl, &mut w);
            digests.push(warmed.digest);
            warm_click_errors += warmed.click_errors;
        }
        world = Some(w);
    }
    let mut w = world.expect("at least one build");
    let mut obs = Observer {
        digest_source: W::L2_INTERLEAVED,
        click_errors: warm_click_errors,
        ..Observer::timed()
    };
    let cpu0 = stats::cpu_ns()?;
    let start = Instant::now();
    obs.phase_start = Some(start);
    let deadline = start + Duration::from_secs(seconds);
    let heap_end = W::WARMUP_OPS + W::HEAP_OPS;
    run_ops(
        wl,
        &mut w,
        W::WARMUP_OPS,
        heap_end,
        Some(deadline),
        &mut obs,
    );
    let heap_mb = crate::heap::peak_mb();
    let heap_covered = obs.tally.attempted;
    run_ops(wl, &mut w, heap_end, u64::MAX, Some(deadline), &mut obs);
    let elapsed = start.elapsed().as_secs_f64();
    let cpu1 = stats::cpu_ns()?;
    let rss = stats::peak_rss_mb()?;
    let lat = stats::latency(&obs.query_ns)
        .ok_or_else(|| format!("only {} queries completed", obs.query_ns.len()))?;

    let mut ok = true;
    report_check(
        "digest repeats across builds",
        if digests.windows(2).all(|d| d[0] == d[1]) {
            Ok(())
        } else {
            Err(format!("warm-up digests differ: {digests:x?}"))
        },
        &mut ok,
    );
    report_check(
        &format!("outputs ({} kept responses)", obs.samples.len()),
        wl.check(&w, &obs.samples),
        &mut ok,
    );
    report_check("clicks accepted", clicks_accepted(&obs), &mut ok);
    let t = obs.tally;
    let win = stats::windowed(&obs.done_ns, &obs.query_ns, elapsed)
        .ok_or("no one-second window of the timed phase holds enough calls")?;
    let (qps, p50_us, p90_us) = (win.rate, win.p50_ns / 1000.0, win.p90_ns / 1000.0);
    println!(
        "timed phase: {:.3} s, {} queries, {} executed, {} clients",
        elapsed,
        t.attempted,
        obs.executed,
        W::CLIENTS
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "setup builds: cpu s {}; wall s {}",
        list(&setup_cpu_s),
        list(&setup_s)
    );
    for line in wl.describe(&w) {
        println!("{line}");
    }
    let setup = stats::median(&setup_cpu_s);
    let calls = obs.query_ns.len() as f64;
    let user_us = (cpu1.0 - cpu0.0) as f64 / 1000.0 / calls;
    let sys_us = (cpu1.1 - cpu0.1) as f64 / 1000.0 / calls;
    let cpu_us = user_us + sys_us;
    println!("end-to-end metrics (declared):");
    println!(
        "  setup_s        {setup:>12.4} s    (CPU of one build; wall {:.4} s)",
        stats::median(&setup_s)
    );
    println!(
        "  cpu_us         {cpu_us:>12.1} us   (per call: user {user_us:.1}, system {sys_us:.1})"
    );
    println!(
        "  peak_heap_mb   {heap_mb:>12.3} MiB  (set-up, warm-up and {heap_covered} of {} timed operations{})",
        W::HEAP_OPS,
        if heap_covered < W::HEAP_OPS {
            "; the timed phase ended first"
        } else {
            ""
        }
    );
    println!("wall-clock figures (printed, not declared):");
    println!("  qps            {qps:>12.1} 1/s");
    println!(
        "  p50_us         {p50_us:>12.1} us   (whole phase {:.1})",
        lat.p50_us
    );
    println!("  p90_us         {p90_us:>12.1} us");
    println!(
        "  p99_us         {:>12.1} us   (whole phase: p{:.2} of {} samples)",
        lat.tail_us,
        lat.tail_pct * 100.0,
        lat.samples
    );
    println!("  fail_rate      {:>12.6} ratio", t.fail_rate());
    println!("  degraded_rate  {:>12.6} ratio", t.degraded_rate());
    println!("  peak RSS       {rss:>12.1} MiB  (of the whole process)");
    if obs.budget_refusals > 0 {
        println!(
            "  ad clicks refused for a spent budget: {}",
            obs.budget_refusals
        );
    }
    if !obs.dashboard_ns.is_empty() {
        let d: Vec<f64> = obs
            .dashboard_ns
            .iter()
            .map(|&n| n as f64 / 1000.0)
            .collect();
        println!(
            "  dashboard_us   {:>12.1} us   ({} refreshes)",
            stats::median(&d),
            d.len()
        );
    }
    Ok(Outcome {
        correct: ok,
        attempted: t.attempted,
        failed: t.failed(),
        metrics: vec![
            Metric::new("setup_s", "s", setup),
            Metric::new("cpu_us", "us", cpu_us),
            Metric::new("peak_heap_mb", "MiB", heap_mb),
        ],
    })
}

/// Compare the counters of the untraced and the traced run: exactly,
/// or — when the L2 cache's contents depend on thread interleaving —
/// exactly for everything upstream of the L2 and within
/// [`L2_TOLERANCE`] for the L2 counters and the degraded counts.
fn compare_counters(a: &Counters, b: &Counters, interleaved: bool) -> Result<(), String> {
    if !interleaved {
        return if a == b {
            Ok(())
        } else {
            Err(format!("untraced {a:?}\n  traced   {b:?}"))
        };
    }
    let exact = |c: &Counters| {
        (
            c.l1.clone(),
            c.granted,
            c.traffic.iter().map(|f| (f[0], f[2])).collect::<Vec<_>>(),
            c.billed,
            c.digest,
            (c.tally.attempted, c.tally.errors, c.tally.shed),
        )
    };
    if exact(a) != exact(b) {
        return Err(format!("untraced {a:?}\n  traced   {b:?}"));
    }
    // Each difference is measured against the population it comes
    // from: L2 counters against the L2 lookups, degraded answers
    // against the queries.
    let lookups = (a.l2.hits + a.l2.coalesced + a.l2.misses) as f64;
    let queries = a.tally.attempted as f64;
    let pairs = [
        ("l2 hits", a.l2.hits, b.l2.hits, lookups),
        ("l2 misses", a.l2.misses, b.l2.misses, lookups),
        ("l2 executions", a.l2.executions, b.l2.executions, lookups),
        ("l2 evictions", a.l2.evictions, b.l2.evictions, lookups),
        (
            "l2 admission_rejected",
            a.l2.admission_rejected,
            b.l2.admission_rejected,
            lookups,
        ),
        ("degraded", a.tally.degraded, b.tally.degraded, queries),
    ];
    let mut far = Vec::new();
    for (name, x, y, population) in pairs {
        let share = stats::ratio(x.abs_diff(y) as f64, population);
        println!(
            "  interleaving-dependent {name}: untraced {x}, traced {y} ({:.3}% of {population})",
            share * 100.0
        );
        if share > L2_TOLERANCE {
            far.push(name);
        }
    }
    if far.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{far:?} differ by more than {L2_TOLERANCE} of their population"
        ))
    }
}

fn med_us(t: &Tracer, name: &str) -> f64 {
    stats::median(&t.durations_us(name))
}

/// Runtime self time per replayed query: the `execute_resilient` span
/// minus the wall time its layer calls cover when replayed in the
/// runtime's order.
fn runtime_self_us(t: &Tracer) -> f64 {
    let spans = t.spans();
    let mut exec: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == "runtime.execute") {
        exec.insert(s.request, s.ns());
    }
    let mut selfs = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name != "runtime.replay" {
            continue;
        }
        if let Some(&e) = exec.get(&s.request) {
            let covered = spans::covered_ns((s.start_ns, s.end_ns), &t.children_of(i));
            selfs.push((e as f64 - covered as f64) / 1000.0);
        }
    }
    stats::median(&selfs)
}

/// Every declared per-layer metric, in `BENCHMARK.json` order. Layers a
/// workload does not reach read 0.
pub fn layer_metrics(obs: &Observer, c: &Counters, untraced_miss_us: f64) -> Vec<Metric> {
    let t = obs.tracer.as_ref().expect("traced run");
    let k = &obs.counts;
    let per = |n: u64, d: u64| stats::ratio(n as f64, d as f64);
    let mean = |name: &str| {
        obs.layer_samples
            .get(name)
            .map_or(0.0, |v| stats::ratio(v.iter().sum(), v.len() as f64))
    };
    let count = |name: &str| obs.layer_counts.get(name).copied().unwrap_or(0) as f64;
    let l1 = c.l1_total();
    let tally = c.tally;
    let miss_us = med_us(t, "hosting.miss");
    let snippet_ns: u64 = t
        .spans()
        .iter()
        .filter(|s| s.name == "textindex.snippets")
        .map(|s| s.ns())
        .sum();
    vec![
        Metric::new("hosting.hit_us", "us", med_us(t, "hosting.hit")),
        Metric::new("hosting.miss_us", "us", miss_us),
        Metric::new(
            "hosting.l1_hit_rate",
            "ratio",
            per(l1.hits, l1.hits + l1.misses),
        ),
        Metric::new("hosting.click_us", "us", med_us(t, "hosting.click")),
        Metric::new("hosting.dashboard_us", "us", med_us(t, "hosting.dashboard")),
        Metric::new("hosting.degraded_rate", "ratio", tally.degraded_rate()),
        Metric::new(
            "hosting.trace_overhead",
            "ratio",
            if untraced_miss_us > 0.0 {
                miss_us / untraced_miss_us - 1.0
            } else {
                0.0
            },
        ),
        Metric::new(
            "admission.shed_rate",
            "ratio",
            per(tally.shed, tally.attempted),
        ),
        Metric::new(
            "admission.shed_under_share",
            "count",
            count("admission.shed_under_share"),
        ),
        Metric::new("runtime.execute_us", "us", med_us(t, "runtime.execute")),
        Metric::new("runtime.self_us", "us", runtime_self_us(t)),
        Metric::new(
            "runtime.workers_per_query",
            "count",
            per(c.granted, obs.executed),
        ),
        Metric::new("source_cache.hit_rate", "ratio", c.l2.hit_rate()),
        Metric::new(
            "source_cache.executions_per_query",
            "count",
            per(c.l2.executions, obs.executed),
        ),
        Metric::new("source_cache.evictions", "count", c.l2.evictions as f64),
        Metric::new(
            "source_cache.admission_rejected",
            "count",
            c.l2.admission_rejected as f64,
        ),
        Metric::new("datastore.search_us", "us", med_us(t, "datastore.search")),
        Metric::new("datastore.hybrid_us", "us", med_us(t, "datastore.hybrid")),
        Metric::new(
            "datastore.plan_regret",
            "ratio",
            mean("datastore.plan_regret"),
        ),
        Metric::new(
            "datastore.estimate_ratio",
            "ratio",
            mean("datastore.estimate_ratio"),
        ),
        Metric::new(
            "textindex.fulltext_us",
            "us",
            med_us(t, "textindex.fulltext"),
        ),
        Metric::new(
            "textindex.snippet_us",
            "us",
            per(snippet_ns, k.pool_entries) / 1000.0,
        ),
        Metric::new("websearch.pool_us", "us", med_us(t, "websearch.pool")),
        Metric::new("websearch.merge_us", "us", med_us(t, "websearch.merge")),
        Metric::new(
            "websearch.pool_entries",
            "count",
            per(k.pool_entries, k.pools),
        ),
        Metric::new(
            "websearch.snippet_yield",
            "ratio",
            per(k.web_results, k.pool_entries),
        ),
        Metric::new("services.call_us", "us", med_us(t, "services.call")),
        Metric::new(
            "services.attempts_per_call",
            "count",
            per(k.service_attempts, k.service_calls),
        ),
        Metric::new(
            "services.fastfail_rate",
            "ratio",
            per(k.service_fastfail, k.service_calls),
        ),
        Metric::new("adserver.select_us", "us", med_us(t, "adserver.select")),
        Metric::new("designer.render_us", "us", med_us(t, "designer.render")),
        Metric::new(
            "designer.html_bytes",
            "bytes",
            per(obs.html_bytes, obs.executed),
        ),
        Metric::new("cluster.scatter_us", "us", med_us(t, "cluster.scatter")),
        Metric::new("cluster.encode_us", "us", med_us(t, "cluster.encode")),
        Metric::new("cluster.decode_us", "us", med_us(t, "cluster.decode")),
        Metric::new("cluster.wire_bytes", "bytes", per(k.wire_bytes, k.legs)),
        Metric::new(
            "cluster.legs_per_query",
            "count",
            per(k.legs, k.scatter_queries),
        ),
    ]
}

/// Per-layer counts the inputs fix, or whose better direction depends
/// on the data (the planner's choices): printed with the per-layer
/// metrics, but not declared, because no direction of theirs is better.
pub fn layer_counts(obs: &Observer, c: &Counters) -> Vec<Metric> {
    let count = |name: &str| obs.layer_counts.get(name).copied().unwrap_or(0) as f64;
    let logged: u64 = c.traffic.iter().map(|f| f[3] + f[4]).sum();
    vec![
        Metric::new("hosting.logged_events", "count", logged as f64),
        Metric::new(
            "runtime.fanout_tasks",
            "count",
            stats::ratio(obs.fanout_tasks as f64, obs.executed as f64),
        ),
        Metric::new(
            "datastore.plan.filter_first",
            "count",
            count("datastore.plan.filter_first"),
        ),
        Metric::new(
            "datastore.plan.search_first",
            "count",
            count("datastore.plan.search_first"),
        ),
        Metric::new("datastore.plan.scan", "count", count("datastore.plan.scan")),
        Metric::new("adserver.billed_clicks", "count", c.billed as f64),
        Metric::new(
            "adserver.budget_refusals",
            "count",
            obs.budget_refusals as f64,
        ),
    ]
}

/// Where span files go: inside the benchmark's own directory.
fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{workload}-{seed}.jsonl"))
}

/// The traced run: the same `TRACE_OPS` operations on two fresh
/// builds, first untraced, then with spans and lower-layer replays.
/// The program's counters must read the same in both.
pub fn traced<W: Workload>(wl: &W, workload: &str, seed: u64) -> Result<Outcome, String> {
    let end = W::WARMUP_OPS + W::TRACE_OPS;
    let mut a = wl.build();
    let mut obs_a = warm(wl, &mut a);
    obs_a.timed = true;
    run_ops(wl, &mut a, W::WARMUP_OPS, end, None, &mut obs_a);
    let counters_a = Counters {
        digest: obs_a.digest,
        tally: obs_a.tally,
        ..wl.counters(&a)
    };
    drop(a);

    let mut b = wl.build();
    let mut obs_b = warm(wl, &mut b);
    obs_b.timed = true;
    obs_b.tracer = Some(Tracer::new(Instant::now()));
    run_ops(wl, &mut b, W::WARMUP_OPS, end, None, &mut obs_b);
    let counters_b = Counters {
        digest: obs_b.digest,
        tally: obs_b.tally,
        ..wl.counters(&b)
    };

    let mut ok = true;
    report_check(
        "traced counters equal untraced",
        compare_counters(&counters_a, &counters_b, W::L2_INTERLEAVED.is_some()),
        &mut ok,
    );
    let k = obs_b.counts;
    report_check(
        &format!(
            "replayed renders match served pages ({} compared)",
            k.render_compared
        ),
        if k.render_mismatches == 0 {
            Ok(())
        } else {
            Err(format!(
                "{} of {} differ",
                k.render_mismatches, k.render_compared
            ))
        },
        &mut ok,
    );
    report_check(
        &format!("outputs ({} kept responses)", obs_b.samples.len()),
        wl.check(&b, &obs_b.samples),
        &mut ok,
    );
    report_check(
        "clicks accepted",
        clicks_accepted(&obs_a).and(clicks_accepted(&obs_b)),
        &mut ok,
    );
    let untraced_miss_us = stats::median(
        &obs_a
            .miss_ns
            .iter()
            .map(|&n| n as f64 / 1000.0)
            .collect::<Vec<_>>(),
    );
    let metrics = layer_metrics(&obs_b, &counters_b, untraced_miss_us);
    let tracer = obs_b.tracer.as_ref().expect("traced run");
    let path = trace_path(workload, seed);
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "traced {} operations ({} executed), {} spans written to {}",
        W::TRACE_OPS,
        obs_b.executed,
        tracer.spans().len(),
        path.display()
    );
    println!(
        "untraced executed-query p50 {untraced_miss_us:.1} us; traced {:.1} us",
        med_us(tracer, "hosting.miss")
    );
    println!("per-layer metrics:");
    for m in &metrics {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("per-layer counts (fixed by the inputs; not declared):");
    for m in layer_counts(&obs_b, &counters_b) {
        println!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        correct: ok,
        attempted: obs_b.tally.attempted,
        failed: obs_b.tally.failed(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::new(Instant::now());
        // Query 1: execute took 100; its replayed layer calls ran on two
        // workers, 10..40 and 30..60 overlapping, plus a render 70..80.
        t.push("runtime.execute", 0, 100, None, 1);
        let root = t.push("runtime.replay", 200, 300, None, 1);
        t.push("websearch.pool", 210, 240, Some(root), 1);
        t.push("services.call", 230, 260, Some(root), 1);
        t.push("designer.render", 270, 280, Some(root), 1);
        // A finer-grained call outside the timeline is not a child.
        t.push("textindex.snippets", 300, 350, None, 1);
        // Covered: 210..260 (50) + 270..280 (10) = 60, so self = 40.
        assert_eq!(runtime_self_us(&t), 0.04);
    }
}
