//! E-overload (wall-clock side): the cost of admission decisions.
//!
//! The SLO shape under overload lives in `--bin experiments
//! e-overload`; this bench pins the real per-query overhead of the
//! pieces it leans on — the token bucket on the admit path, the
//! full front-door shed (the "cheap degraded response" had better
//! actually be cheap), and the per-fan-out grant accounting.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use symphony_bench::overload_fleet_world;
use symphony_core::admission::{FanoutScheduler, Lane, TokenBucket};
use symphony_core::AdmissionPolicy;

/// Hot-path token bucket: refill + acquire on every admitted query.
fn bench_token_bucket(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_bucket");
    group.bench_function("try_acquire", |b| {
        let mut bucket = TokenBucket::new(1_000_000, 1_000_000, 0);
        let mut now = 0u64;
        b.iter(|| {
            now += 1;
            std::hint::black_box(bucket.try_acquire(now))
        });
    });
    group.finish();
}

/// Full platform paths: an admitted (executed) query vs a shed one.
/// The shed path must be orders of magnitude cheaper — that gap is
/// the capacity the platform claws back under overload.
fn bench_query_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_query");
    group.sample_size(20);

    // Unlimited admission: every query runs the full execution path.
    let (open, open_ids) = overload_fleet_world(1, &[], false);
    group.bench_function("served", |b| {
        b.iter(|| std::hint::black_box(open.query(open_ids[0], "galactic raiders")))
    });

    // Zero-rate admission drained of its burst: every query sheds.
    let policy = AdmissionPolicy {
        rate_per_sec: 1,
        burst: 1,
        max_concurrency: 16,
        weight: 1,
    };
    let (closed, closed_ids) = overload_fleet_world(1, &[policy], false);
    closed
        .query(closed_ids[0], "galactic raiders")
        .expect("drain burst");
    group.bench_function("shed", |b| {
        b.iter(|| std::hint::black_box(closed.query(closed_ids[0], "galactic raiders")))
    });
    group.finish();
}

/// Fan-out grant accounting: the one-thread grant every fan-out with
/// tasks takes, alone and while another lane holds a grant.
fn bench_fanout_grants(c: &mut Criterion) {
    let mut group = c.benchmark_group("admission_fanout");
    for contended in [false, true] {
        let label = if contended { "contended" } else { "solo" };
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &contended,
            |b, &contended| {
                let scheduler = FanoutScheduler::new();
                let _other = contended.then(|| scheduler.acquire(99, Lane::Background));
                b.iter(|| std::hint::black_box(scheduler.acquire(1, Lane::Interactive)));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_token_bucket,
    bench_query_paths,
    bench_fanout_grants
);
criterion_main!(benches);
