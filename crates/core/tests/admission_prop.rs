//! Property tests for the overload-protection primitives.
//!
//! Two laws the hosting layer leans on:
//!
//! 1. A token bucket's level can never exceed its burst capacity, no
//!    matter how acquires and arbitrary virtual-clock jumps interleave.
//! 2. Refill is monotone and split-invariant: observing the clock at
//!    `t` then `t + d` banks exactly as many tokens as observing
//!    `t + d` directly, and stale (backwards) observations change
//!    nothing.

use proptest::prelude::*;
use symphony_core::admission::TokenBucket;

const MILLI: u64 = 1000;

#[derive(Debug, Clone)]
enum BucketOp {
    /// Try to take one token at the current virtual time.
    Acquire,
    /// Jump the clock forward.
    Advance(u64),
    /// Observe the clock without taking (the hosting layer's refill on
    /// stat reads).
    Refill,
    /// Hand the bucket a stale timestamp (a racing thread that loaded
    /// the clock before a concurrent advance).
    StaleRefill(u64),
}

fn bucket_ops() -> impl Strategy<Value = Vec<BucketOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(BucketOp::Acquire),
            (1u64..5_000).prop_map(BucketOp::Advance),
            Just(BucketOp::Refill),
            (0u64..2_000).prop_map(BucketOp::StaleRefill),
        ],
        1..120,
    )
}

proptest! {
    /// Law 1: the level is bounded by burst × 1000 milli-tokens at
    /// every step of any op interleaving, including huge clock jumps.
    #[test]
    fn bucket_level_never_exceeds_burst(
        rate in 1u32..2_000,
        burst in 1u32..50,
        ops in bucket_ops(),
    ) {
        let mut bucket = TokenBucket::new(rate, burst, 0);
        let mut now = 0u64;
        let cap = burst as u64 * MILLI;
        prop_assert!(bucket.level_milli() <= cap);
        for op in ops {
            match op {
                BucketOp::Acquire => { bucket.try_acquire(now); }
                BucketOp::Advance(d) => { now += d; bucket.refill(now); }
                BucketOp::Refill => bucket.refill(now),
                BucketOp::StaleRefill(back) => bucket.refill(now.saturating_sub(back)),
            }
            prop_assert!(
                bucket.level_milli() <= cap,
                "level {} exceeds burst cap {}",
                bucket.level_milli(),
                cap,
            );
        }
    }

    /// Law 2: refill is split-invariant — crediting an elapsed window
    /// in arbitrarily many pieces banks exactly the same milli-tokens
    /// as crediting it at once — and interleaved stale observations
    /// are no-ops.
    #[test]
    fn refill_is_monotone_and_split_invariant(
        rate in 1u32..2_000,
        burst in 1u32..50,
        drains in 0u32..20,
        splits in prop::collection::vec(1u64..500, 1..30),
    ) {
        let mut split_bucket = TokenBucket::new(rate, burst, 0);
        let mut whole_bucket = TokenBucket::new(rate, burst, 0);
        for _ in 0..drains {
            split_bucket.try_acquire(0);
            whole_bucket.try_acquire(0);
        }
        let mut now = 0u64;
        let mut last_level = split_bucket.level_milli();
        for d in &splits {
            now += d;
            split_bucket.refill(now);
            prop_assert!(
                split_bucket.level_milli() >= last_level,
                "refill went backwards: {} -> {}",
                last_level,
                split_bucket.level_milli(),
            );
            last_level = split_bucket.level_milli();
            // A stale observation between splits must change nothing.
            split_bucket.refill(now / 2);
            prop_assert_eq!(split_bucket.level_milli(), last_level);
        }
        whole_bucket.refill(now);
        prop_assert_eq!(split_bucket.level_milli(), whole_bucket.level_milli());
    }
}
