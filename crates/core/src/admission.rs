//! Overload protection primitives (ROADMAP item: per-tenant overload
//! protection).
//!
//! Two pieces:
//!
//! * [`TokenBucket`] — the per-tenant admission rate limiter, driven by
//!   the platform's atomic virtual clock. Refill is computed lazily
//!   from elapsed virtual time, so arbitrary clock jumps (tests,
//!   replayed traces) behave exactly like many small ones, and the
//!   level can never exceed the configured burst.
//! * [`FanoutScheduler`] — the platform's fan-out accounting. The
//!   supplemental fan-out runs inline on the query's own thread (its
//!   parallelism is a virtual-clock model), so each fan-out with tasks
//!   takes one one-thread grant, counted per tenant and per [`Lane`].
//!
//! Grants never touch virtual-time accounting (`max` under parallel
//! fan-out), so results and virtual latencies stay deterministic.

use parking_lot::Mutex;
use std::collections::HashMap;

/// Milli-tokens per token: bucket arithmetic is integral so refill is
/// exact (no float drift) under any split of the same elapsed time.
const MILLI: u64 = 1000;

/// A token-bucket rate limiter on the virtual clock.
///
/// Levels are tracked in milli-tokens: at `rate_per_sec` tokens per
/// virtual second, each elapsed virtual millisecond contributes exactly
/// `rate_per_sec` milli-tokens. Refill saturates at `burst` tokens and
/// is monotone: time never removes tokens, and a backwards (or equal)
/// clock observation is a no-op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    rate_per_sec: u32,
    burst: u32,
    level_milli: u64,
    last_ms: u64,
}

impl TokenBucket {
    /// A bucket that starts full. `rate_per_sec == u32::MAX` means
    /// unlimited: every acquire succeeds and the level pins at burst.
    pub fn new(rate_per_sec: u32, burst: u32, now_ms: u64) -> TokenBucket {
        TokenBucket {
            rate_per_sec,
            burst,
            level_milli: burst as u64 * MILLI,
            last_ms: now_ms,
        }
    }

    /// True when the bucket never refuses.
    pub fn is_unlimited(&self) -> bool {
        self.rate_per_sec == u32::MAX
    }

    /// Credit elapsed virtual time. Saturates at `burst` tokens;
    /// ignores clock observations at or before the last one.
    pub fn refill(&mut self, now_ms: u64) {
        if now_ms <= self.last_ms {
            return;
        }
        let elapsed = now_ms - self.last_ms;
        self.last_ms = now_ms;
        let cap = self.burst as u64 * MILLI;
        let gained = elapsed.saturating_mul(self.rate_per_sec as u64);
        self.level_milli = self.level_milli.saturating_add(gained).min(cap);
    }

    /// Refill to `now_ms`, then take one token. Returns whether the
    /// token was available (unlimited buckets always say yes).
    pub fn try_acquire(&mut self, now_ms: u64) -> bool {
        self.refill(now_ms);
        if self.is_unlimited() {
            return true;
        }
        if self.level_milli >= MILLI {
            self.level_milli -= MILLI;
            true
        } else {
            false
        }
    }

    /// Current level in milli-tokens (refilled as of the last
    /// observation; call [`TokenBucket::refill`] first for "now").
    pub fn level_milli(&self) -> u64 {
        self.level_milli
    }

    /// The burst capacity in tokens.
    pub fn burst(&self) -> u32 {
        self.burst
    }

    /// Virtual ms until one full token is available at the current
    /// level (0 when one is already banked). The chaos suite uses this
    /// to state "recovery within one refill window" exactly.
    pub fn ms_until_token(&self) -> u64 {
        if self.is_unlimited() || self.level_milli >= MILLI {
            return 0;
        }
        let missing = MILLI - self.level_milli;
        missing.div_ceil((self.rate_per_sec as u64).max(1))
    }
}

/// Lanes a fan-out grant is counted on: customer queries vs background
/// work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// Customer queries (the serving path).
    #[default]
    Interactive,
    /// Background work run through the runtime (no platform path
    /// uses this lane today; `Platform::warmup` takes no grant).
    Background,
}

#[derive(Debug, Default)]
struct PoolState {
    interactive_out: usize,
    background_out: usize,
    /// Lifetime grants per tenant.
    granted: HashMap<u64, u64>,
}

/// The platform's fan-out accounting. A fan-out runs inline on its
/// calling thread, so every fan-out with tasks takes exactly one
/// one-thread grant, counted per tenant (lifetime) and per lane (while
/// outstanding). A one-thread grant never exceeds any fair share, so
/// there is nothing to size.
#[derive(Debug, Default)]
pub struct FanoutScheduler {
    state: Mutex<PoolState>,
}

/// An outstanding one-thread grant; it returns to the pool on drop.
#[derive(Debug)]
pub struct WorkerGrant<'a> {
    pool: &'a FanoutScheduler,
    lane: Lane,
}

impl Drop for WorkerGrant<'_> {
    fn drop(&mut self) {
        let mut st = self.pool.state.lock();
        match self.lane {
            Lane::Interactive => st.interactive_out -= 1,
            Lane::Background => st.background_out -= 1,
        }
    }
}

impl FanoutScheduler {
    /// An empty pool: nothing granted, nothing outstanding.
    pub fn new() -> FanoutScheduler {
        FanoutScheduler::default()
    }

    /// Take the one-thread grant for one fan-out of `tenant` (any
    /// stable key; the platform uses the owning tenant id) on `lane`.
    pub fn acquire(&self, tenant: u64, lane: Lane) -> WorkerGrant<'_> {
        let mut st = self.state.lock();
        *st.granted.entry(tenant).or_default() += 1;
        match lane {
            Lane::Interactive => st.interactive_out += 1,
            Lane::Background => st.background_out += 1,
        }
        WorkerGrant { pool: self, lane }
    }

    /// Lifetime grants to `tenant`: one per fan-out with tasks.
    pub fn granted(&self, tenant: u64) -> u64 {
        self.state.lock().granted.get(&tenant).copied().unwrap_or(0)
    }

    /// Grants currently out per lane: `(interactive, background)`.
    pub fn outstanding(&self) -> (usize, usize) {
        let st = self.state.lock();
        (st.interactive_out, st.background_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(10, 3, 0);
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(0));
        assert!(b.try_acquire(0));
        assert!(!b.try_acquire(0), "burst of 3 exhausted");
        assert_eq!(b.ms_until_token(), 100, "10/s refills one per 100ms");
        assert!(b.try_acquire(100));
        assert!(!b.try_acquire(100));
    }

    #[test]
    fn bucket_refill_saturates_at_burst() {
        let mut b = TokenBucket::new(1000, 5, 0);
        b.refill(1_000_000);
        assert_eq!(b.level_milli(), 5 * MILLI);
    }

    #[test]
    fn bucket_ignores_backwards_clock() {
        let mut b = TokenBucket::new(10, 10, 500);
        while b.try_acquire(500) {}
        b.refill(100); // stale observation
        assert_eq!(b.level_milli(), 0);
        assert!(b.try_acquire(600), "forward time refills");
    }

    #[test]
    fn unlimited_bucket_never_refuses() {
        let mut b = TokenBucket::new(u32::MAX, 1, 0);
        for _ in 0..10_000 {
            assert!(b.try_acquire(0));
        }
    }

    #[test]
    fn grants_are_counted_per_tenant_and_lane() {
        let pool = FanoutScheduler::new();
        let a = pool.acquire(1, Lane::Interactive);
        let b = pool.acquire(1, Lane::Interactive);
        let c = pool.acquire(2, Lane::Background);
        assert_eq!(pool.outstanding(), (2, 1));
        drop(b);
        assert_eq!(pool.outstanding(), (1, 1));
        drop(a);
        drop(c);
        assert_eq!(pool.outstanding(), (0, 0));
        assert_eq!(pool.granted(1), 2);
        assert_eq!(pool.granted(2), 1);
        assert_eq!(pool.granted(3), 0);
    }
}
