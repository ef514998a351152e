//! Per-tenant token-bucket admission control.
//!
//! Integer arithmetic throughout (milli-tokens), with the clock passed
//! in by the caller — deterministic under test, no floating-point
//! drift, no hidden `Instant::now()`.

use std::collections::HashMap;
use std::time::Instant;

use fademl_serve::sync::Leaf;

/// Cap on distinct tracked tenants; beyond this, unseen tenants share
/// one overflow bucket so a tenant-name-spraying client cannot grow
/// the map without bound.
const MAX_TENANTS: usize = 4096;

/// Milli-tokens per token.
const MILLI: u64 = 1000;

/// Token-bucket parameters applied to every tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuotaConfig {
    /// Sustained requests per second per tenant; 0 disables quotas.
    pub rate_per_sec: u32,
    /// Burst allowance: the bucket's capacity in requests.
    pub burst: u32,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        QuotaConfig {
            rate_per_sec: 0,
            burst: 8,
        }
    }
}

#[derive(Debug)]
struct TokenBucket {
    milli_tokens: u64,
    last_refill: Instant,
}

/// Thread-safe per-tenant token buckets. One short lock per admission
/// decision; buckets are created lazily and capped at
/// `MAX_TENANTS` (4 096).
#[derive(Debug)]
pub struct TenantQuotas {
    config: QuotaConfig,
    buckets: Leaf<HashMap<String, TokenBucket>>,
}

impl TenantQuotas {
    /// Quotas with `config` applied uniformly to every tenant.
    pub fn new(config: QuotaConfig) -> Self {
        TenantQuotas {
            config,
            buckets: Leaf::new(HashMap::new()),
        }
    }

    /// Whether quotas are configured at all.
    pub fn enabled(&self) -> bool {
        self.config.rate_per_sec > 0
    }

    /// Decides admission for one request from `tenant` at time `now`.
    /// Returns `true` if a token was available (and consumes it).
    pub fn admit(&self, tenant: &str, now: Instant) -> bool {
        if !self.enabled() {
            return true;
        }
        let rate = u64::from(self.config.rate_per_sec);
        let capacity = u64::from(self.config.burst).saturating_mul(MILLI);
        let mut buckets = self.buckets.lock();
        let key = if buckets.contains_key(tenant) || buckets.len() < MAX_TENANTS {
            tenant
        } else {
            // Map full: unseen tenants compete for the overflow bucket.
            ""
        };
        let bucket = buckets
            .entry(key.to_string())
            .or_insert_with(|| TokenBucket {
                milli_tokens: capacity,
                last_refill: now,
            });
        // rate_per_sec tokens/s ≡ rate_per_sec milli-tokens per ms.
        let elapsed_ms = u64::try_from(
            now.saturating_duration_since(bucket.last_refill)
                .as_millis(),
        )
        .unwrap_or(u64::MAX);
        let refill = elapsed_ms.saturating_mul(rate);
        bucket.milli_tokens = bucket.milli_tokens.saturating_add(refill).min(capacity);
        bucket.last_refill = now;
        if bucket.milli_tokens >= MILLI {
            bucket.milli_tokens -= MILLI;
            true
        } else {
            false
        }
    }

    /// Number of tenants currently tracked (observability/testing).
    pub fn tracked_tenants(&self) -> usize {
        self.buckets.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn zero_rate_admits_everything() {
        let q = TenantQuotas::new(QuotaConfig {
            rate_per_sec: 0,
            burst: 1,
        });
        let now = Instant::now();
        for _ in 0..1000 {
            assert!(q.admit("anyone", now));
        }
        assert_eq!(q.tracked_tenants(), 0);
    }

    #[test]
    fn burst_then_starve_then_refill() {
        let q = TenantQuotas::new(QuotaConfig {
            rate_per_sec: 10,
            burst: 3,
        });
        let t0 = Instant::now();
        // Burst capacity: exactly 3 tokens.
        assert!(q.admit("a", t0));
        assert!(q.admit("a", t0));
        assert!(q.admit("a", t0));
        assert!(!q.admit("a", t0));
        // 10/s ⇒ one token per 100 ms.
        let t1 = t0 + Duration::from_millis(100);
        assert!(q.admit("a", t1));
        assert!(!q.admit("a", t1));
        // A long idle period refills to burst, not beyond.
        let t2 = t1 + Duration::from_secs(60);
        assert!(q.admit("a", t2));
        assert!(q.admit("a", t2));
        assert!(q.admit("a", t2));
        assert!(!q.admit("a", t2));
    }

    #[test]
    fn tenants_are_isolated() {
        let q = TenantQuotas::new(QuotaConfig {
            rate_per_sec: 1,
            burst: 1,
        });
        let now = Instant::now();
        assert!(q.admit("a", now));
        assert!(!q.admit("a", now));
        assert!(q.admit("b", now)); // b has its own bucket
    }

    #[test]
    fn tenant_map_is_bounded() {
        let q = TenantQuotas::new(QuotaConfig {
            rate_per_sec: 1,
            burst: 1,
        });
        let now = Instant::now();
        for i in 0..(MAX_TENANTS + 100) {
            let _ = q.admit(&format!("tenant-{i}"), now);
        }
        // MAX_TENANTS named buckets plus at most one overflow bucket.
        assert!(q.tracked_tenants() <= MAX_TENANTS + 1);
    }
}
