//! Active request recovery for the remote tier: virtual-time deadlines with
//! retry/backoff, hedged reads across slab replicas, and graceful degradation
//! when link partitions make every replica unreachable.
//!
//! The fault layer (`crate::fault`) models what the fabric does *to* requests;
//! this module models what the host does *about* it. Everything runs on
//! virtual time and a dedicated, salted RNG stream so that:
//!
//! 1. `RecoveryPolicy::none()` is byte-identical to a build without the
//!    recovery layer — no extra draws, no extra checksum words.
//! 2. Component RNG streams (agent base sampling, fault-plan expansion) are
//!    never advanced by recovery decisions.
//! 3. Each recovery-considered request derives its own `DetRng` from
//!    `(recovery_seed, ordinal)`, so per-request decisions are independent of
//!    how many other requests recovered before it on the same shard.
//! 4. All bookkeeping folds into an order-insensitive FNV drift checksum
//!    (`RecoveryStats::checksum`), merged across shards exactly like
//!    `FaultInjectionStats`.

use leap_sim_core::hash::{CHECKSUM_PRIME, CHECKSUM_SEED};
use leap_sim_core::{DetRng, Nanos};
use serde::{Deserialize, Serialize};

/// Salt applied to the run seed to derive the recovery stream, keeping it
/// disjoint from the agent stream and the fault-plan stream
/// (`fault::FAULT_SALT`).
pub const RECOVERY_SALT: u64 = 0x7ec0_4e8a_9a1b_5afe;

/// Derives the recovery stream seed for a run. Callers pass this to
/// `HostAgent::install_recovery` so every shard derives per-request streams
/// from the same root.
#[must_use]
pub fn recovery_stream_seed(run_seed: u64) -> u64 {
    run_seed ^ RECOVERY_SALT
}

/// Derives the per-request recovery RNG. `ordinal` is the shard-local count
/// of recovery-considered requests; mixing it multiplicatively keeps adjacent
/// ordinals' streams uncorrelated.
#[must_use]
pub fn request_stream(recovery_seed: u64, ordinal: u64) -> DetRng {
    DetRng::seed_from(recovery_seed ^ ordinal.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Recovery knobs carried by `SimConfig`. All-zero (`none()`) disables the
/// layer entirely; the data path then takes the exact pre-recovery code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Virtual-time deadline for one attempt, expressed in healthy-fabric
    /// terms; the agent scales it by the active epoch multiplier so a known
    /// fabric-wide slowdown does not trip every deadline. Zero disables
    /// deadlines.
    pub timeout: Nanos,
    /// Maximum retries after deadline expiry. Must be non-zero iff `timeout`
    /// is non-zero.
    pub max_retries: u32,
    /// Base exponential backoff between retries (doubles each retry).
    pub backoff_base: Nanos,
    /// Upper bound on the seeded jitter added to each backoff interval.
    pub backoff_jitter: Nanos,
    /// Delay after which a read is hedged to another replica. Zero disables
    /// hedging. Writes are never hedged (replicas are write-all).
    pub hedge_delay: Nanos,
}

impl RecoveryPolicy {
    /// The disabled policy: byte-identical behavior to a build without the
    /// recovery layer.
    #[must_use]
    pub const fn none() -> Self {
        Self {
            timeout: Nanos::ZERO,
            max_retries: 0,
            backoff_base: Nanos::ZERO,
            backoff_jitter: Nanos::ZERO,
            hedge_delay: Nanos::ZERO,
        }
    }

    /// Canonical tail-tolerant preset used by the hedging figure and the
    /// chaos CI lane. Tuned for the RDMA sampler (median ~4.3 µs): hedge at
    /// ~2× the median, deadline past the healthy p99, two retries with small
    /// jittered backoff.
    #[must_use]
    pub const fn tail_tolerant() -> Self {
        Self {
            timeout: Nanos::from_micros(20),
            max_retries: 2,
            backoff_base: Nanos::from_micros(1),
            backoff_jitter: Nanos::from_nanos(500),
            hedge_delay: Nanos::from_micros(8),
        }
    }

    /// Whether any recovery mechanism is enabled.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.timeout.is_zero() || !self.hedge_delay.is_zero()
    }

    /// Structural validation; mirrors `FaultSpec::validate`.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.timeout.is_zero() && self.max_retries == 0 {
            return Err("recovery_timeout_ns requires recovery_max_retries > 0");
        }
        if self.timeout.is_zero() && self.max_retries > 0 {
            return Err("recovery_max_retries requires recovery_timeout_ns > 0");
        }
        if self.timeout.is_zero() && !self.backoff_base.is_zero() {
            return Err("recovery_backoff_base_ns requires recovery_timeout_ns > 0");
        }
        if self.timeout.is_zero() && !self.backoff_jitter.is_zero() {
            return Err("recovery_backoff_jitter_ns requires recovery_timeout_ns > 0");
        }
        Ok(())
    }

    /// Renders the policy as the `recovery_*` JSON fields that ride
    /// `SimConfig::to_json` (no surrounding braces, no trailing comma).
    #[must_use]
    pub fn to_json_fields(&self) -> String {
        format!(
            "\"recovery_timeout_ns\":{},\"recovery_max_retries\":{},\
             \"recovery_backoff_base_ns\":{},\"recovery_backoff_jitter_ns\":{},\
             \"recovery_hedge_delay_ns\":{}",
            self.timeout.as_nanos(),
            self.max_retries,
            self.backoff_base.as_nanos(),
            self.backoff_jitter.as_nanos(),
            self.hedge_delay.as_nanos(),
        )
    }

    /// Applies one `key: value` pair from a config JSON object. Returns
    /// `Ok(true)` when the key belonged to the recovery policy, `Ok(false)`
    /// when it is not a recovery key, and `Err` on a malformed value.
    pub fn apply_json_field(&mut self, key: &str, value: &str) -> Result<bool, String> {
        let parse = |value: &str| -> Result<u64, String> {
            value
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("bad value {value:?} for recovery key"))
        };
        match key {
            "recovery_timeout_ns" => self.timeout = Nanos::from_nanos(parse(value)?),
            "recovery_max_retries" => {
                self.max_retries = u32::try_from(parse(value)?)
                    .map_err(|_| format!("recovery_max_retries {value:?} out of range"))?;
            }
            "recovery_backoff_base_ns" => self.backoff_base = Nanos::from_nanos(parse(value)?),
            "recovery_backoff_jitter_ns" => self.backoff_jitter = Nanos::from_nanos(parse(value)?),
            "recovery_hedge_delay_ns" => self.hedge_delay = Nanos::from_nanos(parse(value)?),
            _ => return Ok(false),
        }
        Ok(true)
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Aggregate recovery accounting, merged across shards into
/// `RunResult.recovery_stats`. The checksum uses the same FNV drift scheme as
/// `FaultInjectionStats`: order-insensitive within a shard stream and under
/// cross-shard merge, sensitive to any change in the set of recorded events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Attempts that blew their (epoch-scaled) deadline and were cancelled.
    pub deadline_timeouts: u64,
    /// Retry dispatches issued after a deadline expiry.
    pub retries: u64,
    /// Total virtual time spent waiting in backoff between retries.
    pub backoff_wait_total: Nanos,
    /// Hedge dispatches issued.
    pub hedges_issued: u64,
    /// Hedges that completed before the primary (primary cancelled).
    pub hedges_won: u64,
    /// Hedges the primary beat (hedge charged as wasted work).
    pub hedges_wasted: u64,
    /// Reads degraded to the disk-latency path because every replica was
    /// unreachable through an active link partition.
    pub degraded_reads: u64,
    /// Dispatches that failed fast off a partitioned primary link onto
    /// another replica.
    pub partition_failfasts: u64,
    /// FNV drift checksum over every recorded recovery event.
    pub checksum: u64,
}

impl RecoveryStats {
    /// Folds one event word into the drift checksum.
    pub fn record(&mut self, word: u64) {
        self.checksum = self
            .checksum
            .wrapping_add((word ^ CHECKSUM_SEED).wrapping_mul(CHECKSUM_PRIME));
    }

    /// Merges a shard's stats into this one. Checksums combine by summing
    /// drifts from the seed, so merge order does not matter.
    pub fn merge(&mut self, other: &Self) {
        self.deadline_timeouts += other.deadline_timeouts;
        self.retries += other.retries;
        self.backoff_wait_total = self
            .backoff_wait_total
            .saturating_add(other.backoff_wait_total);
        self.hedges_issued += other.hedges_issued;
        self.hedges_won += other.hedges_won;
        self.hedges_wasted += other.hedges_wasted;
        self.degraded_reads += other.degraded_reads;
        self.partition_failfasts += other.partition_failfasts;
        self.checksum = self
            .checksum
            .wrapping_add(other.checksum.wrapping_sub(CHECKSUM_SEED));
    }

    /// True when no recovery event was ever recorded.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        *self == Self::default()
    }
}

impl Default for RecoveryStats {
    fn default() -> Self {
        Self {
            deadline_timeouts: 0,
            retries: 0,
            backoff_wait_total: Nanos::ZERO,
            hedges_issued: 0,
            hedges_won: 0,
            hedges_wasted: 0,
            degraded_reads: 0,
            partition_failfasts: 0,
            checksum: CHECKSUM_SEED,
        }
    }
}

/// Per-tenant recovery ledger surfaced through the service layer's QoS
/// report. Only populated for accesses attributed to a non-zero tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantRecovery {
    /// Retries charged to this tenant's accesses.
    pub retries: u64,
    /// Hedges that won for this tenant's reads.
    pub hedges_won: u64,
    /// Reads degraded to the disk path for this tenant.
    pub degraded_reads: u64,
}

impl TenantRecovery {
    /// Additive merge across shards.
    pub fn merge(&mut self, other: &Self) {
        self.retries += other.retries;
        self.hedges_won += other.hedges_won;
        self.degraded_reads += other.degraded_reads;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_valid() {
        let policy = RecoveryPolicy::none();
        assert!(!policy.is_active());
        policy.validate().expect("none() validates");
        assert_eq!(policy, RecoveryPolicy::default());
    }

    #[test]
    fn tail_tolerant_is_active_and_valid() {
        let policy = RecoveryPolicy::tail_tolerant();
        assert!(policy.is_active());
        policy.validate().expect("canonical preset validates");
    }

    #[test]
    fn validation_rejects_inconsistent_deadline_knobs() {
        let mut policy = RecoveryPolicy::none();
        policy.timeout = Nanos::from_micros(10);
        assert!(policy.validate().is_err(), "timeout without retries");

        let mut policy = RecoveryPolicy::none();
        policy.max_retries = 1;
        assert!(policy.validate().is_err(), "retries without timeout");

        let mut policy = RecoveryPolicy::none();
        policy.backoff_base = Nanos::from_micros(1);
        assert!(policy.validate().is_err(), "backoff without timeout");

        let mut policy = RecoveryPolicy::none();
        policy.backoff_jitter = Nanos::from_nanos(100);
        assert!(policy.validate().is_err(), "jitter without timeout");
    }

    #[test]
    fn json_fields_round_trip() {
        let policy = RecoveryPolicy::tail_tolerant();
        let fields = policy.to_json_fields();
        let mut rebuilt = RecoveryPolicy::none();
        for pair in fields.split(',') {
            let (key, value) = pair.split_once(':').expect("key:value pair");
            let key = key.trim().trim_matches('"');
            assert!(
                rebuilt.apply_json_field(key, value).expect("parses"),
                "key {key:?} must be consumed"
            );
        }
        assert_eq!(rebuilt, policy);
    }

    #[test]
    fn apply_json_field_ignores_foreign_keys_and_rejects_bad_values() {
        let mut policy = RecoveryPolicy::none();
        assert!(!policy
            .apply_json_field("fault_seedless", "1")
            .expect("foreign key passes"));
        assert!(policy
            .apply_json_field("recovery_timeout_ns", "\"soon\"")
            .is_err());
        assert_eq!(policy, RecoveryPolicy::none());
    }

    #[test]
    fn stats_merge_matches_single_stream() {
        let mut left = RecoveryStats::default();
        let mut right = RecoveryStats::default();
        let mut whole = RecoveryStats::default();
        for word in 0..32u64 {
            let salted = word.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            whole.record(salted);
            if word % 2 == 0 {
                left.record(salted);
                left.retries += 1;
            } else {
                right.record(salted);
                right.hedges_won += 1;
            }
        }
        let mut merged = left;
        merged.merge(&right);
        assert_eq!(merged.checksum, whole.checksum);
        assert_eq!(merged.retries, 16);
        assert_eq!(merged.hedges_won, 16);
    }

    #[test]
    fn stats_checksum_is_order_insensitive_but_content_sensitive() {
        let mut forward = RecoveryStats::default();
        let mut reverse = RecoveryStats::default();
        for word in 0..16u64 {
            forward.record(word);
        }
        for word in (0..16u64).rev() {
            reverse.record(word);
        }
        assert_eq!(forward.checksum, reverse.checksum);

        let mut altered = RecoveryStats::default();
        for word in 1..17u64 {
            altered.record(word);
        }
        assert_ne!(forward.checksum, altered.checksum);
    }

    #[test]
    fn quiet_stats_report_quiet() {
        let mut stats = RecoveryStats::default();
        assert!(stats.is_quiet());
        stats.record(7);
        assert!(!stats.is_quiet());
    }

    #[test]
    fn per_request_streams_are_independent_of_each_other() {
        let seed = recovery_stream_seed(42);
        let mut a = request_stream(seed, 0);
        let mut b = request_stream(seed, 1);
        let mut a_again = request_stream(seed, 0);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut a = request_stream(seed, 0);
        assert_eq!(a.next_u64(), a_again.next_u64());
    }

    #[test]
    fn tenant_recovery_merges_additively() {
        let mut total = TenantRecovery::default();
        total.merge(&TenantRecovery {
            retries: 2,
            hedges_won: 1,
            degraded_reads: 0,
        });
        total.merge(&TenantRecovery {
            retries: 1,
            hedges_won: 0,
            degraded_reads: 3,
        });
        assert_eq!(
            total,
            TenantRecovery {
                retries: 3,
                hedges_won: 1,
                degraded_reads: 3
            }
        );
    }
}
