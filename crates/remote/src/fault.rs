//! Seeded, deterministic fault injection for the remote tier.
//!
//! A healthy fabric only demonstrates Leap's latency-hiding claims in steady
//! state. This module adds churn as first-class *simulation* input: a
//! [`FaultSpec`] describes how much chaos to inject (how many latency-spike
//! epochs, degraded-bandwidth epochs, machine failures, and reconnect
//! storms, over which virtual-time window), and [`FaultPlan::from_spec`]
//! expands it into a concrete schedule using a dedicated [`DetRng`] stream.
//!
//! Determinism contract:
//!
//! - The plan is a pure function of `(seed, spec, machine_count)`. The
//!   expansion RNG is seeded from `seed ^ FAULT_SALT` and never touches any
//!   component's RNG stream, so installing an *empty* plan leaves every other
//!   random draw — and therefore every healthy-run result — bit-identical.
//! - All fault events are keyed to virtual time ([`Nanos`]), never wall
//!   clocks, so `Serial` and `Threaded` replays observe the same schedule.
//! - [`FaultInjectionStats`] carries an order-sensitive FNV checksum per
//!   shard and merges across shards commutatively, mirroring the engine's
//!   pipeline-stats discipline.

use leap_sim_core::hash::{checksum_fold, CHECKSUM_SEED};
use leap_sim_core::{DetRng, Nanos};
use serde::{Deserialize, Serialize};

/// Salt folded into the run seed before expanding a plan, so the fault
/// schedule draws from its own stream and leaves component streams untouched.
const FAULT_SALT: u64 = 0x8F1B_BCDC_FA17_71AD;

/// Multiplier denominator: epoch multipliers are expressed in thousandths,
/// so `1000` is the identity and `2500` means 2.5× slower.
pub const MULTIPLIER_IDENTITY_MILLI: u64 = 1000;

/// How much churn to inject, expressed as counts over a virtual-time window.
///
/// The spec is the *intent*; [`FaultPlan::from_spec`] turns it into concrete
/// epochs and failure events. A spec with all counts zero (see
/// [`FaultSpec::none`]) injects nothing and reproduces healthy runs
/// byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Number of latency-spike epochs to schedule.
    pub latency_spikes: u32,
    /// Latency multiplier during a spike epoch, in thousandths (`6000` = 6×).
    pub spike_multiplier_milli: u32,
    /// Number of degraded-bandwidth epochs to schedule.
    pub degraded_epochs: u32,
    /// Latency multiplier during a degraded epoch, in thousandths.
    pub degraded_multiplier_milli: u32,
    /// Number of remote machines to fail mid-run (capped so at least one
    /// machine survives).
    pub machine_failures: u32,
    /// Number of reconnect-storm epochs to schedule.
    pub reconnect_storms: u32,
    /// Per-request reconnect penalty paid during a storm epoch.
    pub reconnect_penalty: Nanos,
    /// Duration of each scheduled epoch.
    pub epoch: Nanos,
    /// Earliest virtual time at which any fault may start.
    pub start: Nanos,
    /// Exclusive upper bound on fault onset times.
    pub horizon: Nanos,
    /// Number of link-level partial-partition epochs to schedule. Each one
    /// severs a single (core-shard → machine) link for one epoch, so a
    /// machine can be unreachable from one shard while healthy from another.
    pub partition_epochs: u32,
    /// Restricts every epoch and partition in the plan to accesses issued by
    /// one tenant (`0` targets all traffic). Machine failures stay global —
    /// hardware dies for everyone.
    pub target_tenant: u32,
}

impl FaultSpec {
    /// A spec that injects nothing; the default for healthy runs.
    pub const fn none() -> Self {
        FaultSpec {
            latency_spikes: 0,
            spike_multiplier_milli: 0,
            degraded_epochs: 0,
            degraded_multiplier_milli: 0,
            machine_failures: 0,
            reconnect_storms: 0,
            reconnect_penalty: Nanos::ZERO,
            epoch: Nanos::ZERO,
            start: Nanos::ZERO,
            horizon: Nanos::ZERO,
            partition_epochs: 0,
            target_tenant: 0,
        }
    }

    /// True if the spec schedules at least one fault of any kind.
    pub fn is_active(&self) -> bool {
        self.latency_spikes > 0
            || self.degraded_epochs > 0
            || self.machine_failures > 0
            || self.reconnect_storms > 0
            || self.partition_epochs > 0
    }

    /// The canonical "storm" used by the chaos suite and `fig_churn`: every
    /// fault kind at once over the given onset window.
    ///
    /// Spike epochs run 6× slower, degraded epochs 3× slower, and storm
    /// requests pay a 25 µs reconnect penalty; epochs last a quarter of the
    /// window so several overlap mid-run.
    pub fn storm_over(start: Nanos, horizon: Nanos) -> Self {
        let window = horizon.saturating_sub(start);
        FaultSpec {
            latency_spikes: 2,
            spike_multiplier_milli: 6_000,
            degraded_epochs: 1,
            degraded_multiplier_milli: 3_000,
            machine_failures: 1,
            reconnect_storms: 1,
            reconnect_penalty: Nanos::from_micros(25),
            epoch: Nanos::from_nanos((window.as_nanos() / 4).max(1)),
            start,
            horizon,
            partition_epochs: 0,
            target_tenant: 0,
        }
    }

    /// The canonical storm sized to the ingested perf fixture's replay
    /// (~715 µs of virtual time): faults land throughout the run.
    pub fn canonical_storm() -> Self {
        Self::storm_over(Nanos::from_micros(50), Nanos::from_micros(800))
    }

    /// The canonical storm plus link partitions: the input the partition
    /// fixture, the recovery suite, and the chaos CI lane all share. Keeping
    /// [`FaultSpec::canonical_storm`] partition-free preserves the existing
    /// golden chaos pins.
    pub fn canonical_partition_storm() -> Self {
        let mut spec = Self::canonical_storm();
        spec.partition_epochs = 3;
        spec
    }

    /// Validates the spec, returning a static reason on the first problem.
    ///
    /// An inactive spec is always valid; an active one needs a non-empty
    /// onset window, a non-zero epoch length, slowdown multipliers of at
    /// least 1× for every scheduled epoch kind, and a non-zero reconnect
    /// penalty if storms are scheduled.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.is_active() {
            return Ok(());
        }
        if self.horizon <= self.start {
            return Err("fault horizon must lie strictly after fault start");
        }
        if self.epoch.is_zero() {
            return Err("fault epoch duration must be non-zero");
        }
        if self.latency_spikes > 0
            && u64::from(self.spike_multiplier_milli) < MULTIPLIER_IDENTITY_MILLI
        {
            return Err("spike multiplier must be at least 1000 (1x)");
        }
        if self.degraded_epochs > 0
            && u64::from(self.degraded_multiplier_milli) < MULTIPLIER_IDENTITY_MILLI
        {
            return Err("degraded multiplier must be at least 1000 (1x)");
        }
        if self.reconnect_storms > 0 && self.reconnect_penalty.is_zero() {
            return Err("reconnect storms need a non-zero reconnect penalty");
        }
        Ok(())
    }

    /// Serializes the spec as the inner `"key":value` pairs (no braces), so
    /// it can be embedded flat inside a larger JSON object.
    pub fn to_json_fields(&self) -> String {
        format!(
            concat!(
                "\"fault_latency_spikes\":{},",
                "\"fault_spike_multiplier_milli\":{},",
                "\"fault_degraded_epochs\":{},",
                "\"fault_degraded_multiplier_milli\":{},",
                "\"fault_machine_failures\":{},",
                "\"fault_reconnect_storms\":{},",
                "\"fault_reconnect_penalty_ns\":{},",
                "\"fault_epoch_ns\":{},",
                "\"fault_start_ns\":{},",
                "\"fault_horizon_ns\":{},",
                "\"fault_partition_epochs\":{},",
                "\"fault_target_tenant\":{}"
            ),
            self.latency_spikes,
            self.spike_multiplier_milli,
            self.degraded_epochs,
            self.degraded_multiplier_milli,
            self.machine_failures,
            self.reconnect_storms,
            self.reconnect_penalty.as_nanos(),
            self.epoch.as_nanos(),
            self.start.as_nanos(),
            self.horizon.as_nanos(),
            self.partition_epochs,
            self.target_tenant,
        )
    }

    /// Serializes the spec as a standalone JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.to_json_fields())
    }

    /// Applies one parsed `"fault_*"` key to the spec.
    ///
    /// Returns `Ok(false)` if the key is not a fault key (so callers merging
    /// fault fields into a larger object can fall through), `Ok(true)` if it
    /// was consumed, and `Err` on a malformed value.
    pub fn apply_json_field(&mut self, key: &str, value: &str) -> Result<bool, FaultJsonError> {
        fn num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, FaultJsonError> {
            value.trim().parse().map_err(|_| FaultJsonError::BadValue {
                key: key.to_string(),
                value: value.trim().to_string(),
            })
        }
        match key {
            "fault_latency_spikes" => self.latency_spikes = num(key, value)?,
            "fault_spike_multiplier_milli" => self.spike_multiplier_milli = num(key, value)?,
            "fault_degraded_epochs" => self.degraded_epochs = num(key, value)?,
            "fault_degraded_multiplier_milli" => self.degraded_multiplier_milli = num(key, value)?,
            "fault_machine_failures" => self.machine_failures = num(key, value)?,
            "fault_reconnect_storms" => self.reconnect_storms = num(key, value)?,
            "fault_reconnect_penalty_ns" => {
                self.reconnect_penalty = Nanos::from_nanos(num(key, value)?)
            }
            "fault_epoch_ns" => self.epoch = Nanos::from_nanos(num(key, value)?),
            "fault_start_ns" => self.start = Nanos::from_nanos(num(key, value)?),
            "fault_horizon_ns" => self.horizon = Nanos::from_nanos(num(key, value)?),
            "fault_partition_epochs" => self.partition_epochs = num(key, value)?,
            "fault_target_tenant" => self.target_tenant = num(key, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Parses a standalone JSON object produced by [`FaultSpec::to_json`]
    /// (missing keys keep their [`FaultSpec::none`] defaults). The parsed
    /// spec is validated before being returned.
    ///
    /// Unknown `fault_*` keys (and any other unrecognized key) are a typed
    /// [`FaultJsonError::UnknownKey`] error rather than being skipped, so a
    /// typo'd chaos plan cannot silently run as a healthy baseline.
    pub fn from_json(text: &str) -> Result<Self, FaultJsonError> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or(FaultJsonError::NotAnObject)?;
        let mut spec = FaultSpec::none();
        for pair in body.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (raw_key, value) = pair
                .split_once(':')
                .ok_or_else(|| FaultJsonError::MalformedPair(pair.to_string()))?;
            let key = raw_key.trim().trim_matches('"');
            if !spec.apply_json_field(key, value)? {
                return Err(FaultJsonError::UnknownKey(key.to_string()));
            }
        }
        spec.validate().map_err(FaultJsonError::InvalidSpec)?;
        Ok(spec)
    }
}

/// Typed parse error for fault-spec JSON, so callers can tell a typo'd key
/// apart from a malformed document or a structurally invalid spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultJsonError {
    /// The document is not a braced JSON object.
    NotAnObject,
    /// A `key:value` pair could not be split.
    MalformedPair(String),
    /// A key that is neither a known `fault_*` field nor otherwise consumed.
    UnknownKey(String),
    /// A known key carried an unparseable value.
    BadValue {
        /// The offending key.
        key: String,
        /// The raw value text that failed to parse.
        value: String,
    },
    /// The parsed spec failed [`FaultSpec::validate`].
    InvalidSpec(&'static str),
}

impl std::fmt::Display for FaultJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultJsonError::NotAnObject => write!(f, "fault spec JSON must be an object"),
            FaultJsonError::MalformedPair(pair) => write!(f, "malformed pair {pair:?}"),
            FaultJsonError::UnknownKey(key) => write!(f, "unknown fault key {key:?}"),
            FaultJsonError::BadValue { key, value } => {
                write!(f, "bad value {value:?} for {key:?}")
            }
            FaultJsonError::InvalidSpec(reason) => write!(f, "invalid fault spec: {reason}"),
        }
    }
}

impl std::error::Error for FaultJsonError {}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// The kind of fault epoch, ordered for deterministic schedule sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultEpochKind {
    /// Remote latency multiplied by the epoch multiplier.
    LatencySpike,
    /// Degraded fabric bandwidth, modeled as a (smaller) latency multiplier.
    DegradedBandwidth,
    /// Every remote request pays a reconnect penalty.
    ReconnectStorm,
}

/// One scheduled epoch during which a fault modifier is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEpoch {
    /// What happens during the epoch.
    pub kind: FaultEpochKind,
    /// Inclusive epoch start (virtual time).
    pub start: Nanos,
    /// Exclusive epoch end (virtual time).
    pub end: Nanos,
    /// Latency multiplier in thousandths (`1000` = identity); meaningful for
    /// spike/degraded epochs, `1000` for storms.
    pub multiplier_milli: u64,
}

impl FaultEpoch {
    /// True if the epoch covers the given instant.
    pub fn covers(&self, now: Nanos) -> bool {
        self.start <= now && now < self.end
    }
}

/// One scheduled machine failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MachineFailure {
    /// Virtual time at which the machine dies.
    pub at: Nanos,
    /// Index of the victim machine within the agent's cluster.
    pub victim: u32,
}

/// Number of core-shard slots link partitions are keyed over. A core `c`
/// belongs to link shard `c % PARTITION_LINK_SHARDS`, so a partition severs
/// one machine from a quarter of the cores while the rest reach it normally.
pub const PARTITION_LINK_SHARDS: u32 = 4;

/// One scheduled link-level partial partition: for the epoch's duration the
/// (core-shard → machine) link is down, while every other link to the same
/// machine stays healthy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartitionEpoch {
    /// Inclusive partition start (virtual time).
    pub start: Nanos,
    /// Exclusive partition end (virtual time).
    pub end: Nanos,
    /// Index of the machine whose link is severed.
    pub machine: u32,
    /// Core shard (`core % PARTITION_LINK_SHARDS`) that loses the link.
    pub shard: u32,
}

impl PartitionEpoch {
    /// True if the partition severs the `(core, machine)` link at `now`.
    pub fn severs(&self, core: usize, machine: u32, now: Nanos) -> bool {
        self.machine == machine
            && (core as u32) % PARTITION_LINK_SHARDS == self.shard
            && self.start <= now
            && now < self.end
    }
}

/// The fault modifiers in force at one instant, as seen by a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultModifiers {
    /// Product of all active epoch multipliers, in thousandths.
    pub multiplier_milli: u64,
    /// Total reconnect penalty owed by a request issued now.
    pub reconnect_penalty: Nanos,
    /// True if at least one latency-spike epoch is active.
    pub spike_active: bool,
    /// True if at least one degraded-bandwidth epoch is active.
    pub degraded_active: bool,
}

impl FaultModifiers {
    /// The identity modifiers: nothing is slowed down or penalized.
    pub const IDENTITY: FaultModifiers = FaultModifiers {
        multiplier_milli: MULTIPLIER_IDENTITY_MILLI,
        reconnect_penalty: Nanos::ZERO,
        spike_active: false,
        degraded_active: false,
    };

    /// True if these modifiers leave the request untouched.
    pub fn is_identity(&self) -> bool {
        *self == FaultModifiers::IDENTITY
    }
}

/// A concrete, fully expanded fault schedule.
///
/// Built once from `(seed, spec, machine_count)` and installed into the
/// remote agent (or the legacy data path); identical inputs always expand to
/// the identical plan, in either replay mode.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    spec: FaultSpec,
    epochs: Vec<FaultEpoch>,
    failures: Vec<MachineFailure>,
    partitions: Vec<PartitionEpoch>,
}

impl FaultPlan {
    /// The empty plan: injects nothing.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// True if the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty() && self.failures.is_empty() && self.partitions.is_empty()
    }

    /// The spec the plan was expanded from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The scheduled epochs, sorted by `(start, kind, end)`.
    pub fn epochs(&self) -> &[FaultEpoch] {
        &self.epochs
    }

    /// The scheduled machine failures, sorted by failure time.
    pub fn failures(&self) -> &[MachineFailure] {
        &self.failures
    }

    /// The scheduled link partitions, sorted by `(start, machine, shard)`.
    pub fn partitions(&self) -> &[PartitionEpoch] {
        &self.partitions
    }

    /// True if the plan schedules at least one link partition. The agent's
    /// hot path checks this before doing any per-request reachability work.
    pub fn has_partitions(&self) -> bool {
        !self.partitions.is_empty()
    }

    /// True if the `(core, machine)` link is severed by an active partition.
    pub fn link_partitioned(&self, core: usize, machine: u32, now: Nanos) -> bool {
        self.partitions.iter().any(|p| p.severs(core, machine, now))
    }

    /// True if the plan's epochs and partitions apply to accesses issued by
    /// `tenant`. A `target_tenant` of zero targets everyone; tenant zero
    /// (untagged traffic) is only hit by untargeted plans.
    pub fn applies_to_tenant(&self, tenant: u32) -> bool {
        self.spec.target_tenant == 0 || tenant == self.spec.target_tenant
    }

    /// Expands a spec into a concrete schedule.
    ///
    /// The expansion RNG is seeded from `seed ^ FAULT_SALT`, a stream no
    /// simulation component shares, so plan expansion never perturbs healthy
    /// runs. `machine_count` is the size of the cluster the plan targets;
    /// failures are capped at `machine_count - 1` so at least one machine
    /// survives (a count of zero disables failures entirely, which is how
    /// the cluster-less legacy data path opts out).
    pub fn from_spec(seed: u64, spec: &FaultSpec, machine_count: u32) -> Self {
        if !spec.is_active() {
            return FaultPlan::empty();
        }
        debug_assert!(spec.validate().is_ok(), "expanding an invalid fault spec");
        let mut rng = DetRng::seed_from(seed ^ FAULT_SALT);
        let (lo, hi) = (spec.start.as_nanos(), spec.horizon.as_nanos());
        let onset = |rng: &mut DetRng| Nanos::from_nanos(rng.gen_range_u64(lo, hi));

        let mut epochs = Vec::new();
        for (count, kind, multiplier) in [
            (
                spec.latency_spikes,
                FaultEpochKind::LatencySpike,
                u64::from(spec.spike_multiplier_milli),
            ),
            (
                spec.degraded_epochs,
                FaultEpochKind::DegradedBandwidth,
                u64::from(spec.degraded_multiplier_milli),
            ),
            (
                spec.reconnect_storms,
                FaultEpochKind::ReconnectStorm,
                MULTIPLIER_IDENTITY_MILLI,
            ),
        ] {
            for _ in 0..count {
                let start = onset(&mut rng);
                epochs.push(FaultEpoch {
                    kind,
                    start,
                    end: start.saturating_add(spec.epoch),
                    multiplier_milli: multiplier,
                });
            }
        }
        epochs.sort_by_key(|e| (e.start, e.kind, e.end));

        let mut failures = Vec::new();
        let victims_available = machine_count.saturating_sub(1);
        let wanted = spec.machine_failures.min(victims_available);
        let mut victims: Vec<u32> = Vec::with_capacity(wanted as usize);
        for _ in 0..wanted {
            // Distinct victims: resample until unused. Terminates because
            // `wanted` never exceeds machine_count - 1.
            let mut victim = rng.gen_range_u64(0, u64::from(machine_count)) as u32;
            while victims.contains(&victim) {
                victim = rng.gen_range_u64(0, u64::from(machine_count)) as u32;
            }
            victims.push(victim);
            failures.push(MachineFailure {
                at: onset(&mut rng),
                victim,
            });
        }
        failures.sort_by_key(|f| (f.at, f.victim));

        // Partitions are drawn last so specs without them expand to exactly
        // the draws (and therefore the schedule) they produced before link
        // partitions existed.
        let mut partitions = Vec::new();
        if machine_count > 0 {
            for _ in 0..spec.partition_epochs {
                let start = onset(&mut rng);
                partitions.push(PartitionEpoch {
                    start,
                    end: start.saturating_add(spec.epoch),
                    machine: rng.gen_range_u64(0, u64::from(machine_count)) as u32,
                    shard: rng.gen_range_u64(0, u64::from(PARTITION_LINK_SHARDS)) as u32,
                });
            }
        }
        partitions.sort_by_key(|p| (p.start, p.machine, p.shard, p.end));

        FaultPlan {
            spec: *spec,
            epochs,
            failures,
            partitions,
        }
    }

    /// Assembles a plan from explicit parts, sorting each schedule the same
    /// way [`from_spec`] does. Intended for tests and tools that need a
    /// precise schedule; [`from_spec`] is the normal constructor.
    ///
    /// [`from_spec`]: FaultPlan::from_spec
    pub fn from_parts(
        spec: FaultSpec,
        mut epochs: Vec<FaultEpoch>,
        mut failures: Vec<MachineFailure>,
        mut partitions: Vec<PartitionEpoch>,
    ) -> Self {
        epochs.sort_by_key(|e| (e.start, e.kind, e.end));
        failures.sort_by_key(|f| (f.at, f.victim));
        partitions.sort_by_key(|p| (p.start, p.machine, p.shard, p.end));
        FaultPlan {
            spec,
            epochs,
            failures,
            partitions,
        }
    }

    /// The modifiers a request issued at `now` must pay.
    ///
    /// The empty plan returns [`FaultModifiers::IDENTITY`] without touching
    /// the epoch list, keeping the healthy hot path allocation- and
    /// branch-cheap.
    pub fn modifiers_at(&self, now: Nanos) -> FaultModifiers {
        if self.epochs.is_empty() {
            return FaultModifiers::IDENTITY;
        }
        let mut mods = FaultModifiers::IDENTITY;
        for epoch in &self.epochs {
            if epoch.start > now {
                break;
            }
            if !epoch.covers(now) {
                continue;
            }
            match epoch.kind {
                FaultEpochKind::LatencySpike => {
                    mods.spike_active = true;
                    mods.multiplier_milli =
                        compose_multiplier_milli(mods.multiplier_milli, epoch.multiplier_milli);
                }
                FaultEpochKind::DegradedBandwidth => {
                    mods.degraded_active = true;
                    mods.multiplier_milli =
                        compose_multiplier_milli(mods.multiplier_milli, epoch.multiplier_milli);
                }
                FaultEpochKind::ReconnectStorm => {
                    mods.reconnect_penalty = mods
                        .reconnect_penalty
                        .saturating_add(self.spec.reconnect_penalty);
                }
            }
        }
        mods
    }
}

/// Composes two multipliers expressed in thousandths (overlapping epochs
/// multiply: a 6× spike inside a 3× degraded epoch is 18× slower).
fn compose_multiplier_milli(a: u64, b: u64) -> u64 {
    ((u128::from(a) * u128::from(b)) / u128::from(MULTIPLIER_IDENTITY_MILLI)) as u64
}

/// Scales a sampled latency by a multiplier in thousandths. The identity
/// multiplier returns the base unchanged (bit-identical healthy runs).
///
/// Delegates to [`leap_sim_core::scale_nanos_milli`], the single scaling
/// primitive every sampler's `sample_scaled` folds epoch multipliers with.
#[inline]
pub fn scale_latency_milli(base: Nanos, multiplier_milli: u64) -> Nanos {
    leap_sim_core::scale_nanos_milli(base, multiplier_milli)
}

/// Per-run fault-injection accounting, merged across shards.
///
/// The checksum folds a word per fault event in shard-deterministic order
/// (FNV-style, the same constants as the engine's pipeline stats) and merges
/// across shards with a commutative `wrapping_add`, so `Serial` and
/// `Threaded` replays of the same `(seed, plan)` agree bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultInjectionStats {
    /// Requests served during at least one latency-spike epoch.
    pub spiked_requests: u64,
    /// Requests served during at least one degraded-bandwidth epoch.
    pub degraded_requests: u64,
    /// Requests that paid a reconnect penalty during a storm.
    pub reconnect_requests: u64,
    /// Total reconnect penalty paid.
    pub reconnect_penalty_total: Nanos,
    /// Machine failures applied.
    pub machines_failed: u64,
    /// In-flight dispatch-queue requests cancelled by failures.
    pub cancelled_requests: u64,
    /// Slabs that lost a replica and were re-replicated onto a survivor.
    pub slabs_rereplicated: u64,
    /// Slabs that lost every replica and were rebuilt from the durable tier.
    pub slabs_lost: u64,
    /// Total reconstruction cost charged to subsequent requests.
    pub reconstruction_cost_total: Nanos,
    /// Order-sensitive FNV fold of every fault event (commutative merge).
    pub checksum: u64,
}

impl Default for FaultInjectionStats {
    fn default() -> Self {
        FaultInjectionStats {
            spiked_requests: 0,
            degraded_requests: 0,
            reconnect_requests: 0,
            reconnect_penalty_total: Nanos::ZERO,
            machines_failed: 0,
            cancelled_requests: 0,
            slabs_rereplicated: 0,
            slabs_lost: 0,
            reconstruction_cost_total: Nanos::ZERO,
            checksum: CHECKSUM_SEED,
        }
    }
}

impl FaultInjectionStats {
    /// True if no fault touched the run (the checksum still holds its seed).
    pub fn is_quiet(&self) -> bool {
        *self == FaultInjectionStats::default()
    }

    /// Folds one event word into the checksum (order-sensitive per shard).
    pub fn record(&mut self, word: u64) {
        self.checksum = checksum_fold(self.checksum, word);
    }

    /// Merges another shard's stats into this one. Counter fields add;
    /// checksums combine by adding the other shard's *drift* from the FNV
    /// offset basis — commutative, so the merge order (and therefore
    /// the replay mode) does not matter, and quiet shards leave the
    /// aggregate exactly untouched (a healthy multi-shard run stays equal
    /// to [`FaultInjectionStats::default`]).
    pub fn merge(&mut self, other: &FaultInjectionStats) {
        self.spiked_requests += other.spiked_requests;
        self.degraded_requests += other.degraded_requests;
        self.reconnect_requests += other.reconnect_requests;
        self.reconnect_penalty_total = self
            .reconnect_penalty_total
            .saturating_add(other.reconnect_penalty_total);
        self.machines_failed += other.machines_failed;
        self.cancelled_requests += other.cancelled_requests;
        self.slabs_rereplicated += other.slabs_rereplicated;
        self.slabs_lost += other.slabs_lost;
        self.reconstruction_cost_total = self
            .reconstruction_cost_total
            .saturating_add(other.reconstruction_cost_total);
        self.checksum = self
            .checksum
            .wrapping_add(other.checksum.wrapping_sub(CHECKSUM_SEED));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FaultSpec {
        FaultSpec {
            latency_spikes: 2,
            spike_multiplier_milli: 4_000,
            degraded_epochs: 1,
            degraded_multiplier_milli: 2_000,
            machine_failures: 2,
            reconnect_storms: 1,
            reconnect_penalty: Nanos::from_micros(10),
            epoch: Nanos::from_micros(100),
            start: Nanos::from_micros(10),
            horizon: Nanos::from_micros(500),
            partition_epochs: 2,
            target_tenant: 0,
        }
    }

    #[test]
    fn none_is_inactive_and_valid() {
        let spec = FaultSpec::none();
        assert!(!spec.is_active());
        assert!(spec.validate().is_ok());
        assert!(FaultPlan::from_spec(1, &spec, 4).is_empty());
    }

    #[test]
    fn validation_catches_bad_specs() {
        let mut spec = small_spec();
        spec.horizon = spec.start;
        assert!(spec.validate().is_err());

        let mut spec = small_spec();
        spec.epoch = Nanos::ZERO;
        assert!(spec.validate().is_err());

        let mut spec = small_spec();
        spec.spike_multiplier_milli = 500;
        assert!(spec.validate().is_err());

        let mut spec = small_spec();
        spec.reconnect_penalty = Nanos::ZERO;
        assert!(spec.validate().is_err());

        assert!(small_spec().validate().is_ok());
        assert!(FaultSpec::canonical_storm().validate().is_ok());
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let spec = small_spec();
        let parsed = FaultSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(spec, parsed);
        // Missing keys default; unknown keys error.
        let empty = FaultSpec::from_json("{}").expect("empty object");
        assert_eq!(empty, FaultSpec::none());
        assert!(FaultSpec::from_json("{\"fault_bogus\":1}").is_err());
        assert!(FaultSpec::from_json("not json").is_err());
    }

    #[test]
    fn plan_expansion_is_deterministic() {
        let spec = small_spec();
        let a = FaultPlan::from_spec(42, &spec, 4);
        let b = FaultPlan::from_spec(42, &spec, 4);
        assert_eq!(a, b);
        let c = FaultPlan::from_spec(43, &spec, 4);
        assert_ne!(a, c, "different seeds should reshuffle the schedule");
    }

    #[test]
    fn plan_schedules_expected_counts_in_window() {
        let spec = small_spec();
        let plan = FaultPlan::from_spec(7, &spec, 4);
        assert_eq!(plan.epochs().len(), 4); // 2 spikes + 1 degraded + 1 storm
        assert_eq!(plan.failures().len(), 2);
        for e in plan.epochs() {
            assert!(e.start >= spec.start && e.start < spec.horizon);
            assert_eq!(e.end, e.start.saturating_add(spec.epoch));
        }
        let mut victims: Vec<u32> = plan.failures().iter().map(|f| f.victim).collect();
        victims.dedup();
        assert_eq!(victims.len(), 2, "victims must be distinct");
        for f in plan.failures() {
            assert!(f.victim < 4);
            assert!(f.at >= spec.start && f.at < spec.horizon);
        }
        assert_eq!(plan.partitions().len(), 2);
        for p in plan.partitions() {
            assert!(p.start >= spec.start && p.start < spec.horizon);
            assert_eq!(p.end, p.start.saturating_add(spec.epoch));
            assert!(p.machine < 4);
            assert!(p.shard < PARTITION_LINK_SHARDS);
        }
    }

    #[test]
    fn partition_draws_ride_after_legacy_draws() {
        // A spec without partitions must expand to exactly the schedule it
        // produced before partitions existed: the partition draws come last.
        let with = small_spec();
        let mut without = small_spec();
        without.partition_epochs = 0;
        let plan_with = FaultPlan::from_spec(42, &with, 4);
        let plan_without = FaultPlan::from_spec(42, &without, 4);
        assert_eq!(plan_with.epochs(), plan_without.epochs());
        assert_eq!(plan_with.failures(), plan_without.failures());
        assert!(plan_without.partitions().is_empty());
        assert_eq!(plan_with.partitions().len(), 2);
    }

    #[test]
    fn link_partitions_sever_one_shard_only() {
        let partition = PartitionEpoch {
            start: Nanos::from_micros(10),
            end: Nanos::from_micros(20),
            machine: 1,
            shard: 2,
        };
        let mut plan = FaultPlan::empty();
        plan.partitions = vec![partition];
        assert!(plan.has_partitions());
        let mid = Nanos::from_micros(15);
        assert!(plan.link_partitioned(2, 1, mid));
        assert!(plan.link_partitioned(6, 1, mid), "core 6 maps to shard 2");
        assert!(
            !plan.link_partitioned(1, 1, mid),
            "other shards keep the link"
        );
        assert!(
            !plan.link_partitioned(2, 0, mid),
            "other machines unaffected"
        );
        assert!(
            !plan.link_partitioned(2, 1, Nanos::from_micros(20)),
            "end exclusive"
        );
        assert!(
            !plan.link_partitioned(2, 1, Nanos::from_micros(9)),
            "start inclusive"
        );
    }

    #[test]
    fn tenant_targeting_filters_epochs() {
        let mut plan = FaultPlan::empty();
        assert!(plan.applies_to_tenant(0));
        assert!(plan.applies_to_tenant(7));
        plan.spec.target_tenant = 3;
        assert!(plan.applies_to_tenant(3));
        assert!(!plan.applies_to_tenant(1));
        assert!(
            !plan.applies_to_tenant(0),
            "untagged traffic escapes a targeted plan"
        );
    }

    #[test]
    fn from_json_errors_are_typed() {
        assert_eq!(
            FaultSpec::from_json("not json"),
            Err(FaultJsonError::NotAnObject)
        );
        assert_eq!(
            FaultSpec::from_json("{\"fault_bogus\":1}"),
            Err(FaultJsonError::UnknownKey("fault_bogus".to_string()))
        );
        assert_eq!(
            FaultSpec::from_json("{\"fault_latency_spikes\" 3}"),
            Err(FaultJsonError::MalformedPair(
                "\"fault_latency_spikes\" 3".to_string()
            ))
        );
        assert_eq!(
            FaultSpec::from_json("{\"fault_latency_spikes\":\"many\"}"),
            Err(FaultJsonError::BadValue {
                key: "fault_latency_spikes".to_string(),
                value: "\"many\"".to_string(),
            })
        );
        assert!(matches!(
            FaultSpec::from_json("{\"fault_latency_spikes\":1}"),
            Err(FaultJsonError::InvalidSpec(_)),
        ));
    }

    #[test]
    fn failures_capped_below_machine_count() {
        let mut spec = small_spec();
        spec.machine_failures = 10;
        assert_eq!(FaultPlan::from_spec(1, &spec, 3).failures().len(), 2);
        assert!(FaultPlan::from_spec(1, &spec, 1).failures().is_empty());
        assert!(FaultPlan::from_spec(1, &spec, 0).failures().is_empty());
    }

    #[test]
    fn modifiers_compose_multiplicatively() {
        let mut plan = FaultPlan::empty();
        assert!(plan.modifiers_at(Nanos::from_micros(5)).is_identity());
        plan.spec.reconnect_penalty = Nanos::from_micros(10);
        plan.epochs = vec![
            FaultEpoch {
                kind: FaultEpochKind::LatencySpike,
                start: Nanos::from_micros(0),
                end: Nanos::from_micros(100),
                multiplier_milli: 6_000,
            },
            FaultEpoch {
                kind: FaultEpochKind::DegradedBandwidth,
                start: Nanos::from_micros(50),
                end: Nanos::from_micros(150),
                multiplier_milli: 3_000,
            },
            FaultEpoch {
                kind: FaultEpochKind::ReconnectStorm,
                start: Nanos::from_micros(120),
                end: Nanos::from_micros(200),
                multiplier_milli: 1_000,
            },
        ];
        let early = plan.modifiers_at(Nanos::from_micros(10));
        assert_eq!(early.multiplier_milli, 6_000);
        assert!(early.spike_active && !early.degraded_active);
        let overlap = plan.modifiers_at(Nanos::from_micros(75));
        assert_eq!(overlap.multiplier_milli, 18_000);
        let storm = plan.modifiers_at(Nanos::from_micros(130));
        assert_eq!(storm.multiplier_milli, 3_000);
        assert_eq!(storm.reconnect_penalty, Nanos::from_micros(10));
        assert!(plan.modifiers_at(Nanos::from_micros(500)).is_identity());
    }

    #[test]
    fn epoch_bounds_are_inclusive_exclusive() {
        let e = FaultEpoch {
            kind: FaultEpochKind::LatencySpike,
            start: Nanos::from_nanos(100),
            end: Nanos::from_nanos(200),
            multiplier_milli: 2_000,
        };
        assert!(e.covers(Nanos::from_nanos(100)));
        assert!(e.covers(Nanos::from_nanos(199)));
        assert!(!e.covers(Nanos::from_nanos(200)));
        assert!(!e.covers(Nanos::from_nanos(99)));
    }

    #[test]
    fn latency_scaling_identity_and_growth() {
        let base = Nanos::from_micros(4);
        assert_eq!(scale_latency_milli(base, 1_000), base);
        assert_eq!(scale_latency_milli(base, 2_500), Nanos::from_micros(10));
        assert_eq!(
            scale_latency_milli(Nanos::from_nanos(u64::MAX), 4_000),
            Nanos::from_nanos(u64::MAX),
            "scaling saturates instead of wrapping"
        );
    }

    #[test]
    fn stats_merge_is_commutative_on_checksums() {
        let mut a = FaultInjectionStats::default();
        a.record(11);
        a.record(22);
        a.spiked_requests = 2;
        let mut b = FaultInjectionStats::default();
        b.record(33);
        b.machines_failed = 1;

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab.checksum, ba.checksum);
        assert_eq!(ab.spiked_requests, 2);
        assert_eq!(ab.machines_failed, 1);
        assert!(!ab.is_quiet());
        assert!(FaultInjectionStats::default().is_quiet());

        // Quiet shards leave an aggregate untouched: merging any number of
        // defaults into a default stays exactly the default, so a healthy
        // multi-shard run reports `is_quiet()`.
        let mut aggregate = FaultInjectionStats::default();
        for _ in 0..4 {
            aggregate.merge(&FaultInjectionStats::default());
        }
        assert!(aggregate.is_quiet());
    }

    #[test]
    fn record_order_changes_the_checksum() {
        let mut a = FaultInjectionStats::default();
        a.record(1);
        a.record(2);
        let mut b = FaultInjectionStats::default();
        b.record(2);
        b.record(1);
        assert_ne!(
            a.checksum, b.checksum,
            "per-shard folding is order-sensitive"
        );
    }
}
