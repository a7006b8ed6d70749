//! The host agent: slab placement, replication, and remote I/O.
//!
//! Each host machine runs an agent that exposes a remote I/O interface to the
//! VFS/VMM (§4.4). The agent divides the remote address space into slabs,
//! places each slab on remote machines using the power of two choices to keep
//! memory balanced (§4.5), optionally replicates slabs for fault tolerance,
//! and forwards page reads/writes to per-core RDMA dispatch queues.

use crate::backend::{BackendKind, StorageBackend};
use crate::dispatch::DispatchQueues;
use crate::fault::{scale_latency_milli, FaultInjectionStats, FaultModifiers, FaultPlan};
use crate::recovery::{self, RecoveryPolicy, RecoveryStats, TenantRecovery};
use crate::slab::{MachineId, RemoteCluster, SlabId, SlabMap, DEFAULT_SLAB_BYTES};
use leap_sim_core::{DetRng, Nanos};
use std::collections::BTreeMap;

/// Pages copied from a surviving replica when one lost copy is rebuilt.
const REREPLICATION_PAGES: u64 = 64;
/// Pages re-fetched from the durable tier when every replica is lost.
const FULL_RECOVERY_PAGES: u64 = 256;

/// Whether a remote I/O is a read (page-in) or a write (page-out).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteIoKind {
    /// Fetch a page from remote memory.
    Read,
    /// Push a page to remote memory.
    Write,
}

/// The latency breakdown of one remote I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteIoResult {
    /// Which machine served the primary copy.
    pub machine: MachineId,
    /// Delay spent waiting in the per-core dispatch queue.
    pub queueing_delay: Nanos,
    /// Transport + remote-side service time.
    pub transport_latency: Nanos,
    /// Total latency as seen by the caller.
    pub total: Nanos,
}

/// Configuration for a [`HostAgent`].
#[derive(Debug, Clone, Copy)]
pub struct HostAgentConfig {
    /// Slab size in bytes (default 1 GB).
    pub slab_bytes: u64,
    /// Number of per-core dispatch queues (default 8).
    pub cores: usize,
    /// Number of replicas per slab, including the primary (default 2:
    /// remote in-memory replication is Leap's default fault-tolerance story).
    pub replication: usize,
    /// The transport/device used to reach remote memory (default RDMA).
    pub backend: BackendKind,
}

impl Default for HostAgentConfig {
    fn default() -> Self {
        HostAgentConfig {
            slab_bytes: DEFAULT_SLAB_BYTES,
            cores: 8,
            replication: 2,
            backend: BackendKind::Rdma,
        }
    }
}

/// The host-side remote memory agent.
///
/// # Examples
///
/// ```
/// use leap_remote::{HostAgent, HostAgentConfig, RemoteCluster, RemoteIoKind};
/// use leap_sim_core::{DetRng, Nanos};
///
/// let cluster = RemoteCluster::homogeneous(3, 64);
/// let mut agent = HostAgent::new(HostAgentConfig::default(), cluster, DetRng::seed_from(1));
/// let result = agent
///     .remote_io(RemoteIoKind::Read, 12_345, 0, Nanos::ZERO)
///     .expect("cluster has capacity");
/// assert!(result.total >= result.transport_latency);
/// ```
#[derive(Debug)]
pub struct HostAgent {
    config: HostAgentConfig,
    cluster: RemoteCluster,
    slab_map: SlabMap,
    backend: StorageBackend,
    queues: DispatchQueues,
    rng: DetRng,
    reads: u64,
    writes: u64,
    /// The installed fault schedule; empty by default (healthy fabric).
    plan: FaultPlan,
    /// Cursor into `plan.failures()`: failures at or before the current
    /// request time have been applied.
    next_failure: usize,
    /// Accounting for every fault the agent observed.
    fault_stats: FaultInjectionStats,
    /// Reconstruction cost accrued by slab repairs, charged to the transport
    /// latency of the next request (the repair stalls the fabric, and the
    /// next page access pays for it).
    pending_reconstruction: Nanos,
    /// The installed recovery policy; `none()` by default, in which case no
    /// recovery branch fires and no recovery RNG stream is ever derived.
    recovery: RecoveryPolicy,
    /// Root seed for per-request recovery RNG streams (already salted by the
    /// caller via [`recovery::recovery_stream_seed`]).
    recovery_seed: u64,
    /// Shard-local ordinal of recovery-considered requests; each request
    /// derives its own stream from `(recovery_seed, ordinal)`, so recovery
    /// decisions never advance a shared stream.
    recovery_requests: u64,
    /// Accounting for every recovery action the agent took.
    recovery_stats: RecoveryStats,
    /// The tenant the currently executing access belongs to (`0` = untagged
    /// single-process traffic). Set by the engine before every access.
    active_tenant: u32,
    /// Per-tenant recovery ledger; only touched for tagged traffic, so the
    /// single-tenant hot path never probes the map.
    tenant_recovery: BTreeMap<u32, TenantRecovery>,
}

impl HostAgent {
    /// Creates an agent over the given cluster.
    ///
    /// # Panics
    ///
    /// Panics if `config.replication` is zero or `config.cores` is zero.
    pub fn new(config: HostAgentConfig, cluster: RemoteCluster, rng: DetRng) -> Self {
        assert!(config.replication >= 1, "replication must be at least 1");
        HostAgent {
            slab_map: SlabMap::new(config.slab_bytes),
            backend: StorageBackend::new(config.backend),
            queues: DispatchQueues::new(config.cores),
            config,
            cluster,
            rng,
            reads: 0,
            writes: 0,
            plan: FaultPlan::empty(),
            next_failure: 0,
            fault_stats: FaultInjectionStats::default(),
            pending_reconstruction: Nanos::ZERO,
            recovery: RecoveryPolicy::none(),
            recovery_seed: 0,
            recovery_requests: 0,
            recovery_stats: RecoveryStats::default(),
            active_tenant: 0,
            tenant_recovery: BTreeMap::new(),
        }
    }

    /// Replaces the backend latency model (useful for tests and ablations).
    pub fn set_backend(&mut self, backend: StorageBackend) {
        self.backend = backend;
    }

    /// Installs a fault schedule. The empty plan (the default) reproduces
    /// healthy runs bit-for-bit: no RNG stream is perturbed and no fault
    /// branch fires.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.next_failure = 0;
    }

    /// The installed fault schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Fault-injection accounting for this agent.
    pub fn fault_stats(&self) -> FaultInjectionStats {
        self.fault_stats
    }

    /// Installs the recovery policy and the (already salted) recovery stream
    /// seed. [`RecoveryPolicy::none`] — the default — keeps every request on
    /// the exact pre-recovery code path: no extra RNG derivation, no extra
    /// queue operation, no checksum word.
    pub fn install_recovery(&mut self, policy: RecoveryPolicy, recovery_seed: u64) {
        self.recovery = policy;
        self.recovery_seed = recovery_seed;
        self.recovery_requests = 0;
    }

    /// The installed recovery policy.
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.recovery
    }

    /// Recovery accounting for this agent.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery_stats
    }

    /// Per-tenant recovery ledgers, sorted by tenant id.
    pub fn tenant_recovery(&self) -> Vec<(u32, TenantRecovery)> {
        self.tenant_recovery
            .iter()
            .map(|(&tenant, &ledger)| (tenant, ledger))
            .collect()
    }

    /// Tags subsequent accesses with the tenant that issued them (`0` clears
    /// the tag). The engine calls this before every access so
    /// tenant-targeted fault plans and per-tenant recovery ledgers attribute
    /// work correctly.
    pub fn set_active_tenant(&mut self, tenant: u32) {
        self.active_tenant = tenant;
    }

    /// The agent configuration.
    pub fn config(&self) -> &HostAgentConfig {
        &self.config
    }

    /// The cluster state (for balance/inventory reports).
    pub fn cluster(&self) -> &RemoteCluster {
        &self.cluster
    }

    /// Number of slabs the agent has mapped so far.
    pub fn mapped_slabs(&self) -> usize {
        self.slab_map.mapped_slabs()
    }

    /// Total reads and writes served.
    pub fn io_counts(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// Ensures the slab containing `page_offset` is mapped, placing it with
    /// the power of two choices (plus replicas) if needed. A slab whose
    /// placement includes a failed machine is repaired first (failover to a
    /// survivor + deterministic re-replication).
    ///
    /// Returns the primary machine, or `None` if the cluster is out of slab
    /// capacity.
    pub fn ensure_mapped(&mut self, page_offset: u64) -> Option<MachineId> {
        let slab = self.slab_map.slab_of_page(page_offset);
        match self.slab_map.machines_of(slab) {
            Some(machines) => {
                if machines.iter().all(|&m| !self.cluster.is_failed(m)) {
                    return machines.first().copied();
                }
                self.repair_slab(slab)
            }
            None => {
                let placements = self.place_slab()?;
                let primary = placements.first().copied();
                self.slab_map.place(slab, placements);
                primary
            }
        }
    }

    /// Repairs a slab whose placement references at least one failed
    /// machine: surviving copies are kept (the first survivor becomes the
    /// primary) and each lost copy is re-replicated onto the least-loaded
    /// alive machine — a deterministic choice, so no RNG stream moves. If
    /// every copy was lost, the slab is re-placed from scratch and its pages
    /// are charged the (much larger) durable-tier recovery cost.
    ///
    /// The repaired placement only references alive machines, so subsequent
    /// requests take the fast path again: each failure repairs a slab at
    /// most once.
    fn repair_slab(&mut self, slab: SlabId) -> Option<MachineId> {
        let old = self.slab_map.machines_of(slab)?.to_vec();
        let survivors: Vec<MachineId> = old
            .iter()
            .copied()
            .filter(|&m| !self.cluster.is_failed(m))
            .collect();
        let lost = old.len() - survivors.len();
        let nominal = self.backend.nominal_read_latency();

        let (placements, cost) = if survivors.is_empty() {
            // Every replica died: recover the slab from the durable tier.
            let placements = self.place_slab()?;
            self.fault_stats.slabs_lost += 1;
            self.fault_stats
                .record(0x51ab_1057u64 ^ slab.0.rotate_left(17));
            let cost = Nanos::from_nanos(nominal.as_nanos().saturating_mul(FULL_RECOVERY_PAGES));
            (placements, cost)
        } else {
            // Failover: survivors stay, first survivor is promoted primary;
            // lost copies are rebuilt from a survivor.
            let mut placements = survivors;
            for _ in 0..lost {
                match self.least_loaded_alive_excluding(&placements) {
                    Some(idx) => match self.cluster.host_slab_on(idx) {
                        Some(id) => placements.push(id),
                        None => break,
                    },
                    // No spare machine: degrade replication rather than fail.
                    None => break,
                }
            }
            self.fault_stats.slabs_rereplicated += 1;
            self.fault_stats
                .record(0x5e9e_9a7eu64 ^ slab.0.rotate_left(9));
            let cost = Nanos::from_nanos(
                nominal
                    .as_nanos()
                    .saturating_mul(REREPLICATION_PAGES * lost as u64),
            );
            (placements, cost)
        };

        self.fault_stats.reconstruction_cost_total = self
            .fault_stats
            .reconstruction_cost_total
            .saturating_add(cost);
        self.pending_reconstruction = self.pending_reconstruction.saturating_add(cost);
        let primary = placements.first().copied();
        self.slab_map.place(slab, placements);
        primary
    }

    /// The least-loaded alive machine whose id is not in `exclude`, if any.
    fn least_loaded_alive_excluding(&self, exclude: &[MachineId]) -> Option<usize> {
        (0..self.cluster.len())
            .filter_map(|i| {
                let m = self.cluster.machine(i)?;
                if m.is_failed() || m.is_full() || exclude.contains(&m.id()) {
                    return None;
                }
                Some((m.hosted_slabs(), i))
            })
            .min()
            .map(|(_, i)| i)
    }

    /// Places one slab: the primary via the power of two choices over the
    /// alive machines, replicas on the least-loaded remaining ones.
    fn place_slab(&mut self) -> Option<Vec<MachineId>> {
        // Only alive machines are placement candidates. On a healthy
        // cluster this is the identity mapping, so the RNG draws below are
        // bit-identical to a fault-free build.
        let alive: Vec<usize> = (0..self.cluster.len())
            .filter(|&i| {
                self.cluster
                    .machine(i)
                    .map(|m| !m.is_failed())
                    .unwrap_or(false)
            })
            .collect();
        let n = alive.len();
        if n == 0 {
            return None;
        }
        let mut chosen: Vec<usize> = Vec::new();

        // Primary: power of two choices — sample two distinct machines and
        // keep the less loaded one (§4.5).
        let primary = if n == 1 {
            alive[0]
        } else {
            let a = alive[self.rng.gen_range_usize(0, n)];
            let mut b = alive[self.rng.gen_range_usize(0, n)];
            while b == a {
                b = alive[self.rng.gen_range_usize(0, n)];
            }
            let load = |i: usize| {
                self.cluster
                    .machine(i)
                    .map(|m| (m.is_full(), m.hosted_slabs()))
                    .unwrap_or((true, u64::MAX))
            };
            if load(a) <= load(b) {
                a
            } else {
                b
            }
        };
        chosen.push(primary);

        // Replicas: pick the least-loaded machines not already chosen.
        let replicas_needed = self.config.replication.saturating_sub(1).min(n - 1);
        let mut candidates: Vec<usize> = alive
            .iter()
            .copied()
            .filter(|i| !chosen.contains(i))
            .collect();
        candidates.sort_by_key(|&i| {
            self.cluster
                .machine(i)
                .map(|m| m.hosted_slabs())
                .unwrap_or(u64::MAX)
        });
        chosen.extend(candidates.into_iter().take(replicas_needed));

        // Commit the placements; bail out if any chosen machine is full.
        let mut ids = Vec::with_capacity(chosen.len());
        for idx in chosen {
            match self.cluster.host_slab_on(idx) {
                Some(id) => ids.push(id),
                None => {
                    if ids.is_empty() {
                        return None;
                    }
                    // Primary fits but a replica host is full: degrade the
                    // replication factor rather than failing the mapping.
                    break;
                }
            }
        }
        Some(ids)
    }

    /// Applies every scheduled machine failure whose time has arrived. Each
    /// failure kills the victim machine and cancels the in-flight tails on
    /// all dispatch queues (the requests were travelling to a machine that
    /// no longer exists); the queues clamp to `now`, never backwards.
    fn apply_due_failures(&mut self, now: Nanos) {
        while let Some(failure) = self.plan.failures().get(self.next_failure) {
            if failure.at > now {
                break;
            }
            let failure = *failure;
            self.next_failure += 1;
            if self.cluster.fail_machine(failure.victim as usize).is_some() {
                let cancelled = self.queues.cancel_in_flight(now);
                self.fault_stats.machines_failed += 1;
                self.fault_stats.cancelled_requests += cancelled;
                self.fault_stats.record(
                    0xdead_ac3du64
                        ^ failure.at.as_nanos().rotate_left(5)
                        ^ u64::from(failure.victim),
                );
            }
        }
    }

    /// The fault modifiers the *current access* must pay: the plan's
    /// modifiers at `now`, unless the plan targets a specific tenant and the
    /// active access belongs to someone else. The always-resolve discipline
    /// (resolve, then maybe discard) keeps the code path shape identical for
    /// targeted and untargeted traffic.
    fn effective_modifiers(&self, now: Nanos) -> FaultModifiers {
        let mods = self.plan.modifiers_at(now);
        if self.plan.applies_to_tenant(self.active_tenant) {
            mods
        } else {
            FaultModifiers::IDENTITY
        }
    }

    /// Routes the request around link partitions: returns the machine to
    /// dispatch to, or `None` when every replica of the slab is unreachable
    /// from this core's link shard (the caller degrades to the disk path).
    ///
    /// Partition-free plans (and traffic a targeted plan does not cover)
    /// return the primary unchanged without touching the slab map again.
    fn route_reachable(
        &mut self,
        kind: RemoteIoKind,
        page_offset: u64,
        primary: MachineId,
        core: usize,
        now: Nanos,
    ) -> Option<MachineId> {
        if !self.plan.has_partitions() || !self.plan.applies_to_tenant(self.active_tenant) {
            return Some(primary);
        }
        if !self.plan.link_partitioned(core, primary.0, now) {
            return Some(primary);
        }
        // The primary link is down: fail fast onto the first alive,
        // reachable replica rather than waiting out a timeout.
        let slab = self.slab_map.slab_of_page(page_offset);
        let alternate = self.slab_map.machines_of(slab).and_then(|replicas| {
            replicas.iter().copied().find(|&m| {
                m != primary
                    && !self.cluster.is_failed(m)
                    && !self.plan.link_partitioned(core, m.0, now)
            })
        });
        match alternate {
            Some(machine) => {
                self.recovery_stats.partition_failfasts += 1;
                self.recovery_stats
                    .record(0x9a97_11fdu64 ^ now.as_nanos() ^ u64::from(machine.0));
                Some(machine)
            }
            None => {
                // Every replica is behind a severed link. Reads degrade to
                // the disk-latency path (the caller's `None` branch); writes
                // fall back the same way, modeling a local spill.
                if kind == RemoteIoKind::Read {
                    self.recovery_stats.degraded_reads += 1;
                    if self.active_tenant != 0 {
                        self.tenant_recovery
                            .entry(self.active_tenant)
                            .or_default()
                            .degraded_reads += 1;
                    }
                }
                self.recovery_stats.record(0xd15c_fa11u64 ^ now.as_nanos());
                None
            }
        }
    }

    /// The replica a hedge for `page_offset` would go to: the first alive,
    /// reachable replica other than the one already serving the request.
    fn hedge_replica(
        &self,
        page_offset: u64,
        served: MachineId,
        core: usize,
        now: Nanos,
    ) -> Option<MachineId> {
        let slab = self.slab_map.slab_of_page(page_offset);
        let replicas = self.slab_map.machines_of(slab)?;
        let partitioned = |m: MachineId| {
            self.plan.has_partitions()
                && self.plan.applies_to_tenant(self.active_tenant)
                && self.plan.link_partitioned(core, m.0, now)
        };
        replicas
            .iter()
            .copied()
            .find(|&m| m != served && !self.cluster.is_failed(m) && !partitioned(m))
    }

    /// Resolves the recovery outcome for one request whose primary attempt
    /// (`attempt`, sampled from the agent stream) started at virtual time
    /// `start` and is already staged on queue `core`.
    ///
    /// Returns the recovered service time, measured from `start`. Only
    /// called when the policy is active; all draws come from a per-request
    /// stream derived from `(recovery_seed, ordinal)`, so the agent's base
    /// stream and the attempt sequence are invariant under policy changes.
    #[allow(clippy::too_many_arguments)]
    fn resolve_recovery(
        &mut self,
        kind: RemoteIoKind,
        page_offset: u64,
        served: MachineId,
        core: usize,
        now: Nanos,
        start: Nanos,
        attempt0: Nanos,
        multiplier_milli: u64,
    ) -> Nanos {
        let ordinal = self.recovery_requests;
        self.recovery_requests += 1;
        let mut req_rng = recovery::request_stream(self.recovery_seed, ordinal);
        let mut attempt = attempt0;

        // Hedged reads: after `hedge_delay`, issue the same read to another
        // replica. The hedge travels a different link, so its sample is
        // drawn unscaled (epoch modifiers model the congested primary path);
        // the first virtual completion wins and the loser is cancelled.
        if kind == RemoteIoKind::Read
            && !self.recovery.hedge_delay.is_zero()
            && attempt > self.recovery.hedge_delay
            && self.hedge_replica(page_offset, served, core, now).is_some()
        {
            self.recovery_stats.hedges_issued += 1;
            let hedge_sample = self.backend.read_latency(&mut req_rng);
            let hedge_total = self.recovery.hedge_delay.saturating_add(hedge_sample);
            if hedge_total < attempt {
                let _ = self
                    .queues
                    .cancel_request(core, start.saturating_add(hedge_total));
                self.recovery_stats.hedges_won += 1;
                self.recovery_stats
                    .record(0x4ed6_ed4eu64 ^ now.as_nanos() ^ ordinal.rotate_left(7));
                if self.active_tenant != 0 {
                    self.tenant_recovery
                        .entry(self.active_tenant)
                        .or_default()
                        .hedges_won += 1;
                }
                attempt = hedge_total;
            } else {
                self.recovery_stats.hedges_wasted += 1;
                self.recovery_stats
                    .record(0x4ed6_0000u64 ^ now.as_nanos() ^ ordinal.rotate_left(7));
            }
        }

        // Deadline + retry/backoff. The deadline is expressed in
        // healthy-fabric terms and scaled by the epoch multiplier in force,
        // so a known fabric-wide slowdown does not trip every request — only
        // genuine outliers relative to the current regime get retried.
        let mut elapsed = Nanos::ZERO;
        if !self.recovery.timeout.is_zero() && self.recovery.max_retries > 0 {
            let deadline = scale_latency_milli(self.recovery.timeout, multiplier_milli);
            let mut retries = 0u32;
            while attempt > deadline && retries < self.recovery.max_retries {
                let _ = self
                    .queues
                    .cancel_request(core, start.saturating_add(elapsed).saturating_add(deadline));
                self.recovery_stats.deadline_timeouts += 1;
                elapsed = elapsed.saturating_add(deadline);
                let mut backoff = Nanos::from_nanos(
                    self.recovery
                        .backoff_base
                        .as_nanos()
                        .saturating_mul(1u64 << retries.min(20)),
                );
                if !self.recovery.backoff_jitter.is_zero() {
                    backoff = backoff.saturating_add(Nanos::from_nanos(
                        req_rng.gen_range_u64(0, self.recovery.backoff_jitter.as_nanos()),
                    ));
                }
                elapsed = elapsed.saturating_add(backoff);
                self.recovery_stats.backoff_wait_total = self
                    .recovery_stats
                    .backoff_wait_total
                    .saturating_add(backoff);
                retries += 1;
                self.recovery_stats.retries += 1;
                self.recovery_stats.record(
                    0x4e74_4e74u64 ^ now.as_nanos() ^ u64::from(retries) ^ ordinal.rotate_left(13),
                );
                if self.active_tenant != 0 {
                    self.tenant_recovery
                        .entry(self.active_tenant)
                        .or_default()
                        .retries += 1;
                }
                // Retry against the next-best replica over the same (still
                // congested) fabric: resample scaled by the active epochs.
                attempt = match kind {
                    RemoteIoKind::Read => self
                        .backend
                        .read_latency_scaled(&mut req_rng, multiplier_milli),
                    RemoteIoKind::Write => self
                        .backend
                        .write_latency_scaled(&mut req_rng, multiplier_milli),
                };
                let _ = self
                    .queues
                    .dispatch(core, start.saturating_add(elapsed), attempt);
            }
        }
        elapsed.saturating_add(attempt)
    }

    /// Performs a remote read or write of the page at `page_offset`, issued
    /// from CPU `core` at time `now`.
    ///
    /// Scheduled faults whose virtual time has arrived are applied first:
    /// machine failures (with slab failover and dispatch-queue
    /// cancellation), then the latency modifiers of any active fault epoch.
    /// With the empty plan every fault branch is dead and the request is
    /// processed exactly as on a healthy fabric — same RNG draws, same
    /// arithmetic, bit-identical results. With an active recovery policy the
    /// sampled attempt is then run through deadline/retry and hedging logic
    /// on a per-request recovery stream.
    ///
    /// Returns `None` if the slab cannot be mapped (cluster full), or if an
    /// active link partition makes every replica unreachable from this core
    /// (the caller serves the page from the disk tier instead).
    pub fn remote_io(
        &mut self,
        kind: RemoteIoKind,
        page_offset: u64,
        core: usize,
        now: Nanos,
    ) -> Option<RemoteIoResult> {
        if !self.plan.is_empty() {
            self.apply_due_failures(now);
        }
        let machine = self.ensure_mapped(page_offset)?;
        let machine = self.route_reachable(kind, page_offset, machine, core, now)?;
        let mods = self.effective_modifiers(now);
        let mut transport = match kind {
            RemoteIoKind::Read => {
                self.reads += 1;
                self.backend
                    .read_latency_scaled(&mut self.rng, mods.multiplier_milli)
            }
            RemoteIoKind::Write => {
                self.writes += 1;
                self.backend
                    .write_latency_scaled(&mut self.rng, mods.multiplier_milli)
            }
        };
        if mods.spike_active {
            self.fault_stats.spiked_requests += 1;
            self.fault_stats.record(0x5b1c_e000u64 ^ now.as_nanos());
        }
        if mods.degraded_active {
            self.fault_stats.degraded_requests += 1;
            self.fault_stats.record(0xde64_ade0u64 ^ now.as_nanos());
        }
        if !mods.reconnect_penalty.is_zero() {
            transport = transport.saturating_add(mods.reconnect_penalty);
            self.fault_stats.reconnect_requests += 1;
            self.fault_stats.reconnect_penalty_total = self
                .fault_stats
                .reconnect_penalty_total
                .saturating_add(mods.reconnect_penalty);
            self.fault_stats.record(0x4ec0_44ecu64 ^ now.as_nanos());
        }
        // The request that triggered (or immediately follows) a slab repair
        // pays the reconstruction stall, before the attempt itself runs.
        let repair = if self.pending_reconstruction.is_zero() {
            Nanos::ZERO
        } else {
            std::mem::replace(&mut self.pending_reconstruction, Nanos::ZERO)
        };
        let outcome = self
            .queues
            .dispatch(core, now, transport.saturating_add(repair));
        let transport = if self.recovery.is_active() {
            // Recovery governs the attempt only — the repair stall is fabric
            // work that no hedge or retry can cancel — so the recovered
            // request starts after queueing and the repair.
            let start = now
                .saturating_add(outcome.queueing_delay)
                .saturating_add(repair);
            repair.saturating_add(self.resolve_recovery(
                kind,
                page_offset,
                machine,
                core,
                now,
                start,
                transport,
                mods.multiplier_milli,
            ))
        } else {
            transport.saturating_add(repair)
        };
        Some(RemoteIoResult {
            machine,
            queueing_delay: outcome.queueing_delay,
            transport_latency: transport,
            total: outcome.queueing_delay.saturating_add(transport),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_sim_core::units::PAGE_SIZE;

    fn agent_with(cluster: RemoteCluster, replication: usize) -> HostAgent {
        let config = HostAgentConfig {
            replication,
            ..HostAgentConfig::default()
        };
        HostAgent::new(config, cluster, DetRng::seed_from(99))
    }

    #[test]
    fn mapping_is_sticky_per_slab() {
        let mut agent = agent_with(RemoteCluster::homogeneous(4, 16), 1);
        let first = agent.ensure_mapped(0).unwrap();
        let again = agent.ensure_mapped(1).unwrap();
        assert_eq!(first, again, "pages in the same slab share a placement");
        assert_eq!(agent.mapped_slabs(), 1);
        // A page far away lands in a different slab.
        let pages_per_slab = DEFAULT_SLAB_BYTES / PAGE_SIZE;
        let _ = agent.ensure_mapped(pages_per_slab + 3).unwrap();
        assert_eq!(agent.mapped_slabs(), 2);
    }

    #[test]
    fn replication_places_multiple_copies() {
        let mut agent = agent_with(RemoteCluster::homogeneous(4, 16), 2);
        let _ = agent.ensure_mapped(0).unwrap();
        // Two machines must each host one slab copy.
        let hosted: u64 = (0..4)
            .map(|i| agent.cluster().machine(i).unwrap().hosted_slabs())
            .sum();
        assert_eq!(hosted, 2);
    }

    #[test]
    fn power_of_two_choices_keeps_imbalance_low() {
        let mut agent = agent_with(RemoteCluster::homogeneous(8, 1_000), 1);
        let pages_per_slab = DEFAULT_SLAB_BYTES / PAGE_SIZE;
        for slab in 0..400u64 {
            let _ = agent.ensure_mapped(slab * pages_per_slab).unwrap();
        }
        // With power of two choices, max-min load imbalance stays tiny
        // compared to the ~50 slabs/machine average.
        assert!(
            agent.cluster().slab_imbalance() <= 10,
            "imbalance {} too high",
            agent.cluster().slab_imbalance()
        );
    }

    #[test]
    fn io_fails_when_cluster_is_full() {
        let mut agent = agent_with(RemoteCluster::homogeneous(1, 1), 1);
        let pages_per_slab = DEFAULT_SLAB_BYTES / PAGE_SIZE;
        assert!(agent
            .remote_io(RemoteIoKind::Read, 0, 0, Nanos::ZERO)
            .is_some());
        assert!(agent
            .remote_io(RemoteIoKind::Read, pages_per_slab, 0, Nanos::ZERO)
            .is_none());
    }

    #[test]
    fn io_counts_and_latency_composition() {
        let mut agent = agent_with(RemoteCluster::homogeneous(2, 8), 1);
        agent.set_backend(StorageBackend::constant(
            BackendKind::Rdma,
            Nanos::from_micros(4),
        ));
        let r = agent
            .remote_io(RemoteIoKind::Read, 0, 0, Nanos::ZERO)
            .unwrap();
        assert_eq!(r.transport_latency, Nanos::from_micros(4));
        assert_eq!(r.total, r.queueing_delay + r.transport_latency);
        let w = agent
            .remote_io(RemoteIoKind::Write, 0, 0, Nanos::ZERO)
            .unwrap();
        assert_eq!(w.transport_latency, Nanos::from_micros(4));
        assert_eq!(agent.io_counts(), (1, 1));
    }

    #[test]
    fn back_to_back_reads_on_one_core_queue_up() {
        let mut agent = agent_with(RemoteCluster::homogeneous(2, 8), 1);
        agent.set_backend(StorageBackend::constant(
            BackendKind::Rdma,
            Nanos::from_micros(4),
        ));
        let first = agent
            .remote_io(RemoteIoKind::Read, 0, 3, Nanos::ZERO)
            .unwrap();
        let second = agent
            .remote_io(RemoteIoKind::Read, 1, 3, Nanos::ZERO)
            .unwrap();
        assert_eq!(first.queueing_delay, Nanos::ZERO);
        assert_eq!(second.queueing_delay, Nanos::from_micros(4));
    }

    #[test]
    fn single_machine_cluster_works_without_replication_choice() {
        let mut agent = agent_with(RemoteCluster::homogeneous(1, 4), 2);
        let r = agent.remote_io(RemoteIoKind::Read, 0, 0, Nanos::ZERO);
        assert!(r.is_some());
        // Replication degrades to one copy because there is only one machine.
        assert_eq!(agent.cluster().machine(0).unwrap().hosted_slabs(), 1);
    }

    #[test]
    fn failed_machine_triggers_failover_to_survivor() {
        let mut agent = agent_with(RemoteCluster::homogeneous(4, 16), 2);
        agent.set_backend(StorageBackend::constant(
            BackendKind::Rdma,
            Nanos::from_micros(4),
        ));
        let primary = agent.ensure_mapped(0).unwrap();
        // Kill the primary; the slab must fail over to the surviving replica
        // and re-replicate exactly once.
        let victim_idx = primary.0 as usize;
        assert!(agent.cluster.fail_machine(victim_idx).is_some());
        let new_primary = agent.ensure_mapped(0).expect("failover succeeds");
        assert_ne!(new_primary, primary);
        assert!(!agent.cluster().is_failed(new_primary));
        assert_eq!(agent.fault_stats().slabs_rereplicated, 1);
        assert_eq!(agent.fault_stats().slabs_lost, 0);
        // Repaired placement references only alive machines, so the next
        // lookup takes the fast path and repairs nothing further.
        let again = agent.ensure_mapped(1).unwrap();
        assert_eq!(again, new_primary);
        assert_eq!(
            agent.fault_stats().slabs_rereplicated,
            1,
            "repair is exactly-once"
        );
        // The reconstruction cost lands on the next remote I/O.
        let io = agent
            .remote_io(RemoteIoKind::Read, 0, 0, Nanos::ZERO)
            .unwrap();
        assert!(io.transport_latency > Nanos::from_micros(4));
        assert!(!agent.fault_stats().reconstruction_cost_total.is_zero());
        let follow_up = agent
            .remote_io(RemoteIoKind::Read, 1, 1, Nanos::ZERO)
            .unwrap();
        assert_eq!(
            follow_up.transport_latency,
            Nanos::from_micros(4),
            "reconstruction is charged once, not per request"
        );
    }

    #[test]
    fn losing_every_replica_recovers_from_durable_tier() {
        let mut agent = agent_with(RemoteCluster::homogeneous(3, 16), 1);
        let primary = agent.ensure_mapped(0).unwrap();
        assert!(agent.cluster.fail_machine(primary.0 as usize).is_some());
        let new_primary = agent.ensure_mapped(0).expect("re-placement succeeds");
        assert_ne!(new_primary, primary);
        assert_eq!(agent.fault_stats().slabs_lost, 1);
        assert_eq!(agent.fault_stats().slabs_rereplicated, 0);
        // Full recovery is costlier than a single-copy rebuild.
        let full = agent.fault_stats().reconstruction_cost_total;
        assert!(full >= Nanos::from_nanos(BackendKind::Rdma.nominal_latency().as_nanos() * 256));
    }

    #[test]
    fn placement_avoids_failed_machines() {
        let mut agent = agent_with(RemoteCluster::homogeneous(4, 64), 1);
        assert!(agent.cluster.fail_machine(0).is_some());
        assert!(agent.cluster.fail_machine(1).is_some());
        let pages_per_slab = DEFAULT_SLAB_BYTES / PAGE_SIZE;
        for slab in 0..20u64 {
            let m = agent.ensure_mapped(slab * pages_per_slab).unwrap();
            assert!(m == MachineId(2) || m == MachineId(3));
        }
    }

    #[test]
    fn empty_plan_changes_nothing() {
        let run = |install_empty: bool| {
            let mut agent = agent_with(RemoteCluster::homogeneous(4, 16), 2);
            if install_empty {
                agent.install_fault_plan(FaultPlan::empty());
            }
            let mut out = Vec::new();
            for i in 0..200u64 {
                let io = agent
                    .remote_io(
                        RemoteIoKind::Read,
                        i * 7,
                        (i % 4) as usize,
                        Nanos::from_nanos(i * 900),
                    )
                    .unwrap();
                out.push((io.machine, io.queueing_delay, io.transport_latency));
            }
            (out, agent.fault_stats())
        };
        let (healthy, healthy_stats) = run(false);
        let (empty_plan, empty_stats) = run(true);
        assert_eq!(healthy, empty_plan, "empty plan must be invisible");
        assert!(healthy_stats.is_quiet() && empty_stats.is_quiet());
        assert_eq!(healthy_stats, empty_stats);
    }

    #[test]
    fn scheduled_failure_applies_once_and_cancels_in_flight() {
        use crate::fault::FaultSpec;
        let spec = FaultSpec {
            machine_failures: 1,
            latency_spikes: 0,
            spike_multiplier_milli: 0,
            degraded_epochs: 0,
            degraded_multiplier_milli: 0,
            reconnect_storms: 0,
            reconnect_penalty: Nanos::ZERO,
            epoch: Nanos::from_micros(50),
            start: Nanos::from_micros(10),
            horizon: Nanos::from_micros(20),
            partition_epochs: 0,
            target_tenant: 0,
        };
        let mut agent = agent_with(RemoteCluster::homogeneous(4, 16), 2);
        agent.set_backend(StorageBackend::constant(
            BackendKind::Rdma,
            Nanos::from_micros(40),
        ));
        agent.install_fault_plan(FaultPlan::from_spec(7, &spec, 4));
        assert_eq!(agent.fault_plan().failures().len(), 1);
        // Before the failure time: healthy, and queue 0 goes busy until 40 µs.
        let _ = agent
            .remote_io(RemoteIoKind::Read, 0, 0, Nanos::ZERO)
            .unwrap();
        assert_eq!(agent.fault_stats().machines_failed, 0);
        // After the failure time the machine dies and the in-flight tail on
        // queue 0 is cancelled (clamped to now, not to zero).
        let now = Nanos::from_micros(25);
        let _ = agent.remote_io(RemoteIoKind::Read, 1, 1, now).unwrap();
        assert_eq!(agent.fault_stats().machines_failed, 1);
        assert_eq!(agent.fault_stats().cancelled_requests, 1);
        assert_eq!(agent.cluster().alive(), 3);
        // Re-running past the failure applies nothing further.
        let _ = agent.remote_io(RemoteIoKind::Read, 2, 2, Nanos::from_micros(30));
        assert_eq!(agent.fault_stats().machines_failed, 1);
    }

    #[test]
    fn disabled_recovery_is_byte_identical() {
        use crate::fault::FaultSpec;
        let run = |install_none: bool| {
            let mut agent = agent_with(RemoteCluster::homogeneous(4, 64), 2);
            agent.install_fault_plan(FaultPlan::from_spec(
                5,
                &FaultSpec::storm_over(Nanos::from_micros(5), Nanos::from_micros(300)),
                4,
            ));
            if install_none {
                agent.install_recovery(RecoveryPolicy::none(), recovery::recovery_stream_seed(5));
            }
            let mut out = Vec::new();
            for i in 0..200u64 {
                let io = agent.remote_io(
                    RemoteIoKind::Read,
                    i * 13,
                    (i % 4) as usize,
                    Nanos::from_nanos(i * 1_700),
                );
                out.push(io);
            }
            (out, agent.fault_stats(), agent.recovery_stats())
        };
        let (base, base_faults, base_recovery) = run(false);
        let (none, none_faults, none_recovery) = run(true);
        assert_eq!(base, none, "RecoveryPolicy::none() must be invisible");
        assert_eq!(base_faults, none_faults);
        assert_eq!(base_recovery, none_recovery);
        assert!(none_recovery.is_quiet());
    }

    #[test]
    fn hedging_caps_spiked_read_latency() {
        use crate::fault::{FaultEpoch, FaultEpochKind, FaultSpec};
        // One spike epoch covering the whole run, 8× slower: every primary
        // read samples ~8× the healthy latency, so a hedge (unscaled sample
        // after the hedge delay, over the other replica's link) should win
        // nearly every time and cap the recovered latency.
        let plan = FaultPlan::from_parts(
            FaultSpec::none(),
            vec![FaultEpoch {
                kind: FaultEpochKind::LatencySpike,
                start: Nanos::ZERO,
                end: Nanos::from_millis(10),
                multiplier_milli: 8_000,
            }],
            Vec::new(),
            Vec::new(),
        );

        let policy = RecoveryPolicy {
            hedge_delay: Nanos::from_micros(8),
            ..RecoveryPolicy::none()
        };
        let run = |with_hedging: bool| {
            let mut agent = agent_with(RemoteCluster::homogeneous(4, 64), 2);
            agent.install_fault_plan(plan.clone());
            if with_hedging {
                agent.install_recovery(policy, recovery::recovery_stream_seed(9));
            }
            let mut latencies: Vec<Nanos> = Vec::new();
            for i in 0..400u64 {
                let io = agent
                    .remote_io(
                        RemoteIoKind::Read,
                        i * 3,
                        (i % 4) as usize,
                        Nanos::from_nanos(i),
                    )
                    .unwrap();
                latencies.push(io.transport_latency);
            }
            latencies.sort();
            (latencies, agent.recovery_stats())
        };
        let (plain, _) = run(false);
        let (hedged, stats) = run(true);
        assert!(stats.hedges_issued > 0, "spiked reads must hedge");
        assert!(
            stats.hedges_won > 0,
            "most hedges should win under an 8x spike"
        );
        let p99 = |v: &[Nanos]| v[(v.len() * 99) / 100 - 1];
        assert!(
            p99(&hedged) <= Nanos::from_nanos(p99(&plain).as_nanos() / 2),
            "hedged p99 {:?} must be well under the spiked p99 {:?}",
            p99(&hedged),
            p99(&plain)
        );
    }

    #[test]
    fn retry_count_is_monotone_in_timeout_tightness() {
        // Tightening the deadline can only retry more, never less: per-request
        // streams make the attempt sequence invariant across timeouts.
        let run = |timeout: Nanos| {
            let mut agent = agent_with(RemoteCluster::homogeneous(4, 64), 2);
            agent.install_recovery(
                RecoveryPolicy {
                    timeout,
                    max_retries: 3,
                    backoff_base: Nanos::from_micros(1),
                    backoff_jitter: Nanos::from_nanos(200),
                    ..RecoveryPolicy::none()
                },
                recovery::recovery_stream_seed(17),
            );
            for i in 0..300u64 {
                let _ = agent.remote_io(
                    RemoteIoKind::Read,
                    i * 5,
                    (i % 4) as usize,
                    Nanos::from_nanos(i * 400),
                );
            }
            agent.recovery_stats().retries
        };
        let tight = run(Nanos::from_micros(5));
        let medium = run(Nanos::from_micros(12));
        let loose = run(Nanos::from_micros(60));
        assert!(tight >= medium, "tight {tight} < medium {medium}");
        assert!(medium >= loose, "medium {medium} < loose {loose}");
        assert!(tight > 0, "a 5 µs deadline must trip on RDMA tails");
    }

    #[test]
    fn partitioned_primary_fails_fast_to_replica() {
        let mut agent = agent_with(RemoteCluster::homogeneous(4, 64), 2);
        let primary = agent.ensure_mapped(0).unwrap();
        let replicas = agent
            .slab_map
            .machines_of(agent.slab_map.slab_of_page(0))
            .unwrap()
            .to_vec();
        assert_eq!(replicas.len(), 2);
        // Sever the (shard of core 1 → primary) link for a window.
        let plan = FaultPlan::from_parts(
            crate::fault::FaultSpec::none(),
            Vec::new(),
            Vec::new(),
            vec![crate::fault::PartitionEpoch {
                start: Nanos::from_micros(10),
                end: Nanos::from_micros(50),
                machine: primary.0,
                shard: 1,
            }],
        );
        agent.install_fault_plan(plan);
        // From core 1, inside the window: served by the other replica.
        let io = agent
            .remote_io(RemoteIoKind::Read, 0, 1, Nanos::from_micros(20))
            .unwrap();
        assert_eq!(io.machine, replicas[1]);
        assert_eq!(agent.recovery_stats().partition_failfasts, 1);
        // From core 0 (a different link shard), the primary still serves.
        let io = agent
            .remote_io(RemoteIoKind::Read, 0, 0, Nanos::from_micros(20))
            .unwrap();
        assert_eq!(io.machine, primary);
        // Outside the window the primary serves from core 1 again.
        let io = agent
            .remote_io(RemoteIoKind::Read, 0, 1, Nanos::from_micros(60))
            .unwrap();
        assert_eq!(io.machine, primary);
    }

    #[test]
    fn all_replicas_partitioned_degrades_read() {
        let mut agent = agent_with(RemoteCluster::homogeneous(2, 64), 2);
        let _ = agent.ensure_mapped(0).unwrap();
        let partitions = (0..2u32)
            .map(|machine| crate::fault::PartitionEpoch {
                start: Nanos::from_micros(10),
                end: Nanos::from_micros(50),
                machine,
                shard: 1,
            })
            .collect();
        let plan = FaultPlan::from_parts(
            crate::fault::FaultSpec::none(),
            Vec::new(),
            Vec::new(),
            partitions,
        );
        agent.install_fault_plan(plan);
        let io = agent.remote_io(RemoteIoKind::Read, 0, 1, Nanos::from_micros(20));
        assert!(io.is_none(), "unreachable everywhere degrades to disk");
        assert_eq!(agent.recovery_stats().degraded_reads, 1);
        // A healthy core still reaches the slab.
        assert!(agent
            .remote_io(RemoteIoKind::Read, 0, 2, Nanos::from_micros(20))
            .is_some());
    }

    #[test]
    fn targeted_plan_spares_other_tenants() {
        use crate::fault::FaultSpec;
        let mut spec = FaultSpec::storm_over(Nanos::ZERO, Nanos::from_micros(500));
        spec.machine_failures = 0; // hardware failures stay global; exclude.
        spec.target_tenant = 2;
        let run = |tenant: u32, spec: &FaultSpec| {
            let mut agent = agent_with(RemoteCluster::homogeneous(4, 64), 2);
            agent.install_fault_plan(FaultPlan::from_spec(11, spec, 4));
            agent.set_active_tenant(tenant);
            let mut out = Vec::new();
            for i in 0..200u64 {
                let io = agent
                    .remote_io(
                        RemoteIoKind::Read,
                        i * 3,
                        (i % 4) as usize,
                        Nanos::from_nanos(i * 900),
                    )
                    .unwrap();
                out.push(io.transport_latency);
            }
            (out, agent.fault_stats())
        };
        // Tenant 1 under the targeted plan sees healthy latencies: identical
        // to a fault-free run (same agent stream, identity modifiers).
        let healthy_spec = FaultSpec::none();
        let (healthy, healthy_stats) = run(1, &healthy_spec);
        let (spared, spared_stats) = run(1, &spec);
        assert_eq!(spared, healthy, "non-targeted tenant must be untouched");
        assert!(spared_stats.is_quiet());
        let _ = healthy_stats;
        // Tenant 2 pays the storm.
        let (hit, hit_stats) = run(2, &spec);
        assert_ne!(hit, healthy);
        assert!(hit_stats.spiked_requests > 0);
    }

    #[test]
    #[should_panic(expected = "replication must be at least 1")]
    fn zero_replication_rejected() {
        let config = HostAgentConfig {
            replication: 0,
            ..HostAgentConfig::default()
        };
        let _ = HostAgent::new(
            config,
            RemoteCluster::homogeneous(1, 1),
            DetRng::seed_from(0),
        );
    }
}
