//! The device transfer both data paths share (Figure 1), with its fault
//! layer: the legacy path and the host agent draw every transfer through
//! [`Device::transfer`], so one rule applies a fault plan to both.

use crate::agent::RemoteIoKind;
use crate::backend::{BackendKind, StorageBackend};
use crate::dispatch::DispatchQueues;
use crate::fault::{FaultInjectionStats, FaultModifiers, FaultPlan, FaultSpec};
use crate::slab::MachineId;
use leap_sim_core::{DetRng, Nanos};

/// A storage backend behind its dispatch queues, under a fault schedule.
/// The empty plan (the default) reproduces healthy runs bit-for-bit.
///
/// # Examples
///
/// ```
/// use leap_remote::{BackendKind, Device, RemoteIoKind};
/// use leap_sim_core::{DetRng, Nanos};
///
/// let mut device = Device::new(BackendKind::Rdma, 1);
/// let mut rng = DetRng::seed_from(7);
/// let (transfer, _) = device.transfer(RemoteIoKind::Read, &mut rng, Nanos::ZERO);
/// // A second request on the same queue waits for the first.
/// assert_eq!(device.dispatch(0, Nanos::ZERO, transfer), Nanos::ZERO);
/// assert_eq!(device.dispatch(0, Nanos::ZERO, transfer), transfer);
/// assert!(device.fault_stats().is_quiet());
/// ```
#[derive(Debug)]
pub struct Device {
    pub(crate) backend: StorageBackend,
    pub(crate) queues: DispatchQueues,
    pub(crate) plan: FaultPlan,
    /// The plan's segments started by the previous request's time
    /// ([`FaultPlan::modifiers_from`]).
    segment_cursor: usize,
    /// The tenant that issued the current access (`0` = untagged).
    pub(crate) active_tenant: u32,
    pub(crate) stats: FaultInjectionStats,
}

impl Device {
    /// A healthy device of the given kind with `queues` (at least one)
    /// dispatch queues.
    pub fn new(kind: BackendKind, queues: usize) -> Self {
        Device {
            backend: StorageBackend::new(kind),
            queues: DispatchQueues::new(queues),
            plan: FaultPlan::empty(),
            segment_cursor: 0,
            active_tenant: 0,
            stats: FaultInjectionStats::default(),
        }
    }

    pub(crate) fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.segment_cursor = 0;
    }

    /// Installs what `(seed, spec)` expands to with no cluster behind the
    /// device: only the epoch faults, never machine failures or partitions.
    pub fn install_epoch_faults(&mut self, seed: u64, spec: &FaultSpec) {
        self.install_fault_plan(FaultPlan::from_spec(seed, spec, 0));
    }

    /// Fault-injection accounting for this device.
    pub fn fault_stats(&self) -> FaultInjectionStats {
        self.stats
    }

    /// Tags subsequent requests with the tenant that issued them.
    pub fn set_active_tenant(&mut self, tenant: u32) {
        self.active_tenant = tenant;
    }

    fn targets_active_tenant(&self) -> bool {
        self.plan.applies_to_tenant(self.active_tenant)
    }

    /// One `kind` transfer issued at `now`: resolves the plan's modifiers
    /// (for every request, so the cursor moves alike whichever tenant the
    /// plan targets), drops them for a tenant the plan does not target,
    /// draws the scaled sample and charges it, reconnect penalty included.
    /// Returns the transfer and the multiplier it was scaled by.
    #[inline]
    pub fn transfer(&mut self, kind: RemoteIoKind, rng: &mut DetRng, now: Nanos) -> (Nanos, u64) {
        let mods = self.plan.modifiers_from(&mut self.segment_cursor, now);
        let mods = if self.targets_active_tenant() {
            mods
        } else {
            FaultModifiers::IDENTITY
        };
        let sample = self.backend.sample_scaled(kind, rng, mods.multiplier_milli);
        (
            self.stats.charge_modifiers(&mods, sample, now),
            mods.multiplier_milli,
        )
    }

    /// Stages a request from `core` on its dispatch queue, returning the
    /// time it waits behind earlier ones.
    #[inline]
    pub fn dispatch(&mut self, core: usize, now: Nanos, service_time: Nanos) -> Nanos {
        self.queues.dispatch(core, now, service_time).queueing_delay
    }

    /// True if a partition in force at `now` severs `core` from `machine`
    /// for the tagged tenant.
    pub(crate) fn link_severed(&self, core: usize, machine: MachineId, now: Nanos) -> bool {
        self.plan.has_partitions()
            && self.targets_active_tenant()
            && self.plan.link_partitioned(core, machine.0, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_targeted_plan_spares_other_tenants_and_charges_its_own() {
        let spec = FaultSpec {
            latency_spikes: 1,
            spike_multiplier_milli: 4_000,
            reconnect_storms: 1,
            reconnect_penalty: Nanos::from_micros(25),
            epoch: Nanos::from_millis(100),
            start: Nanos::ZERO,
            horizon: Nanos::from_micros(1),
            target_tenant: 2,
            ..FaultSpec::none()
        };
        let now = Nanos::from_millis(50);
        let draw = |tenant: u32, spec: &FaultSpec| {
            let mut device = Device::new(BackendKind::Rdma, 1);
            device.install_epoch_faults(3, spec);
            device.set_active_tenant(tenant);
            let mut rng = DetRng::seed_from(9);
            let transfer = device.transfer(RemoteIoKind::Read, &mut rng, now);
            (transfer, device.fault_stats())
        };
        let (healthy, healthy_stats) = draw(1, &FaultSpec::none());
        assert_eq!(healthy.1, 1_000);
        assert!(healthy_stats.is_quiet());
        // Tenant 1 is not the target: the same sample, nothing charged.
        assert_eq!(draw(1, &spec), (healthy, healthy_stats));
        // Tenant 2 pays the 4x spike plus the reconnect penalty.
        let ((transfer, multiplier), stats) = draw(2, &spec);
        assert_eq!(multiplier, 4_000);
        assert_eq!(
            transfer.as_nanos(),
            healthy.0.as_nanos() * 4 + 25_000,
            "scaled sample plus penalty"
        );
        assert_eq!((stats.spiked_requests, stats.reconnect_requests), (1, 1));
    }

    #[test]
    fn epoch_faults_never_sever_a_link() {
        let mut device = Device::new(BackendKind::Rdma, 4);
        device.install_epoch_faults(5, &FaultSpec::canonical_partition_storm());
        for core in 0..4 {
            for micros in (0..900).step_by(50) {
                let now = Nanos::from_micros(micros);
                assert!(!device.link_severed(core, MachineId(0), now));
            }
        }
    }
}
