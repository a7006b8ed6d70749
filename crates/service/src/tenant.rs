//! Tenant registration and admission control.
//!
//! A *tenant* is one ingested (or generated) access trace plus the resident
//! memory budget it asks for. The [`TenantRegistry`] decides which tenants
//! the service runs, and when: under [`AdmissionPolicy::Reject`] a tenant
//! whose budget does not fit the remaining capacity is turned away; under
//! [`AdmissionPolicy::Queue`] it waits for a later *wave* — a batch of
//! co-scheduled tenants whose budgets together fit the service's capacity.
//!
//! Admission is deterministic: tenants are considered in submission order
//! (first-fit), so the same tenant set always produces the same waves.

use leap_workloads::AccessTrace;

/// Identifies a registered tenant (its 0-based submission index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One tenant: a named workload trace and the resident-page budget its
/// admission requests.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Human-readable name (defaults to the trace's name).
    pub name: String,
    /// The access trace the tenant replays.
    pub trace: AccessTrace,
    /// Resident memory budget in pages, enforced by the engine's cgroup
    /// ledger during the run.
    pub budget_pages: u64,
}

impl TenantSpec {
    /// A tenant named after its trace.
    pub fn new(trace: AccessTrace, budget_pages: u64) -> Self {
        TenantSpec {
            name: trace.name().to_string(),
            trace,
            budget_pages,
        }
    }
}

/// What to do with a tenant whose budget does not fit the capacity left by
/// earlier admissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Turn the tenant away; it never runs.
    Reject,
    /// Queue the tenant for a later wave (batch of co-scheduled tenants).
    Queue,
}

/// The deterministic admission plan for a tenant set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionReport {
    /// Tenants that run, grouped into co-scheduled waves in execution
    /// order. Under [`AdmissionPolicy::Reject`] there is at most one wave.
    pub waves: Vec<Vec<TenantId>>,
    /// Tenants turned away: their budget exceeds the service capacity
    /// outright, or the policy is [`AdmissionPolicy::Reject`] and the
    /// capacity left by earlier admissions was insufficient.
    pub rejected: Vec<TenantId>,
}

impl AdmissionReport {
    /// Number of admitted tenants across all waves.
    pub fn admitted_count(&self) -> usize {
        self.waves.iter().map(|w| w.len()).sum()
    }
}

/// Registered tenants plus the admission policy and service capacity that
/// decide which of them run together.
#[derive(Debug, Clone)]
pub struct TenantRegistry {
    capacity_pages: u64,
    policy: AdmissionPolicy,
    specs: Vec<TenantSpec>,
}

impl TenantRegistry {
    /// An empty registry for a service with `capacity_pages` of local
    /// memory to hand out.
    pub fn new(capacity_pages: u64, policy: AdmissionPolicy) -> Self {
        TenantRegistry {
            capacity_pages,
            policy,
            specs: Vec::new(),
        }
    }

    /// Registers a tenant; its [`TenantId`] is its submission index.
    ///
    /// Computes the trace's working set here, once, so every wave's clone
    /// of the trace carries the count instead of sorting the trace again.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        spec.trace.working_set_pages();
        let id = TenantId(self.specs.len() as u32);
        self.specs.push(spec);
        id
    }

    /// The registered spec for `id`.
    pub fn spec(&self, id: TenantId) -> &TenantSpec {
        &self.specs[id.0 as usize]
    }

    /// Plans admission: first-fit in submission order against the service
    /// capacity. Tenants asking for more than the whole capacity are always
    /// rejected; otherwise, under [`AdmissionPolicy::Queue`], tenants that
    /// do not fit the current wave are deferred to later waves until all
    /// are placed.
    pub fn admit(&self) -> AdmissionReport {
        let mut rejected = Vec::new();
        let mut pending: Vec<TenantId> = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let id = TenantId(i as u32);
            if spec.budget_pages > self.capacity_pages {
                rejected.push(id);
            } else {
                pending.push(id);
            }
        }
        let mut waves = Vec::new();
        while !pending.is_empty() {
            let mut wave = Vec::new();
            let mut deferred = Vec::new();
            let mut free = self.capacity_pages;
            for id in pending {
                let budget = self.specs[id.0 as usize].budget_pages;
                if budget <= free {
                    free -= budget;
                    wave.push(id);
                } else {
                    deferred.push(id);
                }
            }
            debug_assert!(!wave.is_empty(), "a fitting tenant always places");
            waves.push(wave);
            match self.policy {
                AdmissionPolicy::Queue => pending = deferred,
                AdmissionPolicy::Reject => {
                    rejected.extend(deferred);
                    pending = Vec::new();
                }
            }
        }
        AdmissionReport { waves, rejected }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leap_sim_core::units::MIB;
    use leap_workloads::sequential_trace;

    fn spec(budget: u64) -> TenantSpec {
        TenantSpec::new(sequential_trace(MIB, 1), budget)
    }

    #[test]
    fn reject_policy_drops_overflow_tenants() {
        let mut reg = TenantRegistry::new(100, AdmissionPolicy::Reject);
        for budget in [60, 50, 30, 200] {
            reg.register(spec(budget));
        }
        let report = reg.admit();
        assert_eq!(report.waves, vec![vec![TenantId(0), TenantId(2)]]);
        assert_eq!(report.rejected, vec![TenantId(3), TenantId(1)]);
    }

    #[test]
    fn queue_policy_defers_to_later_waves() {
        let mut reg = TenantRegistry::new(100, AdmissionPolicy::Queue);
        for budget in [60, 50, 30, 80] {
            reg.register(spec(budget));
        }
        let report = reg.admit();
        assert_eq!(
            report.waves,
            vec![
                vec![TenantId(0), TenantId(2)],
                vec![TenantId(1)],
                vec![TenantId(3)],
            ]
        );
        assert!(report.rejected.is_empty());
        assert_eq!(report.admitted_count(), 4);
    }

    #[test]
    fn oversized_tenant_is_always_rejected() {
        let mut reg = TenantRegistry::new(10, AdmissionPolicy::Queue);
        reg.register(spec(11));
        reg.register(spec(10));
        let report = reg.admit();
        assert_eq!(report.waves, vec![vec![TenantId(1)]]);
        assert_eq!(report.rejected, vec![TenantId(0)]);
    }

    #[test]
    fn admission_is_deterministic() {
        let mut reg = TenantRegistry::new(64, AdmissionPolicy::Queue);
        for budget in [40, 40, 24, 8, 64] {
            reg.register(spec(budget));
        }
        assert_eq!(reg.admit(), reg.admit());
    }
}
