//! Remote memory slabs and the machines that host them.
//!
//! The host agent divides its remote memory footprint into fixed-size slabs
//! and maps each slab onto one (or, with replication, several) remote
//! machines (§4.4). Slab granularity keeps the mapping table small and lets
//! the agent balance load machine-by-machine.

use leap_sim_core::hash::FxHashMap;
use leap_sim_core::units::{GIB, PAGE_SIZE};

/// The host agent's slab size (1 GB, as used by Infiniswap-style systems).
pub const DEFAULT_SLAB_BYTES: u64 = GIB;

/// Identifier of a slab within one host's remote address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct SlabId(pub u64);

/// Identifier of a remote machine in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

/// A remote machine donating memory to the cluster pool.
#[derive(Debug, Clone)]
pub(crate) struct RemoteMachine {
    id: MachineId,
    capacity_slabs: u64,
    hosted_slabs: u64,
    failed: bool,
}

impl RemoteMachine {
    /// Creates a machine able to host `capacity_slabs` slabs.
    pub fn new(id: MachineId, capacity_slabs: u64) -> Self {
        RemoteMachine {
            id,
            capacity_slabs,
            hosted_slabs: 0,
            failed: false,
        }
    }

    /// The machine's identifier.
    pub(crate) fn id(&self) -> MachineId {
        self.id
    }

    /// Number of slabs currently hosted.
    pub(crate) fn hosted_slabs(&self) -> u64 {
        self.hosted_slabs
    }

    /// Remaining slab capacity (zero once the machine has failed).
    #[cfg(test)]
    pub(crate) fn free_slabs(&self) -> u64 {
        if self.failed {
            return 0;
        }
        self.capacity_slabs - self.hosted_slabs
    }

    /// True if the machine cannot take another slab. A failed machine never
    /// accepts placements.
    pub(crate) fn is_full(&self) -> bool {
        self.failed || self.hosted_slabs >= self.capacity_slabs
    }

    /// True once the machine has failed; its hosted slab copies are lost.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    fn host_one(&mut self) {
        debug_assert!(!self.is_full());
        self.hosted_slabs += 1;
    }

    fn fail(&mut self) {
        self.failed = true;
    }
}

/// The set of remote machines available to a host agent.
#[derive(Debug, Clone, Default)]
pub struct RemoteCluster {
    machines: Vec<RemoteMachine>,
    /// Machine failures applied so far. A placement found all-alive stays
    /// all-alive until this moves, which is what lets the agent memoize it.
    failures: u64,
}

impl RemoteCluster {
    /// Creates an empty cluster.
    pub fn new() -> Self {
        RemoteCluster::default()
    }

    /// Creates a cluster of `n` identical machines, each able to host
    /// `slabs_per_machine` slabs.
    pub fn homogeneous(n: u32, slabs_per_machine: u64) -> Self {
        let machines = (0..n)
            .map(|i| RemoteMachine::new(MachineId(i), slabs_per_machine))
            .collect();
        RemoteCluster {
            machines,
            failures: 0,
        }
    }

    /// Number of machines in the cluster.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// True if the cluster has no machines.
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Total free slab capacity across all machines.
    #[cfg(test)]
    pub(crate) fn total_free_slabs(&self) -> u64 {
        self.machines.iter().map(|m| m.free_slabs()).sum()
    }

    /// Returns the machine with the given index (not id).
    pub(crate) fn machine(&self, index: usize) -> Option<&RemoteMachine> {
        self.machines.get(index)
    }

    /// Marks `index` as hosting one more slab.
    ///
    /// Returns the machine's id, or `None` if the index is out of range or
    /// the machine is full.
    pub(crate) fn host_slab_on(&mut self, index: usize) -> Option<MachineId> {
        let machine = self.machines.get_mut(index)?;
        if machine.is_full() {
            return None;
        }
        machine.host_one();
        Some(machine.id())
    }

    /// Fails the machine at `index`, losing every slab copy it hosted.
    ///
    /// Returns the machine's id, or `None` if the index is out of range or
    /// the machine already failed (a failure event is applied exactly once).
    pub(crate) fn fail_machine(&mut self, index: usize) -> Option<MachineId> {
        let machine = self.machines.get_mut(index)?;
        if machine.is_failed() {
            return None;
        }
        machine.fail();
        self.failures += 1;
        Some(machine.id())
    }

    /// Machine failures applied so far (each [`RemoteCluster::fail_machine`]
    /// that took effect counts once).
    pub(crate) fn failures(&self) -> u64 {
        self.failures
    }

    /// True if the machine with the given id has failed. Unknown ids count
    /// as failed: a placement pointing at a machine that no longer exists
    /// must be repaired, not trusted.
    pub fn is_failed(&self, id: MachineId) -> bool {
        self.machines
            .iter()
            .find(|m| m.id() == id)
            .map(|m| m.is_failed())
            .unwrap_or(true)
    }

    /// Number of machines still alive.
    #[cfg(test)]
    pub(crate) fn alive(&self) -> usize {
        self.machines.iter().filter(|m| !m.is_failed()).count()
    }

    /// The maximum difference in hosted slabs between any two machines —
    /// the imbalance metric the power of two choices keeps small.
    #[cfg(test)]
    pub(crate) fn slab_imbalance(&self) -> u64 {
        let max = self
            .machines
            .iter()
            .map(|m| m.hosted_slabs())
            .max()
            .unwrap_or(0);
        let min = self
            .machines
            .iter()
            .map(|m| m.hosted_slabs())
            .min()
            .unwrap_or(0);
        max - min
    }
}

/// The mapping from a host's slabs to the remote machines hosting them.
#[derive(Debug, Clone)]
pub(crate) struct SlabMap {
    /// The slab size in pages, fixed at construction.
    pages_per_slab: u64,
    /// Slab placements, probed when a remote I/O misses the agent's
    /// placement memo — hashed with the hot-path [`FxHashMap`] (slab ids
    /// are simulator-generated integers).
    placements: FxHashMap<SlabId, Vec<MachineId>>,
}

impl SlabMap {
    /// Creates an empty map with the given slab size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `slab_bytes` is smaller than one page.
    pub fn new(slab_bytes: u64) -> Self {
        assert!(slab_bytes >= PAGE_SIZE, "slab must hold at least one page");
        SlabMap {
            pages_per_slab: slab_bytes / PAGE_SIZE,
            placements: FxHashMap::default(),
        }
    }

    /// Number of pages per slab.
    pub(crate) fn pages_per_slab(&self) -> u64 {
        self.pages_per_slab
    }

    /// The slab that holds the given page offset (in pages).
    pub(crate) fn slab_of_page(&self, page_offset: u64) -> SlabId {
        SlabId(page_offset / self.pages_per_slab)
    }

    /// Records the placement (primary + replicas) of a slab.
    pub(crate) fn place(&mut self, slab: SlabId, machines: Vec<MachineId>) {
        self.placements.insert(slab, machines);
    }

    /// Returns the machines hosting a slab (primary first), if mapped.
    pub(crate) fn machines_of(&self, slab: SlabId) -> Option<&[MachineId]> {
        self.placements.get(&slab).map(|v| v.as_slice())
    }

    /// Number of mapped slabs.
    #[cfg(test)]
    pub(crate) fn mapped_slabs(&self) -> usize {
        self.placements.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn machine_capacity_accounting() {
        let mut cluster = RemoteCluster::homogeneous(2, 3);
        assert_eq!(cluster.total_free_slabs(), 6);
        assert!(cluster.host_slab_on(0).is_some());
        assert!(cluster.host_slab_on(0).is_some());
        assert!(cluster.host_slab_on(0).is_some());
        assert!(cluster.host_slab_on(0).is_none(), "machine 0 is full");
        assert_eq!(cluster.total_free_slabs(), 3);
        assert_eq!(cluster.machine(0).unwrap().free_slabs(), 0);
        assert!(cluster.machine(0).unwrap().is_full());
    }

    #[test]
    fn imbalance_metric() {
        let mut cluster = RemoteCluster::homogeneous(3, 10);
        assert_eq!(cluster.slab_imbalance(), 0);
        cluster.host_slab_on(0);
        cluster.host_slab_on(0);
        cluster.host_slab_on(1);
        assert_eq!(cluster.slab_imbalance(), 2);
    }

    #[test]
    fn slab_of_page_uses_slab_geometry() {
        let map = SlabMap::new(DEFAULT_SLAB_BYTES);
        let pages_per_slab = DEFAULT_SLAB_BYTES / PAGE_SIZE;
        assert_eq!(map.pages_per_slab(), pages_per_slab);
        assert_eq!(map.slab_of_page(0), SlabId(0));
        assert_eq!(map.slab_of_page(pages_per_slab - 1), SlabId(0));
        assert_eq!(map.slab_of_page(pages_per_slab), SlabId(1));
        assert_eq!(map.slab_of_page(10 * pages_per_slab + 5), SlabId(10));
    }

    #[test]
    fn placements_round_trip() {
        let mut map = SlabMap::new(DEFAULT_SLAB_BYTES);
        assert_eq!(map.machines_of(SlabId(3)), None);
        map.place(SlabId(3), vec![MachineId(1), MachineId(2)]);
        assert_eq!(
            map.machines_of(SlabId(3)),
            Some(&[MachineId(1), MachineId(2)][..])
        );
        assert_eq!(map.mapped_slabs(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn tiny_slab_rejected() {
        let _ = SlabMap::new(PAGE_SIZE - 1);
    }

    #[test]
    fn failed_machines_stop_accepting_slabs() {
        let mut cluster = RemoteCluster::homogeneous(3, 4);
        assert_eq!(cluster.alive(), 3);
        assert!(!cluster.is_failed(MachineId(1)));
        assert_eq!(cluster.failures(), 0);
        assert_eq!(cluster.fail_machine(1), Some(MachineId(1)));
        assert!(cluster.is_failed(MachineId(1)));
        assert_eq!(cluster.alive(), 2);
        // Failure is applied exactly once, and counted once.
        assert_eq!(cluster.fail_machine(1), None);
        assert_eq!(cluster.failures(), 1);
        // A failed machine is full and donates no free capacity.
        assert!(cluster.machine(1).unwrap().is_full());
        assert_eq!(cluster.machine(1).unwrap().free_slabs(), 0);
        assert!(cluster.host_slab_on(1).is_none());
        assert_eq!(cluster.total_free_slabs(), 8);
        // Unknown machines count as failed.
        assert!(cluster.is_failed(MachineId(99)));
        assert_eq!(cluster.fail_machine(99), None);
        assert_eq!(cluster.failures(), 1);
    }

    proptest! {
        /// Page → slab mapping is monotone and consistent with slab geometry.
        #[test]
        fn prop_slab_of_page_consistent(page in 0u64..10_000_000, slab_pages in 1u64..100_000) {
            let map = SlabMap::new(slab_pages * PAGE_SIZE);
            let slab = map.slab_of_page(page);
            prop_assert_eq!(slab.0, page / slab_pages);
        }

        /// Hosting never exceeds any machine's capacity.
        #[test]
        fn prop_hosting_respects_capacity(
            capacity in 1u64..8,
            attempts in 1usize..64,
        ) {
            let mut cluster = RemoteCluster::homogeneous(2, capacity);
            let mut hosted = 0u64;
            for i in 0..attempts {
                if cluster.host_slab_on(i % 2).is_some() {
                    hosted += 1;
                }
            }
            prop_assert!(hosted <= 2 * capacity);
            prop_assert_eq!(cluster.total_free_slabs(), 2 * capacity - hosted);
        }
    }
}
