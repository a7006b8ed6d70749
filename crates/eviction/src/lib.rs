//! Eviction policies: the kernel's lazy background LRU reclaim and Leap's
//! eager prefetch-cache eviction.
//!
//! The paper observes (§2.3, Figure 4) that Linux's background reclaimer
//! (`kswapd`) lets already-consumed prefetched pages sit on the LRU lists for
//! a long time; reclaiming them requires scanning, and that scan time inflates
//! page allocation latency under memory pressure. Leap instead frees a
//! prefetched cache page as soon as it is hit, and keeps not-yet-consumed
//! prefetched pages on a FIFO list so that, under severe pressure, they are
//! reclaimed in arrival order (§4.3).
//!
//! - [`lazy`]: the kswapd model — LRU scanning with a per-page scan cost and
//!   wait-time accounting (regenerates Figure 4).
//! - [`eager`]: Leap's `PrefetchFifoLruList` and eager-free behaviour,
//!   including the ~36 % page-allocation-time reduction the paper reports.
//! - [`evictor`]: the [`CacheEvictor`] trait putting both policies behind
//!   one engine-facing interface.

pub mod eager;
pub mod evictor;
pub mod lazy;

pub use eager::{EagerEvictionStats, PrefetchFifoLru};
pub use evictor::{CacheEvictor, EagerEvictor, EvictionReport, LazyEvictor};
pub use lazy::{LazyReclaimer, LazyReclaimerConfig, ReclaimOutcome};
